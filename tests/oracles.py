"""Independent oracles for the reasoning walk, shared by the unit and
acceptance suites. Everything here recomputes model quantities from
first principles (dense matrices, exhaustive walk enumeration) without
touching the model's own kernel ops."""

from collections import defaultdict

import numpy as np

from kgchat.kgraph import SELF_LOOP, KnowledgeGraph, Triple


def renorm_rows(r, mask):
    masked = r * mask
    return masked / masked.sum(axis=1, keepdims=True)


def dense_transition(subgraph, vocab, rhat):
    """T[h, t] built by hand from the subgraph; rhat rows are the
    decoder's (already renormalized) relation choices."""
    ents = vocab.entities
    idx = {e: i for i, e in enumerate(ents)}
    rels = list(vocab.relations) + [SELF_LOOP]
    n = len(ents)
    T = np.zeros((n, n))
    for i in range(n):
        T[i, i] += rhat[i, len(rels) - 1]
    groups = defaultdict(list)
    for t in subgraph.triples:
        groups[(t.head, t.relation)].append(t.tail)
    for (h, rel), tails in groups.items():
        w = 1.0 / len(tails)
        for tail in tails:
            T[idx[h], idx[tail]] += rhat[idx[h], rels.index(rel)] * w
    return T


def walks_from(subgraph, vocab, start, n_hops):
    ents = vocab.entities
    idx = {e: i for i, e in enumerate(ents)}
    rels = list(vocab.relations) + [SELF_LOOP]
    self_idx = len(rels) - 1
    arcs = defaultdict(list)
    for i in range(len(ents)):
        arcs[i].append((self_idx, i, 1.0))
    groups = defaultdict(list)
    for t in subgraph.triples:
        groups[(idx[t.head], rels.index(t.relation))].append(idx[t.tail])
    for (h, r), tails in groups.items():
        for tail in tails:
            arcs[h].append((r, tail, 1.0 / len(tails)))
    out = []

    def rec(node, steps):
        if len(steps) == n_hops:
            out.append(steps)
            return
        for arc in arcs[node]:
            rec(arc[1], steps + (arc,))

    rec(start, ())
    return out


def path_sum_oracle(subgraph, vocab, rhat, s, n_hops):
    """k via exhaustive walk enumeration."""
    k = np.zeros(len(vocab.entities))
    for start in range(len(vocab.entities)):
        if s[start] <= 0:
            continue
        for steps in walks_from(subgraph, vocab, start, n_hops):
            p = s[start]
            node = start
            for r, tail, w in steps:
                p *= rhat[node, r] * w
                node = tail
            k[node] += p
    return k


def brute_force_best_path(subgraph, vocab, rhat, s, target_pos, n_hops):
    """Max-product walk to target_pos with the model's tie order: higher
    probability first, then lexicographically smaller walk key."""
    best = None
    for start in range(len(vocab.entities)):
        if s[start] <= 0:
            continue
        for steps in walks_from(subgraph, vocab, start, n_hops):
            node = start
            p = s[start]
            key_steps = []
            for r, tail, w in steps:
                p *= rhat[node, r] * w
                key_steps.append((r, tail))
                node = tail
            if node != target_pos or p <= 0:
                continue
            cand = (-p, (start, tuple(key_steps)))
            if best is None or cand < best:
                best = cand
    return None if best is None else (-best[0], best[1])


def random_subgraph(vocab, rng, n_triples=4):
    ents = list(vocab.entities)
    triples = set()
    for _ in range(n_triples):
        h, t = rng.choice(len(ents), size=2)
        rel = vocab.relations[int(rng.integers(len(vocab.relations)))]
        if h != t:
            triples.add(Triple(ents[int(h)], rel, ents[int(t)]))
    return KnowledgeGraph(triples, extra_entities=ents)


def decoder_steps(model, ex, prev_ids):
    """Raw decoder steps for a fixed previous-token sequence."""
    from kgchat.qadpt import _Forward, _TurnState
    state = _TurnState(_Forward(model), ex)
    return [state.decoder_step(p)[1] for p in prev_ids]


def walk_to_triples(vocab, adj, start, steps):
    """Convert a brute-force walk key into (start entity, triples),
    dropping trailing self-loops the way reported paths do."""
    steps = list(steps)
    while steps and steps[-1][0] == adj.self_index:
        steps.pop()
    triples = []
    here = start
    for r, t in steps:
        triples.append(Triple(vocab.entities[here], adj.relations[r],
                              vocab.entities[t]))
        here = t
    return vocab.entities[start], tuple(triples)
