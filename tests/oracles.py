"""Independent oracles for the reasoning walk, shared by the unit and
acceptance suites. Everything here recomputes model quantities from
first principles (dense matrices, exhaustive walk enumeration, one hop
at a time, per-edge loops) without touching the model's own kernel ops.
The teacher-forced pass with the walk over every entity (the layout
the model ran before its walk was cut to each turn's subgraph) and a
decode step scattered back to every entity, the decoder step run in
full (walk and output mixture) with the probe and the reference greedy
decode built on it, the greedy decode's contract against that
reference and the count of a re-decode's replayed steps, the differential of a decode bound to a message's
out-neighbourhood against one bound to the whole graph, the relation
mask, the
finite-difference checker, the adjacency audit view, the lexicon
and dialogue writers, the eager subgraph-row reader, the string-keyed
path search, the per-gate GRU with its layout converters, the
checkpoint rewriters (the current format resealed, the retired manifest
formats written), and the default run with its golden record live here
too: only the tests call them."""

import hashlib
import heapq
import json
import struct
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from kgchat.corpus import (BOS_ID, EOS_ID, DialogueTurn, SyntheticConfig,
                           Vocabulary, generate_synthetic, ingest, write_json)
from kgchat.kgraph import (PERTURB_MODES, SELF_LOOP, KnowledgeGraph, Triple,
                           build_adjacency, out_neighbourhood)
from kgchat.metrics import evaluate_report, perturbation_report
from kgchat.numkernel import _scatter_add, sigmoid
from kgchat.qadpt import (CHECKPOINT_MAGIC, MAX_DECODE_LEN, PROB_FLOOR,
                          Hyperparams, ModelError, QadptModel, _gold_rows,
                          _decode_paths, _TurnState, batch_loss,
                          expected_param_shapes, greedy_decode, make_example,
                          make_examples, param_grads, perturb_and_decode,
                          train)


def renorm_rows(r, mask):
    masked = r * mask
    return masked / masked.sum(axis=1, keepdims=True)


def relation_mask(adj):
    """(entities, R+1) float mask of an adjacency, 1.0 where (head,
    relation) has tails: each entity's self-loop and each (head,
    relation) group of the graph."""
    mask = np.zeros((adj.n_entities, adj.n_relations))
    mask[adj.head, adj.rel] = 1.0
    return mask


class DenseStep(NamedTuple):
    entity: np.ndarray        # (E,) walk result
    path_matrix: np.ndarray   # (E, R+1) relation choices
    source: np.ndarray        # (E,) the turn's start vector
    adj: object               # the turn's graph indexed over every entity


def dense_step(vocab, ex, step):
    """A qadpt decode step as the walk over every vocabulary entity gives
    it: the DecoderStep's walk result and relation choices and the
    turn's start vector scattered from the turn's subgraph rows (ex.pos)
    to every entity, with no mass and the self-loop alone outside the
    subgraph, and the turn's graph indexed over every entity."""
    entity = np.zeros(vocab.n_entities)
    entity[ex.pos] = step.entity
    path = np.zeros((vocab.n_entities, len(vocab.relations) + 1))
    path[:, -1] = 1.0
    path[ex.pos] = step.path_matrix
    source = np.zeros(vocab.n_entities)
    source[ex.pos] = ex.source_vec
    return DenseStep(entity, path, source,
                     build_adjacency(ex.subgraph, vocab.entities,
                                     vocab.relations))


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


def random_subgraph(vocab, rng, n_triples=4, extra=None):
    """A graph of up to n_triples random triples over the vocabulary's
    entities. It holds the entities they name and `extra`, by default
    the first vocabulary entity: so it is never empty, and it leaves an
    entity out (L < E) unless the triples name every other one."""
    ents = list(vocab.entities)
    triples = set()
    for _ in range(n_triples):
        h, t = rng.choice(len(ents), size=2)
        rel = vocab.relations[int(rng.integers(len(vocab.relations)))]
        if h != t:
            triples.add(Triple(ents[int(h)], rel, ents[int(t)]))
    return KnowledgeGraph(triples,
                          extra_entities=ents[:1] if extra is None else extra)


def _eager_step(model, state, prev):
    """One position of a one-turn state run as _TurnState.step in full,
    qadpt's walk and output mixture included, after input `prev`: a
    namespace of the decoder state, the generic head's softmax row, the
    generic distribution and the controller's mass (qadpt's g[1:] and
    g[0]; seq2seq's generic and entity columns), the entity distribution
    (qadpt's walk result k over the turn's subgraph rows; seq2seq's
    entity columns), the relation choices (None for seq2seq) and the
    full-vocabulary output row `combined`, with its argmax (ties to the
    lowest id) as token_id."""
    t = state.tape
    o, g, k, rhat = state.step(np.array([[prev]]))
    gv, combined = t.value(g)[0], t.value(o)[0].copy()
    if model.kind == "seq2seq":
        n_gen = 2 + len(model.vocab.generic)
        parts = dict(generic=gv[:n_gen].copy(),
                     controller=float(gv[n_gen:].sum()),
                     entity=gv[n_gen:].copy(), path_matrix=None)
    else:
        parts = dict(generic=gv[1:].copy(), controller=float(gv[0]),
                     entity=t.value(k), path_matrix=t.value(rhat))
    return SimpleNamespace(state=t.value(state.h)[0], softmax=gv,
                           combined=combined,
                           token_id=int(np.argmax(combined)), **parts)


def decoder_steps(model, ex, prev_ids):
    """Every decoder step for a fixed previous-token sequence, each run
    in full (_eager_step)."""
    state = _TurnState(model, [ex])
    return [_eager_step(model, state, p) for p in prev_ids]


def eager_decode(model, ex, max_len=MAX_DECODE_LEN):
    """The reference greedy decode: every step runs _TurnState.step in
    full (_eager_step), and emits the argmax of its combined row."""
    state = _TurnState(model, [ex], record=False)
    encoded = state.tape.value(state.h)[0]
    ids, steps, prev = [], [], BOS_ID
    for _ in range(max_len):
        steps.append(_eager_step(model, state, prev))
        prev = steps[-1].token_id
        if prev == EOS_ID:
            break
        ids.append(prev)
    return SimpleNamespace(token_ids=tuple(ids), steps=tuple(steps),
                           tokens=tuple(model.vocab.id_to_token[i]
                                        for i in ids),
                           encoded=encoded)


def _same_array(x, y) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and \
        x.tobytes() == y.tobytes()


def assert_same_decode(got, want, vocab):
    """A greedy decode against eager_decode of the same turn, by a model
    over `vocab`: equal tokens and encoder state, and per step the same
    token, the decoder state and softmax row bit for bit, and entity and
    path_matrix bit for bit wherever the greedy step set them. seq2seq
    sets neither. A qadpt step that set neither skipped its walk: the
    eager step's best entity output g[0] * max(k) then lies below the
    emitted word's, and the token is no entity."""
    assert got.token_ids == want.token_ids
    assert got.tokens == want.tokens
    assert _same_array(got.encoded, want.encoded)
    assert len(got.steps) == len(want.steps)
    for i, (a, b) in enumerate(zip(got.steps, want.steps)):
        assert a.token_id == b.token_id, i
        assert _same_array(a.state, b.state), i
        assert _same_array(a.softmax, b.softmax), i
        if b.path_matrix is None:   # seq2seq
            assert a.entity is None and a.path_matrix is None, i
        elif a.entity is not None:
            assert _same_array(a.entity, b.entity), i
            assert _same_array(a.path_matrix, b.path_matrix), i
        else:
            assert a.path_matrix is None, i
            assert b.controller * b.entity.max(initial=0.0) < \
                b.combined[a.token_id], i
            assert not vocab.is_entity_id(a.token_id), i


def replayed_steps(dec, prior) -> int:
    """How many of a re-decode's leading steps replay the prior decode's:
    every step up to and including the first whose token differs."""
    for i, (a, b) in enumerate(zip(dec.steps, prior.steps)):
        if a.token_id != b.token_id:
            return i + 1
    return min(len(dec.steps), len(prior.steps))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_neighbourhood_binding(model, turn, graph, max_len=MAX_DECODE_LEN):
    """A greedy decode of `turn` bound to the n_hops out-neighbourhood of
    its sources (kgraph.out_neighbourhood, as chat binds a message)
    against one bound to the whole `graph`, bit for bit: tokens, encoder
    state, each step's token, decoder state, softmax row, whether it ran
    its walk and, where it did, its entity mass scattered to every
    entity, and the inferred paths with their probabilities; and the two
    bindings' eager references (eager_decode), each step's entity mass
    scattered to every entity and its output row. Returns the two
    bindings' entity counts (L, E)."""
    vocab = model.vocab
    near = make_example(turn, out_neighbourhood(
        graph, turn.grounding(vocab.entity_set)[0], model.hyper.n_hops),
        vocab)
    whole = make_example(turn, graph, vocab)
    a = greedy_decode(model, near, max_len=max_len)
    b = greedy_decode(model, whole, max_len=max_len)
    assert a.token_ids == b.token_ids, turn.turn_id
    assert _bits(a.encoded) == _bits(b.encoded)

    def mass(step, ex):
        if step.entity is None or model.kind == "seq2seq":
            return None if step.entity is None else _bits(step.entity)
        scattered = np.zeros(vocab.n_entities)
        scattered[ex.pos] = step.entity
        return _bits(scattered)

    refs = (eager_decode(model, near, max_len).steps,
            eager_decode(model, whole, max_len).steps)
    for x, y, rx, ry in zip(a.steps, b.steps, *refs, strict=True):
        assert x.token_id == y.token_id
        assert _bits(x.state) == _bits(y.state)
        assert _bits(x.softmax) == _bits(y.softmax)
        assert mass(x, near) == mass(y, whole)
        assert mass(rx, near) == mass(ry, whole)
        assert _bits(rx.combined) == _bits(ry.combined)
    paths = [_decode_paths(model, ex, dec) for ex, dec in ((near, a),
                                                           (whole, b))]
    assert paths[0] == paths[1]
    assert [_bits(p.probability) for p in paths[0]] == \
        [_bits(p.probability) for p in paths[1]]
    return near.pos.size, whole.pos.size


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


# ---------------------------------------------------------------------------
# The GRU in its per-gate layout: nine tensors per GRU, and a `lengths`
# mask that carries a finished row's state through the padded steps, as
# Tape.gru computed it before each GRU was stored as three stacked
# tensors.

GATE_FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


def _gru_key(name):
    """Whether `name` (or the part of it after a "grad/"-like prefix)
    names a stacked GRU tensor: enc.w, enc.u, enc.b, the same of dec,
    or a bare w, u or b."""
    head, _, field = name.rpartition(".")
    return field in ("w", "u", "b") and \
        head.rpartition("/")[2] in ("", "enc", "dec")


def split_gru(params):
    """The per-gate layout of a mapping in the stacked layout: every
    `<gru>.w`/`.u`/`.b` entry (a key may carry a prefix such as
    "grad/") becomes `<gru>.w_z`, `<gru>.w_r`, `<gru>.w_h`, ..., its
    row thirds in z, r, h order; other entries pass through."""
    out = {}
    for name, value in params.items():
        if not _gru_key(name):
            out[name] = value
            continue
        n = value.shape[0] // 3
        for i, gate in enumerate("zrh"):
            out[f"{name}_{gate}"] = value[i * n:(i + 1) * n]
    return out


def fuse_gru(params):
    """split_gru's inverse: the stacked layout of a per-gate mapping."""
    out = {}
    for name, value in params.items():
        stem, sep, gate = name.rpartition("_")
        if not (sep and gate in ("z", "r", "h") and _gru_key(stem)):
            out[name] = value
        elif gate == "z":
            out[stem] = np.concatenate([params[f"{stem}_{g}"] for g in "zrh"])
    return out


def gru_per_gate(x, h0, gates, lengths=None):
    """A GRU run over (T, B, d) steps from the (B, n) state h0, with the
    nine per-gate tensors `gates` (keyed as GATE_FIELDS) and optional
    per-row `lengths` after which a row's state is carried unchanged.
    Returns every step's state, (T, B, n), and a function from their
    gradient to the 11 gradients (dx, dh0, then one per GATE_FIELDS
    entry)."""
    t_len, rows, d = x.shape
    n = h0.shape[1]
    keep = None
    if lengths is not None and rows and np.min(lengths) < t_len:
        keep = (np.arange(t_len)[:, None] < np.asarray(lengths))[:, :, None]
    w = np.concatenate([gates["w_z"], gates["w_r"], gates["w_h"]])
    b = np.concatenate([gates["b_z"], gates["b_r"], gates["b_h"]])
    u_zr = np.concatenate([gates["u_z"], gates["u_r"]])
    u_h = gates["u_h"]
    flat = x.reshape(t_len * rows, d)
    xw = (flat @ w.T + b).reshape(t_len, rows, 3 * n)
    states = np.empty((t_len, rows, n))
    zrs, rhs, htils = [], [], []
    h = h0
    for t in range(t_len):
        zr = sigmoid(xw[t, :, :2 * n] + h @ u_zr.T)
        z = zr[:, :n]
        rh = zr[:, n:] * h
        htil = np.tanh(xw[t, :, 2 * n:] + rh @ u_h.T)
        out = (1.0 - z) * h + z * htil
        if keep is not None:
            out = np.where(keep[t], out, h)
        zrs.append(zr)
        rhs.append(rh)
        htils.append(htil)
        states[t] = h = out

    def backward(g):
        prev = [h0, *states[:-1]]
        dpre = np.empty((t_len, rows, 3 * n))
        dh = np.zeros((rows, n))
        for t in range(t_len - 1, -1, -1):
            gt = g[t] + dh
            if keep is not None:
                carried = np.where(keep[t], 0.0, gt)
                gt = np.where(keep[t], gt, 0.0)
            zr, htil, h = zrs[t], htils[t], prev[t]
            z = zr[:, :n]
            dah = gt * z * (1.0 - htil * htil)
            drh = dah @ u_h
            dzr = np.concatenate([gt * (htil - h), drh * h], axis=1) * \
                zr * (1.0 - zr)
            dpre[t, :, :2 * n] = dzr
            dpre[t, :, 2 * n:] = dah
            dh = gt * (1.0 - z) + drh * zr[:, n:] + dzr @ u_zr
            if keep is not None:
                dh = dh + carried
        dpre = dpre.reshape(t_len * rows, 3 * n)
        dw = dpre.T @ flat
        db = dpre.sum(axis=0)
        du_zr = dpre[:, :2 * n].T @ np.concatenate(prev)
        du_h = dpre[:, 2 * n:].T @ np.concatenate(rhs)
        dx = (dpre @ w).reshape(t_len, rows, -1)
        return (dx, dh, dw[:n], du_zr[:n], db[:n], dw[n:2 * n], du_zr[n:],
                db[n:2 * n], dw[2 * n:], du_h, db[2 * n:])

    return states, backward


# ---------------------------------------------------------------------------
# Differential loss checks: seeded toy batches and the batch_loss
# results pinned for them (tests/data/batch_loss_parent.npz)

PIN_KINDS = ("qadpt", "seq2seq")
PIN_SEEDS = (0, 1, 2)


def toy_batch(kind, seed):
    """(model, examples): a small seeded model and a batch of turns of
    ragged encoder and decoder lengths over random subgraphs, with one
    turn on an empty subgraph and one whose entity target no walk
    reaches, in seeded order."""
    vocab = Vocabulary(generic=("lives", "in", "yes", "where", "is"),
                       entities=("a", "b", "c", "d", "e"),
                       relations=("q", "r"))
    rng = np.random.default_rng(seed)
    words = vocab.generic + vocab.entities

    def example(i, msg, resp, graph):
        turn = DialogueTurn(dialogue_id=f"pin{seed}", turn=i, speaker="s",
                            scene_entities=(), message=tuple(msg),
                            response=tuple(resp))
        return make_example(turn, graph, vocab)

    def words_of(lo, hi):
        return [words[int(j)] for j in rng.integers(len(words),
                                                    size=rng.integers(lo, hi))]

    n = 5 + seed
    # every subgraph holds every entity, as when the pin was taken
    examples = [example(i, words_of(1, 7), words_of(0, 6),
                        random_subgraph(vocab, rng, 5, extra=vocab.entities))
                for i in range(n)]
    examples.append(example(n, ["where", "a"], ["b", "yes"],
                            KnowledgeGraph([])))
    examples.append(example(n + 1, ["a", "lives"], ["e", "yes"],
                            KnowledgeGraph([Triple("a", "q", "b")],
                                           extra_entities=["e"])))
    model = QadptModel(Hyperparams(kind=kind, hidden_dim=6, embed_dim=5,
                                   n_hops=3, seed=seed), vocab)
    return model, [examples[int(i)] for i in rng.permutation(len(examples))]


def loss_and_grads(model, examples):
    """batch_loss's mean loss, token and unreachable counts, and the
    gradient of every parameter, keyed by name."""
    tape, loss, n_tok, unreachable = batch_loss(model, examples)
    grads = param_grads(model, tape, loss)
    return {"loss": float(tape.value(loss)), "n_tok": n_tok,
            "unreachable": unreachable,
            **{f"grad/{name}": g for name, g in grads.items()}}


def write_batch_loss_pin(path):
    """Save loss_and_grads of every toy batch as `kind/seed/field`."""
    arrays = {}
    for kind in PIN_KINDS:
        for seed in PIN_SEEDS:
            for field, value in loss_and_grads(*toy_batch(kind, seed)).items():
                arrays[f"{kind}/{seed}/{field}"] = np.asarray(value)
    np.savez_compressed(path, **arrays)


# ---------------------------------------------------------------------------
# The golden record of the default run (tests/data/pipeline_record.json):
# what the acceptance suite's `pipeline` produces that does not hang on
# BLAS rounding


RECORD_SEED = 13


def default_pipeline() -> SimpleNamespace:
    """Both kinds trained on the default synthetic world (seed 7, hidden
    64, 6 hops, 30 epochs, patience 3, seed 0) and evaluated on its test
    split."""
    raw = generate_synthetic(SyntheticConfig(), seed=7)
    bundle = ingest(raw.raw_turns, raw.graph, lexicon=raw.lexicon,
                    split_seed=0)
    tr = make_examples(bundle, bundle.split_turns("train"))
    va = make_examples(bundle, bundle.split_turns("valid"))
    te = make_examples(bundle, bundle.split_turns("test"))

    hy = Hyperparams(kind="qadpt", hidden_dim=64, embed_dim=64, n_hops=6,
                     lr=1e-3, batch_size=32, max_epochs=30, patience=3,
                     seed=0)
    qadpt = QadptModel(hy, bundle.vocab)
    t0 = time.perf_counter()
    train(qadpt, tr, va)
    qadpt_seconds = time.perf_counter() - t0

    seq2seq = QadptModel(Hyperparams(kind="seq2seq", hidden_dim=64,
                                     embed_dim=64, lr=1e-3, batch_size=32,
                                     max_epochs=30, patience=3, seed=0),
                         bundle.vocab)
    train(seq2seq, tr, va)

    return SimpleNamespace(
        bundle=bundle, test=te, qadpt=qadpt, seq2seq=seq2seq,
        qadpt_seconds=qadpt_seconds,
        report_q=evaluate_report(qadpt, te),
        report_s=evaluate_report(seq2seq, te))


def _rounded(value):
    """value with every float rounded to 1e-9."""
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    return round(value, 9) if isinstance(value, float) else value


def pipeline_record(pipeline) -> dict:
    """Per kind: each test turn's decoded tokens and (qadpt) each
    inferred path's start and triples; the report's metrics rounded to
    1e-9; and under each perturbation mode (seed 13) each turn's
    perturbed tokens and flags, with the report's counts and rates.
    Tokens and triples are joined by spaces, a path is [start, triple,
    ...]."""
    ents = pipeline.bundle.vocab.entities
    record = {}
    for model, report in ((pipeline.qadpt, pipeline.report_q),
                          (pipeline.seq2seq, pipeline.report_s)):
        perturbed = {}
        for mode in PERTURB_MODES:
            rep = perturbation_report(
                ents, perturb_and_decode(model, pipeline.test, mode,
                                         seed=RECORD_SEED), mode)
            perturbed[mode] = {
                "scores": _rounded({key: getattr(rep, key) for key in (
                    "n_turns", "n_skipped", "change_rate",
                    "accurate_change_rate")}),
                "turns": {t.turn_id: {"perturbed": " ".join(t.perturbed),
                                      "skipped": t.skipped,
                                      "changed": t.changed,
                                      "accurate": t.accurate}
                          for t in rep.turns}}
        record[model.kind] = {
            "metrics": _rounded(report.metrics),
            "turns": {t.turn_id: {"generated": " ".join(t.generated),
                                  "paths": [[p.start, *map(" ".join,
                                                           p.triples)]
                                            for p in t.paths]}
                      for t in report.turns},
            "perturb": perturbed}
    return record


def record_diff(want, got, where: str = "") -> list:
    """The key paths ('qadpt/turns/syn00012#3/generated', ...) at which
    two records differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(want.keys() | got.keys()):
            if key in want and key in got:
                out.extend(record_diff(want[key], got[key], f"{where}/{key}"))
            else:
                out.append(f"{where}/{key}")
        return out
    return [] if json.dumps(want) == json.dumps(got) else [where]


def write_pipeline_record(path):
    """Write pipeline_record of a fresh default_pipeline as JSON."""
    write_json(pipeline_record(default_pipeline()), path)


# ---------------------------------------------------------------------------
# The walk over every entity


class AllEntityPass(NamedTuple):
    tape: object
    loss: int            # batch_loss's loss node
    k: np.ndarray        # (rows, E) walk result
    rhat: np.ndarray     # (rows, E, R+1) renormalized relation choices
    unreachable: int     # entity targets k gives no mass


def all_entity_pass(model, examples, record=True) -> AllEntityPass:
    """batch_loss's teacher-forced qadpt pass with the relation head and
    the walk over every entity of the vocabulary: theta reshaped to
    (rows * E, R+1) relation rows, and for each row its turn's graph
    indexed over every entity (built here from ex.subgraph), its mask,
    and ex.source_vec scattered to E at ex.pos; the rows' adjacencies
    are one adjacency at offsets row * E. The parameters are the
    state's leaves, so param_grads reads this tape as it reads
    batch_loss's."""
    state = _TurnState(model, examples, record)
    t, pn, vocab = state.tape, state.pn, model.vocab
    n, n_rel = vocab.n_entities, len(vocab.relations) + 1
    dec_in, targets, turn, pos = _gold_rows(examples)
    states = t.gru(t.lookup_row(pn["embed"], dec_in.T), state.h,
                   pn["dec.w"], pn["dec.u"], pn["dec.b"])
    h = t.gather(states, (pos[:, None], turn[:, None],
                          np.arange(model.hyper.hidden_dim)))
    turn_adjs = [build_adjacency(ex.subgraph, vocab.entities, vocab.relations)
                 for ex in examples]
    adjs = [turn_adjs[i] for i in turn]
    mask = t.leaf(np.concatenate([relation_mask(a) for a in adjs]))
    source = np.zeros((len(turn), n))
    for row, i in enumerate(turn):
        source[row, examples[i].pos] = examples[i].source_vec
    source = source.reshape(-1)
    s = t.leaf(source)
    g = t.softmax(t.linear(pn["phi_w"], h, pn["phi_b"]))
    theta = t.linear(pn["theta_w"], h, pn["theta_b"])
    rhat = t.mask_renorm_rows(t.row_softmax(t.reshape(theta, (-1, n_rel))),
                              mask)
    shift = np.repeat(np.arange(len(adjs)) * n, [a.head.size for a in adjs])
    block = SimpleNamespace(
        head=np.concatenate([a.head for a in adjs]) + shift,
        rel=np.concatenate([a.rel for a in adjs]),
        tail=np.concatenate([a.tail for a in adjs]) + shift,
        weight=np.concatenate([a.weight for a in adjs]))
    k = t.kg_hop(s, rhat, block, model.hyper.n_hops) if source.sum() > 0 \
        else s
    o = t.mix_output(g, vocab.generic_output_ids[1:], vocab.size, k,
                     np.arange(len(turn) * n), n)
    y = targets[turn, pos]
    gold = t.gather(o, (np.arange(len(y)), y))
    loss = t.scale(t.mean(t.log_floor(gold, PROB_FLOOR)), -1.0)
    kk = t.value(k).reshape(len(y), n)
    entity = y >= vocab.entity_base
    kpos = kk[np.arange(len(y)), np.where(entity, y - vocab.entity_base, 0)]
    return AllEntityPass(t, loss, kk, t.value(rhat).reshape(len(y), n, n_rel),
                         int((entity & (kpos <= 0.0)).sum()))


# ---------------------------------------------------------------------------
# One hop at a time, and the per-edge path readout


def kg_hop(v, rhat, adj):
    """Forward of one reasoning hop: Tape.kg_hop with hops=1.

    Each tail accumulates in the adjacency's fixed edge order, which
    keeps results bit-reproducible.
    """
    contrib = v[adj.head] * rhat[adj.head, adj.rel] * adj.weight
    return _scatter_add(v.shape, adj.tail, contrib)


def infer_path_per_edge(adj, rhat, s, entity, n_hops):
    """qadpt.infer_path's dynamic program indexing the adjacency and the
    path matrix edge by edge: (probability, start index, steps) of the
    best walk to the entity, trailing self-loops kept."""
    n = adj.n_entities
    if rhat.shape != (n, adj.n_relations):
        raise ModelError("path matrix shape mismatch")
    target = adj.entity_index(entity)
    dp = {}
    for v in np.flatnonzero(s > 0.0):
        dp[int(v)] = (float(s[v]), (int(v), ()))
    if not dp:
        raise ModelError("source vector is empty")
    for _ in range(n_hops):
        ndp = {}
        for h, r, t, w in zip(adj.head, adj.rel, adj.tail, adj.weight):
            h, r, t = int(h), int(r), int(t)
            cur = dp.get(h)
            if cur is None:
                continue
            prob = cur[0] * float(rhat[h, r]) * float(w)
            if prob <= 0.0:
                continue
            key = (cur[1][0], cur[1][1] + ((r, t),))
            best = ndp.get(t)
            if best is None or (-prob, key) < (-best[0], best[1]):
                ndp[t] = (prob, key)
        dp = ndp
    if target not in dp:
        raise ModelError(f"entity {entity!r} unreachable in {n_hops} hops")
    prob, (start, steps) = dp[target]
    return prob, start, steps


# ---------------------------------------------------------------------------
# k shortest loopless paths over entity names and arc tuples: the search
# kgraph ran before it moved onto node ids and arc ranks.


class Arc(NamedTuple):
    """One traversal step. Stored triples are walkable in both directions
    for path sampling; flag 0 follows the stored orientation, flag 1
    goes against it. The reported path always carries the stored triple."""
    relation: str
    neighbor: str
    flag: int
    triple: Triple


def arc_adjacency(graph):
    """Node -> its arcs in (relation, neighbor, flag) order."""
    adj = {}
    for t in graph.triples:
        adj.setdefault(t.head, []).append(Arc(t.relation, t.tail, 0, t))
        if t.tail != t.head:
            adj.setdefault(t.tail, []).append(Arc(t.relation, t.head, 1, t))
    return {node: tuple(sorted(arcs)) for node, arcs in adj.items()}


def arc_best_path(adj, source, target, banned_arcs, banned_nodes):
    """The path minimizing (length, lexicographic path key), avoiding
    banned nodes and banned (node, arc) steps, as a tuple of arcs; None
    when target is unreachable. Breadth-first, arcs in key order."""
    if source == target:
        return ()
    via = {source: None}
    queue = deque((source,))
    while queue:
        node = queue.popleft()
        for arc in adj.get(node, ()):
            nxt = arc.neighbor
            if nxt in via or nxt in banned_nodes:
                continue
            if banned_arcs and (node, arc) in banned_arcs:
                continue
            via[nxt] = (node, arc)
            if nxt == target:
                path = []
                while nxt != source:
                    nxt, arc = via[nxt]
                    path.append(arc)
                return tuple(reversed(path))
            queue.append(nxt)
    return None


def arc_yen(adj, source, target, k):
    """Yen (1971) over an arc adjacency: the k shortest loopless
    source -> target paths as arc tuples ordered by (length, key),
    banned nodes and (node, arc) steps rebuilt for every spur."""
    first = arc_best_path(adj, source, target, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first]
    candidates = []
    known = {first}
    while len(accepted) < k:
        prev = accepted[-1]
        prev_nodes = [source] + [a.neighbor for a in prev]
        for i in range(len(prev)):
            spur_node = prev_nodes[i]
            root = prev[:i]
            banned_arcs = set()
            for path in accepted:
                if len(path) > i and path[:i] == root:
                    banned_arcs.add((spur_node, path[i]))
            banned_nodes = set(prev_nodes[:i])
            spur = arc_best_path(adj, spur_node, target, banned_arcs,
                                 banned_nodes)
            if spur is None:
                continue
            cand = root + spur
            if cand not in known:
                known.add(cand)
                heapq.heappush(candidates, (len(cand), cand))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates)[1])
    return accepted


# ---------------------------------------------------------------------------
# Test-only views and writers


def adjacency_rows(adj):
    """Audit view: (head index, relation index) -> ((tail index, weight), ...)."""
    out = {}
    for h, r, t, w in zip(adj.head, adj.rel, adj.tail, adj.weight):
        out.setdefault((int(h), int(r)), []).append((int(t), float(w)))
    return {k: tuple(v) for k, v in out.items()}


def save_lexicon(lexicon, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# surface\tcanonical_entity\n")
        for surface in sorted(lexicon):
            fh.write(f"{surface}\t{lexicon[surface]}\n")


def save_dialogues_jsonl(turns, path):
    """Raw turns as the dialogues.jsonl `kgchat ingest` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in turns:   # its fields, in declaration order
            fh.write(json.dumps(vars(t), ensure_ascii=False) + "\n")


def eager_subgraphs(path):
    """turn id -> KnowledgeGraph for every row of a subgraphs.jsonl,
    each row parsed and built at once, as load_bundle did before it
    indexed the rows."""
    subgraphs = {}
    with open(path, "rb") as fh:
        for raw in fh:
            if raw.strip():
                obj = json.loads(raw)
                subgraphs[obj["turn_id"]] = KnowledgeGraph(
                    [Triple(*t) for t in obj["triples"]],
                    extra_entities=obj.get("entities", ()))
    return subgraphs


# ---------------------------------------------------------------------------
# Checkpoint files


def checkpoint_parts(path) -> tuple:
    """The JSON header (a dict) and the payload bytes of a checkpoint."""
    blob = path.read_bytes()
    head = len(CHECKPOINT_MAGIC) + 32 + 8
    (n,) = struct.unpack("<Q", blob[head - 8:head])
    return json.loads(blob[head:head + n]), blob[head + n:]


def seal_checkpoint(path, header, payload, head_len=None) -> None:
    """Write `header` and `payload` as a checkpoint under a digest of
    every byte after the magic, so the file is refused, if it is, for
    its contents. A `header` of bytes is written as it is. `head_len`
    replaces the true header length."""
    head = header if isinstance(header, bytes) else \
        json.dumps(header, ensure_ascii=False).encode("utf-8")
    body = struct.pack("<Q", len(head) if head_len is None else head_len)
    body += head + payload
    path.write_bytes(CHECKPOINT_MAGIC + hashlib.sha256(body).digest() + body)


def tensor_offsets(header) -> dict:
    """Payload byte offset of each tensor of a checkpoint header's
    layout: expected_param_shapes' tensors in sorted-name order."""
    shapes = expected_param_shapes(Hyperparams.from_dict(header["hyper"]),
                                   Vocabulary.from_dict(header["vocab"]))
    offsets, at = {}, 0
    for name in sorted(shapes):
        offsets[name] = at
        at += 8 * int(np.prod(shapes[name]))
    return offsets


def rewrite_checkpoint(path, edit=None, poison=None) -> None:
    """Reseal a saved checkpoint after `edit` changes its JSON header in
    place, or `poison` = (name, value) writes value over the first entry
    of tensor `name`: only that change is wrong."""
    header, payload = checkpoint_parts(path)
    if edit is not None:
        edit(header)
    if poison is not None:
        name, value = poison
        at = tensor_offsets(header)[name]
        payload = payload[:at] + struct.pack("<d", value) + payload[at + 8:]
    seal_checkpoint(path, header, payload)


def save_manifest_checkpoint(path, magic, hyper, vocab, params) -> None:
    """`params` in the layout of checkpoint formats 1 (QADPT1, each GRU
    as nine per-gate tensors) and 2 (QADPT2, stacked): magic, u64 header
    length, a JSON header with a per-tensor name/shape/offset manifest
    and a digest of the payload only, then the payload."""
    manifest, chunks, offset = [], [], 0
    for name in sorted(params):
        raw = np.ascontiguousarray(params[name], dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(params[name].shape),
                         "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    head = json.dumps({"hyper": hyper.to_dict(), "vocab": vocab.to_dict(),
                       "manifest": manifest, "payload_bytes": len(payload),
                       "sha256": hashlib.sha256(payload).hexdigest()}).encode()
    path.write_bytes(magic + struct.pack("<Q", len(head)) + head + payload)


# ---------------------------------------------------------------------------
# Finite differences


@dataclass
class FiniteDiffReport:
    tolerance: float
    per_param: dict
    worst_param: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def finite_diff_check(build_loss: Callable, params: Mapping, step: float = 1e-5,
                      tolerance: float = 1e-4) -> FiniteDiffReport:
    """Compare tape gradients against central finite differences.

    `build_loss(params)` must return (tape, loss_node, param_nodes) where
    param_nodes maps each parameter name to its leaf node. Every
    coordinate of every parameter is perturbed by +-step. The report
    lists the worst relative error per parameter; it never raises on a
    failed comparison, callers inspect `passed`.

    Relative error uses a small floor in the denominator so that
    coordinates whose true gradient is ~0 are judged by absolute error.
    """
    tape, loss, nodes = build_loss(params)
    grads = tape.backward(loss)

    def loss_value(p) -> float:
        t, l, _ = build_loss(p)
        return float(t.value(l))

    per_param = {}
    for name in params:
        base = params[name]
        analytic = grads[nodes[name]]
        worst = 0.0
        flat = base.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_value(params)
            flat[i] = orig - step
            down = loss_value(params)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            worst = max(worst, err)
        per_param[name] = worst

    worst_param = max(per_param, key=per_param.get) if per_param else ""
    return FiniteDiffReport(
        tolerance=tolerance,
        per_param=per_param,
        worst_param=worst_param,
        max_rel_err=max(per_param.values()) if per_param else 0.0,
    )
