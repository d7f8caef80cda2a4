"""Independent oracles for the reasoning walk, shared by the unit and
acceptance suites. Everything here recomputes model quantities from
first principles (dense matrices, exhaustive walk enumeration, one hop
at a time, per-edge loops) without touching the model's own kernel ops.
The finite-difference checker, the adjacency audit view, the lexicon
and dialogue writers, the eager subgraph-row reader, the string-keyed
path search, the per-gate GRU with its layout converters, and the
checkpoint rewriters (the current format resealed, the retired manifest
formats written) live here too: only the tests call them."""

import hashlib
import heapq
import json
import struct
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from kgchat.corpus import DialogueTurn, Vocabulary
from kgchat.kgraph import SELF_LOOP, KnowledgeGraph, Triple
from kgchat.numkernel import _scatter_add, sigmoid
from kgchat.qadpt import (CHECKPOINT_MAGIC, Hyperparams, ModelError,
                          QadptModel, batch_loss, expected_param_shapes,
                          make_example, param_grads)


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
    from kgchat.qadpt import _TurnState
    state = _TurnState(model, [ex])
    return [state.decoder_step(p) for p in prev_ids]


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
    examples = [example(i, words_of(1, 7), words_of(0, 6),
                        random_subgraph(vocab, rng, 5)) for i in range(n)]
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
