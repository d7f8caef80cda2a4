"""Knowledge-routed dialogue model and its plain encoder-decoder baseline.

The main model decodes each token from a joint softmax over the generic
words plus one reserved KB symbol; the KB symbol's probability gates a
distribution over graph entities obtained by walking the turn's
subgraph N steps from the entities mentioned in the input. The walk's
per-head relation choices come from the decoder state, so editing the
graph changes the reply with frozen parameters. Each turn's graph is
indexed once, over its own entities (Example.adj): the relation head,
the walk and the path readout all run on that index.

Everything runs on the op tape from numkernel, training and inference
alike, so there is exactly one implementation of the forward pass, a
step over (T, B) decoder inputs: one GRU node runs all T positions, then
the heads and the walk run once over the real (turn, position) rows.
Under teacher forcing every decoder input is the gold prefix, known up
front, so training runs a whole padded batch, and teacher-forced
evaluation a whole turn, as one step; greedy decoding runs the same
step's parts one position at a time (T=1) with a batch of one, on a
tape that keeps values only, and takes each token from the values they
computed, with no output mixture. A greedy qadpt step runs its generic
half (decoder GRU and generic head) first, and its walk (relation head,
walk) only when an entity could win the step: an entity's output is the
KB mass g[0] times its walk entry, and the walk keeps its mass, so a
generic word above g[0] * (1 + SKIP_MARGIN) wins. A step that runs its
walk picks its token from g[0] * k and the best generic word.
Each pass builds one tape. A decode returns its turn's encoder state,
which teacher forcing takes instead of encoding the turn again; a
re-decode on an edited graph takes the whole decode, and replays its
graph-free steps (the generic half) while their tokens agree. The
baseline reads no graph, so perturbation re-decodes none of its turns.
Checkpoints are a small binary format:
magic, digest, JSON header, raw little-endian float64 payload (see
save_checkpoint).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import numkernel
from .corpus import (_PARSE_ERRORS, BOS_ID, EOS_ID, PAD_ID, Bundle,
                     DialogueTurn, JsonRecord, Vocabulary, _parse_failure,
                     atomic_open)
from .kgraph import (PERTURB_MODES, AdjacencyTensor, GraphError,
                     KnowledgeGraph, PerturbationResult, Triple,
                     build_adjacency, grounding_paths, perturb_all,
                     perturb_last1, perturb_last2)
from .numkernel import KernelError, Tape

CHECKPOINT_MAGIC = b"QADPT3\n"

KINDS = ("qadpt", "seq2seq")

# Floor under a gold-token probability before its log, in the loss, in
# validation perplexity and in report perplexity.
PROB_FLOOR = 1e-12

MAX_DECODE_LEN = 40   # free-running decode cap unless a caller sets one

# A greedy qadpt step whose best generic probability exceeds the KB mass
# g[0] by this relative margin skips its walk. An entity's
# output is g[0] * k[j], and the walk keeps its mass (k sums to 1 within
# rounding, far inside the margin), so no entity can win such a step.
SKIP_MARGIN = 1e-6


class ModelError(ValueError):
    """Model misuse: bad shapes, empty inputs, unreachable path queries."""


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


@dataclass(frozen=True)
class Hyperparams(JsonRecord):
    hidden_dim: int = 64
    embed_dim: int | None = None   # defaults to hidden_dim
    n_hops: int = 6
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 3
    clip_norm: float = 5.0
    kind: str = "qadpt"
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim is None:
            object.__setattr__(self, "embed_dim", self.hidden_dim)
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ModelError("dims must be >= 1")
        if self.n_hops < 1:
            raise ModelError("hop count must be >= 1")
        if self.batch_size < 1:
            raise ModelError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ModelError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ModelError(f"patience must be >= 0, got {self.patience}")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.lr, self.clip_norm)):
            raise ModelError(f"lr and clip_norm must be finite and positive, "
                             f"got {self.lr} and {self.clip_norm}")
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")


def expected_param_shapes(hyper: Hyperparams, vocab: Vocabulary) -> dict:
    """Every parameter's name and shape. Each GRU is the three tensors
    Tape.gru computes with: `w` (3H, E), `u` (3H, H) and `b` (3H,),
    gate rows in z, r, h order."""
    h, e = hyper.hidden_dim, hyper.embed_dim
    shapes = {"embed": (vocab.size, e)}
    for prefix in ("enc", "dec"):
        shapes.update({f"{prefix}.w": (3 * h, e), f"{prefix}.u": (3 * h, h),
                       f"{prefix}.b": (3 * h,)})
    if hyper.kind == "qadpt":
        shapes["phi_w"] = (vocab.generic_output_size, h)
        shapes["phi_b"] = (vocab.generic_output_size,)
        n_rel = len(vocab.relations) + 1   # with self-loop
        shapes["theta_w"] = (vocab.n_entities * n_rel, h)
        shapes["theta_b"] = (vocab.n_entities * n_rel,)
    else:
        n_out = 2 + len(vocab.generic) + vocab.n_entities
        shapes["out_w"] = (n_out, h)
        shapes["out_b"] = (n_out,)
    return shapes


def init_params(hyper: Hyperparams, vocab: Vocabulary, seed: int) -> dict:
    """Fresh parameters; weight matrices uniform(-0.08, 0.08), bias
    vectors zero. Draws follow expected_param_shapes' order (embed,
    encoder, decoder, output, reasoning), so a seed pins every value.
    A GRU's weights are drawn gate by gate (z, r, h), its input weights
    then its recurrent weights for each gate, and then stacked."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in expected_param_shapes(hyper, vocab).items():
        if name in params:
            continue
        if name.endswith(".w"):   # a GRU's w, drawn together with its u
            n = shape[0] // 3
            draws = [numkernel.init_uniform(rng, (n, cols))
                     for _gate in "zrh" for cols in (shape[1], n)]
            params[name] = np.concatenate(draws[0::2])
            params[name[:-1] + "u"] = np.concatenate(draws[1::2])
        else:
            params[name] = np.zeros(shape) if len(shape) == 1 \
                else numkernel.init_uniform(rng, shape)
    return params


class QadptModel:
    """Parameter container plus the shared tape-based forward pass."""

    def __init__(self, hyper: Hyperparams, vocab: Vocabulary,
                 params: Mapping | None = None):
        self.hyper = hyper
        self.vocab = vocab
        if params is None:
            params = init_params(hyper, vocab, hyper.seed)
        expected = expected_param_shapes(hyper, vocab)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ModelError(f"parameter set mismatch: missing {missing}, "
                             f"unexpected {extra}")
        self.params = {}
        for name, shape in expected.items():
            arr = np.asarray(params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ModelError(f"param {name}: shape {arr.shape}, want {shape}")
            # checked once here: the forward pass records parameters
            # unchecked, and adam_update re-checks each one it changes
            if not np.isfinite(arr).all():
                raise ModelError(f"param {name}: non-finite values")
            self.params[name] = arr

    @property
    def kind(self) -> str:
        return self.hyper.kind

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}


def build_source_vector(entities: Sequence[str],
                        sources: Iterable[str]) -> np.ndarray:
    """Start distribution of the reasoning walk over a turn's subgraph
    entities: uniform over the given sources among them, falling back to
    uniform over all of them when no source is one, and empty for an
    empty subgraph (the entity branch carries no mass that turn)."""
    sources = set(sources)
    support = [i for i, e in enumerate(entities) if e in sources] \
        or list(range(len(entities)))
    s = np.zeros(len(entities))
    if support:
        s[support] = 1.0 / len(support)
    return s


@dataclass
class Example:
    """One turn, fully indexed and ready for the model. `adj` indexes the
    turn's subgraph over its own L entities in vocabulary order, the
    rows 0..L-1 of the walk the model runs; `source_vec` is the walk's
    start vector over them and `pos` their global entity positions."""
    turn_id: str
    enc_ids: tuple
    dec_in_ids: tuple
    target_ids: tuple
    target_tokens: tuple
    subgraph: KnowledgeGraph
    adj: AdjacencyTensor
    source_vec: np.ndarray   # (L,)
    pos: np.ndarray          # (L,)
    raw_sources: tuple


def _bind_graph(vocab: Vocabulary, subgraph: KnowledgeGraph,
                sources: Iterable[str]) -> dict:
    """The Example fields that follow from a turn's subgraph: the graph,
    its adjacency over its own entities in vocabulary order, the walk's
    start vector and the entities' global positions. A subgraph entity
    the vocabulary lacks raises GraphError naming it."""
    unknown = subgraph.entities - vocab.entity_set
    if unknown:
        raise GraphError(f"entities missing from vocabulary: "
                         f"{sorted(unknown)[:5]}")
    ids = np.sort(np.fromiter(map(vocab.token_to_id, subgraph.entities),
                              np.int64, len(subgraph.entities)))
    entities = [vocab.id_to_token[i] for i in ids.tolist()]
    return {"subgraph": subgraph,
            "adj": build_adjacency(subgraph, entities, vocab.relations),
            "source_vec": build_source_vector(entities, sources),
            "pos": ids - vocab.entity_base}


def make_example(turn: DialogueTurn, subgraph: KnowledgeGraph,
                 vocab: Vocabulary) -> Example:
    raw_sources = tuple(sorted(turn.grounding(vocab.entity_set)[0]))
    enc_ids = vocab.tokens_to_ids(turn.scene_entities) + \
        vocab.tokens_to_ids(turn.message)
    if not enc_ids:
        enc_ids = [PAD_ID]
    target_ids = tuple(vocab.tokens_to_ids(turn.response)) + (EOS_ID,)
    if not vocab.emittable_ids.issuperset(target_ids):
        token = next(tok for tok, i in zip(turn.response, target_ids)
                     if i not in vocab.emittable_ids)
        raise ModelError(f"turn {turn.turn_id}: response token {token!r} "
                         f"is a symbol no model emits")
    return Example(
        turn_id=turn.turn_id,
        enc_ids=tuple(enc_ids),
        dec_in_ids=(BOS_ID,) + target_ids[:-1],
        target_ids=target_ids,
        target_tokens=tuple(turn.response),
        raw_sources=raw_sources,
        **_bind_graph(vocab, subgraph, raw_sources),
    )


def make_examples(bundle: Bundle,
                  turns: Sequence[DialogueTurn] | None = None) -> list:
    turns = bundle.turns if turns is None else turns
    return [make_example(t, bundle.subgraph_for(t), bundle.vocab)
            for t in turns]


# ---------------------------------------------------------------------------
# Forward pass
#
# A _TurnState is one pass: its own tape, the parameters recorded on it
# once, and the decoder state of a batch of turns. Its step takes (T, B)
# decoder inputs: T is the whole gold prefix for the loss and
# teacher_force (teacher_forced), and 1 for each greedy step, which
# decoder_step runs without the output mixture, and with its walk only
# when an entity could win the step. Training
# calls backward() on the assembled loss; evaluation and decoding run a
# one-turn state on a non-recording tape and read node values off it.
# greedy_decode hands the turn's encoder state on, so teacher_force
# skips the encoder, and a re-decode on an edited graph given the decode
# skips the encoder and the agreeing steps' generic halves.


@dataclass
class DecoderStep:
    """What one greedy decode step computed, as plain arrays: the decoder
    state, the generic head's softmax row (qadpt's KB mass g[0] first;
    seq2seq's flat softmax over Vocabulary.seq2seq_output_ids) and the
    emitted token. `state` and `softmax` let a decode of the same
    message on another graph replay the step (greedy_decode's `prior`).
    entity (the walk result k) and path_matrix (the (L, R+1) relation
    choices) are over the turn's L subgraph entities, the rows of its
    Example.adj; they are set only on a qadpt step that ran its walk,
    and None on any other step."""
    state: np.ndarray
    softmax: np.ndarray
    token_id: int
    entity: np.ndarray | None = None
    path_matrix: np.ndarray | None = None


def _padded(rows: Sequence[Sequence[int]]) -> tuple:
    """(B, T) ids right-padded with PAD_ID, and each row's length."""
    lengths = np.array([len(r) for r in rows])
    ids = np.full((len(rows), int(lengths.max())), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        ids[i, :len(r)] = r
    return ids, lengths


def _gold_rows(examples: Sequence[Example]) -> tuple:
    """(dec_in, targets, turn, pos) of a teacher-forced pass: the
    decoder inputs and targets, (B, T) right-padded to the longest turn,
    and the real target positions as (turn, pos) index arrays, turn by
    turn."""
    dec_in, lengths = _padded([ex.dec_in_ids for ex in examples])
    targets, _ = _padded([ex.target_ids for ex in examples])
    turn, pos = np.nonzero(np.arange(dec_in.shape[1]) < lengths[:, None])
    return dec_in, targets, turn, pos


def _block_adjacency(examples: Sequence[Example],
                     turn: np.ndarray) -> SimpleNamespace:
    """One walk over a step's rows, row i a copy of the walk of turn
    examples[turn[i]] (its Example.adj): the rows' entity blocks are
    stacked in row order, each block's heads and tails move by the sizes
    of the blocks before it (cumulative offsets), and each block keeps
    its edge order. pos and source (Example.pos and source_vec) are
    stacked alike, and `row` gives each stacked entity row's step row
    i."""
    if turn.size == 1:   # a greedy step of a one-turn state
        ex = examples[turn[0]]
        return SimpleNamespace(
            head=ex.adj.head, rel=ex.adj.rel, tail=ex.adj.tail,
            weight=ex.adj.weight, pos=ex.pos, source=ex.source_vec,
            row=np.zeros(ex.pos.size, dtype=np.int64))
    sizes = np.array([ex.pos.size for ex in examples])
    n_edges = np.array([ex.adj.head.size for ex in examples])

    def take(counts):
        # indices of blocks turn[0], turn[1], ... of the concatenated
        # turns' arrays, and where each lands in the stack
        n = counts[turn]
        land = np.cumsum(n) - n
        return (np.arange(n.sum()) +
                np.repeat((np.cumsum(counts) - counts)[turn] - land, n), land)

    ents, land = take(sizes)
    edges = take(n_edges)[0]
    shift = np.repeat(land, n_edges[turn])

    def cat(field, index):
        get = attrgetter(field)
        return np.concatenate([get(ex) for ex in examples])[index]

    return SimpleNamespace(
        head=cat("adj.head", edges) + shift, rel=cat("adj.rel", edges),
        tail=cat("adj.tail", edges) + shift, weight=cat("adj.weight", edges),
        pos=cat("pos", ents), source=cat("source_vec", ents),
        row=np.repeat(np.arange(turn.size), sizes[turn]))


class _TurnState:
    """One forward pass over a batch of turns: its tape, with every
    parameter recorded first, in sorted-name order (param_grads relies
    on it), and the turns' decoder state.

    qadpt's relation head and walk run over each turn's subgraph
    entities only (Example.adj): a decoder row of a turn with L
    subgraph entities reads L relation rows, and the rows of a step are
    stacked one after another, so the walk's mass vector is as long as
    the rows' L summed.

    `encoded`, the (hidden,) encoder state a one-turn state read off its
    tape (DecodeResult.encoded), is recorded as a leaf instead of running
    the encoder again.
    """

    def __init__(self, model: QadptModel, examples: Sequence[Example],
                 record: bool = True, encoded: np.ndarray | None = None):
        if not examples:
            raise ModelError("empty batch")
        self.model = model
        self.hyper = model.hyper
        self.vocab = model.vocab
        self.tape = t = Tape(record=record)
        # QadptModel checked every parameter finite
        self.pn = {name: t.leaf(arr, check=False)
                   for name, arr in sorted(model.params.items())}
        self.examples = examples
        self._walk_key = self._walk = None
        if encoded is None:
            self.h = self._encode([ex.enc_ids for ex in examples])
            return
        want = (self.hyper.hidden_dim,)
        if np.shape(encoded) != want:
            raise ModelError(f"encoder state has shape {np.shape(encoded)}, "
                             f"want {want}")
        self.h = t.leaf(np.reshape(encoded, (1, -1)))

    def _encode(self, rows) -> int:
        """The node of the encoder's final state, (B, hidden), for B rows
        of input ids: one lookup of every id and one GRU node over all
        steps. Rows are right-padded to the longest and every row runs
        every step; each row's state is read at its last real step, so
        the padded steps get an exactly zero gradient."""
        ids, lengths = _padded(rows)
        if lengths.min() == 0:
            raise ModelError("encoder input is empty")
        t, pn = self.tape, self.pn
        b, hidden = len(rows), self.hyper.hidden_dim
        states = t.gru(t.lookup_row(pn["embed"], ids.T),
                       t.leaf(np.zeros((b, hidden))),
                       pn["enc.w"], pn["enc.u"], pn["enc.b"])
        return t.gather(states, ((lengths - 1)[:, None], np.arange(b)[:, None],
                                 np.arange(hidden)))

    def _walk_rows(self, turn: np.ndarray) -> tuple:
        """The walk's inputs over the rows a step reads, row i belonging
        to turn turn[i]: the relation mask of the stacked entity rows (1.0
        under each relation a row has an edge under, its self-loop
        always) and their source vector as leaves, and the block walk
        (_block_adjacency) of the rows' turns, with `theta`, the
        index of each stacked entity row's relation logits in the rows'
        (rows, E * (R+1)) logits, and `at`, its flat row * E + entity
        position. Kept for the next step that reads the same turns
        (every greedy step does)."""
        key = turn.tobytes()
        if key != self._walk_key:
            t = self.tape
            blk = _block_adjacency(self.examples, turn)
            n_rel = len(self.vocab.relations) + 1
            mask = np.zeros((blk.pos.size, n_rel))
            mask[blk.head, blk.rel] = 1.0
            blk.theta = (blk.row[:, None],
                         blk.pos[:, None] * n_rel + np.arange(n_rel))
            blk.at = blk.row * self.vocab.n_entities + blk.pos
            self._walk = t.leaf(mask), t.leaf(blk.source), blk
            self._walk_key = key
        return self._walk

    def step(self, ids: np.ndarray, rows: tuple = ()) -> tuple:
        """Decoder positions 0..T-1 of every turn from their input ids, a
        (T, B) array: the generic half (_generic_half), then the walk
        (_walk_branch) and the output mixture over the same rows. A
        one-position step (T=1) reads every turn's state, in turn order,
        and moves the state on to it. A longer step is the teacher-forced
        pass over the padded gold prefix: it reads the real target
        positions, `rows`, the (turn, pos) index arrays turn by turn.

        Returns the nodes (o, g, k, rhat): o holds the rows of o_t, the
        full-vocabulary output distribution. qadpt's generic softmax g
        splits its KB mass g[:, 0] over the walk result k; k and the
        relation choices rhat hold the stacked subgraph entity rows of
        the step's rows (_walk_rows). seq2seq's flat softmax g is
        scattered into the vocabulary, and its k and rhat are None.
        """
        h, turn, g = self._generic_half(ids, rows)
        k, rhat = self._walk_branch(h, turn)
        t, vocab = self.tape, self.vocab
        if k is None:
            o = t.mix_output(g, vocab.seq2seq_output_ids, vocab.size)
        else:
            o = t.mix_output(g, vocab.generic_output_ids[1:], vocab.size, k,
                             self._walk_rows(turn)[2].at, vocab.n_entities)
        return o, g, k, rhat

    def _generic_half(self, ids: np.ndarray, rows: tuple = ()) -> tuple:
        """The decoder GRU over (T, B) input ids and the generic head:
        (h, turn, g), the nodes of the rows' decoder states and of their
        generic softmax (qadpt's KB mass first; seq2seq's flat softmax),
        and each row's turn; `rows` as for step. One GRU node runs every
        position."""
        t, pn = self.tape, self.pn
        t_len, b = ids.shape
        states = t.gru(t.lookup_row(pn["embed"], ids), self.h,
                       pn["dec.w"], pn["dec.u"], pn["dec.b"])
        if t_len == 1:
            h = self.h = t.reshape(states, (b, -1))
            turn = np.arange(b)
        else:
            turn, pos = rows
            h = t.gather(states, (pos[:, None], turn[:, None],
                                  np.arange(self.hyper.hidden_dim)))
        head = ("out_w", "out_b") if self.model.kind == "seq2seq" \
            else ("phi_w", "phi_b")
        return h, turn, t.softmax(t.linear(pn[head[0]], h, pn[head[1]]))

    def _walk_branch(self, h: int, turn: np.ndarray) -> tuple:
        """qadpt's walk over rows h of turns `turn`, as the nodes (k,
        rhat): the relation head, its softmax and mask-renorm, and the
        walk, each row with its turn's mask, source vector and graph.
        seq2seq has none: (None, None)."""
        if self.model.kind == "seq2seq":
            return None, None
        t, pn = self.tape, self.pn
        mask, s, blk = self._walk_rows(turn)
        theta = t.linear(pn["theta_w"], h, pn["theta_b"])
        # the relation logits of each row's subgraph entities only
        rhat = t.mask_renorm_rows(t.row_softmax(t.gather(theta, blk.theta)),
                                  mask)
        k = s
        if blk.pos.size:   # a nonempty subgraph holds start mass
            k = t.kg_hop(k, rhat, blk, self.hyper.n_hops)
        return k, rhat

    def teacher_forced(self) -> tuple:
        """The whole gold-prefix pass as one step(): the step nodes over
        every real target position (turn by turn), each row's gold id,
        and per row whether that id is an entity the walk result gives no
        mass. Only this pass reads the gold prefix, so only it pads the
        decoder inputs and targets (_gold_rows)."""
        dec_in, targets, turn, pos = _gold_rows(self.examples)
        nodes = self.step(dec_in.T, (turn, pos))
        y = targets[turn, pos]
        if self.model.kind == "seq2seq":
            return nodes, y, np.zeros(len(y), dtype=bool)
        base = self.vocab.entity_base
        blk = self._walk_rows(turn)[2]
        # a walk entry at its row's gold entity, holding mass
        hit = (blk.pos == (y - base)[blk.row]) & \
            (self.tape.value(nodes[2]) > 0.0)
        reached = np.zeros(len(y), dtype=bool)
        reached[blk.row[hit]] = True
        return nodes, y, (y >= base) & ~reached

    def decoder_step(self, prev) -> DecoderStep:
        """The DecoderStep of a one-position step on a one-turn state,
        with its greedy token, the argmax of the step's output row (ties
        to the lowest id) taken from the values the step computed, with
        no output mixture. `prev` is the previous token id, or the
        DecoderStep of a decode of the same message on another graph
        whose tokens so far equal this decode's: its decoder state and
        generic softmax are then this step's too, and are recorded as
        two leaves instead of running the generic half, which never
        reads the graph.

        seq2seq emits seq2seq_output_ids[argmax(softmax)]. A qadpt step
        whose best generic probability exceeds the KB mass g[0] by more
        than SKIP_MARGIN emits that word without running its walk.
        Otherwise the walk runs: an entity's output is g[0] * k[j], and
        k follows the entities' ascending ids, so the first argmax j is
        the lowest id among tied entities. The entity wins only above
        the best generic probability; on a tie the word wins, as every
        generic id lies below the entities'. With neither positive the
        output row is all zero, and the token is its argmax, PAD_ID."""
        t, vocab = self.tape, self.vocab
        if isinstance(prev, DecoderStep):
            h = self.h = t.leaf(prev.state[None], check=False)
            g = t.leaf(prev.softmax[None], check=False)
        else:
            h, _, g = self._generic_half(np.array([[prev]]))
        gv = t.value(g)[0]
        # both output id lists ascend, so argmax's first index is the
        # lowest id among ties, as on the output row
        if self.model.kind == "seq2seq":
            return DecoderStep(t.value(h)[0], gv, int(
                vocab.seq2seq_output_ids[np.argmax(gv)]))
        best = 1 + int(np.argmax(gv[1:]))
        word = gv[best]
        step = DecoderStep(t.value(h)[0], gv,
                           int(vocab.generic_output_ids[best]))
        if word > gv[0] * (1.0 + SKIP_MARGIN):
            return step
        k, rhat = self._walk_branch(h, np.arange(1))
        step.entity, step.path_matrix = t.value(k), t.value(rhat)
        mass = gv[0] * step.entity   # the entity columns of the output row
        if mass.max(initial=0.0) > word:
            step.token_id = vocab.entity_base + int(
                self.examples[0].pos[np.argmax(mass)])
        elif word <= 0.0:
            step.token_id = PAD_ID
        return step


def batch_loss(model: QadptModel, examples: Sequence[Example]) -> tuple:
    """(tape, loss node, token count, unreachable count) for one batch.

    The loss is the mean over target tokens of -log o_t(y_t), each
    probability floored at PROB_FLOOR. The batch runs as one teacher-forced
    pass over padded turns; only real target positions reach the heads
    and the loss.
    """
    state = _TurnState(model, examples)
    t = state.tape
    nodes, y, unreachable = state.teacher_forced()
    gold = t.gather(nodes[0], (np.arange(len(y)), y))
    loss = t.scale(t.mean(t.log_floor(gold, PROB_FLOOR)), -1.0)
    return t, loss, len(y), int(unreachable.sum())


def param_grads(model: QadptModel, tape: Tape, loss: int) -> dict:
    """Gradients of the loss with respect to every named parameter, for
    a tape built by batch_loss (parameters are the first recorded
    leaves, in sorted name order)."""
    names = sorted(model.params)
    grads_list = tape.backward(loss)
    return {name: grads_list[i] for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Teacher-forced evaluation and free-running decoding


@dataclass
class TeacherResult:
    gold_probs: tuple      # o_t(y_t) per target position
    argmax_ids: tuple      # full-vocabulary argmax per position
    unreachable: int


def teacher_force(model: QadptModel, example: Example,
                  encoded: np.ndarray | None = None) -> TeacherResult:
    """Per target position, the probability of the gold token and the
    argmax, with the gold prefix as decoder input. `encoded` is the
    turn's DecodeResult.encoded, when the caller already has it."""
    state = _TurnState(model, [example], record=False, encoded=encoded)
    nodes, y, unreachable = state.teacher_forced()
    o = state.tape.value(nodes[0])
    return TeacherResult(gold_probs=tuple(o[np.arange(len(y)), y].tolist()),
                         argmax_ids=tuple(o.argmax(axis=1).tolist()),
                         unreachable=int(unreachable.sum()))


@dataclass
class DecodeResult:
    token_ids: tuple           # emitted ids, closing EOS not included
    tokens: tuple
    steps: tuple               # DecoderStep per emitted position (EOS too)
    encoded: np.ndarray        # the turn's encoder state, (hidden,)


def greedy_decode(model: QadptModel, example: Example,
                  max_len: int = MAX_DECODE_LEN,
                  prior: DecodeResult | None = None) -> DecodeResult:
    """Greedy free-running decoding from the example's message and
    subgraph, at most max_len tokens: each step emits its token_id, the
    argmax of its output row, ties to the lowest token id, taken from
    the values the step computed (_TurnState.decoder_step docs the
    rule). A qadpt step whose best generic probability exceeds the KB
    mass g[0] by more than SKIP_MARGIN emits that word without running
    its walk (no entity's g[0] * k[j] can reach it), and its entity and
    path_matrix are None. Any other qadpt step runs its walk and picks
    its token from g[0] * k and the best generic word.

    `prior` is a DecodeResult of the same turn's message by the same
    model, on another graph: the decode takes its encoder state, and
    while this decode's tokens equal the prior's, each step replays the
    prior step's decoder state and generic softmax (neither reads the
    graph) and runs only its walk, on this example's graph, where the
    prior step ran it eagerly. From the first token that differs, steps
    run in full. The result carries the encoder state either way."""
    if max_len < 1:
        raise ModelError(f"decode cap must be >= 1, got {max_len}")
    state = _TurnState(model, [example], record=False,
                       encoded=None if prior is None else prior.encoded)
    encoded = state.tape.value(state.h)[0]   # read before a step moves h
    replay = () if prior is None else prior.steps   # steps whose input agrees
    out_ids = []
    steps = []
    prev = BOS_ID
    for i in range(max_len):
        step = state.decoder_step(replay[i] if i < len(replay) else prev)
        if i < len(replay) and step.token_id != replay[i].token_id:
            replay = ()
        prev = step.token_id
        steps.append(step)
        if prev == EOS_ID:
            break
        out_ids.append(prev)
    id_to_token = model.vocab.id_to_token
    return DecodeResult(token_ids=tuple(out_ids),
                        tokens=tuple(id_to_token[i] for i in out_ids),
                        steps=tuple(steps), encoded=encoded)


# ---------------------------------------------------------------------------
# Reasoning-path readout


@dataclass(frozen=True)
class InferredPath(JsonRecord):
    start: str
    triples: tuple[tuple[str, ...], ...]   # SELF_LOOP steps included
    probability: float


def infer_path(adj: AdjacencyTensor, rhat: np.ndarray, s: np.ndarray,
               entity: str, n_hops: int) -> InferredPath:
    """Highest-probability walk of exactly n_hops ending at the entity.

    Max-product dynamic program over the same transition structure the
    decoder sums over: the turn's adjacency (Example.adj), with rhat and
    s over its entities (DecoderStep.path_matrix, Example.source_vec).
    An entity outside it is unreachable, like one no walk reaches. A
    walk's key is (start entity index, step sequence), each step a
    (relation index, entity index) pair, and ties break toward the
    smallest key: the smallest start first, then the smallest step
    sequence, so start 0 via relation 1 beats start 1 via relation 0.
    Trailing self-loop steps are dropped from the reported triples;
    their weights stay in the probability.
    """
    n = adj.n_entities
    if rhat.shape != (n, adj.n_relations):
        raise ModelError("path matrix shape mismatch")
    try:
        target = adj.entity_index(entity)
    except GraphError:   # outside the turn's graph: no walk reaches it
        target = None
    # dp[v] = (prob, key) with key = (start index, ((rel, ent), ...))
    dp: dict[int, tuple] = {}
    for v in np.flatnonzero(s > 0.0):
        dp[int(v)] = (float(s[v]), (int(v), ()))
    if not dp:
        raise ModelError("source vector is empty")
    # (head, rel, tail, weight, rhat[head, rel]) per edge, in edge order
    edges = list(zip(adj.head.tolist(), adj.rel.tolist(), adj.tail.tolist(),
                     adj.weight.tolist(), rhat[adj.head, adj.rel].tolist()))
    for _ in range(n_hops):
        ndp: dict[int, tuple] = {}
        for h, r, t, w, c in edges:
            cur = dp.get(h)
            if cur is None:
                continue
            prob = cur[0] * c * w
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
    while steps and steps[-1][0] == adj.self_index:
        steps = steps[:-1]
    triples = []
    here = start
    for r, t in steps:
        rel = adj.relations[r]
        triples.append(Triple(adj.entities[here], rel, adj.entities[t]))
        here = t
    return InferredPath(start=adj.entities[start], triples=tuple(triples),
                        probability=prob)


def _decode_paths(model: QadptModel, example: Example,
                  decode: DecodeResult) -> tuple:
    if model.kind != "qadpt":
        return ()
    paths = []
    vocab = model.vocab
    for tid, step in zip(decode.token_ids, decode.steps):
        if vocab.is_entity_id(tid):
            paths.append(infer_path(example.adj, step.path_matrix,
                                    example.source_vec,
                                    vocab.id_to_token[tid],
                                    model.hyper.n_hops))
    return tuple(paths)


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    history: list              # one dict per epoch, JSON-ready
    best_val_ppl: float
    epochs_run: int
    unreachable_total: int


def validation_perplexity(model: QadptModel, examples: Sequence[Example]) -> float:
    total = 0.0
    tokens = 0
    for ex in examples:
        res = teacher_force(model, ex)
        total += -float(np.sum(np.log(np.maximum(res.gold_probs, PROB_FLOOR))))
        tokens += len(res.gold_probs)
    if tokens == 0:
        raise ModelError("no validation tokens")
    return float(np.exp(total / tokens))


def train(model: QadptModel, train_examples: Sequence[Example],
          val_examples: Sequence[Example],
          log_path=None) -> TrainResult:
    """Adam with global-norm clipping and per-epoch seeded shuffling.
    Early stopping watches validation perplexity, and the best-validation
    parameters are restored at the end."""
    if not train_examples or not val_examples:
        raise ModelError("train and validation sets must be nonempty")
    hyper = model.hyper
    rng = np.random.default_rng(hyper.seed)
    state = numkernel.AdamState.create(model.params)
    history: list = []
    best_ppl = np.inf
    best_params = None
    bad = 0
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, hyper.max_epochs + 1):
            t0 = time.monotonic()
            order = rng.permutation(len(train_examples))
            total_nll = 0.0
            total_tokens = 0
            norms = []
            epoch_unreachable = 0
            tape_nodes = 0
            for lo in range(0, len(order), hyper.batch_size):
                batch = [train_examples[int(i)]
                         for i in order[lo:lo + hyper.batch_size]]
                try:
                    tape, loss, n_tok, unreach = batch_loss(model, batch)
                    grads = param_grads(model, tape, loss)
                except KernelError as exc:
                    raise KernelError(
                        f"training diverged in epoch {epoch}: {exc}") from exc
                norms.append(numkernel.clip_global_norm(grads, hyper.clip_norm))
                numkernel.adam_update(model.params, grads, state, hyper.lr)
                total_nll += float(tape.value(loss)) * n_tok
                total_tokens += n_tok
                tape_nodes += len(tape)
                epoch_unreachable += unreach
            train_loss = total_nll / total_tokens
            val_ppl = validation_perplexity(model, val_examples)
            record = {
                "epoch": epoch,
                "train_loss": train_loss, "train_ppl": float(np.exp(train_loss)),
                "val_loss": float(np.log(val_ppl)), "val_ppl": val_ppl,
                "grad_norm": float(np.mean(norms)),
                "unreachable_targets": epoch_unreachable,
                "train_tokens": total_tokens, "tape_nodes": tape_nodes,
                "seconds": time.monotonic() - t0,
            }
            history.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            if val_ppl < best_ppl:
                best_ppl = val_ppl
                best_params = model.copy_params()
                bad = 0
            else:
                bad += 1
                if bad > hyper.patience:
                    break
    finally:
        if log_fh is not None:
            log_fh.close()
    if best_params is not None:
        model.params = best_params
    return TrainResult(history=history, best_val_ppl=float(best_ppl),
                       epochs_run=len(history),
                       unreachable_total=sum(h["unreachable_targets"]
                                             for h in history))


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass(frozen=True)
class CheckpointHeader(JsonRecord):
    """A checkpoint's JSON header. It fixes the tensor layout too: the
    payload is expected_param_shapes(hyper, vocab)'s tensors."""
    hyper: Hyperparams
    vocab: Vocabulary


def save_checkpoint(model: QadptModel, path) -> None:
    """Atomic write of the magic, a SHA-256 of every byte after it, a
    u64 header length, the JSON CheckpointHeader (hyperparameters and
    vocabulary) and the parameters as raw <f8 in sorted-name order. The
    header decides every tensor's shape (expected_param_shapes, each GRU
    as its stacked w, u and b), so the file keeps no copy of the layout;
    CHECKPOINT_MAGIC names this format, and a file of another is
    refused at offset 0."""
    head = json.dumps(CheckpointHeader(model.hyper, model.vocab).to_dict(),
                      ensure_ascii=False).encode("utf-8")
    body = b"".join([struct.pack("<Q", len(head)), head] + [
        np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
        for name in sorted(model.params)])
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(hashlib.sha256(body).digest())
        fh.write(body)


def load_checkpoint(path) -> QadptModel:
    """The model save_checkpoint wrote. A file whose digest does not
    match the bytes after it, whose header is not a CheckpointHeader, or
    whose payload is not exactly the header's tensors raises
    CheckpointError naming the offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    m = len(CHECKPOINT_MAGIC)
    if blob[:m] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0")
    if hashlib.sha256(blob[m + 32:]).digest() != blob[m:m + 32]:
        raise CheckpointError(f"{path}: checksum mismatch at offset {m}")
    head = m + 32 + 8   # a short length field leaves start past the end
    start = head + int.from_bytes(blob[head - 8:head], "little")
    if start > len(blob):
        raise CheckpointError(f"{path}: header at offset {head} runs past "
                              f"the end of the file")
    try:
        header = CheckpointHeader.from_dict(
            json.loads(blob[head:start].decode("utf-8")))
    except _PARSE_ERRORS as exc:
        raise CheckpointError(f"{path}: bad header contents: "
                              f"{_parse_failure(exc)}") from None
    shapes = expected_param_shapes(header.hyper, header.vocab)
    names = sorted(shapes)
    sizes = [math.prod(shapes[name]) for name in names]   # exact, unlike np
    if len(blob) - start != 8 * sum(sizes):
        raise CheckpointError(f"{path}: payload at offset {start} is "
                              f"{len(blob) - start} bytes, the header's "
                              f"tensors take {8 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype="<f8", offset=start).astype(np.float64)
    params = {name: part.reshape(shapes[name]) for name, part in
              zip(names, np.split(flat, np.cumsum(sizes)[:-1]))}
    try:
        return QadptModel(header.hyper, header.vocab, params)
    except ModelError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Perturb and re-decode


@dataclass
class PerturbedTurn:
    turn_id: str
    original_tokens: tuple
    perturbed_tokens: tuple
    edit: PerturbationResult | None   # None: no editable path, graph kept


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def perturb_and_decode(model: QadptModel, examples: Sequence[Example],
                       mode: str, seed: int,
                       max_len: int = MAX_DECODE_LEN) -> list:
    """Decode every turn, perturb its subgraph per the chosen protocol,
    re-decode against the edited graph, and report both outputs.

    `all` swaps whole graphs across the batch and reads no path. For
    last1/last2 the paths are the model's own inferred reasoning paths
    for the entities it emitted; the no-graph baseline has none, so its
    edits follow the gold grounding paths instead. A turn with no path
    kgraph can edit keeps its graph and its reply (`edit` is None).
    Substitute tails come from the global entity vocabulary.

    Each re-decode takes the turn's decode as its prior (greedy_decode):
    an edit changes the graph, not the message, so the re-decode reuses
    the encoder state and, while its tokens equal the original's, each
    step's decoder state and generic softmax, and runs only the walks;
    the tokens are those of a decode of the edited turn from scratch.
    The baseline reads no graph, so its re-decode would replay every
    step: an edited turn keeps its decoded tokens instead.
    """
    if mode not in PERTURB_MODES:
        raise ModelError(f"unknown perturbation mode {mode!r}")
    originals = [greedy_decode(model, ex, max_len=max_len) for ex in examples]
    if mode == "all":
        edited = perturb_all([ex.subgraph for ex in examples], seed)
    else:
        perturb = perturb_last1 if mode == "last1" else perturb_last2
        edited = []
        for i, (ex, dec) in enumerate(zip(examples, originals)):
            paths = ([p.triples for p in _decode_paths(model, ex, dec)]
                     if model.kind == "qadpt" else
                     grounding_paths(ex.subgraph, ex.raw_sources,
                                     ex.target_tokens))
            edited.append(perturb(ex.subgraph, paths, _child_seed(seed, i),
                                  model.vocab.entities))

    results: list[PerturbedTurn] = []
    for ex, dec, res in zip(examples, originals, edited):
        tokens = dec.tokens
        if res is not None and model.kind == "qadpt":
            new_ex = dataclasses.replace(
                ex, **_bind_graph(model.vocab, res.graph, ex.raw_sources))
            tokens = greedy_decode(model, new_ex, max_len=max_len,
                                   prior=dec).tokens
        results.append(PerturbedTurn(ex.turn_id, dec.tokens, tokens, res))
    return results
