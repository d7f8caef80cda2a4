"""Minimal float64 numeric kernel.

Everything the dialogue models need and nothing more: a recorded-op
reverse-accumulation gradient tape whose ops are exactly the ones the
models record, each on (B, ...) rows (a stabilized softmax, a fused
linear layer and the output mixture among them) or, for a GRU run over
T steps and the embedding lookup that feeds it, on (T, B, ...) steps of
rows; the N-hop graph walk runs over the stacked entity rows of the
turns' subgraphs, L rows per decoder row for a subgraph of L entities;
and Adam with global-norm clipping. A GRU is the three tensors its
kernel computes with, each stacking the z, r and h gates' rows: input
weights w, recurrent weights u and biases b. All kernels are
deterministic pure functions over float64 arrays. Any op that produces
NaN or Inf raises KernelError instead of letting the value propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "KernelError",
    "sigmoid",
    "Tape",
    "AdamState",
    "adam_update",
    "clip_global_norm",
    "init_uniform",
]

class KernelError(ValueError):
    """Shape mismatch, non-finite value, or tape misuse."""


def _require_finite(arr: np.ndarray, what: str) -> None:
    # count_nonzero: the same test as isfinite(arr).all(), with less
    # per-call overhead on the small arrays every op checks
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise KernelError(f"non-finite values in {what}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|: exp only ever sees
    -|x|, as 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x))
    below (one division, numerator chosen per entry)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# GRU


def _gru_forward(x, h, w, u, b):
    """A GRU run over T steps of a batch: x is (T, B, d) and h the (B, n)
    start state, one row per sequence. w (3n, d), u (3n, n) and b (3n,)
    stack the z, r and h gates' input weights, recurrent weights and
    biases, in that row order. Returns every step's state, (T, B, n), and
    the cache the backward pass needs.

    Convention: z is the write gate. h' = (1 - z) * h + z * h_tilde,
    so z -> 0 carries the old state through unchanged. The input side of
    the gates, x @ w.T + b, is one product over all T*B rows before the
    time loop; per step, z and r share one recurrent product.
    """
    t_len, rows, d = x.shape
    n = h.shape[1]
    u_zr, u_h = u[:2 * n], u[2 * n:]
    h0 = h
    flat = x.reshape(t_len * rows, d)
    xw = (flat @ w.T + b).reshape(t_len, rows, 3 * n)
    states = np.empty((t_len, rows, n))
    zrs, rhs, htils = [], [], []
    for t in range(t_len):
        zr = sigmoid(xw[t, :, :2 * n] + h @ u_zr.T)
        z = zr[:, :n]
        rh = zr[:, n:] * h
        htil = np.tanh(xw[t, :, 2 * n:] + rh @ u_h.T)
        zrs.append(zr)
        rhs.append(rh)
        htils.append(htil)
        states[t] = h = (1.0 - z) * h + z * htil
    return states, (flat, h0, states, zrs, rhs, htils, w, u_zr, u_h)


def _gru_backward(g, cache):
    """Backpropagation through time for a GRU run: g is the gradient of
    every step's state, (T, B, n). Only dh passes from step to step; the
    stacked weight and bias gradients, summed over the batch and the
    steps, and dx are each one product over all T*B rows. Returns the
    gradients in Tape.gru's operand order."""
    flat, h0, states, zrs, rhs, htils, w, u_zr, u_h = cache
    t_len, rows, n = g.shape
    prev = [h0, *states[:-1]]
    dpre = np.empty((t_len, rows, 3 * n))   # d(loss)/d(gate pre-activations)
    dh = np.zeros((rows, n))
    for t in range(t_len - 1, -1, -1):
        gt = g[t] + dh
        zr, htil, h = zrs[t], htils[t], prev[t]
        z = zr[:, :n]
        dah = gt * z * (1.0 - htil * htil)
        drh = dah @ u_h
        dzr = np.concatenate([gt * (htil - h), drh * h], axis=1) * \
            zr * (1.0 - zr)
        dpre[t, :, :2 * n] = dzr
        dpre[t, :, 2 * n:] = dah
        dh = gt * (1.0 - z) + drh * zr[:, n:] + dzr @ u_zr
    dpre = dpre.reshape(t_len * rows, 3 * n)
    du = np.concatenate([dpre[:, :2 * n].T @ np.concatenate(prev),
                         dpre[:, 2 * n:].T @ np.concatenate(rhs)])
    dx = (dpre @ w).reshape(t_len, rows, -1)
    return dx, dh, dpre.T @ flat, du, dpre.sum(axis=0)


def _scatter_add(shape, flat_index, values) -> np.ndarray:
    """Zeros of `shape` with each value added at its flat index.
    np.bincount sums each bin in entry order, so the result is
    reproducible bit for bit."""
    return np.bincount(flat_index.reshape(-1), weights=values.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# Gradient tape
#
# Reverse accumulation over an explicit list of recorded ops. Nodes are
# integer ids into parallel lists. The op set is the one the models
# record, and each op takes the one shape the models send it: (B, ...)
# rows, one per turn of a batch (B=1 at inference), or one per decoder
# position of a turn where the heads read a teacher-forced pass; gru
# takes (T, B, ...) steps of rows, and lookup_row an index of any shape;
# kg_hop's walk mass is one flat vector of the B rows' subgraph entities,
# each row's L entities stacked after the previous row's, and mix_output
# takes those entries with their flat row * E + entity positions. Every
# op validates its operands, and an op whose output can turn NaN or Inf
# for finite operands checks it, so the recorded program is auditable
# step by step. No operator overloading: callers name each op. A
# backprop closure maps the node's gradient to one gradient per parent
# (None where none flows), each of its parent's shape.


class Tape:
    """A list of op results, one node per op call.

    A recording tape (the default) also keeps each node's parents and
    backprop closure for `backward`. A tape built with record=False runs
    the same op code, with the same operand and finiteness checks, and
    keeps values only: inference uses it, and its `backward` raises.
    """

    def __init__(self, record: bool = True):
        self._values: list[np.ndarray] = []
        self._parents: list[tuple] | None = [] if record else None
        self._backprops: list | None = [] if record else None

    def __len__(self) -> int:
        return len(self._values)

    def value(self, node: int) -> np.ndarray:
        if type(node) is int and 0 <= node < len(self._values):
            return self._values[node]
        return self._values[self._node(node)]

    def _node(self, node) -> int:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < len(self._values):
            raise KernelError(f"node {node!r} was not recorded on this tape")
        return int(node)

    def _push(self, value, parents, backprop, check=None) -> int:
        if type(value) is np.ndarray and value.dtype == np.float64:
            arr = value
        else:
            arr = np.asarray(value, dtype=np.float64)
        if check is not None:
            _require_finite(arr, check)
        self._values.append(arr)
        if self._parents is not None:
            self._parents.append(tuple(parents))
            self._backprops.append(backprop)
        return len(self._values) - 1

    # -- leaves

    def leaf(self, values, check: bool = True) -> int:
        """Record an input tensor (parameter or constant). check=False
        skips the finiteness check, for a tensor its owner has already
        checked (QadptModel checks its parameters once)."""
        return self._push(values, (), None, "leaf" if check else None)

    # -- elementwise and linear ops

    def scale(self, a: int, c: float) -> int:
        va = self.value(a)
        c = float(c)

        def bwd(g):
            return (g * c,)

        return self._push(va * c, (a,), bwd, "scale")

    def linear(self, w: int, x: int, b: int) -> int:
        """x @ w.T + b: a (m, n) weight times each of the (B, n) rows x,
        plus the (m,) bias b on every row."""
        vw, vx, vb = self.value(w), self.value(x), self.value(b)
        if vw.ndim != 2 or vx.ndim != 2 or vx.shape[1] != vw.shape[1] or \
                vb.shape != vw.shape[:1]:
            raise KernelError("linear: need weight (m, n), rows (B, n) and "
                              "bias (m,)")

        def bwd(g):
            return g.T @ vx, g @ vw, g.sum(axis=0)

        return self._push(vx @ vw.T + vb, (w, x, b), bwd, "linear")

    def _softmax(self, a: int, what: str) -> int:
        """Softmax over each row, stabilized by max subtraction."""
        va = self.value(a)
        if va.ndim != 2 or va.shape[1] == 0:
            raise KernelError(f"{what}: expects (B, m) rows with m > 0")
        e = np.exp(va - va.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)

        def bwd(g):
            return (y * (g - np.sum(g * y, axis=1, keepdims=True)),)

        return self._push(y, (a,), bwd)

    def softmax(self, a: int) -> int:
        """Softmax over each row (a generic or seq2seq head)."""
        return self._softmax(a, "softmax")

    def row_softmax(self, a: int) -> int:
        """Softmax over each row (the relation choices). The same op as
        softmax under its own name, so a profile keeps the relation
        softmax apart from the heads."""
        return self._softmax(a, "row_softmax")

    def lookup_row(self, m: int, index) -> int:
        """Rows of matrix m, one per entry of an integer index array of
        one or more axes, in the index's shape: a (T, B) index of ids
        gives (T, B, .) steps of rows."""
        vm = self.value(m)
        idx = np.asarray(index)
        if vm.ndim != 2 or idx.ndim == 0 or idx.dtype.kind not in "iu" or \
                idx.size and not 0 <= idx.min() <= idx.max() < vm.shape[0]:
            raise KernelError("lookup_row: bad matrix or row index")
        rows = idx[..., None]

        def bwd(g):
            flat = rows * vm.shape[1] + np.arange(vm.shape[1])
            return (_scatter_add(vm.shape, flat, g),)

        return self._push(np.take(vm, idx, axis=0), (m,), bwd)

    def reshape(self, a: int, shape) -> int:
        va = self.value(a)

        def bwd(g):
            return (g.reshape(va.shape),)

        return self._push(va.reshape(shape), (a,), bwd)

    def gather(self, a: int, index) -> int:
        """a[index] for a tuple of integer index arrays, one per axis,
        broadcast together: the result takes their broadcast shape."""
        va = self.value(a)
        if len(index) != va.ndim:
            raise KernelError("gather: need one index array per axis")
        try:
            flat = np.ravel_multi_index(tuple(index), va.shape)
        except (TypeError, ValueError):
            raise KernelError("gather: bad or out-of-range index") from None

        def bwd(g):
            return (_scatter_add(va.shape, flat, g),)

        return self._push(va.reshape(-1)[flat], (a,), bwd)

    def log_floor(self, a: int, floor: float) -> int:
        """log(max(a, floor)); zero gradient below the floor."""
        va = self.value(a)
        clipped = np.maximum(va, floor)

        def bwd(g):
            return (g * (va > floor) / clipped,)

        return self._push(np.log(clipped), (a,), bwd, "log_floor")

    def mean(self, a: int) -> int:
        """Mean of all entries, as a scalar node."""
        va = self.value(a)
        if va.size == 0:
            raise KernelError("mean: empty operand")

        def bwd(g):
            return (np.full(va.shape, g / va.size),)

        return self._push(va.mean(), (a,), bwd, "mean")

    # -- fused model ops

    def gru(self, x: int, h: int, w: int, u: int, b: int) -> int:
        """A GRU run over T steps as one node: input x (T, B, d) and
        start state h (B, n); the value is every step's state, (T, B, n),
        every row run all T steps. w (3n, d), u (3n, n) and b (3n,) stack
        the z, r and h gates' input weights, recurrent weights and
        biases, gate rows in that order."""
        vx, vh, vw, vu, vb = (self.value(n) for n in (x, h, w, u, b))
        if vx.ndim != 3 or vh.ndim != 2 or vx.shape[1] != vh.shape[0] or \
                vx.shape[0] == 0:
            raise KernelError("gru: need (T, B, .) input steps with T >= 1 "
                              "and (B, .) state rows with the same B")
        d, n = vx.shape[2], vh.shape[1]
        if vw.shape != (3 * n, d) or vu.shape != (3 * n, n) or \
                vb.shape != (3 * n,):
            raise KernelError("gru: weight shapes do not match the input "
                              "and state dims")
        out, cache = _gru_forward(vx, vh, vw, vu, vb)
        return self._push(out, (x, h, w, u, b),
                          lambda g: _gru_backward(g, cache), "gru")

    def mask_renorm_rows(self, r: int, mask: int) -> int:
        """Zero masked-out columns of each row and renormalize the rest.

        The mask is a constant (no gradient flows to it). Every row must
        keep at least one unmasked positive entry.
        """
        vr, vm = self.value(r), self.value(mask)
        if vr.shape != vm.shape or vr.ndim != 2:
            raise KernelError("mask_renorm_rows: shape mismatch")
        masked = vr * vm
        denom = masked.sum(axis=1, keepdims=True)
        if np.any(denom <= 0.0):
            raise KernelError("mask_renorm_rows: a row lost all its mass")
        out = masked / denom

        def bwd(g):
            # vm * (g - g . out) / denom: on a row with one unmasked
            # entry out is exactly 1.0 there, so the gradient is exactly 0
            inner = np.sum(g * out, axis=1, keepdims=True)
            return vm * (g - inner) / denom, None

        return self._push(out, (r, mask), bwd, "mask_renorm_rows")

    def kg_hop(self, v: int, rhat: int, adj, hops: int) -> int:
        """The N-hop reasoning walk as one node: at each of `hops` hops,
        mass at each head flows along its out-edges, each edge weighted
        by the head's (renormalized) relation choice times the edge's
        normalized tail weight.

        `adj` holds int arrays head, rel, tail and a float array
        weight over the entity rows of v and rhat; it is a constant. One
        turn's walk is its AdjacencyTensor over its subgraph's entities;
        a batch of walks is one block-diagonal adjacency over the
        stacked entity rows, each block one turn's.
        The edge coefficients rhat[head, rel] are gathered once for all
        hops; each hop is one np.bincount over the tails, so each tail
        accumulates in the adjacency's fixed edge order, and every hop's
        result is checked finite.
        """
        vv, vr = self.value(v), self.value(rhat)
        if vv.ndim != 1 or vr.ndim != 2 or vr.shape[0] != vv.shape[0]:
            raise KernelError("kg_hop: shape mismatch")
        if not isinstance(hops, (int, np.integer)) or hops < 1:
            raise KernelError(f"kg_hop: hops must be an int >= 1, "
                              f"got {hops!r}")
        head, tail, weight = adj.head, adj.tail, adj.weight
        coef = vr[head, adj.rel]
        n = vv.shape[0]
        walk = [vv]            # the mass before each hop, then the result
        for _ in range(hops):
            out = np.bincount(tail, walk[-1][head] * coef * weight, n)
            _require_finite(out, "kg_hop")
            walk.append(out)

        def bwd(g):
            # hops in reverse; the rhat gradient sums last hop first
            flat = head * vr.shape[1] + adj.rel
            grhat = None
            for vin in reversed(walk[:-1]):
                gt = g[tail]
                pg = _scatter_add(vr.shape, flat, vin[head] * weight * gt)
                grhat = pg if grhat is None else grhat + pg
                g = _scatter_add(vv.shape, head, coef * weight * gt)
            return g, grhat

        return self._push(walk[-1], (v, rhat), bwd)

    def mix_output(self, g: int, cols, width: int, k: int | None = None,
                   at=None, n: int = 0) -> int:
        """Scatter a batch of distributions g (B, m) into output rows of
        `width` columns.

        Without k, column j of g lands in output column cols[j]. With a
        walk result k, column 0 of g is a gate: g[:, 1:] land in cols,
        and g[:, 0] times the (B, n) entity block fills the last n
        columns. k holds the block's entries at `at`, their flat
        positions row * n + entity; every other entry of the block is 0.
        """
        vg = self.value(g)
        cols = np.asarray(cols, dtype=np.int64)
        if vg.ndim != 2:
            raise KernelError("mix_output: g must be (B, m) rows")
        gen = vg if k is None else vg[:, 1:]
        if gen.shape[1] != cols.size:
            raise KernelError("mix_output: need one column per generic "
                              "entry")
        out = np.zeros((vg.shape[0], width))
        out[:, cols] = gen
        if k is None:
            return self._push(out, (g,), lambda gr: (gr[:, cols],))
        vk, at = self.value(k), np.asarray(at)
        block = np.zeros(vg.shape[0] * n)
        if not 0 <= n <= width or vk.ndim != 1 or at.shape != vk.shape or \
                at.dtype.kind not in "iu" or \
                at.size and not 0 <= at.min() <= at.max() < block.size:
            raise KernelError("mix_output: need a flat walk result and one "
                              "in-range block position per entry")
        block[at] = vk
        kk = block.reshape(vg.shape[0], n)
        lo = width - n
        out[:, lo:] = vg[:, :1] * kk

        def bwd(gr):
            tail = gr[:, lo:]
            gate = np.sum(tail * kk, axis=1, keepdims=True)
            return (np.concatenate([gate, gr[:, cols]], axis=1),
                    (tail * vg[:, :1]).reshape(-1)[at])

        return self._push(out, (g, k), bwd, "mix_output")

    # -- reverse pass

    def backward(self, loss: int) -> list:
        """d(loss)/d(node) for every node, as a list indexed by node id.

        Gradients are allocated only for nodes the loss reaches; every
        other node reads zeros. Interior gradients may share memory; a
        leaf's gradient is an array of its own, checked finite, so a
        caller may scale it in place.
        """
        if self._backprops is None:
            raise KernelError("backward: this tape does not record "
                              "gradients (built with record=False)")
        loss = self._node(loss)
        if self._values[loss].size != 1:
            raise KernelError("backward: loss must be a scalar node")
        grads: list = [None] * len(self._values)
        grads[loss] = np.ones_like(self._values[loss])
        owned = set()        # nodes whose gradient array is theirs alone
        for node in range(loss, -1, -1):
            g = grads[node]
            bp = self._backprops[node]
            if g is None or bp is None:
                continue
            for parent, pg in zip(self._parents[node], bp(g)):
                if pg is None:
                    continue
                cur = grads[parent]
                if cur is None:
                    grads[parent] = pg
                elif parent in owned:
                    cur += pg
                else:
                    grads[parent] = cur + pg
                    owned.add(parent)
        for node, g in enumerate(grads):
            if g is None:
                grads[node] = np.zeros_like(self._values[node])
            elif self._backprops[node] is None:
                if node not in owned:
                    grads[node] = g.copy()
                _require_finite(grads[node], "gradient")
        return grads


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    m: dict
    v: dict
    step_count: int = 0

    @classmethod
    def create(cls, params: Mapping) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def clip_global_norm(grads: Mapping, max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm.
    Returns the pre-clip norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def adam_update(params: Mapping, grads: Mapping, state: AdamState, lr: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One bias-corrected Adam step, updating params in place."""
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise KernelError(f"adam_update: gradient shape mismatch for {name}")
        _require_finite(g, f"gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
        _require_finite(p, f"param {name} after adam step")
    return state


def init_uniform(rng: np.random.Generator, shape, scale: float = 0.08) -> np.ndarray:
    """Uniform(-scale, scale) initialization."""
    return rng.uniform(-scale, scale, size=shape)
