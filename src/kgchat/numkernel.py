"""Minimal float64 numeric kernel.

Everything the dialogue models need and nothing more: stabilized
softmax, a GRU cell, a recorded-op reverse-accumulation gradient tape,
a central finite-difference checker, and Adam with global-norm
clipping. All kernels are deterministic pure functions over float64
arrays. Any op that produces NaN or Inf raises KernelError instead of
letting the value propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "KernelError",
    "as_tensor",
    "sigmoid",
    "softmax",
    "row_softmax",
    "Tape",
    "FiniteDiffReport",
    "finite_diff_check",
    "AdamState",
    "adam_update",
    "clip_global_norm",
    "init_uniform",
]

class KernelError(ValueError):
    """Shape mismatch, non-finite value, or tape misuse."""


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise KernelError(f"non-finite values in {what}")


def as_tensor(values, what: str = "tensor") -> np.ndarray:
    """Coerce to a float64 ndarray and reject NaN/Inf."""
    arr = np.asarray(values, dtype=np.float64)
    _require_finite(arr, what)
    return arr


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits) -> np.ndarray:
    """Softmax over a 1-d vector, stabilized by max subtraction."""
    x = as_tensor(logits, "softmax input")
    if x.ndim != 1 or x.size == 0:
        raise KernelError("softmax expects a non-empty vector")
    e = np.exp(x - x.max())
    return e / e.sum()


def row_softmax(logits) -> np.ndarray:
    """Softmax over each row of a 2-d array."""
    x = as_tensor(logits, "row_softmax input")
    if x.ndim != 2 or x.shape[1] == 0:
        raise KernelError("row_softmax expects a 2-d array with columns")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# GRU cell


def _gru_forward(x, h, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h):
    """Single GRU step. Returns the new state and the cache needed for
    the analytic backward pass.

    Convention: z is the write gate. h' = (1 - z) * h + z * h_tilde,
    so z -> 0 carries the old state through unchanged.
    """
    z = sigmoid(w_z @ x + u_z @ h + b_z)
    r = sigmoid(w_r @ x + u_r @ h + b_r)
    rh = r * h
    htil = np.tanh(w_h @ x + u_h @ rh + b_h)
    out = (1.0 - z) * h + z * htil
    cache = (x, h, z, r, rh, htil, w_z, u_z, w_r, u_r, w_h, u_h)
    return out, cache


def _gru_backward(g, cache):
    """Gradients for one GRU step, same order as _gru_forward's inputs."""
    x, h, z, r, rh, htil, w_z, u_z, w_r, u_r, w_h, u_h = cache
    dz = g * (htil - h)
    dhtil = g * z
    dh = g * (1.0 - z)

    dah = dhtil * (1.0 - htil * htil)
    dw_h = np.outer(dah, x)
    du_h = np.outer(dah, rh)
    db_h = dah
    dx = w_h.T @ dah
    drh = u_h.T @ dah
    dr = drh * h
    dh = dh + drh * r

    dar = dr * r * (1.0 - r)
    dw_r = np.outer(dar, x)
    du_r = np.outer(dar, h)
    db_r = dar
    dx = dx + w_r.T @ dar
    dh = dh + u_r.T @ dar

    daz = dz * z * (1.0 - z)
    dw_z = np.outer(daz, x)
    du_z = np.outer(daz, h)
    db_z = daz
    dx = dx + w_z.T @ daz
    dh = dh + u_z.T @ daz

    return dx, dh, dw_z, du_z, db_z, dw_r, du_r, db_r, dw_h, du_h, db_h


# ---------------------------------------------------------------------------
# Gradient tape
#
# Reverse accumulation over an explicit list of recorded ops. Nodes are
# integer ids into parallel lists; every op validates its operands and
# checks its output for NaN/Inf, so the recorded program is auditable
# step by step. No operator overloading: callers name each op.


class Tape:
    def __init__(self):
        self._values: list[np.ndarray] = []
        self._parents: list[tuple] = []
        self._backprops: list = []

    def __len__(self) -> int:
        return len(self._values)

    def value(self, node: int) -> np.ndarray:
        self._node(node)
        return self._values[node]

    def _node(self, node) -> int:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < len(self._values):
            raise KernelError(f"node {node!r} was not recorded on this tape")
        return int(node)

    def _push(self, value, parents, backprop, what) -> int:
        arr = np.asarray(value, dtype=np.float64)
        _require_finite(arr, what)
        self._values.append(arr)
        self._parents.append(tuple(parents))
        self._backprops.append(backprop)
        return len(self._values) - 1

    # -- leaves

    def leaf(self, values) -> int:
        """Record an input tensor (parameter or constant)."""
        return self._push(values, (), None, "leaf")

    # -- elementwise and linear ops

    def add(self, a: int, b: int) -> int:
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise KernelError("add: shape mismatch")

        def bwd(g, acc):
            acc[a] += g
            acc[b] += g

        return self._push(va + vb, (a, b), bwd, "add")

    def mul(self, a: int, b: int) -> int:
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise KernelError("mul: shape mismatch")

        def bwd(g, acc):
            acc[a] += g * vb
            acc[b] += g * va

        return self._push(va * vb, (a, b), bwd, "mul")

    def scale(self, a: int, c: float) -> int:
        va = self.value(a)
        c = float(c)

        def bwd(g, acc):
            acc[a] += g * c

        return self._push(va * c, (a,), bwd, "scale")

    def matvec(self, w: int, x: int) -> int:
        vw, vx = self.value(w), self.value(x)
        if vw.ndim != 2 or vx.ndim != 1 or vw.shape[1] != vx.shape[0]:
            raise KernelError("matvec: need (m,n) @ (n,)")

        def bwd(g, acc):
            acc[w] += np.outer(g, vx)
            acc[x] += vw.T @ g

        return self._push(vw @ vx, (w, x), bwd, "matvec")

    def softmax(self, a: int) -> int:
        y = softmax(self.value(a))

        def bwd(g, acc):
            acc[a] += y * (g - float(g @ y))

        return self._push(y, (a,), bwd, "softmax")

    def row_softmax(self, a: int) -> int:
        y = row_softmax(self.value(a))

        def bwd(g, acc):
            acc[a] += y * (g - np.sum(g * y, axis=1, keepdims=True))

        return self._push(y, (a,), bwd, "row_softmax")

    def lookup_row(self, m: int, index: int) -> int:
        vm = self.value(m)
        if vm.ndim != 2 or not 0 <= index < vm.shape[0]:
            raise KernelError("lookup_row: bad matrix or row index")
        idx = int(index)

        def bwd(g, acc):
            acc[m][idx] += g

        return self._push(vm[idx].copy(), (m,), bwd, "lookup_row")

    def reshape(self, a: int, shape) -> int:
        va = self.value(a)
        out = va.reshape(shape).copy()

        def bwd(g, acc):
            acc[a] += g.reshape(va.shape)

        return self._push(out, (a,), bwd, "reshape")

    def pick(self, v: int, index: int) -> int:
        vv = self.value(v)
        if vv.ndim != 1 or not 0 <= index < vv.shape[0]:
            raise KernelError("pick: bad vector or index")
        idx = int(index)

        def bwd(g, acc):
            acc[v][idx] += float(g)

        return self._push(np.float64(vv[idx]), (v,), bwd, "pick")

    def log_floor(self, a: int, floor: float = 1e-12) -> int:
        """log(max(a, floor)); zero gradient below the floor."""
        va = self.value(a)
        clipped = np.maximum(va, floor)

        def bwd(g, acc):
            acc[a] += g * (va > floor) / clipped

        return self._push(np.log(clipped), (a,), bwd, "log_floor")

    def add_n(self, nodes) -> int:
        nodes = tuple(nodes)
        if not nodes:
            raise KernelError("add_n: empty operand list")
        vals = [self.value(n) for n in nodes]
        shape = vals[0].shape
        if any(v.shape != shape for v in vals):
            raise KernelError("add_n: shape mismatch")

        def bwd(g, acc):
            for n in nodes:
                acc[n] += g

        total = vals[0].copy()
        for v in vals[1:]:
            total += v
        return self._push(total, nodes, bwd, "add_n")

    # -- fused model ops

    def gru(self, x: int, h: int, w_z: int, u_z: int, b_z: int,
            w_r: int, u_r: int, b_r: int, w_h: int, u_h: int, b_h: int) -> int:
        ids = (x, h, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h)
        vals = [self.value(n) for n in ids]
        vx, vh = vals[0], vals[1]
        if vx.ndim != 1 or vh.ndim != 1:
            raise KernelError("gru: input and state must be vectors")
        n, d = vh.shape[0], vx.shape[0]
        if any(v.shape != want for v, want in
               zip(vals[2:], ((n, d), (n, n), (n,)) * 3)):
            raise KernelError("gru: weight shapes do not match the input "
                              "and state dims")
        out, cache = _gru_forward(*vals)

        def bwd(g, acc):
            dx, dh, dw_z, du_z, db_z, dw_r, du_r, db_r, dw_h, du_h, db_h = \
                _gru_backward(g, cache)
            acc[x] += dx
            acc[h] += dh
            acc[w_z] += dw_z
            acc[u_z] += du_z
            acc[b_z] += db_z
            acc[w_r] += dw_r
            acc[u_r] += du_r
            acc[b_r] += db_r
            acc[w_h] += dw_h
            acc[u_h] += du_h
            acc[b_h] += db_h

        return self._push(out, ids, bwd, "gru")

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

        def bwd(g, acc):
            inner = np.sum(g * masked, axis=1, keepdims=True)
            acc[r] += vm * (g / denom - inner / (denom * denom))

        return self._push(out, (r, mask), bwd, "mask_renorm_rows")

    def kg_hop(self, v: int, rhat: int, adj) -> int:
        """One reasoning hop: mass at each head flows along its out-edges,
        each edge weighted by the head's (renormalized) relation choice
        times the edge's normalized tail weight.

        `adj` is an AdjacencyTensor-like object with int arrays head,
        rel, tail and a float array weight; it is a constant.
        """
        vv, vr = self.value(v), self.value(rhat)
        if vv.ndim != 1 or vr.ndim != 2 or vr.shape[0] != vv.shape[0]:
            raise KernelError("kg_hop: shape mismatch")
        out = kg_hop(vv, vr, adj)

        def bwd(g, acc):
            gt = g[adj.tail]
            np.add.at(acc[v], adj.head, vr[adj.head, adj.rel] * adj.weight * gt)
            flat = np.zeros(vr.size)
            np.add.at(flat, adj.head * vr.shape[1] + adj.rel,
                      vv[adj.head] * adj.weight * gt)
            acc[rhat] += flat.reshape(vr.shape)

        return self._push(out, (v, rhat), bwd, "kg_hop")

    # -- reverse pass

    def backward(self, loss: int) -> list:
        """Accumulate d(loss)/d(node) for every node; returns the list of
        gradients indexed by node id."""
        loss = self._node(loss)
        if self._values[loss].size != 1:
            raise KernelError("backward: loss must be a scalar node")
        grads = [np.zeros_like(v) for v in self._values]
        grads[loss] = np.ones_like(self._values[loss])
        for node in range(loss, -1, -1):
            bp = self._backprops[node]
            if bp is not None and np.any(grads[node]):
                bp(grads[node], grads)
                _require_finite(grads[node], "gradient")
        return grads


def kg_hop(v: np.ndarray, rhat: np.ndarray, adj) -> np.ndarray:
    """Forward of one reasoning hop (shared by tape and inference).

    Accumulation order is the adjacency's fixed edge order, which keeps
    results bit-reproducible.
    """
    out = np.zeros_like(v)
    contrib = v[adj.head] * rhat[adj.head, adj.rel] * adj.weight
    np.add.at(out, adj.tail, contrib)
    return out


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
