"""Numeric kernel tests: activation oracles, a hand-rolled scalar GRU
recurrence, tape gradients against central finite differences, and the
Adam update rule."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import GATE_FIELDS, finite_diff_check, fuse_gru, kg_hop, split_gru

from kgchat import metrics
from kgchat import numkernel as nk


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# softmax


def softmax_row(logits):
    """Tape.softmax of one (1, m) row of logits, as an (m,) array."""
    t = nk.Tape()
    return t.value(t.softmax(t.leaf([logits])))[0]


def test_softmax_uniform_on_equal_logits():
    out = softmax_row([2.0, 2.0, 2.0, 2.0])
    np.testing.assert_allclose(out, np.full(4, 0.25), atol=1e-15)


def test_softmax_sums_to_one_and_is_ordered():
    out = softmax_row([1.0, 3.0, 2.0])
    assert abs(out.sum() - 1.0) < 1e-12
    assert out[1] > out[2] > out[0]


def test_softmax_survives_huge_logits():
    out = softmax_row([1e9, 1e9 - 1.0, 0.0])
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(nk.KernelError, match="non-finite"):
        softmax_row([1.0, float("nan")])       # refused as a leaf
    with pytest.raises(nk.KernelError, match="softmax"):
        softmax_row([])


@given(st.lists(st.floats(-80, 80), min_size=1, max_size=12),
       st.floats(-50, 50))
@settings(max_examples=200, deadline=None)
def test_softmax_shift_invariance(logits, shift):
    base = softmax_row(logits)
    shifted = softmax_row([x + shift for x in logits])
    assert abs(base.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(base - shifted)) <= 1e-12


def two_branch_sigmoid(x):
    """sigmoid as it was first written: both branches, one picked."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) |
                st.floats(-40, 40), min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_sigmoid_bit_equals_two_branch_form(xs):
    x = np.array(xs)
    got = nk.sigmoid(x)
    assert got.tobytes() == two_branch_sigmoid(x).tobytes()
    assert np.all((got >= 0) & (got <= 1) | np.isnan(x))


def test_row_softmax_rows_sum_to_one():
    t = nk.Tape()
    out = t.value(t.row_softmax(t.leaf(rng().normal(size=(5, 7)))))
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)


# ---------------------------------------------------------------------------
# GRU cell


def gru_params(r, input_dim, hidden_dim, scale=0.5):
    """The nine per-gate tensors of a random GRU, drawn in GATE_FIELDS
    order; fuse_gru stacks them into the w, u and b Tape.gru takes."""
    shapes = {"w": (hidden_dim, input_dim), "u": (hidden_dim, hidden_dim),
              "b": (hidden_dim,)}
    return {f: nk.init_uniform(r, shapes[f[0]], scale) for f in GATE_FIELDS}


def gru_leaves(t, params):
    """The w, u and b leaves of a per-gate GRU, stacked."""
    fused = fuse_gru(params)
    return [t.leaf(fused[f]) for f in "wub"]


def tape_gru(params, xs, h0):
    """Final state of a GRU run over the vectors xs from the vector h0,
    recorded on a fresh tape as one node over (T, 1, .) steps."""
    t = nk.Tape()
    weights = gru_leaves(t, params)
    x = t.leaf(np.reshape(xs, (len(xs), 1, -1)))
    return t.value(t.gru(x, t.leaf([h0]), *weights))[-1, 0]


def test_gru_zero_params_zero_state_fixed_point():
    zeroed = {f: np.zeros_like(v) for f, v in gru_params(rng(), 3, 4).items()}
    out = tape_gru(zeroed, [np.zeros(3)], np.zeros(4))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_gru_carry_gate_keeps_state():
    # Large negative write-gate bias forces z ~ 0, so h' ~ h.
    p = {**gru_params(rng(1), 3, 4), "b_z": np.full(4, -40.0)}
    h = rng(2).normal(size=4)
    out = tape_gru(p, [rng(3).normal(size=3)], h)
    np.testing.assert_allclose(out, h, atol=1e-6)


def scalar_gru(params, xs, h0):
    """Independent scalar-by-scalar GRU recurrence for dims <= 3."""
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = (params[f] for f in GATE_FIELDS)
    h = list(h0)
    n = len(h)
    d = len(xs[0])
    for x in xs:
        z, r = [], []
        for i in range(n):
            az = sum(w_z[i][j] * x[j] for j in range(d)) \
                + sum(u_z[i][j] * h[j] for j in range(n)) + b_z[i]
            ar = sum(w_r[i][j] * x[j] for j in range(d)) \
                + sum(u_r[i][j] * h[j] for j in range(n)) + b_r[i]
            z.append(1.0 / (1.0 + math.exp(-az)))
            r.append(1.0 / (1.0 + math.exp(-ar)))
        new = []
        for i in range(n):
            ah = sum(w_h[i][j] * x[j] for j in range(d)) \
                + sum(u_h[i][j] * r[j] * h[j] for j in range(n)) + b_h[i]
            htil = math.tanh(ah)
            new.append((1.0 - z[i]) * h[i] + z[i] * htil)
        h = new
    return np.array(h)


def test_gru_matches_scalar_recurrence():
    for seed in range(5):
        r = rng(seed)
        p = gru_params(r, 2, 3)
        xs = [r.normal(size=2) for _ in range(3)]
        h0 = r.normal(size=3)
        expected = scalar_gru(p, [x.tolist() for x in xs], h0.tolist())
        np.testing.assert_allclose(tape_gru(p, xs, h0), expected, atol=1e-12)


def test_tape_gru_rejects_bad_dims():
    bad_inputs = [(np.zeros(2), np.zeros(4)),        # input dim
                  (np.zeros(3), np.zeros(5))]        # state dim
    for x, h in bad_inputs:
        with pytest.raises(nk.KernelError, match="gru"):
            tape_gru(gru_params(rng(), 3, 4), [x], h)
    t = nk.Tape()
    good = fuse_gru(gru_params(rng(), 3, 4))
    h = t.leaf(np.zeros((2, 4)))
    x = t.leaf(np.zeros((1, 2, 3)))
    # each of w (3n, d), u (3n, n) and b (3n,), one gate's rows or a
    # wrong dim
    for field, shape in (("w", (4, 3)), ("w", (12, 2)), ("u", (4, 4)),
                         ("u", (12, 3)), ("b", (4,)), ("b", (12, 1))):
        weights = [t.leaf(np.zeros(shape) if f == field else good[f])
                   for f in "wub"]
        with pytest.raises(nk.KernelError, match="gru"):
            t.gru(x, h, *weights)
    weights = [t.leaf(good[f]) for f in "wub"]
    # steps of rows: the input's B must be the state's, and T >= 1; a
    # (B, d) input or a vector state is not steps of rows
    for x_shape, h_node in (((5, 3, 3), h), ((0, 2, 3), h), ((2, 3), h),
                            ((1, 4, 3), t.leaf(np.zeros(4)))):
        with pytest.raises(nk.KernelError, match="gru"):
            t.gru(t.leaf(np.zeros(x_shape)), h_node, *weights)
    x = t.leaf(np.zeros((3, 2, 3)))
    before = len(t)
    t.gru(x, h, *weights)
    assert len(t) == before + 1


def ragged_gru_case(seed, t_len=5, b=4, d=3, n=4):
    """Inputs of a ragged GRU run: params, (T, B, d) steps, a (B, n)
    start state, lengths holding 1 and T, and a loss weight per state,
    zero past each row's length."""
    r = rng(seed)
    lengths = np.concatenate([[1, t_len], r.integers(1, t_len + 1, b - 2)])
    params, xs, h0 = (gru_params(r, d, n), r.normal(size=(t_len, b, d)),
                      r.normal(size=(b, n)))
    lengths = r.permutation(lengths)
    real = (np.arange(t_len)[:, None] < lengths)[:, :, None]
    return params, xs, h0, lengths, r.normal(size=(t_len, b, n)) * real


def one_node_gru(params, xs, h0, c):
    """The run as one Tape.gru node over every step of every row: its
    states and the gradients of sum(c * states) for x, h0, w, u and b,
    in that order."""
    t = nk.Tape()
    weights = gru_leaves(t, params)
    x, h = t.leaf(xs), t.leaf(h0)
    states = t.gru(x, h, *weights)
    grads = t.backward(dot(t, t.leaf(c), states))
    return t.value(states), [grads[x], grads[h], *(grads[w] for w in weights)]


def chained_gru(params, xs, h0, lengths, c):
    """The same run as T=1 nodes chained row by row, each row only over
    its own steps (states past them stay zero). Gradients are summed
    over one backward pass per (step, row) term."""
    t_len, b, _ = xs.shape
    states = np.zeros(c.shape)
    fused = fuse_gru(params)
    grads = [np.zeros_like(xs), np.zeros_like(h0),
             *(np.zeros_like(fused[f]) for f in "wub")]
    for row in range(b):
        t = nk.Tape()
        weights = gru_leaves(t, params)
        h0_node = t.leaf(h0[row:row + 1])
        x_nodes, h, outs = [], h0_node, []
        for step in range(lengths[row]):
            x_nodes.append(t.leaf(xs[step:step + 1, row:row + 1]))
            h = t.reshape(t.gru(x_nodes[-1], h, *weights), (1, -1))
            outs.append(h)
        for step, node in enumerate(outs):
            states[step, row] = t.value(node)[0]
            g = t.backward(dot(t, t.leaf(c[step, row]), node))
            for i, xn in enumerate(x_nodes):
                grads[0][i, row] += g[xn][0, 0]
            grads[1][row] += g[h0_node][0]
            for acc, w in zip(grads[2:], weights):
                acc += g[w]
    return states, grads


@pytest.mark.parametrize("seed", range(6))
def test_gru_node_matches_chained_one_step_nodes(seed):
    """One T-step node over ragged rows, read at each row's real steps,
    against T=1 nodes chained per row: states and all 5 gradients within
    1e-12, each stacked weight compared gate by gate."""
    params, xs, h0, lengths, c = ragged_gru_case(seed)
    got_states, got = one_node_gru(params, xs, h0, c)
    want_states, want = chained_gru(params, xs, h0, lengths, c)
    real = np.arange(len(xs))[:, None] < lengths
    np.testing.assert_allclose(got_states[real], want_states[real], rtol=0,
                               atol=1e-12)
    assert len(got) == len(want) == 5
    got, want = (split_gru(dict(zip(("x", "h0", "w", "u", "b"), grads)))
                 for grads in (got, want))
    assert list(got) == list(want) and len(got) == 11
    for name in got:
        assert got[name].shape == want[name].shape, name
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                   atol=1e-12, err_msg=name)


def test_batched_gru_rows_match_vector_steps():
    """Each row of a batched run is that row's one-row run over its own
    steps, and when the run is read at a row's real steps only, no
    gradient reaches that row's inputs past them: exactly zero."""
    params, xs, h0, lengths, c = ragged_gru_case(7)
    states, grads = one_node_gru(params, xs, h0, c)
    for row, n in enumerate(lengths):
        for k in range(1, len(xs) + 1):
            np.testing.assert_allclose(
                states[k - 1, row], tape_gru(params, xs[:k, row], h0[row]),
                rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(grads[0][n:, row], 0.0)


# ---------------------------------------------------------------------------
# tape


def total(t, node):
    """Scalar sum of a node's entries, as n times their mean: each
    entry's gradient is n / n, exactly one."""
    return t.scale(t.mean(node), t.value(node).size)


def dot(t, a, b):
    """The scalar a . b over all entries of two same-size nodes: one
    linear op with a as a (1, n) weight and b as a (1, n) row."""
    n = t.value(a).size
    return t.reshape(t.linear(t.reshape(a, (1, n)), t.reshape(b, (1, n)),
                              t.leaf(np.zeros(1))), ())


def test_linear_forward_and_gradient():
    r = rng(3)
    w, x, b = r.normal(size=(3, 4)), r.normal(size=(2, 4)), r.normal(size=3)
    c = r.normal(size=(2, 3))
    t = nk.Tape()
    wn, xn, bn = t.leaf(w), t.leaf(x), t.leaf(b)
    y = t.linear(wn, xn, bn)
    np.testing.assert_array_equal(t.value(y), x @ w.T + b)
    g = t.backward(dot(t, y, t.leaf(c)))
    np.testing.assert_allclose(g[wn], c.T @ x, atol=1e-14)
    np.testing.assert_allclose(g[xn], c @ w, atol=1e-14)
    np.testing.assert_allclose(g[bn], c.sum(axis=0), atol=1e-14)


def test_ops_take_rows_only():
    """The vector forms no model sends are refused, as is a bias that
    does not match the weight."""
    t = nk.Tape()
    v, mat, bias = t.leaf(np.ones(3)), t.leaf(np.ones((2, 3))), t.leaf(np.ones(2))
    calls = {"softmax": lambda: t.softmax(v),
             "row_softmax": lambda: t.row_softmax(v),
             "linear": lambda: t.linear(mat, v, bias),
             "linear: need": lambda: t.linear(mat, mat, v),
             "lookup_row": lambda: t.lookup_row(mat, 1)}
    for what, call in calls.items():
        with pytest.raises(nk.KernelError, match=what):
            call()
    assert len(t) == 3


def test_tape_leaf_rejects_non_finite():
    t = nk.Tape()
    with pytest.raises(nk.KernelError, match="non-finite values in leaf"):
        t.leaf([1.0, float("inf")])
    assert len(t) == 0


def test_tape_rejects_foreign_node():
    t1, t2 = nk.Tape(), nk.Tape()
    a = t1.leaf([1.0])
    t2.leaf([1.0])
    with pytest.raises(nk.KernelError):
        t2.value(a + 5)


def test_tape_rejects_nonscalar_loss():
    t = nk.Tape()
    a = t.leaf([1.0, 2.0])
    with pytest.raises(nk.KernelError):
        t.backward(a)


def test_tape_rejects_nonfinite_result():
    t = nk.Tape()
    a = t.leaf([1e308])
    with np.errstate(over="ignore"), pytest.raises(nk.KernelError):
        t.scale(a, 1e10)


def test_pick_and_log_floor():
    t = nk.Tape()
    v = t.leaf([[0.2, 0.5, 0.3]])
    p = t.gather(v, (np.array([0]), np.array([1])))
    l = t.log_floor(p, 1e-12)
    assert t.value(l)[0] == pytest.approx(math.log(0.5))
    g = t.backward(l)
    np.testing.assert_allclose(g[v], [[0.0, 2.0, 0.0]], atol=1e-12)


def test_log_floor_zero_gradient_below_floor():
    t = nk.Tape()
    v = t.leaf([[0.0]])
    l = t.log_floor(t.gather(v, (np.array([0]), np.array([0]))), 1e-12)
    assert t.value(l)[0] == pytest.approx(math.log(1e-12))
    g = t.backward(l)
    assert g[v][0, 0] == 0.0


def _composed_loss(params):
    """A loss touching every op class the models use: a (T, B) embedding
    lookup, a 3-step GRU over two rows, the states read at every step of
    the first row and at two of the second, a linear projection,
    softmax, gather, log and mean."""
    t = nk.Tape()
    nodes = {name: t.leaf(value) for name, value in params.items()}
    x = t.lookup_row(nodes["embed"], np.array([[0, 2], [2, 1], [1, 0]]))
    states = t.gru(x, nodes["h0"], nodes["w"], nodes["u"], nodes["b"])
    pos, row = np.array([0, 1, 2, 0, 2]), np.array([0, 0, 0, 1, 1])
    h = t.gather(states, (pos[:, None], row[:, None], np.arange(4)))
    probs = t.softmax(t.linear(nodes["proj"], h, nodes["proj_b"]))
    gold = t.gather(probs, (np.arange(5), np.array([1, 0, 4, 2, 1])))
    loss = t.scale(t.mean(t.log_floor(gold, 1e-12)), -1.0)
    return t, loss, nodes


@pytest.mark.parametrize("seed", range(20))
def test_backward_matches_finite_differences(seed):
    r = rng(seed)
    params = fuse_gru({
        "embed": nk.init_uniform(r, (3, 2), 0.5),
        "h0": nk.init_uniform(r, (2, 4), 0.5),
        "w_z": nk.init_uniform(r, (4, 2), 0.5), "u_z": nk.init_uniform(r, (4, 4), 0.5),
        "b_z": nk.init_uniform(r, (4,), 0.5),
        "w_r": nk.init_uniform(r, (4, 2), 0.5), "u_r": nk.init_uniform(r, (4, 4), 0.5),
        "b_r": nk.init_uniform(r, (4,), 0.5),
        "w_h": nk.init_uniform(r, (4, 2), 0.5), "u_h": nk.init_uniform(r, (4, 4), 0.5),
        "b_h": nk.init_uniform(r, (4,), 0.5),
        "proj": nk.init_uniform(r, (5, 4), 0.5),
        "proj_b": nk.init_uniform(r, (5,), 0.5),
    })
    report = finite_diff_check(_composed_loss, params)
    assert report.passed, f"worst {report.worst_param}: {report.max_rel_err}"


def test_mask_renorm_rows_forward_and_grad():
    t = nk.Tape()
    r = t.leaf([[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]])
    mask = t.leaf([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    out = t.mask_renorm_rows(r, mask)
    np.testing.assert_allclose(t.value(out)[0], [0.2 / 0.7, 0.0, 0.5 / 0.7], atol=1e-15)
    np.testing.assert_allclose(t.value(out)[1], [0.25, 0.25, 0.5], atol=1e-15)
    loss = total(t, t.log_floor(out, 1e-12))
    g = t.backward(loss)
    assert g[r].shape == (2, 3)
    assert g[r][0][1] == 0.0  # masked column gets no gradient


def test_mask_renorm_rows_single_survivor_is_exactly_one():
    t = nk.Tape()
    r = t.leaf([[0.123456, 0.5, 0.376544]])
    mask = t.leaf([[0.0, 0.0, 1.0]])
    out = t.value(t.mask_renorm_rows(r, mask))
    assert out[0, 2] == 1.0  # x / x, bit-exact


@pytest.mark.parametrize("seed", range(3))
def test_mask_renorm_rows_single_survivor_row_has_exactly_zero_gradient(seed):
    """A row that keeps one relation is constant (that entry is 1.0), so
    its exact gradient is zero, whatever the upstream gradient; rows
    with two or more survivors get the analytic gradient."""
    r = rng(seed)
    rows, m = 2000, 4
    mask = (r.random((rows, m)) < 0.4).astype(float)
    mask[np.arange(rows), r.integers(m, size=rows)] = 1.0
    probs = r.random((rows, m)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    c = r.normal(size=(rows, m))
    t = nk.Tape()
    rn = t.leaf(probs)
    out = t.mask_renorm_rows(rn, t.leaf(mask))
    grad = t.backward(dot(t, t.leaf(c), out))[rn]
    single = mask.sum(axis=1) == 1
    assert 200 < single.sum() < rows
    assert np.count_nonzero(grad[single]) == 0
    masked = probs * mask
    denom = masked.sum(axis=1, keepdims=True)
    want = mask * (c / denom - np.sum(c * masked, axis=1, keepdims=True)
                   / denom ** 2)
    np.testing.assert_allclose(grad[~single], want[~single], rtol=1e-12,
                               atol=1e-13)


def test_mask_renorm_rows_rejects_empty_row():
    t = nk.Tape()
    r = t.leaf([[0.5, 0.5]])
    mask = t.leaf([[0.0, 0.0]])
    with pytest.raises(nk.KernelError):
        t.mask_renorm_rows(r, mask)


# ---------------------------------------------------------------------------
# The value-only tape against the recording tape


def op_calls(r, scale=1.0):
    """Calls of every public Tape op on random (B, .) rows: op name ->
    list of (operand arrays, call(tape, *operand nodes)). Where an op
    has an optional operand, each form is a call."""
    n, d, b = 4, 3, 2
    rows = scale * r.normal(size=(b, n))
    mat = scale * r.normal(size=(d, n))
    pos = r.random(n) + 0.05
    mask = (r.random((n, d)) < 0.6).astype(float)
    mask[:, 0] = 1.0
    adj = SimpleNamespace(head=np.array([0, 1, 1, 3, 2]),
                          rel=np.array([0, 2, 1, 0, 1]),
                          tail=np.array([1, 2, 0, 3, 2]), weight=r.random(5))
    gates = [0.5 * r.normal(size=s) for s in ((n, d), (n, n), (n,)) * 3]
    gru = [np.concatenate(gates[i::3]) for i in range(3)]   # w, u, b
    mix = np.exp(r.normal(size=(b, 3)))
    mix /= mix.sum(axis=1, keepdims=True)
    return {
        "leaf": [((), lambda t: t.leaf(rows)),
                 ((), lambda t: t.leaf(rows, check=False))],
        "scale": [((rows,), lambda t, a: t.scale(a, -1.5))],
        "linear": [((mat, rows, scale * r.normal(size=d)),
                    lambda t, w, x, c: t.linear(w, x, c))],
        "softmax": [((rows,), lambda t, a: t.softmax(a))],
        "row_softmax": [((mat,), lambda t, a: t.row_softmax(a))],
        "lookup_row": [((mat,), lambda t, a: t.lookup_row(a, np.array([2, 0, 2]))),
                       ((mat,), lambda t, a: t.lookup_row(
                           a, np.array([[2, 0], [1, 1]])))],
        "reshape": [((mat,), lambda t, a: t.reshape(a, (-1,)))],
        "gather": [((mat,), lambda t, a: t.gather(a, (np.array([0, 2]),
                                                       np.array([3, 1])))),
                   ((mat,), lambda t, a: t.gather(a, (np.array([[2], [0]]),
                                                      np.arange(n))))],
        "log_floor": [((pos - 0.3,), lambda t, a: t.log_floor(a, 0.1))],
        "mean": [((mat,), lambda t, a: t.mean(a))],
        "gru": [((scale * r.normal(size=(3, b, d)), rows, *gru),
                 lambda t, *nodes: t.gru(*nodes))],
        "mask_renorm_rows": [((r.random((n, d)) + 0.05, mask),
                              lambda t, a, c: t.mask_renorm_rows(a, c))],
        "kg_hop": [((pos, r.random((n, d))),
                    lambda t, a, c: t.kg_hop(a, c, adj, 3))],
        "mix_output": [((mix,), lambda t, g: t.mix_output(g, [4, 0, 2], 6)),
                       ((mix, r.random(3)),
                        lambda t, g, k: t.mix_output(g, [3, 1], 7, k,
                                                     np.array([0, 3, 2]), 2))],
    }


def public_ops():
    """The names bench/tracing.py wraps as ops: every public callable of
    Tape except backward and value."""
    return {name for name, fn in vars(nk.Tape).items()
            if not name.startswith("_") and callable(fn)} - {"backward", "value"}


def run_op(tape, operands, call):
    nodes = [tape.leaf(x) for x in operands]
    return call(tape, *nodes)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 40.0]))
@settings(max_examples=60, deadline=None)
def test_value_only_tape_bit_equals_recording_tape(seed, scale):
    for name, calls in op_calls(rng(seed), scale).items():
        for operands, call in calls:
            rec, val = nk.Tape(), nk.Tape(record=False)
            a, b = run_op(rec, operands, call), run_op(val, operands, call)
            assert a == b and len(rec) == len(val)
            want, got = rec.value(a), val.value(b)
            assert got.dtype == want.dtype == np.float64, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("record", [True, False], ids=["recording", "value_only"])
def test_every_public_tape_op_records_exactly_one_node(record):
    """The traced benchmark counts one tape node per op call (its
    decode_nodes and nodes_per_token rely on it)."""
    cases = op_calls(rng(5))
    assert set(cases) == public_ops()
    for name, calls in cases.items():
        for operands, call in calls:
            t = nk.Tape(record=record)
            nodes = [t.leaf(x) for x in operands]
            before = len(t)
            out = call(t, *nodes)
            assert len(t) == before + 1, name
            assert out == before, name


def test_value_only_tape_has_no_backward():
    t = nk.Tape(record=False)
    loss = t.mean(t.leaf([1.0, 2.0]))
    assert float(t.value(loss)) == 1.5
    with pytest.raises(nk.KernelError, match="backward"):
        t.backward(loss)


def test_value_only_tape_checks_leaves_and_results():
    t = nk.Tape(record=False)
    with pytest.raises(nk.KernelError, match="non-finite values in leaf"):
        t.leaf([1.0, float("nan")])
    a = t.leaf([1e308])
    with np.errstate(over="ignore"), pytest.raises(nk.KernelError,
                                                   match="non-finite"):
        t.scale(a, 1e10)
    w, c = t.leaf([[1e308]]), t.leaf([1e308])
    with np.errstate(over="ignore"), pytest.raises(nk.KernelError,
                                                   match="non-finite"):
        t.linear(w, w, c)
    assert len(t) == 3


def test_leaf_check_false_records_without_the_check():
    for record in (True, False):
        t = nk.Tape(record=record)
        node = t.leaf(np.array([np.inf]), check=False)
        assert np.isinf(t.value(node)).all()


@pytest.mark.parametrize("record", [True, False], ids=["recording", "value_only"])
def test_tape_rejects_foreign_and_out_of_range_nodes(record):
    t = nk.Tape(record=record)
    a = t.leaf([1.0, 2.0])
    np.testing.assert_array_equal(t.value(np.int64(a)), [1.0, 2.0])
    for bad in (-1, 1, 5, 1.0, "0", None):
        with pytest.raises(nk.KernelError, match="not recorded"):
            t.value(bad)
    with pytest.raises(nk.KernelError, match="not recorded"):
        t.linear(a, 3, a)    # an id only a longer tape has
    with pytest.raises(nk.KernelError, match="not recorded"):
        t.mask_renorm_rows(a, -1)
    assert len(t) == 1


# ---------------------------------------------------------------------------
# kg_hop: np.bincount against the np.add.at form it replaced


def add_at_hop(v, rhat, adj, g):
    """One hop and its backward written with np.add.at: the forward
    output, then the gradients for v and rhat given the output's
    gradient g."""
    out = np.zeros_like(v)
    np.add.at(out, adj.tail, v[adj.head] * rhat[adj.head, adj.rel] * adj.weight)
    gt = g[adj.tail]
    dv = np.zeros_like(v)
    np.add.at(dv, adj.head, rhat[adj.head, adj.rel] * adj.weight * gt)
    flat = np.zeros(rhat.size)
    np.add.at(flat, adj.head * rhat.shape[1] + adj.rel,
              v[adj.head] * adj.weight * gt)
    return out, dv, flat.reshape(rhat.shape)


@st.composite
def hop_cases(draw):
    """Random adjacencies: repeated heads and tails, self-loops, zero
    weights and zero mass all allowed."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 4))
    e = draw(st.integers(0, 30))
    ints = st.lists(st.integers(0, n - 1), min_size=e, max_size=e)
    weights = st.lists(st.sampled_from([0.0, 1.0, 0.5, 1 / 3]) |
                       st.floats(0, 1), min_size=e, max_size=e)
    adj = SimpleNamespace(
        head=np.array(draw(ints), dtype=np.int64),
        rel=np.array(draw(st.lists(st.integers(0, m - 1), min_size=e,
                                   max_size=e)), dtype=np.int64),
        tail=np.array(draw(ints), dtype=np.int64),
        weight=np.array(draw(weights), dtype=np.float64))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = r.random(n) * (r.random(n) < 0.7)
    rhat = r.random((n, m)) * (r.random((n, m)) < 0.8)
    return v, rhat, adj, r.normal(size=n)


@given(hop_cases())
@settings(max_examples=300, deadline=None)
def test_kg_hop_bincount_bit_equals_add_at(case):
    v, rhat, adj, c = case
    t = nk.Tape()
    vn, rn = t.leaf(v), t.leaf(rhat)
    hop = t.kg_hop(vn, rn, adj, 1)
    grads = t.backward(dot(t, t.leaf(c), hop))
    out, dv, drhat = add_at_hop(v, rhat, adj, grads[hop])
    for got, want in ((kg_hop(v, rhat, adj), out), (t.value(hop), out),
                      (grads[vn], dv), (grads[rn], drhat)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# kg_hop: one node for N hops against N chained one-hop nodes


def block_walk_case(seed, b=3, n=5, m=3):
    """(v, rhat, adj, c): B random graphs of n entities and m relation
    columns as one block-diagonal adjacency, row-normalized relation
    choices, a walk vector with some zero mass, and a loss weight per
    entity."""
    r = rng(seed)
    blocks = []
    for i in range(b):
        e = int(r.integers(3, 9))
        h = r.integers(n, size=e)
        rel = r.integers(m - 1, size=e)
        tails = r.integers(n, size=e)
        w = np.concatenate([np.ones(n), 1.0 / r.integers(1, 4, size=e)])
        blocks.append((np.concatenate([np.arange(n), h]) + i * n,
                       np.concatenate([np.full(n, m - 1), rel]),
                       np.concatenate([np.arange(n), tails]) + i * n, w))
    head, rel, tail, weight = (np.concatenate(f) for f in zip(*blocks))
    adj = SimpleNamespace(head=head, rel=rel, tail=tail, weight=weight)
    rhat = r.random((b * n, m))
    rhat /= rhat.sum(axis=1, keepdims=True)
    v = r.random(b * n) * (r.random(b * n) < 0.6)
    return v, rhat, adj, r.normal(size=b * n)


def walk_and_chain(v, rhat, adj, c, hops, record):
    """Tape.kg_hop over `hops` hops as one node, then as `hops` chained
    one-hop nodes: per form, the walk result and (on a recording tape)
    the gradients of c . k for v and rhat."""
    out = []
    for chained in (False, True):
        t = nk.Tape(record=record)
        vn, rn = t.leaf(v), t.leaf(rhat)
        if chained:
            k = vn
            for _ in range(hops):
                k = t.kg_hop(k, rn, adj, 1)
        else:
            k = t.kg_hop(vn, rn, adj, hops)
        got = [t.value(k)]
        if record:
            grads = t.backward(dot(t, t.leaf(c), k))
            got += [grads[vn], grads[rn]]
        out.append(got)
    return out


@pytest.mark.parametrize("record", [True, False], ids=["recording", "value_only"])
@pytest.mark.parametrize("hops", [1, 2, 6])
@pytest.mark.parametrize("seed", range(4))
def test_kg_hop_walk_bit_equals_chained_single_hops(seed, hops, record):
    v, rhat, adj, c = block_walk_case(seed)
    walk, chain = walk_and_chain(v, rhat, adj, c, hops, record)
    assert len(walk) == (3 if record else 1)
    assert np.count_nonzero(walk[0]) and np.count_nonzero(walk[-1])
    for got, want in zip(walk, chain):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(hop_cases(), st.sampled_from([1, 2, 6]))
@settings(max_examples=100, deadline=None)
def test_kg_hop_walk_bit_equals_chained_hops_on_random_adjacency(case, hops):
    v, rhat, adj, c = case
    for record in (True, False):
        walk, chain = walk_and_chain(v, rhat, adj, c, hops, record)
        for got, want in zip(walk, chain):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("record", [True, False], ids=["recording", "value_only"])
def test_kg_hop_checks_every_hop_finite(record):
    # hop 1 overflows at entity 1, which has no out-edge: hop 2 would
    # read all zeros, so only a per-hop check sees the Inf
    adj = SimpleNamespace(head=np.array([0]), rel=np.array([0]),
                          tail=np.array([1]), weight=np.array([1e200]))
    t = nk.Tape(record=record)
    v, rhat = t.leaf([1e200, 0.0]), t.leaf([[1.0], [1.0]])
    with np.errstate(over="ignore"), pytest.raises(
            nk.KernelError, match="non-finite values in kg_hop"):
        t.kg_hop(v, rhat, adj, 2)
    assert len(t) == 2


@pytest.mark.parametrize("hops", [0, -1, 1.0, None])
def test_kg_hop_needs_a_positive_int_hop_count(hops):
    t = nk.Tape()
    v, rhat = t.leaf([1.0, 0.0]), t.leaf([[1.0], [1.0]])
    adj = SimpleNamespace(head=np.array([0]), rel=np.array([0]),
                          tail=np.array([1]), weight=np.array([1.0]))
    with pytest.raises(nk.KernelError, match="hops"):
        t.kg_hop(v, rhat, adj, hops)


# ---------------------------------------------------------------------------
# finite_diff_check itself


def test_finite_diff_check_quadratic_is_tight():
    def build(params):
        t = nk.Tape()
        a = t.leaf(params["p"])
        return t, dot(t, a, a), {"p": a}

    report = finite_diff_check(build, {"p": rng(5).normal(size=4)})
    assert report.passed
    assert report.max_rel_err < 1e-8


def test_finite_diff_check_catches_wrong_gradient():
    class LyingTape(nk.Tape):
        def backward(self, loss):
            grads = super().backward(loss)
            return [g * 2.0 for g in grads]

    def build(params):
        t = LyingTape()
        a = t.leaf(params["p"])
        return t, dot(t, a, a), {"p": a}

    report = finite_diff_check(build, {"p": np.ones(3)})
    assert not report.passed


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_params():
    params = {"p": rng(1).normal(size=4)}
    before = params["p"].copy()
    state = nk.AdamState.create(params)
    state.m["p"][:] = 0.5
    state.v["p"][:] = 0.25
    nk.adam_update(params, {"p": np.zeros(4)}, state, lr=0.1)
    m_after = state.m["p"].copy()
    # Moments decay toward zero but with m nonzero the params DO move;
    # the no-op guarantee only covers a fresh optimizer state.
    np.testing.assert_allclose(m_after, np.full(4, 0.45), atol=1e-15)

    params2 = {"p": before.copy()}
    state2 = nk.AdamState.create(params2)
    nk.adam_update(params2, {"p": np.zeros(4)}, state2, lr=0.1)
    np.testing.assert_array_equal(params2["p"], before)


def test_adam_first_step_matches_hand_formula():
    g = np.array([0.3, -1.2, 4.0])
    params = {"p": np.zeros(3)}
    state = nk.AdamState.create(params)
    nk.adam_update(params, {"p": g.copy()}, state, lr=0.01)
    # After bias correction the first step is -lr * g / (|g| + eps).
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params["p"], expected, atol=1e-12)


def test_adam_constant_gradient_step_size_approaches_lr():
    params = {"p": np.zeros(1)}
    state = nk.AdamState.create(params)
    g = {"p": np.array([2.5])}
    prev = 0.0
    for _ in range(50):
        before = params["p"][0]
        nk.adam_update(params, {"p": g["p"].copy()}, state, lr=0.05)
        step = abs(params["p"][0] - before)
        prev = step
    assert prev == pytest.approx(0.05, rel=1e-3)


def test_adam_rejects_nonfinite_gradient():
    params = {"p": np.zeros(2)}
    state = nk.AdamState.create(params)
    with pytest.raises(nk.KernelError):
        nk.adam_update(params, {"p": np.array([1.0, float("inf")])}, state, lr=0.1)


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = nk.clip_global_norm(grads, 2.5)
    assert norm == pytest.approx(5.0)
    assert math.sqrt(sum(float(np.sum(g * g)) for g in grads.values())) == pytest.approx(2.5)
    grads2 = {"a": np.array([0.3])}
    norm2 = nk.clip_global_norm(grads2, 5.0)
    assert norm2 == pytest.approx(0.3)
    assert grads2["a"][0] == 0.3  # under the cap, untouched


def test_init_uniform_range_and_determinism():
    a = nk.init_uniform(np.random.default_rng(11), (100,), 0.08)
    b = nk.init_uniform(np.random.default_rng(11), (100,), 0.08)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) < 0.08)


@pytest.mark.parametrize("module", [nk, metrics], ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
