"""Model tests: parameter plumbing, decode-step invariants against the
walk oracles, the loss, gradients, decoding, path inference, training
and checkpoints.

tests/data/batch_loss_parent.npz pins batch_loss on the toy batches of
`oracles.toy_batch` to the per-example loss it replaced: the loss, the
token and unreachable counts and every parameter gradient, as computed
by commit cb18b93. It was written by running, from the tests directory,

    PYTHONPATH=<checkout of cb18b93>/src:. python3 -c \\
        "import oracles; oracles.write_batch_loss_pin('data/batch_loss_parent.npz')"

with this oracles.py.
"""

import dataclasses
import hashlib
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import (GATE_FIELDS, PIN_KINDS, PIN_SEEDS, all_entity_pass,
                     assert_neighbourhood_binding, assert_same_decode, brute_force_best_path,
                     checkpoint_parts, decoder_steps, dense_step,
                     dense_transition, eager_decode, eager_teacher_force,
                     finite_diff_check, gru_per_gate, infer_path_per_edge,
                     kg_hop, loss_and_grads, path_sum_oracle, random_subgraph,
                     relation_mask, renorm_rows, replayed_steps,
                     rewrite_checkpoint, save_manifest_checkpoint,
                     seal_checkpoint, split_gru, tensor_offsets, toy_batch,
                     walk_to_triples)

from kgchat import cli, numkernel, qadpt
from kgchat.corpus import (BOS_ID, EOS_ID, PAD_ID, UNK_ID, DialogueTurn,
                           SyntheticConfig, Vocabulary, generate_synthetic,
                           ingest, load_bundle)
from kgchat.kgraph import (SELF_LOOP, GraphError, KnowledgeGraph, Triple,
                           build_adjacency, perturb_all)
from kgchat.metrics import evaluate_report
from kgchat.numkernel import KernelError
from kgchat.qadpt import (CheckpointError, DecodeResult, Example, Hyperparams,
                          InferredPath, ModelError, QadptModel, batch_loss,
                          build_source_vector, expected_param_shapes,
                          greedy_decode, infer_path, init_params,
                          load_checkpoint, make_example, make_examples,
                          param_grads, perturb_and_decode, save_checkpoint,
                          teacher_force, train, validation_perplexity)

RELATIONS = ("q", "r")


def toy_vocab(generic=("lives", "in", "yes"), entities=("a", "b", "c"),
              relations=RELATIONS):
    return Vocabulary(generic=tuple(generic), entities=tuple(entities),
                      relations=tuple(relations))


def turn(message, response, scene=(), did="d0", i=0):
    return DialogueTurn(dialogue_id=did, turn=i, speaker="s",
                        scene_entities=tuple(scene),
                        message=tuple(message.split()),
                        response=tuple(response.split()))


def model_for(vocab, kind="qadpt", **kw):
    kw.setdefault("hidden_dim", 8)
    kw.setdefault("embed_dim", 6)
    kw.setdefault("n_hops", 4)
    kw.setdefault("seed", 3)
    return QadptModel(Hyperparams(kind=kind, **kw), vocab)


def example_for(vocab, message, response, triples, scene=(), extra=()):
    sub = KnowledgeGraph(triples, extra_entities=extra)
    return make_example(turn(message, response, scene), sub, vocab)


# ---------------------------------------------------------------------------
# Hyperparams and parameter plumbing


def test_embed_dim_defaults_to_hidden():
    hy = Hyperparams(hidden_dim=17)
    assert hy.embed_dim == 17
    assert Hyperparams(hidden_dim=8, embed_dim=5).embed_dim == 5


def test_hyperparams_validation():
    with pytest.raises(ModelError):
        Hyperparams(n_hops=0)
    with pytest.raises(ModelError):
        Hyperparams(hidden_dim=0)
    with pytest.raises(ModelError):
        Hyperparams(kind="transformer")
    with pytest.raises(ModelError):
        Hyperparams(lr=0.0)
    # no epoch trains nothing
    with pytest.raises(ModelError, match="max_epochs"):
        Hyperparams(max_epochs=0)


def test_param_shapes_qadpt():
    v = toy_vocab()
    shapes = expected_param_shapes(Hyperparams(hidden_dim=8, embed_dim=6), v)
    assert shapes["embed"] == (v.size, 6)
    assert shapes["phi_w"] == (v.generic_output_size, 8)
    # three entities, two relations plus the self-loop
    assert shapes["theta_w"] == (3 * 3, 8)
    # each GRU as three stacked tensors, gate rows in z, r, h order
    for prefix in ("enc", "dec"):
        assert shapes[f"{prefix}.w"] == (3 * 8, 6)
        assert shapes[f"{prefix}.u"] == (3 * 8, 8)
        assert shapes[f"{prefix}.b"] == (3 * 8,)
    assert not any(name.endswith(("_z", "_r", "_h")) for name in shapes)


def test_param_shapes_seq2seq():
    v = toy_vocab()
    shapes = expected_param_shapes(
        Hyperparams(hidden_dim=8, kind="seq2seq"), v)
    assert shapes["out_w"] == (2 + 3 + 3, 8)
    assert "theta_w" not in shapes and "phi_w" not in shapes


def test_init_deterministic():
    v = toy_vocab()
    hy = Hyperparams(hidden_dim=8, embed_dim=6)
    a = init_params(hy, v, seed=5)
    b = init_params(hy, v, seed=5)
    c = init_params(hy, v, seed=6)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


# SHA-256 over (name, shape, <f8 bytes) of every tensor in name order,
# for the toy vocabulary at hidden 8 / embed 6; computed when
# init_params still drew the GRU cells through a separate cell class,
# and each GRU was nine per-gate tensors: the digest is taken over
# split_gru's per-gate view, under those names.
INIT_DIGESTS = {
    ("qadpt", 0): "33255e81f4e008ffe13d7cecd465f4571095699abec3e8fe33663d7bbeb8961a",
    ("qadpt", 1): "f8253ab9ee907dd5d4b1945bbe1d7e7c58fe672c62bd014eb54527e22f422761",
    ("seq2seq", 0): "f7d748f8b435661431c4d52318835d19ce18f118302353f7907761e83590eb2b",
    ("seq2seq", 1): "4ebdbbe196c61e1ea9374d7f9d857072114534cba7fbf3e95dd4333454e2bd9e",
}


@pytest.mark.parametrize("kind, seed", sorted(INIT_DIGESTS))
def test_init_params_are_pinned(kind, seed):
    params = split_gru(init_params(
        Hyperparams(kind=kind, hidden_dim=8, embed_dim=6), toy_vocab(), seed))
    h = hashlib.sha256()
    for name in sorted(params):
        arr = params[name]
        h.update(f"{name}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert h.hexdigest() == INIT_DIGESTS[kind, seed]


def test_model_rejects_bad_params():
    v = toy_vocab()
    hy = Hyperparams(hidden_dim=8, embed_dim=6)
    params = init_params(hy, v, seed=0)
    bad = dict(params)
    bad.pop("phi_b")
    with pytest.raises(ModelError, match="missing"):
        QadptModel(hy, v, bad)
    bad = dict(params)
    bad["phi_b"] = np.zeros(99)
    with pytest.raises(ModelError, match="shape"):
        QadptModel(hy, v, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_params(value):
    """Parameters are checked once, here; the forward pass records them
    without a check."""
    v = toy_vocab()
    hy = Hyperparams(hidden_dim=8, embed_dim=6)
    params = init_params(hy, v, seed=0)
    params["dec.u"][8 + 1, 2] = value   # the r gate's row 1
    with pytest.raises(ModelError, match=r"param dec\.u: non-finite"):
        QadptModel(hy, v, params)


def test_seq2seq_output_id_layout():
    v = toy_vocab()
    ids = v.seq2seq_output_ids
    assert list(ids[:2]) == [EOS_ID, UNK_ID]
    assert list(ids[-3:]) == [v.token_to_id("a"), v.token_to_id("b"),
                              v.token_to_id("c")]
    assert PAD_ID not in set(ids) and BOS_ID not in set(ids)
    assert v.emittable_ids == set(ids.tolist())


# ---------------------------------------------------------------------------
# Source vector


def test_source_vector_uniform_over_sources():
    s = build_source_vector(("a", "b", "c"), ["a", "b"])
    assert s.tolist() == [0.5, 0.5, 0.0]


def test_source_vector_fallback_uniform_over_graph():
    s = build_source_vector(("b", "c"), [])
    assert s.tolist() == [0.5, 0.5]


def test_source_vector_drops_entities_outside_graph():
    s = build_source_vector(("a", "b"), ["a", "c"])
    assert s.tolist() == [1.0, 0.0]


def test_source_vector_empty_graph_is_zero():
    s = build_source_vector((), ["a"])
    assert s.shape == (0,)


# ---------------------------------------------------------------------------
# Example preparation


def test_make_example_layout():
    v = toy_vocab()
    ex = example_for(v, "a lives in", "yes b",
                     [Triple("a", "q", "b")], scene=("c",), extra=["c"])
    # scene entities are prepended to the encoder input
    assert ex.enc_ids[0] == v.token_to_id("c")
    assert ex.enc_ids[1] == v.token_to_id("a")
    assert ex.target_ids[-1] == EOS_ID
    assert ex.dec_in_ids[0] == BOS_ID
    assert ex.dec_in_ids[1:] == ex.target_ids[:-1]
    # sources: message entity a plus scene entity c, both in the subgraph
    assert ex.raw_sources == ("a", "c")
    assert ex.source_vec.sum() == pytest.approx(1.0)


def test_make_example_indexes_the_subgraph_over_its_own_entities():
    """The turn's adjacency covers its subgraph's entities in vocabulary
    order, whatever order the graph holds them in; its edges are the
    all-entity adjacency's with a head among them, renumbered."""
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    ex = example_for(v, "d lives", "b yes",
                     [Triple("d", "q", "b"), Triple("b", "r", "e")])
    assert ex.adj.entities == ("b", "d", "e")
    assert ex.pos.tolist() == [1, 3, 4]
    assert ex.source_vec.tolist() == [0.0, 1.0, 0.0]
    full = build_adjacency(ex.subgraph, v.entities, v.relations)
    keep = np.isin(full.head, ex.pos)
    row = {p: i for i, p in enumerate(ex.pos.tolist())}
    for field in ("head", "tail"):
        got = getattr(ex.adj, field).tolist()
        assert got == [row[p] for p in getattr(full, field)[keep].tolist()]
    assert ex.adj.rel.tobytes() == full.rel[keep].tobytes()
    assert ex.adj.weight.tobytes() == full.weight[keep].tobytes()


@pytest.mark.parametrize("name", ["zed", "lives", "<unk>"])
def test_make_example_rejects_an_entity_outside_the_vocabulary(name):
    """A subgraph entity that is no vocabulary entity, whether unknown,
    a generic word or a special symbol, is refused by name."""
    v = toy_vocab()
    with pytest.raises(GraphError, match="missing from vocabulary: "
                                         rf"\['{name}'\]"):
        example_for(v, "a lives", "b yes", [Triple("a", "q", name)])


def test_make_example_empty_message_pads():
    v = toy_vocab()
    ex = example_for(v, "", "yes", [Triple("a", "q", "b")])
    assert ex.enc_ids == (PAD_ID,)


@pytest.mark.parametrize("symbol", ["<kb>", "<pad>", "<bos>"])
def test_make_example_rejects_unemittable_response(symbol):
    """A response token no model can emit is refused once, when the turn
    becomes an example, naming the turn; UNK and EOS are emittable."""
    v = toy_vocab()
    t = turn("a lives", f"yes {symbol} b", did="d7", i=2)
    with pytest.raises(ModelError, match=f"turn d7#2: response token "
                                         f"'{symbol}'"):
        make_example(t, KnowledgeGraph([Triple("a", "q", "b")]), v)
    ex = example_for(v, "a", "<unk> zzz <eos> b", [Triple("a", "q", "b")])
    assert set(ex.target_ids) <= v.emittable_ids


# ---------------------------------------------------------------------------
# Decode-step invariants and reasoning correctness (independent oracles
# live in oracles.py so the acceptance suite can reuse them)


def test_step_distribution_invariants():
    rng = np.random.default_rng(0)
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    for seed in range(20):
        model = model_for(v, seed=seed)
        sub = random_subgraph(v, np.random.default_rng(seed), 5)
        ex = make_example(turn("a lives", "b yes"), sub, v)
        for step in decoder_steps(model, ex, [BOS_ID, 5, 6]):
            assert abs(step.combined.sum() - 1.0) < 1e-9
            assert abs(step.controller + step.generic.sum() - 1.0) < 1e-9
            assert 0.0 <= step.controller <= 1.0
            assert abs(step.entity.sum() - 1.0) < 1e-9
            rows = step.path_matrix.sum(axis=1)
            assert np.all(np.abs(rows - 1.0) < 1e-9)


def test_step_empty_graph_keeps_entity_mass_dead():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "lives in", "yes", [])
    step = decoder_steps(model, ex, [BOS_ID])[0]
    assert not step.entity.any()
    # the combined output deliberately sums below one here: the
    # controller's share has nowhere to go when the subgraph is empty
    assert step.combined.sum() == pytest.approx(1.0 - step.controller)


def test_singleton_self_loop_absorbs_exactly():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives", "yes", [], extra=["a"])
    step = decoder_steps(model, ex, [BOS_ID])[0]
    pos = v.token_to_id("a") - v.entity_base
    assert dense_step(v, ex, step).entity[pos] == 1.0  # exact, not approximate


def test_forced_chain_two_hops():
    # K = {(a,r,b)}: mass forced along r at a must sit at b after 2 hops
    v = toy_vocab()
    sub = KnowledgeGraph([Triple("a", "r", "b")])
    adj = build_adjacency(sub, v.entities, v.relations)
    n, m = len(v.entities), len(v.relations) + 1
    r = np.full((n, m), 1e-9)
    r[0, 1] = 1.0   # a chooses relation r
    r[1, m - 1] = 1.0  # b chooses the self-loop
    r[2, m - 1] = 1.0
    rhat = renorm_rows(r / r.sum(axis=1, keepdims=True), relation_mask(adj))
    s = np.array([1.0, 0.0, 0.0])
    k = s
    for _ in range(2):
        k = kg_hop(k, rhat, adj)
    assert k[1] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(12))
def test_k_matches_dense_and_walk_oracles(seed):
    rng = np.random.default_rng(seed)
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    model = model_for(v, seed=seed, n_hops=4)
    sub = random_subgraph(v, rng, 5)
    ex = make_example(turn("a lives b", "c yes"), sub, v)
    dense = dense_step(v, ex, decoder_steps(model, ex, [BOS_ID])[0])
    rhat = dense.path_matrix
    T = dense_transition(sub, v, rhat)
    k_dense = dense.source @ np.linalg.matrix_power(T, 4)
    np.testing.assert_allclose(dense.entity, k_dense, atol=1e-12)
    k_walk = path_sum_oracle(sub, v, rhat, dense.source, 4)
    np.testing.assert_allclose(dense.entity, k_walk, atol=1e-10)


def test_seq2seq_step_sums_to_one_and_ignores_graph():
    v = toy_vocab()
    model = model_for(v, kind="seq2seq")
    ex1 = example_for(v, "a lives", "b yes", [Triple("a", "q", "b")])
    ex2 = example_for(v, "a lives", "b yes", [Triple("a", "r", "c")])
    s1 = decoder_steps(model, ex1, [BOS_ID, 5])
    s2 = decoder_steps(model, ex2, [BOS_ID, 5])
    for a, b in zip(s1, s2):
        assert abs(a.combined.sum() - 1.0) < 1e-9
        np.testing.assert_array_equal(a.combined, b.combined)
        assert a.path_matrix is None


# ---------------------------------------------------------------------------
# Tail-swap equivariance


def test_tail_swap_equivariance_bitwise():
    v = toy_vocab(entities=("a", "b", "t1", "t2", "x"))
    for seed in range(25):
        model = model_for(v, seed=seed, n_hops=4)
        # t1 is a sink with exactly one incoming edge; t2 is isolated
        sub = KnowledgeGraph([Triple("a", "q", "b"), Triple("b", "r", "t1"),
                              Triple("a", "r", "x")],
                             extra_entities=["t2"])
        swapped = KnowledgeGraph([Triple("a", "q", "b"), Triple("b", "r", "t2"),
                                  Triple("a", "r", "x")],
                                 extra_entities=["t1"])
        ex1 = make_example(turn("a lives", "t1 yes"), sub, v)
        ex2 = make_example(turn("a lives", "t2 yes"), swapped, v)
        p1 = v.token_to_id("t1") - v.entity_base
        p2 = v.token_to_id("t2") - v.entity_base
        for st1, st2 in zip(decoder_steps(model, ex1, [BOS_ID, 5, 6]),
                            decoder_steps(model, ex2, [BOS_ID, 5, 6])):
            st1, st2 = dense_step(v, ex1, st1), dense_step(v, ex2, st2)
            assert np.array_equal(st1.source, st2.source)
            # bit-exact: the swapped-in sink inherits the old sink's mass
            assert st2.entity[p2] == st1.entity[p1]
            assert st2.entity[p1] == 0.0
            np.testing.assert_array_equal(st1.path_matrix, st2.path_matrix)


# ---------------------------------------------------------------------------
# Loss


def test_loss_matches_teacher_forced_probs():
    v = toy_vocab()
    model = model_for(v)
    exs = [example_for(v, "a lives", "b yes", [Triple("a", "q", "b")]),
           example_for(v, "in b", "yes", [Triple("b", "r", "c")])]
    tape, loss, n_tok, _ = batch_loss(model, exs)
    nll = []
    for ex in exs:
        tf = teacher_force(model, ex)
        nll.extend(-np.log(np.maximum(tf.gold_probs, 1e-12)))
    assert n_tok == len(nll)
    assert float(tape.value(loss)) == pytest.approx(np.mean(nll), abs=1e-12)


# explicit ids keep these cases' names stable for tools that track
# results by test id
@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"],
                         ids=["qadpt-False", "seq2seq-False"])
def test_teacher_force_reads_the_decoder_step_output(kind):
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    words = v.generic + v.entities
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = model_for(v, kind=kind, seed=seed)
        msg, resp = (" ".join(rng.choice(words, size=3)) for _ in range(2))
        ex = make_example(turn(msg, resp), random_subgraph(v, rng, 5), v)
        tf = teacher_force(model, ex)
        steps = decoder_steps(model, ex, ex.dec_in_ids)
        assert len(tf.gold_probs) == len(steps) == len(ex.target_ids)
        for i, (step, target) in enumerate(zip(steps, ex.target_ids)):
            # one pass over all positions against one step per position:
            # the same arithmetic, summed in another order
            assert tf.argmax_ids[i] == int(np.argmax(step.combined))
            assert tf.gold_probs[i] == pytest.approx(step.combined[target],
                                                     rel=0, abs=1e-12)


def test_loss_uniform_seq2seq_is_log_vocab():
    # 93 generic words + 2 + 5 entities = single softmax of width 100
    generic = tuple(f"w{i:02d}" for i in range(93))
    v = toy_vocab(generic=generic, entities=("a", "b", "c", "d", "e"))
    model = model_for(v, kind="seq2seq")
    model.params["out_w"][:] = 0.0
    model.params["out_b"][:] = 0.0
    ex = example_for(v, "w00 w01", "w02 a w03", [Triple("a", "q", "b")])
    tape, loss, _, _ = batch_loss(model, [ex])
    assert float(tape.value(loss)) == pytest.approx(np.log(100.0), abs=1e-12)


def test_loss_counts_unreachable_targets():
    v = toy_vocab()
    # target c is isolated: no walk from a can reach it
    ex = example_for(v, "a lives", "c", [Triple("a", "q", "b")], extra=["c"])
    model = model_for(v)
    tape, loss, n_tok, unreachable = batch_loss(model, [ex])
    assert unreachable == 1
    assert np.isfinite(float(tape.value(loss)))
    # the floored position contributes -log(floor)
    assert float(tape.value(loss)) > np.log(1e10) / n_tok


PIN = Path(__file__).parent / "data" / "batch_loss_parent.npz"
COUNTS = ("n_tok", "unreachable")


def assert_close(got, want, field):
    """Equal at rtol 1e-10. Entries that cancel to zero, such as the
    relation-softmax bias gradients summing to nothing over a row, keep
    a rounding residue of ~1e-17 whose sign depends on summation order;
    they are judged against 1e-10 of the tensor's largest entry."""
    want = np.asarray(want)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale,
                               err_msg=field)


@pytest.mark.parametrize("seed", PIN_SEEDS)
@pytest.mark.parametrize("kind", PIN_KINDS)
def test_batch_loss_matches_the_pinned_per_example_loss(kind, seed):
    prefix = f"{kind}/{seed}/"
    with np.load(PIN) as pin:
        want = {k[len(prefix):]: pin[k] for k in pin.files
                if k.startswith(prefix)}
    # the pin names each GRU's per-gate tensors
    got = split_gru(loss_and_grads(*toy_batch(kind, seed)))
    assert set(got) == set(want)
    for field in COUNTS:
        assert got[field] == int(want[field]), field
    assert (got["unreachable"] > 0) == (kind == "qadpt")
    for field in sorted(set(got) - set(COUNTS)):
        assert_close(got[field], want[field], field)


@pytest.mark.parametrize("seed", PIN_SEEDS)
@pytest.mark.parametrize("kind", PIN_KINDS)
def test_batch_loss_is_invariant_to_batching_and_order(kind, seed):
    """The batch's summed loss and gradients are the sums over its turns
    run one at a time, and do not depend on the turns' order."""
    model, exs = toy_batch(kind, seed)
    singles = [loss_and_grads(model, [ex]) for ex in exs]
    order = np.random.default_rng(seed).permutation(len(exs))
    for batch in (exs, [exs[int(i)] for i in order]):
        got = loss_and_grads(model, batch)
        for field in COUNTS:
            assert got[field] == sum(s[field] for s in singles)
        for field in sorted(set(got) - set(COUNTS)):
            want = sum(s[field] * s["n_tok"] for s in singles)
            assert_close(got[field] * got["n_tok"], want, field)


@pytest.mark.parametrize("seed", range(4))
def test_encoder_bit_equals_the_masked_per_gate_gru(seed):
    """A state's encoder pass runs every row of a padded ragged batch all
    T steps and reads each at its last real step. The per-gate GRU with
    a lengths mask, which carries a finished row's state to the last
    step, gives the same final states and the same gradients of x, h0
    and every gate's slice of w, u and b, bit for bit."""
    v = toy_vocab()
    model = model_for(v, seed=seed)
    r = np.random.default_rng(seed)
    lengths = r.permutation([1, 6, *r.integers(1, 7, size=3)])
    rows = [r.integers(v.size, size=n).tolist() for n in lengths]
    ex = example_for(v, "a lives", "b", [Triple("a", "q", "b")])
    batch = [dataclasses.replace(ex, enc_ids=tuple(ids)) for ids in rows]
    state = qadpt._TurnState(model, batch)
    t, final = state.tape, state.h
    c = r.normal(size=t.value(final).shape)
    loss = t.reshape(t.linear(t.leaf(c.reshape(1, -1)),
                              t.reshape(final, (1, -1)), t.leaf(np.zeros(1))),
                     ())
    grads = t.backward(loss)
    x, h0, w, u, b = t._parents[t._parents[final][0]]
    gates = split_gru({f: model.params[f"enc.{f}"] for f in "wub"})
    states, backward = gru_per_gate(t.value(x), t.value(h0), gates, lengths)
    assert t.value(final).tobytes() == states[-1].tobytes()
    g = np.zeros_like(states)
    g[-1] = c
    want = dict(zip(("x", "h0", *GATE_FIELDS), backward(g)))
    got = split_gru({"x": grads[x], "h0": grads[h0], "w": grads[w],
                     "u": grads[u], "b": grads[b]})
    assert set(got) == set(want)
    for name, value in want.items():
        assert got[name].shape == value.shape, name
        assert got[name].tobytes() == np.ascontiguousarray(value).tobytes(), name


# ---------------------------------------------------------------------------
# The walk over each turn's subgraph against the walk over every entity


def assert_matches_all_entity_walk(model, batch):
    """The subgraph walk gives what the all-entity walk gives, bit for
    bit: batch_loss's loss, unreachable count and every parameter
    gradient, the walk result and the relation choices, with no mass
    and the self-loop alone outside each turn's subgraph. theta's
    gradient is exactly 0.0 on the rows of entities outside every
    subgraph of the batch."""
    tape, loss, _, unreachable = batch_loss(model, batch)
    ref = all_entity_pass(model, batch)
    assert float(tape.value(loss)).hex() == float(ref.tape.value(ref.loss)).hex()
    assert unreachable == ref.unreachable
    got = param_grads(model, tape, loss)
    want = param_grads(model, ref.tape, ref.loss)
    for name in sorted(got):
        assert got[name].tobytes() == want[name].tobytes(), name

    state = qadpt._TurnState(model, batch, record=False)
    _, k_node, rhat_node = state.teacher_forced()[1]
    blk = state._walk[2]
    k = np.zeros_like(ref.k)
    k[blk.row, blk.pos] = state.tape.value(k_node)
    assert k.tobytes() == ref.k.tobytes()
    rhat = np.zeros_like(ref.rhat)
    rhat[..., -1] = 1.0
    rhat[blk.row, blk.pos] = state.tape.value(rhat_node)
    assert rhat.tobytes() == ref.rhat.tobytes()

    n_rel = len(model.vocab.relations) + 1
    inside = np.zeros(model.vocab.n_entities, dtype=bool)
    for ex in batch:
        inside[ex.pos] = True
    outside = np.repeat(~inside, n_rel)
    assert np.all(got["theta_w"][outside] == 0.0)
    assert np.all(got["theta_b"][outside] == 0.0)


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_subgraph_walk_matches_all_entity_walk_on_toy_batches(seed):
    """A toy batch mixes an empty subgraph, subgraphs that hold every
    entity and one that holds three of five."""
    model, batch = toy_batch("qadpt", seed)
    sizes = {ex.pos.size for ex in batch}
    assert {0, model.vocab.n_entities} <= sizes
    assert_matches_all_entity_walk(model, batch)


def _edge_turns(v):
    """A turn on an empty subgraph (L = 0) and one on a subgraph that
    holds every entity (L = E)."""
    empty = example_for(v, "where a", "b yes", [])
    full = example_for(v, "a lives", "c yes",
                       [Triple("a", "q", "b"), Triple("b", "r", "c")],
                       extra=v.entities)
    assert (empty.pos.size, full.pos.size) == (0, v.n_entities)
    return empty, full


@pytest.mark.parametrize("which", ["empty", "full", "mixed"])
def test_subgraph_walk_matches_all_entity_walk_at_the_edges(which):
    v = toy_vocab()
    model = model_for(v)
    empty, full = _edge_turns(v)
    batch = {"empty": [empty], "full": [full], "mixed": [empty, full, empty]}
    assert_matches_all_entity_walk(model, batch[which])


def test_empty_subgraph_trains_and_decodes(monkeypatch):
    """With no subgraph entity the walk has no rows: no kg_hop node is
    recorded, training runs, and a decode emits generic words only, with
    an empty entity distribution and path matrix."""
    v = toy_vocab()
    model = model_for(v, max_epochs=2)
    empty, _ = _edge_turns(v)
    hops = []
    real = numkernel.Tape.kg_hop
    monkeypatch.setattr(numkernel.Tape, "kg_hop",
                        lambda self, *a: hops.append(a) or real(self, *a))
    tr = train(model, [empty, empty], [empty])
    dec = greedy_decode(model, empty, max_len=5)
    assert hops == [] and tr.epochs_run == 2
    assert all(np.isfinite(p).all() for p in model.params.values())
    assert not any(v.is_entity_id(i) for i in dec.token_ids)
    # a greedy step that skipped its walk has neither; every eager step
    # has both
    for step in dec.steps + eager_decode(model, empty, max_len=5).steps:
        if step.entity is not None:
            assert step.entity.shape == (0,)
            assert step.path_matrix.shape == (0, len(v.relations) + 1)
    assert teacher_force(model, empty).unreachable == 1


@pytest.fixture(scope="module")
def default_world():
    """The default synthetic world's training examples."""
    raw = generate_synthetic(SyntheticConfig(), seed=7)
    bundle = ingest(raw.raw_turns, raw.graph, lexicon=raw.lexicon,
                    split_seed=0)
    return bundle.vocab, make_examples(bundle, bundle.split_turns("train"))


@pytest.mark.parametrize("n_hops", [6, 1])
def test_unreachable_count_matches_all_entity_walk_over_an_epoch(
        default_world, n_hops):
    """teacher_forced's unreachable count equals the all-entity walk's
    on every batch of a default-world epoch. Six hops reach every
    target there; one hop leaves some unreached."""
    vocab, examples = default_world
    model = QadptModel(Hyperparams(n_hops=n_hops), vocab)
    total = 0
    for lo in range(0, len(examples), 32):
        batch = examples[lo:lo + 32]
        got = qadpt._TurnState(model, batch, record=False).teacher_forced()[2]
        assert int(got.sum()) == all_entity_pass(model, batch,
                                                 record=False).unreachable
        total += int(got.sum())
    assert (total > 0) == (n_hops == 1)


def test_subgraph_walk_matches_all_entity_walk_on_the_default_world(
        default_world):
    vocab, examples = default_world
    model = QadptModel(Hyperparams(), vocab)
    for lo in (0, 320, 960):
        assert_matches_all_entity_walk(model, examples[lo:lo + 32])


# ---------------------------------------------------------------------------
# Gradient check on the full model


def _fd_setup(kind, seed):
    generic = ("u", "v", "w")   # with EOS and UNK that is 5 generic symbols
    v = toy_vocab(generic=generic, entities=("a", "b", "c"))
    hy = Hyperparams(hidden_dim=4, embed_dim=4, n_hops=3, kind=kind, seed=seed)
    params = init_params(hy, v, seed)
    exs = [example_for(v, "a u w", "b v", [Triple("a", "q", "b")]),
           example_for(v, "v b", "c u a", [Triple("b", "r", "c"),
                                           Triple("c", "q", "a")])]

    def build(ps):
        model = QadptModel(hy, v, ps)
        tape, loss, _, _ = batch_loss(model, exs)
        nodes = {name: i for i, name in enumerate(sorted(ps))}
        return tape, loss, nodes

    return build, params


@pytest.mark.parametrize("seed", range(4))
def test_full_model_gradients_match_finite_differences(seed):
    build, params = _fd_setup("qadpt", seed)
    report = finite_diff_check(build, params, tolerance=1e-4)
    assert report.passed, (report.worst_param, report.max_rel_err)


def test_seq2seq_gradients_match_finite_differences():
    build, params = _fd_setup("seq2seq", 0)
    report = finite_diff_check(build, params, tolerance=1e-4)
    assert report.passed, (report.worst_param, report.max_rel_err)


# ---------------------------------------------------------------------------
# Decoding


def test_greedy_decode_max_len_one():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives", "yes", [Triple("a", "q", "b")])
    dec = greedy_decode(model, ex, max_len=1)
    assert len(dec.steps) == 1
    assert len(dec.token_ids) <= 1


@pytest.mark.parametrize("max_len", [0, -3])
def test_greedy_decode_rejects_cap_below_one(max_len):
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives", "yes", [Triple("a", "q", "b")])
    with pytest.raises(ModelError, match="decode cap"):
        greedy_decode(model, ex, max_len=max_len)


def test_greedy_decode_deterministic():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives in b", "yes", [Triple("a", "q", "b")])
    a = greedy_decode(model, ex)
    b = greedy_decode(model, ex)
    assert a.token_ids == b.token_ids
    assert a.tokens == b.tokens


def test_decode_never_emits_structural_symbols():
    v = toy_vocab()
    for seed in range(10):
        model = model_for(v, seed=seed)
        ex = example_for(v, "a lives", "b yes", [Triple("a", "q", "b")])
        dec = greedy_decode(model, ex, max_len=6)
        assert PAD_ID not in dec.token_ids
        assert BOS_ID not in dec.token_ids
        assert EOS_ID not in dec.token_ids   # stripped when emitted


# ---------------------------------------------------------------------------
# Path inference


def test_infer_path_singleton():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives", "yes", [], extra=["a"])
    step = decoder_steps(model, ex, [BOS_ID])[0]
    path = infer_path(ex.adj, step.path_matrix, ex.source_vec, "a",
                      model.hyper.n_hops)
    assert path.triples == ()
    assert path.probability == pytest.approx(1.0)
    assert path.start == "a"


def test_infer_path_deterministic_chain():
    v = toy_vocab()
    sub = KnowledgeGraph([Triple("a", "r", "b"), Triple("b", "q", "c")])
    adj = build_adjacency(sub, v.entities, v.relations)
    n, m = 3, 3
    r = np.zeros((n, m))
    r[0, 1] = 1.0   # a -> r
    r[1, 0] = 1.0   # b -> q
    r[2, m - 1] = 1.0
    rhat = renorm_rows(np.maximum(r, 1e-12), relation_mask(adj))
    s = np.array([1.0, 0.0, 0.0])
    path = infer_path(adj, rhat, s, "c", 5)
    assert path.triples == (Triple("a", "r", "b"), Triple("b", "q", "c"))
    assert path.probability == pytest.approx(1.0)


def test_infer_path_strips_trailing_self_loops_only():
    v = toy_vocab()
    sub = KnowledgeGraph([Triple("a", "r", "b")])
    adj = build_adjacency(sub, v.entities, v.relations)
    rhat = renorm_rows(np.ones((3, 3)), relation_mask(adj))
    s = np.array([1.0, 0.0, 0.0])
    path = infer_path(adj, rhat, s, "b", 4)
    # best walk takes (a,r,b) first, then parks on b's self-loop
    assert path.triples == (Triple("a", "r", "b"),)


def test_infer_path_unreachable_errors():
    # the same errors from infer_path and the per-edge loop it replaced
    ex_adj = build_adjacency(KnowledgeGraph([Triple("a", "q", "b")]),
                             toy_vocab().entities, RELATIONS)
    rhat = renorm_rows(np.ones((3, 3)), relation_mask(ex_adj))
    for readout in (infer_path, infer_path_per_edge):
        with pytest.raises(ModelError, match="unreachable"):
            readout(ex_adj, rhat, np.array([1.0, 0, 0]), "c", 3)
        for s in (np.zeros(3), np.array([-1.0, 0, 0])):
            with pytest.raises(ModelError, match="empty"):
                readout(ex_adj, rhat, s, "b", 3)


@pytest.mark.parametrize("seed", range(12))
def test_infer_path_matches_brute_force(seed):
    rng = np.random.default_rng(seed + 100)
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    model = model_for(v, seed=seed, n_hops=4)
    sub = random_subgraph(v, rng, 6)
    ex = make_example(turn("a lives b", "c d"), sub, v)
    step = decoder_steps(model, ex, [BOS_ID])[0]
    dense = dense_step(v, ex, step)
    for target in range(5):
        want = brute_force_best_path(sub, v, dense.path_matrix, dense.source,
                                     target, 4)
        entity = v.entities[target]
        if want is None:
            with pytest.raises(ModelError):
                infer_path(ex.adj, step.path_matrix, ex.source_vec, entity, 4)
            continue
        got = infer_path(ex.adj, step.path_matrix, ex.source_vec, entity, 4)
        assert got.probability == pytest.approx(want[0], rel=1e-12)
        # reported triples must match the oracle walk, trailing
        # self-loops removed
        start, steps = want[1]
        steps = list(steps)
        while steps and steps[-1][0] == ex.adj.self_index:
            steps.pop()
        assert got.start == v.entities[start]
        rebuilt = []
        here = start
        for r, t in steps:
            rebuilt.append(Triple(v.entities[here],
                                  ex.adj.relations[r], v.entities[t]))
            here = t
        assert got.triples == tuple(rebuilt)


def test_infer_path_tie_breaks_to_smaller_relation():
    # two length-1 routes with equal probability; q has the lower id
    v = toy_vocab()
    sub = KnowledgeGraph([Triple("a", "q", "b"), Triple("a", "r", "b")])
    adj = build_adjacency(sub, v.entities, v.relations)
    rhat = renorm_rows(np.ones((3, 3)), relation_mask(adj))
    s = np.array([1.0, 0.0, 0.0])
    path = infer_path(adj, rhat, s, "b", 2)
    assert path.triples == (Triple("a", "q", "b"),)


def test_infer_path_tie_breaks_on_start_before_steps():
    # a -r-> c and b -q-> c carry equal probability: the walk key is
    # (start, steps), so start a (0) via r (1) beats start b (1) via q (0)
    v = toy_vocab()
    sub = KnowledgeGraph([Triple("a", "r", "c"), Triple("b", "q", "c")])
    adj = build_adjacency(sub, v.entities, v.relations)
    rhat = np.full((3, 3), 0.5)
    for s in (np.array([0.5, 0.5, 0.0]), np.array([1.0, 1.0, 0.0])):
        path = infer_path(adj, rhat, s, "c", 1)
        assert path.start == "a"
        assert path.triples == (Triple("a", "r", "c"),)
        assert path.probability == s[0] * 0.5 * 1.0
        assert infer_path_per_edge(adj, rhat, s, "c", 1) == \
            (path.probability, 0, ((1, 2),))


def assert_infer_path_matches_per_edge(vocab, adj, rhat, s, n_hops,
                                       dense=None):
    """infer_path against the per-edge loop it replaced, for every
    entity: the same probability bits, start and reported triples, or
    the same ModelError. Given `dense`, the dense_step of a decode step
    whose turn's adjacency, relation choices and start vector are adj,
    rhat and s, the loop runs on the walk over every vocabulary entity
    instead; an entity outside the turn's subgraph is unreachable in
    both."""
    ref_adj, ref_rhat, ref_s = (adj, rhat, s) if dense is None else \
        (dense.adj, dense.path_matrix, dense.source)
    for entity in vocab.entities:
        try:
            prob, start, steps = infer_path_per_edge(ref_adj, ref_rhat, ref_s,
                                                     entity, n_hops)
        except ModelError as exc:
            with pytest.raises(ModelError) as got:
                infer_path(adj, rhat, s, entity, n_hops)
            assert str(got.value) == str(exc)
            continue
        path = infer_path(adj, rhat, s, entity, n_hops)
        assert (path.start, path.triples) == \
            walk_to_triples(vocab, ref_adj, start, steps)
        assert path.probability.hex() == prob.hex()


@pytest.fixture(scope="module")
def trained_toy():
    """A qadpt model trained a few epochs on the toy chain world, with
    examples over that world and over random subgraphs."""
    model, tr, va = _training_setup(max_epochs=4, patience=5)
    train(model, tr, va)
    rng = np.random.default_rng(11)
    v = model.vocab
    exs = va + [make_example(turn(msg, "b yes"), random_subgraph(v, rng, 2), v)
                for msg in ("where a", "where b", "a in c", "where c",
                            "b lives a", "yes")]
    return model, exs


@pytest.mark.parametrize("n_hops", [1, 3, 5])
def test_infer_path_equals_per_edge_loop_on_decodes(trained_toy, n_hops):
    """infer_path over each turn's own adjacency against the per-edge
    loop over the walk over every entity, on turns whose subgraph holds
    every entity and on turns whose subgraph leaves some out (L < E)."""
    model, exs = trained_toy
    v = model.vocab
    exs = exs + [example_for(v, msg, "c yes", [triple])
                 for msg, triple in (("where a", Triple("a", "q", "b")),
                                     ("where b", Triple("b", "r", "c")))]
    assert min(ex.pos.size for ex in exs) < v.n_entities
    checked = 0
    for ex in exs:
        for step in eager_decode(model, ex, max_len=4).steps:
            assert_infer_path_matches_per_edge(v, ex.adj, step.path_matrix,
                                               ex.source_vec, n_hops,
                                               dense_step(v, ex, step))
            checked += 1
    assert checked >= len(exs)


@pytest.mark.parametrize("seed", range(8))
def test_infer_path_equals_per_edge_loop_on_random_and_tied_rhat(seed):
    rng = np.random.default_rng(seed + 500)
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    adj = build_adjacency(random_subgraph(v, rng, 12), v.entities,
                          v.relations)
    # edge weights off the 1/k grid too, where the product order shows
    reweighted = dataclasses.replace(
        adj, weight=rng.uniform(0.1, 1.0, adj.weight.size))
    s = np.where(rng.random(5) < 0.5, 0.5, 0.0)
    s[int(rng.integers(5))] = 0.5
    rounded = np.round(rng.random((5, 3)), 1)
    mask = relation_mask(adj)
    for rhat in (renorm_rows(rng.random((5, 3)), mask),
                 np.full((5, 3), 0.5), rounded, rounded * mask):
        for a in (adj, reweighted):
            for n_hops in (1, 2, 4):
                assert_infer_path_matches_per_edge(v, a, rhat, s, n_hops)


# ---------------------------------------------------------------------------
# Greedy decoding runs a step's walk only when an entity can win the step,
# and takes its token from the values the step computed


@pytest.mark.parametrize("seed", range(3))
def test_greedy_decode_matches_the_eager_reference(trained_toy, seed):
    """greedy_decode against oracles.eager_decode, which runs every
    step in full (oracles.assert_same_decode). The turns have L = E,
    L < E and L = 0; the qadpt models emit entities or not, and seq2seq
    never walks. Both kinds of qadpt step occur: some skip their walk,
    some ran it."""
    model, exs = trained_toy
    v = model.vocab
    exs = exs + list(_edge_turns(v)) + [
        example_for(v, "where a", "c yes", [Triple("a", "q", "b")])]
    assert {0, 2, v.n_entities} <= {ex.pos.size for ex in exs}
    models = [model, model_for(v, kind="seq2seq", seed=seed)]
    for kb in (-1.0, 1.0):   # a fresh model that emits entities or not
        models.append(model_for(v, seed=seed))
        models[-1].params["phi_b"][0] = kb
    skipped = []
    for m in models:
        for ex in exs:
            for max_len in (1, 6, qadpt.MAX_DECODE_LEN):
                dec = greedy_decode(m, ex, max_len=max_len)
                if m.kind == "qadpt":
                    skipped += [step.entity is None for step in dec.steps]
                assert_same_decode(dec, eager_decode(m, ex, max_len), v)
    assert any(skipped) and not all(skipped)


@pytest.mark.parametrize("gap, skips", [
    (0.0, False), (5e-7, False), (2e-6, True), (-1e-3, False), (1.0, True)])
def test_a_step_within_the_margin_runs_the_entity_branch_at_once(gap, skips):
    """With phi_w zero the generic softmax is softmax(phi_b) on every
    step. A generic word whose logit exceeds the KB symbol's by `gap`
    has probability g[0] * exp(gap): within SKIP_MARGIN of g[0] (a tie
    included) or below it the step runs its walk, 10 tape nodes (12 on
    the first step, which adds the walk's mask and source leaves), and
    sets entity and path_matrix; beyond it the step records the generic
    half's 5 nodes (2 leaves when it replays a prior step's), sets
    neither, and nothing is recorded afterwards. The word wins either
    way, with the lowest id among tied words."""
    v = toy_vocab()
    ex = example_for(v, "a lives", "b yes", [Triple("a", "q", "b")])
    model = model_for(v)
    model.params["phi_w"][:] = 0.0
    model.params["phi_b"][:] = -30.0
    model.params["phi_b"][0] = 0.0
    model.params["phi_b"][[3, 4]] = gap   # "lives" and "in", tied
    want = v.token_to_id("lives")
    state = qadpt._TurnState(model, [ex], record=False)
    replay = qadpt._TurnState(model, [ex], record=False,
                              encoded=state.tape.value(state.h)[0])
    for first in (True, False):
        prev = want
        for st, head in ((state, 5), (replay, 2)):
            before = len(st.tape)
            step = prev = st.decoder_step(prev)
            walk = 5 + 2 * first
            assert len(st.tape) - before == head + walk * (not skips)
            assert (step.entity is None) == (step.path_matrix is None) == \
                skips
            if gap >= 0.0:
                assert step.token_id == want
            step.token_id, step.softmax, step.entity, step.path_matrix
            assert len(st.tape) - before == head + walk * (not skips)


def _rule_model(v, kb, words=()):
    """A qadpt model whose generic softmax is softmax(phi_b) on every
    step: KB logit `kb`, logit 0 for `words` and -1000 elsewhere, so
    those probabilities are exact and every other word's is 0.0."""
    model = model_for(v)
    model.params["phi_w"][:] = 0.0
    model.params["phi_b"][:] = -1000.0
    model.params["phi_b"][0] = kb
    for w in words:
        model.params["phi_b"][list(v.generic_output_ids).index(
            v.token_to_id(w))] = 0.0
    return model


@pytest.mark.parametrize("case", ["word_ties_entity", "tied_entities",
                                  "nothing_positive"])
def test_an_eager_step_picks_its_token_from_the_walk(case):
    """A qadpt step that runs its walk picks its token from g[0] * k and
    the best generic word, with no output row, and the token is the
    argmax of the eager reference's output row. On a graph with no
    edges the walk keeps every entity's start mass: a source alone gets
    k = 1.0, so an equally likely word ties the entity at g[0] exactly,
    and the word (the lower id) wins; two sources tie at 0.5 and the
    lower entity id wins. With nothing positive (no subgraph entity,
    every word at 0.0) the output row is all zero, and the token is its
    argmax, PAD_ID."""
    v = toy_vocab()
    if case == "word_ties_entity":
        model, want = _rule_model(v, 0.0, ["yes"]), v.token_to_id("yes")
        ex = example_for(v, "where b", "yes", [], extra=("a", "b"))
    elif case == "tied_entities":
        model, want = _rule_model(v, 5.0), v.token_to_id("b")
        ex = example_for(v, "c b", "b", [], extra=v.entities)
    else:
        model, want = _rule_model(v, 0.0), PAD_ID
        ex = example_for(v, "where", "yes", [])
    state = qadpt._TurnState(model, [ex], record=False)
    step = state.decoder_step(BOS_ID)
    g = step.softmax
    mass = g[0] * step.entity   # the walk ran
    if case == "word_ties_entity":
        assert mass.max() == g[1:].max() == g[0]
    elif case == "tied_entities":
        assert np.count_nonzero(mass == mass.max()) == 2
    else:
        assert mass.size == 0 and not g[1:].any()
    ref = decoder_steps(model, ex, [BOS_ID])[0]
    assert step.token_id == want == int(np.argmax(ref.combined))
    assert_same_decode(greedy_decode(model, ex, max_len=3),
                       eager_decode(model, ex, max_len=3), v)


@pytest.mark.parametrize("case", ["entity_outside", "empty_subgraph",
                                  "nothing_positive", "word_ties_entity",
                                  "tied_entities"])
def test_teacher_force_takes_each_token_by_the_greedy_rule(case):
    """teacher_force's gold probabilities and argmax ids equal, bit for
    bit, the gold entries and argmax of the full-vocabulary rows
    (oracles.eager_teacher_force). A gold entity outside the subgraph,
    or on an empty one, has probability 0.0. With nothing positive
    every position takes PAD_ID; a word tied with an entity wins, and
    of two tied entities the lower id wins."""
    v = toy_vocab()
    model, want = model_for(v), None
    if case == "entity_outside":
        ex = example_for(v, "a lives", "c yes", [Triple("a", "q", "b")])
    elif case == "empty_subgraph":
        ex = example_for(v, "where a", "b yes", [])
    elif case == "nothing_positive":
        model, want = _rule_model(v, 0.0), PAD_ID
        ex = example_for(v, "where", "yes", [])
    elif case == "word_ties_entity":
        model, want = _rule_model(v, 0.0, ["yes"]), v.token_to_id("yes")
        ex = example_for(v, "where b", "yes", [], extra=("a", "b"))
    else:
        model, want = _rule_model(v, 5.0), v.token_to_id("b")
        ex = example_for(v, "c b", "b", [], extra=v.entities)
    got = teacher_force(model, ex)
    probs, ids = eager_teacher_force(model, ex)
    assert np.array(got.gold_probs).tobytes() == probs.tobytes()
    assert got.argmax_ids == tuple(ids.tolist())
    if want is not None:
        assert set(got.argmax_ids) == {want}
    if case in ("entity_outside", "empty_subgraph"):
        assert got.gold_probs[0] == 0.0 and got.unreachable == 1


@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_no_tape_node_spans_the_vocabulary(kind):
    """Neither batch_loss's tape nor a one-turn teacher-forced pass
    records a node whose last axis is the vocabulary: the loss and
    teacher forcing read each gold probability off the step's values.
    V = 12 is no other width here (embed 6, hidden 8, heads 7 and 9,
    9 relation logits, R + 1 = 3, 5 gold rows, 10 stacked entities)."""
    v = toy_vocab(generic=("lives", "in", "yes", "where"))
    model = model_for(v, kind=kind)
    exs = [example_for(v, "a lives", "b yes", [Triple("a", "q", "b")]),
           example_for(v, "in b", "c", [Triple("b", "r", "c")])]
    state = qadpt._TurnState(model, exs[:1], record=False)
    state.teacher_forced()
    assert v.size == 12
    for t in (batch_loss(model, exs)[0], state.tape):
        assert all(np.shape(t.value(i))[-1:] != (v.size,)
                   for i in range(len(t)))


def _edited(v, exs, seed):
    """Each example on other graphs: the graph perturb_all gives it,
    a random one, an empty one, one that holds every entity, and its
    own."""
    r = np.random.default_rng(seed)
    empty, full = _edge_turns(v)
    swapped = perturb_all([ex.subgraph for ex in exs], seed)
    for ex, res in zip(exs, swapped):
        for graph in (res.graph, random_subgraph(v, r, 3), empty.subgraph,
                      full.subgraph, ex.subgraph):
            yield ex, dataclasses.replace(
                ex, **qadpt._bind_graph(v, graph, ex.raw_sources))


def _diverging_part_way(v):
    """A one-hop qadpt model and a turn on two graphs, a -q-> b and
    a -q-> c, whose decodes agree on step 0 and differ from step 1: the
    KB symbol wins every step, and entity a's relation logits favour its
    self-loop at the first step's decoder state and its q edge at the
    second's, so the walk stays at a, then moves on to b or c."""
    model = model_for(v, n_hops=1)
    model.params["phi_b"][0] = 5.0
    old = example_for(v, "where a", "b", [Triple("a", "q", "b")])
    new = example_for(v, "where a", "b", [Triple("a", "q", "c")])
    h0, h1 = (step.state for step in decoder_steps(
        model, old, [BOS_ID, v.token_to_id("a")]))
    w = 50.0 * (h1 - h0)
    row = v.entities.index("a") * (len(v.relations) + 1)   # a's q logit
    model.params["theta_w"][row] = w
    model.params["theta_b"][row] = -w @ (h0 + h1) / 2.0
    return model, old, new


@pytest.mark.parametrize("seed", range(3))
def test_a_re_decode_replays_its_prior_bit_for_bit(trained_toy, seed,
                                                   monkeypatch):
    """greedy_decode of an edited turn given the decode of the original
    as its prior against oracles.eager_decode of the edited turn
    (oracles.assert_same_decode). The re-decode runs the decoder GRU
    only on the steps after the first token that differs from the
    prior's, and not at all when none does. Priors that diverge at step
    0, part-way through and never all occur for qadpt; seq2seq never
    reads the graph, so its re-decodes replay every step."""
    model, exs = trained_toy
    v = model.vocab
    exs = exs + [example_for(v, "where a", "c yes", [Triple("a", "q", "b")])]
    models = [model, model_for(v, kind="seq2seq", seed=seed)]
    for kb in (-1.0, 1.0):
        models.append(model_for(v, seed=seed))
        models[-1].params["phi_b"][0] = kb
    cases = [(m, ex, new) for m in models for ex, new in _edited(v, exs, seed)]
    part_way = _diverging_part_way(v)
    cases += [part_way, (part_way[0], part_way[2], part_way[1])]
    grus = []
    real = numkernel.Tape.gru
    monkeypatch.setattr(numkernel.Tape, "gru",
                        lambda self, *a: grus.append(1) or real(self, *a))
    seen = set()
    for m, ex, new in cases:
        for max_len in (1, 6, qadpt.MAX_DECODE_LEN):
            prior = greedy_decode(m, ex, max_len=max_len)
            grus.clear()
            dec = greedy_decode(m, new, max_len=max_len, prior=prior)
            replayed = replayed_steps(dec, prior)
            assert len(grus) == len(dec.steps) - replayed
            if dec.steps[0].token_id != prior.steps[0].token_id:
                seen.add((m.kind, "at step 0"))
            elif replayed < len(dec.steps):
                seen.add((m.kind, "part-way"))
            else:
                seen.add((m.kind, "never"))
            assert_same_decode(dec, eager_decode(m, new, max_len), v)
    assert seen == {("qadpt", "at step 0"), ("qadpt", "part-way"),
                    ("qadpt", "never"), ("seq2seq", "never")}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_neighbourhood_binding_decodes_as_the_whole_graph(kind, seed):
    """A turn bound to the n_hops out-neighbourhood of its sources
    decodes as on the whole graph, bit for bit
    (oracles.assert_neighbourhood_binding), on random graphs with and
    without isolated entities, at 1 to 3 hops, for messages naming one
    entity, two, a scene entity, and none, or only entities outside the
    graph (the whole-graph fallback). Some bindings leave entities
    out."""
    rng = np.random.default_rng(seed)
    v = toy_vocab(entities=tuple("abcdefgh"))
    chats = (("where a", ()), ("b lives in c", ()), ("in", ("d",)),
             ("yes", ()), ("g h", ()))
    counts = []
    for extra in (v.entities, ()):
        graph = random_subgraph(v, rng, n_triples=10, extra=extra)
        for n_hops in (1, 2, 3):
            model = model_for(v, kind=kind, n_hops=n_hops, seed=seed)
            if kind == "qadpt":
                model.params["phi_b"][0] = 2.0   # emit entities: paths
            for msg, scene in chats:
                counts.append(assert_neighbourhood_binding(
                    model, turn(msg, "", scene), graph, max_len=6))
    assert any(near < whole for near, whole in counts)


@pytest.mark.parametrize("n_hops", [1, 6])
@pytest.mark.parametrize("record", [True, False], ids=["recording", "value_only"])
def test_decoder_step_node_counts(record, n_hops):
    """A one-position (T=1) qadpt step records 10 tape nodes whatever the
    hop count (the walk is one kg_hop node), and the first step 2 more:
    the walk's mask and source leaves, which later steps reuse. A seq2seq
    step records 5."""
    v = toy_vocab()
    ex = example_for(v, "a lives", "b yes", [Triple("a", "q", "b")])
    assert ex.source_vec.sum() > 0
    for kind, want in (("qadpt", (12, 10, 10)), ("seq2seq", (5, 5, 5))):
        model = model_for(v, kind=kind, n_hops=n_hops)
        state = qadpt._TurnState(model, [ex], record)
        got = []
        for prev in (BOS_ID, v.token_to_id("b"), v.token_to_id("yes")):
            before = len(state.tape)
            state.step(np.array([[prev]]))
            got.append(len(state.tape) - before)
        assert tuple(got) == want, kind


@pytest.mark.parametrize("record", [True, False], ids=["recording", "value_only"])
@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_teacher_forced_pass_node_count_ignores_target_length(kind, record):
    """A teacher-forced pass records one node per op whatever the length
    of the target, for one turn and for a ragged batch, and batch_loss's
    tape adds the parameters and one nll node: 29 nodes for qadpt's 11
    parameters, 20 for seq2seq's 9."""
    v = toy_vocab()
    model = model_for(v, kind=kind)
    counts = set()
    for n_words in (0, 1, 4, 9):
        resp = " ".join(["yes b"] * n_words)
        exs = [example_for(v, "a lives", resp, [Triple("a", "q", "b")]),
               example_for(v, "in b c a", "c", [Triple("b", "r", "c")])]
        for batch in (exs[:1], exs):
            state = qadpt._TurnState(model, batch, record)
            state.teacher_forced()
            counts.add(len(state.tape) - len(model.params))
            if record:
                tape, _, n_tok, _ = batch_loss(model, batch)
                assert n_tok == sum(len(ex.target_ids) for ex in batch)
                assert len(tape) == (29 if kind == "qadpt" else 20)
    assert counts == {17 if kind == "qadpt" else 10}


# ---------------------------------------------------------------------------
# Training


def _training_setup(n=40, kind="qadpt", **kw):
    v = toy_vocab(generic=("lives", "in", "yes", "where"),
                  entities=("a", "b", "c"))
    sub = KnowledgeGraph([Triple("a", "q", "b"), Triple("b", "r", "c")])
    train_ex = []
    for i in range(n):
        ent = ("a", "b", "c")[i % 3]
        tgt = {"a": "b", "b": "c", "c": "c"}[ent]
        train_ex.append(example_for(v, f"where {ent}", f"{tgt} yes",
                                    list(sub.triples)))
    kw.setdefault("hidden_dim", 12)
    kw.setdefault("embed_dim", 8)
    kw.setdefault("batch_size", 8)
    kw.setdefault("n_hops", 3)
    kw.setdefault("seed", 0)
    model = QadptModel(Hyperparams(kind=kind, **kw), v)
    return model, train_ex[: n - 6], train_ex[n - 6:]


def test_training_reduces_validation_perplexity():
    model, tr, va = _training_setup(max_epochs=5, patience=5)
    before = validation_perplexity(model, va)
    result = train(model, tr, va)
    assert result.best_val_ppl < before
    ppls = [h["val_ppl"] for h in result.history]
    assert ppls[2] < ppls[0]


def test_training_restores_best_params():
    model, tr, va = _training_setup(max_epochs=6, patience=1)
    result = train(model, tr, va)
    assert validation_perplexity(model, va) == pytest.approx(
        result.best_val_ppl, rel=1e-9)


def test_patience_zero_stops_at_first_regression():
    model, tr, va = _training_setup(max_epochs=50, patience=0)
    result = train(model, tr, va)
    ppls = [h["val_ppl"] for h in result.history]
    best = np.inf
    for i, p in enumerate(ppls):
        if p >= best:
            assert i == len(ppls) - 1  # the non-improving epoch is the last
        best = min(best, p)


def test_training_deterministic():
    m1, tr, va = _training_setup(max_epochs=3, patience=5)
    m2, _, _ = _training_setup(max_epochs=3, patience=5)
    r1 = train(m1, tr, va)
    r2 = train(m2, tr, va)

    def strip(history):
        return [{k: v for k, v in h.items() if k != "seconds"}
                for h in history]

    assert strip(r1.history) == strip(r2.history)
    assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)


def test_training_writes_jsonl_log(tmp_path):
    import json as _json
    model, tr, va = _training_setup(max_epochs=2, patience=5)
    log = tmp_path / "train.jsonl"
    result = train(model, tr, va, log_path=log)
    lines = [l for l in log.read_text().splitlines() if l.strip()]
    assert len(lines) == len(result.history)
    rec = _json.loads(lines[0])
    assert {"epoch", "train_loss", "val_ppl",
            "grad_norm", "unreachable_targets", "train_tokens",
            "tape_nodes"} <= set(rec)
    # the first epoch's counters, recounted from its seeded batch order
    order = np.random.default_rng(model.hyper.seed).permutation(len(tr))
    size = model.hyper.batch_size
    batches = [[tr[int(i)] for i in order[lo:lo + size]]
               for lo in range(0, len(tr), size)]
    assert rec["train_tokens"] == sum(len(e.target_ids) for e in tr)
    assert rec["tape_nodes"] == sum(len(batch_loss(model, b)[0])
                                    for b in batches)
    assert all(h["train_tokens"] == rec["train_tokens"]
               for h in result.history)


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip(tmp_path):
    v = toy_vocab()
    model = model_for(v)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.hyper == model.hyper
    assert back.vocab == model.vocab
    assert back.params.keys() == model.params.keys()
    for name in model.params:
        # bit for bit: -0.0 and every NaN payload would show here
        assert back.params[name].dtype == np.float64
        assert back.params[name].shape == model.params[name].shape
        assert back.params[name].tobytes() == model.params[name].tobytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_checkpoint_preserves_decoding(tmp_path):
    v = toy_vocab()
    model = model_for(v)
    exs = [example_for(v, f"a lives {w}", "b yes", [Triple("a", "q", "b")])
           for w in ("in", "yes", "lives")]
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    for ex in exs:
        assert greedy_decode(model, ex).token_ids == \
            greedy_decode(back, ex).token_ids


def test_checkpoint_layout_is_the_header_and_sorted_tensors(tmp_path):
    """After the magic and the digest: the header length, a header of
    exactly `hyper` and `vocab`, then expected_param_shapes' tensors in
    sorted-name order and nothing else."""
    model = model_for(toy_vocab())
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert path.read_bytes().startswith(b"QADPT3\n")
    header, payload = checkpoint_parts(path)
    assert header == {"hyper": model.hyper.to_dict(),
                      "vocab": model.vocab.to_dict()}
    assert payload == b"".join(model.params[name].astype("<f8").tobytes()
                               for name in sorted(model.params))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTQADPT" + b"\0" * 64)
    with pytest.raises(CheckpointError, match="magic at offset 0"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_object_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    seal_checkpoint(path, 5, b"")
    with pytest.raises(CheckpointError, match="expected a JSON object"):
        load_checkpoint(path)


def test_checkpoint_rejects_corruption(tmp_path):
    v = toy_vocab()
    model = model_for(v)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF   # flip a bit inside the float payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    v = toy_vocab()
    model = model_for(v)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_every_byte_after_the_magic_is_covered(tmp_path):
    """One changed byte anywhere after the magic (digest, header length,
    header or payload) is refused; each byte gets a seeded mask."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model_for(toy_vocab()), path)
    blob = path.read_bytes()
    head = len(qadpt.CHECKPOINT_MAGIC) + 32 + 8
    (head_len,) = struct.unpack("<Q", blob[head - 8:head])
    masks = np.random.default_rng(20).integers(1, 256, size=len(blob))
    regions = {"digest and length": 0, "header": 0, "payload": 0}
    for at in range(len(qadpt.CHECKPOINT_MAGIC), len(blob)):
        bad = bytearray(blob)
        bad[at] ^= int(masks[at])
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)
        regions["digest and length" if at < head else
                "header" if at < head + head_len else "payload"] += 1
    assert all(regions.values()), regions


def _enc_b_as_dec_b(header) -> None:
    # format 2's manifest entry for dec.b, pointed at enc.b's bytes
    shape = [3 * header["hyper"]["hidden_dim"]]
    header["manifest"] = [{"name": "dec.b", "shape": shape,
                           "offset": tensor_offsets(header)["enc.b"]}]


@pytest.mark.parametrize("edit", [
    lambda h: h["hyper"].update(n_hops=2), _enc_b_as_dec_b,
], ids=["n_hops", "dec_b_reads_enc_b"])
def test_checkpoint_refuses_an_edited_header(tmp_path, edit):
    """Two header edits a payload-only digest let through: a different
    hop count (a different reasoning walk), and a manifest entry that
    loads enc.b's values as dec.b. The digest covers the header, so
    both are refused."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model_for(toy_vocab()), path)
    blob = path.read_bytes()
    header, payload = checkpoint_parts(path)
    edit(header)
    seal_checkpoint(path, header, payload)
    edited = path.read_bytes()
    m = len(qadpt.CHECKPOINT_MAGIC)
    path.write_bytes(blob[:m + 32] + edited[m + 32:])   # the saved digest
    with pytest.raises(CheckpointError, match="checksum mismatch at offset"):
        load_checkpoint(path)


@pytest.mark.parametrize("header_len, cut, why", [
    (None, 8, "payload at offset .* is .* bytes, the header's tensors take"),
    (None, -8, "payload at offset .* is .* bytes, the header's tensors take"),
    (1 << 40, 0, "header at offset .* runs past the end of the file"),
    ((1 << 64) - 1, 0, "header at offset .* runs past the end of the file"),
], ids=["short_payload", "long_payload", "header_past_end",
        "header_length_max"])
def test_sealed_checkpoint_of_the_wrong_length(tmp_path, header_len, cut, why):
    """A file under a valid digest whose payload is not exactly the
    header's tensors, or whose header length runs past the end."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model_for(toy_vocab()), path)
    header, payload = checkpoint_parts(path)
    payload = payload[:len(payload) - cut] if cut > 0 else payload + b"\0" * -cut
    seal_checkpoint(path, header, payload, head_len=header_len)
    with pytest.raises(CheckpointError, match=why):
        load_checkpoint(path)


@pytest.mark.parametrize("body", [b"", b"\x05\0\0"], ids=["empty", "short"])
def test_sealed_checkpoint_without_a_header_length(tmp_path, body):
    path = tmp_path / "m.ckpt"
    path.write_bytes(qadpt.CHECKPOINT_MAGIC + hashlib.sha256(body).digest()
                     + body)
    with pytest.raises(CheckpointError, match="runs past the end"):
        load_checkpoint(path)


@pytest.mark.parametrize("magic, layout", [(b"QADPT1\n", split_gru),
                                           (b"QADPT2\n", dict)],
                         ids=["format1", "format2"])
def test_older_format_refused_at_offset_0(tmp_path, magic, layout):
    model = model_for(toy_vocab())
    path = tmp_path / "old.ckpt"
    save_manifest_checkpoint(path, magic, model.hyper, model.vocab,
                             layout(model.params))
    with pytest.raises(CheckpointError, match="bad magic at offset 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("name, value", [("theta_w", float("nan")),
                                         ("embed", float("inf")),
                                         ("dec.b", float("-inf"))])
def test_checkpoint_rejects_non_finite_weights(tmp_path, name, value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model_for(toy_vocab()), path)
    rewrite_checkpoint(path, poison=(name, value))
    with pytest.raises(CheckpointError,
                       match=f"param {re.escape(name)}: non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("max_epochs", 0)])
def test_checkpoint_rejects_hyper_that_cannot_train(tmp_path, field, value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model_for(toy_vocab()), path)
    rewrite_checkpoint(path, lambda h: h["hyper"].update({field: value}))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, why", [
    (lambda hyper: hyper.update(dropout=0.1), "undeclared key 'dropout'"),
    (lambda hyper: hyper.update(hidden_dim=True),
     "'hidden_dim' is not an integer"),
    (lambda hyper: hyper.update(embed_dim="8"),
     "'embed_dim' is not null or an integer"),
    (lambda hyper: hyper.update(lr=None), "'lr' is not a number"),
    (lambda hyper: hyper.update(lr=float("nan")),
     "lr and clip_norm must be finite and positive"),
], ids=("undeclared", "bool_dim", "string_dim", "null_lr", "nan_lr"))
def test_checkpoint_rejects_mistyped_hyper(tmp_path, edit, why):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model_for(toy_vocab()), path)
    rewrite_checkpoint(path, lambda h: edit(h["hyper"]))
    with pytest.raises(CheckpointError,
                       match=f"bad header contents: {re.escape(why)}"):
        load_checkpoint(path)


def test_checkpoint_with_retired_walk_keys(tmp_path):
    """A header whose hyperparameters name a retired key (post_renorm,
    teacher_forcing, prob_floor, max_decode_len, fine_tune) is refused as
    naming an undeclared key, by the loader and by the CLI: a checkpoint
    written with one must be retrained."""
    retired = {"post_renorm": False, "teacher_forcing": False,
               "prob_floor": 1e-12, "max_decode_len": 40, "fine_tune": False}
    path = tmp_path / "m.ckpt"
    for key, value in retired.items():
        save_checkpoint(model_for(toy_vocab()), path)
        rewrite_checkpoint(path, lambda h: h["hyper"].update({key: value}))
        with pytest.raises(CheckpointError,
                           match=f"bad header contents: undeclared key "
                                 f"{re.escape(repr(key))}"):
            load_checkpoint(path)
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--out", str(bundle), "--n_people", "4",
                     "--n_places", "3", "--n_jobs", "2", "--n_turns", "100",
                     "--seed", "1"]) == 0
    for key in ("post_renorm", "fine_tune"):
        save_checkpoint(model_for(load_bundle(bundle).vocab), path)
        rewrite_checkpoint(path, lambda h: h["hyper"].update({key: False}))
        proc = subprocess.run(
            [sys.executable, "-m", "kgchat.cli", "eval", "--bundle",
             str(bundle), "--checkpoint", str(path), "--out",
             str(tmp_path / "eval")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"undeclared key {key!r}" in proc.stderr
        assert not (tmp_path / "eval").exists()


# ---------------------------------------------------------------------------
# Evaluation records and perturbation runs


@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_evaluate_report_turns_match_direct_calls(kind):
    v = toy_vocab()
    model = model_for(v, kind=kind)
    if kind == "qadpt":
        model.params["phi_b"][0] = 5.0   # emit entities, so paths exist
    exs = [example_for(v, "a lives", "b yes", [Triple("a", "q", "b")]),
           example_for(v, "in b", "yes", [Triple("b", "r", "c")])]
    report = evaluate_report(model, exs, max_len=4)
    assert_report_matches_direct_calls(model, exs, report, max_len=4)
    if kind == "qadpt":
        assert any(t.paths for t in report.turns)
    else:
        assert not any(t.paths for t in report.turns)


def assert_report_matches_direct_calls(model, exs, report, max_len):
    """Each report turn is what standalone teacher_force and
    greedy_decode calls give."""
    id_to_token = model.vocab.id_to_token
    assert [t.turn_id for t in report.turns] == [ex.turn_id for ex in exs]
    for t, ex in zip(report.turns, exs):
        tf = teacher_force(model, ex)
        dec = greedy_decode(model, ex, max_len=max_len)
        paths = qadpt._decode_paths(model, ex, dec)
        assert t.argmax_tokens == tuple(id_to_token[i] for i in tf.argmax_ids)
        assert t.gold_probs == tuple(tf.gold_probs)
        assert t.unreachable == tf.unreachable
        assert t.generated == tuple(dec.tokens)
        assert t.paths == paths


@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_turns_with_an_empty_response(kind):
    """A turn whose response is empty has one decoder position, its EOS,
    so a teacher-forced pass over such turns takes step's one-position
    branch. The loss is still the mean -log of teacher_force's gold
    probabilities, and the report still matches standalone calls."""
    v = toy_vocab()
    model = model_for(v, kind=kind)
    exs = [example_for(v, "a lives", "", [Triple("a", "q", "b")]),
           example_for(v, "in b c", "", [Triple("b", "r", "c")], scene=("a",))]
    assert all(ex.target_ids == (EOS_ID,) for ex in exs)
    tape, loss, n_tok, _ = batch_loss(model, exs)
    nll = [-np.log(max(teacher_force(model, ex).gold_probs[0], 1e-12))
           for ex in exs]
    assert n_tok == len(exs)
    assert float(tape.value(loss)) == pytest.approx(np.mean(nll), rel=0,
                                                    abs=1e-12)
    report = evaluate_report(model, exs, max_len=4)
    assert_report_matches_direct_calls(model, exs, report, max_len=4)


def _encoder_examples(v, seed):
    r = np.random.default_rng(seed)
    chats = [("a lives in", "b yes"), ("in b c", "c"), ("yes", "lives in a"),
             ("d lives", "e in")]
    return [make_example(turn(msg, resp, scene=("a",) * (i % 2), did=f"d{i}"),
                         random_subgraph(v, r), v)
            for i, (msg, resp) in enumerate(chats)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_handed_in_encoder_state_is_bit_identical(kind, seed):
    """teacher_force given a decode's encoder state, and greedy_decode
    given a decode as its prior (one step long, and as long as the
    re-decode), match the calls that encode the turn themselves (the
    eager reference, for the decodes), on the turn's graph and on an
    edited one; perturb_and_decode's re-decodes
    match self-encoding decodes of the edited turns."""
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    model = model_for(v, kind=kind, seed=seed)
    if kind == "qadpt":
        model.params["phi_b"][0] = 2.0   # emit entities, so paths exist
    exs = _encoder_examples(v, seed)
    edited = [dataclasses.replace(ex, **qadpt._bind_graph(v, res.graph,
                                                          ex.raw_sources))
              for ex, res in zip(exs, perturb_all([e.subgraph for e in exs],
                                                  seed))]
    for ex, new in zip(exs, edited):
        short = greedy_decode(model, ex, max_len=1)
        full = greedy_decode(model, ex, max_len=6)
        enc = short.encoded
        assert enc.shape == (model.hyper.hidden_dim,)
        assert teacher_force(model, ex, encoded=enc) == teacher_force(model, ex)
        for prior in (short, full):
            for target in (ex, new):
                assert_same_decode(greedy_decode(model, target, max_len=6,
                                                 prior=prior),
                                   eager_decode(model, target, max_len=6), v)
    runs = perturb_and_decode(model, exs, "all", seed=seed, max_len=6)
    for run, ex, new in zip(runs, exs, edited):
        assert run.original_tokens == greedy_decode(model, ex, max_len=6).tokens
        assert run.perturbed_tokens == \
            greedy_decode(model, new, max_len=6).tokens


def test_each_turn_is_encoded_once_per_call(monkeypatch):
    """evaluate_report's decode hands its encoder pass on to teacher
    forcing, so each turn is encoded once on two tapes; perturb_and_decode
    hands it from the decode to the re-decode on the edited graph."""
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    model = model_for(v)
    exs = _encoder_examples(v, 0)
    batches = []
    tapes = []
    real = qadpt._TurnState._encode
    monkeypatch.setattr(qadpt._TurnState, "_encode",
                        lambda state, rows: batches.append(len(rows)) or
                        real(state, rows))

    class CountedTape(numkernel.Tape):
        def __init__(self, record=True):
            tapes.append(record)
            super().__init__(record)

    monkeypatch.setattr(qadpt, "Tape", CountedTape)
    evaluate_report(model, exs, max_len=6)
    assert batches == [1] * len(exs)
    assert tapes == [False] * (2 * len(exs))
    batches.clear()
    tapes.clear()
    runs = perturb_and_decode(model, exs, "all", seed=0, max_len=6)
    assert all(r.edit is not None for r in runs)
    assert batches == [1] * len(exs)
    assert tapes == [False] * (2 * len(exs))


def test_every_public_tape_op_is_recorded_by_the_models(monkeypatch):
    """Training, teacher forcing and decoding of the two models call
    every public Tape method but `value`, so an op that no model records
    cannot stay in the kernel unnoticed. Methods are wrapped on the
    class, as the benchmark's tracer wraps them."""
    ops = {name for name, fn in vars(numkernel.Tape).items()
           if not name.startswith("_") and callable(fn)} - {"value"}
    called = set()

    def counting(name, fn):
        def call(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return call

    for name in ops:
        monkeypatch.setattr(numkernel.Tape, name,
                            counting(name, vars(numkernel.Tape)[name]))
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    exs = _encoder_examples(v, 0)
    for kind in ("qadpt", "seq2seq"):
        model = model_for(v, kind=kind)
        tape, loss, _, _ = batch_loss(model, exs)
        param_grads(model, tape, loss)
        teacher_force(model, exs[0])
        greedy_decode(model, exs[0], max_len=3)
    assert called == ops


def test_handed_in_encoder_state_is_checked():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives", "b yes", [Triple("a", "q", "b")])
    h = model.hyper.hidden_dim
    dec = greedy_decode(model, ex, max_len=2)

    def prior(encoded):
        return dataclasses.replace(dec, encoded=encoded)

    for bad in (np.zeros(h + 1), np.zeros((1, h)), np.zeros(()),
                [0.0] * (h - 1)):
        with pytest.raises(ModelError, match="encoder state has shape"):
            teacher_force(model, ex, encoded=bad)
        with pytest.raises(ModelError, match="encoder state has shape"):
            greedy_decode(model, ex, prior=prior(bad))
    with pytest.raises(KernelError, match="non-finite values in leaf"):
        greedy_decode(model, ex, prior=prior(np.full(h, np.nan)))


def test_perturb_seq2seq_outputs_never_change():
    v = toy_vocab()
    model = model_for(v, kind="seq2seq")
    exs = [make_example(turn("a lives", "b yes", did=f"d{i}"),
                        KnowledgeGraph([Triple("a", "q", "b")]), v)
           for i in range(3)]
    for mode in ("all", "last1", "last2"):
        runs = perturb_and_decode(model, exs, mode, seed=1)
        for r in runs:
            assert r.original_tokens == r.perturbed_tokens
        if mode == "last1":
            # grounded turns get edited via the gold paths, so the zero
            # change rate is measured rather than vacuous
            assert all(r.edit is not None and r.edit.edits for r in runs)


def test_perturb_modes_validate():
    v = toy_vocab()
    model = model_for(v)
    ex = example_for(v, "a lives", "b", [Triple("a", "q", "b")])
    with pytest.raises(ModelError, match="mode"):
        perturb_and_decode(model, [ex], "swap", seed=0)


def test_perturb_last1_skips_turns_without_paths():
    v = toy_vocab()
    model = model_for(v, seed=1)
    # empty subgraph: nothing is ever emitted from the entity branch
    exs = [example_for(v, "lives in", "yes", []) for _ in range(2)]
    runs = perturb_and_decode(model, exs, "last1", seed=0)
    assert all(r.edit is None for r in runs)
    assert all(r.original_tokens == r.perturbed_tokens for r in runs)


def test_perturb_last2_skips_interior_self_loops(monkeypatch):
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    model = model_for(v)
    real = (Triple("a", "q", "b"), Triple("b", "r", "c"))
    ex = example_for(v, "a lives", "c", list(real), extra=v.entities)
    # the walk idles at b before its last step, so p[-2] is a self-loop
    path = InferredPath(start="a", triples=(real[0], Triple("b", SELF_LOOP, "b"),
                                            real[1]), probability=0.5)
    monkeypatch.setattr(qadpt, "_decode_paths", lambda *args: (path,))
    (run,) = perturb_and_decode(model, [ex], "last2", seed=0)
    assert tuple(old for old, _ in run.edit.edits) == real


def test_perturb_deterministic():
    v = toy_vocab(entities=("a", "b", "c", "d", "e"))
    model = model_for(v, seed=2)
    exs = [make_example(turn("a lives", "b", did=f"d{i}"),
                        KnowledgeGraph([Triple("a", "q", "b")],
                                       extra_entities=v.entities), v)
           for i in range(3)]
    r1 = perturb_and_decode(model, exs, "all", seed=9)
    r2 = perturb_and_decode(model, exs, "all", seed=9)
    assert [(r.perturbed_tokens, r.edit) for r in r1] == \
        [(r.perturbed_tokens, r.edit) for r in r2]


@pytest.mark.parametrize("mode", ["all", "last1", "last2"])
@pytest.mark.parametrize("kind", ["qadpt", "seq2seq"])
def test_perturb_reads_paths_only_for_tail_edits(trained_toy, monkeypatch,
                                                 kind, mode):
    """`all` swaps whole graphs and reads no path. last1/last2 read one
    inferred path per emitted entity (qadpt) or one grounding search per
    turn (seq2seq). Every turn decodes once; a qadpt turn decodes once
    more unless it is skipped, and a seq2seq turn, whose model reads no
    graph, never does."""
    model, exs = trained_toy
    if kind == "seq2seq":
        model = model_for(model.vocab, kind="seq2seq")
    calls = dict.fromkeys(("infer_path", "grounding_paths", "greedy_decode"), 0)
    for name in calls:
        def counted(*args, _real=getattr(qadpt, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(qadpt, name, counted)
    runs = perturb_and_decode(model, exs, mode, seed=3)
    ents = set(model.vocab.entities)
    emitted = sum(t in ents for r in runs for t in r.original_tokens)
    if kind == "qadpt":
        assert emitted > 0
    reads = {"infer_path": emitted if kind == "qadpt" else 0,
             "grounding_paths": len(exs) if kind == "seq2seq" else 0}
    if mode == "all":
        reads = dict.fromkeys(reads, 0)
    redecodes = sum(r.edit is not None for r in runs)
    if kind == "seq2seq":
        # edited turns exist (no toy path has two steps for last2), and
        # none is decoded again
        assert redecodes > 0 or mode == "last2"
        redecodes = 0
    assert calls == {**reads, "greedy_decode": len(exs) + redecodes}
