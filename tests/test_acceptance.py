"""Release gate: one test per acceptance criterion, each printing a
summary line (run with -s to see them on success; pytest -v shows one
PASSED/FAILED row per criterion either way).

Criterion 8 compares corpus statistics against the published reference
profiles. The released corpus files are not distributed with this
repository; point KGCHAT_HGZHZ_BUNDLE at an ingested bundle directory
to run the full comparison, otherwise the test verifies the row-by-row
reporting machinery and says so.

The last test compares the outputs of criteria 6 and 7's default run
with tests/data/pipeline_record.json, the record of what that run
produces that does not hang on BLAS rounding (`oracles.pipeline_record`).
A change that moves an output on purpose rewrites the record by running,
from the tests directory,

    PYTHONPATH=../src:. python3 -c \\
        "import oracles; oracles.write_pipeline_record('data/pipeline_record.json')"

and names the turns that moved (the failing test lists them).
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (RECORD_SEED, assert_neighbourhood_binding,
                     assert_same_decode, brute_force_best_path,
                     decoder_steps, default_pipeline, dense_step,
                     dense_transition, eager_decode, finite_diff_check,
                     path_sum_oracle, pipeline_record, random_subgraph,
                     record_diff, replayed_steps, walk_to_triples)
from test_metrics import LAST1_FIXTURES
from test_qadpt import _fd_setup, example_for, model_for, toy_vocab, turn

from kgchat import qadpt
from kgchat.corpus import (BOS_ID, SyntheticConfig, compare_stats,
                           corpus_stats, generate_synthetic, ingest,
                           load_bundle, write_json)
from kgchat.kgraph import PERTURB_MODES, KnowledgeGraph, Triple
from kgchat.metrics import (accurate_change_rate, bleu2_sentence, change_rate,
                            distinct_n, evaluate_report, generated_kw_prf,
                            perplexity, perturbation_report)
from kgchat.qadpt import (Hyperparams, ModelError, QadptModel, greedy_decode,
                          infer_path, load_checkpoint, make_example,
                          make_examples, perturb_and_decode, save_checkpoint,
                          train)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences


def test_criterion_1_gradients():
    t0 = time.perf_counter()
    worst = 0.0
    runs = 0
    for seed in range(20):
        build, params = _fd_setup("qadpt", seed)
        report = finite_diff_check(build, params, tolerance=1e-4)
        worst = max(worst, report.max_rel_err)
        runs += 1
        if not report.passed:
            _line(1, False, f"seed {seed}: {report.worst_param} "
                            f"rel err {report.max_rel_err:.2e}")
    for seed in (0, 1):
        build, params = _fd_setup("seq2seq", seed)
        report = finite_diff_check(build, params, tolerance=1e-4)
        worst = max(worst, report.max_rel_err)
        runs += 1
        if not report.passed:
            _line(1, False, f"seq2seq seed {seed}: {report.worst_param} "
                            f"rel err {report.max_rel_err:.2e}")
    dt = time.perf_counter() - t0
    _line(1, dt < 60.0,
          f"{runs} finite-difference sweeps, max rel err {worst:.2e} "
          f"(tol 1e-4), {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. reasoning walk vs exhaustive path enumeration


ENTITY_POOL = ("a", "b", "c", "d", "e", "f")
RELATION_POOL = ("q", "r", "p")


def test_criterion_2_walk_and_paths():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_k = 0.0
    paths_checked = 0
    for case in range(200):
        n_ents = int(rng.integers(2, 7))
        n_rels = int(rng.integers(1, 4))
        n_hops = int(rng.integers(1, 7))
        n_triples = int(rng.integers(1, 5 if n_hops >= 5 else 7))
        v = toy_vocab(entities=ENTITY_POOL[:n_ents],
                      relations=RELATION_POOL[:n_rels])
        model = model_for(v, seed=case, n_hops=n_hops)
        sub = random_subgraph(v, rng, n_triples)
        mentioned = [e for e in ENTITY_POOL[:n_ents]
                     if rng.random() < 0.4]
        ex = make_example(turn(" ".join(mentioned + ["lives"]), "yes"),
                          sub, v)
        step = decoder_steps(model, ex, [BOS_ID])[0]
        # the dense oracles index every entity: the step's subgraph rows
        # scattered to E
        dense = dense_step(v, ex, step)
        rhat, source = dense.path_matrix, dense.source
        k_walk = path_sum_oracle(sub, v, rhat, source, n_hops)
        err = float(np.max(np.abs(dense.entity - k_walk)))
        worst_k = max(worst_k, err)
        if err > 1e-10:
            _line(2, False, f"case {case}: k deviates by {err:.2e}")
        T = dense_transition(sub, v, rhat)
        k_dense = source @ np.linalg.matrix_power(T, n_hops)
        if float(np.max(np.abs(dense.entity - k_dense))) > 1e-10:
            _line(2, False, f"case {case}: dense oracle disagrees")
        for target in range(n_ents):
            want = brute_force_best_path(sub, v, rhat, source, target, n_hops)
            entity = v.entities[target]
            if want is None:
                with pytest.raises(ModelError):
                    infer_path(ex.adj, step.path_matrix, ex.source_vec,
                               entity, n_hops)
                continue
            got = infer_path(ex.adj, step.path_matrix, ex.source_vec, entity,
                             n_hops)
            start, triples = walk_to_triples(v, ex.adj, *want[1])
            same = (got.start == start and got.triples == triples
                    and got.probability == pytest.approx(want[0], rel=1e-12))
            if not same:
                _line(2, False, f"case {case} target {entity}: "
                                f"path {got} != oracle {want}")
            paths_checked += 1
    dt = time.perf_counter() - t0
    _line(2, dt < 60.0,
          f"200 random graphs: max k deviation {worst_k:.2e} (tol 1e-10), "
          f"{paths_checked} best paths matched exactly, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. decode-step distribution invariants


def test_criterion_3_distribution_invariants():
    rng = np.random.default_rng(7)
    steps_seen = 0
    worst = 0.0
    for case in range(50):
        n_ents = int(rng.integers(3, 7))
        v = toy_vocab(entities=ENTITY_POOL[:n_ents])
        model = model_for(v, seed=case, n_hops=int(rng.integers(1, 6)))
        sub = random_subgraph(v, rng, int(rng.integers(1, 7)))
        mentioned = [e for e in ENTITY_POOL[:n_ents] if rng.random() < 0.4]
        ex = make_example(turn(" ".join(mentioned + ["in"]), "yes"), sub, v)
        prev = [BOS_ID] + [int(i) for i in
                           rng.integers(4, v.size, size=19)]
        for step in decoder_steps(model, ex, prev):
            dev = max(abs(step.combined.sum() - 1.0),
                      abs(step.entity.sum() - 1.0),
                      float(np.max(np.abs(step.path_matrix.sum(axis=1) - 1.0))))
            worst = max(worst, dev)
            if dev > 1e-9 or not 0.0 <= step.controller <= 1.0:
                _line(3, False, f"case {case}: deviation {dev:.2e}, "
                                f"controller {step.controller}")
            steps_seen += 1
    _line(3, steps_seen == 1000,
          f"{steps_seen} decode steps: all sums within {worst:.2e} of 1 "
          f"(tol 1e-9), controller always in [0, 1]")


# ---------------------------------------------------------------------------
# 4. tail-swap equivariance, bit-exact


def test_criterion_4_tail_swap():
    rng = np.random.default_rng(41)
    for case in range(100):
        m = int(rng.integers(2, 6))
        base = ENTITY_POOL[:m]
        v = toy_vocab(entities=base + ("t1", "t2"))
        model = model_for(v, seed=case, n_hops=int(rng.integers(1, 6)))
        triples = set()
        for _ in range(int(rng.integers(1, 6))):
            h, t = rng.choice(m, size=2)
            if h != t:
                triples.add(Triple(base[int(h)],
                                   RELATION_POOL[int(rng.integers(2))],
                                   base[int(t)]))
        head = base[int(rng.integers(m))]
        rel = RELATION_POOL[int(rng.integers(2))]
        sub = KnowledgeGraph(triples | {Triple(head, rel, "t1")},
                             extra_entities=["t2"])
        swapped = KnowledgeGraph(triples | {Triple(head, rel, "t2")},
                                 extra_entities=["t1"])
        # the head keeps the walk sourced from inside the subgraph, so
        # neither sink ever receives fallback source mass
        msg = " ".join([head] +
                       [base[int(i)] for i in
                        rng.choice(m, size=int(rng.integers(0, 2)))] +
                       ["lives"])
        ex1 = make_example(turn(msg, "yes"), sub, v)
        ex2 = make_example(turn(msg, "yes"), swapped, v)
        p1 = v.token_to_id("t1") - v.entity_base
        p2 = v.token_to_id("t2") - v.entity_base
        prev = [BOS_ID, 5, 6]
        for st1, st2 in zip(decoder_steps(model, ex1, prev),
                            decoder_steps(model, ex2, prev)):
            # compared over every entity: the steps' subgraph rows
            # scattered to E
            st1, st2 = dense_step(v, ex1, st1), dense_step(v, ex2, st2)
            assert np.array_equal(st1.source, st2.source)
            ok = (st2.entity[p2] == st1.entity[p1]
                  and st2.entity[p1] == 0.0
                  and np.array_equal(st1.path_matrix, st2.path_matrix))
            if not ok:
                _line(4, False, f"case {case}: swap not bit-exact")
    _line(4, True, "100 randomized sink swaps, swapped tail inherits the "
                   "old tail's mass bit-for-bit")


# ---------------------------------------------------------------------------
# 5. metric fixtures


def test_criterion_5_metric_oracles():
    ents = ("JinXi", "Yongshou-Palace", "Zhen-Huan", "Yangxin-Palace")
    prf = generated_kw_prf(ents, [("go", "JinXi", "to", "Yongshou-Palace")],
                           [("Zhen-Huan", "meets", "JinXi", "at",
                             "Yangxin-Palace")])
    if not (prf.recall == 0.5 and prf.precision == 1 / 3):
        _line(5, False, f"worked example gave P={prf.precision} R={prf.recall}")

    checks = [
        bleu2_sentence(("a", "b", "c"), ("a", "b", "c")) == 1.0,
        bleu2_sentence(("x", "y", "z"), ("a", "b", "c"))
        == pytest.approx((1 / 12) ** 0.5),
        bleu2_sentence((), ("a",)) == 0.0,
        bleu2_sentence(("a",), ("a", "b")) == pytest.approx(np.exp(-1.0)),
        perplexity([(0.01,) * 5, (0.01,) * 3]) == pytest.approx(100.0),
        distinct_n([("a", "b", "a", "b")], 1) == 0.5,
        distinct_n([("a", "b"), ("a", "c")], 2) == 1.0,
        change_rate([("a",), ("b",)], [("a",), ("c",)]) == 0.5,
    ]
    if not all(checks):
        _line(5, False, f"fixed-value fixtures: {checks}")

    ents = ("A", "B", "C", "D", "T", "T2")
    for orig, pert, hyp, targets, want in LAST1_FIXTURES:
        acc = accurate_change_rate(ents, [orig], [pert], [hyp], "last1",
                                   [targets])
        chg = change_rate([orig], [pert])
        if acc != (1.0 if want else 0.0):
            _line(5, False, f"hand-labeled fixture mislabeled: {orig}->{pert}")
        if acc == 1.0 and chg == 0.0:
            _line(5, False, f"accurate turn counted as unchanged: {orig}")
        acc_all = accurate_change_rate(ents, [orig], [pert], [hyp], "all")
        if acc_all == 1.0 and chg == 0.0:
            _line(5, False, f"accurate-all turn counted as unchanged: {orig}")
    _line(5, True, "worked example exact (P=1/3, R=0.5); bleu/ppl/distinct/"
                   "change fixtures exact; accurate implies changed on all "
                   f"{len(LAST1_FIXTURES)} labeled fixtures")


# ---------------------------------------------------------------------------
# 6 + 7. end-to-end training on the default synthetic corpus


@pytest.fixture(scope="module")
def pipeline():
    return default_pipeline()


def test_criterion_6_synthetic_end_to_end(pipeline):
    rq, rs = pipeline.report_q.metrics, pipeline.report_s.metrics
    q_f1, s_f1 = rq["generated_kw"]["f1"], rs["generated_kw"]["f1"]
    ok = (pipeline.qadpt_seconds < 900.0
          and rq["kw_acc"] >= 0.90
          and q_f1 >= 0.90
          and s_f1 < q_f1)
    _line(6, ok,
          f"train {pipeline.qadpt_seconds:.0f}s (<900s); "
          f"kw_acc {rq['kw_acc']:.3f}, generated-kw f1 {q_f1:.3f} "
          f"(both >= 0.90); baseline f1 {s_f1:.3f} strictly lower")


def test_criterion_7_perturbation_behavior(pipeline):
    ents = pipeline.bundle.vocab.entities
    eset = set(ents)
    single = [ex for ex in pipeline.test
              if len(ex.raw_sources) == 1
              and any(t in eset for t in ex.target_tokens)]
    runs = perturb_and_decode(pipeline.qadpt, single, "last1", seed=13)
    rep = perturbation_report(ents, runs, "last1")

    base_rates = {}
    for mode in ("all", "last1", "last2"):
        sruns = perturb_and_decode(pipeline.seq2seq, pipeline.test, mode,
                                   seed=13)
        srep = perturbation_report(ents, sruns, mode)
        base_rates[mode] = (srep.change_rate, srep.n_turns)
    ok = (rep.accurate_change_rate is not None
          and rep.accurate_change_rate >= 0.80
          and all(rate == 0.0 and n > 0
                  for rate, n in base_rates.values()))
    _line(7, ok,
          f"last1 accurate-change {rep.accurate_change_rate:.3f} on "
          f"{rep.n_turns} single-source turns (>= 0.80); graph-blind "
          f"baseline change rate {[base_rates[m][0] for m in ('all', 'last1', 'last2')]} "
          f"across all/last1/last2")


# ---------------------------------------------------------------------------
# 8. corpus statistics vs published reference profiles


def test_criterion_8_reference_statistics():
    real = os.environ.get("KGCHAT_HGZHZ_BUNDLE")
    if real:
        stats = corpus_stats(load_bundle(real))
        rows = compare_stats(stats, "hgzhz")
        bad = [r for r in rows if not r[3]]
        for name, want, got, _ in rows:
            print(f"  {name}: expected {want}, got {got}")
        _line(8, not bad,
              f"{len(rows) - len(bad)}/{len(rows)} profile rows match")
        return
    raw = generate_synthetic(SyntheticConfig(n_people=6, n_places=3,
                                             n_jobs=2, n_turns=150), seed=1)
    bundle = ingest(raw.raw_turns, raw.graph, lexicon=raw.lexicon)
    rows = compare_stats(corpus_stats(bundle), "hgzhz")
    shape_ok = (len(rows) >= 4
                and all(len(r) == 4 and isinstance(r[3], bool) for r in rows)
                and any(not r[3] for r in rows))
    _line(8, shape_ok,
          "released corpus files not present (set KGCHAT_HGZHZ_BUNDLE to "
          f"enable); row-by-row comparison verified on {len(rows)} rows, "
          "mismatches reported per row")


# ---------------------------------------------------------------------------
# 9. determinism and persistence


def test_criterion_9_determinism(pipeline, tmp_path):
    def run():
        raw = generate_synthetic(SyntheticConfig(n_people=8, n_places=4,
                                                 n_jobs=3, n_turns=250),
                                 seed=11)
        bundle = ingest(raw.raw_turns, raw.graph, lexicon=raw.lexicon,
                        split_seed=0)
        model = QadptModel(Hyperparams(hidden_dim=24, embed_dim=16, n_hops=3,
                                       max_epochs=3, seed=5), bundle.vocab)
        train(model, make_examples(bundle, bundle.split_turns("train")),
              make_examples(bundle, bundle.split_turns("valid")))
        te = make_examples(bundle, bundle.split_turns("test"))
        return model, evaluate_report(model, te, config={"seed": 5})

    m1, r1 = run()
    m2, r2 = run()
    save_checkpoint(m1, tmp_path / "a.ckpt")
    save_checkpoint(m2, tmp_path / "b.ckpt")
    ckpt_ok = (tmp_path / "a.ckpt").read_bytes() == \
        (tmp_path / "b.ckpt").read_bytes()
    write_json(r1.to_dict(), tmp_path / "a.json")
    write_json(r2.to_dict(), tmp_path / "b.json")
    report_ok = (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()

    save_checkpoint(pipeline.qadpt, tmp_path / "big.ckpt")
    reloaded = load_checkpoint(tmp_path / "big.ckpt")
    sample = pipeline.test[:20]
    before = [greedy_decode(pipeline.qadpt, ex).token_ids for ex in sample]
    after = [greedy_decode(reloaded, ex).token_ids for ex in sample]
    rt_ok = before == after
    _line(9, ckpt_ok and report_ok and rt_ok,
          f"repeat runs bit-identical (checkpoint {ckpt_ok}, report "
          f"{report_ok}); decode identical on {len(sample)} inputs after "
          f"checkpoint round-trip")


# ---------------------------------------------------------------------------
# Greedy decoding of the default run against the eager reference


def test_default_run_decodes_match_the_eager_reference(pipeline):
    """Every test turn's greedy decode, by both kinds, against
    oracles.eager_decode, which runs every step in full
    (oracles.assert_same_decode). Some qadpt steps skip their walk, and
    some run it."""
    skipped = []
    for model in (pipeline.qadpt, pipeline.seq2seq):
        for ex in pipeline.test:
            dec = greedy_decode(model, ex)
            if model.kind == "qadpt":
                skipped += [step.entity is None for step in dec.steps]
            assert_same_decode(dec, eager_decode(model, ex), model.vocab)
    print(f"{sum(skipped)} of {len(skipped)} qadpt decode steps skipped "
          f"their walk")
    assert any(skipped) and not all(skipped)


def test_default_run_re_decodes_replay_the_decodes(pipeline):
    """Every re-decode of the default run's test turns under all, last1
    and last2 (seed 13), by both kinds: perturb_and_decode's perturbed
    tokens are those of greedy_decode on the edited turn given the
    original decode as its prior, and that decode matches
    oracles.eager_decode of the edited turn (oracles.assert_same_decode).
    Some qadpt re-decodes replay a step and some run every step after
    the first in full."""
    counts = {kind: [0, 0] for kind in ("qadpt", "seq2seq")}
    for model in (pipeline.qadpt, pipeline.seq2seq):
        for mode in PERTURB_MODES:
            runs = perturb_and_decode(model, pipeline.test, mode,
                                      seed=RECORD_SEED)
            for ex, run in zip(pipeline.test, runs):
                if run.edit is None:
                    continue
                new = dataclasses.replace(ex, **qadpt._bind_graph(
                    model.vocab, run.edit.graph, ex.raw_sources))
                prior = greedy_decode(model, ex)
                dec = greedy_decode(model, new, prior=prior)
                assert dec.tokens == run.perturbed_tokens, run.turn_id
                assert_same_decode(dec, eager_decode(model, new), model.vocab)
                counts[model.kind][0] += replayed_steps(dec, prior)
                counts[model.kind][1] += len(dec.steps)
    for kind, (replayed, total) in counts.items():
        print(f"{kind}: {replayed} of {total} re-decode steps replayed")
    replayed, total = counts["qadpt"]
    assert 0 < replayed < total
    assert counts["seq2seq"][0] == counts["seq2seq"][1] > 0


def test_default_run_neighbourhood_binding_matches_the_whole_graph(pipeline):
    """Every test turn of the default world, as the bundle holds it and
    as chat sees its message (no scene entities), decodes bound to the
    n_hops out-neighbourhood of its sources as bound to the whole graph,
    bit for bit (oracles.assert_neighbourhood_binding), by both kinds.
    The neighbourhood leaves entities out of most turns."""
    graph = pipeline.bundle.graph
    sizes = []
    for model in (pipeline.qadpt, pipeline.seq2seq):
        for t in pipeline.bundle.split_turns("test"):
            for scene in (t.scene_entities, ()):
                sizes.append(assert_neighbourhood_binding(
                    model, dataclasses.replace(t, scene_entities=scene),
                    graph))
    near = [n for n, _ in sizes]
    print(f"{len(sizes)} bindings, mean L {np.mean(near):.1f} of "
          f"E = {sizes[0][1]}")
    assert sum(n < e for n, e in sizes) > len(sizes) // 2


# ---------------------------------------------------------------------------
# The golden record of the default run


def test_default_run_matches_the_golden_record(pipeline):
    want = json.loads((Path(__file__).parent / "data" /
                       "pipeline_record.json").read_text())
    moved = record_diff(want, pipeline_record(pipeline))
    assert not moved, (f"{len(moved)} recorded outputs moved, first "
                       f"{moved[:10]}")
