import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgchat.corpus import DataError, DialogueTurn, Vocabulary, write_json
from kgchat.kgraph import KnowledgeGraph, PerturbationResult, Triple
from kgchat.metrics import (METRIC_NAMES, EvalReport, MetricError, PRF,
                            TokenPRF, accurate_change_rate, bleu2_sentence,
                            change_rate,
                            distinct_n, evaluate_report, generated_kw_prf,
                            kw_acc, kw_acc_soft, kw_generic_prf,
                            load_perturb_report, load_report, perplexity,
                            perturbation_report, recompute_scalars)
from kgchat.qadpt import (Hyperparams, PerturbedTurn, QadptModel, make_example,
                          perturb_and_decode)

ENTS = ("A", "B", "C", "D", "T", "T2")


# ---------------------------------------------------------------------------
# Teacher-forced entity metrics


def test_kw_acc_perfect_and_never():
    gold = [("A", "yes"), ("B",)]
    assert kw_acc(ENTS, gold, gold) == 1.0
    pred = [("yes", "yes"), ("no",)]
    assert kw_acc(ENTS, gold, pred) == 0.0


def test_kw_acc_six_position_fixture():
    # six positions, two with gold entities, one of those predicted right
    gold = [("A", "x", "y"), ("z", "B", "w")]
    pred = [("A", "x", "q"), ("z", "C", "w")]
    assert kw_acc(ENTS, gold, pred) == 0.5


def test_kw_acc_absent_without_entity_positions():
    assert kw_acc(ENTS, [("x", "y")], [("x", "y")]) is None


def test_kw_acc_rejects_mismatch():
    with pytest.raises(MetricError):
        kw_acc(ENTS, [("x",)], [("x",), ("y",)])
    with pytest.raises(MetricError):
        kw_acc(ENTS, [("x", "y")], [("x",)])


def test_kw_acc_soft_means_gold_probability():
    gold = [("A", "x"), ("B",)]
    probs = [(0.5, 0.9), (0.25,)]
    assert kw_acc_soft(ENTS, gold, probs) == pytest.approx(0.375)
    assert kw_acc_soft(ENTS, [("x",)], [(0.4,)]) is None


def test_kw_generic_prf_perfect():
    gold = [("A", "x"), ("y", "B")]
    prf = kw_generic_prf(ENTS, gold, gold)
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 0)


def test_kw_generic_prf_always_generic():
    gold = [("A", "x")]
    pred = [("x", "x")]
    prf = kw_generic_prf(ENTS, gold, pred)
    assert prf.recall == 0.0
    assert prf.precision is None   # nothing predicted as entity
    assert prf.f1 is None


def test_kw_generic_prf_hand_count():
    # TP=2 FP=1 FN=1: entity-ness agreement, identity not required
    gold = [("A", "x", "B"), ("C", "y")]
    pred = [("B", "A", "D"), ("z", "y")]
    prf = kw_generic_prf(ENTS, gold, pred)
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)
    assert prf.precision == pytest.approx(2 / 3)
    assert prf.recall == pytest.approx(2 / 3)
    assert prf.f1 == pytest.approx(2 / 3)


def test_kw_generic_prf_no_gold_entities_recall_absent():
    prf = kw_generic_prf(ENTS, [("x", "y")], [("A", "y")])
    assert prf.recall is None
    assert prf.precision == 0.0


# ---------------------------------------------------------------------------
# Free-running entity matching


def test_generated_kw_worked_example():
    entities = ("JinXi", "Yongshou-Palace", "Zhen-Huan", "Yangxin-Palace")
    ref = [("go", "JinXi", "to", "Yongshou-Palace")]
    gen = [("Zhen-Huan", "meets", "JinXi", "at", "Yangxin-Palace")]
    prf = generated_kw_prf(entities, ref, gen)
    assert prf.recall == 0.5
    assert prf.precision == pytest.approx(1 / 3)


def test_generated_kw_identity():
    ref = [("A", "x", "B")]
    prf = generated_kw_prf(ENTS, ref, ref)
    assert prf.precision == 1.0 and prf.recall == 1.0 and prf.f1 == 1.0


@pytest.mark.parametrize("ref,gen,want", [
    # (p_num, p_den, r_num, r_den) hand counts, duplicates included
    (("A", "A"), ("A",), (1, 1, 2, 2)),
    (("A",), ("A", "A"), (2, 2, 1, 1)),
    (("A", "B"), ("A", "A", "C"), (2, 3, 1, 2)),
    (("x", "y"), ("A",), (0, 1, 0, 0)),
    ((), (), (0, 0, 0, 0)),
])
def test_generated_kw_duplicate_fixtures(ref, gen, want):
    prf = generated_kw_prf(ENTS, [ref], [gen])
    assert (prf.p_num, prf.p_den, prf.r_num, prf.r_den) == want


def test_generated_kw_micro_aggregation():
    refs = [("A",), ("B", "C")]
    gens = [("A", "D"), ("B",)]
    prf = generated_kw_prf(ENTS, refs, gens)
    assert (prf.p_num, prf.p_den) == (2, 3)
    assert (prf.r_num, prf.r_den) == (2, 3)
    assert prf.f1 == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# BLEU-2


def test_bleu2_identity_is_exactly_one():
    assert bleu2_sentence(("a", "b", "c"), ("a", "b", "c")) == 1.0


def test_bleu2_one_substitution():
    got = bleu2_sentence(("a", "b", "c"), ("a", "b", "d"))
    assert got == pytest.approx(math.sqrt(0.5))


def test_bleu2_no_overlap_smoothed_floor():
    # smoothed per order: 1-gram (0+1)/(3+1), 2-gram (0+1)/(2+1)
    got = bleu2_sentence(("a", "b", "c"), ("x", "y", "z"))
    assert got == pytest.approx(math.sqrt(1 / 12))


def test_bleu2_empty_hypothesis_is_zero():
    assert bleu2_sentence((), ("a", "b")) == 0.0


def test_bleu2_brevity_penalty():
    # hyp half as long as ref: BP = exp(1 - 2) = e^-1
    full = bleu2_sentence(("a", "b"), ("a", "b"))
    short = bleu2_sentence(("a", "b"), ("a", "b", "c", "d"))
    p1 = (2 + 1) / (2 + 1)
    p2 = (1 + 1) / (1 + 1)
    assert full == 1.0
    assert short == pytest.approx(math.sqrt(p1 * p2) * math.exp(-1.0))


def test_bleu2_clips_repeated_ngrams():
    got = bleu2_sentence(("a", "a", "a"), ("a",))
    assert got == pytest.approx(math.sqrt((2 / 4) * (1 / 3)))


@given(st.lists(st.sampled_from("abcd"), max_size=6),
       st.lists(st.sampled_from("abcd"), max_size=6))
@settings(max_examples=200, deadline=None)
def test_bleu2_in_unit_interval(hyp, ref):
    assert 0.0 <= bleu2_sentence(hyp, ref) <= 1.0


# ---------------------------------------------------------------------------
# Perplexity and distinct-n


def test_perplexity_uniform_hundred():
    probs = [(0.01,) * 4, (0.01,) * 3]
    assert perplexity(probs) == pytest.approx(100.0)


def test_perplexity_oracle_is_one():
    assert perplexity([(1.0, 1.0)]) == pytest.approx(1.0)


def test_perplexity_hand_summed():
    probs = [(0.5, 0.25), (0.125,)]
    want = math.exp((math.log(2) + math.log(4) + math.log(8)) / 3)
    assert perplexity(probs) == pytest.approx(want)


def test_perplexity_zero_tokens_errors():
    with pytest.raises(MetricError):
        perplexity([])
    with pytest.raises(MetricError):
        perplexity([(), ()])


def test_perplexity_floors_zero_probability():
    assert np.isfinite(perplexity([(0.0,)]))


def test_distinct_1_repeated_token():
    assert distinct_n([("a", "a", "a")], 1) == pytest.approx(1 / 3)


def test_distinct_all_unique():
    assert distinct_n([("a", "b"), ("c",)], 1) == 1.0


def test_distinct_2_hand_tally():
    # 2-grams: ab, ba | ba, ab -> 4 total, 2 unique
    assert distinct_n([("a", "b", "a"), ("b", "a", "b")], 2) == 0.5


def test_distinct_empty_and_short():
    assert distinct_n([], 2) == 0.0
    assert distinct_n([("a",)], 2) == 0.0
    with pytest.raises(MetricError):
        distinct_n([("a",)], 0)


# ---------------------------------------------------------------------------
# Change rates


def test_change_rate_basics():
    runs = [("a", "b")] * 10
    assert change_rate(runs, runs) == 0.0
    flipped = [("x", "y")] * 10
    assert change_rate(runs, flipped) == 1.0
    mixed = list(runs)
    for i in range(3):
        mixed[i] = ("x",)
    assert change_rate(runs, mixed) == pytest.approx(0.3)


def test_change_rate_errors():
    with pytest.raises(MetricError):
        change_rate([("a",)], [])
    with pytest.raises(MetricError):
        change_rate([], [])


LAST1_FIXTURES = [
    # (original, perturbed, hypothesis, targets, expected), hand-labeled
    (("T", "yes"), ("T2", "yes"), {"T2"}, {"T"}, True),
    (("T", "yes"), ("T", "yes"), {"T2"}, {"T"}, False),    # unchanged
    (("T", "yes"), ("B", "yes"), {"T2"}, {"T"}, False),    # wrong entity
    (("A", "yes"), ("A", "T2"), {"T2"}, {"T"}, True),      # target unseen
    (("A", "yes"), ("A", "yes"), {"A"}, {"T"}, False),     # nothing new
    (("T", "A"), ("T2", "A"), {"T2"}, {"T"}, True),
    (("T", "A"), ("T2", "T"), {"T2"}, {"T"}, False),       # target kept
    (("T",), (), {"T2"}, {"T"}, False),                    # emptied output
    (("T",), ("T2", "T2"), {"T2"}, {"T"}, True),
    (("T", "B"), ("B", "T2"), {"T2"}, {"T"}, True),        # B is no target
]


def test_accurate_change_last1_hand_labeled():
    for orig, pert, hyp, targets, want in LAST1_FIXTURES:
        got = accurate_change_rate(ENTS, [orig], [pert], [hyp], "last1",
                                   [targets])
        assert got == (1.0 if want else 0.0), (orig, pert)


def test_accurate_change_last1_fixture_rate():
    orig = [f[0] for f in LAST1_FIXTURES]
    pert = [f[1] for f in LAST1_FIXTURES]
    hyps = [f[2] for f in LAST1_FIXTURES]
    targets = [f[3] for f in LAST1_FIXTURES]
    want = sum(f[4] for f in LAST1_FIXTURES) / len(LAST1_FIXTURES)
    got = accurate_change_rate(ENTS, orig, pert, hyps, "last1", targets)
    assert got == pytest.approx(want)


def test_accurate_change_only_targets_disqualify():
    # fixture 10 isolated: B survives the edit but only the swapped
    # tail T is a target, so the turn still counts as accurate
    orig, pert, hyp, targets, want = LAST1_FIXTURES[9]
    assert want is True
    got = accurate_change_rate(ENTS, [orig], [pert], [hyp], "last1", [targets])
    assert got == 1.0


def test_accurate_change_all_mode():
    # whole-graph swap: all original entities are targets
    got = accurate_change_rate(ENTS, [("T", "yes")], [("B", "yes")],
                               [{"B", "C"}], "all")
    assert got == 1.0
    got = accurate_change_rate(ENTS, [("T", "B")], [("B", "C")],
                               [{"B", "C"}], "all")
    assert got == 0.0   # B survived the swap


def test_accurate_change_excludes_entity_free_turns():
    got = accurate_change_rate(ENTS, [("x", "y"), ("T",)],
                               [("z",), ("T2",)],
                               [{"T2"}, {"T2"}], "last1",
                               [{"T"}, {"T"}])
    assert got == 1.0   # first turn outside the denominator
    assert accurate_change_rate(ENTS, [("x",)], [("y",)], [{"T"}],
                                "last1", [{"T"}]) is None


def test_accurate_change_errors():
    with pytest.raises(MetricError, match="hypothesis"):
        accurate_change_rate(ENTS, [("T",)], [("T2",)], [None], "last1",
                             [{"T"}])
    with pytest.raises(MetricError, match="target"):
        accurate_change_rate(ENTS, [("T",)], [("T2",)], [{"T2"}], "last1")
    with pytest.raises(MetricError, match="mode"):
        accurate_change_rate(ENTS, [("T",)], [("T2",)], [{"T2"}], "swap")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_accurate_implies_changed(data):
    token = st.sampled_from(list(ENTS) + ["x", "y", "z"])
    orig = tuple(data.draw(st.lists(token, max_size=5)))
    pert = tuple(data.draw(st.lists(token, max_size=5)))
    hyp = frozenset(data.draw(st.sets(st.sampled_from(ENTS), max_size=3)))
    targets = frozenset(data.draw(st.sets(st.sampled_from(ENTS), max_size=3)))
    for mode, tg in (("all", None), ("last1", [targets])):
        rate = accurate_change_rate(ENTS, [orig], [pert], [hyp], mode, tg)
        if rate == 1.0:
            assert tuple(orig) != tuple(pert)


def test_rates_permutation_invariant():
    orig = [f[0] for f in LAST1_FIXTURES]
    pert = [f[1] for f in LAST1_FIXTURES]
    hyps = [f[2] for f in LAST1_FIXTURES]
    targets = [f[3] for f in LAST1_FIXTURES]
    perm = np.random.default_rng(0).permutation(len(orig))
    assert change_rate(orig, pert) == change_rate(
        [orig[i] for i in perm], [pert[i] for i in perm])
    assert accurate_change_rate(ENTS, orig, pert, hyps, "last1", targets) == \
        accurate_change_rate(ENTS, [orig[i] for i in perm],
                             [pert[i] for i in perm],
                             [hyps[i] for i in perm], "last1",
                             [targets[i] for i in perm])


# ---------------------------------------------------------------------------
# Reports end to end


def _tiny_model_and_examples():
    vocab = Vocabulary(generic=("lives", "in", "yes", "where"),
                       entities=("a", "b", "c"), relations=("q", "r"))
    sub = KnowledgeGraph([Triple("a", "q", "b"), Triple("b", "r", "c")])
    model = QadptModel(Hyperparams(hidden_dim=8, embed_dim=6, n_hops=3,
                                   seed=1), vocab)
    exs = []
    for i, (msg, resp) in enumerate([("where a", "b yes"),
                                     ("where b", "c yes"),
                                     ("yes", "yes yes")]):
        t = DialogueTurn(dialogue_id=f"d{i}", turn=0, speaker="s",
                         scene_entities=(), message=tuple(msg.split()),
                         response=tuple(resp.split()))
        exs.append(make_example(t, sub, vocab))
    return model, exs


def test_evaluate_report_round_trip(tmp_path):
    model, exs = _tiny_model_and_examples()
    report = evaluate_report(model, exs, config={"note": "t"})
    assert report.n_turns == 3
    assert report.kind == "qadpt"
    assert report.metrics["ppl"] > 1.0
    assert set(report.metrics["distinct"]) == {"1", "2", "3", "4"}
    assert [name for name, _ in report.metric_rows()] == list(METRIC_NAMES)
    # replay: every scalar is a pure function of the stored turns
    path = tmp_path / "report.json"
    write_json(report.to_dict(), path)
    back = load_report(path)
    assert back.to_dict() == report.to_dict()
    assert back.metric_rows() == report.metric_rows()
    assert recompute_scalars(back) == report.metrics


def _scale(key, factor):
    def edit(blob):
        blob["metrics"][key] *= factor
    return edit


def _halve_first_gold_prob(blob):
    blob["turns"][0]["gold_probs"][0] /= 2


def _keep_only_bleu2(blob):
    blob["metrics"] = {"bleu2": blob["metrics"]["bleu2"]}


def _retype(keys, convert):
    """Store one metric as another JSON type that compares equal in
    Python: an int count as a bool or a float."""
    def edit(blob):
        parent = blob["metrics"]
        for key in keys[:-1]:
            parent = parent[key]
        value = parent[keys[-1]]
        assert type(value) is int and convert(value) == value
        parent[keys[-1]] = convert(value)
    return edit


@pytest.mark.parametrize("edit", [
    _scale("ppl", 1.0 + 1e-12), _scale("bleu2", 2.0),
    lambda blob: blob["metrics"]["distinct"].pop("3"),
    lambda blob: blob["metrics"]["generated_kw"].__setitem__("p_num", 99),
    _halve_first_gold_prob, _keep_only_bleu2,
    _retype(("unreachable_targets",), bool),
    _retype(("kw_generic", "fn"), float),
], ids=("ppl", "bleu2", "distinct_3", "generated_kw_count", "gold_prob",
        "filtered", "unreachable_as_bool", "count_as_float"))
def test_report_whose_metrics_the_turns_do_not_give_is_refused(tmp_path,
                                                              edit):
    model, exs = _tiny_model_and_examples()
    blob = evaluate_report(model, exs).to_dict()
    edit(blob)
    path = tmp_path / "report.json"
    write_json(blob, path)
    with pytest.raises(DataError) as info:
        load_report(path)
    assert str(info.value) == \
        "report.json: metrics differ from those the turn records give"


@pytest.mark.parametrize("field, value, message", [
    ("bleu2", lambda t: 1.0, "bleu2 1.0 is not the one its replies give"),
    ("target_full", lambda t: ("x",) * len(t.target_full),
     "target_full is not its reference plus <eos>"),
    ("target_full", lambda t: t.reference + ("<pad>",),
     "target_full is not its reference plus <eos>"),
])
def test_report_turn_whose_values_its_replies_do_not_give_is_refused(
        tmp_path, field, value, message):
    """Turn 0 is edited and the metrics recomputed from the edited
    turns, so only the per-turn check can refuse the file."""
    model, exs = _tiny_model_and_examples()
    report = evaluate_report(model, exs)
    first = report.turns[0]
    assert first.bleu2 != 1.0
    report.turns[0] = dataclasses.replace(first, **{field: value(first)})
    report.metrics = recompute_scalars(report)
    path = tmp_path / "report.json"
    write_json(report.to_dict(), path)
    with pytest.raises(DataError) as info:
        load_report(path)
    assert str(info.value) == f"report.json: turn 'd0#0': {message}"


def test_report_reads_an_out_of_vocabulary_reference_word_as_unk(tmp_path):
    model, exs = _tiny_model_and_examples()
    turn = DialogueTurn(dialogue_id="oov", turn=0, speaker="s",
                        scene_entities=(), message=("where", "a"),
                        response=("b", "moon"))
    ex = make_example(turn, exs[0].subgraph, model.vocab)
    report = evaluate_report(model, [ex])
    assert report.turns[0].target_full == ("b", "<unk>", "<eos>")
    path = tmp_path / "report.json"
    write_json(report.to_dict(), path)
    assert load_report(path).to_dict() == report.to_dict()


def _drop(key):
    def edit(text):
        blob = json.loads(text)
        del blob[key]
        return json.dumps(blob)
    return edit


def _edit(change):
    def edit(text):
        blob = json.loads(text)
        change(blob)
        return json.dumps(blob)
    return edit


@pytest.mark.parametrize("corrupt, where", [
    (lambda text: text[:len(text) // 2], "report.json: "),
    (lambda text: "not json at all", "report.json: "),
    (lambda text: "[1, 2]", "report.json: expected a JSON object"),
    (_drop("turns"), "report.json: missing key 'turns'"),
    (_drop("entities"), "report.json: missing key 'entities'"),
    (_drop("kind"), "report.json: missing key 'kind'"),
    (lambda text: text.replace('"gold_probs"', '"gold"'),
     "report.json: missing key 'gold_probs'"),
    (_edit(lambda b: b.update(n_turns=999)),
     "report.json: n_turns 999 != 3 turn records"),
    (_edit(lambda b: b.update(kind=5)), "report.json: 'kind' is not a string"),
    (_edit(lambda b: b.update(config=[["note", "t"]])),
     "report.json: 'config' is not an object"),
    (_edit(lambda b: b["turns"][0].update(turn_id=7)),
     "report.json: 'turn_id' is not a string"),
    (_edit(lambda b: b["turns"][0].update(unreachable="0")),
     "report.json: 'unreachable' is not an integer"),
    (_edit(lambda b: b["turns"][0]["paths"].append(
        {"start": 3, "triples": [], "probability": 1.0})),
     "report.json: 'start' is not a string"),
    (_edit(lambda b: b["turns"][0]["paths"].append(
        {"start": "a", "triples": [["a", "q"], 5], "probability": 1.0})),
     "report.json: 'triples' is not a list of lists of strings"),
    (_edit(lambda b: b.update(note="t")), "report.json: undeclared key 'note'"),
    (_edit(lambda b: b["turns"][0].update(extra=[])),
     "report.json: undeclared key 'extra'"),
    (lambda text: "[" * 100_000, "report.json: maximum recursion depth"),
], ids=("truncated", "not_json", "not_object", "no_turns", "no_entities",
        "no_kind", "bad_turn", "n_turns", "kind_type", "config_pairs",
        "turn_id_type", "unreachable_type", "path_start_type",
        "path_triples_type", "undeclared_key", "undeclared_turn_key",
        "deep"))
def test_malformed_report_raises_data_error(tmp_path, corrupt, where):
    model, exs = _tiny_model_and_examples()
    path = tmp_path / "report.json"
    write_json(evaluate_report(model, exs).to_dict(), path)
    path.write_text(corrupt(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_report(path)
    assert str(info.value).startswith(where)


def test_evaluate_report_f1_identity_from_counts():
    model, exs = _tiny_model_and_examples()
    report = evaluate_report(model, exs)
    for group in ("kw_generic", "generated_kw"):
        m = report.metrics[group]
        p, r = m["precision"], m["recall"]
        if p is not None and r is not None and p + r > 0:
            assert m["f1"] == 2 * p * r / (p + r)


def test_evaluate_report_csv(tmp_path):
    model, exs = _tiny_model_and_examples()
    report = evaluate_report(model, exs)
    path = tmp_path / "metrics.csv"
    report.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    names = [l.split(",")[0] for l in lines[1:]]
    assert "kw_acc" in names and "bleu2" in names and "distinct_4" in names


def _rows_then_disk_full():
    yield ("ppl", 1.0)
    raise OSError("disk full")


def _break_json(report):
    report.config = {"unencodable": object()}   # json.dump fails after turns


def _break_csv(report):
    report.metric_rows = _rows_then_disk_full


def _eval_report():
    model, exs = _tiny_model_and_examples()
    return evaluate_report(model, exs)


def _perturb_report():
    return perturbation_report(
        ENTS, [_pt("t0", ("T",), ("T2",), {"T2"}, {"T"})], "last1")


def _write_report(report, path):
    write_json(report.to_dict(), path)


@pytest.mark.parametrize("name, make, save, break_report", [
    ("report.json", _eval_report, _write_report, _break_json),
    ("metrics.csv", _eval_report, EvalReport.save_csv, _break_csv),
    ("perturb.json", _perturb_report, _write_report, _break_json),
], ids=("report_json", "metrics_csv", "perturb_json"))
def test_failed_save_keeps_previous_file(tmp_path, name, make, save,
                                         break_report):
    report = make()
    path = tmp_path / name
    save(report, path)
    before = path.read_bytes()
    break_report(report)
    with pytest.raises((TypeError, OSError)):
        save(report, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_evaluate_report_bleu_scaled_by_100():
    model, exs = _tiny_model_and_examples()
    report = evaluate_report(model, exs)
    per_turn = [t.bleu2 for t in report.turns]
    assert report.metrics["bleu2"] == \
        pytest.approx(100.0 * float(np.mean(per_turn)))


def test_evaluate_report_empty_errors():
    model, _ = _tiny_model_and_examples()
    with pytest.raises(MetricError):
        evaluate_report(model, [])


def _pt(tid, orig, pert, hyp=frozenset(), removed=frozenset(), skipped=False):
    """A perturbed turn whose tail edit replaced each `removed` tail."""
    edit = None if skipped else PerturbationResult(
        graph=KnowledgeGraph(), hypothesis=frozenset(hyp),
        edits=tuple((Triple("h", "r", t), Triple("h", "r", f"{t}'"))
                    for t in sorted(removed)))
    return PerturbedTurn(turn_id=tid, original_tokens=tuple(orig),
                         perturbed_tokens=tuple(pert), edit=edit)


def test_perturbation_report_rates_and_skips():
    runs = [
        _pt("t0", ("T", "yes"), ("T2", "yes"), {"T2"}, {"T"}),
        _pt("t1", ("T", "yes"), ("T", "yes"), {"T2"}, {"T"}),
        _pt("t2", ("x",), ("x",), skipped=True),
    ]
    rep = perturbation_report(ENTS, runs, "last1")
    assert rep.n_turns == 2 and rep.n_skipped == 1
    assert rep.change_rate == 0.5
    assert rep.accurate_change_rate == 0.5
    flags = {t.turn_id: (t.changed, t.accurate, t.skipped) for t in rep.turns}
    assert flags["t0"] == (True, True, False)
    assert flags["t1"] == (False, False, False)
    assert flags["t2"] == (None, None, True)


def test_perturbation_report_all_skipped():
    runs = [_pt("t0", ("x",), ("x",), skipped=True)]
    rep = perturbation_report(ENTS, runs, "last1")
    assert rep.change_rate is None
    assert rep.accurate_change_rate is None
    assert rep.n_turns == 0


def test_perturbation_report_serializes(tmp_path):
    runs = [_pt("t0", ("T",), ("T2",), {"T2"}, {"T"})]
    rep = perturbation_report(ENTS, runs, "last1", config={"seed": 3})
    path = tmp_path / "perturb.json"
    write_json(rep.to_dict(), path)
    import json
    blob = json.loads(path.read_text())
    assert blob["mode"] == "last1"
    assert blob["turns"][0]["accurate"] is True
    assert blob["config"] == {"seed": 3}


def test_perturbation_report_targets_are_the_replaced_tails():
    edit = PerturbationResult(
        graph=KnowledgeGraph(), hypothesis=frozenset({"T2"}),
        edits=((Triple("A", "r", "B"), Triple("A", "r", "C")),
               (Triple("B", "s", "T"), Triple("C", "s", "T2"))))
    run = PerturbedTurn(turn_id="t0", original_tokens=("T", "B"),
                        perturbed_tokens=("T2",), edit=edit)
    (turn,) = perturbation_report(ENTS, [run], "last2").turns
    assert turn.targets == ("B", "T")
    assert turn.hypothesis == ("T2",)
    assert (turn.changed, turn.accurate) == (True, True)


def test_perturbation_report_from_real_run():
    model, exs = _tiny_model_and_examples()
    runs = perturb_and_decode(model, exs, "last1", seed=5)
    rep = perturbation_report(model.vocab.entities, runs, "last1")
    # accurate implies changed on every live turn
    for t in rep.turns:
        if t.accurate:
            assert t.changed
    assert rep.n_turns + rep.n_skipped == len(exs)



def _hand_perturb_report():
    """A last1 report with a skipped turn and an unscored (None) flag."""
    runs = [_pt("t0", ("T", "yes"), ("T2", "yes"), {"T2"}, {"T"}),
            _pt("t1", ("yes",), ("no",), {"T2"}, {"D"}),
            _pt("t2", ("x",), ("x",), skipped=True)]
    return perturbation_report(ENTS, runs, "last1", config={"seed": 3})


@pytest.mark.parametrize("mode", ["all", "last1", "last2"])
def test_perturb_report_round_trip(tmp_path, mode):
    model, exs = _tiny_model_and_examples()
    runs = perturb_and_decode(model, exs, mode, seed=5)
    for rep in (perturbation_report(model.vocab.entities, runs, mode,
                                    config={"mode": mode, "seed": 5}),
                _hand_perturb_report()):
        path = tmp_path / "perturb.json"
        write_json(rep.to_dict(), path)
        back = load_perturb_report(path)
        assert back == rep
        assert back.to_dict() == rep.to_dict()


def _set_turn(key, value):
    return _edit(lambda b: b["turns"][0].update({key: value}))


_SCALARS_DIFFER = "counts or rates differ from those the turn records give"


@pytest.mark.parametrize("corrupt, where", [
    (lambda text: text[:len(text) // 2], "perturb.json: "),
    (lambda text: "not json at all", "perturb.json: "),
    (lambda text: "[1, 2]", "perturb.json: expected a JSON object"),
    (_drop("turns"), "perturb.json: missing key 'turns'"),
    (_drop("mode"), "perturb.json: missing key 'mode'"),
    (_edit(lambda b: b.update(mode=5)), "'mode' is not a string"),
    (_edit(lambda b: b.update(mode="swap")), "unknown perturbation mode"),
    (_edit(lambda b: b.update(n_turns="2")), "'n_turns' is not an integer"),
    (_edit(lambda b: b.update(n_skipped=True)),
     "'n_skipped' is not an integer"),
    (_edit(lambda b: b.update(n_skipped=5)), "n_skipped 5 != 3 turn records"),
    (_edit(lambda b: b.update(change_rate="0.5")),
     "'change_rate' is not null or a number"),
    (_edit(lambda b: b.update(config=[])), "'config' is not an object"),
    (_edit(lambda b: b["turns"].insert(0, 5)),
     "'turns' is not a list of objects"),
    (_edit(lambda b: b["turns"][0].pop("accurate")),
     "perturb.json: missing key 'accurate'"),
    (_set_turn("skipped", "no"), "'skipped' is not a boolean"),
    (_set_turn("changed", 1), "'changed' is not null or a boolean"),
    (_set_turn("original", ["T", 2]), "'original' is not a list of strings"),
    (_set_turn("turn_id", None), "'turn_id' is not a string"),
    # counts, rates and flags the turn records do not give
    (_edit(lambda b: b.update(change_rate=0.5)), _SCALARS_DIFFER),
    (_edit(lambda b: b.update(accurate_change_rate=0.5)), _SCALARS_DIFFER),
    (_edit(lambda b: b.update(n_turns=1, n_skipped=2)), _SCALARS_DIFFER),
    (_edit(lambda b: b["turns"][1].update(changed=False)),
     "turn 't1': changed False, accurate None disagree with its replies"),
    (_edit(lambda b: b["turns"][2].update(changed=False)),
     "turn 't2': changed False, accurate None disagree with its replies"),
    (_edit(lambda b: b["turns"][2].update(accurate=False)),
     "turn 't2': changed None, accurate False disagree with its replies"),
    (_edit(lambda b: b["turns"][1].update(perturbed=["yes"], changed=False,
                                           accurate=True)),
     "turn 't1': changed False, accurate True disagree with its replies"),
    (lambda text: "[" * 100_000, "perturb.json: maximum recursion depth"),
], ids=("truncated", "not_json", "not_object", "no_turns", "no_mode",
        "mode_type", "mode_value", "n_turns_type", "n_skipped_bool",
        "counts", "rate_type", "config_type", "turn_not_object",
        "turn_missing_key", "skipped_type", "changed_type", "tokens_type",
        "turn_id_type", "change_rate", "accurate_change_rate",
        "counts_shifted", "changed_flipped", "skipped_changed",
        "skipped_accurate", "accurate_unchanged", "deep"))
def test_malformed_perturb_report_raises_data_error(tmp_path, corrupt, where):
    path = tmp_path / "perturb.json"
    write_json(_hand_perturb_report().to_dict(), path)
    path.write_text(corrupt(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_perturb_report(path)
    assert str(info.value).startswith("perturb.json: ")
    assert where in str(info.value)
