"""The JSON codec every record the program reads back shares
(`corpus.JsonRecord`): each record class survives a JSON round trip,
refuses a key it does not declare, and a written file with one value
swapped for a value of another JSON type either loads the same record
or is refused with DataError (CheckpointError for a checkpoint header,
resealed under a valid digest)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import checkpoint_parts, seal_checkpoint
from test_metrics import _hand_perturb_report, _tiny_model_and_examples

from kgchat.corpus import (DataError, JsonRecord, SplitAssignment,
                           SyntheticConfig, Vocabulary, generate_synthetic,
                           ingest, load_bundle, save_bundle, write_json)
from kgchat.metrics import (EvalReport, PerturbReport, PerturbTurnEval,
                            TurnEval, evaluate_report, load_perturb_report,
                            load_report, perturbation_report)
from kgchat.qadpt import (CheckpointError, CheckpointHeader, Hyperparams,
                          InferredPath, load_checkpoint, perturb_and_decode,
                          save_checkpoint)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One record of every JsonRecord class, and the directory holding
    the files the program writes for them."""
    out = tmp_path_factory.mktemp("records")
    syn = generate_synthetic(SyntheticConfig(n_people=8, n_places=4, n_jobs=3,
                                             n_turns=200), seed=5)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    save_bundle(bundle, out)
    model, exs = _tiny_model_and_examples()
    model.params["phi_b"][0] = 5.0   # emit entities, so turns hold paths
    report = evaluate_report(model, exs, config={"note": "t"})
    write_json(report.to_dict(), out / "report.json")
    perturb = perturbation_report(
        model.vocab.entities, perturb_and_decode(model, exs, "last1", seed=5),
        "last1", config={"seed": 5})
    write_json(perturb.to_dict(), out / "perturb.json")
    save_checkpoint(model, out / "model.ckpt")
    hand = _hand_perturb_report()
    records = {
        Vocabulary: bundle.vocab, SplitAssignment: bundle.splits,
        Hyperparams: Hyperparams(hidden_dim=8, lr=0.5),
        CheckpointHeader: CheckpointHeader(model.hyper, model.vocab),
        InferredPath: next(p for t in report.turns for p in t.paths),
        TurnEval: next(t for t in report.turns if t.paths),
        EvalReport: report, PerturbTurnEval: hand.turns[1],
        PerturbReport: hand,
    }
    return out, records


_CLASSES = (Vocabulary, SplitAssignment, Hyperparams, CheckpointHeader,
            InferredPath, TurnEval, EvalReport, PerturbTurnEval, PerturbReport)


def test_every_record_class_is_exercised():
    assert set(JsonRecord.__subclasses__()) == set(_CLASSES)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_record_json_round_trip(written, cls):
    record = written[1][cls]
    back = cls.from_dict(json.loads(json.dumps(record.to_dict())))
    assert back == record
    assert back.to_dict() == record.to_dict()


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_record_refuses_an_undeclared_key(written, cls):
    blob = json.loads(json.dumps(written[1][cls].to_dict()))
    blob["extra"] = 1
    with pytest.raises(ValueError, match="undeclared key 'extra'"):
        cls.from_dict(blob)


def _json_kind(value) -> str:
    # JSON has one number type: an integer and a float are one kind
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(value)]


_VALUES = {
    "null": st.none(), "boolean": st.booleans(),
    "number": st.integers(-2, 2) | st.floats(-2, 2),
    "string": st.text(max_size=3),
    "list": st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(-2, 2),
                              max_size=2),
}


def _value_paths(blob, path=()):
    """The key path of every value in `blob`, `blob` itself first. The
    values inside a `config` object are free-form and left out."""
    yield path
    if path[-1:] == ("config",):
        return
    items = (blob.items() if isinstance(blob, dict)
             else enumerate(blob) if isinstance(blob, list) else ())
    for key, value in items:
        yield from _value_paths(value, path + (key,))


def _swapped(blob, path, value):
    if not path:
        return value
    blob = json.loads(json.dumps(blob))
    parent = blob
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return blob


def _checkpoint_header(path) -> CheckpointHeader:
    model = load_checkpoint(path)
    return CheckpointHeader(model.hyper, model.vocab)


_LOADERS = {
    "report.json": load_report,
    "perturb.json": load_perturb_report,
    "vocab.json": lambda path: load_bundle(path.parent).vocab,
    "splits.json": lambda path: load_bundle(path.parent).splits,
    "model.ckpt": _checkpoint_header,
}


def _read_json(path):
    if path.suffix == ".ckpt":
        return checkpoint_parts(path)[0]
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path, blob) -> None:
    if path.suffix == ".ckpt":   # the payload kept, the digest resealed
        seal_checkpoint(path, blob, checkpoint_parts(path)[1])
    else:
        path.write_text(json.dumps(blob), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(_LOADERS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_type_swapped_file_loads_the_same_record_or_is_refused(written, name,
                                                               data):
    out, _ = written
    path = out / name
    saved = path.read_bytes()
    blob = _read_json(path)
    want = _LOADERS[name](path)
    where = data.draw(st.sampled_from(list(_value_paths(blob))), label="path")
    old = blob
    for key in where:
        old = old[key]
    kind = data.draw(st.sampled_from(
        sorted(k for k in _VALUES if k != _json_kind(old))), label="kind")
    new = data.draw(_VALUES[kind], label="value")
    _write_json(path, _swapped(blob, where, new))
    try:
        got = _LOADERS[name](path)
    except (DataError, CheckpointError):
        return
    finally:
        path.write_bytes(saved)
    # equal, and written back as the same JSON: false is not 0
    assert got == want
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
