import dataclasses
import hashlib
import json
import re
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import eager_subgraphs, save_dialogues_jsonl, save_lexicon
from test_metrics import _edit

from kgchat import cli, corpus, kgraph, qadpt
from kgchat.corpus import (
    BOS_ID, EOS_ID, KB_ID, PAD_ID, UNK_ID, SPECIALS,
    Bundle, CorpusStats, DataError, DialogueTurn, RawTurn, SplitAssignment,
    SyntheticConfig, Vocabulary, build_vocab, compare_stats, corpus_stats,
    detokenize, generate_synthetic, ingest, load_bundle, load_dialogues_jsonl,
    load_lexicon, save_bundle, split_dialogues, tokenize,
)
from kgchat.kgraph import KnowledgeGraph, Triple


# ---------------------------------------------------------------------------
# tokenize / detokenize


def test_word_mode_splits_and_detaches_punctuation():
    assert tokenize("hello, world!") == ["hello", ",", "world", "!"]


def test_word_mode_entity_single_token():
    lex = {"New York": "New_York"}
    assert tokenize("I love New York!", "word", lex) == \
        ["I", "love", "New_York", "!"]


def test_word_mode_longest_match_wins():
    lex = {"New York": "NY", "New York City": "NYC"}
    assert tokenize("in New York City today", "word", lex) == \
        ["in", "NYC", "today"]


def test_word_mode_respects_boundaries():
    lex = {"Ava": "Ava"}
    assert tokenize("Avalanche hit Ava hard", "word", lex) == \
        ["Avalanche", "hit", "Ava", "hard"]


def test_word_mode_underscores_and_digits_are_word_chars():
    assert tokenize("foo_bar2 baz") == ["foo_bar2", "baz"]


def test_char_mode_one_token_per_char():
    assert tokenize("皇上駕到", "char") == ["皇", "上", "駕", "到"]


def test_char_mode_entity_matched_midstring():
    lex = {"皇上": "emperor"}
    assert tokenize("見皇上了", "char", lex) == ["見", "emperor", "了"]


def test_char_mode_skips_whitespace():
    assert tokenize("a b", "char") == ["a", "b"]


def test_char_mode_multiword_surface_still_matches():
    lex = {"New York": "NY"}
    assert tokenize("x New York y", "char", lex) == ["x", "NY", "y"]


def test_unknown_mode_rejected():
    with pytest.raises(DataError, match="mode"):
        tokenize("x", "sentencepiece")


def test_empty_surface_rejected():
    with pytest.raises(DataError, match="empty surface"):
        tokenize("x", "word", {"": "e"})


def test_detokenize_modes():
    assert detokenize(["a", "b"], "word") == "a b"
    assert detokenize(["皇", "上"], "char") == "皇上"


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
@settings(max_examples=120)
def test_word_tokens_never_contain_whitespace(text):
    for tok in tokenize(text):
        assert tok and not any(c.isspace() for c in tok)


# ---------------------------------------------------------------------------
# lexicon files


def test_lexicon_round_trip(tmp_path):
    lex = {"New York": "NY", "皇上": "emperor"}
    path = tmp_path / "aliases.tsv"
    save_lexicon(lex, path)
    assert load_lexicon(path) == lex


def test_lexicon_bad_line_reports_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\nbroken line\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_lexicon(path)


def test_lexicon_conflicting_surface(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("a\tX\na\tY\n", encoding="utf-8")
    with pytest.raises(DataError, match="two canonicals"):
        load_lexicon(path)


# ---------------------------------------------------------------------------
# Vocabulary


def _vocab():
    return Vocabulary(generic=("the", "a", "cat"), entities=("Ava", "Ben"),
                      relations=("friend_of",))


def test_special_ids_fixed():
    v = _vocab()
    assert [v.token_to_id(s) for s in SPECIALS] == [0, 1, 2, 3, 4]
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID, KB_ID) == (0, 1, 2, 3, 4)


def test_id_layout_entities_on_top():
    v = _vocab()
    assert v.size == 5 + 3 + 2
    assert v.entity_base == 8
    assert v.token_to_id("the") == 5
    assert v.token_to_id("Ava") == 8
    assert v.token_to_id("Ben") == 9
    assert v.id_to_token[8] == "Ava"


def test_unknown_token_maps_to_unk():
    assert _vocab().token_to_id("zzz") == UNK_ID


def test_entity_predicates():
    v = _vocab()
    assert v.is_entity_id(8) and v.is_entity_id(9)
    assert not v.is_entity_id(7) and not v.is_entity_id(0)
    assert 9 - v.entity_base == 1
    assert not v.is_entity_id(5)


def test_entity_tokens_are_the_tokens_of_the_entity_id_block():
    syn = generate_synthetic(SyntheticConfig(n_turns=200), seed=2)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    vocab = bundle.vocab

    def by_id(tokens):
        return tuple(t for t in tokens
                     if vocab.token_to_id(t) >= vocab.entity_base)

    for t in bundle.turns:
        sources, targets = t.grounding(vocab.entity_set)
        assert sources == set(by_id(t.message)) | set(t.scene_entities)
        assert targets == set(by_id(t.response))


def test_generic_output_block_layout():
    v = _vocab()
    ids = v.generic_output_ids
    # KB first, then EOS and UNK, then the generic words in vocab order
    assert list(ids) == [KB_ID, EOS_ID, UNK_ID, 5, 6, 7]
    assert v.generic_output_size == len(ids) == 3 + 3
    assert PAD_ID not in set(ids) and BOS_ID not in set(ids)


def test_vocab_rejects_overlap():
    with pytest.raises(DataError, match="overlap"):
        Vocabulary(generic=("Ava",), entities=("Ava",), relations=())
    with pytest.raises(DataError, match="special"):
        Vocabulary(generic=("<eos>",), entities=(), relations=())


def test_vocab_dict_round_trip():
    v = _vocab()
    assert Vocabulary.from_dict(v.to_dict()) == v


def _turn(did, i, msg, resp, speaker="a", scene=()):
    return DialogueTurn(dialogue_id=did, turn=i, speaker=speaker,
                        scene_entities=tuple(scene),
                        message=tuple(msg.split()), response=tuple(resp.split()))


def test_build_vocab_counts_and_min_count():
    turns = [_turn("d0", 0, "the cat sat", "the cat ran"),
             _turn("d0", 1, "a dog", "the end")]
    v = build_vocab(turns, min_count=2, entities=["Ava"], relations=["r"])
    assert v.generic == ("the", "cat")  # the:3 cat:2, sorted by (-count, token)
    assert v.counts == (3, 2)
    assert v.entities == ("Ava",)
    assert v.token_to_id("dog") == UNK_ID


def test_build_vocab_excludes_entities_from_generic():
    turns = [_turn("d0", 0, "Ava Ava Ava", "ok")]
    v = build_vocab(turns, min_count=1, entities=["Ava"], relations=[])
    assert "Ava" not in v.generic and "Ava" in v.entities


def test_build_vocab_empty_rejected():
    with pytest.raises(DataError):
        build_vocab([], 1, [], [])


# ---------------------------------------------------------------------------
# splits


def _rows(n, speakers=("alice",), turns=5):
    out = []
    for i in range(n):
        out.append((f"d{i:03d}", speakers[i % len(speakers)], turns))
    return out


def test_split_requires_twenty_dialogues():
    with pytest.raises(DataError, match="at least 20"):
        split_dialogues(_rows(19))


def test_split_rejects_duplicates():
    rows = _rows(20)
    rows[1] = rows[0]
    with pytest.raises(DataError, match="duplicate"):
        split_dialogues(rows)


def test_split_partitions_everything():
    rows = _rows(40, speakers=("a", "b", "c"))
    sp = split_dialogues(rows, seed=3)
    all_ids = set(sp.train) | set(sp.valid) | set(sp.test)
    assert all_ids == {r[0] for r in rows}
    assert len(sp.train) + len(sp.valid) + len(sp.test) == 40


def test_split_ratios_close():
    sp = split_dialogues(_rows(200), seed=1)
    assert abs(len(sp.train) / 200 - 0.85) < 0.02
    assert abs(len(sp.valid) / 200 - 0.05) < 0.02
    assert abs(len(sp.test) / 200 - 0.10) < 0.02


def test_split_speaker_shares_tracked_per_split():
    # 120 dialogues over three speakers with unequal turn mass; each
    # speaker's dialogues should land in every split near 85/5/10
    rows = []
    for i in range(60):
        rows.append((f"a{i}", "alice", 8))
    for i in range(40):
        rows.append((f"b{i}", "bob", 5))
    for i in range(20):
        rows.append((f"c{i}", "carol", 3))
    sp = split_dialogues(rows, seed=7)
    for prefix, group_n in (("a", 60), ("b", 40), ("c", 20)):
        in_train = sum(1 for d in sp.train if d.startswith(prefix))
        assert abs(in_train / group_n - 0.85) <= 0.10


def test_split_deterministic_and_seed_sensitive():
    rows = _rows(60, speakers=("a", "b"))
    s1 = split_dialogues(rows, seed=5)
    s2 = split_dialogues(rows, seed=5)
    s3 = split_dialogues(rows, seed=6)
    assert s1 == s2
    assert s1.train != s3.train


def test_split_round_trip():
    sp = split_dialogues(_rows(25), seed=0)
    assert SplitAssignment.from_dict(sp.to_dict()) == sp


# ---------------------------------------------------------------------------
# raw dialogue files


def _raw(did, i, msg, resp, scene=()):
    return RawTurn(dialogue_id=did, turn=i, speaker="s", scene_entities=tuple(scene),
                   message=msg, response=resp)


def test_dialogues_jsonl_round_trip(tmp_path):
    turns = [_raw("d0", 0, "hi there", "hello", scene=("Ava",)),
             _raw("d0", 1, "bye", "later")]
    path = tmp_path / "d.jsonl"
    save_dialogues_jsonl(turns, path)
    assert load_dialogues_jsonl(path) == turns


def test_dialogues_jsonl_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"dialogue_id": "d"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_dialogues_jsonl(path)


def test_dialogues_jsonl_requires_scene_entities(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = {"dialogue_id": "d", "turn": 0, "speaker": "s", "message": "m",
           "response": "r"}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"missing keys \['scene_entities'\]"):
        load_dialogues_jsonl(path)


def test_dialogues_jsonl_bad_types(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = {"dialogue_id": "d", "turn": "0", "speaker": "s",
           "scene_entities": [], "message": "m", "response": "r"}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="turn must be an integer"):
        load_dialogues_jsonl(path)


@pytest.mark.parametrize("key, value, why", [
    ("message", ["where", "is", "Ava"], "message must be a string"),
    ("speaker", None, "speaker must be a string"),
    ("response", 42, "response must be a string"),
    ("scene_entities", [3], "scene_entities must be a list of strings"),
    ("scene_entities", "Ava", "scene_entities must be a list"),
], ids=("message_list", "speaker_null", "response_number", "scene_number",
        "scene_string"))
def test_dialogues_jsonl_refuses_non_string_text(tmp_path, key, value, why):
    row = {"dialogue_id": 7, "turn": 0, "speaker": "s", "scene_entities": [],
           "message": "m", "response": "r"}
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert load_dialogues_jsonl(path)[0].dialogue_id == "7"
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, key: value})
                    + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"line 2: {why}"):
        load_dialogues_jsonl(path)


def test_dialogues_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="no turns"):
        load_dialogues_jsonl(path)


# ---------------------------------------------------------------------------
# ingest + bundle round trip


def _chain_graph():
    return KnowledgeGraph([
        Triple("Ava", "friend_of", "Ben"),
        Triple("Ben", "lives_in", "Lakeview"),
        Triple("Ava", "lives_in", "Hillcrest"),
        Triple("Ben", "friend_of", "Cora"),
    ])


def _raw_corpus(n_dialogues=22):
    turns = []
    for i in range(n_dialogues):
        did = f"d{i:02d}"
        speaker = "alice" if i % 2 == 0 else "bob"
        turns.append(RawTurn(did, 0, speaker, (), "where does Ava live ?",
                             "Ava lives in Hillcrest ."))
        turns.append(RawTurn(did, 1, speaker, ("Ava",),
                             "and the friend of Ava ?",
                             "Ben lives in Lakeview ."))
    return turns


def test_ingest_tokenizes_and_attaches_subgraphs():
    bundle = ingest(_raw_corpus(), _chain_graph(), split_seed=0)
    t0 = bundle.turns[0]
    assert t0.message == ("where", "does", "Ava", "live", "?")
    assert t0.response == ("Ava", "lives", "in", "Hillcrest", ".")
    sub = bundle.subgraph_for(t0)
    assert Triple("Ava", "lives_in", "Hillcrest") in sub.triples
    # second turn's subgraph covers Ava->Ben and Ben->Lakeview hops
    t1 = bundle.turns[1]
    sub1 = bundle.subgraph_for(t1)
    assert Triple("Ava", "friend_of", "Ben") in sub1.triples
    assert Triple("Ben", "lives_in", "Lakeview") in sub1.triples


def test_ingest_vocab_from_train_only():
    raw = _raw_corpus()
    bundle = ingest(raw, _chain_graph(), split_seed=0)
    non_train = set(bundle.splits.valid) | set(bundle.splits.test)
    assert non_train  # split produced holdout dialogues
    # every generic word must be attested in the training split
    train_tokens = set()
    for t in bundle.split_turns("train"):
        train_tokens.update(t.message)
        train_tokens.update(t.response)
    assert set(bundle.vocab.generic) <= train_tokens


def test_ingest_drops_unknown_scene_entities(tmp_path, capsys):
    raw = [RawTurn(f"d{i}", 0, "s", ("Ghost",), "hi", "ho") for i in range(22)]
    bundle = ingest(raw, _chain_graph())
    assert bundle.turns[0].scene_entities == ()
    assert bundle.meta["dropped_scene_entities"] == 22
    # `kgchat ingest` says so
    save_dialogues_jsonl(raw, tmp_path / "dialogues.jsonl")
    kgraph.save_triples_tsv(_chain_graph(), tmp_path / "graph.tsv")
    assert cli.main(["ingest", "--dialogues", str(tmp_path / "dialogues.jsonl"),
                     "--kg", str(tmp_path / "graph.tsv"),
                     "--out", str(tmp_path / "bundle")]) == 0
    out = capsys.readouterr().out
    assert "dropped 22 scene entities not in the graph\n" in out


def test_ingest_rejects_alias_to_unknown_entity():
    with pytest.raises(DataError, match="unknown entity"):
        ingest(_raw_corpus(), _chain_graph(), lexicon={"Joe": "Nobody"})


def test_ingest_alias_folds_to_canonical():
    raw = _raw_corpus()
    raw[0] = RawTurn("d00", 0, "alice", (), "where does miss A live ?",
                     "Ava lives in Hillcrest .")
    bundle = ingest(raw, _chain_graph(), lexicon={"miss A": "Ava"})
    assert bundle.turns[0].message == ("where", "does", "Ava", "live", "?")


def test_bundle_round_trip(tmp_path):
    bundle = ingest(_raw_corpus(), _chain_graph(), lexicon={"miss A": "Ava"},
                    split_seed=3)
    save_bundle(bundle, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert back.turns == bundle.turns
    assert back.vocab == bundle.vocab
    assert back.graph == bundle.graph
    assert back.splits == bundle.splits
    assert set(back.subgraphs) == set(bundle.subgraphs)
    for tid in bundle.subgraphs:
        assert back.subgraphs[tid] == bundle.subgraphs[tid]
    assert back.meta == bundle.meta


def test_load_bundle_keeps_the_graphs_isolated_entities(tmp_path):
    """graph.tsv holds triples only; the reloaded graph takes the
    entities without one from vocab.json, so it equals the ingested
    graph. In this world Eastwood has no triple."""
    syn = generate_synthetic(SyntheticConfig(n_turns=1000), seed=1)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    linked = {e for t in bundle.graph.triples for e in (t.head, t.tail)}
    assert "Eastwood" in bundle.graph.entities - linked
    save_bundle(bundle, tmp_path)
    back = load_bundle(tmp_path)
    assert back.graph == bundle.graph
    assert back.graph.entities == bundle.graph.entities


def test_ingest_refuses_a_repeated_turn_id():
    """Two raw turns with one (dialogue_id, turn) share a turn id, and a
    turn id names one subgraph: the first turn would be grounded on the
    second's graph."""
    syn = generate_synthetic(SyntheticConfig(n_turns=200), seed=2)
    raw = list(syn.raw_turns)
    first = raw[0]
    other = next(t for t in raw if t.message != first.message)
    raw.append(dataclasses.replace(other, dialogue_id=first.dialogue_id,
                                   turn=first.turn))
    with pytest.raises(DataError, match=re.escape(
            f"repeated turn id '{first.dialogue_id}#{first.turn}' "
            f"(dialogue_id '{first.dialogue_id}', turn {first.turn})")):
        ingest(raw, syn.graph, syn.lexicon)


def test_load_bundle_refuses_a_repeated_turn_id(tmp_path, synth_bundle_dir):
    shutil.copytree(synth_bundle_dir, tmp_path / "b")
    path = tmp_path / "b" / "turns.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[5])
    row["message"] = ["hello"]
    path.write_text("".join(lines) + json.dumps(row) + "\n", encoding="utf-8")
    tid = f"{row['dialogue_id']}#{row['turn']}"
    with pytest.raises(DataError,
                       match=f"turns.jsonl: repeated turn id {tid!r}"):
        load_bundle(tmp_path / "b")


# ---------------------------------------------------------------------------
# lazy subgraph rows

BUNDLE_FILES = ("turns.jsonl", "vocab.json", "graph.tsv", "subgraphs.jsonl",
                "splits.json", "meta.json")


@pytest.fixture(scope="module")
def synth_bundle_dir(tmp_path_factory):
    syn = generate_synthetic(SyntheticConfig(n_turns=300), seed=4)
    out = tmp_path_factory.mktemp("synth_bundle")
    save_bundle(ingest(syn.raw_turns, syn.graph, syn.lexicon), out)
    return out


def _subgraph_lines(bundle_dir) -> list:
    return (bundle_dir / "subgraphs.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)


def _bundle_with_subgraph_lines(src, dst, lines):
    shutil.copytree(src, dst)
    (dst / "subgraphs.jsonl").write_text("".join(lines), encoding="utf-8")
    return dst


def test_lazy_subgraphs_equal_the_eager_rows(synth_bundle_dir):
    eager = eager_subgraphs(synth_bundle_dir / "subgraphs.jsonl")
    lazy = load_bundle(synth_bundle_dir).subgraphs
    assert list(lazy) == list(eager)
    for tid, graph in eager.items():
        assert lazy[tid] == graph
        assert lazy[tid] is lazy[tid]


def test_saving_a_loaded_bundle_reproduces_its_bytes(tmp_path,
                                                     synth_bundle_dir):
    save_bundle(load_bundle(synth_bundle_dir), tmp_path)
    for name in BUNDLE_FILES:
        assert ((tmp_path / name).read_bytes() ==
                (synth_bundle_dir / name).read_bytes()), name


def test_subgraph_rows_read_as_a_mapping_of_graphs(synth_bundle_dir):
    eager = eager_subgraphs(synth_bundle_dir / "subgraphs.jsonl")
    rows = load_bundle(synth_bundle_dir).subgraphs
    tid = next(iter(eager))
    assert tid in rows and "nobody#0" not in rows
    assert len(rows) == len(eager)
    assert rows.get(tid) == eager[tid]
    assert rows.get("nobody#0") is None
    assert all(isinstance(g, KnowledgeGraph) for g in rows.values())
    assert all(isinstance(g, KnowledgeGraph) for _, g in rows.items())
    assert dict(rows.items()) == eager
    assert rows == eager and eager == rows
    assert load_bundle(synth_bundle_dir).subgraphs == rows
    with pytest.raises(TypeError):
        rows[tid] = eager[tid]


def test_load_bundle_builds_a_turn_graph_on_first_read(monkeypatch,
                                                       synth_bundle_dir):
    built = []

    class Counted(KnowledgeGraph):
        # every graph, checked or built from trusted triples, is set once
        __slots__ = ()

        def _set(self, *args):
            built.append(None)
            super()._set(*args)

    monkeypatch.setattr(kgraph, "KnowledgeGraph", Counted)
    monkeypatch.setattr(corpus, "KnowledgeGraph", Counted)
    bundle = load_bundle(synth_bundle_dir)
    assert len(built) == 1  # the global graph
    turns = bundle.split_turns("test")
    assert turns and all(t.turn_id in bundle.subgraphs for t in turns)
    assert len(built) == 1
    qadpt.make_examples(bundle, turns)
    assert len(built) == 1 + len(turns)
    qadpt.make_examples(bundle, turns)
    assert len(built) == 1 + len(turns)


@pytest.mark.parametrize("row, why", [
    ('{"triples": [], "turn_id": "syn00000#0"}\n', "expected a row starting"),
    ('{"turn_id": "syn00000#0\n', "Invalid control character"),
    (b'{"turn_id": "\xff"}\n', "'utf-8' codec can't decode"),
], ids=("key_order", "unterminated_id", "not_utf8"))
def test_unindexable_subgraph_row_fails_at_load(tmp_path, synth_bundle_dir,
                                                row, why):
    path = tmp_path / "b" / "subgraphs.jsonl"
    shutil.copytree(synth_bundle_dir, tmp_path / "b")
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = row if isinstance(row, bytes) else row.encode()
    path.write_bytes(b"".join(lines))
    with pytest.raises(DataError, match=f"subgraphs.jsonl: line 4: {why}"):
        load_bundle(tmp_path / "b")


def _second_turn_row(change):
    def edit(text):
        lines = text.splitlines(keepends=True)
        row = json.loads(lines[1])
        change(row)
        lines[1] = json.dumps(row) + "\n"
        return "".join(lines)
    return edit


@pytest.mark.parametrize("name, corrupt, where", [
    ("vocab.json", _edit(lambda b: b.update(relations="friend_of")),
     "vocab.json: 'relations' is not a list of strings"),
    ("vocab.json", _edit(lambda b: b["counts"].__setitem__(0, True)),
     "vocab.json: 'counts' is not a list of integers"),
    ("vocab.json", _edit(lambda b: b.update(words=[])),
     "vocab.json: undeclared key 'words'"),
    ("splits.json", _edit(lambda b: b.update(valid=b["valid"][0])),
     "splits.json: 'valid' is not a list of strings"),
    ("splits.json", _edit(lambda b: b.update(seed="0")),
     "splits.json: 'seed' is not an integer"),
    ("turns.jsonl", _second_turn_row(lambda r: r.update(turn="1")),
     "turns.jsonl: line 2: 'turn' is not an integer"),
    ("turns.jsonl", _second_turn_row(
        lambda r: r.update(message=" ".join(r["message"]))),
     "turns.jsonl: line 2: 'message' is not a list"),
    ("turns.jsonl", _second_turn_row(lambda r: r.update(dialogue_id=5)),
     "turns.jsonl: line 2: 'dialogue_id' is not a string"),
    ("turns.jsonl", _second_turn_row(lambda r: r.update(scene_entities={})),
     "turns.jsonl: line 2: 'scene_entities' is not a list"),
    ("turns.jsonl", _second_turn_row(
        lambda r: r.update(message=[["x"], *r["message"]])),
     "turns.jsonl: line 2: 'message' is not a list of strings"),
    ("turns.jsonl", _second_turn_row(
        lambda r: r.update(response=[*r["response"], 5])),
     "turns.jsonl: line 2: 'response' is not a list of strings"),
    ("turns.jsonl", _second_turn_row(lambda r: r.update(scene_entities=[None])),
     "turns.jsonl: line 2: 'scene_entities' is not a list of strings"),
    ("turns.jsonl", lambda text: text.replace("\n", "\n[1, 2]\n", 1),
     "turns.jsonl: line 2: expected a JSON object"),
    ("vocab.json", lambda text: "[]", "vocab.json: expected a JSON object"),
    ("meta.json", lambda text: "5", "meta.json: expected a JSON object"),
    ("meta.json", lambda text: json.dumps(list(json.loads(text).items())),
     "meta.json: expected a JSON object"),
    ("meta.json", _edit(lambda b: b.update(mode="bogus")),
     "meta.json: unknown tokenization mode 'bogus'"),
    # syn00000 is a test dialogue of this bundle
    ("splits.json", _edit(lambda b: b["train"].append("syn00000")),
     "splits.json: dialogue 'syn00000' is named twice, in train and in test"),
    ("splits.json", _edit(lambda b: b["test"].append("syn00000")),
     "splits.json: dialogue 'syn00000' is named twice, in test and in test"),
    ("splits.json", _edit(lambda b: b["valid"].append("syn99999")),
     "splits.json: dialogue 'syn99999' in valid has no turn in turns.jsonl"),
    ("splits.json", _edit(lambda b: b["test"].remove("syn00000")),
     "splits.json: dialogue 'syn00000' of turns.jsonl is in no split"),
], ids=("vocab_relations", "vocab_counts", "vocab_undeclared", "splits_valid",
        "splits_seed", "turn_string", "message_text", "dialogue_id_number",
        "scene_object", "message_token_list", "response_token_number",
        "scene_entity_null", "turn_not_object", "vocab_not_object",
        "meta_not_object", "meta_key_value_pairs", "meta_mode",
        "splits_in_two", "splits_twice_in_one", "splits_unknown_dialogue",
        "splits_dialogue_left_out"))
def test_mistyped_bundle_file_raises_data_error(tmp_path, synth_bundle_dir,
                                                name, corrupt, where):
    shutil.copytree(synth_bundle_dir, tmp_path / "b")
    path = tmp_path / "b" / name
    path.write_text(corrupt(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_bundle(tmp_path / "b")
    assert str(info.value) == where


# Row corruptions that indexing passes; tests/test_cli.py runs four more
# through the commands.
@pytest.mark.parametrize("corrupt, why", [
    (lambda tid, obj: json.dumps({k: v for k, v in obj.items()
                                  if k != "triples"}),
     "missing key 'triples'"),
    (lambda tid, obj: '{"turn_id": "' + tid + '", "turn_id": "other#0"}',
     "turn_id 'other#0' is not the indexed"),
], ids=("no_triples", "second_turn_id"))
def test_malformed_subgraph_row_fails_where_it_is_read(tmp_path,
                                                       synth_bundle_dir,
                                                       corrupt, why):
    lines = _subgraph_lines(synth_bundle_dir)
    obj = json.loads(lines[7])
    lines[7] = corrupt(obj["turn_id"], obj) + "\n"
    bundle = load_bundle(
        _bundle_with_subgraph_lines(synth_bundle_dir, tmp_path / "b", lines))
    for tid in bundle.subgraphs:
        if tid != obj["turn_id"]:
            assert isinstance(bundle.subgraphs[tid], KnowledgeGraph)
    for _ in range(2):
        with pytest.raises(DataError,
                           match=f"subgraphs.jsonl: line 8: {why}"):
            bundle.subgraphs[obj["turn_id"]]


# ---------------------------------------------------------------------------
# stats


def _mini_bundle():
    graph = _chain_graph()
    vocab = Vocabulary(generic=("lives", "in", "where", "?", "."),
                       entities=("Ava", "Ben", "Cora", "Hillcrest", "Lakeview"),
                       relations=("friend_of", "lives_in"))
    turns = [
        _turn("d0", 0, "where Ava ?", "Ava lives in Hillcrest ."),
        _turn("d0", 1, "? ?", "Ben lives in Lakeview ."),
        _turn("d1", 0, "where ?", "nothing here ."),
    ]
    subs = {
        "d0#0": KnowledgeGraph([Triple("Ava", "lives_in", "Hillcrest")]),
        "d0#1": KnowledgeGraph([Triple("Ava", "lives_in", "Hillcrest"),
                                Triple("Ben", "lives_in", "Lakeview")]),
        "d1#0": KnowledgeGraph([], extra_entities=["Ava"]),
    }
    splits = SplitAssignment(train=("d0", "d1"), valid=(), test=(), seed=0)
    return Bundle(turns=turns, vocab=vocab, graph=graph, subgraphs=subs,
                  splits=splits, meta={})


def test_stats_token_and_entity_counts():
    st_ = corpus_stats(_mini_bundle())
    assert st_.n_dialogues == 2
    assert st_.n_turns == 3
    assert st_.n_tokens == (3 + 5) + (2 + 5) + (2 + 3)
    assert st_.avg_turns_per_dialogue == pytest.approx(1.5)
    assert st_.avg_tokens_per_turn == pytest.approx(20 / 3)
    # entity occurrences: Ava, Ava, Hillcrest / Ben, Lakeview
    assert st_.n_entity_occurrences == 5
    assert st_.n_turns_with_entities == 2
    assert st_.n_dialogues_with_entities == 1


def test_stats_path_hist_on_global_graph():
    st_ = corpus_stats(_mini_bundle())
    # d0#0 pairs: Ava->Ava (0), Ava->Hillcrest (1); d0#1 has no message
    # entities; d1#0 none
    assert st_.path_length_hist == {0: 1, 1: 1}
    assert st_.unreachable_pairs == 0


def test_stats_hist_counts_unreachable():
    b = _mini_bundle()
    b.turns[1] = _turn("d0", 1, "Lakeview ?", "Cora lives somewhere .")
    st_ = corpus_stats(b)
    # Lakeview -> Cora is reachable only via reverse edges? traversal for
    # stats is the directed global graph walked both ways, so Lakeview
    # ~ Ben ~ Cora = 2 hops
    assert st_.path_length_hist.get(2, 0) >= 1


def test_stats_ged_series():
    st_ = corpus_stats(_mini_bundle())
    # consecutive pair within d0: subgraphs differ by exactly one triple
    assert st_.ged_mean == pytest.approx(1.0)
    assert st_.ged_std == pytest.approx(0.0)


def test_compare_stats_known_profile():
    base = CorpusStats(
        n_dialogues=1247, n_turns=17164, n_tokens=462647,
        avg_turns_per_dialogue=13.765, avg_tokens_per_turn=26.955,
        n_unique_tokens=3624, n_entities=174, n_relation_types=9,
        n_entity_occurrences=46059, n_dialogues_with_entities=1166,
        n_turns_with_entities=10110, path_length_hist={},
        unreachable_pairs=0, ged_mean=0.0, ged_std=0.0)
    rows = compare_stats(base, "hgzhz")
    assert all(ok for _, _, _, ok in rows)
    base.n_turns = 17165
    rows = compare_stats(base, "hgzhz")
    bad = [name for name, _, _, ok in rows if not ok]
    assert bad == ["turns"]


def test_compare_stats_friends_profile_present():
    prof = corpus.KNOWN_CORPUS_PROFILES["friends"]
    assert prof["turns"] == 57757 and prof["kg_relation_types"] == 7


def test_compare_stats_unknown_profile():
    with pytest.raises(DataError, match="unknown corpus profile"):
        compare_stats(corpus_stats(_mini_bundle()), "seinfeld")


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthetic_deterministic():
    cfg = SyntheticConfig(n_turns=100)
    a = generate_synthetic(cfg, seed=9)
    b = generate_synthetic(cfg, seed=9)
    assert a.raw_turns == b.raw_turns
    assert a.graph == b.graph
    assert a.oracle_paths == b.oracle_paths


def test_synthetic_graph_shape():
    cfg = SyntheticConfig(n_people=10, n_places=4, n_jobs=3, n_turns=50)
    syn = generate_synthetic(cfg, seed=0)
    assert len(syn.graph) == 30  # 3 functional edges per person
    assert len(syn.graph.entities) == 17
    assert syn.graph.relations == frozenset(
        {"friend_of", "lives_in", "works_as"})
    heads = Counter((t.head, t.relation) for t in syn.graph.triples)
    assert all(c == 1 for c in heads.values())


def test_synthetic_oracle_paths_are_valid_walks():
    syn = generate_synthetic(SyntheticConfig(n_turns=200), seed=4)
    by_id = {f"{t.dialogue_id}#{t.turn}": t for t in syn.raw_turns}
    assert syn.oracle_paths
    for turn_id, path in syn.oracle_paths.items():
        turn = by_id[turn_id]
        for trip in path:
            assert trip in syn.graph.triples
        for a, b in zip(path, path[1:]):
            assert a.tail == b.head
        assert path[0].head in turn.message
        assert path[-1].tail in turn.response


def test_synthetic_chitchat_has_no_paths_or_entities():
    syn = generate_synthetic(SyntheticConfig(n_turns=400), seed=1)
    with_path = set(syn.oracle_paths)
    for t in syn.raw_turns:
        tid = f"{t.dialogue_id}#{t.turn}"
        if tid not in with_path:
            toks = t.message.split() + t.response.split()
            assert not any(tok in syn.graph.entities for tok in toks)


def test_synthetic_zero_chitchat_all_grounded():
    cfg = SyntheticConfig(n_turns=60, chitchat_rate=0.0)
    syn = generate_synthetic(cfg, seed=2)
    assert len(syn.oracle_paths) == 60


def test_synthetic_template_restriction():
    cfg = SyntheticConfig(n_turns=60, templates=("residence",),
                          chitchat_rate=0.0)
    syn = generate_synthetic(cfg, seed=2)
    for path in syn.oracle_paths.values():
        assert len(path) == 1 and path[0].relation == "lives_in"


def test_synthetic_config_validation():
    with pytest.raises(DataError, match="unknown templates"):
        SyntheticConfig(templates=("palindrome",))
    with pytest.raises(DataError):
        SyntheticConfig(n_people=1)
    with pytest.raises(DataError):
        SyntheticConfig(chitchat_rate=1.0)


def test_synthetic_bookkeeping_matches_ingested_stats():
    # counts taken from the generated text itself (whitespace-separated
    # words, entity names matched exactly) must agree with what the full
    # pipeline measures after tokenization
    cfg = SyntheticConfig(n_turns=300)
    syn = generate_synthetic(cfg, seed=11)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    st_ = corpus_stats(bundle)
    words = [(rt.message + " " + rt.response).split() for rt in syn.raw_turns]
    ents = [[w for w in ws if w in syn.graph.entities] for ws in words]
    assert st_.n_dialogues == len({rt.dialogue_id for rt in syn.raw_turns})
    assert st_.n_turns == len(syn.raw_turns) == cfg.n_turns
    assert st_.n_tokens == sum(map(len, words))
    assert st_.n_entities == len(syn.graph.entities)
    assert st_.n_relation_types == 3
    assert st_.n_entity_occurrences == sum(map(len, ents))
    assert st_.n_dialogues_with_entities == len(
        {rt.dialogue_id for rt, e in zip(syn.raw_turns, ents) if e})
    assert st_.n_turns_with_entities == sum(map(bool, ents))


def test_synthetic_ingest_path_hist_spans_hops():
    cfg = SyntheticConfig(n_turns=400, chitchat_rate=0.0)
    syn = generate_synthetic(cfg, seed=3)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    st_ = corpus_stats(bundle)
    # one-hop templates guarantee mass at 1; multi-hop templates reach 2+
    assert st_.path_length_hist.get(1, 0) > 0
    assert sum(v for k, v in st_.path_length_hist.items() if k >= 2) > 0


def test_synthetic_subgraph_contains_oracle_path():
    cfg = SyntheticConfig(n_turns=150, chitchat_rate=0.0)
    syn = generate_synthetic(cfg, seed=8)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    for turn_id, path in syn.oracle_paths.items():
        sub = bundle.subgraphs[turn_id]
        for trip in path:
            assert trip in sub.triples, (turn_id, trip)


# SHA-256 of every file save_bundle writes for one toy synthetic world,
# taken with the per-turn subgraph sampler that batched sampling
# replaced; ingest must reproduce them byte for byte.
TOY_BUNDLE_SHA256 = {
    "turns.jsonl": "dcb76c6d20bd1e8ae9c23877d5ce1edeb63e556349fcff54b0080a5237039001",
    "vocab.json": "25794775551a83aede36aca231b57ef53931c302719e3a3e485f5af70bc6e203",
    "graph.tsv": "048ebbd52c738e19562b16f9d3efad64b124fa13c936d50f890aa98666dede38",
    "subgraphs.jsonl": "64e38f5063ad1c674fb37b9282204ed4de7b1537559af9228aa46fd84f62793e",
    "splits.json": "592c653eb3ec999c54bcda6eb2f46ce8aea4120b4d05ad21d83485486114503a",
    "meta.json": "5fca6acb2b5edda3d21f42072a913d3368986f432040eb8e28ca1c26e50c388a",
}


def test_toy_bundle_bytes_are_pinned(tmp_path):
    cfg = SyntheticConfig(n_people=8, n_places=4, n_jobs=3, n_turns=200)
    syn = generate_synthetic(cfg, seed=5)
    save_bundle(ingest(syn.raw_turns, syn.graph, syn.lexicon), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TOY_BUNDLE_SHA256}
    assert got == TOY_BUNDLE_SHA256


def test_split_turns_rejects_unknown_split():
    syn = generate_synthetic(SyntheticConfig(n_turns=120), seed=1)
    bundle = ingest(syn.raw_turns, syn.graph, syn.lexicon)
    assert bundle.split_turns("valid")
    for name in ("bogus", "seed"):
        with pytest.raises(DataError, match="train, valid, test"):
            bundle.split_turns(name)
