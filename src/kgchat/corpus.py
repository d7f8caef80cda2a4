"""Corpus pipeline: entity-aware tokenization, vocabulary construction,
speaker-balanced splits, corpus statistics, per-turn subgraph
attachment, bundle persistence, and a synthetic corpus generator whose
responses require one- to three-hop reasoning over a small social
graph.

File formats.
  dialogues.jsonl   one object per turn:
                    {"dialogue_id", "turn", "speaker", "scene_entities",
                     "message", "response"} with raw text fields
  graph.tsv         head <TAB> relation <TAB> tail, '#' comments
  aliases.tsv       surface <TAB> canonical_entity, '#' comments
"""

from __future__ import annotations

import json
import os
import types
import typing
from collections import Counter
from collections.abc import Container, Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import kgraph
from .kgraph import KnowledgeGraph, Triple, _utf8_lines


PAD, BOS, EOS, UNK, KB = "<pad>", "<bos>", "<eos>", "<unk>", "<kb>"
SPECIALS = (PAD, BOS, EOS, UNK, KB)
PAD_ID, BOS_ID, EOS_ID, UNK_ID, KB_ID = range(5)


class DataError(ValueError):
    """Malformed corpus input or an unusable configuration."""


# ---------------------------------------------------------------------------
# JSON files and records
#
# A record the program writes and reads back derives JsonRecord, and its
# dataclass declaration is its file format. A malformed file fails in
# json, in a missing, mistyped or undeclared key, or in the constructor
# it feeds; each becomes a DataError naming the file (and line).

# RecursionError: json.loads on nesting deeper than the interpreter's stack
_PARSE_ERRORS = (KeyError, OverflowError, RecursionError, TypeError,
                 ValueError)

# singular and plural name of each JSON type a field may hold
_JSON_NAMES = {str: ("a string", "strings"), bool: ("a boolean", "booleans"),
               int: ("an integer", "integers"), float: ("a number", "numbers"),
               list: ("a list", "lists"), dict: ("an object", "objects")}


class _WrongType(Exception):
    """A JSON value its field's declaration does not allow."""


def _is(value, kind: type):
    if type(value) is not kind:
        raise _WrongType
    return value


def _decoder(kind) -> tuple:
    """(decode, JSON type names) for a field annotation: decode maps a
    JSON value to the field's value or raises _WrongType."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:   # X | None
        decode, (one, many) = _decoder(args[0])
        return ((lambda v: None if v is None else decode(v)),
                (f"null or {one}", f"nulls or {many}"))
    if origin in (tuple, list):
        decode, (_, many) = _decoder(args[0])
        return ((lambda v: origin(map(decode, _is(v, list)))),
                (f"a list of {many}", f"lists of {many}"))
    if issubclass(kind, JsonRecord):
        return (lambda v: kind.from_dict(_is(v, dict))), _JSON_NAMES[dict]
    if kind is float:   # an integer passes as a number; a boolean is not one
        return ((lambda v: float(v) if type(v) is int else _is(v, float)),
                _JSON_NAMES[float])
    return (lambda v: _is(v, kind)), _JSON_NAMES[kind]


@cache
def _record_fields(cls) -> dict:
    """Field name -> (decode, JSON type names, required)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (*_decoder(hints[f.name]),
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _to_json(value):
    if isinstance(value, JsonRecord):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


def _json_object(value) -> dict:
    """value, refused unless it is a JSON object."""
    if type(value) is not dict:
        raise TypeError("expected a JSON object")
    return value


class JsonRecord:
    """Base of a dataclass written as a JSON object of its fields, in
    declaration order. A field is declared as a JSON scalar type, dict,
    X | None, tuple[X, ...], list[X] or a JsonRecord; one with a default
    may be absent from the file."""

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """The record `to_dict` wrote, each value type-checked."""
        _json_object(d)
        declared = _record_fields(cls)
        values = {}
        for name, (decode, (what, _), required) in declared.items():
            if required or name in d:
                try:
                    values[name] = decode(d[name])   # KeyError if missing
                except _WrongType:
                    raise TypeError(f"{name!r} is not {what}") from None
        if len(values) != len(d):
            raise ValueError("undeclared key "
                             f"{next(k for k in d if k not in declared)!r}")
        return cls(**values)


def _parse_failure(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write through a temp file beside `path`: a clean exit moves it
    over `path` with os.replace, a failed write removes it and leaves
    `path` as it was. Readers never see a half-written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path) -> None:
    """`obj` as indented JSON and a closing newline, written atomically."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _load_json(path: Path, build):
    try:
        return build(json.loads(path.read_bytes()))
    except _PARSE_ERRORS as exc:
        raise DataError(f"{path.name}: {_parse_failure(exc)}") from None


def _load_jsonl(path: Path, build) -> list:
    rows = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rows.append(build(json.loads(raw)))
            except _PARSE_ERRORS as exc:
                raise DataError(f"{path.name}: line {lineno}: "
                                f"{_parse_failure(exc)}") from None
    return rows


# ---------------------------------------------------------------------------
# Tokenization
#
# Entity mentions are folded to single canonical-entity tokens by greedy
# longest match against the alias lexicon; the rest of the text is split
# per mode. "word" splits on whitespace with punctuation detached (entity
# matches must sit on word boundaries); "char" emits one token per
# character, which suits scripts written without spaces.


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class LexiconMatcher:
    """An alias lexicon indexed for longest-match lookup. Build it once
    and pass it to tokenize in place of the plain mapping."""

    def __init__(self, lexicon: Mapping[str, str]):
        self.lexicon = dict(lexicon)
        by_first: dict[str, list[str]] = {}
        for surface in self.lexicon:
            if not surface:
                raise DataError("empty surface form in lexicon")
            by_first.setdefault(surface[0], []).append(surface)
        self.by_first = {ch: sorted(ss, key=len, reverse=True)
                         for ch, ss in by_first.items()}

    def longest_at(self, text: str, pos: int, word_boundaries: bool) -> str | None:
        for surface in self.by_first.get(text[pos], ()):
            end = pos + len(surface)
            if not text.startswith(surface, pos):
                continue
            if word_boundaries:
                if pos > 0 and _is_word_char(text[pos - 1]) and _is_word_char(surface[0]):
                    continue
                if end < len(text) and _is_word_char(text[end]) and _is_word_char(surface[-1]):
                    continue
            return surface
        return None


TOKENIZE_MODES = ("word", "char")


def tokenize(text: str, mode: str = "word",
             lexicon: Mapping[str, str] | LexiconMatcher | None = None
             ) -> list[str]:
    """Split text into generic tokens and canonical entity tokens."""
    if mode not in TOKENIZE_MODES:
        raise DataError(f"unknown tokenization mode {mode!r}")
    matcher = (lexicon if isinstance(lexicon, LexiconMatcher)
               else LexiconMatcher(lexicon or {}))
    tokens: list[str] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        surface = matcher.longest_at(text, pos, word_boundaries=(mode == "word"))
        if surface is not None:
            tokens.append(matcher.lexicon[surface])
            pos += len(surface)
            continue
        if mode == "char":
            tokens.append(ch)
            pos += 1
        elif _is_word_char(ch):
            end = pos
            while end < n and _is_word_char(text[end]):
                end += 1
            tokens.append(text[pos:end])
            pos = end
        else:
            tokens.append(ch)
            pos += 1
    return tokens


def detokenize(tokens: Sequence[str], mode: str = "word") -> str:
    """Inverse-ish of tokenize: entity tokens come back as their
    canonical surface; word mode joins with spaces, char mode without."""
    return (" " if mode == "word" else "").join(tokens)


def load_lexicon(path) -> dict[str, str]:
    lex: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(_utf8_lines(fh, DataError), start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not all(p.strip() for p in parts):
                raise DataError(f"{path}: line {lineno}: expected "
                                f"surface<TAB>canonical, got {line!r}")
            surface, canonical = parts[0].strip(), parts[1].strip()
            if surface in lex and lex[surface] != canonical:
                raise DataError(f"{path}: line {lineno}: surface {surface!r} "
                                f"mapped to two canonicals")
            lex[surface] = canonical
    return lex


# ---------------------------------------------------------------------------
# Vocabulary
#
# Id space: the five specials first, then the generic words sorted by
# (-count, token), then the entity symbols sorted lexicographically, so
# entity ids form one contiguous block at the top. The decoder's generic
# softmax runs over [KB, EOS, UNK] + generic words: EOS and UNK are
# emittable generic symbols, PAD and BOS are never produced, and KB is
# the reserved controller symbol whose probability gates the entity
# branch. That block is |W| + 1 wide counting EOS and UNK in W.


@dataclass(frozen=True)
class Vocabulary(JsonRecord):
    generic: tuple[str, ...]
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    counts: tuple[int, ...] = ()   # older vocab.json files omit it

    def __post_init__(self):
        overlap = set(self.generic) & set(self.entities)
        if overlap:
            raise DataError(f"generic/entity overlap: {sorted(overlap)[:5]}")
        if set(SPECIALS) & (set(self.generic) | set(self.entities)):
            raise DataError("special tokens cannot appear in the vocabulary")
        if self.counts and len(self.counts) != len(self.generic):
            raise DataError("counts misaligned with generic words")

    @property
    def size(self) -> int:
        return len(SPECIALS) + len(self.generic) + len(self.entities)

    @property
    def entity_base(self) -> int:
        return len(SPECIALS) + len(self.generic)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @cached_property
    def _token_ids(self) -> dict:
        ids = {tok: i for i, tok in enumerate(SPECIALS)}
        for i, w in enumerate(self.generic):
            ids[w] = len(SPECIALS) + i
        base = self.entity_base
        for i, e in enumerate(self.entities):
            ids[e] = base + i
        return ids

    @cached_property
    def id_to_token(self) -> tuple:
        return SPECIALS + self.generic + self.entities

    def token_to_id(self, token: str) -> int:
        return self._token_ids.get(token, UNK_ID)

    def tokens_to_ids(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_to_id(t) for t in tokens]

    @cached_property
    def entity_set(self) -> frozenset:
        return frozenset(self.entities)

    def is_entity_id(self, token_id: int) -> bool:
        return token_id >= self.entity_base

    @cached_property
    def generic_output_ids(self) -> np.ndarray:
        """Vocabulary ids for the generic softmax block, KB first."""
        ids = [KB_ID, EOS_ID, UNK_ID]
        ids.extend(range(len(SPECIALS), len(SPECIALS) + len(self.generic)))
        return np.asarray(ids, dtype=np.int64)

    @cached_property
    def seq2seq_output_ids(self) -> np.ndarray:
        """Vocabulary ids of seq2seq's flat softmax, [EOS, UNK] + generic
        words + entities: the only ids either model's output puts mass
        on."""
        ids = [EOS_ID, UNK_ID]
        ids.extend(range(len(SPECIALS), len(SPECIALS) + len(self.generic)))
        ids.extend(range(self.entity_base, self.entity_base + self.n_entities))
        return np.asarray(ids, dtype=np.int64)

    @cached_property
    def emittable_ids(self) -> frozenset:
        """seq2seq_output_ids as a set, for membership tests."""
        return frozenset(self.seq2seq_output_ids.tolist())

    @property
    def generic_output_size(self) -> int:
        return 3 + len(self.generic)


def build_vocab(turns: Sequence["DialogueTurn"], min_count: int,
                entities: Iterable[str], relations: Iterable[str]) -> Vocabulary:
    """Count generic words over the given (training) turns. Words seen
    fewer than min_count times fall back to UNK at encoding time. All
    graph entities enter the vocabulary regardless of corpus count."""
    if not turns:
        raise DataError("cannot build a vocabulary from an empty corpus")
    entity_set = set(entities)
    counts: Counter = Counter()
    for t in turns:
        for tok in list(t.message) + list(t.response):
            if tok not in entity_set and tok not in SPECIALS:
                counts[tok] += 1
    kept = sorted((w for w, c in counts.items() if c >= min_count),
                  key=lambda w: (-counts[w], w))
    return Vocabulary(generic=tuple(kept),
                      entities=tuple(sorted(entity_set)),
                      relations=tuple(sorted(set(relations))),
                      counts=tuple(counts[w] for w in kept))


# ---------------------------------------------------------------------------
# Turns and raw dialogue files


@dataclass(frozen=True)
class RawTurn:
    dialogue_id: str
    turn: int
    speaker: str
    scene_entities: tuple
    message: str
    response: str


@dataclass(frozen=True)
class DialogueTurn:
    dialogue_id: str
    turn: int
    speaker: str
    scene_entities: tuple
    message: tuple
    response: tuple

    @property
    def turn_id(self) -> str:
        return f"{self.dialogue_id}#{self.turn}"

    def grounding(self, entities: Container[str]) -> tuple[set, set]:
        """The turn's (sources, targets): the message's entity tokens
        plus the scene entities, and the response's entity tokens.
        `entities` holds the names that count as entity tokens."""
        return ({t for t in self.message if t in entities}
                | set(self.scene_entities),
                {t for t in self.response if t in entities})


# dialogue_id is taken as text whatever its JSON type
_RAW_FIELDS = {key: _decoder(kind) for key, kind in (
    ("turn", int), ("speaker", str), ("scene_entities", tuple[str, ...]),
    ("message", str), ("response", str))}
_RAW_KEYS = ("dialogue_id", *_RAW_FIELDS)


def load_dialogues_jsonl(path) -> list[RawTurn]:
    turns = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(_utf8_lines(fh, DataError), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise DataError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict) or any(k not in obj for k in _RAW_KEYS):
                raise DataError(f"{path}: line {lineno}: missing keys "
                                f"{[k for k in _RAW_KEYS if k not in obj]}")
            row = {"dialogue_id": str(obj["dialogue_id"])}
            for key, (decode, (what, _)) in _RAW_FIELDS.items():
                try:
                    row[key] = decode(obj[key])
                except _WrongType:
                    raise DataError(f"{path}: line {lineno}: {key} must be "
                                    f"{what}") from None
            turns.append(RawTurn(**row))
    if not turns:
        raise DataError(f"{path}: no turns found")
    return turns


# ---------------------------------------------------------------------------
# Splits: 85/5/10 over whole dialogues, balanced on dominant speakers.


SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class SplitAssignment(JsonRecord):
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


RATIOS = (("train", 0.85), ("test", 0.10), ("valid", 0.05))


def split_dialogues(dialogues: Sequence[tuple], seed: int = 0) -> SplitAssignment:
    """Assign whole dialogues to train/valid/test at 85/5/10.

    `dialogues` holds (dialogue_id, dominant_speaker, n_turns) rows.
    Dialogues are grouped by dominant speaker (largest turn mass first)
    and shuffled within the group by the seed; a greedy quota walk then
    keeps every split's share of each speaker's dialogues close to the
    global ratios, so main-speaker turn shares stay within a few points
    of the corpus-wide shares wherever group sizes permit.
    """
    if len(dialogues) < 20:
        raise DataError("need at least 20 dialogues to split")
    ids = [d[0] for d in dialogues]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate dialogue ids")

    rng = np.random.default_rng(seed)
    groups: dict[str, list] = {}
    for did, speaker, n_turns in dialogues:
        groups.setdefault(speaker, []).append((did, int(n_turns)))
    ordered_groups = sorted(groups.items(),
                            key=lambda kv: (-sum(n for _, n in kv[1]), kv[0]))

    counts = {"train": 0, "valid": 0, "test": 0}
    assigned = {"train": [], "valid": [], "test": []}
    total = 0
    for _, members in ordered_groups:
        members = sorted(members)
        order = rng.permutation(len(members))
        for idx in order:
            total += 1
            # largest-deficit quota: keeps every prefix near the ratios
            name = max(RATIOS, key=lambda nr: nr[1] * total - counts[nr[0]])[0]
            counts[name] += 1
            assigned[name].append(members[int(idx)][0])
    return SplitAssignment(train=tuple(assigned["train"]),
                           valid=tuple(assigned["valid"]),
                           test=tuple(assigned["test"]), seed=seed)


# ---------------------------------------------------------------------------
# Ingested bundle


@dataclass
class Bundle:
    """An ingested corpus. `subgraphs` maps each turn id to the turn's
    knowledge subgraph: a plain dict from `ingest`, a `SubgraphRows`
    from `load_bundle`, which builds a turn's graph on first read."""
    turns: list
    vocab: Vocabulary
    graph: KnowledgeGraph
    subgraphs: Mapping
    splits: SplitAssignment
    meta: dict = field(default_factory=dict)

    def split_turns(self, name: str) -> list:
        if name not in SPLIT_NAMES:
            raise DataError(f"unknown split {name!r}; "
                            f"choose from {', '.join(SPLIT_NAMES)}")
        wanted = set(getattr(self.splits, name))
        return [t for t in self.turns if t.dialogue_id in wanted]

    def subgraph_for(self, turn) -> KnowledgeGraph:
        return self.subgraphs[turn.turn_id]


def _check_turn_ids(turns: Sequence[DialogueTurn], where: str = "") -> None:
    """Refuse two turns with one (dialogue_id, turn): a turn id names
    one subgraph, and the second would take the first's place."""
    seen = set()
    for t in turns:
        if t.turn_id in seen:
            raise DataError(f"{where}repeated turn id {t.turn_id!r} "
                            f"(dialogue_id {t.dialogue_id!r}, turn {t.turn})")
        seen.add(t.turn_id)


def ingest(raw_turns: Sequence[RawTurn], graph: KnowledgeGraph,
           lexicon: Mapping[str, str] | None = None, *, mode: str = "word",
           split_seed: int = 0, min_count: int = 1,
           subgraph_k: int = 5) -> Bundle:
    """Tokenize raw turns, attach per-turn subgraphs, split dialogues,
    and build the vocabulary from the training split only. Two raw turns
    with one (dialogue_id, turn) raise DataError."""
    lex = {e: e for e in graph.entities}
    for surface, canonical in (lexicon or {}).items():
        if canonical not in graph.entities:
            raise DataError(f"alias {surface!r} points at unknown entity {canonical!r}")
        if surface in lex and lex[surface] != canonical:
            raise DataError(f"alias surface {surface!r} collides with an entity name")
        lex[surface] = canonical
    matcher = LexiconMatcher(lex)
    entity_set = set(graph.entities)

    turns = []
    dropped_scene = 0
    for rt in raw_turns:
        scene = tuple(e for e in rt.scene_entities if e in entity_set)
        dropped_scene += len(rt.scene_entities) - len(scene)
        turns.append(DialogueTurn(
            dialogue_id=rt.dialogue_id, turn=rt.turn, speaker=rt.speaker,
            scene_entities=scene,
            message=tuple(tokenize(rt.message, mode, matcher)),
            response=tuple(tokenize(rt.response, mode, matcher))))
    _check_turn_ids(turns)

    requests = [t.grounding(entity_set) for t in turns]
    subgraphs = dict(zip((t.turn_id for t in turns),
                         kgraph.sample_subgraphs(graph, requests, k=subgraph_k)))

    by_dialogue: dict[str, list] = {}
    for t in turns:
        by_dialogue.setdefault(t.dialogue_id, []).append(t)
    rows = []
    for did in sorted(by_dialogue):
        speakers = Counter(t.speaker for t in by_dialogue[did])
        dominant = max(sorted(speakers), key=lambda s: speakers[s])
        rows.append((did, dominant, len(by_dialogue[did])))
    splits = split_dialogues(rows, seed=split_seed)

    vocab = build_vocab([t for t in turns
                         if t.dialogue_id in set(splits.train)],
                        min_count, sorted(graph.entities), sorted(graph.relations))
    meta = {"mode": mode, "split_seed": split_seed, "min_count": min_count,
            "subgraph_k": subgraph_k, "n_turns": len(turns),
            "n_dialogues": len(by_dialogue), "dropped_scene_entities": dropped_scene}
    return Bundle(turns=turns, vocab=vocab, graph=graph, subgraphs=subgraphs,
                  splits=splits, meta=meta)


def save_bundle(bundle: Bundle, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "turns.jsonl", "w", encoding="utf-8") as fh:
        for t in bundle.turns:   # its fields, in declaration order
            fh.write(json.dumps(vars(t), ensure_ascii=False) + "\n")
    with open(out / "vocab.json", "w", encoding="utf-8") as fh:
        json.dump(bundle.vocab.to_dict(), fh, ensure_ascii=False, indent=1)
    kgraph.save_triples_tsv(bundle.graph, out / "graph.tsv")
    with open(out / "subgraphs.jsonl", "w", encoding="utf-8") as fh:
        for turn_id in sorted(bundle.subgraphs):
            sub = bundle.subgraphs[turn_id]
            # turn_id first: load_bundle indexes the rows by it
            fh.write(json.dumps({
                "turn_id": turn_id,
                "triples": [list(t) for t in sub.sorted_triples()],
                "entities": sorted(sub.entities),
            }, ensure_ascii=False) + "\n")
    with open(out / "splits.json", "w", encoding="utf-8") as fh:
        json.dump(bundle.splits.to_dict(), fh, indent=1)
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(bundle.meta, fh, indent=1)


# The tokens inside the lists go unchecked: set-up reads every row.
_TURN_TYPES = (("dialogue_id", str), ("turn", int), ("speaker", str),
               ("scene_entities", list), ("message", list), ("response", list))


def _turn_row(obj) -> DialogueTurn:
    _json_object(obj)
    for key, kind in _TURN_TYPES:
        if type(obj[key]) is not kind:
            raise TypeError(f"{key!r} is not {_JSON_NAMES[kind][0]}")
    return DialogueTurn(
        dialogue_id=obj["dialogue_id"], turn=obj["turn"],
        speaker=obj["speaker"], scene_entities=tuple(obj["scene_entities"]),
        message=tuple(obj["message"]), response=tuple(obj["response"]))


# save_bundle starts every subgraphs.jsonl row with its turn id, so the
# loader can index the rows by id without parsing them.
_SUBGRAPH_PREFIX = '{"turn_id": "'


class SubgraphRows(Mapping):
    """Read-only turn id -> KnowledgeGraph over the rows of
    subgraphs.jsonl. A row is parsed, checked against the bundle's graph
    and its graph built on first read; the graph is kept and the row
    text dropped. A malformed row raises DataError naming its line, in
    whichever command first reads it."""

    __slots__ = ("_entries", "_triples", "_entities")

    def __init__(self, rows: dict, graph: KnowledgeGraph):
        # turn id -> (line number, row text) until read, then its graph
        self._entries = rows
        # each triple of the bundle graph, found by its fields
        self._triples = {t: t for t in graph.triples}
        self._entities = graph.entities

    def __getitem__(self, turn_id: str) -> KnowledgeGraph:
        entry = self._entries[turn_id]
        if not isinstance(entry, tuple):
            return entry
        lineno, row = entry
        try:
            # a row that parses is an object: it starts with the prefix
            graph = _subgraph_row(json.loads(row), turn_id, self._triples,
                                  self._entities)
        except _PARSE_ERRORS as exc:
            raise DataError(f"subgraphs.jsonl: line {lineno}: "
                            f"{_parse_failure(exc)}") from None
        self._entries[turn_id] = graph
        return graph

    def __contains__(self, turn_id) -> bool:
        return turn_id in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _subgraph_row(obj: dict, turn_id: str, stored: dict,
                  entities: frozenset) -> KnowledgeGraph:
    """A row's graph. Each triple is a list of three non-empty strings
    naming a triple of the bundle graph (`stored` maps each to itself,
    so a lookup both checks a row's triple and finds the stored one),
    and each entity is one of `entities`; the graph is built from those
    checked names without checking them again."""
    if obj["turn_id"] != turn_id:
        raise DataError(f"turn_id {obj['turn_id']!r} is not the indexed "
                        f"{turn_id!r}")
    values = obj["triples"]
    if type(values) is not list:
        raise TypeError("'triples' is not a list")
    try:
        triples = [stored[tuple(v)] for v in values if type(v) is list]
    except (KeyError, TypeError):   # an unknown triple, an unhashable field
        triples = []
    if len(triples) != len(values):
        raise _bad_triple(values, stored)
    names = obj.get("entities", [])
    if type(names) is not list or not all(type(e) is str for e in names):
        raise TypeError("'entities' is not a list of strings")
    unknown = set(names) - entities
    if unknown:
        raise DataError(f"entity {min(unknown)!r} is not in the bundle's "
                        "graph")
    return KnowledgeGraph._trusted(frozenset(triples), frozenset(names))


def _bad_triple(values: list, stored: dict) -> Exception:
    """The error naming the first of a row's triples that is not a list
    of three non-empty strings, or not in the bundle graph."""
    for value in values:
        shown = json.dumps(value, ensure_ascii=False)
        if not (type(value) is list and len(value) == 3
                and all(type(f) is str and f for f in value)):
            return TypeError(f"'triples' holds {shown}, not a list of three "
                             "non-empty strings")
        if tuple(value) not in stored:
            return DataError(f"triple {shown} is not in graph.tsv")
    raise AssertionError("every triple of the row is known")


def _index_subgraph_rows(path: Path, graph: KnowledgeGraph) -> SubgraphRows:
    rows: dict = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                line = raw.decode("utf-8")
                if not line.startswith(_SUBGRAPH_PREFIX):
                    raise DataError(f"expected a row starting with "
                                    f"{_SUBGRAPH_PREFIX}")
                turn_id, _ = json.decoder.scanstring(line,
                                                     len(_SUBGRAPH_PREFIX))
            except ValueError as exc:
                raise DataError(f"{path.name}: line {lineno}: {exc}") from None
            if turn_id in rows:
                raise DataError(f"{path.name}: line {lineno}: duplicate "
                                f"turn_id {turn_id!r}, first on line "
                                f"{rows[turn_id][0]}")
            rows[turn_id] = (lineno, line)
    return SubgraphRows(rows, graph)


def load_meta(path: Path) -> dict:
    """A bundle's meta.json as a dict, {} when the file is absent. A
    `mode` other than a tokenizer mode (TOKENIZE_MODES) is refused; a
    missing one leaves the reader's default."""
    if not path.exists():
        return {}
    meta = _load_json(path, _json_object)
    if meta.get("mode", TOKENIZE_MODES[0]) not in TOKENIZE_MODES:
        raise DataError(f"meta.json: unknown tokenization mode "
                        f"{meta['mode']!r}")
    return meta


def _check_partition(splits: SplitAssignment,
                     turns: Sequence[DialogueTurn]) -> None:
    """Refuse splits.json unless its splits partition the dialogues of
    turns.jsonl: each dialogue in exactly one split, and no other."""
    dialogues = {t.dialogue_id for t in turns}
    seen: dict = {}
    for name in SPLIT_NAMES:
        for did in getattr(splits, name):
            if did in seen:
                raise DataError(f"splits.json: dialogue {did!r} is named "
                                f"twice, in {seen[did]} and in {name}")
            if did not in dialogues:
                raise DataError(f"splits.json: dialogue {did!r} in {name} "
                                f"has no turn in turns.jsonl")
            seen[did] = name
    if len(seen) != len(dialogues):
        missing = min(dialogues - seen.keys())
        raise DataError(f"splits.json: dialogue {missing!r} of turns.jsonl "
                        f"is in no split")


def load_bundle(in_dir) -> Bundle:
    """Read a bundle directory written by `save_bundle`. Every file is
    parsed and type-checked here except the subgraph rows: those are
    indexed by turn id, and each turn's graph is built when it is first
    read (see `SubgraphRows`). Two turns with one id, a turn without a
    subgraph row, two rows for one turn, a row for a turn turns.jsonl
    does not hold, a turn count other than meta.json's `n_turns`, an
    unknown tokenization `mode` (load_meta), or splits that do not
    partition the dialogues fail here: a cut turns.jsonl never loads as
    whole. The graph holds the triples of graph.tsv and every entity of
    vocab.json, the isolated ones too, so it equals the graph the bundle
    was saved from; a row may name its entities only."""
    src = Path(in_dir)
    turns = _load_jsonl(src / "turns.jsonl", _turn_row)
    _check_turn_ids(turns, "turns.jsonl: ")
    meta = load_meta(src / "meta.json")
    if meta.get("n_turns", len(turns)) != len(turns):
        raise DataError(f"turns.jsonl holds {len(turns)} turns, "
                        f"meta.json says {meta['n_turns']!r}")
    vocab = _load_json(src / "vocab.json", Vocabulary.from_dict)
    graph = kgraph.load_triples_tsv(src / "graph.tsv", vocab.entities)
    subgraphs = _index_subgraph_rows(src / "subgraphs.jsonl", graph)
    for t in turns:
        if t.turn_id not in subgraphs:
            raise DataError(f"subgraphs.jsonl: no row for turn {t.turn_id!r}")
    if len(subgraphs) != len(turns):
        # every turn has a row, so some row's turn is not in turns.jsonl
        known = {t.turn_id for t in turns}
        stray = min(tid for tid in subgraphs if tid not in known)
        raise DataError(f"subgraphs.jsonl: row for turn {stray!r}, which "
                        f"turns.jsonl does not hold")
    splits = _load_json(src / "splits.json", SplitAssignment.from_dict)
    _check_partition(splits, turns)
    return Bundle(turns=turns, vocab=vocab, graph=graph, subgraphs=subgraphs,
                  splits=splits, meta=meta)


# ---------------------------------------------------------------------------
# Statistics


@dataclass
class CorpusStats:
    n_dialogues: int
    n_turns: int
    n_tokens: int
    avg_turns_per_dialogue: float
    avg_tokens_per_turn: float
    n_unique_tokens: int
    n_entities: int
    n_relation_types: int
    n_entity_occurrences: int
    n_dialogues_with_entities: int
    n_turns_with_entities: int
    path_length_hist: dict
    unreachable_pairs: int
    ged_mean: float
    ged_std: float

    def rows(self) -> list:
        return [
            ("dialogues", self.n_dialogues),
            ("turns", self.n_turns),
            ("tokens", self.n_tokens),
            ("avg_turns_per_dialogue", round(self.avg_turns_per_dialogue, 2)),
            ("avg_tokens_per_turn", round(self.avg_tokens_per_turn, 2)),
            ("unique_tokens", self.n_unique_tokens),
            ("kg_entities", self.n_entities),
            ("kg_relation_types", self.n_relation_types),
            ("kg_entity_occurrences", self.n_entity_occurrences),
            ("dialogues_with_entities", self.n_dialogues_with_entities),
            ("turns_with_entities", self.n_turns_with_entities),
        ]


def corpus_stats(bundle: Bundle) -> CorpusStats:
    """Aggregate corpus statistics.

    Token counts cover message + response tokens (scene entities are
    stage metadata, not text). A turn "has entities" when an entity
    token appears in its message or response. Path lengths are shortest
    hop counts on the global graph for every (source, target) grounding
    pair; the subgraph GED series compares consecutive turns within each
    dialogue.
    """
    vocab = bundle.vocab
    entity_set = vocab.entity_set
    n_tokens = 0
    uniq = set()
    ent_occ = 0
    turns_with = 0
    dialogues_with = set()
    pair_list = []
    for t in bundle.turns:
        toks = list(t.message) + list(t.response)
        n_tokens += len(toks)
        uniq.update(toks)
        ents = [tok for tok in toks if tok in entity_set]
        ent_occ += len(ents)
        if ents:
            turns_with += 1
            dialogues_with.add(t.dialogue_id)
        sources, targets = t.grounding(entity_set)
        for s in sorted(sources):
            for tgt in sorted(targets):
                pair_list.append((s, tgt))

    lengths = kgraph.shortest_path_lengths(bundle.graph, pair_list) if pair_list else {}
    hist: dict[int, int] = {}
    unreachable = 0
    for pair in pair_list:
        dist = lengths[pair]
        if dist is None:
            unreachable += 1
        else:
            hist[dist] = hist.get(dist, 0) + 1

    by_dialogue: dict[str, list] = {}
    for t in bundle.turns:
        by_dialogue.setdefault(t.dialogue_id, []).append(t)
    geds = []
    for did in sorted(by_dialogue):
        seq = sorted(by_dialogue[did], key=lambda t: t.turn)
        for a, b in zip(seq, seq[1:]):
            geds.append(kgraph.graph_edit_distance(
                bundle.subgraphs[a.turn_id], bundle.subgraphs[b.turn_id]))

    n_dialogues = len(by_dialogue)
    n_turns = len(bundle.turns)
    return CorpusStats(
        n_dialogues=n_dialogues,
        n_turns=n_turns,
        n_tokens=n_tokens,
        avg_turns_per_dialogue=n_turns / n_dialogues if n_dialogues else 0.0,
        avg_tokens_per_turn=n_tokens / n_turns if n_turns else 0.0,
        n_unique_tokens=len(uniq),
        n_entities=len(vocab.entities),
        n_relation_types=len(vocab.relations),
        n_entity_occurrences=ent_occ,
        n_dialogues_with_entities=len(dialogues_with),
        n_turns_with_entities=turns_with,
        path_length_hist={k: hist[k] for k in sorted(hist)},
        unreachable_pairs=unreachable,
        ged_mean=float(np.mean(geds)) if geds else 0.0,
        ged_std=float(np.std(geds)) if geds else 0.0,
    )


# Published per-corpus reference statistics for the two TV-series
# corpora this pipeline is meant to reproduce; `stats --expect` compares
# a freshly ingested bundle against these row by row.
KNOWN_CORPUS_PROFILES = {
    "hgzhz": {
        "dialogues": 1247, "turns": 17164, "tokens": 462647,
        "avg_turns_per_dialogue": 13.76, "avg_tokens_per_turn": 26.95,
        "unique_tokens": 3624, "kg_entities": 174, "kg_relation_types": 9,
        "kg_entity_occurrences": 46059, "dialogues_with_entities": 1166,
        "turns_with_entities": 10110,
    },
    "friends": {
        "dialogues": 3092, "turns": 57757, "tokens": 838913,
        "avg_turns_per_dialogue": 18.68, "avg_tokens_per_turn": 14.52,
        "unique_tokens": 19762, "kg_entities": 281, "kg_relation_types": 7,
        "kg_entity_occurrences": 176550, "dialogues_with_entities": 2373,
        "turns_with_entities": 9199,
    },
}


def compare_stats(stats: CorpusStats, profile: str) -> list:
    """Row-by-row comparison against a known corpus profile. Returns
    (name, expected, actual, ok) rows; float rows tolerate 0.01."""
    if profile not in KNOWN_CORPUS_PROFILES:
        raise DataError(f"unknown corpus profile {profile!r}; "
                        f"have {sorted(KNOWN_CORPUS_PROFILES)}")
    expected = KNOWN_CORPUS_PROFILES[profile]
    out = []
    for name, actual in stats.rows():
        want = expected[name]
        if isinstance(want, float):
            ok = abs(float(actual) - want) <= 0.01
        else:
            ok = int(actual) == want
        out.append((name, want, actual, ok))
    return out


# ---------------------------------------------------------------------------
# Synthetic corpus
#
# A small social world: every person has exactly one friend, one
# residence and one occupation, so each (head, relation) pair names one
# triple. A template is a relation chain with its message and response
# text, and a grounded turn is its walk: from the drawn person, each
# relation of the chain follows that pair's triple. The answer is the
# walk's last tail, and the walked triples are the turn's ground-truth
# reasoning path, kept for oracle checks.


_PEOPLE = ("Ava", "Ben", "Cora", "Dan", "Elle", "Finn", "Gia", "Hugo", "Iris",
           "Jack", "Kira", "Liam", "Mona", "Nate", "Opal", "Pete", "Quinn",
           "Rosa", "Sam", "Tess", "Umar", "Vera", "Walt", "Xena", "Yuri",
           "Zara", "Amos", "Bree", "Cole", "Dina", "Ezra", "Faye", "Gus",
           "Hana", "Ivan", "June", "Kent", "Lena", "Milo", "Nora")
_PLACES = ("Lakeview", "Hillcrest", "Riverton", "Mapleton", "Seabrook",
           "Stonefield", "Westvale", "Northgate", "Eastwood", "Southport",
           "Fernridge", "Oakhurst", "Pinehollow", "Graystone", "Birchley",
           "Cedarfall")
_JOBS = ("baker", "tailor", "florist", "carpenter", "locksmith", "glazier",
         "cooper", "weaver", "potter", "farrier", "chandler", "mason")

REL_FRIEND = "friend_of"
REL_LIVES = "lives_in"
REL_WORKS = "works_as"

_CHITCHAT = (("hello there .", "hi ."),
             ("how are you ?", "fine thanks ."),
             ("see you later .", "bye for now ."),
             ("nice day today .", "yes it is ."))

# name -> (relation chain, message, response); {person} is the drawn
# person, {answer} the walk's last tail
TEMPLATE_CHAINS = {
    "residence": ((REL_LIVES,), "where does {person} live ?",
                  "{person} lives in {answer} ."),
    "occupation": ((REL_WORKS,), "what does {person} do ?",
                   "{person} works as a {answer} ."),
    "friend_residence": ((REL_FRIEND, REL_LIVES),
                         "where does the friend of {person} live ?",
                         "somewhere in {answer} i think ."),
    "friend_occupation": ((REL_FRIEND, REL_WORKS),
                          "what does the friend of {person} do ?",
                          "a {answer} maybe ."),
    "friend_friend_residence": (
        (REL_FRIEND, REL_FRIEND, REL_LIVES),
        "where does the friend of the friend of {person} live ?",
        "probably {answer} ."),
}
TEMPLATES = tuple(TEMPLATE_CHAINS)


@dataclass(frozen=True)
class SyntheticConfig:
    n_people: int = 30
    n_places: int = 12
    n_jobs: int = 8
    n_turns: int = 2000
    turns_per_dialogue: int = 5
    templates: tuple = TEMPLATES
    chitchat_rate: float = 0.1

    def __post_init__(self):
        if not self.templates:
            raise DataError("synthetic config needs at least one template")
        unknown = set(self.templates) - set(TEMPLATES)
        if unknown:
            raise DataError(f"unknown templates: {sorted(unknown)}")
        if self.n_people < 2 or self.n_places < 2 or self.n_jobs < 2:
            raise DataError("need at least 2 of each entity kind")
        if self.n_turns < 1 or self.turns_per_dialogue < 1:
            raise DataError("n_turns and turns_per_dialogue must be positive")
        if not 0.0 <= self.chitchat_rate < 1.0:
            raise DataError("chitchat_rate must be in [0, 1)")


@dataclass
class SyntheticCorpus:
    raw_turns: list
    graph: KnowledgeGraph
    lexicon: dict
    oracle_paths: dict   # turn id -> the walked triples of a grounded turn


def _names(base: tuple, prefix: str, n: int) -> list:
    out = list(base[:n])
    out.extend(f"{prefix}{i}" for i in range(len(out), n))
    return out


def generate_synthetic(config: SyntheticConfig, seed: int = 0) -> SyntheticCorpus:
    """A seeded world and its dialogues. Each person draws a friend, a
    residence and an occupation. Each turn is chitchat or a drawn
    template from a drawn person: a template is a relation chain
    (TEMPLATE_CHAINS), and the turn is its walk through the graph."""
    rng = np.random.default_rng(seed)
    people = _names(_PEOPLE, "Person", config.n_people)
    places = _names(_PLACES, "Placeton", config.n_places)
    jobs = _names(_JOBS, "trade", config.n_jobs)

    triples = []
    for p in people:
        others = [q for q in people if q != p]
        triples.extend([
            Triple(p, REL_FRIEND, others[int(rng.integers(len(others)))]),
            Triple(p, REL_LIVES, places[int(rng.integers(len(places)))]),
            Triple(p, REL_WORKS, jobs[int(rng.integers(len(jobs)))])])
    graph = KnowledgeGraph(triples, extra_entities=people + places + jobs)
    triple_of = {(t.head, t.relation): t for t in triples}

    raw_turns = []
    oracle_paths = {}
    speakers = ("speaker_a", "speaker_b")
    for i in range(config.n_turns):
        dialogue_idx = i // config.turns_per_dialogue
        turn_idx = i % config.turns_per_dialogue
        did = f"syn{dialogue_idx:05d}"
        if float(rng.random()) < config.chitchat_rate:
            msg, resp = _CHITCHAT[int(rng.integers(len(_CHITCHAT)))]
        else:
            template = config.templates[int(rng.integers(len(config.templates)))]
            person = people[int(rng.integers(len(people)))]
            chain, message, response = TEMPLATE_CHAINS[template]
            here, path = person, []
            for relation in chain:
                path.append(triple_of[here, relation])
                here = path[-1].tail
            msg = message.format(person=person)
            resp = response.format(person=person, answer=here)
            oracle_paths[f"{did}#{turn_idx}"] = tuple(path)
        raw_turns.append(RawTurn(
            dialogue_id=did, turn=turn_idx,
            speaker=speakers[(dialogue_idx + turn_idx) % 2],
            scene_entities=(), message=msg, response=resp))
    lexicon = {e: e for e in sorted(graph.entities)}
    return SyntheticCorpus(raw_turns=raw_turns, graph=graph, lexicon=lexicon,
                           oracle_paths=oracle_paths)
