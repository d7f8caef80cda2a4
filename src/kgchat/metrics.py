"""Scoring for grounded dialogue runs.

Two families live here. Quality metrics compare model output against
reference responses: entity accuracy under teacher forcing (hard argmax
and soft probability variants), micro precision/recall/F1 of the
entity-vs-generic decision, token-level precision/recall/F1 over the
entities a free-running decode actually produced, sentence BLEU-2,
perplexity (qadpt.perplexity, the one validation reads), and
distinct-n. Adaptation metrics compare a decode against
a re-decode after the knowledge graph was edited: the change rate and
the accurate change rate.

Every scorer is a pure function of plain token sequences and counts, so
a saved report replays exactly. `evaluate_report` drives a model over
examples and assembles the full `EvalReport`; `perturbation_report`
does the same for a perturbed run. An EvalReport's scalars are one
`metrics` dict derived from its per-turn records; `load_report` derives
it again and refuses a report.json whose stored metrics differ.
Reports serialize to JSON, and an EvalReport's scalar table (every name
in METRIC_NAMES) to CSV.

Conventions shared by the scorers:
- "entity" means the token is in the entity vocabulary passed in.
- Undefined values (no entity position in the gold data, empty
  denominator) are reported as None, never as 0.
- BLEU-2 is add-one smoothed per order; the corpus mean is scaled by
  100 in reports.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import EOS, UNK, JsonRecord, _load_json, atomic_open
from .kgraph import PERTURB_MODES
from .qadpt import (MAX_DECODE_LEN, InferredPath, QadptModel, _decode_paths,
                    greedy_decode, perplexity, teacher_force)

__all__ = [
    "MetricError", "PRF", "TokenPRF", "kw_acc", "kw_acc_soft",
    "kw_generic_prf", "generated_kw_prf", "bleu2_sentence", "perplexity",
    "distinct_n", "change_rate", "accurate_change_rate", "TurnEval",
    "EvalReport", "evaluate_report", "PerturbTurnEval", "PerturbReport",
    "perturbation_report", "load_report", "load_perturb_report",
    "recompute_scalars", "METRIC_NAMES",
]

# The scalar table of an EvalReport, in report order. A grouped name
# "<group>_<part>" reads `part` of the report's `group` metric.
METRIC_NAMES = (
    "ppl", "kw_acc", "kw_acc_soft", "kw_generic_precision",
    "kw_generic_recall", "kw_generic_f1", "generated_kw_precision",
    "generated_kw_recall", "generated_kw_f1", "bleu2", "distinct_1",
    "distinct_2", "distinct_3", "distinct_4", "unreachable_targets",
)


class MetricError(ValueError):
    """Ill-posed scoring request: mismatched runs, empty corpus."""


def _f1(precision, recall):
    if precision is None or recall is None:
        return None
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class PRF:
    """Micro counts for a binary per-position decision."""
    tp: int
    fp: int
    fn: int

    @property
    def precision(self):
        return None if self.tp + self.fp == 0 else self.tp / (self.tp + self.fp)

    @property
    def recall(self):
        return None if self.tp + self.fn == 0 else self.tp / (self.tp + self.fn)

    @property
    def f1(self):
        return _f1(self.precision, self.recall)

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall,
                "f1": self.f1}


@dataclass(frozen=True)
class TokenPRF:
    """Micro counts for token-in-set matching. Duplicates count, and the
    two directions have independent numerators: a generated token scores
    toward precision when the reference set contains it, a reference
    token toward recall when the generated set contains it."""
    p_num: int
    p_den: int
    r_num: int
    r_den: int

    @property
    def precision(self):
        return None if self.p_den == 0 else self.p_num / self.p_den

    @property
    def recall(self):
        return None if self.r_den == 0 else self.r_num / self.r_den

    @property
    def f1(self):
        return _f1(self.precision, self.recall)

    def to_dict(self) -> dict:
        return {"p_num": self.p_num, "p_den": self.p_den,
                "r_num": self.r_num, "r_den": self.r_den,
                "precision": self.precision, "recall": self.recall,
                "f1": self.f1}


def _check_parallel(a, b, what: str):
    if len(a) != len(b):
        raise MetricError(f"{what}: got {len(a)} vs {len(b)} turns")


# ---------------------------------------------------------------------------
# Teacher-forced entity metrics


def kw_acc(entities: Iterable[str], target_seqs: Sequence[Sequence[str]],
           argmax_seqs: Sequence[Sequence[str]]):
    """Fraction of gold entity positions the per-position argmax got
    right. None when the gold data has no entity positions."""
    ents = set(entities)
    _check_parallel(target_seqs, argmax_seqs, "kw_acc")
    hit = total = 0
    for gold, pred in zip(target_seqs, argmax_seqs):
        _check_parallel(gold, pred, "kw_acc positions")
        for g, p in zip(gold, pred):
            if g in ents:
                total += 1
                hit += g == p
    return None if total == 0 else hit / total


def kw_acc_soft(entities: Iterable[str], target_seqs: Sequence[Sequence[str]],
                prob_seqs: Sequence[Sequence[float]]):
    """Mean model probability of the gold token at entity positions."""
    ents = set(entities)
    _check_parallel(target_seqs, prob_seqs, "kw_acc_soft")
    mass = 0.0
    total = 0
    for gold, probs in zip(target_seqs, prob_seqs):
        _check_parallel(gold, probs, "kw_acc_soft positions")
        for g, p in zip(gold, probs):
            if g in ents:
                total += 1
                mass += float(p)
    return None if total == 0 else mass / total


def kw_generic_prf(entities: Iterable[str],
                   target_seqs: Sequence[Sequence[str]],
                   argmax_seqs: Sequence[Sequence[str]]) -> PRF:
    """Did the model choose the entity branch exactly when the gold
    token was an entity? Scored per position, micro-averaged."""
    ents = set(entities)
    _check_parallel(target_seqs, argmax_seqs, "kw_generic_prf")
    tp = fp = fn = 0
    for gold, pred in zip(target_seqs, argmax_seqs):
        _check_parallel(gold, pred, "kw_generic_prf positions")
        for g, p in zip(gold, pred):
            gold_e, pred_e = g in ents, p in ents
            if gold_e and pred_e:
                tp += 1
            elif pred_e:
                fp += 1
            elif gold_e:
                fn += 1
    return PRF(tp=tp, fp=fp, fn=fn)


# ---------------------------------------------------------------------------
# Free-running entity metrics


def generated_kw_prf(entities: Iterable[str],
                     ref_seqs: Sequence[Sequence[str]],
                     gen_seqs: Sequence[Sequence[str]]) -> TokenPRF:
    """Token-level entity overlap between decoded output and reference.
    A generated entity token counts toward precision when the reference
    mentions that entity anywhere; symmetric for recall. Repeating an
    entity repeats its contribution."""
    ents = set(entities)
    _check_parallel(ref_seqs, gen_seqs, "generated_kw_prf")
    p_num = p_den = r_num = r_den = 0
    for ref, gen in zip(ref_seqs, gen_seqs):
        ref_ent = [t for t in ref if t in ents]
        gen_ent = [t for t in gen if t in ents]
        ref_set, gen_set = set(ref_ent), set(gen_ent)
        p_den += len(gen_ent)
        p_num += sum(1 for t in gen_ent if t in ref_set)
        r_den += len(ref_ent)
        r_num += sum(1 for t in ref_ent if t in gen_set)
    return TokenPRF(p_num=p_num, p_den=p_den, r_num=r_num, r_den=r_den)


# ---------------------------------------------------------------------------
# Sequence-level metrics


def _ngrams(seq: Sequence[str], n: int) -> list:
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def bleu2_sentence(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Geometric mean of add-one smoothed modified 1- and 2-gram
    precisions, times the brevity penalty. An empty hypothesis scores 0."""
    hyp = list(hypothesis)
    ref = list(reference)
    if not hyp:
        return 0.0
    score = 1.0
    for n in (1, 2):
        hyp_grams = Counter(_ngrams(hyp, n))
        ref_grams = Counter(_ngrams(ref, n))
        clipped = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        total = sum(hyp_grams.values())
        score *= (clipped + 1.0) / (total + 1.0)
    bp = math.exp(min(0.0, 1.0 - len(ref) / len(hyp)))
    return math.sqrt(score) * bp


def distinct_n(outputs: Sequence[Sequence[str]], n: int) -> float:
    """Unique n-grams across all outputs divided by total n-grams."""
    if n < 1:
        raise MetricError(f"distinct-n needs n >= 1, got {n}")
    grams = []
    for seq in outputs:
        grams.extend(_ngrams(list(seq), n))
    if not grams:
        return 0.0
    return len(set(grams)) / len(grams)


# ---------------------------------------------------------------------------
# Graph-adaptation metrics


def change_rate(original_seqs: Sequence[Sequence[str]],
                perturbed_seqs: Sequence[Sequence[str]]) -> float:
    """Fraction of turns whose output changed at all (exact token
    sequence comparison)."""
    _check_parallel(original_seqs, perturbed_seqs, "change_rate")
    if not original_seqs:
        raise MetricError("change_rate over zero turns")
    changed = sum(tuple(a) != tuple(b)
                  for a, b in zip(original_seqs, perturbed_seqs))
    return changed / len(original_seqs)


def _turn_flags(ents: set, mode: str, original, perturbed, hypothesis,
                targets) -> tuple:
    """(changed, accurate) of one perturbed turn; `accurate` is None
    when the original reply holds no entity. A whole-graph swap's
    targets are the original reply's entities."""
    orig_ents = {t for t in original if t in ents}
    if not orig_ents:
        return original != perturbed, None
    if hypothesis is None:
        raise MetricError("missing hypothesis set")
    pert_tokens = set(perturbed)
    clean = not ((orig_ents if mode == "all" else set(targets)) & pert_tokens)
    # only a hypothesis entity the original output lacked witnesses
    # adaptation; this also makes accurate imply changed
    adapted = bool(set(hypothesis) & pert_tokens - set(original))
    return original != perturbed, clean and adapted


def accurate_change_rate(entities: Iterable[str],
                         original_seqs: Sequence[Sequence[str]],
                         perturbed_seqs: Sequence[Sequence[str]],
                         hypotheses: Sequence,
                         mode: str,
                         targets: Sequence | None = None):
    """Fraction of entity-bearing turns that adapted correctly: every
    perturbation-target entity gone from the new output, and at least
    one hypothesis entity present that the original output lacked. For
    whole-graph swaps the targets are all entities the original output
    contained; for tail edits the caller passes the replaced tails per
    turn. Turns whose original output had no entity are excluded; None
    when none remain."""
    if mode not in PERTURB_MODES:
        raise MetricError(f"unknown perturbation mode {mode!r}")
    if mode == "all":
        targets = [()] * len(original_seqs)
    elif targets is None:
        raise MetricError(f"mode {mode!r} needs per-turn target entities")
    for seqs, what in ((perturbed_seqs, ""), (hypotheses, " hypotheses"),
                       (targets, " targets")):
        _check_parallel(original_seqs, seqs, f"accurate_change_rate{what}")
    ents = set(entities)
    turns = zip(original_seqs, perturbed_seqs, hypotheses, targets)
    return _flag_rate([_turn_flags(ents, mode, *turn)[1] for turn in turns])


def _flag_rate(flags: list):
    scored = [f for f in flags if f is not None]
    if not scored:
        return None
    return sum(scored) / len(scored)


# ---------------------------------------------------------------------------
# Full evaluation reports


@dataclass(frozen=True)
class TurnEval(JsonRecord):
    """Everything one turn contributed, sufficient to re-score."""
    turn_id: str
    reference: tuple[str, ...]       # reference response tokens
    generated: tuple[str, ...]
    target_full: tuple[str, ...]     # reference tokens plus the closing EOS
    argmax_tokens: tuple[str, ...]   # per-position argmax under teacher forcing
    gold_probs: tuple[float, ...]
    unreachable: int
    paths: tuple[InferredPath, ...]  # one per emitted entity (qadpt)
    bleu2: float

    @classmethod
    def from_dict(cls, d) -> "TurnEval":
        """The record `to_dict` wrote, whose `target_full` is its reference
        (UNK for a word outside the vocabulary) plus EOS, and whose
        `bleu2` is the one its replies give."""
        turn = super().from_dict(d)
        full = turn.target_full
        if full != tuple(ref if ref == t else UNK
                         for ref, t in zip(turn.reference, full)) + (EOS,):
            raise ValueError(f"turn {turn.turn_id!r}: target_full is not its "
                             f"reference plus {EOS}")
        if turn.bleu2 != bleu2_sentence(turn.generated, turn.reference):
            raise ValueError(f"turn {turn.turn_id!r}: bleu2 {turn.bleu2} is "
                             f"not the one its replies give")
        return turn


@dataclass
class EvalReport(JsonRecord):
    kind: str
    entities: tuple[str, ...]  # entity vocabulary the scores refer to
    n_turns: int
    metrics: dict              # _scalars(entities, turns), as JSON stores it
    turns: list[TurnEval]
    config: dict = field(default_factory=dict)

    def metric_rows(self) -> list:
        """(name, value) pairs in METRIC_NAMES order."""
        flat = {}
        for key, value in self.metrics.items():
            if isinstance(value, dict):
                flat.update((f"{key}_{part}", v) for part, v in value.items())
            else:
                flat[key] = value
        return [(name, flat[name]) for name in METRIC_NAMES]

    def save_csv(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for name, value in self.metric_rows():
                writer.writerow([name, "" if value is None else value])

    @classmethod
    def from_dict(cls, d) -> "EvalReport":
        """The report `to_dict` wrote. Its metrics must be exactly the
        ones its per-turn records give, each of the same JSON type."""
        report = super().from_dict(d)
        if not _same_json(report.metrics,
                          _scalars(report.entities, report.turns)):
            raise ValueError("metrics differ from those the turn records give")
        if report.n_turns != len(report.turns):
            raise ValueError(f"n_turns {report.n_turns} != "
                             f"{len(report.turns)} turn records")
        return report


def _same_json(a, b) -> bool:
    """a == b, and every value of the same type: false is not 0, nor
    1.0 the integer 1."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    return a == b


def load_report(path) -> EvalReport:
    """Read a report.json. A file that is not JSON, lacks a field, holds
    one of the wrong type or one the report does not declare, stores a
    turn whose `bleu2` or `target_full` its replies do not give, or
    stores metrics its turn records do not give raises DataError naming
    the file."""
    return _load_json(Path(path), EvalReport.from_dict)


def recompute_scalars(report: EvalReport) -> dict:
    """Re-derive every scalar from the per-turn records alone. Used to
    prove a stored report replays."""
    return _scalars(report.entities, report.turns)


def _scalars(ents, turns) -> dict:
    targets = [t.target_full for t in turns]
    argmax = [t.argmax_tokens for t in turns]
    gens = [t.generated for t in turns]
    refs = [t.reference for t in turns]
    generic = kw_generic_prf(ents, targets, argmax)
    gen_kw = generated_kw_prf(ents, refs, gens)
    return {
        "ppl": perplexity([t.gold_probs for t in turns]),
        "kw_acc": kw_acc(ents, targets, argmax),
        "kw_acc_soft": kw_acc_soft(ents, targets,
                                   [t.gold_probs for t in turns]),
        "kw_generic": generic.to_dict(),
        "generated_kw": gen_kw.to_dict(),
        "bleu2": 100.0 * float(np.mean([t.bleu2 for t in turns])),
        "distinct": {str(n): distinct_n(gens, n) for n in (1, 2, 3, 4)},
        "unreachable_targets": sum(t.unreachable for t in turns),
    }


def evaluate_report(model: QadptModel, examples,
                    max_len: int = MAX_DECODE_LEN,
                    config: dict | None = None) -> EvalReport:
    """Run free-running and teacher-forced passes and score everything.
    Each turn is encoded once: the decode hands its encoder state to
    teacher forcing."""
    if not examples:
        raise MetricError("no turns to evaluate")
    id_to_token = model.vocab.id_to_token
    turns = []
    for ex in examples:
        dec = greedy_decode(model, ex, max_len=max_len)
        tf = teacher_force(model, ex, encoded=dec.encoded)
        reference = tuple(ex.target_tokens)
        turns.append(TurnEval(
            turn_id=ex.turn_id,
            reference=reference,
            generated=tuple(dec.tokens),
            target_full=tuple(id_to_token[i] for i in ex.target_ids),
            argmax_tokens=tuple(id_to_token[i] for i in tf.argmax_ids),
            gold_probs=tuple(tf.gold_probs),
            unreachable=tf.unreachable,
            paths=_decode_paths(model, ex, dec),
            bleu2=bleu2_sentence(dec.tokens, reference),
        ))
    entities = model.vocab.entities
    return EvalReport(
        kind=model.kind, entities=entities, n_turns=len(turns),
        metrics=_scalars(entities, turns), turns=turns,
        config=dict(config or {}))


# ---------------------------------------------------------------------------
# Perturbation reports


@dataclass(frozen=True)
class PerturbTurnEval(JsonRecord):
    turn_id: str
    original: tuple[str, ...]
    perturbed: tuple[str, ...]
    hypothesis: tuple[str, ...]    # sorted
    targets: tuple[str, ...]       # sorted perturbation-target entities
    skipped: bool
    changed: bool | None       # None when skipped
    accurate: bool | None      # None when skipped or no original entity


@dataclass
class PerturbReport(JsonRecord):
    mode: str
    entities: tuple[str, ...]  # entity vocabulary the flags refer to
    n_turns: int               # turns that were actually perturbed
    n_skipped: int
    change_rate: float | None
    accurate_change_rate: float | None
    turns: list[PerturbTurnEval]
    config: dict

    @classmethod
    def from_dict(cls, d) -> "PerturbReport":
        """The report `to_dict` wrote. A skipped turn must keep its reply
        and name no hypothesis or target; each other turn's `changed`
        and `accurate` flags must be the ones its replies, hypothesis and
        targets give under the report's mode and entities; and the
        counts and rates must be the ones those turn records give."""
        report = super().from_dict(d)
        if report.mode not in PERTURB_MODES:
            raise ValueError(f"unknown perturbation mode {report.mode!r}")
        ents = set(report.entities)
        for t in report.turns:
            if t.skipped and (t.perturbed != t.original or t.hypothesis
                              or t.targets):
                raise ValueError(f"turn {t.turn_id!r}: skipped, yet its "
                                 f"reply changed or it names an edit")
            flags = ((None, None) if t.skipped else
                     _turn_flags(ents, report.mode, t.original, t.perturbed,
                                 t.hypothesis, t.targets))
            if (t.changed, t.accurate) != flags:
                raise ValueError(f"turn {t.turn_id!r}: changed {t.changed}, "
                                 f"accurate {t.accurate} disagree with its "
                                 f"replies")
        if report.n_turns + report.n_skipped != len(report.turns):
            raise ValueError(f"n_turns {report.n_turns} + n_skipped "
                             f"{report.n_skipped} != {len(report.turns)} "
                             f"turn records")
        scalars = _perturb_scalars(report.turns)
        if {key: getattr(report, key) for key in scalars} != scalars:
            raise ValueError("counts or rates differ from those the turn "
                             "records give")
        return report


def load_perturb_report(path) -> PerturbReport:
    """Read a perturb.json. A file that is not JSON, lacks a field, holds
    one of the wrong type or one the report does not declare, holds a
    skipped turn with another reply or an edit, or stores counts, rates
    or flags its turn records do not give raises DataError naming the
    file."""
    return _load_json(Path(path), PerturbReport.from_dict)


def perturbation_report(entities: Iterable[str], runs, mode: str,
                        config: dict | None = None) -> PerturbReport:
    """Score a perturb-and-redecode run. Skipped turns (no editable path)
    stay in the record list but outside both rates. A tail edit's
    targets are the tails it replaced."""
    if mode not in PERTURB_MODES:
        raise MetricError(f"unknown perturbation mode {mode!r}")
    entities = tuple(entities)
    ents = set(entities)
    turns = []
    for r in runs:
        original = tuple(r.original_tokens)
        perturbed = tuple(r.perturbed_tokens)
        hypothesis = targets = ()
        flags = (None, None)
        if r.edit is not None:
            hypothesis = tuple(sorted(r.edit.hypothesis))
            targets = tuple(sorted({old.tail for old, _ in r.edit.edits}))
            flags = _turn_flags(ents, mode, original, perturbed, hypothesis,
                                targets)
        turns.append(PerturbTurnEval(
            turn_id=r.turn_id, original=original, perturbed=perturbed,
            hypothesis=hypothesis, targets=targets, skipped=r.edit is None,
            changed=flags[0], accurate=flags[1]))
    return PerturbReport(mode=mode, entities=entities,
                         **_perturb_scalars(turns), turns=turns,
                         config=dict(config or {}))


def _perturb_scalars(turns) -> dict:
    return {"n_turns": sum(not t.skipped for t in turns),
            "n_skipped": sum(t.skipped for t in turns),
            "change_rate": _flag_rate([t.changed for t in turns]),
            "accurate_change_rate": _flag_rate([t.accurate for t in turns])}
