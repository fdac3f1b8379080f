"""Evaluation: precision/recall/F1 for alignment, edit extraction
against multi-reference gold, and label classification."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import DocVersion
from .edits import Edit
from .sent_align import SentenceAlignment


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f, tp, fp, fn)


def eval_alignment(
    pred: SentenceAlignment,
    gold: SentenceAlignment,
    src: DocVersion,
    tgt: DocVersion,
) -> PRF:
    """Score predicted sentence pairs against gold ones.

    Pairs whose two sentences have identical normalized text are dropped
    from both sides first: they are trivially retrievable and would
    inflate every system equally.  Both alignments must be for src and
    tgt, and every sentence they pair must exist there: the caller
    validates them first (SentenceAlignment.validate_against, which
    `eval --task alignment` runs as it reads each alignment file).
    """

    def interesting(pairs: Iterable) -> set:
        return {
            (s, t)
            for s, t in pairs
            if not src.sentence(s).same_text(tgt.sentence(t))
        }

    p = interesting(pred.positive_pairs())
    g = interesting(gold.positive_pairs())
    return PRF.from_counts(len(p & g), len(p - g), len(g - p))


@dataclass(frozen=True)
class EditEvalResult:
    prf: PRF
    exact_match: bool


def _edit_keys(edits: Iterable[Edit]) -> frozenset[tuple]:
    return frozenset(e.key() for e in edits)


def _score_against(pred_keys: frozenset, alt_keys: frozenset) -> PRF:
    if not pred_keys and not alt_keys:
        # both agree nothing changed; count that as full credit
        return PRF(1.0, 1.0, 1.0, 0, 0, 0)
    return PRF.from_counts(
        len(pred_keys & alt_keys), len(pred_keys - alt_keys), len(alt_keys - pred_keys)
    )


def eval_edits(
    pred: Iterable[Edit], gold_alternatives: Sequence[Sequence[Edit]]
) -> EditEvalResult:
    """Score predicted edits against the closest gold alternative.

    Identity is spans plus kind; intention labels do not matter here.
    The alternative maximizing F1 wins (first one on ties), and exact
    match holds when some alternative is reproduced in full.
    """
    if not gold_alternatives:
        raise ValueError("need at least one gold alternative")
    pred_keys = _edit_keys(pred)
    alt_keys = [_edit_keys(alt) for alt in gold_alternatives]
    best = max((_score_against(pred_keys, a) for a in alt_keys), key=lambda s: s.f1)
    return EditEvalResult(best, any(pred_keys == a for a in alt_keys))


@dataclass(frozen=True)
class CorpusEditEval:
    micro: PRF
    exact_match_rate: float
    pairs: int


def eval_edits_corpus(
    items: Sequence[tuple[Iterable[Edit], Sequence[Sequence[Edit]]]]
) -> CorpusEditEval:
    """Micro-averaged edit scores: counts against each pair's best
    alternative are pooled before computing precision and recall."""
    if not items:
        raise ValueError("no sentence pairs to evaluate")
    tp = fp = fn = 0
    em = 0
    for pred, alts in items:
        res = eval_edits(pred, alts)
        tp += res.prf.tp
        fp += res.prf.fp
        fn += res.prf.fn
        em += res.exact_match
    if tp + fp + fn == 0:
        micro = PRF(1.0, 1.0, 1.0, 0, 0, 0)
    else:
        micro = PRF.from_counts(tp, fp, fn)
    return CorpusEditEval(micro, em / len(items), len(items))


@dataclass(frozen=True)
class ClassificationReport:
    per_class: dict[str, PRF]
    support: dict[str, int]
    accuracy: float
    weighted_f1: float


def eval_classification(preds: Sequence[str], golds: Sequence[str]) -> ClassificationReport:
    """Per-class precision/recall/F1 plus accuracy and support-weighted
    F1 over whatever label strings are given."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(golds)} golds")
    if not golds:
        raise ValueError("nothing to evaluate")
    hits = Counter(p for p, g in zip(preds, golds) if p == g)
    predicted, gold = Counter(preds), Counter(golds)
    classes = sorted(predicted.keys() | gold.keys())
    per_class = {c: PRF.from_counts(hits[c], predicted[c] - hits[c], gold[c] - hits[c]) for c in classes}
    support = {c: gold[c] for c in classes}
    accuracy = sum(hits.values()) / len(golds)
    weighted = sum(support[c] * per_class[c].f1 for c in classes) / len(golds)
    return ClassificationReport(per_class, support, accuracy, weighted)
