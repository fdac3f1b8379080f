"""Intention labels for edits and a rule-based baseline classifier.

The fine-grained taxonomy refines language polishing into four
subclasses; the coarse one folds those back into a single class.  The
three non-language classes share their value strings across both
levels, so coarse_of is idempotent.
"""
from __future__ import annotations

from enum import Enum

from .corpus import SPECIAL_MARKERS, Sentence
from .edits import Edit, EditKind
from .errors import FormatError, decode_json


class IntentionLabel(Enum):
    LANG_ACCURATE = "Language-Accurate"
    LANG_STYLE = "Language-Style"
    LANG_SIMPLIFY = "Language-Simplify"
    LANG_OTHER = "Language-Other"
    GRAMMAR_TYPO = "Grammar-Typo"
    UPDATE_CONTENT = "Update-Content"
    ADJUST_FORMAT = "Adjust-Format"


class CoarseIntention(Enum):
    IMPROVE_LANGUAGE = "Improve-Language"
    GRAMMAR_TYPO = "Grammar-Typo"
    UPDATE_CONTENT = "Update-Content"
    ADJUST_FORMAT = "Adjust-Format"


_FINE_TO_COARSE = {
    IntentionLabel.LANG_ACCURATE: CoarseIntention.IMPROVE_LANGUAGE,
    IntentionLabel.LANG_STYLE: CoarseIntention.IMPROVE_LANGUAGE,
    IntentionLabel.LANG_SIMPLIFY: CoarseIntention.IMPROVE_LANGUAGE,
    IntentionLabel.LANG_OTHER: CoarseIntention.IMPROVE_LANGUAGE,
    IntentionLabel.GRAMMAR_TYPO: CoarseIntention.GRAMMAR_TYPO,
    IntentionLabel.UPDATE_CONTENT: CoarseIntention.UPDATE_CONTENT,
    IntentionLabel.ADJUST_FORMAT: CoarseIntention.ADJUST_FORMAT,
}

FINE_LABELS = tuple(l.value for l in IntentionLabel)
COARSE_LABELS = tuple(l.value for l in CoarseIntention)


def coarse_of(label: IntentionLabel | CoarseIntention) -> CoarseIntention:
    if isinstance(label, CoarseIntention):
        return label
    return _FINE_TO_COARSE[label]


# fine entries come last, so a fine label wins on the shared strings
_LABEL_BY_VALUE = {l.value: l for l in (*CoarseIntention, *IntentionLabel)}


def parse_label(raw, schema: str | None = None) -> IntentionLabel | CoarseIntention:
    """The label spelled raw.  The fine schema takes fine labels only;
    the coarse schema takes coarse labels and folds fine ones into them;
    no schema takes either.  Anything else raises ValueError."""
    if schema not in (None, "fine", "coarse"):
        raise ValueError(f"unknown schema {schema!r}")
    label = _LABEL_BY_VALUE.get(raw) if isinstance(raw, str) else None
    if schema == "fine" and not isinstance(label, IntentionLabel):
        hint = " (coarse label given)" if label is not None else ""
        raise ValueError(f"unknown fine label {raw!r}{hint}")
    if label is None:
        raise ValueError(f"unknown {schema + ' ' if schema else ''}label {raw!r}")
    return coarse_of(label) if schema == "coarse" else label


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance; case-sensitive."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# Word families whose members swap freely in captions and references;
# a substitute staying within one family is a formatting change.
FORMAT_WORD_FAMILIES = {
    "figure": "figure",
    "figures": "figure",
    "fig": "figure",
    "figs": "figure",
    "table": "table",
    "tables": "table",
    "tab": "table",
    "tabs": "table",
}

LONG_SPAN_TOKENS = 7
TYPO_MAX_DISTANCE = 2


def _is_formatting_token(t: str) -> bool:
    return t in SPECIAL_MARKERS or all(not c.isalnum() for c in t)


def _family_words(tokens: tuple[str, ...]) -> list[str] | None:
    words = []
    for t in tokens:
        if _is_formatting_token(t):
            continue
        fam = FORMAT_WORD_FAMILIES.get(t.lower())
        if fam is None:
            return None
        words.append(fam)
    return words


def classify_edit_rule(edit: Edit, src: Sentence, tgt: Sentence) -> IntentionLabel:
    """Deterministic baseline.  Cascade, first match wins:

    1. every touched token is a marker or punctuation, or a substitute
       that only renames within figure/table word families -> formatting;
    2. an insert or delete spanning LONG_SPAN_TOKENS or more -> content;
    3. a single-token substitute within edit distance
       TYPO_MAX_DISTANCE -> typo;
    4. anything else -> unspecified language polishing.
    """
    src_toks = src.tokens[edit.src_span[0]:edit.src_span[1]] if edit.src_span else ()
    tgt_toks = tgt.tokens[edit.tgt_span[0]:edit.tgt_span[1]] if edit.tgt_span else ()
    touched = src_toks + tgt_toks

    if touched and all(_is_formatting_token(t) for t in touched):
        return IntentionLabel.ADJUST_FORMAT
    if edit.kind is EditKind.SUBSTITUTE:
        fam_src = _family_words(src_toks)
        fam_tgt = _family_words(tgt_toks)
        if fam_src and fam_tgt and fam_src == fam_tgt:
            return IntentionLabel.ADJUST_FORMAT

    if edit.kind is EditKind.INSERT and len(tgt_toks) >= LONG_SPAN_TOKENS:
        return IntentionLabel.UPDATE_CONTENT
    if edit.kind is EditKind.DELETE and len(src_toks) >= LONG_SPAN_TOKENS:
        return IntentionLabel.UPDATE_CONTENT

    if (
        edit.kind is EditKind.SUBSTITUTE
        and len(src_toks) == 1
        and len(tgt_toks) == 1
        and levenshtein(src_toks[0], tgt_toks[0]) <= TYPO_MAX_DISTANCE
    ):
        return IntentionLabel.GRAMMAR_TYPO

    return IntentionLabel.LANG_OTHER


def ingest_predictions(
    lines: list[str], schema: str = "fine"
) -> tuple[dict[tuple[str, int], IntentionLabel | CoarseIntention], tuple[str, ...]]:
    """Parse JSONL intention predictions.

    Each record carries revision_id, edit_index and a label, read by
    parse_label under schema ("fine" or "coarse").  Malformed lines are
    collected, not raised, as messages naming their line.
    """
    if schema not in ("fine", "coarse"):
        raise ValueError(f"unknown schema {schema!r}")
    out: dict[tuple[str, int], IntentionLabel | CoarseIntention] = {}
    errors: list[str] = []
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = decode_json(line, FormatError, f"line {n}: bad JSON")
        except FormatError as exc:
            errors.append(str(exc))
            continue
        if not isinstance(rec, dict):
            errors.append(f"line {n}: expected a JSON object")
            continue
        missing = [k for k in ("revision_id", "edit_index", "label") if k not in rec]
        if missing:
            errors.append(f"line {n}: missing {', '.join(missing)}")
            continue
        rid, idx, raw = rec["revision_id"], rec["edit_index"], rec["label"]
        if (
            not isinstance(rid, str)
            or not isinstance(raw, str)
            or not isinstance(idx, int)
            or isinstance(idx, bool)
        ):
            errors.append(f"line {n}: revision_id and label must be str and edit_index int")
            continue
        try:
            label = parse_label(raw, schema)
        except ValueError as exc:
            errors.append(f"line {n}: {exc}")
            continue
        key = (rid, idx)
        if key in out:
            errors.append(f"line {n}: duplicate prediction for {key}")
            continue
        out[key] = label
    return out, tuple(errors)
