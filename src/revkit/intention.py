"""Intention labels for edits and a rule-based baseline classifier.

The fine-grained taxonomy refines language polishing into four
subclasses; the coarse one folds those back into a single class.  The
three non-language classes share their value strings across both
levels, so coarse_of is idempotent.
"""
from __future__ import annotations

from enum import Enum

from .corpus import Sentence, Token
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


def _is_formatting_token(t: Token) -> bool:
    return t.is_special or all(not c.isalnum() for c in t.surface)


def _family_words(tokens: tuple[Token, ...]) -> list[str] | None:
    words = []
    for t in tokens:
        if _is_formatting_token(t):
            continue
        fam = FORMAT_WORD_FAMILIES.get(t.surface.lower())
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
    touched = tuple(src_toks) + tuple(tgt_toks)

    if touched and all(_is_formatting_token(t) for t in touched):
        return IntentionLabel.ADJUST_FORMAT
    if edit.kind is EditKind.SUBSTITUTE:
        fam_src = _family_words(tuple(src_toks))
        fam_tgt = _family_words(tuple(tgt_toks))
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
        and levenshtein(src_toks[0].surface, tgt_toks[0].surface) <= TYPO_MAX_DISTANCE
    ):
        return IntentionLabel.GRAMMAR_TYPO

    return IntentionLabel.LANG_OTHER


def ingest_predictions(
    lines: list[str], schema: str = "fine"
) -> tuple[dict[tuple[str, int], IntentionLabel | CoarseIntention], tuple[str, ...]]:
    """Parse JSONL intention predictions.

    Each record carries revision_id, edit_index and label.  The fine
    schema accepts fine labels only; the coarse schema accepts coarse
    labels plus fine ones (folded down).  Malformed lines are collected,
    not raised, as messages naming their line.
    """
    if schema not in ("fine", "coarse"):
        raise ValueError(f"unknown schema {schema!r}")
    fine_by_value = {l.value: l for l in IntentionLabel}
    coarse_by_value = {l.value: l for l in CoarseIntention}
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
        label: IntentionLabel | CoarseIntention | None
        if schema == "fine":
            label = fine_by_value.get(raw)
            if label is None:
                hint = " (coarse label given)" if raw in coarse_by_value else ""
                errors.append(f"line {n}: unknown fine label {raw!r}{hint}")
                continue
        else:
            if raw in coarse_by_value:
                label = coarse_by_value[raw]
            elif raw in fine_by_value:
                label = coarse_of(fine_by_value[raw])
            else:
                errors.append(f"line {n}: unknown label {raw!r}")
                continue
        key = (rid, idx)
        if key in out:
            errors.append(f"line {n}: duplicate prediction for {key}")
            continue
        out[key] = label
    return out, tuple(errors)
