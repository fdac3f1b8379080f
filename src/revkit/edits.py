"""Span-level edit extraction between an aligned sentence pair.

An edit is a tuple of a source span, a target span, and a kind: inserts
carry no source span, deletes no target span, substitutes replace one
span by another, and reorders mark moved blocks whose surfaces are
identical.  Extraction works either from a token diff or from a word
alignment; the word-alignment route groups links into mutually-aligned
span pairs (optionally widened to constituency-tree nodes) and treats
unaligned runs as pure insertions/deletions.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .corpus import Sentence
from .doc_ops import link_components
from .myers import DiffRun, myers_diff
from .trees import ParseTree

if TYPE_CHECKING:  # pragma: no cover
    from .intention import CoarseIntention, IntentionLabel

Span = tuple[int, int]


class EditKind(Enum):
    INSERT = "insert"
    DELETE = "delete"
    SUBSTITUTE = "substitute"
    REORDER = "reorder"


@dataclass(frozen=True)
class Edit:
    """One atomic revision operation over half-open token spans.

    src_span is None exactly for inserts, tgt_span exactly for deletes;
    present spans must be non-empty.
    """

    src_span: Span | None
    tgt_span: Span | None
    kind: EditKind
    intention: "IntentionLabel | CoarseIntention | None" = None

    def __post_init__(self) -> None:
        if (self.src_span is None) != (self.kind is EditKind.INSERT):
            raise ValueError("src_span must be absent exactly for inserts")
        if (self.tgt_span is None) != (self.kind is EditKind.DELETE):
            raise ValueError("tgt_span must be absent exactly for deletes")
        for span in (self.src_span, self.tgt_span):
            if span is not None:
                a, b = span
                if a < 0 or b <= a:
                    raise ValueError(f"span {span} must be non-empty and non-negative")

    def key(self) -> tuple:
        """Identity used by evaluation: spans and kind, intention ignored."""
        return (self.src_span, self.tgt_span, self.kind.value)


def edit_sort_key(e: Edit) -> tuple:
    # deterministic total order: src-anchored edits first, inserts after,
    # each ordered by their spans
    return (
        e.src_span is None,
        e.src_span or (0, 0),
        e.tgt_span is None,
        e.tgt_span or (0, 0),
        e.kind.value,
    )


def _span_surfaces(s: Sentence, span: Span | None) -> tuple[str, ...]:
    if span is None:
        return ()
    return tuple(t.surface for t in s.tokens[span[0]:span[1]])


@dataclass(frozen=True)
class SentenceRevision:
    """An aligned sentence pair with its extracted (or gold) edits,
    stored in canonical order."""

    src: Sentence
    tgt: Sentence
    edits: tuple[Edit, ...]

    def __post_init__(self) -> None:
        edits = tuple(sorted(self.edits, key=edit_sort_key))
        object.__setattr__(self, "edits", edits)
        for e in edits:
            if e.src_span is not None and e.src_span[1] > len(self.src.tokens):
                raise ValueError(f"edit {e} exceeds the source sentence")
            if e.tgt_span is not None and e.tgt_span[1] > len(self.tgt.tokens):
                raise ValueError(f"edit {e} exceeds the target sentence")
            if e.kind is EditKind.SUBSTITUTE and _span_surfaces(self.src, e.src_span) == _span_surfaces(self.tgt, e.tgt_span):
                raise ValueError(f"substitute {e} has identical surfaces")
            if e.kind is EditKind.REORDER and _span_surfaces(self.src, e.src_span) != _span_surfaces(self.tgt, e.tgt_span):
                raise ValueError(f"reorder {e} must have identical surfaces")
        for side in ("src_span", "tgt_span"):
            spans = sorted(getattr(e, side) for e in edits if getattr(e, side) is not None)
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                if b0 < a1:
                    raise ValueError(f"overlapping {side}s {((a0, a1), (b0, b1))}")

    @property
    def revision_id(self) -> str:
        s, t = self.src.id, self.tgt.id
        return f"v{s.version}p{s.paragraph}s{s.sentence}-v{t.version}p{t.paragraph}s{t.sentence}"


@dataclass(frozen=True)
class WordAlignment:
    """Word-level links between a sentence pair, as 0-based index pairs."""

    links: frozenset[tuple[int, int]]

    def validate(self, src_len: int, tgt_len: int) -> None:
        for i, j in self.links:
            if not (0 <= i < src_len and 0 <= j < tgt_len):
                raise ValueError(f"link {(i, j)} out of range for lengths {(src_len, tgt_len)}")


# ---------------------------------------------------------------------------
# diff-based extraction

def diff_to_edits(script: Sequence[DiffRun]) -> set[Edit]:
    """Convert a diff script to edits: each changed region with both a
    delete and an insert run becomes one substitute; lone runs map to
    deletes/inserts."""
    edits: set[Edit] = set()
    i = 0
    while i < len(script):
        if script[i].op == "keep":
            i += 1
            continue
        del_run: DiffRun | None = None
        ins_run: DiffRun | None = None
        while i < len(script) and script[i].op != "keep":
            if script[i].op == "delete":
                del_run = script[i]
            else:
                ins_run = script[i]
            i += 1
        if del_run is not None and ins_run is not None:
            edits.add(Edit((del_run.a_start, del_run.a_end),
                           (ins_run.b_start, ins_run.b_end), EditKind.SUBSTITUTE))
        elif del_run is not None:
            edits.add(Edit((del_run.a_start, del_run.a_end), None, EditKind.DELETE))
        else:
            assert ins_run is not None
            edits.add(Edit(None, (ins_run.b_start, ins_run.b_end), EditKind.INSERT))
    return edits


def edits_from_diff(src: Sentence, tgt: Sentence) -> set[Edit]:
    """Extract edits by diffing the token surfaces (case-sensitive)."""
    return diff_to_edits(myers_diff(src.surfaces(), tgt.surfaces()))


# ---------------------------------------------------------------------------
# word-alignment-based extraction

def strip_identical_boundaries(e: Edit, src: Sentence, tgt: Sentence) -> Edit | None:
    """Trim identical leading/trailing tokens off a substitute.

    A substitute that strips to nothing returns None; stripping one side
    empty demotes the edit to an insert or delete.  Other kinds pass
    through untouched.  Idempotent.
    """
    if e.kind is not EditKind.SUBSTITUTE:
        return e
    a, b = e.src_span
    c, d = e.tgt_span
    while a < b and c < d and src.tokens[a].surface == tgt.tokens[c].surface:
        a += 1
        c += 1
    while b > a and d > c and src.tokens[b - 1].surface == tgt.tokens[d - 1].surface:
        b -= 1
        d -= 1
    if a == b and c == d:
        return None
    if a == b:
        return Edit(None, (c, d), EditKind.INSERT, e.intention)
    if c == d:
        return Edit((a, b), None, EditKind.DELETE, e.intention)
    return Edit((a, b), (c, d), EditKind.SUBSTITUTE, e.intention)


class _SpanPair(NamedTuple):
    src: Span
    tgt: Span


def _link_components(links: Iterable[tuple[int, int]]) -> list[_SpanPair]:
    """Connected components of links sharing a source or target token,
    rendered as the envelope of their index ranges."""
    return sorted(
        _SpanPair((min(si), max(si) + 1), (min(tj), max(tj) + 1))
        for si, tj in link_components(links)
    )


def _overlap(a: Span, b: Span) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _adjacent_ordered(p: _SpanPair, q: _SpanPair) -> bool:
    # p immediately before q on both sides
    return p.src[1] == q.src[0] and p.tgt[1] == q.tgt[0]


def _merge(p: _SpanPair, q: _SpanPair) -> _SpanPair:
    return _SpanPair(
        (min(p.src[0], q.src[0]), max(p.src[1], q.src[1])),
        (min(p.tgt[0], q.tgt[0]), max(p.tgt[1], q.tgt[1])),
    )


def _close_span_pairs(pairs: list[_SpanPair], src: Sentence, tgt: Sentence) -> list[_SpanPair]:
    """Fixpoint closure over span pairs.

    Pairs overlapping on either side must merge (their edits could not
    otherwise be disjoint).  Pairs exactly adjacent on both sides, in the
    same order, merge only when both already differ from their target
    surfaces; identical (copy) pairs stay separate so that crossing
    copies remain visible to reorder detection.
    """

    def changed(p: _SpanPair) -> bool:
        return (
            _span_surfaces(src, p.src) != _span_surfaces(tgt, p.tgt)
        )

    work = list(pairs)
    merged = True
    while merged:
        merged = False
        for x in range(len(work)):
            for y in range(x + 1, len(work)):
                p, q = work[x], work[y]
                if _overlap(p.src, q.src) or _overlap(p.tgt, q.tgt):
                    pass
                elif (_adjacent_ordered(p, q) or _adjacent_ordered(q, p)) and changed(p) and changed(q):
                    pass
                else:
                    continue
                work[x] = _merge(p, q)
                del work[y]
                merged = True
                break
            if merged:
                break
    return sorted(work)


def _emit_edits(pairs: list[_SpanPair], src: Sentence, tgt: Sentence) -> set[Edit]:
    edits: set[Edit] = set()
    covered_src = [False] * len(src.tokens)
    covered_tgt = [False] * len(tgt.tokens)
    for p in pairs:
        for i in range(*p.src):
            covered_src[i] = True
        for j in range(*p.tgt):
            covered_tgt[j] = True
        if _span_surfaces(src, p.src) == _span_surfaces(tgt, p.tgt):
            continue  # copy, no edit
        stripped = strip_identical_boundaries(
            Edit(p.src, p.tgt, EditKind.SUBSTITUTE), src, tgt
        )
        if stripped is not None:
            edits.add(stripped)
    for run in _uncovered_runs(covered_src):
        edits.add(Edit(run, None, EditKind.DELETE))
    for run in _uncovered_runs(covered_tgt):
        edits.add(Edit(None, run, EditKind.INSERT))
    return edits


def _uncovered_runs(covered: list[bool]) -> list[Span]:
    runs: list[Span] = []
    start: int | None = None
    for n, flag in enumerate(covered):
        if not flag and start is None:
            start = n
        elif flag and start is not None:
            runs.append((start, n))
            start = None
    if start is not None:
        runs.append((start, len(covered)))
    return runs


def edits_from_alignment_simple(src: Sentence, tgt: Sentence, wa: WordAlignment) -> set[Edit]:
    """Edits from a word alignment without syntactic context.

    Unaligned token runs become inserts/deletes; each mutually-aligned
    span pair (a contiguity-closed component of links) becomes a
    substitute after boundary stripping, or no edit when its surfaces
    are identical.
    """
    wa.validate(len(src.tokens), len(tgt.tokens))
    pairs = _close_span_pairs(_link_components(wa.links), src, tgt)
    return _emit_edits(pairs, src, tgt)


# ---------------------------------------------------------------------------
# tree-guided extraction

def _resolve_link(
    i: int,
    j: int,
    links: Sequence[tuple[int, int]],
    path_s: list[ParseTree],
    path_t: list[ParseTree],
    max_level: int,
) -> _SpanPair | None:
    """Ascend from the linked leaves to the lowest ancestor pair whose
    spans close over every link touching them; levels are capped by
    max_level (and by the root).  Returns None when the budget runs out."""
    p = q = 0
    while True:
        ns = path_s[min(p, len(path_s) - 1)]
        nt = path_t[min(q, len(path_t) - 1)]
        grow_t = any(
            ns.span[0] <= li < ns.span[1] and not (nt.span[0] <= lj < nt.span[1])
            for li, lj in links
        )
        grow_s = any(
            nt.span[0] <= lj < nt.span[1] and not (ns.span[0] <= li < ns.span[1])
            for li, lj in links
        )
        if not grow_s and not grow_t:
            return _SpanPair(ns.span, nt.span)
        if grow_t:
            if q >= max_level:
                return None
            q += 1
        if grow_s:
            if p >= max_level:
                return None
            p += 1


def _contains(outer: Span, inner: Span) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _drop_nested(pairs: list[_SpanPair]) -> list[_SpanPair]:
    """Keep only maximal span pairs; tree spans nest or are disjoint, so
    strict containment on both sides is the only redundancy possible."""
    unique = sorted(set(pairs))
    return [
        p
        for p in unique
        if not any(
            q != p and _contains(q.src, p.src) and _contains(q.tgt, p.tgt)
            for q in unique
        )
    ]


def edits_with_parse(
    src: Sentence,
    tgt: Sentence,
    wa: WordAlignment,
    tree_src: ParseTree,
    tree_tgt: ParseTree,
    max_level: int = 2,
) -> set[Edit]:
    """Tree-guided edit extraction.

    Every link is widened to the lowest conflict-free ancestor pair
    within max_level hops of the leaves; nested resolutions collapse to
    the largest pair, links that cannot be resolved fall back to the
    plain component treatment, and the rest proceeds as in
    edits_from_alignment_simple.  max_level = 0 reproduces the simple
    method exactly.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    wa.validate(len(src.tokens), len(tgt.tokens))
    if tree_src.leaf_count() != len(src.tokens):
        raise ValueError(
            f"source tree covers {tree_src.leaf_count()} tokens, sentence has {len(src.tokens)}"
        )
    if tree_tgt.leaf_count() != len(tgt.tokens):
        raise ValueError(
            f"target tree covers {tree_tgt.leaf_count()} tokens, sentence has {len(tgt.tokens)}"
        )
    links = sorted(wa.links)
    paths_s = tree_src.leaf_paths()
    paths_t = tree_tgt.leaf_paths()
    resolved: list[_SpanPair] = []
    unresolved: list[tuple[int, int]] = []
    for i, j in links:
        got = _resolve_link(i, j, links, paths_s[i], paths_t[j], max_level)
        if got is None:
            unresolved.append((i, j))
        else:
            resolved.append(got)
    candidates = _drop_nested(resolved)
    leftover = [
        (i, j)
        for i, j in unresolved
        if not any(c.src[0] <= i < c.src[1] and c.tgt[0] <= j < c.tgt[1] for c in candidates)
    ]
    pairs = _close_span_pairs(candidates + _link_components(leftover), src, tgt)
    return _emit_edits(pairs, src, tgt)


# ---------------------------------------------------------------------------
# reorders

def derive_reorder(
    edits: set[Edit], wa: WordAlignment, src: Sentence, tgt: Sentence
) -> set[Edit]:
    """Find moved blocks: maximal diagonal runs of surface-identical
    links whose links cross another such block become reorder edits.

    Blocks overlapping an existing edit's spans are ignored, so the
    result can be unioned with edits from either extraction route.
    Crossing means two links (i, j) and (i', j') with i < i' and j > j'.
    """
    wa.validate(len(src.tokens), len(tgt.tokens))
    ident = sorted(
        (i, j) for i, j in wa.links if src.tokens[i].surface == tgt.tokens[j].surface
    )
    ident_set = set(ident)
    blocks: list[tuple[Span, Span, list[tuple[int, int]]]] = []
    seen: set[tuple[int, int]] = set()
    for i, j in ident:
        if (i, j) in seen or (i - 1, j - 1) in ident_set:
            continue
        length = 0
        while (i + length, j + length) in ident_set:
            seen.add((i + length, j + length))
            length += 1
        blocks.append(((i, i + length), (j, j + length), [(i + n, j + n) for n in range(length)]))

    def clear_of_edits(block: tuple[Span, Span, list]) -> bool:
        b_src, b_tgt, _ = block
        for e in edits:
            if e.src_span is not None and _overlap(e.src_span, b_src):
                return False
            if e.tgt_span is not None and _overlap(e.tgt_span, b_tgt):
                return False
        return True

    blocks = [b for b in blocks if clear_of_edits(b)]

    def crosses(a: tuple, b: tuple) -> bool:
        return any(
            (i < i2 and j > j2) or (i > i2 and j < j2)
            for i, j in a[2]
            for i2, j2 in b[2]
        )

    out: set[Edit] = set()
    for b in blocks:
        if any(crosses(b, other) for other in blocks if other is not b):
            out.add(Edit(b[0], b[1], EditKind.REORDER))
    return out
