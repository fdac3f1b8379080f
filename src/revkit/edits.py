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
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .corpus import Sentence
from .doc_ops import link_components
from .myers import myers_diff
from .trees import Tree

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
            if e.kind is EditKind.SUBSTITUTE or e.kind is EditKind.REORDER:
                same = self.src.tokens[slice(*e.src_span)] == self.tgt.tokens[slice(*e.tgt_span)]
                if e.kind is EditKind.SUBSTITUTE and same:
                    raise ValueError(f"substitute {e} has identical surfaces")
                if e.kind is EditKind.REORDER and not same:
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

def _region_edit(
    a: int, b: int, c: int, d: int, intention: "IntentionLabel | CoarseIntention | None" = None
) -> Edit:
    """The edit of a changed region, source [a, b) against target [c, d):
    an insert if the source side is empty, a delete if the target side
    is, otherwise a substitute."""
    if a == b:
        return Edit(None, (c, d), EditKind.INSERT, intention)
    if c == d:
        return Edit((a, b), None, EditKind.DELETE, intention)
    return Edit((a, b), (c, d), EditKind.SUBSTITUTE, intention)


def edits_from_diff(src: Sentence, tgt: Sentence) -> set[Edit]:
    """Extract edits by diffing the token surfaces (case-sensitive): each
    changed region of the minimal diff becomes one edit."""
    return {_region_edit(*region) for region in myers_diff(src.tokens, tgt.tokens)}


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
    while a < b and c < d and src.tokens[a] == tgt.tokens[c]:
        a += 1
        c += 1
    while b > a and d > c and src.tokens[b - 1] == tgt.tokens[d - 1]:
        b -= 1
        d -= 1
    if a == b and c == d:
        return None
    return _region_edit(a, b, c, d, e.intention)


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


def _merge(p: _SpanPair, q: _SpanPair) -> _SpanPair:
    return _SpanPair(
        (min(p.src[0], q.src[0]), max(p.src[1], q.src[1])),
        (min(p.tgt[0], q.tgt[0]), max(p.tgt[1], q.tgt[1])),
    )


def _close_span_pairs(pairs: list[_SpanPair], src: Sentence, tgt: Sentence) -> list[_SpanPair]:
    """Fixpoint closure over span pairs (all spans non-empty).

    Pairs overlapping on either side must merge (their edits could not
    otherwise be disjoint).  Pairs exactly adjacent on both sides, in the
    same order, merge only when both already differ from their target
    surfaces; identical (copy) pairs stay separate so that crossing
    copies remain visible to reorder detection.

    The leftmost eligible pair (x, y) of rows merges first, into row x;
    the order matters, since adjacency reads the surfaces of merged
    spans.  Each round finds that pair with _first_eligible, which
    compares only rows touching on one side, so a list that merges
    nothing costs one pair of sorts and one comparison per touching
    pair.  Whether a row differs from its target surface is read once
    per row and again only after the row merges.
    """
    surf_s = src.tokens
    surf_t = tgt.tokens
    work = list(pairs)
    changed = [surf_s[a:b] != surf_t[c:d] for (a, b), (c, d) in work]
    while (hit := _first_eligible(work, changed)) is not None:
        x, y = hit
        (a, b), (c, d) = work[x] = _merge(work[x], work.pop(y))
        del changed[y]
        changed[x] = surf_s[a:b] != surf_t[c:d]
    return sorted(work)


def _first_eligible(work: list[_SpanPair], changed: list[bool]) -> tuple[int, int] | None:
    """The lowest row pair (x, y), x < y, that _close_span_pairs must or
    may merge, or None.

    Every eligible pair touches on the src side or overlaps on the tgt
    side, so two sweeps find them all.  In src-start order, each row is
    compared with the following rows that start no later than it ends;
    in tgt-start order, each row collects the following rows that start
    before it ends, all of which overlap it.  Rows that touch on neither
    side are never compared.
    """
    hits: list[tuple[int, int]] = []
    rows = sorted([(s0, s1, t0, t1, k) for k, ((s0, s1), (t0, t1)) in enumerate(work)])
    n = len(rows)
    for k, (s0, s1, t0, t1, x) in enumerate(rows):
        m = k + 1
        while m < n:
            ys0, _, yt0, yt1, y = rows[m]
            if ys0 > s1:
                break
            # src overlap, tgt overlap, or adjacency on both sides in order
            if ys0 < s1 or (yt0 < t1 and t0 < yt1) or (yt0 == t1 and changed[x] and changed[y]):
                hits.append((x, y) if x < y else (y, x))
            m += 1
    rows = sorted([(t0, t1, k) for k, (_, (t0, t1)) in enumerate(work)])
    for k, (_, t1, x) in enumerate(rows):
        m = k + 1
        while m < n and rows[m][0] < t1:
            y = rows[m][2]
            hits.append((x, y) if x < y else (y, x))
            m += 1
    return min(hits, default=None)


def _emit_edits(pairs: list[_SpanPair], src: Sentence, tgt: Sentence) -> set[Edit]:
    edits: set[Edit] = set()
    covered_src = [False] * len(src.tokens)
    covered_tgt = [False] * len(tgt.tokens)
    surf_s = src.tokens
    surf_t = tgt.tokens
    for p in pairs:
        (a, b), (c, d) = p
        covered_src[a:b] = [True] * (b - a)
        covered_tgt[c:d] = [True] * (d - c)
        if surf_s[a:b] == surf_t[c:d]:
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

def _partner_ranges(links: Iterable[tuple[int, int]], n_src: int, n_tgt: int) -> tuple[list[int], ...]:
    """Per source token the lowest and highest target index it links to,
    and per target token the same over source indices.  An unlinked
    token reads (other side's length, -1), which trips no span test."""
    s_lo, s_hi = [n_tgt] * n_src, [-1] * n_src
    t_lo, t_hi = [n_src] * n_tgt, [-1] * n_tgt
    for i, j in links:
        s_lo[i] = min(s_lo[i], j)
        s_hi[i] = max(s_hi[i], j)
        t_lo[j] = min(t_lo[j], i)
        t_hi[j] = max(t_hi[j], i)
    return s_lo, s_hi, t_lo, t_hi


def _resolve_link(
    u: int,
    v: int,
    tree_s: Tree,
    tree_t: Tree,
    reach: tuple[list[int], ...],
    max_level: int,
) -> _SpanPair | None:
    """Ascend from the leaf nodes u and v to the lowest ancestor pair
    whose spans close over every link touching them; levels are capped
    by max_level.  Returns None when the budget runs out.  A side at its
    root spans the whole sentence and so never needs to grow: no climb
    goes past a root.

    reach holds the partner ranges of every token (_partner_ranges): a
    span closes over its links exactly when its tokens' partner ranges
    fall inside the other span."""
    s_lo, s_hi, t_lo, t_hi = reach
    starts_s, ends_s, up_s = tree_s.starts, tree_s.ends, tree_s.parents
    starts_t, ends_t, up_t = tree_t.starts, tree_t.ends, tree_t.parents
    p = q = 0
    while True:
        a, b = starts_s[u], ends_s[u]
        c, d = starts_t[v], ends_t[v]
        grow_t = min(s_lo[a:b]) < c or max(s_hi[a:b]) >= d
        grow_s = min(t_lo[c:d]) < a or max(t_hi[c:d]) >= b
        if not grow_s and not grow_t:
            return _SpanPair((a, b), (c, d))
        if grow_t:
            if q >= max_level:
                return None
            q += 1
            v = up_t[v]
        if grow_s:
            if p >= max_level:
                return None
            p += 1
            u = up_s[u]


def _drop_nested(pairs: list[_SpanPair]) -> list[_SpanPair]:
    """Keep only maximal span pairs, in sorted order.

    Every pair is a pair of tree-node spans, so the spans of one side
    nest or are disjoint, and strict containment on both sides is the
    only redundancy possible.  One sweep visits the distinct pairs in
    (src start, -src end, tgt start, -tgt end) order, so every pair that
    holds another comes before it.  The stack holds, innermost last, the
    kept pairs whose src span holds the current one's; the current pair
    is dropped when one of their tgt spans holds its own.  A dropped
    pair is not pushed: whatever it holds, its holder holds too.
    """
    unique = sorted(set(pairs), key=lambda p: (p[0][0], -p[0][1], p[1][0], -p[1][1]))
    kept: list[_SpanPair] = []
    stack: list[tuple[int, int, int]] = []  # (src end, tgt start, tgt end)
    for p in unique:
        (s0, s1), (t0, t1) = p
        while stack and stack[-1][0] <= s0:
            stack.pop()  # ends before this src span starts
        for _, a, b in stack:
            if a <= t0 and t1 <= b:
                break
        else:
            kept.append(p)
            stack.append((s1, t0, t1))
    return sorted(kept)


def edits_with_parse(
    src: Sentence,
    tgt: Sentence,
    wa: WordAlignment,
    tree_src: Tree,
    tree_tgt: Tree,
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
    leaf_s = tree_src.leaf_nodes
    leaf_t = tree_tgt.leaf_nodes
    reach = _partner_ranges(links, len(src.tokens), len(tgt.tokens))
    resolved: list[_SpanPair] = []
    unresolved: list[tuple[int, int]] = []
    for i, j in links:
        got = _resolve_link(leaf_s[i], leaf_t[j], tree_src, tree_tgt, reach, max_level)
        if got is None:
            unresolved.append((i, j))
        else:
            resolved.append(got)
    candidates = _drop_nested(resolved)
    # a resolved pair holds every link of its source tokens, so a link lies
    # inside a candidate exactly when its source token does
    covered = [False] * len(src.tokens)
    for (a, b), _ in candidates:
        covered[a:b] = [True] * (b - a)
    leftover = [(i, j) for i, j in unresolved if not covered[i]]
    pairs = _close_span_pairs(candidates + _link_components(leftover), src, tgt)
    return _emit_edits(pairs, src, tgt)


# ---------------------------------------------------------------------------
# reorders

def _blocks_cross(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether a link of diagonal block a = (i, j, n), the links
    (i + x, j + x) for x < n, crosses a link of block b = (i2, j2, n2).

    Links x of a and y of b lie u = i + x - (i2 + y) apart on the src
    side and u + D on the tgt side, with D = (j - i) - (j2 - i2); they
    cross when u and u + D have opposite signs.  u takes every value in
    [i - i2 - n2 + 1, i - i2 + n - 1], so a crossing exists exactly when
    that range meets the open interval between -D and 0, which holds an
    integer only when |D| >= 2.
    """
    (i, j, n), (i2, j2, n2) = a, b
    d = (j - i) - (j2 - i2)
    lo = i - i2 - n2 + 1
    hi = i - i2 + n - 1
    if d >= 2:
        return lo < 0 and hi > -d
    return d <= -2 and hi > 0 and lo < -d


def derive_reorder(
    edits: set[Edit], wa: WordAlignment, src: Sentence, tgt: Sentence
) -> set[Edit]:
    """Find moved blocks: maximal diagonal runs of surface-identical
    links whose links cross another such block become reorder edits.

    Blocks overlapping an existing edit's spans are ignored, so the
    result can be unioned with edits from either extraction route.
    Crossing means two links (i, j) and (i', j') with i < i' and j > j'.

    Every two surviving blocks are tested with _blocks_cross, which is
    exact for any two blocks: B * (B - 1) / 2 calls for B blocks.

    wa must fit the two sentences: both extraction routes validate it, and
    their callers pass the alignment they validated.
    """
    surf_s = src.tokens
    surf_t = tgt.tokens
    # tokens under some edit's span, per side
    edited_s = [False] * len(surf_s)
    edited_t = [False] * len(surf_t)
    for e in edits:
        for span, edited in ((e.src_span, edited_s), (e.tgt_span, edited_t)):
            if span is not None:
                a, b = span[0], min(span[1], len(edited))
                edited[a:b] = [True] * (b - a)
    runs: list[list[int]] = []  # [src start, tgt start, length], per diagonal
    d0, i0 = 0, -2  # continued by no link
    for d, i in sorted((j - i, i) for i, j in wa.links if surf_s[i] == surf_t[j]):
        if d == d0 and i == i0 + 1:
            runs[-1][2] += 1
        else:
            runs.append([i, i + d, 1])
        d0, i0 = d, i
    blocks = [
        (i, j, n) for i, j, n in runs if not any(edited_s[i:i + n]) and not any(edited_t[j:j + n])
    ]
    moved: set[tuple[int, int, int]] = set()
    for x, y in combinations(blocks, 2):
        if _blocks_cross(x, y):
            moved.add(x)
            moved.add(y)
    return {Edit((i, i + n), (j, j + n), EditKind.REORDER) for i, j, n in moved}
