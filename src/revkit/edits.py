"""Span-level edit extraction between an aligned sentence pair.

An edit is a tuple of a source span, a target span, and a kind: inserts
carry no source span, deletes no target span, substitutes replace one
span by another, and reorders mark moved blocks whose surfaces are
identical.  Extraction works either from a token diff or from a word
alignment; the word-alignment route groups links into mutually-aligned
span pairs (optionally widened to constituency-tree nodes) and treats
unaligned runs as pure insertions/deletions.

Per sentence pair of n source and m target tokens and L links, with no
span pairs to merge (the common case), each route costs:

* diff: Myers' O((n + m) D) for D changed tokens;
* simple: a sort of the links and one of the span pairs' target spans,
  and otherwise time linear in L, n and m; only links sharing a token
  with another link go through a union-find;
* parse: the same, plus, when some link shares a token, one pass over
  the N nodes of both trees for the partner envelopes and O(1) per
  climb step, at most max_level steps a side per such link.

Span pairs that must or may merge add rounds of _first_eligible, each
O(R log R) over the R pairs plus one comparison per touching pair.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import itemgetter
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
    if src.tokens[a] != tgt.tokens[c] and src.tokens[b - 1] != tgt.tokens[d - 1]:
        return e  # nothing to trim
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


def _split_one_to_one(links: list[tuple[int, int]]) -> tuple[list[_SpanPair], list[tuple[int, int]]]:
    """Sorted links split into the span pairs of the one-to-one links,
    whose two tokens carry no other link, and the other links; both
    keep the links' order.  The span pairs are plain tuples, as one is
    built per link and a _SpanPair is built by a Python call."""
    uses_s = Counter(map(itemgetter(0), links))
    uses_t = Counter(map(itemgetter(1), links))
    ones: list[_SpanPair] = []
    rest: list[tuple[int, int]] = []
    for i, j in links:
        if uses_s[i] == 1 and uses_t[j] == 1:
            ones.append(((i, i + 1), (j, j + 1)))
        else:
            rest.append((i, j))
    return ones, rest


def _link_components(links: Iterable[tuple[int, int]]) -> list[_SpanPair]:
    """Connected components of links sharing a source or target token,
    rendered as the envelope of their index ranges, in sorted order.

    A one-to-one link is a component of its own; only the other links go
    through link_components' union-find.  Components hold disjoint token
    sets, so each has its own source start, and the few shared-token
    components are placed among the one-to-one pairs by bisection."""
    pairs, rest = _split_one_to_one(sorted(links))
    for si, tj in link_components(rest):
        insort(pairs, _SpanPair((min(si), max(si) + 1), (min(tj), max(tj) + 1)))
    return pairs


def _merge(p: _SpanPair, q: _SpanPair) -> _SpanPair:
    (a, b), (c, d) = p
    (a2, b2), (c2, d2) = q
    return _SpanPair((min(a, a2), max(b, b2)), (min(c, c2), max(d, d2)))


def _close_span_pairs(pairs: list[_SpanPair], src: Sentence, tgt: Sentence) -> list[_SpanPair]:
    """Fixpoint closure over span pairs (all spans non-empty).

    Pairs overlapping on either side must merge (their edits could not
    otherwise be disjoint).  Pairs exactly adjacent on both sides, in the
    same order, merge only when both already differ from their target
    surfaces; identical (copy) pairs stay separate so that crossing
    copies remain visible to reorder detection.

    The leftmost eligible pair (x, y) of rows merges first, into row x;
    the order matters, since adjacency reads the surfaces of merged
    spans.  Most lists merge nothing, which _settled shows in one pass
    over the rows in sorted order, and that order is then the result.
    Sorting costs one pass over the simple route's lists, which come
    sorted, and one merge of two sorted runs over the tree route's.
    Otherwise each round finds the pair to merge with _first_eligible,
    which compares only rows touching on one side, and whether a row
    differs from its target surface is read once per row and again only
    after the row merges.
    """
    surf_s = src.tokens
    surf_t = tgt.tokens
    rows = sorted(pairs)
    if _settled(rows, surf_s, surf_t):
        return rows
    work = list(pairs)
    changed = [surf_s[a:b] != surf_t[c:d] for (a, b), (c, d) in work]
    while (hit := _first_eligible(work, changed)) is not None:
        x, y = hit
        (a, b), (c, d) = work[x] = _merge(work[x], work.pop(y))
        del changed[y]
        changed[x] = surf_s[a:b] != surf_t[c:d]
    return sorted(work)


def _settled(rows: list[_SpanPair], surf_s, surf_t) -> bool:
    """Whether no two of rows, sorted, must or may merge.

    Sorted rows with no src overlap end no later than the next row
    starts, and only consecutive rows can then touch on the src side,
    so one pass over consecutive rows finds every src overlap and every
    adjacency on both sides.  tgt overlaps show between consecutive tgt
    spans in sorted order.  A row's surfaces are compared only when it
    is adjacent to the next row on both sides.
    """
    for ((a, b), (c, d)), ((a2, b2), (c2, d2)) in zip(rows, rows[1:]):
        if a2 < b:
            return False
        if a2 == b and c2 == d and surf_s[a:b] != surf_t[c:d] and surf_s[a2:b2] != surf_t[c2:d2]:
            return False
    spans = sorted([t for _, t in rows])
    for (_, d), (c2, _) in zip(spans, spans[1:]):
        if c2 < d:
            return False
    return True


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
    """The edits of closed span pairs (_close_span_pairs' result): a
    substitute per pair whose surfaces differ, after boundary stripping,
    and a delete or insert per run of tokens no pair covers.

    Closed pairs are disjoint on each side and sorted by src span, so
    the uncovered runs are the gaps between consecutive spans: one pass
    over the pairs and one over their sorted tgt spans."""
    edits: set[Edit] = set()
    surf_s = src.tokens
    surf_t = tgt.tokens
    at = 0
    for span_s, span_t in pairs:
        a, b = span_s
        if at < a:
            edits.add(Edit((at, a), None, EditKind.DELETE))
        at = b
        c, d = span_t
        if surf_s[a:b] != surf_t[c:d]:
            edits.add(strip_identical_boundaries(Edit(span_s, span_t, EditKind.SUBSTITUTE), src, tgt))
    if at < len(surf_s):
        edits.add(Edit((at, len(surf_s)), None, EditKind.DELETE))
    at = 0
    for c, d in sorted([t for _, t in pairs]):
        if at < c:
            edits.add(Edit(None, (at, c), EditKind.INSERT))
        at = d
    if at < len(surf_t):
        edits.add(Edit(None, (at, len(surf_t)), EditKind.INSERT))
    return edits


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

def _partner_envelopes(links: list[tuple[int, int]], tree_s: Tree, tree_t: Tree) -> tuple[list[int], ...]:
    """Per node of each tree, the lowest and highest index on the other
    side that a link from one of its tokens reaches.  A node without
    links reads (other side's length, -1), which trips no span test.

    Each leaf takes its token's links, which come sorted, so a leaf's
    last link is its highest; then, since nodes close after their
    descendants, one ascending pass folds every node into its parent.
    The root's parent index -1 is the root itself, which the fold leaves
    as it is."""
    n_src, n_tgt = tree_s.ends[-1], tree_t.ends[-1]
    lo_s, hi_s = [n_tgt] * len(tree_s.labels), [-1] * len(tree_s.labels)
    lo_t, hi_t = [n_src] * len(tree_t.labels), [-1] * len(tree_t.labels)
    leaf_s, leaf_t = tree_s.leaf_nodes, tree_t.leaf_nodes
    for i, j in links:
        u, v = leaf_s[i], leaf_t[j]
        if j < lo_s[u]:
            lo_s[u] = j
        hi_s[u] = j
        if i < lo_t[v]:
            lo_t[v] = i
        hi_t[v] = i
    for lo, hi, parents in ((lo_s, hi_s, tree_s.parents), (lo_t, hi_t, tree_t.parents)):
        # a list iterator reads each item when it reaches it, after every
        # child has been folded in
        for up, a, b in zip(parents, lo, hi):
            if a < lo[up]:
                lo[up] = a
            if b > hi[up]:
                hi[up] = b
    return lo_s, hi_s, lo_t, hi_t


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

    reach holds the partner envelopes of every node (_partner_envelopes):
    a span closes over its links exactly when its node's envelope falls
    inside the other span, so each step costs O(1)."""
    lo_s, hi_s, lo_t, hi_t = reach
    starts_s, ends_s, up_s = tree_s.starts, tree_s.ends, tree_s.parents
    starts_t, ends_t, up_t = tree_t.starts, tree_t.ends, tree_t.parents
    p = q = 0
    while True:
        a, b = starts_s[u], ends_s[u]
        c, d = starts_t[v], ends_t[v]
        grow_t = lo_s[u] < c or hi_s[u] >= d
        grow_s = lo_t[v] < a or hi_t[v] >= b
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
    # a one-to-one link's leaves already close over its links, so it
    # resolves to itself; only the other links climb
    links = sorted(wa.links)
    ones, shared = _split_one_to_one(links)
    resolved: list[_SpanPair] = []
    unresolved: list[tuple[int, int]] = []
    if shared:
        reach = _partner_envelopes(links, tree_src, tree_tgt)
        leaf_s = tree_src.leaf_nodes
        leaf_t = tree_tgt.leaf_nodes
        for i, j in shared:
            got = _resolve_link(leaf_s[i], leaf_t[j], tree_src, tree_tgt, reach, max_level)
            if got is None:
                unresolved.append((i, j))
            else:
                resolved.append(got)
    # A resolved pair holds every link of its tokens, so it holds a
    # one-to-one link exactly when its src span holds the link's source
    # token, and a link lies inside a candidate exactly when its source
    # token does.  A pair resolved by climbing spans two tokens on some
    # side and so is held by no one-to-one link.  The candidates are
    # therefore the maximal climbed pairs and the one-to-one links outside
    # them, in sorted order.
    wide = _drop_nested(resolved)
    covered = [False] * len(src.tokens)
    for (a, b), _ in wide:
        covered[a:b] = [True] * (b - a)
    candidates = [p for p in ones if not covered[p[0][0]]]
    for p in wide:
        insort(candidates, p)
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
