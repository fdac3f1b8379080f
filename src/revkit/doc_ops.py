"""Document-level revision operations between two versions.

Connected components of the sentence alignment graph classify into
seven operations: unpaired sentences are insertions or deletions,
one-to-one pairs are copies or rephrasings, one-to-many splittings,
many-to-one mergings, and many-to-many fusions.  On top of that sit a
few whole-document statistics: the update ratio, relative positions of
changed sentences, and how the mix of actions shifts with the ratio.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import isfinite, sqrt
from typing import Hashable, Iterable, Mapping, Sequence

from .corpus import DocVersion, SentenceId
from .sent_align import SentenceAlignment


class DocOpKind(Enum):
    INSERTION = "insertion"
    DELETION = "deletion"
    COPYING = "copying"
    REPHRASING = "rephrasing"
    SPLITTING = "splitting"
    MERGING = "merging"
    FUSION = "fusion"


@dataclass(frozen=True)
class DocOperation:
    kind: DocOpKind
    src_ids: tuple[SentenceId, ...]
    tgt_ids: tuple[SentenceId, ...]


def link_components(links: Iterable[tuple[Hashable, Hashable]]) -> list[tuple[list, list]]:
    """Connected components of a bipartite graph given as (left, right)
    links: per component, its distinct left ends and its distinct right
    ends, each in first-seen order.

    One union-find pass numbers each end when first seen and joins the
    two ends' roots, the right root under the left one; lookups halve
    their path.  Components come out in the order their first left end
    was seen.  Numbering and root search are written inline, since they
    run once or twice per link.
    """
    parent: list[int] = []
    lefts: dict = {}
    rights: dict = {}
    for a, b in links:
        ra = lefts.get(a)
        if ra is None:
            ra = lefts[a] = len(parent)
            parent.append(ra)
        else:
            while parent[ra] != ra:
                parent[ra] = parent[parent[ra]]
                ra = parent[ra]
        rb = rights.get(b)
        if rb is None:
            rb = rights[b] = len(parent)
            parent.append(rb)
        else:
            while parent[rb] != rb:
                parent[rb] = parent[parent[rb]]
                rb = parent[rb]
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, tuple[list, list]] = {}
    for side, ends in enumerate((lefts, rights)):
        for key, n in ends.items():
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            groups.setdefault(n, ([], []))[side].append(key)
    return list(groups.values())


def doc_operations(
    src: DocVersion, tgt: DocVersion, alignment: SentenceAlignment
) -> tuple[DocOperation, ...]:
    """Classify every alignment component into a document operation.

    Alignable sentences absent from the alignment count as singleton
    components (deletions on the source side, insertions on the target
    side).  A pair may join a sentence outside the alignable set to its
    component.  Every sentence the alignment pairs must exist in src or
    tgt: the caller validates it first (SentenceAlignment.validate_against,
    which `stats` runs as it reads each alignment file).  A one-to-one
    pair is a copy when its two sentences have the same text
    (Sentence.same_text, equal normalized_raw()); otherwise it is a
    rephrasing.
    """
    components = link_components(alignment.positive_pairs())
    paired_src = {sid for lefts, _ in components for sid in lefts}
    paired_tgt = {sid for _, rights in components for sid in rights}
    components += [([s.id], []) for s in src.alignable_sentences() if s.id not in paired_src]
    components += [([], [t.id]) for t in tgt.alignable_sentences() if t.id not in paired_tgt]
    ops = []
    for lefts, rights in components:
        src_ids, tgt_ids = tuple(sorted(lefts)), tuple(sorted(rights))
        ops.append(DocOperation(_classify(src, tgt, src_ids, tgt_ids), src_ids, tgt_ids))
    return tuple(sorted(ops, key=lambda o: (o.src_ids, o.tgt_ids)))


def _classify(
    src: DocVersion,
    tgt: DocVersion,
    src_ids: tuple[SentenceId, ...],
    tgt_ids: tuple[SentenceId, ...],
) -> DocOpKind:
    m, n = len(src_ids), len(tgt_ids)
    if m == 1 and n == 0:
        return DocOpKind.DELETION
    if m == 0 and n == 1:
        return DocOpKind.INSERTION
    if m == 1 and n == 1:
        same = src.sentence(src_ids[0]).same_text(tgt.sentence(tgt_ids[0]))
        return DocOpKind.COPYING if same else DocOpKind.REPHRASING
    if m == 1:
        return DocOpKind.SPLITTING
    if n == 1:
        return DocOpKind.MERGING
    return DocOpKind.FUSION


def count_operations(ops: Sequence[DocOperation]) -> Counter:
    return Counter(op.kind for op in ops)


KEPT_DEFINITIONS = ("copy_only", "copy_or_rephrase")


def update_ratio(
    ops: Sequence[DocOperation], src: DocVersion, kept_definition: str = "copy_only"
) -> float | None:
    """Fraction of the source's alignable sentences that did not survive,
    or None when the source has no alignable sentence (empty, or every
    sentence skipped).

    kept_definition picks what surviving means: exact copies only, or
    copies plus rephrasings.
    """
    if kept_definition not in KEPT_DEFINITIONS:
        raise ValueError(f"unknown kept_definition {kept_definition!r}")
    alignable = {s.id for s in src.alignable_sentences()}
    if not alignable:
        return None
    keep_kinds = {DocOpKind.COPYING}
    if kept_definition == "copy_or_rephrase":
        keep_kinds.add(DocOpKind.REPHRASING)
    kept = {
        sid
        for op in ops
        if op.kind in keep_kinds
        for sid in op.src_ids
        if sid in alignable
    }
    return 1.0 - len(kept) / len(alignable)


def relative_positions(
    ops: Sequence[DocOperation], src: DocVersion, tgt: DocVersion
) -> dict[DocOpKind, list[float]]:
    """Where in the document each deletion, insertion and rephrasing
    happens: per kind, the sorted ordinals of its sentences over the
    side's alignable sentences, 0.0 for the first.  Deletions and
    rephrasings are located in the source, insertions in the target; a
    sentence outside the alignable set has no position.
    """
    src_at = {s.id: n for n, s in enumerate(src.alignable_sentences())}
    tgt_at = {t.id: n for n, t in enumerate(tgt.alignable_sentences())}
    out = {DocOpKind.DELETION: [], DocOpKind.INSERTION: [], DocOpKind.REPHRASING: []}
    for op in ops:
        found = out.get(op.kind)
        if found is None:
            continue
        at, ids = (tgt_at, op.tgt_ids) if op.kind is DocOpKind.INSERTION else (src_at, op.src_ids)
        found.extend(at[sid] / len(at) for sid in ids if sid in at)
    for found in out.values():
        found.sort()
    return out


def position_histogram(positions: Iterable[float], bins: int) -> list[tuple[float, float, int]]:
    """Fixed-width bins over [0, 1); the last bin also takes 1.0."""
    if bins < 1:
        raise ValueError("bins must be positive")
    counts = [0] * bins
    for p in positions:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"position {p} outside [0, 1]")
        counts[min(int(p * bins), bins - 1)] += 1
    return [(i / bins, (i + 1) / bins, counts[i]) for i in range(bins)]


def action_composition_by_ratio(
    entries: Sequence[tuple[float, Mapping[DocOpKind, int]]], bins: int = 10
) -> list[tuple[float, float, float, float, float, int]]:
    """Pool operation counts of document pairs into update-ratio bins and
    report what share of the non-copy operations each change type takes.

    One row per bin, as composition.csv lists it: (ratio_bin_start,
    ratio_bin_end, insertion, deletion, rephrasing, total_changes), the
    three shares over total_changes.  Bins without any non-copy
    operation are left out.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    pooled: list[Counter] = [Counter() for _ in range(bins)]
    for ratio, counts in entries:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"update ratio {ratio} outside [0, 1]")
        pooled[min(int(ratio * bins), bins - 1)].update(counts)
    out = []
    for i, counts in enumerate(pooled):
        changes = sum(n for kind, n in counts.items() if kind is not DocOpKind.COPYING)
        if changes == 0:
            continue
        shares = [counts[k] / changes for k in (DocOpKind.INSERTION, DocOpKind.DELETION, DocOpKind.REPHRASING)]
        out.append((i / bins, (i + 1) / bins, *shares, changes))
    return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample correlation coefficient; undefined inputs raise ValueError,
    and OverflowError may come from values too large to square.

    Equal values have no variance, yet their deviations from a rounded
    mean need not be 0.0 (three 0.1s average to a float just off 0.1),
    so equality is tested on the values themselves as well."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if not (isfinite(cov) and isfinite(vx) and isfinite(vy)):
        raise ValueError("sums out of floating-point range")
    if vx == 0.0 or vy == 0.0 or min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("zero variance")
    return cov / (sqrt(vx) * sqrt(vy))
