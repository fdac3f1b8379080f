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
from math import sqrt
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
    ends, each in first-seen order."""
    parent: list[int] = []
    lefts: dict = {}
    rights: dict = {}

    def node(ends: dict, key) -> int:
        n = ends.get(key)
        if n is None:
            n = ends[key] = len(parent)
            parent.append(n)
        return n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(node(lefts, a)), find(node(rights, b))
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, tuple[list, list]] = {}
    for side, ends in enumerate((lefts, rights)):
        for key, n in ends.items():
            groups.setdefault(find(n), ([], []))[side].append(key)
    return list(groups.values())


def doc_operations(
    src: DocVersion, tgt: DocVersion, alignment: SentenceAlignment
) -> tuple[DocOperation, ...]:
    """Classify every alignment component into a document operation.

    Alignable sentences absent from the alignment count as singleton
    components (deletions on the source side, insertions on the target
    side).  A pair may join a sentence outside the alignable set to its
    component.
    """
    alignment.validate_against(src, tgt)
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
        same = (
            src.sentence(src_ids[0]).normalized_raw()
            == tgt.sentence(tgt_ids[0]).normalized_raw()
        )
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
) -> float:
    """Fraction of the source's alignable sentences that did not survive.

    kept_definition picks what surviving means: exact copies only, or
    copies plus rephrasings.
    """
    if kept_definition not in KEPT_DEFINITIONS:
        raise ValueError(f"unknown kept_definition {kept_definition!r}")
    alignable = {s.id for s in src.alignable_sentences()}
    if not alignable:
        raise ValueError(f"version {src.version_index} has no alignable sentences")
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


# operations whose positions are reported, and on which document side
_POSITION_SIDE = {
    DocOpKind.DELETION: "src",
    DocOpKind.INSERTION: "tgt",
    DocOpKind.REPHRASING: "src",
}


def relative_positions(
    ops: Sequence[DocOperation], src: DocVersion, tgt: DocVersion, kind: DocOpKind
) -> list[float]:
    """Where in the document a given operation happens: ordinal over
    total alignable sentences, 0.0 for the first sentence.  Deletions
    and rephrasings are located in the source, insertions in the target.
    """
    side = _POSITION_SIDE.get(kind)
    if side is None:
        raise ValueError(f"no position side defined for {kind.value}")
    doc = src if side == "src" else tgt
    ordinal = {s.id: n for n, s in enumerate(doc.alignable_sentences())}
    total = len(ordinal)
    if total == 0:
        return []
    out = []
    for op in ops:
        if op.kind is not kind:
            continue
        for sid in op.src_ids if side == "src" else op.tgt_ids:
            if sid in ordinal:
                out.append(ordinal[sid] / total)
    return sorted(out)


@dataclass(frozen=True)
class PositionHistogram:
    kind: DocOpKind
    positions: tuple[float, ...]

    def histogram(self, bins: int) -> list[tuple[float, float, int]]:
        """Fixed-width bins over [0, 1); the last bin also takes 1.0."""
        if bins < 1:
            raise ValueError("bins must be positive")
        counts = [0] * bins
        for p in self.positions:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"position {p} outside [0, 1]")
            counts[min(int(p * bins), bins - 1)] += 1
        return [(i / bins, (i + 1) / bins, counts[i]) for i in range(bins)]


@dataclass(frozen=True)
class CompositionBin:
    ratio_start: float
    ratio_end: float
    fractions: dict[DocOpKind, float]
    total_changes: int


def action_composition_by_ratio(
    entries: Sequence[tuple[float, Mapping[DocOpKind, int]]], bins: int = 10
) -> list[CompositionBin]:
    """Pool operation counts of document pairs into update-ratio bins and
    report what share of the non-copy operations each change type takes.

    Bins without any non-copy operation are left out.
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
        fractions = {
            kind: counts.get(kind, 0) / changes
            for kind in (DocOpKind.INSERTION, DocOpKind.DELETION, DocOpKind.REPHRASING)
        }
        out.append(CompositionBin(i / bins, (i + 1) / bins, fractions, changes))
    return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample correlation coefficient; undefined inputs raise."""
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
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance")
    return cov / (sqrt(vx) * sqrt(vy))
