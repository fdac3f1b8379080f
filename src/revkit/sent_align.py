"""Sentence alignment within aligned paragraph pairs.

A directional pass aligns each source sentence to its best-scoring
candidate on the other side; running both directions and intersecting
gives the final symmetric alignment.  The candidates and their scores
come from para_align.CandidateCells, which scores each candidate pair
once for both directions.  A directional pass decides from the cells'
arrays alone: one np.maximum.at finds each sentence's top score, one
np.minimum.at its first candidate with that score, in ascending id
order, and only the pairs it keeps become sentence ids.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING

from .corpus import DocVersion, SentenceId

if TYPE_CHECKING:  # pragma: no cover
    from .para_align import CandidateCells


class SentAlignLabel(Enum):
    ALIGNED = "aligned"
    PARTIAL = "partially-aligned"
    NOT_ALIGNED = "not-aligned"

    # members are singletons compared by identity, so the identity hash
    # (a C slot) serves; Enum.__hash__ is Python code, run once per pair
    # that enters a set
    __hash__ = object.__hash__


AlignedPair = tuple[SentenceId, SentenceId, SentAlignLabel]


@dataclass(frozen=True)
class SentenceAlignment:
    """Labeled sentence pairs between two versions.

    not-aligned entries only ever come from gold annotation files; the
    automatic aligners express non-alignment by absence.
    """

    src_version: int
    tgt_version: int
    pairs: frozenset[AlignedPair]

    def positive_pairs(self) -> frozenset[tuple[SentenceId, SentenceId]]:
        return frozenset(
            (s, t) for s, t, label in self.pairs if label is not SentAlignLabel.NOT_ALIGNED
        )

    def sorted_positive(self) -> list[tuple[SentenceId, SentenceId, SentAlignLabel]]:
        return sorted(
            (p for p in self.pairs if p[2] is not SentAlignLabel.NOT_ALIGNED), key=itemgetter(0, 1)
        )

    def validate_against(self, src: DocVersion, tgt: DocVersion) -> None:
        if src.version_index != self.src_version or tgt.version_index != self.tgt_version:
            raise ValueError(
                f"alignment is for versions {self.src_version}->{self.tgt_version}, "
                f"got documents {src.version_index}->{tgt.version_index}"
            )
        for s, t, _ in self.pairs:
            src.sentence(s)
            tgt.sentence(t)


def align_sentences_directional(
    cells: CandidateCells,
    src: DocVersion,
    tgt: DocVersion,
    threshold: float,
) -> SentenceAlignment:
    """Align every source sentence to its best-scoring candidate among
    the sentences of related target paragraphs.

    `cells` are the candidate pairs of src and tgt, in either order, with
    their scores (para_align.CandidateCells).  Each source sentence takes
    its first candidate with the highest score in ascending target id
    order, and keeps it unless that score is below the threshold.  The
    label is aligned when the score is 1 or the surfaces match after
    lowercasing, partially-aligned otherwise.  Every metric goes through
    this one path, in both directions.
    """
    import numpy as np

    forward, backward = cells.scores
    if src.version_index == cells.src.doc.version_index:
        mine, other, rows, cols, scores = cells.src, cells.tgt, cells.rows, cells.cols, forward
    elif src.version_index == cells.tgt.doc.version_index:
        mine, other, rows, cols, scores = cells.tgt, cells.src, cells.cols, cells.rows, backward
    else:
        raise ValueError(f"version {src.version_index} is neither side of these cells")
    # each sentence's top score, then the lowest other-side row among its
    # cells that reach it; a sentence with no cells keeps -inf and m
    m = len(other.sentences)
    top = np.full(len(mine.sentences), -np.inf)
    np.maximum.at(top, rows, scores)
    at = scores == top[rows]
    first = np.full(len(mine.sentences), m)
    np.minimum.at(first, rows[at], cols[at])
    kept = np.flatnonzero((first < m) & (top >= threshold))
    s, t, ts, tt = mine.sentences, other.sentences, mine.rows.texts, other.rows.texts
    pairs = frozenset(
        (s[r].id, t[c].id, SentAlignLabel.ALIGNED if exact or ts[r] == tt[c] else SentAlignLabel.PARTIAL)
        for r, c, exact in zip(kept.tolist(), first[kept].tolist(), (top[kept] == 1.0).tolist())
    )
    return SentenceAlignment(src.version_index, tgt.version_index, pairs)


def merge_bidirectional(fwd: SentenceAlignment, bwd: SentenceAlignment) -> SentenceAlignment:
    """Intersect a forward alignment with a reversed backward one.

    A pair survives when both directions proposed it; it keeps the
    aligned label only when both directions agreed on it.
    """
    if fwd.src_version != bwd.tgt_version or fwd.tgt_version != bwd.src_version:
        raise ValueError(
            f"directions do not match: forward {fwd.src_version}->{fwd.tgt_version}, "
            f"backward {bwd.src_version}->{bwd.tgt_version}"
        )
    back = {
        (t, s): label
        for s, t, label in bwd.pairs
        if label is not SentAlignLabel.NOT_ALIGNED
    }
    merged: set[AlignedPair] = set()
    for s, t, label in fwd.pairs:
        if label is SentAlignLabel.NOT_ALIGNED:
            continue
        other = back.get((s, t))
        if other is None:
            continue
        if label is SentAlignLabel.ALIGNED and other is SentAlignLabel.ALIGNED:
            merged.add((s, t, SentAlignLabel.ALIGNED))
        else:
            merged.add((s, t, SentAlignLabel.PARTIAL))
    return SentenceAlignment(fwd.src_version, fwd.tgt_version, frozenset(merged))
