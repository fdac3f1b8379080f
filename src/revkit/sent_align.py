"""Sentence alignment within aligned paragraph pairs.

A directional pass aligns each source sentence to its best-scoring
candidate on the other side; running both directions and intersecting
gives the final symmetric alignment.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .corpus import DocVersion, Sentence, SentenceId
from .similarity import SentenceMetric

if TYPE_CHECKING:  # pragma: no cover
    from .para_align import ParaAlignment


class SentAlignLabel(Enum):
    ALIGNED = "aligned"
    PARTIAL = "partially-aligned"
    NOT_ALIGNED = "not-aligned"


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
            (p for p in self.pairs if p[2] is not SentAlignLabel.NOT_ALIGNED),
            key=lambda p: (p[0], p[1]),
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


def _alignable_in(doc: DocVersion, para_indices: Iterable[int]) -> list[Sentence]:
    out: list[Sentence] = []
    for pi in sorted(set(para_indices)):
        para = doc.paragraph(pi)
        if para.skipped:
            continue
        out.extend(s for s in para.sentences if not s.skipped)
    return out


def align_sentences_directional(
    paras: ParaAlignment,
    src: DocVersion,
    tgt: DocVersion,
    metric: SentenceMetric,
    threshold: float,
) -> SentenceAlignment:
    """Align every source sentence to its best-scoring candidate among
    the sentences of related target paragraphs.

    A pair is kept when the best score reaches the threshold; ties break
    to the lowest target id.  The label is aligned when the score is 1 or
    the surfaces match after lowercasing, partially-aligned otherwise.
    """
    by_src: dict[int, list[int]] = {}
    for pi, pj in paras.pairs:
        by_src.setdefault(pi, []).append(pj)
    pairs: set[AlignedPair] = set()
    for pi in sorted(by_src):
        src_para = src.paragraph(pi)
        if src_para.skipped:
            continue
        candidates = _alignable_in(tgt, by_src[pi])
        if not candidates:
            continue
        for s in src_para.sentences:
            if s.skipped:
                continue
            best: Sentence | None = None
            best_score = -1.0
            for t in candidates:  # ascending id order, first max wins
                score = metric(s, t)
                if score > best_score:
                    best, best_score = t, score
            if best is None or best_score < threshold:
                continue
            if best_score == 1.0 or s.lower_tokens() == best.lower_tokens():
                label = SentAlignLabel.ALIGNED
            else:
                label = SentAlignLabel.PARTIAL
            pairs.add((s.id, best.id, label))
    return SentenceAlignment(src.version_index, tgt.version_index, frozenset(pairs))


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
