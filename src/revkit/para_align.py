"""Paragraph alignment between two document versions.

A bidirectional similarity tensor is built from sentence-level Jaccard
scores, then two threshold-gated argmax passes pick paragraph pairs.
The two passes deliberately cross directions: each argmaxes one of the
two similarity matrices but applies its thresholds to the other.  That
asymmetry is part of the published behaviour of this procedure and must
not be "fixed".

The sentence x sentence Jaccard matrix is computed once per version
pair.  Each distinct sentence text of a group is encoded once, into its
list of lowercase-token ids over one vocabulary shared by all the
group's version pairs, and repeated texts reuse that list (GroupEncoder).  Segment reductions turn the matrix into
the tensor: ``np.maximum.reduceat`` over paragraph boundaries gives each
sentence's best match per paragraph, and each block mean is one
contiguous 1-D reduction, so it rounds exactly as a per-block ``np.mean``
would.  The same matrix then serves sentence alignment as a score lookup.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import DocVersion, Paragraph, Sentence, SentenceId
from .kernels import jaccard_matrix


@dataclass(frozen=True)
class Thresholds:
    """Gates for the two alignment passes.

    tau1/tau3 bound the similarity tests, tau2/tau4 bound the relative
    position distance in the first and second pass respectively.
    """

    tau1: float = 0.28
    tau2: float = 0.15
    tau3: float = 0.85
    tau4: float = 0.2

    def __post_init__(self) -> None:
        for name in ("tau1", "tau2", "tau3", "tau4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class SentenceScores:
    """Jaccard score lookup over one version pair's alignable sentences.

    Calling it with a source and a target sentence reads their cell of
    the sentence x sentence matrix, which equals ``similarity.jaccard``
    exactly: both divide the same two integers once.
    """

    matrix: np.ndarray
    rows: dict[SentenceId, int]
    cols: dict[SentenceId, int]

    def __call__(self, a: Sentence, b: Sentence) -> float:
        return self.matrix.item(self.rows[a.id], self.cols[b.id])

    def transposed(self) -> "SentenceScores":
        return SentenceScores(self.matrix.T, self.cols, self.rows)


@dataclass(frozen=True)
class ParaSimTensor:
    """Paragraph similarity in both directions over the non-skipped
    paragraphs of two versions.

    sim1[i][j] averages, over the sentences of source paragraph i, the
    best Jaccard score against any sentence of target paragraph j; sim2
    swaps the roles (average over target paragraph j's sentences, max
    over source paragraph i's).  Rows/columns follow src_paragraphs and
    tgt_paragraphs, which map back to original paragraph indices.
    """

    sim1: np.ndarray
    sim2: np.ndarray
    src_paragraphs: tuple[int, ...]
    tgt_paragraphs: tuple[int, ...]
    scores: SentenceScores

    @property
    def k(self) -> int:
        return len(self.src_paragraphs)

    @property
    def l(self) -> int:
        return len(self.tgt_paragraphs)


@dataclass(frozen=True)
class ParaAlignment:
    """Aligned paragraph pairs, in original paragraph indices.

    scores, when set, is the Jaccard lookup over the same version pair,
    oriented like the pairs; it takes no part in equality.
    """

    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    scores: SentenceScores | None = field(default=None, compare=False, repr=False)

    def reversed(self) -> "ParaAlignment":
        scores = self.scores.transposed() if self.scores is not None else None
        return ParaAlignment(frozenset((j, i) for i, j in self.pairs), scores)


class GroupEncoder:
    """Lowercase-token id lists of sentence texts over one vocabulary that
    every version pair of a group shares.

    A group's pairs run (v1, v2), (v2, v3), ...: each pair's source is
    the previous pair's target.  So after each pair the encoder keeps only
    the id lists of its target's texts, which the next pair reuses, and
    after the last of `pairs` pairs it keeps nothing, not even the
    vocabulary.  Equal raw texts have equal tokens, so a text's list
    depends on the text alone.
    """

    def __init__(self, pairs: int = 1) -> None:
        self.pairs = pairs
        self.surface: dict[str, int] = {}  # token surface -> id of its lowercase form
        self.lower: dict[str, int] = {}  # lowercase token -> id
        self.rows: dict[str, list[int]] = {}  # raw text -> its distinct ids

    def encode_pair(self, sp: tuple[Paragraph, ...], tp: tuple[Paragraph, ...]):
        """_sentence_rows of the source's and the target's non-skipped
        paragraphs; then keep the target's id lists, or nothing after
        the last pair."""
        src = self._sentence_rows(sp, self.rows)
        kept: dict[str, list[int]] = {}
        tgt = self._sentence_rows(tp, kept)
        self.pairs -= 1
        if self.pairs > 0:
            self.rows = kept
        else:
            self.surface, self.lower, self.rows = {}, {}, {}
        return src, tgt

    def _sentence_rows(self, paragraphs: tuple[Paragraph, ...], out: dict[str, list[int]]):
        """Id lists of the non-skipped sentences, their SentenceId -> row
        map, and each paragraph's [start, end) row range.  Each text's
        list is also stored in `out`."""
        known = self.rows
        ids: list[list[int]] = []
        rows: dict[SentenceId, int] = {}
        bounds: list[tuple[int, int]] = []
        for p in paragraphs:
            start = len(ids)
            for s in p.sentences:
                if not s.skipped:
                    rows[s.id] = len(ids)
                    row = known.get(s.raw)
                    if row is None:
                        row = known[s.raw] = self._encode(s.tokens)
                    out[s.raw] = row
                    ids.append(row)
            bounds.append((start, len(ids)))
        return ids, rows, bounds

    def _encode(self, tokens: tuple[str, ...]) -> list[int]:
        surface, lower = self.surface, self.lower
        row = set(map(surface.get, tokens))
        if None in row:
            for t in set(tokens).difference(surface):
                surface[t] = lower.setdefault(t.lower(), len(lower))
            row = set(map(surface.get, tokens))
        return list(row)


def compute_sim_tensor(
    src: DocVersion, tgt: DocVersion, encoder: GroupEncoder | None = None
) -> ParaSimTensor:
    """Build both similarity matrices over the non-skipped paragraphs.

    Skipped sentences take part in neither the average nor the max; a
    paragraph whose sentences are all skipped yields a zero row/column,
    and an empty version yields zero-size matrices.  `encoder` carries
    the encodings of the group's previous pair; without one the pair is
    encoded alone.
    """
    sp = src.alignable_paragraphs()
    tp = tgt.alignable_paragraphs()
    k, l = len(sp), len(tp)
    sim1 = np.zeros((k, l), dtype=np.float64)
    sim2 = np.zeros((k, l), dtype=np.float64)
    if encoder is None:
        encoder = GroupEncoder()
    (src_ids, src_rows, src_bounds), (tgt_ids, tgt_rows, tgt_bounds) = encoder.encode_pair(sp, tp)
    matrix = jaccard_matrix(src_ids, tgt_ids)
    if src_ids and tgt_ids:
        # reduceat mishandles empty segments, so reduce over non-empty
        # paragraphs only; all-skipped paragraphs keep their zero row/column
        si = [i for i, (r0, r1) in enumerate(src_bounds) if r0 < r1]
        tj = [j for j, (c0, c1) in enumerate(tgt_bounds) if c0 < c1]
        # rowmax[j', r]: best score of source sentence r in target paragraph tj[j']
        rowmax = np.ascontiguousarray(
            np.maximum.reduceat(matrix, [tgt_bounds[j][0] for j in tj], axis=1).T
        )
        # colmax[i', c]: best score of target sentence c in source paragraph si[i']
        colmax = np.maximum.reduceat(matrix, [src_bounds[i][0] for i in si], axis=0)
        # each mean runs over one contiguous row segment, in np.mean's 1-D order
        for i in si:
            r0, r1 = src_bounds[i]
            sim1[i, tj] = rowmax[:, r0:r1].mean(axis=1)
        for j in tj:
            c0, c1 = tgt_bounds[j]
            sim2[si, j] = colmax[:, c0:c1].mean(axis=1)
    return ParaSimTensor(
        sim1=sim1,
        sim2=sim2,
        src_paragraphs=tuple(p.index for p in sp),
        tgt_paragraphs=tuple(p.index for p in tp),
        scores=SentenceScores(matrix, src_rows, tgt_rows),
    )


def _rel_dist(i: int, k: int, j: int, l: int) -> float:
    # relative-position distance over 0-based positions in the
    # non-skipped paragraph lists
    return abs(i / k - j / l)


def align_paragraphs(
    src: DocVersion,
    tgt: DocVersion,
    thresholds: Thresholds = Thresholds(),
    encoder: GroupEncoder | None = None,
) -> ParaAlignment:
    """Two-pass thresholded-argmax paragraph alignment.

    Pass one walks target paragraphs and argmaxes sim2 over sources but
    gates on sim1; pass two walks sources, argmaxes sim1 over targets and
    gates on sim2.  A pair is added when the gated score exceeds tau1 and
    the relative positions differ by less than tau2 (pass one) or tau4
    (pass two), or unconditionally when it exceeds tau3.  Argmax ties
    break to the lowest index.  Returned pairs use original paragraph
    indices; skipped paragraphs never appear.  The result carries the
    sentence Jaccard lookup so sentence alignment can reuse it.
    `encoder` is as for compute_sim_tensor.
    """
    t = compute_sim_tensor(src, tgt, encoder)
    k, l = t.k, t.l
    if k == 0 or l == 0:
        return ParaAlignment(scores=t.scores)
    chosen: set[tuple[int, int]] = set()
    for j in range(l):
        i_max = int(np.argmax(t.sim2[:, j]))
        if t.sim1[i_max, j] > thresholds.tau1 and _rel_dist(i_max, k, j, l) < thresholds.tau2:
            chosen.add((i_max, j))
        elif t.sim1[i_max, j] > thresholds.tau3:
            chosen.add((i_max, j))
    for i in range(k):
        j_max = int(np.argmax(t.sim1[i, :]))
        if t.sim2[i, j_max] > thresholds.tau1 and _rel_dist(i, k, j_max, l) < thresholds.tau4:
            chosen.add((i, j_max))
        elif t.sim2[i, j_max] > thresholds.tau3:
            chosen.add((i, j_max))
    return ParaAlignment(
        frozenset((t.src_paragraphs[i], t.tgt_paragraphs[j]) for i, j in chosen), t.scores
    )
