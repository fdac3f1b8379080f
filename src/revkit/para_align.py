"""Paragraph alignment between two document versions, and the scoring
of the sentence pairs inside aligned paragraph pairs.

Two paragraph similarity matrices, one per direction, are built from
sentence-level Jaccard scores, then two threshold-gated argmax passes
pick paragraph pairs.  The two passes deliberately cross directions:
each argmaxes one of the two similarity matrices but applies its
thresholds to the other.  That asymmetry is part of the published
behaviour of this procedure and must not be "fixed".

Every sentence of a group's versions, skipped ones included, is encoded
once, up front (encode_versions), into its lowercase token ids over one
vocabulary that the group's version pairs share.  Each version's
alignable sentences are laid out once (kernels.Rows); each layout
serves as the target of one pair and the source of the next.
The caller hands a pair's two encodings to align_paragraphs and
CandidateCells alike.  The sentence x sentence Jaccard
scores are computed a block of whole source paragraphs at a time,
against a target side indexed once per version pair (kernels.Target).
Segment reductions turn each block into its paragraphs' rows of both
matrices: ``np.maximum.reduceat`` over paragraph boundaries gives each
sentence's best match per paragraph, and each paragraph pair's mean is
one 1-D reduction over a C-contiguous segment, so it rounds exactly as a
per-block ``np.mean`` would.  The passes read each block's rows as they
come and keep only each target's best source so far, so neither the
n x m scores nor the k x l matrices ever exist whole: what stays is one
block, arrays over the target paragraphs, and the encodings.

Sentence alignment then scores only the candidate cells, the sentence
pairs inside aligned paragraph pairs, each once for both directions
(CandidateCells), all in one call of the metric's bulk scorer
(similarity.make_metric), which reads the same encodings.  One
np.maximum.at and one np.minimum.at pick each sentence's best
candidate, in either direction.
"""
from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import RunConfig
from .corpus import DocVersion, Sentence
from .kernels import Rows, Target, jaccard_matrix

# cells per block of source paragraphs whose Jaccard scores exist at once
_BLOCK_CELLS = 1 << 16


class EncodedVersion(NamedTuple):
    """A version's alignable sentences with their encodings: row r is
    sentences[r], and rows.texts[r] lists its tokens' lowercase ids in
    order."""

    doc: DocVersion
    sentences: list[Sentence]
    rows: Rows
    # each alignable paragraph's [start, end) rows, by paragraph index
    bounds: dict[int, tuple[int, int]]
    # every other sentence of the version, encoded as the rows are
    others: list[tuple[int, ...]]


class CandidateCells:
    """The sentence pairs inside the aligned paragraph pairs `pairs`, each
    scored once for both directions.

    A cell pairs source row r with target row c of `encodings`, the
    source's and the target's EncodedVersion, as encode_versions gives.
    The cells are listed by source row, then target row (rows, cols);
    only the kernels' shared-id lookup (_shared_ids) relies on that order.
    `metric` is a bulk scorer from similarity.make_metric, called once,
    when the scores are first read.
    """

    def __init__(
        self,
        pairs: frozenset[tuple[int, int]],
        encodings: tuple[EncodedVersion, EncodedVersion],
        metric: Callable,
    ) -> None:
        (self.src, self.tgt), self.metric = encodings, metric
        self.rows, self.cols = _cells(pairs, self.src.bounds, self.tgt.bounds)

    @cached_property
    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's score from the source side and from the target side."""
        return self.metric((self.src, self.tgt), (self.rows, self.cols))

    def best(self, src_version: int) -> list[tuple[Sentence, Sentence, float, bool]]:
        """Each sentence of version src_version that has candidates, its
        first candidate in ascending id order with the highest score, that
        score, and whether the two hold the same lowercase tokens."""
        src, tgt = self.src, self.tgt
        fwd, bwd = self.scores
        if src_version == src.doc.version_index:
            rows, cols, scores = self.rows, self.cols, fwd
        elif src_version == tgt.doc.version_index:
            rows, cols, scores = self.cols, self.rows, bwd
            src, tgt = tgt, src
        else:
            raise ValueError(f"version {src_version} is neither side of these cells")
        # each sentence's top score, then the lowest other-side row among
        # its cells that reach it; a sentence with no cells keeps m
        m = len(tgt.sentences)
        top = np.full(len(src.sentences), -np.inf)
        np.maximum.at(top, rows, scores)
        at = scores == top[rows]
        first = np.full(len(src.sentences), m)
        np.minimum.at(first, rows[at], cols[at])
        found = np.flatnonzero(first < m)
        s, t, ts, tt = src.sentences, tgt.sentences, src.rows.texts, tgt.rows.texts
        return [
            (s[r], t[c], v, ts[r] == tt[c])
            for r, c, v in zip(found.tolist(), first[found].tolist(), top[found].tolist())
        ]


def _cells(
    pairs: frozenset[tuple[int, int]],
    src_bounds: dict[int, tuple[int, int]],
    tgt_bounds: dict[int, tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Source and target row of every cell inside the paragraph pairs, by
    source row, then target row.  A paragraph that is not alignable has
    no rows.

    Each source paragraph's pairs are a run of the sorted pairs, and each
    of its rows takes one run of target rows per pair.  The runs are laid
    out row by row, and then the runs' cells, by np.repeat and cumsum,
    with no Python loop over rows."""
    ordered = sorted(pairs)
    bounds = np.array(
        [src_bounds.get(i, (0, 0)) + tgt_bounds.get(j, (0, 0)) for i, j in ordered], dtype=np.int64
    ).reshape(-1, 4)
    first = np.flatnonzero(np.diff([i for i, _ in ordered], prepend=-1))  # each source paragraph's first pair
    width = np.diff(first, append=len(ordered))  # its number of pairs
    s0 = bounds[first, 0]
    runs = (bounds[first, 1] - s0) * width
    # run q of a paragraph's runs is row s0 + q // width against its pair q % width
    q = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    row, pair = np.divmod(q, np.repeat(width, runs))
    row += np.repeat(s0, runs)
    pair += np.repeat(first, runs)
    t0, length = bounds[pair, 2], bounds[pair, 3] - bounds[pair, 2]
    cols = np.arange(length.sum()) + np.repeat(t0 - (np.cumsum(length) - length), length)
    return np.repeat(row, length), cols


class _Vocabulary(dict):
    """Token surface -> id of its lowercase form, which `lower` maps to
    it.  A new surface joins on lookup, so ids follow first occurrence."""

    def __init__(self) -> None:
        super().__init__()
        self.lower: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        found = self[token] = self.lower.setdefault(token.lower(), len(self.lower))
        return found


def encode_versions(versions: Sequence[DocVersion]) -> list[EncodedVersion]:
    """Every version's sentences encoded once, in version order, over one
    vocabulary: each text's tokens as their lowercase ids, which follow
    first occurrence, skipped sentences included.  The alignable
    sentences are laid out once; the others are kept as id tuples.

    Equal raw texts have equal tokens, so each distinct text is encoded
    once and its versions share one encoding.  The vocabulary and the
    text memo are dropped on return.
    """
    surface = _Vocabulary()
    known: dict[str, tuple[int, ...]] = {}
    out = []
    for doc in versions:
        sentences: list[Sentence] = []
        texts: list[tuple[int, ...]] = []
        others: list[tuple[int, ...]] = []
        bounds: dict[int, tuple[int, int]] = {}
        for p in doc.paragraphs:
            start = len(texts)
            for s in p.sentences:
                text = known.get(s.raw)
                if text is None:
                    text = known[s.raw] = tuple(map(surface.__getitem__, s.tokens))
                if p.skipped or s.skipped:
                    others.append(text)
                else:
                    sentences.append(s)
                    texts.append(text)
            if not p.skipped:
                bounds[p.index] = (start, len(texts))
        out.append(EncodedVersion(doc, sentences, Rows(texts), bounds, others))
    return out


def sim_rows(a: EncodedVersion, b: EncodedVersion) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Both paragraph similarity matrices of two encoded versions, a block
    of source paragraphs at a time.

    sim1[i, j] averages, over the sentences of source paragraph i, the
    best Jaccard score against any sentence of target paragraph j; sim2
    swaps the roles (average over target paragraph j's sentences, max
    over source paragraph i's).  Rows and columns are positions in the
    versions' bounds.  Each block yields its paragraphs' positions, in
    ascending order, and their full rows of sim1 and of sim2.  Skipped
    sentences take part in neither the average nor the max, so a
    paragraph whose sentences are all skipped scores zero: its column is
    zero, and as a source it is in no block.

    The block's Jaccard scores are reduced and dropped before it is
    yielded.
    """
    src_bounds, tgt_bounds = list(a.bounds.values()), list(b.bounds.values())
    m, l = len(b.rows), len(tgt_bounds)
    target = Target(b.rows)
    # reduceat mishandles empty segments, so reduce over non-empty paragraphs only
    si = [i for i, (r0, r1) in enumerate(src_bounds) if r0 < r1]
    tj = [j for j, (c0, c1) in enumerate(tgt_bounds) if c0 < c1]
    tgt_starts = [tgt_bounds[j][0] for j in tj]
    tgt_means = _SegmentMeans([tgt_bounds[j] for j in tj])
    for block in _paragraph_blocks(si, src_bounds, max(1, _BLOCK_CELLS // max(m, 1))):
        r0, r1 = src_bounds[block[0]][0], src_bounds[block[-1]][1]
        scores = jaccard_matrix(a.rows[r0:r1], target)
        para_rows = [(src_bounds[i][0] - r0, src_bounds[i][1] - r0) for i in block]
        # rowmax[j', r]: best score of block row r in target paragraph tj[j']
        rowmax = np.maximum.reduceat(scores, tgt_starts, axis=1).T
        # colmax[i', c]: best score of target sentence c in source paragraph block[i']
        colmax = np.maximum.reduceat(scores, [r for r, _ in para_rows], axis=0)
        del scores
        sim1, sim2 = np.zeros((2, len(block), l))
        sim1[:, tj] = _SegmentMeans(para_rows).of(rowmax).T
        sim2[:, tj] = tgt_means.of(colmax)
        yield np.array(block), sim1, sim2


def _paragraph_blocks(
    paragraphs: list[int], bounds: list[tuple[int, int]], rows: int
) -> Iterator[list[int]]:
    """Runs of consecutive paragraphs, each of at most `rows` rows, or a
    single paragraph larger than that."""
    block: list[int] = []
    for i in paragraphs:
        if block and bounds[i][1] - bounds[block[0]][0] > rows:
            yield block
            block = []
        block.append(i)
    if block:
        yield block


class _SegmentMeans:
    """The means of contiguous segments of each row of an array.

    Segments of equal length are gathered into one C-contiguous array and
    averaged by one np.mean along its last axis, so each mean is the same
    1-D reduction, in np.mean's pairwise order, as the mean of that
    segment alone."""

    def __init__(self, segments: list[tuple[int, int]]) -> None:
        by_length: dict[int, list[tuple[int, int]]] = {}
        for p, (start, end) in enumerate(segments):
            by_length.setdefault(end - start, []).append((p, start))
        self.count = len(segments)
        self.groups = [
            (np.array([p for p, _ in found]), np.array([s for _, s in found])[:, None] + np.arange(length))
            for length, found in by_length.items()
        ]

    def of(self, values: np.ndarray) -> np.ndarray:
        """means[r, p]: the mean of values[r] over segment p."""
        means = np.empty((len(values), self.count), dtype=np.float64)
        for at, columns in self.groups:
            means[:, at] = np.take(values, columns, axis=1).mean(axis=2)
        return means


def _gated(
    score: np.ndarray, i: np.ndarray, k: int, j: np.ndarray, l: int, near: float, cfg: RunConfig
) -> np.ndarray:
    """Which pairs (i, j) of 0-based positions in the alignable paragraph
    lists pass a pass's gates: a score above tau1 with relative positions
    closer than `near`, or a score above tau3."""
    return ((score > cfg.tau1) & (np.abs(i / k - j / l) < near)) | (score > cfg.tau3)


def align_paragraphs(
    src: DocVersion,
    tgt: DocVersion,
    cfg: RunConfig,
    encodings: tuple[EncodedVersion, EncodedVersion],
) -> frozenset[tuple[int, int]]:
    """Two-pass thresholded-argmax paragraph alignment: the aligned
    paragraph pairs, in original paragraph indices.

    Pass one walks target paragraphs and argmaxes sim2 over sources but
    gates on sim1; pass two walks sources, argmaxes sim1 over targets and
    gates on sim2.  A pair is added when the gated score exceeds tau1 and
    the relative positions differ by less than tau2 (pass one) or tau4
    (pass two), or unconditionally when it exceeds tau3; the four come
    from `cfg`, which checks that they lie in [0, 1].  Argmax ties
    break to the lowest index.  Skipped paragraphs never appear.
    `encodings` are src's and tgt's, from the group's encode_versions.

    Both passes read sim_rows' blocks as they come, so the state is one
    block and three arrays over the targets: each column's best sim2 so
    far, its source, and sim1 there.  A paragraph whose sentences are all
    skipped scores zero, which passes no gate, so the passes may leave
    it out.
    """
    a, b = encodings
    assert a.doc is src and b.doc is tgt
    k, l = len(a.bounds), len(b.bounds)
    if k == 0 or l == 0:
        return frozenset()
    cols = np.arange(l)
    best, best_at, best_sim1 = np.zeros(l), np.zeros(l, dtype=np.int64), np.zeros(l)
    chosen: set[tuple[int, int]] = set()
    for rows, sim1, sim2 in sim_rows(a, b):
        # pass two, whole within the block: each source's argmax of sim1, gated on sim2
        j = sim1.argmax(axis=1)
        passed = _gated(sim2[np.arange(len(rows)), j], rows, k, j, l, cfg.tau4, cfg)
        chosen.update(zip(rows[passed].tolist(), j[passed].tolist()))
        # pass one's running argmax of sim2 per target: an earlier, lower
        # source keeps a tie, as np.argmax would
        top = sim2.argmax(axis=0)
        better = np.flatnonzero(sim2[top, cols] > best)
        top = top[better]
        best[better], best_at[better], best_sim1[better] = sim2[top, better], rows[top], sim1[top, better]
    passed = _gated(best_sim1, best_at, k, cols, l, cfg.tau2, cfg)
    chosen.update(zip(best_at[passed].tolist(), cols[passed].tolist()))
    src_paragraphs, tgt_paragraphs = tuple(a.bounds), tuple(b.bounds)
    return frozenset((src_paragraphs[i], tgt_paragraphs[j]) for i, j in chosen)
