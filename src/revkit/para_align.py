"""Paragraph alignment between two document versions, and the scoring
of the sentence pairs inside aligned paragraph pairs.

A bidirectional similarity tensor is built from sentence-level Jaccard
scores, then two threshold-gated argmax passes pick paragraph pairs.
The two passes deliberately cross directions: each argmaxes one of the
two similarity matrices but applies its thresholds to the other.  That
asymmetry is part of the published behaviour of this procedure and must
not be "fixed".

Each version of a group is encoded once (GroupEncoder), into its
sentences' lowercase token ids over one vocabulary that the group's
version pairs share, and laid out once (kernels.Rows), as the target of
one pair and the source of the next.  The sentence x sentence Jaccard
scores are computed a block of whole source paragraphs at a time,
against a target side indexed once per version pair (kernels.Target),
and each block is reduced and dropped before the next.  Segment
reductions turn each block into its paragraphs' part of the tensor:
``np.maximum.reduceat`` over paragraph boundaries gives each sentence's
best match per paragraph, and each paragraph pair's mean is one 1-D
reduction over a C-contiguous segment, so it rounds exactly as a
per-block ``np.mean`` would.  Nothing of size n x m outlives a block:
what stays is the tensor and the two encodings.

Sentence alignment then scores only the candidate cells, the sentence
pairs inside aligned paragraph pairs, each once for both directions
(CandidateCells): jaccard and tfidf come in bulk from the same
layouts (kernels.jaccard_cells, kernels.tfidf_cosines), and
char3gram and bleu call their scalar function once per cell.  One
per-row argmax picks each sentence's best candidate, in either direction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .corpus import DocVersion, Sentence
from .kernels import Rows, Target, jaccard_cells, jaccard_matrix, tfidf_cosines

# cells per block of source paragraphs whose Jaccard scores exist at once
_BLOCK_CELLS = 1 << 16


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


class EncodedVersion(NamedTuple):
    """A version's alignable sentences with their encodings: row r is
    sentences[r], and rows.texts[r] lists its tokens' lowercase ids in
    order."""

    doc: DocVersion
    sentences: list[Sentence]
    rows: Rows
    # each alignable paragraph's [start, end) rows, by paragraph index
    bounds: dict[int, tuple[int, int]]
    # the vocabulary the ids index: lowercase token -> id
    vocab: dict[str, int]

    def unencoded_ids(self) -> list[list[int]]:
        """The distinct ids of every sentence of the version that is not
        alignable.  Their tokens outside the vocabulary occur in no
        encoded text, so no score reads them."""
        vocab = self.vocab
        return [
            [vocab[w] for w in {t.lower() for t in s.tokens} if w in vocab]
            for p in self.doc.paragraphs
            for s in p.sentences
            if p.skipped or s.skipped
        ]


@dataclass(frozen=True)
class ParaSimTensor:
    """Paragraph similarity in both directions over the non-skipped
    paragraphs of two versions.

    sim1[i][j] averages, over the sentences of source paragraph i, the
    best Jaccard score against any sentence of target paragraph j; sim2
    swaps the roles (average over target paragraph j's sentences, max
    over source paragraph i's).  src and tgt are the two versions'
    encodings the scores came from; rows/columns follow the original
    paragraph indices of their bounds.
    """

    sim1: np.ndarray
    sim2: np.ndarray
    src: EncodedVersion
    tgt: EncodedVersion

    @property
    def k(self) -> int:
        return len(self.src.bounds)

    @property
    def l(self) -> int:
        return len(self.tgt.bounds)


@dataclass(frozen=True)
class ParaAlignment:
    """Aligned paragraph pairs, in original paragraph indices.

    encodings, when set, holds the source's and the target's sentence
    encodings (EncodedVersion), which sentence alignment scores the
    candidate cells from; it takes no part in equality.
    """

    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    encodings: tuple[EncodedVersion, EncodedVersion] | None = field(default=None, compare=False, repr=False)


class CandidateCells:
    """The sentence pairs inside the aligned paragraph pairs of `paras`,
    each scored once for both directions.

    A cell pairs source row r with target row c of the pair's encodings.
    `metric` is "jaccard" or "tfidf", scored in bulk, or a symmetric
    function of two sentences, called once per cell for both directions.
    The cells are scored on first use.
    """

    def __init__(self, paras: ParaAlignment, metric: str | Callable[[Sentence, Sentence], float]) -> None:
        if paras.encodings is None:
            raise ValueError("these paragraph pairs carry no sentence encodings")
        if not callable(metric) and metric not in ("jaccard", "tfidf"):
            raise ValueError(f"metric {metric!r} is not scored in bulk; pass its function")
        (self.src, self.tgt), self.metric = paras.encodings, metric
        self.rows, self.cols = _cells(paras.pairs, self.src.bounds, self.tgt.bounds)

    @cached_property
    def _scored(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's score from the source side and from the target side."""
        src, tgt, rows, cols = self.src, self.tgt, self.rows, self.cols
        if not len(rows):
            # no cell; tfidf could not even fit idf on versions without sentences
            return np.zeros(0), np.zeros(0)
        if self.metric == "jaccard":
            scores = jaccard_cells(src.rows, tgt.rows, rows, cols)
            return scores, scores
        if self.metric == "tfidf":
            # one document per sentence of both versions, skipped ones included
            others = Rows(src.unencoded_ids() + tgt.unencoded_ids())
            return tfidf_cosines(src.rows, tgt.rows, rows, cols, others)
        s, t = src.sentences, tgt.sentences
        scores = np.array(
            [self.metric(s[r], t[c]) for r, c in zip(rows.tolist(), cols.tolist())], dtype=np.float64
        )
        return scores, scores

    def __iter__(self) -> Iterator[tuple[Sentence, Sentence, float, float]]:
        """Every cell: its source and target sentence, and its score from
        each side."""
        fwd, bwd = self._scored
        s, t = self.src.sentences, self.tgt.sentences
        for r, c, f, b in zip(self.rows.tolist(), self.cols.tolist(), fwd.tolist(), bwd.tolist()):
            yield s[r], t[c], f, b

    def best(self, src_version: int) -> list[tuple[Sentence, Sentence, float, bool]]:
        """Each sentence of version src_version that has candidates, its
        first candidate in ascending id order with the highest score, that
        score, and whether the two hold the same lowercase tokens."""
        src, tgt = self.src, self.tgt
        fwd, bwd = self._scored
        if src_version == src.doc.version_index:
            rows, cols, scores = self.rows, self.cols, fwd
        elif src_version == tgt.doc.version_index:
            order = np.argsort(self.cols, kind="stable")
            rows, cols, scores = self.cols[order], self.rows[order], bwd[order]
            src, tgt = tgt, src
        else:
            raise ValueError(f"version {src_version} is neither side of these cells")
        if not len(rows):
            return []
        # rows ascend, and each row's candidates follow in ascending id order
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        top = np.maximum.reduceat(scores, starts)
        n = len(scores)
        at = np.where(scores == np.repeat(top, np.diff(starts, append=n)), np.arange(n), n)
        first = np.minimum.reduceat(at, starts)
        s, t, ts, tt = src.sentences, tgt.sentences, src.rows.texts, tgt.rows.texts
        return [
            (s[r], t[c], v, ts[r] == tt[c])
            for r, c, v in zip(rows[starts].tolist(), cols[first].tolist(), top.tolist())
        ]


def _cells(
    pairs: frozenset[tuple[int, int]],
    src_bounds: dict[int, tuple[int, int]],
    tgt_bounds: dict[int, tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Source and target row of every cell inside the paragraph pairs, by
    source row, then target row.  A paragraph that is not alignable has
    no rows."""
    partners: dict[int, list[int]] = {}
    for i, j in sorted(pairs):
        partners.setdefault(i, []).append(j)
    rows: list[int] = []
    cols: list[int] = []
    for i, js in partners.items():
        targets = [c for j in js for c in range(*tgt_bounds.get(j, (0, 0)))]
        for r in range(*src_bounds.get(i, (0, 0))):
            rows += [r] * len(targets)
            cols += targets
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


class _Vocabulary(dict):
    """Token surface -> id of its lowercase form, which `lower` maps to
    it.  A new surface joins on lookup, so ids follow first occurrence."""

    def __init__(self) -> None:
        super().__init__()
        self.lower: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        found = self[token] = self.lower.setdefault(token.lower(), len(self.lower))
        return found


class GroupEncoder:
    """Encodings of sentence texts over one vocabulary that every version
    pair of a group shares: each text's tokens as their lowercase ids, in
    order, and each version's laid out once as kernels.Rows.

    A group's pairs run (v1, v2), (v2, v3), ..., so the encoder keeps each
    pair's target and hands it back as the next pair's source when that
    is the same DocVersion; any other source is encoded afresh.  After the
    last of `pairs` pairs it keeps nothing, not even the vocabulary (the
    pair's EncodedVersions still hold theirs).  Equal raw texts have equal
    tokens, so the target reuses the source's encodings of its texts.
    """

    def __init__(self, pairs: int = 1) -> None:
        self.pairs = pairs
        self.surface = _Vocabulary()
        self.last: EncodedVersion | None = None  # the previous pair's target

    def encode_pair(self, src: DocVersion, tgt: DocVersion) -> tuple[EncodedVersion, EncodedVersion]:
        """The source's and the target's encodings; then keep the target's,
        or nothing after the last pair."""
        a = self.last
        if a is None or a.doc is not src:
            a = self._encode_version(src, {})
        b = self._encode_version(tgt, dict(zip([s.raw for s in a.sentences], a.rows.texts)))
        self.pairs -= 1
        if self.pairs > 0:
            self.last = b
        else:
            self.surface, self.last = _Vocabulary(), None
        return a, b

    def _encode_version(self, doc: DocVersion, known: dict[str, tuple[int, ...]]) -> EncodedVersion:
        """Encode the alignable sentences and lay them out; `known` maps raw
        texts to their encodings, and gains the ones encoded here."""
        sentences: list[Sentence] = []
        texts: list[tuple[int, ...]] = []
        bounds: dict[int, tuple[int, int]] = {}
        for p in doc.paragraphs:
            if p.skipped:
                continue
            start = len(texts)
            for s in p.sentences:
                if not s.skipped:
                    text = known.get(s.raw)
                    if text is None:
                        text = known[s.raw] = self.encode(s.tokens)
                    sentences.append(s)
                    texts.append(text)
            bounds[p.index] = (start, len(texts))
        return EncodedVersion(doc, sentences, Rows(texts), bounds, self.surface.lower)

    def encode(self, tokens: tuple[str, ...]) -> tuple[int, ...]:
        """The tokens' lowercase ids; new tokens join the vocabulary."""
        return tuple(map(self.surface.__getitem__, tokens))


def compute_sim_tensor(
    src: DocVersion, tgt: DocVersion, encoder: GroupEncoder | None = None
) -> ParaSimTensor:
    """Build both similarity matrices over the non-skipped paragraphs.

    Skipped sentences take part in neither the average nor the max; a
    paragraph whose sentences are all skipped yields a zero row/column,
    and an empty version yields zero-size matrices.  `encoder` carries
    the group's vocabulary and its previous pair's target; without one
    the pair is encoded alone.

    The Jaccard scores are computed a block of whole source paragraphs at
    a time, and each block is reduced and dropped before the next; only
    the tensor and the two encodings are kept.
    """
    if encoder is None:
        encoder = GroupEncoder()
    a, b = encoder.encode_pair(src, tgt)
    src_bounds, tgt_bounds = list(a.bounds.values()), list(b.bounds.values())
    k, l = len(src_bounds), len(tgt_bounds)
    n, m = len(a.rows), len(b.rows)
    sim1, sim2 = np.zeros((k, l)), np.zeros((k, l))
    target = Target(b.rows)
    if n:
        # reduceat mishandles empty segments, so reduce over non-empty
        # paragraphs only; all-skipped paragraphs keep their zero row/column
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
            rows = np.array(block)[:, None]
            sim1[rows, tj] = _SegmentMeans(para_rows).of(rowmax).T
            sim2[rows, tj] = tgt_means.of(colmax)
    return ParaSimTensor(sim1, sim2, a, b)


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
    pair's sentence encodings, which sentence alignment scores from.
    `encoder` is as for compute_sim_tensor.
    """
    t = compute_sim_tensor(src, tgt, encoder)
    k, l = t.k, t.l
    if k == 0 or l == 0:
        return ParaAlignment(encodings=(t.src, t.tgt))
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
    src_paragraphs, tgt_paragraphs = tuple(t.src.bounds), tuple(t.tgt.bounds)
    return ParaAlignment(frozenset((src_paragraphs[i], tgt_paragraphs[j]) for i, j in chosen), (t.src, t.tgt))
