"""Bulk kernels for the alignment hot path: the Jaccard scores of a
version pair's sentences, and the scores of its candidate cells under
every metric: Jaccard, tf-idf cosine, character-trigram cosine and BLEU.

All read layouts of each side's texts, Rows: flat arrays of each text's
distinct ids over one vocabulary.  Jaccard and tf-idf read the token
layouts of the version pair's sentences; the trigram cosine lays out
character trigrams, and BLEU the 1- to 4-grams of the tokens, for the
call.

The Jaccard matrix counts each id of a row once.  The target side can
be indexed once (Target) and any number of blocks of source rows
(rows[r0:r1]) scored against it.  A cell's intersection count is split
by token:

- A token held by at least 1/8 of the target rows is *frequent*.  The
  counts of all frequent tokens come from one float64 matrix product of
  0/1 indicator blocks (source rows x frequent tokens, times its
  transpose for the target rows), written straight into the result.
- Every other token is counted from an inverted index over the target
  rows (each token's postings, the rows that hold it).  For a block of
  source rows, the postings of all their tokens are expanded at once
  into flat cell indices and counted by one ``np.bincount``.

The rule weighs two costs per token.  The product pays for every cell,
whether or not the token is held there; the postings pay only where the
token is held on both sides, n*a x m*b cells for shares a and b of the
source and target rows, but several times more per cell.  So a token
goes to the product once it is held by a large enough share of the rows.

The split is exact.  Intersection and union sizes are integers far below
2**53, and integer sums are exact in float64 in any order, so the product
and the postings add up to the same integer either way.  Every cell is
then one IEEE division of the same two integers, as when it was computed
in int64, and every matrix is bit-identical whatever the split, and
whatever blocks of source rows it is computed in.  A candidate cell's
score (jaccard_cells) is that division again, so no count outlives the
matrix.  Its intersection count comes from the lookup that every cell
kernel runs (_shared_ids).  Candidate cells come sorted by source
row, so a window of consecutive source rows is laid once into a dense
table, (row in the window, id) -> entry, of about 2**17 slots.  Each id
of each cell's target row is then one gather from that table.

Memory stays near the result: the product is written into it, and the
postings and the union are worked through in sub-blocks of source rows
that cover at most 2**15 cells and 1/8 of the result, or 2**14 cells
where that is more.  Paragraph alignment calls the kernel on blocks of
about 2**16 cells against one Target, so a version pair costs one
fixed-size block of scores, never an n x m array.  The cell lookups work
through blocks of 2**14 target token entries, beside one table of a
window of source rows, so their temporaries stay that size whatever the
number of cells.
"""
from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import chain, starmap
from typing import Iterator, Sequence

import numpy as np

# a token held by at least 1/_DENSE_SHARE of the target rows is counted by the product
_DENSE_SHARE = 8
# cells per block of source rows in the postings and division loop
_BLOCK_CELLS = 1 << 15
# target token entries per block of candidate cells in the shared-id lookup
_BLOCK_ENTRIES = 1 << 14
# slots of the shared-id lookup's table of a window of source rows
_TABLE_ENTRIES = 1 << 17


class Rows:
    """Rows of token ids (texts), repeats allowed, laid out as one flat
    array of each row's distinct ids, ascending: row r's are
    ids[starts[r]:starts[r + 1]], and rows[r0:r1] cuts the layout of those
    rows from these arrays.  A version's layout lives through two version
    pairs, so it keeps four bytes an id and derives sizes and row on use.
    A stable sort, not np.unique, finds the ids: np.unique's first call
    imports numpy.ma, and a default-kind sort maps in numpy's SIMD sort
    code, and each adds resident memory to the command."""

    def __init__(self, texts: Sequence[Sequence[int]]) -> None:
        self.texts = texts
        keys, size = _keys(texts)
        keys = np.sort(keys, kind="stable")
        row, ids = np.divmod(keys[np.diff(keys, prepend=-1) != 0], size)
        self.ids = ids.astype(np.int32)  # no group's vocabulary comes near 2**31 tokens
        self.starts = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=len(texts)))])

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, rows: slice) -> Rows:
        r0, r1, _ = rows.indices(len(self))
        block = object.__new__(Rows)
        block.texts, block.ids = self.texts[r0:r1], self.ids[self.starts[r0]:self.starts[r1]]
        block.starts = self.starts[r0:r1 + 1] - self.starts[r0]
        return block

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    @property
    def row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self), dtype=np.int64), self.sizes)

    @cached_property
    def tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry's count in its row, and its rank: its place among its
        row's ids in order of first occurrence, four bytes each.  Every cell
        kernel but Jaccard's reads them."""
        keys, _ = _keys(self.texts)
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        # the entries in first-occurrence order keep each row's block
        rank = np.empty(len(starts), dtype=np.int32)
        rank[np.argsort(order[starts], kind="stable")] = np.arange(len(starts)) - self.starts[self.row]
        return np.diff(starts, append=len(keys)).astype(np.int32), rank


class Target:
    """The target side of jaccard_matrix, indexed once for any number of
    blocks of source rows: each row's number of distinct ids, the 0/1
    indicator block of its frequent ids, and the postings of the others."""

    def __init__(self, rows: Rows) -> None:
        row, ids = rows.row, rows.ids
        self.fsizes = rows.sizes.astype(np.float64)
        m = len(rows)
        # target rows holding each id; no target row holds one above
        self.held = held = np.bincount(ids)
        self.dense = dense = held * _DENSE_SHARE >= m
        self.cols = np.cumsum(dense) - 1  # indicator column of each frequent id
        # kept in a byte a cell, and widened to float64 for each product only
        self.ind = np.zeros((m, int(self.cols[-1]) + 1 if len(held) else 0), dtype=np.uint8)
        on = dense[ids]
        self.ind[row[on], self.cols[ids[on]]] = 1
        # postings[starts[t]:starts[t] + held[t]] lists the target rows holding token t, four bytes each
        self.postings = row[np.argsort(ids, kind="stable")].astype(np.int32)
        self.starts = np.cumsum(held) - held


def jaccard_matrix(rows_a: Rows, rows_b: Rows | Target) -> np.ndarray:
    """Jaccard similarity of every row pair's id sets, as a len(a) x len(b)
    matrix.

    The target side may come indexed.  Empty-vs-empty pairs score 1.0,
    matching the scalar metric.
    """
    b = rows_b if isinstance(rows_b, Target) else Target(rows_b)
    sizes_a = rows_a.sizes
    n, m = len(rows_a), len(b.fsizes)
    shared = rows_a.ids < len(b.held)
    row_a, ids_a = rows_a.row[shared], rows_a.ids[shared]
    out = np.empty((n, m), dtype=np.float64)
    if b.ind.shape[1]:
        ind_a = np.zeros((n, b.ind.shape[1]), dtype=np.float64)
        on = b.dense[ids_a]
        ind_a[row_a[on], b.cols[ids_a[on]]] = 1.0
        np.matmul(ind_a, b.ind.T.astype(np.float64), out=out)
        del ind_a
    else:
        out.fill(0.0)
    sparse = ~b.dense[ids_a]
    row_a, ids_a = row_a[sparse], ids_a[sparse]
    per_row = np.searchsorted(row_a, np.arange(n + 1, dtype=np.int64))
    fsizes_a = sizes_a.astype(np.float64)
    # a block's temporaries stay under 1/8 of a large result, so the peak stays near it
    step = max(1, min(_BLOCK_CELLS, max(n * m // 8, _BLOCK_CELLS // 2)) // max(m, 1))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        block = out[i0:i1]
        p0, p1 = per_row[i0], per_row[i1]
        if p0 < p1:
            block += _sparse_counts(row_a[p0:p1] - i0, ids_a[p0:p1], b, i1 - i0, m)
        # integer sums, exact in any order; np.add.outer would buffer both operands at once
        union = np.subtract(b.fsizes, block)
        union += fsizes_a[i0:i1, None]
        np.maximum(union, 1.0, out=union)  # only empty-vs-empty cells have no union
        np.divide(block, union, out=block)
    out[np.ix_(sizes_a == 0, b.fsizes == 0)] = 1.0
    return out


def _keys(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, int]:
    """row * size + id of every entry, row after row, and size, above every id."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ids = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    size = 1 + int(ids.max(initial=-1))
    return np.repeat(np.arange(len(rows), dtype=np.int64) * size, lengths) + ids, size


def _sparse_counts(rows, ids, b: Target, n, m) -> np.ndarray:
    """n x m intersection counts of the (row, id) pairs' postings in b."""
    counts = b.held[ids]
    # the k-th expanded entry of pair p reads postings[starts[id_p] + k]
    at = np.repeat(b.starts[ids] - (np.cumsum(counts) - counts), counts)
    at += np.arange(len(at), dtype=np.int64)
    cells = b.postings[at]
    del at
    cells += np.repeat(rows * m, counts)
    return np.bincount(cells, minlength=n * m).reshape(n, m)


def jaccard_cells(a: Rows, b: Rows, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Jaccard score of each cell k, between a's row rows[k] and b's
    row cols[k], as jaccard_matrix divides it: shared / max(union, 1) over
    the same integers, and 1.0 for two empty rows."""
    shared = np.zeros(len(rows), dtype=np.int64)
    for k0, k1, cell, _, _ in _shared_ids(rows, cols, a, b):
        shared[k0:k1] = np.bincount(cell, minlength=k1 - k0)
    size_a, size_b = a.sizes[rows], b.sizes[cols]
    scores = shared / np.maximum(size_a + size_b - shared, 1)
    scores[(size_a == 0) & (size_b == 0)] = 1.0
    return scores


def tfidf_cosines(
    a: Rows, b: Rows, rows: np.ndarray, cols: np.ndarray, others: Rows
) -> tuple[np.ndarray, np.ndarray]:
    """The tf-idf cosine of each cell k, between the texts a.texts[rows[k]]
    and b.texts[cols[k]], from a to b and from b to a (cosines).

    A text is its tokens' lowercase ids.  Each text of both sides is one
    document of build_idf, and so is each row of `others` (the
    sentences no cell holds)."""
    size = 1 + int(max(a.ids.max(initial=-1), b.ids.max(initial=-1), others.ids.max(initial=-1)))
    idf = build_idf(len(a) + len(b) + len(others), np.concatenate([a.ids, b.ids, others.ids]), size)
    return cosines(a, b, rows, cols, idf)


def cosines(
    a: Rows, b: Rows, rows: np.ndarray, cols: np.ndarray, idf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cosine of each cell k's weight vectors, a's row rows[k] and b's
    row cols[k], from a to b and from b to a.  Every value is the scalar
    cosine's, bit for bit:

    - A weight is count x idf.  A norm is the root of the left-to-right
      sum of w*w over the text's distinct ids in first-occurrence order.
    - A dot product sums w_a*w_b left to right over the first text's ids
      in that order, so the two directions can differ in the last place.
      Each cell's products are laid out in that order, 0.0 where the other
      text lacks the id as in the scalar, and np.bincount adds them in
      input order.
    - The special cases keep the scalar's order: equal texts score 1.0;
      texts whose weights are all 0 score 1.0 when their counts are equal,
      else 0.0; equal weights score 1.0; a zero norm scores 0.0.  A norm is
      0.0 only when every weight is, as a nonzero weight is at least
      log(n / (n - 1)) > 1/n, whose square does not underflow.

    Temporaries are sized by the cells' ids and worked through in blocks.
    """
    (w_a, norm_a), (w_b, norm_b) = _weigh(a, idf), _weigh(b, idf)
    den = norm_a[rows] * norm_b[cols]
    ab, ba, shared, unequal_counts, unequal_weights = _dots(rows, cols, a, b, w_a, w_b)
    zero = den == 0.0
    for dots in (ab, ba):
        np.divide(dots, den, out=dots, where=~zero)
        dots[zero] = 0.0
    same_ids = (shared == a.sizes[rows]) & (shared == b.sizes[cols])
    one = same_ids & ((unequal_counts == 0) | (~zero & (unequal_weights == 0)))
    ab[one] = ba[one] = 1.0
    return ab, ba


def char3gram_cells(
    a: Sequence[str], b: Sequence[str], rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cosine of the character-trigram counts of each cell k's
    strings, a[rows[k]] and b[cols[k]], lowercased, spaces included, from
    a to b and from b to a.

    It is cosines with every idf 1.0 over trigram ids.  Counts, their
    products and their squares are integers, exact in float64 in any
    order, so both directions are one value, the scalar cosine's bit for
    bit.  A string of fewer than three characters has no trigram and
    stands as its own one gram, which no trigram equals: two such strings
    score 1.0 when they are equal and 0.0 otherwise, and 0.0 against any
    longer string.  Each distinct string is split once per call."""
    grams = _Ids()

    @cache
    def trigrams(raw: str) -> tuple[int, ...]:
        r = raw.lower()
        # a trigram is keyed by its three characters, a shorter string by itself
        return tuple(map(grams.__getitem__, zip(r, r[1:], r[2:]))) if len(r) > 2 else (grams[r],)

    a_rows, b_rows = Rows(list(map(trigrams, a))), Rows(list(map(trigrams, b)))
    idf = np.ones(len(grams))
    grams.clear()  # the ids are laid out; the trigrams are no longer needed
    return cosines(a_rows, b_rows, rows, cols, idf)


def bleu_cells(a: Rows, b: Rows, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The sentence-level BLEU of each cell k, between the texts
    a.texts[rows[k]] and b.texts[cols[k]] (n <= 4, brevity penalty,
    add-one smoothing for n >= 2), averaged over both directions, so one
    array serves both: IEEE addition commutes.

    Each order n's clipped matches, the sum over the n-grams the two texts
    share of the lesser count, are integers, counted from layouts of
    n-gram ids by the shared-id lookup, and the same either way round.
    The float part is scalar Python (_bleu), once per distinct tuple of
    the two lengths and the four match counts."""
    lengths = [np.fromiter(map(len, side.texts), dtype=np.int64, count=len(side)) for side in (a, b)]
    matched = [_clipped(*_ngram_rows(a, b, n), rows, cols).tolist() for n in range(1, 5)]
    score = cache(_bleu)
    return np.fromiter(
        starmap(score, zip(lengths[0][rows].tolist(), lengths[1][cols].tolist(), *matched)),
        dtype=np.float64,
        count=len(rows),
    )


class _Ids(dict):
    """Key -> id, numbered in order of first lookup."""

    def __missing__(self, key) -> int:
        found = self[key] = len(self)
        return found


def _ngram_rows(a: Rows, b: Rows, n: int) -> tuple[Rows, Rows]:
    """Both sides' texts as the ids of their n-grams, numbered over both."""
    if n == 1:
        return a, b
    grams = _Ids()

    @cache
    def ngrams(text: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(grams.__getitem__, [text[i:i + n] for i in range(len(text) - n + 1)]))

    return Rows([ngrams(tuple(t)) for t in a.texts]), Rows([ngrams(tuple(t)) for t in b.texts])


def _clipped(a: Rows, b: Rows, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each cell's sum, over the ids its two rows share, of the lesser count."""
    (counts_a, _), (counts_b, _) = a.tally, b.tally
    matched = np.zeros(len(rows), dtype=np.int64)
    for k0, k1, cell, at, pos in _shared_ids(rows, cols, a, b):
        matched[k0:k1] = np.bincount(cell, weights=np.minimum(counts_a[at], counts_b[pos]), minlength=k1 - k0)
    return matched


def _bleu(len_a: int, len_b: int, *matched: int) -> float:
    return 0.5 * (_bleu_directional(len_a, len_b, matched) + _bleu_directional(len_b, len_a, matched))


def _bleu_directional(hyp_len: int, ref_len: int, matched: tuple[int, ...]) -> float:
    """BLEU of a hypothesis against a reference from their lengths and
    the clipped matches of each order.  Two empty texts score 1.0; one
    empty side scores 0.0."""
    if not hyp_len or not ref_len:
        return 1.0 if hyp_len == ref_len else 0.0
    log_sum = 0.0
    for n, m in enumerate(matched, 1):
        total = max(hyp_len - n + 1, 0)
        if n == 1:
            if m == 0:
                return 0.0
            p = m / total
        else:
            # add-one smoothing for the higher orders
            p = (m + 1) / (total + 1)
        log_sum += math.log(p)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / 4.0)


def build_idf(n: int, ids: np.ndarray, size: int) -> np.ndarray:
    """The inverse document frequency of each of `size` ids over n
    documents, given the distinct ids of every document one after
    another: log(n / c) when c documents hold the id, 0.0 when none does.
    Each value is math.log of the Python quotient, as the scalar metric
    computed it, since np.log may differ in the last place."""
    if n == 0:
        raise ValueError("cannot fit idf on zero sentences")
    held = np.bincount(ids, minlength=size)
    return np.array([math.log(n / c) if c else 0.0 for c in held.tolist()])


def _weigh(texts: Rows, idf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's weight, and each text's norm: one left-to-right sum of
    w*w over its ids in first-occurrence order, then the root."""
    counts, rank = texts.tally
    w = counts * idf[texts.ids]
    laid = np.empty(len(w))
    laid[texts.starts[texts.row] + rank] = w * w
    return w, np.sqrt(np.bincount(texts.row, weights=laid, minlength=len(texts)))


def _dots(first: np.ndarray, second: np.ndarray, a: Rows, b: Rows, w_a: np.ndarray, w_b: np.ndarray):
    """For each cell k, between a's text first[k] and b's text second[k]:
    the sum of the products of their weights w_a and w_b over the ids they
    share, left to right in a's order, then in b's; and how many ids they
    share, with how many of those differ in count and in weight.

    The shared ids come from _shared_ids.  Their products are then laid
    out in each text's own order, with 0.0 where an id is not shared, for
    one np.bincount per direction.
    """
    n = len(first)
    ab, ba, shared, unequal_counts, unequal_weights = (np.zeros(n) for _ in range(5))
    (counts_a, rank_a), (counts_b, rank_b) = a.tally, b.tally
    size_a, size_b = a.sizes[first], b.sizes[second]
    for k0, k1, cell, at, pos in _shared_ids(first, second, a, b):
        cells = np.arange(k1 - k0, dtype=np.int64)
        products = w_a[at] * w_b[pos]
        for out, counts, rank in ((ab, size_a[k0:k1], rank_a[at]), (ba, size_b[k0:k1], rank_b[pos])):
            laid = np.zeros(int(counts.sum()))
            laid[(np.cumsum(counts) - counts)[cell] + rank] = products
            out[k0:k1] = np.bincount(np.repeat(cells, counts), weights=laid, minlength=k1 - k0)
        shared[k0:k1] = np.bincount(cell, minlength=k1 - k0)
        unequal_counts[k0:k1] = np.bincount(cell, weights=counts_a[at] != counts_b[pos], minlength=k1 - k0)
        unequal_weights[k0:k1] = np.bincount(cell, weights=w_a[at] != w_b[pos], minlength=k1 - k0)
    return ab, ba, shared, unequal_counts, unequal_weights


def _shared_ids(
    first: np.ndarray, second: np.ndarray, a: Rows, b: Rows
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """The ids shared by each cell k's rows, a's first[k] and b's
    second[k].  The cells must come sorted by source row (first), as
    CandidateCells lists them; ValueError otherwise.

    A window of source rows, from the first row of a cell not yet done up
    to _TABLE_ENTRIES // size rows on (at least one row), is laid into a
    dense table: row less the window's first, times size, plus id, maps to
    the id's entry in a.ids, and every other slot holds -1.  Each id of
    each cell's target row is then one gather from the table.  The
    window's slots go back to -1 before the next one is laid.  Within a
    window, cells are taken in blocks k0:k1 whose target rows hold about
    _BLOCK_ENTRIES entries in all, so temporaries stay that small.  Yields
    each block's k0, k1 and, for every shared id by cell, then id: its
    cell less k0, its entry in a.ids and its entry in b.ids."""
    if np.any(first[1:] < first[:-1]):
        raise ValueError("candidate cells must come sorted by source row")
    size = 1 + int(max(a.ids.max(initial=0), b.ids.max(initial=0)))
    span = max(1, min(_TABLE_ENTRIES // size, len(a)))  # source rows in one window
    table = np.full(span * size, -1, dtype=np.int32)
    size_b = b.sizes[second]
    ends = np.cumsum(size_b)
    n, k0 = len(first), 0
    while k0 < n:
        r0 = int(first[k0])
        w1 = int(np.searchsorted(first, r0 + span))  # the window's cells end here
        r1 = int(first[w1 - 1]) + 1  # and lie in rows r0:r1
        e0, e1 = a.starts[r0], a.starts[r1]
        slots = np.repeat(np.arange(r1 - r0) * size, np.diff(a.starts[r0:r1 + 1])) + a.ids[e0:e1]
        table[slots] = np.arange(e0, e1, dtype=np.int32)
        while k0 < w1:
            base = ends[k0 - 1] if k0 else 0
            k1 = min(w1, max(k0 + 1, int(np.searchsorted(ends, base + _BLOCK_ENTRIES, side="right"))))
            cb = size_b[k0:k1]
            cell = np.repeat(np.arange(k1 - k0, dtype=np.int64), cb)
            # every entry of each cell's row of b; ids ascend within a cell
            pos = np.repeat(b.starts[second[k0:k1]] - (np.cumsum(cb) - cb), cb)
            pos += np.arange(len(pos))
            at = table[np.repeat((first[k0:k1] - r0) * size, cb) + b.ids[pos]]
            hit = np.flatnonzero(at >= 0)
            yield k0, k1, cell[hit], at[hit], pos[hit]
            k0 = k1
        table[slots] = -1
