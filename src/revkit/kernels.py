"""Bulk kernels for the alignment hot path: the Jaccard scores of a
version pair's sentences, and the tf-idf cosines of its candidate cells.

Paragraph alignment needs the Jaccard score of every sentence pair across
two document versions.  Each sentence arrives as its token ids over one
vocabulary shared by both sides, and counts each id once.  The target
side can be indexed once (Target) and any number of blocks of source rows
scored against it.  A cell's intersection count is split by token:

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
whatever blocks of source rows it is computed in.  The integer counts
themselves can be kept, in two bytes a cell: an alignable sentence has at
most 1,000 characters, so far fewer than 65,535 distinct ids.

Memory stays near the result: the product is written into it, and the
postings and the union are worked through in sub-blocks of source rows
that cover at most 2**15 cells and 1/8 of the result, or 2**14 cells
where that is more.  Paragraph alignment calls the kernel on blocks of
about 2**16 cells against one Target, so a version pair costs two bytes a
sentence pair for its counts plus one fixed-size block, never a float64
n x m matrix.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Collection, Sequence

import numpy as np

# a token held by at least 1/_DENSE_SHARE of the target rows is counted by the product
_DENSE_SHARE = 8
# cells per block of source rows in the postings and division loop
_BLOCK_CELLS = 1 << 15
# token entries per block of cells in the tf-idf dot products
_BLOCK_ENTRIES = 1 << 16


class Target:
    """The target side of jaccard_matrix, indexed once for any number of
    blocks of source rows: each row's number of distinct ids, the 0/1
    indicator block of its frequent ids, and the postings of the others."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        row, ids, self.sizes = _distinct_rows(rows)
        self.fsizes = self.sizes.astype(np.float64)
        m = len(rows)
        # target rows holding each id; no target row holds one above
        self.held = held = np.bincount(ids)
        self.dense = dense = held * _DENSE_SHARE >= m
        self.cols = np.cumsum(dense) - 1  # indicator column of each frequent id
        # kept in a byte a cell, and widened to float64 for each product only
        self.ind = np.zeros((m, int(self.cols[-1]) + 1 if len(held) else 0), dtype=np.uint8)
        on = dense[ids]
        self.ind[row[on], self.cols[ids[on]]] = 1
        # postings[starts[t]:starts[t] + held[t]] lists the target rows holding token t
        self.postings = row[np.argsort(ids, kind="stable")]
        self.starts = np.cumsum(held) - held


def jaccard_matrix(
    rows_a: Sequence[Sequence[int]],
    rows_b: Sequence[Sequence[int]] | Target,
    counts: np.ndarray | None = None,
    sizes: np.ndarray | None = None,
) -> np.ndarray:
    """Jaccard similarity of every row pair's id sets, as a len(a) x len(b)
    matrix.

    Each row lists token ids, in any order, repeats allowed; the target
    side may come indexed.  Empty-vs-empty pairs score 1.0, matching the
    scalar metric.  When given, `counts` (len(a) x len(b)) receives each
    cell's intersection count and `sizes` (len(a)) each source row's
    number of distinct ids.
    """
    b = rows_b if isinstance(rows_b, Target) else Target(rows_b)
    row_a, ids_a, sizes_a = _distinct_rows(rows_a)
    if sizes is not None:
        sizes[:] = sizes_a
    n, m = len(rows_a), len(b.sizes)
    shared = ids_a < len(b.held)
    row_a, ids_a = row_a[shared], ids_a[shared]
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
        if counts is not None:
            counts[i0:i1] = block
        union = np.add.outer(fsizes_a[i0:i1], b.fsizes)
        union -= block
        np.maximum(union, 1.0, out=union)  # only empty-vs-empty cells have no union
        np.divide(block, union, out=block)
    out[np.ix_(sizes_a == 0, b.sizes == 0)] = 1.0
    return out


def _distinct_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row and the id of each row's distinct ids, by row, then id, and
    each row's number of them."""
    row, ids = _flat(rows)
    size = 1 + int(ids.max(initial=-1))
    row, ids = np.divmod(_sorted_set(row * size + ids), size)
    return row, ids, np.bincount(row, minlength=len(rows))


def _sorted_set(keys: np.ndarray) -> np.ndarray:
    """The distinct non-negative keys, ascending, as np.unique gives them.
    np.unique's first call imports numpy.ma, and a default-kind sort maps
    in numpy's SIMD sort code: each adds resident memory to the command."""
    keys = np.sort(keys, kind="stable")
    return keys[np.diff(keys, prepend=-1) != 0]


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct non-negative keys ascending, the index of each one's
    first occurrence in keys, and its count."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    return ordered[starts], order[starts], np.diff(starts, append=len(keys))


def _flat(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The row and the id of every entry of the rows, row after row."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ids = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return np.repeat(np.arange(len(rows), dtype=np.int64), lengths), ids


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


def tfidf_cosines(
    texts_a: Sequence[Sequence[int]],
    texts_b: Sequence[Sequence[int]],
    rows: np.ndarray,
    cols: np.ndarray,
    others: Sequence[Collection[int]] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """The tf-idf cosine of each cell k, between the texts texts_a[rows[k]]
    and texts_b[cols[k]], from a to b and from b to a.

    A text is its tokens' lowercase ids.  Each text of both lists is one
    document of build_idf, and so is each id set of `others` (the
    sentences no cell holds).  Every value is the scalar cosine's, bit
    for bit:

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
    (text_a, ids_a), (text_b, ids_b) = _flat(texts_a), _flat(texts_b)
    other_ids = np.fromiter(chain.from_iterable(others), dtype=np.int64)
    size = 1 + max(ids_a.max(initial=-1), ids_b.max(initial=-1), other_ids.max(initial=-1))
    a, b = _Texts(text_a, ids_a, len(texts_a), size), _Texts(text_b, ids_b, len(texts_b), size)
    n = len(texts_a) + len(texts_b) + len(others)
    idf = build_idf(n, np.concatenate([a.ids, b.ids, other_ids]), size)
    a.weigh(idf)
    b.weigh(idf)
    den = a.norm[rows] * b.norm[cols]
    ab, ba, shared, unequal_counts, unequal_weights = _dots(rows, cols, a, b, size)
    zero = den == 0.0
    for dots in (ab, ba):
        np.divide(dots, den, out=dots, where=~zero)
        dots[zero] = 0.0
    same_ids = (shared == a.sizes[rows]) & (shared == b.sizes[cols])
    one = same_ids & ((unequal_counts == 0) | (~zero & (unequal_weights == 0)))
    ab[one] = ba[one] = 1.0
    return ab, ba


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


class _Texts:
    """A list of texts as flat arrays of their distinct ids, text after
    text, each text's ids ascending, with their counts; rank gives each
    entry's place in its text's order of first occurrence."""

    def __init__(self, text: np.ndarray, ids: np.ndarray, n: int, size: int) -> None:
        keys, first, counts = _distinct(text * size + ids)
        self.keys = keys
        self.text, self.ids = np.divmod(keys, size)
        self.counts = counts
        self.sizes = np.bincount(self.text, minlength=n)
        self.start = np.cumsum(self.sizes) - self.sizes
        # the entries in first-occurrence order keep each text's block
        self.order = np.argsort(first, kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(keys), dtype=np.int64) - np.repeat(self.start, self.sizes)

    def weigh(self, idf: np.ndarray) -> None:
        self.w = self.counts * idf[self.ids]
        w = self.w[self.order]
        # one left-to-right sum of w*w per text, in its order, then the root
        self.norm = np.sqrt(np.bincount(self.text[self.order], weights=w * w, minlength=len(self.sizes)))


def _dots(first: np.ndarray, second: np.ndarray, a: _Texts, b: _Texts, size: int):
    """For each cell k, between a's text first[k] and b's text second[k]:
    the sum of the products of their weights over the ids they share,
    left to right in a's order, then in b's; and how many ids they share,
    with how many of those differ in count and in weight.

    The shared ids are found once, by looking each cell's ids of a up in
    b.  Their products are then laid out in each text's own order, with
    0.0 where an id is not shared, for one np.bincount per direction.
    """
    n = len(first)
    ab, ba, shared, unequal_counts, unequal_weights = (np.zeros(n) for _ in range(5))
    size_a, size_b = a.sizes[first], b.sizes[second]
    ends = np.cumsum(size_a + size_b)
    k0 = 0
    while k0 < n and len(b.keys):
        base = ends[k0] - size_a[k0] - size_b[k0]
        k1 = max(k0 + 1, int(np.searchsorted(ends, base + _BLOCK_ENTRIES, side="right")))
        ca, cb = size_a[k0:k1], size_b[k0:k1]
        cells = np.arange(k1 - k0, dtype=np.int64)
        cell = np.repeat(cells, ca)
        off_a = np.cumsum(ca) - ca
        # every entry of each cell's text of a; ids ascend within a cell
        at = np.arange(len(cell), dtype=np.int64) + np.repeat(a.start[first[k0:k1]] - off_a, ca)
        key = np.repeat(second[k0:k1] * size, ca) + a.ids[at]
        pos = np.searchsorted(b.keys, key)
        np.minimum(pos, len(b.keys) - 1, out=pos)
        hit = np.flatnonzero(b.keys[pos] == key)
        at, pos, cell = at[hit], pos[hit], cell[hit]
        products = a.w[at] * b.w[pos]
        for out, counts, offsets, rank in ((ab, ca, off_a, a.rank[at]), (ba, cb, np.cumsum(cb) - cb, b.rank[pos])):
            laid = np.zeros(int(counts.sum()))
            laid[offsets[cell] + rank] = products
            out[k0:k1] = np.bincount(np.repeat(cells, counts), weights=laid, minlength=k1 - k0)
        shared[k0:k1] = np.bincount(cell, minlength=k1 - k0)
        unequal_counts[k0:k1] = np.bincount(cell, weights=a.counts[at] != b.counts[pos], minlength=k1 - k0)
        unequal_weights[k0:k1] = np.bincount(cell, weights=a.w[at] != b.w[pos], minlength=k1 - k0)
        k0 = k1
    return ab, ba, shared, unequal_counts, unequal_weights
