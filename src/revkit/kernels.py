"""Bulk kernels for the alignment hot path: the Jaccard matrix of a
version pair's sentences, and the tf-idf cosines of its candidate cells.

Paragraph alignment needs the Jaccard score of every sentence pair across
two document versions.  Each sentence arrives as its token ids over one
vocabulary shared by both sides, and counts each id once.  A cell's
intersection count is split by token:

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
in int64, and every matrix is bit-identical whatever the split.

Memory stays near the result: the product is written into it, and the
postings and the union are worked through in blocks of source rows that
cover at most 2**15 cells and 1/8 of the result.
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


def jaccard_matrix(rows_a: Sequence[Sequence[int]], rows_b: Sequence[Sequence[int]]) -> np.ndarray:
    """Jaccard similarity of every row pair's id sets, as a len(a) x len(b)
    matrix.

    Each row lists token ids, in any order, repeats allowed.  Empty-vs-empty
    pairs score 1.0, matching the scalar metric.
    """
    n, m = len(rows_a), len(rows_b)
    (row_a, ids_a), (row_b, ids_b) = _flat(rows_a), _flat(rows_b)
    size = 1 + max(ids_a.max(initial=-1), ids_b.max(initial=-1))
    # each row's distinct ids, by row
    row_a, ids_a = np.divmod(_sorted_set(row_a * size + ids_a), size)
    row_b, ids_b = np.divmod(_sorted_set(row_b * size + ids_b), size)
    sizes_a = np.bincount(row_a, minlength=n)
    sizes_b = np.bincount(row_b, minlength=m)
    held = np.bincount(ids_b)  # target rows holding each id; no target row holds one above
    shared = ids_a < len(held)
    row_a, ids_a = row_a[shared], ids_a[shared]
    dense = held * _DENSE_SHARE >= m
    out = np.empty((n, m), dtype=np.float64)
    _dense_counts(dense, row_a, ids_a, row_b, ids_b, out)
    # postings[starts[t]:starts[t] + held[t]] lists the target rows holding token t
    postings = row_b[np.argsort(ids_b, kind="stable")]
    starts = np.cumsum(held) - held
    sparse = ~dense[ids_a]
    row_a, ids_a = row_a[sparse], ids_a[sparse]
    per_row = np.searchsorted(row_a, np.arange(n + 1, dtype=np.int64))
    del row_b, ids_b, sparse
    fsizes_a = sizes_a.astype(np.float64)
    fsizes_b = sizes_b.astype(np.float64)
    # a block's temporaries stay under 1/8 of the result, so the peak stays near it
    step = max(1, min(_BLOCK_CELLS, n * m // 8) // max(m, 1))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        block = out[i0:i1]
        p0, p1 = per_row[i0], per_row[i1]
        if p0 < p1:
            block += _sparse_counts(
                row_a[p0:p1] - i0, ids_a[p0:p1], held, starts, postings, i1 - i0, m
            )
        union = np.add.outer(fsizes_a[i0:i1], fsizes_b)
        union -= block
        np.maximum(union, 1.0, out=union)  # only empty-vs-empty cells have no union
        np.divide(block, union, out=block)
    out[np.ix_(sizes_a == 0, sizes_b == 0)] = 1.0
    return out


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


def _dense_counts(dense, row_a, ids_a, row_b, ids_b, out) -> None:
    """Write the intersection counts of the frequent tokens into out."""
    cols = np.cumsum(dense) - 1  # indicator column of each frequent id
    k = int(cols[-1]) + 1 if len(cols) else 0
    if k == 0:
        out.fill(0.0)
        return
    n, m = out.shape
    ind_a = np.zeros((n, k), dtype=np.float64)
    on = dense[ids_a]
    ind_a[row_a[on], cols[ids_a[on]]] = 1.0
    ind_b = np.zeros((m, k), dtype=np.float64)
    on = dense[ids_b]
    ind_b[row_b[on], cols[ids_b[on]]] = 1.0
    np.matmul(ind_a, ind_b.T, out=out)


def _sparse_counts(rows, ids, held, starts, postings, n, m) -> np.ndarray:
    """n x m intersection counts of the (row, id) pairs' postings."""
    counts = held[ids]
    # the k-th expanded entry of pair p reads postings[starts[id_p] + k]
    at = np.repeat(starts[ids] - (np.cumsum(counts) - counts), counts)
    at += np.arange(len(at), dtype=np.int64)
    cells = postings[at]
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
