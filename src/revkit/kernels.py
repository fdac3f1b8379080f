"""Pairwise Jaccard kernel for the alignment hot path.

Paragraph alignment needs the Jaccard score of every sentence pair across
two document versions, which dominates runtime on full-length documents.
Each sentence arrives as a list of its distinct token ids over one
vocabulary shared by both sides.  A cell's intersection count is split
by token:

- A token held by at least 1/8 of the target rows is *frequent*.  The
  counts of all frequent tokens come from one float64 matrix product of
  0/1 indicator blocks (source rows x frequent tokens, times its
  transpose for the target rows), written straight into the result.
- Every other token is counted from an inverted index over the target
  rows (each token's postings, the rows that hold it).  For a block of
  source rows, the postings of all their tokens are expanded at once
  into flat cell indices and counted by one ``np.bincount``.

The split rule weighs two costs per token.  The product pays for every
cell, whether or not the token is held there: about 0.05 ns per cell and
frequent token (one OpenBLAS thread, 16-21 indicator columns on the
benchmark's matrices, a 2-core x86 host).  The postings pay only where
the token is held on both sides, n*a x m*b cells for shares a and b of
the source and target rows, but at 8-20 ns per cell (a repeat, a gather
and a bincount increment).  So the product is the cheaper one once a*b
passes about 1/160 to 1/400, a share of 1/13 to 1/20 when a and b are
alike, as they are for two versions of one document.  Every share from
1/8 to 1/24 took the same kernel time within noise on those matrices,
while 1/4 and 1/32 were slower; 1/8, the top of that range, keeps the
indicator blocks narrowest.

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

from itertools import chain
from typing import Sequence

import numpy as np

# a token held by at least 1/_DENSE_SHARE of the target rows is counted by the product
_DENSE_SHARE = 8
# cells per block of source rows in the postings and division loop
_BLOCK_CELLS = 1 << 15


def jaccard_matrix(rows_a: Sequence[Sequence[int]], rows_b: Sequence[Sequence[int]]) -> np.ndarray:
    """Jaccard similarity of every row pair, as a len(a) x len(b) matrix.

    Each row lists distinct token ids, in any order.  Empty-vs-empty
    pairs score 1.0, matching the scalar metric.
    """
    n, m = len(rows_a), len(rows_b)
    sizes_a = np.fromiter(map(len, rows_a), dtype=np.int64, count=n)
    sizes_b = np.fromiter(map(len, rows_b), dtype=np.int64, count=m)
    ids_a = np.fromiter(chain.from_iterable(rows_a), dtype=np.int64, count=int(sizes_a.sum()))
    ids_b = np.fromiter(chain.from_iterable(rows_b), dtype=np.int64, count=int(sizes_b.sum()))
    row_a = np.repeat(np.arange(n, dtype=np.int64), sizes_a)
    row_b = np.repeat(np.arange(m, dtype=np.int64), sizes_b)
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
