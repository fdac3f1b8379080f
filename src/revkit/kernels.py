"""Pairwise Jaccard kernel for the alignment hot path.

Paragraph alignment needs the Jaccard score of every sentence pair across
two document versions, which dominates runtime on full-length documents.
Each sentence arrives as a list of its distinct token ids over one
vocabulary shared by both sides.  An inverted index over the target side
(its rows grouped by token id) turns each source row's intersection
counts into one ``np.bincount`` over the postings of its tokens.  The
row's ``inter / union`` is written straight into its row of the result
through one m-length ``union`` buffer, so no n x m temporary is built.
"""
from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np


def jaccard_matrix(rows_a: Sequence[Sequence[int]], rows_b: Sequence[Sequence[int]]) -> np.ndarray:
    """Jaccard similarity of every row pair, as a len(a) x len(b) matrix.

    Each row lists distinct token ids, in any order.  Empty-vs-empty
    pairs score 1.0, matching the scalar metric.
    """
    n, m = len(rows_a), len(rows_b)
    sizes_b = np.fromiter(map(len, rows_b), dtype=np.int64, count=m)
    ids_b = np.fromiter(chain.from_iterable(rows_b), dtype=np.int64, count=int(sizes_b.sum()))
    # postings[starts[t]:starts[t + 1]] lists the target rows holding token t
    postings = np.repeat(np.arange(m, dtype=np.int64), sizes_b)[np.argsort(ids_b, kind="stable")]
    starts = [0, *np.cumsum(np.bincount(ids_b)).tolist()]
    top = len(starts) - 1  # no target row holds an id from here up
    out = np.empty((n, m), dtype=np.float64)
    union = np.empty(m, dtype=np.int64)
    for i, row in enumerate(rows_a):
        if not row:
            out[i] = sizes_b == 0
            continue
        hits = [postings[starts[t]:starts[t + 1]] for t in row if t < top]
        inter = np.bincount(np.concatenate(hits), minlength=m) if hits else 0
        np.add(sizes_b, len(row), out=union)
        union -= inter
        np.divide(inter, union, out=out[i])
    return out
