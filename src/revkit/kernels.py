"""Pairwise Jaccard kernel for the alignment hot path.

Paragraph alignment needs the Jaccard score of every sentence pair across
two document versions, which dominates runtime on full-length documents.
Sentences are encoded once as sorted unique vocabulary-id arrays.  An
inverted index over the target side (its sentence rows grouped by token
id) turns each source sentence's intersection counts into one
``np.bincount`` over the postings of its tokens; ``inter / union`` then
gives the matrix.  Only the nonzero intersections are ever touched, so
memory stays at the size of the n x m result.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def encode_sets(
    sets: Sequence[frozenset[str]], vocab: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode token sets as one flat id array plus offsets (ids sorted and
    unique within each set); vocab is extended in place."""
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for k, s in enumerate(sets):
        ids = sorted(vocab.setdefault(tok, len(vocab)) for tok in s)
        chunks.append(np.asarray(ids, dtype=np.int64))
        offsets[k + 1] = offsets[k] + len(ids)
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return flat, offsets


def jaccard_matrix(
    sets_a: Sequence[frozenset[str]],
    sets_b: Sequence[frozenset[str]],
) -> np.ndarray:
    """Jaccard similarity of every set pair, as a len(a) x len(b) matrix.

    Empty-vs-empty pairs score 1.0, matching the scalar metric.
    """
    vocab: dict[str, int] = {}
    ids_a, offs_a = encode_sets(sets_a, vocab)
    ids_b, offs_b = encode_sets(sets_b, vocab)
    n, m = len(sets_a), len(sets_b)
    sizes_b = np.diff(offs_b)
    # postings[starts[t]:starts[t + 1]] lists the target rows holding token t
    postings = np.repeat(np.arange(m, dtype=np.int64), sizes_b)[np.argsort(ids_b, kind="stable")]
    starts = [0, *np.cumsum(np.bincount(ids_b, minlength=len(vocab))).tolist()]
    toks, offs = ids_a.tolist(), offs_a.tolist()
    inter = np.empty((n, m), dtype=np.float64)
    for i in range(n):
        hits = [postings[starts[t]:starts[t + 1]] for t in toks[offs[i]:offs[i + 1]]]
        inter[i] = np.bincount(np.concatenate(hits), minlength=m) if hits else 0.0
    union = np.diff(offs_a)[:, None] + sizes_b[None, :] - inter
    out = np.ones((n, m), dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out
