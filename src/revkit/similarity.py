"""Sentence-pair similarity metrics.

Four interchangeable baselines: token Jaccard, tf-idf cosine, character
3-gram cosine, and a symmetrised sentence-level BLEU.  All of them
lowercase (stored sentences keep their case), live in [0, 1], and
return exactly 1.0 on identical inputs.

make_metric gives each metric's bulk scorer, which scores all the
candidate cells of a version pair in one call, from the pair's
encodings (para_align.EncodedVersion), by one kernel: jaccard_cells,
tfidf_cosines, char3gram_cells or bleu_cells.  jaccard, char3gram and
bleu are symmetric bit for bit, as they sum integers (exact in float64
in any order) and bleu averages its two directions; tf-idf only up to
the last bits, as its dot product sums over the first sentence's tokens
in their order, so each direction is computed on its own.

numpy is imported only once a metric is made, so config can name the
metrics without it.
"""
from __future__ import annotations

from typing import Callable

METRIC_NAMES = ("jaccard", "tfidf", "char3gram", "bleu")


def make_metric(name: str) -> Callable:
    """The bulk scorer of the named metric, score(pair, cells).  pair is a
    version pair's source and target EncodedVersion, and cells = (rows,
    cols) pairs source row rows[k] with target row cols[k], sorted by
    source row.  It returns each cell's score from the source side and
    from the target side."""
    if name not in METRIC_NAMES:
        raise ValueError(f"unknown metric {name!r} (choose from {', '.join(METRIC_NAMES)})")
    import numpy as np

    from . import kernels

    def score(pair, cells):
        src, tgt = pair
        if not len(cells[0]):
            # no cell; tfidf could not even fit idf on versions without sentences
            return np.zeros(0), np.zeros(0)
        if name == "tfidf":
            # one document per sentence of both versions, skipped ones included
            return kernels.tfidf_cosines(src.rows, tgt.rows, *cells, kernels.Rows(src.others + tgt.others))
        if name == "char3gram":
            return kernels.char3gram_cells([s.raw for s in src.sentences], [s.raw for s in tgt.sentences], *cells)
        scores = (kernels.bleu_cells if name == "bleu" else kernels.jaccard_cells)(src.rows, tgt.rows, *cells)
        return scores, scores

    return score
