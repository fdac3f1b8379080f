"""Sentence-pair similarity metrics.

Four interchangeable baselines: token Jaccard, tf-idf cosine, character
n-gram cosine, and a symmetrised sentence-level BLEU.  All of them
lowercase token surfaces (stored sentences keep their case), live in
[0, 1], and return exactly 1.0 on identical inputs.

jaccard and tfidf are scored in bulk from each text's lowercase-token
ids (para_align, kernels).  jaccard is symmetric; tf-idf only up to the
last bits, as its dot product sums over the first sentence's tokens in
their order, so each direction is computed on its own.

char3gram and bleu are scored here, one sentence pair at a time, and
are symmetric bit for bit (char3gram sums integers, exact in float64 in
any order; bleu averages its two directions, and IEEE addition
commutes), so one call serves both directions.  Each splits into a
per-sentence feature function and a score over two feature values.  A
metric from make_metric keeps one cache of features keyed by the raw
sentence text, so each distinct text is featurised once for as long as
that metric lives (the caller holds it for one version pair), and a text
scored against itself is 1.0 without features.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Mapping

from .corpus import Sentence

METRIC_NAMES = ("jaccard", "tfidf", "char3gram", "bleu")
# the metrics make_metric builds, scored one sentence pair at a time
CELL_METRICS = ("char3gram", "bleu")


def _norm(v: Mapping[str, float]) -> float:
    return math.sqrt(sum(w * w for w in v.values()))


def _cosine(va: Mapping[str, float], vb: Mapping[str, float], na: float, nb: float) -> float:
    """Cosine of two sparse vectors given their norms."""
    if va == vb:
        # exact 1.0 on identical vectors, immune to sqrt rounding
        return 1.0 if va else 0.0
    dot = sum(w * vb.get(k, 0.0) for k, w in va.items())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _char_features(s: Sentence):
    """Lowercased raw string (spaces included), its character trigram
    counts, their norm."""
    r = s.raw.lower()
    counts = Counter(r[i:i + 3] for i in range(len(r) - 2))
    return r, counts, _norm(counts)


def _char_cosine(fa, fb) -> float:
    ra, ca, na = fa
    rb, cb, nb = fb
    if not ca and not cb:
        # both strings shorter than a trigram: fall back to string identity
        return 1.0 if ra == rb else 0.0
    return _cosine(ca, cb, na, nb)


def _bleu_features(s: Sentence):
    """Number of tokens and the 1- to 4-gram counts of the lowercased tokens."""
    w = s.lower_tokens()
    return len(w), tuple(
        Counter(w[i:i + n] for i in range(max(len(w) - n + 1, 0))) for n in range(1, 5)
    )


def _bleu_directional(hyp, ref) -> float:
    hyp_len, hyp_grams = hyp
    ref_len, ref_grams = ref
    if not hyp_len or not ref_len:
        return 1.0 if hyp_len == ref_len else 0.0
    log_sum = 0.0
    for n, hgrams, rgrams in zip(range(1, 5), hyp_grams, ref_grams):
        total = max(hyp_len - n + 1, 0)
        # a Counter reads 0 for a missing n-gram without storing it
        matched = sum(min(c, rgrams[g]) for g, c in hgrams.items())
        if n == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            # add-one smoothing for the higher orders
            p = (matched + 1) / (total + 1)
        log_sum += math.log(p)
    if hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / 4.0)


def _bleu_mean(fa, fb) -> float:
    """Sentence-level BLEU (n <= 4, brevity penalty, add-one smoothing for
    n >= 2), symmetrised by averaging both directions.  Two empty
    sentences are identical and score 1.0; one empty side scores 0.0."""
    return 0.5 * (_bleu_directional(fa, fb) + _bleu_directional(fb, fa))


SentenceMetric = Callable[[Sentence, Sentence], float]


def _per_text(features: Callable[[Sentence], object], score: Callable) -> SentenceMetric:
    """score(features(a), features(b)), with the features of each distinct
    raw text built once.  A built sentence's tokens derive from its raw
    text alone, so sentences with equal text have equal features, and
    equal texts score exactly 1.0 without building any."""
    cache: dict[str, object] = {}

    def metric(a: Sentence, b: Sentence) -> float:
        if a.raw == b.raw:
            return 1.0
        fa = cache.get(a.raw)
        if fa is None:
            fa = cache[a.raw] = features(a)
        fb = cache.get(b.raw)
        if fb is None:
            fb = cache[b.raw] = features(b)
        return score(fa, fb)

    return metric


def make_metric(name: str) -> SentenceMetric:
    """The function of a metric scored one sentence pair at a time."""
    if name == "char3gram":
        return _per_text(_char_features, _char_cosine)
    if name == "bleu":
        return _per_text(_bleu_features, _bleu_mean)
    if name in METRIC_NAMES:
        raise ValueError(f"metric {name!r} is scored in bulk, not one sentence pair at a time")
    raise ValueError(f"unknown metric {name!r} (choose from {', '.join(METRIC_NAMES)})")
