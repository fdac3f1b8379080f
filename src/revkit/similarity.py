"""Sentence-pair similarity metrics.

Four interchangeable baselines: token Jaccard, character n-gram cosine,
tf-idf cosine, and a symmetrised sentence-level BLEU.  All of them
lowercase token surfaces (stored sentences keep their case), are
symmetric, live in [0, 1], and return exactly 1.0 on identical inputs.

The last three split into a per-sentence feature function and a score
over two feature values; the scalar functions here call both.  A metric
from make_metric keeps one cache of features keyed by the raw sentence
text, so each distinct text is featurised once for as long as that
metric lives (the caller holds it for one version pair), and a text
scored against itself is 1.0 without features.  The scores are the same
expressions on the same features either way, bit for bit.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .corpus import DocVersion, Sentence

METRIC_NAMES = ("jaccard", "tfidf", "char3gram", "bleu")


def jaccard(a: Sentence, b: Sentence) -> float:
    """Jaccard overlap of the lowercased token-surface sets."""
    sa = a.lower_token_set()
    sb = b.lower_token_set()
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


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


def _char_features(s: Sentence, n: int = 3):
    """Lowercased raw string, its character n-gram counts, their norm."""
    r = s.raw.lower()
    counts = Counter(r[i:i + n] for i in range(len(r) - n + 1))
    return r, counts, _norm(counts)


def _char_cosine(fa, fb) -> float:
    ra, ca, na = fa
    rb, cb, nb = fb
    if not ca and not cb:
        # both strings shorter than n: fall back to string identity
        return 1.0 if ra == rb else 0.0
    return _cosine(ca, cb, na, nb)


def char_ngram_sim(a: Sentence, b: Sentence, n: int = 3) -> float:
    """Cosine similarity of character n-gram counts over the lowercased
    raw strings (spaces included)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _char_cosine(_char_features(a, n), _char_features(b, n))


@dataclass(frozen=True)
class IdfModel:
    """Inverse document frequencies where every sentence of the fitted
    versions counts as one document; unknown tokens back off to df = 1."""

    idf: Mapping[str, float]
    doc_count: int

    def lookup(self, token: str) -> float:
        got = self.idf.get(token)
        if got is None:
            return math.log(self.doc_count)
        return got


def build_idf(docs: Iterable[DocVersion]) -> IdfModel:
    df: Counter[str] = Counter()
    n = 0
    for doc in docs:
        for s in doc.sentences():
            n += 1
            df.update(s.lower_token_set())
    if n == 0:
        raise ValueError("cannot fit idf on zero sentences")
    return IdfModel({tok: math.log(n / c) for tok, c in df.items()}, n)


def _tfidf_vector(s: Sentence, model: IdfModel):
    """Term counts, tf-idf weights, whether any weight is nonzero, norm."""
    counts = Counter(s.lower_tokens())
    weights = {tok: cnt * model.lookup(tok) for tok, cnt in counts.items()}
    return counts, weights, any(weights.values()), _norm(weights)


def _tfidf_cosine(va, vb) -> float:
    counts_a, weights_a, nonzero_a, norm_a = va
    counts_b, weights_b, nonzero_b, norm_b = vb
    if not nonzero_a and not nonzero_b:
        # every token occurs in every sentence: compare raw counts instead
        return 1.0 if counts_a == counts_b else 0.0
    return _cosine(weights_a, weights_b, norm_a, norm_b)


def tfidf_sim(a: Sentence, b: Sentence, model: IdfModel) -> float:
    """Cosine similarity of tf-idf vectors (raw term counts times idf)."""
    return _tfidf_cosine(_tfidf_vector(a, model), _tfidf_vector(b, model))


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
    return 0.5 * (_bleu_directional(fa, fb) + _bleu_directional(fb, fa))


def bleu_sim(a: Sentence, b: Sentence) -> float:
    """Sentence-level BLEU (n <= 4, brevity penalty, add-one smoothing for
    n >= 2), symmetrised by averaging both directions.  Two empty
    sentences are identical and score 1.0; one empty side scores 0.0."""
    return _bleu_mean(_bleu_features(a), _bleu_features(b))


SentenceMetric = Callable[[Sentence, Sentence], float]


def _per_text(features: Callable[[Sentence], object], score: Callable) -> SentenceMetric:
    """score(features(a), features(b)), with the features of each distinct
    raw text built once.  Sentence.build derives the tokens from the raw
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


def make_metric(name: str, src: DocVersion | None = None, tgt: DocVersion | None = None) -> SentenceMetric:
    """Resolve a metric by name; tfidf fits its idf model on the two
    versions being aligned and therefore requires both documents."""
    if name == "jaccard":
        return jaccard
    if name == "char3gram":
        return _per_text(_char_features, _char_cosine)
    if name == "bleu":
        return _per_text(_bleu_features, _bleu_mean)
    if name == "tfidf":
        if src is None or tgt is None:
            raise ValueError("tfidf metric needs the two document versions to fit idf")
        model = build_idf([src, tgt])
        return _per_text(lambda s: _tfidf_vector(s, model), _tfidf_cosine)
    raise ValueError(f"unknown metric {name!r} (choose from {', '.join(METRIC_NAMES)})")
