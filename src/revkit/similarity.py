"""Sentence-pair similarity metrics.

Four interchangeable baselines: token Jaccard, character n-gram cosine,
tf-idf cosine, and a symmetrised sentence-level BLEU.  All of them
lowercase token surfaces (stored sentences keep their case), are
symmetric, live in [0, 1], and return exactly 1.0 on identical inputs.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .corpus import DocVersion, Sentence, SentenceId

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


def char_ngram_sim(a: Sentence, b: Sentence, n: int = 3) -> float:
    """Cosine similarity of character n-gram counts over the lowercased
    raw strings (spaces included)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ra = a.raw.lower()
    rb = b.raw.lower()
    ca = Counter(ra[i:i + n] for i in range(len(ra) - n + 1))
    cb = Counter(rb[i:i + n] for i in range(len(rb) - n + 1))
    if not ca and not cb:
        # both strings shorter than n: fall back to string identity
        return 1.0 if ra == rb else 0.0
    return _cosine(ca, cb, _norm(ca), _norm(cb))


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
    counts = Counter(s.lower_surfaces())
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


def _cached_tfidf(model: IdfModel) -> SentenceMetric:
    """tfidf_sim with each sentence's vector built once per metric."""
    cache: dict[SentenceId, tuple] = {}

    def vector(s: Sentence):
        got = cache.get(s.id)
        if got is None or got[0] is not s:
            got = cache[s.id] = (s, _tfidf_vector(s, model))
        return got[1]

    return lambda a, b: _tfidf_cosine(vector(a), vector(b))


def _bleu_directional(hyp: tuple[str, ...], ref: tuple[str, ...]) -> float:
    if not hyp or not ref:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        total = max(len(hyp) - n + 1, 0)
        hgrams = Counter(hyp[i:i + n] for i in range(total))
        rgrams = Counter(ref[i:i + n] for i in range(max(len(ref) - n + 1, 0)))
        matched = sum(min(c, rgrams[g]) for g, c in hgrams.items())
        if n == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            # add-one smoothing for the higher orders
            p = (matched + 1) / (total + 1)
        log_sum += math.log(p)
    if len(hyp) > len(ref):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_sum / 4.0)


def bleu_sim(a: Sentence, b: Sentence) -> float:
    """Sentence-level BLEU (n <= 4, brevity penalty, add-one smoothing for
    n >= 2), symmetrised by averaging both directions."""
    wa = a.lower_surfaces()
    wb = b.lower_surfaces()
    return 0.5 * (_bleu_directional(wa, wb) + _bleu_directional(wb, wa))


SentenceMetric = Callable[[Sentence, Sentence], float]


def make_metric(name: str, src: DocVersion | None = None, tgt: DocVersion | None = None) -> SentenceMetric:
    """Resolve a metric by name; tfidf fits its idf model on the two
    versions being aligned and therefore requires both documents."""
    if name == "jaccard":
        return jaccard
    if name == "char3gram":
        return char_ngram_sim
    if name == "bleu":
        return bleu_sim
    if name == "tfidf":
        if src is None or tgt is None:
            raise ValueError("tfidf metric needs the two document versions to fit idf")
        return _cached_tfidf(build_idf([src, tgt]))
    raise ValueError(f"unknown metric {name!r} (choose from {', '.join(METRIC_NAMES)})")
