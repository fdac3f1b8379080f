import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revkit.similarity import (
    IdfModel,
    METRIC_NAMES,
    bleu_sim,
    build_idf,
    char_ngram_sim,
    jaccard,
    make_metric,
    tfidf_sim,
)

from helpers import doc, sent
from oracles import oracle_bleu, oracle_char_trigram, oracle_tfidf, random_doc_pair

WORDS = ["the", "cat", "sat", "mat", "dog", "ran", "big", "red"]
sentences = st.lists(st.sampled_from(WORDS), min_size=0, max_size=8).map(
    lambda ws: sent(" ".join(ws))
)


# ---------------------------------------------------------------------------
# jaccard

def test_jaccard_half():
    assert jaccard(sent("the cat sat"), sent("the cat ran")) == 0.5


def test_jaccard_empty_conventions():
    assert jaccard(sent(""), sent("")) == 1.0
    assert jaccard(sent(""), sent("the cat")) == 0.0


def test_jaccard_case_folds():
    assert jaccard(sent("The Cat"), sent("the cat")) == 1.0


def test_jaccard_repeated_tokens_collapse():
    # sets, not multisets
    assert jaccard(sent("the the the cat"), sent("the cat")) == 1.0


@given(sentences, sentences)
def test_jaccard_symmetric_bounded(a, b):
    v = jaccard(a, b)
    assert v == jaccard(b, a)
    assert 0.0 <= v <= 1.0


@given(sentences)
def test_jaccard_identical_is_one(a):
    assert jaccard(a, a) == 1.0


# ---------------------------------------------------------------------------
# character n-grams

def test_char3gram_half():
    # trigram sets {abc, bcd} and {bcd, cde}: cosine of (1,1) vs (1,1)
    # sharing one axis
    assert char_ngram_sim(sent("abcd"), sent("bcde")) == pytest.approx(0.5)


def test_char3gram_identical_exact_one():
    s = sent("the cat sat on the mat")
    assert char_ngram_sim(s, sent("the cat sat on the mat")) == 1.0


def test_char3gram_short_strings_fall_back_to_identity():
    assert char_ngram_sim(sent("ab"), sent("ab")) == 1.0
    assert char_ngram_sim(sent("ab"), sent("cd")) == 0.0


def test_char3gram_rejects_bad_n():
    with pytest.raises(ValueError):
        char_ngram_sim(sent("abc"), sent("abc"), n=0)


def test_char3gram_counts_multiplicity():
    # "aaaa" has grams {aaa: 2}, "aaa" has {aaa: 1}: cosine is 1.0 since
    # the vectors are parallel
    assert char_ngram_sim(sent("aaaa"), sent("aaa")) == pytest.approx(1.0)


@given(sentences, sentences)
def test_char3gram_symmetric_bounded(a, b):
    v = char_ngram_sim(a, b)
    assert v == char_ngram_sim(b, a)
    assert 0.0 <= v <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# tf-idf

def two_docs():
    a = doc(
        [[
            "the cat sat on the mat right there today friend",
            "a dog ran over the hill quite fast this morning",
        ]],
        1,
    )
    b = doc(
        [[
            "the cat sat on the mat right there today friend",
            "another dog walked over the hill quite slowly last night",
        ]],
        2,
    )
    return a, b


def test_build_idf_values():
    a, b = two_docs()
    model = build_idf([a, b])
    assert model.doc_count == 4
    assert model.lookup("the") == pytest.approx(0.0)          # in all 4
    assert model.lookup("cat") == pytest.approx(math.log(2))  # in 2 of 4
    assert model.lookup("unseen") == pytest.approx(math.log(4))


def test_build_idf_requires_sentences():
    with pytest.raises(ValueError):
        build_idf([doc([], 1)])


def test_tfidf_matches_brute_force():
    a, b = two_docs()
    model = build_idf([a, b])
    s1 = a.paragraphs[0].sentences[1]
    s2 = b.paragraphs[0].sentences[1]

    def vec(s):
        return {
            tok: cnt * model.lookup(tok) for tok, cnt in Counter(s.lower_tokens()).items()
        }

    va, vb = vec(s1), vec(s2)
    dot = sum(w * vb.get(k, 0.0) for k, w in va.items())
    expect = dot / (
        math.sqrt(sum(w * w for w in va.values())) * math.sqrt(sum(w * w for w in vb.values()))
    )
    assert tfidf_sim(s1, s2, model) == pytest.approx(expect)


def test_tfidf_identical_is_one():
    a, b = two_docs()
    model = build_idf([a, b])
    s = a.paragraphs[0].sentences[0]
    assert tfidf_sim(s, s, model) == 1.0


def test_tfidf_all_zero_vectors_compare_counts():
    # every token occurs in every sentence, so all idf weights vanish
    same = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
    a = doc([[same]], 1)
    b = doc([[same]], 2)
    model = build_idf([a, b])
    s1 = a.paragraphs[0].sentences[0]
    s2 = b.paragraphs[0].sentences[0]
    assert tfidf_sim(s1, s2, model) == 1.0


# ---------------------------------------------------------------------------
# bleu

def test_bleu_identical_is_one():
    s = sent("the cat sat on the mat")
    assert bleu_sim(s, sent("the cat sat on the mat")) == 1.0


def test_bleu_disjoint_is_zero():
    assert bleu_sim(sent("the cat sat again"), sent("dogs run very fast")) == 0.0


def test_bleu_hand_value():
    # one differing token out of five, same length both ways:
    # precisions 4/5, 4/5 smoothed, 3/4 smoothed, 2/3 smoothed; bp = 1
    got = bleu_sim(sent("the cat sat on mat"), sent("the cat sat on rug"))
    assert got == pytest.approx((0.8 * 0.8 * 0.75 * (2 / 3)) ** 0.25)


def test_bleu_empty_is_zero():
    # one empty side; two empty sentences are identical and score 1.0
    assert bleu_sim(sent("the cat sat here"), sent("")) == 0.0
    assert bleu_sim(sent(""), sent("the cat sat here")) == 0.0


@given(sentences, sentences)
def test_bleu_symmetric_bounded(a, b):
    v = bleu_sim(a, b)
    assert v == bleu_sim(b, a)
    assert 0.0 <= v <= 1.0 + 1e-12


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
def test_bleu_identical_nonempty_is_one(ws):
    a = sent(" ".join(ws))
    b = sent(" ".join(ws))
    assert bleu_sim(a, b) == 1.0


# ---------------------------------------------------------------------------
# metric factory

def test_make_metric_names():
    assert set(METRIC_NAMES) == {"jaccard", "tfidf", "char3gram", "bleu"}
    a, b = two_docs()
    for name in METRIC_NAMES:
        metric = make_metric(name, a, b)
        s = a.paragraphs[0].sentences[0]
        t = b.paragraphs[0].sentences[0]
        assert metric(s, t) == 1.0  # identical sentence both sides


def _scalar(name: str, model: IdfModel):
    """The metric's scalar function, and its from-scratch oracle."""
    return {
        "jaccard": (jaccard, jaccard),
        "tfidf": (lambda a, b: tfidf_sim(a, b, model), lambda a, b: oracle_tfidf(a, b, model)),
        "char3gram": (char_ngram_sim, oracle_char_trigram),
        "bleu": (bleu_sim, oracle_bleu),
    }[name]


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_make_metric_caches_bit_identically(name):
    rng = random.Random(17)
    for _ in range(15):
        a, b = random_doc_pair(rng)
        metric = make_metric(name, a, b)
        scalar, oracle = _scalar(name, build_idf([a, b]))
        for s in a.sentences():
            for t in b.sentences():
                assert metric(s, t) == scalar(s, t) == oracle(s, t)
                assert metric(t, s) == scalar(t, s) == oracle(t, s)


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_make_metric_cache_keys_on_text(name):
    a, b = two_docs()
    metric = make_metric(name, a, b)
    scalar, _ = _scalar(name, build_idf([a, b]))
    t = b.paragraphs[0].sentences[1]
    # the same text under two ids
    same = [sent("a dog ran over the hill", 1, 0, 0), sent("a dog ran over the hill", 2, 3, 4)]
    for s in same + same:
        assert metric(s, t) == metric(t, s) == scalar(s, t)
    # two texts under one id, each scored again after the other
    s1, s2 = sent("the cat sat on the mat"), sent("another dog walked over the hill")
    assert s1.id == s2.id
    for s in (s1, s2, s1, t, s2):
        assert metric(s, t) == scalar(s, t)
        assert metric(t, s) == scalar(t, s)
    assert metric(s1, t) != metric(s2, t)


@pytest.mark.parametrize("raw", ["", "word", "the cat sat on the mat"])
@pytest.mark.parametrize("name", METRIC_NAMES)
def test_every_metric_is_exactly_one_on_identical_inputs(name, raw):
    a, b = two_docs()
    metric = make_metric(name, a, b)
    scalar, _ = _scalar(name, build_idf([a, b]))
    s, twin = sent(raw), sent(raw, 2, 1, 1)
    for x, y in ((s, s), (s, twin), (twin, s)):
        assert scalar(x, y) == 1.0
        assert metric(x, y) == 1.0


def test_make_metric_tfidf_cache_tells_same_id_apart():
    a, b = two_docs()
    metric = make_metric("tfidf", a, b)
    model = build_idf([a, b])
    s1, s2 = sent("the cat sat on the mat"), sent("a dog ran over the hill")
    assert s1.id == s2.id
    t = b.paragraphs[0].sentences[1]
    assert metric(s1, t) == tfidf_sim(s1, t, model)
    assert metric(s2, t) == tfidf_sim(s2, t, model)
    assert metric(s1, t) != metric(s2, t)


def test_make_metric_tfidf_requires_docs():
    with pytest.raises(ValueError):
        make_metric("tfidf")


def test_make_metric_unknown_name():
    with pytest.raises(ValueError, match="unknown metric"):
        make_metric("cosine")
