import math
import random
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revkit.kernels import Rows, build_idf, tfidf_cosines
from revkit.para_align import CandidateCells, encode_versions
from revkit.similarity import METRIC_NAMES, make_metric

from helpers import cell_list, cell_scores, doc, encode_tokens, encoded_pair, jaccard, pair_score, sent
from oracles import lower_tokens, oracle_build_idf, oracle_metric, random_doc_pair

# one sentence pair scored by a fresh make_metric scorer
char3gram, bleu = partial(pair_score, "char3gram"), partial(pair_score, "bleu")

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
    assert char3gram(sent("abcd"), sent("bcde")) == pytest.approx(0.5)


def test_char3gram_identical_exact_one():
    # texts that differ only in case have equal features
    assert char3gram(sent("The cat sat on the mat"), sent("the cat sat on the mat")) == 1.0


def test_char3gram_short_strings_fall_back_to_identity():
    assert char3gram(sent("AB"), sent("ab")) == 1.0
    assert char3gram(sent("ab"), sent("cd")) == 0.0


def test_char3gram_counts_multiplicity():
    # "aaaa" has grams {aaa: 2}, "aaa" has {aaa: 1}: cosine is 1.0 since
    # the vectors are parallel
    assert char3gram(sent("aaaa"), sent("aaa")) == pytest.approx(1.0)


@given(sentences, sentences)
def test_char3gram_symmetric_bounded(a, b):
    v = char3gram(a, b)
    assert v == char3gram(b, a)
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


def _encoded(*docs):
    """Every sentence's encoding over one vocabulary, and that vocabulary."""
    vocab: dict[str, int] = {}
    return [encode_tokens(s.tokens, vocab) for d in docs for p in d.paragraphs for s in p.sentences], vocab


def test_build_idf_values():
    a, b = two_docs()
    sentences, vocab = _encoded(a, b)
    distinct = np.array([i for ids in sentences for i in set(ids)])
    idf = build_idf(len(sentences), distinct, len(vocab) + 1)
    assert len(sentences) == 4
    assert idf[vocab["the"]] == 0.0  # in all 4
    assert idf[vocab["cat"]] == math.log(2)  # in 2 of 4
    assert idf[len(vocab)] == 0.0  # in none
    model = oracle_build_idf([a, b])
    for token, i in vocab.items():
        assert idf[i] == model.lookup(token)


def test_build_idf_requires_sentences():
    with pytest.raises(ValueError):
        build_idf(0, np.zeros(0, dtype=np.int64), 3)


def test_tfidf_matches_brute_force():
    a, b = two_docs()
    model = oracle_build_idf([a, b])
    s1 = a.paragraphs[0].sentences[1]
    s2 = b.paragraphs[0].sentences[1]

    def vec(s):
        return {
            tok: cnt * model.lookup(tok) for tok, cnt in Counter(lower_tokens(s)).items()
        }

    va, vb = vec(s1), vec(s2)
    dot = sum(w * vb.get(k, 0.0) for k, w in va.items())
    expect = dot / (
        math.sqrt(sum(w * w for w in va.values())) * math.sqrt(sum(w * w for w in vb.values()))
    )
    scores = cell_scores("tfidf", a, b)
    assert scores[s1.id, s2.id] == pytest.approx(expect)
    assert scores[s2.id, s1.id] == pytest.approx(expect)


def test_tfidf_identical_is_one():
    a, b = two_docs()
    s, t = a.paragraphs[0].sentences[0], b.paragraphs[0].sentences[0]
    assert s.raw == t.raw
    scores = cell_scores("tfidf", a, b)
    assert scores[s.id, t.id] == scores[t.id, s.id] == 1.0


def test_tfidf_all_zero_vectors_compare_counts():
    # every token occurs in every sentence, so all idf weights vanish;
    # equal counts score 1.0 in any case or order, other counts 0.0
    same = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
    a = doc([[same, same + " alpha"]], 1)
    b = doc([[same.upper(), " ".join(reversed(same.split()))]], 2)
    (s1, s2), (t1, t2) = a.paragraphs[0].sentences, b.paragraphs[0].sentences
    scores = cell_scores("tfidf", a, b)
    for s, t, want in ((s1, t1, 1.0), (s1, t2, 1.0), (s2, t1, 0.0), (s2, t2, 0.0)):
        assert scores[s.id, t.id] == scores[t.id, s.id] == want


# ---------------------------------------------------------------------------
# bleu

def test_bleu_identical_is_one():
    # texts that differ only in case have equal features
    assert bleu(sent("The cat sat on the mat"), sent("the cat sat on the mat")) == 1.0


def test_bleu_disjoint_is_zero():
    assert bleu(sent("the cat sat again"), sent("dogs run very fast")) == 0.0


def test_bleu_hand_value():
    # one differing token out of five, same length both ways:
    # precisions 4/5, 4/5 smoothed, 3/4 smoothed, 2/3 smoothed; bp = 1
    got = bleu(sent("the cat sat on mat"), sent("the cat sat on rug"))
    assert got == pytest.approx((0.8 * 0.8 * 0.75 * (2 / 3)) ** 0.25)


def test_bleu_empty_is_zero():
    # one empty side; two empty sentences are identical and score 1.0
    assert bleu(sent("the cat sat here"), sent("")) == 0.0
    assert bleu(sent(""), sent("the cat sat here")) == 0.0


@given(sentences, sentences)
def test_bleu_symmetric_bounded(a, b):
    v = bleu(a, b)
    assert v == bleu(b, a)
    assert 0.0 <= v <= 1.0 + 1e-12


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
def test_bleu_identical_nonempty_is_one(ws):
    # the spacing differs, so the score is read from the features
    a = sent(" ".join(ws))
    b = sent("  ".join(ws))
    assert bleu(a, b) == 1.0


# ---------------------------------------------------------------------------
# metric factory and the aligner's scores

def test_make_metric_names():
    assert set(METRIC_NAMES) == {"jaccard", "tfidf", "char3gram", "bleu"}
    a, b = two_docs()
    s = a.paragraphs[0].sentences[0]
    t = b.paragraphs[0].sentences[0]
    for name in METRIC_NAMES:
        assert cell_scores(name, a, b)[s.id, t.id] == 1.0  # identical sentence both sides
        assert pair_score(name, s, t) == 1.0


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_make_metric_caches_bit_identically(name):
    """The aligner's score of every sentence pair, in both directions,
    equals the oracle's bit for bit."""
    rng = random.Random(17)
    for _ in range(15):
        a, b = random_doc_pair(rng)
        scores = cell_scores(name, a, b)
        oracle = oracle_metric(name, a, b)
        for s in a.alignable_sentences():
            for t in b.alignable_sentences():
                assert scores[s.id, t.id] == oracle(s, t)
                assert scores[t.id, s.id] == oracle(t, s)


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_make_metric_cache_keys_on_text(name):
    a, b = two_docs()
    t = b.paragraphs[0].sentences[1]
    # the same text under two ids, beside other texts
    dog, cat = "a dog ran over the hill quite fast this morning", "the cat sat on the mat right here"
    c = doc([[dog, cat], [cat, dog]], 1)
    scores = cell_scores(name, c, b)
    oracle = oracle_metric(name, c, b)
    (d1, c1), (c2, d2) = (p.sentences for p in c.paragraphs)
    for x, y in ((d1, d2), (c1, c2)):
        assert scores[x.id, t.id] == scores[y.id, t.id] == oracle(x, t)
        assert scores[t.id, x.id] == scores[t.id, y.id] == oracle(t, x)
    assert scores[d1.id, t.id] != scores[c1.id, t.id]


_any_texts = st.lists(
    st.sampled_from(WORDS + ["The", "CAT", ",", ".", ":", "[REF]", "[MATH]", "3.5", "(e.g.,"])
    | st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\x1c", "\u3000", "\u0130", "\xdf", "SS"])
    | st.characters(),
    max_size=30,
).map("".join)
# empty texts, texts under three characters, texts whose lowercase form
# is longer (U+0130) or that fold otherwise (sharp s), and equal texts
_edge_texts = st.sampled_from(["", "a", "A", "ab", "aB", "abc", "\u0130", "\u0130\u0130", "\xdf", "ss", "SS"])


@given(_any_texts | _edge_texts, st.lists(_any_texts, max_size=4), st.integers(0, 40))
def test_feature_metrics_score_every_text_against_itself_at_one(raw, others, empty):
    """Every metric's bulk scorer gives a text against itself, or against
    an equal text, exactly 1.0 in both directions, without a shortcut for
    equal texts, whatever the text, and for tfidf whatever the other
    documents, which set the idf."""
    s, twin = sent(raw), sent(raw, 2)
    cells = np.zeros(2, dtype=np.int64), np.array([0, 1])
    for name in ("jaccard", "char3gram", "bleu"):
        forward, backward = make_metric(name)(encoded_pair([s], [s, twin]), cells)
        assert forward.tolist() == backward.tolist() == [1.0, 1.0]
    sentences, _ = _encoded(doc([[raw, *others]]))
    text = sentences[0]
    cell = np.zeros(1, dtype=np.int64)
    for rest in ([], [set(ids) for ids in sentences[1:]], [()] * empty):
        # a copy of the text: equal encodings, not one shared object
        forward, backward = tfidf_cosines(Rows([text]), Rows([list(text)]), cell, cell, Rows(rest))
        assert forward.tolist() == backward.tolist() == [1.0]


@pytest.mark.parametrize("raw", ["", "word", "the cat sat on the mat"])
@pytest.mark.parametrize("name", METRIC_NAMES)
def test_every_metric_is_exactly_one_on_identical_inputs(name, raw):
    s, twin = sent(raw), sent(raw, 2, 1, 1)
    oracle = oracle_metric(name, doc([[raw]], 1), doc([[raw]], 2))
    for x, y in ((s, s), (s, twin), (twin, s)):
        assert oracle(x, y) == 1.0
        assert pair_score(name, x, y) == 1.0


def test_make_metric_tfidf_cache_tells_same_id_apart():
    """tfidf's encodings are kept by text, not by place: a group's versions
    hold different texts at the same places, and with the group's
    versions encoded together every pair scores as the oracle does."""
    texts = [
        "the cat sat on the mat right here",
        "a dog ran over the hill quite fast",
        "another dog walked over the hill slowly",
    ]
    versions = [doc([[texts[v % 3], texts[(v + 1) % 3]]], v + 1) for v in range(3)]
    encoded = encode_versions(versions)
    for ea, eb in zip(encoded, encoded[1:]):
        a, b = ea.doc, eb.doc
        oracle = oracle_metric("tfidf", a, b)
        seen = set()
        for s, t, forward, backward in cell_list(CandidateCells(frozenset({(0, 0)}), (ea, eb), make_metric("tfidf"))):
            assert forward == oracle(s, t)
            assert backward == oracle(t, s)
            seen.add(forward)
        assert len(seen) > 1


def test_make_metric_tfidf_requires_docs():
    """tf-idf fits its idf on the pair's sentences, so the kernel refuses
    zero documents; the scorer fits nothing when there is no cell."""
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="zero sentences"):
        tfidf_cosines(Rows([]), Rows([]), empty, empty, Rows([]))
    for name in METRIC_NAMES:
        forward, backward = make_metric(name)(encoded_pair([], []), (empty, empty))
        assert forward.shape == backward.shape == (0,)


def test_make_metric_unknown_name():
    with pytest.raises(ValueError, match="unknown metric"):
        make_metric("cosine")


@settings(max_examples=300)
@given(_any_texts | _edge_texts, _any_texts | _edge_texts)
def test_char3gram_and_bleu_are_bit_identical_with_arguments_swapped(x, y):
    """Both directions of a cell read one char3gram or bleu score, the
    same as the cell with its sentences swapped and as the oracle's, bit
    for bit, in one call of the bulk scorer over every cell of x and y
    against x and y."""
    a, b = sent(x), sent(y, 1, 0, 1)
    cells = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    for name in ("char3gram", "bleu"):
        oracle = oracle_metric(name, None, None)
        forward, backward = make_metric(name)(encoded_pair([a, b], [a, b]), cells)
        assert forward.tolist() == backward.tolist()
        assert forward.tolist() == [oracle(a, a), oracle(a, b), oracle(b, a), oracle(b, b)]
        assert forward[1] == forward[2] and forward[0] == forward[3] == 1.0
