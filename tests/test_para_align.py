import random

import numpy as np
import pytest

from revkit.para_align import (
    ParaAlignment,
    Thresholds,
    align_paragraphs,
    compute_sim_tensor,
)

from helpers import doc
from oracles import (
    VOCAB,
    _jac,
    _para_sent_sets,
    oracle_align_paragraphs,
    oracle_sim_tensor,
    random_doc_pair,
    random_sentence_raw,
)

P_CAT = "the cat sat on the mat right here now today"
P_DOG = "a dog ran over the hill quite fast this morning"
P_DOG2 = "a dog walked over the hill quite fast this morning"
# ten tokens and no letters: an alignable-length sentence that is skipped
DIGITS = "11 22 33 44 55 66 77 88 99 00"


def test_identical_docs_align_diagonally():
    paras = [[P_CAT], [P_DOG], ["every good boy deserves fudge and then some more treats"]]
    a = doc(paras, 1)
    b = doc(paras, 2)
    assert align_paragraphs(a, b).pairs == {(0, 0), (1, 1), (2, 2)}


def test_disjoint_docs_align_nothing():
    a = doc([["alpha bravo charlie delta echo foxtrot golf hotel india juliet"]], 1)
    b = doc([["zulu yankee xray whiskey victor uniform tango sierra romeo quebec"]], 2)
    assert align_paragraphs(a, b).pairs == frozenset()


def test_sim_tensor_hand_values():
    a = doc([[P_CAT], [P_DOG]], 1)
    b = doc([[P_CAT], [P_DOG2]], 2)
    t = compute_sim_tensor(a, b)
    assert t.k == 2 and t.l == 2
    # single-sentence paragraphs: both directions collapse to plain jaccard
    assert t.sim1[0, 0] == pytest.approx(1.0)
    assert t.sim1[1, 1] == pytest.approx(9 / 11)
    assert t.sim1[0, 1] == pytest.approx(1 / 18)
    assert t.sim1[1, 0] == pytest.approx(1 / 18)
    assert np.allclose(t.sim1, t.sim2)


def test_sim_tensor_multi_sentence_direction_asymmetry():
    # source paragraph has one sentence matching either target sentence
    # partially; averaging direction matters
    a = doc([["the cat sat on the mat right here now today"]], 1)
    b = doc(
        [[
            "the cat sat on a rug right there now today",
            "completely different words fill this sentence to ten tokens",
        ]],
        2,
    )
    t = compute_sim_tensor(a, b)
    # sim1 averages over the single source sentence: its best match
    best = t.sim1[0, 0]
    # sim2 averages over both target sentences, one of which matches poorly
    assert t.sim2[0, 0] < best


def test_skipped_paragraph_keeps_original_indices():
    a = doc([[P_CAT], ["tiny one"], [P_DOG]], 1)
    b = doc([[P_CAT], [P_DOG]], 2)
    assert a.paragraphs[1].skipped
    assert align_paragraphs(a, b).pairs == {(0, 0), (2, 1)}


def test_all_sentences_skipped_paragraph_never_aligns():
    a = doc([[DIGITS], [P_DOG]], 1)
    b = doc([[P_DOG]], 2)
    assert not a.paragraphs[0].skipped          # ten tokens, no markers
    assert a.paragraphs[0].sentences[0].skipped  # no letters
    t = compute_sim_tensor(a, b)
    assert t.sim1[0, 0] == 0.0 and t.sim2[0, 0] == 0.0
    assert align_paragraphs(a, b).pairs == {(1, 0)}


def test_tie_breaks_to_lowest_and_tau3_rescues_far_pairs():
    # two identical source paragraphs, one matching target: pass one picks
    # the lowest source index, pass two adds the distant duplicate through
    # the high-similarity branch
    a = doc([[P_CAT], [P_CAT]], 1)
    b = doc([[P_CAT]], 2)
    assert align_paragraphs(a, b).pairs == {(0, 0), (1, 0)}


def test_tau3_branch_ignores_position():
    junk = [
        ["aa bb cc dd ee ff gg hh ii jj"],
        ["kk ll mm nn oo pp qq rr ss tt"],
        ["uu vv ww xx yy zz ab cd ef gh"],
        ["ij kl mn op qr st uv wx yz za"],
    ]
    a = doc([[P_CAT], *junk], 1)
    b = doc([*junk[::-1], [P_CAT]], 2)
    # the matching pair sits at relative distance 0.8, far beyond tau2
    got = align_paragraphs(a, b).pairs
    assert (0, 4) in got


def test_empty_version_aligns_nothing():
    empty, full = doc([], 1), doc([[P_CAT], [P_DOG]], 2)
    for a, b in ((empty, full), (full, empty), (empty, empty)):
        t = compute_sim_tensor(a, b)
        assert t.sim1.shape == t.sim2.shape == t.scores.matrix.shape == (t.k, t.l)
        assert align_paragraphs(a, b).pairs == frozenset()


def test_only_skipped_paragraphs_align_nothing():
    a = doc([["tiny one"]], 1)
    b = doc([[P_CAT]], 2)
    assert align_paragraphs(a, b).pairs == frozenset()


def test_thresholds_validated():
    with pytest.raises(ValueError):
        Thresholds(tau1=1.5)
    with pytest.raises(ValueError):
        Thresholds(tau4=-0.1)


def test_reversed_alignment():
    assert ParaAlignment(frozenset({(1, 2)})).reversed().pairs == {(2, 1)}


def test_deterministic():
    rng = random.Random(3)
    a, b = random_doc_pair(rng)
    assert align_paragraphs(a, b).pairs == align_paragraphs(a, b).pairs


def test_matches_oracle_on_random_docs():
    rng = random.Random(41)
    for _ in range(40):
        a, b = random_doc_pair(rng)
        got = align_paragraphs(a, b).pairs
        want = oracle_align_paragraphs(a, b, Thresholds())
        assert got == want
        k = len(a.alignable_paragraphs())
        l = len(b.alignable_paragraphs())
        assert len(got) <= k + l


def assert_tensor_matches_oracle(a, b):
    t = compute_sim_tensor(a, b)
    sim1, sim2 = oracle_sim_tensor(a, b)
    assert np.array_equal(t.sim1, np.array(sim1, dtype=np.float64).reshape(t.k, t.l))
    assert np.array_equal(t.sim2, np.array(sim2, dtype=np.float64).reshape(t.k, t.l))


def test_sim_tensor_matches_oracle_on_random_docs():
    rng = random.Random(29)
    for _ in range(200):
        assert_tensor_matches_oracle(*random_doc_pair(rng))


def test_sim_tensor_matches_oracle_with_repeated_texts():
    # few texts, so they repeat within and across versions; a case variant
    # is a different raw text with the same lowercase token set
    rng = random.Random(31)
    vocab = VOCAB[:15]
    for _ in range(60):
        pool = [random_sentence_raw(rng, 4, 8, vocab) for _ in range(rng.randint(1, 4))]
        pool.append(rng.choice(pool).upper())

        def paras():
            return [
                [rng.choice(pool) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]

        assert_tensor_matches_oracle(doc(paras(), 1), doc(paras(), 2))


@pytest.mark.parametrize(
    "src, tgt",
    [
        # all-skipped paragraphs: zero rows/columns first, inside and last
        ([[DIGITS], [P_CAT, P_DOG], [DIGITS]], [[P_DOG], [DIGITS], [P_CAT, P_DOG2]]),
        ([[P_CAT], [P_DOG, DIGITS]], [[DIGITS, DIGITS], [P_DOG2], [P_CAT]]),
        # one-sentence paragraphs only
        ([[P_CAT], [P_DOG], [P_DOG2]], [[P_DOG2], [P_CAT]]),
        # a version whose last paragraph is skipped
        ([[P_CAT, P_DOG], ["tiny one"]], [[P_DOG2, P_CAT], [P_DOG], ["tiny one"]]),
        # every sentence skipped on one side
        ([[DIGITS], [DIGITS]], [[P_CAT], [P_DOG]]),
    ],
)
def test_sim_tensor_matches_oracle_on_degenerate_paragraphs(src, tgt):
    assert_tensor_matches_oracle(doc(src, 1), doc(tgt, 2))
    assert_tensor_matches_oracle(doc(tgt, 1), doc(src, 2))


def test_sim_tensor_keeps_block_mean_summation_order():
    # from 8 terms on np.mean sums pairwise, not left to right; the
    # segment reductions must still round exactly like a per-block mean
    rng = random.Random(5)
    vocab = VOCAB[:12]

    def paras():
        return [
            [random_sentence_raw(rng, 4, 8, vocab) for _ in range(rng.randint(1, 12))]
            for _ in range(6)
        ]

    for _ in range(10):
        a, b = doc(paras(), 1), doc(paras(), 2)
        t = compute_sim_tensor(a, b)
        rows = [_para_sent_sets(p) for p in a.alignable_paragraphs()]
        cols = [_para_sent_sets(p) for p in b.alignable_paragraphs()]
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                block = np.array([[_jac(x, y) for y in c] for x in r])
                assert t.sim1[i, j] == block.max(axis=1).mean()
                assert t.sim2[i, j] == block.max(axis=0).mean()
