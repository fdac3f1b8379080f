import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revkit.cli import _align_pair
from revkit.config import RunConfig
from revkit.corpus import SentenceId
from revkit.para_align import ParaAlignment, align_paragraphs
from revkit.sent_align import (
    SentAlignLabel,
    SentenceAlignment,
    align_sentences_directional,
    merge_bidirectional,
)
from revkit.similarity import char_ngram_sim, jaccard

from helpers import alignment, doc
from oracles import random_doc_pair

PARA_A = [
    "the red cat sat here",
    "a dog runs fast now",
    "qq ww ee rr tt",
]
PARA_B = [
    "the red cat sat there",
    "a dog walks fast now",
    "zz xx cc vv bb",
]
DIAG = ParaAlignment(frozenset({(0, 0)}))


def two_versions(a_paras=None, b_paras=None):
    return doc([a_paras or PARA_A], 1), doc([b_paras or PARA_B], 2)


def ids(version, *sent_indices):
    return [SentenceId(version, 0, n) for n in sent_indices]


def test_directional_toy_alignment():
    a, b = two_versions()
    got = align_sentences_directional(DIAG, a, b, jaccard, 0.4)
    a1, a2 = ids(1, 0, 1)
    b1, b2 = ids(2, 0, 1)
    assert got.pairs == {
        (a1, b1, SentAlignLabel.PARTIAL),
        (a2, b2, SentAlignLabel.PARTIAL),
    }


def test_directional_identical_labeled_aligned():
    a, b = two_versions(b_paras=list(PARA_A))
    got = align_sentences_directional(DIAG, a, b, jaccard, 0.4)
    assert all(label is SentAlignLabel.ALIGNED for _, _, label in got.pairs)
    assert len(got.pairs) == 3


def test_directional_threshold_above_one_empty():
    a, b = two_versions()
    got = align_sentences_directional(DIAG, a, b, jaccard, 1.01)
    assert got.pairs == frozenset()


def test_directional_tie_breaks_to_lowest_target():
    # padding sentences keep both paragraphs over the token minimum
    a, b = two_versions(
        a_paras=["the cat sat here", "pp oo ii mm ee ll rr"],
        b_paras=["the cat sat today", "the cat sat tonight", "zz yy xx ww vv uu"],
    )
    got = align_sentences_directional(DIAG, a, b, jaccard, 0.3)
    assert got.pairs == {(ids(1, 0)[0], ids(2, 0)[0], SentAlignLabel.PARTIAL)}


def test_directional_lowercase_surface_match_counts_as_aligned():
    # raws differ in spacing, so char3gram scores below 1, but the token
    # surfaces agree after lowercasing
    a, b = two_versions(
        a_paras=["The  Red Cat Sat Here", "mm nn bb vv cc xx"],
        b_paras=["the red cat sat here", "mm nn bb vv cc xx"],
    )
    got = align_sentences_directional(DIAG, a, b, char_ngram_sim, 0.5)
    labels = {s.sentence: label for s, _, label in got.pairs}
    assert labels[0] is SentAlignLabel.ALIGNED


def test_directional_allows_many_to_one():
    a, b = two_versions(
        a_paras=["the red cat sat here", "the red cat sat here"],
        b_paras=["the red cat sat here", "jj kk ll jq kw lr"],
    )
    got = align_sentences_directional(DIAG, a, b, jaccard, 0.4)
    assert len(got.pairs) == 2
    assert {t for _, t, _ in got.pairs} == {SentenceId(2, 0, 0)}


def test_directional_skips_skipped_sentences():
    a, b = two_versions(
        a_paras=["the red cat sat here", "too short", "a dog runs fast now"],
        b_paras=list(PARA_B),
    )
    got = align_sentences_directional(DIAG, a, b, jaccard, 0.4)
    assert {s.sentence for s, _, _ in got.pairs} == {0, 2}


def test_merge_intersects_directions():
    a1, b1 = SentenceId(1, 0, 0), SentenceId(2, 0, 0)
    a2, b2 = SentenceId(1, 0, 1), SentenceId(2, 0, 1)
    a3, b3 = SentenceId(1, 0, 2), SentenceId(2, 0, 2)
    fwd = SentenceAlignment(1, 2, frozenset({
        (a1, b1, SentAlignLabel.ALIGNED),
        (a2, b2, SentAlignLabel.PARTIAL),
    }))
    bwd = SentenceAlignment(2, 1, frozenset({
        (b1, a1, SentAlignLabel.ALIGNED),
        (b3, a3, SentAlignLabel.PARTIAL),
    }))
    got = merge_bidirectional(fwd, bwd)
    assert got.src_version == 1 and got.tgt_version == 2
    assert got.pairs == {(a1, b1, SentAlignLabel.ALIGNED)}


def test_merge_downgrades_on_label_disagreement():
    a1, b1 = SentenceId(1, 0, 0), SentenceId(2, 0, 0)
    fwd = SentenceAlignment(1, 2, frozenset({(a1, b1, SentAlignLabel.ALIGNED)}))
    bwd = SentenceAlignment(2, 1, frozenset({(b1, a1, SentAlignLabel.PARTIAL)}))
    assert merge_bidirectional(fwd, bwd).pairs == {(a1, b1, SentAlignLabel.PARTIAL)}


def test_merge_requires_matching_versions():
    empty = frozenset()
    with pytest.raises(ValueError, match="directions do not match"):
        merge_bidirectional(SentenceAlignment(1, 2, empty), SentenceAlignment(1, 2, empty))


def test_merge_of_mirrored_directions_is_identity():
    a, b = two_versions()
    fwd = align_sentences_directional(DIAG, a, b, jaccard, 0.4)
    bwd = align_sentences_directional(DIAG.reversed(), b, a, jaccard, 0.4)
    merged = merge_bidirectional(fwd, bwd)
    assert merged.pairs == fwd.pairs  # symmetric toy case
    # idempotent under re-merge with its own mirror
    mirror = SentenceAlignment(2, 1, frozenset((t, s, l) for s, t, l in merged.pairs))
    assert merge_bidirectional(merged, mirror).pairs == merged.pairs


def test_positive_pairs_and_sorting():
    a1, b1 = SentenceId(1, 0, 0), SentenceId(2, 0, 0)
    a2, b2 = SentenceId(1, 0, 1), SentenceId(2, 0, 1)
    al = SentenceAlignment(1, 2, frozenset({
        (a2, b2, SentAlignLabel.PARTIAL),
        (a1, b1, SentAlignLabel.NOT_ALIGNED),
    }))
    assert al.positive_pairs() == {(a2, b2)}
    assert al.sorted_positive() == [(a2, b2, SentAlignLabel.PARTIAL)]
    assert (a1, b1, SentAlignLabel.NOT_ALIGNED) in al.pairs


def test_validate_against_checks_ids():
    a, b = two_versions()
    good = alignment(1, 2, [((0, 0), (0, 0), None)])
    good.validate_against(a, b)
    with pytest.raises(ValueError):
        alignment(1, 2, [((0, 9), (0, 0), None)]).validate_against(a, b)
    with pytest.raises(ValueError, match="versions"):
        good.validate_against(b, a)


# ---------------------------------------------------------------------------
# threshold behaviour

def test_threshold_monotone_on_random_docs():
    rng = random.Random(19)
    for _ in range(10):
        a, b = random_doc_pair(rng)
        paras = align_paragraphs(a, b)
        loose = align_sentences_directional(paras, a, b, jaccard, 0.2)
        tight = align_sentences_directional(paras, a, b, jaccard, 0.6)
        assert {(s, t) for s, t, _ in tight.pairs} <= {(s, t) for s, t, _ in loose.pairs}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
def test_matrix_scores_match_scalar_jaccard(seed, threshold):
    src, tgt = random_doc_pair(random.Random(seed))
    paras = align_paragraphs(src, tgt)
    for s in src.alignable_sentences():
        for t in tgt.alignable_sentences():
            assert paras.scores(s, t) == jaccard(s, t)
            assert paras.reversed().scores(t, s) == jaccard(t, s)
    fwd = align_sentences_directional(paras, src, tgt, jaccard, threshold)
    bwd = align_sentences_directional(paras.reversed(), tgt, src, jaccard, threshold)
    cfg = RunConfig(sentence_metric="jaccard", sentence_threshold=threshold)
    assert _align_pair(src, tgt, cfg) == merge_bidirectional(fwd, bwd)
