import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revkit.cli import _align_pair
from revkit.config import RunConfig
from revkit.corpus import SentenceId
from revkit.para_align import encode_versions
from revkit.sent_align import (
    SentAlignLabel,
    SentenceAlignment,
    align_sentences_directional,
    merge_bidirectional,
)
from revkit.similarity import METRIC_NAMES

from helpers import aligned_paragraphs, alignment, candidates, cell_list, doc
from oracles import (
    oracle_align_directional,
    oracle_align_pair,
    oracle_jaccard,
    oracle_metric,
    random_doc_pair,
)

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
DIAG = {(0, 0)}


def two_versions(a_paras=None, b_paras=None):
    return doc([a_paras or PARA_A], 1), doc([b_paras or PARA_B], 2)


def diag(a, b, metric="jaccard"):
    """The candidate cells of the first paragraphs of a and b."""
    return candidates(a, b, metric, DIAG)


def ids(version, *sent_indices):
    return [SentenceId(version, 0, n) for n in sent_indices]


def test_directional_toy_alignment():
    a, b = two_versions()
    got = align_sentences_directional(diag(a, b), a, b, 0.4)
    a1, a2 = ids(1, 0, 1)
    b1, b2 = ids(2, 0, 1)
    assert got.pairs == {
        (a1, b1, SentAlignLabel.PARTIAL),
        (a2, b2, SentAlignLabel.PARTIAL),
    }


def test_directional_identical_labeled_aligned():
    a, b = two_versions(b_paras=list(PARA_A))
    got = align_sentences_directional(diag(a, b), a, b, 0.4)
    assert all(label is SentAlignLabel.ALIGNED for _, _, label in got.pairs)
    assert len(got.pairs) == 3


def test_directional_threshold_above_one_empty():
    a, b = two_versions()
    got = align_sentences_directional(diag(a, b), a, b, 1.01)
    assert got.pairs == frozenset()


def test_directional_tie_breaks_to_lowest_target():
    # padding sentences keep both paragraphs over the token minimum
    a, b = two_versions(
        a_paras=["the cat sat here", "pp oo ii mm ee ll rr"],
        b_paras=["the cat sat today", "the cat sat tonight", "zz yy xx ww vv uu"],
    )
    got = align_sentences_directional(diag(a, b), a, b, 0.3)
    assert got.pairs == {(ids(1, 0)[0], ids(2, 0)[0], SentAlignLabel.PARTIAL)}


def test_backward_tie_breaks_to_lowest_target():
    # version 2's first sentence scores 3/5 against version 1's first and
    # third sentences alike; the cells are read from the other side
    a, b = two_versions(
        a_paras=["the cat sat here", "qq ww ee rr tt yy", "the cat sat tonight"],
        b_paras=["the cat sat today", "zz yy xx ww vv uu"],
    )
    got = align_sentences_directional(diag(a, b), b, a, 0.3)
    assert got.pairs == {(ids(2, 0)[0], ids(1, 0)[0], SentAlignLabel.PARTIAL)}


def test_score_equal_to_the_threshold_is_kept_in_both_directions():
    # Jaccard 4/8: the sentences share four of eight distinct tokens
    a, b = two_versions(
        a_paras=["aa bb cc dd ee ff", "pq pw pe pr pt py"],
        b_paras=["aa bb cc dd gg hh", "zq zw ze zr zt zy"],
    )
    cells = diag(a, b)
    for src, tgt in ((a, b), (b, a)):
        got = align_sentences_directional(cells, src, tgt, 0.5)
        pair = (ids(src.version_index, 0)[0], ids(tgt.version_index, 0)[0], SentAlignLabel.PARTIAL)
        assert got.pairs == {pair}
        assert align_sentences_directional(cells, src, tgt, math.nextafter(0.5, 1)).pairs == frozenset()


def test_directional_lowercase_surface_match_counts_as_aligned():
    # raws differ in spacing, so char3gram scores below 1, but the token
    # surfaces agree after lowercasing
    a, b = two_versions(
        a_paras=["The  Red Cat Sat Here", "mm nn bb vv cc xx"],
        b_paras=["the red cat sat here", "mm nn bb vv cc xx"],
    )
    got = align_sentences_directional(diag(a, b, "char3gram"), a, b, 0.5)
    labels = {s.sentence: label for s, _, label in got.pairs}
    assert labels[0] is SentAlignLabel.ALIGNED


def test_directional_allows_many_to_one():
    a, b = two_versions(
        a_paras=["the red cat sat here", "the red cat sat here"],
        b_paras=["the red cat sat here", "jj kk ll jq kw lr"],
    )
    got = align_sentences_directional(diag(a, b), a, b, 0.4)
    assert len(got.pairs) == 2
    assert {t for _, t, _ in got.pairs} == {SentenceId(2, 0, 0)}


def test_directional_skips_skipped_sentences():
    a, b = two_versions(
        a_paras=["the red cat sat here", "too short", "a dog runs fast now"],
        b_paras=list(PARA_B),
    )
    got = align_sentences_directional(diag(a, b), a, b, 0.4)
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
    cells = diag(a, b)
    fwd = align_sentences_directional(cells, a, b, 0.4)
    bwd = align_sentences_directional(cells, b, a, 0.4)
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
        cells = candidates(a, b, "jaccard")
        loose = align_sentences_directional(cells, a, b, 0.2)
        tight = align_sentences_directional(cells, a, b, 0.6)
        assert {(s, t) for s, t, _ in tight.pairs} <= {(s, t) for s, t, _ in loose.pairs}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
def test_matrix_scores_match_scalar_jaccard(seed, threshold):
    src, tgt = random_doc_pair(random.Random(seed))
    cells = candidates(src, tgt, "jaccard")
    for s, t, forward, backward in cell_list(cells):
        assert forward == backward == oracle_jaccard(s, t) == oracle_jaccard(t, s)
    fwd = align_sentences_directional(cells, src, tgt, threshold)
    bwd = align_sentences_directional(cells, tgt, src, threshold)
    cfg = RunConfig(sentence_metric="jaccard", sentence_threshold=threshold)
    assert _align_pair(src, tgt, cfg, encode_versions((src, tgt))) == merge_bidirectional(fwd, bwd)


# ---------------------------------------------------------------------------
# the bulk aligner against the per-cell loop it replaced

WORDS = ["ka", "lo", "mi", "nu", "pe", "ru", "si", "to", "vu", "we", "xo", "ya"]
# skipped sentences: too short, and too short with every core word below
JUNK = ["x 1", "ka lo :"]


@st.composite
def texts(draw):
    """A pool of sentence texts with repeats, case-only and word-order-only
    variants and repeated words.  In "uniform" pools every text holds all
    of one core word set, so every idf is 0."""
    if draw(st.booleans()):
        core = draw(st.lists(st.sampled_from(WORDS), min_size=4, max_size=5, unique=True))
        pool = []
        for _ in range(draw(st.integers(1, 4))):
            words = core + draw(st.lists(st.sampled_from(core), max_size=2))
            pool.append(" ".join(draw(st.permutations(words))))
        # skipped for its trailing colon, and a paragraph too short to align
        junk, short = [" ".join(core) + " :"], " ".join(core)
    else:
        pool = [
            " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=4, max_size=9)))
            for _ in range(draw(st.integers(1, 6)))
        ]
        junk, short = JUNK, "ka one"
    for raw in list(pool):
        variant = draw(st.sampled_from(["upper", "title", "shuffle", "spaced", "none"]))
        words = raw.split()
        if variant == "upper":
            pool.append(raw.upper())
        elif variant == "title":
            pool.append(raw.title())
        elif variant == "shuffle":
            pool.append(" ".join(draw(st.permutations(words))))
        elif variant == "spaced":
            pool.append("  ".join(words))
    return pool, junk, short


@st.composite
def doc_pairs(draw):
    """Two versions drawn from one text pool, with skipped sentences, skipped
    (short) paragraphs and empty versions."""
    pool, junk, short = draw(texts())

    def version(v):
        paragraphs = []
        if draw(st.integers(0, 9)) == 0:
            return doc(paragraphs, v)  # an empty version
        for _ in range(draw(st.integers(1, 5))):
            if draw(st.integers(0, 5)) == 0:
                paragraphs.append([short])  # under 10 tokens
                continue
            sentences = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(2, 5)))]
            if draw(st.integers(0, 4)) == 0:
                sentences.insert(draw(st.integers(0, len(sentences))), draw(st.sampled_from(junk)))
            paragraphs.append(sentences)
        return doc(paragraphs, v)

    return version(1), version(2)


def _labels(alignment):
    return {(s, t, label.value) for s, t, label in alignment.pairs}


@settings(max_examples=250, deadline=None)
@given(doc_pairs(), st.sampled_from(METRIC_NAMES), st.sampled_from(["aligned", "all", "some"]), st.data())
def test_bulk_aligner_matches_the_per_cell_oracle(versions, name, which, data):
    src, tgt = versions
    if which == "aligned":
        pairs = aligned_paragraphs(src, tgt)
    else:
        every = [
            (p.index, q.index) for p in src.alignable_paragraphs() for q in tgt.alignable_paragraphs()
        ]
        pairs = every if which == "all" else data.draw(st.lists(st.sampled_from(every), unique=True)) if every else []
    cells = candidates(src, tgt, name, pairs)
    oracle = oracle_metric(name, src, tgt)
    scores = []
    for s, t, forward, backward in cell_list(cells):
        assert forward == oracle(s, t)
        assert backward == oracle(t, s)
        scores += [forward, backward]
    thresholds = [0.0, 0.5, 1.0, 1.01] + ([data.draw(st.sampled_from(scores))] if scores else [])
    for threshold in thresholds:
        fwd = align_sentences_directional(cells, src, tgt, threshold)
        bwd = align_sentences_directional(cells, tgt, src, threshold)
        back = {(j, i) for i, j in pairs}
        assert _labels(fwd) == oracle_align_directional(pairs, src, tgt, oracle, threshold)
        assert _labels(bwd) == oracle_align_directional(back, tgt, src, oracle, threshold)
        assert (fwd.src_version, fwd.tgt_version, bwd.src_version, bwd.tgt_version) == (1, 2, 2, 1)


@settings(max_examples=120, deadline=None)
@given(doc_pairs(), st.sampled_from(METRIC_NAMES), st.sampled_from([0.0, 0.35, 0.5, 0.8, 1.0]))
def test_align_pair_matches_the_oracle_pipeline(versions, name, threshold):
    src, tgt = versions
    cfg = RunConfig(sentence_metric=name, sentence_threshold=threshold)
    got = _align_pair(src, tgt, cfg, encode_versions((src, tgt)))
    assert _labels(got) == oracle_align_pair(src, tgt, name, RunConfig(), threshold)


def test_cells_read_from_an_unknown_version_are_refused():
    a, b = two_versions()
    stranger = doc([PARA_A], 7)
    with pytest.raises(ValueError, match="version 7 is neither side"):
        align_sentences_directional(diag(a, b), stranger, a, 0.5)
