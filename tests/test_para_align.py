import random
import tracemalloc
from itertools import product
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revkit import para_align
from revkit.config import RunConfig
from revkit.kernels import jaccard_matrix
from revkit.para_align import (
    CandidateCells,
    encode_versions,
    sim_rows,
)
from revkit.similarity import METRIC_NAMES, make_metric

from helpers import aligned_paragraphs, cell_list, doc
from oracles import (
    VOCAB,
    _jac,
    _para_sent_sets,
    lower_tokens,
    oracle_align_paragraphs,
    oracle_jaccard,
    oracle_sim_tensor,
    random_doc_pair,
    random_sentence_raw,
)

P_CAT = "the cat sat on the mat right here now today"
P_DOG = "a dog ran over the hill quite fast this morning"
P_DOG2 = "a dog walked over the hill quite fast this morning"
# ten tokens and no letters: an alignable-length sentence that is skipped
DIGITS = "11 22 33 44 55 66 77 88 99 00"
# ten-token sentences sharing no token with each other or with P_CAT
JUNK = (
    "aa bb cc dd ee ff gg hh ii jj",
    "kk ll mm nn oo pp qq rr ss tt",
    "uu vv ww xx yy zz ab cd ef gh",
    "ij kl mn op qr st uv wx yz za",
)


def assembled_tensor(a, b, encodings=None):
    """sim1 and sim2 of a version pair assembled whole from sim_rows'
    blocks, with the two encodings they came from as src and tgt."""
    src, tgt = encodings or encode_versions((a, b))
    k, l = len(src.bounds), len(tgt.bounds)
    sim1, sim2 = np.zeros((k, l)), np.zeros((k, l))
    for rows, block1, block2 in sim_rows(src, tgt):
        sim1[rows], sim2[rows] = block1, block2
    return SimpleNamespace(sim1=sim1, sim2=sim2, src=src, tgt=tgt, k=k, l=l)


def test_identical_docs_align_diagonally():
    paras = [[P_CAT], [P_DOG], ["every good boy deserves fudge and then some more treats"]]
    a = doc(paras, 1)
    b = doc(paras, 2)
    assert aligned_paragraphs(a, b) == {(0, 0), (1, 1), (2, 2)}


def test_disjoint_docs_align_nothing():
    a = doc([["alpha bravo charlie delta echo foxtrot golf hotel india juliet"]], 1)
    b = doc([["zulu yankee xray whiskey victor uniform tango sierra romeo quebec"]], 2)
    assert aligned_paragraphs(a, b) == frozenset()


def test_sim_tensor_hand_values():
    a = doc([[P_CAT], [P_DOG]], 1)
    b = doc([[P_CAT], [P_DOG2]], 2)
    t = assembled_tensor(a, b)
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
    t = assembled_tensor(a, b)
    # sim1 averages over the single source sentence: its best match
    best = t.sim1[0, 0]
    # sim2 averages over both target sentences, one of which matches poorly
    assert t.sim2[0, 0] < best


def test_skipped_paragraph_keeps_original_indices():
    a = doc([[P_CAT], ["tiny one"], [P_DOG]], 1)
    b = doc([[P_CAT], [P_DOG]], 2)
    assert a.paragraphs[1].skipped
    assert aligned_paragraphs(a, b) == {(0, 0), (2, 1)}


def test_all_sentences_skipped_paragraph_never_aligns():
    a = doc([[DIGITS], [P_DOG]], 1)
    b = doc([[P_DOG]], 2)
    assert not a.paragraphs[0].skipped          # ten tokens, no markers
    assert a.paragraphs[0].sentences[0].skipped  # no letters
    t = assembled_tensor(a, b)
    assert t.sim1[0, 0] == 0.0 and t.sim2[0, 0] == 0.0
    assert aligned_paragraphs(a, b) == {(1, 0)}


def test_tie_breaks_to_lowest_and_tau3_rescues_far_pairs():
    # two identical source paragraphs, one matching target: pass one picks
    # the lowest source index, pass two adds the distant duplicate through
    # the high-similarity branch
    a = doc([[P_CAT], [P_CAT]], 1)
    b = doc([[P_CAT]], 2)
    assert aligned_paragraphs(a, b) == {(0, 0), (1, 0)}


@pytest.mark.parametrize("budget", [1, para_align._BLOCK_CELLS], ids=["a block per paragraph", "one block"])
def test_pass_one_tie_keeps_the_lowest_source_across_blocks(budget):
    # sources 0 and 3 both hold target 3's only sentence, so they tie on its
    # sim2; pass one must pick the far source 0, which fails the gates,
    # and not the near source 3, which would pass the position gate
    x, y, f1, f2 = JUNK
    a = doc([[P_CAT, x], [f1], [f2], [P_CAT, y]], 1)
    b = doc([[f1], [f2], [y, P_CAT], [P_CAT]], 2)
    with mock.patch.object(para_align, "_BLOCK_CELLS", budget):
        got = aligned_paragraphs(a, b)
    assert got == oracle_align_paragraphs(a, b, RunConfig()) == {(1, 0), (2, 1), (3, 2)}


def test_tau3_branch_ignores_position():
    junk = [[s] for s in JUNK]
    a = doc([[P_CAT], *junk], 1)
    b = doc([*junk[::-1], [P_CAT]], 2)
    # the matching pair sits at relative distance 0.8, far beyond tau2
    got = aligned_paragraphs(a, b)
    assert (0, 4) in got


def test_empty_version_aligns_nothing():
    empty, full = doc([], 1), doc([[P_CAT], [P_DOG]], 2)
    for a, b in ((empty, full), (full, empty), (empty, empty)):
        t = assembled_tensor(a, b)
        assert t.sim1.shape == t.sim2.shape == (t.k, t.l)
        assert t.src.rows.sizes.shape == (t.k,) and t.tgt.rows.sizes.shape == (t.l,)
        paras = aligned_paragraphs(a, b)
        assert paras == frozenset()
        for metric in METRIC_NAMES:
            cells = CandidateCells(paras, encode_versions((a, b)), make_metric(metric))
            assert cell_list(cells) == [] and cells.best(a.version_index) == cells.best(b.version_index) == []


def test_only_skipped_paragraphs_align_nothing():
    a = doc([["tiny one"]], 1)
    b = doc([[P_CAT]], 2)
    assert aligned_paragraphs(a, b) == frozenset()


def test_deterministic():
    rng = random.Random(3)
    a, b = random_doc_pair(rng)
    assert aligned_paragraphs(a, b) == aligned_paragraphs(a, b)


def test_matches_oracle_on_random_docs():
    rng = random.Random(41)
    for _ in range(40):
        a, b = random_doc_pair(rng)
        got = aligned_paragraphs(a, b)
        want = oracle_align_paragraphs(a, b, RunConfig())
        assert got == want
        k = len(a.alignable_paragraphs())
        l = len(b.alignable_paragraphs())
        assert len(got) <= k + l


def assert_tensor_matches_oracle(a, b):
    t = assembled_tensor(a, b)
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


def test_shared_encoder_matches_oracle_over_a_group():
    # a group's versions encoded together, for all its successive pairs:
    # texts repeat across versions, in case variants too, and come back
    # after a version without them
    rng = random.Random(37)
    vocab = VOCAB[:20]
    repeats = 0  # texts met again in a later version

    def assert_matches_oracle(t, a, b):
        sim1, sim2 = oracle_sim_tensor(a, b)
        assert np.array_equal(t.sim1, np.array(sim1, dtype=np.float64).reshape(t.k, t.l))
        assert np.array_equal(t.sim2, np.array(sim2, dtype=np.float64).reshape(t.k, t.l))
        alone = assembled_tensor(a, b)
        for side in ("src", "tgt"):
            assert np.array_equal(getattr(t, side).rows.sizes, getattr(alone, side).rows.sizes)
        # every cell's score, from the shared encoder's ids and from the pair's own
        every = frozenset(product(t.src.bounds, t.tgt.bounds))
        shared, own = (cell_list(CandidateCells(every, (u.src, u.tgt), make_metric("jaccard"))) for u in (t, alone))
        assert shared == own

    for _ in range(40):
        pool = [random_sentence_raw(rng, 4, 8, vocab) for _ in range(rng.randint(2, 6))]
        pool.append(rng.choice(pool).upper())
        versions = [
            doc([[rng.choice(pool) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(0, 4))], v)
            for v in range(1, rng.randint(3, 5))
        ]
        encoded = encode_versions(versions)
        assert [e.doc for e in encoded] == versions
        # every adjacent pair, and the first version against the last
        for ea, eb in [*zip(encoded, encoded[1:]), (encoded[0], encoded[-1])]:
            assert_matches_oracle(assembled_tensor(ea.doc, eb.doc, (ea, eb)), ea.doc, eb.doc)
        # one vocabulary for the group, skipped sentences included: a
        # lowercase token has one id in every version
        ids: dict[str, int] = {}
        for e in encoded:
            skipped = [s for p in e.doc.paragraphs for s in p.sentences if p.skipped or s.skipped]
            assert len(skipped) == len(e.others)
            for s, text in [*zip(e.sentences, e.rows.texts), *zip(skipped, e.others)]:
                assert len(text) == len(s.tokens)
                for token, i in zip(lower_tokens(s), text):
                    assert ids.setdefault(token, i) == i
        assert sorted(ids.values()) == list(range(len(ids)))
        # an equal raw text in two versions maps to one shared encoding
        first: dict[str, tuple[int, tuple[int, ...]]] = {}
        for e in encoded:
            for s, text in zip(e.sentences, e.rows.texts):
                v, seen = first.setdefault(s.raw, (e.doc.version_index, text))
                assert seen is text
                repeats += v != e.doc.version_index
    assert repeats > 0


@st.composite
def paragraph_pairs(draw):
    """Both sides' bounds, each paragraph's rows or none (a skipped one),
    with empty paragraphs, and any set of paragraph pairs between them."""

    def bounds(k):
        out, at = {}, 0
        for p in range(k):
            if draw(st.booleans()):
                n = draw(st.integers(0, 4))
                out[p], at = (at, at + n), at + n
        return out

    k, l = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    pairs = draw(st.frozensets(st.tuples(st.integers(0, k - 1), st.integers(0, l - 1)), max_size=12)) \
        if k and l else frozenset()
    return pairs, bounds(k), bounds(l)


@settings(max_examples=300, deadline=None)
@given(paragraph_pairs())
def test_cells_match_the_row_by_row_loop(case):
    """_cells lays the cells out with np.repeat; the loop over each
    source paragraph's rows that it replaced is the reference."""
    pairs, src_bounds, tgt_bounds = case
    rows, cols = [], []
    for i in sorted({i for i, _ in pairs}):
        targets = [c for j in sorted(j for p, j in pairs if p == i) for c in range(*tgt_bounds.get(j, (0, 0)))]
        for r in range(*src_bounds.get(i, (0, 0))):
            rows += [r] * len(targets)
            cols += targets
    got_rows, got_cols = para_align._cells(pairs, src_bounds, tgt_bounds)
    assert got_rows.dtype == got_cols.dtype == np.int64
    assert got_rows.tolist() == rows and got_cols.tolist() == cols


def test_encoder_numbers_new_tokens_in_order_of_first_occurrence():
    # skipped sentences are numbered too, in place: one of three tokens,
    # and the sentences of paragraphs below ten tokens
    words = ("Zeta", "alpha", "mu", "beta", "omega", "gamma", "delta", "kappa", "zeta", "ALPHA", "lambda")
    first = doc([[" ".join(words), "Rho mu SIGMA"], ["tau rho phi chi"]], 1)
    second = doc([["Upsilon tau"], ["nu mu Nu beta", " ".join(words[:6])]], 2)
    assert [[s.skipped for s in p.sentences] for p in first.paragraphs] == [[False, True], [False]]
    assert [p.skipped for p in first.paragraphs + second.paragraphs] == [False, True, True, False]
    a, b = encode_versions((first, second))
    assert a.rows.texts == [(0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 8)]
    assert a.others == [(9, 2, 10), (11, 9, 12, 13)]
    assert a.bounds == {0: (0, 1)}
    assert b.others == [(14, 11)]
    assert b.rows.texts == [(15, 2, 15, 3), (0, 1, 2, 3, 4, 5)]
    assert b.bounds == {1: (0, 2)}


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
        t = assembled_tensor(a, b)
        rows = [_para_sent_sets(p) for p in a.alignable_paragraphs()]
        cols = [_para_sent_sets(p) for p in b.alignable_paragraphs()]
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                block = np.array([[_jac(x, y) for y in c] for x in r])
                assert t.sim1[i, j] == block.max(axis=1).mean()
                assert t.sim2[i, j] == block.max(axis=0).mean()


# ---------------------------------------------------------------------------
# the tensor streamed through blocks of source paragraphs against the whole matrix

def whole_matrix_route(a, b):
    """sim1, sim2, the Jaccard matrix and the encodings of a version pair,
    from the whole matrix at once: one reduceat per axis, then each
    paragraph pair's mean over a slice of the row or column maxima."""
    ea, eb = encode_versions((a, b))
    matrix = jaccard_matrix(ea.rows, eb.rows)
    src_bounds, tgt_bounds = list(ea.bounds.values()), list(eb.bounds.values())
    sim1 = np.zeros((len(src_bounds), len(tgt_bounds)))
    sim2 = np.zeros_like(sim1)
    if ea.rows.texts and eb.rows.texts:
        si = [i for i, (r0, r1) in enumerate(src_bounds) if r0 < r1]
        tj = [j for j, (c0, c1) in enumerate(tgt_bounds) if c0 < c1]
        rowmax = np.ascontiguousarray(np.maximum.reduceat(matrix, [tgt_bounds[j][0] for j in tj], axis=1).T)
        colmax = np.maximum.reduceat(matrix, [src_bounds[i][0] for i in si], axis=0)
        for i in si:
            sim1[i, tj] = rowmax[:, slice(*src_bounds[i])].mean(axis=1)
        for j in tj:
            sim2[si, j] = colmax[:, slice(*tgt_bounds[j])].mean(axis=1)
    return sim1, sim2, matrix, ea, eb


@st.composite
def streamed_pairs(draw):
    """Two versions with all-skipped paragraphs, paragraphs of up to 14
    sentences (np.mean sums pairwise from 8 terms on), empty versions and,
    at times, no id shared between the two sides."""
    words = VOCAB[:24]
    halves = (words[:12], words[12:]) if draw(st.booleans()) else (words, words)

    def version(v, vocab):
        pool = [" ".join(draw(st.lists(st.sampled_from(vocab), min_size=4, max_size=9))) for _ in range(4)]
        paragraphs = []
        for _ in range(draw(st.integers(0, 6))):
            if draw(st.integers(0, 5)) == 0:
                paragraphs.append([DIGITS] * draw(st.integers(1, 3)))  # every sentence skipped
                continue
            sentences = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 14)))]
            if draw(st.integers(0, 4)) == 0:
                sentences.insert(draw(st.integers(0, len(sentences))), DIGITS)
            paragraphs.append(sentences)
        return doc(paragraphs, v)

    return version(1, halves[0]), version(2, halves[1])


@settings(max_examples=150, deadline=None)
@given(streamed_pairs(), st.data())
def test_streamed_tensor_matches_the_whole_matrix(versions, data):
    a, b = versions
    sim1, sim2, matrix, ea, eb = whole_matrix_route(a, b)
    n, m = matrix.shape
    counts = [[len(set(x) & set(y)) for y in eb.rows.texts] for x in ea.rows.texts]
    sizes_a, sizes_b = [len(set(x)) for x in ea.rows.texts], [len(set(y)) for y in eb.rows.texts]
    small = all(len(_para_sent_sets(p)) < 8 for v in versions for p in v.alignable_paragraphs())
    # every paragraph a block of its own, blocks split between paragraphs, the default
    for budget in (1, data.draw(st.integers(1, max(1, n * m))), para_align._BLOCK_CELLS):
        calls = []

        def counted(rows_a, target, **outputs):
            out = jaccard_matrix(rows_a, target, **outputs)
            calls.append(out.shape)
            return out

        with mock.patch.object(para_align, "_BLOCK_CELLS", budget), \
                mock.patch.object(para_align, "jaccard_matrix", counted):
            t = assembled_tensor(a, b)
        assert np.array_equal(t.sim1, sim1) and np.array_equal(t.sim2, sim2)
        if small:
            want1, want2 = oracle_sim_tensor(a, b)
            assert np.array_equal(t.sim1, np.array(want1).reshape(t.k, t.l))
            assert np.array_equal(t.sim2, np.array(want2).reshape(t.k, t.l))
        assert t.src.rows.sizes.tolist() == sizes_a and t.tgt.rows.sizes.tolist() == sizes_b
        assert sum(r for r, _ in calls) == n and all(c == m for _, c in calls)
        if budget == 1:
            assert len(calls) == sum(r0 < r1 for r0, r1 in ea.bounds.values())
        if small:
            # the passes carry each column's argmax, ties to the lowest source, across blocks
            with mock.patch.object(para_align, "_BLOCK_CELLS", budget):
                assert aligned_paragraphs(a, b) == oracle_align_paragraphs(a, b, RunConfig())
        # every cell's jaccard score, from the looked-up shared ids, is the
        # matrix's and the brute-force count's, bit for bit
        every = product([p.index for p in a.alignable_paragraphs()], [p.index for p in b.alignable_paragraphs()])
        cells = CandidateCells(frozenset(every), (t.src, t.tgt), make_metric("jaccard"))
        forward, backward = cells.scores
        assert np.array_equal(forward, matrix[cells.rows, cells.cols]) and np.array_equal(backward, forward)
        for (s, u, score, _), r, c in zip(cell_list(cells), cells.rows.tolist(), cells.cols.tolist()):
            shared = counts[r][c]
            assert score == (shared / max(sizes_a[r] + sizes_b[c] - shared, 1) if sizes_a[r] or sizes_b[c] else 1.0)
            assert score == oracle_jaccard(s, u)


def test_sim_tensor_peak_memory_is_a_fraction_of_the_float_matrix():
    # about 1,500 alignable sentences a side, in paragraphs of 6 to 14
    rng = random.Random(43)
    vocab = VOCAB + [a + b for a in VOCAB for b in VOCAB[:20]]

    def version(v):
        return doc([[random_sentence_raw(rng, 8, 30, vocab) for _ in range(rng.randint(6, 14))]
                    for _ in range(150)], v)

    a, b = version(1), version(2)
    n, m = len(a.alignable_sentences()), len(b.alignable_sentences())
    assert min(n, m) > 1400
    tracemalloc.start()
    try:
        ea, eb = encode_versions((a, b))
        for _ in sim_rows(ea, eb):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float64 n x m matrix alone would be n * m * 8 bytes; the peak
    # holds the encodings, one block of scores and one block of rows
    assert peak < 0.2 * n * m * 8, (peak, n * m * 8)


def test_align_paragraphs_peak_memory_is_a_fraction_of_one_paragraph_matrix():
    # 2,000 one-sentence paragraphs a side: one k x l float64 array is 32 MB
    rng = random.Random(47)
    vocab = VOCAB + [a + b for a in VOCAB for b in VOCAB[:20]]
    paragraphs = [[random_sentence_raw(rng, 10, 16, vocab)] for _ in range(2000)]
    a, b = doc(paragraphs, 1), doc(paragraphs, 2)
    k, l = len(a.alignable_paragraphs()), len(b.alignable_paragraphs())
    assert k == l == 2000
    tracemalloc.start()
    try:
        paras = aligned_paragraphs(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paras == {(i, i) for i in range(k)}
    # the passes keep one block of rows and arrays over the targets
    assert peak < 0.5 * k * l * 8, (peak, k * l * 8)


def test_best_peak_memory_is_bounded_per_candidate_cell():
    # one paragraph of 400 sentences a side: 160,000 candidate cells
    rng = random.Random(53)
    vocab = VOCAB + [a + b for a in VOCAB for b in VOCAB[:20]]
    a, b = (doc([[random_sentence_raw(rng, 8, 20, vocab) for _ in range(400)]], v) for v in (1, 2))
    cells = CandidateCells(frozenset({(0, 0)}), tuple(encode_versions((a, b))), make_metric("jaccard"))
    n = len(cells.rows)
    assert n == len(cells.src.sentences) * len(cells.tgt.sentences) > 100_000
    cells.scores  # scored before the peak is read
    for version, side in ((1, cells.src), (2, cells.tgt)):
        tracemalloc.start()
        try:
            picked = cells.best(version)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [s for s, *_ in picked] == side.sentences
        # three 8-byte values per cell; the rows, columns and scores
        # themselves are not copied
        assert peak < 24 * n, (version, peak, 24 * n)
