import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revkit import kernels
from revkit.kernels import _DENSE_SHARE, Rows, bleu_cells, char3gram_cells, jaccard_cells, jaccard_matrix, tfidf_cosines
from revkit.similarity import METRIC_NAMES

from helpers import candidates, cell_scores, doc, encoded_pair, sent
from oracles import VOCAB, oracle_bleu, oracle_char_trigram, random_sentence_raw


def random_sets(rng, count, vocab_size=20, max_len=8):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        frozenset(rng.sample(vocab, rng.randint(0, max_len))) for _ in range(count)
    ]


def encode(*sides):
    """Each side's sets as id lists over one vocabulary, in set order."""
    vocab: dict[str, int] = {}
    return [[[vocab.setdefault(w, len(vocab)) for w in s] for s in sets] for sets in sides]


def brute_force(sets_a, sets_b):
    out = np.zeros((len(sets_a), len(sets_b)))
    for i, a in enumerate(sets_a):
        for j, b in enumerate(sets_b):
            if not a and not b:
                out[i, j] = 1.0
            else:
                out[i, j] = len(a & b) / len(a | b)
    return out


def assert_matches_brute_force(sets_a, sets_b, target_first=False):
    if target_first:
        rows_b, rows_a = encode(sets_b, sets_a)
    else:
        rows_a, rows_b = encode(sets_a, sets_b)
    assert np.array_equal(jaccard_matrix(Rows(rows_a), Rows(rows_b)), brute_force(sets_a, sets_b))


def test_matrix_matches_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        assert_matches_brute_force(random_sets(rng, rng.randint(0, 13)), random_sets(rng, rng.randint(0, 9)))


def test_source_ids_missing_from_target():
    rng = random.Random(11)
    for _ in range(20):
        sets_a = random_sets(rng, rng.randint(1, 9), vocab_size=40)
        sets_b = random_sets(rng, rng.randint(1, 9), vocab_size=10)
        # source first: source-only ids fall below and between target ids;
        # target first: they all lie above every target id
        assert_matches_brute_force(sets_a, sets_b)
        assert_matches_brute_force(sets_a, sets_b, target_first=True)
    got = jaccard_matrix(Rows([[0, 7, 99]]), Rows([[0], [3, 7]]))
    assert np.array_equal(got, [[1 / 3, 1 / 4]])


def test_empty_rows():
    e, a, ab = frozenset(), frozenset({"a"}), frozenset({"a", "b"})
    assert_matches_brute_force([e, a, e], [ab, e, a])
    assert_matches_brute_force([e, e], [e])
    assert_matches_brute_force([a, ab], [e, e])


def test_repeated_rows():
    rng = random.Random(13)
    for _ in range(20):
        pool = random_sets(rng, 4)
        (rows,) = encode(pool)
        # a text that repeats, within a side or across both, is the same list
        pick_a = [rng.randrange(4) for _ in range(rng.randint(1, 9))]
        pick_b = [rng.randrange(4) for _ in range(rng.randint(1, 9))]
        got = jaccard_matrix(Rows([rows[k] for k in pick_a]), Rows([rows[k] for k in pick_b]))
        assert np.array_equal(got, brute_force([pool[k] for k in pick_a], [pool[k] for k in pick_b]))


def test_id_order_within_a_row_does_not_matter():
    rng = random.Random(17)
    rows_a, rows_b = encode(random_sets(rng, 9), random_sets(rng, 7))
    shuffled = [rng.sample(r, len(r)) for r in rows_a]
    assert np.array_equal(jaccard_matrix(Rows(shuffled), Rows(rows_b)), jaccard_matrix(Rows(rows_a), Rows(rows_b)))


def test_repeated_ids_within_a_row_count_once():
    # rows are token sequences: a repeated token is one member of the set
    rng = random.Random(19)
    for _ in range(20):
        rows_a, rows_b = encode(random_sets(rng, 9), random_sets(rng, 7))
        repeated = [r + rng.choices(r, k=rng.randint(0, 4)) if r else r for r in rows_a]
        repeated = [rng.sample(r, len(r)) for r in repeated]
        assert np.array_equal(jaccard_matrix(Rows(repeated), Rows(rows_b)), jaccard_matrix(Rows(rows_a), Rows(rows_b)))
        assert np.array_equal(jaccard_matrix(Rows(rows_b), Rows(repeated)), jaccard_matrix(Rows(rows_b), Rows(rows_a)))


def test_empty_inputs():
    assert jaccard_matrix(Rows([]), Rows([])).shape == (0, 0)
    assert jaccard_matrix(Rows([[0]]), Rows([])).shape == (1, 0)
    assert jaccard_matrix(Rows([]), Rows([[0]])).shape == (0, 1)


def test_empty_vs_empty_scores_one():
    got = jaccard_matrix(Rows([[]]), Rows([[], [0]]))
    assert got[0, 0] == 1.0
    assert got[0, 1] == 0.0


# Which tokens the kernel counts by the dense product and which by postings
# depends on how many target rows hold them: the cases below pin each regime.

def frequent_tokens(sets_b) -> tuple[set, set]:
    """The target tokens the dense product counts, and the others."""
    held = {}
    for b in sets_b:
        for w in b:
            held[w] = held.get(w, 0) + 1
    dense = {w for w, c in held.items() if c * _DENSE_SHARE >= len(sets_b)}
    return dense, set(held) - dense


def sets_over(rng, count, vocab, lo, hi):
    return [frozenset(rng.sample(vocab, rng.randint(lo, hi))) for _ in range(count)]


def with_empty_rows(rng, sets):
    out = list(sets)
    for _ in range(rng.randint(1, 3)):
        out.insert(rng.randint(0, len(out)), frozenset())
    return out


def test_every_token_frequent():
    rng = random.Random(29)
    vocab = [f"w{i}" for i in range(6)]
    for _ in range(20):
        sets_a = with_empty_rows(rng, sets_over(rng, rng.randint(1, 30), vocab, 1, 6))
        sets_b = with_empty_rows(rng, sets_over(rng, rng.randint(1, 30), vocab, 3, 6))
        sets_a.append(frozenset({"only-in-source", "w0"}))
        dense, sparse = frequent_tokens(sets_b)
        assert dense and not sparse
        assert_matches_brute_force(sets_a, sets_b)
        assert_matches_brute_force(sets_a, sets_b, target_first=True)


def test_no_token_frequent():
    rng = random.Random(31)
    for _ in range(20):
        m = rng.randint(4 * _DENSE_SHARE, 80)
        # each token held by fewer than m / _DENSE_SHARE target rows
        per_token = (m - 1) // _DENSE_SHARE
        sets_b = [frozenset({f"t{j // per_token}", f"u{j % (m // per_token)}-{j // per_token}"})
                  for j in range(m)]
        sets_b = with_empty_rows(rng, sets_b)
        pool = sorted(set().union(*sets_b)) + [f"s{i}" for i in range(10)]
        sets_a = with_empty_rows(rng, sets_over(rng, rng.randint(1, 40), pool, 0, 8))
        dense, sparse = frequent_tokens(sets_b)
        assert sparse and not dense
        assert_matches_brute_force(sets_a, sets_b)
        assert_matches_brute_force(sets_a, sets_b, target_first=True)


def test_frequent_and_rare_tokens_mixed():
    rng = random.Random(37)
    common = ["the", "of", ".", ","]
    rare = [f"r{i}" for i in range(300)]
    for _ in range(20):
        def side(count):
            return [frozenset(rng.sample(common, rng.randint(0, 4)) + rng.sample(rare, rng.randint(0, 10)))
                    for _ in range(count)]
        sets_a = with_empty_rows(rng, side(rng.randint(1, 120)))
        sets_b = with_empty_rows(rng, side(rng.randint(2 * _DENSE_SHARE, 120)))
        dense, sparse = frequent_tokens(sets_b)
        assert dense and sparse
        assert_matches_brute_force(sets_a, sets_b)
        # source-only tokens above every target id
        assert_matches_brute_force(sets_a + [frozenset({"src-only", "the"})], sets_b, target_first=True)


def test_zero_rows_on_either_side():
    e, a = frozenset(), frozenset({"a", "b"})
    for sets in ([], [e], [a, e], [a] * 20):
        assert jaccard_matrix(*map(Rows, encode(sets, []))).shape == (len(sets), 0)
        assert jaccard_matrix(*map(Rows, encode([], sets))).shape == (0, len(sets))
        assert_matches_brute_force(sets, [])
        assert_matches_brute_force([], sets)


def test_all_rows_empty():
    e = frozenset()
    assert_matches_brute_force([e] * 3, [e] * 5)
    assert np.array_equal(jaccard_matrix(Rows([[]] * 3), Rows([[]] * 5)), np.ones((3, 5)))


def test_peak_memory_stays_near_the_result():
    rng = random.Random(23)
    rows_a, rows_b = map(Rows, encode(random_sets(rng, 400, vocab_size=60, max_len=15),
                                      random_sets(rng, 400, vocab_size=60, max_len=15)))
    tracemalloc.start()
    try:
        out = jaccard_matrix(rows_a, rows_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes, (peak, out.nbytes)


# ---------------------------------------------------------------------------
# tf-idf cosines of candidate cells

def test_bincount_adds_weights_in_input_order():
    """tfidf_cosines sums each cell's products with np.bincount, which must
    add them left to right in input order, as the scalar cosine did."""
    weights = [0.1, 0.2, 0.3]
    for order in (weights, weights[::-1]):
        acc = 0.0
        for w in order:
            acc += w
        assert np.bincount([0, 0, 0], weights=order)[0] == acc
    # the case is one where the order changes the bits
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    rng = random.Random(3)
    for _ in range(50):
        bins = [rng.randrange(4) for _ in range(40)]
        values = [rng.random() * 10 ** rng.randint(-3, 3) for _ in bins]
        want = [0.0] * 4
        for b, v in zip(bins, values):
            want[b] += v
        assert np.bincount(bins, weights=values, minlength=4).tolist() == want


def test_tfidf_cosines_block_size_changes_no_bit(monkeypatch):
    rng = random.Random(23)
    vocab_size = 30
    texts_a = [rng.choices(range(vocab_size), k=rng.randint(1, 12)) for _ in range(20)]
    texts_b = [rng.choices(range(vocab_size), k=rng.randint(1, 12)) for _ in range(15)]
    others = [set(rng.choices(range(vocab_size), k=5)) for _ in range(6)]
    cells = [(r, c) for r in range(20) for c in range(15) if rng.random() < 0.5]
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    want = tfidf_cosines(Rows(texts_a), Rows(texts_b), rows, cols, Rows(others))
    assert not np.array_equal(*want)  # some cell's directions differ in the last place
    for block in (1, 5, 64):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block)
        got = tfidf_cosines(Rows(texts_a), Rows(texts_b), rows, cols, Rows(others))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# the shared ids of candidate cells, found through a table of a window of
# source rows, in blocks

@st.composite
def cell_lookups(draw):
    """Two sides of texts over ids 0-11, where ids 0-3 occur only in a and
    8-11 only in b at times, with empty texts and repeated ids; cells sorted
    by source row, in any target order within a row, repeats allowed; an
    entry budget of 1 (one cell a block), a few entries, or the default;
    and a table budget of one slot (one source row a window), one to a few
    rows' worth, or the default.

    The cells come sorted by source row because the lookup requires it:
    each window of source rows is laid into the table once."""
    only = draw(st.booleans())
    ids_a, ids_b = (range(0, 8), range(4, 12)) if only else (range(12), range(12))

    def texts(ids):
        return draw(st.lists(st.lists(st.sampled_from(ids), max_size=7), max_size=6))

    a, b = texts(ids_a), texts(ids_b)
    cells = draw(st.lists(st.tuples(st.integers(0, len(a) - 1), st.integers(0, len(b) - 1)), max_size=30)) \
        if a and b else []
    cells.sort(key=lambda cell: cell[0])
    entries = draw(st.sampled_from([1, 2, 7, kernels._BLOCK_ENTRIES]))
    return a, b, cells, entries, draw(st.sampled_from([1, 12, 30, 50, kernels._TABLE_ENTRIES]))


@settings(max_examples=300, deadline=None)
@given(cell_lookups())
def test_shared_ids_match_brute_force(case):
    texts_a, texts_b, cells, budget, table = case
    a, b = Rows(texts_a), Rows(texts_b)
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    want = [sorted(set(texts_a[r]) & set(texts_b[c])) for r, c in cells]
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget), mock.patch.object(kernels, "_TABLE_ENTRIES", table):
        blocks = list(kernels._shared_ids(rows, cols, a, b))
        scores = jaccard_cells(a, b, rows, cols)
    # a window holds table // size source rows, at least one
    size = 1 + max((i for t in texts_a + texts_b for i in t), default=0)
    span = max(1, min(table // size, len(texts_a)))
    entries = np.concatenate([[0], np.cumsum(b.sizes[cols])])
    got = [[] for _ in cells]
    k, r0 = 0, None
    for k0, k1, cell, at, pos in blocks:
        assert k0 == k < k1 <= len(cells)  # blocks are consecutive and never empty
        if r0 is None or rows[k0] >= r0 + span:
            r0 = rows[k0]  # a window starts at the first cell past the last one
        assert rows[k1 - 1] < r0 + span  # a block lies in one window
        # a block is one cell, or as many as the budget holds, and ends at
        # the budget, at the window's end or at the last cell
        assert k1 == k0 + 1 or entries[k1] - entries[k0] <= budget
        assert k1 == len(cells) or rows[k1] >= r0 + span or entries[k1 + 1] - entries[k0] > budget
        k = k1
        assert np.all(np.diff(cell) >= 0) and np.all((0 <= cell) & (cell < k1 - k0))
        for j, i, p in zip((cell + k0).tolist(), at.tolist(), pos.tolist()):
            # each entry lies in its cell's rows, and both hold the same id
            assert a.starts[rows[j]] <= i < a.starts[rows[j] + 1] and b.starts[cols[j]] <= p < b.starts[cols[j] + 1]
            assert a.ids[i] == b.ids[p]
            got[j].append(int(a.ids[i]))
    assert k == len(cells)
    assert got == want
    for (r, c), shared, score in zip(cells, want, scores.tolist()):
        x, y = set(texts_a[r]), set(texts_b[c])
        assert score == (len(shared) / len(x | y) if x or y else 1.0)


def test_shared_ids_reject_cells_out_of_source_order():
    a, b = Rows([[0, 1], [1, 2]]), Rows([[1], [2]])
    rows, cols = np.array([1, 0]), np.array([0, 0])
    with pytest.raises(ValueError, match="sorted by source row"):
        list(kernels._shared_ids(rows, cols, a, b))
    with pytest.raises(ValueError, match="sorted by source row"):
        jaccard_cells(a, b, rows, cols)


@pytest.mark.parametrize("metric", METRIC_NAMES)
@pytest.mark.parametrize("window", [1, 2, 3])
def test_candidate_scores_do_not_depend_on_the_lookup_windows(monkeypatch, metric, window):
    """Windows of one, two or three source rows split the six-sentence
    paragraphs of every paragraph pair, and change no bit of any score."""
    rng = random.Random(31)
    src, tgt = (
        doc([[random_sentence_raw(rng, 4, 10, VOCAB) for _ in range(6)] for _ in range(4)], v)
        for v in (1, 2)
    )
    want = cell_scores(metric, src, tgt)
    cells = candidates(src, tgt, "jaccard", "all")
    size = 1 + int(max(cells.src.rows.ids.max(), cells.tgt.rows.ids.max()))
    if metric == "char3gram":  # its ids number the distinct trigrams
        lowered = [s.raw.lower() for s in cells.src.sentences + cells.tgt.sentences]
        size = len({t[i:i + 3] for t in lowered for i in range(len(t) - 2)})
    monkeypatch.setattr(kernels, "_TABLE_ENTRIES", window * size)
    assert cell_scores(metric, src, tgt) == want


# ---------------------------------------------------------------------------
# id values reach no score, so numbering more tokens of a group, or in
# another order, changes no bit

@pytest.mark.parametrize("seed", range(10))
def test_scores_do_not_depend_on_id_values(seed):
    """Every id relabelled through a random injective map into [0, 4V),
    V being the number of ids, gives every kernel's output bit for bit:
    the Jaccard matrix, the cells' Jaccard scores and both directions of
    their tf-idf cosines, with other documents in the idf."""
    rng = random.Random(seed)
    v = rng.randint(4, 40)

    def texts(count):
        # a small vocabulary puts some ids past the frequent share; repeats weigh ids unequally
        return [rng.choices(range(v), k=rng.randint(0, 14)) for _ in range(count)]

    sides = texts(rng.randint(1, 25)), texts(rng.randint(1, 25)), texts(rng.randint(0, 8))
    cells = [(r, c) for r in range(len(sides[0])) for c in range(len(sides[1])) if rng.random() < 0.4]
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)

    def scores(label):
        a, b, others = (Rows([[label[i] for i in t] for t in side]) for side in sides)
        return (jaccard_matrix(a, b), jaccard_cells(a, b, rows, cols), *tfidf_cosines(a, b, rows, cols, others))

    want = scores(range(v))
    relabel = rng.sample(range(4 * v), v)
    assert relabel != list(range(v))
    got = scores(relabel)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# char3gram and bleu of candidate cells, against the scalar oracles

# texts with repeated n-grams, case variants, texts under three characters,
# texts whose lowercase form is longer (U+0130) or that fold otherwise
# (sharp s), and any characters
_words = st.sampled_from(["the", "cat", "sat", "The", "CAT", "a", "ab", "\u0130", "\xdf", "SS", "ss", ","])
_cell_texts = st.lists(_words, max_size=9).map(" ".join) | st.text(max_size=6)


@st.composite
def cell_metric_cases(draw):
    """Two sides of texts, cells sorted by source row with repeats allowed,
    and lookup budgets from one entry a block and one row a window up."""
    a, b = (draw(st.lists(_cell_texts, min_size=1, max_size=6)) for _ in range(2))
    cells = draw(st.lists(st.tuples(st.integers(0, len(a) - 1), st.integers(0, len(b) - 1)), max_size=20))
    cells.sort(key=lambda cell: cell[0])
    return a, b, cells, draw(st.sampled_from([1, 5, kernels._BLOCK_ENTRIES])), draw(st.sampled_from([1, 40, kernels._TABLE_ENTRIES]))


@settings(max_examples=500, deadline=None)
@given(cell_metric_cases())
def test_char3gram_and_bleu_cells_match_the_oracles(case):
    """Every cell's char3gram and bleu score, both directions, is the
    scalar oracle's bit for bit, whatever the blocks and windows of the
    shared-id lookup."""
    texts_a, texts_b, cells, entries, table = case
    xs = [sent(raw, 1, 0, i) for i, raw in enumerate(texts_a)]
    ys = [sent(raw, 2, 0, i) for i, raw in enumerate(texts_b)]
    a, b = encoded_pair(xs, ys)
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", entries), mock.patch.object(kernels, "_TABLE_ENTRIES", table):
        char_ab, char_ba = char3gram_cells(texts_a, texts_b, rows, cols)
        bleu = bleu_cells(a.rows, b.rows, rows, cols)
    for k, (r, c) in enumerate(cells):
        x, y = xs[r], ys[c]
        assert char_ab[k] == oracle_char_trigram(x, y) and char_ba[k] == oracle_char_trigram(y, x)
        assert bleu[k] == oracle_bleu(x, y) == oracle_bleu(y, x)
