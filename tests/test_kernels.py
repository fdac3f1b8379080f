import random
import tracemalloc

import numpy as np

from revkit.kernels import _DENSE_SHARE, jaccard_matrix


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
    assert np.array_equal(jaccard_matrix(rows_a, rows_b), brute_force(sets_a, sets_b))


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
    got = jaccard_matrix([[0, 7, 99]], [[0], [3, 7]])
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
        got = jaccard_matrix([rows[k] for k in pick_a], [rows[k] for k in pick_b])
        assert np.array_equal(got, brute_force([pool[k] for k in pick_a], [pool[k] for k in pick_b]))


def test_id_order_within_a_row_does_not_matter():
    rng = random.Random(17)
    rows_a, rows_b = encode(random_sets(rng, 9), random_sets(rng, 7))
    shuffled = [rng.sample(r, len(r)) for r in rows_a]
    assert np.array_equal(jaccard_matrix(shuffled, rows_b), jaccard_matrix(rows_a, rows_b))


def test_empty_inputs():
    assert jaccard_matrix([], []).shape == (0, 0)
    assert jaccard_matrix([[0]], []).shape == (1, 0)
    assert jaccard_matrix([], [[0]]).shape == (0, 1)


def test_empty_vs_empty_scores_one():
    got = jaccard_matrix([[]], [[], [0]])
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
        assert jaccard_matrix(*encode(sets, [])).shape == (len(sets), 0)
        assert jaccard_matrix(*encode([], sets)).shape == (0, len(sets))
        assert_matches_brute_force(sets, [])
        assert_matches_brute_force([], sets)


def test_all_rows_empty():
    e = frozenset()
    assert_matches_brute_force([e] * 3, [e] * 5)
    assert np.array_equal(jaccard_matrix([[]] * 3, [[]] * 5), np.ones((3, 5)))


def test_peak_memory_stays_near_the_result():
    rng = random.Random(23)
    rows_a, rows_b = encode(random_sets(rng, 400, vocab_size=60, max_len=15),
                            random_sets(rng, 400, vocab_size=60, max_len=15))
    tracemalloc.start()
    try:
        out = jaccard_matrix(rows_a, rows_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes, (peak, out.nbytes)
