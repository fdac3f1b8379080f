import random

import numpy as np

from revkit.kernels import encode_sets, jaccard_matrix


def random_sets(rng, count, vocab_size=20, max_len=8):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        frozenset(rng.sample(vocab, rng.randint(0, max_len))) for _ in range(count)
    ]


def brute_force(sets_a, sets_b):
    out = np.zeros((len(sets_a), len(sets_b)))
    for i, a in enumerate(sets_a):
        for j, b in enumerate(sets_b):
            if not a and not b:
                out[i, j] = 1.0
            else:
                out[i, j] = len(a & b) / len(a | b)
    return out


def test_encode_sets_shares_vocab():
    vocab: dict[str, int] = {}
    ids, offs = encode_sets([frozenset({"b", "a"}), frozenset(), frozenset({"a"})], vocab)
    assert list(offs) == [0, 2, 2, 3]
    # within-set ids sorted
    assert list(ids[0:2]) == sorted(ids[0:2])
    assert ids[2] == vocab["a"]


def test_matrix_matches_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        sets_a = random_sets(rng, rng.randint(0, 13))
        sets_b = random_sets(rng, rng.randint(0, 9))
        assert np.array_equal(jaccard_matrix(sets_a, sets_b), brute_force(sets_a, sets_b))


def test_empty_inputs():
    assert jaccard_matrix([], []).shape == (0, 0)
    assert jaccard_matrix([frozenset({"a"})], []).shape == (1, 0)


def test_empty_vs_empty_scores_one():
    got = jaccard_matrix([frozenset()], [frozenset(), frozenset({"a"})])
    assert got[0, 0] == 1.0
    assert got[0, 1] == 0.0
