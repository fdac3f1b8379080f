import random

from revkit.myers import myers_diff

from helpers import diff_cost
from oracles import lcs_len


def check_regions(regions, a, b):
    """Regions ascend, are never empty, never touch, and the gaps between
    them are kept token for token; replaying them rebuilds b."""
    out = []
    pa = pb = 0
    for i, (a0, a1, b0, b1) in enumerate(regions):
        assert a0 <= a1 and b0 <= b1 and (a0 < a1 or b0 < b1)
        assert a0 - pa == b0 - pb >= 0
        # a region after the first keeps at least one token before it, so
        # no two regions touch and each is maximal
        assert i == 0 or a0 > pa
        assert list(a[pa:a0]) == list(b[pb:b0])
        out.extend(b[pb:b1])
        pa, pb = a1, b1
    assert len(a) - pa == len(b) - pb >= 0
    assert list(a[pa:]) == list(b[pb:])
    out.extend(b[pb:])
    assert out == list(b)


def test_equal_sequences_single_keep():
    assert myers_diff(["a", "b", "c"], ["a", "b", "c"]) == []


def test_empty_to_tokens_single_insert():
    got = myers_diff([], ["x", "y"])
    assert got == [(0, 0, 0, 2)]
    assert diff_cost(got) == 2


def test_tokens_to_empty_single_delete():
    got = myers_diff(["x", "y"], [])
    assert got == [(0, 2, 0, 0)]


def test_both_empty():
    assert myers_diff([], []) == []


def test_replacement_is_one_region():
    a = ["the", "old", "cat"]
    b = ["the", "new", "cat"]
    got = myers_diff(a, b)
    assert got == [(1, 2, 1, 2)]
    assert diff_cost(got) == 2


def test_cost_equals_dp_lcs():
    rng = random.Random(5)
    for _ in range(300):
        a = [rng.choice("xyz") for _ in range(rng.randint(0, 10))]
        b = [rng.choice("xyz") for _ in range(rng.randint(0, 10))]
        regions = myers_diff(a, b)
        check_regions(regions, a, b)
        assert diff_cost(regions) == len(a) + len(b) - 2 * lcs_len(a, b)

