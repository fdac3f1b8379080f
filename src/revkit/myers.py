"""Greedy shortest-edit-script diff over token sequences.

The forward pass explores edit depths d = 0, 1, ... and records the
furthest x reached on each diagonal; backtracking through those
snapshots recovers a minimal script under unit insert/delete cost, so
the kept tokens always form a longest common subsequence.  The script
is reported as its changed regions: each region (a_start, a_end,
b_start, b_end) is a maximal run of deletions a[a_start:a_end] and
insertions b[b_start:b_end], and the tokens between regions are kept.
"""
from __future__ import annotations

from typing import Sequence

Region = tuple[int, int, int, int]


def myers_diff(a: Sequence, b: Sequence) -> list[Region]:
    """Changed regions of a minimal edit script between two sequences
    (equality via ==), in ascending order."""
    n, m = len(a), len(b)
    v = {1: 0}
    trace: list[dict[int, int]] = []
    for d in range(n + m + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, 0) < v.get(k + 1, 0)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                return _backtrack(trace, d, n, m)
    raise AssertionError("diff failed to terminate")  # pragma: no cover


def _backtrack(trace: list[dict[int, int]], d_final: int, n: int, m: int) -> list[Region]:
    # Walk from (n, m) back to (0, 0).  trace[d] holds the diagonal
    # frontier as it stood before depth d ran, i.e. the depth d-1 result,
    # which is exactly what the forward pass consulted when choosing the
    # move at depth d.  The region being built spans [x, a_end) of a and
    # [y, b_end) of b; a kept token closes it.
    regions: list[Region] = []
    x = a_end = n
    y = b_end = m
    for d in range(d_final, 0, -1):
        v = trace[d]
        k = x - y
        if k == -d or (k != d and v.get(k - 1, 0) < v.get(k + 1, 0)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = v.get(prev_k, 0)
        prev_y = prev_x - prev_k
        kept = min(x - prev_x, y - prev_y)
        if kept > 0:
            if x != a_end or y != b_end:
                regions.append((x, a_end, y, b_end))
            x = a_end = x - kept
            y = b_end = y - kept
        if prev_k == k + 1:
            y -= 1
        else:
            x -= 1
    if x != a_end or y != b_end:
        regions.append((x, a_end, y, b_end))
    # a[:x] and b[:y] remain, all kept, so x and y must be equal
    if x != y or x < 0:  # pragma: no cover - backtrack must land at origin
        raise AssertionError("diff backtrack did not reach the origin")
    regions.reverse()
    return regions
