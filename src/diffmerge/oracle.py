"""The exact LCS edit-distance oracle that --verify and the tests check
minimal diffs against.

Guards raise instead of approximating, because an oracle that silently
truncates is worse than none.
"""

from __future__ import annotations


class SizeGuard(Exception):
    """Input too large for an exact brute-force computation."""


_LCS_LIMIT = 100_000


def lcs_length(a: list[int], b: list[int]) -> int:
    """Exact longest-common-subsequence length, by the bit-vector recurrence
    of Allison & Dix (1986) in the form Hyyrö (2004) gives.

    After the first j lines of b, bit i of ``v`` is 0 exactly when
    LCS(a[:i+1], b[:j]) exceeds LCS(a[:i], b[:j]), so the LCS length is the
    count of 0 bits.  Each line of b costs a few big-int operations on
    len(a)-bit numbers, O(N*M/w) word operations in all.
    """
    if len(a) > _LCS_LIMIT or len(b) > _LCS_LIMIT:
        raise SizeGuard(f"inputs of {len(a)}x{len(b)} exceed the {_LCS_LIMIT} guard")
    masks: dict[int, int] = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def min_edit_distance(a: list[int], b: list[int]) -> int:
    """Minimal changed-line count: (N - |LCS|) + (M - |LCS|)."""
    lcs = lcs_length(a, b)
    return (len(a) - lcs) + (len(b) - lcs)
