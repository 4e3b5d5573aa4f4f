"""Histogram diff: greedy recursion on common regions picked by occurrence count.

The split search is git's (``find_lcs`` and ``try_lcs`` in
``xdiff/xhistogram.c``).  It scans the new file left to right.  Every
occurrence of the current line in the old file seeds a candidate region that
is extended while lines pairwise match; the candidate replaces the current
best when it is strictly longer or its record count (its least occurrence
count inside old[lo1:hi1]) is lower than the lowest so far.  The lowest count
starts at 65, one over the 64-occurrence cap, and a seed occurring more often
than it is skipped.  If the ranges share a line but no region with a record
count of at most 64 is found, the subproblem falls back to the myers engine.

One occurrence index over the whole old file serves every subproblem of a
diff and is kept, never changed, on the old sequence for later diffs from it,
such as a merge's second base diff.  It maps a token seen once to its
position, a bare int read with one range test, and a repeated token to its
ascending positions, so it allocates no list for a line seen once.  A
repeated line's positions inside old[lo1:hi1] are bisected and copied only
for a seed no more frequent than the lowest count.  Runs are extended by
``core.common_prefix`` and ``common_suffix``, once per diff for each seed and
direction: a subproblem's box lies inside its parent's and sibling boxes are
disjoint, so a seed's limit only shrinks, and its remembered run clamped to
the current limit is exact.  A candidate's record count is taken only when it
can change the choice, one line at a time from counts cached for the call,
stopping at the first line that occurs once there.  A candidate that matches
neither new line beside its seed is that one line, with the seed's count, so
it is skipped once the lowest count is no higher.  One line against one is
settled by a compare, as the split search would: a region of itself or none.
The flags, regions (tuple records) and record counts equal those of the
per-subproblem rescan kept as the test reference ``histogram_reference``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .core import ChangedLines, InternedSequence, common_prefix, common_suffix
from .myers import myers_flags

MAX_OCCURRENCES = 64


class Region(NamedTuple):
    """A maximal run of pairwise-equal lines; bounds are inclusive."""

    begin1: int
    end1: int
    begin2: int
    end2: int
    record_count: int


class FallbackSignal(Exception):
    pass


def scan_a(tokens: list[int]) -> dict[int, int | list[int]]:
    """Map each token of the old file to its position if it occurs once, and
    to its ascending positions if it is repeated."""
    occ: dict[int, int | list[int]] = {}
    add = occ.setdefault
    for i, tok in enumerate(tokens):
        p = add(tok, i)
        if p is not i:  # setdefault returned an earlier entry: a repeated token
            if p.__class__ is int:
                occ[tok] = [p, i]
            else:
                p.append(i)
    return occ


def find_split(
    a: list[int],
    b: list[int],
    lo1: int,
    hi1: int,
    lo2: int,
    hi2: int,
    occ: dict[int, int | list[int]],
    runs: dict[int, int],
) -> Region | None:
    """Pick the split region for old[lo1:hi1] vs new[lo2:hi2]; ``occ`` is
    ``scan_a`` over the whole old file.

    ``runs`` maps a seed point and direction to the run measured there by an
    earlier call of the same diff.  Only one diff's nested subproblems may
    share it, and unlike ``occ`` it is not kept on the old sequence.

    Returns None when the ranges share no line; raises FallbackSignal when
    they do but no region has a record count of at most 64.
    """
    whole = lo1 == 0 and hi1 == len(a)
    counts: dict[int, int] = {}  # occurrences of a token inside old[lo1:hi1]
    lowest = MAX_OCCURRENCES + 1  # a seed occurring more often is skipped
    has_common = False
    best: tuple[int, int, int, int, int] | None = None
    best_len = -1
    stride = len(b) + 1  # a seed point's key; its backward run's is ~key

    b_ptr = lo2
    while b_ptr < hi2:
        b_next = b_ptr + 1
        positions = occ.get(b[b_ptr])
        if positions.__class__ is int:
            positions = (positions,) if lo1 <= positions < hi1 else None
        elif positions and not whole:
            lo, hi = bisect_left(positions, lo1), bisect_left(positions, hi1)
            # a seed over the lowest count keeps the whole list, longer
            # still, and is skipped below without a copy
            positions = positions[lo:hi] if hi - lo <= lowest else positions
        if positions:
            has_common = True
            if len(positions) <= lowest:
                region_end = lo1 - 1
                before = b[b_ptr - 1] if b_ptr > lo2 else None  # None equals no token
                after = b[b_ptr + 1] if b_ptr + 1 < hi2 else None
                for apos in positions:
                    if apos <= region_end:
                        continue
                    back = apos > lo1 and a[apos - 1] == before
                    ahead = apos + 1 < hi1 and a[apos + 1] == after
                    if not (back or ahead) and lowest <= len(positions):
                        continue  # a one-line candidate no rarer than the best
                    begin1, begin2 = apos, b_ptr
                    if back:
                        key = ~(apos * stride + b_ptr)
                        k = runs.get(key)
                        if k is None:
                            k = runs[key] = common_suffix(a, apos, b, b_ptr, min(apos - lo1, b_ptr - lo2))
                        else:
                            k = min(k, apos - lo1, b_ptr - lo2)
                        begin1 -= k
                        begin2 -= k
                    end1, end2 = apos, b_ptr
                    if ahead:
                        key = apos * stride + b_ptr
                        k = runs.get(key)
                        if k is None:
                            k = runs[key] = common_prefix(a, apos + 1, b, b_ptr + 1, min(hi1 - apos, hi2 - b_ptr) - 1)
                        else:
                            k = min(k, hi1 - apos - 1, hi2 - b_ptr - 1)
                        end1 += k
                        end2 += k
                    if b_next <= end2:
                        b_next = end2 + 1
                    longer = best is not None and best_len < end1 - begin1
                    # a record count is at least 1, so once the lowest is 1
                    # only a longer candidate can win
                    if longer or lowest > 1:
                        record_count = math.inf
                        for tok in a[begin1:end1 + 1]:
                            c = counts.get(tok)
                            if c is None:
                                p = occ[tok]
                                if p.__class__ is int:  # its one position is this line's
                                    record_count = 1
                                    break
                                c = counts[tok] = len(p) if whole else bisect_left(p, hi1) - bisect_left(p, lo1)
                            if c < record_count:
                                record_count = c
                                if c == 1:
                                    break
                        if longer or record_count < lowest:
                            best = (begin1, end1, begin2, end2, record_count)
                            best_len = end1 - begin1
                            lowest = record_count
                    region_end = end1
        b_ptr = b_next

    if best is None:
        if has_common:  # every common line occurs more than 64 times
            raise FallbackSignal
        return None
    return Region(*best)


def diff_histogram(old: InternedSequence, new: InternedSequence) -> ChangedLines:
    a, b = old.tokens, new.tokens
    of = bytearray(len(a))
    nf = bytearray(len(b))
    if old.occurrence_index is None:
        old.occurrence_index = scan_a(a)
    occ = old.occurrence_index
    runs: dict[int, int] = {}
    work = [(0, len(a), 0, len(b))]
    while work:
        lo1, hi1, lo2, hi2 = work.pop()
        if lo1 == hi1:
            nf[lo2:hi2] = b"\1" * (hi2 - lo2)
            continue
        if lo2 == hi2:
            of[lo1:hi1] = b"\1" * (hi1 - lo1)
            continue
        if hi1 - lo1 == 1 == hi2 - lo2:
            # find_split's answer for one line each: the line itself, or no region
            if a[lo1] != b[lo2]:
                of[lo1] = nf[lo2] = 1
            continue
        try:
            split = find_split(a, b, lo1, hi1, lo2, hi2, occ, runs)
        except FallbackSignal:
            sub = myers_flags(a[lo1:hi1], b[lo2:hi2])
            of[lo1:hi1] = sub.old_flags
            nf[lo2:hi2] = sub.new_flags
            continue
        if split is None:
            of[lo1:hi1] = b"\1" * (hi1 - lo1)
            nf[lo2:hi2] = b"\1" * (hi2 - lo2)
        else:
            work.append((lo1, split.begin1, lo2, split.begin2))
            work.append((split.end1 + 1, hi1, split.end2 + 1, hi2))
    return ChangedLines(of, nf)
