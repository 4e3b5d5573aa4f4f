"""Patience diff: LCS over lines unique in both files, via patience sorting."""

from __future__ import annotations

from bisect import bisect_left

from .core import ChangedLines, InternedSequence, common_prefix, common_suffix
from .myers import myers_flags


def _unique_positions(tokens: list[int], lo: int, hi: int) -> dict[int, int]:
    """Each token of tokens[lo:hi] mapped to its position, or to -1 if it repeats."""
    pos: dict[int, int] = {}
    for i in range(lo, hi):
        tok = tokens[i]
        pos[tok] = -1 if tok in pos else i
    return pos


def find_matching_unique_lines(
    a: list[int], b: list[int], lo_a: int = 0, hi_a: int | None = None, lo_b: int = 0, hi_b: int | None = None
) -> list[tuple[int, int]]:
    """Pairs (posA, posB) of lines occurring exactly once in each of
    a[lo_a:hi_a] and b[lo_b:hi_b], by posA; positions index a and b."""
    pos_a = _unique_positions(a, lo_a, len(a) if hi_a is None else hi_a)
    pos_b = _unique_positions(b, lo_b, len(b) if hi_b is None else hi_b)
    # a dict keeps first-insertion order, and a unique line's first position
    # is its only one, so the matches come out ascending in posA
    return [(i, pos_b[tok]) for tok, i in pos_a.items() if i >= 0 and pos_b.get(tok, -1) >= 0]


def patience_lis(matches: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Longest strictly increasing (in posB) subsequence of (posA, posB)
    pairs via patience sorting.

    Each entry lands on the leftmost pile whose top is >= its posB and
    remembers the previous pile's top; the result is reconstructed from the
    last element of the last pile, so ties resolve to the latest chain.
    """
    top_pos_b: list[int] = []  # posB of each pile's top, ascending
    top: list[int] = []  # index into matches of each pile's top
    previous: list[int] = []  # per match, the index of its predecessor or -1
    for k, (_, pos_b) in enumerate(matches):
        pile = bisect_left(top_pos_b, pos_b)
        previous.append(top[pile - 1] if pile else -1)
        if pile < len(top):
            top_pos_b[pile] = pos_b
            top[pile] = k
        else:
            top_pos_b.append(pos_b)
            top.append(k)
    chain = []
    k = top[-1] if top else -1
    while k >= 0:
        chain.append(matches[k])
        k = previous[k]
    chain.reverse()
    return chain


def diff_patience(old: InternedSequence, new: InternedSequence) -> ChangedLines:
    a, b = old.tokens, new.tokens
    of = [False] * len(old)
    nf = [False] * len(new)
    work = [(0, len(a), 0, len(b))]
    while work:
        lo_a, hi_a, lo_b, hi_b = work.pop()
        # every line of a subproblem is still unflagged, so flags go in by slice
        if lo_a == hi_a:
            nf[lo_b:hi_b] = [True] * (hi_b - lo_b)
            continue
        if lo_b == hi_b:
            of[lo_a:hi_a] = [True] * (hi_a - lo_a)
            continue

        lcs = patience_lis(find_matching_unique_lines(a, b, lo_a, hi_a, lo_b, hi_b))
        if not lcs:
            sub = myers_flags(a[lo_a:hi_a], b[lo_b:hi_b])
            of[lo_a:hi_a] = sub.old_flags
            nf[lo_b:hi_b] = sub.new_flags
            continue

        # git's walk_common_sequence: each match grows back over equal lines,
        # and the line after the previous match grows forward, before the gap
        # between them is queued; the range's end grows nothing back
        lcs.append((hi_a, hi_b))
        prev_a, prev_b = lo_a, lo_b
        for pos_a, pos_b in lcs:
            if pos_a != prev_a or pos_b != prev_b:  # a match right after the previous one leaves no gap
                limit = min(pos_a - prev_a, pos_b - prev_b)
                back = common_suffix(a, pos_a, b, pos_b, limit) if pos_a < hi_a else 0
                ahead = common_prefix(a, prev_a, b, prev_b, limit - back)
                if prev_a + ahead < pos_a - back or prev_b + ahead < pos_b - back:
                    work.append((prev_a + ahead, pos_a - back, prev_b + ahead, pos_b - back))
            prev_a, prev_b = pos_a + 1, pos_b + 1
    return ChangedLines(of, nf)
