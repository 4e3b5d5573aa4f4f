"""Myers divide-and-conquer diff with the two cutoff heuristics.

The ``myers`` option runs the bidirectional shortest-edit-script search and
may pivot early on a long diagonal run (snake) or on the furthest frontier
point once a step budget is exhausted.  The ``minimal`` option disables both
cutoffs and also skips the frequent-line preprocessing step, which git's
``--minimal`` runs, so its output length always equals the true minimal edit
distance.  ``myers_flags`` is the one pipeline, git's ``xdl_do_diff`` on two
token lists; ``diff_myers`` and the histogram and patience fallbacks run it.
The cutoffs are git's fixed constants (``XDL_SNAKE_CNT`` and
``XDL_HEUR_MIN_COST`` in ``xdiff/xdiffi.c``); the snake cutoff fires only
under a step budget above HEUR_MIN_COST, which searches of 65,533 lines or
more together get.  A diagonal's first line is compared inline, and a snake
that starts there is walked by ``core.common_prefix`` (forward) or
``common_suffix`` (backward).  The frontiers are flat lists indexed by the
diagonal (see ``_SearchEnv``), and a sweep tests for a meet only on the
diagonals inside the other direction's band.  Outside the search, the passes
over every line run at C speed: the unmatched-line flags and the kept lines
the search sees are ``map``/``compress`` pipelines over a mask of kept lines,
with no list of their positions; the map-back visits only the kept lines the
search flags, and the frequent-line rule (git's ``xdl_cleanup_records``)
visits only the blocks of unmatched-or-frequent lines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, pairwise
from operator import not_

from .core import ChangedLines, DiffError, InternedSequence, common_prefix, common_suffix

SNAKE_CNT = 20  # a diagonal run longer than this is a snake
HEUR_MIN_COST = 256  # steps before the snake cutoff may fire, and the budget's floor
SIMSCAN_WINDOW = 100  # lines the frequent-line rule reads on each side of a line
MAX_EQLIMIT = 1024  # the most times a line need occur to be frequent


def bogosqrt(n: int) -> int:
    """git's ``xdl_bogosqrt``: 2 to the number of base-4 digits of n."""
    return 1 << (n.bit_length() + 1) // 2


def step_budget(n: int) -> int:
    """Steps the search of n kept lines takes before the budget cutoff fires.

    This is git's ``xdl_do_diff``: ``xdl_bogosqrt(n + 3)``, floored at
    HEUR_MIN_COST so that the cutoff stays inert on small files."""
    return max(bogosqrt(n + 3), HEUR_MIN_COST)


@dataclass
class PreprocessClassification:
    prefix_len: int
    suffix_len: int
    old_prechanged: list[bool]
    new_prechanged: list[bool]


def preprocess(a: list[int], b: list[int], *, minimal: bool) -> PreprocessClassification:
    """Strip common ends and pre-flag lines the search need not consider.

    Lines occurring in only one file can never match and are always flagged.
    In myers mode only, so are the frequent lines git discards (see
    ``_flag_frequent``); minimal mode skips them, unlike git's ``--minimal``,
    so that its diffs stay minimal.
    """
    n, m = len(a), len(b)
    prefix = common_prefix(a, 0, b, 0, min(n, m))
    suffix = common_suffix(a, n, b, m, min(n, m) - prefix)

    count_a = Counter(a)
    count_b = Counter(b)
    old_pre = [False] * n
    new_pre = [False] * m
    old_pre[prefix:n - suffix] = map(not_, map(count_b.__contains__, a[prefix:n - suffix]))
    new_pre[prefix:m - suffix] = map(not_, map(count_a.__contains__, b[prefix:m - suffix]))

    if not minimal:
        _flag_frequent(a, count_b, old_pre, prefix, n - suffix)
        _flag_frequent(b, count_a, new_pre, prefix, m - suffix)

    return PreprocessClassification(prefix, suffix, old_pre, new_pre)


def _flag_frequent(tokens: list[int], counts: Counter, pre: list[bool], lo: int, hi: int) -> None:
    """Flag the frequent lines of tokens[lo:hi] that git's ``xdl_cleanup_records`` discards.

    A line is frequent when ``counts``, the other file's, holds it at least
    bogosqrt(len(tokens)) times, capped at MAX_EQLIMIT.  One is flagged when
    the runs of unmatched-or-frequent lines either side of it, read for at
    most SIMSCAN_WINDOW lines each, both hold an unmatched line and
    3 * (frequent + 1) < unmatched over them and the line (``xdl_clean_mmatch``).
    Only the blocks of unmatched-or-frequent lines are walked, and a window's
    unmatched lines are counted by bisecting its block's list of them."""
    limit = min(bogosqrt(len(tokens)), MAX_EQLIMIT)
    frequent = {t for t, c in counts.items() if c >= limit}
    if not frequent:
        return
    w = SIMSCAN_WINDOW
    block: list[int] = []  # the unmatched lines of the current block
    start = lo  # the block's first line
    for i in chain(compress(range(lo, hi), pre[lo:hi]), (hi,)):
        if block:
            # the lines since the last unmatched one are matched; the block
            # goes on if all of them are frequent, and else ends at j - 1
            j = block[-1] + 1
            while j < i and tokens[j] in frequent:
                j += 1
            if j == i < hi:
                block.append(i)
                continue
            # a line with no unmatched one within the window on one side has
            # 101 frequent lines in it, too many to pass: git's check is implied
            for p, q in pairwise(block):
                for k in range(p + 1, q):
                    un = bisect_right(block, k + w) - bisect_left(block, k - w)
                    if 3 * (min(k + w + 1, j) - max(k - w, start) - un + 1) < un:
                        pre[k] = True
        # i opens a block, which takes in the frequent lines just above it
        start = i
        while start > lo and tokens[start - 1] in frequent:
            start -= 1
        block = [i]


@dataclass
class _SearchEnv:
    """One search's lines, cutoff settings and frontiers.

    ``kvdf``/``kvdb`` hold the furthest forward and backward line of ``ha1``
    reached on each diagonal d = i1 - i2, as git's ``xdl_do_diff`` does, in
    two lists of ``len(ha1) + len(ha2) + 3`` entries indexed by d itself.  A
    split reads and writes diagonals from -(m + 1) to n + 1 (n, m the lengths
    of ``ha1``, ``ha2``): a negative one wraps to the list's tail, where it
    never meets a non-negative one, so no offset is added.  No split reads a
    diagonal that an earlier split wrote, so one pair of lists serves all."""

    ha1: list[int]
    ha2: list[int]
    need_min: bool
    snake: int
    heur_min: int
    mxcost: int
    kvdf: list[int] = field(init=False)
    kvdb: list[int] = field(init=False)

    def __post_init__(self) -> None:
        size = len(self.ha1) + len(self.ha2) + 3
        self.kvdf = [0] * size
        self.kvdb = [0] * size


_BIG = 1 << 60


def _split(env: _SearchEnv, off1: int, lim1: int, off2: int, lim2: int, need_min: bool) -> tuple[int, int, bool, bool]:
    """Find a pivot on (or near) the shortest path; returns (i1, i2, min_lo, min_hi)."""
    ha1, ha2 = env.ha1, env.ha2
    kvdf, kvdb = env.kvdf, env.kvdb
    snake = env.snake
    dmin, dmax = off1 - lim2, lim1 - off2
    fmid, bmid = off1 - off2, lim1 - lim2
    odd = (fmid - bmid) & 1
    kvdf[fmid] = off1
    kvdb[bmid] = lim1
    fmin = fmax = fmid
    bmin = bmax = bmid

    ec = 1
    while True:
        got_snake = False

        if fmin > dmin:
            fmin -= 1
            kvdf[fmin - 1] = -1
        else:
            fmin += 1
        if fmax < dmax:
            fmax += 1
            kvdf[fmax + 1] = -1
        else:
            fmax -= 1
        # only the diagonals inside the backward band, which share the
        # sweep's parity when odd, can meet it: the sweep runs in up to three
        # stretches, and only the middle one tests for a meet
        top = bmax if bmax < fmax else fmax
        bottom = bmin if bmin > fmin else fmin
        if odd and bottom <= top:
            sweeps = ((fmax, top + 2, False), (top, bottom, True), (bottom - 2, fmin, False))
        else:
            sweeps = ((fmax, fmin, False),)
        # diagonals go d, d-2, ..., so kvdf[d-1] read at d is kvdf[d+1] at
        # the next one; the pass writes only diagonals of d's parity
        upper = kvdf[fmax + 1]
        for hi, lo, meet in sweeps:
            for d in range(hi, lo - 1, -2):
                lower = kvdf[d - 1]
                i1 = lower + 1 if lower >= upper else upper
                upper = lower
                i2 = i1 - d
                if i1 < lim1 and i2 < lim2 and ha1[i1] == ha2[i2]:
                    k = common_prefix(ha1, i1, ha2, i2, min(lim1 - i1, lim2 - i2))
                    if k > snake:
                        got_snake = True
                    i1 += k
                kvdf[d] = i1
                if meet and kvdb[d] <= i1:
                    return i1, i1 - d, True, True

        if bmin > dmin:
            bmin -= 1
            kvdb[bmin - 1] = _BIG
        else:
            bmin += 1
        if bmax < dmax:
            bmax += 1
            kvdb[bmax + 1] = _BIG
        else:
            bmax -= 1
        # likewise against the forward band, when not odd
        top = fmax if fmax < bmax else bmax
        bottom = fmin if fmin > bmin else bmin
        if not odd and bottom <= top:
            sweeps = ((bmax, top + 2, False), (top, bottom, True), (bottom - 2, bmin, False))
        else:
            sweeps = ((bmax, bmin, False),)
        upper = kvdb[bmax + 1]
        for hi, lo, meet in sweeps:
            for d in range(hi, lo - 1, -2):
                lower = kvdb[d - 1]
                i1 = lower if lower < upper else upper - 1
                upper = lower
                i2 = i1 - d
                if i1 > off1 and i2 > off2 and ha1[i1 - 1] == ha2[i2 - 1]:
                    k = common_suffix(ha1, i1, ha2, i2, min(i1 - off1, i2 - off2))
                    if k > snake:
                        got_snake = True
                    i1 -= k
                kvdb[d] = i1
                if meet and i1 <= kvdf[d]:
                    return i1, i1 - d, True, True

        if need_min:
            ec += 1
            continue

        # Snake cutoff: pivot on the best-scoring frontier point that ends a
        # long run of matching lines.  Score is total progress minus the
        # distance to the cross-file diagonal; ties go to the lower diagonal.
        if got_snake and ec > env.heur_min:
            best = 0
            spl: tuple[int, int] | None = None
            for d in range(fmin, fmax + 1, 2):
                dd = d - fmid if d > fmid else fmid - d
                i1 = kvdf[d]
                i2 = i1 - d
                v = (i1 - off1) + (i2 - off2) - dd
                if (
                    v > 4 * ec
                    and v > best
                    and off1 + snake <= i1 < lim1
                    and off2 + snake <= i2 < lim2
                ):
                    if ha1[i1 - snake:i1] == ha2[i2 - snake:i2]:
                        best = v
                        spl = (i1, i2)
            if spl is not None:
                return spl[0], spl[1], True, False

            best = 0
            spl = None
            for d in range(bmin, bmax + 1, 2):
                dd = d - bmid if d > bmid else bmid - d
                i1 = kvdb[d]
                i2 = i1 - d
                v = (lim1 - i1) + (lim2 - i2) - dd
                if (
                    v > 4 * ec
                    and v > best
                    and off1 < i1 <= lim1 - snake
                    and off2 < i2 <= lim2 - snake
                ):
                    if ha1[i1:i1 + snake] == ha2[i2:i2 + snake]:
                        best = v
                        spl = (i1, i2)
            if spl is not None:
                return spl[0], spl[1], False, True

        # Budget cutoff: give up and pivot on the point furthest from the
        # respective origin.
        if ec >= env.mxcost:
            fbest = -1
            fbest1 = -1
            for d in range(fmax, fmin - 1, -2):
                i1 = min(kvdf[d], lim1)
                i2 = i1 - d
                if lim2 < i2:
                    i1 = lim2 + d
                    i2 = lim2
                if fbest < i1 + i2:
                    fbest = i1 + i2
                    fbest1 = i1
            bbest = _BIG
            bbest1 = _BIG
            for d in range(bmax, bmin - 1, -2):
                i1 = max(off1, kvdb[d])
                i2 = i1 - d
                if i2 < off2:
                    i1 = off2 + d
                    i2 = off2
                if bbest > i1 + i2:
                    bbest = i1 + i2
                    bbest1 = i1
            if (lim1 + lim2) - bbest < fbest - (off1 + off2):
                return fbest1, fbest - fbest1, True, False
            return bbest1, bbest - bbest1, False, True

        ec += 1


def _recs_cmp(env: _SearchEnv) -> ChangedLines:
    ha1, ha2 = env.ha1, env.ha2
    rchg1 = [False] * len(ha1)
    rchg2 = [False] * len(ha2)
    stack = [(0, len(ha1), 0, len(ha2), env.need_min)]
    while stack:
        off1, lim1, off2, lim2, need_min = stack.pop()
        k = common_prefix(ha1, off1, ha2, off2, min(lim1 - off1, lim2 - off2))
        off1 += k
        off2 += k
        k = common_suffix(ha1, lim1, ha2, lim2, min(lim1 - off1, lim2 - off2))
        lim1 -= k
        lim2 -= k
        if off1 == lim1:
            rchg2[off2:lim2] = [True] * (lim2 - off2)
        elif off2 == lim2:
            rchg1[off1:lim1] = [True] * (lim1 - off1)
        else:
            i1, i2, min_lo, min_hi = _split(env, off1, lim1, off2, lim2, need_min)
            # a pivot outside the box, or at a corner of it, would leave a
            # child box no smaller than its parent, and the loop would not end
            if not (off1 <= i1 <= lim1 and off2 <= i2 <= lim2 and off1 + off2 < i1 + i2 < lim1 + lim2):
                raise DiffError(f"split of box ({off1}, {lim1}, {off2}, {lim2}) returned pivot ({i1}, {i2})")
            stack.append((i1, lim1, i2, lim2, min_hi))
            stack.append((off1, i1, off2, i2, min_lo))
    return ChangedLines(rchg1, rchg2)


def myers_flags(a: list[int], b: list[int], minimal: bool = False) -> ChangedLines:
    """git's ``xdl_do_diff`` on two token lists: ``preprocess``, search the
    kept lines, map the flags back.  Histogram's and patience's fallbacks run
    it on a sub-range, as git's ``xdl_fall_back_diff`` does."""
    cls = preprocess(a, b, minimal=minimal)
    lo = cls.prefix_len
    hi_a, hi_b = len(a) - cls.suffix_len, len(b) - cls.suffix_len
    of = cls.old_prechanged
    nf = cls.new_prechanged
    # the search sees only the kept lines: those between the common ends
    # that are not pre-flagged
    kept_a = list(map(not_, of[lo:hi_a]))
    kept_b = list(map(not_, nf[lo:hi_b]))
    ha1 = list(compress(islice(a, lo, hi_a), kept_a))
    ha2 = list(compress(islice(b, lo, hi_b), kept_b))
    budget = step_budget(len(ha1) + len(ha2))
    sub = _recs_cmp(_SearchEnv(ha1, ha2, minimal, SNAKE_CNT, HEUR_MIN_COST, budget))
    # a pre-flagged line stays flagged; a kept line takes the search's flag
    for i in compress(compress(range(lo, hi_a), kept_a), sub.old_flags):
        of[i] = True
    for j in compress(compress(range(lo, hi_b), kept_b), sub.new_flags):
        nf[j] = True
    return ChangedLines(of, nf)


def diff_myers(old: InternedSequence, new: InternedSequence, minimal: bool = False) -> ChangedLines:
    """The myers or minimal diff of two sequences."""
    return myers_flags(old.tokens, new.tokens, minimal)
