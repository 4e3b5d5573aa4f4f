import inspect
import random
import sys
from collections import Counter

import pytest

from diffmerge import myers, oracle
from diffmerge.core import DiffError, InternTable
from diffmerge.engine import diff_lines
from diffmerge.myers import (
    HEUR_MIN_COST,
    SNAKE_CNT,
    _SearchEnv,
    _flag_frequent,
    _recs_cmp,
    bogosqrt,
    diff_myers,
    myers_flags,
    preprocess,
    step_budget,
)

import reference
from conftest import edited_source, lines_executed, random_file, source_lines
from make_git_fixtures import witness_inputs


def test_bogosqrt_values():
    assert bogosqrt(0) == 1
    assert bogosqrt(1) == 2
    assert bogosqrt(100) == 16
    # 256 has one base-4 digit more than 255, so bogosqrt doubles there, to
    # twice the square root
    assert bogosqrt(256) == 32
    for n in range(5000):
        assert bogosqrt(n) == reference.xdl_bogosqrt_reference(n), n


def test_step_budget_never_below_min_steps():
    assert step_budget(10) == 256
    assert step_budget(100_000) == 512


@pytest.mark.parametrize("j", [8, 9, 10])
def test_step_budget_doubles_where_git_does(j):
    # xdl_do_diff's budget, xdl_bogosqrt(n + 3), doubles at n = 4**j - 3
    edge = 4**j - 3
    assert step_budget(edge - 1) == 2**j
    assert [step_budget(n) for n in range(edge, 4**j + 2)] == [2 ** (j + 1)] * 5
    for n in range(edge - 50, edge + 50):
        assert step_budget(n) == max(reference.xdl_bogosqrt_reference(n + 3), HEUR_MIN_COST), n


def test_preprocess_identical_files_strip_everything(intern_pair):
    old, new = intern_pair(b"a\nb\n", b"a\nb\n")
    cls = preprocess(old.tokens, new.tokens, minimal=True)
    assert cls.prefix_len == 2
    assert cls.suffix_len == 0
    assert not any(cls.old_prechanged) and not any(cls.new_prechanged)


def test_preprocess_strips_ends_and_flags_unmatched(intern_pair):
    old, new = intern_pair(b"x\na\nz\n", b"x\nb\nz\n")
    cls = preprocess(old.tokens, new.tokens, minimal=True)
    assert cls.prefix_len == 1
    assert cls.suffix_len == 1
    assert cls.old_prechanged == [False, True, False]
    assert cls.new_prechanged == [False, True, False]


def _frequent_line_family():
    """Old and new disagree in a block that contains one frequent shared line.

    The ``*/``-style line occurs often enough in both files to count as
    frequent; in myers mode it gets dragged into the changed block, in
    minimal mode it survives as common context.
    """
    star = b"*/\n"
    old = b"".join(b"old%d\n" % i for i in range(5)) + star
    old += b"".join(b"old%d\n" % i for i in range(5, 10)) + star * 9
    new = b"".join(b"new%d\n" % i for i in range(5)) + star
    new += b"".join(b"new%d\n" % i for i in range(5, 10)) + star * 9
    return old, new


def test_frequent_line_marked_in_myers_mode_only(intern_pair):
    old, new = intern_pair(*_frequent_line_family())
    minimal = diff_myers(old, new, minimal=True)
    myers = diff_myers(old, new, minimal=False)
    best = oracle.min_edit_distance(old.tokens, new.tokens)
    assert minimal.flag_count() == best
    assert myers.flag_count() > best
    # the extra flags are exactly the two frequent lines inside the blocks
    assert myers.flag_count() == best + 2


def test_minimal_matches_dp_on_paper_example(intern_pair):
    old = b"".join(c.encode() + b"\n" for c in "ABCABBBA")
    new = b"".join(c.encode() + b"\n" for c in "CCBABAC")
    o, n = intern_pair(old, new)
    flags = diff_myers(o, n, minimal=True)
    assert flags.flag_count() == oracle.min_edit_distance(o.tokens, n.tokens) == 7


def test_identical_files_zero_flags(intern_pair):
    o, n = intern_pair(b"q\nw\ne\n", b"q\nw\ne\n")
    assert diff_myers(o, n, minimal=False).flag_count() == 0


def test_heuristics_inert_below_thresholds():
    # below 256 search steps and without frequent lines, myers == minimal
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randrange(150)
        m = rng.randrange(150)
        old = b"".join(b"w%d\n" % rng.randrange(25) for _ in range(n))
        new = b"".join(b"w%d\n" % rng.randrange(25) for _ in range(m))
        table = InternTable()
        o, w = table.intern(old), table.intern(new)
        assert diff_myers(o, w, minimal=False).flag_count() == diff_myers(o, w, minimal=True).flag_count()


def test_minimal_cost_is_symmetric():
    rng = random.Random(4)
    for _ in range(100):
        a = random_file(rng, 30, 4)
        b = random_file(rng, 30, 4)
        t1 = InternTable()
        o1, n1 = t1.intern(a), t1.intern(b)
        t2 = InternTable()
        o2, n2 = t2.intern(b), t2.intern(a)
        assert diff_myers(o1, n1, minimal=True).flag_count() == diff_myers(o2, n2, minimal=True).flag_count()


def test_heuristic_mode_never_shorter_than_minimal_and_valid():
    rng = random.Random(12)
    for _ in range(150):
        a = random_file(rng, 60, 3)
        b = random_file(rng, 60, 3)
        table = InternTable()
        o, n = table.intern(a), table.intern(b)
        hrs = diff_myers(o, n, minimal=False)
        mns = diff_myers(o, n, minimal=True)
        assert reference.check_flags_valid(o.tokens, n.tokens, hrs.old_flags, hrs.new_flags)
        assert hrs.flag_count() >= mns.flag_count()


def test_budget_cutoff_fires_on_large_noisy_input(monkeypatch):
    # a big scrambled pair forces >256 steps; heuristic diffs must stay valid.
    # Its 3120 lines get step_budget 256, so the budget cutoff ends a search
    # before the snake cutoff may fire (ec > HEUR_MIN_COST never holds)
    rng = random.Random(8)
    a = [rng.randrange(40) for _ in range(1500)]
    b = [rng.randrange(40) for _ in range(1500)]
    # splice in a long shared run, a snake the search walks through
    shared = [1000 + i for i in range(60)]
    a = a[:700] + shared + a[700:]
    b = b[:100] + shared + b[100:]
    watched, fired = _watched_split()
    monkeypatch.setattr(myers, "_split", watched)
    cheap = myers_flags(a, b, minimal=False)
    assert fired["budget"] > 0 and fired["snake"] == 0, fired
    exact = myers_flags(a, b, minimal=True)
    assert reference.check_flags_valid(a, b, cheap.old_flags, cheap.new_flags)
    assert cheap.flag_count() >= exact.flag_count()


@pytest.mark.parametrize("pivot", ["low corner", "high corner", "outside"])
def test_a_split_that_makes_no_progress_raises(monkeypatch, pivot):
    # the first split returns a bad pivot, the rest are real: at a corner of
    # its box one child box equals its parent, and without the check the
    # search pushes that box again, which the real split then divides
    real = myers._split
    calls = []

    def bad_once(env, off1, lim1, off2, lim2, need_min):
        calls.append((off1, lim1, off2, lim2))
        if len(calls) > 1:
            return real(env, off1, lim1, off2, lim2, need_min)
        i1, i2 = {"low corner": (off1, off2), "high corner": (lim1, lim2), "outside": (lim1 + 1, lim2)}[pivot]
        return i1, i2, True, True

    monkeypatch.setattr(myers, "_split", bad_once)
    want = {"low corner": "(0, 0)", "high corner": "(4, 4)", "outside": "(5, 4)"}[pivot]
    with pytest.raises(DiffError) as raised:
        _bare_search(False)([1, 2, 3, 4], [5, 2, 3, 6])
    assert str(raised.value) == f"split of box (0, 4, 0, 4) returned pivot {want}"
    assert calls == [(0, 4, 0, 4)]


def test_engine_dispatch_names(intern_pair):
    o, n = intern_pair(b"a\n", b"b\n")
    assert diff_lines(o, n, "myers").flag_count() == 2


# Differential tests against the dict-lookup split kept in reference.py: the
# reference is patched in as myers._split and the bare search, _recs_cmp with
# no preprocess, runs once with each.  The two small search settings, built
# as a _SearchEnv with a short snake and a small step floor, make the snake
# and the budget cutoff fire on inputs of a few dozen lines.  Each case keeps
# the seed string it has always had.


def _bare_search(minimal):
    def flags(old, new):
        budget = step_budget(len(old) + len(new))
        return _recs_cmp(myers._SearchEnv(old, new, minimal, SNAKE_CNT, HEUR_MIN_COST, budget))

    return flags


def _small_cutoffs(snake, heur_min):
    def flags(old, new):
        mxcost = max(bogosqrt(len(old) + len(new)), heur_min)
        # looked up on the module, where the wrap test records the frontiers
        return _recs_cmp(myers._SearchEnv(old, new, False, snake, heur_min, mxcost))

    return flags


SPLIT_CASES = {
    "myers": (
        "split-HeuristicConfig(enable_heuristics=True, snake_length=20, min_steps=256)",
        _bare_search(False),
    ),
    "minimal": (
        "split-HeuristicConfig(enable_heuristics=False, snake_length=20, min_steps=256)",
        _bare_search(True),
    ),
    "snake3-steps4": (
        "split-HeuristicConfig(enable_heuristics=True, snake_length=3, min_steps=4)",
        _small_cutoffs(3, 4),
    ),
    "snake2-steps1": (
        "split-HeuristicConfig(enable_heuristics=True, snake_length=2, min_steps=1)",
        _small_cutoffs(2, 1),
    ),
}


def _split_pair(rng):
    alphabet = range(rng.choice((2, 3, 5, 12, 40)))
    old = [rng.choice(alphabet) for _ in range(rng.randrange(80))]
    if rng.random() < 0.5:
        return old, [rng.choice(alphabet) for _ in range(rng.randrange(80))]
    new = list(old)
    for _ in range(rng.randrange(1, 8)):
        at = rng.randrange(len(new) + 1)
        new[at:at + rng.randrange(5)] = [rng.choice(alphabet) for _ in range(rng.randrange(5))]
    return old, new


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_myers_flags_match_reference_split(monkeypatch, case):
    seed, run = SPLIT_CASES[case]
    rng = random.Random(seed)
    pairs = [_split_pair(rng) for _ in range(760)]
    got = [run(old, new) for old, new in pairs]
    monkeypatch.setattr(myers, "_split", reference.split_reference)
    for (old, new), flags in zip(pairs, got):
        want = run(old, new)
        assert (flags.old_flags, flags.new_flags) == (want.old_flags, want.new_flags), (old, new)
        if case == "minimal":
            assert flags.flag_count() == oracle.min_edit_distance(old, new)


# The same comparison at git's SNAKE_CNT and HEUR_MIN_COST, on files long
# enough that snakes gallop.  The snake cutoff needs ec > HEUR_MIN_COST while
# the budget stops the search at ec == mxcost, so it can fire only under a
# budget above 256; step_budget gives that (512) to pairs of 65,533 lines or
# more together.  These pairs are 4k-6k lines a side and search under that
# budget, as pairs of more than 32k lines a side would.


def _git_constants_pair(rng):
    """Old lines all distinct; new keeps equal runs of 21-39 lines between
    clusters of one-line inserts, deletes and replacements, and both files
    get one 600-line stretch over a 40-line alphabet, where no snake reaches
    SNAKE_CNT."""
    fresh = iter(range(10**6, 10**7))
    old = [next(fresh) for _ in range(rng.randrange(3600, 5000))]
    new, i, edits = [], 0, 0
    while i < len(old):
        run = rng.randrange(21, 40)
        new += old[i:i + run]
        i += run
        for _ in range(rng.randrange(6, 13)):
            deleted, inserted = rng.choice(((1, 0), (0, 1), (1, 1)))
            i += deleted
            new += [next(fresh) for _ in range(inserted)]
            keep = rng.randrange(5)
            new += old[i:i + keep]
            i += keep
            edits += 1
    at = rng.randrange(len(old))
    old[at:at] = [rng.randrange(40) for _ in range(600)]
    new[at:at] = [rng.randrange(40) for _ in range(600)]
    return old, new, edits


def _cutoff_lines(split):
    """Source line of each cutoff's return statements in ``split``."""
    lines, start = inspect.getsourcelines(split)
    kinds = {}
    for k, text in enumerate(lines):
        if text.strip().startswith("return"):
            if "spl[" in text:
                kinds[start + k] = "snake"
            elif "best1" in text:
                kinds[start + k] = "budget"
    assert sorted(kinds.values()) == ["budget", "budget", "snake", "snake"]
    return kinds


def _watched_split():
    """A wrapper of ``myers._split`` and the counter of its exits by kind:
    "meet", "snake" (cutoff) or "budget" (cutoff)."""
    real = myers._split
    kinds = _cutoff_lines(real)
    fired = Counter()

    def watched(*args):
        # the line each call returns from, seen by a profile hook (which,
        # unlike a line tracer, adds no cost per executed line)
        returned_at = []

        def profile(frame, event, arg):
            if event == "return" and frame.f_code is real.__code__:
                returned_at.append(frame.f_lineno)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = real(*args)
        finally:
            sys.setprofile(outer)
        fired[kinds.get(returned_at[-1], "meet")] += 1
        return result

    return watched, fired


def test_myers_flags_match_reference_split_at_git_constants(monkeypatch):
    watched, fired = _watched_split()
    rng = random.Random("git-constants")
    budget = step_budget(65_537)
    assert budget == 512
    for _ in range(2):
        old, new, edits = _git_constants_pair(rng)
        assert edits >= 600
        fired.clear()
        monkeypatch.setattr(myers, "_split", watched)
        got = _recs_cmp(_SearchEnv(old, new, False, SNAKE_CNT, HEUR_MIN_COST, budget))
        assert set(fired) == {"meet", "snake", "budget"}
        monkeypatch.setattr(myers, "_split", reference.split_reference)
        want = _recs_cmp(_SearchEnv(old, new, False, SNAKE_CNT, HEUR_MIN_COST, budget))
        assert (got.old_flags, got.new_flags) == (want.old_flags, want.new_flags)


# The frontier lists are indexed by the diagonal itself: a negative diagonal,
# down to -(m + 1), wraps to the tail of a list of n + m + 3 entries, and a
# non-negative one reaches up to n + 1.  These pairs, one file empty or one
# line long and one file far longer than the other, take the search to both
# ends, and a recording list checks that it never goes past them and that
# no two diagonals it touches share a slot.


class _RecordingList(list):
    def __init__(self, size):
        super().__init__([0] * size)
        self.seen = set()

    def __getitem__(self, d):
        self.seen.add(d)
        return super().__getitem__(d)

    def __setitem__(self, d, value):
        self.seen.add(d)
        super().__setitem__(d, value)


def _wrap_pairs(rng):
    pairs = [([], [1, 2, 3]), ([1, 2], []), ([1], list(range(2, 60))), ([7], list(range(40)))]
    for short in (0, 1, 1, 2, 3, 5):
        for _ in range(6):
            alphabet = rng.choice((2, 3, 8, 1000))
            a = [rng.randrange(alphabet) for _ in range(short)]
            b = [rng.randrange(alphabet) for _ in range(rng.randrange(40, 300))]
            pairs += [(a, b), (b, a)]
    return pairs


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_frontier_lists_wrap_at_both_ends(monkeypatch, case):
    seed, run = SPLIT_CASES[case]
    rng = random.Random(f"wrap-{seed}")
    real_env = myers._SearchEnv
    reached = set()

    def recorded(old, new):
        envs = []

        def recording_env(*args):
            env = real_env(*args)
            env.kvdf, env.kvdb = _RecordingList(len(env.kvdf)), _RecordingList(len(env.kvdb))
            envs.append(env)
            return env

        monkeypatch.setattr(myers, "_SearchEnv", recording_env)
        flags = run(old, new)
        monkeypatch.undo()
        for env in envs:
            seen = env.kvdf.seen | env.kvdb.seen
            n, m = len(env.ha1), len(env.ha2)
            assert all(-(m + 1) <= d <= n + 1 for d in seen), (old, new)
            # no two diagonals share a slot of the list
            assert len({d % len(env.kvdf) for d in seen}) == len(seen), (old, new)
            reached.update(("low", n > m) for d in seen if d == -(m + 1))
            reached.update(("high", n > m) for d in seen if d == n + 1)
        return flags

    for old, new in _wrap_pairs(rng):
        got = recorded(old, new)
        monkeypatch.setattr(myers, "_split", reference.split_reference)
        want = run(old, new)
        monkeypatch.undo()
        assert (got.old_flags, got.new_flags) == (want.old_flags, want.new_flags), (old, new)
        if case == "minimal":
            assert got.flag_count() == oracle.min_edit_distance(old, new)
    assert reached == {(end, longer_old) for end in ("low", "high") for longer_old in (False, True)}


# Differential tests against the frequent-line rule that rescans the block
# around each frequent line, and its walk over every line, kept in
# reference.py.


def _frequent_pair(rng):
    """Old and new files built from long runs of repeated lines, lines found
    in one file only, and a few shared ordinary lines."""

    def build(tag):
        out = []
        length = rng.randrange(400)
        while len(out) < length:
            r = rng.random()
            if r < 0.35:
                out += [rng.choice((b"f\n", b"f\n", b"}\n"))] * rng.randrange(1, rng.choice((3, 80)))
            elif r < 0.75:
                out += [b"%s %d\n" % (tag, rng.randrange(10**6)) for _ in range(rng.randrange(1, 12))]
            else:
                out.append(b"shared %d\n" % rng.randrange(6))
        return out

    old = build(b"old")
    if rng.random() < 0.5:
        return old, build(b"new")
    new = list(old)
    for _ in range(rng.randrange(1, 6)):
        at = rng.randrange(len(new) + 1)
        new[at:at + rng.randrange(20)] = build(b"new")[: rng.randrange(30)]
    return old, new


@pytest.mark.parametrize("minimal", (False, True), ids=("myers", "minimal"))
def test_preprocess_matches_reference(minimal):
    rng = random.Random(f"preprocess-{minimal}")
    fired = 0
    for _ in range(400):
        old, new = _frequent_pair(rng)
        table = InternTable()
        o, n = table.intern(b"".join(old)).tokens, table.intern(b"".join(new)).tokens
        got = preprocess(o, n, minimal=minimal)
        assert got == reference.preprocess_reference(o, n, minimal=minimal)
        fired += got != preprocess(o, n, minimal=True)
    # the frequent-line rule flags lines in a good share of the corpus
    assert fired > 50 if not minimal else fired == 0


def test_flag_frequent_matches_walk_reference():
    rng = random.Random("flag-frequent-walk")
    cases = [_frequent_pair(rng) for _ in range(400)]
    for _ in range(4):
        old = source_lines(rng, rng.randrange(2000, 6001))
        cases.append((old, edited_source(rng, old, len(old) // 100)))
    fired = 0
    for old, new in cases:
        table = InternTable()
        o, n = table.intern(b"".join(old)), table.intern(b"".join(new))
        cls = preprocess(o.tokens, n.tokens, minimal=True)  # unmatched lines only
        for seq, other, pre in ((o, n, cls.old_prechanged), (n, o, cls.new_prechanged)):
            counts = Counter(other.tokens)
            lo, hi = cls.prefix_len, len(seq) - cls.suffix_len
            got, want = list(pre), list(pre)
            _flag_frequent(seq.tokens, counts, got, lo, hi)
            reference.flag_frequent_reference(seq.tokens, counts, want, lo, hi)
            assert got == want
            fired += got != pre
    assert fired > 50


def test_frequent_line_window_reads_100_lines_each_way(intern_pair):
    """The old side of the "window-decides" witness has one block of 161
    unmatched and 301 frequent lines, too many frequent ones for the block as
    a whole; the } at line 61 sees only unmatched lines within 100 lines of
    it, and is flagged, as git does (its counts are in git_fixtures.json)."""
    old, new = intern_pair(*witness_inputs("window-decides"))
    old, new = old.tokens, new.tokens
    got = preprocess(old, new, minimal=False)
    unmatched = preprocess(old, new, minimal=True)
    assert [i for i, (f, u) in enumerate(zip(got.old_prechanged, unmatched.old_prechanged)) if f != u] == [61]
    assert got.new_prechanged == unmatched.new_prechanged
    assert got == reference.preprocess_reference(old, new, minimal=False)


@pytest.mark.parametrize("minimal", (False, True), ids=("myers", "minimal"))
def test_diff_myers_matches_reference(monkeypatch, minimal):
    """The pipeline against its reference on edited source files of 2k-6k
    lines: the rescanning preprocess, the search on dict frontiers, and the
    map-back over every line."""
    rng = random.Random(f"diff-myers-{minimal}")
    for _ in range(3):
        old = source_lines(rng, rng.randrange(2000, 6001))
        new = edited_source(rng, old, len(old) // 100)
        table = InternTable()
        o, n = table.intern(b"".join(old)), table.intern(b"".join(new))
        got = diff_myers(o, n, minimal)
        monkeypatch.setattr(myers, "_split", reference.split_reference)
        want = reference.diff_myers_reference(o.tokens, n.tokens, minimal)
        monkeypatch.undo()
        assert (got.old_flags, got.new_flags) == (want.old_flags, want.new_flags)
        assert reference.check_flags_valid(o.tokens, n.tokens, got.old_flags, got.new_flags)


def _frequent_run(n):
    """A run of n repeated lines between two unmatched lines, and a block of
    unmatched lines with every fifth line frequent, which the rule flags."""
    table = InternTable()
    run = b"old\n" + b"f\n" * n + b"old end\n", b"new\n" + b"f\n" * (n // 2) + b"new end\n"
    mixed = b"".join(b"f\n" if i % 5 == 2 else b"old %d\n" % i for i in range(n))
    block = b"top\n" + mixed + b"bottom\n", b"top\n" + b"f\n" * (n // 2) + b"bottom\n"
    return [[table.intern(data).tokens for data in pair] for pair in (run, block)]


def test_preprocess_work_is_linear_in_a_frequent_run():
    n = 1000
    for old, new in _frequent_run(n):
        for a, b in ((old, new), (new, old)):
            assert preprocess(a, b, minimal=False) == reference.preprocess_reference(a, b, minimal=False)
            # the rescanning reference executes 1.4M to 6.3M lines here
            assert lines_executed(preprocess, a, b, minimal=False) <= 20 * n
    old, new = _frequent_run(n)[1]
    assert sum(preprocess(old, new, minimal=False).old_prechanged) == n
