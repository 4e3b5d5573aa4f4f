"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; plain ``pytest`` reports the same outcomes as test results.
"""

import copy
import math
import random
import statistics
import time
from contextlib import contextmanager

from diffmerge import oracle
from diffmerge.core import InternTable, apply_script, flags_to_script
from diffmerge.engine import ALGORITHMS, diff_lines
from diffmerge.graph import build_exponential_graph, merge_commits, rebase, CommitGraph
from diffmerge.histogram import diff_histogram
from diffmerge.merge3 import CONFLICT, MergeOptions, MergeRegion, LEFT, RIGHT, _hunks, merge3
from diffmerge.myers import diff_myers
from diffmerge.patience import diff_patience, patience_lis
from diffmerge.slider import slide_changed_lines

import reference
from conftest import lines_executed


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    print(f"criterion {number:2d} [{title}]: PASS")


def lines(rng, count, alphabet):
    return b"".join(bytes([97 + rng.randrange(alphabet)]) + b"\n" for _ in range(count))


def test_criterion_1_round_trip_all_algorithms():
    with criterion(1, "round-trip, 10k pairs, 4 algorithms, <60s"):
        rng = random.Random(0xC0FFEE)
        start = time.perf_counter()
        for _ in range(10_000):
            a = lines(rng, rng.randrange(25), rng.randrange(2, 5))
            b = lines(rng, rng.randrange(25), rng.randrange(2, 5))
            table = InternTable()
            old, new = table.intern(a), table.intern(b)
            for algo in ALGORITHMS:
                flags = diff_lines(old, new, algo)
                script = flags_to_script(flags, old, new)
                assert apply_script(old, script, new) == b, (algo, a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_minimality_against_dp_oracle():
    with criterion(2, "minimal == DP oracle on 5k pairs up to 200x200"):
        rng = random.Random(0xDEADBEEF)
        for trial in range(5_000):
            if trial % 50 == 0:
                n, m = rng.randrange(120, 201), rng.randrange(120, 201)
            else:
                n, m = rng.randrange(0, 60), rng.randrange(0, 60)
            a = lines(rng, n, rng.randrange(2, 9))
            b = lines(rng, m, rng.randrange(2, 9))
            table = InternTable()
            old, new = table.intern(a), table.intern(b)
            got = diff_myers(old, new, minimal=True).flag_count()
            want = oracle.min_edit_distance(old.tokens, new.tokens)
            assert got == want, (a, b, got, want)

        # constructed witness: a frequent shared line sits inside a changed
        # block and is flagged by myers mode but not by minimal mode
        star = b"*/\n"
        old_b = b"".join(b"old%d\n" % i for i in range(5)) + star
        old_b += b"".join(b"old%d\n" % i for i in range(5, 10)) + star * 9
        new_b = b"".join(b"new%d\n" % i for i in range(5)) + star
        new_b += b"".join(b"new%d\n" % i for i in range(5, 10)) + star * 9
        table = InternTable()
        old, new = table.intern(old_b), table.intern(new_b)
        minimal = diff_myers(old, new, minimal=True).flag_count()
        myers = diff_myers(old, new, minimal=False).flag_count()
        assert minimal == oracle.min_edit_distance(old.tokens, new.tokens)
        assert myers > minimal


def test_criterion_3_patience_lis():
    with criterion(3, "patience LIS: worked example and 1k permutations"):
        matches = list(enumerate([5, 4, 7, 8, 1, 3, 9, 6]))
        assert [m[1] for m in patience_lis(matches)] == [4, 7, 8, 9]
        rng = random.Random(3)
        for _ in range(1_000):
            n = rng.randrange(1, 13)
            perm = list(range(n))
            rng.shuffle(perm)
            got = tuple(m[1] for m in patience_lis(list(enumerate(perm))))
            assert got in reference.all_lis(perm), perm


def test_criterion_4_histogram_pathology_and_asymmetry():
    # Expectations from git diff --no-index --numstat --histogram (git 2.39.5).
    # On A (b c)^k against (b c)^k A, git counts 2k lines added and 2k deleted
    # in both directions (6/6, 20/20 and 80/80 for k = 3, 10 and 40): the
    # paper's finding 1, the whole file flagged where minimal flags 2 lines.
    # On b c d b against c b it deletes 2 lines, and in reverse adds 3 and
    # deletes 1: the histogram diff is not symmetric.
    def counts(old_bytes, new_bytes):
        table = InternTable()
        flags = diff_histogram(table.intern(old_bytes), table.intern(new_bytes))
        return sum(flags.new_flags), sum(flags.old_flags)

    with criterion(4, "histogram moved-line family: whole file both ways; b c d b vs c b asymmetric"):
        for k in (3, 4, 6, 10, 40):
            before = b"A\n" + b"b\nc\n" * k
            after = b"b\nc\n" * k + b"A\n"
            assert counts(before, after) == (2 * k, 2 * k)
            assert counts(after, before) == (2 * k, 2 * k)
            for pair in ((before, after), (after, before)):
                table = InternTable()
                o, n = table.intern(pair[0]), table.intern(pair[1])
                assert diff_myers(o, n, minimal=True).flag_count() == 2
        assert counts(b"b\nc\nd\nb\n", b"c\nb\n") == (0, 2)
        assert counts(b"c\nb\n", b"b\nc\nd\nb\n") == (3, 1)


def test_criterion_5_patience_beats_histogram_on_reordering():
    with criterion(5, "reordering input where patience < histogram"):
        table = InternTable()
        o = table.intern(b"u1\nf\nu2\ng\nu3\n")
        n = table.intern(b"u3\nh\nu1\nk\nu2\n")
        patience = diff_patience(o, n).flag_count()
        histogram = diff_histogram(o, n).flag_count()
        assert patience < histogram, (patience, histogram)


def test_criterion_6_locality_counterexample():
    with criterion(6, "abab extension vs trailing rewrite conflicts"):
        for k in (2, 10, 100):
            o = b"a\nb\n" * k
            left = b"a\nb\n" + o
            right = b"a\nb\n" * (k - 1) + b"c\n"
            out = merge3(o, left, right)
            assert out.conflict_count >= 1, k


def test_criterion_7_duplicated_change():
    with criterion(7, "mismatched diffs duplicate the change cleanly"):
        # git merge-file ours base theirs, and git merge -s recursive
        # -Xdiff-algorithm=<algorithm> for each algorithm, exit 0 with the
        # bytes asserted below
        o = b"A\nA\n"
        left = b"j\nA\nB\nA\nA\n"
        right_same = b"A\nB\nA\nA\nj\n"
        right_diff = b"A\nC\nA\nA\nj\n"

        def added_hunk(new_data, marker, algorithm):
            """The one hunk of the merge's diff of o to new_data that adds
            marker, and the lines it adds."""
            table = InternTable()
            old, new = table.intern(o), table.intern(new_data)
            hunks = [(c, [new.lines[t] for t in new.tokens[c.start_new:c.end_new]])
                     for c in _hunks(old, new, algorithm)]
            (hunk,) = [(c, added) for c, added in hunks if marker in added]
            return hunk

        for algorithm in ALGORITHMS:
            opts = MergeOptions(algorithm=algorithm)
            # first assert the two diffs take the required mismatched shapes:
            # ours adds "A B" before the first A, theirs adds the B after it
            cl, added_l = added_hunk(left, b"B\n", algorithm)
            assert added_l[-2:] == [b"A\n", b"B\n"], algorithm
            for right, marker in ((right_same, b"B\n"), (right_diff, b"C\n")):
                cr, added_r = added_hunk(right, marker, algorithm)
                assert added_r[0] == marker and cl.end_old < cr.start_old, algorithm

            out = merge3(o, left, right_same, opts)
            assert out.clean and out.rendered == b"j\nA\nB\nA\nB\nA\nA\nj\n", algorithm

            out = merge3(o, left, right_diff, opts)
            assert out.clean and out.rendered == b"j\nA\nB\nA\nC\nA\nA\nj\n", algorithm


def test_criterion_8_non_commutative_merge():
    with criterion(8, "swapped merge changes the line between conflicts"):
        o = b"X\n"
        left = b"A\na\nb\nc\nB\na\nb\nc\n"
        right = b"B\na\nb\nc\nA\na\nb\nc\n"
        m1 = merge3(o, left, right)
        m2 = merge3(o, right, left)

        def middle(rendered):
            return rendered.split(b">>>>>>> theirs\n")[1].split(b"<<<<<<< ours\n")[0]

        assert middle(m1.rendered) == b"B\na\nb\nc\n"
        assert middle(m2.rendered) == b"A\na\nb\nc\n"

        nz = MergeOptions(zealous=False)
        s1 = merge3(o, left, right, nz)
        s2 = merge3(o, right, left, nz)
        mirrored = [
            MergeRegion(r.start_a, r.end_a, r.start_r, r.end_r, r.start_l, r.end_l,
                        {LEFT: RIGHT, RIGHT: LEFT}.get(r.kind, r.kind))
            for r in s2.regions
        ]
        assert s1.regions == mirrored


def test_criterion_9_exponential_ort():
    with criterion(9, "mergeCalls == 2^n+1; git's fold's executed lines and wall time roughly double"):
        start = time.perf_counter()
        for n in range(0, 13):
            graph, a, b = build_exponential_graph(n)
            assert len(graph) == 6 * n + 4
            got = merge_commits(copy.deepcopy(graph), a, b)
            assert got.stats.merge_calls == 2 ** n + 1, n
            # the engine folds each distinct base list once per merge; git's
            # fold through virtual commits performs every call, and the two
            # reach the same outcome
            assert got.stats.merges_performed == (2 * n + 1 if n else 2), n
            want = reference.merge_commits_reference(copy.deepcopy(graph), a, b)
            assert want.stats.merges_performed == 2 ** n + 1, n
            assert (got.kind, got.commit, got.conflicts, got.stats.merge_calls) == (
                want.kind, want.commit, want.conflicts, want.stats.merge_calls), n

        # The engine's work, counted: Python lines executed by one merge on
        # a fresh copy of the family.  The count is the same on every run (on
        # Python 3.11, 3057, 3466, 3875, 4284 and 4693 lines for n = 8..12):
        # it grows by a fixed step per block.
        executed = {n: lines_executed(merge_commits, *build_exponential_graph(n)) for n in range(8, 13)}
        for n in range(8, 12):
            assert executed[n + 1] / executed[n] <= 1.25, (n, executed)

        # The paper's finding on git's algorithm: the fold through virtual
        # commits repeats every fold, so its work doubles per block.  Its
        # counted lines (80,833, 161,601, 323,137, 646,209 and 1,292,353 for
        # n = 8..12 on Python 3.11) have ratios near 2.
        git_fold = reference.merge_commits_reference
        executed = {n: lines_executed(git_fold, *build_exponential_graph(n)) for n in range(8, 13)}
        for n in range(8, 12):
            assert 1.5 <= executed[n + 1] / executed[n] <= 3.0, (n, executed)

        # Each sample is the mean of back-to-back merges on pre-made copies
        # that together run for about 20 ms, so a sample outlasts the
        # host's short speed swings.  A round times every n once, in order,
        # and each n + 1 sample is scaled by the n sample timed just before
        # it: the host's speed moves over seconds, so the two see the same
        # speed, where the fastest samples of two n could come from a fast
        # and a slow stretch.  Each ratio is the median over the rounds.
        sizes = range(8, 13)
        graphs = {n: build_exponential_graph(n) for n in sizes}
        repeats = {n: max(1, math.ceil(0.02 / _timed_merges(git_fold, *graphs[n], 1))) for n in sizes}
        rounds = [{n: _timed_merges(git_fold, *graphs[n], repeats[n]) for n in sizes} for _ in range(5)]
        for n in range(8, 12):
            ratio = statistics.median(timings[n + 1] / timings[n] for timings in rounds)
            assert 1.5 <= ratio <= 3.0, (n, ratio, rounds)
        assert time.perf_counter() - start < 120


def _timed_merges(merge, graph, a, b, repeats):
    """Mean time of one call of a merge_commits-like ``merge`` over
    ``repeats`` back-to-back runs.

    A clean merge inserts its commit, so each run gets its own copy of the
    graph, made before the clock starts."""
    copies = [copy.deepcopy(graph) for _ in range(repeats)]
    t0 = time.perf_counter()
    for fresh in copies:
        merge(fresh, a, b)
    return (time.perf_counter() - t0) / repeats


def test_criterion_10_rebase_non_commutativity():
    with criterion(10, "rebase A-onto-B clean, B-onto-A conflicts at pick 1"):
        g = CommitGraph()
        g.add_commit("o", (), {"f": b"b\n"})
        g.add_commit("x1", ("o",), {"f": b"b\nb\n"})
        g.add_commit("x2", ("x1",), {"f": b"b\n"})
        g.add_commit("y1", ("o",), {"f": b"b\na\n"})
        g.add_commit("y2", ("y1",), {"f": b"a\n"})
        forward = rebase(g, "y2", "x2")
        assert forward.kind == "clean"
        assert g[forward.head].tree == {"f": b"a\n"}
        backward = rebase(g, "x2", "y2")
        assert backward.kind == "conflict"
        assert backward.failed_index == 0


def test_criterion_11_zealous_false_conflict_elimination():
    with criterion(11, "no equal-sided conflicts; rejoin witness merges cleanly"):
        rng = random.Random(0xFEED)
        checked = 0
        for _ in range(100_000):
            o = lines(rng, rng.randrange(7), 3)
            left = lines(rng, rng.randrange(7), 3)
            right = lines(rng, rng.randrange(7), 3)
            out = merge3(o, left, right)
            if not out.conflict_count:
                continue
            table = InternTable()
            oo, ll, rr = table.intern(o), table.intern(left), table.intern(right)
            for reg in out.regions:
                if reg.kind == CONFLICT:
                    checked += 1
                    assert ll.tokens[reg.start_l:reg.end_l] != rr.tokens[reg.start_r:reg.end_r], (o, left, right)
        assert checked > 10_000  # the scan really exercised conflicts

        # rejoining close conflicts leaves one whose sides are identical here;
        # the check after rejoining makes it a same-change
        o, left, right = b"a\na\na\nb\nb\nb\nb\n", b"b\nb\na\na\nb\n", b"b\nb\na\na\nb\na\n"
        fixed = merge3(o, left, right, MergeOptions(algorithm="myers"))
        assert fixed.clean


def test_criterion_12_indent_heuristic():
    with criterion(12, "sliding is safe; boundary-aligned position chosen"):
        rng = random.Random(0xBEEF)
        for _ in range(5_000):
            a = lines(rng, rng.randrange(18), 2)
            b = lines(rng, rng.randrange(18), 2)
            table = InternTable()
            old, new = table.intern(a), table.intern(b)
            flags = diff_lines(old, new, "myers")
            slid = slide_changed_lines(flags, old, new)
            assert slid.flag_count() == flags.flag_count()
            script = flags_to_script(slid, old, new)
            assert apply_script(old, script, new) == b

        # classic slidable insertion: the added function, which can start at
        # three lines, is placed where git's compaction, run literally in
        # reference.py, places it: starting at its def line
        old_b = b"def alpha():\n    return 1\n\n\ndef omega():\n    return 9\n"
        new_b = (
            b"def alpha():\n    return 1\n\n\n"
            b"def middle():\n    return 5\n\n\n"
            b"def omega():\n    return 9\n"
        )
        table = InternTable()
        old, new = table.intern(old_b), table.intern(new_b)
        flags = diff_lines(old, new, "minimal")
        slid = slide_changed_lines(flags, old, new)
        assert slid == reference.slide_changed_lines_reference(flags, old, new)
        chosen = min(i for i, f in enumerate(slid.new_flags) if f)
        assert new.lines[new.tokens[chosen]] == b"def middle():\n"
