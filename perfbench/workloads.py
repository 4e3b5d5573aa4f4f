"""The three workloads: how each builds its inputs and runs one pass.

A pass runs every operation of the workload once, timing each one and
checking its output outside the timed span.  All operations go through the
module attributes a caller would use (``cli.main``, ``graph.merge_commits``
and so on), so the tracer can wrap them without editing the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
from checks import CheckFailed, apply_unified, resolve_conflicts, split_keep, to_tokens

ALGORITHMS = ("myers", "minimal", "patience", "histogram")


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spaced evenly on a log scale from ``lo`` to ``hi``."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


# Lines per file.  The ladder is fixed; the seed picks only contents and
# edit positions, so every seed measures the same mix of sizes.  Sizes are
# spread continuously rather than in a few classes, so that a quantile never
# sits on the step between two classes, where one rank more or less would
# move it by a whole class.  The first entries are the largest inputs.
DIFF_SIZES = [100_000, 20_000] + ladder(300, 8_000, 50)
DIFF_SIZES_SMOKE = [400] + ladder(40, 200, 5)
DIFF_LARGEST = 1
MERGE_SIZES = [50_000, 50_000] + ladder(1_000, 6_000, 98)
MERGE_SIZES_SMOKE = [300] + ladder(60, 200, 10)
MERGE_LARGEST = 2
MERGE_KINDS = ("disjoint", "overlap", "identical") * 3 + ("abab",)
MERGE_STYLES = (["--style=merge"], ["--style=diff3", "--no-zealous"], ["--style=zdiff3"])
HISTORY_MAINLINE, HISTORY_MAINLINE_SMOKE = 600, 40
EXPO_N, EXPO_N_SMOKE = 12, 4
EXPO_REPEATS = 6
EXTRA_BUILDS = 5
ORACLE_LIMIT = 2000  # oracle.lcs_length raises SizeGuard above this


@dataclass(frozen=True)
class OpInfo:
    """What a timed operation counts towards; the same in every pass.

    The run reduces the timings of one operation key, over all passes, to
    their median before it computes any metric."""

    latency: bool  # one sample of op_p50_ms / op_p90_ms
    work: float  # lines (diff, merge) or commits (history) for throughput_per_s
    big: bool  # one of the workload's largest operations, for big_op_ms


@dataclass
class PassResult:
    times: list[tuple[object, float]] = field(default_factory=list)  # (operation key, seconds)
    timed_s: float = 0.0  # all timed spans of the pass
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    duplicated: int = 0  # clean merges that kept a shared addition twice
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def record(self, key, start: float) -> None:
        dt = perf_counter() - start
        self.times.append((key, dt))
        self.timed_s += dt

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


class _Out:
    """Stand-in for sys.stdout/sys.stderr that keeps the bytes written."""

    def __init__(self) -> None:
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


def _run_cli(cli, argv: list[str], res: PassResult, key) -> tuple[int, bytes]:
    out, err = _Out(), _Out()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(argv)
        res.record(key, t0)
    return code, out.buffer.getvalue()


def _write(path: Path, lines: list[str]) -> bytes:
    data = "".join(lines).encode()
    path.write_bytes(data)
    return data


# --------------------------------------------------------------------------
# diff: one in-process `diffmerge diff --algorithm=<alg> old new` per
# operation, on source-shaped pairs from 300 to 100k lines, every pair under
# all four algorithms with the default indent heuristic.  Exercises core,
# the myers/patience/histogram searches and the slider; never merge3 or
# graph.


@dataclass
class DiffPair:
    old_path: str
    new_path: str
    old: bytes
    new: bytes
    lines: int
    largest: bool = False
    min_distance: int | None = None


class DiffWorkload:
    name = "diff"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = random.Random(seed)
        src = gen.SourceText(rng)
        self.workdir = str(workdir).encode()
        self.pairs: list[DiffPair] = []
        for k, n in enumerate(DIFF_SIZES_SMOKE if smoke else DIFF_SIZES):
            old = src.lines(n)
            new = gen.edit_pair(src, old, 0.01)
            if rng.random() < 0.1:
                new[-1] = new[-1].rstrip("\n")  # missing final newline
            stem = workdir / f"d{k}_{n}"
            old_path, new_path = f"{stem}.old", f"{stem}.new"
            self.pairs.append(DiffPair(old_path, new_path, _write(Path(old_path), old), _write(Path(new_path), new),
                                       len(old) + len(new), k < DIFF_LARGEST))
        # A pass runs the operations in a seeded random order, so each size
        # class is spread over the whole run rather than one stretch of it.
        self.ops = [(pair, alg) for pair in self.pairs for alg in ALGORITHMS]
        rng.shuffle(self.ops)
        self.info = {i: OpInfo(True, pair.lines, pair.largest) for i, (pair, _alg) in enumerate(self.ops)}
        # the traced run's tracemalloc pass: the 20k-line pair under all four
        # algorithms (tracemalloc slows these operations some 25 times)
        self.memory_keys = {i for i, (pair, _alg) in enumerate(self.ops) if pair is self.pairs[DIFF_LARGEST]}

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for p in self.pairs:
            h.update(p.old)
            h.update(p.new)
        return h.hexdigest()

    def run_pass(self, env, keys=None) -> PassResult:
        res = PassResult()
        for i, (pair, alg) in enumerate(self.ops):
            if keys is not None and i not in keys:
                continue
            res.attempted += 1
            what = f"diff --algorithm={alg} {Path(pair.old_path).name}"
            try:
                code, out = _run_cli(env.cli, ["diff", f"--algorithm={alg}", pair.old_path, pair.new_path], res, i)
                # the ---/+++ header names the per-run work directory
                res.digest.update(b"%d\0%s\0" % (code, out.replace(self.workdir, b"")))
                self._check(env, pair, alg, code, out)
            except Exception as exc:  # any failure counts, none is filtered
                res.fail(what, exc)
            env.between()
        return res

    @staticmethod
    def _check(env, pair: DiffPair, alg: str, code: int, out: bytes) -> None:
        expected_code = 1 if pair.old != pair.new else 0
        if code != expected_code:
            raise CheckFailed(f"exit code {code}, expected {expected_code}")
        patched, changed = apply_unified(pair.old, out)
        if patched != pair.new:
            raise CheckFailed("patch applied to old does not give new")
        if alg != "minimal":
            return
        old, new = split_keep(pair.old), split_keep(pair.new)
        if len(old) <= ORACLE_LIMIT and len(new) <= ORACLE_LIMIT:
            if pair.min_distance is None:
                pair.min_distance = env.oracle.min_edit_distance(*to_tokens(old, new))
            if changed != pair.min_distance:
                raise CheckFailed(f"minimal diff changes {changed} lines, oracle says {pair.min_distance}")


# --------------------------------------------------------------------------
# merge: one in-process `diffmerge merge-file ours base theirs` per
# operation on triples of 1k to 50k lines, styles rotating through merge,
# diff3 --no-zealous and zdiff3 with the default histogram algorithm.  The
# two base diffs, the region walk, zealous refinement and rendering do the
# work; the slider and graph never run.


@dataclass
class MergeTriple:
    paths: list[str]  # ours, base, theirs
    style: list[str]
    case: gen.MergeCase
    lines: int
    largest: bool = False


class MergeWorkload:
    name = "merge"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = random.Random(seed)
        src = gen.SourceText(rng)
        self.triples: list[MergeTriple] = []
        for k, n in enumerate(MERGE_SIZES_SMOKE if smoke else MERGE_SIZES):
            case = gen.merge_case(src, n, MERGE_KINDS[k % len(MERGE_KINDS)])
            stem = workdir / f"m{k}_{n}"
            paths = [f"{stem}.ours", f"{stem}.base", f"{stem}.theirs"]
            for path, lines in zip(paths, (case.ours, case.base, case.theirs)):
                _write(Path(path), lines)
            lines = len(case.base) + len(case.ours) + len(case.theirs)
            style = MERGE_STYLES[k % len(MERGE_STYLES)]
            self.triples.append(MergeTriple(paths, style, case, lines, k < MERGE_LARGEST))
        self.ops = list(self.triples)
        rng.shuffle(self.ops)
        self.info = {i: OpInfo(True, t.lines, t.largest) for i, t in enumerate(self.ops)}
        self.memory_keys = {i for i, t in enumerate(self.ops) if t is self.triples[0]}  # one 50k-line triple

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for t in self.triples:
            for lines in (t.case.base, t.case.ours, t.case.theirs):
                h.update("".join(lines).encode())
        return h.hexdigest()

    def run_pass(self, env, keys=None) -> PassResult:
        res = PassResult()
        for i, t in enumerate(self.ops):
            if keys is not None and i not in keys:
                continue
            res.attempted += 1
            what = f"merge-file {' '.join(t.style)} {Path(t.paths[0]).stem} ({t.case.kind})"
            try:
                code, out = _run_cli(env.cli, ["merge-file", *t.paths, *t.style], res, i)
                res.digest.update(b"%d\0%s\0" % (code, out))
                res.duplicated += self._check(t, code, out)
            except Exception as exc:  # any failure counts, none is filtered
                res.fail(what, exc)
            env.between()
        return res

    @staticmethod
    def _check(t: MergeTriple, code: int, out: bytes) -> bool:
        """Raise CheckFailed unless the output fits the plan; True when it
        fits only as a duplicated change."""
        case = t.case
        ours, blocks = resolve_conflicts(out, "ours")
        theirs, _ = resolve_conflicts(out, "theirs")
        if code != (1 if blocks else 0):
            raise CheckFailed(f"exit code {code} with {blocks} conflict blocks")
        if case.kind == "disjoint":
            if blocks or out != "".join(case.expected).encode():
                raise CheckFailed(f"disjoint edits: {blocks} conflicts or output differs from the plan")
        elif case.kind == "identical":
            if blocks and t.style == ["--style=merge"]:
                raise CheckFailed(f"zealous merge left {blocks} false conflicts")
            expected = "".join(case.expected).encode()
            if ours == expected and theirs == expected:
                return False
            # When the two base diffs place a shared addition at different
            # lines, the merge keeps it twice (acceptance criterion 7).  That
            # is the specified result, so it passes if the only extra lines
            # are copies of lines both sides added.
            if blocks or not _only_duplicates(split_keep(out), case.expected, case.shared_lines):
                raise CheckFailed("identical edits: output differs from the plan beyond duplicated additions")
            return True
        elif case.kind == "overlap":
            if not blocks:
                raise CheckFailed("planted overlap did not conflict")
            if ours != "".join(case.expected_ours).encode() or theirs != "".join(case.expected_theirs).encode():
                raise CheckFailed("overlap: a side resolved differs from the plan")
        elif not blocks:  # abab
            raise CheckFailed("repetitive triple did not conflict")
        return False


def _only_duplicates(out: list[bytes], expected: list[str], shared: frozenset[str]) -> bool:
    """``expected`` is a subsequence of ``out`` and every other line of
    ``out`` is one of the ``shared`` lines."""
    want = [line.encode() for line in expected]
    extra = {line.encode() for line in shared}
    j = 0
    for line in out:
        if j < len(want) and line == want[j]:
            j += 1
        elif line not in extra:
            return False
    return j == len(want)


# --------------------------------------------------------------------------
# history: library calls on a seeded commit DAG.  Writes are add_commit over
# a mainline with feature branches and criss-cross merges; reads are
# merge_commits on pairs of heads (each pair once), rebase and cherry_pick
# of short branches, and merge_commits on the exponential family at one n.
# graph does the work (ancestor sets on write, LCA and recursive virtual
# bases on read); merge3 runs only on small blobs, and not at all for the
# exponential family, whose trees are all identical.


class HistoryWorkload:
    name = "history"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = random.Random(seed)
        self.plan = gen.commit_dag(rng, HISTORY_MAINLINE_SMOKE if smoke else HISTORY_MAINLINE)
        self.expo_n = EXPO_N_SMOKE if smoke else EXPO_N
        # Every read needs only the built DAG, so a pass may take them in any
        # order.  A pass starts with a build, and further builds and the
        # exponential merges are mixed in among the reads, so that the build
        # rate samples the whole run and not one stretch of it.  Each build
        # replaces the graph the reads use, so only one DAG is alive at once.
        rest = self.plan.reads + [("expo", "", "", {})] * EXPO_REPEATS + [("build", "", "", {})] * EXTRA_BUILDS
        rng.shuffle(rest)
        self.ops = [("build", "", "", {})] + rest
        # Every build and every exponential merge repeats the same work, so
        # each of the two is one operation key with many samples a pass.
        self.info = {i: OpInfo(True, 0, False) for i, (kind, *_rest) in enumerate(self.ops)
                     if kind not in ("build", "expo")}
        self.info["build"] = OpInfo(False, len(self.plan.commits), False)
        self.info["expo"] = OpInfo(False, 0, True)
        # the tracemalloc pass: a build and the exponential merges
        self.memory_keys = {0} | {i for i, (kind, *_rest) in enumerate(self.ops) if kind == "expo"}

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for c in self.plan.commits:
            h.update(f"{c.cid}\0{','.join(c.parents)}\0".encode())
            for path in sorted(c.tree):
                h.update(c.tree[path])
        return h.hexdigest()

    def run_pass(self, env, keys=None) -> PassResult:
        graph_mod = env.graph
        res = PassResult()
        g = None
        for i, (kind, x, y, expected) in enumerate(self.ops):
            if keys is not None and i not in keys:
                continue
            res.attempted += 1
            try:
                if kind == "build":
                    g = None  # free the previous graph first
                    g = self._build(env, res)
                    continue
                if kind == "expo":
                    self._expo(env, res)
                    continue
                t0 = perf_counter()
                if kind == "merge":
                    result = graph_mod.merge_commits(g, x, y)
                elif kind == "rebase":
                    result = graph_mod.rebase(g, x, y)
                else:
                    result = graph_mod.cherry_pick(g, x, y)
                res.record(i, t0)
                if kind == "merge":
                    env.on_merge(g, x, y, result)
                tree = self._check(g, kind, result, expected)
                res.digest.update(f"{kind}\0{x}\0{y}\0".encode())
                for path in sorted(tree):
                    res.digest.update(b"%s\0%s\0" % (path.encode(), tree[path]))
            except Exception as exc:  # any failure counts, none is filtered
                res.fail(f"{kind} {x} {y}", exc)
            finally:
                env.between()
        return res

    def _build(self, env, res: PassResult):
        g = env.graph.CommitGraph()
        t0 = perf_counter()
        for c in self.plan.commits:
            g.add_commit(c.cid, c.parents, c.tree)
        res.record("build", t0)
        if len(g) != len(self.plan.commits):
            raise CheckFailed(f"graph holds {len(g)} commits, expected {len(self.plan.commits)}")
        return g

    def _expo(self, env, res: PassResult) -> None:
        graph, a, b = env.graph.build_exponential_graph(self.expo_n)
        t0 = perf_counter()
        result = env.graph.merge_commits(graph, a, b)
        res.record("expo", t0)
        env.on_merge(graph, a, b, result)
        calls = result.stats.merge_calls
        res.digest.update(b"expo %d %s" % (calls, result.kind.encode()))
        if calls != 2 ** self.expo_n + 1 or result.kind != "clean":
            raise CheckFailed(f"exponential family n={self.expo_n}: {result.kind}, {calls} merge calls")

    @staticmethod
    def _check(g, kind: str, result, expected: dict[str, bytes]) -> dict[str, bytes]:
        if kind == "rebase":
            if result.kind != "clean":
                raise CheckFailed(f"rebase stopped with {result.kind} at pick {result.failed_index}")
            tree = g[result.head].tree
        else:
            if result.commit is None:
                raise CheckFailed(f"{kind} gave {result.kind} on {sorted(result.conflicts)}")
            tree = result.commit.tree
        if tree != expected:
            bad = sorted(p for p in set(tree) | set(expected) if tree.get(p) != expected.get(p))
            raise CheckFailed(f"{kind} tree differs from the plan in {bad[:3]}")
        return tree


WORKLOADS = {w.name: w for w in (DiffWorkload, MergeWorkload, HistoryWorkload)}
