"""Seeded input generators for the three workloads.

Everything here depends only on the ``random.Random`` passed in, so one seed
always gives the same bytes.  The engine under test never sees the generator:
it receives only the files (diff, merge) or the commit trees (history).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Source-code-shaped lines
#
# C-like functions with nested blocks.  Indentation, blank lines and runs of
# closing braces make a few lines very frequent (more than 64 occurrences in
# any file of a few thousand lines, which triggers histogram's fallback to
# myers), while assignments and calls over a pool of identifiers give the
# unique lines that patience and histogram anchor on.  Blank lines and
# braces next to changed lines give the indent-heuristic slider groups to
# move.

_WORDS = (
    "buf len idx count node next prev head tail key val ret err flags mode size "
    "offset limit state ctx item entry table hash line token path name data src "
    "dst tmp res cur pos end start width height depth level parent child left "
    "right total sum max min step seen cache queue stack list map set"
).split()
_TYPES = ("int", "long", "size_t", "char *", "struct node *", "unsigned", "bool", "double")
_FUNCS = ("memcpy", "strlen", "assert", "free", "push", "pop", "emit", "update", "check", "lookup")


class SourceText:
    """Generator of C-like source lines over a seeded identifier pool."""

    def __init__(self, rng: random.Random, pool_size: int = 300):
        self.rng = rng
        self.serial = 0
        words = _WORDS
        self.idents = [
            f"{rng.choice(words)}_{rng.choice(words)}{rng.randrange(10)}" for _ in range(pool_size)
        ]

    def unique(self, depth: int) -> str:
        """A comment line that occurs nowhere else."""
        self.serial += 1
        return f"{'    ' * depth}// {self.ident()} note {self.serial}\n"

    def ident(self) -> str:
        return self.rng.choice(self.idents)

    def statement(self, depth: int) -> str:
        rng = self.rng
        pad = "    " * depth
        k = rng.random()
        if k < 0.35:
            return f"{pad}{self.ident()} = {self.ident()} + {rng.randrange(64)};\n"
        if k < 0.55:
            return f"{pad}{rng.choice(_FUNCS)}({self.ident()}, {self.ident()});\n"
        if k < 0.65:
            return f"{pad}{rng.choice(_TYPES)} {self.ident()} = {rng.randrange(1000)};\n"
        if k < 0.72:
            return f"{pad}return {rng.choice(('0', '-1', 'ret', 'err', 'NULL'))};\n"
        if k < 0.78:
            return f"{pad}// {self.ident()} {self.ident()} {self.ident()}\n"
        if k < 0.86:
            return f"{pad}break;\n"
        return "\n"

    def block(self, out: list[str], depth: int, budget: int) -> None:
        rng = self.rng
        pad = "    " * depth
        for _ in range(budget):
            r = rng.random()
            if r < 0.16 and depth < 4:
                kw = rng.choice(("if", "while", "for", "if", "switch"))
                out.append(f"{pad}{kw} ({self.ident()} {rng.choice(('<', '!=', '=='))} {self.ident()}) {{\n")
                self.block(out, depth + 1, rng.randint(1, 5))
                out.append(f"{pad}}}\n")
            else:
                out.append(self.statement(depth))

    def lines(self, n: int) -> list[str]:
        """Exactly ``n`` lines: a sequence of functions."""
        rng = self.rng
        out: list[str] = []
        while len(out) < n:
            out.append(f"static {rng.choice(_TYPES)} {self.ident()}(struct ctx *{self.ident()}, int {self.ident()})\n")
            out.append("{\n")
            self.block(out, 1, rng.randint(3, 14))
            out.append("}\n")
            out.append("\n")
        return out[:n]


def _indent_of(line: str) -> int:
    return (len(line) - len(line.lstrip(" "))) // 4


# --------------------------------------------------------------------------
# Two-way edit plans (diff workload)


def edit_pair(src: SourceText, old: list[str], rate: float) -> list[str]:
    """New version of ``old``: scattered 1-3-line edits plus moved and
    re-indented blocks.  ``rate`` is the share of lines with a point edit."""
    rng = src.rng
    n = len(old)
    edits = {}
    for pos in rng.sample(range(n), max(1, int(n * rate))):
        edits[pos] = rng.choice(("replace", "insert", "delete"))
    new: list[str] = []
    skip = 0
    for i, line in enumerate(old):
        if skip:
            skip -= 1
            continue
        kind = edits.get(i)
        depth = _indent_of(line)
        if kind is None:
            new.append(line)
        elif kind == "insert":
            new.append(line)
            new.extend(src.statement(depth) for _ in range(rng.randint(1, 3)))
        elif kind == "delete":
            skip = rng.randint(0, 2)
        else:
            skip = rng.randint(0, 2)
            new.extend(src.statement(depth) for _ in range(rng.randint(1, 3)))

    blocks = max(1, n // 4000)
    for _ in range(blocks):
        # moved block
        if len(new) > 60:
            size = rng.randint(5, 30)
            start = rng.randrange(len(new) - size)
            chunk = new[start:start + size]
            del new[start:start + size]
            dest = rng.randrange(len(new))
            new[dest:dest] = chunk
        # re-indented block wrapped in a new conditional
        if len(new) > 40:
            size = rng.randint(4, 20)
            start = rng.randrange(len(new) - size)
            depth = _indent_of(new[start])
            pad = "    " * depth
            body = ["    " + line if line != "\n" else line for line in new[start:start + size]]
            new[start:start + size] = [f"{pad}if ({src.ident()}) {{\n", *body, f"{pad}}}\n"]
    return new


# --------------------------------------------------------------------------
# Three-way edit plans (merge workload)

_GAP = 12  # unchanged base lines kept between any two planned edits


@dataclass
class Edit:
    pos: int  # base line index the edit starts at
    drop: int  # base lines removed
    add: list[str]  # lines inserted in their place


def apply_edits(base: list[str], edits: list[Edit]) -> list[str]:
    out: list[str] = []
    cursor = 0
    for e in sorted(edits, key=lambda e: e.pos):
        out.extend(base[cursor:e.pos])
        out.extend(e.add)
        cursor = e.pos + e.drop
    out.extend(base[cursor:])
    return out


def _point_edit(src: SourceText, base: list[str], pos: int) -> Edit:
    rng = src.rng
    depth = _indent_of(base[pos])
    kind = rng.choice(("replace", "insert", "delete"))
    add = [src.statement(depth) for _ in range(rng.randint(1, 3))]
    if kind == "insert":
        return Edit(pos, 0, add)
    drop = rng.randint(1, 3)
    return Edit(pos, drop, [] if kind == "delete" else add)


@dataclass
class MergeCase:
    kind: str  # "disjoint" | "overlap" | "identical" | "abab"
    base: list[str]
    ours: list[str]
    theirs: list[str]
    expected: list[str] | None  # clean result (disjoint, identical)
    expected_ours: list[str] | None = None  # conflicts resolved to ours (overlap)
    expected_theirs: list[str] | None = None
    shared_lines: frozenset[str] = frozenset()  # lines both sides added (identical)


def merge_case(src: SourceText, n: int, kind: str, rate: float = 0.01) -> MergeCase:
    """A base of ``n`` lines and two descendants following one edit plan."""
    rng = src.rng
    if kind == "abab":
        # the shape of acceptance criterion 6: ours extends the repetition at
        # the top, theirs replaces its last pair by one line; one conflict
        # spans the file
        # The merge of this shape takes time quadratic in its length (3.5 s
        # at 6k lines against 0.1 s for other triples), so it gets a tenth
        # of the size it is asked for, to stay a share of the work rather
        # than most of it.
        a, b = src.statement(1), src.statement(2)
        k = max(2, n // 20)
        base = [a, b] * k
        return MergeCase(kind, base, [a, b] + base, [a, b] * (k - 1) + [src.unique(0)], None)

    base = src.lines(n)
    slots = list(range(_GAP, n - _GAP, _GAP))
    picked = sorted(rng.sample(slots, min(len(slots), max(4, int(n * rate)))))
    ours_e, theirs_e, shared, clash = [], [], [], []
    for i, pos in enumerate(picked):
        if kind == "overlap" and i % 8 == 0:
            # both sides rewrite the same two base lines with different text
            clash.append((Edit(pos, 2, [src.unique(1)]), Edit(pos, 2, [src.unique(1), src.unique(2)])))
            continue
        edit = _point_edit(src, base, pos)
        if kind == "identical" and i % 4 == 0:
            shared.append(edit)
        elif i % 2:
            ours_e.append(edit)
        else:
            theirs_e.append(edit)
    ours = apply_edits(base, ours_e + shared + [c[0] for c in clash])
    theirs = apply_edits(base, theirs_e + shared + [c[1] for c in clash])
    case = MergeCase(kind, base, ours, theirs, None)
    if kind == "overlap":
        case.expected_ours = apply_edits(base, ours_e + theirs_e + [c[0] for c in clash])
        case.expected_theirs = apply_edits(base, ours_e + theirs_e + [c[1] for c in clash])
    else:
        case.expected = apply_edits(base, ours_e + theirs_e + shared)
        case.shared_lines = frozenset(line for e in shared for line in e.add)
    return case


# --------------------------------------------------------------------------
# Commit DAG (history workload)
#
# Files are lists of slots.  Odd slots hold fixed source lines and are never
# edited, so every edit keeps an unchanged line on each side.  Even slots
# belong to lanes: lane 0 is the mainline and every live branch owns one
# other lane, so two lines of development never edit the same slot.  Each
# edit writes a globally increasing version into the slot, hence the merge
# of any two commits is, slot by slot, the value with the higher version.
# That gives the expected tree of every merge without running a merge.


@dataclass
class DagCommit:
    cid: str
    parents: tuple[str, ...]
    tree: dict[str, bytes]


@dataclass
class DagPlan:
    commits: list[DagCommit]  # in insertion order
    # (kind, x, y, expected tree) with kind "merge" (x, y heads), "rebase"
    # (x branch head onto y) or "pick" (x cherry-picked onto y)
    reads: list[tuple[str, str, str, dict[str, bytes]]]


class _Dag:
    def __init__(self, rng: random.Random, files: int, slots: int, lanes: int):
        self.rng = rng
        self.src = SourceText(rng, 120)
        self.names = [f"src/{w}_{i}.c" for i, w in enumerate(rng.sample(_WORDS, files))]
        self.slots = slots
        self.lanes = lanes
        self.version = 0
        self.fixed = {f: [self.src.statement(rng.randrange(3)) for _ in range(slots)] for f in self.names}
        # state: file -> list of versions per even slot
        self.state: dict[str, dict[str, list[int]]] = {}
        self.blobs: dict[tuple[str, tuple[int, ...]], bytes] = {}
        self.commits: list[DagCommit] = []

    def render(self, versions: dict[str, list[int]]) -> dict[str, bytes]:
        return {f: self.blob(f, tuple(versions[f])) for f in self.names}

    def blob(self, f: str, versions: tuple[int, ...]) -> bytes:
        key = (f, versions)
        data = self.blobs.get(key)
        if data is None:
            fixed = self.fixed[f]
            stem = f[4:-2]
            parts = []
            for s in range(self.slots):
                parts.append(fixed[s] if s % 2 else f"    {stem}_{s} = step({s}, {versions[s // 2]});\n")
            data = self.blobs[key] = "".join(parts).encode()
        return data

    def add(self, cid: str, parents: tuple[str, ...], versions: dict[str, list[int]]) -> None:
        self.state[cid] = versions
        self.commits.append(DagCommit(cid, parents, self.render(versions)))

    def edit(self, cid: str, parent: str, lane: int) -> str:
        rng = self.rng
        versions = {f: list(v) for f, v in self.state[parent].items()}
        owned = [k for k in range(self.slots // 2) if k % self.lanes == lane]
        for f in rng.sample(self.names, rng.randint(1, 3)):
            for k in rng.sample(owned, min(len(owned), rng.randint(1, 2))):
                self.version += 1
                versions[f][k] = self.version
        self.add(cid, (parent,), versions)
        return cid

    def joined(self, a: str, b: str) -> dict[str, list[int]]:
        va, vb = self.state[a], self.state[b]
        return {f: [max(x, y) for x, y in zip(va[f], vb[f])] for f in self.names}

    def merge(self, cid: str, a: str, b: str) -> str:
        self.add(cid, (a, b), self.joined(a, b))
        return cid


def commit_dag(rng: random.Random, mainline: int, files: int = 20, slots: int = 48, lanes: int = 6,
               period: int = 3, length: int = 4) -> DagPlan:
    """A mainline of ``mainline`` commits with feature branches on a fixed
    schedule: one branch forks every ``period`` steps, and every fourth fork
    is a pair of branches that merge each other (criss-cross) after two
    commits.  Each branch gets one commit per step and merges back into the
    mainline ``length`` steps after it forked.  The schedule, and so the
    number of commits and reads, is the same for every seed; the seed picks
    which files and slots each commit edits."""
    dag = _Dag(rng, files, slots, lanes)
    dag.add("m0", (), {f: [0] * (slots // 2) for f in dag.names})
    head = "m0"
    branches: dict[int, dict] = {}  # lane -> {"head", "commits", "age", "partner"}
    reads: list[tuple[str, str, str, dict[str, bytes]]] = []
    seq = 0

    def name(prefix: str) -> str:
        nonlocal seq
        seq += 1
        return f"{prefix}{seq}"

    def read(kind: str, x: str, y: str) -> None:
        reads.append((kind, x, y, dag.render(dag.joined(x, y))))

    for step in range(1, mainline):
        head = dag.edit(f"m{step}", head, 0)
        if step % period == 0:
            started = []
            for _ in range(2 if (step // period) % 4 == 0 else 1):
                lane = next(lane for lane in range(1, lanes) if lane not in branches)
                branches[lane] = {"head": head, "commits": [], "age": 0, "partner": None}
                started.append(lane)
            if len(started) == 2:
                x, y = started
                branches[x]["partner"], branches[y]["partner"] = y, x
        for lane, br in list(branches.items()):
            br["age"] += 1
            if br["age"] <= length:
                br["head"] = dag.edit(name(f"b{lane}."), br["head"], lane)
                br["commits"].append(br["head"])
            partner = br["partner"]
            if br["age"] == 2 and partner is not None and lane < partner:
                bx, by = br, branches[partner]
                hx, hy = bx["head"], by["head"]
                read("merge", hx, hy)
                bx["head"] = dag.merge(name("x"), hx, hy)
                by["head"] = dag.merge(name("x"), hy, hx)
        for lane, br in list(branches.items()):
            if br["age"] == length + 1:
                if br["partner"] is None:
                    read("rebase", br["head"], head)
                    read("pick", br["commits"][0], head)
                read("merge", br["head"], head)
                head = dag.merge(name("m.merge"), head, br["head"])
                del branches[lane]
    return DagPlan(dag.commits, reads)
