"""Write tests/git_fixtures.json: what git's own diff, merge-file and merge
give on seeded small inputs, for tests/test_git_parity.py, which never calls
git.

The histogram, myers and patience censuses hold only git's changed-line
counts per side (``--numstat``, which no hunk placement changes) and a digest
of their inputs, which are regenerated from their seeds; diffmerge must agree
on every pair.  The myers witnesses are three inputs, one of over 2^20 lines,
on which one rule of git's frequent-line discard decides the counts, recorded
under ``--diff-algorithm=myers`` and ``--minimal``.  The finding-3 witness is
one triple that git's ``recursive`` strategy merges cleanly into bytes that
depend on ``-Xdiff-algorithm``, recorded under each algorithm and under a
plain ``ort`` merge, which ignores the option.  The merge census holds, for
seeded small triples regenerated from their seed (and a digest of them), the
bytes and exit status of those same five merges; ``recursive`` is the only
strategy whose content merge follows ``-Xdiff-algorithm``, so only it can pin
diffmerge's merges under each algorithm.  The edge section holds the same
for seeded triples of CR/LF lines and conflict-marker text, some of whose
files lack a final newline.

    python tests/make_git_fixtures.py             # run git, record everything
    python tests/make_git_fixtures.py --rematch   # keep git's outputs, re-record
                                                  # which cases diffmerge matches

Both modes compute, with the diffmerge under src/, the cases whose output
equals git's; the parity test asserts that exactly those match, so a change
that gains or loses a case re-records with --rematch and says why.  git runs
with no system or global configuration, in a scratch directory.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # as a script, record this checkout's diffmerge
    sys.path.insert(0, str(HERE.parent / "src"))

from diffmerge.core import InternTable  # noqa: E402
from diffmerge.engine import ALGORITHMS, diff_lines  # noqa: E402
from diffmerge.merge3 import STYLES, MergeOptions, merge3  # noqa: E402
from diffmerge.slider import slide_changed_lines  # noqa: E402

FIXTURES = HERE / "git_fixtures.json"

# nine source-like lines, blank, brace and indented ones among them
ALPHABET = [b"\n", b"{\n", b"}\n", b"f() {\n", b"  x;\n", b"  y;\n", b"  if (a) {\n", b"    b();\n", b"  return;\n"]
MERGE_SEED, MERGE_CASES = 25, 300
DIFF_SEED, DIFF_CASES = 26, 200

# histogram census: small-alphabet pairs with block moves, pairs whose two
# frequent lines occur 55-75 times, either side of histogram's 64-occurrence
# cap, and pairs of 1200-3000 lines whose only common line is a } that makes
# up 5 % of each, so that histogram falls back to Myers on the whole range.
# myers census: small files rich in frequent lines, some of exactly 256 or 1024
# lines, and files of 200-1500 lines with blocks of 202-400 lines inserted,
# longer than the 201 lines the frequent-line rule reads around a line.
# patience census: the two corpora of each of the others
CENSUS_ALPHABET = [b"\n", b"}\n", b"{\n", b"a\n", b"b\n", b"x;\n", b"return;\n", b"  y();\n", b"else\n"]
FREQUENT = [b"}\n", b"\n", b"break;\n"]
CENSUS = {  # corpus: algorithms, seed, pairs
    "small-alphabet": (("histogram", "patience"), 31, 1500),
    "near-the-cap": (("histogram", "patience"), 65, 300),
    "frequent-lines": (("myers", "patience"), 30, 600),
    "long-blocks": (("myers", "patience"), 202, 300),
    "histogram-fallback": (("histogram",), 5, 40),
}
CENSUS_COMMANDS = {
    "histogram": "git diff --no-index --numstat --histogram old new",
    "myers": "git diff --no-index --numstat --diff-algorithm=myers old new",
    "patience": "git diff --no-index --numstat --patience old new",
}
CENSUSES = [(algorithm, corpus) for algorithm in CENSUS_COMMANDS for corpus, (algorithms, _, _) in CENSUS.items()
            if algorithm in algorithms]
WITNESS_COMMANDS = {"myers": CENSUS_COMMANDS["myers"], "minimal": "git diff --no-index --numstat --minimal old new"}
WITNESSES = ("minimal-is-not-minimal", "window-decides", "limit-capped-at-1024")

MERGE_COMMAND = "git merge-file -p {flag}-L ours -L base -L theirs ours base theirs"
# finding 3: c c a a a merged with c c a a (ours) and c / blank / a / blank / c a a (theirs)
FINDING3 = (b"c\nc\na\na\na\n", b"c\nc\na\na\n", b"c\n\na\n\nc\na\na\n")
FINDING3_SETUP = ("git init; f = base, committed; git checkout -b theirs; f = theirs, committed; "
                  "git checkout -; f = ours, committed (each commit with --allow-empty)")
FINDING3_COMMANDS = {**{algorithm: f"git merge -s recursive -Xdiff-algorithm={algorithm} theirs"
                        for algorithm in ALGORITHMS},
                     "ort": "git merge theirs"}
# merge census: bases of 3-14 lines over eight short source-like lines, each
# side 1-3 block moves, insertions or deletions of 1-3 lines; then a triple
# that git merges cleanly and whose histogram base diffs set the two
# insertions apart until they are compacted
MERGE_CENSUS_SEED, MERGE_CENSUS_CASES = 2, 200
MERGE_CENSUS_LINES = [b"a\n", b"b\n", b"{\n", b"}\n", b"\n", b"  x;\n", b"  return;\n", b"f() {\n"]
MERGE_CENSUS_WITNESS = (b"b\nc\nc\nc\n", b"b\nb\nc\nc\nc\nc\nc\n", b"b\nc\na\nc\nc\nc\n")
# edge triples: bases of 2-10 lines over LF and CR/LF lines and the text of
# conflict markers, each side edited as the merge census edits, and each
# file missing its final newline one time in four
EDGE_SEED, EDGE_CASES = 4, 100
EDGE_LINES = [b"a\n", b"b\n", b"a\r\n", b"b\r\n", b"\r\n", b"\n",
              b"<<<<<<< HEAD\n", b"=======\n", b">>>>>>> theirs\n", b"||||||| base\n"]
MERGE_FLAGS = {style: "" if style == "merge" else f"--{style} " for style in STYLES}
DIFF_COMMAND = "git diff --no-index --no-color --no-ext-diff -U0 --diff-algorithm={algorithm} --{heuristic} old new"
HEURISTICS = ("indent-heuristic", "no-indent-heuristic")
DIFF_SETTINGS = [f"{algorithm}/{heuristic}" for algorithm in ALGORITHMS for heuristic in HEURISTICS]


def _lines(rng: random.Random, lo: int, hi: int) -> list[bytes]:
    return [rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi))]


def _edited(rng: random.Random, lines: list[bytes]) -> list[bytes]:
    """1-3 edits: a run of up to two lines deleted, replaced, or inserted."""
    out = list(lines)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        out[at:at + rng.randint(0, 2)] = _lines(rng, 0 if out else 1, 2)
    return out


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def unb64(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


def merge_inputs() -> list[tuple[str, bytes, bytes, bytes]]:
    rng = random.Random(MERGE_SEED)
    cases = []
    for i in range(MERGE_CASES):
        base = _lines(rng, 3, 9)
        ours, theirs = _edited(rng, base), _edited(rng, base)
        cases.append((f"t{i:03d}", b"".join(base), b"".join(ours), b"".join(theirs)))
    return cases


def diff_inputs() -> list[tuple[str, bytes, bytes]]:
    rng = random.Random(DIFF_SEED)
    cases = []
    for i in range(DIFF_CASES):
        old = _lines(rng, 3, 9)
        cases.append((f"p{i:03d}", b"".join(old), b"".join(_edited(rng, old))))
    return cases


def _merge_census_side(rng: random.Random, base: list[bytes], lines: list[bytes] = MERGE_CENSUS_LINES) -> list[bytes]:
    """1-3 edits of a base: a block of 1-3 lines moved, inserted or deleted."""
    out = list(base)
    for _ in range(rng.randint(1, 3)):
        kind, at, length = rng.choice(("move", "insert", "delete")), rng.randrange(len(out) + 1), rng.randint(1, 3)
        if kind == "insert" or not out:
            out[at:at] = rng.choices(lines, k=length)
        else:
            block = out[at:at + length]
            del out[at:at + length]
            if kind == "move":
                to = rng.randrange(len(out) + 1)
                out[to:to] = block
    return out


def merge_census_inputs() -> list[tuple[str, bytes, bytes, bytes]]:
    """The (key, base, ours, theirs) triples of the merge census, regenerated from its seed."""
    rng = random.Random(MERGE_CENSUS_SEED)
    cases = []
    for i in range(MERGE_CENSUS_CASES):
        base = rng.choices(MERGE_CENSUS_LINES, k=rng.randint(3, 14))
        ours, theirs = _merge_census_side(rng, base), _merge_census_side(rng, base)
        cases.append((f"m{i:03d}", b"".join(base), b"".join(ours), b"".join(theirs)))
    return cases + [("histogram-witness", *MERGE_CENSUS_WITNESS)]


def merge_edge_inputs() -> list[tuple[str, bytes, bytes, bytes]]:
    """The (key, base, ours, theirs) triples of the edge section, regenerated from its seed."""
    rng = random.Random(EDGE_SEED)
    cases = []
    for i in range(EDGE_CASES):
        base = rng.choices(EDGE_LINES, k=rng.randint(2, 10))
        files = [b"".join(f) for f in (base, _merge_census_side(rng, base, EDGE_LINES),
                                       _merge_census_side(rng, base, EDGE_LINES))]
        cases.append((f"e{i:03d}", *(f[:-1] if f and rng.random() < 0.25 else f for f in files)))
    return cases


def _census_edited(rng: random.Random, lines: list[bytes], alphabet: list[bytes]) -> list[bytes]:
    """1-4 edits of up to three lines each, then a block moved in 30 % of pairs."""
    out = list(lines)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(out) + 1)
        out[at:at + rng.randint(0, 3)] = rng.choices(alphabet, k=rng.randint(0, 3))
    if len(out) > 1 and rng.random() < 0.3:
        at = rng.randrange(len(out))
        block = out[at:at + rng.randint(1, 6)]
        del out[at:at + len(block)]
        to = rng.randrange(len(out) + 1)
        out[to:to] = block
    return out


def _frequent_block(rng: random.Random, length: int, share: float) -> list[bytes]:
    """length new lines, each one of FREQUENT with probability share."""
    return [rng.choice(FREQUENT) if rng.random() < share else b"new %d\n" % rng.randrange(10**9) for _ in range(length)]


def census_inputs(corpus: str) -> list[tuple[bytes, bytes]]:
    """The (old, new) pairs of one census corpus, regenerated from its seed."""
    _, seed, count = CENSUS[corpus]
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        if corpus == "small-alphabet":
            alphabet = rng.sample(CENSUS_ALPHABET, rng.randint(1, 7))
            old = rng.choices(alphabet, k=rng.randint(1, 30))
            new = _census_edited(rng, old, alphabet)
        elif corpus == "near-the-cap":
            alphabet = [b"}\n", b"\n"] + [b"line %d\n" % i for i in range(rng.randint(0, 40))]
            old = [b"}\n"] * rng.randint(55, 75) + [b"\n"] * rng.randint(55, 75) + alphabet[2:]
            rng.shuffle(old)
            new = _census_edited(rng, old, alphabet)
        elif corpus == "frequent-lines":
            r = rng.random()
            alphabet = FREQUENT + [b"x%d\n" % i for i in range(rng.randint(1, 12))]
            weights = [rng.randint(1, 6) for _ in FREQUENT] + [1] * (len(alphabet) - len(FREQUENT))
            old = rng.choices(alphabet, weights, k=256 if r < 0.1 else 1024 if r < 0.15 else rng.randint(1, 60))
            new = list(old)
            for _ in range(rng.randint(1, 5)):
                at = rng.randrange(len(new) + 1)
                new[at:at + rng.randint(0, 6)] = _frequent_block(rng, rng.randint(1, 12), 0.3)
        elif corpus == "histogram-fallback":
            old, new = ([b"}\n" if rng.random() < 0.05 else b"%s %d\n" % (side, i) for i in range(rng.randint(1200, 3000))]
                        for side in (b"old", b"new"))
        else:
            length = rng.randint(200, 1500)
            old = [rng.choice(FREQUENT) if rng.random() < 0.3 else b"line %d\n" % rng.randrange(length) for _ in range(length)]
            new = list(old)
            for _ in range(rng.randint(1, 2)):
                at = rng.randrange(len(new) + 1)
                new[at:at + rng.randint(0, 50)] = _frequent_block(rng, rng.randint(202, 400), rng.uniform(0.1, 0.35))
            if rng.random() < 0.5:
                old, new = new, old
        pairs.append((b"".join(old), b"".join(new)))
    return pairs


def witness_inputs(key: str) -> tuple[bytes, bytes]:
    """The (old, new) pair of one of WITNESSES."""
    def lines(tag: bytes, numbers: range) -> bytes:
        return b"".join(b"%s%d\n" % (tag, i) for i in numbers)

    if key == "minimal-is-not-minimal":
        # F is frequent and sits among unmatched lines, so git's --minimal also
        # discards it: 4 added and 8 deleted, where keeping one F gives 3 and 7
        return b"a\nb\nc\nd\nF\ne\nf\ng\n", b"F\n" * 4
    if key == "window-decides":
        # the } at old line 61 has 160 unmatched lines and itself in its window,
        # and is discarded; the block's 300 ] lines lie outside that window
        old = b"top\n" + lines(b"u", range(60)) + b"}\n" + lines(b"u", range(60, 160)) + b"]\n" * 300 + b"u160\nbottom\n"
        return old, b"top\n" + b"}\n" * 40 + b"]\n" * 40 + b"bottom\n"
    # files of over 2^20 lines, where xdl_bogosqrt is 2048: F, which the other
    # file holds 1101 times, is still frequent, as the limit is capped at 1024
    ends = b"F\n" * 1100 + b"x\n" * ((1 << 20) - 1100)
    return (ends + lines(b"u", range(10)) + b"F\n" + lines(b"u", range(10, 20)),
            ends + lines(b"v", range(10)) + b"F\n" + lines(b"v", range(10, 20)))


def census_digest(pairs: list[tuple[bytes, bytes]]) -> str:
    digest = hashlib.sha256()
    for old, new in pairs:
        digest.update(b"%d %d\n" % (len(old), len(new)) + old + new)
    return digest.hexdigest()


def diffmerge_numstat(old: bytes, new: bytes, algorithm: str) -> list[int]:
    """Lines added and deleted by one of diffmerge's diffs, as git's --numstat counts them."""
    table = InternTable()
    flags = diff_lines(table.intern(old), table.intern(new), algorithm)
    return [sum(flags.new_flags), sum(flags.old_flags)]


def _numstat(out: bytes) -> list[int]:
    """Lines added and deleted from one --numstat line; no output is no change."""
    return [int(n) for n in out.split(b"\t")[:2]] if out else [0, 0]


_HUNK = re.compile(rb"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@", re.MULTILINE)


def changed_lines(unified: bytes) -> list[list[int]]:
    """0-based changed line numbers of old and new, from -U0 hunk headers."""
    old, new = [], []
    for match in _HUNK.finditer(unified):
        for start, count, out in ((match[1], match[2], old), (match[3], match[4], new)):
            count = 1 if count is None else int(count)
            out.extend(range(int(start) - 1, int(start) - 1 + count))
    return [old, new]


def _run_git(args: list[str], cwd: str, ok: tuple[int, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull, HOME=cwd, LC_ALL="C")
    done = subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True, check=False)
    if done.returncode not in ok:
        raise SystemExit(f"git {' '.join(args)} exited {done.returncode}: {done.stderr.decode(errors='replace')}")
    return done


def _git(args: list[str], cwd: str, ok: tuple[int, ...]) -> bytes:
    return _run_git(args, cwd, ok).stdout


def _git_merge(command: str, repo: Path, triple: tuple[bytes, bytes, bytes] = FINDING3) -> dict:
    """git's merged f and exit status (0 clean, 1 conflicted) for a triple (by
    default the finding-3 one), in a new repository set up as FINDING3_SETUP says."""
    base, ours, theirs = triple
    repo.mkdir()
    cwd = str(repo)
    identity = ["-c", "user.name=diffmerge", "-c", "user.email=diffmerge@example.invalid"]
    _git(["init", "-q"], cwd, (0,))
    for data, steps in ((base, []), (theirs, [["checkout", "-q", "-b", "theirs"]]), (ours, [["checkout", "-q", "-"]])):
        for step in steps:
            _git(step, cwd, (0,))
        Path(repo, "f").write_bytes(data)
        _git(["add", "f"], cwd, (0,))
        _git([*identity, "commit", "-q", "--allow-empty", "-m", "f"], cwd, (0,))
    done = _run_git([*identity, *command.split()[1:]], cwd, (0, 1))
    return {"f": _b64(Path(repo, "f").read_bytes()), "exit": done.returncode}


def record_git() -> dict:
    with tempfile.TemporaryDirectory() as cwd:
        version = _git(["--version"], cwd, (0,)).decode().strip()
        merges = []
        for key, base, ours, theirs in merge_inputs():
            for name, data in (("base", base), ("ours", ours), ("theirs", theirs)):
                Path(cwd, name).write_bytes(data)
            git = {}
            for style, flag in MERGE_FLAGS.items():
                # the exit code is the number of conflicts, capped at 127
                git[style] = _b64(_git(MERGE_COMMAND.format(flag=flag).split()[1:], cwd, tuple(range(128))))
            merges.append({"key": key, "base": _b64(base), "ours": _b64(ours), "theirs": _b64(theirs), "git": git})
        diffs = []
        for key, old, new in diff_inputs():
            Path(cwd, "old").write_bytes(old)
            Path(cwd, "new").write_bytes(new)
            git = {}
            for setting in DIFF_SETTINGS:
                algorithm, heuristic = setting.split("/")
                command = DIFF_COMMAND.format(algorithm=algorithm, heuristic=heuristic)
                git[setting] = changed_lines(_git(command.split()[1:], cwd, (0, 1)))
            diffs.append({"key": key, "old": _b64(old), "new": _b64(new), "git": git})
        census: dict = {}
        for algorithm, corpus in CENSUSES:
            pairs = census_inputs(corpus)
            census.setdefault(f"{algorithm}_census_inputs", {})[corpus] = census_digest(pairs)
            cases = census.setdefault(f"{algorithm}_census", [])
            for i, (old, new) in enumerate(pairs):
                Path(cwd, "old").write_bytes(old)
                Path(cwd, "new").write_bytes(new)
                git = _numstat(_git(CENSUS_COMMANDS[algorithm].split()[1:], cwd, (0, 1)))
                cases.append({"corpus": corpus, "key": f"c{i:04d}", "git": git})
        witnesses = []
        for key in WITNESSES:
            old, new = witness_inputs(key)
            Path(cwd, "old").write_bytes(old)
            Path(cwd, "new").write_bytes(new)
            git = {mode: _numstat(_git(command.split()[1:], cwd, (0, 1))) for mode, command in WITNESS_COMMANDS.items()}
            witnesses.append({"key": key, "inputs": census_digest([(old, new)]), "git": git})
        finding3 = {"inputs": dict(zip(("base", "ours", "theirs"), map(_b64, FINDING3))),
                    "git": {name: _git_merge(command, Path(cwd, name)) for name, command in FINDING3_COMMANDS.items()}}
        merge_census = record_merges(cwd, "merge_census", merge_census_inputs())
        merge_edge = record_merges(cwd, "merge_edge", merge_edge_inputs())
    return {
        "git_version": version,
        "commands": {"merge": MERGE_COMMAND, "diff": DIFF_COMMAND,
                     **{f"{algorithm}_census": command for algorithm, command in CENSUS_COMMANDS.items()},
                     **{f"{mode}_witness": command for mode, command in WITNESS_COMMANDS.items()},
                     **{f"finding3 {name}": command for name, command in FINDING3_COMMANDS.items()},
                     "finding3 setup": FINDING3_SETUP,
                     **{f"merge_census {name}": command for name, command in FINDING3_COMMANDS.items()},
                     "merge_census setup": FINDING3_SETUP + ", one repository per triple and command",
                     **{f"merge_edge {name}": command for name, command in FINDING3_COMMANDS.items()},
                     "merge_edge setup": FINDING3_SETUP + ", one repository per triple and command"},
        "environment": "GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null HOME=<scratch directory> LC_ALL=C",
        "merge_styles": MERGE_FLAGS,
        "merge": merges,
        "diff": diffs,
        **census,
        "myers_witnesses": witnesses,
        "finding3": finding3,
        **merge_census,
        **merge_edge,
    }


def record_merges(cwd: str, section: str, cases: list[tuple[str, bytes, bytes, bytes]]) -> dict:
    """git's merges of a section's triples under each of FINDING3_COMMANDS, and a digest of the triples."""
    records = []
    for key, *triple in cases:
        git = {name: _git_merge(command, Path(cwd, f"{key}-{name}"), tuple(triple))
               for name, command in FINDING3_COMMANDS.items()}
        records.append({"key": key, "git": git})
    return {f"{section}_inputs": merge_census_digest(cases), section: records}


def merge_census_digest(cases: list[tuple[str, bytes, bytes, bytes]]) -> str:
    digest = hashlib.sha256()
    for key, *triple in cases:
        digest.update(key.encode() + b"".join(b"\n%d\n" % len(f) + f for f in triple))
    return digest.hexdigest()


def diffmerge_merge(case: dict, style: str) -> bytes:
    options = MergeOptions(algorithm="myers", style=style)
    return merge3(unb64(case["base"]), unb64(case["ours"]), unb64(case["theirs"]), options).rendered


def diffmerge_changed_lines(case: dict, setting: str) -> list[list[int]]:
    algorithm, heuristic = setting.split("/")
    table = InternTable()
    old, new = table.intern(unb64(case["old"])), table.intern(unb64(case["new"]))
    flags = slide_changed_lines(diff_lines(old, new, algorithm), old, new, heuristic == "indent-heuristic")
    return [[i for i, f in enumerate(side) if f] for side in (flags.old_flags, flags.new_flags)]


def finding3_merge(name: str, triple: tuple[bytes, bytes, bytes] = FINDING3):
    """diffmerge's merge of a triple (by default the finding-3 one) as one of
    FINDING3_COMMANDS runs it; ``ort`` merges with histogram."""
    base, ours, theirs = triple
    options = MergeOptions(algorithm="histogram" if name == "ort" else name, labels=("HEAD", "base", "theirs"))
    return merge3(base, ours, theirs, options)


SETTINGS = ([f"merge-file {style}" for style in STYLES] + [f"diff {setting}" for setting in DIFF_SETTINGS]
            + [f"merge {name}" for name in FINDING3_COMMANDS] + [f"edge {name}" for name in FINDING3_COMMANDS])
MERGE_SECTIONS = {"merge": ("merge_census", merge_census_inputs), "edge": ("merge_edge", merge_edge_inputs)}


def matches(fixtures: dict, setting: str) -> list[str]:
    """Keys of the cases where diffmerge, under one of SETTINGS, gives git's output."""
    command, option = setting.split(" ")
    if command == "merge-file":
        return [case["key"] for case in fixtures["merge"] if diffmerge_merge(case, option) == unb64(case["git"][option])]
    if command in MERGE_SECTIONS:
        section, inputs = MERGE_SECTIONS[command]
        keys = []
        for (key, *triple), case in zip(inputs(), fixtures[section]):
            git, got = case["git"][option], finding3_merge(option, tuple(triple))
            if got.rendered == unb64(git["f"]) and got.clean == (git["exit"] == 0):
                keys.append(key)
        return keys
    return [case["key"] for case in fixtures["diff"] if diffmerge_changed_lines(case, option) == case["git"][option]]


def _dump(fixtures: dict) -> str:
    """JSON with one case, or one setting's matches, a line, so a re-recording diffs line by line."""
    entries = []
    for key, value in sorted(fixtures.items()):
        if isinstance(value, list):
            value = "[\n" + ",\n".join(json.dumps(item, sort_keys=True) for item in value) + "\n]"
        elif key == "matching":
            value = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()) + "\n}"
        else:
            value = json.dumps(value, sort_keys=True)
        entries.append(f"{json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rematch", action="store_true", help="keep the recorded git outputs; re-record the matches")
    args = parser.parse_args()
    fixtures = json.loads(FIXTURES.read_text()) if args.rematch else record_git()
    fixtures["matching"] = {setting: matches(fixtures, setting) for setting in SETTINGS}
    FIXTURES.write_text(_dump(fixtures))
    sections = {"merge-file": "merge", "diff": "diff", **{command: s for command, (s, _) in MERGE_SECTIONS.items()}}
    for name, keys in fixtures["matching"].items():
        total = len(fixtures[sections[name.split(" ")[0]]])
        print(f"{name}: {len(keys)} / {total}")
    for algorithm, corpus in CENSUSES:
        pairs = census_inputs(corpus)
        cases = [case for case in fixtures[f"{algorithm}_census"] if case["corpus"] == corpus]
        agree = sum(diffmerge_numstat(*pair, algorithm) == case["git"] for pair, case in zip(pairs, cases))
        print(f"{algorithm} census {corpus}: {agree} / {len(cases)} agree with git")
    for case in fixtures["myers_witnesses"]:
        got = diffmerge_numstat(*witness_inputs(case["key"]), "myers")
        print(f"myers witness {case['key']}: git {case['git']}, diffmerge {got}")
    for name, git in fixtures["finding3"]["git"].items():
        got = finding3_merge(name)
        print(f"finding 3 {name}: git exits {git['exit']}, diffmerge {'clean' if got.clean else 'conflicts'}, "
              f"bytes {'equal' if got.rendered == unb64(git['f']) else 'differ'}")


if __name__ == "__main__":
    main()
