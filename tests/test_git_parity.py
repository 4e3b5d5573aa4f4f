"""diffmerge against git, read from tests/git_fixtures.json; git is never run.

The fixture holds seeded small inputs with the bytes ``git merge-file`` wrote
for them in each style and the lines ``git diff --no-index -U0`` changed
under each algorithm, with the indent heuristic on and off (see
tests/make_git_fixtures.py for the git version and commands).  It also holds
the cases diffmerge matched when it was recorded.  Exactly those must match
now: a lost case is a regression, and a gained one (git's change compaction,
say) is re-recorded with ``make_git_fixtures.py --rematch``.

The histogram, myers and patience censuses hold the lines
``git diff --numstat`` counted as added and deleted under ``--histogram``,
``--diff-algorithm=myers`` and ``--patience`` on seeded corpora, and
diffmerge's diff with the same algorithm must give the same counts on every
pair.  So must its myers diff on the three myers witnesses, each decided by
one rule of git's frequent-line discard.  The finding-3 witness holds the
bytes and exit status of ``git merge -s recursive -Xdiff-algorithm=<alg>``
for each algorithm and of a plain ``ort`` merge; diffmerge's merge3 must
give the same bytes and cleanliness.  The merge census holds the same five
merges of seeded triples; exactly the recorded triples must merge to git's
bytes and cleanliness under each.  So must the edge triples, of CR/LF lines,
conflict-marker text and files without a final newline.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from make_git_fixtures import (
    CENSUS,
    CENSUSES,
    FINDING3,
    EDGE_CASES,
    FINDING3_COMMANDS,
    FIXTURES,
    MERGE_CENSUS_CASES,
    SETTINGS,
    WITNESS_COMMANDS,
    WITNESSES,
    census_digest,
    census_inputs,
    diffmerge_numstat,
    finding3_merge,
    matches,
    merge_census_digest,
    merge_census_inputs,
    merge_edge_inputs,
    unb64,
    witness_inputs,
)

from diffmerge import oracle
from diffmerge.core import InternTable
from diffmerge.histogram import diff_histogram
from diffmerge.myers import diff_myers
from diffmerge.patience import diff_patience

_FIXTURES = json.loads(Path(FIXTURES).read_text())


def test_fixture_records_git_and_its_commands():
    assert _FIXTURES["git_version"].startswith("git version ")
    assert set(_FIXTURES["commands"]) == {
        "merge", "diff", "histogram_census", "myers_census", "patience_census", "myers_witness", "minimal_witness",
        "finding3 setup", *(f"finding3 {name}" for name in FINDING3_COMMANDS),
        "merge_census setup", *(f"merge_census {name}" for name in FINDING3_COMMANDS),
        "merge_edge setup", *(f"merge_edge {name}" for name in FINDING3_COMMANDS)}
    assert len(_FIXTURES["merge"]) == 300 and len(_FIXTURES["diff"]) == 200
    assert len(_FIXTURES["merge_census"]) == MERGE_CENSUS_CASES + 1
    assert len(_FIXTURES["merge_edge"]) == EDGE_CASES
    assert list(_FIXTURES["matching"]) == SETTINGS


def test_merge_census_inputs_are_those_recorded_and_ort_merges_as_histogram():
    """The census triples regenerate from their seed, and on every one git's
    ``ort`` gives the bytes and exit status of ``recursive`` under histogram,
    which is why ``ort`` cannot pin the other algorithms: it ignores
    ``-Xdiff-algorithm``.  The last triple is one git merges cleanly under
    every strategy."""
    cases = merge_census_inputs()
    assert merge_census_digest(cases) == _FIXTURES["merge_census_inputs"], "the inputs changed: re-record"
    assert [key for key, *_ in cases] == [case["key"] for case in _FIXTURES["merge_census"]]
    for case in _FIXTURES["merge_census"]:
        assert case["git"]["ort"] == case["git"]["histogram"], case["key"]
    assert {git["exit"] for git in _FIXTURES["merge_census"][-1]["git"].values()} == {0}


def test_merge_edge_inputs_are_those_recorded_and_markers_end_as_git_ends_them():
    """The edge triples regenerate from their seed, and many hold CR/LF lines,
    files without a final newline and conflict-marker text.  git ends a
    conflict's markers with CR/LF only when ours' and theirs' lines before it
    and the base's first line end so (``is_cr_needed``), so in these triples
    it writes CR/LF markers in some conflicts and LF markers around CR/LF
    lines in many more; every edge setting matches git on every triple."""
    cases = merge_edge_inputs()
    assert merge_census_digest(cases) == _FIXTURES["merge_edge_inputs"], "the inputs changed: re-record"
    assert [key for key, *_ in cases] == [case["key"] for case in _FIXTURES["merge_edge"]]
    files = [f for _, *triple in cases for f in triple]
    assert min(sum(b"\r\n" in f for f in files), sum(not f.endswith(b"\n") for f in files),
               sum(b"=======\n" in f for f in files)) > 50
    for name in FINDING3_COMMANDS:
        assert len(_FIXTURES["matching"][f"edge {name}"]) == EDGE_CASES, name
        merged = [unb64(case["git"][name]["f"]) for case in _FIXTURES["merge_edge"]]
        endings = [re.findall(rb"^(?:<<<<<<<|=======|>>>>>>>).*?(\r?)\n", f, re.M) for f in merged]
        assert sum(any(ends) for ends in endings) >= 10, name
        assert sum(not all(ends) and b"\r\n" in f for ends, f in zip(endings, merged)) >= 50, name


@pytest.mark.parametrize("setting", SETTINGS)
def test_cases_matching_git_are_those_recorded(setting):
    got = matches(_FIXTURES, setting)
    recorded = _FIXTURES["matching"][setting]
    assert sorted(set(recorded) - set(got)) == [], "cases that matched git and no longer do"
    assert sorted(set(got) - set(recorded)) == [], "cases that now match git: re-record with --rematch"


def _census_differ(algorithm, corpus):
    """Keys of the pairs of one census corpus where diffmerge's counts under
    one algorithm are not git's."""
    _, _, count = CENSUS[corpus]
    pairs = census_inputs(corpus)
    assert census_digest(pairs) == _FIXTURES[f"{algorithm}_census_inputs"][corpus], "the inputs changed: re-record"
    cases = [case for case in _FIXTURES[f"{algorithm}_census"] if case["corpus"] == corpus]
    assert len(cases) == len(pairs) == count
    return [case["key"] for (old, new), case in zip(pairs, cases) if diffmerge_numstat(old, new, algorithm) != case["git"]]


def _corpora(algorithm):
    return [corpus for census, corpus in CENSUSES if census == algorithm]


@pytest.mark.parametrize("corpus", _corpora("histogram"))
def test_histogram_census_agrees_with_git_on_every_pair(corpus):
    assert _census_differ("histogram", corpus) == []


@pytest.mark.parametrize("corpus", _corpora("myers"))
def test_myers_census_agrees_with_git_on_every_pair(corpus):
    assert _census_differ("myers", corpus) == []


@pytest.mark.parametrize("corpus", _corpora("patience"))
def test_patience_census_agrees_with_git_on_every_pair(corpus):
    assert _census_differ("patience", corpus) == []


def test_a_whole_range_fallback_is_the_myers_diff():
    """git's histogram and patience fall back to the whole ``xdl_do_diff`` on
    a range, common-end trim and frequent-line discard included.  On the first
    pair of the histogram-fallback corpus every common line (a }) occurs more
    than 64 times and no line is unique to both files; on b c b / c b c no line
    is unique to both.  Both algorithms give the myers diff's flags there, and
    on the first pair git's --histogram counts."""
    first = census_inputs("histogram-fallback")[0]
    git = next(case["git"] for case in _FIXTURES["histogram_census"] if case["corpus"] == "histogram-fallback")
    for old, new in (first, (b"b\nc\nb\n", b"c\nb\nc\n")):
        table = InternTable()
        o, n = table.intern(old), table.intern(new)
        want = diff_myers(o, n)
        for diff in (diff_histogram, diff_patience):
            got = diff(o, n)
            assert (got.old_flags, got.new_flags) == (want.old_flags, want.new_flags), diff.__name__
    assert diffmerge_numstat(*first, "histogram") == git


_WITNESSES = {case["key"]: case for case in _FIXTURES["myers_witnesses"]}


@pytest.mark.parametrize("key", WITNESSES)
def test_myers_witness_agrees_with_git(key):
    old, new = witness_inputs(key)
    assert census_digest([(old, new)]) == _WITNESSES[key]["inputs"], "the inputs changed: re-record"
    assert diffmerge_numstat(old, new, "myers") == _WITNESSES[key]["git"]["myers"]


def test_gits_minimal_is_not_minimal():
    """``git diff --no-index --numstat --minimal`` discards frequent lines as
    its myers diff does, so on old ``a b c d F e f g`` and new ``F F F F`` it
    changes 12 lines where 10 suffice; diffmerge's minimal gives the 10."""
    assert WITNESS_COMMANDS["minimal"] == "git diff --no-index --numstat --minimal old new"
    old, new = witness_inputs("minimal-is-not-minimal")
    git = _WITNESSES["minimal-is-not-minimal"]["git"]
    assert git["minimal"] == git["myers"] == [4, 8]
    assert diffmerge_numstat(old, new, "myers") == [4, 8]
    assert diffmerge_numstat(old, new, "minimal") == [3, 7]
    table = InternTable()
    assert oracle.min_edit_distance(table.intern(old).tokens, table.intern(new).tokens) == 10


@pytest.mark.parametrize("name", FINDING3_COMMANDS)
def test_finding3_merge_gives_gits_bytes(name):
    """The paper's finding 3: a clean merge whose bytes depend on the diff
    algorithm.  git's ``recursive`` strategy merges o = c c a a a, ours =
    c c a a and theirs = c / blank / a / blank / c a a cleanly, into
    c / blank / a / blank / c a under myers, minimal and patience and into
    c / blank / a / blank / c a a under histogram; ``ort``, git's default,
    ignores -Xdiff-algorithm and merges as histogram.  merge3 gives git's
    bytes and cleanliness under each (the commands are in the fixture)."""
    inputs = _FIXTURES["finding3"]["inputs"]
    assert tuple(unb64(inputs[side]) for side in ("base", "ours", "theirs")) == FINDING3
    assert _FIXTURES["commands"][f"finding3 {name}"] == FINDING3_COMMANDS[name]
    git = _FIXTURES["finding3"]["git"]
    got = finding3_merge(name)
    assert got.rendered == unb64(git[name]["f"])
    assert got.clean == (git[name]["exit"] == 0)
    # the witness is one: every merge is clean, and the bytes depend on the algorithm
    assert {case["exit"] for case in git.values()} == {0}
    assert git["myers"]["f"] == git["minimal"]["f"] == git["patience"]["f"] != git["histogram"]["f"] == git["ort"]["f"]


def test_importing_the_fixture_writer_leaves_sys_path_and_diffmerge_alone(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = list(sys.path)
    script = Path(FIXTURES).with_name("make_git_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_git_fixtures_again", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == before
    assert module.InternTable is InternTable
    # run as a script with no PYTHONPATH, from outside the checkout, it
    # imports the diffmerge beside it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path, env=env, capture_output=True)
    assert run.returncode == 0 and b"--rematch" in run.stdout, run.stderr
