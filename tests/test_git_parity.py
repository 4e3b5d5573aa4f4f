"""diffmerge against git, read from tests/git_fixtures.json; git is never run.

The fixture holds seeded small inputs with the bytes ``git merge-file`` wrote
for them in each style and the lines ``git diff --no-index -U0`` changed
under each algorithm, with the indent heuristic on and off (see
tests/make_git_fixtures.py for the git version and commands).  It also holds
the cases diffmerge matched when it was recorded.  Exactly those must match
now: a lost case is a regression, and a gained one (git's change compaction,
say) is re-recorded with ``make_git_fixtures.py --rematch``.

The histogram and myers censuses hold the lines ``git diff --numstat``
counted as added and deleted under ``--histogram`` and
``--diff-algorithm=myers`` on two seeded corpora each, and diffmerge's diff
with the same algorithm must give the same counts on every pair.  So must its
myers diff on the three myers witnesses, each decided by one rule of git's
frequent-line discard.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from make_git_fixtures import (
    CENSUS,
    FIXTURES,
    SETTINGS,
    WITNESS_COMMANDS,
    WITNESSES,
    census_digest,
    census_inputs,
    diffmerge_numstat,
    matches,
    witness_inputs,
)

from diffmerge import oracle
from diffmerge.core import InternTable

_FIXTURES = json.loads(Path(FIXTURES).read_text())


def test_fixture_records_git_and_its_commands():
    assert _FIXTURES["git_version"].startswith("git version ")
    assert set(_FIXTURES["commands"]) == {
        "merge", "diff", "histogram_census", "myers_census", "myers_witness", "minimal_witness"}
    assert len(_FIXTURES["merge"]) == 300 and len(_FIXTURES["diff"]) == 200
    assert list(_FIXTURES["matching"]) == SETTINGS


@pytest.mark.parametrize("setting", SETTINGS)
def test_cases_matching_git_are_those_recorded(setting):
    got = matches(_FIXTURES, setting)
    recorded = _FIXTURES["matching"][setting]
    assert sorted(set(recorded) - set(got)) == [], "cases that matched git and no longer do"
    assert sorted(set(got) - set(recorded)) == [], "cases that now match git: re-record with --rematch"


def _census_differ(corpus):
    """Keys of the pairs of one census corpus where diffmerge's counts are not git's."""
    algorithm, _, count = CENSUS[corpus]
    pairs = census_inputs(corpus)
    assert census_digest(pairs) == _FIXTURES[f"{algorithm}_census_inputs"][corpus], "the inputs changed: re-record"
    cases = [case for case in _FIXTURES[f"{algorithm}_census"] if case["corpus"] == corpus]
    assert len(cases) == len(pairs) == count
    return [case["key"] for (old, new), case in zip(pairs, cases) if diffmerge_numstat(old, new, algorithm) != case["git"]]


@pytest.mark.parametrize("corpus", [corpus for corpus, (algorithm, _, _) in CENSUS.items() if algorithm == "histogram"])
def test_histogram_census_agrees_with_git_on_every_pair(corpus):
    assert _census_differ(corpus) == []


@pytest.mark.parametrize("corpus", [corpus for corpus, (algorithm, _, _) in CENSUS.items() if algorithm == "myers"])
def test_myers_census_agrees_with_git_on_every_pair(corpus):
    assert _census_differ(corpus) == []


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
