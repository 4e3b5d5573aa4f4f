"""diffmerge against git, read from tests/git_fixtures.json; git is never run.

The fixture holds seeded small inputs with the bytes ``git merge-file`` wrote
for them in each style and the lines ``git diff --no-index -U0`` changed
under each algorithm, with the indent heuristic on and off (see
tests/make_git_fixtures.py for the git version and commands).  It also holds
the cases diffmerge matched when it was recorded.  Exactly those must match
now: a lost case is a regression, and a gained one (git's change compaction,
say) is re-recorded with ``make_git_fixtures.py --rematch``.

The histogram census holds the lines ``git diff --numstat --histogram``
counted as added and deleted on two seeded corpora, and diffmerge's histogram
diff must give the same counts on every pair.
"""

import json
from pathlib import Path

import pytest

from make_git_fixtures import CENSUS, FIXTURES, SETTINGS, census_digest, census_inputs, diffmerge_numstat, matches

_FIXTURES = json.loads(Path(FIXTURES).read_text())


def test_fixture_records_git_and_its_commands():
    assert _FIXTURES["git_version"].startswith("git version ")
    assert set(_FIXTURES["commands"]) == {"merge", "diff", "histogram_census"}
    assert len(_FIXTURES["merge"]) == 300 and len(_FIXTURES["diff"]) == 200
    assert list(_FIXTURES["matching"]) == SETTINGS


@pytest.mark.parametrize("setting", SETTINGS)
def test_cases_matching_git_are_those_recorded(setting):
    got = matches(_FIXTURES, setting)
    recorded = _FIXTURES["matching"][setting]
    assert sorted(set(recorded) - set(got)) == [], "cases that matched git and no longer do"
    assert sorted(set(got) - set(recorded)) == [], "cases that now match git: re-record with --rematch"


@pytest.mark.parametrize("corpus", list(CENSUS))
def test_histogram_census_agrees_with_git_on_every_pair(corpus):
    pairs = census_inputs(corpus)
    assert census_digest(pairs) == _FIXTURES["histogram_census_inputs"][corpus], "the inputs changed: re-record"
    cases = [case for case in _FIXTURES["histogram_census"] if case["corpus"] == corpus]
    assert len(cases) == len(pairs) == CENSUS[corpus][1]
    differ = [case["key"] for (old, new), case in zip(pairs, cases) if diffmerge_numstat(old, new) != case["git"]]
    assert differ == []
