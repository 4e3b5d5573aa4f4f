import os
import random
import subprocess
import sys

import pytest

from diffmerge import oracle

import reference


def toks(s):
    return [ord(c) for c in s]


def test_lcs_identity():
    assert oracle.lcs_length(toks("hello"), toks("hello")) == 5


def test_lcs_ab_ba():
    assert oracle.lcs_length(toks("ab"), toks("ba")) == 1


def test_lcs_dual_implementations_agree_on_named_example():
    a, b = toks("ABCABBBA"), toks("CCBABAC")
    assert oracle.lcs_length(a, b) == reference.lcs_length_memo(a, b)


def test_lcs_dual_implementations_agree_randomized():
    rng = random.Random(7)
    for _ in range(10_000):
        a = [rng.randrange(4) for _ in range(rng.randrange(12))]
        b = [rng.randrange(4) for _ in range(rng.randrange(12))]
        assert oracle.lcs_length(a, b) == reference.lcs_length_memo(a, b)


def _edited(rng, a, alphabet):
    b = list(a)
    for _ in range(rng.randrange(len(a) // 4 + 2)):
        op = rng.randrange(3)
        k = rng.randrange(len(b) + 1)
        if op == 0 and k < len(b):
            del b[k]
        elif op == 1:
            b.insert(k, rng.randrange(alphabet))
        elif k < len(b):
            b[k] = rng.randrange(alphabet)
    return b


@pytest.mark.parametrize("alphabet", [1, 2, 3, 5000])
def test_bit_parallel_lcs_matches_memo_on_seeded_pairs(alphabet):
    rng = random.Random(f"lcs/{alphabet}")
    sizes = [rng.randrange(120) for _ in range(40)] + [rng.randrange(400, 601), 600]
    for n in sizes:
        a = [rng.randrange(alphabet) for _ in range(n)]
        # half the pairs are unrelated, half are edited copies of a
        if rng.random() < 0.5:
            b = [rng.randrange(alphabet) for _ in range(rng.randrange(n + 1))]
        else:
            b = _edited(rng, a, alphabet)[: reference._MEMO_LIMIT]
        assert oracle.lcs_length(a, b) == reference.lcs_length_memo(a, b), (alphabet, len(a), len(b))
        assert oracle.lcs_length(b, a) == oracle.lcs_length(a, b)


def test_bit_parallel_lcs_known_answer_at_20k_lines():
    rng = random.Random(20_000)
    a = [rng.randrange(300) for _ in range(20_000)]
    deleted = set(rng.sample(range(len(a)), 400))
    b = []
    fresh = 300
    for i, token in enumerate(a):
        if i not in deleted:
            b.append(token)
        if rng.random() < 0.02:
            b.append(fresh)  # a token a never holds
            fresh += 1
    assert oracle.lcs_length(a, b) == len(a) - len(deleted)
    assert oracle.min_edit_distance(a, b) == len(deleted) + (fresh - 300)


def test_cli_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, diffmerge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_min_edit_distance_identical_and_disjoint():
    assert oracle.min_edit_distance(toks("xyz"), toks("xyz")) == 0
    assert oracle.min_edit_distance(toks("abc"), toks("def")) == 6


def test_all_lis_contains_known_answer():
    assert (4, 7, 8, 9) in reference.all_lis([5, 4, 7, 8, 1, 3, 9, 6])


def test_all_lis_sorted_input():
    assert reference.all_lis([1, 2, 3]) == {(1, 2, 3)}


def test_size_guards_raise():
    with pytest.raises(oracle.SizeGuard):
        oracle.lcs_length([0] * (oracle._LCS_LIMIT + 1), [0])
    with pytest.raises(oracle.SizeGuard):
        oracle.lcs_length([0], [0] * (oracle._LCS_LIMIT + 1))
    with pytest.raises(oracle.SizeGuard):
        reference.all_lis(list(range(16)))


def test_validate_merge_regions_flags_bad_gap():
    from diffmerge.merge3 import MergeRegion

    o = [1, 2, 3]
    left = [1, 9, 3]
    right = [1, 2, 3]
    # region claims only line 0 changed, leaving a mismatched gap at line 1
    regions = [MergeRegion(0, 1, 0, 1, 0, 1, "left-change")]
    assert reference.validate_merge_regions(regions, o, left, right)
