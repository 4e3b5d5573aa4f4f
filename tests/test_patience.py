import random

import pytest

from diffmerge.core import InternedSequence, InternTable
from diffmerge.myers import diff_myers
from diffmerge.patience import diff_patience, find_matching_unique_lines, patience_lis

import reference
from conftest import random_file


def toks(s):
    return [ord(c) for c in s]


def test_unique_matches_all_unique():
    assert find_matching_unique_lines(toks("abc"), toks("abc")) == [(0, 0), (1, 1), (2, 2)]


def test_unique_matches_skips_repeats():
    # a repeats in the first file, so only b qualifies
    assert find_matching_unique_lines(toks("aab"), toks("ba")) == [(2, 0)]


def test_unique_matches_empty():
    assert find_matching_unique_lines(toks("ab"), toks("cd")) == []


def _lis_of(seq):
    return [pos_b for _, pos_b in patience_lis(list(enumerate(seq)))]


def test_patience_lis_worked_example():
    assert _lis_of([5, 4, 7, 8, 1, 3, 9, 6]) == [4, 7, 8, 9]


def test_patience_lis_increasing_input():
    assert _lis_of([1, 3, 5, 7]) == [1, 3, 5, 7]


def test_patience_lis_decreasing_returns_final_element():
    assert _lis_of([9, 6, 3]) == [3]


def test_patience_lis_member_of_exhaustive_set():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 11)
        perm = list(range(n))
        rng.shuffle(perm)
        got = tuple(_lis_of(perm))
        assert got in reference.all_lis(perm)


def test_diff_identical_files(intern_pair):
    o, n = intern_pair(b"a\nb\nc\n", b"a\nb\nc\n")
    assert diff_patience(o, n).flag_count() == 0


def test_fallback_equals_myers_when_no_unique_commons(intern_pair):
    o, n = intern_pair(b"b\nc\nb\n", b"c\nb\nc\n")
    got = diff_patience(o, n)
    want = diff_myers(o, n, minimal=False)
    assert got.old_flags == want.old_flags
    assert got.new_flags == want.new_flags


def test_unique_lis_lines_never_flagged(intern_pair):
    o, n = intern_pair(b"one\nx\ntwo\nx\nthree\n", b"zero\none\ntwo\nx\nx\nthree\n")
    flags = diff_patience(o, n)
    matches = patience_lis(find_matching_unique_lines(o.tokens, n.tokens))
    for pos_a, pos_b in matches:
        assert not flags.old_flags[pos_a]
        assert not flags.new_flags[pos_b]


def test_permutation_flag_count_is_twice_lis_deficit():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randrange(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        old = b"".join(b"line%d\n" % i for i in range(n))
        new = b"".join(b"line%d\n" % i for i in perm)
        table = InternTable()
        o, w = table.intern(old), table.intern(new)
        lis_len = max(len(s) for s in reference.all_lis(perm)) if n else 0
        assert diff_patience(o, w).flag_count() == 2 * (n - lis_len)


def test_round_trip_randomized():
    from diffmerge.core import apply_script, flags_to_script

    rng = random.Random(5)
    for _ in range(200):
        a = random_file(rng, 25, 3, allow_missing_nl=True)
        b = random_file(rng, 25, 3, allow_missing_nl=True)
        table = InternTable()
        o, w = table.intern(a), table.intern(b)
        script = flags_to_script(diff_patience(o, w), o, w)
        assert apply_script(o, script, w) == b


def test_patience_lis_matches_reference_chain():
    # the same chain as the dict-keyed reference, ties included: pos_b values
    # repeat here, which unique-line matches never do
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randrange(0, 60)
        span = rng.choice((3, n + 1, 4 * n + 1))
        matches = [(i, rng.randrange(span)) for i in range(n)]
        got = patience_lis(matches)
        assert got == reference.patience_lis_reference(matches)
    matches = find_matching_unique_lines(*(list(rng.sample(range(5000), 3000)) for _ in range(2)))
    assert patience_lis(matches) == reference.patience_lis_reference(matches)


# Differential tests against the patience diff kept in reference.py: git's
# walk and fallback, one line at a time.


def _edited(rng, lines, alphabet):
    out = list(lines)
    for _ in range(rng.randrange(4)):
        at = rng.randrange(len(out) + 1)
        out[at:at + rng.randrange(3)] = [rng.choice(alphabet) for _ in range(rng.randrange(3))]
    return out


def _patience_pair(rng, kind):
    """One seeded (old, new) pair of token lists of the given shape."""
    if kind == "tiny-alphabet":
        alphabet = range(rng.randrange(1, 4))
        return [rng.choice(alphabet) for _ in range(rng.randrange(30))], [
            rng.choice(alphabet) for _ in range(rng.randrange(30))
        ]
    if kind == "equal-gaps":
        # unique anchors between blocks of repeated lines; most blocks are
        # equal on both sides, so most gaps between anchors are equal
        old, new = [], []
        for k in range(rng.randrange(1, 12)):
            block = [rng.randrange(3) for _ in range(rng.randrange(6))]
            old += [100 + k] + block
            new += [100 + k] + (block if rng.random() < 0.7 else _edited(rng, block, range(3)))
        return old, new
    if kind == "repeated":
        # every line occurs at least twice in its file: no unique line at all
        half = [rng.randrange(1000) for _ in range(rng.randrange(15))]
        old = half + half
        rng.shuffle(old)
        other = _edited(rng, half, half or [0])
        return old, other + other
    alphabet = range(rng.randrange(1, 1001))
    old = [rng.choice(alphabet) for _ in range(rng.randrange(60))]
    return old, _edited(rng, old, alphabet)


PAIR_KINDS = ("tiny-alphabet", "equal-gaps", "repeated", "wide-alphabet")


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_diff_patience_matches_reference(kind):
    rng = random.Random(f"patience-{kind}")
    for _ in range(400):
        old, new = _patience_pair(rng, kind)
        o, n = InternedSequence(old, []), InternedSequence(new, [])
        for x, y in ((o, n), (n, o)):
            got = diff_patience(x, y)
            want = reference.diff_patience_reference(x, y)
            assert (got.old_flags, got.new_flags) == (want.old_flags, want.new_flags), (x.tokens, y.tokens)


def test_unique_matches_on_a_range_match_the_sliced_reference():
    rng = random.Random(61)
    for _ in range(500):
        old, new = _patience_pair(rng, rng.choice(PAIR_KINDS))
        lo_a = rng.randrange(len(old) + 1)
        hi_a = rng.randrange(lo_a, len(old) + 1)
        lo_b = rng.randrange(len(new) + 1)
        hi_b = rng.randrange(lo_b, len(new) + 1)
        got = find_matching_unique_lines(old, new, lo_a, hi_a, lo_b, hi_b)
        want = reference.find_matching_unique_lines_reference(old[lo_a:hi_a], new[lo_b:hi_b])
        assert got == [(pos_a + lo_a, pos_b + lo_b) for pos_a, pos_b in want]
        assert all(type(m) is tuple for m in got)
