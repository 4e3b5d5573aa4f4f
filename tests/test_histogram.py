import random

import pytest

from diffmerge.core import InternedSequence, InternTable, apply_script, flags_to_script
from diffmerge.histogram import FallbackSignal, Region, diff_histogram, find_split, scan_a
from diffmerge.merge3 import MergeOptions, merge3
from diffmerge.myers import diff_myers
from diffmerge.patience import diff_patience

import reference
from conftest import random_file, source_lines


def toks(s):
    return [ord(c) for c in s]


def histogram_bad_family(k: int):
    """A unique line moved from the top to the bottom across k repeated pairs."""
    body = b"b\nc\n" * k
    return b"A\n" + body, body + b"A\n"


def test_scan_a_positions():
    # a token seen once maps to its position as a bare int, a repeated one to
    # its ascending positions
    index = scan_a(toks("abacb"))
    assert index == {ord("a"): [0, 2], ord("b"): [1, 4], ord("c"): 3}
    assert type(index[ord("c")]) is int
    assert scan_a(toks("x")) == {ord("x"): 0}


def test_scan_a_empty():
    assert scan_a([]) == {}


def test_scan_a_many_repeats():
    assert scan_a([7] * 70) == {7: list(range(70))}


def test_find_split_unique_shared_prefix():
    a = toks("xAy")
    b = toks("xAz")
    region = find_split(a, b, 0, 3, 0, 3, scan_a(a), {})
    assert (region.begin1, region.end1, region.begin2, region.end2) == (0, 1, 0, 1)


def test_find_split_pivots_on_moved_unique_line():
    table = InternTable()
    old, new = (table.intern(f) for f in histogram_bad_family(3))
    region = find_split(old.tokens, new.tokens, 0, 7, 0, 7, scan_a(old.tokens), {})
    # the unique A wins on record count despite the longer repeated block
    assert (region.begin1, region.end1) == (0, 0)
    assert (region.begin2, region.end2) == (6, 6)
    assert region.record_count == 1


def test_find_split_fallback_when_all_common_lines_frequent():
    a = [1] * 70
    b = [1] * 70 + [2]
    with pytest.raises(FallbackSignal):
        find_split(a, b, 0, len(a), 0, len(b), scan_a(a), {})


def test_find_split_skips_a_seed_more_frequent_than_the_lowest_count():
    # the unique 1 seeds a one-line region first; 7 8 occurs twice in old and
    # would seed a longer region, but git's rule skips a seed occurring more
    # often than the lowest record count so far.  git diff --no-index
    # --histogram (git 2.39.5) on these files deletes 7 8 6 and adds 0.
    a, b = [7, 8, 6, 1, 7, 8], [1, 0, 7, 8]
    want = Region(3, 3, 0, 0, 1)
    assert reference.histogram_split_reference(a, b, 0, len(a), 0, len(b)) == want
    assert find_split(a, b, 0, len(a), 0, len(b), scan_a(a), {}) == want
    table = InternTable()
    o, n = table.intern(b"7\n8\n6\n1\n7\n8\n"), table.intern(b"1\n0\n7\n8\n")
    assert diff_histogram(o, n).old_flags == b"\1\1\1\0\0\0"


def test_find_split_falls_back_on_a_line_at_the_initial_lowest_count():
    # a line seen 65 times is not skipped by the initial lowest count of 65,
    # but no region of it has a record count of at most 64, so the search
    # falls back; git diff --numstat --histogram (git 2.39.5) deletes 64 lines
    # of 65 x against one x, as myers does
    for count, fallback in ((64, False), (65, True), (66, True)):
        a, b = [1] * count, [1]
        want = _split_or_fallback(reference.histogram_split_reference, a, b, 0, count, 0, 1)
        assert _split_or_fallback(find_split, a, b, 0, count, 0, 1, scan_a(a), {}) == want
        assert (want == "fallback") == fallback
        table = InternTable()
        o, n = table.intern(b"x\n" * count), table.intern(b"x\n")
        assert diff_histogram(o, n).flag_count() == count - 1


def test_find_split_none_when_nothing_common():
    a = toks("ab")
    assert find_split(a, toks("cd"), 0, 2, 0, 2, scan_a(a), {}) is None


def test_diff_identical(intern_pair):
    o, n = intern_pair(b"p\nq\np\n", b"p\nq\np\n")
    assert diff_histogram(o, n).flag_count() == 0


def test_histogram_bad_flags_whole_body_forward():
    for k in (3, 5, 8):
        table = InternTable()
        old, new = (table.intern(f) for f in histogram_bad_family(k))
        flags = diff_histogram(old, new)
        assert flags.flag_count() == 4 * k


def test_histogram_bad_reverse_flags_whole_body_as_git_does():
    # git diff --no-index --numstat --histogram (git 2.39.5) counts 2k lines
    # added and 2k deleted in this direction too: once the unique A seeds a
    # region, the b and c lines occur more often and seed nothing
    for k in (3, 5, 8):
        table = InternTable()
        before, after = histogram_bad_family(k)
        old, new = table.intern(after), table.intern(before)
        flags = diff_histogram(old, new)
        assert (sum(flags.new_flags), sum(flags.old_flags)) == (2 * k, 2 * k)


def test_histogram_bad_minimal_two_lines_both_ways():
    table = InternTable()
    before, after = histogram_bad_family(4)
    o, n = table.intern(before), table.intern(after)
    assert diff_myers(o, n, minimal=True).flag_count() == 2
    table = InternTable()
    o, n = table.intern(after), table.intern(before)
    assert diff_myers(o, n, minimal=True).flag_count() == 2


def test_reordering_where_histogram_exceeds_patience(intern_pair):
    # a moved unique line plus one-file-only noise: the greedy pivot loses
    o, n = intern_pair(b"u1\nf\nu2\ng\nu3\n", b"u3\nh\nu1\nk\nu2\n")
    assert diff_patience(o, n).flag_count() < diff_histogram(o, n).flag_count()


def test_fallback_subproblem_routes_to_myers(intern_pair):
    # 70 identical common lines trigger the cap; result must stay valid
    body = b"x\n" * 70
    o, n = intern_pair(body + b"p\n", b"q\n" + body)
    flags = diff_histogram(o, n)
    assert reference.check_flags_valid(o.tokens, n.tokens, flags.old_flags, flags.new_flags)


def test_degenerate_split_marks_everything(intern_pair):
    o, n = intern_pair(b"a\nb\n", b"c\nd\n")
    flags = diff_histogram(o, n)
    assert all(flags.old_flags) and all(flags.new_flags)


def test_real_region_at_origin_is_not_degenerate(intern_pair):
    # a common first line must survive even though the region starts at (0, 0)
    o, n = intern_pair(b"a\nb\n", b"a\nc\n")
    flags = diff_histogram(o, n)
    assert flags.old_flags == b"\0\1"
    assert flags.new_flags == b"\0\1"


def test_round_trip_randomized():
    rng = random.Random(6)
    for _ in range(300):
        a = random_file(rng, 25, 3, allow_missing_nl=True)
        b = random_file(rng, 25, 3, allow_missing_nl=True)
        table = InternTable()
        o, w = table.intern(a), table.intern(b)
        script = flags_to_script(diff_histogram(o, w), o, w)
        assert apply_script(o, script, w) == b


def test_both_directions_individually_valid():
    rng = random.Random(61)
    for _ in range(100):
        a = random_file(rng, 20, 3)
        b = random_file(rng, 20, 3)
        t1 = InternTable()
        o, w = t1.intern(a), t1.intern(b)
        fwd = diff_histogram(o, w)
        assert reference.check_flags_valid(o.tokens, w.tokens, fwd.old_flags, fwd.new_flags)
        t2 = InternTable()
        o2, w2 = t2.intern(b), t2.intern(a)
        rev = diff_histogram(o2, w2)
        assert reference.check_flags_valid(o2.tokens, w2.tokens, rev.old_flags, rev.new_flags)


# Differential tests against the per-subproblem rescan kept in reference.py.


def _split_or_fallback(fn, *args):
    try:
        return fn(*args)
    except FallbackSignal:
        return "fallback"


def _assert_same_flags(old_bytes, new_bytes):
    table = InternTable()
    o, n = table.intern(old_bytes), table.intern(new_bytes)
    got = diff_histogram(o, n)
    want = reference.histogram_reference(o, n)
    assert got.old_flags == want.old_flags
    assert got.new_flags == want.new_flags


def _assert_same_splits(rng, a, b, trials):
    """Compare find_split with the reference on random subranges and on the
    whole files."""
    index = scan_a(a)
    for _ in range(trials):
        lo1 = rng.randrange(len(a) + 1)
        hi1 = rng.randrange(lo1, len(a) + 1)
        lo2 = rng.randrange(len(b) + 1)
        hi2 = rng.randrange(lo2, len(b) + 1)
        want = _split_or_fallback(reference.histogram_split_reference, a, b, lo1, hi1, lo2, hi2)
        assert _split_or_fallback(find_split, a, b, lo1, hi1, lo2, hi2, index, {}) == want
    whole = (0, len(a), 0, len(b))
    assert _split_or_fallback(find_split, a, b, *whole, index, {}) == _split_or_fallback(
        reference.histogram_split_reference, a, b, *whole
    )


def _edited(rng, lines, alphabet, edits):
    out = list(lines)
    for _ in range(edits):
        at = rng.randrange(len(out) + 1)
        out[at:at + rng.randrange(4)] = [rng.choice(alphabet) for _ in range(rng.randrange(4))]
    return out


def _corpus(rng, kind):
    """One seeded (old, new) pair of line lists of the given shape."""
    if kind == "small-alphabet":
        alphabet = [b"%d\n" % i for i in range(rng.randrange(1, 5))]
        old = [rng.choice(alphabet) for _ in range(rng.randrange(60))]
        return old, [rng.choice(alphabet) for _ in range(rng.randrange(60))]
    if kind == "over-cap":
        # lines repeated more than MAX_OCCURRENCES times force fallbacks
        common = [b"}\n"] * rng.randrange(65, 140)
        old = common + [b"x%d\n" % rng.randrange(3) for _ in range(rng.randrange(20))]
        rng.shuffle(old)
        return old, _edited(rng, old, [b"}\n", b"y\n", b"x1\n"], rng.randrange(1, 6))
    if kind == "long-runs":
        # runs far longer than the lines compared one by one
        old = [b"line %d\n" % rng.randrange(300) for _ in range(rng.randrange(50, 400))]
        return old, _edited(rng, old, [b"new\n", b"line 7\n", b"line 9\n"], rng.randrange(1, 5))
    if kind == "all-frequent":
        # each of a few lines occurs more than MAX_OCCURRENCES times in old,
        # and new keeps under a third of old's other lines, so many split
        # searches see only over-cap common lines and fall back
        common = [b"}\n", b"{\n", b"end\n"][: rng.randrange(1, 4)]
        old = [line for line in common for _ in range(rng.randrange(65, 100))]
        old += [b"old %d\n" % i for i in range(rng.randrange(10))]
        rng.shuffle(old)
        new = [line for line in old if line in common or rng.random() < 0.3]
        return old, _edited(rng, new, [b"}\n", b"new\n", b"new 2\n"], rng.randrange(1, 6))
    if kind == "late-rare":
        # new opens with a line that occurs more than MAX_OCCURRENCES times in
        # old; a rare common line comes only after it
        frequent = [b"}\n"] * rng.randrange(65, 120)
        rare = [b"rare %d\n" % rng.randrange(3) for _ in range(rng.randrange(1, 4))]
        old = frequent + rare + [b"x\n"] * rng.randrange(3)
        rng.shuffle(old)
        new = [b"}\n"] * rng.randrange(1, 5) + [b"y\n"] * rng.randrange(3) + rare + [b"}\n"] * rng.randrange(3)
        return old, _edited(rng, new, [b"}\n", b"z\n"], rng.randrange(3))
    if kind == "repeated-blocks":
        # every line of old occurs 30 to 64 times, so no record count over
        # the whole file is 1 and each one is taken in full from the counts
        # cached for the call
        block = [b"block %d\n" % i for i in range(rng.randrange(20, 2001))]
        old = block * rng.randrange(30, 65)
        return old, _edited(rng, old, [b"new\n", rng.choice(block)], rng.randrange(1, 5))
    # bytes that line splitting must carry through: CR/LF, NUL, a missing
    # final newline
    alphabet = [b"a\r\n", b"a\n", b"\x00\n", b"b\x00c\r\n", b"\r\n", b"d\n"]
    old = [rng.choice(alphabet) for _ in range(rng.randrange(80))]
    return old, _edited(rng, old, alphabet, rng.randrange(6))


KINDS = ("small-alphabet", "over-cap", "long-runs", "edge-bytes")
# corpora where new opens with lines over the cap, so the lowest count stays
# at its initial 65 until a rarer line, if any, seeds a region
FREQUENT_KINDS = ("all-frequent", "late-rare")


@pytest.mark.parametrize("kind", KINDS + FREQUENT_KINDS)
def test_flags_and_splits_match_reference(kind):
    rng = random.Random(f"histogram-{kind}")
    for _ in range(150):
        old, new = _corpus(rng, kind)
        old_bytes, new_bytes = b"".join(old), b"".join(new)
        if rng.random() < 0.3 and new_bytes.endswith(b"\n"):
            new_bytes = new_bytes[:-1]
        _assert_same_flags(old_bytes, new_bytes)
        _assert_same_flags(new_bytes, old_bytes)
        table = InternTable()
        o, n = table.intern(old_bytes), table.intern(new_bytes)
        _assert_same_splits(rng, o.tokens, n.tokens, 8)


def test_repeated_blocks_match_reference():
    rng = random.Random("histogram-repeated-blocks")
    for _ in range(6):
        old, new = _corpus(rng, "repeated-blocks")
        _assert_same_flags(b"".join(old), b"".join(new))
        _assert_same_flags(b"".join(new), b"".join(old))
        table = InternTable()
        o, n = table.intern(b"".join(old)), table.intern(b"".join(new))
        _assert_same_splits(rng, o.tokens, n.tokens, 4)
        _assert_same_splits(rng, n.tokens, o.tokens, 4)


def test_gate_above_the_cap_still_expands_seeds_under_it():
    # 1 occurs 65 times in old, one over the cap but not over the initial
    # lowest count of 65.  new opens with it, and no region there has a record
    # count under 65.  The 1 seed at new[2] must still be expanded: its region
    # 1 1 2 at old[58:61] wins.  A search that skipped seeds over
    # MAX_OCCURRENCES instead of over the lowest count would return
    # old[53:56], reached from the 2 seed.
    old = [1] * 55 + [2, 1, 2, 1, 1, 2] + [1] * 7
    new = [1, 50, 1, 1, 2]
    for pad in (0, 3):  # the whole old file, and a range inside a longer one
        a = [2, 7, 1][:pad] + old + [1, 2, 7][:pad]
        lo1, hi1 = pad, pad + len(old)
        want = Region(58 + pad, 60 + pad, 2, 4, 3)
        assert reference.histogram_split_reference(a, new, lo1, hi1, 0, len(new)) == want
        assert find_split(a, new, lo1, hi1, 0, len(new), scan_a(a), {}) == want


def test_over_cap_corpus_reaches_fallback():
    rng = random.Random("histogram-over-cap")
    fallbacks = 0
    for _ in range(20):
        old, new = _corpus(rng, "over-cap")
        table = InternTable()
        a, b = table.intern(b"".join(old)).tokens, table.intern(b"".join(new)).tokens
        fallbacks += _split_or_fallback(find_split, a, b, 0, len(a), 0, len(b), scan_a(a), {}) == "fallback"
    assert fallbacks > 0


# scan_a keeps a token seen once as a bare int and a repeated one as a list.
# find_split must read an int outside the box as absent, and a list with one
# position inside the box as a count of 1, as the reference's rescan does.

def test_unique_token_outside_the_box_seeds_nothing():
    # 1 occurs once in old, at old[0], left of the box old[1:5]
    a, b = [1, 2, 3, 4, 5], [1, 3, 4, 9]
    assert scan_a(a)[1] == 0
    want = Region(2, 3, 1, 2, 1)
    assert reference.histogram_split_reference(a, b, 1, 5, 0, 4) == want
    assert find_split(a, b, 1, 5, 0, 4, scan_a(a), {}) == want
    # with no other common line there is no split at all
    assert reference.histogram_split_reference(a, [1, 9], 1, 5, 0, 2) is None
    assert find_split(a, [1, 9], 1, 5, 0, 2, scan_a(a), {}) is None
    # nor does it stave off the fallback when every line of new inside the
    # box occurs over the cap
    a, b = [1] + [3] * 70, [3, 1]
    with pytest.raises(FallbackSignal):
        reference.histogram_split_reference(a, b, 1, 71, 0, 2)
    with pytest.raises(FallbackSignal):
        find_split(a, b, 1, 71, 0, 2, scan_a(a), {})


def test_repeated_token_with_one_position_in_the_box_counts_once():
    # 7 occurs three times in old, once inside old[1:4]; the region 8 8 (count
    # 2 inside the box) comes first in new, and 7 5 (count 1) must replace it
    a, b = [7, 8, 8, 7, 5, 7], [8, 8, 6, 7, 5]
    assert scan_a(a)[7] == [0, 3, 5]
    want = Region(3, 4, 3, 4, 1)
    assert reference.histogram_split_reference(a, b, 1, 5, 0, 5) == want
    assert find_split(a, b, 1, 5, 0, 5, scan_a(a), {}) == want


def test_int_and_list_positions_match_reference_on_repeated_blocks():
    # the repeated-block shape, scaled down: a block of old occurs 2 to 4
    # times, with lines seen once between the copies, so random boxes keep
    # one copy of a block line or leave a unique line outside
    rng = random.Random("histogram-int-list")
    outside = one_inside = 0
    for _ in range(40):
        block = [b"block %d\n" % i for i in range(rng.randrange(5, 40))]
        old = []
        for k in range(rng.randrange(2, 5)):
            old += block + [b"once %d %d\n" % (k, i) for i in range(rng.randrange(4))]
        new = _edited(rng, old, [b"new\n", rng.choice(block)], rng.randrange(1, 5))
        _assert_same_flags(b"".join(old), b"".join(new))
        _assert_same_flags(b"".join(new), b"".join(old))
        table = InternTable()
        a, b = table.intern(b"".join(old)).tokens, table.intern(b"".join(new)).tokens
        index = scan_a(a)
        for _ in range(20):
            lo1 = rng.randrange(len(a) + 1)
            hi1 = rng.randrange(lo1, len(a) + 1)
            lo2 = rng.randrange(len(b) + 1)
            hi2 = rng.randrange(lo2, len(b) + 1)
            want = _split_or_fallback(reference.histogram_split_reference, a, b, lo1, hi1, lo2, hi2)
            assert _split_or_fallback(find_split, a, b, lo1, hi1, lo2, hi2, index, {}) == want
            positions = [index[t] for t in set(b[lo2:hi2]) if t in index]
            outside += any(type(p) is int and not lo1 <= p < hi1 for p in positions)
            one_inside += any(type(p) is list and sum(lo1 <= i < hi1 for i in p) == 1 for p in positions)
    # both boundaries are reached many times
    assert outside > 100 and one_inside > 100


def test_paper_families_match_reference():
    for k in (3, 4, 6, 10, 40):
        before, after = histogram_bad_family(k)
        _assert_same_flags(before, after)
        _assert_same_flags(after, before)
    # criterion 5: the reordering patience wins
    _assert_same_flags(b"u1\nf\nu2\ng\nu3\n", b"u3\nh\nu1\nk\nu2\n")
    # criterion 6's base diffs, up to the 2k-line abab shape
    for k in (2, 10, 100, 1000):
        o = b"a\nb\n" * k
        _assert_same_flags(o, b"a\nb\n" + o)
        _assert_same_flags(o, b"a\nb\n" * (k - 1) + b"c\n")
        table = InternTable()
        a, b = table.intern(o).tokens, table.intern(b"a\nb\n" * (k - 1) + b"c\n").tokens
        _assert_same_splits(random.Random(k), a, b, 10)


_STATEMENTS = (b"\n", b"    }\n", b"    return 0;\n", b"    x = y;\n", b"    if (err) {\n")


def _history_pair(rng):
    """Two versions of a 48-line blob as a commit history edits it: each even
    line a numbered assignment of its slot and version, each odd line one of
    a few fixed statements; the newer version bumps 1 to 6 slots, so the
    diff is mostly one-line replacements, some of them adjacent."""
    fixed = [rng.choice(_STATEMENTS) for _ in range(24)]
    versions = [rng.randrange(100) for _ in range(24)]

    def blob(versions):
        return [line for k in range(24) for line in (b"    v_%d = step(%d, %d);\n" % (k, k, versions[k]), fixed[k])]

    newer = list(versions)
    for k in rng.sample(range(24), rng.randint(1, 6)):
        newer[k] += 100
    return blob(versions), blob(newer)


def test_history_shaped_blobs_match_reference():
    rng = random.Random("histogram-history")
    for _ in range(300):
        old, new = _history_pair(rng)
        _assert_same_flags(b"".join(old), b"".join(new))
        _assert_same_flags(b"".join(new), b"".join(old))
    # one line each, the whole diff: equal, unequal, and unequal by its newline
    for old, new in ((b"a\n", b"a\n"), (b"a\n", b"b\n"), (b"a\n", b"a")):
        _assert_same_flags(old, new)


def test_one_find_split_call_per_reference_subproblem_not_one_by_one(monkeypatch):
    # a tracer wraps histogram.find_split at the module attribute; the diff
    # must reach it once per subproblem of the reference, except a box of
    # one line on each side, which it settles by one compare
    from diffmerge import histogram

    calls = {"new": 0, "reference": 0, "reference one by one": 0}

    def counting(key, fn):
        def wrapper(a, b, lo1, hi1, lo2, hi2, *rest):
            one_by_one = key == "reference" and hi1 - lo1 == hi2 - lo2 == 1
            calls[key + " one by one" if one_by_one else key] += 1
            return fn(a, b, lo1, hi1, lo2, hi2, *rest)
        return wrapper

    monkeypatch.setattr(histogram, "find_split", counting("new", histogram.find_split))
    monkeypatch.setattr(
        reference, "histogram_split_reference", counting("reference", reference.histogram_split_reference)
    )
    rng = random.Random(44)
    pairs = [_corpus(rng, rng.choice(KINDS)) for _ in range(40)] + [_history_pair(rng) for _ in range(20)]
    for old, new in pairs:
        table = InternTable()
        o, n = table.intern(b"".join(old)), table.intern(b"".join(new))
        histogram.diff_histogram(o, n)
        reference.histogram_reference(o, n)
    assert calls["reference"] > 40 and calls["reference one by one"] > 20
    assert calls["new"] == calls["reference"]


# The occurrence index is built once per old file and kept on it, so a
# merge's two base diffs from the ancestor share one.

def _counting_scan_a(monkeypatch):
    from diffmerge import histogram

    calls = []

    def counting(tokens):
        calls.append(tokens)
        return scan_a(tokens)

    monkeypatch.setattr(histogram, "scan_a", counting)
    return calls


def test_merge_base_diffs_share_one_index(monkeypatch):
    calls = _counting_scan_a(monkeypatch)
    o = b"".join(b"line %d\n" % i for i in range(40))
    left = o.replace(b"line 3\n", b"ours\n")
    right = o.replace(b"line 30\n", b"theirs\n").replace(b"line 3\n", b"other\n")
    # without zealous refinement the two base diffs are the only diffs
    out = merge3(o, left, right, MergeOptions(algorithm="histogram", zealous=False))
    assert out.conflict_count == 1
    assert len(calls) == 1
    assert calls[0] == InternTable().intern(o).tokens


def test_each_old_file_gets_its_own_index(monkeypatch):
    calls = _counting_scan_a(monkeypatch)
    table = InternTable()
    x, y, z = (table.intern(data) for data in (b"a\nb\nc\nb\n", b"b\nc\nd\n", b"a\nc\n"))
    diff_histogram(x, y)
    diff_histogram(x, z)
    assert len(calls) == 1 and x.occurrence_index is not None
    for old, new in ((y, x), (z, y)):
        assert diff_histogram(old, new) == reference.histogram_reference(old, new)
    assert calls == [x.tokens, y.tokens, z.tokens]
    assert y.occurrence_index is not x.occurrence_index
    assert y.occurrence_index == scan_a(y.tokens)


def test_cached_index_is_not_part_of_equality_or_repr():
    table = InternTable()
    old, new = table.intern(b"a\nb\n"), table.intern(b"b\nc\n")
    bare = InternedSequence(list(old.tokens), list(old.lines))
    diff_histogram(old, new)
    assert old.occurrence_index is not None and bare.occurrence_index is None
    assert old == bare
    assert repr(old) == repr(bare) == f"InternedSequence(tokens={old.tokens!r}, lines={old.lines!r})"


# Each seed's run is measured once per diff: a nested subproblem clamps the
# run remembered in the diff's ``runs`` dict to its own box.

def _watched_runs(monkeypatch):
    """Record each run extension find_split makes as (direction, seed, run)."""
    from diffmerge import histogram

    measured = []

    def watch(direction, fn, seed):
        def wrapper(a, i, b, j, limit):
            k = fn(a, i, b, j, limit)
            measured.append((direction, seed(i, j), k))
            return k
        return wrapper

    # a forward run is measured from the line after its seed point
    forward = watch("forward", histogram.common_prefix, lambda i, j: (i - 1, j - 1))
    monkeypatch.setattr(histogram, "common_prefix", forward)
    monkeypatch.setattr(histogram, "common_suffix", watch("backward", histogram.common_suffix, lambda i, j: (i, j)))
    return measured


def test_each_seed_run_is_measured_once_per_diff(monkeypatch):
    measured = _watched_runs(monkeypatch)
    rng = random.Random("histogram-runs")
    old = source_lines(rng, 3000)
    new = list(old)
    for _ in range(50):
        at = rng.randrange(len(new))
        new[at:at + rng.randrange(4)] = source_lines(rng, rng.randrange(4))
    table = InternTable()
    o, n = table.intern(b"".join(old)), table.intern(b"".join(new))
    got = diff_histogram(o, n)
    assert got == reference.histogram_reference(o, n)
    points = [(direction, seed) for direction, seed, _ in measured]
    assert len(points) > 100
    assert len(set(points)) == len(points)


def test_nested_call_clamps_the_remembered_runs(monkeypatch):
    measured = _watched_runs(monkeypatch)
    # U=1 and U2=2 are unique and F=3 occurs over the cap, so once U (or, in
    # the sub-box, U2) seeds a region F is gated, and S=4 seeds runs backward
    # over F and forward over T1..T3 (5, 6, 7) from old[4], new[5].
    a = [1, 3, 3, 3, 4, 5, 6, 7, 2, 8] + [3] * 70
    b = [1, 2, 3, 3, 3, 4, 5, 6, 7, 9]
    runs = {}
    index = scan_a(a)
    find_split(a, b, 0, len(a), 0, len(b), index, runs)
    outer = list(measured)
    # the sub-box starts after the backward run's start in old, and ends
    # before the forward run's end in new
    sub = (2, len(a), 1, 8)
    assert ("backward", (4, 5), 3) in outer and 4 - 3 < sub[0]
    assert ("forward", (4, 5), 3) in outer and 5 + 3 >= sub[3]
    want = reference.histogram_split_reference(a, b, *sub)
    assert want == Region(2, 6, 3, 7, 1)
    assert find_split(a, b, *sub, index, runs) == want
    assert not [m for m in measured[len(outer):] if m[1] == (4, 5)]


def test_region_is_an_immutable_record():
    region = Region(1, 2, 3, 4, 5)
    with pytest.raises(AttributeError):
        region.record_count = 1
    with pytest.raises(AttributeError):
        region.note = "no other attribute either"
    assert region == Region(1, 2, 3, 4, 5) and hash(region) == hash(Region(1, 2, 3, 4, 5))
    assert region != Region(1, 2, 3, 4, 6)
    assert repr(region) == "Region(begin1=1, end1=2, begin2=3, end2=4, record_count=5)"


# find_split skips a one-line candidate (one that matches neither the new
# line before its seed nor the one after) once the lowest record count is at
# most its own, len(positions); before that it must still be taken.

def test_rarer_one_line_candidate_after_a_longer_region_wins():
    # 7 8 (each twice in old) is found first, with record count 2; the
    # one-line candidate 5 (once in old) comes later and is rarer
    a = [7, 8, 1, 5, 2, 7, 8]
    b = [7, 8, 3, 5, 4]
    want = Region(3, 3, 3, 3, 1)
    assert reference.histogram_split_reference(a, b, 0, len(a), 0, len(b)) == want
    assert find_split(a, b, 0, len(a), 0, len(b), scan_a(a), {}) == want
    # an equally rare one-line candidate does not replace the region
    a = [7, 8, 1, 5, 2, 5, 7, 8]
    want = Region(0, 1, 0, 1, 2)
    assert reference.histogram_split_reference(a, b, 0, len(a), 0, len(b)) == want
    assert find_split(a, b, 0, len(a), 0, len(b), scan_a(a), {}) == want


def test_one_line_candidates_match_reference():
    # lines drawn with skewed weights from a small alphabet, so that most
    # matches are one line long and their record counts vary
    rng = random.Random("histogram-one-line")
    later_one_line_wins = 0
    for _ in range(120):
        alphabet = [b"%d\n" % i for i in range(rng.randrange(4, 40))]
        weights = [1 / (i + 1) for i in range(len(alphabet))]
        old = rng.choices(alphabet, weights, k=rng.randrange(100))
        new = rng.choices(alphabet, weights, k=rng.randrange(100))
        _assert_same_flags(b"".join(old), b"".join(new))
        _assert_same_flags(b"".join(new), b"".join(old))
        table = InternTable()
        a, b = table.intern(b"".join(old)).tokens, table.intern(b"".join(new)).tokens
        index = scan_a(a)
        for _ in range(15):
            lo1 = rng.randrange(len(a) + 1)
            hi1 = rng.randrange(lo1, len(a) + 1)
            lo2 = rng.randrange(len(b) + 1)
            hi2 = rng.randrange(lo2, len(b) + 1)
            want = _split_or_fallback(reference.histogram_split_reference, a, b, lo1, hi1, lo2, hi2)
            assert _split_or_fallback(find_split, a, b, lo1, hi1, lo2, hi2, index, {}) == want
            # a one-line winner seeded after an earlier common line: a best
            # existed when its seed was reached, with a higher record count
            if isinstance(want, Region) and want.begin1 == want.end1:
                box = set(a[lo1:hi1])
                later_one_line_wins += any(t in box for t in b[lo2:want.begin2])
    assert later_one_line_wins > 100


def test_fallback_unless_a_rare_line_follows_the_frequent_ones():
    # 1 and 2 alternate 70 times each in old (over the cap); 5 occurs once,
    # at its end.  new opens with the over-cap lines, which seed nothing, so
    # the search falls back unless a 5 later in new lies inside the box
    a = [1, 2] * 70 + [5]
    for tail in ([5], [5, 1, 2], [1, 2] * 30 + [5], [6], []):
        b = [1, 2] * 40 + tail
        for hi1 in (len(a), len(a) - 1):  # the box old[0:140] leaves the 5 outside
            want = _split_or_fallback(reference.histogram_split_reference, a, b, 0, hi1, 0, len(b))
            assert _split_or_fallback(find_split, a, b, 0, hi1, 0, len(b), scan_a(a), {}) == want
            assert (want == "fallback") == (5 not in tail or hi1 < len(a))
