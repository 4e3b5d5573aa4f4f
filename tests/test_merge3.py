import importlib
import random

import pytest

from diffmerge.core import Change, InternedSequence, InternTable
from diffmerge.engine import diff_lines
from diffmerge.merge3 import (
    CONFLICT,
    LEFT,
    RIGHT,
    SAME,
    InvariantViolation,
    MergeError,
    MergeOptions,
    MergeRegion,
    _hunks,
    _trim_zdiff3,
    compute_merge_regions,
    merge3,
    merge_regions_pipeline,
    refine_zealous,
)

import reference
from conftest import random_file


def interned(*files):
    table = InternTable()
    return tuple(table.intern(f) for f in files)


def test_options_reject_an_unknown_style():
    with pytest.raises(MergeError):
        MergeOptions(style="diff2")


def test_options_reject_an_unknown_algorithm():
    with pytest.raises(MergeError, match="bogus"):
        MergeOptions(algorithm="bogus")


def test_diff3_renders_the_same_with_either_zealous():
    # diff3 shows each conflict's whole ancestor range: zealous has nothing to shrink
    assert MergeOptions(style="diff3").zealous
    rng = random.Random("diff3-zealous")
    conflicts = 0
    for _ in range(300):
        triple = _fuzz_triple(rng)
        zealous = merge3(*triple, MergeOptions(style="diff3"))
        plain = merge3(*triple, MergeOptions(style="diff3", zealous=False))
        assert (zealous.regions, zealous.rendered) == (plain.regions, plain.rendered), triple
        conflicts += zealous.conflict_count
    assert conflicts > 100


def test_empty_scripts_give_no_regions():
    o, l, r = interned(b"a\n", b"a\n", b"a\n")
    assert compute_merge_regions((), (), l, r, 1) == []


def test_hunks_out_of_order_raise_invariant_violation():
    # the later hunk first: emit joins the earlier one into an inverted region
    l, r = interned(b"a\nb\nc\nd\ne\n", b"a\nb\nc\nd\ne\n")
    with pytest.raises(InvariantViolation):
        compute_merge_regions((Change(3, 4, 3, 4), Change(1, 2, 1, 2)), (), l, r, 5)


def test_one_sided_left_change_lookback():
    # O: a b c, L: a X c (change at line 1), R: a b c d (appended d)
    o, l, r = interned(b"a\nb\nc\n", b"a\nX\nc\n", b"a\nb\nc\nd\n")
    sl = (Change(1, 2, 1, 2),)
    sr = (Change(3, 3, 3, 4),)
    regions = compute_merge_regions(sl, sr, l, r, 3)
    assert regions[0] == MergeRegion(1, 2, 1, 2, 1, 2, LEFT)
    assert regions[1].kind == RIGHT
    assert not reference.validate_merge_regions(regions, o.tokens, l.tokens, r.tokens)


def test_identical_change_is_applied_silently():
    o, l, r = interned(b"a\nb\nc\n", b"a\nX\nc\n", b"a\nX\nc\n")
    sl = (Change(1, 2, 1, 2),)
    sr = (Change(1, 2, 1, 2),)
    regions = compute_merge_regions(sl, sr, l, r, 3)
    assert regions == []
    out = merge3(b"a\nb\nc\n", b"a\nX\nc\n", b"a\nX\nc\n")
    assert out.clean and out.rendered == b"a\nX\nc\n"


def test_conflict_region_covers_both_changes_all_sign_combinations():
    # brute-validate the case-3 expansion for every o_s/o_e sign combination
    rng = random.Random(13)
    checked = set()
    for _ in range(4000):
        o_len = rng.randrange(2, 7)
        base = [b"o%d\n" % i for i in range(o_len)]
        s1, e1 = sorted(rng.sample(range(o_len + 1), 2)) if rng.random() < 0.8 else ((lambda x: (x, x))(rng.randrange(o_len + 1)))
        s2, e2 = sorted(rng.sample(range(o_len + 1), 2)) if rng.random() < 0.8 else ((lambda x: (x, x))(rng.randrange(o_len + 1)))
        ins1 = [b"L%d\n" % i for i in range(rng.randrange(3))]
        ins2 = [b"R%d\n" % i for i in range(rng.randrange(3))]
        if (e1 - s1) + len(ins1) == 0 or (e2 - s2) + len(ins2) == 0:
            continue
        if (s1, e1) == (s2, e2) and not ins1 and not ins2:
            continue  # identical deletions are applied silently, no region
        left_lines = base[:s1] + ins1 + base[e1:]
        right_lines = base[:s2] + ins2 + base[e2:]
        table = InternTable()
        o = table.intern(b"".join(base))
        l = table.intern(b"".join(left_lines))
        r = table.intern(b"".join(right_lines))
        sl = (Change(s1, e1, s1, s1 + len(ins1)),)
        sr = (Change(s2, e2, s2, s2 + len(ins2)),)
        regions = compute_merge_regions(sl, sr, l, r, o_len)
        problems = reference.validate_merge_regions(regions, o.tokens, l.tokens, r.tokens)
        assert not problems, (base, left_lines, right_lines, regions, problems)
        if not (e1 < s2 or e2 < s1):
            checked.add((s1 - s2 < 0, e1 - e2 < 0))
    assert len(checked) == 4  # all four sign combinations exercised


def test_abab_locality_conflict():
    for k in (2, 10, 100):
        o = b"a\nb\n" * k
        left = b"a\nb\n" + o
        right = b"a\nb\n" * (k - 1) + b"c\n"
        out = merge3(o, left, right)
        assert out.conflict_count >= 1


def test_refine_demotes_identical_sides():
    o, l, r = interned(b"x\n", b"s\nt\n", b"s\nt\n")
    region = MergeRegion(0, 1, 0, 2, 0, 2, CONFLICT)
    (got,) = refine_zealous(region, l, r, "histogram")
    assert got.kind == SAME
    # both sides empty: the two deletions overlapped without being equal
    (got,) = refine_zealous(MergeRegion(0, 1, 0, 0, 0, 0, CONFLICT), l, r, "histogram")
    assert got.kind == SAME


def test_refine_side_sequences_share_the_parents_lines(monkeypatch):
    seen = []

    def spy(old, new, algorithm):
        seen.append((old, new))
        return diff_lines(old, new, algorithm)

    monkeypatch.setattr(importlib.import_module("diffmerge.merge3"), "diff_lines", spy)
    o, l, r = interned(b"x\n", b"s\nL\nt\n", b"s\nR\nt\n")
    pieces = refine_zealous(MergeRegion(0, 1, 0, 3, 0, 3, CONFLICT), l, r, "histogram")
    assert pieces == [MergeRegion(0, 1, 1, 2, 1, 2, CONFLICT)]
    ((sub_l, sub_r),) = seen
    assert sub_l.lines is l.lines and sub_r.lines is r.lines
    assert (sub_l.tokens, sub_r.tokens) == (l.tokens, r.tokens)


def test_refine_removes_aa_conflict():
    # mismatched hunks made both sides of this conflict read "a a"
    o, l, r = interned(b"X\na\nY\n", b"X\na\na\nY\n", b"X\na\na\nY\n")
    region = MergeRegion(1, 2, 1, 3, 1, 3, CONFLICT)
    (got,) = refine_zealous(region, l, r, "histogram")
    assert got.kind == SAME


def test_refine_splits_and_remerges_close_conflicts():
    # sides share common lines between two differing spots: as git's
    # xdl_simplify_non_conflicts does, the refined pieces are rejoined when
    # at most three lines lie between them (git merge-file ours base theirs
    # exits 1, one conflict, for two and three lines, and 2 for four)
    o = b"base\n"
    for common, conflicts in ((2, 1), (3, 1), (4, 2)):
        middle = b"".join(b"c%d\n" % i for i in range(common))
        out = merge3(o, b"L1\n" + middle + b"L2\n", b"R1\n" + middle + b"R2\n")
        assert out.conflict_count == out.rendered.count(b"<<<<<<<") == conflicts, common


def test_merge_style_render_bytes():
    out = merge3(b"one\nbase\nlast\n", b"one\nleft\nlast\n", b"one\nright\nlast\n")
    assert out.rendered == (
        b"one\n"
        b"<<<<<<< ours\n"
        b"left\n"
        b"=======\n"
        b"right\n"
        b">>>>>>> theirs\n"
        b"last\n"
    )
    assert out.conflict_count == 1
    assert out.conflict_line_count == 2


def test_diff3_style_shows_ancestor():
    opts = MergeOptions(style="diff3", zealous=False)
    out = merge3(b"one\nbase\nlast\n", b"one\nleft\nlast\n", b"one\nright\nlast\n", opts)
    assert out.rendered == (
        b"one\n"
        b"<<<<<<< ours\n"
        b"left\n"
        b"||||||| base\n"
        b"base\n"
        b"=======\n"
        b"right\n"
        b">>>>>>> theirs\n"
        b"last\n"
    )


def test_marker_shape_is_seven_chars_plus_label():
    out = merge3(b"b\n", b"l\n", b"r\n", MergeOptions(labels=("L", "B", "R")))
    lines = out.rendered.splitlines()
    assert lines[0] == b"<<<<<<< L"
    assert b"=======" in lines
    assert lines[-1] == b">>>>>>> R"


def test_zdiff3_trims_common_ends():
    # both sides append the same trailer inside an otherwise conflicting block
    o = b"keep\nmid\nkeep2\n"
    left = b"keep\nLEFT\nshared\nkeep2\n"
    right = b"keep\nRIGHT\nshared\nkeep2\n"
    out = merge3(o, left, right, MergeOptions(style="zdiff3"))
    # "shared" is common to both sides but absent from the ancestor range;
    # git's trim, over ours and theirs only, still moves it out of the
    # conflict, as git merge-file --zdiff3 ours base theirs does
    assert out.rendered == b"keep\n<<<<<<< ours\nLEFT\n||||||| base\nmid\n=======\nRIGHT\n>>>>>>> theirs\nshared\nkeep2\n"

    # when the run is common to all three files it moves out of the conflict
    o = b"keep\nshared\nmid\nkeep2\n"
    left = b"keep\nshared\nLEFT\nkeep2\n"
    right = b"keep\nshared\nRIGHT\nkeep2\n"
    out = merge3(o, left, right, MergeOptions(style="zdiff3"))
    rendered = out.rendered
    head, _, _ = rendered.partition(b"<<<<<<<")
    assert b"shared\n" in head


def test_one_sided_identities_byte_exact():
    rng = random.Random(3)
    for _ in range(150):
        o = random_file(rng, 12, 3)
        x = random_file(rng, 12, 3)
        out = merge3(o, o, x)
        assert out.clean and out.rendered == x
        out = merge3(o, x, o)
        assert out.clean and out.rendered == x


def test_clean_merge_with_equal_sides_returns_them():
    rng = random.Random(14)
    for _ in range(100):
        o = random_file(rng, 10, 3)
        x = random_file(rng, 10, 3)
        out = merge3(o, x, x)
        assert out.clean and out.rendered == x


def test_duplicated_addition_same_change():
    # both sides added a B beside an A, but ours' diff adds "A B" before the
    # first A and theirs' adds the B after it; the merge silently duplicates
    # the addition, as git merge-file ours base theirs does (exit 0)
    o = b"A\nA\n"
    left = b"j\nA\nB\nA\nA\n"
    right = b"A\nB\nA\nA\nj\n"
    out = merge3(o, left, right, MergeOptions(algorithm="minimal"))
    assert out.clean and out.rendered == b"j\nA\nB\nA\nB\nA\nA\nj\n"


def test_duplicated_addition_different_changes_merge_cleanly():
    # git merge-file ours base theirs exits 0 with the same bytes
    o = b"A\nA\n"
    left = b"j\nA\nB\nA\nA\n"
    right = b"A\nC\nA\nA\nj\n"
    out = merge3(o, left, right, MergeOptions(algorithm="minimal"))
    assert out.clean and out.rendered == b"j\nA\nB\nA\nC\nA\nA\nj\n"


def test_non_commutative_merge_keeps_different_middle_line():
    o = b"X\n"
    left = b"A\na\nb\nc\nB\na\nb\nc\n"
    right = b"B\na\nb\nc\nA\na\nb\nc\n"
    m1 = merge3(o, left, right)
    m2 = merge3(o, right, left)
    assert m1.conflict_count == m2.conflict_count == 2

    def between_conflicts(rendered):
        after_first = rendered.split(b">>>>>>> theirs\n", 1)[1]
        return after_first.split(b"<<<<<<< ours\n", 1)[0]

    assert between_conflicts(m1.rendered) == b"B\na\nb\nc\n"
    assert between_conflicts(m2.rendered) == b"A\na\nb\nc\n"


def test_without_zealous_merge_is_mirror_symmetric():
    rng = random.Random(1002)
    opts = MergeOptions(zealous=False)
    for _ in range(150):
        o = random_file(rng, 8, 3)
        left = random_file(rng, 8, 3)
        right = random_file(rng, 8, 3)
        m1 = merge3(o, left, right, opts)
        m2 = merge3(o, right, left, opts)
        mirrored = [
            MergeRegion(r.start_a, r.end_a, r.start_r, r.end_r, r.start_l, r.end_l,
                        {LEFT: RIGHT, RIGHT: LEFT}.get(r.kind, r.kind))
            for r in m2.regions
        ]
        assert m1.regions == mirrored


def test_region_ordering_holds_after_refinement():
    rng = random.Random(2002)
    for _ in range(300):
        o = random_file(rng, 8, 3)
        left = random_file(rng, 8, 3)
        right = random_file(rng, 8, 3)
        out = merge3(o, left, right)
        pa = pl = pr = 0
        for reg in out.regions:
            assert reg.start_a >= pa and reg.start_l >= pl and reg.start_r >= pr
            pa, pl, pr = reg.end_a, reg.end_l, reg.end_r


def test_default_merge_never_emits_equal_sided_conflicts():
    # on these seeded inputs; a conflict joined from two pieces can keep
    # equal sides, as git's does (test_rejoined_equal_sided_conflict_is_kept)
    rng = random.Random(3003)
    for _ in range(2000):
        o = random_file(rng, 6, 3)
        left = random_file(rng, 6, 3)
        right = random_file(rng, 6, 3)
        out = merge3(o, left, right)
        table = InternTable()
        oo, ll, rr = table.intern(o), table.intern(left), table.intern(right)
        for reg in out.regions:
            if reg.kind == CONFLICT:
                assert ll.tokens[reg.start_l:reg.end_l] != rr.tokens[reg.start_r:reg.end_r]


REJOINED_WITNESS = (b"c\nb\n", b"c\na\nb\nb\na\n", b"b\nc\na\nb\nb\na\n")


def test_rejoined_equal_sided_conflict_is_kept():
    # zealous pieces rejoined across a short gap can end with equal sides;
    # git demotes only a conflict whose own side diff is empty, so it keeps
    # this one: git merge-file ours base theirs, and git merge -s recursive
    # -Xdiff-algorithm=myers, exit 1 with these bytes
    o, left, right = REJOINED_WITNESS
    out = merge3(o, left, right, MergeOptions(algorithm="myers"))
    assert out.rendered == b"b\nc\na\n<<<<<<< ours\nb\nb\n=======\nb\nb\n>>>>>>> theirs\na\n"
    assert out.regions[1:] == [MergeRegion(1, 2, 2, 4, 3, 5, CONFLICT)]
    # two conflicts before refinement, whose pieces lie one line apart
    unrefined = merge_regions_pipeline(*interned(o, left, right), MergeOptions(algorithm="myers", zealous=False))
    assert [r.kind for r in unrefined] == [RIGHT, CONFLICT, CONFLICT]


# Each of these made region coalescing keep an end that the earlier piece
# had projected past a hunk it had not seen yet, where git's
# xdl_append_merge takes the later piece's ends.


def test_coalesced_conflict_takes_the_later_ends():
    o, left, right = b"b\na\nb\nc\n", b"c\n", b"a\nc\n"
    out = merge3(o, left, right)
    # theirs' side of the conflict is "a" alone: the common "c" follows it
    assert out.rendered == b"<<<<<<< ours\n=======\na\n>>>>>>> theirs\nc\n"
    assert not reference.validate_merge_regions(out.regions, *(s.tokens for s in interned(o, left, right)))


def test_coalesced_conflict_trims_in_zdiff3():
    out = merge3(b"a\nc\nc\n", b"c\n", b"b\n", MergeOptions(style="zdiff3"))
    assert out.regions == [MergeRegion(0, 3, 0, 1, 0, 1, CONFLICT)]
    assert out.rendered == b"<<<<<<< ours\nc\n||||||| base\na\nc\nc\n=======\nb\n>>>>>>> theirs\n"


def test_coalesced_conflict_stays_inside_theirs():
    out = merge3(b"a\nb\nb\n", b"", b"b\n")
    assert out.regions == [MergeRegion(0, 3, 0, 0, 0, 1, CONFLICT)]


# A seeded property fuzz of merge3 over every algorithm and style.

_FUZZ_LINES = (
    b"a\n", b"b\n", b"c\n", b"d\n", b"a\r\n", b"\r\n", b"\n", b"x\x00y\n",
    b"<<<<<<< ours\n", b"=======\n", b">>>>>>> theirs\n", b"||||||| base\n",
)
FUZZ_CONFIGS = [
    MergeOptions(algorithm=algorithm, style=style, zealous=zealous)
    for algorithm in ("myers", "minimal", "patience", "histogram")
    for style, zealous in (
        ("merge", True), ("merge", False), ("diff3", True), ("diff3", False), ("zdiff3", True), ("zdiff3", False)
    )
]


def _fuzz_side(rng, base):
    """base with a few hunks replaced, inserted or deleted."""
    lines = list(base)
    for _ in range(rng.randrange(5)):
        at = rng.randrange(len(lines) + 1)
        lines[at:at + rng.randrange(4)] = [rng.choice(_FUZZ_LINES) for _ in range(rng.randrange(4))]
    data = b"".join(lines)
    if data and rng.random() < 0.15:
        data = data.rstrip(b"\n")
    return data


def _fuzz_triple(rng):
    alphabet = _FUZZ_LINES[: rng.randrange(2, len(_FUZZ_LINES) + 1)]
    base = [rng.choice(alphabet) for _ in range(rng.randrange(25))]
    return _fuzz_side(rng, base), _fuzz_side(rng, base), _fuzz_side(rng, base)


@pytest.mark.parametrize(
    "options", FUZZ_CONFIGS,
    ids=[f"{c.algorithm}-{c.style}{'-zealous' if c.zealous else ''}" for c in FUZZ_CONFIGS],
)
def test_merge3_fuzz(options):
    rng = random.Random(f"merge-fuzz-{options.algorithm}-{options.style}-{options.zealous}")
    for _ in range(300):
        o, left, right = _fuzz_triple(rng)
        out = merge3(o, left, right, options)
        oo, ll, rr = interned(o, left, right)
        pa = pl = pr = 0
        for reg in out.regions:
            assert pa <= reg.start_a <= reg.end_a <= len(oo), (o, left, right, reg)
            assert pl <= reg.start_l <= reg.end_l <= len(ll), (o, left, right, reg)
            assert pr <= reg.start_r <= reg.end_r <= len(rr), (o, left, right, reg)
            # the ancestor may differ here: an identical change on both
            # sides is dropped without a region
            assert ll.tokens[pl:reg.start_l] == rr.tokens[pr:reg.start_r], (o, left, right)
            pa, pl, pr = reg.end_a, reg.end_l, reg.end_r
        assert ll.tokens[pl:] == rr.tokens[pr:], (o, left, right)
        for mine, theirs, want in ((o, right, right), (left, o, left), (left, left, left)):
            one_sided = merge3(o, mine, theirs, options)
            assert one_sided.clean and one_sided.rendered == want, (o, mine, theirs)


HISTOGRAM_CONFIGS = [c for c in FUZZ_CONFIGS if c.algorithm == "histogram"]


@pytest.mark.parametrize(
    "options", HISTOGRAM_CONFIGS,
    ids=[f"{c.style}{'-zealous' if c.zealous else ''}" for c in HISTOGRAM_CONFIGS],
)
def test_shared_index_matches_a_fresh_index_per_diff(options, monkeypatch):
    # the second base diff reuses the ancestor's occurrence index; dropping
    # it before every diff must give the same regions and bytes
    rng = random.Random(f"shared-index-{options.style}-{options.zealous}")
    triples = [_fuzz_triple(rng) for _ in range(300)]
    shared = [merge3(*triple, options) for triple in triples]
    reused = 0

    def fresh_index(old, new, algorithm):
        nonlocal reused
        reused += old.occurrence_index is not None
        old.occurrence_index = None
        return diff_lines(old, new, algorithm)

    monkeypatch.setattr(importlib.import_module("diffmerge.merge3"), "diff_lines", fresh_index)
    for triple, want in zip(triples, shared):
        got = merge3(*triple, options)
        assert (got.regions, got.rendered) == (want.regions, want.rendered), triple
    assert reused > 100


def test_trim_zdiff3_matches_reference():
    # the untrimmed conflicts of fuzzed triples, then conflicts whose three
    # sides share long runs at both ends
    rng = random.Random("trim-zdiff3")
    cases = []
    for _ in range(300):
        o, left, right = interned(*_fuzz_triple(rng))
        regions = merge_regions_pipeline(o, left, right, MergeOptions(style="zdiff3", zealous=False))
        cases += [(r, o, left, right) for r in regions if r.kind == CONFLICT]
    for _ in range(300):
        head = [rng.randrange(3) for _ in range(rng.randrange(40))]
        tail = [rng.randrange(3) for _ in range(rng.randrange(40))]
        o, left, right = (
            InternedSequence(head + [rng.randrange(3) for _ in range(rng.randrange(6))] + tail, [])
            for _ in range(3)
        )
        cases.append((MergeRegion(0, len(o), 0, len(left), 0, len(right), CONFLICT), o, left, right))
    assert len(cases) > 400
    for region, o, left, right in cases:
        got = _trim_zdiff3(region, left, right)
        assert got == reference.trim_zdiff3_reference(region, left, right), (region, o.tokens, left.tokens, right.tokens)


def _runs_triple(rng):
    """A base of short runs of equal lines and two sides that each drop some
    of its lines and may insert one: conflicts whose sides share lines."""
    base = [line for _ in range(rng.randrange(8)) for line in [rng.choice((b"a\n", b"b\n", b"c\n"))] * rng.randint(1, 3)]

    def side():
        lines = [line for line in base if rng.random() < 0.7]
        if rng.random() < 0.5:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice((b"a\n", b"d\n")))
        return b"".join(lines)

    return b"".join(base), side(), side()


# triples with a conflict whose sides are equal, which the merge demotes to
# a same-change, as git's recursive merge does: the first under histogram,
# the others under myers
DEMOTED_WITNESSES = [
    (b"c\nc\nc\na\nc\nc\nc\na\n", b"c\nc\nc\nc\nc\nc\na\n", b"c\nc\nc\nc\n"),
    (b"c\nc\nb\nb\na\na\nb\nb\nb\na\na\nc\n", b"c\nb\nb\na\nc\n", b"c\nc\nb\nb\nb\na\n"),
    (b"b\nc\nc\nc\nc\nc\nc\nc\nc\nc\nc\na\na\nb\n", b"c\nc\nc\nc\nc\nc\nc\nc\na\n", b"b\nc\nc\nc\nc\nc\nc\nc\nc\na\n"),
]


def test_zealous_pipeline_matches_reference():
    # the loop that refines only conflicts must give the regions of git's
    # loop, which refines every region; the first triples demote a whole
    # conflict with equal sides, the last keeps a rejoined one
    rng = random.Random("zealous-reference")
    triples = [*DEMOTED_WITNESSES, REJOINED_WITNESS]
    triples += [_fuzz_triple(rng) if i % 2 else _runs_triple(rng) for i in range(600)]
    seen = {"conflict": 0, "equal sides": 0, "rejoined": 0, "other": 0}
    for triple in triples:
        o, left, right = interned(*triple)
        for algorithm in ("histogram", "myers"):
            hunks = [_hunks(o, side, algorithm) for side in (left, right)]
            regions = compute_merge_regions(*hunks, left, right, len(o))
            want = reference.zealous_reference(regions, left, right, algorithm)
            assert merge_regions_pipeline(o, left, right, MergeOptions(algorithm=algorithm)) == want, triple
            pieces = sum(len(refine_zealous(r, left, right, algorithm)) for r in regions)
            seen["conflict"] += any(r.kind == CONFLICT for r in regions)
            seen["equal sides"] += any(r.kind == SAME for r in want)
            seen["rejoined"] += pieces > len(want)
            seen["other"] += any(r.kind != CONFLICT for r in regions)
    assert seen["equal sides"] >= 3 and min(seen["conflict"], seen["rejoined"], seen["other"]) > 100, seen


def test_merge_region_is_an_immutable_record():
    region = MergeRegion(0, 1, 0, 2, 0, 3, CONFLICT)
    with pytest.raises(AttributeError):
        region.kind = SAME
    with pytest.raises(AttributeError):
        region.note = "no other attribute either"
    same = MergeRegion(0, 1, 0, 2, 0, 3, CONFLICT)
    assert region == same and hash(region) == hash(same)
    assert region != MergeRegion(0, 1, 0, 2, 0, 3, SAME)
    assert region._replace(kind=SAME) == MergeRegion(0, 1, 0, 2, 0, 3, SAME)
    assert repr(region) == "MergeRegion(start_a=0, end_a=1, start_l=0, end_l=2, start_r=0, end_r=3, kind='conflict')"
