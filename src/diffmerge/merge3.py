"""Three-way merge: region computation, zealous refinement, and rendering.

The pipeline diffs the ancestor against each side, walks the two hunk lists
through a six-case loop to build merge regions, shrinks conflicts as far as
the style allows (zealous: merge splits them along a diff of their sides,
zdiff3 trims common ends, diff3 keeps them whole as git's xdl_do_merge does)
and renders them with conflict markers; zealous refinement touches only
conflicts.  Neither the input bytes nor the intern table's dict are held once
the three files are interned.  Regions are tuple records, and a refined region
is a ``_replace`` of the one it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import Change, InternedSequence, InternTable, common_prefix, common_suffix, flags_to_script
from .engine import ALGORITHMS, diff_lines

LEFT = "left-change"
RIGHT = "right-change"
SAME = "same-change"
CONFLICT = "conflict"

STYLES = ("merge", "diff3", "zdiff3")

_REMERGE_GAP = 3  # conflicts separated by fewer common lines are rejoined


class MergeError(Exception):
    pass


class InvariantViolation(MergeError):
    """Computed merge regions are inverted, out of order or overlapping."""


class MergeRegion(NamedTuple):
    start_a: int
    end_a: int
    start_l: int
    end_l: int
    start_r: int
    end_r: int
    kind: str


@dataclass(frozen=True)
class MergeOptions:
    algorithm: str = "histogram"
    style: str = "merge"
    zealous: bool = True
    labels: tuple[str, str, str] = ("ours", "base", "theirs")

    def __post_init__(self) -> None:
        if self.style not in STYLES:
            raise MergeError(f"unknown style {self.style!r}")
        if self.algorithm not in ALGORITHMS:
            raise MergeError(f"unknown diff algorithm {self.algorithm!r}")


@dataclass
class MergeOutcome:
    regions: list[MergeRegion]
    rendered: bytes
    conflict_count: int
    conflict_line_count: int

    @property
    def clean(self) -> bool:
        return self.conflict_count == 0


def compute_merge_regions(
    changes_l: tuple[Change, ...],
    changes_r: tuple[Change, ...],
    left: InternedSequence,
    right: InternedSequence,
    len_o: int,
) -> list[MergeRegion]:
    """Walk both hunk lists and classify every changed stretch.

    One-sided changes become left/right regions positioned in the opposite
    file by alignment lookback; overlapping changes become conflicts expanded
    to cover both old ranges; identical changes are dropped silently (false
    conflicts).  Touching regions are coalesced, combining kinds into a
    conflict when they differ.
    """
    regions: list[MergeRegion] = []

    def emit(kind: str, sa: int, ea: int, sl: int, el: int, sr: int, er: int) -> None:
        if regions:
            prev = regions[-1]
            if sa <= prev.end_a or sl <= prev.end_l or sr <= prev.end_r:
                # the later piece's ends win, as in git's xdl_append_merge:
                # the earlier piece projected its ends past hunks it had not
                # seen, so a max could overshoot the files
                kind = kind if kind == prev.kind else CONFLICT
                regions[-1] = MergeRegion(prev.start_a, ea, prev.start_l, el, prev.start_r, er, kind)
                return
        regions.append(MergeRegion(sa, ea, sl, el, sr, er, kind))

    # an end marker past both files closes each list; a change beside it
    # projects with the length difference of the files
    ls = [*changes_l, Change(len_o + 1, len_o + 1, len(left) + 1, len(left) + 1)]
    rs = [*changes_r, Change(len_o + 1, len_o + 1, len(right) + 1, len(right) + 1)]
    i = j = 0
    while i < len(ls) - 1 or j < len(rs) - 1:
        cl, cr = ls[i], rs[j]
        if cl.end_old < cr.start_old:
            off = cr.start_new - cr.start_old
            emit(LEFT, cl.start_old, cl.end_old, cl.start_new, cl.end_new,
                 cl.start_old + off, cl.end_old + off)
            i += 1
            continue
        if cr.end_old < cl.start_old:
            off = cl.start_new - cl.start_old
            emit(RIGHT, cr.start_old, cr.end_old, cr.start_old + off, cr.end_old + off,
                 cr.start_new, cr.end_new)
            j += 1
            continue
        identical = (
            cl.start_old == cr.start_old
            and cl.end_old == cr.end_old
            and cl.end_new - cl.start_new == cr.end_new - cr.start_new
            and left.tokens[cl.start_new:cl.end_new] == right.tokens[cr.start_new:cr.end_new]
        )
        if not identical:
            sa = min(cl.start_old, cr.start_old)
            ea = max(cl.end_old, cr.end_old)
            emit(
                CONFLICT,
                sa,
                ea,
                cl.start_new - (cl.start_old - sa),
                cl.end_new + (ea - cl.end_old),
                cr.start_new - (cr.start_old - sa),
                cr.end_new + (ea - cr.end_old),
            )
        # drop the change ending first; both when they end together
        if cl.end_old >= cr.end_old:
            j += 1
        if cr.end_old >= cl.end_old:
            i += 1

    _check_ordering(regions)
    return regions


def _check_ordering(regions: list[MergeRegion]) -> None:
    """Each region ends at or after its start in all three files and starts
    at or after the previous region's end; hunks given out of order break it."""
    end_a = end_l = end_r = 0
    for r in regions:
        if not (end_a <= r.start_a <= r.end_a and end_l <= r.start_l <= r.end_l and end_r <= r.start_r <= r.end_r):
            raise InvariantViolation(f"region inverted or out of order: {r}")
        end_a, end_l, end_r = r.end_a, r.end_l, r.end_r


def _hunks(old: InternedSequence, new: InternedSequence, algorithm: str) -> tuple[Change, ...]:
    """The one place a merge turns a diff into hunks, through this module's own names."""
    return flags_to_script(diff_lines(old, new, algorithm), old, new)


def refine_zealous(
    region: MergeRegion,
    left: InternedSequence,
    right: InternedSequence,
    algorithm: str,
) -> list[MergeRegion]:
    """Split one conflict along the unchanged runs of a two-way side diff.

    Identical sides demote the whole region to a same-change before any side
    diff is run.  Sub-conflicts inherit the ancestor range on the first piece
    only; the ranges of later pieces are empty, which is why this refinement
    cannot feed the diff3 renderer.
    """
    region = _demote_equal_sides(region, left, right)
    if region.kind != CONFLICT or region.end_l == region.start_l or region.end_r == region.start_r:
        return [region]

    sub_l = InternedSequence(left.tokens[region.start_l:region.end_l], left.lines)
    sub_r = InternedSequence(right.tokens[region.start_r:region.end_r], right.lines)
    sl, sr = region.start_l, region.start_r
    pieces = []
    for start_old, end_old, start_new, end_new in _hunks(sub_l, sub_r, algorithm):
        sa = region.end_a if pieces else region.start_a
        pieces.append(MergeRegion(sa, region.end_a, sl + start_old, sl + end_old, sr + start_new, sr + end_new, CONFLICT))
    return pieces


def _demote_equal_sides(region: MergeRegion, left: InternedSequence, right: InternedSequence) -> MergeRegion:
    """A conflict whose two sides hold the same lines becomes a same-change."""
    if (
        region.kind == CONFLICT
        and left.tokens[region.start_l:region.end_l] == right.tokens[region.start_r:region.end_r]
    ):
        return region._replace(kind=SAME)
    return region


def _trim_zdiff3(region: MergeRegion, o: InternedSequence, left: InternedSequence, right: InternedSequence) -> MergeRegion:
    """Drop line runs common to all three files from both ends of a conflict.

    A run common to all three is the shorter of the base-left and left-right runs."""
    sa, ea, sl, el, sr, er, _kind = region
    a, l, r = o.tokens, left.tokens, right.tokens
    k = common_prefix(l, sl, r, sr, common_prefix(a, sa, l, sl, min(ea - sa, el - sl, er - sr)))
    sa, sl, sr = sa + k, sl + k, sr + k
    k = common_suffix(l, el, r, er, common_suffix(a, ea, l, el, min(ea - sa, el - sl, er - sr)))
    return MergeRegion(sa, ea - k, sl, el - k, sr, er - k, CONFLICT)


class _Writer:
    """Byte assembly that never lets a marker share a line with content."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def lines(self, seq: InternedSequence, start: int, end: int) -> None:
        self.parts.extend(map(seq.lines.__getitem__, seq.tokens[start:end]))

    def marker(self, text: bytes) -> None:
        if self.parts and not self.parts[-1].endswith(b"\n"):
            self.parts.append(b"\n")
        self.parts.append(text)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


def render(
    regions: list[MergeRegion],
    o: InternedSequence,
    left: InternedSequence,
    right: InternedSequence,
    options: MergeOptions,
) -> bytes:
    # argv's error handler, so a label that is not UTF-8 comes out as the bytes given
    label_l, label_o, label_r = (s.encode(errors="surrogateescape") for s in options.labels)
    out = _Writer()
    cursor = 0
    for region in regions:
        if region.kind in (LEFT, SAME):
            continue  # left's own lines: the next write from cursor takes them
        out.lines(left, cursor, region.start_l)
        if region.kind == RIGHT:
            out.lines(right, region.start_r, region.end_r)
        else:
            out.marker(b"<<<<<<<" + (b" " + label_l if label_l else b"") + b"\n")
            out.lines(left, region.start_l, region.end_l)
            if options.style in ("diff3", "zdiff3"):
                out.marker(b"|||||||" + (b" " + label_o if label_o else b"") + b"\n")
                out.lines(o, region.start_a, region.end_a)
            out.marker(b"=======\n")
            out.lines(right, region.start_r, region.end_r)
            out.marker(b">>>>>>>" + (b" " + label_r if label_r else b"") + b"\n")
        cursor = region.end_l
    out.lines(left, cursor, len(left))
    return out.getvalue()


def merge_regions_pipeline(
    o: InternedSequence,
    left: InternedSequence,
    right: InternedSequence,
    options: MergeOptions,
) -> list[MergeRegion]:
    script_l = _hunks(o, left, options.algorithm)
    script_r = _hunks(o, right, options.algorithm)
    o.occurrence_index = None  # read by the base diffs only; freed before rendering
    regions = compute_merge_regions(script_l, script_r, left, right, len(o))

    if options.zealous and options.style == "merge":
        refined: list[MergeRegion] = []
        for region in regions:
            if region.kind != CONFLICT:  # refining, demoting and rejoining change only conflicts
                refined.append(region)
                continue
            for piece in refine_zealous(region, left, right, options.algorithm):
                piece = _demote_equal_sides(piece, left, right)
                prev = refined[-1] if refined else None
                if prev and prev.kind == piece.kind == CONFLICT and piece.start_l - prev.end_l < _REMERGE_GAP:
                    refined[-1] = prev._replace(end_a=max(prev.end_a, piece.end_a), end_l=piece.end_l, end_r=piece.end_r)
                else:
                    refined.append(piece)
        regions = [_demote_equal_sides(r, left, right) if r.kind == CONFLICT else r for r in refined]
    elif options.style == "zdiff3" and options.zealous:
        regions = [
            _trim_zdiff3(r, o, left, right) if r.kind == CONFLICT else r
            for r in regions
        ]
    return regions


def merge3(
    o_data: bytes,
    left_data: bytes,
    right_data: bytes,
    options: MergeOptions | None = None,
) -> MergeOutcome:
    """Merge two descendants of a common ancestor; all inputs are raw bytes."""
    if options is None:
        options = MergeOptions()
    table = InternTable()
    o = table.intern(o_data)
    left = table.intern(left_data)
    right = table.intern(right_data)
    del table, o_data, left_data, right_data  # only the sequences, and the lines they share, are read from here

    regions = merge_regions_pipeline(o, left, right, options)
    rendered = render(regions, o, left, right, options)
    conflicts = [r for r in regions if r.kind == CONFLICT]
    line_count = sum((r.end_l - r.start_l) + (r.end_r - r.start_r) for r in conflicts)
    return MergeOutcome(regions, rendered, len(conflicts), line_count)
