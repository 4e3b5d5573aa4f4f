"""Group sliding with the indent heuristic.

A group of consecutive flagged lines can often be slid up or down without
changing what the diff says; this module picks the shift whose two splits
(boundaries) carry the lowest summed penalty under the published weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ChangedLines, InternedSequence

_TAB_WIDTH = 8
_MAX_INDENT = 200


@dataclass(frozen=True)
class IndentWeights:
    """git's fixed indent-heuristic weights (``xdiff/xdiffi.c``); the slider
    reads only DEFAULT_WEIGHTS."""

    start_of_file: int = 1
    end_of_file: int = 21
    total_blanks: int = -30
    post_blank: int = 6
    relative_indent: int = -4
    relative_indent_with_blank: int = 10
    relative_outdent: int = 24
    relative_outdent_with_blank: int = 17
    relative_dedent: int = 23
    relative_dedent_with_blank: int = 17
    total_indent_bias: int = 60


DEFAULT_WEIGHTS = IndentWeights()


@dataclass(frozen=True)
class SplitMeasurement:
    at_end: bool
    indent: int | None          # None for a blank line or a split at EOF
    pre_blank: int
    pre_indent: int | None
    post_blank: int
    post_indent: int | None


def line_indent(record: bytes) -> int | None:
    """Indent width of a line, or None if the line is blank.

    Tabs advance to the next multiple of 8 columns; any other whitespace
    counts one column.  Width is capped so pathological lines stay cheap.
    """
    width = 0
    for byte in record:
        if byte == 0x20:
            width += 1
        elif byte == 0x09:
            width += _TAB_WIDTH - width % _TAB_WIDTH
        elif byte in (0x0A, 0x0D, 0x0C, 0x0B):
            continue
        else:
            return min(width, _MAX_INDENT)
        if width > _MAX_INDENT:
            return _MAX_INDENT
    return None


def measure_split(seq: InternedSequence, split: int) -> SplitMeasurement:
    """Measure the split lying between lines split-1 and split."""
    return _measure_splits(seq, split, split)[0]


def _measure_splits(seq: InternedSequence, lo: int, hi: int) -> list[SplitMeasurement]:
    """Measure the splits lo..hi (inclusive, at most len(seq)) in one pass.

    The blank lines above the range and below it are walked once; the
    blank count and indent above each split are carried forward from the
    split before it, and those below it backward from the split after it.
    """
    raw = seq.raw
    n = len(raw)
    indents = [line_indent(raw[i]) for i in range(lo, min(hi + 1, n))]

    post_blank, post_indent = _blank_run(raw, range(hi + 1, n))
    posts = []
    for s in range(hi, lo - 1, -1):
        posts.append((post_blank, post_indent))
        # the lines below split s - 1 start at line s; none lie below
        # split n - 1, as none lie below split n
        if s < n:
            if indents[s - lo] is None:
                post_blank += 1
            else:
                post_blank, post_indent = 0, indents[s - lo]
    posts.reverse()

    pre_blank, pre_indent = _blank_run(raw, range(lo - 1, -1, -1))
    out = []
    for s, (post_blank, post_indent) in zip(range(lo, hi + 1), posts):
        indent = indents[s - lo] if s < n else None
        out.append(SplitMeasurement(s >= n, indent, pre_blank, pre_indent, post_blank, post_indent))
        if indent is None:
            pre_blank += 1
        else:
            pre_blank, pre_indent = 0, indent
    return out


def _blank_run(raw: list[bytes], lines: range) -> tuple[int, int | None]:
    """Count of blank lines that ``lines`` opens with, and the indent of the
    line after them (None when ``lines`` runs out first)."""
    blank = 0
    for i in lines:
        indent = line_indent(raw[i])
        if indent is not None:
            return blank, indent
        blank += 1
    return blank, None


def split_penalty(m: SplitMeasurement) -> int:
    """Penalty of one split; lower is better."""
    w = DEFAULT_WEIGHTS
    if m.at_end:
        indent = None
        total_blank = m.pre_blank
        post_blank = 0
    elif m.indent is None:
        indent = m.post_indent
        total_blank = m.pre_blank + m.post_blank + 1
        post_blank = m.post_blank + 1
    else:
        indent = m.indent
        total_blank = m.pre_blank
        post_blank = 0

    penalty = 0
    if m.pre_indent is None and m.pre_blank == 0:
        penalty += w.start_of_file
    if m.at_end:
        penalty += w.end_of_file
    penalty += w.total_blanks * total_blank
    penalty += w.post_blank * post_blank

    any_blanks = total_blank != 0
    if indent is None or m.pre_indent is None:
        pass
    elif indent > m.pre_indent:
        penalty += w.relative_indent_with_blank if any_blanks else w.relative_indent
    elif indent < m.pre_indent:
        if m.post_indent is not None and m.post_indent > indent:
            penalty += w.relative_outdent_with_blank if any_blanks else w.relative_outdent
        else:
            penalty += w.relative_dedent_with_blank if any_blanks else w.relative_dedent
    return penalty


def split_indent(m: SplitMeasurement) -> int:
    """Effective indent entering the 60-bias comparison; undefined counts zero."""
    if m.at_end:
        return 0
    indent = m.indent if m.indent is not None else m.post_indent
    return indent if indent is not None else 0


def _groups(flags: list[bool]) -> list[tuple[int, int]]:
    """Half-open (start, end) of each maximal run of True, in order."""
    n = len(flags)
    # the padding ends every search inside the list: a False at n stops a
    # run at the end, a True at n + 1 ends the search for the next run
    padded = flags + [False, True]
    runs = []
    start = padded.index(True)
    while start < n:
        end = padded.index(False, start)
        runs.append((start, end))
        start = padded.index(True, end)
    return runs


def slidable_range(flags: list[bool], seq: InternedSequence, group: tuple[int, int]) -> tuple[int, int]:
    """Shift range (min_shift, max_shift) over which the group slides freely.

    Every shift in the range flags the same multiset of line contents; sliding
    stops where the border line differs or another group would be absorbed.
    """
    start, end = group
    tokens = seq.tokens
    min_shift = 0
    while (
        start + min_shift > 0
        and not flags[start + min_shift - 1]
        and tokens[start + min_shift - 1] == tokens[end + min_shift - 1]
    ):
        min_shift -= 1
    max_shift = 0
    while (
        end + max_shift < len(tokens)
        and not flags[end + max_shift]
        and tokens[end + max_shift] == tokens[start + max_shift]
    ):
        max_shift += 1
    # keep at least one unflagged line between groups so a slide never fuses
    # two groups into one
    while min_shift < 0 and start + min_shift > 0 and flags[start + min_shift - 1]:
        min_shift += 1
    while max_shift > 0 and end + max_shift < len(tokens) and flags[end + max_shift]:
        max_shift -= 1
    return min_shift, max_shift


def _split_scores(seq: InternedSequence, lo: int, hi: int) -> list[tuple[int, int]]:
    """(split_penalty, split_indent) of each split lo..hi."""
    return [(split_penalty(m), split_indent(m)) for m in _measure_splits(seq, lo, hi)]


def slide_group(flags: list[bool], seq: InternedSequence, group: tuple[int, int]) -> tuple[int, int]:
    """Move one group to its best position; returns the new (start, end).

    The chosen shift minimises penalty(top split) + penalty(bottom split),
    with the indent bias added to the side whose two splits have the
    greater summed effective indent.  Ties go to the lowest shift.
    """
    start, end = group
    lo, hi = slidable_range(flags, seq, group)
    if lo == hi == 0:
        return group

    size = end - start
    if size <= hi - lo:
        # the top and bottom split ranges overlap: score their union once
        tops = _split_scores(seq, start + lo, end + hi)
        bottoms = tops[size:]
    else:
        tops = _split_scores(seq, start + lo, start + hi)
        bottoms = _split_scores(seq, end + lo, end + hi)
    best_shift = lo  # the loop compares shift lo with itself, which changes nothing
    best_penalty = tops[0][0] + bottoms[0][0]
    best_indent = tops[0][1] + bottoms[0][1]
    for shift, (top_penalty, top_indent), (bottom_penalty, bottom_indent) in zip(range(lo, hi + 1), tops, bottoms):
        penalty = top_penalty + bottom_penalty
        indent = top_indent + bottom_indent
        a_score, b_score = penalty, best_penalty
        if indent > best_indent:
            a_score += DEFAULT_WEIGHTS.total_indent_bias
        elif best_indent > indent:
            b_score += DEFAULT_WEIGHTS.total_indent_bias
        if a_score < b_score:
            best_shift, best_penalty, best_indent = shift, penalty, indent

    if best_shift:
        flags[start:end] = [False] * size
        flags[start + best_shift:end + best_shift] = [True] * size
    return start + best_shift, end + best_shift


def slide_changed_lines(flags: ChangedLines, old: InternedSequence, new: InternedSequence) -> ChangedLines:
    """Apply the indent heuristic to every group in both files."""
    of = list(flags.old_flags)
    nf = list(flags.new_flags)
    for group in _groups(of):
        slide_group(of, old, group)
    for group in _groups(nf):
        slide_group(nf, new, group)
    return ChangedLines(of, nf)
