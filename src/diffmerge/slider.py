"""Group sliding with the indent heuristic.

A group of consecutive flagged lines can often be slid up or down without
changing what the diff says; this module picks the shift whose two splits
(boundaries) carry the lowest summed penalty under the published weights.
"""

from __future__ import annotations

from .core import ChangedLines, InternedSequence

_TAB_WIDTH = 8
_MAX_INDENT = 200

# git's indent-heuristic weights (``xdiff/xdiffi.c``)
START_OF_FILE_PENALTY = 1
END_OF_FILE_PENALTY = 21
TOTAL_BLANK_WEIGHT = -30
POST_BLANK_WEIGHT = 6
RELATIVE_INDENT_PENALTY = -4
RELATIVE_INDENT_WITH_BLANK_PENALTY = 10
RELATIVE_OUTDENT_PENALTY = 24
RELATIVE_OUTDENT_WITH_BLANK_PENALTY = 17
RELATIVE_DEDENT_PENALTY = 23
RELATIVE_DEDENT_WITH_BLANK_PENALTY = 17
INDENT_WEIGHT = 60


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


def split_scores(seq: InternedSequence, lo: int, hi: int) -> list[tuple[int, int]]:
    """(penalty, effective indent) of each split lo..hi (inclusive, at most
    len(seq)); split s lies between lines s - 1 and s, and a lower penalty is
    better.

    The blank lines above the range and below it are walked once; the blank
    count and indent above each split are carried forward from the split
    before it, and those below it backward from the split after it.  A split
    at a blank line takes the indent of the first line below its blank run,
    and a split at the end of the file or above only blank lines indent 0.
    """
    text = seq.lines
    n = len(seq)
    stop = min(hi + 1, n)  # splits lo..stop - 1 lie at a line; split n is at the end
    indents = [line_indent(text[t]) for t in seq.tokens[lo:stop]]

    # the lines below split s start at line s + 1
    post_blank, post_indent = _blank_run(seq, range(stop, n))
    posts = []
    for indent in reversed(indents):
        posts.append((post_blank, post_indent))
        if indent is None:
            post_blank += 1
        else:
            post_blank, post_indent = 0, indent
    posts.reverse()

    pre_blank, pre_indent = _blank_run(seq, range(lo - 1, -1, -1))
    scores = []
    for indent, (post_blank, post_indent) in zip(indents, posts):
        if indent is None:
            # inside a blank run, which is at least this line long
            penalty = TOTAL_BLANK_WEIGHT * (pre_blank + post_blank + 1) + POST_BLANK_WEIGHT * (post_blank + 1)
            if post_indent is not None and pre_indent is not None:
                if post_indent > pre_indent:
                    penalty += RELATIVE_INDENT_WITH_BLANK_PENALTY
                elif post_indent < pre_indent:
                    penalty += RELATIVE_DEDENT_WITH_BLANK_PENALTY
            scores.append((penalty, post_indent or 0))
            pre_blank += 1
            continue
        penalty = TOTAL_BLANK_WEIGHT * pre_blank
        if pre_indent is None:
            pass
        elif indent > pre_indent:
            penalty += RELATIVE_INDENT_WITH_BLANK_PENALTY if pre_blank else RELATIVE_INDENT_PENALTY
        elif indent < pre_indent:
            if post_indent is not None and post_indent > indent:
                penalty += RELATIVE_OUTDENT_WITH_BLANK_PENALTY if pre_blank else RELATIVE_OUTDENT_PENALTY
            else:
                penalty += RELATIVE_DEDENT_WITH_BLANK_PENALTY if pre_blank else RELATIVE_DEDENT_PENALTY
        scores.append((penalty, indent))
        pre_blank, pre_indent = 0, indent
    if hi == n:
        scores.append((END_OF_FILE_PENALTY + TOTAL_BLANK_WEIGHT * pre_blank, 0))
    if lo == 0:
        # only split 0 has no line above it
        penalty, indent = scores[0]
        scores[0] = penalty + START_OF_FILE_PENALTY, indent
    return scores


def _blank_run(seq: InternedSequence, lines: range) -> tuple[int, int | None]:
    """Count of blank lines that ``lines`` opens with, and the indent of the
    line after them (None when ``lines`` runs out first)."""
    blank = 0
    for i in lines:
        indent = line_indent(seq.lines[seq.tokens[i]])
        if indent is not None:
            return blank, indent
        blank += 1
    return blank, None


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
    # two groups into one; one step back is enough, since the line it steps
    # back onto passed the unflagged test of the scan above
    if min_shift < 0 and start + min_shift > 0 and flags[start + min_shift - 1]:
        min_shift += 1
    if max_shift > 0 and end + max_shift < len(tokens) and flags[end + max_shift]:
        max_shift -= 1
    return min_shift, max_shift


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
        tops = split_scores(seq, start + lo, end + hi)
        bottoms = tops[size:]
    else:
        tops = split_scores(seq, start + lo, start + hi)
        bottoms = split_scores(seq, end + lo, end + hi)
    best_shift = lo  # the loop compares shift lo with itself, which changes nothing
    best_penalty = tops[0][0] + bottoms[0][0]
    best_indent = tops[0][1] + bottoms[0][1]
    for shift, (top_penalty, top_indent), (bottom_penalty, bottom_indent) in zip(range(lo, hi + 1), tops, bottoms):
        penalty = top_penalty + bottom_penalty
        indent = top_indent + bottom_indent
        a_score, b_score = penalty, best_penalty
        if indent > best_indent:
            a_score += INDENT_WEIGHT
        elif best_indent > indent:
            b_score += INDENT_WEIGHT
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
