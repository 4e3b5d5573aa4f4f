"""git's change compaction (``xdl_change_compact`` in ``xdiff/xdiffi.c``).

A group of adjacent changed lines can often slide up or down without changing
what the diff says.  Each group slides as far up and then down as the lines
allow, fusing with each group it meets, and is placed where git places it:
level with the last changed group of the other file it can align with, or
else, with the indent heuristic on, at the shift whose two splits (the
boundaries above and below it) score best under git's weights.  Old is
compacted against new, then new against old, on one-byte flags (git's
``rchg``) that ``bytearray.index`` scans.
"""

from __future__ import annotations

from .core import ChangedLines, InternedSequence

_TAB_WIDTH = 8
MAX_INDENT = 200
MAX_BLANKS = 20  # blank lines a split's measurement walks on either side
INDENT_HEURISTIC_MAX_SLIDING = 100

# git's indent-heuristic weights
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


def line_indent(record: bytes) -> int:
    """git's ``get_indent``: the indent width of a line, or -1 if it holds
    only whitespace.

    Tabs advance to the next multiple of 8 columns, and CR and LF count no
    column; git's whitespace holds no other byte, so a form feed or vertical
    tab ends the indent.  The width is capped at MAX_INDENT, which a
    whitespace-only line that reaches it also reads as.
    """
    width = 0
    for byte in record:
        if byte == 0x20:
            width += 1
        elif byte == 0x09:
            width += _TAB_WIDTH - width % _TAB_WIDTH
        elif byte not in (0x0A, 0x0D):
            return width
        if width >= MAX_INDENT:
            return MAX_INDENT
    return -1


class Indents(dict):
    """Token -> line_indent of its line, each measured on first lookup."""

    def __init__(self, lines: list[bytes]):
        super().__init__()
        self.lines = lines

    def __missing__(self, token: int) -> int:
        self[token] = indent = line_indent(self.lines[token])
        return indent


def _blank_run(tokens: list[int], indents: Indents, lines: range) -> tuple[int, int]:
    """Blank lines that ``lines`` opens with, at most MAX_BLANKS, and the
    indent of the line after them: -1 if ``lines`` runs out first, 0 past
    the cap."""
    blank = 0
    for i in lines:
        indent = indents[tokens[i]]
        if indent != -1:
            return blank, indent
        blank += 1
        if blank == MAX_BLANKS:
            return blank, 0
    return blank, -1


def split_score(tokens: list[int], indents: Indents, split: int) -> tuple[int, int]:
    """git's ``measure_split`` then ``score_add_split`` for the split above
    line ``split``: (effective indent, penalty), a lower penalty being
    better.  At the end of the file the split's line counts as blank with
    indent -1."""
    n = len(tokens)
    indent = indents[tokens[split]] if split < n else -1
    pre_blank, pre_indent = _blank_run(tokens, indents, range(split - 1, -1, -1))
    post_blank, post_indent = _blank_run(tokens, indents, range(split + 1, n))

    penalty = START_OF_FILE_PENALTY if pre_indent == -1 and pre_blank == 0 else 0
    if split >= n:
        penalty += END_OF_FILE_PENALTY
    # the blank lines below the split, the one right below it included
    post_blank = post_blank + 1 if indent == -1 else 0
    total_blank = pre_blank + post_blank
    penalty += TOTAL_BLANK_WEIGHT * total_blank + POST_BLANK_WEIGHT * post_blank
    if indent == -1:
        indent = post_indent
    if indent == -1 or pre_indent == -1 or indent == pre_indent:
        pass
    elif indent > pre_indent:
        penalty += RELATIVE_INDENT_WITH_BLANK_PENALTY if total_blank else RELATIVE_INDENT_PENALTY
    elif post_indent != -1 and post_indent > indent:
        # a line indented less than the one above and more than the one below opens a block
        penalty += RELATIVE_OUTDENT_WITH_BLANK_PENALTY if total_blank else RELATIVE_OUTDENT_PENALTY
    else:
        penalty += RELATIVE_DEDENT_WITH_BLANK_PENALTY if total_blank else RELATIVE_DEDENT_PENALTY
    return indent, penalty


def _best_end(tokens: list[int], indents: Indents, earliest_end: int, end: int, size: int) -> int:
    """The end, within git's window above ``end``, of the group position
    whose two splits score best; a tie goes to the later shift, lower in the
    file."""
    best_end = best_indent = best_penalty = -1
    for shift in range(max(earliest_end, end - size - 1, end - INDENT_HEURISTIC_MAX_SLIDING), end + 1):
        bottom_indent, bottom_penalty = split_score(tokens, indents, shift)
        top_indent, top_penalty = split_score(tokens, indents, shift - size)
        indent, penalty = bottom_indent + top_indent, bottom_penalty + top_penalty
        # git's score_cmp(score, best) <= 0
        if best_end == -1 or INDENT_WEIGHT * ((indent > best_indent) - (indent < best_indent)) + penalty - best_penalty <= 0:
            best_end, best_indent, best_penalty = shift, indent, penalty
    return best_end


def _compact(rchg: bytearray, orchg: bytearray, seq: InternedSequence, indent_heuristic: bool) -> None:
    """Compact one file's flags against the other's, in place, as git does;
    both arrays are padded as ``slide_changed_lines`` pads them.

    The k-th unchanged lines of the two files pair up, so the group after k
    unchanged lines of one file faces the other file's group after k of its
    own.  ``paired`` is the position of the other file's unchanged line
    paired with the last one above the group at hand (-1 for none), once it
    is walked over ``lag`` more; it is walked to each group that can move,
    and along with the group as it slides.
    """
    tokens = seq.tokens
    n = len(tokens)
    indents = Indents(seq.lines)
    lag = end = 0
    paired = -1
    while True:
        start = rchg.index(1, end)
        if start >= n:
            return
        lag += start - end
        end = rchg.index(0, start)
        if not (start and tokens[start - 1] == tokens[end - 1] or end < n and tokens[start] == tokens[end]):
            continue
        # walk ``paired`` over the other file's next ``lag`` unchanged lines, a run at a time
        while lag:
            run_start = orchg.index(0, paired + 1)
            run = min(orchg.index(1, run_start) - run_start, lag)
            paired = run_start + run - 1
            lag -= run
        while True:
            size = end - start
            # up as far as the lines allow, fusing with each group met
            while start and tokens[start - 1] == tokens[end - 1]:
                start -= 1
                end -= 1
                rchg[start] = 1
                rchg[end] = 0
                paired -= 1
                while orchg[paired]:
                    paired -= 1
                while rchg[start - 1]:
                    start -= 1
            earliest_end = end
            # the last end at which the other file's group is not empty
            end_matching_other = end if orchg[paired + 1] else -1
            # then down
            while end < n and tokens[start] == tokens[end]:
                rchg[start] = 0
                rchg[end] = 1
                start += 1
                end += 1
                paired = orchg.index(0, paired + 1)
                while rchg[end]:
                    end += 1
                if orchg[paired + 1]:
                    end_matching_other = end
            if end - start == size:
                break
        if end == earliest_end:
            continue
        if end_matching_other != -1:
            best = end_matching_other
        elif indent_heuristic:
            best = _best_end(tokens, indents, earliest_end, end, size)
        else:
            continue
        # back up to the chosen end; every position since earliest_end held the group whole
        rchg[best - size:end] = b"\1" * size + bytes(end - best)
        for _ in range(end - best):
            paired -= 1
            while orchg[paired]:
                paired -= 1
        end = best


def slide_changed_lines(flags: ChangedLines, old: InternedSequence, new: InternedSequence,
                        indent_heuristic: bool = True) -> ChangedLines:
    """git's compaction of a diff: old against new, then new against old."""
    # copied and padded once: bytes n and n + 2 are git's unchanged lines
    # around the file, and the 1 between them ends every search for a group
    old_flags = flags.old_flags + b"\0\1\0"
    new_flags = flags.new_flags + b"\0\1\0"
    _compact(old_flags, new_flags, old, indent_heuristic)
    _compact(new_flags, old_flags, new, indent_heuristic)
    del old_flags[-3:], new_flags[-3:]
    return ChangedLines(old_flags, new_flags)
