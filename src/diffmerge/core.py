"""Line interning, common runs, diff representations (change flags are one
byte a line, as git's ``rchg``), patch application and unified rendering.

A diff problem (two or three files) shares one :class:`InternTable` so that
equal line content gets equal integer tokens across all files involved; the
table keeps each distinct line's text once, and a file reads it by token.
Interning streams a file's records, so a repeated line is freed once read; a
table's later files, whose lines it mostly holds, take each token by one lookup.
Lines are byte strings split on LF only; CR and the other line breaks of
``bytes.splitlines`` are ordinary content.  A final line without a trailing
newline is still one line, and its token differs from the same content with
a newline (as unified diff's ``\\ No newline at end of file`` marks).

How many lines match from a point on, or back from it, is measured one way:
Myers' end trims and snakes, histogram's region extension and the zdiff3 trim
all call :func:`common_prefix` or :func:`common_suffix`, which compare a few
lines one by one and then gallop by list-slice compares.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple


class DiffError(Exception):
    pass


class InvalidFlags(DiffError):
    """Unflagged lines of old and new do not form the same token sequence."""


class RangeError(DiffError):
    """An edit script references lines outside the file it is applied to."""


@dataclass
class InternedSequence:
    """A file as interned line tokens; ``lines[t]`` is the text of token t.

    ``lines`` is its table's list, shared by the table's files and only appended to."""

    tokens: list[int]
    lines: list[bytes]
    # histogram's index (token -> position, or positions if repeated), built by the first diff from this file
    occurrence_index: dict[int, int | list[int]] | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tokens)


class _Ids(dict):
    """Line -> token; looking up a new line adds it with the next token."""

    def __missing__(self, rec: bytes) -> int:
        self[rec] = token = len(self)
        return token


class InternTable:
    """Token assignment shared by the files of one diff or merge problem, which
    keeps each distinct line once: as a key of its dict and as ``lines[token]``."""

    def __init__(self) -> None:
        self._ids = _Ids()
        self.lines: list[bytes] = []

    def intern(self, data: bytes) -> InternedSequence:
        ids = self._ids
        lines = self.lines
        if ids:  # a later file: the table holds almost all its lines
            tokens = list(map(ids.__getitem__, io.BytesIO(data)))
        else:
            # mostly new lines, which setdefault adds faster than __missing__;
            # len(ids) is read before rec is added, so tokens count first occurrences
            add = ids.setdefault
            tokens = [add(rec, len(ids)) for rec in io.BytesIO(data)]
        if len(ids) > len(lines):
            # the dict keeps insertion order: its new keys are the new lines, in token order
            lines += islice(ids, len(lines), None)
        return InternedSequence(tokens, lines)


@dataclass
class ChangedLines:
    """A diff's change flags as git's ``xdfile_t.rchg`` holds them: a bytearray per file, one byte a line, 1 if
    changed, so ``bytearray.index`` finds the next changed or unchanged line by memchr.  Bools convert once."""

    old_flags: bytearray
    new_flags: bytearray

    def __post_init__(self) -> None:
        if self.old_flags.__class__ is not bytearray or self.new_flags.__class__ is not bytearray:
            self.old_flags, self.new_flags = bytearray(map(bool, self.old_flags)), bytearray(map(bool, self.new_flags))

    def flag_count(self) -> int:
        return self.old_flags.count(1) + self.new_flags.count(1)


class _ChangeFields(NamedTuple):
    start_old: int
    end_old: int
    start_new: int
    end_new: int


class Change(_ChangeFields):
    """One hunk: old[start_old:end_old] was replaced by new[start_new:end_new].

    Ranges are half-open and 0-based; an empty old range is a pure insertion,
    an empty new range a pure deletion.  A tuple record: ``_make`` and
    ``_replace`` build through ``__new__``, so every hunk's ranges are checked.
    """

    __slots__ = ()

    def __new__(cls, start_old: int, end_old: int, start_new: int, end_new: int) -> Change:
        change = tuple.__new__(cls, (start_old, end_old, start_new, end_new))
        if not (0 <= start_old <= end_old and 0 <= start_new <= end_new):
            raise RangeError(f"malformed change {change}")
        return change

    @classmethod
    def _make(cls, iterable) -> Change:
        return cls(*iterable)


def flags_to_script(flags: ChangedLines, old: InternedSequence, new: InternedSequence) -> tuple[Change, ...]:
    """Convert changed-line flags into hunks.

    Maximal runs of flagged lines at one alignment point become one Change.
    Raises InvalidFlags if the unflagged lines of both files are not the
    same token sequence.
    """
    of, nf = flags.old_flags, flags.new_flags
    n, m = len(old), len(new)
    if len(of) != n or len(nf) != m:
        raise InvalidFlags("flag arrays do not match file lengths")
    a, b = old.tokens, new.tokens
    # padded so that every search ends inside the array: a 1 after the last
    # line ends a search for the next flagged line, a 0 one for a run's end
    po, pn = of + b"\1", nf + b"\1"
    ro, rn = of + b"\0", nf + b"\0"
    changes = []
    i = j = 0
    while True:
        # unflagged lines pair up until either file reaches a flagged line or its end
        k = po.index(1, i) - i
        k_new = pn.index(1, j) - j
        if k_new < k:
            k = k_new
        if a[i:i + k] != b[j:j + k]:
            d = next(d for d in range(k) if a[i + d] != b[j + d])
            raise InvalidFlags(f"unflagged lines differ at old[{i + d}] vs new[{j + d}]")
        i += k
        j += k
        at_old = i < n and of[i]
        at_new = j < m and nf[j]
        if at_old or at_new:
            start_old, start_new = i, j
            if at_old:
                i = ro.index(0, i)
            if at_new:
                j = rn.index(0, j)
            changes.append(Change(start_old, i, start_new, j))
        elif i == n and j == m:
            return tuple(changes)
        else:
            raise InvalidFlags("unflagged tail of one file has no counterpart")


# Lines compared one by one before a run is extended by slice compares.
_GALLOP = 8


def common_prefix(a: list[int], i: int, b: list[int], j: int, limit: int) -> int:
    """The largest k <= limit with a[i:i+k] == b[j:j+k]."""
    k = 0
    while k < limit:
        if a[i + k] != b[j + k]:
            return k
        k += 1
        if k == _GALLOP:
            break
    if k == limit:
        return k
    # the run is at least _GALLOP long: double the step while slices match,
    # then halve it; the rest of the run is always shorter than the step
    step = _GALLOP
    while k + step <= limit and a[i + k:i + k + step] == b[j + k:j + k + step]:
        k += step
        step += step
    while step > 1:
        step >>= 1
        if k + step <= limit and a[i + k:i + k + step] == b[j + k:j + k + step]:
            k += step
    return k


def common_suffix(a: list[int], i: int, b: list[int], j: int, limit: int) -> int:
    """The largest k <= limit with a[i-k:i] == b[j-k:j]."""
    k = 0
    while k < limit:
        if a[i - 1 - k] != b[j - 1 - k]:
            return k
        k += 1
        if k == _GALLOP:
            break
    if k == limit:
        return k
    step = _GALLOP
    while k + step <= limit and a[i - k - step:i - k] == b[j - k - step:j - k]:
        k += step
        step += step
    while step > 1:
        step >>= 1
        if k + step <= limit and a[i - k - step:i - k] == b[j - k - step:j - k]:
            k += step
    return k


def apply_script(old: InternedSequence, script: tuple[Change, ...], new: InternedSequence) -> bytes:
    """Apply a script produced by diffing old against new.

    Replaced regions are taken from ``new``; everything else from ``old``.
    For any script produced by the engines here the result is byte-identical
    to the bytes ``new`` was interned from.
    """
    out = []
    old_line, new_line = old.lines.__getitem__, new.lines.__getitem__
    cursor = 0
    for c in script:
        if c.end_old > len(old) or c.end_new > len(new) or c.start_old < cursor:
            raise RangeError(f"{c} does not fit old file of length {len(old)}")
        out.extend(map(old_line, old.tokens[cursor:c.start_old]))
        out.extend(map(new_line, new.tokens[c.start_new:c.end_new]))
        cursor = c.end_old
    out.extend(map(old_line, old.tokens[cursor:]))
    return b"".join(out)


_NO_NEWLINE = b"\n\\ No newline at end of file\n"


def _emit(out: list[bytes], prefix: bytes, seq: InternedSequence, index: int) -> None:
    rec = seq.lines[seq.tokens[index]]
    if rec.endswith(b"\n"):
        out.append(prefix + rec)
    else:
        # last line of the file without a trailing newline
        out.append(prefix + rec + _NO_NEWLINE)


def render_unified(
    old: InternedSequence,
    new: InternedSequence,
    script: tuple[Change, ...],
    context_lines: int = 3,
) -> bytes:
    """Render hunks in unified-diff format (headers only, no ---/+++ lines).

    Changes whose unchanged gap is at most 2*context_lines are merged into a
    single hunk, mirroring classic unified-diff behaviour.
    """
    changes = list(script)
    if not changes:
        return b""

    groups: list[list[Change]] = [[changes[0]]]
    for c in changes[1:]:
        if c.start_old - groups[-1][-1].end_old <= 2 * context_lines:
            groups[-1].append(c)
        else:
            groups.append([c])

    out: list[bytes] = []
    for group in groups:
        old_lo = max(group[0].start_old - context_lines, 0)
        old_hi = min(group[-1].end_old + context_lines, len(old))
        new_lo = max(group[0].start_new - context_lines, 0)
        new_hi = min(group[-1].end_new + context_lines, len(new))
        out.append(_hunk_header(old_lo, old_hi, new_lo, new_hi))
        i = old_lo
        for c in group:
            for k in range(i, c.start_old):
                _emit(out, b" ", old, k)
            for k in range(c.start_old, c.end_old):
                _emit(out, b"-", old, k)
            for k in range(c.start_new, c.end_new):
                _emit(out, b"+", new, k)
            i = c.end_old
        for k in range(i, old_hi):
            _emit(out, b" ", old, k)
    return b"".join(out)


def _hunk_header(old_lo: int, old_hi: int, new_lo: int, new_hi: int) -> bytes:
    def fmt(lo: int, hi: int) -> bytes:
        count = hi - lo
        # for an empty range the convention is the line number *before* it
        start = lo + 1 if count else lo
        return b"%d" % start if count == 1 else b"%d,%d" % (start, count)

    return b"@@ -" + fmt(old_lo, old_hi) + b" +" + fmt(new_lo, new_hi) + b" @@\n"

