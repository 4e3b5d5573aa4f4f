"""Output checks written against the formats, not against the engine.

``apply_unified`` rebuilds the new file from the old bytes and a unified
diff, taking added lines from the patch text itself (the engine's own
``apply_script`` copies them from the new file, so it cannot catch a wrong
hunk body).  ``resolve_conflicts`` reads merge output in any of the three
marker styles and keeps one side of every conflict.
"""

from __future__ import annotations

import re

_HUNK = re.compile(rb"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@\n$")
_NO_NEWLINE = b"\\ No newline at end of file\n"


class CheckFailed(Exception):
    pass


def split_keep(data: bytes) -> list[bytes]:
    """Lines split on LF only, terminators kept."""
    parts = data.split(b"\n")
    lines = [p + b"\n" for p in parts[:-1]]
    if parts[-1]:
        lines.append(parts[-1])
    return lines


def _strip_newline(lines: list[bytes]) -> None:
    if not lines or not lines[-1].endswith(b"\n"):
        raise CheckFailed("no-newline marker without a preceding line")
    lines[-1] = lines[-1][:-1]


def apply_unified(old: bytes, patch: bytes) -> tuple[bytes, int]:
    """Apply ``patch`` (hunks after the ---/+++ header) to ``old``.

    Returns the patched bytes and the number of changed lines (- and +).
    Every context and removed line must match ``old`` exactly, and the hunk
    header counts must match the hunk bodies.
    """
    src = split_keep(old)
    lines = split_keep(patch)
    out: list[bytes] = []
    cursor = 0
    changed = 0
    i = 0
    if lines[:2] and lines[0].startswith(b"--- ") and lines[1].startswith(b"+++ "):
        i = 2
    while i < len(lines):
        m = _HUNK.match(lines[i])
        if not m:
            raise CheckFailed(f"expected hunk header, got {lines[i][:60]!r}")
        old_start, old_count = int(m.group(1)), int(m.group(2) or 1)
        new_count = int(m.group(4) or 1)
        # an empty range names the line before it
        begin = old_start - 1 if old_count else old_start
        if begin < cursor:
            raise CheckFailed("hunks overlap or go backwards")
        out.extend(src[cursor:begin])
        cursor = begin
        old_side: list[bytes] = []
        new_side: list[bytes] = []
        i += 1
        while i < len(lines) and not lines[i].startswith(b"@@"):
            line = lines[i]
            i += 1
            if line == _NO_NEWLINE:
                # applies to the preceding body line; it may sit on both sides
                prev = lines[i - 2][:1]
                if prev in (b" ", b"-"):
                    _strip_newline(old_side)
                if prev in (b" ", b"+"):
                    _strip_newline(new_side)
                continue
            tag, body = line[:1], line[1:]
            if tag == b" ":
                old_side.append(body)
                new_side.append(body)
            elif tag == b"-":
                old_side.append(body)
                changed += 1
            elif tag == b"+":
                new_side.append(body)
                changed += 1
            else:
                raise CheckFailed(f"bad hunk line {line[:60]!r}")
        seen_old, seen_new = len(old_side), len(new_side)
        if (seen_old, seen_new) != (old_count, new_count):
            raise CheckFailed(f"hunk counts {old_count},{new_count} but body has {seen_old},{seen_new}")
        if src[cursor:cursor + seen_old] != old_side:
            raise CheckFailed(f"hunk at old line {old_start} does not match the old file")
        out.extend(new_side)
        cursor += seen_old
    out.extend(src[cursor:])
    return b"".join(out), changed


def resolve_conflicts(merged: bytes, side: str) -> tuple[bytes, int]:
    """Keep ``side`` ("ours" or "theirs") of every conflict block.

    Handles merge, diff3 and zdiff3 markers.  Returns the resolved bytes and
    the number of conflict blocks seen.
    """
    out: list[bytes] = []
    state = None  # None | "ours" | "base" | "theirs"
    blocks = 0
    for line in split_keep(merged):
        if line.startswith(b"<<<<<<<") and state is None:
            state = "ours"
            blocks += 1
        elif line.startswith(b"|||||||") and state == "ours":
            state = "base"
        elif line == b"=======\n" and state in ("ours", "base"):
            state = "theirs"
        elif line.startswith(b">>>>>>>") and state == "theirs":
            state = None
        elif state is None or state == side:
            out.append(line)
    if state is not None:
        raise CheckFailed("unterminated conflict block")
    return b"".join(out), blocks


def to_tokens(*files: list[bytes]) -> list[list[int]]:
    """Intern lines with a table of our own, for the edit-distance oracle."""
    ids: dict[bytes, int] = {}
    return [[ids.setdefault(line, len(ids)) for line in f] for f in files]
