#!/usr/bin/env python3
"""How the indent heuristic places an ambiguous insertion.

Inserting a function between two others can be expressed by several equally
short diffs that differ only in where the added block starts.  The slider
scores each candidate boundary with the published penalty weights and picks
the one that reads best.
"""

from diffmerge import InternTable, diff_lines, flags_to_script, render_unified, slide_changed_lines
from diffmerge.slider import slidable_range, split_scores

OLD = b"""\
def alpha():
    return 1


def omega():
    return 9
"""

NEW = b"""\
def alpha():
    return 1


def middle():
    return 5


def omega():
    return 9
"""

table = InternTable()
old, new = table.intern(OLD), table.intern(NEW)
flags = diff_lines(old, new, "minimal")

group_start = min(i for i, f in enumerate(flags.new_flags) if f)
group = (group_start, group_start + 4)
lo, hi = slidable_range(flags.new_flags, new, group)
print(f"the 4-line insertion can sit at shifts {lo}..{hi} relative to line {group_start}")

print("\npenalties per candidate position (top split + bottom split):")
tops = split_scores(new, group[0] + lo, group[0] + hi)
bottoms = split_scores(new, group[1] + lo, group[1] + hi)
for shift, (top, _), (bottom, _) in zip(range(lo, hi + 1), tops, bottoms):
    total = top + bottom
    first_line = new.lines[new.tokens[group[0] + shift]].decode().rstrip() or "(blank)"
    print(f"  shift {shift:+d}: penalty {total:>4}  group starts at {first_line!r}")

slid = slide_changed_lines(flags, old, new)
script = flags_to_script(slid, old, new)
print("\nchosen rendering:")
print(render_unified(old, new, script, 0).decode())
