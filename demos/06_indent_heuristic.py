#!/usr/bin/env python3
"""How git's compaction places an ambiguous insertion.

Adding a block above one that starts with the same line can be expressed by
two equally short diffs that differ only in where the added lines start.
git's compaction slides every group of added or deleted lines as far down
as it goes.  With the indent heuristic on (git's default), it then scores
each position's two splits with git's weights and keeps the best one; with
``--no-indent-heuristic`` the group stays at the bottom.
"""

from diffmerge import InternTable, diff_lines, flags_to_script, render_unified, slide_changed_lines
from diffmerge.slider import Indents, split_score

OLD = b"""\
if ready:
    start()
"""

NEW = b"""\
if ready:
    prepare()
if ready:
    start()
"""

table = InternTable()
old, new = table.intern(OLD), table.intern(NEW)
flags = diff_lines(old, new, "myers")

print("the 2-line insertion can start at line 0 or line 1 of new; per position,")
print("the summed penalty and effective indent of its two splits (lower is better,")
print("and a lower indent outweighs up to 60 points of penalty):")
indents = Indents(new.lines)
for start in (0, 1):
    (top_indent, top), (bottom_indent, bottom) = (split_score(new.tokens, indents, split) for split in (start, start + 2))
    first_line = new.lines[new.tokens[start]].decode().rstrip()
    print(f"  start {start}: penalty {top + bottom:>3}, indent {top_indent + bottom_indent}; group starts at {first_line!r}")

for heuristic in (True, False):
    slid = slide_changed_lines(flags, old, new, heuristic)
    script = flags_to_script(slid, old, new)
    print(f"\nindent heuristic {'on' if heuristic else 'off'} (git diff -U0 --{'' if heuristic else 'no-'}indent-heuristic):")
    print(render_unified(old, new, script, 0).decode(), end="")
