#!/usr/bin/env python3
"""Tour of the four diff algorithms and where their outputs diverge.

All four engines produce *correct* diffs (applying the diff reproduces the
new file), but they pick different common lines.  minimal always returns the
shortest possible diff; myers adds two cutoff heuristics on large inputs and
git's discard of frequent lines among unmatched ones; patience anchors on
lines that are unique in both files; histogram greedily pivots on
low-frequency regions.
"""

from diffmerge import InternTable, diff_lines, flags_to_script, render_unified

SEPARATOR = "-" * 60


def show(title, old_bytes, new_bytes):
    print(SEPARATOR)
    print(title)
    print(SEPARATOR)
    for algo in ("myers", "minimal", "patience", "histogram"):
        table = InternTable()
        old, new = table.intern(old_bytes), table.intern(new_bytes)
        flags = diff_lines(old, new, algo)
        script = flags_to_script(flags, old, new)
        print(f"\n--- {algo}: {flags.flag_count()} changed lines")
        print(render_unified(old, new, script, 1).decode(), end="")


# 1. On most inputs everyone agrees.
show(
    "A plain edit: all four algorithms give the same answer",
    b"def f():\n    return 1\n\n\ndef g():\n    return 2\n",
    b"def f():\n    return 10\n\n\ndef g():\n    return 2\n",
)

# 2. A unique line moved across repeated content: histogram pivots on the
#    moved line and flags the entire rest of the file, in both directions,
#    as git's histogram does.
before = b"A\n" + b"b\nc\n" * 3
after = b"b\nc\n" * 3 + b"A\n"
show("Moved line, forward direction (histogram flags everything)", before, after)
show("Moved line, reverse direction (histogram flags everything again)", after, before)

# 3. Histogram is not symmetric: swapping the files changes how many lines
#    it flags (2 one way, 4 the other, as in git).
show("b c d b -> c b: histogram flags 2 lines", b"b\nc\nd\nb\n", b"c\nb\n")
show("c b -> b c d b: histogram flags 4 lines", b"c\nb\n", b"b\nc\nd\nb\n")

# 4. A reordering where patience finds a strictly shorter diff than histogram.
show(
    "Reordering with per-file noise: patience < histogram",
    b"u1\nf\nu2\ng\nu3\n",
    b"u3\nh\nu1\nk\nu2\n",
)

# 5. git's myers discards a line that the other file holds often when it sits
#    among unmatched lines (xdl_cleanup_records), and so does git's --minimal:
#    `git diff --no-index --numstat --minimal` changes 4 + 8 lines here, where
#    keeping one F needs only 10.  diffmerge's myers follows git; its minimal
#    skips the discard and stays minimal.
show("A frequent line among unmatched ones: myers 12, minimal 10", b"a\nb\nc\nd\nF\ne\nf\ng\n", b"F\nF\nF\nF\n")
