#!/usr/bin/env python3
"""Three-way merging: clean merges, conflicts, and the three output styles."""

from diffmerge import MergeOptions, merge3

BASE = b"""\
def greet(name):
    return "hello " + name

def total(xs):
    return sum(xs)
"""

LEFT = b"""\
def greet(name):
    return "hello, " + name.title()

def total(xs):
    return sum(xs)
"""

RIGHT = b"""\
def greet(name):
    return "hello " + name

def total(xs):
    return sum(xs) or 0
"""

print("=== changes in different regions merge cleanly ===")
out = merge3(BASE, LEFT, RIGHT)
print(out.rendered.decode())
assert out.clean

print("=== both sides touch the same line: a conflict ===")
LEFT2 = BASE.replace(b'"hello "', b'"hi "')
RIGHT2 = BASE.replace(b'"hello "', b'"hey "')
out = merge3(BASE, LEFT2, RIGHT2)
print(out.rendered.decode())
print(f"{out.conflict_count} conflict(s), {out.conflict_line_count} conflicting lines\n")

print("=== diff3 style shows the ancestor text ===")
out = merge3(BASE, LEFT2, RIGHT2, MergeOptions(style="diff3"))
print(out.rendered.decode())

print("=== zdiff3 trims line runs shared by all three versions ===")
base = b"keep\nshared\nmid\nkeep2\n"
left = b"keep\nshared\nLEFT\nkeep2\n"
right = b"keep\nshared\nRIGHT\nkeep2\n"
out = merge3(base, left, right, MergeOptions(style="zdiff3"))
print(out.rendered.decode())

print("=== zealous refinement eliminates equal-sided conflicts ===")
# both sides inserted the same line, but the two diffs picked different spots
o = b"X\na\nY\n"
l = b"X\na\na\nY\n"
r = b"X\na\na\nY\n"
out = merge3(o, l, r)
print(out.rendered.decode(), end="")
print("clean:", out.clean)
