#!/usr/bin/env python3
"""Unintuitive merge behaviours, reproduced on tiny inputs.

Four effects, each driven by the diffs rather than the merge loop itself:
distant changes that still conflict, the same change applied twice without a
conflict, a merge whose non-conflicting text depends on the argument order,
and a clean merge whose bytes depend on the diff algorithm.
"""

from diffmerge import MergeOptions, merge3

print("=== locality failure: edits half a file apart still conflict ===")
k = 10
base = b"a\nb\n" * k
left = b"a\nb\n" + base            # two lines prepended
right = b"a\nb\n" * (k - 1) + b"c\n"  # trailing pair replaced
out = merge3(base, left, right)
print(f"base has {2 * k} lines; the edits touch opposite ends; "
      f"conflicts: {out.conflict_count}")
print("The ab-prepend is diffed as an ab-APPEND, landing on top of the "
      "right side's trailing change.\n")

print("=== duplicated change: both sides added 'A B', the merge keeps both ===")
base = b"X\nA\nY\n"
left = b"j\nX\nA\nB\nA\nY\n"
right = b"X\nA\nB\nA\nY\nj\n"
out = merge3(base, left, right, MergeOptions(algorithm="minimal"))
print(out.rendered.decode(), end="")
print("clean merge:", out.clean)
print("One diff chose +A+B before the old A, the other +B+A after it; the "
      "old A separates the two hunks, so nothing conflicts.\n")

print("=== non-commutative merge: swapping the sides changes the result ===")
base = b"X\n"
left = b"A\na\nb\nc\nB\na\nb\nc\n"
right = b"B\na\nb\nc\nA\na\nb\nc\n"
one = merge3(base, left, right)
two = merge3(base, right, left)


def between(rendered):
    return rendered.split(b">>>>>>> theirs\n")[1].split(b"<<<<<<< ours\n")[0]


print("merge(L, O, R) keeps", between(one.rendered).splitlines()[0].decode(),
      "between the conflicts")
print("merge(R, O, L) keeps", between(two.rendered).splitlines()[0].decode(),
      "between the conflicts")
print("The zealous refinement diffs the two sides with the histogram "
      "algorithm, which is itself asymmetric.")

print("\n=== the diff algorithm decides a clean merge's bytes ===")
base = b"c\nc\na\na\na\n"
left = b"c\nc\na\na\n"                # one a deleted
right = b"c\n\na\n\nc\na\na\n"         # blank, a, blank put in after the first c; one a deleted
for algorithm in ("myers", "minimal", "patience", "histogram"):
    out = merge3(base, left, right, MergeOptions(algorithm=algorithm))
    print(f"{algorithm:9} clean: {out.clean}  lines: {out.rendered.decode().splitlines()}")
print("git merge -s recursive -Xdiff-algorithm=<alg> gives these same bytes; a plain")
print("git merge (the ort strategy) ignores -Xdiff-algorithm and always gives histogram's.")
