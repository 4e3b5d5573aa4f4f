#!/usr/bin/env python3
"""The exponential recursive-merge family.

Each block adds six commits to the history but doubles the number of
recursive merge calls git's ort makes to build the virtual merge base:
merging the two heads of the n-block family takes 2**n + 1 calls.
diffmerge folds each distinct list of merge bases once per merge, so it
performs only 2n + 1 of those merges (2 at n = 0) and counts the rest as
calls, with the same trees.
"""

import time

from diffmerge import build_exponential_graph, merge_commits

print(f"{'n':>3} {'commits':>8} {'merge calls':>12} {'merges performed':>17} {'seconds':>10}")
for n in range(0, 17):
    graph, a, b = build_exponential_graph(n)
    commits = len(graph)
    start = time.perf_counter()
    result = merge_commits(graph, a, b)
    elapsed = time.perf_counter() - start
    stats = result.stats
    print(f"{n:>3} {commits:>8} {stats.merge_calls:>12} {stats.merges_performed:>17} {elapsed:>10.4f}")

print()
print("Commit count grows linearly (6n + 4) while git's ort makes 2**n + 1")
print("merge calls: every pair of merge bases is itself merged over its own")
print("(possibly multiple) bases, and the family meets each list of bases")
print("again and again. Real repositories hit the same wall when criss-cross")
print("merges stack up. Within one merge diffmerge folds each distinct base")
print("list once and reuses its tree, so it performs 2n + 1 merges and its")
print("time grows linearly; merge calls still counts git's 2**n + 1.")
