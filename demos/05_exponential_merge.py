#!/usr/bin/env python3
"""The exponential recursive-merge family.

Each block adds six commits to the history but doubles the number of
recursive merge calls needed to build the virtual merge base: merging the
two heads of the n-block family takes 2**n + 1 calls.
"""

import time

from diffmerge import build_exponential_graph, merge_commits

print(f"{'n':>3} {'commits':>8} {'merge calls':>12} {'seconds':>10}")
for n in range(0, 13):
    graph, a, b = build_exponential_graph(n)
    commits = len(graph)
    start = time.perf_counter()
    result = merge_commits(graph, a, b)
    elapsed = time.perf_counter() - start
    print(f"{n:>3} {commits:>8} {result.stats.merge_calls:>12} {elapsed:>10.4f}")

print()
print("Commit count grows linearly (6n + 4) while merge calls double per")
print("block; real repositories hit the same wall when criss-cross merges")
print("stack up, because every pair of merge bases is itself merged over")
print("its own (possibly multiple) bases. Within one merge those bases are")
print("looked up once per distinct query, 2n + 1 walks, but the merges of")
print("the virtual bases still double.")
