import random
import sys

import pytest

from diffmerge import graph as graph_mod
from diffmerge.core import InternTable
from diffmerge.merge3 import MergeOptions


@pytest.fixture
def intern_pair():
    def _intern(old: bytes, new: bytes):
        table = InternTable()
        return table.intern(old), table.intern(new)

    return _intern


def random_file(rng: random.Random, max_lines: int, alphabet: int, allow_missing_nl: bool = False) -> bytes:
    lines = rng.randrange(max_lines + 1)
    data = b"".join(bytes([97 + rng.randrange(alphabet)]) + b"\n" for _ in range(lines))
    if allow_missing_nl and data and rng.random() < 0.1:
        data = data[:-1]
    return data


_WORDS = b"buf len idx node next head tail key val ret err mode size state item entry path data pos end".split()


def source_lines(rng, n):
    """C-like functions: nested blocks over a pool of identifiers, with the
    blank lines, closing braces and breaks that make a few lines frequent."""
    idents = [b"%s_%s%d" % (rng.choice(_WORDS), rng.choice(_WORDS), rng.randrange(10)) for _ in range(200)]
    out = []
    while len(out) < n:
        out.append(b"int %s(struct ctx *c)\n{\n" % rng.choice(idents))
        depth = 1
        for _ in range(rng.randrange(4, 30)):
            pad = b"    " * depth
            r = rng.random()
            if r < 0.15 and depth < 4:
                out.append(pad + b"if (%s != %s) {\n" % (rng.choice(idents), rng.choice(idents)))
                depth += 1
            elif r < 0.3 and depth > 1:
                depth -= 1
                out.append(b"    " * depth + b"}\n")
            elif r < 0.4:
                out.append(b"\n")
            elif r < 0.45:
                out.append(pad + b"break;\n")
            else:
                out.append(pad + b"%s = %s + %d;\n" % (rng.choice(idents), rng.choice(idents), rng.randrange(64)))
        out.extend(b"    " * d + b"}\n" for d in range(depth - 1, -1, -1))
        out.append(b"\n")
    return out[:n]


def edited_source(rng, old, edits):
    """A copy of ``old`` with ``edits`` blocks of up to 8 lines deleted,
    inserted or replaced by fresh source lines."""
    new = list(old)
    for _ in range(edits):
        at = rng.randrange(len(new) + 1)
        new[at:at + rng.randrange(9)] = source_lines(rng, rng.randrange(9))
    return new


def lines_executed(fn, *args, **kwargs) -> int:
    """Python source lines executed by one call, counted with sys.settrace;
    a deterministic measure of work that does not depend on the host."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    sys.settrace(lambda frame, event, arg: local)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(None)
    return count


def merge_base_tree(graph, a, b, stats=None, options=None):
    """The engine's merge base tree of a and b: the fold merge_commits makes
    of their ordered merge bases, through graph's _lca and _fold_bases as
    they are at call time."""
    ctx = graph_mod._MergeContext(graph, stats if stats is not None else graph_mod.MergeStats(),
                                  options or MergeOptions())
    return graph_mod._fold_bases(ctx, graph_mod._lca(ctx, frozenset((a,)), b))
