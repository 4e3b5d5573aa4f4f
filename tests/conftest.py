import random
import sys

import pytest

from diffmerge.core import InternTable


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
