"""Algorithm dispatch shared by the merge machinery and the CLI."""

from __future__ import annotations

from .core import ChangedLines, InternedSequence
from .histogram import diff_histogram
from .myers import diff_myers
from .patience import diff_patience

ALGORITHMS = ("myers", "minimal", "patience", "histogram")


def diff_lines(old: InternedSequence, new: InternedSequence, algorithm: str = "myers") -> ChangedLines:
    if algorithm == "myers":
        return diff_myers(old, new)
    if algorithm == "minimal":
        return diff_myers(old, new, minimal=True)
    if algorithm == "patience":
        return diff_patience(old, new)
    if algorithm == "histogram":
        return diff_histogram(old, new)
    raise ValueError(f"unknown diff algorithm {algorithm!r}; expected one of {ALGORITHMS}")

