"""Machine-speed reference for a noisy host.

On a shared machine the speed of pure-Python code drifts by tens of percent
over seconds and minutes, far more than the changes the benchmark should
detect: the machine switches between a fast and a slow state every few
seconds.  The reference task is ``difflib.SequenceMatcher`` from the
standard library on a fixed pair of 400 source-shaped lines: it shares no
code with diffmerge and its input never changes, so only the machine moves
its time.  It runs between operations, once every ``interval`` seconds or
so, all through a run, so its samples see the same mix of fast and slow
stretches as the operations.  The run's times are multiplied by
``REFERENCE_S / median sample``: they read as the times on a machine where
the task takes REFERENCE_S seconds.
"""

from __future__ import annotations

import difflib
import random
import statistics
from time import perf_counter

import gen

# median time of the task on the machine the baseline was taken on (2 vCPUs)
REFERENCE_S = 0.003


class Calibrator:
    def __init__(self, interval: float):
        src = gen.SourceText(random.Random(0))
        self.a = src.lines(400)
        self.b = gen.edit_pair(src, self.a, 0.02)
        self.interval = interval
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        difflib.SequenceMatcher(None, self.a, self.b, autojunk=False).get_opcodes()
        self.last = perf_counter()
        self.samples.append(self.last - t0)

    def between(self) -> None:
        if perf_counter() - self.last >= self.interval:
            self.sample()

    def scale(self) -> float:
        """Factor that turns wall times of this run into reference times."""
        return REFERENCE_S / statistics.median(self.samples)
