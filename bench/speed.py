"""The machine's speed, sampled during a run with a fixed reference task.

Other tenants of the host slow this kind of VM's processors by up to 2x
for minutes at a time, and CPU time slows with wall time, so two runs of
the same code minutes apart can differ by 20% or more.  ``SpeedProbe``
runs a fixed pure-Python task from a SIGALRM handler a few times a second,
between the bytecodes of whatever the benchmark is running, and records
how long it took.  The runner scales the times of each round by
``REFERENCE_S`` over the median of the samples taken during the round: it
reports the seconds the round would have taken on a machine that runs
the task in ``REFERENCE_S``.  The task's own time is subtracted from every
timed interval it falls in.

The task uses ints, a list and a dict built once, so it allocates nothing
the garbage collector tracks and nothing the library under test can change.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.25  # between samples
REFERENCE_S = 0.0035  # about the task's median time on the machine the README describes
_ITERATIONS = 15000
# small enough to stay in the processor's caches, so that the library's own
# memory traffic between samples barely changes the task's time
_TABLE = list(range(1 << 10))
_INDEX = {k: k ^ 0x5A for k in range(1 << 8)}


def reference_task() -> int:
    acc = 0
    for i in range(_ITERATIONS):
        j = (i * 40503) & 0x3FF
        acc = (acc + (_TABLE[j] ^ _INDEX.get(j & 0x1FF, i))) & 0xFFFFFFF
    return acc


class SpeedProbe:
    """Samples ``reference_task`` every ``INTERVAL_S`` while entered."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total = 0.0  # seconds spent in the task, to subtract from timings
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        reference_task()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self.total += seconds

    def __enter__(self) -> "SpeedProbe":
        self._sample(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """Factor to seconds at the reference speed, from the samples since
        index ``first``, or from the latest one if none was taken since."""
        return REFERENCE_S / statistics.median(self.samples[first:] or self.samples[-1:])
