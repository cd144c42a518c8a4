"""The interpreter's speed, measured beside the program, and times rescaled by it.

On a shared VM the CPU speed a process gets drifts by ±20–30% over seconds
to minutes, and CPU time drifts with wall time, so raw times of the same
code differ by more than a regression worth catching.  Each child therefore
times a fixed pure-Python reference task: a block of ``BLOCK`` tasks right
before and right after set-up, and, in untraced calls, one task every
``SAMPLE_EVERY_S`` from an interval timer while the program runs.  A time
``t`` is rescaled to the speed at which one task takes ``NOMINAL_S``:
``t * factor``, where the factor is the mean of ``NOMINAL_S / task time``
over the same stretch.  The samples are evenly spaced in time, so that mean
weights each moment of the call equally.

The reference task is the benchmark's own code and does not change with the
program, and it runs with the garbage collector off, so its time does not
depend on the program's heap: a program that does more or less work still
moves the rescaled time by the full factor.  The tasks' own time is
subtracted from every wall time before rescaling.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

NOMINAL_S = 0.004
BLOCK = 8
SAMPLE_EVERY_S = 0.05


def reference() -> int:
    """Fixed work shaped like the library's: tuples, dict updates, frozensets."""
    table: dict[tuple[int, int], int] = {}
    keys = []
    for i in range(10_000):
        key = (i & 1023, i >> 4)
        table[key] = table.get(key, 0) + 1
        if i & 7 == 0:
            keys.append(frozenset((i, i + 1)))
    return len(table) + len(keys)


class Meter:
    """Reference-task times of one process, in blocks and interval samples."""

    def __init__(self) -> None:
        self.block_times: list[float] = []
        self.sample_times: list[float] = []
        self._busy = False

    def _task(self) -> float:
        # collections would walk the program's heap, whose size is the program's
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        elapsed = perf_counter() - start
        if enabled:
            gc.enable()
        return elapsed

    def block(self) -> None:
        self.block_times += [self._task() for _ in range(BLOCK)]

    def _sample(self, signum: int, frame: object) -> None:
        if not self._busy:
            self._busy = True
            self.sample_times.append(self._task())
            self._busy = False

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self) -> dict[str, float]:
        """``setup_factor``: rescaling factor from the blocks around set-up;
        ``run_factor``: from the interval samples, the set-up blocks counting
        as one more sample; ``ref_total_s``: time spent in reference tasks."""
        setup_factor = factor(self.block_times)
        run = [NOMINAL_S / t for t in self.sample_times] + [setup_factor]
        return {
            "setup_factor": setup_factor,
            "run_factor": sum(run) / len(run),
            "samples": len(self.sample_times),
            "ref_total_s": sum(self.block_times) + sum(self.sample_times),
        }


def factor(task_times: list[float]) -> float:
    return sum(NOMINAL_S / t for t in task_times) / len(task_times)
