"""Host-speed calibration: a fixed reference pass timed while a workload runs.

The benchmark's two-core host is shared, and its speed drifts by a third
within seconds.  Calibration made before and after a call misses that drift,
so `HostSpeed` samples it during the call.  A SIGALRM every `PERIOD_S`
seconds runs one reference pass inside the process and records its time.
When the measured region ends, the caller subtracts the handler's own wall
and CPU time from the region, and `scale` maps the rest to a host on which
one pass takes `REFERENCE_S` seconds:

    scaled = (measured - handler time) * (REFERENCE_S / mean(pass times)) ** ELASTICITY

Not every call follows the pass's slowdowns in full: the log-log slope of
call time on mean pass time, per call, was 0.66 on `conjugation` and 1.02
on `harnack`.  `ELASTICITY` is one value for all
workloads, chosen on one set of ten seeds per workload and checked on a
second set; NOTES.md has the figures.

The pass mixes the kinds of work fspdelab does: an interpreted loop, many
small NumPy operations, vector arithmetic on a 256 KiB array and a small
matrix product.  It calls no fspdelab code, so a change to the program
cannot change it; a change that evicts more of the caches slows the pass a
little and is then scaled down a little.  Its arrays stay small, so it never
sets the process's peak resident memory.  A Python signal handler runs
between bytecodes, so a pass never interrupts a NumPy call; it waits for
the call to return.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# seconds one pass takes on the two-core host the bounds were set on
REFERENCE_S = 0.015
# how much a call's time follows the pass's time on that host (see above)
ELASTICITY = 0.85
PERIOD_S = 0.25


def _interpreted(n: int = 40_000) -> int:
    table = {}
    acc = 0
    for i in range(n):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    return acc + len(table)


def _small_arrays(n: int = 600) -> float:
    a = np.linspace(-1.0, 1.0, 128).reshape(64, 2)
    total = 0.0
    for _ in range(n):
        b = np.tanh(a) * 0.5 + a
        total += float(np.max(np.abs(b)))
        a = b[::-1] * 0.9
    return total


def _vectors(n: int = 12) -> float:
    a = np.linspace(-3.0, 3.0, 32_768)
    m = np.eye(96) + np.outer(np.linspace(0.0, 0.01, 96), np.ones(96))
    for _ in range(n):
        a = np.sin(a) + 0.5 * a
        m = m @ m.T
        m /= np.abs(m).max()
    return float(a.sum() + m.sum())


def reference_pass() -> float:
    """Wall seconds of one reference pass."""
    start = time.perf_counter()
    _interpreted()
    _small_arrays()
    _vectors()
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference pass every PERIOD_S seconds while the `with` block runs.

    After the block, `handler_wall_s` and `handler_cpu_s` hold what the
    passes cost the block, and `passes` their times.  A block too short for
    the timer gets one pass after it ends, outside the block.
    """

    def __init__(self):
        self.passes: list[float] = []
        self.handler_wall_s = 0.0
        self.handler_cpu_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.passes.append(reference_pass())
        self.handler_wall_s += time.perf_counter() - wall0
        self.handler_cpu_s += time.process_time() - cpu0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.passes:
            self.passes.append(reference_pass())


def scale(seconds: float, passes: list[float]) -> float:
    """`seconds` on a host where one pass takes REFERENCE_S seconds."""
    return seconds * (REFERENCE_S / statistics.fmean(passes)) ** ELASTICITY
