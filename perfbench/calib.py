"""Reference-speed calibration.

On the reference machine (a 2-vCPU VM on a shared host) the same Python
work takes anywhere from 1x to 2x its fastest time, in phases lasting
seconds to minutes, so raw wall times of two runs a minute apart differ
by more than any useful bound. The benchmark therefore times a fixed
reference task next to the work it measures, on the same CPU, and scales
each measured time t to t * REF / (reference task time), the time the
work would take at the speed where the task takes REF.

In-process work (expand, sweeps, oracle calls, set-up steps) is
bracketed by `chunk()`: the operations latnaf's kernels spend their time
in, small-tuple big-integer arithmetic, dict writes and Fractions.
Subprocess work (CLI calls, import probes) is bracketed by `probe()`: a
fresh interpreter importing a few standard modules, since process
start-up (exec, page faults, unmarshalling) speeds up and slows down
differently from in-process compute. Raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# seconds per chunk iteration at the reference speed: the typical speed
# during benchmark runs on the reference machine (2-vCPU VM, Python
# 3.11.7; the fastest phases reach 2.6e-6). It only sets the unit.
REF_ITER_S = 4.0e-6
WINDOW_ITERATIONS = 700  # about 2 ms: between windows of in-process work

# seconds for probe() at the reference speed (typical on the reference
# machine; the fastest phases reach 0.072)
REF_PROBE_S = 0.09
PROBE_CODE = "import argparse, dataclasses, decimal, fractions, json, random, typing"

_ROWS = ((3, 1), (-1, 3))


def chunk(iterations: int = WINDOW_ITERATIONS) -> float:
    """Seconds per iteration of the fixed chunk, measured now."""
    seen = {}
    acc = 0
    v = (123456789123456789, -987654321987654321)
    t0 = time.perf_counter()
    for i in range(iterations):
        v = tuple(sum(a * b for a, b in zip(row, v)) % 1000000007 for row in _ROWS)
        seen[v] = i
        acc += Fraction(v[0], 7).numerator
    return (time.perf_counter() - t0) / iterations


def factor(before: float, after: float) -> float:
    """Slowdown against the reference speed over a window bracketed by
    two chunk measurements."""
    return (before + after) / (2 * REF_ITER_S)


class Segments:
    """Wall time of a sequence of steps, each step bracketed by chunks:
    `mark()` closes a step. The chunks themselves are not counted."""

    def __init__(self):
        chunk()  # the first chunk of a fresh interpreter runs cold
        self.before = chunk()
        self.raw = self.scaled = 0.0
        self.t0 = time.perf_counter()

    def mark(self):
        dt = time.perf_counter() - self.t0
        after = chunk()
        self.raw += dt
        self.scaled += dt / factor(self.before, after)
        self.before = after
        self.t0 = time.perf_counter()

    def result(self):
        """(raw seconds, slowdown factor) for the steps so far."""
        return self.raw, self.raw / self.scaled


def probe() -> float:
    """Wall seconds of a fresh interpreter running PROBE_CODE, now."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", PROBE_CODE],
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def probe_factor(before: float, after: float) -> float:
    """Slowdown against the reference speed over a subprocess call
    bracketed by two probes."""
    return (before + after) / (2 * REF_PROBE_S)
