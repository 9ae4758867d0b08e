"""Helpers shared by the runner, the recorder and the self-test: paths,
statistics, golden files and deadline-bounded child processes."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("NAF_PRECISION_CAP_BITS", None)
    return env


def median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of nothing")
    mid = n // 2
    return vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2


def tail(values, beyond: int = 10):
    """The highest percentile with at least `beyond` samples above it:
    (value, percentile, sample count). The value is the Harrell-Davis
    estimate of that quantile, a Beta-weighted mean of all the order
    statistics: the order statistic alone is one sample's time and moves
    with that sample's noise. With too few samples it falls back to the
    median."""
    vals = sorted(values)
    n = len(vals)
    if n <= 2 * beyond:
        return median(vals), 50.0, n
    p = (n - beyond) / n
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    value = sum(v * (cdf[i + 1] - cdf[i]) for i, v in enumerate(vals))
    return value, 100.0 * p, n


def _beta_cdf(a, b, x):
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    # the continued fraction converges fast on this side of the mean
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a, b, x, tiny=1e-300):
    """Continued fraction of the incomplete beta function (modified
    Lentz method)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta: continued fraction did not converge")


def load_golden(workload: str):
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Finished:
    """Outcome of a child process run under a deadline."""

    def __init__(self, returncode, wall_s, maxrss_kb, timed_out):
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out


def run_child(argv, deadline_s: float, stdout=None) -> Finished:
    """Run argv in its own process group with a deadline. At the deadline
    the group gets SIGTERM, then SIGKILL two seconds later; the child is
    always reaped here, so none is left behind. Wall time runs from the
    spawn to the reap; peak RSS comes from the child's own rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdout=stdout if stdout is not None else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
        env=child_env(),
        cwd=str(ROOT),
        start_new_session=True,
    )
    fired = threading.Event()

    def stop():
        fired.set()
        _signal_group(proc.pid, signal.SIGTERM)
        if not done.wait(2.0):
            _signal_group(proc.pid, signal.SIGKILL)

    done = threading.Event()
    timer = threading.Timer(deadline_s, stop)
    timer.daemon = True
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted (the runner itself is being stopped): take the child
        # down with it
        _signal_group(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        done.set()
        timer.cancel()
    wall = time.perf_counter() - t0
    # the child is reaped; kill whatever it may have left in its group
    _signal_group(proc.pid, signal.SIGKILL)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss, fired.is_set())


def _signal_group(pid, sig):
    try:
        os.killpg(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def fail(message: str) -> None:
    """Abort the run without printing a result."""
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)
