"""Self-test of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks two things about the traced operation counts:

* Determinism: two traced passes of the same variant, each in a fresh
  interpreter, make exactly the same calls (same call paths, counts,
  word lengths, ball points and precision bits), so every input is a
  pure function of the variant. The cli-corpus check uses a subset of
  the corpus to stay short.
* No cached table within a pass: in an optimality-sweep pass the
  (system, radius) pairs of the `verify_empirically` calls are distinct,
  and every call enumerates a ball twice, once for the swept points and
  once for its distance table. A table that `_distance_table`'s
  `lru_cache` handed back would skip the second enumeration.

Also checks the tail statistic on a known sample.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import benchlib as bl
import clicorpus
import run
import tracer
import worker
import workloads as wl

STRATA = bl.load_golden("oracle_strata")["strata"]
CLI_SUBSET = ("check-nads custom541c2", "check-optimality q541w3", "expand c3101w4", "info q541w3")


def counts(node, path=(), out=None):
    """Call path -> (count, extras): everything but the times. Paths are
    unique in the tree, so each maps to one node."""
    out = {} if out is None else out
    for child in node.children.values():
        p = path + (child.name,)
        out[p] = (child.count, tuple(sorted(child.extra.items())))
        counts(child, p, out)
    return out


def library_pass_counts(workload, variant, tmp, tag):
    res, trace, fin = run.worker_pass(workload, variant, True, tmp, tag)
    if res is None:
        raise AssertionError(f"{workload}: traced pass failed with exit {fin.returncode}")
    return counts(tracer.Node.from_json(trace["tree"]))


def cli_pass_counts(variant, tmp, tag):
    golden = bl.load_golden("cli-corpus")
    vdir = tmp / tag
    vdir.mkdir()
    paths = clicorpus.write_instances(vdir, golden["custom_digits"])
    root = tracer.Node("<root>")
    for i, (key, argv, inst) in enumerate(wl.cli_calls(variant)):
        if key not in CLI_SUBSET:
            continue
        trace_path = vdir / f"trace{i}.json"
        fin, _out = clicorpus.run_call(argv, paths[inst], vdir / f"out{i}.txt", 60.0, trace_path)
        if fin.timed_out:
            raise AssertionError(f"cli-corpus: {key} timed out")
        with open(trace_path, encoding="utf-8") as fh:
            root.merge(tracer.Node.from_json(json.load(fh)["tree"]))
    return counts(root)


def check_tables_not_reused(sweep_counts):
    for v in range(wl.SWEEP_VARIANTS):
        pairs = [(name, arg) for _k, fn, name, arg in worker.sweep_plan(v, STRATA)
                 if fn == "verify_empirically"]
        if len(set(pairs)) != len(pairs):
            raise AssertionError(f"optimality-sweep variant {v}: a (system, radius) pair repeats")
    verify = ("optimality.verify_empirically",)
    calls = sweep_counts[verify][0]
    balls = sweep_counts[verify + ("quadform.enumerate_ball",)][0]
    if balls != 2 * calls:
        raise AssertionError(
            f"optimality-sweep: {balls} ball enumerations in {calls} verify calls, not 2 each"
        )
    print(f"ok optimality-sweep: {calls} verify calls, each built its own distance table")


def check_equal(label, a, b):
    if a != b:
        diff = sorted(set(a.items()) ^ set(b.items()), key=str)[:5]
        raise AssertionError(f"{label}: traced counts differ between passes: {diff}")
    print(f"ok {label}: {len(a)} call paths, identical counts in both passes")


def check_tail():
    vals = list(range(1, 101))
    value, pct, n = bl.tail(vals)
    # Harrell-Davis p90 of 1..100: the Beta weights have mean p, so for
    # the values 1..n the estimate is n * p + 1/2 up to a negligible term
    assert (pct, n) == (90.0, 100) and abs(value - 90.5) < 1e-6, (value, pct, n)
    assert sum(1 for v in vals if v > value) == 10
    print("ok tail: p90 of 100 samples leaves exactly 10 beyond")


def main():
    check_tail()
    with tempfile.TemporaryDirectory(dir=bl.ROOT, prefix=".perfbench-") as name:
        tmp = Path(name)
        for workload in ("optimality-sweep", "expand-stream"):
            a = library_pass_counts(workload, 3, tmp, f"{workload}-a")
            b = library_pass_counts(workload, 3, tmp, f"{workload}-b")
            check_equal(workload, a, b)
            if workload == "optimality-sweep":
                check_tables_not_reused(a)
        check_equal("cli-corpus", cli_pass_counts(1, tmp, "cli-a"), cli_pass_counts(1, tmp, "cli-b"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
