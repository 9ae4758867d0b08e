"""latnaf benchmark: three workloads, end-to-end metrics untraced,
per-layer metrics traced.

    python3 perfbench/run.py --workload <expand-stream|cli-corpus|optimality-sweep|all>
                             --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding `src/latnaf`). Every
pass of every workload runs in a fresh interpreter. Human-readable lines
come first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Outputs are checked against
perfbench/golden/ outside the timed regions. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import benchlib as bl
import calib
import clicorpus
import layers
import runmeta
import tracer
import workloads as wl

WORKLOADS = ("expand-stream", "cli-corpus", "optimality-sweep")
# library workloads run passes until --seconds is spent, at least these
# many: three expand passes give the tail 1,800 samples; sweep passes are
# long enough that two keep a run near --seconds
MIN_PASSES = {"expand-stream": 3, "optimality-sweep": 2}
IMPORT_PROBES = 5  # cli-corpus: cold-import samples per run
TAIL_EVERY = 10  # expand-stream: short calls per tail sample
PASS_DEADLINE_S = 120.0
HARD_STOP_S = 150.0  # no new pass or call starts after this; runs end within 180 s

# end-to-end metrics (name, unit); WORKLOAD_NAMES says what each reads on
# each workload, under the names the runner also prints
E2E = (
    ("setup_s", "s"),
    ("rate_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
WORKLOAD_NAMES = {
    "expand-stream": {
        "rate_per_s": ("expand_steps_per_s", "steps/s"),
        "op_p50_ms": ("expand_short_p50_us", "us"),
        "op_tail_ms": ("expand_short_tail_us", "us"),
    },
    "cli-corpus": {
        "rate_per_s": ("cli_completed_calls_per_s", "calls/s"),
        "op_p50_ms": ("cli_call_p50_s", "s"),
        "op_tail_ms": ("cli_call_tail_s", "s"),
    },
    "optimality-sweep": {
        "rate_per_s": ("sweep_points_per_s", "points/s"),
        "op_p50_ms": ("oracle_call_p50_ms", "ms"),
        "op_tail_ms": ("oracle_call_tail_ms", "ms"),
    },
}
SCALE = {"us": 1e3, "ms": 1.0, "s": 1e-3}  # from ms


class Outcome:
    """Operation accounting and the measurements of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []
        # timings as (raw, scaled to reference speed) pairs; see calib.py
        self.setup = []
        self.rates = []
        self.latencies_ms = []
        # the samples the tail is taken over, in groups: the reported tail
        # is the median of the groups' tails
        self.tail_groups = {}
        self.rss_kb = []
        self.extra = {}

    def add_setup(self, seconds, factor):
        self.setup.append((seconds, seconds / factor))

    def add_latency(self, ms, factor, tail_group=0):
        """A per-operation time; `tail_group` None keeps it out of the tail."""
        self.latencies_ms.append((ms, ms / factor))
        if tail_group is not None:
            self.tail_groups.setdefault(tail_group, []).append((ms, ms / factor))

    def add_rate(self, work, raw_s, scaled_s):
        if raw_s > 0:
            self.rates.append((work / raw_s, work / scaled_s))

    def e2e(self, scaled=True):
        i = 1 if scaled else 0
        def med(values):  # 0 when every operation failed
            return bl.median(values) if values else 0.0

        tails = [bl.tail([x[i] for x in g]) for g in self.tail_groups.values()]
        tail_ms = med([t[0] for t in tails])
        pct, n = tails[0][1:] if tails else (0.0, 0)
        self.extra["tail"] = (pct, n, len(tails))
        return {
            "setup_s": med([x[i] for x in self.setup]),
            "rate_per_s": med([x[i] for x in self.rates]),
            "op_p50_ms": med([x[i] for x in self.latencies_ms]),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": med(self.rss_kb) / 1024.0,
        }


# --- library workloads ------------------------------------------------------


def worker_pass(workload, variant, traced, tmp, tag):
    out = tmp / f"{tag}.json"
    trace_path = tmp / f"{tag}.trace.json"
    argv = [sys.executable, str(bl.HERE / "worker.py"), workload, str(variant),
            "1" if traced else "0", str(out), str(trace_path)]
    fin = bl.run_child(argv, PASS_DEADLINE_S)
    if fin.returncode != 0 or not out.exists():
        return None, None, fin
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    trace = None
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    return res, trace, fin


def score_expand(res, fin, variant, golden, oc):
    if res is None:
        planned = len(wl.expand_ops(variant))
        oc.attempted += planned
        oc.failed += planned
        oc.correct = oc.correct and fin.timed_out
        oc.notes.append(f"pass (variant {variant}) died: exit {fin.returncode}")
        return
    want = golden["variants"][str(variant)]
    bad_groups = {g for g, d in res["digests"].items() if want.get(g) != d}
    if bad_groups:
        oc.correct = False
        oc.notes.append(f"variant {variant}: output differs from golden in {sorted(bad_groups)}")
    steps = raw_ns = scaled_ns = shorts = late = 0
    group = len(oc.tail_groups)  # a new tail group for this pass
    per_system = oc.extra.setdefault("per_system", {})
    oc.attempted += len(res["times_ns"])
    rows = zip(res["systems"], res["kinds"], res["times_ns"], res["factors"], res["steps"],
               res["late"])
    for name, kind, t, f, st, is_late in rows:
        if t is None or is_late or f"{name}/{kind}" in bad_groups:
            oc.failed += 1
            late += is_late
            if t is None:
                oc.correct = False
            continue
        steps += st
        raw_ns += t
        scaled_ns += t / f
        acc = per_system.setdefault(f"{name}/{kind}", [0, 0, 0])
        acc[0] += t
        acc[1] += t / f
        acc[2] += st
        if kind == "short":
            # the tail is taken per pass over every TAIL_EVERY-th short
            # call (p98.3 of 600), and the run reports the median of the
            # passes' tails: over more calls it sits so high that bursts of
            # millisecond stalls of the machine, not the slow points, decide
            # it, and one pass with such a burst moves a pooled tail
            oc.add_latency(t / 1e6, f, tail_group=group if shorts % TAIL_EVERY == 0 else None)
            shorts += 1
    if late:
        oc.notes.append(f"variant {variant}: {late} expand call(s) missed the deadline")
    oc.add_rate(steps, raw_ns / 1e9, scaled_ns / 1e9)
    oc.add_setup(res["setup_s"], res["setup_factor"])
    oc.rss_kb.append(fin.maxrss_kb)


def score_sweep(res, fin, variant, golden, oc):
    want = golden["variants"][str(variant)]
    if res is None:
        oc.attempted += len(want)
        oc.failed += len(want)
        oc.correct = oc.correct and fin.timed_out
        oc.notes.append(f"pass (variant {variant}) died: exit {fin.returncode}")
        return
    points = raw_ns = scaled_ns = 0
    for op in res["ops"]:
        oc.attempted += 1
        if op["ns"] is None:
            oc.failed += 1
            oc.correct = False
            oc.notes.append(f"variant {variant}: {op['key']} raised {op['digest']}")
            continue
        if want.get(op["key"]) != op["digest"]:
            oc.failed += 1
            oc.correct = False
            oc.notes.append(f"variant {variant}: {op['key']} differs from golden")
            continue
        if op.get("late"):
            oc.failed += 1
            oc.notes.append(f"variant {variant}: {op['key']} missed its deadline")
            continue
        if op["fn"] == "verify_empirically":
            points += op["points"]
            raw_ns += op["ns"]
            scaled_ns += op["ns"] / op["factor"]
        elif op["fn"] == "min_weight_oracle":
            oc.add_latency(op["ns"] / 1e6, op["factor"])
    oc.add_rate(points, raw_ns / 1e9, scaled_ns / 1e9)
    oc.add_setup(res["setup_s"], res["setup_factor"])
    oc.rss_kb.append(fin.maxrss_kb)


def run_library(workload, seed, seconds, trace, tmp):
    golden = bl.load_golden(workload)
    count = wl.EXPAND_VARIANTS if workload == "expand-stream" else wl.SWEEP_VARIANTS
    score = score_expand if workload == "expand-stream" else score_sweep
    variants = wl.pass_variants(seed, 64, count)
    plain, traced = Outcome(), Outcome()
    traces = []
    start = time.perf_counter()
    last = 0.0
    j = 0
    while True:
        t0 = time.perf_counter()
        v = variants[j]
        res, _t, fin = worker_pass(workload, v, False, tmp, f"p{j}")
        score(res, fin, v, golden, plain)
        if trace:
            res, t, fin = worker_pass(workload, v, True, tmp, f"p{j}t")
            score(res, fin, v, golden, traced)
            if t is not None:
                traces.append(t)
        j += 1
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        enough = j >= (1 if trace else MIN_PASSES[workload])
        if elapsed > HARD_STOP_S or (enough and elapsed + last > seconds):
            break
    plain.extra["passes"] = j
    return plain, (traced, traces, len(traces), None) if trace else None


# --- cli-corpus -------------------------------------------------------------


def cli_pass(variant, golden, tmp, oc, traced, probes, tag, stop_at, skip_stalls=False):
    """One pass over the corpus; returns the traced calls' trace files'
    contents and, for those that finished, (wall, import, main, main
    self) seconds. `skip_stalls` leaves out the known
    stalls: the untraced comparison pass of a traced run learns nothing
    from them. Calls due after `stop_at` are skipped, so the run ends in
    time even when the machine runs slow."""
    vdir = tmp / f"{tag}-{variant}"
    vdir.mkdir()
    paths = clicorpus.write_instances(vdir, golden["custom_digits"])
    want = golden["variants"][str(variant)]
    deadline = clicorpus.CALL_DEADLINE_S * (clicorpus.TRACE_DEADLINE_FACTOR if traced else 1)
    calls = wl.cli_calls(variant)
    probe_every = max(1, len(calls) // probes) if probes else 0
    traces = []
    traced_calls = []
    corpus_raw = corpus_scaled = 0.0  # the calls' own wall time, no probes
    ok_raw = ok_scaled = 0.0
    ok_calls = 0
    before = calib.probe()
    for i, (key, argv, inst) in enumerate(calls):
        if time.perf_counter() > stop_at:
            oc.notes.append(f"{len(calls) - i} calls skipped: run time limit")
            break
        if probe_every and i % probe_every == 0 and len(oc.setup) < probes:
            seconds = clicorpus.import_probe(vdir / "probe.txt")
            after = calib.probe()
            oc.add_setup(seconds, calib.probe_factor(before, after))
            before = after
        stall = key in wl.KNOWN_STALLS
        if stall and skip_stalls:
            continue
        out = vdir / f"out{i}.txt"
        trace_path = vdir / f"trace{i}.json" if traced else None
        # deadlines are seconds at reference speed: scaled by the slowdown
        # seen just before the call, between 1x and 1.5x. Known stalls get
        # the plain untraced deadline: no slowdown or tracing factor makes
        # them finish, it would only lengthen the run
        limit = deadline * min(1.5, max(1.0, calib.probe_factor(before, before)))
        if stall:
            limit = clicorpus.CALL_DEADLINE_S
        fin, stdout = clicorpus.run_call(argv, paths[inst], out, limit, trace_path)
        after = calib.probe()
        f = calib.probe_factor(before, after)
        before = after
        oc.attempted += 1
        corpus_raw += fin.wall_s
        corpus_scaled += fin.wall_s / f
        if traced and trace_path.exists():
            with open(trace_path, encoding="utf-8") as fh:
                data = json.load(fh)
            traces.append(data)
            main = tracer.Node.from_json(data["tree"]).children.get("cli.main")
            if main is not None and not data["stopped"]:
                main_self = main.total - sum(c.total for c in main.children.values())
                traced_calls.append((fin.wall_s, data["import_s"], main.total / 1e9, main_self / 1e9))
        gold = want[key]
        if fin.timed_out:
            oc.failed += 1
            kind = "known stall" if gold.get("stall") else "UNEXPECTED"
            oc.notes.append(f"{key}: missed its {limit:.0f} s deadline ({kind})")
            continue
        if gold.get("stall"):
            oc.notes.append(f"{key}: known stall finished (exit {fin.returncode}); no golden")
        elif fin.returncode != gold["exit"] or clicorpus.digest(stdout) != gold["stdout_sha256"]:
            oc.failed += 1
            oc.correct = False
            oc.notes.append(f"{key}: exit {fin.returncode} / stdout differ from golden")
            continue
        oc.add_latency(fin.wall_s * 1e3, f)
        oc.rss_kb.append(fin.maxrss_kb)
        ok_raw += fin.wall_s
        ok_scaled += fin.wall_s / f
        ok_calls += 1
    oc.add_rate(ok_calls, ok_raw, ok_scaled)
    oc.extra.setdefault("corpus_s", []).append((corpus_raw, corpus_scaled))
    return traces, traced_calls


def run_cli(seed, seconds, trace, tmp):
    golden = bl.load_golden("cli-corpus")
    variants = wl.pass_variants(seed, 16, wl.CLI_VARIANTS)
    plain, traced = Outcome(), Outcome()
    traces, calls, passes = [], [], 0
    start = time.perf_counter()
    stop_at = start + HARD_STOP_S
    j = 0
    while True:
        t0 = time.perf_counter()
        cli_pass(variants[j], golden, tmp, plain, False, IMPORT_PROBES, f"p{j}", stop_at, trace)
        if trace:
            t, c = cli_pass(
                variants[j], golden, tmp, traced, True, IMPORT_PROBES, f"p{j}t", stop_at
            )
            traces += t
            calls += c
            passes += 1
        j += 1
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S or elapsed + last > seconds:
            break
    # peak RSS over the calls' processes: the largest one
    for oc in (plain, traced):
        oc.rss_kb = [max(oc.rss_kb)] if oc.rss_kb else []
    plain.extra["passes"] = j
    return plain, (traced, traces, passes, calls) if trace else None


# --- reporting --------------------------------------------------------------

TRACE_OUT = bl.ROOT / ".perfbench-out"


def write_trace(workload, traces, tree):
    """Keep the traced run's spans and merged call tree for inspection."""
    TRACE_OUT.mkdir(exist_ok=True)
    with open(TRACE_OUT / f"{workload}.trace.json", "w", encoding="utf-8") as fh:
        json.dump({"tree": tree.to_json(), "spans": [t["spans"] for t in traces]}, fh)


def fmt(x):
    return f"{x:.6g}"


def report(workload, plain, traced_part, meta, load_start):
    lines = []
    e2e, raw = plain.e2e(), plain.e2e(scaled=False)
    names = WORKLOAD_NAMES[workload]
    pct, n, groups = plain.extra["tail"]
    lines.append(f"== {workload}: {plain.extra['passes']} pass(es), fresh interpreter each;"
                 " times at reference speed (raw wall time in brackets)")
    for name, unit in E2E:
        alias, aunit = names.get(name, (name, unit))
        mul = SCALE[aunit] if unit == "ms" else 1.0
        tail = ""
        if name == "op_tail_ms":
            tail = f"  (p{pct:.1f} of {n} samples" + (
                f", median of {groups} passes)" if groups > 1 else ")")
        also = f"  [as {name} {unit}]" if alias != name else ""
        lines.append(f"{alias} = {fmt(e2e[name] * mul)} {aunit} (raw {fmt(raw[name] * mul)})"
                     f"{tail}{also}")
    if workload == "cli-corpus":
        corpus = plain.extra["corpus_s"]
        lines.append(f"cli_corpus_s = {fmt(bl.median([c[1] for c in corpus]))} s"
                     f" (raw {fmt(bl.median([c[0] for c in corpus]))})")
    for group, (t, ts, st) in sorted(plain.extra.get("per_system", {}).items()):
        lines.append(f"  {group}: {fmt(ts / 1e3 / st)} us/step (raw {fmt(t / 1e3 / st)})"
                     f" over {st} steps")
    ratio = plain.failed / plain.attempted if plain.attempted else 0.0
    lines.append(f"failed_ratio = {plain.failed}/{plain.attempted} = {fmt(ratio)}")
    for note in plain.notes:
        lines.append(f"  note: {note}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
    result = {"correct": plain.correct, "attempted": plain.attempted, "failed": plain.failed}
    if traced_part is not None:
        traced, traces, passes, calls = traced_part
        tree = tracer.Node("<root>")
        for t in traces:
            tree.merge(tracer.Node.from_json(t["tree"]))
        write_trace(workload, traces, tree)
        te2e = traced.e2e()
        lines.append("-- tracing overhead (traced minus untraced, same inputs)")
        for name, unit in E2E:
            d = te2e[name] - e2e[name]
            rel = 100.0 * d / e2e[name] if e2e[name] else 0.0
            lines.append(f"overhead {name} = {fmt(d)} {unit} ({rel:+.1f}%)")
        per_layer = layers.compute(tree, max(passes, 1), calls)
        per_layer["perfbench.trace_overhead_pct"] = (
            100.0 * (te2e["op_p50_ms"] - e2e["op_p50_ms"]) / e2e["op_p50_ms"]
            if e2e["op_p50_ms"] else 0.0
        )
        lines.append(f"-- per-layer metrics ({passes} traced pass(es))")
        idle = []
        for name, unit, _better in layers.METRICS:
            val = per_layer[name]
            lines.append(f"{name} = {fmt(val)} {unit}")
            if val == 0:
                idle.append(name)
        if idle:
            lines.append("not exercised on this workload (read 0): " + ", ".join(idle))
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _b in layers.METRICS}
        result["correct"] = plain.correct and traced.correct
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        for note in traced.notes:
            lines.append(f"  traced note: {note}")
    lines.append(
        "meta " + " ".join(f"{k}={v}" for k, v in meta.items())
        + f" loadavg_start={load_start} loadavg_end={runmeta.loadavg()}"
    )
    result["metrics"] = metrics
    return lines, result


def run_one(workload, seed, seconds, trace, tmp):
    load_start = runmeta.loadavg()
    if workload == "cli-corpus":
        plain, traced_part = run_cli(seed, seconds, trace, tmp)
    else:
        plain, traced_part = run_library(workload, seed, seconds, trace, tmp)
    return report(workload, plain, traced_part, runmeta.metadata(), load_start)


def pin_to_one_cpu():
    """Run the runner and every child on one CPU, so the calibration
    chunks the runner times around a subprocess see the same CPU as the
    subprocess."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None):
    # a runner stopped by SIGTERM still stops its child and removes its
    # scratch directory (the `finally` blocks run on SystemExit)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="latnaf benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (bl.SRC / "latnaf" / "__init__.py").is_file():
        bl.fail(f"no package sources at {bl.SRC / 'latnaf'}")
    for name in (*WORKLOADS, "oracle_strata"):
        if not (bl.GOLDEN / f"{name}.json").is_file():
            bl.fail(f"missing golden file {name}.json")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    pin_to_one_cpu()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=bl.ROOT))
    try:
        # compile the package once, so no timed import pays for bytecode
        clicorpus.import_probe(tmp / "warm.txt")
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in chosen:
            lines, result = run_one(workload, args.seed, args.seconds, args.trace, tmp)
            print("\n".join(lines), flush=True)
            if len(chosen) == 1:
                combined = result
                break
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"][f"{workload}.{k}"] = v
    except RuntimeError as exc:
        bl.fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
