"""One pass of a library workload in a fresh interpreter.

    python3 perfbench/worker.py <expand-stream|optimality-sweep> <variant> <trace 0|1> <out.json> [<trace.json>]

The set-up clock starts before `import latnaf`, so `setup_s` covers the import
and the construction of the pass's bases and digit sets. The result file
holds per-operation times with their calibration factors (see calib.py),
and the outputs' digests, checked by the runner outside any timed region.
"""

from __future__ import annotations

import time

import hashlib
import json
import sys
from pathlib import Path

import calib
import workloads as wl

WINDOW = 64  # expand calls between two calibration chunks

# per-operation deadlines, seconds: an operation that takes longer fails
DEADLINE = {
    "expand": 5.0,
    "decide": 30.0,
    "check_hypotheses": 30.0,
    "verify_empirically": 60.0,
    "min_weight_oracle": 20.0,
}


def _source(latnaf, base):
    kind, data = base
    if kind == "minpoly":
        return latnaf.build(list(data))
    return latnaf.LatticeInstance.from_matrix([list(r) for r in data])


def _word_text(p, word):
    return ",".join(map(str, p)) + ":" + ";".join(",".join(map(str, d)) for d in word)


def build_systems(latnaf, specs, setup):
    """Set-up: one digit set per system, each build a timed segment."""
    systems = {}
    for name, base, w in specs:
        systems[name] = latnaf.build_minimal_norm(_source(latnaf, base), w)
        setup.mark()
    return systems


def expand_pass(latnaf, variant, setup):
    systems = build_systems(latnaf, wl.EXPAND_SYSTEMS, setup)
    setup_s, setup_f = setup.result()
    for name, p in wl.expand_warmup():
        latnaf.expand(systems[name], p)
    ops = wl.expand_ops(variant)
    expand = latnaf.expand
    clock = time.perf_counter_ns
    times = []
    steps = []
    factors = []
    late = []
    digests = {}
    failed = 0
    before = calib.chunk()
    for start in range(0, len(ops), WINDOW):
        window = ops[start : start + WINDOW]
        for name, kind, p in window:
            ds = systems[name]
            try:
                t0 = clock()
                e = expand(ds, p)
                dt = clock() - t0
            except Exception as exc:  # counted as a failed operation
                dt, e = None, exc
            # outside the timed call: fold the word into its group's digest
            # at once, so no result outlives its operation and the heap the
            # collector walks does not grow over the pass. A late word still
            # goes into the digest: the deadline miss fails that operation
            # alone, not the golden check of its group
            h = digests.setdefault(f"{name}/{kind}", hashlib.sha256())
            word = getattr(e, "word", None)
            if dt is None or word is None:
                failed += 1
                steps.append(0)
                h.update(f"FAILED {e!r}|".encode())
            else:
                steps.append(len(word))
                h.update((_word_text(p, word) + "|").encode())
            times.append(dt)
            late.append(dt is not None and dt > DEADLINE["expand"] * 1e9)
        after = calib.chunk()
        factors += [calib.factor(before, after)] * len(window)
        before = after
    return {
        "setup_s": setup_s,
        "setup_factor": setup_f,
        "factors": factors,
        "kinds": [kind for _n, kind, _p in ops],
        "systems": [name for name, _k, _p in ops],
        "times_ns": times,
        "steps": steps,
        "late": late,
        "failed": failed,
        "digests": {k: h.hexdigest() for k, h in digests.items()},
    }


def _cert_text(c):
    u = c.u_enclosure
    return (
        f"{c.cell_symmetric},{c.cell_within_base_image},"
        f"{c.contraction_below_cell_ratio},{c.window_inequality},{c.w},"
        f"{c.r_sq},{c.R_sq},{u.lo},{u.hi}"
    )


def _verdict_text(v):
    cyc = None if v.witness is None else v.witness.cycle
    return f"{v.status},{v.bound_used},{v.search_radius},{cyc}"


def _report_text(r):
    return f"{r.points_checked},{r.sampled},{r.violations!r}"


def sweep_plan(variant, strata):
    """Operations of one optimality-sweep pass: (key, function, system,
    argument). Oracle calls come in a seeded order."""
    plan = []
    for name in ("t3w2", "q541w3"):
        plan.append((f"decide {name}", "decide", name, None))
        plan.append((f"check_hypotheses {name}", "check_hypotheses", name, None))
    for name in ("t3w2", "q541w3"):
        for r in wl.sweep_radii(name, variant):
            plan.append((f"verify_empirically {name} r={r}", "verify_empirically", name, r))
    oracle = [("t2w2", p) for p in wl.oracle_fast_points(variant)]
    oracle += [("q541w3", p) for p in wl.oracle_slow_points(strata, variant)]
    order = wl.random.Random(f"optimality-sweep/order/{variant}")
    order.shuffle(oracle)
    for name, p in oracle:
        key = f"min_weight_oracle {name} {','.join(map(str, p))}"
        plan.append((key, "min_weight_oracle", name, p))
    return plan


def sweep_pass(latnaf, variant, setup, strata):
    systems = build_systems(latnaf, wl.SWEEP_SYSTEMS, setup)
    setup_s, setup_f = setup.result()
    before = setup.before
    texts = {
        "decide": _verdict_text,
        "check_hypotheses": _cert_text,
        "verify_empirically": _report_text,
        "min_weight_oracle": str,
    }
    ops = []
    for key, fn, name, arg in sweep_plan(variant, strata):
        call = getattr(latnaf, fn)
        args = (systems[name],) if arg is None else (systems[name], arg)
        t0 = time.perf_counter_ns()
        try:
            out = call(*args)
        except Exception as exc:  # counted as a failed operation
            ops.append({"key": key, "fn": fn, "ns": None, "digest": repr(exc)})
            continue
        dt = time.perf_counter_ns() - t0
        after = calib.chunk()
        f = calib.factor(before, after)
        before = after
        ops.append({"key": key, "fn": fn, "ns": dt, "factor": f, "digest": None, "out": out})
    for op in ops:
        out = op.pop("out", None)
        if op["ns"] is None:
            continue
        if op["ns"] > DEADLINE[op["fn"]] * 1e9:
            op["late"] = True
        op["digest"] = hashlib.sha256(texts[op["fn"]](out).encode()).hexdigest()
        if op["fn"] == "verify_empirically":
            op["points"] = out.points_checked
    return {"setup_s": setup_s, "setup_factor": setup_f, "ops": ops}


def main(argv):
    workload, variant, trace, out_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    if workload == "optimality-sweep":
        with open(Path(__file__).parent / "golden" / "oracle_strata.json") as fh:
            strata = json.load(fh)["strata"]
    setup = calib.Segments()
    import latnaf

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(latnaf.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"latnaf imported from {latnaf.__file__}, not {src}\n")
        return 2
    tracer = None
    if trace:
        import tracer as tr

        tracer = tr.install()
    setup.mark()
    if workload == "expand-stream":
        result = expand_pass(latnaf, variant, setup)
    elif workload == "optimality-sweep":
        result = sweep_pass(latnaf, variant, setup, strata)
    else:
        sys.stderr.write(f"unknown workload {workload}\n")
        return 2
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(argv[5])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
