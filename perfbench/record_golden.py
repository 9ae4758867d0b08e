"""Record the golden outputs under perfbench/golden/.

    python3 perfbench/record_golden.py

Run this once, at the commit whose outputs define "correct"; the runner
then compares every later commit against these files. It writes:

* oracle_strata.json: the optimality-sweep oracle points, sorted by the
  oracle's work (solve_divisibility calls) into strata, so that every
  variant draws the same spread of work;
* expand-stream.json: per variant, sha256 of the expansion words of each
  (system, short/long) group;
* optimality-sweep.json: per variant and operation, sha256 of the
  verdict, certificate, VerifyReport or oracle weight;
* cli-corpus.json: the custom digit sets, and per variant and call the
  exit code and the sha256 of stdout. Known stalls are marked, not run.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import benchlib as bl
import clicorpus
import runmeta
import workloads as wl

JOBS = 2  # worker processes at a time: one per core of the 2-core reference machine


def _write(name, obj):
    bl.GOLDEN.mkdir(exist_ok=True)
    with open(bl.GOLDEN / name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_custom_and_strata(strata=True):
    sys.path.insert(0, str(bl.SRC))
    import latnaf
    from latnaf import lattice

    custom = {}
    for name, coeffs, w, d, shift, c in wl.CUSTOM_SETS:
        ds = latnaf.build_minimal_norm(latnaf.build(list(coeffs)), w)
        if d not in ds.digits:
            raise RuntimeError(f"{name}: digit {d} is not in the minimal-norm set")
        custom[name] = wl.custom_digits(ds.digits, d, shift, c)
    if not strata:
        return custom

    ds = latnaf.build_minimal_norm(latnaf.build([5, -4, 1]), 3)
    calls = [0]
    solve = lattice.solve_divisibility

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    lattice.solve_divisibility = counting
    work = []
    for p in wl.oracle_pool():
        calls[0] = 0
        latnaf.min_weight_oracle(ds, p)
        work.append((calls[0], p))
    lattice.solve_divisibility = solve
    work.sort()
    size = wl.ORACLE_POOL_PER_STRATUM
    strata = [[list(p) for _c, p in work[i : i + size]] for i in range(0, len(work), size)]
    _write(
        "oracle_strata.json",
        {
            "note": "q541w3 oracle points sorted by solve_divisibility calls",
            "work": [[c for c, _p in work[i : i + size]] for i in range(0, len(work), size)],
            "strata": strata,
        },
    )
    return custom


def _worker_pass(workload, variant, tmp):
    out = tmp / f"{workload}-{variant}.json"
    fin = bl.run_child(
        [sys.executable, str(bl.HERE / "worker.py"), workload, str(variant), "0", str(out)],
        600.0,
    )
    if fin.returncode != 0:
        raise RuntimeError(f"{workload} variant {variant}: worker exited {fin.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def record_expand(pool, tmp):
    results = pool.map(
        lambda v: _worker_pass("expand-stream", v, tmp), range(wl.EXPAND_VARIANTS)
    )
    variants = {}
    for v, res in enumerate(results):
        if res["failed"]:
            raise RuntimeError(f"expand-stream variant {v}: {res['failed']} failures")
        variants[str(v)] = res["digests"]
    return variants


def record_sweep(pool, tmp):
    results = pool.map(
        lambda v: _worker_pass("optimality-sweep", v, tmp), range(wl.SWEEP_VARIANTS)
    )
    variants = {}
    for v, res in enumerate(results):
        ops = {}
        for op in res["ops"]:
            if op["ns"] is None:
                raise RuntimeError(f"optimality-sweep variant {v}: {op['key']} raised")
            ops[op["key"]] = op["digest"]
        variants[str(v)] = ops
    return variants


def record_cli(pool, tmp, custom):
    variants = {}
    for v in range(wl.CLI_VARIANTS):
        vdir = tmp / f"cli-{v}"
        vdir.mkdir()
        paths = clicorpus.write_instances(vdir, custom)

        def one(call, vdir=vdir, paths=paths):
            key, argv, inst = call
            if key in wl.KNOWN_STALLS:
                return key, {"stall": True}
            out = vdir / f"out-{key.replace(' ', '_')}.txt"
            fin, stdout = clicorpus.run_call(argv, paths[inst], out, 60.0)
            if fin.timed_out:
                raise RuntimeError(f"cli variant {v}: {key} timed out")
            return key, {
                "exit": fin.returncode,
                "stdout_sha256": clicorpus.digest(stdout),
                "seed_commit_s": round(fin.wall_s, 2),
            }

        variants[str(v)] = dict(pool.map(one, wl.cli_calls(v)))
        print(f"cli-corpus variant {v} recorded", flush=True)
    return variants


def main():
    meta = runmeta.metadata()
    t0 = time.perf_counter()
    # the strata are recorded once; delete the file to record them again
    custom = record_custom_and_strata(not (bl.GOLDEN / "oracle_strata.json").exists())
    print(f"custom digit sets and oracle strata: {time.perf_counter() - t0:.1f} s", flush=True)
    with tempfile.TemporaryDirectory(dir=bl.ROOT, prefix=".perfbench-") as tmpname, \
            ThreadPoolExecutor(JOBS) as pool:
        tmp = Path(tmpname)
        _write("expand-stream.json", {"meta": meta, "variants": record_expand(pool, tmp)})
        print(f"expand-stream: {time.perf_counter() - t0:.1f} s", flush=True)
        variants = record_sweep(pool, tmp)
        _write("optimality-sweep.json", {"meta": meta, "variants": variants})
        print(f"optimality-sweep: {time.perf_counter() - t0:.1f} s", flush=True)
        cli = record_cli(pool, tmp, custom)
        _write("cli-corpus.json", {"meta": meta, "custom_digits": custom, "variants": cli})
        print(f"cli-corpus: {time.perf_counter() - t0:.1f} s", flush=True)

if __name__ == "__main__":
    main()
