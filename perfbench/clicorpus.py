"""The cli-corpus pass: instance files and one `python -m latnaf`
subprocess per call."""

from __future__ import annotations

import hashlib
import json
import sys

import benchlib as bl
import workloads as wl

CALL_DEADLINE_S = 8.0  # slowest call at the seed commit: 2.5-3.2 s on 2 cores
TRACE_DEADLINE_FACTOR = 2.5  # traced calls run slower; deadlines scale

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import latnaf\n"
    "print(time.perf_counter() - t, latnaf.__file__)\n"
)


def write_instances(directory, custom_digits):
    """Write the corpus's instance files; returns name -> path."""
    paths = {}
    for name, obj in wl.cli_instances().items():
        if "digitset" in obj and obj["digitset"] is None:
            obj = dict(obj, digitset=custom_digits[name])
        path = directory / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = path
    return paths


def run_call(argv, inst_path, out_path, deadline_s, trace_path=None):
    """One CLI call; returns (Finished, stdout bytes)."""
    cmd, rest = argv[0], argv[1:]
    if trace_path is None:
        head = [sys.executable, "-m", "latnaf"]
    else:
        head = [sys.executable, str(bl.HERE / "cli_launch.py"), str(trace_path)]
    full = [*head, cmd, "--instance", str(inst_path), *rest]
    with open(out_path, "wb") as fh:
        fin = bl.run_child(full, deadline_s, stdout=fh)
    return fin, out_path.read_bytes()


def import_probe(out_path):
    """Seconds for a cold `import latnaf` in a fresh interpreter."""
    with open(out_path, "wb") as fh:
        fin = bl.run_child([sys.executable, "-c", IMPORT_PROBE], 60.0, stdout=fh)
    text = out_path.read_text(encoding="utf-8").split()
    if fin.returncode != 0 or len(text) != 2:
        raise RuntimeError("import probe failed")
    seconds, where = float(text[0]), text[1]
    if not where.startswith(str(bl.SRC)):
        raise RuntimeError(f"latnaf imported from {where}, not {bl.SRC}")
    return seconds


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()
