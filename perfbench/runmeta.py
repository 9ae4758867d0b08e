"""Run metadata: interpreter and sympy versions, cores, commit, load."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata as importlib_metadata

import benchlib as bl


def _commit():
    """The git commit when the checkout is a repository, else the sha256
    of the package sources (a benchmark checkout carries no .git)."""
    if (bl.ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=bl.ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((bl.SRC / "latnaf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata():
    try:
        sympy = importlib_metadata.version("sympy")
    except importlib_metadata.PackageNotFoundError:
        sympy = "missing"
    return {
        "python": platform.python_version(),
        "sympy": sympy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": src_digest(),
    }


def loadavg():
    return [round(x, 2) for x in os.getloadavg()]
