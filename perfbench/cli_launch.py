"""Traced stand-in for `python -m latnaf`.

    python3 perfbench/cli_launch.py <trace.json> <latnaf argv...>

Times the import, installs the tracer, then calls `latnaf.cli.main` with
the same argv and exits with its code, so stdout and the exit code match
an untraced call byte for byte. On SIGTERM (the runner's deadline) the
trace is written with the open spans closed at that moment.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import latnaf.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import tracer as tr  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.install()

    def dump(stopped):
        tracer.dump(out_path, {"import_s": IMPORT_S, "stopped": stopped})

    def on_term(signum, frame):
        sys.stdout.flush()
        dump(True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    code = latnaf.cli.main(argv)
    sys.stdout.flush()
    dump(False)
    return code


if __name__ == "__main__":
    sys.exit(main())
