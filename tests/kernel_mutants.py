"""Mutants of the weight oracle's generated source, and their kill table.

Each mutant is one regular-expression substitution in the lines that
``digitset._oracle_lines`` writes for ``DigitSet.oracle``. Run from the
repository root:

    python tests/kernel_mutants.py [name ...]

For each mutant (all of them by default) a child process applies the
substitution to every oracle it builds and runs ``KILLING_TESTS`` with
``-x``. The table gives, per mutant, whether it applied to today's source
(the oracles of the kernel shape test's sets, ``test_kernel.SHAPES``) and
the first test that failed under it. A mutant that no longer applies is
reported as such and never run, so it is never counted as killed. A
mutant that survives carries, in its last field, the argument that it is
equivalent in output. ``test_layout.py`` checks that every mutant still
applies.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KILLING_TESTS = ["tests/test_optimality.py", "tests/test_kernel.py"]

# (name, pattern, replacement, equivalence argument or None); patterns are
# matched line by line (re.M) on the oracle's lines joined by newlines
MUTANTS = [
    ("reach-off-by-one", r"reach = weight - 1$", "reach = weight", None),
    ("no-reach-update", r"^(\s+)reach = (base|cost)$", r"\1pass", None),
    ("cost-0-edge-at-the-back", r"push_zero\(nxt\)$", "push(nxt)", None),
    ("prune-gt", r"if cost >= reach:$", "if cost > reach:", None),
    ("state-cap-ge", r"if len\(dist\) > states:$", "if len(dist) >= states:", None),
    ("u-doubled", r"weight \+= 1$", "weight += 2", None),
    ("done-skipped", r"if cur in done:$", "if False:",
     "a state popped again was expanded at its current distance, so its edges relax nothing, "
     "and where it returns reach + 1 every later pop would too, as queue distances do not fall"),
    ("digit-dropped", r"in steps\.get\((.*), \(\)\):$", r"in steps.get(\1, ())[1:]:", None),
    ("settled-return-off-by-one", r"^(\s+)return reach \+ 1$", r"\1return reach", None),
    ("stop-gt", r"if base >= reach:$", "if base > reach:", None),
]
BY_NAME = {m[0]: m for m in MUTANTS}


def mutate(name: str, lines: list[str]) -> tuple[list[str], int]:
    """The lines with the mutant's substitution made, and how many times
    it was made."""
    _, pattern, replacement, _ = BY_NAME[name]
    text, count = re.subn(pattern, replacement, "\n".join(lines), flags=re.M)
    return text.split("\n"), count


def oracle_sources() -> dict[str, list[str]]:
    """The oracle lines of each set of the kernel shape test, by name."""
    from latnaf import digitset
    from test_kernel import SHAPES, _fresh

    real, found = digitset._oracle_lines, {}
    try:
        for name in SHAPES:
            digitset._oracle_lines = lambda *args, name=name: found.setdefault(name, real(*args))
            ds = _fresh(name)
            ds.divide((0,) * ds.inst.n)
    finally:
        digitset._oracle_lines = real
    return found


def applies(name: str, sources: dict[str, list[str]]) -> bool:
    """Whether the mutant changes the oracle of every shape."""
    return all(mutate(name, lines)[1] for lines in sources.values())


def run_one(name: str) -> None:
    """In this process: apply the mutant to every oracle built, run the
    killing tests, and print the first failing test or SURVIVED."""
    import pytest
    from hypothesis import settings

    from latnaf import digitset

    settings.register_profile("mutants", database=None)
    settings.load_profile("mutants")
    real = digitset._oracle_lines
    digitset._oracle_lines = lambda *args: mutate(name, real(*args))[0]

    class First:
        nodeid = None

        def pytest_runtest_logreport(self, report):
            if report.failed and self.nodeid is None:
                self.nodeid = report.nodeid

    first = First()
    pytest.main([*KILLING_TESTS, "-x", "-q", "-p", "no:cacheprovider"], plugins=[first])
    print(f"\nKILLER {first.nodeid}" if first.nodeid else "\nSURVIVED")


def main(names: list[str]) -> int:
    sources = oracle_sources()
    rows = []
    for name in names or [m[0] for m in MUTANTS]:
        start = time.perf_counter()
        if not applies(name, sources):
            rows.append((name, "no", "not run"))
            continue
        proc = subprocess.run(
            [sys.executable, __file__, "--one", name],
            cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
        if last.startswith("KILLER "):
            outcome = f"killed by {last[7:]}"
        elif last == "SURVIVED":
            argument = BY_NAME[name][3]
            outcome = f"survived: equivalent, {argument}" if argument else "SURVIVED, no argument"
        else:
            outcome = f"child failed: {last}"
        rows.append((name, "yes", f"{outcome} ({time.perf_counter() - start:.1f} s)"))
    width = max(len(r[0]) for r in rows)
    print(f"{'mutant':<{width}}  applied  outcome")
    for name, applied, outcome in rows:
        print(f"{name:<{width}}  {applied:<7}  {outcome}")
    return 0 if all(r[1] == "yes" and not r[2].startswith(("SURVIVED", "child")) for r in rows) else 1


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if sys.argv[1:2] == ["--one"]:
        run_one(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
