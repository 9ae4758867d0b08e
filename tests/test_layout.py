"""Module layout: no module of the package reaches into a sibling's
private names, whether by import or by attribute access; no function
memoizes through a functools cache; no check rests on an assertion; a
generated kernel source spells out no value of its set;
nothing imports sympy, which is a test-only dependency, nor dataclasses
or typing; every module parses as Python 3.10, the oldest version the
package declares; ``import latnaf`` loads no submodule and a CLI call only
the modules its subcommand runs; and the names and calls the benchmark's
tracer and worker (``perfbench/``) rely on are still there."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import latnaf
from latnaf import digitset, expansion

PKG = Path(__file__).resolve().parents[1] / "src" / "latnaf"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_cross_module_uses(pkg: Path) -> list[str]:
    siblings = {p.stem for p in pkg.glob("*.py")}
    hits = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level == 0 and not mod.startswith("latnaf"):
                    continue
                mod = mod.removeprefix("latnaf").lstrip(".")
                for alias in node.names:
                    if not mod and alias.name in siblings:
                        module_aliases.add(alias.asname or alias.name)
                    elif mod in siblings and _private(alias.name):
                        hits.append(f"{path.name}: from {mod} import {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("latnaf.") and alias.asname:
                        module_aliases.add(alias.asname)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
                and _private(node.attr)
            ):
                hits.append(f"{path.name}: {node.value.id}.{node.attr}")
    return hits


def test_no_private_names_across_modules():
    assert PKG.is_dir()
    assert private_cross_module_uses(PKG) == []


def test_layout_check_catches_both_patterns(tmp_path):
    (tmp_path / "a.py").write_text("def _hidden():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _hidden\n\ndef f():\n    return a._hidden\n"
    )
    assert private_cross_module_uses(tmp_path) == [
        "b.py: from a import _hidden",
        "b.py: a._hidden",
    ]


def _decorator_name(dec) -> str | None:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def memo_caches(pkg: Path) -> list[str]:
    """Functions decorated with functools.lru_cache or functools.cache:
    precomputed data belongs to the object that owns it."""
    hits = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list
            ):
                hits.append(f"{path.name}: {node.name}")
    return hits


def assertion_checks(pkg: Path) -> list[str]:
    """`assert` statements (stripped by python -O) and `raise
    AssertionError` (not a package error, so no clean exit code)."""
    hits = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    hits.append(f"{path.name}:{node.lineno}: raise AssertionError")
    return hits


def test_no_memo_caches():
    assert memo_caches(PKG) == []


def test_no_assertion_checks():
    assert assertion_checks(PKG) == []


def test_layout_checks_catch_caches_and_asserts(tmp_path):
    (tmp_path / "exactreal.py").write_text(
        "from functools import lru_cache\n\n@lru_cache(maxsize=None)\n"
        "def isolated_roots(c):\n    return c\n"
    )
    (tmp_path / "m.py").write_text(
        "import functools\nfrom functools import cache\n\n"
        "@functools.lru_cache\ndef a(x):\n    assert x\n    return x\n\n"
        "@cache\ndef b(x):\n    raise AssertionError('no')\n\n"
        "def c(x):\n    raise AssertionError\n"
    )
    assert memo_caches(tmp_path) == ["exactreal.py: isolated_roots", "m.py: a", "m.py: b"]
    assert assertion_checks(tmp_path) == [
        "m.py:6: assert",
        "m.py:11: raise AssertionError",
        "m.py:14: raise AssertionError",
    ]


def syntax_newer_than_310(pkg: Path) -> list[str]:
    """Modules that Python 3.10, the oldest version pyproject.toml
    accepts, could not parse (``except*``, PEP 695 type parameters):
    tier-1 runs on a newer Python, which parses them without a word."""
    hits = []
    for path in sorted(pkg.glob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        except SyntaxError as exc:
            hits.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    return hits


# the integers a generated kernel source may spell out: the indices,
# increments and default-cap terms of the template, and none of a set's
# values (a coefficient, modulus, stride or divisor is a closure cell)
KERNEL_LITERALS = {0, 1, 2, 8, 64}


def kernel_literals(texts) -> list[str]:
    """Integer constants outside KERNEL_LITERALS in kernel source texts."""
    found = []
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value not in KERNEL_LITERALS:
                found.append(f"line {node.lineno}: {node.value}")
    return found


def test_kernel_sources_spell_out_no_values():
    """Every source the kernel template compiled for the sets of the shape
    test, built and walked (division, oracle and window walk factories),
    holds only the integers of KERNEL_LITERALS. A value formatted into a
    source would split sets of one shape and could pass the int string
    limit. Every oracle among them is oracle(start, states) and spells
    neither a norm limit nor an escape: the oracle has one mode, with no
    norm."""
    from test_kernel import SHAPES, _fresh

    digitset._Template.factories.clear()
    for name in SHAPES:
        ds = _fresh(name)
        ds.divide((1,) * ds.inst.n)
        ds.walk((1,) * ds.inst.n, None)
    texts = list(digitset._Template.factories)
    assert len(texts) == 6
    assert kernel_literals(texts) == []
    oracles = [
        (text, node) for text in texts for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "oracle"
    ]
    assert len(oracles) == 3
    for text, node in oracles:
        assert [a.arg for a in node.args.args] == ["start", "states"]
        segment = ast.get_source_segment(text, node)
        assert "limit" not in segment and "escape" not in segment


def test_every_kernel_mutant_still_applies():
    """Each mutant of tests/kernel_mutants.py changes the oracle source of
    every shape of the shape test, so its kill table measures today's
    oracle and no mutant is counted as killed that no longer applies."""
    import kernel_mutants
    from test_kernel import SHAPES

    sources = kernel_mutants.oracle_sources()
    assert sorted(sources) == sorted(SHAPES)
    assert len(kernel_mutants.MUTANTS) >= 8
    for name, *_ in kernel_mutants.MUTANTS:
        assert kernel_mutants.applies(name, sources), name


def test_kernel_literal_check_catches_a_formatted_value():
    assert kernel_literals(["x = y % 125", "z = -1 + 2 * 64 + True"]) == ["line 1: 125"]
    assert kernel_literals(["def f():\n    return 8, 0\n    q = p[3]"]) == ["line 3: 3"]


def test_sources_parse_as_python_310():
    pyproject = (PKG.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    assert syntax_newer_than_310(PKG) == []


def test_layout_check_catches_syntax_newer_than_310(tmp_path):
    (tmp_path / "groups.py").write_text(
        "try:\n    pass\nexcept* ValueError:\n    pass\n"
    )
    (tmp_path / "generic.py").write_text("def first[T](xs: list[T]) -> T:\n    return xs[0]\n")
    (tmp_path / "match.py").write_text("match 1:\n    case 1:\n        pass\n")
    hits = syntax_newer_than_310(tmp_path)
    assert [h.split(":")[0] for h in hits] == ["generic.py", "groups.py"]


def module_level_sympy_imports(pkg: Path) -> list[str]:
    """`import sympy` or `from sympy ...` that runs when the module is
    imported, i.e. outside every function body. sympy takes about ten
    times as long to import as the rest of the package."""
    hits = []
    for path in sorted(pkg.glob("*.py")):
        found = []
        stack = [ast.parse(path.read_text(encoding="utf-8"))]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                names = []
            if any(n.split(".")[0] == "sympy" for n in names):
                found.append(node.lineno)
            stack.extend(ast.iter_child_nodes(node))
        hits += [f"{path.name}:{line}: sympy" for line in sorted(found)]
    return hits


def test_no_module_level_sympy_import():
    assert module_level_sympy_imports(PKG) == []


def test_layout_check_catches_module_level_sympy(tmp_path):
    (tmp_path / "m.py").write_text(
        "import sympy\n"
        "from sympy.polys import Poly\n"
        "if True:\n    import os, sympy as sp\n"
        "class A:\n    from sympy import Symbol\n"
        "def f():\n    import sympy\n    return sympy\n"
        "g = lambda: __import__('sympy')\n"
        "import sympyish\n"
    )
    assert module_level_sympy_imports(tmp_path) == [
        "m.py:1: sympy",
        "m.py:2: sympy",
        "m.py:4: sympy",
        "m.py:6: sympy",
    ]


def imports_of(pkg: Path, banned=("sympy",)) -> list[str]:
    """Every import of a banned top-level module (sympy by default), at
    module level or inside a function, by statement or through
    `__import__` / `importlib.import_module`."""
    hits = []
    for path in sorted(pkg.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif (
                isinstance(node, ast.Call)
                and _decorator_name(node) in ("__import__", "import_module")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                names = [str(node.args[0].value)]
            else:
                continue
            found += [(node.lineno, n.split(".")[0]) for n in names if n.split(".")[0] in banned]
        hits += [f"{path.name}:{line}: {top}" for line, top in sorted(found)]
    return hits


def test_no_sympy_import_anywhere():
    assert imports_of(PKG) == []


# importing them costs milliseconds of every CLI call's start-up, and the
# package's records (``record.Record``) and annotations need neither
SLOW_IMPORTS = ("dataclasses", "typing")


def test_no_dataclasses_or_typing_import():
    assert imports_of(PKG, SLOW_IMPORTS) == []


def test_layout_check_catches_dataclasses_and_typing(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "import typing\n"
        "def f():\n    from typing import TYPE_CHECKING\n    return TYPE_CHECKING\n"
        "g = lambda: __import__('dataclasses')\n"
        "import typing_extensions, dataclasses_json\n"
        "from collections.abc import Callable\n"
    )
    assert imports_of(tmp_path, SLOW_IMPORTS) == [
        "m.py:1: dataclasses",
        "m.py:2: typing",
        "m.py:4: typing",
        "m.py:6: dataclasses",
    ]


def test_layout_check_catches_sympy_anywhere(tmp_path):
    (tmp_path / "m.py").write_text(
        "import os\n"
        "def f():\n    import sympy\n    return sympy\n"
        "class A:\n    def g(self):\n        from sympy.polys import Poly\n"
        "h = lambda: __import__('sympy')\n"
        "import importlib\nk = importlib.import_module('sympy.core')\n"
        "import sympyish\n"
    )
    assert imports_of(tmp_path) == [
        "m.py:3: sympy",
        "m.py:7: sympy",
        "m.py:8: sympy",
        "m.py:10: sympy",
    ]


SYMPY_FREE_INSTANCES = {
    "q541": {"base": {"minpoly": [5, -4, 1]}, "w": 3},
    "t3": {"base": {"minpoly": [-3, 1]}, "w": 2},
    "m31": {"base": {"matrix": [[3, 1], [-1, 3]]}, "w": 2},
}
ENCLOSURE_CUBICS = {
    "c3101w4": {"base": {"minpoly": [3, 1, 0, 1]}, "w": 4},
    "c3101w3": {"base": {"minpoly": [3, 1, 0, 1]}, "w": 3},
}

# sys.modules["sympy"] = None makes every import of sympy fail; the
# last column says whether the root kernel module has been loaded
_PROBE = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
import latnaf
from latnaf import cli
print("import", "latnaf.roots" in sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(argv[0], argv[2], code, "latnaf.roots" in sys.modules)
"""


def test_common_paths_leave_sympy_unimported(tmp_path):
    """No path needs sympy: not to import the package, nor to expand,
    decide or check optimality, on quadratic, integer and 2 x 2 matrix
    bases and on the enclosure cubic x^3 + x + 3. Only the cubic loads
    the root kernel."""
    calls, want = [], []
    for name, obj in SYMPY_FREE_INSTANCES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        point = ",".join(["17"] * (1 if name == "t3" else 2))
        calls += [
            ["expand", "--instance", str(path), "--point", point],
            ["check-nads", "--instance", str(path)],
            ["check-optimality", "--instance", str(path), "--radius", "10"],
        ]
        want += [0, 0, 0]
    for name, obj in ENCLOSURE_CUBICS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        calls += [
            ["info", "--instance", str(path)],
            ["digit-set", "--instance", str(path)],
            ["expand", "--instance", str(path), "--point", "17,-5,3"],
            ["check-nads", "--instance", str(path)],
        ]
        # w3 is not a NADS: check-nads reports a cycle, and so may expand
        want += [0, 0, None, 0 if name == "c3101w4" else 1]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import False"
    assert len(lines) == len(calls) + 1
    light = 3 * len(SYMPY_FREE_INSTANCES)
    for k, (line, call, code) in enumerate(zip(lines[1:], calls, want)):
        got = line.split()
        assert got[:2] == [call[0], call[2]]
        assert int(got[2]) in ((0, 1) if code is None else (code,)), line
        assert got[3] == str(k >= light), line


_SURFACE_PROBE = """
import contextlib, io, json, sys
import latnaf
out = {"bare": sorted(m for m in sys.modules if m.startswith("latnaf."))}
out["digitset"] = latnaf.digitset.__name__
from latnaf import cli
out["codes"] = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(cli.main(argv))
out["loaded"] = [m for m in json.loads(sys.argv[2]) if m in sys.modules]
print(json.dumps(out))
"""


def test_calls_import_only_what_their_subcommand_runs(tmp_path):
    """A bare `import latnaf` loads no submodule, yet reaches one by
    attribute; `expand`, `info` and `digit-set` load neither the NADS
    nor the optimality module, nor dataclasses."""
    calls = []
    for name in ("q541", "m31"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SYMPY_FREE_INSTANCES[name]), encoding="utf-8")
        calls += [
            ["expand", "--instance", str(path), "--point", "17,-5"],
            ["info", "--instance", str(path)],
            ["digit-set", "--instance", str(path)],
        ]
    unwanted = ["latnaf.nadscheck", "latnaf.optimality", "dataclasses"]
    proc = subprocess.run(
        [sys.executable, "-c", _SURFACE_PROBE, json.dumps(calls), json.dumps(unwanted)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out == {"bare": [], "digitset": "latnaf.digitset", "codes": [0] * 6, "loaded": []}


# the names the package exports that are plain values, with their module
CONSTANTS = {
    "FAMILY_CUSTOM": "digitset",
    "FAMILY_INTERVAL": "digitset",
    "FAMILY_MINIMAL_NORM": "digitset",
    "CERT_MINIMAL_NORM": "nadscheck",
    "CERT_TILING": "nadscheck",
    "STATUS_CERTIFIED": "nadscheck",
    "STATUS_COUNTEREXAMPLE": "nadscheck",
    "STATUS_SEARCH": "nadscheck",
}


def test_lazy_namespace_resolves_every_export():
    """Each exported name is its defining module's object; dir() and a
    star import cover them all; an unknown name is an AttributeError."""
    assert len(latnaf.__all__) == 49
    for name in latnaf.__all__:
        obj = getattr(latnaf, name)
        home = CONSTANTS.get(name)
        module = f"latnaf.{home}" if home else obj.__module__
        assert module.startswith("latnaf.")
        assert getattr(importlib.import_module(module), name) is obj, name
    assert set(latnaf.__all__) <= set(dir(latnaf))
    ns = {}
    exec("from latnaf import *", ns)
    assert set(ns) - {"__builtins__"} == set(latnaf.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        latnaf.no_such_name


def test_lazy_namespace_hands_out_the_current_binding(monkeypatch):
    """The package reads the defining module on every access, so a name
    rebound there (by a tracer or a test) is what the package returns."""
    def wrapped(*args):
        return args

    monkeypatch.setattr(expansion, "expand", wrapped)
    assert latnaf.expand is wrapped
    monkeypatch.undo()
    assert latnaf.expand is expansion.expand is not wrapped


BENCH = PKG.parents[1] / "perfbench"

_TRACER_PROBE = r"""
import importlib, json, sys
sys.path[:0] = sys.argv[1:3]
import tracer, worker
import latnaf
from latnaf import digitset, exactreal
tr = tracer.install()
out = {"modules": list(tracer.MODULES)}
out["traced"] = {
    m: sorted(k for k, v in vars(importlib.import_module("latnaf." + m)).items()
              if getattr(v, "__traced__", False))
    for m in tracer.MODULES
}
inst = digitset.DigitSet.__dict__["inst"]
out["inst"] = isinstance(inst, property) and getattr(inst.fget, "__traced__", False)
out["creal"] = [getattr(exactreal.CReal, a).__traced__ for a in ("compare", "interval")]
sq = exactreal.QuadExt.__dict__["sqrt_rational"]
out["sqrt_rational"] = isinstance(sq, classmethod) and sq.__func__.__traced__
texts = {"decide": worker._verdict_text, "check_hypotheses": worker._cert_text,
         "verify_empirically": worker._report_text, "min_weight_oracle": str}
out["calls"] = []
for base, p in ((("minpoly", (2, -1, 1)), (5, 3)), (("matrix", ((3, 1), (-1, 3))), (4, -7))):
    ds = latnaf.build_minimal_norm(worker._source(latnaf, base), 2)
    out["calls"].append(len(latnaf.expand(ds, p).word))
    for fn, arg in (("decide", None), ("check_hypotheses", None),
                    ("verify_empirically", 3), ("min_weight_oracle", p)):
        args = (ds,) if arg is None else (ds, arg)
        out["calls"].append(texts[fn](getattr(latnaf, fn)(*args)))
names = set()
stack = [tr.root]
while stack:
    node = stack.pop()
    names.add(node.name)
    stack.extend(node.children.values())
out["nodes"] = sorted(names)
out["hooks"] = sorted(tracer.HOOKS)
print(json.dumps(out))
"""

# module-level functions the per-layer metrics of perfbench/layers.py read
TRACED = [
    "cli.main",
    "digitset.build_minimal_norm",
    "digitset.geometry",
    "expansion.digit_of",
    "expansion.expand",
    "expansion.step",
    "intmat.mat_vec",
    "lattice.residue_key",
    "lattice.solve_divisibility",
    "nadscheck.certify",
    "nadscheck.search",
    "numberfield.build",
    "numberfield.gram_enclosure",
    "optimality.min_weight_oracle",
    "optimality.verify_empirically",
    "quadform.enumerate_ball",
]


def test_benchmark_hooks_still_bind():
    """The tracer's install() patches the ten modules, DigitSet.inst as a
    property, CReal.compare and CReal.interval, QuadExt.sqrt_rational as
    a classmethod and every function a per-layer metric reads; the worker
    builds field bases without a cap and matrix bases from rows, and runs
    expand and its four sweep entry points through the tracer's wrappers.
    A refactor that renames any of these fails here, not in a benchmark
    run."""
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, str(BENCH), str(PKG.parent)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["modules"] == [
        "intmat", "lattice", "exactreal", "quadform", "numberfield",
        "digitset", "expansion", "nadscheck", "optimality", "cli",
    ]
    assert all(out["traced"].values()), out["traced"]
    for name in TRACED:
        mod, fn = name.split(".")
        assert fn in out["traced"][mod], name
    assert out["inst"] and out["creal"] == [True, True] and out["sqrt_rational"]
    assert len(out["calls"]) == 10 and all(out["calls"])
    nodes = set(out["nodes"])
    assert set(out["hooks"]) <= nodes
    assert {"digitset.DigitSet.inst", "exactreal.CReal.compare", "numberfield.build"} <= nodes
