"""Module layout: no module of the package reaches into a sibling's
private names, whether by import or by attribute access."""

import ast
from pathlib import Path

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
