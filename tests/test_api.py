"""The package root exports only what the program, a demo or the README uses,
and every name the traced benchmark hooks still exists."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import hpcwatch

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hpcwatch"


def names_used(path: Path) -> set[str]:
    """Every name a Python file imports, reads or takes as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_root_export_has_a_user_outside_its_module():
    # where each exported name comes from, as the package root imports it
    source = {
        alias.name: node.module
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = {
        path.stem: names_used(path) for path in PACKAGE.glob("*.py") if path.stem != "__init__"
    }
    demos = set().union(*(names_used(path) for path in (ROOT / "demos").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        name for name in hpcwatch.__all__
        if not any(name in used for stem, used in modules.items() if stem != source[name])
        and name not in demos
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not unused, f"exported, but used only by tests or their own module: {unused}"


def test_every_benchmark_hook_target_is_callable(monkeypatch):
    # the traced benchmark wraps these names; a refactor that drops one
    # passes the package's tests and breaks only the benchmark's own
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}" for _, module, attr, _ in tracing.HOOKS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracing.py hooks names that are gone: {missing}"
