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


# Regular-expression syntax that ``re`` reads only from Python 3.11 on.
NEWER_REGEX_SYNTAX = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def regex_opcodes(pattern: str) -> set[str]:
    """The names of the opcodes ``re`` parses a pattern into."""
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")

    def walk(node):
        if isinstance(node, parser.SubPattern):
            node = node.data
        if isinstance(node, (list, tuple)):
            for item in node:
                yield from walk(item)
        elif isinstance(node, int) and type(node) is not int:  # a named opcode
            yield str(node)

    return set(walk(parser.parse(pattern)))


def test_no_regex_needs_a_newer_python_than_the_package_declares():
    # pyproject.toml declares Python 3.10, where a possessive quantifier or
    # an atomic group fails to compile, and the module holding it to import
    declared = re.search(r'requires-python = ">=3\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert declared and int(declared[1]) < 11, "3.11 syntax is allowed now; drop this test"
    if sys.version_info >= (3, 11):
        assert NEWER_REGEX_SYNTAX <= regex_opcodes(r"(?:a)*+(?>b)")  # the check sees them
    calls = {"compile", "search", "match", "fullmatch", "findall", "finditer", "split", "sub",
             "subn"}
    found = []
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in calls and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "re" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                found.append((path.name, node.lineno, node.args[0].value))
    assert any(name == "trace.py" for name, _, _ in found)  # the block parser's own
    newer = [(name, line) for name, line, pattern in found
             if regex_opcodes(pattern) & NEWER_REGEX_SYNTAX]
    assert not newer, f"regexes that need Python 3.11: {newer}"
