"""Every name a library module imports is used in that module, every
module-level function and class of the library is exported or used, and no
library module uses an ``assert`` statement."""

import ast
from pathlib import Path

import pytest

import latwidth

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "latwidth"
MODULES = sorted(path for path in LIBRARY.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == [
        "lcm (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(sources: dict[str, str], exported) -> list[str]:
    """Module-level functions and classes that are not exported and that no
    source names, reads as an attribute or imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name for alias in node.names)
    return sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and node.name not in referenced
    )


def test_scan_flags_a_dead_definition():
    sources = {
        "a": "def public(): pass\ndef _imported(): pass\ndef _read(): pass\n"
        "def _dead(): pass\nclass Gone: pass\n",
        "b": "from a import _imported\nimport a\na._read\n",
    }
    assert dead_definitions(sources, exported={"public"}) == ["a: Gone", "a: _dead"]


def test_no_dead_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in LIBRARY.glob("*.py")}
    assert dead_definitions(sources, set(latwidth.__all__)) == []


def assert_statements(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements: ``python -O`` strips them,
    so a library invariant must raise instead."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_scan_flags_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'negative'\n    return x\n"
    assert assert_statements(source) == [3]
    assert assert_statements("def assert_ok(x):\n    raise ValueError(x)\n") == []


@pytest.mark.parametrize("path", sorted(LIBRARY.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []
