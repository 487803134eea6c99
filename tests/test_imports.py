"""Every name a package module, test module or script imports is read
somewhere in that file.

A stdlib stand-in for a linter's unused-import rule.  The package's
``__init__.py`` is left out because its imports are the package's re-exports;
``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqzmzi"
# package modules by file name, test modules and scripts by their path from the
# repository root
SOURCES = {p.name: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
SOURCES.update(
    (str(p.relative_to(ROOT)), p) for d in ("tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in _imported(tree).items() if name not in read]


@pytest.mark.parametrize("source", SOURCES)
def test_every_import_is_read(source):
    assert unused_imports(SOURCES[source].read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .model import Phase, Strategy as S\n"
        "def f(x: Phase) -> float:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: S"]
