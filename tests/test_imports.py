"""Every name a package module, test module or script imports is read
somewhere in that file, and every name a package module defines is named
somewhere else in the package, the tests or the scripts.

Stdlib stand-ins for a linter's unused-import rule and a dead-code finder.
The package's ``__init__.py`` is left out of the import scan because its
imports are the package's re-exports; ``from __future__`` imports are
directives, not names.
"""

import ast
import re
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
# the text every package-level name must appear in once more than it is defined
CORPUS = "\n".join(p.read_text() for p in [PACKAGE / "__init__.py", *SOURCES.values()])


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


def _registered(decorator: ast.expr) -> bool:
    """Whether ``decorator`` registers its function elsewhere, as click's
    ``@group.command(...)`` registers a subcommand that no code names."""
    return (
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr == "command"
    )


def _defined(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every module-level function, class and constant, less
    dunders and the functions a decorator registers."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(map(_registered, node.decorator_list)):
                names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {n: line for n, line in names.items() if not (n.startswith("__") and n.endswith("__"))}


def dead_names(source: str, corpus: str) -> list[str]:
    """The names ``source`` defines that ``corpus``, which holds ``source``,
    names only once: at their definition."""
    return [
        f"line {line}: {name}"
        for name, line in _defined(ast.parse(source)).items()
        if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) < 2
    ]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_defined_name_is_used(module):
    assert dead_names(module.read_text(), CORPUS) == []


def test_scan_flags_a_dead_name():
    source = (
        "import click\n"
        "LIMIT: int = 3\n"
        "_UNUSED, PAIR = 1, 2\n"
        "def _helper():\n"
        "    return LIMIT\n"
        "def _orphan():\n"
        "    return _helper()\n"
        "class Spare:\n"
        "    pass\n"
        "@main.command(name='run')\n"
        "def run_cmd():\n"
        "    pass\n"
        "__version__ = '0'\n"
    )
    corpus = source + "print(PAIR)\n"
    assert dead_names(source, corpus) == ["line 3: _UNUSED", "line 6: _orphan", "line 8: Spare"]
