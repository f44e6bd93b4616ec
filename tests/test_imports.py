"""Every name a module imports at top level is used in that module.

No linter ships with the project, so this walks each module's syntax tree
instead.  A re-export in a package's `__init__.py`, a `from __future__`
import and an import statement marked `noqa: F401` are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/mgumt", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module's top-level imports bind and nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                unused.append(f"line {stmt.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from pathlib import Path as P  # noqa: F401\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["line 2: os"]
