"""Every module-level function and class in `src/mgumt/` is named somewhere
other than its own definition: in `src/`, `tests/`, `scripts/` or
`perfbench/`.

A name counts where code reads it, imports it, or spells it in a string
(`monkeypatch.setattr` and the benchmark's tracer name their targets so);
a docstring or a comment does not keep a definition alive."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src/mgumt").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST) -> set[str]:
    """The names node's code reads, imports or spells in a string that is
    not a docstring."""
    docstrings = {id(n.body[0].value) for n in ast.walk(node)
                  if isinstance(n, (ast.Module, *DEFINITIONS)) and n.body
                  and isinstance(n.body[0], ast.Expr)
                  and isinstance(n.body[0].value, ast.Constant)}
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings):
            names.update(re.findall(r"\w+", n.value))
    return names


def dead_definitions(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module.name` for each top-level definition in modules (path ->
    source) that no top-level statement of readers names, its own
    definition apart."""
    named = set()
    for path, source in readers.items():
        for stmt in ast.parse(source).body:
            names = names_in(stmt)
            if path in modules and isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            named |= names
    return [f"{Path(path).stem}.{stmt.name}"
            for path, source in modules.items()
            for stmt in ast.parse(source).body
            if isinstance(stmt, DEFINITIONS) and stmt.name not in named]


def test_no_dead_definitions():
    def read(paths):
        return {str(p): p.read_text(encoding="utf-8") for p in paths}

    assert dead_definitions(read(MODULES), read(READERS)) == []


def test_check_sees_a_dead_definition():
    module = ('def used():\n    """Not `dead`."""\n    return used()\n\n'
              "def dead():  # used\n    return 1\n\n"
              "def called():\n    return 2\n\n"
              "class Patched:\n    pass\n")
    reader = ("from m import called\n"
              "called()\n"
              "setattr(object(), 'm.Patched', None)\n")
    assert dead_definitions({"m.py": module},
                            {"m.py": module, "r.py": reader}) == ["m.used", "m.dead"]
