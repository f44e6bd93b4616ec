"""Every module-level function and class in `src/mgumt/`, and every method
and property of those classes but the dunders, is named somewhere other
than its own definition: in `src/`, `tests/`, `scripts/` or `perfbench/`.

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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


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


def named_by(stmt: ast.stmt, own: bool) -> set[str]:
    """The names stmt names; with own, not a definition's own name within
    that definition, nor a method's within that method."""
    if not (own and isinstance(stmt, DEFINITIONS)):
        return names_in(stmt)
    if isinstance(stmt, ast.ClassDef):
        body = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
        parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
        names = set().union(*map(names_in, parts),
                            *(named_by(s, True) for s in body))
    else:
        names = names_in(stmt)
    return names - {stmt.name}


def definitions(tree: ast.Module):
    """(qualified name, name) of each top-level definition and of each
    method or property of a top-level class but the dunders."""
    for stmt in tree.body:
        if isinstance(stmt, DEFINITIONS):
            yield stmt.name, stmt.name
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if (isinstance(member, FUNCTIONS)
                        and not member.name.startswith("__")):
                    yield f"{stmt.name}.{member.name}", member.name


def dead_definitions(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module.name` for each definition in modules (path -> source) that
    no top-level statement of readers names, its own definition apart."""
    named = set()
    for path, source in readers.items():
        for stmt in ast.parse(source).body:
            named |= named_by(stmt, path in modules)
    return [f"{Path(path).stem}.{qualified}"
            for path, source in modules.items()
            for qualified, name in definitions(ast.parse(source))
            if name not in named]


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


def test_check_sees_a_dead_method():
    module = ("class Box:\n"
              '    """Not `hidden`."""\n'
              "    def __init__(self):\n        self.kept = self.used()\n\n"
              "    def used(self):\n        return 1\n\n"
              "    def dead(self):\n        return self.dead()\n\n"
              "    @property\n    def shown(self):\n        return 2\n\n"
              "    @property\n    def hidden(self):  # hidden\n        return 3\n")
    reader = "from m import Box\nBox().shown\n"
    assert dead_definitions({"m.py": module},
                            {"m.py": module, "r.py": reader}) == [
        "m.Box.dead", "m.Box.hidden"]
