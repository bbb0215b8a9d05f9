"""Dead-code checks over the package source, using only the `ast` module.

Every function, class and method defined in `src/cantorg/` must be
referenced somewhere in `src/`, `tests/` or `bench/`: by name, as an
attribute, or inside a string literal (so the dotted names that the
benchmark's tracer rebinds count).  Dunder methods are exempt.  Every
module of the package must also use each name it imports.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantorg"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _IDENTIFIER.findall(node.value)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced():
    referenced = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            referenced.update(_references(_parse(path)))
    unreferenced = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, _DEFINITIONS)
        and not _is_dunder(node.name)
        and node.name not in referenced
    )
    assert unreferenced == []


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []
