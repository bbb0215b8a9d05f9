"""Dead-code checks over the package source, using only the `ast` module.

Every function, class and method defined in `src/cantorg/` must be
referenced somewhere in `src/`, `tests/` or `bench/`: by name, as an
attribute, or inside a string literal (so the dotted names that the
benchmark's tracer rebinds count).  Dunder methods are exempt.  Every
module of the package must also use each name it imports, and every
dotted name the tracer rebinds must resolve in the package.  The library
keeps what `src/` or `bench/` reaches outside docstrings (a method as an
attribute or in a string, not by a bare name), and the paper constructs in
`STATEMENTS`; verifiers live in `tests/verifiers.py`.
"""

import ast
import collections
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantorg"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree, docstrings=True, names=True):
    """The names a tree reads: bare names unless `names` is false, then
    attributes and the identifiers inside string literals."""
    skip = set() if docstrings else {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module,) + _DEFINITIONS)
        and ast.get_docstring(node) is not None
    }
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            if names:
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


def test_tracer_names_resolve():
    """`LAYERS` of `bench/tracer.py`, read without importing it, names
    (layer, module.function or module.Class.method, keep spans) triples;
    a rename in the package would break `bench/run.py --trace 1`."""
    tree = _parse(ROOT / "bench" / "tracer.py")
    layers = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["LAYERS"]
    )
    names = [qual for _, qual, _ in ast.literal_eval(layers)]
    assert len(names) > 20
    missing = []
    for qual in names:
        module, *attrs = qual.split(".")
        obj = importlib.import_module("cantorg." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(qual)
    assert missing == []


# Paper constructs (Lodha, arXiv 1408.3127) that only tests reach, by the
# statement each computes
STATEMENTS = {
    "complexes.balanced_parametrizations": "two balanced parametrizations",
    "complexes.Cluster.reparametrized": "spanned from each corner",
    "complexes.a_delta": "the edges of a cluster by A_Delta",
    "complexes.subcluster_type": "face, diagonal or diagonal of a face",
    "complexes.cluster_orbit_invariant": "orbits of clusters (criterion 9)",
    "complexes.CellComplexPiece.euler_characteristic": "fillings are cubes",
    "complexes.CellComplexPiece.faces_of": "the face poset of a filling",
    "complexes.CellComplexPiece.vertex_subset": "0-cells are corners",
    "pipeline.null_intersect": "the nullset condition",
    "pipeline.expand_cell": "the expansion of a one-cell",
    "pipeline.op_expand_cell": "the expansion at the cell's far end",
    "special.act_f": "F acting on special forms",
    "special.contract_at": "the contraction of special forms",
    "special.find_carrier": "four orbit classes (criterion 7)",
    "rewrite.invert_normal": "inverse normal forms (criterion 5)",
    "rewrite.normalize_product": "the normal form of a product",
}


def _definitions(node, prefix):
    """(dotted name, node, whether it is a method) of every definition."""
    for child in ast.iter_child_nodes(node):
        qual = prefix
        if isinstance(child, _DEFINITIONS):
            qual = f"{prefix}.{child.name}"
            yield qual, child, (isinstance(node, ast.ClassDef)
                                and not isinstance(child, ast.ClassDef))
        yield from _definitions(child, qual)


def test_library_definitions_are_reached():
    """A method is reached only as an attribute or in a string, so that a
    bare name elsewhere (a function or a local of the same name) does not
    keep it; a function, nested or not, and a class are reached by name
    too."""
    reached = {True: collections.Counter(), False: collections.Counter()}
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = _parse(path)
            reached[False].update(_references(tree, docstrings=False))
            reached[True].update(
                _references(tree, docstrings=False, names=False))
    defined, unreached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, node, method in _definitions(_parse(path), path.stem):
            defined.add(qual)
            own = list(_references(node, docstrings=False, names=not method)
                       ).count(node.name)
            if not _is_dunder(node.name) and reached[method][node.name] <= own:
                unreached.add(qual)
    assert sorted(unreached - STATEMENTS.keys()) == []
    assert sorted(STATEMENTS.keys() - defined) == []
