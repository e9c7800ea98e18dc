"""Guard for the one cell-key gather primitive: a ragged enumeration is
``cells.ragged_arange`` and a per-key pair enumeration is one
``cells.KeyIndex.pairs`` gather. Fails on a hand-rolled
``arange(...) - repeat(cumsum(n) - n, n)`` outside ``ragged_arange``, on
a Python loop over ``groupby`` in the cell-join kernels, and on a cell
pair join that builds its own key -> rows index instead of a
``KeyIndex``. Parses the library with ``ast``; ``queries.py`` (the
query catalog) is excluded."""

import ast
import pathlib

LIB = pathlib.Path(__file__).resolve().parent.parent / "ophois_ray"

#: (module, top-level class or function) that must gather through
#: ``cells.KeyIndex`` and build no index of their own
KEY_INDEX_USERS = [("spatial", "_EdgeCSR"), ("polygons", "PolygonIndex"),
                   ("polygons", "segment_crossings")]
#: the scope in which no ``for ... in ....groupby(...)`` loop may appear:
#: a whole module (None) or one top-level function
NO_GROUPBY_LOOP = [("cells", None), ("spatial", None),
                   ("polygons", "segment_crossings")]


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(node, name):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and _name(n.func) == name]


def _modules(lib):
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(lib.glob("*.py")) if p.name != "queries.py"}


def _top(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def _is_ragged_arange(node):
    """``arange(...) - repeat(<... cumsum ...>, ...)``"""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Call) and _name(node.left.func) == "arange"
            and isinstance(node.right, ast.Call) and _name(node.right.func) == "repeat"
            and bool(node.right.args) and bool(_calls(node.right.args[0], "cumsum")))


def _groupby_loops(node):
    loops = [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.comprehension))]
    return [n for n in loops if _calls(n.iter, "groupby")]


def violations(lib=LIB):
    """Every hand-rolled ragged enumeration, per-key groupby loop and
    private key -> rows index in ``lib``."""
    trees = _modules(lib)
    out = []
    allowed = _top(trees["cells"], "ragged_arange")
    skip = {id(n) for n in ast.walk(allowed)} if allowed else set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if _is_ragged_arange(node) and id(node) not in skip:
                out.append(f"{mod}:{node.lineno}: hand-rolled ragged arange")
    for mod, scope in NO_GROUPBY_LOOP:
        root = trees[mod] if scope is None else _top(trees[mod], scope)
        for loop in _groupby_loops(root) if root else []:
            out.append(f"{mod}:{loop.iter.lineno}: loop over groupby")
    for mod, name in KEY_INDEX_USERS:
        node = _top(trees[mod], name)
        if node is None:
            out.append(f"{mod}.{name}: missing")
            continue
        if not any(_name(n) == "KeyIndex" for n in ast.walk(node)):
            out.append(f"{mod}.{name}: no cells.KeyIndex")
        if _calls(node, "searchsorted") or any(
                kw.arg == "return_index" for c in _calls(node, "unique")
                for kw in c.keywords):
            out.append(f"{mod}.{name}: builds its own key -> rows index")
    return out


def test_cell_pair_joins_gather_through_key_index():
    assert violations() == []
