"""Guard for the one rung-switch primitive: every choice between a
small-input plan and a distributed plan goes through ``joins.ladder``,
and no library function takes a per-call cap parameter or a
``method=``/``strategy=`` string to pick its rung (tests force rungs
with ``joins.forced_rung`` instead). Parses the library with ``ast``;
``queries.py`` (the query catalog) is excluded. A comparison whose
``if`` body only raises is a size limit, not a rung switch."""

import ast
import pathlib

LIB = pathlib.Path(__file__).resolve().parent.parent / "ophois_ray"

#: per-call rung caps the library no longer takes
REMOVED_PARAMS = {"broadcast_cap", "local_cap", "driver_pair_cap",
                  "driver_verify_cap", "single_task_cap", "local_cap_bytes",
                  "task_cap", "method", "strategy"}

#: library names that are gone with the driver union-find labeler
REMOVED_DEFS = {"connected_components_local", "_UnionFind", "DEFAULT_LOCAL_CAP"}

#: functions whose rung switch is a ladder call (directly, or through
#: the graphops node-state ladder pair)
LADDERED = {
    "components": ["connected_components_auto",
                   "remove_degree_two_nodes_distributed", "largest_component",
                   "contract_components"],
    "dedup": ["exact_dedup_filter", "ngram_jaccard_pairs", "pairs_to_groups",
              "minhash_near_dup_groups"],
    "graphops": ["attach_coords", "triangle_count", "triangles_per_node", "kcore_peel",
                 "bfs_depths", "random_walks", "pagerank_int", "sssp_rounds",
                 "hits_int", "degree_assortativity_stats"],
    "joins": ["distinct_rows"],
    "pages": ["resolve_redirects"],
    "pipelines": ["build_graph_auto"],
    "polygons": ["cell_regions"],
    "spatial": ["compact_cells"],
    "textstats": ["collocations"],
}
LADDER_CALLS = {"ladder", "_node_state_ladders", "_labelled"}
_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _modules(lib):
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(lib.glob("*.py")) if p.name != "queries.py"}


def _ladder_caps(trees):
    """Names passed as the cap (third argument) of a ladder call."""
    caps = {"DEFAULT_BROADCAST_CAP"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _name(node.func) == "ladder"
                    and len(node.args) >= 3 and _name(node.args[2])):
                caps.add(_name(node.args[2]))
    return caps


def _is_count(node):
    return (isinstance(node, ast.Call) and _name(node.func) == "count"
            and isinstance(node.func, ast.Attribute) and not node.args)


def _raise_only_tests(tree):
    """ids of the tests of ``if`` statements whose body only raises."""
    return {id(n.test) for n in ast.walk(tree) if isinstance(n, ast.If)
            and all(isinstance(b, ast.Raise) for b in n.body) and not n.orelse}


def violations(lib=LIB):
    """Every hand-rolled rung switch, removed parameter or removed name
    in ``lib``."""
    trees = _modules(lib)
    caps = _ladder_caps(trees) | REMOVED_PARAMS
    laddered = {(m, f) for m, fs in LADDERED.items() for f in fs}
    out = []
    for mod, tree in trees.items():
        skip = _raise_only_tests(tree)
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = {_name(t) for t in targets}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            for gone in names & REMOVED_DEFS:
                out.append(f"{mod}: defines {gone}")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in REMOVED_PARAMS or (
                        arg.arg == "cap" and (mod, node.name) in laddered):
                    out.append(f"{mod}.{node.name}: parameter {arg.arg}")
            if mod == "joins" and node.name == "ladder":
                skip |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (not isinstance(node, ast.Compare) or id(node) in skip
                    or not any(isinstance(op, _ORDER) for op in node.ops)):
                continue
            sides = [node.left] + node.comparators
            against_literal = any(isinstance(s, ast.Constant) for s in sides)
            if (any(_is_count(s) for s in sides) and not against_literal) or any(
                    _name(s) in caps for s in sides):
                out.append(f"{mod}:{node.lineno}: {ast.unparse(node)}")
    for mod, funcs in LADDERED.items():
        defs = {n.name: n for n in ast.walk(trees[mod])
                if isinstance(n, ast.FunctionDef)}
        for f in funcs:
            calls = {_name(n.func) for n in ast.walk(defs[f])
                     if isinstance(n, ast.Call)} if f in defs else set()
            if not calls & LADDER_CALLS:
                out.append(f"{mod}.{f}: no ladder call")
    return out


def test_rung_switches_go_through_ladder():
    assert violations() == []
