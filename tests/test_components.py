"""Distributed components / simplify / discretize vs reference goldens
and the sequential oracle."""

import numpy as np
import pandas as pd
import pytest

from ophois_ray import components, discretize, graphio, graphops
from ophois_ray.joins import forced_rung, ladder_log
from ophois_ray.oracle import OracleGraph
from tests.conftest import load_fixture_text

pytestmark = pytest.mark.usefixtures("ray_session")


def tables_from(name: str):
    return tables_from_text(load_fixture_text(name))


def tables_from_text(text: str):
    nodes, edges = graphio.graph_from_text(text)
    return (
        graphops.dedup_nodes(nodes).materialize(),
        graphops.dedup_edges(edges).materialize(),
    )


def graph_counts(nodes, edges):
    return nodes.count(), edges.count()


def degrees_from_tables(nodes, edges) -> dict:
    deg = {r["id"]: int(r["degree"]) for r in graphops.node_degrees(edges).iter_rows()}
    for r in nodes.select_columns(["id"]).iter_rows():
        deg.setdefault(r["id"], 0)
    return deg


def test_largest_component_local():  # heuristics.rs:174-204
    nodes, edges = tables_from("test_bfs.graph")
    oracle = OracleGraph.from_text(load_fixture_text("test_bfs.graph")).bfs_largest_component()
    for rung in ("small", "large"):
        with forced_rung(rung, "components.largest_component"):
            n2, e2 = components.largest_component(nodes, edges)
        assert graph_counts(n2, e2) == (18, 20), rung
        assert degrees_from_tables(n2.materialize(), e2.materialize()) == {
            n: oracle.degree(n) for n in oracle.coords
        }, rung


def test_labelprop_matches_local_small():
    # small-diameter graph: labelprop converges in a few rounds (each
    # round is a distributed join+groupby — diameter-bound, so the test
    # graph is chosen for depth, not size)
    text = "\n".join(
        [
            "a␟48.0␟2.0", "b␟48.1␟2.0", "c␟48.2␟2.0", "d␟48.3␟2.0",
            "e␟50.0␟3.0", "f␟50.1␟3.0",
            "a␟b", "b␟c", "a␟c", "c␟d", "e␟f",
        ]
    )
    nodes, edges = graphio.graph_from_text(text)
    nodes = graphops.dedup_nodes(nodes).materialize()
    edges = graphops.dedup_edges(edges).materialize()
    labels = components.connected_components_labelprop(nodes, edges, num_buckets=4)
    got = {r["id"]: r["comp"] for r in labels.iter_rows()}
    local = components.connected_components_broadcast(nodes, edges)
    assert got == {r["id"]: r["comp"] for r in local.iter_rows()}
    with forced_rung("large", "components.largest_component"):
        n2, e2 = components.largest_component(nodes, edges)
    assert graph_counts(n2, e2) == (4, 4)


def test_contract_components_matches_oracle_chain():
    # cailles: H3 alone gives 14/17 (heuristics.rs:228), then the full
    # chain at delta=10 runs H4 (-> 9/12) and H6. Compare the distributed
    # contraction to the oracle running the same chain.
    nodes, edges = tables_from("cailles.graph")
    n2, e2 = components.contract_components(nodes, edges, 10.0)
    oracle = OracleGraph.from_text(load_fixture_text("cailles.graph"))
    oracle.remove_degree_two_nodes()
    oracle.remove_under_delta_nodes(10.0)
    oracle.remove_under_delta_links(10.0)
    assert graph_counts(n2, e2) == (oracle.n_nodes(), oracle.n_edges())
    assert degrees_from_tables(n2.materialize(), e2.materialize()) == {
        n: oracle.degree(n) for n in oracle.coords
    }


def test_simplify_full_composition():
    # full reference simplify (main.rs:66-74) on the bfs fixture
    nodes, edges = tables_from("test_bfs.graph")
    n2, e2 = components.simplify(nodes, edges, 10.0)
    oracle = OracleGraph.from_text(load_fixture_text("test_bfs.graph")).simplify(10.0)
    assert graph_counts(n2, e2) == (oracle.n_nodes(), oracle.n_edges())
    assert degrees_from_tables(n2.materialize(), e2.materialize()) == {
        n: oracle.degree(n) for n in oracle.coords
    }


def test_contract_parallel_components_independent():
    # two disjoint triangles with a pendant chain each: contraction must
    # not leak across components
    text = "\n".join(
        [
            "a␟48.0␟2.0", "b␟48.0001␟2.0", "c␟48.0␟2.0001", "d␟48.001␟2.001",
            "e␟50.0␟3.0", "f␟50.0001␟3.0", "g␟50.0␟3.0001", "h␟50.001␟3.001",
            "a␟b", "b␟c", "a␟c", "c␟d",
            "e␟f", "f␟g", "e␟g", "g␟h",
        ]
    )
    nodes, edges = graphio.graph_from_text(text)
    nodes = graphops.dedup_nodes(nodes).materialize()
    edges = graphops.dedup_edges(edges).materialize()
    n2, e2 = components.contract_components(nodes, edges, 0.5)
    oracle = OracleGraph.from_text(text)
    oracle.remove_degree_two_nodes()
    oracle.remove_under_delta_nodes(0.5)
    oracle.remove_under_delta_links(0.5)
    assert graph_counts(n2, e2) == (oracle.n_nodes(), oracle.n_edges())


H3_TOPOLOGY = "\n".join(
    # every shape the one-snapshot degree-2 pass must handle:
    #   j1-c1-c2-c3-c4-j2   long chain  -> contracts to j1-j2 (dups existing)
    #   j1-j2               direct edge -> survives
    #   j1-p1-j2            parallel chain -> duplicate j1-j2, dropped
    #   j1-L1-L2-j1         loop on one junction -> vanishes, no self-edge
    #   r1-r2-r3-r4-r1      pure degree-2 cycle -> vanishes entirely
    #   x1, x2              leaves off j1 (degree 1, untouched)
    [
        "j1␟48.0␟2.0", "j2␟48.01␟2.0",
        "c1␟48.001␟2.0", "c2␟48.002␟2.0", "c3␟48.003␟2.0", "c4␟48.004␟2.0",
        "p1␟48.005␟2.001",
        "L1␟48.0␟2.001", "L2␟48.0␟2.002",
        "r1␟49.0␟3.0", "r2␟49.001␟3.0", "r3␟49.001␟3.001", "r4␟49.0␟3.001",
        "x1␟48.0␟1.999", "x2␟48.0␟1.998",
        "j1␟c1", "c1␟c2", "c2␟c3", "c3␟c4", "c4␟j2",
        "j1␟j2", "j1␟p1", "p1␟j2",
        "j1␟L1", "L1␟L2", "L2␟j1",
        "r1␟r2", "r2␟r3", "r3␟r4", "r4␟r1",
        "j1␟x1", "j1␟x2",
    ]
)


def _graph_sets(nodes, edges):
    ids = sorted(r["id"] for r in nodes.select_columns(["id"]).iter_rows())
    es = sorted((r["u"], r["v"]) for r in edges.select_columns(["u", "v"]).iter_rows())
    return ids, es


def test_distributed_h3_matches_oracle_topology():
    nodes, edges = graphio.graph_from_text(H3_TOPOLOGY)
    nodes = graphops.dedup_nodes(nodes).materialize()
    edges = graphops.dedup_edges(edges).materialize()
    # the large rung is the pure pointer-doubling dataflow (no driver
    # chain walk anywhere)
    with forced_rung("large"):
        n2, e2 = components.remove_degree_two_nodes_distributed(
            nodes, edges, num_buckets=4, max_rounds=10
        )
    oracle = OracleGraph.from_text(H3_TOPOLOGY)
    oracle.remove_degree_two_nodes()
    ids, es = _graph_sets(n2, e2)
    assert ids == sorted(oracle.coords)
    assert es == oracle.undirected_edges()
    assert ids == ["j1", "j2", "x1", "x2"]
    assert es == [("j1", "j2"), ("j1", "x1"), ("j1", "x2")]


def test_distributed_h3_reversed_survivor_dedup():
    """A contracted chain edge duplicating a REVERSED surviving edge must
    be dropped (reference contains_link checks both orientations): node 2
    is degree-2 between 1 and 3, the direct edge is stored as (3, 1).
    Regression: the distributed dedup bucketed on raw (u, v) so the
    reversed pair slipped the guard. Both rungs, plus a hot hub (six
    degree-2 spokes end on one node) and an empty graph."""
    import pyarrow as pa
    import ray

    def graph(u, v):
        # via Arrow: a 0-row from_pandas Dataset drops its columns
        ids = sorted(set(u) | set(v))
        s = pa.string()
        return (ray.data.from_arrow(pa.table({
                    "id": pa.array(ids, s), "lat_str": pa.array(["48.0"] * len(ids), s),
                    "lon_str": pa.array([f"2.00{i}" for i in range(len(ids))], s)})),
                ray.data.from_arrow(pa.table({"u": pa.array(u, s), "v": pa.array(v, s)})))

    spokes = [f"a{i}" for i in range(6)]
    tips = [f"b{i}" for i in range(6)]
    cases = [
        (graph(["1", "2", "3", "1", "3"], ["2", "3", "1", "4", "5"]),
         ["1", "3", "4", "5"], [("1", "3"), ("1", "4"), ("3", "5")]),
        (graph(["h"] * 6 + spokes, spokes + tips),
         sorted(["h"] + tips), [(t, "h") for t in tips]),
        (graph([], []), [], []),
    ]
    for rung in ("large", "small"):
        for (nodes, edges), want_ids, want_es in cases:
            with forced_rung(rung):
                n2, e2 = components.remove_degree_two_nodes_distributed(
                    nodes, edges, num_buckets=4
                )
            ids = sorted(r["id"] for r in n2.select_columns(["id"]).iter_rows())
            es = sorted(
                tuple(sorted((r["u"], r["v"])))
                for r in e2.select_columns(["u", "v"]).iter_rows()
            )
            assert ids == want_ids, rung
            assert es == want_es, rung


def test_distributed_h3_matches_oracle_fixtures():
    # cailles through the forced pointer-doubling path, test_bfs through
    # the hybrid driver-chain-walk fast path — both must match the oracle
    for name, rung in (("cailles.graph", "large"), ("test_bfs.graph", "small")):
        nodes, edges = tables_from(name)
        with forced_rung(rung):
            n2, e2 = components.remove_degree_two_nodes_distributed(
                nodes, edges, num_buckets=4
            )
        oracle = OracleGraph.from_text(load_fixture_text(name))
        oracle.remove_degree_two_nodes()
        ids, es = _graph_sets(n2, e2)
        assert ids == sorted(oracle.coords)
        assert es == oracle.undirected_edges()


def test_contract_labelprop_matches_oracle():
    # the fully distributed path (no driver union-find): distributed H3
    # + labelprop labels + per-component H4/H6 kernel
    nodes, edges = tables_from("cailles.graph")
    with forced_rung("large", "components.contract_components", "components.task_cap.h3"):
        n2, e2 = components.contract_components(nodes, edges, 10.0)
    oracle = OracleGraph.from_text(load_fixture_text("cailles.graph"))
    oracle.remove_degree_two_nodes()
    oracle.remove_under_delta_nodes(10.0)
    oracle.remove_under_delta_links(10.0)
    assert graph_counts(n2, e2) == (oracle.n_nodes(), oracle.n_edges())
    assert degrees_from_tables(n2.materialize(), e2.materialize()) == {
        n: oracle.degree(n) for n in oracle.coords
    }


def test_contract_task_cap_guard_forces_distributed_h3(monkeypatch):
    # a component above DEFAULT_TASK_CAP triggers the distributed-H3
    # rung; the result must be identical to the oracle chain
    nodes, edges = tables_from("cailles.graph")
    # cailles is 26 nodes pre-H3 and 14 post-H3: cap 20 trips the guard
    # on entry and is satisfied after the distributed contraction
    monkeypatch.setattr(components, "DEFAULT_TASK_CAP", 20)
    n2, e2 = components.contract_components(nodes, edges, 10.0)
    rungs = {r["name"]: (r["size"], r["rung"]) for r in ladder_log()}
    assert rungs["components.task_cap.h3"] == (26, "large")
    assert rungs["components.task_cap.units"] == (14, "small")
    oracle = OracleGraph.from_text(load_fixture_text("cailles.graph"))
    oracle.remove_degree_two_nodes()
    oracle.remove_under_delta_nodes(10.0)
    oracle.remove_under_delta_links(10.0)
    assert graph_counts(n2, e2) == (oracle.n_nodes(), oracle.n_edges())
    assert degrees_from_tables(n2.materialize(), e2.materialize()) == {
        n: oracle.degree(n) for n in oracle.coords
    }


def _oracle_from_tables(nodes, edges) -> OracleGraph:
    g = OracleGraph()
    for r in nodes.select_columns(["id", "lat_str", "lon_str"]).iter_rows():
        g.insert_node(r["id"], r["lat_str"], r["lon_str"])
    for r in edges.select_columns(["u", "v"]).iter_rows():
        g.insert_edge(r["u"], r["v"])
    return g


def _graph_state(nodes, edges):
    ids = {r["id"]: (r["lat_str"], r["lon_str"])
           for r in nodes.select_columns(["id", "lat_str", "lon_str"]).iter_rows()}
    es = sorted(
        tuple(sorted((r["u"], r["v"])))
        for r in edges.select_columns(["u", "v"]).iter_rows()
    )
    return ids, es


def test_contract_units_matches_oracle_fixture():
    """Delta-interaction-unit H4/H6 must bit-match the sequential oracle
    chain (ids, coords AND edges) on a real fixture, after both run the
    same H3."""
    for name, delta in (("cailles.graph", 10.0), ("test_bfs.graph", 10.0)):
        nodes, edges = tables_from(name)
        n1, e1 = components.remove_degree_two_nodes_distributed(nodes, edges)
        n2, e2 = components.contract_units(n1, e1, delta, num_buckets=4)
        oracle = OracleGraph.from_text(load_fixture_text(name))
        oracle.remove_degree_two_nodes()
        oracle.remove_under_delta_nodes(delta)
        oracle.remove_under_delta_links(delta)
        ids, es = _graph_state(n2, e2)
        assert ids == dict(oracle.coords), name
        assert es == oracle.undirected_edges(), name


def test_contract_units_random_parity():
    """Random geometric graphs across a delta sweep: several short-edge
    clusters, cross edges of every length class, merged-id chains."""
    rng = np.random.default_rng(149)
    n = 60
    lat = 48.0 + rng.random(n) * 0.01
    lon = 2.0 + rng.random(n) * 0.01
    ids = [f"n{i:02d}" for i in range(n)]
    lat_str = [repr(x) for x in lat]
    lon_str = [repr(x) for x in lon]
    # connect each node to its 3 nearest (planar) neighbours
    import itertools
    pairs = set()
    for i in range(n):
        d = (lat - lat[i]) ** 2 + (lon - lon[i]) ** 2
        for j in np.argsort(d)[1:4]:
            pairs.add(tuple(sorted((ids[i], ids[int(j)]))))
    import ray
    nodes = ray.data.from_pandas(pd.DataFrame({
        "id": np.array(ids, dtype=object),
        "lat_str": np.array(lat_str, dtype=object),
        "lon_str": np.array(lon_str, dtype=object),
        "lat": lat, "lon": lon,
    }))
    edges = ray.data.from_pandas(pd.DataFrame({
        "u": np.array([p[0] for p in sorted(pairs)], dtype=object),
        "v": np.array([p[1] for p in sorted(pairs)], dtype=object),
    }))
    for delta in (30.0, 120.0, 400.0):
        n2, e2 = components.contract_units(nodes, edges, delta, num_buckets=4)
        oracle = _oracle_from_tables(nodes, edges)
        oracle.remove_under_delta_nodes(delta)
        oracle.remove_under_delta_links(delta)
        ids_got, es_got = _graph_state(n2, e2)
        assert ids_got == dict(oracle.coords), delta
        assert es_got == oracle.undirected_edges(), delta


def _k4_chain_tables(n_clusters: int = 10):
    """A single 4*n-node component: K4 clusters ~6 m wide, 1.1 km apart,
    chained by long connector edges. No degree-2 nodes (H3 no-op), so
    the component survives contraction intact — the shape that used to
    make contract_components raise above task_cap."""
    import ray

    ids, lat_s, lon_s, eu, ev = [], [], [], [], []
    for c in range(n_clusters):
        base_lon = 2.0 + c * 0.015
        offs = [(0.0, 0.0), (0.00005, 0.0), (0.0, 0.00006), (0.00005, 0.00007)]
        members = []
        for m, (dla, dlo) in enumerate(offs):
            nid = f"c{c:02d}m{m}"
            members.append(nid)
            ids.append(nid)
            lat_s.append(repr(48.0 + dla))
            lon_s.append(repr(base_lon + dlo))
        for i in range(4):
            for j in range(i + 1, 4):
                eu.append(members[i])
                ev.append(members[j])
        if c > 0:
            eu.append(f"c{c-1:02d}m0")
            ev.append(f"c{c:02d}m0")
    nodes = ray.data.from_pandas(pd.DataFrame({
        "id": np.array(ids, dtype=object),
        "lat_str": np.array(lat_s, dtype=object),
        "lon_str": np.array(lon_s, dtype=object),
        "lat": np.array([float(x) for x in lat_s]),
        "lon": np.array([float(x) for x in lon_s]),
    }))
    edges = ray.data.from_pandas(pd.DataFrame({
        "u": np.array(eu, dtype=object), "v": np.array(ev, dtype=object),
    }))
    return nodes, edges


def test_contract_components_units_fallback_above_task_cap(monkeypatch):
    """A component whose contracted form still exceeds DEFAULT_TASK_CAP
    used to raise; it must now route through contract_units and match
    the whole-graph oracle chain, on both label rungs. 40-node
    component, DEFAULT_TASK_CAP=5, delta-units of size 4."""
    monkeypatch.setattr(components, "DEFAULT_TASK_CAP", 5)
    for rung in ("small", "large"):
        nodes, edges = _k4_chain_tables(10)
        with forced_rung(rung, "components.contract_components"):
            n2, e2 = components.contract_components(nodes, edges, 10.0)
        rungs = {r["name"]: (r["size"], r["rung"]) for r in ladder_log()}
        assert rungs["components.task_cap.units"] == (40, "large"), rung
        oracle = _oracle_from_tables(nodes, edges)
        oracle.remove_degree_two_nodes()
        oracle.remove_under_delta_nodes(10.0)
        oracle.remove_under_delta_links(10.0)
        ids, es = _graph_state(n2, e2)
        assert ids == dict(oracle.coords), rung
        assert es == oracle.undirected_edges(), rung


def test_contract_units_dense_unit_still_guarded(monkeypatch):
    """A delta-dense blob that cannot decompose (every edge short) must
    still raise loudly rather than split inexactly."""
    nodes, edges = tables_from("cailles.graph")
    n1, e1 = components.remove_degree_two_nodes_distributed(nodes, edges)
    monkeypatch.setattr(components, "DEFAULT_TASK_CAP", 5)
    with pytest.raises(ValueError, match="delta-interaction unit"):
        components.contract_units(n1, e1, 10.0, num_buckets=4)


def test_simplify_labelprop_full_composition():
    nodes, edges = tables_from("test_bfs.graph")
    with forced_rung("large", "components.largest_component",
                     "components.contract_components", "components.task_cap.h3"):
        n2, e2 = components.simplify(nodes, edges, 10.0)
    oracle = OracleGraph.from_text(load_fixture_text("test_bfs.graph")).simplify(10.0)
    assert graph_counts(n2, e2) == (oracle.n_nodes(), oracle.n_edges())
    assert degrees_from_tables(n2.materialize(), e2.materialize()) == {
        n: oracle.degree(n) for n in oracle.coords
    }


#: the label ladders and the first task guard: forced large, H1 and the
#: contraction run on labelprop labels and the distributed H3
LARGE_LABELS = ("components.largest_component", "components.contract_components",
                "components.task_cap.h3")

ADVERSARIAL = "\n".join([
    # two equal largest components (4 nodes each) whose smallest ids
    # order differently as strings and as numbers: "10" < "9"
    "9␟48.0␟2.0", "90␟48.001␟2.0", "91␟48.002␟2.0", "92␟48.003␟2.0",
    "10␟49.0␟3.0", "11␟49.001␟3.0", "12␟49.0␟3.001", "13␟49.001␟3.001",
    # isolated nodes, one sorting before and one after every other id
    "0␟47.0␟1.0", "zz␟47.5␟1.5",
    "9␟90", "90␟91", "91␟92",
    "10␟11", "10␟12", "10␟13", "11␟13",
])


def _empty_tables():
    import pyarrow as pa
    import ray

    s = pa.string()
    return (ray.data.from_arrow(pa.table({
                "id": pa.array([], s), "lat_str": pa.array([], s),
                "lon_str": pa.array([], s), "lat": pa.array([], pa.float64()),
                "lon": pa.array([], pa.float64())})),
            ray.data.from_arrow(pa.table({"u": pa.array([], s), "v": pa.array([], s)})))


def test_component_ladders_match_oracle_on_both_rungs():
    """H1, the contraction and the full simplify, each forced small and
    forced large, against the oracle: a tie between two largest
    components broken by the smallest label in STRING order, isolated
    nodes, and an empty graph."""
    nodes, edges = tables_from_text(ADVERSARIAL)
    h1 = OracleGraph.from_text(ADVERSARIAL).bfs_largest_component()
    assert sorted(h1.coords) == ["10", "11", "12", "13"]
    contracted = OracleGraph.from_text(ADVERSARIAL)
    for step in (contracted.remove_degree_two_nodes,
                 lambda: contracted.remove_under_delta_nodes(100.0),
                 lambda: contracted.remove_under_delta_links(100.0)):
        step()
    simplified = OracleGraph.from_text(ADVERSARIAL).simplify(100.0)
    empty_nodes, empty_edges = _empty_tables()
    for rung, names in (("small", ()), ("large", LARGE_LABELS)):
        with forced_rung(rung, *names):
            got_h1 = _graph_state(*components.largest_component(nodes, edges))
            got_cc = _graph_state(*components.contract_components(nodes, edges, 100.0))
            got_s = _graph_state(*components.simplify(nodes, edges, 100.0))
            got_empty = [graph_counts(*components.largest_component(empty_nodes, empty_edges)),
                         graph_counts(*components.simplify(empty_nodes, empty_edges, 100.0))]
        assert got_h1 == (dict(h1.coords), h1.undirected_edges()), rung
        assert got_cc == (dict(contracted.coords), contracted.undirected_edges()), rung
        assert got_s == (dict(simplified.coords), simplified.undirected_edges()), rung
        assert got_empty == [(0, 0), (0, 0)], rung


@pytest.mark.parametrize("dangling", [("a", "x"), ("0", "a"), ("x", "y")])
def test_component_ladders_raise_on_dangling_edges(dangling):
    """An edge endpoint that is no node raises one ValueError on both
    label rungs (the reference panics): after every id ("x"), before
    every id ("0"), and both endpoints missing."""
    text = "\n".join(["a␟48.0␟2.0", "b␟48.1␟2.0", "c␟48.2␟2.0", "a␟b", "b␟c",
                      "␟".join(dangling)])
    nodes, edges = graphio.graph_from_text(text)
    nodes = graphops.dedup_nodes(nodes).materialize()
    edges = graphops.dedup_edges(edges).materialize()
    for rung in ("small", "large"):
        with forced_rung(rung):
            with pytest.raises(ValueError, match="edge endpoints missing"):
                components.connected_components_auto(nodes, edges, num_buckets=4)
            with pytest.raises(ValueError, match="edge endpoints missing"):
                components.largest_component(nodes, edges)


def test_discretize_golden():  # discretize.rs:54-104
    from tests.test_oracle import DISCRETIZE_EXPECTED

    nodes, edges = tables_from("test_discretize.graph")
    n2, e2 = discretize.discretize(nodes, edges, 6.0)
    n2, e2 = n2.materialize(), e2.materialize()
    assert graph_counts(n2, e2) == (35, 36)
    assert degrees_from_tables(n2, e2) == DISCRETIZE_EXPECTED


def test_discretize_coords_match_oracle_bitwise():
    nodes, edges = tables_from("test_discretize.graph")
    n2, _ = discretize.discretize(nodes, edges, 6.0)
    got = {r["id"]: (r["lat_str"], r["lon_str"]) for r in n2.iter_rows()}
    oracle = OracleGraph.from_text(load_fixture_text("test_discretize.graph"))
    oracle.discretize(6.0)
    assert got == dict(oracle.coords)


def test_discretize_noop_below_delta():
    nodes, edges = tables_from("test_discretize.graph")
    n2, e2 = discretize.discretize(nodes, edges, 1e6)
    assert graph_counts(n2, e2) == (7, 8)
