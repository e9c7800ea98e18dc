"""Distributed graph table ops vs reference goldens and the oracle."""

import numpy as np
import pandas as pd
import pytest

from ophois_ray import graphio, graphops
from ophois_ray.joins import forced_rung
from ophois_ray.oracle import OracleGraph
from tests.conftest import load_fixture_text

pytestmark = pytest.mark.usefixtures("ray_session")


def _int_table(**cols):
    """int64 Dataset via Arrow (a 0-row from_pandas Dataset drops its
    columns, so empty inputs keep their schema)."""
    import pyarrow as pa
    import ray.data

    return ray.data.from_arrow(pa.table(
        {k: pa.array(np.asarray(v, np.int64), pa.int64()) for k, v in cols.items()}))


#: extra ladder inputs: a hot hub (node 0 on every edge) and no edges
_HUB = np.arange(1, 41)
_EXTRA_EDGES = {"hub": (np.zeros(40, np.int64), _HUB), "empty": ([], [])}


@pytest.fixture(scope="module")
def cailles_tables():
    text = load_fixture_text("cailles.graph")
    nodes, edges = graphio.graph_from_text(text)
    nodes = graphops.dedup_nodes(nodes)
    edges = graphops.dedup_edges(edges)
    return nodes.materialize(), edges.materialize()


def test_read_graph_counts(cailles_tables):
    nodes, edges = cailles_tables
    assert nodes.count() == 26
    assert edges.count() == 30


def test_read_graph_from_file(fixtures_dir):
    nodes, edges = graphio.read_graph(str(fixtures_dir / "cailles.graph"))
    nodes = graphops.dedup_nodes(nodes)
    edges = graphops.dedup_edges(edges)
    assert nodes.count() == 26
    assert edges.count() == 30


def test_node_verbatim_strings(cailles_tables):
    nodes, _ = cailles_tables
    df = nodes.to_pandas().set_index("id")
    # verbatim coordinate literals survive (reference graph.rs:104-110)
    assert df.loc["2576426850", "lat_str"] == "48.8274242"
    assert df.loc["2576426850", "lon_str"] == "2.3486471"
    assert df.loc["2576426850", "lat"] == 48.8274242


def test_dedup_nodes_first_wins(ray_session):
    text = "a␟1.0␟2.0\na␟9.9␟9.9\nb␟1.1␟2.1\na␟b\nb␟a"
    nodes, edges = graphio.graph_from_text(text)
    out = graphops.dedup_nodes(nodes).to_pandas().set_index("id")
    assert out.loc["a", "lat_str"] == "1.0"  # first occurrence wins (graph.rs:82)
    assert len(out) == 2
    e = graphops.dedup_edges(edges).to_pandas()
    assert len(e) == 1  # both orientations collapse to one undirected edge
    assert tuple(e.iloc[0][["u", "v"]]) == ("a", "b")


def test_canonical_orientation(ray_session):
    # lexicographic: "10" < "9" (reference utils.rs:1-7)
    import ray.data

    edges = ray.data.from_items([{"u": "9", "v": "10"}, {"u": "10", "v": "9"}])
    out = graphops.dedup_edges(edges).to_pandas()
    assert len(out) == 1
    assert tuple(out.iloc[0][["u", "v"]]) == ("10", "9")


def test_bad_arity_strict_raises(ray_session):
    with pytest.raises(Exception):
        nodes, _ = graphio.graph_from_text("a␟b␟c␟d")
        nodes.count()


def test_degree_histogram(cailles_tables):
    nodes, edges = cailles_tables
    hist = graphops.degree_histogram(nodes, edges)
    assert hist == {1: 5, 2: 12, 3: 5, 4: 4}  # metrics.rs:84


def test_degree_histogram_counts_isolates(ray_session):
    import ray.data

    nodes = ray.data.from_items(
        [
            {"id": "a", "lat_str": "0", "lon_str": "0", "lat": 0.0, "lon": 0.0, "seq": 0},
            {"id": "b", "lat_str": "0", "lon_str": "1", "lat": 0.0, "lon": 1.0, "seq": 1},
            {"id": "c", "lat_str": "1", "lon_str": "0", "lat": 1.0, "lon": 0.0, "seq": 2},
        ]
    )
    edges = ray.data.from_items([{"u": "a", "v": "b"}])
    assert graphops.degree_histogram(nodes, edges) == {0: 1, 1: 2}


def test_length_histogram_broadcast(cailles_tables):
    nodes, edges = cailles_tables
    hist = graphops.length_histogram(edges, nodes)
    expected = {
        1: 5, 2: 3, 3: 1, 4: 5, 5: 2, 6: 2, 8: 2, 10: 1, 11: 1, 12: 1,
        14: 1, 15: 2, 18: 1, 22: 1, 34: 1, 87: 1,
    }
    assert hist == expected  # metrics.rs:95-112


def test_length_histogram_shuffle_join(cailles_tables):
    nodes, edges = cailles_tables
    hist = graphops.length_histogram(edges, nodes, method="shuffle")
    assert hist[87] == 1 and sum(hist.values()) == 30


def test_order_size(cailles_tables):
    nodes, edges = cailles_tables
    assert graphops.order_size(nodes, edges) == "26 30"  # metrics.rs:122


def test_emit_metrics_files(cailles_tables, tmp_path):
    nodes, edges = cailles_tables
    osz, deg, lens = graphops.emit_metrics(nodes, edges, "simplify=10", str(tmp_path))
    assert (tmp_path / "order_size_simplify=10").read_text() == "26 30"
    assert (
        tmp_path / "degrees_simplify=10"
    ).read_text() == "1 5\n2 12\n3 5\n4 4\n"  # metrics.rs:129
    assert (tmp_path / "lengths_simplify=10").read_text().startswith("1 5\n2 3\n")


def test_attach_coords_drop_dangling(ray_session):
    import ray.data

    nodes = ray.data.from_items(
        [{"id": "a", "lat_str": "0", "lon_str": "0", "lat": 0.0, "lon": 0.0, "seq": 0}]
    )
    edges = ray.data.from_items([{"u": "a", "v": "missing"}])
    out = graphops.attach_coords(edges, nodes, drop_dangling=True)
    assert out.count() == 0
    with pytest.raises(Exception):
        graphops.attach_coords(edges, nodes, drop_dangling=False).materialize()


def test_write_graph_roundtrip(cailles_tables, tmp_path):
    nodes, edges = cailles_tables
    path = str(tmp_path / "out.graph")
    graphio.write_graph(nodes, edges, path)
    g = OracleGraph.from_text(open(path, encoding="utf-8").read())
    assert g.order_size() == "26 30"
    ref = OracleGraph.from_text(load_fixture_text("cailles.graph"))
    assert set(g.show_lines()) == set(ref.show_lines())


def test_hash_join_matches_pandas(ray_session):
    import ray.data
    from ophois_ray.joins import hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({"k": rng.randint(0, 50, 200), "x": rng.randn(200)})
    right = pd.DataFrame({"k": np.arange(40), "y": np.arange(40) * 2})
    got = (
        hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right), "k")
        .to_pandas()
        .sort_values(["k", "x"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k").sort_values(["k", "x"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "x", "y"]], exp[["k", "x", "y"]], check_dtype=False
    )


def test_hash_join_schema_less_empty_side(ray_session):
    """A 0-row side without a schema (an empty map output): an inner
    join returns 0 rows, every other ``how`` raises naming the side."""
    import pyarrow as pa
    import ray.data
    from ophois_ray.joins import hash_join

    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())})).map_batches(
        lambda df: df, batch_format="pandas")
    assert empty.schema() is None
    full = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "y": [3, 4]}))
    assert hash_join(empty, full, "k").count() == 0
    assert hash_join(full, empty, "k").count() == 0
    for how in ("left", "right", "outer"):
        with pytest.raises(ValueError, match="left side"):
            hash_join(empty, full, "k", how=how)
        with pytest.raises(ValueError, match="right side"):
            hash_join(full, empty, "k", how=how)


def test_distinct_rows_paths_identical(ray_session):
    """joins.distinct_rows: the capped narrow-merge path and the
    forced bucketed grouped_apply path (large rung) produce the SAME
    key set as pandas drop_duplicates, on duplicate-heavy input spread
    across many blocks, on one hot key and on empty input."""
    from ophois_ray.joins import distinct_rows

    rng = np.random.RandomState(11)
    inputs = [
        (rng.randint(0, 60, 5000), rng.randint(0, 60, 5000)),
        (np.full(3000, 7), np.full(3000, 9)),
        ([], []),
    ]
    for u, v in inputs:
        df = pd.DataFrame({"u": np.asarray(u, np.int64), "v": np.asarray(v, np.int64)})
        ds = _int_table(u=u, v=v).repartition(17)
        exp = (df.drop_duplicates(["u", "v"]).sort_values(["u", "v"])
               .reset_index(drop=True))
        for rung in ("small", "large"):
            with forced_rung(rung):
                got = distinct_rows(ds, ["u", "v"]).to_pandas()
            if not len(exp):
                assert len(got) == 0, rung
                continue
            got = got.sort_values(["u", "v"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got[["u", "v"]], exp[["u", "v"]],
                                          check_dtype=False)


def test_asof_join_matches_pandas(ray_session):
    import ray.data
    from ophois_ray.joins import asof_join

    rng = np.random.RandomState(7)
    left = pd.DataFrame(
        {
            "g": rng.randint(0, 12, 300),
            "t": rng.randint(0, 1000, 300).astype(np.int64),
            "x": np.arange(300),
        }
    )
    right = pd.DataFrame(
        {
            "g": rng.randint(0, 12, 150),
            "t": rng.randint(0, 1000, 150).astype(np.int64),
            "y": np.arange(150) * 3,
        }
    ).drop_duplicates(["g", "t"])

    for direction in ("backward", "forward"):
        for how in ("left", "inner"):
            got = (
                asof_join(
                    ray.data.from_pandas(left),
                    ray.data.from_pandas(right),
                    on="t",
                    by="g",
                    direction=direction,
                    how=how,
                    num_buckets=5,
                )
                .to_pandas()
                .sort_values(["g", "t", "x"])
                .reset_index(drop=True)
            )
            exp = pd.merge_asof(
                left.sort_values(["t", "g"], kind="mergesort"),
                right.sort_values(["t", "g"], kind="mergesort"),
                on="t",
                by="g",
                direction=direction,
            )
            if how == "inner":
                exp = exp[exp["y"].notna()]
            exp = exp.sort_values(["g", "t", "x"]).reset_index(drop=True)
            assert len(got) == len(exp), (direction, how)
            for c in ("g", "t", "x"):
                assert (got[c].to_numpy() == exp[c].to_numpy()).all(), (direction, how, c)
            gy = pd.to_numeric(got["y"]).to_numpy(np.float64, na_value=np.nan)
            ey = exp["y"].to_numpy(np.float64, na_value=np.nan)
            assert np.array_equal(gy, ey, equal_nan=True), (direction, how)


def test_asof_join_inner_keeps_null_right_values(ray_session):
    """A matched right row whose value column is legitimately NULL must
    survive how='inner' (DuckDB ASOF JOIN semantics) — the old
    implementation inferred match-ness from notna() on the first right
    value column. Also: a right side with NO value columns must still
    filter unmatched left rows under inner."""
    import ray.data
    from ophois_ray.joins import asof_join

    left = pd.DataFrame({
        "g": np.array([1, 1, 2], dtype=np.int64),
        "t": np.array([10, 20, 10], dtype=np.int64),
        "x": np.array([0, 1, 2], dtype=np.int64),
    })
    # g=1 t=5 matches both left g=1 rows but carries a NULL y;
    # g=2 has no right row at all -> its left row must drop under inner
    right = pd.DataFrame({
        "g": np.array([1], dtype=np.int64),
        "t": np.array([5], dtype=np.int64),
        "y": np.array([np.nan]),
    })
    got = (
        asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                  on="t", by="g", how="inner", num_buckets=3)
        .to_pandas().sort_values("x", ignore_index=True)
    )
    assert got["x"].tolist() == [0, 1]
    assert got["y"].isna().all()

    # key-only right side: inner must behave as a semi-join, not degrade
    # to left semantics
    got2 = (
        asof_join(ray.data.from_pandas(left),
                  ray.data.from_pandas(right[["g", "t"]]),
                  on="t", by="g", how="inner", num_buckets=3)
        .to_pandas().sort_values("x", ignore_index=True)
    )
    assert got2["x"].tolist() == [0, 1]


def test_range_join_matches_bruteforce(ray_session):
    import ray.data
    from ophois_ray.joins import range_join

    rng = np.random.RandomState(11)
    left = pd.DataFrame(
        {"v": rng.uniform(-100, 100, 400), "lid": np.arange(400)}
    )
    lo = rng.uniform(-120, 90, 80)
    right = pd.DataFrame(
        {"lo": lo, "hi": lo + rng.uniform(0, 30, 80), "rid": np.arange(80)}
    )
    got = (
        range_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(3),
            value="v", lo="lo", hi="hi", bucket_width=7.5,
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, how="cross")
    exp = exp[(exp["lo"] <= exp["v"]) & (exp["v"] <= exp["hi"])]
    exp = exp.sort_values(["lid", "rid"]).reset_index(drop=True)
    assert len(got) == len(exp) and len(exp) > 50
    for c in ("lid", "rid"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all()


def test_hopping_window_matches_bruteforce(ray_session):
    import ray.data
    from ophois_ray.windows import hopping_window, tumbling_window

    rng = np.random.RandomState(21)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b"], 500),
            "t": rng.randint(-1000, 1000, 500).astype(np.int64),
            "x": rng.randint(0, 100, 500).astype(np.int64),
        }
    )
    size, hop = 40, 10
    m = size // hop
    rows = np.repeat(np.arange(len(df)), m)
    wid = np.repeat(np.floor_divide(df["t"].to_numpy(), hop), m) - np.tile(
        np.arange(m), len(df)
    )
    exp = df.iloc[rows].reset_index(drop=True)
    exp["window_id"] = wid
    exp = exp.groupby(["k", "window_id"], as_index=False).agg(
        n=("x", "size"), sum_x=("x", "sum"), min_x=("x", "min")
    )
    got = (
        hopping_window(
            ray.data.from_pandas(df).repartition(5),
            ts_col="t", size_us=size, hop_us=hop, keys=["k"],
            aggs={"n": ("count", None), "sum_x": ("sum", "x"),
                  "min_x": ("min", "x")},
        )
        .to_pandas()
        .sort_values(["k", "window_id"])
        .reset_index(drop=True)
    )
    exp = exp.sort_values(["k", "window_id"]).reset_index(drop=True)
    for c in ("k", "window_id", "n", "sum_x", "min_x"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    # tumbling == hopping with hop=size: each event exactly once
    tb = tumbling_window(
        ray.data.from_pandas(df), ts_col="t", size_us=size, keys=["k"]
    ).to_pandas()
    assert tb["n"].sum() == len(df)

    with pytest.raises(ValueError):
        hopping_window(ray.data.from_pandas(df), ts_col="t",
                       size_us=35, hop_us=10)


def test_watermark_late_counts_matches_sequential(ray_session):
    """Distributed two-pass prefix-max == sequential replay, on every
    block layout, including arrival-key ties and the global first
    event (no watermark -> on time)."""
    import ray.data

    from ophois_ray.windows import watermark_late_counts

    rng = np.random.RandomState(11)
    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "us": rng.randint(0, 10_000, n).astype(np.int64),
        # coarse arrival key -> many exact ties, exercising the
        # (akey, event_id) tie-break across range boundaries
        "akey": rng.randint(0, 7, n).astype(np.int64) * ((1 << 61) // 8),
    })
    W, L = 1000, 300

    # sequential replay oracle
    seq = df.sort_values(["akey", "event_id"], ignore_index=True)
    us = seq["us"].to_numpy()
    wm = np.full(n, -(1 << 62), dtype=np.int64)
    wm[1:] = np.maximum.accumulate(us[:-1])
    late = (wm > -(1 << 62)) & (us < wm - L)
    exp = (pd.DataFrame({"win": us // W, "late": late.astype(np.int64)})
           .groupby(["win", "late"]).size().to_dict())

    for nparts in (1, 7):
        got = watermark_late_counts(
            ray.data.from_pandas(df).repartition(nparts),
            window_us=W, lateness_us=L,
        ).to_pandas()
        gd = {(int(r.win), int(r.late)): int(r.n) for r in got.itertuples()}
        assert gd == exp
        assert int(got["n"].sum()) == n
    assert late.any(), "fixture must produce late events"


def test_sssp_copart_path_equals_broadcast(ray_session):
    """Forced-rung co-partitioned Bellman-Ford bit-matches the
    broadcast path on a random sparse graph (incl. weight ties and
    multi-seed fronts), also with only the edge ladder forced large,
    on a hot hub and on an empty graph."""
    import ray.data

    from ophois_ray.graphops import sssp_rounds

    rng = np.random.RandomState(23)
    m = 300
    u = rng.randint(0, 150, m).astype(np.int64)
    v = rng.randint(0, 150, m).astype(np.int64)
    keep = u != v
    uu, vv = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    edges = pd.DataFrame({"u": uu, "v": vv}).drop_duplicates()
    ds = ray.data.from_pandas(edges).repartition(5)

    # NOTE seed_mod must not divide split_hash's multiplier
    # (1103515245 % 7 == 0 -> %7 never selects a seed)
    def run(ds, *force):
        with forced_rung(*force):
            out = sssp_rounds(ds, seed_mod=23, rounds=4, weight_mod=9,
                              num_buckets=8).to_pandas()
        if not len(out):
            return [], []
        out = out.sort_values("node")
        return out["node"].tolist(), out["dist"].tolist()

    a = run(ds, "small")
    assert len(a[0]) > 10 and max(a[1]) > 0
    assert run(ds, "large") == a
    assert run(ds, "large", "graphops.sssp_rounds.edges") == a
    for name, (u, v) in _EXTRA_EDGES.items():
        # ids 0..40: shift so that some hub spoke is a seed
        e = _int_table(u=np.asarray(u, np.int64) + 3, v=np.asarray(v, np.int64) + 3)
        assert run(e, "large") == run(e, "small"), name


def test_asof_join_right_prep_equals_global_dedup(ray_session):
    import ray.data
    from ophois_ray.joins import asof_join

    rng = np.random.RandomState(11)
    left = pd.DataFrame({
        "g": rng.randint(0, 8, 200),
        "t": rng.randint(0, 300, 200).astype(np.int64),
        "x": np.arange(200),
    })
    # right WITH duplicate (g, t) keys; dedup keeps max y
    right = pd.DataFrame({
        "g": rng.randint(0, 8, 300),
        "t": rng.randint(0, 300, 300).astype(np.int64),
        "y": rng.randint(0, 1000, 300).astype(np.int64),
    })

    def dedup(rf):
        g = rf.groupby(["g", "t"], as_index=False).agg(y=("y", "max"))
        g["y"] = g["y"].astype(np.int64)
        return g

    via_prep = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        on="t", by="g", how="inner", num_buckets=5, right_prep=dedup,
    ).to_pandas().sort_values(["g", "t", "x"]).reset_index(drop=True)
    pre_deduped = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(dedup(right)),
        on="t", by="g", how="inner", num_buckets=5,
    ).to_pandas().sort_values(["g", "t", "x"]).reset_index(drop=True)
    assert via_prep.equals(pre_deduped)


def test_cc_broadcast_path_equals_labelprop(ray_session):
    """Forced-rung ladder parity: the vectorized broadcast min-label CC
    bit-matches the distributed pointer-jumping labelprop on a random
    sparse graph (isolated nodes included), on a hot hub and on an
    empty graph."""
    import ray.data

    from ophois_ray.components import connected_components_auto

    rng = np.random.RandomState(7)
    m = 400
    u = rng.randint(0, 260, m).astype(np.int64)
    v = rng.randint(0, 260, m).astype(np.int64)
    keep = u != v
    edges_df = pd.DataFrame(
        {"u": np.minimum(u, v)[keep], "v": np.maximum(u, v)[keep]}
    ).drop_duplicates()
    # isolated nodes: ids above any edge endpoint
    node_ids = np.unique(np.concatenate(
        [edges_df["u"].to_numpy(), edges_df["v"].to_numpy(),
         np.array([500, 501], dtype=np.int64)]
    ))
    nodes = ray.data.from_pandas(pd.DataFrame({"id": node_ids})).repartition(3)
    edges = ray.data.from_pandas(edges_df).repartition(5)

    fast = (connected_components_auto(nodes, edges)
            .to_pandas().sort_values("id").reset_index(drop=True))
    with forced_rung("large"):
        slow = (connected_components_auto(nodes, edges, num_buckets=4)
                .to_pandas().sort_values("id").reset_index(drop=True))
    assert fast["id"].tolist() == slow["id"].tolist()
    assert fast["comp"].tolist() == slow["comp"].tolist()
    for name, (u, v) in _EXTRA_EDGES.items():
        ids = np.unique(np.concatenate([u, v, [99]]).astype(np.int64))
        runs = []
        for rung in ("small", "large"):
            with forced_rung(rung):
                runs.append(connected_components_auto(
                    _int_table(id=ids), _int_table(u=u, v=v), num_buckets=4)
                    .to_pandas().sort_values("id")[["id", "comp"]]
                    .values.tolist())
        assert runs[0] == runs[1], name
    # isolated nodes label themselves; more than one real component
    got = dict(zip(fast["id"], fast["comp"]))
    assert got[500] == 500 and got[501] == 501
    assert fast["comp"].nunique() > 2


def _ref_hits(arcs, iters, scale):
    """Sequential oracle for graphops.hits_int."""
    nodes = sorted({a for a, _ in arcs} | {b for _, b in arcs})
    h = {n: scale for n in nodes}
    a = {n: 0 for n in nodes}
    for _ in range(iters):
        a = {n: 0 for n in nodes}
        for s, d in arcs:
            a[d] += h[s]
        m = max(a.values())
        if m > 0:
            a = {n: (v * scale) // m for n, v in a.items()}
        h = {n: 0 for n in nodes}
        for s, d in arcs:
            h[s] += a[d]
        m = max(h.values())
        if m > 0:
            h = {n: (v * scale) // m for n, v in h.items()}
    return pd.DataFrame({"node": nodes,
                         "auth": [a[n] for n in nodes],
                         "hub": [h[n] for n in nodes]}).astype(np.int64)


def test_hits_int_matches_oracle_and_paths_agree(ray_session):
    """graphops.hits_int: broadcast path == sequential oracle ==
    forced-rung co-partitioned path, bit-for-bit (int64 max-rescale
    arithmetic is layout-free); both rungs agree on a hot hub and on
    no arcs."""
    import ray

    from ophois_ray.graphops import hits_int

    rng = np.random.default_rng(7)
    arcs = sorted({(int(a), int(b)) for a, b in
                   zip(rng.integers(0, 40, 300), rng.integers(0, 40, 300))
                   if a != b})
    ds = ray.data.from_pandas(pd.DataFrame(
        {"src": np.array([a for a, _ in arcs], np.int64),
         "dst": np.array([b for _, b in arcs], np.int64)})).repartition(7)
    exp = _ref_hits(arcs, 2, 1 << 20)
    got_b = hits_int(ds, iters=2).reset_index(drop=True)
    with forced_rung("large"):
        got_c = hits_int(ds, iters=2, num_buckets=8).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_b.astype(np.int64), exp)
    pd.testing.assert_frame_equal(got_c.astype(np.int64), exp)
    for name, (u, v) in _EXTRA_EDGES.items():
        arcs_ds = _int_table(src=np.concatenate([u, v]), dst=np.concatenate([v, u]))
        runs = []
        for rung in ("small", "large"):
            with forced_rung(rung):
                runs.append(hits_int(arcs_ds, iters=2, num_buckets=8)
                            .astype(np.int64).reset_index(drop=True))
        pd.testing.assert_frame_equal(runs[0], runs[1])
    # a pure hub (source-only node) has auth 0; a pure authority
    # (sink-only) has hub 0
    star = [(1, 9), (2, 9), (3, 9)]
    sds = ray.data.from_pandas(pd.DataFrame(
        {"src": np.array([a for a, _ in star], np.int64),
         "dst": np.array([b for _, b in star], np.int64)}))
    g = hits_int(sds, iters=2).set_index("node")
    assert g.loc[9, "auth"] == 1 << 20 and g.loc[9, "hub"] == 0
    assert g.loc[1, "hub"] == 1 << 20 and g.loc[1, "auth"] == 0


def test_link_prediction_matches_scalar_oracle(ray_session):
    """graphops.link_prediction == brute-force common-neighbor /
    floor-scaled Adamic-Adar over non-adjacent pairs, bit-for-bit."""
    import itertools

    import ray

    from ophois_ray.graphops import link_prediction

    rng = np.random.default_rng(11)
    edges = sorted({(min(a, b), max(a, b)) for a, b in
                    zip(rng.integers(0, 30, 120), rng.integers(0, 30, 120))
                    if a != b})
    S = 1 << 20
    nbr: dict = {}
    for a, b in edges:
        nbr.setdefault(a, set()).add(b)
        nbr.setdefault(b, set()).add(a)
    eset = set(edges)
    rows = []
    for u, v in itertools.combinations(sorted(nbr), 2):
        if (u, v) in eset:
            continue
        common = nbr[u] & nbr[v]
        if common:
            rows.append((u, v, len(common),
                         sum(S // len(nbr[w]) for w in common)))
    exp = pd.DataFrame(rows, columns=["u", "v", "cn", "aa"]).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame(
        {"u": np.array([a for a, _ in edges], np.int64),
         "v": np.array([b for _, b in edges], np.int64)})).repartition(5)
    got = (link_prediction(ds, num_buckets=8).to_pandas()
           .sort_values(["u", "v"], ignore_index=True).astype(np.int64))
    pd.testing.assert_frame_equal(got, exp)


def test_degree_assortativity_paths_and_oracle(ray_session):
    """graphops.degree_assortativity_stats: broadcast path == scalar
    sums == forced-rung join path (also with only the edge ladder
    forced large, on a hot hub and on no edges); star graph is exactly
    disassortative in the raw stats."""
    import ray

    from ophois_ray.graphops import degree_assortativity_stats

    rng = np.random.default_rng(13)
    edges = sorted({(min(a, b), max(a, b)) for a, b in
                    zip(rng.integers(0, 25, 80), rng.integers(0, 25, 80))
                    if a != b})
    deg: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    du = np.array([deg[a] for a, b in edges] + [deg[b] for a, b in edges],
                  np.int64)
    dv = np.array([deg[b] for a, b in edges] + [deg[a] for a, b in edges],
                  np.int64)
    exp = pd.DataFrame({"m": [len(du)], "s_uv": [(du * dv).sum()],
                        "s_u": [du.sum()], "s_v": [dv.sum()],
                        "s_uu": [(du * du).sum()],
                        "s_vv": [(dv * dv).sum()]}).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame(
        {"u": np.array([a for a, _ in edges], np.int64),
         "v": np.array([b for _, b in edges], np.int64)})).repartition(4)
    got_b = degree_assortativity_stats(ds)
    with forced_rung("large"):
        got_j = degree_assortativity_stats(ds, num_buckets=8)
    with forced_rung("large", "graphops.degree_assortativity_stats.edges"):
        got_e = degree_assortativity_stats(ds, num_buckets=8)
    pd.testing.assert_frame_equal(got_b, exp)
    pd.testing.assert_frame_equal(got_j, exp)
    pd.testing.assert_frame_equal(got_e, exp)
    for name, (u, v) in _EXTRA_EDGES.items():
        runs = []
        for rung in ("small", "large"):
            with forced_rung(rung):
                runs.append(degree_assortativity_stats(_int_table(u=u, v=v),
                                                       num_buckets=8))
        pd.testing.assert_frame_equal(runs[0], runs[1])
    # star K1,4: every arc pairs degree 4 with degree 1
    star = ray.data.from_pandas(pd.DataFrame(
        {"u": np.zeros(4, np.int64), "v": np.arange(1, 5, dtype=np.int64)}))
    s = degree_assortativity_stats(star)
    assert s.loc[0, "m"] == 8 and s.loc[0, "s_uv"] == 8 * 4
    assert s.loc[0, "s_uu"] == 4 * 16 + 4 * 1
