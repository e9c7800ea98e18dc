"""Core distributed graph table ops: dedup (D1/D2), degrees, coordinate
joins, metrics (M1-M5). All hot paths are vectorized map_batches; the
only shuffles are the dedup/degree groupbys, each preceded by a
per-batch partial combine so the exchange moves pre-aggregated rows.

Reference semantics implemented here:
  D1 node dedup, first-wins by id        (src/graph.rs:82-89,124)
  D2 undirected edge dedup, canonical    (src/graph.rs:93-96, utils.rs:1-7)
  M1 order_size "{nodes} {edges}"        (src/metrics.rs:55-57)
  M2 degree histogram                    (src/metrics.rs:26-33)
  M3 length histogram (trunc metres)     (src/metrics.rs:35-53)
  M4 sorted "bucket count" lines         (src/metrics.rs:59-67)
  M5 metrics files under an out dir      (src/metrics.rs:8-24,69-75)
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd

from . import geo
from .joins import (DEFAULT_BROADCAST_CAP, _dataset_to_table, grouped_apply,
                    hash_join, ladder, put_index)

# ------------------------------------------------------------------ dedup

_PACK_SEP = "\x01"


def dedup_nodes(nodes):
    """D1: first-wins dedup by node id (reference graph.rs:82-89).

    "First" = minimum ``seq`` (file rank + line number). Implemented as
    one groupby-min over a packed ``seq|lat_str|lon_str`` string so the
    winning row's payload rides through the aggregation — no join-back,
    one shuffle, no per-group Python.
    """

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        packed = (
            df["seq"].map("{:020d}".format)
            + _PACK_SEP
            + df["lat_str"].astype(str)
            + _PACK_SEP
            + df["lon_str"].astype(str)
        )
        return pd.DataFrame({"id": df["id"], "packed": packed})

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        parts = df["packed"].str.split(_PACK_SEP, expand=True)
        lat_str = parts[1]
        lon_str = parts[2]
        return pd.DataFrame(
            {
                "id": df["id"],
                "lat_str": lat_str,
                "lon_str": lon_str,
                "lat": lat_str.astype(np.float64),
                "lon": lon_str.astype(np.float64),
                "seq": parts[0].astype(np.int64),
            }
        )

    packed = nodes.map_batches(pack, batch_format="pandas")
    mins = grouped_apply(
        packed,
        "id",
        lambda df: df.groupby("id", as_index=False)["packed"].min(),
    )
    return mins.map_batches(unpack, batch_format="pandas")


def canonicalize_edges(edges):
    """Orient every edge u < v lexicographically (utils.rs:1-7) and drop
    self-loops; keeps any extra columns."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(dtype=object)
        v = df["v"].to_numpy(dtype=object)
        swap = u > v
        uu = np.where(swap, v, u)
        vv = np.where(swap, u, v)
        out = df.copy()
        out["u"] = uu
        out["v"] = vv
        return out[uu != vv]

    return edges.map_batches(fn, batch_format="pandas")


def dedup_edges(edges, *, canonicalize: bool = True):
    """D2: undirected edge dedup (reference graph.rs:93-96).

    Canonicalize then exact-dedup = per-batch drop_duplicates (partial)
    followed by a groupby on (u, v) — the partial combine keeps the
    shuffle small. Output schema: u, v.
    """
    if canonicalize:
        edges = canonicalize_edges(edges)
    return grouped_apply(
        edges,
        ["u", "v"],
        lambda df: df[["u", "v"]].drop_duplicates(),
        drop_partial=lambda df: df[["u", "v"]].drop_duplicates(),
    )


# ---------------------------------------------------------------- degrees


def node_degrees(edges):
    """(id, degree) over canonical deduped edges — both endpoints of each
    undirected edge count (reference degree = neighbours len,
    graph.rs:146-152). Partial value_counts per batch, then a sum
    groupby over the (much smaller) partials."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate([df["u"].to_numpy(object), df["v"].to_numpy(object)])
        vc = pd.Series(ids).value_counts()
        return pd.DataFrame(
            {"id": vc.index.to_numpy(object), "cnt": vc.to_numpy(np.int64)}
        )

    partials = edges.map_batches(explode, batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("id", as_index=False)["cnt"].sum()
        return g.rename(columns={"cnt": "degree"}).astype({"degree": np.int64})

    return grouped_apply(partials, "id", merge)


def degree_histogram(nodes, edges) -> dict[int, int]:
    """M2: degree -> node count, including degree-0 isolates (nodes with
    no incident edge). Histogram is tiny -> assembled on the driver."""
    deg = node_degrees(edges)

    def vc(df: pd.DataFrame) -> pd.DataFrame:
        c = df["degree"].value_counts()
        return pd.DataFrame({"degree": c.index.to_numpy(np.int64), "n": c.to_numpy(np.int64)})

    hist: dict[int, int] = {}
    for batch in deg.map_batches(vc, batch_format="pandas").iter_batches(batch_format="pandas"):
        for d, n in zip(batch["degree"], batch["n"]):
            hist[int(d)] = hist.get(int(d), 0) + int(n)
    n_nodes = nodes.count()
    n_with_edges = sum(hist.values())
    isolates = n_nodes - n_with_edges
    if isolates > 0:
        hist[0] = hist.get(0, 0) + isolates
    return dict(sorted(hist.items()))


# ----------------------------------------------------------- coord joins


def _dangling(df: pd.DataFrame, found: np.ndarray, drop_dangling: bool) -> pd.DataFrame:
    """Edges whose endpoints are all nodes: ``drop_dangling`` drops the
    rest (engine policy for refs to missing nodes, SURVEY.md §7.4);
    otherwise one raises ``ValueError``, as the reference panics
    (graph.rs:148)."""
    if found.all():
        return df
    if drop_dangling:
        return df[found]
    raise ValueError("edge endpoints missing from the node table, e.g. "
                     f"{df.loc[~found, ['u', 'v']].head(3).to_numpy().tolist()!r}")


def _attach_broadcast(edges, coords, drop_dangling: bool):
    """Under-cap attach: the (id, lat, lon) table is ray.put once and
    every edge task looks it up via searchsorted — zero shuffle. A task
    function fetching the index once per WORKER via the
    pages._fetch_cached cache, not an actor pool: the stage is stateless
    apart from the broadcast, and an actor pool costs seconds of startup
    per run while its explicit concurrency poisons read fusion (the
    repo's measured rule)."""
    from .pages import _fetch_cached

    ref = put_index(coords, "id", ["lat", "lon"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        idx = _fetch_cached(ref)
        u = df["u"].to_numpy(object)
        v = df["v"].to_numpy(object)
        ula, fu = idx.lookup_with_mask(u, "lat")
        ulo, _ = idx.lookup_with_mask(u, "lon")
        vla, fv = idx.lookup_with_mask(v, "lat")
        vlo, _ = idx.lookup_with_mask(v, "lon")
        df = df.assign(u_lat=ula, u_lon=ulo, v_lat=vla, v_lon=vlo)
        return _dangling(df, fu & fv, drop_dangling)

    return edges.map_batches(fn, batch_format="pandas")


def _attach_joined(edges, coords, drop_dangling: bool):
    """Over-cap attach: two bucketed LEFT hash joins (u, then v) with a
    found-marker per endpoint, then the same dangling rule."""
    if edges.schema() is None:  # a 0-row map output: nothing to attach
        return edges
    if coords.count() == 0:  # every edge dangles; a join needs a schema
        return _attach_broadcast(edges, coords, drop_dangling)

    def side(s: str):
        return coords.map_batches(
            lambda df: pd.DataFrame({s: df["id"], f"{s}_lat": df["lat"],
                                     f"{s}_lon": df["lon"], f"__{s}": True}),
            batch_format="pandas")

    def check(df: pd.DataFrame) -> pd.DataFrame:
        found = (df["__u"].notna() & df["__v"].notna()).to_numpy()
        return _dangling(df.drop(columns=["__u", "__v"]), found, drop_dangling)

    step1 = hash_join(edges, side("u"), "u", how="left")
    return hash_join(step1, side("v"), "v", how="left").map_batches(
        check, batch_format="pandas")


def attach_coords(edges, nodes, *, drop_dangling: bool = False):
    """Join edge endpoints to node coordinates -> adds u_lat/u_lon/v_lat/v_lon.

    One ladder on the node rows: up to ``DEFAULT_BROADCAST_CAP`` the
    (id, lat, lon) table is ray.put once and looked up per batch via
    searchsorted — zero shuffle; above it two bucketed hash joins. On
    both rungs an edge endpoint that is no node is dropped with
    ``drop_dangling`` and raises ``ValueError`` in the edge task
    otherwise.
    """
    coords = nodes.select_columns(["id", "lat", "lon"]).materialize()
    return ladder(
        "graphops.attach_coords", coords.count(), DEFAULT_BROADCAST_CAP,
        lambda: _attach_broadcast(edges, coords, drop_dangling),
        lambda: _attach_joined(edges, coords, drop_dangling))


def edge_lengths(edges_with_coords):
    """Adds length_m (haversine, src/geo.rs:7-17) to coord-attached edges."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["length_m"] = geo.haversine_m(
            df["u_lat"].to_numpy(), df["u_lon"].to_numpy(),
            df["v_lat"].to_numpy(), df["v_lon"].to_numpy(),
        )
        return df

    return edges_with_coords.map_batches(fn, batch_format="pandas")


def length_histogram(edges, nodes) -> dict[int, int]:
    """M3: trunc(metres) -> edge count (reference metrics.rs:35-53,
    u32 truncation at :47)."""
    withc = edge_lengths(attach_coords(edges, nodes))

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        b = df["length_m"].to_numpy().astype(np.int64)  # trunc toward zero (>=0)
        vc = pd.Series(b).value_counts()
        return pd.DataFrame(
            {"bucket": vc.index.to_numpy(np.int64), "cnt": vc.to_numpy(np.int64)}
        )

    # histograms are tiny: merge the per-batch partials on the driver
    hist: dict[int, int] = {}
    for batch in (
        withc.map_batches(bucketize, batch_format="pandas").iter_batches(batch_format="pandas")
    ):
        for b, n in zip(batch["bucket"], batch["cnt"]):
            hist[int(b)] = hist.get(int(b), 0) + int(n)
    return hist


# ---------------------------------------------------------------- metrics


def order_size(nodes, edges) -> str:
    """M1: "{nodes} {edges}" (reference metrics.rs:55-57)."""
    return f"{nodes.count()} {edges.count()}"


def sort_and_stringify(hist: dict[int, int]) -> str:
    """M4 (reference metrics.rs:59-67)."""
    return "".join(f"{k} {v}\n" for k, v in sorted(hist.items()))


def emit_metrics(nodes, edges, param: str, outdir: str = "./ophois_metrics"):
    """M5: write order_size_{param} / degrees_{param} / lengths_{param}
    text files (reference metrics.rs:8-24, values_to_file :69-75).
    Returns the three values as Python objects as well."""
    os.makedirs(outdir, exist_ok=True)
    osz = order_size(nodes, edges)
    deg = degree_histogram(nodes, edges)
    lens = length_histogram(edges, nodes)
    with open(os.path.join(outdir, f"order_size_{param}"), "w") as f:
        f.write(osz)
    with open(os.path.join(outdir, f"degrees_{param}"), "w") as f:
        f.write(sort_and_stringify(deg))
    with open(os.path.join(outdir, f"lengths_{param}"), "w") as f:
        f.write(sort_and_stringify(lens))
    return osz, deg, lens


# ------------------------------------------------------- graph analytics


def pairs_within_runs(group: np.ndarray, val: np.ndarray,
                      band_vals: np.ndarray | None = None,
                      band: int = 0) -> dict:
    """All ordered (i < j) pairs within each run of equal ``group``
    values (input sorted by (group, val)): columns ``u``/``v`` with
    u = val[i], v = val[j]. Loop-free over rows — one masked shift per
    offset d in 1..max_run_len, so cost is O(max_run * n) vector ops
    (the per-group-Python-loop version measured 150k iterations per
    batch on order-pair generation).

    With ``band_vals`` (sorted ascending within each run, i.e. input
    sorted by (group, band_val)), pairs additionally require
    ``band_vals[j] - band_vals[i] <= band`` — because the values are
    run-sorted, eligible partners are contiguous and the offset loop
    terminates at the widest eligible window, not the widest run
    (quadratic-hot-run protection for banded joins)."""
    n = len(group)
    if n < 2:
        return {"u": np.array([], np.int64), "v": np.array([], np.int64)}
    out_u, out_v = [], []
    d = 1
    while True:
        same = group[:-d] == group[d:]
        if band_vals is not None:
            same = same & (band_vals[d:] - band_vals[:-d] <= band)
        if not same.any():
            break
        out_u.append(val[:-d][same])
        out_v.append(val[d:][same])
        d += 1
        if d >= n:
            break
    if not out_u:
        return {"u": np.array([], np.int64), "v": np.array([], np.int64)}
    return {"u": np.concatenate(out_u), "v": np.concatenate(out_v)}


def _pack_edge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u, v) with both in [0, 2^31) -> one int64 key (u << 31 | v).
    Negative ids would sign-extend and silently collide — reject."""
    if len(u) and (
        int(u.max()) >= 1 << 31 or int(v.max()) >= 1 << 31
        or int(u.min()) < 0 or int(v.min()) < 0
    ):
        raise ValueError("edge endpoints must be in [0, 2^31) to pack")
    return (u.astype(np.int64) << np.int64(31)) | v.astype(np.int64)


def _to_ends(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {"node": np.concatenate(
            [df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)]
        )}
    )


def _both_arcs(df: pd.DataFrame) -> pd.DataFrame:
    """Both directed arcs (src, dst) of every canonical edge (u, v)."""
    u = df["u"].to_numpy(np.int64)
    v = df["v"].to_numpy(np.int64)
    return pd.DataFrame({"src": np.concatenate([u, v]), "dst": np.concatenate([v, u])})


def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
    g = df.groupby("node", as_index=False).size().rename(columns={"size": "deg"})
    g["deg"] = g["deg"].astype(np.int64)
    return g


def _deg_merge(df: pd.DataFrame) -> pd.DataFrame:
    g = df.groupby("node", as_index=False)["deg"].sum()
    g["deg"] = g["deg"].astype(np.int64)
    return g


def _driver_merged_degrees(edges) -> pd.DataFrame:
    """(node, deg) of a canonical edge table as one pandas frame:
    per-block partials are pre-aggregated (<= 2 x block edges rows), so
    the driver merge is bounded by the node count — no groupby barrier.
    Only valid when n_nodes fits driver memory (the broadcast regime)."""
    pieces = [
        b for b in edges.map_batches(_to_ends, batch_format="pandas")
        .map_batches(_deg_partial, batch_format="pandas")
        .iter_batches(batch_format="pandas", batch_size=None)
    ]
    if not pieces:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "deg": pd.Series(dtype=np.int64)})
    return _deg_merge(pd.concat(pieces, ignore_index=True))


def _broadcast_wedge_plan(edges, *, n_tasks: int = 64):
    """Driver-built degree-oriented wedge plan for the BROADCAST regime
    (the caller's ladder put the edge count under the broadcast cap, so one
    driver pass over the edge table is in-budget — the same license
    `_driver_merged_degrees` / `_sorted_edge_keys` use). Returns
    ``(ranges, ref, n_wedges)``:

    - ``ref``: one ``ray.put`` of ``(src, dst, keys)`` — the oriented
      edge arrays sorted by (src, dst) plus the sorted packed closure
      keys. Workers fetch it once per process (`pages._fetch_cached`).
    - ``ranges``: ``[lo, hi)`` row ranges over ``src``/``dst``, aligned
      to pivot-run boundaries and balanced by WEDGE count (sum of
      k*(k-1)/2 per run), so each scan task does ~equal closure work
      even on skewed out-degrees.

    The point: the O(m^1.5) wedge set is generated AND closure-checked
    inside each scan task against the broadcast arrays — it never
    rides an exchange. The previous plan shuffled the oriented edges
    by pivot (a keyed sort whose barrier cost is parallelism-
    independent) just to co-locate runs the broadcast already holds.
    """
    import ray

    pieces = [
        b for b in edges.iter_batches(batch_format="pandas",
                                      batch_size=None)
    ]
    if not pieces:
        return [], ray.put((np.empty(0, np.int64), np.empty(0, np.int64),
                            np.empty(0, np.int64))), 0
    u = np.concatenate([b["u"].to_numpy(np.int64) for b in pieces])
    v = np.concatenate([b["v"].to_numpy(np.int64) for b in pieces])
    nodes = np.unique(np.concatenate([u, v]))
    deg = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(deg, np.searchsorted(nodes, u), 1)
    np.add.at(deg, np.searchsorted(nodes, v), 1)
    du = deg[np.searchsorted(nodes, u)]
    dv = deg[np.searchsorted(nodes, v)]
    u_first = (du < dv) | ((du == dv) & (u < v))
    src = np.where(u_first, u, v)
    dst = np.where(u_first, v, u)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keys = np.sort(_pack_edge(u, v))
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    run_len = np.diff(np.r_[starts, len(src)])
    wedges_per_run = run_len * (run_len - 1) // 2
    cum = np.cumsum(wedges_per_run)
    n_wedges = int(cum[-1])
    # run-aligned boundaries at equal-wedge quantiles
    targets = (np.arange(1, n_tasks, dtype=np.int64) * n_wedges) // n_tasks
    cut_runs = np.unique(np.searchsorted(cum, targets, side="right"))
    cut_runs = cut_runs[cut_runs < len(starts)]
    bounds = np.r_[0, starts[cut_runs], len(src)]
    bounds = np.unique(bounds)
    ranges = [(int(bounds[i]), int(bounds[i + 1]))
              for i in range(len(bounds) - 1)]
    return ranges, ray.put((src, dst, keys)), n_wedges


def _closed_wedge_scan(edges, reduce_fn, *, n_tasks: int = 64):
    """Map ``reduce_fn(closed_wedges_df) -> partial_df`` over the
    broadcast wedge plan: each task slices its pivot ranges from the
    broadcast arrays, emits the wedges, keeps only the CLOSED ones
    (searchsorted against the broadcast edge keys) and reduces them
    in-task. Returns the Dataset of per-range partials."""
    import ray

    from .pages import _fetch_cached

    ranges, ref, _ = _broadcast_wedge_plan(edges, n_tasks=n_tasks)
    if not ranges:
        ranges = [(0, 0)]
    scan = ray.data.from_items(
        [{"lo": lo, "hi": hi} for lo, hi in ranges]
    ).repartition(len(ranges))

    def scan_fn(df: pd.DataFrame) -> pd.DataFrame:
        src, dst, keys = _fetch_cached(ref)
        outs = []
        for lo, hi in zip(df["lo"].to_numpy(np.int64),
                          df["hi"].to_numpy(np.int64)):
            s = src[lo:hi]
            d = dst[lo:hi]
            rows = np.arange(len(s), dtype=np.int64)
            pr = pairs_within_runs(s, rows)
            q = _pack_edge(d[pr["u"]], d[pr["v"]])
            if len(keys) == 0 or len(q) == 0:
                continue
            idx = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
            mask = keys[idx] == q
            if not mask.any():
                continue
            outs.append(reduce_fn(pd.DataFrame({
                "p": s[pr["u"]][mask],
                "u": d[pr["u"]][mask],
                "v": d[pr["v"]][mask],
            })))
        if not outs:
            return reduce_fn(pd.DataFrame({
                "p": np.empty(0, np.int64),
                "u": np.empty(0, np.int64),
                "v": np.empty(0, np.int64),
            }))
        return pd.concat(outs, ignore_index=True)

    return scan.map_batches(scan_fn, batch_format="pandas")


def _oriented_wedges(edges, *, num_buckets: int):
    """Shared wedge engine for the over-cap rungs of
    :func:`triangle_count` / :func:`triangles_per_node`: degree-orient
    every edge of the materialized canonical edge table (int64
    ``u < v``) from its lower-(degree, id) endpoint through two bucketed
    degree joins, and emit each pivot's out-neighbour pairs as
    pivot-tagged wedges ``(p, u, v)`` with ``u < v``.
    """
    deg = grouped_apply(
        edges.map_batches(_to_ends, batch_format="pandas").map_batches(
            _deg_partial, batch_format="pandas"
        ),
        "node", _deg_merge, num_buckets=num_buckets,
    ).materialize()  # two consumers (deg_u, deg_v)
    deg_u = deg.map_batches(
        lambda df: df.rename(columns={"node": "u", "deg": "deg_u"}),
        batch_format="pandas",
    )
    deg_v = deg.map_batches(
        lambda df: df.rename(columns={"node": "v", "deg": "deg_v"}),
        batch_format="pandas",
    )
    with_du = hash_join(edges, deg_u, on="u", num_buckets=num_buckets)
    with_dv = hash_join(with_du, deg_v, on="v", num_buckets=num_buckets)

    def orient_joined(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        du = df["deg_u"].to_numpy(np.int64)
        dv = df["deg_v"].to_numpy(np.int64)
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pd.DataFrame(
            {"src": np.where(u_first, u, v), "dst": np.where(u_first, v, u)}
        )

    oriented = with_dv.map_batches(orient_joined, batch_format="pandas")

    def wedges_fn(df: pd.DataFrame) -> pd.DataFrame:
        # all (i < j) pairs within each pivot's sorted out-neighbour
        # run, without a per-pivot Python loop: sort by (src, dst),
        # then for each offset d pair row k with row k+d where the
        # pivot is unchanged — max offset is the max out-degree, which
        # orientation caps at O(sqrt(m)). Emits (p, u, v): the pivot
        # rides along so per-node attribution can credit all corners.
        order = np.lexsort(
            (df["dst"].to_numpy(np.int64), df["src"].to_numpy(np.int64))
        )
        src = df["src"].to_numpy(np.int64)[order]
        dst = df["dst"].to_numpy(np.int64)[order]
        rows = np.arange(len(src), dtype=np.int64)
        pr = pairs_within_runs(src, rows)
        return pd.DataFrame(
            {"p": src[pr["u"]], "u": dst[pr["u"]], "v": dst[pr["v"]]}
        )

    return grouped_apply(oriented, "src", wedges_fn, num_buckets=num_buckets)


def _sorted_edge_keys(edges) -> np.ndarray:
    """Packed (u << 31 | v) keys of a materialized edge table as one
    sorted int64 array — the broadcast closure index for wedge checks."""
    def edge_keys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"ek": _pack_edge(df["u"].to_numpy(np.int64),
                              df["v"].to_numpy(np.int64))}
        )

    return np.sort(
        np.concatenate(
            [b["ek"].to_numpy(np.int64) for b in edges.map_batches(
                edge_keys, batch_format="pandas"
            ).iter_batches(batch_format="pandas", batch_size=1 << 20)]
            or [np.array([], dtype=np.int64)]
        )
    )


def triangle_count(edges, *, num_buckets: int = 64) -> int:
    """Distributed triangle count over a canonical distinct edge table
    (int64 columns ``u < v``), by degree-ordered wedge checking — the
    standard scalable algorithm (node-iterator with degree orientation):
    orient every edge from its lower-(degree, id) endpoint to the
    higher, emit the out-neighbour pairs of each pivot ("wedges"), and
    count the wedges that are themselves edges. Orientation bounds every
    out-degree by O(sqrt(m)), so wedge volume is O(m^1.5) even on
    power-law graphs where naive per-node pairing is quadratic at hubs.

    Hybrid exchange plan (the repo pattern): when the edge set fits
    the broadcast cap the degree table and edge keys ship once as
    sorted numpy arrays (searchsorted lookups, zero shuffle — degree
    attach and wedge closure become pure fused maps); above the cap
    both fall back to bucketed ``hash_join``. A forced-rung test pins
    the join path to the same answer.
    """
    edges = edges.materialize()

    def broadcast():
        parts = _closed_wedge_scan(
            edges,
            lambda w: pd.DataFrame({"n": np.array([len(w)], dtype=np.int64)}),
        )
        return int(sum(b["n"].sum() for b in parts.iter_batches(
            batch_format="pandas", batch_size=None
        )))

    def join():
        wedges = _oriented_wedges(edges, num_buckets=num_buckets)
        return hash_join(
            # the count doesn't need the pivot — project it off before the
            # O(m^1.5) wedge set rides the closure shuffle
            wedges.map_batches(lambda df: df[["u", "v"]], batch_format="pandas"),
            edges.map_batches(
                lambda df: df.assign(__e=np.int64(1)), batch_format="pandas"
            ),
            on=["u", "v"], num_buckets=num_buckets,
        ).count()

    n_edges = edges.count()
    if n_edges == 0:  # no triangles (the joins of the large rung need a schema)
        return 0
    return ladder("graphops.triangle_count", n_edges, DEFAULT_BROADCAST_CAP,
                  broadcast, join)


def triangles_per_node(edges, *, num_buckets: int = 64):
    """Per-node triangle participation over a canonical distinct edge
    table (int64 ``u < v``): ``tri(n)`` = number of triangles containing
    node ``n`` — the numerator of the local clustering coefficient.
    Every triangle surfaces as exactly ONE closed wedge in the
    degree-oriented plan (see :func:`triangle_count`), and the wedge is
    pivot-tagged ``(p, u, v)``, so per-node credit is a corner explode
    of the closed wedge set: each of ``p``, ``u``, ``v`` gets +1.
    Returns a ``ray.data.Dataset`` with columns ``(node, tri)`` over the
    nodes appearing in at least one triangle.

    OUTPUT BLOCK CONTRACT (consumers rely on it for partial top-k):
    every node appears in exactly ONE output block with its FINAL
    count — the broadcast path returns a single merged block and the
    join path buckets by node hash with a full merge per bucket. Any
    future repartition of the result must preserve this or fix the
    callers (q_node_triangles takes per-block heads).

    Scale shape: the broadcast path checks closure against the sorted
    packed edge-key array inside the fused map and pre-aggregates
    (node, tri) partials per batch, so the driver merge is bounded by
    n_nodes <= 2 x the broadcast cap; above the cap everything stays
    distributed (bucketed ``hash_join`` closure + ``grouped_apply``).
    """
    import ray

    _EMPTY = {"node": pd.Series(dtype=np.int64),
              "tri": pd.Series(dtype=np.int64)}

    def corner_counts(df: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate([
            df["p"].to_numpy(np.int64),
            df["u"].to_numpy(np.int64),
            df["v"].to_numpy(np.int64),
        ])
        g = (pd.DataFrame({"node": nodes})
             .groupby("node", as_index=False).size()
             .rename(columns={"size": "tri"}))
        g["tri"] = g["tri"].astype(np.int64)
        return g

    def merge_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["tri"].sum()
        g["tri"] = g["tri"].astype(np.int64)
        return g

    edges = edges.materialize()

    def broadcast():
        pieces = [
            b for b in _closed_wedge_scan(edges, corner_counts)
            .iter_batches(batch_format="pandas", batch_size=None)
        ]
        merged = merge_counts(pd.concat(pieces, ignore_index=True)) if pieces \
            else pd.DataFrame(_EMPTY)
        # explicit Arrow schema: a 0-row from_pandas dataset drops its
        # columns, breaking downstream schema-stable consumers
        import pyarrow as pa

        return ray.data.from_arrow(pa.Table.from_pandas(
            merged.sort_values("node", ignore_index=True),
            schema=pa.schema([("node", pa.int64()), ("tri", pa.int64())]),
            preserve_index=False,
        ))

    def join():
        closed = hash_join(
            _oriented_wedges(edges, num_buckets=num_buckets),
            edges.map_batches(
                lambda df: df.assign(__e=np.int64(1)), batch_format="pandas"
            ),
            on=["u", "v"], num_buckets=num_buckets,
        )
        corners = closed.map_batches(corner_counts, batch_format="pandas")
        return grouped_apply(corners, "node", merge_counts, num_buckets=num_buckets)

    n_edges = edges.count()
    if n_edges == 0:  # the driver rung's empty table (the joins need a schema)
        return broadcast()
    return ladder("graphops.triangles_per_node", n_edges, DEFAULT_BROADCAST_CAP,
                  broadcast, join)


def kcore_peel(edges, k: int, rounds: int = 3, *, num_buckets: int = 64):
    """Fixed-round k-core peel over a canonical distinct edge table
    (int64 ``u < v``): each round keeps the nodes of current degree
    >= ``k`` and the edges with both endpoints surviving, then
    recomputes degrees. A fixed round count (instead of
    peel-to-fixpoint) makes every round a pure integer function of the
    graph — bit-reproducible across block layouts / cluster widths and
    SQL-mirrorable by ``rounds`` unrolled join CTEs (the same recipe as
    :func:`pagerank_int`); run it to ``rounds >= diameter`` for the true
    k-core. Returns ``(stats, edges)``: ``stats`` is a pandas frame
    (round, n_nodes, n_edges) — survivor count entering the round and
    edges remaining after it — and ``edges`` the surviving Dataset.

    Hybrid exchange per round: under the broadcast cap the survivor set
    ships once as a sorted int64 array and the edge filter is a fused
    map (zero shuffle); above it degrees come from bucketed
    ``grouped_apply`` and the filter is two hash-join semi-joins, with a
    repartition per round to stop iterative block-count multiplication.
    """
    import ray

    def broadcast_round(edges):
        deg = _driver_merged_degrees(edges)
        surv = np.sort(deg.loc[deg["deg"] >= k, "node"].to_numpy(np.int64))
        sref = ray.put(surv)

        def keep(df: pd.DataFrame) -> pd.DataFrame:
            s = ray.get(sref) if isinstance(sref, ray.ObjectRef) else sref
            if len(s) == 0:
                return df.iloc[0:0]
            u = df["u"].to_numpy(np.int64)
            v = df["v"].to_numpy(np.int64)
            iu = np.minimum(np.searchsorted(s, u), len(s) - 1)
            iv = np.minimum(np.searchsorted(s, v), len(s) - 1)
            return df[(s[iu] == u) & (s[iv] == v)]

        return len(surv), edges.map_batches(keep, batch_format="pandas").materialize()

    def join_round(edges):
        deg = grouped_apply(
            edges.map_batches(_to_ends, batch_format="pandas").map_batches(
                _deg_partial, batch_format="pandas"
            ),
            "node", _deg_merge, num_buckets=num_buckets,
        )
        surv_ds = deg.map_batches(
            lambda df: df.loc[df["deg"] >= k, ["node"]],
            batch_format="pandas",
        ).materialize()  # consumers: count + two semi-joins
        n_nodes = surv_ds.count()
        if n_nodes == 0:
            # hash_join needs a schema on both sides; an empty
            # survivor set means an empty graph — short-circuit
            return 0, edges.map_batches(
                lambda df: df.iloc[0:0], batch_format="pandas"
            ).materialize()
        su = surv_ds.map_batches(
            lambda df: df.rename(columns={"node": "u"}), batch_format="pandas"
        )
        sv = surv_ds.map_batches(
            lambda df: df.rename(columns={"node": "v"}), batch_format="pandas"
        )
        edges = hash_join(
            hash_join(edges, su, on="u", num_buckets=num_buckets),
            sv, on="v", num_buckets=num_buckets,
        )
        # iterative loop: bound the block count before materializing
        # (it otherwise multiplies per round — see CLAUDE.md)
        return n_nodes, edges.repartition(max(1, num_buckets // 8)).materialize()

    edges = edges.materialize()
    stats = []
    for r in range(1, rounds + 1):
        n_nodes, edges = ladder(
            "graphops.kcore_peel", edges.count(), DEFAULT_BROADCAST_CAP,
            lambda: broadcast_round(edges), lambda: join_round(edges))
        stats.append((r, n_nodes, edges.count()))

    stats_df = pd.DataFrame(stats, columns=["round", "n_nodes", "n_edges"])
    for c in stats_df.columns:
        stats_df[c] = stats_df[c].astype(np.int64)
    return stats_df, edges


def _arc_degrees_ds(arcs, *, num_buckets: int):
    """(node, d) out-degree Dataset of a directed arc table (src, dst),
    fully distributed: per-batch (node, d) partial counts shrink the
    shuffle, one bucketed merge finishes it. Exact for any layout."""
    def part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["d"].sum()
        g["d"] = g["d"].astype(np.int64)
        return g

    proj = arcs.map_batches(
        lambda df: pd.DataFrame({
            "node": df["src"].to_numpy(np.int64),
            "d": np.ones(len(df), dtype=np.int64),
        }),
        batch_format="pandas",
    )
    return grouped_apply(proj, "node", part, num_buckets=num_buckets,
                         drop_partial=part)


def _node_state_ladders(name: str, edges, arcs, *, num_buckets: int,
                        small, large):
    """The two rung switches of a node-state loop over a materialized
    canonical edge table (``arcs()`` gives its arc table).
    ``<name>.edges``: the (node, d) degree table from per-batch partials
    merged on the driver (n_nodes <= 2 x n_edges under the cap, no
    grouped_apply barrier), else from the bucketed count over the arcs.
    ``<name>.nodes``: per-node state on the driver, ``small(deg)`` with
    the pandas table sorted by node, else co-partitioned,
    ``large(deg_ds)`` with the Dataset."""
    import pyarrow as pa
    import ray

    def driver_degrees():
        deg = (_driver_merged_degrees(edges).rename(columns={"deg": "d"})
               .sort_values("node", ignore_index=True))
        return len(deg), lambda: deg, lambda: ray.data.from_arrow(
            pa.Table.from_pandas(deg, preserve_index=False))

    def distributed_degrees():
        deg_ds = _arc_degrees_ds(arcs(), num_buckets=num_buckets).materialize()

        def collect():
            deg = _dataset_to_table(deg_ds, ["node", "d"]).to_pandas()
            return deg.sort_values("node", ignore_index=True)

        return deg_ds.count(), collect, lambda: deg_ds

    n, frame, dataset = ladder(f"{name}.edges", edges.count(),
                               DEFAULT_BROADCAST_CAP, driver_degrees,
                               distributed_degrees)
    return ladder(f"{name}.nodes", n, DEFAULT_BROADCAST_CAP,
                  lambda: small(frame()), lambda: large(dataset()))


def _bfs_depths_copart(arcs, nodes_ds, *, seed_mod: int, rounds: int,
                       num_buckets: int):
    """Co-partitioned BFS fallback (n_nodes over the broadcast cap): the depth
    table lives as a Dataset and every round is (frontier ⋈ arcs on
    src) + a bucketed min-depth merge — no O(n_nodes) driver state.
    Bit-matches the broadcast path: depth = first round reached, seeds
    by split_hash(node) % seed_mod == 0 (pinned by the forced-rung
    path-equality pytest)."""
    from .sampling import split_hash

    def seed_filter(df: pd.DataFrame) -> pd.DataFrame:
        node = df["node"].to_numpy(np.int64)
        keep = node[split_hash(node) % seed_mod == 0]
        return pd.DataFrame({"node": keep,
                             "depth": np.zeros(len(keep), dtype=np.int64)})

    def min_depth(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["depth"].min()
        g["depth"] = g["depth"].astype(np.int64)
        return g

    depth_ds = nodes_ds.map_batches(
        seed_filter, batch_format="pandas"
    ).materialize()
    frontier = depth_ds.map_batches(
        lambda df: df[["node"]].rename(columns={"node": "src"}),
        batch_format="pandas",
    )
    for r in range(1, rounds + 1):
        if frontier.count() == 0:
            break
        reached = hash_join(arcs, frontier, on="src",
                            num_buckets=num_buckets)
        cand = reached.map_batches(
            lambda df, _r=r: pd.DataFrame({
                "node": np.unique(df["dst"].to_numpy(np.int64)),
            }).assign(depth=np.int64(_r)),
            batch_format="pandas",
        )
        depth_ds = grouped_apply(
            depth_ds.union(cand), "node", min_depth,
            num_buckets=num_buckets, drop_partial=min_depth,
        ).repartition(max(1, num_buckets // 8)).materialize()
        frontier = depth_ds.map_batches(
            lambda df, _r=r: df.loc[df["depth"] == _r, ["node"]].rename(
                columns={"node": "src"}),
            batch_format="pandas",
        )
    return depth_ds


def bfs_depths(edges, *, seed_mod: int = 97, rounds: int = 3,
               num_buckets: int = 64):
    """Multi-source BFS depth assignment over a canonical distinct edge
    table (int64 ``u < v``) — the frontier-expansion primitive (the
    reference's component search is single-source BFS, heuristics.rs:
    10-58; this is its distributed multi-source generalization). Seeds
    are the nodes with ``split_hash(node) % seed_mod == 0`` (a pure
    function of the id, so the seed set is layout-independent and
    SQL-mirrorable); ``rounds`` frontier expansions assign
    ``depth = first round reached`` (0 for seeds). Returns a Dataset
    ``(node, depth)`` over reached nodes.

    Scale shape (:func:`_node_state_ladders`): under the broadcast cap
    the frontier ships once per round as a sorted int64 array and
    reached-neighbour partials are pre-deduped per batch (driver union
    bounded by n_nodes); above the cap it switches to
    :func:`_bfs_depths_copart` — depth table stays a Dataset, each
    round is one bucketed hash-join + min-depth merge, no O(n_nodes)
    driver state. Both paths are bit-identical (forced-rung
    path-equality pytest).
    """
    from .sampling import check_hash_mod

    check_hash_mod(seed_mod, "seed_mod")
    import ray

    from .sampling import split_hash

    edges = edges.materialize()
    arcs = functools.cache(
        lambda: edges.map_batches(_both_arcs, batch_format="pandas").materialize())

    def on_driver(deg: pd.DataFrame):
        nodes = deg["node"].to_numpy(np.int64)
        depth = np.full(len(nodes), -1, dtype=np.int64)
        seeds = nodes[split_hash(nodes) % seed_mod == 0]
        depth[np.searchsorted(nodes, seeds)] = 0

        frontier = seeds
        for r in range(1, rounds + 1):
            if len(frontier) == 0:
                break
            fref = ray.put(np.sort(frontier))

            def reach(df: pd.DataFrame, _f=fref) -> pd.DataFrame:
                f = ray.get(_f) if isinstance(_f, ray.ObjectRef) else _f
                u = df["u"].to_numpy(np.int64)
                v = df["v"].to_numpy(np.int64)
                iu = np.minimum(np.searchsorted(f, u), len(f) - 1)
                iv = np.minimum(np.searchsorted(f, v), len(f) - 1)
                out = np.concatenate([v[f[iu] == u], u[f[iv] == v]])
                return pd.DataFrame({"node": np.unique(out)})

            pieces = [
                b["node"].to_numpy(np.int64)
                for b in edges.map_batches(reach, batch_format="pandas")
                .iter_batches(batch_format="pandas", batch_size=None)
            ]
            reached = np.unique(np.concatenate(pieces)) if pieces else (
                np.array([], dtype=np.int64))
            pos = np.searchsorted(nodes, reached)
            new_mask = depth[pos] < 0
            frontier = reached[new_mask]
            depth[pos[new_mask]] = r

        keep = depth >= 0
        return ray.data.from_pandas(pd.DataFrame(
            {"node": nodes[keep], "depth": depth[keep]}
        ))

    return _node_state_ladders(
        "graphops.bfs_depths", edges, arcs, num_buckets=num_buckets,
        small=on_driver,
        large=lambda deg_ds: _bfs_depths_copart(
            arcs(), deg_ds, seed_mod=seed_mod, rounds=rounds,
            num_buckets=num_buckets))


#: LCG constants for the deterministic walk-step hash (POSIX rand):
#: h(cur, step) = (cur * _WALK_A + step * _WALK_C) % _WALK_M, neighbor
#: index = h % deg. All int64-safe for node ids < 2^31 (no overflow:
#: 2^31 * _WALK_A < 2^63) and expressible verbatim in SQL BIGINT math.
_WALK_A = 1103515245
_WALK_C = 12345
_WALK_M = 2147483647


def random_walks(edges, length: int = 3, *, num_buckets: int = 64):
    """Deterministic random walks over a canonical distinct edge table
    (int64 ``u < v``) — the DeepWalk/node2vec corpus-generation step,
    made bit-reproducible: one walk starts at every non-isolated node,
    and step ``t`` moves from ``cur`` to its neighbour with index
    ``((cur * A + t * C) % M) % deg(cur)`` in the dst-ascending
    neighbour order. Pure integer arithmetic, so walks are independent
    of block layout / cluster width AND SQL-mirrorable by ``length``
    unrolled join CTEs. Returns a Dataset with columns
    ``(start, c1, ..., c<length>)``, one row per start node.

    Scale shape: under the broadcast cap the CSR adjacency (sorted
    nodes, offsets, dst array) ships once and all ``length`` steps are
    vectorized gathers inside one fused map — zero shuffle; above the
    cap each step is a (cur ⋈ deg) + ((src, rnk) ⋈ adj) bucketed
    hash-join pair (documented fallback).
    """
    import ray

    edges = edges.materialize()

    def to_arcs(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        # ids must stay < 2^31 so cur * _WALK_A fits int64 — reject
        # loudly rather than silently wrap away from the SQL mirror
        # (same convention as _pack_edge / sampling.split_hash)
        if len(u) and (
            int(u.min()) < 0 or int(v.min()) < 0
            or int(u.max()) >= 1 << 31 or int(v.max()) >= 1 << 31
        ):
            raise ValueError("random_walks needs node ids in [0, 2^31)")
        return pd.DataFrame({
            "src": np.concatenate([u, v]),
            "dst": np.concatenate([v, u]),
        })

    cols = ["start"] + [f"c{t}" for t in range(1, length + 1)]

    def broadcast():
        # CSR build on the driver, bounded by 2 x cap arc rows
        pieces = [
            b for b in edges.map_batches(to_arcs, batch_format="pandas")
            .iter_batches(batch_format="pandas", batch_size=None)
        ]
        arcs = pd.concat(pieces, ignore_index=True)
        src = arcs["src"].to_numpy(np.int64)
        dst = arcs["dst"].to_numpy(np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        nodes = np.unique(src)
        offsets = np.searchsorted(src, nodes)  # deg = next offset - offset
        offsets = np.append(offsets, len(src))
        csr_ref = ray.put((nodes, offsets, dst))

        def walk(df: pd.DataFrame) -> pd.DataFrame:
            nodes_, off_, dst_ = (
                ray.get(csr_ref) if isinstance(csr_ref, ray.ObjectRef) else csr_ref
            )
            cur = df["start"].to_numpy(np.int64)
            out = {"start": cur}
            for t in range(1, length + 1):
                pos = np.searchsorted(nodes_, cur)
                deg = off_[pos + 1] - off_[pos]
                h = (cur * _WALK_A + t * _WALK_C) % _WALK_M
                cur = dst_[off_[pos] + h % deg]
                out[f"c{t}"] = cur
            return pd.DataFrame(out)

        starts = ray.data.from_pandas(pd.DataFrame({"start": nodes}))
        # respect the input's parallelism for the fused walk map
        starts = starts.repartition(max(1, min(num_buckets, len(nodes) // 4096 + 1)))
        return starts.map_batches(walk, batch_format="pandas")

    def join():
        # per-step hash joins over a ranked adjacency
        arcs = edges.map_batches(to_arcs, batch_format="pandas")

        def rank_group(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values(["src", "dst"], kind="mergesort", ignore_index=True)
            g = df.groupby("src")
            df["rnk"] = g.cumcount().astype(np.int64)
            df["deg"] = g["dst"].transform("size").astype(np.int64)
            return df

        adj = grouped_apply(arcs, "src", rank_group, num_buckets=num_buckets
                            ).materialize()  # one consumer per step
        deg = adj.map_batches(
            lambda df: df.loc[df["rnk"] == 0, ["src", "deg"]].rename(
                columns={"src": "node"}),
            batch_format="pandas",
        ).materialize()
        frontier = deg.map_batches(
            lambda df: pd.DataFrame({"start": df["node"].to_numpy(np.int64),
                                     "cur": df["node"].to_numpy(np.int64)}),
            batch_format="pandas",
        )
        for t in range(1, length + 1):
            with_deg = hash_join(
                frontier.map_batches(
                    lambda df: df.rename(columns={"cur": "node"}),
                    batch_format="pandas"),
                deg, on="node", num_buckets=num_buckets,
            )

            def pick(df: pd.DataFrame, _t=t) -> pd.DataFrame:
                cur = df["node"].to_numpy(np.int64)
                h = (cur * _WALK_A + _t * _WALK_C) % _WALK_M
                out = df.drop(columns=["deg"]).rename(columns={"node": "src"})
                out["rnk"] = h % df["deg"].to_numpy(np.int64)
                return out

            stepped = hash_join(
                with_deg.map_batches(pick, batch_format="pandas"),
                adj.map_batches(lambda df: df.drop(columns=["deg"]),
                                batch_format="pandas"),
                on=["src", "rnk"], num_buckets=num_buckets,
            )
            frontier = stepped.map_batches(
                lambda df, _t=t: df.drop(columns=["src", "rnk"]).rename(
                    columns={"dst": f"c{_t}"}).assign(cur=df["dst"].to_numpy(np.int64)),
                batch_format="pandas",
            ).repartition(max(1, num_buckets // 8)).materialize()
        return frontier.map_batches(
            lambda df: df[cols], batch_format="pandas"
        )

    n_edges = edges.count()
    if n_edges == 0:  # an explicit schema (the joins of the large rung need one)
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({c: pa.array([], pa.int64()) for c in cols}))
    return ladder("graphops.random_walks", n_edges, DEFAULT_BROADCAST_CAP,
                  broadcast, join)


def _pagerank_copart(arcs, deg_ds, n, *, iters: int, scale: int,
                     damp_num: int, damp_den: int, num_buckets: int):
    """Co-partitioned PageRank fallback (n_nodes over the broadcast cap): the
    rank table lives as a Dataset ``(node, r)`` and every round is
    (ranks ⋈ degrees) → per-arc contrib join → bucketed (dst, sum)
    merge → left-join back onto the node set. All int64 floor-division
    arithmetic, so it bit-matches the broadcast path regardless of
    block layout (pinned by the forced-rung path-equality pytest)."""
    base = (scale * (damp_den - damp_num)) // (damp_den * n)
    r0 = scale // n

    nodes_ds = deg_ds.map_batches(
        lambda df: df[["node"]], batch_format="pandas"
    ).materialize()
    ranks = nodes_ds.map_batches(
        lambda df: df.assign(r=np.int64(r0)), batch_format="pandas"
    )

    def sum_s(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["s"].sum()
        g["s"] = g["s"].astype(np.int64)
        return g

    for _ in range(iters):
        rd = hash_join(ranks, deg_ds, on="node", num_buckets=num_buckets)
        contrib = rd.map_batches(
            lambda df: pd.DataFrame({
                "src": df["node"].to_numpy(np.int64),
                "c": df["r"].to_numpy(np.int64) // df["d"].to_numpy(np.int64),
            }),
            batch_format="pandas",
        )
        per_arc = hash_join(arcs, contrib, on="src", num_buckets=num_buckets)
        sums = grouped_apply(
            per_arc.map_batches(
                lambda df: pd.DataFrame({
                    "node": df["dst"].to_numpy(np.int64),
                    "s": df["c"].to_numpy(np.int64),
                }),
                batch_format="pandas",
            ),
            "node", sum_s, num_buckets=num_buckets, drop_partial=sum_s,
        )
        with_s = hash_join(nodes_ds, sums, on="node", how="left",
                           num_buckets=num_buckets)
        ranks = with_s.map_batches(
            lambda df: pd.DataFrame({
                "node": df["node"].to_numpy(np.int64),
                # nodes with no in-arc surface as NaN from the left join
                "r": base + (damp_num * df["s"].fillna(0).astype(np.int64)
                             .to_numpy(np.int64)) // damp_den,
            }),
            batch_format="pandas",
        ).repartition(max(1, num_buckets // 8)).materialize()
    return ranks


def pagerank_int(edges, *, iters: int = 3, scale: int = 1 << 40,
                 damp_num: int = 85, damp_den: int = 100,
                 num_buckets: int = 64):
    """Integer-exact PageRank over an undirected canonical edge table
    (int64 ``u < v``): ``iters`` power-iteration rounds with all-integer
    damping arithmetic —

        contrib(u)  = r_t(u) // outdeg(u)
        r_{t+1}(v)  = (S*(den-num)) // (den*N)
                      + (num * sum_in_arcs(contrib)) // den

    (S = ``scale`` total mass). Floor division everywhere makes every
    round a pure int64 function of the graph, so a fixed-``iters`` run
    is bit-reproducible across block layouts / cluster widths AND
    SQL-mirrorable by unrolled join-aggregate CTEs — the property the
    float formulation can never have (block-order-dependent float sums).

    Scale shape (:func:`_node_state_ladders`): under the broadcast
    cap the rank vector rides the
    object store as a sorted BroadcastIndex and each round is ONE
    streaming pass over the arcs (per-batch (dst, sum) partials merged
    on the driver, bounded by n_nodes — the same cap the broadcast
    needs). Above the cap it switches to :func:`_pagerank_copart`:
    ranks live as a co-partitioned Dataset and every round is two
    bucketed hash-joins + one grouped sum — no O(n_nodes) worker or
    driver state. Integer arithmetic makes the two paths bit-identical
    (forced-rung path-equality pytest). Returns a pandas (node, r)
    frame (the result is O(n_nodes) by definition; at cluster scale
    consume the co-part path's Dataset upstream of the collect).
    """
    import ray

    from .joins import BroadcastIndex

    edges = edges.materialize()
    if edges.count() == 0:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "r": pd.Series(dtype=np.int64)})
    arcs = edges.map_batches(_both_arcs, batch_format="pandas").materialize()

    def on_driver(deg: pd.DataFrame) -> pd.DataFrame:
        n = len(deg)
        nodes = deg["node"].to_numpy(np.int64)
        degs = deg["d"].to_numpy(np.int64)
        base = (scale * (damp_den - damp_num)) // (damp_den * n)
        ranks = np.full(n, scale // n, dtype=np.int64)

        for _ in range(iters):
            idx = BroadcastIndex(nodes, {"c": ranks // degs})
            cref = ray.put(idx)

            def contrib_partial(df: pd.DataFrame) -> pd.DataFrame:
                ix = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
                c = ix.lookup(df["src"].to_numpy(np.int64), "c")
                g = pd.DataFrame({"dst": df["dst"].to_numpy(np.int64), "s": c})
                g = g.groupby("dst", as_index=False)["s"].sum()
                g["s"] = g["s"].astype(np.int64)
                return g

            parts = [
                b for b in arcs.map_batches(contrib_partial, batch_format="pandas")
                .iter_batches(batch_format="pandas", batch_size=None)
            ]
            agg = pd.concat(parts, ignore_index=True).groupby("dst", as_index=False)["s"].sum()
            s = np.zeros(n, dtype=np.int64)
            pos = np.searchsorted(nodes, agg["dst"].to_numpy(np.int64))
            s[pos] = agg["s"].to_numpy(np.int64)
            ranks = base + (damp_num * s) // damp_den

        return pd.DataFrame({"node": nodes, "r": ranks})

    def co_partitioned(deg_ds) -> pd.DataFrame:
        ranks_ds = _pagerank_copart(
            arcs, deg_ds, deg_ds.count(), iters=iters, scale=scale,
            damp_num=damp_num, damp_den=damp_den, num_buckets=num_buckets,
        )
        out = _dataset_to_table(ranks_ds, ["node", "r"]).to_pandas()
        return out.sort_values("node", ignore_index=True)

    return _node_state_ladders(
        "graphops.pagerank_int", edges, lambda: arcs, num_buckets=num_buckets,
        small=on_driver, large=co_partitioned)


def _sssp_copart(arcs_w, nodes_ds, *, seed_mod: int, rounds: int,
                 num_buckets: int):
    """Co-partitioned bounded Bellman-Ford fallback (n_nodes >
    the broadcast cap): the distance table stays a Dataset; every round is
    (changed frontier ⋈ weighted arcs on src) + a bucketed min-merge
    that also DETECTS improvement (new < old) to form the next
    frontier — no O(n_nodes) driver state. Bit-matches the broadcast
    path (forced-rung path-equality pytest)."""
    from .sampling import split_hash

    big = np.int64(1 << 62)

    def seed_filter(df: pd.DataFrame) -> pd.DataFrame:
        node = df["node"].to_numpy(np.int64)
        keep = node[split_hash(node) % seed_mod == 0]
        return pd.DataFrame({"node": keep,
                             "dist": np.zeros(len(keep), dtype=np.int64),
                             "new": np.ones(len(keep), dtype=np.int64)})

    empty = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                          "dist": pd.Series(dtype=np.int64),
                          "new": pd.Series(dtype=np.int64)})

    def pre_min(df: pd.DataFrame) -> pd.DataFrame:
        if "node" not in df.columns:   # 0-row blocks drop their schema
            return empty.copy()
        g = df.groupby(["node", "new"], as_index=False)["dist"].min()
        g["dist"] = g["dist"].astype(np.int64)
        return g

    def min_merge(df: pd.DataFrame) -> pd.DataFrame:
        if "node" not in df.columns:
            return empty.copy()
        g = df.groupby(["node", "new"], as_index=False)["dist"].min()
        old = g[g["new"] == 0].set_index("node")["dist"]
        new = g[g["new"] == 1].set_index("node")["dist"]
        nodes = g["node"].unique()
        o = old.reindex(nodes).fillna(big).to_numpy(np.int64)
        nv = new.reindex(nodes).fillna(big).to_numpy(np.int64)
        improved = nv < o
        return pd.DataFrame({
            "node": nodes.astype(np.int64),
            "dist": np.minimum(o, nv).astype(np.int64),
            "new": improved.astype(np.int64),
        })

    dist_ds = nodes_ds.map_batches(
        seed_filter, batch_format="pandas").materialize()
    for _r in range(rounds):
        frontier = dist_ds.map_batches(
            lambda df: df.loc[df["new"] == 1, ["node", "dist"]].rename(
                columns={"node": "src"}),
            batch_format="pandas",
        )
        if frontier.count() == 0:
            break
        reached = hash_join(arcs_w, frontier, on="src",
                            num_buckets=num_buckets)
        cand = reached.map_batches(
            lambda df: pd.DataFrame({
                "node": df["dst"].to_numpy(np.int64),
                "dist": (df["dist"].to_numpy(np.int64)
                         + df["w"].to_numpy(np.int64)),
                "new": np.ones(len(df), dtype=np.int64),
            }),
            batch_format="pandas",
        )
        base = dist_ds.map_batches(
            lambda df: df.assign(new=np.zeros(len(df), dtype=np.int64)),
            batch_format="pandas",
        )
        dist_ds = grouped_apply(
            base.union(cand), "node", min_merge,
            num_buckets=num_buckets, drop_partial=pre_min,
        ).repartition(max(1, num_buckets // 8)).materialize()
    return dist_ds.map_batches(lambda df: df[["node", "dist"]],
                               batch_format="pandas")


def sssp_rounds(edges, *, seed_mod: int = 97, rounds: int = 4,
                weight_mod: int = 9, num_buckets: int = 64):
    """Bounded multi-source WEIGHTED shortest paths (Bellman-Ford
    relaxation rounds) over a canonical distinct edge table (int64
    ``u < v``): weight w(u, v) = 1 + (u + v) % ``weight_mod`` — a pure
    function of the ids, so the weighted graph is SQL-mirrorable —
    seeds = split_hash(node) % ``seed_mod`` == 0 at distance 0, and
    after k rounds dist(v) = min total weight over paths of <= k edges
    from any seed (exact SSSP once rounds >= weighted diameter).
    Returns (node, dist) over reached nodes.

    Frontier-optimized: only nodes IMPROVED in the previous round
    relax their arcs — identical to full relaxation because distances
    are monotone non-increasing and an unimproved node's contribution
    was already integrated. Under the broadcast cap
    (:func:`_node_state_ladders`) the changed set ships per round as
    sorted (nodes, dists) arrays with per-batch partial mins; above it,
    :func:`_sssp_copart` keeps the distance table distributed (same
    shape as the BFS fallback)."""
    from .sampling import check_hash_mod

    check_hash_mod(seed_mod, "seed_mod")
    import ray

    from .sampling import split_hash

    edges = edges.materialize()

    def to_arcs(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        w = 1 + (u + v) % np.int64(weight_mod)
        return pd.DataFrame({
            "src": np.concatenate([u, v]),
            "dst": np.concatenate([v, u]),
            "w": np.concatenate([w, w]),
        })

    arcs = functools.cache(
        lambda: edges.map_batches(to_arcs, batch_format="pandas").materialize())

    def on_driver(deg: pd.DataFrame):
        nodes = deg["node"].to_numpy(np.int64)
        big = np.int64(1 << 62)
        dist = np.full(len(nodes), big, dtype=np.int64)
        seeds = nodes[split_hash(nodes) % seed_mod == 0]
        dist[np.searchsorted(nodes, seeds)] = 0
        changed = seeds
        for _r in range(rounds):
            if len(changed) == 0:
                break
            order = np.argsort(changed)
            csort = changed[order]
            cdist = dist[np.searchsorted(nodes, csort)]
            fref = ray.put((csort, cdist))

            def relax(df: pd.DataFrame, _f=fref) -> pd.DataFrame:
                f, fd = ray.get(_f) if isinstance(_f, ray.ObjectRef) else _f
                u = df["u"].to_numpy(np.int64)
                v = df["v"].to_numpy(np.int64)
                w = 1 + (u + v) % np.int64(weight_mod)
                outs_n, outs_d = [], []
                # f is never empty here: the round loop breaks on an
                # empty changed set before shipping it
                for a, b in ((u, v), (v, u)):
                    ia = np.minimum(np.searchsorted(f, a), len(f) - 1)
                    hit = f[ia] == a
                    outs_n.append(b[hit])
                    outs_d.append(fd[ia[hit]] + w[hit])
                t = pd.DataFrame({"node": np.concatenate(outs_n),
                                  "d": np.concatenate(outs_d)})
                g = t.groupby("node", as_index=False)["d"].min()
                g["d"] = g["d"].astype(np.int64)
                return g

            pieces = [
                b for b in edges.map_batches(relax, batch_format="pandas")
                .iter_batches(batch_format="pandas", batch_size=None)
            ]
            if not pieces:
                break
            cand = (pd.concat(pieces, ignore_index=True)
                    .groupby("node", as_index=False)["d"].min())
            pos = np.searchsorted(nodes, cand["node"].to_numpy(np.int64))
            nd = cand["d"].to_numpy(np.int64)
            better = nd < dist[pos]
            dist[pos[better]] = nd[better]
            changed = cand["node"].to_numpy(np.int64)[better]

        keep = dist < big
        return ray.data.from_pandas(pd.DataFrame(
            {"node": nodes[keep], "dist": dist[keep]}
        ))

    return _node_state_ladders(
        "graphops.sssp_rounds", edges, arcs, num_buckets=num_buckets,
        small=on_driver,
        large=lambda deg_ds: _sssp_copart(
            arcs(), deg_ds, seed_mod=seed_mod, rounds=rounds,
            num_buckets=num_buckets))


# ------------------------------------------------------------------- HITS


def _hits_arc_degrees(arcs, col: str, num_buckets: int) -> "pd.DataFrame":
    """Per-batch (node, count) partials over one arc endpoint, merged on
    the driver — bounded by n_nodes, same cap the broadcast path needs."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(col, as_index=False).size()
        return pd.DataFrame({"node": g[col].to_numpy(np.int64),
                             "c": g["size"].to_numpy(np.int64)})

    parts = [b for b in arcs.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas", batch_size=None)]
    if not parts:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "c": pd.Series(dtype=np.int64)})
    g = pd.concat(parts, ignore_index=True).groupby(
        "node", as_index=False)["c"].sum()
    g["c"] = g["c"].astype(np.int64)
    return g


def hits_int(arcs, *, iters: int = 2, scale: int = 1 << 20,
             num_buckets: int = 64):
    """Integer-exact HITS (hubs & authorities) over a DIRECTED arc
    table ``(src, dst)`` int64. Classic HITS L2-normalizes each round
    (block-order-dependent float sums); this formulation rescales by
    the round MAX instead — max of int64 sums is exact and order-free:

        a'(v) = sum_{u->v} h(u);   a(v) = (a'(v) * scale) // max a'
        h'(u) = sum_{u->v} a(v);   h(u) = (h'(u) * scale) // max h'

    with h0 = scale everywhere. Every round is a pure int64 function
    of the graph, so a fixed-``iters`` run is bit-reproducible across
    layouts and SQL-mirrorable with unrolled join-aggregate CTEs.
    Overflow bound: a' <= max_indeg * scale, so the rescale product
    needs max_deg * scale^2 < 2^63 — the default 2^20 scale is safe to
    max degree 2^22 (guarded below).

    Scale shape mirrors :func:`pagerank_int`: under the broadcast cap
    the score vector ships once per half-round as a BroadcastIndex and
    each half-round is ONE streaming pass over the arcs (per-batch
    (node, sum) partials, driver merge bounded by n_nodes); above the
    cap scores live as a co-partitioned Dataset and each half-round is
    a bucketed hash-join + grouped sum (no O(n) driver state) — the
    round max is a per-block max partial either way. Forced-rung
    path-equality pytest pins both bit-identical. Returns pandas
    (node, auth, hub) sorted by node.
    """
    import ray

    from .joins import BroadcastIndex

    arcs = arcs.materialize()
    indeg = _hits_arc_degrees(arcs, "dst", num_buckets)
    outdeg = _hits_arc_degrees(arcs, "src", num_buckets)
    nodes = np.union1d(indeg["node"].to_numpy(np.int64),
                       outdeg["node"].to_numpy(np.int64))
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "auth": pd.Series(dtype=np.int64),
                             "hub": pd.Series(dtype=np.int64)})
    max_deg = max(int(indeg["c"].max()) if len(indeg) else 0,
                  int(outdeg["c"].max()) if len(outdeg) else 0)
    if max_deg * scale * scale >= (1 << 63):
        raise ValueError(f"scale {scale} overflows at max degree {max_deg}")

    def on_driver():
        hub = np.full(n, scale, dtype=np.int64)
        auth = np.zeros(n, dtype=np.int64)

        def half_round(vec: np.ndarray, src_col: str, dst_col: str) -> np.ndarray:
            idx = BroadcastIndex(nodes, {"x": vec})
            ref = ray.put(idx)

            def partial(df: pd.DataFrame) -> pd.DataFrame:
                ix = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
                x = ix.lookup(df[src_col].to_numpy(np.int64), "x")
                g = pd.DataFrame({"node": df[dst_col].to_numpy(np.int64),
                                  "s": x})
                g = g.groupby("node", as_index=False)["s"].sum()
                g["s"] = g["s"].astype(np.int64)
                return g

            parts = [b for b in arcs.map_batches(partial, batch_format="pandas")
                     .iter_batches(batch_format="pandas", batch_size=None)]
            out = np.zeros(n, dtype=np.int64)
            if parts:
                agg = pd.concat(parts, ignore_index=True).groupby(
                    "node", as_index=False)["s"].sum()
                pos = np.searchsorted(nodes, agg["node"].to_numpy(np.int64))
                out[pos] = agg["s"].to_numpy(np.int64)
            m = int(out.max())
            if m > 0:
                out = (out * scale) // m
            return out

        for _ in range(iters):
            auth = half_round(hub, "src", "dst")
            hub = half_round(auth, "dst", "src")
        return pd.DataFrame({"node": nodes, "auth": auth, "hub": hub})

    def co_partitioned():
        # scores live as a Dataset: no O(n) driver state per round
        nodes_ds = ray.data.from_pandas(pd.DataFrame({"node": nodes})).materialize()

        def sum_s(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("node", as_index=False)["s"].sum()
            g["s"] = g["s"].astype(np.int64)
            return g

        def half_round_ds(scores, src_col: str, dst_col: str):
            per_arc = hash_join(
                arcs.map_batches(
                    lambda df, s=src_col, d=dst_col: pd.DataFrame({
                        "node": df[s].to_numpy(np.int64),
                        "__dst": df[d].to_numpy(np.int64)}),
                    batch_format="pandas"),
                scores, on="node", num_buckets=num_buckets)
            sums = grouped_apply(
                per_arc.map_batches(
                    lambda df: pd.DataFrame({
                        "node": df["__dst"].to_numpy(np.int64),
                        "s": df["x"].to_numpy(np.int64)}),
                    batch_format="pandas"),
                "node", sum_s, num_buckets=num_buckets, drop_partial=sum_s)
            sums = sums.materialize()
            parts = [b["m"] for b in sums.map_batches(
                lambda df: pd.DataFrame({"m": [np.int64(df["s"].max()) if len(df) else np.int64(0)]}),
                batch_format="pandas").iter_batches(batch_format="pandas",
                                                    batch_size=None)]
            m = int(max((int(p.max()) for p in parts if len(p)), default=0))
            out = hash_join(nodes_ds, sums, on="node", how="left",
                            num_buckets=num_buckets)
            return out.map_batches(
                lambda df, mm=m: pd.DataFrame({
                    "node": df["node"].to_numpy(np.int64),
                    "x": ((df["s"].fillna(0).astype(np.int64).to_numpy(np.int64)
                           * scale) // mm) if mm > 0
                    else np.zeros(len(df), np.int64)}),
                batch_format="pandas",
            ).repartition(max(1, num_buckets // 8)).materialize()

        hub_ds = nodes_ds.map_batches(
            lambda df: df.assign(x=np.int64(scale)), batch_format="pandas")
        auth_ds = None
        for _ in range(iters):
            auth_ds = half_round_ds(hub_ds, "src", "dst")
            hub_ds = half_round_ds(auth_ds, "dst", "src")
        a = _dataset_to_table(auth_ds).to_pandas().rename(columns={"x": "auth"})
        h = _dataset_to_table(hub_ds).to_pandas().rename(columns={"x": "hub"})
        out = a.merge(h, on="node").sort_values("node", ignore_index=True)
        return out[["node", "auth", "hub"]]

    return ladder("graphops.hits_int", n, DEFAULT_BROADCAST_CAP, on_driver,
                  co_partitioned)


# -------------------------------------------------------- link prediction


def link_prediction(edges, *, scale: int = 1 << 20, min_common: int = 1,
                    degree_cap: int = 10_000, num_buckets: int = 64):
    """Common-neighbor / Adamic-Adar link prediction over a canonical
    undirected edge table (int64 ``u < v``): for every NON-adjacent
    pair sharing >= ``min_common`` neighbors, emit

        cn = |N(u) ∩ N(v)|
        aa = sum over common neighbors w of (scale // deg(w))

    — the integer Adamic-Adar (floor-scaled inverse degree replaces
    1/log deg so int64 sums keep the score order-free and
    SQL-mirrorable).

    Scale shape: the wedge enumeration is the posting-list pattern
    (dedup.shared_key_pairs): ONE center-node bucket shuffle puts every
    arc with dst = w in one bucket, so deg(w) and the complete neighbor
    set are local; per-center triu pair emission is pre-summed per
    block before the tiny int-pair merge shuffle. Centers above
    ``degree_cap`` are skipped with a log line (a celebrity node emits
    quadratically; its common-neighbor evidence is the least specific).
    Adjacency exclusion rides the SAME pair merge: edges union in
    tagged ``is_edge=1`` and tagged groups drop in the bucket — no
    extra join, no driver state. Returns a Dataset
    ``(u, v, cn, aa)``; collect behind your own cap.
    """
    import logging

    import ray

    from .joins import grouped_apply

    log = logging.getLogger(__name__)
    empty = pd.DataFrame({"u": pd.Series(dtype=np.int64),
                          "v": pd.Series(dtype=np.int64),
                          "cn": pd.Series(dtype=np.int64),
                          "aa": pd.Series(dtype=np.int64),
                          "is_edge": pd.Series(dtype=np.int64)})

    def to_arcs(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        return pd.DataFrame({"src": np.concatenate([u, v]),
                             "dst": np.concatenate([v, u])})

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["src", "dst"])

    def center_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for w, g in df.groupby("dst", sort=False):
            ids = np.unique(g["src"].to_numpy(np.int64))
            d = len(ids)
            if d < 2:
                continue
            if d > degree_cap:
                log.info("link_prediction: center %s degree %d skipped "
                         "(> degree_cap=%d)", w, d, degree_cap)
                continue
            wgt = scale // d
            ia, ib = np.triu_indices(d, k=1)
            outs.append(pd.DataFrame({
                "u": ids[ia], "v": ids[ib],
                "cn": np.int64(1), "aa": np.int64(wgt)}))
        if not outs:
            return empty.copy()
        t = pd.concat(outs, ignore_index=True)
        g = t.groupby(["u", "v"], as_index=False).agg(
            cn=("cn", "sum"), aa=("aa", "sum"))
        g["cn"] = g["cn"].astype(np.int64)
        g["aa"] = g["aa"].astype(np.int64)
        g["is_edge"] = np.int64(0)
        return g

    arcs = edges.map_batches(to_arcs, batch_format="pandas")
    cand = grouped_apply(arcs, "dst", center_pairs,
                         num_buckets=num_buckets, drop_partial=pre)
    tagged = edges.map_batches(
        lambda df: pd.DataFrame({
            "u": df["u"].to_numpy(np.int64),
            "v": df["v"].to_numpy(np.int64),
            "cn": np.int64(0), "aa": np.int64(0),
            "is_edge": np.int64(1)}),
        batch_format="pandas")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], as_index=False).agg(
            cn=("cn", "sum"), aa=("aa", "sum"), is_edge=("is_edge", "max"))
        g = g[(g["is_edge"] == 0) & (g["cn"] >= min_common)]
        return pd.DataFrame({"u": g["u"].to_numpy(np.int64),
                             "v": g["v"].to_numpy(np.int64),
                             "cn": g["cn"].to_numpy(np.int64),
                             "aa": g["aa"].to_numpy(np.int64)})

    return grouped_apply(cand.union(tagged), ["u", "v"], merge,
                         num_buckets=max(8, num_buckets // 4))


# ------------------------------------------------------- assortativity


def degree_assortativity_stats(edges, *, num_buckets: int = 64) -> pd.DataFrame:
    """Degree-assortativity SUFFICIENT STATISTICS over a canonical
    undirected edge table (int64 ``u < v``): for every ARC (both
    orientations, the standard symmetrization) with endpoint degrees
    (du, dv), the one-row int64 frame

        (m, s_uv, s_u, s_v, s_uu, s_vv)

    from which Pearson degree-degree r derives exactly downstream
    ((m*s_uv - s_u*s_v) / sqrt((m*s_uu - s_u^2)*(m*s_vv - s_v^2))) —
    the register-table trick applied to graph mixing: the distributed
    output is pure integer sums, order-free and SQL-mirrorable.

    Scale shape (:func:`_node_state_ladders`): degrees broadcast under
    the cap (one fused pass over the edges, per-batch partial sums);
    above the cap two bucketed hash-joins attach du/dv and the same
    partials merge — forced-rung pytest pins the paths bit-equal."""
    import ray

    from .joins import BroadcastIndex

    cols = ["m", "s_uv", "s_u", "s_v", "s_uu", "s_vv"]

    def arc_stats(du: np.ndarray, dv: np.ndarray) -> pd.DataFrame:
        # both orientations: (du,dv) and (dv,du)
        a = np.concatenate([du, dv]); b = np.concatenate([dv, du])
        return pd.DataFrame({
            "m": [np.int64(len(a))], "s_uv": [np.int64((a * b).sum())],
            "s_u": [np.int64(a.sum())], "s_v": [np.int64(b.sum())],
            "s_uu": [np.int64((a * a).sum())],
            "s_vv": [np.int64((b * b).sum())]})

    edges = edges.materialize()

    def broadcast(deg: pd.DataFrame) -> pd.DataFrame:
        idx = BroadcastIndex(deg["node"].to_numpy(np.int64),
                             {"d": deg["d"].to_numpy(np.int64)})
        ref = ray.put(idx)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            ix = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            du = ix.lookup(df["u"].to_numpy(np.int64), "d")
            dv = ix.lookup(df["v"].to_numpy(np.int64), "d")
            return arc_stats(du, dv)

        return edges.map_batches(partial, batch_format="pandas").to_pandas()

    def join(deg_ds) -> pd.DataFrame:
        # never collects the degree table: two bucketed hash-joins
        # attach endpoint degrees
        j1 = hash_join(
            edges, deg_ds.map_batches(
                lambda df: pd.DataFrame({
                    "u": df["node"].to_numpy(np.int64),
                    "du": df["d"].to_numpy(np.int64)}),
                batch_format="pandas"),
            on="u", num_buckets=num_buckets)
        j2 = hash_join(
            j1, deg_ds.map_batches(
                lambda df: pd.DataFrame({
                    "v": df["node"].to_numpy(np.int64),
                    "dv": df["d"].to_numpy(np.int64)}),
                batch_format="pandas"),
            on="v", num_buckets=num_buckets)
        return j2.map_batches(
            lambda df: arc_stats(df["du"].to_numpy(np.int64),
                                 df["dv"].to_numpy(np.int64)),
            batch_format="pandas").to_pandas()

    if edges.count() == 0:
        return pd.DataFrame({c: [np.int64(0)] for c in cols})
    parts = _node_state_ladders(
        "graphops.degree_assortativity_stats", edges,
        lambda: edges.map_batches(_both_arcs, batch_format="pandas"),
        num_buckets=num_buckets, small=broadcast, large=join)
    out = parts[cols].sum()
    return pd.DataFrame({c: [np.int64(out[c])] for c in cols})
