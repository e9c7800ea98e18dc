"""Spatial join + kNN snap of pages to street edges via the cell index
(north rule: point-in-cell assignment, k-ring kNN snap, hash-partitioned
cell-to-cell joins with explicit skew-aware repartitioning of hot cells).

Nearest-edge kernel (one for both rungs): the edges are held in a
``cells.KeyIndex`` of key -> edge ids (``_EdgeCSR``, which adds the edge
columns) over a distinct edge table sorted by (u, v), so the integer
edge id IS the (u, v) tie-break. A batch of page rows gathers its
(page row, edge id) candidate pairs with one ragged ``pairs(query_keys)``
call, scores them by planar sqdist and keeps the k nearest distinct
edges per page with one lexsort (``_top_k``); ``_snap_rows`` builds the
output rows.

- Broadcast rung (``knn_snap_broadcast``): the index is keyed by the cells
  each edge covers, built once on the driver and broadcast; every page
  batch queries it with the k-ring of its cells — zero shuffle.
- Partitioned rung (``knn_snap``): both sides are mapped to salted cell
  keys (pages: the point's cell expanded to its k-ring; edges: every
  cell the segment covers), unioned with a side tag and hash-partitioned
  on the key; each bucket builds one index over its deduplicated edge rows
  and queries it with its page rows' keys (no per-cell loop). A second
  partition on url then ranks each url's candidates by (sqdist, u, v) in
  one vectorized pass. Two shuffles total, both keyed on bounded-size
  keys.

Distance kernel: planar point-to-segment in lon/lat space
(geo.point_segment_sqdist — consistent with the reference's planar
midpoint/lerp semantics) ranked by squared distance; the reported
``dist_m`` is the haversine of point -> closest point. Ranking by
planar sqdist uses only exactly-rounded IEEE ops, so results are
bit-reproducible and oracle-checkable.

Skew handling (explicit, per north rule): a pre-pass counts pages per
cell; cells above ``hot_threshold`` get their pages salted into
``ceil(count/hot_threshold)`` sub-groups (deterministic url hash) and
the edge side replicated per salt. The salting decision per cell is
returned as lineage.

Partitioning assumptions (documented): a page's true nearest edge is
found iff that edge covers a cell within ``ring`` of the page's cell —
choose res so cell_size >= the maximum expected snap distance, or raise
``ring``. Cells wrap longitudinally and clamp at the poles (cells.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


from . import cells, geo
from .joins import ladder, stable_hash

_PAGE_SIDE, _EDGE_SIDE = 0, 1
_EDGE_COLS = ["u", "v", "u_lat", "u_lon", "v_lat", "v_lon"]
_COMPACT_DRIVER_CAP = 2_000_000  # distinct cells ``compact_cells`` compacts on the driver


def assign_cells(ds, res: int, lat_col: str = "lat", lon_col: str = "lon", out_col: str = "cell"):
    """Point-in-cell assignment: adds an int64 cell column."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = cells.cell_of(df[lat_col].to_numpy(), df[lon_col].to_numpy(), res)
        return df

    return ds.map_batches(fn, batch_format="pandas")


def page_cell_counts(pages_with_cell):
    """cell -> page count (the skew pre-pass; small result)."""
    from .joins import grouped_apply

    def vc(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cell"].value_counts()
        return pd.DataFrame(
            {"cell": c.index.to_numpy(np.int64), "n_pages": c.to_numpy(np.int64)}
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["n_pages"].sum()
        g["n_pages"] = g["n_pages"].astype(np.int64)
        return g

    return grouped_apply(
        pages_with_cell.map_batches(vc, batch_format="pandas"), "cell", merge
    )


def plan_salts(cell_counts_df: pd.DataFrame, hot_threshold: int) -> dict[int, int]:
    """cell -> number of salt partitions (1 = not hot). Lineage-logged."""
    plan = {}
    if cell_counts_df.empty:  # a 0-row Dataset's to_pandas() has no columns
        return plan
    for cell, n in zip(cell_counts_df["cell"], cell_counts_df["n_pages"]):
        k = max(1, int(np.ceil(n / hot_threshold)))
        if k > 1:
            plan[int(cell)] = k
    return plan


_SALT_BITS = 6  # up to 64 salt partitions per cell
_SALT_MAX = 1 << _SALT_BITS
#: edge rows above which knn_snap_broadcast refuses to broadcast
_BROADCAST_EDGE_CAP = 20_000_000


def _distinct_edges(df: pd.DataFrame):
    """(row -> edge id, distinct edge table) over the ``_EDGE_COLS`` of
    ``df``; ids follow (u, v) order (then coordinates), so the integer
    edge id is the (u, v) tie-break."""
    eid = df.groupby(_EDGE_COLS, sort=True, dropna=False).ngroup().to_numpy(np.int64)
    return eid, df.iloc[np.unique(eid, return_index=True)[1]]


class _EdgeCSR(cells.KeyIndex):
    """``cells.KeyIndex`` of key -> edge ids over a distinct edge table
    sorted by (u, v), plus that table's columns. A key is a cell the
    edge covers, or a salted cell key."""

    def __init__(self, keys: np.ndarray, edge_idx: np.ndarray, edges: pd.DataFrame):
        super().__init__(keys, edge_idx)
        self.u = edges["u"].to_numpy(object)
        self.v = edges["v"].to_numpy(object)
        self.alat, self.alon, self.blat, self.blon = (
            edges[c].to_numpy(np.float64) for c in _EDGE_COLS[2:])


def _top_k(row: np.ndarray, edge_idx: np.ndarray, sqdist: np.ndarray, k: int):
    """(index, rank) of the k nearest distinct edges of every row, in
    (row, sqdist, edge_idx) order: ties on sqdist go to the smaller edge
    id, and a repeated (row, edge) pair counts once."""
    order = np.lexsort((edge_idx, sqdist, row))
    new_row = cells.run_starts(row[order])
    keep = new_row | cells.run_starts(edge_idx[order])
    order, new_row = order[keep], new_row[keep]
    pos = np.arange(len(order))
    rank = pos - np.maximum.accumulate(np.where(new_row, pos, 0))
    return order[rank < k], rank[rank < k]


def _snap_rows(csr: _EdgeCSR, url, lat, lon, cell, rows, keys, k: int) -> pd.DataFrame:
    """The snap output (url, lat, lon, cell, u, v, sqdist, dist_m, rank):
    each page row's k nearest edges among those ``csr`` holds under its
    query keys (``keys[i]`` is a query key of page row ``rows[i]``)."""
    q, e = csr.pairs(keys)
    r = rows[q]
    plat, plon = lat[r], lon[r]
    clat, clon = geo.closest_point(plat, plon, csr.alat[e], csr.alon[e], csr.blat[e], csr.blon[e])
    sq = geo.planar_sqdist(plat, plon, clat, clon)  # == geo.point_segment_sqdist
    sel, rank = _top_k(r, e, sq, k)
    r, e, plat, plon = r[sel], e[sel], plat[sel], plon[sel]
    return pd.DataFrame(
        {
            "url": url[r],
            "lat": plat,
            "lon": plon,
            "cell": cell[r],
            "u": csr.u[e],
            "v": csr.v[e],
            "sqdist": sq[sel],
            "dist_m": geo.haversine_m(plat, plon, clat[sel], clon[sel]),
            "rank": rank,
        }
    )


def knn_snap(
    pages,
    edges_with_coords,
    *,
    res: int,
    k: int = 1,
    ring: int = 1,
    hot_threshold: int = 50_000,
):
    """Snap every page to its k nearest street edges via cell co-grouping.

    pages: Dataset with url, lat, lon (geotagged, deduped).
    edges_with_coords: Dataset with u, v, u_lat, u_lon, v_lat, v_lon.

    Returns (result_ds, lineage) where result_ds has columns
    (url, lat, lon, cell, u, v, sqdist, dist_m, rank) — rank 0 =
    nearest, deterministic tiebreak (sqdist, u, v) — and lineage is a
    dict with the salting plan and parameters.
    """
    pages_c = assign_cells(pages, res)

    counts = page_cell_counts(pages_c).to_pandas()
    salt_plan = plan_salts(counts, hot_threshold)
    if any(v > _SALT_MAX for v in salt_plan.values()):
        raise ValueError(f"salt fan-out exceeds cap {_SALT_MAX}; raise hot_threshold or res")
    lineage = {
        "res": res,
        "ring": ring,
        "k": k,
        "hot_threshold": hot_threshold,
        "n_cells": int(len(counts)),
        "hot_cells": {str(c): int(s) for c, s in sorted(salt_plan.items())},
    }

    import ray

    plan_ref = ray.put(salt_plan)

    def expand_pages(df: pd.DataFrame) -> pd.DataFrame:
        """page -> one row per k-ring cell, salted by url hash in hot cells."""
        plan = ray.get(plan_ref) if isinstance(plan_ref, ray.ObjectRef) else plan_ref
        cell_arr = df["cell"].to_numpy()
        rows, ring_cells = cells.k_ring_many(cell_arr, ring)
        url = df["url"].to_numpy(object)[rows]
        salts = np.zeros(len(rows), dtype=np.int64)
        if plan:
            h = stable_hash(url)
            for c, s in plan.items():
                m = ring_cells == c
                if m.any():
                    salts[m] = (h[m] % np.uint64(s)).astype(np.int64)
        return pd.DataFrame(
            {
                "key": ring_cells * _SALT_MAX + salts,
                "side": _PAGE_SIDE,
                "url": url,
                "lat": df["lat"].to_numpy()[rows],
                "lon": df["lon"].to_numpy()[rows],
                "cell": cell_arr[rows],
                "u": "",
                "v": "",
                "u_lat": np.nan,
                "u_lon": np.nan,
                "v_lat": np.nan,
                "v_lon": np.nan,
            }
        )

    def expand_edges(df: pd.DataFrame) -> pd.DataFrame:
        """edge -> one row per covering cell per salt replica."""
        plan = ray.get(plan_ref) if isinstance(plan_ref, ray.ObjectRef) else plan_ref
        ei, ce = cells.cells_covering_segment(
            df["u_lat"].to_numpy(), df["u_lon"].to_numpy(),
            df["v_lat"].to_numpy(), df["v_lon"].to_numpy(),
            res,
        )
        # replicate per salt for hot cells
        reps = np.ones(len(ce), dtype=np.int64)
        for c, s in plan.items():
            reps[ce == c] = s
        rep = np.repeat(np.arange(len(ce)), reps)
        src = ei[rep]
        return pd.DataFrame(
            {
                "key": ce[rep] * _SALT_MAX + cells.ragged_arange(reps),
                "side": _EDGE_SIDE,
                "url": "",
                "lat": np.nan,
                "lon": np.nan,
                "cell": np.int64(0),
                "u": df["u"].to_numpy(object)[src],
                "v": df["v"].to_numpy(object)[src],
                **{c: df[c].to_numpy()[src] for c in _EDGE_COLS[2:]},
            }
        )

    tagged = pages_c.map_batches(expand_pages, batch_format="pandas").union(
        edges_with_coords.map_batches(expand_edges, batch_format="pandas")
    )

    def snap_bucket(df: pd.DataFrame) -> pd.DataFrame:
        """Each page row's k nearest edges among the edge rows of its key."""
        page = df["side"].to_numpy() == _PAGE_SIDE
        pg = df[page]
        pkeys = pg["key"].to_numpy(np.int64)
        eg = df[~page]
        eg = eg[np.isin(eg["key"].to_numpy(np.int64), pkeys)]
        eid, edges = _distinct_edges(eg)
        csr = _EdgeCSR(eg["key"].to_numpy(np.int64), eid, edges)
        return _snap_rows(
            csr, pg["url"].to_numpy(object), pg["lat"].to_numpy(np.float64),
            pg["lon"].to_numpy(np.float64), pg["cell"].to_numpy(np.int64),
            np.arange(len(pg)), pkeys, k,
        )

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        """Global top-k per url over its candidates from every key."""
        url = pd.factorize(df["url"])[0]
        sq = df["sqdist"].to_numpy(np.float64)
        # numeric sort first: only rows in a url's first k sqdist runs
        # can rank < k, so the object (u, v) tie-break sees just those
        order = np.lexsort((sq, url))
        new_url = cells.run_starts(url[order])
        run = np.cumsum(new_url | cells.run_starts(sq[order]))
        cand = order[run - run[new_url][np.cumsum(new_url) - 1] < k]
        d = df.iloc[cand]
        cu = pd.factorize(d["u"], sort=True)[0]
        cv = pd.factorize(d["v"], sort=True)[0]
        sel, rank = _top_k(url[cand], cu * len(cv) + cv, sq[cand], k)
        d = d.iloc[sel].reset_index(drop=True)
        d["rank"] = rank
        return d

    from .joins import grouped_apply

    candidates = grouped_apply(tagged, "key", snap_bucket, num_buckets=64)
    result = grouped_apply(candidates, "url", rank_bucket, num_buckets=64)
    return result, lineage


def knn_snap_broadcast(pages, edges_with_coords, *, res: int, ring: int = 1):
    """Zero-shuffle nearest-edge snap: the edge table (the small side of
    a pages x street-graph join at any realistic scale — bounded per
    tile) is built into a broadcast cell->edges CSR; each page batch
    gathers its k-ring candidates from it and reduces to the nearest
    edge in-batch. Same semantics as knn_snap(k=1); use knn_snap when
    the edge side exceeds ``_BROADCAST_EDGE_CAP`` rows.

    Returns (result_ds, lineage).
    """
    if isinstance(edges_with_coords, pd.DataFrame):
        edges_df = edges_with_coords[_EDGE_COLS]
    else:
        from .joins import _dataset_to_table

        edges_df = _dataset_to_table(edges_with_coords, _EDGE_COLS).to_pandas()
    if len(edges_df) > _BROADCAST_EDGE_CAP:
        raise ValueError(f"edge side {len(edges_df)} > cap {_BROADCAST_EDGE_CAP}; use knn_snap")
    _, edges = _distinct_edges(edges_df)
    ei, ce = cells.cells_covering_segment(
        *(edges[c].to_numpy() for c in _EDGE_COLS[2:]), res)
    import ray

    from .pages import _fetch_cached

    index = _EdgeCSR(ce, ei, edges)
    ref = ray.put(index)
    lineage = {
        "res": res,
        "ring": ring,
        "k": 1,
        "strategy": "broadcast",
        "n_edges": int(len(edges_df)),
        "n_edge_cells": int(len(index.keys)),
    }

    def snap_batch(df: pd.DataFrame) -> pd.DataFrame:
        lat = df["lat"].to_numpy(np.float64)
        lon = df["lon"].to_numpy(np.float64)
        pcells = cells.cell_of(lat, lon, res)
        rows, ring_cells = cells.k_ring_many(pcells, ring)
        return _snap_rows(_fetch_cached(ref), df["url"].to_numpy(object), lat, lon,
                          pcells, rows, ring_cells, 1)

    # no batch_size: an explicit batch_size anywhere in the task chain
    # poisons Read->Map fusion (the html table would round-trip the
    # object store — measured)
    return pages.map_batches(snap_batch, batch_format="pandas"), lineage


def cell_join_counts(pages, res: int):
    """Simple point-in-cell aggregation: pages per cell (tiling report)."""
    return page_cell_counts(assign_cells(pages, res))


def map_match(points, edges_df: pd.DataFrame, *, lam: float = 0.25,
              trace_col: str = "trace_id", step_col: str = "step",
              lat_col: str = "lat", lon_col: str = "lon",
              num_buckets: int = 64):
    """HMM-style map matching: snap each trace (an ordered point
    sequence) to its best edge PATH by Viterbi DP — emission cost =
    planar point-to-segment sqdist (geo.point_segment_sqdist),
    transition cost = ``lam`` x planar sqdist between edge midpoints,
    every argmin tie broken by the smallest edge id. The kNN snap
    assigns each page independently; this is its sequential twin for
    traces — the classic street-graph operator.

    Scale shape: the edge table broadcasts ONCE (ray.put + per-worker
    cache, like the snap's CSR index); traces co-partition by trace id
    in one bucket shuffle, then each bucket runs a fully vectorized DP
    over (traces x E x E) numpy blocks grouped by trace length — zero
    further exchanges, so 10^12 points stream. Emissions, transitions
    and the DP accumulate float64 in a FIXED op order (one add per
    step), so results are bit-reproducible and SQL-mirrorable
    (queries.trace_map_match unrolls the DP as CTE levels). Returns
    rows (trace_col, step_col, edge)."""
    import ray

    from .joins import grouped_apply
    from .pages import _fetch_cached

    e = edges_df.sort_values("eid").reset_index(drop=True)
    ref = ray.put((e["eid"].to_numpy(np.int64),
                   e["alat"].to_numpy(np.float64),
                   e["alon"].to_numpy(np.float64),
                   e["blat"].to_numpy(np.float64),
                   e["blon"].to_numpy(np.float64)))

    def match_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({trace_col: np.empty(0, np.int64),
                              step_col: np.empty(0, np.int64),
                              "edge": np.empty(0, np.int64)})
        if df.shape[0] == 0:
            return empty
        eid, alat, alon, blat, blon = _fetch_cached(ref)
        mlat = (alat + blat) * 0.5
        mlon = (alon + blon) * 0.5
        dml = mlat[:, None] - mlat[None, :]
        dmn = mlon[:, None] - mlon[None, :]
        W = lam * (dml * dml + dmn * dmn)                  # i -> j
        df = df.sort_values([trace_col, step_col])
        tid = df[trace_col].to_numpy(np.int64)
        stp = df[step_col].to_numpy(np.int64)
        em = geo.point_segment_sqdist(
            df[lat_col].to_numpy(np.float64)[:, None],
            df[lon_col].to_numpy(np.float64)[:, None],
            alat[None, :], alon[None, :], blat[None, :], blon[None, :])
        starts = np.flatnonzero(np.r_[True, tid[1:] != tid[:-1]])
        ends = np.r_[starts[1:], len(tid)]
        lens = ends - starts
        out_t, out_s, out_e = [], [], []
        for L in np.unique(lens):
            sel = np.flatnonzero(lens == L)
            idx = starts[sel][:, None] + np.arange(L)[None, :]
            emL = em[idx]                                  # (n, L, E)
            dp = emL[:, 0, :]
            ptr = np.empty((len(sel), L, len(eid)), np.int64)
            for t in range(1, L):
                X = dp[:, :, None] + W[None, :, :]
                ptr[:, t, :] = np.argmin(X, axis=1)        # tie: smallest id
                # reuse the argmin (bit-identical to X.min, one scan)
                dp = np.take_along_axis(
                    X, ptr[:, t, :][:, None, :], axis=1)[:, 0, :] \
                    + emL[:, t, :]
            j = np.argmin(dp, axis=1)
            path = np.empty((len(sel), L), np.int64)
            path[:, L - 1] = j
            for t in range(L - 1, 0, -1):
                j = ptr[np.arange(len(sel)), t, j]
                path[:, t - 1] = j
            out_t.append(np.repeat(tid[starts[sel]], L))
            out_s.append(stp[idx].ravel())
            out_e.append(eid[path.ravel()])
        return pd.DataFrame({trace_col: np.concatenate(out_t),
                             step_col: np.concatenate(out_s),
                             "edge": np.concatenate(out_e)})

    return grouped_apply(points, trace_col, match_bucket,
                         num_buckets=num_buckets)


def simplify_polylines(points, *, eps2: int, trace_col: str = "trace_id",
                       step_col: str = "step", x_col: str = "x",
                       y_col: str = "y", num_buckets: int = 64):
    """Douglas-Peucker polyline generalization (the tile-serving
    zoom-level op) in EXACT integer arithmetic: a point survives iff
    its squared cross-product distance to the chord exceeds the
    tolerance — the comparison ``cross^2 > eps2 * |AB|^2`` multiplies
    through by the chord length instead of dividing, so with bounded
    integer coords (|x|,|y| < 2^12 keeps every product in int64) the
    whole recursion is branch-for-branch deterministic and
    SQL-mirrorable (queries.polyline_simplify unrolls the split rounds
    as CTE levels). Max-distance ties split at the SMALLEST step.

    Scale shape: polylines are independent — one trace-id bucket
    shuffle, then per-trace stack DP with vectorized per-interval
    cross products; no further exchanges. Returns the kept rows
    (trace_col, step_col, x, y)."""
    from .joins import grouped_apply

    def run_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([trace_col, step_col])
        x = df[x_col].to_numpy(np.int64)
        y = df[y_col].to_numpy(np.int64)
        tid = df[trace_col].to_numpy(np.int64)
        keep = np.zeros(len(tid), bool)
        starts = np.flatnonzero(np.r_[True, tid[1:] != tid[:-1]])
        ends = np.r_[starts[1:], len(tid)]
        for s, e in zip(starts, ends):
            keep[s] = keep[e - 1] = True
            stack = [(s, e - 1)]
            while stack:
                lo, hi = stack.pop()
                if hi - lo <= 1:
                    continue
                dx, dy = x[hi] - x[lo], y[hi] - y[lo]
                cr = dx * (y[lo + 1:hi] - y[lo]) - dy * (x[lo + 1:hi] - x[lo])
                c2 = cr * cr
                k = int(np.argmax(c2))          # tie -> smallest step
                if c2[k] > eps2 * (dx * dx + dy * dy):
                    t = lo + 1 + k
                    keep[t] = True
                    stack.append((lo, t))
                    stack.append((t, hi))
        out = df[keep]
        return pd.DataFrame({trace_col: out[trace_col].to_numpy(np.int64),
                             step_col: out[step_col].to_numpy(np.int64),
                             x_col: out[x_col].to_numpy(np.int64),
                             y_col: out[y_col].to_numpy(np.int64)})

    return grouped_apply(points, trace_col, run_bucket,
                         num_buckets=num_buckets)


def compact_cells(ds, cell_col: str = "cell", *, bucket_res: int = 2,
                  num_buckets: int = 64):
    """Distributed H3-style compaction of a cell-id column: the
    minimal mixed-resolution cover of the distinct input cells
    (complete sibling quartets promoted to their parent, recursively).
    Returns a Dataset of one ``cell`` row per cover cell.

    Scale ladder (the repo's standard shape): per-block distinct
    pre-combine first; under ``_COMPACT_DRIVER_CAP`` distinct cells, ONE
    driver kernel call (`cells.compact_cells_array`). Above it, an
    ancestor-bucket co-partition — promotion of cells at res >
    bucket_res is CLOSED within their res-``bucket_res`` ancestor (a
    complete quartet shares its parent and hence every coarser
    ancestor), so per-bucket kernels with ``stop_res=bucket_res`` are
    exact; everything at res <= bucket_res — original coarse input
    cells (their id domain is bounded by sum(4^r)) plus the buckets'
    promoted residue — driver-merges through one final kernel call,
    while the res > bucket_res remainder stays distributed. Both
    paths accept any resolution mix and are pinned bit-equal by a
    forced-rung pytest."""
    import ray

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {cell_col: pd.unique(df[cell_col].to_numpy(np.int64))})

    u = ds.map_batches(distinct, batch_format="pandas").materialize()

    def on_driver():
        arrs = [b[cell_col].to_numpy(np.int64)
                for b in u.iter_batches(batch_format="pandas")]
        arr = (np.concatenate(arrs) if arrs
               else np.empty(0, np.int64))
        out = cells.compact_cells_array(arr)
        return ray.data.from_pandas(pd.DataFrame({cell_col: out}))

    def bucketed():
        from .joins import grouped_apply

        # res <= bucket_res splits off BEFORE bucketing (no bucket
        # ancestor; the id domain is tiny) — the same mask re-splits the
        # bucket outputs afterwards
        fine_floor = np.int64(bucket_res + 1) << np.int64(58)

        def fine_only(df: pd.DataFrame) -> pd.DataFrame:
            c = df[cell_col].to_numpy(np.int64)
            return pd.DataFrame({cell_col: c[c >= fine_floor]})

        def coarse_only(df: pd.DataFrame) -> pd.DataFrame:
            c = df[cell_col].to_numpy(np.int64)
            return pd.DataFrame({cell_col: c[c < fine_floor]})

        def add_anc(df: pd.DataFrame) -> pd.DataFrame:
            c = df[cell_col].to_numpy(np.int64)
            df = df.copy()
            df["__anc"] = cells.parent_to(c, bucket_res)
            return df

        def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            out = cells.compact_cells_array(
                df[cell_col].to_numpy(np.int64), stop_res=bucket_res)
            return pd.DataFrame({cell_col: out})

        comp = grouped_apply(
            u.map_batches(fine_only, batch_format="pandas")
             .map_batches(add_anc, batch_format="pandas"),
            "__anc", per_bucket, num_buckets=num_buckets).materialize()

        def collect(dset) -> np.ndarray:
            frames = list(dset.iter_batches(batch_format="pandas"))
            if not frames:
                return np.empty(0, np.int64)
            return np.concatenate(
                [f[cell_col].to_numpy(np.int64) for f in frames])

        residue = np.concatenate([
            collect(comp.map_batches(coarse_only, batch_format="pandas")),
            collect(u.map_batches(coarse_only, batch_format="pandas")),
        ])
        final_coarse = cells.compact_cells_array(residue)
        fine = comp.map_batches(fine_only, batch_format="pandas")
        return fine.union(ray.data.from_pandas(
            pd.DataFrame({cell_col: final_coarse})))

    return ladder("spatial.compact_cells", u.count(), _COMPACT_DRIVER_CAP,
                  on_driver, bucketed)


# ----------------------------------------------------------------- OD matrix


def od_matrix(ds, *, user_col: str = "user_id", ts_col: str = "t",
              loc_col: str = "loc", id_col: str = "event_id",
              gap_us: int = 28_800_000_000):
    """Origin-destination trip matrix from event streams (the classic
    mobility rollup): per user (ordered by ts, id-tiebroken), a new
    trip starts when the gap to the previous event exceeds ``gap_us``;
    each trip contributes one (origin loc, destination loc) pair, and
    the matrix counts trips per OD pair.

    Shape: ONE int-keyed grouped shuffle on the user column (users are
    complete within a bucket, so trip segmentation is exact), trip
    extraction fully vectorized (lexsort + run boundaries), per-bucket
    OD-count partials, exact driver merge — the OD key domain is
    bounded by loc_cells**2 (the tiny-domain rule), never by the event
    count, so the merge holds at 100 TB of events. Returns a pandas
    DataFrame (o_loc, d_loc, n_trips)."""
    from .joins import grouped_apply

    def trips(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "o_loc": pd.Series(dtype=np.int64),
            "d_loc": pd.Series(dtype=np.int64),
            "n_trips": pd.Series(dtype=np.int64)})
        if not len(df):
            return empty
        user = df[user_col].to_numpy(np.int64)
        t = df[ts_col].to_numpy(np.int64)
        eid = df[id_col].to_numpy(np.int64)
        loc = df[loc_col].to_numpy(np.int64)
        order = np.lexsort((eid, t, user))
        user, t, loc = user[order], t[order], loc[order]
        n = len(user)
        new = np.ones(n, dtype=bool)
        new[1:] = (user[1:] != user[:-1]) | (t[1:] - t[:-1] > gap_us)
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:] - 1, n - 1]
        vc = (pd.DataFrame({"o_loc": loc[starts], "d_loc": loc[ends]})
              .value_counts(["o_loc", "d_loc"]).reset_index(name="n_trips"))
        return vc.astype(np.int64)

    parts = list(grouped_apply(ds, user_col, trips)
                 .iter_batches(batch_format="pandas", batch_size=None))
    if not parts:
        return pd.DataFrame({
            "o_loc": pd.Series(dtype=np.int64),
            "d_loc": pd.Series(dtype=np.int64),
            "n_trips": pd.Series(dtype=np.int64)})
    out = (pd.concat(parts, ignore_index=True)
           .groupby(["o_loc", "d_loc"], as_index=False)["n_trips"].sum())
    return out.astype(np.int64)


# ---------------------------------------------------------------- staypoints


def staypoints(ds, *, trace_col: str = "trace_id", t_col: str = "t",
               x_col: str = "x", y_col: str = "y",
               radius: int = 10, min_dur: int = 120):
    """Stay-point detection over integer-grid trajectories (the
    classic anchor-window scan, Li et al. 2008): scanning each trace in
    time order, grow a window from anchor i while every point stays
    within Chebyshev ``radius`` of the ANCHOR (the first violation at
    j+1 ends it); if the window spans >= ``min_dur`` time units it is a
    stay-point (scan resumes after it), else the anchor advances one
    point. Integer-exact by construction.

    Shape: one int-keyed grouped shuffle on the trace id (traces are
    complete per bucket), then a linear per-trace scan — the window
    test is a vectorized slice comparison, only the anchor advance is
    sequential (the algorithm is inherently a scan; per-trace work is
    independent, so the stage parallelizes across traces). Returns a
    Dataset (trace_col, anchor_idx, n_points, dur)."""
    from .joins import grouped_apply

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        tr0 = df[trace_col].to_numpy(np.int64)
        order = np.lexsort((df[t_col].to_numpy(np.int64), tr0))
        tr = tr0[order]
        t = df[t_col].to_numpy(np.int64)[order]
        x = df[x_col].to_numpy(np.int64)[order]
        y = df[y_col].to_numpy(np.int64)[order]
        n = len(tr)
        starts = np.r_[0, np.flatnonzero(tr[1:] != tr[:-1]) + 1]
        ends = np.r_[starts[1:], n] if n else np.array([], np.int64)
        o_tr, o_a, o_n, o_d = [], [], [], []
        for s, e in zip(starts, ends):
            i = s
            while i < e:
                off = np.maximum(np.abs(x[i:e] - x[i]),
                                 np.abs(y[i:e] - y[i]))
                out = np.flatnonzero(off > radius)
                j = (i + out[0] - 1) if len(out) else (e - 1)
                if t[j] - t[i] >= min_dur:
                    o_tr.append(tr[s]); o_a.append(i - s)
                    o_n.append(j - i + 1); o_d.append(t[j] - t[i])
                    i = j + 1
                else:
                    i += 1
        return pd.DataFrame({
            trace_col: np.array(o_tr, np.int64),
            "anchor_idx": np.array(o_a, np.int64),
            "n_points": np.array(o_n, np.int64),
            "dur": np.array(o_d, np.int64)})

    return grouped_apply(ds, trace_col, scan)


# ------------------------------------------------- orientation histogram


def orientation_histogram(ds, *, cell: int = 256, num_buckets: int = 32):
    """Street-grid orientation analysis (the Boeing-style bearing
    histogram, integer-exact): per grid cell, count segments by
    OCTANT. Octants come from pure integer comparisons of
    (dx, dy) = (x2-x1, y2-y1) — no trig, so engine and SQL mirror are
    identical by construction (np.select and CASE share the SAME
    condition order; half-open 45-degree boundaries):

      0: dx>0,  dy>=0, dx>dy      4: dx<0,  dy<=0, -dx>-dy
      1: dx>0,  dy>0,  dy>=dx     5: dx<=0, dy<0,  -dy>=-dx
      2: dx<=0, dy>0,  dy>-dx     6: dx>0,  dy<0,  -dy>dx
      3: dx<0,  dy>0,  -dx>=dy    7: else  (dx>0,  dy<0,  dx>=-dy)

    Zero-length segments are dropped on both sides. Cell = doubled
    midpoint // (2*cell) (integer, non-negative coords required).
    Per-batch (cx, cy, oct, n) partials bound the single int-key
    merge shuffle. Returns a Dataset (cx, cy, oct, n)."""
    from .joins import grouped_apply

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x1 = df["x1"].to_numpy(np.int64); y1 = df["y1"].to_numpy(np.int64)
        x2 = df["x2"].to_numpy(np.int64); y2 = df["y2"].to_numpy(np.int64)
        dx = x2 - x1; dy = y2 - y1
        keep = (dx != 0) | (dy != 0)
        x1, y1, x2, y2, dx, dy = (a[keep] for a in (x1, y1, x2, y2, dx, dy))
        conds = [
            (dx > 0) & (dy >= 0) & (dx > dy),
            (dx > 0) & (dy > 0) & (dy >= dx),
            (dx <= 0) & (dy > 0) & (dy > -dx),
            (dx < 0) & (dy > 0) & (-dx >= dy),
            (dx < 0) & (dy <= 0) & (-dx > -dy),
            (dx <= 0) & (dy < 0) & (-dy >= -dx),
            (dx > 0) & (dy < 0) & (-dy > dx),
        ]
        o = np.select(conds, np.arange(7, dtype=np.int64),
                      default=np.int64(7))
        g = pd.DataFrame({"cx": (x1 + x2) // (2 * cell),
                          "cy": (y1 + y2) // (2 * cell),
                          "oct": o, "n": np.int64(1)})
        out = g.groupby(["cx", "cy", "oct"], as_index=False)["n"].sum()
        out["n"] = out["n"].astype(np.int64)
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cx", "cy", "oct"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = ds.map_batches(partial, batch_format="pandas")
    return grouped_apply(parts, ["cx", "cy", "oct"], merge,
                         num_buckets=num_buckets)
