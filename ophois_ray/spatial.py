"""Spatial join + kNN snap of pages to street edges via the cell index
(north rule: point-in-cell assignment, k-ring kNN snap, hash-partitioned
cell-to-cell joins with explicit skew-aware repartitioning of hot cells).

Join shape: both sides are mapped to cell keys (pages: the point's
cell expanded to its k-ring; edges: every cell the segment covers,
padded), unioned with a side tag and co-grouped on the salted cell key;
the per-group kernel computes vectorized point-to-segment distances
(numpy outer product per cell) and emits per-page candidates; a final
groupby(url) keeps the global top-k. Two shuffles total, both keyed on
bounded-size keys.

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
from .joins import stable_hash

_PAGE_SIDE, _EDGE_SIDE = 0, 1


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
    for cell, n in zip(cell_counts_df["cell"], cell_counts_df["n_pages"]):
        k = max(1, int(np.ceil(n / hot_threshold)))
        if k > 1:
            plan[int(cell)] = k
    return plan


_SALT_BITS = 6  # up to 64 salt partitions per cell
_SALT_MAX = 1 << _SALT_BITS


def knn_snap(
    pages,
    edges_with_coords,
    *,
    res: int,
    k: int = 1,
    ring: int = 1,
    hot_threshold: int = 50_000,
    num_salts_cap: int = _SALT_MAX,
):
    """Snap every page to its k nearest street edges via cell co-grouping.

    pages: Dataset with url, lat, lon (geotagged, deduped).
    edges_with_coords: Dataset with u, v, u_lat, u_lon, v_lat, v_lon.

    Returns (result_ds, lineage) where result_ds has columns
    (url, lat, lon, cell, u, v, dist_m, rank) — rank 0 = nearest,
    deterministic tiebreak (sqdist, u, v) — and lineage is a dict with
    the salting plan and parameters.
    """
    pages_c = assign_cells(pages, res)

    counts = page_cell_counts(pages_c).to_pandas()
    salt_plan = plan_salts(counts, hot_threshold)
    if any(v > num_salts_cap for v in salt_plan.values()):
        raise ValueError(f"salt fan-out exceeds cap {num_salts_cap}; raise hot_threshold or res")
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
        lat = df["lat"].to_numpy()[rows]
        lon = df["lon"].to_numpy()[rows]
        home = cell_arr[rows]
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
                "plat": lat,
                "plon": lon,
                "home_cell": home,
                "u": "",
                "v": "",
                "alat": np.nan,
                "alon": np.nan,
                "blat": np.nan,
                "blon": np.nan,
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
        u = df["u"].to_numpy(object)[ei]
        v = df["v"].to_numpy(object)[ei]
        alat = df["u_lat"].to_numpy()[ei]
        alon = df["u_lon"].to_numpy()[ei]
        blat = df["v_lat"].to_numpy()[ei]
        blon = df["v_lon"].to_numpy()[ei]
        # replicate per salt for hot cells
        reps = np.ones(len(ce), dtype=np.int64)
        if plan:
            for c, s in plan.items():
                reps[ce == c] = s
        ridx = np.repeat(np.arange(len(ce)), reps)
        salt = np.concatenate([np.arange(r) for r in reps]) if len(reps) else np.array([], dtype=np.int64)
        return pd.DataFrame(
            {
                "key": ce[ridx] * _SALT_MAX + salt,
                "side": _EDGE_SIDE,
                "url": "",
                "plat": np.nan,
                "plon": np.nan,
                "home_cell": np.int64(0),
                "u": u[ridx],
                "v": v[ridx],
                "alat": alat[ridx],
                "alon": alon[ridx],
                "blat": blat[ridx],
                "blon": blon[ridx],
            }
        )

    tagged = pages_c.map_batches(expand_pages, batch_format="pandas").union(
        edges_with_coords.map_batches(expand_edges, batch_format="pandas")
    )

    def per_cell(group: pd.DataFrame) -> pd.DataFrame:
        pg = group[group["side"] == _PAGE_SIDE]
        # sort edges by (u, v) so the COLUMN INDEX is the tiebreak rank:
        # a stable row-wise argsort on sqdist then resolves equal
        # distances to the smaller (u, v) — candidates tied at the k-th
        # boundary are truncated deterministically (argpartition resolved
        # such ties by block-arrival order)
        eg = (
            group[group["side"] == _EDGE_SIDE]
            .drop_duplicates(subset=["u", "v"])
            .sort_values(["u", "v"], kind="stable")
        )
        if len(pg) == 0 or len(eg) == 0:
            return _empty_candidates()
        plat = pg["plat"].to_numpy()[:, None]
        plon = pg["plon"].to_numpy()[:, None]
        alat = eg["alat"].to_numpy()[None, :]
        alon = eg["alon"].to_numpy()[None, :]
        blat = eg["blat"].to_numpy()[None, :]
        blon = eg["blon"].to_numpy()[None, :]
        sq = geo.point_segment_sqdist(plat, plon, alat, alon, blat, blon)
        kk = min(k, sq.shape[1])
        part = np.argsort(sq, axis=1, kind="stable")[:, :kk]
        rows = np.repeat(np.arange(sq.shape[0]), kk)
        cols = part.ravel()
        return pd.DataFrame(
            {
                "url": pg["url"].to_numpy(object)[rows],
                "plat": pg["plat"].to_numpy()[rows],
                "plon": pg["plon"].to_numpy()[rows],
                "home_cell": pg["home_cell"].to_numpy()[rows],
                "u": eg["u"].to_numpy(object)[cols],
                "v": eg["v"].to_numpy(object)[cols],
                "sqdist": sq[rows, cols],
                "alat": eg["alat"].to_numpy()[cols],
                "alon": eg["alon"].to_numpy()[cols],
                "blat": eg["blat"].to_numpy()[cols],
                "blon": eg["blon"].to_numpy()[cols],
            }
        )

    from .joins import grouped_apply

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = [per_cell(g) for _, g in df.groupby("key", sort=False)]
        return pd.concat(outs, ignore_index=True) if outs else _empty_candidates()

    candidates = grouped_apply(tagged, "key", per_bucket, num_buckets=64)

    if k == 1:
        result = _nearest_packmin(candidates)
        return result, lineage

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=["u", "v"])
        order = np.lexsort(
            (g["v"].to_numpy(object), g["u"].to_numpy(object), g["sqdist"].to_numpy())
        )[:k]
        g = g.iloc[order]
        # closest point on segment -> haversine metres
        plat = g["plat"].to_numpy()
        plon = g["plon"].to_numpy()
        dlat = g["blat"].to_numpy() - g["alat"].to_numpy()
        dlon = g["blon"].to_numpy() - g["alon"].to_numpy()
        seg_sq = dlat * dlat + dlon * dlon
        num = (plat - g["alat"].to_numpy()) * dlat + (plon - g["alon"].to_numpy()) * dlon
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(seg_sq > 0, num / np.where(seg_sq > 0, seg_sq, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        clat = g["alat"].to_numpy() + t * dlat
        clon = g["alon"].to_numpy() + t * dlon
        dist_m = geo.haversine_m(plat, plon, clat, clon)
        return pd.DataFrame(
            {
                "url": g["url"].to_numpy(object),
                "lat": plat,
                "lon": plon,
                "cell": g["home_cell"].to_numpy(),
                "u": g["u"].to_numpy(object),
                "v": g["v"].to_numpy(object),
                "sqdist": g["sqdist"].to_numpy(),
                "dist_m": np.asarray(dist_m, dtype=np.float64).reshape(-1),
                "rank": np.arange(len(g), dtype=np.int64),
            }
        )

    def topk_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = [topk(g) for _, g in df.groupby("url", sort=False)]
        return pd.concat(outs, ignore_index=True) if outs else topk(df.head(0))

    result = grouped_apply(candidates, "url", topk_bucket, num_buckets=64)
    return result, lineage


def _nearest_packmin(candidates):
    """k=1 fast path: global nearest per url, loop-free.

    Each hash bucket (all candidates of a url land in one bucket) is
    reduced with a NUMERIC lexsort — (factorized url code, sqdist) — so
    the hot path never compares object arrays; only rows exactly tied
    with their url's minimum sqdist (duplicate coordinates) go through
    an object (u, v) tiebreak, and only those rows. Replaces the former
    per-candidate f-string pack (a Python loop over hundreds of millions
    of candidates at bench scale)."""
    from .joins import grouped_apply

    def winner_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _final_empty()
        codes, _ = pd.factorize(df["url"], sort=False)
        sq = df["sqdist"].to_numpy(np.float64)
        order = np.lexsort((sq, codes))
        d = df.iloc[order]
        c = codes[order]
        sq_s = sq[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = c[1:] != c[:-1]
        grp_of = np.cumsum(first) - 1
        min_sq = sq_s[first]
        tied = sq_s == min_sq[grp_of]
        d2 = d[tied]
        g2 = grp_of[tied]
        if len(d2) > len(min_sq):  # some url has >1 row at its min sqdist
            order2 = np.lexsort(
                (d2["v"].to_numpy(object), d2["u"].to_numpy(object), g2)
            )
            d2 = d2.iloc[order2]
            g2 = g2[order2]
        keep = np.ones(len(d2), dtype=bool)
        keep[1:] = g2[1:] != g2[:-1]
        win = d2[keep]
        plat = win["plat"].to_numpy(np.float64)
        plon = win["plon"].to_numpy(np.float64)
        alat = win["alat"].to_numpy(np.float64)
        alon = win["alon"].to_numpy(np.float64)
        blat = win["blat"].to_numpy(np.float64)
        blon = win["blon"].to_numpy(np.float64)
        dlat = blat - alat
        dlon = blon - alon
        seg_sq = dlat * dlat + dlon * dlon
        num = (plat - alat) * dlat + (plon - alon) * dlon
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(seg_sq > 0, num / np.where(seg_sq > 0, seg_sq, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        dist_m = geo.haversine_m(plat, plon, alat + t * dlat, alon + t * dlon)
        return pd.DataFrame(
            {
                "url": win["url"].to_numpy(object),
                "lat": plat,
                "lon": plon,
                "cell": win["home_cell"].to_numpy(np.int64),
                "u": win["u"].to_numpy(object),
                "v": win["v"].to_numpy(object),
                "sqdist": win["sqdist"].to_numpy(np.float64),
                "dist_m": np.asarray(dist_m, dtype=np.float64).reshape(-1),
                "rank": np.int64(0),
            }
        )

    return grouped_apply(candidates, "url", winner_bucket, num_buckets=64)


def _final_empty() -> pd.DataFrame:
    return pd.DataFrame(
        {c: pd.Series(dtype=t) for c, t in [
            ("url", object), ("lat", np.float64), ("lon", np.float64),
            ("cell", np.int64), ("u", object), ("v", object),
            ("sqdist", np.float64), ("dist_m", np.float64), ("rank", np.int64)]}
    )


def _empty_candidates() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "url": pd.Series(dtype=object),
            "plat": pd.Series(dtype=np.float64),
            "plon": pd.Series(dtype=np.float64),
            "home_cell": pd.Series(dtype=np.int64),
            "u": pd.Series(dtype=object),
            "v": pd.Series(dtype=object),
            "sqdist": pd.Series(dtype=np.float64),
            "alat": pd.Series(dtype=np.float64),
            "alon": pd.Series(dtype=np.float64),
            "blat": pd.Series(dtype=np.float64),
            "blon": pd.Series(dtype=np.float64),
        }
    )


class _CellEdgeIndex:
    """CSR index: cell id -> the edges covering it, plus edge coords.

    Built once on the driver from the (small) edge table, shared via the
    object store; every page batch answers k-ring candidate lookups with
    two searchsorted calls — zero shuffle.
    """

    def __init__(self, edges_df: pd.DataFrame, res: int):
        # sort edges by (u, v) so integer edge rank == lexicographic
        # tiebreak order (keeps the hot loop free of object-array sorts)
        edges_df = edges_df.sort_values(["u", "v"], kind="stable").reset_index(drop=True)
        ei, ce = cells.cells_covering_segment(
            edges_df["u_lat"].to_numpy(), edges_df["u_lon"].to_numpy(),
            edges_df["v_lat"].to_numpy(), edges_df["v_lon"].to_numpy(),
            res,
        )
        order = np.argsort(ce, kind="stable")
        self.cells_sorted = ce[order]
        self.edge_idx = ei[order]
        # unique cells + CSR offsets
        self.ucells, starts = np.unique(self.cells_sorted, return_index=True)
        self.starts = starts
        self.ends = np.append(starts[1:], len(self.cells_sorted))
        self.u = edges_df["u"].to_numpy(object)
        self.v = edges_df["v"].to_numpy(object)
        self.alat = edges_df["u_lat"].to_numpy(np.float64)
        self.alon = edges_df["u_lon"].to_numpy(np.float64)
        self.blat = edges_df["v_lat"].to_numpy(np.float64)
        self.blon = edges_df["v_lon"].to_numpy(np.float64)
        self.res = res

    def candidates(self, page_cells: np.ndarray, ring: int):
        """(page_row, edge_idx) candidate pairs for each page's k-ring.

        Vectorized over ring OFFSETS ((2r+1)^2 searchsorted passes), not
        over pages. Pairs may repeat when an edge covers several ring
        cells of the same page; callers dedup via min-reduction anyway.
        """
        res, ix, iy = cells.decode(page_cells)
        n = (np.int64(1) << res)
        rows_out = []
        edges_out = []
        for dy in range(-ring, ring + 1):
            for dx in range(-ring, ring + 1):
                x = (ix + dx) % n
                y = iy + dy
                ok = (y >= 0) & (y < n)
                qcells = cells.encode(res[ok], x[ok], y[ok])
                rows = np.flatnonzero(ok)
                pos = np.searchsorted(self.ucells, qcells)
                pos_c = np.minimum(pos, max(len(self.ucells) - 1, 0))
                hit = (
                    (self.ucells[pos_c] == qcells)
                    if len(self.ucells)
                    else np.zeros(len(qcells), dtype=bool)
                )
                if not hit.any():
                    continue
                h_rows = rows[hit]
                s = self.starts[pos_c[hit]]
                e = self.ends[pos_c[hit]]
                counts = e - s
                pr = np.repeat(h_rows, counts)
                # ragged gather of slices [s_i, e_i) without a Python loop
                total = int(counts.sum())
                if total == 0:
                    continue
                base = np.repeat(s, counts)
                local = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
                rows_out.append(pr)
                edges_out.append(self.edge_idx[base + local])
        if not rows_out:
            return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        return np.concatenate(rows_out), np.concatenate(edges_out)


#: per-worker-process cache of fetched CellEdgeIndex objects, keyed by
#: ObjectRef hex — Ray reuses worker processes across tasks, so each
#: worker pays the (already zero-copy-ish local) fetch once while the
#: stage scales as elastic stateless tasks with no pool cold-start.
_INDEX_CACHE: dict = {}


def _get_index(index_ref):
    import ray

    if not isinstance(index_ref, ray.ObjectRef):
        return index_ref
    key = index_ref.hex()
    if key not in _INDEX_CACHE:
        _INDEX_CACHE[key] = ray.get(index_ref)
    return _INDEX_CACHE[key]


class _BroadcastSnapper:
    """Snap kernel for the broadcast kNN path (k=1); used as a stateless
    map_batches function via functools.partial (see knn_snap_broadcast)."""

    def __init__(self, index_ref, ring: int, res: int):
        self.idx = _get_index(index_ref)
        self.ring = ring
        self.res = res

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        idx = self.idx
        plat = df["lat"].to_numpy(np.float64)
        plon = df["lon"].to_numpy(np.float64)
        pcells = cells.cell_of(plat, plon, self.res)
        rows, eidx = idx.candidates(pcells, self.ring)
        if len(rows) == 0:
            return _empty_snap()
        sq = geo.point_segment_sqdist(
            plat[rows], plon[rows],
            idx.alat[eidx], idx.alon[eidx], idx.blat[eidx], idx.blon[eidx],
        )
        # per-page min with deterministic (sqdist, u, v) tiebreak: edges
        # are pre-sorted by (u, v) so the integer index IS the tiebreak
        order = np.lexsort((eidx, sq, rows))
        r_s, e_s, sq_s = rows[order], eidx[order], sq[order]
        first = np.ones(len(r_s), dtype=bool)
        first[1:] = r_s[1:] != r_s[:-1]
        r_f, e_f, sq_f = r_s[first], e_s[first], sq_s[first]
        # closest point -> haversine metres
        alat, alon = idx.alat[e_f], idx.alon[e_f]
        blat, blon = idx.blat[e_f], idx.blon[e_f]
        dlat, dlon = blat - alat, blon - alon
        seg_sq = dlat * dlat + dlon * dlon
        num = (plat[r_f] - alat) * dlat + (plon[r_f] - alon) * dlon
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(seg_sq > 0, num / np.where(seg_sq > 0, seg_sq, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        dist_m = geo.haversine_m(plat[r_f], plon[r_f], alat + t * dlat, alon + t * dlon)
        return pd.DataFrame(
            {
                "url": df["url"].to_numpy(object)[r_f],
                "lat": plat[r_f],
                "lon": plon[r_f],
                "cell": pcells[r_f],
                "u": idx.u[e_f],
                "v": idx.v[e_f],
                "sqdist": sq_f,
                "dist_m": np.asarray(dist_m, dtype=np.float64).reshape(-1),
                "rank": np.int64(0),
            }
        )


def _empty_snap() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "url": pd.Series(dtype=object), "lat": pd.Series(dtype=np.float64),
            "lon": pd.Series(dtype=np.float64), "cell": pd.Series(dtype=np.int64),
            "u": pd.Series(dtype=object), "v": pd.Series(dtype=object),
            "sqdist": pd.Series(dtype=np.float64), "dist_m": pd.Series(dtype=np.float64),
            "rank": pd.Series(dtype=np.int64),
        }
    )


def knn_snap_broadcast(
    pages,
    edges_with_coords,
    *,
    res: int,
    ring: int = 1,
    batch_size: int | None = None,
    edge_cap: int = 20_000_000,
):
    """Zero-shuffle nearest-edge snap: the edge table (the small side of
    a pages x street-graph join at any realistic scale — bounded per
    tile) is built into a broadcast cell->edges CSR index; each page
    batch resolves its k-ring candidates with vectorized searchsorted
    and reduces to the nearest edge in-batch. Same semantics as
    knn_snap(k=1); use knn_snap when the edge side exceeds ``edge_cap``.

    Returns (result_ds, lineage).
    """
    if isinstance(edges_with_coords, pd.DataFrame):
        edges_df = edges_with_coords[["u", "v", "u_lat", "u_lon", "v_lat", "v_lon"]]
    else:
        from .joins import _dataset_to_table

        edges_df = _dataset_to_table(
            edges_with_coords, ["u", "v", "u_lat", "u_lon", "v_lat", "v_lon"]
        ).to_pandas()
    if len(edges_df) > edge_cap:
        raise ValueError(f"edge side {len(edges_df)} > cap {edge_cap}; use knn_snap")
    index = _CellEdgeIndex(edges_df, res)
    import ray

    ref = ray.put(index)
    lineage = {
        "res": res,
        "ring": ring,
        "k": 1,
        "strategy": "broadcast",
        "n_edges": int(len(edges_df)),
        "n_edge_cells": int(len(index.ucells)),
    }
    def snap_batch(df: pd.DataFrame) -> pd.DataFrame:
        return _BroadcastSnapper(ref, ring, res)(df)

    # batch_size stays None unless the caller forces it: an explicit
    # batch_size anywhere in the task chain poisons Read->Map fusion
    # (the html table would round-trip the object store — measured).
    kw = {"batch_size": batch_size} if batch_size is not None else {}
    result = pages.map_batches(snap_batch, batch_format="pandas", **kw)
    return result, lineage


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
                  num_buckets: int = 64,
                  broadcast_cap: int = 2_000_000):
    """Distributed H3-style compaction of a cell-id column: the
    minimal mixed-resolution cover of the distinct input cells
    (complete sibling quartets promoted to their parent, recursively).
    Returns a Dataset of one ``cell`` row per cover cell.

    Scale ladder (the repo's standard shape): per-block distinct
    pre-combine first; under ``broadcast_cap`` distinct cells, ONE
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
    forced-cap pytest."""
    import ray

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {cell_col: pd.unique(df[cell_col].to_numpy(np.int64))})

    u = ds.map_batches(distinct, batch_format="pandas").materialize()
    if u.count() <= broadcast_cap:
        arrs = [b[cell_col].to_numpy(np.int64)
                for b in u.iter_batches(batch_format="pandas")]
        arr = (np.concatenate(arrs) if arrs
               else np.empty(0, np.int64))
        out = cells.compact_cells_array(arr)
        return ray.data.from_pandas(pd.DataFrame({cell_col: out}))
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
