"""Point-in-polygon joins, zonal statistics and raster<->vector
conversion — the remaining spatial primitives the north rule names
(H3/S2-like index: cells.py; kNN: spatial.py; this module adds the
polygon layer). No geo libraries exist in this environment, so the
geometry is from scratch: planar lat/lon, even-odd (crossing-number)
point-in-polygon with the half-open edge rule, a cell-granular
prefilter over the same quadtree index the rest of the engine uses.

Scale design (100 TB side):
- The polygon set is the SMALL side: built once on the driver into
  flat numpy arrays plus two ``cells.KeyIndex`` (polygon -> edges and
  the cell -> polygons prefilter), shipped via ``ray.put`` once and
  cached per worker process (`pages._fetch_cached`, as the kNN snap's
  edge index) — the big point table streams through stateless fused
  map tasks with ZERO shuffle.
- Candidate pruning is cell-granular: each polygon's bbox is covered
  with index cells at ``prefilter_res``; a point only runs the exact
  edge test against polygons whose covering contains the point's cell
  (one ``KeyIndex.pairs`` gather per batch, like the kNN index).
- The exact test is fully vectorized: candidate (point, polygon) pairs
  expand to (pair, edge) rows via one ragged gather, one boolean crossing
  kernel, np.add.at parity reduction. No Python per-row loop.
- The crossing kernel uses only exactly-rounded IEEE ops (+,-,*,/ and
  comparisons) in a FIXED order mirrored by ``oracle_sql_pip_edges``
  -> results are bit-identical to the DuckDB oracle (same exactness
  discipline as cells.oracle_sql_cell_expr).

Determinism / edge rule: an edge (y1,x1)-(y2,x2) crosses the upward
ray from point (py,px) iff (y1 > py) != (y2 > py) AND
px < (x2 - x1) * (py - y1) / (y2 - y1) + x1. The half-open rule makes
shared vertices count once; horizontal edges never cross and are
DROPPED at build time (both here and in the SQL mirror, so the
division is always well-defined). Points exactly ON a boundary follow
the strict-< rule identically in both engines (same FP ops), so the
match stays exact even in degenerate cases.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from . import cells
from .pages import _fetch_cached

__all__ = [
    "PolygonIndex",
    "point_in_polygon_join",
    "zonal_stats",
    "polygonize_raster",
    "oracle_sql_pip_edges",
]


class PolygonIndex:
    """Broadcast-side polygon set: edge arrays + cell prefilter.

    ``polys``: dict {poly_id(int) -> [(lat, lon), ...]} — open rings
    (the closing edge back to vertex 0 is added automatically).
    """

    def __init__(self, polys: dict[int, list[tuple[float, float]]],
                 prefilter_res: int = 4):
        pids, y1, x1, y2, x2 = [], [], [], [], []
        bb = []  # (pid, lat_min, lat_max, lon_min, lon_max)
        for pid in sorted(polys):
            ring = polys[pid]
            if len(ring) < 3:
                raise ValueError(f"polygon {pid} has <3 vertices")
            la = np.array([p[0] for p in ring], dtype=np.float64)
            lo = np.array([p[1] for p in ring], dtype=np.float64)
            bb.append((pid, la.min(), la.max(), lo.min(), lo.max()))
            nla, nlo = np.roll(la, -1), np.roll(lo, -1)
            keep = la != nla  # horizontal edges never cross the ray
            pids.append(np.full(int(keep.sum()), pid, dtype=np.int64))
            y1.append(la[keep]); x1.append(lo[keep])
            y2.append(nla[keep]); x2.append(nlo[keep])
        edge_pid = np.concatenate(pids) if pids else np.array([], np.int64)
        self.y1 = np.concatenate(y1) if y1 else np.array([], np.float64)
        self.x1 = np.concatenate(x1) if x1 else np.array([], np.float64)
        self.y2 = np.concatenate(y2) if y2 else np.array([], np.float64)
        self.x2 = np.concatenate(x2) if x2 else np.array([], np.float64)
        # polygon -> its edge rows
        self.poly_edges = cells.KeyIndex(
            edge_pid, np.arange(len(edge_pid), dtype=np.int64))
        # cell prefilter: every cell covered by each polygon's bbox
        self.res = prefilter_res
        pc, pp = [], []
        dlat, dlon = cells.cell_size_deg(prefilter_res)
        for pid, la0, la1, lo0, lo1 in bb:
            # pad by one cell each side: sampling at exactly cell-size
            # steps can round across a cell boundary by 1 ulp; the ring
            # guarantees the prefilter NEVER drops a true containment
            las = np.arange(la0 - dlat, la1 + 2 * dlat, dlat).clip(-90.0, 90.0)
            los = np.arange(lo0 - dlon, lo1 + 2 * dlon, dlon).clip(-180.0, 180.0)
            grid_lat = np.repeat(las, len(los))
            grid_lon = np.tile(los, len(las))
            cset = np.unique(cells.cell_of(grid_lat, grid_lon, prefilter_res))
            pc.append(cset)
            pp.append(np.full(len(cset), pid, dtype=np.int64))
        allc = np.concatenate(pc) if pc else np.array([], np.int64)
        allp = np.concatenate(pp) if pp else np.array([], np.int64)
        self.cell_polys = cells.KeyIndex(allc, allp)

    def join(self, lat, lon):
        """Exact inner point-in-polygon join.

        Returns (point_row, poly_id) for every containment pair,
        sorted by (point_row, poly_id). Overlapping polygons yield one
        pair each.
        """
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        # (point_row, poly_id) candidate pairs via the cell prefilter
        prow, ppid = self.cell_polys.pairs(cells.cell_of(lat, lon, self.res))
        if len(prow) == 0:
            return prow, ppid
        # expand candidate pairs -> (pair, edge) rows
        pair_idx, ei = self.poly_edges.pairs(ppid)
        py = lat[prow][pair_idx]
        px = lon[prow][pair_idx]
        y1, x1 = self.y1[ei], self.x1[ei]
        y2, x2 = self.y2[ei], self.x2[ei]
        # crossing kernel — op order mirrored in oracle_sql_pip_edges
        cross = ((y1 > py) != (y2 > py)) & (
            px < (x2 - x1) * (py - y1) / (y2 - y1) + x1
        )
        parity = np.zeros(len(prow), dtype=np.int64)
        np.add.at(parity, pair_idx, cross.astype(np.int64))
        inside = (parity % 2) == 1
        order = np.lexsort((ppid[inside], prow[inside]))
        return prow[inside][order], ppid[inside][order]


def point_in_polygon_join(ds, polys, *, lat_col: str = "lat",
                          lon_col: str = "lon", keep_cols=None,
                          out_col: str = "poly_id",
                          prefilter_res: int = 4):
    """Inner-join every point row to each polygon containing it.

    ``polys`` is a {poly_id -> ring} dict or a prebuilt PolygonIndex.
    Broadcast once (ray.put), streamed zero-shuffle through stateless
    fused map tasks; output keeps ``keep_cols`` (default: all input
    columns) plus ``out_col``.
    """
    import ray

    idx = polys if isinstance(polys, PolygonIndex) else PolygonIndex(
        polys, prefilter_res=prefilter_res)
    ref = ray.put(idx)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        pidx = _fetch_cached(ref)
        rows, pid = pidx.join(
            df[lat_col].to_numpy(np.float64), df[lon_col].to_numpy(np.float64)
        )
        cols = keep_cols if keep_cols is not None else list(df.columns)
        out = df.iloc[rows][cols].reset_index(drop=True)
        out[out_col] = pid
        return out

    return ds.map_batches(fn, batch_format="pandas")


def zonal_stats(ds, polys, *, lat_col: str = "lat", lon_col: str = "lon",
                value_col: str | None = None, prefilter_res: int = 4):
    """Vector<-raster zonal statistics: per-polygon point count (and
    int64 sum of ``value_col`` if given) over a streaming point table.

    Scale shape: each batch emits at most one partial row per polygon
    (P rows, P = |polygons| — tiny), so the final per-polygon combine
    shuffles P x n_blocks rows, never the points. Returns a pandas
    DataFrame (poly_id, n_points[, sum_value]) sorted by poly_id.
    """
    from .joins import grouped_apply

    pairs = point_in_polygon_join(
        ds, polys, lat_col=lat_col, lon_col=lon_col,
        keep_cols=[value_col] if value_col else [],
        prefilter_res=prefilter_res,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("poly_id", as_index=False)
        if value_col:
            out = g.agg(n_points=("poly_id", "size"),
                        sum_value=(value_col, "sum"))
            out["sum_value"] = out["sum_value"].astype(np.int64)
        else:
            out = g.agg(n_points=("poly_id", "size"))
        out["n_points"] = out["n_points"].astype(np.int64)
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        agg = {"n_points": ("n_points", "sum")}
        if value_col:
            agg["sum_value"] = ("sum_value", "sum")
        out = df.groupby("poly_id", as_index=False).agg(**agg)
        for c in out.columns:
            out[c] = out[c].astype(np.int64)
        return out

    partials = pairs.map_batches(partial, batch_format="pandas")
    return (
        grouped_apply(partials, "poly_id", merge)
        .to_pandas()
        .sort_values("poly_id")
        .reset_index(drop=True)
    )


def polygonize_raster(cell_counts, threshold: int):
    """Raster->vector: group 4-connected active raster cells (count >=
    threshold) into regions labeled by their minimum cell id.

    ``cell_counts``: Dataset or DataFrame with int64 (cell, n) — the
    rasterization itself is the existing distributed groupby(cell)
    count (spatial.page_cell_counts / queries.q_cell_hist_topk shape).

    Partitioning assumption: the ACTIVE RASTER (not the data) fits the
    driver — it is bounded by 4^res cells regardless of input scale,
    which is the whole point of rasterizing first (res 12 ~ 16.8M cells
    max; typical thresholds keep it far smaller). Adjacency is 4-ring
    within the grid, NO longitudinal wrap (mirrors the SQL oracle's
    integer ix/iy arithmetic). Returns DataFrame (cell, region) sorted
    by cell.
    """
    if isinstance(cell_counts, pd.DataFrame):
        df = cell_counts[cell_counts["n"] >= threshold]
    else:
        df = cell_counts.filter(expr=f"n >= {int(threshold)}").to_pandas()
    if "cell" not in df.columns:  # empty Dataset.to_pandas() drops schema
        df = pd.DataFrame({"cell": np.array([], dtype=np.int64)})
    cell = np.sort(df["cell"].to_numpy(np.int64))
    if len(cell) == 0:
        return pd.DataFrame({"cell": cell, "region": cell})
    res, ix, iy = cells.decode(cell)
    # neighbor edges: right (ix+1) and up (iy+1) into the active set
    edges = []
    for nx, ny in ((ix + 1, iy), (ix, iy + 1)):
        ncell = cells.encode(res, nx, ny)
        pos = np.searchsorted(cell, ncell)
        pos_c = np.minimum(pos, len(cell) - 1)
        hit = cell[pos_c] == ncell
        edges.append((np.flatnonzero(hit), pos_c[hit]))
    ea = np.concatenate([a for a, _ in edges])
    eb = np.concatenate([b for _, b in edges])
    # min-label propagation with pointer doubling (vectorized; raster-
    # bounded, converges in O(log diameter) rounds)
    label = np.arange(len(cell), dtype=np.int64)
    while True:
        prev = label.copy()
        np.minimum.at(label, ea, label[eb])
        np.minimum.at(label, eb, label[ea])
        label = label[label]  # pointer doubling
        if np.array_equal(label, prev):
            break
    return pd.DataFrame({"cell": cell, "region": cell[label]})


def oracle_sql_pip_edges(polys: dict[int, list[tuple[float, float]]]) -> str:
    """VALUES clause of polygon edges mirroring PolygonIndex exactly:
    (pid, y1, x1, y2, x2) per non-horizontal edge, closing ring
    included, floats via repr (shortest round-trip -> DuckDB parses
    the identical double). Consumers apply the crossing predicate
      (y1 > lat) != (y2 > lat)
      AND lon < (x2 - x1) * (lat - y1) / (y2 - y1) + x1
    and keep points with odd crossing count per pid.
    """
    rows = []
    for pid in sorted(polys):
        ring = polys[pid]
        for i in range(len(ring)):
            (la, lo), (nla, nlo) = ring[i], ring[(i + 1) % len(ring)]
            if la == nla:
                continue
            rows.append(f"({pid}, {la!r}, {lo!r}, {nla!r}, {nlo!r})")
    return "(VALUES " + ", ".join(rows) + ") AS e(pid, y1, x1, y2, x2)"


def polygon_area_centroid(verts, *, scale: int = 1024, num_buckets: int = 16):
    """Integer-exact shoelace area + centroid numerators per polygon
    over a vertex Dataset ``(pid, seq, lat, lon)`` (seq = ring order,
    ring NOT explicitly closed). Coordinates are quantized to
    ``floor(coord * scale)`` — multiplication by a power of two is an
    exact IEEE op and floor is exact, so numpy and SQL BIGINT agree
    bit-for-bit and the integer edge-cross sums are independent of
    summation order (the property a float shoelace can never have
    across engines). Returns one row per polygon:

        (pid, n_vertices, area2, cx_num, cy_num)   all int64

    with area2 = sum(x1*y2 - x2*y1) (signed, 2x area in quantized
    units) and the centroid = (cx_num / (3*area2), cy_num / (3*area2))
    left unevaluated to stay integer. Overflow-safe for |coord| <= 180
    and scale <= 2^11 (|cross| < 2^37, |(x1+x2)*cross| < 2^56).

    Scale shape: ONE pid-bucket shuffle; the per-bucket kernel is fully
    vectorized (sorted rows, ring-wrap next-index via group-boundary
    masks, bincount-style groupby sums) — no per-polygon Python loop.
    """
    from .joins import grouped_apply

    if not (1 <= scale <= (1 << 11)):
        raise ValueError("scale must be in [1, 2^11] to stay int64-exact")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["pid", "seq"], ignore_index=True)
        pid = df["pid"].to_numpy(np.int64)
        ix = np.floor(df["lon"].to_numpy(np.float64) * float(scale)).astype(np.int64)
        iy = np.floor(df["lat"].to_numpy(np.float64) * float(scale)).astype(np.int64)
        m = len(pid)
        first = cells.run_starts(pid)
        starts = np.where(first)[0]
        nxt = np.arange(1, m + 1, dtype=np.int64)
        last = np.zeros(m, dtype=bool)
        last[starts[1:] - 1] = True
        last[m - 1] = True
        nxt[last] = starts  # ring wrap: last vertex links to its first
        cross = ix * iy[nxt] - ix[nxt] * iy
        g = pd.DataFrame({
            "pid": pid,
            "n_vertices": np.ones(m, dtype=np.int64),
            "area2": cross,
            "cx_num": (ix + ix[nxt]) * cross,
            "cy_num": (iy + iy[nxt]) * cross,
        }).groupby("pid", as_index=False).sum()
        for c in g.columns:
            g[c] = g[c].astype(np.int64)
        return g

    return grouped_apply(verts, "pid", per_bucket, num_buckets=num_buckets)


def box_smooth_raster(counts, *, res: int | None = None,
                      num_buckets: int = 32):
    """Raster convolution: 3x3 box smoothing of a (cell, n) count
    raster — every cell's smoothed density is the sum of its own and
    its 8 neighbours' counts, including cells that had no points of
    their own (they receive scattered mass). Pure int64. Returns a
    Dataset (cell, density).

    Neighbourhood semantics: with ``res`` given, the grid is the
    2^res x 2^res cell raster and the x axis WRAPS modulo 2^res
    (longitude) while y clips at the poles — the same 3x3 definition as
    ``cells.k_ring_many``. Without ``res`` the raster is treated as an
    abstract non-wrapping grid clipped at the 2^29 id-space bounds.

    Scale shape: the classic scatter formulation — each count row emits
    up to 9 (neighbour, n) rows in a fused map (vectorized over the
    offset grid, boundary-guarded), then ONE cell-bucket shuffle with
    per-batch pre-combine sums them. Work is 9x the ACTIVE cell count,
    never the raster extent; no driver materialization.
    """
    from .joins import grouped_apply

    MASK = np.int64((1 << 29) - 1)
    LIM = np.int64(1 << res) if res is not None else np.int64(1 << 29)
    wrap_x = res is not None

    def scatter(df: pd.DataFrame) -> pd.DataFrame:
        cell = df["cell"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        ix = (cell >> np.int64(29)) & MASK
        iy = cell & MASK
        base = cell - (ix << np.int64(29)) - iy
        out_c, out_n = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = ix + dx, iy + dy
                if wrap_x:
                    nx = (nx + LIM) % LIM  # longitude wrap
                    ok = (ny >= 0) & (ny < LIM)
                else:
                    ok = (nx >= 0) & (nx < LIM) & (ny >= 0) & (ny < LIM)
                out_c.append(base[ok] + (nx[ok] << np.int64(29)) + ny[ok])
                out_n.append(n[ok])
        return pd.DataFrame({
            "cell": np.concatenate(out_c), "n": np.concatenate(out_n)
        })

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    smoothed = grouped_apply(
        counts.map_batches(scatter, batch_format="pandas"),
        "cell", combine, drop_partial=combine, num_buckets=num_buckets,
    )
    return smoothed.map_batches(
        lambda df: df.rename(columns={"n": "density"}), batch_format="pandas"
    )


def box_smooth_dense(cell: np.ndarray, n: np.ndarray, res: int):
    """Bounded-domain twin of :func:`box_smooth_raster`: the same 3x3
    box smoothing (x wraps modulo 2^res, y clips) as shifted adds over
    a dense 2^res x 2^res int64 grid — for callers that already hold
    the merged (cell, n) counts of a res-bounded raster in one process
    (the active-cell domain is at most 4^res, so the counts are
    driver-sized by construction). Returns (cells, density) numpy
    arrays covering exactly the cells that receive scattered mass —
    the same output set as the scatter formulation; parity-pinned by
    pytest. Pure int64, order-independent sums."""
    grid = 1 << res
    MASK = np.int64((1 << 29) - 1)
    cell = np.asarray(cell, np.int64)
    n = np.asarray(n, np.int64)
    if not len(cell):
        return np.array([], np.int64), np.array([], np.int64)
    ix = (cell >> np.int64(29)) & MASK
    iy = cell & MASK
    base = int((cell - (ix << np.int64(29)) - iy)[0])
    dense = np.zeros((grid, grid), np.int64)
    np.add.at(dense, (ix, iy), n)
    sm = np.zeros_like(dense)
    for dx in (-1, 0, 1):
        rolled = np.roll(dense, dx, axis=0)  # longitude wrap
        sm += rolled
        sm[:, 1:] += rolled[:, :-1]  # mass scattered to iy+1
        sm[:, :-1] += rolled[:, 1:]  # mass scattered to iy-1
    ox, oy = np.nonzero(sm)
    out_cell = np.int64(base) + (ox.astype(np.int64) << np.int64(29)) + oy.astype(np.int64)
    return out_cell, sm[ox, oy]


def rasterize_polygons(polys, res: int, *, prefilter_res: int = 4):
    """Vector -> raster: every res-cell whose CENTER lies inside a
    polygon, as (cell, poly_id) rows — center-sampling rasterization,
    the inverse of :func:`polygonize_raster` (together they close the
    raster<->vector loop the north rule names). A cell crossed only at
    a corner (center outside) is NOT emitted — the standard
    center-sample rule, shared exactly by the SQL mirror.

    Scale shape: candidate cells come from each polygon's bbox cover
    (bounded by bbox area at ``res``, never the world grid — the
    polygon set is the engine's small broadcast side throughout this
    module); the exact center-in-polygon test then streams through the
    broadcast crossing-number index with zero shuffle, so resolution
    can grow without any exchange appearing.
    """
    import ray

    from . import cells as _cells

    cand = []
    for pid in sorted(polys):
        ring = np.asarray(polys[pid], dtype=np.float64)
        la, lo = ring[:, 0], ring[:, 1]
        c_lo = _cells.cell_of(np.array([la.min()]), np.array([lo.min()]), res)
        c_hi = _cells.cell_of(np.array([la.max()]), np.array([lo.max()]), res)
        _, ix1, iy1 = _cells.decode(c_lo)
        _, ix2, iy2 = _cells.decode(c_hi)
        gx = np.arange(int(ix1[0]), int(ix2[0]) + 1, dtype=np.int64)
        gy = np.arange(int(iy1[0]), int(iy2[0]) + 1, dtype=np.int64)
        mx, my = np.meshgrid(gx, gy)
        cand.append(_cells.encode(np.int64(res), mx.ravel(), my.ravel()))
    cells_arr = np.unique(np.concatenate(cand)) if cand else np.array(
        [], dtype=np.int64)
    lat, lon = _cells.cell_center(cells_arr)
    ds = ray.data.from_pandas(pd.DataFrame(
        {"cell": cells_arr, "lat": lat, "lon": lon}
    )).repartition(max(1, min(16, len(cells_arr) // 4096 + 1)))
    return point_in_polygon_join(ds, polys, keep_cols=["cell"],
                                 prefilter_res=prefilter_res)


def segment_crossing_join(segs, polys, *, id_col: str = "seg_id"):
    """Segment x polygon-boundary intersection join: one row per
    (segment, polygon) whose segment PROPERLY crosses at least one
    boundary edge (strict two-sided orientation test — touching or
    collinear overlap does not count), with the crossing count.
    Columns in ``segs``: (id_col, ax, ay, bx, by) planar endpoints.
    Returns a Dataset (id, poly_id, n_crossings).

    Exactness: the predicate uses only sign comparisons of IEEE
    products/differences in a FIXED order, so numpy and the SQL mirror
    agree bit-for-bit (the same discipline as the point-in-polygon
    kernel). Unlike the ray-cast, HORIZONTAL edges participate here.

    Scale shape: the polygon boundary set broadcasts once (flat numpy,
    ~5 floats/edge); each batch evaluates the (rows x edges) predicate
    as one broadcasted numpy expression and reduces crossings per
    polygon with reduceat — zero shuffle, fused with the read.
    """
    import ray

    pids, x1, y1, x2, y2 = [], [], [], [], []
    for pid in sorted(polys):
        ring = np.asarray(polys[pid], dtype=np.float64)
        la, lo = ring[:, 0], ring[:, 1]
        nla, nlo = np.roll(la, -1), np.roll(lo, -1)
        pids.append(np.full(len(ring), pid, dtype=np.int64))
        x1.append(lo); y1.append(la); x2.append(nlo); y2.append(nla)
    epid = np.concatenate(pids) if pids else np.array([], np.int64)
    ex1 = np.concatenate(x1) if x1 else np.array([], np.float64)
    ey1 = np.concatenate(y1) if y1 else np.array([], np.float64)
    ex2 = np.concatenate(x2) if x2 else np.array([], np.float64)
    ey2 = np.concatenate(y2) if y2 else np.array([], np.float64)
    upids, starts = np.unique(epid, return_index=True)  # built pid-sorted
    ref = ray.put((epid, ex1, ey1, ex2, ey2, upids, starts))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        epid_, x1_, y1_, x2_, y2_, upids_, starts_ = (
            ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        )
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "poly_id": pd.Series(dtype=np.int64),
                              "n_crossings": pd.Series(dtype=np.int64)})
        if len(df) == 0 or len(epid_) == 0:
            return empty
        ax = df["ax"].to_numpy(np.float64)[:, None]
        ay = df["ay"].to_numpy(np.float64)[:, None]
        bx = df["bx"].to_numpy(np.float64)[:, None]
        by = df["by"].to_numpy(np.float64)[:, None]
        # orientation signs, op order mirrored in the SQL oracle
        d1 = (x2_ - x1_) * (ay - y1_) - (y2_ - y1_) * (ax - x1_)
        d2 = (x2_ - x1_) * (by - y1_) - (y2_ - y1_) * (bx - x1_)
        d3 = (bx - ax) * (y1_ - ay) - (by - ay) * (x1_ - ax)
        d4 = (bx - ax) * (y2_ - ay) - (by - ay) * (x2_ - ax)
        proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & \
                 (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
        # crossings per (row, polygon): reduceat over pid-contiguous edges
        per_pid = np.add.reduceat(proper.astype(np.int64), starts_, axis=1)
        rows, cols = np.nonzero(per_pid)
        if len(rows) == 0:
            return empty
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64)[rows],
            "poly_id": upids_[cols],
            "n_crossings": per_pid[rows, cols],
        })

    return segs.map_batches(fn, batch_format="pandas")


# -------------------------------------------------------------- cell regions


def cell_regions(cells_ds, *, x_col: str = "x", y_col: str = "y",
                 width: int = 4096):
    """Dissolve occupied grid cells into 4-connected regions (the
    raster equivalent of polygon dissolve): cells are keyed
    ``y * width + x`` (caller guarantees ``x + 1 < width`` so east
    neighbours never wrap), adjacency edges are discovered by
    semi-joining each cell's east/north neighbour key against the
    occupied set (one bucketed hash join — no all-pairs), and regions
    are resolved through the repo's connected-components ladder
    (broadcast kernel under the cap, distributed labelprop above).

    Output per region: (region_id = smallest member cell id, n_cells,
    perimeter) with ``perimeter = 4 * n_cells - 2 * adjacent_pairs``
    (each interior pair hides two unit edges) — integer-exact.

    Hybrid ladder (house pattern): under the broadcast cap occupied
    cells the int64 cell ids ship once to the driver and the whole
    dissolve (sorted-membership neighbour probe, ``_min_label_cc``
    fixpoint, bincount stats) runs as one vectorized kernel — the
    distributed path's hash-join + two grouped_apply barriers cost
    ~5 s of parallelism-INDEPENDENT time at any size (measured sf0.01
    == sf0.1), which dominates whenever the key column fits a heap.
    Above the cap the bucketed joins + components ladder take over;
    a forced-rung pytest pins both paths row-identical.
    """
    from .components import _min_label_cc, connected_components_auto
    from .joins import (DEFAULT_BROADCAST_CAP, distinct_rows, grouped_apply,
                        hash_join, ladder)

    def cid(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy(np.int64)
        y = df[y_col].to_numpy(np.int64)
        return pd.DataFrame({"id": y * width + x})

    nodes = cells_ds.map_batches(cid, batch_format="pandas").materialize()

    def on_driver():
        import ray

        id_parts = [b["id"] for b in nodes.iter_batches(
            batch_format="numpy", batch_size=None)]
        ids = np.unique(np.concatenate(id_parts)) if id_parts \
            else np.empty(0, np.int64)
        n = len(ids)
        ius, ivs = [], []
        for step in (1, width):          # east / north neighbours
            pos = np.searchsorted(ids, ids + step)
            has = (pos < n)
            safe = np.minimum(pos, max(n - 1, 0))
            if n:
                has &= ids[safe] == ids + step
            ius.append(np.nonzero(has)[0])
            ivs.append(pos[has])
        iu = np.concatenate(ius) if ius else np.empty(0, np.int64)
        iv = np.concatenate(ivs) if ivs else np.empty(0, np.int64)
        lab = _min_label_cc(ids, iu, iv)
        n_per = np.bincount(lab, minlength=n)
        pairs = np.bincount(lab[iu], minlength=n)
        roots = np.nonzero(n_per)[0]
        out = pd.DataFrame({
            "region_id": ids[roots],
            "n_cells": n_per[roots].astype(np.int64),
            "perimeter": (4 * n_per[roots] - 2 * pairs[roots])
            .astype(np.int64)})
        import pyarrow as pa

        # via Arrow: a 0-row from_pandas dataset drops its schema
        return ray.data.from_arrow(
            pa.Table.from_pandas(out, preserve_index=False))

    def distributed():
        # occupancy is a set, as in the driver kernel's np.unique
        occupied = distinct_rows(nodes, "id").materialize()

        def shifted(df: pd.DataFrame) -> pd.DataFrame:
            i = df["id"].to_numpy(np.int64)
            return pd.DataFrame({"u": np.concatenate([i, i]),
                                 "v": np.concatenate([i + 1, i + width])})

        def as_key(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"v": df["id"].to_numpy(np.int64)})

        edges = hash_join(
            occupied.map_batches(shifted, batch_format="pandas"),
            occupied.map_batches(as_key, batch_format="pandas"),
            "v", how="inner").materialize()

        labels = connected_components_auto(occupied, edges).materialize()

        def count_nodes(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("comp", as_index=False).size()
            g.columns = ["comp", "n_cells"]
            return g.astype(np.int64)

        n_per = grouped_apply(labels, "comp", count_nodes)

        def as_u(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"id": df["u"].to_numpy(np.int64)})

        edge_comp = hash_join(
            edges.map_batches(as_u, batch_format="pandas"), labels,
            "id", how="inner")

        def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("comp", as_index=False).size()
            g.columns = ["comp", "pairs"]
            return g.astype(np.int64)

        pairs = grouped_apply(edge_comp, "comp", count_pairs)
        joined = hash_join(n_per, pairs, "comp", how="left")

        def finish(df: pd.DataFrame) -> pd.DataFrame:
            n = df["n_cells"].to_numpy(np.int64)
            p = df["pairs"].fillna(0).to_numpy(np.int64)
            return pd.DataFrame({
                "region_id": df["comp"].to_numpy(np.int64),
                "n_cells": n,
                "perimeter": 4 * n - 2 * p})

        return joined.map_batches(finish, batch_format="pandas")

    n = nodes.count()
    if n == 0:  # no cells: the kernel's empty table (the joins need a schema)
        return on_driver()
    return ladder("polygons.cell_regions", n, DEFAULT_BROADCAST_CAP,
                  on_driver, distributed)


# -------------------------------------------------------------- convex hulls


def _hull_half(pts: np.ndarray) -> list:
    """One monotone-chain half over lexicographically sorted integer
    points; STRICT turns only (cross <= 0 pops), so collinear boundary
    points are never hull vertices."""
    out: list = []
    for p in pts:
        while len(out) >= 2:
            ox, oy = out[-2]
            ax, ay = out[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                out.pop()
            else:
                break
        out.append((int(p[0]), int(p[1])))
    return out


def convex_hull_stats(x: np.ndarray, y: np.ndarray):
    """Convex hull of one integer point set (Andrew monotone chain,
    exact integer cross products): returns (n_hull, area2) — the hull
    vertex count under the strict-turn convention (collinear points on
    an edge do NOT count) and TWICE the enclosed area (shoelace sum,
    integer-exact). Degenerate sets (all points collinear) report the
    2 extreme points and area 0; a single point reports (1, 0)."""
    pts = np.unique(np.stack([np.asarray(x, np.int64),
                              np.asarray(y, np.int64)], axis=1), axis=0)
    if len(pts) == 1:
        return 1, 0
    lower = _hull_half(pts)
    upper = _hull_half(pts[::-1])
    if len(lower) == 2 and len(upper) == 2 and len(
            {tuple(p) for p in np.concatenate([lower, upper])}) == 2:
        return 2, 0  # all collinear
    hull = lower[:-1] + upper[:-1]
    a2 = 0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        a2 += x0 * y1 - x1 * y0
    return len(hull), abs(a2)


def convex_hulls(ds, *, group_col: str = "group_id",
                 x_col: str = "x", y_col: str = "y"):
    """Per-group convex hulls: one int-keyed grouped shuffle (groups
    complete per bucket), then the exact integer monotone chain per
    group — per-group work is independent, so the stage parallelizes
    across groups; the chain itself is the algorithm's sequential
    scan. Output (group_col, n_hull, area2)."""
    from .joins import grouped_apply

    def hulls(df: pd.DataFrame) -> pd.DataFrame:
        gids, ns, areas = [], [], []
        for gid, g in df.groupby(group_col, sort=False):
            n, a2 = convex_hull_stats(g[x_col].to_numpy(np.int64),
                                      g[y_col].to_numpy(np.int64))
            gids.append(gid)
            ns.append(n)
            areas.append(a2)
        return pd.DataFrame({
            group_col: np.array(gids, np.int64),
            "n_hull": np.array(ns, np.int64),
            "area2": np.array(areas, np.int64)})

    return grouped_apply(ds, group_col, hulls)


# ------------------------------------------------------ convex clipping


def sutherland_hodgman(subject, clip):
    """Clip `subject` (vertex list, any winding) by CONVEX `clip`
    (CCW vertex list) — the classic half-plane-at-a-time pipeline.
    Points exactly on a clip edge count as inside, so shared borders
    survive with zero-area slivers at worst (they cancel in the
    shoelace).  Returns the clipped vertex list (possibly empty)."""
    out = list(subject)
    n = len(clip)
    for i in range(n):
        if not out:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inp, out = out, []
        m = len(inp)
        for j in range(m):
            cx, cy = inp[j]
            dx, dy = inp[(j + 1) % m]
            sc = ex * (cy - ay) - ey * (cx - ax)
            sd = ex * (dy - ay) - ey * (dx - ax)
            if sd >= 0.0:
                if sc < 0.0:
                    t = sc / (sc - sd)
                    out.append((cx + t * (dx - cx), cy + t * (dy - cy)))
                out.append((dx, dy))
            elif sc >= 0.0:
                t = sc / (sc - sd)
                out.append((cx + t * (dx - cx), cy + t * (dy - cy)))
    return out


def _shoelace2(verts) -> float:
    a = 0.0
    m = len(verts)
    for j in range(m):
        x1, y1 = verts[j]
        x2, y2 = verts[(j + 1) % m]
        a += x1 * y2 - x2 * y1
    return a


def clip_area_stats(ds, *, subj_col: str = "subj", clip_col: str = "clip",
                    id_col: str = "doc_id"):
    """Distributed convex clipping: fused stateless task, zero shuffle.
    Vertex columns are float64 little-endian byte buffers
    (x0,y0,x1,y1,...) — bytes cells, never ragged ndarrays.  Output
    (id_col, area2, inter_w, inter_h): doubled shoelace area of
    subject∩clip and the intersection's bbox extents, rounded to
    int64 (exact for integral inputs — float error is ~1 ulp, the
    true values are integers)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        a2 = np.zeros(len(ids), np.int64)
        iw = np.zeros(len(ids), np.int64)
        ih = np.zeros(len(ids), np.int64)
        subs = df[subj_col].to_numpy(object)
        clps = df[clip_col].to_numpy(object)
        for r in range(len(ids)):
            s = np.frombuffer(subs[r], dtype="<f8").reshape(-1, 2)
            c = np.frombuffer(clps[r], dtype="<f8").reshape(-1, 2)
            verts = sutherland_hodgman(
                [tuple(p) for p in s], [tuple(p) for p in c])
            area2 = abs(_shoelace2(verts)) if verts else 0.0
            a2[r] = round(area2)
            if verts and a2[r] > 0:
                xs = [p[0] for p in verts]
                ys = [p[1] for p in verts]
                iw[r] = round(max(xs) - min(xs))
                ih[r] = round(max(ys) - min(ys))
        return pd.DataFrame({id_col: ids, "area2": a2,
                             "inter_w": iw, "inter_h": ih})

    return ds.map_batches(fn, batch_format="pandas")


# -------------------------------------------------- segment crossings


def _ccw(px, py, qx, qy, rx, ry):
    """Sign-carrying doubled orientation: >0 left turn, <0 right,
    0 collinear. Pure int64 for integral inputs (coords < 2^31 are
    exact — the SQL mirror writes the same expression)."""
    return (qx - px) * (ry - py) - (qy - py) * (rx - px)


#: candidate pairs ``segment_crossings`` gathers per chunk of A rows
_PAIR_CHUNK = 1 << 18


def segment_crossings(a_ds, b_ds, *, cell: int = 64,
                      id_col: str = "seg_id", num_buckets: int = 64):
    """Count PROPER crossings (strict interior intersection — touching
    endpoints and collinear overlap excluded, so the predicate is four
    exact integer cross products: d1*d2 < 0 AND d3*d4 < 0) between two
    segment tables ``(seg_id, x1, y1, x2, y2)`` int64, per A-segment.

    Scale shape — the planar-overlay join: each segment emits its bbox
    covering cells at resolution ``cell`` (np.repeat explode, the 2-D
    analog of the window covering explode); ONE cell-bucket shuffle
    co-locates candidates; each bucket gathers its same-cell (A, B) row
    pairs with one ``cells.KeyIndex`` over its B rows, in chunks of A
    rows holding about ``_PAIR_CHUNK`` pairs (no per-cell loop); a pair
    is evaluated ONLY in the cell holding the min corner of its bbox
    overlap (a unique cell both segments cover), so no cross-cell pair
    dedup pass is needed; per-bucket (seg_id, n) partials bound the
    final tiny merge. Coordinates must
    be non-negative (floor vs trunc division parity with SQL mirrors)
    and below ``cell * 2^21`` (~134M at cell=64): the cell key packs as
    ``gx * 2^21 + gy``, so a gy >= 2^21 would corrupt the min-corner
    decode and silently drop proper crossings — ``cover`` raises on
    any out-of-range coordinate instead.
    Returns a Dataset (seg_id, n_cross) for A-segments with >= 1
    crossing."""
    from .joins import grouped_apply

    def cover(df: pd.DataFrame, side: int) -> pd.DataFrame:
        x1 = df["x1"].to_numpy(np.int64); y1 = df["y1"].to_numpy(np.int64)
        x2 = df["x2"].to_numpy(np.int64); y2 = df["y2"].to_numpy(np.int64)
        sid = df[id_col].to_numpy(np.int64)
        cx1 = np.minimum(x1, x2) // cell; cx2 = np.maximum(x1, x2) // cell
        cy1 = np.minimum(y1, y2) // cell; cy2 = np.maximum(y1, y2) // cell
        if len(df) and (max(cx2.max(), cy2.max()) >= (1 << 21)
                        or min(cx1.min(), cy1.min()) < 0):
            raise ValueError(
                "segment_crossings: coordinates must lie in "
                f"[0, {cell * (1 << 21)}) at cell={cell} — the packed "
                "cell key gx*2^21+gy cannot represent this extent")
        nx = (cx2 - cx1 + 1); ny = (cy2 - cy1 + 1)
        n = nx * ny
        ridx = np.repeat(np.arange(len(df)), n)
        # per-row local cell enumeration: k // ny gives the x step
        k = cells.ragged_arange(n)
        gx = cx1[ridx] + k // ny[ridx]
        gy = cy1[ridx] + k % ny[ridx]
        return pd.DataFrame({
            "ck": gx * np.int64(1 << 21) + gy,
            "side": np.int64(side), "sid": sid[ridx],
            "x1": x1[ridx], "y1": y1[ridx],
            "x2": x2[ridx], "y2": y2[ridx]})

    covered = (a_ds.map_batches(lambda df: cover(df, 0), batch_format="pandas")
               .union(b_ds.map_batches(lambda df: cover(df, 1),
                                       batch_format="pandas")))

    def crossing_ids(a, b, ia, ib):
        """A seg ids of the proper crossings among the (A row, B row) pairs."""
        ax1 = a["x1"][ia]; ay1 = a["y1"][ia]; ax2 = a["x2"][ia]; ay2 = a["y2"][ia]
        bx1 = b["x1"][ib]; by1 = b["y1"][ib]; bx2 = b["x2"][ib]; by2 = b["y2"][ib]
        ck = a["ck"][ia]
        ox = np.maximum(np.minimum(ax1, ax2), np.minimum(bx1, bx2))
        oy = np.maximum(np.minimum(ay1, ay2), np.minimum(by1, by2))
        # evaluate the pair only in its bbox-overlap min-corner cell
        here = (ox // cell == ck // (1 << 21)) & (oy // cell == ck % (1 << 21))
        d1 = _ccw(bx1, by1, bx2, by2, ax1, ay1)
        d2 = _ccw(bx1, by1, bx2, by2, ax2, ay2)
        d3 = _ccw(ax1, ay1, ax2, ay2, bx1, by1)
        d4 = _ccw(ax1, ay1, ax2, ay2, bx2, by2)
        hit = here & ((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0) \
            & ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0)
        return a["sid"][ia][hit]

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        side = df["side"].to_numpy(np.int64)
        a, b = ({c: df[c].to_numpy(np.int64)[side == s]
                 for c in ("ck", "sid", "x1", "y1", "x2", "y2")} for s in (0, 1))
        index = cells.KeyIndex(b["ck"], np.arange(len(b["ck"]), dtype=np.int64))
        # chunks of A rows holding about _PAIR_CHUNK candidate pairs each
        # (a hot cell's na * nb pairs are never all held at once)
        n = index.counts(a["ck"])
        chunk = (np.cumsum(n) - n) // _PAIR_CHUNK
        bounds = np.append(np.flatnonzero(cells.run_starts(chunk)), len(chunk))
        hits = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ia, ib = index.pairs(a["ck"][lo:hi])
            hits.append(crossing_ids(a, b, ia + lo, ib))
        t = pd.DataFrame({"seg_id": np.concatenate([*hits, np.empty(0, np.int64)]),
                          "n": np.int64(1)})
        g = t.groupby("seg_id", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("seg_id", as_index=False)["n"].sum()
        return pd.DataFrame({"seg_id": g["seg_id"].to_numpy(np.int64),
                             "n_cross": g["n"].to_numpy(np.int64)})

    parts = grouped_apply(covered, "ck", bucket, num_buckets=num_buckets)
    return grouped_apply(parts, "seg_id", merge,
                         num_buckets=max(8, num_buckets // 4))
