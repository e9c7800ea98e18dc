"""Output checks of the benchmark, computed apart from the engine.

Every function here reads the generator's own record of an input
(``truth_*.parquet``, ``meta.json``) and the rows a pipeline returned,
and raises :class:`CheckFailed` on the first property that does not
hold. Nothing here imports ``ophois_ray``: the cell layout, the planar
point-to-segment distance and the haversine are written out again.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

EARTH_RADIUS_M = 6371008.7714


class CheckFailed(AssertionError):
    pass


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------- geometry


def seg_sqdist(plat, plon, alat, alon, blat, blon):
    """Squared planar (lat/lon degree) distance from P to segment AB:
    project, clamp the parameter to [0, 1], square the offset."""
    dlat = blat - alat
    dlon = blon - alon
    seg = dlat * dlat + dlon * dlon
    num = (plat - alat) * dlat + (plon - alon) * dlon
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(seg > 0.0, num / np.where(seg > 0.0, seg, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    ex = alat + t * dlat - plat
    ey = alon + t * dlon - plon
    return ex * ex + ey * ey


def haversine_m(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin(np.radians(lat2 - lat1) / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2)
    return EARTH_RADIUS_M * 2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))


def cell_ixiy(lat, lon, res: int):
    """Grid indices of the engine's documented cell layout (an
    equirectangular quadtree: ix over longitude, iy over latitude)."""
    n = float(1 << res)
    ix = np.clip(np.floor((np.asarray(lon) + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    iy = np.clip(np.floor((np.asarray(lat) + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    return ix, iy


def cell_id(res, ix, iy):
    return (np.int64(res) << 58) | (np.asarray(ix, np.int64) << 29) | np.asarray(iy, np.int64)


def ring_boundary_sq(lat, lon, res: int, ring: int = 1):
    """Squared planar distance from each point to the boundary of its
    (2 ring + 1)^2 cell block. Any edge with a point closer than this
    passes through the block."""
    ix, iy = cell_ixiy(lat, lon, res)
    w, h = 360.0 / (1 << res), 180.0 / (1 << res)
    lon_lo = (ix - ring) * w - 180.0
    lon_hi = (ix + ring + 1) * w - 180.0
    lat_lo = (iy - ring) * h - 90.0
    lat_hi = (iy + ring + 1) * h - 90.0
    d = np.minimum.reduce([lat - lat_lo, lat_hi - lat, lon - lon_lo, lon_hi - lon])
    return d * d


class EdgeSet:
    """The generator's edge table, sorted by (u, v) so that the row
    index is the (sqdist, u, v) tiebreak order, with an exact
    nearest-edge search."""

    def __init__(self, edges: pd.DataFrame):
        e = edges.sort_values(["u", "v"], kind="stable").reset_index(drop=True)
        self.df = e
        self.key = pd.Index(e["u"] + "|" + e["v"])
        self.a = e[["u_lat", "u_lon"]].to_numpy(np.float64)
        self.b = e[["v_lat", "v_lon"]].to_numpy(np.float64)
        self.lo = np.minimum(self.a, self.b)
        self.hi = np.maximum(self.a, self.b)

    def index_of(self, u, v) -> np.ndarray:
        return self.key.get_indexer(pd.Series(u, dtype=object) + "|" + pd.Series(v, dtype=object))

    def sqdist(self, plat, plon, idx):
        return seg_sqdist(plat, plon, self.a[idx, 0], self.a[idx, 1], self.b[idx, 0], self.b[idx, 1])

    def _scan(self, plat, plon, cand):
        """(best index, best sqdist) per point over the edge rows ``cand``
        (ascending), first minimum wins."""
        best_i = np.empty(len(plat), np.int64)
        best_d = np.empty(len(plat))
        step = max(1, 2_000_000 // max(len(cand), 1))
        for s in range(0, len(plat), step):
            d = seg_sqdist(plat[s:s + step, None], plon[s:s + step, None],
                           self.a[cand, 0][None], self.a[cand, 1][None],
                           self.b[cand, 0][None], self.b[cand, 1][None])
            j = np.argmin(d, axis=1)
            best_i[s:s + step] = cand[j]
            best_d[s:s + step] = d[np.arange(len(j)), j]
        return best_i, best_d

    def nearest(self, plat, plon, cell_deg: float):
        """Exact nearest edge of every point over ALL edges.

        Edges are registered in every cell of a ``cell_deg`` grid that
        their bounding box overlaps. A point first scans the edges of
        its 3 x 3 cell block; an edge outside that list lies wholly
        outside the block, so when the best found is no farther than the
        block boundary it is the global answer. Other points fall back
        to a scan of every edge."""
        plat = np.asarray(plat, np.float64)
        plon = np.asarray(plon, np.float64)
        n = len(plat)
        best_i = np.full(n, -1, np.int64)
        best_d = np.full(n, np.inf)
        if n == 0 or len(self.df) == 0:
            return best_i, best_d
        gx0 = np.floor(self.lo[:, 1] / cell_deg).astype(np.int64)
        gx1 = np.floor(self.hi[:, 1] / cell_deg).astype(np.int64)
        gy0 = np.floor(self.lo[:, 0] / cell_deg).astype(np.int64)
        gy1 = np.floor(self.hi[:, 0] / cell_deg).astype(np.int64)
        reg: dict[tuple[int, int], list[int]] = {}
        for e in range(len(self.df)):
            for gx in range(gx0[e], gx1[e] + 1):
                for gy in range(gy0[e], gy1[e] + 1):
                    reg.setdefault((gx, gy), []).append(e)
        px = np.floor(plon / cell_deg).astype(np.int64)
        py = np.floor(plat / cell_deg).astype(np.int64)
        blk = np.minimum.reduce([plon - (px - 1) * cell_deg, (px + 2) * cell_deg - plon,
                                 plat - (py - 1) * cell_deg, (py + 2) * cell_deg - plat])
        span = int(py.max() - py.min()) + 1
        key = (px - px.min()) * span + (py - py.min())
        ukeys, inv = np.unique(key, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(ukeys) + 1))
        for k in range(len(ukeys)):
            rows = order[bounds[k]:bounds[k + 1]]
            gx, gy = int(px[rows[0]]), int(py[rows[0]])
            cand = [reg.get((gx + dx, gy + dy), ()) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
            cand = np.unique(np.concatenate([np.asarray(c, np.int64) for c in cand]))
            if len(cand):
                best_i[rows], best_d[rows] = self._scan(plat[rows], plon[rows], cand)
        unsure = np.flatnonzero(~(best_d < blk * blk))
        if len(unsure):
            best_i[unsure], best_d[unsure] = self._scan(plat[unsure], plon[unsure],
                                                        np.arange(len(self.df)))
        return best_i, best_d


# -------------------------------------------------------------- pages / snap


def check_dedup_geotag(out: pd.DataFrame, truth: pd.DataFrame) -> pd.DataFrame:
    """Dedup + geotag on the pipeline's final rows (url, lat, lon, ...).

    Each url appears once; it is a url whose earliest-timestamp row has
    coordinates, and its lat/lon are exactly those that row embedded.
    Returns the winners with coordinates (url, lat, lon)."""
    require(out["url"].is_unique, "dedup: a url appears more than once in the output")
    win = truth[truth["winner"] & (truth["kind"] != -2)]
    exp = pd.DataFrame({"url": win["url"].to_numpy(),
                        "lat": win["lat_s"].astype(np.float64).to_numpy(),
                        "lon": win["lon_s"].astype(np.float64).to_numpy()})
    m = out[["url", "lat", "lon"]].merge(exp, on="url", how="left", suffixes=("", "_exp"))
    require(m["lat_exp"].notna().all(),
            "dedup/geotag: output holds a url whose earliest row has no coordinates")
    require(((m["lat"] == m["lat_exp"]) & (m["lon"] == m["lon_exp"])).all(),
            "geotag: output lat/lon differ from the coordinates of the url's earliest row")
    return exp


def check_extract(texts: pd.DataFrame, truth: pd.DataFrame) -> int:
    """``texts`` = (url, warc_ts_us, text) from extract_text over sample
    shards; each must equal the generator's assembled text byte for byte."""
    m = texts.merge(truth[["url", "warc_ts_us", "text"]], on=["url", "warc_ts_us"],
                    how="left", suffixes=("", "_exp"))
    require(len(m) == len(texts) and m["text_exp"].notna().all(),
            "extract: a sampled row is not in the generator's record")
    bad = m["text"].str.encode("utf-8") != m["text_exp"].str.encode("utf-8")
    require(not bad.any(), f"extract: {int(bad.sum())} of {len(m)} sampled texts differ from the generator's")
    return len(m)


def check_snap(out: pd.DataFrame, pts: pd.DataFrame, edges: EdgeSet, *, res: int,
               ring: int, cell_deg: float, nearest_sq=None) -> dict:
    """Every snap property on (url, lat, lon, u, v, sqdist) rows.

    ``pts`` = every point offered to the snap (url, lat, lon). Checks:
    (u, v) is an input edge; the recomputed planar sqdist equals the
    reported one; no row beats the exact nearest edge; a point whose
    nearest edge is closer than the boundary of its ring block is in
    the output at that distance (ties at equal sqdist allowed).
    ``nearest_sq`` = exact nearest sqdist per point of ``pts``, when
    already known."""
    ei = edges.index_of(out["u"].to_numpy(object), out["v"].to_numpy(object))
    require((ei >= 0).all(), f"snap: {int((ei < 0).sum())} rows name an edge not in the input")
    lat = out["lat"].to_numpy(np.float64)
    lon = out["lon"].to_numpy(np.float64)
    sq = edges.sqdist(lat, lon, ei)
    require((sq == out["sqdist"].to_numpy(np.float64)).all(),
            "snap: reported sqdist differs from the recomputed planar distance")
    p = pts.reset_index(drop=True)
    plat = p["lat"].to_numpy(np.float64)
    plon = p["lon"].to_numpy(np.float64)
    bd = edges.nearest(plat, plon, cell_deg)[1] if nearest_sq is None else nearest_sq
    pos = pd.Index(p["url"]).get_indexer(out["url"])
    require((pos >= 0).all(), "snap: output holds a point that was not offered")
    require((sq >= bd[pos]).all(), "snap: a row beats the exact nearest edge")
    cert = bd < ring_boundary_sq(plat, plon, res, ring)
    got = np.full(len(p), np.nan)
    got[pos] = sq
    miss = cert & ~(got == bd)
    require(not miss.any(),
            f"snap: {int(miss.sum())} of {int(cert.sum())} certified points lack their nearest edge")
    return {"certified": int(cert.sum()), "snapped": int(len(out)),
            "not_nearest": int((sq > bd[pos]).sum())}


def read_tiles(tile_dir: str) -> pd.DataFrame:
    """Every promoted tile directory read back with pyarrow, with the
    tile id its directory names in ``tile``."""
    frames = []
    for name in sorted(os.listdir(tile_dir)):
        if name.startswith("tile=") and "." not in name:
            t = pq.read_table(os.path.join(tile_dir, name, "part-0.parquet")).to_pandas()
            t["tile"] = int(name[len("tile="):])
            frames.append(t)
    require(frames, "resume: no tile was written")
    return pd.concat(frames, ignore_index=True)


def check_tiles(rows: pd.DataFrame, tile_res: int, res: int) -> None:
    """Each row's cell is the cell of its lat/lon, and its tile is that
    cell's parent at ``tile_res``."""
    ix, iy = cell_ixiy(rows["lat"].to_numpy(), rows["lon"].to_numpy(), res)
    require((cell_id(res, ix, iy) == rows["cell"].to_numpy(np.int64)).all(),
            "resume: a row carries a cell that is not its point's")
    s = res - tile_res
    require((cell_id(tile_res, ix >> s, iy >> s) == rows["tile"].to_numpy(np.int64)).all(),
            "resume: a row sits outside its cell's parent tile")


# ------------------------------------------------------------------- graph


def check_build(n_nodes: int, n_edges: int, meta: dict) -> None:
    g = meta["graph"]
    require(n_nodes == g["n_nodes"], f"build: {n_nodes} nodes, generator made {g['n_nodes']}")
    require(n_edges == g["n_edges"], f"build: {n_edges} edges, generator made {g['n_edges']}")


def expected_simplified(meta: dict, truth_edges: pd.DataFrame) -> pd.DataFrame:
    """The largest city after simplify, worked out from its grid: every
    block (shape nodes contracted) between two intersections, except that
    each degree-2 corner is contracted too, leaving a diagonal between
    its two neighbours. G^2 - 4 nodes, 2G(G-1) - 4 edges, generator ids
    and coordinates."""
    city = max(meta["graph"]["cities"], key=lambda c: c["grid"])
    g = city["grid"]
    ids = np.array(city["inter"], dtype=object).reshape(g, g)
    corners = set(city["corners"])
    pairs = [(ids[i, j], ids[i, j + 1]) for i in range(g) for j in range(g - 1)]
    pairs += [(ids[i, j], ids[i + 1, j]) for i in range(g - 1) for j in range(g)]
    pairs = [p for p in pairs if not corners & set(p)]
    pairs += [(ids[0, 1], ids[1, 0]), (ids[0, g - 2], ids[1, g - 1]),
              (ids[g - 2, 0], ids[g - 1, 1]), (ids[g - 1, g - 2], ids[g - 2, g - 1])]
    coord = dict(zip(truth_edges["u"], zip(truth_edges["u_lat"], truth_edges["u_lon"])))
    coord.update(zip(truth_edges["v"], zip(truth_edges["v_lat"], truth_edges["v_lon"])))
    e = pd.DataFrame([min(p) + "|" + max(p) for p in pairs], columns=["k"])
    e[["u", "v"]] = e["k"].str.split("|", expand=True)
    for end in ("u", "v"):
        e[f"{end}_lat"] = [coord[x][0] for x in e[end]]
        e[f"{end}_lon"] = [coord[x][1] for x in e[end]]
    return e.drop(columns="k").sort_values(["u", "v"]).reset_index(drop=True)


def check_simplify(node_ids, edges: pd.DataFrame, expected: pd.DataFrame) -> None:
    """simplify kept exactly the expected node ids, and its edges (with
    the coordinates attached to them) are exactly the expected ones."""
    exp_ids = set(expected["u"]) | set(expected["v"])
    require(len(set(node_ids)) == len(node_ids), "simplify: duplicate node ids")
    require(set(node_ids) == exp_ids,
            f"simplify: {len(set(node_ids) ^ exp_ids)} node ids differ from the largest "
            f"city's non-corner intersections")
    e = edges[["u", "v", "u_lat", "u_lon", "v_lat", "v_lon"]].copy()
    swap = e["u"] > e["v"]
    e.loc[swap] = e.loc[swap, ["v", "u", "v_lat", "v_lon", "u_lat", "u_lon"]].to_numpy()
    e = e.sort_values(["u", "v"]).reset_index(drop=True).astype(expected.dtypes.to_dict())
    require(len(e) == len(expected), f"simplify: {len(e)} edges, expected {len(expected)}")
    require(e.equals(expected), "simplify: the edges differ from the contracted grid's")


def expected_discretize_added(ewc: pd.DataFrame, delta: float) -> int:
    ln = haversine_m(ewc["u_lat"].to_numpy(), ewc["u_lon"].to_numpy(),
                     ewc["v_lat"].to_numpy(), ewc["v_lon"].to_numpy())
    part = np.trunc(ln / delta).astype(np.int64)
    return int(np.maximum(part - 1, 0).sum())
