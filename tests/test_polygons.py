"""Polygon layer: point-in-polygon join, zonal stats, raster->vector.

The distributed paths are oracle-checked end-to-end in
test_driver_contract.py (point_in_polygon / pip_zonal /
raster_polygonize vs DuckDB); these tests pin the kernels themselves
against brute force and cover the degenerate cases the driver data
never hits."""

import numpy as np
import pandas as pd
import pytest

from ophois_ray import cells
from ophois_ray.polygons import (
    PolygonIndex,
    point_in_polygon_join,
    polygonize_raster,
    zonal_stats,
)


def _random_polys(rng, n=6):
    polys = {}
    for pid in range(n):
        cx, cy = rng.uniform(-150, 150), rng.uniform(-60, 60)
        ang = np.sort(rng.uniform(0, 2 * np.pi, rng.randint(4, 9)))
        r = rng.uniform(5, 30, len(ang))
        polys[pid] = [
            (float(cy + r[i] * np.sin(a)), float(cx + r[i] * np.cos(a)))
            for i, a in enumerate(ang)
        ]
    return polys


def _brute(lat, lon, polys):
    out = []
    for p, ring in polys.items():
        la = np.array([v[0] for v in ring])
        lo = np.array([v[1] for v in ring])
        nla, nlo = np.roll(la, -1), np.roll(lo, -1)
        keep = la != nla
        y1, x1, y2, x2 = la[keep], lo[keep], nla[keep], nlo[keep]
        cnt = np.zeros(len(lat), dtype=int)
        for i in range(len(y1)):
            cnt += ((y1[i] > lat) != (y2[i] > lat)) & (
                lon < (x2[i] - x1[i]) * (lat - y1[i]) / (y2[i] - y1[i]) + x1[i]
            )
        out.extend((r, p) for r in np.flatnonzero(cnt % 2 == 1))
    return sorted(out)


def test_pip_index_matches_brute_force():
    rng = np.random.RandomState(42)
    polys = _random_polys(rng)
    idx = PolygonIndex(polys, prefilter_res=4)
    lat = rng.uniform(-90, 90, 20000)
    lon = rng.uniform(-180, 180, 20000)
    rows, pid = idx.join(lat, lon)
    assert sorted(zip(rows.tolist(), pid.tolist())) == _brute(lat, lon, polys)
    assert len(rows) > 100  # non-vacuous


def test_pip_overlapping_and_concave():
    # two overlapping squares + a concave C-shape
    polys = {
        1: [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)],
        2: [(5.0, 5.0), (5.0, 15.0), (15.0, 15.0), (15.0, 5.0)],
        3: [(20.0, 0.0), (30.0, 0.0), (30.0, 10.0), (28.0, 10.0),
            (28.0, 2.0), (22.0, 2.0), (22.0, 10.0), (20.0, 10.0)],
    }
    idx = PolygonIndex(polys)
    lat = np.array([7.3, 2.1, 12.0, 25.0, 25.0, 29.0])
    lon = np.array([7.3, 2.1, 12.0, 1.0, 5.0, 5.0])
    rows, pid = idx.join(lat, lon)
    got = set(zip(rows.tolist(), pid.tolist()))
    # point 0 in both squares; 1 only in square 1; 2 only in square 2;
    # 3 inside the C; 4 in the C's concave mouth (outside); 5 in C's arm
    assert got == {(0, 1), (0, 2), (1, 1), (2, 2), (3, 3), (5, 3)}


def test_pip_empty_inputs():
    idx = PolygonIndex({0: [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]})
    rows, pid = idx.join(np.array([]), np.array([]))
    assert len(rows) == 0 and len(pid) == 0
    rows, pid = idx.join(np.array([50.0]), np.array([50.0]))
    assert len(rows) == 0


def test_pip_join_distributed_matches_local(ray_session):
    import ray.data

    rng = np.random.RandomState(9)
    polys = _random_polys(rng, 4)
    df = pd.DataFrame(
        {
            "pt": np.arange(5000, dtype=np.int64),
            "lat": rng.uniform(-90, 90, 5000),
            "lon": rng.uniform(-180, 180, 5000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(6)
    out = (
        point_in_polygon_join(ds, polys, keep_cols=["pt"], out_col="poly_id")
        .to_pandas()
        .sort_values(["pt", "poly_id"])
        .reset_index(drop=True)
    )
    idx = PolygonIndex(polys)
    rows, pid = idx.join(df["lat"].to_numpy(), df["lon"].to_numpy())
    assert out["pt"].tolist() == rows.tolist()
    assert out["poly_id"].tolist() == pid.tolist()

    zs = zonal_stats(ds, polys, value_col="pt")
    exp = (
        pd.DataFrame({"poly_id": pid, "pt": df["pt"].to_numpy()[rows]})
        .groupby("poly_id", as_index=False)
        .agg(n_points=("poly_id", "size"), sum_value=("pt", "sum"))
    )
    assert zs["poly_id"].tolist() == exp["poly_id"].tolist()
    assert zs["n_points"].tolist() == exp["n_points"].tolist()
    assert zs["sum_value"].tolist() == exp["sum_value"].tolist()


def test_polygonize_raster_regions():
    # three components: a 3-run, a vertical 2-run, a horizontal 2-run
    cell = cells.encode(
        np.full(7, 6),
        np.array([3, 4, 5, 10, 10, 20, 21]),
        np.array([3, 3, 3, 7, 8, 1, 1]),
    )
    df = pd.DataFrame({"cell": cell, "n": np.full(7, 5, np.int64)})
    out = polygonize_raster(df, threshold=2)
    sizes = sorted(out.groupby("region").size().tolist())
    assert sizes == [2, 2, 3]
    # region label is the component's min cell id
    for region, grp in out.groupby("region"):
        assert region == grp["cell"].min()
    # threshold filters everything -> empty frame with the right schema
    empty = polygonize_raster(df, threshold=99)
    assert len(empty) == 0 and list(empty.columns) == ["cell", "region"]


def test_polygonize_no_diagonal_adjacency():
    cell = cells.encode(np.full(2, 6), np.array([3, 4]), np.array([3, 4]))
    out = polygonize_raster(
        pd.DataFrame({"cell": cell, "n": np.array([5, 5], np.int64)}), 1
    )
    assert out["region"].nunique() == 2


def test_cell_regions_l_shape_and_diagonal(ray_session):
    """polygons.cell_regions: an L-shaped polyomino dissolves into one
    region with the 4n-2*pairs perimeter; diagonal contact does NOT
    connect (4-connectivity)."""
    import ray

    from ophois_ray.polygons import cell_regions

    # L-shape: (0,0),(1,0),(0,1),(0,2)  n=4, pairs=3 -> perimeter 10
    # diagonal singleton at (2,1) touches (1,0) only at a corner
    df = pd.DataFrame({"x": [0, 1, 0, 0, 2], "y": [0, 0, 1, 2, 1]})
    got = (cell_regions(ray.data.from_pandas(df), width=16)
           .to_pandas().sort_values("region_id").reset_index(drop=True))
    assert got.to_dict("records") == [
        {"region_id": 0, "n_cells": 4, "perimeter": 10},
        {"region_id": 18, "n_cells": 1, "perimeter": 4}]


def test_convex_hull_strict_turn_convention():
    """polygons.convex_hull_stats: collinear points on SLANTED hull
    edges are excluded too; duplicates collapse; shoelace is exact."""
    import numpy as np

    from ophois_ray.polygons import convex_hull_stats

    # triangle (0,0),(4,0),(2,2) with midpoints of both slanted edges
    assert convex_hull_stats(
        np.array([0, 4, 2, 1, 3]), np.array([0, 0, 2, 1, 1])) == (3, 8)
    # duplicated corner points collapse before the chain runs
    assert convex_hull_stats(
        np.array([0, 0, 2, 2, 0]), np.array([0, 0, 0, 2, 2])) == (4, 8)
    # vertical collinear set
    assert convex_hull_stats(
        np.array([1, 1, 1]), np.array([0, 5, 9])) == (2, 0)


def test_sutherland_hodgman_analytic_cases():
    """polygons.sutherland_hodgman on NON-rectangular analytics: a
    diamond window cutting all four corners of a square, a triangle
    subject, full containment both ways, and CW subject winding
    (clip must still be CCW; subject winding only flips the shoelace
    sign)."""
    from ophois_ray.polygons import _shoelace2, sutherland_hodgman

    sq = [(0, 0), (10, 0), (10, 10), (0, 10)]
    dia = [(9, 5), (5, 9), (1, 5), (5, 1)]  # half-diag 4, area2=64
    assert abs(_shoelace2(sutherland_hodgman(sq, dia))) == 64.0
    # subject fully inside the window -> subject survives verbatim
    assert abs(_shoelace2(sutherland_hodgman(
        [(4, 4), (6, 4), (5, 6)], dia))) == 4.0
    # big diamond window centred on the square: corners at distance 15
    # cut nothing -> square survives
    big = [(20, 5), (5, 20), (-10, 5), (5, -10)]
    assert abs(_shoelace2(sutherland_hodgman(sq, big))) == 200.0
    # triangle half-covered by the right half-plane window x>=5:
    # triangle (0,0),(10,0),(0,10) clipped by square [5,15]^2 ->
    # right corner triangle (5,0),(10,0),(5,5), area2 = 25
    win = [(5, 0), (15, 0), (15, 15), (5, 15)]
    assert abs(_shoelace2(sutherland_hodgman(
        [(0, 0), (10, 0), (0, 10)], win))) == 25.0
    # CW subject: same magnitude
    assert abs(_shoelace2(sutherland_hodgman(
        [(0, 0), (0, 10), (10, 0)], win))) == 25.0
    # disjoint -> empty
    assert sutherland_hodgman(sq, [(100, 0), (110, 0), (110, 10), (100, 10)]) == []


def test_clip_area_stats_matches_scalar(ray_session):
    """polygons.clip_area_stats over packed byte buffers matches the
    scalar kernel + analytic expectations row-for-row."""
    import ray

    from ophois_ray.polygons import clip_area_stats

    sq = np.array([0, 0, 10, 0, 10, 10, 0, 10], np.float64)
    dia = np.array([9, 5, 5, 9, 1, 5, 5, 1], np.float64)
    touch = np.array([10, 0, 13, 0, 13, 10, 10, 10], np.float64)
    df = pd.DataFrame({
        "doc_id": np.array([1, 2, 3], np.int64),
        "subj": [sq.tobytes()] * 3,
        "clip": [dia.tobytes(), touch.tobytes(),
                 np.array([50, 50, 60, 50, 60, 60, 50, 60],
                          np.float64).tobytes()],
    })
    got = (clip_area_stats(ray.data.from_pandas(df))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got.to_dict("records") == [
        {"doc_id": 1, "area2": 64, "inter_w": 8, "inter_h": 8},
        {"doc_id": 2, "area2": 0, "inter_w": 0, "inter_h": 0},
        {"doc_id": 3, "area2": 0, "inter_w": 0, "inter_h": 0}]


def test_segment_crossings_matches_brute_force(ray_session):
    """polygons.segment_crossings == brute-force strict-crossing count
    over random integer segments, including cell-boundary cases (the
    pair-once rule must not double- or zero-count pairs straddling
    cells)."""
    import ray

    from ophois_ray.polygons import _ccw, segment_crossings

    rng = np.random.default_rng(23)

    def gen(n, seed_off):
        r = np.random.default_rng(23 + seed_off)
        x1 = r.integers(0, 1000, n); y1 = r.integers(0, 1000, n)
        # spans up to ~200 so segments cross several 64-cells
        x2 = x1 + r.integers(-200, 201, n); y2 = y1 + r.integers(-200, 201, n)
        x2 = np.clip(x2, 0, 1200); y2 = np.clip(y2, 0, 1200)
        return pd.DataFrame({"seg_id": np.arange(n, dtype=np.int64),
                             "x1": x1.astype(np.int64), "y1": y1.astype(np.int64),
                             "x2": x2.astype(np.int64), "y2": y2.astype(np.int64)})

    A, B = gen(120, 0), gen(150, 1)
    counts: dict = {}
    for a in A.itertuples():
        for b in B.itertuples():
            d1 = _ccw(b.x1, b.y1, b.x2, b.y2, a.x1, a.y1)
            d2 = _ccw(b.x1, b.y1, b.x2, b.y2, a.x2, a.y2)
            d3 = _ccw(a.x1, a.y1, a.x2, a.y2, b.x1, b.y1)
            d4 = _ccw(a.x1, a.y1, a.x2, a.y2, b.x2, b.y2)
            if d1 * d2 < 0 and d3 * d4 < 0:
                counts[a.seg_id] = counts.get(a.seg_id, 0) + 1
    exp = (pd.DataFrame({"seg_id": list(counts), "n_cross": list(counts.values())})
           .astype(np.int64).sort_values("seg_id", ignore_index=True))
    got = (segment_crossings(ray.data.from_pandas(A).repartition(4),
                             ray.data.from_pandas(B).repartition(5),
                             num_buckets=16)
           .to_pandas().sort_values("seg_id", ignore_index=True).astype(np.int64))
    pd.testing.assert_frame_equal(got, exp)
    assert len(exp) > 20  # the corpus actually exercises crossings


def test_segment_crossings_coordinate_bound_guard(ray_session):
    """polygons.segment_crossings: coordinates at/above cell * 2^21
    raise instead of silently corrupting the packed gx*2^21+gy cell
    key (regression — an overflowing gy made the min-corner 'here'
    test miss and dropped proper crossings)."""
    import ray

    from ophois_ray.polygons import segment_crossings

    big = 64 * (1 << 21)  # first out-of-range coordinate at cell=64
    A = pd.DataFrame({"seg_id": np.array([1], np.int64),
                      "x1": np.array([0], np.int64),
                      "y1": np.array([big], np.int64),
                      "x2": np.array([10], np.int64),
                      "y2": np.array([big], np.int64)})
    B = pd.DataFrame({"seg_id": np.array([2], np.int64),
                      "x1": np.array([5], np.int64),
                      "y1": np.array([0], np.int64),
                      "x2": np.array([5], np.int64),
                      "y2": np.array([big], np.int64)})
    with pytest.raises(ray.exceptions.RayTaskError):
        segment_crossings(ray.data.from_pandas(A),
                          ray.data.from_pandas(B)).to_pandas()
    # in-range segments still work
    A2 = A.assign(y1=np.int64(5), y2=np.int64(5))
    B2 = B.assign(y2=np.int64(big - 1))
    got = segment_crossings(ray.data.from_pandas(A2),
                            ray.data.from_pandas(B2)).to_pandas()
    assert got["seg_id"].tolist() == [1]
    assert got["n_cross"].tolist() == [1]


def test_cell_regions_ladder_parity(ray_session):
    """polygons.cell_regions: the under-cap driver kernel and the
    forced-over-cap distributed dissolve (``forced_rung("large")``,
    which also forces the labelprop rung inside
    connected_components_auto) return identical (region_id, n_cells,
    perimeter) rows on a random cell soup with touching, diagonal and
    isolated regions — also when cells are listed twice and one cell
    200 times (occupancy is a set), and on no cells."""
    import pyarrow as pa
    import ray

    from ophois_ray.joins import forced_rung
    from ophois_ray.polygons import cell_regions

    rng = np.random.default_rng(5)
    pts = np.unique(rng.integers(0, 22, size=(300, 2)), axis=0)
    df = pd.DataFrame({"x": pts[:, 0].astype(np.int64),
                       "y": pts[:, 1].astype(np.int64)})
    # a small corner of the soup keeps the labelprop rounds few
    few = df.iloc[:40]
    dup = pd.concat([few, few] + [few.iloc[:1]] * 200, ignore_index=True)

    def run(frame, rung):
        # via Arrow: a 0-row from_pandas Dataset drops its columns
        ds = ray.data.from_arrow(pa.Table.from_pandas(
            frame, preserve_index=False)).repartition(3)
        with forced_rung(rung):
            out = cell_regions(ds, width=64).to_pandas()
        if not len(out):
            return out
        return (out.astype(np.int64)[["region_id", "n_cells", "perimeter"]]
                .sort_values("region_id", ignore_index=True))

    fast = run(df, "small")
    pd.testing.assert_frame_equal(fast, run(df, "large"))
    assert fast["n_cells"].sum() == len(df)
    want = run(few, "small")
    pd.testing.assert_frame_equal(run(dup, "small"), want)
    pd.testing.assert_frame_equal(run(dup, "large"), want)
    assert len(run(df.iloc[:0], "small")) == len(run(df.iloc[:0], "large")) == 0
