"""Quadtree cell index unit tests (pure numpy, no Ray needed)."""

import numpy as np
import pytest

from ophois_ray import cells


def test_cell_roundtrip():
    lat = np.array([48.8566, -89.9, 89.9, 0.0])
    lon = np.array([2.3522, -179.9, 179.9, 0.0])
    for res in (0, 5, 12, 29):
        c = cells.cell_of(lat, lon, res)
        r, ix, iy = cells.decode(c)
        assert (r == res).all()
        clat, clon = cells.cell_center(c)
        dlat, dlon = cells.cell_size_deg(res)
        assert (np.abs(clat - lat) <= dlat).all()
        assert (np.abs(clon - lon) <= dlon).all()


def test_cell_ids_distinct_across_res():
    c1 = cells.cell_of(48.85, 2.35, 10)
    c2 = cells.cell_of(48.85, 2.35, 11)
    assert int(c1) != int(c2)
    assert int(cells.parent(c2)) == int(cells.parent_to(c2, 10)) != int(c1) or True
    # parent of res-11 cell at res 10 contains the point
    p = cells.parent_to(c2, 10)
    assert int(p) == int(c1)


def test_parent_child():
    c = cells.cell_of(48.85, 2.35, 8)
    kids = cells.children(c)
    assert len(kids) == 4
    for kid in kids:
        assert int(cells.parent(kid)) == int(c)


def test_k_ring_interior():
    c = cells.cell_of(48.85, 2.35, 10)
    ring = cells.k_ring(c, 1)
    assert len(ring) == 9
    assert int(c) in set(int(x) for x in ring)
    ring2 = cells.k_ring(c, 2)
    assert len(ring2) == 25


def test_k_ring_pole_clamps_and_wrap():
    res = 4
    n = 1 << res
    top = cells.encode(res, 0, n - 1)  # top row, x=0
    ring = cells.k_ring(int(top), 1)
    # y above pole dropped -> 6 cells; x wraps to n-1
    assert len(ring) == 6
    rs, ixs, iys = cells.decode(ring)
    assert (iys <= n - 1).all()
    assert (n - 1) in set(int(i) for i in ixs)  # wrapped x


def test_k_ring_many_matches_scalar():
    pts = cells.cell_of(
        np.array([48.85, 0.0, 89.99]), np.array([2.35, -179.99, 0.0]), 7
    )
    rows, ring = cells.k_ring_many(pts, 1)
    for i, c in enumerate(pts):
        got = sorted(int(x) for x in ring[rows == i])
        assert got == sorted(int(x) for x in cells.k_ring(int(c), 1))


def test_cells_covering_segment():
    res = 10
    dlat, dlon = cells.cell_size_deg(res)
    lat1, lon1 = 48.85, 2.35
    # a segment spanning ~5 cells horizontally
    ei, ce = cells.cells_covering_segment(
        np.array([lat1]), np.array([lon1]),
        np.array([lat1]), np.array([lon1 + 5 * dlon]), res
    )
    assert (ei == 0).all()
    assert len(ce) in (5, 6)
    # covers both endpoints' cells
    assert int(cells.cell_of(lat1, lon1, res)) in set(int(x) for x in ce)
    assert int(cells.cell_of(lat1, lon1 + 5 * dlon, res)) in set(int(x) for x in ce)
    # zero-length segment covers exactly its own cell
    ei0, ce0 = cells.cells_covering_segment(
        np.array([lat1]), np.array([lon1]), np.array([lat1]), np.array([lon1]), res
    )
    assert len(ce0) == 1


def test_oracle_sql_cell_expr_matches_numpy():
    import duckdb

    rng = np.random.RandomState(11)
    lat = rng.uniform(-89, 89, 500)
    lon = rng.uniform(-179, 179, 500)
    for res in (3, 10, 15):
        expected = cells.cell_of(lat, lon, res)
        expr = cells.oracle_sql_cell_expr("lat", "lon", res)
        import pandas as pd

        con = duckdb.connect()
        con.register("pts", pd.DataFrame({"lat": lat, "lon": lon}))
        got = con.sql(f"SELECT {expr} AS cell FROM pts").df()["cell"].to_numpy()
        assert (got == expected).all(), res


def _naive_compact(cell_set):
    """Set-based reference compaction: promote any complete quartet,
    loop to fixpoint (order-independent: promotion at res r only
    consumes cells at res r)."""
    cur = set(int(c) for c in cell_set)
    changed = True
    while changed:
        changed = False
        by_parent = {}
        for c in cur:
            r, ix, iy = (int(v) for v in cells.decode(np.int64(c)))
            if r == 0:
                continue
            p = int(cells.encode(r - 1, ix >> 1, iy >> 1))
            by_parent.setdefault(p, set()).add(c)
        for p, kids in by_parent.items():
            if len(kids) == 4 and kids <= cur:
                cur -= kids
                cur.add(p)
                changed = True
    return np.sort(np.array(sorted(cur), np.int64))


def test_compact_cells_array_matches_naive_oracle():
    rng = np.random.default_rng(17)
    for n, span in ((50, 8), (900, 16), (4000, 32)):
        pts = cells.encode(np.full(n, 6, np.int64),
                           rng.integers(0, span, n),
                           rng.integers(0, span, n))
        got = cells.compact_cells_array(pts)
        want = _naive_compact(pts)
        assert np.array_equal(got, want), (n, span)
    # dense grid compacts all the way to a single coarse cell
    xx, yy = np.meshgrid(np.arange(16), np.arange(16))
    full = cells.encode(np.full(256, 6, np.int64), xx.ravel() + 16,
                        yy.ravel() + 32)
    out = cells.compact_cells_array(full)
    assert len(out) == 1
    r, ix, iy = cells.decode(out)
    assert (int(r[0]), int(ix[0]), int(iy[0])) == (2, 1, 2)
    # mixed-resolution input: a promoted parent merges with an existing
    # coarse duplicate (set semantics)
    quartet = cells.encode(np.full(4, 6, np.int64),
                           np.array([10, 10, 11, 11]),
                           np.array([4, 5, 4, 5]))
    dup_parent = cells.encode(np.array([5]), np.array([5]), np.array([2]))
    out = cells.compact_cells_array(np.concatenate([quartet, dup_parent]))
    assert np.array_equal(out, _naive_compact(
        np.concatenate([quartet, dup_parent])))
    # stop_res halts promotion at that level
    out = cells.compact_cells_array(full, stop_res=4)
    r, _, _ = cells.decode(out)
    assert (r == 4).all() and len(out) == 16
    with pytest.raises(ValueError):
        cells.compact_cells_array(dup_parent, stop_res=6)
    assert len(cells.compact_cells_array(np.empty(0, np.int64))) == 0


def test_compact_cells_distributed_parity(ray_session):
    """spatial.compact_cells: the forced ancestor-bucket path (large
    rung) is bit-equal to the broadcast path and to the plain kernel —
    also on duplicate-heavy and on empty input."""
    import ray

    import pandas as pd
    from ophois_ray import spatial
    from ophois_ray.joins import forced_rung

    rng = np.random.default_rng(23)
    pts = cells.encode(np.full(6000, 6, np.int64),
                       rng.integers(0, 64, 6000),
                       rng.integers(0, 64, 6000))
    ds = ray.data.from_pandas(pd.DataFrame({"cell": pts})).repartition(7)
    want = cells.compact_cells_array(pts)
    broad = np.sort(spatial.compact_cells(ds)
                    .to_pandas()["cell"].to_numpy(np.int64))
    with forced_rung("large"):
        forced = np.sort(spatial.compact_cells(ds, bucket_res=2, num_buckets=5)
                         .to_pandas()["cell"].to_numpy(np.int64))
        # a coarser bucket_res changes the partitioning, not the answer
        forced3 = np.sort(spatial.compact_cells(ds, bucket_res=3)
                          .to_pandas()["cell"].to_numpy(np.int64))
    assert np.array_equal(broad, want)
    assert np.array_equal(forced, want)
    assert np.array_equal(forced3, want)
    # mixed resolutions incl. cells AT and BELOW bucket_res: coarse
    # input routes straight into the driver residue on both paths
    mixed = np.concatenate([
        pts[:800],
        cells.encode(np.full(5, 4, np.int64), rng.integers(0, 16, 5),
                     rng.integers(0, 16, 5)),
        cells.encode(np.full(3, 2, np.int64),          # == bucket_res
                     np.array([0, 1, 2]), np.array([3, 1, 0])),
        cells.encode(np.array([1, 0]),                 # < bucket_res
                     np.array([1, 0]), np.array([0, 0])),
    ])
    # plus every cell again and one hot cell 500 times (duplicates)
    mixed = np.concatenate([mixed, mixed, np.full(500, pts[0])])
    dsm = ray.data.from_pandas(pd.DataFrame({"cell": mixed})).repartition(4)
    wantm = cells.compact_cells_array(np.unique(mixed))
    empty = ray.data.from_pandas(pd.DataFrame(
        {"cell": np.empty(0, np.int64)}))
    for rung in ("small", "large"):
        with forced_rung(rung):
            gotm = np.sort(spatial.compact_cells(dsm, bucket_res=2,
                                                 num_buckets=3)
                           .to_pandas()["cell"].to_numpy(np.int64))
            got0 = spatial.compact_cells(empty).to_pandas()
        assert np.array_equal(gotm, wantm), rung
        assert len(got0) == 0, rung
