"""From-scratch hierarchical lat/lon cell index (no geo libraries exist
in this environment — SURVEY.md §7.4). H3/S2-*like* by contract:
fixed-resolution u64 cell ids, parent/child hierarchy, k-ring
neighbourhoods, segment covering — but a plain equirectangular quadtree,
fully deterministic and dependency-free.

Cell id layout (64-bit):   cell = (res << 58) | (ix << 29) | iy
  res in [0, 29]   ix = floor((lon+180)/360 * 2^res)  (clamped)
  iy = floor((lat+ 90)/180 * 2^res)                    (clamped)

The encoding deliberately avoids bit interleaving so the id is
reproducible in ANSI SQL for the DuckDB oracle cross-check:
  res*576460752303423488 + floor((lon+180.0)/360.0 * 2^res)*536870912
      + floor((lat+90.0)/180.0 * 2^res)
(same IEEE double op order -> bit-identical results; + and * and /
are exactly-rounded so no libm variance is involved).

k_ring wraps longitudinally (ix mod 2^res) and clamps at the poles
(iy outside range dropped) — documented partitioning assumption for the
spatial join.
"""

from __future__ import annotations

import numpy as np

MAX_RES = 29
_RES_SHIFT = 58
_IX_SHIFT = 29
_IX_MASK = (1 << 29) - 1


def cell_of(lat, lon, res: int):
    """Vectorized cell id (int64) for lat/lon arrays at resolution res."""
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"res must be in [0, {MAX_RES}]")
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    n = np.float64(1 << res)
    # op order mirrored exactly in the SQL oracle — do not refactor
    ix = np.floor((lon + 180.0) / 360.0 * n)
    iy = np.floor((lat + 90.0) / 180.0 * n)
    ix = np.clip(ix, 0, (1 << res) - 1).astype(np.int64)
    iy = np.clip(iy, 0, (1 << res) - 1).astype(np.int64)
    return (np.int64(res) << _RES_SHIFT) | (ix << _IX_SHIFT) | iy


def decode(cell):
    """cell id -> (res, ix, iy); vectorized."""
    cell = np.asarray(cell, dtype=np.int64)
    res = cell >> _RES_SHIFT
    ix = (cell >> _IX_SHIFT) & _IX_MASK
    iy = cell & _IX_MASK
    return res, ix, iy


def encode(res, ix, iy):
    res = np.asarray(res, dtype=np.int64)
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    return (res << _RES_SHIFT) | (ix << _IX_SHIFT) | iy


def cell_center(cell):
    """(lat, lon) of cell center; vectorized."""
    res, ix, iy = decode(cell)
    n = (np.int64(1) << res).astype(np.float64)
    lon = (ix.astype(np.float64) + 0.5) / n * 360.0 - 180.0
    lat = (iy.astype(np.float64) + 0.5) / n * 180.0 - 90.0
    return lat, lon


def cell_size_deg(res: int) -> tuple[float, float]:
    """(lat_extent, lon_extent) of one cell in degrees."""
    n = float(1 << res)
    return 180.0 / n, 360.0 / n


def parent(cell, steps: int = 1):
    """Parent cell `steps` resolutions up; vectorized."""
    res, ix, iy = decode(cell)
    new_res = res - steps
    if np.any(new_res < 0):
        raise ValueError("parent below resolution 0")
    return encode(new_res, ix >> steps, iy >> steps)


def parent_to(cell, res: int):
    """Ancestor cell at an absolute resolution ``res``; vectorized."""
    cres, ix, iy = decode(cell)
    steps = cres - np.int64(res)
    if np.any(steps < 0):
        raise ValueError("parent_to above the cell's own resolution")
    return encode(np.int64(res), ix >> steps, iy >> steps)


def children(cell) -> np.ndarray:
    """The 4 children of a scalar cell at res+1."""
    res, ix, iy = decode(np.int64(cell))
    if res >= MAX_RES:
        raise ValueError("children above MAX_RES")
    out = []
    for dx in (0, 1):
        for dy in (0, 1):
            out.append(int(encode(res + 1, (ix << 1) | dx, (iy << 1) | dy)))
    return np.array(out, dtype=np.int64)


def compact_cells_array(cells_arr: np.ndarray, *,
                        stop_res: int = 0) -> np.ndarray:
    """H3-style ``compact``: repeatedly replace every complete sibling
    quartet (all 4 children of one parent present at the same
    resolution) by the parent. Input may mix resolutions and contain
    duplicates; returns the sorted, unique, minimal cover of the same
    area. ``stop_res`` halts promotion AT that resolution (cells at
    stop_res are emitted unpromoted) — the hook the distributed
    ancestor-bucket ladder uses, since a quartet at stop_res spans
    four buckets. Tiling layers compact polyfills/coverings before
    storage and joins; the inverse (children expansion) restores the
    original single-res set exactly, which the pytest pins."""
    cur = np.unique(np.asarray(cells_arr, dtype=np.int64))
    if cur.size == 0:
        return cur
    res, _, _ = decode(cur)
    levels = {int(r): cur[res == r] for r in np.unique(res)}
    if min(levels) < stop_res:
        raise ValueError("compact_cells_array: cell below stop_res")
    out = []
    for r in range(MAX_RES, stop_res, -1):
        cells_r = levels.pop(r, None)
        if cells_r is None or cells_r.size == 0:
            continue
        _, cx, cy = decode(cells_r)
        par = encode(np.full(cells_r.size, r - 1, np.int64),
                     cx >> 1, cy >> 1)
        up, counts = np.unique(par, return_counts=True)
        promoted = up[counts == 4]
        if promoted.size:
            out.append(cells_r[~np.isin(par, promoted)])
            prev = levels.get(r - 1)
            levels[r - 1] = (promoted if prev is None else
                             np.unique(np.concatenate([prev, promoted])))
        else:
            out.append(cells_r)
    for r in sorted(levels):                  # res <= stop_res residue
        if levels[r].size:
            out.append(levels[r])
    return np.sort(np.concatenate(out)) if out else cur[:0]


def k_ring(cell, k: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance k of a scalar cell (incl. it).

    Wraps in x (longitude); drops out-of-range y (poles).
    """
    res, ix, iy = decode(np.int64(cell))
    res, ix, iy = int(res), int(ix), int(iy)
    n = 1 << res
    out = []
    for dy in range(-k, k + 1):
        y = iy + dy
        if not 0 <= y < n:
            continue
        for dx in range(-k, k + 1):
            x = (ix + dx) % n
            out.append(int(encode(res, x, y)))
    return np.array(sorted(set(out)), dtype=np.int64)


def k_ring_many(cells: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized k-ring expansion of an array of cells.

    Returns (row_index, ring_cell): row_index[i] says which input row
    ring_cell[i] expands. Interior-safe fast path: builds the (2k+1)^2
    offsets with numpy; x wraps, out-of-range y dropped.
    """
    cells = np.asarray(cells, dtype=np.int64)
    res, ix, iy = decode(cells)
    if len(cells) == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    n = (np.int64(1) << res)
    side = 2 * k + 1
    offs = np.arange(-k, k + 1, dtype=np.int64)
    dx = np.tile(np.repeat(offs, side), len(cells))
    dy = np.tile(np.tile(offs, side), len(cells))
    rows = np.repeat(np.arange(len(cells), dtype=np.int64), side * side)
    x = (ix[rows] + dx) % n[rows]
    y = iy[rows] + dy
    ok = (y >= 0) & (y < n[rows])
    return rows[ok], encode(res[rows[ok]], x[ok], y[ok])


def ragged_arange(counts) -> np.ndarray:
    """Concatenated ``arange(c)`` for every c in ``counts`` (int64), built
    with repeat/cumsum instead of a per-row Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


def cells_covering_segment(lat1, lon1, lat2, lon2, res: int, pad: int = 0):
    """Cells traversed by planar segments; vectorized over edge arrays.

    Samples each segment at half-cell steps. NOTE the covering is
    APPROXIMATE: a segment that clips a cell corner for less than half a
    cell-step of parameter length can have both adjacent samples outside
    that cell, so corner-clipped cells may be missed (up to one cell per
    crossing). Consumers must therefore query with ring >= 1 (as
    knn_snap does) or pass ``pad >= 1``; an exact covering would need a
    grid-crossing walk (Amanatides-Woo DDA), which ring-1 lookups make
    unnecessary here. Returns (edge_index, cell) arrays, optionally
    padded with a `pad`-ring around each visited cell.
    """
    lat1 = np.asarray(lat1, dtype=np.float64)
    lon1 = np.asarray(lon1, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    lon2 = np.asarray(lon2, dtype=np.float64)
    dlat_cell, dlon_cell = cell_size_deg(res)
    span = np.maximum(
        np.abs(lat2 - lat1) / dlat_cell, np.abs(lon2 - lon1) / dlon_cell
    )
    steps = (np.ceil(span * 2).astype(np.int64) + 1).clip(1, None)
    edge_idx = np.repeat(np.arange(len(steps), dtype=np.int64), steps + 1)
    # t = i/steps per edge, i = 0..steps
    t = ragged_arange(steps + 1) / steps[edge_idx]
    lat = lat1[edge_idx] + t * (lat2[edge_idx] - lat1[edge_idx])
    lon = lon1[edge_idx] + t * (lon2[edge_idx] - lon1[edge_idx])
    cells = cell_of(lat, lon, res)
    # dedup (edge_idx, cell) pairs
    order = np.lexsort((cells, edge_idx))
    ei, ce = edge_idx[order], cells[order]
    keep = np.ones(len(ei), dtype=bool)
    keep[1:] = (ei[1:] != ei[:-1]) | (ce[1:] != ce[:-1])
    ei, ce = ei[keep], ce[keep]
    if pad > 0:
        rows, ring = k_ring_many(ce, pad)
        ei2, ce2 = ei[rows], ring
        order = np.lexsort((ce2, ei2))
        ei2, ce2 = ei2[order], ce2[order]
        keep = np.ones(len(ei2), dtype=bool)
        keep[1:] = (ei2[1:] != ei2[:-1]) | (ce2[1:] != ce2[:-1])
        return ei2[keep], ce2[keep]
    return ei, ce


def oracle_sql_cell_expr(lat_expr: str, lon_expr: str, res: int) -> str:
    """ANSI-SQL expression computing cell_of identically (DuckDB oracle).

    Mirrors the numpy op order exactly; clamping via LEAST/GREATEST.
    """
    n = 1 << res
    nm1 = n - 1
    ix = (
        f"LEAST(GREATEST(FLOOR(({lon_expr} + 180.0) / 360.0 * {n}.0), 0), {nm1})"
    )
    iy = (
        f"LEAST(GREATEST(FLOOR(({lat_expr} + 90.0) / 180.0 * {n}.0), 0), {nm1})"
    )
    return (
        f"(CAST({res} AS BIGINT) * {1 << _RES_SHIFT}"
        f" + CAST({ix} AS BIGINT) * {1 << _IX_SHIFT}"
        f" + CAST({iy} AS BIGINT))"
    )


def oracle_sql_cell_ixiy(cell_expr: str) -> tuple[str, str]:
    """SQL expressions recovering (ix, iy) from a packed cell id —
    non-negative integer division, so DuckDB ``//`` (truncating)
    equals the engine's shift/mask decode. Lives HERE so the bit
    layout has exactly one SQL mirror alongside oracle_sql_cell_expr
    (CLAUDE.md invariant: never refactor one side without the other)."""
    m = 1 << _IX_SHIFT
    return (f"((({cell_expr}) // {m}) % {m})", f"(({cell_expr}) % {m})")


def oracle_sql_parent_expr(cell_expr: str, res: int, fine_res: int) -> str:
    """SQL expression for parent_to(cell, res) of a ``fine_res`` cell —
    op-for-op the engine's decode -> ix>>steps -> encode on
    non-negative fields."""
    d = 1 << (fine_res - res)
    ix, iy = oracle_sql_cell_ixiy(cell_expr)
    return (
        f"(CAST({res} AS BIGINT) * {1 << _RES_SHIFT}"
        f" + {ix} // {d} * {1 << _IX_SHIFT}"
        f" + {iy} // {d})"
    )


def morton_interleave(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Z-order (Morton) key: x bits to odd positions, y to even —
    the space-filling-curve sort key for range-scan tile layouts.
    Vectorized magic-number bit spread; inputs < 2^16, int64-safe.
    Mirrored per-bit by queries._sql_zorder_stats' //-% terms."""
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    if len(ix) and (int(ix.max()) >= 1 << 16 or int(iy.max()) >= 1 << 16):
        raise ValueError(
            "morton_interleave inputs must be < 2^16 (res <= 16): the "
            "bit-spread masks silently truncate higher bits, destroying "
            "the curve's locality")
    def spread(v):
        v = v.astype(np.int64)
        v = (v | (v << 8)) & np.int64(0x00FF00FF)
        v = (v | (v << 4)) & np.int64(0x0F0F0F0F)
        v = (v | (v << 2)) & np.int64(0x33333333)
        v = (v | (v << 1)) & np.int64(0x55555555)
        return v

    return (spread(ix) << 1) | spread(iy)


def quadkey(tx: np.ndarray, ty: np.ndarray, order: int) -> np.ndarray:
    """Bing-style quadkey strings for integer tile coordinates at a
    fixed zoom ``order``: digit i (most-significant first) is
    ``((tx >> i) & 1) + 2 * ((ty >> i) & 1)`` — the base-4 reading of
    the interleaved bits, so a quadkey PREFIX addresses the ancestor
    tile (the property tile pyramids key on). Vectorized: one digit
    array per level, assembled with ``order`` chained string concats
    (no per-row Python)."""
    tx = np.asarray(tx, dtype=np.int64)
    ty = np.asarray(ty, dtype=np.int64)
    out = np.full(len(tx), "", dtype=object)
    for i in range(order - 1, -1, -1):
        digit = ((tx >> i) & 1) + 2 * ((ty >> i) & 1)
        out = np.char.add(out.astype(str), digit.astype(str)).astype(object)
    return out


def hilbert_d(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """Hilbert-curve distance of integer grid points at 2^order x
    2^order (the locality-preserving alternative to the Morton/z-order
    sink key: neighbours on the curve are always neighbours in space,
    which z-order violates at quadrant seams). Standard rotate-and-
    accumulate kernel, vectorized over the whole column, ``order``
    iterations."""
    x = np.asarray(x, dtype=np.int64).copy()
    y = np.asarray(y, dtype=np.int64).copy()
    d = np.zeros(len(x), dtype=np.int64)
    s = np.int64(1 << (order - 1))
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate the sub-quadrant: when ry == 0, flip (if rx) then swap
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x2 = np.where(swap, y, x)
        y2 = np.where(swap, x, y)
        x, y = x2, y2
        s >>= 1
    return d
