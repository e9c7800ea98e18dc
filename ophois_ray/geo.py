"""Vectorized geometry kernels (reference parity: src/geo.rs:7-31).

All kernels are numpy ufunc compositions over float64 arrays so they run
inside ``map_batches`` without per-row Python. Scalar use works too
(numpy scalars in, numpy scalars out).

Coordinate strings: the reference stores coordinates as verbatim source
strings and prints newly computed floats with Rust ``f64::to_string()``
(shortest round-trip decimal). Python ``repr(float)`` implements the
same contract (both shortest-round-trip); ``float_repr`` additionally
strips a trailing ``.0`` never produced for real OSM coords but possible
on synthetic inputs (SURVEY.md §1.3).
"""

from __future__ import annotations

import numpy as np

#: IUGG mean earth radius in metres (reference src/geo.rs:8).
EARTH_RADIUS_M = 6371008.7714


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in metres (reference src/geo.rs:7-17).

    Accepts scalars or numpy arrays (float64); fully vectorized.
    """
    lat1 = np.asarray(lat1, dtype=np.float64)
    lon1 = np.asarray(lon1, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    lon2 = np.asarray(lon2, dtype=np.float64)
    d_lat = np.radians(lat2 - lat1)
    d_lon = np.radians(lon2 - lon1)
    sin_dlat = np.sin(d_lat / 2.0)
    sin_dlon = np.sin(d_lon / 2.0)
    a = sin_dlat * sin_dlat + sin_dlon * sin_dlon * np.cos(np.radians(lat1)) * np.cos(
        np.radians(lat2)
    )
    c = 2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))
    return EARTH_RADIUS_M * c


def midpoint(lat1, lon1, lat2, lon2):
    """Planar (lon/lat-space) midpoint, NOT great-circle (src/geo.rs:19-24)."""
    lat1 = np.asarray(lat1, dtype=np.float64)
    lon1 = np.asarray(lon1, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    lon2 = np.asarray(lon2, dtype=np.float64)
    return (lat1 + lat2) / 2.0, (lon1 + lon2) / 2.0


def lerp(lat1, lon1, lat2, lon2, part):
    """Planar linear interpolation ``a + part*(b-a)`` (src/geo.rs:26-31)."""
    lat1 = np.asarray(lat1, dtype=np.float64)
    lon1 = np.asarray(lon1, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    lon2 = np.asarray(lon2, dtype=np.float64)
    part = np.asarray(part, dtype=np.float64)
    return lat1 + part * (lat2 - lat1), lon1 + part * (lon2 - lon1)


def planar_sqdist(lat1, lon1, lat2, lon2):
    """Exact-arithmetic squared distance in lon/lat plane.

    Uses only IEEE-exact ops (*, -, +) so it is bit-identical across
    implementations (numpy, DuckDB) — the cross-check kernel for
    nearest-neighbour oracle queries where libm 1-ulp differences in
    sin/cos could flip an argmin.
    """
    dlat = np.asarray(lat2, dtype=np.float64) - np.asarray(lat1, dtype=np.float64)
    dlon = np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64)
    return dlat * dlat + dlon * dlon


def closest_point(plat, plon, alat, alon, blat, blon):
    """(lat, lon) of the point of segment(s) AB closest to point(s) P.

    Planar in lon/lat space (consistent with the reference's planar
    midpoint/lerp semantics, src/geo.rs:19-31). Vectorized; exact
    arithmetic except one division (IEEE-exact-rounded, deterministic).
    Degenerate segments (A == B) give A. The op order is mirrored by
    the SQL nearest-neighbour queries — do not refactor.
    """
    plat = np.asarray(plat, dtype=np.float64)
    plon = np.asarray(plon, dtype=np.float64)
    alat = np.asarray(alat, dtype=np.float64)
    alon = np.asarray(alon, dtype=np.float64)
    blat = np.asarray(blat, dtype=np.float64)
    blon = np.asarray(blon, dtype=np.float64)
    dlat = blat - alat
    dlon = blon - alon
    seg_sq = dlat * dlat + dlon * dlon
    # projection parameter t clamped to [0, 1]; guard zero-length segs
    num = (plat - alat) * dlat + (plon - alon) * dlon
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(seg_sq > 0.0, num / np.where(seg_sq > 0.0, seg_sq, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return alat + t * dlat, alon + t * dlon


def point_segment_sqdist(plat, plon, alat, alon, blat, blon):
    """Squared planar distance from point(s) P to segment(s) AB: the
    planar_sqdist from P to its ``closest_point`` on AB."""
    return planar_sqdist(plat, plon, *closest_point(plat, plon, alat, alon, blat, blon))


def float_repr(x: float) -> str:
    """Shortest-round-trip decimal string, matching Rust f64::to_string().

    Verified equivalent on the reference fixtures (SURVEY.md §1.3, e.g.
    midpoint -> "48.827429699999996" / "2.34868405" byte-identical to
    datasets/test_discretize.graph:2,6). Synthetic integral floats get
    the Rust form ("5" not "5.0").
    """
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def determinist(u: str, v: str) -> tuple[str, str]:
    """Lexicographic canonical ordering of a node-id pair (src/utils.rs:1-7)."""
    return (u, v) if u < v else (v, u)
