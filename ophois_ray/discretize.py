"""D0: distributed edge discretization (reference src/discretize.rs:5-52).

Per-edge, order-free, embarrassingly parallel — the showcase Ray op:
attach endpoint coords (broadcast join) -> vectorized haversine ->
``part = trunc(len/delta)`` -> edges with part > 1 are replaced by a
chain of part-1 interpolated nodes ``"{u}-{v}:{i}/{part}"`` (canonical
u < v endpoints; reference id scheme discretize.rs:25 via the
determinist pair, discretize.rs:17).

Interpolation runs min-id -> max-id (the reference direction follows
HashMap iteration order and is unasserted; ids/degrees — everything its
tests check — are direction-invariant). New coordinate strings use
shortest-round-trip repr == Rust f64::to_string (SURVEY.md §1.3).

The coord-attach runs once and is materialized: the node pass and the
edge pass both read it (the outputs, which grow by ~len/delta, stay
streaming).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from . import geo
from .graphops import attach_coords


def _edge_geometry(df: pd.DataFrame, delta: float):
    length = geo.haversine_m(
        df["u_lat"].to_numpy(), df["u_lon"].to_numpy(),
        df["v_lat"].to_numpy(), df["v_lon"].to_numpy(),
    )
    part = (length / delta).astype(np.int64)  # u32 truncation, discretize.rs:12
    return part


def _interp_nodes(df: pd.DataFrame, delta: float) -> pd.DataFrame:
    """Emit the part-1 interpolated node rows for each long edge."""
    part = _edge_geometry(df, delta)
    long = part > 1
    if not long.any():
        return pd.DataFrame(
            {"id": pd.Series(dtype=object), "lat_str": pd.Series(dtype=object),
             "lon_str": pd.Series(dtype=object), "lat": pd.Series(dtype=np.float64),
             "lon": pd.Series(dtype=np.float64)}
        )
    sub = df[long]
    p = part[long]
    # vectorized expansion: edge e contributes p[e]-1 rows with i = 1..p[e]-1
    reps = (p - 1).to_numpy() if hasattr(p, "to_numpy") else (p - 1)
    reps = np.asarray(reps)
    edge_idx = np.repeat(np.arange(len(sub)), reps)
    i = np.concatenate([np.arange(1, k) for k in p]) if len(sub) else np.array([], dtype=np.int64)
    pr = np.asarray(p)[edge_idx]
    t = i / pr
    ula = sub["u_lat"].to_numpy()[edge_idx]
    ulo = sub["u_lon"].to_numpy()[edge_idx]
    vla = sub["v_lat"].to_numpy()[edge_idx]
    vlo = sub["v_lon"].to_numpy()[edge_idx]
    lat = ula + t * (vla - ula)
    lon = ulo + t * (vlo - ulo)
    u_ids = sub["u"].to_numpy(object)[edge_idx]
    v_ids = sub["v"].to_numpy(object)[edge_idx]
    ids = np.array(
        [f"{u}-{v}:{ii}/{pp}" for u, v, ii, pp in zip(u_ids, v_ids, i, pr)], dtype=object
    )
    lat_str = np.array([geo.float_repr(x) for x in lat], dtype=object)
    lon_str = np.array([geo.float_repr(x) for x in lon], dtype=object)
    return pd.DataFrame(
        {"id": ids, "lat_str": lat_str, "lon_str": lon_str, "lat": lat, "lon": lon}
    )


def _chain_edges(df: pd.DataFrame, delta: float) -> pd.DataFrame:
    """Emit surviving short edges + the replacement chain edges."""
    part = _edge_geometry(df, delta)
    long = part > 1
    keep = df[~long][["u", "v"]]
    out_u, out_v = [keep["u"].to_numpy(object)], [keep["v"].to_numpy(object)]
    sub = df[long]
    p_arr = np.asarray(part[long])
    for u, v, p in zip(sub["u"].to_numpy(object), sub["v"].to_numpy(object), p_arr):
        chain = [u] + [f"{u}-{v}:{i}/{p}" for i in range(1, p)] + [v]
        for a, b in zip(chain, chain[1:]):
            x, y = geo.determinist(a, b)
            out_u.append(np.array([x], dtype=object))
            out_v.append(np.array([y], dtype=object))
    return pd.DataFrame(
        {"u": np.concatenate(out_u), "v": np.concatenate(out_v)}
    )


def discretize(nodes, edges, delta: float):
    """Discretize all edges longer than delta metres.

    Returns (nodes_out, edges_out): original nodes plus interpolated
    chain nodes; short edges plus canonical chain edges. No shuffle
    below ``attach_coords``' broadcast cap (the only exchange is the
    broadcast node index).
    """
    ewc = attach_coords(edges, nodes).materialize()
    new_nodes = ewc.map_batches(
        lambda df: _interp_nodes(df, delta), batch_format="pandas"
    )
    edges_out = ewc.map_batches(
        lambda df: _chain_edges(df, delta), batch_format="pandas"
    )
    nodes_out = nodes.select_columns(["id", "lat_str", "lon_str", "lat", "lon"]).union(
        new_nodes
    )
    return nodes_out, edges_out
