"""P1-P4: OSM XML scan/parse chain + deterministic synthetic OSM generator.

Reference chain (src/openstreetmap.rs):
  P1 format_xml   — normalize pretty-printed OSM XML to one element per
                    line; self-closed <node/>/<way/> pass through, open
                    blocks are accumulated to the closing tag (:24-57).
  P2 extract_node — <node id lat lon> -> "id␟lat␟lon", coords verbatim (:59-65)
  P3 extract_link — <way> ordered <nd ref> children -> one link line per
                    consecutive ref pair; 1-ref way emits nothing; tags
                    ignored (:67-80)
  P4 extract      — dispatch on element kind, other lines dropped (:82-88)

Engine mapping: the accumulator state of P1 never crosses a file
boundary, so the scan is a per-file pure function inside map_batches
over whole files (read_binary_files) — embarrassingly parallel per
file, no actor needed. P2-P4 are one vectorized regex pass producing
the nodes/edges tables directly (the .graph text hop exists only for
interop via graphio.write_graph).

The reference's `download` subcommand (network fetch, overpass.rs:5-19)
is out of scope — no external data; `synthetic_city` generates a
deterministic city-like street network instead.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd

import ray.data

_NODE_RE = re.compile(r'<node\b[^>]*?\bid="([^"]*)"[^>]*?\blat="([^"]*)"[^>]*?\blon="([^"]*)"')
_WAY_RE = re.compile(r"<way\b")
_ND_REF_RE = re.compile(r'<nd\b[^>]*?\bref="([^"]*)"')


def format_elements(text: str) -> list[str]:
    """P1: one XML element per line (reference format_xml, :24-57).

    Reproduces the reference's exact accumulation rules, including
    trimming each raw line before concatenation.
    """
    out: list[str] = []
    data = ""
    node = way = False
    for raw in text.splitlines():
        row = raw.strip()
        if row.startswith("<node") and row.endswith("/>"):
            out.append(row)
        if row.startswith("<way") and row.endswith("/>"):
            out.append(row)
        if row.startswith("<node") and not row.endswith("/>"):
            node = True
            data = ""
        if row.startswith("<way") and not row.endswith("/>"):
            way = True
            data = ""
        if node or way:
            data += row
        if "</node>" in row:
            node = False
            out.append(data)
        if "</way>" in row:
            way = False
            out.append(data)
    return out


def extract_node_line(line: str, separator: str = "␟") -> str:
    """P2 (reference :59-65): verbatim attribute strings."""
    m = _NODE_RE.search(line)
    if not m:
        raise ValueError(f"not a node element: {line!r}")
    return f"{m.group(1)}{separator}{m.group(2)}{separator}{m.group(3)}"


def extract_link_lines(line: str, separator: str = "␟") -> str:
    """P3 (reference :67-80): consecutive ref pairs, trailing newline."""
    refs = _ND_REF_RE.findall(line)
    return "".join(f"{a}{separator}{b}\n" for a, b in zip(refs, refs[1:]))


def _scan_file_to_tables(batch, what: str):
    """Whole-file rows -> parsed node or edge rows (P1+P2/P3 fused)."""
    ids, lats, lons = [], [], []
    us, vs, ways = [], [], []
    for raw in batch["bytes"]:
        text = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else str(raw)
        for el in format_elements(text):
            if what == "nodes" and el.startswith("<node"):
                m = _NODE_RE.search(el)
                if m:
                    ids.append(m.group(1))
                    lats.append(m.group(2))
                    lons.append(m.group(3))
            elif what == "edges" and el.startswith("<way"):
                refs = _ND_REF_RE.findall(el)
                for a, b in zip(refs, refs[1:]):
                    us.append(a)
                    vs.append(b)
    if what == "nodes":
        lat_np = np.array(lats, dtype=object)
        lon_np = np.array(lons, dtype=object)
        return {
            "id": np.array(ids, dtype=object),
            "lat_str": lat_np,
            "lon_str": lon_np,
            "lat": lat_np.astype(np.float64) if len(ids) else np.array([], dtype=np.float64),
            "lon": lon_np.astype(np.float64) if len(ids) else np.array([], dtype=np.float64),
            "seq": np.arange(len(ids), dtype=np.int64),
        }
    return {
        "u": np.array(us, dtype=object),
        "v": np.array(vs, dtype=object),
        "seq": np.arange(len(us), dtype=np.int64),
    }


def read_osm_xml(paths, **read_kw):
    """S1-replacement source: parse .osm XML file(s) into raw
    (nodes, edges) Datasets (not yet deduped — apply graphops.dedup_*).

    Way splitting at shared-node intersections is implicit: a node id
    referenced by several ways appears in several consecutive-ref edges,
    so after canonical dedup the junction has degree > 2 (reference
    semantics, openstreetmap.rs:71-78).
    """
    if isinstance(paths, (str, os.PathLike)):
        p = str(paths)
        paths = (
            [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".osm")]
            if os.path.isdir(p)
            else [p]
        )
    base = ray.data.read_binary_files(paths, **read_kw)
    nodes = base.map_batches(
        lambda b: _scan_file_to_tables(b, "nodes"), batch_format="numpy"
    )
    edges = base.map_batches(
        lambda b: _scan_file_to_tables(b, "edges"), batch_format="numpy"
    )
    return nodes, edges


# ------------------------------------------------------------- synthetic OSM


def synthetic_city(
    seed: int = 42,
    *,
    center_lat: float = 48.8566,
    center_lon: float = 2.3522,
    grid: int = 12,
    spacing_deg: float = 0.0012,
    jitter: float = 0.15,
    extra_component_nodes: int = 6,
    dangling_frac: float = 0.01,
    pretty_frac: float = 0.1,
) -> tuple[str, pd.DataFrame, pd.DataFrame]:
    """Deterministic city-like street network as OSM XML text + tables.

    A jittered grid: one way per row and per column sharing the grid
    nodes, so every interior node is a 4-way intersection (exercises the
    way-splitting semantics). Adds a small disconnected component
    (exercises H1), a few dangling refs (quarantine policy) and some
    pretty-printed multi-line elements (exercises P1).

    Returns (xml_text, nodes_df, ways_df) where ways_df has columns
    (way_id, refs list).
    """
    rng = np.random.RandomState(seed)
    node_ids = {}
    rows = []
    for i in range(grid):
        for j in range(grid):
            nid = str(1_000_000 + i * grid + j)
            lat = center_lat + (i - grid / 2) * spacing_deg + rng.uniform(-jitter, jitter) * spacing_deg
            lon = center_lon + (j - grid / 2) * spacing_deg + rng.uniform(-jitter, jitter) * spacing_deg
            lat_s, lon_s = f"{lat:.7f}", f"{lon:.7f}"
            node_ids[(i, j)] = nid
            rows.append((nid, lat_s, lon_s))
    # small separate component far away
    for k in range(extra_component_nodes):
        nid = str(9_000_000 + k)
        rows.append((nid, f"{center_lat + 1.0 + k * 1e-4:.7f}", f"{center_lon + 1.0:.7f}"))

    ways = []
    wid = 500_000
    for i in range(grid):
        ways.append((str(wid), [node_ids[(i, j)] for j in range(grid)]))
        wid += 1
    for j in range(grid):
        ways.append((str(wid), [node_ids[(i, j)] for i in range(grid)]))
        wid += 1
    ways.append((str(wid), [str(9_000_000 + k) for k in range(extra_component_nodes)]))
    wid += 1
    # dangling refs: a way referencing missing nodes
    n_dangle = max(1, int(dangling_frac * len(ways)))
    for d in range(n_dangle):
        ways.append((str(wid), [node_ids[(0, 0)], str(8_800_000 + d)]))
        wid += 1
    # 1-ref way: emits no edges (openstreetmap.rs:71-78)
    ways.append((str(wid), [node_ids[(0, 1)]]))

    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<osm version=\"0.6\">"]
    for idx, (nid, lat_s, lon_s) in enumerate(rows):
        if rng.uniform() < pretty_frac:
            lines += [f'  <node id="{nid}" lat="{lat_s}" lon="{lon_s}">',
                      '    <tag k="highway" v="crossing"/>', "  </node>"]
        else:
            lines.append(f'  <node id="{nid}" lat="{lat_s}" lon="{lon_s}"/>')
    for way_id, refs in ways:
        if rng.uniform() < pretty_frac:
            lines.append(f'  <way id="{way_id}">')
            lines += [f'    <nd ref="{r}"/>' for r in refs]
            lines += ['    <tag k="highway" v="residential"/>', "  </way>"]
        else:
            nd = "".join(f'<nd ref="{r}"/>' for r in refs)
            lines.append(f'  <way id="{way_id}">{nd}<tag k="highway" v="residential"/></way>')
    lines.append("</osm>")

    nodes_df = pd.DataFrame(rows, columns=["id", "lat_str", "lon_str"])
    nodes_df["lat"] = nodes_df["lat_str"].astype(float)
    nodes_df["lon"] = nodes_df["lon_str"].astype(float)
    ways_df = pd.DataFrame(ways, columns=["way_id", "refs"])
    return "\n".join(lines), nodes_df, ways_df


def prefix_shard_ids(xml: str, shard: int) -> str:
    """Prefix the ids and refs of a ``synthetic_city`` shard with
    ``shard + 1`` (globally unique ids across shards). The rewrite order
    1, 9, 8 is part of the cached bytes: a later rewrite also sees the
    ids an earlier one made, so shards 7 and 8 prefix some ids twice."""
    for d in "198":
        xml = xml.replace(f'id="{d}', f'id="{shard + 1}{d}').replace(
            f'ref="{d}', f'ref="{shard + 1}{d}')
    return xml


def write_synthetic_city_files(
    outdir: str, n_files: int = 4, seed: int = 42, **city_kw
) -> list[str]:
    """Write n_files synthetic city shards (distinct centers/id spaces)."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for k in range(n_files):
        xml, _, _ = synthetic_city(
            seed=seed + k,
            center_lat=48.0 + 0.5 * k,
            center_lon=2.0 + 0.5 * k,
            **city_kw,
        )
        xml = prefix_shard_ids(xml, k)
        path = os.path.join(outdir, f"city_{k}.osm")
        with open(path, "w", encoding="utf-8") as f:
            f.write(xml)
        paths.append(path)
    return paths
