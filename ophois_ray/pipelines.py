"""Composed end-to-end pipelines (SURVEY.md §3 engine lifecycle).

- build_graph: OSM XML -> deduped (nodes, edges) with dangling-edge policy
- simplify_graph / discretize_graph: the reference pipeline stages
- pages_from_documents: deterministic pages table (input_hint schema)
  derived from the driver's ``documents`` testdata — url/warc_ts/html/
  text/lang with hotspot-skewed coordinates embedded in the html
- flagship: the north-star pipeline — build street graph, clean pages
  (extract -> geotag -> dedup), kNN-snap pages to nearest edge
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray.data

from . import components, discretize as _discretize, graphops, osm, pages, spatial
from .datagen import HOTSPOTS


def build_graph(osm_path, *, drop_dangling: bool = True):
    """read OSM -> dedup nodes/edges -> (nodes, edges_with_coords)."""
    nodes, edges = osm.read_osm_xml(osm_path)
    nodes = graphops.dedup_nodes(nodes).materialize()
    edges = graphops.dedup_edges(edges)
    ewc = graphops.attach_coords(edges, nodes, drop_dangling=drop_dangling).materialize()
    return nodes, ewc


def build_graph_local(osm_path) -> pd.DataFrame:
    """Small-side fast path: parse the OSM shards on the driver into a
    coord-attached canonical edge DataFrame (u, v, u_lat..v_lon).

    The street graph is the BROADCAST side of the pages join — per tile
    it is bounded (a city ~1e5-1e6 edges), so driver assembly + object
    store broadcast is the right shape; the distributed build_graph
    covers graphs beyond driver memory. Semantics identical to
    build_graph (first-wins node dedup, canonical edge dedup, dangling
    edges dropped)."""
    files = (
        [os.path.join(osm_path, f) for f in sorted(os.listdir(osm_path)) if f.endswith(".osm")]
        if os.path.isdir(osm_path)
        else [osm_path]
    )
    ids, lats, lons, us, vs = [], [], [], [], []
    for path in files:
        text = open(path, encoding="utf-8").read()
        for el in osm.format_elements(text):
            if el.startswith("<node"):
                m = osm._NODE_RE.search(el)
                if m:
                    ids.append(m.group(1))
                    lats.append(m.group(2))
                    lons.append(m.group(3))
            elif el.startswith("<way"):
                refs = osm._ND_REF_RE.findall(el)
                us.extend(refs[:-1])
                vs.extend(refs[1:])
    nodes = pd.DataFrame({"id": ids, "lat_str": lats, "lon_str": lons})
    nodes = nodes.drop_duplicates(subset=["id"], keep="first")
    nodes["lat"] = nodes["lat_str"].astype(np.float64)
    nodes["lon"] = nodes["lon_str"].astype(np.float64)
    e = pd.DataFrame({"u": us, "v": vs})
    swap = e["u"] > e["v"]
    e.loc[swap, ["u", "v"]] = e.loc[swap, ["v", "u"]].to_numpy()
    e = e[e["u"] != e["v"]].drop_duplicates()
    coords = nodes.set_index("id")
    e = e[e["u"].isin(coords.index) & e["v"].isin(coords.index)]  # drop dangling
    e["u_lat"] = coords["lat"].reindex(e["u"]).to_numpy()
    e["u_lon"] = coords["lon"].reindex(e["u"]).to_numpy()
    e["v_lat"] = coords["lat"].reindex(e["v"]).to_numpy()
    e["v_lon"] = coords["lon"].reindex(e["v"]).to_numpy()
    return e.reset_index(drop=True)


_LOCAL_GRAPH_BYTES = 64 << 20  # OSM bytes ``build_graph_auto`` parses on the driver


def build_graph_auto(osm_path):
    """Hybrid ladder for the graph side of the flagship join — the
    same under-cap/over-cap shape as ``exact_dedup_filter`` and
    ``connected_components_auto``: when the OSM shards total at most
    ``_LOCAL_GRAPH_BYTES`` the graph parses on the driver
    (:func:`build_graph_local` — it is the BROADCAST side of the snap
    join, so it must fit one worker's heap anyway, and driver assembly
    skips two distributed dedup exchanges); above the cap the fully
    distributed :func:`build_graph` takes over. Returns the
    coord-attached canonical edge table as a pandas DataFrame on both
    rungs: it is the broadcast side that ``spatial.knn_snap_broadcast``
    holds on the driver anyway (wrapping the driver-built table in a
    Dataset measured slower per snap round). Both rungs produce
    identical edges (parity-pinned in tests/test_pages_spatial.py)."""
    from .joins import ladder

    files = (
        [os.path.join(osm_path, f) for f in sorted(os.listdir(osm_path)) if f.endswith(".osm")]
        if os.path.isdir(osm_path)
        else [osm_path]
    )
    return ladder(
        "pipelines.build_graph_auto", sum(os.path.getsize(f) for f in files),
        _LOCAL_GRAPH_BYTES,
        lambda: build_graph_local(osm_path),
        lambda: build_graph(osm_path)[1].to_pandas())


def simplify_graph(nodes, edges, delta: float, *, metrics_dir: str | None = None):
    n2, e2 = components.simplify(nodes, edges, delta)
    if metrics_dir:
        graphops.emit_metrics(n2, e2, f"simplify={delta}", metrics_dir)
    return n2, e2


def discretize_graph(nodes, edges, delta: float, *, metrics_dir: str | None = None):
    n2, e2 = _discretize.discretize(nodes, edges, delta)
    if metrics_dir:
        n2, e2 = n2.materialize(), e2.materialize()
        graphops.emit_metrics(n2, e2, f"discretize={delta}", metrics_dir)
    return n2, e2


def pages_from_documents(sf_dir: str):
    """Derive a pages table of exactly the input_hint shape from the
    driver's documents.parquet, deterministically: coordinates come from
    a seeded per-doc hash placed around the datagen hotspots (Zipf-ish
    skew), ~1/32 of docs get no coordinates."""
    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id", "text", "lang"])

    def to_pages(df: pd.DataFrame) -> pd.DataFrame:
        doc_id = df["doc_id"].to_numpy(np.int64)
        h = (doc_id * np.int64(2654435761)) % np.int64(2**31)
        spot = h % 4  # 3 hotspots + background band
        base = np.array([(la, lo) for la, lo, _ in HOTSPOTS] + [(46.0, 3.0)])
        lat0 = base[spot, 0]
        lon0 = base[spot, 1]
        lat = lat0 + ((h // 7) % 1000) / 1000.0 * 0.02 - 0.01
        lon = lon0 + ((h // 11) % 1000) / 1000.0 * 0.03 - 0.015
        has = (h % 32) != 0
        # vectorized template assembly (Series concat; %.7f via
        # np.char.mod is byte-identical to the f-string float format),
        # then ONE batched extract call on the str htmls — this stage
        # sits inside the timed flagship chain, so no per-row Python
        sid = pd.Series(doc_id).astype(str)
        text = df["text"].astype(str).reset_index(drop=True)
        lat_s = pd.Series(np.char.mod("%.7f", lat))
        lon_s = pd.Series(np.char.mod("%.7f", lon))
        with_coords = (
            "<html><head><title>doc " + sid
            + "</title><script>var t=1;</script></head><body><p>" + text
            + "</p><p>location coords " + lat_s + "," + lon_s
            + " here</p></body></html>"
        )
        plain = "<html><body><p>" + text + "</p></body></html>"
        html_s = with_coords.where(pd.Series(has), plain)
        texts = pages.extract_text_batch(html_s.to_numpy(object))
        import pyarrow as pa

        ts = (np.int64(1_600_000_000_000_000) + doc_id * 1_000_000).astype("datetime64[us]")
        return pa.table(
            {
                "url": pa.array(("doc://" + sid).to_numpy(object), type=pa.string()),
                "warc_ts": pa.array(ts, type=pa.timestamp("us")),
                "html": pa.array(
                    html_s.str.encode("utf-8").to_numpy(object), type=pa.binary()
                ),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(df["lang"].to_numpy(object), type=pa.string()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pandas")


_FLAGSHIP_GRID = 14
_FLAGSHIP_SPACING = 0.0015
_FLAGSHIP_SEED = 100


def _flagship_osm_dir() -> str:
    """Synthetic flagship city shards, cached in a CONTENT-KEYED tempdir:
    the directory name hashes every generation parameter (seed, grid,
    spacing, hotspot list), so parameter changes invalidate the cache
    instead of silently reusing stale shards, and each shard is written
    to a tmp name + os.replace so a concurrent reader never sees a
    partial file."""
    import hashlib
    import tempfile

    content_key = (
        f"seed={_FLAGSHIP_SEED};grid={_FLAGSHIP_GRID};sp={_FLAGSHIP_SPACING};"
        + ";".join(f"{la!r},{lo!r},{w!r}" for la, lo, w in HOTSPOTS)
    )
    digest = hashlib.sha256(content_key.encode()).hexdigest()[:16]
    osm_dir = os.path.join(tempfile.gettempdir(), f"ophois_ray_flagship_osm_{digest}")
    os.makedirs(osm_dir, exist_ok=True)
    for i, (hlat, hlon, _) in enumerate(HOTSPOTS):
        path = os.path.join(osm_dir, f"city_{i}.osm")
        if os.path.exists(path):
            continue
        xml, _, _ = osm.synthetic_city(
            seed=_FLAGSHIP_SEED + i, center_lat=hlat, center_lon=hlon,
            grid=_FLAGSHIP_GRID, spacing_deg=_FLAGSHIP_SPACING,
        )
        xml = osm.prefix_shard_ids(xml, i)
        tmp = path + f".__tmp_{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(xml)
        os.replace(tmp, path)
    return osm_dir


def page_keys_from_documents(sf_dir: str):
    """(url, warc_ts) of the derived pages, straight from a doc_id-only
    pruned scan of documents.parquet — the dedup pass-A key source, so
    the flagship never materializes (or regenerates) the html payloads
    for winner computation. Mirrors pages_from_documents' url/ts
    derivation exactly."""
    import pyarrow as pa

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def keys(df: pd.DataFrame):
        doc_id = df["doc_id"].to_numpy(np.int64)
        ts = (np.int64(1_600_000_000_000_000) + doc_id * 1_000_000).astype(
            "datetime64[us]"
        )
        return pa.table(
            {
                "url": pa.array([f"doc://{d}" for d in doc_id], type=pa.string()),
                "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            }
        )

    return docs.map_batches(keys, batch_format="pandas")


def flagship(sf_dir: str, *, res: int = 11, ring: int = 1):
    """The headline pipeline: synthetic city street graph (around the
    pages hotspots) + pages clean-up + kNN snap of every geotagged page
    to its nearest street edge. Returns the snapped Dataset.

    Fully streaming: the pages table is never materialized — dedup
    pass A reads only the derived (url, warc_ts) keys from the pruned
    documents scan, and pass B fuses with extract -> geotag -> snap into
    one pass over the generated pages. The graph side routes through
    :func:`build_graph_auto` (driver parse under ``_LOCAL_GRAPH_BYTES``,
    distributed above — the broadcast-side hybrid ladder)."""
    osm_dir = _flagship_osm_dir()
    ewc = build_graph_auto(osm_dir)
    pg = pages_from_documents(sf_dir)
    pg = pages.dedup_pages(pg, key_source=page_keys_from_documents(sf_dir))
    pg = pages.extract_text(pg)  # re-extract (P6)
    pg = pages.filter_geotagged(pages.geotag(pg)).select_columns(["url", "lat", "lon"])
    snapped, lineage = spatial.knn_snap_broadcast(pg, ewc, res=res, ring=ring)
    return snapped


def geospatial_join_checkpointed(
    sf_dir: str,
    outdir: str,
    *,
    res: int = 11,
    ring: int = 1,
    tile_res: int = 6,
    fingerprint: str | None = None,
    fail_tiles=None,
):
    """The flagship with the S8 checkpoint sink: kNN-snap results are
    written one atomic parquet directory per coarse tile plus a lineage
    manifest; a rerun (same fingerprint) skips completed tiles entirely.

    Returns (manifest_records_written, outdir). A killed run resumes by
    calling this again with the same arguments (north-rule resume gate).
    """
    from . import checkpoint as ckpt

    if fingerprint is None:
        fingerprint = f"flagship:{os.path.basename(sf_dir.rstrip('/'))}:res={res}:ring={ring}"
    snapped = flagship(sf_dir, res=res, ring=ring)
    records = ckpt.checkpointed_write(
        snapped,
        outdir,
        tile_res=tile_res,
        fingerprint=fingerprint,
        fail_tiles=fail_tiles,
    )
    return records, outdir
