"""The three workloads, composed only from public ``ophois_ray`` calls.

Each workload has one chain definition. Every layer call goes through
``Tracer.stage``: with tracing off it returns the call's (lazy) result
untouched, so Ray Data fuses the chain as a user's code would; with
tracing on it materializes the result and records the stage's wall
time, CPU time, rows in and out and bytes out.

A workload object offers ``round(tr)`` (one timed unit of work, which
consumes its result), ``check_round()`` (the same chain, returning
what the checks need) and ``check(out)``.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from . import checks

#: per-layer quantities recorded for every stage
QUANTITIES = ("wall_s", "cpu_s", "rows_in", "rows_out", "bytes_out")

#: stage -> extra per-layer quantities it records
STAGES = {
    "pipelines.graph_local": (),
    "pages.dedup_a": (),
    "pages.dedup_b": (),
    "pages.extract": ("html_bytes_in", "text_bytes_out"),
    "pages.geotag": (),
    "spatial.index": ("n_edge_cells",),
    "spatial.snap": (),
    "checkpoint.write": ("tiles", "rows_written", "bytes_written"),
    "checkpoint.resume": ("tiles", "rows_written", "bytes_written", "cpu_share"),
    "osm.read": (),
    "graphops.build": (),
    "components.simplify": ("nodes_removed",),
    "discretize.discretize": ("nodes_added",),
    "spatial.knn_snap_part": ("n_cells", "hot_cells"),
}

#: whole-run quantities of a traced run
TRACE_TOTALS = ("trace.staged_s", "trace.fused_s", "trace.overhead_s")


def per_layer_names() -> list[str]:
    names = [f"{s}.{q}" for s, extra in STAGES.items() for q in QUANTITIES + extra]
    return names + list(TRACE_TOTALS)


class Tracer:
    """Stage recorder. ``cpu`` is a zero-argument callable returning the
    CPU seconds of the Ray driver and every Ray process below it."""

    def __init__(self, on: bool, cpu=None):
        self.on = on
        self.cpu = cpu
        self.records: dict[str, dict] = {}

    def stage(self, name: str, fn, *, rows_in=None, materialize: bool = True):
        if not self.on:
            return fn()
        c0, t0 = self.cpu(), time.perf_counter()
        out = fn()
        if materialize:
            out = _materialize(out)
        wall, cpu = time.perf_counter() - t0, self.cpu() - c0
        # a lazy result is sized by the caller (counting it would run it)
        rows, nbytes = _size(out) if materialize else (None, None)
        self.records[name] = {"wall_s": wall, "cpu_s": cpu, "rows_in": rows_in,
                              "rows_out": rows, "bytes_out": nbytes}
        return out

    def add(self, name: str, **kw) -> None:
        if self.on:
            self.records[name].update(kw)


def _is_dataset(x) -> bool:
    return hasattr(x, "materialize") and hasattr(x, "count")


def _materialize(out):
    if isinstance(out, tuple):
        return tuple(_materialize(x) for x in out)
    return out.materialize() if _is_dataset(out) else out


def _size(out):
    """(rows, bytes) summed over the Datasets/DataFrames in ``out``."""
    items = out if isinstance(out, tuple) else (out,)
    rows = nbytes = 0
    for x in items:
        if _is_dataset(x):
            rows += x.count()
            nbytes += x.size_bytes()
        elif isinstance(x, pd.DataFrame):
            rows += len(x)
            nbytes += int(x.memory_usage(deep=True).sum())
    return rows, nbytes


def _rows(x) -> int:
    return len(x) if isinstance(x, pd.DataFrame) else x.count()


# ------------------------------------------------------------ page workloads


class PagesWorkload:
    """Shared page chain: graph → dedup → extract → geotag → broadcast snap."""

    res = 19
    ring = 1
    #: coarse grid (degrees) of the checks' exact nearest-edge search
    check_cell_deg = 0.004

    def __init__(self, inp: str, work: str, meta: dict):
        import ray.data

        self.inp, self.work, self.meta = inp, work, meta
        self.osm_dir = os.path.join(inp, "osm")
        self.pages_dir = os.path.join(inp, "pages")
        self.n_files = len([f for f in os.listdir(self.pages_dir) if f.endswith(".parquet")])
        self.n_rows = meta["pages"]["rows"]
        self.rd = ray.data

    def n_items(self) -> int:
        return self.n_rows

    def read_pages(self, columns=None):
        kw = {"columns": columns} if columns else {}
        # one block per file: a SplitBlocks after the read would break
        # Read->Map fusion and push the html through the object store
        return self.rd.read_parquet(self.pages_dir, override_num_blocks=self.n_files, **kw)

    def chain(self, tr: Tracer):
        from ophois_ray import pages, pipelines, spatial

        ewc = tr.stage("pipelines.graph_local", lambda: pipelines.build_graph_auto(self.osm_dir),
                       rows_in=len(os.listdir(self.osm_dir)))
        pg = tr.stage("pages.dedup_a", lambda: pages.dedup_pages(
            self.read_pages(), key_source=self.read_pages(["url", "warc_ts"])),
            rows_in=self.n_rows, materialize=False)
        pg = tr.stage("pages.dedup_b", lambda: pg, rows_in=self.n_rows)
        if tr.on:
            tr.add("pages.dedup_a", rows_out=tr.records["pages.dedup_b"]["rows_out"])
        n_win = tr.records["pages.dedup_b"]["rows_out"] if tr.on else None
        pg = tr.stage("pages.extract", lambda: pages.extract_text(pg), rows_in=n_win)
        if tr.on:
            tr.add("pages.extract", html_bytes_in=_col_bytes(pg, "html"),
                   text_bytes_out=_col_bytes(pg, "text"))
        pg = tr.stage("pages.geotag", lambda: pages.filter_geotagged(pages.geotag(pg))
                      .select_columns(["url", "lat", "lon"]), rows_in=n_win)
        snapped, lineage = tr.stage(
            "spatial.index", lambda: spatial.knn_snap_broadcast(pg, ewc, res=self.res, ring=self.ring),
            rows_in=_rows(ewc) if tr.on else None, materialize=False)
        if tr.on:
            tr.add("spatial.index", rows_out=lineage["n_edge_cells"],
                   n_edge_cells=lineage["n_edge_cells"])
        snapped = tr.stage("spatial.snap", lambda: snapped,
                           rows_in=_rows(pg) if tr.on else None)
        return snapped, ewc

    def check_pages(self, out: pd.DataFrame) -> dict:
        """Dedup, geotag, extract and snap checks on the chain's rows."""
        truth = pq.read_table(os.path.join(self.inp, "truth_pages.parquet")).to_pandas()
        offered = checks.check_dedup_geotag(out, truth)
        edges = checks.EdgeSet(pq.read_table(os.path.join(self.inp, "truth_edges.parquet")).to_pandas())
        snap = checks.check_snap(out, offered, edges, res=self.res, ring=self.ring,
                                 cell_deg=self.check_cell_deg)
        snap["extract_rows"] = checks.check_extract(self.extract_sample(), truth)
        return snap

    def extract_sample(self) -> pd.DataFrame:
        """extract_text over a fixed sample of shards (the first, the middle, the last)."""
        from ophois_ray import pages

        files = sorted(f for f in os.listdir(self.pages_dir) if f.endswith(".parquet"))
        pick = sorted({files[0], files[len(files) // 2], files[-1]})
        ds = self.rd.read_parquet([os.path.join(self.pages_dir, f) for f in pick])
        df = pages.extract_text(ds).select_columns(["url", "warc_ts", "text"]).to_pandas()
        df["warc_ts_us"] = df["warc_ts"].astype("datetime64[us]").astype(np.int64)
        return df[["url", "warc_ts_us", "text"]]


def _col_bytes(ds, col: str) -> int:
    import pyarrow.compute as pc

    return int(sum(pc.sum(pc.binary_length(b[col])).as_py() or 0
                   for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)))


class CrawlSnap(PagesWorkload):
    """The headline read path: long pages, a small street graph, count."""

    def round(self, tr: Tracer) -> int:
        snapped, _ = self.chain(tr)
        return snapped.count()

    def check_round(self):
        snapped, _ = self.chain(Tracer(False))
        return snapped.to_pandas()

    def check(self, out) -> dict:
        return self.check_pages(out)


class TileResume(PagesWorkload):
    """The chain written through the checkpoint sink, then resumed after
    a fixed half of the tiles was removed."""

    #: about 150 tiles over the three cities of the full-size input
    tile_res = 16

    def fingerprint(self) -> str:
        return f"perfbench:{os.path.basename(self.inp)}:res={self.res}"

    def write(self, snapped, outdir: str):
        from ophois_ray import checkpoint

        return checkpoint.checkpointed_write(snapped, outdir, tile_res=self.tile_res,
                                             fingerprint=self.fingerprint())

    def drop_half(self, outdir: str) -> int:
        tiles = sorted(int(d[len("tile="):]) for d in os.listdir(outdir)
                       if d.startswith("tile=") and "." not in d)
        for t in tiles[::2]:
            shutil.rmtree(os.path.join(outdir, f"tile={t}"))
        return len(tiles[::2])

    def round(self, tr: Tracer) -> int:
        outdir = os.path.join(self.work, "tiles")
        shutil.rmtree(outdir, ignore_errors=True)
        snapped, _ = self.chain(tr)
        recs = tr.stage("checkpoint.write", lambda: self.write(snapped, outdir),
                        rows_in=_rows(snapped) if tr.on else None)
        if tr.on:
            tr.add("checkpoint.write", **_written(recs, outdir))
        self.drop_half(outdir)
        recs2 = tr.stage("checkpoint.resume",
                         lambda: self.write(self.chain(Tracer(False))[0], outdir),
                         rows_in=self.n_rows)
        if tr.on:
            clean = sum(r["cpu_s"] for k, r in tr.records.items() if k != "checkpoint.resume")
            tr.add("checkpoint.resume", cpu_share=tr.records["checkpoint.resume"]["cpu_s"] / clean,
                   **_written(recs2, outdir))
        return sum(r["rows_out"] for r in recs) + sum(r["rows_out"] for r in recs2)

    def check_round(self):
        """Clean write, read back; drop half, resume, read back."""
        clean_dir = os.path.join(self.work, "check_clean")
        shutil.rmtree(clean_dir, ignore_errors=True)
        snapped, _ = self.chain(Tracer(False))
        recs = self.write(snapped, clean_dir)
        clean = checks.read_tiles(clean_dir)
        dropped = self.drop_half(clean_dir)
        recs2 = self.write(self.chain(Tracer(False))[0], clean_dir)
        resumed = checks.read_tiles(clean_dir)
        return {"clean": clean, "resumed": resumed, "tiles": len(recs),
                "dropped": dropped, "rewritten": len(recs2)}

    def check(self, out) -> dict:
        key = ["url", "u", "v"]
        a = out["clean"].sort_values(key).reset_index(drop=True)
        b = out["resumed"].sort_values(key).reset_index(drop=True)
        checks.require(out["rewritten"] == out["dropped"],
                       f"resume: rewrote {out['rewritten']} tiles, {out['dropped']} were removed")
        checks.require(a.equals(b), "resume: rows read back after the resume differ from the clean run")
        checks.check_tiles(b, self.tile_res, self.res)
        res = self.check_pages(a)
        res.update(tiles=out["tiles"], dropped=out["dropped"])
        return res


def _written(recs, outdir: str) -> dict:
    nbytes = sum(os.path.getsize(os.path.join(outdir, f"tile={r['tile']}", "part-0.parquet"))
                 for r in recs)
    return {"tiles": len(recs), "rows_written": int(sum(r["rows_out"] for r in recs)),
            "bytes_written": nbytes}


# --------------------------------------------------------- street workload


class StreetGraph:
    """OSM → distributed build → simplify → discretize, then the
    partitioned (shuffle) snap of skewed points onto the simplified graph."""

    #: below the shortest block (about 40 m), so simplify only contracts
    delta = 25.0
    res = 18
    ring = 1
    hot_threshold = 40
    check_cell_deg = 0.004

    def __init__(self, inp: str, work: str, meta: dict):
        import ray.data

        self.inp, self.work, self.meta = inp, work, meta
        self.osm_dir = os.path.join(inp, "osm")
        self.points = lambda: ray.data.read_parquet(os.path.join(inp, "points.parquet"))

    def n_items(self) -> int:
        return self.meta["graph"]["n_edges"]

    def chain(self, tr: Tracer):
        from ophois_ray import components, discretize, graphops, osm, spatial

        nodes, edges = tr.stage("osm.read", lambda: osm.read_osm_xml(self.osm_dir),
                                rows_in=len(os.listdir(self.osm_dir)))

        def build():
            n = graphops.dedup_nodes(nodes).materialize()
            e = graphops.dedup_edges(edges)
            return n, graphops.attach_coords(e, n, drop_dangling=True).materialize()

        nodes, ewc = tr.stage("graphops.build", build,
                              rows_in=(_rows(nodes) + _rows(edges)) if tr.on else None)
        n2, e2 = tr.stage("components.simplify",
                          lambda: components.simplify(nodes, ewc.select_columns(["u", "v"]), self.delta),
                          rows_in=_rows(nodes) if tr.on else None)
        if tr.on:
            tr.add("components.simplify", nodes_removed=_rows(nodes) - _rows(n2))
        n3, e3 = tr.stage("discretize.discretize", lambda: discretize.discretize(n2, e2, self.delta),
                          rows_in=_rows(e2) if tr.on else None)
        if tr.on:
            tr.add("discretize.discretize", nodes_added=_rows(n3) - _rows(n2))

        def snap():
            sewc = graphops.attach_coords(e2, n2).materialize()
            out, lineage = spatial.knn_snap(self.points(), sewc, res=self.res, ring=self.ring,
                                            hot_threshold=self.hot_threshold)
            return out, lineage, sewc

        snapped, lineage, sewc = tr.stage("spatial.knn_snap_part", snap,
                                          rows_in=self.meta["points"]["points"])
        if tr.on:
            tr.add("spatial.knn_snap_part", rows_out=_rows(snapped), bytes_out=snapped.size_bytes(),
                   n_cells=lineage["n_cells"], hot_cells=len(lineage["hot_cells"]))
        return {"nodes": nodes, "ewc": ewc, "n2": n2, "e2": e2, "n3": n3, "e3": e3,
                "sewc": sewc, "snapped": snapped, "lineage": lineage}

    def round(self, tr: Tracer) -> int:
        r = self.chain(tr)
        return r["n3"].count() + r["e3"].count() + r["snapped"].count()

    def check_round(self):
        r = self.chain(Tracer(False))
        return {"n_nodes": r["nodes"].count(), "n_edges": r["ewc"].count(),
                "n2": r["n2"].to_pandas(), "e2_count": r["e2"].count(),
                "n3_count": r["n3"].count(), "sewc": r["sewc"].to_pandas(),
                "snapped": r["snapped"].to_pandas(), "lineage": r["lineage"]}

    def check(self, out) -> dict:
        from ophois_ray import spatial

        checks.check_build(out["n_nodes"], out["n_edges"], self.meta)
        truth = pq.read_table(os.path.join(self.inp, "truth_edges.parquet")).to_pandas()
        expected = checks.expected_simplified(self.meta, truth)
        checks.check_simplify(out["n2"]["id"].tolist(), out["sewc"], expected)
        added = checks.expected_discretize_added(expected, self.delta)
        checks.require(out["n3_count"] - len(out["n2"]) == added,
                       f"discretize: added {out['n3_count'] - len(out['n2'])} nodes, expected {added}")
        checks.require(len(out["lineage"]["hot_cells"]) > 0, "knn_snap: the salting plan is empty")
        edges = checks.EdgeSet(expected)
        pts = pq.read_table(os.path.join(self.inp, "points.parquet")).to_pandas()
        part = out["snapped"]
        near = edges.nearest(pts["lat"].to_numpy(), pts["lon"].to_numpy(), self.check_cell_deg)[1]
        res = checks.check_snap(part, pts, edges, res=self.res, ring=self.ring,
                                cell_deg=self.check_cell_deg, nearest_sq=near)
        bcast, _ = spatial.knn_snap_broadcast(self.points(), out["sewc"], res=self.res, ring=self.ring)
        bcast = bcast.to_pandas()
        checks.check_snap(bcast, pts, edges, res=self.res, ring=self.ring,
                          cell_deg=self.check_cell_deg, nearest_sq=near)
        cols = ["url", "u", "v", "sqdist"]
        a = part[cols].sort_values("url").reset_index(drop=True)
        b = bcast[cols].sort_values("url").reset_index(drop=True)
        checks.require(a.equals(b), "knn_snap: partitioned rows differ from knn_snap_broadcast's")
        res.update(edges_simplified=len(expected), nodes_added=added,
                   hot_cells=len(out["lineage"]["hot_cells"]))
        return res


WORKLOADS = {"crawl_snap": CrawlSnap, "tile_resume": TileResume, "street_graph": StreetGraph}
