"""S8: per-tile checkpointed output with lineage + resume (north rule:
"every partition emits lineage and row-count metrics to a checkpoint
store so a killed ray job resumes without recomputing completed tiles").

Layout:
  outdir/
    manifest.jsonl            lineage log (append-only; healed on resume)
    tile=<cell>/part-0.parquet
    tile=<cell>/_MANIFEST.json  durable per-tile completion marker

Write path: one fused Arrow map appends each row's coarse tile and drops
the rows of tiles already done; the driver collects the block refs (never
the rows) and hands them straight to Ray writer tasks. One writer takes
every block below ``_WRITER_TASK_BYTES``; above it, one split task per
block routes rows by ``stable_hash(tile) % writers``, so every tile still
lands whole in exactly one writer. A writer sorts its rows by (tile, every
other column) — a total order, so a tile's bytes do not depend on block
layout — and writes each tile's zero-copy slice.

Write protocol per tile (inside its writer task):
  write parquet + the _MANIFEST.json marker (fingerprint, row counts,
  wall time) to tile=<cell>.__tmp_<host>_<pid>_<rand>/, fsync the marker,
  then promote atomically: move any existing tile dir aside (os.replace
  to tile=<cell>.__old_<token>), os.replace the tmp dir into place (again
  if a concurrent writer promoted the tile in between), delete the old
  dir. Because the marker travels INSIDE the renamed directory, a tile is
  durably "done" the instant it is promoted — a kill at any later point
  loses nothing. A retried/duplicate writer re-promotes the same content
  (idempotent).

Resume = directory scan for tiles whose marker matches the input
fingerprint (the markers, not the driver-appended manifest, are the
source of truth — the manifest is lineage/metrics and is healed from
markers on the next run). Anti-join of the tile work list against that
set (driver-side set difference on the small tile list, SURVEY.md §2.8).
Tmp/old dirs a killed writer left behind are swept on the next run: at
once when the token names a dead process on this host, otherwise after a
grace period (they may belong to a live concurrent writer elsewhere).
"""

from __future__ import annotations

import errno
import glob
import json
import math
import os
import re
import shutil
import socket
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import cells
from .joins import _task, stable_hash

_MARKER = "_MANIFEST.json"


def load_manifest(outdir: str) -> dict[int, dict]:
    """tile -> latest manifest record (lineage log, NOT the resume truth)."""
    path = os.path.join(outdir, "manifest.jsonl")
    done: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    done[int(rec["tile"])] = rec
    return done


def append_manifest(outdir: str, records: list[dict]) -> None:
    path = os.path.join(outdir, "manifest.jsonl")
    with open(path, "a", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


def _read_marker(tile_dir: str) -> dict | None:
    try:
        with open(os.path.join(tile_dir, _MARKER), encoding="utf-8") as f:
            return json.load(f)
    except (FileNotFoundError, NotADirectoryError, json.JSONDecodeError):
        return None


def scan_tiles(outdir: str, fingerprint: str | None = None) -> dict[int, dict]:
    """tile -> durable completion record, from the per-tile markers.

    Only fully-promoted tile directories carry a marker, so this survives
    a driver kill at any point (the crash-resume gate). ``fingerprint``
    filters out tiles written for a different input."""
    found: dict[int, dict] = {}
    for tdir in glob.glob(os.path.join(outdir, "tile=*")):
        base = os.path.basename(tdir)
        if ".__tmp_" in base or ".__old_" in base:
            continue
        rec = _read_marker(tdir)
        if rec is None or rec.get("status") != "done":
            continue
        if fingerprint is not None and rec.get("input_fingerprint") != fingerprint:
            continue
        found[int(rec["tile"])] = rec
    return found


def completed_tiles(outdir: str, fingerprint: str) -> set[int]:
    return set(scan_tiles(outdir, fingerprint))


def _newest_mtime(d: str) -> float:
    """Newest mtime of the dir OR anything inside it. The directory's
    own mtime only changes on entry create/rename — a long in-flight
    parquet write bumps the FILE mtime as bytes flush, so a live
    writer's tmp dir always looks fresh through this lens."""
    try:
        newest = os.path.getmtime(d)
        for name in os.listdir(d):
            newest = max(newest, os.path.getmtime(os.path.join(d, name)))
        return newest
    except OSError:
        return 0.0


def _writer_token() -> str:
    """Suffix of a writer's tmp/old dirs: it names the writing process
    (host, pid), so a later sweep can tell a dead writer's debris."""
    return f"{socket.gethostname()}_{os.getpid()}_{uuid.uuid4().hex[:8]}"


def _writer_dead(d: str) -> bool:
    """True when the tmp/old dir ``d`` names a process on THIS host that
    no longer runs. A dir from another host, or from a live pid, is not
    known dead."""
    m = re.search(r"\.__(?:tmp|old)_(.+)_(\d+)_[0-9a-f]{8}$", d)
    if m is None or m.group(1) != socket.gethostname():
        return False
    try:
        os.kill(int(m.group(2)), 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, owned by another user
        pass
    return False


def _clean_stale_dirs(outdir: str, grace_s: float = 300.0) -> None:
    """Remove leftover tmp/old dirs from a killed run (driver-side, once).

    A dir whose writer is known dead (``_writer_dead``) goes at once.
    Any other dir whose newest inner mtime is younger than ``grace_s``
    is left alone: it may belong to a LIVE concurrent writer on the same
    outdir (two racing checkpointed_write calls are legal — promotion
    is atomic and idempotent; only this sweep could interfere). A
    writer on another host stalled with zero I/O progress for the whole
    grace window is indistinguishable from a dead one — its task fails
    loudly on the missing dir and Ray retries it."""
    now = time.time()
    for pat in ("tile=*.__tmp_*", "tile=*.__old_*"):
        for d in glob.glob(os.path.join(outdir, pat)):
            if not _writer_dead(d) and now - _newest_mtime(d) < grace_s:
                continue
            shutil.rmtree(d, ignore_errors=True)


#: object-store bytes of tiled rows one writer task takes; above it the
#: blocks are split by tile hash over ceil(bytes / this) writers
_WRITER_TASK_BYTES = 256 << 20


def _tile_rows(t: pa.Table, cell_col: str, tile_res: int,
               done: np.ndarray) -> pa.Table:
    """The fused map: append ``__tile`` and drop the rows of done tiles."""
    tile = cells.parent_to(t[cell_col].to_numpy(), tile_res)
    t = t.append_column("__tile", pa.array(tile, type=pa.int64()))
    if len(done):
        t = t.filter(pa.array(~np.isin(tile, done)))
    return t


def _split_for_writers(t: pa.Table, writers: int) -> list:
    """One block's schema, then its rows routed to ``writers`` tables by
    tile hash."""
    w = stable_hash(t["__tile"].to_numpy()) % np.uint64(writers)
    return [t.schema] + [t.filter(pa.array(w == j)) for j in range(writers)]


def _write_one_tile(outdir: str, tile: int, body: pa.Table,
                    fingerprint: str, fail: set[int]) -> dict:
    if tile in fail:
        raise RuntimeError(f"injected failure for tile {tile}")
    start = time.monotonic()
    final_dir = os.path.join(outdir, f"tile={tile}")
    tmp_dir = final_dir + f".__tmp_{_writer_token()}"
    os.makedirs(tmp_dir, exist_ok=True)
    pq.write_table(body, os.path.join(tmp_dir, "part-0.parquet"))
    rec = {
        "tile": tile,
        "status": "done",
        "rows_in": body.num_rows,
        "rows_out": body.num_rows,
        "input_fingerprint": fingerprint,
        "wall_s": time.monotonic() - start,
    }
    with open(os.path.join(tmp_dir, _MARKER), "w", encoding="utf-8") as f:
        json.dump(rec, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    # atomic promotion: move the old dir aside first (rename over a
    # non-empty dir fails on POSIX), then rename tmp into place. A
    # concurrent writer can promote the same tile between the two
    # renames; then its dir goes aside too and the rename is retried
    # (each retry follows another writer's completed promotion, so the
    # loop ends)
    asides = []
    while True:
        aside = final_dir + f".__old_{_writer_token()}"
        try:
            os.replace(final_dir, aside)
            asides.append(aside)
        except FileNotFoundError:
            pass
        try:
            os.replace(tmp_dir, final_dir)
            break
        except OSError as e:
            if e.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
    for aside in asides:
        shutil.rmtree(aside, ignore_errors=True)
    return rec


def _write_tiles(outdir: str, fingerprint: str, fail: set[int],
                 schema: pa.Schema | None, *tables: pa.Table) -> list[dict]:
    """A writer task: every tile of ``tables`` written whole, in tile order.

    ``schema`` (the split path's unified block schema) makes every writer
    promote a column the same way, even one that saw only null blocks.
    Rows are sorted by (tile, every other column) so a tile's rows come
    out in one order whatever the block layout; columns of nested type
    cannot be sort keys and only ride along."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return []
    tbl = pa.concat_tables(live, promote_options="default")
    if schema is not None:
        tbl = tbl.select(schema.names).cast(schema)
    tbl = tbl.replace_schema_metadata(None)
    keys = ["__tile"] + [f.name for f in tbl.schema
                         if f.name != "__tile" and not pa.types.is_nested(f.type)]
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[(k, "ascending") for k in keys]))
    tiles = tbl["__tile"].to_numpy()
    body = tbl.drop_columns(["__tile"])
    bounds = np.flatnonzero(np.r_[True, tiles[1:] != tiles[:-1], True])
    return [
        _write_one_tile(outdir, int(tiles[a]), body.slice(a, b - a), fingerprint, fail)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def checkpointed_write(
    ds,
    outdir: str,
    *,
    tile_res: int,
    fingerprint: str,
    cell_col: str = "cell",
    fail_tiles: set[int] | None = None,
):
    """Write ``ds`` partitioned by coarse tile (parent of ``cell_col`` at
    ``tile_res``), skipping tiles already durably completed for the same
    input fingerprint. Returns the list of manifest records written this
    run, in tile order (empty list = everything was already done).

    ``fail_tiles`` injects a failure before those tiles are written —
    the test hook for the kill/resume gate.
    """
    import ray

    os.makedirs(outdir, exist_ok=True)
    _clean_stale_dirs(outdir)
    done_recs = scan_tiles(outdir, fingerprint)

    # Heal the lineage log: a killed run leaves durable markers that were
    # never appended to manifest.jsonl; record them now (status preserved,
    # flagged as recovered) so the log reflects every completed tile.
    manifest = load_manifest(outdir)
    orphans = [
        {**rec, "recovered": True}
        for t, rec in sorted(done_recs.items())
        if t not in manifest or manifest[t].get("input_fingerprint") != fingerprint
    ]
    if orphans:
        append_manifest(outdir, orphans)

    # No exchange: a writer must hold each of its tiles whole, not sorted,
    # so the driver passes block refs (never rows) straight to the writers.
    done = np.array(sorted(done_recs), dtype=np.int64)
    tiled = ds.map_batches(_tile_rows, batch_format="pyarrow",
                           fn_kwargs={"cell_col": cell_col, "tile_res": tile_res,
                                      "done": done})
    refs, nbytes = [], 0
    for bundle in tiled.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                refs.append(ref)
                nbytes += meta.size_bytes
    records = []
    if refs:
        writers = math.ceil(nbytes / _WRITER_TASK_BYTES)
        if writers <= 1:
            schema, parts = None, [refs]
        else:
            split = _task(_split_for_writers).options(num_returns=writers + 1)
            routed = [split.remote(ref, writers) for ref in refs]
            schema = pa.unify_schemas(ray.get([r[0] for r in routed]),
                                      promote_options="default")
            parts = [[r[j + 1] for r in routed] for j in range(writers)]
        write = _task(_write_tiles)
        fail = set(fail_tiles or ())
        out = ray.get([write.remote(outdir, fingerprint, fail, schema, *p) for p in parts])
        records = sorted((r for recs in out for r in recs), key=lambda r: r["tile"])
    append_manifest(outdir, records)
    return records


def read_checkpointed(outdir: str, fingerprint: str | None = None):
    """Read back every durably completed tile as one Dataset.

    With ``fingerprint`` given, only tiles whose marker matches are read
    (stale tiles from an older input are skipped). Without it, all tiles
    must agree on one fingerprint — a mixed directory raises instead of
    silently blending two inputs' outputs."""
    import ray.data

    found = scan_tiles(outdir, fingerprint)
    if fingerprint is None:
        fps = {rec.get("input_fingerprint") for rec in found.values()}
        if len(fps) > 1:
            raise ValueError(
                f"{outdir} holds tiles from {len(fps)} different input "
                f"fingerprints {sorted(map(str, fps))}; pass fingerprint= to select one"
            )
    paths = []
    for t, _rec in sorted(found.items()):
        tdir = os.path.join(outdir, f"tile={t}")
        paths.extend(
            os.path.join(tdir, f) for f in sorted(os.listdir(tdir)) if f.endswith(".parquet")
        )
    return ray.data.read_parquet(paths)


def write_zorder_tiles(points, outdir: str, *, res: int = 12,
                       bucket_bits: int = 12, id_col: str = "id",
                       lat_col: str = "lat", lon_col: str = "lon",
                       num_buckets: int = 32) -> pd.DataFrame:
    """Z-order-clustered serving layout: the range-scan sink a tile
    store reads. Each point gets its res-``res`` Morton key
    (cells.morton_interleave); one parquet file per SFC bucket
    (zb = z >> ``bucket_bits`` — SFC buckets ARE the coarser tiles),
    rows inside each file SORTED by (z, id) so a spatial range scan
    reads consecutive rows of consecutive files. Files are written
    tmp + fsync + os.replace (atomic, rerun-idempotent: a second run
    re-promotes identical content). Returns the manifest
    ``(zb, n, zmin, zmax, path, res, bucket_bits, lat_col, lon_col)``
    sorted by zb — path is the bare filename (the reader joins it onto
    ITS outdir, so the layout relocates), and the layout parameters
    ride the manifest so a reader can never silently mismatch them.

    Scale shape: ONE zb-bucket shuffle (grouped_apply); a bucket task
    holds only its tile's rows; the manifest is |tiles| rows on the
    driver, never the data."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from . import cells
    from .joins import grouped_apply

    os.makedirs(outdir, exist_ok=True)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        c = cells.cell_of(df[lat_col].to_numpy(np.float64),
                          df[lon_col].to_numpy(np.float64), res)
        _res, ix, iy = cells.decode(c)
        z = cells.morton_interleave(ix, iy)
        df = df.copy()
        df["__z"] = z
        df["__zb"] = z >> np.int64(bucket_bits)
        return df

    def write_tile_group(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for zb, g in df.groupby("__zb", sort=False):
            g = g.sort_values(["__z", id_col], ignore_index=True)
            z = g["__z"].to_numpy(np.int64)
            path = os.path.join(outdir, f"zb={int(zb)}.parquet")
            tmp = f"{path}.__tmp_{os.getpid()}"
            body = g.drop(columns=["__zb"]).rename(columns={"__z": "z"})
            pq.write_table(pa.Table.from_pandas(body, preserve_index=False),
                           tmp)
            with open(tmp, "rb") as f:
                os.fsync(f.fileno())
            os.replace(tmp, path)
            outs.append((int(zb), len(g), int(z[0]), int(z[-1]),
                         os.path.basename(path)))
        if not outs:
            return pd.DataFrame({
                "zb": pd.Series(dtype=np.int64),
                "n": pd.Series(dtype=np.int64),
                "zmin": pd.Series(dtype=np.int64),
                "zmax": pd.Series(dtype=np.int64),
                "path": pd.Series(dtype=object)})
        a = pd.DataFrame(outs, columns=["zb", "n", "zmin", "zmax", "path"])
        for c in ("zb", "n", "zmin", "zmax"):
            a[c] = a[c].astype(np.int64)
        return a

    manifest = grouped_apply(
        points.map_batches(assign, batch_format="pandas"), "__zb",
        write_tile_group, num_buckets=num_buckets,
    ).to_pandas()
    if not len(manifest):
        manifest = pd.DataFrame({"zb": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64),
                                 "zmin": pd.Series(dtype=np.int64),
                                 "zmax": pd.Series(dtype=np.int64),
                                 "path": pd.Series(dtype=object)})
    else:
        manifest = manifest.sort_values("zb", ignore_index=True)
    manifest["res"] = np.int64(res)
    manifest["bucket_bits"] = np.int64(bucket_bits)
    manifest["lat_col"] = lat_col
    manifest["lon_col"] = lon_col
    return manifest


def read_zorder_bbox(outdir: str, manifest: pd.DataFrame,
                     lat_lo: float, lat_hi: float,
                     lon_lo: float, lon_hi: float):
    """Range-scan reader over a write_zorder_tiles layout: the bbox is
    covered at the manifest's recorded resolution, the covering cells'
    SFC buckets are intersected with the manifest, ONLY those files
    are read (the pruning that makes the layout pay), and the exact
    bbox filter runs over the pruned rows. Layout parameters (res,
    bucket_bits, column names) come FROM the manifest — a reader can
    never silently disagree with the writer — and file paths are
    joined onto ``outdir`` so a relocated tile directory still reads.
    Returns ``(rows, n_files_read, n_files_total)``."""
    import os

    import pyarrow.parquet as pq

    from . import cells

    if not len(manifest):
        return pd.DataFrame(), 0, 0
    res = int(manifest["res"].iloc[0])
    bucket_bits = int(manifest["bucket_bits"].iloc[0])
    lat_col = str(manifest["lat_col"].iloc[0])
    lon_col = str(manifest["lon_col"].iloc[0])

    c_lo = cells.cell_of(np.array([lat_lo]), np.array([lon_lo]), res)
    c_hi = cells.cell_of(np.array([lat_hi]), np.array([lon_hi]), res)
    _r, ix0, iy0 = cells.decode(c_lo)
    _r, ix1, iy1 = cells.decode(c_hi)
    if bucket_bits % 2 == 0:
        # zb = morton(ix, iy) >> bits == morton(ix >> bits/2,
        # iy >> bits/2): enumerate the COARSE rectangle (4096x fewer
        # points than the fine meshgrid at the default bits=12)
        s = bucket_bits // 2
        ixs = np.arange(int(ix0[0]) >> s, (int(ix1[0]) >> s) + 1,
                        dtype=np.int64)
        iys = np.arange(int(iy0[0]) >> s, (int(iy1[0]) >> s) + 1,
                        dtype=np.int64)
        gx, gy = np.meshgrid(ixs, iys)
        zbs = np.unique(cells.morton_interleave(gx.ravel(), gy.ravel()))
    else:
        ixs = np.arange(int(ix0[0]), int(ix1[0]) + 1, dtype=np.int64)
        iys = np.arange(int(iy0[0]), int(iy1[0]) + 1, dtype=np.int64)
        gx, gy = np.meshgrid(ixs, iys)
        zbs = np.unique(cells.morton_interleave(gx.ravel(), gy.ravel())
                        >> np.int64(bucket_bits))
    hit = manifest[manifest["zb"].isin(zbs)]
    frames = []
    for path in hit["path"]:
        t = pq.read_table(os.path.join(outdir, path)).to_pandas()
        m = ((t[lat_col] >= lat_lo) & (t[lat_col] <= lat_hi)
             & (t[lon_col] >= lon_lo) & (t[lon_col] <= lon_hi))
        frames.append(t[m])
    rows = (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame())
    return rows, len(hit), len(manifest)
