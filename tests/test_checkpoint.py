"""Tile checkpoint sink: layout-independent tiles, edge inputs, no
exchange, and resume after a real SIGKILL of the writing driver."""

import glob
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from ophois_ray import cells
from ophois_ray import checkpoint as ckpt

pytestmark = pytest.mark.usefixtures("ray_session")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: res-12 cells under res-8 tiles: each tile is a 16 x 16 block of cells
RES, TILE_RES = 12, 8


def tile_frame(n_tiles_side: int, rows_per_tile: int, seed: int = 0) -> pa.Table:
    """Synthetic snapped rows over ``n_tiles_side**2`` tiles. (url, lat)
    takes 4 values, so with more rows per tile every tile holds rows that
    tie on them and differ only in later columns: only a total sort order
    makes such a tile's row order layout-free."""
    rng = np.random.RandomState(seed)
    n = n_tiles_side * n_tiles_side * rows_per_tile
    tix = np.repeat(np.arange(n_tiles_side * n_tiles_side), rows_per_tile)
    ix = (tix // n_tiles_side) * 16 + rng.randint(0, 16, n)
    iy = (tix % n_tiles_side) * 16 + rng.randint(0, 16, n)
    cell = cells.encode(RES, ix, iy)
    order = rng.permutation(n)  # tiles interleaved across blocks
    return pa.table({
        "url": pa.array([f"u{i % 2}" for i in range(n)]),
        "lat": pa.array(np.round(rng.uniform(0, 1, n))),
        "u": pa.array([f"n{i}" for i in rng.randint(0, 5, n)]),
        "cell": pa.array(cell, type=pa.int64()),
        "dist_m": pa.array(rng.uniform(0, 50, n)),
    }).take(pa.array(order))


def read_tiles(outdir: str) -> dict[int, pa.Table]:
    return {
        int(os.path.basename(d)[len("tile="):]): pq.read_table(os.path.join(d, "part-0.parquet"))
        for d in sorted(glob.glob(os.path.join(outdir, "tile=*")))
        if "." not in os.path.basename(d)
    }


def leftovers(outdir: str) -> list[str]:
    return [d for d in os.listdir(outdir) if ".__tmp_" in d or ".__old_" in d]


def _record_set(recs) -> list[tuple]:
    """The records without their timings and fingerprint."""
    return sorted((r["tile"], r["rows_in"], r["rows_out"], r["status"]) for r in recs)


def _one_block_per_row(t: pa.Table) -> list[pa.Table]:
    """``t`` one row per block; a row whose ``note`` is null carries that
    column as Arrow null type, as a pandas block of None converts."""
    out = []
    for i in range(t.num_rows):
        row = t.slice(i, 1)
        if not row["note"].is_valid()[0].as_py():
            row = row.set_column(row.schema.get_field_index("note"), "note", pa.nulls(1))
        out.append(row)
    return out


def test_tile_tables_do_not_depend_on_block_layout(tmp_path, monkeypatch):
    """The same rows as one block, as one block per row in shuffled
    order, and through the split path with several writers give
    identical tiles: same rows in the same order, the same promoted
    schema, the same records."""
    t = tile_frame(4, 6, seed=3)
    # ``note`` is null in every row of half the tiles and in some rows of
    # the rest, so a writer can see only null-typed blocks
    _, tile_rank = np.unique(cells.parent_to(t["cell"].to_numpy(), TILE_RES),
                             return_inverse=True)
    note = pa.array([None if r % 2 or i % 3 else f"x{i % 4}"
                     for i, r in enumerate(tile_rank)], pa.string())
    t = t.append_column("note", note)
    # blocks also arrive in another row order, as a streaming executor may
    blocks = _one_block_per_row(t.take(np.random.RandomState(8).permutation(t.num_rows)))
    assert any(b.schema.field("note").type == pa.null() for b in blocks)

    def write(name, ds):
        outdir = str(tmp_path / name)
        recs = ckpt.checkpointed_write(ds, outdir, tile_res=TILE_RES, fingerprint="fp")
        assert leftovers(outdir) == []
        return read_tiles(outdir), _record_set(recs)

    whole, whole_recs = write("whole", ray.data.from_arrow(t))
    per_row, per_row_recs = write("per_row", ray.data.from_arrow(blocks))
    # tiled bytes exceed the input's, so this forces at least 8 writers
    in_bytes = sum(b.nbytes for b in blocks)
    monkeypatch.setattr(ckpt, "_WRITER_TASK_BYTES", in_bytes // 8)
    split, split_recs = write("split", ray.data.from_arrow(blocks[::-1]))

    assert len(whole) == 16 and sum(x.num_rows for x in whole.values()) == t.num_rows
    assert whole_recs == per_row_recs == split_recs
    assert whole.keys() == per_row.keys() == split.keys()
    for tile, tbl in whole.items():
        assert tbl.schema.field("note").type == pa.string()
        assert "__tile" not in tbl.column_names
        assert tbl.equals(per_row[tile]), tile
        assert tbl.equals(split[tile]), tile
        assert set(cells.parent_to(tbl["cell"].to_numpy(), TILE_RES)) == {tile}


def test_checkpointed_write_edge_inputs(tmp_path):
    t = tile_frame(3, 4, seed=1)
    # 0 input rows: nothing written, no tile dir
    empty = str(tmp_path / "empty")
    assert ckpt.checkpointed_write(ray.data.from_arrow(t.slice(0, 0)), empty,
                                   tile_res=TILE_RES, fingerprint="fp") == []
    assert read_tiles(empty) == {} and leftovers(empty) == []
    # every tile already done: nothing rewritten
    out = str(tmp_path / "out")
    first = ckpt.checkpointed_write(ray.data.from_arrow(t), out, tile_res=TILE_RES,
                                    fingerprint="fp")
    assert len(first) == 9
    assert ckpt.checkpointed_write(ray.data.from_arrow(t), out, tile_res=TILE_RES,
                                   fingerprint="fp") == []
    # a column all-null in some blocks is promoted to the other blocks' type
    half = t.num_rows // 2
    a = t.slice(0, half).append_column("note", pa.nulls(half))
    b = t.slice(half).append_column("note", pa.array(["y"] * (t.num_rows - half)))
    mixed = str(tmp_path / "mixed")
    recs = ckpt.checkpointed_write(ray.data.from_arrow([a, b]), mixed, tile_res=TILE_RES,
                                   fingerprint="fp")
    assert sum(r["rows_out"] for r in recs) == t.num_rows
    tiles = read_tiles(mixed)
    assert all(x.schema.field("note").type == pa.string() for x in tiles.values())
    assert sum(x["note"].null_count for x in tiles.values()) == half


def _writers_running() -> bool:
    """True while a worker of this session's cluster (started below this
    process) runs a checkpoint writer or split task: Ray titles a worker
    process after the task it executes."""
    import psutil  # Ray vendors it; importable once ray is imported

    for p in psutil.Process().children(recursive=True):
        try:
            cmd = " ".join(p.cmdline())
        except psutil.Error:  # ended between listing and reading
            continue
        if "ray::_write_tiles" in cmd or "ray::_split_for_writers" in cmd:
            return True
    return False


_KILLED_DRIVER = """
import sys
import ray, ray.data
ray.init(address=sys.argv[1], logging_level="ERROR")
sys.path.insert(0, sys.argv[3])
from test_checkpoint import TILE_RES, tile_frame
from ophois_ray import checkpoint as ckpt
ckpt.checkpointed_write(ray.data.from_arrow(tile_frame(18, 4)), sys.argv[2],
                        tile_res=TILE_RES, fingerprint="fp-kill")
"""


def test_resume_after_sigkill_of_the_writing_driver(tmp_path, record_property):
    """A driver connected to the running cluster writes 324 tiles and is
    SIGKILLed once a tile marker exists; Ray then kills its writer too,
    wherever it is in a tile. The resume must leave the rows of a clean
    write and no tmp/old debris, whatever the kill point."""
    outdir = str(tmp_path / "killed")
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_DRIVER, ray.get_runtime_context().gcs_address,
         outdir, os.path.dirname(os.path.abspath(__file__))],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while not (os.path.isdir(outdir) and ckpt.scan_tiles(outdir)):
            assert proc.poll() is None, proc.stderr.read().decode()[-2000:]
            assert time.monotonic() < deadline, "no tile marker within 120 s"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        markers_at_kill = len(ckpt.scan_tiles(outdir))
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    record_property("markers_at_kill", markers_at_kill)
    # the killed job's writer dies shortly after its driver: wait until no
    # writer runs and every tmp/old dir names a process that is gone
    deadline = time.monotonic() + 60
    while _writers_running() or not all(map(ckpt._writer_dead, leftovers(outdir))):
        assert time.monotonic() < deadline, "the killed writer outlived its driver by 60 s"
        time.sleep(0.1)
    done = set(ckpt.scan_tiles(outdir))
    assert len(done) >= markers_at_kill >= 1

    ds = ray.data.from_arrow(tile_frame(18, 4))
    recs = ckpt.checkpointed_write(ds, outdir, tile_res=TILE_RES, fingerprint="fp-kill")
    clean = str(tmp_path / "clean")
    clean_recs = ckpt.checkpointed_write(ds, clean, tile_res=TILE_RES, fingerprint="fp-kill")
    assert len(clean_recs) == 324
    assert {r["tile"] for r in recs} == {r["tile"] for r in clean_recs} - done
    assert leftovers(outdir) == []
    got, exp = read_tiles(outdir), read_tiles(clean)
    assert got.keys() == exp.keys()
    assert all(got[t].equals(exp[t]) for t in exp)


def test_promotion_survives_writers_racing_on_one_tile(tmp_path):
    """Eight threads promote the same tile at once, twenty times over: a
    writer whose tmp-dir rename meets a dir another writer promoted in
    between must retry, not fail, and leave exactly one complete tile."""
    import threading

    body = tile_frame(1, 5).drop_columns(["cell"])
    outdir = str(tmp_path)
    for _ in range(20):
        start, errs = threading.Barrier(8), []

        def promote():
            start.wait(timeout=30)
            try:
                ckpt._write_one_tile(outdir, 7, body, "fp", set())
            except OSError as exc:
                errs.append(exc)

        threads = [threading.Thread(target=promote) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errs == []
        assert leftovers(outdir) == []
        assert sorted(os.listdir(os.path.join(outdir, "tile=7"))) == ["_MANIFEST.json",
                                                                     "part-0.parquet"]
        assert read_tiles(outdir)[7].equals(body)
