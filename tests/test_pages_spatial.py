"""Graft layer: pages ops, spatial join/kNN snap, checkpoint/resume."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data

from ophois_ray import cells, datagen, geo, pages, spatial
from ophois_ray import checkpoint as ckpt
from ophois_ray.joins import forced_rung

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    datagen.write_pages(str(d), 2000, n_shards=4, seed=5, use_ray=False)
    return str(d)


@pytest.fixture(scope="module")
def pages_ds(pages_dir):
    return ray.data.read_parquet(pages_dir)


def test_generator_deterministic(tmp_path):
    a = datagen.generate_pages_shard(0, 100, seed=9)
    b = datagen.generate_pages_shard(0, 100, seed=9)
    assert a.equals(b)
    assert a.schema.names == ["url", "warc_ts", "html", "text", "lang"]


def test_extract_text_oracle():
    html = (
        b'<html><head><script>if (1<2) { alert("x"); }</script>'
        b"<style>p{}</style></head><body><p>A &amp; B</p>"
        b"<!-- secret --><div>c\n\n  d</div></body></html>"
    )
    assert pages.oracle_extract_text(html) == "A & B c d"
    # the batched extractor (datagen hot path) is byte-identical
    assert pages.extract_text_batch([html.decode("utf-8")]) == ["A & B c d"]


def test_extract_text_batch_byte_parity(pages_ds):
    html = pages_ds.to_pandas()["html"]
    got = pages.extract_text_batch([b.decode("utf-8") for b in html])
    exp = [pages.oracle_extract_text(b) for b in html]
    assert got == exp


def test_extract_text_distributed_byte_identical(pages_ds):
    # re-extract from html via the actor pool; must equal the stored
    # text column (which the generator filled with the oracle output)
    out = pages.extract_text(
        pages_ds.map_batches(
            lambda df: df.rename(columns={"text": "text_ref"}), batch_format="pandas"
        ),
        concurrency=2,
    ).to_pandas()
    assert (out["text"] == out["text_ref"]).all()


def test_extract_text_actor_pool_equals_task_path(pages_ds):
    """The actor-pool path (state built once per actor in __init__) and
    the fused task path must be byte-identical — the real-model shape's
    parity gate (the benched `extract_actor_pool` entry relies on it)."""
    src = pages_ds.map_batches(
        lambda df: df.drop(columns=["text"]), batch_format="pandas"
    )
    # urls repeat across warc_ts (that's why dedup_pages exists) — sort
    # on the full identity so rows align deterministically
    key = ["url", "warc_ts", "text"]
    via_task = pages.extract_text(src).to_pandas().sort_values(
        key, ignore_index=True)
    via_actor = pages.extract_text(
        src, use_actors=True, concurrency=2, batch_size=256
    ).to_pandas().sort_values(key, ignore_index=True)
    assert (via_task["text"] == via_actor["text"]).all()
    assert (via_task["url"] == via_actor["url"]).all()


def test_geotag_and_filter(pages_ds):
    tagged = pages.geotag(pages_ds)
    kept = pages.filter_geotagged(tagged).to_pandas()
    total = pages_ds.count()
    assert 0.9 * total < len(kept) < total  # ~3% have no coords
    # parsed floats match the embedded literal
    row = kept.iloc[0]
    assert f"coords {row['lat']:.7f},{row['lon']:.7f}" in row["text"]


def test_dedup_pages_first_wins(pages_ds):
    deduped = pages.dedup_pages(pages_ds).to_pandas()
    full = pages_ds.to_pandas()
    assert deduped["url"].is_unique
    assert len(deduped) == full["url"].nunique()
    # winner = earliest warc_ts per url
    exp = full.sort_values("warc_ts").groupby("url").first()
    got = deduped.set_index("url").sort_index()
    assert (got["warc_ts"] == exp.sort_index()["warc_ts"]).all()


def test_dedup_pages_cross_block_dups_and_ts_ties():
    """Urls duplicated ACROSS input blocks, including exact-min-ts ties
    (winner = smaller html content hash): exercises the vectorized
    per-url merge of every block's key rows in _build_winner_arrays_impl
    and the rare pass-A2 tie-break scan."""
    t = pd.Timestamp
    blocks = [
        pd.DataFrame({
            "url": ["a", "b", "c"],
            "warc_ts": [t("2024-01-05"), t("2024-01-02"), t("2024-01-01")],
            "html": [b"<p>a-late</p>", b"<p>b1</p>", b"<p>c</p>"],
        }),
        pd.DataFrame({
            "url": ["a", "b"],
            "warc_ts": [t("2024-01-03"), t("2024-01-09")],
            "html": [b"<p>a-tie-x</p>", b"<p>b2</p>"],
        }),
        pd.DataFrame({
            "url": ["a"],
            "warc_ts": [t("2024-01-03")],  # exact tie with block 2
            "html": [b"<p>a-tie-y</p>"],
        }),
    ]
    ds = ray.data.from_pandas(blocks)
    got = pages.dedup_pages(ds).to_pandas().set_index("url").sort_index()
    assert list(got.index) == ["a", "b", "c"]
    assert got.loc["b", "warc_ts"] == t("2024-01-02")
    assert got.loc["c", "html"] == b"<p>c</p>"
    # the tied url "a": earliest ts 2024-01-03 shared by two rows; the
    # winner is the one whose packed (ts, content-hash) key is smaller —
    # same rule as the sequential pandas oracle below
    full = pd.concat(blocks, ignore_index=True)
    full["__packed"] = pages._packed_key(full)
    exp = (
        full.sort_values(["url", "__packed"], kind="stable")
        .drop_duplicates(subset=["url"], keep="first")
        .set_index("url")
    )
    assert got.loc["a", "html"] == exp.loc["a", "html"]
    assert (got["warc_ts"] == exp["warc_ts"]).all()
    assert (got["html"] == exp["html"]).all()


def _dedup_oracle(df: pd.DataFrame) -> pd.DataFrame:
    """Sequential D4: drop null keys, then the smallest packed
    (ts, html hash) key per url wins."""
    df = df[df["url"].notna() & df["warc_ts"].notna()].copy()
    df["__packed"] = pages._packed_key(df)
    return (
        df.sort_values(["url", "__packed"], kind="stable")
        .drop_duplicates(subset=["url"], keep="first")
        .drop(columns=["__packed"])
        .set_index("url")
        .sort_index()
    )


def test_dedup_pages_winner_urls_sized_by_total_bytes():
    """One 2,020-character url among 2,000 short ones: the pass-A winner
    broadcast stays within the total url bytes plus a per-url constant
    (a fixed-width ``<U`` array sizes every url by the longest one,
    ~16 MB here), and dedup keeps the same rows as the pandas rule."""
    import pickle

    import pyarrow as pa

    t = pd.Timestamp
    urls = [f"https://example.org/page/{i:06d}" for i in range(2000)]
    urls.append("https://long.example/" + "x" * 1999)
    n = len(urls)
    keys = pa.table({"url": urls,
                     "win_ts": pa.array(np.arange(n, dtype=np.int64)),
                     "n_at_win": pa.array(np.ones(n, dtype=np.int64))})
    later = pa.table({"url": urls[:10],       # repeats, later: they lose
                      "win_ts": pa.array(np.arange(10, dtype=np.int64) + n),
                      "n_at_win": pa.array(np.ones(10, dtype=np.int64))})
    (w_urls, w_ts), ties = pages._build_winner_arrays_impl(keys, later)
    assert len(w_urls) == n and not ties
    assert w_ts.tolist() == [urls.index(u) for u in w_urls]
    url_bytes = sum(len(u.encode("utf-8")) for u in urls)
    assert len(pickle.dumps((w_urls, w_ts))) <= url_bytes + 32 * n
    # the rows: every url twice (later copy loses), the long one too
    df = pd.DataFrame({
        "url": urls[-50:] * 2,
        "warc_ts": [t("2024-01-01") + pd.Timedelta(days=d)
                    for d in [0] * 50 + [1] * 50],
        "html": [b"<p>first</p>"] * 50 + [b"<p>second</p>"] * 50,
    })
    got = pages.dedup_pages(ray.data.from_pandas([df.iloc[:60], df.iloc[60:]]))
    got = got.to_pandas().sort_values("url", ignore_index=True)
    assert got["url"].tolist() == sorted(urls[-50:])
    assert (got["html"] == b"<p>first</p>").all()


def test_dedup_pages_null_keys_never_win():
    """The null-key rule: a null url never wins (and never matches a
    literal "None" winner), a null warc_ts never beats a real one, and a
    url whose only rows have null warc_ts is dropped."""
    t = pd.Timestamp
    nat = pd.NaT
    blocks = [
        pd.DataFrame({
            "url": ["a", None, "None"],
            "warc_ts": [t("2024-01-01"), t("2024-01-01"), t("2024-01-01")],
            "html": [b"<p>a-real</p>", b"<p>null-url</p>", b"<p>lit-none</p>"],
        }),
        pd.DataFrame({
            "url": ["a", "n", None],
            "warc_ts": [nat, nat, t("2023-01-01")],
            "html": [b"<p>a-nat</p>", b"<p>n-nat</p>", b"<p>null-early</p>"],
        }),
    ]
    ds = ray.data.from_pandas(blocks)
    exp = _dedup_oracle(pd.concat(blocks, ignore_index=True))
    assert list(exp.index) == ["None", "a"]
    got = pages.dedup_pages(ds).to_pandas().set_index("url").sort_index()
    assert list(got.index) == ["None", "a"]
    assert list(got["html"]) == [b"<p>lit-none</p>", b"<p>a-real</p>"]
    assert (got["warc_ts"] == exp["warc_ts"]).all()
    # only null keys: no winners, and pass B still runs without raising
    only_null = ray.data.from_pandas([blocks[1].iloc[1:]])
    assert pages.dedup_pages(only_null).count() == 0


def test_dedup_pages_pass_a_block_layout_independent():
    """The winners do not depend on how pass A's key rows are blocked:
    one key block, one key block per row, no separate key source, and
    a url repeated (with a ts tie) inside one batch all agree with the
    sequential oracle. A 0-row input returns an empty result."""
    t = pd.Timestamp
    df = pd.DataFrame({
        "url": ["a", "b", "a", "c", "b", "a", "d", "c"],
        "warc_ts": [t("2024-01-05"), t("2024-01-02"), t("2024-01-03"),
                    t("2024-01-01"), t("2024-01-09"), t("2024-01-03"),
                    t("2024-01-04"), t("2024-01-06")],
        "html": [b"<p>a1</p>", b"<p>b1</p>", b"<p>a2</p>", b"<p>c1</p>",
                 b"<p>b2</p>", b"<p>a3</p>", b"<p>d1</p>", b"<p>c2</p>"],
    })
    exp = _dedup_oracle(df)
    keys = df[["url", "warc_ts"]]
    pg = ray.data.from_pandas([df])
    layouts = {
        "one_block": ray.data.from_pandas([keys]),
        "block_per_row": ray.data.from_pandas(
            [keys.iloc[i:i + 1] for i in range(len(keys))]),
        "none": None,
    }
    for name, key_source in layouts.items():
        got = (
            pages.dedup_pages(pg, key_source=key_source).to_pandas()
            .set_index("url").sort_index()
        )
        assert list(got.index) == list(exp.index), name
        assert list(got["html"]) == list(exp["html"]), name
    empty = ray.data.from_pandas([df.iloc[:0]])
    assert pages.dedup_pages(empty).count() == 0
    assert pages.dedup_pages(
        empty, key_source=ray.data.from_pandas([keys.iloc[:0]])).count() == 0


def test_dedup_pages_broadcast_runs_without_an_exchange(pages_ds, monkeypatch):
    """Pass A hands its key blocks straight to the winner task: dedup
    must not call repartition or groupby."""
    def refuse(*a, **k):
        raise AssertionError("dedup_pages ran an exchange")

    monkeypatch.setattr(ray.data.Dataset, "repartition", refuse)
    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    deduped = pages.dedup_pages(pages_ds).to_pandas()
    assert deduped["url"].is_unique
    assert len(deduped) == pages_ds.to_pandas()["url"].nunique()



def test_fetch_cached_is_a_bounded_lru(monkeypatch):
    """The per-worker broadcast cache keeps at most _BCAST_CACHE_MAX
    objects, drops the least recently used first, and every fetch
    returns the value behind its ref."""
    from collections import OrderedDict

    monkeypatch.setattr(pages, "_BCAST_CACHE", OrderedDict())
    gets = []
    real_get = ray.get
    monkeypatch.setattr(ray, "get", lambda ref: gets.append(ref) or real_get(ref))
    cap = pages._BCAST_CACHE_MAX
    assert cap >= 8
    refs = [ray.put(np.full(3, i)) for i in range(cap + 5)]
    for i, ref in enumerate(refs):
        assert (pages._fetch_cached(ref) == i).all()
        # a hit moves refs[0] to the end, so it outlives every later insert
        assert (pages._fetch_cached(refs[0]) == 0).all()
        assert len(pages._BCAST_CACHE) == min(i + 1, cap)
    assert gets == refs  # each ref fetched once: refs[0] was never evicted
    assert refs[1].hex() not in pages._BCAST_CACHE
    assert (pages._fetch_cached(refs[1]) == 1).all()
    assert gets == refs + [refs[1]] and len(pages._BCAST_CACHE) == cap
    assert pages._fetch_cached("not a ref") == "not a ref"

def _brute_force_nn(pg: pd.DataFrame, eg: pd.DataFrame, k: int = 1) -> pd.DataFrame:
    """Exact top-k edges per page with the (sqdist, u, v) tiebreak."""
    eg = eg.drop_duplicates().sort_values(["u", "v"], kind="stable").reset_index(drop=True)
    sq = geo.point_segment_sqdist(
        pg["lat"].to_numpy()[:, None], pg["lon"].to_numpy()[:, None],
        eg["u_lat"].to_numpy()[None, :], eg["u_lon"].to_numpy()[None, :],
        eg["v_lat"].to_numpy()[None, :], eg["v_lon"].to_numpy()[None, :],
    )
    k = min(k, len(eg))
    cols = np.argsort(sq, axis=1, kind="stable")[:, :k].ravel()  # ties keep (u, v) order
    rows = np.repeat(np.arange(len(pg)), k)
    return pd.DataFrame(
        {
            "url": pg["url"].to_numpy(object)[rows],
            "rank": np.tile(np.arange(k), len(pg)),
            "u": eg["u"].to_numpy(object)[cols],
            "v": eg["v"].to_numpy(object)[cols],
            "sqdist": sq[rows, cols],
        }
    )


@pytest.fixture(scope="module")
def snap_inputs(pages_ds):
    tagged = pages.filter_geotagged(pages.geotag(pages.dedup_pages(pages_ds)))
    pg = tagged.select_columns(["url", "lat", "lon"]).materialize()
    # synthetic street edges around the hotspots
    rng = np.random.RandomState(4)
    rows = []
    for hlat, hlon, _ in datagen.HOTSPOTS:
        for e in range(40):
            la = hlat + rng.uniform(-0.01, 0.01)
            lo = hlon + rng.uniform(-0.015, 0.015)
            rows.append(
                {
                    "u": f"n{len(rows)}a",
                    "v": f"n{len(rows)}b",
                    "u_lat": la,
                    "u_lon": lo,
                    "v_lat": la + rng.uniform(-0.002, 0.002),
                    "v_lon": lo + rng.uniform(-0.002, 0.002),
                }
            )
    eg = pd.DataFrame(rows)
    return pg, ray.data.from_pandas(eg).materialize(), eg


def test_knn_snap_matches_brute_force_full_coverage(snap_inputs):
    # res=5 cells are 5.6 x 11.2 deg: one ring covers the whole bbox, so
    # every page must get its exact global nearest edge
    pg_ds, eg_ds, eg = snap_inputs
    result, lineage = spatial.knn_snap(pg_ds, eg_ds, res=5, k=1, ring=1, hot_threshold=5000)
    got = result.to_pandas().sort_values("url").reset_index(drop=True)
    pg = pg_ds.to_pandas()
    exp = _brute_force_nn(pg, eg).sort_values("url").reset_index(drop=True)
    assert len(got) == len(exp)
    merged = got.merge(exp, on="url", suffixes=("", "_exp"))
    assert (merged["u"] == merged["u_exp"]).all()
    assert (merged["v"] == merged["v_exp"]).all()
    assert np.allclose(merged["sqdist"], merged["sqdist_exp"], rtol=0, atol=0)
    assert (got["dist_m"] >= 0).all()


def test_knn_snap_ring_limited(snap_inputs):
    # at res=9 / ring=1 only pages within the ring of an edge cell match
    # (the documented partitioning assumption); matched pages can never
    # beat the brute-force optimum, and hotspot-local pages get the
    # exact nearest edge
    pg_ds, eg_ds, eg = snap_inputs
    result, _ = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1, hot_threshold=500)
    got = result.to_pandas()
    pg = pg_ds.to_pandas()
    assert 0 < len(got) <= len(pg)
    exp = _brute_force_nn(pg, eg)
    merged = got.merge(exp, on="url", suffixes=("", "_exp"))
    assert (merged["sqdist"] >= merged["sqdist_exp"] - 1e-18).all()
    # pages in the same res-9 cell as their true NN edge must match it
    same_cell = merged[
        cells.cell_of(merged["lat"].to_numpy(), merged["lon"].to_numpy(), 9)
        == merged["cell"].to_numpy()
    ]
    close = same_cell[np.sqrt(same_cell["sqdist_exp"]) < 0.01]
    assert len(close) > 100
    assert (close["u"] == close["u_exp"]).all()


def test_knn_snap_salting_exercised(snap_inputs):
    pg_ds, eg_ds, eg = snap_inputs
    # low threshold forces hot-cell salting; results must be identical
    r1, lin1 = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1, hot_threshold=50)
    assert len(lin1["hot_cells"]) > 0  # skew plan actually fired
    r2, lin2 = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1, hot_threshold=10**9)
    assert lin2["hot_cells"] == {}
    a = r1.to_pandas().sort_values("url").reset_index(drop=True)
    b = r2.to_pandas().sort_values("url").reset_index(drop=True)
    assert (a["u"] == b["u"]).all() and (a["v"] == b["v"]).all()


def test_knn_broadcast_matches_shuffle(snap_inputs):
    # the zero-shuffle broadcast path must agree with the co-group path
    # and with brute force at full coverage
    pg_ds, eg_ds, eg = snap_inputs
    b, lin = spatial.knn_snap_broadcast(pg_ds, eg_ds, res=5, ring=1)
    assert lin["strategy"] == "broadcast"
    got = b.to_pandas().sort_values("url").reset_index(drop=True)
    exp = _brute_force_nn(pg_ds.to_pandas(), eg).sort_values("url").reset_index(drop=True)
    assert len(got) == len(exp)
    merged = got.merge(exp, on="url", suffixes=("", "_exp"))
    assert (merged["u"] == merged["u_exp"]).all()
    assert (merged["v"] == merged["v_exp"]).all()
    assert np.allclose(merged["sqdist"], merged["sqdist_exp"], rtol=0, atol=0)
    # and at partial coverage it matches the shuffle path exactly
    s, _ = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1, hot_threshold=10**9)
    b2, _ = spatial.knn_snap_broadcast(pg_ds, eg_ds, res=9, ring=1)
    a = s.to_pandas().sort_values("url").reset_index(drop=True)
    c = b2.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(a) == len(c)
    for col in ("url", "u", "v", "cell", "sqdist", "dist_m"):
        assert (a[col].to_numpy() == c[col].to_numpy()).all(), col


def test_knn_topk(snap_inputs):
    pg_ds, eg_ds, eg = snap_inputs
    result, _ = spatial.knn_snap(pg_ds, eg_ds, res=9, k=3, ring=1, hot_threshold=500)
    got = result.to_pandas()
    one = got[got["url"] == got["url"].iloc[0]].sort_values("rank")
    assert list(one["rank"]) == [0, 1, 2]
    assert one["sqdist"].is_monotonic_increasing

    # exact sqdist ties and a repeated edge row: the most popular nearest
    # edge gets two same-coordinate twins (one sorting before it, one
    # after; by v alone the order flips) and appears twice verbatim
    pg = pg_ds.to_pandas()
    hot = eg.index[eg["u"] == _brute_force_nn(pg, eg)["u"].value_counts().index[0]][0]
    twins = eg.loc[[hot, hot]].assign(u=["a_twin", "z_twin"], v=["z", "a"])
    eg2 = pd.concat([eg, twins, eg.loc[[hot]]], ignore_index=True)
    eg2_ds = ray.data.from_pandas([eg2.iloc[: len(eg2) // 2], eg2.iloc[len(eg2) // 2:]])

    def rows(ds):
        df = ds.to_pandas().sort_values(["url", "rank"]).reset_index(drop=True)
        return df[["url", "rank", "u", "v", "sqdist"]]

    # res 5: one ring covers every edge, so knn_snap is the exact top-3
    got, _ = spatial.knn_snap(pg_ds, eg2_ds, res=5, k=3, ring=1, hot_threshold=5000)
    got = rows(got)
    exp = _brute_force_nn(pg, eg2, 3).sort_values(["url", "rank"]).reset_index(drop=True)
    assert not got.duplicated(["url", "u", "v"]).any()
    assert (got.groupby("url")["sqdist"].nunique() < 3).any()  # ties reached the top 3
    pd.testing.assert_frame_equal(got, exp)

    # res 9: salting hot cells changes no row
    salted, lin = spatial.knn_snap(pg_ds, eg2_ds, res=9, k=3, ring=1, hot_threshold=50)
    assert len(lin["hot_cells"]) > 0
    plain, _ = spatial.knn_snap(pg_ds, eg2_ds, res=9, k=3, ring=1, hot_threshold=10**9)
    pd.testing.assert_frame_equal(rows(salted), rows(plain))


def test_knn_rungs_on_empty_and_unmatched_inputs(snap_inputs):
    """Both rungs on 0 pages, 0 edges, and pages with no edge in their
    ring: no error, and only pages with a candidate get a row."""
    pg_ds, eg_ds, eg = snap_inputs
    pg = pg_ds.to_pandas()
    no_pages = ray.data.from_pandas(pg.iloc[:0])
    no_edges = ray.data.from_pandas(eg.iloc[:0])
    far = pg.iloc[:50].assign(url=lambda d: "far-" + d["url"], lat=-40.5, lon=100.25)
    mixed = ray.data.from_pandas([far, pg.iloc[:200]])

    def both(pages_ds, edges_ds):
        b, _ = spatial.knn_snap_broadcast(pages_ds, edges_ds, res=9, ring=1)
        s, _ = spatial.knn_snap(pages_ds, edges_ds, res=9, k=1, ring=1, hot_threshold=50)
        return b.materialize(), s.materialize()

    for pages_ds, edges_ds in [(no_pages, eg_ds), (pg_ds, no_edges), (no_pages, no_edges)]:
        b, s = both(pages_ds, edges_ds)
        assert b.count() == 0 and s.count() == 0

    b, s = both(mixed, eg_ds)
    b = b.to_pandas().sort_values("url").reset_index(drop=True)
    s = s.to_pandas().sort_values("url").reset_index(drop=True)
    assert 0 < len(b) <= 200 and not b["url"].str.startswith("far-").any()
    pd.testing.assert_frame_equal(b, s)


def test_cell_join_counts(pages_ds):
    tagged = pages.filter_geotagged(pages.geotag(pages_ds))
    counts = spatial.cell_join_counts(tagged.select_columns(["url", "lat", "lon"]), 9)
    df = counts.to_pandas()
    assert df["n_pages"].sum() == tagged.count()
    # hotspots produce skew: the top cell holds a big share
    assert df["n_pages"].max() > df["n_pages"].sum() * 0.2


# ------------------------------------------------------------- checkpoint


def test_checkpointed_write_and_resume(snap_inputs, tmp_path):
    pg_ds, eg_ds, _ = snap_inputs
    result, _ = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1, hot_threshold=500)
    result = result.materialize()
    outdir = str(tmp_path / "out")
    fp = "fp-v1"

    # full tile list
    all_tiles = set(
        int(t) for t in cells.parent_to(
            np.array(sorted({r["cell"] for r in result.select_columns(["cell"]).iter_rows()})), 6
        )
    )
    assert len(all_tiles) >= 2

    # first run: inject failure on one tile (simulated kill mid-job —
    # the driver never gets to append manifest.jsonl)
    victim = max(all_tiles)
    with pytest.raises(Exception):
        ckpt.checkpointed_write(
            result, outdir, tile_res=6, fingerprint=fp, fail_tiles={victim}
        )
    done_after_fail = ckpt.completed_tiles(outdir, fp)
    assert victim not in done_after_fail
    # the kill must NOT lose the tiles that did finish: their durable
    # per-tile markers survive even though manifest.jsonl was never written
    assert done_after_fail  # non-vacuous: completed tiles survived the kill
    assert done_after_fail <= all_tiles - {victim}

    # resume: exactly the missing tiles are written, previous outputs untouched
    mtimes = {
        t: os.path.getmtime(os.path.join(outdir, f"tile={t}", "part-0.parquet"))
        for t in done_after_fail
    }
    recs = ckpt.checkpointed_write(result, outdir, tile_res=6, fingerprint=fp)
    written = {r["tile"] for r in recs}
    assert written == all_tiles - done_after_fail  # zero recomputation
    assert victim in written
    assert written.isdisjoint(done_after_fail)
    # lineage log healed: every tile now recorded in manifest.jsonl
    manifest = ckpt.load_manifest(outdir)
    assert set(manifest) >= all_tiles
    assert all(manifest[t]["input_fingerprint"] == fp for t in all_tiles)
    for t, m in mtimes.items():
        assert os.path.getmtime(os.path.join(outdir, f"tile={t}", "part-0.parquet")) == m

    # final output identical to direct result
    back = ckpt.read_checkpointed(outdir).to_pandas().sort_values("url").reset_index(drop=True)
    direct = result.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(direct)
    assert (back["u"] == direct["u"]).all()

    # idempotent rerun: nothing left to do
    assert ckpt.checkpointed_write(result, outdir, tile_res=6, fingerprint=fp) == []

    # changed fingerprint invalidates completed tiles
    recs2 = ckpt.checkpointed_write(result, outdir, tile_res=6, fingerprint="fp-v2")
    assert {r["tile"] for r in recs2} == all_tiles


def test_checkpointed_write_concurrent_writers(snap_inputs, tmp_path):
    """Two checkpointed_write calls racing on the SAME outdir (the
    multi-node double-submit shape): the per-tile marker + os.replace
    promotion must leave every tile complete exactly once, no tmp/old
    leftovers, consistent manifest — regardless of interleaving."""
    import threading

    pg_ds, eg_ds, _ = snap_inputs
    result, _ = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1,
                                 hot_threshold=500)
    result = result.materialize()
    outdir = str(tmp_path / "race")
    fp = "fp-race"
    all_tiles = set(
        int(t) for t in cells.parent_to(
            np.array(sorted({r["cell"] for r in
                             result.select_columns(["cell"]).iter_rows()})), 6
        )
    )

    errs = []

    def run():
        try:
            ckpt.checkpointed_write(result, outdir, tile_res=6, fingerprint=fp)
        except Exception as exc:  # surface in the main thread
            errs.append(exc)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs, errs

    # every tile durably complete exactly once, marker fingerprint right
    done = ckpt.scan_tiles(outdir, fp)
    assert set(done) == all_tiles
    # no partial/leftover promotion debris
    leftovers = [d for d in os.listdir(outdir)
                 if ".__tmp_" in d or ".__old_" in d]
    assert leftovers == []
    # exactly one parquet part per tile (no duplicate/partial tile)
    for t in all_tiles:
        parts = [f for f in os.listdir(os.path.join(outdir, f"tile={t}"))
                 if f.endswith(".parquet")]
        assert parts == ["part-0.parquet"], (t, parts)
    # manifest consistency: every tile recorded, fingerprints match
    manifest = ckpt.load_manifest(outdir)
    assert set(manifest) >= all_tiles
    assert all(manifest[t]["input_fingerprint"] == fp for t in all_tiles)
    # content identical to a direct write
    back = ckpt.read_checkpointed(outdir, fp).to_pandas().sort_values(
        "url").reset_index(drop=True)
    direct = result.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(direct)
    assert (back["u"] == direct["u"]).all()



def test_checkpointed_write_runs_without_an_exchange(snap_inputs, tmp_path, monkeypatch):
    """The tile writer hands block refs straight to its writer tasks: it
    must not call groupby, repartition or sort."""
    pg_ds, eg_ds, _ = snap_inputs
    result, _ = spatial.knn_snap(pg_ds, eg_ds, res=9, k=1, ring=1, hot_threshold=500)
    result = result.materialize()

    def refuse(*a, **k):
        raise AssertionError("checkpointed_write ran an exchange")

    for name in ("groupby", "repartition", "sort"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse)
    outdir = str(tmp_path / "out")
    recs = ckpt.checkpointed_write(result, outdir, tile_res=6, fingerprint="fp")
    assert sum(r["rows_out"] for r in recs) == result.count()
    assert set(ckpt.completed_tiles(outdir, "fp")) == {r["tile"] for r in recs}

def test_geospatial_join_checkpointed_resume(tmp_path):
    from ophois_ray import pipelines

    out = str(tmp_path / "ckpt")
    sf = "/root/testdata/sf0.001"
    # discover the tiles by a dry run into a scratch dir
    recs, _ = pipelines.geospatial_join_checkpointed(sf, str(tmp_path / "probe"))
    tiles = sorted(r["tile"] for r in recs)
    assert len(tiles) >= 1
    victim = tiles[-1]
    # killed run: victim tile fails
    import pytest as _pytest

    if len(tiles) > 1:
        with _pytest.raises(Exception):
            pipelines.geospatial_join_checkpointed(sf, out, fail_tiles={victim})
        done = {r["tile"] for r in ckpt.load_manifest(out).values() if isinstance(r, dict)}
    # resume completes only the missing tiles, full output equals probe
    recs2, _ = pipelines.geospatial_join_checkpointed(sf, out)
    import ray.data

    back = ckpt.read_checkpointed(out).to_pandas().sort_values("url").reset_index(drop=True)
    probe = ckpt.read_checkpointed(str(tmp_path / "probe")).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(probe)
    assert (back["u"] == probe["u"]).all()
    # idempotent rerun: nothing left
    assert pipelines.geospatial_join_checkpointed(sf, out)[0] == []


def test_write_zorder_tiles_layout_and_idempotence(ray_session, tmp_path):
    """Z-order sink: one file per SFC bucket, rows sorted by (z, id)
    inside each file, manifest ranges exact, rerun idempotent."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from ophois_ray import cells
    from ophois_ray.checkpoint import write_zorder_tiles

    rng = np.random.RandomState(9)
    n = 2000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "lat": rng.uniform(35.0, 55.0, n),
        "lon": rng.uniform(-10.0, 20.0, n),
    })
    out = str(tmp_path / "tiles")
    m1 = write_zorder_tiles(ray.data.from_pandas(df).repartition(7), out,
                            res=12, bucket_bits=12)
    assert len(m1) > 3 and int(m1["n"].sum()) == n
    assert m1["zb"].is_monotonic_increasing

    # per-file checks: sorted by (z, id), z-range matches manifest,
    # zb consistent with the file's z values
    for r in m1.itertuples():
        t = pq.read_table(os.path.join(out, r.path)).to_pandas()
        z = t["z"].to_numpy(np.int64)
        assert (np.diff(z) >= 0).all()
        assert z[0] == r.zmin and z[-1] == r.zmax and len(t) == r.n
        assert ((z >> 12) == r.zb).all()
        # z really is the morton key of each row's res-12 cell
        _res, ix, iy = cells.decode(
            cells.cell_of(t["lat"].to_numpy(), t["lon"].to_numpy(), 12))
        assert (cells.morton_interleave(ix, iy) == z).all()

    # rerun is idempotent: same manifest, same content
    m2 = write_zorder_tiles(ray.data.from_pandas(df).repartition(3), out,
                            res=12, bucket_bits=12)
    pd.testing.assert_frame_equal(m1, m2)
    files = sorted(os.listdir(out))
    assert files == sorted(f"zb={int(z)}.parquet" for z in m1["zb"])


def test_read_zorder_bbox_prunes_and_is_exact(ray_session, tmp_path):
    """The z-order reader touches only covering-bucket files and
    returns exactly the brute-force bbox filter."""
    import ray.data

    from ophois_ray.checkpoint import read_zorder_bbox, write_zorder_tiles

    rng = np.random.RandomState(21)
    n = 3000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "lat": rng.uniform(35.0, 55.0, n),
        "lon": rng.uniform(-10.0, 20.0, n),
    })
    out = str(tmp_path / "tiles")
    m = write_zorder_tiles(ray.data.from_pandas(df).repartition(5), out,
                           res=12, bucket_bits=12)
    box = (44.0, 46.5, 1.0, 4.0)
    rows, n_read, n_total = read_zorder_bbox(out, m, *box)
    # layout params travel in the manifest
    assert int(m["res"].iloc[0]) == 12 and int(m["bucket_bits"].iloc[0]) == 12
    exp = df[(df.lat >= box[0]) & (df.lat <= box[1])
             & (df.lon >= box[2]) & (df.lon <= box[3])]
    assert sorted(rows["id"]) == sorted(exp["id"])
    assert len(exp) > 10
    assert n_read < n_total  # the pruning actually pruned


def test_map_match_matches_exhaustive_paths(ray_session):
    """spatial.map_match == brute-force minimum over ALL E^T edge
    paths (cost = sum of point-to-segment emissions + lam x midpoint-
    sqdist transitions). Random float coords make the optimum unique,
    so this pins the whole Viterbi independently of the SQL mirror's
    shared DP structure; mixed trace lengths in one run exercise the
    per-length vectorization."""
    import itertools

    rng = np.random.default_rng(41)
    E, lam = 5, 0.25
    eid = np.sort(rng.choice(1000, E, replace=False)).astype(np.int64)
    alat, alon = rng.uniform(-5, 5, E), rng.uniform(-5, 5, E)
    blat, blon = alat + rng.uniform(0.2, 2, E), alon + rng.uniform(0.2, 2, E)
    edges = pd.DataFrame({"eid": eid, "alat": alat, "alon": alon,
                          "blat": blat, "blon": blon})
    rows = []
    lens = {}
    for tr in range(9):
        L = 3 if tr % 2 else 5
        lens[tr] = L
        for t in range(L):
            rows.append((tr, t, rng.uniform(-5, 7), rng.uniform(-5, 7)))
    pts = pd.DataFrame(rows, columns=["trace_id", "step", "lat", "lon"])
    got = (spatial.map_match(
        ray.data.from_pandas(pts).repartition(4), edges, lam=lam,
        num_buckets=3).to_pandas()
        .sort_values(["trace_id", "step"]).reset_index(drop=True))

    mlat, mlon = (alat + blat) * 0.5, (alon + blon) * 0.5
    for tr, L in lens.items():
        p = pts[pts.trace_id == tr].sort_values("step")
        em = geo.point_segment_sqdist(
            p["lat"].to_numpy()[:, None], p["lon"].to_numpy()[:, None],
            alat[None, :], alon[None, :], blat[None, :], blon[None, :])
        best = None
        for path in itertools.product(range(E), repeat=L):
            c = em[0, path[0]]
            for t in range(1, L):
                i, j = path[t - 1], path[t]
                dml, dmn = mlat[i] - mlat[j], mlon[i] - mlon[j]
                c = c + lam * (dml * dml + dmn * dmn) + em[t, path[t]]
            if best is None or c < best[0]:
                best = (c, path)
        want = eid[list(best[1])]
        have = got[got.trace_id == tr]["edge"].to_numpy()
        assert np.array_equal(have, want), (tr, have, want)


def test_simplify_polylines_matches_recursive_reference(ray_session):
    """spatial.simplify_polylines == a direct recursive transcription
    of Douglas-Peucker (cross^2 > eps2*len2, max-distance split, ties
    to the smallest step); exactly-collinear chains collapse to their
    endpoints, and a planted symmetric tie splits at the earlier
    point."""
    def ref_dp(x, y, eps2):
        keep = {0, len(x) - 1}

        def rec(lo, hi):
            if hi - lo <= 1:
                return
            dx, dy = x[hi] - x[lo], y[hi] - y[lo]
            best, bt = -1, None
            for t in range(lo + 1, hi):
                cr = dx * (y[t] - y[lo]) - dy * (x[t] - x[lo])
                if cr * cr > best:
                    best, bt = cr * cr, t
            if best > eps2 * (dx * dx + dy * dy):
                keep.add(bt)
                rec(lo, bt)
                rec(bt, hi)

        rec(0, len(x) - 1)
        return sorted(keep)

    rng = np.random.default_rng(59)
    rows = []
    want = []
    for tr in range(12):
        L = int(rng.integers(4, 14))
        x = np.sort(rng.choice(4000, L, replace=False)).astype(np.int64)
        y = rng.integers(0, 1024, L).astype(np.int64)
        for t in range(L):
            rows.append((tr, t, int(x[t]), int(y[t])))
        want += [(tr, t) for t in ref_dp(x, y, 5000)]
    pts = pd.DataFrame(rows, columns=["trace_id", "step", "x", "y"])
    got = (spatial.simplify_polylines(
        ray.data.from_pandas(pts).repartition(3), eps2=5000,
        num_buckets=4).to_pandas()
        .sort_values(["trace_id", "step"]))
    assert list(map(tuple, got[["trace_id", "step"]].to_numpy())) == want
    # collinear chain -> endpoints only
    col = pd.DataFrame({"trace_id": 0, "step": range(6),
                        "x": np.arange(6) * 10, "y": np.arange(6) * 7})
    g = spatial.simplify_polylines(
        ray.data.from_pandas(col), eps2=1).to_pandas()
    assert sorted(g["step"]) == [0, 5]
    # symmetric tie: both interior points equidistant -> earlier splits
    tie = pd.DataFrame({"trace_id": 1, "step": range(4),
                        "x": [0, 10, 20, 30], "y": [0, 9, -9, 0]})
    g = spatial.simplify_polylines(
        ray.data.from_pandas(tie), eps2=1).to_pandas()
    assert sorted(g["step"]) == [0, 1, 2, 3] or sorted(g["step"]) == [0, 1, 3]
    ks = sorted(g["step"])
    assert 1 in ks  # the earlier of the tied pair is always kept


def test_parse_robots_and_decide_rep_semantics():
    """pages.parse_robots / robots_decide: RFC 9309 group handling,
    longest-match precedence with allow-beats-disallow ties, wildcard
    and end-anchor rules, pre-group rules ignored, empty Disallow adds
    no rule, crawl-delay attribution, consecutive UA lines sharing a
    group — each junk feature checked to genuinely CHANGE a decision
    when mishandled."""
    txt = "\n".join([
        "# header comment",
        "Disallow: /",                       # pre-group: must be ignored
        "USER-AGENT: *",
        "Disallow:   /private  ",
        "Allow: /private/ok\t# preferred",
        "Disallow: /tmp/*.pdf",
        "Disallow: /exact$",
        "Crawl-Delay : 4",
        "",
        "User-agent: graftbot",
        "User-agent: newsbot",
        "Disallow:",                         # empty: no rule
        "Disallow: /bot1/",
        "Allow: /bot1/pub",
    ])
    g = pages.parse_robots(txt)
    assert len(g) == 2
    assert g[0]["tokens"] == {"*"} and g[0]["delay"] == 4
    assert g[1]["tokens"] == {"graftbot", "newsbot"}
    assert g[1]["delay"] is None
    assert ("/" not in [p for _, p in g[0]["rules"]])      # pre-group dropped
    assert all(p for _, p in g[1]["rules"])                # empty dropped
    # * group: longest match wins, allow beats shorter disallow
    assert pages.robots_decide(g, "otherbot", "/private/ok/x") == (1, 11, 4)
    assert pages.robots_decide(g, "otherbot", "/private/no") == (0, 8, 4)
    # wildcard + anchor
    assert pages.robots_decide(g, "otherbot", "/tmp/a.pdf") == (0, 10, 4)
    assert pages.robots_decide(g, "otherbot", "/exact") == (0, 7, 4)
    assert pages.robots_decide(g, "otherbot", "/exactly") == (1, 0, 4)
    # specific group excludes * rules entirely; newsbot shares it
    assert pages.robots_decide(g, "graftbot", "/private/no") == (1, 0, 0)
    assert pages.robots_decide(g, "graftbot", "/bot1/data") == (0, 6, 0)
    assert pages.robots_decide(g, "graftbot", "/bot1/pub/x") == (1, 9, 0)
    assert pages.robots_decide(g, "newsbot-images", "/bot1/data") == (0, 6, 0)
    # equal-length allow/disallow tie -> allow
    tie = pages.parse_robots(
        "User-agent: *\nDisallow: /abc\nAllow: /abc\n")
    assert pages.robots_decide(tie, "x", "/abcd")[0] == 1
    # sensitivity: a parser that attached the pre-group 'Disallow: /'
    # to the * group would flip the no-match default
    bad = pages.parse_robots("User-agent: *\nDisallow: /\n")
    assert pages.robots_decide(bad, "otherbot", "/anything") == (0, 1, 0)
    # no groups at all -> default allow
    assert pages.robots_decide(pages.parse_robots("# empty"),
                               "x", "/p") == (1, 0, 0)


# ------------------------------------------------------- hreflang clusters


def test_hreflang_clusters_rungs_agree():
    """pages.hreflang_clusters through both rungs of the components
    ladder: a 4-page alternate chain, a hot page that 30 others (and
    itself) alternate to, a duplicated page row, and an empty crawl."""
    import pyarrow as pa

    def page(pid, url, alts):
        links = "".join(f'<link rel="alternate" hreflang="x" href="{a}">'
                        for a in alts)
        return pid, url, f"<html><head>{links}</head></html>"

    rows = [page(i, f"https://c/{i}", [f"https://c/{i + 1}"] if i < 3 else [])
            for i in range(4)]
    rows += [page(100 + i, f"https://h/{i}", ["https://h/hot"]) for i in range(30)]
    rows += [page(200, "https://h/hot", ["https://h/hot"])] * 2
    want = {i: 0 for i in range(4)}
    want.update({100 + i: 100 for i in range(30)})
    want[200] = 100

    def run(rows, rung):
        ds = ray.data.from_arrow(pa.table({
            "page_id": pa.array([r[0] for r in rows], pa.int64()),
            "url": pa.array([r[1] for r in rows], pa.string()),
            "html": pa.array([r[2] for r in rows], pa.string())}))
        with forced_rung(rung):
            out = pages.hreflang_clusters(ds).to_pandas()
        return dict(zip(out["page_id"], out["cluster_id"])) if len(out) else {}

    for rung in ("small", "large"):
        assert run(rows, rung) == want, rung
        assert run([], rung) == {}, rung


# ------------------------------------------------------- redirect chains


def test_resolve_redirects_both_paths():
    # chains, a 2-cycle, a self-loop, and a duplicate src (min dst wins)
    edges = pd.DataFrame({
        "src": [1, 2, 3, 10, 20, 21, 30, 2],
        "dst": [2, 3, 4, 11, 21, 20, 30, 9],
    })
    exp = pd.DataFrame({
        "src": [1, 2, 3, 10, 20, 21, 30],
        "final": [4, 4, 4, 11, -1, -1, -1],
        "hops": [3, 2, 1, 1, -1, -1, -1],
    }).astype(np.int64)

    def run(edges, rung, **kw):
        import pyarrow as pa

        # via Arrow: a 0-row from_pandas Dataset drops its columns
        ds = ray.data.from_arrow(pa.Table.from_pandas(
            edges.astype(np.int64), preserve_index=False))
        with forced_rung(rung):
            out = pages.resolve_redirects(ds, **kw).to_pandas()
        if not len(out):
            return out
        return out.astype(np.int64).sort_values("src").reset_index(drop=True)

    fast = run(edges, "small")
    # the large rung is the distributed pointer-doubling path
    slow = run(edges, "large", max_hops=16, num_buckets=4)
    assert fast.equals(exp), fast
    assert slow.equals(exp), slow
    # a hot target (40 sources redirect to one url, one of them 3
    # times) and no redirects at all: both rungs agree
    hub = pd.DataFrame({"src": np.r_[np.arange(100, 140), [100, 100]],
                        "dst": np.r_[np.full(40, 7), [150, 160]]})
    assert run(hub, "small").equals(run(hub, "large", num_buckets=4))
    assert (run(hub, "small")["final"] == 7).all()
    none = pd.DataFrame({"src": [], "dst": []})
    assert len(run(none, "small")) == len(run(none, "large", num_buckets=4)) == 0


def test_resolve_redirects_long_chain_and_cap():
    # a 20-hop chain resolves under max_hops>=20 and cycles out below it
    n = 21
    edges = pd.DataFrame({"src": np.arange(1, n), "dst": np.arange(0, n - 1)})
    ds = ray.data.from_pandas(edges)
    ok = pages.resolve_redirects(ds, max_hops=32).to_pandas()
    assert (ok["final"] == 0).all() and ok["hops"].max() == n - 1
    # max_hops below the true length treats the deep tail as unresolved;
    # the doubling rounds = ceil(log2(max_hops+1)) resolve up to
    # 2^rounds hops exactly (state starts one hop in; same formula
    # both paths)
    cut = pages.resolve_redirects(ds, max_hops=4).to_pandas()
    cut = cut.set_index("src").sort_index()
    assert (cut.loc[1:8, "final"] == 0).all()
    assert (cut.loc[1:8, "hops"] == np.arange(1, 9)).all()
    assert (cut.loc[9:, "final"] == -1).all()


def test_resolve_redirects_empty():
    ds = ray.data.from_pandas(pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                            "dst": pd.Series(dtype=np.int64)}))
    out = pages.resolve_redirects(ds).to_pandas()
    assert len(out) == 0


def test_parse_sitemap_variants():
    xml = """<?xml version="1.0" encoding="UTF-8"?>
    <!-- a comment -->
    <urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
      <url><loc>https://a.example/1</loc><lastmod> 2024-01-05 </lastmod>
           <changefreq>daily</changefreq><priority>0.8</priority></url>
      <url><priority>1.0</priority><loc>https://a.example/2</loc></url>
      <junk>ignored</junk>
      <url><loc>https://a.example/3</loc>
           <lastmod>2024-01-07T03:04:05Z</lastmod><unknown>x</unknown></url>
    </urlset>"""
    got = pages.parse_sitemap(xml)
    assert got == [
        (0, "https://a.example/1", "2024-01-05", "daily", "0.8"),
        (0, "https://a.example/2", "", "", "1.0"),
        (0, "https://a.example/3", "2024-01-07T03:04:05Z", "", ""),
    ]
    idx = pages.parse_sitemap(
        "<sitemapindex><sitemap><loc>https://a.example/s0.xml</loc>"
        "</sitemap></sitemapindex>")
    assert idx == [(1, "https://a.example/s0.xml", "", "", "")]


def test_sitemap_entries_dataset():
    df = pd.DataFrame({
        "doc_id": np.array([7], np.int64),
        "xml": ["<urlset><url><loc>https://x/u0</loc>"
                "<changefreq>never</changefreq></url></urlset>"],
    })
    out = pages.sitemap_entries(ray.data.from_pandas(df)).to_pandas()
    assert out.loc[0, "freq_id"] == 6 and out.loc[0, "day"] == -1
    assert out.loc[0, "prio_milli"] == -1 and out.loc[0, "kind"] == 0


def test_extract_meta_decoys_and_order():
    html = (b'<html><head><!-- <title>FAKE</title>'
            b'<meta name="robots" content="noindex"> -->'
            b'<title> Real   Title </title>'
            b'<meta content="nofollow" NAME="Robots">'
            b'<link href="https://x/c7" rel="canonical">'
            b'<link rel="alternate" hreflang="fr" href="https://x/fr">'
            b'<link rel="alternate" href="https://x/rss">'  # no hreflang
            b'</head></html>')
    df = pd.DataFrame({"doc_id": np.array([1], np.int64), "html": [html]})
    out = pages.extract_meta(ray.data.from_pandas(df)).to_pandas()
    r = out.iloc[0]
    assert r["title"] == "Real Title"
    assert r["meta_noindex"] == 0 and r["meta_nofollow"] == 1
    assert r["canonical"] == "https://x/c7" and r["n_hreflang"] == 1
    assert "html" not in out.columns


def test_cache_plan_rfc9111_semantics():
    """pages.cache_plan: directive precedence, no-store, duplicate
    Cache-Control combining, quoted values, invalid Expires, heuristic
    freshness, first-wins Age."""
    from ophois_ray import pages

    mk = lambda *ls: "\n".join(("HTTP/1.1 200 OK",) + ls + ("", "x: y"))
    date = "Date: Thu, 01 Jan 2026 00:00:00 GMT"
    d0 = 1767225600

    # s-maxage beats max-age; quoted value unquoted; casing ignored
    assert pages.cache_plan(mk(date,
        'CACHE-CONTROL: public, max-age="300", s-maxage=600')) == \
        (1, 600, 0, d0 + 600)
    # duplicate headers combine (RFC list semantics)
    assert pages.cache_plan(mk(date,
        "Cache-Control: max-age=300",
        "Cache-Control: s-maxage=700, immutable")) == (1, 700, 0, d0 + 700)
    # no-store forces store_ok=0 even with max-age present
    assert pages.cache_plan(mk(date,
        "Cache-Control: no-store, max-age=300", "Age: 5")) == \
        (0, 0, 5, d0 - 5)
    # Expires - Date when no max-age; invalid Expires = expired
    assert pages.cache_plan(mk(date,
        "Expires: Thu, 01 Jan 2026 00:05:00 GMT")) == (1, 300, 0, d0 + 300)
    assert pages.cache_plan(mk(date, "Expires: -1")) == (1, 0, 0, d0)
    # heuristic: (Date - Last-Modified) // 10
    assert pages.cache_plan(mk(date,
        "Last-Modified: Wed, 31 Dec 2025 23:00:00 GMT")) == \
        (1, 360, 0, d0 + 360)
    # first Age wins; padded name; stale_at subtracts age
    assert pages.cache_plan(mk(date, "Cache-Control: max-age=100",
        "Age : 40", "Age: 99")) == (1, 100, 40, d0 + 60)
    # no calendars at all
    assert pages.cache_plan("HTTP/1.1 200 OK\nX: 1\n\n") == (1, 0, 0, 0)


def test_sniff_content_rule_order():
    """pages.sniff_content: magic beats tags, BOM beats meta charset,
    first charset declaration wins, NUL forces binary."""
    from ophois_ray import pages

    assert pages.sniff_content(b"%PDF-1.7 <html>") == (pages.SNIFF_PDF, -1)
    assert pages.sniff_content(b"\x1f\x8b\x08<html>") == (pages.SNIFF_GZIP, -1)
    assert pages.sniff_content(
        b'\xef\xbb\xbf \n<HTML><meta charset="iso-8859-1">') == (
        pages.SNIFF_HTML, 1)  # BOM wins
    assert pages.sniff_content(
        b'<html><meta name="viewport" content="w">'
        b"<meta charset='windows-1251'><meta charset=\"KOI8-R\">") == (
        pages.SNIFF_HTML, 3)  # first declaration wins, decoy loses
    assert pages.sniff_content(b"  <!DOCTYPE HTML>x") == (pages.SNIFF_HTML, 0)
    assert pages.sniff_content(b'<html><meta charset="EBCDIC-XX">') == (
        pages.SNIFF_HTML, 4)  # unknown charset bucket
    assert pages.sniff_content(b" <?xml ?>") == (pages.SNIFF_XML, -1)
    assert pages.sniff_content(b'\t[{"a":1}]') == (pages.SNIFF_JSON, -1)
    assert pages.sniff_content(b"text with late { and <html>") == (
        pages.SNIFF_PLAIN, -1)
    assert pages.sniff_content(b"x\x00y") == (pages.SNIFF_BINARY, -1)


def test_staypoints_anchor_window_semantics(ray_session):
    """spatial.staypoints: the window is measured from the ANCHOR (a
    drifting trace whose consecutive steps are all inside the radius
    still breaks when it leaves the anchor's disk), a too-short window
    advances the anchor by ONE (not past the window), and the scan
    resumes after an emitted stay."""
    import ray

    from ophois_ray.spatial import staypoints

    def run(rows):
        df = pd.DataFrame(rows, columns=["trace_id", "t", "x", "y"])
        out = staypoints(ray.data.from_pandas(df), radius=10, min_dur=120)
        pdf = out.to_pandas()
        if not len(pdf):  # 0-row to_pandas drops columns (CLAUDE.md)
            return pdf
        return (pdf.sort_values(["trace_id", "anchor_idx"])
                .reset_index(drop=True))

    # drift: steps of 6 stay within 10 of each other but point 3 (x=12)
    # leaves the anchor's disk -> stay covers exactly points 0..2
    got = run([(1, 0, 0, 0), (1, 60, 6, 0), (1, 120, 9, 0),
               (1, 180, 12, 0)])
    assert got.to_dict("records") == [
        {"trace_id": 1, "anchor_idx": 0, "n_points": 3, "dur": 120}]

    # sliding chain 0,8,16,24: every 2-point window is under min_dur,
    # anchor advances one at a time, no stay is ever emitted
    assert len(run([(2, 0, 0, 0), (2, 60, 8, 0), (2, 120, 16, 0),
                    (2, 180, 24, 0)])) == 0

    # after a stay the scan resumes AT the breaking point, which can
    # anchor a second stay
    got = run([(3, 0, 0, 0), (3, 60, 1, 0), (3, 120, 2, 0),
               (3, 180, 100, 0), (3, 240, 101, 0), (3, 300, 102, 0)])
    assert got.to_dict("records") == [
        {"trace_id": 3, "anchor_idx": 0, "n_points": 3, "dur": 120},
        {"trace_id": 3, "anchor_idx": 3, "n_points": 3, "dur": 120}]


def test_od_matrix_gap_and_tiebreak(ray_session):
    """spatial.od_matrix: trips split strictly-greater-than the gap, a
    single-event trip has origin == destination, equal timestamps are
    ordered by event id."""
    import ray

    from ophois_ray.spatial import od_matrix

    rows = [
        # user 1: two events 100 apart (gap <= 100 -> one trip 5->7)
        (1, 1, 0, 5), (2, 1, 100, 7),
        # user 1: third event far later -> its own trip 9->9
        (3, 1, 1000, 9),
        # user 2: equal ts, event_id tiebreak decides o=4, d=6
        (5, 2, 50, 6), (4, 2, 50, 4),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "t", "loc"])
    got = od_matrix(ray.data.from_pandas(df), gap_us=100)
    got = got.sort_values(["o_loc", "d_loc"]).reset_index(drop=True)
    assert got.to_dict("records") == [
        {"o_loc": 4, "d_loc": 6, "n_trips": 1},
        {"o_loc": 5, "d_loc": 7, "n_trips": 1},
        {"o_loc": 9, "d_loc": 9, "n_trips": 1}]


def test_orientation_histogram_octants_and_boundaries(ray_session):
    """spatial.orientation_histogram: all 8 compass octants land in
    their bin; 45-degree and axis boundaries follow the documented
    half-open convention; zero-length segments drop."""
    import ray

    from ophois_ray.spatial import orientation_histogram

    # vectors (dx, dy) -> expected octant, all anchored at (1000, 1000)
    cases = [
        ((10, 3), 0), ((10, 0), 0),          # E, axis-E
        ((10, 10), 1), ((3, 10), 1),         # 45 goes up, NE
        ((0, 10), 2), ((-3, 10), 2),         # axis-N, NW-ish
        ((-10, 10), 3), ((-10, 3), 3),       # 135 incl, W-ish
        ((-10, 0), 4), ((-10, -3), 4),       # axis-W, SW-ish
        ((-10, -10), 5), ((0, -10), 5),      # 225 incl, axis-S
        ((-3, -10), 5), ((3, -10), 6),       # S..SE
        ((10, -10), 7), ((10, -3), 7),       # 315 incl, SE..E
        ((0, 0), None),                      # degenerate drops
    ]
    df = pd.DataFrame({
        "x1": np.int64(1000), "y1": np.int64(1000),
        "x2": np.array([1000 + d[0][0] for d in cases], np.int64),
        "y2": np.array([1000 + d[0][1] for d in cases], np.int64)})
    got = (orientation_histogram(ray.data.from_pandas(df), cell=256,
                                 num_buckets=4)
           .to_pandas().sort_values("oct", ignore_index=True))
    exp_counts: dict = {}
    for _, o in cases:
        if o is not None:
            exp_counts[o] = exp_counts.get(o, 0) + 1
    assert got["cx"].unique().tolist() == [3] and got["cy"].unique().tolist() == [3]
    assert dict(zip(got["oct"], got["n"])) == exp_counts


def test_url_feature_row_doubled_separator_and_fragment_query():
    """pages.url_feature_row: a doubled && yields an empty query part
    that must NOT count as a param, and a ?query inside the fragment
    is not a query (regression — the catalog's && trap used to be
    gated on k%6==0, which implies zero params, so no fixture row ever
    carried the doubled separator)."""
    from ophois_ray.pages import url_feature_row

    labels, digits, port, depth, n_params, tld = url_feature_row(
        "https://site11.com/p0/?a0=11&&a1=11#frag?fake=1")
    assert (labels, digits, port, depth, n_params, tld) == (2, 2, 0, 1, 2, 0)


def test_build_graph_auto_ladder_parity(ray_session):
    """pipelines.build_graph_auto: the under-cap driver parse and the
    over-cap distributed build return the same type and the IDENTICAL
    coord-attached canonical edge table on the flagship city shards
    (same u/v pairs, same coords), so the crossover is free to move
    without changing flagship output."""
    from ophois_ray import pipelines
    from ophois_ray.joins import ladder_log

    osm_dir = pipelines._flagship_osm_dir()
    with forced_rung("small"):
        local = pipelines.build_graph_auto(osm_dir)
    assert ladder_log()[-1]["rung"] == "small"
    with forced_rung("large"):
        dist = pipelines.build_graph_auto(osm_dir)
    assert ladder_log()[-1]["rung"] == "large"
    assert isinstance(local, pd.DataFrame) and isinstance(dist, pd.DataFrame)
    cols = ["u", "v", "u_lat", "u_lon", "v_lat", "v_lon"]
    a = local[cols].sort_values(["u", "v"], ignore_index=True)
    b = dist[cols].sort_values(["u", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
