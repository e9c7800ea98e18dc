"""Training-data operators: dedup family, text stats, similarity search,
multimodal plumbing — over the driver testdata tables."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from ophois_ray import dedup, multimodal, similarity, textstats
from ophois_ray.joins import forced_rung

pytestmark = pytest.mark.usefixtures("ray_session")


def _both_rungs(fn):
    """[fn() with every ladder forced small, fn() forced large]."""
    out = []
    for rung in ("small", "large"):
        with forced_rung(rung):
            out.append(fn())
    return out


#: hot-key graph input: a wheel, hub 0 on every spoke and every triangle
_WHEEL = [(0, i) for i in range(1, 31)] + [(i, i + 1) for i in range(1, 30)]

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return ray.data.read_parquet(f"{SF}/documents.parquet").materialize()


@pytest.fixture(scope="module")
def embeds():
    return ray.data.read_parquet(f"{SF}/embeddings.parquet").materialize()


def test_exact_dedup_counts(docs):
    out = dedup.exact_dedup(docs).to_pandas()
    full = docs.to_pandas()
    assert len(out) == full["text"].nunique()
    assert out["n_copies"].sum() == len(full)
    # keeper is the smallest doc_id of each group
    grp = full.groupby("text")["doc_id"].min().sort_values().to_numpy()
    assert sorted(out["keep_id"]) == sorted(grp)
    kept = dedup.exact_dedup_filter(docs).to_pandas()
    assert len(kept) == len(out)


def test_exact_dedup_filter_paths_equal(docs):
    # the large rung is the bucketed hash-semi-join fallback; it must
    # be row-identical (and dtype-identical) to the broadcast path —
    # also when 60 docs share one text, and on an empty corpus
    full = docs.to_pandas()
    hot = full.head(60).assign(text="the same text")
    for src in (docs, ray.data.from_pandas(hot), docs.limit(0)):
        a, b = (x.to_pandas() for x in
                _both_rungs(lambda: dedup.exact_dedup_filter(src)))
        cols = sorted(a.columns)
        assert cols == sorted(b.columns)
        a2 = a[cols].sort_values(cols).reset_index(drop=True)
        b2 = b[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a2, b2)
    assert len(a) == 0 and len(dedup.exact_dedup_filter(
        ray.data.from_pandas(hot)).to_pandas()) == 1


def test_minhash_detects_planted_near_dups(docs):
    full = docs.to_pandas()
    base = full.iloc[0]["text"]
    # plant two near-identical copies of doc 0
    planted = pd.DataFrame(
        {
            "doc_id": [100001, 100002],
            "text": [base + " tail", base + " tailx"],
            "lang": ["en", "en"],
            "source": ["p", "p"],
            "n_chars": [len(base) + 5, len(base) + 6],
        }
    )
    ds = ray.data.from_pandas(pd.concat([full, planted], ignore_index=True))
    groups = dedup.minhash_near_dup_groups(ds, threshold=0.7)
    # one return type on every rung: a Dataset the caller may collect
    assert isinstance(groups, ray.data.Dataset)
    groups = groups.to_pandas().astype(np.int64)
    gmap = dict(zip(groups["id"], groups["group"]))
    assert 100001 in gmap and 100002 in gmap and 0 in gmap
    assert gmap[100001] == gmap[100002] == gmap[0]

    def forced(*force):
        with forced_rung(*force):
            out = dedup.minhash_near_dup_groups(ds, threshold=0.7)
        assert isinstance(out, ray.data.Dataset)
        return (out.to_pandas().astype(np.int64)
                .sort_values("id").reset_index(drop=True))

    want = groups.sort_values("id").reset_index(drop=True)
    # the distributed verify path (pairs hash-join shingle sets, verify
    # in map_batches; no driver collection) with the grouping ladder
    # left small must find identical groups
    pd.testing.assert_frame_equal(
        want, forced("large", "dedup.minhash_near_dup_groups"))
    # driver verify, grouping forced large: connected_components_auto
    # over the deduped member table instead of the in-memory kernel
    pd.testing.assert_frame_equal(want, forced("large", "dedup.pairs_to_groups"))
    # pairs_to_groups alone: a hot id in every pair (listed twice) and
    # no pairs at all
    hub = ray.data.from_pandas(pd.DataFrame({
        "id_a": np.r_[np.full(40, 5), [5]].astype(np.int64),
        "id_b": np.r_[np.arange(6, 46), [6]].astype(np.int64)}))
    for verified, n in ((hub, 41), (hub.limit(0), 0)):
        runs = []
        for rung in ("small", "large"):
            with forced_rung(rung, "dedup.pairs_to_groups"):
                runs.append(dedup.pairs_to_groups(verified).to_pandas())
        a, b = runs
        assert len(a) == len(b) == n
        if n:
            assert (a["group"] == 5).all() and (b["group"] == 5).all()
            assert sorted(a["id"]) == sorted(b["id"])


def test_jaccard_exact():
    a = dedup._shingle_hashes("abcdefgh", 3)
    assert dedup.jaccard(a, a) == 1.0
    b = dedup._shingle_hashes("zzzzzzzz", 3)
    assert dedup.jaccard(a, b) == 0.0


def test_simhash_near_dup(docs):
    full = docs.to_pandas().head(50)
    base = full.iloc[0]["text"]
    toks = base.split()
    toks[len(toks) // 2] = "perturbed"
    planted = pd.DataFrame(
        {"doc_id": [200001], "text": [" ".join(toks)], "lang": ["en"],
         "source": ["p"], "n_chars": [1]}
    )
    ds = ray.data.from_pandas(pd.concat([full, planted], ignore_index=True))
    pairs = dedup.simhash_near_dup_pairs(ds, max_hamming=8).to_pandas()
    hit = pairs[(pairs["id_a"] == 0) & (pairs["id_b"] == 200001)]
    assert len(hit) == 1
    assert hit.iloc[0]["hamming"] <= 8


def test_embedding_near_dup(embeds):
    full = embeds.to_pandas()
    v = np.asarray(full.iloc[0]["embedding"], dtype=np.float64)
    near = v + 0.001
    planted = pd.DataFrame({"vec_id": [900001], "embedding": [near.tolist()], "label": [0]})
    ds = ray.data.from_pandas(pd.concat([full, planted], ignore_index=True))
    pairs = dedup.embedding_near_dup_pairs(ds, threshold=0.999).to_pandas()
    hit = pairs[(pairs["id_a"] == full.iloc[0]["vec_id"]) & (pairs["id_b"] == 900001)]
    assert len(hit) == 1


def test_chunk_text_boundaries():
    from ophois_ray.textstats import chunk_text

    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.array([1, 2, 3], dtype=np.int64),
        "text": ["A" * 250, "", "xy"],
    }))
    out = (chunk_text(src, size=120, stride=100).to_pandas()
           .sort_values(["doc_id", "chunk_idx"], ignore_index=True))
    got = {(r.doc_id, r.chunk_idx): r.chunk for r in out.itertuples()}
    # 250 chars -> starts 0/100/200; chunk 0 and 1 overlap by 20 chars
    assert len(got[(1, 0)]) == 120 and len(got[(1, 1)]) == 120
    assert got[(1, 2)] == "A" * 50
    assert got[(2, 0)] == ""          # empty doc -> one empty chunk
    assert got[(3, 0)] == "xy"
    assert len(got) == 5


def test_repetition_features_exact():
    from ophois_ray.textstats import repetition_features

    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.array([1, 2, 3, 4], dtype=np.int64),
        "text": [
            "a b a b a",      # bigrams: ab ba ab ba (4 tot, 2 dist); trigrams: aba bab aba (3 tot, 2 dist)
            "x y z",          # 2 bigrams distinct, 1 trigram
            "solo",           # no n-grams
            "",               # empty doc
        ],
    }))
    out = (repetition_features(src).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["bg_total"].tolist() == [4, 2, 0, 0]
    assert out["bg_distinct"].tolist() == [2, 2, 0, 0]
    assert out["tg_total"].tolist() == [3, 1, 0, 0]
    assert out["tg_distinct"].tolist() == [2, 1, 0, 0]


def test_token_count_matches_duckdb(docs):
    import duckdb

    got = (
        textstats.token_count(docs)
        .select_columns(["doc_id", "n_tokens"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    exp = con.sql(
        f"""SELECT doc_id, len(list_filter(string_split_regex(text, '\\s+'),
            x -> x != '')) AS n_tokens
            FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"""
    ).df()
    assert (got["n_tokens"].to_numpy() == exp["n_tokens"].to_numpy()).all()


def test_quality_and_langid(docs):
    q = textstats.quality_score(docs).to_pandas()
    assert ((q["quality"] >= 0) & (q["quality"] <= 1)).all()
    lid = textstats.lang_id(docs).to_pandas()
    assert set(lid["lang_pred"]) <= set(textstats.STOPWORDS) | {"und"}
    en_text = ray.data.from_items(
        [{"doc_id": 1, "text": "the cat and the dog went to the house of it"}]
    )
    assert textstats.lang_id(en_text).to_pandas()["lang_pred"].iloc[0] == "en"


def test_fingerprint_deterministic_and_edit_robust(docs):
    fp = textstats.fingerprint(docs).to_pandas().sort_values("doc_id")
    fp2 = textstats.fingerprint(docs).to_pandas().sort_values("doc_id")
    assert (fp["doc_hash"].to_numpy() == fp2["doc_hash"].to_numpy()).all()
    # kgram_min is usually invariant to a suffix edit; doc_hash is not
    t = docs.to_pandas().iloc[0]["text"]
    one = ray.data.from_items([{"doc_id": 0, "text": t}, {"doc_id": 1, "text": t + " zz"}])
    f = textstats.fingerprint(one).to_pandas()
    assert f["doc_hash"].nunique() == 2


def test_brute_force_topk_exact(embeds):
    full = embeds.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    queries = mat[:3] + 0.01
    got = similarity.brute_force_topk(embeds, queries, k=5)
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    qunit = queries / np.linalg.norm(queries, axis=1)[:, None]
    sims = qunit @ unit.T
    for qi in range(3):
        order = np.lexsort((full["vec_id"].to_numpy(), -sims[qi]))[:5]
        exp_ids = full["vec_id"].to_numpy()[order]
        got_ids = got[got["query_id"] == qi].sort_values("rank")["vec_id"].to_numpy()
        assert (got_ids == exp_ids).all()


def test_lsh_topk_recall(embeds):
    full = embeds.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    queries = mat[:5]
    exact = similarity.brute_force_topk(embeds, queries, k=5)
    approx = similarity.lsh_topk(embeds, queries, k=5, n_planes=6, multiprobe=2)
    # self-match must always be found (query == a stored vector)
    for qi in range(5):
        ids = set(approx[approx["query_id"] == qi]["vec_id"])
        assert full["vec_id"].iloc[qi] in ids
    # loose recall bound vs exact
    inter = 0
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        inter += len(e & a)
    assert inter >= 13  # >= ~50% recall on 25 slots


def test_multimodal_plumbing():
    media = ray.data.from_pandas(multimodal.synthetic_media_table(32))
    decoded = multimodal.decode_images(media, mode="fake", concurrency=2)
    feats = multimodal.pooled_features(decoded).to_pandas()
    assert len(feats) == 32
    assert all(len(f) == 48 for f in feats["features"])  # 3*4*4
    # deterministic across runs
    feats2 = multimodal.pooled_features(
        multimodal.decode_images(ray.data.from_pandas(multimodal.synthetic_media_table(32)),
                                 mode="fake", concurrency=2)
    ).to_pandas()
    a = np.stack(feats.sort_values("media_id")["features"].to_list())
    b = np.stack(feats2.sort_values("media_id")["features"].to_list())
    assert np.array_equal(a, b)
    # real mode is an explicit stub
    with pytest.raises(Exception):
        multimodal.decode_images(media, mode="real").materialize()


def test_netpbm_decode_real_roundtrip():
    rng = np.random.RandomState(9)
    img = rng.randint(0, 256, size=(13, 17, 3), dtype=np.uint8)
    raw = multimodal.encode_ppm(img)
    dec = multimodal.decode_netpbm(raw)
    assert dec.shape == (13, 17, 3) and dec.dtype == np.float32
    assert np.array_equal((dec * 255).round().astype(np.uint8), img)
    # header comments + P5 grayscale expansion
    gray = b"P5\n# a comment\n3 2\n255\n" + bytes(range(6))
    g = multimodal.decode_netpbm(gray)
    assert g.shape == (2, 3, 3)
    assert np.array_equal(g[:, :, 0], g[:, :, 2])
    with pytest.raises(Exception):
        multimodal.decode_netpbm(b"JFIF....")


def test_bmp24_decode_real_roundtrip():
    rng = np.random.default_rng(13)
    # odd widths exercise the 4-byte row padding; (3,1) the degenerate row
    for h, w in ((5, 7), (16, 16), (3, 1)):
        img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        dec = multimodal.decode_bmp24(multimodal.encode_bmp24(img))
        assert dec.shape == (h, w, 3) and dec.dtype == np.float32
        assert np.array_equal((dec * 255).round().astype(np.uint8), img)
    with pytest.raises(Exception):
        multimodal.decode_bmp24(b"PNG....")


def test_gif_lzw_decode_real():
    """GIF = a genuinely COMPRESSED codec, pure Python/numpy: roundtrip
    across the 9->10->11-bit code-width boundaries, the table-full
    clear reset, the KwKwK self-reference case, interlace reordering,
    and a hand-built degenerate clear-heavy stream."""
    rng = np.random.default_rng(17)
    cases = (((8, 8), 4, False), ((64, 64), 256, False),
             ((61, 37), 200, True), ((5, 5), 2, True))
    for (h, w), ncol, inter in cases:
        idx = rng.integers(0, ncol, (h, w)).astype(np.uint8)
        pal = rng.integers(0, 256, (ncol, 3)).astype(np.uint8)
        rgb = pal[idx]
        dec = multimodal.decode_gif(multimodal.encode_gif(rgb, interlace=inter))
        assert np.array_equal((dec * 255).round().astype(np.uint8), rgb), (
            (h, w), ncol, inter)
    # constant image: maximal KwKwK + rapid dictionary growth
    img = np.full((300, 300, 3), 7, dtype=np.uint8)
    dec = multimodal.decode_gif(multimodal.encode_gif(img))
    assert np.array_equal((dec * 255).round().astype(np.uint8), img)
    # 256-color noise forces the table to 4096 and a mid-stream clear
    idx = rng.integers(0, 256, (256, 256)).astype(np.uint8)
    pal = np.arange(256, dtype=np.uint8).repeat(3).reshape(256, 3)
    rgb = pal[idx]
    dec = multimodal.decode_gif(multimodal.encode_gif(rgb))
    assert np.array_equal((dec * 255).round().astype(np.uint8), rgb)
    # degenerate spec stream: clear before every symbol (table never grows)
    seq = rng.integers(0, 16, 100).astype(np.uint8)
    clear, bits = 16, 5
    buf = cnt = 0
    out = bytearray()

    def emit(c):
        nonlocal buf, cnt
        buf |= c << cnt
        cnt += bits
        while cnt >= 8:
            out.append(buf & 255)
            buf >>= 8
            cnt -= 8

    for px in seq:
        emit(clear)
        emit(int(px))
    emit(17)  # end
    if cnt:
        out.append(buf & 255)
    got = multimodal._lzw_decode(bytes(out), 4, len(seq))
    assert np.array_equal(got, seq)
    with pytest.raises(Exception):
        multimodal.decode_gif(b"BM....")


def test_png_decode_real():
    """PNG via stdlib zlib + spec filters: every filter type
    roundtrips; gray / palette / RGBA color types decode (alpha
    dropped); non-PNG rejected."""
    import zlib

    rng = np.random.default_rng(29)
    for ft in range(5):
        img = rng.integers(0, 256, (7, 5, 3)).astype(np.uint8)
        dec = multimodal.decode_png(multimodal.encode_png(img, filter_type=ft))
        assert np.array_equal((dec * 255).round().astype(np.uint8), img), ft

    def chunk(t, b):
        return (len(b).to_bytes(4, "big") + t + b
                + zlib.crc32(t + b).to_bytes(4, "big"))

    sig = b"\x89PNG\r\n\x1a\n"
    h, w = 4, 6
    # palette (color type 3)
    pal = rng.integers(0, 256, (16, 3)).astype(np.uint8)
    idx = rng.integers(0, 16, (h, w)).astype(np.uint8)
    rows = b"".join(b"\0" + idx[y].tobytes() for y in range(h))
    ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
            + bytes([8, 3, 0, 0, 0]))
    raw = (sig + chunk(b"IHDR", ihdr) + chunk(b"PLTE", pal.tobytes())
           + chunk(b"IDAT", zlib.compress(rows)) + chunk(b"IEND", b""))
    assert np.array_equal(
        (multimodal.decode_png(raw) * 255).round().astype(np.uint8), pal[idx])
    # RGBA (color type 6): alpha dropped
    rgba = rng.integers(0, 256, (h, w, 4)).astype(np.uint8)
    rows = b"".join(b"\0" + rgba[y].tobytes() for y in range(h))
    ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
            + bytes([8, 6, 0, 0, 0]))
    raw = (sig + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", zlib.compress(rows)) + chunk(b"IEND", b""))
    assert np.array_equal(
        (multimodal.decode_png(raw) * 255).round().astype(np.uint8),
        rgba[:, :, :3])
    with pytest.raises(Exception):
        multimodal.decode_png(b"GIF89a....")


def test_decode_images_gif_pipeline():
    """Actor-pool decode over GIF payloads matches per-row direct decode."""
    rng = np.random.default_rng(19)
    rows = []
    for i in range(8):
        h, w = int(rng.integers(8, 24)), int(rng.integers(8, 24))
        pal = rng.integers(0, 256, (32, 3)).astype(np.uint8)
        rgb = pal[rng.integers(0, 32, (h, w))]
        rows.append({"media_id": i, "media": multimodal.encode_gif(rgb),
                     "media_type": "image/gif", "height": h, "width": w,
                     "__exp": rgb})
    ds = ray.data.from_pandas(pd.DataFrame(
        [{k: v for k, v in r.items() if k != "__exp"} for r in rows]))
    out = multimodal.decode_images(ds, mode="gif", concurrency=2).to_pandas()
    out = out.sort_values("media_id", ignore_index=True)
    for i, r in enumerate(rows):
        got = (np.asarray(out["pixels"][i]) * 255).round().astype(np.uint8)
        assert np.array_equal(got, r["__exp"]), i


def test_decode_images_ppm_pipeline():
    rng = np.random.RandomState(11)
    rows = []
    for i in range(12):
        h, w = int(rng.randint(8, 24)), int(rng.randint(8, 24))
        img = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
        rows.append({"media_id": i, "media": multimodal.encode_ppm(img),
                     "media_type": "image/x-portable-pixmap",
                     "height": h, "width": w})
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    feats = multimodal.pooled_features(
        multimodal.decode_images(ds, mode="ppm", concurrency=2)
    ).to_pandas().sort_values("media_id", ignore_index=True)
    # oracle: direct single-process decode + pool of row 0
    img0 = multimodal.decode_netpbm(rows[0]["media"])
    hs = np.linspace(0, img0.shape[0], 5, dtype=int)
    ws = np.linspace(0, img0.shape[1], 5, dtype=int)
    exp0 = np.array([
        img0[hs[i]:hs[i + 1], ws[j]:ws[j + 1]].mean(axis=(0, 1))
        for i in range(4) for j in range(4)
    ]).ravel()
    assert np.allclose(np.asarray(feats["features"][0]), exp0)


def test_wav_pcm16_decode_and_features():
    rate = 16000
    t = np.arange(800, dtype=np.float64)
    wave = (np.sin(2 * np.pi * 440.0 * t / rate) * 20000).astype("<i2")
    raw = multimodal.encode_wav_pcm16(wave.reshape(-1, 1), rate)
    s, r = multimodal.decode_wav_pcm16(raw)
    assert r == rate and s.shape == (800, 1)
    assert np.array_equal((s[:, 0] * 32768).astype(np.int16), wave)
    ds = ray.data.from_pandas(pd.DataFrame(
        {"clip_id": np.arange(4, dtype=np.int64),
         "media": [raw] * 4}))
    out = multimodal.audio_features(ds, concurrency=2).to_pandas()
    c0 = s[:, 0]
    exp_zc = int(((c0[1:] < 0) != (c0[:-1] < 0)).sum())
    assert out["n_samples"].tolist() == [800] * 4
    assert out["sample_rate"].tolist() == [rate] * 4
    assert out["n_zero_cross"].tolist() == [exp_zc] * 4
    assert np.allclose(out["rms"], float(np.sqrt(np.mean(c0 ** 2))))


def test_frame_sample():
    media = ray.data.from_pandas(multimodal.synthetic_media_table(8))
    sampled = multimodal.frame_sample(media, every_n=10).to_pandas()
    src = multimodal.synthetic_media_table(8)
    expected = sum((n + 9) // 10 for n in src["n_frames"])
    assert len(sampled) == expected
    assert (sampled["frame_idx"] % 10 == 0).all()


def test_ivf_centroids_deterministic_across_layouts(embeds):
    c1 = similarity.train_ivf_centroids(embeds, 8, iters=2)
    c2 = similarity.train_ivf_centroids(embeds.repartition(7), 8, iters=2)
    assert np.allclose(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0)


def test_ivf_topk_full_probe_matches_brute(embeds):
    full = embeds.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    queries = mat[:4] + 0.01
    cent = similarity.train_ivf_centroids(embeds, 8, iters=1)
    exact = similarity.brute_force_topk(embeds, queries, k=5)
    probed = similarity.ivf_topk(embeds, queries, cent, k=5, nprobe=8)
    # nprobe == n_centroids scores every candidate -> identical ranking
    assert probed["vec_id"].tolist() == exact["vec_id"].tolist()
    assert probed["rank"].tolist() == exact["rank"].tolist()


def test_ivf_topk_partial_probe_recall(embeds):
    full = embeds.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    queries = mat[:5]
    cent = similarity.train_ivf_centroids(embeds, 8, iters=2)
    exact = similarity.brute_force_topk(embeds, queries, k=5)
    approx = similarity.ivf_topk(embeds, queries, cent, k=5, nprobe=3)
    # self-match lives in the query's own nearest centroid -> found
    for qi in range(5):
        ids = set(approx[approx["query_id"] == qi]["vec_id"])
        assert full["vec_id"].iloc[qi] in ids
    inter = 0
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        inter += len(e & a)
    assert inter >= 13  # >= ~50% recall on 25 slots


# ------------------------------------------------------------- sketches


def test_hll_registers_layout_invariant_and_estimate():
    from ophois_ray import sketches

    ev = ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["event_type", "user_id"]
    ).materialize()
    r1 = sketches.hll_registers(ev, "user_id", group_cols=["event_type"]).to_pandas()
    r2 = sketches.hll_registers(
        ev.repartition(7), "user_id", group_cols=["event_type"]
    ).to_pandas()
    key = ["event_type", "reg"]
    assert r1.sort_values(key).reset_index(drop=True).equals(
        r2.sort_values(key).reset_index(drop=True)
    )

    full = ev.to_pandas()
    for etype, grp in r1.groupby("event_type"):
        est = sketches.hll_estimate(grp, b=8)
        exact = full[full["event_type"] == etype]["user_id"].nunique()
        # m=256 -> ~6.5% std error; allow 3 sigma
        assert abs(est - exact) / exact < 0.2, (etype, est, exact)


def test_hll_merge_is_register_max():
    from ophois_ray import sketches

    ev = ray.data.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    def keep(par):
        def fn(df):
            return df[df["user_id"] % 2 == par]
        return fn

    half_a = ev.map_batches(keep(0), batch_format="pandas").materialize()
    half_b = ev.map_batches(keep(1), batch_format="pandas").materialize()
    ra = sketches.hll_registers(half_a, "user_id").to_pandas()
    rb = sketches.hll_registers(half_b, "user_id").to_pandas()
    rall = sketches.hll_registers(ev, "user_id").to_pandas()
    merged = (
        pd.concat([ra, rb]).groupby("reg", as_index=False)["rho"].max()
    )
    assert merged.sort_values("reg").reset_index(drop=True).equals(
        rall.sort_values("reg").reset_index(drop=True)
    )


# --------------------------------------------------------------- tf-idf


def test_tfidf_topk_small_exact():
    src = ray.data.from_pandas(pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["apple banana apple", "banana cherry", "apple cherry cherry"],
        }
    ))
    out = textstats.tfidf_topk(src, 3, k=2, scale=1 << 20).to_pandas()
    out = out.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    s = 1 << 20
    # df: apple 2, banana 2, cherry 2; idf = (3 * s) // 2 for all
    idf = (3 * s) // 2
    exp = pd.DataFrame(
        {
            "doc_id": [1, 1, 2, 2, 3, 3],
            "token": ["apple", "banana", "banana", "cherry", "cherry", "apple"],
            "score": [2 * idf, idf, idf, idf, 2 * idf, idf],
            "rank": [0, 1, 0, 1, 0, 1],
        }
    )
    pd.testing.assert_frame_equal(
        out[["doc_id", "token", "score", "rank"]].astype(exp.dtypes.to_dict()), exp
    )


# ------------------------------------------------------------ triangles


def _edges_ds(pairs):
    import pyarrow as pa

    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    if not len(u):  # via Arrow: a 0-row from_pandas Dataset drops its columns
        return ray.data.from_arrow(pa.table({"u": pa.array(u), "v": pa.array(v)}))
    return ray.data.from_pandas(pd.DataFrame({"u": u, "v": v}))


def test_triangle_count_known_graphs():
    from ophois_ray.graphops import triangle_count

    k4 = _edges_ds([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert triangle_count(k4) == 4
    path = _edges_ds([(1, 2), (2, 3), (3, 4)])
    assert triangle_count(path) == 0
    # two triangles sharing an edge
    bowtieish = _edges_ds([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert triangle_count(bowtieish) == 2


def test_triangle_count_join_path_matches_broadcast():
    from ophois_ray.graphops import triangle_count

    rng = np.random.default_rng(7)
    n = 40
    pairs = sorted(
        {tuple(sorted(p)) for p in rng.integers(0, n, size=(300, 2)) if p[0] != p[1]}
    )
    ds = _edges_ds(pairs)
    via_bcast = triangle_count(ds)
    with forced_rung("large"):
        via_join = triangle_count(_edges_ds(pairs))
    assert via_bcast == via_join > 0
    # hot hub: all 29 triangles share node 0; no edges: no triangles
    assert _both_rungs(lambda: triangle_count(_edges_ds(_WHEEL), num_buckets=4)) == [29, 29]
    assert _both_rungs(lambda: triangle_count(_edges_ds([]))) == [0, 0]


def _tri_table(res) -> pd.DataFrame:
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    if df.empty:  # Ray to_pandas drops columns on 0-row datasets
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "tri": pd.Series(dtype=np.int64)})
    return df.sort_values("node", ignore_index=True)


def test_triangles_per_node_known_graphs():
    from ophois_ray.graphops import triangles_per_node

    k4 = _edges_ds([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    out = _tri_table(triangles_per_node(k4))
    # K4: every node sits in C(3,2) = 3 of the 4 triangles
    assert out["node"].tolist() == [1, 2, 3, 4]
    assert out["tri"].tolist() == [3, 3, 3, 3]

    bowtieish = _edges_ds([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    out = _tri_table(triangles_per_node(bowtieish))
    # triangles {1,2,3} and {2,3,4}: shared edge endpoints get 2
    assert out["node"].tolist() == [1, 2, 3, 4]
    assert out["tri"].tolist() == [1, 2, 2, 1]

    path = _edges_ds([(1, 2), (2, 3), (3, 4)])
    assert len(_tri_table(triangles_per_node(path))) == 0


def test_triangles_per_node_join_matches_broadcast():
    from ophois_ray.graphops import triangle_count, triangles_per_node

    rng = np.random.default_rng(11)
    n = 40
    pairs = sorted(
        {tuple(sorted(p)) for p in rng.integers(0, n, size=(300, 2)) if p[0] != p[1]}
    )
    via_bcast = _tri_table(triangles_per_node(_edges_ds(pairs)))
    with forced_rung("large"):
        via_join = _tri_table(triangles_per_node(_edges_ds(pairs)))
    pd.testing.assert_frame_equal(
        via_bcast.astype(np.int64), via_join.astype(np.int64)
    )
    w_small, w_large = _both_rungs(
        lambda: _tri_table(triangles_per_node(_edges_ds(_WHEEL), num_buckets=4)))
    pd.testing.assert_frame_equal(w_small.astype(np.int64), w_large.astype(np.int64))
    assert int(w_small.set_index("node").loc[0, "tri"]) == 29
    assert [len(t.to_pandas()) for t in
            _both_rungs(lambda: triangles_per_node(_edges_ds([])))] == [0, 0]
    # every triangle credits exactly 3 corners
    assert int(via_bcast["tri"].sum()) == 3 * triangle_count(_edges_ds(pairs))


def test_kcore_peel_known_graphs():
    from ophois_ray.graphops import kcore_peel

    # path 1-2-3-4-5, k=2: endpoints peel off layer by layer
    path = _edges_ds([(1, 2), (2, 3), (3, 4), (4, 5)])
    stats, edges = kcore_peel(path, k=2, rounds=3)
    assert stats["n_nodes"].tolist() == [3, 1, 0]
    assert stats["n_edges"].tolist() == [2, 0, 0]
    assert edges.count() == 0

    # K4 is a 3-core: stable under k=3 peeling
    k4 = _edges_ds([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    stats, edges = kcore_peel(k4, k=3, rounds=3)
    assert stats["n_nodes"].tolist() == [4, 4, 4]
    assert stats["n_edges"].tolist() == [6, 6, 6]
    assert edges.count() == 6


def test_kcore_peel_join_path_matches_broadcast():
    from ophois_ray.graphops import kcore_peel

    rng = np.random.default_rng(23)
    n = 60
    pairs = sorted(
        {tuple(sorted(p)) for p in rng.integers(0, n, size=(400, 2)) if p[0] != p[1]}
    )
    s_b, e_b = kcore_peel(_edges_ds(pairs), k=12, rounds=3)
    with forced_rung("large"):
        s_j, e_j = kcore_peel(_edges_ds(pairs), k=12, rounds=3)
    pd.testing.assert_frame_equal(s_b, s_j)
    # hot hub (the rim survives k=3 only through the hub) and no edges
    for extra in (_WHEEL, []):
        (s0, e0), (s1, e1) = _both_rungs(
            lambda: kcore_peel(_edges_ds(extra), k=3, rounds=2, num_buckets=4))
        pd.testing.assert_frame_equal(s0, s1)
        assert e0.count() == e1.count()
    # peel must actually cascade in this fixture (non-vacuous)
    assert s_b["n_edges"].nunique() > 1
    eb = e_b.to_pandas()
    ej = e_j.to_pandas()
    key = lambda df: sorted(map(tuple, df[["u", "v"]].to_numpy())) if len(df) else []
    assert key(eb) == key(ej)


def _walk_oracle(pairs, length):
    """Independent single-process recompute of the deterministic walks."""
    from ophois_ray.graphops import _WALK_A, _WALK_C, _WALK_M

    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    adj = {n: sorted(s) for n, s in adj.items()}
    rows = []
    for s in sorted(adj):
        cur, row = s, [s]
        for t in range(1, length + 1):
            nb = adj[cur]
            cur = nb[((cur * _WALK_A + t * _WALK_C) % _WALK_M) % len(nb)]
            row.append(cur)
        rows.append(row)
    return rows


def test_random_walks_match_oracle_and_paths():
    from ophois_ray.graphops import random_walks

    rng = np.random.default_rng(31)
    n = 30
    pairs = sorted(
        {tuple(sorted(p)) for p in rng.integers(0, n, size=(120, 2)) if p[0] != p[1]}
    )
    for extra in (pairs, _WHEEL):
        exp = _walk_oracle(extra, 3)
        for got in _both_rungs(
                lambda: random_walks(_edges_ds(extra), length=3, num_buckets=4)):
            got = got.to_pandas().sort_values("start").reset_index(drop=True)
            assert got.columns.tolist() == ["start", "c1", "c2", "c3"]
            assert got.astype(np.int64).values.tolist() == exp
    assert [len(w.to_pandas()) for w in
            _both_rungs(lambda: random_walks(_edges_ds([]), length=3))] == [0, 0]


def test_box_smooth_raster_hand_case():
    from ophois_ray.polygons import box_smooth_raster

    def c(ix, iy):
        return np.int64((ix << 29) | iy)

    counts = ray.data.from_pandas(pd.DataFrame({
        "cell": np.array([c(5, 5), c(5, 6), c(0, 9)], dtype=np.int64),
        "n": np.array([3, 1, 2], dtype=np.int64),
    }))
    out = box_smooth_raster(counts).to_pandas()
    d = dict(zip(out["cell"].astype(np.int64), out["density"].astype(np.int64)))
    assert d[c(5, 5)] == 4 and d[c(5, 6)] == 4      # overlap of the pair
    assert d[c(5, 4)] == 3 and d[c(5, 7)] == 1      # one-sided fringes
    assert d[c(4, 5)] == 4 and d[c(6, 6)] == 4
    # boundary cell at ix=0: the dx=-1 neighbours are dropped, so the
    # point's mass lands on exactly 6 cells (2 each)
    assert d[c(0, 9)] == 2 and d[c(1, 8)] == 2
    assert sum(v for k, v in d.items() if k in (c(0, 8), c(0, 9), c(0, 10),
                                                c(1, 8), c(1, 9), c(1, 10))) == 12


def test_box_smooth_raster_wraps_longitude_with_res():
    from ophois_ray.polygons import box_smooth_raster

    res = 4  # 16 x 16 grid

    def c(ix, iy):
        return np.int64((ix << 29) | iy)

    counts = ray.data.from_pandas(pd.DataFrame({
        "cell": np.array([c(15, 5)], dtype=np.int64),  # east edge
        "n": np.array([7], dtype=np.int64),
    }))
    out = box_smooth_raster(counts, res=res).to_pandas()
    d = dict(zip(out["cell"].astype(np.int64), out["density"].astype(np.int64)))
    # x wraps to 0 across the antimeridian; no phantom ix=16 cells
    assert d[c(0, 5)] == 7 and d[c(0, 4)] == 7 and d[c(15, 6)] == 7
    assert len(d) == 9 and all((k >> 29) in (0, 14, 15) for k in d)


def test_lm_surprisal_hand_case():
    from ophois_ray.textstats import lm_surprisal

    train = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.array([1], dtype=np.int64), "text": ["a a b"]}))
    test = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.array([2, 3], dtype=np.int64),
         "text": ["a b z", ""]}))  # z is OOV; empty doc dropped
    out = lm_surprisal(train, test, scale=8).to_pandas()
    # T=3, c(a)=2, c(b)=1: a -> 24//3=8, b -> 24//2=12, z -> 24//1=24
    assert out["doc_id"].tolist() == [2]
    assert out["n_tokens"].tolist() == [3]
    assert out["lm_score"].tolist() == [8 + 12 + 24]


def test_polygon_area_centroid_hand_case():
    from ophois_ray.polygons import polygon_area_centroid

    # square (0,0)-(4,4) and triangle (0,0),(0,3),(3,0), scale=1
    verts = ray.data.from_pandas(pd.DataFrame({
        "pid": np.array([0, 0, 0, 0, 7, 7, 7], dtype=np.int64),
        "seq": np.array([0, 1, 2, 3, 0, 1, 2], dtype=np.int64),
        "lat": [0.0, 0.0, 4.0, 4.0, 0.0, 0.0, 3.0],
        "lon": [0.0, 4.0, 4.0, 0.0, 0.0, 3.0, 0.0],
    }))
    out = (polygon_area_centroid(verts, scale=1).to_pandas()
           .sort_values("pid", ignore_index=True).astype(np.int64))
    sq, tr = out.iloc[0], out.iloc[1]
    assert (sq.n_vertices, sq.area2, sq.cx_num, sq.cy_num) == (4, 32, 192, 192)
    # centroid = num / (3 * area2) -> (2, 2) for the square
    assert (sq.cx_num / (3 * sq.area2), sq.cy_num / (3 * sq.area2)) == (2, 2)
    assert (tr.n_vertices, tr.area2, tr.cx_num, tr.cy_num) == (3, 9, 27, 27)


def test_pack_sequences_hand_case():
    from ophois_ray.sampling import pack_sequences

    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.array([1, 2, 3, 4, 5], dtype=np.int64),
        "n": np.array([3, 4, 2, 5, 0], dtype=np.int64),  # zero-cost skipped
    }))
    # small range_width forces MULTIPLE ranges through the scan
    out = (pack_sequences(src, cost_col="n", id_col="doc_id",
                          capacity=5, range_width=2)
           .to_pandas().sort_values(["doc_id", "bin"], ignore_index=True))
    exp = pd.DataFrame({
        "doc_id": [1, 2, 2, 3, 4, 4],
        "bin": [0, 0, 1, 1, 1, 2],
        "seg_start": [0, 0, 2, 0, 0, 1],
        "seg_len": [3, 2, 2, 2, 1, 4],
    })
    pd.testing.assert_frame_equal(out.astype(np.int64), exp.astype(np.int64))
    # every bin except the last is exactly full
    per_bin = out.groupby("bin")["seg_len"].sum()
    assert per_bin.iloc[:-1].eq(5).all() and per_bin.sum() == 14


def test_contamination_counts_planted():
    from ophois_ray.dedup import contamination_counts
    from ophois_ray.sampling import split_hash

    ids = np.arange(200, dtype=np.int64)
    b = split_hash(ids) % 100
    train_id = int(ids[b < 80][0])
    test_a, test_b = (int(x) for x in ids[b >= 90][:2])
    leak = "w1 w2 w3 w4 w5"  # the shared 5-gram
    texts = {i: f"filler{i} " + " ".join(f"u{i}x{j}" for j in range(8))
             for i in ids}
    texts[train_id] = "pre " + leak + " post"
    texts[test_a] = "aaa " + leak + " bbb"          # contaminated
    texts[test_b] = "w1 w2 w3 w4 nope w5"           # 5-gram broken: clean
    df = pd.DataFrame({
        "doc_id": ids,
        "lang": ["en" if i % 2 == 0 else "fr" for i in ids],
        "text": [texts[i] for i in ids],
    })
    out = contamination_counts(
        ray.data.from_pandas(df), n=5, group_col="lang")
    got = {r.group: (r.n_test, r.n_contaminated) for r in out.itertuples()}
    n_test = {g: int(((b >= 90) & ((ids % 2 == 0) == (g == "en"))).sum())
              for g in ("en", "fr")}
    lang_a = "en" if test_a % 2 == 0 else "fr"
    exp = {g: (n_test[g], int(g == lang_a)) for g in ("en", "fr")}
    assert got == exp


def test_events_funnel_pairs_semantics(tmp_path):
    from ophois_ray.queries import q_events_funnel_pairs

    ts = pd.to_datetime([
        "2026-01-01 10:00:00", "2026-01-01 11:00:00",  # u1: signup then purchase
        "2026-01-02 09:00:00", "2026-01-02 10:00:00",  # u2: purchase BEFORE signup
        "2026-01-03 10:00:00", "2026-01-03 10:00:00",  # u3: simultaneous (strict < excludes)
    ]).astype("datetime64[us]")
    df = pd.DataFrame({
        "event_id": np.arange(6, dtype=np.int64),
        "ts": ts,
        "user_id": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64),
        "event_type": ["signup", "purchase", "purchase", "signup",
                       "signup", "purchase"],
        "value": np.zeros(6),
        "props": ["{}"] * 6,
    })
    df.to_parquet(tmp_path / "events.parquet")
    out = q_events_funnel_pairs(str(tmp_path))
    got = {(r.first_type, r.then_type): r.n_users for r in out.itertuples()}
    # u1 converts signup->purchase; u2 converts purchase->signup; u3 neither
    assert got == {("signup", "purchase"): 1, ("purchase", "signup"): 1}


# --------------------------------------------------------- collocations


def test_collocations_small_exact():
    # "new york" always adjacent; unigrams otherwise spread out
    texts = ["new york is big", "in new york tonight", "new york new york",
             "the big apple is big", "york new"] * 3
    src = ray.data.from_pandas(pd.DataFrame({"text": texts}))
    out = textstats.collocations(
        src, k=5, min_count=3, scale=1 << 20, num_buckets=4
    ).to_pandas()
    assert list(out.columns) == ["pair", "n", "score"]
    # recompute the whole ranking in pure Python
    toks = [t.split() for t in texts]
    T = sum(len(t) for t in toks)
    flat = [w for t in toks for w in t]
    from collections import Counter

    uni = Counter(flat)
    bg = Counter((a, b) for t in toks for a, b in zip(t, t[1:]))
    exp = sorted(
        (
            (f"{a} {b}", n, (n * T * (1 << 20)) // (uni[a] * uni[b]))
            for (a, b), n in bg.items() if n >= 3
        ),
        key=lambda r: (-r[2], r[0]),
    )[:5]
    assert list(map(tuple, out.itertuples(index=False))) == exp


def test_labelprop_int64_ids():
    # regression: int64 ids hashed as object vs native disagreed, so
    # every message join was silently empty and each node kept its own
    # label; components must actually propagate for native int ids
    from ophois_ray.components import connected_components_labelprop

    nodes = ray.data.from_pandas(
        pd.DataFrame({"id": np.arange(8, dtype=np.int64)})
    )
    edges = ray.data.from_pandas(pd.DataFrame(
        {"u": np.array([0, 1, 2, 5], dtype=np.int64),
         "v": np.array([1, 2, 3, 6], dtype=np.int64)}
    ))
    comp = connected_components_labelprop(nodes, edges, num_buckets=4).to_pandas()
    comp = comp.sort_values("id").reset_index(drop=True)
    assert comp["comp"].tolist() == [0, 0, 0, 0, 4, 5, 5, 7]


# ------------------------------------------------------ count-min sketch


def test_cms_hash_matches_scalar_kernel():
    from ophois_ray import sketches

    toks = ["hello", "a", "zz", "München", "tok" * 40]
    h = sketches.hash_strings(toks, 257)
    for t, hv in zip(toks, h):
        assert int(hv) == textstats._poly_hash_codepoints([ord(c) for c in t])


def test_cms_never_undercounts_and_merges(docs):
    from ophois_ray import sketches

    def toks(df):
        s = df["text"].str.split().explode().dropna()
        return pd.DataFrame({"t": s.to_numpy(object)})

    tok_ds = docs.map_batches(toks, batch_format="pandas").materialize()
    sk = sketches.cms_sketch(tok_ds, "t", w=256, d=4).to_pandas()

    full = tok_ds.to_pandas()["t"]
    true = full.value_counts()
    est = sketches.cms_estimate(sk, list(true.index), w=256, d=4)
    assert (est >= true.to_numpy()).all()
    # heavy hitters are estimated tightly (collision noise <= N/w per row)
    n_total = len(full)
    heavy = true.head(10)
    est_heavy = sketches.cms_estimate(sk, list(heavy.index), w=256, d=4)
    assert (est_heavy - heavy.to_numpy() <= n_total // 256 * 2).all()

    # shard merge: sketches of two halves SUM to the whole
    half = tok_ds.to_pandas()
    a = ray.data.from_pandas(half.iloc[: len(half) // 2])
    b = ray.data.from_pandas(half.iloc[len(half) // 2:])
    ska = sketches.cms_sketch(a, "t", w=256, d=4).to_pandas()
    skb = sketches.cms_sketch(b, "t", w=256, d=4).to_pandas()
    merged = (
        pd.concat([ska, skb]).groupby(["row", "col"], as_index=False)["n"].sum()
    )
    key = ["row", "col"]
    assert merged.sort_values(key).reset_index(drop=True).equals(
        sk.sort_values(key).reset_index(drop=True)
    )


def test_bloom_no_false_negatives_and_union_merge(docs):
    from ophois_ray import sketches

    def toks(df):
        s = df["text"].str.split().explode().dropna().drop_duplicates()
        return pd.DataFrame({"t": s.to_numpy(object)})

    tok_ds = docs.map_batches(toks, batch_format="pandas").materialize()
    vocab = tok_ds.to_pandas()["t"].drop_duplicates()
    bits = sketches.bloom_bits(tok_ds, "t", m=4096, k=3).to_pandas()

    # every inserted value must test positive
    assert sketches.bloom_contains(bits, list(vocab), m=4096, k=3).all()
    # absent values mostly test negative (fp rate bounded well under 50%)
    absent = [f"__nonexistent_token_{i}__" for i in range(200)]
    fp = sketches.bloom_contains(bits, absent, m=4096, k=3).mean()
    assert fp < 0.2, fp

    # union merge: bits of two halves union to the whole
    half = tok_ds.to_pandas()
    a = ray.data.from_pandas(half.iloc[: len(half) // 2])
    b = ray.data.from_pandas(half.iloc[len(half) // 2:])
    ba = sketches.bloom_bits(a, "t", m=4096, k=3).to_pandas()
    bb = sketches.bloom_bits(b, "t", m=4096, k=3).to_pandas()
    merged = np.unique(np.concatenate(
        [ba["bit"].to_numpy(np.int64), bb["bit"].to_numpy(np.int64)]
    ))
    assert np.array_equal(merged, np.sort(bits["bit"].to_numpy(np.int64)))


def test_bm25_matches_scalar_reference():
    """bm25_topk must equal a direct scalar evaluation of the cleared
    integer formula on a hand-built corpus (layout-independent: same
    answer repartitioned)."""
    from ophois_ray.textstats import bm25_topk

    texts = [
        "hash join hash probe build",        # tf(hash)=2, tf(join)=1
        "merge sort merge merge run",        # tf(merge)=3
        "scan filter project",               # no match
        "join join join small",              # tf(join)=3
        "",                                  # empty doc (counts in N)
    ]
    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                       "text": texts})
    terms = ["hash", "join", "merge"]
    scale = 1 << 20
    n = 5
    lens = [len(t.split()) for t in texts]
    total = sum(lens)
    avg = total // n
    dfs = {t: sum(1 for x in texts if t in x.split()) for t in terms}

    def scalar(i):
        s = 0
        for t in terms:
            tf = texts[i].split().count(t)
            if tf == 0:
                continue
            num = scale * (2 * n - 2 * dfs[t] + 1) * 22 * tf * avg
            den = (2 * dfs[t] + 1) * (10 * tf * avg + 3 * avg + 9 * lens[i])
            s += num // den
        return s

    exp = sorted(((scalar(i), i) for i in range(5) if scalar(i) > 0),
                 key=lambda p: (-p[0], p[1]))
    for nparts in (1, 3):
        got = bm25_topk(
            ray.data.from_pandas(df).repartition(nparts),
            terms, topk=10,
        )
        assert list(zip(got["score"], got["doc_id"])) == exp, nparts


def test_kll_exact_below_capacity():
    """With k > n no compaction ever fires: the sketch holds every value
    at level 0 and quantile readout IS the exact lower quantile."""
    from ophois_ray import sketches

    rng = np.random.default_rng(53)
    v = rng.integers(0, 10_000, 500).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"x": v})).repartition(4)
    sk = sketches.kll_sketch(ds, "x", k=1000).to_pandas()
    assert (sk["level"] == 0).all() and len(sk) == len(v)
    got = sketches.kll_quantiles(sk, range(1, 10))
    exact = np.sort(v)
    for qn, val in zip(got["q_num"], got["value"]):
        rank = -(-qn * len(v) // 10)  # ceil
        assert val == exact[rank - 1], qn


def test_kll_grouped_exact_below_capacity():
    """Per-group sketches with k > group size are exact: decile readout
    per group equals per-group numpy lower quantiles, regardless of
    how batches split the groups."""
    from ophois_ray import sketches

    rng = np.random.default_rng(61)
    n = 1200
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n),
        "x": rng.integers(0, 100_000, n).astype(np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(6)
    sk = sketches.kll_sketch_grouped(ds, "x", group_cols=["g"],
                                     k=10_000).to_pandas()
    for g, rows in sk.groupby("g"):
        vals = np.sort(df.loc[df["g"] == g, "x"].to_numpy())
        got = sketches.kll_quantiles(rows, range(1, 10))
        for qn, v in zip(got["q_num"], got["value"]):
            rank = -(-qn * len(vals) // 10)
            assert v == vals[rank - 1], (g, qn)
    # layout independence under compaction: partials key on value-hash
    # sub-buckets, never on block boundaries — a different partition
    # count must yield the bit-identical sketch
    a = sketches.kll_sketch_grouped(
        ray.data.from_pandas(df).repartition(2), "x", group_cols=["g"],
        k=40).to_pandas()
    b = sketches.kll_sketch_grouped(
        ray.data.from_pandas(df).repartition(11), "x", group_cols=["g"],
        k=40).to_pandas()
    key = ["g", "level", "value"]
    pd.testing.assert_frame_equal(
        a.sort_values(key, ignore_index=True)[key],
        b.sort_values(key, ignore_index=True)[key],
    )


def test_kll_rank_error_bound_and_merge():
    """Forced compaction (k=200, n=100k): every decile's rank error
    must stay under 2%; merging shard sketches must agree with the
    one-shot sketch within the same bound; rerun is bit-identical."""
    from ophois_ray import sketches

    rng = np.random.default_rng(59)
    v = rng.integers(0, 1_000_000, 100_000).astype(np.int64)
    exact = np.sort(v)

    def rank_err(q_df):
        worst = 0.0
        for qn, val in zip(q_df["q_num"], q_df["value"]):
            r = np.searchsorted(exact, val)
            worst = max(worst, abs(r - qn * len(v) / 10) / len(v))
        return worst

    ds = ray.data.from_pandas(pd.DataFrame({"x": v})).repartition(8)
    sk = sketches.kll_sketch(ds, "x", k=200).to_pandas()
    assert len(sk) < 2500  # sketch is tiny vs the input
    assert rank_err(sketches.kll_quantiles(sk, range(1, 10))) < 0.02

    # merge associativity: sketch the halves, combine rows, re-compact
    a = ray.data.from_pandas(pd.DataFrame({"x": v[:50_000]}))
    b = ray.data.from_pandas(pd.DataFrame({"x": v[50_000:]}))
    ska = sketches.kll_sketch(a, "x", k=200).to_pandas()
    skb = sketches.kll_sketch(b, "x", k=200).to_pandas()
    both = pd.concat([ska, skb], ignore_index=True)
    levels = sketches._kll_from_rows(
        both["level"].to_numpy(np.int64), both["value"].to_numpy(np.int64))
    merged = sketches._kll_rows(sketches._kll_compact(levels, 200))
    assert rank_err(sketches.kll_quantiles(merged, range(1, 10))) < 0.02

    # determinism: identical layout -> identical sketch
    sk2 = sketches.kll_sketch(ds, "x", k=200).to_pandas()
    pd.testing.assert_frame_equal(
        sk.sort_values(["level", "value"], ignore_index=True),
        sk2.sort_values(["level", "value"], ignore_index=True),
    )


def test_collocations_join_fallback_matches_broadcast():
    texts = ["new york is big", "in new york tonight", "new york new york",
             "the big apple is big", "york new"] * 3
    # plus a hot pair: one text repeats a single bigram 40 times
    for extra in (texts, texts + ["york new " * 40]):
        src = ray.data.from_pandas(pd.DataFrame({"text": extra}))
        a, b = (c.to_pandas() for c in _both_rungs(
            lambda: textstats.collocations(src, k=5, min_count=3, num_buckets=4)))
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0


def test_pagerank_int_properties():
    from ophois_ray.graphops import pagerank_int

    # star graph: center 0 linked to 1..5 — center must rank highest
    star = _edges_ds([(0, i) for i in range(1, 6)])
    pr = pagerank_int(star, iters=3)
    top = pr.sort_values(["r", "node"], ascending=[False, True]).iloc[0]
    assert top["node"] == 0
    # leaves are symmetric -> identical integer ranks
    leaves = pr[pr["node"] != 0]["r"].unique()
    assert len(leaves) == 1
    # layout invariance: same graph, different block layout, same bits
    pr2 = pagerank_int(_edges_ds([(0, i) for i in range(1, 6)]).repartition(4),
                       iters=3)
    m = pr.sort_values("node").reset_index(drop=True)
    m2 = pr2.sort_values("node").reset_index(drop=True)
    assert m.equals(m2)
    # mass approximately conserved (floor losses only shrink it)
    S = 1 << 40
    assert 0.9 * S < pr["r"].sum() <= S


# --------------------------------------------------- edit-distance linkage


def test_levenshtein_batch_matches_reference():
    cases = [("kitten", "sitting", 3), ("", "abc", 3), ("abc", "", 3),
             ("abc", "abc", 0), ("sunday", "saturday", 3), ("aa", "bb", 2),
             ("flaw", "lawn", 2), ("München", "Munchen", 2)]  # byte-based: ü != u is 2
    got = dedup.levenshtein_batch([a for a, _, _ in cases],
                                  [b for _, b, _ in cases])
    assert got.tolist() == [d for _, _, d in cases]
    import duckdb

    for a, b, d in cases:
        assert duckdb.sql(f"SELECT levenshtein('{a}', '{b}')").fetchone()[0] == d


def test_fuzzy_pairs_matches_bruteforce():
    names = ["red widget", "red widgets", "red wadget", "blue bolt",
             "blue bolt", "blue jolt", "green gear", "red widget"]
    src = ray.data.from_pandas(pd.DataFrame(
        {"id": np.arange(len(names), dtype=np.int64), "name": names}
    ))
    got = (
        dedup.fuzzy_pairs(src, "id", "name", max_dist=2, num_buckets=4)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    exp_rows = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            d = int(dedup.levenshtein_batch([names[i]], [names[j]])[0])
            if d <= 2:
                exp_rows.append((i, j, d))
    exp = pd.DataFrame(exp_rows, columns=["id_a", "id_b", "dist"]).astype(np.int64)
    pd.testing.assert_frame_equal(got.astype(np.int64), exp)


def test_token_count_bpe_matches_duckdb(docs):
    import duckdb

    got = (
        textstats.token_count_bpe(docs)
        .select_columns(["doc_id", "n_tokens_bpe"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    exp = con.sql(
        f"""SELECT doc_id, len(regexp_extract_all(text,
            $${textstats.BPE_SPLIT_PATTERN}$$)) AS n
            FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"""
    ).df()
    assert (got["n_tokens_bpe"].to_numpy() == exp["n"].to_numpy()).all()
    # the Arrow RE2 kernel (default) and the compiled-re findall loop
    # must count identically (RE2 and sre both match leftmost-first on
    # the restricted pattern)
    py = (
        textstats.token_count_bpe(docs, kernel="python")
        .select_columns(["doc_id", "n_tokens_bpe"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["n_tokens_bpe"].equals(py["n_tokens_bpe"])
    # BPE pretokens are at least as many as whitespace tokens
    ws = textstats.token_count(docs).select_columns(["doc_id", "n_tokens"]).to_pandas()
    ws = ws.sort_values("doc_id").reset_index(drop=True)
    assert (got["n_tokens_bpe"].to_numpy() >= ws["n_tokens"].to_numpy()).all()


def test_ngram_jaccard_join_path_matches_broadcast(docs):
    full = docs.to_pandas().head(30)
    ds = ray.data.from_pandas(full)
    cand = ray.data.from_pandas(pd.DataFrame(
        {"id_a": full["doc_id"].to_numpy()[:10],
         "id_b": full["doc_id"].to_numpy()[10:20]}
    ))
    ids = full["doc_id"].to_numpy()
    # plus a hot id (one doc against 20 others, one pair listed twice)
    hot = ray.data.from_pandas(pd.DataFrame(
        {"id_a": np.full(21, ids[0]), "id_b": np.r_[ids[1:21], ids[1]]}))
    key = ["id_a", "id_b"]
    for pairs in (cand, hot):
        a, b = (x.to_pandas() for x in _both_rungs(
            lambda: dedup.ngram_jaccard_pairs(ds, pairs, k=5, prefix=200)))
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True),
        )


def test_pairs_within_runs_band():
    from ophois_ray.graphops import pairs_within_runs

    # one run, band values [1, 2, 5, 6]: band=1 pairs only adjacents
    g = np.zeros(4, dtype=np.int64)
    v = np.arange(4, dtype=np.int64)
    bv = np.array([1, 2, 5, 6], dtype=np.int64)
    p = pairs_within_runs(g, v, band_vals=bv, band=1)
    assert sorted(zip(p["u"], p["v"])) == [(0, 1), (2, 3)]
    # without band: all 6 pairs
    p2 = pairs_within_runs(g, v)
    assert len(p2["u"]) == 6
    # band across two runs never pairs cross-run rows
    g2 = np.array([0, 0, 1, 1], dtype=np.int64)
    p3 = pairs_within_runs(g2, v, band_vals=np.array([0, 0, 0, 0]), band=5)
    assert sorted(zip(p3["u"], p3["v"])) == [(0, 1), (2, 3)]


# ------------------------------------------------- randomized properties


def test_levenshtein_batch_random_vs_scalar_dp():
    rng = np.random.default_rng(11)

    def ref(a, b):
        a, b = a.encode(), b.encode()
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[len(b)]

    alpha = list("abÇ €")
    pairs = []
    for _ in range(60):
        la, lb = rng.integers(0, 12, 2)
        pairs.append(("".join(rng.choice(alpha, la)),
                      "".join(rng.choice(alpha, lb))))
    got = dedup.levenshtein_batch([a for a, _ in pairs], [b for _, b in pairs])
    exp = [ref(a, b) for a, b in pairs]
    assert got.tolist() == exp


def test_hash_strings_random_vs_scalar():
    from ophois_ray import sketches

    rng = np.random.default_rng(13)
    alpha = list("xyZ9 Ω")
    toks = ["".join(rng.choice(alpha, rng.integers(0, 20))) for _ in range(80)]
    for base in sketches.CMS_BASES:
        got = sketches.hash_strings(toks, base)
        for t, hv in zip(toks, got):
            acc = 0
            for ch in t:
                acc = (acc * base + ord(ch) + 1) % ((1 << 61) - 1)
            assert int(hv) == acc


def test_pairs_within_runs_random_vs_bruteforce():
    from ophois_ray.graphops import pairs_within_runs

    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(0, 40))
        g = np.sort(rng.integers(0, 5, n))
        v = np.arange(n, dtype=np.int64)
        bv = np.sort(rng.integers(0, 10, n))
        order = np.lexsort((bv, g))
        g, bv = g[order].astype(np.int64), bv[order].astype(np.int64)
        band = int(rng.integers(0, 4))
        p = pairs_within_runs(g, v, band_vals=bv, band=band)
        got = sorted(zip(p["u"].tolist(), p["v"].tolist()))
        exp = sorted(
            (int(v[i]), int(v[j]))
            for i in range(n) for j in range(i + 1, n)
            if g[i] == g[j] and bv[j] - bv[i] <= band
        )
        assert got == exp


def test_ngram_jaccard_empty_corpus_drops_candidates():
    docs = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": pd.Series(dtype=np.int64), "text": pd.Series(dtype=object)}
    ))
    cand = ray.data.from_pandas(pd.DataFrame({"id_a": [1], "id_b": [2]}))
    assert len(dedup.ngram_jaccard_pairs(docs, cand, k=3).to_pandas()) == 0


# -------------------------------------- randomized parity (new kernels)


def test_pack_sequences_random_parity():
    from ophois_ray.sampling import pack_sequences

    rng = np.random.default_rng(101)
    ids = np.sort(rng.choice(5000, size=300, replace=False)).astype(np.int64)
    costs = rng.integers(0, 50, size=300).astype(np.int64)
    cap, width = 37, 64
    got = (pack_sequences(
        ray.data.from_pandas(pd.DataFrame({"doc_id": ids, "c": costs})),
        cost_col="c", id_col="doc_id", capacity=cap, range_width=width)
        .to_pandas().sort_values(["doc_id", "bin"], ignore_index=True))
    # naive ordered scan
    exp = []
    start = 0
    for i, c in zip(ids, costs):
        if c > 0:
            for b in range(start // cap, (start + c - 1) // cap + 1):
                gs, ge = max(start, b * cap), min(start + c, (b + 1) * cap)
                exp.append((i, b, gs - start, ge - gs))
        start += c
    exp = pd.DataFrame(exp, columns=["doc_id", "bin", "seg_start", "seg_len"])
    pd.testing.assert_frame_equal(got.astype(np.int64), exp.astype(np.int64))


def test_kcore_peel_random_parity():
    from ophois_ray.graphops import kcore_peel

    rng = np.random.default_rng(103)
    pairs = sorted({tuple(sorted(p)) for p in
                    rng.integers(0, 50, size=(250, 2)) if p[0] != p[1]})
    k, rounds = 8, 4
    stats, _ = kcore_peel(_edges_ds(pairs), k=k, rounds=rounds)
    # naive peel
    edges = set(pairs)
    exp = []
    for _ in range(rounds):
        deg = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        surv = {n for n, d in deg.items() if d >= k}
        edges = {(u, v) for u, v in edges if u in surv and v in surv}
        exp.append((len(surv), len(edges)))
    assert list(zip(stats["n_nodes"], stats["n_edges"])) == exp


def test_triangles_per_node_random_parity():
    from itertools import combinations

    from ophois_ray.graphops import triangles_per_node

    rng = np.random.default_rng(107)
    pairs = sorted({tuple(sorted(p)) for p in
                    rng.integers(0, 35, size=(200, 2)) if p[0] != p[1]})
    got = _tri_table(triangles_per_node(_edges_ds(pairs)))
    es = set(pairs)
    nodes = sorted({n for p in pairs for n in p})
    exp = {}
    for a, b, c in combinations(nodes, 3):
        if (a, b) in es and (a, c) in es and (b, c) in es:
            for n in (a, b, c):
                exp[n] = exp.get(n, 0) + 1
    assert dict(zip(got["node"], got["tri"])) == exp


def test_box_smooth_raster_random_parity():
    from ophois_ray.polygons import box_smooth_raster

    rng = np.random.default_rng(109)
    cells_ = rng.choice(400, size=60, replace=False)
    ix, iy = cells_ // 20, cells_ % 20
    n = rng.integers(1, 9, size=60).astype(np.int64)
    cell = (ix.astype(np.int64) << 29) | iy.astype(np.int64)
    got = box_smooth_raster(ray.data.from_pandas(
        pd.DataFrame({"cell": cell, "n": n}))).to_pandas()
    exp = {}
    for c, v, x, y in zip(cell, n, ix, iy):
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                if nx >= 0 and ny >= 0:
                    key = (int(nx) << 29) | int(ny)
                    exp[key] = exp.get(key, 0) + int(v)
    assert dict(zip(got["cell"].astype(np.int64),
                    got["density"].astype(np.int64))) == exp


def test_box_smooth_dense_matches_scatter():
    """The bounded-domain dense kernel bit-matches the distributed
    scatter path under the res semantics (x wraps, y clips), random
    counts incl. duplicate cells."""
    from ophois_ray.polygons import box_smooth_dense, box_smooth_raster

    res = 4  # 16x16 grid
    grid = 1 << res
    rng = np.random.default_rng(127)
    ix = rng.integers(0, grid, size=80).astype(np.int64)
    iy = rng.integers(0, grid, size=80).astype(np.int64)
    n = rng.integers(1, 7, size=80).astype(np.int64)
    cell = (ix << 29) | iy
    merged = (pd.DataFrame({"cell": cell, "n": n})
              .groupby("cell", as_index=False)["n"].sum())
    dc, dv = box_smooth_dense(
        merged["cell"].to_numpy(np.int64),
        merged["n"].to_numpy(np.int64), res)
    scat = box_smooth_raster(ray.data.from_pandas(
        pd.DataFrame({"cell": cell, "n": n})), res=res).to_pandas()
    assert dict(zip(dc, dv)) == dict(
        zip(scat["cell"].astype(np.int64), scat["density"].astype(np.int64)))
    # wrap actually exercised: some source sits on the x edge
    assert (ix == 0).any() and (ix == grid - 1).any()


def test_repetition_features_random_parity():
    from ophois_ray.textstats import repetition_features

    rng = np.random.default_rng(113)
    vocab = ["a", "b", "c", "d"]
    texts = [" ".join(rng.choice(vocab, size=int(m)))
             for m in rng.integers(0, 12, size=40)]
    got = (repetition_features(ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64), "text": texts})))
        .to_pandas().sort_values("doc_id", ignore_index=True))
    for i, t in enumerate(texts):
        w = t.split()
        for nn, tag in ((2, "bg"), (3, "tg")):
            grams = [" ".join(w[j:j + nn]) for j in range(len(w) - nn + 1)]
            assert got.loc[i, f"{tag}_total"] == len(grams)
            assert got.loc[i, f"{tag}_distinct"] == len(set(grams))


def test_rasterize_polygons_center_rule():
    from ophois_ray import cells as _cells
    from ophois_ray.polygons import rasterize_polygons

    # axis-aligned square: the center-sample rule is checkable by
    # direct coordinate comparison over the full grid
    polys = {3: [(10.0, 10.0), (10.0, 30.0), (30.0, 30.0), (30.0, 10.0)]}
    res = 4
    out = rasterize_polygons(polys, res).to_pandas()
    assert (out["poly_id"] == 3).all()
    n = 1 << res
    ix, iy = np.meshgrid(np.arange(n, dtype=np.int64),
                         np.arange(n, dtype=np.int64))
    allc = _cells.encode(np.int64(res), ix.ravel(), iy.ravel())
    clat, clon = _cells.cell_center(allc)
    inside = (clat > 10.0) & (clat < 30.0) & (clon > 10.0) & (clon < 30.0)
    assert sorted(out["cell"].astype(np.int64)) == sorted(allc[inside])
    assert inside.sum() > 0  # non-vacuous


def test_segment_crossing_join_hand_case():
    from ophois_ray.polygons import segment_crossing_join

    square = {5: [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)]}
    segs = ray.data.from_pandas(pd.DataFrame({
        "seg_id": np.array([1, 2, 3, 4], dtype=np.int64),
        # 1: enters and exits (crosses left + right edges -> 2)
        # 2: fully inside (no boundary crossing)
        # 3: fully outside
        # 4: touches a vertex collinearly (proper test excludes it)
        "ax": [-5.0, 2.0, 20.0, -5.0],
        "ay": [5.0, 2.0, 20.0, 0.0],
        "bx": [15.0, 8.0, 30.0, 0.0],
        "by": [5.0, 8.0, 30.0, 0.0],
    }))
    out = segment_crossing_join(segs, square).to_pandas()
    got = {(r.seg_id, r.poly_id): r.n_crossings for r in out.itertuples()}
    assert got == {(1, 5): 2}


def test_pca_matches_direct_numpy(embeds):
    comps, mean, var = similarity.pca_train(embeds, 4)
    full = embeds.to_pandas()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    mu = m.mean(axis=0)
    cov = (m.T @ m) / len(m) - np.outer(mu, mu)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:4]
    exp = v[:, order].T
    for i in range(4):
        j = int(np.argmax(np.abs(exp[i])))
        if exp[i, j] < 0:
            exp[i] = -exp[i]
    assert np.allclose(mean, mu)
    assert np.allclose(comps, exp, atol=1e-9)
    assert np.allclose(var, w[order])
    assert (np.diff(var) <= 1e-12).all()  # descending explained variance
    # layout invariance (allclose: the partial-sum merge is float)
    comps2, mean2, var2 = similarity.pca_train(embeds.repartition(7), 4)
    assert np.allclose(comps, comps2) and np.allclose(var, var2)
    # projection identity
    proj = (similarity.pca_project(embeds, comps, mean).to_pandas()
            .sort_values("vec_id", ignore_index=True))
    got = np.stack([np.asarray(p) for p in proj["proj"]])
    ids = full["vec_id"].to_numpy()
    exp_p = (m[np.argsort(ids)] - mu) @ comps.T
    assert np.allclose(got, exp_p)


def test_skyline2d_hand_and_random_parity():
    from ophois_ray.sampling import skyline2d

    # hand case with an equal-coordinate duplicate pair on the front
    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "x": np.array([1, 1, 2, 3, 2, 5], dtype=np.int64),
        "y": np.array([5, 5, 3, 1, 4, 1], dtype=np.int64),
    })
    out = skyline2d(ray.data.from_pandas(df).repartition(3), "x", "y")
    # (1,5) twice, (2,3), (3,1) survive; (2,4) dom by (2,3); (5,1) by (3,1)
    assert sorted(out["id"]) == [0, 1, 2, 3]

    # INT64_MAX y on the minimal-x group must survive (no sentinel trap)
    M = np.iinfo(np.int64).max
    edge = pd.DataFrame({"id": np.array([1, 2], dtype=np.int64),
                         "x": np.array([0, 5], dtype=np.int64),
                         "y": np.array([M, 3], dtype=np.int64)})
    got_e = skyline2d(ray.data.from_pandas(edge), "x", "y")
    assert sorted(got_e["id"]) == [1, 2]
    # empty input keeps the schema
    empty = ray.data.from_pandas(edge.iloc[0:0])
    assert list(skyline2d(empty, "x", "y").columns) == ["id", "x", "y"]

    rng = np.random.default_rng(137)
    big = pd.DataFrame({
        "id": np.arange(500, dtype=np.int64),
        "x": rng.integers(0, 40, size=500).astype(np.int64),
        "y": rng.integers(0, 40, size=500).astype(np.int64),
    })
    got = skyline2d(ray.data.from_pandas(big).repartition(7), "x", "y")
    # naive O(n^2) dominance oracle
    xs, ys = big["x"].to_numpy(), big["y"].to_numpy()
    keep = [i for i in range(500) if not np.any(
        (xs <= xs[i]) & (ys <= ys[i]) & ((xs < xs[i]) | (ys < ys[i])))]
    assert sorted(got["id"]) == keep


def test_bfs_depths_single_seed_path():
    from ophois_ray.graphops import bfs_depths
    from ophois_ray.sampling import split_hash

    ids = np.arange(6, dtype=np.int64)
    h = split_hash(ids)
    mod = int(h[2])  # make node 2 a seed; assert it is the only one
    assert int((h % mod == 0).sum()) == 1
    path = _edges_ds([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    out = (bfs_depths(path, seed_mod=mod, rounds=2).to_pandas()
           .sort_values("node", ignore_index=True))
    assert dict(zip(out["node"], out["depth"])) == {
        0: 2, 1: 1, 2: 0, 3: 1, 4: 2}  # node 5 is beyond 2 rounds


def test_bfs_depths_random_parity():
    from ophois_ray.graphops import bfs_depths
    from ophois_ray.sampling import split_hash

    rng = np.random.default_rng(131)
    pairs = sorted({tuple(sorted(p)) for p in
                    rng.integers(0, 80, size=(160, 2)) if p[0] != p[1]})
    got = bfs_depths(_edges_ds(pairs), seed_mod=11, rounds=3).to_pandas()
    # naive multi-source BFS
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    nodes = np.array(sorted(adj), dtype=np.int64)
    depth = {int(n): 0 for n in nodes[split_hash(nodes) % 11 == 0]}
    frontier = set(depth)
    for r in range(1, 4):
        frontier = {m for n in frontier for m in adj[n]} - set(depth)
        for m in frontier:
            depth[m] = r
    assert dict(zip(got["node"].astype(int), got["depth"].astype(int))) == depth


def test_bfs_depths_copart_path_equality():
    """The large rung forces the co-partitioned (hash-join + min-depth
    merge) BFS; it must bit-match the broadcast path on the same
    random graph — and so must the driver loop fed by the distributed
    degree table (only the edge ladder large), on a hot hub too."""
    from ophois_ray.graphops import bfs_depths

    rng = np.random.default_rng(137)
    pairs = sorted({tuple(sorted(p)) for p in
                    rng.integers(0, 120, size=(260, 2)) if p[0] != p[1]})
    via_bcast = (bfs_depths(_edges_ds(pairs), seed_mod=11, rounds=3)
                 .to_pandas().sort_values("node", ignore_index=True)
                 .astype(np.int64))
    def run(pairs, *force):
        with forced_rung(*force):
            out = bfs_depths(_edges_ds(pairs), seed_mod=11, rounds=3,
                             num_buckets=8).to_pandas()
        if not len(out):
            return out
        return out.sort_values("node", ignore_index=True).astype(np.int64)

    pd.testing.assert_frame_equal(run(pairs, "large"), via_bcast)
    pd.testing.assert_frame_equal(
        run(pairs, "large", "graphops.bfs_depths.edges"), via_bcast)
    # hub 0 is a seed (split_hash(0) % 11 == 0): every spoke at depth 1
    wheel = run(_WHEEL, "small")
    pd.testing.assert_frame_equal(run(_WHEEL, "large"), wheel)
    assert len(wheel) == 31
    assert len(run([], "small")) == len(run([], "large")) == 0


def test_pagerank_int_copart_path_equality():
    """The large rung forces the co-partitioned rank-table rounds; the
    all-integer arithmetic must make them bit-equal to the broadcast
    path (and layout-independent: repartitioned input, fewer buckets),
    also on a hot hub and on no edges."""
    from ophois_ray.graphops import pagerank_int

    rng = np.random.default_rng(141)
    pairs = sorted({tuple(sorted(p)) for p in
                    rng.integers(0, 60, size=(150, 2)) if p[0] != p[1]})
    via_bcast = pagerank_int(_edges_ds(pairs), iters=3).reset_index(drop=True)
    with forced_rung("large"):
        via_join = pagerank_int(_edges_ds(pairs).repartition(4), iters=3,
                                num_buckets=8).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        via_join.astype(np.int64), via_bcast.astype(np.int64)
    )
    for extra in (_WHEEL, []):
        a, b = _both_rungs(lambda: pagerank_int(_edges_ds(extra), iters=3,
                                                num_buckets=4))
        pd.testing.assert_frame_equal(a.astype(np.int64), b.astype(np.int64))


def test_random_walks_join_path_random_parity():
    from ophois_ray.graphops import random_walks

    rng = np.random.default_rng(127)
    pairs = sorted({tuple(sorted(p)) for p in
                    rng.integers(0, 25, size=(80, 2)) if p[0] != p[1]})
    exp = _walk_oracle(pairs, 4)
    with forced_rung("large"):
        got = (random_walks(_edges_ds(pairs), length=4)
               .to_pandas().sort_values("start").reset_index(drop=True))
    assert got.astype(np.int64).values.tolist() == exp


# ------------------------------------------------------ hot-key stress


def test_exchange_primitives_under_extreme_key_skew():
    """90% of rows on ONE key: grouped_apply and hash_join must stay
    correct (the hot bucket is simply larger — memory bound documented
    per operator), and results must match unskewed pandas."""
    from ophois_ray.joins import grouped_apply, hash_join

    rng = np.random.default_rng(139)
    n = 50_000
    keys = np.where(rng.random(n) < 0.9, 7, rng.integers(0, 1000, size=n))
    vals = rng.integers(0, 100, size=n)
    df = pd.DataFrame({"k": keys.astype(np.int64), "v": vals.astype(np.int64)})
    ds = ray.data.from_pandas(df).repartition(8)

    def agg(d: pd.DataFrame) -> pd.DataFrame:
        g = d.groupby("k", as_index=False).agg(n=("v", "size"), s=("v", "sum"))
        return g.astype(np.int64)

    got = (grouped_apply(ds, "k", agg).to_pandas()
           .sort_values("k", ignore_index=True).astype(np.int64))
    exp = agg(df).sort_values("k", ignore_index=True)
    pd.testing.assert_frame_equal(got, exp)
    assert int(got.loc[got["k"] == 7, "n"].iloc[0]) > 40_000  # skew real

    # hash_join fan-out on the hot key: 3 right rows for k=7
    right = pd.DataFrame({"k": np.array([7, 8, 7, 9, 7], dtype=np.int64),
                          "tag": np.arange(5, dtype=np.int64)})
    joined = hash_join(ds, ray.data.from_pandas(right), on="k")
    cnt = int(joined.count())
    exp_cnt = int((keys == 7).sum() * 3 + (keys == 8).sum() + (keys == 9).sum())
    assert cnt == exp_cnt


def test_task_retry_preserves_results(tmp_path):
    """Inject one application failure per task, let Ray retry: the
    output must equal the clean run exactly — at-least-once execution
    is safe because every kernel in this engine is deterministic and
    side-effect-free (the property a resumable 100-TB run relies on)."""
    import hashlib
    import os

    marker_dir = str(tmp_path)
    df = pd.DataFrame({"k": np.arange(4000, dtype=np.int64)})

    def flaky(d: pd.DataFrame) -> pd.DataFrame:
        key = hashlib.md5(d["k"].to_numpy().tobytes()).hexdigest()
        m = os.path.join(marker_dir, key)
        if not os.path.exists(m):
            open(m, "w").close()
            raise RuntimeError("injected failure (first attempt)")
        return pd.DataFrame({"k": d["k"], "v": d["k"] * 3 + 1})

    out = (ray.data.from_pandas(df).repartition(8)
           .map_batches(flaky, batch_format="pandas",
                        retry_exceptions=[RuntimeError], max_retries=3)
           .to_pandas().sort_values("k", ignore_index=True))
    assert (out["v"].to_numpy() == df["k"].to_numpy() * 3 + 1).all()
    assert len(os.listdir(marker_dir)) >= 1  # failures really happened


def test_dup_ngram_counts_hand_case():
    # doc 0 and 1 share "a b c d"; doc 2 is unique; doc 3 too short
    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["a b c d e", "x a b c d", "p q r s", "a b c"],
    }))
    out = (dedup.dup_ngram_counts(src, n=4, num_buckets=8)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc0 grams: "a b c d","b c d e"; doc1: "x a b c","a b c d";
    # doc2: "p q r s"; doc3: none (3 tokens)
    assert out["doc_id"].tolist() == [0, 1, 2]
    assert out["n_grams"].tolist() == [2, 2, 1]
    assert out["n_dup_grams"].tolist() == [1, 1, 0]
    assert all(out[c].dtype == np.int64 for c in ["n_grams", "n_dup_grams"])


def test_dup_ngram_counts_within_doc_repeat_not_dup():
    # the same gram repeated INSIDE one doc is not a cross-doc dup
    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [7], "text": ["a b a b a b a b"],
    }))
    out = dedup.dup_ngram_counts(src, n=4, num_buckets=4).to_pandas()
    assert out["n_dup_grams"].tolist() == [0]


def test_pii_counts_hand_case():
    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["mail me at bob7@mail.com or call 555-0199 from 10.0.0.1",
                 "clean text only"],
    }))
    out = (textstats.pii_counts(src).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, ["n_email", "n_phone", "n_ip"]].tolist() == [1, 1, 1]
    assert out.loc[1, ["n_email", "n_phone", "n_ip"]].tolist() == [0, 0, 0]
    scrubbed = ("mail me at <EMAIL> or call <PHONE> from <IP>")
    assert out.loc[0, "scrub_len"] == len(scrubbed)
    assert out.loc[1, "scrub_len"] == len("clean text only")


def test_link_edges_hand_case():
    from ophois_ray import pages as pageslib

    html_a = (b'<html><body><a href="http://b.example/x">b</a>'
              b'<a href="http://b.example/y">b2</a>'
              b'<a href="/relative">skip</a>'
              b'<a href="https://c.example/">c</a></body></html>')
    src = ray.data.from_pandas(pd.DataFrame({
        "url": ["http://a.example/p", "http://b.example/q"],
        "html": [html_a, b"<html><body>no links</body></html>"],
    }))
    out = (pageslib.link_edges(src, num_buckets=4).to_pandas()
           .sort_values(["src_domain", "dst_domain"]).reset_index(drop=True))
    assert out.to_dict("records") == [
        {"src_domain": "a.example", "dst_domain": "b.example", "n_links": 2},
        {"src_domain": "a.example", "dst_domain": "c.example", "n_links": 1},
    ]


def _ima_decode_scalar(raw):
    """Naive per-sample IMA ADPCM reference decoder (test oracle)."""
    from ophois_ray.multimodal import (_IMA_INDEX_TABLE, _IMA_STEP_TABLE,
                                       MediaDecodeError)
    assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
    i, rate, ba, data, nsamp = 12, None, None, None, None
    while i + 8 <= len(raw):
        cid = raw[i:i + 4]
        size = int.from_bytes(raw[i + 4:i + 8], "little")
        body = raw[i + 8:i + 8 + size]
        if cid == b"fmt ":
            rate = int.from_bytes(body[4:8], "little")
            ba = int.from_bytes(body[12:14], "little")
        elif cid == b"fact":
            nsamp = int.from_bytes(body[0:4], "little")
        elif cid == b"data":
            data = body
        i += 8 + size + (size & 1)
    out = []
    for b in range(len(data) // ba):
        blk = data[b * ba:(b + 1) * ba]
        pred = int.from_bytes(blk[0:2], "little", signed=True)
        index = blk[2]
        out.append(pred)
        for byte in blk[4:]:
            for code in (byte & 0xF, byte >> 4):
                step = int(_IMA_STEP_TABLE[index])
                diff = step >> 3
                if code & 1:
                    diff += step >> 2
                if code & 2:
                    diff += step >> 1
                if code & 4:
                    diff += step
                if code & 8:
                    diff = -diff
                pred = max(-32768, min(32767, pred + diff))
                index = max(0, min(88, index + int(_IMA_INDEX_TABLE[code & 7])))
                out.append(pred)
    return np.array(out[:nsamp], dtype=np.int16), rate


def test_ima_adpcm_vectorized_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    # rough speech-ish signal: slow sinusoid + noise, multiple blocks
    t = np.arange(3001)
    pcm = (9000 * np.sin(t / 25.0) + rng.integers(-800, 800, len(t))
           ).astype(np.int16)
    raw = multimodal.encode_wav_ima_adpcm(pcm, 8000, samples_per_block=505)
    got, rate = multimodal.decode_wav_ima_adpcm(raw)
    exp, erate = _ima_decode_scalar(raw)
    assert rate == erate == 8000
    got_i16 = (got[:, 0] * 32768.0).astype(np.int16)
    assert got_i16.shape == exp.shape
    assert np.array_equal(got_i16, exp)


def test_ima_adpcm_roundtrip_quality():
    t = np.arange(2001)
    pcm = (12000 * np.sin(t / 40.0)).astype(np.int16)
    raw = multimodal.encode_wav_ima_adpcm(pcm, 16000, samples_per_block=201)
    dec, rate = multimodal.decode_wav_ima_adpcm(raw)
    got = (dec[:, 0] * 32768.0).astype(np.int32)
    assert len(got) == len(pcm)
    # block-leading samples are stored verbatim
    assert all(got[k] == pcm[k] for k in range(0, len(pcm), 201))
    err = got - pcm.astype(np.int32)
    snr = 10 * np.log10(np.square(pcm, dtype=np.float64).mean()
                        / max(1.0, np.square(err, dtype=np.float64).mean()))
    assert snr > 20.0, snr
    # 4:1 compression really happened (vs 2 bytes/sample + headers)
    assert len(raw) < len(pcm) * 2 * 0.3


def test_audio_features_dispatches_adpcm():
    t = np.arange(1001)
    pcm = (5000 * np.sin(t / 10.0)).astype(np.int16)
    clips = pd.DataFrame({
        "clip_id": [0, 1],
        "media": [multimodal.encode_wav_ima_adpcm(pcm, 8000, samples_per_block=501),
                  multimodal.encode_wav_pcm16(pcm.reshape(-1, 1), 8000)],
    })
    out = (multimodal.audio_features(ray.data.from_pandas(clips))
           .to_pandas().sort_values("clip_id").reset_index(drop=True))
    assert out["sample_rate"].tolist() == [8000, 8000]
    assert out["n_samples"].tolist() == [1001, 1001]
    # ADPCM is lossy but zero crossings of a clean sinusoid survive
    assert abs(int(out.loc[0, "n_zero_cross"]) - int(out.loc[1, "n_zero_cross"])) <= 2


def _psnr(a, b):
    e = a.astype(np.float64) - b.astype(np.float64)
    return 10 * np.log10(255.0 ** 2 / max(np.square(e).mean(), 1e-12))


def _jpeg_test_image(h=33, w=41):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack([
        127 + 100 * np.sin(xx / 7.0) * np.cos(yy / 9.0),
        127 + 90 * np.cos(xx / 11.0),
        127 + 80 * np.sin((xx + yy) / 13.0),
    ], axis=2).clip(0, 255).astype(np.uint8)


def test_jpeg_dct_basis_orthonormal():
    A = multimodal._JPEG_A
    assert np.allclose(A @ A.T, np.eye(8), atol=1e-12)


def test_jpeg_roundtrip_444_and_420():
    img = _jpeg_test_image()
    for kw, floor in [(dict(quality=90), 45.0),
                      (dict(quality=90, subsample=True), 33.0),
                      (dict(quality=50), 35.0)]:
        raw = multimodal.encode_jpeg(img, **kw)
        assert raw[:2] == b"\xff\xd8" and raw[-2:] == b"\xff\xd9"
        dec = (multimodal.decode_jpeg(raw) * 255).round().astype(np.uint8)
        assert dec.shape == img.shape
        assert _psnr(img, dec) > floor, (kw, _psnr(img, dec))
    # compression really happened at default quality
    assert len(multimodal.encode_jpeg(img)) < img.size


def test_jpeg_restart_markers_change_nothing():
    img = _jpeg_test_image(24, 56)
    plain = multimodal.decode_jpeg(multimodal.encode_jpeg(img, quality=80))
    rst = multimodal.decode_jpeg(
        multimodal.encode_jpeg(img, quality=80, restart_interval=3))
    # restart intervals re-sync the entropy coder but quantized
    # coefficients are identical -> bit-identical decode
    assert np.array_equal(plain, rst)


def test_jpeg_gray_and_flat():
    yy, xx = np.mgrid[0:17, 0:23]
    g = (127 + 100 * np.sin(xx / 5.0)).clip(0, 255).astype(np.uint8)
    dec = (multimodal.decode_jpeg(multimodal.encode_jpeg(g, quality=85))
           * 255).round().astype(np.uint8)
    assert dec.shape == (17, 23, 3)
    assert _psnr(np.repeat(g[:, :, None], 3, 2), dec) > 40.0
    flat = np.full((16, 16, 3), 77, np.uint8)
    dec = (multimodal.decode_jpeg(multimodal.encode_jpeg(flat, quality=95))
           * 255).round().astype(np.uint8)
    assert int(np.abs(dec.astype(int) - 77).max()) == 0


def test_jpeg_rejects_progressive_and_garbage():
    img = _jpeg_test_image(16, 16)
    raw = bytearray(multimodal.encode_jpeg(img))
    # flip SOF0 (0xC0) to SOF2 progressive (0xC2)
    i = raw.find(b"\xff\xc0")
    raw[i + 1] = 0xC2
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_jpeg(bytes(raw))
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_jpeg(b"not a jpeg at all")


def test_jpeg_actor_pool_pipeline():
    imgs = [_jpeg_test_image(16 + 8 * k, 24) for k in range(3)]
    media = pd.DataFrame({
        "media": [multimodal.encode_jpeg(im, quality=90) for im in imgs],
        "height": [im.shape[0] for im in imgs],
        "width": [im.shape[1] for im in imgs],
    })
    out = multimodal.decode_images(
        ray.data.from_pandas(media), mode="jpeg", concurrency=2,
        batch_size=2).to_pandas()
    for im, pix in zip(imgs, out["pixels"]):
        arr = np.asarray(pix)
        assert arr.shape == im.shape
        assert _psnr(im, (arr * 255).round().astype(np.uint8)) > 40.0


def test_normalize_url_rules():
    from ophois_ray.pages import normalize_url

    assert normalize_url("HTTP://WWW.Ex.COM:80/a/?utm_source=t&z=2&a=1#f") \
        == "http://ex.com/a?a=1&z=2"
    assert normalize_url("https://Ex.com:443/") == "https://ex.com/"
    assert normalize_url("https://ex.com:8443/p") == "https://ex.com:8443/p"
    assert normalize_url("http://ex.com") == "http://ex.com/"
    assert normalize_url("http://ex.com/p/?utm_a=1&utm_b=2") == "http://ex.com/p"
    assert normalize_url("not a url") is None


def test_inverted_index_hand_case():
    src = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [3, 1, 2],
        "text": ["a b a", "b c", "b q"],
    }))
    out = (textstats.inverted_index(src, min_df=2, cap=2, num_buckets=4)
           .to_pandas().sort_values("token").reset_index(drop=True))
    # a: df 1 (dropped); b: df 3 capped to first 2 ids; c/q df 1 dropped
    assert out.to_dict("records") == [
        {"token": "b", "df": 3, "postings": "1,2"},
    ]


def test_avi_mjpeg_video_roundtrip():
    n = 5
    frames = np.stack([
        _jpeg_test_image(24, 32) if k % 2 == 0
        else 255 - _jpeg_test_image(24, 32)
        for k in range(n)
    ])
    raw = multimodal.encode_avi_mjpeg(frames, fps=8, quality=90)
    assert raw[:4] == b"RIFF" and raw[8:12] == b"AVI "
    dec, upf = multimodal.decode_avi_mjpeg(raw)
    assert dec.shape == (n, 24, 32, 3)
    assert upf == 1_000_000 // 8
    for k in range(n):
        got = (dec[k] * 255).round().astype(np.uint8)
        assert _psnr(frames[k], got) > 40.0
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_avi_mjpeg(b"RIFF\x00\x00\x00\x00WAVE")
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_avi_mjpeg(b"nope")


def test_h264_ipcm_roundtrip_and_syntax():
    """H.264 Annex B intra subset: grayscale frames round-trip EXACTLY
    through the real NAL/SPS/PPS/slice syntax (Exp-Golomb headers,
    emulation-prevention escaping, I_PCM macroblocks), VUI timing is
    recovered, cropping handles non-multiple-of-16 dims, and the two
    unsupported regimes (odd dims, non-I_PCM macroblocks) raise
    MediaDecodeError naming the missing tool."""
    rng = np.random.RandomState(11)
    g = rng.randint(0, 256, (3, 32, 48)).astype(np.uint8)
    frames = np.repeat(g[..., None], 3, axis=3)
    raw = multimodal.encode_h264_ipcm(frames, fps=25)
    assert raw[:5] == b"\x00\x00\x00\x01\x67"  # SPS first
    dec, upf = multimodal.decode_h264_ipcm(raw)
    assert upf == 1_000_000 // 25
    assert np.array_equal((dec * 255).round().astype(np.uint8), frames)
    # container dispatch
    d2, u2 = multimodal.decode_video(raw)
    assert np.array_equal(d2, dec) and u2 == upf
    # all-zero frames force a dense emulation-prevention pattern
    z = np.zeros((2, 16, 16, 3), np.uint8)
    rz = multimodal.encode_h264_ipcm(z)
    assert rz.count(b"\x00\x00\x03") > 0
    dz, _ = multimodal.decode_h264_ipcm(rz)
    assert np.array_equal((dz * 255).round().astype(np.uint8), z)
    # cropping: even, non-multiple-of-16 dims survive the crop math
    c = rng.randint(0, 256, (2, 34, 50)).astype(np.uint8)
    cf = np.repeat(c[..., None], 3, axis=3)
    dc, _ = multimodal.decode_h264_ipcm(multimodal.encode_h264_ipcm(cf))
    assert dc.shape == (2, 34, 50, 3)
    assert np.array_equal((dc * 255).round().astype(np.uint8), cf)
    # color: 4:2:0 luma identity holds on in-gamut smooth content
    yy, xx = np.mgrid[0:32, 0:48]
    smooth = np.stack(
        [(96 + 16 * np.sin(xx / 8) + yy // 2).astype(np.uint8),
         (128 + 8 * np.cos(yy / 5) + 0 * xx).astype(np.uint8),
         (100 + xx // 2).astype(np.uint8)], axis=2)[None]
    ds, _ = multimodal.decode_h264_ipcm(multimodal.encode_h264_ipcm(smooth))
    y_in = np.round(0.299 * smooth[..., 0] + 0.587 * smooth[..., 1]
                    + 0.114 * smooth[..., 2])
    y_out = np.round((0.299 * ds[..., 0] + 0.587 * ds[..., 1]
                      + 0.114 * ds[..., 2]) * 255)
    assert np.abs(y_in - y_out).max() <= 1.0
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.encode_h264_ipcm(np.zeros((1, 33, 48, 3), np.uint8))
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_h264_ipcm(b"\x00\x00\x01\x65nope")


def test_h264_cavlc_block_fuzz():
    """_cavlc_encode_block / _cavlc_decode_block are exact inverses for
    every valid (nC, max_coeff) regime: chroma-DC (nC=-1, 4 coeffs),
    all four coeff_token classes (nC 0/2/4/8+ via Table 9-5), level
    magnitudes through the full prefix/suffix escape ladder (spec
    9.2.2.1, levels beyond +-32k), total_zeros and run_before tables."""
    rng = np.random.default_rng(3)
    for trial in range(2000):
        nC = int(rng.choice([-1, 0, 1, 2, 3, 5, 7, 8, 16]))
        size = 4 if nC == -1 else (15 if trial % 2 else 16)
        coeffs = np.zeros(size, np.int64)
        n = int(rng.integers(0, size + 1))
        idx = rng.choice(size, size=n, replace=False)
        coeffs[idx] = rng.integers(-66000, 66000, n)
        coeffs[idx[coeffs[idx] == 0]] = 1
        rec = multimodal._H264Ops()
        tc = multimodal._cavlc_encode_block(rec, coeffs, nC, size)
        bw = multimodal._H264BitWriter()
        rec.replay(bw)
        bw.u(1, 1)
        bw.align_zero()
        r = multimodal._H264BitReader(bytes(bw.buf))
        scan, tc2 = multimodal._cavlc_decode_block(r, nC, size)
        assert tc2 == tc
        assert np.array_equal(scan, coeffs)


def test_h264_cavlc_intra_roundtrip():
    """The compressed intra path (Intra_16x16 prediction + integer
    transform + quant + CAVLC): the decoder reconstructs the encoder's
    own reconstruction BIT-EXACTLY (intra prediction feeds on recon,
    so one mismatched coefficient anywhere cascades), across the QP
    dequant branches (qp<12 rounding shift vs <<), with the per-MB
    I_PCM fallback interleaving mb_type 25 among 1..24, and lossy
    quality bounded on smooth content."""
    rng = np.random.default_rng(7)
    h, w = 38, 54
    yy, xx = np.mgrid[0:h, 0:w]
    smooth = np.stack([(yy * 3 + xx * 2) % 256, (xx * 4) % 256,
                       (yy * 5) % 256], -1).astype(np.uint8)
    noise = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    frames = np.stack([smooth, noise])
    for qp in (0, 8, 11, 12, 20, 32, 51):
        raw, recon = multimodal._encode_h264_cavlc_with_recon(
            frames, qp=qp, fps=12)
        dec, upf, mbts = multimodal.decode_h264_intra(
            raw, return_mb_types=True)
        assert np.array_equal(dec, recon), f"qp={qp}"
        assert upf == 1_000_000 // 12
        # noise MBs may legitimately fall back to I_PCM at low qp
        assert all(1 <= t <= 25 for s in mbts for t in s)
        assert any(1 <= t <= 24 for s in mbts for t in s)
    # decode_video dispatches Annex B to the intra decoder
    raw, recon = multimodal._encode_h264_cavlc_with_recon(frames, qp=20)
    d2, _ = multimodal.decode_video(raw)
    assert np.array_equal(d2, recon)
    # quality: smooth frame survives qp=20 with small error
    assert _psnr(smooth, (recon[0] * 255).round().astype(np.uint8)) > 38.0
    # a tight pcm_threshold forces real PCM/CAVLC mixing in one slice
    rawm, reconm = multimodal._encode_h264_cavlc_with_recon(
        frames, qp=20, pcm_threshold=60)
    decm, _, mbtm = multimodal.decode_h264_intra(rawm, return_mb_types=True)
    flat = sorted(set(t for s in mbtm for t in s))
    assert 25 in flat and any(t != 25 for t in flat)
    assert np.array_equal(decm, reconm)
    # flat frames: the DC-only chain is exactly lossless at qp=20
    for v in (0, 77, 128, 255):
        fl = np.full((1, 16, 16, 3), v, np.uint8)
        rawf, reconf = multimodal._encode_h264_cavlc_with_recon(fl, qp=20)
        decf, _ = multimodal.decode_h264_intra(rawf)
        assert np.array_equal(decf, reconf)
        assert np.array_equal(
            (decf * 255).round().astype(np.uint8), fl)
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.encode_h264_cavlc(np.zeros((1, 33, 48, 3), np.uint8))


def test_h264_intra_decoder_rejects_missing_tools():
    """Crafted streams name the missing tool: CABAC PPS and
    multi-slice pictures raise MediaDecodeError (the contract SURVEY
    documents for the honest codec boundary; I_4x4 is implemented as
    of round 5 and covered by its roundtrip tests)."""
    base = multimodal.encode_h264_cavlc(
        np.full((1, 16, 16, 3), 50, np.uint8))
    sps, pps, sl = list(multimodal._h264_nals(base))
    start = b"\x00\x00\x00\x01"

    def pps_cabac():
        w = multimodal._H264BitWriter()
        w.ue(0)            # pps id
        w.ue(0)            # sps id
        w.u(1, 1)          # entropy_coding_mode_flag = CABAC
        w.u(0, 1)
        w.ue(0)
        w.ue(0)
        w.ue(0)
        w.u(0, 1)
        w.u(0, 2)
        w.se(0)
        w.se(0)
        w.se(0)
        w.u(0, 1)
        w.u(0, 1)
        w.u(0, 1)
        w.trailing()
        return b"\x68" + multimodal._ebsp_escape(bytes(w.buf))

    def slice_hdr(first_mb, mb_type=None):
        w = multimodal._H264BitWriter()
        w.ue(first_mb)     # first_mb_in_slice
        w.ue(7)            # slice_type I
        w.ue(0)
        w.u(0, 4)
        w.ue(0)
        w.u(0, 1)
        w.u(0, 1)
        w.se(0)
        w.ue(1)            # disable_deblocking_filter_idc
        if mb_type is not None:
            w.ue(mb_type)
        w.trailing()
        return b"\x65" + multimodal._ebsp_escape(bytes(w.buf))

    with pytest.raises(multimodal.MediaDecodeError, match="CABAC"):
        multimodal.decode_h264_intra(
            start + sps + start + pps_cabac() + start + sl)
    with pytest.raises(multimodal.MediaDecodeError, match="multi-slice"):
        multimodal.decode_h264_intra(
            start + sps + start + pps + start + slice_hdr(4))


def _mc_luma_scalar(ref, mvx, mvy, y0, x0, bh, bw):
    """Direct per-sample transcription of spec 8.4.2.2.1/8.4.2.2.2
    (Clip3 on every full-sample coordinate, 6-tap halves, unrounded
    intermediates for j, rounding-up quarter averages) — the oracle
    for the vectorized window algebra in multimodal._mc_luma."""
    H, W = ref.shape

    def P(y, x):
        return int(ref[min(max(y, 0), H - 1), min(max(x, 0), W - 1)])

    def clip1(v):
        return min(max(v, 0), 255)

    def b_int(y, x):          # unrounded horizontal 6-tap right of (y,x)
        return (P(y, x - 2) - 5 * P(y, x - 1) + 20 * P(y, x)
                + 20 * P(y, x + 1) - 5 * P(y, x + 2) + P(y, x + 3))

    def v_int(y, x):          # unrounded vertical 6-tap below (y,x)
        return (P(y - 2, x) - 5 * P(y - 1, x) + 20 * P(y, x)
                + 20 * P(y + 1, x) - 5 * P(y + 2, x) + P(y + 3, x))

    def b_at(y, x):
        return clip1((b_int(y, x) + 16) >> 5)

    def h_at(y, x):
        return clip1((v_int(y, x) + 16) >> 5)

    def j_at(y, x):
        t = (b_int(y - 2, x) - 5 * b_int(y - 1, x) + 20 * b_int(y, x)
             + 20 * b_int(y + 1, x) - 5 * b_int(y + 2, x)
             + b_int(y + 3, x))
        return clip1((t + 512) >> 10)

    fy, fx = mvy & 3, mvx & 3
    out = np.zeros((bh, bw), np.int64)
    for r in range(bh):
        for c in range(bw):
            y = y0 + r + (mvy >> 2)
            x = x0 + c + (mvx >> 2)
            G, b, h, j = P(y, x), b_at(y, x), h_at(y, x), j_at(y, x)
            m, s = h_at(y, x + 1), b_at(y + 1, x)
            if (fx, fy) == (0, 0):
                v = G
            elif fy == 0:
                v = {1: (G + b + 1) >> 1, 2: b,
                     3: (P(y, x + 1) + b + 1) >> 1}[fx]
            elif fx == 0:
                v = {1: (G + h + 1) >> 1, 2: h,
                     3: (P(y + 1, x) + h + 1) >> 1}[fy]
            elif (fx, fy) == (2, 2):
                v = j
            elif fy == 2:
                v = (h + j + 1) >> 1 if fx == 1 else (j + m + 1) >> 1
            elif fx == 2:
                v = (b + j + 1) >> 1 if fy == 1 else (j + s + 1) >> 1
            else:
                vv = b if fy == 1 else s
                hh = h if fx == 1 else m
                v = (vv + hh + 1) >> 1
            out[r, c] = v
    return out


def test_h264_mc_luma_matches_spec_oracle():
    """_mc_luma == the scalar 8.4.2.2.1 transcription on every one of
    the 16 sub-pel phases, including vectors far outside the picture
    (border-clamped taps)."""
    rng = np.random.default_rng(11)
    ref = rng.integers(0, 256, (40, 44), np.uint8)
    cases = [(4 * dx + fx, 4 * dy + fy)
             for fx in range(4) for fy in range(4)
             for dx, dy in ((0, 0), (-3, 2), (7, -5))]
    cases += [(-200, 3), (170, -130), (1, 177)]   # fully clamped
    for mvx, mvy in cases:
        got = multimodal._mc_luma(ref, mvx, mvy, 16, 8, 16, 16)
        want = _mc_luma_scalar(ref, mvx, mvy, 16, 8, 16, 16)
        assert np.array_equal(got, want), (mvx, mvy)


def test_h264_mc_chroma_matches_spec_oracle():
    """_mc_chroma == scalar eighth-pel bilinear with clamped taps."""
    rng = np.random.default_rng(13)
    ref = rng.integers(0, 256, (20, 22), np.uint8)

    def scalar(mvx, mvy, y0, x0, bh, bw):
        H, W = ref.shape

        def P(y, x):
            return int(ref[min(max(y, 0), H - 1), min(max(x, 0), W - 1)])
        fy, fx = mvy & 7, mvx & 7
        out = np.zeros((bh, bw), np.int64)
        for r in range(bh):
            for c in range(bw):
                y, x = y0 + r + (mvy >> 3), x0 + c + (mvx >> 3)
                out[r, c] = ((8 - fx) * (8 - fy) * P(y, x)
                             + fx * (8 - fy) * P(y, x + 1)
                             + (8 - fx) * fy * P(y + 1, x)
                             + fx * fy * P(y + 1, x + 1) + 32) >> 6
        return out

    for mvx, mvy in [(0, 0), (1, 0), (0, 7), (5, 3), (-9, 13),
                     (-100, 90), (37, -41)]:
        got = multimodal._mc_chroma(ref, mvx, mvy, 8, 8, 8, 8)
        assert np.array_equal(got, scalar(mvx, mvy, 8, 8, 8, 8)), (mvx, mvy)


def test_h264_mvp_and_skip_rules():
    """Hand-worked 8.4.1.3 / 8.4.1.1 cases: top-row copies mvA (even
    when A is intra), a single reference-matching neighbour wins
    outright, otherwise the component-wise median; P_Skip zeroes on
    picture edges or a zero-vector A/B neighbour."""
    refg = np.full((3, 3), -1, np.int64)
    mvg = np.zeros((3, 3, 2), np.int64)
    # first MB: nothing available
    assert multimodal._h264_mvp16(refg, mvg, 0, 0) == (0, 0)
    assert multimodal._h264_skip_mv(refg, mvg, 0, 0) == (0, 0)
    # top row: B/C/D out of picture -> mvA verbatim
    refg[0, 0] = 0
    mvg[0, 0] = (12, -8)
    assert multimodal._h264_mvp16(refg, mvg, 0, 1) == (12, -8)
    # ... and skip still zeroes (B unavailable)
    assert multimodal._h264_skip_mv(refg, mvg, 0, 1) == (0, 0)
    # intra A on the top row contributes its stored zero vector
    refg2 = np.full((3, 3), -1, np.int64)
    mvg2 = np.zeros((3, 3, 2), np.int64)
    refg2[0, 0] = -1
    assert multimodal._h264_mvp16(refg2, mvg2, 0, 1) == (0, 0)
    # single matching reference among A/B/C wins outright
    refg3 = np.full((3, 3), -1, np.int64)
    mvg3 = np.zeros((3, 3, 2), np.int64)
    refg3[0, 1] = 0                      # B inter
    mvg3[0, 1] = (6, -4)
    assert multimodal._h264_mvp16(refg3, mvg3, 1, 1) == (6, -4)
    # all three inter -> median
    refg3[1, 0] = 0                      # A
    mvg3[1, 0] = (4, 0)
    refg3[0, 2] = 0                      # C
    mvg3[0, 2] = (2, 2)
    assert multimodal._h264_mvp16(refg3, mvg3, 1, 1) == (4, 0)
    # skip: B has refIdx 0 and zero mv -> forced zero
    refg4 = np.zeros((3, 3), np.int64)
    mvg4 = np.zeros((3, 3, 2), np.int64)
    mvg4[1, 0] = (3, 4)                  # A nonzero
    assert multimodal._h264_skip_mv(refg4, mvg4, 1, 1) == (0, 0)
    # skip: both nonzero -> median predictor
    mvg4[0, 1] = (3, 4)                  # B
    mvg4[0, 2] = (3, 4)                  # C
    assert multimodal._h264_skip_mv(refg4, mvg4, 1, 1) == (3, 4)


def test_h264_p_roundtrip_gop():
    """P slices (P_Skip runs + P_L0_16x16 + intra fallback): the
    decoder reconstructs the encoder's recon BIT-EXACTLY across a GOP
    (inter prediction feeds on the previous recon, so one wrong MC
    sample anywhere cascades through the chain); streams exercise
    skip, inter with residuals, sub-pel vectors, border-clamped
    motion, and the mb_skip_run tail; GOP coding beats all-intra on
    translating content."""
    rng = np.random.default_rng(7)

    def smoothed(shape):
        a = rng.integers(0, 256, shape, np.uint8).astype(np.float64)
        for _ in range(3):
            a = (a + np.roll(a, 1, 0) + np.roll(a, -1, 0)
                 + np.roll(a, 1, 1) + np.roll(a, -1, 1)) / 5
        return np.clip(a, 0, 255).astype(np.uint8)

    big = smoothed((100, 100, 3))
    frames = np.stack([big[8 + 2 * i:56 + 2 * i, 12 + 3 * i:76 + 3 * i]
                       for i in range(6)])
    for qp in (10, 20, 30):
        raw, recon = multimodal._encode_h264_cavlc_with_recon(
            frames, qp=qp, gop=4)
        dec, upf, mbts = multimodal.decode_h264(raw, return_mb_types=True)
        assert np.array_equal(dec, recon), f"qp={qp}"
        assert any(t == 0 for s in mbts[1:] for t in s)   # inter MBs
    # GOP stream is smaller than all-intra on translating content
    assert len(multimodal.encode_h264_cavlc(frames, qp=20, gop=4)) < \
        len(multimodal.encode_h264_cavlc(frames, qp=20))
    # static content converges to all-skip P frames (run coding incl.
    # the trailing run), still bit-exact
    stat = np.stack([smoothed((48, 48, 3))] * 5)
    raw, recon = multimodal._encode_h264_cavlc_with_recon(
        stat, qp=24, gop=5)
    dec, _, mbts = multimodal.decode_h264(raw, return_mb_types=True)
    assert np.array_equal(dec, recon)
    assert all(t == -1 for t in mbts[-1])                 # all P_Skip
    # border slide: content enters from outside the picture (clamped
    # reference taps on real MVs)
    fr = np.stack([big[i * 7:i * 7 + 32, 40 - i * 6:40 - i * 6 + 48]
                   for i in range(4)])
    raw, recon = multimodal._encode_h264_cavlc_with_recon(
        fr, qp=18, gop=4)
    dec, _ = multimodal.decode_h264(raw)
    assert np.array_equal(dec, recon)
    # scene cut inside a GOP: intra fallback macroblocks (>= 5) appear
    cut = np.stack([big[0:48, 0:48], big[0:48, 0:48],
                    255 - big[40:88, 40:88]])
    raw, recon = multimodal._encode_h264_cavlc_with_recon(
        cut, qp=20, gop=3)
    dec, _, mbts = multimodal.decode_h264(raw, return_mb_types=True)
    assert np.array_equal(dec, recon)
    assert any(t >= 5 for t in mbts[2])
    # decode_video dispatches GOP streams too
    d2, _ = multimodal.decode_video(raw)
    assert np.array_equal(d2, recon)


def test_h264_p_decoder_rejects_missing_tools():
    """P-slice boundary contract: sub-16x16 partitions, B slices and
    a P slice with no decoded reference raise MediaDecodeError naming
    the missing tool; the inter CBP mapping is a permutation."""
    assert sorted(multimodal._CBP_INTER) == list(range(48))
    base = multimodal.encode_h264_cavlc(
        np.zeros((2, 16, 16, 3), np.uint8), qp=20, gop=2)
    sps, pps, isl, psl = list(multimodal._h264_nals(base))
    start = b"\x00\x00\x00\x01"

    def p_slice(mb_type=None, slice_type=5):
        w = multimodal._H264BitWriter()
        w.ue(0)            # first_mb_in_slice
        w.ue(slice_type)
        w.ue(0)            # pps id
        w.u(1, 4)          # frame_num
        w.u(0, 1)          # num_ref_idx_active_override_flag
        w.u(0, 1)          # ref_pic_list_modification_flag_l0
        w.u(0, 1)          # adaptive_ref_pic_marking_mode_flag
        w.se(0)            # slice_qp_delta
        w.ue(1)            # disable_deblocking_filter_idc
        w.ue(0)            # mb_skip_run
        if mb_type is not None:
            w.ue(mb_type)
        w.trailing()
        return b"\x41" + multimodal._ebsp_escape(bytes(w.buf))

    head = start + sps + start + pps + start + isl + start
    with pytest.raises(multimodal.MediaDecodeError, match="16x8"):
        multimodal.decode_h264(head + p_slice(mb_type=1))
    with pytest.raises(multimodal.MediaDecodeError, match="16x8"):
        multimodal.decode_h264(head + p_slice(mb_type=3))
    with pytest.raises(multimodal.MediaDecodeError, match="B/SP/SI"):
        multimodal.decode_h264(head + p_slice(slice_type=1))
    with pytest.raises(multimodal.MediaDecodeError, match="reference"):
        multimodal.decode_h264(
            start + sps + start + pps + start + p_slice(mb_type=0))

    # PPS features whose P-slice syntax we cannot parse raise at the
    # right boundary instead of silently desyncing the bit reader
    def crafted_pps(num_ref_default=0, weighted=0, redundant=0):
        w = multimodal._H264BitWriter()
        w.ue(0)
        w.ue(0)
        w.u(0, 1)
        w.u(0, 1)
        w.ue(0)
        w.ue(num_ref_default)
        w.ue(0)
        w.u(weighted, 1)
        w.u(0, 2)
        w.se(0)
        w.se(0)
        w.se(0)
        w.u(1, 1)          # deblocking_filter_control_present_flag
        w.u(0, 1)
        w.u(redundant, 1)
        w.trailing()
        return b"\x68" + multimodal._ebsp_escape(bytes(w.buf))

    with pytest.raises(multimodal.MediaDecodeError, match="redundant"):
        multimodal.decode_h264(
            start + sps + start + crafted_pps(redundant=1) + start + isl)
    with pytest.raises(multimodal.MediaDecodeError,
                       match="multiple reference"):
        multimodal.decode_h264(
            start + sps + start + crafted_pps(num_ref_default=1)
            + start + isl + start + p_slice(mb_type=0))
    with pytest.raises(multimodal.MediaDecodeError, match="weighted"):
        multimodal.decode_h264(
            start + sps + start + crafted_pps(weighted=1)
            + start + isl + start + p_slice(mb_type=0))
    # an I-only stream is fine under those same PPS features
    dec, _ = multimodal.decode_h264(
        start + sps + start + crafted_pps(num_ref_default=1, weighted=1)
        + start + isl)
    assert dec.shape[0] == 1


def test_h264_deblocking_contract():
    """Streams that do not disable the in-loop filter (old-style PPS
    without deblocking_filter_control_present_flag) now DECODE with
    the 8.7 filter applied. For this fixture the filter is provably a
    no-op on both crafted slices — the I_PCM picture filters at QP 0
    (alpha 0) and the DC-flat Intra_16x16 picture has p0 == q0 on
    every edge — so both must decode and match the flat input."""
    frames = np.full((1, 16, 16, 3), 90, np.uint8)
    # old-style PPS: deblocking_filter_control_present_flag = 0
    w = multimodal._H264BitWriter()
    for v in (0, 0):
        w.ue(v)
    w.u(0, 1)
    w.u(0, 1)
    w.ue(0)
    w.ue(0)
    w.ue(0)
    w.u(0, 1)
    w.u(0, 2)
    w.se(0)
    w.se(0)
    w.se(0)
    w.u(0, 1)          # deblocking_filter_control_present_flag = 0
    w.u(0, 1)
    w.u(0, 1)
    w.trailing()
    old_pps = b"\x68" + multimodal._ebsp_escape(bytes(w.buf))
    start = b"\x00\x00\x00\x01"

    new = multimodal.encode_h264_cavlc(frames, qp=20)
    sps, _, slc = list(multimodal._h264_nals(new))

    def islice(mb25: bool):
        w = multimodal._H264BitWriter()
        w.ue(0)
        w.ue(7)
        w.ue(0)
        w.u(0, 4)
        w.ue(0)
        w.u(0, 1)
        w.u(0, 1)
        w.se(0)            # slice_qp_delta (NO deblocking field: old pps)
        if mb25:
            w.ue(25)
            w.align_zero()
            w.raw_bytes(bytes(256) + bytes([128] * 128))
        else:
            w.ue(3)        # Intra_16x16 DC, cbp 0
            w.ue(0)
            w.se(0)
            w.u(1, 1)      # DC coeff_token: TotalCoeff 0 (nC 0 -> "1")
        w.trailing()
        return b"\x65" + multimodal._ebsp_escape(bytes(w.buf))

    dec, _ = multimodal.decode_h264(
        start + sps + start + old_pps + start + islice(True))
    assert dec.shape == (1, 16, 16, 3)
    dec2, _ = multimodal.decode_h264(
        start + sps + start + old_pps + start + islice(False))
    assert dec2.shape == (1, 16, 16, 3)
    # DC-flat picture: the undisabled filter must not change a thing
    u8 = (dec2 * 255).round().astype(np.uint8)
    assert (u8 == u8[0, 0, 0]).all()


def test_h264_deblock_edge_kernels_match_scalar_spec():
    """Fuzz the vectorized luma/chroma edge filters against a direct
    scalar transcription of spec 8.7.2.3/8.7.2.4 (per-line ints, no
    numpy) over random samples, boundary strengths and the full
    qp-index range — any vectorization slip (mask precedence, clip
    order, >> on negatives) diverges somewhere in 400 random edges."""
    rng = np.random.default_rng(23)

    def scalar_luma(p, q, bS, ia, ib):
        A = int(multimodal._H264_ALPHA[ia])
        B = int(multimodal._H264_BETA[ib])
        p0, p1, p2, p3 = (int(v) for v in p)
        q0, q1, q2, q3 = (int(v) for v in q)
        if bS == 0 or not (abs(p0 - q0) < A and abs(p1 - p0) < B
                           and abs(q1 - q0) < B):
            return [p0, p1, p2], [q0, q1, q2]
        ap = abs(p2 - p0) < B
        aq = abs(q2 - q0) < B
        if bS == 4:
            small = abs(p0 - q0) < (A >> 2) + 2
            if ap and small:
                np_ = [(p2 + 2 * p1 + 2 * p0 + 2 * q0 + q1 + 4) >> 3,
                       (p2 + p1 + p0 + q0 + 2) >> 2,
                       (2 * p3 + 3 * p2 + p1 + p0 + q0 + 4) >> 3]
            else:
                np_ = [(2 * p1 + p0 + q1 + 2) >> 2, p1, p2]
            if aq and small:
                nq_ = [(q2 + 2 * q1 + 2 * q0 + 2 * p0 + p1 + 4) >> 3,
                       (q2 + q1 + q0 + p0 + 2) >> 2,
                       (2 * q3 + 3 * q2 + q1 + q0 + p0 + 4) >> 3]
            else:
                nq_ = [(2 * q1 + q0 + p1 + 2) >> 2, q1, q2]
            return np_, nq_
        t0 = int(multimodal._H264_TC0[bS - 1, ia])
        tc = t0 + ap + aq
        d = max(-tc, min(tc, (((q0 - p0) << 2) + (p1 - q1) + 4) >> 3))
        np_ = [max(0, min(255, p0 + d)), p1, p2]
        nq_ = [max(0, min(255, q0 - d)), q1, q2]
        if ap:
            np_[1] = p1 + max(-t0, min(t0, (p2 + ((p0 + q0 + 1) >> 1)
                                            - 2 * p1) >> 1))
        if aq:
            nq_[1] = q1 + max(-t0, min(t0, (q2 + ((q0 + p0 + 1) >> 1)
                                            - 2 * q1) >> 1))
        return np_, nq_

    def scalar_chroma(p, q, bS, ia, ib):
        A = int(multimodal._H264_ALPHA[ia])
        B = int(multimodal._H264_BETA[ib])
        p0, p1 = int(p[0]), int(p[1])
        q0, q1 = int(q[0]), int(q[1])
        if bS == 0 or not (abs(p0 - q0) < A and abs(p1 - p0) < B
                           and abs(q1 - q0) < B):
            return p0, q0
        if bS == 4:
            return ((2 * p1 + p0 + q1 + 2) >> 2,
                    (2 * q1 + q0 + p1 + 2) >> 2)
        tc = int(multimodal._H264_TC0[bS - 1, ia]) + 1
        d = max(-tc, min(tc, (((q0 - p0) << 2) + (p1 - q1) + 4) >> 3))
        return max(0, min(255, p0 + d)), max(0, min(255, q0 - d))

    for trial in range(400):
        ia = int(rng.integers(0, 52))
        ib = int(rng.integers(0, 52))
        bs = rng.integers(0, 5, size=4).astype(np.int64)
        # random plane, filter the MB-1 left edge (vertical) and top
        # edge (horizontal) of a 2x2-MB plane so gather/scatter paths
        # both run
        plane = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        for vertical in (True, False):
            pl = plane.copy()
            multimodal._deblock_luma_edge(pl, 1 if not vertical else 0,
                                          1 if vertical else 0, 0,
                                          vertical, bs, ia, ib)
            # scalar reference per line
            exp = plane.copy().astype(np.int64)
            for line in range(16):
                g = int(line // 4)
                if vertical:
                    y, x = line, 16
                    p = [exp[y, x - 1 - i] for i in range(4)]
                    q = [plane[y, x + i].astype(np.int64)
                         for i in range(4)]
                else:
                    y, x = 16, line
                    p = [exp[y - 1 - i, x] for i in range(4)]
                    q = [plane[y + i, x].astype(np.int64)
                         for i in range(4)]
                np_, nq_ = scalar_luma(p, q, int(bs[g]), ia, ib)
                for i in range(3):
                    if vertical:
                        exp[y, x - 1 - i] = np_[i]
                        exp[y, x + i] = nq_[i]
                    else:
                        exp[y - 1 - i, x] = np_[i]
                        exp[y + i, x] = nq_[i]
            np.testing.assert_array_equal(
                pl.astype(np.int64), exp, err_msg=f"luma {trial} "
                f"v={vertical} ia={ia} ib={ib} bs={bs}")
        cplane = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        for vertical in (True, False):
            cp = cplane.copy()
            multimodal._deblock_chroma_edge(
                cp, 1 if not vertical else 0, 1 if vertical else 0, 0,
                vertical, bs, ia, ib)
            exp = cplane.copy().astype(np.int64)
            for line in range(8):
                g = int(line // 2)
                if vertical:
                    y, x = line, 8
                    p = [exp[y, x - 1 - i] for i in range(2)]
                    q = [cplane[y, x + i].astype(np.int64)
                         for i in range(2)]
                else:
                    y, x = 8, line
                    p = [exp[y - 1 - i, x] for i in range(2)]
                    q = [cplane[y + i, x].astype(np.int64)
                         for i in range(2)]
                np0, nq0 = scalar_chroma(p, q, int(bs[g]), ia, ib)
                if vertical:
                    exp[y, x - 1] = np0
                    exp[y, x] = nq0
                else:
                    exp[y - 1, x] = np0
                    exp[y, x] = nq0
            np.testing.assert_array_equal(
                cp.astype(np.int64), exp, err_msg=f"chroma {trial} "
                f"v={vertical} ia={ia} ib={ib} bs={bs}")


def test_h264_deblock_roundtrip_and_quality():
    """In-loop deblocking (spec 8.7): encode with deblock=True signals
    disable_deblocking_filter_idc 0 and the decoder reproduces the
    encoder's FILTERED recon bit-exactly across intra and GOP streams;
    the filter genuinely changes pixels vs the off path, improves
    smooth-content MSE at high qp (the blocking-artifact regime), and
    the default-off stream stays byte-identical to the on stream for
    all-IDR coding (only the recon differs — the filter is out of the
    intra prediction loop)."""
    rng = np.random.default_rng(11)
    n, h, w = 5, 48, 64
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.zeros((n, h, w, 3), np.uint8)
    for f in range(n):
        for c in range(3):
            base[f, :, :, c] = ((xx * 2 + yy * 3 + 30 * c + 5 * f)
                                % 256)
        bx = 8 + 6 * f
        base[f, 10:26, bx:bx + 16] = rng.integers(
            0, 256, (16, 16, 3), dtype=np.uint8)
    for gop in (1, 3):
        for qp in (20, 32, 44):
            raw_on, recon_on = multimodal._encode_h264_cavlc_with_recon(
                base, qp=qp, gop=gop, deblock=True)
            dec_on, _ = multimodal.decode_h264(raw_on)
            np.testing.assert_array_equal(dec_on, recon_on)
            raw_off, recon_off = \
                multimodal._encode_h264_cavlc_with_recon(
                    base, qp=qp, gop=gop, deblock=False)
            dec_off, _ = multimodal.decode_h264(raw_off)
            np.testing.assert_array_equal(dec_off, recon_off)
            assert not np.array_equal(dec_on, dec_off), (gop, qp)
            # the two streams differ (signalling at least); for
            # IDR-only coding the residual payload is identical since
            # the filter never feeds intra prediction
            assert raw_on != raw_off
            if gop == 1:
                assert len(raw_on) == len(raw_off)
    # blocking-artifact regime: the filter must IMPROVE smooth content
    smooth = np.zeros((2, 48, 64, 3), np.uint8)
    for f in range(2):
        for c in range(3):
            smooth[f, :, :, c] = np.clip(
                (xx * 1.3 + yy * 1.7) / 2 + 40 * c + 2 * f, 0,
                255).astype(np.uint8)
    for qp in (36, 44):
        mse = {}
        for db in (False, True):
            _, recon = multimodal._encode_h264_cavlc_with_recon(
                smooth, qp=qp, gop=1, deblock=db)
            mse[db] = float(((recon.astype(np.float64) * 255
                              - smooth) ** 2).mean())
        assert mse[True] < mse[False], (qp, mse)


def test_mp4_mjpeg_roundtrip_and_demux():
    """encode_mp4_mjpeg -> decode_mp4_mjpeg: the ISO-BMFF sample-table
    walk (stsd/stts/stsc/stsz/stco) must recover the exact same JPEG
    payload bytes the AVI container carries, so both decodes are
    bit-identical; mp4_metadata scans without decoding; H.26x sample
    entries raise while the demux itself succeeds."""
    n = 5
    frames = np.stack([
        _jpeg_test_image(24, 32) if k % 2 == 0
        else 255 - _jpeg_test_image(24, 32)
        for k in range(n)
    ])
    raw = multimodal.encode_mp4_mjpeg(frames, fps=8, quality=90)
    assert raw[4:8] == b"ftyp"
    dec, upf = multimodal.decode_mp4_mjpeg(raw)
    assert dec.shape == (n, 24, 32, 3) and upf == 1_000_000 // 8
    # same payloads as the AVI path -> bit-identical decoded frames
    avi_dec, _ = multimodal.decode_avi_mjpeg(
        multimodal.encode_avi_mjpeg(frames, fps=8, quality=90))
    np.testing.assert_array_equal(dec, avi_dec)

    meta = multimodal.mp4_metadata(raw)
    assert meta == {"codec": "jpeg", "n_frames": n, "width": 32,
                    "height": 24, "usec_per_frame": 125_000}

    # container dispatch
    via = multimodal.decode_video(raw)
    np.testing.assert_array_equal(via[0], dec)

    # H.264 sample entry: demux succeeds (metadata works), decode raises
    h264 = raw
    idx = h264.find(b"jpeg", h264.find(b"stsd"))
    h264 = h264[:idx] + b"avc1" + h264[idx + 4:]
    assert multimodal.mp4_metadata(h264)["codec"] == "avc1"
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_mp4_mjpeg(h264)
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_mp4_mjpeg(b"nope")
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_video(b"\x00" * 16)


def test_mp4_multi_chunk_sample_table():
    """A hand-built MP4 whose samples are split across THREE chunks
    with a two-run stsc (2+2 then 1) and interleaved junk between
    chunks — exercises the chunk-offset/prefix-scan path that the
    single-chunk encoder never hits."""
    frames = np.stack([np.full((16, 16, 3), 30 * k + 20, np.uint8)
                       for k in range(5)])
    payloads = [multimodal.encode_jpeg(f, quality=90) for f in frames]

    u32 = lambda v: int(v).to_bytes(4, "big")
    u16 = lambda v: int(v).to_bytes(2, "big")
    box = lambda t, b: u32(8 + len(b)) + t + b
    full = lambda t, vf, b: box(t, u32(vf) + b)

    ftyp = box(b"ftyp", b"isom" + u32(0x200) + b"isomiso2mp41")
    # three mdats: samples [0,1], [2,3], [4], junk 'free' boxes between
    chunks = [payloads[0] + payloads[1], payloads[2] + payloads[3],
              payloads[4]]
    out = bytearray(ftyp)
    offs = []
    for c in chunks:
        out += box(b"free", b"\xAA" * 7)
        offs.append(len(out) + 8)
        out += box(b"mdat", c)

    entry = (b"\x00" * 6 + u16(1) + b"\x00" * 16 + u16(16) + u16(16)
             + u32(0x00480000) + u32(0x00480000) + u32(0)
             + u16(1) + b"\x00" * 32 + u16(24) + u16(0xFFFF))
    stbl = box(b"stbl",
               full(b"stsd", 0, u32(1) + box(b"jpeg", entry))
               + full(b"stts", 0, u32(1) + u32(5) + u32(250_000))
               + full(b"stsc", 0, u32(2)
                      + u32(1) + u32(2) + u32(1)      # chunks 1-2: 2 each
                      + u32(3) + u32(1) + u32(1))     # chunk 3: 1
               + full(b"stsz", 0, u32(0) + u32(5)
                      + b"".join(u32(len(p)) for p in payloads))
               + full(b"stco", 0, u32(3) + b"".join(u32(o) for o in offs)))
    mdia = box(b"mdia",
               full(b"mdhd", 0, u32(0) + u32(0) + u32(1_000_000)
                    + u32(1_250_000) + u16(0x55C4) + u16(0))
               + full(b"hdlr", 0, u32(0) + b"vide" + b"\x00" * 12 + b"v\x00")
               + box(b"minf", stbl))
    moov = box(b"moov", box(b"trak", mdia))

    dec, upf = multimodal.decode_mp4_mjpeg(bytes(out) + moov)
    ref, _ = multimodal.decode_mp4_mjpeg(
        multimodal.encode_mp4_mjpeg(frames, fps=4, quality=90))
    np.testing.assert_array_equal(dec, ref)
    assert upf == 250_000

    # malformed sample tables raise MediaDecodeError, not KeyError:
    # stbl without stsz, and an stsc whose first run skips chunk 1
    for bad_stbl in (
        box(b"stbl", full(b"stsd", 0, u32(1) + box(b"jpeg", entry))),
        box(b"stbl",
            full(b"stsd", 0, u32(1) + box(b"jpeg", entry))
            + full(b"stts", 0, u32(0))
            + full(b"stsc", 0, u32(1) + u32(2) + u32(1) + u32(1))
            + full(b"stsz", 0, u32(0) + u32(0))
            + full(b"stco", 0, u32(0))),
    ):
        bad_mdia = box(b"mdia",
                       full(b"mdhd", 0, u32(0) * 2 + u32(1) + u32(0)
                            + u16(0x55C4) + u16(0))
                       + full(b"hdlr", 0, u32(0) + b"vide"
                              + b"\x00" * 12 + b"v\x00")
                       + box(b"minf", bad_stbl))
        bad = bytes(out) + box(b"moov", box(b"trak", bad_mdia))
        with pytest.raises(multimodal.MediaDecodeError):
            multimodal.mp4_metadata(bad)


def test_video_features_actor_pool():
    clips = []
    for c in range(3):
        frames = np.stack([np.full((16, 16, 3), 40 * c + 10 * k, np.uint8)
                           for k in range(2 + c)])
        enc = (multimodal.encode_mp4_mjpeg if c == 1
               else multimodal.encode_avi_mjpeg)  # mixed containers
        clips.append(enc(frames, fps=5))
    out = (multimodal.video_features(
        ray.data.from_pandas(pd.DataFrame({
            "clip_id": range(3), "media": clips})), concurrency=2)
        .to_pandas().sort_values("clip_id").reset_index(drop=True))
    assert out["n_frames"].tolist() == [2, 3, 4]
    assert out["usec_per_frame"].tolist() == [200_000] * 3
    # flat gray frames -> mean luma close to the gray levels' mean
    exp0 = (0 + 10) / 2 / 255
    assert abs(out.loc[0, "mean_luma"] - exp0) < 0.02


def test_review_fixes_media_edge_cases():
    # 1) WAV dispatch finds fmt even when it is not the first chunk
    t = np.arange(501)
    pcm = (4000 * np.sin(t / 9.0)).astype(np.int16)
    raw = bytearray(multimodal.encode_wav_ima_adpcm(pcm, 8000,
                                                    samples_per_block=101))
    # splice a LIST/INFO chunk directly after "WAVE"
    info = b"LIST" + (4).to_bytes(4, "little") + b"INFO"
    spliced = bytes(raw[:12]) + info + bytes(raw[12:])
    spliced = (b"RIFF" + (len(spliced) - 8).to_bytes(4, "little")
               + spliced[8:])
    s, rate = multimodal.decode_wav(spliced)
    assert rate == 8000 and len(s) == 501

    # 2) short final ADPCM block is decoded, not dropped
    full, _ = multimodal.decode_wav_ima_adpcm(bytes(raw))
    # chop the data chunk to a partial final block and fix sizes
    base = multimodal.encode_wav_ima_adpcm(pcm[:201], 8000,
                                           samples_per_block=101)
    dpos = base.rfind(b"data")
    dlen = int.from_bytes(base[dpos + 4:dpos + 8], "little")
    cut = 20  # drop 20 bytes of the final 53-byte block
    body = base[dpos + 8:dpos + 8 + dlen - cut]
    trimmed = (base[:dpos + 4] + len(body).to_bytes(4, "little") + body)
    trimmed = (b"RIFF" + (len(trimmed) + 2 - 8).to_bytes(4, "little")
               + trimmed[8:] + b"\x00\x00")
    # fact still claims 201 samples; decoder must return what exists
    got, _ = multimodal.decode_wav_ima_adpcm(trimmed)
    assert 101 < len(got) < 201  # partial final block decoded

    # 3) JPEG fill bytes before markers are legal
    img = np.full((8, 8, 3), 50, np.uint8)
    j = multimodal.encode_jpeg(img)
    i = j.find(b"\xff\xc4")
    filled = j[:i] + b"\xff\xff\xff" + j[i:]
    dec = (multimodal.decode_jpeg(filled) * 255).round().astype(np.uint8)
    assert int(np.abs(dec.astype(int) - 50).max()) <= 1

    # 4) truncated restart stream raises MediaDecodeError, not IndexError
    img2 = _jpeg_test_image(24, 24)
    rst = bytearray(multimodal.encode_jpeg(img2, restart_interval=1))
    first_rst = rst.find(b"\xff\xd0")
    broken = bytes(rst[:first_rst + 2]) + b"\xff\xd9"
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_jpeg(broken)

    # 5) a scan covering fewer components than the frame raises cleanly
    j3 = bytearray(multimodal.encode_jpeg(img2))
    sos = j3.find(b"\xff\xda")
    # rewrite SOS to ns=1 (keep total length; truncate comp list)
    ln = 2 + 1 + 2 * 1 + 3
    j3[sos + 2:sos + 4] = ln.to_bytes(2, "big")
    j3[sos + 4] = 1
    body = bytes(j3[:sos + 5 + 2]) + bytes(j3[sos + 2 + 2 + 1 + 6:])
    with pytest.raises(multimodal.MediaDecodeError):
        multimodal.decode_jpeg(body)


def test_mixture_sample_null_groups_default():
    import ray.data

    from ophois_ray.sampling import mixture_sample

    df = pd.DataFrame({"id": np.arange(100, dtype=np.int64),
                       "g": ["a", None] * 50})
    kept = mixture_sample(ray.data.from_pandas(df), "id", "g",
                          {"a": 10000}).to_pandas()
    assert set(kept["g"]) == {"a"}  # nulls -> default_num 0 -> dropped
    assert len(kept) == 50


def test_link_edges_empty_batch_typed():
    from ophois_ray import pages as pageslib

    src = ray.data.from_pandas(pd.DataFrame({
        "url": ["not a url", "also bad"],
        "html": [b"<html><body>plain</body></html>"] * 2,
    }))
    out = pageslib.link_edges(src, num_buckets=4).to_pandas()
    assert len(out) == 0


def test_new_shuffle_ops_layout_invariant(docs):
    # dup_ngram_counts and inverted_index must not depend on block
    # layout (the repo's standard repartition-invariance gate)
    one = (dedup.dup_ngram_counts(docs, n=4).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    many = (dedup.dup_ngram_counts(docs.repartition(13), n=4).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    assert one.equals(many)
    a = (textstats.inverted_index(docs, min_df=2, max_df=395).to_pandas()
         .sort_values("token").reset_index(drop=True))
    b = (textstats.inverted_index(docs.repartition(13), min_df=2,
                                  max_df=395).to_pandas()
         .sort_values("token").reset_index(drop=True))
    assert a.equals(b)


def test_anchor_term_counts_hand_case():
    from ophois_ray import pages as pageslib

    html = (b'<html><body>'
            b'<a href="http://b.example/x">buy cheap buy</a>'
            b'<a href="/rel">skip this</a>'
            b'<a class="z" href="http://c.example/">c page</a>'
            b'</body></html>')
    src = ray.data.from_pandas(pd.DataFrame({
        "url": ["http://a.example/"], "html": [html]}))
    out = (pageslib.anchor_term_counts(src, num_buckets=4).to_pandas()
           .sort_values(["dst_domain", "token"]).reset_index(drop=True))
    assert out.to_dict("records") == [
        {"dst_domain": "b.example", "token": "buy", "n": 2},
        {"dst_domain": "b.example", "token": "cheap", "n": 1},
        {"dst_domain": "c.example", "token": "c", "n": 1},
        {"dst_domain": "c.example", "token": "page", "n": 1},
    ]


def test_domain_reciprocity_detects_mutual_pairs():
    # the sf corpus' link arithmetic yields no mutual pairs (SQL mirror
    # proves that); pin the mutual branch by running the ACTUAL kernel
    # on a hand-built page set
    from ophois_ray import pages as pageslib
    from ophois_ray.queries import reciprocity_from_domain_edges

    html = {
        0: b'<a href="http://site1.example/x">f</a>',
        1: b'<a href="http://site0.example/y">b</a>'
           b'<a href="http://site2.example/z">c</a>',
        2: b'<a href="http://site9.example/w">d</a>',
    }
    src = ray.data.from_pandas(pd.DataFrame({
        "url": [f"http://site{k}.example/p" for k in html],
        "html": list(html.values()),
    }))
    edges = pageslib.link_edges(src, num_buckets=4)
    out = reciprocity_from_domain_edges(edges)
    # directed: 0->1, 1->0, 1->2, 2->9 = 4; pairs: {0,1},{1,2},{2,9};
    # mutual: exactly {0,1}
    assert out.to_dict("records") == [
        {"n_directed": 4, "n_mutual_pairs": 1, "n_pairs": 3}]


def test_compression_ratio_matches_direct_zlib(docs):
    import zlib

    out = (textstats.compression_ratio(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    src = docs.to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp_raw = src["text"].str.encode("utf-8").map(len)
    assert (out["n_bytes"].to_numpy() == exp_raw.to_numpy()).all()
    k = 17  # spot-check a row against a direct zlib call
    assert out.loc[k, "n_zlib"] == len(
        zlib.compress(src.loc[k, "text"].encode("utf-8"), 6))
    # repetitive word soup really compresses (short docs can pay more
    # in deflate overhead than they save, so gate on the bulk)
    assert (out["n_zlib"] < out["n_bytes"]).mean() > 0.9
    assert (out["n_zlib"] > 0).all()
    # rerun determinism (the driver's rows-only check)
    again = (textstats.compression_ratio(docs.repartition(7)).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert out.equals(again)


def test_profile_table_typed_fold_and_nulls():
    from ophois_ray.profiling import profile_table

    # ints whose STRING min would be wrong ("100" < "99"), plus nulls,
    # split across many blocks to force the cross-batch fold
    import pyarrow as pa

    df = pd.DataFrame({
        "k": list(range(99, 199)),
        "s": (["b"] * 50 + [None] * 10 + ["a"] * 40),
    })
    out = profile_table(ray.data.from_pandas(df).repartition(9))
    r = out.set_index("column")
    assert r.loc["k", "min_s"] == "99" and r.loc["k", "max_s"] == "198"
    assert r.loc["k", "n"] == 100 and r.loc["k", "n_null"] == 0
    assert r.loc["s", "n_null"] == 10
    assert r.loc["s", "min_s"] == "a" and r.loc["s", "max_s"] == "b"
    # int column WITH nulls: must stay integer-profiled (the Arrow
    # int64-with-nulls -> float64 pandas degrade must not skip it)
    t = pa.table({"j": pa.array([100, None, 99, None, 150],
                                type=pa.int64())})
    out2 = profile_table(ray.data.from_arrow(t).repartition(3))
    r2 = out2.set_index("column")
    assert r2.loc["j", "n"] == 5 and r2.loc["j", "n_null"] == 2
    assert r2.loc["j", "min_s"] == "99" and r2.loc["j", "max_s"] == "150"


def test_semdedup_matches_bruteforce_oracle(embeds):
    """semdedup_removals vs an O(n^2) python oracle on the real table
    (+ planted near-dups), plus layout invariance and the chunked
    matmul path (chunk smaller than every cluster)."""
    df = embeds.to_pandas()
    vecs = np.stack([np.asarray(v, dtype=np.float64)
                     for v in df["embedding"]])
    ids = df["vec_id"].to_numpy(np.int64)
    m = ids < 25
    dup = vecs[m].copy()
    dup[:, 0] += np.float64(0.05)
    allv = np.vstack([vecs, dup])
    allid = np.concatenate([ids, ids[m] + 1_000_000])

    q = dedup.quantize_embeddings(allv, 12)
    cent_order = np.argsort(allid[allid < 8])
    cent = q[allid < 8][cent_order]
    cl = np.argmax(q @ cent.T, axis=1)
    nrm = np.einsum("ij,ij->i", q, q)
    order = np.argsort(allid)
    expected = {}
    for b_pos in order:
        for a_pos in order:
            if allid[a_pos] >= allid[b_pos] or cl[a_pos] != cl[b_pos]:
                continue
            dot = int(q[a_pos] @ q[b_pos])
            if dot > 0 and dot * dot * 100 >= 81 * int(nrm[a_pos]) * int(nrm[b_pos]):
                if allid[b_pos] not in expected:
                    expected[int(allid[b_pos])] = (int(cl[b_pos]),
                                                   int(allid[a_pos]))
    planted = ray.data.from_pandas(pd.DataFrame({
        "vec_id": allid, "embedding": list(allv)}))
    got = dedup.semdedup_removals(
        planted, cent, shift=12, t_num=81, t_den=100
    ).to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert len(got) == len(expected) > 0
    for _, r in got.iterrows():
        c, a = expected[int(r["vec_id"])]
        assert int(r["cluster"]) == c and int(r["dup_of"]) == a
    # layout invariance + forced chunking
    got2 = dedup.semdedup_removals(
        planted.repartition(7), cent, shift=12, t_num=81, t_den=100,
        chunk=16,
    ).to_pandas().sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, got2)


def test_pq_adc_matches_bruteforce_oracle(embeds):
    """pq_adc_topk (int path) vs a pure-python ADC oracle: quantize,
    assign each subvector to its nearest codeword (ties lowest code),
    dist = sum of per-subspace query-to-codeword d2; layout invariance
    included."""
    df = embeds.to_pandas()
    vecs = np.stack([np.asarray(v, dtype=np.float64)
                     for v in df["embedding"]])
    ids = df["vec_id"].to_numpy(np.int64)
    q = dedup.quantize_embeddings(vecs, 12)
    order8 = np.argsort(ids[ids < 8])
    books = np.ascontiguousarray(
        q[ids < 8][order8].reshape(8, 4, 16).transpose(1, 0, 2))
    qsel = np.argsort(ids[ids < 3])
    queries = vecs[ids < 3][qsel]
    qids = ids[ids < 3][qsel]
    qq = q[ids < 3][qsel].reshape(len(qids), 4, 16)

    # scalar oracle
    n = len(ids)
    sub = q.reshape(n, 4, 16)
    codes = np.empty((n, 4), dtype=np.int64)
    for i in range(n):
        for j in range(4):
            d2 = [int(((sub[i, j] - books[j, c]) ** 2).sum())
                  for c in range(8)]
            codes[i, j] = int(np.argmin(d2))
    exp_rows = []
    for qi in range(len(qids)):
        lut = np.array([[int(((qq[qi, j] - books[j, c]) ** 2).sum())
                         for c in range(8)] for j in range(4)])
        dist = np.array([int(sum(lut[j, codes[i, j]] for j in range(4)))
                         for i in range(n)])
        o = np.lexsort((ids, dist))[:10]
        for r, pos in enumerate(o):
            exp_rows.append((int(qids[qi]), int(ids[pos]),
                             int(dist[pos]), r))
    exp = pd.DataFrame(exp_rows,
                       columns=["query_id", "vec_id", "dist", "rank"])

    got = similarity.pq_adc_topk(
        embeds, queries, books, k=10, shift=12, query_ids=qids
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    got2 = similarity.pq_adc_topk(
        embeds.repartition(7), queries, books, k=10, shift=12,
        query_ids=qids).reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, exp)


def test_pq_encode_and_train(embeds):
    """pq_encode codes equal the oracle assignment; pq_train is
    layout-invariant (bit-identical books across repartitions), keeps
    codebook shape, and one Lloyd round strictly lowers (or keeps) the
    total quantization error vs the seed books."""
    df = embeds.to_pandas()
    vecs = np.stack([np.asarray(v, dtype=np.float64)
                     for v in df["embedding"]])
    ids = df["vec_id"].to_numpy(np.int64)
    q = dedup.quantize_embeddings(vecs, 12)
    order8 = np.argsort(ids[ids < 8])
    books = np.ascontiguousarray(
        q[ids < 8][order8].reshape(8, 4, 16).transpose(1, 0, 2))

    enc = (similarity.pq_encode(embeds, books, shift=12)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    srt = np.argsort(ids)
    sub = q[srt].reshape(len(ids), 4, 16)
    for j in range(4):
        d2 = (np.einsum("ij,ij->i", sub[:, j], sub[:, j])[:, None]
              - 2 * sub[:, j] @ books[j].T
              + np.einsum("ij,ij->i", books[j], books[j])[None, :])
        np.testing.assert_array_equal(
            enc[f"code_{j}"].to_numpy(), np.argmin(d2, axis=1))

    t1 = similarity.pq_train(embeds, m=4, n_codes=8, iters=2)
    t2 = similarity.pq_train(embeds.repartition(5), m=4, n_codes=8,
                             iters=2)
    assert t1.shape == (4, 8, 16)
    np.testing.assert_array_equal(t1, t2)

    def total_err(bk):
        e = 0.0
        s = vecs.reshape(len(vecs), 4, 16)
        for j in range(4):
            d2 = (np.einsum("ij,ij->i", s[:, j], s[:, j])[:, None]
                  - 2.0 * s[:, j] @ bk[j].T
                  + np.einsum("ij,ij->i", bk[j], bk[j])[None, :])
            e += d2.min(axis=1).sum()
        return e

    t0 = similarity.pq_train(embeds, m=4, n_codes=8, iters=0)
    assert total_err(t1) <= total_err(t0) + 1e-9
    # float ADC path smoke: with trained books a query's own row ranks
    # in its top-10 (reconstruction keeps self near-closest)
    out = similarity.pq_adc_topk(
        embeds, vecs[:2], t1, k=10, shift=None,
        query_ids=ids[:2])
    assert out["dist"].dtype == np.float64
    for qi in ids[:2]:
        grp = out[out["query_id"] == qi]
        assert int(qi) in grp["vec_id"].tolist()


def test_bpe_train_matches_scalar_sennrich_oracle(docs):
    """bpe_train (distributed word counts + incremental-index merge
    loop) vs a naive quadratic re-count Sennrich oracle on the real
    corpus; layout invariance; segmentation roundtrip + consistency
    with the learned merges."""
    from collections import Counter

    df = docs.to_pandas()
    wc = Counter()
    for t in df["text"]:
        if isinstance(t, str):
            wc.update(w for w in textstats._BPE_RE.findall(t)
                      if not w.isspace())
    vocab = {tuple(w) + ("</w>",): n for w, n in wc.items()}

    def naive(vocab, n_merges):
        words = {k: (list(k), n) for k, n in vocab.items()}
        merges = []
        for _ in range(n_merges):
            pc = Counter()
            for syms, n in words.values():
                for p in zip(syms, syms[1:]):
                    pc[p] += n
            if not pc:
                break
            (la, rb), cnt = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
            merges.append((la, rb, cnt))
            for k, (syms, n) in words.items():
                i, out = 0, []
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == la
                            and syms[i + 1] == rb):
                        out.append(la + rb)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                words[k] = (out, n)
        return merges

    exp = naive(vocab, 40)
    got = textstats.bpe_train(docs, 40)
    assert (list(zip(got["left"], got["right"],
                     got["count"].astype(int))) == exp)
    got2 = textstats.bpe_train(docs.repartition(7), 40)
    pd.testing.assert_frame_equal(got, got2)

    # segmentation: concatenating a word's tokens reproduces word+</w>,
    # and scalar _bpe_segment_word agrees with the distributed counts
    ranks = {(l, r): int(k) for k, l, r in
             zip(got["rank"], got["left"], got["right"])}
    seg_counts = Counter()
    for w, n in wc.items():
        toks = textstats._bpe_segment_word(w, ranks)
        assert "".join(toks) == w + "</w>"
        for tk in toks:
            seg_counts[tk] += n
    out = (textstats.bpe_segment_counts(docs, got)
           .to_pandas().sort_values("token").reset_index(drop=True))
    assert dict(zip(out["token"], out["n"])) == dict(seg_counts)


def test_bpe_merge_loop_overlaps_and_caps():
    """Overlapping pairs ('aaaa'), max_vocab bounding, and empty/exhausted
    corpora."""
    merges = textstats._bpe_merge_loop({("a", "a", "a", "a", "</w>"): 3}, 10)
    # round 1: (a,a) count 9 (3 adjacent occurrences x3); greedy
    # left-to-right replace -> aa aa </w>
    assert merges[0] == ("a", "a", 9)
    # tie at 3 between (aa,aa) and (aa,</w>): lexicographic rule picks
    # (aa,</w>) — '<' sorts before 'a'
    assert merges[1] == ("aa", "</w>", 3)
    assert merges[2] == ("aa", "aa</w>", 3)
    assert len(merges) == 3  # exhausted: single symbol left per word

    src = ray.data.from_pandas(pd.DataFrame({
        "text": ["xy xy xy zq", "zq pp"]}))
    m_all = textstats.bpe_train(src, 5)
    m_cap = textstats.bpe_train(src, 5, max_vocab=1)
    # cap keeps only the most frequent word ('xy' x3? note leading-space
    # pretokens: ' xy' differs from 'xy') — the cap must shrink the
    # learned table, deterministically
    assert len(m_cap) <= len(m_all)
    assert (m_cap["count"] <= m_all["count"].max()).all()


def test_resize_bilinear_and_nearest():
    """Scalar-oracle bilinear at a known 2x case, identity resize
    exactness, linear-ramp preservation, nearest bit-exactness, and
    the actor-pool plumbing (decode ppm -> resize -> pooled features)."""
    # identity: out == in exactly (fr/fc are all 0)
    img = np.arange(24 * 2, dtype=np.float64).reshape(4, 6, 2)
    np.testing.assert_array_equal(
        multimodal.resize_bilinear(img, 4, 6), img)
    # a horizontal linear ramp stays linear under any width
    ramp = np.tile(np.arange(8.0)[None, :, None], (3, 1, 1))
    up = multimodal.resize_bilinear(ramp, 3, 16)
    d = np.diff(up[0, 1:-1, 0])
    np.testing.assert_allclose(d, d[0])
    # scalar oracle: 1x2 -> 1x4 with half-pixel centers
    two = np.array([[[0.0], [10.0]]])
    np.testing.assert_allclose(
        multimodal.resize_bilinear(two, 1, 4)[0, :, 0],
        [0.0, 2.5, 7.5, 10.0])
    # nearest: every output pixel IS an input pixel; 2x upscale
    # replicates each pixel 2x2
    src = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    nn = multimodal.resize_nearest(src, 4, 4)
    assert nn.dtype == np.uint8
    np.testing.assert_array_equal(nn, np.repeat(np.repeat(src, 2, 0), 2, 1))

    # plumbing: ppm decode -> bilinear resize to 8x8 -> pooled features
    rng = np.random.RandomState(7)
    imgs = [(rng.rand(h, w, 3) * 255).astype(np.uint8)
            for h, w in [(5, 9), (16, 4), (8, 8)]]
    src_df = pd.DataFrame({
        "media_id": range(3),
        "media": [multimodal.encode_ppm(i) for i in imgs]})
    out = (multimodal.pooled_features(
        multimodal.resize_images(
            multimodal.decode_images(
                ray.data.from_pandas(src_df), mode="ppm", concurrency=2),
            8, 8, concurrency=2),
        grid=2)
        .to_pandas().sort_values("media_id"))
    assert all(len(f) == 12 for f in out["features"])
    # the 8x8 input passes through resize unchanged -> features equal
    # direct pooling of the decoded image
    direct = imgs[2].astype(np.float64) / 255.0
    exp = np.stack([direct[a:a+4, b:b+4].mean(axis=(0, 1))
                    for a in (0, 4) for b in (0, 4)]).ravel()
    np.testing.assert_allclose(out.iloc[2]["features"], exp)


def test_train_linear_matches_scalar_gd_oracle(docs):
    """Distributed full-batch GD == driver-side numpy GD on the same
    hashed features (allclose — float partial-sum order differs);
    planted-marker training reaches a perfectly diagonal confusion
    table; reruns are bit-identical; empty-label raises."""
    from ophois_ray import classifier

    df = docs.to_pandas()[["doc_id", "text", "lang"]]
    df["text"] = [t + (" mk" + l) * 8
                  for t, l in zip(df["text"], df["lang"])]
    langs = ["de", "en", "es", "fr", "zh"]
    B = 1 << 15

    # scalar oracle: same features, same math, one flat loop
    rows = classifier._feature_rows(df["text"].tolist(), B)
    y = np.array([langs.index(l) for l in df["lang"]])
    w_ref = np.zeros((5, B))
    for _ in range(3):
        s = classifier._scores(rows, w_ref)
        s -= s.max(axis=1, keepdims=True)
        p = np.exp(s); p /= p.sum(axis=1, keepdims=True)
        g = np.zeros_like(w_ref)
        for i, (ids, vals) in enumerate(rows):
            if len(ids) == 0:
                continue
            coef = p[i].copy(); coef[y[i]] -= 1.0
            g[:, ids] += coef[:, None] * vals[None, :]
        w_ref -= 400.0 * (g / len(rows))

    src = ray.data.from_pandas(df).repartition(5)
    w, losses = classifier.train_linear(src, langs, epochs=3, lr=400.0)
    np.testing.assert_allclose(w, w_ref, rtol=1e-9, atol=1e-12)
    assert losses[0] > losses[-1]

    w2, losses2 = classifier.train_linear(src, langs, epochs=3, lr=400.0)
    np.testing.assert_array_equal(w, w2)
    assert losses == losses2

    wf, _ = classifier.train_linear(src, langs, epochs=10, lr=400.0)
    conf = classifier.confusion_counts(src, wf, langs)
    assert (conf["label"] == conf["pred"]).all()
    assert conf["n"].sum() == len(df)
    pred = (classifier.predict(src, wf, langs)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (pred["pred"].to_numpy()
            == df.sort_values("doc_id")["lang"].to_numpy()).all()

    with pytest.raises(ValueError):
        classifier.train_linear(
            ray.data.from_pandas(pd.DataFrame(
                {"doc_id": [1], "text": ["a b"], "lang": ["xx"]})),
            langs, epochs=1)


def test_paragraph_dup_stats_hand_case_and_layout():
    from ophois_ray import textstats

    # doc 0: "aa" twice (within-doc dup) + unique "x"
    # doc 1: "aa" (cross-doc dup) + unique "yy"
    # doc 2: all unique
    paras = pd.DataFrame({
        "doc_id": np.array([0, 0, 0, 1, 1, 2], dtype=np.int64),
        "para": ["aa", "aa", "x", "aa", "yy", "zzz"],
    })
    exp = {
        0: (3, 2, 4),   # n_paras, n_dup, dup_chars (two "aa" occurrences)
        1: (2, 1, 2),
        2: (1, 0, 0),
    }
    for nparts in (1, 5):
        got = (
            textstats.paragraph_dup_stats(
                ray.data.from_pandas(paras).repartition(nparts),
                num_buckets=4)
            .to_pandas().set_index("doc_id").sort_index()
        )
        assert {int(i): (int(r.n_paras), int(r.n_dup), int(r.dup_chars))
                for i, r in got.iterrows()} == exp
        assert all(got[c].dtype == np.int64
                   for c in ("n_paras", "n_dup", "dup_chars"))


def test_phash64_properties():
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, (40, 56, 3)).astype(np.uint8)
    h = multimodal.phash64(img)
    pc = lambda a, b: bin(int(a) ^ int(b)).count("1")
    # deterministic
    assert multimodal.phash64(img) == h
    # brightness shift moves only the DC coefficient -> tiny hamming
    shifted = np.clip(img.astype(np.int64) + 9, 0, 255).astype(np.uint8)
    assert pc(h, multimodal.phash64(shifted)) <= 3
    # unrelated content is ~32 bits away
    other = rng.randint(0, 256, (40, 56, 3)).astype(np.uint8)
    assert pc(h, multimodal.phash64(other)) > 10
    # grayscale path accepted
    gray = (img @ np.array([0.299, 0.587, 0.114])).astype(np.float64)
    assert multimodal.phash64(gray) == h


def test_image_phash_neardup_pipeline_matches_scalar_oracle():
    """The distributed decode->phash->band pipeline must equal the
    sequential scalar oracle (phash64 on the same constructed corpus +
    brute-force hamming filter), on every block layout."""
    from ophois_ray import queries

    sf = "/root/testdata/sf0.001"
    got = queries.q_image_phash_neardup(sf)

    # sequential oracle over the same deterministic image corpus
    import duckdb
    ids = duckdb.sql(
        f"SELECT doc_id FROM read_parquet('{sf}/documents.parquet')"
    ).df()["doc_id"].to_numpy(np.int64)
    hashes = {}
    for k in ids:
        leader = int(k - k % 7)
        rng = np.random.RandomState(leader % (1 << 31))
        base = rng.randint(0, 256, (48, 64, 3)).astype(np.int64)
        t = int(k % 7)
        tilt = (np.linspace(0, 2 * t, 64)[None, :, None]
                + np.linspace(0, t, 48)[:, None, None])
        img = np.clip(base + tilt.astype(np.int64), 0, 255).astype(np.uint8)
        # through the same real codec roundtrip as the pipeline
        hashes[int(k)] = multimodal.phash64(
            multimodal.decode_netpbm(multimodal.encode_ppm(img)))
    exp = []
    sids = sorted(hashes)
    for i, a in enumerate(sids):
        for b in sids[i + 1:]:
            ham = bin(int(hashes[a]) ^ int(hashes[b])).count("1")
            if ham <= 3:
                exp.append((a, b, ham))
    exp.sort()
    assert exp, "fixture must plant at least one near-dup pair"
    got_t = sorted(zip(got["id_a"].astype(int), got["id_b"].astype(int),
                       got["hamming"].astype(int)))
    assert got_t == exp
    # near-dups are exactly the planted leader groups
    assert all(a - a % 7 == b - b % 7 for a, b, _ in exp)


def test_video_phash_neardup_pipeline_matches_scalar_oracle():
    """Distributed AVI-decode -> video-phash -> banding pipeline ==
    sequential scalar oracle on the same constructed clip corpus."""
    from ophois_ray import queries

    sf = "/root/testdata/sf0.001"
    got = queries.q_video_phash_neardup(sf)

    import duckdb
    ids = duckdb.sql(
        f"SELECT doc_id FROM read_parquet('{sf}/documents.parquet')"
    ).df()["doc_id"].to_numpy(np.int64)
    ids = ids[ids % 4 == 0]  # the query's deterministic clip subsample
    sigs = {}
    for k in ids:
        leader = int(k - k % 5)
        rng = np.random.RandomState((leader + 77) % (1 << 31))
        base = rng.randint(0, 256, (32, 48, 3)).astype(np.int64)
        t = int(k % 5)
        tilt = (np.linspace(0, 2 * t, 48)[None, :, None]
                + np.linspace(0, t, 32)[:, None, None]).astype(np.int64)
        frames = np.stack([
            np.clip(np.roll(base, f, axis=1) + tilt, 0, 255).astype(np.uint8)
            for f in range(4)])
        raw = multimodal.encode_avi_mjpeg(frames, fps=10, quality=85)
        sigs[int(k)] = multimodal.video_phash64(
            multimodal.decode_avi_mjpeg(raw)[0])
    exp = []
    sids = sorted(sigs)
    for i, a in enumerate(sids):
        for b in sids[i + 1:]:
            ham = bin(int(sigs[a]) ^ int(sigs[b])).count("1")
            if ham <= 3:
                exp.append((a, b, ham))
    exp.sort()
    assert exp, "fixture must plant at least one near-dup pair"
    got_t = sorted(zip(got["id_a"].astype(int), got["id_b"].astype(int),
                       got["hamming"].astype(int)))
    assert got_t == exp
    assert all(a - a % 5 == b - b % 5 for a, b, _ in exp)


def test_audio_fingerprint_neardup_matches_scalar_oracle():
    """Distributed WAV-decode -> landmark -> posting-list pipeline ==
    sequential scalar oracle (set-intersection counts) on the same
    constructed clip corpus."""
    from ophois_ray import queries

    sf = "/root/testdata/sf0.001"
    got = queries.q_audio_fingerprint_neardup(sf)

    import duckdb
    ids = duckdb.sql(
        f"SELECT doc_id FROM read_parquet('{sf}/documents.parquet')"
    ).df()["doc_id"].to_numpy(np.int64)
    ids = ids[ids % 3 == 0]
    rate = 8000
    seg = rate // 16
    t = np.arange(seg)
    lms = {}
    for k in ids:
        leader = int(k - k % 6)
        rng = np.random.RandomState((leader + 131) % (1 << 31))
        tones = rng.uniform(200, 3500, 16)
        base = np.concatenate(
            [np.sin(2 * np.pi * f * t / rate) for f in tones])
        rngd = np.random.RandomState((int(k) + 7) % (1 << 31))
        x = base * (1.0 + 0.05 * int(k % 6)) + rngd.normal(0, 0.05, len(base))
        pcm = np.clip(x / 2.0 * 32767, -32768, 32767).astype(np.int16)
        raw = multimodal.encode_wav_pcm16(pcm[:, None], rate)
        samples, _r = multimodal.decode_wav(raw)
        lms[int(k)] = set(multimodal.audio_landmarks(samples).tolist())
    exp = []
    sids = sorted(lms)
    for i, a in enumerate(sids):
        for b in sids[i + 1:]:
            s = len(lms[a] & lms[b])
            if s >= 20:
                exp.append((a, b, s))
    exp.sort()
    assert exp, "fixture must plant at least one near-dup pair"
    got_t = sorted(zip(got["id_a"].astype(int), got["id_b"].astype(int),
                       got["n_shared"].astype(int)))
    assert got_t == exp
    assert all(a - a % 6 == b - b % 6 for a, b, _ in exp)


def test_ivf_pq_topk_full_probe_equals_pq_adc_and_layout():
    """nprobe == n_centroids scores every vector -> bit-identical to
    pq_adc_topk on the same codebooks; result invariant to block
    layout; nprobe < n keeps self-matches (a vector is always in its
    own assigned list)."""
    rng = np.random.RandomState(5)
    n, d = 120, 16
    vecs = rng.normal(0, 1, (n, d))
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [v for v in vecs]})
    ds = ray.data.from_pandas(df).repartition(6)
    queries = vecs[:4]
    cent = similarity.train_ivf_centroids(ds, 4, iters=2)
    books = similarity.pq_train(ds, m=4, n_codes=8, iters=2)

    full = similarity.ivf_pq_topk(ds, queries, cent, books, k=5,
                                  nprobe=len(cent))
    ref = similarity.pq_adc_topk(ds, queries, books, k=5, shift=None)
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  ref.reset_index(drop=True))

    one = similarity.ivf_pq_topk(ray.data.from_pandas(df), queries, cent,
                                 books, k=5, nprobe=len(cent))
    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  one.reset_index(drop=True))

    probed = similarity.ivf_pq_topk(ds, queries, cent, books, k=5,
                                    nprobe=2)
    # rank-0 rows: each query's own vector is in a probed list and at
    # ADC distance 0 of itself
    top = probed[probed["rank"] == 0]
    assert set(top["query_id"]) == {0, 1, 2, 3}


def test_dup_span_stats_hand_case_and_layout():
    """Island math: doc 0 has two duplicated 2-gram positions that are
    ADJACENT (one span covering 3 tokens) plus one isolated (span of
    2); doc 1 shares the grams. covered = n_dup_pos + n_spans*(n-1)."""
    docs = pd.DataFrame({
        "doc_id": np.array([0, 1], dtype=np.int64),
        # doc0 2-grams: 'a b','b c','c x','x y' ; doc1: 'a b','b c','q r','x y'
        "text": ["a b c x y", "a b c q r x y"],
    })
    # duplicated grams: 'a b','b c' (both docs), 'x y' (both docs)
    # doc0 dup positions: 1,2 adjacent + 4 isolated -> spans 2, covered 3+2*1=5
    # doc1 dup positions: 1,2 adjacent + 6 isolated -> spans 2, covered 5
    for nparts in (1, 3):
        got = (dedup.dup_span_stats(
            ray.data.from_pandas(docs).repartition(nparts), n=2)
            .to_pandas().set_index("doc_id").sort_index())
        for d in (0, 1):
            assert (int(got.loc[d, "n_dup_pos"]),
                    int(got.loc[d, "n_spans"]),
                    int(got.loc[d, "covered_tokens"])) == (3, 2, 5)


def _kmeans_scalar_reference(ids, X, k, iters):
    """Single-process transcription of similarity.kmeans_int over an
    already-quantized int64 matrix (seed = k smallest ids, exact int
    distances, ties to lowest cid, floor-div update, empty carry)."""
    order = np.argsort(ids, kind="stable")[:k]
    C = X[order].astype(np.int64)
    for t in range(iters + 1):  # iters updates + final assignment
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        if t == iters:
            break
        nxt = C.copy()
        for cid in range(k):
            sel = X[assign == cid]
            if len(sel):
                nxt[cid] = sel.sum(axis=0) // len(sel)
        C = nxt
    return assign, C


def _quantize_ref(mat):
    return np.clip(np.floor((mat.astype(np.float64) + 1.0) * 512.0),
                   0, 1023).astype(np.int64)


def test_kmeans_int_matches_scalar_reference(embeds):
    full = embeds.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    ids = full["vec_id"].to_numpy(np.int64)
    X = _quantize_ref(mat)
    exp_assign, exp_C = _kmeans_scalar_reference(ids, X, k=8, iters=2)
    summary, C = similarity.kmeans_int(embeds, k=8, iters=2)
    assert (C == exp_C).all()
    exp_counts = np.bincount(exp_assign, minlength=8)
    assert (summary["n_points"].to_numpy() == exp_counts).all()
    exp_idsum = np.zeros(8, dtype=np.int64)
    np.add.at(exp_idsum, exp_assign, ids)
    assert (summary["id_sum"].to_numpy() == exp_idsum).all()
    assert (summary["cnorm2"].to_numpy() == (exp_C * exp_C).sum(axis=1)).all()


def test_kmeans_int_layout_invariant(embeds):
    s1, c1 = similarity.kmeans_int(embeds, k=5, iters=2)
    s2, c2 = similarity.kmeans_int(embeds.repartition(7), k=5, iters=2)
    assert (c1 == c2).all()
    assert s1.equals(s2)


def test_kmeans_int_separates_planted_blobs(ray_session):
    # two tight blobs far apart on the grid; k=2 must split them
    rng = np.random.default_rng(7)
    a = rng.uniform(-0.9, -0.7, size=(40, 8))
    b = rng.uniform(0.7, 0.9, size=(40, 8))
    rows = [{"vec_id": i, "embedding": v.astype(np.float32)}
            for i, v in enumerate(np.vstack([a, b]))]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    summary, C = similarity.kmeans_int(ds, k=2, iters=3)
    assert sorted(summary["n_points"]) == [40, 40]
    # blob a holds ids 0..39 (sum 780), blob b ids 40..79 (sum 2380)
    assert sorted(summary["id_sum"]) == [780, 2380]


def test_kmeans_int_empty_cluster_carries_seed(ray_session):
    # 3 identical points, k=2: everything assigns to cid 0 (tie ->
    # lowest), cluster 1 goes empty and must keep its seed centroid
    v = np.full(4, 0.5, dtype=np.float32)
    ds = ray.data.from_pandas(pd.DataFrame(
        [{"vec_id": i, "embedding": v} for i in range(3)]))
    summary, C = similarity.kmeans_int(ds, k=2, iters=2)
    assert summary["n_points"].tolist() == [3, 0]
    assert (C[0] == C[1]).all()   # carried seed == identical point


def test_ivf_topk_int_full_probe_matches_full_scan(embeds):
    # nprobe == n_centroids scores every vector -> must equal the
    # exact unpartitioned int ranking
    full = embeds.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full["embedding"]])
    ids = full["vec_id"].to_numpy(np.int64)
    X = _quantize_ref(mat)
    got = similarity.ivf_topk_int(embeds, np.array([0, 1, 2]), k=10,
                                  nprobe=8, n_centroids=8, iters=2)
    for qid in (0, 1, 2):
        q = X[ids == qid][0]
        d2 = ((X - q) ** 2).sum(axis=1)
        order = np.lexsort((ids, d2))[:10]
        sub = got[got["query_id"] == qid].sort_values("rank")
        assert (sub["vec_id"].to_numpy() == ids[order]).all()
        assert (sub["dist"].to_numpy() == d2[order]).all()


def test_ivf_topk_int_layout_invariant_and_probed_subset(embeds):
    a = similarity.ivf_topk_int(embeds, np.array([0, 1, 2]), k=10,
                                nprobe=3, n_centroids=8, iters=2)
    b = similarity.ivf_topk_int(embeds.repartition(7), np.array([0, 1, 2]),
                                k=10, nprobe=3, n_centroids=8, iters=2)
    assert a.equals(b)
    # probed ranking is a sub-ranking of the full scan: each returned
    # dist must be >= the full-scan dist at the same rank
    fullscan = similarity.ivf_topk_int(embeds, np.array([0, 1, 2]), k=10,
                                       nprobe=8, n_centroids=8, iters=2)
    m = a.merge(fullscan, on=["query_id", "rank"], suffixes=("_p", "_f"))
    assert (m["dist_p"] >= m["dist_f"]).all()
    # every query's self-match (dist 0) is always found
    self_rows = a[a["dist"] == 0]
    assert set(self_rows["query_id"]) == {0, 1, 2}


def test_ilog2_exact_matches_bit_length():
    xs = np.array([1, 2, 3, 7, 8, 1023, 1024, (1 << 53) - 1, 1 << 53,
                   (1 << 62) - 1, 1 << 62], dtype=np.int64)
    got = textstats._ilog2_exact(xs)
    exp = np.array([int(x).bit_length() - 1 for x in xs], dtype=np.int64)
    assert (got == exp).all()
    # float log2 would misround (1<<62)-1 up to 62; the exact kernel doesn't
    assert got[-2] == 61


def test_dsir_weights_prefers_target_like_docs(ray_session):
    rows = []
    # target corpus: english-ish unigrams
    for i in range(20):
        rows.append({"doc_id": i, "lang": "en",
                     "text": "the quick brown fox jumps over the lazy dog"})
    # raw doc 100 shares the target vocabulary; raw doc 101 is disjoint
    rows.append({"doc_id": 100, "lang": "de",
                 "text": "the quick brown fox jumps over the lazy dog"})
    rows.append({"doc_id": 101, "lang": "de",
                 "text": "xq zv wq kj pq mn vb xz qq"})
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = textstats.dsir_weights(ds).to_pandas().set_index("doc_id")
    assert set(out.index) == {100, 101}
    # same token count, so the per-token normalization is moot here
    assert out.loc[100, "n_tokens"] == out.loc[101, "n_tokens"]
    assert out.loc[100, "dsir_w"] > out.loc[101, "dsir_w"]


def test_dsir_weights_layout_invariant(docs):
    a = textstats.dsir_weights(docs).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    b = textstats.dsir_weights(docs.repartition(7)).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert a.equals(b)


def test_minhash_band_batch_bit_identical_to_scalar(docs):
    full = docs.to_pandas()
    a, b = dedup._perm_params(64, 7)
    ref = dedup._minhash_band_rows_scalar(
        full["doc_id"].to_numpy(), full["text"], 5, a, b, 16)
    got = dedup._minhash_band_batch(
        full["doc_id"].to_numpy(), full["text"], 5, a, b, 16)
    assert ref.reset_index(drop=True).equals(got.reset_index(drop=True))
    # short / empty / non-string edge rows hash via the same convention
    ids = np.array([1, 2, 3], dtype=np.int64)
    texts = pd.Series(["ab", "", None])
    assert dedup._minhash_band_rows_scalar(ids, texts, 5, a, b, 16).equals(
        dedup._minhash_band_batch(ids, texts, 5, a, b, 16))


def test_shingle_sets_batch_bit_identical(docs):
    full = docs.to_pandas().head(100)
    got = dedup._shingle_sets_batch(full["text"], 5)
    exp = [dedup._shingle_hashes(t, 5).tobytes() for t in full["text"]]
    assert got == exp
    assert dedup._shingle_sets_batch(pd.Series(["ab", "", None]), 5) == [
        dedup._shingle_hashes(t, 5).tobytes() for t in ["ab", "", None]]


def test_dictionary_tag_counts_exact(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame([
        {"doc_id": 1, "text": "spark hash spark zz"},
        {"doc_id": 2, "text": "nothing matches here"},
        {"doc_id": 3, "text": "hash"},
    ]))
    out = (textstats.dictionary_tag(ds, ("spark", "hash"))
           .to_pandas().sort_values(["doc_id", "term"], ignore_index=True))
    exp = pd.DataFrame({"doc_id": np.array([1, 1, 3], dtype=np.int64),
                        "term": ["hash", "spark", "hash"],
                        "n_mentions": np.array([1, 2, 1], dtype=np.int64)})
    assert out.equals(exp)


def test_warc_roundtrip_offsets_and_framing():
    """warc.build_warc / iter_warc: gzip-member and plain shards
    roundtrip byte-exactly; (offset, stored_size) slices re-read a
    single gzip member (the CDX seek contract); Content-Length drives
    framing (payloads embedding CRLF-CRLF + 'WARC/1.0' parse clean);
    truncation and multi-record members raise WarcFormatError."""
    from ophois_ray import warc

    recs = [
        {"uri": "https://a.example/x", "date": "2024-01-01T00:00:07Z",
         "payload": b"hello \r\n\r\nWARC/1.0 not a record \r\n\r\n tail"},
        {"uri": "https://b.example/y", "date": "2024-01-01T00:00:08Z",
         "payload": b""},
        {"uri": "https://c.example/z", "date": "2024-01-01T00:00:09Z",
         "payload": bytes(range(97, 123)) * 40},
    ]
    for gz in (True, False):
        raw = warc.build_warc(recs, gzip_members=gz)
        got = list(warc.iter_warc(raw))
        assert len(got) == 3
        for r, g in zip(recs, got):
            assert g["payload"] == r["payload"]
            assert g["headers"]["warc-target-uri"] == r["uri"]
            assert g["headers"]["warc-date"] == r["date"]
            assert int(g["headers"]["content-length"]) == len(r["payload"])
        # offsets tile the shard exactly
        assert got[0]["offset"] == 0
        for a, b in zip(got, got[1:]):
            assert b["offset"] == a["offset"] + a["stored_size"]
        assert got[-1]["offset"] + got[-1]["stored_size"] == len(raw)
        # CDX seek: one member/record re-reads standalone
        mid = raw[got[1]["offset"]:got[1]["offset"] + got[1]["stored_size"]]
        solo = list(warc.iter_warc(mid))
        assert len(solo) == 1 and solo[0]["payload"] == recs[1]["payload"]
    # truncated payload raises
    plain = warc.build_warc(recs[:1], gzip_members=False)
    with pytest.raises(warc.WarcFormatError):
        list(warc.iter_warc(plain[:-6]))
    # two records in ONE gzip member violate the CC convention
    import zlib
    body = warc.build_warc(recs[:2], gzip_members=False)
    co = zlib.compressobj(6, zlib.DEFLATED, 31)
    with pytest.raises(warc.WarcFormatError, match="more than one"):
        list(warc.iter_warc(co.compress(body) + co.flush()))
    # header without Content-Length raises
    bad = b"WARC/1.0\r\nWARC-Type: response\r\n\r\n\r\n\r\n"
    with pytest.raises(warc.WarcFormatError, match="Content-Length"):
        list(warc.iter_warc(bad))


def test_funnel_counts_hand_semantics():
    """windows.funnel_counts: strict-after anchoring, 7-day window vs
    the FIRST anchor, per-user mins; completers counted per step."""
    from ophois_ray.windows import funnel_counts

    D = 86_400_000_000  # one day in us
    rows = [
        # user 1: clean view(d0) -> click(d1) -> purchase(d2)
        (1, "view", 0), (1, "click", D), (1, "purchase", 2 * D),
        # user 2: click BEFORE the first view never counts; the later
        # click does; purchase exactly AT the click ts is NOT strictly
        # after -> step 3 not completed
        (2, "click", 0), (2, "view", D), (2, "click", 3 * D),
        (2, "purchase", 3 * D),
        # user 3: purchase outside the 7-day window from the view
        (3, "view", 0), (3, "click", D), (3, "purchase", 9 * D),
        # user 4: view only
        (4, "view", 5),
        # user 5: no view at all -> never enters
        (5, "click", 0), (5, "purchase", D),
    ]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"user_id": np.array([r[0] for r in rows], np.int64),
         "event_type": [r[1] for r in rows],
         "us": np.array([r[2] for r in rows], np.int64)})).repartition(3)
    got = funnel_counts(ds, ["view", "click", "purchase"], num_buckets=4)
    # step1: users 1-4; step2: 1,2,3 (lags D, 2D, D); step3: only 1 (2D)
    assert got.to_dict("records") == [
        {"step": 1, "users": 4, "sum_lag_us": 0},
        {"step": 2, "users": 3, "sum_lag_us": 4 * D},
        {"step": 3, "users": 1, "sum_lag_us": 2 * D}]


def test_h264_deblock_slice_offsets_end_to_end():
    """Nonzero slice_alpha_c0_offset_div2 / slice_beta_offset_div2
    must shift indexA/indexB through the whole decode path: the same
    hand-crafted PCM-reference + P_L0 stream as the deblock oracle
    query, but with offsets (-2, +4), decoded and compared against a
    scalar closed form evaluated at the shifted indices. At qp 20 the
    bS-1 edge sits right at the alpha knee (indexA 18 vs 20), so a
    decoder that drops or mis-signs the offsets changes the sums."""
    mm = multimodal
    off_a_div2, off_b_div2 = -1, 2            # offsets -2 and +4

    def craft(k):
        qp = [20, 28, 36, 44][k % 4]
        m = [4, 8, 16, 32][k // 4 % 4]
        base = 80 + k % 40
        s1 = 1 + (k % 2)
        s2 = -1 - (k // 2 % 2)
        xx, yy = np.meshgrid(np.arange(64), np.arange(16))
        pat = lambda xs: (base + ((xs * 5 + yy * 3) % m)).astype(np.uint8)
        ref = pat(xx)
        start = b"\x00\x00\x00\x01"
        out = start + b"\x67" + mm._ebsp_escape(
            mm._h264_sps_rbsp(4, 1, 0, 0, 10))
        out += start + b"\x68" + mm._ebsp_escape(mm._h264_pps_rbsp())
        w = mm._H264BitWriter()
        w.ue(0); w.ue(7); w.ue(0); w.u(0, 4); w.ue(0)
        w.u(0, 1); w.u(0, 1); w.se(qp - 26)
        w.ue(0); w.se(off_a_div2); w.se(off_b_div2)
        flat = np.full((8, 8), 128, np.uint8).tobytes()
        for mbx in range(4):
            w.ue(25); w.align_zero()
            w.raw_bytes(ref[:, 16 * mbx:16 * mbx + 16].tobytes())
            w.raw_bytes(flat); w.raw_bytes(flat)
        w.trailing()
        out += start + b"\x65" + mm._ebsp_escape(bytes(w.buf))
        w = mm._H264BitWriter()
        w.ue(0); w.ue(5); w.ue(0); w.u(1, 4)
        w.u(0, 1); w.u(0, 1); w.u(0, 1)
        w.se(qp - 26)
        w.ue(0); w.se(off_a_div2); w.se(off_b_div2)
        refg = np.full((1, 4), -1, np.int64)
        mvg = np.zeros((1, 4, 2), np.int64)
        mvs = {0: (0, 0), 1: (4 * s1, 0), 3: (0, 0)}
        for mbx in range(4):
            if mbx == 2:
                w.ue(0); w.ue(30); w.align_zero()
                w.raw_bytes(pat(xx + s2)[:, 32:48].tobytes())
                w.raw_bytes(flat); w.raw_bytes(flat)
                continue
            mvx, mvy = mvs[mbx]
            mvp = mm._h264_mvp16(refg, mvg, 0, mbx)
            w.ue(0); w.ue(0)
            w.se(mvx - mvp[0]); w.se(mvy - mvp[1])
            w.ue(mm._CBP_INTER_ENC[0])
            refg[0, mbx] = 0; mvg[0, mbx] = (mvx, mvy)
        w.trailing()
        out += start + b"\x41" + mm._ebsp_escape(bytes(w.buf))
        return out, qp, m, base, s1, s2

    def closed(k):
        _, qp, m, base, s1, s2 = craft(k)
        pv = lambda x, y: base + ((x * 5 + y * 3) % m)
        shifts = {0: 0, 1: s1, 2: s2, 3: 0}
        rows = []
        for j, xe in enumerate((16, 32, 48)):
            sL, sR = shifts[j], shifts[j + 1]
            bs4 = j >= 1
            qpav = ((qp + 1) >> 1) if bs4 else qp
            ia = min(max(qpav + 2 * off_a_div2, 0), 51)
            ib = min(max(qpav + 2 * off_b_div2, 0), 51)
            A = int(mm._H264_ALPHA[ia])
            B = int(mm._H264_BETA[ib])
            T = int(mm._H264_TC0[0, ia])
            sums = [0] * 6
            for y in range(16):
                p = [pv(xe - 1 - i + sL, y) for i in range(4)]
                q = [pv(xe + i + sR, y) for i in range(4)]
                p0, p1, p2, p3 = p
                q0, q1, q2, q3 = q
                np_, nq_ = [p0, p1, p2], [q0, q1, q2]
                filt = (abs(p0 - q0) < A and abs(p1 - p0) < B
                        and abs(q1 - q0) < B)
                if filt:
                    ap = abs(p2 - p0) < B
                    aq = abs(q2 - q0) < B
                    if bs4:
                        small = abs(p0 - q0) < (A >> 2) + 2
                        if ap and small:
                            np_ = [(p2 + 2*p1 + 2*p0 + 2*q0 + q1 + 4) >> 3,
                                   (p2 + p1 + p0 + q0 + 2) >> 2,
                                   (2*p3 + 3*p2 + p1 + p0 + q0 + 4) >> 3]
                        else:
                            np_ = [(2*p1 + p0 + q1 + 2) >> 2, p1, p2]
                        if aq and small:
                            nq_ = [(q2 + 2*q1 + 2*q0 + 2*p0 + p1 + 4) >> 3,
                                   (q2 + q1 + q0 + p0 + 2) >> 2,
                                   (2*q3 + 3*q2 + q1 + q0 + p0 + 4) >> 3]
                        else:
                            nq_ = [(2*q1 + q0 + p1 + 2) >> 2, q1, q2]
                    else:
                        tc = T + ap + aq
                        d = max(-tc, min(tc,
                                ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3))
                        np_[0] = max(0, min(255, p0 + d))
                        nq_[0] = max(0, min(255, q0 - d))
                        if ap:
                            np_[1] = p1 + max(-T, min(T,
                                (p2 + ((p0 + q0 + 1) >> 1) - 2*p1) >> 1))
                        if aq:
                            nq_[1] = q1 + max(-T, min(T,
                                (q2 + ((q0 + p0 + 1) >> 1) - 2*q1) >> 1))
                sums[0] += np_[2]; sums[1] += np_[1]; sums[2] += np_[0]
                sums[3] += nq_[0]; sums[4] += nq_[1]; sums[5] += nq_[2]
            rows.append((j, *sums))
        return rows

    changed = False
    for k in range(32):
        raw, qp, *_ = craft(k)
        dec, _ = mm.decode_h264(raw)
        luma1 = np.round(dec[1][..., 0] * 255.0).astype(np.int64)
        got = [(j, *[int(luma1[:, xe - 3 + c].sum()) for c in range(6)])
               for j, xe in enumerate((16, 32, 48))]
        assert got == closed(k), (k, qp)
        # the offsets must actually move at least one doc's output vs
        # the zero-offset closed form (alpha knee at qp 20)
        if qp == 20:
            ia0 = 20
            if int(mm._H264_ALPHA[min(max(20 + 2*off_a_div2, 0), 51)]) \
               != int(mm._H264_ALPHA[ia0]):
                changed = True
    assert changed


def test_h264_intra4x4_roundtrip_mixing_and_predictors():
    """Intra_4x4 (spec 8.3.1): with ``intra4x4=True`` the encoder
    competes the 9-mode 4x4 coder against Intra_16x16 per MB (lambda-
    priced SAD), and the decoder reproduces the encoder recon
    BIT-EXACTLY across qp, GOPs and deblocking — prev/rem mode coding
    against the min(left,above) predictor, the Intra column of Table
    9-4, 16-coeff CAVLC residuals, decode-order top-right
    availability, sequential reconstruction. Also pins: both intra
    coders mixing inside one slice (shared CAVLC nC contexts), the
    default staying byte-identical to the historical I16-only
    streams, and predictor sanity (every mode is a weighted average
    bounded by its support; V/H/DC exact)."""
    rng = np.random.default_rng(3)
    n, h, w = 3, 48, 64
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.zeros((n, h, w, 3), np.uint8)
    for f in range(n):
        for c in range(3):
            base[f, :, :, c] = ((xx * 2 + yy * 3 + 30 * c + 5 * f)
                                % 256)
        base[f, 8:24, 8:24] = np.clip(
            (xx[8:24, 8:24] - yy[8:24, 8:24]) * 8 + 120, 0,
            255)[..., None]
        base[f, 10:26, 30 + 4 * f:46 + 4 * f] = rng.integers(
            0, 256, (16, 16, 3), dtype=np.uint8)
    saw_i4 = False
    for gop in (1, 3):
        for qp in (20, 32, 44):
            for db in (False, True):
                raw, recon = multimodal._encode_h264_cavlc_with_recon(
                    base, qp=qp, gop=gop, deblock=db, intra4x4=True)
                dec, _, mbts = multimodal.decode_h264(
                    raw, return_mb_types=True)
                np.testing.assert_array_equal(dec, recon,
                                              err_msg=f"{gop},{qp},{db}")
                if any(t in (0, 5) for s in mbts for t in s):
                    saw_i4 = True
    assert saw_i4
    # default off: byte-identical to the historical coder
    assert multimodal.encode_h264_cavlc(base, qp=20) == \
        multimodal.encode_h264_cavlc(base, qp=20, intra4x4=False)
    # mixing: a smooth-gradient frame with one textured MB uses BOTH
    # intra coders in one slice
    smooth = np.zeros((1, 48, 64, 3), np.uint8)
    for c in range(3):
        smooth[0, :, :, c] = np.clip(
            xx * 1.1 + yy * 0.8 + 30 + 20 * c, 0, 255).astype(np.uint8)
    smooth[0, 16:32, 16:32] = np.clip(
        (xx[16:32, 16:32] - yy[16:32, 16:32]) * 12 + 128, 0,
        255)[..., None]
    raw, recon = multimodal._encode_h264_cavlc_with_recon(
        smooth, qp=20, intra4x4=True)
    dec, _, mbts = multimodal.decode_h264(raw, return_mb_types=True)
    np.testing.assert_array_equal(dec, recon)
    kinds = set(mbts[0])
    assert 0 in kinds and any(1 <= t <= 24 for t in kinds)
    # predictor sanity: weighted-average bounds + exact V/H/DC
    rng2 = np.random.default_rng(9)
    for _ in range(100):
        t8 = rng2.integers(0, 256, 8).astype(np.int64)
        l4 = rng2.integers(0, 256, 4).astype(np.int64)
        tl = int(rng2.integers(0, 256))
        support = {
            0: t8[:4], 1: l4, 2: np.concatenate([t8[:4], l4]),
            3: t8, 4: np.concatenate([t8, l4, [tl]]),
            5: np.concatenate([t8, l4, [tl]]),
            6: np.concatenate([t8, l4, [tl]]),
            7: t8, 8: l4,
        }
        for md in range(9):
            pr = multimodal._pred_i4(md, t8, l4, tl)
            s = support[md]
            assert pr.min() >= s.min() and pr.max() <= s.max(), md
        assert (multimodal._pred_i4(0, t8, l4, tl)
                == t8[:4][None, :]).all()
        assert (multimodal._pred_i4(1, t8, l4, tl)
                == l4[:, None]).all()
        assert (multimodal._pred_i4(2, t8, l4, tl)
                == (int(t8[:4].sum()) + int(l4.sum()) + 4) >> 3).all()
    assert (multimodal._pred_i4(2, None, None, None) == 128).all()


def test_h264_randomized_roundtrip_fuzz():
    """Randomized encode/decode roundtrips over mixed content (flat
    patches, gradients, noise, hard edges), random qp/gop, with
    intra4x4 and deblocking enabled — sweeps CAVLC nC contexts across
    I_4x4 / Intra_16x16 / I_PCM / inter boundaries and every
    predictor/filter branch the structured fixtures might miss.
    Decoder must equal encoder recon bit-exactly every time."""
    rng = np.random.default_rng(41)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        h, w = 32, 48
        frames = np.zeros((n, h, w, 3), np.uint8)
        for f in range(n):
            kind = rng.integers(0, 4)
            yy, xx = np.mgrid[0:h, 0:w]
            if kind == 0:
                img = rng.integers(0, 256, (h, w, 3))
            elif kind == 1:
                img = np.stack([(xx * int(rng.integers(1, 5))
                                 + yy * int(rng.integers(1, 5))) % 256
                                ] * 3, -1)
            elif kind == 2:
                img = np.full((h, w, 3), int(rng.integers(0, 256)))
                img[8:24, 16:32] = rng.integers(0, 256, (16, 16, 3))
            else:
                img = np.where((xx < w // 2)[..., None],
                               int(rng.integers(0, 128)),
                               int(rng.integers(128, 256)))
                img = np.broadcast_to(img, (h, w, 3))
            frames[f] = img.astype(np.uint8)
        qp = int(rng.integers(0, 52))
        gop = int(rng.integers(1, 3))
        raw, recon = multimodal._encode_h264_cavlc_with_recon(
            frames, qp=qp, gop=gop, deblock=True, intra4x4=True)
        dec, _ = multimodal.decode_h264(raw)
        np.testing.assert_array_equal(dec, recon,
                                      err_msg=f"trial {trial} qp {qp}")
