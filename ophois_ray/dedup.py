"""Deduplication operators for training-data pipelines: exact,
MinHash+LSH, SimHash, n-gram Jaccard verification, embedding-cosine
near-dup, and edit-distance record linkage (deletion-neighborhood
join + pair-batched Levenshtein). Hot paths are vectorized numpy
inside map_batches; the only
shuffles are the hash-bucket groupbys; candidate verification joins the
(small) candidate id set against broadcast payloads.

Scale notes (documented per operator): bucket groupbys are
hash-partitioned on content-derived keys so they scale horizontally;
pair verification hash-joins candidate pairs to their texts and runs
inside map_batches (no driver text materialization); hot LSH buckets
are recursively band/plane-split instead of quadratic all-pairs; the
final grouping of verified pairs runs the components ladder from
components.py (``pairs_to_groups``).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from .cells import distinct_pairs
from .joins import DEFAULT_BROADCAST_CAP, BroadcastIndex, ladder, stable_hash

_LOG = logging.getLogger("ophois_ray.dedup")

_NGRAM_BROADCAST_CAP = 2_000_000  # gram sets ``ngram_jaccard_pairs`` broadcasts
_VERIFY_DRIVER_CAP = 2_000_000  # candidate pairs verified on the driver

_MERSENNE = np.uint64((1 << 61) - 1)


# ------------------------------------------------------------------ exact


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Exact dedup by content hash, keeping the smallest id per group
    (hash-partition + per-group first). Returns a Dataset with one row
    per distinct content: (content_hash, keep_id, n_copies).
    """

    def hash_batch(df: pd.DataFrame) -> pd.DataFrame:
        h = stable_hash(df[text_col].to_numpy(object)).astype(np.int64)
        return pd.DataFrame({"content_hash": h, "keep_id": df[id_col], "n": 1})

    hashed = ds.map_batches(hash_batch, batch_format="pandas")
    from .joins import grouped_apply

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("content_hash", as_index=False).agg(
            keep_id=("keep_id", "min"), n_copies=("n", "sum")
        )
        g["n_copies"] = g["n_copies"].astype(np.int64)
        return g

    return grouped_apply(hashed, "content_hash", agg)


def exact_dedup_filter(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Filter variant: drop all but the keeper row per distinct content.

    Same broadcast-under-cap ladder as the graph ops: when the winner
    set (one id per distinct content) fits under the broadcast cap it
    ships once as a sorted numpy array and every batch filters locally;
    above the cap nothing is materialized on the driver — the corpus is
    bucketed hash-semi-joined against the winner-id Dataset, so the
    filter holds at billions of distinct documents. A forced-rung
    pytest pins both paths row-identical.
    """
    from .joins import hash_join

    winners = exact_dedup(ds, text_col, id_col).materialize()
    n_winners = winners.count()
    if n_winners == 0:
        return ds.limit(0)  # empty corpus: 0-row to_pandas drops columns

    def broadcast():
        import ray

        keep_ids = winners.select_columns(["keep_id"]).to_pandas()
        ref = ray.put(BroadcastIndex(keep_ids["keep_id"].to_numpy(), {}))

        def keep(df: pd.DataFrame) -> pd.DataFrame:
            idx = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            return df[idx.contains(df[id_col].to_numpy())]

        return ds.map_batches(keep, batch_format="pandas")

    def semi_join():
        # winner ids are unique (one keeper per content, one content per
        # id), so the inner join is an exact semi-join with no fan-out;
        # keys keep their native dtype end-to-end.
        def to_key(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({id_col: df["keep_id"]})

        keepers = winners.map_batches(to_key, batch_format="pandas")
        return hash_join(ds, keepers, id_col, how="inner")

    return ladder("dedup.exact_dedup_filter", n_winners, DEFAULT_BROADCAST_CAP,
                  broadcast, semi_join)


# ----------------------------------------------------------------- shingles


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """uint64 hashes of the k-character shingles of a document."""
    if not isinstance(text, str) or len(text) < k:
        return np.array([hash_text_u64(text or "")], dtype=np.uint64)
    shingles = [text[i : i + k] for i in range(len(text) - k + 1)]
    return np.unique(stable_hash(np.array(shingles, dtype=object)))


def hash_text_u64(text: str) -> np.uint64:
    return stable_hash(np.array([text], dtype=object))[0]


def _shingle_sets_batch(texts, k: int) -> list:
    """Per-doc unique shingle-hash set bytes — bit-identical to
    ``[_shingle_hashes(t, k).tobytes() for t in texts]`` with the
    object-array hashing batched into ONE stable_hash call
    (pd.util.hash_array is elementwise; its fixed cost dominated the
    per-doc form). The per-doc np.unique is kept: it defines the
    sorted set bytes the Jaccard verifier consumes."""
    flat, bounds = _hash_shingles_flat(texts, k)
    if flat is None:
        return []
    return [np.unique(flat[s:e]).tobytes()
            for s, e in zip(bounds, bounds[1:])]


#: flush the batched shingle-string buffer at this many entries so the
#: transient Python-string footprint stays bounded for big-text rows
#: (hashing is elementwise — chunking cannot change any value)
_SHINGLE_FLUSH = 1 << 21


def _hash_shingles_flat(texts, k: int):
    """(flat uint64 hash array, per-doc bounds) over every doc's
    shingles, hashing in bounded chunks (see _SHINGLE_FLUSH)."""
    hashed: list = []
    shingles: list = []
    bounds = [0]
    for text in texts:
        if not isinstance(text, str) or len(text) < k:
            shingles.append(text or "")
            bounds.append(bounds[-1] + 1)
        else:
            shingles.extend(text[i:i + k] for i in range(len(text) - k + 1))
            bounds.append(bounds[-1] + len(text) - k + 1)
        if len(shingles) >= _SHINGLE_FLUSH:
            hashed.append(stable_hash(np.array(shingles, dtype=object)))
            shingles = []
    if shingles:
        hashed.append(stable_hash(np.array(shingles, dtype=object)))
    if not hashed:
        return None, bounds
    flat = hashed[0] if len(hashed) == 1 else np.concatenate(hashed)
    return flat, bounds


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two unique-hash sets (n-gram Jaccard verifier)."""
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


# ------------------------------------------------------------------ minhash


def _perm_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, (1 << 61) - 1, num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minimum values of (a*x + b) mod M over the shingle set."""
    x = shingle_hashes[:, None]  # (n, 1)
    vals = (x * a[None, :] + b[None, :]) % _MERSENNE
    return vals.min(axis=0)


def _minhash_band_rows_scalar(ids, texts, shingle_k, a, b, bands):
    """Per-doc reference kernel for the banded minhash rows — the
    original loop, kept as the parity oracle for the batched kernel
    (pytest-pinned bit-identical)."""
    rows_per_band = len(a) // bands
    out_band, out_hash, out_id = [], [], []
    for doc_id, text in zip(ids, texts):
        sh = _shingle_hashes(text, shingle_k)
        sig = minhash_signature(sh, a, b)
        for band in range(bands):
            chunk = sig[band * rows_per_band : (band + 1) * rows_per_band]
            bh = int(np.bitwise_xor.reduce(stable_hash(chunk)))
            out_band.append(band)
            out_hash.append(bh)
            out_id.append(doc_id)
    return pd.DataFrame(
        {
            "band": np.array(out_band, dtype=np.int64),
            "bucket": np.array(out_hash, dtype=np.uint64).astype(np.int64),
            "id": out_id,
        }
    )


def _minhash_band_batch(ids, texts, shingle_k, a, b, bands):
    """(band, bucket, id) rows for a whole batch in a handful of numpy
    calls — bit-identical to `_minhash_band_rows_scalar`
    (pytest-pinned). pd.util.hash_array is ELEMENTWISE, so hashing
    every doc's shingles (and every doc's signature words) in one call
    yields the same values as the per-doc/per-band calls while paying
    the pandas fixed cost once per batch instead of 1 + bands times
    per doc (profiled: the tiny per-band stable_hash calls were ~70%
    of the stage). Per-doc np.unique is skipped — duplicate shingles
    cannot change a min. The (n_shingles x num_perm) intermediate is
    chunked by docs to stay cache/heap-bounded at any batch size."""
    num_perm = len(a)
    flat, bounds_list = _hash_shingles_flat(texts, shingle_k)
    ndocs = len(bounds_list) - 1
    if flat is None or not ndocs:
        return pd.DataFrame({"band": pd.Series(dtype=np.int64),
                             "bucket": pd.Series(dtype=np.int64),
                             "id": pd.Series(dtype=np.asarray(ids).dtype
                                             if len(ids) else np.int64)})
    bounds = np.array(bounds_list, dtype=np.int64)
    sig = np.empty((ndocs, num_perm), dtype=np.uint64)
    CH = 512
    for lo in range(0, ndocs, CH):
        hi = min(lo + CH, ndocs)
        s, e = bounds[lo], bounds[hi]
        vals = (flat[s:e, None] * a[None, :] + b[None, :]) % _MERSENNE
        sig[lo:hi] = np.minimum.reduceat(vals, bounds[lo:hi] - s, axis=0)
    rows_per_band = num_perm // bands
    hh = stable_hash(sig.ravel()).reshape(ndocs, bands, rows_per_band)
    bucket = np.bitwise_xor.reduce(hh, axis=2).astype(np.int64)
    return pd.DataFrame(
        {
            "band": np.tile(np.arange(bands, dtype=np.int64), ndocs),
            "bucket": bucket.ravel(),
            "id": np.repeat(np.asarray(ids), bands),
        }
    )


def minhash_lsh_candidates(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 7,
):
    """shingle -> minhash -> band -> bucket groupby -> candidate pairs.

    Returns a Dataset of (id_a, id_b) candidate pairs (id_a < id_b,
    deduplicated). One shuffle keyed on (band_id, band_hash).
    """
    a, b = _perm_params(num_perm, seed)

    def sigs(df: pd.DataFrame) -> pd.DataFrame:
        return _minhash_band_batch(
            df[id_col].to_numpy(), df[text_col], shingle_k, a, b, bands)

    banded = ds.map_batches(sigs, batch_format="pandas")

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(group["id"].unique())
        if len(ids) < 2:
            return pd.DataFrame({"id_a": pd.Series(dtype=ids.dtype if len(ids) else np.int64),
                                 "id_b": pd.Series(dtype=ids.dtype if len(ids) else np.int64)})
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})

    from .joins import distinct_rows, grouped_apply

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = [pairs(g) for _, g in df.groupby(["band", "bucket"], sort=False)]
        return (
            pd.concat(outs, ignore_index=True)
            if outs
            else pairs(df)
        )

    cand = grouped_apply(banded, ["band", "bucket"], bucket_pairs, num_buckets=32)
    # key-only (id_a, id_b) rows: cross-band dedup via the capped
    # narrow merge (joins.distinct_rows) — no second sort exchange
    return distinct_rows(cand, ["id_a", "id_b"], num_buckets=32)


def minhash_verified_pairs(
    ds,
    cand,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    threshold: float = 0.8,
    num_buckets: int = 32,
):
    """Exact n-gram Jaccard verification of LSH candidate pairs, fully
    distributed: each document's unique shingle-hash set is computed
    ONCE in a map pass (a candidate doc averages dozens of pairs — the
    per-pair re-hash was measured 4x the whole pipeline), then the
    (id_a, id_b) pairs hash-join the shingle sets twice (once per side)
    and each joined row verifies with a vectorized sorted-set intersect
    inside map_batches — no driver materialization, no candidate-set
    size cap. Returns a Dataset (id_a, id_b, jaccard) of pairs >=
    threshold."""
    from .joins import hash_join

    def shingle_sets(df: pd.DataFrame) -> pd.DataFrame:
        # sets ship as raw little-endian uint64 bytes: plain binary cells
        # (ragged ndarray cells trip Ray's tensor extension on concat)
        return pd.DataFrame(
            {
                "id": df[id_col],
                "__t": _shingle_sets_batch(df[text_col], shingle_k),
            }
        )

    # pinned: both join sides consume it — lazy, the whole corpus scan +
    # shingle hashing would run twice
    docs = ds.map_batches(shingle_sets, batch_format="pandas").materialize()
    j1 = hash_join(
        cand.map_batches(
            lambda df: df.rename(columns={"id_a": "id"}), batch_format="pandas"
        ),
        docs,
        "id",
        num_buckets=num_buckets,
    ).map_batches(
        lambda df: df.rename(columns={"id": "id_a", "__t": "__ta", "id_b": "id"}),
        batch_format="pandas",
    )
    j2 = hash_join(j1, docs, "id", num_buckets=num_buckets)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        jac = np.array(
            [
                jaccard(np.frombuffer(ta, dtype=np.uint64), np.frombuffer(tb, dtype=np.uint64))
                for ta, tb in zip(df["__ta"], df["__t"])
            ],
            dtype=np.float64,
        )
        m = jac >= threshold
        return pd.DataFrame(
            {
                "id_a": df["id_a"].to_numpy()[m],
                "id_b": df["id"].to_numpy()[m],
                "jaccard": jac[m],
            }
        )

    return j2.map_batches(verify, batch_format="pandas")


# ------------------------------------------------- integer-exact minhash


def _kgram_poly_hashes(texts, k: int = 8, prefix: int | None = None):
    """All k-gram polynomial code-point hashes (mod 2^61-1) of each
    text's prefix, per-doc DISTINCT — the SQL-mirrorable shingle set
    (DuckDB ``list_reduce`` over ``cps[i:i+k-1]``, same Horner family
    as textstats fingerprints). Docs shorter than ``k`` fall back to
    the whole-prefix hash; empty docs contribute nothing. Returns
    ``(hashes uint64, doc_of int64)``. Position-major vectorized like
    ``textstats._fingerprints_batch`` (no per-character Python loop).
    """
    from .textstats import _FP_MOD, _fp_fold, _fp_mul257, _fp_mul_small

    cps = [
        np.frombuffer(
            (t[:prefix] if prefix is not None else t).encode(
                "utf-32-le", "surrogatepass"),
            dtype=np.uint32,
        ) if isinstance(t, str) else np.empty(0, np.uint32)
        for t in texts
    ]
    n = len(cps)
    lens = np.array([len(c) for c in cps], dtype=np.int64)
    if n == 0 or lens.max(initial=0) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    L = int(lens.max())
    M = np.zeros((L, n), dtype=np.uint64)
    for i, c in enumerate(cps):
        M[: len(c), i] = c.astype(np.uint64) + np.uint64(1)
    basek = pow(257, k - 1, int(_FP_MOD))
    acc = np.zeros(n, dtype=np.uint64)
    roll = np.zeros(n, dtype=np.uint64)
    docidx = np.arange(n, dtype=np.int64)
    out_h, out_d = [], []
    for j in range(L):
        mj = M[j]
        acc = _fp_fold(_fp_mul257(acc) + mj)
        if j >= k:
            roll = _fp_fold(roll + (_FP_MOD - _fp_mul_small(M[j - k], basek)))
        roll = _fp_fold(_fp_mul257(roll) + mj)
        if j >= k - 1:
            sel = mj != 0  # window [j-k+1, j] inside the doc
            out_h.append(roll[sel])
            out_d.append(docidx[sel])
        if j + 1 < k:
            ended = lens == j + 1  # shorter than k: whole-prefix hash
            if ended.any():
                out_h.append(acc[ended])
                out_d.append(docidx[ended])
    flat = np.concatenate(out_h) if out_h else np.empty(0, np.uint64)
    docs = np.concatenate(out_d) if out_d else np.empty(0, np.int64)
    docs, flat = distinct_pairs(docs, flat)
    return flat, docs


def _minhash_int_mins(h: np.ndarray, d: np.ndarray, n_docs: int,
                      num_perm: int) -> np.ndarray:
    """(n_docs, num_perm) signature matrix: per-doc minimum of the fixed
    affine family h_p(x) = ((6p+5)*x + 1000003*(p+1)) mod 2^61-1 —
    coefficients small enough for exact DuckDB HUGEINT mirroring AND
    overflow-free uint64 evaluation (a < 2^6, x < 2^61: split x at
    2^58, then a*hi*2^58 re-folds via 2^61 === 1 mod p)."""
    from .textstats import _FP_MOD, _fp_fold

    mins = np.full((n_docs, num_perm), _FP_MOD, dtype=np.uint64)
    lo = h & np.uint64((1 << 58) - 1)
    hi = h >> np.uint64(58)  # < 2^3
    for p in range(num_perm):
        a = np.uint64(6 * p + 5)
        b = np.uint64(1000003 * (p + 1))
        x = a * hi  # < 2^9
        t = _fp_fold((x >> np.uint64(3)) + ((x & np.uint64(7)) << np.uint64(58)))
        v = _fp_fold(_fp_fold(_fp_fold(a * lo) + t) + b)
        np.minimum.at(mins[:, p], d, v)
    return mins


def minhash_int_pairs(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    prefix: int | None = None,
    num_perm: int = 8,
    bands: int = 4,
    thresh_num: int = 1,
    thresh_den: int = 2,
    num_buckets: int = 32,
):
    """Integer-exact MinHash+LSH near-dup pairs — the SQL-mirrorable
    twin of ``minhash_lsh_candidates`` + ``minhash_verified_pairs``
    (the simhash_int / embed_topk_int pattern): shingles are k-gram
    polynomial code-point hashes mod 2^61-1, permutations the fixed
    affine family above, bands of ``num_perm // bands`` rows join on
    RAW signature values (no re-hash), and candidates verify with
    exact distinct-hash Jaccard as the integer test
    ``inter * thresh_den >= uni * thresh_num``. DuckDB replicates
    every step with HUGEINT arithmetic (queries.SQL_MINHASH_INT), so
    even probabilistic LSH *misses* agree bit-for-bit. Returns a
    Dataset (id_a, id_b, inter, uni), all int64.

    Scale shape: gram sets are computed ONCE per doc in a fused map
    (shipped as raw uint64 bytes); band rows derive from the sets;
    candidate generation is one grouped_apply keyed on the band
    signature; pair dedup and the two verification joins are bucketed
    hash joins — the same distributed shape as the float MinHash path,
    no driver materialization.
    """
    from .joins import distinct_rows, grouped_apply, hash_join

    if num_perm % bands:
        raise ValueError("num_perm must be divisible by bands")
    rows = num_perm // bands
    key_cols = [f"k{i}" for i in range(rows)]

    def make_sets(df: pd.DataFrame) -> pd.DataFrame:
        h, d = _kgram_poly_hashes(list(df[text_col]), k=k, prefix=prefix)
        sets = [b"" for _ in range(len(df))]
        if len(h):
            cuts = np.searchsorted(d, np.arange(len(df) + 1))
            for i in range(len(df)):
                sets[i] = h[cuts[i]:cuts[i + 1]].tobytes()
        return pd.DataFrame({
            "id": df[id_col].to_numpy(np.int64), "__t": sets,
        })

    sets = ds.map_batches(make_sets, batch_format="pandas").map_batches(
        lambda df: df[[len(t) > 0 for t in df["__t"]]],  # no grams, no row
        batch_format="pandas",
    ).materialize()

    def make_bands(df: pd.DataFrame) -> pd.DataFrame:
        parts = [np.frombuffer(t, dtype=np.uint64) for t in df["__t"]]
        if not parts:
            return pd.DataFrame({
                "band": pd.Series(dtype=np.int64),
                **{c: pd.Series(dtype=np.int64) for c in key_cols},
                "id": pd.Series(dtype=np.int64),
            })
        h = np.concatenate(parts)
        d = np.repeat(np.arange(len(parts), dtype=np.int64),
                      [len(p) for p in parts])
        mins = _minhash_int_mins(h, d, len(parts), num_perm)
        out = []
        ids = df["id"].to_numpy(np.int64)
        for band in range(bands):
            cols = {"band": np.full(len(ids), band, dtype=np.int64)}
            for r in range(rows):
                cols[key_cols[r]] = mins[:, band * rows + r].astype(np.int64)
            cols["id"] = ids
            out.append(pd.DataFrame(cols))
        return pd.concat(out, ignore_index=True)

    banded = sets.map_batches(make_bands, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby(["band"] + key_cols, sort=False):
            ids = np.sort(g["id"].unique())
            if len(ids) < 2:
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            outs.append(pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]}))
        if not outs:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    cand = grouped_apply(banded, ["band"] + key_cols, bucket_pairs,
                         num_buckets=num_buckets)
    cand = distinct_rows(cand, ["id_a", "id_b"],
                         num_buckets=num_buckets).materialize()
    if cand.count() == 0:
        import pyarrow as pa
        import ray
        return ray.data.from_arrow(pa.table({
            c: pa.array([], pa.int64())
            for c in ("id_a", "id_b", "inter", "uni")
        }))

    j1 = hash_join(
        cand.map_batches(
            lambda df: df.rename(columns={"id_a": "id"}), batch_format="pandas"
        ),
        sets, "id", num_buckets=num_buckets,
    ).map_batches(
        lambda df: df.rename(columns={"id": "id_a", "__t": "__ta",
                                      "id_b": "id"}),
        batch_format="pandas",
    )
    j2 = hash_join(j1, sets, "id", num_buckets=num_buckets)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        inter = np.empty(len(df), dtype=np.int64)
        uni = np.empty(len(df), dtype=np.int64)
        for i, (ta, tb) in enumerate(zip(df["__ta"], df["__t"])):
            a = np.frombuffer(ta, dtype=np.uint64)
            b = np.frombuffer(tb, dtype=np.uint64)
            n_i = np.intersect1d(a, b, assume_unique=True).size
            inter[i] = n_i
            uni[i] = a.size + b.size - n_i
        m = inter * thresh_den >= uni * thresh_num
        return pd.DataFrame({
            "id_a": df["id_a"].to_numpy(np.int64)[m],
            "id_b": df["id"].to_numpy(np.int64)[m],
            "inter": inter[m],
            "uni": uni[m],
        })

    return j2.map_batches(verify, batch_format="pandas")


def ngram_jaccard_pairs(
    ds,
    cand,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    prefix: int | None = None,
    num_buckets: int = 32,
):
    """Exact character k-gram Jaccard over given candidate (id_a, id_b)
    pairs — the UNHASHED variant of the MinHash verifier, defined on
    distinct k-gram STRINGS so the value is reproducible in ANSI SQL
    (DuckDB list_distinct/list_filter mirror; hashed shingles would add
    an astronomically-unlikely-but-nonzero collision term). ``prefix``
    truncates each text first (bounds the SQL mirror's quadratic
    list_contains cost). Same distributed shape as
    minhash_verified_pairs: per-doc gram sets computed once, pairs
    hash-join the sets, Jaccard = one int/int division (bit-exact in
    both engines). Returns a Dataset (id_a, id_b, inter, uni, jaccard).
    """
    from .joins import hash_join

    def gram_sets(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for t in df[text_col]:
            s = t if isinstance(t, str) else ""
            if prefix is not None:
                s = s[:prefix]
            if len(s) < k:
                grams = {s} if s else set()
            else:
                grams = {s[i : i + k] for i in range(len(s) - k + 1)}
            out.append(sorted(grams))
        return pd.DataFrame({"id": df[id_col], "__g": ["\x00".join(g) for g in out]})

    docs = ds.map_batches(gram_sets, batch_format="pandas").materialize()

    def verify_arrays(id_a, id_b, ga_list, gb_list) -> pd.DataFrame:
        inter = np.empty(len(id_a), dtype=np.int64)
        uni = np.empty(len(id_a), dtype=np.int64)
        for i, (ga, gb) in enumerate(zip(ga_list, gb_list)):
            a = set(ga.split("\x00")) if ga else set()
            b = set(gb.split("\x00")) if gb else set()
            ni = len(a & b)
            inter[i] = ni
            uni[i] = len(a) + len(b) - ni
        jac = np.where(uni > 0, inter / np.maximum(uni, 1), 1.0)
        return pd.DataFrame(
            {"id_a": id_a, "id_b": id_b, "inter": inter, "uni": uni,
             "jaccard": jac}
        )

    # hybrid (repo pattern): a gram-set table under the cap ships once
    # as a BroadcastIndex and verification is ONE fused map over the
    # candidate pairs — the two bucketed joins it replaces are pure
    # barrier cost at small candidate counts (measured 9.2 s for 40
    # pairs); above the cap the join path is unbounded-scale.
    def broadcast():
        import ray

        idx_ref = ray.put(BroadcastIndex.from_dataset(docs, "id", ["__g"]))

        def verify_bcast(df: pd.DataFrame) -> pd.DataFrame:
            idx = ray.get(idx_ref) if isinstance(idx_ref, ray.ObjectRef) else idx_ref
            # drop pairs referencing ids absent from ds — the join path
            # drops them silently, so the broadcast path must too (a
            # KeyError here would make behavior size-dependent)
            ga, fa = idx.lookup_with_mask(df["id_a"].to_numpy(), "__g")
            gb, fb = idx.lookup_with_mask(df["id_b"].to_numpy(), "__g")
            ok = fa & fb
            return verify_arrays(
                df["id_a"].to_numpy()[ok], df["id_b"].to_numpy()[ok],
                ga[ok], gb[ok],
            )

        return cand.map_batches(verify_bcast, batch_format="pandas")

    def join():
        j1 = hash_join(
            cand.map_batches(
                lambda df: df.rename(columns={"id_a": "id"}), batch_format="pandas"
            ),
            docs,
            "id",
            num_buckets=num_buckets,
        ).map_batches(
            lambda df: df.rename(columns={"id": "id_a", "__g": "__ga", "id_b": "id"}),
            batch_format="pandas",
        )
        j2 = hash_join(j1, docs, "id", num_buckets=num_buckets)

        def verify(df: pd.DataFrame) -> pd.DataFrame:
            return verify_arrays(
                df["id_a"].to_numpy(), df["id"].to_numpy(),
                list(df["__ga"]), list(df["__g"]),
            )

        return j2.map_batches(verify, batch_format="pandas")

    return ladder("dedup.ngram_jaccard_pairs", docs.count(), _NGRAM_BROADCAST_CAP,
                  broadcast, join)


def _no_groups():
    """The empty (id, group) Dataset, with its schema."""
    import ray

    return ray.data.from_arrow(pa.table(
        {"id": pa.array([], pa.int64()), "group": pa.array([], pa.int64())}))


def pairs_to_groups(verified):
    """Connected duplicate groups from verified (id_a, id_b) pairs, as a
    Dataset (id, group) over every pair member. Group label = smallest
    member id.

    Pairs are tiny relative to the corpus (near-dup rate bound): under
    the broadcast cap the bare key columns resolve in the vectorized
    min-label kernel (``components.connected_components_broadcast``);
    above it the member table is deduped distributed and the
    components ladder (components.py) takes over, never touching the
    driver — at 100 TB a realistic near-dup rate makes the member table
    billions of rows, so the caller writes it out or joins it
    downstream. Both rungs produce identical min-id labels (pinned by
    the forced-rung parity test)."""
    from .components import (connected_components_auto,
                             connected_components_broadcast)
    from .joins import distinct_rows

    verified = verified.materialize()
    edges = verified.map_batches(
        lambda df: pd.DataFrame({"u": df["id_a"], "v": df["id_b"]}),
        batch_format="pandas",
    )
    members = verified.map_batches(
        lambda df: pd.DataFrame(
            {"id": np.concatenate([df["id_a"].to_numpy(), df["id_b"].to_numpy()])}
        ),
        batch_format="pandas",
    )
    n_pairs = verified.count()
    if n_pairs == 0:
        return _no_groups()
    labels = ladder(
        "dedup.pairs_to_groups", n_pairs, DEFAULT_BROADCAST_CAP,
        # the kernel dedups the member ids itself
        lambda: connected_components_broadcast(members, edges),
        lambda: connected_components_auto(
            distinct_rows(members, "id"), edges, num_buckets=16))
    return labels.map_batches(
        lambda df: df.rename(columns={"comp": "group"}),
        batch_format="pandas",
    )


def minhash_near_dup_groups(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    seed: int = 7,
):
    """Full near-dup pipeline: LSH candidates -> exact n-gram Jaccard
    verification -> connected duplicate groups (:func:`pairs_to_groups`).
    Returns a Dataset (id, group) over every document in a near-dup
    group of size >= 2 (empty when there is none).

    Verification is HYBRID: shingle-hash sets are always computed
    distributed (one map pass over the candidate docs); when the
    candidate PAIR count fits ``_VERIFY_DRIVER_CAP`` the sets of
    candidate ids only (a uint64 array per doc — ~2 KB, not the text)
    are collected and pairs verify on the driver with a per-doc cache
    (two fewer all-to-all joins — measured 2x the whole pipeline at
    small scale); above the cap, pairs hash-join the shingle sets and
    verify inside map_batches (``minhash_verified_pairs``) with no
    driver materialization of any kind."""
    import ray

    cand = minhash_lsh_candidates(
        ds, text_col=text_col, id_col=id_col, shingle_k=shingle_k,
        num_perm=num_perm, bands=bands, seed=seed,
    ).materialize()
    n_cand = cand.count()
    if n_cand == 0:
        return _no_groups()

    def verify_on_driver():
        pairs = cand.to_pandas()
        wanted = ray.put(
            frozenset(np.concatenate([pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()]).tolist())
        )

        def cand_shingles(df: pd.DataFrame) -> pd.DataFrame:
            w = ray.get(wanted) if isinstance(wanted, ray.ObjectRef) else wanted
            sub = df[df[id_col].isin(w)]
            return pd.DataFrame(
                {
                    "id": sub[id_col],
                    "__t": _shingle_sets_batch(sub[text_col], shingle_k),
                }
            )

        sh = ds.map_batches(cand_shingles, batch_format="pandas").to_pandas()
        by_id = dict(zip(sh["id"], sh["__t"]))
        arr_cache: dict = {}

        def arr(i):
            a = arr_cache.get(i)
            if a is None:
                a = np.frombuffer(by_id[i], dtype=np.uint64)
                arr_cache[i] = a
            return a

        jac = np.array(
            [jaccard(arr(ia), arr(ib)) for ia, ib in zip(pairs["id_a"], pairs["id_b"])],
            dtype=np.float64,
        )
        m = jac >= threshold
        return ray.data.from_arrow(pa.table({
            "id_a": pairs["id_a"].to_numpy()[m],
            "id_b": pairs["id_b"].to_numpy()[m],
            "jaccard": jac[m],
        }))

    verified = ladder(
        "dedup.minhash_near_dup_groups", n_cand, _VERIFY_DRIVER_CAP,
        verify_on_driver,
        lambda: minhash_verified_pairs(
            ds, cand, text_col=text_col, id_col=id_col,
            shingle_k=shingle_k, threshold=threshold,
        ))
    return pairs_to_groups(verified)


# ------------------------------------------------------------------ simhash


def simhash_bits(text: str, nbits: int = 64) -> int:
    """64-bit SimHash over whitespace tokens (deterministic)."""
    toks = text.split() if isinstance(text, str) else []
    if not toks:
        return 0
    hs = stable_hash(np.array(toks, dtype=object)).astype(np.uint64)
    shifts = np.arange(nbits, dtype=np.uint64)[None, :]
    bits = ((hs[:, None] >> shifts) & np.uint64(1)).astype(np.int64)
    acc = np.where(bits == 1, 1, -1).sum(axis=0)
    out = 0
    for i in range(nbits):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash(ds, text_col: str = "text"):
    """Adds a simhash int64 column (bit pattern reinterpreted)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["simhash"] = np.array(
            [simhash_bits(t) for t in df[text_col]], dtype=np.uint64
        ).astype(np.int64)
        return df

    return ds.map_batches(fn, batch_format="pandas")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount of a uint64 array."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _ham_pairs_recursive(
    ids: np.ndarray,
    sh: np.ndarray,
    free_bits: list[int],
    max_hamming: int,
    cap: int,
    out: list,
) -> None:
    """Emit hamming<=max_hamming pairs of (ids, sh) without ever doing
    all-pairs on a group larger than ``cap``.

    Pigeonhole recursion: the group already agrees on every bit outside
    ``free_bits``; a qualifying pair has <= max_hamming mismatches, all
    inside the free bits, so splitting the free bits into
    (max_hamming+1) sub-bands guarantees the pair collides exactly on
    at least one sub-band — recurse into each sub-band's buckets.
    Duplicated discoveries are dropped by the caller's dedup. When
    fewer than max_hamming+1 free bits remain, EVERY pair qualifies
    (pairwise hamming <= #free_bits <= max_hamming): an over-cap group
    there is a genuinely quadratic near-identical cluster, emitted as a
    min-id star (hub pairs only) with a lineage log line — group
    membership is fully recoverable from the star."""
    n = len(ids)
    if n < 2:
        return
    if n <= cap:
        ia, ib = np.triu_indices(n, k=1)
        x = sh[ia] ^ sh[ib]
        ham = _popcount64(x)
        m = ham <= max_hamming
        a, b = ids[ia][m], ids[ib][m]  # canonical id_a < id_b (recursed
        # groups arrive key-sorted, not id-sorted)
        out.append((np.minimum(a, b), np.maximum(a, b), ham[m]))
        return
    if len(free_bits) < max_hamming + 1:
        _LOG.info(
            "simhash: near-identical cluster of %d docs emitted as star "
            "(free_bits=%d <= max_hamming=%d)", n, len(free_bits), max_hamming
        )
        hub = int(np.argmin(ids))
        x = sh[hub] ^ sh
        ham = _popcount64(x)
        rest = np.arange(n) != hub
        out.append((np.full(n - 1, ids[hub]), ids[rest], ham[rest]))
        return
    n_sub = max_hamming + 1
    chunks = np.array_split(np.asarray(free_bits, dtype=np.int64), n_sub)
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        key = np.zeros(n, dtype=np.uint64)
        for j, bit in enumerate(chunk):
            key |= ((sh >> np.uint64(bit)) & np.uint64(1)) << np.uint64(j)
        remaining = [b for b in free_bits if b not in set(chunk.tolist())]
        order = np.argsort(key, kind="stable")
        key_s, ids_s, sh_s = key[order], ids[order], sh[order]
        bounds = np.flatnonzero(np.diff(key_s)) + 1
        for lo, hi in zip(
            np.concatenate([[0], bounds]), np.concatenate([bounds, [n]])
        ):
            if hi - lo >= 2:
                _ham_pairs_recursive(
                    ids_s[lo:hi], sh_s[lo:hi], remaining, max_hamming, cap, out
                )


def simhash_near_dup_pairs(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    bucket_cap: int = 2000,
):
    """SimHash near-dup: band the 64 bits into 4x16-bit keys (any pair
    within hamming distance 3 collides on >= 1 band), groupby bucket,
    verify hamming distance exactly. Returns a Dataset of
    (id_a, id_b, hamming) — never a driver frame.

    Hot buckets (> ``bucket_cap`` members — e.g. the all-zeros band of
    short/empty texts at web scale) never do all-pairs: they recurse by
    pigeonhole band-splitting over the still-free bits
    (``_ham_pairs_recursive``), which preserves exact recall down to
    near-identical clusters; those are emitted star-shaped with a
    lineage log line instead of quadratically.
    """
    with_sh = simhash(ds, text_col)
    return hash64_near_dup_pairs(
        with_sh, hash_col="simhash", id_col=id_col,
        max_hamming=max_hamming, bucket_cap=bucket_cap,
    )


def hash64_near_dup_pairs(
    with_hash,
    *,
    hash_col: str,
    id_col: str = "doc_id",
    max_hamming: int = 3,
    bucket_cap: int = 2000,
):
    """Generic hamming near-dup over ANY precomputed 64-bit hash column
    (int64-viewed uint64): the banding/verify engine behind
    ``simhash_near_dup_pairs``, reused verbatim for image perceptual
    hashes. Bands the 64 bits into 4x16-bit keys (a pair within
    hamming <= 3 collides on >= 1 band; larger ``max_hamming`` keeps
    recall via the pigeonhole recursion inside hot buckets), one
    grouped shuffle on (band, bucket), exact hamming verify.
    Returns a Dataset of ``(id_a, id_b, hamming)``."""

    def bandify(df: pd.DataFrame) -> pd.DataFrame:
        sh = df[hash_col].to_numpy(np.int64).view(np.uint64)
        out = []
        for band in range(4):
            key = ((sh >> np.uint64(16 * band)) & np.uint64(0xFFFF)).astype(np.int64)
            out.append(
                pd.DataFrame(
                    {"band": band, "bucket": key, "id": df[id_col], hash_col: df[hash_col]}
                )
            )
        return pd.concat(out, ignore_index=True)

    banded = with_hash.map_batches(bandify, batch_format="pandas")

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=["id"]).sort_values("id")
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
             "hamming": pd.Series(dtype=np.int64)}
        )
        if len(g) < 2:
            return empty
        ids = g["id"].to_numpy()
        sh = g[hash_col].to_numpy(np.int64).view(np.uint64)
        band = int(g["band"].iloc[0])
        free = [b for b in range(64) if not (16 * band <= b < 16 * (band + 1))]
        chunks: list = []
        _ham_pairs_recursive(ids, sh, free, max_hamming, bucket_cap, chunks)
        if not chunks:
            return empty
        return pd.DataFrame(
            {
                "id_a": np.concatenate([c[0] for c in chunks]),
                "id_b": np.concatenate([c[1] for c in chunks]),
                "hamming": np.concatenate([c[2] for c in chunks]),
            }
        ).drop_duplicates(subset=["id_a", "id_b"])

    from .joins import distinct_rows, grouped_apply

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = [pairs(g) for _, g in df.groupby(["band", "bucket"], sort=False)]
        return pd.concat(outs, ignore_index=True) if outs else pairs(df)

    found = grouped_apply(banded, ["band", "bucket"], bucket_pairs, num_buckets=32)

    # a pair can collide in up to 4 bands — dedup stays distributed
    # (pair-keyed buckets), never a driver materialization: the total
    # pair set of a heavily-duplicated 100-TB corpus needn't fit one
    # process even when each bucket is capped.
    def drop_dup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["id_a", "id_b"])

    return grouped_apply(found, ["id_a", "id_b"], drop_dup_pairs, num_buckets=32)


# ------------------------------------------------------- embedding near-dup


#: per-worker cache of hyperplane matrices keyed (seed, dim, n_planes) —
#: per-worker state, built once, never regenerated per batch
_PLANES_CACHE: dict = {}


def _planes_for(seed: int, d: int, n_planes: int) -> np.ndarray:
    key = (seed, d, n_planes)
    if key not in _PLANES_CACHE:
        rng = np.random.RandomState(seed)
        _PLANES_CACHE[key] = rng.normal(size=(d, n_planes))
    return _PLANES_CACHE[key]


def _cos_pairs_recursive(
    ids: np.ndarray,
    vecs: np.ndarray,
    threshold: float,
    cap: int,
    seed: int,
    depth: int,
    out: list,
) -> None:
    """Emit within-bucket cosine pairs without all-pairs beyond ``cap``:
    an over-cap bucket is split by one extra deterministic hyperplane
    (seeded by depth) and both halves recurse — effectively more LSH
    planes for hot regions of the embedding space. A qualifying pair
    straddles one extra split with probability ~ arccos(threshold)/pi
    (< 6% per split at threshold 0.95); each split is logged as lineage.
    """
    n = len(ids)
    if n < 2:
        return
    if n <= cap or depth > 60:
        sim = vecs @ vecs.T
        ia, ib = np.triu_indices(n, k=1)
        cs = sim[ia, ib]
        m = cs >= threshold
        a, b = ids[ia][m], ids[ib][m]
        out.append((np.minimum(a, b), np.maximum(a, b), cs[m]))
        return
    d = vecs.shape[1]
    plane = _planes_for(seed + 100_003 * (depth + 1), d, 1)[:, 0]
    side = (vecs @ plane) >= 0
    _LOG.info(
        "embedding LSH: hot bucket of %d vectors split at depth %d "
        "(%d / %d)", n, depth, int(side.sum()), int((~side).sum())
    )
    for mask in (side, ~side):
        if mask.sum() >= 2:
            _cos_pairs_recursive(
                ids[mask], vecs[mask], threshold, cap, seed, depth + 1, out
            )


def embedding_near_dup_pairs(
    ds,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 13,
    dim: int | None = None,
    bucket_cap: int = 4000,
):
    """Embedding-cosine near-dup via random-hyperplane LSH buckets.

    Vectors whose signs agree on all n_planes hyperplanes land in the
    same bucket; within-bucket exact cosine >= threshold pairs are
    emitted. Approximate by design (pairs split across buckets are
    missed — raise recall with fewer planes or multiprobe);
    deterministic given the seed. Buckets beyond ``bucket_cap`` (hot
    regions — 2^n_planes buckets fill linearly with corpus size) are
    recursively split by extra deterministic hyperplanes instead of
    doing quadratic all-pairs; every split is logged as lineage.
    Returns a Dataset of (id_a, id_b, cosine).
    """

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        d = vecs.shape[1]
        planes = _planes_for(seed, d, n_planes)
        signs = (vecs @ planes) >= 0
        bucket = np.zeros(len(vecs), dtype=np.int64)
        for i in range(n_planes):
            bucket |= signs[:, i].astype(np.int64) << i
        norm = np.linalg.norm(vecs, axis=1)
        norm[norm == 0] = 1.0
        unit = vecs / norm[:, None]
        return pd.DataFrame(
            {"bucket": bucket, "id": df[id_col], "vec": [v for v in unit]}
        )

    bucketed = ds.map_batches(bucketize, batch_format="pandas")

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=["id"]).sort_values("id")
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
             "cosine": pd.Series(dtype=np.float64)}
        )
        if len(g) < 2:
            return empty
        vecs = np.stack(g["vec"].to_list())
        ids = g["id"].to_numpy()
        chunks: list = []
        _cos_pairs_recursive(ids, vecs, threshold, bucket_cap, seed, 0, chunks)
        if not chunks:
            return empty
        return pd.DataFrame(
            {
                "id_a": np.concatenate([c[0] for c in chunks]),
                "id_b": np.concatenate([c[1] for c in chunks]),
                "cosine": np.concatenate([c[2] for c in chunks]),
            }
        )

    from .joins import grouped_apply

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = [pairs(g) for _, g in df.groupby("bucket", sort=False)]
        return pd.concat(outs, ignore_index=True) if outs else pairs(df)

    # each vector lives in exactly one bucket and the recursion
    # partitions within it, so pairs are unique by construction — the
    # Dataset is returned as-is (no driver materialization; callers
    # that want a driver frame collect behind their own, documented,
    # fixture-sized cap).
    return grouped_apply(bucketed, "bucket", bucket_pairs, num_buckets=32)


# ------------------------------------------------- edit-distance linkage


def levenshtein_batch(a, b) -> np.ndarray:
    """Unit-cost edit distance for N string pairs at once (int64 out)
    over UTF-8 BYTES — matching DuckDB ``levenshtein`` exactly (which
    is byte-based: ``levenshtein('ü','u') = 2``). Vectorized ACROSS
    pairs: the classic DP runs its (i, j) grid sequentially, but each
    cell update is one numpy op over all N pairs — max_len^2 vector
    steps total instead of N separate Python DPs."""
    a = [x.encode("utf-8") for x in a]
    b = [x.encode("utf-8") for x in b]
    n = len(a)
    if n == 0:
        return np.array([], dtype=np.int64)
    la = np.array([len(x) for x in a], dtype=np.int64)
    lb = np.array([len(x) for x in b], dtype=np.int64)
    La = int(la.max())
    Lb = int(lb.max())

    def pack(bts, L):
        m = np.zeros((n, L), dtype=np.uint8)
        if L == 0:
            return m
        flat = np.frombuffer(b"".join(bts), dtype=np.uint8)
        lens = np.array([len(s) for s in bts], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(lens[:-1])])
        for p in range(L):
            sel = lens > p
            m[sel, p] = flat[starts[sel] + p]
        return m

    A = pack(a, La)
    B = pack(b, Lb)
    res = np.empty(n, dtype=np.int64)
    res[la == 0] = lb[la == 0]
    prev = np.tile(np.arange(Lb + 1, dtype=np.int64), (n, 1))
    for i in range(1, La + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = A[:, i - 1][:, None]
        sub = prev[:, :-1] + (ai != B).astype(np.int64)
        dele = prev[:, 1:] + 1
        base = np.minimum(sub, dele)
        for j in range(1, Lb + 1):
            cur[:, j] = np.minimum(base[:, j - 1], cur[:, j - 1] + 1)
        done = la == i
        if done.any():
            res[done] = cur[done, lb[done]]
        prev = cur
    return res


def _deletion_variants(s: str, k: int):
    """All strings reachable from ``s`` by deleting up to ``k`` (<= 2)
    characters, including ``s`` itself."""
    out = {s}
    L = len(s)
    for i in range(L):
        out.add(s[:i] + s[i + 1:])
    if k >= 2:
        for i in range(L):
            for j in range(i + 1, L):
                out.add(s[:i] + s[i + 1:j] + s[j + 1:])
    return out


def fuzzy_pairs(ds, key_col: str, text_col: str, *, max_dist: int = 2,
                num_buckets: int = 64):
    """Complete edit-distance self-join (record linkage): every id pair
    whose texts are within ``max_dist`` (<= 2) edits, as
    (id_a < id_b, dist) — bit-equal to an unblocked SQL
    ``levenshtein(a, b) <= max_dist`` self-join.

    Scale shape (three stages, no all-pairs over rows anywhere):

    1. dedup to DISTINCT texts — duplicated texts pair up wholesale, so
       same-text id pairs (dist 0) come from loop-free run pairing per
       text group, and the expensive comparison only ever sees the
       distinct-text table (vocabulary-sized, not corpus-sized).
    2. deletion-neighborhood join over distinct texts (SymSpell-style):
       a pair within k edits must share a <= k-deletion variant (delete
       each side's edited alignment positions), so hashing every
       variant and pairing within variant buckets finds ALL candidates
       without a quadratic block — then the pair-batched DP verifies.
       Hash collisions only add candidates (verified away), never drop.
    3. two bucketed joins expand verified text pairs back to id pairs
       through the (text, id) multiplicity.

    Designed for short keys (names/titles/urls: ~L^2/2 variants per
    distinct text); for long documents use the shingle-based near-dup
    family instead.
    """
    from .graphops import pairs_within_runs
    from .joins import distinct_rows, grouped_apply, hash_join
    from .sketches import hash_strings

    if max_dist > 2:
        raise ValueError("deletion-neighborhood join supports max_dist <= 2")

    base = ds.map_batches(
        lambda df: pd.DataFrame(
            {"t": df[text_col].to_numpy(object),
             "id": df[key_col].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    ).materialize()  # consumed by stages 1, 2 and the expansion joins

    # ---- stage 1: same-text pairs + distinct texts, one text shuffle
    def same_text_pairs(df: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(df["t"], sort=True)
        ids = df["id"].to_numpy(np.int64)
        order = np.lexsort((ids, codes))
        p = pairs_within_runs(codes[order].astype(np.int64), ids[order])
        return pd.DataFrame(
            {"id_a": p["u"], "id_b": p["v"],
             "dist": np.zeros(len(p["u"]), dtype=np.int64)}
        )

    same = grouped_apply(base, "t", same_text_pairs, num_buckets=num_buckets)

    def distinct_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[["t"]].drop_duplicates()

    names = grouped_apply(
        base, "t", distinct_partial, drop_partial=distinct_partial,
        num_buckets=num_buckets,
    ).materialize()

    # ---- stage 2: deletion-variant buckets over distinct texts
    def variants(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["t"].to_numpy(object)
        outs, owners = [], []
        for t in toks:
            vs = list(_deletion_variants(t, max_dist))
            outs.extend(vs)
            owners.extend([t] * len(vs))
        return pd.DataFrame(
            {"vk": hash_strings(outs, 257).astype(np.int64),
             "t": np.array(owners, dtype=object)}
        )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d2 = df.drop_duplicates(["vk", "t"])
        vk = d2["vk"].to_numpy(np.int64)
        t = d2["t"].to_numpy(object)
        order = np.lexsort((t, vk))
        p = pairs_within_runs(vk[order], np.arange(len(vk), dtype=np.int64))
        ta = t[order][p["u"]]
        tb = t[order][p["v"]]
        return pd.DataFrame({"ta": ta, "tb": tb}).drop_duplicates()

    cand = grouped_apply(
        names.map_batches(variants, batch_format="pandas"),
        "vk", bucket_pairs, num_buckets=num_buckets,
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["ta", "tb"])
        if not len(df):
            return pd.DataFrame(
                {"ta": pd.Series(dtype=object), "tb": pd.Series(dtype=object),
                 "dist": pd.Series(dtype=np.int64)}
            )
        d = levenshtein_batch(df["ta"].to_numpy(object), df["tb"].to_numpy(object))
        hit = d <= max_dist
        return pd.DataFrame(
            {"ta": df["ta"].to_numpy(object)[hit],
             "tb": df["tb"].to_numpy(object)[hit],
             "dist": d[hit].astype(np.int64)}
        )

    # candidates can repeat across variant buckets -> global pair dedup
    # rides the same shuffle as verification
    verified = grouped_apply(
        cand, ["ta", "tb"], verify,
        drop_partial=lambda df: df.drop_duplicates(["ta", "tb"]),
        num_buckets=num_buckets,
    )

    # ---- stage 3: expand text pairs to id pairs
    ids_a = base.map_batches(
        lambda df: df.rename(columns={"t": "ta", "id": "raw_a"}),
        batch_format="pandas",
    )
    ids_b = base.map_batches(
        lambda df: df.rename(columns={"t": "tb", "id": "raw_b"}),
        batch_format="pandas",
    )
    expanded = hash_join(
        hash_join(verified, ids_a, on="ta", num_buckets=num_buckets),
        ids_b, on="tb", num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        a = df["raw_a"].to_numpy(np.int64)
        b = df["raw_b"].to_numpy(np.int64)
        return pd.DataFrame(
            {"id_a": np.minimum(a, b), "id_b": np.maximum(a, b),
             "dist": df["dist"].to_numpy(np.int64)}
        )

    return same.union(expanded.map_batches(finish, batch_format="pandas"))


# --------------------------------------------------------- decontamination


def contamination_counts(docs, *, n: int = 5, num_buckets: int = 64,
                         text_col: str = "text", id_col: str = "doc_id",
                         group_col: str = "lang"):
    """Train/test decontamination audit over a hash-split corpus: a
    test document is *contaminated* when it shares at least one
    whitespace-token ``n``-gram with ANY train document (the benchmark
    -leakage check run before training). Split assignment is
    ``sampling.hash_split`` (pure function of the id), so the audit is
    reproducible across layouts. Returns a pandas frame
    ``(group, n_test, n_contaminated)`` (int64 counts per group).

    Scale shape: per-doc DISTINCT grams are emitted in one fused
    vectorized pass (flat token array + shifted object-concat, no
    per-gram Python loop); ONE gram-bucket shuffle marks each gram
    group that contains a train row and emits its test doc ids; a
    second (tiny) id-bucket pass dedups contaminated ids. Test totals
    pre-aggregate per batch. Nothing materializes the corpus: the gram
    exchange carries (gram, flag, id, group) rows only.
    """
    from .joins import grouped_apply
    from .sampling import split_hash

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        from .textstats import doc_ngrams, flatten_tokens

        b = split_hash(df[id_col].to_numpy()) % 100
        is_train = b < 80
        is_test = b >= 90
        keep = is_train | is_test
        df, is_train = df[keep], is_train[keep]
        flat, doc_of, _ = flatten_tokens(df[text_col])
        grams, gdoc = doc_ngrams(flat, doc_of, n)
        out = pd.DataFrame({
            "gram": grams,
            "is_train": is_train[gdoc],
            "id": df[id_col].to_numpy(np.int64)[gdoc],
            "group": df[group_col].to_numpy()[gdoc],
        })
        return out.drop_duplicates(["gram", "id"])

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        hot = df.groupby("gram")["is_train"].transform("max")
        hit = df[(~df["is_train"]) & hot]
        return hit[["id", "group"]].drop_duplicates("id")

    contaminated = grouped_apply(
        docs.map_batches(gram_rows, batch_format="pandas"),
        "gram", mark, num_buckets=num_buckets,
    )

    def distinct_ids(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("id")

    # this second (tiny) shuffle does the GLOBAL distinct — only
    # per-batch (group, count) partials ever reach the driver, never
    # the contaminated id set itself
    distinct = grouped_apply(contaminated, "id", distinct_ids,
                             num_buckets=max(4, num_buckets // 8))
    pieces = [
        b.groupby("group", as_index=False).size()
        for b in distinct.iter_batches(batch_format="pandas", batch_size=None)
    ]
    c = (pd.concat(pieces, ignore_index=True)
         .groupby("group", as_index=False)["size"].sum()
         .rename(columns={"size": "n_contaminated"})) if pieces else pd.DataFrame(
        {"group": pd.Series(dtype=object),
         "n_contaminated": pd.Series(dtype=np.int64)})

    def test_totals(df: pd.DataFrame) -> pd.DataFrame:
        b = split_hash(df[id_col].to_numpy()) % 100
        g = df[b >= 90].groupby(group_col, as_index=False).size()
        return g.rename(columns={group_col: "group", "size": "n_test"})

    tpieces = [
        b for b in docs.map_batches(test_totals, batch_format="pandas")
        .iter_batches(batch_format="pandas", batch_size=None)
    ]
    t = (pd.concat(tpieces, ignore_index=True)
         .groupby("group", as_index=False)["n_test"].sum()) if tpieces else (
        pd.DataFrame({"group": pd.Series(dtype=object),
                      "n_test": pd.Series(dtype=np.int64)}))

    out = t.merge(c, on="group", how="left")
    out["n_test"] = out["n_test"].astype(np.int64)
    out["n_contaminated"] = out["n_contaminated"].fillna(0).astype(np.int64)
    return out.sort_values("group", ignore_index=True)


def dup_ngram_counts(docs, *, n: int = 4, num_buckets: int = 64,
                     text_col: str = "text", id_col: str = "doc_id"):
    """Cross-document duplicate n-gram counts — the MassiveText/C4
    "shared long n-gram" dedup signal: for each document, how many of
    its DISTINCT whitespace-token ``n``-grams also occur in at least
    one OTHER document. Returns a Dataset of
    ``(doc_id, n_grams, n_dup_grams)`` int64 rows; documents with
    fewer than ``n`` tokens emit no row (mirroring the SQL inner
    join over the empty gram list).

    Scale shape: per-doc distinct grams stream out of one fused
    vectorized pass (:func:`ophois_ray.textstats.doc_ngrams` — no
    per-gram Python loop); ONE gram-bucket shuffle computes each
    gram's distinct-document count exactly (a gram group lives whole
    in one bucket) and immediately reduces to per-(bucket, doc)
    partial counts, so the second shuffle carries at most
    ``num_buckets`` rows per document — the corpus text never moves
    twice and nothing materializes on the driver.
    """
    from .joins import grouped_apply
    from .textstats import doc_ngrams, flatten_tokens

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_of, _ = flatten_tokens(df[text_col])
        grams, gdoc = doc_ngrams(flat, doc_of, n)
        out = pd.DataFrame({
            "gram": grams,
            "doc_id": df[id_col].to_numpy(np.int64)[gdoc],
        })
        return out.drop_duplicates()

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (gram, doc_id): a gram's group size IS its
        # distinct-document count
        nd = df.groupby("gram")["doc_id"].transform("size")
        g = (df.assign(dup=(nd >= 2).to_numpy())
               .groupby("doc_id", as_index=False)
               .agg(n_grams=("gram", "size"), n_dup_grams=("dup", "sum")))
        g["n_grams"] = g["n_grams"].astype(np.int64)
        g["n_dup_grams"] = g["n_dup_grams"].astype(np.int64)
        return g

    partials = grouped_apply(
        docs.map_batches(gram_rows, batch_format="pandas"),
        "gram", mark, num_buckets=num_buckets,
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False)[
            ["n_grams", "n_dup_grams"]].sum()
        return g.astype(np.int64)

    return grouped_apply(partials, "doc_id", merge,
                         num_buckets=max(4, num_buckets // 8))


# ---------------------------------------------------------------- semdedup


def quantize_embeddings(vecs: np.ndarray, shift: int = 12) -> np.ndarray:
    """floor(x * 2^shift) int64 quantization — identically rounded in
    numpy and DuckDB (``CAST(floor(CAST(x AS DOUBLE) * 2^shift) AS
    BIGINT)``), the exactness bridge every integer-mirrored embedding
    operator here rides on."""
    return np.floor(
        vecs.astype(np.float64) * np.float64(float(1 << shift))
    ).astype(np.int64)


def semdedup_removals(
    ds,
    centroids: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    shift: int = 12,
    t_num: int = 81,
    t_den: int = 100,
    cluster_cap: int = 500_000,
    chunk: int = 4096,
    num_buckets: int = 16,
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): assign every
    embedding to its nearest centroid, then within each cluster
    remove all but the lowest-id member of every cosine-near-duplicate
    set. Integer-exact variant: vectors are floor-quantized to int64
    (``quantize_embeddings``), cluster = argmax centroid dot product
    (ties -> lowest centroid index), and ``cos(a,b) >= sqrt(t_num/t_den)``
    is evaluated as ``dot > 0 AND dot^2 * t_den >= t_num * |a|^2 |b|^2``
    — every op exact in both numpy int64 and DuckDB BIGINT/HUGEINT, so
    the removal set is SQL-hash-checkable bit-for-bit (unlike the float
    LSH path ``embedding_near_dup_pairs``).

    Removal rule (mirrors the paper's keep-one-per-dup-group policy in
    its SQL-expressible form): drop b iff some a < b in the same
    cluster is near-duplicate with b; ``dup_of`` is the smallest such a.

    Scale shape: centroid matrix broadcast once (C x d int64 in the
    task closure), assignment + quantization fused with the read; ONE
    cluster-bucket shuffle of the quantized vectors (8B*d/row); each
    cluster's pairwise pass is a chunked exact matmul (memory O(g *
    chunk), the per-cluster work O(g^2/C^2 * corpus^2) is SemDeDup's
    own cost model — clusters are corpus/C sized, C grows with the
    corpus). ``cluster_cap`` guards the quadratic TIME loudly; the
    column chunk is additionally narrowed so each (n x chunk)
    temporary stays near ~64 MB regardless of cluster size — without
    that, a big-but-under-cap cluster would OOM the worker before the
    cap could ever raise.

    Exactness bound (documented, asserted): with unit-norm inputs and
    |x| <= 0.5, |q| <= 2^(shift-1), norms <= d * 2^(2shift-2); for
    d=64, shift=12 every product below stays under 2^62 and float64
    matmul partial sums stay under 2^53 (exact), verified by the
    parity pytest against a brute-force python oracle.
    """
    cent = np.ascontiguousarray(centroids, dtype=np.int64)
    dim = cent.shape[1]
    from .joins import grouped_apply

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "vec_id": pd.Series(dtype=np.int64),
                "cluster": pd.Series(dtype=np.int64),
                "nrm": pd.Series(dtype=np.int64),
                "qb": pd.Series(dtype=object),
            })
        vecs = np.stack(
            [np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        q = quantize_embeddings(vecs, shift)
        # float64 matmul is exact here: every partial sum < 2^53
        dots = np.rint(q.astype(np.float64) @ cent.T.astype(np.float64)
                       ).astype(np.int64)
        cl = np.argmax(dots, axis=1).astype(np.int64)  # first max = lowest id
        nrm = np.einsum("ij,ij->i", q, q)
        return pd.DataFrame({
            "vec_id": df[id_col].to_numpy(np.int64),
            "cluster": cl,
            "nrm": nrm,
            "qb": [row.tobytes() for row in q],
        })

    assigned = ds.map_batches(assign, batch_format="pandas")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_id, out_cl, out_dup = [], [], []
        for cl, g in df.groupby("cluster"):
            g = g.sort_values("vec_id")
            n = len(g)
            if n < 2:
                continue
            if n > cluster_cap:
                raise ValueError(
                    f"semdedup cluster {cl} has {n} rows > cluster_cap="
                    f"{cluster_cap}; raise n_centroids (SemDeDup sizes "
                    "clusters ~corpus/C) or the cap")
            Q = np.frombuffer(
                b"".join(g["qb"].to_list()), dtype=np.int64
            ).reshape(n, dim)
            Qf = Q.astype(np.float64)
            ids = g["vec_id"].to_numpy(np.int64)
            nrm = g["nrm"].to_numpy(np.int64)
            removed = np.zeros(n, dtype=bool)
            dup_of = np.zeros(n, dtype=np.int64)
            # ~64 MB per (n x chunk) int64 temporary, whatever n is
            eff_chunk = max(64, min(chunk, (64 << 20) // (8 * n)))
            for lo in range(0, n, eff_chunk):
                hi = min(lo + eff_chunk, n)
                # exact: partial sums < 2^53
                G = np.rint(Qf @ Qf[lo:hi].T).astype(np.int64)
                pred = (G > 0) & (
                    G * G * np.int64(t_den)
                    >= np.int64(t_num) * nrm[:, None] * nrm[None, lo:hi]
                )
                # strict upper triangle: row index < column index
                pred &= np.arange(n)[:, None] < np.arange(lo, hi)[None, :]
                hit = pred.any(axis=0)
                first = pred.argmax(axis=0)
                removed[lo:hi][hit] = True
                dup_of[lo:hi][hit] = ids[first[hit]]
            out_id.append(ids[removed])
            out_cl.append(np.full(int(removed.sum()), cl, dtype=np.int64))
            out_dup.append(dup_of[removed])
        if not out_id:
            return pd.DataFrame({
                "vec_id": pd.Series(dtype=np.int64),
                "cluster": pd.Series(dtype=np.int64),
                "dup_of": pd.Series(dtype=np.int64),
            })
        return pd.DataFrame({
            "vec_id": np.concatenate(out_id),
            "cluster": np.concatenate(out_cl),
            "dup_of": np.concatenate(out_dup),
        })

    return grouped_apply(assigned, "cluster", per_bucket,
                         num_buckets=num_buckets)


def shared_key_pairs(rows, *, id_col: str = "doc_id", key_col: str = "lm",
                     min_shared: int = 5, bucket_cap: int = 200,
                     num_buckets: int = 32):
    """Candidate pairs by shared discrete keys — the posting-list /
    Shazam-constellation shape: ids sharing >= ``min_shared`` distinct
    ``key_col`` values become a pair with the exact shared count.

    Scale shape: per-batch (id, key) dedup shrinks the single key
    shuffle; every occurrence of a key lands in one bucket, so per-key
    clip sets are complete and per-key pair emission is exact; keys
    held by > ``bucket_cap`` ids are SKIPPED with a log line (a
    degenerate key — silence, a zero frame — would otherwise emit
    quadratically; matching clips share many specific keys, so recall
    survives); a second tiny int-pair shuffle sums the per-key
    contributions. Returns pandas ``(id_a, id_b, n_shared)``."""
    from .joins import grouped_apply

    empty = pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                          "id_b": pd.Series(dtype=np.int64),
                          "n_shared": pd.Series(dtype=np.int64)})

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates([id_col, key_col])

    def key_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _k, g in df.groupby(key_col, sort=False):
            ids = np.unique(g[id_col].to_numpy(np.int64))
            if len(ids) < 2:
                continue
            if len(ids) > bucket_cap:
                _LOG.info("shared_key_pairs: key %s held by %d ids "
                          "skipped (> bucket_cap=%d)", _k, len(ids),
                          bucket_cap)
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            outs_a.append(ids[ia])
            outs_b.append(ids[ib])
        if not outs_a:
            return empty.copy()
        t = pd.DataFrame({"id_a": np.concatenate(outs_a),
                          "id_b": np.concatenate(outs_b)})
        g = t.groupby(["id_a", "id_b"], as_index=False).size()
        g["n_shared"] = g.pop("size").astype(np.int64)
        return g

    cand = grouped_apply(rows, key_col, key_pairs,
                         num_buckets=num_buckets, drop_partial=pre)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["id_a", "id_b"], as_index=False)["n_shared"].sum()
        g = g[g["n_shared"] >= min_shared].copy()
        g["n_shared"] = g["n_shared"].astype(np.int64)
        return g

    out = grouped_apply(cand, ["id_a", "id_b"], merge,
                        num_buckets=16).to_pandas()
    if not len(out):     # 0-row Ray datasets drop their schema
        return empty.copy()
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


def dup_span_stats(ds, *, n: int = 5, text_col: str = "text",
                   id_col: str = "doc_id", num_buckets: int = 32):
    """Exact duplicated-SUBSTRING spans (the "Deduplicating Training
    Data Makes Language Models Better" ExactSubstr shape, Lee et al.
    2022, at n-token granularity): a token span of length >= n is
    duplicated iff every one of its n-grams occurs >= 2 times in the
    corpus, so the duplicated-position set IS the span map. Returns
    per-doc ``(doc_id, n_dup_pos, n_spans, covered_tokens)`` for docs
    with at least one duplicated position — covered_tokens =
    n_dup_pos + n_spans * (n - 1) by the island identity.

    Scale shape: explode to (gram, doc, pos) with per-batch dedup of
    nothing (positions are distinct by construction); ONE gram-string
    bucket shuffle gives exact global occurrence counts (full-string
    equality, no hash collisions); only DUPLICATED positions re-shuffle
    on the int doc key (the shrunk set), where a vectorized run-length
    pass merges consecutive positions into maximal spans."""
    from .joins import grouped_apply

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        ids, poss, gs = [], [], []
        for i, t in zip(df[id_col].to_numpy(np.int64),
                        df[text_col].to_numpy(object)):
            if not isinstance(t, str):
                continue
            w = t.split()
            for p in range(len(w) - n + 1):
                ids.append(i)
                poss.append(p + 1)          # 1-based, matches SQL range
                gs.append(" ".join(w[p:p + n]))
        return pd.DataFrame({id_col: np.array(ids, dtype=np.int64),
                             "pos": np.array(poss, dtype=np.int64),
                             "gram": np.array(gs, dtype=object)})

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("gram")["gram"].transform("size").to_numpy(np.int64)
        keep = c >= 2
        return df.loc[keep, [id_col, "pos"]]

    dup_pos = grouped_apply(
        ds.map_batches(grams, batch_format="pandas"), "gram", mark,
        num_buckets=num_buckets)

    def spans(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for i, g in df.groupby(id_col, sort=False):
            p = np.sort(g["pos"].to_numpy(np.int64))
            starts = int(np.count_nonzero(np.diff(p) != 1)) + 1
            outs.append((int(i), len(p), starts,
                         len(p) + starts * (n - 1)))
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series(dtype=np.int64),
                "n_dup_pos": pd.Series(dtype=np.int64),
                "n_spans": pd.Series(dtype=np.int64),
                "covered_tokens": pd.Series(dtype=np.int64)})
        a = np.array(outs, dtype=np.int64)
        return pd.DataFrame({id_col: a[:, 0], "n_dup_pos": a[:, 1],
                             "n_spans": a[:, 2], "covered_tokens": a[:, 3]})

    return grouped_apply(dup_pos, id_col, spans, num_buckets=16)
