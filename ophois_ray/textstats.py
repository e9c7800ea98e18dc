"""Text-analysis operators for training-data pipelines over the
``documents`` table: token counting, quality scoring, n-gram-heuristic
language ID, document fingerprinting. All map_batches, all deterministic;
the SQL-expressible ones (token/char counts) are mirrored 1:1 by
oracle_sql entries.

Whitespace semantics note: the ``str.split()``-based tokenizers (token
count, vocab, tf-idf, collocations, cms/bloom token feeds) split on
Unicode whitespace while their DuckDB mirrors' RE2 ``\\s`` is
ASCII-only — identical on ASCII corpora (all driver testdata), and
documented divergence on exotic whitespace (U+00A0/U+0085).
``BPE_SPLIT_PATTERN`` avoids the issue entirely with explicit ASCII
classes.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

_UPPER_RE = re.compile(r"[^A-Z]")
_SENT_RE = re.compile(r"[^.!?]")

#: top stopwords per language for the n-gram/stopword lang-id heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "with"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "est", "dans"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "mit", "von", "zu"},
    "es": {"el", "la", "los", "las", "de", "y", "un", "una", "es", "en"},
    "it": {"il", "la", "gli", "di", "e", "un", "una", "che", "per", "con"},
}
_LANGS = sorted(STOPWORDS)


def token_count(ds, text_col: str = "text", out_col: str = "n_tokens"):
    """Whitespace token count (== SQL len(list_filter(string_split_regex(
    text, '\\s+'), x -> x != '')))."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = [len(t.split()) if isinstance(t, str) else 0 for t in df[text_col]]
        return df

    return ds.map_batches(fn, batch_format="pandas")


def quality_features(ds, text_col: str = "text"):
    """Integer quality features per document (SQL-mirrorable):
    n_chars_actual, n_upper (A-Z count), n_sentenceish (.!? count),
    n_tokens; plus float stop_ratio (en stopword share) for scoring."""

    stop_en = STOPWORDS["en"]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col]
        df = df.copy()
        df["n_chars_actual"] = texts.str.len().fillna(0).astype(np.int64)
        # count of A-Z == len of text with non-A-Z removed
        df["n_upper"] = [
            len(_UPPER_RE.sub("", t)) if isinstance(t, str) else 0 for t in texts
        ]
        df["n_sentenceish"] = [
            len(_SENT_RE.sub("", t)) if isinstance(t, str) else 0 for t in texts
        ]
        toks = [t.split() if isinstance(t, str) else [] for t in texts]
        df["n_tokens"] = np.array([len(ws) for ws in toks], dtype=np.int64)
        df["stop_ratio"] = np.array(
            [sum(w.lower() in stop_en for w in ws) / max(1, len(ws)) for ws in toks]
        )
        return df

    return ds.map_batches(fn, batch_format="pandas")


def flatten_tokens(texts):
    """Whitespace-tokenize a column of texts into one flat object array
    plus per-token document indices: returns ``(flat, doc_of, ndocs)``.
    The shared scaffold for every vectorized word-n-gram kernel."""
    toks = [t.split() if isinstance(t, str) else [] for t in texts]
    lens = np.array([len(t) for t in toks], dtype=np.int64)
    flat = np.array([w for t in toks for w in t], dtype=object)
    doc_of = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
    return flat, doc_of, len(toks)


def doc_ngrams(flat: np.ndarray, doc_of: np.ndarray, n: int):
    """Space-joined word ``n``-grams over a :func:`flatten_tokens`
    layout, keeping only grams fully inside one document. Returns
    ``(grams, gdoc)``. Column-vectorized object-array concat, no
    per-gram Python loop; string layout mirrors the DuckDB
    ``list_transform(range(1, len(l) - n + 2), i -> l[i] || ' ' ...)``
    oracles exactly — keep both in sync."""
    if len(flat) >= n:
        grams = flat[: len(flat) - n + 1]
        for j in range(1, n):
            grams = grams + " " + flat[j: len(flat) - n + 1 + j]
        valid = doc_of[: len(flat) - n + 1] == doc_of[n - 1:]
        return grams[valid], doc_of[: len(flat) - n + 1][valid]
    return np.array([], dtype=object), np.array([], dtype=np.int64)


def chunk_text(ds, *, size: int = 120, stride: int = 100,
               text_col: str = "text", id_col: str = "doc_id"):
    """Fixed-size overlapping text chunking (the RAG / embedding-prep
    split): chunk k of a document covers characters
    ``[k*stride, k*stride + size)``; a document emits
    ``ceil(max(len, 1) / stride)`` chunks, so an empty document yields
    ONE empty chunk (mirroring SQL ``range(0, greatest(len,1),
    stride)``). Returns a Dataset ``(id, chunk_idx, chunk)``.

    One fused zero-shuffle map; the kernel loops over chunk POSITIONS
    (a handful), each a vectorized ``str.slice`` across the whole
    batch — never a per-document Python loop."""
    if stride < 1 or size < 1:
        raise ValueError("size and stride must be >= 1")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].fillna("")
        lens = texts.str.len().to_numpy(np.int64)
        n_chunks = (np.maximum(lens, 1) + stride - 1) // stride
        ids = df[id_col].to_numpy(np.int64)
        out_id, out_idx, out_chunk = [], [], []
        for k in range(int(n_chunks.max()) if len(df) else 0):
            mask = n_chunks > k
            out_id.append(ids[mask])
            out_idx.append(np.full(int(mask.sum()), k, dtype=np.int64))
            out_chunk.append(
                texts[mask].str.slice(k * stride, k * stride + size)
                .to_numpy(dtype=object))
        if not out_id:
            return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                 "chunk_idx": pd.Series(dtype=np.int64),
                                 "chunk": pd.Series(dtype=object)})
        return pd.DataFrame({
            id_col: np.concatenate(out_id),
            "chunk_idx": np.concatenate(out_idx),
            "chunk": np.concatenate(out_chunk),
        })

    return ds.map_batches(fn, batch_format="pandas")


def repetition_features(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document duplicate-n-gram repetition signals (the
    Gopher-style repetition filter inputs): total and distinct
    whitespace-token bigram / trigram counts, all int64 —

        bg_total, bg_distinct, tg_total, tg_distinct

    ``total - distinct`` is the duplicated-n-gram count used to drop
    boilerplate/looping documents. One fused map_batches pass; the
    within-batch kernel is column-vectorized (object-array string
    concat + groupby-dedup bincount), no per-gram Python loop. Mirrored
    bit-exactly by a DuckDB list_transform/unnest oracle (ASCII
    whitespace; same str.split() mirror note as token_count)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_of, ndocs = flatten_tokens(df[text_col])
        out = {id_col: df[id_col].to_numpy(np.int64)}
        for n, tag in ((2, "bg"), (3, "tg")):
            grams, gdoc = doc_ngrams(flat, doc_of, n)
            out[f"{tag}_total"] = np.bincount(gdoc, minlength=ndocs).astype(np.int64)
            dd = pd.DataFrame({"d": gdoc, "g": grams}).drop_duplicates()
            out[f"{tag}_distinct"] = np.bincount(
                dd["d"].to_numpy(np.int64), minlength=ndocs
            ).astype(np.int64)
        return pd.DataFrame(out)

    return ds.map_batches(fn, batch_format="pandas")


def quality_score(ds, text_col: str = "text"):
    """Composite 0..1 quality score: length sweet-spot x punctuation
    presence x stopword plausibility (heuristic, deterministic)."""
    feat = quality_features(ds, text_col)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_tokens"].to_numpy(np.float64)
        length_s = np.clip(n / 20.0, 0, 1) * np.clip((5000 - n) / 5000.0, 0, 1)
        sent_s = np.clip(df["n_sentenceish"].to_numpy(np.float64) / np.maximum(n / 30.0, 1), 0, 1)
        stop_s = np.clip(df["stop_ratio"].to_numpy() * 5.0, 0, 1)
        df = df.copy()
        df["quality"] = length_s * (0.5 + 0.25 * sent_s + 0.25 * stop_s)
        return df

    return feat.map_batches(fn, batch_format="pandas")


class LangId:
    """Actor-pool stage: stopword-set language ID. Word splitter and
    lowered stopword tables built once per actor."""

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        self.text_col = text_col
        self.out_col = out_col
        self.word_re = re.compile(r"[a-zA-Z']+")
        self.tables = {lang: frozenset(ws) for lang, ws in STOPWORDS.items()}

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        preds = []
        for t in df[self.text_col]:
            if not isinstance(t, str) or not t:
                preds.append("und")
                continue
            words = [w.lower() for w in self.word_re.findall(t)]
            best_lang, best = "und", 0
            for lang in _LANGS:
                score = sum(w in self.tables[lang] for w in words)
                if score > best:
                    best, best_lang = score, lang
            preds.append(best_lang)
        df = df.copy()
        df[self.out_col] = preds
        return df


def lang_id(ds, *, concurrency: int = 4, batch_size: int = 2048):
    return ds.map_batches(
        LangId, batch_format="pandas", batch_size=batch_size, concurrency=(1, concurrency)
    )


# ------------------------------------------------------------ fingerprints

_FP_MOD = np.uint64((1 << 61) - 1)
_FP_BASE = np.uint64(257)


def _poly_hash_codepoints(cps) -> int:
    """Polynomial rolling hash of a code-point sequence mod 2^61-1
    (deterministic, order-sensitive — a document fingerprint). Defined
    over Unicode code points, not utf-8 bytes, so the identical value is
    computable in ANSI SQL (DuckDB list_reduce over unicode(ch) with a
    HUGEINT accumulator — see queries.SQL_DOC_FINGERPRINT)."""
    mod = int(_FP_MOD)
    base = int(_FP_BASE)
    acc = 0
    for b in cps:
        acc = (acc * base + b + 1) % mod
    return acc


def _rolling_kgram_min(cps, k: int = 8) -> int:
    """Minimum over all k-gram polynomial hashes (rabin fingerprint
    winnow-min): robust to local edits, deterministic."""
    if len(cps) < k:
        return _poly_hash_codepoints(cps)
    mod = int(_FP_MOD)
    base = int(_FP_BASE)
    basek = pow(base, k - 1, mod)
    h = 0
    for b in cps[:k]:
        h = (h * base + b + 1) % mod
    best = h
    for i in range(k, len(cps)):
        h = ((h - (cps[i - k] + 1) * basek) * base + cps[i] + 1) % mod
        if h < best:
            best = h
    return best


# ---- vectorized mod-(2^61-1) arithmetic (all uint64-safe) -------------
# p = 2^61-1 is Mersenne: 2^61 === 1 (mod p), so multiplying by 2^8
# splits as x*256 = (x mod 2^53)*256 + (x >> 53)  (exact, < 2^61 + 2^8)
# and any partial sum < 2^64 folds as (x & p) + (x >> 61).

_MASK53 = np.uint64((1 << 53) - 1)


def _fp_fold(x: np.ndarray) -> np.ndarray:
    """Reduce any uint64 array mod p = 2^61-1."""
    x = (x & _FP_MOD) + (x >> np.uint64(61))
    return np.where(x >= _FP_MOD, x - _FP_MOD, x)


def _fp_mul257(x: np.ndarray) -> np.ndarray:
    """x*257 mod p for x < p, without 64-bit overflow."""
    t = ((x & _MASK53) << np.uint64(8)) + (x >> np.uint64(53))  # x*256 mod-ish
    t = np.where(t >= _FP_MOD, t - _FP_MOD, t)
    return _fp_fold(t + x)


def _fp_mul_small(x: np.ndarray, c: int) -> np.ndarray:
    """x*c mod p for x < 2^22 (code points) and any c < p: split c into
    32-bit halves; x*lo fits uint64, x*hi re-shifts by 2^32 via the
    Mersenne identity x*2^32 = ((x mod 2^29) << 32) + (x >> 29)."""
    hi, lo = c >> 32, c & 0xFFFFFFFF
    t1 = x * np.uint64(lo)
    t2 = x * np.uint64(hi)
    t2 = ((t2 & np.uint64((1 << 29) - 1)) << np.uint64(32)) + (
        t2 >> np.uint64(29)
    )
    return _fp_fold(t1 + t2)


def _fingerprints_batch(texts, k: int = 8):
    """Batch-vectorized doc_hash + kgram_min, bit-identical to the
    scalar reference kernels above (pytest-pinned). One column-wise
    Horner pass over a position-major padded code-point matrix: every
    step is a handful of numpy vector ops across the whole batch (no
    per-character Python loop, no prefix-hash matrix — the k-gram
    minimum uses the same rolling-subtract recurrence as the scalar
    kernel, carried as batch vectors). Padding cells are 0 (real cells
    hold cp+1 >= 1), which doubles as the validity mask."""
    cps = [
        np.frombuffer(t.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        if isinstance(t, str) else np.empty(0, np.uint32)
        for t in texts
    ]
    n = len(cps)
    lens = np.array([len(c) for c in cps], dtype=np.int64)
    if n == 0:
        z = np.empty(0, np.uint64)
        return z, z
    L = int(lens.max()) if n else 0
    M = np.zeros((L, n), dtype=np.uint64)
    for i, c in enumerate(cps):
        M[: len(c), i] = c.astype(np.uint64) + np.uint64(1)
    basek = pow(int(_FP_BASE), k - 1, int(_FP_MOD))
    acc = np.zeros(n, dtype=np.uint64)      # full-document Horner
    roll = np.zeros(n, dtype=np.uint64)     # current k-window hash
    best = np.full(n, _FP_MOD, dtype=np.uint64)  # p > any hash
    doc_hash = np.zeros(n, dtype=np.uint64)
    for j in range(L):
        mj = M[j]
        acc = _fp_fold(_fp_mul257(acc) + mj)
        if j >= k:
            # drop char j-k from the window, append char j
            roll = _fp_fold(roll + (_FP_MOD - _fp_mul_small(M[j - k], basek)))
        roll = _fp_fold(_fp_mul257(roll) + mj)
        valid = mj != 0
        if j >= k - 1:
            best = np.where(valid, np.minimum(best, roll), best)
        ended = lens == j + 1
        if ended.any():
            doc_hash[ended] = acc[ended]
    kgram = np.where(lens >= k, best, doc_hash)
    return doc_hash, kgram


def fingerprint(ds, text_col: str = "text", k: int = 8):
    """Adds doc_hash (full-text rolling hash) and kgram_min (minimum
    k-gram hash) int64 columns, both over Unicode code points."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        doc_hash, kgram = _fingerprints_batch(list(df[text_col]), k)
        df["doc_hash"] = doc_hash.astype(np.int64)
        df["kgram_min"] = kgram.astype(np.int64)
        return df

    return ds.map_batches(fn, batch_format="pandas")


def tfidf_topk(ds, n_docs: int, *, text_col: str = "text",
               id_col: str = "doc_id", k: int = 3, scale: int = 1 << 20,
               num_buckets: int = 64):
    """Per-document top-k terms by an integer tf-idf surrogate:
    ``score = tf * ((n_docs * scale) // df)`` — floor-division idf, so
    every arithmetic op is int64-exact and the SQL mirror hash-matches
    bit-for-bit (a float ``ln(N/df)`` idf would rank the same but could
    never be oracle-checked exactly).

    Three stages, each the scale-safe shape: (1) per-batch vectorized
    tokenize + per-doc term counts (a doc never spans batches, so tf is
    exact with zero shuffle); (2) one hash-bucket shuffle on ``token``
    — each bucket holds *all* rows of its tokens, so df (= group size,
    tf rows are unique per (doc, token)) and the score come out of one
    ``grouped_apply``; (3) one shuffle on ``id_col`` for the per-doc
    top-k, with a per-block partial top-k pre-combiner so at most
    k rows per (doc, block) ever move.

    ``n_docs`` is passed in (a metadata-only ``ds.count()`` upstream)
    to keep this a single composable Dataset -> Dataset stage. Caller
    must keep ``n_docs * scale * max_tf`` inside int64; with the
    default 2^20 scale that holds to ~10^9 docs x 8k-token docs.
    Returns (doc_id, token, score, rank), rank 0-based by
    (score DESC, token ASC).
    """
    from .joins import grouped_apply

    idf_num = n_docs * scale

    def tf_batch(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        toks = df[text_col].str.split()
        lens = toks.map(len).to_numpy(np.int64)
        if lens.sum() == 0:
            return pd.DataFrame(
                {id_col: pd.Series(dtype=np.int64),
                 "token": pd.Series(dtype=object),
                 "tf": pd.Series(dtype=np.int64)}
            )
        flat = pd.DataFrame(
            {id_col: np.repeat(ids, lens),
             "token": np.concatenate(list(toks)).astype(object)}
        )
        tf = flat.groupby([id_col, "token"], as_index=False).size()
        tf = tf.rename(columns={"size": "tf"})
        tf["tf"] = tf["tf"].astype(np.int64)
        return tf

    tf_rows = ds.map_batches(tf_batch, batch_format="pandas")

    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        dfreq = df.groupby("token")["tf"].transform("size").to_numpy(np.int64)
        out = pd.DataFrame(
            {id_col: df[id_col].to_numpy(np.int64),
             "token": df["token"].to_numpy(object),
             "score": df["tf"].to_numpy(np.int64) * (idf_num // dfreq)}
        )
        return out

    scored = grouped_apply(tf_rows, "token", score_bucket, num_buckets=num_buckets)

    def topk_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            [id_col, "score", "token"], ascending=[True, False, True],
            kind="stable",
        )
        return df.groupby(id_col, as_index=False).head(k)

    def topk_final(df: pd.DataFrame) -> pd.DataFrame:
        df = topk_block(df).copy()
        df["rank"] = df.groupby(id_col).cumcount().astype(np.int64)
        return df.reset_index(drop=True)

    return grouped_apply(
        scored, id_col, topk_final,
        num_buckets=num_buckets, drop_partial=topk_block,
    )


def bm25_topk(ds, query_terms, *, text_col: str = "text",
              id_col: str = "doc_id", topk: int = 20, scale: int = 1 << 20):
    """Integer-exact BM25 retrieval scoring (k1 = 6/5, b = 3/4 as exact
    rationals): per matching document,

        score = sum over query terms t of
          (scale * (2N - 2*df_t + 1) * 22 * tf * avg)
          // ((2*df_t + 1) * (10*tf*avg + 3*avg + 9*len_d))

    i.e. classic BM25 with idf = (N - df + 1/2) / (df + 1/2) and
    tf-norm (k1+1)*tf / (tf + k1*(1 - b + b*len/avg)), denominators
    cleared so every factor is non-negative int64 floor arithmetic
    (floor == trunc) — bit-reproducible across layouts AND replicated
    verbatim by DuckDB HUGEINT division (queries.SQL_DOC_BM25).
    ``avg = total_tokens // N`` (integer).

    Scale shape: ONE tokenizing pass over the corpus emits per-batch
    stats partials (n_docs, total_tokens, df per query term — bounded
    by the query size) inline with per-doc (len, tf_t) candidate rows
    for docs matching >= 1 term; the driver merges the tiny stats,
    then a fused map scores candidates under broadcast constants with
    a per-block partial top-k, so at most topk x n_blocks rows reach
    the driver. Returns a pandas (doc_id, score) frame ordered
    (score DESC, doc_id ASC), at most ``topk`` rows.
    """
    terms = list(query_terms)
    m = len(terms)
    tf_cols = [f"tf{j}" for j in range(m)]

    def one_pass(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        toks = df[text_col].map(
            lambda t: t.split() if isinstance(t, str) else [])
        lens = toks.map(len).to_numpy(np.int64)
        tf = np.zeros((len(df), m), dtype=np.int64)
        if lens.sum():
            flat = np.concatenate([np.array(t, dtype=object) if t else
                                   np.empty(0, object) for t in toks])
            doc_of = np.repeat(np.arange(len(df)), lens)
            for j, term in enumerate(terms):
                hit = doc_of[flat == term]
                np.add.at(tf[:, j], hit, 1)
        match = tf.sum(axis=1) > 0
        cand = pd.DataFrame({
            "kind": np.zeros(int(match.sum()), dtype=np.int64),
            id_col: ids[match], "len": lens[match],
            **{c: tf[match, j] for j, c in enumerate(tf_cols)},
        })
        stats = pd.DataFrame({
            "kind": [np.int64(1)], id_col: [np.int64(len(df))],
            "len": [np.int64(lens.sum())],
            **{c: [np.int64((tf[:, j] > 0).sum())]
               for j, c in enumerate(tf_cols)},
        })
        return pd.concat([cand, stats], ignore_index=True)

    rows = ds.map_batches(one_pass, batch_format="pandas").materialize()

    stats = pd.concat(
        [b[b["kind"] == 1] for b in rows.iter_batches(
            batch_format="pandas", batch_size=None)],
        ignore_index=True,
    )
    n_docs = int(stats[id_col].sum())
    total = int(stats["len"].sum())
    dfs = [int(stats[c].sum()) for c in tf_cols]
    if n_docs == 0:
        return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.int64)})
    avg = total // n_docs

    def score_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["kind"] == 0]
        ln = df["len"].to_numpy(np.int64)
        score = np.zeros(len(df), dtype=np.int64)
        for j in range(m):
            tf = df[tf_cols[j]].to_numpy(np.int64)
            idf_num = 2 * n_docs - 2 * dfs[j] + 1
            tf_max = int(tf.max()) if len(tf) else 0
            ln_max = int(ln.max()) if len(ln) else 0
            if scale * idf_num * 22 * max(avg, 1) * max(tf_max, 1) >= 1 << 63:
                raise ValueError("bm25 int64 overflow: lower scale")
            # the denominator wraps silently in int64 too — a wrapped
            # negative would be clamped to 1 below and blow the score
            if (2 * dfs[j] + 1) * (10 * tf_max * max(avg, 1)
                                   + 3 * avg + 9 * ln_max) >= 1 << 63:
                raise ValueError("bm25 int64 overflow in denominator")
            num = scale * idf_num * 22 * tf * avg
            den = (2 * dfs[j] + 1) * (10 * tf * avg + 3 * avg + 9 * ln)
            score += np.where(tf > 0, num // np.maximum(den, 1), 0)
        out = pd.DataFrame({id_col: df[id_col].to_numpy(np.int64),
                            "score": score})
        return out.sort_values(
            ["score", id_col], ascending=[False, True]).head(topk)

    parts = [
        b for b in rows.map_batches(score_fn, batch_format="pandas")
        .iter_batches(batch_format="pandas", batch_size=None)
    ]
    merged = (pd.concat(parts, ignore_index=True) if parts
              else pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                 "score": pd.Series(dtype=np.int64)}))
    return merged.sort_values(
        ["score", id_col], ascending=[False, True]
    ).head(topk).reset_index(drop=True)


def collocations(ds, *, text_col: str = "text", k: int = 30,
                 min_count: int = 5, scale: int = 1 << 20,
                 num_buckets: int = 64):
    """Top-k collocations (adjacent word pairs) by an integer PMI
    surrogate: ``score = (c_xy * T * scale) // (c_x * c_y)`` with T the
    total token count — the phrase-detection sweep (word2vec-style) of
    a training corpus, int64-exact end to end so the SQL mirror
    hash-matches.

    Shape: two streaming tokenize passes (bigram + unigram partial
    counts, both pre-aggregated per batch so shuffles carry distinct
    keys only), ``min_count`` prunes the pair table *before* the
    unigram attach, and the final global top-k is a sort-limit over the
    pruned scored pairs. The unigram attach is hybrid: a vocabulary
    under the broadcast cap ships once as a sorted-array BroadcastIndex
    (both lookups become one fused map — measured, the two bucketed
    joins it replaces were the dominant barrier cost); above the cap it
    falls back to two hash joins. Caller keeps ``max_c_xy * T * scale``
    inside int64 (drop ``scale`` for web-scale corpora). Returns
    (pair, n, score) with ``pair = "w1 w2"``.
    """
    import ray

    from .joins import (DEFAULT_BROADCAST_CAP, BroadcastIndex, grouped_apply,
                        hash_join, ladder)

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split()
        lens = toks.map(len).to_numpy(np.int64)
        if lens.sum() == 0:
            return pd.DataFrame(
                {"w1": pd.Series(dtype=object), "w2": pd.Series(dtype=object),
                 "n": pd.Series(dtype=np.int64)}
            )
        flat = np.concatenate(list(toks))
        # valid bigram positions: next token is in the same document
        last_idx = np.cumsum(lens) - 1
        mask = np.ones(max(len(flat) - 1, 0), dtype=bool)
        # empty docs give last_idx -1, which would wrap to mask[-1] and
        # silently drop the batch's final bigram — keep in-range only
        li = last_idx[(last_idx >= 0) & (last_idx < len(flat) - 1)]
        mask[li] = False
        g = pd.DataFrame({"w1": flat[:-1][mask], "w2": flat[1:][mask]})
        vc = g.value_counts(["w1", "w2"]).reset_index(name="n")
        vc["n"] = vc["n"].astype(np.int64)
        vc["w1"] = vc["w1"].astype(object)
        vc["w2"] = vc["w2"].astype(object)
        return vc

    def uni_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[text_col].str.split().explode().dropna().value_counts()
        return pd.DataFrame(
            {"w": vc.index.to_numpy(object), "c": vc.to_numpy(np.int64)}
        )

    def sum_n(col):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby([c for c in df.columns if c != col], as_index=False)[col].sum()
            g[col] = g[col].astype(np.int64)
            return g
        return fn

    pairs = grouped_apply(
        ds.map_batches(bigram_partial, batch_format="pandas"),
        ["w1", "w2"], sum_n("n"), num_buckets=num_buckets,
    )
    uni = grouped_apply(
        ds.map_batches(uni_partial, batch_format="pandas"),
        "w", sum_n("c"), num_buckets=num_buckets,
    ).materialize()  # three consumers: T, two joins
    total = int(uni.sum("c"))

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["n"].to_numpy(np.int64) >= min_count]

    pruned = pairs.map_batches(prune, batch_format="pandas")

    def score_cols(df: pd.DataFrame, c1: np.ndarray, c2: np.ndarray) -> pd.DataFrame:
        n = df["n"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "pair": (df["w1"].astype(str) + " " + df["w2"].astype(str)
                         ).to_numpy(object),
                "n": n,
                "score": (n * total * scale) // (c1.astype(np.int64) * c2.astype(np.int64)),
            }
        )

    def broadcast():
        uref = ray.put(BroadcastIndex.from_dataset(uni, "w", ["c"]))

        def attach_score(df: pd.DataFrame) -> pd.DataFrame:
            idx = ray.get(uref) if isinstance(uref, ray.ObjectRef) else uref
            c1 = idx.lookup(df["w1"].to_numpy(object), "c")
            c2 = idx.lookup(df["w2"].to_numpy(object), "c")
            return score_cols(df, c1, c2)

        return pruned.map_batches(attach_score, batch_format="pandas")

    def join():
        u1 = uni.map_batches(
            lambda df: df.rename(columns={"w": "w1", "c": "c1"}), batch_format="pandas"
        )
        u2 = uni.map_batches(
            lambda df: df.rename(columns={"w": "w2", "c": "c2"}), batch_format="pandas"
        )
        joined = hash_join(
            hash_join(pruned, u1, on="w1", num_buckets=num_buckets),
            u2, on="w2", num_buckets=num_buckets,
        )
        return joined.map_batches(
            lambda df: score_cols(
                df, df["c1"].to_numpy(np.int64), df["c2"].to_numpy(np.int64)
            ),
            batch_format="pandas",
        )

    scored = ladder("textstats.collocations", uni.count(), DEFAULT_BROADCAST_CAP,
                    broadcast, join)
    return scored.sort(["score", "pair"], descending=[True, False]).limit(k)


#: GPT-2-style pretokenizer pattern, restricted to constructs with
#: identical semantics in Python re and RE2 (no \p classes, no
#: lookarounds — both engines match alternations leftmost-first):
#: contractions, space-prefixed letter/digit/punctuation runs, blanks.
#: Whitespace is an EXPLICIT ASCII class: Python's \s is Unicode-aware
#: while RE2's is ASCII-only, so a bare \s would diverge on U+00A0 etc.
BPE_SPLIT_PATTERN = (
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+"
    r"| ?[^A-Za-z0-9 \t\n\r\f\v]+|[ \t\n\r\f\v]+"
)

_BPE_RE = re.compile(BPE_SPLIT_PATTERN)


def token_count_bpe(ds, text_col: str = "text", out_col: str = "n_tokens_bpe",
                    *, kernel: str = "arrow"):
    """BPE-style pretoken count per row (the token-budget estimate a
    training pipeline runs before tokenizing for real): number of
    ``BPE_SPLIT_PATTERN`` matches. The pattern is restricted to
    constructs with identical Python-re / RE2 semantics, so DuckDB's
    ``regexp_extract_all`` AND Arrow's RE2 ``count_substring_regex``
    count identically (oracle-checked + parity pytest).

    kernel="arrow" (default) runs the count as one Arrow RE2 kernel
    call per batch — measured 1.2x faster than the per-row compiled-re
    ``findall`` loop when the source is Arrow-native parquet (0.28 s
    vs 0.33 s min-of-3, 250k docs @ 32 CPUs; counting avoids
    findall's per-match Python objects). From PANDAS-block sources the
    per-batch pandas->arrow conversion flips it (0.79 s vs 0.40 s) —
    the catalog query reads parquet, so arrow is the default;
    kernel="python" keeps the findall loop (the parity reference)."""
    if kernel == "arrow":
        import pyarrow as pa
        import pyarrow.compute as pc

        def fn_a(batch: "pa.Table") -> "pa.Table":
            n = pc.cast(
                pc.count_substring_regex(
                    batch[text_col], pattern=BPE_SPLIT_PATTERN),
                pa.int64(),
            )
            if out_col in batch.schema.names:
                batch = batch.drop_columns([out_col])
            return batch.append_column(out_col, n)

        return ds.map_batches(fn_a, batch_format="pyarrow")

    if kernel != "python":
        raise ValueError(f"kernel must be 'arrow' or 'python', got {kernel!r}")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = (
            df[text_col].map(lambda t: len(_BPE_RE.findall(t)))
            .astype(np.int64)
        )
        return df

    return ds.map_batches(fn, batch_format="pandas")


def lm_surprisal(train_docs, eval_docs, *, text_col: str = "text",
                 id_col: str = "doc_id", scale: int = 1 << 20,
                 num_buckets: int = 16, vocab_cap: int = 50_000_000):
    """Statistical quality scoring with a corpus LM (the CCNet-style
    filter, unigram variant, integer-exact): build whitespace-unigram
    counts ``c(w)`` and total ``T`` over ``train_docs``, then score each
    ``eval_docs`` row as

        lm_score = sum over tokens w of  (T * scale) // (c(w) + 1)

    — add-one-smoothed surprisal in fixed-point; OOV tokens get the
    maximum surprise. Floor division keeps every term a pure int64
    function of the corpus, so scores are bit-reproducible across block
    layouts AND SQL-mirrorable (LEFT JOIN + COALESCE + ``//``). Returns
    a Dataset ``(id, n_tokens, lm_score)`` over eval docs with >= 1
    token. Int64-safe while T * scale * max_doc_tokens < 2^63 — at
    extreme corpus sizes lower ``scale`` (documented bound).

    Scale shape: ONE token-bucket shuffle builds the model
    (per-batch partial counts pre-combine); the vocabulary ships once
    as sorted arrays (requires vocab <= ``vocab_cap`` — beyond that
    co-partition eval tokens and counts by token hash); scoring is a
    fused zero-shuffle map with searchsorted lookups + bincount sums.
    """
    import ray

    from .joins import grouped_apply

    def tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, _ = flatten_tokens(df[text_col])
        g = pd.DataFrame({"w": flat}).groupby("w", as_index=False).size()
        g["size"] = g["size"].astype(np.int64)
        return g.rename(columns={"size": "c"})

    def tok_merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("w", as_index=False)["c"].sum()
        g["c"] = g["c"].astype(np.int64)
        return g

    counts = grouped_apply(
        train_docs.map_batches(tok_partial, batch_format="pandas"),
        "w", tok_merge, num_buckets=num_buckets,
    )
    pieces = [
        b for b in counts.iter_batches(batch_format="pandas", batch_size=None)
    ]
    vocab = (pd.concat(pieces, ignore_index=True).sort_values(
        "w", ignore_index=True)) if pieces else pd.DataFrame(
        {"w": pd.Series(dtype=object), "c": pd.Series(dtype=np.int64)})
    if len(vocab) > vocab_cap:
        raise ValueError(
            f"vocabulary {len(vocab)} exceeds vocab_cap {vocab_cap}; "
            "co-partition by token hash instead of broadcasting"
        )
    words = vocab["w"].to_numpy(object)
    cvals = vocab["c"].to_numpy(np.int64)
    total = int(cvals.sum())
    mref = ray.put((words, cvals))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        words_, cvals_ = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
        flat, doc_of, ndocs = flatten_tokens(df[text_col])
        if len(words_) and len(flat):
            pos = np.minimum(np.searchsorted(words_, flat), len(words_) - 1)
            c = np.where(words_[pos] == flat, cvals_[pos], np.int64(0))
        else:
            c = np.zeros(len(flat), dtype=np.int64)
        surprise = (total * scale) // (c + 1)
        n_tok = np.bincount(doc_of, minlength=ndocs).astype(np.int64)
        s = np.zeros(ndocs, dtype=np.int64)
        np.add.at(s, doc_of, surprise)
        keep = n_tok > 0
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64)[keep],
            "n_tokens": n_tok[keep],
            "lm_score": s[keep],
        })

    return eval_docs.map_batches(score, batch_format="pandas")


def _ilog2_exact(x: np.ndarray) -> np.ndarray:
    """floor(log2(x)) for positive int64, exact at ANY magnitude —
    float log2 misrounds just below powers of two once x > 2^53, so
    this is a branchless 6-step integer bit-length instead."""
    v = x.astype(np.int64).copy()
    r = np.zeros(len(v), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.int64(1) << s)
        r[m] += s
        v[m] >>= s
    return r


def dsir_weights(ds, *, target_col: str = "lang", target_val: str = "en",
                 text_col: str = "text", id_col: str = "doc_id",
                 scale: int = 1 << 20, num_buckets: int = 16,
                 vocab_cap: int = 50_000_000):
    """DSIR-style data selection (Xie et al. 2023, importance
    resampling with hashed/unigram n-gram features), integer-exact
    variant: score every RAW document (rows where ``target_col !=
    target_val``) by how target-like its unigrams are.

    True DSIR weighs log p_target(w) - log p_raw(w); floats would pin
    the result to a summation order, so each token contributes the
    exact integer proxy

        lw(w) = floor(log2( (scale * (c_t(w)+1)) // (c_r(w)+1) ))

    (add-one smoothed likelihood ratio in fixed point, then an exact
    bit-length log2 — ~1-bit granularity per token, monotone in the
    true ratio) and a document's weight is the plain int64 sum of its
    tokens' lw. Every step is integer, so weights are bit-reproducible
    across layouts and SQL-mirrorable (`length(bin(..)) - 1` is the
    same exact floor-log2). Returns a Dataset
    (id, n_tokens, dsir_w) over raw docs with >= 1 token; resampling
    = thresholding / top-k on dsir_w downstream.

    Scale shape: ONE token-bucket shuffle builds BOTH corpora's counts
    (per-batch partials carry a target/raw split, so the contrastive
    model costs the same as lm_surprisal's single-corpus one); the
    (token, lw) table broadcasts once (vocab_cap guard, same
    co-partition escape hatch); scoring is a fused zero-shuffle map.
    """
    import ray

    from .joins import grouped_apply

    def tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_of, _ = flatten_tokens(df[text_col])
        is_t = (df[target_col].to_numpy(object) == target_val)[doc_of]
        g = (pd.DataFrame({"w": flat, "c_t": is_t.astype(np.int64),
                           "c_r": (~is_t).astype(np.int64)})
             .groupby("w", as_index=False)[["c_t", "c_r"]].sum())
        g["c_t"] = g["c_t"].astype(np.int64)
        g["c_r"] = g["c_r"].astype(np.int64)
        return g

    def tok_merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("w", as_index=False)[["c_t", "c_r"]].sum()
        g["c_t"] = g["c_t"].astype(np.int64)
        g["c_r"] = g["c_r"].astype(np.int64)
        return g

    counts = grouped_apply(
        ds.map_batches(tok_partial, batch_format="pandas"),
        "w", tok_merge, num_buckets=num_buckets,
    )
    pieces = [
        b for b in counts.iter_batches(batch_format="pandas", batch_size=None)
    ]
    vocab = (pd.concat(pieces, ignore_index=True).sort_values(
        "w", ignore_index=True)) if pieces else pd.DataFrame(
        {"w": pd.Series(dtype=object), "c_t": pd.Series(dtype=np.int64),
         "c_r": pd.Series(dtype=np.int64)})
    if len(vocab) > vocab_cap:
        raise ValueError(
            f"vocabulary {len(vocab)} exceeds vocab_cap {vocab_cap}; "
            "co-partition by token hash instead of broadcasting"
        )
    words = vocab["w"].to_numpy(object)
    ratio = (scale * (vocab["c_t"].to_numpy(np.int64) + 1)
             ) // (vocab["c_r"].to_numpy(np.int64) + 1)
    lw = _ilog2_exact(ratio) if len(ratio) else np.zeros(0, np.int64)
    mref = ray.put((words, lw))
    oov = int(_ilog2_exact(np.array([scale], dtype=np.int64))[0])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        words_, lw_ = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
        raw = df[df[target_col].to_numpy(object) != target_val]
        flat, doc_of, ndocs = flatten_tokens(raw[text_col])
        if len(words_) and len(flat):
            pos = np.minimum(np.searchsorted(words_, flat), len(words_) - 1)
            tl = np.where(words_[pos] == flat, lw_[pos], np.int64(oov))
        else:
            tl = np.full(len(flat), oov, dtype=np.int64)
        n_tok = np.bincount(doc_of, minlength=ndocs).astype(np.int64)
        s = np.zeros(ndocs, dtype=np.int64)
        np.add.at(s, doc_of, tl)
        keep = n_tok > 0
        return pd.DataFrame({
            id_col: raw[id_col].to_numpy(np.int64)[keep],
            "n_tokens": n_tok[keep],
            "dsir_w": s[keep],
        })

    return ds.map_batches(score, batch_format="pandas")


def dictionary_tag(ds, terms, *, text_col: str = "text",
                   id_col: str = "doc_id"):
    """Gazetteer / dictionary tagging — the list-driven sibling of the
    regex PII detector: count each dictionary term's whitespace-token
    mentions per document (entity lists, topic lexicons, blocklists).

    Scale shape: the sorted term array broadcasts once (ray.put +
    per-worker cache) and every batch emits its own exact (doc, term,
    n_mentions) rows — zero shuffle, since a document's tokens live in
    one batch. Matching is exact token equality (searchsorted into the
    sorted dictionary), so the DuckDB mirror's token = term join is
    identical by construction. Returns a Dataset
    (id, term, n_mentions) with n_mentions >= 1 rows only.
    """
    import ray

    from .pages import _fetch_cached

    tarr = np.array(sorted({str(t) for t in terms}), dtype=object)
    tref = ray.put(tarr)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = _fetch_cached(tref)
        empty = pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                              "term": pd.Series(dtype=object),
                              "n_mentions": pd.Series(dtype=np.int64)})
        flat, doc_of, ndocs = flatten_tokens(df[text_col])
        if not len(flat) or not len(t):
            return empty
        pos = np.minimum(np.searchsorted(t, flat), len(t) - 1)
        hit = t[pos] == flat
        if not hit.any():
            return empty
        di, ti = doc_of[hit], pos[hit]
        key = di.astype(np.int64) * len(t) + ti
        uk, counts = np.unique(key, return_counts=True)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64)[uk // len(t)],
            "term": t[uk % len(t)],
            "n_mentions": counts.astype(np.int64),
        })

    return ds.map_batches(fn, batch_format="pandas")


#: PII detector table: (name, RE2 pattern, scrub mask). Both the engine
#: (pyarrow/RE2 kernels) and the DuckDB mirror (also RE2) evaluate these
#: EXACT strings, so match semantics are identical by construction —
#: keep the list in sync with SQL_DOC_PII in queries.py.
PII_PATTERNS = (
    ("email", r"[a-z0-9]+@[a-z0-9]+\.[a-z]+", "<EMAIL>"),
    ("phone", r"555-[0-9]{4}", "<PHONE>"),
    ("ip", r"[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+", "<IP>"),
)


def pii_counts(ds, text_col: str = "text", id_col: str = "doc_id"):
    """PII detection + redaction audit (the pre-training scrub pass):
    per document, the count of email / phone / IPv4-shaped matches in
    the raw text plus the character length AFTER masking them (scrub
    applies the patterns sequentially in ``PII_PATTERNS`` order, counts
    always run on the original text). Returns
    ``(id, n_email, n_phone, n_ip, scrub_len)`` int64 columns.

    Scale shape: one fused zero-shuffle pass, ``batch_format="pyarrow"``
    with RE2 kernels (`count_substring_regex` / `replace_substring_regex`)
    — no Python row loop, and byte-identical semantics to the DuckDB
    mirror because both engines run RE2 on the same pattern strings.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        cols = {id_col: batch.column(id_col)}
        scrub = t
        for name, pat, mask in PII_PATTERNS:
            cols["n_" + name] = pc.cast(
                pc.count_substring_regex(t, pat), pa.int64())
            scrub = pc.replace_substring_regex(scrub, pat, mask)
        cols["scrub_len"] = pc.cast(pc.utf8_length(scrub), pa.int64())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def inverted_index(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   min_df: int = 2, max_df: int = 10**9, cap: int = 20,
                   num_buckets: int = 64):
    """Inverted-index (posting-list) construction — the IR-side build
    every retrieval corpus needs: token -> the first ``cap`` doc ids
    (ascending) among documents containing it, for tokens whose
    document frequency lies in ``[min_df, max_df]``. Returns
    ``(token, df, postings)`` with ``df`` int64 and ``postings`` a
    comma-joined ascending id string (a portable, exactly-comparable
    surrogate for a list column).

    Scale shape: per-batch vectorized tokenize emits DISTINCT
    (token, doc) pairs (a doc never spans batches); ONE token-bucket
    shuffle holds each token's whole group, so df and the capped
    sorted posting list come straight out of a ``grouped_apply`` —
    no driver state, output bounded by vocab x cap.
    """
    from .joins import grouped_apply

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        flat, doc_of, _ = flatten_tokens(df[text_col])
        out = pd.DataFrame({"token": flat, id_col: ids[doc_of]})
        return out.drop_duplicates()

    def build(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["token", id_col])
        g = df.groupby("token", sort=True)
        dfreq = g.size()
        keep = dfreq[(dfreq >= min_df) & (dfreq <= max_df)]
        if not len(keep):
            return pd.DataFrame({
                "token": pd.Series(dtype=object),
                "df": pd.Series(dtype=np.int64),
                "postings": pd.Series(dtype=object)})
        post = (df[df["token"].isin(keep.index)]
                .groupby("token", sort=True)[id_col]
                .apply(lambda s: ",".join(map(str, s.iloc[:cap]))))
        return pd.DataFrame({
            "token": keep.index.to_numpy(object),
            "df": keep.to_numpy(np.int64),
            "postings": post.to_numpy(object)})

    return grouped_apply(
        ds.map_batches(pairs, batch_format="pandas"),
        "token", build, num_buckets=num_buckets)


def compression_ratio(ds, *, text_col: str = "text",
                      id_col: str = "doc_id", level: int = 6):
    """Compression-ratio quality signal (the Gopher/Dolma heuristic:
    highly compressible text is repetitive boilerplate, incompressible
    text is noise/binary junk): per document, the raw utf-8 byte count
    and its zlib-deflate byte count at a fixed ``level``. Integer
    outputs; zlib at a fixed level is deterministic, so the result is
    layout/rerun-invariant (the driver's rows-only rerun check holds)
    even though DEFLATE is not SQL-expressible.

    One fused zero-shuffle pass; compression runs per row (zlib has no
    batch API) inside an otherwise columnar kernel."""
    import zlib

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].to_numpy(object)
        raw = [t.encode("utf-8") if isinstance(t, str) else b"" for t in texts]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "n_bytes": np.array([len(b) for b in raw], dtype=np.int64),
            "n_zlib": np.array(
                [len(zlib.compress(b, level)) for b in raw],
                dtype=np.int64),
        })

    return ds.map_batches(fn, batch_format="pandas")


# ------------------------------------------------------- BPE training
# Byte-pair-encoding merge learning (Sennrich et al. 2016, "Neural
# Machine Translation of Rare Words with Subword Units"): the tokenizer
# TRAINING step of a data pipeline. The 100-TB shape is the standard
# two-level one: the corpus collapses to a word-frequency table first
# (one word-bucket shuffle — the only pass over the data), and the
# merge loop then runs over that bounded vocabulary, never the corpus.


def word_counts(ds, *, text_col: str = "text", num_buckets: int = 32):
    """Distributed word-frequency table: BPE_SPLIT_PATTERN pretokens
    (whitespace runs dropped), per-batch Counter partials, exact merge
    via one word-bucket grouped_apply. Returns a Dataset (word, n)."""
    from collections import Counter

    from .joins import grouped_apply

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in df[text_col]:
            if isinstance(t, str):
                c.update(w for w in _BPE_RE.findall(t) if not w.isspace())
        if not c:
            return pd.DataFrame({"word": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"word": list(c.keys()),
                             "n": np.fromiter(c.values(), dtype=np.int64)})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("word", sort=False)["n"].sum()
        return pd.DataFrame({"word": g.index.to_numpy(object),
                             "n": g.to_numpy(np.int64)})

    return grouped_apply(ds.map_batches(partial, batch_format="pandas"),
                         "word", merge, num_buckets=num_buckets)


def _bpe_merge_loop(vocab: dict, n_merges: int) -> list:
    """Sennrich merge loop over a word-frequency dict {symbol-tuple:
    count}. Deterministic: best pair = (count desc, pair lexicographic
    asc). Incremental pair->words inverted index so each round touches
    only words containing the merged pair. Returns
    [(left, right, count), ...] in merge order."""
    from collections import defaultdict

    words = {w: [list(w), int(n)] for w, n in vocab.items()}
    pair_n = defaultdict(int)
    pair_words = defaultdict(set)
    for key, (syms, n) in words.items():
        for a, b in zip(syms, syms[1:]):
            pair_n[(a, b)] += n
            pair_words[(a, b)].add(key)
    merges = []
    for _ in range(n_merges):
        if not pair_n:
            break
        best = min(pair_n.items(), key=lambda kv: (-kv[1], kv[0]))
        (la, rb), cnt = best
        if cnt <= 0:
            break
        merges.append((la, rb, cnt))
        joined = la + rb
        for key in list(pair_words[(la, rb)]):
            syms, n = words[key]
            # remove this word's old pair contributions
            for a, b in zip(syms, syms[1:]):
                pair_n[(a, b)] -= n
                if pair_n[(a, b)] <= 0:
                    del pair_n[(a, b)]
                pair_words[(a, b)].discard(key)
            i, out = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == la and syms[i + 1] == rb:
                    out.append(joined)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[key][0] = out
            for a, b in zip(out, out[1:]):
                pair_n[(a, b)] += n
                pair_words[(a, b)].add(key)
    return merges


def bpe_train(ds, n_merges: int, *, text_col: str = "text",
              max_vocab: int = 100_000, num_buckets: int = 32) -> pd.DataFrame:
    """Learn BPE merges over a document corpus. ONE distributed pass
    (word_counts) collapses the corpus to its word-frequency table;
    the vocabulary is bounded to the ``max_vocab`` most frequent words
    (count desc, word asc — deterministic, and a loud bound instead of
    an unbounded driver table); the merge loop then runs over symbol
    tuples (characters + a final '</w>' end-of-word marker). Returns a
    DataFrame (rank, left, right, count) — layout/rerun-invariant by
    construction, the rows-only driver check's requirement.
    """
    wc = word_counts(ds, text_col=text_col,
                     num_buckets=num_buckets).to_pandas()
    if len(wc) == 0:  # 0-row to_pandas drops columns (CLAUDE.md trap)
        return pd.DataFrame({"rank": pd.Series(dtype=np.int64),
                             "left": pd.Series(dtype=object),
                             "right": pd.Series(dtype=object),
                             "count": pd.Series(dtype=np.int64)})
    if len(wc) > max_vocab:
        wc = wc.sort_values(["n", "word"],
                            ascending=[False, True]).head(max_vocab)
    vocab = {tuple(w) + ("</w>",): int(n)
             for w, n in zip(wc["word"], wc["n"])}
    merges = _bpe_merge_loop(vocab, n_merges)
    return pd.DataFrame({
        "rank": np.arange(len(merges), dtype=np.int64),
        "left": [m[0] for m in merges],
        "right": [m[1] for m in merges],
        "count": np.array([m[2] for m in merges], dtype=np.int64),
    })


def _bpe_segment_word(word: str, ranks: dict) -> tuple:
    """Greedy lowest-rank-first merge application to one word."""
    syms = list(word) + ["</w>"]
    while len(syms) > 1:
        best, at = None, -1
        for i, pair in enumerate(zip(syms, syms[1:])):
            r = ranks.get(pair)
            if r is not None and (best is None or r < best):
                best, at = r, i
        if best is None:
            break
        syms[at:at + 2] = [syms[at] + syms[at + 1]]
    return tuple(syms)


_SEG_MEMO: dict = {}  # per-worker distinct-word segmentation memos


def bpe_segment_counts(ds, merges: pd.DataFrame, *,
                       text_col: str = "text", num_buckets: int = 32):
    """Apply learned merges to the corpus and return the exact token
    frequency table (token, n) as a Dataset. The merge table is
    broadcast once (ray.put) and fetched through the per-worker cache
    — a TASK map, not an actor pool: the only per-actor state was a
    small dict + the segmentation memo, and the explicit concurrency
    poisoned read fusion (the repo's measured rule). The memo lives in
    a module-level per-worker dict keyed by the broadcast ref (Zipf
    makes its hit rate high). The token domain is BOUNDED — base
    characters plus one new symbol per learned merge — so per-block
    Counter partials driver-merge exactly instead of paying a
    token-bucket exchange (the tiny-domain rule)."""
    from collections import Counter

    import pyarrow as pa
    import ray

    from .pages import _fetch_cached

    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}
    rref = ray.put(ranks)
    rkey = rref.hex()

    def seg(df: pd.DataFrame) -> pd.DataFrame:
        rk = _fetch_cached(rref)
        memo = _SEG_MEMO.setdefault(rkey, {})
        c = Counter()
        for t in df[text_col]:
            if not isinstance(t, str):
                continue
            for w in _BPE_RE.findall(t):
                if w.isspace():
                    continue
                toks = memo.get(w)
                if toks is None:
                    toks = _bpe_segment_word(w, rk)
                    memo[w] = toks
                c.update(toks)
        if not c:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"token": list(c.keys()),
                             "n": np.fromiter(c.values(), dtype=np.int64)})

    total: Counter = Counter()
    for b in (ds.map_batches(seg, batch_format="pandas")
              .iter_batches(batch_format="pandas", batch_size=None)):
        total.update(dict(zip(b["token"], b["n"])))
    toks = sorted(total)  # deterministic layout for the rerun check
    return ray.data.from_arrow(pa.table({
        "token": pa.array(toks, pa.string()),
        "n": pa.array([int(total[t]) for t in toks], pa.int64()),
    }))


def paragraph_dup_stats(paras, *, num_buckets: int = 64):
    """CCNet-shape exact paragraph-dedup audit over a ``(doc_id, para)``
    occurrence table: per-doc counts of paragraph occurrences whose
    TEXT appears >= 2 times anywhere in the corpus (within- or
    cross-doc), plus the duplicated character mass — the signal CCNet
    uses to drop boilerplate-heavy documents.

    Scale shape (two pre-aggregated shuffles, corpus never collected):
    paragraphs hash-bucket by the paragraph STRING, so every occurrence
    of a given text lands in one bucket and the per-bucket occurrence
    count IS the exact global count (full-string equality — no
    hash-collision risk); each bucket emits per-doc int partials
    (<= |docs touched| rows), merged exactly on the int doc key.

    Output: ``(doc_id, n_paras, n_dup, dup_chars)`` all int64.
    """
    from .joins import grouped_apply

    def bucket_stats(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("para")["para"].transform("size").to_numpy(np.int64)
        dup = c >= 2
        chars = df["para"].str.len().to_numpy(np.int64)
        t = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_paras": np.ones(len(df), np.int64),
            "n_dup": dup.astype(np.int64),
            "dup_chars": np.where(dup, chars, 0).astype(np.int64),
        })
        return t.groupby("doc_id", as_index=False).sum()

    part = grouped_apply(paras, "para", bucket_stats,
                         num_buckets=num_buckets)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).sum()
        for c in ("n_paras", "n_dup", "dup_chars"):
            g[c] = g[c].astype(np.int64)
        return g

    return grouped_apply(part, "doc_id", merge, num_buckets=16)
