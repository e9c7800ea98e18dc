"""Set-level training-data operators: deterministic splits, per-group
samples, exact distinct counts, hash-sharded output.

A 100-TB training-data pipeline needs reproducible set carving around
the per-document transforms: train/val/test splits that never move a
document between splits across reruns or cluster sizes, stable
per-stratum samples for eval sets, exact unique counts for audits, and
hash-sharded resumable output. None of these exist in the reference
(it stops at graph ops); they are graft-side operators in the style of
SURVEY.md §2's X-entries.

Every operator keys off ONE hash — ``split_hash`` — chosen so the
arithmetic is bit-exactly mirrorable in ANSI SQL with int64/BIGINT
intermediates only (`(key * A + B) % (2^61-1)` with ``key < 2^31``:
the product stays under 2^62, so numpy int64 and DuckDB BIGINT agree
exactly). Determinism across cluster sizes is the point: assignment
depends only on the key, never on block layout or task order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .cells import ragged_arange, run_starts
from .joins import grouped_apply

#: Mersenne prime 2^61-1 — same modulus as textstats fingerprints.
P61 = (1 << 61) - 1
_A = 1103515245  # < 2^31 so key * _A < 2^62 stays int64-exact
_B = 12345
#: SQL expression mirroring split_hash op-for-op (BIGINT throughout).
SQL_SPLIT_HASH = "(({key} * 1103515245 + 12345) % 2305843009213693951)"


def split_hash(key: np.ndarray) -> np.ndarray:
    """int64-exact keyed hash: (key * A + B) mod 2^61-1.

    Requires ``0 <= key < 2^31`` (checked) so every intermediate fits
    int64 without wraparound — that bound is what makes the DuckDB
    mirror bit-exact. Row ids / *_key columns in this engine are well
    under it; reject loudly rather than silently wrap.
    """
    k = np.asarray(key)
    if not np.issubdtype(k.dtype, np.integer):
        raise TypeError(f"split_hash needs an integer key, got {k.dtype}")
    k = k.astype(np.int64, copy=False)
    if len(k) and (int(k.min()) < 0 or int(k.max()) >= 1 << 31):
        raise ValueError("split_hash keys must be in [0, 2^31)")
    return (k * _A + _B) % P61


def check_hash_mod(m: int, what: str = "modulus") -> None:
    """Reject ``split_hash(key) % m`` moduli that are degenerate for
    keys below the 2^61-1 wrap: with g = gcd(A, m) > 1 the residue-0
    class is EMPTY when g does not divide B (no seeds at all — %7
    selected zero) and g-times over-dense when it does (skewed
    shards). Moduli >= 2^31 exceed the key range's affine span (e.g.
    seed_mod = split_hash(k) to select exactly one seed) and are
    exempt. A, B = split_hash's constants; one guard site for every
    ``% m`` consumer."""
    import math

    if m >= 1 << 31:
        return
    g = math.gcd(m, _A)
    if g > 1:
        kind = ("empty (g does not divide B)" if _B % g
                else f"{g}x over-dense")
        raise ValueError(
            f"{what}={m} shares factor {g} with split_hash's "
            f"multiplier (3^5*5*7*129749) — the residue-0 class is "
            f"{kind}; pick a coprime value (97, 23, powers of two) "
            "(CLAUDE.md split_hash hazards)")


def hash_split(
    ds,
    key_col: str,
    *,
    train: int = 80,
    val: int = 10,
    out_col: str = "split",
):
    """Deterministic train/val/test assignment: bucket = hash % 100,
    ``< train`` -> 'train', ``< train+val`` -> 'val', else 'test'.

    A pure map stage — no shuffle, fuses with the read; assignment is a
    function of the key alone, so reruns, resumed jobs and different
    cluster widths all agree, and joining two tables on the key keeps
    them in the same split (the property random splits lack).

    GRANULARITY NOTE: split_hash's multiplier is divisible by 5, so
    hash % 100 only ever lands on the 20 multiples of 5 — splits are
    uniform at 5% granularity, and fractions should be multiples of 5
    (97/2/1 silently behaves as 95/5/0). The hash is pinned by green
    driver mirrors and cannot change; see CLAUDE.md's split_hash
    hazards note.
    """
    cut_val = train + val

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        b = split_hash(df[key_col].to_numpy()) % 100
        df = df.copy()
        df[out_col] = np.where(
            b < train, "train", np.where(b < cut_val, "val", "test")
        )
        return df

    return ds.map_batches(fn, batch_format="pandas")


def sample_per_group(ds, group_col, key_col: str, n: int, *, num_buckets: int = 64):
    """Deterministic n-per-group sample: the n rows with the smallest
    (split_hash(key), key) in each group, ranked 1..n in ``rk``.

    The distributed shape is a two-level top-n: a per-batch partial
    keeps at most n rows per group seen in that block (bounds the
    shuffle at n x |groups| rows per block, independent of data size),
    then an exact per-bucket merge re-ranks; groups are hash-bucketed
    via grouped_apply so the merge never sorts object keys. Equivalent
    to a seeded uniform sample but reproducible across cluster sizes
    and appends (a new row only enters the sample by displacing the
    current max, exactly as SQL row_number over (hash, key) would).
    """
    gcols = [group_col] if isinstance(group_col, str) else list(group_col)

    def topn(df: pd.DataFrame, rank: bool) -> pd.DataFrame:
        if "__h" not in df.columns:
            df = df.assign(__h=split_hash(df[key_col].to_numpy()))
        # global ascending sort, then head(n) per group keeps each
        # group's n smallest while preserving the sorted order
        df = df.sort_values(["__h", key_col], kind="stable")
        out = df.groupby(gcols, sort=False).head(n)
        if not rank:
            return out
        out = out.copy()
        out["rk"] = out.groupby(gcols, sort=False).cumcount().to_numpy() + 1
        return out.drop(columns=["__h"])

    return grouped_apply(
        ds,
        gcols,
        lambda df: topn(df, rank=True),
        num_buckets=num_buckets,
        drop_partial=lambda df: topn(df, rank=False),
    )


def distinct_count(ds, group_col, value_col: str, *, num_buckets: int = 64):
    """Exact per-group distinct-value counts, returned as a small
    pandas DataFrame ``(group..., n_distinct)``.

    Scale shape: per-batch local pair dedup (shrinks the shuffle to
    unique-pairs-per-block), then hash-partition by the VALUE column so
    every (group, value) pair lands in exactly one bucket — per-bucket
    ``nunique`` partials are therefore disjoint and their sum is exact.
    The driver only ever holds num_buckets x |groups| partial rows,
    never the values themselves (the classic count-distinct shuffle,
    no sketch approximation).
    """
    gcols = [group_col] if isinstance(group_col, str) else list(group_col)
    cols = gcols + [value_col]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].drop_duplicates(cols)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.drop_duplicates(cols)
            .groupby(gcols, as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n_distinct"})
        )
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    partials = grouped_apply(
        ds.select_columns(cols),
        value_col,
        per_bucket,
        num_buckets=num_buckets,
        drop_partial=partial,
    ).to_pandas()
    out = partials.groupby(gcols, as_index=False, sort=True)["n_distinct"].sum()
    out["n_distinct"] = out["n_distinct"].astype(np.int64)
    return out


def shard_by_hash(ds, key_col: str, n_shards: int, outdir: str):
    """Write ``ds`` as hash-sharded parquet: every row goes to
    ``outdir/shard=NNNN/`` by ``split_hash(key) % n_shards``.

    No shuffle: each input block splits its rows by shard and appends a
    uniquely-named file per (block, shard) — co-location happens at
    read time by listing one shard directory, which is what a training
    loader wants (deterministic membership, resumable per directory,
    never one giant file). Returns per-shard row counts (pandas).
    """
    check_hash_mod(n_shards, "n_shards")
    import os
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq

    for s in range(n_shards):
        os.makedirs(os.path.join(outdir, f"shard={s:04d}"), exist_ok=True)

    def write_block(df: pd.DataFrame) -> pd.DataFrame:
        shard = (split_hash(df[key_col].to_numpy()) % n_shards).astype(np.int64)
        counts = []
        for s in np.unique(shard):
            part = df[shard == s]
            name = f"part-{uuid.uuid4().hex}.parquet"
            pq.write_table(
                pa.Table.from_pandas(part, preserve_index=False),
                os.path.join(outdir, f"shard={int(s):04d}", name),
            )
            counts.append({"shard": int(s), "n": len(part)})
        return pd.DataFrame(counts, columns=["shard", "n"]).astype(np.int64)

    partials = ds.map_batches(write_block, batch_format="pandas").to_pandas()
    if len(partials) == 0:
        return pd.DataFrame({"shard": [], "n": []}).astype(np.int64)
    out = partials.groupby("shard", as_index=False)["n"].sum()
    return out.astype(np.int64).sort_values("shard").reset_index(drop=True)


# ------------------------------------------------------- sequence packing


def pack_sequences(ds, *, cost_col: str, id_col: str = "doc_id",
                   capacity: int = 4096, range_width: int = 4096,
                   num_buckets: int = 64):
    """Deterministic sequence packing (the pre-training batch-assembly
    step): lay documents end to end in ``id_col`` order and cut the
    stream into fixed-``capacity`` bins, splitting documents across bin
    boundaries exactly as LLM data loaders do. Emits one row per
    (document, bin) overlap: ``(id, bin, seg_start, seg_len)`` with
    ``seg_start`` the offset inside the document — pure integer
    arithmetic over an ordered prefix sum, so the layout is
    bit-reproducible across cluster widths AND SQL-mirrorable by a
    window cumsum. Zero-cost rows are skipped on both sides.

    Scale shape — a distributed ordered prefix-scan in two passes,
    independent of block layout: documents are RANGE-partitioned by
    ``id // range_width``; pass A pre-aggregates per-range cost totals
    per batch (driver merge bounded by n_ids / range_width rows) and
    exclusive-cumsums them into per-range global offsets, broadcast
    once; pass B is ONE range-bucket shuffle where each range sorts its
    ids, local-cumsums, adds its broadcast offset and vectorized-emits
    the bin segments. No stage ever holds more than a range.
    """
    import ray

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        g = pd.DataFrame({
            "rid": ids // range_width,
            "c": df[cost_col].to_numpy(np.int64),
        }).groupby("rid", as_index=False)["c"].sum()
        g["c"] = g["c"].astype(np.int64)
        return g

    pieces = [
        b for b in ds.map_batches(partial, batch_format="pandas")
        .iter_batches(batch_format="pandas", batch_size=None)
    ]
    empty = pd.DataFrame({
        id_col: pd.Series(dtype=np.int64), "bin": pd.Series(dtype=np.int64),
        "seg_start": pd.Series(dtype=np.int64),
        "seg_len": pd.Series(dtype=np.int64),
    })
    if not pieces:
        return ray.data.from_pandas(empty)
    totals = (pd.concat(pieces, ignore_index=True)
              .groupby("rid", as_index=False)["c"].sum()
              .sort_values("rid", ignore_index=True))
    rids = totals["rid"].to_numpy(np.int64)
    csum = np.cumsum(totals["c"].to_numpy(np.int64))
    offsets = np.concatenate([[0], csum[:-1]])  # exclusive per-range
    oref = ray.put((rids, offsets))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        rids_, off_ = ray.get(oref) if isinstance(oref, ray.ObjectRef) else oref
        df = df.sort_values(id_col, ignore_index=True)
        ids = df[id_col].to_numpy(np.int64)
        cost = df[cost_col].to_numpy(np.int64)
        rid = ids // range_width
        # within-range exclusive prefix: global cumsum minus each
        # range's first-row running total
        run = np.cumsum(cost) - cost
        first = run_starts(rid)
        base = np.repeat(run[first], np.diff(np.append(np.where(first)[0], len(ids))))
        pos = np.minimum(np.searchsorted(rids_, rid), len(rids_) - 1)
        if len(rid) and not np.array_equal(rids_[pos], rid):
            # pass A and pass B disagree on the range set — the input
            # re-executed nondeterministically between the two scans;
            # fail loudly rather than add a neighbouring range's offset
            raise KeyError("pack_sequences: range id missing from pass-A totals")
        start = off_[pos] + (run - base)
        keep = cost > 0
        ids, cost, start = ids[keep], cost[keep], start[keep]
        if len(ids) == 0:
            return empty.copy()
        bin_first = start // capacity
        bin_last = (start + cost - 1) // capacity
        nb = (bin_last - bin_first + 1).astype(np.int64)
        row = np.repeat(np.arange(len(ids), dtype=np.int64), nb)
        bins = bin_first[row] + ragged_arange(nb)
        gs = np.maximum(start[row], bins * capacity)
        ge = np.minimum(start[row] + cost[row], (bins + 1) * capacity)
        return pd.DataFrame({
            id_col: ids[row], "bin": bins,
            "seg_start": gs - start[row], "seg_len": ge - gs,
        })

    def rid_col(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__rid"] = df[id_col].to_numpy(np.int64) // range_width
        return df

    return grouped_apply(
        ds.map_batches(rid_col, batch_format="pandas"), "__rid", pack,
        num_buckets=num_buckets,
    )


# --------------------------------------------------------------- skyline


def _skyline2d_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean survivor mask of the 2-D minimization skyline: row i is
    dominated iff some row has x' <= x, y' <= y with at least one
    strict. Equal (x, y) duplicates do not dominate each other (both
    survive). Vectorized sort-scan, no pairwise loop."""
    m = len(x)
    if m == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    first = run_starts(xs)
    # min y within each equal-x group (groups are contiguous)
    gidx = np.cumsum(first) - 1
    gmin = np.minimum.reduceat(ys, np.where(first)[0])
    in_group_min = ys == gmin[gidx]
    # running min of y over STRICTLY smaller x groups; the first x
    # group has no predecessor, so it keeps its min rows UNCONDITIONALLY
    # (a sentinel max value would wrongly drop rows whose y == INT64_MAX)
    prev = np.concatenate([[np.iinfo(np.int64).max],
                           np.minimum.accumulate(gmin)[:-1]])
    keep_sorted = in_group_min & ((gidx == 0) | (ys < prev[gidx]))
    keep = np.zeros(m, dtype=bool)
    keep[order] = keep_sorted
    return keep


def skyline2d(ds, x_col: str, y_col: str, *, final_cap: int = 10_000_000):
    """Distributed 2-D skyline (Pareto front, minimize both columns):
    the rows not strictly dominated in (x, y). Exploits the skyline
    composition property — the global skyline is a subset of the union
    of per-block local skylines — so one fused map pre-filters each
    block to its local front and only those survivors reach the driver
    for the exact final pass (bounded by the union size, <=
    ``final_cap``; a 2-D front over real data is tiny relative to the
    input). Pure integer comparisons; equal duplicates both survive.
    Returns a pandas frame of the surviving rows.
    """
    def local(df: pd.DataFrame) -> pd.DataFrame:
        return df[_skyline2d_kernel(df[x_col].to_numpy(np.int64),
                                    df[y_col].to_numpy(np.int64))]

    pieces = [
        b for b in ds.map_batches(local, batch_format="pandas")
        .iter_batches(batch_format="pandas", batch_size=None)
    ]
    if not pieces:
        # preserve the input schema on empty results — a column-less
        # frame would KeyError in any caller indexing x_col/y_col
        schema = ds.schema()
        cols = list(schema.names) if schema is not None else [x_col, y_col]
        return pd.DataFrame({c: [] for c in cols})
    cand = pd.concat(pieces, ignore_index=True)
    if len(cand) > final_cap:
        raise ValueError(
            f"skyline candidate union {len(cand)} exceeds final_cap "
            f"{final_cap}; repartition-by-x and cascade instead"
        )
    return cand[_skyline2d_kernel(cand[x_col].to_numpy(np.int64),
                                  cand[y_col].to_numpy(np.int64))
                ].reset_index(drop=True)


def mixture_sample(ds, key_col: str, group_col: str,
                   rate_num: dict, *, denom: int = 10000,
                   default_num: int = 0):
    """Deterministic mixture sampling — the Pile/Dolma source-weighting
    pass that up-/down-samples each source into the training mix: a row
    is kept iff ``split_hash(key) % denom < rate_num[group]`` (integer
    thresholds out of ``denom``; unknown groups fall back to
    ``default_num``). A pure zero-shuffle filter map: assignment is a
    function of the row alone, so the sample is identical across block
    layouts, cluster widths and reruns, and per-group sampled fractions
    converge to ``rate_num/denom``. ``rate_num`` rides the task closure
    (it is one small dict, not data).

    GRANULARITY NOTE: gcd(split_hash's multiplier, 10000) = 5, so for
    keys below the modulus wrap the residues land on multiples of 5 —
    effective rate granularity is ~1/2000, i.e. rates quantize to the
    nearest 0.05% (see CLAUDE.md split_hash hazards). Pinned by the
    green doc_mixture_sample mirror; do not change the hash.
    """
    items = sorted(rate_num.items())
    groups = np.array([g for g, _ in items], dtype=object)
    nums = np.array([int(v) for _, v in items], dtype=np.int64)
    if len(nums) and (nums.min() < 0 or nums.max() > denom):
        raise ValueError("rate numerators must be in [0, denom]")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        h = split_hash(df[key_col].to_numpy()) % denom
        g = df[group_col].to_numpy(object)
        known = ~pd.isna(g)  # null groups are "unknown" -> default_num
        thr = np.full(len(df), default_num, dtype=np.int64)
        if len(groups) and known.any():
            gk = g[known]
            gi = np.clip(np.searchsorted(groups, gk), 0, len(groups) - 1)
            hit = groups[gi] == gk
            tk = thr[known]
            tk[hit] = nums[gi[hit]]
            thr[known] = tk
        return df[h < thr]

    return ds.map_batches(fn, batch_format="pandas")


def sampled_range_cuts(ds, keys, *, num_buckets: int = 64,
                       sample_denom: int = 16):
    """Stage 1 of the TeraSort shape, shared by rank_global and
    windows.watermark_late_counts: cut tuples (evenly spaced quantiles
    of the sorted sample) from rows whose ``split_hash(last key) %
    sample_denom == 0`` — a pure function of the DATA, so boundaries
    are identical across layouts, cluster widths and reruns."""
    last = keys[-1]

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        m = split_hash(df[last].to_numpy()) % sample_denom == 0
        return df.loc[m, keys]

    sampled = [b for b in ds.map_batches(sample, batch_format="pandas")
               .iter_batches(batch_format="pandas", batch_size=None)]
    sdf = (pd.concat(sampled, ignore_index=True) if sampled
           else pd.DataFrame(columns=keys))
    if not len(sdf):
        return []
    order = np.lexsort([sdf[c].to_numpy(np.int64) for c in reversed(keys)])
    pos = (np.arange(1, num_buckets) * len(order)) // num_buckets
    cut_rows = sdf.iloc[order[np.minimum(pos, len(order) - 1)]]
    return [tuple(int(v) for v in r)
            for r in cut_rows[keys].itertuples(index=False)]


def range_bucket_of(df: pd.DataFrame, keys, cuts) -> np.ndarray:
    """Stage 2 of the TeraSort shape: vectorized bisect_left of each
    row's key TUPLE over the cut tuples — bucket = number of cuts
    strictly less than the row, one lexicographic compare pass per cut
    (cuts are few, rows are many)."""
    if not cuts:
        return np.zeros(len(df), dtype=np.int64)
    cols = [df[c].to_numpy(np.int64) for c in keys]
    n = len(df)
    bucket = np.zeros(n, dtype=np.int64)
    for cut in cuts:
        lt = np.zeros(n, dtype=bool)
        eq = np.ones(n, dtype=bool)
        for col, cv in zip(cols, cut):
            lt |= eq & (cv < col)
            eq &= col == cv
        bucket += lt
    return bucket


def rank_global(ds, key_cols, *, num_buckets: int = 64,
                sample_denom: int = 16):
    """Global dense ranking / distributed ORDER BY — the TeraSort
    shape: every row gets its exact 0-based position in the total
    order over ``key_cols`` (all int64; the last column must make the
    order total, e.g. a unique id). Returns the input columns plus
    ``rank``.

    Three scale-safe stages, all layout-independent:

    1. CUT POINTS from a deterministic sample: rows whose
       ``split_hash(last key) % sample_denom == 0`` form a sample that
       is a pure function of the DATA (not of block layout), so the
       bucket boundaries — evenly spaced quantiles of the sorted
       sample — are identical across layouts, widths and reruns.
    2. RANGE BUCKETS: each row maps to searchsorted(cuts, key); a
       per-bucket count pass computes exclusive offsets (driver state
       = num_buckets ints).
    3. PER-BUCKET SORT: each bucket sorts locally (lexsort on the key
       tuple) and adds its offset — ranks are exact because bucket b
       holds precisely the rows between its cut points.

    The sample rides the driver only as the cut array
    (num_buckets - 1 tuples); the corpus itself moves once, in the
    bucket shuffle.
    """
    from .joins import grouped_apply

    keys = list(key_cols)
    cuts = sampled_range_cuts(ds, keys, num_buckets=num_buckets,
                              sample_denom=sample_denom)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__rb"] = range_bucket_of(df, keys, cuts)
        return df

    # bucket ONCE and materialize: the count pass and the rank shuffle
    # both consume this — a lazy dataset would re-execute the upstream
    # (and the O(cuts x rows) bucket kernel) per consumer
    bucketed = ds.map_batches(add_bucket, batch_format="pandas").materialize()

    def count_pass(df: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(df["__rb"].to_numpy(np.int64), return_counts=True)
        return pd.DataFrame({"b": u.astype(np.int64),
                             "cnt": c.astype(np.int64)})

    cparts = [p for p in bucketed.select_columns(["__rb"])
              .map_batches(count_pass, batch_format="pandas")
              .iter_batches(batch_format="pandas", batch_size=None)]
    counts = np.zeros(max(len(cuts) + 1, 1), dtype=np.int64)
    for p in cparts:
        np.add.at(counts, p["b"].to_numpy(), p["cnt"].to_numpy())
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # a hash bucket may hold SEVERAL range buckets — rank each
        # range bucket on its own offset
        outs = []
        for b, g in df.groupby("__rb", sort=True):
            order = np.lexsort([g[c].to_numpy(np.int64)
                                for c in reversed(keys)])
            out = g.iloc[order].drop(columns=["__rb"]).reset_index(drop=True)
            out["rank"] = offsets[int(b)] + np.arange(len(out),
                                                      dtype=np.int64)
            outs.append(out)
        if not outs:
            out = df.drop(columns=["__rb"]).iloc[:0].copy()
            out["rank"] = pd.Series(dtype=np.int64)
            return out
        return pd.concat(outs, ignore_index=True)

    # every row of a range bucket must land in ONE task (ranks within a
    # bucket are positional); grouped_apply's hash partition guarantees
    # exactly that per __rb value
    return grouped_apply(
        bucketed, "__rb", rank_bucket,
        num_buckets=max(num_buckets, len(cuts) + 1))


def ntile_global(ds, key_cols, k: int, *, num_buckets: int = 64,
                 sample_denom: int = 16):
    """Global k-quantile bucketing (curriculum / difficulty tiers):
    tile = rank * k // n over the exact total order from
    :func:`rank_global` — integer arithmetic, so tiles are bit-exact
    against SQL ``(row_number() - 1) * k // n`` and every tile has
    floor/ceil(n/k) rows."""
    ranked = rank_global(ds, key_cols, num_buckets=num_buckets,
                         sample_denom=sample_denom).materialize()
    n = ranked.count()

    def tile(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["tile"] = (df["rank"].to_numpy(np.int64) * k) // max(n, 1)
        return df

    return ranked.map_batches(tile, batch_format="pandas")


#: SQL expression mirroring sample_hash op-for-op (BIGINT throughout).
SQL_SAMPLE_HASH = (
    "((((({key} * 1103515245 + 12345) % 2305843009213693951)"
    " % 2147483648) * 2654435761 + 12345) % 2305843009213693951)"
)


def sample_hash(key: np.ndarray) -> np.ndarray:
    """Sampling priority: ``split_hash`` is affine, hence
    ORDER-PRESERVING below its modulus wrap (~2^31 keys) — smallest-n
    by it would just return the n smallest contiguous ids. Truncating
    to the low 31 bits first (a per-key scramble: ``k*c mod 2^31``
    wraps every ~2 keys) and re-expanding breaks the monotonicity while
    staying pure non-negative BIGINT arithmetic, so DuckDB mirrors it
    exactly. Max intermediate: (2^31-1) * 2654435761 < 2^63."""
    h = split_hash(key)
    return ((h % np.int64(1 << 31)) * np.int64(2654435761)
            + np.int64(12345)) % np.int64((1 << 61) - 1)


def sample_global(ds, key_col: str, n: int):
    """Deterministic global n-row sample: the n rows with the smallest
    ``(sample_hash(key), key)`` over the whole dataset, ranked 1..n in
    ``rk`` — the reproducible, append-stable equivalent of
    ``ORDER BY hash LIMIT n`` (a new row enters the sample only by
    displacing the current max). Distributed shape: per-block partial
    top-n bounds the exchange at n rows per block regardless of data
    size; the exact final merge runs on one tiny group.
    """

    def topn(df: pd.DataFrame, rank: bool) -> pd.DataFrame:
        df = df.assign(__h=sample_hash(df[key_col].to_numpy()))
        df = df.sort_values(["__h", key_col], kind="stable").head(n)
        if rank:
            df = df.assign(rk=np.arange(1, len(df) + 1, dtype=np.int64))
        return df.drop(columns=["__h"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = topn(df, rank=False).copy()
        out["__g"] = np.zeros(len(out), dtype=np.int64)
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return topn(df.drop(columns=["__g"]), rank=True)

    return grouped_apply(ds, "__g", final, num_buckets=1,
                         drop_partial=partial)


# --------------------------------------------------- rendezvous sharding

_HRW_P = 2147483647           # 2^31 - 1 (prime)
_HRW_C1 = 2654435761          # Knuth multiplicative constant
_HRW_C2 = 1103515245


def rendezvous_hash(keys: np.ndarray, shard: int) -> np.ndarray:
    """HRW weight of ``shard`` for each int64 key: two multiplicative
    rounds XOR-mixed in between — the xor breaks the affinity that a
    pure Lehmer chain keeps (an affine h(k, s) makes the argmax a wrap
    artifact). Keys are reduced mod 2^31-1 BEFORE the first multiply,
    so every product stays under 2^63 for the full int64 key domain
    (a raw ``key * C1`` would silently wrap numpy int64 at keys >=
    ~3.47e9 while the DuckDB mirror promotes to HUGEINT — divergent)
    and the expression transliterates to SQL verbatim."""
    a = (keys.astype(np.int64) % _HRW_P * _HRW_C1) % _HRW_P
    b = (np.int64(shard) * _HRW_C2) % _HRW_P
    return ((a ^ b) * _HRW_C1) % _HRW_P


def rendezvous_shard(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Highest-random-weight (rendezvous) shard per key: argmax over
    shards of :func:`rendezvous_hash`, ties to the SMALLEST shard id
    (np.argmax first-max). The property that matters at fleet scale:
    growing n -> n+1 moves ONLY keys whose new-shard weight is the new
    global max (~1/(n+1) of them) — no consistent-hash ring state, no
    remap table, pure arithmetic any task can evaluate locally."""
    w = np.stack([rendezvous_hash(keys, s) for s in range(n_shards)], axis=1)
    return np.argmax(w, axis=1).astype(np.int64)


def rendezvous_stability(ds, key_col: str, n_shards: int):
    """Shard-growth stability audit: assign every key under n_shards
    and n_shards+1, report per-NEW-shard (shard, n, moved). Fused
    zero-shuffle map (both assignments are per-row arithmetic) emitting
    per-batch partial counts; the merge is over <= n_shards+1 rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df[key_col].to_numpy(np.int64)
        old = rendezvous_shard(k, n_shards)
        new = rendezvous_shard(k, n_shards + 1)
        g = pd.DataFrame({"shard": new, "n": np.int64(1),
                          "moved": (old != new).astype(np.int64)})
        out = g.groupby("shard", as_index=False).agg(
            n=("n", "sum"), moved=("moved", "sum"))
        return out.astype(np.int64)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if not len(parts):   # 0-row Ray datasets drop their schema
        return pd.DataFrame({"shard": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64),
                             "moved": pd.Series(dtype=np.int64)})
    out = parts.groupby("shard", as_index=False).agg(
        n=("n", "sum"), moved=("moved", "sum")).astype(np.int64)
    return out.sort_values("shard", ignore_index=True)


# ------------------------------------------------- slot apportionment


def apportion_slots(ds, group_col: str, total: int, *,
                    num_buckets: int = 16) -> pd.DataFrame:
    """Largest-remainder (Hamilton) apportionment of ``total`` sample
    slots proportional to group row counts — the integer-exact way to
    turn a mixture spec into per-source budgets (no float weights, no
    rounding drift: slots always sum to exactly ``total``).

        quota_g  = total * n_g // N
        leftover = total - sum(quota)  ->  +1 to the ``leftover``
        groups with the largest remainder total * n_g % N
        (ties to the smaller group key)

    Scale shape: per-batch (group, n) partial counts bound the one
    int-key exchange; the apportionment itself runs on the group table
    (tiny by definition — it IS the mixture spec). Returns pandas
    (group, n, slots)."""
    from .joins import grouped_apply

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_col, as_index=False).size()
        return pd.DataFrame({group_col: g[group_col],
                             "n": g["size"].astype(np.int64)})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_col, as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    counts = grouped_apply(ds.map_batches(partial, batch_format="pandas"),
                           group_col, merge,
                           num_buckets=num_buckets).to_pandas()
    if not len(counts):
        return pd.DataFrame({group_col: pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64),
                             "slots": pd.Series(dtype=np.int64)})
    counts = counts.sort_values(group_col, ignore_index=True)
    n = counts["n"].to_numpy(np.int64)
    N = int(n.sum())
    quota = (total * n) // N
    rem = (total * n) % N
    k = int(total - quota.sum())
    slots = quota.copy()
    if k > 0:
        # rank by (remainder desc, group asc): the table is already
        # group-sorted, so a STABLE sort on -rem keeps group order for
        # ties (and works for string group keys, unlike lexsort)
        order = np.argsort(-rem, kind="stable")
        slots[order[:k]] += 1
    return pd.DataFrame({group_col: counts[group_col], "n": n,
                         "slots": slots})
