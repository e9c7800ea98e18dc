"""Join strategies for Dataset pipelines (SURVEY.md §2.8).

The reference does every lookup through an in-RAM HashMap
(src/graph.rs:138-140); distributed, each lookup becomes either

- a **broadcast join**: the small side is materialized once into the
  object store (``ray.put``) as sorted numpy arrays and every map task
  binary-searches it (zero shuffle). Default whenever the small side
  fits a worker heap (cap configurable).
- a **bucketed hash join**: both sides get a deterministic
  ``bucket = hash(key) % B`` column, are unioned with a side tag and
  co-grouped with ``groupby(bucket).map_groups`` where a pandas merge
  joins the two sides. One all-to-all shuffle; B bounds per-task
  memory. This is the 100 TB path and the skew-salting hook lives at
  the bucket column.

Key hashing uses ``pandas.util.hash_array`` — deterministic across
processes (unlike Python ``hash`` under PYTHONHASHSEED).
"""

from __future__ import annotations

import contextlib
from collections import deque

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .cells import ragged_arange

DEFAULT_BROADCAST_CAP = 5_000_000  # rows
_SINGLE_TASK_CAP = 4_000_000  # deduped rows ``distinct_rows`` merges in one task
LADDER_LOG_MAX = 4096  # rung decisions kept: a long-lived driver keeps the latest

_LADDER_LOG: deque = deque(maxlen=LADDER_LOG_MAX)
_FORCED: dict = {}  # ladder name (or "*" for every ladder) -> forced rung


def ladder(name: str, size: int, cap: int, small, large):
    """The one rung switch: run ``small()`` when the measured ``size``
    fits ``cap``, else ``large()`` — two physical plans for one result,
    so both rungs return the same type. Every decision is recorded as
    ``{"name", "size", "cap", "rung"}`` (see :func:`ladder_log`). The
    rung is chosen on the driver; :func:`forced_rung` overrides it."""
    rung = _FORCED.get(name) or _FORCED.get("*") or (
        "small" if size <= cap else "large")
    _LADDER_LOG.append({"name": name, "size": int(size), "cap": int(cap),
                        "rung": rung})
    return small() if rung == "small" else large()


@contextlib.contextmanager
def forced_rung(rung: str, *names: str):
    """Force every ladder — or only the named ones — onto ``rung``
    ("small" or "large") inside the block, for rung-parity tests; a
    named force beats a blanket one, so one ladder can differ."""
    if rung not in ("small", "large"):
        raise ValueError(f"rung must be 'small' or 'large', not {rung!r}")
    saved = dict(_FORCED)
    _FORCED.update(dict.fromkeys(names or ("*",), rung))
    try:
        yield
    finally:
        _FORCED.clear()
        _FORCED.update(saved)


def ladder_log() -> list[dict]:
    """The recorded rung decisions, oldest first (at most ``LADDER_LOG_MAX``)."""
    return list(_LADDER_LOG)


_TASKS: dict = {}


def _task(fn):
    """``ray.remote(fn)``, created once per process (library code must
    not touch Ray at import time)."""
    if fn not in _TASKS:
        _TASKS[fn] = ray.remote(fn)
    return _TASKS[fn]


def stable_hash(values) -> np.ndarray:
    """Deterministic uint64 hash of an array of keys."""
    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in "US":
        return pd.util.hash_array(arr.astype(object))
    return pd.util.hash_array(arr)


class BroadcastIndex:
    """Sorted-array lookup table shared via the object store.

    Build once on the driver from a small Dataset; workers ``ray.get``
    it once per actor and answer vectorized lookups with searchsorted.
    """

    def __init__(self, keys: np.ndarray, columns: dict[str, np.ndarray]):
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.columns = {name: col[order] for name, col in columns.items()}

    @classmethod
    def from_dataset(cls, ds, key: str, value_cols: list[str], cap: int = DEFAULT_BROADCAST_CAP):
        tbl = _dataset_to_table(ds, [key] + value_cols)
        n = tbl.num_rows
        if n > cap:
            raise ValueError(
                f"broadcast side has {n} rows > cap {cap}; use hash_join instead"
            )
        keys = np.asarray(tbl[key].to_pandas())
        cols = {c: np.asarray(tbl[c].to_pandas()) for c in value_cols}
        return cls(keys, cols)

    def lookup(self, query_keys, col: str):
        """Values for query_keys; missing keys raise KeyError."""
        q = np.asarray(query_keys)
        if len(self.keys) == 0:
            if len(q) == 0:
                return self.columns[col]
            raise KeyError(f"empty broadcast index; keys not found, e.g. {q[:3]!r}")
        idx = np.searchsorted(self.keys, q)
        idx_clipped = np.minimum(idx, len(self.keys) - 1)
        found = self.keys[idx_clipped] == q
        if not found.all():
            missing = q[~found][:3]
            raise KeyError(f"keys not in broadcast index, e.g. {missing!r}")
        return self.columns[col][idx_clipped]

    def contains(self, query_keys) -> np.ndarray:
        q = np.asarray(query_keys)
        if len(self.keys) == 0:
            return np.zeros(len(q), dtype=bool)
        idx = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        return self.keys[idx] == q

    def lookup_with_mask(self, query_keys, col: str):
        """(values, found_mask); missing keys get the first value (masked out)."""
        q = np.asarray(query_keys)
        if len(self.keys) == 0:
            # empty index: nothing found; placeholder values of the
            # column's dtype (indexing the empty column would raise)
            return (
                np.empty(len(q), dtype=self.columns[col].dtype),
                np.zeros(len(q), dtype=bool),
            )
        idx = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        found = self.keys[idx] == q
        return self.columns[col][idx], found


def _dataset_to_table(ds, columns=None) -> pa.Table:
    """Materialize a (small) Dataset to one Arrow table on the driver."""
    if columns is not None:
        ds = ds.select_columns(columns)
    parts = []
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=65536):
        parts.append(batch)
    if not parts:
        return pa.table({c: [] for c in (columns or [])})
    return pa.concat_tables(parts, promote_options="default")


def put_index(ds, key: str, value_cols: list[str], cap: int = DEFAULT_BROADCAST_CAP):
    """Materialize + broadcast a BroadcastIndex; returns the ObjectRef."""
    return ray.put(BroadcastIndex.from_dataset(ds, key, value_cols, cap))


def bucket_of(df: pd.DataFrame, keys: list[str], num_buckets: int) -> np.ndarray:
    """Deterministic int64 hash bucket of one or more key columns."""
    h = stable_hash(df[keys[0]].to_numpy())
    for k in keys[1:]:
        h = h ^ (stable_hash(df[k].to_numpy()) * np.uint64(0x9E3779B97F4A7C15))
    return (h % np.uint64(num_buckets)).astype(np.int64)


def grouped_apply(ds, keys, fn, *, num_buckets: int = 64, drop_partial=None):
    """Hash-co-partition rows by ``keys`` into ``num_buckets`` buckets
    and apply a VECTORIZED pandas function to each whole bucket.

    Every row of a key group hashes to the same bucket, so any per-key
    aggregation computed inside ``fn`` (pandas groupby/agg/
    drop_duplicates/nunique) is exact. This replaces
    ``groupby(str_keys).aggregate(...)`` in every hot path: Ray's
    sort-based aggregate on object-dtype keys measured 80.6 s on 600k
    two-string-key rows where this pattern takes 0.9 s (64 int-bucket
    groups, vectorized pandas inside).

    ``drop_partial``: optional per-batch pre-combiner (e.g. local
    drop_duplicates) applied before the shuffle to shrink it.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if drop_partial is not None:
            df = drop_partial(df)
        df = df.copy()
        df["__b"] = bucket_of(df, keys, num_buckets)
        return df

    def run_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = fn(df.drop(columns=["__b"]))
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(run_bucket, batch_format="pandas")
    )


def distinct_rows(ds, keys, *, num_buckets: int = 64, out_blocks: int | None = None):
    """DISTINCT over ``keys`` (whole rows, first occurrence per key is
    arbitrary but the key set is exact) with the repo's capped ladder:

    per-block partial ``drop_duplicates`` (shrinks the exchange), then
    — when the partially-deduped row count fits ``_SINGLE_TASK_CAP`` —
    one narrow ``repartition(1)`` merge task + a split back to
    ``out_blocks`` for downstream parallelism, instead of a keyed
    sort exchange. The sort-based ``grouped_apply`` path costs ~3 s of
    parallelism-independent barrier time at 64 buckets (measured on
    the 1.2M-edge co-purchase build: sub-operator wall time ~0.5 s,
    the rest scheduling) where the narrow merge is two cheap block
    moves. Above the cap it falls back to the bucketed
    ``grouped_apply`` — the scalable path; a forced-rung pytest pins
    both paths to identical row sets.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(keys)

    pruned = ds.map_batches(part, batch_format="pandas").materialize()
    return ladder(
        "joins.distinct_rows", pruned.count(), _SINGLE_TASK_CAP,
        lambda: pruned.repartition(1).map_batches(part, batch_format="pandas")
        .repartition(out_blocks or num_buckets),
        lambda: grouped_apply(pruned, keys, part, num_buckets=num_buckets))


def hash_join(
    left,
    right,
    on,
    *,
    how: str = "inner",
    num_buckets: int = 64,
    left_suffix: str = "",
    right_suffix: str = "_r",
):
    """Bucketed hash join of two Datasets on column(s) ``on``.

    Both sides are tagged, bucketed by a deterministic hash of the key,
    unioned (schemas aligned with nulls) and co-grouped; a pandas merge
    inside ``map_groups`` joins each bucket. One shuffle; memory per
    task bounded by the largest bucket — raise ``num_buckets`` (or salt
    the key upstream) for skewed keys.

    A 0-row side without a schema (what Ray gives for an empty map
    output) makes an inner join return that empty side; every other
    ``how`` raises ``ValueError``.
    """
    keys = [on] if isinstance(on, str) else list(on)

    lschema, rschema = left.schema(), right.schema()
    for side, ds, schema in (("left", left, lschema), ("right", right, rschema)):
        if schema is None:
            if how != "inner":
                raise ValueError(f"hash_join(how={how!r}): the {side} side is "
                                 "a 0-row Dataset without a schema")
            return ds
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    rvalue = [c for c in rcols if c not in keys]
    # columns that collide get the right suffix
    rename_r = {c: (c + right_suffix if c in lcols else c) for c in rvalue}
    out_rcols = list(rename_r.values())

    def prep(side, rename):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df.rename(columns=rename)
            h = stable_hash(df[keys[0]].to_numpy())
            for k in keys[1:]:
                h = h ^ (stable_hash(df[k].to_numpy()) * np.uint64(0x9E3779B97F4A7C15))
            df["__bucket"] = (h % np.uint64(num_buckets)).astype(np.int64)
            df["__side"] = side
            return df

        return fn

    l_tagged = left.map_batches(prep(0, {}), batch_format="pandas")
    r_tagged = right.map_batches(prep(1, rename_r), batch_format="pandas")

    # align schemas for union: add each other's missing columns as nulls
    l_only = [c for c in lcols if c not in keys]
    def pad(cols_to_add):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            for c in cols_to_add:
                if c not in df.columns:
                    df[c] = None
            return df
        return fn

    l_tagged = l_tagged.map_batches(pad(out_rcols), batch_format="pandas")
    r_tagged = r_tagged.map_batches(pad(l_only), batch_format="pandas")

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # the union pads each side's missing columns with None, which
        # forces the co-grouped block to object dtype — restore per-side
        # native dtypes or pandas refuses to merge int keys with
        # object-of-int keys
        lf = df[df["__side"] == 0][keys + l_only].infer_objects()
        rf = df[df["__side"] == 1][keys + out_rcols].infer_objects()
        merged = lf.merge(rf, on=keys, how=how)
        return merged

    return (
        l_tagged.union(r_tagged)
        .groupby("__bucket")
        .map_groups(join_bucket, batch_format="pandas")
    )


def asof_join(
    left,
    right,
    *,
    on: str,
    by: str,
    direction: str = "backward",
    how: str = "left",
    num_buckets: int = 64,
    right_suffix: str = "_r",
    right_prep=None,
):
    """Distributed as-of join — the event-stream/time-series join Ray
    Data has no primitive for: each left row picks the single right row
    with the greatest ``on`` <= its own (direction="backward"; "forward"
    = smallest >=) within the same ``by`` group.

    Composition: both sides hash-co-partition by ``by`` into
    ``num_buckets`` int buckets (ONE shuffle, same shape as hash_join);
    each co-grouped bucket runs a vectorized ``pandas.merge_asof`` over
    its sorted slice. ``how="inner"`` drops left rows with no match
    (exactly DuckDB ``ASOF JOIN``); "left" keeps them with nulls.

    Partitioning assumption: all rows of one ``by`` group land in one
    task (required — an as-of match may cross any time split), so the
    largest group's rows must fit a worker; salt-splitting is NOT
    applicable here, raise ``num_buckets`` for many-group skew instead.
    DETERMINISM: the right side must be unique per (by, on) — with
    duplicate right timestamps ``merge_asof`` keeps whichever sorts
    last — so pre-aggregate duplicates away. ``right_prep`` runs that
    dedup INSIDE each co-partition task (on the bucket's right slice,
    post-rename — every row of a ``by`` group is present, so a
    per-bucket groupby equals the global one) instead of as a separate
    keyed shuffle on the same key the join immediately re-shuffles on
    — one exchange saved (see q_events_asof_join).
    """
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    rvalue = [c for c in rcols if c not in (by, on)]
    rename_r = {c: (c + right_suffix if c in lcols else c) for c in rvalue}
    out_rcols = list(rename_r.values())

    def prep(side, rename):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df.rename(columns=rename)
            h = stable_hash(df[by].to_numpy())
            df["__bucket"] = (h % np.uint64(num_buckets)).astype(np.int64)
            df["__side"] = side
            return df

        return fn

    l_tagged = left.map_batches(prep(0, {}), batch_format="pandas")
    r_tagged = right.map_batches(prep(1, rename_r), batch_format="pandas")

    l_val = [c for c in lcols if c not in (by, on)]

    def pad(cols_to_add):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            for c in cols_to_add:
                if c not in df.columns:
                    df[c] = None
            return df

        return fn

    l_tagged = l_tagged.map_batches(pad(out_rcols), batch_format="pandas")
    r_tagged = r_tagged.map_batches(pad(l_val), batch_format="pandas")

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lf = df[df["__side"] == 0][lcols].infer_objects()
        rf = df[df["__side"] == 1][[by, on] + out_rcols].infer_objects()
        if right_prep is not None and len(rf):
            rf = right_prep(rf)
        if len(lf) == 0:
            out = lf.copy()
            for c in out_rcols:
                out[c] = None
            return out
        if len(rf) == 0:
            out = lf.copy()
            for c in out_rcols:
                out[c] = None
            return out if how == "left" else out.iloc[0:0]
        lf = lf.sort_values([on, by], kind="mergesort")
        rf = rf.sort_values([on, by], kind="mergesort")
        # inner semantics need a match indicator that cannot be confused
        # with a legitimately-NULL right value column (and that exists
        # even when the right side has no value columns at all)
        rf = rf.assign(__m=np.int64(1))
        m = pd.merge_asof(lf, rf, on=on, by=by, direction=direction)
        if how == "inner":
            m = m[m["__m"].notna()]
        return m.drop(columns=["__m"])

    return (
        l_tagged.union(r_tagged)
        .groupby("__bucket")
        .map_groups(join_bucket, batch_format="pandas")
    )


def range_join(
    left,
    right,
    *,
    value: str,
    lo: str,
    hi: str,
    bucket_width: float,
    right_suffix: str = "_r",
):
    """Distributed range (interval) join: inner-join each left row to
    every right row whose [lo, hi] interval contains ``left.value``
    (inclusive both ends).

    Composition — the 1-D analog of the cell-discretized spatial join
    (cells_covering_segment -> equi-join): the right side EXPLODES to
    every width-``bucket_width`` bucket its interval overlaps, the left
    side maps to the single bucket of its value, both co-partition on
    the int bucket (one shuffle), and the exact containment filter runs
    vectorized inside each co-group. A (left,right) pair meets in
    exactly ONE bucket (the value's), so no dedup pass is needed.

    Pick ``bucket_width`` near the median interval length: explosion
    factor is len/width + 1 per right row, while per-task fan-in grows
    as width grows (every right interval overlapping a bucket meets
    every left value in it — the irreducible range-join candidate set).
    Skew: a hot value-bucket co-locates like any hash_join bucket;
    shrink ``bucket_width`` to split hot ranges.
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    rename_r = {c: (c + right_suffix if c in lcols else c) for c in rcols}
    out_rcols = [rename_r[c] for c in rcols]
    r_lo, r_hi = rename_r[lo], rename_r[hi]

    def prep_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = np.floor(
            df[value].to_numpy(np.float64) / bucket_width
        ).astype(np.int64)
        df["__side"] = 0
        for c in out_rcols:
            df[c] = None
        return df

    def prep_right(df: pd.DataFrame) -> pd.DataFrame:
        df = df.rename(columns=rename_r)
        b0 = np.floor(df[r_lo].to_numpy(np.float64) / bucket_width).astype(np.int64)
        b1 = np.floor(df[r_hi].to_numpy(np.float64) / bucket_width).astype(np.int64)
        counts = (b1 - b0 + 1).clip(1, None)
        rows = np.repeat(np.arange(len(df), dtype=np.int64), counts)
        out = df.iloc[rows].reset_index(drop=True)
        out["__bucket"] = b0[rows] + ragged_arange(counts)
        out["__side"] = 1
        for c in lcols:
            if c not in out.columns:
                out[c] = None
        return out

    l_tagged = left.map_batches(prep_left, batch_format="pandas")
    r_tagged = right.map_batches(prep_right, batch_format="pandas")

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lf = df[df["__side"] == 0][lcols].infer_objects()
        rf = df[df["__side"] == 1][out_rcols].infer_objects()
        if len(lf) == 0 or len(rf) == 0:
            return pd.DataFrame(columns=lcols + out_rcols)
        m = lf.merge(rf, how="cross")
        v = m[value].to_numpy(np.float64)
        keep = (m[r_lo].to_numpy(np.float64) <= v) & (
            v <= m[r_hi].to_numpy(np.float64)
        )
        return m[keep]

    return (
        l_tagged.union(r_tagged)
        .groupby("__bucket")
        .map_groups(join_bucket, batch_format="pandas")
    )


def stab_lookup(ds, value_col: str, intervals: "pd.DataFrame", *,
                lo_col: str = "lo", hi_col: str = "hi",
                id_col: str = "iv_id", out_col: str = "iv_id",
                miss: int = -1):
    """Broadcast interval STABBING lookup — the IP-geolocation /
    static-range-table shape: every row's ``value_col`` is mapped to
    the id of the DISJOINT half-open interval [lo, hi) containing it
    (``miss`` when none). Unlike :func:`range_join` (two distributed
    sides, one bucket exchange), the interval table here is small and
    static by assumption, so it ships ONCE as sorted numpy arrays
    (ray.put) and the probe is a fused zero-shuffle searchsorted per
    batch — the right 100-TB plan whenever the range table fits a
    worker (geo ranges, rate tiers, time zones).

    Intervals must be disjoint; they are sorted by lo here and the
    containment check after searchsorted rejects gap hits."""
    import ray

    iv = intervals.sort_values(lo_col, ignore_index=True)
    lo = np.ascontiguousarray(iv[lo_col].to_numpy(np.int64))
    hi = np.ascontiguousarray(iv[hi_col].to_numpy(np.int64))
    ids = np.ascontiguousarray(iv[id_col].to_numpy(np.int64))
    if (lo[1:] < hi[:-1]).any():
        raise ValueError("stab_lookup intervals overlap")
    ref = ray.put((lo, hi, ids))

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        lo_, hi_, ids_ = t
        v = df[value_col].to_numpy(np.int64)
        if len(lo_) == 0:       # empty table: all-miss, not hi_[0] OOB
            df = df.copy()
            df[out_col] = np.full(len(df), miss, dtype=np.int64)
            return df
        pos = np.searchsorted(lo_, v, side="right") - 1
        ok = pos >= 0
        safe = np.where(ok, pos, 0)
        ok &= v < hi_[safe]
        df = df.copy()
        df[out_col] = np.where(ok, ids_[safe], np.int64(miss))
        return df

    return ds.map_batches(probe, batch_format="pandas")
