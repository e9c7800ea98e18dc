"""P6/P7/D4: web-page operators over the Common-Crawl-style pages table
(schema per BASELINE.json::input_hint: url string, warc_ts timestamp,
html binary, text string, lang string).

P6 extract_text — from-scratch deterministic HTML->text extractor (no
HTML libraries exist in this environment). The single-process
``oracle_extract_text`` below IS the reference extractor for this repo:
the distributed actor-pool stage must produce byte-identical text per
url versus it (the north rule's per-row invariant), and the synthetic
pages generator fills the ``text`` column with its output so the gate
is end-to-end testable.

Extraction contract (deterministic, order of operations fixed):
  1. drop <!-- comments -->, <script>...</script>, <style>...</style>
     (case-insensitive, dot-matches-newline)
  2. strip every remaining <...> tag
  3. decode HTML entities (stdlib html.unescape — deterministic table)
  4. normalize ALL whitespace runs to single spaces and trim
     (byte-stable: " ".join(s.split()))

P7 geotag — first decimal-degree coordinate pair in the text, matched
by a fixed regex ``coords <lat>,<lon>``; pages without a match get null
coordinates and are dropped by ``filter_geotagged``.

D4 dedup_pages — exact per-url dedup keeping the earliest warc_ts
(deterministic tiebreak: smaller html payload hash); a row with a null
url or a null warc_ts never wins. Implemented as one Ray task that
merges the pruned (url, warc_ts) rows into sorted winner arrays + a
broadcast winner filter: no exchange, and never over html payloads.
"""

from __future__ import annotations

import html as _html
import re
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa


from .cells import run_starts
from .joins import _task, stable_hash

_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_SCRIPT_RE = re.compile(r"<script\b.*?</script\s*>", re.S | re.I)
_STYLE_RE = re.compile(r"<style\b.*?</style\s*>", re.S | re.I)
_TAG_RE = re.compile(r"<[^>]*>")
_COORD_RE = re.compile(r"coords (-?\d+\.\d+),(-?\d+\.\d+)")


def _strip_one(s: str) -> str:
    """THE extraction contract on one decoded string: the 4 strip
    passes + entity decode + whitespace normalize, in fixed order.
    Every extraction path (oracle, actor pool, batched datagen) calls
    this single definition so they cannot drift op-for-op."""
    s = _COMMENT_RE.sub(" ", s)
    s = _SCRIPT_RE.sub(" ", s)
    s = _STYLE_RE.sub(" ", s)
    s = _TAG_RE.sub(" ", s)
    return " ".join(_html.unescape(s).split())


def oracle_extract_text(html_bytes) -> str:
    """Single-process reference extractor (the per-url byte-identity
    oracle). Accepts bytes (utf-8) or str."""
    s = html_bytes.decode("utf-8") if isinstance(html_bytes, (bytes, bytearray)) else str(html_bytes)
    return _strip_one(s)


def extract_text_batch(strs) -> list[str]:
    """One batch call of the extraction contract over decoded strings
    (byte-identical to ``oracle_extract_text`` by sharing
    ``_strip_one``; pytest-pinned). Saves the encode/decode round-trip
    when the caller already holds str html (the pages datagen)."""
    return [_strip_one(s) for s in strs]


class ExtractText:
    """Actor-pool map_batches stage: compiled patterns built once per
    actor (__init__), batches of html -> text (__call__).

    Usage: pages.map_batches(ExtractText, batch_format="pyarrow",
    concurrency=(1, N), batch_size=B). Output adds/overwrites ``text``.
    Arrow in / Arrow out: html binary columns stay Arrow buffers in the
    object store (pandas object blocks pickle per hop — measured
    pathological at high parallelism).
    """

    def __init__(self, out_col: str = "text", in_col: str = "html"):
        # compiled patterns are module-level (shared via _strip_one);
        # the pickled actor class carries no bound pattern objects
        self.out_col = out_col
        self.in_col = in_col

    def _one(self, raw) -> str:
        s = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else str(raw)
        return _strip_one(s)

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        texts = pa.array(
            [self._one(x) for x in batch[self.in_col].to_pylist()], type=pa.string()
        )
        if self.out_col in batch.schema.names:
            batch = batch.drop_columns([self.out_col])
        return batch.append_column(self.out_col, texts)


_TASK_EXTRACTOR = None


def _task_extract(t: "pa.Table") -> "pa.Table":
    global _TASK_EXTRACTOR
    if _TASK_EXTRACTOR is None:
        _TASK_EXTRACTOR = ExtractText()
    return _TASK_EXTRACTOR(t)


def extract_text(pages, *, concurrency: int = 8, batch_size: int | None = None,
                 use_actors: bool = False):
    """P6 distributed: html -> text.

    Default = stateless tasks (the extractor state is per-worker-cached
    compiled regexes): tasks FUSE with the surrounding map stages into
    one pass with no intermediate blocks, and never race an actor pool
    for CPUs — measured 2x faster end-to-end than a same-width actor
    pool on a fresh cluster. ``use_actors=True`` runs the identical
    class as an actor pool, the right shape when a real extractor holds
    per-actor state that must not be rebuilt (models, dictionaries).

    ``batch_size`` defaults to None because an EXPLICIT batch_size (or
    concurrency) anywhere in a task chain poisons Read->Map operator
    fusion for the whole chain (measured: the full html table then
    round-trips the object store once — a page-fault storm at high
    parallelism). Leave unset whenever this stage follows a read.
    """
    if use_actors:
        return pages.map_batches(
            ExtractText,
            batch_format="pyarrow",
            batch_size=batch_size or 1024,
            concurrency=(1, concurrency),
        )
    kw = {"batch_size": batch_size} if batch_size is not None else {}
    return pages.map_batches(_task_extract, batch_format="pyarrow", **kw)


def geotag(pages, text_col: str = "text"):
    """P7: parse the first ``coords lat,lon`` pair out of the text.

    Adds float64 ``lat``/``lon`` columns (NaN when absent)."""

    def fn(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        # RE2 leftmost-match == Python re.search; cast of the matched
        # decimal strings is correctly rounded in both engines
        m = pc.extract_regex(
            t[text_col],
            pattern=r"coords (?P<lat>-?\d+\.\d+),(?P<lon>-?\d+\.\d+)",
        )
        lat = pc.cast(pc.struct_field(m, "lat"), pa.float64())
        lon = pc.cast(pc.struct_field(m, "lon"), pa.float64())
        nan = pa.scalar(float("nan"), type=pa.float64())
        return t.append_column("lat", pc.fill_null(lat, nan)).append_column(
            "lon", pc.fill_null(lon, nan)
        )

    return pages.map_batches(fn, batch_format="pyarrow")


def filter_geotagged(pages):
    """Keep only pages with parsed coordinates."""
    import pyarrow.compute as pc

    return pages.map_batches(
        lambda t: t.filter(pc.is_finite(t["lat"])), batch_format="pyarrow"
    )


def _ts_micros(ts_series: pd.Series) -> np.ndarray:
    vals = pd.to_datetime(ts_series).astype("datetime64[us]")
    return vals.astype("int64").to_numpy()


_PACK_SEP = "\x01"

#: broadcasts one worker process keeps; a fused pass-B + snap task
#: touches three (winner, tie winner, edge CSR)
_BCAST_CACHE_MAX = 8

#: per-worker LRU of fetched broadcast objects (ray.get deserializes
#: per call; caching by ref makes it once per worker process, and the
#: bound stops a long-lived worker from keeping every round's broadcast)
_BCAST_CACHE: OrderedDict = OrderedDict()


def _fetch_cached(ref):
    import ray

    if not isinstance(ref, ray.ObjectRef):
        return ref
    key = ref.hex()
    if key in _BCAST_CACHE:
        _BCAST_CACHE.move_to_end(key)
    else:
        _BCAST_CACHE[key] = ray.get(ref)
        if len(_BCAST_CACHE) > _BCAST_CACHE_MAX:
            _BCAST_CACHE.popitem(last=False)
    return _BCAST_CACHE[key]


def _packed_key_arrow(t: "pa.Table") -> np.ndarray:
    """Arrow-native variant of _packed_key (no pandas object blocks)."""
    ts = t["warc_ts"].cast(pa.int64()).to_numpy()  # microseconds since epoch
    h = stable_hash(np.array(t["html"].to_pylist(), dtype=object))
    return np.array(
        [f"{v:020d}{_PACK_SEP}{hh:020d}" for v, hh in zip(ts, h)], dtype=object
    )


def _packed_key(df: pd.DataFrame) -> np.ndarray:
    """Deterministic per-row winner key: zero-padded warc_ts micros +
    content hash — string-min == (earliest ts, smallest hash)."""
    ts = _ts_micros(df["warc_ts"])
    h = stable_hash(
        np.array(
            [
                bytes(x) if isinstance(x, (bytes, bytearray)) else str(x).encode()
                for x in df["html"]
            ],
            dtype=object,
        )
    )
    return np.array(
        [f"{t:020d}{_PACK_SEP}{hh:020d}" for t, hh in zip(ts, h)], dtype=object
    )


def _key_valid(t: "pa.Table"):
    """The D4 null-key rule as a row mask: a row with a null url or a
    null warc_ts never wins in ``dedup_pages``."""
    import pyarrow.compute as pc

    return pc.and_(pc.is_valid(t["url"]), pc.is_valid(t["warc_ts"]))


def _winner_rows(t: "pa.Table") -> "pa.Table":
    """Pass A's projection: one (url, win_ts, n_at_win=1) row per input
    row with a valid key, for ``_build_winner_arrays_impl`` to merge."""
    t = t.filter(_key_valid(t))
    return pa.table({
        "url": t["url"],
        "win_ts": t["warc_ts"].cast(pa.int64()),
        "n_at_win": pa.array(np.ones(t.num_rows, dtype=np.int64)),
    })


def _build_winner_arrays_impl(*tables):
    """Assemble the sorted winner broadcast from pass A's key blocks.

    Runs as a Ray task (never on the driver): returns (a) sorted
    object-dtype url array + int64 win_ts array — lookups are one
    searchsorted per batch — and (b) the tiny {url: win_ts} dict of
    urls whose minimum timestamp is shared by >1 row (the pass-A2 tie
    set). Object dtype, not fixed-width unicode: a ``<U`` array sizes
    every url by the longest one (one 2,020-character url among 16k of
    ~34 characters: 130 MB instead of 2.2 MB); object arrays follow the
    total url bytes."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return (np.array([], dtype=object), np.array([], dtype=np.int64)), {}
    tbl = pa.concat_tables(live, promote_options="default")
    urls = tbl["url"].to_numpy(zero_copy_only=False)
    ts = np.asarray(tbl["win_ts"].to_pandas(), dtype=np.int64)
    n_at_win = np.asarray(tbl["n_at_win"].to_pandas(), dtype=np.int64)
    # exact per-url merge of rows that repeat a url within and across
    # blocks ((min_ts, n_at_min) is a semigroup, so any partial grouping
    # upstream is legal): sort by (url, ts); a url's winner row is the
    # first of its run, and its tie count is the (url, min_ts) pair-group
    # sum — all vectorized, no per-row python.
    order = np.lexsort((ts, urls))
    urls, ts, n_at_win = urls[order], ts[order], n_at_win[order]
    first = run_starts(urls)
    starts = np.flatnonzero(first)
    pair_starts = np.flatnonzero(first | run_starts(ts))
    pair_sums = np.add.reduceat(n_at_win, pair_starts)
    win_urls = urls[starts]
    win_ts = ts[starts]
    n_win = pair_sums[np.searchsorted(pair_starts, starts)]
    tied = n_win > 1
    return (win_urls, win_ts), {
        str(u): int(t) for u, t in zip(win_urls[tied], win_ts[tied])
    }


def dedup_pages(pages, *, key_source=None):
    """D4: keep one row per url — earliest warc_ts, ties broken by the
    smaller html content hash (deterministic).

    ``key_source``: optional separate Dataset for pass A reads — pass
    ``ray.data.read_parquet(path, columns=["url", "warc_ts"])`` so the
    scan is pruned AT THE READER (``select_columns`` on an existing
    Dataset does not push down; measured 3x on 10 KB-html tables).
    Defaults to ``pages``.

    Pass A scans ONLY (url, warc_ts) — columns pruned at the parquet
    read — projects each batch to (url, win_ts, n_at_win=1) in Arrow,
    and hands the blocks straight to one Ray task that performs the
    exact per-url merge and assembles the sorted winner arrays (the
    driver only ever sees block refs and the tiny tied-url set). There
    is no exchange: that task must see every url anyway, so a
    pre-combine shuffle would only add a barrier. Urls whose minimum
    timestamp is shared by several rows (rare in a real crawl) get an
    extra scan that tie-breaks on the html content hash. Pass B
    broadcast-filters and FUSES with the downstream extract/geotag task
    stages into a single streaming pass. The html payload is never
    shuffled.

    Bound: the winner arrays — every distinct url as a Python str in an
    object array, plus its int64 winning ts — are built in one task and
    held by every pass-B worker, about 100 bytes per 40-character url.
    So the distinct urls must fit one worker heap: ~1e7 urls is ~1 GB,
    ~1e8 is ~10 GB.

    A row with a null url or a null warc_ts never wins; a url whose
    every row has a null warc_ts is dropped.

    Byte-identical duplicate ROWS (same url AND warc_ts AND html) all
    match the winner key and all survive: the rule picks the winning
    (url, ts, html) KEY, not a row. True-duplicate rows are an upstream
    storage bug, not a crawl artifact, so dedup does not pay a shuffle
    to collapse them.
    """
    # ---- pass A: min warc_ts per url, reading ONLY (url, warc_ts) ----
    # No pre-combine: the winner task merges every url exactly and must
    # see every url anyway, so an exchange before it only adds a barrier
    # (measured ~3x this pass's wall time). The driver holds block refs,
    # never the key rows.
    import ray

    src = key_source if key_source is not None else pages
    refs = src.map_batches(_winner_rows, batch_format="pyarrow").to_arrow_refs()
    if refs:
        winner_ref, ties_ref = _task(_build_winner_arrays_impl).options(
            num_returns=2).remote(*refs)
        tie_win_ts = ray.get(ties_ref)  # {url: win_ts} for tied urls only (tiny)
    else:
        winner_ref = ray.put((np.array([], dtype=object), np.array([], dtype=np.int64)))
        tie_win_ts = {}
    tie_urls = set(tie_win_ts)

    # ---- pass A2 (rare): html-hash tie-break among exact-ts ties ----
    tie_winner: dict = {}
    if tie_urls:
        tie_ref = ray.put((tie_urls, tie_win_ts))

        def tie_keys(t: "pa.Table") -> "pa.Table":
            t_urls, t_win = _fetch_cached(tie_ref)
            urls = t["url"].to_pylist()
            ts = t["warc_ts"].cast(pa.int64()).to_numpy()
            mask = np.fromiter(
                (u in t_urls and v == t_win[u] for u, v in zip(urls, ts)),
                dtype=bool,
                count=len(urls),
            )
            if not mask.any():
                return pa.table({"url": pa.array([], type=pa.string()),
                                 "packed": pa.array([], type=pa.string())})
            sub = t.filter(pa.array(mask))
            return pa.table(
                {"url": sub["url"], "packed": pa.array(_packed_key_arrow(sub))}
            )

        for batch in (
            pages.select_columns(["url", "warc_ts", "html"])
            .map_batches(tie_keys, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        ):
            for u, p in zip(batch["url"].to_pylist(), batch["packed"].to_pylist()):
                prev = tie_winner.get(u)
                if prev is None or p < prev:
                    tie_winner[u] = p

    tie_winner_ref = ray.put(tie_winner)

    # ---- pass B: filter; fuses with downstream task stages ----
    def keep(t: "pa.Table") -> "pa.Table":
        w_urls, w_ts = _fetch_cached(winner_ref)
        w_tie = _fetch_cached(tie_winner_ref)
        if not len(w_urls):
            return t.slice(0, 0)
        # a null url would otherwise match a winner url "None"
        if t["url"].null_count or t["warc_ts"].null_count:
            t = t.filter(_key_valid(t))
        urls = t["url"].to_numpy(zero_copy_only=False)
        ts = t["warc_ts"].cast(pa.int64()).to_numpy()
        pos = np.searchsorted(w_urls, urls)
        pos = np.minimum(pos, len(w_urls) - 1)
        mask = (w_urls[pos] == urls) & (w_ts[pos] == ts)
        if w_tie and mask.any():
            packed = None
            for i in np.flatnonzero(mask):
                u = urls[i]
                if u in w_tie:
                    if packed is None:
                        packed = _packed_key_arrow(t)
                    mask[i] = packed[i] == w_tie[u]
        return t.filter(pa.array(mask))

    return pages.map_batches(keep, batch_format="pyarrow")


_HREF_RE = re.compile(r'href="([^"]*)"')
_HOST_RE = re.compile(r"^[a-z][a-z0-9+.-]*://([^/]+)")


def link_edges(pages, *, url_col: str = "url", html_col: str = "html",
               num_buckets: int = 64):
    """Hyperlink graph extraction — the web-corpus link-analysis
    primitive: parse every ``href="..."`` out of the html payload, map
    page url and link targets to their domains (``scheme://host``
    authority component) and aggregate the domain-level edge list.
    Returns a Dataset of ``(src_domain, dst_domain, n_links)`` with
    int64 counts; relative/hostless hrefs are dropped.

    Scale shape: href extraction + domain parse run fused with the
    read (compiled ``re`` per page — the same tradeoff as the HTML
    extractor, where compiled re measured 1.5x FASTER than Arrow RE2
    replace on tag-soup); each batch pre-aggregates to (src, dst)
    partial counts bounded by distinct domain pairs, so the single
    bucket shuffle carries counts, never the html or the raw href
    rows.
    """
    from .joins import grouped_apply

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        srcs: list = []
        dsts: list = []
        for u, h in zip(df[url_col].to_numpy(object),
                        df[html_col].to_numpy(object)):
            m = _HOST_RE.match(u) if isinstance(u, str) else None
            if m is None:
                continue
            src = m.group(1)
            s = h.decode("utf-8") if isinstance(h, (bytes, bytearray)) else str(h)
            for href in _HREF_RE.findall(s):
                hm = _HOST_RE.match(href)
                if hm is not None:
                    srcs.append(src)
                    dsts.append(hm.group(1))
        if not srcs:
            # typed empty: a schema-less 0-row block downstream of a
            # shuffle is the documented empty-frame trap (CLAUDE.md)
            return pd.DataFrame({
                "src_domain": pd.Series(np.empty(0, dtype=object)),
                "dst_domain": pd.Series(np.empty(0, dtype=object)),
                "n_links": pd.Series(np.empty(0, dtype=np.int64))})
        out = pd.DataFrame({"src_domain": srcs, "dst_domain": dsts})
        g = out.groupby(["src_domain", "dst_domain"], as_index=False).size()
        g = g.rename(columns={"size": "n_links"})
        g["n_links"] = g["n_links"].astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["src_domain", "dst_domain"], as_index=False)[
            "n_links"].sum()
        g["n_links"] = g["n_links"].astype(np.int64)
        return g

    return grouped_apply(
        pages.map_batches(edges, batch_format="pandas"),
        ["src_domain", "dst_domain"], merge, num_buckets=num_buckets,
    )


_URL_RE = re.compile(
    r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#:]+)(:\d+)?([^?#]*)(\?[^#]*)?(#.*)?$")
_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def normalize_url(u: str) -> str | None:
    """Canonicalize one URL (the pre-dedup web-pipeline normalizer):
    lowercase scheme and host, strip a leading ``www.``, strip the
    scheme's default port, drop the fragment, strip a trailing slash
    from non-root paths (empty path -> ``/``), and rewrite the query
    with ``utm_*`` tracking params removed and the remaining params
    sorted (lexicographically on the raw ``name=value`` strings).
    Returns None for unparseable input."""
    m = _URL_RE.match(u)
    if m is None:
        return None
    scheme, host, port, path, query, _frag = m.groups()
    scheme = scheme.lower()
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    if port and port != _DEFAULT_PORTS.get(scheme):
        host += port
    if not path:
        path = "/"
    elif len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"
    out = f"{scheme}://{host}{path}"
    if query and len(query) > 1:
        params = [p for p in query[1:].split("&")
                  if p and not p.split("=", 1)[0].startswith("utm_")]
        if params:
            out += "?" + "&".join(sorted(params))
    return out


def normalize_urls(pages, *, url_col: str = "url",
                   out_col: str = "url_norm"):
    """Fused zero-shuffle map adding the canonical URL column (see
    :func:`normalize_url`); unparseable urls get null."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = [normalize_url(u) if isinstance(u, str) else None
                       for u in df[url_col].to_numpy(object)]
        return df

    return pages.map_batches(fn, batch_format="pandas")


_ROBOTS_RX: dict = {}


def _robots_match(pattern: str, path: str) -> bool:
    """REP rule-path match: ``*`` spans any character run, a trailing
    ``$`` anchors the end, everything else is a literal prefix.
    Compiled patterns memoize per worker."""
    rx = _ROBOTS_RX.get(pattern)
    if rx is None:
        body, anchored = ((pattern[:-1], True) if pattern.endswith("$")
                          else (pattern, False))
        parts = "".join(".*" if ch == "*" else re.escape(ch)
                        for ch in body)
        rx = re.compile("^" + parts + ("$" if anchored else ""))
        _ROBOTS_RX[pattern] = rx
    return rx.match(path) is not None


def parse_robots(text: str) -> list:
    """REAL robots.txt parser (RFC 9309 semantics): ``key: value``
    lines with case-insensitive keys, ``#`` comments stripped to end
    of line, whitespace-tolerant; consecutive ``User-agent`` lines
    share one group; ``Allow``/``Disallow``/``Crawl-delay`` attach to
    the current group (rules BEFORE any group are ignored, per the
    RFC); an empty rule value adds no rule (the classic
    ``Disallow:`` = allow-all). Returns
    ``[{"tokens": set, "rules": [(allow, pattern)], "delay": int|None}]``."""
    groups = []
    cur = None
    last_was_ua = False
    for raw in text.split("\n"):
        h = raw.find("#")
        line = (raw[:h] if h >= 0 else raw).strip()
        if not line:
            last_was_ua = False
            continue
        key, sep, val = line.partition(":")
        if not sep:
            last_was_ua = False
            continue
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if not last_was_ua:
                cur = {"tokens": set(), "rules": [], "delay": None}
                groups.append(cur)
            cur["tokens"].add(val.lower())
            last_was_ua = True
            continue
        last_was_ua = False
        if cur is None:
            continue
        if key in ("allow", "disallow"):
            if val:
                cur["rules"].append((key == "allow", val))
        elif key == "crawl-delay":
            try:
                cur["delay"] = int(val)
            except ValueError:
                pass
    return groups


def robots_decide(groups: list, agent: str, path: str):
    """REP access decision: pick the MOST SPECIFIC matching user-agent
    token (longest token the agent name starts with; ``*`` is the
    fallback; every group carrying the chosen token merges, per RFC),
    then among that group's matching rules the LONGEST pattern wins
    and an Allow beats a Disallow of equal length. Returns
    ``(allowed 0/1, match_len, crawl_delay)`` — match_len 0 when no
    rule matches (default allow)."""
    al = agent.lower()
    best_tok = None
    for g in groups:
        for tok in g["tokens"]:
            if tok != "*" and al.startswith(tok):
                if best_tok is None or len(tok) > len(best_tok):
                    best_tok = tok
    if best_tok is None:
        sel = [g for g in groups if "*" in g["tokens"]]
    else:
        sel = [g for g in groups if best_tok in g["tokens"]]
    if not sel:
        return 1, 0, 0
    delays = [g["delay"] for g in sel if g["delay"] is not None]
    delay = delays[0] if delays else 0
    best = None                  # (pattern_len, allow) — max wins
    for g in sel:
        for allow, pat in g["rules"]:
            if _robots_match(pat, path):
                key = (len(pat), 1 if allow else 0)
                if best is None or key > best:
                    best = key
    if best is None:
        return 1, 0, delay
    return best[1], best[0], delay


_ANCHOR_RE = re.compile(r'<a\s[^>]*?href="([^"]*)"[^>]*>(.*?)</a\s*>',
                        re.S | re.I)


def anchor_term_counts(pages, *, html_col: str = "html",
                       num_buckets: int = 32):
    """Anchor-text aggregation — the link-description corpus behind
    web search and LLM link-context features: parse every
    ``<a href="...">text</a>`` pair out of the html, attribute the
    anchor's whitespace tokens to the TARGET domain, and count
    ``(dst_domain, token)`` occurrences. Hostless hrefs are dropped.

    Scale shape: parse + tokenize fused with the read (compiled re —
    same measured tradeoff as the extractor); per-batch pre-aggregated
    counts bound the single bucket shuffle at distinct (domain, token)
    pairs per block; html never moves.
    """
    from .joins import grouped_apply

    def terms(df: pd.DataFrame) -> pd.DataFrame:
        doms: list = []
        toks: list = []
        for h in df[html_col].to_numpy(object):
            s = h.decode("utf-8") if isinstance(h, (bytes, bytearray)) else str(h)
            for href, text in _ANCHOR_RE.findall(s):
                hm = _HOST_RE.match(href)
                if hm is None:
                    continue
                dom = hm.group(1)
                for w in text.split():
                    doms.append(dom)
                    toks.append(w)
        if not doms:
            return pd.DataFrame({
                "dst_domain": pd.Series(np.empty(0, dtype=object)),
                "token": pd.Series(np.empty(0, dtype=object)),
                "n": pd.Series(np.empty(0, dtype=np.int64))})
        g = (pd.DataFrame({"dst_domain": doms, "token": toks})
             .groupby(["dst_domain", "token"], as_index=False).size()
             .rename(columns={"size": "n"}))
        g["n"] = g["n"].astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["dst_domain", "token"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    return grouped_apply(
        pages.map_batches(terms, batch_format="pandas"),
        ["dst_domain", "token"], merge, num_buckets=num_buckets)


# ---------------------------------------------------------- redirect chains


def _redirect_kernel(src: np.ndarray, dst: np.ndarray, max_hops: int):
    """Pointer-doubling resolution of a functional redirect map, all
    numpy, zero exchanges: ``src`` must be sorted unique int64, ``dst``
    aligned. Returns (final, hops) per source — final is the first
    reached node with no outgoing redirect; sources whose chain exceeds
    ``max_hops`` (i.e. cycles, given max_hops >= longest legal chain)
    resolve to (-1, -1).

    Invariant maintained each round: ``map_next[i]`` is reachable from
    ``src[i]`` in exactly ``map_jump[i]`` hops (squaring stops at
    terminals, so the pair stays exact rather than a power of two)."""
    n = len(src)
    if n == 0:
        return np.array([], np.int64), np.array([], np.int64)
    final = dst.astype(np.int64).copy()
    hops = np.ones(n, dtype=np.int64)
    map_next = final.copy()
    map_jump = hops.copy()
    rounds = int(max(1, np.ceil(np.log2(max_hops + 1))))
    for _ in range(rounds):
        idx = np.searchsorted(src, final)
        idxc = np.minimum(idx, max(n - 1, 0))
        live = src[idxc] == final
        if not live.any():
            break
        final[live] = map_next[idxc[live]]
        hops[live] += map_jump[idxc[live]]
        # square the map: read both composands before either write
        jdx = np.searchsorted(src, map_next)
        jdxc = np.minimum(jdx, max(n - 1, 0))
        jlive = src[jdxc] == map_next
        tgt = jdxc[jlive]
        add = map_jump[tgt].copy()
        nxt = map_next[tgt].copy()
        map_jump[jlive] += add
        map_next[jlive] = nxt
    idx = np.searchsorted(src, final)
    idxc = np.minimum(idx, max(n - 1, 0))
    live = src[idxc] == final
    final[live] = -1
    hops[live] = -1
    return final, hops


def resolve_redirects(edges, *, src_col: str = "src", dst_col: str = "dst",
                      max_hops: int = 64, num_buckets: int = 32):
    """Collapse HTTP redirect chains: every source url-id resolves to
    its terminal target (a node with no outgoing redirect) plus the
    exact hop count — the crawl frontier's 3xx-chain dedup step.
    Duplicate source rows keep the smallest destination (deterministic;
    a well-formed redirect map is functional anyway).

    Hybrid exchange ladder (repo pattern, cf.
    ``components.connected_components_auto``): under the broadcast cap
    edges the two bare int64 key columns ship to one process and the
    whole fixpoint runs in ``_redirect_kernel`` — log2(max_hops)
    searchsorted rounds, no per-round barriers. Above the cap the same
    pointer doubling runs distributed: each round ONE bucketed
    hash_join squares the (node -> reach, hops) map, so resolution
    costs ceil(log2(max_hops + 1)) exchanges regardless of chain count
    and never materializes more than the key columns anywhere. Chains
    longer than the doubling horizon — 2^rounds >= max_hops + 1 hops,
    rounds = ceil(log2(max_hops + 1)) — emit (-1, -1); cycles never
    resolve, so any ``max_hops`` >= the longest legal chain flags them
    exactly. A forced-rung pytest pins both paths row-identical, cycles
    included.

    Returns a Dataset ``(src, final, hops)`` — one row per distinct
    source."""
    import pyarrow as pa
    import ray

    from .joins import DEFAULT_BROADCAST_CAP, grouped_apply, hash_join, ladder

    narrow = edges.select_columns([src_col, dst_col]).materialize()
    if narrow.count() == 0:  # the joins of the doubling rung need a schema
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], pa.int64()) for c in ("src", "final", "hops")}))

    def on_driver():
        ss, ds_ = [], []
        for b in narrow.iter_batches(batch_format="numpy", batch_size=None):
            ss.append(np.asarray(b[src_col], dtype=np.int64))
            ds_.append(np.asarray(b[dst_col], dtype=np.int64))
        s = np.concatenate(ss) if ss else np.array([], np.int64)
        d = np.concatenate(ds_) if ds_ else np.array([], np.int64)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        first = run_starts(s)
        s, d = s[first], d[first]
        final, hops = _redirect_kernel(s, d, max_hops)
        return ray.data.from_arrow(pa.table({
            "src": pa.array(s, pa.int64()),
            "final": pa.array(final, pa.int64()),
            "hops": pa.array(hops, pa.int64()),
        }))

    def doubling():
        def dedupe(df: pd.DataFrame) -> pd.DataFrame:
            g = (df.groupby(src_col, as_index=False)[dst_col].min())
            return pd.DataFrame({
                "node": g[src_col].to_numpy(np.int64),
                "cur": g[dst_col].to_numpy(np.int64),
                "hops": np.ones(len(g), dtype=np.int64),
            })

        m = grouped_apply(narrow, src_col, dedupe, num_buckets=num_buckets)

        def as_right(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "cur": df["node"].to_numpy(np.int64),
                "__c": df["cur"].to_numpy(np.int64),
                "__h": df["hops"].to_numpy(np.int64),
            })

        def step(df: pd.DataFrame) -> pd.DataFrame:
            cur = df["cur"].to_numpy(np.int64).copy()
            hops = df["hops"].to_numpy(np.int64).copy()
            hit = df["__h"].notna().to_numpy()
            # left-join misses arrive float64 (NaN padding); ids < 2^53
            cur[hit] = df["__c"].to_numpy(np.float64)[hit].astype(np.int64)
            hops[hit] += df["__h"].to_numpy(np.float64)[hit].astype(np.int64)
            return pd.DataFrame({
                "node": df["node"].to_numpy(np.int64), "cur": cur, "hops": hops})

        rounds = int(max(1, np.ceil(np.log2(max_hops + 1))))
        for _ in range(rounds):
            right = m.map_batches(as_right, batch_format="pandas")
            j = hash_join(m, right, "cur", how="left", num_buckets=num_buckets)
            # block count multiplies per materialized round otherwise
            m = (j.map_batches(step, batch_format="pandas")
                 .repartition(num_buckets).materialize())

        right = m.map_batches(
            lambda df: pd.DataFrame({"cur": df["node"].to_numpy(np.int64),
                                     "__cyc": np.ones(len(df), np.int64)}),
            batch_format="pandas")
        j = hash_join(m, right, "cur", how="left", num_buckets=num_buckets)

        def finish(df: pd.DataFrame) -> pd.DataFrame:
            cyc = df["__cyc"].notna().to_numpy()
            final = df["cur"].to_numpy(np.int64).copy()
            hops = df["hops"].to_numpy(np.int64).copy()
            final[cyc] = -1
            hops[cyc] = -1
            return pd.DataFrame({
                "src": df["node"].to_numpy(np.int64), "final": final, "hops": hops})

        return j.map_batches(finish, batch_format="pandas")

    return ladder("pages.resolve_redirects", narrow.count(), DEFAULT_BROADCAST_CAP,
                  on_driver, doubling)


# --------------------------------------------------------------- sitemaps


_SITEMAP_FREQ_ID = {
    "always": 0, "hourly": 1, "daily": 2, "weekly": 3,
    "monthly": 4, "yearly": 5, "never": 6,
}


def parse_sitemap(text: str) -> list:
    """Parse one sitemap document (urlset OR sitemapindex, namespaced
    or not, any child-field order, comments/whitespace tolerated — the
    stdlib XML parser does the real work; no regex scraping). Returns
    ``[(kind, loc, lastmod, changefreq, priority), ...]`` with kind
    0 = <url>, 1 = <sitemap>, missing fields as empty strings, in
    document order."""
    import xml.etree.ElementTree as ET

    root = ET.fromstring(text)

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    out = []
    for child in root:
        lc = local(child.tag)
        if lc not in ("url", "sitemap"):
            continue
        fields = {"loc": "", "lastmod": "", "changefreq": "", "priority": ""}
        for f in child:
            lf = local(f.tag)
            if lf in fields:
                fields[lf] = (f.text or "").strip()
        out.append((1 if lc == "sitemap" else 0, fields["loc"],
                    fields["lastmod"], fields["changefreq"],
                    fields["priority"]))
    return out


def sitemap_entries(ds, *, xml_col: str = "xml", id_col: str = "doc_id"):
    """Flat-map every sitemap document into typed integer entry rows:
    (id, kind, entry order, lastmod day-of-month or -1, changefreq id
    or -1, priority in milli-units or -1). Parsing is fused with the
    read (stateless task fn, no actor pool — the parser holds no
    state); the xml payload never leaves the fused stage."""

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        ids, kinds, orders, days, freqs, prios = [], [], [], [], [], []
        locs: list = []
        for k, xml in zip(df[id_col].to_numpy(np.int64),
                          df[xml_col].to_numpy(object)):
            s = xml.decode("utf-8") if isinstance(xml, (bytes, bytearray)) else str(xml)
            for j, (kind, loc, lastmod, freq, prio) in enumerate(parse_sitemap(s)):
                ids.append(int(k))
                kinds.append(kind)
                orders.append(j)
                locs.append(loc)
                days.append(int(lastmod[8:10]) if len(lastmod) >= 10 else -1)
                freqs.append(_SITEMAP_FREQ_ID.get(freq, -1))
                prios.append(int(round(float(prio) * 1000)) if prio else -1)
        return pd.DataFrame({
            id_col: np.array(ids, np.int64),
            "kind": np.array(kinds, np.int64),
            "entry": np.array(orders, np.int64),
            "loc": pd.Series(locs, dtype=object),
            "day": np.array(days, np.int64),
            "freq_id": np.array(freqs, np.int64),
            "prio_milli": np.array(prios, np.int64),
        })

    return ds.map_batches(expand, batch_format="pandas")


# -------------------------------------------------------------- head metadata


_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title\s*>", re.S | re.I)
_META_TAG_RE = re.compile(r"<meta\s[^>]*>", re.I)
_LINK_TAG_RE = re.compile(r"<link\s[^>]*>", re.I)
_ATTR_RES = {
    a: re.compile(a + r'\s*=\s*"([^"]*)"', re.I)
    for a in ("name", "content", "rel", "href", "hreflang")
}


def _attr(tag: str, name: str) -> str:
    m = _ATTR_RES[name].search(tag)
    return m.group(1) if m else ""


def extract_meta(pages, *, html_col: str = "html"):
    """Head-metadata extractor (the indexing pipeline's first pass):
    per page — <title> text (comments stripped FIRST, so a decoy title
    inside <!-- --> can't win), robots meta noindex/nofollow flags
    (name matched case-insensitively, content split on commas), the
    rel=canonical href, and the count of rel=alternate hreflang links.
    Attribute order inside tags is free; values are double-quoted per
    the HTML the crawl actually stores.

    Stateless task fn fused with the read (compiled module-level
    patterns — the measured-faster shape vs Arrow RE2 on tag-dense
    html, cf. ExtractText); the html payload never leaves the fused
    stage. Output drops ``html_col`` and appends title / meta_noindex /
    meta_nofollow / canonical / n_hreflang."""

    def meta(df: pd.DataFrame) -> pd.DataFrame:
        titles, noidx, nofol, canons, nhl = [], [], [], [], []
        for h in df[html_col].to_numpy(object):
            s = h.decode("utf-8") if isinstance(h, (bytes, bytearray)) else str(h)
            s = _COMMENT_RE.sub(" ", s)
            m = _TITLE_RE.search(s)
            titles.append(" ".join(m.group(1).split()) if m else "")
            ni = nf = 0
            for tag in _META_TAG_RE.findall(s):
                if _attr(tag, "name").lower() != "robots":
                    continue
                toks = {t.strip().lower()
                        for t in _attr(tag, "content").split(",")}
                ni |= "noindex" in toks
                nf |= "nofollow" in toks
            noidx.append(int(ni))
            nofol.append(int(nf))
            canon, n = "", 0
            for tag in _LINK_TAG_RE.findall(s):
                rel = _attr(tag, "rel").lower()
                if rel == "canonical" and not canon:
                    canon = _attr(tag, "href")
                elif rel == "alternate" and _attr(tag, "hreflang"):
                    n += 1
            canons.append(canon)
            nhl.append(n)
        out = df.drop(columns=[html_col])
        out["title"] = pd.Series(titles, dtype=object).to_numpy(object)
        out["meta_noindex"] = np.array(noidx, np.int64)
        out["meta_nofollow"] = np.array(nofol, np.int64)
        out["canonical"] = pd.Series(canons, dtype=object).to_numpy(object)
        out["n_hreflang"] = np.array(nhl, np.int64)
        return out

    return pages.map_batches(meta, batch_format="pandas")


# ------------------------------------------------------- HTTP cache headers


def parse_http_headers(text: str) -> list:
    """Lenient HTTP/1.x response-header parse (the crawl stores raw
    header blocks next to the body): returns ordered (name_lower,
    value) pairs. A leading status line is skipped, names tolerate
    padding before the colon (same leniency as ``parse_robots`` keys),
    lines without a colon are ignored, and parsing stops at the first
    blank line (the body separator)."""
    out = []
    lines = text.split("\n")
    start = 1 if lines and lines[0].startswith("HTTP/") else 0
    for ln in lines[start:]:
        ln = ln.rstrip("\r")
        if not ln.strip():
            break
        if ":" not in ln:
            continue
        name, val = ln.split(":", 1)
        out.append((name.strip().lower(), val.strip()))
    return out


def parse_cache_control(headers: list) -> dict:
    """Combine every Cache-Control header (RFC 9111 list semantics:
    duplicate headers concatenate) into one directive dict. Directive
    names lowercase; ``name=value`` values are unquoted and parsed as
    int where possible (else None); bare directives map to None."""
    d: dict = {}
    for n, v in headers:
        if n != "cache-control":
            continue
        for part in v.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                key, val = part.split("=", 1)
                key = key.strip().lower()
                val = val.strip().strip('"')
                try:
                    d[key] = int(val)
                except ValueError:
                    d[key] = None
            else:
                d[part.lower()] = None
    return d


def _http_date(value: str):
    """RFC 1123 date -> epoch seconds, or None when unparseable (an
    invalid Expires like ``-1`` means already-expired per RFC 9111)."""
    from email.utils import parsedate_to_datetime

    try:
        return int(parsedate_to_datetime(value).timestamp())
    except (TypeError, ValueError):
        return None


def cache_plan(header_text: str):
    """Shared-cache freshness plan for one response (RFC 9111 subset —
    the revisit scheduler's input): returns integer
    ``(store_ok, lifetime, age_s, stale_at)``.

    - ``store_ok`` = 0 iff Cache-Control carries ``no-store``
      (lifetime forced to 0: the response is never written).
    - ``lifetime`` precedence: ``s-maxage`` (shared cache) >
      ``max-age`` > ``Expires - Date`` (unparseable Expires = already
      expired = 0) > heuristic ``(Date - Last-Modified) // 10``
      (the RFC's 10% suggestion, floored at 0) > 0.
    - ``age_s`` = the first Age header (first-wins; duplicates are
      invalid per RFC), else 0.
    - ``stale_at`` = Date + lifetime - age.
    """
    hs = parse_http_headers(header_text)
    cc = parse_cache_control(hs)
    first: dict = {}
    for n, v in hs:
        first.setdefault(n, v)
    date_s = _http_date(first["date"]) if "date" in first else None
    if date_s is None:
        date_s = 0
    age = 0
    if "age" in first:
        try:
            age = int(first["age"].strip())
        except ValueError:
            age = 0
    if "no-store" in cc:
        return 0, 0, age, date_s - age
    if isinstance(cc.get("s-maxage"), int):
        lifetime = cc["s-maxage"]
    elif isinstance(cc.get("max-age"), int):
        lifetime = cc["max-age"]
    elif "expires" in first:
        e = _http_date(first["expires"])
        lifetime = (e - date_s) if e is not None else 0
    elif "last-modified" in first:
        lm = _http_date(first["last-modified"])
        delta = (date_s - lm) if lm is not None else 0
        lifetime = delta // 10 if delta > 0 else 0
    else:
        lifetime = 0
    return 1, lifetime, age, date_s + lifetime - age


# --------------------------------------------------------- content sniffing

#: sniffed type ids (fixed taxonomy; the crawl's content-type column)
SNIFF_HTML, SNIFF_XML, SNIFF_JSON = 0, 1, 2
SNIFF_PDF, SNIFF_PNG, SNIFF_GIF, SNIFF_JPEG = 3, 4, 5, 6
SNIFF_GZIP, SNIFF_ZIP, SNIFF_PLAIN, SNIFF_BINARY = 7, 8, 9, 10

_MAGIC = [
    (b"%PDF-", SNIFF_PDF),
    (b"\x89PNG\r\n\x1a\n", SNIFF_PNG),
    (b"GIF87a", SNIFF_GIF),
    (b"GIF89a", SNIFF_GIF),
    (b"\xff\xd8\xff", SNIFF_JPEG),
    (b"\x1f\x8b", SNIFF_GZIP),
    (b"PK\x03\x04", SNIFF_ZIP),
]

_META_CHARSET_RE = re.compile(
    rb"<meta[^>]*charset\s*=\s*[\"']?\s*([A-Za-z0-9_:.()-]+)",
    re.IGNORECASE)

#: charset ids: 0 none declared, 1 utf-8, 2 iso-8859-1, 3 windows-1251,
#: 4 anything else; -1 for non-html types
_CHARSETS = {"utf-8": 1, "iso-8859-1": 2, "windows-1251": 3}


def sniff_content(body: bytes):
    """Deterministic content sniff (WHATWG-mime-sniffing-inspired,
    fixed rule order — the crawl can't trust Content-Type headers):

    1. binary magic on the RAW prefix (pdf/png/gif/jpeg/gzip/zip),
    2. after stripping a UTF-8 BOM + ASCII whitespace: case-insensitive
       ``<!doctype html`` / ``<html`` -> html, ``<?xml`` -> xml,
    3. a leading ``{`` or ``[`` -> json,
    4. any NUL byte -> opaque binary, else plain text.

    Returns ``(type_id, charset_id)``; charset only applies to html
    (BOM beats the first <meta charset>; -1 for every other type)."""
    for magic, tid in _MAGIC:
        if body.startswith(magic):
            return tid, -1
    bom = body.startswith(b"\xef\xbb\xbf")
    s = body[3:] if bom else body
    s = s.lstrip(b" \t\r\n\x0c")
    low = s[:16].lower()
    if low.startswith(b"<!doctype html") or low.startswith(b"<html"):
        if bom:
            return SNIFF_HTML, 1
        m = _META_CHARSET_RE.search(s)
        if not m:
            return SNIFF_HTML, 0
        return SNIFF_HTML, _CHARSETS.get(
            m.group(1).decode("ascii", "replace").lower(), 4)
    if low.startswith(b"<?xml"):
        return SNIFF_XML, -1
    if s[:1] in (b"{", b"["):
        return SNIFF_JSON, -1
    if b"\x00" in body:
        return SNIFF_BINARY, -1
    return SNIFF_PLAIN, -1


def sniff_pages(ds, *, body_col: str = "html", id_col: str = "doc_id"):
    """Distributed content sniff: fused stateless task over the binary
    payload column (zero-shuffle; the body never leaves the fused read
    stage). Output (id_col, type_id, charset_id)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        res = [sniff_content(b if isinstance(b, (bytes, bytearray))
                             else str(b).encode("utf-8"))
               for b in df[body_col].to_numpy(object)]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "type_id": np.array([t for t, _ in res], np.int64),
            "charset_id": np.array([c for _, c in res], np.int64),
        })

    return ds.map_batches(fn, batch_format="pandas")


# ------------------------------------------------------- frontier schedule


def frontier_schedule(ds, *, host_col: str = "host_id",
                      url_col: str = "url_id", prio_col: str = "prio",
                      k: int = 3, t0: int = 1_700_000_000,
                      delay_mod: int = 7):
    """Politeness-aware crawl-frontier schedule: per host, the top-``k``
    candidate urls by (priority desc, url asc — a total order, so the
    schedule is deterministic) get fetch slots spaced by the host's
    crawl delay (``host % delay_mod + 1`` seconds, the robots
    crawl-delay stand-in): slot i fetches at ``t0 + i * delay``.

    One int-keyed grouped shuffle over the narrow (host, url, prio)
    columns (joins.grouped_apply — hosts are complete within a bucket,
    so the per-host ranks are exact); inside the bucket the ranking is
    one lexsort + run-length slot numbering, no per-host Python loop.
    Output (host_col, url_col, slot, fetch_ts)."""
    from .joins import grouped_apply

    def sched(df: pd.DataFrame) -> pd.DataFrame:
        host = df[host_col].to_numpy(np.int64)
        url = df[url_col].to_numpy(np.int64)
        prio = df[prio_col].to_numpy(np.int64)
        order = np.lexsort((url, -prio, host))
        host, url = host[order], url[order]
        n = len(host)
        starts = np.r_[0, np.flatnonzero(host[1:] != host[:-1]) + 1]
        lens = np.diff(np.r_[starts, n])
        slot = np.arange(n) - np.repeat(starts, lens)
        keep = slot < k
        slot = slot[keep].astype(np.int64)
        hk = host[keep]
        return pd.DataFrame({
            host_col: hk, url_col: url[keep], "slot": slot,
            "fetch_ts": t0 + slot * (hk % delay_mod + 1),
        })

    return grouped_apply(ds, host_col, sched)


# ----------------------------------------------------- hreflang clustering


def hreflang_clusters(pages, *, id_col: str = "page_id",
                      url_col: str = "url", html_col: str = "html"):
    """Cluster pages into hreflang language groups (the i18n dedup
    unit: one cluster = one document in many languages):

    1. extract every ``rel=alternate hreflang`` href per page
       (comments stripped FIRST — a commented-out alternate must not
       merge two clusters),
    2. resolve href -> target page id with a bucketed hash join on the
       url STRING against the pages' own (url, id) mapping — dangling
       alternates (targets the crawl never fetched) drop out in the
       join,
    3. run the connected-components ladder over the alternate edges;
       the cluster id is the smallest member page id.

    Output (id_col, cluster_id). One string-key join + the CC
    exchange; html never leaves the fused extract stage."""
    from .components import connected_components_auto
    from .joins import hash_join

    def alt_edges(df: pd.DataFrame) -> pd.DataFrame:
        ids, hrefs = [], []
        for pid, h in zip(df[id_col].to_numpy(np.int64),
                          df[html_col].to_numpy(object)):
            s = h.decode("utf-8") if isinstance(h, (bytes, bytearray)) \
                else str(h)
            s = _COMMENT_RE.sub(" ", s)
            for tag in _LINK_TAG_RE.findall(s):
                if (_attr(tag, "rel").lower() == "alternate"
                        and _attr(tag, "hreflang")):
                    ids.append(pid)
                    hrefs.append(_attr(tag, "href"))
        return pd.DataFrame({
            "u": np.array(ids, np.int64),
            "href": pd.Series(hrefs, dtype=object)})

    def url_map(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "href": df[url_col].astype(object),
            "v": df[id_col].to_numpy(np.int64)})

    alt = pages.map_batches(alt_edges, batch_format="pandas")
    resolved = hash_join(
        alt, pages.map_batches(url_map, batch_format="pandas"),
        "href", how="inner")

    def as_uv(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": df["u"].to_numpy(np.int64),
                             "v": df["v"].to_numpy(np.int64)})

    def as_id(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": df[id_col].to_numpy(np.int64)})

    labels = connected_components_auto(
        pages.map_batches(as_id, batch_format="pandas"),
        resolved.map_batches(as_uv, batch_format="pandas"))

    def out(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df["id"].to_numpy(np.int64),
            "cluster_id": df["comp"].to_numpy(np.int64)})

    return labels.map_batches(out, batch_format="pandas")


# ------------------------------------------------------------ url features


def url_feature_row(u: str):
    """Lexical features of one URL (the spam/quality signal set),
    parsed by the fixed authority/path/query grammar:

    - authority = after ``scheme://`` up to the first ``/ ? #``;
      userinfo (up to the first ``@``) is stripped; a ``:port`` suffix
      sets ``has_port``.
    - ``host_labels`` = dot-separated label count; ``n_digits_host`` =
      ASCII digits in the host; ``tld_id`` maps the last label
      com/org/net -> 0/1/2, anything else 3.
    - ``path_depth`` counts NON-EMPTY ``/`` segments before the first
      ``? #`` (a trailing slash adds none).
    - ``n_params`` counts non-empty ``&`` parts of the query BEFORE
      any ``#`` — a ``?`` inside the fragment is not a query."""
    rest = u.split("://", 1)[1] if "://" in u else u
    for i, ch in enumerate(rest):
        if ch in "/?#":
            authority, tail = rest[:i], rest[i:]
            break
    else:
        authority, tail = rest, ""
    if "@" in authority:
        authority = authority.split("@", 1)[1]
    has_port = 0
    host = authority
    if ":" in authority:
        host, port = authority.split(":", 1)
        has_port = int(port != "")
    labels = host.split(".")
    tld = labels[-1].lower() if labels else ""
    tld_id = {"com": 0, "org": 1, "net": 2}.get(tld, 3)
    frag_split = tail.split("#", 1)[0]
    if "?" in frag_split:
        path, query = frag_split.split("?", 1)
    else:
        path, query = frag_split, ""
    path_depth = sum(1 for seg in path.split("/") if seg)
    n_params = sum(1 for p in query.split("&") if p)
    return (len(labels), sum(c.isdigit() for c in host), has_port,
            path_depth, n_params, tld_id)


def url_features(ds, *, url_col: str = "url", id_col: str = "doc_id"):
    """Distributed URL feature extraction: fused stateless task, zero
    shuffle. Output (id_col, host_labels, n_digits_host, has_port,
    path_depth, n_params, tld_id) — all int64."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        rows = [url_feature_row(str(u))
                for u in df[url_col].to_numpy(object)]
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "host_labels": arr[:, 0], "n_digits_host": arr[:, 1],
            "has_port": arr[:, 2], "path_depth": arr[:, 3],
            "n_params": arr[:, 4], "tld_id": arr[:, 5]})

    return ds.map_batches(fn, batch_format="pandas")


# ------------------------------------------------------------ table stats


_HTML_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_TABLE_TAG_RE = re.compile(r"<(/?)(table|tr|td|th)((?:\s[^>]*)?)>", re.I)
_COLSPAN_RE = re.compile(r"colspan\s*=\s*\"?(\d+)", re.I)


def table_stats_row(html: str):
    """Stack-machine table parser for one document.

    Comments are stripped FIRST (a commented-out table must not
    count); then a single pass over table/tr/td/th tags maintains a
    stack of open tables so that rows and cells of a NESTED table are
    attributed to the inner table, never to the enclosing row.  A
    ``colspan=N`` attribute widens the row by N while counting one
    cell.  Tags are case-insensitive; tr/td outside any open table
    are stray markup and ignored.

    Returns (n_tables, max_depth, n_rows, n_cells, max_cols).
    """
    n_tables = max_depth = n_rows = n_cells = max_cols = 0
    stack: list[int] = []  # per open table: current row width
    for m in _TABLE_TAG_RE.finditer(_HTML_COMMENT_RE.sub("", html)):
        close, tag, attrs = m.group(1), m.group(2).lower(), m.group(3)
        if tag == "table":
            if not close:
                stack.append(0)
                if len(stack) > max_depth:
                    max_depth = len(stack)
            elif stack:
                w = stack.pop()
                if w > max_cols:
                    max_cols = w
                n_tables += 1
        elif not stack:
            continue  # stray row/cell outside any table
        elif tag == "tr":
            if not close:
                n_rows += 1
            w = stack[-1]
            if w > max_cols:
                max_cols = w
            stack[-1] = 0
        elif not close:  # td / th open
            n_cells += 1
            cm = _COLSPAN_RE.search(attrs)
            stack[-1] += int(cm.group(1)) if cm else 1
    return (n_tables, max_depth, n_rows, n_cells, max_cols)


def table_stats(ds, *, html_col: str = "html", id_col: str = "doc_id"):
    """Distributed per-document HTML table statistics: fused stateless
    task, zero shuffle (the parser state lives entirely inside one
    document).  Output (id_col, n_tables, max_depth, n_rows, n_cells,
    max_cols) — all int64."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        rows = [table_stats_row(str(h))
                for h in df[html_col].to_numpy(object)]
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 5)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "n_tables": arr[:, 0], "max_depth": arr[:, 1],
            "n_rows": arr[:, 2], "n_cells": arr[:, 3],
            "max_cols": arr[:, 4]})

    return ds.map_batches(fn, batch_format="pandas")


# ---------------------------------------------------------- URL templates


def url_templates(ds, *, url_col: str = "url", num_buckets: int = 16):
    """URL pattern mining: collapse every digit run to ``N`` (the
    classic path-template heuristic for spotting calendar traps,
    session ids and infinite spaces in a crawl frontier) and count
    pages per template.

    RE2 on both sides: the collapse is Arrow's RE2
    ``replace_substring_regex`` and the SQL mirror is DuckDB's RE2
    ``regexp_replace(..., 'g')`` — identical semantics by construction.
    Per-batch value_counts partials bound the one string-key exchange
    (joins.grouped_apply — never groupby(str).aggregate); returns a
    Dataset (template, n)."""
    import pyarrow.compute as pc

    from .joins import grouped_apply

    def partial(batch: "pa.Table") -> "pa.Table":
        t = pc.replace_substring_regex(batch[url_col], pattern=r"[0-9]+",
                                       replacement="N")
        vc = t.value_counts()
        return pa.table({"template": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("template", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_apply(parts, "template", merge, num_buckets=num_buckets)
