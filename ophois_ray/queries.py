"""Driver-contract query catalog: every operator family from SURVEY.md
§2 expressed over the driver's TPC-H-ish testdata tables, each paired
(where SQL-expressible) with a DuckDB oracle statement that mirrors the
engine's arithmetic op-for-op so value hashes match bit-exactly.

Numeric-parity rules used throughout (documented divergences none):
- outputs are int64 / strings wherever possible; float results appear
  only where both sides compute them with identical IEEE op order,
- libm-variant functions (sin/cos/atan2) only feed coarse integer
  buckets (100 km), never raw float outputs,
- nearest-neighbour ranking uses planar squared distance (exact ops)
  with (dist, id) tiebreaks, never haversine.

Synthetic coordinates for graph/spatial queries are derived from
integer keys: lat(k, a) = CAST(k*a % 180 AS DOUBLE) - 90.0 + 0.25 and
lon(k, b) likewise over 360 — integer modulo then exactly-rounded float
ops, bit-identical in numpy and DuckDB.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray.data

from ray.data.aggregate import Count, Max, Min, Sum

from . import cells, geo, graphops
from .joins import BroadcastIndex
from .sampling import SQL_SAMPLE_HASH, SQL_SPLIT_HASH

RES_ASSIGN = 12
RES_JOIN = 6


def _t(sf_dir: str, name: str, columns: list | None = None):
    # columns= prunes at the SCAN (select_columns doesn't push down)
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def _coords_from_key(k: np.ndarray, a: int, b: int):
    lat = (k * a % 180).astype(np.float64) - 90.0 + 0.25
    lon = (k * b % 360).astype(np.float64) - 180.0 + 0.25
    return lat, lon


def _sql_coords(key: str, a: int, b: int) -> tuple[str, str]:
    return (
        f"CAST({key} * {a} % 180 AS DOUBLE) - 90.0 + 0.25",
        f"CAST({key} * {b} % 360 AS DOUBLE) - 180.0 + 0.25",
    )


# --------------------------------------------------------------- graph ops


def q_edge_dedup(sf_dir: str):
    """D2 canonical edge dedup with multiplicity over lineitem pairs."""
    li = _t(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "u": df["l_partkey"].astype(str).to_numpy(object),
                "v": df["l_suppkey"].astype(str).to_numpy(object),
            }
        )

    edges = graphops.canonicalize_edges(li.map_batches(to_edges, batch_format="pandas"))
    from .joins import grouped_apply

    def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], as_index=False).size().rename(columns={"size": "n"})
        g["n"] = g["n"].astype(np.int64)
        return g

    return grouped_apply(edges, ["u", "v"], count_pairs)


SQL_EDGE_DEDUP = """
SELECT least(CAST(l_partkey AS VARCHAR), CAST(l_suppkey AS VARCHAR)) AS u,
       greatest(CAST(l_partkey AS VARCHAR), CAST(l_suppkey AS VARCHAR)) AS v,
       count(*) AS n
FROM lineitem
WHERE CAST(l_partkey AS VARCHAR) != CAST(l_suppkey AS VARCHAR)
GROUP BY 1, 2
"""


def q_node_first_wins(sf_dir: str):
    """D1 first-wins dedup semantics: min sequence key per node id."""
    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"o_custkey": "id", "o_orderkey": "first_key"})

    from .joins import grouped_apply

    return grouped_apply(
        orders.map_batches(prep, batch_format="pandas"),
        "id",
        lambda df: df.groupby("id", as_index=False)["first_key"].min(),
    )


SQL_NODE_FIRST_WINS = (
    "SELECT o_custkey AS id, min(o_orderkey) AS first_key FROM orders GROUP BY o_custkey"
)


def q_degree_histogram(sf_dir: str):
    """M2 degree histogram over the distinct canonical lineitem graph."""
    edges = graphops.dedup_edges(
        _t(sf_dir, "lineitem").map_batches(
            lambda df: pd.DataFrame(
                {
                    "u": df["l_partkey"].astype(str).to_numpy(object),
                    "v": df["l_suppkey"].astype(str).to_numpy(object),
                }
            ),
            batch_format="pandas",
        )
    )
    deg = graphops.node_degrees(edges)

    # the histogram domain is tiny (~80 distinct degrees): per-block
    # value_counts partials merged on the driver replace a third
    # barriered groupby over ~60k rows (key-partitioned aggregate
    # barrier time is parallelism-independent; measured 3.99 s -> 3.83 s
    # min-of-3 at sf0.1 — the cost is the upstream string-key dedup, but
    # the partial merge removes the last barrier; see BASELINE.md round 4)
    def vc(df: pd.DataFrame) -> pd.DataFrame:
        c = df["degree"].value_counts()
        return pd.DataFrame({
            "degree": c.index.to_numpy(np.int64),
            "n_nodes": c.to_numpy(np.int64),
        })

    parts = deg.map_batches(vc, batch_format="pandas").to_pandas()
    if parts.empty:  # 0-row to_pandas drops columns
        return pd.DataFrame({"degree": pd.Series(dtype=np.int64),
                             "n_nodes": pd.Series(dtype=np.int64)})
    out = parts.groupby("degree", as_index=False)["n_nodes"].sum()
    out["n_nodes"] = out["n_nodes"].astype(np.int64)
    return out.sort_values("degree").reset_index(drop=True)


SQL_DEGREE_HISTOGRAM = """
WITH e AS (
  SELECT DISTINCT least(CAST(l_partkey AS VARCHAR), CAST(l_suppkey AS VARCHAR)) AS u,
                  greatest(CAST(l_partkey AS VARCHAR), CAST(l_suppkey AS VARCHAR)) AS v
  FROM lineitem
  WHERE CAST(l_partkey AS VARCHAR) != CAST(l_suppkey AS VARCHAR)
), arcs AS (SELECT u AS id FROM e UNION ALL SELECT v FROM e),
deg AS (SELECT id, count(*) AS degree FROM arcs GROUP BY id)
SELECT degree, count(*) AS n_nodes FROM deg GROUP BY degree
"""


# -------------------------------------------------------------- cell index


def q_cell_assign(sf_dir: str):
    """Point-in-cell assignment at res 12 over synthetic customer coords."""
    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"c_custkey": k, "cell": cells.cell_of(lat, lon, RES_ASSIGN)})

    return cust.map_batches(fn, batch_format="pandas")


def _sql_cell_assign() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    expr = cells.oracle_sql_cell_expr(lat, lon, RES_ASSIGN)
    return f"SELECT c_custkey, {expr} AS cell FROM customer"


def q_cell_hist_topk(sf_dir: str):
    """Hot-cell report: top 20 cells by point count at res 6."""
    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"cell": cells.cell_of(lat, lon, RES_JOIN)})

    hist = (
        cust.map_batches(fn, batch_format="pandas")
        .groupby("cell")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return (
        hist.sort_values(["n", "cell"], ascending=[False, True])
        .head(20)
        .reset_index(drop=True)
    )


def _sql_cell_hist_topk() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    expr = cells.oracle_sql_cell_expr(lat, lon, RES_JOIN)
    return (
        f"SELECT cell, count(*) AS n FROM (SELECT {expr} AS cell FROM customer) "
        f"GROUP BY cell ORDER BY n DESC, cell LIMIT 20"
    )


def q_cell_compact(sf_dir: str):
    """HASH-CHECKED hierarchical cell compaction (H3 ``compact``): the
    distinct res-6 cells covered by order points collapse to the
    minimal mixed-resolution cover — every complete sibling quartet
    promoted to its parent, recursively (spatial.compact_cells: the
    ancestor-bucket ladder; the quadtree id scheme makes promotion
    integer-exact). The SQL mirror reruns the promotion cascade as six
    unrolled CTE levels (GROUP BY parent HAVING count(*)=4 + anti-join
    remainders), so one wrong promotion, a missed quartet, or a
    mis-packed parent id fails the driver hash. Cells come from a
    two-round Lehmer hash of o_orderkey onto the 64x64 res-6 grid —
    the _coords_from_key lattice reaches only ~360 cells (never a
    complete quartet) and a single multiplicative hash is BIJECTIVE
    mod 4096 (TPC-H keys then cover every cell and everything
    collapses to one res-0 cell); two rounds mix across the modulus,
    so at sf0.01 orders cover ~97% of the grid and the cascade
    promotes through multiple levels around genuine holes. Output
    (cell, res). A prime-modulus hole predicate on the cell index
    (~12% of cells excluded) keeps the cover non-trivial; at sf0.01
    the result spans res 4/5/6 (52/407/1145 cells)."""
    from .spatial import compact_cells

    orders = _t(sf_dir, "orders", columns=["o_orderkey"])

    def to_cells(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        h = (k * 48271) % 2147483647          # fits int64: k <= ~6e9
        h = (h * 48271) % 2147483647
        idx = h % 4096
        idx = idx[((idx + 1) * 16807) % 2147483647 % 100 >= 12]
        return pd.DataFrame(
            {"cell": cells.encode(np.full(len(idx), RES_JOIN, np.int64),
                                  idx % 64, (idx // 64) % 64)})

    comp = compact_cells(
        orders.map_batches(to_cells, batch_format="pandas"))
    out = comp.to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"cell": np.empty(0, np.int64),
                             "res": np.empty(0, np.int64)})
    c = out["cell"].to_numpy(np.int64)
    res, _, _ = cells.decode(c)
    return pd.DataFrame({"cell": c, "res": res}).sort_values(
        "cell").reset_index(drop=True)


def _sql_cell_compact() -> str:
    m = 1 << 29
    parts = [
        "h AS (SELECT ((o_orderkey * 48271) % 2147483647) * 48271 "
        "% 2147483647 % 4096 AS idx FROM orders)",
        "k AS (SELECT idx FROM h "
        "WHERE ((idx + 1) * 16807) % 2147483647 % 100 >= 12)",
        "c6 AS (SELECT DISTINCT idx % 64 AS ix, (idx // 64) % 64 AS iy "
        "FROM k)",
    ]
    for r in range(RES_JOIN, 0, -1):
        parts.append(
            f"p{r - 1} AS (SELECT ix // 2 AS ix, iy // 2 AS iy FROM c{r} "
            f"GROUP BY 1, 2 HAVING count(*) = 4)")
        parts.append(
            f"r{r} AS (SELECT c.ix, c.iy FROM c{r} c LEFT JOIN p{r - 1} p "
            f"ON p.ix = c.ix // 2 AND p.iy = c.iy // 2 WHERE p.ix IS NULL)")
        parts.append(f"c{r - 1} AS (SELECT ix, iy FROM p{r - 1})")
    sels = [
        f"SELECT CAST({r} AS BIGINT) * {1 << 58} + ix * {m} + iy AS cell, "
        f"CAST({r} AS BIGINT) AS res FROM r{r}"
        for r in range(RES_JOIN, 0, -1)
    ]
    sels.append(
        f"SELECT ix * {m} + iy AS cell, CAST(0 AS BIGINT) AS res FROM c0")
    return "WITH " + ",\n".join(parts) + "\n" + " UNION ALL ".join(sels)


_DP_T = 9          # polyline length
_DP_EPS2 = 10000   # squared tolerance (keeps ~52% of points at sf0.01)


def q_polyline_simplify(sf_dir: str):
    """HASH-CHECKED Douglas-Peucker generalization
    (spatial.simplify_polylines): every 7th part key is a 9-point
    integer polyline (x ramps with two-round-Lehmer jitter — ONE
    Lehmer round is affine in the step, which makes the points
    exactly collinear and the tolerance dead; two rounds give real
    corners), simplified at eps^2=10000 where the tolerance genuinely
    decides (~52% of points survive; 0.95 at eps^2=400, 0.43 at
    40000). The exact integer split test cross^2 > eps2*|AB|^2 and
    the smallest-step argmax tie-break replay in the SQL mirror as
    T-2 unrolled split-round CTEs, so one wrong split point, a missed
    recursion branch, or an off-by-one interval bound fails the
    driver hash. Output = the kept rows (trace_id, step, x, y)."""
    from .spatial import simplify_polylines

    parts = _t(sf_dir, "part", columns=["p_partkey"])

    def to_points(df: pd.DataFrame) -> pd.DataFrame:
        k = df["p_partkey"].to_numpy(np.int64)
        k = k[k % 7 == 0]
        kk = np.repeat(k, _DP_T)
        t = np.tile(np.arange(_DP_T, dtype=np.int64), len(k))
        h = ((kk * 31 + t * 17) * 48271) % 2147483647
        h = (h * 48271) % 2147483647
        return pd.DataFrame({"trace_id": kk, "step": t,
                             "x": t * 400 + h % 257,
                             "y": (h // 257) % 1025})

    return simplify_polylines(
        parts.map_batches(to_points, batch_format="pandas"),
        eps2=_DP_EPS2)


def _sql_polyline_simplify() -> str:
    # DuckDB inlines every CTE reference: round CTEs read twice are
    # MATERIALIZED, else the plan grows as 2^rounds and runs out of memory.
    parts = [f"""pts AS MATERIALIZED (
  SELECT p_partkey AS tr, t,
         t * 400 + ((p_partkey * 31 + t * 17) * 48271 % 2147483647)
                   * 48271 % 2147483647 % 257 AS x,
         ((p_partkey * 31 + t * 17) * 48271 % 2147483647)
           * 48271 % 2147483647 // 257 % 1025 AS y
  FROM part CROSS JOIN (SELECT unnest(range(0, {_DP_T})) AS t)
  WHERE p_partkey % 7 = 0
),
iv0 AS MATERIALIZED (
  SELECT tr, min(t) AS lo, max(t) AS hi FROM pts GROUP BY tr)"""]
    rounds = _DP_T - 2
    for k in range(rounds):
        parts.append(f"""sp{k} AS (
  SELECT i.tr, i.lo, i.hi, p.t AS split,
         ((b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x))
       * ((b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)) AS c2,
         (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y) AS len2
  FROM iv{k} i
  JOIN pts a ON a.tr = i.tr AND a.t = i.lo
  JOIN pts b ON b.tr = i.tr AND b.t = i.hi
  JOIN pts p ON p.tr = i.tr AND p.t > i.lo AND p.t < i.hi
  QUALIFY row_number() OVER (PARTITION BY i.tr, i.lo, i.hi
                             ORDER BY c2 DESC, p.t) = 1
),
good{k} AS MATERIALIZED (SELECT tr, lo, hi, split FROM sp{k}
                         WHERE c2 > {_DP_EPS2} * len2),
iv{k + 1} AS MATERIALIZED (
  SELECT tr, lo, split AS hi FROM good{k} WHERE split - lo > 1
  UNION ALL
  SELECT tr, split AS lo, hi FROM good{k} WHERE hi - split > 1
),
keep{k} AS (
  SELECT tr, lo AS t FROM iv{k}
  UNION ALL SELECT tr, hi FROM iv{k}
  UNION ALL SELECT tr, split FROM good{k}
)""")
    keeps = " UNION ALL ".join(
        f"SELECT tr, t FROM keep{k}" for k in range(rounds))
    parts.append(f"kept AS (SELECT DISTINCT tr, t FROM ({keeps}))")
    return ("WITH " + ",\n".join(parts) + """
SELECT p.tr AS trace_id, p.t AS step, CAST(p.x AS BIGINT) AS x,
       CAST(p.y AS BIGINT) AS y
FROM pts p JOIN kept k ON k.tr = p.tr AND k.t = p.t""")


def q_warc_records(sf_dir: str):
    """HASH-CHECKED WARC shard decode (warc.build_warc / warc_records):
    every third doc_id becomes a Common-Crawl-style shard — one gzip
    member per record, (k%4)+2 records, each payload a repeated text
    block whose LENGTH the SQL mirror reconstructs with string
    arithmetic; even records additionally embed a fake
    '\\r\\n\\r\\nWARC/1.0' inside the payload, so a delimiter-scanning
    parser (anything not driven by Content-Length) mis-splits and
    fails the hash. The engine round-trips the REAL writer + reader
    (gzip members, CRLF header blocks, Content-Length framing) and
    reports per-record integers: the header's Content-Length AND the
    measured payload bytes (they disagree if decompression or framing
    slips), the seconds field parsed from WARC-Date, and the path
    index parsed back out of the target URI."""
    from .warc import build_warc, warc_records

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        ids = ids[ids % 3 == 0]
        shards = []
        for k in ids:
            k = int(k)
            recs = []
            for i in range(k % 4 + 2):
                txt = ("body %d %d " % (k, i)) * ((k + i) % 5 + 1)
                if i % 2 == 0:
                    txt += "\r\n\r\nWARC/1.0 fake\r\n\r\n"
                recs.append({
                    "uri": "https://d%d.example/p%d" % (k, i),
                    "date": "2024-01-01T00:00:%02dZ" % ((k + i) % 60),
                    "payload": txt.encode("utf-8"),
                })
            shards.append(build_warc(recs, gzip_members=True))
        return pd.DataFrame({"doc_id": ids, "warc": shards})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "rec": df["rec"].to_numpy(np.int64),
            "content_length": df["content_length"].to_numpy(np.int64),
            "payload_len": df["payload_len"].to_numpy(np.int64),
            "date_sec": np.array(
                [int(d.split(":")[2][:2]) for d in df["date"]], np.int64),
            "path_idx": np.array(
                [int(u.rsplit("p", 1)[1]) for u in df["uri"]], np.int64),
        })

    return warc_records(
        docs.map_batches(gen, batch_format="pandas")
    ).map_batches(finish, batch_format="pandas")


SQL_WARC_RECORDS = """
WITH d AS (SELECT doc_id AS k FROM documents WHERE doc_id % 3 = 0),
r AS (SELECT k, unnest(range(0, (k % 4) + 2)) AS i FROM d),
s AS (SELECT k, i,
             length('body ' || k || ' ' || i || ' ') * ((k + i) % 5 + 1)
             + CASE WHEN i % 2 = 0 THEN 21 ELSE 0 END AS plen
      FROM r)
SELECT k AS doc_id, CAST(i AS BIGINT) AS rec,
       CAST(plen AS BIGINT) AS content_length,
       CAST(plen AS BIGINT) AS payload_len,
       CAST((k + i) % 60 AS BIGINT) AS date_sec,
       CAST(i AS BIGINT) AS path_idx
FROM s
"""


def q_robots_decisions(sf_dir: str):
    """HASH-CHECKED robots.txt parsing + REP access decisions (the
    crawl-pipeline gate; pages.parse_robots / robots_decide): every
    even doc_id is a domain whose robots.txt is built with the full
    junk drawer — comments (line and inline), mixed-case keys, padded
    'Crawl-Delay :' keys, a 'Disallow: /' BEFORE any group (must be
    ignored), an empty 'Disallow:' (adds no rule), consecutive
    User-agent lines sharing a group, '*' wildcard and '$' anchor
    rules gated on doc_id arithmetic — then two agents x seven probe
    paths exercise group specificity (graftbot ignores the * group),
    longest-match precedence, the allow-beats-disallow tie, wildcard
    and anchor matching ('/exactly' must NOT hit '/exact\\$'), and
    crawl-delay attribution. The engine PARSES for real; the SQL
    mirror CONSTRUCTS every expected decision from the same
    arithmetic, so any parser slip flips an integer and fails the
    hash. Output (doc_id, agent, path_id, allowed, match_len,
    crawl_delay)."""
    from .pages import parse_robots, robots_decide

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        ids = ids[ids % 2 == 0]
        out = {"doc_id": [], "agent": [], "path_id": [],
               "allowed": [], "match_len": [], "crawl_delay": []}
        for k in ids:
            k = int(k)
            m = k % 3
            lines = [
                "# robots for d%d" % k,
                "Disallow: /",                       # pre-group: ignored
                ("USER-AGENT: *" if m == 0 else "User-Agent: *"),
                "Disallow:   /private  ",
                "Allow: /private/ok\t# preferred",
            ]
            if m == 0:
                lines.append("Disallow: /tmp/*.pdf")
            if k % 4 == 0:
                lines.append("Disallow: /exact$")
            lines += [
                "Crawl-Delay : %d" % (k % 7 + 1),
                "",
                "User-agent: graftbot",
                "User-agent: newsbot",
                "Disallow:",                         # empty: no rule
                "Disallow: /bot%d/" % m,
                "Allow: /bot%d/pub" % m,
            ]
            groups = parse_robots("\n".join(lines))
            paths = [
                "/private/ok/page%d" % (k % 10),
                "/private/secret",
                "/bot%d/data" % m,
                "/bot%d/pub/x" % m,
                "/tmp/doc%d.pdf" % (k % 5),
                "/exact",
                "/exactly",
            ]
            for a, agent in ((0, "otherbot"), (1, "graftbot")):
                for j, path in enumerate(paths):
                    allowed, mlen, delay = robots_decide(
                        groups, agent, path)
                    out["doc_id"].append(k)
                    out["agent"].append(a)
                    out["path_id"].append(j)
                    out["allowed"].append(allowed)
                    out["match_len"].append(mlen)
                    out["crawl_delay"].append(delay)
        return pd.DataFrame({c: np.array(v, dtype=np.int64)
                             for c, v in out.items()})

    return docs.map_batches(decide, batch_format="pandas")


SQL_ROBOTS_DECISIONS = """
WITH d AS (SELECT doc_id AS k FROM documents WHERE doc_id % 2 = 0),
g AS (SELECT k, unnest(range(0, 2)) AS a FROM d),
p AS (SELECT k, a, unnest(range(0, 7)) AS j FROM g)
SELECT k AS doc_id, CAST(a AS BIGINT) AS agent,
       CAST(j AS BIGINT) AS path_id,
       CAST(CASE WHEN a = 1
                 THEN CASE WHEN j = 2 THEN 0 ELSE 1 END
                 ELSE CASE WHEN j = 1 THEN 0
                           WHEN j = 4 AND k % 3 = 0 THEN 0
                           WHEN j = 5 AND k % 4 = 0 THEN 0
                           ELSE 1 END END AS BIGINT) AS allowed,
       CAST(CASE WHEN a = 1
                 THEN CASE WHEN j = 2 THEN 6
                           WHEN j = 3 THEN 9 ELSE 0 END
                 ELSE CASE WHEN j = 0 THEN 11
                           WHEN j = 1 THEN 8
                           WHEN j = 4 AND k % 3 = 0 THEN 10
                           WHEN j = 5 AND k % 4 = 0 THEN 7
                           ELSE 0 END END AS BIGINT) AS match_len,
       CAST(CASE WHEN a = 1 THEN 0 ELSE k % 7 + 1 END
            AS BIGINT) AS crawl_delay
FROM p
"""


_RD_P = 1_000_003  # prime modulus of the redirect id permutation
_RD_C = 8191       # two multiplicative rounds (one round is affine —
                   # see the datagen invariant in CLAUDE.md)


def q_redirect_chains(sf_dir: str):
    """HASH-CHECKED redirect-chain collapse (pages.resolve_redirects,
    the crawl frontier's 3xx dedup): url-ids are a two-round
    multiplicative permutation p(k) of doc_id, so chains are scattered
    across id space, never contiguous. Every doc k with k % 8 != 0
    contributes edge p(k) -> p(k-1) (chains of 1..7 hops down to the
    multiple-of-8 base); every doc k with k % 64 == 0 contributes the
    self-loop p(k) -> p(k), turning all chains over those bases into
    cycles. The engine sees ONLY the shuffled edge list and resolves by
    pointer doubling (broadcast kernel here; the distributed doubling
    path is pinned row-identical by a forced-cap pytest); the SQL
    mirror CONSTRUCTS every (src, final, hops) from the same
    arithmetic — final = p(k - k%8) in k%8 hops, or (-1, -1) when the
    base carries the self-loop. Any mis-resolution (wrong terminal,
    off-by-one hops, missed cycle) flips an integer and fails the
    driver hash."""
    from .pages import resolve_redirects

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        p = lambda x: ((x + 1) * _RD_C % _RD_P) * _RD_C % _RD_P
        chain = k[k % 8 != 0]
        loop = k[k % 64 == 0]
        return pd.DataFrame({
            "src": np.concatenate([p(chain), p(loop)]),
            "dst": np.concatenate([p(chain - 1), p(loop)]),
        })

    return resolve_redirects(
        docs.map_batches(gen, batch_format="pandas"), max_hops=8)


SQL_REDIRECT_CHAINS = """
WITH d AS (SELECT doc_id AS k FROM documents),
p AS (SELECT k, ((k + 1) * 8191 % 1000003) * 8191 % 1000003 AS pk,
             k - (k % 8) AS base
      FROM d),
chains AS (
    SELECT p.pk AS src,
           CASE WHEN p.base % 64 = 0 AND b.doc_id IS NOT NULL
                THEN CAST(-1 AS BIGINT)
                ELSE ((p.base + 1) * 8191 % 1000003) * 8191 % 1000003
           END AS final,
           CASE WHEN p.base % 64 = 0 AND b.doc_id IS NOT NULL
                THEN CAST(-1 AS BIGINT) ELSE p.k % 8 END AS hops
    FROM p LEFT JOIN documents b ON b.doc_id = p.base
    WHERE p.k % 8 != 0),
loops AS (
    SELECT pk AS src, CAST(-1 AS BIGINT) AS final,
           CAST(-1 AS BIGINT) AS hops
    FROM p WHERE k % 64 = 0)
SELECT src, final, hops FROM chains
UNION ALL
SELECT src, final, hops FROM loops
"""


def q_sitemap_entries(sf_dir: str):
    """HASH-CHECKED sitemap parsing (pages.parse_sitemap /
    sitemap_entries — the crawl's discovery source): every doc_id
    k % 3 == 1 is a namespaced <urlset> with k % 5 + 1 urls carrying
    arithmetic-determined lastmod / changefreq / priority (each field
    OMITTED on its own modulus, child order FLIPPED on odd k+i, XML
    comments and a datetime-form lastmod mixed in); every k % 3 == 2
    is a <sitemapindex> with k % 4 + 1 child sitemaps. The engine runs
    the real XML parser and re-derives integers (day-of-month, freq
    id, milli-priority, the entry index parsed back out of the loc);
    the SQL mirror CONSTRUCTS the same rows from the arithmetic, so
    any parser slip (namespace handling, field order, omissions,
    datetime slicing) fails the driver hash."""
    from .pages import sitemap_entries

    docs = _t(sf_dir, "documents", columns=["doc_id"])
    freqs = ["always", "hourly", "daily", "weekly", "monthly",
             "yearly", "never"]

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ids, xmls = [], []
        for k in df["doc_id"].to_numpy(np.int64):
            k = int(k)
            if k % 3 == 1:
                body = ['<?xml version="1.0" encoding="UTF-8"?>',
                        "<!-- sitemap for d%d -->" % k,
                        '<urlset xmlns="http://www.sitemaps.org/'
                        'schemas/sitemap/0.9">']
                for i in range(k % 5 + 1):
                    f: list = []
                    loc = "<loc>https://d%d.example/u%d</loc>" % (k, i)
                    if (k + i) % 6 != 5:
                        day = (k + i) % 28 + 1
                        lm = ("2024-01-%02dT03:04:05Z" % day
                              if (k + i) % 3 == 0 else "2024-01-%02d" % day)
                        f.append("<lastmod> %s </lastmod>" % lm)
                    if (k + i) % 5 != 0:
                        f.append("<changefreq>%s</changefreq>"
                                 % freqs[(k + i) % 7])
                    if (k + i) % 4 != 0:
                        p = (k + i) % 11
                        f.append("<priority>%s</priority>"
                                 % ("1.0" if p == 10 else "0.%d" % p))
                    inner = (loc + "".join(f)) if (k + i) % 2 == 0 \
                        else ("".join(f) + loc)
                    body.append("  <url> %s </url>" % inner)
                body.append("</urlset>")
            elif k % 3 == 2:
                body = ['<sitemapindex xmlns="http://www.sitemaps.org/'
                        'schemas/sitemap/0.9">']
                for i in range(k % 4 + 1):
                    body.append(
                        "<sitemap><loc>https://d%d.example/s%d.xml</loc>"
                        "<lastmod>2024-01-%02d</lastmod></sitemap>"
                        % (k, i, (2 * k + i) % 28 + 1))
                body.append("</sitemapindex>")
            else:
                continue
            ids.append(k)
            xmls.append("\n".join(body))
        return pd.DataFrame({"doc_id": np.array(ids, np.int64),
                             "xml": pd.Series(xmls, dtype=object)})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        idx = np.array(
            [int(u.rsplit("u" if kd == 0 else "s", 1)[1].split(".")[0])
             for u, kd in zip(df["loc"], df["kind"].to_numpy(np.int64))],
            np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "kind": df["kind"].to_numpy(np.int64),
            "idx": idx,
            "day": df["day"].to_numpy(np.int64),
            "freq_id": df["freq_id"].to_numpy(np.int64),
            "prio_milli": df["prio_milli"].to_numpy(np.int64),
        })

    return sitemap_entries(
        docs.map_batches(gen, batch_format="pandas")
    ).map_batches(finish, batch_format="pandas")


SQL_SITEMAP_ENTRIES = """
WITH d AS (SELECT doc_id AS k FROM documents),
u AS (SELECT k, unnest(range(0, k % 5 + 1)) AS i FROM d WHERE k % 3 = 1),
s AS (SELECT k, unnest(range(0, k % 4 + 1)) AS i FROM d WHERE k % 3 = 2)
SELECT k AS doc_id, CAST(0 AS BIGINT) AS kind, CAST(i AS BIGINT) AS idx,
       CAST(CASE WHEN (k + i) % 6 = 5 THEN -1
                 ELSE (k + i) % 28 + 1 END AS BIGINT) AS day,
       CAST(CASE WHEN (k + i) % 5 = 0 THEN -1
                 ELSE (k + i) % 7 END AS BIGINT) AS freq_id,
       CAST(CASE WHEN (k + i) % 4 = 0 THEN -1
                 WHEN (k + i) % 11 = 10 THEN 1000
                 ELSE ((k + i) % 11) * 100 END AS BIGINT) AS prio_milli
FROM u
UNION ALL
SELECT k, CAST(1 AS BIGINT), CAST(i AS BIGINT),
       CAST((2 * k + i) % 28 + 1 AS BIGINT),
       CAST(-1 AS BIGINT), CAST(-1 AS BIGINT)
FROM s
"""


def q_meta_extract(sf_dir: str):
    """HASH-CHECKED head-metadata extraction (pages.extract_meta — the
    indexer's first pass): every doc is an html head whose title,
    robots meta, canonical link and hreflang alternates are all driven
    by doc_id arithmetic, with a DECOY <title> and a decoy
    noindex-robots meta inside an html comment (a parser that doesn't
    strip comments first reports the wrong title length and a phantom
    noindex), attribute order flipped on odd ids, mixed-case
    NAME="ROBOTS", and junk viewport/stylesheet tags. The engine
    parses for real; the SQL mirror CONSTRUCTS (title_len, noindex,
    nofollow, canon_idx, n_hreflang) from the same arithmetic."""
    from .pages import extract_meta

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        htmls = []
        for k in ks:
            k = int(k)
            parts = [
                "<html><head>",
                '<!-- <title>FAKE %d</title>' % k,
                '<meta name="robots" content="noindex, nofollow"> -->',
                '<meta name="viewport" content="width=device-width">',
                "<title>T%d%s</title>" % (k, "x" * (k % 7)),
            ]
            if k % 4 == 0:
                c = "noindex, nofollow"
            elif k % 4 == 1:
                c = "noindex"
            elif k % 4 == 2:
                c = "index, follow"
            else:
                c = None
            if c is not None:
                parts.append(
                    '<meta NAME="ROBOTS" content="%s">' % c
                    if k % 2 == 0 else
                    '<meta content="%s" name="robots">' % c)
            parts.append('<link rel="stylesheet" href="/s.css">')
            if k % 3 != 0:
                parts.append(
                    '<link rel="canonical" href="https://d%d.example/c%d">'
                    % (k, k % 9)
                    if k % 2 == 0 else
                    '<link href="https://d%d.example/c%d" rel="canonical">'
                    % (k, k % 9))
            for i in range(k % 5):
                parts.append(
                    '<link rel="alternate" hreflang="l%d" '
                    'href="https://d%d.example/a%d">' % (i, k, i))
            parts.append("</head><body>b</body></html>")
            htmls.append("\n".join(parts))
        return pd.DataFrame({"doc_id": ks,
                             "html": pd.Series(htmls, dtype=object)})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        canon = np.array(
            [int(c.rsplit("c", 1)[1]) if c else -1 for c in df["canonical"]],
            np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "title_len": np.array([len(t) for t in df["title"]], np.int64),
            "noindex": df["meta_noindex"].to_numpy(np.int64),
            "nofollow": df["meta_nofollow"].to_numpy(np.int64),
            "canon_idx": canon,
            "n_hreflang": df["n_hreflang"].to_numpy(np.int64),
        })

    return extract_meta(
        docs.map_batches(gen, batch_format="pandas")
    ).map_batches(finish, batch_format="pandas")


SQL_META_EXTRACT = """
SELECT doc_id,
       CAST(1 + length(CAST(doc_id AS VARCHAR)) + doc_id % 7 AS BIGINT)
           AS title_len,
       CAST(CASE WHEN doc_id % 4 IN (0, 1) THEN 1 ELSE 0 END AS BIGINT)
           AS noindex,
       CAST(CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END AS BIGINT)
           AS nofollow,
       CAST(CASE WHEN doc_id % 3 = 0 THEN -1 ELSE doc_id % 9 END AS BIGINT)
           AS canon_idx,
       CAST(doc_id % 5 AS BIGINT) AS n_hreflang
FROM documents
"""


def q_http_cache_plan(sf_dir: str):
    """HASH-CHECKED HTTP cache-header parsing + RFC 9111 freshness plan
    (pages.cache_plan — the recrawl scheduler's input): every doc is a
    raw response-header block built with the parser junk drawer —
    status line, mixed-case header names (three casing variants), a
    quoted max-age value, a padded 'Age :' key, duplicate Cache-Control
    headers that must combine (RFC list semantics), unknown directives
    (stale-while-revalidate, immutable), no-cache/private noise, a
    colon-free garbage line, RFC 1123 dates the engine must actually
    parse (email.utils both sides of datagen/parse), and an invalid
    'Expires: -1' that means already-expired. Lifetime precedence
    s-maxage > max-age > Expires-Date > (Date - Last-Modified) // 10
    heuristic, no-store forcing store_ok=0, and first-wins Age are all
    driven by doc_id arithmetic; the SQL mirror CONSTRUCTS the expected
    integers from the same arithmetic, so any parse or precedence slip
    flips a value and fails the driver hash. Output (doc_id, store_ok,
    lifetime, age_s, stale_at)."""
    from email.utils import formatdate

    from .pages import cache_plan

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def plan(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        names = [("Cache-Control", "Date", "Expires", "Last-Modified"),
                 ("CACHE-CONTROL", "DATE", "EXPIRES", "LAST-MODIFIED"),
                 ("cache-control", "date", "expires", "last-modified")]
        out = {"doc_id": [], "store_ok": [], "lifetime": [],
               "age_s": [], "stale_at": []}
        for k in ks:
            k = int(k)
            cc_n, date_n, exp_n, lm_n = names[k % 3]
            date_s = 1_700_000_000 + (k % 97) * 13
            cc = []
            if k % 17 == 0:
                cc.append("no-store")
            if k % 13 == 0:
                cc.append("no-cache")
            if k % 19 == 0:
                cc.append("private")
            if k % 2 == 0:
                cc.append('max-age="%d"' % (k % 601) if k % 6 == 0
                          else "max-age=%d" % (k % 601))
            smax = "s-maxage=%d" % (k % 901) if k % 5 == 0 else None
            junk = "stale-while-revalidate=30, immutable"
            lines = ["HTTP/1.1 200 OK",
                     "X-Crawl: graft",
                     "garbage line without a colon",
                     "%s: %s" % (date_n, formatdate(date_s, usegmt=True))]
            if k % 9 == 0:
                # duplicate Cache-Control headers must combine
                if cc:
                    lines.append("%s: %s" % (cc_n, " , ".join(cc)))
                second = junk if smax is None else smax + ", " + junk
                lines.append("%s: %s" % (cc_n, second))
            else:
                both = cc + ([smax] if smax else []) + [junk]
                lines.append("%s: %s" % (cc_n, " , ".join(both)))
            if k % 3 == 0:
                age_n = "Age " if k % 27 == 0 else "Age"
                lines.append("%s: %d" % (age_n, k % 120))
            if k % 7 == 0:
                lines.append("%s: -1" % exp_n if k % 77 == 0 else
                             "%s: %s" % (exp_n, formatdate(
                                 date_s + (k % 500) - 100, usegmt=True)))
            if k % 4 == 1:
                lines.append("%s: %s" % (lm_n, formatdate(
                    date_s - (k % 1000) * 10, usegmt=True)))
            lines += ["", "body: not a header"]
            store_ok, lifetime, age_s, stale_at = cache_plan(
                "\n".join(lines))
            out["doc_id"].append(k)
            out["store_ok"].append(store_ok)
            out["lifetime"].append(lifetime)
            out["age_s"].append(age_s)
            out["stale_at"].append(stale_at)
        return pd.DataFrame({c: np.array(v, dtype=np.int64)
                             for c, v in out.items()})

    return docs.map_batches(plan, batch_format="pandas")


SQL_HTTP_CACHE_PLAN = """
WITH d AS (SELECT doc_id AS k FROM documents),
c AS (SELECT k,
    1700000000 + (k % 97) * 13 AS date_s,
    CASE WHEN k % 3 = 0 THEN k % 120 ELSE 0 END AS age_s,
    CASE WHEN k % 17 = 0 THEN 0 ELSE 1 END AS store_ok,
    CASE WHEN k % 17 = 0 THEN 0
         WHEN k % 5 = 0 THEN k % 901
         WHEN k % 2 = 0 THEN k % 601
         WHEN k % 7 = 0 THEN
             CASE WHEN k % 77 = 0 THEN 0 ELSE (k % 500) - 100 END
         WHEN k % 4 = 1 THEN k % 1000
         ELSE 0 END AS lifetime
    FROM d)
SELECT k AS doc_id, CAST(store_ok AS BIGINT) AS store_ok,
       CAST(lifetime AS BIGINT) AS lifetime,
       CAST(age_s AS BIGINT) AS age_s,
       CAST(date_s + lifetime - age_s AS BIGINT) AS stale_at
FROM c
"""


def q_content_sniff(sf_dir: str):
    """HASH-CHECKED content-type + charset sniffing (pages.sniff_content
    / sniff_pages — the crawl can't trust Content-Type headers): doc_id
    % 11 picks the planted type (html/xml/json/pdf/png/gif/jpeg/gzip/
    zip/plain/binary, ids equal to the arithmetic by construction), with
    the trap drawer — binary magics that contain '<html' later (magic
    must win), UTF-8 BOMs that beat <meta charset>, leading whitespace
    before case-mixed '<!DOCTYPE HTML>'/'<HtMl>', three charset
    declaration shapes (charset attr double-quoted, http-equiv
    content=...charset=..., single-quoted) plus a KOI8-R decoy meta that
    must NOT win (first declaration wins), a viewport meta without any
    charset, json arrays vs objects, plain text with a late '{', and a
    NUL byte forcing opaque binary. The SQL mirror CONSTRUCTS
    (type_id, charset_id) from the same arithmetic."""
    from .pages import sniff_pages

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        bodies = []
        for k in ks:
            k = int(k)
            t = k % 11
            ws = b" \n\t " if k % 3 == 0 else b""
            bom = b"\xef\xbb\xbf" if k % 5 == 0 else b""
            if t == 0:
                open_tag = (b"<!DOCTYPE HTML><head>" if k % 2 == 0
                            else b"<HtMl><head>")
                v = k % 4
                metas = [b'<meta name="viewport" content="width=device-width">']
                if v == 1:
                    metas.append(b'<meta charset="UTF-8">')
                elif v == 2:
                    metas.append(b'<meta http-equiv="Content-Type" '
                                 b'content="text/html; charset=ISO-8859-1">')
                elif v == 3:
                    metas.append(b"<meta charset='windows-1251'>")
                if v != 0:
                    metas.append(b'<meta charset="KOI8-R">')
                body = bom + ws + open_tag + b"".join(metas) + b"</head>"
            elif t == 1:
                body = bom + ws + b'<?XML version="1.0"?><r/>'
            elif t == 2:
                body = ws + (b'{"a": %d}' % k if k % 2 == 0
                             else b" [%d, 1]" % k)
            elif t == 3:
                body = b"%%PDF-1.%d junk <html>" % (k % 8)
            elif t == 4:
                body = b"\x89PNG\r\n\x1a\nIHDR\x00\x00"
            elif t == 5:
                body = (b"GIF87a" if k % 2 == 0 else b"GIF89a") + b"\x01"
            elif t == 6:
                body = b"\xff\xd8\xff\xe0\x00\x10JFIF"
            elif t == 7:
                body = b"\x1f\x8b\x08<html>"
            elif t == 8:
                body = b"PK\x03\x04\x14\x00"
            elif t == 9:
                body = b"doc %d with a late {brace" % k
            else:
                body = b"BIN\x00%d" % k
            bodies.append(body)
        return pd.DataFrame({
            "doc_id": ks, "html": pd.Series(bodies, dtype=object)})

    return sniff_pages(docs.map_batches(gen, batch_format="pandas"))


SQL_CONTENT_SNIFF = """
SELECT doc_id, CAST(doc_id % 11 AS BIGINT) AS type_id,
       CAST(CASE WHEN doc_id % 11 = 0 THEN
                 CASE WHEN doc_id % 5 = 0 THEN 1 ELSE doc_id % 4 END
            ELSE -1 END AS BIGINT) AS charset_id
FROM documents
"""


def q_frontier_schedule(sf_dir: str):
    """HASH-CHECKED politeness crawl-frontier scheduling
    (pages.frontier_schedule): every doc is a frontier candidate on
    host doc_id % 101 with a two-round multiplicative priority (one
    Lehmer round is affine — the datagen invariant), per-host top-3 by
    (priority desc, url asc) spaced by the host's crawl delay. The SQL
    mirror is a REAL window query (row_number over partition), so rank
    ties, the slot arithmetic and the delay spacing are all checked
    against genuine SQL semantics, not constructed values."""
    from .pages import frontier_schedule

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "host_id": k % 101,
            "url_id": k,
            "prio": ((k + 1) * 8191 % 1009) * 8191 % 1009,
        })

    return frontier_schedule(docs.map_batches(gen, batch_format="pandas"))


SQL_FRONTIER_SCHEDULE = """
WITH f AS (SELECT doc_id AS url_id, doc_id % 101 AS host_id,
                  ((doc_id + 1) * 8191 % 1009) * 8191 % 1009 AS prio
           FROM documents),
r AS (SELECT *, row_number() OVER (PARTITION BY host_id
                                   ORDER BY prio DESC, url_id ASC) - 1
             AS slot
      FROM f)
SELECT host_id, url_id, CAST(slot AS BIGINT) AS slot,
       CAST(1700000000 + slot * (host_id % 7 + 1) AS BIGINT) AS fetch_ts
FROM r WHERE slot < 3
"""


def q_trace_od_matrix(sf_dir: str):
    """HASH-CHECKED origin-destination trip matrix (spatial.od_matrix —
    the mobility rollup over the events stream): locations are a
    two-round multiplicative permutation of event_id into 1024 grid
    cells, trips split on >8h gaps per user (ts-ordered, event_id
    tiebreak). The SQL mirror is REAL window SQL (lag + running sum of
    trip starts + first/last per trip), so the gap rule, the tiebreak
    and the OD aggregation are checked against genuine SQL semantics."""
    from .spatial import od_matrix

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "event_id": eid,
            "user_id": df["user_id"].to_numpy(np.int64),
            "t": df["ts"].to_numpy("datetime64[us]").astype(np.int64),
            "loc": ((eid + 1) * 8191 % 1_000_003) * 8191 % 1_000_003 % 1024,
        })

    return od_matrix(ev.map_batches(gen, batch_format="pandas"))


SQL_TRACE_OD_MATRIX = """
WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS t,
                  ((event_id + 1) * 8191 % 1000003) * 8191
                      % 1000003 % 1024 AS loc
           FROM events),
m AS (SELECT *, CASE WHEN lag(t) OVER w IS NULL
                       OR t - lag(t) OVER w > 28800000000
                     THEN 1 ELSE 0 END AS new_trip
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
tr AS (SELECT *, sum(new_trip) OVER (PARTITION BY user_id
                                     ORDER BY t, event_id
                                     ROWS UNBOUNDED PRECEDING) AS trip
       FROM m),
od AS (SELECT user_id, trip,
              first(loc ORDER BY t, event_id) AS o_loc,
              last(loc ORDER BY t, event_id) AS d_loc
       FROM tr GROUP BY user_id, trip)
SELECT CAST(o_loc AS BIGINT) AS o_loc, CAST(d_loc AS BIGINT) AS d_loc,
       CAST(count(*) AS BIGINT) AS n_trips
FROM od GROUP BY o_loc, d_loc
"""


def q_trace_staypoints(sf_dir: str):
    """HASH-CHECKED stay-point detection (spatial.staypoints): every
    doc is a 9-point trace of three planted segments whose lengths
    cycle (k+s) % 3 + 2 — segment centers 1000 grid units apart (any
    cross-segment window breaks instantly), within-segment jitter <= 4
    (inside the Chebyshev radius 10), points 60 s apart, min_dur 120 s,
    so a segment is a stay-point iff it has >= 3 points. The engine
    runs the real anchor-window scan on the shuffled points; the SQL
    mirror CONSTRUCTS (trace_id, anchor_idx, n_points, dur) from the
    same arithmetic — a wrong window rule, anchor advance or duration
    off-by-one flips an integer and fails the hash."""
    from .spatial import staypoints

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        k = np.repeat(ks, 9)
        i = np.tile(np.arange(9, dtype=np.int64), len(ks))
        len0 = k % 3 + 2
        len1 = (k + 1) % 3 + 2
        seg = np.where(i < len0, 0, np.where(i < len0 + len1, 1, 2))
        return pd.DataFrame({
            "trace_id": k,
            "t": i * 60,
            "x": seg * 1000 + (k * 7 + i * 13) % 5,
            "y": seg * 1000 + (k * 11 + i * 17) % 5,
        })

    return staypoints(docs.map_batches(gen, batch_format="pandas"))


SQL_TRACE_STAYPOINTS = """
WITH d AS (SELECT doc_id AS k FROM documents),
s AS (SELECT k, unnest(range(0, 3)) AS s FROM d),
c AS (SELECT k, s, (k + s) % 3 + 2 AS len,
             CASE WHEN s = 0 THEN 0
                  WHEN s = 1 THEN k % 3 + 2
                  ELSE k % 3 + (k + 1) % 3 + 4 END AS anchor
      FROM s)
SELECT k AS trace_id, CAST(anchor AS BIGINT) AS anchor_idx,
       CAST(len AS BIGINT) AS n_points,
       CAST((len - 1) * 60 AS BIGINT) AS dur
FROM c WHERE len >= 3
"""


def q_cell_quadkey(sf_dir: str):
    """HASH-CHECKED Bing-style quadkey addressing (cells.quadkey): tile
    coords are two independent two-round multiplicative permutations of
    doc_id into a 256x256 grid (order 8); the SQL mirror rebuilds every
    digit with genuine bit arithmetic ((tx >> i) & 1) + 2*((ty >> i) & 1)
    concatenated most-significant-first, so the bit interleave, digit
    order and string assembly are all checked."""
    from .cells import quadkey

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        tx = ((k + 1) * 8191 % 1_000_003) * 8191 % 1_000_003 % 256
        ty = ((k + 3) * 8191 % 1_000_003) * 8191 % 1_000_003 % 256
        return pd.DataFrame({
            "doc_id": k, "tile_x": tx, "tile_y": ty,
            "quadkey": pd.Series(quadkey(tx, ty, 8), dtype=object)})

    return docs.map_batches(fn, batch_format="pandas")


def _sql_cell_quadkey() -> str:
    digits = " || ".join(
        "CAST(((tx >> %d) & 1) + 2 * ((ty >> %d) & 1) AS VARCHAR)" % (i, i)
        for i in range(7, -1, -1))
    return """
WITH d AS (SELECT doc_id AS k FROM documents),
t AS (SELECT k,
             ((k + 1) * 8191 % 1000003) * 8191 % 1000003 % 256 AS tx,
             ((k + 3) * 8191 % 1000003) * 8191 % 1000003 % 256 AS ty
      FROM d)
SELECT k AS doc_id, CAST(tx AS BIGINT) AS tile_x,
       CAST(ty AS BIGINT) AS tile_y, {DIGITS} AS quadkey
FROM t
""".replace("{DIGITS}", digits)


def q_hilbert_index(sf_dir: str):
    """HASH-CHECKED Hilbert-curve indexing (cells.hilbert_d — the
    locality-preserving alternative to the repo's Morton/z-order sink
    key): same permuted 256x256 tile coords as the quadkey query; the
    SQL mirror executes the rotate-and-accumulate kernel for real as
    eight unrolled CTE steps (bit tests, xor, quadrant flip+swap), so
    the engine's vectorized kernel is checked against an independent
    SQL implementation of the algorithm, not constructed values."""
    from .cells import hilbert_d

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        tx = ((k + 1) * 8191 % 1_000_003) * 8191 % 1_000_003 % 256
        ty = ((k + 3) * 8191 % 1_000_003) * 8191 % 1_000_003 % 256
        return pd.DataFrame({
            "doc_id": k, "hilbert": hilbert_d(tx, ty, 8)})

    return docs.map_batches(fn, batch_format="pandas")


def _sql_hilbert_index() -> str:
    sql = ["WITH d AS (SELECT doc_id AS k FROM documents),",
           "s8 AS (SELECT k,",
           "  ((k + 1) * 8191 % 1000003) * 8191 % 1000003 % 256 AS x,",
           "  ((k + 3) * 8191 % 1000003) * 8191 % 1000003 % 256 AS y,",
           "  CAST(0 AS BIGINT) AS d FROM d)"]
    for step, s in enumerate([128, 64, 32, 16, 8, 4, 2, 1]):
        prev, cur = "s%d" % (8 - step), "s%d" % (7 - step)
        rx = "(CASE WHEN (x & %d) > 0 THEN 1 ELSE 0 END)" % s
        ry = "(CASE WHEN (y & %d) > 0 THEN 1 ELSE 0 END)" % s
        sql.append(
            ", %s AS (SELECT k, d + %d * xor(3 * %s, %s) AS d,\n"
            "  CASE WHEN (y & %d) > 0 THEN x\n"
            "       ELSE CASE WHEN (x & %d) > 0 THEN %d - y ELSE y END\n"
            "  END AS x,\n"
            "  CASE WHEN (y & %d) > 0 THEN y\n"
            "       ELSE CASE WHEN (x & %d) > 0 THEN %d - x ELSE x END\n"
            "  END AS y FROM %s)"
            % (cur, s * s, rx, ry, s, s, s - 1, s, s, s - 1, prev))
    sql.append("SELECT k AS doc_id, CAST(d AS BIGINT) AS hilbert FROM s0")
    return "\n".join(sql)


def q_cell_regions(sf_dir: str):
    """HASH-CHECKED raster region dissolve (polygons.cell_regions):
    every doc plants a w x h rectangle of occupied cells (w = k%3+1,
    h = k%4+1) on its own 20-cell-spaced grid slot (k % 100, k // 100)
    — a bijection for EVERY doc_id (no modulus on the y axis, so slots
    can never collide at larger scale factors; x stays <= 99*20+2,
    inside cell_regions' width=4096 key stride, while y is unbounded
    and exact in int64) — so regions are
    disjoint by construction and each doc yields exactly one region
    with n_cells = w*h and perimeter = 2*(w+h). The engine sees only
    the shuffled cell bag — neighbour discovery (hash semi-join), the
    CC ladder and the 4n-2*pairs perimeter identity all have to be
    right for the constructed mirror to match."""
    from .polygons import cell_regions

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        w = ks % 3 + 1
        h = ks % 4 + 1
        reps = (w * h).astype(np.int64)
        k = np.repeat(ks, reps)
        wk = np.repeat(w, reps)
        # per-doc cell index 0..w*h-1 -> (i % w, i // w) offsets
        i = np.concatenate([np.arange(r) for r in reps]) if len(reps) \
            else np.array([], np.int64)
        return pd.DataFrame({
            "x": (k % 100) * 20 + i % wk,
            "y": (k // 100) * 20 + i // wk,
        })

    return cell_regions(docs.map_batches(gen, batch_format="pandas"))


SQL_CELL_REGIONS = """
WITH d AS (SELECT doc_id AS k FROM documents),
r AS (SELECT k, (k % 100) * 20 AS ox, (k // 100) * 20 AS oy,
             k % 3 + 1 AS w, k % 4 + 1 AS h
      FROM d)
SELECT CAST(oy * 4096 + ox AS BIGINT) AS region_id,
       CAST(w * h AS BIGINT) AS n_cells,
       CAST(2 * (w + h) AS BIGINT) AS perimeter
FROM r
"""


def q_convex_hulls(sf_dir: str):
    """HASH-CHECKED per-group convex hulls (polygons.convex_hulls):
    every doc is a point set whose hull is a planted w x h rectangle
    (w = k%5+2, h = k%7+2) salted with a collinear boundary point at
    (1, 0) — which must NOT count as a hull vertex under the
    strict-turn convention — and an arithmetic interior point. The
    engine runs the real monotone chain on the shuffled points; the
    mirror CONSTRUCTS (group_id, n_hull = 4, area2 = 2*w*h): a chain
    that keeps collinear points or mis-signs a cross product flips
    n_hull and fails the hash."""
    from .polygons import convex_hulls

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        w = ks % 5 + 2
        h = ks % 7 + 2
        ix = 1 + ks % (w - 1)
        iy = 1 + ks % (h - 1)
        zero = np.zeros(len(ks), np.int64)
        one = np.ones(len(ks), np.int64)
        return pd.DataFrame({
            "group_id": np.tile(ks, 6),
            "x": np.concatenate([zero, w, zero, w, one, ix]),
            "y": np.concatenate([zero, zero, h, h, zero, iy]),
        })

    return convex_hulls(docs.map_batches(gen, batch_format="pandas"))


SQL_CONVEX_HULLS = """
SELECT doc_id AS group_id, CAST(4 AS BIGINT) AS n_hull,
       CAST(2 * (doc_id % 5 + 2) * (doc_id % 7 + 2) AS BIGINT) AS area2
FROM documents
"""


def q_interval_coverage(sf_dir: str):
    """HASH-CHECKED sweep-line interval analytics
    (windows.interval_coverage): every doc contributes one half-open
    integer interval (permuted start, length k%50+1) to group k%97;
    per group the union coverage, max overlap depth and count are
    computed by the vectorized sweep. The SQL mirror runs a REAL
    sweep in SQL — +1/-1 events, GROUP BY (g, pos) pre-aggregation,
    running-sum depth, lead() segment lengths — so the engine's
    equal-position delta aggregation and depth accounting are checked
    against genuine SQL semantics."""
    from .windows import interval_coverage

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        s = ((k + 1) * 8191 % 1_000_003) * 8191 % 1_000_003 % 10000
        return pd.DataFrame({"g": k % 97, "s": s, "e": s + k % 50 + 1})

    return interval_coverage(docs.map_batches(gen, batch_format="pandas"))


SQL_INTERVAL_COVERAGE = """
WITH iv0 AS (SELECT doc_id % 97 AS g,
                    ((doc_id + 1) * 8191 % 1000003) * 8191
                        % 1000003 % 10000 AS s,
                    doc_id % 50 + 1 AS len
             FROM documents),
iv AS (SELECT g, s, s + len AS e FROM iv0),
ev AS (SELECT g, s AS pos, 1 AS d FROM iv
       UNION ALL SELECT g, e, -1 FROM iv),
ag AS (SELECT g, pos, sum(d) AS dd FROM ev GROUP BY g, pos),
sw AS (SELECT g, pos,
              sum(dd) OVER (PARTITION BY g ORDER BY pos
                            ROWS UNBOUNDED PRECEDING) AS depth,
              lead(pos) OVER (PARTITION BY g ORDER BY pos) AS nxt
       FROM ag),
cv AS (SELECT g, sum(CASE WHEN depth > 0 THEN nxt - pos ELSE 0 END)
                 AS covered,
              max(depth) AS max_depth
       FROM sw GROUP BY g),
cnt AS (SELECT g, count(*) AS n FROM iv GROUP BY g)
SELECT cv.g AS g, CAST(cnt.n AS BIGINT) AS n_intervals,
       CAST(cv.covered AS BIGINT) AS covered,
       CAST(cv.max_depth AS BIGINT) AS max_depth
FROM cv JOIN cnt ON cv.g = cnt.g
"""


def q_polygon_clip(sf_dir: str):
    """HASH-CHECKED Sutherland-Hodgman convex clipping
    (polygons.clip_area_stats): every doc clips an s x s subject
    square (s = 10+k%7) by one of three convex windows chosen by
    k%3 — a diamond strictly inside the square (all four diagonal
    half-planes cut corners for real, expected area2 = 4d^2), a
    partially-overlapping rectangle (expected = rect-intersection
    arithmetic, including touching-edge zero-area degenerates at
    a in {s,s+1,s+2}), or a disjoint rectangle (empty output). The
    engine runs the real half-plane pipeline + shoelace on packed
    float64 vertex buffers; the mirror CONSTRUCTS the integers —
    any sign, winding or on-edge error flips a case and fails the
    hash."""
    from .polygons import clip_area_stats

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        n = len(k)
        m = k % 3
        s = (10 + k % 7).astype(np.float64)
        z = np.zeros(n, np.float64)
        subj = np.stack([z, z, s, z, s, s, z, s], axis=1)
        # diamond (m==0): center c, half-diagonal d, CCW from +x tip
        c = (5 + k % 3).astype(np.float64)
        d = (2 + k % 2).astype(np.float64)
        dia = np.stack([c + d, c, c, c + d, c - d, c, c, c - d], axis=1)
        # rectangle (m==1 overlapping, m==2 shifted +100 = disjoint)
        a = (k % (10 + k % 7 + 3) + np.where(m == 2, 100, 0)
             ).astype(np.float64)
        w = (3 + k % 9).astype(np.float64)
        b = (k % (10 + k % 7 - 2)).astype(np.float64)
        h = (4 + k % 6).astype(np.float64)
        rect = np.stack([a, b, a + w, b, a + w, b + h, a, b + h], axis=1)
        clip = np.where((m == 0)[:, None], dia, rect)
        return pd.DataFrame({
            "doc_id": k,
            "subj": [r.tobytes() for r in subj],
            "clip": [r.tobytes() for r in clip]})

    return clip_area_stats(docs.map_batches(gen, batch_format="pandas"))


SQL_POLYGON_CLIP = """
WITH p AS (SELECT doc_id, doc_id % 3 AS m, 10 + doc_id % 7 AS s,
                  2 + doc_id % 2 AS d,
                  doc_id % (10 + doc_id % 7 + 3) AS a,
                  3 + doc_id % 9 AS w,
                  doc_id % (10 + doc_id % 7 - 2) AS b,
                  4 + doc_id % 6 AS h
           FROM documents),
q AS (SELECT doc_id, m, d,
             GREATEST(0, LEAST(s, a + w) - a) AS ow,
             GREATEST(0, LEAST(s, b + h) - b) AS oh
      FROM p)
SELECT doc_id,
       CAST(CASE WHEN m = 0 THEN 4 * d * d
                 WHEN m = 1 THEN 2 * ow * oh
                 ELSE 0 END AS BIGINT) AS area2,
       CAST(CASE WHEN m = 0 THEN 2 * d
                 WHEN m = 1 AND ow > 0 THEN ow
                 ELSE 0 END AS BIGINT) AS inter_w,
       CAST(CASE WHEN m = 0 THEN 2 * d
                 WHEN m = 1 AND ow > 0 THEN oh
                 ELSE 0 END AS BIGINT) AS inter_h
FROM q
"""


def q_orientation_hist(sf_dir: str):
    """HASH-CHECKED street-grid orientation histogram
    (spatial.orientation_histogram): the segment-crossings A layer
    bucketed per res-256 cell by integer OCTANT — trig-free bearing
    analysis whose np.select condition ladder and the SQL CASE share
    the exact order, so half-open 45-degree boundaries and axis cases
    are pinned by the hash."""
    from .spatial import orientation_histogram

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        h = ((k + 1) * 8191 % 1_000_003) * 8191 % 1_000_003
        x1 = 200 + h % 3800
        y1 = 200 + (h // 7) % 3800
        return pd.DataFrame({
            "x1": x1, "y1": y1,
            "x2": x1 + ((h // 11) % 401 - 200),
            "y2": y1 + ((h // 13) % 401 - 200)})

    return orientation_histogram(docs.map_batches(gen, batch_format="pandas"))


SQL_ORIENTATION_HIST = """
WITH d AS (SELECT ((doc_id + 1) * 8191 % 1000003) * 8191 % 1000003 AS h
           FROM documents),
s AS (SELECT 200 + h % 3800 AS x1, 200 + (h // 7) % 3800 AS y1,
             (h // 11) % 401 - 200 AS dx, (h // 13) % 401 - 200 AS dy
      FROM d),
o AS (SELECT (x1 + x1 + dx) // 512 AS cx, (y1 + y1 + dy) // 512 AS cy,
             CASE
               WHEN dx > 0 AND dy >= 0 AND dx > dy THEN 0
               WHEN dx > 0 AND dy > 0 AND dy >= dx THEN 1
               WHEN dx <= 0 AND dy > 0 AND dy > -dx THEN 2
               WHEN dx < 0 AND dy > 0 AND -dx >= dy THEN 3
               WHEN dx < 0 AND dy <= 0 AND -dx > -dy THEN 4
               WHEN dx <= 0 AND dy < 0 AND -dy >= -dx THEN 5
               WHEN dx > 0 AND dy < 0 AND -dy > dx THEN 6
               ELSE 7
             END AS oct
      FROM s WHERE NOT (dx = 0 AND dy = 0))
SELECT CAST(cx AS BIGINT) AS cx, CAST(cy AS BIGINT) AS cy,
       CAST(oct AS BIGINT) AS oct, CAST(count(*) AS BIGINT) AS n
FROM o GROUP BY cx, cy, oct
"""


def q_url_templates(sf_dir: str):
    """HASH-CHECKED URL template mining (pages.url_templates): four
    structural URL shapes assembled from doc_id arithmetic — digit
    runs inside host labels, path segments, mixed digit-letter slugs
    (item12a34 -> itemNaN) and query values — collapsed by the REAL
    Arrow RE2 digit-run replace and counted per template. The SQL
    mirror builds the SAME strings and runs DuckDB's RE2
    regexp_replace — RE2 on both sides, so any kernel or grouping
    slip fails the hash."""
    from .pages import url_templates

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        urls = []
        for k in ks:
            k = int(k)
            host = "https://site%d.example" % (k % 50)
            m = k % 4
            if m == 0:
                u = "%s/cat%d/item%d" % (host, k % 7, k)
            elif m == 1:
                u = "%s/cat%d/item%d/reviews" % (host, k % 7, k)
            elif m == 2:
                u = "%s/blog/%d/%d-post%da%d" % (host, k % 12, k, k % 5, k)
            else:
                u = "%s/u/user%d?tab=%d" % (host, k, k % 3)
            urls.append(u)
        return pd.DataFrame({"url": pd.Series(urls, dtype=object)})

    return url_templates(docs.map_batches(gen, batch_format="pandas"))


SQL_URL_TEMPLATES = """
WITH u AS (SELECT
    'https://site' || CAST(doc_id % 50 AS VARCHAR) || '.example' ||
    CASE doc_id % 4
      WHEN 0 THEN '/cat' || CAST(doc_id % 7 AS VARCHAR)
                  || '/item' || CAST(doc_id AS VARCHAR)
      WHEN 1 THEN '/cat' || CAST(doc_id % 7 AS VARCHAR)
                  || '/item' || CAST(doc_id AS VARCHAR) || '/reviews'
      WHEN 2 THEN '/blog/' || CAST(doc_id % 12 AS VARCHAR) || '/'
                  || CAST(doc_id AS VARCHAR) || '-post'
                  || CAST(doc_id % 5 AS VARCHAR) || 'a'
                  || CAST(doc_id AS VARCHAR)
      ELSE '/u/user' || CAST(doc_id AS VARCHAR) || '?tab='
                  || CAST(doc_id % 3 AS VARCHAR)
    END AS url
  FROM documents)
SELECT regexp_replace(url, '[0-9]+', 'N', 'g') AS template,
       CAST(count(*) AS BIGINT) AS n
FROM u GROUP BY template
"""


def q_segment_crossings(sf_dir: str):
    """HASH-CHECKED planar-overlay crossing counts
    (polygons.segment_crossings): two 500-segment layers from two-round
    doc_id arithmetic (spans <= 200, so each segment covers <= ~16
    res-64 cells), proper-crossing counts per A-segment via the
    cell-bucketed pair-once join. The SQL mirror is the BRUTE cross
    join with the identical four-cross-product integer predicate — any
    covering, pair-once or orientation slip fails the hash."""
    from .polygons import segment_crossings

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def seg(df: pd.DataFrame, add: int, mult: int) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        h = ((k + add) * mult % 1_000_003) * mult % 1_000_003
        x1 = 200 + h % 3800
        y1 = 200 + (h // 7) % 3800
        return pd.DataFrame({
            "seg_id": k,
            "x1": x1, "y1": y1,
            "x2": x1 + ((h // 11) % 401 - 200),
            "y2": y1 + ((h // 13) % 401 - 200)})

    a = docs.map_batches(lambda df: seg(df, 1, 8191),
                         batch_format="pandas")
    b = docs.map_batches(lambda df: seg(df, 7, 12289),
                         batch_format="pandas")
    return segment_crossings(a, b)


SQL_SEGMENT_CROSSINGS = """
WITH d AS (SELECT doc_id AS k,
                  ((doc_id + 1) * 8191 % 1000003) * 8191 % 1000003 AS h1,
                  ((doc_id + 7) * 12289 % 1000003) * 12289 % 1000003 AS h2
           FROM documents),
sa AS (SELECT k AS seg_id,
              200 + h1 % 3800 AS x1, 200 + (h1 // 7) % 3800 AS y1,
              200 + h1 % 3800 + ((h1 // 11) % 401 - 200) AS x2,
              200 + (h1 // 7) % 3800 + ((h1 // 13) % 401 - 200) AS y2
       FROM d),
sb AS (SELECT k AS seg_id,
              200 + h2 % 3800 AS x1, 200 + (h2 // 7) % 3800 AS y1,
              200 + h2 % 3800 + ((h2 // 11) % 401 - 200) AS x2,
              200 + (h2 // 7) % 3800 + ((h2 // 13) % 401 - 200) AS y2
       FROM d)
SELECT a.seg_id AS seg_id, CAST(count(*) AS BIGINT) AS n_cross
FROM sa a JOIN sb b ON
  ((b.x2 - b.x1) * (a.y1 - b.y1) - (b.y2 - b.y1) * (a.x1 - b.x1))
  * ((b.x2 - b.x1) * (a.y2 - b.y1) - (b.y2 - b.y1) * (a.x2 - b.x1)) < 0
  AND
  ((a.x2 - a.x1) * (b.y1 - a.y1) - (a.y2 - a.y1) * (b.x1 - a.x1))
  * ((a.x2 - a.x1) * (b.y2 - a.y1) - (a.y2 - a.y1) * (b.x2 - a.x1)) < 0
GROUP BY a.seg_id
"""


def q_hreflang_clusters(sf_dir: str):
    """HASH-CHECKED hreflang language clustering
    (pages.hreflang_clusters): pages k form chains inside 5-doc groups
    (each page alternate-links its successor's URL), salted with a
    commented-out alternate into the NEXT group (merging on it
    corrupts every cluster id), a dangling alternate to a never-
    crawled URL (must drop in the join), a canonical decoy and a
    hreflang-less alternate (both ignored). The engine extracts for
    real, joins on url strings and runs the CC ladder; the mirror is
    real SQL — min(doc_id) over the group partition."""
    from .pages import hreflang_clusters

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        urls, htmls = [], []
        for k in ks:
            k = int(k)
            urls.append("https://d%d.example/l%d" % (k // 5, k % 5))
            parts = ["<html><head>",
                     '<!-- <link rel="alternate" hreflang="xx" '
                     'href="https://d%d.example/l0"> -->' % (k // 5 + 1),
                     '<link rel="stylesheet" href="/s.css">',
                     '<link rel="canonical" '
                     'href="https://d%d.example/l%d">' % (k // 5, k % 5),
                     '<link rel="alternate" '
                     'href="https://d%d.example/feed">' % (k // 5)]
            if k % 5 < 4:
                parts.append(
                    '<link rel="alternate" hreflang="l%d" '
                    'href="https://d%d.example/l%d">'
                    % ((k + 1) % 5, (k + 1) // 5, (k + 1) % 5))
            parts.append('<link rel="alternate" hreflang="zz" '
                         'href="https://nowhere.example/x%d">' % k)
            parts.append("</head></html>")
            htmls.append("".join(parts))
        return pd.DataFrame({
            "page_id": ks,
            "url": pd.Series(urls, dtype=object),
            "html": pd.Series(htmls, dtype=object)})

    return hreflang_clusters(docs.map_batches(gen, batch_format="pandas"))


SQL_HREFLANG_CLUSTERS = """
SELECT doc_id AS page_id,
       CAST(min(doc_id) OVER (PARTITION BY doc_id // 5) AS BIGINT)
           AS cluster_id
FROM documents
"""


def q_url_features(sf_dir: str):
    """HASH-CHECKED URL lexical features (pages.url_features — the
    spam-signal set): URLs are assembled from doc_id arithmetic with
    the parser junk drawer — userinfo to strip, explicit ports,
    optional www label, digit-bearing host labels, trailing slashes
    that must not count as a path segment, doubled && separators
    yielding empty params, and a fragment carrying a FAKE ?query that
    must not count. The SQL mirror CONSTRUCTS every feature from the
    same arithmetic."""
    from .pages import url_features

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        tlds = ["com", "org", "net", "io"]
        urls = []
        for k in ks:
            k = int(k)
            host = ("www%d.site%d.%s" % (k % 10, k % 100, tlds[k // 4 % 4])
                    if k % 3 == 0 else
                    "site%d.%s" % (k % 100, tlds[k // 4 % 4]))
            user = "u:p@" if k % 7 == 0 else ""
            port = ":8080" if k % 5 == 0 else ""
            path = "".join("/p%d" % i for i in range(k % 4))
            if k % 2 == 0:
                path += "/"
            # gate independent of k % 3 so two-param rows (k%3 == 2,
            # e.g. k=11) really carry the doubled separator — a k%6
            # gate implies k%3 == 0 = zero params = dead trap
            sep = "&&" if k % 5 == 1 else "&"
            query = sep.join("a%d=%d" % (i, k) for i in range(k % 3))
            frag = "#frag?fake=1" if k % 2 == 0 else ""
            urls.append("https://%s%s%s%s%s%s%s" % (
                user, host, port, path,
                "?" + query if query else "", frag, ""))
        return pd.DataFrame({"doc_id": ks,
                             "url": pd.Series(urls, dtype=object)})

    return url_features(docs.map_batches(gen, batch_format="pandas"))


SQL_URL_FEATURES = """
SELECT doc_id,
       CAST(CASE WHEN doc_id % 3 = 0 THEN 3 ELSE 2 END AS BIGINT)
           AS host_labels,
       CAST(CASE WHEN doc_id % 3 = 0
                 THEN 1 + length(CAST(doc_id % 100 AS VARCHAR))
                 ELSE length(CAST(doc_id % 100 AS VARCHAR)) END AS BIGINT)
           AS n_digits_host,
       CAST(CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT)
           AS has_port,
       CAST(doc_id % 4 AS BIGINT) AS path_depth,
       CAST(doc_id % 3 AS BIGINT) AS n_params,
       CAST(doc_id // 4 % 4 AS BIGINT) AS tld_id
FROM documents
"""


def q_table_stats(sf_dir: str):
    """HASH-CHECKED HTML table statistics (pages.table_stats — a real
    stack-machine parser): each doc gets doc_id%3 tables of
    arithmetic-determined shape, with the parser traps laid on — a
    commented-out ghost table that must NOT count, a nested table in
    the first cell (rows/cells attributed to the INNER table),
    colspan=2 widening the first row, uppercase tag spellings, a th
    header row, and stray <br/> noise.  The SQL mirror CONSTRUCTS all
    five statistics from the same doc_id arithmetic — any mis-parse
    (comment not stripped, nested rows double-counted, colspan missed,
    case-sensitive tag match) fails the hash."""
    from .pages import table_stats

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["doc_id"].to_numpy(np.int64)
        htmls = []
        for k in ks:
            k = int(k)
            t = k % 3
            nested = k % 5 == 0 and t >= 1
            cs2 = k % 4 == 0
            parts = ["<p>doc %d</p>" % k,
                     "<!-- <table><tr><td>ghost</td></tr></table> -->"]
            for i in range(t):
                r = 1 + (k + i) % 3
                c = 1 + (k + 2 * i) % 4
                rows_html = []
                for j in range(r):
                    cells = []
                    for x in range(c):
                        tag = "th" if (k % 2 == 1 and j == 0) else "td"
                        attr = (' colspan="2"'
                                if cs2 and j == 0 and x == 0 else "")
                        inner = "c%d" % x
                        if nested and i == 0 and j == 0 and x == 0:
                            inner = ('<table class="in"><tr><td>a</td>'
                                     "<td>b</td></tr></table>")
                        cells.append("<%s%s>%s</%s>"
                                     % (tag, attr, inner, tag))
                    rows_html.append("<tr>" + "".join(cells) + "</tr>")
                tb = ('<table id="t%d">' % i) + "".join(rows_html) \
                    + "</table>"
                if k % 7 == 0:
                    tb = tb.upper()
                parts.append(tb)
            htmls.append("".join(parts) + "<br/>")
        return pd.DataFrame({"doc_id": ks,
                             "html": pd.Series(htmls, dtype=object)})

    return table_stats(docs.map_batches(gen, batch_format="pandas"))


SQL_TABLE_STATS = """
WITH f AS (
  SELECT doc_id,
         doc_id % 3 AS t,
         1 + doc_id % 3 AS r0, 1 + doc_id % 4 AS c0,
         1 + (doc_id + 1) % 3 AS r1, 1 + (doc_id + 2) % 4 AS c1,
         CASE WHEN doc_id % 5 = 0 AND doc_id % 3 >= 1
              THEN 1 ELSE 0 END AS nested,
         CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END AS cs
  FROM documents)
SELECT doc_id,
       CAST(t + nested AS BIGINT) AS n_tables,
       CAST(CASE WHEN t = 0 THEN 0 ELSE 1 + nested END AS BIGINT)
           AS max_depth,
       CAST(CASE WHEN t = 0 THEN 0 WHEN t = 1 THEN r0
                 ELSE r0 + r1 END + nested AS BIGINT) AS n_rows,
       CAST(CASE WHEN t = 0 THEN 0 WHEN t = 1 THEN r0 * c0
                 ELSE r0 * c0 + r1 * c1 END + 2 * nested AS BIGINT)
           AS n_cells,
       CAST(CASE WHEN t = 0 THEN 0
                 WHEN t = 1 THEN GREATEST(c0 + cs, 2 * nested)
                 ELSE GREATEST(c0 + cs, c1 + cs, 2 * nested)
            END AS BIGINT) AS max_cols
FROM f
"""


_MM_T = 4          # trace length
_MM_E = 24         # edge universe size
_MM_LAM = "0.25"   # transition weight (exact binary fraction)


def q_trace_map_match(sf_dir: str):
    """HASH-CHECKED HMM map matching (spatial.map_match): every 11th
    customer is a 4-point trace (point coords from key arithmetic),
    the 24 lowest-keyed suppliers are street edges (endpoint A from
    key coords, endpoint B offset by exact half-degree steps, never
    degenerate), and Viterbi snaps each trace to its cheapest edge
    path — emission = planar point-to-segment sqdist, transition =
    0.25 x midpoint sqdist, all argmin ties to the smallest edge id.
    Every float op (the one division in the projection clamp included)
    runs in the same IEEE order on both sides, so the SQL mirror — the
    DP unrolled as per-step CTEs with QUALIFY argmins and a join-back
    backtrack — is bit-exact; output is integer rows
    (trace_id, step, edge)."""
    from .spatial import map_match

    supp = _t(sf_dir, "supplier", columns=["s_suppkey"]).to_pandas()
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))[:_MM_E]
    alat, alon = _coords_from_key(sk, 11, 17)
    blat = alat + ((sk * 3) % 5 - 2).astype(np.float64) * 0.5
    blon = alon + ((sk * 7 + 1) % 4 + 1).astype(np.float64) * 0.5
    edges = pd.DataFrame({"eid": sk, "alat": alat, "alon": alon,
                          "blat": blat, "blon": blon})

    def to_points(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        k = k[k % 11 == 0]
        kk = np.repeat(k, _MM_T)
        t = np.tile(np.arange(_MM_T, dtype=np.int64), len(k))
        lat, lon = _coords_from_key(kk * 7 + t * 3, 7, 13)
        return pd.DataFrame({"trace_id": kk, "step": t,
                             "lat": lat, "lon": lon})

    pts = _t(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        to_points, batch_format="pandas")
    return map_match(pts, edges, lam=0.25)


def _sql_trace_map_match() -> str:
    plat, plon = _sql_coords("(c_custkey * 7 + t * 3)", 7, 13)
    alat, alon = _sql_coords("s_suppkey", 11, 17)
    head = f"""
WITH ed AS (
  SELECT s_suppkey AS eid, {alat} AS alat, {alon} AS alon,
         ({alat}) + CAST((s_suppkey * 3) % 5 - 2 AS DOUBLE) * 0.5 AS blat,
         ({alon}) + CAST((s_suppkey * 7 + 1) % 4 + 1 AS DOUBLE) * 0.5 AS blon
  FROM supplier
  WHERE s_suppkey IN (SELECT s_suppkey FROM supplier
                      ORDER BY s_suppkey LIMIT {_MM_E})
),
edm AS (SELECT eid, (alat + blat) * 0.5 AS mlat,
               (alon + blon) * 0.5 AS mlon FROM ed),
trw AS (
  SELECT i.eid AS i, j.eid AS j,
         {_MM_LAM} * ((i.mlat - j.mlat) * (i.mlat - j.mlat)
                    + (i.mlon - j.mlon) * (i.mlon - j.mlon)) AS w
  FROM edm i CROSS JOIN edm j
),
pts AS (
  SELECT c_custkey AS tr, t, {plat} AS plat, {plon} AS plon
  FROM customer CROSS JOIN (SELECT unnest(range(0, {_MM_T})) AS t)
  WHERE c_custkey % 11 = 0
),
em1 AS (
  SELECT tr, t, eid, plat, plon, alat, alon,
         blat - alat AS dlat, blon - alon AS dlon
  FROM pts CROSS JOIN ed
),
em2 AS (
  SELECT *, dlat * dlat + dlon * dlon AS seg,
         (plat - alat) * dlat + (plon - alon) * dlon AS num
  FROM em1
),
em3 AS (SELECT *, LEAST(GREATEST(num / seg, 0.0), 1.0) AS tt FROM em2),
em AS (
  SELECT tr, t, eid,
         ((alat + tt * dlat) - plat) * ((alat + tt * dlat) - plat)
       + ((alon + tt * dlon) - plon) * ((alon + tt * dlon) - plon) AS e
  FROM em3
),
dp0 AS (SELECT tr, eid AS j, e AS cost FROM em WHERE t = 0)"""
    steps = []
    for t in range(1, _MM_T):
        steps.append(f"""
c{t} AS (SELECT d.tr, w.j, d.cost + w.w AS x, d.j AS prev
         FROM dp{t - 1} d JOIN trw w ON w.i = d.j),
m{t} AS (SELECT tr, j, x, prev FROM c{t}
         QUALIFY row_number() OVER (PARTITION BY tr, j
                                    ORDER BY x, prev) = 1),
dp{t} AS (SELECT m.tr, m.j, m.x + e.e AS cost, m.prev
          FROM m{t} m JOIN em e
          ON e.tr = m.tr AND e.eid = m.j AND e.t = {t})""")
    last = _MM_T - 1
    back = [f"""
b{last} AS (SELECT tr, j, prev FROM dp{last}
            QUALIFY row_number() OVER (PARTITION BY tr
                                       ORDER BY cost, j) = 1)"""]
    for t in range(last - 1, 0, -1):
        back.append(f"""
b{t} AS (SELECT b.tr, b.prev AS j, d.prev AS prev
         FROM b{t + 1} b JOIN dp{t} d ON d.tr = b.tr AND d.j = b.prev)""")
    sels = [f"SELECT tr AS trace_id, CAST(0 AS BIGINT) AS step, "
            f"prev AS edge FROM b1"]
    for t in range(1, _MM_T):
        sels.append(f"SELECT tr, CAST({t} AS BIGINT), j FROM b{t}")
    return (head + "," + ",".join(steps) + "," + ",".join(back)
            + "\n" + " UNION ALL ".join(sels))


# ------------------------------------------------------------ joins / snap


def q_spatial_cell_join(sf_dir: str):
    """Cell-to-cell equi-join: customer x supplier pairs per shared res-6
    cell (the hash-partitioned spatial join shape)."""
    from .joins import hash_join

    def cust_cells(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"cell": cells.cell_of(lat, lon, RES_JOIN), "c_custkey": k})

    def supp_cells(df: pd.DataFrame) -> pd.DataFrame:
        k = df["s_suppkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 11, 17)
        return pd.DataFrame({"cell": cells.cell_of(lat, lon, RES_JOIN), "s_suppkey": k})

    c = _t(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        cust_cells, batch_format="pandas"
    )
    s = _t(sf_dir, "supplier", columns=["s_suppkey"]).map_batches(
        supp_cells, batch_format="pandas"
    )
    joined = hash_join(c, s, "cell", num_buckets=16)

    # the join already co-partitioned by cell, so a cell's pairs all
    # sit in one output block: per-block value_counts partials merged
    # on the driver replace a second keyed groupby barrier over the
    # exploded pair set (the repo's measured barrier anti-pattern)
    def vc(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df["cell"].value_counts()
        return pd.DataFrame({"cell": cnt.index.to_numpy(np.int64),
                             "n_pairs": cnt.to_numpy(np.int64)})

    parts = joined.map_batches(vc, batch_format="pandas").to_pandas()
    if parts.empty:  # 0-row to_pandas drops columns
        return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                             "n_pairs": pd.Series(dtype=np.int64)})
    out = parts.groupby("cell", as_index=False)["n_pairs"].sum()
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    return out.sort_values("cell").reset_index(drop=True)


def _sql_spatial_cell_join() -> str:
    clat, clon = _sql_coords("c_custkey", 7, 13)
    slat, slon = _sql_coords("s_suppkey", 11, 17)
    cexpr = cells.oracle_sql_cell_expr(clat, clon, RES_JOIN)
    sexpr = cells.oracle_sql_cell_expr(slat, slon, RES_JOIN)
    return f"""
WITH c AS (SELECT {cexpr} AS cell FROM customer),
     s AS (SELECT {sexpr} AS cell FROM supplier)
SELECT c.cell AS cell, count(*) AS n_pairs FROM c JOIN s ON c.cell = s.cell GROUP BY 1
"""


def q_nn_snap_planar(sf_dir: str):
    """Nearest supplier per customer by planar squared distance
    (broadcast small side; ties -> smallest s_suppkey)."""
    supp = _t(sf_dir, "supplier", columns=["s_suppkey"]).to_pandas()
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    slat, slon = _coords_from_key(sk, 11, 17)

    import ray

    ref = ray.put((sk, slat, slon))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s_ids, s_lat, s_lon = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        k = df["c_custkey"].to_numpy(np.int64)
        clat, clon = _coords_from_key(k, 7, 13)
        dlat = clat[:, None] - s_lat[None, :]
        dlon = clon[:, None] - s_lon[None, :]
        sq = dlat * dlat + dlon * dlon
        best = np.argmin(sq, axis=1)  # first min = smallest id (pre-sorted)
        return pd.DataFrame({"c_custkey": k, "nn_suppkey": s_ids[best]})

    return _t(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        fn, batch_format="pandas"
    )


def _sql_nn_snap_planar() -> str:
    clat, clon = _sql_coords("c_custkey", 7, 13)
    slat, slon = _sql_coords("s_suppkey", 11, 17)
    return f"""
WITH d AS (
  SELECT c_custkey, s_suppkey,
         (({clat}) - ({slat})) * (({clat}) - ({slat}))
       + (({clon}) - ({slon})) * (({clon}) - ({slon})) AS sq
  FROM customer CROSS JOIN supplier
), r AS (
  SELECT c_custkey, s_suppkey,
         row_number() OVER (PARTITION BY c_custkey ORDER BY sq, s_suppkey) AS rn
  FROM d
)
SELECT c_custkey, s_suppkey AS nn_suppkey FROM r WHERE rn = 1
"""


def q_knn_cell_snap(sf_dir: str):
    """The cell-index kNN snap itself, oracle-checked: customers snap to
    their nearest supplier (as zero-length street segments) through the
    full broadcast cell machinery at a resolution whose 1-ring covers
    the globe (res=1: 2x2 cells, x wraps, y clamps) — so the result must
    equal the exact brute-force nearest neighbour, which IS SQL-expressible
    (planar sqdist + (dist, id) tiebreak)."""
    from . import spatial

    supp = _t(sf_dir, "supplier", columns=["s_suppkey"]).to_pandas()
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    slat, slon = _coords_from_key(sk, 11, 17)
    edges_df = pd.DataFrame(
        {
            "u": [f"s{k:09d}" for k in sk],  # zero-padded: string rank == id rank
            "v": [f"t{k:09d}" for k in sk],
            "u_lat": slat,
            "u_lon": slon,
            "v_lat": slat,
            "v_lon": slon,
        }
    )

    def to_points(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"url": k.astype(str), "lat": lat, "lon": lon})

    points = _t(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        to_points, batch_format="pandas"
    )
    snapped, _ = spatial.knn_snap_broadcast(points, edges_df, res=1, ring=1)

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": df["url"].astype(np.int64),
                "nn_suppkey": df["u"].str.slice(1).astype(np.int64),
            }
        )

    return snapped.map_batches(unpack, batch_format="pandas")


def q_knn3_cell_snap(sf_dir: str):
    """The k>1 path of the shuffle kNN snap, oracle-checked: top-3
    nearest suppliers per customer through the full cell co-group +
    salting machinery at full-coverage resolution (res=1, ring=1), so
    the ranked result must equal the exact SQL row_number() top-3 with
    the (sqdist, id) tiebreak (zero-padded edge ids make string rank ==
    integer rank)."""
    from . import spatial

    supp = _t(sf_dir, "supplier", columns=["s_suppkey"]).to_pandas()
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    slat, slon = _coords_from_key(sk, 11, 17)
    edges_df = pd.DataFrame(
        {
            "u": [f"s{k:09d}" for k in sk],
            "v": [f"t{k:09d}" for k in sk],
            "u_lat": slat, "u_lon": slon, "v_lat": slat, "v_lon": slon,
        }
    )
    import ray.data as rd

    def to_points(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"url": k.astype(str), "lat": lat, "lon": lon})

    points = _t(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        to_points, batch_format="pandas"
    )
    snapped, _ = spatial.knn_snap(
        points, rd.from_pandas(edges_df), res=1, k=3, ring=1,
        hot_threshold=10_000_000,
    )

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": df["url"].astype(np.int64),
                "rank": df["rank"].to_numpy(np.int64),
                "nn_suppkey": df["u"].str.slice(1).astype(np.int64),
            }
        )

    return snapped.map_batches(unpack, batch_format="pandas")


def _sql_knn3_cell_snap() -> str:
    clat, clon = _sql_coords("c_custkey", 7, 13)
    slat, slon = _sql_coords("s_suppkey", 11, 17)
    return f"""
WITH d AS (
  SELECT c_custkey, s_suppkey,
         (({clat}) - ({slat})) * (({clat}) - ({slat}))
       + (({clon}) - ({slon})) * (({clon}) - ({slon})) AS sq
  FROM customer CROSS JOIN supplier
), r AS (
  SELECT c_custkey, s_suppkey,
         row_number() OVER (PARTITION BY c_custkey ORDER BY sq, s_suppkey) AS rn
  FROM d
)
SELECT c_custkey, CAST(rn - 1 AS BIGINT) AS rank, s_suppkey AS nn_suppkey
FROM r WHERE rn <= 3
"""


def q_haversine_km_hist(sf_dir: str):
    """G1 haversine over synthetic coords -> 100 km histogram (coarse
    integer buckets so libm 1-ulp variance cannot flip a bucket on this
    data — verified empirically)."""
    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        d = geo.haversine_m(lat, lon, 48.0, 2.0)
        vc = pd.Series((d / 100000.0).astype(np.int64)).value_counts()
        return pd.DataFrame({"bucket": vc.index.to_numpy(), "cnt": vc.to_numpy()})

    return (
        cust.map_batches(fn, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Sum("cnt", alias_name="n"))
    )


def _sql_haversine_km_hist() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    return f"""
WITH pts AS (SELECT {lat} AS lat, {lon} AS lon FROM customer),
h AS (
  SELECT sin(radians(48.0 - lat) / 2.0) * sin(radians(48.0 - lat) / 2.0)
       + sin(radians(2.0 - lon) / 2.0) * sin(radians(2.0 - lon) / 2.0)
         * cos(radians(lat)) * cos(radians(48.0)) AS a
  FROM pts
)
SELECT CAST(FLOOR(6371008.7714 * 2.0 * atan2(sqrt(a), sqrt(1.0 - a)) / 100000.0) AS BIGINT) AS bucket,
       count(*) AS n
FROM h GROUP BY bucket
"""


# ----------------------------------------------------------- aggregations


def q_q1_returnflag(sf_dir: str):
    """TPC-H Q1-style grouped aggregate with per-batch partial combine."""
    li = _t(sf_dir, "lineitem",
            columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", lambda s: int(s.astype(np.int64).sum())),
            n=("l_quantity", "size"),
        )
        g["sum_qty"] = g["sum_qty"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return g

    return (
        li.map_batches(partial, batch_format="pandas")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("sum_qty", alias_name="sum_qty"), Sum("n", alias_name="n"))
    )


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       count(*) AS n
FROM lineitem GROUP BY 1, 2
"""


def q_join_cust_nation_region(sf_dir: str):
    """Broadcast dimension join chain -> customers per region."""
    nation = _t(sf_dir, "nation").to_pandas()
    region = _t(sf_dir, "region").to_pandas()
    nmap = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    import ray

    ref = ray.put(
        BroadcastIndex(
            nmap["n_nationkey"].to_numpy(np.int64),
            {"r_name": nmap["r_name"].to_numpy(object)},
        )
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        idx = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        rn = idx.lookup(df["c_nationkey"].to_numpy(np.int64), "r_name")
        vc = pd.Series(rn).value_counts()
        return pd.DataFrame({"r_name": vc.index.to_numpy(object), "cnt": vc.to_numpy()})

    return (
        _t(sf_dir, "customer", columns=["c_nationkey"])
        .map_batches(fn, batch_format="pandas")
        .groupby("r_name")
        .aggregate(Sum("cnt", alias_name="n_cust"))
    )


SQL_JOIN_CNR = """
SELECT r_name, count(*) AS n_cust
FROM customer JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def q_events_window(sf_dir: str):
    """Tumbling 1 h event-time window per event type (streaming-shaped
    workload expressed as a grouped aggregate; ordering assumption: none
    needed for counts)."""
    ev = _t(sf_dir, "events", columns=["event_type", "ts", "user_id"])

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        wid = (us // 1000) // 3600000
        return pd.DataFrame(
            {"event_type": df["event_type"], "window_id": wid.astype(np.int64),
             "user_id": df["user_id"]}
        )

    w = ev.map_batches(windows, batch_format="pandas")
    from .joins import grouped_apply

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "window_id"], as_index=False).agg(
            n=("user_id", "size"), n_users=("user_id", "nunique")
        )
        g["n"] = g["n"].astype(np.int64)
        g["n_users"] = g["n_users"].astype(np.int64)
        return g

    # one shuffle: all rows of a (type, window) group land in one bucket
    return grouped_apply(w, ["event_type", "window_id"], agg, num_buckets=32)


SQL_EVENTS_WINDOW = """
SELECT event_type, epoch_ms(ts) // 3600000 AS window_id,
       count(*) AS n, count(DISTINCT user_id) AS n_users
FROM events GROUP BY 1, 2
"""


# ----------------------------------------------------------------- documents


def q_doc_exact_dedup(sf_dir: str):
    from . import dedup as _dedup

    docs = _t(sf_dir, "documents")
    distinct = _dedup.exact_dedup(docs)
    return pd.DataFrame(
        {"n_total": [docs.count()], "n_unique": [distinct.count()]}
    ).astype(np.int64)


SQL_DOC_EXACT_DEDUP = (
    "SELECT count(*) AS n_total, count(DISTINCT text) AS n_unique FROM documents"
)


def q_doc_token_count(sf_dir: str):
    from . import textstats

    return textstats.token_count(_t(sf_dir, "documents")).select_columns(
        ["doc_id", "n_tokens"]
    )


SQL_DOC_TOKEN_COUNT = r"""
SELECT doc_id,
       CAST(len(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS BIGINT) AS n_tokens
FROM documents
"""


def q_doc_lang_counts(sf_dir: str):
    docs = _t(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            cnt=("n_chars", "size"), chars=("n_chars", "sum")
        )
        g["cnt"] = g["cnt"].astype(np.int64)
        g["chars"] = g["chars"].astype(np.int64)
        return g

    return (
        docs.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("cnt", alias_name="n"), Sum("chars", alias_name="total_chars"))
    )


SQL_DOC_LANG_COUNTS = """
SELECT lang, count(*) AS n, CAST(sum(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


def q_doc_quality_features(sf_dir: str):
    from . import textstats

    return textstats.quality_features(_t(sf_dir, "documents")).select_columns(
        ["doc_id", "n_chars_actual", "n_upper", "n_sentenceish"]
    )


SQL_DOC_QUALITY = """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars_actual,
       CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS BIGINT) AS n_upper,
       CAST(length(regexp_replace(text, '[^.!?]', '', 'g')) AS BIGINT) AS n_sentenceish
FROM documents
"""


def q_doc_rollup_counts(sf_dir: str):
    """OLAP rollup (GROUPING SETS) in ONE shuffle: doc count + char sum
    at every granularity of (lang, source) — (lang, source), (lang, *),
    (*, source), (*, *) — by emitting all four group keys as per-batch
    pre-aggregated partials before a single (lang, source)-bucket
    merge. '*' marks the rolled-up dimension. Bit-exact vs a DuckDB
    GROUPING SETS union."""
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "source", "n_chars"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # fold data NULLs into '*' like the oracle's COALESCE does
        # (pandas groupby would silently DROP them); a literal '*'
        # value would merge with rollup rows on both sides identically
        lang = df["lang"].fillna("*").to_numpy()
        source = df["source"].fillna("*").to_numpy()
        outs = []
        for keep_lang, keep_src in ((True, True), (True, False),
                                    (False, True), (False, False)):
            g = pd.DataFrame({
                "lang": lang if keep_lang else "*",
                "source": source if keep_src else "*",
                "n_chars": df["n_chars"].to_numpy(np.int64),
            }).groupby(["lang", "source"], as_index=False).agg(
                n=("n_chars", "size"), sum_chars=("n_chars", "sum"))
            outs.append(g)
        out = pd.concat(outs, ignore_index=True)
        out["n"] = out["n"].astype(np.int64)
        out["sum_chars"] = out["sum_chars"].astype(np.int64)
        return out

    # bounded key domain (4 granularities x langs x sources — dozens of
    # rows per partial): driver-merge the per-block partials instead of
    # a 16-bucket exchange (the repo's tiny-domain rule; the shuffle
    # barrier dominated a single fused read pass)
    parts = [b for b in docs.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas", batch_size=None)]
    if not parts:
        return pd.DataFrame({
            "lang": pd.Series(dtype=object), "source": pd.Series(dtype=object),
            "n": pd.Series(dtype=np.int64),
            "sum_chars": pd.Series(dtype=np.int64)})
    g = (pd.concat(parts, ignore_index=True)
         .groupby(["lang", "source"], as_index=False)[["n", "sum_chars"]].sum())
    g["n"] = g["n"].astype(np.int64)
    g["sum_chars"] = g["sum_chars"].astype(np.int64)
    return g


SQL_DOC_ROLLUP_COUNTS = """
SELECT COALESCE(lang, '*') AS lang, COALESCE(source, '*') AS source,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY GROUPING SETS ((lang, source), (lang), (source), ())
"""


def q_doc_chunks(sf_dir: str):
    """RAG-style text chunking (textstats.chunk_text): 120-char chunks
    at stride 100 per document, one fused zero-shuffle map with the
    per-position vectorized slice kernel. Bit-exact vs a DuckDB
    range + substr oracle (empty docs yield one empty chunk on both
    sides)."""
    from . import textstats

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return textstats.chunk_text(docs, size=120, stride=100)


SQL_DOC_CHUNKS = """
WITH c AS (
  SELECT doc_id, text,
         unnest(range(0, greatest(length(text), 1), 100)) AS start
  FROM documents
)
SELECT doc_id, CAST(start // 100 AS BIGINT) AS chunk_idx,
       substr(text, CAST(start + 1 AS BIGINT), 120) AS chunk
FROM c
"""


def q_doc_repetition(sf_dir: str):
    """Per-doc duplicate-n-gram repetition signals
    (textstats.repetition_features): total + distinct bigram/trigram
    counts, the Gopher-style repetition-filter inputs. Pure int64,
    mirrored by a DuckDB list_transform/unnest n-gram oracle."""
    from . import textstats

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return textstats.repetition_features(docs)


SQL_DOC_REPETITION = r"""
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x != '') AS l
  FROM documents
), bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(l)),
                               i -> l[i] || ' ' || l[i + 1])) AS g
  FROM tok
), tg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(l) - 1),
                               i -> l[i] || ' ' || l[i + 1] || ' ' || l[i + 2])) AS g
  FROM tok
), b AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS bg_total,
         CAST(count(DISTINCT g) AS BIGINT) AS bg_distinct
  FROM bg GROUP BY doc_id
), t3 AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS tg_total,
         CAST(count(DISTINCT g) AS BIGINT) AS tg_distinct
  FROM tg GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(b.bg_total, 0) AS bg_total,
       COALESCE(b.bg_distinct, 0) AS bg_distinct,
       COALESCE(t3.tg_total, 0) AS tg_total,
       COALESCE(t3.tg_distinct, 0) AS tg_distinct
FROM documents d
LEFT JOIN b ON d.doc_id = b.doc_id
LEFT JOIN t3 ON d.doc_id = t3.doc_id
"""


def q_events_props_extract(sf_dir: str):
    """Semi-structured field extraction: pull the integer ``k`` field
    out of the JSON-ish ``events.props`` string with one vectorized
    Arrow RE2 ``extract_regex`` (measured 5x over per-row re.search),
    then roll up per event_type — n matched, sum/min/max of k. Rows
    without the field are dropped on both sides. All int64; mirrored by
    DuckDB regexp_extract."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "props"],
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        hit = pc.extract_regex(batch["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        # filter nulls IN ARROW: .to_pandas() of a null-bearing int64
        # array degrades to float64 and loses exactness above 2^53
        valid = pc.is_valid(k)
        df = pd.DataFrame({
            "event_type": pc.filter(batch["event_type"], valid).to_pandas(),
            "k": pc.filter(k, valid).to_pandas(),
        })
        df["k"] = df["k"].astype(np.int64)
        g = df.groupby("event_type", as_index=False).agg(
            n=("k", "size"), k_sum=("k", "sum"),
            k_min=("k", "min"), k_max=("k", "max"),
        )
        for c in ("n", "k_sum", "k_min", "k_max"):
            g[c] = g[c].astype(np.int64)
        return g

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("k_sum", alias_name="k_sum"),
            Min("k_min", alias_name="k_min"),
            Max("k_max", alias_name="k_max"),
        )
    )


SQL_EVENTS_PROPS_EXTRACT = r"""
WITH x AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS k
  FROM events
  WHERE regexp_matches(props, '"k": \d+')
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS k_sum,
       CAST(min(k) AS BIGINT) AS k_min,
       CAST(max(k) AS BIGINT) AS k_max
FROM x GROUP BY event_type
"""


# -------------------------------------------- rows-only (non-SQL) queries


def q_minhash_near_dup(sf_dir: str):
    from . import dedup as _dedup

    return _dedup.minhash_near_dup_groups(_t(sf_dir, "documents"), threshold=0.8)


def q_simhash_pairs(sf_dir: str):
    from . import dedup as _dedup

    return _dedup.simhash_near_dup_pairs(_t(sf_dir, "documents"), max_hamming=3)


def q_embedding_near_dup(sf_dir: str):
    """Embedding near-dup with planted duplicates: every vec_id < 40 gets
    an exact copy at id + 1_000_000 (cosine exactly 1.0), so the driver
    exercise is non-vacuous at every SF — natural random vectors yield
    ~zero pairs at threshold 0.98, which previously made this row test
    nothing.

    ORACLE-CHECKED against a DuckDB all-pairs cosine join: the output is
    the integer (id_a, id_b) pair set only (no float cosine column — the
    two engines' dot-product op orders differ in ulps, the pair SET does
    not). LSH recall is exact here by construction: planted duplicates
    are bit-identical vectors, hence identical hyperplane signatures,
    hence always co-bucketed; natural pairs top out at cosine ~0.6
    (measured at sf0.01 and sf0.1) — far from the 0.98 threshold, so no
    borderline pair can differ between the engines."""
    from . import dedup as _dedup

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        dup = df[df["vec_id"] < 40].copy()
        dup["vec_id"] = dup["vec_id"] + 1_000_000
        return pd.concat([df, dup], ignore_index=True)

    planted = _t(sf_dir, "embeddings").map_batches(plant, batch_format="pandas")
    # driver collection is the planted-pair set only (~40 rows + the
    # measured-zero natural pairs), not the corpus
    pairs = _dedup.embedding_near_dup_pairs(planted, threshold=0.98).to_pandas()
    if pairs.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                             "id_b": pd.Series(dtype=np.int64)})
    out = pairs[["id_a", "id_b"]].copy()
    out["id_a"] = out["id_a"].astype(np.int64)
    out["id_b"] = out["id_b"].astype(np.int64)
    return out


SQL_EMBEDDING_NEAR_DUP = """
WITH planted AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id, embedding FROM embeddings
  WHERE vec_id < 40
)
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM planted a JOIN planted b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.98
"""


def q_embed_topk(sf_dir: str):
    from . import similarity

    emb = _t(sf_dir, "embeddings")
    head = emb.take(3)
    queries = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in head])
    return similarity.brute_force_topk(emb, queries, k=10)


def q_embed_ivf_topk(sf_dir: str):
    """IVF ANN scale path (similarity.train_ivf_centroids + ivf_topk):
    deterministic hash-seeded k-means-lite centroids, then top-10 over
    only the nprobe=3 nearest centroid lists per query — the
    ~nprobe/n_centroids-of-a-full-scan shape a 100-TB corpus needs.
    Exactness gates live in pytest (nprobe=n_centroids is bit-equal to
    the brute path; recall bound at nprobe=3)."""
    from . import similarity

    emb = _t(sf_dir, "embeddings")
    head = emb.take(3)
    queries = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in head])
    cent = similarity.train_ivf_centroids(emb, 8, iters=2)
    return similarity.ivf_topk(emb, queries, cent, k=10, nprobe=3)


def q_embed_topk_int(sf_dir: str):
    """Oracle-exact similarity top-k: floor-quantized (2^20) integer
    inner product, ranked (score desc, vec_id asc) — every arithmetic op
    is exact in both numpy int64 and DuckDB BIGINT, so the driver hash
    matches bit-for-bit (the float-cosine variant q_embed_topk stays
    rows-only: float matmul summation order is engine-specific)."""
    from . import similarity

    emb = _t(sf_dir, "embeddings")
    qdf = (
        emb.map_batches(lambda df: df[df["vec_id"] < 3], batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
    )
    queries = np.stack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
    return similarity.quantized_topk(emb, queries, k=10, shift=20)


SQL_EMBED_TOPK_INT = """
WITH q AS (
  SELECT vec_id AS query_id,
         list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * 1048576.0) AS BIGINT)) AS qv
  FROM embeddings WHERE vec_id < 3
), v AS (
  SELECT vec_id,
         list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * 1048576.0) AS BIGINT)) AS vv
  FROM embeddings
), s AS (
  SELECT q.query_id, v.vec_id,
         CAST(list_sum(list_transform(range(1, len(qv) + 1), i -> qv[i] * vv[i])) AS BIGINT) AS score
  FROM q CROSS JOIN v
), r AS (
  SELECT query_id, vec_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) - 1 AS rank
  FROM s
)
SELECT query_id, vec_id, score, CAST(rank AS BIGINT) AS rank FROM r WHERE rank < 10
"""


def q_ngram_jaccard(sf_dir: str):
    """Exact character-8-gram Jaccard of each doc_id < 40 against a
    planted perturbed copy (first 10 chars replaced, id + 1_000_000),
    over the first 400 chars — the n-gram-Jaccard dedup verifier as its
    own oracle-checked query: distinct-gram sets and the single int/int
    division are bit-reproducible in SQL (see SQL_NGRAM_JACCARD)."""
    from . import dedup as _dedup

    docs = _t(sf_dir, "documents")

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        # the candidate list only references ids < 40 and their planted
        # copies — prune before shingling (gram sets for the other 99%
        # of the corpus would be computed and thrown away)
        df = df[df["doc_id"] < 40]
        dup = df.copy()
        dup["text"] = ["Q" * 10 + (t[10:] if isinstance(t, str) else "") for t in dup["text"]]
        dup["doc_id"] = dup["doc_id"] + 1_000_000
        return pd.concat([df, dup], ignore_index=True)

    planted = docs.map_batches(plant, batch_format="pandas")
    cand = docs.map_batches(
        lambda df: pd.DataFrame(
            {
                "id_a": df[df["doc_id"] < 40]["doc_id"].to_numpy(np.int64),
                "id_b": df[df["doc_id"] < 40]["doc_id"].to_numpy(np.int64) + 1_000_000,
            }
        ),
        batch_format="pandas",
    )
    return _dedup.ngram_jaccard_pairs(planted, cand, k=8, prefix=400)


SQL_NGRAM_JACCARD = """
WITH base AS (
  SELECT doc_id, substr(text, 1, 400) AS s FROM documents WHERE doc_id < 40
), copy AS (
  SELECT doc_id, substr('QQQQQQQQQQ' || substr(text, 11), 1, 400) AS s
  FROM documents WHERE doc_id < 40
), g AS (
  SELECT doc_id, CASE WHEN len(s) >= 8
      THEN list_distinct(list_transform(range(1, len(s) - 6), i -> substr(s, i, 8)))
      ELSE CASE WHEN len(s) > 0 THEN [s] ELSE [] END END AS grams
  FROM base
), gc AS (
  SELECT doc_id, CASE WHEN len(s) >= 8
      THEN list_distinct(list_transform(range(1, len(s) - 6), i -> substr(s, i, 8)))
      ELSE CASE WHEN len(s) > 0 THEN [s] ELSE [] END END AS grams
  FROM copy
), j AS (
  SELECT g.doc_id AS id_a, gc.doc_id + 1000000 AS id_b,
         len(list_filter(g.grams, x -> list_contains(gc.grams, x))) AS inter,
         len(g.grams) + len(gc.grams) AS total
  FROM g JOIN gc ON g.doc_id = gc.doc_id
)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       CAST(inter AS BIGINT) AS inter,
       CAST(total - inter AS BIGINT) AS uni,
       CASE WHEN total - inter = 0 THEN 1.0
            ELSE CAST(inter AS DOUBLE) / CAST(total - inter AS DOUBLE) END AS jaccard
FROM j
"""


def q_minhash_near_dup_int(sf_dir: str):
    """Integer-exact MinHash+LSH near-dup detection
    (dedup.minhash_int_pairs) — the driver-hash-checkable twin of the
    flagship minhash_near_dup operator (same promotion pattern as
    simhash_int): docs < 200 plus planted perturbed copies (first 10
    chars replaced, id + 1_000_000), 8-gram polynomial code-point
    shingles over the first 200 chars, 8 fixed affine permutations in
    4 bands of 2, exact distinct-hash Jaccard >= 1/2 verification.
    DuckDB replicates shingling, permutation mins, banding AND the
    verify with HUGEINT arithmetic, so LSH hits and misses both match
    bit-for-bit."""
    import pyarrow.dataset as pads

    from . import dedup as _dedup

    # row filter pushes down to parquet row groups: only the 200-doc
    # working set's text leaves storage (the full-table scan dominated
    # the first cut)
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=pads.field("doc_id") < 200,
    )

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] < 200]
        dup = df.copy()
        dup["text"] = ["Q" * 10 + (t[10:] if isinstance(t, str) else "")
                       for t in dup["text"]]
        dup["doc_id"] = dup["doc_id"] + 1_000_000
        return pd.concat([df, dup], ignore_index=True)

    # the 400-doc working set is barrier-dominated, not data-bound:
    # dozens of near-empty read blocks multiplied through the op's five
    # shuffle stages (12 s at sf0.1); repartition(4) + num_buckets=8
    # measured 1.6-2.6 s. The operator defaults stay sized for real
    # corpora.
    planted = docs.map_batches(plant, batch_format="pandas").repartition(4)
    return _dedup.minhash_int_pairs(
        planted, k=8, prefix=200, num_perm=8, bands=4,
        thresh_num=1, thresh_den=2, num_buckets=8,
    )


SQL_MINHASH_INT = r"""
WITH base AS (
  SELECT doc_id, substr(text, 1, 200) AS s FROM documents WHERE doc_id < 200
  UNION ALL
  SELECT doc_id + 1000000, substr('QQQQQQQQQQ' || substr(text, 11), 1, 200)
  FROM documents WHERE doc_id < 200
), cp AS (
  SELECT doc_id, list_transform(regexp_extract_all(s, '(?s).'),
         x -> CAST(unicode(x) AS HUGEINT)) AS cps
  FROM base
), g AS (
  SELECT doc_id, list_distinct(CASE WHEN len(cps) >= 8
    THEN list_transform(range(1, len(cps) - 6), i ->
         CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT), cps[i:i+7]),
              (acc, b) -> (acc * 257 + b + 1) % 2305843009213693951)
              AS BIGINT))
    ELSE CASE WHEN len(cps) > 0 THEN [
         CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT), cps),
              (acc, b) -> (acc * 257 + b + 1) % 2305843009213693951)
              AS BIGINT)]
         ELSE [] END END) AS grams
  FROM cp
), sig AS (
  SELECT doc_id, p,
         MIN(CAST((CAST(6 * p + 5 AS HUGEINT) * CAST(gh AS HUGEINT)
             + CAST(1000003 * (p + 1) AS HUGEINT))
             % 2305843009213693951 AS BIGINT)) AS m
  FROM g, UNNEST(grams) AS t(gh), UNNEST(range(0, 8)) AS r(p)
  GROUP BY 1, 2
), band AS (
  SELECT doc_id, p // 2 AS band,
         MIN(CASE WHEN p % 2 = 0 THEN m END) AS k0,
         MIN(CASE WHEN p % 2 = 1 THEN m END) AS k1
  FROM sig GROUP BY 1, 2
), cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM band a JOIN band b
    ON a.band = b.band AND a.k0 = b.k0 AND a.k1 = b.k1
   AND a.doc_id < b.doc_id
), v AS (
  SELECT id_a, id_b,
         len(list_filter(ga.grams, x -> list_contains(gb.grams, x))) AS inter,
         len(ga.grams) + len(gb.grams) AS total
  FROM cand
  JOIN g ga ON ga.doc_id = cand.id_a
  JOIN g gb ON gb.doc_id = cand.id_b
)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       CAST(inter AS BIGINT) AS inter,
       CAST(total - inter AS BIGINT) AS uni
FROM v WHERE inter * 2 >= (total - inter) * 1
"""


def q_events_gap_quantiles(sf_dir: str):
    """Per-event-type inter-arrival-gap quantiles via per-group KLL
    sketches (sketches.kll_sketch_grouped) — the latency-percentile
    dashboard query at corpus scale: gaps come from THE SAME shared
    kernel events_interarrival oracle-checks (:func:`_user_gap_rows`),
    then layout-independent grouped sketching and a p50/p90/p99
    readout from the tiny per-type sketches."""
    from . import sketches

    gap_rows = _user_gap_rows(sf_dir, num_buckets=16)
    sk = sketches.kll_sketch_grouped(
        gap_rows, "gap_us", group_cols=["event_type"], num_buckets=8
    ).to_pandas()
    out = []
    if "event_type" not in sk.columns:
        sk = pd.DataFrame({"event_type": pd.Series(dtype=object),
                           "level": pd.Series(dtype=np.int64),
                           "value": pd.Series(dtype=np.int64)})
    # (0-row to_pandas drops columns — the guard above keeps the
    # groupby from KeyError-ing on a gapless corpus)
    for etype, g in sk.groupby("event_type", sort=True):
        q = sketches.kll_quantiles(g, [50, 90, 99], qs_den=100)
        q.insert(0, "event_type", etype)
        out.append(q)
    res = pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        {"event_type": pd.Series(dtype=object),
         "q_num": pd.Series(dtype=np.int64),
         "value": pd.Series(dtype=np.int64)})
    return res.sort_values(["event_type", "q_num"], ignore_index=True)


def q_doc_bm25(sf_dir: str):
    """Integer-exact BM25 retrieval scoring (textstats.bm25_topk): the
    RAG / search ranking operator, with k1=6/5, b=3/4 as cleared
    rationals so the whole score is int64 floor arithmetic — mirrored
    division-for-division by DuckDB HUGEINT (top-20 by score desc,
    doc_id asc for deterministic ties)."""
    from . import textstats

    docs = _t(sf_dir, "documents", columns=["doc_id", "text"])
    return textstats.bm25_topk(docs, ["hash", "join", "merge"], topk=20)


SQL_DOC_BM25 = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS tok
  FROM documents
), q(term) AS (VALUES ('hash'), ('join'), ('merge')),
lens AS (
  SELECT doc_id, count(*) AS len FROM toks GROUP BY 1
), stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT count(*) FROM toks) AS total
), avgl AS (
  SELECT total // n AS avg FROM stats
), df AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM toks JOIN q ON tok = term GROUP BY 1
), tf AS (
  SELECT doc_id, tok AS term, count(*) AS tf
  FROM toks JOIN q ON tok = term GROUP BY 1, 2
), contrib AS (
  SELECT tf.doc_id,
         CAST((CAST(1048576 AS HUGEINT) * (2 * s.n - 2 * df.df + 1)
               * 22 * tf.tf * a.avg)
              // ((2 * df.df + 1)
                  * (10 * tf.tf * a.avg + 3 * a.avg + 9 * lens.len))
              AS BIGINT) AS c
  FROM tf
  JOIN df USING (term)
  JOIN lens ON lens.doc_id = tf.doc_id
  CROSS JOIN stats s CROSS JOIN avgl a
)
SELECT doc_id, CAST(sum(c) AS BIGINT) AS score
FROM contrib GROUP BY 1
ORDER BY score DESC, doc_id ASC LIMIT 20
"""


def q_price_quantiles_kll(sf_dir: str):
    """Mergeable KLL quantile sketch over l_extendedprice cents:
    decile readout from a <=k*log2(n/k)-row sketch — the streaming
    percentile operator exact quantiles can't give at 100 TB (they
    need a full sort). Runs the LAYOUT-INDEPENDENT two-stage tree
    (sketches.kll_sketch_grouped with a single group): stage-1 cells
    are keyed by value hash, never by block boundary, so the readout
    is bit-identical under any repartition/block-size change — the
    per-batch kll_sketch fast path was measured drifting when the
    rows-only rerun shrank target_max_block_size. Accuracy, merge
    associativity and below-capacity exactness are pytest-pinned."""
    from . import sketches

    li = _t(sf_dir, "lineitem", columns=["l_extendedprice"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "g": np.zeros(n, dtype=np.int64),
            "cents": np.round(
                df["l_extendedprice"].to_numpy(np.float64) * 100.0
            ).astype(np.int64),
        })

    sk = sketches.kll_sketch_grouped(
        li.map_batches(cents, batch_format="pandas"), "cents",
        group_cols=["g"],
    ).to_pandas()
    return sketches.kll_quantiles(sk[["level", "value"]], range(1, 10))


def q_doc_fingerprint(sf_dir: str):
    from . import textstats

    return textstats.fingerprint(_t(sf_dir, "documents")).select_columns(
        ["doc_id", "doc_hash", "kgram_min"]
    )


# the fingerprint is defined over Unicode code points precisely so this
# mirror exists: DuckDB folds the same Horner recurrence with a HUGEINT
# accumulator (intermediates < 2^70 < 2^127) and min()s the k-gram
# hashes over every window position; docs shorter than k fall back to
# the whole-text hash on both sides.
SQL_DOC_FINGERPRINT = """
WITH cp AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '(?s).'), x -> CAST(unicode(x) AS HUGEINT)) AS cps
  FROM documents
), dh AS (
  SELECT doc_id, cps,
         CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT), cps),
              (acc, b) -> (acc * 257 + b + 1) % 2305843009213693951) AS BIGINT) AS doc_hash
  FROM cp
), kg AS (
  SELECT doc_id,
         CAST(min(list_reduce(list_prepend(CAST(0 AS HUGEINT), cps[i:i+7]),
              (acc, b) -> (acc * 257 + b + 1) % 2305843009213693951)) AS BIGINT) AS kgram_min
  FROM dh, UNNEST(range(1, len(cps) - 6)) AS t(i)
  GROUP BY doc_id
)
SELECT dh.doc_id, dh.doc_hash, COALESCE(kg.kgram_min, dh.doc_hash) AS kgram_min
FROM dh LEFT JOIN kg ON dh.doc_id = kg.doc_id
"""


def q_lang_id_counts(sf_dir: str):
    from . import textstats

    return (
        textstats.lang_id(_t(sf_dir, "documents"))
        .groupby("lang_pred")
        .aggregate(Count(alias_name="n"))
    )


def _sql_lang_id_counts() -> str:
    """Generated from textstats.STOPWORDS so SQL and engine can never
    drift: per-language stopword hit count over lowered [a-zA-Z']+
    tokens; winner = first language in sorted order reaching the max
    (the engine's strict `score > best` scan), 'und' when all zero."""
    from .textstats import STOPWORDS, _LANGS

    scores = ", ".join(
        "len(list_filter(toks, x -> list_contains(["
        + ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang]))
        + f"], x))) AS s_{lang}"
        for lang in _LANGS
    )
    best = "greatest(" + ", ".join(f"s_{lang}" for lang in _LANGS) + ")"
    case = (
        "CASE WHEN best = 0 THEN 'und' "
        + " ".join(f"WHEN s_{lang} = best THEN '{lang}'" for lang in _LANGS)
        + " END"
    )
    return f"""
WITH t AS (
  SELECT list_transform(regexp_extract_all(text, '[a-zA-Z'']+'), x -> lower(x)) AS toks
  FROM documents
), s AS (
  SELECT {scores} FROM t
), p AS (
  SELECT {best} AS best, * FROM s
)
SELECT {case} AS lang_pred, count(*) AS n FROM p GROUP BY 1
"""


def _testdata_graph(sf_dir: str):
    """Synthetic street-like graph from testdata keys: part/supplier
    nodes with derived coords, lineitem edges."""
    li = _t(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "u": ("p" + df["l_partkey"].astype(str)).to_numpy(object),
                "v": ("s" + df["l_suppkey"].astype(str)).to_numpy(object),
            }
        )

    edges = graphops.dedup_edges(li.map_batches(to_edges, batch_format="pandas"))

    def part_nodes(df: pd.DataFrame) -> pd.DataFrame:
        k = df["p_partkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        # squeeze into a city-sized box so delta-based contraction triggers
        lat = 48.0 + lat / 18000.0
        lon = 2.0 + lon / 36000.0
        return pd.DataFrame(
            {
                "id": ("p" + df["p_partkey"].astype(str)).to_numpy(object),
                "lat_str": [repr(x) for x in lat],
                "lon_str": [repr(x) for x in lon],
                "lat": lat,
                "lon": lon,
                "seq": k,
            }
        )

    def supp_nodes(df: pd.DataFrame) -> pd.DataFrame:
        k = df["s_suppkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 11, 17)
        lat = 48.0 + lat / 18000.0
        lon = 2.0 + lon / 36000.0
        return pd.DataFrame(
            {
                "id": ("s" + df["s_suppkey"].astype(str)).to_numpy(object),
                "lat_str": [repr(x) for x in lat],
                "lon_str": [repr(x) for x in lon],
                "lat": lat,
                "lon": lon,
                "seq": k,
            }
        )

    nodes = (
        _t(sf_dir, "part", columns=["p_partkey"])
        .map_batches(part_nodes, batch_format="pandas")
        .union(
            _t(sf_dir, "supplier", columns=["s_suppkey"])
            .map_batches(supp_nodes, batch_format="pandas")
        )
    )
    return nodes.materialize(), edges.materialize()


def q_graph_simplify(sf_dir: str):
    """Full reference simplify over the testdata-derived graph; returns
    the surviving per-node degrees (deterministic)."""
    from . import components

    nodes, edges = _testdata_graph(sf_dir)
    n2, e2 = components.simplify(nodes, edges, 100.0)
    deg = graphops.node_degrees(e2.materialize()).to_pandas()
    return deg.sort_values("id").reset_index(drop=True)


def q_graph_discretize(sf_dir: str):
    """Discretize the testdata-derived graph; returns order/size plus
    interpolated-node count."""
    from . import discretize as _disc

    nodes, edges = _testdata_graph(sf_dir)
    n2, e2 = _disc.discretize(nodes, edges, 200.0)
    n2 = n2.materialize()
    e2 = e2.materialize()
    n_interp = n2.map_batches(
        lambda df: pd.DataFrame({"x": [int(df["id"].astype(str).str.contains(":").sum())]}),
        batch_format="pandas",
    ).to_pandas()["x"].sum()
    return pd.DataFrame(
        {
            "n_nodes": [n2.count()],
            "n_edges": [e2.count()],
            "n_interpolated": [int(n_interp)],
        }
    ).astype(np.int64)


def _ids(prefix: str, arr: np.ndarray, suffix: str = "") -> np.ndarray:
    s = pd.Series(arr).astype(str)
    return (prefix + s + suffix).to_numpy(object)


def _chain_ids(k: np.ndarray, i: np.ndarray) -> np.ndarray:
    s = "c" + pd.Series(k).astype(str) + "x" + pd.Series(i).astype(str)
    return s.to_numpy(object)


def _node_frame(ids: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> pd.DataFrame:
    # new coordinate strings go through geo.float_repr (the repo-wide
    # invariant: Rust shortest-round-trip form, '48' not '48.0')
    return pd.DataFrame(
        {
            "id": ids,
            "lat_str": [geo.float_repr(x) for x in lat],
            "lon_str": [geo.float_repr(x) for x in lon],
            "lat": lat,
            "lon": lon,
            "seq": np.arange(len(ids), dtype=np.int64),
        }
    )


# Anchor grid for the analytic graphs: rows of 100 anchors 0.01 deg of
# latitude apart (~1112 m, safely > delta), columns 0.015 deg of
# longitude apart. 50 m expressed as a latitude offset (distance is
# then R*dlat exactly, independent of longitude scale at the latitude).
_AG_LAT0, _AG_LON0 = 48.0, 2.0
_AG_DLAT, _AG_DLON = 0.01, 0.015
_AG_50M = 0.00045  # deg lat ~= 50.04 m, < delta=100 with wide margin


def _anchor_pos(k: np.ndarray):
    lat = _AG_LAT0 + (k % 100).astype(np.float64) * _AG_DLAT
    lon = _AG_LON0 + (k // 100).astype(np.float64) * _AG_DLON
    return lat, lon


def _analytic_sim_graph(sf_dir: str):
    """Fixture graph whose `simplify` result is predictable from part/
    supplier key arithmetic alone, making the full H1+H3+H4+H5+H6
    composition hash-checkable against a SQL mirror that CONSTRUCTS the
    expected survivors (reference main.rs:66-74 composition; the
    engine does the real graph work, any mis-simplification fails the
    driver hash).

    Per part key k in 0..P-1 (P = part row count, keys contiguous):
      - anchor a{k} on the grid, cycle edge towards a{(k+1)%P} through
        k%3 degree-2 chain interiors c{k}x{i} (H3 removes them);
      - long spur leaf t{k} (~744 m, survives H4);
      - short spur leaf s{k} at 50 m when k%5==0 (H4 removes it);
      - when k%7==3 a merge gadget near the segment midpoint: ma{k} and
        mb{k} 50 m apart (H6 contracts them into "ma{k}-mb{k}"), each
        tied long to one anchor, plus a degree-2 brace gl{k} keeping
        both out of the H3 snapshot.
    Per supplier key j: a detached 2-node component x{j}-y{j} that H1
    (largest component) must drop.
    """
    P = _t(sf_dir, "part", columns=["p_partkey"]).count()

    def gen_nodes(df: pd.DataFrame) -> pd.DataFrame:
        k = df["p_partkey"].to_numpy(np.int64)
        nxt = (k + 1) % P
        la, lo = _anchor_pos(k)
        nla, nlo = _anchor_pos(nxt)
        frames = [
            _node_frame(_ids("a", k), la, lo),
            _node_frame(_ids("t", k), la, lo + _AG_DLON * 2 / 3),
        ]
        ks = k % 5 == 0
        if ks.any():
            frames.append(_node_frame(_ids("s", k[ks]), la[ks] + _AG_50M, lo[ks]))
        kg = k % 7 == 3
        if kg.any():
            mla = (la[kg] + nla[kg]) / 2.0
            mlo = (lo[kg] + nlo[kg]) / 2.0
            frames.append(_node_frame(_ids("ma", k[kg]), mla, mlo))
            frames.append(_node_frame(_ids("mb", k[kg]), mla + _AG_50M, mlo))
            frames.append(_node_frame(_ids("gl", k[kg]), mla + _AG_50M / 2, mlo))
        m = k % 3
        rep = np.repeat(np.arange(k.size), m)
        if rep.size:
            i_idx = np.arange(rep.size) - np.concatenate(([0], np.cumsum(m)))[rep] + 1
            t = i_idx.astype(np.float64) / (m[rep] + 1).astype(np.float64)
            clat = la[rep] + t * (nla[rep] - la[rep])
            clon = lo[rep] + t * (nlo[rep] - lo[rep])
            frames.append(_node_frame(_chain_ids(k[rep], i_idx), clat, clon))
        return pd.concat(frames, ignore_index=True)

    def gen_edges(df: pd.DataFrame) -> pd.DataFrame:
        k = df["p_partkey"].to_numpy(np.int64)
        nxt = (k + 1) % P
        a_k, a_n = _ids("a", k), _ids("a", nxt)
        us = [a_k]
        vs = [_ids("t", k)]
        ks = k % 5 == 0
        if ks.any():
            us.append(a_k[ks])
            vs.append(_ids("s", k[ks]))
        kg = k % 7 == 3
        if kg.any():
            ma, mb, gl = _ids("ma", k[kg]), _ids("mb", k[kg]), _ids("gl", k[kg])
            us.extend([ma, gl, gl, a_k[kg], a_n[kg]])
            vs.extend([mb, ma, mb, ma, mb])
        m = k % 3
        rep = np.repeat(np.arange(k.size), m)
        if rep.size:
            i_idx = np.arange(rep.size) - np.concatenate(([0], np.cumsum(m)))[rep] + 1
            cur = _chain_ids(k[rep], i_idx)
            prev = _chain_ids(k[rep], i_idx - 1)
            prev[i_idx == 1] = a_k[rep][i_idx == 1]
            us.append(prev)
            vs.append(cur)
        last = a_k.copy()
        has = m > 0
        last[has] = _chain_ids(k[has], m[has])
        us.append(last)
        vs.append(a_n)
        return pd.DataFrame(
            {"u": np.concatenate(us), "v": np.concatenate(vs)}
        )

    def gen_junk_nodes(df: pd.DataFrame) -> pd.DataFrame:
        j = df["s_suppkey"].to_numpy(np.int64)
        lat = 10.0 + (j % 100).astype(np.float64) * _AG_DLAT
        lon = 2.0 + (j // 100).astype(np.float64) * _AG_DLON
        return pd.concat(
            [
                _node_frame(_ids("x", j), lat, lon),
                _node_frame(_ids("y", j), lat + 0.001, lon),
            ],
            ignore_index=True,
        )

    def gen_junk_edges(df: pd.DataFrame) -> pd.DataFrame:
        j = df["s_suppkey"].to_numpy(np.int64)
        return pd.DataFrame({"u": _ids("x", j), "v": _ids("y", j)})

    part = _t(sf_dir, "part", columns=["p_partkey"])
    supp = _t(sf_dir, "supplier", columns=["s_suppkey"])
    nodes = part.map_batches(gen_nodes, batch_format="pandas").union(
        supp.map_batches(gen_junk_nodes, batch_format="pandas")
    )
    edges = graphops.dedup_edges(
        part.map_batches(gen_edges, batch_format="pandas").union(
            supp.map_batches(gen_junk_edges, batch_format="pandas")
        )
    )
    return nodes.materialize(), edges.materialize()


def q_graph_simplify_stats(sf_dir: str):
    """Hash-checkable simplify: real H1..H6 composition over the
    analytic fixture graph; survivors and their degrees are predicted
    exactly by the SQL mirror from the same key arithmetic."""
    from . import components

    nodes, edges = _analytic_sim_graph(sf_dir)
    n2, e2 = components.simplify(nodes, edges, 100.0)
    deg = graphops.node_degrees(e2.materialize()).to_pandas()
    deg["degree"] = deg["degree"].astype(np.int64)
    return deg.sort_values("id").reset_index(drop=True)


def _sql_graph_simplify_stats() -> str:
    """Expected simplify survivors, constructed: anchors keep cycle(2)
    + long spur(1) + one edge per incident contracted gadget; long
    leaves keep degree 1; each k%7==3 gadget survives as the merged
    node "ma{k}-mb{k}" with degree 2. Chains, short spurs, braces and
    the x/y junk components must all be gone."""
    return """
WITH pc AS (SELECT count(*) AS p FROM part),
pk AS (SELECT p_partkey AS k FROM part)
SELECT id, CAST(degree AS BIGINT) AS degree FROM (
  SELECT 'a' || CAST(k AS VARCHAR) AS id,
         3 + (CASE WHEN k % 7 = 3 THEN 1 ELSE 0 END)
           + (CASE WHEN ((k + p - 1) % p) % 7 = 3 THEN 1 ELSE 0 END) AS degree
  FROM pk, pc
  UNION ALL
  SELECT 't' || CAST(k AS VARCHAR), 1 FROM pk
  UNION ALL
  SELECT 'ma' || CAST(k AS VARCHAR) || '-mb' || CAST(k AS VARCHAR), 2
  FROM pk WHERE k % 7 = 3
)
"""


def _analytic_disc_graph(sf_dir: str):
    """Fixture for hash-checkable discretize: one detached edge per
    part key k with designed length (k%6 + 0.5) * 200 m — mid-bucket,
    so trunc(len/delta) is k%6 with ~100 m of margin against the
    haversine-vs-planar placement error (~1e-9 relative)."""
    def gen_nodes(df: pd.DataFrame) -> pd.DataFrame:
        k = df["p_partkey"].to_numpy(np.int64)
        lat = _AG_LAT0 + (k % 100).astype(np.float64) * _AG_DLAT
        length = ((k % 6).astype(np.float64) + 0.5) * 200.0
        dlon = np.degrees(length / (geo.EARTH_RADIUS_M * np.cos(np.radians(lat))))
        return pd.concat(
            [
                _node_frame(_ids("u", k), lat, np.full(k.size, _AG_LON0)),
                _node_frame(_ids("v", k), lat, _AG_LON0 + dlon),
            ],
            ignore_index=True,
        )

    def gen_edges(df: pd.DataFrame) -> pd.DataFrame:
        k = df["p_partkey"].to_numpy(np.int64)
        return pd.DataFrame({"u": _ids("u", k), "v": _ids("v", k)})

    part = _t(sf_dir, "part", columns=["p_partkey"])
    nodes = part.map_batches(gen_nodes, batch_format="pandas")
    edges = graphops.dedup_edges(part.map_batches(gen_edges, batch_format="pandas"))
    return nodes.materialize(), edges.materialize()


def q_graph_discretize_stats(sf_dir: str):
    """Hash-checkable discretize: real splitting over designed-length
    edges; interpolated ids "u{k}-v{k}:{i}/{p}" (p = k%6) and all
    degrees are predicted exactly by the SQL mirror."""
    from . import discretize as _disc

    nodes, edges = _analytic_disc_graph(sf_dir)
    n2, e2 = _disc.discretize(nodes, edges, 200.0)
    deg = graphops.node_degrees(e2.materialize()).to_pandas()
    deg["degree"] = deg["degree"].astype(np.int64)
    return deg.sort_values("id").reset_index(drop=True)


def _sql_graph_discretize_stats() -> str:
    """Expected discretize output, constructed: endpoints keep degree
    1; edges with part p=k%6 >= 2 gain p-1 degree-2 interpolated nodes
    named from the min-id endpoint (reference discretize.rs:5-52)."""
    return """
WITH pk AS (SELECT p_partkey AS k, p_partkey % 6 AS p FROM part)
SELECT id, CAST(degree AS BIGINT) AS degree FROM (
  SELECT 'u' || CAST(k AS VARCHAR) AS id, 1 AS degree FROM pk
  UNION ALL
  SELECT 'v' || CAST(k AS VARCHAR), 1 FROM pk
  UNION ALL
  SELECT 'u' || CAST(k AS VARCHAR) || '-v' || CAST(k AS VARCHAR)
         || ':' || CAST(i AS VARCHAR) || '/' || CAST(p AS VARCHAR), 2
  FROM (SELECT k, p, unnest(range(1, p)) AS i FROM pk WHERE p >= 2)
)
"""


def q_knn_pages_snap(sf_dir: str):
    """The flagship: pages derived from documents kNN-snapped to the
    synthetic street graph; returns (url, u, v, rank) rows."""
    from . import pipelines

    return pipelines.flagship(sf_dir).select_columns(["url", "u", "v", "rank"])


# ------------------------------------------- round-2 breadth additions


def q_events_funnel(sf_dir: str):
    """HASH-CHECKED ordered conversion funnel (windows.funnel_counts):
    view -> click -> purchase per user, each step anchored at the min
    timestamp strictly after the previous anchor and within 7 days of
    the first — strict-> on integer microseconds keeps every anchor a
    well-defined min with no tie-break. (step, users, sum_lag_us),
    integer-exact, one user-bucket shuffle; SQL mirror is a stack of
    join-filter-min CTEs."""
    from .windows import funnel_counts

    ev = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["event_type"].isin(["view", "click", "purchase"])
        df = df[keep]
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(object),
            "us": us.to_numpy()})

    return funnel_counts(ev.map_batches(to_us, batch_format="pandas"),
                         ["view", "click", "purchase"])


SQL_EVENTS_FUNNEL = """
WITH e AS (SELECT user_id, event_type,
                  CAST(epoch_us(ts) AS BIGINT) AS us
           FROM events
           WHERE event_type IN ('view', 'click', 'purchase')),
a1 AS (SELECT user_id, MIN(us) AS a1 FROM e
       WHERE event_type = 'view' GROUP BY user_id),
a2 AS (SELECT e.user_id, MIN(e.us) AS a2
       FROM e JOIN a1 ON a1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.us > a1.a1
         AND e.us - a1.a1 <= 604800000000
       GROUP BY e.user_id),
a3 AS (SELECT e.user_id, MIN(e.us) AS a3
       FROM e JOIN a2 ON a2.user_id = e.user_id
              JOIN a1 ON a1.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.us > a2.a2
         AND e.us - a1.a1 <= 604800000000
       GROUP BY e.user_id)
SELECT CAST(1 AS BIGINT) AS step, CAST(count(*) AS BIGINT) AS users,
       CAST(0 AS BIGINT) AS sum_lag_us FROM a1
UNION ALL
SELECT 2, CAST(count(*) AS BIGINT),
       CAST(COALESCE(SUM(a2.a2 - a1.a1), 0) AS BIGINT)
FROM a2 JOIN a1 ON a1.user_id = a2.user_id
UNION ALL
SELECT 3, CAST(count(*) AS BIGINT),
       CAST(COALESCE(SUM(a3.a3 - a1.a1), 0) AS BIGINT)
FROM a3 JOIN a1 ON a1.user_id = a3.user_id
"""


def q_events_transitions(sf_dir: str):
    """HASH-CHECKED event-type Markov transition counts: per user the
    (ts, event_id)-ordered bigram of event types (the behavioral
    transition matrix training features come from). One user-bucket
    shuffle, vectorized shift-compare per bucket, per-bucket partials
    over the tiny 5x5 type domain; SQL mirror is lead() over the same
    window order."""
    from .joins import grouped_apply

    ev = _t(sf_dir, "events", columns=["user_id", "event_id", "ts",
                                       "event_type"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_id": df["event_id"].to_numpy(np.int64),
            "us": us.to_numpy(),
            "event_type": df["event_type"].to_numpy(object)})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy(np.int64)
        t = df["event_type"].to_numpy(object)
        if len(df) < 2:
            return pd.DataFrame({"a": pd.Series(dtype=object),
                                 "b": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        same = uid[1:] == uid[:-1]
        g = pd.DataFrame({"a": t[:-1][same], "b": t[1:][same],
                          "n": np.int64(1)})
        out = g.groupby(["a", "b"], as_index=False)["n"].sum()
        out["n"] = out["n"].astype(np.int64)
        return out

    parts = grouped_apply(ev.map_batches(to_us, batch_format="pandas"),
                          "user_id", bucket, num_buckets=32)
    out = parts.to_pandas()
    if not len(out):
        return pd.DataFrame({"a": pd.Series(dtype=object),
                             "b": pd.Series(dtype=object),
                             "n": pd.Series(dtype=np.int64)})
    g = out.groupby(["a", "b"], as_index=False)["n"].sum()
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values(["a", "b"], ignore_index=True)


SQL_EVENTS_TRANSITIONS = """
WITH e AS (SELECT user_id, event_id, event_type,
                  CAST(epoch_us(ts) AS BIGINT) AS us
           FROM events),
p AS (SELECT event_type AS a,
             lead(event_type) OVER
               (PARTITION BY user_id ORDER BY us, event_id) AS b
      FROM e)
SELECT a, b, CAST(count(*) AS BIGINT) AS n
FROM p WHERE b IS NOT NULL GROUP BY a, b
"""


def q_events_sessionize(sf_dir: str):
    """Streaming-window sessionization (the weblog/training-data shape of
    X4): per-user sessions split at >30 min idle gaps, one hash-bucket
    shuffle then a fully vectorized window kernel per bucket (sort +
    diff + cumsum + bincount — no per-row python). Ties on identical
    timestamps are broken by event_id, mirrored in the SQL window
    ORDER BY."""
    ev = _t(sf_dir, "events", columns=["user_id", "event_id", "ts"])
    GAP_US = 1_800_000_000  # 30 min

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64),
             "event_id": df["event_id"].to_numpy(np.int64),
             "us": us.to_numpy()}
        )

    from .joins import grouped_apply

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": np.array([], dtype=np.int64),
                 "n_sessions": np.array([], dtype=np.int64),
                 "max_session_events": np.array([], dtype=np.int64)}
            )
        df = df.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        us = df["us"].to_numpy()
        brk = np.empty(len(df), dtype=bool)
        brk[0] = True
        brk[1:] = (uid[1:] != uid[:-1]) | ((us[1:] - us[:-1]) > GAP_US)
        sid = np.cumsum(brk)  # 1-based session id across the bucket
        sess_len = np.bincount(sid)[1:]
        sess_user = uid[brk]
        s = pd.DataFrame({"user_id": sess_user, "n": sess_len})
        g = s.groupby("user_id", as_index=False).agg(
            n_sessions=("n", "size"), max_session_events=("n", "max")
        )
        g["n_sessions"] = g["n_sessions"].astype(np.int64)
        g["max_session_events"] = g["max_session_events"].astype(np.int64)
        return g

    return grouped_apply(
        ev.map_batches(to_us, batch_format="pandas"), "user_id", sessions,
        num_buckets=32,
    )


#: epoch microseconds of 2024-01-01 — the fixed rebase origin. Must be
#: <= min(ts) so x stays NON-NEGATIVE: numpy // floors while DuckDB //
#: truncates, and they only agree for non-negative operands. Also keeps
#: the sum-of-squares far under int64 at bench scale.
_TREND_EPOCH_US = 1_704_067_200_000_000
_TREND_MIN_US = 60_000_000


def q_events_trend_state(sf_dir: str):
    """Per-event-type linear-trend SUFFICIENT STATISTICS, all int64 —
    the register-table trick applied to regression: emit (n, sx, sy,
    sxx, sxy) over x = minutes since 2024-01-01 and y = the extracted
    integer props field, so the OLS slope num/den ((n*sxy - sx*sy) /
    (n*sxx - sx^2)) derives exactly downstream while the distributed
    output stays bit-exact and mergeable (pure sums). One fused
    extraction pass + pre-aggregated partials. Overflow-safe: x <= ~5e5
    minutes, so sxx sums stay < 2^63 at bench scale."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "ts", "props"],
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        hit = pc.extract_regex(batch["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        valid = pc.is_valid(k)
        et = pc.filter(batch["event_type"], valid).to_pandas()
        y = pc.filter(k, valid).to_pandas().to_numpy(np.int64)
        us = pd.to_datetime(
            pc.filter(batch["ts"], valid).to_pandas()
        ).astype("datetime64[us]").astype("int64").to_numpy()
        x = (us - _TREND_EPOCH_US) // _TREND_MIN_US
        d = pd.DataFrame({"event_type": et, "n": np.int64(1), "sx": x,
                          "sy": y, "sxx": x * x, "sxy": x * y})
        g = d.groupby("event_type", as_index=False).sum()
        for c in ("n", "sx", "sy", "sxx", "sxy"):
            g[c] = g[c].astype(np.int64)
        return g

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("sxy", alias_name="sxy"),
        )
    )


SQL_EVENTS_TREND_STATE = r"""
WITH x AS (
  SELECT event_type,
         (epoch_us(ts) - 1704067200000000) // 60000000 AS x,
         CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS y
  FROM events
  WHERE regexp_matches(props, '"k": \d+')
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
       CAST(sum(x * x) AS BIGINT) AS sxx,
       CAST(sum(x * y) AS BIGINT) AS sxy
FROM x GROUP BY event_type
"""


def q_events_funnel_pairs(sf_dir: str):
    """Funnel matrix over event types: for every ordered pair
    (first_type, then_type), how many users have their EARLIEST
    first_type event strictly before their LATEST then_type event —
    i.e. the user did `a` then later `b` at least once. Scale shape:
    per-user (type, min_ts, max_ts) is a semigroup, so each batch
    pre-aggregates before ONE user-bucket shuffle; the per-user pair
    explode is bounded by n_types^2; the final rollup merges <= 20 rows
    per bucket on the driver. Timestamps compared as int64 microseconds
    (exact)."""
    ev = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        d = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(),
            "us": us.to_numpy(),
        })
        g = d.groupby(["user_id", "event_type"], as_index=False).agg(
            mn=("us", "min"), mx=("us", "max")
        )
        return g

    from .joins import grouped_apply

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).agg(
            mn=("mn", "min"), mx=("mx", "max")
        )
        m = g.merge(g, on="user_id", suffixes=("_a", "_b"))
        m = m[(m["event_type_a"] != m["event_type_b"]) & (m["mn_a"] < m["mx_b"])]
        out = m.groupby(["event_type_a", "event_type_b"], as_index=False).size()
        out = out.rename(columns={
            "event_type_a": "first_type", "event_type_b": "then_type",
            "size": "n_users",
        })
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    per_bucket = grouped_apply(
        ev.map_batches(partial, batch_format="pandas"), "user_id", pair_counts
    )
    pieces = [
        b for b in per_bucket.iter_batches(batch_format="pandas", batch_size=None)
    ]
    if not pieces:
        return pd.DataFrame({"first_type": pd.Series(dtype=object),
                             "then_type": pd.Series(dtype=object),
                             "n_users": pd.Series(dtype=np.int64)})
    merged = pd.concat(pieces, ignore_index=True).groupby(
        ["first_type", "then_type"], as_index=False
    )["n_users"].sum()
    merged["n_users"] = merged["n_users"].astype(np.int64)
    return merged


SQL_EVENTS_FUNNEL_PAIRS = """
WITH ut AS (
  SELECT user_id, event_type, min(ts) AS mn, max(ts) AS mx
  FROM events GROUP BY user_id, event_type
)
SELECT a.event_type AS first_type, b.event_type AS then_type,
       CAST(count(*) AS BIGINT) AS n_users
FROM ut a JOIN ut b ON a.user_id = b.user_id
WHERE a.event_type != b.event_type AND a.mn < b.mx
GROUP BY first_type, then_type
"""


def _user_gap_rows(sf_dir: str, *, num_buckets: int = 64):
    """Shared gap kernel: (event_type, gap_us) rows — the gap from each
    user's previous event (any type), attributed to the later event's
    type, via one user-bucket shuffle with a vectorized diff over the
    (us, event_id)-sorted slice. SINGLE implementation on purpose:
    events_interarrival oracle-checks these exact gaps against a SQL
    lag window, and events_gap_quantiles' no_oracle justification
    leans on feeding the same kernel."""
    ev = _t(sf_dir, "events",
            columns=["user_id", "event_id", "ts", "event_type"])

    from .joins import grouped_apply

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype(
            "int64").to_numpy()
        df = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_id": df["event_id"].to_numpy(np.int64),
            "us": us,
            "event_type": df["event_type"].to_numpy(),
        }).sort_values(["user_id", "us", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy(np.int64)
        t = df["us"].to_numpy(np.int64)
        same = np.zeros(len(df), dtype=bool)
        same[1:] = uid[1:] == uid[:-1]
        gap = np.empty(len(df), dtype=np.int64)
        gap[1:] = t[1:] - t[:-1]
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy()[same],
            "gap_us": gap[same],
        })

    return grouped_apply(ev, "user_id", gaps, num_buckets=num_buckets)


def q_events_interarrival(sf_dir: str):
    """Inter-arrival-time histogram per event type (shared gap kernel
    :func:`_user_gap_rows`), bucketed into capped whole minutes —
    (event_type, gap_min, n) all integer. The SQL mirror is a lag
    window with the identical (ts, event_id) order and the same
    min(gap // 60e6, 120) cap."""

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "gap_min": np.minimum(
                df["gap_us"].to_numpy(np.int64) // 60_000_000, 120),
        }).groupby(["event_type", "gap_min"], as_index=False).size()
        out = out.rename(columns={"size": "n"})
        out["n"] = out["n"].astype(np.int64)
        return out

    per_bucket = _user_gap_rows(sf_dir).map_batches(
        bucketize, batch_format="pandas")
    pieces = [
        b for b in per_bucket.iter_batches(batch_format="pandas",
                                           batch_size=None)
    ]
    if not pieces:
        return pd.DataFrame({"event_type": pd.Series(dtype=object),
                             "gap_min": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64)})
    merged = (pd.concat(pieces, ignore_index=True)
              .groupby(["event_type", "gap_min"], as_index=False)["n"].sum())
    merged["n"] = merged["n"].astype(np.int64)
    return merged


SQL_EVENTS_INTERARRIVAL = """
WITH l AS (
  SELECT event_type,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS gap
  FROM events
)
SELECT event_type, CAST(least(gap // 60000000, 120) AS BIGINT) AS gap_min,
       CAST(count(*) AS BIGINT) AS n
FROM l WHERE gap IS NOT NULL
GROUP BY event_type, gap_min
"""


def q_events_top_paths(sf_dir: str):
    """Clickstream path analysis: each user's full event-type sequence
    in (ts, event_id) order joined with '>' is their *path*; return the
    10 most common paths (n DESC, path ASC — a deterministic total
    order). One user-bucket shuffle builds paths vectorized (sort +
    per-user join), path counts pre-aggregate per bucket, tiny driver
    top-k merge. Mirrored by DuckDB string_agg with the same window
    order."""
    ev = _t(sf_dir, "events",
            columns=["user_id", "event_id", "ts", "event_type"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_id": df["event_id"].to_numpy(np.int64),
            "us": us.to_numpy(),
            "event_type": df["event_type"].to_numpy(),
        })

    from .joins import grouped_apply

    def paths(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        g = df.groupby("user_id")["event_type"].agg(">".join)
        out = (g.to_frame("path").groupby("path", as_index=False).size()
               .rename(columns={"size": "n"}))
        out["n"] = out["n"].astype(np.int64)
        return out

    per_bucket = grouped_apply(
        ev.map_batches(to_us, batch_format="pandas"), "user_id", paths
    )

    def path_topk(df: pd.DataFrame) -> pd.DataFrame:
        # global counts for this path bucket, then a bucket-local head:
        # the global top-10 is a subset of the per-bucket top-10s, so
        # the driver merge is bounded by 10 x num_buckets rows — never
        # the (near-unique-per-user) distinct path set
        g = df.groupby("path", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g.sort_values(["n", "path"], ascending=[False, True]).head(10)

    heads = grouped_apply(per_bucket, "path", path_topk, num_buckets=16)
    pieces = [
        b for b in heads.iter_batches(batch_format="pandas", batch_size=None)
    ]
    if not pieces:
        return pd.DataFrame({"path": pd.Series(dtype=object),
                             "n": pd.Series(dtype=np.int64)})
    return (pd.concat(pieces, ignore_index=True)
            .sort_values(["n", "path"], ascending=[False, True],
                         ignore_index=True).head(10))


SQL_EVENTS_TOP_PATHS = """
WITH p AS (
  SELECT user_id,
         string_agg(event_type, '>' ORDER BY ts, event_id) AS path
  FROM events GROUP BY user_id
)
SELECT path, CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY path
ORDER BY n DESC, path ASC
LIMIT 10
"""


SQL_EVENTS_SESSIONIZE = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us FROM events
), l AS (
  SELECT user_id, us, event_id,
         lag(us) OVER (PARTITION BY user_id ORDER BY us, event_id) AS prev
  FROM e
), b AS (
  SELECT user_id, us, event_id,
         CASE WHEN prev IS NULL OR us - prev > 1800000000 THEN 1 ELSE 0 END AS brk
  FROM l
), s AS (
  SELECT user_id,
         sum(brk) OVER (PARTITION BY user_id ORDER BY us, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM b
), c AS (
  SELECT user_id, sid, count(*) AS n FROM s GROUP BY user_id, sid
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(max(n) AS BIGINT) AS max_session_events
FROM c GROUP BY user_id
"""


def q_customers_no_orders(sf_dir: str):
    """J5 as a first-class query: broadcast ANTI-join (the resume
    skip-list shape) — customers with no order, counted per nation.
    The distinct order-key side is built distributed (per-batch unique +
    grouped distinct), shipped once via ray.put, and probed per batch
    with searchsorted. Partitioning assumption: the DISTINCT key set
    fits a worker heap (at 100 TB use the bucketed hash_join anti
    variant per key range). The order side is filtered to
    o_totalprice > 300000 (a reader-pushed row filter) so the anti set
    is non-empty at every SF — unfiltered, every customer has an order
    and the row would be vacuous."""
    from . import joins

    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    idx_ref = joins.put_index(
        orders.map_batches(
            lambda df: pd.DataFrame(
                {"k": np.unique(
                    df.loc[df["o_totalprice"].to_numpy() > 300000.0, "o_custkey"]
                    .to_numpy(np.int64)
                )}
            ),
            batch_format="pandas",
        ),
        "k",
        [],
    )

    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def anti_partial(df: pd.DataFrame) -> pd.DataFrame:
        from .pages import _fetch_cached

        idx = _fetch_cached(idx_ref)
        keep = ~idx.contains(df["c_custkey"].to_numpy(np.int64))
        g = (
            df.loc[keep]
            .groupby("c_nationkey", as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pd.DataFrame(
            {"c_nationkey": g["c_nationkey"].to_numpy(np.int64),
             "n": g["n"].to_numpy(np.int64)}
        )

    return (
        cust.map_batches(anti_partial, batch_format="pandas")
        .groupby("c_nationkey")
        .aggregate(Sum("n", alias_name="n"))
    )


SQL_CUSTOMERS_NO_ORDERS = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, count(*) AS n
FROM customer
WHERE NOT EXISTS (
  SELECT 1 FROM orders
  WHERE o_custkey = c_custkey AND o_totalprice > 300000.0
)
GROUP BY 1
"""


def q_vocab_topk(sf_dir: str):
    """Global vocabulary top-k (the vocab-building sweep of a training
    corpus): per-batch partial token counts (vectorized split + explode
    + value_counts), hash-bucket combine, then a top-20 by
    (count DESC, token ASC). The pre-aggregation means the shuffle
    carries one row per (batch, distinct-token), never one per token
    occurrence."""
    docs = _t(sf_dir, "documents", columns=["text"])

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame(
            {"token": vc.index.to_numpy(object), "n": vc.to_numpy(np.int64)}
        )

    from .joins import grouped_apply

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    agg = grouped_apply(
        docs.map_batches(partial_counts, batch_format="pandas"), "token", combine
    )
    return agg.sort(["n", "token"], descending=[True, False]).limit(20)


SQL_VOCAB_TOPK = r"""
SELECT t AS token, count(*) AS n
FROM (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS t
  FROM documents
)
GROUP BY t
ORDER BY n DESC, token ASC
LIMIT 20
"""


def q_edge_midpoint(sf_dir: str):
    """G2/G3 over synthetic supplier-key edges: planar midpoint
    ((a+b)/2) and quarter-point lerp (a + 0.25*(b-a)) — pure IEEE
    +,-,*,/ in the exact op order of geo.midpoint/geo.lerp
    (src/geo.rs:19-31), so the float outputs hash-match the SQL mirror
    bit-for-bit."""
    sup = _t(sf_dir, "supplier", columns=["s_suppkey"])

    def mid(df: pd.DataFrame) -> pd.DataFrame:
        k = df["s_suppkey"].to_numpy(np.int64)
        lat1, lon1 = _coords_from_key(k, 7, 13)
        lat2, lon2 = _coords_from_key(k, 11, 17)
        mlat, mlon = geo.midpoint(lat1, lon1, lat2, lon2)
        qlat, qlon = geo.lerp(lat1, lon1, lat2, lon2, 0.25)
        return pd.DataFrame(
            {"s_suppkey": k, "mid_lat": mlat, "mid_lon": mlon,
             "q_lat": qlat, "q_lon": qlon}
        )

    return sup.map_batches(mid, batch_format="pandas")


def _sql_edge_midpoint() -> str:
    lat1, lon1 = _sql_coords("s_suppkey", 7, 13)
    lat2, lon2 = _sql_coords("s_suppkey", 11, 17)
    return f"""
SELECT s_suppkey,
       (({lat1}) + ({lat2})) / 2.0 AS mid_lat,
       (({lon1}) + ({lon2})) / 2.0 AS mid_lon,
       ({lat1}) + 0.25 * (({lat2}) - ({lat1})) AS q_lat,
       ({lon1}) + 0.25 * (({lon2}) - ({lon1})) AS q_lon
FROM supplier
"""


def q_doc_len_deciles(sf_dir: str):
    """Exact distributed percentiles (quantile_disc semantics) of the
    document length distribution: per-batch value histograms combine to
    one tiny (value, count) table — the full sort a naive percentile
    needs never happens; the driver cumsums ~thousands of rows. Index
    convention: element at ceil(q*n)-1 of the sorted multiset, which is
    DuckDB's quantile_disc."""
    docs = _t(sf_dir, "documents", columns=["n_chars"])

    def partial_hist(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["n_chars"].value_counts()
        return pd.DataFrame(
            {"v": vc.index.to_numpy(np.int64), "cnt": vc.to_numpy(np.int64)}
        )

    hist = (
        docs.map_batches(partial_hist, batch_format="pandas")
        .groupby("v")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort("v")
        .to_pandas()
    )
    vals = hist["v"].to_numpy(np.int64)
    cum = hist["cnt"].to_numpy(np.int64).cumsum()
    n = int(cum[-1]) if len(cum) else 0
    out = {}
    for k in range(1, 10):
        idx = int(np.ceil(np.float64(k) / 10.0 * n)) - 1
        pos = int(np.searchsorted(cum, idx + 1))
        out[f"p{k}0"] = np.array([vals[pos]], dtype=np.int64)
    return pd.DataFrame(out)


SQL_DOC_LEN_DECILES = """
SELECT
  CAST(quantile_disc(n_chars, 0.1) AS BIGINT) AS p10,
  CAST(quantile_disc(n_chars, 0.2) AS BIGINT) AS p20,
  CAST(quantile_disc(n_chars, 0.3) AS BIGINT) AS p30,
  CAST(quantile_disc(n_chars, 0.4) AS BIGINT) AS p40,
  CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
  CAST(quantile_disc(n_chars, 0.6) AS BIGINT) AS p60,
  CAST(quantile_disc(n_chars, 0.7) AS BIGINT) AS p70,
  CAST(quantile_disc(n_chars, 0.8) AS BIGINT) AS p80,
  CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90
FROM documents
"""


def q_events_asof_join(sf_dir: str):
    """As-of join (joins.asof_join): each purchase event picks the most
    recent click at-or-before it by the same user — the event-stream
    attribution join. Right side is deduplicated to max event_id per
    (user_id, us) so the as-of winner is unique; all outputs are int64,
    mirrored exactly by DuckDB's native ASOF JOIN.

    Plan shape (was 2 reads + 2 shuffles; now 1 read + 1 shuffle): ONE
    fused vectorized read projects both event types (a per-row
    `filter(lambda ...)` here measured 36 s at sf0.1 vs ~3 s fused) and
    materializes the compact int projection once for both sides; the
    right-side (user_id, us) dedup runs INSIDE the as-of co-partition
    tasks (asof_join right_prep) instead of as its own shuffle on the
    very key the join re-shuffles."""
    from .joins import asof_join

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        t = df["event_type"].to_numpy(object)
        keep = (t == "purchase") | (t == "click")
        df = df[keep]
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy(np.int64),
             "user_id": df["user_id"].to_numpy(np.int64),
             "us": us.to_numpy(),
             "is_p": (t[keep] == "purchase")}
        )

    ev = _t(
        sf_dir, "events",
        columns=["event_id", "user_id", "ts", "event_type"],
    ).map_batches(proj, batch_format="pandas").materialize()

    left = ev.map_batches(
        lambda df: df[df["is_p"].to_numpy()][["event_id", "user_id", "us"]],
        batch_format="pandas")
    right = ev.map_batches(
        lambda df: df[~df["is_p"].to_numpy()][["event_id", "user_id", "us"]]
        .rename(columns={"event_id": "r_event_id"}),
        batch_format="pandas")

    def dedup_right(rf: pd.DataFrame) -> pd.DataFrame:
        g = rf.groupby(["user_id", "us"], as_index=False).agg(
            r_event_id=("r_event_id", "max")
        )
        g["r_event_id"] = g["r_event_id"].astype(np.int64)
        return g

    out = asof_join(left, right, on="us", by="user_id", how="inner",
                    right_prep=dedup_right)

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy(np.int64),
             "user_id": df["user_id"].to_numpy(np.int64),
             "us": df["us"].to_numpy(np.int64),
             "r_event_id": df["r_event_id"].to_numpy(np.int64)}
        )

    return out.map_batches(cast, batch_format="pandas")


def q_simhash_int(sf_dir: str):
    """Oracle-exact SimHash core (the integer mirror of dedup.simhash,
    same pattern as embed_topk vs embed_topk_int): 32-bit signature per
    document with whitespace tokens hashed by the polynomial
    codepoint hash (mod 2^61-1) and per-bit +1/-1 occurrence voting
    (bit set iff the vote sum is > 0). Fully vectorized per batch (one
    token-hash pass + one np.add.at vote reduction), zero shuffle;
    mirrored token-for-token by DuckDB list_reduce + bit arithmetic."""
    from .textstats import _fingerprints_batch

    docs = _t(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        s = df["text"].str.split().explode().dropna()
        tok_doc = s.index.to_numpy(np.int64)
        h, _ = _fingerprints_batch(list(s.to_numpy(object)), k=8)
        js = np.arange(32, dtype=np.int64)
        bits = ((h[:, None].astype(np.int64) >> js) & 1) * 2 - 1
        acc = np.zeros((len(df), 32), dtype=np.int64)
        np.add.at(acc, tok_doc, bits)
        sig = ((acc > 0).astype(np.int64) << js).sum(axis=1)
        has = np.zeros(len(df), dtype=bool)
        has[tok_doc] = True
        return pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(np.int64)[has], "sig": sig[has]}
        )

    return docs.map_batches(fn, batch_format="pandas")


SQL_SIMHASH_INT = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS tok
  FROM documents
), h AS (
  SELECT doc_id,
         CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT),
              list_transform(regexp_extract_all(tok, '(?s).'),
                             x -> CAST(unicode(x) AS HUGEINT))),
              (acc, b) -> (acc * 257 + b + 1) % 2305843009213693951)
           AS BIGINT) AS hv
  FROM toks
), votes AS (
  SELECT doc_id, j,
         SUM(CASE WHEN (hv >> CAST(j AS INTEGER)) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM h CROSS JOIN UNNEST(range(0, 32)) AS r(j)
  GROUP BY 1, 2
)
SELECT doc_id,
       CAST(SUM(CASE WHEN s > 0
                     THEN CAST(1 AS BIGINT) << CAST(j AS INTEGER)
                     ELSE 0 END) AS BIGINT) AS sig
FROM votes GROUP BY 1
"""


def q_events_hopping_window(sf_dir: str):
    """Sliding-window aggregate (windows.hopping_window): 1 h windows
    hopping every 30 min per event type — each event explodes to its 2
    covering windows, partial-aggregates per batch and exact-merges per
    (type, window). Mirrored by a SQL offsets cross join."""
    from .windows import hopping_window

    ev = _t(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy(np.int64),
             "event_type": df["event_type"].to_numpy(object),
             "us": us.to_numpy()}
        )

    out = hopping_window(
        ev.map_batches(to_us, batch_format="pandas"),
        ts_col="us", size_us=3_600_000_000, hop_us=1_800_000_000,
        keys=["event_type"],
        aggs={"n": ("count", None), "max_event": ("max", "event_id")},
    )

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": df["event_type"].to_numpy(object),
             "window_id": df["window_id"].to_numpy(np.int64),
             "n": df["n"].to_numpy(np.int64),
             "max_event": df["max_event"].to_numpy(np.int64)}
        )

    return out.map_batches(cast, batch_format="pandas")


SQL_EVENTS_HOPPING_WINDOW = """
SELECT event_type,
       epoch_us(ts) // 1800000000 - j.o AS window_id,
       count(*) AS n, max(event_id) AS max_event
FROM events CROSS JOIN (VALUES (0), (1)) AS j(o)
GROUP BY 1, 2
"""


def q_range_join(sf_dir: str):
    """Interval containment join (joins.range_join): each part key
    against synthetic supplier intervals [s_suppkey*13 % 2000, +37] —
    the 1-D bucket-discretized non-equi join, mirrored by a plain SQL
    BETWEEN join. Integer keys only; float bucket math never leaves
    the engine."""
    from .joins import range_join

    parts = _t(sf_dir, "part", columns=["p_partkey"])

    def to_int(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"p_partkey": df["p_partkey"].to_numpy(np.int64)})

    supp = _t(sf_dir, "supplier", columns=["s_suppkey"])

    def mk_iv(df: pd.DataFrame) -> pd.DataFrame:
        k = df["s_suppkey"].to_numpy(np.int64)
        lo = k * 13 % 2000
        return pd.DataFrame({"s_suppkey": k, "lo": lo, "hi": lo + 37})

    out = range_join(
        parts.map_batches(to_int, batch_format="pandas"),
        supp.map_batches(mk_iv, batch_format="pandas"),
        value="p_partkey", lo="lo", hi="hi", bucket_width=64.0,
    )

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"p_partkey": df["p_partkey"].to_numpy(np.int64),
             "s_suppkey": df["s_suppkey"].to_numpy(np.int64)}
        )

    return out.map_batches(cast, batch_format="pandas")


SQL_RANGE_JOIN = """
WITH iv AS (
  SELECT s_suppkey, s_suppkey * 13 % 2000 AS lo,
         s_suppkey * 13 % 2000 + 37 AS hi
  FROM supplier
)
SELECT p.p_partkey, iv.s_suppkey
FROM part p JOIN iv ON p.p_partkey BETWEEN iv.lo AND iv.hi
"""


def _demo_polygons() -> dict[int, list[tuple[float, float]]]:
    """Seeded star-convex polygons for the point-in-polygon oracle
    queries. Generated ONCE per call in the driver process and embedded
    verbatim in both the Ray broadcast index and (via repr round-trip)
    the DuckDB edge VALUES, so libm variance in sin/cos cannot split
    the two sides."""
    rng = np.random.RandomState(451)
    polys: dict[int, list[tuple[float, float]]] = {}
    for pid in range(8):
        cx = float(rng.uniform(-140.0, 140.0))
        cy = float(rng.uniform(-55.0, 55.0))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.randint(4, 9))))
        r = rng.uniform(8.0, 35.0, len(ang))
        polys[pid] = [
            (float(cy + r[i] * np.sin(a)), float(cx + r[i] * np.cos(a)))
            for i, a in enumerate(ang)
        ]
    return polys


def _cust_points(sf_dir: str):
    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"c_custkey": k, "lat": lat, "lon": lon})

    return cust.map_batches(fn, batch_format="pandas")


def q_point_in_polygon(sf_dir: str):
    """Point-in-polygon inner join (polygons.point_in_polygon_join):
    each synthetic customer point against 8 seeded polygons, broadcast
    index + cell prefilter, exact even-odd crossing kernel mirrored
    op-for-op by the SQL crossing-number oracle."""
    from .polygons import point_in_polygon_join

    pairs = point_in_polygon_join(
        _cust_points(sf_dir), _demo_polygons(),
        keep_cols=["c_custkey"], out_col="poly_id",
    )

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_custkey": df["c_custkey"].to_numpy(np.int64),
             "poly_id": df["poly_id"].to_numpy(np.int64)}
        )

    return pairs.map_batches(cast, batch_format="pandas")


def _sql_pip_pairs() -> str:
    from .polygons import oracle_sql_pip_edges

    lat, lon = _sql_coords("c_custkey", 7, 13)
    edges = oracle_sql_pip_edges(_demo_polygons())
    return f"""
WITH p AS (SELECT c_custkey, {lat} AS lat, {lon} AS lon FROM customer)
SELECT p.c_custkey, e.pid AS poly_id
FROM p CROSS JOIN {edges}
WHERE (e.y1 > p.lat) != (e.y2 > p.lat)
  AND p.lon < (e.x2 - e.x1) * (p.lat - e.y1) / (e.y2 - e.y1) + e.x1
GROUP BY 1, 2
HAVING count(*) % 2 = 1
"""


def q_pip_zonal(sf_dir: str):
    """Zonal statistics (polygons.zonal_stats): per-polygon point count
    + int64 key sum — the vector<-raster aggregate; per-batch partial
    rows keep the shuffle at |polygons| x n_blocks."""
    from .polygons import zonal_stats

    out = zonal_stats(
        _cust_points(sf_dir), _demo_polygons(), value_col="c_custkey"
    )
    return out.rename(columns={"sum_value": "sum_key"})


def _sql_pip_zonal() -> str:
    return (
        # CAST: DuckDB sum(BIGINT) yields HUGEINT which pandas degrades to
        # float64 — the driver's value hash is dtype-sensitive (r02 FAIL).
        "SELECT poly_id, count(*) AS n_points, "
        "CAST(sum(c_custkey) AS BIGINT) AS sum_key "
        f"FROM ({_sql_pip_pairs()}) GROUP BY 1"
    )


def q_raster_polygonize(sf_dir: str):
    """Raster->vector (polygons.polygonize_raster): rasterize customer
    points to res-6 cell counts (distributed groupby), threshold, then
    group 4-connected active cells into min-cell-id regions. The driver
    reduction is over the RASTER (bounded by 4^res), never the points;
    the SQL mirror is a recursive min-label-propagation CTE."""
    from .polygons import polygonize_raster

    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        return pd.DataFrame({"cell": cells.cell_of(lat, lon, RES_JOIN)})

    counts = (
        cust.map_batches(fn, batch_format="pandas")
        .groupby("cell")
        .aggregate(Count(alias_name="n"))
    )
    out = polygonize_raster(counts, threshold=3)
    return pd.DataFrame(
        {"cell": out["cell"].to_numpy(np.int64),
         "region": out["region"].to_numpy(np.int64)}
    )


def q_polygon_rasterize(sf_dir: str):
    """Vector->raster (polygons.rasterize_polygons): every res-6 cell
    whose center lies inside one of the demo polygons, as (cell,
    poly_id) rows — the inverse of raster_polygonize, closing the
    raster<->vector loop. Candidates from bbox covers, exact test via
    the broadcast crossing-number kernel; the SQL mirror generates the
    full 64x64 grid, computes centers with the identical IEEE op order
    as cells.cell_center, and applies the same edge predicate.
    (sf_dir unused: the polygon set is the seeded broadcast side.)"""
    from .polygons import rasterize_polygons

    out = rasterize_polygons(_demo_polygons(), RES_JOIN)

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "cell": df["cell"].to_numpy(np.int64),
            "poly_id": df["poly_id"].to_numpy(np.int64),
        })

    return out.map_batches(cast, batch_format="pandas")


def _sql_polygon_rasterize() -> str:
    from .polygons import oracle_sql_pip_edges

    edges = oracle_sql_pip_edges(_demo_polygons())
    n = 1 << RES_JOIN
    return f"""
WITH g AS (
  SELECT gx.range AS ix, gy.range AS iy
  FROM range(0, {n}) gx CROSS JOIN range(0, {n}) gy
), ctr AS (
  SELECT ({RES_JOIN} * {1 << 58} + ix * {1 << 29} + iy) AS cell,
         (CAST(iy AS DOUBLE) + 0.5) / {float(n)} * 180.0 - 90.0 AS lat,
         (CAST(ix AS DOUBLE) + 0.5) / {float(n)} * 360.0 - 180.0 AS lon
  FROM g
)
SELECT ctr.cell, e.pid AS poly_id
FROM ctr CROSS JOIN {edges}
WHERE (e.y1 > ctr.lat) != (e.y2 > ctr.lat)
  AND ctr.lon < (e.x2 - e.x1) * (ctr.lat - e.y1) / (e.y2 - e.y1) + e.x1
GROUP BY 1, 2
HAVING count(*) % 2 = 1
"""


def q_segments_crossing(sf_dir: str):
    """Segment x polygon-boundary intersection join
    (polygons.segment_crossing_join): synthetic supplier segments (two
    key-derived endpoints each) against the demo polygon boundaries —
    (seg_id, poly_id, n_crossings) for every proper crossing pair.
    Sign-of-product orientation tests in identical IEEE order both
    sides; bit-exact vs a DuckDB cross-join oracle."""
    from .polygons import segment_crossing_join

    sup = _t(sf_dir, "supplier", columns=["s_suppkey"])

    def seg(df: pd.DataFrame) -> pd.DataFrame:
        k = df["s_suppkey"].to_numpy(np.int64)
        ay, ax = _coords_from_key(k, 3, 5)
        by, bx = _coords_from_key(k, 11, 17)
        return pd.DataFrame({"seg_id": k, "ax": ax, "ay": ay,
                             "bx": bx, "by": by})

    return segment_crossing_join(
        sup.map_batches(seg, batch_format="pandas"), _demo_polygons()
    )


def _sql_segments_crossing() -> str:
    polys = _demo_polygons()
    rows = []
    for pid in sorted(polys):
        ring = polys[pid]
        for i in range(len(ring)):
            (la, lo), (nla, nlo) = ring[i], ring[(i + 1) % len(ring)]
            rows.append(
                f"({pid}, CAST('{lo!r}' AS DOUBLE), CAST('{la!r}' AS DOUBLE),"
                f" CAST('{nlo!r}' AS DOUBLE), CAST('{nla!r}' AS DOUBLE))"
            )
    edges = "(VALUES " + ", ".join(rows) + ") AS e(pid, x1, y1, x2, y2)"
    ay, ax = _sql_coords("s_suppkey", 3, 5)
    by, bx = _sql_coords("s_suppkey", 11, 17)
    return f"""
WITH s AS (
  SELECT s_suppkey AS seg_id, {ax} AS ax, {ay} AS ay,
         {bx} AS bx, {by} AS by
  FROM supplier
), d AS (
  SELECT s.seg_id, e.pid,
         (e.x2 - e.x1) * (s.ay - e.y1) - (e.y2 - e.y1) * (s.ax - e.x1) AS d1,
         (e.x2 - e.x1) * (s.by - e.y1) - (e.y2 - e.y1) * (s.bx - e.x1) AS d2,
         (s.bx - s.ax) * (e.y1 - s.ay) - (s.by - s.ay) * (e.x1 - s.ax) AS d3,
         (s.bx - s.ax) * (e.y2 - s.ay) - (s.by - s.ay) * (e.x2 - s.ax) AS d4
  FROM s CROSS JOIN {edges}
)
SELECT seg_id, pid AS poly_id, CAST(count(*) AS BIGINT) AS n_crossings
FROM d
WHERE ((d1 > 0 AND d2 < 0) OR (d1 < 0 AND d2 > 0))
  AND ((d3 > 0 AND d4 < 0) OR (d3 < 0 AND d4 > 0))
GROUP BY seg_id, pid
"""


def q_cell_smooth_topk(sf_dir: str):
    """Raster convolution (polygons.box_smooth_raster): customer points
    rasterized to res-6 cell counts, 3x3 box-smoothed by the scatter
    shuffle, top-20 densest cells with the deterministic (density DESC,
    cell ASC) order. Integer end to end; mirrored by a DuckDB offset
    cross-join."""
    from .polygons import box_smooth_dense

    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        vc = pd.Series(cells.cell_of(lat, lon, RES_JOIN)).value_counts()
        return pd.DataFrame({"cell": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    # bounded key domain (4^res cells, 4096 at res 6): per-block
    # value_counts partials + a driver merge replace BOTH the keyed
    # count groupby and the scatter shuffle (the repo's tiny-domain
    # rule — each was seconds of parallelism-independent barrier on
    # KB-sized data); the smoothing itself is the dense twin of
    # polygons.box_smooth_raster, parity-pinned
    parts = [b for b in cust.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas", batch_size=None)]
    if not parts:
        return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                             "density": pd.Series(dtype=np.int64)})
    merged = (pd.concat(parts, ignore_index=True)
              .groupby("cell", as_index=False)["n"].sum())
    cell_arr, density = box_smooth_dense(
        merged["cell"].to_numpy(np.int64),
        merged["n"].to_numpy(np.int64), RES_JOIN)
    out = pd.DataFrame({"cell": cell_arr, "density": density})
    return (out.sort_values(["density", "cell"], ascending=[False, True],
                            ignore_index=True).head(20))


def _sql_cell_smooth_topk() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    expr = cells.oracle_sql_cell_expr(lat, lon, RES_JOIN)
    mask = (1 << 29) - 1
    idlim = 1 << 29
    grid = 1 << RES_JOIN  # x wraps mod grid (longitude), y clips (poles)
    return f"""
WITH counts AS (
  SELECT {expr} AS cell, CAST(count(*) AS BIGINT) AS n
  FROM customer GROUP BY 1
), parts AS (
  SELECT cell, (cell >> 29) & {mask} AS ix, cell & {mask} AS iy,
         cell - (((cell >> 29) & {mask}) * {idlim}) - (cell & {mask}) AS base,
         n
  FROM counts
), off AS (
  SELECT dx.dx, dy.dy
  FROM (VALUES (-1), (0), (1)) dx(dx)
  CROSS JOIN (VALUES (-1), (0), (1)) dy(dy)
), sc AS (
  SELECT base + ((ix + dx + {grid}) % {grid}) * {idlim} + (iy + dy) AS cell, n
  FROM parts CROSS JOIN off
  WHERE iy + dy >= 0 AND iy + dy < {grid}
)
SELECT cell, CAST(sum(n) AS BIGINT) AS density
FROM sc GROUP BY cell
ORDER BY density DESC, cell ASC
LIMIT 20
"""


def _sql_raster_polygonize() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    expr = cells.oracle_sql_cell_expr(lat, lon, RES_JOIN)
    mask = (1 << 29) - 1
    return f"""
WITH RECURSIVE
counts AS (
  SELECT {expr} AS cell, count(*) AS n FROM customer GROUP BY 1
),
active AS (
  SELECT cell, (cell >> 29) & {mask} AS ix, cell & {mask} AS iy
  FROM counts WHERE n >= 3
),
adj AS (
  SELECT a.cell AS c1, b.cell AS c2
  FROM active a JOIN active b
    ON (a.ix = b.ix AND (a.iy = b.iy + 1 OR b.iy = a.iy + 1))
    OR (a.iy = b.iy AND (a.ix = b.ix + 1 OR b.ix = a.ix + 1))
),
lab(cell, root) AS (
  SELECT cell, cell FROM active
  UNION
  SELECT a.c1, l.root FROM lab l JOIN adj a ON a.c2 = l.cell
)
SELECT cell, min(root) AS region FROM lab GROUP BY cell
"""


SQL_EVENTS_ASOF_JOIN = """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS us, event_type FROM events
), L AS (
  SELECT event_id, user_id, us FROM e WHERE event_type = 'purchase'
), R0 AS (
  SELECT user_id, us, max(event_id) AS r_event_id
  FROM e WHERE event_type = 'click' GROUP BY 1, 2
)
SELECT l.event_id, l.user_id, l.us, r.r_event_id
FROM L l ASOF JOIN R0 r ON l.user_id = r.user_id AND l.us >= r.us
"""


# ------------------------------------------- set ops (splits / samples)


def q_doc_split_stats(sf_dir: str):
    """Deterministic train/val/test split (sampling.hash_split): per
    (lang, split) doc count + char sum. Assignment is a pure function
    of doc_id (int64-exact keyed hash mod 100), so it is identical
    across reruns, cluster widths and block layouts — the property a
    reproducible training corpus needs that random splits lack."""
    from . import sampling
    from .joins import grouped_apply

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"],
    )
    split = sampling.hash_split(docs, "doc_id")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["lang", "split"], as_index=False).agg(
            n=("doc_id", "size"), sum_chars=("n_chars", "sum")
        )
        out["n"] = out["n"].astype(np.int64)
        out["sum_chars"] = out["sum_chars"].astype(np.int64)
        return out

    return grouped_apply(split, ["lang", "split"], agg, num_buckets=16)


SQL_DOC_SPLIT_STATS = """
WITH s AS (
  SELECT lang, n_chars,
         ((doc_id * 1103515245 + 12345) % 2305843009213693951) % 100 AS b
  FROM documents
)
SELECT lang,
       CASE WHEN b < 80 THEN 'train'
            WHEN b < 90 THEN 'val'
            ELSE 'test' END AS split,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM s GROUP BY 1, 2
"""


def q_doc_sample_per_lang(sf_dir: str):
    """Deterministic 10-per-language sample (sampling.sample_per_group):
    the 10 docs with smallest (keyed hash, doc_id) per lang, ranked.
    Distributed as a two-level top-n (per-batch partial bounds the
    shuffle at n x |groups| rows per block)."""
    from . import sampling

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )
    out = sampling.sample_per_group(docs, "lang", "doc_id", 10, num_buckets=16)
    return out.select_columns(["lang", "rk", "doc_id"])


SQL_DOC_SAMPLE_PER_LANG = """
WITH h AS (
  SELECT lang, doc_id,
         (doc_id * 1103515245 + 12345) % 2305843009213693951 AS h
  FROM documents
)
SELECT lang,
       CAST(row_number() OVER (PARTITION BY lang ORDER BY h, doc_id) AS BIGINT) AS rk,
       doc_id
FROM h QUALIFY rk <= 10
"""


def q_distinct_users_by_type(sf_dir: str):
    """Exact per-group distinct count (sampling.distinct_count):
    distinct users per event_type via value-partitioned disjoint
    nunique partials — no sketch, no whole-column driver pull."""
    from . import sampling

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    return sampling.distinct_count(ev, "event_type", "user_id", num_buckets=16)


SQL_DISTINCT_USERS_BY_TYPE = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
FROM events GROUP BY 1
"""


def q_doc_shard_counts(sf_dir: str):
    """Hash-sharded training output (sampling.shard_by_hash): writes
    the documents table as shard=NNNN/ parquet directories under a
    fresh tempdir and returns per-shard row counts — oracle-checks the
    writer's shard assignment end-to-end (files included)."""
    import shutil
    import tempfile

    from . import sampling

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )
    outdir = tempfile.mkdtemp(prefix="ophois_shards_")
    try:
        return sampling.shard_by_hash(docs, "doc_id", 8, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


SQL_DOC_SHARD_COUNTS = """
SELECT CAST(((doc_id * 1103515245 + 12345) % 2305843009213693951) % 8 AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY 1
"""


def q_hll_users(sf_dir: str):
    """HyperLogLog distinct-user sketch per event_type (sketches.py):
    the register table itself — (event_type, reg, max-rho), all int64 —
    is the query result, so the *approximate* distinct counter is
    oracle-checked bit-exactly (the SQL mirror evaluates the same
    keyed hash and a CASE-ladder leading-zero count). One streaming
    pass; per-batch partials are <= |types| x 256 rows; sketches merge
    by register max, the shape that replaces exact COUNT(DISTINCT)
    shuffles at corpus scale."""
    from . import sketches

    ev = _t(sf_dir, "events", columns=["event_type", "user_id"])
    return sketches.hll_registers(ev, "user_id", group_cols=["event_type"], b=8)


def _sql_hll_users() -> str:
    from .sketches import oracle_sql_hll

    return oracle_sql_hll("events", "user_id", group_cols=["event_type"], b=8)


def q_events_window_hll(sf_dir: str):
    """Windowed distinct users via mergeable HLL sketches — the
    100-TB shape of streaming COUNT(DISTINCT) per time bucket: rows map
    to tumbling 1 h windows, then one streaming pass emits per-window
    register partials (<= |windows| x 256 int rows per batch) that
    merge by max. Register tables are the result, so the approximate
    operator is oracle-checked bit-exactly (same keyed hash +
    CASE-ladder clz in DuckDB over the same window arithmetic)."""
    from . import sketches

    ev = _t(sf_dir, "events", columns=["ts", "user_id"])

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        wid = (us // 1000) // 3600000
        return pd.DataFrame({"window_id": wid.astype(np.int64),
                             "user_id": df["user_id"]})

    w = ev.map_batches(windows, batch_format="pandas")
    return sketches.hll_registers(w, "user_id", group_cols=["window_id"], b=8)


def q_doc_rank_global(sf_dir: str):
    """Distributed global ORDER BY / dense rank (sampling.rank_global,
    the TeraSort shape): every document's exact position in the total
    (n_chars, doc_id) order, computed with deterministic sample cut
    points, range buckets + an offset scan and per-bucket local sorts
    — no single-node sort anywhere. The SQL mirror is row_number()
    over the same total order."""
    from .sampling import rank_global

    docs = _t(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return rank_global(docs, ["n_chars", "doc_id"], num_buckets=16)


SQL_DOC_RANK_GLOBAL = """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS BIGINT)
         AS rank
FROM documents
"""


def q_doc_len_ntile(sf_dir: str):
    """Global quartile bucketing by length (sampling.ntile_global):
    tile = rank * 4 // n over the exact distributed total order —
    the curriculum/difficulty-tier assignment, integer-exact."""
    from .sampling import ntile_global

    docs = _t(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return ntile_global(docs, ["n_chars", "doc_id"], 4, num_buckets=16)


SQL_DOC_LEN_NTILE = """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS BIGINT)
         AS rank,
       CAST(((row_number() OVER (ORDER BY n_chars, doc_id) - 1) * 4)
            // (SELECT count(*) FROM documents) AS BIGINT) AS tile
FROM documents
"""


def q_orders_profile(sf_dir: str):
    """Data-profiling sweep (profiling.profile_table) over orders: per
    int/string column, row count, null count and min/max in one
    streaming pass — the pre-ingest audit. SQL mirror is one UNION ALL
    branch per profiled column with CAST(... AS VARCHAR) min/max."""
    from .profiling import profile_table

    return profile_table(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_orderpriority"])


SQL_ORDERS_PROFILE = """
SELECT 'o_custkey' AS column, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(o_custkey) AS BIGINT) AS n_null,
       CAST(min(o_custkey) AS VARCHAR) AS min_s,
       CAST(max(o_custkey) AS VARCHAR) AS max_s
FROM orders
UNION ALL
SELECT 'o_orderkey', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderkey) AS BIGINT),
       CAST(min(o_orderkey) AS VARCHAR), CAST(max(o_orderkey) AS VARCHAR)
FROM orders
UNION ALL
SELECT 'o_orderpriority', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderpriority) AS BIGINT),
       min(o_orderpriority), max(o_orderpriority)
FROM orders
UNION ALL
SELECT 'o_orderstatus', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderstatus) AS BIGINT),
       min(o_orderstatus), max(o_orderstatus)
FROM orders
"""


def q_doc_above_lang_mean(sf_dir: str):
    """Group-normalized length filter — keep documents longer than
    their LANGUAGE's mean length, the per-group quality-cutoff shape.
    Exact without any float: the comparison ``n_chars > sum/n`` is
    cross-multiplied to ``n_chars * n > sum`` (pure int64), so the
    filter is bit-exact against SQL. Two passes: per-batch (lang, sum,
    n) partials fold to a tiny stats table broadcast into a fused
    zero-shuffle filter map — the aggregate-then-filter pattern that
    never shuffles the corpus."""
    docs = _t(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False)["n_chars"].agg(["sum", "size"])
        g.columns = ["lang", "s", "n"]
        return g

    parts = [b for b in docs.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas", batch_size=None)]
    if parts:
        stats = (pd.concat(parts, ignore_index=True)
                 .groupby("lang", as_index=False)[["s", "n"]].sum())
    else:
        stats = pd.DataFrame({"lang": pd.Series(dtype=object),
                              "s": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64)})
    langs = stats["lang"].to_numpy(object)
    order = np.argsort(langs)
    langs = langs[order]
    s = stats["s"].to_numpy(np.int64)[order]
    n = stats["n"].to_numpy(np.int64)[order]

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_id", "lang", "n_chars"]
        g = df["lang"].to_numpy(object)
        # null langs have no stats group (groupby dropna, same as the
        # SQL inner join) — drop them instead of searchsorted on None
        known = ~pd.isna(g)
        if not len(langs) or not known.any():
            return df.iloc[:0][cols]
        df = df[known]
        gi = np.clip(np.searchsorted(langs, g[known]), 0, len(langs) - 1)
        nc = df["n_chars"].to_numpy(np.int64)
        return df[nc * n[gi] > s[gi]][cols]

    return docs.map_batches(keep, batch_format="pandas")


SQL_DOC_ABOVE_LANG_MEAN = """
WITH a AS (
  SELECT lang, CAST(sum(n_chars) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY lang
)
SELECT doc_id, d.lang, n_chars
FROM documents d JOIN a ON d.lang = a.lang
WHERE d.n_chars * a.n > a.s
"""


def q_q6_revenue_cents(sf_dir: str):
    """TPC-H Q6 (forecast revenue) with the integer-cents trick: both
    float columns quantize by floor(x * 100) — multiplication by 100
    and floor are correctly rounded identically in numpy and DuckDB —
    so revenue sums as pure int64 (order-free, layout-free) instead of
    an unmirrorable float reduction. The 4-column read is pruned at
    the SCAN (columns= — select_columns doesn't push down); filters
    run before the datetime conversion; one small per-year partial
    per batch."""
    li = _t(sf_dir, "lineitem", columns=[
        "l_shipdate", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        disc = df["l_discount"].to_numpy(np.float64)
        qty = df["l_quantity"].to_numpy(np.float64)
        keep = (disc >= 0.05) & (disc <= 0.07) & (qty < 24)
        df = df[keep]
        year = pd.to_datetime(df["l_shipdate"]).dt.year.to_numpy(np.int64)
        pc = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0
        ).astype(np.int64)
        dc = np.floor(disc[keep] * 100.0).astype(np.int64)
        out = pd.DataFrame({"year": year, "rev": pc * dc})
        g = out.groupby("year", as_index=False).agg(
            rev=("rev", "sum"), n=("rev", "size"))
        return g.astype(np.int64)

    parts = [b for b in li.map_batches(partial, batch_format="pandas")
             .iter_batches(batch_format="pandas", batch_size=None)]
    if not parts:
        return pd.DataFrame({"year": pd.Series(dtype=np.int64),
                             "rev": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64)})
    out = (pd.concat(parts, ignore_index=True)
           .groupby("year", as_index=False)[["rev", "n"]].sum()
           .astype(np.int64))
    return out.sort_values("year", ignore_index=True)


SQL_Q6_REVENUE = """
SELECT CAST(year(l_shipdate) AS BIGINT) AS year,
       CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)
                * CAST(floor(l_discount * 100) AS BIGINT)) AS BIGINT)
         AS rev,
       CAST(count(*) AS BIGINT) AS n
FROM lineitem
WHERE l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24
GROUP BY 1
"""


def q_events_retention(sf_dir: str):
    """Daily retention cohorts — the product-analytics staple: cohort
    a user by their FIRST active day, then count distinct users of
    each cohort active at each day offset. One user-bucket shuffle
    (a user's whole history lands in one bucket, so first-day and
    per-day distinctness are exact there) emits pre-aggregated
    (cohort, offset, users) partials; disjoint user sets make the
    final per-pair sum exact. Integer day ids (epoch_ms // 86400000,
    non-negative so floor == SQL trunc division)."""
    from .joins import grouped_apply

    ev = _t(sf_dir, "events", columns=["user_id", "ts"])

    def days(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "day": ((us // 1000) // 86400000).astype(np.int64),
        }).drop_duplicates()

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        cd = df.groupby("user_id")["day"].transform("min")
        out = pd.DataFrame({
            "cohort_day": cd.to_numpy(np.int64),
            "offset_d": (df["day"] - cd).to_numpy(np.int64),
            "user_id": df["user_id"].to_numpy(np.int64),
        }).drop_duplicates()
        g = (out.groupby(["cohort_day", "offset_d"], as_index=False)
             .agg(n_users=("user_id", "size")))
        g["n_users"] = g["n_users"].astype(np.int64)
        return g

    partials = grouped_apply(
        ev.map_batches(days, batch_format="pandas"),
        "user_id", per_user, num_buckets=32)

    # final merge is a pure int64 semigroup over <= buckets x pairs
    # tiny rows — fold on the driver, don't pay a second shuffle
    parts = [b for b in partials.iter_batches(batch_format="pandas",
                                              batch_size=None)]
    if not parts:
        return pd.DataFrame({"cohort_day": pd.Series(dtype=np.int64),
                             "offset_d": pd.Series(dtype=np.int64),
                             "n_users": pd.Series(dtype=np.int64)})
    out = (pd.concat(parts, ignore_index=True)
           .groupby(["cohort_day", "offset_d"], as_index=False)
           ["n_users"].sum().astype(np.int64))
    return out.sort_values(["cohort_day", "offset_d"], ignore_index=True)


SQL_EVENTS_RETENTION = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_ms(ts) // 86400000 AS day FROM events
), c AS (
  SELECT user_id, min(day) AS cd FROM d GROUP BY user_id
)
SELECT CAST(c.cd AS BIGINT) AS cohort_day,
       CAST(d.day - c.cd AS BIGINT) AS offset_d,
       CAST(count(DISTINCT d.user_id) AS BIGINT) AS n_users
FROM d JOIN c USING (user_id)
GROUP BY 1, 2
"""


def q_doc_compression_ratio(sf_dir: str):
    """zlib-deflate compressibility per document
    (textstats.compression_ratio) — the Gopher/Dolma quality heuristic.
    No SQL mirror (DEFLATE is not SQL-expressible); integer outputs
    are deterministic at a fixed level, so the driver's rows-only
    rerun check holds, and the operator is pinned by a pytest against
    direct zlib calls."""
    from . import textstats

    return textstats.compression_ratio(_t(sf_dir, "documents"))


def _sql_events_window_hll() -> str:
    from .sketches import oracle_sql_hll

    return oracle_sql_hll(
        "(SELECT epoch_ms(ts) // 3600000 AS window_id, user_id FROM events)",
        "user_id", group_cols=["window_id"], b=8)


def q_doc_tfidf(sf_dir: str):
    """Per-document top-3 terms by integer tf-idf surrogate
    (textstats.tfidf_topk): score = tf * ((N * 2^20) // df). Floor-div
    idf keeps every op int64-exact, so the full inverted-index pipeline
    (tokenize -> tf -> df join on token -> per-doc top-k) hash-matches
    SQL bit-for-bit — the vocab/statistics sweep of a training corpus
    as one oracle-checked operator."""
    from . import textstats

    docs = _t(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = docs.count()  # parquet metadata only — no data read
    return textstats.tfidf_topk(docs, n_docs, k=3)


SQL_DOC_TFIDF = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS t
  FROM documents
), tf AS (
  SELECT doc_id, t, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, t
), df AS (
  SELECT t, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY t
), n AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM documents
), scored AS (
  SELECT tf.doc_id, tf.t AS token,
         tf.tf * ((n.n * 1048576) // df.df) AS score
  FROM tf JOIN df ON tf.t = df.t CROSS JOIN n
), ranked AS (
  SELECT doc_id, token, score,
         row_number() OVER (
           PARTITION BY doc_id ORDER BY score DESC, token ASC
         ) - 1 AS rank
  FROM scored
)
SELECT doc_id, token, score, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank < 3
"""


def _copurchase_edges(sf_dir: str):
    """Canonical distinct co-purchase edges (parts linked when some
    order contains both): order->pairs via one grouped_apply, then
    canonical (u < v) edge dedup. Shared by the triangle queries."""
    from .joins import distinct_rows, grouped_apply

    li = _t(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def pairs_fn(df: pd.DataFrame) -> pd.DataFrame:
        # loop-free all-pairs within each order: sort by (order, part),
        # distinct, then offset-shift pair generation
        from .graphops import pairs_within_runs

        o = df["l_orderkey"].to_numpy(np.int64)
        p = df["l_partkey"].to_numpy(np.int64)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        keep = np.ones(len(o), dtype=bool)
        keep[1:] = (o[1:] != o[:-1]) | (p[1:] != p[:-1])
        return pd.DataFrame(pairs_within_runs(o[keep], p[keep]))

    pairs = grouped_apply(li, "l_orderkey", pairs_fn)
    # distinct (u, v): capped narrow merge instead of a second keyed
    # sort exchange — the barrier was the floor under all five
    # copurchase-graph consumers (see joins.distinct_rows)
    return distinct_rows(pairs, ["u", "v"])


def q_copurchase_triangles(sf_dir: str):
    """Triangle count of the co-purchase graph, via
    graphops.triangle_count (degree-oriented wedge join — the O(m^1.5)
    distributed algorithm). Single int64 row, mirrored by a DuckDB
    three-way self-join."""
    from .graphops import triangle_count

    n = triangle_count(_copurchase_edges(sf_dir))
    return pd.DataFrame({"n_triangles": np.array([n], dtype=np.int64)})


SQL_COPURCHASE_TRIANGLES = """
WITH op AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM e e1
JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
"""


def q_node_triangles(sf_dir: str):
    """Top-20 nodes of the co-purchase graph by triangle participation
    (the local-clustering-coefficient numerator), via
    graphops.triangles_per_node — per-corner credit of the closed
    degree-oriented wedges. Pure integer (node, tri) output with the
    deterministic total order (tri DESC, node ASC); mirrored by a
    DuckDB three-way self-join corner explode."""
    from .graphops import triangles_per_node

    tri = triangles_per_node(_copurchase_edges(sf_dir))
    empty = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                          "tri": pd.Series(dtype=np.int64)})
    # per-batch partial top-20 (nodes are unique across blocks —
    # grouped_apply buckets by node hash), tiny driver merge
    parts = [
        b.sort_values(["tri", "node"], ascending=[False, True]).head(20)
        for b in tri.iter_batches(batch_format="pandas", batch_size=None)
    ]
    out = pd.concat(parts, ignore_index=True) if parts else empty
    return (out.sort_values(["tri", "node"], ascending=[False, True],
                            ignore_index=True).head(20))


SQL_NODE_TRIANGLES = """
WITH op AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
), tri AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
), corner AS (
  SELECT a AS node FROM tri
  UNION ALL SELECT b AS node FROM tri
  UNION ALL SELECT c AS node FROM tri
)
SELECT node, CAST(count(*) AS BIGINT) AS tri
FROM corner GROUP BY node
ORDER BY tri DESC, node ASC
LIMIT 20
"""


def q_part_kcore(sf_dir: str):
    """Fixed-3-round k-core peel (k=100) of the co-purchase graph
    (graphops.kcore_peel): per round, survivor-node count entering the
    round and edge count after filtering to survivors. Pure int64 and
    round-count-pinned, so it is bit-exact against three unrolled
    DuckDB join CTEs. k=100 cascades on this graph: each round's counts
    differ, with full collapse by round 3."""
    from .graphops import kcore_peel

    stats, _ = kcore_peel(_copurchase_edges(sf_dir), k=100, rounds=3)
    return stats


SQL_PART_KCORE = """
-- DuckDB inlines every CTE reference: round CTEs read twice are
-- MATERIALIZED, else the plan grows as 2^rounds and runs out of memory.
WITH op AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e0 AS MATERIALIZED (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
), d0 AS MATERIALIZED (
  SELECT node, count(*) AS deg
  FROM (SELECT u AS node FROM e0 UNION ALL SELECT v AS node FROM e0)
  GROUP BY node
), s0 AS MATERIALIZED (SELECT node FROM d0 WHERE deg >= 100),
e1 AS MATERIALIZED (
  SELECT e0.u, e0.v FROM e0
  JOIN s0 a ON e0.u = a.node JOIN s0 b ON e0.v = b.node
), d1 AS MATERIALIZED (
  SELECT node, count(*) AS deg
  FROM (SELECT u AS node FROM e1 UNION ALL SELECT v AS node FROM e1)
  GROUP BY node
), s1 AS MATERIALIZED (SELECT node FROM d1 WHERE deg >= 100),
e2 AS MATERIALIZED (
  SELECT e1.u, e1.v FROM e1
  JOIN s1 a ON e1.u = a.node JOIN s1 b ON e1.v = b.node
), d2 AS MATERIALIZED (
  SELECT node, count(*) AS deg
  FROM (SELECT u AS node FROM e2 UNION ALL SELECT v AS node FROM e2)
  GROUP BY node
), s2 AS MATERIALIZED (SELECT node FROM d2 WHERE deg >= 100),
e3 AS MATERIALIZED (
  SELECT e2.u, e2.v FROM e2
  JOIN s2 a ON e2.u = a.node JOIN s2 b ON e2.v = b.node
)
SELECT CAST(1 AS BIGINT) AS round,
       (SELECT CAST(count(*) AS BIGINT) FROM s0) AS n_nodes,
       (SELECT CAST(count(*) AS BIGINT) FROM e1) AS n_edges
UNION ALL
SELECT 2, (SELECT count(*) FROM s1), (SELECT count(*) FROM e2)
UNION ALL
SELECT 3, (SELECT count(*) FROM s2), (SELECT count(*) FROM e3)
"""


def q_doc_lm_score(sf_dir: str):
    """CCNet-style statistical quality scoring (textstats.lm_surprisal):
    unigram counts from the hash-split train docs score every test doc
    with add-one-smoothed fixed-point surprisal, floor-div exact —
    (doc_id, n_tokens, lm_score), bit-exact vs a DuckDB LEFT JOIN +
    integer-division oracle."""
    from . import textstats
    from .sampling import split_hash

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )

    def only(lo: int, hi: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            b = split_hash(df["doc_id"].to_numpy()) % 100
            return df[(b >= lo) & (b < hi)]
        return fn

    train = docs.map_batches(only(0, 80), batch_format="pandas")
    test = docs.map_batches(only(90, 100), batch_format="pandas")
    return textstats.lm_surprisal(train, test)


SQL_DOC_LM_SCORE = r"""
WITH s AS (
  SELECT doc_id, text,
         ((doc_id * 1103515245 + 12345) % 2305843009213693951) % 100 AS b
  FROM documents
), tok AS (
  SELECT doc_id, b,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS w
  FROM s
), tc AS (
  SELECT w, CAST(count(*) AS BIGINT) AS c FROM tok WHERE b < 80 GROUP BY w
), tot AS (
  SELECT CAST(count(*) AS BIGINT) AS t FROM tok WHERE b < 80
), et AS (
  SELECT doc_id, w FROM tok WHERE b >= 90
)
SELECT et.doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum((tot.t * 1048576) // (COALESCE(tc.c, 0) + 1)) AS BIGINT)
         AS lm_score
FROM et LEFT JOIN tc ON et.w = tc.w CROSS JOIN tot
GROUP BY et.doc_id
"""


def q_training_prep(sf_dir: str):
    """End-to-end training-data prep composition, every stage one of
    this engine's operators: quality filter (>= 20 tokens) + repetition
    filter (no duplicated trigram) fused into the read, exact dedup
    (keep min doc_id per text), then sequence packing of the survivors
    into 4096-char bins — per-bin (n_segs, chars) stats. The whole
    chain is mirrored by one DuckDB statement, so the COMPOSITION is
    oracle-checked, not just the pieces."""
    from . import dedup as _dedup
    from .joins import grouped_apply
    from .sampling import pack_sequences
    from .textstats import doc_ngrams, flatten_tokens

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"],
    )

    def qual(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_of, ndocs = flatten_tokens(df["text"])
        n_tok = np.bincount(doc_of, minlength=ndocs)
        grams, gdoc = doc_ngrams(flat, doc_of, 3)
        tg_total = np.bincount(gdoc, minlength=ndocs)
        dd = pd.DataFrame({"d": gdoc, "g": grams}).drop_duplicates()
        tg_distinct = np.bincount(dd["d"].to_numpy(np.int64), minlength=ndocs)
        return df[(n_tok >= 20) & (tg_total == tg_distinct)]

    # two consumers (dedup winner scan + keep scan) — pin the filtered
    # table once; it is the pruned 3-column survivor set, not the corpus
    filtered = docs.map_batches(qual, batch_format="pandas").materialize()
    # drop the text payload BEFORE packing (its rid shuffle must carry
    # only (doc_id, n_chars)) and pin the survivors once — packing
    # consumes its input twice (pass-A totals scan + pass-B shuffle)
    kept = _dedup.exact_dedup_filter(filtered).select_columns(
        ["doc_id", "n_chars"]).materialize()
    packed = pack_sequences(kept, cost_col="n_chars")

    def part_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin", as_index=False).agg(
            n_segs=("seg_len", "size"), chars=("seg_len", "sum"))
        g["n_segs"] = g["n_segs"].astype(np.int64)
        g["chars"] = g["chars"].astype(np.int64)
        return g

    def merge_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin", as_index=False)[["n_segs", "chars"]].sum()
        g["n_segs"] = g["n_segs"].astype(np.int64)
        g["chars"] = g["chars"].astype(np.int64)
        return g

    return grouped_apply(packed, "bin", merge_agg, drop_partial=part_agg,
                         num_buckets=16)


SQL_TRAINING_PREP = r"""
WITH feats AS (
  SELECT doc_id, text, n_chars,
         list_filter(string_split_regex(text, '\s+'), x -> x != '') AS l
  FROM documents
), tg AS (
  SELECT doc_id, len(l) AS nt,
         len(list_transform(range(1, len(l) - 1),
             i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2])) AS tg_total,
         len(list_distinct(list_transform(range(1, len(l) - 1),
             i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2]))) AS tg_distinct
  FROM feats
), q AS (
  SELECT f.doc_id, f.text, f.n_chars
  FROM feats f JOIN tg ON f.doc_id = tg.doc_id
  WHERE tg.nt >= 20 AND tg.tg_total = tg.tg_distinct
), w AS (
  SELECT min(doc_id) AS doc_id FROM q GROUP BY text
), kept AS (
  SELECT q.doc_id, q.n_chars FROM q JOIN w ON q.doc_id = w.doc_id
), s AS (
  SELECT doc_id, n_chars,
         CAST(COALESCE(sum(n_chars) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS BIGINT) AS start
  FROM kept
), b AS (
  SELECT doc_id, n_chars, start,
         unnest(range(start // 4096, (start + n_chars - 1) // 4096 + 1)) AS bin
  FROM s WHERE n_chars > 0
)
SELECT CAST(bin AS BIGINT) AS bin, CAST(count(*) AS BIGINT) AS n_segs,
       CAST(sum(least(start + n_chars, (bin + 1) * 4096)
                - greatest(start, bin * 4096)) AS BIGINT) AS chars
FROM b GROUP BY bin
"""


def q_embed_pca_project(sf_dir: str):
    """Distributed PCA (similarity.pca_train / pca_project): fit 4
    components by Gram-moment accumulation over the embeddings table,
    then project every vector in a fused broadcast map. Float
    eigendecomposition — no SQL oracle (see no_oracle_reasons); gated
    in pytest against direct numpy PCA. The fit runs the
    ``id_col`` layout-independent path, so the result is bit-identical
    under ANY block layout — the driver's rerun diff (and the test
    suite's shrunken-target_max_block_size rerun) can never see float
    drift from moved block boundaries."""
    from . import similarity

    # reader-pruned + pinned: the table feeds two consumers (the fit's
    # moment drain and the projection pass) — lazy would re-read twice
    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    ).materialize()
    comps, mean, _ = similarity.pca_train(emb, 4, id_col="vec_id")
    return similarity.pca_project(emb, comps, mean)


def q_part_skyline(sf_dir: str):
    """2-D skyline / Pareto front (sampling.skyline2d): the parts not
    strictly dominated on (price cents, size), both minimized. Price
    cents = floor(p_retailprice * 100.0) — the multiply and floor are
    identically IEEE-rounded in numpy and DuckDB, so the comparison
    domain is the same int64 on both sides. Local-skyline pre-filter
    per block, exact final pass; mirrored by a NOT EXISTS dominance
    oracle."""
    from .sampling import skyline2d

    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_size", "p_retailprice"],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "p_partkey": df["p_partkey"].to_numpy(np.int64),
            "price_c": np.floor(
                df["p_retailprice"].to_numpy(np.float64) * 100.0
            ).astype(np.int64),
            "size": df["p_size"].to_numpy(np.int64),
        })

    out = skyline2d(part.map_batches(prep, batch_format="pandas"),
                    "price_c", "size")
    return out.sort_values("p_partkey", ignore_index=True)


SQL_PART_SKYLINE = """
WITH p AS (
  SELECT p_partkey,
         CAST(floor(p_retailprice * 100.0) AS BIGINT) AS price_c,
         CAST(p_size AS BIGINT) AS size
  FROM part
)
SELECT a.p_partkey, a.price_c, a.size
FROM p a
WHERE NOT EXISTS (
  SELECT 1 FROM p b
  WHERE b.price_c <= a.price_c AND b.size <= a.size
    AND (b.price_c < a.price_c OR b.size < a.size)
)
"""


def q_polygon_area(sf_dir: str):
    """Integer-exact shoelace area + centroid numerators per demo
    polygon (polygons.polygon_area_centroid): vertices quantized by
    floor(coord * 1024) — an exact power-of-two multiply — so the edge
    cross-product sums are pure int64 and order-independent, bit-exact
    vs a DuckDB ring self-join. (sf_dir unused: the polygon set is the
    small broadcast side, generated seeded like the pip queries.)"""
    from .polygons import polygon_area_centroid

    polys = _demo_polygons()
    rows = [
        (pid, i, la, lo)
        for pid in sorted(polys)
        for i, (la, lo) in enumerate(polys[pid])
    ]
    verts = ray.data.from_pandas(pd.DataFrame(
        rows, columns=["pid", "seq", "lat", "lon"]
    ))
    return polygon_area_centroid(verts, scale=1024)


def _sql_polygon_area() -> str:
    polys = _demo_polygons()
    # string->DOUBLE casts: a bare numeric literal parses as DECIMAL in
    # DuckDB (overflow + ulp drift); the string parse is the correctly-
    # rounded double, identical to the Python repr round-trip
    vals = ", ".join(
        f"({pid}, {i}, CAST('{la!r}' AS DOUBLE), CAST('{lo!r}' AS DOUBLE))"
        for pid in sorted(polys)
        for i, (la, lo) in enumerate(polys[pid])
    )
    return f"""
WITH v AS (
  SELECT * FROM (VALUES {vals}) AS t(pid, seq, lat, lon)
), q AS (
  SELECT pid, seq,
         CAST(floor(lon * 1024.0) AS BIGINT) AS ix,
         CAST(floor(lat * 1024.0) AS BIGINT) AS iy,
         count(*) OVER (PARTITION BY pid) AS n
  FROM v
), e AS (
  SELECT a.pid, a.ix AS x1, a.iy AS y1, b.ix AS x2, b.iy AS y2
  FROM q a JOIN q b ON b.pid = a.pid AND b.seq = (a.seq + 1) % a.n
)
SELECT pid, CAST(count(*) AS BIGINT) AS n_vertices,
       CAST(sum(x1 * y2 - x2 * y1) AS BIGINT) AS area2,
       CAST(sum((x1 + x2) * (x1 * y2 - x2 * y1)) AS BIGINT) AS cx_num,
       CAST(sum((y1 + y2) * (x1 * y2 - x2 * y1)) AS BIGINT) AS cy_num
FROM e GROUP BY pid
"""


def q_doc_packing(sf_dir: str):
    """Deterministic sequence packing (sampling.pack_sequences):
    documents laid end to end in doc_id order and cut into 4096-char
    bins, one row per (doc, bin) overlap with in-doc segment bounds —
    the pre-training batch-assembly layout, produced by a distributed
    ordered prefix-scan (range partials + broadcast offsets, one
    shuffle). Bit-exact vs a DuckDB window-cumsum oracle."""
    from . import sampling

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
    )
    return sampling.pack_sequences(docs, cost_col="n_chars", capacity=4096)


SQL_DOC_PACKING = """
WITH s AS (
  SELECT doc_id, n_chars,
         CAST(COALESCE(sum(n_chars) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS BIGINT) AS start
  FROM documents
), b AS (
  SELECT doc_id, n_chars, start,
         unnest(range(start // 4096, (start + n_chars - 1) // 4096 + 1)) AS bin
  FROM s WHERE n_chars > 0
)
SELECT doc_id, CAST(bin AS BIGINT) AS bin,
       CAST(greatest(start, bin * 4096) - start AS BIGINT) AS seg_start,
       CAST(least(start + n_chars, (bin + 1) * 4096)
            - greatest(start, bin * 4096) AS BIGINT) AS seg_len
FROM b
"""


def q_part_bfs_depths(sf_dir: str):
    """Multi-source BFS depths (graphops.bfs_depths) on the co-purchase
    graph: seeds = nodes with split_hash(node) % 97 == 0, three
    frontier expansions, (node, depth) per reached node. Bit-exact vs
    three unrolled DuckDB frontier CTEs."""
    from .graphops import bfs_depths

    return bfs_depths(_copurchase_edges(sf_dir), seed_mod=97, rounds=3)


SQL_PART_BFS_DEPTHS = """
WITH op AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
), arc AS (
  SELECT u AS src, v AS dst FROM e
  UNION ALL
  SELECT v AS src, u AS dst FROM e
), nodes AS (
  SELECT DISTINCT src AS node FROM arc
), d0 AS (
  SELECT node FROM nodes
  WHERE ((node * 1103515245 + 12345) % 2305843009213693951) % 97 = 0
), r1 AS (
  SELECT DISTINCT a.dst AS node FROM arc a JOIN d0 ON a.src = d0.node
), d1 AS (
  SELECT node FROM r1 WHERE node NOT IN (SELECT node FROM d0)
), r2 AS (
  SELECT DISTINCT a.dst AS node FROM arc a JOIN d1 ON a.src = d1.node
), d2 AS (
  SELECT node FROM r2 WHERE node NOT IN (SELECT node FROM d0)
                       AND node NOT IN (SELECT node FROM d1)
), r3 AS (
  SELECT DISTINCT a.dst AS node FROM arc a JOIN d2 ON a.src = d2.node
), d3 AS (
  SELECT node FROM r3 WHERE node NOT IN (SELECT node FROM d0)
                       AND node NOT IN (SELECT node FROM d1)
                       AND node NOT IN (SELECT node FROM d2)
)
SELECT node, CAST(0 AS BIGINT) AS depth FROM d0
UNION ALL SELECT node, 1 FROM d1
UNION ALL SELECT node, 2 FROM d2
UNION ALL SELECT node, 3 FROM d3
"""


def q_split_contamination(sf_dir: str):
    """Benchmark-leakage audit (dedup.contamination_counts): per lang,
    how many hash-split test documents share at least one
    whitespace-token 5-gram with any train document. One gram-bucket
    shuffle; split assignment is the same int64-exact keyed hash the
    doc_split_stats query mirrors. Integer counts, bit-exact vs a
    DuckDB list_transform/unnest + join oracle."""
    from . import dedup

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "text"],
    )
    out = dedup.contamination_counts(docs, n=5)
    return out.rename(columns={"group": "lang"})


SQL_SPLIT_CONTAMINATION = r"""
WITH s AS (
  SELECT doc_id, lang, text,
         ((doc_id * 1103515245 + 12345) % 2305843009213693951) % 100 AS b
  FROM documents
), sp AS (
  SELECT doc_id, lang, text,
         CASE WHEN b < 80 THEN 'train'
              WHEN b < 90 THEN 'val' ELSE 'test' END AS split
  FROM s
), tok AS (
  SELECT doc_id, lang, split,
         list_filter(string_split_regex(text, '\s+'), x -> x != '') AS l
  FROM sp WHERE split IN ('train', 'test')
), g AS (
  SELECT doc_id, lang, split,
         unnest(list_distinct(list_transform(range(1, len(l) - 3),
           i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2] || ' ' || l[i+3]
                || ' ' || l[i+4]))) AS gram
  FROM tok
), tr AS (
  SELECT DISTINCT gram FROM g WHERE split = 'train'
), contam AS (
  SELECT DISTINCT g.doc_id, g.lang
  FROM g JOIN tr ON g.gram = tr.gram
  WHERE g.split = 'test'
), totals AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n_test
  FROM sp WHERE split = 'test' GROUP BY lang
), c AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n_contaminated
  FROM contam GROUP BY lang
)
SELECT totals.lang, totals.n_test,
       COALESCE(c.n_contaminated, 0) AS n_contaminated
FROM totals LEFT JOIN c ON totals.lang = c.lang
"""


def q_doc_dup_ngrams(sf_dir: str):
    """Cross-document duplicate 4-gram counts per document — the
    MassiveText/C4 "shared n-gram" dedup signal (dedup.dup_ngram_counts):
    one gram-bucket shuffle, distinct-doc frequency computed whole per
    bucket, per-(bucket, doc) partial counts merged in a tiny second
    shuffle."""
    from . import dedup as _dedup

    return _dedup.dup_ngram_counts(_t(sf_dir, "documents"), n=4)


SQL_DOC_DUP_NGRAMS = r"""
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x != '') AS l
  FROM documents
), g AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(range(1, len(l) - 2),
           i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2] || ' ' || l[i+3]))) AS gram
  FROM tok
), f AS (
  SELECT gram, count(*) AS nd FROM g GROUP BY gram
)
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(count(*) FILTER (WHERE f.nd >= 2) AS BIGINT) AS n_dup_grams
FROM g JOIN f USING (gram)
GROUP BY g.doc_id
"""


def q_doc_pii_counts(sf_dir: str):
    """PII detection + redaction audit (textstats.pii_counts) over a
    deterministically "dirtied" corpus: synthetic emails / phone
    numbers / IPv4s derived from doc_id are appended to the documents
    (the testdata text is clean word-soup, so the detector would be
    vacuous on it raw), then the RE2 detector counts matches and
    measures the post-scrub length. The SQL mirror rebuilds the exact
    same dirty text from doc_id arithmetic and runs the same RE2
    patterns in DuckDB — detector semantics are identical by
    construction (both engines are RE2 on the same pattern strings)."""
    from . import textstats

    docs = _t(sf_dir, "documents")

    def dirty(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        sid = pd.Series(ids).astype(str)
        email = np.where(
            ids % 3 == 0, " contact user" + sid + "@example.com now", "")
        phone = np.where(
            ids % 5 == 0,
            " call 555-" + pd.Series(ids % 10000).astype(str).str.zfill(4), "")
        ip = np.where(
            ids % 7 == 0,
            " ip 10." + pd.Series(ids % 256).astype(str) + ".0."
            + pd.Series((ids // 7) % 256).astype(str), "")
        return pd.DataFrame({
            "doc_id": ids,
            "text": df["text"].to_numpy(object) + email + phone + ip,
        })

    return textstats.pii_counts(docs.map_batches(dirty, batch_format="pandas"))


SQL_DOC_PII = r"""
WITH dirty AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 3 = 0
                 THEN ' contact user' || CAST(doc_id AS VARCHAR)
                      || '@example.com now' ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN ' call 555-'
                      || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                 ELSE '' END
         || CASE WHEN doc_id % 7 = 0
                 THEN ' ip 10.' || CAST(doc_id % 256 AS VARCHAR) || '.0.'
                      || CAST((doc_id // 7) % 256 AS VARCHAR)
                 ELSE '' END AS t
  FROM documents
)
SELECT doc_id,
       CAST(len(regexp_extract_all(t, '[a-z0-9]+@[a-z0-9]+\.[a-z]+')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(t, '555-[0-9]{4}')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(t, '[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+')) AS BIGINT) AS n_ip,
       CAST(length(
         regexp_replace(
           regexp_replace(
             regexp_replace(t, '[a-z0-9]+@[a-z0-9]+\.[a-z]+', '<EMAIL>', 'g'),
             '555-[0-9]{4}', '<PHONE>', 'g'),
           '[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+', '<IP>', 'g')) AS BIGINT) AS scrub_len
FROM dirty
"""


def q_pages_link_graph(sf_dir: str):
    """Domain-level hyperlink graph (pages.link_edges) over a
    deterministically linked synthetic corpus: each document becomes a
    page on domain ``site{doc_id % 50}.example`` whose html carries
    ``1 + doc_id % 3`` anchor links to target pages
    ``(doc_id * 31 + j * 17) % 50``-th domain. The engine does the
    REAL work — regex href extraction from the html bytes + authority
    parse + edge aggregation — while the SQL mirror re-derives the
    same edges from doc_id arithmetic, so extraction bugs cannot hide
    (any mis-parse changes a count)."""
    from . import pages as _pages

    return _pages.link_edges(_linked_pages(sf_dir))


def _linked_pages(sf_dir: str):
    """Deterministically linked synthetic pages from documents: page
    doc_id lives on domain ``site{doc_id % 50}.example`` and links to
    targets ``doc_id * 31 + j * 17`` for j in [0, doc_id % 3]."""
    docs = _t(sf_dir, "documents")

    def to_pages(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa

        ids = df["doc_id"].to_numpy(np.int64)
        urls, htmls = [], []
        for i, d in enumerate(ids):
            urls.append(f"http://site{d % 50}.example/p/{d}")
            anchors = "".join(
                f'<a href="http://site{(d * 31 + j * 17) % 50}.example/p/'
                f'{(d * 31 + j * 17)}">ref {j}</a>'
                for j in range(1 + d % 3)
            )
            htmls.append(
                f"<html><body><p>{df['text'].iloc[i]}</p>"
                f"<nav>{anchors}</nav></body></html>"
            )
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "html": pa.array([h.encode() for h in htmls], type=pa.binary()),
        })

    return docs.map_batches(to_pages, batch_format="pandas")


SQL_PAGES_LINK_GRAPH = """
WITH l AS (
  SELECT doc_id, unnest(range(0, 1 + doc_id % 3)) AS j FROM documents
)
SELECT 'site' || CAST(doc_id % 50 AS VARCHAR) || '.example' AS src_domain,
       'site' || CAST((doc_id * 31 + j * 17) % 50 AS VARCHAR) || '.example'
         AS dst_domain,
       CAST(count(*) AS BIGINT) AS n_links
FROM l GROUP BY 1, 2
"""


def q_anchor_terms(sf_dir: str):
    """Anchor-text corpus (pages.anchor_term_counts) over the linked
    synthetic pages: the engine parses every <a href>text</a> pair out
    of the html (href AND inner text) and counts anchor tokens per
    TARGET domain; the SQL mirror re-derives the expected (domain,
    token) multiset from the doc_id link arithmetic, so both the href
    parse and the anchor-text parse are hash-checked."""
    from . import pages as _pages

    return _pages.anchor_term_counts(_linked_pages(sf_dir))


SQL_ANCHOR_TERMS = """
WITH l AS (
  SELECT doc_id, unnest(range(0, 1 + doc_id % 3)) AS j FROM documents
), e AS (
  SELECT 'site' || CAST((doc_id * 31 + j * 17) % 50 AS VARCHAR)
         || '.example' AS dst_domain, j
  FROM l
), t AS (
  SELECT dst_domain, 'ref' AS token FROM e
  UNION ALL
  SELECT dst_domain, CAST(j AS VARCHAR) FROM e
)
SELECT dst_domain, token, CAST(count(*) AS BIGINT) AS n
FROM t GROUP BY 1, 2
"""


def q_domain_reciprocity(sf_dir: str):
    """Link reciprocity of the extracted domain graph — the mutual-link
    ratio web-graph studies report: from the directed domain edges,
    count ordered pairs a->b (a != b, distinct) and how many are
    reciprocated by b->a. One bucket shuffle on the CANONICAL pair key
    (min, max): both directions of a pair land in one bucket, so the
    mutual test is a whole-group drop_duplicates (no self-join). The
    SQL mirror self-joins the arithmetic edge set."""
    from . import pages as _pages

    return reciprocity_from_domain_edges(
        _pages.link_edges(_linked_pages(sf_dir)))


def reciprocity_from_domain_edges(dom_edges):
    """Reciprocity kernel over a (src_domain, dst_domain, n_links)
    edge Dataset (see q_domain_reciprocity for the shape rationale)."""
    from .joins import grouped_apply

    def directed(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["src_domain"].str.extract(r"^site(\d+)\.example$")[0]
             .astype(np.int64).to_numpy())
        b = (df["dst_domain"].str.extract(r"^site(\d+)\.example$")[0]
             .astype(np.int64).to_numpy())
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({
            "u": np.minimum(a, b), "v": np.maximum(a, b),
            "fwd": (a < b),
        })

    def pair_stats(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates()
               .groupby(["u", "v"], as_index=False)["fwd"].count())
        n_pairs = np.int64(len(g))
        n_mutual = np.int64(int((g["fwd"] == 2).sum()))
        return pd.DataFrame({
            "n_directed": [np.int64(g["fwd"].sum())],
            "n_mutual_pairs": [n_mutual],
            "n_pairs": [n_pairs]})

    stats = grouped_apply(
        dom_edges.map_batches(directed, batch_format="pandas"),
        ["u", "v"], pair_stats, num_buckets=8)
    out = stats.to_pandas()
    if not len(out):
        return pd.DataFrame({"n_directed": [0], "n_mutual_pairs": [0],
                             "n_pairs": [0]}).astype(np.int64)
    return (out.sum(axis=0).to_frame().T.astype(np.int64)
            .reset_index(drop=True))


SQL_DOMAIN_RECIPROCITY = """
WITH l AS (
  SELECT doc_id, unnest(range(0, 1 + doc_id % 3)) AS j FROM documents
), de AS (
  SELECT DISTINCT doc_id % 50 AS a, (doc_id * 31 + j * 17) % 50 AS b
  FROM l WHERE doc_id % 50 != (doc_id * 31 + j * 17) % 50
), p AS (
  SELECT least(a, b) AS u, greatest(a, b) AS v,
         CAST(count(*) AS BIGINT) AS deg
  FROM de GROUP BY 1, 2
)
SELECT CAST(sum(deg) AS BIGINT) AS n_directed,
       CAST(count(*) FILTER (WHERE deg = 2) AS BIGINT) AS n_mutual_pairs,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM p
"""


def q_domain_pagerank(sf_dir: str):
    """The CommonCrawl-shaped composition end-to-end: extract the
    hyperlink graph from html (pages.link_edges over the synthetic
    linked corpus), parse the numeric domain index back OUT OF THE
    DOMAIN STRINGS (so a mis-extraction upstream changes the ranking),
    canonicalize to an undirected simple graph, and run integer-exact
    PageRank (graphops.pagerank_int, 3 rounds). Top-20 by (rank desc,
    node asc); the SQL mirror re-derives the edge set arithmetically
    and unrolls the same floor-div rounds."""
    from . import pages as _pages
    from .graphops import pagerank_int

    dom_edges = _pages.link_edges(_linked_pages(sf_dir))

    def to_int_edges(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["src_domain"].str.extract(r"^site(\d+)\.example$")[0]
             .astype(np.int64).to_numpy())
        b = (df["dst_domain"].str.extract(r"^site(\d+)\.example$")[0]
             .astype(np.int64).to_numpy())
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})

    from .joins import distinct_rows

    edges = distinct_rows(
        dom_edges.map_batches(to_int_edges, batch_format="pandas"),
        ["u", "v"], num_buckets=16)
    pr = pagerank_int(edges, iters=3)
    pr = pr.sort_values(["r", "node"], ascending=[False, True]).head(20)
    return pr.reset_index(drop=True)


_SQL_DOMAIN_EDGES = """l AS (
  SELECT doc_id, unnest(range(0, 1 + doc_id % 3)) AS j FROM documents
), de AS (
  SELECT DISTINCT doc_id % 50 AS a, (doc_id * 31 + j * 17) % 50 AS b FROM l
), edges AS (
  SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM de WHERE a != b
)"""


def _sql_domain_pagerank() -> str:
    return _sql_pagerank_over(_SQL_DOMAIN_EDGES)


def q_url_normalize(sf_dir: str):
    """URL canonicalization (pages.normalize_urls) over deterministic
    messy urls: mixed-case scheme/host, www. prefix, default and
    non-default ports, trailing slashes, utm_* tracking params,
    unsorted query params and fragments, all derived from doc_id. The
    engine runs the real parser/normalizer; the SQL mirror constructs
    the EXPECTED canonical string directly from the same arithmetic,
    so every normalization rule is checked bit-for-bit."""
    from . import pages as _pages

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def messy(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        urls = []
        for d in ids:
            sch = "HTTP" if d % 2 == 0 else "https"
            port = (":8080" if d % 9 == 0
                    else (":80" if sch == "HTTP" else ":443")
                    if d % 3 == 0 else "")
            path = f"/p/{d}" + ("/" if d % 4 == 0 else "")
            query = f"?utm_source=x&b={d % 7}&a=1" if d % 5 == 0 else ""
            frag = "#sec" if d % 6 == 0 else ""
            urls.append(
                f"{sch}://WWW.Site{d % 50}.Example{port}{path}{query}{frag}")
        return pd.DataFrame({"doc_id": ids, "url": urls})

    out = _pages.normalize_urls(
        docs.map_batches(messy, batch_format="pandas"))
    return out.select_columns(["doc_id", "url_norm"])


def q_doc_mixture_sample(sf_dir: str):
    """Deterministic source-weighted mixture sampling
    (sampling.mixture_sample): source srcK keeps hash%10000 <
    500 + 450*K of its documents — the Pile/Dolma training-mix
    weighting as one layout-independent zero-shuffle filter. Returns
    the kept (doc_id, source) rows; the SQL mirror applies the same
    integer threshold from the source suffix."""
    from .sampling import mixture_sample

    docs = _t(sf_dir, "documents", columns=["doc_id", "source"])
    rates = {f"src{k}": 500 + 450 * k for k in range(20)}
    return mixture_sample(docs, "doc_id", "source", rates)


def q_doc_postings(sf_dir: str):
    """Inverted-index build (textstats.inverted_index): posting lists
    (first 20 ascending doc ids) for every token with document
    frequency in [2, 395] — one token-bucket shuffle over distinct
    (token, doc) pairs, df + capped list straight from the bucket."""
    from . import textstats

    return textstats.inverted_index(
        _t(sf_dir, "documents"), min_df=2, max_df=395, cap=20)


SQL_DOC_POSTINGS = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                x -> x != '')) AS token
  FROM documents
), p AS (
  SELECT DISTINCT token, doc_id FROM tok
), d AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df FROM p GROUP BY token
), ranked AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn
  FROM p
)
SELECT d.token, d.df,
       string_agg(CAST(ranked.doc_id AS VARCHAR), ','
                  ORDER BY ranked.doc_id) AS postings
FROM d JOIN ranked USING (token)
WHERE d.df BETWEEN 2 AND 395 AND ranked.rn <= 20
GROUP BY d.token, d.df
"""


SQL_DOC_MIXTURE = """
SELECT doc_id, source FROM documents
WHERE ((doc_id * 1103515245 + 12345) % 2305843009213693951) % 10000
      < 500 + 450 * CAST(substr(source, 4) AS BIGINT)
"""


SQL_URL_NORMALIZE = """
SELECT doc_id,
       (CASE WHEN doc_id % 2 = 0 THEN 'http' ELSE 'https' END)
       || '://site' || CAST(doc_id % 50 AS VARCHAR) || '.example'
       || CASE WHEN doc_id % 9 = 0 THEN ':8080' ELSE '' END
       || '/p/' || CAST(doc_id AS VARCHAR)
       || CASE WHEN doc_id % 5 = 0
               THEN '?a=1&b=' || CAST(doc_id % 7 AS VARCHAR)
               ELSE '' END AS url_norm
FROM documents
"""


def q_part_random_walks(sf_dir: str):
    """Deterministic 3-step random walks from every node of the
    co-purchase graph (graphops.random_walks): step t moves to neighbour
    index ((cur*A + t*C) % M) % deg in dst-ascending order — the
    DeepWalk corpus generator made bit-reproducible and SQL-mirrorable
    (three unrolled join CTEs over a ranked adjacency)."""
    from .graphops import random_walks

    return random_walks(_copurchase_edges(sf_dir), length=3)


SQL_PART_RANDOM_WALKS = """
WITH op AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
), arc AS (
  SELECT u AS src, v AS dst FROM e
  UNION ALL
  SELECT v AS src, u AS dst FROM e
), adj AS (
  SELECT src, dst,
         row_number() OVER (PARTITION BY src ORDER BY dst) - 1 AS rnk,
         count(*) OVER (PARTITION BY src) AS deg
  FROM arc
), w0 AS (
  SELECT DISTINCT src AS start FROM arc
), s1 AS (
  SELECT w0.start, a.dst AS c1
  FROM w0 JOIN adj a ON a.src = w0.start
   AND a.rnk = ((w0.start * 1103515245 + 1 * 12345) % 2147483647) % a.deg
), s2 AS (
  SELECT s1.start, s1.c1, a.dst AS c2
  FROM s1 JOIN adj a ON a.src = s1.c1
   AND a.rnk = ((s1.c1 * 1103515245 + 2 * 12345) % 2147483647) % a.deg
), s3 AS (
  SELECT s2.start, s2.c1, s2.c2, a.dst AS c3
  FROM s2 JOIN adj a ON a.src = s2.c2
   AND a.rnk = ((s2.c2 * 1103515245 + 3 * 12345) % 2147483647) % a.deg
)
SELECT start, c1, c2, c3 FROM s3
"""


def q_doc_collocations(sf_dir: str):
    """Top-30 collocations by integer-scaled PMI
    (textstats.collocations): score = (c_xy * T * 2^20) // (c_x * c_y),
    min bigram count 5 — word2vec-style phrase detection as one
    oracle-checked operator (pure int64 arithmetic both sides)."""
    from . import textstats

    docs = _t(sf_dir, "documents", columns=["text"])
    return textstats.collocations(docs, k=30, min_count=5, num_buckets=16)


SQL_DOC_COLLOCATIONS = r"""
WITH tok AS (
  SELECT list_filter(string_split_regex(text, '\s+'), x -> x != '') AS l
  FROM documents
), uni AS (
  SELECT unnest(l) AS w FROM tok
), uc AS (
  SELECT w, CAST(count(*) AS BIGINT) AS c FROM uni GROUP BY w
), tot AS (
  SELECT CAST(count(*) AS BIGINT) AS t FROM uni
), bg AS (
  SELECT unnest(list_transform(range(1, len(l)), i -> l[i] || ' ' || l[i + 1])) AS pair,
         unnest(list_transform(range(1, len(l)), i -> l[i])) AS w1,
         unnest(list_transform(range(1, len(l)), i -> l[i + 1])) AS w2
  FROM tok
), bc AS (
  SELECT pair, w1, w2, CAST(count(*) AS BIGINT) AS n
  FROM bg GROUP BY pair, w1, w2
  HAVING count(*) >= 5
)
SELECT bc.pair, bc.n,
       (bc.n * tot.t * 1048576) // (u1.c * u2.c) AS score
FROM bc
JOIN uc u1 ON bc.w1 = u1.w
JOIN uc u2 ON bc.w2 = u2.w
CROSS JOIN tot
ORDER BY score DESC, pair ASC
LIMIT 30
"""


def q_part_components(sf_dir: str):
    """Connected components with a SQL oracle: the H1 kernel
    (components.connected_components_labelprop — hash-min label
    propagation with pointer jumping, O(log diameter) rounds) over a
    sparse part-chain graph (consecutive distinct parts of high-
    quantity orders), reported as (component min-label, size). The SQL
    mirror is a recursive reachability CTE + min-root aggregate — the
    one whole-graph iterative operator that IS SQL-expressible, which
    pins the distributed fixpoint machinery the (non-expressible)
    simplify pipeline reuses."""
    from .components import connected_components_auto
    from .joins import distinct_rows

    edges = _chain_edges(sf_dir).materialize()

    def to_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id": np.unique(np.concatenate(
                [df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)]
            ))}
        )

    nodes = distinct_rows(
        edges.map_batches(to_nodes, batch_format="pandas"), "id")
    # hybrid ladder: under the broadcast cap the fixpoint runs as one
    # vectorized kernel (the labelprop pays ~3 barriers/round on this
    # tiny chain graph — 38.9 s of parallelism-independent cost at
    # sf0.1); above it the num_buckets=8 labelprop runs (fewer buckets
    # because each round's joins are barrier- not data-dominated)
    comp = connected_components_auto(nodes, edges, num_buckets=8)

    def sizes(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("comp", as_index=False).size().rename(columns={"size": "n"})
        return pd.DataFrame(
            {"comp": g["comp"].to_numpy(np.int64), "n": g["n"].to_numpy(np.int64)}
        )

    from .joins import grouped_apply as ga

    return ga(comp, "comp", sizes)


SQL_PART_COMPONENTS = """
WITH RECURSIVE
hi AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p
  FROM lineitem WHERE l_quantity >= 48
), chain AS (
  SELECT o, p AS u, lead(p) OVER (PARTITION BY o ORDER BY p) AS v FROM hi
), edges AS (
  SELECT DISTINCT u, v FROM chain WHERE v IS NOT NULL
), nodes AS (
  SELECT DISTINCT u AS node FROM edges
  UNION SELECT DISTINCT v FROM edges
), adj AS (
  SELECT u AS a, v AS b FROM edges UNION ALL SELECT v, u FROM edges
), lab(node, root) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT adj.a, l.root FROM lab l JOIN adj ON adj.b = l.node
), comp AS (
  SELECT node, min(root) AS comp FROM lab GROUP BY node
)
SELECT comp, CAST(count(*) AS BIGINT) AS n FROM comp GROUP BY comp
"""


def q_cms_tokens(sf_dir: str):
    """Count-min sketch of the document token stream
    (sketches.cms_sketch, d=4 x w=512): the (row, col, n) cell table is
    the result, so the approximate frequency sketch is oracle-checked
    bit-exactly (each row is an independent code-point polynomial hash
    mod 2^61-1, mirrored by a HUGEINT list_reduce). Per-batch partials
    are <= d*w rows; sketches sum across shards — the heavy-hitter
    counter that replaces a full token groupby at corpus scale."""
    from . import sketches

    docs = _t(sf_dir, "documents", columns=["text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split().explode().dropna()
        return pd.DataFrame({"t": s.to_numpy(object)})

    return sketches.cms_sketch(
        docs.map_batches(toks, batch_format="pandas"), "t", w=512, d=4
    )


def _sql_cms_tokens() -> str:
    from .sketches import oracle_sql_cms

    return oracle_sql_cms(
        "documents",
        r"list_filter(string_split_regex(text, '\s+'), x -> x != '')",
        w=512, d=4,
    )


def q_bloom_tokens(sf_dir: str):
    """Bloom filter of the distinct document vocabulary
    (sketches.bloom_bits, m=8192, k=3): the set-bit table is the
    result, so the membership sketch is oracle-checked bit-exactly.
    Filters union-merge across shards/runs — the cross-run "seen this
    key?" primitive for resumable dedup at corpus scale (no false
    negatives; pytest pins that plus the fp-rate bound)."""
    from . import sketches

    docs = _t(sf_dir, "documents", columns=["text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split().explode().dropna().drop_duplicates()
        return pd.DataFrame({"t": s.to_numpy(object)})

    return sketches.bloom_bits(
        docs.map_batches(toks, batch_format="pandas"), "t", m=8192, k=3
    )


def _sql_bloom_tokens() -> str:
    from .sketches import oracle_sql_bloom

    return oracle_sql_bloom(
        r"SELECT unnest(list_filter(string_split_regex(text, '\s+'),"
        r" x -> x != '')) AS t FROM documents",
        m=8192, k=3,
    )


def _chain_edges(sf_dir: str):
    """Sparse part-chain graph shared by part_components/part_pagerank:
    consecutive distinct parts of high-quantity orders, deduped."""
    from .joins import distinct_rows, grouped_apply

    li = _t(sf_dir, "lineitem",
            columns=["l_orderkey", "l_partkey", "l_quantity"])

    def chains(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_quantity"].to_numpy(np.float64) >= 48.0]
        o = df["l_orderkey"].to_numpy(np.int64)
        p = df["l_partkey"].to_numpy(np.int64)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        keep = np.ones(len(o), dtype=bool)
        keep[1:] = (o[1:] != o[:-1]) | (p[1:] != p[:-1])
        o, p = o[keep], p[keep]
        if len(o) < 2:
            return pd.DataFrame(
                {"u": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)}
            )
        same = o[:-1] == o[1:]
        return pd.DataFrame({"u": p[:-1][same], "v": p[1:][same]})

    pairs = grouped_apply(li, "l_orderkey", chains)
    # key-only (u, v) dedup: capped narrow merge (joins.distinct_rows)
    return distinct_rows(pairs, ["u", "v"])


#: shared CTE prefix deriving the chain graph in SQL (mirrors
#: _chain_edges: DISTINCT high-qty (order, part), lead() chain pairs)
_SQL_CHAIN_EDGES = """
hi AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p
  FROM lineitem WHERE l_quantity >= 48
), chain AS (
  SELECT o, p AS u, lead(p) OVER (PARTITION BY o ORDER BY p) AS v FROM hi
), edges AS (
  SELECT DISTINCT u, v FROM chain WHERE v IS NOT NULL
)"""


def q_part_pagerank(sf_dir: str):
    """Integer-exact PageRank (graphops.pagerank_int, 3 rounds,
    S = 2^40 mass, 85/100 damping) over the part-chain graph: floor-div
    damping arithmetic makes the iterative fixpoint bit-reproducible
    across layouts AND SQL-mirrorable (three unrolled join-aggregate
    CTEs) — the canonical web-scale iterative operator, driver-checked
    exactly. Top-20 by (rank desc, node asc)."""
    from .graphops import pagerank_int

    edges = _chain_edges(sf_dir)
    pr = pagerank_int(edges, iters=3)
    pr = pr.sort_values(["r", "node"], ascending=[False, True]).head(20)
    return pr.reset_index(drop=True)


#: one unrolled pagerank_int round as SQL — shared by every query that
#: mirrors graphops.pagerank_int over some edges CTE (keep the integer
#: expression in sync with the engine's floor-div damping arithmetic)
_SQL_PR_ROUND = """
, c{i} AS (
  SELECT a.dst AS node, SUM(r{j}.r // d.deg) AS s
  FROM arcs a
  JOIN r{j} ON r{j}.node = a.src
  JOIN deg d ON d.node = a.src
  GROUP BY a.dst
), r{i} AS (
  SELECT n.node,
         (({S} * {dd}) // ({den} * nn.n)) + ({num} * COALESCE(c{i}.s, 0)) // {den} AS r
  FROM nodes n CROSS JOIN ncount nn LEFT JOIN c{i} ON c{i}.node = n.node
)"""


def _sql_pagerank_over(edges_cte: str, *, iters: int = 3,
                       limit: int = 20) -> str:
    """Unrolled pagerank_int mirror over an ``edges`` CTE (canonical
    undirected int64 ``u < v`` pairs)."""
    S = 1 << 40
    num, den = 85, 100
    rounds = "".join(
        _SQL_PR_ROUND.format(i=i, j=i - 1, S=S, num=num, den=den,
                             dd=den - num)
        for i in range(1, iters + 1)
    )
    return f"""
WITH {edges_cte},
arcs AS (
  SELECT u AS src, v AS dst FROM edges UNION ALL SELECT v, u FROM edges
), deg AS (
  SELECT src AS node, CAST(count(*) AS BIGINT) AS deg FROM arcs GROUP BY src
), nodes AS (
  SELECT node FROM deg
), ncount AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM nodes
), r0 AS (
  SELECT n.node, {S} // nn.n AS r FROM nodes n CROSS JOIN ncount nn
){rounds}
SELECT node, CAST(r AS BIGINT) AS r
FROM r{iters} ORDER BY r DESC, node ASC LIMIT {limit}
"""


def _sql_part_pagerank() -> str:
    return _sql_pagerank_over(_SQL_CHAIN_EDGES)


def q_part_hits(sf_dir: str):
    """HASH-CHECKED integer-exact HITS (graphops.hits_int, 2 rounds,
    scale 2^20) over the DIRECTED part-chain graph (u -> v as emitted:
    each chain step points at the next-larger part id). Max-rescale
    replaces the L2 normalization so every round is a pure int64
    function of the graph — bit-reproducible across layouts and
    mirrorable by unrolled join-aggregate-max CTEs. Full (node, auth,
    hub) table, driver-checked exactly."""
    from .graphops import hits_int

    edges = _chain_edges(sf_dir)
    arcs = edges.map_batches(
        lambda df: pd.DataFrame({"src": df["u"].to_numpy(np.int64),
                                 "dst": df["v"].to_numpy(np.int64)}),
        batch_format="pandas")
    return hits_int(arcs, iters=2)


#: one unrolled hits_int half-round as SQL: sum the previous vector
#: over {src|dst}, rescale by the round max (engine: int64 sums then
#: (s * scale) // max — keep the expression order identical)
_SQL_HITS_HALF = """
, {o}p AS (
  SELECT a.{grp} AS node, SUM({prev}.x) AS s
  FROM arcs a JOIN {prev} ON {prev}.node = a.{look} GROUP BY a.{grp}
), {o}m AS (SELECT MAX(s) AS m FROM {o}p),
{o} AS (
  SELECT n.node,
         CASE WHEN m.m > 0 THEN (COALESCE(p.s, 0) * {S}) // m.m
              ELSE 0 END AS x
  FROM nodes n CROSS JOIN {o}m m LEFT JOIN {o}p p ON p.node = n.node
)"""


def _sql_hits_over(edges_cte: str, *, iters: int = 2) -> str:
    S = 1 << 20
    halves = []
    prev = "h0"
    for i in range(1, iters + 1):
        halves.append(_SQL_HITS_HALF.format(
            o=f"a{i}", prev=prev, grp="dst", look="src", S=S))
        halves.append(_SQL_HITS_HALF.format(
            o=f"h{i}", prev=f"a{i}", grp="src", look="dst", S=S))
        prev = f"h{i}"
    return f"""
WITH {edges_cte},
arcs AS (SELECT u AS src, v AS dst FROM edges),
nodes AS (SELECT src AS node FROM arcs UNION SELECT dst FROM arcs),
h0 AS (SELECT node, CAST({S} AS BIGINT) AS x FROM nodes)
{"".join(halves)}
SELECT n.node, CAST(a{iters}.x AS BIGINT) AS auth,
       CAST(h{iters}.x AS BIGINT) AS hub
FROM nodes n JOIN a{iters} ON a{iters}.node = n.node
JOIN h{iters} ON h{iters}.node = n.node
"""


def _sql_part_hits() -> str:
    return _sql_hits_over(_SQL_CHAIN_EDGES)


def q_part_link_pred(sf_dir: str):
    """HASH-CHECKED common-neighbor / integer Adamic-Adar link
    prediction (graphops.link_prediction) over the part-chain graph:
    every non-adjacent pair with >= 1 shared neighbor scored by shared
    count and sum of floor-scaled inverse neighbor degree (2^20 //
    deg). Wedge enumeration is one center-bucket shuffle; adjacency
    exclusion rides the pair merge. Driver-checked bit-for-bit against
    the SQL wedge self-join."""
    from .graphops import link_prediction

    edges = _chain_edges(sf_dir)
    return link_prediction(edges)


def q_cust_rfm(sf_dir: str):
    """HASH-CHECKED RFM segmentation: per customer the semigroup
    triple (last order day MAX, order count, floor-cents revenue SUM)
    pre-aggregates per batch before ONE customer-bucket shuffle, then
    buckets to (recency 90-day steps capped 6, frequency capped 8,
    monetary 100k-cent steps capped 9) and rolls up segment
    populations — nothing customer-sized leaves the buckets. The
    recency anchor is the DATASET's own max order day (max partials,
    exact), so the divided operand is non-negative by construction
    (floor vs trunc parity) at any sf. floor(price*100) quantization
    is identically rounded in numpy and DuckDB (the q6 precedent)."""
    from .joins import grouped_apply

    ords = _t(sf_dir, "orders",
              columns=["o_custkey", "o_orderdate", "o_totalprice"])

    day_parts = ords.map_batches(
        lambda df: pd.DataFrame({"d": [np.int64(
            (pd.to_datetime(df["o_orderdate"]).astype("datetime64[us]")
             .astype("int64").to_numpy() // 86_400_000_000).max()
        )]}) if len(df) else pd.DataFrame({"d": pd.Series(dtype=np.int64)}),
        batch_format="pandas").to_pandas()
    ANCHOR_DAY = int(day_parts["d"].max())

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = (pd.to_datetime(df["o_orderdate"]).astype("datetime64[us]")
              .astype("int64").to_numpy())
        g = pd.DataFrame({
            "c": df["o_custkey"].to_numpy(np.int64),
            "n": np.int64(1),
            "cents": np.floor(
                df["o_totalprice"].to_numpy(np.float64) * 100
            ).astype(np.int64),
            "last": us // 86_400_000_000})
        out = g.groupby("c", as_index=False).agg(
            n=("n", "sum"), cents=("cents", "sum"), last=("last", "max"))
        return out.astype(np.int64)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c", as_index=False).agg(
            n=("n", "sum"), cents=("cents", "sum"), last=("last", "max"))
        r = np.minimum((ANCHOR_DAY - g["last"].to_numpy(np.int64)) // 90,
                       6)
        f = np.minimum(g["n"].to_numpy(np.int64), 8)
        m = np.minimum(g["cents"].to_numpy(np.int64) // 10_000_000, 9)
        seg = pd.DataFrame({"r": r, "f": f, "m": m, "n_cust": np.int64(1)})
        out = seg.groupby(["r", "f", "m"], as_index=False)["n_cust"].sum()
        return out.astype(np.int64)

    parts = grouped_apply(ords.map_batches(partial, batch_format="pandas"),
                          "c", bucket, num_buckets=32,
                          drop_partial=lambda df: df.groupby(
                              "c", as_index=False).agg(
                              n=("n", "sum"), cents=("cents", "sum"),
                              last=("last", "max")).astype(np.int64))
    out = parts.to_pandas()
    if not len(out):
        return pd.DataFrame({c: pd.Series(dtype=np.int64)
                             for c in ["r", "f", "m", "n_cust"]})
    g = out.groupby(["r", "f", "m"], as_index=False)["n_cust"].sum()
    return g.astype(np.int64).sort_values(["r", "f", "m"],
                                          ignore_index=True)


SQL_CUST_RFM = """
WITH p AS (SELECT o_custkey AS c, CAST(count(*) AS BIGINT) AS n,
                  CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT))
                       AS BIGINT) AS cents,
                  MAX(CAST(epoch_us(o_orderdate) AS BIGINT)
                      // 86400000000) AS last
           FROM orders GROUP BY o_custkey),
a AS (SELECT MAX(last) AS anchor FROM p),
b AS (SELECT LEAST((a.anchor - last) // 90, 6) AS r,
             LEAST(n, 8) AS f,
             LEAST(cents // 10000000, 9) AS m
      FROM p CROSS JOIN a)
SELECT CAST(r AS BIGINT) AS r, CAST(f AS BIGINT) AS f,
       CAST(m AS BIGINT) AS m, CAST(count(*) AS BIGINT) AS n_cust
FROM b GROUP BY r, f, m
"""


def q_doc_stab_tiers(sf_dir: str):
    """HASH-CHECKED broadcast interval-stabbing lookup
    (joins.stab_lookup — the IP-geolocation shape): doc values from
    two-round arithmetic stabbed into a 64-tier gappy half-open range
    table shipped ONCE via ray.put (fused zero-shuffle searchsorted,
    vs range_join's bucket exchange); per-tier counts with gap misses
    as tier -1. SQL mirror is the LEFT non-equi join."""
    from .joins import stab_lookup

    docs = _t(sf_dir, "documents", columns=["doc_id"])
    iv = pd.DataFrame({
        "lo": np.arange(64, dtype=np.int64) * 1000,
        "hi": np.arange(64, dtype=np.int64) * 1000 + 700,
        "iv_id": np.arange(64, dtype=np.int64)})

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        k = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "v": ((k + 3) * 8191 % 1_000_003) * 8191 % 1_000_003 % 64000})

    looked = stab_lookup(docs.map_batches(gen, batch_format="pandas"),
                         "v", iv)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("iv_id", as_index=False).size()
        return pd.DataFrame({"iv_id": g["iv_id"].to_numpy(np.int64),
                             "n": g["size"].to_numpy(np.int64)})

    parts = looked.map_batches(partial, batch_format="pandas").to_pandas()
    if not len(parts):
        return pd.DataFrame({"iv_id": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64)})
    g = parts.groupby("iv_id", as_index=False)["n"].sum()
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values("iv_id", ignore_index=True)


SQL_DOC_STAB_TIERS = """
WITH v AS (SELECT ((doc_id + 3) * 8191 % 1000003) * 8191
                  % 1000003 % 64000 AS v
           FROM documents),
iv AS (SELECT CAST(range AS BIGINT) AS iv_id,
              CAST(range * 1000 AS BIGINT) AS lo,
              CAST(range * 1000 + 700 AS BIGINT) AS hi
       FROM range(64)),
j AS (SELECT COALESCE(iv.iv_id, -1) AS iv_id
      FROM v LEFT JOIN iv ON v.v >= iv.lo AND v.v < iv.hi)
SELECT CAST(iv_id AS BIGINT) AS iv_id, CAST(count(*) AS BIGINT) AS n
FROM j GROUP BY iv_id
"""


def q_doc_apportion(sf_dir: str):
    """HASH-CHECKED largest-remainder (Hamilton) apportionment
    (sampling.apportion_slots): 9973 sample slots split across (lang,
    source) mixture cells proportional to doc counts — integer quotas
    ``total*n//N`` plus +1 to the largest remainders (ties to the
    smaller packed key), so slots sum to exactly 9973 with no float
    weights. SQL mirror ranks remainders with a window."""
    from .sampling import apportion_slots

    docs = _t(sf_dir, "documents", columns=["lang", "source"])

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        cell = (df["lang"].astype(str) + "|" + df["source"].astype(str))
        return pd.DataFrame({"cell": cell.to_numpy(object)})

    return apportion_slots(docs.map_batches(pack, batch_format="pandas"),
                           "cell", 9973)


SQL_DOC_APPORTION = """
WITH c AS (SELECT lang || '|' || source AS cell,
                  CAST(count(*) AS BIGINT) AS n
           FROM documents GROUP BY cell),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS nn FROM c),
q AS (SELECT cell, n, (9973 * n) // t.nn AS quota,
             (9973 * n) % t.nn AS rem
      FROM c CROSS JOIN t),
k AS (SELECT CAST(9973 - SUM(quota) AS BIGINT) AS k FROM q),
r AS (SELECT cell, n, quota,
             row_number() OVER (ORDER BY rem DESC, cell ASC) AS rn
      FROM q)
SELECT r.cell AS cell, r.n AS n,
       CAST(r.quota + CASE WHEN r.rn <= k.k THEN 1 ELSE 0 END
            AS BIGINT) AS slots
FROM r CROSS JOIN k
"""


def q_part_assortativity(sf_dir: str):
    """HASH-CHECKED degree-assortativity sufficient statistics
    (graphops.degree_assortativity_stats) over the part-chain graph:
    one int64 row (m, s_uv, s_u, s_v, s_uu, s_vv) over both arc
    orientations — Pearson degree-degree r derives exactly downstream,
    while the distributed output stays order-free integer sums."""
    from .graphops import degree_assortativity_stats

    return degree_assortativity_stats(_chain_edges(sf_dir))


SQL_PART_ASSORTATIVITY = f"""
WITH {_SQL_CHAIN_EDGES},
arcs AS (SELECT u AS src, v AS dst FROM edges
         UNION ALL SELECT v, u FROM edges),
deg AS (SELECT src AS node, CAST(count(*) AS BIGINT) AS d
        FROM arcs GROUP BY src),
j AS (SELECT d1.d AS du, d2.d AS dv
      FROM arcs a JOIN deg d1 ON d1.node = a.src
                  JOIN deg d2 ON d2.node = a.dst)
SELECT CAST(count(*) AS BIGINT) AS m,
       CAST(SUM(du * dv) AS BIGINT) AS s_uv,
       CAST(SUM(du) AS BIGINT) AS s_u,
       CAST(SUM(dv) AS BIGINT) AS s_v,
       CAST(SUM(du * du) AS BIGINT) AS s_uu,
       CAST(SUM(dv * dv) AS BIGINT) AS s_vv
FROM j
"""


def q_part_degree_loghist(sf_dir: str):
    """HASH-CHECKED log2-bucketed degree histogram (the power-law tail
    audit) over the co-purchase graph: bucket = bit_length(degree),
    computed EXACTLY on both sides without float log — numpy frexp's
    exponent (exact for int64 < 2^53) == DuckDB length(bin(d)).
    Distributed shape: arc (node, 1) partials -> one int-key degree
    merge -> per-bucket count partials -> tiny driver merge."""
    from .graphops import _arc_degrees_ds

    edges = _copurchase_edges(sf_dir)
    arcs = edges.map_batches(
        lambda df: pd.DataFrame({
            "src": np.concatenate([df["u"].to_numpy(np.int64),
                                   df["v"].to_numpy(np.int64)]),
            "dst": np.concatenate([df["v"].to_numpy(np.int64),
                                   df["u"].to_numpy(np.int64)])}),
        batch_format="pandas")
    deg_ds = _arc_degrees_ds(arcs, num_buckets=32)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = np.frexp(df["d"].to_numpy(np.int64).astype(np.float64))[1]
        g = pd.DataFrame({"bucket": b.astype(np.int64),
                          "n_nodes": np.int64(1)})
        out = g.groupby("bucket", as_index=False)["n_nodes"].sum()
        return out.astype(np.int64)

    parts = deg_ds.map_batches(partial, batch_format="pandas").to_pandas()
    if not len(parts):
        return pd.DataFrame({"bucket": pd.Series(dtype=np.int64),
                             "n_nodes": pd.Series(dtype=np.int64)})
    g = parts.groupby("bucket", as_index=False)["n_nodes"].sum()
    return g.astype(np.int64).sort_values("bucket", ignore_index=True)


SQL_PART_DEGREE_LOGHIST = """
WITH op AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
), arc AS (
  SELECT u AS src FROM e UNION ALL SELECT v FROM e
), deg AS (
  SELECT src AS node, CAST(count(*) AS BIGINT) AS d FROM arc GROUP BY src
)
SELECT CAST(length(bin(d)) AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY bucket
"""


def q_part_cocitation(sf_dir: str):
    """HASH-CHECKED bibliographic co-citation (dedup.shared_key_pairs
    re-targeted at the web-graph shape): pairs of chain sources
    pointing at the SAME target with the exact shared-target count —
    the posting-list pair counting engine (one key shuffle, per-key
    complete source sets, hot-key cap far above this corpus's
    degrees). SQL mirror is the arcs self-join."""
    from .dedup import shared_key_pairs

    edges = _chain_edges(sf_dir)
    arcs = edges.map_batches(
        lambda df: pd.DataFrame({"src": df["u"].to_numpy(np.int64),
                                 "dst": df["v"].to_numpy(np.int64)}),
        batch_format="pandas")
    return shared_key_pairs(arcs, id_col="src", key_col="dst",
                            min_shared=1, bucket_cap=100_000)


SQL_PART_COCITATION = f"""
WITH {_SQL_CHAIN_EDGES},
arcs AS (SELECT u AS src, v AS dst FROM edges)
SELECT a1.src AS id_a, a2.src AS id_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM arcs a1 JOIN arcs a2 ON a1.dst = a2.dst AND a1.src < a2.src
GROUP BY id_a, id_b
"""


def q_part_rendezvous(sf_dir: str):
    """HASH-CHECKED rendezvous (HRW) shard-growth audit
    (sampling.rendezvous_stability): every part key assigned under 9
    and 10 shards by argmax of the xor-mixed two-round weight; per new
    shard (n, moved). The fleet-scale property under test: only keys
    whose 10th-shard weight is the new global max move (~1/10) — pure
    per-row arithmetic, zero shuffle, no ring state. SQL mirror ranks
    the identical weight expression with a window."""
    from .sampling import rendezvous_stability

    part = _t(sf_dir, "part", columns=["p_partkey"])
    return rendezvous_stability(part, "p_partkey", 9)


SQL_PART_RENDEZVOUS = """
WITH k AS (SELECT p_partkey AS key FROM part),
s AS (SELECT CAST(range AS BIGINT) AS s FROM range(10)),
h AS (SELECT key, s,
        (xor((CAST(key AS BIGINT) % 2147483647 * 2654435761) % 2147483647,
             (s * 1103515245) % 2147483647) * 2654435761) % 2147483647 AS h
      FROM k CROSS JOIN s),
w9 AS (SELECT key, s AS shard FROM
        (SELECT key, s, row_number() OVER
           (PARTITION BY key ORDER BY h DESC, s ASC) AS rn
         FROM h WHERE s < 9) WHERE rn = 1),
w10 AS (SELECT key, s AS shard FROM
        (SELECT key, s, row_number() OVER
           (PARTITION BY key ORDER BY h DESC, s ASC) AS rn
         FROM h) WHERE rn = 1)
SELECT w10.shard AS shard, CAST(count(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN w9.shard <> w10.shard THEN 1 ELSE 0 END)
            AS BIGINT) AS moved
FROM w10 JOIN w9 ON w9.key = w10.key
GROUP BY w10.shard
"""


SQL_PART_LINK_PRED = f"""
WITH {_SQL_CHAIN_EDGES},
arcs AS (SELECT u AS src, v AS dst FROM edges
         UNION ALL SELECT v, u FROM edges),
deg AS (SELECT dst AS node, CAST(count(*) AS BIGINT) AS d
        FROM arcs GROUP BY dst),
wedge AS (SELECT a1.dst AS w, a1.src AS u, a2.src AS v
          FROM arcs a1 JOIN arcs a2
          ON a1.dst = a2.dst AND a1.src < a2.src),
sc AS (SELECT u, v, CAST(count(*) AS BIGINT) AS cn,
              CAST(SUM({1 << 20} // d.d) AS BIGINT) AS aa
       FROM wedge JOIN deg d ON d.node = wedge.w GROUP BY u, v)
SELECT sc.u, sc.v, sc.cn, sc.aa
FROM sc LEFT JOIN edges e ON e.u = sc.u AND e.v = sc.v
WHERE e.u IS NULL
"""


def q_part_fuzzy_pairs(sf_dir: str):
    """Record linkage by edit distance (dedup.fuzzy_pairs): ALL
    part-name pairs within 2 edits — distinct-name dedup, then a
    deletion-neighborhood (SymSpell-style) candidate join over the
    vocabulary, pair-batched Levenshtein verification (one numpy op
    per DP cell across all candidate pairs, matching DuckDB's
    levenshtein() exactly), then expansion back through the name
    multiplicity. Driver-checked bit-for-bit against the unblocked
    quadratic SQL self-join."""
    from .dedup import fuzzy_pairs

    part = _t(sf_dir, "part", columns=["p_partkey", "p_name"])
    return fuzzy_pairs(part, "p_partkey", "p_name", max_dist=2)


SQL_PART_FUZZY_PAIRS = """
SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
FROM part a JOIN part b ON a.p_partkey < b.p_partkey
WHERE levenshtein(a.p_name, b.p_name) <= 2
"""


def q_doc_token_count_bpe(sf_dir: str):
    """BPE-style pretoken counts (textstats.token_count_bpe) — the
    token-budget estimate a training pipeline computes before real
    tokenization, using a GPT-2-style split pattern restricted to
    constructs with identical Python-re / RE2 semantics so the DuckDB
    regexp_extract_all mirror counts bit-identically."""
    from . import textstats

    docs = _t(sf_dir, "documents", columns=["doc_id", "text"])
    return textstats.token_count_bpe(docs).select_columns(
        ["doc_id", "n_tokens_bpe"]
    )


def _sql_doc_token_count_bpe() -> str:
    from .textstats import BPE_SPLIT_PATTERN

    return (
        "SELECT doc_id, CAST(len(regexp_extract_all(text, "
        f"$${BPE_SPLIT_PATTERN}$$)) AS BIGINT) AS n_tokens_bpe FROM documents"
    )


def q_corpus_curation(sf_dir: str):
    """End-to-end corpus curation as one oracle-checked pipeline —
    the composition a training-data user actually runs: token-count
    filter (>= 50 whitespace tokens, fused with the read) -> exact
    dedup keeping the min doc_id per distinct TEXT (string-keyed
    grouped_apply: no hash-collision term, bit-equal to SQL GROUP BY
    text) -> per-language survivor count + char sum. Text-keyed
    grouping ships the text payload through the shuffle — chosen here
    for oracle exactness; at corpus scale use dedup.exact_dedup's
    content-hash keys instead (negligible collision term, no payload
    shuffle)."""
    from .joins import grouped_apply

    docs = _t(sf_dir, "documents",
              columns=["doc_id", "text", "lang", "n_chars"])

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        # count maximal non-ASCII-whitespace runs (str.count of the run
        # pattern): matches RE2's ASCII \s exactly (Python str.split()
        # would diverge on U+00A0 etc.), and NaN text counts NaN ->
        # comparison False -> dropped, like SQL's NULL filter
        nt = df["text"].str.count(r"[^ \t\n\r\f\v]+").to_numpy(np.float64)
        return df[nt >= 50]

    kept = docs.map_batches(flt, batch_format="pandas")

    def keeper(df: pd.DataFrame) -> pd.DataFrame:
        # keep the WHOLE min-doc_id row per text (groupby().first()
        # would stitch first-non-null values from different dup rows)
        g = df.sort_values("doc_id", kind="stable").drop_duplicates("text")
        return g[["doc_id", "lang", "n_chars"]]

    winners = grouped_apply(kept, "text", keeper)

    def agg_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("doc_id", "size"), n_chars=("n_chars", "sum")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["n_chars"] = g["n_chars"].astype(np.int64)
        return g

    def agg_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_docs", "sum"), n_chars=("n_chars", "sum")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["n_chars"] = g["n_chars"].astype(np.int64)
        return g

    # the lang rollup is a tiny semigroup — per-batch partials + one
    # exact final merge task, no key-partitioned shuffle (CLAUDE.md
    # rule: grouped_apply barriers cost seconds on tiny partials)
    return (
        winners.map_batches(agg_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(agg_final, batch_size=None, batch_format="pandas")
    )


SQL_CORPUS_CURATION = r"""
WITH f AS (
  SELECT doc_id, text, lang, n_chars
  FROM documents
  WHERE len(list_filter(string_split_regex(text, '\s+'), x -> x != '')) >= 50
), k AS (
  SELECT min(doc_id) AS doc_id FROM f GROUP BY text
)
SELECT f.lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(f.n_chars) AS BIGINT) AS n_chars
FROM f JOIN k ON f.doc_id = k.doc_id
GROUP BY f.lang
"""


def q_median_chars_by_lang(sf_dir: str):
    """Per-group exact order statistic: the lower median of n_chars per
    language (value at 0-based position (n-1)//2 of the sorted group —
    integer, so bit-exact vs the SQL row_number mirror; the selected
    VALUE is tie-order-independent). Shape: one lang-keyed
    co-partition, vectorized in-group selection; the exact path ships
    group values — at corpus scale swap in a quantile sketch."""
    from .joins import grouped_apply

    docs = _t(sf_dir, "documents", columns=["lang", "n_chars"])

    def med(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, grp in df.groupby("lang"):
            v = np.sort(grp["n_chars"].to_numpy(np.int64))
            rows.append(
                {"lang": lang, "n": np.int64(len(v)),
                 "median_chars": v[(len(v) - 1) // 2]}
            )
        out = pd.DataFrame(rows, columns=["lang", "n", "median_chars"])
        out["n"] = out["n"].astype(np.int64)
        out["median_chars"] = out["median_chars"].astype(np.int64)
        return out

    return grouped_apply(docs, "lang", med)


SQL_MEDIAN_CHARS_BY_LANG = """
WITH o AS (
  SELECT lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) - 1 AS rn,
         count(*) OVER (PARTITION BY lang) AS cnt
  FROM documents
)
SELECT lang, CAST(max(cnt) AS BIGINT) AS n,
       CAST(max(CASE WHEN rn = (cnt - 1) // 2 THEN n_chars END) AS BIGINT)
         AS median_chars
FROM o GROUP BY lang
"""


def q_semdedup(sf_dir: str):
    """SemDeDup (cluster embeddings, then drop within-cluster cosine
    near-duplicates; dedup.semdedup_removals) in its integer-exact
    form: floor-quantized int64 vectors, argmax-centroid assignment
    (centroids = the 8 lowest vec_ids), and the cosine >= 0.9 test
    evaluated as dot>0 AND dot^2*100 >= 81*|a|^2|b|^2 — every op exact
    in both numpy and DuckDB, so the removal set is hash-checkable.

    Near-duplicates are PLANTED (vec_id < 40 re-enters at id+1e6 with
    embedding[0] += 0.05): natural random pairs top out near cosine
    0.6, so the raw table would make the removal set vacuously empty.
    The perturbation is float64-identical on both sides (engine numpy
    add, SQL CAST(... AS DOUBLE) + CAST('0.05' AS DOUBLE)), and the
    quantized predicate decides identically by construction — unlike
    the float LSH query (embedding_near_dup) this one also checks the
    clustering."""
    from . import dedup as _dedup

    emb = _t(sf_dir, "embeddings")
    cdf = (
        emb.map_batches(lambda df: df[df["vec_id"] < 8],
                        batch_format="pandas")
        .to_pandas().sort_values("vec_id")
    )
    cvecs = np.stack([np.asarray(v, dtype=np.float64)
                      for v in cdf["embedding"]])
    cent = _dedup.quantize_embeddings(cvecs, 12)

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                 "embedding": pd.Series(dtype=object)})
        ids = df["vec_id"].to_numpy(np.int64)
        vecs = np.stack([np.asarray(v, dtype=np.float64)
                         for v in df["embedding"]])
        m = ids < 40
        dvec = vecs[m].copy()
        dvec[:, 0] = dvec[:, 0] + np.float64(0.05)
        return pd.DataFrame({
            "vec_id": np.concatenate([ids, ids[m] + 1_000_000]),
            "embedding": list(vecs) + list(dvec),
        })

    planted = emb.map_batches(plant, batch_format="pandas")
    return _dedup.semdedup_removals(
        planted, cent, shift=12, t_num=81, t_den=100)


SQL_SEMDEDUP = """
WITH planted AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
  FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id,
         list_concat(
           [CAST(embedding[1] AS DOUBLE) + CAST('0.05' AS DOUBLE)],
           list_transform(list_slice(embedding, 2, len(embedding)),
                          x -> CAST(x AS DOUBLE))) AS e
  FROM embeddings WHERE vec_id < 40
), q AS (
  SELECT vec_id,
         list_transform(e, x -> CAST(floor(x * 4096.0) AS BIGINT)) AS qv
  FROM planted
), qn AS (
  SELECT vec_id, qv,
         CAST(list_sum(list_transform(qv, x -> x * x)) AS BIGINT) AS nrm
  FROM q
), cent AS (
  SELECT vec_id AS cid, qv AS cv FROM q WHERE vec_id < 8
), dots AS (
  SELECT qn.vec_id, cent.cid,
         CAST(list_sum(list_transform(list_zip(qn.qv, cent.cv),
              p -> p[1] * p[2])) AS BIGINT) AS dot
  FROM qn CROSS JOIN cent
), clus AS (
  SELECT vec_id, cid AS cluster
  FROM (SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY dot DESC, cid ASC) AS rn
        FROM dots)
  WHERE rn = 1
), pairs AS (
  SELECT b.vec_id AS idb, ca.cluster AS cluster, a.vec_id AS ida,
         CAST(list_sum(list_transform(list_zip(a.qv, b.qv),
              p -> p[1] * p[2])) AS BIGINT) AS dot,
         a.nrm AS na, b.nrm AS nb
  FROM qn a
  JOIN clus ca ON a.vec_id = ca.vec_id
  JOIN clus cb ON ca.cluster = cb.cluster
  JOIN qn b ON b.vec_id = cb.vec_id AND a.vec_id < b.vec_id
)
SELECT CAST(idb AS BIGINT) AS vec_id,
       CAST(min(cluster) AS BIGINT) AS cluster,
       CAST(min(ida) AS BIGINT) AS dup_of
FROM pairs
WHERE dot > 0 AND dot * dot * 100 >= 81 * na * nb
GROUP BY idb
"""


def q_pq_adc(sf_dir: str):
    """Product-quantization ANN (similarity.pq_adc_topk) in its
    integer-exact form: 64-dim vectors floor-quantized at 2^12, split
    into m=4 subspaces of 16; codebooks are the subvectors of the 8
    lowest vec_ids (the SQL-derivable stand-in for pq_train, same
    recipe as semdedup's centroids); every vector is encoded to its
    4 nearest codewords by exact int64 squared L2 (ties -> lowest
    code), and queries (vec_id < 3) rank the whole corpus by ADC —
    sum of 4 LUT hops — (dist asc, vec_id asc). Every op is exact in
    both numpy int64 and DuckDB BIGINT, so codes, distances and ranks
    hash-check bit-for-bit. The float-codebook path (pq_train Lloyd)
    is pytest-gated."""
    from . import dedup as _dedup
    from . import similarity

    emb = _t(sf_dir, "embeddings")
    cdf = (
        emb.map_batches(lambda df: df[df["vec_id"] < 8],
                        batch_format="pandas")
        .to_pandas().sort_values("vec_id")
    )
    cvecs = np.stack([np.asarray(v, dtype=np.float64)
                      for v in cdf["embedding"]])
    qcent = _dedup.quantize_embeddings(cvecs, 12)          # (8, 64)
    books = np.ascontiguousarray(
        qcent.reshape(8, 4, 16).transpose(1, 0, 2))        # (m=4, 8, 16)

    qdf = cdf[cdf["vec_id"] < 3]  # already collected + sorted above
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in qdf["embedding"]])
    return similarity.pq_adc_topk(
        emb, queries, books, k=10, shift=12,
        query_ids=qdf["vec_id"].to_numpy(np.int64))


SQL_PQ_ADC = """
WITH q AS (
  SELECT vec_id,
         list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * 4096.0) AS BIGINT)) AS qv
  FROM embeddings
), subs AS (
  SELECT vec_id, j, list_slice(qv, j * 16 + 1, j * 16 + 16) AS sv
  FROM q CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS j)
), books AS (
  SELECT vec_id AS code, j, sv AS cv FROM subs WHERE vec_id < 8
), d2 AS (
  SELECT s.vec_id, s.j, b.code,
         CAST(list_sum(list_transform(list_zip(s.sv, b.cv),
              p -> (p[1] - p[2]) * (p[1] - p[2]))) AS BIGINT) AS d2
  FROM subs s JOIN books b USING (j)
), assign AS (
  SELECT vec_id, j, code FROM (
    SELECT vec_id, j, code,
           row_number() OVER (PARTITION BY vec_id, j
                              ORDER BY d2 ASC, code ASC) AS rn
    FROM d2)
  WHERE rn = 1
), lut AS (
  SELECT vec_id AS query_id, j, code, d2 FROM d2 WHERE vec_id < 3
), scores AS (
  SELECT l.query_id, a.vec_id, CAST(sum(l.d2) AS BIGINT) AS dist
  FROM assign a JOIN lut l ON l.j = a.j AND l.code = a.code
  GROUP BY l.query_id, a.vec_id
), r AS (
  SELECT query_id, vec_id, dist,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY dist ASC, vec_id ASC) - 1 AS rank
  FROM scores
)
SELECT query_id, vec_id, dist, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank < 10
"""


def q_embed_kmeans(sf_dir: str):
    """Distributed k-means clustering (similarity.kmeans_int) in its
    integer-exact form — the curation-scale clustering operator
    (SemDeDup / IVF both sit on one): 64-dim vectors quantized to the
    non-negative grid floor((x+1)*512) in [0, 1024), seeded with the
    8 lowest vec_ids, 2 exact Lloyd rounds (int64 squared distances,
    ties -> lowest cid, centroid update by per-dimension floor
    division, empty clusters carried), then a final assignment pass.
    Per-cluster output (size, id-sum, centroid norm) is bit-exact
    against the unrolled SQL mirror because every step is integer —
    unlike train_ivf_centroids' float Lloyd, which is only
    rows-checked."""
    from .similarity import kmeans_int

    emb = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    summary, _cent = kmeans_int(emb, k=8, iters=2)
    return summary


def _sql_kmeans_ctes(k: int = 8, iters: int = 2, d: int = 64) -> str:
    """Unrolled Lloyd CTE chain mirroring similarity.kmeans_int: one
    assignment+update CTE pair per round (same integer ops in the
    same order as the engine; `//` trunc == numpy floor because the
    grid is non-negative), COALESCE carries empty clusters. Ends with
    ``af`` = the final assignment over centroids c{iters} — shared by
    the embed_kmeans and embed_ivf_topk_int mirrors."""
    dist = ("list_sum(list_transform(list_zip(p.x, c.m), "
            "q -> (q[1] - q[2]) * (q[1] - q[2])))")
    rounds = []
    for t in range(1, iters + 1):
        rounds.append(f"""
, a{t} AS (
  SELECT vec_id, cid FROM (
    SELECT p.vec_id, c.cid,
           row_number() OVER (PARTITION BY p.vec_id
                              ORDER BY {dist} ASC, c.cid ASC) AS rn
    FROM pts p CROSS JOIN c{t - 1} c)
  WHERE rn = 1
), g{t} AS (
  SELECT cid, pos, CAST(SUM(v) // COUNT(*) AS BIGINT) AS mm
  FROM (SELECT a.cid, unnest(p.x) AS v,
               unnest(range(1, {d + 1})) AS pos
        FROM a{t} a JOIN pts p USING (vec_id))
  GROUP BY cid, pos
), c{t} AS (
  SELECT c.cid, COALESCE(g.m, c.m) AS m
  FROM c{t - 1} c LEFT JOIN
       (SELECT cid, list(mm ORDER BY pos) AS m FROM g{t} GROUP BY cid) g
       USING (cid)
)""")
    return f"""
WITH pts AS (
  SELECT vec_id,
         list_transform(embedding, x -> LEAST(GREATEST(
             CAST(floor((CAST(x AS DOUBLE) + 1.0) * 512.0) AS BIGINT),
             0), 1023)) AS x
  FROM embeddings
), c0 AS (
  SELECT cid, m FROM (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, x AS m
    FROM pts)
  WHERE cid < {k}
){"".join(rounds)}
, af AS (
  SELECT vec_id, cid FROM (
    SELECT p.vec_id, c.cid,
           row_number() OVER (PARTITION BY p.vec_id
                              ORDER BY {dist} ASC, c.cid ASC) AS rn
    FROM pts p CROSS JOIN c{iters} c)
  WHERE rn = 1
)"""


def _sql_embed_kmeans(k: int = 8, iters: int = 2, d: int = 64) -> str:
    return f"""{_sql_kmeans_ctes(k, iters, d)}
SELECT c.cid AS cluster_id,
       CAST(COALESCE(s.n, 0) AS BIGINT) AS n_points,
       CAST(COALESCE(s.id_sum, 0) AS BIGINT) AS id_sum,
       CAST(list_sum(list_transform(c.m, v -> v * v)) AS BIGINT) AS cnorm2
FROM c{iters} c LEFT JOIN
     (SELECT cid, count(*) AS n, sum(vec_id) AS id_sum
      FROM af GROUP BY cid) s USING (cid)
ORDER BY cluster_id
"""


def q_embed_ivf_topk_int(sf_dir: str):
    """Integer-exact IVF ANN (similarity.ivf_topk_int) — the
    hash-checked twin of embed_ivf_topk's float path: kmeans_int
    centroids (k=8, 2 rounds) partition the corpus into inverted
    lists; queries (vec_id < 3, the pq_adc convention) probe their 3
    nearest centroids by exact int64 squared L2 and rank the probed
    lists' vectors (dist asc, vec_id asc), top-10. Every op is
    integer, so lists, probes, distances and ranks hash-check
    bit-for-bit against the unrolled mirror."""
    from .similarity import ivf_topk_int

    emb = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk_int(emb, np.array([0, 1, 2]), k=10, nprobe=3,
                        n_centroids=8, iters=2)


def _sql_embed_ivf_topk_int(k: int = 8, iters: int = 2, d: int = 64,
                            nprobe: int = 3, topk: int = 10) -> str:
    qdist = ("list_sum(list_transform(list_zip(q.qx, c.m), "
             "t -> (t[1] - t[2]) * (t[1] - t[2])))")
    return f"""{_sql_kmeans_ctes(k, iters, d)}
, qs AS (
  SELECT vec_id AS query_id, x AS qx FROM pts WHERE vec_id < 3
), probe AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (PARTITION BY q.query_id
                              ORDER BY {qdist} ASC, c.cid ASC) AS rn
    FROM qs q CROSS JOIN c{iters} c)
  WHERE rn <= {nprobe}
), scored AS (
  SELECT p.query_id, a.vec_id,
         CAST(list_sum(list_transform(list_zip(q.qx, x.x),
              t -> (t[1] - t[2]) * (t[1] - t[2]))) AS BIGINT) AS dist
  FROM probe p JOIN af a USING (cid)
       JOIN qs q USING (query_id)
       JOIN pts x ON x.vec_id = a.vec_id
)
SELECT query_id, vec_id, dist, CAST(rank AS BIGINT) AS rank FROM (
  SELECT query_id, vec_id, dist,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY dist ASC, vec_id ASC) - 1 AS rank
  FROM scored)
WHERE rank < {topk}
ORDER BY query_id, rank
"""


def q_doc_dsir_weights(sf_dir: str):
    """DSIR-style importance resampling weights (textstats.
    dsir_weights): every non-English document scored by how
    English-like its unigrams are — the contrastive
    target-vs-raw-corpus data-selection operator, in the integer
    log2-floor proxy form that makes per-token contributions exact
    int64 (bit-length of the fixed-point smoothed likelihood ratio),
    so document weights hash-check bit-for-bit against the SQL
    mirror's `length(bin(..)) - 1`."""
    from . import textstats

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])
    return textstats.dsir_weights(docs)


SQL_DOC_DSIR_WEIGHTS = r"""
WITH toks AS (
  SELECT doc_id, lang,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS w
  FROM documents
), ct AS (
  SELECT w,
         CAST(count(*) FILTER (WHERE lang = 'en') AS BIGINT) AS c_t,
         CAST(count(*) FILTER (WHERE lang != 'en') AS BIGINT) AS c_r
  FROM toks GROUP BY w
), lw AS (
  -- bin() is unpadded, so length(bin(x)) - 1 == floor(log2(x)): the
  -- same exact integer log2 as the engine's bit-length kernel
  SELECT w,
         CAST(length(bin((1048576 * (c_t + 1)) // (c_r + 1))) - 1
              AS BIGINT) AS lw
  FROM ct
)
SELECT t.doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(l.lw) AS BIGINT) AS dsir_w
FROM toks t JOIN lw l USING (w)
WHERE t.lang != 'en'
GROUP BY t.doc_id
"""


#: the doc_dict_tags gazetteer — single-token terms present in the
#: synthetic corpus vocabulary (non-vacuous at every SF); keep in sync
#: with SQL_DOC_DICT_TAGS
DICT_TAG_TERMS = ("hash", "merge", "spark", "stream", "vector")


def q_doc_dict_tags(sf_dir: str):
    """Dictionary/gazetteer tagging (textstats.dictionary_tag): exact
    per-document mention counts of a broadcast term list — the
    entity-list / topic-lexicon / blocklist tagger every curation
    pipeline runs beside the regex PII detector. Zero shuffle; exact
    token equality makes the DuckDB token = term join identical by
    construction."""
    from . import textstats

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return textstats.dictionary_tag(docs, DICT_TAG_TERMS)


SQL_DOC_DICT_TAGS = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x != '')) AS w
  FROM documents
), terms AS (
  SELECT unnest(['hash', 'merge', 'spark', 'stream', 'vector']) AS term
)
SELECT t.doc_id, m.term, CAST(count(*) AS BIGINT) AS n_mentions
FROM toks t JOIN terms m ON t.w = m.term
GROUP BY t.doc_id, m.term
"""


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer training (textstats.bpe_train): ONE distributed
    pass collapses the corpus to its exact word-frequency table (the
    only data-sized work); the Sennrich merge loop then learns 60
    merges over that bounded vocabulary. Deterministic by construction
    (count-desc/lexicographic tie rule, exact integer counts), so the
    driver's rows-only rerun check holds; the iterative argmax loop is
    not SQL-expressible (see no_oracle_reasons) — correctness is
    pinned by a scalar-oracle pytest."""
    from . import textstats as _ts

    return _ts.bpe_train(_t(sf_dir, "documents"), 60)


def q_bpe_token_counts(sf_dir: str):
    """Tokenize the corpus with its own trained BPE (textstats.
    bpe_segment_counts over bpe_train's merges) and return the exact
    token frequency table — the train-then-apply composition every
    tokenizer pipeline runs. Merge table broadcast once; per-worker
    distinct-word segmentation memo; one token-bucket shuffle of
    bounded partials."""
    from . import textstats as _ts

    docs = _t(sf_dir, "documents")
    merges = _ts.bpe_train(docs, 60)
    return _ts.bpe_segment_counts(docs, merges)


def q_doc_lang_classifier(sf_dir: str):
    """fastText-shaped linear classifier training loop (classifier.
    train_linear): hashed unigram+bigram features, full-batch softmax
    GD where each epoch is ONE streaming pass emitting fixed-size
    gradient partials against a broadcast weight matrix — the corpus
    is never collected. The synthetic corpus's lang label is
    independent of its text (vocab overlap 1.0), so a learnable signal
    is PLANTED deterministically (8 'mk<lang>' marker tokens appended
    per doc); a correct trainer must reach a perfectly diagonal
    confusion table — any optimizer/feature/merge bug shows up as
    off-diagonal mass. Returns (label, pred, n); rerun-deterministic
    (canonical gradient fold), pinned by scalar-GD-parity pytest."""
    from . import classifier as _clf

    docs = _t(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["text"] = [t + (" mk" + l) * 8
                      for t, l in zip(df["text"], df["lang"])]
        return df

    planted = docs.map_batches(plant, batch_format="pandas")
    langs = ["de", "en", "es", "fr", "zh"]
    w, _ = _clf.train_linear(planted, langs, epochs=10, lr=400.0)
    return _clf.confusion_counts(planted, w, langs)


# ------------------------------------------------- tiling / index / CDC

TILE_LEVELS = (12, 9, 6, 3)


def q_tile_pyramid(sf_dir: str):
    """Multi-zoom tile-pyramid rollup (the tiling-engine flagship shape,
    reference parity: ophois tiles one level; a serving pyramid needs
    every zoom): assign each point its res-12 cell once, then roll the
    count up the parent chain to res 9/6/3 IN THE SAME per-batch pass
    (4 partial count tables per batch, semigroup int sums), one small
    int-key grouped merge. At 100 TB this is one streaming pass + a
    shuffle bounded by the distinct-cell count — the points are never
    re-read per level. Output (res, cell, n) int64."""
    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        fine = cells.cell_of(lat, lon, TILE_LEVELS[0])
        frames = []
        for r in TILE_LEVELS:
            c = fine if r == TILE_LEVELS[0] else cells.parent_to(fine, r)
            u, n = np.unique(c, return_counts=True)
            frames.append(pd.DataFrame({
                "res": np.full(len(u), r, dtype=np.int64),
                "cell": u,
                "n": n.astype(np.int64),
            }))
        return pd.concat(frames, ignore_index=True)

    from .joins import grouped_apply

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["res", "cell"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    return grouped_apply(
        cust.map_batches(partials, batch_format="pandas"),
        ["res", "cell"], merge, num_buckets=16,
    )


def _sql_tile_pyramid() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    fine = cells.oracle_sql_cell_expr(lat, lon, TILE_LEVELS[0])
    # each level re-derived from the fine cell id by the cells.py-owned
    # parent mirror (decode/shift/encode on non-negative fields)
    parts = [
        f"SELECT CAST({r} AS BIGINT) AS res,"
        f" {cells.oracle_sql_parent_expr('cell', r, TILE_LEVELS[0])} AS cell,"
        f" count(*) AS n FROM fine GROUP BY 2"
        for r in TILE_LEVELS
    ]
    return (
        f"WITH fine AS (SELECT {fine} AS cell FROM customer) "
        + " UNION ALL ".join(parts)
    )


ZORDER_RES = 12


def _morton_interleave(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Moved to cells.morton_interleave (the bit layout's home module);
    kept as a thin alias for the zorder query."""
    return cells.morton_interleave(ix, iy)


def q_zorder_stats(sf_dir: str):
    """Space-filling-curve index stats: Morton-interleave each point's
    res-12 (ix, iy) into a z key, bucket by z // 4096 (== the morton
    code of the res-6 ancestor — SFC buckets ARE the coarser tiles) and
    report per-bucket count + z range. The z key is what a range-scan
    tile store sorts by; (zmin, zmax) per bucket shows the locality
    packing. Per-batch partials (sum/min/max semigroup), small int
    merge. Output (zb, n, zmin, zmax) int64."""
    cust = _t(sf_dir, "customer", columns=["c_custkey"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        lat, lon = _coords_from_key(k, 7, 13)
        _, ix, iy = cells.decode(cells.cell_of(lat, lon, ZORDER_RES))
        z = _morton_interleave(ix, iy)
        t = pd.DataFrame({"zb": z // 4096, "z": z})
        g = t.groupby("zb").agg(n=("z", "size"), zmin=("z", "min"),
                                zmax=("z", "max")).reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    from .joins import grouped_apply

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("zb", as_index=False).agg(
            n=("n", "sum"), zmin=("zmin", "min"), zmax=("zmax", "max"))
        g["n"] = g["n"].astype(np.int64)
        return g

    return grouped_apply(
        cust.map_batches(partials, batch_format="pandas"),
        "zb", merge, num_buckets=16,
    )


def _sql_zorder_stats() -> str:
    lat, lon = _sql_coords("c_custkey", 7, 13)
    fine = cells.oracle_sql_cell_expr(lat, lon, ZORDER_RES)
    # morton as a sum of per-bit terms via non-negative // and % —
    # identical to the engine's shift/mask interleave on 12-bit fields
    terms = []
    for b in range(ZORDER_RES):
        terms.append(f"((ix // {1 << b}) % 2) * {1 << (2 * b + 1)}")
        terms.append(f"((iy // {1 << b}) % 2) * {1 << (2 * b)}")
    z = " + ".join(terms)
    ix_expr, iy_expr = cells.oracle_sql_cell_ixiy("cell")
    return f"""
WITH fine AS (SELECT {fine} AS cell FROM customer),
ixy AS (SELECT {ix_expr} AS ix, {iy_expr} AS iy FROM fine),
zs AS (SELECT CAST({z} AS BIGINT) AS z FROM ixy)
SELECT z // 4096 AS zb, count(*) AS n, min(z) AS zmin, max(z) AS zmax
FROM zs GROUP BY 1
"""


def q_events_latest_per_user(sf_dir: str):
    """Snapshot compaction / latest-wins dedup (the (url, warc_ts)
    'keep newest crawl per url' shape on the events table): one
    user-bucket shuffle, vectorized per-bucket argmax by (ts,
    event_id). Per-batch partial argmax first — the shuffle carries at
    most one row per (batch, user). Output int64 us epoch."""
    ev = _t(sf_dir, "events",
            columns=["user_id", "ts", "event_id", "event_type"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "us": us.to_numpy(),
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(),
        })
        return _latest(out)

    def _latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        # tail(1) keeps the last ROW per user; .last() would instead
        # take the last NON-NULL value per column independently and
        # could stitch a franken-row on a null-bearing fixture
        return df.groupby("user_id", sort=False).tail(1)

    from .joins import grouped_apply

    return grouped_apply(
        ev.map_batches(prep, batch_format="pandas"), "user_id", _latest
    )


SQL_EVENTS_LATEST = """
SELECT user_id, us, event_id, event_type FROM (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS us, event_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events)
WHERE rn = 1
"""


def q_doc_topk_per_source(sf_dir: str):
    """Windowed top-k per group (row_number() <= k): the 3 longest docs
    per source by (n_chars DESC, doc_id ASC). Per-batch partial head-3
    per source (the global top-3 is a subset of the union of batch
    top-3s), then one tiny source-bucket merge — the shuffle carries
    3 rows per (batch, source), never the corpus."""
    docs = _t(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def head3(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        out = df.groupby("source", as_index=False).head(3).copy()
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = head3(df)
        df["rk"] = df.groupby("source").cumcount().to_numpy(np.int64) + 1
        return df

    from .joins import grouped_apply

    return grouped_apply(
        docs.map_batches(head3, batch_format="pandas"), "source", final,
        num_buckets=8,
    )


SQL_DOC_TOPK_PER_SOURCE = """
SELECT doc_id, source, n_chars, rk FROM (
  SELECT doc_id, source, n_chars,
         CAST(row_number() OVER (PARTITION BY source
                                 ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rk
  FROM documents)
WHERE rk <= 3
"""


def q_snapshot_diff(sf_dir: str):
    """CDC snapshot diff (added / removed / changed between two crawls
    of a keyed table — the incremental-recrawl shape): snapshots A and
    B are derived deterministically from orders by key arithmetic
    (A drops o_orderkey%11==3, B drops %13==5 and bumps the value where
    %7==0), tagged, unioned, and diffed inside ONE key-co-partitioned
    pass — no driver join, unchanged keys never leave their bucket.
    Missing sides use a -1 sentinel (int columns stay int64)."""
    orders = _t(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def both_sides(df: pd.DataFrame) -> pd.DataFrame:
        # ONE read emits both tagged snapshots (scanning the parquet
        # twice for identical columns would double the I/O)
        k = df["o_orderkey"].to_numpy(np.int64)
        v = df["o_custkey"].to_numpy(np.int64)
        ma = (k % 11) != 3
        mb = (k % 13) != 5
        a = pd.DataFrame({"k": k[ma], "v": v[ma],
                          "side": np.zeros(int(ma.sum()), np.int64)})
        b = pd.DataFrame({"k": k[mb], "v": (v + ((k % 7) == 0))[mb],
                          "side": np.ones(int(mb.sum()), np.int64)})
        return pd.concat([a, b], ignore_index=True)

    both = orders.map_batches(both_sides, batch_format="pandas")

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        p = df.pivot_table(index="k", columns="side", values="v",
                           aggfunc="first")
        old = p[0].to_numpy() if 0 in p.columns else np.full(len(p), np.nan)
        new = p[1].to_numpy() if 1 in p.columns else np.full(len(p), np.nan)
        k = p.index.to_numpy(np.int64)
        added = np.isnan(old)
        removed = np.isnan(new)
        changed = ~added & ~removed & (old != new)
        keep = added | removed | changed
        status = np.where(added, "added",
                          np.where(removed, "removed", "changed"))
        return pd.DataFrame({
            "o_orderkey": k[keep],
            "status": status[keep],
            "old_val": np.where(added, -1, np.nan_to_num(old)).astype(np.int64)[keep],
            "new_val": np.where(removed, -1, np.nan_to_num(new)).astype(np.int64)[keep],
        })

    from .joins import grouped_apply

    return grouped_apply(both, "k", diff)


SQL_SNAPSHOT_DIFF = """
WITH a AS (SELECT o_orderkey AS k, o_custkey AS v FROM orders
           WHERE o_orderkey % 11 != 3),
     b AS (SELECT o_orderkey AS k,
                  o_custkey + CASE WHEN o_orderkey % 7 = 0 THEN 1 ELSE 0 END AS v
           FROM orders WHERE o_orderkey % 13 != 5)
SELECT COALESCE(a.k, b.k) AS o_orderkey,
       CASE WHEN a.k IS NULL THEN 'added'
            WHEN b.k IS NULL THEN 'removed' ELSE 'changed' END AS status,
       CAST(COALESCE(a.v, -1) AS BIGINT) AS old_val,
       CAST(COALESCE(b.v, -1) AS BIGINT) AS new_val
FROM a FULL OUTER JOIN b ON a.k = b.k
WHERE a.k IS NULL OR b.k IS NULL OR a.v != b.v
"""


def q_doc_paragraph_dedup(sf_dir: str):
    """CCNet-shape paragraph-dedup audit. Paragraph structure is
    constructed deterministically (the arithmetic-mirrored recipe):
    each doc contributes P1 = its first 8 words, P2 = the first 8
    words of its LEADER doc (doc_id - doc_id % 5 — a real bucketed
    hash join, not arithmetic shortcut, on the engine side), P3 = its
    words 9..16; empties dropped. Docs sharing a leader therefore
    share P2 (cross-doc dups) and leaders have P1 == P2 (within-doc
    dup). The engine does REAL word splitting/joining and real global
    string-equality counting via textstats.paragraph_dup_stats; any
    mis-split or mis-join fails the hash."""
    # two consumers (body + heads) — materialize or the parquet read
    # and text decode re-execute per hash_join side (CLAUDE.md rule)
    docs = _t(sf_dir, "documents", columns=["doc_id", "text"]).materialize()

    def heads(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(np.int64)
        m = (d % 5) == 0
        texts = df["text"].to_numpy(object)[m]
        h8 = [" ".join(t.split(" ")[:8]) for t in texts]
        return pd.DataFrame({"leader": d[m],
                             "p2": np.array(h8, dtype=object)})

    def body(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(np.int64)
        p1, p3 = [], []
        for t in df["text"].to_numpy(object):
            w = t.split(" ")
            p1.append(" ".join(w[:8]))
            p3.append(" ".join(w[8:16]))
        return pd.DataFrame({
            "doc_id": d, "leader": d - d % 5,
            "p1": np.array(p1, dtype=object),
            "p3": np.array(p3, dtype=object),
        })

    from .joins import hash_join

    joined = hash_join(
        docs.map_batches(body, batch_format="pandas"),
        docs.map_batches(heads, batch_format="pandas"),
        on="leader", num_buckets=16,
    )

    def flatten(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(np.int64)
        frames = [pd.DataFrame({"doc_id": d,
                                "para": df[c].to_numpy(object)})
                  for c in ("p1", "p2", "p3")]
        out = pd.concat(frames, ignore_index=True)
        return out[out["para"] != ""]

    from . import textstats

    paras = joined.map_batches(flatten, batch_format="pandas")
    return textstats.paragraph_dup_stats(paras, num_buckets=32)


SQL_DOC_PARAGRAPH_DEDUP = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
pairs AS (
  SELECT a.doc_id,
         array_to_string(list_slice(a.ws, 1, 8), ' ') AS p1,
         array_to_string(list_slice(b.ws, 1, 8), ' ') AS p2,
         array_to_string(list_slice(a.ws, 9, 16), ' ') AS p3
  FROM w a JOIN w b ON b.doc_id = a.doc_id - a.doc_id % 5),
paras AS (
  SELECT doc_id, p FROM (
    SELECT doc_id, unnest([p1, p2, p3]) AS p FROM pairs)
  WHERE p <> ''),
c AS (SELECT doc_id, p, count(*) OVER (PARTITION BY p) AS c FROM paras)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_paras,
       CAST(sum(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       CAST(sum(CASE WHEN c >= 2 THEN length(p) ELSE 0 END) AS BIGINT)
         AS dup_chars
FROM c GROUP BY doc_id
"""


def q_doc_sample_global(sf_dir: str):
    """Deterministic global 100-doc sample by hash priority
    (sampling.sample_global): reproducible across cluster sizes,
    layouts and appends — the distributed ORDER BY hash LIMIT n."""
    from . import sampling

    docs = _t(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = sampling.sample_global(docs, "doc_id", 100)
    return out.to_pandas()[["doc_id", "n_chars", "rk"]]


SQL_DOC_SAMPLE_GLOBAL = f"""
SELECT doc_id, n_chars,
       CAST(row_number() OVER (
         ORDER BY {SQL_SAMPLE_HASH.format(key="doc_id")}, doc_id)
         AS BIGINT) AS rk
FROM documents QUALIFY rk <= 100
"""


WATERMARK_WINDOW_US = 3_600_000_000   # 1 h tumbling windows
WATERMARK_LATENESS_US = 600_000_000   # 10 min allowed lateness


def q_users_click_not_purchase(sf_dir: str):
    """Distributed set difference (EXCEPT): distinct (user, day) pairs
    with a 'click' event minus pairs with a 'purchase' event that day.
    One int-key bucket shuffle; per-batch pre-dedup of (user, day,
    side) triples bounds the exchange at distinct-triples-per-block;
    the per-bucket membership test is exact because a (user, day)
    pair's every row lands in one bucket."""
    ev = _t(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        t = df["event_type"].to_numpy(object)
        keep = (t == "click") | (t == "purchase")
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64)[keep],
            "day": (us.to_numpy()[keep] // 86_400_000_000),
            "side": (t[keep] == "purchase").astype(np.int64),
        })
        return out.drop_duplicates()

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates()
        pos = g.loc[g["side"] == 0, ["user_id", "day"]]
        neg = g.loc[g["side"] == 1, ["user_id", "day"]]
        out = pos.merge(neg, on=["user_id", "day"], how="left",
                        indicator=True)
        out = out[out["_merge"] == "left_only"][["user_id", "day"]]
        out = out.sort_values(["user_id", "day"], ignore_index=True)
        return out.astype(np.int64)

    from .joins import grouped_apply

    return grouped_apply(
        ev.map_batches(prep, batch_format="pandas"), ["user_id", "day"],
        diff, num_buckets=16,
    )


SQL_USERS_CLICK_NOT_PURCHASE = """
SELECT DISTINCT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
FROM events WHERE event_type = 'click'
EXCEPT
SELECT DISTINCT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
FROM events WHERE event_type = 'purchase'
"""


def q_users_click_and_purchase(sf_dir: str):
    """Distributed set intersection (INTERSECT): distinct (user, day)
    pairs with BOTH a 'click' and a 'purchase' that day — same
    pre-deduped single-shuffle shape as the EXCEPT twin; per-bucket
    membership is exact by co-location."""
    ev = _t(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        t = df["event_type"].to_numpy(object)
        keep = (t == "click") | (t == "purchase")
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64)[keep],
            "day": (us.to_numpy()[keep] // 86_400_000_000),
            "side": (t[keep] == "purchase").astype(np.int64),
        }).drop_duplicates()

    def isect(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates()
        n = g.groupby(["user_id", "day"], as_index=False)["side"].nunique()
        out = n[n["side"] == 2][["user_id", "day"]]
        return out.sort_values(["user_id", "day"],
                               ignore_index=True).astype(np.int64)

    from .joins import grouped_apply

    return grouped_apply(
        ev.map_batches(prep, batch_format="pandas"), ["user_id", "day"],
        isect, num_buckets=16,
    )


SQL_USERS_CLICK_AND_PURCHASE = """
SELECT DISTINCT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
FROM events WHERE event_type = 'click'
INTERSECT
SELECT DISTINCT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
FROM events WHERE event_type = 'purchase'
"""


def q_events_running_total(sf_dir: str):
    """Cumulative window aggregate (SUM OVER ... ROWS UNBOUNDED
    PRECEDING): per-user running total of floor(value*100) cents in
    (ts, event_id) order, returned for each user's LAST 5 events (ranked
    from the end so output stays bounded). One user-bucket shuffle;
    per-bucket vectorized sort + cumsum — a user's history is co-located
    so the prefix sum is exact; integer cents keep it order-free."""
    ev = _t(sf_dir, "events",
            columns=["user_id", "ts", "event_id", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "us": us.to_numpy(),
            "event_id": df["event_id"].to_numpy(np.int64),
            "cents": np.floor(df["value"].to_numpy(np.float64) * 100.0
                              ).astype(np.int64),
        })

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "us", "event_id"],
                            ignore_index=True, kind="mergesort")
        c = df["cents"].to_numpy(np.int64)
        grp = df["user_id"].to_numpy(np.int64)
        tot = np.cumsum(c)
        first = np.ones(len(df), dtype=bool)
        first[1:] = grp[1:] != grp[:-1]
        base = np.repeat(tot[first] - c[first],
                         np.diff(np.append(np.where(first)[0], len(df))))
        df["running_cents"] = tot - base
        # keep each user's last 5 events, ranked 1..5 from the end
        tail = df.groupby("user_id", sort=False).cumcount(ascending=False)
        out = df[tail < 5].copy()
        out["rk_from_end"] = (tail[tail < 5] + 1).to_numpy(np.int64)
        return out[["user_id", "event_id", "running_cents", "rk_from_end"]]

    from .joins import grouped_apply

    return grouped_apply(
        ev.map_batches(prep, batch_format="pandas"), "user_id", scan,
        num_buckets=16,
    )


SQL_EVENTS_RUNNING_TOTAL = """
SELECT user_id, event_id, running_cents, rk_from_end FROM (
  SELECT user_id, event_id,
         CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents,
         CAST(row_number() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC)
           AS BIGINT) AS rk_from_end
  FROM events)
WHERE rk_from_end <= 5
"""


WATERMARK_JITTER_US = 1_200_000_000   # arrival disorder bound: 20 min


def q_events_watermark_late(sf_dir: str):
    """Streaming allowed-lateness accounting: replay the events stream
    in a deterministic arrival order with BOUNDED disorder (arrival =
    event time + sample_hash(event_id) % 20 min — the realistic
    network-delay model, so some events overtake others by up to 20
    min), maintain the watermark = running-max(event time) - 10 min,
    and count events per (1 h window, late flag) —
    windows.watermark_late_counts, the exact distributed two-pass
    prefix-max. Lateness < disorder bound gives a genuine on-time/late
    mix rather than an all-late degenerate stream."""
    from . import sampling, windows

    ev = _t(sf_dir, "events", columns=["event_id", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype("int64")
        eid = df["event_id"].to_numpy(np.int64)
        jitter = sampling.sample_hash(eid) % np.int64(WATERMARK_JITTER_US)
        return pd.DataFrame({"event_id": eid, "us": us.to_numpy(),
                             "akey": us.to_numpy() + jitter})

    return windows.watermark_late_counts(
        ev.map_batches(prep, batch_format="pandas"),
        window_us=WATERMARK_WINDOW_US, lateness_us=WATERMARK_LATENESS_US,
    )


SQL_EVENTS_WATERMARK_LATE = f"""
WITH e AS (
  SELECT event_id, CAST(epoch_us(ts) AS BIGINT) AS us,
         CAST(epoch_us(ts) AS BIGINT)
           + ({SQL_SAMPLE_HASH.format(key="event_id")})
             % {WATERMARK_JITTER_US} AS akey
  FROM events),
w AS (
  SELECT us,
         max(us) OVER (ORDER BY akey, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM e)
SELECT CAST(us // {WATERMARK_WINDOW_US} AS BIGINT) AS win,
       CAST(CASE WHEN wm IS NOT NULL
                  AND us < wm - {WATERMARK_LATENESS_US}
             THEN 1 ELSE 0 END AS BIGINT) AS late,
       CAST(count(*) AS BIGINT) AS n
FROM w GROUP BY 1, 2
"""


def q_image_phash_neardup(sf_dir: str):
    """Image near-dup via 64-bit perceptual hash — the multimodal twin
    of simhash dedup. A deterministic image corpus is synthesized per
    doc (leader = doc_id - doc_id % 7 seeds the base pattern; k =
    doc_id % 7 adds a low-frequency tilt, so each leader group is a
    planted near-dup cluster at hamming <= 3), round-tripped through
    the REAL netpbm encoder/decoder (actor pool), hashed by
    multimodal.phash64 (32x32 bilinear + 2-D DCT + median bits, actor
    pool), and paired by the generic banding engine
    dedup.hash64_near_dup_pairs. no_oracle: the DCT is float; output
    is rerun/layout-deterministic and pinned by a scalar-oracle
    pytest. Output (id_a, id_b, hamming) int64."""
    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        d = df["doc_id"].to_numpy(np.int64)
        media = []
        for k in d:
            leader = int(k - k % 7)
            rng = np.random.RandomState(leader % (1 << 31))
            base = rng.randint(0, 256, (48, 64, 3)).astype(np.int64)
            t = int(k % 7)
            tilt = (np.linspace(0, 2 * t, 64)[None, :, None]
                    + np.linspace(0, t, 48)[:, None, None])
            img = np.clip(base + tilt.astype(np.int64), 0, 255).astype(np.uint8)
            media.append(mm.encode_ppm(img))
        return pd.DataFrame({"doc_id": d, "media": media})

    from . import dedup as _dedup
    from . import multimodal as mm

    imgs = docs.map_batches(gen, batch_format="pandas")
    pix = mm.decode_images(imgs, mode="ppm", concurrency=8)
    hashed = mm.phash_images(pix)
    pairs = _dedup.hash64_near_dup_pairs(
        hashed, hash_col="phash", id_col="doc_id", max_hamming=3
    ).to_pandas()  # planted near-dup clusters only — fixture-sized
    if pairs.empty:  # 0-row to_pandas drops columns
        return pd.DataFrame({c: pd.Series(dtype=np.int64)
                             for c in ("id_a", "id_b", "hamming")})
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_video_h264_stats(sf_dir: str):
    """HASH-CHECKED H.264 decode: per sampled doc a deterministic
    grayscale all-I_PCM Annex B clip is synthesized ((k%3)+2 frames of
    constant value (k*7 + f*13) % 256 at fps (k%4)+5), round-tripped
    through the REAL encoder + decoder (NAL/Exp-Golomb/emulation-
    prevention syntax both ways; grayscale I_PCM is bit-exact), and
    reduced to integers the SQL mirror CONSTRUCTS from the same
    arithmetic: any mis-parse of the stream, frame count, VUI timing
    or sample placement fails the driver hash. A 16x16 constant frame
    makes the float mean exact (sum = 256*v, /256 is a power of two)."""
    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        d = df["doc_id"].to_numpy(np.int64)
        d = d[d % 5 == 0]
        media = []
        for k in d:
            n = int(k % 3) + 2
            frames = np.stack([
                np.full((16, 16, 3), (int(k) * 7 + f * 13) % 256, np.uint8)
                for f in range(n)
            ])
            media.append(mm.encode_h264_ipcm(frames, fps=int(k % 4) + 5))
        return pd.DataFrame({"doc_id": d, "media": media})

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        ks, nf, upf, ls = [], [], [], []
        for k, raw in zip(df["doc_id"].to_numpy(np.int64), df["media"]):
            fr, u = mm.decode_video(raw)
            luma = np.round(fr[..., 0] * 255.0).astype(np.int64)
            ks.append(int(k))
            nf.append(fr.shape[0])
            upf.append(int(u))
            ls.append(int(luma.mean(axis=(1, 2)).sum()))
        return pd.DataFrame({
            "doc_id": np.array(ks, dtype=np.int64),
            "n_frames": np.array(nf, dtype=np.int64),
            "usec_per_frame": np.array(upf, dtype=np.int64),
            "luma_sum": np.array(ls, dtype=np.int64),
        })

    return docs.map_batches(gen, batch_format="pandas").map_batches(
        feats, batch_format="pandas")


SQL_VIDEO_H264_STATS = """
WITH d AS (SELECT doc_id AS k FROM documents WHERE doc_id % 5 = 0),
f AS (SELECT k, unnest(range(0, (k % 3) + 2)) AS fi FROM d)
SELECT k AS doc_id,
       CAST((k % 3) + 2 AS BIGINT) AS n_frames,
       CAST(1000000 // ((k % 4) + 5) AS BIGINT) AS usec_per_frame,
       CAST(sum((k * 7 + fi * 13) % 256) AS BIGINT) AS luma_sum
FROM f GROUP BY k
"""


def q_video_h264_cavlc_stats(sf_dir: str):
    """HASH-CHECKED compressed-intra H.264: per sampled doc a clip of
    flat 16x16 frames (value 128 + (k*7 + f*13) % 128, fps (k%4)+5) is
    coded through the REAL Intra_16x16 + CAVLC path at qp=20 and
    decoded back. A flat single-MB frame makes the whole codec chain
    closed-form integer arithmetic the SQL mirror CONSTRUCTS: DC pred
    128, luma-DC Hadamard 256*(v-128), quant lv = (128*(v-128)*10082
    + 174762) // 2^19 (spec MF/V tables at qp%6=2), dequant lv*26,
    inverse transform (lv*26+32)//64 — so one wrong constant in the
    quant tables, Hadamard gains, rounding shifts, Exp-Golomb or
    CAVLC coding fails the driver hash. Values are kept >= 128 so
    every divided operand is non-negative (numpy >> floors, DuckDB
    // truncates). n_cavlc_mbs pins that no MB fell back to I_PCM."""
    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        d = df["doc_id"].to_numpy(np.int64)
        d = d[d % 5 == 1]
        media = []
        for k in d:
            n = int(k % 3) + 2
            frames = np.stack([
                np.full((16, 16, 3),
                        128 + (int(k) * 7 + f * 13) % 128, np.uint8)
                for f in range(n)
            ])
            media.append(mm.encode_h264_cavlc(
                frames, qp=20, fps=int(k % 4) + 5))
        return pd.DataFrame({"doc_id": d, "media": media})

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        ks, nf, nc, upf, ls = [], [], [], [], []
        for k, raw in zip(df["doc_id"].to_numpy(np.int64), df["media"]):
            fr, u, mbts = mm.decode_h264_intra(raw, return_mb_types=True)
            luma = np.round(fr[..., 0] * 255.0).astype(np.int64)
            ks.append(int(k))
            nf.append(fr.shape[0])
            nc.append(sum(1 for s in mbts for t in s if 1 <= t <= 24))
            upf.append(int(u))
            ls.append(int(luma.mean(axis=(1, 2)).sum()))
        return pd.DataFrame({
            "doc_id": np.array(ks, dtype=np.int64),
            "n_frames": np.array(nf, dtype=np.int64),
            "n_cavlc_mbs": np.array(nc, dtype=np.int64),
            "usec_per_frame": np.array(upf, dtype=np.int64),
            "luma_sum": np.array(ls, dtype=np.int64),
        })

    return docs.map_batches(gen, batch_format="pandas").map_batches(
        feats, batch_format="pandas")


SQL_VIDEO_H264_CAVLC_STATS = """
WITH d AS (SELECT doc_id AS k FROM documents WHERE doc_id % 5 = 1),
f AS (SELECT k, unnest(range(0, (k % 3) + 2)) AS fi FROM d),
p AS (SELECT k, fi, 128 + ((k * 7 + fi * 13) % 128) AS v FROM f),
q AS (SELECT k, fi,
             (128 * (v - 128) * 10082 + 174762) // 524288 AS lv FROM p),
r AS (SELECT k, fi, LEAST(128 + (lv * 26 + 32) // 64, 255) AS pix FROM q)
SELECT k AS doc_id,
       CAST((k % 3) + 2 AS BIGINT) AS n_frames,
       CAST((k % 3) + 2 AS BIGINT) AS n_cavlc_mbs,
       CAST(1000000 // ((k % 4) + 5) AS BIGINT) AS usec_per_frame,
       CAST(sum(pix) AS BIGINT) AS luma_sum
FROM r GROUP BY k
"""


def q_video_h264_p_stats(sf_dir: str):
    """HASH-CHECKED inter-frame H.264 (P slices): per sampled doc a
    GOP-2 grayscale clip is coded through the REAL encoder — constant
    32x32 frames whose value changes only at GOP boundaries, with
    pcm_threshold=0 so every IDR macroblock is I_PCM (lossless for any
    value) and every P frame reproduces its reference exactly, which
    the encoder must express as four P_Skip macroblocks (zero-vector
    rule + skip-first tie-break). The decoder walks the full P-slice
    syntax — NAL type 1, P slice headers (num_ref_idx override / ref
    list modification / marking flags), mb_skip_run coding, skip MV
    inference, motion-compensated copy — and the outputs are integers
    the SQL mirror CONSTRUCTS from the doc_id arithmetic: frame count,
    P-frame count, skip-macroblock count and exact luma sums. Any
    mis-parse (a wrong skip run, an MV that isn't forced to zero, a
    reference-plane mixup) changes a count or a luma value and fails
    the driver hash."""
    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        d = df["doc_id"].to_numpy(np.int64)
        d = d[d % 5 == 2]
        media = []
        for k in d:
            n = int(k % 3) + 2
            frames = np.stack([
                np.full((32, 32, 3),
                        (int(k) * 7 + (f // 2) * 13) % 256, np.uint8)
                for f in range(n)
            ])
            media.append(mm.encode_h264_cavlc(
                frames, qp=20, fps=int(k % 4) + 5, gop=2,
                pcm_threshold=0))
        return pd.DataFrame({"doc_id": d, "media": media})

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        ks, nf, npf, nsk, upf, ls = [], [], [], [], [], []
        for k, raw in zip(df["doc_id"].to_numpy(np.int64), df["media"]):
            fr, u, mbts = mm.decode_h264(raw, return_mb_types=True)
            luma = np.round(fr[..., 0] * 255.0).astype(np.int64)
            ks.append(int(k))
            nf.append(fr.shape[0])
            npf.append(sum(1 for s in mbts if any(t == -1 for t in s)))
            nsk.append(sum(1 for s in mbts for t in s if t == -1))
            upf.append(int(u))
            ls.append(int(luma.mean(axis=(1, 2)).sum()))
        return pd.DataFrame({
            "doc_id": np.array(ks, dtype=np.int64),
            "n_frames": np.array(nf, dtype=np.int64),
            "n_p_frames": np.array(npf, dtype=np.int64),
            "n_skip_mb": np.array(nsk, dtype=np.int64),
            "usec_per_frame": np.array(upf, dtype=np.int64),
            "luma_sum": np.array(ls, dtype=np.int64),
        })

    return docs.map_batches(gen, batch_format="pandas").map_batches(
        feats, batch_format="pandas")


SQL_VIDEO_H264_P_STATS = """
WITH d AS (SELECT doc_id AS k FROM documents WHERE doc_id % 5 = 2),
f AS (SELECT k, unnest(range(0, (k % 3) + 2)) AS fi FROM d)
SELECT k AS doc_id,
       CAST((k % 3) + 2 AS BIGINT) AS n_frames,
       CAST(((k % 3) + 2) // 2 AS BIGINT) AS n_p_frames,
       CAST(4 * (((k % 3) + 2) // 2) AS BIGINT) AS n_skip_mb,
       CAST(1000000 // ((k % 4) + 5) AS BIGINT) AS usec_per_frame,
       CAST(sum((k * 7 + (fi // 2) * 13) % 256) AS BIGINT) AS luma_sum
FROM f GROUP BY k
"""


def q_video_h264_deblock_stats(sf_dir: str):
    """HASH-CHECKED in-loop deblocking oracle (multimodal 8.7 filter):
    per sampled doc a two-picture stream is HAND-CRAFTED from doc_id
    arithmetic with the library's own bit writer — an all-I_PCM IDR
    carrying an exact sawtooth pattern (the lossless reference), then
    a P slice of [P_L0 mv 0 | P_L0 mv 4*s1 | I_PCM shifted s2 |
    P_L0 mv 0] macroblocks, cbp 0 throughout, deblocking signalled ON
    (idc 0). Every pre-filter pixel of picture 1 is therefore exact
    closed-form: integer-MV motion compensation copies the PCM
    reference and the mid-frame I_PCM block is written verbatim. The
    decoder must then run the REAL filter: edge 0 (x=16) is a bS=1
    NORMAL filter at full slice qp (tc0 clipping, ap/aq taps,
    |p1-p0|<beta gates — all exercised across qp in {20,28,36,44} and
    sawtooth periods m in {4,8,16,32}), edges 1-2 (x=32/48) are bS=4
    intra-MB-edge STRONG filters at qPav=(qp+1)>>1 with the I_PCM
    side at QP 0 (alpha 0 at qp<=28 — the no-op rows are part of the
    oracle too). The SQL mirror is an INDEPENDENT transcription of
    the spec equations (alpha/beta/tC0 constants re-derived from
    Tables 8-16/8-17, not read from the code): per (doc, edge, row)
    it reconstructs p3..q3 from the pattern arithmetic, applies the
    same strong/normal CASE ladder and aggregates six per-edge column
    sums — any filter bug (wrong table entry, wrong clip, wrong bS,
    wrong edge order, a filtered sample leaking into a neighbour
    column) fails the driver hash."""
    from . import multimodal as mm

    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def craft(k: int) -> bytes:
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
        w.ue(0); w.se(0); w.se(0)        # deblocking ON, offsets 0
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
        w.ue(0); w.se(0); w.se(0)
        refg = np.full((1, 4), -1, np.int64)
        mvg = np.zeros((1, 4, 2), np.int64)
        mvs = {0: (0, 0), 1: (4 * s1, 0), 3: (0, 0)}
        for mbx in range(4):
            if mbx == 2:
                w.ue(0)
                w.ue(30); w.align_zero()   # I_PCM inside the P slice
                w.raw_bytes(pat(xx + s2)[:, 32:48].tobytes())
                w.raw_bytes(flat); w.raw_bytes(flat)
                continue
            mvx, mvy = mvs[mbx]
            mvp = mm._h264_mvp16(refg, mvg, 0, mbx)
            w.ue(0)
            w.ue(0)
            w.se(mvx - mvp[0]); w.se(mvy - mvp[1])
            w.ue(mm._CBP_INTER_ENC[0])
            refg[0, mbx] = 0
            mvg[0, mbx] = (mvx, mvy)
        w.trailing()
        out += start + b"\x41" + mm._ebsp_escape(bytes(w.buf))
        return out

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(np.int64)
        d = d[d % 3 == 1]
        ks, js = [], []
        sums = [[] for _ in range(6)]
        for k in d:
            k = int(k)
            dec, _ = mm.decode_h264(craft(k))
            luma1 = np.round(dec[1][..., 0] * 255.0).astype(np.int64)
            for j, xe in enumerate((16, 32, 48)):
                ks.append(k)
                js.append(j)
                for c in range(6):
                    sums[c].append(int(luma1[:, xe - 3 + c].sum()))
        names = ["s_p2", "s_p1", "s_p0", "s_q0", "s_q1", "s_q2"]
        out = {"doc_id": np.array(ks, np.int64),
               "edge": np.array(js, np.int64)}
        for n, v in zip(names, sums):
            out[n] = np.array(v, np.int64)
        return pd.DataFrame(out)

    return docs.map_batches(rows, batch_format="pandas")


SQL_VIDEO_H264_DEBLOCK_STATS = """
WITH d AS (SELECT doc_id AS k FROM documents WHERE doc_id % 3 = 1),
p AS (SELECT k,
        CASE k % 4 WHEN 0 THEN 20 WHEN 1 THEN 28
                   WHEN 2 THEN 36 ELSE 44 END AS qp,
        CASE (k // 4) % 4 WHEN 0 THEN 4 WHEN 1 THEN 8
                          WHEN 2 THEN 16 ELSE 32 END AS m,
        80 + k % 40 AS base,
        1 + k % 2 AS s1,
        -1 - ((k // 2) % 2) AS s2
      FROM d),
-- spec Tables 8-16/8-17 at the indices this fixture reaches:
-- indexA = qp for the bS-1 edge; indexA = (qp+1)//2 (I_PCM side QP 0)
-- for the bS-4 edges
t AS (SELECT p.*,
        CASE qp WHEN 20 THEN 7 WHEN 28 THEN 20
                WHEN 36 THEN 50 ELSE 127 END AS a1,
        CASE qp WHEN 20 THEN 3 WHEN 28 THEN 7
                WHEN 36 THEN 11 ELSE 15 END AS b1,
        CASE qp WHEN 20 THEN 0 WHEN 28 THEN 1
                WHEN 36 THEN 2 ELSE 6 END AS tc0,
        CASE qp WHEN 20 THEN 0 WHEN 28 THEN 0
                WHEN 36 THEN 5 ELSE 9 END AS a4,
        CASE qp WHEN 20 THEN 0 WHEN 28 THEN 0
                WHEN 36 THEN 2 ELSE 3 END AS b4
      FROM p),
e AS (SELECT t.*, CAST(range AS BIGINT) AS j
      FROM t CROSS JOIN range(3)),
g AS (SELECT e.*,
        16 * (j + 1) AS xe,
        CASE j WHEN 0 THEN 0 WHEN 1 THEN s1 ELSE s2 END AS sl,
        CASE j WHEN 0 THEN s1 WHEN 1 THEN s2 ELSE 0 END AS sr,
        CASE WHEN j = 0 THEN a1 ELSE a4 END AS aa,
        CASE WHEN j = 0 THEN b1 ELSE b4 END AS bb
      FROM e),
r AS (SELECT g.*, CAST(range AS BIGINT) AS y
      FROM g CROSS JOIN range(16)),
s AS (SELECT k, j, y, aa, bb, tc0,
        base + ((xe - 1 + sl) * 5 + y * 3) % m AS p0,
        base + ((xe - 2 + sl) * 5 + y * 3) % m AS p1,
        base + ((xe - 3 + sl) * 5 + y * 3) % m AS p2,
        base + ((xe - 4 + sl) * 5 + y * 3) % m AS p3,
        base + ((xe + 0 + sr) * 5 + y * 3) % m AS q0,
        base + ((xe + 1 + sr) * 5 + y * 3) % m AS q1,
        base + ((xe + 2 + sr) * 5 + y * 3) % m AS q2,
        base + ((xe + 3 + sr) * 5 + y * 3) % m AS q3
      FROM r),
c AS (SELECT s.*,
        (abs(p0 - q0) < aa AND abs(p1 - p0) < bb
         AND abs(q1 - q0) < bb) AS filt,
        (abs(p2 - p0) < bb) AS ap,
        (abs(q2 - q0) < bb) AS aq,
        (abs(p0 - q0) < (aa // 4) + 2) AS small,
        tc0 + (CASE WHEN abs(p2 - p0) < bb THEN 1 ELSE 0 END)
            + (CASE WHEN abs(q2 - q0) < bb THEN 1 ELSE 0 END) AS tc
      FROM s),
-- normal-filter delta: arithmetic >>3 of a possibly-negative value =
-- floor; keep operands positive for DuckDB's truncating //
n AS (SELECT c.*,
        GREATEST(-tc, LEAST(tc,
          ((q0 - p0) * 4 + (p1 - q1) + 4 + 2048) // 8 - 256)) AS dlt,
        GREATEST(-tc0, LEAST(tc0,
          (p2 + (p0 + q0 + 1) // 2 - 2 * p1 + 1024) // 2 - 512)) AS dp1,
        GREATEST(-tc0, LEAST(tc0,
          (q2 + (q0 + p0 + 1) // 2 - 2 * q1 + 1024) // 2 - 512)) AS dq1
      FROM c),
f AS (SELECT k, j,
        CASE WHEN j >= 1 AND filt AND ap AND small
               THEN (2 * p3 + 3 * p2 + p1 + p0 + q0 + 4) // 8
             ELSE p2 END AS np2,
        CASE WHEN j = 0 AND filt AND ap THEN p1 + dp1
             WHEN j >= 1 AND filt AND ap AND small
               THEN (p2 + p1 + p0 + q0 + 2) // 4
             ELSE p1 END AS np1,
        CASE WHEN j = 0 AND filt
               THEN LEAST(255, GREATEST(0, p0 + dlt))
             WHEN j >= 1 AND filt AND ap AND small
               THEN (p2 + 2 * p1 + 2 * p0 + 2 * q0 + q1 + 4) // 8
             WHEN j >= 1 AND filt
               THEN (2 * p1 + p0 + q1 + 2) // 4
             ELSE p0 END AS np0,
        CASE WHEN j = 0 AND filt
               THEN LEAST(255, GREATEST(0, q0 - dlt))
             WHEN j >= 1 AND filt AND aq AND small
               THEN (q2 + 2 * q1 + 2 * q0 + 2 * p0 + p1 + 4) // 8
             WHEN j >= 1 AND filt
               THEN (2 * q1 + q0 + p1 + 2) // 4
             ELSE q0 END AS nq0,
        CASE WHEN j = 0 AND filt AND aq THEN q1 + dq1
             WHEN j >= 1 AND filt AND aq AND small
               THEN (q2 + q1 + q0 + p0 + 2) // 4
             ELSE q1 END AS nq1,
        CASE WHEN j >= 1 AND filt AND aq AND small
               THEN (2 * q3 + 3 * q2 + q1 + q0 + p0 + 4) // 8
             ELSE q2 END AS nq2
      FROM n)
SELECT k AS doc_id, j AS edge,
       CAST(sum(np2) AS BIGINT) AS s_p2,
       CAST(sum(np1) AS BIGINT) AS s_p1,
       CAST(sum(np0) AS BIGINT) AS s_p0,
       CAST(sum(nq0) AS BIGINT) AS s_q0,
       CAST(sum(nq1) AS BIGINT) AS s_q1,
       CAST(sum(nq2) AS BIGINT) AS s_q2
FROM f GROUP BY k, j
"""


def q_video_phash_neardup(sf_dir: str):
    """Video near-dup via temporally-pooled perceptual hashing: a
    deterministic MJPEG-AVI corpus is synthesized per doc (leader =
    doc_id - doc_id % 5 seeds the base pattern; frames roll the base
    horizontally — real motion; k = doc_id % 5 adds a tilt, so each
    leader group is a planted near-dup cluster), round-tripped through
    the REAL AVI container + baseline JPEG codec (actor pool),
    fingerprinted by multimodal.video_phash64 (per-frame pHash +
    bitwise-majority pooling), and paired by
    dedup.hash64_near_dup_pairs. The clip corpus is deterministically
    subsampled (doc_id % 4 == 0) — the pure-Python JPEG codec is the
    honest no-library price and dominates wall time, so the fixture
    stays bench-sized while still planting multi-member leader groups.
    no_oracle (float DCT); deterministic, pinned by scalar-oracle
    pytest. Output (id_a, id_b, hamming)."""
    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        d = df["doc_id"].to_numpy(np.int64)
        d = d[d % 4 == 0]
        media = []
        for k in d:
            leader = int(k - k % 5)
            rng = np.random.RandomState((leader + 77) % (1 << 31))
            base = rng.randint(0, 256, (32, 48, 3)).astype(np.int64)
            t = int(k % 5)
            tilt = (np.linspace(0, 2 * t, 48)[None, :, None]
                    + np.linspace(0, t, 32)[:, None, None]).astype(np.int64)
            frames = np.stack([
                np.clip(np.roll(base, f, axis=1) + tilt, 0, 255
                        ).astype(np.uint8)
                for f in range(4)])
            media.append(mm.encode_avi_mjpeg(frames, fps=10, quality=85))
        return pd.DataFrame({"doc_id": d, "media": media})

    from . import dedup as _dedup
    from . import multimodal as mm

    clips = docs.map_batches(gen, batch_format="pandas")
    sigs = mm.video_phash_signatures(clips, concurrency=8)
    pairs = _dedup.hash64_near_dup_pairs(
        sigs, hash_col="vhash", id_col="doc_id", max_hamming=3
    ).to_pandas()  # planted leader groups only — fixture-sized
    if pairs.empty:  # 0-row to_pandas drops columns
        return pd.DataFrame({c: pd.Series(dtype=np.int64)
                             for c in ("id_a", "id_b", "hamming")})
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_SQL_SSSP_ROUND = """, d{i} AS (
  SELECT node, min(dist) AS dist FROM (
    SELECT node, dist FROM d{j}
    UNION ALL
    SELECT a.dst AS node, d.dist + a.w AS dist
    FROM d{j} d JOIN arcs a ON a.src = d.node
  ) GROUP BY node
)"""


def q_part_sssp(sf_dir: str):
    """Bounded multi-source WEIGHTED shortest paths
    (graphops.sssp_rounds) on the part-chain graph: integer weights
    w = 1 + (u + v) % 9 (pure id arithmetic, mirrorable), seeds by
    split_hash % 23, four Bellman-Ford relaxation rounds. Bit-exact vs
    four unrolled DuckDB min-relaxation CTEs."""
    from .graphops import sssp_rounds

    edges = _chain_edges(sf_dir)
    return sssp_rounds(edges, seed_mod=23, rounds=4, weight_mod=9)


def _sql_part_sssp(iters: int = 4, seed_mod: int = 23) -> str:
    rounds = "".join(_SQL_SSSP_ROUND.format(i=i, j=i - 1)
                     for i in range(1, iters + 1))
    return f"""
WITH {_SQL_CHAIN_EDGES.strip()},
arcs AS (
  SELECT u AS src, v AS dst, 1 + (u + v) % 9 AS w FROM edges
  UNION ALL
  SELECT v, u, 1 + (u + v) % 9 FROM edges
), nodes AS (
  SELECT DISTINCT src AS node FROM arcs
), d0 AS (
  SELECT node, 0 AS dist FROM nodes
  WHERE ((node * 1103515245 + 12345) % 2305843009213693951)
        % {seed_mod} = 0
){rounds}
SELECT node, CAST(dist AS BIGINT) AS dist FROM d{iters}
"""


GOPHER_MIN_TOKENS = 40
GOPHER_MIN_MWL, GOPHER_MAX_MWL = 3, 10   # mean word length bounds
GOPHER_MIN_STOPWORDS = 2


def q_doc_gopher_rules(sf_dir: str):
    """Gopher/Dolma rule-based quality filter as an integer-exact
    bitmask — every ratio threshold cross-multiplied so no float ever
    enters (the repo's order-free recipe): r_len (token count >= 40),
    r_mwl (3 <= mean word length <= 10 via 3n <= chars_in_words <=
    10n), r_punct (sentence punctuation <= 10% of chars), r_stop (>= 2
    English stopwords). Zero-shuffle fused map; keep = all rules.
    Output (doc_id, n_tokens, r_len, r_mwl, r_punct, r_stop, keep)."""
    from .textstats import STOPWORDS, _SENT_RE

    stop_en = STOPWORDS["en"]
    docs = _t(sf_dir, "documents", columns=["doc_id", "text"])

    def rules(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].to_numpy(object)
        toks = [t.split() if isinstance(t, str) else [] for t in texts]
        n_tok = np.array([len(w) for w in toks], dtype=np.int64)
        wchars = np.array([sum(len(x) for x in w) for w in toks],
                          dtype=np.int64)
        nchars = np.array([len(t) if isinstance(t, str) else 0
                           for t in texts], dtype=np.int64)
        npunct = np.array(
            [len(_SENT_RE.sub("", t)) if isinstance(t, str) else 0
             for t in texts], dtype=np.int64)
        nstop = np.array(
            [sum(x.lower() in stop_en for x in w) for w in toks],
            dtype=np.int64)
        r_len = (n_tok >= GOPHER_MIN_TOKENS).astype(np.int64)
        r_mwl = ((GOPHER_MIN_MWL * n_tok <= wchars)
                 & (wchars <= GOPHER_MAX_MWL * n_tok)).astype(np.int64)
        r_punct = (10 * npunct <= nchars).astype(np.int64)
        r_stop = (nstop >= GOPHER_MIN_STOPWORDS).astype(np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_tokens": n_tok, "r_len": r_len, "r_mwl": r_mwl,
            "r_punct": r_punct, "r_stop": r_stop,
            "keep": (r_len & r_mwl & r_punct & r_stop).astype(np.int64),
        })

    return docs.map_batches(rules, batch_format="pandas")


def _sql_gopher_rules() -> str:
    from .textstats import STOPWORDS

    stops = ", ".join(f"'{w}'" for w in sorted(STOPWORDS["en"]))
    return rf"""
WITH f AS (
  SELECT doc_id,
    len(list_filter(string_split_regex(text, '\s+'), x -> x != ''))
      AS n_tokens,
    length(regexp_replace(text, '\s', '', 'g')) AS wchars,
    length(text) AS nchars,
    length(regexp_replace(text, '[^.!?]', '', 'g')) AS npunct,
    len(list_filter(string_split_regex(text, '\s+'),
        x -> list_contains([{stops}], lower(x)))) AS nstop
  FROM documents),
r AS (
  SELECT doc_id, n_tokens,
    CASE WHEN n_tokens >= {GOPHER_MIN_TOKENS} THEN 1 ELSE 0 END AS r_len,
    CASE WHEN {GOPHER_MIN_MWL} * n_tokens <= wchars
          AND wchars <= {GOPHER_MAX_MWL} * n_tokens
         THEN 1 ELSE 0 END AS r_mwl,
    CASE WHEN 10 * npunct <= nchars THEN 1 ELSE 0 END AS r_punct,
    CASE WHEN nstop >= {GOPHER_MIN_STOPWORDS} THEN 1 ELSE 0 END AS r_stop
  FROM f)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(r_len AS BIGINT) AS r_len, CAST(r_mwl AS BIGINT) AS r_mwl,
       CAST(r_punct AS BIGINT) AS r_punct,
       CAST(r_stop AS BIGINT) AS r_stop,
       CAST(r_len * r_mwl * r_punct * r_stop AS BIGINT) AS keep
FROM r
"""


def q_doc_dup_spans(sf_dir: str):
    """Exact duplicated-substring spans at 5-token granularity
    (dedup.dup_span_stats — the Lee et al. 2022 ExactSubstr signal):
    per-doc duplicated-position count, maximal span count, covered
    token mass. Natural cross-doc duplication in the corpus (no
    synthetic dirtying needed)."""
    from . import dedup as _dedup

    return _dedup.dup_span_stats(
        _t(sf_dir, "documents", columns=["doc_id", "text"]), n=5)


SQL_DOC_DUP_SPANS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x != '') AS ws
  FROM documents),
grams AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ws) - 3),
    i -> {'pos': i, 'g': array_to_string(list_slice(ws, i, i + 4), ' ')}),
    recursive := true)
  FROM toks),
c AS (SELECT doc_id, pos, count(*) OVER (PARTITION BY g) AS c FROM grams),
d AS (SELECT doc_id, pos FROM c WHERE c >= 2),
i AS (SELECT doc_id, pos,
        CASE WHEN lag(pos) OVER (PARTITION BY doc_id ORDER BY pos)
                  = pos - 1 THEN 0 ELSE 1 END AS is_start
      FROM d)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_dup_pos,
       CAST(sum(is_start) AS BIGINT) AS n_spans,
       CAST(count(*) + sum(is_start) * 4 AS BIGINT) AS covered_tokens
FROM i GROUP BY doc_id
"""


def q_events_props_json(sf_dir: str):
    """Nested-data extraction via a REAL JSON parser (stdlib
    json.loads per event — not a regex): pull props.k, bucket k // 10,
    count per (event_type, bucket). Any parse divergence from
    DuckDB's json_extract_string fails the hash. Per-batch partial
    counts bound the single shuffle."""
    import json

    ev = _t(sf_dir, "events", columns=["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # tolerate k-less / non-integer / negative props like the SQL
        # mirror's TRY_CAST + filter (the sibling events_props_extract
        # contract allows them); json bools are ints in Python — exclude
        ks, keep = [], []
        for p in df["props"].to_numpy(object):
            v = json.loads(p).get("k") if isinstance(p, str) else None
            ok = isinstance(v, int) and not isinstance(v, bool) and v >= 0
            keep.append(ok)
            ks.append(v if ok else 0)
        keep = np.array(keep, dtype=bool)
        g = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object)[keep],
            "k_bucket": np.array(ks, dtype=np.int64)[keep] // 10,
        }).groupby(["event_type", "k_bucket"], as_index=False).size()
        g["n"] = g.pop("size").astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "k_bucket"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    from .joins import grouped_apply

    return grouped_apply(
        ev.map_batches(partial, batch_format="pandas"), "event_type",
        merge, num_buckets=8,
    )


SQL_EVENTS_PROPS_JSON = """
SELECT event_type,
       TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) // 10
         AS k_bucket,
       CAST(count(*) AS BIGINT) AS n
FROM events
WHERE TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) >= 0
GROUP BY 1, 2
"""


def q_embed_ivfpq_topk(sf_dir: str):
    """IVF-PQ ANN (similarity.ivf_pq_topk): IVF centroids restrict
    which lists each query scans (nprobe=3 of 8), PQ codes (m=4
    subspaces, Lloyd-trained float codebooks) make each candidate a
    4-LUT-hop ADC instead of a 64-dim dot — the memory x compute
    configuration a 100-TB vector corpus actually serves. no_oracle
    (float Lloyd + ADC); pytest gates nprobe==n_centroids ≡
    pq_adc_topk bit-identity and layout invariance."""
    from . import similarity

    # ~8 consumers (take, IVF seed + Lloyd passes, PQ passes, scoring)
    # — materialize or each pass re-reads the parquet
    emb = _t(sf_dir, "embeddings").materialize()
    head = emb.take(3)
    queries = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                        for r in head])
    cent = similarity.train_ivf_centroids(emb, 8, iters=2)
    books = similarity.pq_train(emb, m=4, n_codes=16, iters=2)
    return similarity.ivf_pq_topk(emb, queries, cent, books, k=10,
                                  nprobe=3)


def q_crawl_refresh(sf_dir: str):
    """Incremental recrawl composition (CDC diff -> reprocess only the
    delta): past crawl A = documents minus doc_id % 9 == 4 (those are
    NEW now) with text prefixed 'old ' where doc_id % 6 == 1 (those
    CHANGED); current crawl B = documents minus doc_id % 11 == 7
    (those were REMOVED). One key-co-partitioned diff pass classifies
    every doc; only added/changed docs are re-tokenized (the real
    whitespace tokenizer — the 100-TB point: unchanged docs are never
    re-processed); per-lang int64 rollup of added/changed/removed
    counts and re-processed tokens."""
    from .joins import grouped_apply

    docs = _t(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy(np.int64)
        absent_a = (d % 9) == 4
        absent_b = (d % 11) == 7
        added = absent_a & ~absent_b      # in B only
        removed = absent_b & ~absent_a    # in A only (both-absent docs
        changed = ~absent_a & ~absent_b & ((d % 6) == 1)   # are in NEITHER crawl)
        reprocess = added | changed
        out = pd.DataFrame({
            "lang": df["lang"].to_numpy(object),
            "added": added.astype(np.int64),
            "changed": changed.astype(np.int64),
            "removed": removed.astype(np.int64),
            "tok": np.zeros(len(d), dtype=np.int64),
        })
        # real tokenization, ONLY on the delta set; null text counts 0
        # (SQL: NULL token count is skipped by sum())
        texts = df["text"].to_numpy(object)[reprocess]
        out.loc[reprocess, "tok"] = np.array(
            [len(t.split()) if isinstance(t, str) else 0 for t in texts],
            dtype=np.int64)
        g = out.groupby("lang", as_index=False).sum()
        for c in ("added", "changed", "removed", "tok"):
            g[c] = g[c].astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).sum()
        g["n_added"] = g.pop("added").astype(np.int64)
        g["n_changed"] = g.pop("changed").astype(np.int64)
        g["n_removed"] = g.pop("removed").astype(np.int64)
        g["tokens_reprocessed"] = g.pop("tok").astype(np.int64)
        return g

    return grouped_apply(
        docs.map_batches(classify, batch_format="pandas"), "lang", merge,
        num_buckets=8,
    )


SQL_CRAWL_REFRESH = r"""
SELECT lang,
  CAST(sum(CASE WHEN doc_id % 9 = 4 AND doc_id % 11 != 7
            THEN 1 ELSE 0 END) AS BIGINT) AS n_added,
  CAST(sum(CASE WHEN doc_id % 9 != 4 AND doc_id % 11 != 7
                 AND doc_id % 6 = 1 THEN 1 ELSE 0 END) AS BIGINT)
    AS n_changed,
  CAST(sum(CASE WHEN doc_id % 11 = 7 AND doc_id % 9 != 4
            THEN 1 ELSE 0 END) AS BIGINT) AS n_removed,
  CAST(sum(CASE WHEN (doc_id % 9 = 4 AND doc_id % 11 != 7)
                  OR (doc_id % 9 != 4 AND doc_id % 11 != 7
                      AND doc_id % 6 = 1)
            THEN len(list_filter(string_split_regex(text, '\s+'),
                                 x -> x != ''))
            ELSE 0 END) AS BIGINT) AS tokens_reprocessed
FROM documents GROUP BY lang
"""


def q_bloom_semijoin_revenue(sf_dir: str):
    """Bloom-pushdown semi-join (the sketch-accelerated join pattern):
    revenue cents per brand for a sparse part subset (p_partkey % 17 ==
    3). The small side's Bloom filter (sketches.bloom_bits — built
    distributed, folded to one dense bitmap, broadcast once via
    ray.put) prefilters lineitem INSIDE the fused read, so only
    candidate rows (matches + bounded false positives) reach the hash
    join; the exact inner join then drops every false positive —
    output identical to the plain join, which IS the SQL mirror. The
    100-TB win: the big side never shuffles non-matching rows."""
    import ray

    from . import sketches
    from .joins import grouped_apply, hash_join

    m, k = 1 << 15, 3
    part = _t(sf_dir, "part", columns=["p_partkey", "p_brand"])

    def part_filter(df: pd.DataFrame) -> pd.DataFrame:
        pk = df["p_partkey"].to_numpy(np.int64)
        keep = (pk % 17) == 3
        return pd.DataFrame({
            "p_partkey": pk[keep],
            "p_brand": df["p_brand"].to_numpy(object)[keep],
            "pkey_str": pk[keep].astype(str),
        })

    small = part.map_batches(part_filter, batch_format="pandas").materialize()
    bits = sketches.bloom_bits(small, "pkey_str", m=m, k=k).to_pandas()
    dense = np.zeros(m, dtype=bool)
    if len(bits):
        dense[bits["bit"].to_numpy(np.int64)] = True
    dense_ref = ray.put(dense)

    li = _t(sf_dir, "lineitem",
            columns=["l_partkey", "l_extendedprice", "l_discount"])

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(dense_ref) if isinstance(dense_ref, ray.ObjectRef) \
            else dense_ref
        pk = df["l_partkey"].to_numpy(np.int64)
        ok = sketches.bloom_contains_dense(d, pk.astype(str), k=k)
        # float cents only for the ~1/17 survivors
        price = df["l_extendedprice"].to_numpy(np.float64)[ok]
        disc = df["l_discount"].to_numpy(np.float64)[ok]
        cents = np.floor(price * (1.0 - disc) * 100.0).astype(np.int64)
        return pd.DataFrame({"p_partkey": pk[ok], "cents": cents})

    cand = li.map_batches(prefilter, batch_format="pandas")
    joined = hash_join(cand, small.map_batches(
        lambda df: df[["p_partkey", "p_brand"]], batch_format="pandas"),
        on="p_partkey", num_buckets=16)

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("p_brand", as_index=False)["cents"].sum()
        g["revenue_cents"] = g.pop("cents").astype(np.int64)
        return g

    return grouped_apply(joined, "p_brand", agg, num_buckets=8)


SQL_BLOOM_SEMIJOIN = """
SELECT p_brand,
       CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_partkey % 17 = 3
GROUP BY p_brand
"""


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_events_pivot_counts(sf_dir: str):
    """PIVOT / crosstab: one row per user, one int64 count column per
    event type plus the row total. Per-batch (user, type) partial
    counts bound the single int-key shuffle; the per-bucket merge
    pivots against the FIXED type list (schema is static — a dynamic
    pivot would make the schema data-dependent, which neither Arrow
    nor the driver's hash could pin)."""
    ev = _t(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(object),
        }).groupby(["user_id", "event_type"], as_index=False).size()
        g["n"] = g.pop("size").astype(np.int64)
        return g

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        wide = g.pivot_table(index="user_id", columns="event_type",
                             values="n", aggfunc="sum", fill_value=0)
        out = pd.DataFrame({"user_id": wide.index.to_numpy(np.int64)})
        for t in PIVOT_TYPES:
            out[f"n_{t}"] = (wide[t].to_numpy(np.int64)
                             if t in wide.columns
                             else np.zeros(len(wide), dtype=np.int64))
        # total over ALL observed types (SQL count(*)), not just the
        # five pivoted columns — an out-of-list type must still count
        tot = g.groupby("user_id")["n"].sum()
        out["n_total"] = tot.loc[wide.index].to_numpy(np.int64)
        return out

    from .joins import grouped_apply

    return grouped_apply(
        ev.map_batches(partial, batch_format="pandas"), "user_id", pivot,
        num_buckets=16,
    )


def _sql_events_pivot() -> str:
    cols = ", ".join(
        f"CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT)"
        f" AS n_{t}" for t in PIVOT_TYPES)
    return (f"SELECT user_id, {cols}, CAST(count(*) AS BIGINT) AS n_total"
            f" FROM events GROUP BY user_id")


def q_doc_len_mad(sf_dir: str):
    """Robust outlier statistics — exact global lower-median, median
    absolute deviation and |x - med| > 3*MAD outlier count over
    n_chars, the distribution-free quality screen. Scale shape: the
    domain is bounded (doc lengths), so each pass is a HISTOGRAM
    partial (per-batch value counts, shuffle bounded by distinct
    values, never rows) and the median is a driver-side cumsum select
    over |distinct values| ints; the outlier count reads off the
    SECOND histogram — three statistics from two streaming passes.
    Output one row (n, median_chars, mad_chars, n_outliers) int64."""
    docs = _t(sf_dir, "documents", columns=["n_chars"])

    def hist(col: str, ds) -> pd.DataFrame:
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            g = (pd.DataFrame({"v": df[col].to_numpy(np.int64)})
                 .groupby("v", as_index=False).size())
            g["c"] = g.pop("size").astype(np.int64)
            return g

        pieces = [b for b in ds.map_batches(partial, batch_format="pandas")
                  .iter_batches(batch_format="pandas", batch_size=None)]
        if not pieces:
            return pd.DataFrame({"v": pd.Series(dtype=np.int64),
                                 "c": pd.Series(dtype=np.int64)})
        return (pd.concat(pieces, ignore_index=True)
                .groupby("v", as_index=False)["c"].sum()
                .sort_values("v", ignore_index=True))

    def lower_median(h: pd.DataFrame) -> int:
        n = int(h["c"].sum())
        cum = np.cumsum(h["c"].to_numpy(np.int64))
        pos = (n - 1) // 2
        return int(h["v"].to_numpy(np.int64)[np.searchsorted(cum, pos + 1)])

    h1 = hist("n_chars", docs)
    n = int(h1["c"].sum())
    med = lower_median(h1)

    def dev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": np.abs(df["n_chars"].to_numpy(np.int64) - np.int64(med))})

    h2 = hist("d", docs.map_batches(dev, batch_format="pandas"))
    mad = lower_median(h2)
    out = int(h2.loc[h2["v"] > 3 * mad, "c"].sum())
    return pd.DataFrame({
        "n": np.array([n], dtype=np.int64),
        "median_chars": np.array([med], dtype=np.int64),
        "mad_chars": np.array([mad], dtype=np.int64),
        "n_outliers": np.array([out], dtype=np.int64),
    })


SQL_DOC_LEN_MAD = """
WITH med AS (
  SELECT max(CASE WHEN rn = (cnt - 1) // 2 THEN n_chars END) AS m FROM (
    SELECT n_chars, row_number() OVER (ORDER BY n_chars) - 1 AS rn,
           count(*) OVER () AS cnt FROM documents)),
dev AS (SELECT abs(n_chars - (SELECT m FROM med)) AS d FROM documents),
mad AS (
  SELECT max(CASE WHEN rn = (cnt - 1) // 2 THEN d END) AS md FROM (
    SELECT d, row_number() OVER (ORDER BY d) - 1 AS rn,
           count(*) OVER () AS cnt FROM dev))
SELECT CAST((SELECT count(*) FROM documents) AS BIGINT) AS n,
       CAST((SELECT m FROM med) AS BIGINT) AS median_chars,
       CAST((SELECT md FROM mad) AS BIGINT) AS mad_chars,
       CAST((SELECT count(*) FROM dev
             WHERE d > 3 * (SELECT md FROM mad)) AS BIGINT) AS n_outliers
"""


def q_corpus_report(sf_dir: str):
    """Dataset-card summary — the one-query corpus report a data team
    publishes: doc/char/token totals, language/source cardinalities,
    max doc length and exact-duplicate occurrence count, as (metric,
    value) int64 rows. Pass A is ONE fused zero-shuffle scan emitting
    scalar partials (counts/sums/max + tiny lang/source sets, driver
    fold bounded by distinct categories); pass B is the exact-dup
    count's text-bucket shuffle (full-string equality). At 100 TB this
    is two streaming passes, nothing driver-side beyond scalars."""
    docs = _t(sf_dir, "documents",
              columns=["doc_id", "text", "lang", "source", "n_chars"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        # ASCII-whitespace run count == RE2 \s+ split (str.split()
        # would diverge on U+00A0 etc. — the repo's documented trap)
        toks = (df["text"].str.count(r"[^ \t\n\r\f\v]+")
                .fillna(0).to_numpy(np.int64))
        nch = df["n_chars"].to_numpy(np.int64)
        return pd.DataFrame({
            "n_docs": [np.int64(len(df))],
            "total_chars": [nch.sum() if len(df) else np.int64(0)],
            "total_tokens": [toks.sum() if len(df) else np.int64(0)],
            "max_doc_chars": [nch.max() if len(df) else np.int64(0)],
            "langs": [",".join(sorted(set(df["lang"].astype(str))))],
            "sources": [",".join(sorted(set(df["source"].astype(str))))],
        })

    pieces = [b for b in docs.map_batches(partials, batch_format="pandas")
              .iter_batches(batch_format="pandas", batch_size=None)]
    if not pieces:   # 0-row dataset: an all-zero report, not a crash
        return pd.DataFrame({
            "metric": ["dup_docs", "max_doc_chars", "n_docs", "n_langs",
                       "n_sources", "total_chars", "total_tokens"],
            "value": np.zeros(7, dtype=np.int64)})
    agg = pd.concat(pieces, ignore_index=True)
    langs = set()
    sources = set()
    for s in agg["langs"]:
        langs.update(x for x in s.split(",") if x)
    for s in agg["sources"]:
        sources.update(x for x in s.split(",") if x)

    def hash_text(df: pd.DataFrame) -> pd.DataFrame:
        # precomputed native-int bucket key; full-string equality still
        # decides dups (equal texts hash equal -> co-located)
        h = pd.util.hash_array(df["text"].to_numpy(object)).astype(np.int64)
        return pd.DataFrame({"__h": h, "text": df["text"].to_numpy(object)})

    def dup_count(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("text")["text"].transform("size").to_numpy(np.int64)
        return pd.DataFrame({"n": [np.int64((c >= 2).sum())]})

    from .joins import grouped_apply

    dups = grouped_apply(
        docs.map_batches(hash_text, batch_format="pandas"),
        "__h", dup_count, num_buckets=16,
    ).to_pandas()
    n_dup = int(dups["n"].sum()) if len(dups) else 0

    metrics = {
        "dup_docs": n_dup,
        "max_doc_chars": int(agg["max_doc_chars"].max()),
        "n_docs": int(agg["n_docs"].sum()),
        "n_langs": len(langs),
        "n_sources": len(sources),
        "total_chars": int(agg["total_chars"].sum()),
        "total_tokens": int(agg["total_tokens"].sum()),
    }
    return pd.DataFrame({
        "metric": sorted(metrics),
        "value": np.array([metrics[k] for k in sorted(metrics)],
                          dtype=np.int64),
    })


SQL_CORPUS_REPORT = r"""
SELECT 'dup_docs' AS metric, CAST(coalesce(sum(c), 0) AS BIGINT) AS value
FROM (SELECT count(*) AS c FROM documents GROUP BY text
      HAVING count(*) >= 2)
UNION ALL SELECT 'max_doc_chars', CAST(max(n_chars) AS BIGINT)
FROM documents
UNION ALL SELECT 'n_docs', CAST(count(*) AS BIGINT) FROM documents
UNION ALL SELECT 'n_langs', CAST(count(DISTINCT lang) AS BIGINT)
FROM documents
UNION ALL SELECT 'n_sources', CAST(count(DISTINCT source) AS BIGINT)
FROM documents
UNION ALL SELECT 'total_chars', CAST(sum(n_chars) AS BIGINT)
FROM documents
UNION ALL SELECT 'total_tokens',
  CAST(sum(len(list_filter(string_split_regex(text, '\s+'),
                           x -> x != ''))) AS BIGINT)
FROM documents
"""


def q_doc_kfold_counts(sf_dir: str):
    """Deterministic k-fold cross-validation assignment (fold =
    split_hash(doc_id) % 8 — 8 is coprime to the hash multiplier, see
    check_hash_mod) with per-(fold, lang) counts: the layout/rerun/
    cluster-width-stable CV carve a training pipeline needs. Per-batch
    partial counts, one tiny int-key merge."""
    from . import sampling

    docs = _t(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        fold = (sampling.split_hash(df["doc_id"].to_numpy(np.int64))
                % np.int64(8)).astype(np.int64)
        g = pd.DataFrame({"fold": fold,
                          "lang": df["lang"].to_numpy(object)})
        g = g.groupby(["fold", "lang"], as_index=False).size()
        g["n"] = g.pop("size").astype(np.int64)
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["fold", "lang"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    from .joins import grouped_apply

    return grouped_apply(
        docs.map_batches(partial, batch_format="pandas"), "fold", merge,
        num_buckets=8,
    )


SQL_DOC_KFOLD = f"""
SELECT CAST({SQL_SPLIT_HASH.format(key="doc_id")} % 8 AS BIGINT) AS fold,
       lang, CAST(count(*) AS BIGINT) AS n
FROM documents GROUP BY 1, 2
"""


def q_events_unpivot_counts(sf_dir: str):
    """UNPIVOT / melt — the wide->long inverse of events_pivot_counts:
    each user's five per-type count columns become (user_id,
    event_type, n) rows, zeros included (matching SQL UNION ALL
    semantics). Vectorized pd.melt per batch, zero extra shuffle
    beyond the pivot's own."""
    wide = q_events_pivot_counts(sf_dir)

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        out = df.melt(
            id_vars=["user_id"],
            value_vars=[f"n_{t}" for t in PIVOT_TYPES],
            var_name="event_type", value_name="n")
        out["event_type"] = out["event_type"].str.slice(2)
        out["n"] = out["n"].astype(np.int64)
        return out[["user_id", "event_type", "n"]]

    return wide.map_batches(melt, batch_format="pandas")


def _sql_events_unpivot() -> str:
    selects = " UNION ALL ".join(
        f"SELECT user_id, '{t}' AS event_type,"
        f" CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT)"
        f" AS n FROM events GROUP BY user_id" for t in PIVOT_TYPES)
    return selects


def q_audio_fingerprint_neardup(sf_dir: str):
    """Audio near-dup via spectral-landmark fingerprints (the Shazam
    constellation shape): a deterministic WAV corpus is synthesized per
    doc (leader = doc_id - doc_id % 6 seeds a 16-segment tone sequence;
    k = doc_id % 6 applies gain + per-doc seeded noise — near-dup
    variants of the leader's melody), decoded through the REAL RIFF/
    PCM16 path, landmarked by multimodal.audio_landmarks (per-frame
    rfft peak, peak-pair codes) in an actor pool, and paired by the
    exact posting-list counter dedup.shared_key_pairs (>= 20 shared
    codes). no_oracle (FFT floats); deterministic, pinned by
    scalar-oracle pytest. Output (id_a, id_b, n_shared) int64."""
    docs = _t(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        from . import multimodal as mm

        d = df["doc_id"].to_numpy(np.int64)
        d = d[d % 3 == 0]   # deterministic subsample: FFT + codec cost
        rate = 8000
        seg = rate // 16
        t = np.arange(seg)
        media = []
        for k in d:
            leader = int(k - k % 6)
            rng = np.random.RandomState((leader + 131) % (1 << 31))
            tones = rng.uniform(200, 3500, 16)
            base = np.concatenate(
                [np.sin(2 * np.pi * f * t / rate) for f in tones])
            rngd = np.random.RandomState((int(k) + 7) % (1 << 31))
            x = (base * (1.0 + 0.05 * int(k % 6))
                 + rngd.normal(0, 0.05, len(base)))
            pcm = np.clip(x / 2.0 * 32767, -32768, 32767).astype(np.int16)
            media.append(mm.encode_wav_pcm16(pcm[:, None], rate))
        return pd.DataFrame({"doc_id": d, "media": media})

    from . import dedup as _dedup
    from . import multimodal as mm

    clips = docs.map_batches(gen, batch_format="pandas")
    rows = mm.audio_landmark_rows(clips, concurrency=8)
    return _dedup.shared_key_pairs(rows, id_col="doc_id", key_col="lm",
                                   min_shared=20)


# -------------------------------------------------------------- catalogs


def catalog():
    # Round-5 rotation (the final one): positions 1-50 are 50 of the 60
    # SQL-mirrored queries with no green row anywhere in
    # CORRECTNESS_r01-r04 — the tiling/CDC block, the crawl stack, the
    # H.264 stats mirrors, the geospatial P-slice block, the OLAP/
    # set-ops block and events_funnel. With r01-r04's 98 cumulative
    # greens this puts 148 distinct queries through the driver's
    # rows+schema+hash compare. Ten near-duplicates of an in-window
    # sibling were left out for lack of slots (video_h264_cavlc_stats,
    # events_unpivot_counts, users_click_and_purchase, doc_len_ntile,
    # events_transitions, cell_quadkey, content_sniff,
    # hreflang_clusters, doc_len_mad, trace_od_matrix) — they follow
    # at positions 51-60 and stay covered by the local dtype-strict
    # DuckDB compare in tests/test_driver_contract.py, as do the nine
    # no_oracle entries at positions 61-69 and the already-verified
    # remainder.
    return {
        "tile_pyramid": q_tile_pyramid,
        "zorder_stats": q_zorder_stats,
        "snapshot_diff": q_snapshot_diff,
        "doc_paragraph_dedup": q_doc_paragraph_dedup,
        "doc_sample_global": q_doc_sample_global,
        "events_watermark_late": q_events_watermark_late,
        "bloom_semijoin_revenue": q_bloom_semijoin_revenue,
        "crawl_refresh": q_crawl_refresh,
        "video_h264_stats": q_video_h264_stats,
        "video_h264_p_stats": q_video_h264_p_stats,
        "cell_compact": q_cell_compact,
        "trace_map_match": q_trace_map_match,
        "polyline_simplify": q_polyline_simplify,
        "robots_decisions": q_robots_decisions,
        "warc_records": q_warc_records,
        "redirect_chains": q_redirect_chains,
        "sitemap_entries": q_sitemap_entries,
        "meta_extract": q_meta_extract,
        "http_cache_plan": q_http_cache_plan,
        "frontier_schedule": q_frontier_schedule,
        "trace_staypoints": q_trace_staypoints,
        "hilbert_index": q_hilbert_index,
        "cell_regions": q_cell_regions,
        "convex_hulls": q_convex_hulls,
        "interval_coverage": q_interval_coverage,
        "polygon_clip": q_polygon_clip,
        "segment_crossings": q_segment_crossings,
        "url_templates": q_url_templates,
        "orientation_hist": q_orientation_hist,
        "url_features": q_url_features,
        "table_stats": q_table_stats,
        "doc_dup_spans": q_doc_dup_spans,
        "doc_gopher_rules": q_doc_gopher_rules,
        "part_sssp": q_part_sssp,
        "corpus_report": q_corpus_report,
        "events_props_json": q_events_props_json,
        "url_normalize": q_url_normalize,
        "doc_above_lang_mean": q_doc_above_lang_mean,
        "orders_profile": q_orders_profile,
        "doc_rank_global": q_doc_rank_global,
        "events_retention": q_events_retention,
        "q6_revenue_cents": q_q6_revenue_cents,
        "median_chars_by_lang": q_median_chars_by_lang,
        "events_latest_per_user": q_events_latest_per_user,
        "doc_topk_per_source": q_doc_topk_per_source,
        "users_click_not_purchase": q_users_click_not_purchase,
        "events_running_total": q_events_running_total,
        "events_pivot_counts": q_events_pivot_counts,
        "doc_kfold_counts": q_doc_kfold_counts,
        "events_funnel": q_events_funnel,
        "video_h264_cavlc_stats": q_video_h264_cavlc_stats,
        "events_unpivot_counts": q_events_unpivot_counts,
        "users_click_and_purchase": q_users_click_and_purchase,
        "doc_len_ntile": q_doc_len_ntile,
        "events_transitions": q_events_transitions,
        "cell_quadkey": q_cell_quadkey,
        "content_sniff": q_content_sniff,
        "hreflang_clusters": q_hreflang_clusters,
        "doc_len_mad": q_doc_len_mad,
        "trace_od_matrix": q_trace_od_matrix,
        "doc_compression_ratio": q_doc_compression_ratio,
        "embed_pca_project": q_embed_pca_project,
        "bpe_merges": q_bpe_merges,
        "bpe_token_counts": q_bpe_token_counts,
        "doc_lang_classifier": q_doc_lang_classifier,
        "image_phash_neardup": q_image_phash_neardup,
        "video_phash_neardup": q_video_phash_neardup,
        "audio_fingerprint_neardup": q_audio_fingerprint_neardup,
        "embed_ivfpq_topk": q_embed_ivfpq_topk,
        "graph_simplify_stats": q_graph_simplify_stats,
        "graph_discretize_stats": q_graph_discretize_stats,
        "doc_sample_per_lang": q_doc_sample_per_lang,
        "distinct_users_by_type": q_distinct_users_by_type,
        "doc_shard_counts": q_doc_shard_counts,
        "hll_users": q_hll_users,
        "doc_tfidf": q_doc_tfidf,
        "copurchase_triangles": q_copurchase_triangles,
        "node_triangles": q_node_triangles,
        "part_kcore": q_part_kcore,
        "part_random_walks": q_part_random_walks,
        "part_bfs_depths": q_part_bfs_depths,
        "split_contamination": q_split_contamination,
        "doc_dup_ngrams": q_doc_dup_ngrams,
        "doc_pii_counts": q_doc_pii_counts,
        "pages_link_graph": q_pages_link_graph,
        "domain_pagerank": q_domain_pagerank,
        "doc_mixture_sample": q_doc_mixture_sample,
        "doc_postings": q_doc_postings,
        "anchor_terms": q_anchor_terms,
        "domain_reciprocity": q_domain_reciprocity,
        "events_window_hll": q_events_window_hll,
        "doc_packing": q_doc_packing,
        "training_prep": q_training_prep,
        "part_skyline": q_part_skyline,
        "polygon_area": q_polygon_area,
        "doc_lm_score": q_doc_lm_score,
        "doc_collocations": q_doc_collocations,
        "part_components": q_part_components,
        "cms_tokens": q_cms_tokens,
        "bloom_tokens": q_bloom_tokens,
        "part_pagerank": q_part_pagerank,
        "part_hits": q_part_hits,
        "part_link_pred": q_part_link_pred,
        "part_rendezvous": q_part_rendezvous,
        "part_cocitation": q_part_cocitation,
        "part_degree_loghist": q_part_degree_loghist,
        "part_assortativity": q_part_assortativity,
        "doc_apportion": q_doc_apportion,
        "cust_rfm": q_cust_rfm,
        "doc_stab_tiers": q_doc_stab_tiers,
        "part_fuzzy_pairs": q_part_fuzzy_pairs,
        "doc_token_count_bpe": q_doc_token_count_bpe,
        "corpus_curation": q_corpus_curation,
        "semdedup": q_semdedup,
        "pq_adc": q_pq_adc,
        "embed_kmeans": q_embed_kmeans,
        "embed_ivf_topk_int": q_embed_ivf_topk_int,
        "doc_dsir_weights": q_doc_dsir_weights,
        "doc_dict_tags": q_doc_dict_tags,
        "edge_dedup": q_edge_dedup,
        "node_first_wins": q_node_first_wins,
        "degree_histogram": q_degree_histogram,
        "cell_assign": q_cell_assign,
        "cell_hist_topk": q_cell_hist_topk,
        "spatial_cell_join": q_spatial_cell_join,
        "nn_snap_planar": q_nn_snap_planar,
        "knn_cell_snap": q_knn_cell_snap,
        "knn3_cell_snap": q_knn3_cell_snap,
        "haversine_km_hist": q_haversine_km_hist,
        "q1_returnflag": q_q1_returnflag,
        "join_cust_nation_region": q_join_cust_nation_region,
        "events_window": q_events_window,
        "doc_exact_dedup": q_doc_exact_dedup,
        "doc_token_count": q_doc_token_count,
        "doc_lang_counts": q_doc_lang_counts,
        "doc_quality_features": q_doc_quality_features,
        "doc_repetition": q_doc_repetition,
        "doc_chunks": q_doc_chunks,
        "doc_rollup_counts": q_doc_rollup_counts,
        "events_props_extract": q_events_props_extract,
        "minhash_near_dup": q_minhash_near_dup,
        "simhash_pairs": q_simhash_pairs,
        "embedding_near_dup": q_embedding_near_dup,
        "embed_topk": q_embed_topk,
        "embed_ivf_topk": q_embed_ivf_topk,
        "embed_topk_int": q_embed_topk_int,
        "ngram_jaccard": q_ngram_jaccard,
        "doc_fingerprint": q_doc_fingerprint,
        "lang_id_counts": q_lang_id_counts,
        "events_sessionize": q_events_sessionize,
        "events_funnel_pairs": q_events_funnel_pairs,
        "events_trend_state": q_events_trend_state,
        "events_top_paths": q_events_top_paths,
        "events_interarrival": q_events_interarrival,
        "customers_no_orders": q_customers_no_orders,
        "vocab_topk": q_vocab_topk,
        "edge_midpoint": q_edge_midpoint,
        "doc_len_deciles": q_doc_len_deciles,
        "events_asof_join": q_events_asof_join,
        "events_hopping_window": q_events_hopping_window,
        "simhash_int": q_simhash_int,
        "minhash_near_dup_int": q_minhash_near_dup_int,
        "price_quantiles_kll": q_price_quantiles_kll,
        "events_gap_quantiles": q_events_gap_quantiles,
        "doc_bm25": q_doc_bm25,
        "range_join": q_range_join,
        "point_in_polygon": q_point_in_polygon,
        "pip_zonal": q_pip_zonal,
        "raster_polygonize": q_raster_polygonize,
        "cell_smooth_topk": q_cell_smooth_topk,
        "polygon_rasterize": q_polygon_rasterize,
        "segments_crossing": q_segments_crossing,
        "doc_split_stats": q_doc_split_stats,
        "graph_simplify": q_graph_simplify,
        "graph_discretize": q_graph_discretize,
        "knn_pages_snap": q_knn_pages_snap,
        # round-5 addition — appended at the tail so the driver's
        # 1-50 rotation window stays exactly the planned set; locally
        # dtype-strict-verified like every other SQL-mirrored entry
        "video_h264_deblock_stats": q_video_h264_deblock_stats,
    }


def sql_catalog():
    return {
        "edge_dedup": SQL_EDGE_DEDUP,
        "node_first_wins": SQL_NODE_FIRST_WINS,
        "degree_histogram": SQL_DEGREE_HISTOGRAM,
        "cell_assign": _sql_cell_assign(),
        "cell_hist_topk": _sql_cell_hist_topk(),
        "spatial_cell_join": _sql_spatial_cell_join(),
        "nn_snap_planar": _sql_nn_snap_planar(),
        "knn_cell_snap": _sql_nn_snap_planar(),  # full-coverage cell kNN == exact NN
        "knn3_cell_snap": _sql_knn3_cell_snap(),
        "haversine_km_hist": _sql_haversine_km_hist(),
        "q1_returnflag": SQL_Q1,
        "join_cust_nation_region": SQL_JOIN_CNR,
        "events_window": SQL_EVENTS_WINDOW,
        "doc_exact_dedup": SQL_DOC_EXACT_DEDUP,
        "doc_token_count": SQL_DOC_TOKEN_COUNT,
        "doc_lang_counts": SQL_DOC_LANG_COUNTS,
        "doc_quality_features": SQL_DOC_QUALITY,
        "doc_repetition": SQL_DOC_REPETITION,
        "doc_chunks": SQL_DOC_CHUNKS,
        "doc_rollup_counts": SQL_DOC_ROLLUP_COUNTS,
        "events_props_extract": SQL_EVENTS_PROPS_EXTRACT,
        "embed_topk_int": SQL_EMBED_TOPK_INT,
        "ngram_jaccard": SQL_NGRAM_JACCARD,
        "doc_fingerprint": SQL_DOC_FINGERPRINT,
        "lang_id_counts": _sql_lang_id_counts(),
        "events_sessionize": SQL_EVENTS_SESSIONIZE,
        "events_funnel": SQL_EVENTS_FUNNEL,
        "events_transitions": SQL_EVENTS_TRANSITIONS,
        "events_funnel_pairs": SQL_EVENTS_FUNNEL_PAIRS,
        "events_trend_state": SQL_EVENTS_TREND_STATE,
        "events_top_paths": SQL_EVENTS_TOP_PATHS,
        "events_interarrival": SQL_EVENTS_INTERARRIVAL,
        "customers_no_orders": SQL_CUSTOMERS_NO_ORDERS,
        "vocab_topk": SQL_VOCAB_TOPK,
        "edge_midpoint": _sql_edge_midpoint(),
        "doc_len_deciles": SQL_DOC_LEN_DECILES,
        "embedding_near_dup": SQL_EMBEDDING_NEAR_DUP,
        "events_asof_join": SQL_EVENTS_ASOF_JOIN,
        "events_hopping_window": SQL_EVENTS_HOPPING_WINDOW,
        "simhash_int": SQL_SIMHASH_INT,
        "minhash_near_dup_int": SQL_MINHASH_INT,
        "doc_bm25": SQL_DOC_BM25,
        "range_join": SQL_RANGE_JOIN,
        "point_in_polygon": _sql_pip_pairs(),
        "pip_zonal": _sql_pip_zonal(),
        "raster_polygonize": _sql_raster_polygonize(),
        "cell_smooth_topk": _sql_cell_smooth_topk(),
        "polygon_rasterize": _sql_polygon_rasterize(),
        "segments_crossing": _sql_segments_crossing(),
        "doc_split_stats": SQL_DOC_SPLIT_STATS,
        "doc_sample_per_lang": SQL_DOC_SAMPLE_PER_LANG,
        "distinct_users_by_type": SQL_DISTINCT_USERS_BY_TYPE,
        "doc_shard_counts": SQL_DOC_SHARD_COUNTS,
        "hll_users": _sql_hll_users(),
        "doc_tfidf": SQL_DOC_TFIDF,
        "copurchase_triangles": SQL_COPURCHASE_TRIANGLES,
        "node_triangles": SQL_NODE_TRIANGLES,
        "part_kcore": SQL_PART_KCORE,
        "part_random_walks": SQL_PART_RANDOM_WALKS,
        "part_bfs_depths": SQL_PART_BFS_DEPTHS,
        "split_contamination": SQL_SPLIT_CONTAMINATION,
        "doc_dup_ngrams": SQL_DOC_DUP_NGRAMS,
        "doc_pii_counts": SQL_DOC_PII,
        "pages_link_graph": SQL_PAGES_LINK_GRAPH,
        "domain_pagerank": _sql_domain_pagerank(),
        "url_normalize": SQL_URL_NORMALIZE,
        "doc_mixture_sample": SQL_DOC_MIXTURE,
        "doc_postings": SQL_DOC_POSTINGS,
        "anchor_terms": SQL_ANCHOR_TERMS,
        "domain_reciprocity": SQL_DOMAIN_RECIPROCITY,
        "events_window_hll": _sql_events_window_hll(),
        "doc_above_lang_mean": SQL_DOC_ABOVE_LANG_MEAN,
        "orders_profile": SQL_ORDERS_PROFILE,
        "doc_rank_global": SQL_DOC_RANK_GLOBAL,
        "doc_len_ntile": SQL_DOC_LEN_NTILE,
        "events_retention": SQL_EVENTS_RETENTION,
        "q6_revenue_cents": SQL_Q6_REVENUE,
        "doc_packing": SQL_DOC_PACKING,
        "training_prep": SQL_TRAINING_PREP,
        "part_skyline": SQL_PART_SKYLINE,
        "polygon_area": _sql_polygon_area(),
        "doc_lm_score": SQL_DOC_LM_SCORE,
        "doc_collocations": SQL_DOC_COLLOCATIONS,
        "part_components": SQL_PART_COMPONENTS,
        "cms_tokens": _sql_cms_tokens(),
        "bloom_tokens": _sql_bloom_tokens(),
        "part_pagerank": _sql_part_pagerank(),
        "part_hits": _sql_part_hits(),
        "part_link_pred": SQL_PART_LINK_PRED,
        "part_rendezvous": SQL_PART_RENDEZVOUS,
        "part_cocitation": SQL_PART_COCITATION,
        "part_degree_loghist": SQL_PART_DEGREE_LOGHIST,
        "part_assortativity": SQL_PART_ASSORTATIVITY,
        "doc_apportion": SQL_DOC_APPORTION,
        "cust_rfm": SQL_CUST_RFM,
        "doc_stab_tiers": SQL_DOC_STAB_TIERS,
        "part_fuzzy_pairs": SQL_PART_FUZZY_PAIRS,
        "doc_token_count_bpe": _sql_doc_token_count_bpe(),
        "corpus_curation": SQL_CORPUS_CURATION,
        "median_chars_by_lang": SQL_MEDIAN_CHARS_BY_LANG,
        "graph_simplify_stats": _sql_graph_simplify_stats(),
        "graph_discretize_stats": _sql_graph_discretize_stats(),
        "video_h264_stats": SQL_VIDEO_H264_STATS,
        "video_h264_cavlc_stats": SQL_VIDEO_H264_CAVLC_STATS,
        "video_h264_p_stats": SQL_VIDEO_H264_P_STATS,
        "video_h264_deblock_stats": SQL_VIDEO_H264_DEBLOCK_STATS,
        "cell_compact": _sql_cell_compact(),
        "trace_map_match": _sql_trace_map_match(),
        "polyline_simplify": _sql_polyline_simplify(),
        "robots_decisions": SQL_ROBOTS_DECISIONS,
        "warc_records": SQL_WARC_RECORDS,
        "redirect_chains": SQL_REDIRECT_CHAINS,
        "sitemap_entries": SQL_SITEMAP_ENTRIES,
        "meta_extract": SQL_META_EXTRACT,
        "http_cache_plan": SQL_HTTP_CACHE_PLAN,
        "content_sniff": SQL_CONTENT_SNIFF,
        "frontier_schedule": SQL_FRONTIER_SCHEDULE,
        "trace_od_matrix": SQL_TRACE_OD_MATRIX,
        "trace_staypoints": SQL_TRACE_STAYPOINTS,
        "cell_quadkey": _sql_cell_quadkey(),
        "hilbert_index": _sql_hilbert_index(),
        "cell_regions": SQL_CELL_REGIONS,
        "convex_hulls": SQL_CONVEX_HULLS,
        "interval_coverage": SQL_INTERVAL_COVERAGE,
        "polygon_clip": SQL_POLYGON_CLIP,
        "segment_crossings": SQL_SEGMENT_CROSSINGS,
        "url_templates": SQL_URL_TEMPLATES,
        "orientation_hist": SQL_ORIENTATION_HIST,
        "hreflang_clusters": SQL_HREFLANG_CLUSTERS,
        "url_features": SQL_URL_FEATURES,
        "table_stats": SQL_TABLE_STATS,
        "semdedup": SQL_SEMDEDUP,
        "pq_adc": SQL_PQ_ADC,
        "embed_kmeans": _sql_embed_kmeans(),
        "embed_ivf_topk_int": _sql_embed_ivf_topk_int(),
        "doc_dsir_weights": SQL_DOC_DSIR_WEIGHTS,
        "doc_dict_tags": SQL_DOC_DICT_TAGS,
        "tile_pyramid": _sql_tile_pyramid(),
        "zorder_stats": _sql_zorder_stats(),
        "events_latest_per_user": SQL_EVENTS_LATEST,
        "doc_topk_per_source": SQL_DOC_TOPK_PER_SOURCE,
        "snapshot_diff": SQL_SNAPSHOT_DIFF,
        "doc_paragraph_dedup": SQL_DOC_PARAGRAPH_DEDUP,
        "doc_sample_global": SQL_DOC_SAMPLE_GLOBAL,
        "events_watermark_late": SQL_EVENTS_WATERMARK_LATE,
        "users_click_not_purchase": SQL_USERS_CLICK_NOT_PURCHASE,
        "events_running_total": SQL_EVENTS_RUNNING_TOTAL,
        "events_pivot_counts": _sql_events_pivot(),
        "bloom_semijoin_revenue": SQL_BLOOM_SEMIJOIN,
        "crawl_refresh": SQL_CRAWL_REFRESH,
        "users_click_and_purchase": SQL_USERS_CLICK_AND_PURCHASE,
        "events_props_json": SQL_EVENTS_PROPS_JSON,
        "doc_dup_spans": SQL_DOC_DUP_SPANS,
        "doc_gopher_rules": _sql_gopher_rules(),
        "part_sssp": _sql_part_sssp(),
        "events_unpivot_counts": _sql_events_unpivot(),
        "doc_kfold_counts": SQL_DOC_KFOLD,
        "corpus_report": SQL_CORPUS_REPORT,
        "doc_len_mad": SQL_DOC_LEN_MAD,
    }


def no_oracle_reasons():
    """Why each remaining rows-only query has no SQL mirror (the driver
    records 'no_oracle'; this documents the cause per query)."""
    return {
        "embed_pca_project": (
            "float eigendecomposition (np.linalg.eigh) is not "
            "SQL-expressible; gated in pytest against direct numpy PCA "
            "on the materialized table and the projection identity; "
            "fit (id-bucketed canonical moments) and projection "
            "(fixed-order d-axis accumulation) are BIT-identical under "
            "any block layout — the rows-only rerun survives a "
            "repartition/block-size shuffle"
        ),
        "price_quantiles_kll": (
            "the KLL compaction cascade is inherently procedural (an "
            "iterated sort/halve fixpoint) — exact SQL quantiles would "
            "oracle a DIFFERENT operator; gated in pytest by "
            "below-capacity exactness vs numpy, an empirical rank-error "
            "bound at forced compaction, merge associativity, and rerun "
            "determinism; runs the value-hash-celled "
            "kll_sketch_grouped tree, so the readout is bit-identical "
            "under any block layout"
        ),
        "events_gap_quantiles": (
            "per-group KLL sketches (same procedural compaction as "
            "price_quantiles_kll); the gap kernel it feeds IS "
            "oracle-checked via events_interarrival, and the grouped "
            "sketch path is gated by a below-capacity exactness pytest "
            "against per-group numpy quantiles"
        ),
        "doc_compression_ratio": (
            "zlib DEFLATE is not SQL-expressible; integer byte counts "
            "at a fixed level are deterministic (rows-only rerun check "
            "holds) and pinned by a direct-zlib parity pytest"
        ),
        "bpe_merges": (
            "the Sennrich merge loop is an iterated argmax fixpoint "
            "(each merge depends on all previous merges) — not "
            "SQL-expressible; deterministic tie rule + exact integer "
            "counts make it rerun-stable, and a scalar-oracle pytest "
            "pins the merge sequence"
        ),
        "bpe_token_counts": (
            "applies bpe_merges' learned table (same iterative "
            "dependency); segmentation greedy-by-rank is pinned by "
            "pytest (roundtrip identity + scalar parity), counts are "
            "exact integers"
        ),
        "embed_ivfpq_topk": (
            "float Lloyd codebooks + ADC distances are not "
            "SQL-expressible (the integer twin pq_adc IS hash-checked); "
            "deterministic, and pytest gates nprobe==n_centroids "
            "bit-identity with pq_adc_topk plus layout invariance"
        ),
        "audio_fingerprint_neardup": (
            "spectral-landmark extraction is an FFT (float) and not "
            "SQL-expressible; the posting-list pair counting is exact "
            "integers, the pipeline is rerun/layout-deterministic "
            "(rows-only holds), and pytest pins it to the scalar "
            "audio_landmarks oracle on the same planted corpus"
        ),
        "video_phash_neardup": (
            "per-frame pHash DCT + majority pooling is float and not "
            "SQL-expressible; the pipeline is rerun/layout-deterministic "
            "(rows-only holds) and pinned by pytest against the scalar "
            "video_phash64 oracle on the same planted corpus"
        ),
        "image_phash_neardup": (
            "the perceptual hash's 2-D DCT is float and not "
            "SQL-expressible; the pipeline is rerun/layout-deterministic "
            "(rows-only holds) and pinned by pytest against the scalar "
            "phash64 oracle on the same planted near-dup corpus"
        ),
        "doc_lang_classifier": (
            "iterative float softmax-GD training is not "
            "SQL-expressible; the canonical gradient fold makes reruns "
            "bit-identical (rows-only holds), and pytest pins "
            "scalar-GD weight parity, planted-signal perfect "
            "diagonality, and rerun determinism"
        ),
        "minhash_near_dup": (
            "output depends on seeded 64-permutation MinHash band "
            "collisions; the banding is not expressible as set-based SQL "
            "(correctness covered by planted-duplicate pytest fixtures; "
            "the exact-Jaccard verifier itself IS oracle-checked via the "
            "ngram_jaccard query)"
        ),
        "simhash_pairs": (
            "64-bit SimHash bit-voting over token hashes "
            "(pandas.util.hash_array) has no SQL equivalent; verified by "
            "planted near-identical texts in pytest"
        ),
        "embed_topk": (
            "float cosine ranking (see embed_topk_int for the "
            "oracle-exact integer variant of the same operator)"
        ),
        "embed_ivf_topk": (
            "IVF probing over float k-means centroids (float Lloyd "
            "iterations are not SQL-expressible; the integer twin "
            "embed_ivf_topk_int IS hash-checked); exactness gated in "
            "pytest — nprobe=n_centroids is bit-equal to the brute "
            "path, which itself mirrors embed_topk_int's SQL oracle"
        ),
        "graph_simplify": (
            "iterative whole-graph fixpoint (degree-2 contraction, "
            "under-delta rewrites with generated merge ids) — inherently "
            "procedural; gated instead by reference goldens + the "
            "sequential oracle kernel in pytest"
        ),
        "graph_discretize": (
            "generates interpolated node chains with float-repr string "
            "ids; gated by reference goldens (bitwise coord strings) in "
            "pytest"
        ),
        "knn_pages_snap": (
            "full flagship pipeline over generated pages (HTML extract + "
            "geotag + kNN snap); the kNN ranking itself is oracle-checked "
            "by knn_cell_snap/nn_snap_planar; end-to-end gated by pytest "
            "row/byte-parity fixtures"
        ),
    }
