"""Connected components + largest-component filter (reference H1,
src/heuristics.rs:10-58) and per-component distributed simplify
(H2-H6, heuristics.rs:60-169) — SURVEY.md §7.4 two-level design.

One component labeler with two rungs, switched by ``joins.ladder`` on
the edge count against ``DEFAULT_BROADCAST_CAP``:

- small: the (id) and (u, v) key columns come to the driver and one
  numpy min-label / pointer-jump kernel (``_min_label_cc``) labels
  them — no exchange at all;
- large: distributed hash-min label propagation with pointer jumping
  (``connected_components_labelprop``), one bucketed join + one
  grouped min per round, O(log diameter) rounds.

Both give every node the smallest node id of its component, and both
raise ``ValueError`` on an edge whose endpoint is not a node (the
reference panics on it). ``connected_components_auto`` returns the
(id, comp) table; H1 and the contraction attach the labels to the
graph on the same rung (``_labelled``).

Contraction heuristics run **per component** inside
``groupby(comp).map_groups`` using the sequential oracle kernel — a
component fits one task while thousands of components (cities, tiles)
parallelize across the cluster. A component larger than
``DEFAULT_TASK_CAP`` nodes is first contracted by the distributed H3,
then — if it is still too big — split into delta-interaction units
(``contract_units``); each step is a ladder on the largest component's
node count. This is not a port of the reference's single-heap loop:
the dataflow shape is groupby/map_groups; the kernel is the same
algorithm the reference runs, pinned to deterministic order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .joins import (DEFAULT_BROADCAST_CAP, BroadcastIndex, grouped_apply,
                    hash_join, ladder, stable_hash)
from .oracle import OracleGraph
from .pages import _fetch_cached

DEFAULT_TASK_CAP = 2_000_000  # max nodes of one component in one map_groups task
_DANGLING = "edge endpoints missing from the node table"


def connected_components_labelprop(nodes, edges, max_rounds: int = 50, num_buckets: int = 64):
    """Distributed hash-min label propagation WITH POINTER JUMPING ->
    Dataset (id, comp).

    Round: every arc forwards its source's current label to its target
    (neighbour messages), AND every node jumps to its label's label
    (label(label(v)) — pointer doubling through the label links); new
    label = min of all. Plain hash-min alone needs O(diameter) rounds —
    street graphs are chain-heavy, so a city component can be thousands
    of rounds (and a 50-round cap would silently return wrong labels);
    the jump term contracts label chains exponentially, giving
    O(log diameter) rounds. Convergence detected via a deterministic
    signature (xor of hash(id||label)).

    The label join is a LEFT join, so a request for a key that is no
    node (an edge endpoint missing from the node table) surfaces as a
    null label in the first round's signature pass and raises
    ``ValueError`` — the rule of the driver kernel.
    """
    labels = nodes.select_columns(["id"]).map_batches(
        lambda df: pd.DataFrame({"id": df["id"], "comp": df["id"]}),
        batch_format="pandas",
    ).materialize()

    def arcs_of(e):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            # preserve the native id dtype: casting int64 ids to object
            # changes pd.util.hash_array's value, so arcs would land in
            # different hash_join buckets than the (native) label table
            # and every message join would be silently empty
            return pd.DataFrame(
                {
                    "src": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
                    "dst": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
                }
            )
        return e.map_batches(fn, batch_format="pandas")

    arcs = arcs_of(edges.select_columns(["u", "v"])).materialize()
    if labels.count() == 0:
        if arcs.count():
            raise ValueError(_DANGLING)
        return labels

    def signature(lbl) -> int:
        def h(df: pd.DataFrame) -> pd.DataFrame:
            vals = stable_hash(
                (df["id"].astype(str) + "\x00" + df["comp"].astype(str)).to_numpy(object)
            )
            return pd.DataFrame({
                "sig": np.array([np.bitwise_xor.reduce(vals)], dtype=np.uint64),
                "missing": [int(df["comp"].isna().sum())],
            })

        parts = lbl.map_batches(h, batch_format="pandas").to_pandas()
        if not len(parts):
            return 0
        if parts["missing"].sum():
            raise ValueError(_DANGLING)
        return int(np.bitwise_xor.reduce(parts["sig"].to_numpy().astype(np.uint64)))

    def min_label(df: pd.DataFrame) -> pd.DataFrame:
        missing = df["comp"].isna()
        if missing.any():  # keep the null labels for the signature pass
            return pd.concat([min_label(df[~missing]), df.loc[missing, ["id", "comp"]]])
        return df.groupby("id", as_index=False)["comp"].min()

    # static half of the per-round label requests: every arc asks for
    # its source's label on behalf of its target
    req_static = arcs.map_batches(
        lambda df: pd.DataFrame({"out": df["dst"], "key": df["src"]}),
        batch_format="pandas",
    ).materialize()

    sig = signature(labels)
    for _ in range(max_rounds):
        # ONE join per round: arc messages (dst wants label(src)) and
        # pointer jumps (v wants label(label(v)); a label is itself a
        # node id) are both "out wants label(key)" requests, so they
        # union into a single request table and share one bucketed
        # join against the label table — halving the per-round barrier
        # count vs separate message/jump joins (measured: the round
        # cost is barrier-dominated, not data-dominated)
        jump_req = labels.map_batches(
            lambda df: pd.DataFrame({"out": df["id"], "key": df["comp"]}),
            batch_format="pandas",
        )
        got = hash_join(
            req_static.union(jump_req),
            labels.map_batches(
                lambda df: pd.DataFrame({"key": df["id"], "comp": df["comp"]}),
                batch_format="pandas",
            ),
            "key",
            how="left",
            num_buckets=num_buckets,
        ).map_batches(
            lambda df: pd.DataFrame({"id": df["out"], "comp": df["comp"]}),
            batch_format="pandas",
        )
        # repartition: map_groups emits one block per bucket and union
        # sums block counts, so without coalescing the label table's
        # block count multiplies ~4x per round (measured: round times
        # 1.8s -> 27s by round 3 from per-block overhead alone)
        new_labels = (
            grouped_apply(
                labels.union(got),
                "id",
                min_label,
                num_buckets=num_buckets,
            )
            .repartition(min(num_buckets, 16))
            .materialize()
        )
        new_sig = signature(new_labels)
        labels = new_labels
        if new_sig == sig:
            break
        sig = new_sig
    return labels


def _min_label_cc(ids: np.ndarray, iu: np.ndarray, iv: np.ndarray) -> np.ndarray:
    """Vectorized hash-min with pointer jumping over index arrays:
    returns lab where lab[i] is the INDEX of the smallest node in i's
    component. ids must be sorted so min index == min id. O(log n)
    passes, each a handful of numpy kernels over the edge arrays."""
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        nxt = lab.copy()
        if len(iu):
            m = np.minimum(lab[iu], lab[iv])
            np.minimum.at(nxt, iu, m)
            np.minimum.at(nxt, iv, m)
        nxt = np.minimum(nxt, nxt[nxt])  # jump: label of one's label
        if np.array_equal(nxt, lab):
            return lab
        lab = nxt


def _driver_labels(nodes, edges) -> tuple[np.ndarray, np.ndarray]:
    """The small rung's labels on the driver: (ids, comp) with ``ids``
    the sorted distinct node ids and ``comp[i]`` the smallest id of
    ``ids[i]``'s component (``_min_label_cc``). An edge endpoint that
    is no node raises ``ValueError``."""
    id_parts = [b["id"] for b in nodes.select_columns(["id"]).iter_batches(
        batch_format="numpy", batch_size=None)]
    ids = np.unique(np.concatenate(id_parts)) if id_parts else np.array([], np.int64)
    us, vs = [], []
    for b in edges.select_columns(["u", "v"]).iter_batches(
            batch_format="numpy", batch_size=None):
        us.append(b["u"])
        vs.append(b["v"])
    u = np.concatenate(us) if us else np.array([], ids.dtype)
    v = np.concatenate(vs) if vs else np.array([], ids.dtype)
    iu = np.searchsorted(ids, u)
    iv = np.searchsorted(ids, v)
    if len(u) and not (len(ids)
                       and np.array_equal(ids[np.minimum(iu, len(ids) - 1)], u)
                       and np.array_equal(ids[np.minimum(iv, len(ids) - 1)], v)):
        raise ValueError(_DANGLING)
    return ids, ids[_min_label_cc(ids, iu, iv)]


def connected_components_broadcast(nodes, edges):
    """Broadcast-regime connected components -> Dataset (id, comp):
    the key columns ship to one process and a vectorized min-label
    kernel (``_min_label_cc``) resolves the fixpoint in-memory — no
    per-round barriers at all. Same labels as the labelprop (smallest
    node id in the component) by construction; callers gate on edge
    count (see ``connected_components_auto``). The distributed
    labelprop pays ~3 exchange barriers per round regardless of data
    size, which dominates end-to-end time whenever the key columns fit
    a single heap (measured: 38.9 s -> sub-second on the sf0.1 part
    chain graph)."""
    import pyarrow as pa
    import ray

    ids, comp = _driver_labels(nodes, edges)
    # via Arrow: a 0-row from_pandas dataset drops its schema
    return ray.data.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"id": ids, "comp": comp}), preserve_index=False))


def connected_components_auto(nodes, edges, *, max_rounds: int = 50,
                              num_buckets: int = 64):
    """Hybrid exchange ladder for connected components (the repo
    pattern, cf. graphops.triangle_count): under the broadcast cap
    edges the key columns ship once and the fixpoint runs in one
    vectorized kernel; above it the distributed pointer-jumping
    labelprop runs. A forced-rung test pins both paths to identical
    (id, comp) sets."""
    edges = edges.materialize()
    return ladder(
        "components.connected_components_auto", edges.count(), DEFAULT_BROADCAST_CAP,
        lambda: connected_components_broadcast(nodes, edges),
        lambda: connected_components_labelprop(
            nodes, edges, max_rounds=max_rounds, num_buckets=num_buckets))


def _labelled(name: str, nodes, edges, *, num_buckets: int):
    """The graph with its component labels attached, as one ladder on
    the edge count: ``(nodes + comp, edges + comp, best, n)``, where an
    edge carries its ``u``'s label and ``best`` is the largest
    component (ties -> smallest label; None on an empty graph) with
    ``n`` nodes.

    Small rung: ``_driver_labels`` on the driver, then a broadcast
    label lookup per batch — no exchange. Large rung: the labelprop
    table, hash-joined onto nodes and edges; the largest component is
    reduced per hash bucket, so the driver pulls one row per bucket."""
    import ray

    edges = edges.materialize()

    def small():
        ids, comp = _driver_labels(nodes, edges)
        labs, counts = np.unique(comp, return_counts=True)
        top = int(np.argmax(counts)) if len(counts) else None  # first max: smallest label
        ref = ray.put(BroadcastIndex(ids, {"comp": comp}))

        def attach(col):
            def fn(df: pd.DataFrame) -> pd.DataFrame:
                idx = _fetch_cached(ref)
                return df.assign(comp=idx.lookup(df[col].to_numpy(object), "comp"))
            return fn

        return (nodes.map_batches(attach("id"), batch_format="pandas"),
                edges.map_batches(attach("u"), batch_format="pandas"),
                None if top is None else labs[top],
                0 if top is None else int(counts[top]))

    def large():
        few = min(num_buckets, 8)  # the label table is key columns only
        labels = connected_components_labelprop(nodes, edges, num_buckets=few)

        def bucket_top(df: pd.DataFrame) -> pd.DataFrame:
            h = df.groupby("comp", as_index=False).agg(n=("id", "size"))
            return h[h["n"] == h["n"].max()].sort_values("comp").head(1)

        tops = grouped_apply(labels, "comp", bucket_top, num_buckets=few).to_pandas()
        best, n = None, 0
        if len(tops):  # a 0-row to_pandas has no columns
            n = int(tops["n"].max())
            best = tops.loc[tops["n"] == n, "comp"].min()
        return (hash_join(nodes, labels, "id", num_buckets=num_buckets),
                hash_join(edges, labels.map_batches(
                    lambda df: df.rename(columns={"id": "u"}), batch_format="pandas"),
                    "u", num_buckets=num_buckets),
                best, n)

    return ladder(name, edges.count(), DEFAULT_BROADCAST_CAP, small, large)


def largest_component(nodes, edges):
    """H1: filter (nodes, edges) to the largest connected component
    (reference heuristics.rs:10-58; ties -> smallest component label,
    matching the oracle's sorted-seed first-encounter rule). The
    labels come from ``_labelled``; an edge endpoint that is no node
    raises ``ValueError``, as in the reference."""
    nodes_l, edges_l, best, _ = _labelled(
        "components.largest_component", nodes, edges, num_buckets=8)
    if best is None:
        return nodes, edges

    def member(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["comp"].to_numpy(object) == best].drop(columns=["comp"])

    return (nodes_l.map_batches(member, batch_format="pandas"),
            edges_l.map_batches(member, batch_format="pandas"))


# ------------------------------------------------- distributed H3 (scale path)


def _double_step(T, num_buckets: int):
    """One pointer-doubling round over the walker jump table.

    Rows whose value arc matches another row's key arc jump to that
    row's value (2^r -> 2^(r+1) steps); rows whose value arc has a
    non-degree-2 head match nothing (such arcs are never keys) and are
    absorbed — ``moved`` False forever after."""
    def as_left(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"jq": df["vq"], "jp": df["vp"], "a": df["kq"], "b": df["kp"], "side": 0}
        )

    def as_right(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"jq": df["kq"], "jp": df["kp"], "a": df["vq"], "b": df["vp"], "side": 1}
        )

    u = T.map_batches(as_left, batch_format="pandas").union(
        T.map_batches(as_right, batch_format="pandas")
    )

    def step_fn(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["side"] == 0]
        r = df[df["side"] == 1][["jq", "jp", "a", "b"]].rename(
            columns={"a": "na", "b": "nb"}
        )
        m = l.merge(r, on=["jq", "jp"], how="left")
        hit = m["na"].notna().to_numpy()
        vq = np.where(hit, m["na"].to_numpy(object), m["jq"].to_numpy(object))
        vp = np.where(hit, m["nb"].to_numpy(object), m["jp"].to_numpy(object))
        return pd.DataFrame(
            {"kq": m["a"], "kp": m["b"], "vq": vq, "vp": vp, "moved": hit}
        )

    return grouped_apply(u, ["jq", "jp"], step_fn, num_buckets=num_buckets)


def _resolve_chains_local(s, n1, n2) -> set:
    """Driver-side exact chain resolution of the degree-2 snapshot:
    walk every maximal S-chain to its two non-S terminals. Returns the
    canonical (min, max) terminal pairs; loops on one junction
    (ta == tb) and pure S-cycles contribute nothing — identical
    semantics to the pointer-doubling readout."""
    nbr = {si: (a, b) for si, a, b in zip(s, n1, n2)}
    visited: set = set()
    out: set = set()
    for start in nbr:
        if start in visited:
            continue
        chain = {start}
        ends = []
        cyc = False
        for direction in (0, 1):
            prev = start
            cur = nbr[start][direction]
            while cur in nbr:
                if cur in chain:
                    cyc = True
                    break
                chain.add(cur)
                a, b = nbr[cur]
                nxt = b if a == prev else a
                prev, cur = cur, nxt
            if cyc:
                break
            ends.append(cur)
        visited |= chain
        if cyc:
            continue
        ta, tb = ends
        if ta != tb:
            out.add((min(ta, tb), max(ta, tb)))
    return out


def _h3_rewrite_local(nodes, edges, s_pairs):
    """Small-|S| H3 rewrite: chains resolved on the driver, graph
    rewritten with broadcast filters — zero shuffles beyond the degree
    snapshot the caller already took. The chain edges that duplicate a
    surviving edge (reference contains_link guard) are found with one
    streaming membership scan of the pruned (u, v) columns."""
    import ray

    sp = s_pairs.to_pandas()
    chain = _resolve_chains_local(
        sp["s"].to_numpy(object), sp["n1"].to_numpy(object), sp["n2"].to_numpy(object)
    )
    s_ref = ray.put(frozenset(sp["s"]))
    c_ref = ray.put(frozenset(chain))

    def dup_scan(df: pd.DataFrame) -> pd.DataFrame:
        sset = _fetch_cached(s_ref)
        cset = _fetch_cached(c_ref)
        keep = [
            (u, v)
            for u, v in zip(df["u"], df["v"])
            if u not in sset and v not in sset and (min(u, v), max(u, v)) in cset
        ]
        return pd.DataFrame(
            {
                "u": np.array([p[0] for p in keep], dtype=object),
                "v": np.array([p[1] for p in keep], dtype=object),
            }
        )

    dup = (
        edges.select_columns(["u", "v"])
        .map_batches(dup_scan, batch_format="pandas")
        .to_pandas()
        if chain
        else pd.DataFrame()
    )
    dup_pairs = ({(min(u, v), max(u, v)) for u, v in zip(dup["u"], dup["v"])}
                 if len(dup) else set())  # a 0-row to_pandas has no columns
    new_pairs = sorted(chain - dup_pairs)

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        sset = _fetch_cached(s_ref)
        m = np.array([u not in sset and v not in sset for u, v in zip(df["u"], df["v"])])
        if len(m) == 0:
            return df[["u", "v"]]
        return df[m][["u", "v"]]

    edges_out = edges.select_columns(["u", "v"]).map_batches(
        survivors, batch_format="pandas"
    )
    if new_pairs:
        chain_df = pd.DataFrame(
            {
                "u": np.array([p[0] for p in new_pairs], dtype=object),
                "v": np.array([p[1] for p in new_pairs], dtype=object),
            }
        )
        edges_out = edges_out.union(ray.data.from_pandas(chain_df))

    def node_survivors(df: pd.DataFrame) -> pd.DataFrame:
        sset = _fetch_cached(s_ref)
        m = np.array([i not in sset for i in df["id"]])
        if len(m) == 0:
            return df
        return df[m]

    nodes_out = nodes.map_batches(node_survivors, batch_format="pandas")
    return nodes_out.materialize(), edges_out.materialize()


def remove_degree_two_nodes_distributed(
    nodes,
    edges,
    *,
    num_buckets: int = 64,
    max_rounds: int = 40,
):
    """H3 ``remove_degree_two_nodes`` (reference heuristics.rs:80-91) as
    a distributed dataflow — exact, not approximate.

    The reference pass snapshots the degree-2 set S once and replaces
    each member sequentially. That pass is CONFLUENT: every maximal
    chain of S-nodes contracts to one edge between its two non-S
    terminals regardless of processing order; a chain whose terminals
    coincide (a loop hung on one junction) and a pure S-cycle vanish
    without adding an edge; an added edge that duplicates a surviving
    edge (or another chain's edge) is dropped by the reference's
    contains_link guard. So the result is fully determined by
    chain -> (terminal, terminal) resolution, which parallelizes.

    HYBRID: the degree-2 snapshot S is computed distributed (one
    hash-bucket shuffle over the arc table — the only pass that touches
    every edge). When |S| fits the broadcast cap the chain walk itself runs on
    the driver (S is the small side: the snapshot is 3 ids per degree-2
    node, ~100 bytes — 5M nodes is ~500 MB) and the graph rewrite is
    pure broadcast map_batches with ZERO further shuffles. Above the
    cap, directed-walker pointer doubling takes over: the jump table
    keys every arc (q -> p) whose head p is in S to the arc one step
    down the chain; each round composes the table with itself
    (2^r -> 2^(r+1) steps, one hash-bucket shuffle per round), so a
    chain of length L resolves in ceil(log2 L) rounds. Rows still
    moving after ``max_rounds`` (2^40 steps) are S-cycles and are
    discarded. ``forced_rung("large")`` forces the distributed loop (the
    pure-distributed tests do). Partitioning assumption: none beyond
    hash(key) — chains may span any number of blocks/nodes.

    Returns (nodes_out, edges_out) with the input schemas preserved.
    """
    def to_arcs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": np.concatenate(
                    [df["u"].to_numpy(object), df["v"].to_numpy(object)]
                ),
                "dst": np.concatenate(
                    [df["v"].to_numpy(object), df["u"].to_numpy(object)]
                ),
            }
        )

    arcs = edges.select_columns(["u", "v"]).map_batches(to_arcs, batch_format="pandas")

    # snapshot: degree-2 nodes with their (sorted) neighbour pair
    def pairs_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["src", "dst"], kind="stable")
        size = df.groupby("src", sort=False)["dst"].transform("size")
        d2 = df[size.to_numpy() == 2]
        g = d2.groupby("src", sort=False)["dst"].agg(["first", "last"])
        return pd.DataFrame(
            {
                "s": g.index.to_numpy(object),
                "n1": g["first"].to_numpy(object),
                "n2": g["last"].to_numpy(object),
            }
        )

    s_pairs = grouped_apply(arcs, "src", pairs_fn, num_buckets=num_buckets).materialize()
    n_s = s_pairs.count()
    if n_s == 0:
        return nodes, edges

    return ladder(
        "components.remove_degree_two_nodes_distributed", n_s, DEFAULT_BROADCAST_CAP,
        lambda: _h3_rewrite_local(nodes, edges, s_pairs),
        lambda: _h3_rewrite_doubling(nodes, edges, arcs, s_pairs,
                                     num_buckets=num_buckets,
                                     max_rounds=max_rounds))


def _h3_rewrite_doubling(nodes, edges, arcs, s_pairs, *, num_buckets: int,
                         max_rounds: int):
    """Over-cap H3: pointer doubling, then the distributed rewrite."""
    # init: every arc into an S node maps to the arc one step onward
    arcs_in = hash_join(
        arcs.map_batches(
            lambda df: df.rename(columns={"dst": "s"}), batch_format="pandas"
        ),
        s_pairs,
        "s",
        num_buckets=num_buckets,
    )

    def init_fn(df: pd.DataFrame) -> pd.DataFrame:
        nxt = np.where(
            df["n1"].to_numpy(object) == df["src"].to_numpy(object),
            df["n2"].to_numpy(object),
            df["n1"].to_numpy(object),
        )
        return pd.DataFrame(
            {"kq": df["src"], "kp": df["s"], "vq": df["s"], "vp": nxt, "moved": True}
        )

    T = arcs_in.map_batches(init_fn, batch_format="pandas").materialize()

    # a chain's walkers sit at EVERY distance 1..L from their terminal,
    # so while any chain walker is unabsorbed, each doubling round
    # absorbs at least one more — the moving count strictly decreases.
    # When it stops decreasing (but isn't 0), every remaining mover is
    # an S-cycle: stop instead of spinning to max_rounds.
    prev_moved = None
    for _ in range(max_rounds):
        # coalesce each round: iterated map_groups outputs otherwise
        # multiply the block count (and per-block overhead) every round
        T = _double_step(T, num_buckets).repartition(min(num_buckets, 16)).materialize()
        moved = (
            T.map_batches(
                lambda df: pd.DataFrame({"n": [int(df["moved"].sum())]}),
                batch_format="pandas",
            )
            .to_pandas()["n"]
            .sum()
        )
        if moved == 0 or moved == prev_moved:
            break
        prev_moved = moved

    # readout: each S node resolves its two walkers to chain terminals
    def explode(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "s": np.concatenate([df["s"].to_numpy(object)] * 2),
                "n": np.concatenate(
                    [df["n1"].to_numpy(object), df["n2"].to_numpy(object)]
                ),
            }
        )

    sides = s_pairs.map_batches(explode, batch_format="pandas")
    walker = T.map_batches(
        lambda df: pd.DataFrame(
            {"s": df["kq"], "n": df["kp"], "t": df["vp"], "cyc": df["moved"]}
        ),
        batch_format="pandas",
    )
    j = hash_join(sides, walker, ["s", "n"], how="left", num_buckets=num_buckets)

    def chain_fn(df: pd.DataFrame) -> pd.DataFrame:
        # unmatched walker (t null) = neighbour n is itself the terminal;
        # matched-with-cyc = this chain is an S-cycle -> no output edge
        t = np.where(df["t"].notna().to_numpy(), df["t"].to_numpy(object), df["n"].to_numpy(object))
        bad = df["cyc"].fillna(False).infer_objects(copy=False).astype(bool).to_numpy()
        dd = pd.DataFrame({"s": df["s"].to_numpy(object), "t": t, "bad": bad})
        g = dd.groupby("s", sort=False).agg(
            t1=("t", "min"), t2=("t", "max"), bad=("bad", "any")
        )
        keep = (~g["bad"]) & (g["t1"] != g["t2"])
        out = g[keep]
        return pd.DataFrame(
            {"u": out["t1"].to_numpy(object), "v": out["t2"].to_numpy(object)}
        )

    chain_edges = grouped_apply(j, "s", chain_fn, num_buckets=num_buckets)

    # surviving edges: both endpoints outside S
    s_mark = s_pairs.map_batches(
        lambda df: pd.DataFrame({"s": df["s"], "__m": 1}), batch_format="pandas"
    ).materialize()

    def _drop_matched(col):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["__m"].isna()][["u", "v"]]

        return fn

    e1 = hash_join(
        edges.select_columns(["u", "v"]),
        s_mark.map_batches(lambda df: df.rename(columns={"s": "u"}), batch_format="pandas"),
        "u",
        how="left",
        num_buckets=num_buckets,
    ).map_batches(_drop_matched("u"), batch_format="pandas")
    e2 = hash_join(
        e1,
        s_mark.map_batches(lambda df: df.rename(columns={"s": "v"}), batch_format="pandas"),
        "v",
        how="left",
        num_buckets=num_buckets,
    ).map_batches(_drop_matched("v"), batch_format="pandas")

    # union + canonical dedup (a chain edge can duplicate a surviving
    # edge or another chain's edge — the reference's contains_link guard).
    # Chain edges are emitted canonical (min, max); canonicalize the
    # survivors too, otherwise a chain edge duplicating a REVERSED
    # surviving edge would land in a different hash bucket and slip the
    # guard (the local path's dup_scan checks both orientations).
    def canon(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(object)
        v = df["v"].to_numpy(object)
        return pd.DataFrame({"u": np.minimum(u, v), "v": np.maximum(u, v)})

    all_edges = grouped_apply(
        e2.map_batches(canon, batch_format="pandas").union(chain_edges),
        ["u", "v"],
        lambda df: df.drop_duplicates(subset=["u", "v"]),
        num_buckets=num_buckets,
    )

    nodes_out = hash_join(
        nodes,
        s_mark.map_batches(lambda df: df.rename(columns={"s": "id"}), batch_format="pandas"),
        "id",
        how="left",
        num_buckets=num_buckets,
    ).map_batches(
        lambda df: df[df["__m"].isna()].drop(columns=["__m"]), batch_format="pandas"
    )
    # contracted outputs are small and consumed repeatedly (labelling,
    # grouping, metrics) — pin them so each consumer doesn't re-run the
    # readout joins
    return nodes_out.materialize(), all_edges.materialize()


# ------------------------------------------------- per-component contraction

_NODE_KIND, _EDGE_KIND = 0, 1


def _tag_for_group(nodes_l, edges_l):
    """Union node rows and edge rows into one schema for co-grouping."""
    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "comp": df["comp"],
                "kind": _NODE_KIND,
                "a": df["id"],
                "b": df["lat_str"],
                "c": df["lon_str"],
            }
        )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "comp": df["comp"],
                "kind": _EDGE_KIND,
                "a": df["u"],
                "b": df["v"],
                "c": "",
            }
        )

    return nodes_l.map_batches(node_rows, batch_format="pandas").union(
        edges_l.map_batches(edge_rows, batch_format="pandas")
    )


def _contract_grouped(nodes_l, edges_l, delta: float, *, skip_h3: bool):
    """groupby(comp).map_groups with the oracle kernel on labelled
    (nodes_l, edges_l) -> (nodes_out, edges_out). ``skip_h3`` when
    degree-2 contraction already ran distributed (the H3 result has no
    new ids, so pre/post labels agree and H4 -> H6 per component is
    exactly the reference chain's tail)."""
    tagged = _tag_for_group(nodes_l, edges_l)

    def contract(group: pd.DataFrame) -> pd.DataFrame:
        g = OracleGraph()
        nrows = group[group["kind"] == _NODE_KIND]
        erows = group[group["kind"] == _EDGE_KIND]
        for a, b, c in zip(nrows["a"], nrows["b"], nrows["c"]):
            g.insert_node(a, b, c)
        for a, b in zip(erows["a"], erows["b"]):
            g.insert_edge(a, b)
        if not skip_h3:
            g.remove_degree_two_nodes()
        g.remove_under_delta_nodes(delta)
        g.remove_under_delta_links(delta)
        comp = group["comp"].iloc[0]
        out_nodes = [
            (comp, _NODE_KIND, n, g.coords[n][0], g.coords[n][1]) for n in sorted(g.coords)
        ]
        out_edges = [(comp, _EDGE_KIND, u, v, "") for (u, v) in g.undirected_edges()]
        return pd.DataFrame(
            out_nodes + out_edges, columns=["comp", "kind", "a", "b", "c"]
        )

    # contraction output is a small fraction of the input; materialize so
    # the two kind-filters below don't re-run the shuffle twice.
    result = tagged.groupby("comp").map_groups(contract, batch_format="pandas").materialize()
    nodes_out = result.map_batches(
        lambda df: pd.DataFrame(
            {
                "id": df[df["kind"] == _NODE_KIND]["a"],
                "lat_str": df[df["kind"] == _NODE_KIND]["b"],
                "lon_str": df[df["kind"] == _NODE_KIND]["c"],
            }
        ).assign(
            lat=lambda d: d["lat_str"].astype(np.float64),
            lon=lambda d: d["lon_str"].astype(np.float64),
        ),
        batch_format="pandas",
    )
    edges_out = result.map_batches(
        lambda df: pd.DataFrame(
            {
                "u": df[df["kind"] == _EDGE_KIND]["a"],
                "v": df[df["kind"] == _EDGE_KIND]["b"],
            }
        ),
        batch_format="pandas",
    )
    return nodes_out, edges_out


class _MergeTrackingGraph(OracleGraph):
    """OracleGraph that logs every H6 endpoint merge so boundary nodes
    can be mapped to their final ids after a per-unit contraction."""

    def __init__(self) -> None:
        super().__init__()
        self.merge_log: list[tuple[str, str, str]] = []

    def replace_link_by_node(self, u: str, v: str) -> str:
        new_id = super().replace_link_by_node(u, v)
        self.merge_log.append((u, v, new_id))
        return new_id


#: kinds for the unit-kernel row union (input and output share the enum)
_UK_NODE, _UK_EDGE, _UK_PHANTOM, _UK_XEDGE, _UK_MAP = 0, 1, 2, 3, 4


def _unit_kernel(delta: float):
    """Per-unit H4+H6 oracle kernel over a tagged row group. Emits the
    unit's surviving non-phantom nodes, its intra edges, and an
    (original boundary id -> final id) map for cross-edge resolution."""

    def kernel(group: pd.DataFrame) -> pd.DataFrame:
        g = _MergeTrackingGraph()
        k = group["kind"].to_numpy(np.int64)
        for a, b, c in zip(group["a"][k == _UK_NODE], group["b"][k == _UK_NODE],
                           group["c"][k == _UK_NODE]):
            g.insert_node(a, b, c)
        for a, b, c in zip(group["a"][k == _UK_PHANTOM],
                           group["b"][k == _UK_PHANTOM],
                           group["c"][k == _UK_PHANTOM]):
            g.insert_node(a, b, c)
        for a, b in zip(group["a"][k == _UK_EDGE], group["b"][k == _UK_EDGE]):
            g.insert_edge(a, b)
        for a, b in zip(group["a"][k == _UK_XEDGE], group["b"][k == _UK_XEDGE]):
            g.insert_edge(a, b)
        phantoms = set(group["a"][k == _UK_PHANTOM])
        boundary = sorted(set(group["a"][k == _UK_XEDGE]))

        # phantoms and boundary nodes are H4-safe by construction: every
        # cross edge stays > delta forever (unit closure invariant), so
        # the all-incident-<=delta removal test always fails for them
        g.remove_under_delta_nodes(delta)
        g.remove_under_delta_links(delta)

        cur: dict[str, str] = {}
        for u, v, new in g.merge_log:
            cur[u] = new
            cur[v] = new

        unit = group["unit"].iloc[0]
        out = []
        for n in sorted(g.coords):
            if n in phantoms:
                continue
            out.append((unit, _UK_NODE, n, g.coords[n][0], g.coords[n][1]))
        for u, v in g.undirected_edges():
            if u in phantoms or v in phantoms:
                continue
            out.append((unit, _UK_EDGE, u, v, ""))
        for b in boundary:
            f = b
            while f in cur:
                f = cur[f]
            out.append((unit, _UK_MAP, b, f, ""))
        return pd.DataFrame(out, columns=["unit", "kind", "a", "b", "c"])

    return kernel


def contract_units(
    nodes,
    edges,
    delta: float,
    *,
    num_buckets: int = 64,
    meta_cap: int = 5_000_000,
    max_meta_rounds: int = 25,
):
    """Exact distributed H4 -> H6 (remove_under_delta_nodes,
    remove_under_delta_links — reference heuristics.rs:93-169) without
    requiring a whole component to fit one task: the graph is
    partitioned into *delta-interaction units* and the sequential
    oracle kernel runs per unit, in parallel, bit-matching the
    whole-graph oracle.

    Why this is exact (the closure argument):

    - All H4/H6 rewrites act on nodes whose incident edges are
      <= delta (H4) or contract edges < delta (H6). Edges <= delta
      connect nodes inside one "short cluster" (connected component of
      the <= delta subgraph), so rewrites start intra-cluster.
    - A rewrite can move a node only to a lat/lon-convex combination
      of existing unit positions (H6 midpoints), so every node stays
      inside its unit's original lat/lon bounding box forever. The
      displacement of any endpoint is therefore < r(unit) :=
      EARTH_RADIUS_M * (dlat_rad + dlon_rad) of that bbox (haversine
      <= meridian+parallel path length).
    - A cross-unit edge of length L can thus never get shorter than
      L - r(A) - r(B) (sphere triangle inequality). If that stays
      > delta, the edge can never unblock an H4 removal (needs
      <= delta) nor contract in H6 (needs < delta) — the units never
      interact and per-unit sorted processing commutes into the
      oracle's global sorted order.
    - Clusters whose cross edge could dip to <= delta
      (L <= delta + r(A) + r(B), conservatively) are merged into one
      unit; merging grows the bbox, so the rule iterates to a
      fixpoint (distributed candidate filter per round, then the
      ``_min_label_cc`` kernel over only the candidate cluster pairs).

    Cross-unit edges (> delta always) are shipped into BOTH incident
    units as frozen phantom context: the kernel sees them as H4
    blockers and H6 no-ops (only their > delta status matters — it is
    invariant), and after contraction each unit reports the final id
    of its boundary nodes so the cross edges are re-attached by a
    mapping join. A unit larger than ``DEFAULT_TASK_CAP`` nodes raises:
    that is a genuinely sequential delta-dense blob (no exact split
    exists under reference semantics).

    Returns (nodes_out, edges_out) with the contract_components output
    schema. H3 (degree-2 contraction) is NOT run here — compose with
    remove_degree_two_nodes_distributed upstream.
    """
    import ray

    from . import graphops
    from .geo import EARTH_RADIUS_M

    nodes = nodes.materialize()
    ec = graphops.edge_lengths(
        graphops.attach_coords(edges.select_columns(["u", "v"]), nodes)
    ).materialize()

    short = ec.map_batches(
        lambda df: df.loc[df["length_m"].to_numpy() <= delta, ["u", "v"]],
        batch_format="pandas",
    )
    labels = connected_components_auto(
        nodes, short, num_buckets=min(num_buckets, 8)).materialize()

    nodes_lbl = hash_join(nodes, labels, "id", num_buckets=num_buckets
                          ).materialize()
    ec_lbl = hash_join(
        hash_join(
            ec.select_columns(["u", "v", "length_m"]),
            labels.map_batches(
                lambda df: df.rename(columns={"id": "u", "comp": "cu"}),
                batch_format="pandas"),
            "u", num_buckets=num_buckets,
        ),
        labels.map_batches(
            lambda df: df.rename(columns={"id": "v", "comp": "cv"}),
            batch_format="pandas"),
        "v", num_buckets=num_buckets,
    ).materialize()

    # ---- unit fixpoint: min-label kernel over only the candidate pairs
    unit_of: dict = {}  # cluster label -> unit label (smallest merged label)
    pair_a, pair_b = np.array([], object), np.array([], object)

    def unit_col(df: pd.DataFrame, col: str, mref) -> np.ndarray:
        # C-level hash lookup across the whole column (Series.map),
        # identity for unmapped comps — never a per-element Python loop
        # (this path only runs on over-cap graphs)
        m = _fetch_cached(mref)
        if not m:
            return df[col].to_numpy(object)
        s = df[col]
        out = s.map(m)
        return out.where(out.notna(), s).to_numpy(object)

    for _round in range(max_meta_rounds + 1):
        mref = ray.put(unit_of)

        def with_units(df: pd.DataFrame, _m=mref) -> pd.DataFrame:
            df = df.copy()
            df["uu"] = unit_col(df, "cu", _m)
            df["uv"] = unit_col(df, "cv", _m)
            return df

        def node_units(df: pd.DataFrame, _m=mref) -> pd.DataFrame:
            return pd.DataFrame({
                "unit": unit_col(df, "comp", _m),
                "lat": df["lat"].to_numpy(np.float64),
                "lon": df["lon"].to_numpy(np.float64),
            })

        def bbox_fn(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("unit").agg(
                lat0=("lat", "min"), lat1=("lat", "max"),
                lon0=("lon", "min"), lon1=("lon", "max"),
            )
            return g.reset_index()

        bboxes = grouped_apply(
            nodes_lbl.map_batches(node_units, batch_format="pandas"),
            "unit", bbox_fn, num_buckets=num_buckets,
        ).map_batches(
            lambda df: df.assign(
                r=EARTH_RADIUS_M * (
                    np.radians(df["lat1"].to_numpy() - df["lat0"].to_numpy())
                    + np.radians(df["lon1"].to_numpy() - df["lon0"].to_numpy())
                )
            ),
            batch_format="pandas",
        ).materialize()

        cross = ec_lbl.map_batches(with_units, batch_format="pandas"
                                   ).map_batches(
            lambda df: df.loc[df["uu"] != df["uv"],
                              ["uu", "uv", "length_m"]],
            batch_format="pandas",
        )
        cand = hash_join(
            hash_join(
                cross,
                bboxes.map_batches(
                    lambda df: df.rename(columns={"unit": "uu"}),
                    batch_format="pandas"),
                "uu", num_buckets=num_buckets, right_suffix="_a",
            ),
            bboxes.map_batches(
                lambda df: df.rename(columns={"unit": "uv"}),
                batch_format="pandas"),
            "uv", num_buckets=num_buckets, right_suffix="_b",
        ).map_batches(
            lambda df: df.loc[
                df["length_m"].to_numpy()
                <= delta + df["r"].to_numpy() + df["r_b"].to_numpy(),
                ["uu", "uv"],
            ].drop_duplicates(),
            batch_format="pandas",
        )
        cand_df = cand.to_pandas()
        if len(cand_df) == 0:
            break  # (0-row to_pandas drops columns — don't touch them)
        if len(cand_df) > meta_cap:
            raise ValueError(
                f"{len(cand_df)} interacting cluster pairs exceed meta_cap "
                f"{meta_cap}; the graph is delta-dense beyond the exact "
                "unit decomposition"
            )
        # the candidate pairs join current units; every round's pairs
        # together join the clusters, and a unit is labelled by its
        # smallest cluster label
        pair_a = np.concatenate([pair_a, cand_df["uu"].to_numpy(object)])
        pair_b = np.concatenate([pair_b, cand_df["uv"].to_numpy(object)])
        ids = np.unique(np.concatenate([pair_a, pair_b]))
        root = ids[_min_label_cc(ids, np.searchsorted(ids, pair_a),
                                 np.searchsorted(ids, pair_b))]
        merged = root != ids
        if merged.sum() == len(unit_of):  # no candidate joined two units
            break
        unit_of = dict(zip(ids[merged], root[merged]))
    else:
        raise ValueError(
            f"unit fixpoint did not converge in {max_meta_rounds} rounds"
        )

    final_map = ray.put(unit_of)

    # ---- final unit labels, sizes, and row routing
    node_unit = nodes_lbl.map_batches(
        lambda df, _m=final_map: df.assign(unit=unit_col(df, "comp", _m)),
        batch_format="pandas",
    ).materialize()

    def size_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("unit", as_index=False).agg(n=("id", "size"))
        g["n"] = g["n"].astype(np.int64)
        return g

    sizes = grouped_apply(
        node_unit, "unit", size_fn, num_buckets=num_buckets
    ).materialize()
    max_n = max(
        (int(b["n"].max()) for b in sizes.iter_batches(
            batch_format="pandas", batch_size=None) if len(b)),
        default=0,
    )
    if max_n > DEFAULT_TASK_CAP:
        raise ValueError(
            f"delta-interaction unit with {max_n} nodes exceeds DEFAULT_TASK_CAP "
            f"{DEFAULT_TASK_CAP}: H4/H6 inside one unit are order-dependent "
            "sequential semantics with no exact split"
        )

    node_sized = hash_join(node_unit, sizes, on="unit",
                           num_buckets=num_buckets).materialize()
    ec_units = ec_lbl.map_batches(
        lambda df, _m=final_map: df.assign(
            uu=unit_col(df, "cu", _m), uv=unit_col(df, "cv", _m)),
        batch_format="pandas",
    ).materialize()

    # phantom rows carry the VERBATIM coordinate strings of the outside
    # endpoint, so kernel lengths are bit-equal to the sequential oracle
    ec_coords = hash_join(
        hash_join(
            ec_units.map_batches(
                lambda df: df[["u", "v", "uu", "uv"]], batch_format="pandas"),
            nodes.map_batches(
                lambda df: pd.DataFrame({
                    "u": df["id"], "u_lat_str": df["lat_str"],
                    "u_lon_str": df["lon_str"]}),
                batch_format="pandas"),
            "u", num_buckets=num_buckets,
        ),
        nodes.map_batches(
            lambda df: pd.DataFrame({
                "v": df["id"], "v_lat_str": df["lat_str"],
                "v_lon_str": df["lon_str"]}),
            batch_format="pandas"),
        "v", num_buckets=num_buckets,
    ).materialize()

    def multi_node_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["n"] >= 2]
        return pd.DataFrame({
            "unit": d["unit"].to_numpy(object),
            "kind": np.full(len(d), _UK_NODE, dtype=np.int64),
            "a": d["id"].to_numpy(object),
            "b": d["lat_str"].to_numpy(object),
            "c": d["lon_str"].to_numpy(object),
        })

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        intra = df[df["uu"] == df["uv"]]
        out = [pd.DataFrame({
            "unit": intra["uu"].to_numpy(object),
            "kind": np.full(len(intra), _UK_EDGE, dtype=np.int64),
            "a": intra["u"].to_numpy(object),
            "b": intra["v"].to_numpy(object),
            "c": np.full(len(intra), "", dtype=object),
        })]
        x = df[df["uu"] != df["uv"]]
        for unit, anchor, other, olat, olon in (
            ("uu", "u", "v", "v_lat_str", "v_lon_str"),
            ("uv", "v", "u", "u_lat_str", "u_lon_str"),
        ):
            out.append(pd.DataFrame({
                "unit": x[unit].to_numpy(object),
                "kind": np.full(len(x), _UK_PHANTOM, dtype=np.int64),
                "a": x[other].to_numpy(object),
                "b": x[olat].to_numpy(object),
                "c": x[olon].to_numpy(object),
            }))
            out.append(pd.DataFrame({
                "unit": x[unit].to_numpy(object),
                "kind": np.full(len(x), _UK_XEDGE, dtype=np.int64),
                "a": x[anchor].to_numpy(object),
                "b": x[other].to_numpy(object),
                "c": np.full(len(x), "", dtype=object),
            }))
        return pd.concat(out, ignore_index=True)

    # singleton units never receive kernel rows for their node, but their
    # cross edges above still tag the MULTI side; a singleton-singleton
    # cross edge creates two 2-row phantom groups whose kernel output is
    # just the identity map — wasteful AND wrong (no real node rows), so
    # only units with >= 2 real nodes run the kernel; singletons are
    # routed vectorized below.
    multi_units = sizes.map_batches(
        lambda df: df.loc[df["n"] >= 2, ["unit"]].assign(__keep=np.int64(1)),
        batch_format="pandas",
    ).materialize()
    kernel_out = None
    if multi_units.count() > 0:
        tagged = node_sized.map_batches(
            multi_node_rows, batch_format="pandas"
        ).union(ec_coords.map_batches(edge_rows, batch_format="pandas"))
        tagged = hash_join(tagged, multi_units, on="unit",
                           num_buckets=num_buckets).map_batches(
            lambda df: df.drop(columns=["__keep"]), batch_format="pandas"
        )
        kernel_out = tagged.groupby("unit").map_groups(
            _unit_kernel(delta), batch_format="pandas"
        ).materialize()

    # ---- singleton units, vectorized: a lone node survives iff it has
    # at least one (necessarily > delta, cross) edge — H4 removes only
    # fully-short-or-isolated nodes and H6 never touches long edges.
    endpoint_ids = grouped_apply(
        ec.map_batches(
            lambda df: pd.DataFrame({"id": np.concatenate([
                df["u"].to_numpy(object), df["v"].to_numpy(object)])}),
            batch_format="pandas",
        ),
        "id",
        lambda df: df.drop_duplicates(),
        num_buckets=num_buckets,
        drop_partial=lambda df: df.drop_duplicates(),
    ).map_batches(
        lambda df: df.assign(__e=np.int64(1)), batch_format="pandas"
    )
    singleton_nodes = hash_join(
        node_sized.map_batches(
            lambda df: df.loc[df["n"] == 1,
                              ["id", "lat_str", "lon_str"]],
            batch_format="pandas",
        ),
        endpoint_ids, on="id", how="left", num_buckets=num_buckets,
    ).map_batches(
        lambda df: df[df["__e"].notna()][["id", "lat_str", "lon_str"]],
        batch_format="pandas",
    ).materialize()

    mapping_parts = [singleton_nodes.map_batches(
        lambda df: pd.DataFrame({"orig": df["id"], "final": df["id"]}),
        batch_format="pandas",
    )]
    if kernel_out is not None:
        mapping_parts.append(kernel_out.map_batches(
            lambda df: df.loc[df["kind"] == _UK_MAP, ["a", "b"]].rename(
                columns={"a": "orig", "b": "final"}),
            batch_format="pandas",
        ))
    mapping = mapping_parts[0]
    for p in mapping_parts[1:]:
        mapping = mapping.union(p)
    # two join consumers (fu and fv) — pin or the union lineage re-runs
    mapping = mapping.materialize()

    cross_edges = ec_units.map_batches(
        lambda df: df.loc[df["uu"] != df["uv"], ["u", "v"]],
        batch_format="pandas",
    ).materialize()
    resolved = None
    if cross_edges.count() > 0:
        resolved = hash_join(
            hash_join(
                cross_edges,
                mapping.map_batches(
                    lambda df: df.rename(columns={"orig": "u", "final": "fu"}),
                    batch_format="pandas"),
                "u", num_buckets=num_buckets,
            ),
            mapping.map_batches(
                lambda df: df.rename(columns={"orig": "v", "final": "fv"}),
                batch_format="pandas"),
            "v", num_buckets=num_buckets,
        ).map_batches(
            lambda df: pd.DataFrame({
                "u": np.minimum(df["fu"].to_numpy(object),
                                df["fv"].to_numpy(object)),
                "v": np.maximum(df["fu"].to_numpy(object),
                                df["fv"].to_numpy(object)),
            }),
            batch_format="pandas",
        )
        resolved = grouped_apply(
            resolved, ["u", "v"],
            lambda df: df.drop_duplicates(subset=["u", "v"]),
            num_buckets=num_buckets,
        )

    def add_floats(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            lat=df["lat_str"].astype(np.float64),
            lon=df["lon_str"].astype(np.float64),
        )

    nodes_out = singleton_nodes
    if kernel_out is not None:
        nodes_out = nodes_out.union(kernel_out.map_batches(
            lambda df: pd.DataFrame({
                "id": df.loc[df["kind"] == _UK_NODE, "a"],
                "lat_str": df.loc[df["kind"] == _UK_NODE, "b"],
                "lon_str": df.loc[df["kind"] == _UK_NODE, "c"],
            }),
            batch_format="pandas",
        ))
    nodes_out = nodes_out.map_batches(add_floats, batch_format="pandas")

    edge_parts = []
    if kernel_out is not None:
        edge_parts.append(kernel_out.map_batches(
            lambda df: pd.DataFrame({
                "u": df.loc[df["kind"] == _UK_EDGE, "a"],
                "v": df.loc[df["kind"] == _UK_EDGE, "b"],
            }),
            batch_format="pandas",
        ))
    if resolved is not None:
        edge_parts.append(resolved)
    if not edge_parts:
        import ray as _ray
        import pyarrow as _pa
        edge_parts = [_ray.data.from_arrow(_pa.table({
            "u": _pa.array([], _pa.string()),
            "v": _pa.array([], _pa.string()),
        }))]
    edges_out = edge_parts[0]
    for p in edge_parts[1:]:
        edges_out = edges_out.union(p)
    return nodes_out.materialize(), edges_out.materialize()


def contract_components(nodes, edges, delta: float, *, num_buckets: int = 64):
    """Run the contraction chain H3 -> H4 -> H6 (remove_degree_two_nodes,
    remove_under_delta_nodes, remove_under_delta_links — reference
    main.rs:68-71 minus H1) independently on every connected component,
    in parallel, via groupby(comp).map_groups with the oracle kernel.

    Task-size guard, one ladder per step on the largest component's
    node count against ``DEFAULT_TASK_CAP``: a component that does not
    fit one map_groups task first gets its dominant pass — degree-2
    chain contraction, the bulk of any real street graph — as the exact
    distributed dataflow (``remove_degree_two_nodes_distributed``), and
    only the relabelled remainder goes through the per-component kernel
    for H4/H6; if a component is still too big, ``contract_units``
    splits it into provably non-interacting delta units.

    Returns (nodes_out, edges_out) Datasets. Contraction never crosses a
    component boundary (all rewrites stay inside one component), so the
    parallelism is exact, not approximate.
    """
    nodes_l, edges_l, _, biggest = _labelled(
        "components.contract_components", nodes, edges, num_buckets=num_buckets)
    return ladder(
        "components.task_cap.h3", biggest, DEFAULT_TASK_CAP,
        lambda: _contract_grouped(nodes_l, edges_l, delta, skip_h3=False),
        lambda: _contract_after_h3(nodes, edges, delta, num_buckets=num_buckets))


def _contract_after_h3(nodes, edges, delta: float, *, num_buckets: int):
    """Over the task cap: distributed H3, relabel, then H4/H6 per
    component — or per delta unit while a component stays over the cap."""
    n1, e1 = remove_degree_two_nodes_distributed(nodes, edges, num_buckets=num_buckets)
    n1, e1 = n1.materialize(), e1.materialize()
    nodes_l, edges_l, _, biggest = _labelled(
        "components.contract_components", n1, e1, num_buckets=num_buckets)
    return ladder(
        "components.task_cap.units", biggest, DEFAULT_TASK_CAP,
        lambda: _contract_grouped(nodes_l, edges_l, delta, skip_h3=True),
        lambda: contract_units(n1, e1, delta, num_buckets=num_buckets))


def simplify(nodes, edges, delta: float):
    """Full reference `simplify` composition (main.rs:66-74):
    largest component -> degree-2 contraction -> under-delta node removal
    -> under-delta link contraction. Metrics are the caller's concern
    (graphops.emit_metrics), matching the reference's order where metrics
    run after the rewrites. ``joins.forced_rung("large")`` runs every
    stage distributed (no driver labels, no single-task component)."""
    n1, e1 = largest_component(nodes, edges)
    return contract_components(n1, e1, delta)
