"""Input generator of the benchmark: pages tables and OSM street graphs.

Everything here is the benchmark's own (numpy + pyarrow only, no
``ophois_ray`` import), so a library change cannot shift the inputs.
Each input is a directory written under a temporary name and renamed
into place, keyed by workload, seed and sizes. Besides the program's
inputs (``pages/*.parquet``, ``osm/*.osm``, ``points.parquet``) the
directory holds the generator's own record of what it made
(``truth_*.parquet``, ``meta.json``), which the checks read.

Run as a script it builds one input and prints its directory:

    python3 perfbench/gen.py --workload crawl_snap --seed 1 [--size smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 4

#: city centres (lat, lon) the street graphs are laid around
CITIES = [(48.8566, 2.3522), (45.7640, 4.8357), (50.6292, 3.0573), (43.6047, 1.4442)]

#: region the far-from-any-street pages are drawn from (no city inside)
FAR_BOX = (46.3, 47.6, 0.5, 2.0)  # lat_lo, lat_hi, lon_lo, lon_hi

SIZES = {
    "full": {
        "crawl_snap": {
            "pages": 12_000, "shards": 24, "html": "long",
            "dup": 0.01, "nocoord": 0.03, "far": 0.15,
            "grids": [24, 20, 16], "spacing": 0.0009, "city_w": [0.5, 0.3, 0.2],
        },
        "tile_resume": {
            "pages": 16_000, "shards": 16, "html": "short",
            "dup": 0.01, "nocoord": 0.0, "far": 0.0,
            "grids": [56, 48, 40], "spacing": 0.0005, "city_w": [0.45, 0.33, 0.22],
        },
        "street_graph": {
            "grids": [44, 30, 22, 14], "spacing": 0.0008,
            "points": 2_000, "hot_spots": 6, "hot_share": 0.6,
        },
    },
    "smoke": {
        "crawl_snap": {
            "pages": 1_500, "shards": 6, "html": "long",
            "dup": 0.01, "nocoord": 0.03, "far": 0.15,
            "grids": [10, 8, 6], "spacing": 0.0009, "city_w": [0.5, 0.3, 0.2],
        },
        "tile_resume": {
            "pages": 1_500, "shards": 4, "html": "short",
            "dup": 0.01, "nocoord": 0.0, "far": 0.0,
            "grids": [16, 12, 10], "spacing": 0.0005, "city_w": [0.45, 0.33, 0.22],
        },
        "street_graph": {
            "grids": [14, 10, 8, 6], "spacing": 0.0008,
            "points": 400, "hot_spots": 3, "hot_share": 0.6,
        },
    },
}

_WORDS = np.array(
    "street river market bridge square tower garden station harbour museum "
    "north south east west old new city hall school church library corner "
    "avenue road lane park hotel cafe bakery theatre cinema office gallery "
    "winter summer morning evening local report notice opening closing week "
    "people visitors council works traffic bicycle tram metro parking price".split()
)

#: visible tokens written with entities: (html form, decoded text form)
_ENTITY_TOKENS = [
    ("caf&eacute;", "café"), ("&amp;", "&"), ("a&lt;b", "a<b"),
    ("c&gt;d", "c>d"), ("&quot;quoted&quot;", '"quoted"'), ("&#233;t&#233;", "été"),
]


def input_key(workload: str, seed: int, size: str) -> str:
    spec = json.dumps(
        {"v": GEN_VERSION, "w": workload, "seed": seed, "sizes": SIZES[size][workload]},
        sort_keys=True,
    )
    return f"{workload}-s{seed}-{size}-{hashlib.sha256(spec.encode()).hexdigest()[:12]}"


# ------------------------------------------------------------------ streets


def _grid_city(rng, city: int, center, grid: int, spacing: float):
    """One G x G jittered grid city. Every block between two adjacent
    intersections carries 1-3 shape nodes, as real OSM ways do.

    Returns (nodes [(id, lat_s, lon_s)], ways [[ref, ...]], inter_ids G x G)."""
    clat, clon = center
    base = (city + 1) * 100_000_000
    inter = np.empty((grid, grid), dtype=object)
    nodes = []
    for i in range(grid):
        for j in range(grid):
            lat = clat + (i - grid / 2) * spacing + rng.uniform(-0.15, 0.15) * spacing
            lon = clon + (j - grid / 2) * spacing + rng.uniform(-0.15, 0.15) * spacing
            nid = str(base + i * grid + j)
            inter[i, j] = nid
            nodes.append((nid, f"{lat:.7f}", f"{lon:.7f}"))
    coord = {n: (float(a), float(b)) for n, a, b in nodes}
    shape_id = [base + 50_000_000]

    def street(ids):
        refs = [ids[0]]
        for a, b in zip(ids, ids[1:]):
            (alat, alon), (blat, blon) = coord[a], coord[b]
            k = int(rng.randint(1, 4))
            for m in range(k):
                t = (m + 1) / (k + 1)
                off = rng.uniform(-0.05, 0.05) * spacing
                lat = alat + t * (blat - alat) + off * (blon - alon) / spacing
                lon = alon + t * (blon - alon) - off * (blat - alat) / spacing
                sid = str(shape_id[0])
                shape_id[0] += 1
                nodes.append((sid, f"{lat:.7f}", f"{lon:.7f}"))
                refs.append(sid)
            refs.append(b)
        return refs

    ways = [street(list(inter[i, :])) for i in range(grid)]
    ways += [street(list(inter[:, j])) for j in range(grid)]
    return nodes, ways, inter


def _write_osm(path: str, nodes, ways, rng) -> None:
    """OSM XML, one element per line except ~5 % pretty-printed ones."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for nid, lat_s, lon_s in nodes:
        if rng.uniform() < 0.05:
            lines += [f'  <node id="{nid}" lat="{lat_s}" lon="{lon_s}">',
                      '    <tag k="highway" v="crossing"/>', "  </node>"]
        else:
            lines.append(f'  <node id="{nid}" lat="{lat_s}" lon="{lon_s}"/>')
    for w, refs in enumerate(ways):
        if rng.uniform() < 0.05:
            lines.append(f'  <way id="{w + 1}">')
            lines += [f'    <nd ref="{r}"/>' for r in refs]
            lines += ['    <tag k="highway" v="residential"/>', "  </way>"]
        else:
            nd = "".join(f'<nd ref="{r}"/>' for r in refs)
            lines.append(f'  <way id="{w + 1}">{nd}<tag k="highway" v="residential"/></way>')
    lines.append("</osm>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))


def _streets(rng, out: str, grids, spacing: float) -> dict:
    """Write one OSM shard per city and the generator's edge record.

    Each shard also holds the traps real extracts have: a node repeated
    later with other coordinates (the first occurrence wins), a way
    repeated verbatim, a way with a dangling ref and a one-ref way."""
    os.makedirs(os.path.join(out, "osm"))
    first: dict[str, tuple[str, str]] = {}
    pairs = set()
    cities = []
    for c, g in enumerate(grids):
        nodes, ways, inter = _grid_city(rng, c, CITIES[c], g, spacing)
        for nid, a, b in nodes:
            first.setdefault(nid, (a, b))
        moved = [(inter[1, 1], f"{float(nodes[0][1]) + 0.5:.7f}", nodes[0][2])]
        extra_ways = [ways[0], [inter[0, 0], str((c + 1) * 100_000_000 + 99_999_999)],
                      [inter[0, 1]]]
        _write_osm(os.path.join(out, "osm", f"city_{c}.osm"), nodes + moved, ways + extra_ways, rng)
        for refs in ways + extra_ways:
            for a, b in zip(refs, refs[1:]):
                if a in first and b in first and a != b:
                    pairs.add((a, b) if a < b else (b, a))
        cities.append({"grid": g, "center": CITIES[c],
                       "inter": [str(x) for x in inter.ravel()],
                       "corners": [inter[0, 0], inter[0, g - 1], inter[g - 1, 0], inter[g - 1, g - 1]]})
    pairs = sorted(pairs)
    u = np.array([p[0] for p in pairs], dtype=object)
    v = np.array([p[1] for p in pairs], dtype=object)
    coords = {k: (float(a), float(b)) for k, (a, b) in first.items()}
    pq.write_table(pa.table({
        "u": pa.array(u, type=pa.string()), "v": pa.array(v, type=pa.string()),
        "u_lat": [coords[x][0] for x in u], "u_lon": [coords[x][1] for x in u],
        "v_lat": [coords[x][0] for x in v], "v_lon": [coords[x][1] for x in v],
    }), os.path.join(out, "truth_edges.parquet"))
    return {"n_nodes": len(first), "n_edges": len(pairs), "cities": cities}


# -------------------------------------------------------------------- pages


def _page_html(rng, kind: str, title: str, coords: str | None):
    """(html, text) of one page. The text is assembled from the visible
    tokens as they are placed, not by running an extractor."""
    toks_title = title.split()
    n_par = 8 if kind == "long" else 1
    n_words = 45 if kind == "long" else 18
    paras_html, paras_text = [], []
    for _ in range(n_par):
        words = list(_WORDS[rng.randint(0, len(_WORDS), n_words)])
        text_words = list(words)
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(0, len(_ENTITY_TOKENS))
            pos = rng.randint(0, len(words))
            words[pos] = _ENTITY_TOKENS[k][0]
            text_words[pos] = _ENTITY_TOKENS[k][1]
        if kind == "long" and rng.uniform() < 0.5:
            mid = len(words) // 2
            words[mid] = f"<b>{words[mid]}</b>"
        paras_html.append("<p>" + " ".join(words) + "</p>")
        paras_text.append(text_words)
    if coords is not None:
        at = rng.randint(0, n_par + 1)
        paras_html.insert(at, f"<p>location coords {coords} here</p>")
        paras_text.insert(at, ["location", "coords", coords, "here"])
    noise = f"n{rng.randint(0, 10**6)}"
    if kind == "long":
        html = (
            f"<html><head><title>{title}</title>"
            f"<script>var q = \"{noise}\" < 3 && x > 1;</script>"
            "<style>p { margin: 0 } b { color: red }</style></head>\n"
            f"<body><!-- {noise} <p>hidden</p> --><h1>{title}</h1>\n"
            + "\n".join(paras_html)
            + '\n<div class="f">caf&eacute; &amp; co</div></body></html>'
        )
        toks = toks_title + toks_title + [t for p in paras_text for t in p] + ["café", "&", "co"]
    else:
        html = f"<html><body><h2>{title}</h2>" + "".join(paras_html) + "</body></html>"
        toks = toks_title + [t for p in paras_text for t in p]
    return html, " ".join(toks)


def _pages(rng, out: str, seed: int, spec: dict) -> dict:
    """Write the pages shards plus the generator's per-row record.

    Urls: ``n`` distinct, a ``dup`` share of them written twice with
    different timestamps and content (the earliest row is the winner),
    the two rows in different shards. Winners: a ``nocoord`` share
    carries no coordinates, a ``far`` share lies in FAR_BOX, the rest
    sit inside a city's street grid, picked by ``city_w``."""
    n, shards = spec["pages"], spec["shards"]
    n_dup = int(round(n * spec["dup"]))
    urls = np.array([f"https://h{rng.randint(0, 500)}.example.org/{seed}/p{i}" for i in range(n)],
                    dtype=object)
    dup_of = rng.choice(n, n_dup, replace=False)
    row_url = np.concatenate([np.arange(n), dup_of])
    m = len(row_url)
    ts = 1_700_000_000_000_000 + rng.permutation(m).astype(np.int64) * 1_000_003
    order = np.lexsort((ts, row_url))
    winner = np.zeros(m, dtype=bool)
    firsts = np.ones(m, dtype=bool)
    firsts[1:] = row_url[order][1:] != row_url[order][:-1]
    winner[order[firsts]] = True

    u = rng.uniform(size=m)
    kind = np.where(u < spec["nocoord"], -2, np.where(u < spec["nocoord"] + spec["far"], -1, 0))
    city = rng.choice(len(spec["city_w"]), m, p=np.array(spec["city_w"]) / sum(spec["city_w"]))
    lat = np.full(m, np.nan)
    lon = np.full(m, np.nan)
    for c in range(len(spec["city_w"])):
        g = spec["grids"][c]
        half = (g / 2 - 1) * spec["spacing"]
        sel = (kind == 0) & (city == c)
        # hotspot skew: a third of the city pages cluster near the centre
        core = rng.uniform(size=m) < 0.33
        scale = np.where(core, 0.25, 1.0)
        lat[sel] = CITIES[c][0] + rng.uniform(-half, half, m)[sel] * scale[sel] - 0.5 * spec["spacing"]
        lon[sel] = CITIES[c][1] + rng.uniform(-half, half, m)[sel] * scale[sel] - 0.5 * spec["spacing"]
    far = kind == -1
    lat[far] = rng.uniform(FAR_BOX[0], FAR_BOX[1], m)[far]
    lon[far] = rng.uniform(FAR_BOX[2], FAR_BOX[3], m)[far]
    city = np.where(kind == 0, city, kind)

    lat_s = np.array([f"{x:.7f}" if x == x else "" for x in lat], dtype=object)
    lon_s = np.array([f"{x:.7f}" if x == x else "" for x in lon], dtype=object)
    htmls = np.empty(m, dtype=object)
    texts = np.empty(m, dtype=object)
    for r in range(m):
        coords = f"{lat_s[r]},{lon_s[r]}" if kind[r] != -2 else None
        htmls[r], texts[r] = _page_html(rng, spec["html"], f"page {row_url[r]} notes", coords)
    langs = np.array(["en", "fr", "de", "es", "it"], dtype=object)[rng.randint(0, 5, m)]

    # shard placement: a random permutation dealt round-robin; a dup row
    # is moved to another shard than its url's other row when they collide
    shard = np.empty(m, dtype=np.int64)
    shard[rng.permutation(m)] = np.arange(m) % shards
    for k in range(n, m):
        first_row = row_url[k]
        if shard[k] == shard[first_row]:
            shard[k] = (shard[k] + 1) % shards
    os.makedirs(os.path.join(out, "pages"))
    for s in range(shards):
        rows = np.flatnonzero(shard == s)
        pq.write_table(pa.table({
            "url": pa.array(urls[row_url[rows]], type=pa.string()),
            "warc_ts": pa.array(ts[rows].astype("datetime64[us]"), type=pa.timestamp("us")),
            "html": pa.array([h.encode("utf-8") for h in htmls[rows]], type=pa.binary()),
            "text": pa.array(texts[rows], type=pa.string()),
            "lang": pa.array(langs[rows], type=pa.string()),
        }), os.path.join(out, "pages", f"part-{s:05d}.parquet"))
    pq.write_table(pa.table({
        "url": pa.array(urls[row_url], type=pa.string()),
        "warc_ts_us": ts, "winner": winner, "kind": city.astype(np.int64),
        "lat_s": pa.array(lat_s, type=pa.string()), "lon_s": pa.array(lon_s, type=pa.string()),
        "shard": shard, "text": pa.array(texts, type=pa.string()),
    }), os.path.join(out, "truth_pages.parquet"))
    return {"rows": m, "urls": n, "dup_rows": n_dup, "shards": shards,
            "winners_with_coords": int((winner & (kind != -2)).sum()),
            "far_winners": int((winner & (kind == -1)).sum()),
            "nocoord_winners": int((winner & (kind == -2)).sum()),
            "html_bytes_mean": float(np.mean([len(h.encode("utf-8")) for h in htmls]))}


def _points(rng, out: str, spec: dict) -> dict:
    """Snap points on the largest city: a ``hot_share`` of them packed
    into a few tiny spots (so the salting plan of the partitioned snap
    is not empty), the rest spread over the city."""
    n = spec["points"]
    clat, clon = CITIES[0]
    half = (spec["grids"][0] / 2 - 2) * spec["spacing"]
    spots = np.column_stack([clat + rng.uniform(-half, half, spec["hot_spots"]),
                             clon + rng.uniform(-half, half, spec["hot_spots"])])
    hot = np.arange(n) < int(n * spec["hot_share"])
    which = np.arange(n) % len(spots)
    r = 0.05 * spec["spacing"]
    lat = np.where(hot, spots[which, 0] + rng.uniform(-r, r, n), clat + rng.uniform(-half, half, n))
    lon = np.where(hot, spots[which, 1] + rng.uniform(-r, r, n), clon + rng.uniform(-half, half, n))
    pq.write_table(pa.table({
        "url": pa.array([f"pt://{i}" for i in range(n)], type=pa.string()),
        "lat": lat, "lon": lon,
    }), os.path.join(out, "points.parquet"))
    return {"points": n, "hot_points": int(hot.sum())}


def generate(workload: str, seed: int, size: str, root: str) -> str:
    """Build the input for (workload, seed, size) under ``root`` unless it
    is already there; returns its directory."""
    final = os.path.join(root, input_key(workload, seed, size))
    if os.path.exists(os.path.join(final, "meta.json")):
        return final
    os.makedirs(root, exist_ok=True)
    tmp = f"{final}.__tmp_{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    spec = SIZES[size][workload]
    rng = np.random.RandomState([seed, sorted(SIZES[size]).index(workload)])
    meta = {"workload": workload, "seed": seed, "size": size, "spec": spec}
    meta["graph"] = _streets(rng, tmp, spec["grids"], spec["spacing"])
    if workload == "street_graph":
        meta["points"] = _points(rng, tmp, spec)
    else:
        meta["pages"] = _pages(rng, tmp, seed, spec)
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
    try:
        os.replace(tmp, final)
    except OSError:  # another process renamed the same input first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--root", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache"))
    args = ap.parse_args(argv)
    print(generate(args.workload, args.seed, args.size, args.root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
