"""ophois_ray — a Ray-Data-native street-graph + spatial-join engine.

Reimplements the semantics of the reference engine (ophois v0.3.0, a
single-threaded Rust CLI) as lazy ``ray.data.Dataset`` pipelines of
vectorized ``map_batches`` over zero-copy Arrow batches, plus a
from-scratch spatial-join / tiling layer (quadtree cell index, kNN snap,
skew-aware repartition, checkpoint/resume) over Common-Crawl-style web
pages, and the dedup / similarity / text-analysis operators a
large-scale training-data pipeline needs.

Module map (SURVEY.md §7.1):
  geo         G1-G3 vectorized geometry kernels + shortest-round-trip strings
  oracle      single-process reference-parity graph kernels (test oracle +
              per-component map_groups worker)
  graphio     .graph text <-> (nodes, edges) Datasets, parquet writers
  graphops    dedup (D1/D2), degree, coord joins, metrics (M1-M5),
              degree-oriented triangle counting
  components  connected components (driver min-label kernel + label propagation ladder)
  discretize  D0 distributed edge discretization
  osm         P1-P4 OSM XML scan/parse chain + synthetic OSM generator
  cells       from-scratch quadtree cell index (u64 ids, k-ring, covers)
  pages       P6 HTML->text extractor (actor pool + oracle), P7 geotagger,
              hyperlink graph + anchor-text extraction, URL canonicalization
  spatial     cell equi-join, kNN snap, skew salting
  polygons    point-in-polygon join, zonal stats, raster->vector polygonize
  windows     tumbling/hopping event-time windowed aggregates
  joins       broadcast index, bucketed hash join, as-of join, range join
  checkpoint  per-tile manifest, atomic writes, resume
  dedup       exact / MinHash-LSH / SimHash / n-gram / embedding near-dup,
              cross-doc duplicate n-gram counts, fuzzy linkage,
              decontamination audit
  textstats   lang-id, quality scoring, token counts, fingerprints,
              tf-idf/BM25 top-k, PMI collocations, PII detection,
              inverted index, zlib compressibility
  similarity  brute-force + LSH-bucketed + IVF cosine ANN
  sketches    mergeable sketches: HyperLogLog, count-min, Bloom
              (register/cell/bit tables SQL-mirrorable bit-exactly)
  sampling    deterministic hash split / per-group sample / mixture
              sampling / distinct / hash-sharded output / sequence
              packing / global rank + ntile (TeraSort shape)
  multimodal  binary media: real netpbm/BMP/WAV/GIF/PNG/JPEG/ADPCM/
              MJPEG-AVI codecs, no library (only MP4/H.264 stubbed)
  profiling   per-column data-profiling sweep (Arrow-native partials)
  pipelines   composed end-to-end pipelines
  datagen     deterministic synthetic pages / OSM generators
"""

__version__ = "0.1.0"
