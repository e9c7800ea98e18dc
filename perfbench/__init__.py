"""Benchmark of the ophois_ray engine; see README.md."""
