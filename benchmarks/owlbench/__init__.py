"""owlbench: the layered end-to-end benchmark of the Owl reproduction.

``run.py`` runs one workload in its own process and prints one JSON
result line; ``python -m owlbench`` (from ``benchmarks/``) runs several
workloads, each in a fresh process, and tabulates them.  The workloads,
metrics and bounds are declared in the repository's ``BENCHMARK.json``.
"""
