"""The repository's benchmark: paper-algorithm throughput on three workloads.

``perfbench/run.py`` is the entry point; ``BENCHMARK.json`` at the root names
the workloads and metrics.  See ``perfbench/README.md``.
"""
