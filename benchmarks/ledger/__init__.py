"""The perf ledger: the repository's benchmark (see README.md here).

Six named closed-loop workloads, seven end-to-end metrics in calibrated
seconds, and an outside-in per-layer trace. ``catalog.py`` is the single
definition of every workload and metric name; ``BENCHMARK.json`` at the
repository root is its driver-facing projection.
"""
