"""The repository's one bench harness: the perf ledger
(``python3 benchmarks/ledger/run.py``, see ``benchmarks/ledger/README.md``)."""
