#!/usr/bin/env python3
"""Script entry of the perf ledger (the command ``BENCHMARK.json`` names).

``python3 benchmarks/ledger/run.py ...`` and ``python -m
benchmarks.ledger ...`` are the same program; this file only makes the
checkout's ``src/`` and the ``benchmarks`` package importable when the
script is run by path from the root of a checkout.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bootstrap() -> None:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    try:
        from benchmarks.ledger.cli import main
    except ImportError as exc:
        # A directory holding only the benchmark has no program to
        # measure: say so and fail without printing a result.
        sys.stderr.write(f"ledger: cannot import the program under test: {exc}\n")
        sys.exit(2)
    sys.exit(main())
