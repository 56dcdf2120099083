"""Shared fixtures for the per-exhibit benchmark harness.

Every thesis table and figure has a bench here. Run::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_FIDELITY=paper`` for the full table 3-3 schedule (10 000
cycles, dense sweeps); the default ``quick`` schedule preserves every
qualitative shape at a fraction of the runtime. Rendered exhibits are
written to ``results/<exhibit>.txt`` so the reproduced rows survive
pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api.session import Session
from repro.experiments.runner import fidelity_from_env

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: One seed for the whole benchmark session (determinism + cache sharing).
SEED = 1


@pytest.fixture(scope="session")
def fidelity():
    return fidelity_from_env()


def bench_workers() -> int:
    """Worker-pool width for sweep benches (``REPRO_WORKERS`` overrides)."""
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if value.isdigit() and int(value) >= 1:
        return int(value)
    return min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def session() -> Session:
    """The one :class:`repro.api.Session` every bench shares.

    Every figure bench runs its grid through this, so the perf numbers
    track the parallel orchestration path and exhibits that share sweep
    points (3-3/3-4, 3-7/3-8/3-9) pay for them once.
    """
    return Session(workers=bench_workers())


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, rendered: str) -> None:
    """Print the exhibit and persist it under results/."""
    print()
    print(rendered)
    (results_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
