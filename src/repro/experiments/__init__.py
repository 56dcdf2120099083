"""Experiment harness: saturation sweeps and per-figure reproduction.

* :mod:`repro.experiments.runner` -- the single-run core
  (``wire_run`` + ``attach_traffic``: the one place a simulation is
  assembled), fidelities and peak-bandwidth extraction (thesis 3.4.1.1
  methodology).
* :mod:`repro.experiments.sweep` -- the executors, and nothing else:
  the :class:`RunPoint` an :class:`~repro.api.spec.ExperimentSpec`
  expands to, the store-aware :class:`SweepExecutor` /
  ``FabricExecutor`` that turn points into results, and
  ``execute_item``, the one entry every lane simulates a store miss
  through. The mechanism level.
* :mod:`repro.experiments.knee` / :mod:`repro.experiments.replication`
  -- the policy level above it: the adaptive knee search and the
  mean +/- spread fold over seeds. Code outside this package reaches
  all three through :class:`repro.api.session.Session` (``run`` /
  ``curve`` / ``peaks`` / ``knee`` / ``adaptive`` / ``replicated``),
  never through an executor.
* :mod:`repro.experiments.store` -- JSONL-backed, content-hash-keyed
  :class:`ResultStore` making sweeps resumable across processes.
* :mod:`repro.experiments.figures` -- one function per thesis table and
  figure, returning structured rows.
* :mod:`repro.experiments.report` -- ASCII rendering of results.
* :mod:`repro.experiments.cli` -- the ``dhetpnoc-repro`` command line,
  a package: ``options`` (every shared flag, once) and one module per
  verb group (``run``, ``fabric``, ``store``, ``scenarios``, ``trace``,
  ``ml``).
"""

from repro.experiments.runner import (
    Fidelity,
    PAPER_FIDELITY,
    QUICK_FIDELITY,
    RunResult,
    peak_of,
)
from repro.experiments.report import ascii_table
from repro.experiments.replication import replication_summary
from repro.experiments.store import ResultStore, result_key
from repro.experiments.sweep import RunPoint, SweepExecutor, derive_seed

__all__ = [
    "Fidelity",
    "PAPER_FIDELITY",
    "QUICK_FIDELITY",
    "ResultStore",
    "RunPoint",
    "RunResult",
    "SweepExecutor",
    "ascii_table",
    "derive_seed",
    "peak_of",
    "replication_summary",
    "result_key",
]
