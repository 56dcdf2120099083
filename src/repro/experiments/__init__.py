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

from repro.api.base import lazy_exports

#: Every export: name -> (module, attribute), imported on first use
#: (PEP 562).
_LAZY = {
    "Fidelity": ("repro.experiments.runner", "Fidelity"),
    "PAPER_FIDELITY": ("repro.experiments.runner", "PAPER_FIDELITY"),
    "QUICK_FIDELITY": ("repro.experiments.runner", "QUICK_FIDELITY"),
    "ResultStore": ("repro.experiments.store", "ResultStore"),
    "RunPoint": ("repro.experiments.sweep", "RunPoint"),
    "RunResult": ("repro.experiments.runner", "RunResult"),
    "SweepExecutor": ("repro.experiments.sweep", "SweepExecutor"),
    "ascii_table": ("repro.experiments.report", "ascii_table"),
    "derive_seed": ("repro.experiments.sweep", "derive_seed"),
    "peak_of": ("repro.experiments.runner", "peak_of"),
    "replication_summary": ("repro.experiments.replication", "replication_summary"),
    "result_key": ("repro.experiments.store", "result_key"),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
