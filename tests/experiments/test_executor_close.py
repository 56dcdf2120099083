"""Executor lifecycle: ``close()`` idempotency and shutdown safety.

``SweepExecutor`` keeps a multiprocessing pool alive across batches, so
its teardown has to be bulletproof in three situations the satellite
pinned: calling ``close()`` twice, using the executor again *after* a
close (a fresh pool must appear lazily), and being dropped without an
explicit close — including at interpreter shutdown, where ``__del__``
runs while the multiprocessing machinery is being dismantled and a
naive ``terminate()`` raises or leaks a "leaked semaphore"/"pool still
running" warning to stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro
from repro.experiments.runner import Fidelity
from repro.experiments.store import ResultStore
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor

TINY = Fidelity("tiny", 700, 100, (0.5,))

SPEC = ExperimentSpec(
    archs=("firefly",),
    bw_sets=(1,),
    patterns=("uniform",),
    seeds=(1,),
    fidelity=TINY,
)


class TestClose:
    def test_close_is_idempotent(self):
        executor = SweepExecutor(workers=2, store=ResultStore())
        executor._ensure_pool()
        executor.close()
        assert executor._pool is None
        executor.close()  # second close must be a no-op, not an error
        executor.close()

    def test_close_without_pool_is_a_noop(self):
        executor = SweepExecutor(store=ResultStore())
        executor.close()  # never had a pool

    def test_executor_usable_after_close(self):
        executor = SweepExecutor(workers=2, store=ResultStore())
        first = executor.run(SPEC)
        executor.close()
        # A fresh pool appears lazily; results stay bitwise identical
        # (the store already holds them, so this is pure cache).
        assert executor.run(SPEC) == first
        store = ResultStore()
        executor2 = SweepExecutor(workers=2, store=store)
        executor2.close()
        assert executor2.run(SPEC) == first  # close-then-first-use
        executor2.close()

    def test_context_manager_closes(self):
        with SweepExecutor(workers=2, store=ResultStore()) as executor:
            executor._ensure_pool()
        assert executor._pool is None

    def test_del_after_close_is_quiet(self):
        executor = SweepExecutor(workers=2, store=ResultStore())
        executor._ensure_pool()
        executor.close()
        executor.__del__()  # must tolerate running on a closed executor


class TestInterpreterShutdown:
    """A dropped executor must not print pool warnings at exit."""

    def _run(self, body: str) -> str:
        env = dict(os.environ)
        src = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONWARNINGS"] = "always"
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(body)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_dropped_executor_exits_clean(self):
        stderr = self._run(
            """
            from repro.experiments.store import ResultStore
            from repro.experiments.sweep import SweepExecutor

            executor = SweepExecutor(workers=2, store=ResultStore())
            executor._ensure_pool()
            # No close(): teardown happens via __del__ at interpreter
            # shutdown, racing the dismantling of multiprocessing.
            """
        )
        assert stderr == ""

    def test_dropped_executor_after_real_work_exits_clean(self):
        stderr = self._run(
            """
            from repro.api.spec import ExperimentSpec
            from repro.experiments.runner import Fidelity
            from repro.experiments.store import ResultStore
            from repro.experiments.sweep import SweepExecutor

            spec = ExperimentSpec(
                archs=("firefly",), bw_sets=(1,),
                patterns=("uniform",), seeds=(1,),
                fidelity=Fidelity("tiny", 700, 100, (0.5,)),
            )
            executor = SweepExecutor(workers=2, store=ResultStore())
            executor.run(spec)
            """
        )
        assert stderr == ""
