"""The six ledger workloads: fixed, ordered call lists over the public API.

An *operation* (op) is one pass over a workload's call list; the next
pass starts when the previous returns (closed loop, one client). Every
parameter below is part of the workload's definition — later issues
refer to these names, so changing a number here starts a new baseline.

Each workload class does its set-up in ``__init__`` (spec/store/donor
construction, seeding, reference results), runs one pass in ``op``, a
cheap untimed one in ``warm_up``, and
releases what it holds in ``close``. ``op(tracer)`` takes a
:class:`~benchmarks.ledger.trace.Tracer`; the untraced run passes
``None`` and goes through exactly the calls a user would make.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import tempfile
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, RunResult
from repro.experiments.store import (
    ResultStore,
    config_fingerprint,
    make_backend,
    result_key,
    result_to_dict,
)
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.traffic.bandwidth_sets import bandwidth_set_by_index

from benchmarks.ledger.trace import TimedBackend, Tracer, traced_run_one

#: Patterns of the paper-fidelity grids the resume/service stores hold.
GRID_PATTERNS = ("uniform", "skewed1", "skewed2", "skewed3")
GRID_ARCHS = ("firefly", "dhetpnoc", "electrical")
#: Table 3-3's schedule: only its cycle counts matter (they are hashed
#: into every store key); nothing is simulated at this fidelity.
PAPER_LOADS = (0.10, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95, 1.10)


class OpFailed(Exception):
    """An op's cross-path check failed (counted, never fatal)."""


def _fidelity(name: str, total: int, reset: int, loads, smoke: bool) -> Fidelity:
    """A named schedule; ``--smoke`` cuts its cycle counts tenfold."""
    if smoke:
        total, reset = max(40, total // 10), max(4, reset // 10)
    return Fidelity(name, total, reset, tuple(loads))


def digest_results(results: Sequence[RunResult]) -> str:
    """``sim_digest``: sha256 over the canonical dict of every result."""
    h = hashlib.sha256()
    for result in results:
        h.update(
            json.dumps(
                result_to_dict(result), sort_keys=True, separators=(",", ":")
            ).encode()
        )
    return h.hexdigest()


def all_finite(results: Sequence[RunResult]) -> bool:
    """No NaN/inf in any float field (phases included)."""
    for result in results:
        rows = [result_to_dict(result)]
        rows.extend(rows[0].get("phases") or ())
        for row in rows:
            for value in row.values():
                if isinstance(value, float) and not math.isfinite(value):
                    return False
    return True


def seed_store(
    store: ResultStore,
    spec: ExperimentSpec,
    donors: Dict[str, RunResult],
) -> List[RunResult]:
    """Fill *store* with every point of *spec* without simulating it.

    Public calls only: each point's key is ``result_key`` over its own
    coordinates and its bandwidth set's default-config fingerprint —
    what an executor computes — and its record is the architecture's
    really-simulated donor result re-addressed to the point (a distinct
    ``packets_delivered`` per point keeps order mistakes visible).
    Returns the records in grid order: what a resume must hand back.
    """
    digests = {
        index: config_fingerprint(
            SystemConfig(bw_set=bandwidth_set_by_index(index))
        )
        for index in spec.bw_sets
    }
    expected = []
    for i, point in enumerate(spec.to_sweep_spec().expand()):
        key = result_key(
            point.arch, point.bw_set_index, point.pattern,
            point.offered_gbps, point.seed, spec.fidelity,
            config_digest=digests[point.bw_set_index],
        )
        donor = donors[point.arch]
        result = dataclasses.replace(
            donor,
            pattern=point.pattern,
            bw_set_index=point.bw_set_index,
            offered_gbps=point.offered_gbps,
            packets_delivered=donor.packets_delivered + i,
        )
        store.put(key, result)
        expected.append(result)
    store.flush()
    return expected


def simulate_donors(seed: int, smoke: bool) -> Dict[str, RunResult]:
    """One short, real simulation per architecture to copy records from."""
    fidelity = _fidelity("ledger-donor", 300, 50, (0.5,), smoke)
    with Session() as session:
        return {
            arch: session.run_one(
                arch, 1, "uniform", 100.0, fidelity=fidelity, seed=seed
            )
            for arch in GRID_ARCHS
        }


def _span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or nothing at all in an untraced pass."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _open_sharded(root: str, tracer: Optional[Tracer]) -> Session:
    """A session on the sharded store at *root*; a traced pass hands
    ``Session`` the same backend wrapped in a :class:`TimedBackend`."""
    if tracer is None:
        return Session(root, workers=1, backend="sharded")
    with tracer.span("store.open"):
        return Session(
            TimedBackend(make_backend("sharded", root), tracer), workers=1
        )


class Workload:
    """Base: name, per-op constants, scratch directory handling."""

    name = ""
    #: Simulated cycles one op advances (0 = simulates nothing).
    cycles_per_op = 0
    #: ``RunPoint``s one op returns to its caller (0 = not a sweep).
    points_per_op = 0

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch

    def op(self, tracer: Optional[Tracer] = None) -> List[RunResult]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """The untimed pass before timing: every code path of the op,
        once. Workloads whose op is long run it at a tenth of the
        cycles — imports, registries and allocator pools are what
        warms, not the simulated state."""
        self.op()

    def close(self) -> None:
        """Release sessions, daemons and files (idempotent)."""

    def _tempdir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)


class _SimulatorWorkload(Workload):
    """Shared shape of the three single-run workloads: an ordered list
    of ``Session.run_one`` calls on one long-lived in-memory session."""

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.session = Session()
        #: ``(arch, pattern, offered_gbps, fidelity, scenario)`` per call.
        self.calls = self._calls(smoke)
        self.cycles_per_op = sum(c[3].total_cycles for c in self.calls)

    def _calls(self, smoke: bool) -> Tuple[tuple, ...]:
        raise NotImplementedError

    def warm_up(self) -> None:
        self._run(self._calls(smoke=True), None)

    def op(self, tracer: Optional[Tracer] = None) -> List[RunResult]:
        return self._run(self.calls, tracer)

    def _run(self, calls, tracer: Optional[Tracer]) -> List[RunResult]:
        results = []
        for arch, pattern, gbps, fidelity, scenario in calls:
            if tracer is None:
                result = self.session.run_one(
                    arch, 1, pattern, gbps,
                    fidelity=fidelity, seed=self.seed, scenario=scenario,
                )
            else:
                result = traced_run_one(
                    tracer, arch, 1, pattern, gbps, fidelity,
                    self.seed, scenario,
                ).result
            results.append(result)
        return results

    def close(self) -> None:
        self.session.close()


class PhotonicBusy(_SimulatorWorkload):
    """Both photonic architectures past Firefly's knee: busy cycles."""

    name = "photonic_busy"

    def _calls(self, smoke: bool):
        fidelity = _fidelity("ledger-busy", 5000, 500, (0.5,), smoke)
        return tuple(
            (arch, "skewed3", 600.0, fidelity, None)
            for arch in ("dhetpnoc", "firefly")
        )


class ElectricalBusy(_SimulatorWorkload):
    """The electrical mesh at the same offered load: router/link code."""

    name = "electrical_busy"

    def _calls(self, smoke: bool):
        fidelity = _fidelity("ledger-mesh", 2500, 250, (0.5,), smoke)
        return (("electrical", "skewed3", 600.0, fidelity, None),)


class SparseScenarios(_SimulatorWorkload):
    """Mostly-idle cycles and the scenario player: the other regime."""

    name = "sparse_scenarios"

    def _calls(self, smoke: bool):
        long = _fidelity("ledger-sparse", 10_000, 1_000, (0.5,), smoke)
        short = _fidelity("ledger-scenario", 1_500, 200, (0.5,), smoke)
        return (
            ("dhetpnoc", "uniform", 20.0, long, None),
            ("dhetpnoc", "skewed3", 400.0, short, "fault_storm"),
            ("dhetpnoc", "skewed3", 480.0, short, "closed_loop_shedding"),
            ("firefly", "uniform", 300.0, short, "diurnal"),
        )


class SweepCold(Workload):
    """A first sweep at quick fidelity into a fresh sharded store."""

    name = "sweep_cold"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.spec = self._spec(smoke)
        self.points_per_op = self.spec.n_points()
        self.cycles_per_op = (
            self.points_per_op * self.spec.fidelity.total_cycles
        )

    def _spec(self, smoke: bool) -> ExperimentSpec:
        return ExperimentSpec(
            archs=("firefly", "dhetpnoc"),
            bw_sets=(1, 2),
            patterns=("uniform", "skewed3"),
            seeds=(self.seed,),
            fidelity=_fidelity(
                "ledger-sweep", 600, 100, (0.25, 0.6, 1.0), smoke
            ),
        )

    def warm_up(self) -> None:
        self._sweep(self._spec(smoke=True), None)

    def op(self, tracer: Optional[Tracer] = None) -> List[RunResult]:
        return self._sweep(self.spec, tracer)

    def _sweep(self, spec, tracer: Optional[Tracer]) -> List[RunResult]:
        root = self._tempdir()
        try:
            session = _open_sharded(root, tracer)
            try:
                with _span(tracer, "sweep.run"):
                    results = session.run(spec)
                executed = session.executed_count
            finally:
                session.close()
            if executed != spec.n_points():
                raise OpFailed(
                    f"cold sweep simulated {executed} of "
                    f"{spec.n_points()} points"
                )
            # Cross-path check: what was written must be what a fresh
            # session reads back, with nothing left to simulate.
            session = _open_sharded(root, tracer)
            try:
                reread = session.run(spec)
                executed = session.executed_count
            finally:
                session.close()
            if executed != 0 or reread != results:
                raise OpFailed("sharded store does not resume what it wrote")
            return results
        finally:
            shutil.rmtree(root, ignore_errors=True)


def _paper_spec(seeds, archs=GRID_ARCHS, bw_sets=(1, 2, 3)) -> ExperimentSpec:
    return ExperimentSpec(
        archs=archs,
        bw_sets=bw_sets,
        patterns=GRID_PATTERNS,
        seeds=tuple(seeds),
        fidelity=Fidelity("ledger-paper", 10_000, 1_000, PAPER_LOADS),
    )


class SweepResume(Workload):
    """Resume of a fully stored paper-fidelity grid: store reads only."""

    name = "sweep_resume"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        n_seeds = 1 if smoke else 16
        self.spec = _paper_spec(range(seed, seed + n_seeds))
        # One-shard resume: a sub-spec that can only hit one shard.
        self.sub_spec = _paper_spec(
            range(seed, seed + n_seeds), archs=("dhetpnoc",), bw_sets=(2,)
        )
        self.root = self._tempdir()
        store = ResultStore(backend=make_backend("sharded", self.root))
        self.expected = seed_store(
            store, self.spec, simulate_donors(seed, smoke)
        )
        wanted = {
            (p.arch, p.bw_set_index)
            for p in self.sub_spec.to_sweep_spec().expand()
        }
        self.sub_expected = [
            r for r in self.expected if (r.arch, r.bw_set_index) in wanted
        ]
        self.points_per_op = len(self.expected) + len(self.sub_expected)

    def _resume(self, spec, expected, tracer, label) -> List[RunResult]:
        session = _open_sharded(self.root, tracer)
        try:
            with _span(tracer, f"sweep.run.{label}"):
                results = session.run(spec)
            executed = session.executed_count
        finally:
            session.close()
        if executed != 0:
            raise OpFailed(f"{label} resume simulated {executed} point(s)")
        if results != expected:
            raise OpFailed(f"{label} resume differs from the seeded records")
        return results

    def op(self, tracer: Optional[Tracer] = None) -> List[RunResult]:
        results = self._resume(self.spec, self.expected, tracer, "full")
        results += self._resume(
            self.sub_spec, self.sub_expected, tracer, "one_shard"
        )
        return results

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ServiceJob(Workload):
    """``jobs submit`` to last ``job_point`` against a fresh daemon."""

    name = "service_job"
    #: Content-hash replays of the first warm spec per op.
    REPLAYS = 4

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.warm_specs = (_paper_spec((seed,)), _paper_spec((seed + 1,)))
        self.cold_spec = ExperimentSpec(
            archs=("firefly",),
            bw_sets=(1,),
            patterns=("uniform",),
            seeds=(seed,),
            # Light loads: the job's two simulations are its smallest
            # part (under a sixth of the op), as a cache-missing tail.
            fidelity=_fidelity("ledger-job", 300, 50, (0.05, 0.10), smoke),
        )
        donors = simulate_donors(seed, smoke)
        seeded = ResultStore()
        for spec in self.warm_specs:
            seed_store(seeded, spec, donors)
        self.seeded: List[Tuple[str, RunResult]] = list(seeded)
        # Local reference: the same three specs through Session.run
        # (simulates the cold spec's two points — the warm-up).
        with Session(self._fresh_store()) as session:
            self.local_runs = [
                session.run(spec) for spec in (*self.warm_specs, self.cold_spec)
            ]
        self.cycles_per_op = (
            self.cold_spec.n_points() * self.cold_spec.fidelity.total_cycles
        )
        self.points_per_op = (
            sum(len(r) for r in self.local_runs)
            + self.REPLAYS * len(self.local_runs[0])
        )

    def _fresh_store(self) -> ResultStore:
        store = ResultStore()
        store.put_many(self.seeded)
        return store

    def op(self, tracer: Optional[Tracer] = None) -> List[RunResult]:
        specs = (*self.warm_specs, self.cold_spec)
        wanted_executed = (0, 0, self.cold_spec.n_points())
        labels = ["warm", "warm", "cold"] + ["replay"] * self.REPLAYS
        ordered = [*specs] + [specs[0]] * self.REPLAYS
        with _span(tracer, "service.start"):
            service = ExperimentService(
                self._fresh_store(), workers=1, max_jobs=1
            )
            service.start()
        try:
            with ServiceClient(service.address) as client:
                runs = [
                    self._job(client, spec, label, tracer)
                    for label, spec in zip(labels, ordered)
                ]
        finally:
            with _span(tracer, "service.stop"):
                service.stop()
        for run, executed in zip(runs, wanted_executed):
            if run.executed != executed:
                raise OpFailed(
                    f"job {run.job_id} simulated {run.executed} point(s), "
                    f"expected {executed}"
                )
        for run, reference in zip(runs, self.local_runs):
            if run.results != reference:
                raise OpFailed(f"job {run.job_id} differs from Session.run")
        for run in runs[len(specs):]:
            if run.executed != 0 or run.results != self.local_runs[0]:
                raise OpFailed(f"replay of {run.job_id} differs")
        return [result for run in runs for result in run.results]

    @staticmethod
    def _job(client: ServiceClient, spec, label: str, tracer: Optional[Tracer]):
        """One ``run_spec``; a traced pass spans it and notes when the
        first point arrived (an untraced one passes no callback)."""
        if tracer is None:
            return client.run_spec(spec)
        first: List[float] = []

        def on_point(_index, _key, _result, _cached):
            if not first:
                first.append(tracer.now())

        with tracer.span(f"service.job.{label}") as job:
            run = client.run_spec(spec, on_point=on_point)
            job["first_point"] = first[0] if first else None
            job["points"] = len(run.results)
        return run


WORKLOADS = {
    cls.name: cls
    for cls in (
        PhotonicBusy, ElectricalBusy, SparseScenarios,
        SweepCold, SweepResume, ServiceJob,
    )
}


def scratch_root() -> str:
    """Where workloads put temporary files: ``results/ledger/tmp`` under
    the checkout (git-ignored), never the system temp directory."""
    root = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        os.pardir, os.pardir, "results", "ledger", "tmp",
    )
    root = os.path.normpath(root)
    os.makedirs(root, exist_ok=True)
    return root
