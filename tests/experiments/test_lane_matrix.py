"""Lane conformance: every way of executing a point returns the serial
``Session()``'s results, bit for bit.

One table. A row is a workload: a ``Session`` call, plus the grid spec
a ``jobs`` client submits for it where one exists. A column is a lane:
a way the row's cache misses get simulated. Each row's reference runs
once, on a fresh serial ``Session()``; every cell then runs its row on
fresh stores and asserts

1. **results**: the value equals the reference's (``RunResult``\\ s
   compared bitwise, wherever the value carries them);
2. **store**: the store the lane simulated into holds exactly the
   reference's records -- the same content-hash keys, the same results;
3. **cold count**: it simulated as many points as the reference (one
   ``put`` per simulation; never zero, so no cell passes vacuously);
4. **resume**: a second pass from a fresh client against that store
   simulates nothing.

The cells that do not run are :data:`EXCLUDED`, each with its reason.

Daemons, pools and subprocess workers start once for the module, the
local pool first: it forks, and a fork must come before any daemon
thread exists. ``late_sequence`` is registered only around its cells,
after the fork, so no pool child or worker process has it: it travels
as the script in the work item.

A new lane is a column of :data:`LANES` and a new workload a row of
:data:`ROWS` -- not another equality test (``docs/index.md``, "Keeping
tier-1 lean").
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Callable, Optional

import pytest

from repro.api import ExperimentSpec, Session
from repro.experiments.figures import figure_3_3
from repro.experiments.runner import QUICK_FIDELITY, Fidelity
from repro.experiments.store import ResultStore, result_to_dict
from repro.fabric.coordinator import Coordinator
from repro.scenarios.compose import sequence
from repro.scenarios.library import build_scenario, register_schedule, scenarios
from repro.scenarios.schedule import ScenarioSchedule
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.traffic.bandwidth_sets import BW_SET_1

from support import (
    CountingBackend,
    attach_worker,
    inthread_workers,
    spawn_worker,
    tiny_spec,
)

#: Every row runs cold eight times or so, hence 300 cycles.
SHORT = Fidelity("lanes", 300, 50, (0.3, 0.8))

#: A composed scenario that no registry knows until a cell registers it.
LATE = sequence(
    build_scenario("steady", SHORT.total_cycles),
    build_scenario("hotspot_drift", SHORT.total_cycles - 150),
    at_cycle=150,
    name="late_sequence",
)

#: Simulated exactly as passed, never swapped for the canonical set 1.
CUSTOM_SET = dataclasses.replace(BW_SET_1, total_wavelengths=128)


@contextlib.contextmanager
def registered(schedule: Optional[ScenarioSchedule]):
    if schedule is None:
        yield
        return
    register_schedule(schedule)
    try:
        yield
    finally:
        scenarios.unregister(schedule.name)


def short_spec(**overrides) -> ExperimentSpec:
    return tiny_spec(**{"fidelity": SHORT, **overrides})


@dataclasses.dataclass(frozen=True)
class Row:
    """*ask* runs the workload on a session; *spec* is its grid (``None``
    when it has none, *why* saying why); *scenario* is registered
    around every run of the row."""

    ask: Callable[[Session], object]
    spec: Optional[ExperimentSpec] = None
    why: str = ""
    scenario: Optional[ScenarioSchedule] = None


def grid_row(spec: ExperimentSpec, scenario=None) -> Row:
    return Row(lambda s: s.run(spec), spec, scenario=scenario)


with registered(LATE):
    LATE_SPEC = short_spec(archs=("dhetpnoc",), scenarios=(LATE.name,))
PEAKS = short_spec(archs=("dhetpnoc",), patterns=("skewed3",), seeds=(1, 2))
REPLICATED = short_spec(seeds=(1, 2), load_fractions=(0.8,))

ROWS = {
    "grid": grid_row(short_spec(archs=("firefly", "dhetpnoc"))),
    # The CLI's default schedule (1 500 cycles), at its lowest load; two
    # points, as a pool lane simulates a lone miss in-process.
    "quick": grid_row(tiny_spec(
        archs=("firefly", "dhetpnoc"), patterns=("skewed1",),
        fidelity=QUICK_FIDELITY, load_fractions=(0.25,),
    )),
    "fault_storm": grid_row(short_spec(
        archs=("firefly", "dhetpnoc"), patterns=("skewed3",),
        scenarios=(None, "fault_storm"), load_fractions=(0.8,),
    )),
    "late_scenario": grid_row(LATE_SPEC, scenario=LATE),
    "peaks": Row(lambda s: s.peaks(PEAKS), PEAKS),
    "replicated": Row(lambda s: s.replicated(REPLICATED), REPLICATED),
    "figure_3_3": Row(
        lambda s: figure_3_3(
            fidelity=SHORT, seed=3, bw_sets=[BW_SET_1], patterns=("uniform",),
            session=s,
        ),
        # What the figure prefetches for one set, one pattern, seed 3.
        short_spec(archs=("firefly", "dhetpnoc"), seeds=(3,), derive_seeds=False),
    ),
    "custom_bw_set": Row(
        lambda s: s.curve("firefly", CUSTOM_SET, "uniform", SHORT, seed=3),
        why="a spec names bandwidth sets by index; a customised set has none",
    ),
    "curve": Row(
        lambda s: s.curve("dhetpnoc", BW_SET_1, "skewed2", SHORT, seed=9),
        short_spec(
            archs=("dhetpnoc",), patterns=("skewed2",), seeds=(9,),
            derive_seeds=False,
        ),
    ),
    "knee": Row(
        lambda s: s.knee("dhetpnoc", 1, "skewed3", SHORT, resolution=0.25),
        why="adaptive: the jobs role accepts grid specs only",
    ),
}


# ---------------------------------------------------------------------------
# Lanes: each has the store its simulations land in, a cold pass and a
# second pass that must simulate nothing.
# ---------------------------------------------------------------------------

def counting_store() -> ResultStore:
    return ResultStore(backend=CountingBackend())


def records(store: ResultStore) -> dict:
    """Key -> record as stored: ``result_to_dict`` tells ``-0.0`` from
    ``0.0``, which ``RunResult.__eq__`` does not."""
    return {key: result_to_dict(r) for key, r in store.backend.scan()}


class PoolLane:
    """``Session(workers=2)``: misses fan out to a forked local pool."""

    def __init__(self) -> None:
        self.session = Session(counting_store(), workers=2)
        self.store = self.session.store
        assert self.session.fabric is None
        self.session.executor._ensure_pool()  # fork now, before any thread

    def run(self, row: Row):
        return row.ask(self.session)

    def replay(self, row: Row) -> None:
        row.ask(self.session)
        assert self.session.executed_count == 0


class FabricLane:
    """``Session(fabric=...)``: planned-batch jobs on *daemon*."""

    def __init__(self, daemon: Coordinator) -> None:
        self.daemon = daemon
        self.store = daemon.store

    def session(self) -> Session:
        host, port = self.daemon.address
        session = Session(fabric=f"{host}:{port}")
        assert session.fabric == f"{host}:{port}"
        return session

    def run(self, row: Row):
        with self.session() as session:
            return row.ask(session)

    def replay(self, row: Row) -> None:
        with self.session() as session:
            row.ask(session)
            assert session.executed_count == 0


class JobsLane(FabricLane):
    """``ServiceClient.run_spec``: a ``jobs``-role job on *daemon*.

    The stream must be the grid in grid order, under the keys a local
    run computes, and must answer the row's ``Session`` call with no
    simulation. The second pass is a planned batch.
    """

    def run(self, row: Row):
        with ServiceClient(self.daemon.address) as client:
            job = client.run_spec(row.spec)
        assert (job.executed, job.hits) == (self.store.backend.puts, 0)
        warm = Session(ResultStore())
        warm.store.put_many(zip(job.keys, job.results))
        keys, missing = warm.executor.plan(row.spec.expand(), row.spec.fidelity)
        assert (job.keys, missing) == (keys, [])
        value = row.ask(warm)
        assert len(warm.store) == len(set(keys))
        return value


LANES = (
    "pool", "fabric-threads", "fabric-procs", "client-batch",
    "jobs", "jobs-pool", "jobs-worker",
)

#: The cells that do not run, and why; every other (row, lane) does.
EXCLUDED = {
    (name, lane): row.why
    for name, row in ROWS.items() if row.spec is None
    for lane in ("jobs", "jobs-pool", "jobs-worker")
}


@pytest.fixture(scope="module")
def lanes():
    with contextlib.ExitStack() as stack:
        pool = PoolLane()
        stack.callback(pool.session.close)

        def daemon(server):
            # An idle worker polls again one heartbeat later (0.2 s at
            # most); cells would mostly wait on that poll.
            server.heartbeat_s = 0.02
            server.start()
            stack.callback(server.stop)
            return server

        threads = daemon(Coordinator(counting_store()))
        procs = daemon(Coordinator(counting_store()))
        service = daemon(ExperimentService(counting_store(), workers=1))
        service_pool = daemon(ExperimentService(counting_store(), workers=2))
        service_worker = daemon(ExperimentService(counting_store(), workers=0))
        workers, _ = inthread_workers(threads.address, 2)
        attached, _ = attach_worker(service_worker.address)
        for worker in (*workers, attached):
            stack.callback(worker.stop)
        for child in (spawn_worker(procs.address) for _ in range(2)):
            stack.callback(child.wait)
            stack.callback(child.kill)
        yield {
            "pool": pool,
            "fabric-threads": FabricLane(threads),
            "fabric-procs": FabricLane(procs),
            "client-batch": FabricLane(service),
            "jobs": JobsLane(service),
            "jobs-pool": JobsLane(service_pool),
            "jobs-worker": JobsLane(service_worker),
        }


@functools.cache
def reference(name: str):
    """``(value, records, simulated)`` of row *name* on a cold serial
    ``Session()``."""
    row, store = ROWS[name], counting_store()
    with registered(row.scenario):
        value = row.ask(Session(store))
    return value, records(store), store.backend.puts


@pytest.mark.parametrize("name,lane", [
    (name, lane) for name in ROWS for lane in LANES
    if (name, lane) not in EXCLUDED
])
def test_lane_matches_the_serial_session(name, lane, lanes):
    row, lane = ROWS[name], lanes[lane]
    value, stored, simulated = reference(name)
    backend = lane.store.backend
    lane.store.clear()
    with registered(row.scenario):
        assert lane.run(row) == value
        assert records(lane.store) == stored
        assert backend.puts == simulated > 0
        lane.replay(row)
        assert backend.puts == simulated
    assert LATE.name not in scenarios
