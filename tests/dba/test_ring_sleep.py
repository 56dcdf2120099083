"""The token ring sleeps at its fixed point and answers as if it had not.

After a full round of quiet passes the ring stops scheduling visits.
Every counter it keeps must still read what the always-circulating ring
would show after every run (the architecture's ``settle`` counts the
visits slept through), and whatever could change a pass must wake it at
the cycle that ring would have used. Each wake hook and each settled
counter has a test here that fails without it.
"""

import pytest

from repro.arch.dhetpnoc import WARM_START_ROUNDS
from repro.arch.faults import FaultInjector
from repro.dba.controller import TokenRing
from repro.experiments import runner
from repro.experiments.runner import Fidelity, attach_traffic, wire_run
from repro.sim.engine import SimulationError
from repro.traffic.bandwidth_sets import BW_SET_1

FIDELITY = Fidelity("ring-sleep", 700, 100, (0.5,))


def wired(offered=20.0, scenario=None, pattern="uniform", seed=1):
    run = wire_run("dhetpnoc", BW_SET_1, pattern, FIDELITY, seed=seed,
                   scenario=scenario)
    attach_traffic(run, offered, FIDELITY)
    return run


def counters(ring):
    """Every count the ring keeps, read the way a user reads them."""
    return (
        ring.hops,
        ring.rounds_completed,
        [c.token_visits for c in ring.controllers],
    )


def circulated(ring, fired):
    """The counters of a ring started at cycle 0 after the warm start,
    once *fired* visits of its circulation have fired."""
    size = len(ring.controllers)
    visits = [WARM_START_ROUNDS + fired // size + (c < fired % size)
              for c in range(size)]
    return (WARM_START_ROUNDS * size + fired,
            WARM_START_ROUNDS + fired // size, visits)


def fired_before(ring, cycle):
    """Visits due at cycles 0, hop, 2 hop, ... before *cycle*."""
    hop = ring.hop_latency_cycles
    return (cycle + hop - 1) // hop


def asleep_after(run, cycles):
    run.sim.run(cycles)
    assert run.arch.token_ring._asleep
    return run.arch.token_ring


@pytest.mark.parametrize("audit", [1, 97])
def test_counters_read_at_every_audit_are_the_circulating_rings(audit):
    """Read before each audit of ``simulate(audit=N)``: at ``audit=1``
    the audits keep waking the ring, at 97 it sleeps between them."""
    run = wired()
    ring, law, slept = run.arch.token_ring, run.arch.audit, []

    def read_then_audit():
        slept.append(ring._asleep)
        assert counters(ring) == circulated(
            ring, fired_before(ring, run.sim.cycle))
        law()

    run.arch.audit = read_then_audit
    run.simulate(FIDELITY.total_cycles, FIDELITY.reset_cycles, audit=audit)
    assert len(slept) >= FIDELITY.total_cycles // audit
    assert any(slept) == (audit == 97)


@pytest.mark.parametrize("advance", [
    lambda sim: sim.run(7),
    lambda sim: sim.step(),
], ids=["run", "step"])
def test_counters_read_after_each_run_count_its_visits(advance):
    """Every run ends with a settle, so a read after each ``run(k)`` or
    ``step()`` counts the visits due before the cycle reached, asleep
    or not. (Inside a cycle the counts are not current: a read there
    is not part of the contract.)"""
    run = wired()
    ring, reads = run.arch.token_ring, []
    while run.sim.cycle < 300:
        advance(run.sim)
        reads.append(ring._asleep)
        assert counters(ring) == circulated(
            ring, fired_before(ring, run.sim.cycle))
    assert any(reads)


@pytest.mark.parametrize("index,read", [
    (0, lambda ring: ring.hops),
    (1, lambda ring: ring.rounds_completed),
    (2, lambda ring: [c.token_visits for c in ring.controllers]),
], ids=["hops", "rounds_completed", "token_visits"])
def test_each_counter_is_settled_at_the_end_of_a_run(index, read):
    run = wired()
    ring = asleep_after(run, 300)
    run.sim.run(157)
    fired = fired_before(ring, run.sim.cycle)
    assert read(ring) == circulated(ring, fired)[index]


def test_a_demand_update_wakes_a_sleeping_ring():
    """A cluster's cores all ask for one wavelength: the passes after
    the update release the rest."""
    run = wired(offered=0.0)
    ring = asleep_after(run, 200)
    cluster = 3
    controller = run.arch.controllers[cluster]
    assert controller.held_count > 1
    for slot in range(4):
        run.arch.remap_demand(
            cluster, slot, {dst: 1 for dst in range(16) if dst != cluster})
    assert not ring._asleep
    run.sim.run(2 * ring.worst_case_repossession_cycles())
    assert controller.held_count == 1
    run.arch.audit()


def test_a_wavelength_kill_wakes_a_sleeping_ring():
    """The victim re-acquires from the pool's slack on the passes after
    the kill, as the circulating ring heals it."""
    run = wired(offered=0.0, pattern="skewed3", seed=9)
    ring = asleep_after(run, 200)
    hot = max(range(16), key=lambda c: run.arch.controllers[c].held_count)
    before = run.arch.controllers[hot].held_count
    FaultInjector(run.arch).kill_wavelengths(hot, 2)
    assert not ring._asleep
    run.sim.run(2 * ring.worst_case_repossession_cycles())
    assert run.arch.controllers[hot].held_count == before
    run.arch.audit()


def test_stop_settles_a_sleeping_ring_and_halts_it():
    run = wired()
    ring = asleep_after(run, 300)
    run.sim.run(41)
    stopped_at = run.sim.cycle
    ring.stop()
    run.sim.run(200)
    assert counters(ring) == circulated(ring, fired_before(ring, stopped_at))


def test_start_after_stop_circulates_from_router_zero():
    """A freeze and a thaw (``FaultInjector``): the thawed ring visits
    router 0 at the thaw cycle, then every hop, and sleeps again."""
    run = wired()
    ring = asleep_after(run, 300)
    injector = FaultInjector(run.arch)
    injector.freeze_token()
    before = fired_before(ring, run.sim.cycle)
    size = len(ring.controllers)
    run.sim.run(50)
    injector.thaw_token()
    thawed_at = run.sim.cycle
    run.sim.run(300)
    assert ring._asleep
    after = fired_before(ring, run.sim.cycle - thawed_at)
    hops, rounds, visits = counters(ring)
    assert hops == WARM_START_ROUNDS * size + before + after
    assert rounds == WARM_START_ROUNDS + before // size + after // size
    assert sum(visits) == hops


def test_an_audit_wakes_a_sleeping_ring_at_its_circulating_cycle():
    run = wired()
    ring = asleep_after(run, 301)
    run.arch.audit()
    assert not ring._asleep
    hop = ring.hop_latency_cycles
    due = [when for when, _, _ in run.sim._event_heap]
    assert due == [-(-run.sim.cycle // hop) * hop]


def test_an_audit_names_a_table_write_no_hook_saw():
    run = wired()
    asleep_after(run, 300)
    table = run.arch.controllers[6].current_table
    table.set_allocation(7, 0)
    with pytest.raises(SimulationError,
                       match="asleep, but cluster 6's next pass is not quiet"):
        run.arch.audit()


def circulating_visit(self, epoch):
    """A visit of the ring that never sleeps: pass, advance, reschedule."""
    if not self._running or epoch != self._epoch:
        return
    self._give_token(self.controllers[self._position])
    self._position = (self._position + 1) % len(self.controllers)
    if self._position == 0:
        self.rounds_completed += 1
    self.sim.schedule(self.hop_latency_cycles,
                      lambda: circulating_visit(self, epoch))


@pytest.mark.parametrize("pattern,offered,scenario", [
    ("skewed3", 400.0, "fault_storm"),
    ("skewed3", 480.0, "closed_loop_shedding"),
    ("uniform", 20.0, None),
])
def test_a_sleeping_ring_runs_what_the_circulating_ring_runs(
        monkeypatch, pattern, offered, scenario):
    """The whole run -- its ``RunResult`` and every count the ring
    keeps -- equals the run of the ring that never sleeps. Under
    ``fault_storm`` the kills wake the sleeping ring."""
    rings, wakes = [], []
    build = runner.build_arch

    def keep_ring(*args, **kwargs):
        arch = build(*args, **kwargs)
        rings.append(arch.token_ring)
        return arch

    wake = TokenRing.wake

    def count_wake(ring):
        wakes.append(ring._asleep)
        wake(ring)

    monkeypatch.setattr(runner, "build_arch", keep_ring)
    monkeypatch.setattr(TokenRing, "wake", count_wake)

    def run():
        result = runner._run_once("dhetpnoc", BW_SET_1, pattern, offered,
                                  fidelity=FIDELITY, seed=1, scenario=scenario)
        ring = rings[-1]
        return result, counters(ring), [
            c.allocator.unsatisfied_passes for c in ring.controllers]

    sleeping = run()
    assert any(wakes) == (scenario == "fault_storm")
    monkeypatch.setattr(TokenRing, "_visit", circulating_visit)
    assert run() == sleeping
