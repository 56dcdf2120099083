"""Per-router DBA controllers and the chip-level token ring.

The token "is circulated between the photonic routers using a separate
control waveguide with maximum DWDM" (thesis 3.2.1). Each hop costs
``T_L`` (eq. 2, rounded up to cycles) plus a processing hold; "the
worst-case time required by a particular photonic router to repossess the
token is given by T_L * N_PR".

Demand updates are decoupled from token possession: "This scheme works
even when the task allocation to specific cores happen asynchronously with
the circulation of the token as the request table can be updated even when
the token is not present in the photonic router."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dba.allocator import AllocationResult, WavelengthAllocator
from repro.dba.tables import CurrentTable, DemandTable, RequestTable
from repro.dba.token import WavelengthToken, token_link_cycles
from repro.photonic.wavelength import WavelengthId
from repro.sim.engine import SimulationError, Simulator


class DBAController:
    """The DBA state of one photonic router (fig. 3-2's table block)."""

    def __init__(
        self,
        cluster: int,
        n_clusters: int,
        cores_per_cluster: int,
        reserved: List[WavelengthId],
        max_channel_wavelengths: int,
    ):
        if cores_per_cluster <= 0:
            raise ValueError("cores_per_cluster must be positive")
        self.cluster = cluster
        self.n_clusters = n_clusters
        self.demand_tables: List[DemandTable] = [
            DemandTable(core_id=cluster * cores_per_cluster + i,
                        n_clusters=n_clusters, own_cluster=cluster)
            for i in range(cores_per_cluster)
        ]
        self.request_table = RequestTable(n_clusters, cluster)
        self.current_table = CurrentTable(n_clusters, cluster, reserved)
        self.allocator = WavelengthAllocator(cluster, max_channel_wavelengths)
        self.token_visits = 0
        #: The ring circulating this controller's token, once one does:
        #: a demand update wakes it.
        self.ring: Optional["TokenRing"] = None

    # -- demand path (asynchronous with the token) -----------------------
    def update_core_demand(
        self, core_slot: int, demands: Dict[int, int]
    ) -> None:
        """A core reports new per-destination wavelength demands."""
        table = self.demand_tables[core_slot]
        for dst, wavelengths in demands.items():
            table.set_demand(dst, wavelengths)
        self._recompute_requests()

    def update_core_demand_uniform(self, core_slot: int, wavelengths: int) -> None:
        self.demand_tables[core_slot].set_all(wavelengths)
        self._recompute_requests()

    def _recompute_requests(self) -> None:
        self.request_table.recompute(self.demand_tables)
        if self.ring is not None:
            self.ring.wake()

    # -- token path -------------------------------------------------------
    def on_token(self, token: WavelengthToken) -> AllocationResult:
        """Process the token: one capture/relinquish pass."""
        self.token_visits += 1
        return self.allocator.run_pass(
            token, self.request_table, self.current_table
        )

    # -- data-path queries (used by the TX engine) -------------------------
    def wavelengths_for(self, dst_cluster: int) -> List[WavelengthId]:
        return self.current_table.wavelengths_for(dst_cluster)

    @property
    def held_count(self) -> int:
        return self.current_table.held_count


class TokenRing:
    """Circulates the token among controllers on the simulator event queue.

    Hop latency = token link cycles (eq. 2) + ``hold_cycles`` of processing
    at each router. The ring can be paused/resumed for failure-injection
    tests.

    The ring sleeps at its fixed point. A pass reads only its own
    controller's tables and, when the cluster holds less than its target,
    the token; so after one full round of quiet passes -- no capture, no
    release, no unsatisfied pass, neither table at a new version -- every
    later pass is quiet too, until something outside the passes writes a
    table. The ring then stops scheduling visits and keeps the cycle of
    the first one it did not schedule: the visits it sleeps through fall
    at the cycles ``t0 + k * hop`` the circulating ring would have used,
    and each is a pure count. It wakes on whatever could change a pass --
    a demand update (:meth:`DBAController.update_core_demand`), a
    wavelength kill (``FaultInjector.kill_wavelengths``) and
    :meth:`audit` -- settling the visits it slept through and scheduling
    the next one at its circulating cycle; :meth:`stop` settles them and
    halts it, :meth:`start` circulates it afresh. Otherwise the visits
    slept through are counted into ``hops``, ``rounds_completed`` and
    the controllers' ``token_visits`` by :meth:`settle`, which the
    architecture's ``settle`` calls at the end of every run: the counts
    are current between runs (a sleeping ring's passes are all
    satisfied, so ``unsatisfied_passes`` is always current). Visits at
    one cycle fire before that cycle's ticks, so a wake inside a cycle
    counts its visit as fired, one between cycles does not. A visit
    commutes with the only other event a run schedules,
    ``FaultInjector.blackout_receiver``'s restore, which touches RX
    reservations only.
    """

    def __init__(
        self,
        sim: Simulator,
        controllers: List[DBAController],
        token: WavelengthToken,
        hold_cycles: int = 1,
    ):
        if not controllers:
            raise ValueError("token ring needs at least one controller")
        if hold_cycles < 0:
            raise ValueError("hold_cycles must be >= 0")
        self.sim = sim
        self.controllers = controllers
        self.token = token
        self.hold_cycles = hold_cycles
        self.link_cycles = token_link_cycles(token.size_bits, clock_hz=sim.clock_hz)
        self.rounds_completed = 0
        self.hops = 0
        self._position = 0
        self._running = False
        # Epoch guard: scheduled visits from a stopped circulation must
        # not resume when the ring is restarted (avoids double-speed
        # circulation after a stop()/start() cycle).
        self._epoch = 0
        #: Consecutive quiet passes; a full round of them puts the ring
        #: to sleep with its next visit due at ``_next_visit``.
        self._quiet = 0
        self._asleep = False
        self._next_visit = 0
        for controller in controllers:
            controller.ring = self

    @property
    def hop_latency_cycles(self) -> int:
        return self.link_cycles + self.hold_cycles

    def worst_case_repossession_cycles(self) -> int:
        """T_L * N_PR (plus holds), thesis 3.2.1."""
        return self.hop_latency_cycles * len(self.controllers)

    def start(self) -> None:
        if self._running:
            raise RuntimeError("token ring already running")
        self._running = True
        self._quiet = 0
        self._epoch += 1
        epoch = self._epoch
        self.sim.schedule(0, lambda: self._visit(epoch))

    def stop(self) -> None:
        self.settle(self.sim.cycle + self.sim.in_cycle)
        self._running = False
        self._asleep = False

    def settle(self, cycle: int) -> None:
        """Count the visits a sleeping ring slept through before *cycle*.
        :meth:`wake` and :meth:`stop` settle before ``sim.cycle + 1``
        inside a cycle, whose events (a visit due then among them) have
        fired, and before ``sim.cycle`` between cycles."""
        if not self._asleep or cycle <= self._next_visit:
            return
        hop = self.hop_latency_cycles
        visits = (cycle - 1 - self._next_visit) // hop + 1
        self._next_visit += visits * hop
        controllers = self.controllers
        size = len(controllers)
        full, rest = divmod(visits, size)
        position = self._position
        for index, controller in enumerate(controllers):
            controller.token_visits += (
                full + ((index - position) % size < rest))
        self.hops += visits
        self.rounds_completed += (position + visits) // size
        self._position = (position + visits) % size

    def wake(self) -> None:
        """Settle a sleeping ring and schedule its next visit at the
        cycle the circulating ring would have used. An awake ring starts
        counting its quiet round afresh."""
        self._quiet = 0
        if not self._asleep:
            return
        self.settle(self.sim.cycle + self.sim.in_cycle)
        self._asleep = False
        epoch = self._epoch
        self.sim.schedule(
            self._next_visit - self.sim.cycle, lambda: self._visit(epoch)
        )

    def _give_token(self, controller: DBAController) -> None:
        controller.on_token(self.token)
        self.hops += 1

    def _visit(self, epoch: int) -> None:
        if not self._running or epoch != self._epoch:
            return
        controller = self.controllers[self._position]
        request, current = controller.request_table, controller.current_table
        versions = (request.version, current.version)
        result = controller.on_token(self.token)
        self.hops += 1
        self._position = (self._position + 1) % len(self.controllers)
        if self._position == 0:
            self.rounds_completed += 1
        hop = self.hop_latency_cycles
        if (result.acquired or result.released or not result.satisfied
                or versions != (request.version, current.version)):
            self._quiet = 0
        else:
            self._quiet += 1
            if self._quiet == len(self.controllers):
                self._asleep = True
                self._next_visit = self.sim.cycle + hop
                return
        self.sim.schedule(hop, lambda: self._visit(epoch))

    def run_round_immediately(self) -> None:
        """Synchronously give every controller one token pass (warm start).

        The thesis initialises allocation before measurement (allocation
        changes happen at task-mapping, "slower ... by several orders"
        than packets); d-HetPNoC runs ``WARM_START_ROUNDS`` of these at
        construction, so it starts configured.
        """
        for controller in self.controllers:
            self._give_token(controller)
        self.rounds_completed += 1

    def audit(self) -> None:
        """Check a sleeping ring's fixed point, then wake it.

        Asleep, every controller's next pass must be quiet: its tables at
        the versions its allocator last folded, its holding at its
        target. A table written by something that did not wake the ring
        breaks this law. The wake makes the passes after an audit look
        at the tables afresh.
        """
        if self._asleep:
            for controller in self.controllers:
                allocator = controller.allocator
                request, current = controller.request_table, controller.current_table
                folded = (request, request.version, current, current.version)
                if (allocator._folded != folded
                        or current.held_count
                        != allocator.target_for(request, current)):
                    raise SimulationError(
                        f"token ring: asleep, but cluster "
                        f"{controller.cluster}'s next pass is not quiet"
                    )
        self.wake()
