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

from typing import Dict, List

from repro.dba.allocator import AllocationResult, WavelengthAllocator
from repro.dba.tables import CurrentTable, DemandTable, RequestTable
from repro.dba.token import WavelengthToken, token_link_cycles
from repro.photonic.wavelength import WavelengthId
from repro.sim.engine import Simulator


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

    # -- demand path (asynchronous with the token) -----------------------
    def update_core_demand(
        self, core_slot: int, demands: Dict[int, int]
    ) -> None:
        """A core reports new per-destination wavelength demands."""
        table = self.demand_tables[core_slot]
        for dst, wavelengths in demands.items():
            table.set_demand(dst, wavelengths)
        self.request_table.recompute(self.demand_tables)

    def update_core_demand_uniform(self, core_slot: int, wavelengths: int) -> None:
        self.demand_tables[core_slot].set_all(wavelengths)
        self.request_table.recompute(self.demand_tables)

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
        self._epoch += 1
        epoch = self._epoch
        self.sim.schedule(0, lambda: self._visit(epoch))

    def stop(self) -> None:
        self._running = False

    def _give_token(self, controller: DBAController) -> None:
        controller.on_token(self.token)
        self.hops += 1

    def _visit(self, epoch: int) -> None:
        if not self._running or epoch != self._epoch:
            return
        self._give_token(self.controllers[self._position])
        self._position = (self._position + 1) % len(self.controllers)
        if self._position == 0:
            self.rounds_completed += 1
        self.sim.schedule(self.hop_latency_cycles, lambda: self._visit(epoch))

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
