"""d-HetPNoC: the proposed architecture with dynamic bandwidth allocation.

Wires the DBA machinery of :mod:`repro.dba` into the crossbar base:

* one :class:`~repro.dba.controller.DBAController` per photonic router
  holding the 6 tables of fig. 3-2;
* a :class:`~repro.dba.controller.TokenRing` circulating the wavelength
  token on the control waveguide (eqs. 1-2 timing);
* transmissions toward destination *d* use the wavelength identifiers
  ``current_table.wavelengths_for(d)`` and piggyback them on the
  reservation flit (section 3.3.1), so the receiver powers only that
  subset of demodulators.

Demand initialisation follows the bound traffic pattern: each core
reports ``pattern.demand_wavelengths(src_cluster, dst_cluster)`` for every
destination, exactly the "core will determine these numbers based on the
traffic requirements of the current task" rule of section 3.2.1. Task
*re*-mapping mid-run is supported through :meth:`remap_demand`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arch.base import PhotonicCrossbarNoC
from repro.arch.config import SystemConfig
from repro.arch.photonic_router import TxPlan
from repro.dba.controller import DBAController, TokenRing
from repro.dba.token import WavelengthToken
from repro.photonic.reservation import (
    ReservationFlit,
    reservation_serialization_cycles,
)
from repro.photonic.wavelength import WavelengthId
from repro.sim.engine import SimulationError, Simulator
from repro.traffic.patterns import TrafficPattern

#: Token rounds given at construction, before circulation starts; the
#: second hands what one cluster released to those visited before it.
WARM_START_ROUNDS = 2


class DHetPNoC(PhotonicCrossbarNoC):
    """Dynamic heterogeneous photonic NoC (the thesis's contribution)."""

    name = "d-hetpnoc"

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        pattern: Optional[TrafficPattern] = None,
    ):
        super().__init__(sim, config)
        bw_set = config.bw_set

        # Statically reserved wavelengths: the first N_lambdaR flat ids,
        # reserved_per_cluster each (>= 1 per cluster, section 3.2.1).
        per_cluster = config.reserved_wavelengths_per_cluster
        self._reserved: Dict[int, List[WavelengthId]] = {
            cluster: [
                WavelengthId.from_flat(cluster * per_cluster + i)
                for i in range(per_cluster)
            ]
            for cluster in range(config.n_clusters)
        }
        self.token = self._build_token()
        #: (src, dst) -> (current-table version, its TxPlan).
        self._plans: Dict[tuple, tuple] = {}
        self.controllers: List[DBAController] = [
            DBAController(
                cluster=cluster,
                n_clusters=config.n_clusters,
                cores_per_cluster=config.cores_per_cluster,
                reserved=self._reserved[cluster],
                max_channel_wavelengths=bw_set.dhet_max_channel_wavelengths,
            )
            for cluster in range(config.n_clusters)
        ]
        self.token_ring = TokenRing(
            sim,
            self.controllers,
            self.token,
            hold_cycles=config.token_hold_cycles,
        )
        if pattern is not None:
            self.apply_pattern_demand(pattern)
        for _ in range(WARM_START_ROUNDS):
            self.token_ring.run_round_immediately()
        self.token_ring.start()

    def _build_token(self) -> WavelengthToken:
        """Token over every data wavelength not statically reserved (eq. 1)."""
        config = self.config
        reserved_flat = {
            wid.flat for ids in self._reserved.values() for wid in ids
        }
        pool = [
            WavelengthId.from_flat(flat)
            for flat in range(config.bw_set.total_wavelengths)
            if flat not in reserved_flat
        ]
        return WavelengthToken(pool)

    # ------------------------------------------------------------------
    # Demand management
    # ------------------------------------------------------------------
    def apply_pattern_demand(self, pattern: TrafficPattern) -> None:
        """Load every core's demand table from the traffic pattern."""
        config = self.config
        for cluster, controller in enumerate(self.controllers):
            controller.update_cluster_demand({
                dst: pattern.demand_wavelengths(cluster, dst)
                for dst in range(config.n_clusters)
                if dst != cluster
            })

    def remap_demand(
        self, cluster: int, core_slot: int, demands: Dict[int, int]
    ) -> None:
        """A task-remapping event: one core's demand table changes.

        Takes effect at the next token visit ("the request table can be
        updated even when the token is not present").
        """
        self.controllers[cluster].update_core_demand(core_slot, demands)

    # ------------------------------------------------------------------
    # Architecture hooks
    # ------------------------------------------------------------------
    def tx_plan(self, src_cluster: int, dst_cluster: int) -> TxPlan:
        """Rebuilt only when the source's current table has moved."""
        controller = self.controllers[src_cluster]
        table = controller.current_table
        version, plan = self._plans.get((src_cluster, dst_cluster), (None, None))
        if version != table.version:
            ids = tuple(controller.wavelengths_for(dst_cluster))
            plan = TxPlan(
                n_wavelengths=len(ids),
                wavelength_ids=ids,
                reservation_cycles=reservation_serialization_cycles(
                    len(ids), self.n_data_waveguides, clock_hz=self.config.clock_hz
                ),
            )
            self._plans[src_cluster, dst_cluster] = (table.version, plan)
        return plan

    def rx_demodulators_on(self, reservation: ReservationFlit) -> int:
        """Only the reserved wavelength subset is powered (section 3.3.1)."""
        return max(1, len(reservation.wavelength_ids))

    def lit_wavelengths(self) -> int:
        """Only held wavelengths need laser power (energy-proportional
        on-chip sources, thesis 2.1.4)."""
        return sum(c.held_count for c in self.controllers)

    def settle(self, cycle: int) -> None:
        """The gateways' streams, then the visits a sleeping token ring
        slept through."""
        super().settle(cycle)
        self.token_ring.settle(cycle)

    def release(self) -> None:
        super().release()
        self.token_ring.release()

    def audit(self) -> None:
        """The gateways' audits, then the ring law: each controller's
        dynamic wavelengths are exactly those the token names its
        cluster the owner of, none holds fewer than its reserved floor or
        allocates more to one destination than it holds, and the clusters
        together hold no more wavelengths than there are; last, the token
        ring's own law (:meth:`~repro.dba.controller.TokenRing.audit`),
        which wakes a sleeping ring."""
        super().audit()

        def broken(law: str) -> SimulationError:
            return SimulationError(f"{self.name} ring: {law}")

        floor = self.config.reserved_wavelengths_per_cluster
        for controller in self.controllers:
            cluster, table = controller.cluster, controller.current_table
            dynamic = sorted(wid.flat for wid in table.dynamic_ids)
            owned = sorted(wid.flat for wid in self.token.held_by(cluster))
            if dynamic != owned:
                raise broken(f"cluster {cluster} holds dynamic wavelengths "
                             f"{dynamic}, the token gives it {owned}")
            if table.held_count < floor:
                raise broken(f"cluster {cluster} holds {table.held_count} "
                             f"wavelengths, below its floor of {floor}")
            for dst, allocated in table.as_dict().items():
                if allocated > table.held_count:
                    raise broken(f"cluster {cluster} allocates {allocated} "
                                 f"wavelengths to cluster {dst}, holds "
                                 f"{table.held_count}")
        held = sum(c.held_count for c in self.controllers)
        total = self.config.bw_set.total_wavelengths
        if held > total:
            raise broken(f"{held} wavelengths held, {total} exist")
        self.token_ring.audit()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def allocation_snapshot(self) -> Dict[int, int]:
        """Cluster -> held wavelength count (after warm start)."""
        return {c.cluster: c.held_count for c in self.controllers}
