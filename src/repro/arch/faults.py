"""Failure injection for robustness studies.

The thesis motivates dynamic reconfiguration partly with reliability
("dynamic thermal management schemes", section 3.2; device failures are a
standing concern for emerging interconnects, section 1.5). This module
injects the photonic failure modes the architecture can meaningfully
react to:

* **Wavelength death** -- an MRR modulator/detector pair goes out of trim
  permanently. For d-HetPNoC the wavelength is removed from the owner's
  holdings and retired in the token, so nobody re-acquires it; the DBA
  floor guarantees the victim cluster keeps its reserved wavelength.
* **Token freeze** -- the control waveguide stalls. Data transfer must
  continue with the last-settled allocation (the thesis's claim that DBA
  is off the data path).
* **Receiver blackout** -- a cluster's demodulators go down for a window;
  sources NACK-retry until it returns (exercises the retransmission
  path end to end).
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.dhetpnoc import DHetPNoC
from repro.photonic.wavelength import WavelengthId


class FaultError(RuntimeError):
    """Raised for invalid fault injections."""


class FaultInjector:
    """Injects photonic faults into a running :class:`DHetPNoC`."""

    def __init__(self, noc: DHetPNoC):
        self.noc = noc
        self.dead_wavelengths: List[WavelengthId] = []
        self.blackouts: Dict[int, int] = {}  # cluster -> restore cycle

    # ------------------------------------------------------------------
    # Wavelength death
    # ------------------------------------------------------------------
    def kill_wavelengths(
        self, cluster: int, count: int, clamp: bool = False
    ) -> List[WavelengthId]:
        """Permanently fail *count* dynamic wavelengths held by *cluster*.

        The wavelengths leave the cluster's current table, are marked
        dead in this injector and are retired in the token (never
        released back into it, so the pool genuinely shrinks). The
        reserved wavelength cannot die -- modelling it as
        trimmed/athermal hardware -- so the starvation floor survives.

        With ``clamp=True`` the kill is limited to the wavelengths the
        cluster actually holds (possibly zero) instead of raising --
        scripted fault storms use this, since holdings at the scripted
        cycle depend on the traffic history.
        """
        controller = self.noc.controllers[cluster]
        current = controller.current_table
        available = len(current.dynamic_ids)
        if count > available:
            if not clamp:
                raise FaultError(
                    f"cluster {cluster} holds only {available} dynamic wavelengths"
                )
            count = available
        if count == 0:
            return []
        self.noc.token_ring.wake()
        dead = current.remove_dynamic(count)
        for wid in dead:
            self.noc.token.retire(wid, cluster)
        self.dead_wavelengths.extend(dead)
        # Re-clamp the per-destination allocations to the shrunken holding.
        for dst, allocated in current.as_dict().items():
            current.set_allocation(dst, min(allocated, current.held_count))
        return dead

    # ------------------------------------------------------------------
    # Control-plane freeze
    # ------------------------------------------------------------------
    def freeze_token(self) -> None:
        """Stall the control waveguide: no further allocation changes."""
        self.noc.token_ring.stop()

    def thaw_token(self) -> None:
        """Regenerate the token at router 0 (the usual recovery scheme for
        lost tokens in token-passing protocols)."""
        ring = self.noc.token_ring
        if ring._running:
            raise FaultError("token ring is not frozen")
        ring._position = 0
        ring.start()

    # ------------------------------------------------------------------
    # Receiver blackout
    # ------------------------------------------------------------------
    def blackout_receiver(self, cluster: int, duration_cycles: int) -> None:
        """Take a cluster's RX demodulators down for *duration_cycles*.

        Implemented by shrinking the victim's advertised receive space to
        zero: every reservation toward it NACKs until restoration.
        """
        if duration_cycles <= 0:
            raise FaultError("duration must be positive")
        gateway = self.noc.gateways[cluster]
        sim = self.noc.sim
        # Reserve away all free space so on_reservation sees none.
        stolen: Dict[int, int] = {}
        for src, buffer in gateway.rx_buffers.items():
            free = buffer.free_slots - gateway._rx_reserved[src]
            if free > 0:
                gateway._rx_reserved[src] += free
                stolen[src] = free
        self.blackouts[cluster] = sim.cycle + duration_cycles

        def restore() -> None:
            for src, amount in stolen.items():
                gateway._rx_reserved[src] -= amount
            self.blackouts.pop(cluster, None)

        sim.schedule(duration_cycles, restore)
