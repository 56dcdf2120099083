"""Electrical 2-D mesh baseline (the chapter-1 motivation).

Thesis section 1.5: "Using long electrical wires for global communication
is unreliable ... The bandwidth offered by electrical wires is also very
less." This module makes that comparison runnable: a 64-core CLICHE mesh
(fig. 1-2) of 3-stage wormhole VC routers with XY routing, a fabric under the same
:class:`~repro.arch.base.NoCArchitecture` shell as the photonic crossbar
so the same traffic generators drive it.

Energy: electronic router traversals at ``E_router`` and buffer
write/read at ``E_buffer`` per bit (table 3-5), plus wire energy per
bit-mm for every link crossed (65 nm global-wire figure; see
:data:`repro.energy.params.ELECTRICAL_WIRE_PJ_PER_BIT_MM`).

The expected outcome -- and what the example shows -- is the thesis's own
motivation: the mesh wins end-to-end latency at low load (few-cycle hops,
no reservation round trip) but saturates far below the photonic crossbar's
aggregate bandwidth, and its per-bit energy grows with hop count.
"""

from __future__ import annotations

import math

from repro.arch.base import NoCArchitecture
from repro.arch.config import SystemConfig
from repro.energy.params import ELECTRICAL_WIRE_PJ_PER_BIT_MM
from repro.noc.flit import Packet
from repro.noc.network import ElectricalNetwork
from repro.noc.router import RouterConfig
from repro.noc.topology import mesh
from repro.sim.engine import Simulator


class ElectricalMeshNoC(NoCArchitecture):
    """Electrical fabric: a 64-core mesh under the architecture shell.

    Packets are re-flitted onto ``phit_bits``-wide links (32, the width
    class of the chapter-1 commercial interconnects: QuickPath is 20
    bits, HyperTransport 32). Electrical wires do not get wider because
    the photonic fabric gained wavelengths, so the mesh's per-link
    bandwidth is fixed at ``phit_bits x clock`` regardless of the
    bandwidth set.
    """

    name = "electrical-mesh"

    #: Link width in bits.
    phit_bits = 32
    #: Packets a core's injection queue holds before it refuses more.
    max_queued = 4

    def __init__(self, sim: Simulator, config: SystemConfig):
        side = math.isqrt(config.n_cores)
        if side * side != config.n_cores:
            raise ValueError("electrical mesh needs a square core count")
        super().__init__(sim, config)
        self.side = side
        self.network = ElectricalNetwork(
            mesh(side, side),
            router_config=RouterConfig(
                n_vcs=config.n_vcs, vc_depth=config.vc_depth_flits
            ),
            name="emesh",
        )
        # Per-hop wire length: die edge / mesh side (20 mm / 8 = 2.5 mm).
        self.hop_length_mm = config.die_mm / side
        # Delivery is accounted by the shell (latency, energy), once per
        # phit: the inner network's own delivery metrics are not kept.
        self.network.on_eject = self.note_flit_delivered
        # The inner network is not registered with the simulator; the
        # shell drives and audits it through these.
        self.tick_fabric = self.network.tick
        self.fabric_next_wake = self.network.next_wake
        self.skip_fabric = self.network.skip_cycles
        self.reset_fabric = self.network.reset_stats
        self.audit_fabric = self.network.audit

    # ------------------------------------------------------------------
    def submit(self, packet: Packet) -> bool:
        endpoint = self.network.endpoints[packet.src]
        if len(endpoint.queue) >= self.max_queued:
            self.metrics.packets_refused += 1
            return False
        phits = self._reflit(packet)
        self.network.submit(phits)
        self.metrics.packets_accepted += 1
        self._flits_in += phits.n_flits
        return True

    def _reflit(self, packet: Packet) -> Packet:
        """Re-flit onto the mesh's fixed phit width (payload preserved)."""
        if packet.flit_bits == self.phit_bits:
            return packet
        n_flits = max(1, math.ceil(packet.size_bits / self.phit_bits))
        return Packet(
            src=packet.src,
            dst=packet.dst,
            n_flits=n_flits,
            flit_bits=self.phit_bits,
            created_cycle=packet.created_cycle,
            bw_class=packet.bw_class,
        )

    # ------------------------------------------------------------------
    # Energy: computed from substrate counters at finalize time.
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        for router in self.network.routers.values():
            bits = router.bits_forwarded
            self.energy.charge_router_traversal(bits)
            self.energy.charge_buffer_write(bits)
            self.energy.charge_buffer_read(bits)
            router.settle(self.current_cycle)
            self.energy.charge_buffer_retention(
                self.phit_bits, router.buffer_flit_cycles
            )
        wire_pj = sum(
            link.bits_carried * ELECTRICAL_WIRE_PJ_PER_BIT_MM * self.hop_length_mm
            for link in self.network._links
        )
        # Book wire energy under the electrical (router) column.
        self.energy.breakdown.router_pj += wire_pj

    def release(self) -> None:
        super().release()
        self.network.release()

    def lit_wavelengths(self) -> int:
        return 0

    def flits_in_system(self) -> int:
        """Phits accepted and not yet delivered (queued packets count at
        their re-flitted length, not the bandwidth set's)."""
        return self.network.flits_in_network + sum(
            sum(packet.n_flits for packet in ep.queue) + ep.pending_flit_count
            for ep in self.network.endpoints.values()
        )
