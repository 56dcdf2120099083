"""The photonic fabric's wake schedule against the naive per-cycle gating.

On the engine's fast path a gateway is ticked only from its wake cycle
on, and the engine jumps every span in which no gateway is due. The
naive loop ticks every gateway that holds a flit or a transmission,
every cycle. A Hypothesis property drives both over random workloads --
near-idle to past the knee, with one-packet RX buffers that make
reservations NACK, back off and abandon, and with one, two or sixteen
VCs per port, so that front packets wait for a VC a stream's drain
frees (one VC) and a port drains one VC while the next streams (two)
-- and holds the wake law
(``simulate(audit=1)``) all through the fast run: the two must agree
on every metric, every energy addend and every channel count, the lit
stream steps a sleeping gateway skipped included. Derandomized at the
``ci`` budget in tier-1, randomized at the ``nightly`` budget.
"""

import dataclasses

from hypothesis import given, strategies as st

from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, attach_traffic, wire_run
from repro.traffic.bandwidth_sets import BW_SET_1

#: Short enough for a property, long enough for reservation round
#: trips, fills, streams, retries and the warm-up reset.
FIDELITY = Fidelity("wake-law", 200, 40, (0.5,))

#: One-packet RX buffers, two retries, a short back-off.
SWAMPED = {"rx_buffer_packets": 1, "max_retries": 2, "retry_backoff_cycles": 3}


def observed(fast_path, arch_name, pattern, offered, seed, config):
    """Everything a run leaves behind, after ``simulate`` (audited every
    cycle on the fast path)."""
    run = wire_run(arch_name, BW_SET_1, pattern, FIDELITY, seed, config)
    run.sim.fast_path = fast_path
    attach_traffic(run, offered, FIDELITY)
    run.simulate(FIDELITY.total_cycles, FIDELITY.reset_cycles,
                 audit=1 if fast_path else 0)
    arch = run.arch
    metrics = dataclasses.asdict(arch.metrics)
    latency = metrics.pop("latency")
    return {
        "metrics": metrics,
        "latency": (latency.count, latency.mean, latency.min, latency.max),
        "energy": dataclasses.asdict(arch.energy.breakdown),
        "channels": [
            (g.channel.busy_cycles, g.channel.wavelength_cycles_lit,
             g.channel.flits_transmitted, g.channel.packets_transmitted,
             g.buffer_flit_cycles())
            for g in arch.gateways
        ],
        "ticked": run.sim.ticked_cycles + run.sim.jumped_cycles,
    }


@given(
    arch=st.sampled_from(["dhetpnoc", "firefly"]),
    pattern=st.sampled_from(["uniform", "skewed3", "skewed_hotspot2"]),
    offered=st.sampled_from([5.0, 40.0, 300.0, 900.0]),
    seed=st.integers(1, 2 ** 16),
    swamped=st.booleans(),
    n_vcs=st.sampled_from([1, 2, 16]),
)
def test_the_wake_schedule_matches_the_naive_gating(arch, pattern, offered,
                                                    seed, swamped, n_vcs):
    config = SystemConfig(bw_set=BW_SET_1, n_vcs=n_vcs,
                          **(SWAMPED if swamped else {}))
    fast = observed(True, arch, pattern, offered, seed, config)
    naive = observed(False, arch, pattern, offered, seed, config)
    assert fast == naive
    assert fast["ticked"] == FIDELITY.total_cycles
