#!/usr/bin/env python3
"""DBA design-choice ablations: what each knob of the allocator buys.

Five studies on BW set 1 at 480 Gb/s offered (past the Firefly knee):

1. **Channel cap** -- table 3-3 caps the d-HetPNoC write channel at 8
   wavelengths; what do tighter caps cost? (A cap of 4 collapses to the
   Firefly configuration.)
2. **Reserved floor** -- the 1-wavelength-per-cluster starvation floor of
   section 3.2.1; raising it shrinks the dynamic pool.
3. **Retry backoff** -- the reservation retransmission policy.
4. **Token overhead** -- token circulation is off the data path (thesis
   3.2.1): delivered bandwidth with the ring running vs frozen should
   match closely under steady demand.
5. **Allocation policy** -- the thesis's conclusion lists "better ways to
   effectively manage bandwidth allocation" as future work. The paper's
   max-request policy against the proportional-share extension under an
   *oversubscribed* demand -- every cluster hosting a top-class
   application (chip demand 16 x 8 = 128 wavelengths vs a 64-wavelength
   pool), the case where first-come hoarding hurts.

Run:  python examples/dba_ablations.py [--fidelity quick|paper|tiny] [--seed 1]
"""

from __future__ import annotations

import argparse
import dataclasses

from repro import (
    BW_SET_1,
    DHetPNoC,
    RandomStreams,
    Simulator,
    SystemConfig,
    TrafficGenerator,
)
from repro.api import Session
from repro.experiments.report import ascii_table
from repro.experiments.runner import PAPER_FIDELITY, QUICK_FIDELITY, Fidelity
from repro.traffic.patterns import SkewedTraffic, UniformRandomTraffic

LOAD_GBPS = 480.0


class OversubscribedTraffic(UniformRandomTraffic):
    """Uniform communication, but every cluster demands the top class."""

    name = "oversubscribed"

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        bw_set = self._require_bound()
        return bw_set.dhet_max_channel_wavelengths  # 8 at BW set 1


def delivered_with(config: SystemConfig, fidelity: Fidelity, seed: int) -> float:
    """Delivered Gb/s of d-HetPNoC on skewed 3 under *config*."""
    result = Session(config=config).run_one(
        "dhetpnoc", config.bw_set, "skewed3", LOAD_GBPS,
        fidelity=fidelity, seed=seed,
    )
    return round(result.delivered_gbps, 1)


def run_dhetpnoc(pattern, fidelity: Fidelity, seed: int, **knobs) -> DHetPNoC:
    """One hand-wired d-HetPNoC run; *knobs* are constructor arguments no
    :class:`SystemConfig` field reaches (``circulate_token``,
    ``allocation_policy``)."""
    streams = RandomStreams(seed)
    config = SystemConfig(bw_set=BW_SET_1)
    sim = Simulator(clock_hz=config.clock_hz, seed=seed)
    bound = pattern.bind(
        config.bw_set, config.n_clusters, config.cores_per_cluster,
        streams.get("placement"),
    )
    noc = DHetPNoC(sim, config, pattern=bound, **knobs)
    generator = TrafficGenerator.for_offered_gbps(
        bound, LOAD_GBPS, streams.get("traffic"), noc.submit, config.clock_hz
    )
    noc.attach_generator(generator)
    sim.run_with_reset(fidelity.total_cycles, fidelity.reset_cycles)
    return noc


def delivered_gbps(noc: DHetPNoC) -> float:
    return round(noc.metrics.delivered_gbps(noc.config.clock_hz), 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fidelity", choices=("quick", "paper", "tiny"),
                        default="quick")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    fidelity = {
        "paper": PAPER_FIDELITY,
        "quick": QUICK_FIDELITY,
        "tiny": Fidelity("tiny", 700, 100, (0.6,)),
    }[args.fidelity]
    seed = args.seed

    by_cap = {
        cap: delivered_with(
            SystemConfig(bw_set=dataclasses.replace(
                BW_SET_1, dhet_max_channel_wavelengths=cap
            )),
            fidelity, seed,
        )
        for cap in (4, 6, 8)
    }
    print(ascii_table(["max channel wavelengths", "delivered Gb/s"],
                      list(by_cap.items()),
                      title="Ablation: d-HetPNoC per-channel wavelength cap"))
    print()

    print(ascii_table(
        ["reserved wavelengths/cluster", "delivered Gb/s"],
        [[reserved, delivered_with(
            SystemConfig(bw_set=BW_SET_1,
                         reserved_wavelengths_per_cluster=reserved),
            fidelity, seed)]
         for reserved in (1, 2)],
        title="Ablation: starvation floor size",
    ))
    print()

    print(ascii_table(
        ["backoff cycles", "delivered Gb/s"],
        [[backoff, delivered_with(
            SystemConfig(bw_set=BW_SET_1, retry_backoff_cycles=backoff),
            fidelity, seed)]
         for backoff in (2, 8, 32)],
        title="Ablation: reservation retry backoff",
    ))
    print()

    token = {
        label: delivered_gbps(run_dhetpnoc(
            SkewedTraffic(3), fidelity, seed, circulate_token=circulate))
        for label, circulate in (("circulating", True), ("frozen", False))
    }
    print(ascii_table(
        ["token ring", "delivered Gb/s"], list(token.items()),
        title="Ablation: token circulation overhead (steady demand)",
    ))
    print()

    policies = {}
    for policy in ("max_request", "proportional"):
        noc = run_dhetpnoc(OversubscribedTraffic(), fidelity, seed,
                           allocation_policy=policy)
        held = sorted(noc.allocation_snapshot().values())
        policies[policy] = [delivered_gbps(noc), held[0], held[-1],
                            sum(1 for h in held if h <= 1)]
    print(ascii_table(
        ["policy", "delivered Gb/s", "min held", "max held",
         "clusters at floor"],
        [[policy, *row] for policy, row in policies.items()],
        title="Ablation: allocation policy under oversubscribed demand",
    ))

    # Each verdict is computed, not asserted: tests/test_examples.py
    # reads the wording.
    cap = "beats" if by_cap[8] > by_cap[4] else "does not beat"
    drift = abs(token["circulating"] - token["frozen"]) / token["frozen"]
    ring = "is" if drift <= 0.02 else "is not"
    greedy, fair = policies["max_request"], policies["proportional"]
    starvation = "removes" if fair[3] < greedy[3] else "does not remove"
    cost = "without losing" if fair[0] >= 0.95 * greedy[0] else "but loses"
    print(f"\nTake-away: the table 3-3 cap of 8 wavelengths {cap} the "
          f"Firefly-equivalent cap of 4 ({by_cap[8]} vs {by_cap[4]} Gb/s); "
          f"the token ring {ring} off the data path (running it moves "
          f"delivered bandwidth by {drift:.1%}); under oversubscribed "
          f"demand proportional sharing {starvation} starvation "
          f"({greedy[3]} -> {fair[3]} clusters at the floor) {cost} "
          f"aggregate bandwidth ({fair[0]} vs {greedy[0]} Gb/s).")


if __name__ == "__main__":
    main()
