#!/usr/bin/env python3
"""DBA design-choice ablations: what each knob of the allocator buys.

Four studies on BW set 1 at 480 Gb/s offered (past the Firefly knee):

1. **Channel cap** -- table 3-3 caps the d-HetPNoC write channel at 8
   wavelengths; what do tighter caps cost? (A cap of 4 collapses to the
   Firefly configuration.)
2. **Reserved floor** -- the 1-wavelength-per-cluster starvation floor of
   section 3.2.1; raising it shrinks the dynamic pool.
3. **Retry backoff** -- the reservation retransmission policy.
4. **Token overhead** -- token circulation is off the data path (thesis
   3.2.1): delivered bandwidth with the ring running vs frozen should
   match closely under steady demand.

Run:  python examples/dba_ablations.py [--fidelity quick|paper|tiny] [--seed 1]
"""

from __future__ import annotations

import argparse
import dataclasses

from repro import BW_SET_1, SystemConfig
from repro.api import Session
from repro.experiments.report import ascii_table
from repro.experiments.runner import (
    PAPER_FIDELITY,
    QUICK_FIDELITY,
    Fidelity,
    attach_traffic,
    wire_run,
)

LOAD_GBPS = 480.0


def delivered_with(config: SystemConfig, fidelity: Fidelity, seed: int) -> float:
    """Delivered Gb/s of d-HetPNoC on skewed 3 under *config*."""
    result = Session(config=config).run_one(
        "dhetpnoc", config.bw_set, "skewed3", LOAD_GBPS,
        fidelity=fidelity, seed=seed,
    )
    return round(result.delivered_gbps, 1)


def delivered_with_token(circulating: bool, fidelity: Fidelity, seed: int) -> float:
    """Delivered Gb/s of d-HetPNoC on skewed 3, its token ring frozen
    after the warm start unless *circulating*."""
    run = wire_run("dhetpnoc", BW_SET_1, "skewed3", fidelity, seed)
    if not circulating:
        run.arch.token_ring.stop()
    attach_traffic(run, LOAD_GBPS, fidelity)
    run.simulate(fidelity.total_cycles, fidelity.reset_cycles)
    return round(run.arch.metrics.delivered_gbps(run.config.clock_hz), 1)


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
        label: delivered_with_token(circulating, fidelity, seed)
        for label, circulating in (("circulating", True), ("frozen", False))
    }
    print(ascii_table(
        ["token ring", "delivered Gb/s"], list(token.items()),
        title="Ablation: token circulation overhead (steady demand)",
    ))

    # Each verdict is computed, not asserted: tests/test_examples.py
    # reads the wording.
    cap = "beats" if by_cap[8] > by_cap[4] else "does not beat"
    drift = abs(token["circulating"] - token["frozen"]) / token["frozen"]
    ring = "is" if drift <= 0.02 else "is not"
    print(f"\nTake-away: the table 3-3 cap of 8 wavelengths {cap} the "
          f"Firefly-equivalent cap of 4 ({by_cap[8]} vs {by_cap[4]} Gb/s); "
          f"the token ring {ring} off the data path (running it moves "
          f"delivered bandwidth by {drift:.1%}).")


if __name__ == "__main__":
    main()
