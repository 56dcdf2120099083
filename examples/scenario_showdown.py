#!/usr/bin/env python3
"""d-HetPNoC vs Firefly under a drifting hotspot — the adaptive story.

Stationary sweeps can flatter a static design: Firefly's uniform
wavelength split is tuned once and the workload never moves. This study
replays the ``hotspot_drift`` scenario — a 10% hotspot that migrates to
a different cluster every quarter of the run while the heterogeneous
placement stays fixed — through both architectures and reports
*per-phase* delivered bandwidth and latency. d-HetPNoC's DBA re-chases
the hotspot at every token round; Firefly cannot.

Run:  python examples/scenario_showdown.py \\
          [--fidelity quick|paper|tiny] [--seed 1] [--load-fraction 0.6]
"""

from __future__ import annotations

import argparse

from repro.api import Session
from repro.experiments.cli.options import offered_load
from repro.experiments.report import ascii_table, percent_change, phase_table
from repro.experiments.runner import PAPER_FIDELITY, QUICK_FIDELITY, Fidelity
from repro.scenarios.library import build_scenario
from repro.traffic.bandwidth_sets import BW_SET_1

SCENARIO = "hotspot_drift"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fidelity", choices=("quick", "paper", "tiny"),
                        default="quick")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--load-fraction", type=offered_load, default=0.6)
    args = parser.parse_args()
    fidelity = {
        "paper": PAPER_FIDELITY,
        "quick": QUICK_FIDELITY,
        "tiny": Fidelity("tiny", 700, 100, (0.3, 0.8)),
    }[args.fidelity]
    offered = args.load_fraction * BW_SET_1.aggregate_gbps

    session = Session()
    results = {}
    for arch in ("firefly", "dhetpnoc"):
        results[arch] = session.run_one(
            arch, BW_SET_1, "skewed2", offered,
            fidelity=fidelity, seed=args.seed, scenario=SCENARIO,
        )
        print(phase_table(
            results[arch].phases,
            title=f"{SCENARIO} on {arch} "
                  f"({offered:.0f} Gb/s offered, {fidelity.name} fidelity)",
        ))
        print()

    ff, dh = results["firefly"], results["dhetpnoc"]
    schedule = build_scenario(SCENARIO, fidelity.total_cycles)
    rows = []
    for phase, ff_phase, dh_phase in zip(schedule.phases, ff.phases, dh.phases):
        rows.append([
            ff_phase.index,
            f"core {phase.hotspot_core} (cluster {phase.hotspot_core // 4})",
            round(ff_phase.delivered_gbps, 1),
            round(dh_phase.delivered_gbps, 1),
            f"{percent_change(dh_phase.delivered_gbps, ff_phase.delivered_gbps):+.1f}%"
            if ff_phase.delivered_gbps > 0 else "n/a",
        ])
    print(ascii_table(
        ["phase", "hotspot", "Firefly Gb/s", "d-HetPNoC Gb/s", "gain"],
        rows,
        title="Per-phase delivered bandwidth, drifting hotspot",
    ))

    gain = percent_change(dh.delivered_gbps, ff.delivered_gbps)
    print(f"\nTake-away: with the hotspot drifting across "
          f"{len(dh.phases)} clusters, d-HetPNoC delivers "
          f"{dh.delivered_gbps:.1f} Gb/s overall vs Firefly's "
          f"{ff.delivered_gbps:.1f} Gb/s ({gain:+.1f}%) — dynamic "
          f"bandwidth allocation re-chases demand each phase, while the "
          f"static split is stuck with its uniform provisioning.")


if __name__ == "__main__":
    main()
