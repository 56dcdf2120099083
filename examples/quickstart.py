#!/usr/bin/env python3
"""Quickstart: run d-HetPNoC against the Firefly baseline on one workload.

This is the 5-minute tour of the public API:

1. pick a bandwidth set (table 3-1) and a traffic pattern (table 3-2);
2. wire each architecture on its own simulator (``wire_run``);
3. drive identical offered load through both (``attach_traffic``) on
   the table 3-3 schedule (``PAPER_FIDELITY``);
4. compare delivered bandwidth, latency and energy per message.

Run:  python examples/quickstart.py [--pattern skewed3] [--load-gbps 500]
"""

from __future__ import annotations

import argparse

from repro import BW_SET_1
from repro.experiments.report import ascii_table, percent_change
from repro.experiments.runner import PAPER_FIDELITY, attach_traffic, wire_run

#: Display name -> architecture registry name.
ARCHS = {"Firefly": "firefly", "d-HetPNoC": "dhetpnoc"}


def run_architecture(arch_name: str, pattern_name: str, offered_gbps: float, seed: int):
    """Simulate one architecture; returns (metrics row, arch object)."""
    # wire_run binds the pattern (placing application classes onto
    # clusters: the heterogeneity d-HetPNoC exploits) and builds the
    # architecture from it on its own simulator.
    run = wire_run(ARCHS[arch_name], BW_SET_1, pattern_name, PAPER_FIDELITY, seed)
    attach_traffic(run, offered_gbps, PAPER_FIDELITY)

    # Table 3-3 schedule: 10 000 cycles, first 1 000 discarded as warm-up.
    run.simulate(PAPER_FIDELITY.total_cycles, PAPER_FIDELITY.reset_cycles)

    noc, config, generator = run.arch, run.config, run.source
    m = noc.metrics
    row = [
        arch_name,
        round(m.delivered_gbps(config.clock_hz), 1),
        round(m.per_core_gbps(config.clock_hz, config.n_cores), 2),
        round(m.latency.mean, 1),
        round(noc.energy_per_message_pj, 0),
        round(generator.acceptance_ratio, 3),
        round(noc.laser_power_mw(), 1),
    ]
    return row, noc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pattern", default="skewed3",
                        help="uniform | skewed1..3 | skewed_hotspot1..4 | real_app")
    parser.add_argument("--load-gbps", type=float, default=500.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"Workload: {args.pattern}, offered {args.load_gbps:g} Gb/s aggregate, "
          f"{BW_SET_1}")
    print()

    rows = []
    archs = {}
    for arch_name in ("Firefly", "d-HetPNoC"):
        row, noc = run_architecture(arch_name, args.pattern, args.load_gbps, args.seed)
        rows.append(row)
        archs[arch_name] = noc

    print(ascii_table(
        ["architecture", "delivered Gb/s", "Gb/s per core", "mean latency (cyc)",
         "EPM (pJ)", "acceptance", "laser mW"],
        rows,
        title="Firefly vs d-HetPNoC",
    ))

    ff, dh = rows[0], rows[1]
    print()
    print(f"d-HetPNoC bandwidth gain : {percent_change(dh[1], ff[1]):+.1f}%")
    print(f"d-HetPNoC EPM change     : {percent_change(dh[4], ff[4]):+.1f}%")

    dhet = archs["d-HetPNoC"]
    print()
    print("d-HetPNoC wavelength allocation after DBA "
          "(cluster -> held wavelengths):")
    snapshot = dhet.allocation_snapshot()
    print("  " + ", ".join(f"{c}:{n}" for c, n in sorted(snapshot.items())))
    print(f"token rounds completed: {dhet.token_ring.rounds_completed}, "
          f"hop latency {dhet.token_ring.hop_latency_cycles} cycles")


if __name__ == "__main__":
    main()
