#!/usr/bin/env python3
"""Closed-loop load shedding — phases that react to observed state.

Every scenario so far played a *fixed* script: phase boundaries and
faults at pre-scripted cycles. The feedback rules added by the
second-generation scenario engine close the loop: a rule watches a
metric over a rolling window of the *observed* run (windowed mean
latency here) and acts when it crosses threshold — shedding offered
load, restoring it, or advancing the schedule early. Triggering is
evaluated on fixed cycle boundaries from deterministic simulator
counters, so the firing cycles reproduce exactly per seed.

This study runs the built-in ``closed_loop_shedding`` scenario (a calm
phase, then a 1.7x overload whose controller sheds at high latency and
restores once the network drains) against the same schedule with the
rules stripped, on d-HetPNoC. Past saturation extra offered load buys
no delivery — it only burns reservation NACKs, retries and refused
injections. The controller detects that regime from observed latency
and sheds the waste: delivered bandwidth holds while offered packets
and the energy per delivered message drop — the feedback-driven
load-shedding regime the ROADMAP's closed-loop item asks for.

Run:  python examples/closed_loop_shedding.py \\
          [--fidelity quick|paper|tiny] [--seed 1] [--load-fraction 0.6]
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.api import Session
from repro.experiments.cli.options import offered_load
from repro.experiments.report import ascii_table, percent_change, phase_table
from repro.experiments.runner import PAPER_FIDELITY, QUICK_FIDELITY, Fidelity
from repro.scenarios.library import build_scenario, register_schedule
from repro.traffic.bandwidth_sets import BW_SET_1

SCENARIO = "closed_loop_shedding"


def open_loop_variant(fidelity) -> str:
    """Register the same schedule with the feedback rules stripped."""
    closed = build_scenario(SCENARIO, fidelity.total_cycles)
    schedule = dataclasses.replace(
        closed,
        name="open_loop_overload",
        phases=tuple(
            dataclasses.replace(p, rules=()) for p in closed.phases
        ),
        description="the closed-loop schedule with its controller removed",
    )
    register_schedule(schedule, override=True)
    return schedule.name


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
        # Long enough for overload latency to cross the controller's
        # threshold (the loop needs observations before it can close).
        "tiny": Fidelity("tiny", 1200, 150, (0.3, 0.8)),
    }[args.fidelity]
    offered = args.load_fraction * BW_SET_1.aggregate_gbps

    session = Session()
    results = {}
    for name in (open_loop_variant(fidelity), SCENARIO):
        results[name] = session.run_one(
            "dhetpnoc", BW_SET_1, "skewed3", offered,
            fidelity=fidelity, seed=args.seed, scenario=name,
        )
        print(phase_table(
            results[name].phases,
            title=f"{name} on dhetpnoc "
                  f"({offered:.0f} Gb/s base, {fidelity.name} fidelity)",
        ))
        print()

    open_run = results["open_loop_overload"]
    closed_run = results[SCENARIO]
    rows = []
    for open_phase, closed_phase in zip(open_run.phases, closed_run.phases):
        rows.append([
            "overload" if open_phase.index else "calm",
            open_phase.packets_offered,
            closed_phase.packets_offered,
            round(open_phase.delivered_gbps, 1),
            round(closed_phase.delivered_gbps, 1),
            round(open_phase.energy_per_message_pj, 0),
            round(closed_phase.energy_per_message_pj, 0),
            closed_phase.rules_fired,
        ])
    print(ascii_table(
        ["phase", "offered (open)", "offered (closed)",
         "Gb/s (open)", "Gb/s (closed)", "EPM (open)", "EPM (closed)",
         "rules fired"],
        rows,
        title="Per-phase offered load, delivery and EPM, "
              "controller off vs on",
    ))

    open_phase = open_run.phases[-1]
    closed_phase = closed_run.phases[-1]
    fired = sum(p.rules_fired for p in closed_run.phases)
    offered_cut = percent_change(
        closed_phase.packets_offered, open_phase.packets_offered
    )
    epm_cut = percent_change(
        closed_phase.energy_per_message_pj, open_phase.energy_per_message_pj
    )
    gbps_change = percent_change(
        closed_phase.delivered_gbps, open_phase.delivered_gbps
    )
    print(f"\nTake-away: the controller fired {fired} time(s) on observed "
          f"latency, cutting offered packets by {offered_cut:+.1f}% while "
          f"delivered bandwidth changed only {gbps_change:+.1f}% — the "
          f"shed load was pure saturation waste — and energy per "
          f"delivered message dropped {epm_cut:+.1f}% "
          f"({open_phase.energy_per_message_pj:.0f} -> "
          f"{closed_phase.energy_per_message_pj:.0f} pJ). A closed loop "
          f"over observed state, with trigger cycles that reproduce "
          f"exactly for seed {args.seed}.")


if __name__ == "__main__":
    main()
