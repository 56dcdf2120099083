#!/usr/bin/env python3
"""Append the golden saturation peaks to a JSONL drift log.

The nightly CI slow lane calls this after the paper-fidelity test run:
it simulates the golden (firefly, dhetpnoc) x skewed3 pair on bandwidth
set 1 — the same configuration ``tests/experiments/test_golden_peaks.py``
pins — and appends one JSON line per architecture with the measured
peak, so the artifact series tracks how the goldens drift over time
(deliberate physics changes show up as steps, creep shows up as slope).

Usage::

    PYTHONPATH=src python tools/drift_log.py --fidelity paper \\
        --out drift/golden-peaks.jsonl

The log is append-only JSONL, so ``cat``-ing artifacts from successive
nights yields the full series.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys

from repro.experiments.runner import PAPER_FIDELITY, QUICK_FIDELITY
from repro.traffic.bandwidth_sets import BW_SET_1

#: The pinned golden configuration (see tests/experiments/test_golden_peaks.py).
GOLDEN_PATTERN = "skewed3"
GOLDEN_SEED = 1


def _git_sha() -> str:
    """Current commit, or "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def collect(fidelity, seed: int = GOLDEN_SEED, workers: int = 1) -> list:
    """Measure the golden peaks; one record dict per architecture.

    Also runs the adaptive knee localisation so the drift log captures
    both the fixed-grid peak and the knee estimate.
    """
    from repro.api import ExperimentSpec, Session

    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    sha = _git_sha()
    records = []
    # One session: the adaptive probes that land on grid fractions
    # reuse the peak sweep's points.
    session = Session(workers=workers)
    spec = ExperimentSpec(
        bw_sets=(BW_SET_1.index,), patterns=(GOLDEN_PATTERN,),
        seeds=(seed,), fidelity=fidelity, derive_seeds=False,
    )
    peaks = session.peaks(spec)
    for arch in ("firefly", "dhetpnoc"):
        peak = peaks[(arch, BW_SET_1.index, GOLDEN_PATTERN, None, seed)]
        knee = session.knee(
            arch, BW_SET_1.index, GOLDEN_PATTERN, fidelity, seed,
            resolution=0.1,
        )
        records.append({
            "timestamp": stamp,
            "git_sha": sha,
            "fidelity": fidelity.name,
            "arch": arch,
            "pattern": GOLDEN_PATTERN,
            "bw_set": BW_SET_1.index,
            "seed": seed,
            "peak_delivered_gbps": peak.delivered_gbps,
            "peak_offered_gbps": peak.offered_gbps,
            "energy_per_message_pj": peak.energy_per_message_pj,
            "knee_gbps": knee.knee_gbps,
            "analytic_knee_gbps": knee.analytic_knee_gbps,
        })
    return records


def main(argv=None) -> int:
    """CLI entry: measure and append records; echo them to stdout."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fidelity", choices=["quick", "paper"],
                        default="paper")
    parser.add_argument("--out", default="drift/golden-peaks.jsonl",
                        metavar="PATH")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    fidelity = PAPER_FIDELITY if args.fidelity == "paper" else QUICK_FIDELITY
    records = collect(fidelity, seed=args.seed, workers=args.workers)

    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        for record in records:
            line = json.dumps(record, sort_keys=True)
            fh.write(line + "\n")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
