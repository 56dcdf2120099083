#!/usr/bin/env python3
"""Hot-path timing harness behind the CI bench-regression lane.

Times a small, fixed set of hot paths (single run, scenario replay,
closed-loop feedback, sweep cache hits, schedule fingerprinting, JSONL
store round-trip) at quick fidelity and writes one ``BENCH_<run>.json``
record per invocation. Scores are **normalized**: every timing is
divided by the runtime of a fixed pure-Python calibration workload
measured on the same machine, so a committed baseline transfers across
hardware generations far better than absolute seconds would.

CI usage (see ``.github/workflows/ci.yml``, job *bench*)::

    PYTHONPATH=src python tools/bench_log.py \\
        --out BENCH_${GITHUB_RUN_ID}.json \\
        --baseline benchmarks/baseline.json --max-regression 0.25

The run fails (exit 1) when any bench's normalized score regresses more
than ``--max-regression`` against the committed baseline; the JSON
record is uploaded as an artifact either way, so successive runs
accumulate a timing trajectory. Refresh the baseline deliberately
with::

    PYTHONPATH=src python tools/bench_log.py --write-baseline

Timings are best-of-``--repeats`` (min over repeats rejects scheduler
noise); the simulated benches are deterministic, so best-of is stable.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

#: Schema of the emitted JSON record.
SCHEMA_VERSION = 1

#: Fixed simulation schedule for the timed runs: long enough that the
#: per-cycle hot path dominates, short enough for a CI lane.
BENCH_TOTAL_CYCLES = 700
BENCH_RESET_CYCLES = 100
BENCH_SEED = 1


def _git_sha() -> str:
    """Current commit, or "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def calibration_workload() -> None:
    """Fixed pure-Python work the scores are normalized by.

    A mix of hashing and arithmetic/object churn, roughly matching what
    the simulator hot path stresses (bytes, ints, dict/list traffic).
    """
    digest = b"repro-bench-calibration"
    for _ in range(600):
        digest = hashlib.sha256(digest * 32).digest()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(120_000):
        acc += (i * 2654435761) % 1013
        if i % 17 == 0:
            table[i & 1023] = acc
    assert acc > 0 and table


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_fidelity():
    from repro.experiments.runner import Fidelity

    return Fidelity(
        "bench-log", BENCH_TOTAL_CYCLES, BENCH_RESET_CYCLES, (0.4, 0.9)
    )


def build_benches() -> List[Tuple[str, Callable[[], None]]]:
    """The timed hot paths, in execution order."""
    from repro.api.session import Session
    from repro.experiments.store import ResultStore
    from repro.experiments.sweep import SweepExecutor, SweepSpec
    from repro.scenarios.library import build_scenario
    from repro.traffic.bandwidth_sets import BW_SET_1

    fidelity = _bench_fidelity()
    run_one = Session().run_one

    def run_steady() -> None:
        run_one("dhetpnoc", BW_SET_1, "skewed3", 400.0, fidelity=fidelity,
                seed=BENCH_SEED)

    def run_low_load() -> None:
        # Near-idle run: most gateways are quiet most cycles, so this
        # bench tracks the engine's idle-skip machinery (activity-gated
        # gateway ticks, span jumps) rather than raw pipeline cost. No
        # mesh runs here: the photonic path has no link queues.
        run_one("dhetpnoc", BW_SET_1, "uniform", 20.0, fidelity=fidelity,
                seed=BENCH_SEED)

    def run_electrical() -> None:
        # The electrical mesh at saturation: router/link/network code
        # only, which no photonic bench touches.
        run_one("electrical", BW_SET_1, "skewed3", 600.0, fidelity=fidelity,
                seed=BENCH_SEED)

    def scenario_fault_storm() -> None:
        run_one("dhetpnoc", BW_SET_1, "skewed3", 400.0, fidelity=fidelity,
                seed=BENCH_SEED, scenario="fault_storm")

    def closed_loop_shedding() -> None:
        run_one("dhetpnoc", BW_SET_1, "skewed3", 480.0, fidelity=fidelity,
                seed=BENCH_SEED, scenario="closed_loop_shedding")

    spec = SweepSpec(
        archs=("firefly", "dhetpnoc"),
        bw_set_indices=(1,),
        patterns=("skewed3",),
        seeds=(1,),
        fidelity=fidelity,
        scenarios=(None, "steady"),
    )
    warmed = SweepExecutor(store=ResultStore())
    warmed.run(spec)

    def sweep_cache_hits() -> None:
        # Orchestration-only hot path: key hashing + store lookups for
        # a fully warmed grid (40 passes, zero simulations).
        for _ in range(40):
            warmed.run(spec)
        assert warmed.executed_count == 0

    def schedule_fingerprint() -> None:
        for _ in range(200):
            build_scenario("storm_over_diurnal", 10_000).fingerprint()

    results = run_one(
        "dhetpnoc", BW_SET_1, "skewed3", 400.0, fidelity=fidelity,
        seed=BENCH_SEED, scenario="fault_storm",
    )

    def store_jsonl_roundtrip() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.jsonl")
            store = ResultStore(path)
            for i in range(200):
                store.put(f"{i:064d}", results)
            store.flush()
            reread = ResultStore(path)
            assert len(reread) == 200

    # Distributed-dispatch overhead: a localhost coordinator whose
    # store already holds every point of the warmed spec, driven over
    # one persistent FabricExecutor connection. Every pass is pure
    # protocol — submit, coordinator-store hits, streamed results —
    # with zero simulations, so the bench isolates what the fabric
    # *adds* on top of a local cache-hit sweep.
    from repro.fabric.coordinator import Coordinator

    coordinator = Coordinator(store=warmed.store)
    coordinator.start()
    from repro.experiments.sweep import FabricExecutor

    fabric_store = ResultStore()
    fabric = FabricExecutor(coordinator.address, store=fabric_store)

    def fabric_dispatch() -> None:
        for _ in range(10):
            fabric_store.clear()  # force every point over the wire
            fabric.run(spec)
        assert fabric.executed_count == 0

    # Service round-trip: submit a spec, collect the streamed results,
    # over one persistent client connection. The daemon's store already
    # holds every point of the warmed spec (and after the first pass
    # the job record itself replays via content-hash dedup), so every
    # pass is pure job_* protocol — submit, accept, stream, end — with
    # zero simulations: the bench isolates submit-to-streamed-results
    # latency, what `repro jobs submit` adds over a local cache hit.
    from repro.api.spec import ExperimentSpec
    from repro.service.client import ServiceClient
    from repro.service.daemon import ExperimentService

    service = ExperimentService(warmed.store)
    service.start()
    service_spec = ExperimentSpec(
        archs=("firefly", "dhetpnoc"),
        bw_sets=(1,),
        patterns=("skewed3",),
        seeds=(1,),
        fidelity=fidelity,
        scenarios=(None, "steady"),
    )
    service_client = ServiceClient(service.address)

    def service_submit() -> None:
        for _ in range(10):
            run = service_client.run_spec(service_spec)
            assert run.executed == 0 and len(run.results) == 8

    return [
        ("run_steady", run_steady),
        ("run_low_load", run_low_load),
        ("run_electrical", run_electrical),
        ("scenario_fault_storm", scenario_fault_storm),
        ("closed_loop_shedding", closed_loop_shedding),
        ("sweep_cache_hits", sweep_cache_hits),
        ("schedule_fingerprint", schedule_fingerprint),
        ("store_jsonl_roundtrip", store_jsonl_roundtrip),
        ("fabric_dispatch", fabric_dispatch),
        ("service_submit", service_submit),
    ]


def measure(repeats: int) -> dict:
    """Run every bench; return the full JSON-able record."""
    calibration = min(
        _best_of(calibration_workload, repeats),
        _best_of(calibration_workload, repeats),
    )
    benches: Dict[str, dict] = {}
    for name, fn in build_benches():
        fn()  # warm caches/pools outside the timed region
        seconds = _best_of(fn, repeats)
        benches[name] = {
            "seconds": round(seconds, 6),
            "normalized": round(seconds / calibration, 4),
        }
        print(f"{name}: {seconds * 1e3:.1f} ms "
              f"({benches[name]['normalized']:.2f}x calibration)")
    return {
        "schema": SCHEMA_VERSION,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "total_cycles": BENCH_TOTAL_CYCLES,
        "repeats": repeats,
        "calibration_s": round(calibration, 6),
        "benches": benches,
    }


def compare(
    record: dict, baseline: dict, max_regression: float, min_seconds: float
) -> int:
    """Check *record* against *baseline*; returns the exit code.

    A bench regresses when its normalized score exceeds the baseline's
    by more than ``max_regression`` (relative). Benches faster than
    ``min_seconds`` are reported but never fail the lane — at that
    scale the 'regression' is timer jitter, not a hot-path change. A
    baseline bench missing from the run fails (a silently dropped bench
    would freeze its budget forever); a new bench not yet in the
    baseline only warns.
    """
    base_benches = baseline.get("benches", baseline)
    failures = []
    for name, base in sorted(base_benches.items()):
        base_score = base["normalized"] if isinstance(base, dict) else base
        current = record["benches"].get(name)
        if current is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        ratio = current["normalized"] / base_score - 1.0
        status = "ok"
        if ratio > max_regression:
            if current["seconds"] < min_seconds:
                status = "jitter (ignored)"
            else:
                status = "REGRESSION"
                failures.append(
                    f"{name}: normalized {current['normalized']:.2f} vs "
                    f"baseline {base_score:.2f} ({ratio:+.0%})"
                )
        print(f"compare {name}: {ratio:+.1%} vs baseline [{status}]")
    for name in sorted(set(record["benches"]) - set(base_benches)):
        print(f"compare {name}: new bench, not in baseline yet")
    if failures:
        print(f"\nFAIL: {len(failures)} bench(es) regressed more than "
              f"{max_regression:.0%}:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"\nOK: no bench regressed more than {max_regression:.0%}")
    return 0


def main(argv=None) -> int:
    """CLI entry: measure, persist, optionally gate against a baseline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full JSON record here "
                        "(default: BENCH_<utc-timestamp>.json)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare against this baseline and exit 1 on "
                        "regression")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="relative normalized-score slack before the "
                        "lane fails (default: 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.005,
                        help="benches faster than this never fail the lane "
                        "(timer jitter floor, default: 5 ms)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per bench (default: 3)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh benchmarks/baseline.json from this "
                        "run's scores")
    args = parser.parse_args(argv)

    record = measure(max(1, args.repeats))

    out = args.out
    if out is None:
        stamp = record["created_utc"].replace(":", "").replace("-", "")
        out = f"BENCH_{stamp}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {out}")

    if args.write_baseline:
        baseline_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir,
            "benchmarks", "baseline.json",
        )
        baseline_path = os.path.normpath(baseline_path)
        payload = {
            "schema": SCHEMA_VERSION,
            "source_git_sha": record["git_sha"],
            "benches": {
                name: {"normalized": data["normalized"],
                       "seconds": data["seconds"]}
                for name, data in record["benches"].items()
            },
        }
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"refreshed {baseline_path}")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        return compare(record, baseline, args.max_regression,
                       args.min_seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
