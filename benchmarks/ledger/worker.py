"""One workload in one fresh process: set-up, warm-up, timed passes.

The parent (``cli.py``) starts this module's :func:`main` in a new
interpreter per workload, so set-up time and peak memory are the
workload's own. Everything measured goes back as one JSON line on
standard output; nothing is summarised here, so the parent can pool
samples from several processes and keep the raw values.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import List, Optional

from benchmarks.ledger.calibrate import (
    UNITS_PER_SAMPLE,
    Calibration,
    cpu_seconds,
    pin_to_one_cpu,
)
from benchmarks.ledger.trace import Tracer
from benchmarks.ledger.workloads import (
    WORKLOADS,
    all_finite,
    digest_results,
    scratch_root,
)


#: Timed passes after which peak memory is read. Every process runs at
#: least this many; how many more depends on the machine's speed, and
#: memory grows with each (cyclic garbage awaiting a full collection:
#: +6 MiB per simulator op until one runs), so reading it at exit would
#: make the metric follow the pass count.
RSS_AFTER_PASSES = 2


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(
    name: str,
    seed: int,
    seconds: float,
    min_passes: int,
    smoke: bool,
    spawned_at: float,
    traced: bool,
    trace_path: Optional[str],
) -> dict:
    """Set up *name*, warm it up and time passes for *seconds*.

    ``spawned_at`` is the parent's ``time.time()`` just before it
    started this interpreter: set-up covers interpreter start, imports,
    construction, seeding and the warm-up pass. Calibration units run
    inside the set-up and inside every pass (``calibrate.py``); their
    time is taken out of what is reported. With *traced* the
    passes alternate untraced/traced (the pair gives the tracing
    overhead) and the spans are written to *trace_path*.
    """
    pinned = pin_to_one_cpu()
    cal = Calibration()
    with cal.running():
        workload = WORKLOADS[name](seed, smoke, scratch_root())
    try:
        with cal.running():
            workload.warm_up()
        setup_units, setup_cal_s, _cpu = cal.take()
        # Net of the calibration units that ran inside the set-up.
        setup_raw_s = time.time() - spawned_at - setup_cal_s
        # The first timed pass is the reference: the simulator is
        # deterministic, so every later pass must reproduce it.
        first = None
        digest = None
        errors: List[str] = []
        tracer = Tracer() if traced else None
        passes = []
        loop_start = time.perf_counter()
        after = cal.sample()
        while True:
            before = after
            use_tracer = tracer if traced and len(passes) % 2 else None
            if use_tracer is not None:
                use_tracer.op = len(passes)
            failed = None
            with cal.running():
                cpu0 = cpu_seconds()
                wall0 = time.perf_counter()
                try:
                    results = workload.op(use_tracer)
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    results = None
                    failed = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - wall0
                cpu = cpu_seconds() - cpu0
            inside = cal.take()
            after = cal.sample()
            if failed is None and first is None:
                first, digest = results, digest_results(results)
                if not all_finite(first):
                    failed = "non-finite value in a result"
            elif failed is None and results != first:
                failed = "results differ from pass 1 of this process"
            if failed is not None:
                errors.append(f"pass {len(passes) + 1}: {failed}")
            # The pass against every unit run beside and inside it; the
            # units inside are not the op's own time.
            units, cal_wall, cal_cpu = map(sum, zip(before, inside, after))
            passes.append({
                "wall_s": wall - inside[1],
                "cpu_s": cpu - inside[2],
                "cal_wall_s": cal_wall / units * UNITS_PER_SAMPLE,
                "cal_cpu_s": cal_cpu / units * UNITS_PER_SAMPLE,
                "cal_units": units,
                "traced": use_tracer is not None,
                "failed": failed is not None,
            })
            if len(passes) == RSS_AFTER_PASSES:
                peak_rss_mb = _peak_rss_mb()
            enough = len(passes) >= max(min_passes, RSS_AFTER_PASSES) and (
                not traced or len(passes) % 2 == 0
            )
            if enough and time.perf_counter() - loop_start >= seconds:
                break
    finally:
        workload.close()
    if tracer is not None and trace_path:
        tracer.dump(trace_path)
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "pinned": pinned,
        "setup_raw_s": setup_raw_s,
        # Seconds per calibration sample while the set-up ran (None
        # where no unit could run inside it).
        "setup_cal_wall_s": (
            setup_cal_s / setup_units * UNITS_PER_SAMPLE
            if setup_units else None
        ),
        "passes": passes,
        "errors": errors,
        "sim_digest": digest,
        "cycles_per_op": workload.cycles_per_op,
        "points_per_op": workload.points_per_op,
        "peak_rss_mb": peak_rss_mb,
        "trace": (
            {
                "self_s": tracer.self_seconds(),
                "counters": tracer.counters,
            }
            if tracer is not None
            else None
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-path", default=None)
    args = parser.parse_args(argv)
    report = run(
        args.workload, args.seed, args.seconds, args.min_passes, args.smoke,
        args.spawned_at if args.spawned_at is not None else time.time(),
        args.traced, args.trace_path,
    )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0
