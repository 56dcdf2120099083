"""The perf ledger's command line: run, trace, check, compare.

``python -m benchmarks.ledger`` (or ``python3 benchmarks/ledger/run.py``)
measures every workload and prints every metric by name with its unit;
``--trace`` adds the per-layer run, ``--check`` runs two sets and
requires them to agree, ``compare A.json B.json`` sets two records side
by side. With ``--workload`` it is the single-workload form the
benchmark driver calls (``BENCHMARK.json``), whose last output line is
one JSON object.

Each measured run of a workload is ``PROCESSES_PER_RUN`` fresh, pinned
interpreters run one after another, each setting the workload up and
timing passes for its share of ``--seconds``. Several set-ups give
``setup_s`` a median; and each process draws its own sub-seed from
``--seed``, so one run covers several generated inputs — a simulated
op handles only a few hundred packets, and its time moves by several
percent with the seed alone.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from benchmarks.ledger import catalog
from benchmarks.ledger.calibrate import (
    CAL_REF_S,
    MAX_CAL_SPREAD,
    spread,
    summarise,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")
RESULTS_DIR = os.path.join(ROOT, "results", "ledger")

#: Fresh processes (hence set-ups, and sub-seeds) per measured run.
PROCESSES_PER_RUN = 4

#: Process *p* of a run seeded *S* uses seed ``S + p * SUBSEED_STRIDE``.
SUBSEED_STRIDE = 7919

#: Timed seconds per workload when no ``--seconds`` is given (the
#: driver passes its own; the stand-alone ledger measures longer).
DEFAULT_SECONDS = 16.0

#: Fewest timed passes per run, where the op's tail needs the sample
#: (service jobs are right-skewed by thread hand-offs).
MIN_PASSES = {"service_job": 100}

RECORD_SCHEMA = 1


class LedgerError(RuntimeError):
    """The harness could not produce a trustworthy measurement."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child(argv: Sequence[str]) -> dict:
    """Run one harness child and parse the JSON line it prints last."""
    # A fixed hash seed: str-keyed dict and set layouts, hence speed,
    # otherwise differ from one interpreter to the next.
    proc = subprocess.run(
        [sys.executable, RUN_PY, *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if proc.returncode != 0:
        raise LedgerError(
            f"child {' '.join(argv[:3])} exited {proc.returncode}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise LedgerError(f"child {' '.join(argv[:3])} printed nothing")
    return json.loads(lines[-1])


def _worker(
    name: str, seed: int, seconds: float, min_passes: int, smoke: bool,
    traced: bool = False,
) -> dict:
    argv = [
        "_worker", "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--min-passes", str(min_passes),
        "--spawned-at", repr(time.time()),
    ]
    if smoke:
        argv.append("--smoke")
    if traced:
        argv += [
            "--traced", "--trace-path",
            os.path.join(RESULTS_DIR, f"trace_{name}.json"),
        ]
    return _child(argv)


# ---------------------------------------------------------------------------
# One run of one workload -> its end-to-end metrics
# ---------------------------------------------------------------------------

def measure_run(
    name: str, seed: int, seconds: float, smoke: bool,
    min_total_passes: int = 0,
) -> dict:
    """One measured run: fresh workers one after another, one sub-seed each.

    Returns the run's end-to-end values plus the raw material (pass
    samples, calibration, digests) the record keeps beside them.
    """
    processes = PROCESSES_PER_RUN
    if smoke:
        processes, seconds, min_total_passes = 1, 0.0, 0
    min_passes = -(-min_total_passes // processes)
    reports = [
        _worker(
            name, seed + p * SUBSEED_STRIDE, seconds / processes,
            min_passes, smoke,
        )
        for p in range(processes)
    ]
    passes = [p for r in reports for p in r["passes"]]
    errors = [e for r in reports for e in r["errors"]]
    if any(all(p["failed"] for p in r["passes"]) for r in reports):
        raise LedgerError(f"{name}: a process had no good pass: {errors}")
    cal = [p["cal_wall_s"] for p in passes]

    def per_process(num: str, den: str) -> List[List[float]]:
        return [
            [p[num] / p[den] * CAL_REF_S for p in r["passes"] if not p["failed"]]
            for r in reports
        ]

    # Each process ran another sub-seed, so its passes are one input's
    # repeats: summarise them by their median, then average the inputs.
    op_cal = per_process("wall_s", "cal_wall_s")
    cpu_cal = per_process("cpu_s", "cal_cpu_s")
    # Set-up is measured against the units that ran inside it, or,
    # where none could, against the process's median pass calibration.
    setup_cal = [
        r["setup_raw_s"]
        / (
            r["setup_cal_wall_s"]
            or statistics.median(p["cal_wall_s"] for p in r["passes"])
        )
        * CAL_REF_S
        for r in reports
    ]
    op_s = statistics.fmean(statistics.median(v) for v in op_cal)
    good = [p for p in passes if not p["failed"]]
    values = {
        "op_s": op_s,
        "op_cpu_s": statistics.fmean(statistics.median(v) for v in cpu_cal),
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "failed_ratio": (len(passes) - len(good)) / len(passes),
    }
    cycles, points = reports[0]["cycles_per_op"], reports[0]["points_per_op"]
    if cycles:
        values["sim_cycles_per_s"] = cycles / op_s
    if points:
        values["points_per_s"] = points / op_s
    return {
        "values": values,
        "samples": {
            "op_s": _about(op_s, op_cal),
            "op_cpu_s": _about(values["op_cpu_s"], cpu_cal),
            "setup_s": setup_cal,
        },
        "raw": {
            "op_wall_s": summarise([p["wall_s"] for p in good]),
            "op_cpu_raw_s": summarise([p["cpu_s"] for p in good]),
            "setup_raw_s": summarise([r["setup_raw_s"] for r in reports]),
            "cal_wall_s": summarise(cal),
        },
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "errors": errors,
        "sim_digest": hashlib.sha256(
            "".join(str(r["sim_digest"]) for r in reports).encode()
        ).hexdigest(),
        "process_digests": [r["sim_digest"] for r in reports],
        "cycles_per_op": cycles,
        "points_per_op": points,
        "pinned": all(r["pinned"] for r in reports),
        "cal_spread": spread(cal),
    }


def _about(value: float, per_process: List[List[float]]) -> List[float]:
    """Pass samples re-centred on the run's value: each pass relative
    to its own process's median, so the quartiles of a single run show
    repeat noise only, not the spread between the run's inputs."""
    return [
        value * v / statistics.median(chunk)
        for chunk in per_process for v in chunk
    ]


def summarise_workload(name: str, runs: List[dict]) -> dict:
    """Fold a workload's runs into the record's per-metric rows.

    A metric's value is the median over runs. Its quartiles are over
    the runs' values when there are several runs — that is the
    run-to-run spread a comparison needs — and over the pooled
    per-pass samples of the single run otherwise.
    """
    metrics = {}
    for metric in runs[0]["values"]:
        per_run = [run["values"][metric] for run in runs]
        if len(runs) > 1:
            row = summarise(per_run)
            row["over"] = "runs"
        else:
            samples = runs[0]["samples"].get(metric) or per_run
            row = summarise(samples)
            row["over"] = "passes"
        row["value"] = statistics.median(per_run)
        row["unit"] = catalog.E2E[metric][0]
        row["runs"] = per_run
        metrics[metric] = row
    digests = sorted({run["sim_digest"] for run in runs})
    errors = [e for run in runs for e in run["errors"]]
    if len(digests) > 1:
        errors.append(f"sim_digest differs between runs: {digests}")
    return {
        "why": catalog.WORKLOADS[name],
        "metrics": metrics,
        "raw": [run["raw"] for run in runs],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "errors": errors,
        "sim_digest": digests[0],
        "process_digests": runs[0]["process_digests"],
        "cycles_per_op": runs[0]["cycles_per_op"],
        "points_per_op": runs[0]["points_per_op"],
        "pinned": all(run["pinned"] for run in runs),
        "cal_spread": max(run["cal_spread"] for run in runs),
    }


# ---------------------------------------------------------------------------
# The traced run -> per-layer metrics
# ---------------------------------------------------------------------------

def measure_trace(
    name: str, seed: int, seconds: float, smoke: bool, untraced_digest: Optional[str],
) -> dict:
    """Traced passes of one workload: spans on disk, overhead ratio."""
    report = _worker(name, seed, seconds, 2, smoke, traced=True)
    if report["errors"]:
        raise LedgerError(f"{name} traced run failed: {report['errors']}")
    if untraced_digest is not None and report["sim_digest"] != untraced_digest:
        raise LedgerError(
            f"{name}: sim_digest differs traced vs untraced "
            f"({report['sim_digest']} != {untraced_digest})"
        )
    def cal_median(traced: bool) -> float:
        return statistics.median(
            p["wall_s"] / p["cal_wall_s"]
            for p in report["passes"] if p["traced"] is traced
        )
    return {
        "attempted": len(report["passes"]),
        "overhead_ratio": cal_median(True) / cal_median(False),
        "cal_s": statistics.median(p["cal_wall_s"] for p in report["passes"]),
        "self_s": report["trace"]["self_s"],
        "counters": report["trace"]["counters"],
        "sim_digest": report["sim_digest"],
    }


def measure_layers(seed: int, smoke: bool, full: bool) -> Dict[str, float]:
    """The isolated layer drivers, in their own pinned process."""
    argv = ["_layers", "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    if full:
        argv.append("--full")
    return _child(argv)["metrics"]


def per_layer_metrics(
    layers: Dict[str, float], traces: Dict[str, dict]
) -> Dict[str, dict]:
    """Catalogue-ordered per-layer rows from the drivers and traces."""
    values = dict(layers)
    values["host.nproc"] = os.cpu_count() or 1
    values["host.cal_s"] = statistics.median(
        t["cal_s"] for t in traces.values()
    )
    values["host.trace_overhead_ratio"] = statistics.median(
        t["overhead_ratio"] for t in traces.values()
    )
    missing = [n for n, *_ in catalog.PER_LAYER if n not in values]
    if missing:
        raise LedgerError(f"per-layer metrics not measured: {missing}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _moves in catalog.PER_LAYER
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, row: dict) -> None:
    print(f"\n{name}  (n={row['attempted']}, failed={row['failed']}, "
          f"sim_digest={row['sim_digest'][:16]}, "
          f"{'pinned' if row['pinned'] else 'NOT pinned'})")
    for metric, m in row["metrics"].items():
        print(
            f"  {metric:<18} {_format(m['value']):>12} {m['unit']:<9} "
            f"q1 {_format(m['q1'])}  q3 {_format(m['q3'])}  "
            f"(n={m['n']} {m['over']})"
        )
    raw = row["raw"][0]
    print(
        f"  raw wall per op    {_format(raw['op_wall_s']['median']):>12} s"
        f"         min {_format(raw['op_wall_s']['min'])}  "
        f"max {_format(raw['op_wall_s']['max'])}  "
        f"(calibration loop {_format(raw['cal_wall_s']['median'])} s)"
    )
    for error in row["errors"]:
        print(f"  ERROR {error}")


def print_per_layer(rows: Dict[str, dict]) -> None:
    moves = {name: m for name, _u, _b, m in catalog.PER_LAYER}
    print("\nper-layer (traced run; '->' = the end-to-end metric it should move)")
    for name, row in rows.items():
        print(
            f"  {name:<46} {_format(row['value']):>12} {row['unit']:<6}"
            f" -> {moves[name]}"
        )


def build_record(
    seed: int, smoke: bool, workloads: Dict[str, dict],
    per_layer: Optional[Dict[str, dict]], traces: Optional[Dict[str, dict]],
) -> dict:
    record = {
        "schema": RECORD_SCHEMA,
        "kind": "perf-ledger-record",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "seed": seed,
        "smoke": smoke,
        "cal_ref_s": CAL_REF_S,
        "host_cal_s": statistics.median(
            run["cal_wall_s"]["median"]
            for row in workloads.values() for run in row["raw"]
        ),
        "workloads": workloads,
    }
    if per_layer is not None:
        record["per_layer"] = per_layer
        record["trace"] = {
            name: {
                "overhead_ratio": t["overhead_ratio"],
                "self_s": t["self_s"],
                "counters": t["counters"],
            }
            for name, t in (traces or {}).items()
        }
    return record


def run_ledger(args) -> dict:
    """Measure the selected workloads (and the trace); return a record."""
    names = args.workload or list(catalog.WORKLOADS)
    workloads = {}
    for name in names:
        runs = [
            measure_run(
                name, args.seed, args.seconds, args.smoke,
                MIN_PASSES.get(name, 0),
            )
            for _ in range(args.runs)
        ]
        workloads[name] = summarise_workload(name, runs)
        if not args.quiet:
            print_workload(name, workloads[name])
    per_layer = traces = None
    if args.trace:
        traces = {
            name: measure_trace(
                name, args.seed, 0.0 if args.smoke else min(args.seconds, 6.0),
                args.smoke,
                workloads[name]["process_digests"][0],
            )
            for name in names
        }
        layers = measure_layers(args.seed, args.smoke, full=True)
        per_layer = per_layer_metrics(layers, traces)
        if not args.quiet:
            print_per_layer(per_layer)
    return build_record(args.seed, args.smoke, workloads, per_layer, traces)


def _problems(record: dict) -> List[str]:
    """Reasons this record must not be trusted (empty = fine)."""
    problems = []
    for name, row in record["workloads"].items():
        problems += [f"{name}: {e}" for e in row["errors"]]
        # A smoke run exercises the harness and measures nothing, so a
        # noisy machine must not fail the test that runs it.
        if not record["smoke"] and row["cal_spread"] > MAX_CAL_SPREAD:
            problems.append(
                f"{name}: calibration loop spread {row['cal_spread']:.2f} "
                f"exceeds {MAX_CAL_SPREAD} (machine too noisy to measure)"
            )
    return problems


# ---------------------------------------------------------------------------
# compare / check
# ---------------------------------------------------------------------------

def compare_rows(a: dict, b: dict) -> List[dict]:
    """One row per (workload, metric) present on both sides.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: it is not, but either side's quartile spread is
    wider than the bound, so "unchanged" cannot be claimed either.
    """
    rows = []
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            continue
        for metric, ma in row_a["metrics"].items():
            mb = row_b["metrics"].get(metric)
            if mb is None:
                continue
            _unit, better, bound = catalog.E2E[metric]
            base, new = ma["value"], mb["value"]
            if base == 0:
                worse = 0.0 if new == 0 else float("inf")
            else:
                change = new / base - 1.0
                worse = change if better == "lower" else -change
            widest = max(
                (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
                for m in (ma, mb)
            )
            if worse > bound:
                verdict = "regressed"
            elif widest > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric, "unit": ma["unit"],
                "a": ma, "b": mb, "worse": worse, "bound": bound,
                "spread": widest, "verdict": verdict,
            })
    return rows


def print_comparison(rows: List[dict], label_a: str, label_b: str) -> None:
    print(f"A = {label_a}\nB = {label_b}")
    print(
        f"{'workload':<17}{'metric':<18}{'A median [q1,q3]':<38}"
        f"{'B median [q1,q3]':<38}{'B/A (base A)':<24}verdict"
    )
    for r in rows:
        def side(m):
            return (f"{_format(m['value'])} [{_format(m['q1'])}, "
                    f"{_format(m['q3'])}] {r['unit']}")
        base = r["a"]["value"]
        ratio = (
            f"{r['b']['value'] / base:.4f} (base {_format(base)})"
            if base else "n/a (base 0)"
        )
        print(
            f"{r['workload']:<17}{r['metric']:<18}{side(r['a']):<38}"
            f"{side(r['b']):<38}{ratio:<24}{r['verdict']}"
            f" (bound {r['bound']:.2f}, spread {r['spread']:.3f})"
        )


def compare_counts(a: dict, b: dict) -> List[str]:
    """Digests and count metrics that differ between two records."""
    diffs = []
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b and row_a["sim_digest"] != row_b["sim_digest"]:
            diffs.append(
                f"{name}: sim_digest {row_a['sim_digest'][:16]} != "
                f"{row_b['sim_digest'][:16]}"
            )
    layers_a, layers_b = a.get("per_layer"), b.get("per_layer")
    if layers_a and layers_b:
        for metric in sorted(catalog.COUNT_METRICS):
            va, vb = layers_a[metric]["value"], layers_b[metric]["value"]
            if va != vb:
                diffs.append(f"count {metric}: {va!r} != {vb!r}")
    return diffs


def cmd_compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows = compare_rows(a, b)
    print_comparison(
        rows,
        f"{path_a} ({a['git_sha']}, seed {a['seed']})",
        f"{path_b} ({b['git_sha']}, seed {b['seed']})",
    )
    diffs = compare_counts(a, b)
    for diff in diffs:
        print(f"DIFFERS {diff}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def cmd_check(args) -> int:
    """Two full sets back to back must agree (see README)."""
    args.runs = 1
    args.trace = True
    records = [run_ledger(args) for _ in range(2)]
    rows = compare_rows(*records)
    print()
    print_comparison(rows, "first set", "second set")
    failures = [p for record in records for p in _problems(record)]
    failures += compare_counts(*records)
    for r in rows:
        # Agreement is symmetric: neither set may be worse than the
        # other by more than the bound.
        base, new = r["a"]["value"], r["b"]["value"]
        apart = abs(new / base - 1.0) if base else float(new != 0)
        if apart > r["bound"]:
            failures.append(
                f"{r['workload']}/{r['metric']}: sets differ by "
                f"{apart:.3f} of {_format(base)} (bound {r['bound']})"
            )
    for record in records:
        for name, row in record["workloads"].items():
            if row["metrics"]["failed_ratio"]["value"] != 0:
                failures.append(f"{name}: failed_ratio is not 0")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    print("\ncheck:", "FAILED" if failures else "ok — the two sets agree")
    return 1 if failures else 0


def cmd_spread(argv: Sequence[str]) -> int:
    """Run-to-run spread the way the benchmark driver measures it.

    Ten (``--seeds``) driver-form runs per workload, each with another
    seed; per (metric, workload) the distance between the first and
    third quartile of the values as a share of their median, beside
    the metric's bound. Exit 1 if a gated spread exceeds its bound.
    """
    parser = argparse.ArgumentParser(prog="ledger spread")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--workload", action="append",
                        choices=list(catalog.WORKLOADS))
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR, "spread.json"))
    args = parser.parse_args(argv)
    table: Dict[str, dict] = {}
    for name in args.workload or list(catalog.WORKLOADS):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.time()
            run = measure_run(name, seed, args.seconds, smoke=False)
            runs.append(run)
            print(
                f"{name} seed {seed}: "
                + "  ".join(
                    f"{m} {_format(run['values'][m])}"
                    for m, *_ in catalog.GATED
                )
                + f"  ({time.time() - started:.1f} s wall)",
                flush=True,
            )
        table[name] = {
            metric: {
                "values": [run["values"][metric] for run in runs],
                "median": statistics.median(
                    run["values"][metric] for run in runs
                ),
                "spread": spread([run["values"][metric] for run in runs]),
                "bound": bound,
            }
            for metric, _unit_, _better_, _same_seed, bound in catalog.GATED
        }
    over = []
    print(f"\n{'workload':<18}" + "".join(f"{m:>22}" for m, *_ in catalog.GATED))
    for name, row in table.items():
        print(f"{name:<18}" + "".join(
            f"{row[m]['spread']:>14.3f} / {row[m]['bound']:<5.2f}"
            for m, *_ in catalog.GATED
        ))
        over += [
            f"{name}/{m}" for m, *_ in catalog.GATED
            if m != "setup_s" and row[m]["spread"] > row[m]["bound"]
        ]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "seconds": args.seconds, "git_sha": _git_sha(),
            "spread_by_seed": table,
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for pair in over:
        print(f"SPREAD OVER BOUND {pair}")
    return 1 if over else 0


# ---------------------------------------------------------------------------
# Driver form: one workload, one JSON line
# ---------------------------------------------------------------------------

def cmd_driver(args) -> int:
    """``--workload W --seed N --seconds S --trace 0|1`` (BENCHMARK.json)."""
    name = args.workload[0]
    if args.trace:
        trace = measure_trace(name, args.seed, args.seconds / 2, args.smoke, None)
        layers = measure_layers(args.seed, args.smoke, full=False)
        rows = per_layer_metrics(layers, {name: trace})
        result = {
            "correct": True,
            "attempted": trace["attempted"],
            "failed": 0,
            "metrics": {
                metric: {"value": row["value"], "unit": row["unit"]}
                for metric, row in rows.items()
            },
        }
    else:
        run = measure_run(name, args.seed, args.seconds, args.smoke)
        if run["cal_spread"] > MAX_CAL_SPREAD:
            sys.stderr.write(
                f"ledger: warning: calibration spread {run['cal_spread']:.2f}"
                f" > {MAX_CAL_SPREAD}; this machine is noisy\n"
            )
        for error in run["errors"]:
            sys.stderr.write(f"ledger: {name}: {error}\n")
        result = {
            "correct": not run["errors"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                metric: {"value": run["values"][metric], "unit": unit}
                for metric, unit, *_ in catalog.GATED
            },
        }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------

def _layers_main(argv: Sequence[str]) -> int:
    from benchmarks.ledger.calibrate import pin_to_one_cpu
    from benchmarks.ledger.layers import measure_layers as run_layers
    from benchmarks.ledger.workloads import scratch_root

    parser = argparse.ArgumentParser(prog="ledger _layers")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    metrics = run_layers(args.seed, args.smoke, scratch_root(), args.full)
    sys.stdout.write(json.dumps({"metrics": metrics}) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "_worker":
        from benchmarks.ledger.worker import main as worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "_layers":
        return _layers_main(argv[1:])
    if argv and argv[0] == "spread":
        try:
            return cmd_spread(argv[1:])
        except LedgerError as exc:
            sys.stderr.write(f"ledger: {exc}\n")
            return 3
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.stderr.write("usage: ledger compare A.json B.json\n")
            return 2
        return cmd_compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=list(catalog.WORKLOADS),
        help="measure only this workload; given once together with "
        "--seconds it is the driver form (one JSON line)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload and run")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="add the per-layer traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="measured runs per workload (quartiles are "
                        "then over runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="cycle counts cut 10x, stores cut to 288 points")
    parser.add_argument("--check", action="store_true",
                        help="run two sets; exit non-zero unless they agree")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON record here (default: "
                        "results/ledger/ledger_<sha>_seed<seed>.json)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    driver = (
        args.workload is not None and len(args.workload) == 1
        and args.seconds is not None and not args.check and args.out is None
    )
    try:
        if driver:
            return cmd_driver(args)
        if args.seconds is None:
            args.seconds = DEFAULT_SECONDS
        if args.check:
            return cmd_check(args)
        record = run_ledger(args)
    except LedgerError as exc:
        sys.stderr.write(f"ledger: {exc}\n")
        return 3
    problems = _problems(record)
    if problems:
        # A record that cannot be trusted is not written at all.
        for problem in problems:
            sys.stderr.write(f"ledger: REFUSED {problem}\n")
        return 3
    out = args.out or os.path.join(
        RESULTS_DIR, f"ledger_{record['git_sha']}_seed{args.seed}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nrecord written to {os.path.relpath(out, os.getcwd())}")
    return 0
