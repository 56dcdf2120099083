"""``dhetpnoc-repro``: regenerate thesis exhibits from the command line.

Examples::

    dhetpnoc-repro list
    dhetpnoc-repro run figure-3-3 --fidelity quick --seed 1 --workers 4
    dhetpnoc-repro run table-3-5
    dhetpnoc-repro run --spec spec.json --workers 4 --store results/store.jsonl
    dhetpnoc-repro all --fidelity quick --workers 4 --store results/store.jsonl
    dhetpnoc-repro sweep --arch firefly dhetpnoc --pattern uniform skewed3 \\
        --bw-set 1 --seeds 1 2 3 --workers 4 --store results/store.jsonl
    dhetpnoc-repro sweep --adaptive --resolution 0.05 --pattern skewed3
    dhetpnoc-repro serve --port 7123 --store results/shards/ --workers 4
    dhetpnoc-repro jobs submit spec.json --connect localhost:7123
    dhetpnoc-repro jobs status job-abc123def456 --connect localhost:7123
    dhetpnoc-repro run --spec spec.json --service localhost:7123
    dhetpnoc-repro store info --store results/shards/ --store-backend sharded
    dhetpnoc-repro store compact --store results/store.jsonl
    dhetpnoc-repro scenarios list
    dhetpnoc-repro scenarios describe hotspot_drift
    dhetpnoc-repro scenarios run hotspot_drift --arch firefly dhetpnoc
    dhetpnoc-repro scenarios sweep --scenario steady fault_storm --workers 4
    dhetpnoc-repro scenarios load my_workload.json
    dhetpnoc-repro scenarios run my_workload.json --arch dhetpnoc
    dhetpnoc-repro trace record --out burst.jsonl --scenario burst_storm
    dhetpnoc-repro trace info burst.jsonl
    dhetpnoc-repro trace replay burst.jsonl --arch firefly dhetpnoc
    dhetpnoc-repro scenarios ingest burst.jsonl --total-cycles 1500
    dhetpnoc-repro ml export --store results/store.jsonl --out dataset.json
    dhetpnoc-repro ml fit dataset.json --out model.json
    dhetpnoc-repro sweep --adaptive --model model.json --pattern skewed3

Every command is a thin wrapper over :mod:`repro.api`: flags build an
:class:`~repro.api.ExperimentSpec` (one shared builder serves ``sweep``,
``scenarios sweep`` and ``run --spec``), and a
:class:`~repro.api.Session` owns the worker pool and the result store.
``run --spec spec.json`` executes a fully declarative experiment — the
JSON form of a spec (``ExperimentSpec.save``/``load``) — and produces
bitwise-identical results and store keys to the equivalent flag-based
invocation. Architecture, bandwidth-set, fidelity and store-backend
choices all derive from the :mod:`repro.api.registry` tables, so a
``register()``-ed plugin appears here automatically.

``--workers`` fans the sweep grid out over a process pool; ``--store``
persists every simulated point as JSONL so re-runs (and other exhibits
sharing the same points) are instant cache hits. ``--store-backend
sharded`` (or a directory path) splits the store into one shard per
(architecture, bandwidth set); ``store compact`` dedupes and rewrites a
store offline. ``sweep --adaptive`` replaces the fixed load grid with
the knee-bisection search (see docs/sweeps.md). The ``scenarios``
subcommands script time-varying workloads (see docs/scenarios.md).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional

from repro.api.registry import (
    architectures,
    bandwidth_sets,
    fidelities,
    predictors,
)
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.figures import ALL_EXHIBITS
from repro.experiments.report import ascii_table, mean_spread, percent_change
from repro.experiments.runner import QUICK_FIDELITY
from repro.experiments.store import backend_names


def _fidelity(name: str):
    """argparse type: resolve ``--fidelity`` via the fidelity registry."""
    try:
        return fidelities.get(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown fidelity {name!r} ({'|'.join(fidelities.names())})"
        )


def _make_session(
    workers: int,
    store_path: Optional[str],
    store_backend: str = "auto",
    fabric: Optional[str] = None,
) -> Session:
    """Build the command's :class:`Session`.

    Without ``--store`` the session's store is in-memory and lives for
    this command only. ``--fabric`` swaps the local worker pool for a
    distributed-fabric connection.
    """
    return Session(
        store_path, backend=store_backend, workers=workers, fabric=fabric
    )


def _call_exhibit(name: str, fidelity, seed: int, session: Session) -> str:
    fn = ALL_EXHIBITS[name]
    kwargs = {}
    signature = inspect.signature(fn)
    if "fidelity" in signature.parameters:
        kwargs["fidelity"] = fidelity
    if "seed" in signature.parameters:
        kwargs["seed"] = seed
    if "session" in signature.parameters:
        kwargs["session"] = session
    return fn(**kwargs).render()


def _workers(value: str, minimum: int = 1) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if n < minimum:
        raise argparse.ArgumentTypeError(f"need at least {minimum} worker(s)")
    return n


def _add_daemon_options(
    parser: argparse.ArgumentParser, port: int, owner: str, no_backends
) -> None:
    """Where a daemon (``fabric serve`` / ``serve``) binds and stores."""
    parser.add_argument("--host", default="0.0.0.0",
                        help="bind address (default: all interfaces)")
    parser.add_argument("--port", type=int, default=port,
                        help=f"bind port (default: {port}; 0 picks a free one)")
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="persistent store every peer shares (directory = sharded); "
        f"omitting it keeps results in {owner} memory only",
    )
    parser.add_argument(
        "--store-backend", default="auto",
        choices=[n for n in backend_names() if n not in no_backends],
    )


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_workers, default=1,
        help="simulation worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSONL result store; makes runs resumable across invocations",
    )
    parser.add_argument(
        "--store-backend", default="auto",
        # "memory" is excluded: pairing it with --store would silently
        # drop persistence, and without --store "auto" is memory anyway.
        choices=[n for n in backend_names() if n != "memory"],
        help="store layout: one monolithic JSONL file, one shard per "
        "(arch, bandwidth set) under a directory, or 'remote' (--store "
        "is then a fabric coordinator host:port) (default: auto — a "
        "directory path selects sharded)",
    )
    parser.add_argument(
        "--fabric", default=None, metavar="HOST:PORT",
        help="submit cache misses to a distributed fabric coordinator "
        "('fabric serve') instead of a local worker pool; results are "
        "bitwise-identical (see docs/fabric.md)",
    )


def _add_grid_axes(parser: argparse.ArgumentParser) -> None:
    """The shared (arch, bw set, pattern, seeds, fidelity) axis flags.

    The default grid is pinned to the thesis pair; registered plugin
    architectures appear in the *choices* but never silently join a
    default sweep.
    """
    parser.add_argument(
        "--arch", nargs="+", default=["firefly", "dhetpnoc"],
        choices=list(architectures.names()),
    )
    parser.add_argument(
        "--bw-set", nargs="+", type=int, default=[1],
        choices=sorted(bandwidth_sets.names()),
    )
    parser.add_argument("--pattern", nargs="+", default=["uniform"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhetpnoc-repro",
        description="Reproduce tables/figures of the d-HetPNoC thesis (SOCC 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available exhibits")

    run = sub.add_parser(
        "run", help="regenerate one exhibit, or execute a declarative spec"
    )
    run.add_argument("exhibit", nargs="?", choices=sorted(ALL_EXHIBITS))
    run.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="execute a declarative ExperimentSpec JSON file instead of a "
        "named exhibit (bitwise-equivalent to the matching sweep flags)",
    )
    # Defaults resolve in main(): a spec carries its own fidelity/seed,
    # so pairing these flags with --spec is an error, not a silent no-op.
    run.add_argument("--fidelity", type=_fidelity, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--dry-run", action="store_true",
        help="with --spec: print per-curve point counts, how many points "
        "the store is missing, and an estimated wall-clock cost priced "
        "from benchmarks/baseline.json, then exit without simulating",
    )
    run.add_argument(
        "--service", default=None, metavar="HOST:PORT",
        help="with --spec: submit the spec as a job to a running "
        "experiment service ('serve') and stream its results; output is "
        "bitwise-identical to local execution (see docs/service.md)",
    )
    run.add_argument(
        "--model", default=None, metavar="MODEL.json",
        help="with an adaptive --spec: a fitted QoS model ('ml fit') "
        "that seeds each curve's knee search and sharpens --dry-run "
        "cost estimates (see docs/ml.md)",
    )
    _add_parallel_options(run)

    everything = sub.add_parser("all", help="regenerate every exhibit")
    everything.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)
    everything.add_argument("--seed", type=int, default=1)
    _add_parallel_options(everything)

    validate = sub.add_parser(
        "validate", help="check the thesis's headline claims against the simulator"
    )
    validate.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)
    validate.add_argument("--seed", type=int, default=1)
    validate.add_argument(
        "--seeds", nargs="+", type=int, default=None, metavar="SEED",
        help="replicate across these seeds and derive the dynamic claims' "
        "tolerance from the observed seed spread",
    )
    _add_parallel_options(validate)

    sweep = sub.add_parser(
        "sweep",
        help="run a custom saturation sweep grid (multi-seed replication "
        "reports mean +/- std across seeds)",
    )
    _add_grid_axes(sweep)
    sweep.add_argument(
        "--fixed-seeds", action="store_true",
        help="use base seeds verbatim instead of per-curve derived seeds",
    )
    sweep.add_argument(
        "--adaptive", action="store_true",
        help="replace the fixed load grid with the knee-bisection search "
        "seeded from the analytic saturation model (fewer simulations)",
    )
    sweep.add_argument(
        "--resolution", type=float, default=0.05, metavar="FRACTION",
        help="load-fraction step the adaptive search localises the knee "
        "to (default: 0.05)",
    )
    sweep.add_argument(
        "--model", default=None, metavar="MODEL.json",
        help="with --adaptive: seed each curve's knee search from this "
        "fitted QoS model ('ml fit') instead of the analytic estimate "
        "(see docs/ml.md)",
    )
    _add_parallel_options(sweep)

    fabric = sub.add_parser(
        "fabric",
        help="distributed sweep fabric: host a coordinator or join as a "
        "worker (see docs/fabric.md)",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    serve = fabric_sub.add_parser(
        "serve",
        help="host the coordinator: work queue, retries and the "
        "authoritative result store",
    )
    _add_daemon_options(serve, 7023, "coordinator", ("memory", "remote"))
    serve.add_argument(
        "--lease-size", type=int, default=2, metavar="N",
        help="points leased to a worker per request (default: 2)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="lease attempts per point before it is surfaced as a "
        "point-level failure (default: 3)",
    )
    serve.add_argument(
        "--worker-timeout", type=float, default=20.0, metavar="SECONDS",
        help="heartbeat silence after which a worker's leases are "
        "re-queued (default: 20)",
    )

    worker = fabric_sub.add_parser(
        "worker", help="join a coordinator and simulate leased points"
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address ('fabric serve' or 'serve' prints it)",
    )
    worker.add_argument(
        "--fail-after", type=int, default=None, metavar="N",
        help="chaos hook for fault-tolerance tests: hard-exit after "
        "streaming N results while still holding a lease",
    )

    serve = sub.add_parser(
        "serve",
        help="host the experiment service: a long-lived daemon that "
        "accepts spec submissions as jobs and streams results back "
        "(see docs/service.md)",
    )
    _add_daemon_options(serve, 7123, "service", ("memory",))
    serve.add_argument(
        "--workers", type=lambda value: _workers(value, 0), default=1,
        help="local simulation lanes shared by every job (default: 1; 0 "
        "leaves all simulation to 'fabric worker's attached to this port)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=2, metavar="N",
        help="jobs executed concurrently (default: 2)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=16, metavar="N",
        help="queued jobs admitted before submissions are rejected "
        "(default: 16)",
    )

    jobs = sub.add_parser(
        "jobs",
        help="drive jobs on a running experiment service: "
        "submit/status/watch/cancel/list (see docs/service.md)",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    submit = jobs_sub.add_parser(
        "submit", help="submit a declarative spec JSON file as a job"
    )
    submit.add_argument("spec", metavar="SPEC.json")
    submit.add_argument(
        "--no-watch", action="store_true",
        help="print the job id and return instead of streaming results "
        "(re-attach later with 'jobs watch')",
    )
    watch = jobs_sub.add_parser(
        "watch", help="stream a job's results (replays from the start)"
    )
    watch.add_argument("job_id", metavar="JOB_ID")
    status = jobs_sub.add_parser("status", help="show one job's state")
    status.add_argument("job_id", metavar="JOB_ID")
    cancel = jobs_sub.add_parser(
        "cancel",
        help="cancel a job; completed points stay in the store, so "
        "re-submitting the spec resumes where it stopped",
    )
    cancel.add_argument("job_id", metavar="JOB_ID")
    jobs_sub.add_parser("list", help="list every job the service admitted")
    for cmd in (submit, watch, status, cancel,
                jobs_sub.choices["list"]):
        cmd.add_argument(
            "--connect", required=True, metavar="HOST:PORT",
            help="service address ('serve' prints it)",
        )

    store = sub.add_parser(
        "store", help="inspect or compact a persistent result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("info", "show backend, record and shard counts"),
        ("compact", "dedupe repeated keys and rewrite the store in place"),
    ):
        cmd = store_sub.add_parser(name, help=help_text)
        cmd.add_argument("--store", required=True, metavar="PATH")
        cmd.add_argument(
            "--store-backend", default="auto",
            choices=list(backend_names()),
        )

    scenarios = sub.add_parser(
        "scenarios",
        help="time-varying workload scripts: list/describe/run/sweep",
    )
    scen_sub = scenarios.add_subparsers(dest="scenario_command", required=True)

    scen_sub.add_parser("list", help="list the built-in scenario library")

    describe = scen_sub.add_parser("describe", help="show one scenario's script")
    describe.add_argument("name")
    describe.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)

    load = scen_sub.add_parser(
        "load",
        help="validate a scenario-script JSON file and show its script "
        "(the same files are accepted wherever a scenario is named)",
    )
    load.add_argument("path", metavar="SCRIPT.json")

    scen_run = scen_sub.add_parser(
        "run", help="play one scenario and report per-phase metrics"
    )
    scen_run.add_argument(
        "name", help="library scenario name, or a scenario-script JSON path"
    )
    scen_run.add_argument(
        "--arch", nargs="+", default=["dhetpnoc"],
        choices=list(architectures.names()),
    )
    scen_run.add_argument("--pattern", default="uniform",
                          help="base pattern for phases that do not rebind")
    scen_run.add_argument("--bw-set", type=int, default=1,
                          choices=sorted(bandwidth_sets.names()))
    scen_run.add_argument(
        "--load-fraction", type=float, default=0.6,
        help="base offered load as a fraction of aggregate photonic capacity",
    )
    scen_run.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)
    scen_run.add_argument("--seed", type=int, default=1)

    scen_sweep = scen_sub.add_parser(
        "sweep", help="saturation sweep with a scenario axis"
    )
    scen_sweep.add_argument(
        "--scenario", nargs="+", default=["steady"],
        help="library scenario names and/or scenario-script JSON paths",
    )
    _add_grid_axes(scen_sweep)
    _add_parallel_options(scen_sweep)

    fuzz = scen_sub.add_parser(
        "fuzz",
        help="generate random schedules and differentially test every "
        "architecture, flagging DBA-margin inversions as findings",
    )
    fuzz.add_argument("--count", type=int, default=5,
                      help="number of schedules to generate")
    fuzz.add_argument("--seed", type=int, default=1,
                      help="base generator seed (schedule i uses seed+i)")
    fuzz.add_argument("--total-cycles", type=int, default=1500,
                      help="cycle span each schedule is generated for")
    fuzz.add_argument("--bw-set", type=int, default=1,
                      choices=sorted(bandwidth_sets.names()))
    fuzz.add_argument("--load-fraction", type=float, default=0.6)
    fuzz.add_argument("--pattern", default="uniform",
                      help="base pattern for phases that do not rebind")
    fuzz.add_argument(
        "--arch", nargs="+", default=["dhetpnoc", "firefly", "electrical"],
        choices=list(architectures.names()),
    )
    fuzz.add_argument("--out", metavar="FINDINGS.json",
                      help="write every finding (schedule script included)")

    cov = scen_sub.add_parser(
        "coverage",
        help="dimension-coverage report (burstiness, hotspot mobility, "
        "fault density, rule activity) over generated schedules",
    )
    cov.add_argument("--count", type=int, default=20,
                     help="number of schedules to generate")
    cov.add_argument("--seed", type=int, default=1,
                     help="base generator seed (schedule i uses seed+i)")
    cov.add_argument("--total-cycles", type=int, default=1500,
                     help="cycle span each schedule is generated for")
    cov.add_argument("--library", action="store_true",
                     help="also score the built-in library scenarios")
    cov.add_argument("--out", metavar="REPORT.json",
                     help="write the report (per-schedule scores included)")

    ingest = scen_sub.add_parser(
        "ingest",
        help="fit a recorded (JSONL) or exported (CSV) traffic trace "
        "into a phased scenario schedule and register it "
        "(see docs/ml.md)",
    )
    ingest.add_argument("path", metavar="TRACE[.jsonl|.csv]")
    ingest.add_argument(
        "--total-cycles", type=int, default=1500,
        help="run length the phase boundaries are rescaled to — pick "
        "the fidelity the scenario will be swept at (default: 1500, "
        "the quick fidelity)",
    )
    ingest.add_argument(
        "--name", default=None,
        help="scenario name (default: trace_<stem>_<digest>)",
    )
    ingest.add_argument(
        "--windows", type=int, default=16,
        help="analysis windows the trace span is profiled in; more "
        "windows resolve shorter phases (default: 16)",
    )
    ingest.add_argument(
        "--out", metavar="SCRIPT.json",
        help="also write the fitted schedule as a scenario-script JSON "
        "('scenarios load' and spec scenario_files accept it)",
    )

    trace = sub.add_parser(
        "trace",
        help="injection traces: record one run's accepted stream, "
        "replay it bit-identically into any architecture, or "
        "summarise a trace file",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record",
        help="simulate once and record every accepted injection as JSONL",
    )
    record.add_argument("--out", required=True, metavar="TRACE.jsonl")
    record.add_argument(
        "--arch", default="dhetpnoc", choices=list(architectures.names()),
    )
    record.add_argument("--pattern", default="uniform",
                        help="traffic pattern (or the base pattern for "
                        "scenario phases that do not rebind)")
    record.add_argument("--bw-set", type=int, default=1,
                        choices=sorted(bandwidth_sets.names()))
    record.add_argument(
        "--load-fraction", type=float, default=0.6,
        help="offered load as a fraction of aggregate photonic capacity",
    )
    record.add_argument(
        "--scenario", default=None,
        help="record a scenario playback (library name or script JSON "
        "path) instead of a stationary pattern",
    )
    record.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)
    record.add_argument("--seed", type=int, default=1)

    replay = trace_sub.add_parser(
        "replay",
        help="replay a recorded trace into one or more architectures "
        "(identical injections, so metric deltas are pure architecture)",
    )
    replay.add_argument("trace", metavar="TRACE[.jsonl|.csv]")
    replay.add_argument(
        "--arch", nargs="+", default=["firefly", "dhetpnoc"],
        choices=list(architectures.names()),
    )
    replay.add_argument("--bw-set", type=int, default=1,
                        choices=sorted(bandwidth_sets.names()))
    replay.add_argument("--fidelity", type=_fidelity, default=QUICK_FIDELITY)
    replay.add_argument("--seed", type=int, default=1)

    info = trace_sub.add_parser(
        "info",
        help="summarise a trace: span, digest, src/dst histograms and "
        "the phase count ingestion would segment it into",
    )
    info.add_argument("trace", metavar="TRACE[.jsonl|.csv]")
    info.add_argument("--top", type=int, default=5, metavar="N",
                      help="histogram entries shown per side (default: 5)")

    ml = sub.add_parser(
        "ml",
        help="learned QoS predictor: export a result store as a "
        "training dataset, fit a deterministic model (see docs/ml.md)",
    )
    ml_sub = ml.add_subparsers(dest="ml_command", required=True)

    export = ml_sub.add_parser(
        "export",
        help="flatten a result store into a tidy feature/target table "
        "(deterministic: same store -> byte-identical dataset)",
    )
    export.add_argument("--store", required=True, metavar="PATH")
    export.add_argument(
        "--store-backend", default="auto", choices=list(backend_names()),
    )
    export.add_argument("--out", required=True, metavar="DATASET.json")

    fit = ml_sub.add_parser(
        "fit",
        help="fit a QoS model on an exported dataset (deterministic: "
        "same dataset + seed -> byte-identical model)",
    )
    fit.add_argument("dataset", metavar="DATASET.json")
    fit.add_argument("--out", required=True, metavar="MODEL.json")
    fit.add_argument(
        "--kind", default="ridge", choices=sorted(predictors.names()),
        help="predictor family (default: ridge)",
    )
    fit.add_argument("--seed", type=int, default=0,
                     help="fit seed, recorded in the model (default: 0)")

    return parser


def _invalid_patterns(names, prog: str) -> bool:
    """Pre-validate pattern names; prints an error and returns True on
    the first bad one (PatternError or malformed skew level)."""
    from repro.traffic.patterns import pattern_by_name

    for name in names:
        try:
            pattern_by_name(name)
        except ValueError as exc:
            print(
                f"dhetpnoc-repro {prog}: error: invalid pattern {name!r} ({exc})",
                file=sys.stderr,
            )
            return True
    return False


def _spec_from_args(args, scenarios=(None,), mode: str = "grid") -> ExperimentSpec:
    """The one spec builder behind ``sweep`` and ``scenarios sweep``."""
    return ExperimentSpec(
        archs=tuple(args.arch),
        bw_sets=tuple(args.bw_set),
        patterns=tuple(args.pattern),
        scenarios=tuple(scenarios),
        seeds=tuple(args.seeds),
        fidelity=args.fidelity,
        derive_seeds=not getattr(args, "fixed_seeds", False),
        mode=mode,
        resolution=getattr(args, "resolution", 0.05),
    )


def _scenario_axis(spec: ExperimentSpec) -> bool:
    """Whether the spec sweeps named scenarios (adds a report column)."""
    return any(s is not None for s in spec.scenarios)


def _print_adaptive(
    spec: ExperimentSpec, session: Session, model=None
) -> int:
    """Render knee-bisection estimates for every curve of *spec*."""
    with_scenario = _scenario_axis(spec)
    estimates = session.adaptive(spec, model=model)
    rows = []
    total_sims = 0
    for est in estimates:
        total_sims += est.n_simulated
        row = [
            est.arch,
            f"set{est.bw_set_index}",
            est.pattern,
            est.base_seed,
            "-" if est.analytic_knee_gbps is None
            else f"{est.analytic_knee_gbps:.0f}",
            f"{est.knee_gbps:.0f}" + ("" if est.saturated else ">"),
            f"{est.peak.delivered_gbps:.1f}",
            f"{est.peak.offered_gbps:.0f}",
            est.n_evaluated,
        ]
        if model is not None:
            row.insert(5, "-" if est.model_knee_gbps is None
                       else f"{est.model_knee_gbps:.0f}")
        if with_scenario:
            row.insert(0, est.scenario or "-")
        rows.append(row)
    search_max = max(spec.load_fractions or spec.fidelity.load_fractions)
    grid_points = round(search_max / spec.resolution)
    seeding = "model-seeded, " if model is not None else ""
    title = (
        f"Adaptive saturation knees ({seeding}{spec.fidelity.name} "
        f"fidelity, resolution {spec.resolution:g}, {total_sims} "
        f"simulated vs {grid_points * len(rows)} for the equivalent "
        f"fixed grid)"
    )
    headers = ["arch", "bw set", "pattern", "seed", "analytic knee Gb/s",
               "measured knee Gb/s", "peak Gb/s", "peak offered", "evals"]
    if model is not None:
        headers.insert(5, "model knee Gb/s")
    if with_scenario:
        headers.insert(0, "scenario")
    print(ascii_table(headers, rows, title=title))
    return 0


def _print_replication(spec: ExperimentSpec, session: Session) -> int:
    """Render per-curve peak replication (the grid-mode report)."""
    with_scenario = _scenario_axis(spec)
    summaries = session.replicated(spec)
    rows = []
    for s in summaries:
        row = [
            s.arch,
            f"set{s.bw_set_index}",
            s.pattern,
            mean_spread(s.delivered_gbps.mean, s.delivered_gbps.std),
            mean_spread(
                s.energy_per_message_pj.mean, s.energy_per_message_pj.std, 0
            ),
            mean_spread(s.mean_latency_cycles.mean, s.mean_latency_cycles.std),
            len(s.seeds),
        ]
        if with_scenario:
            row.insert(0, s.scenario or "-")
        rows.append(row)
    kind = "Scenario saturation peaks" if with_scenario else "Saturation peaks"
    title = (
        f"{kind} ({spec.fidelity.name} fidelity, "
        f"{spec.n_points()} points, {session.executed_count} simulated)"
    )
    headers = ["arch", "bw set", "pattern", "peak Gb/s", "EPM pJ",
               "latency cyc", "seeds"]
    if with_scenario:
        headers.insert(0, "scenario")
    print(ascii_table(headers, rows, title=title))
    _print_gain_notes(spec, summaries, with_scenario)
    return 0


def _print_gain_notes(spec, summaries, with_scenario: bool) -> None:
    """The d-HetPNoC-vs-Firefly peak-gain notes under a sweep table."""
    if not {"firefly", "dhetpnoc"} <= set(spec.archs):
        return
    by_key = {
        (s.scenario, s.arch, s.bw_set_index, s.pattern): s for s in summaries
    }
    for scenario in spec.scenarios:
        for bw_index in spec.bw_sets:
            for pattern in spec.patterns:
                ff = by_key[(scenario, "firefly", bw_index, pattern)]
                dh = by_key[(scenario, "dhetpnoc", bw_index, pattern)]
                gain = percent_change(
                    dh.delivered_gbps.mean, ff.delivered_gbps.mean
                )
                prefix = f"{scenario}/" if with_scenario else ""
                print(
                    f"note: {prefix}set{bw_index}/{pattern}: d-HetPNoC peak "
                    f"gain {gain:+.2f}% over Firefly"
                )


def _execute_spec(
    spec: ExperimentSpec, session: Session, model=None
) -> int:
    """Dispatch a spec to the matching renderer (grid vs adaptive)."""
    from repro.fabric.errors import FabricError

    from repro.experiments.sweep import FabricExecutor

    if isinstance(session.executor, FabricExecutor):
        # Reuse the dry-run counters to say what is about to scatter.
        report = session.dry_run(spec, model)
        summary = report.describe().splitlines()[0]
        print(f"fabric {session.executor.address}: "
              f"{summary.split(': ', 1)[1]}")
    try:
        if spec.mode == "adaptive":
            return _print_adaptive(spec, session, model)
        return _print_replication(spec, session)
    except FabricError as exc:
        print(f"dhetpnoc-repro: fabric error: {exc}", file=sys.stderr)
        return 1


def _load_model(path: str, prog: str):
    """Load a fitted QoS model, or ``None`` after printing an error."""
    from repro.ml.model import load_model

    try:
        return load_model(path)
    except (OSError, KeyError, ValueError) as exc:
        print(f"dhetpnoc-repro {prog}: error: bad model {path!r}: {exc}",
              file=sys.stderr)
        return None
    except RuntimeError as exc:  # numpy unavailable
        print(f"dhetpnoc-repro {prog}: error: {exc}", file=sys.stderr)
        return None


def _run_sweep(args) -> int:
    if _invalid_patterns(args.pattern, "sweep"):
        return 2
    model = None
    if args.model is not None:
        if not args.adaptive:
            print("dhetpnoc-repro sweep: error: --model needs --adaptive "
                  "(the model seeds the knee search)", file=sys.stderr)
            return 2
        model = _load_model(args.model, "sweep")
        if model is None:
            return 2
    try:
        spec = _spec_from_args(
            args, mode="adaptive" if args.adaptive else "grid"
        )
    except ValueError as exc:  # e.g. duplicate axis values
        print(f"dhetpnoc-repro sweep: error: {exc}", file=sys.stderr)
        return 2
    session = _make_session(args.workers, args.store, args.store_backend,
                            getattr(args, "fabric", None))
    return _execute_spec(spec, session, model)


def _run_spec_file(args) -> int:
    """``run --spec spec.json``: fully declarative execution."""
    try:
        spec = ExperimentSpec.load(args.spec)
    # KeyError: registry lookups keyed by non-string names (an unknown
    # bandwidth-set index) raise it rather than ValueError.
    except (OSError, KeyError, ValueError) as exc:
        print(f"dhetpnoc-repro run: error: bad spec {args.spec!r}: {exc}",
              file=sys.stderr)
        return 2
    model = None
    if args.model is not None:
        if spec.mode != "adaptive":
            print("dhetpnoc-repro run: error: --model needs an adaptive "
                  "spec (the model seeds the knee search)", file=sys.stderr)
            return 2
        model = _load_model(args.model, "run")
        if model is None:
            return 2
    if args.service is not None and not args.dry_run:
        return _run_spec_service(spec, args)
    session = _make_session(args.workers, args.store, args.store_backend,
                            getattr(args, "fabric", None))
    if args.dry_run:
        from repro.experiments.costing import describe_cost

        report = session.dry_run(spec, model)
        print(report.describe())
        sims = (
            report.to_simulate
            if report.to_simulate is not None
            else report.total_points
        )
        cost = describe_cost(sims, spec.fidelity, args.workers)
        if cost:
            print(cost)
        return 0
    return _execute_spec(spec, session, model)


def _point_line(index: int, key: str, result, cached: bool) -> None:
    """Progress line printed per streamed service result."""
    label = f"{result.arch}/set{result.bw_set_index}/{result.pattern}"
    if result.scenario:
        label += f"/{result.scenario}"
    tag = "store" if cached else "sim"
    print(f"  [{index}] {label} @ {result.offered_gbps:.0f} Gb/s -> "
          f"{result.delivered_gbps:.1f} Gb/s delivered [{tag}]")


def _run_spec_service(spec: ExperimentSpec, args) -> int:
    """``run --spec --service``: execute via a running service daemon.

    The daemon streams grid-ordered results that are bitwise-identical
    to local execution, so the replication table is rendered from a
    local in-memory session pre-warmed with the streamed points.
    """
    from repro.experiments.store import ResultStore
    from repro.fabric.errors import FabricError
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(args.service) as client:
            run = client.run_spec(spec, on_point=_point_line)
    except FabricError as exc:
        print(f"dhetpnoc-repro run: service error: {exc}", file=sys.stderr)
        return 1
    print(f"service {args.service}: job {run.job_id} done: "
          f"{len(run.results)} point(s), {run.executed} simulated, "
          f"{run.hits} from store")
    session = Session(ResultStore())
    for key, result in zip(run.keys, run.results):
        session.store.put(key, result)
    return _print_replication(spec, session)


def _run_fabric(args) -> int:
    """``fabric serve`` / ``fabric worker``: the distributed sweep fabric."""
    if args.fabric_command == "serve":
        return _run_serve(args)
    from repro.fabric.errors import FabricError
    from repro.fabric.worker import Worker

    _log_to_stderr()
    worker = Worker(args.connect, fail_after=args.fail_after)
    try:
        completed = worker.run()
    except (FabricError, OSError) as exc:
        print(f"dhetpnoc-repro fabric worker: error: {exc}", file=sys.stderr)
        return 1
    print(f"worker done: {completed} point(s) simulated")
    return 0


def _log_to_stderr() -> None:
    import logging

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s"
    )


def _run_serve(args) -> int:
    """``serve`` / ``fabric serve``: host the daemon (the experiment
    service is the fabric coordinator plus the ``jobs`` role)."""
    _log_to_stderr()
    if args.command == "serve":
        from repro.service.daemon import ExperimentService

        what, owner = "experiment service", "service"
        daemon = ExperimentService(
            args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_jobs=args.max_jobs,
            max_pending=args.max_pending,
            backend=args.store_backend,
        )
    else:
        from repro.experiments.store import open_store
        from repro.fabric.coordinator import Coordinator

        what, owner = "fabric coordinator", "coordinator"
        daemon = Coordinator(
            store=open_store(args.store, args.store_backend),
            host=args.host,
            port=args.port,
            lease_size=args.lease_size,
            max_attempts=args.max_attempts,
            worker_timeout_s=args.worker_timeout,
        )
    host, port = daemon.start()
    where = daemon.store.path if args.store else f"{owner} memory"
    print(f"{what} listening on {host}:{port} (store: {where})", flush=True)
    daemon.serve_forever()
    return 0


def _run_jobs(args) -> int:
    """``jobs submit|watch|status|cancel|list`` against a service."""
    from repro.fabric.errors import FabricError
    from repro.service.client import ServiceClient

    def summary(run) -> None:
        print(f"job {run.job_id} done: {len(run.results)} point(s), "
              f"{run.executed} simulated, {run.hits} from store")

    try:
        with ServiceClient(args.connect) as client:
            if args.jobs_command == "submit":
                try:
                    spec = ExperimentSpec.load(args.spec)
                except (OSError, KeyError, ValueError) as exc:
                    print(f"dhetpnoc-repro jobs: error: bad spec "
                          f"{args.spec!r}: {exc}", file=sys.stderr)
                    return 2
                handle = client.submit(spec, watch=not args.no_watch)
                dedup = " (duplicate submission)" if handle.deduped else ""
                print(f"job {handle.job_id} {handle.state}: "
                      f"{handle.total} point(s){dedup}", flush=True)
                if args.no_watch:
                    return 0
                summary(client.stream(handle.job_id, on_point=_point_line))
                return 0
            if args.jobs_command == "watch":
                summary(client.watch(args.job_id, on_point=_point_line))
                return 0
            if args.jobs_command == "status":
                row = client.status(args.job_id)
                detail = f" ({row['error']})" if row["error"] else ""
                print(f"job {row['job_id']} {row['state']}: "
                      f"{row['completed']}/{row['total']} point(s), "
                      f"{row['executed']} simulated, "
                      f"{row['hits']} from store{detail}")
                return 0
            if args.jobs_command == "cancel":
                state = client.cancel(args.job_id)
                print(f"job {args.job_id} {state}")
                return 0
            rows = [
                [r["job_id"], r["state"], r["total"], r["completed"],
                 r["executed"], r["hits"]]
                for r in client.list_jobs()
            ]
            print(ascii_table(
                ["job", "state", "points", "done", "simulated", "hits"],
                rows, title=f"Jobs on {args.connect}",
            ))
            return 0
    except FabricError as exc:
        print(f"dhetpnoc-repro jobs: error: {exc}", file=sys.stderr)
        return 1


def _run_store(args) -> int:
    """``store info`` / ``store compact`` maintenance commands."""
    import os

    from repro.experiments.store import JsonlBackend, open_store

    store = open_store(args.store, args.store_backend)
    backend = store.backend

    if args.store_command == "compact":
        stats = store.compact()
        print(
            f"compacted {stats.files} file(s): {stats.lines_before} lines -> "
            f"{stats.records_after} records "
            f"({stats.duplicates_dropped} duplicates, "
            f"{stats.corrupt_dropped} corrupt dropped; "
            f"{stats.bytes_before} -> {stats.bytes_after} bytes)"
        )
        return 0

    # store info
    files = isinstance(backend, JsonlBackend)  # either layout: files to list
    kind = type(backend).__name__
    if files:
        kind += " (sharded)" if backend.sharded else " (jsonl)"
    records = len(store)
    print(f"store: {store.path}")
    print(f"backend: {kind}")
    print(f"records: {records}")
    if store.corrupt_lines:
        print(f"corrupt lines skipped: {store.corrupt_lines}")
    if files:
        counts = backend.shard_record_counts()
        rows = [
            [os.path.basename(path), counts[os.path.basename(path)],
             os.path.getsize(path)]
            for path in backend.shard_paths()
        ]
        print(ascii_table(["shard", "records", "bytes"], rows,
                          title="Shards"))
    return 0


def _resolve_scenario(value: str):
    """A scenario axis entry: a registry name, or a JSON script path.

    Path-looking entries (a ``.json`` suffix or a path separator) are
    loaded and registered, so downstream code only ever sees names.
    Returns the resolved name, or ``None`` after printing an error.
    """
    import os

    from repro.scenarios.library import load_scenario_file
    from repro.scenarios.schedule import ScenarioError

    if not (value.endswith(".json") or os.sep in value):
        return value
    try:
        return load_scenario_file(value).name
    except (OSError, ScenarioError) as exc:
        print(
            f"dhetpnoc-repro scenarios: error: bad scenario file "
            f"{value!r}: {exc}",
            file=sys.stderr,
        )
        return None


def _run_scenarios(args) -> int:
    import json

    from repro.scenarios.library import (
        build_scenario,
        scenario_catalog,
        scenario_names,
    )
    from repro.scenarios.schedule import ScenarioError

    if args.scenario_command == "list":
        print(ascii_table(["scenario", "description"], scenario_catalog(),
                          title="Built-in scenario library"))
        return 0

    if args.scenario_command == "describe":
        try:
            schedule = build_scenario(args.name, args.fidelity.total_cycles)
        except ScenarioError as exc:
            print(f"dhetpnoc-repro scenarios: error: {exc}", file=sys.stderr)
            return 2
        print(f"{schedule.name}: {schedule.description}")
        print(f"fingerprint ({args.fidelity.name} fidelity): "
              f"{schedule.fingerprint()}")
        print(json.dumps(schedule.to_dict()["phases"], indent=2))
        return 0

    if args.scenario_command == "load":
        from repro.scenarios.library import load_scenario_file

        try:
            schedule = load_scenario_file(args.path)
        except (OSError, ScenarioError) as exc:
            print(
                f"dhetpnoc-repro scenarios: error: bad scenario file "
                f"{args.path!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"{schedule.name}: {schedule.description}")
        print(f"fingerprint: {schedule.fingerprint()}")
        print(f"phases: {len(schedule)}")
        print(json.dumps(schedule.to_dict()["phases"], indent=2))
        return 0

    if args.scenario_command == "ingest":
        from repro.scenarios.ingest import ingest_trace

        try:
            report = ingest_trace(
                args.path,
                args.total_cycles,
                name=args.name,
                n_windows=args.windows,
            )
        except (OSError, ValueError, ScenarioError) as exc:
            print(f"dhetpnoc-repro scenarios: error: cannot ingest "
                  f"{args.path!r}: {exc}", file=sys.stderr)
            return 2
        print(report.describe())
        print(f"registered: run it with 'scenarios run "
              f"{report.schedule.name}', sweep it with 'scenarios sweep "
              f"--scenario {report.schedule.name}'")
        if args.out:
            report.schedule.save(args.out)
            print(f"script written to {args.out}")
        return 0

    if args.scenario_command == "fuzz":
        from repro.scenarios.differential import run_differential

        if _invalid_patterns([args.pattern], "scenarios fuzz"):
            return 2
        findings = run_differential(
            args.count,
            base_seed=args.seed,
            total_cycles=args.total_cycles,
            bw_set_index=args.bw_set,
            load_fraction=args.load_fraction,
            pattern=args.pattern,
            archs=tuple(args.arch),
        )
        rows = [
            [
                str(f.seed),
                f.fingerprint,
                *(f"{f.delivered_gbps.get(a, 0.0):.1f}" for a in args.arch),
                f"{f.margin_gbps:+.1f}",
                "INVERTED" if f.inverted else "",
            ]
            for f in findings
        ]
        print(ascii_table(
            ["seed", "fingerprint", *(f"{a} Gb/s" for a in args.arch),
             "margin", "flag"],
            rows,
            title=(f"Differential fuzz ({args.count} schedules, "
                   f"{args.total_cycles} cycles, set{args.bw_set} at "
                   f"{args.load_fraction:.0%} load)"),
        ))
        inverted = sum(1 for f in findings if f.inverted)
        print(f"{inverted} of {len(findings)} schedules invert the DBA margin")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump([f.to_dict() for f in findings], fh,
                          indent=2, sort_keys=True)
                fh.write("\n")
            print(f"findings written to {args.out} "
                  f"(shrink with tools/fuzz_triage.py)")
        return 0

    if args.scenario_command == "coverage":
        from repro.scenarios.coverage import coverage_report, library_schedules
        from repro.scenarios.generate import sample_schedule

        schedules = [
            sample_schedule(args.seed + i, args.total_cycles)
            for i in range(args.count)
        ]
        if args.library:
            schedules.extend(library_schedules(args.total_cycles))
        report = coverage_report(schedules, args.total_cycles)
        print(report.render())
        spanned = report.spanned_dimensions()
        suffix = "" if report.spans_all_dimensions() else " (INCOMPLETE)"
        print(f"spanned dimensions: {', '.join(spanned)}{suffix}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"report written to {args.out}")
        return 0

    if args.scenario_command == "run":
        from repro.experiments.report import phase_table
        from repro.traffic.bandwidth_sets import bandwidth_set_by_index

        name = _resolve_scenario(args.name)
        if name is None:
            return 2
        args.name = name
        if args.name not in scenario_names():
            print(
                f"dhetpnoc-repro scenarios: error: unknown scenario "
                f"{args.name!r}; available: {', '.join(scenario_names())}",
                file=sys.stderr,
            )
            return 2
        if _invalid_patterns([args.pattern], "scenarios run"):
            return 2
        session = Session()
        bw_set = bandwidth_set_by_index(args.bw_set)
        offered = args.load_fraction * bw_set.aggregate_gbps
        for arch in args.arch:
            result = session.run_one(
                arch, bw_set, args.pattern, offered,
                fidelity=args.fidelity, seed=args.seed, scenario=args.name,
            )
            print(phase_table(
                result.phases,
                title=(f"{args.name} on {arch} (set{args.bw_set}, base "
                       f"{args.pattern}, {offered:.0f} Gb/s offered, "
                       f"{args.fidelity.name} fidelity)"),
            ))
            print(f"overall: {result.delivered_gbps:.1f} Gb/s delivered, "
                  f"{result.energy_per_message_pj:.0f} pJ/message, "
                  f"latency {result.mean_latency_cycles:.1f} cyc\n")
        return 0

    # scenarios sweep
    resolved = [_resolve_scenario(s) for s in args.scenario]
    if any(name is None for name in resolved):
        return 2
    unknown = [s for s in resolved if s not in scenario_names()]
    if unknown:
        print(f"dhetpnoc-repro scenarios: error: unknown scenarios {unknown}; "
              f"available: {', '.join(scenario_names())}", file=sys.stderr)
        return 2
    if _invalid_patterns(args.pattern, "scenarios sweep"):
        return 2
    try:
        spec = _spec_from_args(args, scenarios=tuple(resolved))
    except ValueError as exc:
        print(f"dhetpnoc-repro scenarios: error: {exc}", file=sys.stderr)
        return 2
    session = _make_session(args.workers, args.store, args.store_backend,
                            getattr(args, "fabric", None))
    return _execute_spec(spec, session)


def _run_ml(args) -> int:
    """``ml export`` / ``ml fit``: the learned-QoS-predictor tooling."""
    if args.ml_command == "export":
        from repro.experiments.store import open_store
        from repro.ml.dataset import export_dataset

        store = open_store(args.store, args.store_backend)
        dataset = export_dataset(store)
        if not dataset.rows:
            print(f"dhetpnoc-repro ml: error: store {args.store!r} holds "
                  "no results to export (run a sweep with --store first)",
                  file=sys.stderr)
            return 2
        dataset.save(args.out)
        print(f"dataset written to {args.out}: {len(dataset.rows)} row(s) "
              f"x {len(dataset.features)} feature(s), "
              f"digest {dataset.digest()}")
        return 0

    # ml fit
    from repro.ml.dataset import Dataset
    from repro.ml.model import fit_model

    try:
        dataset = Dataset.load(args.dataset)
    except (OSError, KeyError, ValueError) as exc:
        print(f"dhetpnoc-repro ml: error: bad dataset "
              f"{args.dataset!r}: {exc}", file=sys.stderr)
        return 2
    try:
        model = fit_model(dataset, kind=args.kind, seed=args.seed)
    except RuntimeError as exc:  # numpy unavailable
        print(f"dhetpnoc-repro ml: error: {exc}", file=sys.stderr)
        return 2
    model.save(args.out)
    print(f"model written to {args.out}: {model.describe()}")
    return 0


def _record_trace(args) -> int:
    """``trace record``: one simulation, accepted injections to JSONL."""
    from repro import (
        RandomStreams,
        Simulator,
        SystemConfig,
        TrafficGenerator,
        pattern_by_name,
    )
    from repro.experiments.runner import build_arch
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index
    from repro.traffic.trace import TrafficTrace

    if _invalid_patterns([args.pattern], "trace record"):
        return 2
    scenario = args.scenario
    if scenario is not None:
        scenario = _resolve_scenario(scenario)
        if scenario is None:
            return 2
    bw_set = bandwidth_set_by_index(args.bw_set)
    config = SystemConfig(bw_set=bw_set)
    offered = args.load_fraction * bw_set.aggregate_gbps
    streams = RandomStreams(args.seed)
    sim = Simulator(clock_hz=config.clock_hz, seed=args.seed)
    trace = TrafficTrace()
    # Mirror the runner's wiring exactly, with the submit callback
    # wrapped in the recorder *before* any generator captures it.
    if scenario is None:
        pattern = pattern_by_name(args.pattern).bind(
            bw_set, config.n_clusters, config.cores_per_cluster,
            streams.get("placement"),
        )
        arch = build_arch(args.arch, sim, config, pattern)
        arch.submit = TrafficTrace.recording_submit(trace, arch.submit)
        generator = TrafficGenerator.for_offered_gbps(
            pattern, offered, streams.get("traffic"), arch.submit,
            config.clock_hz,
        )
        arch.attach_generator(generator)
    else:
        from repro.scenarios.library import build_scenario
        from repro.scenarios.player import ScenarioPlayer, initial_pattern
        from repro.scenarios.schedule import ScenarioError

        try:
            schedule = build_scenario(scenario, args.fidelity.total_cycles)
        except ScenarioError as exc:
            print(f"dhetpnoc-repro trace: error: {exc}", file=sys.stderr)
            return 2
        pattern = initial_pattern(
            schedule, args.pattern, bw_set,
            config.n_clusters, config.cores_per_cluster, streams,
        )
        arch = build_arch(args.arch, sim, config, pattern)
        arch.submit = TrafficTrace.recording_submit(trace, arch.submit)
        player = ScenarioPlayer(
            schedule, arch, pattern, offered, streams,
            total_cycles=args.fidelity.total_cycles,
            clock_hz=config.clock_hz,
        )
        arch.attach_generator(player)
    sim.run_with_reset(args.fidelity.total_cycles, args.fidelity.reset_cycles)
    arch.finalize()
    trace.save(args.out)
    source = f"{args.arch}/set{args.bw_set}/{args.pattern}"
    if scenario is not None:
        source += f"/{scenario}"
    print(f"trace written to {args.out}: {len(trace)} record(s) over "
          f"{trace.span_cycles} cycle(s) ({source} @ {offered:.0f} Gb/s, "
          f"seed {args.seed})")
    return 0


def _run_trace(args) -> int:
    """``trace record|replay|info``: injection-trace workflows."""
    if args.trace_command == "record":
        return _record_trace(args)

    from repro.scenarios.ingest import load_any_trace
    from repro.scenarios.schedule import ScenarioError

    try:
        trace = load_any_trace(args.trace)
    except (OSError, ValueError, ScenarioError) as exc:
        print(f"dhetpnoc-repro trace: error: bad trace "
              f"{args.trace!r}: {exc}", file=sys.stderr)
        return 2

    if args.trace_command == "replay":
        from repro import RandomStreams, Simulator, SystemConfig, pattern_by_name
        from repro.experiments.runner import build_arch
        from repro.traffic.bandwidth_sets import bandwidth_set_by_index
        from repro.traffic.trace import TraceReplayGenerator

        bw_set = bandwidth_set_by_index(args.bw_set)
        # Run long enough to drain the trace even when it outspans the
        # fidelity's cycle budget.
        total = max(args.fidelity.total_cycles, trace.span_cycles)
        rows = []
        for arch_name in args.arch:
            config = SystemConfig(bw_set=bw_set)
            sim = Simulator(clock_hz=config.clock_hz, seed=args.seed)
            pattern = pattern_by_name("uniform").bind(
                bw_set, config.n_clusters, config.cores_per_cluster,
                RandomStreams(args.seed).get("placement"),
            )
            arch = build_arch(arch_name, sim, config, pattern)
            generator = TraceReplayGenerator(trace, bw_set, arch.submit)
            arch.attach_generator(generator)
            sim.run_with_reset(total, args.fidelity.reset_cycles)
            arch.finalize()
            metrics = arch.metrics
            rows.append([
                arch_name,
                f"{metrics.delivered_gbps(config.clock_hz):.1f}",
                f"{metrics.latency.mean:.1f}",
                f"{generator.acceptance_ratio:.3f}",
                metrics.packets_delivered,
            ])
        print(ascii_table(
            ["arch", "delivered Gb/s", "latency cyc", "accepted",
             "packets delivered"],
            rows,
            title=(f"Trace replay ({len(trace)} records over "
                   f"{trace.span_cycles} trace cycles, set{args.bw_set}, "
                   f"{total} run cycles, identical injections per arch)"),
        ))
        return 0

    # trace info
    from collections import Counter

    from repro.scenarios.ingest import infer_phase_count, trace_digest

    def top(counter: Counter) -> str:
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        return ", ".join(f"core {c}: {n}" for c, n in ranked[:args.top])

    print(f"trace: {args.trace}")
    print(f"records: {len(trace)}")
    if trace.corrupt_lines:
        print(f"corrupt lines skipped: {trace.corrupt_lines}")
    print(f"span: {trace.span_cycles} cycle(s)")
    print(f"digest: {trace_digest(trace)}")
    print(f"inferred phases: {infer_phase_count(trace)}")
    print(f"top sources: {top(Counter(r.src for r in trace))}")
    print(f"top destinations: {top(Counter(r.dst for r in trace))}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(ALL_EXHIBITS):
            print(name)
        return 0
    if args.command == "run":
        if (args.exhibit is None) == (args.spec is None):
            print(
                "dhetpnoc-repro run: error: name an exhibit or pass --spec "
                "(exactly one of the two)",
                file=sys.stderr,
            )
            return 2
        if args.service is not None and args.fabric is not None:
            print(
                "dhetpnoc-repro run: error: --service and --fabric are "
                "mutually exclusive (a service daemon is itself a fabric "
                "coordinator: attach 'fabric worker's to its port)",
                file=sys.stderr,
            )
            return 2
        if args.model is not None and args.service is not None:
            print(
                "dhetpnoc-repro run: error: --model and --service are "
                "mutually exclusive (model seeding happens in the local "
                "search loop)",
                file=sys.stderr,
            )
            return 2
        if args.model is not None and args.spec is None:
            print(
                "dhetpnoc-repro run: error: --model needs --spec (named "
                "exhibits decide their own points)",
                file=sys.stderr,
            )
            return 2
        if args.spec is not None:
            if args.fidelity is not None or args.seed is not None:
                print(
                    "dhetpnoc-repro run: error: --fidelity/--seed belong in "
                    "the spec file; they cannot be combined with --spec",
                    file=sys.stderr,
                )
                return 2
            return _run_spec_file(args)
        if args.service is not None:
            print(
                "dhetpnoc-repro run: error: --service needs --spec (the "
                "service executes declarative specs)",
                file=sys.stderr,
            )
            return 2
        if args.dry_run:
            print(
                "dhetpnoc-repro run: error: --dry-run needs --spec (named "
                "exhibits decide their own points)",
                file=sys.stderr,
            )
            return 2
        fidelity = args.fidelity if args.fidelity is not None else QUICK_FIDELITY
        seed = args.seed if args.seed is not None else 1
        session = _make_session(args.workers, args.store, args.store_backend,
                                getattr(args, "fabric", None))
        print(_call_exhibit(args.exhibit, fidelity, seed, session))
        return 0
    if args.command == "all":
        session = _make_session(args.workers, args.store, args.store_backend,
                                getattr(args, "fabric", None))
        for name in sorted(ALL_EXHIBITS):
            print(_call_exhibit(name, args.fidelity, args.seed, session))
            print()
        return 0
    if args.command == "validate":
        from repro.experiments.validation import render_validation, validate_all

        session = _make_session(args.workers, args.store, args.store_backend,
                                getattr(args, "fabric", None))
        results = validate_all(
            args.fidelity, args.seed, session=session, seeds=args.seeds
        )
        print(render_validation(results))
        return 0 if all(r.passed for r in results) else 1
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "fabric":
        return _run_fabric(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "jobs":
        return _run_jobs(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "scenarios":
        return _run_scenarios(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "ml":
        return _run_ml(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
