"""``list`` / ``run`` / ``all`` / ``validate`` / ``sweep``: exhibits and
experiment specs, and the spec renderers ``scenarios sweep`` shares."""

from __future__ import annotations

import inspect

from repro.api.base import MAX_LOAD, MIN_LOAD_STEP
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.cli.options import (
    CliError,
    LazyChoices,
    add_fidelity,
    add_grid_axes,
    add_parallel_options,
    add_seed,
    check_patterns,
    checked,
    load_model,
    load_spec,
    open_session,
    spec_from_args,
)
from repro.experiments.report import ascii_table, mean_spread, percent_change
from repro.experiments.runner import QUICK_FIDELITY


def register(sub) -> None:
    sub.add_parser(
        "list", help="list available exhibits"
    ).set_defaults(handler=_list)

    run = sub.add_parser(
        "run", help="regenerate one exhibit, or execute a declarative spec"
    )
    run.add_argument("exhibit", nargs="?").choices = LazyChoices(_exhibit_names)
    run.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="execute a declarative ExperimentSpec JSON file instead of a "
        "named exhibit (bitwise-equivalent to the matching sweep flags)",
    )
    # Defaults resolve in the handler: a spec carries its own
    # fidelity/seed, so pairing these flags with --spec is an error,
    # not a silent no-op.
    add_fidelity(run, default=None)
    add_seed(run, default=None)
    run.add_argument(
        "--dry-run", action="store_true",
        help="with --spec: print per-curve point counts, how many points "
        "the store is missing, and an estimated wall-clock cost priced "
        "from the newest benchmarks/ledger/records/BENCH_*.json, then exit "
        "without simulating",
    )
    run.add_argument(
        "--model", default=None, metavar="MODEL.json",
        help="with an adaptive --spec: a fitted QoS model ('ml fit') "
        "that seeds each curve's knee search and sharpens --dry-run "
        "cost estimates (see docs/ml.md)",
    )
    add_parallel_options(run)
    run.set_defaults(handler=_run)

    everything = sub.add_parser("all", help="regenerate every exhibit")
    add_fidelity(everything)
    add_seed(everything)
    add_parallel_options(everything)
    everything.set_defaults(handler=_all)

    validate = sub.add_parser(
        "validate", help="check the thesis's headline claims against the simulator"
    )
    add_fidelity(validate)
    add_seed(validate)
    validate.add_argument(
        "--seeds", nargs="+", type=int, default=None, metavar="SEED",
        help="replicate across these seeds and derive the dynamic claims' "
        "tolerance from the observed seed spread",
    )
    add_parallel_options(validate)
    validate.set_defaults(handler=_validate)

    sweep = sub.add_parser(
        "sweep",
        help="run a custom saturation sweep grid (multi-seed replication "
        "reports mean +/- std across seeds)",
    )
    add_grid_axes(sweep)
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
        "--resolution", default=0.05, metavar="FRACTION",
        type=checked("resolution", MIN_LOAD_STEP, parse=float, maximum=MAX_LOAD),
        help="load-fraction step the adaptive search localises the knee "
        "to (default: 0.05)",
    )
    sweep.add_argument(
        "--model", default=None, metavar="MODEL.json",
        help="with --adaptive: seed each curve's knee search from this "
        "fitted QoS model ('ml fit') instead of the analytic estimate "
        "(see docs/ml.md)",
    )
    add_parallel_options(sweep)
    sweep.set_defaults(handler=_sweep)


# ---------------------------------------------------------------------------
# Exhibits
# ---------------------------------------------------------------------------

def _exhibit_names():
    from repro.experiments.figures import ALL_EXHIBITS

    return sorted(ALL_EXHIBITS)


def _call_exhibit(name: str, fidelity, seed: int, session: Session) -> str:
    from repro.experiments.figures import ALL_EXHIBITS

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


def _list(args) -> None:
    for name in _exhibit_names():
        print(name)


def _run(args) -> None:
    with_spec = args.spec is not None
    # In order: the first conflict that holds is the one reported.
    conflicts = (
        ((args.exhibit is None) != with_spec,
         "name an exhibit or pass --spec (exactly one of the two)"),
        (args.model is not None and not with_spec,
         "--model needs --spec (named exhibits decide their own points)"),
        (with_spec and (args.fidelity is not None or args.seed is not None),
         "--fidelity/--seed belong in the spec file; they cannot be "
         "combined with --spec"),
        (args.dry_run and not with_spec,
         "--dry-run needs --spec (named exhibits decide their own points)"),
    )
    for holds, message in conflicts:
        if holds:
            raise CliError(f"dhetpnoc-repro run: error: {message}")
    if with_spec:
        _run_spec_file(args)
    else:
        # A spec carries its own fidelity and seed; an exhibit defaults.
        fidelity = args.fidelity if args.fidelity is not None else QUICK_FIDELITY
        seed = args.seed if args.seed is not None else 1
        print(_call_exhibit(args.exhibit, fidelity, seed, open_session(args)))


def _all(args) -> None:
    session = open_session(args)
    for name in _exhibit_names():
        print(_call_exhibit(name, args.fidelity, args.seed, session))
        print()


def _validate(args) -> int:
    from repro.experiments.validation import render_validation, validate_all

    results = validate_all(
        args.fidelity, args.seed, session=open_session(args), seeds=args.seeds
    )
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Specs: ``sweep``, ``run --spec`` (and ``scenarios sweep``)
# ---------------------------------------------------------------------------

def _sweep(args) -> None:
    check_patterns(args.pattern, "sweep")
    model = None
    if args.model is not None:
        if not args.adaptive:
            raise CliError(
                "dhetpnoc-repro sweep: error: --model needs --adaptive "
                "(the model seeds the knee search)"
            )
        model = load_model(args.model, "sweep")
    try:
        spec = spec_from_args(
            args, mode="adaptive" if args.adaptive else "grid"
        )
    except ValueError as exc:  # e.g. duplicate axis values
        raise CliError(f"dhetpnoc-repro sweep: error: {exc}")
    execute_spec(spec, open_session(args), model)


def _run_spec_file(args) -> None:
    """``run --spec spec.json``: fully declarative execution."""
    spec = load_spec(args.spec, "run")
    model = None
    if args.model is not None:
        if spec.mode != "adaptive":
            raise CliError(
                "dhetpnoc-repro run: error: --model needs an adaptive "
                "spec (the model seeds the knee search)"
            )
        model = load_model(args.model, "run")
    if args.dry_run:
        from repro.experiments.costing import describe_cost

        report = open_session(args).dry_run(spec, model)
        print(report.describe())
        sims = (
            report.to_simulate
            if report.to_simulate is not None
            else report.total_points
        )
        cost = describe_cost(sims, spec.fidelity, args.workers)
        if cost:
            print(cost)
    else:
        execute_spec(spec, open_session(args), model)


def execute_spec(spec: ExperimentSpec, session: Session, model=None) -> None:
    """Dispatch a spec to the matching renderer (grid vs adaptive)."""
    from repro.fabric.errors import FabricError

    if session.fabric is not None:
        # Reuse the dry-run counters to say what is about to scatter.
        # They read only the local store: the coordinator's may hold
        # any of the misses, so the banner claims no cache count.
        report = session.dry_run(spec, model)
        if report.to_simulate is None:
            summary = report.describe().splitlines()[0].split(": ", 1)[1]
        else:
            summary = (
                f"{len(report.curves)} curve(s), {report.total_points} grid "
                f"point(s), {report.to_simulate} not in the local store"
            )
        print(f"fabric {session.fabric}: {summary}")
    try:
        if spec.mode == "adaptive":
            _print_adaptive(spec, session, model)
        else:
            _print_replication(spec, session)
    except FabricError as exc:
        raise CliError(f"dhetpnoc-repro: fabric error: {exc}", 1)


def _scenario_axis(spec: ExperimentSpec) -> bool:
    """Whether the spec sweeps named scenarios (adds a report column)."""
    return any(s is not None for s in spec.scenarios)


def _print_adaptive(spec: ExperimentSpec, session: Session, model=None) -> None:
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


def _print_replication(spec: ExperimentSpec, session: Session) -> None:
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
