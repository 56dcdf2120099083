"""``scenarios ...``: script, play, sweep and fuzz time-varying workloads
(see docs/scenarios.md)."""

from __future__ import annotations

import json

from repro.api.session import Session
from repro.experiments.cli.options import (
    CliError,
    _count,
    add_arch,
    add_bw_set,
    add_fidelity,
    add_grid_axes,
    add_load_fraction,
    add_parallel_options,
    add_pattern,
    add_seed,
    check_patterns,
    open_session,
    resolve_scenario,
    spec_from_args,
)
from repro.experiments.cli.run import execute_spec
from repro.experiments.report import ascii_table

_BASE_PATTERN = "base pattern for phases that do not rebind"


def register(sub) -> None:
    scenarios = sub.add_parser(
        "scenarios",
        help="time-varying workload scripts: list/describe/load/run/sweep/fuzz",
    )
    scen_sub = scenarios.add_subparsers(dest="scenario_command", required=True)

    scen_sub.add_parser(
        "list", help="list the built-in scenario library"
    ).set_defaults(handler=_list)

    describe = scen_sub.add_parser("describe", help="show one scenario's script")
    describe.add_argument("name")
    add_fidelity(describe)
    describe.set_defaults(handler=_describe)

    load = scen_sub.add_parser(
        "load",
        help="validate a scenario-script JSON file and show its script "
        "(the same files are accepted wherever a scenario is named)",
    )
    load.add_argument("path", metavar="SCRIPT.json")
    load.set_defaults(handler=_load)

    scen_run = scen_sub.add_parser(
        "run", help="play one scenario and report per-phase metrics"
    )
    scen_run.add_argument(
        "name", help="library scenario name, or a scenario-script JSON path"
    )
    add_arch(scen_run, ["dhetpnoc"])
    add_pattern(scen_run, _BASE_PATTERN)
    add_bw_set(scen_run)
    add_load_fraction(
        scen_run,
        "base offered load as a fraction of aggregate photonic capacity",
    )
    add_fidelity(scen_run)
    add_seed(scen_run)
    scen_run.set_defaults(handler=_run)

    scen_sweep = scen_sub.add_parser(
        "sweep", help="saturation sweep with a scenario axis"
    )
    scen_sweep.add_argument(
        "--scenario", nargs="+", default=["steady"],
        help="library scenario names and/or scenario-script JSON paths",
    )
    add_grid_axes(scen_sweep)
    add_parallel_options(scen_sweep)
    scen_sweep.set_defaults(handler=_sweep)

    fuzz = scen_sub.add_parser(
        "fuzz",
        help="generate random schedules and differentially test every "
        "architecture, flagging DBA-margin inversions as findings",
    )
    fuzz.add_argument("--count", type=_count, default=5,
                      help="number of schedules to generate")
    add_seed(fuzz, help="base generator seed (schedule i uses seed+i)")
    fuzz.add_argument("--total-cycles", type=int, default=1500,
                      help="cycle span each schedule is generated for")
    add_bw_set(fuzz)
    add_load_fraction(fuzz)
    add_pattern(fuzz, _BASE_PATTERN)
    add_arch(fuzz, ["dhetpnoc", "firefly", "electrical"])
    fuzz.add_argument("--out", metavar="FINDINGS.json",
                      help="write every finding (schedule script included)")
    fuzz.set_defaults(handler=_fuzz)


def _list(args) -> None:
    from repro.scenarios.library import scenario_catalog

    print(ascii_table(["scenario", "description"], scenario_catalog(),
                      title="Built-in scenario library"))


def _describe(args) -> None:
    from repro.scenarios.library import build_scenario
    from repro.scenarios.schedule import ScenarioError

    try:
        schedule = build_scenario(args.name, args.fidelity.total_cycles)
    except ScenarioError as exc:
        raise CliError(f"dhetpnoc-repro scenarios: error: {exc}")
    print(f"{schedule.name}: {schedule.description}")
    print(f"fingerprint ({args.fidelity.name} fidelity): "
          f"{schedule.fingerprint()}")
    print(json.dumps(schedule.to_dict()["phases"], indent=2))


def _load(args) -> None:
    from repro.scenarios.library import load_scenario_file
    from repro.scenarios.schedule import ScenarioError

    try:
        schedule = load_scenario_file(args.path)
    except (OSError, ScenarioError) as exc:
        raise CliError(
            f"dhetpnoc-repro scenarios: error: bad scenario file "
            f"{args.path!r}: {exc}"
        )
    print(f"{schedule.name}: {schedule.description}")
    print(f"fingerprint: {schedule.fingerprint()}")
    print(f"phases: {len(schedule)}")
    print(json.dumps(schedule.to_dict()["phases"], indent=2))


def _fuzz(args) -> None:
    from repro.scenarios.differential import run_differential

    check_patterns([args.pattern], "scenarios fuzz")
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
            json.dump([f.to_dict() for f in findings], fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"findings written to {args.out} "
              f"(shrink with tools/fuzz_triage.py)")


def _run(args) -> None:
    from repro.experiments.report import phase_table
    from repro.scenarios.library import scenario_names
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index

    name = resolve_scenario(args.name)
    if name not in scenario_names():
        raise CliError(
            f"dhetpnoc-repro scenarios: error: unknown scenario "
            f"{name!r}; available: {', '.join(scenario_names())}"
        )
    check_patterns([args.pattern], "scenarios run")
    session = Session()
    bw_set = bandwidth_set_by_index(args.bw_set)
    offered = args.load_fraction * bw_set.aggregate_gbps
    for arch in args.arch:
        result = session.run_one(
            arch, bw_set, args.pattern, offered,
            fidelity=args.fidelity, seed=args.seed, scenario=name,
        )
        print(phase_table(
            result.phases,
            title=(f"{name} on {arch} (set{args.bw_set}, base "
                   f"{args.pattern}, {offered:.0f} Gb/s offered, "
                   f"{args.fidelity.name} fidelity)"),
        ))
        print(f"overall: {result.delivered_gbps:.1f} Gb/s delivered, "
              f"{result.energy_per_message_pj:.0f} pJ/message, "
              f"latency {result.mean_latency_cycles:.1f} cyc\n")


def _sweep(args) -> None:
    from repro.scenarios.library import scenario_names

    resolved, bad_files = [], []
    for value in args.scenario:  # every bad file is reported, not the first
        try:
            resolved.append(resolve_scenario(value))
        except CliError as exc:
            bad_files.append(str(exc))
    if bad_files:
        raise CliError("\n".join(bad_files))
    unknown = [s for s in resolved if s not in scenario_names()]
    if unknown:
        raise CliError(
            f"dhetpnoc-repro scenarios: error: unknown scenarios {unknown}; "
            f"available: {', '.join(scenario_names())}"
        )
    check_patterns(args.pattern, "scenarios sweep")
    try:
        spec = spec_from_args(args, scenarios=tuple(resolved))
    except ValueError as exc:
        raise CliError(f"dhetpnoc-repro scenarios: error: {exc}")
    execute_spec(spec, open_session(args))
