"""``trace record`` / ``replay`` / ``info``: injection-trace workflows.

Recording and replaying are both written on the runner's own wiring
(:func:`~repro.experiments.runner.wire_run` then a traffic source):
``record`` taps ``arch.submit`` between the two steps, so the run it
records is the run ``Session.run_one`` would have made; ``replay``
attaches a :class:`~repro.traffic.trace.TraceReplayGenerator` as the
source instead.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.cli.options import (
    CliError,
    add_arch,
    add_bw_set,
    add_fidelity,
    add_load_fraction,
    add_pattern,
    add_seed,
    check_patterns,
    checked,
    resolve_scenario,
)
from repro.experiments.report import ascii_table


def register(sub) -> None:
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
    add_arch(record, "dhetpnoc")
    add_pattern(record, "traffic pattern (or the base pattern for "
                "scenario phases that do not rebind)")
    add_bw_set(record)
    add_load_fraction(
        record, "offered load as a fraction of aggregate photonic capacity"
    )
    record.add_argument(
        "--scenario", default=None,
        help="record a scenario playback (library name or script JSON "
        "path) instead of a stationary pattern",
    )
    add_fidelity(record)
    add_seed(record)
    record.set_defaults(handler=_record)

    replay = trace_sub.add_parser(
        "replay",
        help="replay a recorded trace into one or more architectures "
        "(identical injections, so metric deltas are pure architecture)",
    )
    replay.add_argument("trace", metavar="TRACE.jsonl")
    add_arch(replay, ["firefly", "dhetpnoc"])
    add_bw_set(replay)
    add_fidelity(replay)
    add_seed(replay)
    replay.set_defaults(handler=_replay)

    info = trace_sub.add_parser(
        "info",
        help="summarise a trace: span, digest and src/dst histograms",
    )
    info.add_argument("trace", metavar="TRACE.jsonl")
    info.add_argument("--top", type=checked("top", 0), default=5, metavar="N",
                      help="histogram entries shown per side (default: 5)")
    info.set_defaults(handler=_info)


def _record(args) -> None:
    """One simulation, accepted injections to JSONL."""
    from repro.experiments.runner import attach_traffic, wire_run
    from repro.scenarios.schedule import ScenarioError
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index
    from repro.traffic.trace import TrafficTrace

    check_patterns([args.pattern], "trace record")
    scenario = args.scenario
    if scenario is not None:
        scenario = resolve_scenario(scenario)
    bw_set = bandwidth_set_by_index(args.bw_set)
    offered = args.load_fraction * bw_set.aggregate_gbps
    try:
        run = wire_run(
            args.arch, bw_set, args.pattern, args.fidelity, args.seed,
            scenario=scenario,
        )
    except ScenarioError as exc:
        raise CliError(f"dhetpnoc-repro trace: error: {exc}")
    # The recorder goes around submit *before* any source captures it.
    trace = TrafficTrace()
    run.arch.submit = TrafficTrace.recording_submit(trace, run.arch.submit)
    attach_traffic(run, offered, args.fidelity)
    run.simulate(args.fidelity.total_cycles, args.fidelity.reset_cycles)
    trace.save(args.out)
    source = f"{args.arch}/set{args.bw_set}/{args.pattern}"
    if scenario is not None:
        source += f"/{scenario}"
    print(f"trace written to {args.out}: {len(trace)} record(s) over "
          f"{trace.span_cycles} cycle(s) ({source} @ {offered:.0f} Gb/s, "
          f"seed {args.seed})")


def _load(args):
    from repro.traffic.trace import TrafficTrace

    try:
        return TrafficTrace.load(args.trace)
    except (OSError, ValueError) as exc:
        raise CliError(
            f"dhetpnoc-repro trace: error: bad trace {args.trace!r}: {exc}"
        )


def _replay(args) -> None:
    from repro.experiments.runner import wire_run
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index
    from repro.traffic.trace import TraceReplayGenerator

    trace = _load(args)
    bw_set = bandwidth_set_by_index(args.bw_set)
    # Run long enough to drain the trace even when it outspans the
    # fidelity's cycle budget.
    total = max(args.fidelity.total_cycles, trace.span_cycles)
    rows = []
    for arch_name in args.arch:
        run = wire_run(arch_name, bw_set, "uniform", args.fidelity, args.seed)
        run.attach(TraceReplayGenerator(trace, bw_set, run.arch.submit))
        run.simulate(total, args.fidelity.reset_cycles)
        metrics = run.arch.metrics
        rows.append([
            arch_name,
            f"{metrics.delivered_gbps(run.config.clock_hz):.1f}",
            f"{metrics.latency.mean:.1f}",
            f"{run.source.acceptance_ratio:.3f}",
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


def _info(args) -> None:
    from repro.traffic.trace import trace_digest

    trace = _load(args)

    def top(counter: Counter) -> str:
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        return ", ".join(f"core {c}: {n}" for c, n in ranked[:args.top])

    print(f"trace: {args.trace}")
    print(f"records: {len(trace)}")
    if trace.corrupt_lines:
        print(f"corrupt lines skipped: {trace.corrupt_lines}")
    print(f"span: {trace.span_cycles} cycle(s)")
    print(f"digest: {trace_digest(trace)}")
    print(f"top sources: {top(Counter(r.src for r in trace))}")
    print(f"top destinations: {top(Counter(r.dst for r in trace))}")
