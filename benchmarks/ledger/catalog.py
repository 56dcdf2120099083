"""Names, units, directions, bounds and predictions: the ledger's contract.

Single definition of every workload and metric the benchmark reports.
``BENCHMARK.json`` at the repository root is :func:`benchmark_json` of
this module (a test holds the two equal), the README tables are written
from it, and every later performance or simplicity claim in this
repository is made in these names.

``moves`` on a per-layer metric is the prediction, written down before
measuring, of which end-to-end metric on which workload the layer
should move (``"op_s@photonic_busy"``); ``"-"`` marks context rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: One measured run of one workload, in seconds (``--seconds``).
RUN_SECONDS = 8

#: The three workloads that are a list of single simulations; the
#: profile-derived per-layer metrics exist once per each of them.
SIMULATOR_WORKLOADS = ("photonic_busy", "electrical_busy", "sparse_scenarios")

#: name -> one-line reason the workload exists.
WORKLOADS: Dict[str, str] = {
    "photonic_busy": (
        "dhetpnoc+firefly past the knee, 10000 busy cycles: gateway, VC "
        "buffer, data channel, DBA ring and energy accounting do all the "
        "work; store and wire do none"
    ),
    "electrical_busy": (
        "electrical mesh at the same load, 2500 cycles: router/link/network "
        "code only, photonic+DBA+gateway bypassed, so a gateway-only "
        "change predicts no move here"
    ),
    "sparse_scenarios": (
        "near-idle run plus three scenario replays: is_idle/skip spans, "
        "ScenarioPlayer, faults, DBA reallocation; a busy-cycle win that "
        "taxes the idle protocol shows here as a loss"
    ),
    "sweep_cold": (
        "first 24-point quick sweep into a fresh sharded store: grid "
        "expansion, key hashing, per-point construction and store writes "
        "beside short simulations"
    ),
    "sweep_resume": (
        "resume of a fully stored 4608-point paper grid plus a one-shard "
        "sub-grid: shard open/parse, hashing, contains/get; simulates "
        "nothing, so simulator changes predict no move"
    ),
    "service_job": (
        "fresh daemon, two warm 288-point jobs, one 2-point simulated job, "
        "four content-hash replays: handshake, job frames, runner thread, "
        "streaming; wire/service changes move only this"
    ),
}

#: End-to-end metrics every workload reports and the driver gates:
#: ``(name, unit, better, bound, driver_bound)``. All four are never
#: zero. ``bound`` is the relative worsening of the median that counts
#: as a regression when two commits are measured *on the same seed*
#: (``compare``, ``--check``); ``driver_bound`` is what
#: ``BENCHMARK.json`` carries, for runs that each draw another seed —
#: a different seed is a different input and moves a simulated op by
#: several percent on its own, so it sits above the measured
#: cross-seed spread (README, "Measured run-to-run spread").
GATED: Tuple[Tuple[str, str, str, float, float], ...] = (
    ("op_s", "s", "lower", 0.10, 0.25),
    ("op_cpu_s", "s", "lower", 0.10, 0.25),
    ("setup_s", "s", "lower", 0.25, 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10, 0.10),
)

#: End-to-end metrics that apply to some workloads only (derived from
#: ``op_s`` by a per-workload constant) or may legitimately be zero;
#: reported by the full run and ``--check``, not by the driver.
DERIVED: Tuple[Tuple[str, str, str, float], ...] = (
    ("sim_cycles_per_s", "cycles/s", "higher", 0.10),
    ("points_per_s", "points/s", "higher", 0.10),
    ("failed_ratio", "ops/ops", "lower", 0.0),
)

#: Every end-to-end row as ``(name, unit, better, bound)``.
END_TO_END = tuple(row[:4] for row in GATED) + DERIVED

#: name -> ``(unit, better, bound)`` of every end-to-end row.
E2E: Dict[str, Tuple[str, str, float]] = {
    name: (unit, better, bound) for name, unit, better, bound in END_TO_END
}


def _per_layer() -> List[Tuple[str, str, str, str]]:
    """``(name, unit, better, moves)`` for every per-layer metric."""
    busy = "op_s@photonic_busy,electrical_busy"
    rows = [
        ("host.cal_s", "s", "lower", "-"),
        ("host.nproc", "count", "higher", "-"),
        ("host.trace_overhead_ratio", "ratio", "lower", "-"),
        ("sim.tick_ns", "ns", "lower", busy),
        ("sim.idle_jump_us", "us", "lower", "op_s@sparse_scenarios"),
        ("sim.event_ns", "ns", "lower", "op_s@sparse_scenarios"),
        ("noc.packetize_ns_per_flit", "ns", "lower", busy),
        ("noc.vc_ns_per_flit", "ns", "lower", busy),
        ("noc.mesh_ns_per_flit_hop", "ns", "lower",
         "op_s@electrical_busy; none@photonic_busy"),
        ("noc.mean_hops", "count", "lower", "-"),
        ("photonic.channel_ns_per_flit", "ns", "lower", "op_s@photonic_busy"),
        ("photonic.channel_util_mean", "ratio", "higher",
         "explains sim_cycles_per_s@photonic_busy"),
        ("photonic.stall_ratio", "ratio", "lower",
         "explains sim_cycles_per_s@photonic_busy"),
        ("dba.token_round_us", "us", "lower",
         "op_s@photonic_busy,sparse_scenarios"),
        ("dba.token_rounds", "count", "lower", "-"),
    ]
    for arch in ("dhetpnoc", "firefly", "electrical"):
        rows.append((f"arch.build_ms.{arch}", "ms", "lower", "op_s@sweep_cold"))
    for arch in ("dhetpnoc", "firefly", "electrical"):
        target = "electrical_busy" if arch == "electrical" else "photonic_busy"
        rows.append((
            f"arch.run_us_per_cycle.{arch}", "us", "lower",
            f"op_s,sim_cycles_per_s@{target}",
        ))
    rows += [
        ("arch.submit_ns", "ns", "lower", "op_s@photonic_busy"),
        ("arch.finalize_us", "us", "lower", "op_s@photonic_busy"),
        ("arch.nack_ratio", "ratio", "lower",
         "explains sim_cycles_per_s@photonic_busy"),
        ("arch.refused_ratio", "ratio", "lower",
         "explains sim_cycles_per_s@photonic_busy"),
        ("traffic.gen_tick_ns", "ns", "lower",
         "op_s@photonic_busy,electrical_busy,sparse_scenarios"),
        ("traffic.bind_us", "us", "lower", "op_s@sweep_cold"),
        ("scenarios.build_fp_us", "us", "lower", "op_s@sparse_scenarios"),
        ("scenarios.player_ratio", "ratio", "lower",
         "op_s@sparse_scenarios; none@photonic_busy"),
    ]
    packages = (
        "sim", "noc", "photonic", "dba", "arch", "traffic", "scenarios",
        "energy",
    )
    for workload in SIMULATOR_WORKLOADS:
        for pkg in packages + ("py",):
            rows.append((
                f"{pkg}.calls_per_cycle.{workload}", "count", "lower",
                f"op_s@{workload}",
            ))
        for pkg in packages:
            rows.append((
                f"{pkg}.self_share.{workload}", "ratio", "lower",
                f"op_s@{workload} (profiler-skewed share)",
            ))
        rows.append((
            f"arch.gateway_ticks_per_cycle.{workload}", "count", "lower",
            "op_s@sparse_scenarios",
        ))
    rows += [
        ("runner.build_ms", "ms", "lower", "op_s@sweep_cold"),
        ("runner.run_s", "s", "lower", "op_s@sweep_cold"),
        ("runner.collect_ms", "ms", "lower", "op_s@sweep_cold"),
        ("sweep.expand_us_per_point", "us", "lower", "op_s@sweep_resume"),
        ("sweep.key_us_per_point", "us", "lower", "op_s@sweep_resume"),
        ("sweep.pool_overhead_ms_per_point", "ms", "lower",
         "future pooled-sweep claims; none@sweep_cold"),
    ]
    for backend in ("memory", "jsonl", "sharded"):
        rows.append((f"store.put_us.{backend}", "us", "lower", "op_s@sweep_cold"))
    for backend in ("jsonl", "sharded"):
        rows.append((f"store.open_ms.{backend}", "ms", "lower", "op_s@sweep_resume"))
    for backend in ("memory", "jsonl", "sharded"):
        rows.append((f"store.get_us.{backend}", "us", "lower", "op_s@sweep_resume"))
    for backend in ("memory", "jsonl", "sharded"):
        rows.append((f"store.scan_ms.{backend}", "ms", "lower", "op_s@sweep_resume"))
    rows += [
        ("store.codec_us", "us", "lower", "op_s@sweep_resume,service_job"),
        ("store.bytes_per_record", "bytes", "lower",
         "op_s@sweep_resume,service_job"),
        ("api.import_ms", "ms", "lower", "setup_s@every workload"),
        ("api.spec_roundtrip_us", "us", "lower", "op_s@service_job"),
        ("fabric.frame_us", "us", "lower", "op_cpu_s,op_s@service_job"),
        ("fabric.codec_us", "us", "lower", "op_cpu_s,op_s@service_job"),
        ("fabric.dispatch_ms_per_point", "ms", "lower",
         "no end-to-end workload yet (item 3's merge)"),
        ("service.start_ms", "ms", "lower", "op_s@service_job"),
        ("service.first_point_ms", "ms", "lower", "op_s@service_job"),
        ("service.job_ms_p50", "ms", "lower",
         "op_s,op_cpu_s,points_per_s@service_job"),
        ("service.job_ms_max", "ms", "lower", "op_s@service_job (tail)"),
        ("service.replay_ms_p50", "ms", "lower",
         "op_s,op_cpu_s@service_job"),
        ("service.replay_ms_p90", "ms", "lower", "op_s@service_job (tail)"),
        ("service.stream_us_per_point", "us", "lower",
         "points_per_s@service_job"),
    ]
    return rows


PER_LAYER = tuple(_per_layer())

#: Per-layer metrics that are exact counts of simulated or structural
#: events: they repeat run to run and ``--check`` requires them equal.
COUNT_METRICS = frozenset(
    name
    for name, unit, _better, _moves in PER_LAYER
    if unit == "count" and name != "host.nproc"
) | {
    "photonic.channel_util_mean", "photonic.stall_ratio",
    "arch.nack_ratio", "arch.refused_ratio", "store.bytes_per_record",
}


def benchmark_json() -> dict:
    """The driver-facing description (``BENCHMARK.json``, exact keys)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, _same_seed, bound in GATED
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
