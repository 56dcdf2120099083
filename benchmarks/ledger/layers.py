"""Isolated layer drivers: each layer's public functions, timed from outside.

One function per layer returns ``{metric name: value}`` for the rows of
``catalog.PER_LAYER`` it owns. Drivers build fixed inputs from the seed,
call only public names of ``src/repro`` and time with the harness's own
clock; nothing here reads a private attribute or edits program code.
Timings are medians over a few repetitions of a fixed amount of work
(they have no bound — they exist to say *where* an end-to-end move came
from); counts are exact and repeat run to run.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.arch.config import SystemConfig
from repro.dba.controller import DBAController, TokenRing
from repro.dba.token import WavelengthToken
from repro.experiments.runner import Fidelity
from repro.experiments.store import (
    ResultStore,
    config_fingerprint,
    make_backend,
    open_store,
    result_from_dict,
    result_key,
    result_to_dict,
)
from repro.experiments.sweep import FabricExecutor
from repro.fabric.coordinator import Coordinator
from repro.fabric.protocol import (
    point_from_dict,
    point_to_dict,
    recv_message,
    result_roundtrip,
    send_message,
)
from repro.fabric.transport import make_transport
from repro.noc.buffer import VirtualChannelBuffer
from repro.noc.flit import Packet, packetize
from repro.noc.network import ElectricalNetwork
from repro.noc.router import RouterConfig
from repro.noc.routing import DimensionOrderRouting
from repro.noc.topology import mesh
from repro.photonic.channel import DataChannel
from repro.photonic.reservation import ReservationFlit
from repro.photonic.wavelength import WavelengthId
from repro.scenarios.library import build_scenario
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.sim.engine import ClockedComponent, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import bandwidth_set_by_index
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import pattern_by_name

from benchmarks.ledger.catalog import SIMULATOR_WORKLOADS
from benchmarks.ledger.trace import (
    SIM_PACKAGES,
    Tracer,
    profile_attribution,
    traced_run_one,
)
from benchmarks.ledger.workloads import (
    WORKLOADS,
    _fidelity,
    _paper_spec,
    seed_store,
    simulate_donors,
)

Metrics = Dict[str, float]


def _median_seconds(fn: Callable[[], object], reps: int) -> float:
    """Median wall seconds of *reps* calls of *fn* (one untimed first)."""
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

class _Stub(ClockedComponent):
    """A component that does nothing, always active or always idle."""

    def __init__(self, idle: bool) -> None:
        self._idle = idle

    def tick(self, cycle: int) -> None:
        pass

    def is_idle(self) -> bool:
        return self._idle


def sim_layer() -> Metrics:
    """Engine floor: per component-tick, per idle jump, per fired event."""
    n_components, cycles = 16, 2_000

    def busy() -> None:
        sim = Simulator()
        for _ in range(n_components):
            sim.register(_Stub(idle=False))
        sim.run(cycles)

    def idle(events_per_stop: int) -> Callable[[], None]:
        def run() -> None:
            sim = Simulator()
            for _ in range(n_components):
                sim.register(_Stub(idle=True))
            for stop in range(100, 10_001, 100):
                for _ in range(events_per_stop):
                    sim.schedule(stop - 1, _noop)
            sim.run(10_000)
        return run

    tick = _median_seconds(busy, 5) / (cycles * n_components)
    # 100 jumped spans either way; the second form fires ten more
    # events per span, which separates per-event from per-span cost.
    sparse = _median_seconds(idle(1), 5)
    dense = _median_seconds(idle(11), 5)
    event = max(0.0, (dense - sparse) / 1_000)
    return {
        "sim.tick_ns": tick * 1e9,
        "sim.event_ns": event * 1e9,
        "sim.idle_jump_us": max(0.0, sparse - 100 * event) / 100 * 1e6,
    }


def _noop() -> None:
    pass


# ---------------------------------------------------------------------------
# noc / photonic / dba
# ---------------------------------------------------------------------------

def noc_layer(seed: int) -> Metrics:
    """Packetize, VC buffer churn and the mesh driven without any
    photonic architecture around it."""
    packet = Packet(src=0, dst=1, n_flits=64, flit_bits=32)
    packetize_s = _median_seconds(lambda: packetize(packet), 50) / 64

    flits = packetize(packet)

    def vc_churn() -> None:
        vc = VirtualChannelBuffer(64)
        for cycle, flit in enumerate(flits):
            vc.push(flit, cycle)
        if not vc.has_complete_packet():
            raise AssertionError("whole packet buffered but not complete")
        for cycle in range(64, 128):
            vc.pop(cycle)

    vc_s = _median_seconds(vc_churn, 50) / 64

    side, n_packets, n_flits = 8, 96, 8
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(side * side), 2)) for _ in range(n_packets)]
    hops = [
        abs(s % side - d % side) + abs(s // side - d // side) for s, d in pairs
    ]
    mean_hops = sum(hops) / len(hops)

    def drive_mesh() -> None:
        topology = mesh(side, side)
        net = ElectricalNetwork(
            topology,
            router_config=RouterConfig(n_vcs=4, vc_depth=16),
            routing=DimensionOrderRouting(topology),
        )
        sim = Simulator()
        sim.register(net)
        for src, dst in pairs:
            net.submit(Packet(src=src, dst=dst, n_flits=n_flits, flit_bits=32))
        if not net.drain(sim):
            raise AssertionError("mesh did not drain")
        if net.metrics.packets_delivered != n_packets:
            raise AssertionError("mesh lost packets")

    mesh_s = _median_seconds(drive_mesh, 3)
    return {
        "noc.packetize_ns_per_flit": packetize_s * 1e9,
        "noc.vc_ns_per_flit": vc_s * 1e9,
        "noc.mesh_ns_per_flit_hop": mesh_s / (n_packets * n_flits * mean_hops) * 1e9,
        "noc.mean_hops": mean_hops,
    }


def photonic_layer() -> Metrics:
    """One 64-flit packet streamed over an 8-wavelength data channel."""
    packet = Packet(src=0, dst=8, n_flits=64, flit_bits=32)
    flits = packetize(packet)
    reservation = ReservationFlit(0, 2, packet.pid, packet.n_flits)

    def stream() -> None:
        channel = DataChannel(0)
        channel.begin(reservation, 64, 32, 8, 0)
        fed = 0
        cycle = 0
        while channel.busy:
            for _ in range(channel.wanted_flits()):
                channel.feed(flits[fed])
                fed += 1
            channel.tick(cycle)
            cycle += 1

    return {
        "photonic.channel_ns_per_flit": _median_seconds(stream, 50) / 64 * 1e9,
    }


def dba_layer() -> Metrics:
    """One synchronous token round over 16 controllers, fixed demand."""
    controllers = [
        DBAController(c, 16, 4, [WavelengthId.from_flat(c)], 8)
        for c in range(16)
    ]
    for controller in controllers:
        controller.update_core_demand_uniform(0, 4)
    token = WavelengthToken(
        [WavelengthId.from_flat(16 + i) for i in range(48)]
    )
    ring = TokenRing(Simulator(), controllers, token)
    return {
        "dba.token_round_us":
            _median_seconds(ring.run_round_immediately, 50) * 1e6,
    }


# ---------------------------------------------------------------------------
# arch / traffic / scenarios / runner: reference runs
# ---------------------------------------------------------------------------

def arch_layer(seed: int, smoke: bool) -> Metrics:
    """One replicated run per architecture at the busy operating point.

    Phase spans give build/run/finalize cost; the program's own
    counters, read after the run, give the wasted-work ratios.
    """
    out: Metrics = {}
    photonic = _fidelity("ledger-ref", 2_000, 200, (0.5,), smoke)
    electrical = _fidelity("ledger-ref-mesh", 1_000, 100, (0.5,), smoke)
    sent = nacked = accepted = refused = busy = stalled = 0
    utilisation: List[float] = []
    for arch_name in ("dhetpnoc", "firefly", "electrical"):
        fidelity = electrical if arch_name == "electrical" else photonic
        run = traced_run_one(
            Tracer(), arch_name, 1, "skewed3", 600.0, fidelity, seed
        )
        out[f"arch.build_ms.{arch_name}"] = run.build_s * 1e3
        out[f"arch.run_us_per_cycle.{arch_name}"] = run.run_s / run.cycles * 1e6
        if arch_name == "electrical":
            continue
        arch = run.arch
        sent += arch.metrics.reservations_sent
        nacked += arch.metrics.reservations_nacked
        accepted += arch.metrics.packets_accepted
        refused += arch.metrics.packets_refused
        utilisation.extend(arch.channel_utilisation().values())
        busy += sum(g.channel.busy_cycles for g in arch.gateways)
        stalled += sum(g.channel.stalled_cycles for g in arch.gateways)
        if arch_name == "dhetpnoc":
            out["arch.submit_ns"] = run.submit_s / run.submit_calls * 1e9
            out["arch.finalize_us"] = run.finalize_s * 1e6
            out["dba.token_rounds"] = arch.token_ring.rounds_completed
    out["arch.nack_ratio"] = nacked / sent
    out["arch.refused_ratio"] = refused / (accepted + refused)
    out["photonic.channel_util_mean"] = statistics.fmean(utilisation)
    out["photonic.stall_ratio"] = stalled / busy
    return out


def traffic_layer(seed: int) -> Metrics:
    """Pattern binding and generator ticks into an always-accept sink."""
    bw_set = bandwidth_set_by_index(1)
    config = SystemConfig(bw_set=bw_set)

    def bind():
        return pattern_by_name("skewed3").bind(
            bw_set, config.n_clusters, config.cores_per_cluster,
            RandomStreams(seed).get("placement"),
        )

    bind_s = _median_seconds(bind, 20)
    generator = TrafficGenerator.for_offered_gbps(
        bind(), 600.0, RandomStreams(seed).get("traffic"),
        lambda _packet: True, config.clock_hz,
    )
    ticks = 2_000

    def tick_many() -> None:
        for cycle in range(ticks):
            generator.tick(cycle)

    return {
        "traffic.bind_us": bind_s * 1e6,
        "traffic.gen_tick_ns": _median_seconds(tick_many, 3) / ticks * 1e9,
    }


def scenarios_layer(seed: int, smoke: bool) -> Metrics:
    """Schedule build+fingerprint, and the player's cost as a ratio:
    the ``steady`` scenario reproduces the scenario-less run bit for
    bit, so their time ratio is what the player adds."""
    build_s = _median_seconds(
        lambda: build_scenario("storm_over_diurnal", 10_000).fingerprint(), 10
    )
    fidelity = _fidelity("ledger-player", 1_500, 200, (0.5,), smoke)
    with Session() as session:
        def run(scenario):
            start = time.perf_counter()
            result = session.run_one(
                "dhetpnoc", 1, "skewed3", 400.0,
                fidelity=fidelity, seed=seed, scenario=scenario,
            )
            return time.perf_counter() - start, result

        run(None)
        # Best of two alternating pairs: the runs are short, and the
        # ratio of two noisy times is noisier than either.
        pairs = [(run(None), run("steady")) for _ in range(2)]
        plain_s = min(pair[0][0] for pair in pairs)
        steady_s = min(pair[1][0] for pair in pairs)
        plain, steady = pairs[0][0][1], pairs[0][1][1]
    if (steady.delivered_gbps, steady.packets_delivered) != (
        plain.delivered_gbps, plain.packets_delivered
    ):
        raise AssertionError("steady scenario differs from scenario-less run")
    return {
        "scenarios.build_fp_us": build_s * 1e6,
        "scenarios.player_ratio": steady_s / plain_s,
    }


def runner_layer(seed: int, smoke: bool) -> Metrics:
    """The three phases of one sweep_cold point, averaged over four."""
    fidelity = _fidelity("ledger-sweep", 600, 100, (0.25, 0.6, 1.0), smoke)
    offered = 0.6 * bandwidth_set_by_index(1).aggregate_gbps
    runs = [
        traced_run_one(Tracer(), arch, 1, pattern, offered, fidelity, seed)
        for arch in ("firefly", "dhetpnoc")
        for pattern in ("uniform", "skewed3")
    ]
    return {
        "runner.build_ms": statistics.fmean(r.build_s for r in runs) * 1e3,
        "runner.run_s": statistics.fmean(r.run_s for r in runs),
        "runner.collect_ms": statistics.fmean(r.collect_s for r in runs) * 1e3,
    }


def profile_layer(seed: int, smoke: bool, scratch: str) -> Metrics:
    """One ``cProfile`` pass per simulator workload at a fifth of its
    cycles (a tenth of that in smoke runs): calls per simulated cycle
    by package, each package's share of profiled self time, and
    gateway ticks per cycle."""
    out: Metrics = {}
    for name in SIMULATOR_WORKLOADS:
        workload = WORKLOADS[name](seed, smoke, scratch)
        try:
            workload.calls = tuple(
                (arch, pattern, gbps, _profile_fidelity(fidelity), scenario)
                for arch, pattern, gbps, fidelity, scenario in workload.calls
            )
            cycles = sum(c[3].total_cycles for c in workload.calls)
            by_package, gateway_ticks = profile_attribution(workload.op)
        finally:
            workload.close()
        total_self = sum(by_package[pkg]["self_s"] for pkg in SIM_PACKAGES)
        for pkg, row in by_package.items():
            out[f"{pkg}.calls_per_cycle.{name}"] = row["calls"] / cycles
            if pkg != "py":
                out[f"{pkg}.self_share.{name}"] = row["self_s"] / total_self
        out[f"arch.gateway_ticks_per_cycle.{name}"] = gateway_ticks / cycles
    return out


def _profile_fidelity(fidelity: Fidelity) -> Fidelity:
    return Fidelity(
        fidelity.name + "-profile",
        max(40, fidelity.total_cycles // 5),
        max(4, fidelity.reset_cycles // 5),
        fidelity.load_fractions,
    )


# ---------------------------------------------------------------------------
# sweep / store
# ---------------------------------------------------------------------------

def sweep_layer(seed: int, smoke: bool, scratch: str) -> Metrics:
    """Grid expansion, key hashing, and what a worker pool costs when it
    cannot help (two workers under a one-CPU pin)."""
    spec = _paper_spec(range(seed, seed + (1 if smoke else 16)))
    sweep_spec = spec.to_sweep_spec()
    n_points = spec.n_points()
    expand_s = _median_seconds(sweep_spec.expand, 3)
    points = sweep_spec.expand()
    digests = {
        index: config_fingerprint(
            SystemConfig(bw_set=bandwidth_set_by_index(index))
        )
        for index in spec.bw_sets
    }

    def hash_all() -> None:
        for p in points:
            result_key(
                p.arch, p.bw_set_index, p.pattern, p.offered_gbps, p.seed,
                spec.fidelity, config_digest=digests[p.bw_set_index],
            )

    key_s = _median_seconds(hash_all, 3)

    # A six-point slice of sweep_cold's grid (one set, one pattern):
    # the whole grid twice would be most of the traced run's budget.
    pool_spec = ExperimentSpec(
        archs=("firefly", "dhetpnoc"), bw_sets=(1,), patterns=("skewed3",),
        seeds=(seed,),
        fidelity=_fidelity("ledger-sweep", 600, 100, (0.25, 0.6, 1.0), smoke),
    )

    def sweep(workers: int) -> float:
        start = time.perf_counter()
        with Session(workers=workers) as session:
            session.run(pool_spec)
        return time.perf_counter() - start

    sweep(1)
    serial_s, pooled_s = sweep(1), sweep(2)
    return {
        "sweep.expand_us_per_point": expand_s / n_points * 1e6,
        "sweep.key_us_per_point": key_s / n_points * 1e6,
        "sweep.pool_overhead_ms_per_point":
            (pooled_s - serial_s) / pool_spec.n_points() * 1e3,
    }


def store_layer(seed: int, smoke: bool, scratch: str, donors) -> Metrics:
    """Put, open, get and scan per backend on the resume-sized store."""
    out: Metrics = {}
    spec = _paper_spec(range(seed, seed + (1 if smoke else 16)))
    root = tempfile.mkdtemp(prefix="store-", dir=scratch)
    try:
        paths = {
            "memory": None,
            "jsonl": os.path.join(root, "store.jsonl"),
            "sharded": os.path.join(root, "shards"),
        }
        n_put = 200
        for backend, path in paths.items():
            store = ResultStore(backend=make_backend(backend, path))
            start = time.perf_counter()
            expected = seed_store(store, spec, donors)
            seeded_s = time.perf_counter() - start
            # Seeding *is* the put measurement: put + flush per record
            # (minus the key hashing, measured under sweep.*).
            out[f"store.put_us.{backend}"] = seeded_s / len(expected) * 1e6
            keys = [key for key, _ in store][:n_put]
            coords = [
                (r.arch, r.bw_set_index) for r in expected[:n_put]
            ]
            if path is not None:
                def reopen(path=path, backend=backend):
                    fresh = open_store(path, backend)
                    if not fresh.contains(keys[0], coords[0]):
                        raise AssertionError("seeded key missing after reopen")
                    return fresh

                out[f"store.open_ms.{backend}"] = (
                    _median_seconds(reopen, 3) * 1e3
                )
                store = reopen()

            def get_all(store=store) -> None:
                for key, coord in zip(keys, coords):
                    store.get(key, coord)

            out[f"store.get_us.{backend}"] = (
                _median_seconds(get_all, 5) / len(keys) * 1e6
            )
            out[f"store.scan_ms.{backend}"] = (
                _median_seconds(lambda s=store: sum(1 for _ in s), 3) * 1e3
            )
            if backend == "sharded":
                size = sum(
                    os.path.getsize(os.path.join(path, name))
                    for name in os.listdir(path)
                )
                out["store.bytes_per_record"] = size / len(expected)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    with Session() as session:
        phased = session.run_one(
            "dhetpnoc", 1, "skewed3", 400.0, seed=seed, scenario="fault_storm",
            fidelity=_fidelity("ledger-codec", 600, 100, (0.5,), smoke),
        )
    if not phased.phases:
        raise AssertionError("codec sample carries no phases")
    out["store.codec_us"] = _median_seconds(
        lambda: result_from_dict(result_to_dict(phased)), 50
    ) * 1e6
    return out


# ---------------------------------------------------------------------------
# api / fabric / service
# ---------------------------------------------------------------------------

def api_layer(seed: int) -> Metrics:
    """Import cost in a fresh interpreter, and spec (de)serialisation."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__
    )))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def import_api() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.api; repro.api.Session"],
            check=True, env=env, timeout=120,
        )

    spec = _paper_spec((seed,))
    return {
        "api.import_ms": _median_seconds(import_api, 2) * 1e3,
        "api.spec_roundtrip_us": _median_seconds(
            lambda: ExperimentSpec.from_dict(spec.to_dict()), 20
        ) * 1e6,
    }


def fabric_layer(seed: int, donors) -> Metrics:
    """Framing over a loopback connection, payload codecs, and a
    coordinator that answers a whole job from its store."""
    spec = _paper_spec((seed,))
    store = ResultStore()
    expected = seed_store(store, spec, donors)
    point = spec.to_sweep_spec().expand()[0]
    frame = {
        "type": "job_point", "job_id": "job-0", "index": 0,
        "key": "0" * 64, "result": result_to_dict(expected[0]),
        "cached": True,
    }
    transport = make_transport("tcp")
    listener = transport.listen(("127.0.0.1", 0))
    try:
        sender = transport.connect(listener.address, timeout=10.0)
        receiver = listener.accept()
        try:
            def one_frame() -> None:
                send_message(sender, frame)
                if recv_message(receiver)["key"] != frame["key"]:
                    raise AssertionError("frame changed on the wire")

            def frames() -> None:
                for _ in range(100):
                    one_frame()

            frame_s = _median_seconds(frames, 5) / 100
        finally:
            sender.close()
            receiver.close()
    finally:
        listener.close()

    def codec() -> None:
        point_from_dict(point_to_dict(point))
        result_roundtrip(expected[0])

    out = {
        "fabric.frame_us": frame_s * 1e6,
        "fabric.codec_us": _median_seconds(codec, 50) * 1e6,
    }
    coordinator = Coordinator(store=store)
    coordinator.start()
    try:
        local = ResultStore()
        executor = FabricExecutor(coordinator.address, store=local)
        try:
            def dispatch() -> None:
                local.clear()  # force every point over the wire
                results = executor.run(spec.to_sweep_spec())
                if executor.executed_count != 0 or results != expected:
                    raise AssertionError("fabric dispatch simulated or differs")

            out["fabric.dispatch_ms_per_point"] = (
                _median_seconds(dispatch, 3) / len(expected) * 1e3
            )
        finally:
            executor.close()
    finally:
        coordinator.stop()
    return out


def service_layer(seed: int, donors, daemons: int, replays: int) -> Metrics:
    """Daemon start, warm jobs and content-hash replays, one span each.

    *daemons* fresh services each run the two warm specs (a warm job
    goes through the runner thread) and then *replays* resubmissions
    of the first, so the percentiles have ``daemons * replays`` and
    ``daemons * 2`` samples.
    """
    specs = (_paper_spec((seed,)), _paper_spec((seed + 1,)))
    seeded = ResultStore()
    for spec in specs:
        seed_store(seeded, spec, donors)
    records = list(seeded)
    n_points = specs[0].n_points()
    starts, firsts, jobs, replay_s = [], [], [], []
    for _ in range(daemons):
        store = ResultStore()
        store.put_many(records)
        t0 = time.perf_counter()
        service = ExperimentService(store, workers=1, max_jobs=1)
        service.start()
        try:
            client = ServiceClient(service.address)
            starts.append(time.perf_counter() - t0)
            try:
                for spec in specs:
                    first: List[float] = []

                    def on_point(_i, _k, _r, _c, first=first):
                        if not first:
                            first.append(time.perf_counter())

                    t0 = time.perf_counter()
                    run = client.run_spec(spec, on_point=on_point)
                    jobs.append(time.perf_counter() - t0)
                    firsts.append(first[0] - t0)
                    if run.executed != 0 or len(run.results) != n_points:
                        raise AssertionError("warm job simulated or is short")
                for _ in range(replays):
                    t0 = time.perf_counter()
                    run = client.run_spec(specs[0])
                    replay_s.append(time.perf_counter() - t0)
                    if len(run.results) != n_points:
                        raise AssertionError("replay is short")
            finally:
                client.close()
        finally:
            service.stop()
    return {
        "service.start_ms": statistics.median(starts) * 1e3,
        "service.first_point_ms": statistics.median(firsts) * 1e3,
        "service.job_ms_p50": statistics.median(jobs) * 1e3,
        "service.job_ms_max": max(jobs) * 1e3,
        "service.replay_ms_p50": statistics.median(replay_s) * 1e3,
        "service.replay_ms_p90":
            statistics.quantiles(replay_s, n=10)[-1] * 1e3,
        "service.stream_us_per_point":
            statistics.median(replay_s) / n_points * 1e6,
    }


def measure_layers(seed: int, smoke: bool, scratch: str, full: bool) -> Metrics:
    """Every isolated driver, in stack order. *full* buys the service
    percentiles their full sample (n >= 400 replays) — the stand-alone
    traced run does; a driver-timed run keeps to its seconds."""
    daemons, replays = (10, 40) if full and not smoke else (4, 10)
    if smoke:
        daemons, replays = 2, 4
    donors = simulate_donors(seed, smoke)
    out: Metrics = {}
    for part in (
        sim_layer(),
        noc_layer(seed),
        photonic_layer(),
        dba_layer(),
        arch_layer(seed, smoke),
        traffic_layer(seed),
        scenarios_layer(seed, smoke),
        profile_layer(seed, smoke, scratch),
        runner_layer(seed, smoke),
        sweep_layer(seed, smoke, scratch),
        store_layer(seed, smoke, scratch, donors),
        api_layer(seed),
        fabric_layer(seed, donors),
        service_layer(seed, donors, daemons, replays),
    ):
        out.update(part)
    return out
