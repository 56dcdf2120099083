"""Outside-in tracing: spans, seam counters and profile attribution.

The ledger changes no program code, so every per-layer number is taken
from the harness's side of a public call: a span around the call, a
timing wrapper handed in where the API takes a callable or a backend,
or one ``cProfile`` pass aggregated by package. Spans live in memory
and are written out once, when the traced run ends.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, RunResult, build_arch
from repro.experiments.store import StoreBackend
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BandwidthSet, bandwidth_set_by_index
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import pattern_by_name

#: Packages of the simulator stack the profile pass attributes calls to.
SIM_PACKAGES = (
    "sim", "noc", "photonic", "dba", "arch", "traffic", "scenarios", "energy",
)


class Tracer:
    """In-memory span and counter recorder for one traced run.

    A span is ``{name, start, end, parent, op}``: ``parent`` is the
    index of the enclosing span (``None`` at top level) and ``op`` the
    pass it belongs to, so the spans of one op share an identifier.
    High-frequency seams accumulate ``count``/``total`` per name
    instead of one span per call.
    """

    now = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, List[float]] = {}
        self.op = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "start": self.now(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = self.now()
            self._stack.pop()

    def count(self, name: str, n: int, seconds: float) -> None:
        entry = self.counters.setdefault(name, [0, 0.0])
        entry[0] += n
        entry[1] += seconds

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, inner in zip(self.spans, covered):
            if span["end"] is not None:
                totals[span["name"]] = (
                    totals.get(span["name"], 0.0)
                    + span["end"] - span["start"] - inner
                )
        return totals

    def dump(self, path: str) -> None:
        """Write spans, counters and self times as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": {
                        k: {"count": v[0], "total_s": v[1]}
                        for k, v in self.counters.items()
                    },
                    "self_s": self.self_seconds(),
                },
                fh,
            )


class _TimedCall:
    """Wrap a callable, accumulating call count and total seconds."""

    __slots__ = ("fn", "count", "total")

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.count = 0
        self.total = 0.0

    def __call__(self, *args):
        start = time.perf_counter()
        try:
            return self.fn(*args)
        finally:
            self.total += time.perf_counter() - start
            self.count += 1


class _TimedGenerator:
    """A generator (or scenario player) whose ``tick`` is timed; every
    other attribute — ``is_idle``, ``reset_stats``, counters — is the
    wrapped object's own."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.tick = _TimedCall(inner.tick)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TimedBackend(StoreBackend):
    """A :class:`StoreBackend` that times every call into the real one.

    Passed to ``Session`` in place of the backend it wraps, so the
    store layer's share of a sweep is measured without touching it.
    """

    def __init__(self, inner: StoreBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.path = getattr(inner, "path", None)

    def _timed(self, name: str, fn: Callable, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.tracer.count(name, 1, time.perf_counter() - start)

    @property
    def corrupt_lines(self) -> int:
        return self.inner.corrupt_lines

    def get(self, key, coords=None):
        return self._timed("store.get", self.inner.get, key, coords)

    def contains(self, key, coords=None):
        return self._timed("store.contains", self.inner.contains, key, coords)

    def put(self, key, result):
        return self._timed("store.put", self.inner.put, key, result)

    def scan(self, coords=None):
        return self.inner.scan(coords)

    def flush(self):
        return self._timed("store.flush", self.inner.flush)

    def compact(self):
        return self.inner.compact()

    def clear(self):
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)


@dataclass
class TracedRun:
    """One replicated single-point run with its phase timings."""

    result: RunResult
    arch: object
    cycles: int
    build_s: float
    run_s: float
    collect_s: float
    finalize_s: float
    submit_calls: int
    submit_s: float
    gen_ticks: int


def traced_run_one(
    tracer: Tracer,
    arch_name: str,
    bw_set: Union[BandwidthSet, int],
    pattern_name: str,
    offered_gbps: float,
    fidelity: Fidelity,
    seed: int,
    scenario: Optional[str] = None,
) -> TracedRun:
    """``Session.run_one`` rebuilt from public pieces, one span per phase.

    The construction order, stream names and metric reads replicate the
    runner's single-point core exactly; the ledger's test and every
    traced pass assert the ``RunResult`` equals ``Session.run_one``'s
    field for field, so this copy cannot drift silently. The generator
    gets a timing wrapper as its ``submit`` callable (scenario-less
    runs) and its ``tick`` is timed through a proxy.
    """
    if isinstance(bw_set, int):
        bw_set = bandwidth_set_by_index(bw_set)
    with tracer.span("runner.build") as build:
        config = SystemConfig(bw_set=bw_set)
        streams = RandomStreams(seed)
        sim = Simulator(clock_hz=config.clock_hz, seed=seed)
        player = None
        submit = None
        if scenario is None:
            with tracer.span("traffic.bind"):
                pattern = pattern_by_name(pattern_name).bind(
                    bw_set, config.n_clusters, config.cores_per_cluster,
                    streams.get("placement"),
                )
            with tracer.span("arch.build"):
                arch = build_arch(arch_name, sim, config, pattern)
            submit = _TimedCall(arch.submit)
            source = TrafficGenerator.for_offered_gbps(
                pattern, offered_gbps, streams.get("traffic"), submit,
                config.clock_hz,
            )
        else:
            from repro.scenarios.library import build_scenario
            from repro.scenarios.player import ScenarioPlayer, initial_pattern

            with tracer.span("scenarios.build"):
                schedule = build_scenario(scenario, fidelity.total_cycles)
            with tracer.span("traffic.bind"):
                pattern = initial_pattern(
                    schedule, pattern_name, bw_set, config.n_clusters,
                    config.cores_per_cluster, streams,
                )
            with tracer.span("arch.build"):
                arch = build_arch(arch_name, sim, config, pattern)
            with tracer.span("scenarios.player"):
                player = ScenarioPlayer(
                    schedule, arch, pattern, offered_gbps, streams,
                    total_cycles=fidelity.total_cycles,
                    clock_hz=config.clock_hz,
                )
            source = player
        generator = _TimedGenerator(source)
        arch.attach_generator(generator)
    with tracer.span("runner.run") as run:
        sim.run_with_reset(fidelity.total_cycles, fidelity.reset_cycles)
    with tracer.span("runner.collect") as collect:
        with tracer.span("arch.finalize") as finalize:
            arch.finalize()
            if player is not None:
                player.finish(fidelity.total_cycles)
        metrics = arch.metrics
        result = RunResult(
            arch=arch_name,
            pattern=pattern_name,
            bw_set_index=bw_set.index,
            offered_gbps=offered_gbps,
            delivered_gbps=metrics.delivered_gbps(config.clock_hz),
            photonic_gbps=metrics.photonic_gbps(config.clock_hz),
            per_core_gbps=metrics.per_core_gbps(
                config.clock_hz, config.n_cores
            ),
            energy_per_message_pj=arch.energy_per_message_pj,
            mean_latency_cycles=metrics.latency.mean,
            acceptance_ratio=source.acceptance_ratio,
            packets_delivered=metrics.packets_delivered,
            reservations_nacked=metrics.reservations_nacked,
            laser_power_mw=arch.laser_power_mw(),
            lit_wavelengths=arch.lit_wavelengths(),
            scenario=scenario,
            phases=player.phase_stats() if player is not None else (),
        )
    if submit is not None:
        tracer.count("arch.submit", submit.count, submit.total)
    tracer.count("traffic.gen_tick", generator.tick.count, generator.tick.total)

    def seconds(span: dict) -> float:
        return span["end"] - span["start"]

    return TracedRun(
        result=result,
        arch=arch,
        cycles=fidelity.total_cycles,
        build_s=seconds(build),
        run_s=seconds(run),
        collect_s=seconds(collect),
        finalize_s=seconds(finalize),
        submit_calls=submit.count if submit is not None else 0,
        submit_s=submit.total if submit is not None else 0.0,
        gen_ticks=generator.tick.count,
    )


def _package_of(filename: str) -> Optional[str]:
    """``src/repro/<pkg>/...`` -> ``<pkg>`` for the simulator packages."""
    parts = filename.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 2):
        if parts[i] == "repro" and parts[i + 1] in SIM_PACKAGES:
            return parts[i + 1]
    return None


def profile_attribution(fn: Callable[[], object]) -> Tuple[Dict[str, dict], int]:
    """Run *fn* once under ``cProfile``; attribute calls by package.

    Returns ``({pkg: {"calls", "self_s"}}, gateway_ticks)`` where the
    pseudo-package ``py`` totals every call the interpreter profiled
    (builtins included) and ``gateway_ticks`` counts
    ``ClusterGateway.tick``. Call counts are exact and repeat run to
    run; self times carry the profiler's per-call skew, so only their
    *shares* are reported, labelled as such.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    by_package = {pkg: {"calls": 0, "self_s": 0.0} for pkg in SIM_PACKAGES}
    by_package["py"] = {"calls": 0, "self_s": 0.0}
    gateway_ticks = 0
    for (filename, _line, func), row in pstats.Stats(profiler).stats.items():
        _primitive, calls, self_s = row[0], row[1], row[2]
        by_package["py"]["calls"] += calls
        by_package["py"]["self_s"] += self_s
        pkg = _package_of(filename)
        if pkg is not None:
            by_package[pkg]["calls"] += calls
            by_package[pkg]["self_s"] += self_s
            if func == "tick" and filename.endswith("photonic_router.py"):
                gateway_ticks += calls
    return by_package, gateway_ticks
