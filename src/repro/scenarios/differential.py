"""Differential architecture checks over generated scenarios.

The thesis's claim is a *margin*: under shifting demand, d-HetPNoC's
token-based DBA should deliver more than the statically-split Firefly
baseline (with the electrical mesh as the non-photonic floor). The nine
library scenarios all confirm it — but they were written by the same
hands that wrote the simulator. This module runs *generated* schedules
(:mod:`repro.scenarios.generate`) through every registered architecture
at one operating point and flags the regimes where the margin inverts
(Firefly out-delivering d-HetPNoC) as structured, JSON-serialisable
:class:`Finding`\\ s.

A finding is self-contained: it embeds the full schedule script, the
generator seed, the operating point and every architecture's metrics,
so it can be re-verified (:func:`verify_finding`), shrunk
(``tools/fuzz_triage.py``) and finally curated into the scenario
library as a plain loadable JSON script.

All runs go through :meth:`repro.api.session.Session.run_one` (the
same single-run core as every sweep), with the *same* seed per
architecture — the workload is the controlled variable, the
architecture is the treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scenarios.generate import sample_schedule
from repro.scenarios.library import register_schedule
from repro.scenarios.schedule import ScenarioError, ScenarioSchedule

#: Architectures a differential point compares, margin defined over the
#: first two (proposed minus baseline).
DEFAULT_ARCHS: Tuple[str, ...] = ("dhetpnoc", "firefly", "electrical")


def fuzz_fidelity(total_cycles: int, load_fraction: float):
    """A one-point fidelity matching a generated schedule's cycle span.

    Generated schedules validate against the ``total_cycles`` they were
    sampled for, so the fidelity must match it exactly; the warm-up
    reset is a fifth of the run (same ratio as the quick fidelity).
    """
    from repro.experiments.runner import Fidelity

    return Fidelity(
        f"fuzz-{total_cycles}",
        total_cycles,
        max(1, total_cycles // 5),
        (load_fraction,),
    )


@dataclass(frozen=True)
class Finding:
    """One differential data point, margin inversion flagged.

    ``schedule`` is the full JSON script (``ScenarioSchedule.to_dict``
    form), so a finding file is loadable wherever a scenario script is
    accepted; the rest pins the operating point and the observations.
    """

    schedule: dict
    fingerprint: str
    seed: int
    total_cycles: int
    bw_set_index: int
    load_fraction: float
    pattern: str
    delivered_gbps: Dict[str, float]
    mean_latency_cycles: Dict[str, float]
    energy_per_message_pj: Dict[str, float]
    #: d-HetPNoC delivered minus Firefly delivered (Gb/s).
    margin_gbps: float
    #: True when the margin inverted (Firefly strictly out-delivered).
    inverted: bool

    def schedule_object(self) -> ScenarioSchedule:
        """The embedded script as a live schedule object."""
        return ScenarioSchedule.from_dict(self.schedule)

    def to_dict(self) -> dict:
        """JSON-able form (what ``scenarios fuzz --out`` writes)."""
        return {
            "schedule": self.schedule,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "total_cycles": self.total_cycles,
            "bw_set_index": self.bw_set_index,
            "load_fraction": self.load_fraction,
            "pattern": self.pattern,
            "delivered_gbps": dict(self.delivered_gbps),
            "mean_latency_cycles": dict(self.mean_latency_cycles),
            "energy_per_message_pj": dict(self.energy_per_message_pj),
            "margin_gbps": self.margin_gbps,
            "inverted": self.inverted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        import dataclasses

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown finding fields {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        return cls(**data)


def differential_point(
    schedule: ScenarioSchedule,
    seed: int = 1,
    bw_set_index: int = 1,
    load_fraction: float = 0.6,
    total_cycles: Optional[int] = None,
    pattern: str = "uniform",
    archs: Sequence[str] = DEFAULT_ARCHS,
) -> Finding:
    """Run *schedule* on every architecture and build the finding.

    The schedule is registered (``override=True`` — fuzz schedules are
    transient, and a shrunk candidate legitimately reuses its ancestor's
    name with different content) and simulated at one operating point
    per architecture with the same verbatim seed. ``total_cycles``
    defaults to the cycle the schedule's last phase needs plus the span
    of its first, but generated schedules should pass the exact
    ``total_cycles`` they were sampled for.
    """
    from repro.api.session import Session
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index

    if total_cycles is None:
        total_cycles = schedule.phases[-1].start_cycle + 1
    schedule.phase_bounds(total_cycles)  # fail loudly before simulating
    register_schedule(schedule, override=True)
    fidelity = fuzz_fidelity(total_cycles, load_fraction)
    bw_set = bandwidth_set_by_index(bw_set_index)
    offered = load_fraction * bw_set.aggregate_gbps
    session = Session()
    delivered: Dict[str, float] = {}
    latency: Dict[str, float] = {}
    epm: Dict[str, float] = {}
    for arch in archs:
        result = session.run_one(
            arch, bw_set, pattern, offered,
            fidelity=fidelity, seed=seed, scenario=schedule.name,
        )
        delivered[arch] = result.delivered_gbps
        latency[arch] = result.mean_latency_cycles
        epm[arch] = result.energy_per_message_pj
    margin = delivered.get("dhetpnoc", 0.0) - delivered.get("firefly", 0.0)
    inverted = (
        "dhetpnoc" in delivered
        and "firefly" in delivered
        and delivered["dhetpnoc"] < delivered["firefly"]
    )
    return Finding(
        schedule=schedule.to_dict(),
        fingerprint=schedule.fingerprint(),
        seed=seed,
        total_cycles=total_cycles,
        bw_set_index=bw_set_index,
        load_fraction=load_fraction,
        pattern=pattern,
        delivered_gbps=delivered,
        mean_latency_cycles=latency,
        energy_per_message_pj=epm,
        margin_gbps=margin,
        inverted=inverted,
    )


def run_differential(
    count: int,
    base_seed: int = 1,
    total_cycles: int = 1500,
    bw_set_index: int = 1,
    load_fraction: float = 0.6,
    pattern: str = "uniform",
    archs: Sequence[str] = DEFAULT_ARCHS,
) -> List[Finding]:
    """Sample *count* schedules (seeds ``base_seed..base_seed+count-1``)
    and build one differential finding per schedule.

    Every finding is returned (not only inversions): the non-inverted
    points are the margin's supporting evidence and the dataset feed for
    the ROADMAP's learned-predictor arc; callers filter on
    ``finding.inverted`` when they only want the anomalies.
    """
    findings = []
    for i in range(count):
        seed = base_seed + i
        schedule = sample_schedule(seed, total_cycles)
        findings.append(
            differential_point(
                schedule,
                seed=seed,
                bw_set_index=bw_set_index,
                load_fraction=load_fraction,
                total_cycles=total_cycles,
                pattern=pattern,
                archs=archs,
            )
        )
    return findings


def verify_finding(finding: Finding, archs: Sequence[str] = DEFAULT_ARCHS) -> bool:
    """Re-run a finding's exact operating point; True when the margin
    inversion reproduces. The replay is bitwise-deterministic, so a
    saved finding that stops verifying means the *code* changed."""
    replay = differential_point(
        finding.schedule_object(),
        seed=finding.seed,
        bw_set_index=finding.bw_set_index,
        load_fraction=finding.load_fraction,
        total_cycles=finding.total_cycles,
        pattern=finding.pattern,
        archs=archs,
    )
    return replay.inverted
