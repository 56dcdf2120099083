"""Per-table and per-figure reproduction functions.

Each ``figure_*`` / ``table_*`` function returns a :class:`FigureResult`
whose rows regenerate the corresponding thesis exhibit; ``render()``
produces the ASCII form ``dhetpnoc-repro run`` prints. Every simulated
exhibit takes a :class:`~repro.api.session.Session` and reads its points
through that session's content-hash store, so e.g. figures 3-3, 3-4, 3-7 and
3-10 run over one session together cost one sweep per (architecture,
bandwidth set, pattern); without one, an exhibit runs in a private
in-memory session. Each exhibit first fans its whole grid out through
the session in one batch, so a session with ``workers > 1``
(``--workers`` on the CLI) simulates the exhibit in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.area.model import dhetpnoc_area_mm2, firefly_area_mm2
from repro.energy import params as energy_params
from repro.experiments.report import ascii_table, mean_spread, percent_change
from repro.experiments.runner import (
    Fidelity,
    QUICK_FIDELITY,
    RunResult,
    peak_of,
)
from repro.gpu.model import GpuMemoryModel
from repro.traffic.bandwidth_sets import (
    BANDWIDTH_SETS,
    BW_SET_1,
    BandwidthSet,
    is_canonical_set,
)
from repro.traffic.patterns import SKEW_FREQUENCIES

#: The pattern columns of figures 3-3/3-4/3-7/3-10.
CORE_PATTERNS: Tuple[str, ...] = ("uniform", "skewed1", "skewed2", "skewed3")

#: The case-study columns of figure 3-5.
CASE_STUDY_PATTERNS: Tuple[str, ...] = (
    "skewed_hotspot1",
    "skewed_hotspot2",
    "skewed_hotspot3",
    "skewed_hotspot4",
    "real_app",
)

#: Wavelength totals for the area scaling studies (figs. 3-6/3-8/3-9).
AREA_SWEEP_WAVELENGTHS: Tuple[int, ...] = (64, 128, 256, 512)


@dataclass
class FigureResult:
    """Structured reproduction of one thesis exhibit."""

    exhibit: str
    title: str
    headers: List[str]
    rows: List[list]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        out = ascii_table(self.headers, self.rows, title=f"{self.exhibit}: {self.title}")
        if self.notes:
            out += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return out

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


# ---------------------------------------------------------------------------
# Tables (static reproductions of the configuration tables)
# ---------------------------------------------------------------------------

def table_3_1() -> FigureResult:
    rows = [
        [s.name, s.total_wavelengths] + [f"{g:g}" for g in s.class_gbps]
        for s in BANDWIDTH_SETS
    ]
    return FigureResult(
        "Table 3-1",
        "Bandwidth sets (Gb/s per application class)",
        ["set", "total wavelengths", "class 0", "class 1", "class 2", "class 3"],
        rows,
    )


def table_3_2() -> FigureResult:
    rows = [
        [f"Skewed{level}"] + [f"{f * 100:g}%" for f in freqs]
        for level, freqs in sorted(SKEW_FREQUENCIES.items())
    ]
    return FigureResult(
        "Table 3-2",
        "Frequency of communication per bandwidth class (highest first)",
        ["pattern", "highest", "2nd", "3rd", "lowest"],
        rows,
    )


def table_3_3() -> FigureResult:
    from repro.arch.config import PAPER_RESET_CYCLES, PAPER_TOTAL_CYCLES, SystemConfig

    config = SystemConfig()
    rows = [
        ["cores", config.n_cores],
        ["clusters", config.n_clusters],
        ["cluster size", config.cores_per_cluster],
        ["clock (GHz)", config.clock_hz / 1e9],
        ["simulation cycles", PAPER_TOTAL_CYCLES],
        ["reset cycles", PAPER_RESET_CYCLES],
        ["VCs per port", config.n_vcs],
        ["buffer depth per VC (flits)", config.vc_depth_flits],
        ["switching", "wormhole"],
    ] + [
        [
            f"{s.name} packet",
            f"{s.packet_flits} flits x {s.flit_bits} bits",
        ]
        for s in BANDWIDTH_SETS
    ]
    return FigureResult("Table 3-3", "Simulation parameters", ["parameter", "value"], rows)


def table_3_4() -> FigureResult:
    rows = [
        ["Modulator/Demodulator", "40 fJ/bit"],
        ["Tuning", f"{energy_params.TUNING_MW_PER_NM} mW/nm"],
        ["Laser source", f"{energy_params.LASER_MW_PER_WAVELENGTH} mW/wavelength"],
    ]
    return FigureResult(
        "Table 3-4", "Power/energy of photonic components", ["component", "value"], rows
    )


def table_3_5() -> FigureResult:
    rows = [
        ["E_modulation", energy_params.E_MODULATION_PJ_PER_BIT],
        ["E_tuning", energy_params.E_TUNING_PJ_PER_BIT],
        ["E_launch", energy_params.E_LAUNCH_PJ_PER_BIT],
        ["E_buffer", energy_params.E_BUFFER_PJ_PER_BIT],
        ["E_router", energy_params.E_ROUTER_PJ_PER_BIT],
    ]
    return FigureResult(
        "Table 3-5", "Per-bit energy (pJ/bit)", ["component", "pJ/bit"], rows
    )


# ---------------------------------------------------------------------------
# Figure 1-1: GPU flit-size speedup motivation
# ---------------------------------------------------------------------------

def figure_1_1() -> FigureResult:
    model = GpuMemoryModel()
    rows = [[label, round(pct, 2)] for label, pct in model.study()]
    max_pct = max(pct for _label, pct in model.study())
    modest = sum(1 for _l, pct in model.study() if pct < 1.0)
    return FigureResult(
        "Figure 1-1",
        "Speedup of 1024B flits over 32B baseline (%)",
        ["benchmark (kernel launches)", "speedup %"],
        rows,
        notes=[
            f"max speedup {max_pct:.1f}% (thesis: up to 63%)",
            f"{modest} benchmarks below 1% (thesis: 'most ... below 1%')",
        ],
    )


# ---------------------------------------------------------------------------
# Figures 3-3 / 3-4: peak bandwidth and packet energy, both architectures
# ---------------------------------------------------------------------------

def _prefetch(
    session: Session,
    archs: Sequence[str],
    bw_sets: Sequence[BandwidthSet],
    patterns: Sequence[str],
    fidelity: Fidelity,
    seed: int,
) -> None:
    """Fan every needed sweep point out through *session* in one batch.

    Populates the session's store so the per-curve peak extraction that
    follows is pure cache hits; with ``workers > 1`` the whole grid — an
    exhibit's, or every claim's of a validation run — simulates in
    parallel instead of curve-by-curve. Customised bandwidth sets
    cannot be named by index, so they are left to :func:`_peak`'s
    per-curve sweep.
    """
    indices = tuple(s.index for s in bw_sets if is_canonical_set(s))
    if not indices or not patterns:
        return
    session.run(
        ExperimentSpec(
            archs=archs,
            bw_sets=indices,
            patterns=patterns,
            seeds=(seed,),
            fidelity=fidelity,
            derive_seeds=False,
        )
    )


def _peak(
    session: Session,
    arch: str,
    bw_set: BandwidthSet,
    pattern: str,
    fidelity: Fidelity,
    seed: int,
) -> RunResult:
    return peak_of(session.curve(arch, bw_set, pattern, fidelity, seed))


def _peak_pair(
    session: Session,
    bw_set: BandwidthSet,
    pattern: str,
    fidelity: Fidelity,
    seed: int,
) -> Tuple[RunResult, RunResult]:
    firefly = _peak(session, "firefly", bw_set, pattern, fidelity, seed)
    dhet = _peak(session, "dhetpnoc", bw_set, pattern, fidelity, seed)
    return firefly, dhet


def figure_3_3(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    bw_sets: Sequence[BandwidthSet] = BANDWIDTH_SETS,
    patterns: Sequence[str] = CORE_PATTERNS,
    session: Optional[Session] = None,
) -> FigureResult:
    session = session or Session()
    _prefetch(session, ("firefly", "dhetpnoc"), bw_sets, patterns, fidelity, seed)
    rows = []
    for bw_set in bw_sets:
        for pattern in patterns:
            firefly, dhet = _peak_pair(session, bw_set, pattern, fidelity, seed)
            rows.append(
                [
                    bw_set.name,
                    pattern,
                    round(firefly.delivered_gbps, 1),
                    round(dhet.delivered_gbps, 1),
                    round(
                        percent_change(dhet.delivered_gbps, firefly.delivered_gbps), 2
                    ),
                ]
            )
    return FigureResult(
        "Figure 3-3",
        "Peak bandwidth (Gb/s), Firefly vs d-HetPNoC",
        ["bw set", "pattern", "Firefly", "d-HetPNoC", "gain %"],
        rows,
        notes=["thesis: ~0.1% gain (uniform) rising to ~7-8% peak gain with skew"],
    )


def figure_3_3_replicated(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    bw_sets: Sequence[BandwidthSet] = (BW_SET_1,),
    patterns: Sequence[str] = CORE_PATTERNS,
    n_seeds: int = 3,
    session: Optional[Session] = None,
) -> FigureResult:
    """Figure 3-3 with error columns: peaks as mean +/- std across seeds.

    The seed axis runs ``seed, seed+1, ..., seed+n_seeds-1`` through
    :meth:`Session.replicated`, so the bandwidth-gain claim is reported
    with its replication uncertainty instead of a single lucky draw.
    """
    session = session or Session()
    summaries = session.replicated(
        ExperimentSpec(
            archs=("firefly", "dhetpnoc"),
            bw_sets=tuple(s.index for s in bw_sets),
            patterns=patterns,
            seeds=tuple(seed + i for i in range(n_seeds)),
            fidelity=fidelity,
        )
    )
    by_key = {(s.arch, s.bw_set_index, s.pattern): s for s in summaries}
    rows = []
    for bw_set in bw_sets:
        for pattern in patterns:
            ff = by_key[("firefly", bw_set.index, pattern)]
            dh = by_key[("dhetpnoc", bw_set.index, pattern)]
            rows.append(
                [
                    bw_set.name,
                    pattern,
                    mean_spread(ff.delivered_gbps.mean, ff.delivered_gbps.std),
                    mean_spread(dh.delivered_gbps.mean, dh.delivered_gbps.std),
                    round(
                        percent_change(
                            dh.delivered_gbps.mean, ff.delivered_gbps.mean
                        ),
                        2,
                    ),
                ]
            )
    return FigureResult(
        "Figure 3-3 (replicated)",
        f"Peak bandwidth (Gb/s) as mean +/- std over {n_seeds} seeds",
        ["bw set", "pattern", "Firefly", "d-HetPNoC", "gain %"],
        rows,
        notes=[
            "derived per-curve seeds decorrelate the replicates; the gain "
            "column compares seed means"
        ],
    )


def figure_3_4(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    bw_sets: Sequence[BandwidthSet] = BANDWIDTH_SETS,
    patterns: Sequence[str] = CORE_PATTERNS,
    session: Optional[Session] = None,
) -> FigureResult:
    session = session or Session()
    _prefetch(session, ("firefly", "dhetpnoc"), bw_sets, patterns, fidelity, seed)
    rows = []
    for bw_set in bw_sets:
        for pattern in patterns:
            firefly, dhet = _peak_pair(session, bw_set, pattern, fidelity, seed)
            rows.append(
                [
                    bw_set.name,
                    pattern,
                    round(firefly.energy_per_message_pj, 0),
                    round(dhet.energy_per_message_pj, 0),
                    round(
                        percent_change(
                            dhet.energy_per_message_pj, firefly.energy_per_message_pj
                        ),
                        2,
                    ),
                ]
            )
    return FigureResult(
        "Figure 3-4",
        "Packet energy at saturation (pJ/message), Firefly vs d-HetPNoC",
        ["bw set", "pattern", "Firefly", "d-HetPNoC", "change %"],
        rows,
        notes=["thesis: d-HetPNoC dissipates up to ~5% less energy"],
    )


# ---------------------------------------------------------------------------
# Figure 3-5: case studies (hotspot + real application)
# ---------------------------------------------------------------------------

def figure_3_5(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    bw_set: BandwidthSet = BW_SET_1,
    patterns: Sequence[str] = CASE_STUDY_PATTERNS,
    session: Optional[Session] = None,
) -> FigureResult:
    session = session or Session()
    _prefetch(session, ("firefly", "dhetpnoc"), (bw_set,), patterns, fidelity, seed)
    rows = []
    for pattern in patterns:
        firefly, dhet = _peak_pair(session, bw_set, pattern, fidelity, seed)
        rows.append(
            [
                pattern,
                round(firefly.per_core_gbps, 2),
                round(dhet.per_core_gbps, 2),
                round(firefly.energy_per_message_pj, 0),
                round(dhet.energy_per_message_pj, 0),
            ]
        )
    return FigureResult(
        "Figure 3-5",
        "Peak core bandwidth (Gb/s/core) and packet energy, case studies",
        ["pattern", "FF Gb/s/core", "dHet Gb/s/core", "FF EPM pJ", "dHet EPM pJ"],
        rows,
        notes=["thesis: d-HetPNoC peak bandwidth beats Firefly in all cases"],
    )


# ---------------------------------------------------------------------------
# Saturation-knee localisation (adaptive sweep vs analytic fluid model)
# ---------------------------------------------------------------------------

def saturation_knees(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    bw_set: BandwidthSet = BW_SET_1,
    patterns: Sequence[str] = ("uniform", "skewed3"),
    resolution: float = 0.1,
    session: Optional[Session] = None,
) -> FigureResult:
    """Adaptive knee localisation against the analytic fluid model.

    For each (architecture, pattern) curve the exhibit reports the
    closed-form knee prediction of
    :mod:`repro.analysis.saturation`, the knee measured by
    :meth:`Session.knee` (bisection to ``resolution``), the peak
    delivered bandwidth, and how many simulations the search spent
    versus the equivalent fixed grid.
    """
    session = session or Session()
    rows = []
    grid_points = max(1, round(max(fidelity.load_fractions) / resolution))
    for pattern in patterns:
        for arch in ("firefly", "dhetpnoc"):
            est = session.knee(
                arch, bw_set.index, pattern, fidelity, seed,
                resolution=resolution,
            )
            rows.append(
                [
                    pattern,
                    arch,
                    "-" if est.analytic_knee_gbps is None
                    else round(est.analytic_knee_gbps, 1),
                    round(est.knee_gbps, 1),
                    round(est.peak.delivered_gbps, 1),
                    est.n_evaluated,
                ]
            )
    return FigureResult(
        "Saturation knees",
        f"Analytic vs adaptively measured saturation knee ({bw_set.name})",
        ["pattern", "arch", "analytic knee Gb/s", "measured knee Gb/s",
         "peak Gb/s", "evals"],
        rows,
        notes=[
            f"adaptive bisection at resolution {resolution:g}: each curve "
            f"costs the listed evals instead of the {grid_points}-point "
            "fixed grid",
            "thesis fig. 3-3: the knee moves right (higher offered load) "
            "for d-HetPNoC as skew grows",
        ],
    )


# ---------------------------------------------------------------------------
# Closed-loop load shedding (feedback-rule scenario exhibit)
# ---------------------------------------------------------------------------

def closed_loop_shedding(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    bw_set: BandwidthSet = BW_SET_1,
    pattern: str = "skewed3",
    load_fraction: float = 0.6,
    session: Optional[Session] = None,
) -> FigureResult:
    """Feedback-controlled overload: observed latency sheds offered load.

    Plays the ``closed_loop_shedding`` scenario (calm phase, then a
    1.7x overload phase whose :class:`~repro.scenarios.schedule.
    FeedbackRule`\\ s watch windowed mean latency) on both
    architectures and reports the per-phase windows — delivered
    bandwidth, latency, phase-local EPM and how often the controller
    fired. The firing cycles are a deterministic function of the seed
    (rules evaluate on fixed cycle boundaries against observed
    counters), so the exhibit reproduces exactly.
    """
    from repro.scenarios.library import build_scenario

    session = session or Session()
    offered = load_fraction * bw_set.aggregate_gbps
    schedule = build_scenario("closed_loop_shedding", fidelity.total_cycles)
    rules = [r for p in schedule.phases for r in p.rules]
    shed = next(r for r in rules if r.action == "shed_load")
    restore = next(r for r in rules if r.action == "restore_load")
    rows = []
    fired = {}
    for arch in ("firefly", "dhetpnoc"):
        result = session.run_one(
            arch, bw_set, pattern, offered,
            fidelity=fidelity, seed=seed, scenario="closed_loop_shedding",
        )
        fired[arch] = sum(p.rules_fired for p in result.phases)
        for p in result.phases:
            rows.append(
                [
                    arch,
                    "overload" if p.index else "calm",
                    f"[{p.start_cycle}, {p.end_cycle})",
                    round(p.delivered_gbps, 1),
                    round(p.mean_latency_cycles, 1),
                    round(p.energy_per_message_pj, 0),
                    p.rules_fired,
                ]
            )
    return FigureResult(
        "Closed-loop shedding",
        f"Latency-triggered load shedding ({pattern}, {bw_set.name}, "
        f"base {offered:.0f} Gb/s)",
        ["arch", "phase", "cycles", "Gb/s", "latency cyc", "EPM pJ",
         "rules fired"],
        rows,
        notes=[
            f"controller: shed x{shed.factor:g} when mean latency over a "
            f"{shed.window_cycles}-cycle window exceeds "
            f"{shed.threshold:g} cycles (restore below "
            f"{restore.threshold:g})",
            f"rule firings: firefly {fired['firefly']}, "
            f"d-HetPNoC {fired['dhetpnoc']}",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 3-6: area vs aggregate bandwidth
# ---------------------------------------------------------------------------

def figure_3_6(
    wavelength_totals: Sequence[int] = AREA_SWEEP_WAVELENGTHS,
) -> FigureResult:
    rows = []
    for total in wavelength_totals:
        d_area = dhetpnoc_area_mm2(total)
        f_area = firefly_area_mm2(total)
        rows.append(
            [
                total,
                total * 12.5,
                round(d_area, 3),
                round(f_area, 3),
                round(percent_change(d_area, f_area), 1),
            ]
        )
    return FigureResult(
        "Figure 3-6",
        "Total MRR area vs aggregate data bandwidth",
        ["wavelengths", "aggregate Gb/s", "d-HetPNoC mm^2", "Firefly mm^2", "overhead %"],
        rows,
        notes=[
            "reference point: 1.608 vs 1.367 mm^2 at 64 wavelengths (thesis 3.4.3)"
        ],
    )


# ---------------------------------------------------------------------------
# Figure 3-7 / 3-10: per-architecture scaling across bandwidth sets
# ---------------------------------------------------------------------------

def _per_arch_scaling(
    session: Session,
    arch: str,
    exhibit: str,
    title: str,
    fidelity: Fidelity,
    seed: int,
    patterns: Sequence[str],
) -> FigureResult:
    _prefetch(session, (arch,), BANDWIDTH_SETS, patterns, fidelity, seed)
    rows = []
    for bw_set in BANDWIDTH_SETS:
        for pattern in patterns:
            res = _peak(session, arch, bw_set, pattern, fidelity, seed)
            rows.append(
                [
                    bw_set.name,
                    pattern,
                    round(res.per_core_gbps, 2),
                    round(res.delivered_gbps, 1),
                    round(res.energy_per_message_pj, 0),
                ]
            )
    return FigureResult(
        exhibit,
        title,
        ["bw set", "pattern", "Gb/s per core", "aggregate Gb/s", "EPM pJ"],
        rows,
        notes=[
            "thesis: peak bandwidth grows strongly with total wavelengths while "
            "EPM decreases slightly"
        ],
    )


def figure_3_7(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    patterns: Sequence[str] = CORE_PATTERNS,
    session: Optional[Session] = None,
) -> FigureResult:
    return _per_arch_scaling(
        session or Session(),
        "dhetpnoc",
        "Figure 3-7",
        "d-HetPNoC peak core bandwidth and EPM across bandwidth sets",
        fidelity,
        seed,
        patterns,
    )


def figure_3_10(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    patterns: Sequence[str] = CORE_PATTERNS,
    session: Optional[Session] = None,
) -> FigureResult:
    return _per_arch_scaling(
        session or Session(),
        "firefly",
        "Figure 3-10",
        "Firefly peak core bandwidth and EPM across bandwidth sets",
        fidelity,
        seed,
        patterns,
    )


# ---------------------------------------------------------------------------
# Figures 3-8 / 3-9: d-HetPNoC area vs performance/energy scaling (skewed 3)
# ---------------------------------------------------------------------------

def _dhet_scaling_rows(
    session: Session, fidelity: Fidelity, seed: int
) -> List[Tuple[BandwidthSet, RunResult, float]]:
    _prefetch(session, ("dhetpnoc",), BANDWIDTH_SETS, ("skewed3",), fidelity, seed)
    out = []
    for bw_set in BANDWIDTH_SETS:
        res = _peak(session, "dhetpnoc", bw_set, "skewed3", fidelity, seed)
        out.append((bw_set, res, dhetpnoc_area_mm2(bw_set.total_wavelengths)))
    return out


def figure_3_8(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    session: Optional[Session] = None,
) -> FigureResult:
    data = _dhet_scaling_rows(session or Session(), fidelity, seed)
    base_area = data[0][2]
    base_bw = data[0][1].delivered_gbps
    rows = [
        [
            s.total_wavelengths,
            round(area, 3),
            round(percent_change(area, base_area), 1),
            round(res.delivered_gbps, 1),
            round(percent_change(res.delivered_gbps, base_bw), 1),
        ]
        for s, res, area in data
    ]
    return FigureResult(
        "Figure 3-8",
        "d-HetPNoC (skewed 3): area vs peak bandwidth as wavelengths scale",
        ["wavelengths", "area mm^2", "area +%", "peak Gb/s", "peak +%"],
        rows,
        notes=["thesis 64->512: area +70%, peak bandwidth +751.31%"],
    )


def figure_3_9(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    session: Optional[Session] = None,
) -> FigureResult:
    data = _dhet_scaling_rows(session or Session(), fidelity, seed)
    base_area = data[0][2]
    base_epm = data[0][1].energy_per_message_pj
    rows = [
        [
            s.total_wavelengths,
            round(area, 3),
            round(percent_change(area, base_area), 1),
            round(res.energy_per_message_pj, 0),
            round(percent_change(res.energy_per_message_pj, base_epm), 1),
        ]
        for s, res, area in data
    ]
    return FigureResult(
        "Figure 3-9",
        "d-HetPNoC (skewed 3): area vs energy per message as wavelengths scale",
        ["wavelengths", "area mm^2", "area +%", "EPM pJ", "EPM +%"],
        rows,
        notes=["thesis 64->512: area +70%, packet energy -10.89%"],
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_EXHIBITS = {
    "table-3-1": table_3_1,
    "table-3-2": table_3_2,
    "table-3-3": table_3_3,
    "table-3-4": table_3_4,
    "table-3-5": table_3_5,
    "figure-1-1": figure_1_1,
    "figure-3-3": figure_3_3,
    "figure-3-3-replicated": figure_3_3_replicated,
    "figure-3-4": figure_3_4,
    "figure-3-5": figure_3_5,
    "figure-3-6": figure_3_6,
    "figure-3-7": figure_3_7,
    "figure-3-8": figure_3_8,
    "figure-3-9": figure_3_9,
    "figure-3-10": figure_3_10,
    "saturation-knees": saturation_knees,
    "closed-loop-shedding": closed_loop_shedding,
}
