"""Programmatic validation of the thesis's headline claims.

Each :class:`ShapeClaim` encodes one sentence of the thesis as an
executable check. ``validate_all`` runs them and returns a report --
the machine-checkable core of EXPERIMENTS.md, also exposed as
``dhetpnoc-repro validate``.

Static claims (area model, token/reservation timing, fig. 1-1 shape) are
exact; dynamic claims run short simulations at the requested fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.area.model import dhetpnoc_area_mm2, firefly_area_mm2
from repro.dba.token import token_link_cycles, token_size_bits
from repro.experiments.figures import _peak_pair, _prefetch
from repro.experiments.runner import Fidelity, QUICK_FIDELITY
from repro.gpu.model import GpuMemoryModel
from repro.photonic.reservation import reservation_serialization_cycles
from repro.traffic.bandwidth_sets import BW_SET_1

#: Floor for the uniform-tie check: below this relative gap the
#: architectures count as "identical" even with a single seed.
BASE_REL_TOL = 0.02


@dataclass
class ClaimResult:
    """Outcome of checking one thesis claim."""

    claim: str
    source: str
    passed: bool
    detail: str


@dataclass
class ShapeClaim:
    """One executable thesis claim.

    ``patterns`` names every traffic pattern the check simulates (on BW
    set 1, both architectures' peaks); ``validate_all`` derives its
    parallel-prefetch grid from this, so a claim that adds a pattern is
    prefetched automatically. Static claims leave it empty.
    """

    claim: str
    source: str
    check: Callable[[Session, Fidelity, int, Optional[float]], ClaimResult]
    patterns: tuple = ()

    def run(
        self,
        session: Session,
        fidelity: Fidelity,
        seed: int,
        rel_tol: Optional[float] = None,
    ) -> ClaimResult:
        return self.check(session, fidelity, seed, rel_tol)


def _static(claim: str, source: str, predicate: Callable[[], tuple]) -> ShapeClaim:
    def check(
        _session: Session,
        _fidelity: Fidelity,
        _seed: int,
        _rel_tol: Optional[float] = None,
    ) -> ClaimResult:
        passed, detail = predicate()
        return ClaimResult(claim, source, passed, detail)

    return ShapeClaim(claim, source, check)


# ---------------------------------------------------------------------------
# Static claims
# ---------------------------------------------------------------------------

def _area_reference() -> tuple:
    d, f = dhetpnoc_area_mm2(64), firefly_area_mm2(64)
    passed = abs(d - 1.608) < 0.001 and abs(f - 1.367) < 0.001
    return passed, f"d-HetPNoC {d:.3f} mm^2, Firefly {f:.3f} mm^2"


def _area_scaling() -> tuple:
    growth = dhetpnoc_area_mm2(512) / dhetpnoc_area_mm2(64) - 1
    return abs(growth - 0.70) < 0.005, f"64->512 wavelengths: {growth * 100:.1f}%"


def _token_timing() -> tuple:
    set1 = token_link_cycles(token_size_bits(1, 16))
    set3 = token_link_cycles(token_size_bits(8, 16))
    return (set1, set3) == (1, 2), f"T_L set1={set1} cyc, set3={set3} cyc"


def _reservation_timing() -> tuple:
    set1 = reservation_serialization_cycles(8, 1)
    set3 = reservation_serialization_cycles(64, 8)
    return (set1, set3) == (1, 2), f"set1={set1} cyc, set3={set3} cyc"


def _gpu_figure() -> tuple:
    model = GpuMemoryModel()
    pcts = [pct for _l, pct in model.study()]
    passed = abs(max(pcts) - 63) < 3 and sum(1 for p in pcts if p < 1) >= len(pcts) // 2
    return passed, f"max {max(pcts):.1f}%, {sum(1 for p in pcts if p < 1)} below 1%"


# ---------------------------------------------------------------------------
# Simulated claims
# ---------------------------------------------------------------------------

def _uniform_tie(
    session: Session,
    fidelity: Fidelity,
    seed: int,
    rel_tol: Optional[float] = None,
) -> ClaimResult:
    firefly, dhet = _peak_pair(session, BW_SET_1, "uniform", fidelity, seed)
    gap = abs(dhet.delivered_gbps - firefly.delivered_gbps)
    rel = gap / max(firefly.delivered_gbps, 1e-9)
    tolerance = max(BASE_REL_TOL, rel_tol or 0.0)
    return ClaimResult(
        "uniform traffic: d-HetPNoC and Firefly perform identically",
        "thesis 3.4.1.1",
        rel < tolerance,
        f"gap {rel * 100:.2f}% (tolerance {tolerance * 100:.2f}%)",
    )


def _skew_monotone(
    session: Session,
    fidelity: Fidelity,
    seed: int,
    _rel_tol: Optional[float] = None,
) -> ClaimResult:
    gains = []
    for pattern in ("skewed1", "skewed2", "skewed3"):
        firefly, dhet = _peak_pair(session, BW_SET_1, pattern, fidelity, seed)
        gains.append(dhet.delivered_gbps / firefly.delivered_gbps - 1)
    passed = gains[0] < gains[1] < gains[2] and gains[2] > 0.1
    detail = ", ".join(f"{g * 100:+.1f}%" for g in gains)
    return ClaimResult(
        "peak-bandwidth gain grows with traffic skew",
        "thesis 3.4.1.1 / fig. 3-3",
        passed,
        f"skewed1..3 gains: {detail}",
    )


def _energy_direction(
    session: Session,
    fidelity: Fidelity,
    seed: int,
    _rel_tol: Optional[float] = None,
) -> ClaimResult:
    firefly, dhet = _peak_pair(session, BW_SET_1, "skewed3", fidelity, seed)
    passed = dhet.energy_per_message_pj < firefly.energy_per_message_pj
    return ClaimResult(
        "d-HetPNoC dissipates less energy per message under skew",
        "thesis 3.4.1.2 / fig. 3-4",
        passed,
        f"dHet {dhet.energy_per_message_pj:.0f} pJ vs FF "
        f"{firefly.energy_per_message_pj:.0f} pJ",
    )


def _knee_localization(
    session: Session,
    fidelity: Fidelity,
    seed: int,
    _rel_tol: Optional[float] = None,
) -> ClaimResult:
    """The fluid model must predict where d-HetPNoC actually saturates.

    Uses the adaptive knee search (bisection seeded from the analytic
    estimate) rather than the fixed grid, so the check also exercises
    the few-simulation localisation path end to end.
    """
    ff, dh = (
        session.knee(
            arch, BW_SET_1.index, "skewed3", fidelity, seed, resolution=0.1
        )
        for arch in ("firefly", "dhetpnoc")
    )
    if dh.analytic_knee_gbps is None or ff.analytic_knee_gbps is None:
        return ClaimResult(
            "the analytic model localises d-HetPNoC's saturation knee",
            "thesis 3.4.1.1 / fig. 3-3",
            False,
            "fluid model not applicable to skewed3 (analytic knee is None)",
        )
    ratio = dh.knee_gbps / dh.analytic_knee_gbps
    ordering = dh.analytic_knee_gbps > 1.5 * ff.analytic_knee_gbps
    passed = ordering and 0.5 <= ratio <= 2.0
    return ClaimResult(
        "the analytic model localises d-HetPNoC's saturation knee",
        "thesis 3.4.1.1 / fig. 3-3",
        passed,
        f"measured {dh.knee_gbps:.0f} Gb/s vs analytic "
        f"{dh.analytic_knee_gbps:.0f} Gb/s (x{ratio:.2f}); analytic knees "
        f"dHet {dh.analytic_knee_gbps:.0f} vs FF {ff.analytic_knee_gbps:.0f}",
    )


def _case_studies_win(
    session: Session,
    fidelity: Fidelity,
    seed: int,
    _rel_tol: Optional[float] = None,
) -> ClaimResult:
    losses = []
    for pattern in ("skewed_hotspot2", "real_app"):
        firefly, dhet = _peak_pair(session, BW_SET_1, pattern, fidelity, seed)
        if dhet.delivered_gbps <= firefly.delivered_gbps:
            losses.append(pattern)
    return ClaimResult(
        "d-HetPNoC peak bandwidth beats Firefly in the case studies",
        "thesis 3.4.2 / fig. 3-5",
        not losses,
        "all won" if not losses else f"lost: {losses}",
    )


HEADLINE_CLAIMS: List[ShapeClaim] = [
    _static(
        "total modulator+demodulator area is 1.608 / 1.367 mm^2 at 64 wavelengths",
        "thesis 3.4.3 / fig. 3-6",
        _area_reference,
    ),
    _static(
        "d-HetPNoC area grows +70% from 64 to 512 wavelengths",
        "thesis figs. 3-8/3-9",
        _area_scaling,
    ),
    _static(
        "token link time rounds to 1 cycle (set 1) and 2 cycles (set 3)",
        "thesis 3.2.1, eqs. 1-2",
        _token_timing,
    ),
    _static(
        "reservation flits cost 1 cycle (set 1) and 2 cycles (set 3)",
        "thesis 3.4.1.1",
        _reservation_timing,
    ),
    _static(
        "GPU speedups: up to ~63%, most below 1%",
        "thesis fig. 1-1",
        _gpu_figure,
    ),
    ShapeClaim(
        "uniform traffic: architectures tie", "thesis 3.4.1.1", _uniform_tie,
        patterns=("uniform",),
    ),
    ShapeClaim(
        "gain monotone in skew", "thesis fig. 3-3", _skew_monotone,
        patterns=("skewed1", "skewed2", "skewed3"),
    ),
    ShapeClaim(
        "energy advantage under skew", "thesis fig. 3-4", _energy_direction,
        patterns=("skewed3",),
    ),
    ShapeClaim(
        "case studies won", "thesis fig. 3-5", _case_studies_win,
        patterns=("skewed_hotspot2", "real_app"),
    ),
    ShapeClaim(
        "analytic knee localisation", "thesis fig. 3-3", _knee_localization,
        patterns=("skewed3",),
    ),
]


def seed_spread_tolerance(
    session: Session,
    fidelity: Fidelity,
    seeds: Sequence[int],
    pattern: str = "uniform",
) -> float:
    """Relative peak-bandwidth spread across seed replicates.

    Runs the (firefly, dhetpnoc) pair on BW set 1 under *pattern* for
    every seed and returns the largest observed ``spread / mean`` of the
    peak delivered bandwidth — the honest tolerance for "identical
    performance" claims: two architectures cannot be told apart more
    finely than one architecture varies across equivalent seeds.
    """
    rows = session.replicated(
        ExperimentSpec(
            archs=("firefly", "dhetpnoc"),
            bw_sets=(BW_SET_1.index,),
            patterns=(pattern,),
            seeds=seeds,
            fidelity=fidelity,
        )
    )
    rels = [
        row.delivered_gbps.spread / row.delivered_gbps.mean
        for row in rows
        if row.delivered_gbps.mean > 0
    ]
    return max(rels, default=0.0)


def validate_all(
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    claims: Optional[List[ShapeClaim]] = None,
    rel_tol: Optional[float] = None,
    seeds: Optional[Sequence[int]] = None,
    session: Optional[Session] = None,
) -> List[ClaimResult]:
    """Run every headline claim; returns their results.

    Every simulated point the dynamic claims declare via
    ``ShapeClaim.patterns`` is first fanned out through *session* (a
    private in-memory :class:`~repro.api.session.Session` when none is
    given) in one batch, so ``workers > 1`` parallelises the whole
    validation and the claim checks themselves are pure cache hits.

    ``rel_tol`` loosens the dynamic "identical performance" checks; when
    absent but *seeds* lists more than one seed, it is derived from the
    measured seed spread via :func:`seed_spread_tolerance` — replication
    uncertainty propagated into the pass/fail thresholds.
    """
    session = session or Session()
    active = claims if claims is not None else HEADLINE_CLAIMS
    if rel_tol is None and seeds is not None and len(seeds) > 1:
        rel_tol = seed_spread_tolerance(session, fidelity, seeds)
    patterns = []
    for claim in active:
        for pattern in claim.patterns:
            if pattern not in patterns:
                patterns.append(pattern)
    _prefetch(
        session, ("firefly", "dhetpnoc"), (BW_SET_1,), patterns, fidelity, seed
    )
    return [claim.run(session, fidelity, seed, rel_tol) for claim in active]


def render_validation(results: List[ClaimResult]) -> str:
    lines = ["Headline-claim validation", "=" * 25]
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        lines.append(f"[{mark}] {result.claim}")
        lines.append(f"       source: {result.source}; measured: {result.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
