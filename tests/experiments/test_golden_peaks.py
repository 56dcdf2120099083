"""Golden regression tests for quick-fidelity saturation peaks.

These pin the headline numbers of the (firefly, dhetpnoc) x skewed3
pair on bandwidth set 1 at the CI ``quick`` fidelity, seed 1 — both for
the stationary workload and for the ``hotspot_drift`` / ``fault_storm``
scenario scripts, so scenario physics drift is caught deliberately too.
Any PR that shifts delivered bandwidth or packet energy beyond
tolerance has changed the simulated physics (or the RNG plumbing) and
must regenerate the goldens *deliberately*, with the shift explained in
the PR.

Regenerate with::

    PYTHONPATH=src python -c "
    from repro.api import ExperimentSpec, Session
    from repro.experiments.runner import QUICK_FIDELITY
    with Session() as s:
        for scenario in (None, 'hotspot_drift', 'fault_storm'):
            spec = ExperimentSpec(
                bw_sets=(1,), patterns=('skewed3',), scenarios=(scenario,),
                seeds=(1,), fidelity=QUICK_FIDELITY, derive_seeds=False)
            for curve, p in s.peaks(spec).items():
                print(curve, p.delivered_gbps, p.energy_per_message_pj,
                      p.offered_gbps)"
"""

import os

import pytest

from repro.api import ExperimentSpec, Session
from repro.experiments.runner import PAPER_FIDELITY, QUICK_FIDELITY, peak_of
from repro.traffic.bandwidth_sets import BW_SET_1


@pytest.fixture(scope="module")
def session():
    """The stationary goldens and the shape check share their points."""
    return Session()


def golden_peak(session, arch, fidelity):
    """Saturation peak of (arch, BW set 1, skewed3, seed 1 verbatim)."""
    return peak_of(session.curve(arch, BW_SET_1, "skewed3", fidelity, seed=1))

#: Tolerance for incidental drift (float reassociation, refactors that
#: preserve physics). Real behaviour changes land far outside this.
REL_TOL = 0.02

#: (delivered Gb/s, EPM pJ, offered Gb/s at the peak), quick fidelity,
#: BW set 1, skewed3, seed 1.
GOLDEN_QUICK = {
    "firefly": (257.7230769230769, 11314.646448863628, 800.0),
    "dhetpnoc": (433.78461538461534, 7754.351224197239, 800.0),
}


@pytest.mark.parametrize("arch", sorted(GOLDEN_QUICK))
def test_quick_fidelity_peaks_match_golden(arch, session):
    golden_bw, golden_epm, golden_offered = GOLDEN_QUICK[arch]
    peak = golden_peak(session, arch, QUICK_FIDELITY)
    assert peak.delivered_gbps == pytest.approx(golden_bw, rel=REL_TOL)
    assert peak.energy_per_message_pj == pytest.approx(golden_epm, rel=REL_TOL)
    assert peak.offered_gbps == pytest.approx(golden_offered, rel=REL_TOL)


#: Scenario-conditioned goldens (ROADMAP item): (delivered Gb/s, EPM pJ,
#: offered Gb/s at the peak) per (scenario, arch), quick fidelity, BW
#: set 1, base pattern skewed3, seed 1 used verbatim.
GOLDEN_SCENARIO_QUICK = {
    ("hotspot_drift", "firefly"): (375.75384615384615, 8894.018507313811, 800.0),
    ("hotspot_drift", "dhetpnoc"): (519.6923076923076, 7086.021970419869, 800.0),
    ("fault_storm", "firefly"): (277.6, 10987.774909420279, 800.0),
    ("fault_storm", "dhetpnoc"): (441.66153846153844, 7763.195499999997, 800.0),
}


@pytest.mark.parametrize("scenario,arch", sorted(GOLDEN_SCENARIO_QUICK))
def test_quick_fidelity_scenario_peaks_match_golden(scenario, arch):
    """Scenario scripts are physics too: their peaks are pinned like the
    stationary ones, so a library edit that changes a script's behaviour
    (or the player's replay determinism) fails here deliberately."""
    golden_bw, golden_epm, golden_offered = GOLDEN_SCENARIO_QUICK[(scenario, arch)]
    spec = ExperimentSpec(
        archs=(arch,), bw_sets=(1,), patterns=("skewed3",),
        scenarios=(scenario,), seeds=(1,), fidelity=QUICK_FIDELITY,
        derive_seeds=False,
    )
    with Session() as session:
        peak = session.peaks(spec)[(arch, 1, "skewed3", scenario, 1)]
    assert peak.delivered_gbps == pytest.approx(golden_bw, rel=REL_TOL)
    assert peak.energy_per_message_pj == pytest.approx(golden_epm, rel=REL_TOL)
    assert peak.offered_gbps == pytest.approx(golden_offered, rel=REL_TOL)


def test_scenario_goldens_keep_the_thesis_shape():
    """Under both scripted scenarios the d-HetPNoC advantage must
    survive: more delivered bandwidth and cheaper packets than Firefly
    (the robustness story of the fault storm, the DBA-chasing story of
    the drifting hotspot)."""
    for scenario in ("hotspot_drift", "fault_storm"):
        ff = GOLDEN_SCENARIO_QUICK[(scenario, "firefly")]
        dh = GOLDEN_SCENARIO_QUICK[(scenario, "dhetpnoc")]
        assert dh[0] > 1.1 * ff[0]
        assert dh[1] < ff[1]


def test_golden_gap_is_the_thesis_shape(session):
    """The pinned pair must keep the thesis's qualitative claim: a clear
    d-HetPNoC bandwidth win and energy advantage under skewed 3."""
    ff = golden_peak(session, "firefly", QUICK_FIDELITY)
    dh = golden_peak(session, "dhetpnoc", QUICK_FIDELITY)
    assert dh.delivered_gbps > 1.1 * ff.delivered_gbps
    assert dh.energy_per_message_pj < ff.energy_per_message_pj


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_FIDELITY") != "paper",
    reason="paper-fidelity lane only (set REPRO_FIDELITY=paper)",
)
def test_paper_fidelity_peaks_keep_the_shape(session):
    """Full table 3-3 schedule (10k cycles, dense sweep): the win must
    hold at paper fidelity too. Marked ``slow``; runs in the
    ``REPRO_FIDELITY=paper`` nightly lane, not in tier-1 CI.
    """
    ff = golden_peak(session, "firefly", PAPER_FIDELITY)
    dh = golden_peak(session, "dhetpnoc", PAPER_FIDELITY)
    assert dh.delivered_gbps > ff.delivered_gbps
    assert dh.energy_per_message_pj < ff.energy_per_message_pj
