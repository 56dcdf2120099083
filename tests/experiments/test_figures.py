"""Tests for the per-exhibit reproduction functions.

Simulated figures run at a tiny fidelity here; the assertions target the
*shape* claims of the thesis, not absolute values (EXPERIMENTS.md records
the full-fidelity comparison).
"""

import pytest

from repro.experiments.figures import (
    ALL_EXHIBITS,
    FigureResult,
    figure_1_1,
    figure_3_3,
    figure_3_4,
    figure_3_5,
    figure_3_6,
    figure_3_7,
    figure_3_8,
    figure_3_9,
    figure_3_10,
    table_3_1,
    table_3_2,
    table_3_3,
    table_3_4,
    table_3_5,
)
from repro.api.session import Session
from repro.experiments.runner import Fidelity
from repro.traffic.bandwidth_sets import BANDWIDTH_SETS, BW_SET_1

TINY = Fidelity("tiny", 900, 150, (0.5, 0.9))


@pytest.fixture(scope="module")
def session():
    """One shared tiny-fidelity dataset for the simulated exhibits."""
    return Session()


class TestStaticTables:
    def test_table_3_1_rows(self):
        result = table_3_1()
        assert len(result.rows) == 3
        assert result.rows[0][1] == 64

    def test_table_3_2_frequencies(self):
        result = table_3_2()
        assert result.rows[2][1] == "90%"

    def test_table_3_3_parameters(self):
        result = table_3_3()
        names = result.column("parameter")
        assert "cores" in names and "VCs per port" in names

    def test_table_3_4_and_3_5(self):
        assert len(table_3_4().rows) == 3
        assert len(table_3_5().rows) == 5
        assert table_3_5().rows[0][1] == 0.04

    def test_render_contains_title(self):
        out = table_3_1().render()
        assert out.startswith("Table 3-1")


class TestFigure11:
    def test_shape_claims(self):
        result = figure_1_1()
        pcts = result.column("speedup %")
        assert max(pcts) == pytest.approx(63, abs=3)
        assert sum(1 for p in pcts if p < 1.0) >= len(pcts) // 2


class TestFigure36:
    def test_reference_areas(self):
        result = figure_3_6()
        row64 = next(r for r in result.rows if r[0] == 64)
        assert row64[2] == pytest.approx(1.608, abs=0.001)
        assert row64[3] == pytest.approx(1.367, abs=0.001)

    def test_overhead_grows(self):
        result = figure_3_6()
        overheads = result.column("overhead %")
        assert overheads == sorted(overheads)


class TestSimulatedFigures:
    def test_figure_3_3_executor_matches_serial(self, session):
        """The parallel prefetch path must reproduce the serial rows."""
        kwargs = dict(fidelity=TINY, seed=3, bw_sets=[BW_SET_1],
                      patterns=("uniform", "skewed3"))
        serial = figure_3_3(**kwargs, session=session)
        with Session(workers=2) as pooled:
            parallel = figure_3_3(**kwargs, session=pooled)
        assert parallel.rows == serial.rows

    def test_figure_3_3_customised_bw_set_not_rehydrated(self, session):
        """Regression: a customised BandwidthSet handed to an exhibit
        must be simulated as passed, not swapped for the canonical set
        sharing its index."""
        import dataclasses

        custom = dataclasses.replace(BW_SET_1, total_wavelengths=128)
        kwargs = dict(fidelity=TINY, seed=3, bw_sets=[custom],
                      patterns=("uniform",))
        serial = figure_3_3(**kwargs, session=session)
        with Session(workers=2) as pooled:
            parallel = figure_3_3(**kwargs, session=pooled)
        assert parallel.rows == serial.rows
        canonical = figure_3_3(**{**kwargs, "bw_sets": [BW_SET_1]},
                               session=session)
        assert serial.column("Firefly") != canonical.column("Firefly")

    def test_figure_3_3_shape(self, session):
        result = figure_3_3(fidelity=TINY, seed=3, bw_sets=[BW_SET_1],
                            patterns=("uniform", "skewed3"), session=session)
        gains = dict(zip(result.column("pattern"), result.column("gain %")))
        assert abs(gains["uniform"]) < 5.0  # near-tie under uniform
        assert gains["skewed3"] > 10.0      # clear win under skew

    def test_figure_3_3_replicated_emits_spread_columns(self, session):
        """Replicated peaks carry their +/- std instead of dropping it."""
        from repro.experiments.figures import figure_3_3_replicated

        result = figure_3_3_replicated(
            fidelity=TINY, seed=3, bw_sets=[BW_SET_1],
            patterns=("skewed3",), n_seeds=2, session=session,
        )
        (row,) = result.rows
        # Distinct derived seeds make exact metric ties vanishingly
        # unlikely, so both architecture columns show a spread.
        assert "+/-" in row[2] and "+/-" in row[3]
        assert row[4] > 10.0  # the skewed-3 gain survives averaging

    def test_figure_3_3_replicated_deterministic_across_workers(
        self, session
    ):
        from repro.experiments.figures import figure_3_3_replicated

        kwargs = dict(fidelity=TINY, seed=3, bw_sets=[BW_SET_1],
                      patterns=("uniform",), n_seeds=2)
        serial = figure_3_3_replicated(**kwargs, session=session)
        with Session(workers=2) as pooled:
            parallel = figure_3_3_replicated(**kwargs, session=pooled)
        assert parallel.rows == serial.rows

    def test_figure_3_4_shape(self, session):
        result = figure_3_4(fidelity=TINY, seed=3, bw_sets=[BW_SET_1],
                            patterns=("uniform", "skewed3"), session=session)
        changes = dict(zip(result.column("pattern"), result.column("change %")))
        assert changes["skewed3"] < 0  # d-HetPNoC cheaper under skew

    def test_figures_3_3_and_3_4_shape_on_every_bandwidth_set(self, session):
        """Near-tie under uniform traffic, an advantage that grows with
        skew and cheaper packets at skewed 3 -- on panels (a), (b), (c)."""
        kwargs = dict(fidelity=TINY, seed=3, session=session,
                      patterns=("uniform", "skewed1", "skewed3"))
        bandwidth, energy = figure_3_3(**kwargs), figure_3_4(**kwargs)
        for bw_set in BANDWIDTH_SETS:
            gains = {r[1]: r[4] for r in bandwidth.rows if r[0] == bw_set.name}
            assert abs(gains["uniform"]) < 5.0
            # At the lowest skew the advantage may be a near-tie (the
            # low-class channels bind both architectures equally): the
            # thesis's "as low as 0.1%" floor.
            assert gains["skewed1"] > -5.0
            assert gains["skewed3"] > gains["skewed1"]
            assert gains["skewed3"] > 10.0
            changes = {r[1]: r[4] for r in energy.rows if r[0] == bw_set.name}
            assert abs(changes["uniform"]) < 5.0
            assert changes["skewed3"] < 0

    def test_figure_3_5_dhetpnoc_wins_every_case_study(self, session):
        """Thesis: "in all the cases the peak bandwidth of the d-HetPNoC
        is better than the Firefly architecture"."""
        result = figure_3_5(fidelity=TINY, seed=3, session=session)
        assert len(result.rows) == 5  # four hotspot mixes + real_app
        for pattern, firefly, dhet, *_epm in result.rows:
            assert dhet > firefly, f"d-HetPNoC should win on {pattern}"

    def test_figure_3_7_peak_grows_with_bandwidth_set(self, session):
        result = figure_3_7(fidelity=TINY, seed=3, session=session,
                            patterns=("uniform", "skewed3"))
        for pattern in ("uniform", "skewed3"):
            peaks = [row[3] for row in result.rows if row[1] == pattern]
            # Aggregate peak bandwidth grows strongly from set 1 to set 3.
            assert peaks[2] > 3 * peaks[0]

    def test_figure_3_10_firefly_trails_at_every_bandwidth_set(self, session):
        """Thesis: Firefly's "absolute values of peak bandwidth are lower
        and energy per message are higher than that of d-HetPNoC" under
        skew, at every wavelength count; a tie under uniform traffic."""
        kwargs = dict(fidelity=TINY, seed=3, session=session,
                      patterns=("uniform", "skewed3"))
        firefly = figure_3_10(**kwargs)
        dhet = figure_3_7(**kwargs)
        for ff_row, dhet_row in zip(firefly.rows, dhet.rows, strict=True):
            assert ff_row[:2] == dhet_row[:2]  # same (bw set, pattern)
            if ff_row[1] == "skewed3":
                assert dhet_row[3] > ff_row[3], f"peak at {ff_row[0]}"
                assert dhet_row[4] < ff_row[4], f"EPM at {ff_row[0]}"
            else:
                assert dhet_row[3] == pytest.approx(ff_row[3], rel=0.05)

    def test_figure_3_8_bandwidth_scales_with_wavelengths(self, session):
        result = figure_3_8(fidelity=TINY, seed=3, session=session)
        peaks = result.column("peak Gb/s")
        assert peaks[-1] > 3 * peaks[0]
        areas = result.column("area mm^2")
        assert areas == sorted(areas)

    def test_figure_3_9_epm_trend(self, session):
        result = figure_3_9(fidelity=TINY, seed=3, session=session)
        epms = result.column("EPM pJ")
        # Thesis: packet energy decreases slightly as wavelengths scale
        # -- it moves only modestly while the area grows 70%.
        assert epms[-1] < epms[0] * 1.2
        assert abs(result.column("EPM +%")[-1]) < 35.0


class TestSaturationKnees:
    def test_knee_exhibit_shape(self):
        from repro.experiments.figures import saturation_knees

        result = saturation_knees(
            fidelity=TINY, seed=3, patterns=("skewed3",),
        )
        assert len(result.rows) == 2  # one row per architecture
        by_arch = {row[1]: row for row in result.rows}
        # The analytic knee ordering that motivates the thesis: the
        # heterogeneous design saturates later under skew.
        assert by_arch["dhetpnoc"][2] > by_arch["firefly"][2]
        evals = result.column("evals")
        assert all(isinstance(e, int) and e >= 2 for e in evals)
        assert "Saturation knees" in result.render()


class TestRegistry:
    def test_all_exhibits_present(self):
        expected = {
            "table-3-1", "table-3-2", "table-3-3", "table-3-4", "table-3-5",
            "figure-1-1", "figure-3-3", "figure-3-3-replicated",
            "figure-3-4", "figure-3-5",
            "figure-3-6", "figure-3-7", "figure-3-8", "figure-3-9",
            "figure-3-10", "saturation-knees", "closed-loop-shedding",
        }
        assert set(ALL_EXHIBITS) == expected

    def test_figure_result_column_lookup(self):
        result = FigureResult("X", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]
        with pytest.raises(ValueError):
            result.column("missing")
