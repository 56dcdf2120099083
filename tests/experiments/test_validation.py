"""Tests for the headline-claim validation harness."""

import pytest

from repro.experiments.runner import Fidelity
from repro.experiments.validation import (
    HEADLINE_CLAIMS,
    ClaimResult,
    render_validation,
    validate_all,
)

TINY = Fidelity("tiny-validate", 900, 150, (0.5, 0.9))


@pytest.fixture(scope="module")
def results():
    return validate_all(TINY, seed=3)


class TestValidation:
    def test_every_claim_has_result(self, results):
        assert len(results) == len(HEADLINE_CLAIMS)

    def test_all_headline_claims_pass(self, results):
        failing = [r.claim for r in results if not r.passed]
        assert not failing, f"claims not reproduced: {failing}"

    def test_static_claims_exact(self, results):
        by_claim = {r.claim: r for r in results}
        area = by_claim[
            "total modulator+demodulator area is 1.608 / 1.367 mm^2 at 64 wavelengths"
        ]
        assert area.passed
        assert "1.608" in area.detail

    def test_results_carry_sources(self, results):
        assert all("thesis" in r.source for r in results)

    def test_render(self, results):
        text = render_validation(results)
        assert "PASS" in text
        assert f"{len(results)}/{len(results)} claims reproduced" in text

    def test_render_marks_failures(self):
        fake = [ClaimResult("x", "thesis", False, "nope")]
        assert "FAIL" in render_validation(fake)


class TestCliValidate:
    def test_validate_subcommand_parses(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["validate", "--seed", "7"])
        assert args.command == "validate"
        assert args.seed == 7
