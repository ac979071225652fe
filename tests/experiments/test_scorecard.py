"""Tests for the executable reproduction scorecard."""

from __future__ import annotations

import pytest

from repro.experiments.scorecard import (
    Claim,
    evaluate_fig9,
    full_scorecard,
    render_scorecard,
)


class TestClaim:
    def test_render_pass(self):
        claim = Claim("fig8", "statement", True, detail="x=1")
        assert claim.render() == "[PASS] fig8: statement  [x=1]"

    def test_render_fail(self):
        claim = Claim("fig9", "statement", False)
        assert claim.render() == "[FAIL] fig9: statement"


class TestEvaluation:
    def test_fig9_claims_small_sample(self):
        claims = evaluate_fig9(samples=3, seed=5)
        assert len(claims) == 2
        assert all(isinstance(c, Claim) for c in claims)

    @pytest.mark.slow
    def test_full_scorecard_all_hold(self):
        """The headline check: every documented shape-claim holds.

        Uses a modest sample count; the claims were written with margins
        that absorb that noise.
        """
        claims = full_scorecard(samples=25, seed=42)
        text = render_scorecard(claims)
        failing = [c for c in claims if not c.holds]
        assert not failing, "\n" + text

    def test_render_counts(self):
        claims = [Claim("a", "s", True), Claim("b", "t", False)]
        text = render_scorecard(claims)
        assert "1/2 claims hold" in text
