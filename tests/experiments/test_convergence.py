"""Tests for the control-convergence sweep."""

from __future__ import annotations

import pytest

from repro.experiments.convergence import async_report, run_convergence


class TestAsyncReport:
    def test_delay_reaches_runtime(self):
        report = async_report(
            "flash-crowd",
            sites=4,
            seed=3,
            control_delay_ms=30.0,
            debounce_ms=5.0,
        )
        assert report.control_config is not None
        assert report.control_config.control_delay_ms == 30.0
        assert report.control_config.debounce_ms == 5.0
        assert report.convergence_rounds == report.rounds

    def test_audit_flag_attaches_auditor(self):
        report = async_report(
            "flash-crowd",
            sites=4,
            seed=3,
            control_delay_ms=10.0,
            debounce_ms=5.0,
            audit=True,
        )
        assert report.audit is not None
        assert report.ok


class TestRunConvergence:
    @pytest.fixture(scope="class")
    def result(self):
        return run_convergence(
            scenario="flash-crowd",
            delays=(0.0, 40.0),
            sites=4,
            seed=3,
            debounce_ms=5.0,
        )

    def test_series_shape(self, result):
        assert result.xs == [0.0, 40.0]
        for name in (
            "mean-convergence-ms",
            "max-convergence-ms",
            "rounds",
            "overlapping-rounds",
            "stale-directives",
        ):
            assert len(result.series[name]) == 2

    def test_latency_grows_with_delay(self, result):
        mean = result.series["mean-convergence-ms"]
        assert mean[1] > mean[0]
        # Convergence is bounded below by debounce + 2x delay.
        assert mean[0] >= 5.0
        assert mean[1] >= 5.0 + 2 * 40.0

    def test_paired_sweep_same_round_structure(self, result):
        """Delay alone must not change which rounds happen (debounce
        fixed): round counts agree across delay points."""
        rounds = result.series["rounds"]
        assert rounds[0] == rounds[1]
