"""Tests for the rebuild-policy disruption sweep."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.disruption import run_disruption, scenario_report


class TestScenarioReport:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_report("mass-leave", sites=4, seed=3, policy="never")

    def test_policy_reaches_runtime(self):
        report = scenario_report(
            "mass-leave", sites=4, seed=3, policy="incremental"
        )
        assert report.rebuild_policy == "incremental"
        assert report.repairs >= 1

    def test_large_pool_switches_backbone(self):
        # 32 sites exceed tier1's 26 PoPs; the synthetic backbone kicks in.
        report = scenario_report(
            "rolling-failure", sites=32, seed=3, policy="always"
        )
        assert report.n_sites == 32


class TestRunDisruption:
    @pytest.fixture(scope="class")
    def result(self):
        return run_disruption(
            scenario="mass-leave", sizes=(4, 6), seed=3
        )

    def test_series_per_policy(self, result):
        assert result.xs == [4, 6]
        assert set(result.series) == {
            "always", "always-rejection", "incremental", "incremental-rejection"
        }
        assert all(len(series) == 2 for series in result.series.values())

    def test_repair_is_less_disruptive(self, result):
        """The paired sweep reproduces the headline property."""
        for x_index in range(len(result.xs)):
            assert (
                result.series["incremental"][x_index]
                <= result.series["always"][x_index]
            )

    def test_values_are_ratios(self, result):
        for series in result.series.values():
            assert all(0.0 <= value <= 1.0 for value in series)
