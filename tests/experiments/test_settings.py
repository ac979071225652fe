"""Tests for the canonical experiment settings."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.settings import ExperimentSetting
from repro.session.capacity import HeterogeneousCapacityModel, UniformCapacityModel
from repro.workload.coverage import CoverageWorkloadModel


class TestValidation:
    def test_defaults_valid(self):
        ExperimentSetting()

    def test_bad_workload(self):
        with pytest.raises(ConfigurationError):
            ExperimentSetting(workload="gaussian")

    def test_bad_nodes(self):
        with pytest.raises(ConfigurationError):
            ExperimentSetting(nodes="mixed")

    def test_bad_samples(self):
        with pytest.raises(ConfigurationError):
            ExperimentSetting(samples=0)

    def test_bad_bound(self):
        with pytest.raises(ConfigurationError):
            ExperimentSetting(latency_bound_ms=0.0)


class TestFactories:
    def test_capacity_models(self):
        assert isinstance(
            ExperimentSetting(nodes="uniform").capacity_model(),
            UniformCapacityModel,
        )
        assert isinstance(
            ExperimentSetting(nodes="heterogeneous").capacity_model(),
            HeterogeneousCapacityModel,
        )

    def test_popularity_models(self):
        for workload, popularity in (("zipf", "zipf"), ("random", "uniform")):
            setting = ExperimentSetting(workload=workload)
            assert setting.workload_model().popularity == popularity

    def test_workload_model_wiring(self):
        setting = ExperimentSetting(
            workload="zipf", interest=0.33, focus_skew=2.0,
            guarantee_coverage=False, mean_subscribers=1.5,
        )
        model = setting.workload_model()
        assert isinstance(model, CoverageWorkloadModel)
        assert model.popularity == "zipf"
        assert model.interest == 0.33
        assert model.focus_skew == 2.0
        assert model.guarantee_coverage is False
        assert model.mean_subscribers == 1.5

    def test_label(self):
        assert ExperimentSetting(workload="zipf", nodes="uniform").label() == (
            "zipf-uniform"
        )
