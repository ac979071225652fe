"""Tests for the perf subsystem: timers, sweep cases, baselines."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf import (
    PerfReport,
    Stopwatch,
    Timing,
    compare_reports,
    reports_equal,
    run_perf_case,
    run_perf_sweep,
    time_call,
)
from repro.sim.dataplane import FastDataPlane
from repro.util.rng import RngStream


class TestTiming:
    def test_time_call_returns_result_and_timing(self):
        timing, value = time_call(lambda: 42, repeats=3, label="answer")
        assert value == 42
        assert timing.repeats == 3
        assert timing.best_s <= timing.mean_s
        assert timing.total_s >= timing.best_s * 3 * 0.99

    def test_time_call_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError):
            time_call(lambda: None, repeats=0)

    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            sum(range(1000))
        assert sw.elapsed_s > 0.0
        assert sw.elapsed_ms == sw.elapsed_s * 1000.0

    def test_timing_to_dict(self):
        timing = Timing(label="x", repeats=2, total_s=0.4, best_s=0.1)
        payload = timing.to_dict()
        assert payload["best_ms"] == 100.0
        assert payload["mean_ms"] == 200.0


class TestPerfCase:
    @pytest.fixture(scope="class")
    def case(self):
        return run_perf_case(
            8, seed=5, duration_ms=300.0, repeats=1, with_scenario=True
        )

    def test_case_shape(self, case):
        assert case.n_sites == 8
        assert case.requests > 0
        assert case.frames_delivered > 0
        assert case.build.best_s > 0
        assert case.scenario_round is not None

    def test_control_convergence_is_simulated_and_deterministic(self, case):
        from repro.perf.sweep import (
            CONTROL_DELAY_MS,
            DEBOUNCE_MS,
            _measure_control_convergence,
        )

        timing = case.control_convergence
        assert timing is not None
        assert timing.repeats >= 1
        # Simulated latency floors at debounce + one round trip (float
        # accumulation tolerance only).
        assert timing.best_ms >= DEBOUNCE_MS + 2 * CONTROL_DELAY_MS - 1e-6
        # Re-measuring yields the identical number: simulated, not wall.
        again = _measure_control_convergence(8, 5)
        assert again.best_ms == timing.best_ms
        assert again.repeats == timing.repeats

    def test_fast_and_event_agree(self, case):
        assert case.reports_identical is True
        assert case.speedup is not None and case.speedup > 0

    def test_event_plane_can_be_skipped(self):
        case = run_perf_case(
            6, seed=5, duration_ms=200.0, repeats=1,
            with_event_plane=False, with_scenario=False,
        )
        assert case.event_plane is None
        assert case.speedup is None
        assert case.reports_identical is None


class TestSweepReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_perf_sweep(
            sizes=(6, 8), seed=5, duration_ms=200.0, repeats=1,
            label="TEST", with_scenario=False,
        )

    def test_json_roundtrip(self, report):
        payload = json.loads(report.to_json())
        assert payload["label"] == "TEST"
        assert [case["n_sites"] for case in payload["cases"]] == [6, 8]
        assert payload["cases"][0]["reports_identical"] is True

    def test_records_the_backend_that_ran(self):
        from tests.reference_paths import use_array_backend

        with use_array_backend("python"):
            pinned = run_perf_sweep(
                sizes=(6,), seed=5, duration_ms=200.0, repeats=1,
                with_event_plane=False, with_scenario=False,
            )
        assert pinned.config["backend"] == "python"
        with pytest.raises(TypeError):
            run_perf_sweep(sizes=(6,), backend="python")

    def test_summary_lists_sizes(self, report):
        summary = report.summary()
        assert "perf sweep [TEST]" in summary
        assert "speedup" in summary

    def test_case_lookup(self, report):
        assert report.case_for(8).n_sites == 8
        assert report.case_for(999) is None

    def test_compare_renders(self, report):
        payload = json.loads(report.to_json())
        table = compare_reports(payload, payload)
        assert "perf compare" in table
        assert "1.00" in table  # self-comparison ratio


class TestReportsEqual:
    def test_detects_divergence(self):
        from repro import make_builder, quick_problem, quick_session

        rng = RngStream(4)
        session = quick_session(n_sites=4, rng=rng)
        problem = quick_problem(session, rng=rng)
        forest = make_builder("rj").build(problem, rng.spawn("b")).forest
        a = FastDataPlane(session, forest, RngStream(1).spawn("dp")).run(300.0)
        b = FastDataPlane(session, forest, RngStream(1).spawn("dp")).run(300.0)
        assert reports_equal(a, b)
        b.frames_delivered += 1
        assert not reports_equal(a, b)
