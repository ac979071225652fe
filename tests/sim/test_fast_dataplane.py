"""Fast-vs-event data-plane equivalence and dispatch tests.

The analytic :class:`FastDataPlane` must be *bit-identical* to the
event-driven plane on every zero-jitter run — same frame counts, same
per-pair latency statistics (exact floats), same byte accounting — and
:func:`make_dataplane` must route stochastic runs back to the
event-driven simulator.
"""

from __future__ import annotations

import pytest

from repro import make_builder, quick_problem, quick_session
from repro.errors import SimulationError
from repro.perf.sweep import reports_equal
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runtime import ScenarioRuntime
from repro.sim.dataplane import (
    DeliveryTable,
    FastDataPlane,
    ForestDataPlane,
    make_dataplane,
)
from repro.util.rng import RngStream


def assert_reports_identical(fast, event) -> None:
    """Field-exact equality, floats compared with ``==`` on purpose."""
    assert fast.duration_ms == event.duration_ms
    assert fast.frames_captured == event.frames_captured
    assert fast.frames_delivered == event.frames_delivered
    assert fast.latency_bound_ms == event.latency_bound_ms
    assert fast.bytes_sent_by_site == event.bytes_sent_by_site
    assert set(fast.deliveries) == set(event.deliveries)
    # One dict up front: a table lookup scans its rows.
    event_stats = dict(event.deliveries.items())
    for key, stats in fast.deliveries.items():
        other = event_stats[key]
        assert stats.frames == other.frames, key
        assert stats.total_latency_ms == other.total_latency_ms, key
        assert stats.max_latency_ms == other.max_latency_ms, key


def build_forest(n_sites: int, seed: int, algorithm: str):
    rng = RngStream(seed)
    session = quick_session(n_sites=n_sites, rng=rng)
    problem = quick_problem(session, rng=rng)
    result = make_builder(algorithm).build(problem, rng.spawn("build"))
    return session, result.forest


class TestBitIdentity:
    @pytest.mark.parametrize("seed", (3, 7, 21))
    @pytest.mark.parametrize("n_sites", (3, 5, 8))
    def test_size_seed_matrix(self, n_sites, seed):
        session, forest = build_forest(n_sites, seed, "rj")
        dp_rng = RngStream(seed, label="dp")
        fast = FastDataPlane(session, forest, dp_rng.spawn("x")).run(777.0)
        event = ForestDataPlane(session, forest, dp_rng.spawn("x")).run(777.0)
        assert_reports_identical(fast, event)

    @pytest.mark.parametrize("algorithm", ("ltf", "co-rj", "gran-ltf"))
    def test_algorithm_matrix(self, algorithm):
        session, forest = build_forest(6, 11, algorithm)
        dp_rng = RngStream(5, label="dp")
        fast = FastDataPlane(session, forest, dp_rng.spawn("x")).run(1000.0)
        event = ForestDataPlane(session, forest, dp_rng.spawn("x")).run(1000.0)
        assert_reports_identical(fast, event)

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_matrix(self, name):
        """Forests produced by live scenario churn disseminate identically."""
        runtime = ScenarioRuntime(
            get_scenario(name, sites=6, seed=17), audit=False
        )
        runtime.run()
        result = runtime.server.last_result
        assert result is not None
        dp_rng = RngStream(17, label="dp")
        fast = FastDataPlane(
            runtime.session, result.forest, dp_rng.spawn("x")
        ).run(500.0)
        event = ForestDataPlane(
            runtime.session, result.forest, dp_rng.spawn("x")
        ).run(500.0)
        assert_reports_identical(fast, event)

    @pytest.mark.parametrize("duration_ms", (0.0, 66.0, 333.3, 2000.0))
    def test_duration_edge_cases(self, duration_ms):
        """Capture-cadence float accumulation matches at any horizon."""
        session, forest = build_forest(4, 2, "rj")
        dp_rng = RngStream(9, label="dp")
        fast = FastDataPlane(session, forest, dp_rng.spawn("x")).run(duration_ms)
        event = ForestDataPlane(session, forest, dp_rng.spawn("x")).run(duration_ms)
        assert_reports_identical(fast, event)


class TestDispatch:
    def test_zero_noise_gets_fast_plane(self):
        session, forest = build_forest(4, 1, "rj")
        plane = make_dataplane(session, forest, RngStream(1).spawn("dp"))
        assert isinstance(plane, FastDataPlane)
        assert plane.kind == "fast"

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"jitter_ms": 4.0},
            {"loss_probability": 0.1},
            {"jitter_ms": 2.0, "loss_probability": 0.05},
        ),
    )
    def test_noise_gets_event_plane(self, kwargs):
        session, forest = build_forest(4, 1, "rj")
        plane = make_dataplane(
            session, forest, RngStream(1).spawn("dp"), **kwargs
        )
        assert isinstance(plane, ForestDataPlane)
        assert plane.kind == "event"
        # and it actually honours the noise parameters
        assert plane.network.jitter_ms == kwargs.get("jitter_ms", 0.0)
        assert plane.network.loss_probability == kwargs.get(
            "loss_probability", 0.0
        )

    def test_fast_plane_refuses_noise(self):
        session, forest = build_forest(4, 1, "rj")
        with pytest.raises(SimulationError):
            FastDataPlane(
                session, forest, RngStream(1).spawn("dp"), jitter_ms=1.0
            )
        with pytest.raises(SimulationError):
            FastDataPlane(
                session, forest, RngStream(1).spawn("dp"), loss_probability=0.5
            )

    def test_noisy_run_still_works_via_factory(self):
        session, forest = build_forest(4, 1, "rj")
        report = make_dataplane(
            session, forest, RngStream(1).spawn("dp"), jitter_ms=3.0
        ).run(400.0)
        assert report.frames_delivered > 0


class TestScenarioDataplaneMeasurement:
    def test_sidecar_accumulates(self):
        runtime = ScenarioRuntime(
            get_scenario("flash-crowd", sites=5, seed=7),
            audit=False,
            dataplane=True,
        )
        report = runtime.run()
        assert report.dataplane_frames_delivered > 0
        assert report.dataplane_mean_latency_ms > 0.0
        assert report.dataplane_max_latency_ms >= report.dataplane_mean_latency_ms
        assert "data plane:" in report.summary()

    def test_sidecar_off_by_default(self):
        report = ScenarioRuntime(
            get_scenario("flash-crowd", sites=5, seed=7), audit=False
        ).run()
        assert report.dataplane_frames_delivered == 0
        assert "data plane:" not in report.summary()

    def test_sidecar_is_deterministic(self):
        spec = get_scenario("mixed-churn", sites=5, seed=23)
        first = ScenarioRuntime(spec, audit=False, dataplane=True).run()
        second = ScenarioRuntime(spec, audit=False, dataplane=True).run()
        assert (
            first.dataplane_frames_delivered
            == second.dataplane_frames_delivered
        )
        assert (
            first.dataplane_total_latency_ms
            == second.dataplane_total_latency_ms
        )


def twin_reports():
    """Two equal reports from separate runs, so neither shares the other's state."""
    session, forest = build_forest(4, 4, "rj")
    a = FastDataPlane(session, forest, RngStream(1).spawn("dp")).run(300.0)
    b = FastDataPlane(session, forest, RngStream(1).spawn("dp")).run(300.0)
    assert reports_equal(a, b)
    return a, b


class TestReportsEqual:
    def test_detects_divergence(self):
        a, b = twin_reports()
        b.frames_delivered += 1
        assert not reports_equal(a, b)

    @pytest.mark.parametrize(
        "name",
        ("duration_ms", "frames_captured", "frames_delivered",
         "latency_bound_ms", "sends_dropped", "duplicates_discarded",
         "nacks_sent", "repairs_sent", "frames_recovered",
         "frames_unrecovered"),
    )
    def test_every_counter_is_compared(self, name):
        a, b = twin_reports()
        setattr(b, name, getattr(b, name) + 1)
        assert not reports_equal(a, b)
        assert not reports_equal(b, a)

    @pytest.mark.parametrize(
        "name", ("frames", "total_latency_ms", "max_latency_ms")
    )
    def test_every_pair_statistic_is_compared(self, name):
        a, b = twin_reports()
        column = {"frames": "frames", "total_latency_ms": "totals",
                  "max_latency_ms": "maxima"}[name]
        getattr(b.deliveries, column)[0] += 1
        assert getattr(next(iter(b.deliveries.values())), name) != getattr(
            next(iter(a.deliveries.values())), name
        )
        assert not reports_equal(a, b)

    def test_a_missing_pair_is_a_divergence(self):
        a, b = twin_reports()
        table = b.deliveries
        b.deliveries = DeliveryTable(
            table.streams[1:], table.nodes[1:], table.frames[1:],
            table.totals[1:], table.maxima[1:],
        )
        assert not reports_equal(a, b)
        assert not reports_equal(b, a)

    def test_bytes_per_site_are_compared(self):
        a, b = twin_reports()
        site = next(iter(b.bytes_sent_by_site))
        b.bytes_sent_by_site[site] += 1
        assert not reports_equal(a, b)

    def test_latency_percentiles_are_not_compared(self):
        a, b = twin_reports()
        b.latency_percentiles = {50: 1.0, 90: 2.0, 99: 3.0}
        assert reports_equal(a, b)
