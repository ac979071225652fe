"""Sampled-percentile plane tests: exactness, agreement, dispatch, speed.

The :class:`SampledDataPlane` replaces the event heap with bulk draws
convolved along tree paths.  Its contract has three legs:

* at **zero noise** it degrades to the exact :class:`FastDataPlane`
  arithmetic (same report, bit for bit — except it always fills the
  percentiles);
* under **noise** it matches the event-driven oracle's latency
  percentiles within a small tolerance (the distributions are equal in
  law; only the draw order differs);
* it is **deterministic per seed and identical across array backends**
  (all randomness comes from the RngStream, never the backend).
"""

from __future__ import annotations

import time

import pytest

from repro import make_builder, quick_problem, quick_session
from repro.errors import SimulationError
from repro.perf.sweep import reports_equal
from repro.sim.dataplane import (
    FastDataPlane,
    ForestDataPlane,
    SampledDataPlane,
    make_dataplane,
)
from repro.util.rng import RngStream

#: Relative oracle-agreement tolerances pinned here and documented in
#: docs/PERFORMANCE.md: the tail percentile sees fewer samples, so it
#: gets the looser bound.
P50_P90_RTOL = 0.05
P99_RTOL = 0.10

NOISY = {"jitter_ms": 5.0, "loss_probability": 0.2}


def build_forest(n_sites: int, seed: int, algorithm: str = "rj"):
    rng = RngStream(seed)
    session = quick_session(n_sites=n_sites, rng=rng)
    problem = quick_problem(session, rng=rng)
    result = make_builder(algorithm).build(problem, rng.spawn("build"))
    return session, result.forest


class TestZeroNoiseExactness:
    @pytest.mark.parametrize("seed", (3, 7, 21))
    @pytest.mark.parametrize("n_sites", (3, 6, 8))
    def test_collapses_to_fast_plane(self, n_sites, seed):
        session, forest = build_forest(n_sites, seed)
        dp_rng = RngStream(seed, label="dp")
        fast = FastDataPlane(session, forest, dp_rng.spawn("x")).run(777.0)
        sampled = SampledDataPlane(session, forest, dp_rng.spawn("x")).run(
            777.0
        )
        assert reports_equal(fast, sampled)
        assert sampled.sends_dropped == 0
        # The one deliberate difference: the sampled plane always
        # summarizes its latencies.
        assert fast.latency_percentiles == {}
        if sampled.frames_delivered:
            assert sampled.latency_percentiles


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", (3, 7, 21))
    def test_noisy_percentiles_match_event_plane(self, seed):
        session, forest = build_forest(8, seed)
        dp_rng = RngStream(seed, label="dp")
        event = ForestDataPlane(
            session,
            forest,
            dp_rng.spawn("e"),
            collect_percentiles=True,
            **NOISY,
        ).run(2000.0)
        sampled = SampledDataPlane(
            session, forest, dp_rng.spawn("s"), **NOISY
        ).run(2000.0)
        for q, rtol in ((50, P50_P90_RTOL), (90, P50_P90_RTOL), (99, P99_RTOL)):
            oracle = event.latency_percentiles[q]
            ours = sampled.latency_percentiles[q]
            assert abs(ours - oracle) <= rtol * oracle, (
                f"p{q}: sampled {ours:.2f} vs event {oracle:.2f}"
            )
        # Loss hits both planes at the configured rate: delivered
        # volumes agree within a few percent.
        assert (
            abs(sampled.frames_delivered - event.frames_delivered)
            <= 0.05 * event.frames_delivered
        )

    def test_loss_correlates_down_the_subtree(self):
        """A frame lost at a hop must be lost for the entire subtree
        below it: delivered fraction at depth d is (1-p)^d on average,
        not (1-p) independently per node."""
        session, forest = build_forest(8, 7)
        report = SampledDataPlane(
            session,
            forest,
            RngStream(7, label="dp").spawn("x"),
            loss_probability=0.3,
        ).run(2000.0)
        depths: dict[int, list[float]] = {}
        for (stream_id, node), stats in report.deliveries.items():
            tree = forest.trees[stream_id]
            depth, cursor = 0, node
            while tree.parent(cursor) is not None:
                cursor = tree.parent(cursor)
                depth += 1
            n_frames = report.frames_captured // len(
                [t for t in forest.trees.values() if t.receivers()]
            )
            depths.setdefault(depth, []).append(stats.frames / n_frames)
        rates = {d: sum(v) / len(v) for d, v in sorted(depths.items())}
        assert len(rates) >= 2  # the forest actually has depth
        for shallow, deep in zip(sorted(rates), sorted(rates)[1:]):
            assert rates[deep] < rates[shallow]


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        session, forest = build_forest(8, 23)

        def run():
            return SampledDataPlane(
                session,
                forest,
                RngStream(23, label="dp").spawn("x"),
                **NOISY,
            ).run(1000.0)

        first, second = run(), run()
        assert reports_equal(first, second)
        assert first.latency_percentiles == second.latency_percentiles

    def test_different_seeds_diverge(self):
        session, forest = build_forest(8, 23)
        one = SampledDataPlane(
            session, forest, RngStream(1, label="dp").spawn("x"), **NOISY
        ).run(1000.0)
        two = SampledDataPlane(
            session, forest, RngStream(2, label="dp").spawn("x"), **NOISY
        ).run(1000.0)
        assert not reports_equal(one, two)


class TestDispatch:
    def test_sampled_is_explicit_opt_in(self):
        session, forest = build_forest(4, 1)
        plane = make_dataplane(
            session,
            forest,
            RngStream(1).spawn("dp"),
            loss_probability=0.2,
            plane="sampled",
        )
        assert isinstance(plane, SampledDataPlane)
        assert plane.kind == "sampled"
        # auto keeps routing noise to the oracle.
        auto = make_dataplane(
            session, forest, RngStream(1).spawn("dp"), loss_probability=0.2
        )
        assert isinstance(auto, ForestDataPlane)

    def test_sampled_refuses_duplication_and_nack(self):
        session, forest = build_forest(4, 1)
        with pytest.raises(SimulationError):
            make_dataplane(
                session,
                forest,
                RngStream(1).spawn("dp"),
                duplicate_probability=0.1,
                plane="sampled",
            )
        with pytest.raises(SimulationError):
            make_dataplane(
                session,
                forest,
                RngStream(1).spawn("dp"),
                nack_enabled=True,
                plane="sampled",
            )

    def test_unknown_plane_rejected(self):
        session, forest = build_forest(4, 1)
        with pytest.raises(SimulationError):
            make_dataplane(
                session, forest, RngStream(1).spawn("dp"), plane="warp"
            )

    def test_event_can_be_forced_at_zero_noise(self):
        session, forest = build_forest(4, 1)
        plane = make_dataplane(
            session, forest, RngStream(1).spawn("dp"), plane="event"
        )
        assert isinstance(plane, ForestDataPlane)


@pytest.mark.slow
class TestSpeedup:
    def test_five_x_faster_than_event_plane_at_256(self):
        """The acceptance bar: >= 5x over the event plane at N=256 under
        20% loss, each plane timed at its best of three interleaved runs
        so scheduler noise shaves neither side alone."""
        from repro.core.problem import ForestProblem
        from repro.session.capacity import UniformCapacityModel
        from repro.session.session import SessionConfig, build_session
        from repro.topology.backbone import load_backbone
        from repro.workload.coverage import CoverageWorkloadModel

        rng = RngStream(42, label="perf/N256")
        session = build_session(
            load_backbone("synthetic-256"),
            UniformCapacityModel(streams_per_site=4),
            rng.spawn("session"),
            SessionConfig(n_sites=256, displays_per_site=2),
        )
        workload = CoverageWorkloadModel(
            mean_subscribers=6.0, guarantee_coverage=False
        ).generate(session, rng.spawn("workload"))
        problem = ForestProblem.from_workload(session, workload, 120.0)
        forest = make_builder("rj").build(problem, rng.spawn("build")).forest

        def timed(plane_cls):
            start = time.perf_counter()
            plane_cls(session, forest, rng.spawn("timing"), **NOISY).run(1000.0)
            return time.perf_counter() - start

        event_s = sampled_s = float("inf")
        for _ in range(3):
            event_s = min(event_s, timed(ForestDataPlane))
            sampled_s = min(sampled_s, timed(SampledDataPlane))
        assert event_s / sampled_s >= 5.0, (
            f"sampled {sampled_s * 1000:.1f}ms vs event "
            f"{event_s * 1000:.1f}ms: {event_s / sampled_s:.1f}x"
        )
