"""NACK/repair layer tests for the event-driven data plane.

Three pillars:

* **Transparency** — at zero noise the armed NACK machinery draws no
  RNG, sends no messages and touches no counters, so the report stays
  bit-identical to the analytic :class:`FastDataPlane`.
* **Recovery** — under 20% loss with a generous repair budget every
  lost frame instance is recovered: the delivery accounting converges
  to exactly what the lossless run would have produced.
* **Bounded give-up** — an unreachable receiver burns exactly
  ``max_repair_attempts`` NACKs per missing instance, is counted
  unrecovered exactly once, and leaves no armed timers behind.
"""

from __future__ import annotations

import pytest

from repro import make_builder, quick_problem, quick_session
from repro.errors import ConfigurationError, SimulationError
from repro.media.frames import Frame3D
from repro.perf.sweep import reports_equal
from repro.sim.dataplane import (
    FastDataPlane,
    ForestDataPlane,
    make_dataplane,
)
from repro.util.rng import RngStream
from tests.conftest import children
from tests.forced_links import force_drops

#: A repair budget loss cannot realistically exhaust (see the
#: lossy-dissemination scenario for the sizing rationale).
GENEROUS = {"max_repair_attempts": 30, "repair_deadline_factor": 20.0}


def build_forest(n_sites: int, seed: int, algorithm: str = "rj"):
    rng = RngStream(seed)
    session = quick_session(n_sites=n_sites, rng=rng)
    problem = quick_problem(session, rng=rng)
    result = make_builder(algorithm).build(problem, rng.spawn("build"))
    return session, result.forest


class TestZeroNoiseTransparency:
    @pytest.mark.parametrize("seed", (3, 7, 21))
    def test_nack_armed_deterministic_run_is_bit_identical(self, seed):
        """Arming NACK on a zero-noise run must not move a single bit of
        the report relative to the analytic plane."""
        session, forest = build_forest(6, seed)
        dp_rng = RngStream(seed, label="dp")
        fast = FastDataPlane(session, forest, dp_rng.spawn("x")).run(777.0)
        armed = ForestDataPlane(
            session, forest, dp_rng.spawn("x"), nack_enabled=True, **GENEROUS
        ).run(777.0)
        assert reports_equal(fast, armed)
        assert armed.nacks_sent == 0
        assert armed.repairs_sent == 0
        assert armed.frames_recovered == 0
        assert armed.frames_unrecovered == 0
        assert armed.duplicates_discarded == 0
        assert armed.sends_dropped == 0
        assert armed.latency_percentiles == {}


class TestRecovery:
    def run_lossy(self, seed: int = 7, duration_ms: float = 1000.0):
        session, forest = build_forest(8, seed)
        plane = ForestDataPlane(
            session,
            forest,
            RngStream(seed, label="dp").spawn("x"),
            jitter_ms=5.0,
            loss_probability=0.2,
            nack_enabled=True,
            **GENEROUS,
        )
        return session, forest, plane.run(duration_ms)

    def test_all_losses_recovered(self):
        session, forest, report = self.run_lossy()
        assert report.sends_dropped > 0  # the chaos actually happened
        assert report.nacks_sent > 0
        assert report.repairs_sent > 0
        assert report.frames_recovered > 0
        assert report.frames_unrecovered == 0

    def test_recovery_restores_lossless_delivery_accounting(self):
        """With every loss repaired, frame counts per (stream, receiver)
        equal the lossless run's exactly — only latencies differ."""
        session, forest, lossy = self.run_lossy()
        fast = FastDataPlane(
            session, forest, RngStream(7, label="dp").spawn("x")
        ).run(1000.0)
        assert lossy.frames_captured == fast.frames_captured
        assert lossy.frames_delivered == fast.frames_delivered
        assert set(lossy.deliveries) == set(fast.deliveries)
        fast_stats = dict(fast.deliveries.items())  # a table lookup scans
        for key, stats in lossy.deliveries.items():
            assert stats.frames == fast_stats[key].frames, key

    def test_recovery_is_deterministic(self):
        _, _, first = self.run_lossy(seed=23)
        _, _, second = self.run_lossy(seed=23)
        assert reports_equal(first, second)
        assert first.latency_percentiles == second.latency_percentiles

    @pytest.mark.parametrize("factor", (float("inf"), float("nan"), -1.0))
    def test_repair_deadline_must_be_finite(self, factor):
        session, forest = build_forest(4, 7)
        with pytest.raises(ConfigurationError, match="repair_deadline_factor"):
            ForestDataPlane(
                session, forest, RngStream(7), repair_deadline_factor=factor
            )

    def test_starved_budget_leaves_frames_unrecovered(self):
        session, forest = build_forest(8, 7)
        report = ForestDataPlane(
            session,
            forest,
            RngStream(7, label="dp").spawn("x"),
            loss_probability=0.2,
            nack_enabled=True,
            max_repair_attempts=1,
            repair_deadline_factor=0.01,
        ).run(1000.0)
        assert report.frames_unrecovered > 0


class TestBoundedGiveUp:
    def starve_one_leaf(self, attempts: int):
        """Drop one stream's every frame to one of its leaf receivers.

        A leaf of that tree relays to nobody, so the starvation is
        contained to exactly one (stream, site) instance set and the
        repair counts are exact.
        """
        session, forest = build_forest(6, 11)
        stream, leaf = next(
            (stream_id, site)
            for stream_id, tree in forest.trees.items()
            for site in tree.receivers()
            if not children(tree, site)
        )
        plane = ForestDataPlane(
            session,
            forest,
            RngStream(11, label="dp").spawn("x"),
            nack_enabled=True,
            max_repair_attempts=attempts,
            repair_deadline_factor=1000.0,  # only the attempt cap binds
        )
        # A frame arrives as ``(receiver, frame)``; a NACK carries no frame.
        force_drops(
            plane.network,
            lambda kind, attempt, args: args[0] == leaf
            and isinstance(args[-1], Frame3D)
            and args[-1].stream_id == stream,
        )
        report = plane.run(500.0)
        # Every stream runs the same 15fps clock, so frames split evenly
        # across the active trees; the starved instances are one full
        # stream's worth.
        active = forest_trees_with_receivers(forest)
        instances = report.frames_captured // len(active)
        return plane, report, (stream, leaf), instances

    def test_give_up_is_exact_and_settles(self):
        plane, report, starved, instances = self.starve_one_leaf(attempts=2)
        assert instances > 0
        # Each missing instance burned exactly its attempt budget and
        # was counted unrecovered exactly once.
        assert report.frames_unrecovered == instances
        assert report.nacks_sent == 2 * instances
        assert report.repairs_sent == 2 * instances  # parents had copies
        assert report.frames_recovered == 0
        # The run terminated with no repair state still armed.
        assert not plane._pending
        # The starvation was contained: the starved pair delivered
        # nothing, everyone else everything.
        assert starved not in report.deliveries
        frames_per_tree = instances
        for key, stats in report.deliveries.items():
            assert stats.frames == frames_per_tree, key

    def test_larger_budget_scales_linearly(self):
        _, two, _, instances = self.starve_one_leaf(attempts=2)
        _, five, _, _ = self.starve_one_leaf(attempts=5)
        assert five.nacks_sent == 5 * instances
        assert five.frames_unrecovered == two.frames_unrecovered


def forest_trees_with_receivers(forest):
    return [t for t in forest.trees.values() if t.receivers()]


class TestDuplicationDispatch:
    """make_dataplane must route duplication to the event plane (it used
    to drop the knob on the floor and hand back the fast plane)."""

    def test_duplication_routes_to_event_plane(self):
        session, forest = build_forest(4, 1)
        plane = make_dataplane(
            session,
            forest,
            RngStream(1).spawn("dp"),
            duplicate_probability=0.3,
        )
        assert isinstance(plane, ForestDataPlane)
        assert plane.kind == "event"
        assert plane.network.duplicate_probability == 0.3

    def test_duplicates_are_discarded_and_counted(self):
        session, forest = build_forest(4, 1)
        report = make_dataplane(
            session,
            forest,
            RngStream(1).spawn("dp"),
            duplicate_probability=0.5,
        ).run(500.0)
        assert report.duplicates_discarded > 0
        # Dedup means duplication never inflates the delivery counts.
        fast = make_dataplane(
            session, forest, RngStream(1).spawn("dp")
        ).run(500.0)
        assert report.frames_delivered == fast.frames_delivered

    def test_fast_plane_refuses_duplication(self):
        session, forest = build_forest(4, 1)
        with pytest.raises(SimulationError):
            make_dataplane(
                session,
                forest,
                RngStream(1).spawn("dp"),
                duplicate_probability=0.3,
                plane="fast",
            )

    def test_nack_alone_keeps_the_fast_plane(self):
        """NACK armed with zero noise is pinned transparent, so auto
        dispatch may (and does) keep the analytic plane."""
        session, forest = build_forest(4, 1)
        plane = make_dataplane(
            session, forest, RngStream(1).spawn("dp"), nack_enabled=True
        )
        assert isinstance(plane, FastDataPlane)
