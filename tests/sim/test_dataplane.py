"""Tests for the forest data plane."""

from __future__ import annotations

import pytest

from repro.core.randomized import RandomJoinBuilder
from repro.sim.dataplane import ForestDataPlane
from repro.util.rng import RngStream


@pytest.fixture
def built(small_session, small_problem, rng):
    result = RandomJoinBuilder().build(small_problem, rng.spawn("build"))
    result.verify()
    return result


class TestDataPlane:
    def run_plane(self, small_session, built, rng, **kwargs):
        plane = ForestDataPlane(
            session=small_session,
            forest=built.forest,
            rng=rng.spawn("dp"),
            latency_bound_ms=built.problem.latency_bound_ms,
            **kwargs,
        )
        return plane.run(duration_ms=500.0)

    def test_delivery_latency_equals_tree_cost(
        self, small_session, built, rng
    ):
        report = self.run_plane(small_session, built, rng)
        for (stream, site), stats in report.deliveries.items():
            tree = built.forest.trees[stream]
            assert stats.total_latency_ms / stats.frames == pytest.approx(
                tree.cost_from_source(site)
            )
            assert stats.max_latency_ms == pytest.approx(
                tree.cost_from_source(site)
            )

    def test_no_bound_violations_without_jitter(
        self, small_session, built, rng
    ):
        report = self.run_plane(small_session, built, rng)
        assert report.bound_violations() == 0

    def test_every_satisfied_receiver_got_frames(
        self, small_session, built, rng
    ):
        report = self.run_plane(small_session, built, rng)
        for request in built.satisfied:
            key = (request.stream, request.subscriber)
            assert key in report.deliveries
            assert report.deliveries[key].frames > 0

    def test_frames_delivered_counts(self, small_session, built, rng):
        report = self.run_plane(small_session, built, rng)
        expected_receivers = sum(
            len(tree.receivers()) for tree in built.forest.trees.values()
        )
        # each receiver gets one delivery per captured frame of its stream
        assert report.frames_delivered == sum(
            stats.frames for stats in report.deliveries.values()
        )
        assert len(report.deliveries) == expected_receivers

    def test_bytes_accounted_per_relay(self, small_session, built, rng):
        report = self.run_plane(small_session, built, rng)
        total_sent = sum(report.bytes_sent_by_site.values())
        assert total_sent > 0
        # Conservation: every delivered frame was sent exactly once.
        assert report.frames_delivered > 0

    def test_out_mbps_positive_for_sources(self, small_session, built, rng):
        report = self.run_plane(small_session, built, rng)
        rates = report.out_mbps_by_site()
        active_sources = {
            stream.site
            for stream, tree in built.forest.trees.items()
            if tree.receivers()
        }
        for site in active_sources:
            assert rates[site] > 0.0

    def test_loss_reduces_deliveries(self, small_session, built, rng):
        lossless = self.run_plane(small_session, built, rng)
        lossy = self.run_plane(
            small_session, built, rng, loss_probability=0.5
        )
        assert lossy.frames_delivered < lossless.frames_delivered

    def test_unsubscribed_streams_stay_local(
        self, small_session, built, rng
    ):
        report = self.run_plane(small_session, built, rng)
        receiverless = [
            stream
            for stream, tree in built.forest.trees.items()
            if not tree.receivers()
        ]
        for stream in receiverless:
            assert all(key[0] != stream for key in report.deliveries)
