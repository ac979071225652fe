"""Tests for the display-driven workload generator."""

from __future__ import annotations

from repro.util.rng import RngStream
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec
from repro.workload.uniform import UniformPopularity
from repro.workload.zipf import ZipfPopularity


class TestGenerator:
    def test_no_self_subscriptions(self, small_session, rng):
        generator = WorkloadGenerator(
            session=small_session, popularity=UniformPopularity()
        )
        workload = generator.generate(rng)
        for site, streams in workload.subscriptions.items():
            assert all(stream.site != site for stream in streams)

    def test_union_bounded_by_display_budget(self, small_session, rng):
        spec = WorkloadSpec(displays_per_site=2, fov_size=3)
        generator = WorkloadGenerator(
            session=small_session, popularity=UniformPopularity(), spec=spec
        )
        workload = generator.generate(rng)
        for streams in workload.subscriptions.values():
            assert len(streams) <= 2 * 3

    def test_deterministic(self, small_session):
        generator = WorkloadGenerator(
            session=small_session, popularity=UniformPopularity()
        )
        a = generator.generate(RngStream(3))
        b = generator.generate(RngStream(3))
        assert a.subscriptions == b.subscriptions

    def test_zipf_prefers_front_cameras(self, small_session):
        generator = WorkloadGenerator(
            session=small_session,
            popularity=ZipfPopularity(exponent=1.5),
            spec=WorkloadSpec(displays_per_site=2, fov_size=2),
        )
        root = RngStream(5)
        front, rear = 0, 0
        for k in range(50):
            workload = generator.generate(root.spawn(str(k)))
            for streams in workload.subscriptions.values():
                for stream in streams:
                    if stream.index == 0:
                        front += 1
                    elif stream.index >= 4:
                        rear += 1
        assert front > rear

    def test_independent_draws_differ(self, small_session, rng):
        generator = WorkloadGenerator(
            session=small_session, popularity=UniformPopularity()
        )
        samples = [generator.generate(rng.spawn(f"sample-{k}")) for k in range(5)]
        assert len({repr(sorted(s.subscriptions.items())) for s in samples}) > 1

    def test_spec_popularity_recorded(self, small_session):
        generator = WorkloadGenerator(
            session=small_session, popularity=ZipfPopularity()
        )
        assert generator.spec.popularity == "zipf"
