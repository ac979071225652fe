"""Tests for the stream-centric coverage workload."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel


class TestValidation:
    def test_bad_interest(self):
        with pytest.raises(ConfigurationError):
            CoverageWorkloadModel(interest=1.5)

    def test_bad_popularity(self):
        with pytest.raises(ConfigurationError):
            CoverageWorkloadModel(popularity="power-law")

    def test_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            CoverageWorkloadModel(popularity="zipf", zipf_exponent=0.0)

    def test_bad_focus_skew(self):
        with pytest.raises(ConfigurationError):
            CoverageWorkloadModel(focus_skew=-1.0)

    def test_bad_mean_subscribers(self):
        with pytest.raises(ConfigurationError):
            CoverageWorkloadModel(mean_subscribers=0.0)


class TestGuarantee:
    def test_every_stream_subscribed_when_guaranteed(self, small_session, rng):
        model = CoverageWorkloadModel(interest=0.01, guarantee_coverage=True)
        workload = model.generate(small_session, rng)
        groups = workload.groups()
        for descriptor in small_session.registry:
            assert descriptor.stream_id in groups

    def test_unpopular_streams_unsubscribed_without_guarantee(
        self, small_session, rng
    ):
        model = CoverageWorkloadModel(interest=0.01, guarantee_coverage=False)
        workload = model.generate(small_session, rng)
        assert len(workload.groups()) < small_session.total_streams()


class TestInterestCalibration:
    def test_higher_interest_more_requests(self, small_session):
        low = CoverageWorkloadModel(interest=0.05).generate(
            small_session, RngStream(3)
        )
        high = CoverageWorkloadModel(interest=0.6).generate(
            small_session, RngStream(3)
        )
        assert high.total_requests() > low.total_requests()

    def test_zipf_front_camera_most_popular(self, small_session):
        model = CoverageWorkloadModel(interest=0.3, popularity="zipf")
        root = RngStream(5)
        front, back = 0, 0
        for k in range(30):
            workload = model.generate(small_session, root.spawn(str(k)))
            for group_stream, members in workload.groups().items():
                if group_stream.index == 0:
                    front += len(members)
                elif group_stream.index == 5:
                    back += len(members)
        assert front > back

    def test_mean_subscribers_overrides_interest(self, small_session):
        model = CoverageWorkloadModel(
            interest=0.0001, mean_subscribers=2.0, guarantee_coverage=False
        )
        workload = model.generate(small_session, RngStream(4))
        expected = small_session.total_streams() * 2.0
        assert workload.total_requests() == pytest.approx(expected, rel=0.4)


class TestFocusSkew:
    def test_skew_widens_u_spread(self, small_session):
        def spread(model):
            total, sq, count = 0.0, 0.0, 0
            root = RngStream(8)
            for k in range(30):
                workload = model.generate(small_session, root.spawn(str(k)))
                for streams in workload.subscriptions.values():
                    # u_{i->j}: this subscriber's requests per source j.
                    for u in Counter(stream.site for stream in streams).values():
                        total += u
                        sq += u * u
                        count += 1
            mean = total / count
            return sq / count - mean * mean

        flat = CoverageWorkloadModel(interest=0.3, focus_skew=0.0)
        skewed = CoverageWorkloadModel(interest=0.3, focus_skew=2.0)
        assert spread(skewed) > spread(flat)

    def test_two_sites_skew_degenerate(self, tier1_topology):
        from repro.session.capacity import UniformCapacityModel
        from repro.session.session import SessionConfig, build_session

        session = build_session(
            tier1_topology,
            UniformCapacityModel(streams_per_site=4),
            RngStream(2),
            SessionConfig(n_sites=2),
        )
        model = CoverageWorkloadModel(interest=0.5, focus_skew=1.0)
        workload = model.generate(session, RngStream(3))
        assert workload.n_sites == 2

    def test_deterministic(self, small_session):
        model = CoverageWorkloadModel(interest=0.2, focus_skew=1.0)
        a = model.generate(small_session, RngStream(9))
        b = model.generate(small_session, RngStream(9))
        assert a.subscriptions == b.subscriptions

    def test_single_site_pair_rejected(self, tier1_topology):
        from repro.session.capacity import UniformCapacityModel
        from repro.session.session import SessionConfig, build_session

        session = build_session(
            tier1_topology,
            UniformCapacityModel(streams_per_site=4),
            RngStream(2),
            SessionConfig(n_sites=1),
        )
        with pytest.raises(ConfigurationError):
            CoverageWorkloadModel().generate(session, RngStream(1))
