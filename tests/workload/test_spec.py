"""Tests for the subscription workload data model."""

from __future__ import annotations

import pytest

from repro.errors import SubscriptionError
from repro.session.streams import StreamId
from repro.workload.spec import SubscriptionWorkload, WorkloadSpec


def make_workload() -> SubscriptionWorkload:
    return SubscriptionWorkload.from_site_sets(
        3,
        {
            0: [StreamId(1, 0), StreamId(1, 1), StreamId(2, 0)],
            1: [StreamId(0, 0)],
            2: [StreamId(0, 0), StreamId(1, 0)],
        },
    )


class TestWorkloadSpec:
    def test_defaults(self):
        spec = WorkloadSpec()
        assert spec.displays_per_site >= 1

    def test_invalid(self):
        with pytest.raises(SubscriptionError):
            WorkloadSpec(displays_per_site=0)
        with pytest.raises(SubscriptionError):
            WorkloadSpec(fov_size=0)


class TestSubscriptionWorkload:
    def test_total_requests(self):
        assert make_workload().total_requests() == 6

    def test_groups(self):
        groups = make_workload().groups()
        assert groups[StreamId(0, 0)] == frozenset({1, 2})
        assert groups[StreamId(1, 0)] == frozenset({0, 2})
        assert groups[StreamId(1, 1)] == frozenset({0})

    def test_duplicates_deduplicated(self):
        workload = SubscriptionWorkload.from_site_sets(
            2, {0: [StreamId(1, 0), StreamId(1, 0)]}
        )
        assert workload.total_requests() == 1

    def test_self_subscription_rejected(self):
        with pytest.raises(SubscriptionError):
            SubscriptionWorkload.from_site_sets(2, {0: [StreamId(0, 0)]})

    def test_out_of_range_subscriber_rejected(self):
        with pytest.raises(SubscriptionError):
            SubscriptionWorkload.from_site_sets(2, {5: [StreamId(0, 0)]})

    def test_out_of_range_source_rejected(self):
        with pytest.raises(SubscriptionError):
            SubscriptionWorkload.from_site_sets(2, {0: [StreamId(9, 0)]})

    def test_streams_of_missing_site_empty(self):
        assert make_workload().streams_of(99) == ()
