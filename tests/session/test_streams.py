"""Tests for stream identity and the registry."""

from __future__ import annotations

import pytest

from repro.errors import SubscriptionError
from repro.session.streams import (
    StreamDescriptor,
    StreamId,
    StreamRegistry,
)


class TestStreamId:
    def test_str_matches_paper_notation(self):
        assert str(StreamId(site=2, index=7)) == "s2^7"

    def test_negative_site_rejected(self):
        with pytest.raises(SubscriptionError):
            StreamId(site=-1, index=0)

    def test_negative_index_rejected(self):
        with pytest.raises(SubscriptionError):
            StreamId(site=0, index=-1)

    def test_ordering_site_major(self):
        assert StreamId(0, 5) < StreamId(1, 0)
        assert StreamId(1, 0) < StreamId(1, 1)

    def test_hashable_and_equal(self):
        assert StreamId(1, 2) == StreamId(1, 2)
        assert len({StreamId(1, 2), StreamId(1, 2)}) == 1


class TestStreamDescriptor:
    def test_default_bandwidth_in_compressed_range(self):
        d = StreamDescriptor(StreamId(0, 0), camera_id="cam")
        assert 5.0 <= d.bandwidth_mbps <= 10.0

    def test_non_positive_bandwidth_rejected(self):
        with pytest.raises(SubscriptionError):
            StreamDescriptor(StreamId(0, 0), camera_id="cam", bandwidth_mbps=0.0)


class TestStreamRegistry:
    def make_registry(self) -> StreamRegistry:
        registry = StreamRegistry()
        for site in (0, 1):
            for q in range(3):
                registry.register(
                    StreamDescriptor(StreamId(site, q), camera_id=f"c{site}{q}")
                )
        return registry

    def test_register_and_len(self):
        assert len(self.make_registry()) == 6

    def test_duplicate_rejected(self):
        registry = self.make_registry()
        with pytest.raises(SubscriptionError):
            registry.register(StreamDescriptor(StreamId(0, 0), camera_id="x"))

    def test_streams_of_site_ordered(self):
        registry = self.make_registry()
        ids = [d.stream_id for d in registry.streams_of_site(1)]
        assert ids == [StreamId(1, 0), StreamId(1, 1), StreamId(1, 2)]

    def test_streams_of_unknown_site_empty(self):
        assert self.make_registry().streams_of_site(9) == []

    def test_describe_unknown_raises(self):
        with pytest.raises(SubscriptionError):
            self.make_registry().describe(StreamId(5, 5))

    def test_contains(self):
        registry = self.make_registry()
        assert StreamId(0, 2) in registry
        assert StreamId(0, 3) not in registry

    def test_iteration_sorted_by_site(self):
        sites = [d.stream_id.site for d in self.make_registry()]
        assert sites == sorted(sites)

    def test_sites_property(self):
        assert self.make_registry().sites == [0, 1]
