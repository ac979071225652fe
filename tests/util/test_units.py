"""Tests for unit constants and conversions."""

from __future__ import annotations

import pytest

from repro.util.units import (
    COMPRESSED_STREAM_MBPS,
    RAW_STREAM_MBPS,
    mbps_for_stream,
    propagation_delay_ms,
)


class TestPropagationDelay:
    def test_zero_distance_zero_hops(self):
        assert propagation_delay_ms(0.0, hops=0) == 0.0

    def test_200km_is_one_ms_plus_hop(self):
        assert propagation_delay_ms(200.0, hops=0) == pytest.approx(1.0)

    def test_hop_delay_added(self):
        assert propagation_delay_ms(0.0, hops=2) == pytest.approx(1.0)

    def test_monotone_in_distance(self):
        assert propagation_delay_ms(1000.0) > propagation_delay_ms(100.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_ms(-1.0)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_ms(10.0, hops=-1)


class TestStreamBandwidth:
    def test_raw_rate_matches_paper_arithmetic(self):
        # 640 x 480 x 15 fps x 5 B/pixel ~= 184 Mbps (the paper rounds to 180)
        assert RAW_STREAM_MBPS == pytest.approx(184.32, rel=1e-6)

    def test_stream_sits_mid_compressed_range(self):
        low, high = COMPRESSED_STREAM_MBPS
        assert mbps_for_stream() == (low + high) / 2
