"""Tests for the synthetic frame model."""

from __future__ import annotations

import pytest

from repro.core.backend import ArrayBackend, NumpyBackend, numpy_available
from repro.errors import ConfigurationError
from repro.media.frames import Frame3D, FrameClock, batched_sizes
from repro.session.streams import StreamId
from repro.util.rng import RngStream


class TestFrame3D:
    def test_valid(self):
        Frame3D(StreamId(0, 0), sequence=0, capture_time_ms=0.0, size_bytes=100)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Frame3D(StreamId(0, 0), sequence=-1, capture_time_ms=0.0, size_bytes=1)
        with pytest.raises(ConfigurationError):
            Frame3D(StreamId(0, 0), sequence=0, capture_time_ms=0.0, size_bytes=0)


class TestFrameClock:
    def test_interval_from_fps(self):
        clock = FrameClock(StreamId(0, 0), fps=15.0)
        assert clock.interval_ms == pytest.approx(1000.0 / 15.0)

    def test_mean_frame_size_from_bandwidth(self):
        # 7.5 Mbps at 15 fps -> 62.5 KB per frame.
        clock = FrameClock(StreamId(0, 0), bandwidth_mbps=7.5, fps=15.0)
        assert clock.mean_frame_bytes == int(7.5e6 / 8 / 15)

    def test_jittered_sizes_near_mean(self):
        clock = FrameClock(StreamId(0, 0), size_jitter=0.2)
        rng = RngStream(3)
        sizes = [clock.frame(i, 0.0, rng).size_bytes for i in range(100)]
        mean = clock.mean_frame_bytes
        assert all(0.8 * mean <= s <= 1.2 * mean for s in sizes)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FrameClock(StreamId(0, 0), bandwidth_mbps=0.0)
        with pytest.raises(ConfigurationError):
            FrameClock(StreamId(0, 0), fps=0.0)
        with pytest.raises(ConfigurationError):
            FrameClock(StreamId(0, 0), size_jitter=1.0)

    @pytest.mark.parametrize("field", ("bandwidth_mbps", "fps"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0))
    def test_rates_must_be_finite(self, field, value):
        """NaN used to die in ``int()`` with a bare ``ValueError``; an
        infinite fps is a zero interval, on which ``capture_times`` and
        the camera source never advance."""
        with pytest.raises(ConfigurationError, match=field):
            FrameClock(StreamId(0, 0), **{field: value})


class TestBatchedSizes:
    @pytest.mark.parametrize(
        "backend",
        (
            ArrayBackend,
            pytest.param(
                NumpyBackend,
                marks=pytest.mark.skipif(
                    not numpy_available(), reason="numpy not importable"
                ),
            ),
        ),
    )
    @pytest.mark.parametrize("count", (1, 9, 151))
    def test_equals_one_draw_at_a_time(self, backend, count):
        clocks = [
            FrameClock(StreamId(0, 0), bandwidth_mbps=5.0),
            FrameClock(StreamId(0, 1), bandwidth_mbps=10.0, size_jitter=0.0),
            FrameClock(StreamId(1, 0), bandwidth_mbps=7.5, fps=30.0, size_jitter=0.9),
            # A mean of one byte: the floor at 1 is what answers.
            FrameClock(StreamId(1, 1), bandwidth_mbps=1e-4, size_jitter=0.5),
        ]
        batched = [RngStream(3).spawn(f"camera-{i}") for i in range(len(clocks))]
        single = [RngStream(3).spawn(f"camera-{i}") for i in range(len(clocks))]
        words = b"".join(rng.random_words(count) for rng in batched)
        sizes = batched_sizes(clocks, words, backend())
        assert [list(map(int, row)) for row in sizes] == [
            [clock.sample_size_bytes(rng) for _ in range(count)]
            for clock, rng in zip(clocks, single)
        ]
        assert 1 in sizes[3]
        # Every camera stream is left where the single draws leave it.
        assert [rng.random() for rng in batched] == [rng.random() for rng in single]
