"""Synthetic 3D video frames.

A frame is one capture instant of one camera's depth+color stream.  Frame
sizes follow the paper's numbers: at 15 fps a 5-10 Mbps compressed stream
yields roughly 40-80 KB per frame; we model size variation around that
mean (compression efficiency varies with motion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.session.streams import StreamId
from repro.util.rng import RngStream

#: The capture rate used throughout the paper's arithmetic.
DEFAULT_FPS = 15.0


@dataclass(frozen=True)
class Frame3D:
    """One captured 3D frame."""

    stream_id: StreamId
    sequence: int
    capture_time_ms: float
    size_bytes: int

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ConfigurationError(f"negative sequence {self.sequence}")
        if self.size_bytes <= 0:
            raise ConfigurationError(f"non-positive frame size {self.size_bytes}")


@dataclass
class FrameClock:
    """Deterministic frame-size/cadence model for one stream."""

    stream_id: StreamId
    bandwidth_mbps: float = 7.5
    fps: float = DEFAULT_FPS
    size_jitter: float = 0.2

    def __post_init__(self) -> None:
        # Chained so that NaN fails too; an infinite rate is a zero
        # capture interval, which no capture loop ever gets past.
        if not 0.0 < self.bandwidth_mbps < math.inf:
            raise ConfigurationError(
                f"bandwidth_mbps must be finite and positive, got {self.bandwidth_mbps!r}"
            )
        if not 0.0 < self.fps < math.inf:
            raise ConfigurationError(
                f"fps must be finite and positive, got {self.fps!r}"
            )
        if not 0.0 <= self.size_jitter < 1.0:
            raise ConfigurationError(
                f"size_jitter must be in [0, 1), got {self.size_jitter}"
            )

    @property
    def interval_ms(self) -> float:
        """Milliseconds between consecutive captures."""
        return 1000.0 / self.fps

    @property
    def mean_frame_bytes(self) -> int:
        """Average frame size implied by bandwidth and fps."""
        return max(1, int(self.bandwidth_mbps * 1e6 / 8.0 / self.fps))

    def sample_size_bytes(self, rng: RngStream) -> int:
        """Draw one frame's jittered size (exactly one uniform draw).

        Every data plane consumes these draws — the event-driven plane
        via :meth:`frame`, the analytic planes via :func:`batched_sizes`
        — so a shared camera RNG stream yields bit-identical size
        sequences.
        """
        low = 1.0 - self.size_jitter
        high = 1.0 + self.size_jitter
        return max(1, int(self.mean_frame_bytes * rng.uniform(low, high)))

    def capture_times(self, duration_ms: float) -> list[float]:
        """Capture instants over ``duration_ms``, replicating
        :class:`~repro.media.source.CameraSource`'s cadence exactly:
        the repeated float add *is* the schedule the simulator runs, so
        analytic planes built on these times stay bit-identical to the
        event-driven plane."""
        interval = self.interval_ms
        times: list[float] = []
        t = 0.0
        while t <= duration_ms:
            times.append(t)
            t += interval
        return times

    def frame(self, sequence: int, capture_time_ms: float, rng: RngStream) -> Frame3D:
        """Materialize the ``sequence``-th frame with jittered size."""
        return Frame3D(
            stream_id=self.stream_id,
            sequence=sequence,
            capture_time_ms=capture_time_ms,
            size_bytes=self.sample_size_bytes(rng),
        )


def batched_sizes(clocks: Sequence[FrameClock], words: bytes, backend):
    """Every clock's next frame sizes, as ``backend``'s (clocks x count)
    integer matrix.

    The batch form of :meth:`FrameClock.sample_size_bytes`.  ``words`` is
    each clock's camera stream's ``random_words(count)``, joined in
    clock order: the same ``count`` draws, put through the same
    arithmetic — ``uniform(low, high)`` is ``low + (high - low) *
    random()`` — so each row equals ``count`` one-at-a-time calls bit
    for bit, and each stream is left where those calls would leave it.
    """
    return backend.frame_sizes(
        [clock.mean_frame_bytes for clock in clocks],
        [1.0 - clock.size_jitter for clock in clocks],
        [1.0 + clock.size_jitter for clock in clocks],
        backend.unit_floats(words),
    )
