"""Camera stream sources for the data-plane simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.media.frames import Frame3D, FrameClock
from repro.util.rng import RngStream


@dataclass
class CameraSource:
    """Emits one stream's frames at a fixed cadence.

    The source is driven by the simulator: :meth:`start` schedules the
    first capture, and every capture schedules the next until
    ``end_time_ms`` is reached.
    """

    clock: FrameClock
    rng: RngStream
    on_frame: Callable[[Frame3D], None]
    end_time_ms: float
    frames_emitted: int = field(default=0, init=False)

    def start(self, schedule: Callable[..., None]) -> None:
        """Begin capturing; ``schedule(at_ms, fn, *args)`` is the simulator hook."""
        self._schedule = schedule
        self._capture_at(0.0)

    def _capture_at(self, time_ms: float) -> None:
        if time_ms > self.end_time_ms:
            return
        self._schedule(time_ms, self._capture, time_ms)

    def _capture(self, time_ms: float) -> None:
        frame = self.clock.frame(self.frames_emitted, time_ms, self.rng)
        self.frames_emitted += 1
        self.on_frame(frame)
        self._capture_at(time_ms + self.clock.interval_ms)
