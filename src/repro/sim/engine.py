"""A small deterministic discrete-event engine.

Events are ``(time, tie-break sequence, callback, args)`` heap entries:
equal timestamps run in scheduling order and callbacks or arguments are
never compared, so runs are reproducible and a caller schedules
``(method, *args)`` without a closure.  The engine is deliberately
synchronous and single-threaded — 3DTI sessions are small, and
determinism is worth more than parallelism for reproduction work.

Besides one-shot scheduling, the engine offers :class:`Timer` — a
cancellable, optionally recurring ``(callback, *args)`` handle.  The
control plane schedules its debounce windows (one-shot form), heartbeat
beats and detector sweeps (recurring form) through it; retransmits lean
on cancellation to stop a backoff chain the moment its ack lands.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.errors import SimulationError


class Timer:
    """A cancellable (optionally recurring) scheduled callback.

    Obtained from :meth:`Simulator.schedule_timer`.  Cancellation is
    lazy: the queued event stays in the heap and becomes a no-op when it
    pops, which keeps the heap free of tombstone bookkeeping while still
    guaranteeing the callback never runs after :meth:`cancel`.
    Recurring timers re-arm themselves after each firing until
    cancelled (including from inside their own callback).
    """

    __slots__ = ("_sim", "_callback", "_args", "interval_ms", "_cancelled", "fired")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[..., None],
        args: tuple = (),
        interval_ms: float | None = None,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self.interval_ms = interval_ms
        self._cancelled = False
        #: Number of times the callback has actually run.
        self.fired = 0

    def cancel(self) -> None:
        """Prevent any further firing (idempotent)."""
        self._cancelled = True

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        self._callback(*self._args)
        if self.interval_ms is not None and not self._cancelled:
            self._sim.schedule_args(self.interval_ms, self._fire, ())


class Simulator:
    """Event loop with millisecond timestamps."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events popped so far: every event ever scheduled
        that is no longer queued, also one whose callback raised."""
        return self._sequence - len(self._queue)

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule_at(self, time_ms: float, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time_ms``."""
        if not time_ms >= self._now:  # NaN-safe
            raise SimulationError(
                f"cannot schedule at {time_ms}: in the past (now {self._now}) or NaN"
            )
        heapq.heappush(self._queue, (time_ms, self._sequence, callback, args))
        self._sequence += 1

    def schedule_in(self, delay_ms: float, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` after ``delay_ms`` from now."""
        self.schedule_args(delay_ms, callback, args)

    def schedule_args(
        self, delay_ms: float, callback: Callable[..., None], args: tuple
    ) -> None:
        """:meth:`schedule_in` for a caller that already holds the
        arguments as one tuple: it is queued as is."""
        if not delay_ms >= 0:  # NaN-safe
            raise SimulationError(f"negative delay or NaN: {delay_ms}")
        # Pushed here, not through schedule_at: now + delay >= now.
        heapq.heappush(
            self._queue, (self._now + delay_ms, self._sequence, callback, args)
        )
        self._sequence += 1

    def schedule_timer(
        self,
        delay_ms: float,
        callback: Callable[..., None],
        *args,
        interval_ms: float | None = None,
    ) -> Timer:
        """Schedule a cancellable ``callback(*args)``; returns its :class:`Timer`.

        With ``interval_ms`` the timer recurs every ``interval_ms``
        after the first firing at ``delay_ms`` until cancelled, passing
        the same ``args`` each time; without it the timer is one-shot
        (but can still be cancelled before it fires).  ``interval_ms``
        is keyword-only: a positional number after ``callback`` is an
        argument to it, not an interval.
        """
        if interval_ms is not None and not interval_ms > 0:  # NaN-safe
            raise SimulationError(
                f"recurring interval must be positive, got {interval_ms}"
            )
        timer = Timer(self, callback, args, interval_ms)
        self.schedule_in(delay_ms, timer._fire)
        return timer

    def run(self, until_ms: float | None = None, max_events: int = 10_000_000) -> int:
        """Drain the queue; returns the number of events executed.

        Parameters
        ----------
        until_ms:
            Stop once the next event lies strictly beyond this time
            (the event stays queued).  None drains everything.
        max_events:
            Runaway guard: after ``max_events`` callbacks, a further
            event that is due raises :class:`SimulationError` and stays
            queued.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        if until_ms is not None and until_ms != until_ms:
            raise SimulationError(f"cannot run until NaN: {until_ms}")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until_ms is None else until_ms
        executed = 0
        try:
            while queue and queue[0][0] <= horizon:
                if executed >= max_events:
                    raise SimulationError(
                        f"max_events={max_events} run with events still due; "
                        "runaway simulation?"
                    )
                time_ms, _, callback, args = pop(queue)
                self._now = time_ms
                executed += 1
                callback(*args)
            if until_ms is not None and until_ms > self._now:
                self._now = until_ms
        finally:
            self._running = False
        return executed
