"""Fault injection for control links: jitter, loss, duplication, partitions.

The event-driven control plane (:mod:`repro.pubsub.service`) moves every
message through a :class:`FaultyLink`: the control front of the one
seeded link, :class:`repro.sim.network.SeededLink`, whose other front
carries the data plane.  The core draws loss, jitter and duplication
from one dedicated seeded :class:`~repro.util.rng.RngStream`; this
front adds :class:`PartitionWindow` cuts of a site<->server link for a
timed interval that heals on its own.

Two properties the rest of the system leans on:

* **No draws when unimpaired** — with an unimpaired
  :class:`~repro.pubsub.service.ControlConfig` the link makes *no* RNG
  draws and schedules delivery exactly like ``sim.schedule_in(delay,
  deliver, *args)``, so the fault layer in the stack is bit-invisible:
  audit digests of a zero-fault run equal those of a run without the
  layer at all (pinned in ``tests/scenarios/test_async_control.py``).
* **Determinism under chaos** — draws happen in simulator event order,
  which the engine makes reproducible, so a lossy run is a pure
  function of (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.network import SeededLink
from repro.util.rng import RngStream
from repro.util.validation import check_finite_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pubsub.service import ControlConfig


@dataclass(frozen=True)
class PartitionWindow:
    """One timed site<->server partition: ``[start_ms, end_ms)``, then heal.

    While the window covers the simulation clock, every message between
    the site and the server (either direction — reports, heartbeats,
    directives, acks) is dropped at injection time.  Partitions are
    deterministic: no RNG is involved.
    """

    site: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ConfigurationError(f"partition site must be >= 0, got {self.site}")
        check_finite_non_negative("partition start", self.start_ms)
        if not self.end_ms > self.start_ms:  # NaN-safe
            raise ConfigurationError(
                f"partition end {self.end_ms} must be after start {self.start_ms}"
            )


@dataclass(frozen=True)
class ServerOutageWindow:
    """One timed membership-server crash: down over ``[start_ms, end_ms)``.

    At ``start_ms`` the server *crashes* — every piece of in-memory soft
    state (registrations, epoch counters, pending build/retransmit
    timers, detector history) is dropped on the floor, and messages
    arriving during the window die at the dead server.  At ``end_ms``
    it restarts under a higher incarnation number (warm from its last
    checkpoint if checkpointing is armed, cold otherwise) and
    reconstructs its registrations from the sites' soft-state refresh.
    Outages are deterministic: no RNG is involved, and windows must not
    overlap (:class:`~repro.pubsub.service.ControlConfig` checks).
    """

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        check_finite_non_negative("outage start", self.start_ms)
        check_finite_non_negative("outage end", self.end_ms)
        if not self.end_ms > self.start_ms:
            raise ConfigurationError(
                f"outage end {self.end_ms} must be after start {self.start_ms}"
            )


class FaultyLink(SeededLink):
    """The transport every control message crosses: the seeded link of
    :mod:`repro.sim.network`, behind the config's partitions.  It reads
    the four link fields of a :class:`~repro.pubsub.service.ControlConfig`.

    ``transmit`` either schedules ``deliver(*args)`` (possibly jittered,
    possibly twice) or drops the message; the return value says whether
    at least one copy was scheduled, so callers can count outcomes
    without second-guessing the fault model.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngStream,
        config: ControlConfig,
    ) -> None:
        super().__init__(
            sim, rng, config.jitter_ms, config.loss_rate, config.duplicate_rate
        )
        # site -> its [start_ms, end_ms) cuts; the config is frozen.
        self._cuts: dict[int, list[tuple[float, float]]] = {}
        for window in config.partitions:
            self._cuts.setdefault(window.site, []).append(
                (window.start_ms, window.end_ms)
            )

    def partitioned(self, site: int, time_ms: float) -> bool:
        """True when ``site``'s link is cut at ``time_ms``."""
        for start_ms, end_ms in self._cuts.get(site, ()):
            if start_ms <= time_ms < end_ms:
                return True
        return False

    def transmit(
        self,
        site: int,
        base_delay_ms: float,
        deliver: Callable[..., None],
        args: tuple,
    ) -> bool:
        """Move one message across the link; True if a copy was scheduled.

        Messages are dropped at injection time: a partition starting
        after the send but before arrival does not claw the message
        back (it was already in flight when the cut happened).
        """
        self.sent += 1
        if site in self._cuts and self.partitioned(site, self.simulator.now):
            self.dropped += 1
            return False
        return self.carry(base_delay_ms, deliver, args)
