"""Fault injection for control links: jitter, loss, duplication, partitions.

The event-driven control plane (:mod:`repro.pubsub.service`) moves every
message through a :class:`FaultyLink`.  The link is the single place
chaos enters the system: per-message loss and jitter draws come from one
dedicated seeded :class:`~repro.util.rng.RngStream` (so a chaos run is
exactly as reproducible as a clean one), duplication re-delivers a copy
strictly after the original, and :class:`PartitionWindow` cuts a
site<->server link for a timed interval that heals on its own.

Two properties the rest of the system leans on:

* **Zero-fault transparency** — with an unimpaired :class:`FaultConfig`
  the link makes *no* RNG draws and schedules delivery exactly like
  ``sim.schedule_in(delay, deliver)``, so the fault layer in the stack
  is bit-invisible: audit digests of a zero-fault run equal those of a
  run without the layer at all (pinned in
  ``tests/scenarios/test_async_control.py``).
* **Determinism under chaos** — draws happen in simulator event order,
  which the engine makes reproducible, so a lossy run is a pure
  function of (spec, seed).

``drop_filter`` is a deliberate test hook: deterministic forced drops
(e.g. "every ack, first attempt") let the retransmit machinery be
exercised without probability, which is how the digest-equality
property tests pin that retransmission is invisible to the overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from repro.util.validation import (
    check_disjoint_windows,
    check_finite_non_negative,
    check_probability,
)


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

    def covers(self, site: int, time_ms: float) -> bool:
        """True when ``site``'s link is cut at ``time_ms``."""
        return site == self.site and self.start_ms <= time_ms < self.end_ms


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
    overlap (validated where a set of windows is configured).
    """

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ConfigurationError(
                f"outage start must be >= 0, got {self.start_ms}"
            )
        if not self.end_ms > self.start_ms:
            raise ConfigurationError(
                f"outage end {self.end_ms} must be after start {self.start_ms}"
            )

    def covers(self, time_ms: float) -> bool:
        """True while the server is down at ``time_ms``."""
        return self.start_ms <= time_ms < self.end_ms


@dataclass(frozen=True)
class FaultConfig:
    """Fault model of one control link.

    Attributes
    ----------
    loss_rate:
        Per-transmission drop probability.
    jitter_ms:
        Per-message delay jitter, uniform in ``[0, jitter_ms]`` on top
        of the deterministic link delay (this is what reorders messages).
    duplicate_rate:
        Probability a delivered message is delivered *again*, strictly
        later (its copy draws its own jitter).
    partitions:
        Timed site<->server cuts; see :class:`PartitionWindow`.
    outages:
        Timed membership-server crashes; see :class:`ServerOutageWindow`.
        Consumed by the :class:`~repro.pubsub.service.MembershipService`
        (which schedules its own crash/recover transitions), not by the
        link — the link only moves messages; it is the dead server that
        ignores them.
    """

    loss_rate: float = 0.0
    jitter_ms: float = 0.0
    duplicate_rate: float = 0.0
    partitions: tuple[PartitionWindow, ...] = ()
    outages: tuple[ServerOutageWindow, ...] = ()

    def __post_init__(self) -> None:
        check_probability("loss_rate", self.loss_rate)
        check_finite_non_negative("jitter_ms", self.jitter_ms)
        check_probability("duplicate_rate", self.duplicate_rate)
        check_disjoint_windows("server outage", self.outages)

    @property
    def impaired(self) -> bool:
        """True when any *link* fault can actually fire.

        Server outages deliberately do not count: they impair the
        server, not the link, so an outage-only config keeps the link's
        zero-fault fast path (no RNG draws, undisturbed scheduling).
        """
        return bool(
            self.loss_rate
            or self.jitter_ms
            or self.duplicate_rate
            or self.partitions
        )


@dataclass
class FaultyLink:
    """The transport every control message crosses.

    ``transmit`` either schedules ``deliver`` (possibly jittered,
    possibly twice) or drops the message; the return value says whether
    at least one copy was scheduled, so callers can count outcomes
    without second-guessing the fault model.
    """

    sim: Simulator
    rng: RngStream
    config: FaultConfig = field(default_factory=FaultConfig)
    #: Test hook: ``drop_filter(kind, message, attempt) -> bool`` forces
    #: a deterministic drop when it returns True (checked after
    #: partitions, before any RNG draw — forced drops never consume
    #: randomness, so they compose with seeded runs).
    drop_filter: Callable[[str, object, int], bool] | None = None
    sent: int = field(default=0, init=False)
    delivered: int = field(default=0, init=False)
    dropped_loss: int = field(default=0, init=False)
    dropped_partition: int = field(default=0, init=False)
    dropped_forced: int = field(default=0, init=False)
    duplicated: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # site -> its [start_ms, end_ms) cuts; the config is frozen.
        self._cuts: dict[int, list[tuple[float, float]]] = {}
        for window in self.config.partitions:
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
        deliver: Callable[[], None],
        kind: str = "control",
        message: object = None,
        attempt: int = 0,
    ) -> bool:
        """Move one message across the link; True if a copy was scheduled.

        Messages are dropped at injection time: a partition starting
        after the send but before arrival does not claw the message
        back (it was already in flight when the cut happened).
        """
        self.sent += 1
        config = self.config
        if not config.impaired and self.drop_filter is None:
            # Zero-fault fast path: no RNG draws, and scheduling is
            # byte-for-byte what the pre-fault-layer service did — this
            # is what keeps the zero-fault digests bit-identical.
            self.delivered += 1
            self.sim.schedule_in(base_delay_ms, deliver)
            return True
        if self.partitioned(site, self.sim.now):
            self.dropped_partition += 1
            return False
        if self.drop_filter is not None and self.drop_filter(kind, message, attempt):
            self.dropped_forced += 1
            return False
        if config.loss_rate > 0 and self.rng.random() < config.loss_rate:
            self.dropped_loss += 1
            return False
        delay = base_delay_ms
        # ``j * random()`` is ``uniform(0.0, j)`` bit for bit, same draw.
        if config.jitter_ms > 0:
            delay += config.jitter_ms * self.rng.random()
        self.delivered += 1
        self.sim.schedule_in(delay, deliver)
        if config.duplicate_rate > 0 and self.rng.random() < config.duplicate_rate:
            # The copy rides behind the original: same deterministic
            # delay plus its own jitter, and even at zero jitter the
            # engine's (time, sequence) order lands it strictly later.
            copy_delay = delay
            if config.jitter_ms > 0:
                copy_delay += config.jitter_ms * self.rng.random()
            self.duplicated += 1
            self.sim.schedule_in(copy_delay, deliver)
        return True

    @property
    def dropped(self) -> int:
        """Total drops, every cause."""
        return self.dropped_loss + self.dropped_partition + self.dropped_forced
