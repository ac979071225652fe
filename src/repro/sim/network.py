"""Latency network model over the session's RP cost matrix.

Transfers between RPs take the overlay edge cost (one-way shortest-path
latency) plus optional jitter; an optional loss probability drops
messages, and an optional duplication probability delivers a second
copy strictly later (the data-plane mirror of the control-link fault
model in :mod:`repro.pubsub.faults`).  Bandwidth admission is *not*
modelled here — the overlay construction already enforces per-node
stream budgets, which is the paper's bandwidth abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.session.session import TISession
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from repro.util.validation import check_finite_non_negative, check_probability


@dataclass
class LatencyNetwork:
    """Point-to-point RP message delivery with latency, jitter, loss."""

    session: TISession
    simulator: Simulator
    rng: RngStream
    jitter_ms: float = 0.0
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    #: Deterministic drop hook for tests: ``drop_filter(src, dst,
    #: payload) -> True`` drops the message *before* any RNG draw, so
    #: installing one never perturbs the seeded loss/jitter sequence.
    drop_filter: Callable[[int, int, object], bool] | None = None
    sent: int = field(default=0, init=False)
    delivered: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    duplicated: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_finite_non_negative("jitter_ms", self.jitter_ms)
        check_probability("loss_probability", self.loss_probability)
        check_probability("duplicate_probability", self.duplicate_probability)

    def send(
        self,
        src: int,
        dst: int,
        payload: object,
        on_delivery: Callable[[object, float], None],
    ) -> None:
        """Send ``payload`` from site ``src`` to ``dst``.

        ``on_delivery(payload, latency_ms)`` fires at arrival time unless
        the message is lost.
        """
        if src == dst:
            raise SimulationError(f"site {src} sending to itself")
        self.sent += 1
        if self.drop_filter is not None and self.drop_filter(src, dst, payload):
            self.dropped += 1
            return
        if self.loss_probability > 0 and self.rng.random() < self.loss_probability:
            self.dropped += 1
            return
        latency = self.session.cost_ms(src, dst)
        if self.jitter_ms > 0:
            latency += self.rng.uniform(0.0, self.jitter_ms)

        def deliver() -> None:
            self.delivered += 1
            on_delivery(payload, latency)

        self.simulator.schedule_in(latency, deliver)
        if (
            self.duplicate_probability > 0
            and self.rng.random() < self.duplicate_probability
        ):
            # The copy rides behind the original: same deterministic
            # latency plus its own jitter, and even at zero jitter the
            # engine's (time, sequence) order lands it strictly later.
            copy_latency = latency
            if self.jitter_ms > 0:
                copy_latency += self.rng.uniform(0.0, self.jitter_ms)
            self.duplicated += 1

            def deliver_copy() -> None:
                self.delivered += 1
                on_delivery(payload, copy_latency)

            self.simulator.schedule_in(copy_latency, deliver_copy)
