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
    #: args) -> True`` drops the message *before* any RNG draw, so
    #: installing one never perturbs the seeded loss/jitter sequence.
    #: ``args`` is the tuple the arrival callback would have received.
    drop_filter: Callable[[int, int, tuple], bool] | None = None
    sent: int = field(default=0, init=False)
    #: Arrivals scheduled, duplicate copies included: every send that
    #: is not dropped counts once, plus once more when it is copied.
    #: Each of them lands when the simulator drains.
    delivered: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    duplicated: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_finite_non_negative("jitter_ms", self.jitter_ms)
        check_probability("loss_probability", self.loss_probability)
        check_probability("duplicate_probability", self.duplicate_probability)
        self._cost_rows = self.session.dense_cost_matrix().rows()

    def send(self, src: int, dst: int, on_delivery: Callable[..., None], *args) -> None:
        """Send a message from site ``src`` to ``dst``.

        ``on_delivery(*args)`` runs at arrival time unless the message
        is lost; the simulator clock then reads the arrival time.
        """
        sites = len(self._cost_rows)
        if not (0 <= src < sites and 0 <= dst < sites):
            self.session.cost_ms(src, dst)  # raises, naming both sites
        if src == dst:
            raise SimulationError(f"site {src} sending to itself")
        self.sent += 1
        if self.drop_filter is not None and self.drop_filter(src, dst, args):
            self.dropped += 1
            return
        rng = self.rng
        if self.loss_probability > 0 and rng.random() < self.loss_probability:
            self.dropped += 1
            return
        latency = self._cost_rows[src][dst]
        # ``j * random()`` is ``uniform(0.0, j)`` bit for bit, same draw.
        jitter = self.jitter_ms
        if jitter > 0:
            latency += jitter * rng.random()
        self.delivered += 1
        self.simulator.schedule_in(latency, on_delivery, *args)
        if self.duplicate_probability > 0 and rng.random() < self.duplicate_probability:
            # The copy rides behind the original: same deterministic
            # latency plus its own jitter, and even at zero jitter the
            # engine's (time, sequence) order lands it strictly later.
            if jitter > 0:
                latency += jitter * rng.random()
            self.duplicated += 1
            self.delivered += 1
            self.simulator.schedule_in(latency, on_delivery, *args)
