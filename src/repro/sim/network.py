"""One seeded lossy link, and the latency network over the RP cost matrix.

:class:`SeededLink` is the single place a message meets loss, jitter and
duplication: one seeded stream, the three rates and the counters.  Two
thin fronts put messages on it.  :class:`LatencyNetwork` here carries
the data plane between RPs at the overlay edge cost (one-way
shortest-path latency); :class:`repro.pubsub.faults.FaultyLink` carries
the control plane at the service's link delay, after its partitions.
Bandwidth admission is *not* modelled here — the overlay construction
already enforces per-node stream budgets, which is the paper's
bandwidth abstraction.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.session.session import TISession
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from repro.util.validation import check_finite_non_negative, check_probability


class SeededLink:
    """Loss → jitter → schedule → duplicate over one seeded stream.

    A rate of zero makes no draw, so an unimpaired link schedules every
    message at its base delay and leaves the stream untouched.  Draws
    happen in simulator event order, which the engine makes
    reproducible, so a lossy run is a pure function of (spec, seed).
    Fronts count ``sent`` and their own drops (partitions, drop hooks)
    before handing a message to :meth:`carry`.
    """

    def __init__(
        self,
        simulator: Simulator,
        rng: RngStream,
        jitter_ms: float = 0.0,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        check_finite_non_negative("jitter_ms", jitter_ms)
        check_probability("loss_probability", loss_probability)
        check_probability("duplicate_probability", duplicate_probability)
        self.simulator = simulator
        self.rng = rng
        self.jitter_ms = jitter_ms
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        self.sent = 0
        #: Arrivals scheduled, duplicate copies included: every message
        #: that is not dropped counts once, plus once more when it is
        #: copied.  Each of them lands when the simulator drains.
        self.delivered = 0
        #: Drops, every cause: the front's and the seeded loss.
        self.dropped = 0
        self.duplicated = 0

    def carry(self, delay_ms: float, callback: Callable[..., None], args: tuple) -> bool:
        """Schedule ``callback(*args)`` after ``delay_ms`` plus jitter,
        unless the message is lost; True if a copy was scheduled."""
        rng = self.rng
        if self.loss_probability > 0 and rng.random() < self.loss_probability:
            self.dropped += 1
            return False
        # ``j * random()`` is ``uniform(0.0, j)`` bit for bit, same draw.
        jitter = self.jitter_ms
        if jitter > 0:
            delay_ms += jitter * rng.random()
        self.delivered += 1
        self.simulator.schedule_args(delay_ms, callback, args)
        if self.duplicate_probability > 0 and rng.random() < self.duplicate_probability:
            # The copy rides behind the original: same deterministic
            # delay plus its own jitter, and even at zero jitter the
            # engine's (time, sequence) order lands it strictly later.
            if jitter > 0:
                delay_ms += jitter * rng.random()
            self.duplicated += 1
            self.delivered += 1
            self.simulator.schedule_args(delay_ms, callback, args)
        return True


class LatencyNetwork(SeededLink):
    """Point-to-point RP message delivery with latency, jitter, loss."""

    def __init__(
        self,
        session: TISession,
        simulator: Simulator,
        rng: RngStream,
        jitter_ms: float = 0.0,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        super().__init__(
            simulator, rng, jitter_ms, loss_probability, duplicate_probability
        )
        self.session = session
        self._cost_rows = session.dense_cost_matrix().rows()

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
        self.carry(self._cost_rows[src][dst], on_delivery, args)
