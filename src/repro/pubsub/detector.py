"""Failure detectors: a static deadline and φ-accrual (Hayashibara et al., SRDS 2004).

A detector is pure per-peer bookkeeping: it makes no RNG draws, owns no
timers, and never touches the simulator — callers feed it arrivals
(:meth:`observe` for a cadenced heartbeat, :meth:`touch` for any other
proof of life), drop history with :meth:`forget` / :meth:`reset`, and
poll :meth:`suspect` from their own sweep; a peer never heard from is
never suspected.  Both implementations share that one surface, and the
control plane runs two instances of whichever is configured: the
membership server scores every registered site's heartbeat stream, and
(when server failover is armed) each site scores the server's response
stream to decide when to start buffering reports.

:class:`DeadlineDetector` declares a peer dead after
``miss_threshold x heartbeat_ms`` of silence — one deadline for every
link, so a quiet LAN pays WAN-sized detection latency and a lossy WAN
link still gets falsely suspected whenever a few beats vanish in a row.
:class:`PhiAccrualDetector` replaces the boolean deadline with a
*suspicion level*: each monitored peer gets a sliding window of
observed heartbeat inter-arrival times, the current silence is scored
against that empirical distribution, and

``phi(t) = -log10( P(no arrival by t | the peer is alive) )``

crosses any fixed threshold *later* on links whose history is noisy
(loss inflates the observed inter-arrivals, widening the distribution)
and *sooner* on quiet ones (tight history, so even 1.5 missed beats is
wildly improbable).  The tail probability uses the standard logistic
approximation of the normal CDF (the same one production φ detectors
use), with the standard deviation floored so a perfectly regular link
cannot divide by zero.
"""

from __future__ import annotations

import math
from collections import deque

from repro.errors import ConfigurationError
from repro.util.floats import left_sum
from repro.util.validation import check_finite_non_negative, check_positive

#: Sliding-window length of remembered inter-arrival samples per peer.
DEFAULT_WINDOW = 32
#: Lowest admissible tail probability — phi saturates at 300 rather
#: than overflowing ``log10`` for astronomically long silences.
_MIN_P_LATER = 1e-300


class DeadlineDetector:
    """Static failure detector: suspect after ``deadline_ms`` of silence.

    The only state is each peer's last arrival time; cadenced and
    non-cadenced arrivals count alike.
    """

    def __init__(self, deadline_ms: float) -> None:
        check_finite_non_negative("deadline_ms", deadline_ms)
        self.deadline_ms = deadline_ms
        self._last_arrival: dict[int, float] = {}

    def observe(self, peer: int, now: float) -> None:
        """Record an arrival from ``peer`` (resets its silence clock)."""
        self._last_arrival[peer] = now

    touch = observe

    def forget(self, peer: int) -> None:
        """Drop ``peer``'s history (withdrawn, failed, or re-admitted)."""
        self._last_arrival.pop(peer, None)

    def reset(self) -> None:
        """Drop every peer's history (server crash: soft state is gone)."""
        self._last_arrival.clear()

    def suspect(self, peer: int, now: float) -> bool:
        """True when a known ``peer`` has been silent past the deadline."""
        last = self._last_arrival.get(peer)
        return last is not None and now - last > self.deadline_ms


class PhiAccrualDetector:
    """Per-peer adaptive failure detector.

    Parameters
    ----------
    threshold:
        Suspicion level above which :meth:`suspect` fires.  8 (the
        conventional default) means "the chance this peer is alive and
        merely slow is below 1e-8 given its own history".
    initial_interval_ms:
        Prior inter-arrival estimate seeding each peer's window on its
        first observation (use the configured heartbeat period) — a peer
        is scoreable from its very first beat instead of needing a
        warm-up.
    window:
        Inter-arrival samples remembered per peer.
    min_std_ms:
        Floor on the estimated standard deviation; defaults to a tenth
        of ``initial_interval_ms``.  Without it a jitter-free link has
        zero variance and a single late beat would read as infinitely
        suspicious.
    acceptable_pause_ms:
        Grace subtracted from the observed silence before scoring;
        defaults to one ``initial_interval_ms``.  A freshly seeded
        window knows only the nominal cadence, so without this margin
        the very first lost beat on an otherwise healthy link scores
        as many standard deviations of lateness — the margin rides out
        a single missed beat while the window is still learning the
        link's real spread, at the cost of one extra beat of detection
        latency everywhere.
    """

    def __init__(
        self,
        threshold: float,
        initial_interval_ms: float,
        window: int = DEFAULT_WINDOW,
        min_std_ms: float | None = None,
        acceptable_pause_ms: float | None = None,
    ) -> None:
        check_positive("phi threshold", threshold)
        check_positive("initial_interval_ms", initial_interval_ms)
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if min_std_ms is None:
            min_std_ms = initial_interval_ms / 10.0
        check_positive("min_std_ms", min_std_ms)
        if acceptable_pause_ms is None:
            acceptable_pause_ms = initial_interval_ms
        if not acceptable_pause_ms >= 0:  # NaN-safe
            raise ConfigurationError(
                f"acceptable_pause_ms must be >= 0, got {acceptable_pause_ms}"
            )
        self.threshold = threshold
        self.initial_interval_ms = initial_interval_ms
        self.window = window
        self.min_std_ms = min_std_ms
        self.acceptable_pause_ms = acceptable_pause_ms
        self._samples: dict[int, deque[float]] = {}
        self._last_arrival: dict[int, float] = {}
        self._last_beat: dict[int, float] = {}
        #: Per-peer ``(mean, std)`` of the window, computed by :meth:`phi`
        #: on demand and dropped whenever the window gains a sample or the
        #: peer is forgotten (so a first-contact seeding never finds one).
        self._stats: dict[int, tuple[float, float]] = {}

    # -- observation ---------------------------------------------------------------

    def observe(self, peer: int, now: float) -> None:
        """Record one *cadenced* arrival (a heartbeat) from ``peer``.

        Inter-arrival samples are taken between successive ``observe``
        calls only, so the window models the heartbeat cadence; use
        :meth:`touch` for arrivals that prove liveness without being
        part of the cadence (reports, acks) — those would otherwise
        pollute the distribution with near-zero intervals.
        """
        # A peer with a last beat has a last arrival too, so one lookup
        # settles the common case, a peer that is already beating.
        last_beat = self._last_beat.get(peer)
        if last_beat is not None:
            interval = now - last_beat
            if interval > 0:
                self._samples[peer].append(interval)
                self._stats.pop(peer, None)
        elif peer not in self._last_arrival:
            # First contact: seed the window with the configured prior
            # so phi is defined immediately.
            self._samples[peer] = deque(
                [self.initial_interval_ms], maxlen=self.window
            )
        self._last_beat[peer] = now
        self._last_arrival[peer] = now

    def touch(self, peer: int, now: float) -> None:
        """Record a non-cadenced proof of life from ``peer``.

        Resets the silence clock (:meth:`phi` measures elapsed time from
        the last arrival of *any* kind) without contributing an
        inter-arrival sample.
        """
        if peer not in self._last_arrival:
            self._samples[peer] = deque(
                [self.initial_interval_ms], maxlen=self.window
            )
        self._last_arrival[peer] = now

    def forget(self, peer: int) -> None:
        """Drop ``peer``'s history (withdrawn, failed, or re-admitted)."""
        self._samples.pop(peer, None)
        self._last_arrival.pop(peer, None)
        self._last_beat.pop(peer, None)
        self._stats.pop(peer, None)

    def reset(self) -> None:
        """Drop every peer's history (server crash: soft state is gone)."""
        self._samples.clear()
        self._last_arrival.clear()
        self._last_beat.clear()
        self._stats.clear()

    # -- scoring -------------------------------------------------------------------

    def phi(self, peer: int, now: float) -> float:
        """Current suspicion level of ``peer`` (0 when never observed)."""
        last = self._last_arrival.get(peer)
        if last is None:
            return 0.0
        elapsed = now - last
        # Every sample is > 0, so the window mean is too: inside the grace
        # the numerator below cannot be positive, and phi is 0 unscored.
        if elapsed <= self.acceptable_pause_ms:
            return 0.0
        stats = self._stats.get(peer)
        if stats is None:
            samples = self._samples[peer]
            mean = left_sum(samples) / len(samples)
            variance = left_sum([(s - mean) ** 2 for s in samples]) / len(samples)
            std = max(math.sqrt(variance), self.min_std_ms)
            stats = self._stats[peer] = (mean, std)
        mean, std = stats
        y = (elapsed - mean - self.acceptable_pause_ms) / std
        if y <= 0:
            return 0.0
        # Logistic approximation of the standard normal tail:
        # P(X > y) ~= e / (1 + e) with e = exp(-y (1.5976 + 0.070566 y^2)).
        exponent = -y * (1.5976 + 0.070566 * y * y)
        if exponent < -690.0:  # exp underflow: tail is numerically zero
            return 300.0
        e = math.exp(exponent)
        p_later = e / (1.0 + e)
        return -math.log10(max(p_later, _MIN_P_LATER))

    def suspect(self, peer: int, now: float) -> bool:
        """True when ``peer``'s silence has become implausible.

        Inside the grace window phi is exactly 0, below any threshold,
        so a peer heard from that recently is cleared unscored.
        """
        last = self._last_arrival.get(peer)
        if last is None or now - last <= self.acceptable_pause_ms:
            return False
        return self.phi(peer, now) > self.threshold
