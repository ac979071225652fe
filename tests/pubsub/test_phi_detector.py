"""Unit tests for the failure detectors (static deadline and φ-accrual).

The detector's contract has two halves the static deadline cannot offer
at once: on a quiet link a silent peer is suspected *no later* than the
static ``miss_threshold x heartbeat_ms`` bound, and on a lossy link the
widened inter-arrival history keeps a merely-unlucky peer below the
threshold where the static deadline would already have fired.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import ConfigurationError
from repro.pubsub.detector import DeadlineDetector, PhiAccrualDetector
from repro.util.rng import RngStream
from tests.reference_paths import window_walk_phi

HEARTBEAT_MS = 40.0


def known(detector, peer: int) -> bool:
    """True once ``peer`` has been heard from, on either detector."""
    return peer in detector._last_arrival


def quiet_detector(threshold: float = 8.0) -> PhiAccrualDetector:
    return PhiAccrualDetector(
        threshold=threshold, initial_interval_ms=HEARTBEAT_MS
    )


def deadline_detector(missed_beats: int = 3) -> DeadlineDetector:
    return DeadlineDetector(missed_beats * HEARTBEAT_MS)


@pytest.mark.parametrize("make", (quiet_detector, deadline_detector))
class TestDetectorInterface:
    """The surface the control plane drives, whichever detector is configured."""

    def test_unknown_peer_never_suspected(self, make):
        detector = make()
        assert not known(detector, 3)
        assert not detector.suspect(3, 1e9)

    def test_touch_alone_makes_peer_scoreable(self, make):
        detector = make()
        detector.touch(0, 0.0)
        assert known(detector, 0)
        assert not detector.suspect(0, HEARTBEAT_MS)
        assert detector.suspect(0, 10 * HEARTBEAT_MS)

    def test_touch_resets_the_silence_clock(self, make):
        detector = make()
        detector.observe(0, 0.0)
        detector.touch(0, 9 * HEARTBEAT_MS)  # a report, long after the beat
        assert not detector.suspect(0, 10 * HEARTBEAT_MS)

    def test_forget_drops_one_peer_reset_drops_all(self, make):
        detector = make()
        for peer in (0, 1, 2):
            detector.observe(peer, 0.0)
        detector.forget(0)
        assert not known(detector, 0)
        assert not detector.suspect(0, 1e9)
        assert detector.suspect(1, 1e9)
        detector.reset()
        assert not known(detector, 1) and not known(detector, 2)
        assert not detector.suspect(1, 1e9)


class TestDeadlineDetector:
    def test_suspects_strictly_after_the_deadline(self):
        detector = deadline_detector(missed_beats=3)
        detector.observe(0, 100.0)
        assert not detector.suspect(0, 100.0 + 3 * HEARTBEAT_MS)
        assert detector.suspect(0, 100.0 + 3 * HEARTBEAT_MS + 0.001)

    def test_beats_and_other_arrivals_count_alike(self):
        detector = deadline_detector()
        detector.observe(0, 0.0)
        detector.touch(1, 0.0)
        at = 3 * HEARTBEAT_MS + 1.0
        assert detector.suspect(0, at) and detector.suspect(1, at)

    @pytest.mark.parametrize("deadline", (-1.0, float("inf"), float("nan")))
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            DeadlineDetector(deadline)


class TestConstruction:
    @pytest.mark.parametrize("threshold", (0.0, -1.0, float("nan")))
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ConfigurationError):
            PhiAccrualDetector(threshold=threshold, initial_interval_ms=40.0)

    def test_tiny_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            PhiAccrualDetector(
                threshold=8.0, initial_interval_ms=40.0, window=1
            )


class TestScoring:
    def test_unknown_peer_scores_zero(self):
        detector = quiet_detector()
        assert not known(detector, 3)
        assert detector.phi(3, 1000.0) == 0.0
        assert not detector.suspect(3, 1000.0)

    def test_phi_grows_monotonically_with_silence(self):
        detector = quiet_detector()
        now = 0.0
        for _ in range(10):
            detector.observe(0, now)
            now += HEARTBEAT_MS
        scores = [detector.phi(0, now + k * HEARTBEAT_MS) for k in range(6)]
        assert scores == sorted(scores)
        assert scores[0] < 1.0  # just after a beat: not suspicious
        assert scores[-1] > 8.0  # five missed beats on a metronome: dead

    def test_quiet_link_detects_no_later_than_static_bound(self):
        """On a jitter-free cadence φ=8 fires within the static
        ``miss_threshold(3) + 1`` beat envelope the chaos scenarios pin."""
        detector = quiet_detector(threshold=8.0)
        now = 0.0
        for _ in range(20):
            detector.observe(0, now)
            now += HEARTBEAT_MS
        last_beat = now - HEARTBEAT_MS
        static_deadline = last_beat + 4 * HEARTBEAT_MS
        assert detector.suspect(0, static_deadline)

    def test_lossy_history_widens_the_threshold(self):
        """The same silence is less suspicious to a peer whose history
        already contains loss-stretched inter-arrivals."""
        quiet, lossy = quiet_detector(), quiet_detector()
        rng = RngStream(7, label="phi-loss")
        now_q = now_l = 0.0
        for _ in range(40):
            quiet.observe(0, now_q)
            now_q += HEARTBEAT_MS
            lossy.observe(0, now_l)
            # 20% loss: each gap is 1+Geometric(0.8) beats long.
            gap = 1
            while rng.random() < 0.2:
                gap += 1
            now_l += gap * HEARTBEAT_MS
        silence = 3 * HEARTBEAT_MS
        assert quiet.phi(0, now_q - HEARTBEAT_MS + silence) > lossy.phi(
            0, now_l - gap * HEARTBEAT_MS + silence
        )

    def test_no_false_suspicion_across_a_lossy_trace(self):
        """Replaying a seeded 20%-loss beat trace, φ=8 never fires at
        any surviving arrival instant — the adaptive window absorbs the
        gaps a static 3-beat deadline would misread as death."""
        detector = quiet_detector(threshold=8.0)
        rng = RngStream(23, label="phi-trace")
        now = 0.0
        detector.observe(0, now)
        static_false = 0
        last = 0.0
        for _ in range(300):
            gap = 1
            while rng.random() < 0.2:
                gap += 1
            now += gap * HEARTBEAT_MS
            assert not detector.suspect(0, now), f"false suspicion at {now}"
            if now - last > 3 * HEARTBEAT_MS:
                static_false += 1
            detector.observe(0, now)
            last = now
        assert static_false > 0  # the static deadline would have fired

    def test_phi_saturates_instead_of_overflowing(self):
        detector = quiet_detector()
        detector.observe(0, 0.0)
        assert detector.phi(0, 1e12) == 300.0


class TestObserveVersusTouch:
    def test_touch_resets_silence_without_sampling(self):
        detector = quiet_detector()
        now = 0.0
        for _ in range(5):
            detector.observe(0, now)
            now += HEARTBEAT_MS
        samples_before = list(detector._samples[0])
        detector.touch(0, now + 1.0)  # a report, mid-cadence
        assert list(detector._samples[0]) == samples_before
        assert detector.phi(0, now + 1.0) == 0.0

    def test_cadence_survives_interleaved_touches(self):
        """Bursty report traffic between beats must not shrink the
        estimated inter-arrival; the next observe still samples a full
        beat-to-beat interval."""
        detector = quiet_detector()
        detector.observe(0, 0.0)
        detector.touch(0, 10.0)
        detector.touch(0, 20.0)
        detector.observe(0, HEARTBEAT_MS)
        assert HEARTBEAT_MS in detector._samples[0]
        assert not any(
            math.isclose(s, HEARTBEAT_MS - 20.0) for s in detector._samples[0]
        )

    def test_touch_alone_makes_peer_scoreable(self):
        detector = quiet_detector()
        detector.touch(0, 0.0)
        assert known(detector, 0)
        assert detector.phi(0, 10 * HEARTBEAT_MS) > 8.0

    def test_forget_and_reset_clear_all_history(self):
        detector = quiet_detector()
        detector.observe(0, 0.0)
        detector.observe(1, 0.0)
        detector.forget(0)
        assert not known(detector, 0)
        assert known(detector, 1)
        detector.reset()
        assert not known(detector, 1)
        assert detector.phi(1, 1000.0) == 0.0


PEERS = st.integers(0, 1)
#: How far a rule moves the sim clock: mostly forward in 5 ms steps,
#: sometimes backwards (non-monotone feeds happen when a peer is forgotten
#: and re-admitted, or in hand-driven tests), sometimes by any float.
STEPS = st.one_of(
    st.integers(-8, 40).map(lambda k: k * 5.0),
    st.floats(min_value=-100.0, max_value=2_000.0, allow_nan=False),
)


class PhiAgainstWindowWalk(RuleBasedStateMachine):
    """Random observe/touch/forget/reset/phi sequences: ``phi`` equals the
    window walk bit for bit, and ``suspect`` agrees with it."""

    @initialize(
        window=st.integers(2, 5),
        min_std_ms=st.sampled_from((None, 0.5, 50.0)),
        acceptable_pause_ms=st.sampled_from((None, 0.0, 7.5)),
        threshold=st.sampled_from((0.5, 8.0)),
    )
    def build(self, window, min_std_ms, acceptable_pause_ms, threshold):
        self.now = 0.0
        self.detector = PhiAccrualDetector(
            threshold=threshold,
            initial_interval_ms=HEARTBEAT_MS,
            window=window,  # small, so the window wraps within a run
            min_std_ms=min_std_ms,  # 50 ms floors every std
            acceptable_pause_ms=acceptable_pause_ms,
        )

    def advance(self, step: float) -> float:
        self.now += step
        return self.now

    @rule(peer=PEERS, step=STEPS)
    def observe(self, peer, step):
        self.detector.observe(peer, self.advance(step))

    @rule(peer=PEERS, step=STEPS)
    def touch(self, peer, step):
        self.detector.touch(peer, self.advance(step))

    @rule(peer=PEERS)
    def forget(self, peer):
        self.detector.forget(peer)

    @rule()
    def reset(self):
        self.detector.reset()

    @rule(peer=PEERS, step=STEPS)
    def phi(self, peer, step):
        self.check(peer, self.advance(step))

    @invariant()
    def phi_matches_window_walk(self):
        """After every step, ask about each peer across the silence range
        (filling the cache, so a stale entry shows at the next step)."""
        for peer in (0, 1):
            for offset in (-5.0, 0.0, 45.0, 90.0, 150.0, 400.0):
                self.check(peer, self.now + offset)

    def check(self, peer: int, now: float) -> None:
        want = window_walk_phi(self.detector, peer, now)
        for _ in range(2):  # the second question reads the cached stats
            assert self.detector.phi(peer, now).hex() == want.hex(), (peer, now)
        assert self.detector.suspect(peer, now) == (want > self.detector.threshold)


TestPhiAgainstWindowWalk = PhiAgainstWindowWalk.TestCase
TestPhiAgainstWindowWalk.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


#: One arrival: (``observe`` or ``touch``, peer, step since the last one).
ARRIVALS = st.lists(
    st.tuples(st.sampled_from(("observe", "touch")), PEERS, STEPS), max_size=12
)


@settings(max_examples=300, deadline=None)
@example(  # silences of exactly the grace and the deadline, on the nose
    window=2,
    acceptable_pause_ms=None,
    threshold=0.5,
    history=[("observe", 0, 40.0), ("observe", 0, 40.0), ("touch", 1, 5.0)],
    offsets=[40.0, 120.0],
)
@given(
    window=st.integers(2, 6),
    acceptable_pause_ms=st.sampled_from((None, 0.0, 7.5, 40.0, 0.1)),
    threshold=st.sampled_from((0.5, 8.0)),
    history=ARRIVALS,
    offsets=st.lists(
        st.one_of(
            st.floats(min_value=-50.0, max_value=500.0, allow_nan=False),
            st.integers(0, 100).map(float),
        ),
        max_size=4,
    ),
)
def test_suspect_is_its_rule_at_every_silence(
    window, acceptable_pause_ms, threshold, history, offsets
):
    """The grace shortcut in ``suspect`` is exact: on both detectors
    ``suspect`` is its rule at every query time, including a silence of
    exactly the grace (or the deadline), the floats either side of it,
    and peers that were only touched."""
    phi_detector = PhiAccrualDetector(
        threshold=threshold,
        initial_interval_ms=HEARTBEAT_MS,
        window=window,
        acceptable_pause_ms=acceptable_pause_ms,
    )
    grace = phi_detector.acceptable_pause_ms
    deadline = deadline_detector()
    now = 0.0
    last: dict[int, float] = {}
    for kind, peer, step in history:
        now += step
        for detector in (phi_detector, deadline):
            getattr(detector, kind)(peer, now)
        last[peer] = now
    for peer in (0, 1, 2):  # 2 is never heard from
        arrived = last.get(peer)
        base = now if arrived is None else arrived
        queries = [base + offset for offset in offsets]
        for edge in (grace, deadline.deadline_ms):
            at = base + edge
            queries += [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]
        for at in queries:
            assert phi_detector.suspect(peer, at) == (
                phi_detector.phi(peer, at) > threshold
            ), (peer, at)
            assert deadline.suspect(peer, at) == (
                arrived is not None and at - arrived > deadline.deadline_ms
            ), (peer, at)
