"""The event-driven membership service (async control plane).

The paper's centralized membership server is modeled synchronously in
:class:`~repro.pubsub.membership.MembershipServer`: advertise,
aggregate, build and install happen in one call, so control traffic has
no latency, rounds can never overlap, and a site cannot join while a
build is in flight.  :class:`MembershipService` lifts that same server
onto the deterministic :class:`~repro.sim.engine.Simulator` as an
*event-driven* service:

* RPs push timestamped control envelopes (:class:`~repro.pubsub.messages.Advertise`,
  :class:`~repro.pubsub.messages.Subscribe`,
  :class:`~repro.pubsub.messages.Withdraw`) over simulated control links
  with per-site propagation delay;
* arriving messages mark the membership state *dirty*; the first dirty
  message opens a **debounce window** (a cancellable
  :class:`~repro.sim.engine.Timer`), and every further message inside
  the window coalesces into the same epoch-numbered build round;
* when the window closes, the service builds the overlay exactly the
  way the synchronous server does (same builder, same rebuild policy,
  same ``round-<epoch>`` RNG labels) and *pushes* the resulting
  :class:`~repro.pubsub.messages.OverlayDirective` to every registered
  RP, again over the delayed links;
* each RP acknowledges installation with a
  :class:`~repro.pubsub.messages.DirectiveAck`; a directive that
  arrives after the RP already installed a newer epoch is **discarded
  as stale** (out-of-order delivery under per-site delay skew);
* per round the service records the **control-convergence latency** —
  the time from the dirty message that triggered the round to the last
  acknowledgment — the paper-level metric an interactive 3DTI session
  actually feels.

Every message crosses a :class:`~repro.pubsub.faults.FaultyLink`, the
control front of the one seeded link the data plane also rides
(:class:`~repro.sim.network.SeededLink`): seeded per-message loss,
jitter, duplication, and on this front timed site<->server partitions.  The protocol survives them with four
mechanisms, each inert until its knob is turned:

* **Idempotent sequencing** — each site-side report carries a per-site
  monotonic ``seq``; the server applies latest-wins per (site, kind),
  discards duplicates without re-dirtying the round machinery, and a
  withdrawal establishes a *floor* below which late pre-leave reports
  are dead on arrival (the reorder that would otherwise resurrect a
  departed site).
* **Retransmit with capped exponential backoff**
  (``retransmit_timeout_ms > 0``) — one :class:`RetransmitQueue` loop
  serves both directions: sequenced reports are re-sent until a
  :class:`~repro.pubsub.messages.ControlAck` lands, directive pushes
  until their :class:`~repro.pubsub.messages.DirectiveAck` does.  Both
  back off exponentially (capped) and are exhausted after
  ``MAX_RETRANSMITS`` attempts, so partitions cannot pin a round open
  forever; the two queues differ only in their resend and on-exhausted
  callbacks.
* **Heartbeat failure detection** (``heartbeat_ms > 0``) — live sites
  beat on a recurring timer; the server withdraws any registered site
  its detector suspects, turning ``FAIL`` from a declared event into a
  *detected* one.  A heartbeat from a site the server no longer knows
  (a zombie: falsely suspected across a partition) provokes a
  :class:`~repro.pubsub.messages.RejoinRequest`, and the live site
  re-admits itself as a fresh join.  The detector is chosen once, from
  ``phi_threshold``: the static ``miss_threshold x heartbeat_ms``
  :class:`~repro.pubsub.detector.DeadlineDetector`, or the φ-accrual
  :class:`~repro.pubsub.detector.PhiAccrualDetector`, which adapts its
  silence budget to each link's observed heartbeat cadence.  Two
  instances of it run: the server scoring sites, and (failover armed)
  the sites scoring the server.
* **Server crash / recovery** (``server_outages`` or an explicit
  ``crash_server()``) — the membership server itself can die: all of
  its soft state (registrations, epochs, dedup floors, pending
  timers) vanishes, and it restarts under a higher *incarnation*
  number, warm from a durable checkpoint
  (``checkpoint_interval_ms > 0``) or cold.  Every server-originated
  envelope carries the incarnation; sites discard messages from dead
  incarnations and answer the first contact from a higher one with a
  full soft-state refresh (advertise + subscribe replay) from which
  the server reconstructs its registrations.  Meanwhile each site
  scores the server's heartbeat-response stream with its own failure
  detector: on suspicion (or ack starvation) it *parks* outbound
  reports — timer-free, so a drain stays clean — and replays them in
  sequence order on the next server contact, so no membership change
  is lost to the outage.

With all knobs at zero the service degenerates to the synchronous
model: every event triggers exactly one round at the event's own
timestamp and directives install instantly, so directives are
bit-identical to :meth:`PubSubSystem.run_control_round` /
:class:`~repro.scenarios.runtime.ScenarioRuntime`'s synchronous path
(the equivalence suite in ``tests/scenarios/test_async_control.py``
pins this per scenario x seed x builder — with and without the fault
layer's reliability machinery armed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.base import BuildResult
from repro.errors import ConfigurationError, ProtocolError
from repro.pubsub.detector import DeadlineDetector, PhiAccrualDetector
from repro.pubsub.faults import FaultyLink, PartitionWindow, ServerOutageWindow
from repro.pubsub.membership import MembershipServer, ServerCheckpoint
from repro.pubsub.messages import (
    Advertise,
    Advertisement,
    ControlAck,
    ControlEnvelope,
    DirectiveAck,
    Heartbeat,
    HeartbeatAck,
    OverlayDirective,
    RejoinRequest,
    SiteSubscription,
    Subscribe,
    Withdraw,
)
from repro.pubsub.rp import RPAgent
from repro.sim.engine import Simulator, Timer
from repro.util.floats import left_sum
from repro.util.rng import RngStream
from repro.util.validation import (
    check_at_least,
    check_disjoint_windows,
    check_finite_non_negative,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.invariants import InvariantAuditor

#: Exponential backoff base between retransmit attempts: attempt *k*
#: waits ``timeout * RETRANSMIT_BACKOFF**k``, capped below.
RETRANSMIT_BACKOFF = 2.0
#: Backoff ceiling as a multiple of the base timeout.
RETRANSMIT_BACKOFF_CAP = 8.0
#: Attempts after the original send before a message is abandoned —
#: what bounds drain time when a partition outlives every backoff.
MAX_RETRANSMITS = 6


@dataclass
class _Pending:
    """Retransmit state for one tracked message.

    A sequenced report carries its envelope and is numbered by its
    ``seq``; a directive push carries its :class:`ControlRound` and is
    numbered by the epoch.
    """

    site: int
    number: int
    kind: str
    payload: Any
    attempts: int = 0
    timer: Timer | None = None


class RetransmitQueue:
    """Sends awaiting an ack: re-sent with capped backoff until settled.

    An entry is tracked right after its first transmission.  Its first
    timer fires at ``timeout_ms``, the k-th retry then waits
    ``min(timeout * RETRANSMIT_BACKOFF**k, timeout * RETRANSMIT_BACKOFF_CAP)``,
    and after ``MAX_RETRANSMITS`` unanswered copies the entry is
    dropped and handed to ``on_exhausted``.  Each copy re-sent counts
    one into ``counts.retransmits``.  The queue knows nothing
    about what it re-sends: ``resend(entry)`` puts one more copy on the
    wire (``entry.attempts`` already counts it) and
    ``on_exhausted(entry)`` decides what giving up means.  Every way
    out of the queue disarms the entry's timer, so nothing ever fires
    for a message that is no longer tracked.
    """

    def __init__(
        self,
        sim: Simulator,
        timeout_ms: float,
        resend: Callable[[_Pending], None],
        on_exhausted: Callable[[_Pending], None],
        counts: ControlCounts,
    ) -> None:
        self.sim = sim
        self.timeout_ms = timeout_ms
        self.resend = resend
        self.on_exhausted = on_exhausted
        self.counts = counts
        self._entries: dict[tuple[int, int], _Pending] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def track(self, entry: _Pending) -> None:
        """Start waiting for the ack of ``entry``, which was just sent."""
        self._entries[(entry.site, entry.number)] = entry
        entry.timer = self.sim.schedule_timer(
            self.timeout_ms, self._retransmit, entry
        )

    def _retransmit(self, entry: _Pending) -> None:
        if entry.attempts >= MAX_RETRANSMITS:
            del self._entries[(entry.site, entry.number)]
            entry.timer = None
            self.on_exhausted(entry)
            return
        entry.attempts += 1
        self.counts.retransmits += 1
        self.resend(entry)
        entry.timer = self.sim.schedule_timer(
            min(
                self.timeout_ms * (RETRANSMIT_BACKOFF**entry.attempts),
                self.timeout_ms * RETRANSMIT_BACKOFF_CAP,
            ),
            self._retransmit,
            entry,
        )

    def settle(self, site: int, number: int) -> _Pending | None:
        """Stop tracking one entry (its ack landed, or the wait is moot)."""
        entry = self._entries.pop((site, number), None)
        if entry is not None:
            entry.timer.cancel()
            entry.timer = None
        return entry

    def cancel_site(self, site: int) -> list[_Pending]:
        """Stop tracking ``site``'s entries; returns them by ascending number."""
        keys = sorted(key for key in self._entries if key[0] == site)
        return [self.settle(*key) for key in keys]

    def clear(self) -> list[_Pending]:
        """Stop tracking everything; returns the entries in tracking order."""
        return [self.settle(*key) for key in list(self._entries)]


@dataclass
class ControlRound:
    """Bookkeeping for one epoch-numbered asynchronous build round."""

    epoch: int
    #: Arrival time of the dirty message that opened the debounce window.
    trigger_ms: float
    #: Server incarnation that built the round (0 on hand-built rounds;
    #: sites discard directives from incarnations below their highest
    #: seen, except 0 which is unversioned).
    incarnation: int = field(default=0, kw_only=True)
    #: Time the overlay was actually built (window close).
    built_ms: float
    #: ``"repair"`` or ``"rebuild"`` (the server's mode for the round).
    mode: str
    #: ``"diffed"`` or ``"scratch"`` — how the round's problem was
    #: assembled (the async plane reuses the shared server's evolved
    #: problem exactly like the synchronous plane does).
    assembly: str
    #: Sites the directive was pushed to (the server's registered set
    #: at build time).
    installed: tuple[int, ...]
    directive: OverlayDirective
    result: BuildResult
    #: Control messages coalesced into this round by the debounce window.
    coalesced: int = 1
    #: Ack arrival time per site (stale discards never ack).
    acked: dict[int, float] = field(default_factory=dict)
    #: Sites that discarded this round's directive as stale.
    stale_sites: tuple[int, ...] = ()
    #: Last-ack-minus-trigger; None while acks are still in flight.
    convergence_ms: float | None = None
    _awaiting_install: set[int] = field(default_factory=set, repr=False)
    _awaiting_ack: set[int] = field(default_factory=set, repr=False)
    _install_finished: bool = field(default=False, repr=False)

    @property
    def converged(self) -> bool:
        """True once every non-stale site has acknowledged."""
        return self.convergence_ms is not None


@dataclass
class ControlCounts:
    """The protocol events a :class:`MembershipService` has seen.

    Every field is a count of events, zero until the first one; the
    line above each says what one event is.
    """

    #: One directive a site discarded because it already held a newer one.
    stale_directives: int = 0
    #: One more copy of a directive at a site it had already reached.
    duplicate_directives: int = 0
    #: One report the server discarded as already applied.
    duplicates_discarded: int = 0
    #: One report discarded as older than its site's leave or rejoin.
    stale_reports_discarded: int = 0
    #: One withdrawal the server discarded as its site was already gone.
    duplicate_withdraws: int = 0
    #: One report or directive copy re-sent after the original.
    retransmits: int = 0
    #: One report or directive push abandoned after its last retransmit.
    retransmit_giveups: int = 0
    #: One heartbeat a live site sent.
    heartbeats_sent: int = 0
    #: One silent site the server's detector withdrew.
    detected_failures: int = 0
    #: One detected failure whose site was still alive.
    false_suspicions: int = 0
    #: One rejoin request sent to a beating site the server did not know.
    rejoin_requests: int = 0
    #: One zombie site re-admitted as a fresh join.
    readmissions: int = 0
    #: One crash of the membership server.
    server_crashes: int = 0
    #: One restart of the server under a new incarnation.
    server_recoveries: int = 0
    #: One full advertise+subscribe replay provoked by a new incarnation.
    refresh_replays: int = 0
    #: One server message a site discarded as sent by a dead incarnation.
    stale_incarnation_discards: int = 0
    #: One site starting to suspect the server is down.
    server_suspicions: int = 0
    #: One report a site buffered while suspecting the server.
    reports_parked: int = 0
    #: One parked report a site re-sent on server contact.
    reports_replayed: int = 0
    #: One message that reached the server while it was down.
    messages_lost_to_outage: int = 0
    #: One durable checkpoint of the server's registrations.
    checkpoints_taken: int = 0
    #: One restart warmed from a checkpoint.
    checkpoint_restores: int = 0


#: Missed heartbeats the static deadline tolerates, unless configured.
MISS_THRESHOLD = 3


@dataclass(frozen=True)
class ControlConfig:
    """The knobs of one :class:`MembershipService` and its link.

    Each knob is off at its default, and the line above each says what
    it sets; with every knob off the service is the synchronous
    degenerate case.  The three flags after the knobs are derived once
    here, so the service's hot paths read plain attributes.
    """

    #: One-way control-link propagation delay.
    control_delay_ms: float = 0.0
    #: Window over which the service coalesces reports into one round.
    debounce_ms: float = 0.0
    #: Probability the link drops one transmission.
    loss_rate: float = 0.0
    #: Delay added to each message, uniform in ``[0, jitter_ms]``.
    jitter_ms: float = 0.0
    #: Probability a delivered message is delivered again, strictly later.
    duplicate_rate: float = 0.0
    #: Timed site<->server cuts (:class:`~repro.pubsub.faults.PartitionWindow`).
    partitions: tuple[PartitionWindow, ...] = ()
    #: Heartbeat period of live sites; 0 turns failure detection off.
    heartbeat_ms: float = 0.0
    #: Missed beats the static deadline allows (heartbeats, no φ).
    miss_threshold: int = MISS_THRESHOLD
    #: Ack timeout that arms retransmission; 0 sends and forgets.
    retransmit_timeout_ms: float = 0.0
    #: Timed server crashes (:class:`~repro.pubsub.faults.ServerOutageWindow`).
    server_outages: tuple[ServerOutageWindow, ...] = ()
    #: φ-accrual threshold of both detectors; 0 keeps the static deadline.
    phi_threshold: float = 0.0
    #: Period of the server's checkpoint; 0 means cold restarts.
    checkpoint_interval_ms: float = 0.0
    #: Some link fault can fire (outages impair the server, not the link).
    impaired: bool = field(init=False, repr=False, compare=False)
    #: Reports and directive pushes are acked and retransmitted.
    reliable: bool = field(init=False, repr=False, compare=False)
    #: Sites tolerate server crashes: armed by scheduled outages only.
    server_failover: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in (
            "control_delay_ms",
            "debounce_ms",
            "jitter_ms",
            "heartbeat_ms",
            "retransmit_timeout_ms",
            "phi_threshold",
            "checkpoint_interval_ms",
        ):
            check_finite_non_negative(name, getattr(self, name))
        check_probability("loss_rate", self.loss_rate)
        check_probability("duplicate_rate", self.duplicate_rate)
        check_at_least("miss_threshold", self.miss_threshold, 1)
        check_disjoint_windows("server outage", self.server_outages)
        beating = self.heartbeat_ms > 0
        if self.phi_threshold > 0 and not beating:
            raise ConfigurationError(
                "phi_threshold requires heartbeat_ms > 0 (the detector "
                "scores a heartbeat cadence)"
            )
        if self.miss_threshold != MISS_THRESHOLD and (
            not beating or self.phi_threshold > 0
        ):
            raise ConfigurationError(
                f"miss_threshold={self.miss_threshold} is read only by the "
                "static heartbeat deadline: it requires heartbeat_ms > 0 and "
                "phi_threshold == 0"
            )
        if self.server_outages and not (
            beating and self.retransmit_timeout_ms > 0
        ):
            raise ConfigurationError(
                "server_outages require heartbeat_ms > 0 and "
                "retransmit_timeout_ms > 0: crash recovery rides the "
                "heartbeat/ack streams (heartbeat-acks carry the new "
                "incarnation, retransmits replay lost reports)"
            )
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "impaired", bool(
            self.loss_rate or self.jitter_ms or self.duplicate_rate
            or self.partitions
        ))
        derive(self, "reliable", self.retransmit_timeout_ms > 0)
        derive(self, "server_failover", bool(self.server_outages))


class MembershipService:
    """Event-driven façade over a :class:`MembershipServer`.

    Parameters
    ----------
    sim:
        The simulation clock everything runs on.
    server:
        The synchronous server doing the actual overlay construction;
        the service owns its registration state transitions.
    rps:
        Site-indexed RP agents the directives install into.
    build_rng:
        Parent stream for per-round build RNGs; round *e* draws from
        ``build_rng.spawn(f"round-{e}")`` — the same labels the
        synchronous scenario path uses, which is what makes the
        zero-delay case bit-identical.
    config:
        Every knob of the service and its link; the defaults are the
        synchronous degenerate case on a perfect link.
    auditor:
        Optional invariant auditor; each epoch is audited when its last
        directive delivery lands, against the sites actually holding
        that epoch.
    chaos_rng:
        Stream feeding the link's loss/jitter/duplication draws;
        ``None`` derives ``build_rng.spawn("chaos-link")`` (spawning is
        stateless, so the derivation cannot perturb the build streams).
    """

    def __init__(
        self,
        sim: Simulator,
        server: MembershipServer,
        rps: Mapping[int, RPAgent],
        build_rng: RngStream,
        config: ControlConfig = ControlConfig(),
        auditor: "InvariantAuditor | None" = None,
        chaos_rng: RngStream | None = None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.rps = rps
        self.build_rng = build_rng
        self.config = config
        self.auditor = auditor
        #: The transport every control message crosses.
        self.link = FaultyLink(
            sim,
            chaos_rng if chaos_rng is not None else build_rng.spawn("chaos-link"),
            config,
        )
        #: Completed build rounds, in epoch order.
        self.rounds: list[ControlRound] = []
        #: Every protocol event counted, one field per kind.
        self.counts = ControlCounts()
        #: Hook invoked right after each round is built (before any
        #: directive delivery): ``on_round(round)``.
        self.on_round: Callable[[ControlRound], None] | None = None
        self._pending: Timer | None = None
        self._trigger_ms: float | None = None
        self._coalesced = 0
        # -- sequencing / idempotence --------------------------------------
        self._next_seq: dict[int, int] = {}
        self._applied_seq: dict[tuple[int, str], int] = {}
        self._withdraw_floor: dict[int, int] = {}
        #: Sites withdrawn (by message or by the failure detector) since
        #: their last applied registration: a second withdrawal for one
        #: of these is redundant and must not roll another epoch.
        self._withdrawn: set[int] = set()
        # -- retransmission ------------------------------------------------
        #: Site->server: sequenced reports awaiting their ControlAck.
        self._reports = RetransmitQueue(
            sim, config.retransmit_timeout_ms, self._offer,
            self._report_exhausted, self.counts,
        )
        #: Server->site: directive pushes awaiting their DirectiveAck.
        self._pushes = RetransmitQueue(
            sim, config.retransmit_timeout_ms, self._push,
            self._push_exhausted, self.counts,
        )
        # -- heartbeats / failure detection --------------------------------
        self._live: set[int] = set()
        self._fail_times: dict[int, float] = {}
        self._quiesced = False
        #: Silence-to-withdrawal latency per detected real failure.
        self.detection_latencies: list[float] = []
        #: The server's view of each site's liveness, and (consulted in
        #: failover mode only) each site's view of the server's.
        self._site_detector = self._make_detector()
        self._server_detector = self._make_detector()
        # -- server crash / recovery ----------------------------------------
        #: The server's current incarnation; bumped on every recovery.
        self.incarnation = 1
        self._server_down = False
        #: Highest server incarnation each site has seen (sites are born
        #: knowing incarnation 1, the pre-crash server).
        self._known_incarnation: dict[int, int] = {}
        #: Reports parked while their site suspects the server is down
        #: (no timers: parked entries replay on recovery, so they never
        #: show up as armed retransmit state).
        self._parked: dict[tuple[int, int], _Pending] = {}
        #: Sites currently suspecting the server.
        self._suspecting: set[int] = set()
        #: (incarnation, epoch) of the directive each site last installed
        #: *via this service* — the ballot order for supersession.  A
        #: restarted server may re-number epochs its predecessor used,
        #: so sites order directives by incarnation first.  Site-side
        #: state: survives server crashes.
        self._installed_rounds: dict[int, tuple[int, int]] = {}
        self._checkpoint: ServerCheckpoint | None = None
        self._recovery_started: float | None = None
        #: Recovery-to-reconverged latency per server recovery (the time
        #: from restart until every live site is registered again).
        self.recovery_latencies: list[float] = []
        #: Every self-rearming timer, which is what :meth:`quiesce` must
        #: silence: the recurring sweeps by name, each live site's
        #: heartbeat as ``("beat", site)``, and ``("linger", site)`` — the
        #: probe of a site that withdrew while the server was unreachable
        #: and stays up just long enough to deliver its parked farewell
        #: (no heartbeats anymore, so the probe is its only remaining
        #: path to learning the server came back).
        self._timers: dict[object, Timer] = {}
        self._arm_sweeps()
        for window in config.server_outages:
            sim.schedule_at(window.start_ms, self.crash_server)
            sim.schedule_at(window.end_ms, self.recover_server)

    def _make_detector(self) -> DeadlineDetector | PhiAccrualDetector:
        """The configured failure detector: φ-accrual or static deadline."""
        config = self.config
        if config.phi_threshold > 0:
            return PhiAccrualDetector(
                threshold=config.phi_threshold,
                initial_interval_ms=config.heartbeat_ms,
            )
        return DeadlineDetector(config.miss_threshold * config.heartbeat_ms)

    def _arm_sweeps(self) -> None:
        """Arm every configured recurring sweep that is not running.

        The server's detector sweep and checkpoint die with it and are
        re-armed on recovery; the sites' sweep of the server runs from
        construction until :meth:`quiesce`.
        """
        config = self.config
        for name, period_ms, sweep in (
            ("detector", config.heartbeat_ms, self._detect),
            ("checkpoint", config.checkpoint_interval_ms, self._take_checkpoint),
            (
                "client-sweep",
                config.heartbeat_ms if config.server_failover else 0.0,
                self._client_detect,
            ),
        ):
            if period_ms > 0 and name not in self._timers:
                self._timers[name] = self.sim.schedule_timer(
                    period_ms, sweep, interval_ms=period_ms
                )

    def _cancel_timers(self, *keys: object) -> None:
        for key in keys:
            timer = self._timers.pop(key, None)
            if timer is not None:
                timer.cancel()

    # -- site-side transport entry points -----------------------------------------

    def advertise(self, advertisement: Advertisement) -> Advertise:
        """Send an advertisement over the site's control link."""
        site = advertisement.site
        message = Advertise(
            sent_ms=self.sim.now,
            epoch=self._site_epoch(site),
            advertisement=advertisement,
            seq=self._take_seq(site),
        )
        self._site_alive(site)
        self._send(message, site)
        return message

    def subscribe(self, subscription: SiteSubscription) -> Subscribe:
        """Send an aggregated subscription over the site's control link."""
        site = subscription.site
        message = Subscribe(
            sent_ms=self.sim.now,
            epoch=self._site_epoch(site),
            subscription=subscription,
            seq=self._take_seq(site),
        )
        self._site_alive(site)
        self._send(message, site)
        return message

    def withdraw(self, site: int) -> Withdraw:
        """Send a withdrawal (graceful leave or declared failure).

        The site's earlier in-flight reports are cancelled first: once
        it is leaving, retransmitting a stale advertise/subscribe is
        pure ghost traffic (the server's withdraw floor would discard a
        late copy anyway).  Only the withdrawal itself stays tracked
        for reliable delivery.
        """
        self._cancel_site_reports(site)
        message = Withdraw(
            sent_ms=self.sim.now,
            epoch=self._site_epoch(site),
            site=site,
            seq=self._take_seq(site),
        )
        self._site_down(site)
        self._send(message, site)
        return message

    def fail_site(self, site: int) -> Withdraw | None:
        """An abrupt site death.

        With heartbeat detection on, *nothing* is sent — the site just
        falls silent (its heartbeats stop, its pending retransmits die
        with it) and the server must detect the failure.  Without
        heartbeats this degrades to a declared withdrawal, the legacy
        model.
        """
        if self.config.heartbeat_ms <= 0:
            return self.withdraw(site)
        self._site_down(site)
        self._fail_times[site] = self.sim.now
        self._cancel_site_reports(site)
        return None

    def _cancel_site_reports(self, site: int) -> None:
        """Drop every tracked or parked report of ``site``.

        A departed (withdrawn or failed) site can never fire a ghost
        retransmit: leaving the queue disarms the entry's timer.
        """
        self._reports.cancel_site(site)
        for key in [k for k in self._parked if k[0] == site]:
            del self._parked[key]
        self._cancel_timers(("linger", site))

    def quiesce(self) -> None:
        """Stop periodic work (heartbeats + detector) so a drain terminates.

        In-flight traffic and bounded retransmits still land; only the
        self-rearming timers are silenced.  Used by the scenario runtime
        at the horizon before its final drain.
        """
        self._quiesced = True
        self._cancel_timers(*self._timers)

    # -- message propagation -------------------------------------------------------

    def _site_epoch(self, site: int) -> int:
        rp = self.rps.get(site)
        return rp.epoch if rp is not None else -1

    def _take_seq(self, site: int) -> int:
        """Next per-site sequence number (monotonic across rejoins)."""
        seq = self._next_seq.get(site, 0) + 1
        self._next_seq[site] = seq
        return seq

    def _transmit(self, site: int, deliver: Callable[..., None], *args) -> None:
        """Put one message on ``site``'s control link, either direction:
        it lands as ``deliver(*args)`` after the one-way delay."""
        self.link.transmit(site, self.config.control_delay_ms, deliver, args)

    def _send(self, message: ControlEnvelope, site: int) -> None:
        entry = _Pending(site, message.seq, _kind_of(message), message)
        if self.config.server_failover and site in self._suspecting:
            # The site believes the server is down: transmitting would
            # only burn retransmit attempts into a dead socket.  Park
            # the report; it replays in seq order on the next server
            # contact (same or higher incarnation).
            self._park(entry)
            return
        self._offer(entry)
        if self.config.reliable:
            self._reports.track(entry)

    def _offer(self, entry: _Pending) -> None:
        """One copy of a report onto the wire: first send, retransmit,
        replay or linger probe."""
        self._transmit(entry.site, self._receive, entry.payload)

    def _park(self, entry: _Pending) -> None:
        """Buffer a report, timer-free, until the server is heard again."""
        entry.attempts = 0
        self._parked[(entry.site, entry.number)] = entry
        self.counts.reports_parked += 1
        self._ensure_linger(entry.site)

    def _report_exhausted(self, entry: _Pending) -> None:
        if not self.config.server_failover:
            self.counts.retransmit_giveups += 1
            return
        # Ack starvation with failover armed is a server-death signal,
        # not a reason to lose the report: park it (and everything else
        # this site has in flight) for replay.
        self._park(entry)
        self._suspect_server(entry.site)

    # -- server-side arrival --------------------------------------------------------

    def _receive(self, message: ControlEnvelope) -> None:
        """Server-side arrival of one control envelope."""
        if self._server_down:
            # Dead process: the message crossed the link into nothing.
            self.counts.messages_lost_to_outage += 1
            return
        site: int = message.site  # type: ignore[attr-defined]
        kind = _kind_of(message)
        self._site_detector.touch(site, self.sim.now)
        # A restarted (cold) server must never hand out epochs below
        # what sites already installed — fast-forward to any higher
        # epoch a report carries.  Provably inert crash-free: a site's
        # installed epoch can never exceed the server's.
        self.server.ensure_epoch_floor(message.epoch)
        verdict = self._discard_reason(site, kind, message.seq)
        if message.seq > 0 and verdict in (None, "straggler"):
            # Recorded for a straggler too, so its copies count as duplicates.
            self._applied_seq[(site, kind)] = message.seq
        if verdict is not None:
            if verdict == "duplicate":
                self.counts.duplicates_discarded += 1
            else:
                self.counts.stale_reports_discarded += 1
            # Idempotent discard: no re-dirtying — but in reliable mode
            # re-ack so the sender's retransmit loop stops.
            if self.config.reliable:
                self._ack_report(site, kind, message.seq)
            return
        if isinstance(message, Advertise):
            self.server.register_advertisement(message.advertisement)
            self._withdrawn.discard(site)
        elif isinstance(message, Subscribe):
            self.server.register_subscription(message.subscription)
            self._withdrawn.discard(site)
        elif isinstance(message, Withdraw):
            if message.seq > 0:
                # Any slower pre-leave report must not resurrect the site.
                self._withdraw_floor[site] = max(
                    self._withdraw_floor.get(site, 0), message.seq
                )
            if site in self._withdrawn:
                # The failure detector (or an earlier withdrawal) beat
                # this message to it: applying it again would roll a
                # second epoch for one departure.
                self.counts.duplicate_withdraws += 1
                if self.config.reliable:
                    self._ack_report(site, kind, message.seq)
                return
            self.server.withdraw_site(site)
            self._withdrawn.add(site)
            self._site_detector.forget(site)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected control message {message!r}")
        if self.config.reliable:
            self._ack_report(site, kind, message.seq)
        if self._recovery_started is not None:
            self._check_recovered()
        # Any applied arrival dirties the round — even a payload the
        # dirty-tracked registration skipped.  The synchronous model
        # rebuilds on every report, and randomized builders make
        # "rebuild with unchanged workload" an observable event, so
        # triggering must not depend on whether the payload changed.
        self.mark_dirty()

    def _discard_reason(self, site: int, kind: str, seq: int) -> str | None:
        """Why delivering report ``seq`` now would discard it, else None.

        ``duplicate`` at or below the applied seq; ``stale`` for state
        behind the site's withdraw floor; ``straggler`` for a withdrawal
        the site's rejoin has outrun (seqs share one per-site counter,
        so the order is total).  Read-only: ``_receive`` discards by it
        and ``parked_reports`` counts by it.
        """
        if seq <= 0:
            return None  # unsequenced envelope (hand-built or legacy)
        applied = self._applied_seq
        if seq <= applied.get((site, kind), 0):
            return "duplicate"
        if kind != "withdraw":
            if seq < self._withdraw_floor.get(site, 0):
                return "stale"  # reordered pre-withdraw state
        elif seq < max(
            applied.get((site, "advertise"), 0), applied.get((site, "subscribe"), 0)
        ):
            return "straggler"
        return None

    def _ack_report(self, site: int, kind: str, seq: int) -> None:
        if seq <= 0:
            return
        ack = ControlAck(
            sent_ms=self.sim.now,
            epoch=-1,
            site=site,
            acked_seq=seq,
            kind=kind,
            incarnation=self.incarnation,
        )
        self._transmit(site, self._receive_control_ack, ack)

    def _receive_control_ack(self, ack: ControlAck) -> None:
        """Site-side arrival of a report ack: stop that retransmit loop."""
        if self._note_server_contact(ack.site, ack.incarnation) == "stale":
            return
        self._reports.settle(ack.site, ack.acked_seq)

    # -- heartbeats / failure detection ----------------------------------------------

    def _site_alive(self, site: int) -> None:
        self._live.add(site)
        self._fail_times.pop(site, None)
        self._start_heartbeat(site)

    def _site_down(self, site: int) -> None:
        self._live.discard(site)
        self._cancel_timers(("beat", site))

    def _start_heartbeat(self, site: int) -> None:
        period_ms = self.config.heartbeat_ms
        if period_ms <= 0 or self._quiesced or ("beat", site) in self._timers:
            return
        self._timers["beat", site] = self.sim.schedule_timer(
            period_ms, self._beat, site, interval_ms=period_ms
        )

    def _beat(self, site: int) -> None:
        if site not in self._live or self._quiesced:
            return
        self.counts.heartbeats_sent += 1
        rp = self.rps.get(site)
        message = Heartbeat(self.sim.now, -1 if rp is None else rp.epoch, site)
        self._transmit(site, self._receive_heartbeat, message)

    def _receive_heartbeat(self, message: Heartbeat) -> None:
        """Server-side arrival of one heartbeat."""
        if self._server_down:
            self.counts.messages_lost_to_outage += 1
            return
        site = message.site
        now = self.sim.now
        self.server.ensure_epoch_floor(message.epoch)
        self._site_detector.observe(site, now)
        if self.config.server_failover:
            # Answer every beat: the stream of these acks is what the
            # site's server-suspicion detector scores, and the
            # incarnation stamp is how a site first learns the server
            # came back.  Fire-and-forget — the next beat provokes the
            # next ack.
            ack = HeartbeatAck(now, -1, site, 0, self.incarnation)
            self._transmit(site, self._receive_heartbeat_ack, ack)
        if not self.server.is_registered(site):
            # A zombie: alive enough to beat, but the server forgot it
            # (suspected across a partition, or every report was lost).
            # Ask it to rejoin; the request rides the same lossy link,
            # and the next beat re-provokes it if this copy drops.
            self.counts.rejoin_requests += 1
            request = RejoinRequest(
                sent_ms=now,
                epoch=-1,
                site=site,
                incarnation=self.incarnation,
            )
            self._transmit(site, self._receive_rejoin, request)

    def _receive_heartbeat_ack(self, ack: HeartbeatAck) -> None:
        """Site-side arrival of a heartbeat response (failover mode)."""
        site = ack.site
        if (
            ack.incarnation == self._known_incarnation.get(site, 1)
            and site not in self._suspecting
        ):
            # The common case: the contact changes nothing but the
            # score, which is all _note_server_contact would do here.
            self._server_detector.observe(site, self.sim.now)
            return
        self._note_server_contact(site, ack.incarnation, beat=True)

    def _receive_rejoin(self, request: RejoinRequest) -> None:
        """Site-side arrival of a rejoin request: re-announce if alive."""
        site = request.site
        verdict = self._note_server_contact(site, request.incarnation)
        if verdict == "stale":
            return
        if site not in self._live:
            return  # left or died in the meantime: nothing to re-admit
        if verdict == "refreshed":
            return  # the incarnation bump already replayed a full refresh
        self.counts.readmissions += 1
        self._reannounce(site)

    def _detect(self) -> None:
        """Recurring server-side sweep: suspect silent registered sites."""
        now = self.sim.now
        suspect = self._site_detector.suspect
        for site in self.server.registered_sites():
            if suspect(site, now):
                self._suspect(site)

    def _suspect(self, site: int) -> None:
        """Withdraw a silent site server-side (detected failure)."""
        self.counts.detected_failures += 1
        if site in self._live:
            self.counts.false_suspicions += 1
        else:
            fail_ms = self._fail_times.pop(site, None)
            if fail_ms is not None:
                self.detection_latencies.append(self.sim.now - fail_ms)
        self._withdrawn.add(site)
        self._site_detector.forget(site)
        self.server.withdraw_site(site)
        self.mark_dirty()

    # -- server crash / recovery -----------------------------------------------------

    def crash_server(self) -> None:
        """Kill the membership server: every piece of soft state dies.

        Registrations, epoch counters, dedup/withdraw floors, detector
        history, the open debounce window and every pending directive
        retransmit all lived in the server process — they vanish.
        Observability counters (and any durable checkpoint) survive,
        because they model the experimenter's view, not the server's.
        Idempotent; scheduled by :class:`~repro.pubsub.faults.ServerOutageWindow`
        starts or called directly by tests/runtimes.
        """
        if self._server_down:
            return
        self._server_down = True
        self.counts.server_crashes += 1
        # Pending timers die with the process.
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
            self._trigger_ms = None
            self._coalesced = 0
        self._cancel_timers("detector", "checkpoint")
        for entry in self._pushes.clear():
            # The dead incarnation stops waiting on this site — the same
            # settling as a retransmit give-up (uncounted), so the round
            # can still converge and audit against the sites that did
            # install.
            self._abandon_push(entry)
        # Server-side per-site soft state.
        self._applied_seq.clear()
        self._withdraw_floor.clear()
        self._withdrawn.clear()
        self._fail_times.clear()
        self._site_detector.reset()
        self._recovery_started = None
        self.server.crash()

    def recover_server(self) -> None:
        """Restart the server under the next incarnation.

        Warm when a checkpoint is held (registrations up to the last
        snapshot come back; only post-checkpoint deltas must be
        re-collected), cold otherwise (everything rebuilds from the
        sites' soft-state refresh).  Idempotent; scheduled by outage
        window ends.
        """
        if not self._server_down:
            return
        self._server_down = False
        self.incarnation += 1
        self.counts.server_recoveries += 1
        if self._checkpoint is not None:
            self.server.restore(self._checkpoint)
            self.counts.checkpoint_restores += 1
        self._recovery_started = self.sim.now
        self._check_recovered()
        if not self._quiesced:
            self._arm_sweeps()

    def _take_checkpoint(self) -> None:
        """Recurring durable snapshot of the server's registrations."""
        if self._server_down:
            return
        self._checkpoint = self.server.checkpoint()
        self.counts.checkpoints_taken += 1

    def _check_recovered(self) -> None:
        """Close the open recovery-latency measurement once reconverged."""
        registered = set(self.server.registered_sites())
        if self._live <= registered:
            self.recovery_latencies.append(self.sim.now - self._recovery_started)
            self._recovery_started = None

    # -- client-side server suspicion ------------------------------------------------

    def _note_server_contact(
        self, site: int, incarnation: int, beat: bool = False
    ) -> str:
        """Site-side bookkeeping for one server-originated arrival.

        Returns ``"stale"`` (the caller must discard the message: it
        was sent by a dead incarnation), ``"refreshed"`` (first contact
        from a higher incarnation — parked reports were replayed and a
        full soft-state refresh was sent), or ``"ok"``.  ``incarnation
        == 0`` marks an unversioned envelope and is never stale.
        """
        known = self._known_incarnation.get(site, 1)
        if 0 < incarnation < known:
            self.counts.stale_incarnation_discards += 1
            return "stale"
        if self.config.server_failover:
            if beat:
                self._server_detector.observe(site, self.sim.now)
            else:
                self._server_detector.touch(site, self.sim.now)
        if incarnation > known:
            self._known_incarnation[site] = incarnation
            self._refresh_site(site)
            return "refreshed"
        if site in self._suspecting:
            # Same incarnation answering again: the server never died
            # (ack starvation came from the link) — replay what we
            # parked, it dedups server-side if already applied.
            self._unsuspect(site)
        return "ok"

    def _refresh_site(self, site: int) -> None:
        """Full soft-state refresh after first contact with a new incarnation.

        Replays the site's parked reports first (their seqs predate any
        fresh ones, so arrival order matches seq order), then re-sends
        the authoritative advertise/subscribe pair the restarted server
        rebuilds its registrations from.
        """
        self._unsuspect(site)
        if site not in self._live:
            return
        self.counts.refresh_replays += 1
        self._reannounce(site)

    def _reannounce(self, site: int) -> None:
        """Re-send the site's authoritative advertise/subscribe pair."""
        rp = self.rps[site]
        self.advertise(rp.advertisement())
        self.subscribe(rp.aggregate_subscription())

    def _client_detect(self) -> None:
        """Recurring site-side sweep: suspect a silent server (failover mode)."""
        now = self.sim.now
        suspect = self._server_detector.suspect
        for site in sorted(self._live):
            if site in self._suspecting:
                continue
            # A site that never heard from the server is not suspected.
            if suspect(site, now):
                self._suspect_server(site)

    def _suspect_server(self, site: int) -> None:
        """One site starts believing the server is down: park its traffic."""
        if site in self._suspecting:
            return
        self._suspecting.add(site)
        self.counts.server_suspicions += 1
        for entry in self._reports.cancel_site(site):
            self._park(entry)

    def _ensure_linger(self, site: int) -> None:
        """Keep a departed site alive until its parked farewell lands.

        A live site re-learns the server via heartbeat acks; a site that
        withdrew while suspecting has no heartbeats left, so without
        this probe its parked Withdraw would wait forever and the
        membership change would be lost.  The probe re-offers the
        oldest parked report at retransmit cadence; the ack it provokes
        carries the server's incarnation and triggers the normal full
        replay.  Quiescing cancels the probe — a site still parked at
        the horizon is exactly what ``unrecovered_reports`` counts.
        """
        if (
            self.config.retransmit_timeout_ms <= 0
            or self._quiesced
            or site in self._live
            or ("linger", site) in self._timers
            or not any(k[0] == site for k in self._parked)
        ):
            return
        self._timers["linger", site] = self.sim.schedule_timer(
            self.config.retransmit_timeout_ms, self._linger_probe, site
        )

    def _linger_probe(self, site: int) -> None:
        del self._timers["linger", site]
        keys = sorted(k for k in self._parked if k[0] == site)
        if not keys or site in self._live or self._quiesced:
            return
        self._offer(self._parked[keys[0]])
        self._timers["linger", site] = self.sim.schedule_timer(
            self.config.retransmit_timeout_ms * RETRANSMIT_BACKOFF_CAP,
            self._linger_probe,
            site,
        )

    def _unsuspect(self, site: int) -> None:
        """Server contact re-established: replay the site's parked reports."""
        self._suspecting.discard(site)
        self._cancel_timers(("linger", site))
        # The silence is explained (crash, not drift): start the site's
        # estimate of the new server's cadence fresh.
        self._server_detector.forget(site)
        for key in sorted(k for k in self._parked if k[0] == site):
            entry = self._parked.pop(key)
            self.counts.reports_replayed += 1
            self._offer(entry)
            if self.config.reliable:
                self._reports.track(entry)

    # -- debounced build rounds ------------------------------------------------------

    def mark_dirty(self) -> None:
        """Coalesce one change into the open debounce window, opening one
        if none is open; a build round follows when it closes.

        Every applied arrival and detected failure calls this.  The
        bootstrap of an empty session calls it directly, so the
        degenerate zero-site round still happens (the synchronous
        runtime always runs its bootstrap round).
        """
        self._coalesced += 1
        if self._pending is None:
            self._trigger_ms = self.sim.now
            self._pending = self.sim.schedule_timer(
                self.config.debounce_ms, self._build_round
            )

    def _build_round(self) -> None:
        """Close the debounce window: build, then push the directive."""
        assert self._trigger_ms is not None
        trigger_ms = self._trigger_ms
        coalesced = self._coalesced
        self._pending = None
        self._trigger_ms = None
        self._coalesced = 0
        rng = self.build_rng.spawn(f"round-{self.server.epoch}")
        directive = self.server.build_overlay(rng)
        result = self.server.last_result
        assert result is not None
        installed = tuple(self.server.registered_sites())
        round_ = ControlRound(
            epoch=directive.epoch,
            trigger_ms=trigger_ms,
            incarnation=self.incarnation,
            built_ms=self.sim.now,
            mode=self.server.last_mode or "rebuild",
            assembly=self.server.last_assembly or "scratch",
            installed=installed,
            directive=directive,
            result=result,
            coalesced=coalesced,
        )
        round_._awaiting_install = set(installed)
        round_._awaiting_ack = set(installed)
        self.rounds.append(round_)
        if self.on_round is not None:
            self.on_round(round_)
        if not installed:
            # Nothing to install: the round converges at build time.
            round_.convergence_ms = self.sim.now - trigger_ms
            self._finish_install(round_)
            return
        for site in installed:
            entry = _Pending(site, round_.epoch, "directive", round_)
            self._push(entry)
            if self.config.reliable:
                self._pushes.track(entry)

    # -- directive installation ------------------------------------------------------

    def _push(self, entry: _Pending) -> None:
        """One copy of a directive onto the wire: first push or retransmit."""
        site = entry.site
        round_: ControlRound = entry.payload
        self._transmit(site, self._deliver, site, round_)

    def _push_exhausted(self, entry: _Pending) -> None:
        # Unreachable for this epoch (partitioned or dead).  A later
        # epoch, or the site's re-admission, brings it back up to date.
        self.counts.retransmit_giveups += 1
        self._abandon_push(entry)

    def _abandon_push(self, entry: _Pending) -> None:
        """Stop waiting on one site so the round can settle without it."""
        round_: ControlRound = entry.payload
        round_._awaiting_ack.discard(entry.site)
        self._check_converged(round_)
        if entry.site in round_._awaiting_install:
            round_._awaiting_install.discard(entry.site)
            if not round_._awaiting_install:
                self._finish_install(round_)

    def _installed_key(self, site: int, incarnation: int) -> tuple[int, int]:
        """The ballot the site's installed table holds, for ordering
        against a directive from ``incarnation``.

        A site never installed through this service has no recorded
        ballot; its bare epoch is compared same-incarnation (the legacy
        numeric order), so crash-free behaviour is untouched.
        """
        recorded = self._installed_rounds.get(site)
        if recorded is None:
            return (incarnation, self.rps[site].epoch)
        return recorded

    def _deliver(self, site: int, round_: ControlRound) -> None:
        """One directive lands at one RP (apply, ack — or discard)."""
        if self._note_server_contact(site, round_.incarnation) == "stale":
            # A dead incarnation's directive still in flight: its round
            # was abandoned at the crash, nobody is waiting on this.
            return
        rp = self.rps[site]
        directive = round_.directive
        ballot = (round_.incarnation, directive.epoch)
        installed = self._installed_key(site, round_.incarnation)
        if site not in round_._awaiting_install:
            # A duplicate copy (link duplication, or a retransmit racing
            # its own ack).  The first arrival did the work; if the
            # server is still retransmitting because the ack was lost,
            # re-ack so it stops.
            self.counts.duplicate_directives += 1
            if (
                self.config.reliable
                and site not in round_.stale_sites
                and installed >= ballot
            ):
                self._send_directive_ack(site, round_)
            return
        if installed >= ballot:
            # Out-of-order delivery: the RP already installed a newer
            # ballot, so this directive is stale and must not roll the
            # site back.  The round stops waiting on this site.
            self.counts.stale_directives += 1
            round_.stale_sites = round_.stale_sites + (site,)
            round_._awaiting_ack.discard(site)
            self._pushes.settle(site, round_.epoch)
            self._check_converged(round_)
        else:
            # Supersession: a higher incarnation replaces whatever the
            # dead one installed, even if it re-used the epoch number —
            # and never as a delta, whose base chain died with it.
            rp.apply_directive(
                directive, supersede=installed[0] != round_.incarnation
            )
            self._installed_rounds[site] = ballot
            self._send_directive_ack(site, round_)
        round_._awaiting_install.discard(site)
        if not round_._awaiting_install:
            self._finish_install(round_)

    def _send_directive_ack(self, site: int, round_: ControlRound) -> None:
        ack = DirectiveAck(
            sent_ms=self.sim.now, epoch=round_.directive.epoch, site=site
        )
        self._transmit(site, self._receive_ack, ack, round_)

    def _receive_ack(self, ack: DirectiveAck, round_: ControlRound) -> None:
        if self._server_down:
            self.counts.messages_lost_to_outage += 1
            return
        if ack.epoch != round_.epoch:
            raise ProtocolError(
                f"ack for epoch {ack.epoch} routed to round {round_.epoch}"
            )
        self._pushes.settle(ack.site, round_.epoch)
        if ack.site not in round_._awaiting_ack:
            return
        round_.acked[ack.site] = self.sim.now
        round_._awaiting_ack.discard(ack.site)
        self._check_converged(round_)

    def _check_converged(self, round_: ControlRound) -> None:
        if round_.convergence_ms is None and not round_._awaiting_ack:
            round_.convergence_ms = self.sim.now - round_.trigger_ms

    def _finish_install(self, round_: ControlRound) -> None:
        """All deliveries for the epoch landed: audit the installed state."""
        if round_._install_finished:
            return
        round_._install_finished = True
        if self.auditor is not None:
            # Audit the epoch against the sites actually holding *this*
            # round's table — matched by ballot, not epoch number: a
            # fast site may already be ahead (audited at its own
            # epoch's completion instead), and after a server restart a
            # partitioned site may hold the dead incarnation's table
            # under the same number.
            ballot = (round_.incarnation, round_.epoch)
            holding = {
                site: self.rps[site]
                for site in round_.installed
                if self._installed_key(site, round_.incarnation) == ballot
            }
            self.auditor.audit_round(
                round_.result,
                round_.directive,
                holding,
                holding.keys(),
                event=f"epoch-{round_.epoch}",
                time_ms=self.sim.now,
            )

    # -- inspection ---------------------------------------------------------------

    @property
    def pending_build(self) -> bool:
        """True while a debounce window is open."""
        return self._pending is not None

    @property
    def live_sites(self) -> set[int]:
        """Sites the service-side transport currently considers alive."""
        return set(self._live)

    @property
    def armed_retransmit_state(self) -> int:
        """Sequenced messages still tracked for retransmission.

        Counts unacked reports plus unsettled directive pushes.  After
        a full drain this must be zero — every entry ends acked,
        cancelled, or given up; the scenario runtime asserts it.
        """
        return len(self._reports) + len(self._pushes)

    @property
    def server_down(self) -> bool:
        """True while the membership server is crashed."""
        return self._server_down

    @property
    def parked_reports(self) -> int:
        """Reports buffered by sites suspecting the server that the
        server has not yet applied.

        Parked entries own no timers (they replay on server contact),
        so they are deliberately *not* armed retransmit state; any left
        after a drain are the unrecovered reports the scenario report
        gates on.  An entry only counts while delivering it would still
        change membership: an ack-starved report whose *acks* (not the
        report) died on the link is already applied server-side and
        moot, as is anything behind the site's withdraw floor or a
        farewell the site's own rejoin has since outrun — the same
        staleness rule ``_receive`` applies on delivery.
        """
        return sum(
            1
            for (site, seq), entry in self._parked.items()
            if self._discard_reason(site, entry.kind, seq) is None
        )

    @property
    def suspecting_sites(self) -> set[int]:
        """Sites currently believing the server is down."""
        return set(self._suspecting)

    def mean_recovery_ms(self) -> float:
        """Mean restart-to-reconverged latency over server recoveries."""
        return _mean(self.recovery_latencies)

    def max_recovery_ms(self) -> float:
        """Worst-case restart-to-reconverged latency over server recoveries."""
        return max(self.recovery_latencies, default=0.0)

    def converged_rounds(self) -> list[ControlRound]:
        """Rounds whose last ack has arrived."""
        return [round_ for round_ in self.rounds if round_.converged]

    def mean_convergence_ms(self) -> float:
        """Mean control-convergence latency over converged rounds."""
        return _mean([r.convergence_ms for r in self.converged_rounds()])

    def max_convergence_ms(self) -> float:
        """Worst-case control-convergence latency over converged rounds."""
        return max(
            (r.convergence_ms for r in self.converged_rounds()), default=0.0
        )

    def mean_detection_ms(self) -> float:
        """Mean silence-to-withdrawal latency over detected real failures."""
        return _mean(self.detection_latencies)

    def max_detection_ms(self) -> float:
        """Worst-case detection latency over detected real failures."""
        return max(self.detection_latencies, default=0.0)

    def overlapping_rounds(self) -> int:
        """Rounds triggered while the previous round was still converging.

        This is the regime the synchronous model cannot express: a new
        dirty window opened (e.g. a site joined) before the previous
        epoch settled (last ack or stale discard) — a
        *mid-build/mid-install* overlap.
        """
        overlaps = 0
        for previous, current in zip(self.rounds, self.rounds[1:]):
            if previous.convergence_ms is None:
                overlaps += 1  # predecessor never settled at all
            elif current.trigger_ms < previous.trigger_ms + previous.convergence_ms:
                overlaps += 1
        return overlaps


# Each count also reads by its bare name (``service.retransmits``), as the
# benchmark reads them.  Properties, not a ``__getattr__`` hook: CPython
# stops specializing attribute reads on a class with that hook, which
# made every ``self.<attr>`` read in the control loop ~30 % slower (3.11).
for _name in ControlCounts.__dataclass_fields__:
    setattr(MembershipService, _name, property(attrgetter(f"counts.{_name}")))
del _name


def _mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 over no samples."""
    return left_sum(values) / len(values) if values else 0.0


def _kind_of(message: ControlEnvelope) -> str:
    """Wire-kind label of a site-to-server envelope (dedup/fault routing)."""
    if isinstance(message, Advertise):
        return "advertise"
    if isinstance(message, Subscribe):
        return "subscribe"
    if isinstance(message, Withdraw):
        return "withdraw"
    return type(message).__name__.lower()
