"""Scenario execution: timed events driven through a live control plane.

The :class:`ScenarioRuntime` assembles a full session for a spec's site
pool, keeps an *active set* of joined sites, and replays the compiled
event schedule on the deterministic simulator.  Every event mutates the
membership/subscription state the way the paper's centralized model
prescribes (Sec. 3.2: the server re-solves the overlay whenever
membership or subscriptions change) and then runs one control round:
advertise, aggregate, build, install.  With auditing enabled, the
:class:`~repro.sim.invariants.InvariantAuditor` re-derives every
structural invariant after each round, so a whole randomized session
becomes one large property check.

With ``spec.async_control`` the same schedule is replayed through the
event-driven :class:`~repro.pubsub.service.MembershipService` on the
same simulator clock: events *send* control envelopes over delayed
links instead of calling the server, the service debounces them into
epoch-numbered rounds, and directives propagate back asynchronously —
so rounds overlap, sites join mid-build, and the report gains per-round
control-convergence latency.  With zero delay and debounce the async
path is bit-identical to the synchronous one (both draw the same RNG
streams in the same order); the equivalence suite pins that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.registry import make_builder
from repro.errors import SimulationError
from repro.pubsub.faults import FaultConfig
from repro.pubsub.membership import MembershipServer
from repro.pubsub.messages import DisplaySubscription, OverlayDirective
from repro.pubsub.rp import RPAgent
from repro.pubsub.service import ControlRound, MembershipService
from repro.scenarios.spec import EventKind, ScenarioEvent, ScenarioSpec
from repro.session.capacity import HeterogeneousCapacityModel, UniformCapacityModel
from repro.session.session import SessionConfig, TISession, build_session
from repro.sim.dataplane import make_dataplane
from repro.sim.engine import Simulator
from repro.sim.invariants import AuditReport, InvariantAuditor
from repro.topology.backbone import load_backbone
from repro.util.floats import left_sum
from repro.util.rng import RngStream


@dataclass
class ScenarioReport:
    """Aggregate outcome of one scenario run."""

    name: str
    seed: int
    n_sites: int
    duration_ms: float
    rebuild_policy: str = "always"
    rounds: int = 0
    events: dict[str, int] = field(default_factory=dict)
    skipped_events: int = 0
    final_active: int = 0
    requests_total: int = 0
    rejected_total: int = 0
    #: Rounds served by incremental repair vs from-scratch rebuild.
    repairs: int = 0
    rebuilds: int = 0
    #: Rounds whose problem was evolved from the previous round's
    #: (diffed assembly) vs re-derived from the session (scratch).
    assemblies_diffed: int = 0
    assemblies_scratch: int = 0
    #: Sum of per-round disruption (parent moves among surviving
    #: requests, :func:`~repro.core.incremental.churn_rate`) over the
    #: ``disruption_rounds`` rounds that had a previous forest.
    disruption_total: float = 0.0
    disruption_rounds: int = 0
    audit: AuditReport | None = None
    #: Data-plane sidecar totals (all zero unless the runtime was
    #: created with ``dataplane=True``).
    dataplane_frames_delivered: int = 0
    dataplane_total_latency_ms: float = 0.0
    dataplane_max_latency_ms: float = 0.0
    dataplane_bound_violations: int = 0
    #: Event-driven control-plane results (meaningful only when the
    #: spec ran with ``async_control``).
    async_control: bool = False
    control_delay_ms: float = 0.0
    debounce_ms: float = 0.0
    convergence_total_ms: float = 0.0
    convergence_rounds: int = 0
    max_convergence_ms: float = 0.0
    #: Directives discarded because the RP had already installed a
    #: newer epoch (out-of-order delivery under delay skew).
    stale_directives: int = 0
    #: Rounds whose dirty window opened while the previous round was
    #: still propagating/acking — the overlap the sync model forbids.
    overlapping_rounds: int = 0
    #: Chaos / robustness results (all zero unless the spec impaired the
    #: control link or armed heartbeats/retransmission).
    chaos: bool = False
    messages_sent: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    retransmits: int = 0
    retransmit_giveups: int = 0
    duplicates_discarded: int = 0
    stale_reports_discarded: int = 0
    duplicate_withdraws: int = 0
    heartbeats_sent: int = 0
    #: Server-side silence detections that turned into withdrawals.
    detected_failures: int = 0
    #: Detections whose site was actually still alive (partition or
    #: heavy loss mimicking death).  These self-heal via re-admission.
    false_suspicions: int = 0
    #: Zombie sites re-admitted as fresh joins after a false suspicion.
    readmissions: int = 0
    #: Mean/max silence-to-withdrawal latency over real failures.
    mean_detection_ms: float = 0.0
    max_detection_ms: float = 0.0
    #: Sites still active at the end of the run that the server no
    #: longer knows — suspicions that never healed.  The chaos CI gate
    #: requires this to be zero.
    unrecovered_suspicions: int = 0
    #: Server-recovery results (all zero unless the spec scheduled
    #: server outages).
    server_recovery: bool = False
    server_crashes: int = 0
    server_recoveries: int = 0
    #: Mean/max restart-to-reconverged latency over server recoveries.
    mean_recovery_ms: float = 0.0
    max_recovery_ms: float = 0.0
    #: Full advertise+subscribe replays provoked by a new incarnation.
    refresh_replays: int = 0
    #: Server-originated messages discarded as sent by a dead incarnation.
    stale_incarnation_discards: int = 0
    #: Site-side server-death suspicions (ack starvation or detector).
    server_suspicions: int = 0
    reports_parked: int = 0
    reports_replayed: int = 0
    messages_lost_to_outage: int = 0
    checkpoints_taken: int = 0
    checkpoint_restores: int = 0
    #: Reports still parked at the end of the drain — membership changes
    #: an outage permanently swallowed.  The server-crash CI gate
    #: requires this to be zero.
    unrecovered_reports: int = 0
    #: Data-plane chaos results (all zero unless the spec's ``data_*``
    #: knobs perturbed the dissemination measurement).
    data_chaos: bool = False
    dataplane_sends_dropped: int = 0
    dataplane_duplicates_discarded: int = 0
    dataplane_nacks_sent: int = 0
    dataplane_repairs_sent: int = 0
    dataplane_frames_recovered: int = 0
    #: Missing (receiver, frame) instances the NACK/repair layer gave up
    #: on.  The data-chaos CI gate requires this to be zero.
    dataplane_frames_unrecovered: int = 0

    @property
    def rejection_ratio(self) -> float:
        """Rejected fraction over all control rounds."""
        if self.requests_total == 0:
            return 0.0
        return self.rejected_total / self.requests_total

    @property
    def dataplane_mean_latency_ms(self) -> float:
        """Mean delivery latency across every measured round."""
        if self.dataplane_frames_delivered == 0:
            return 0.0
        return self.dataplane_total_latency_ms / self.dataplane_frames_delivered

    @property
    def mean_disruption(self) -> float:
        """Mean per-round disruption over rounds with a previous forest."""
        if self.disruption_rounds == 0:
            return 0.0
        return self.disruption_total / self.disruption_rounds

    @property
    def mean_convergence_ms(self) -> float:
        """Mean control-convergence latency (last ack minus trigger)."""
        if self.convergence_rounds == 0:
            return 0.0
        return self.convergence_total_ms / self.convergence_rounds

    @property
    def ok(self) -> bool:
        """True when auditing was off or found nothing."""
        return self.audit is None or self.audit.ok

    def summary(self) -> str:
        """Multi-line report for CLI output."""
        mix = ", ".join(f"{kind}={count}" for kind, count in sorted(self.events.items()))
        lines = [
            f"scenario {self.name} (seed {self.seed}): {self.rounds} control "
            f"rounds over {self.duration_ms:.0f}ms",
            f"events: {mix or 'none'}"
            + (f" ({self.skipped_events} skipped)" if self.skipped_events else ""),
            f"final active sites: {self.final_active}/{self.n_sites}",
            f"requests: {self.requests_total} total, {self.rejected_total} "
            f"rejected ({self.rejection_ratio:.1%})",
            f"overlay maintenance [{self.rebuild_policy}]: {self.repairs} "
            f"repairs, {self.rebuilds} rebuilds, mean disruption "
            f"{self.mean_disruption:.3f}",
            f"problem assembly: {self.assemblies_diffed} diffed, "
            f"{self.assemblies_scratch} scratch",
        ]
        if self.async_control:
            lines.append(
                f"async control [delay {self.control_delay_ms:.0f}ms, "
                f"debounce {self.debounce_ms:.0f}ms]: convergence mean "
                f"{self.mean_convergence_ms:.1f}ms / max "
                f"{self.max_convergence_ms:.1f}ms, "
                f"{self.overlapping_rounds} overlapping rounds, "
                f"{self.stale_directives} stale directives discarded"
            )
        if self.chaos:
            lines.append(
                f"chaos: {self.messages_sent} sent, "
                f"{self.messages_dropped} dropped, "
                f"{self.messages_duplicated} duplicated, "
                f"{self.retransmits} retransmits "
                f"({self.retransmit_giveups} give-ups), "
                f"{self.duplicates_discarded} duplicate / "
                f"{self.stale_reports_discarded} stale reports discarded"
            )
            lines.append(
                f"detection: {self.detected_failures} failures detected "
                f"(mean {self.mean_detection_ms:.1f}ms / max "
                f"{self.max_detection_ms:.1f}ms), "
                f"{self.false_suspicions} false suspicions, "
                f"{self.readmissions} re-admissions, "
                f"{self.unrecovered_suspicions} unrecovered"
            )
        if self.server_recovery:
            lines.append(
                f"server recovery: {self.server_crashes} crashes / "
                f"{self.server_recoveries} recoveries (mean "
                f"{self.mean_recovery_ms:.1f}ms / max "
                f"{self.max_recovery_ms:.1f}ms to reconverge), "
                f"{self.refresh_replays} soft-state refreshes, "
                f"{self.stale_incarnation_discards} stale-incarnation "
                f"discards, {self.reports_parked} reports parked / "
                f"{self.reports_replayed} replayed "
                f"({self.unrecovered_reports} unrecovered), "
                f"{self.checkpoint_restores} warm restores"
            )
        if self.dataplane_frames_delivered:
            lines.append(
                f"data plane: {self.dataplane_frames_delivered} deliveries, "
                f"mean {self.dataplane_mean_latency_ms:.1f}ms, "
                f"max {self.dataplane_max_latency_ms:.1f}ms, "
                f"{self.dataplane_bound_violations} bound violations"
            )
        if self.data_chaos:
            lines.append(
                f"data chaos: {self.dataplane_sends_dropped} sends dropped, "
                f"{self.dataplane_duplicates_discarded} duplicates discarded, "
                f"{self.dataplane_nacks_sent} NACKs, "
                f"{self.dataplane_repairs_sent} repairs, "
                f"{self.dataplane_frames_recovered} frames recovered, "
                f"{self.dataplane_frames_unrecovered} unrecovered"
            )
        if self.audit is not None:
            lines.append(self.audit.summary())
        return "\n".join(lines)


#: Service counters a chaotic run copies into the same-named report fields.
_CHAOS_COUNTERS = (
    "retransmits", "retransmit_giveups", "duplicates_discarded",
    "stale_reports_discarded", "duplicate_withdraws", "heartbeats_sent",
    "detected_failures", "false_suspicions", "readmissions",
)
#: The same, for a run whose server recovery was armed or exercised.
_RECOVERY_COUNTERS = (
    "server_crashes", "server_recoveries", "refresh_replays",
    "stale_incarnation_discards", "server_suspicions", "reports_parked",
    "reports_replayed", "messages_lost_to_outage", "checkpoints_taken",
    "checkpoint_restores",
)


class ScenarioRuntime:
    """Executes one :class:`ScenarioSpec` against a live control plane.

    Parameters
    ----------
    spec:
        The scenario to run.
    audit:
        Attach an :class:`InvariantAuditor` and audit every round.
    strict:
        Raise on the first violation instead of accumulating (implies
        ``audit``).
    dataplane:
        Run the data plane over every installed forest and accumulate
        delivery totals in the report.  The measurement is a sidecar:
        it never advances the scenario clock.  With the spec's
        ``data_*`` knobs all zero it uses the analytic
        :class:`~repro.sim.dataplane.FastDataPlane`, so thousands of
        audited rounds stay cheap; any nonzero data-fault knob
        auto-enables the sidecar (even when this flag is False) and
        routes it to the event-driven plane with the spec's NACK/repair
        configuration.
    dataplane_duration_ms:
        Simulated capture span measured per control round.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        audit: bool = True,
        strict: bool = False,
        dataplane: bool = False,
        dataplane_duration_ms: float = 500.0,
    ) -> None:
        self.spec = spec
        self.dataplane = dataplane or spec.data_chaotic
        self.dataplane_duration_ms = dataplane_duration_ms
        self.rng = RngStream(spec.seed, label=f"scenario/{spec.name}")
        self.session = self._build_session(spec)
        self.sim = Simulator()
        self.auditor = (
            InvariantAuditor(strict=strict) if (audit or strict) else None
        )
        self.rps = {site.index: RPAgent(site) for site in self.session.sites}
        self.server = MembershipServer(
            session=self.session,
            builder=make_builder(spec.algorithm),
            latency_bound_ms=spec.latency_bound_ms,
            rebuild_policy=spec.rebuild_policy,
        )
        self.active: set[int] = set()
        #: Flat, site-ordered list of every active site's published
        #: streams, rebuilt lazily when membership changes (the FOV
        #: machinery used to re-enumerate it per display per event).
        self._active_streams: list | None = None
        self.report = ScenarioReport(
            name=spec.name,
            seed=spec.seed,
            n_sites=spec.n_sites,
            duration_ms=spec.duration_ms,
            rebuild_policy=spec.rebuild_policy,
        )
        self._build_rng = self.rng.spawn("build")
        self._workload_rng = self.rng.spawn("workload")
        self._target_rng = self.rng.spawn("targets")
        #: Every directive the control plane emitted, in epoch order
        #: (the equivalence suite compares these across control styles).
        self.directives: list[OverlayDirective] = []
        #: Wall-clock seconds of each synchronous control round
        #: (advertise through install, audit excluded): the step the
        #: benchmark's ``churn_incremental`` workload times.
        self.round_wall_s: list[float] = []
        self.service: MembershipService | None = None
        if spec.async_control:
            self.service = MembershipService(
                sim=self.sim,
                server=self.server,
                rps=self.rps,
                build_rng=self._build_rng,
                control_delay_ms=spec.control_delay_ms,
                debounce_ms=spec.debounce_ms,
                auditor=self.auditor,
                faults=FaultConfig(
                    loss_rate=spec.loss_rate,
                    jitter_ms=spec.jitter_ms,
                    duplicate_rate=spec.duplicate_rate,
                    partitions=spec.partitions,
                    outages=spec.server_outages,
                ),
                chaos_rng=self.rng.spawn("chaos"),
                heartbeat_ms=spec.heartbeat_ms,
                miss_threshold=spec.miss_threshold,
                retransmit_timeout_ms=spec.retransmit_timeout_ms,
                phi_threshold=spec.phi_threshold,
                checkpoint_interval_ms=spec.checkpoint_interval_ms,
            )
            self.service.on_round = self._record_async_round

    @staticmethod
    def _build_session(spec: ScenarioSpec) -> TISession:
        if spec.nodes == "heterogeneous":
            capacity_model = HeterogeneousCapacityModel()
        else:
            capacity_model = UniformCapacityModel(
                base=20 if spec.capacity_base is None else spec.capacity_base,
                jitter=spec.capacity_jitter,
                streams_per_site=(
                    20 if spec.streams_per_site is None else spec.streams_per_site
                ),
            )
        return build_session(
            load_backbone(spec.backbone),
            capacity_model,
            RngStream(spec.seed, label="scenario-session").spawn("session"),
            SessionConfig(
                n_sites=spec.n_sites,
                displays_per_site=spec.displays_per_site,
            ),
        )

    # -- public API ---------------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Replay the compiled schedule; returns the final report."""
        self.active.update(range(self.spec.initial_active))
        for site in sorted(self.active):
            self._subscribe_displays(site)
        if self.service is None:
            self._control_round("bootstrap")
        else:
            # Bootstrap asynchronously: the initial sites' reports travel
            # the control links like any other traffic.  An empty session
            # still gets its (empty) bootstrap round, as the sync path does.
            for site in sorted(self.active):
                self._announce(site)
            if not self.active:
                self.service.mark_dirty()
        for event in self.spec.compile(self.rng.spawn("schedule")):
            self.sim.schedule_at(
                event.time_ms, lambda event=event: self._execute(event)
            )
        self.sim.run(until_ms=self.spec.duration_ms)
        if self.service is not None:
            # Silence the self-rearming timers (heartbeats, failure
            # detector) at the horizon, then drain in-flight control
            # traffic (builds, directives, acks, bounded retransmits
            # scheduled before the horizon but landing after it) so
            # every triggered round installs and reports its
            # convergence.
            self.service.quiesce()
            self.sim.run()
            # Retransmit-timer hygiene: after a full drain every
            # sequenced message was acked, cancelled, or given up — a
            # leftover entry is a ghost timer bug, not load.
            leftover = self.service.armed_retransmit_state
            if leftover:
                raise SimulationError(
                    f"{leftover} retransmit entr{'y' if leftover == 1 else 'ies'} "
                    "still armed after the scenario drained"
                )
        self.report.final_active = len(self.active)
        self.report.repairs = self.server.repairs
        self.report.rebuilds = self.server.rebuilds
        self.report.assemblies_diffed = self.server.assemblies_diffed
        self.report.assemblies_scratch = self.server.assemblies_scratch
        if self.service is not None:
            self._finalize_async_report()
        if self.auditor is not None:
            self.report.audit = self.auditor.report()
        return self.report

    def crash_server(self) -> None:
        """Kill the membership server now (async control planes only)."""
        if self.service is None:
            raise SimulationError(
                "crash_server requires async_control (the synchronous "
                "path has no live server process to kill)"
            )
        self.service.crash_server()

    def recover_server(self) -> None:
        """Restart a crashed membership server now."""
        if self.service is None:
            raise SimulationError(
                "recover_server requires async_control"
            )
        self.service.recover_server()

    # -- event execution ----------------------------------------------------------

    def _execute(self, event: ScenarioEvent) -> None:
        """Apply one scheduled event, then re-solve (or dirty) the overlay."""
        kind = event.kind
        if kind is EventKind.JOIN:
            candidates = sorted(set(range(self.spec.n_sites)) - self.active)
        else:
            candidates = sorted(self.active)
        if not candidates:
            self.report.skipped_events += 1
            return
        site = self._target_rng.choice(candidates)
        if kind is EventKind.JOIN:
            self._activate(site)
        elif kind is EventKind.LEAVE:
            self._deactivate(site, graceful=True)
        elif kind is EventKind.FAIL:
            self._deactivate(site, graceful=False)
        elif kind is EventKind.FOV_CHANGE:
            self._subscribe_displays(site)
            if self.service is not None:
                self.service.subscribe(self.rps[site].aggregate_subscription())
        self.report.events[kind.value] = self.report.events.get(kind.value, 0) + 1
        if self.service is None:
            self._control_round(f"{kind.value}:{site}")

    def _activate(self, site: int) -> None:
        self.active.add(site)
        self._active_streams = None
        self._subscribe_displays(site)
        if self.service is not None:
            self._announce(site)

    def _deactivate(self, site: int, graceful: bool) -> None:
        """Remove a site; a graceful leave also clears its local RP state.

        An abrupt failure leaves the RP's display subscriptions and stale
        forwarding table in place — only the server forgets the site.
        Under async control a graceful leave travels the control link as
        a withdrawal, while an abrupt failure goes through
        :meth:`~repro.pubsub.service.MembershipService.fail_site`: with
        heartbeats armed the site simply falls silent and the server
        must *detect* the death; without them it degrades to the same
        declared withdrawal.
        """
        self.active.discard(site)
        self._active_streams = None
        if self.service is not None:
            if graceful:
                self.service.withdraw(site)
            else:
                self.service.fail_site(site)
        else:
            self.server.withdraw_site(site)
        if graceful:
            rp = self.rps[site]
            for display in rp.site.displays:
                rp.clear_display_subscription(display.display_id)

    def _announce(self, site: int) -> None:
        """Push a site's advertisement + aggregated subscription (async)."""
        assert self.service is not None
        rp = self.rps[site]
        self.service.advertise(rp.advertisement())
        self.service.subscribe(rp.aggregate_subscription())

    def _subscribe_displays(self, site: int) -> None:
        """(Re-)draw every display subscription of ``site``.

        Each display samples ``fov_size`` distinct streams uniformly from
        the streams published by *other active* sites — the explicit
        stream-subset subscription form of Sec. 3.2.  The active-stream
        pool is cached across calls (invalidated on membership change)
        in the same site-sorted order the per-site enumeration produced,
        so the seeded sampling below stays bit-identical.
        """
        rp = self.rps[site]
        pool = self._active_streams
        if pool is None:
            pool = [
                stream_id
                for other in sorted(self.active)
                for stream_id in self.session.site(other).stream_ids
            ]
            self._active_streams = pool
        remote = [stream_id for stream_id in pool if stream_id.site != site]
        for display in rp.site.displays:
            if not remote:
                rp.clear_display_subscription(display.display_id)
                continue
            k = min(self.spec.fov_size, len(remote))
            streams = tuple(sorted(self._workload_rng.sample(remote, k)))
            rp.submit_display_subscription(
                DisplaySubscription(
                    display_id=display.display_id, site=site, streams=streams
                )
            )

    def _control_round(self, label: str) -> None:
        """Advertise, aggregate, build, install — then audit (sync path)."""
        round_start = time.perf_counter()
        for site in sorted(self.active):
            rp = self.rps[site]
            self.server.register_advertisement(rp.advertisement())
            self.server.register_subscription(rp.aggregate_subscription())
        directive = self.server.build_overlay(
            self._build_rng.spawn(f"round-{self.server.epoch}")
        )
        for site in sorted(self.active):
            self.rps[site].apply_directive(directive)
        self.round_wall_s.append(time.perf_counter() - round_start)
        result = self.server.last_result
        assert result is not None
        self.directives.append(directive)
        self._record_round(result)
        if self.auditor is not None:
            self.auditor.audit_round(
                result,
                directive,
                self.rps,
                self.active,
                event=label,
                time_ms=self.sim.now,
            )

    def _record_async_round(self, round_: ControlRound) -> None:
        """Service hook: one asynchronous round was just built."""
        self.directives.append(round_.directive)
        self._record_round(round_.result)

    def _record_round(self, result) -> None:
        """Per-round report accounting shared by both control styles."""
        self.report.rounds += 1
        self.report.requests_total += result.total_requests
        self.report.rejected_total += len(result.rejected)
        disruption = self.server.last_disruption
        if disruption is not None:
            self.report.disruption_total += disruption
            self.report.disruption_rounds += 1
        if self.dataplane:
            self._measure_dataplane(result)

    def _finalize_async_report(self) -> None:
        """Copy the service's convergence/staleness totals into the report."""
        service = self.service
        assert service is not None
        self.report.async_control = True
        self.report.control_delay_ms = service.control_delay_ms
        self.report.debounce_ms = service.debounce_ms
        converged = service.converged_rounds()
        self.report.convergence_rounds = len(converged)
        self.report.convergence_total_ms = left_sum(
            round_.convergence_ms for round_ in converged
        )
        self.report.max_convergence_ms = service.max_convergence_ms()
        self.report.stale_directives = service.stale_directives
        self.report.overlapping_rounds = service.overlapping_rounds()
        self.report.chaos = bool(
            service.faults.impaired
            or service.reliable
            or service.heartbeat_ms > 0
        )
        if self.report.chaos:
            link = service.link
            self.report.messages_sent = link.sent
            self.report.messages_dropped = link.dropped
            self.report.messages_duplicated = link.duplicated
            for counter in _CHAOS_COUNTERS:
                setattr(self.report, counter, getattr(service, counter))
            self.report.mean_detection_ms = service.mean_detection_ms()
            self.report.max_detection_ms = service.max_detection_ms()
            registered = set(self.server.registered_sites())
            self.report.unrecovered_suspicions = sum(
                1 for site in self.active if site not in registered
            )
        self.report.server_recovery = bool(
            service.server_failover or service.server_crashes
        )
        if self.report.server_recovery:
            for counter in _RECOVERY_COUNTERS:
                setattr(self.report, counter, getattr(service, counter))
            self.report.mean_recovery_ms = service.mean_recovery_ms()
            self.report.max_recovery_ms = service.max_recovery_ms()
            self.report.unrecovered_reports = service.parked_reports

    def _measure_dataplane(self, result) -> None:
        """Disseminate one capture span over the just-installed forest."""
        spec = self.spec
        report = make_dataplane(
            self.session,
            result.forest,
            self.rng.spawn(f"dataplane-{self.server.epoch}"),
            jitter_ms=spec.data_jitter_ms,
            loss_probability=spec.data_loss_rate,
            duplicate_probability=spec.data_duplicate_rate,
            latency_bound_ms=spec.latency_bound_ms,
            nack_enabled=spec.data_nack,
            max_repair_attempts=spec.data_max_repair_attempts,
            repair_deadline_factor=spec.data_repair_deadline_factor,
        ).run(self.dataplane_duration_ms)
        self.report.dataplane_frames_delivered += report.frames_delivered
        self.report.dataplane_total_latency_ms += left_sum(
            stats.total_latency_ms for stats in report.deliveries.values()
        )
        self.report.dataplane_max_latency_ms = max(
            self.report.dataplane_max_latency_ms, report.max_latency_ms
        )
        self.report.dataplane_bound_violations += report.bound_violations()
        if spec.data_chaotic:
            self.report.data_chaos = True
            self.report.dataplane_sends_dropped += report.sends_dropped
            self.report.dataplane_duplicates_discarded += (
                report.duplicates_discarded
            )
            self.report.dataplane_nacks_sent += report.nacks_sent
            self.report.dataplane_repairs_sent += report.repairs_sent
            self.report.dataplane_frames_recovered += report.frames_recovered
            self.report.dataplane_frames_unrecovered += (
                report.frames_unrecovered
            )


def run_scenario(
    spec: ScenarioSpec,
    audit: bool = True,
    strict: bool = False,
    dataplane: bool = False,
) -> ScenarioReport:
    """Convenience wrapper: build a runtime, run it, return the report."""
    return ScenarioRuntime(
        spec, audit=audit, strict=strict, dataplane=dataplane
    ).run()
