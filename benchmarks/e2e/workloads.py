"""Input generators and single-pass drivers for the four benchmark workloads.

Everything the program under test sees is generated here from ``--seed``:
scenario specs, the performer/audience demand and its per-round re-draws,
and the data-plane RNG streams.  Each driver runs one *pass* — set-up,
then the measured region — through public entry points only
(``ScenarioRuntime``, ``PubSubSystem``, ``make_dataplane``,
``build_session``, ``load_backbone``) and returns a JSON-ready dict:

``setup_s``
    ``load_backbone`` through the constructed runtime/system (imports
    excluded); for ``dissemination`` it includes building the forest.
    Set-up runs ``SETUP_REPEATS`` times and this is the median; the last
    build is the one measured.
``series_ms``
    Host milliseconds of the measured region, as named series of timed
    intervals that together cover it.  Interval *i* of a series does
    identical work in every pass of one seed, so the caller takes the
    element-wise minimum across passes.
``step_series``
    The series whose intervals are the workload's *steps*, its repeated
    unit: control rounds, 100 ms slices of simulated time, or the
    ``fast_short`` data-plane calls.
``attempted`` / ``failed``
    Operations issued and operations that did not end well.
``exact``
    Everything that must repeat exactly across passes of one seed:
    digests, counts and every simulated-time figure.
``counters``
    Per-layer counts read from public attributes after the run.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

from repro.core.registry import make_builder
from repro.perf.sweep import reports_equal
from repro.pubsub.faults import PartitionWindow, ServerOutageWindow
from repro.pubsub.system import PubSubSystem
from repro.scenarios.runtime import ScenarioRuntime
from repro.scenarios.spec import EventKind, SchedulePhase, ScenarioSpec
from repro.session import session as session_module
from repro.session.capacity import HeterogeneousCapacityModel
from repro.sim import dataplane
from repro.topology import backbone
from repro.util.rng import RngStream

#: Frozen workload sizes.  ``full`` is what BENCHMARK.json measures: every
#: pass is sized to about 4 s of measured region on the 2-vCPU reference
#: box, so three passes fit ``run_seconds``.  ``smoke`` is the tier-1
#: test's size (N <= 16, <= 20 rounds).  Resizing ``full`` moves every
#: baseline, so it is its own change, never part of one that claims a gain.
SIZES = {
    "full": {
        "churn_incremental": {
            # 96 sites of the paper's uniform nodes (20 streams, cap 20+-5)
            # keep an audited round near 17 ms; N=256 costs 70 ms a round.
            "n_sites": 96,
            # Three quarters start active, the mixed-churn shape's ratio.
            "initial": 72,
            # 18 + 6 + 6 membership events: 14 % of the rounds, so p95 of
            # the round time lands among the join/leave/fail rounds.
            "joins": 18,
            "leaves": 6,
            "fails": 6,
            # FOV changes fill the run up to 206 rounds (>= 200 are needed
            # for ten samples beyond p95).
            "fov_changes": 175,
        },
        "rebuild_dense": {
            # 56 heterogeneous sites: a from-scratch co-rj round costs
            # about 20 ms here, and 200 of them fit one pass.
            "n_sites": 56,
            "rounds": 200,
            # Display 0 of every site draws 15 of the 16 performer
            # streams: those 16 trees reach about 50 members, well past
            # the numpy backend's vector_scan_min of 32, so a sixth of a
            # round is spent in the vector parent scan.
            "performer_draw": 15,
            # Display 1 draws 2 of all other streams: about a hundred
            # two-member trees beside the 16 dense ones (more of them
            # would only buy scalar scans the churn workload already has).
            "audience_draw": 2,
            # Each round re-draws 2 random sites (N/28), so consecutive
            # problems differ but share most of their groups.
            "redraws": 2,
        },
        "control_chaos": {
            # 64 sites with 2 streams each keep every problem tiny, so
            # time goes to the service, fault, detector and engine layers.
            "n_sites": 64,
            "initial": 48,
            # 30 simulated seconds: about 300 k events, 4 s of host time.
            "duration_ms": 30_000.0,
            # Churn per simulated second as in the 100 s chaos shape
            # (128 joins / 64 leaves / 42 fails / 512 FOV changes).
            "joins": 38,
            "leaves": 19,
            "fails": 12,
            "fov_changes": 153,
        },
        "dissemination": {
            # The forest is round 0 of rebuild_dense at the same size.
            "n_sites": 56,
            "performer_draw": 15,
            "audience_draw": 2,
            # Repeats per segment give each about a second of host time;
            # fast_short has 200 so that p95 has ten samples beyond it.
            "fast": 48,
            "fast_short": 200,
            "sampled": 8,
            "event": 3,
        },
    },
    "smoke": {
        "churn_incremental": {
            "n_sites": 12, "initial": 9, "joins": 3, "leaves": 1,
            "fails": 1, "fov_changes": 12,
        },
        "rebuild_dense": {
            "n_sites": 16, "rounds": 12, "performer_draw": 14,
            "audience_draw": 4, "redraws": 1,
        },
        "control_chaos": {
            "n_sites": 12, "initial": 9, "duration_ms": 2_000.0,
            "joins": 3, "leaves": 2, "fails": 1, "fov_changes": 10,
        },
        "dissemination": {
            "n_sites": 16, "performer_draw": 14, "audience_draw": 4,
            "fast": 2, "fast_short": 4, "sampled": 2, "event": 1,
        },
    },
}

#: The paper's latency bound (Sec. 5.1), used by every workload.
LATENCY_BOUND_MS = 120.0

#: Set-up takes 15-50 ms, too short to time once: build five times a pass
#: and report the median (the first, cold build is one of the five).
SETUP_REPEATS = 5


def _set_up(build):
    """Build ``SETUP_REPEATS`` times: (the last build, median seconds)."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
    return built, statistics.median(seconds)


# -- churn_incremental --------------------------------------------------------


def churn_spec(seed: int, size: dict) -> ScenarioSpec:
    """The mixed-churn shape on paper-uniform nodes, repaired incrementally."""
    return ScenarioSpec(
        name="bench-churn",
        n_sites=size["n_sites"],
        initial_active=size["initial"],
        # The library's mixed-churn windows, unchanged: 2000 sim ms with
        # joins early, leaves and failures later, FOV changes throughout.
        duration_ms=2000.0,
        seed=seed,
        schedule=(
            SchedulePhase(EventKind.JOIN, 0.0, 1500.0, size["joins"]),
            SchedulePhase(EventKind.LEAVE, 500.0, 1800.0, size["leaves"]),
            SchedulePhase(EventKind.FAIL, 800.0, 1900.0, size["fails"]),
            SchedulePhase(EventKind.FOV_CHANGE, 0.0, 2000.0, size["fov_changes"]),
        ),
        backbone=f"synthetic-{size['n_sites']}",
        rebuild_policy="incremental",
        # Sec. 5.1's uniform distribution: 20 streams a site, O = I = 20 +- 5.
        streams_per_site=20,
        capacity_base=20,
        capacity_jitter=5,
        latency_bound_ms=LATENCY_BOUND_MS,
    )


def churn_incremental(seed: int, size: dict) -> dict:
    """Sync control, audited: registration -> evolve -> repair -> install."""
    spec = churn_spec(seed, size)
    runtime, setup_s = _set_up(lambda: ScenarioRuntime(spec, audit=True))
    started = time.perf_counter()
    report = runtime.run()
    wall_s = time.perf_counter() - started
    rounds_ms = [seconds * 1000.0 for seconds in runtime.round_wall_s]
    return _scenario_result(runtime, report, setup_s, wall_s, "rounds", rounds_ms)


# -- control_chaos ------------------------------------------------------------


def chaos_spec(seed: int, size: dict) -> ScenarioSpec:
    """Async control over a lossy link, with a partition and a server outage."""
    duration = size["duration_ms"]
    return ScenarioSpec(
        name="bench-chaos",
        n_sites=size["n_sites"],
        initial_active=size["initial"],
        duration_ms=duration,
        seed=seed,
        # The mixed-churn windows, stretched to the run's length.
        schedule=(
            SchedulePhase(EventKind.JOIN, 0.0, 0.75 * duration, size["joins"]),
            SchedulePhase(
                EventKind.LEAVE, 0.25 * duration, 0.9 * duration, size["leaves"]
            ),
            SchedulePhase(
                EventKind.FAIL, 0.4 * duration, 0.95 * duration, size["fails"]
            ),
            SchedulePhase(EventKind.FOV_CHANGE, 0.0, duration, size["fov_changes"]),
        ),
        backbone=f"synthetic-{size['n_sites']}",
        rebuild_policy="incremental",
        # Tiny problems: 2 streams a site, one display watching 2 streams.
        streams_per_site=2,
        fov_size=2,
        displays_per_site=1,
        latency_bound_ms=LATENCY_BOUND_MS,
        async_control=True,
        # A WAN-like control link: 15 ms one way, 5 ms jitter, 10 % loss,
        # 2 % duplicates; bursts coalesce over a 10 ms debounce window.
        control_delay_ms=15.0,
        debounce_ms=10.0,
        loss_rate=0.1,
        jitter_ms=5.0,
        duplicate_rate=0.02,
        # Retransmit after two round trips; beat every 20 ms, suspect via
        # phi-accrual at the conventional threshold of 8.
        retransmit_timeout_ms=60.0,
        heartbeat_ms=20.0,
        miss_threshold=3,
        phi_threshold=8.0,
        # Warm restarts: checkpoint twice a simulated second.
        checkpoint_interval_ms=500.0,
        # Site 0 is cut off for a tenth of the run; the server dies once
        # for 200 ms after the partition has healed.
        partitions=(PartitionWindow(0, 0.3 * duration, 0.4 * duration),),
        server_outages=(
            ServerOutageWindow(0.6 * duration, 0.6 * duration + 200.0),
        ),
    )


#: Simulated milliseconds per step of ``control_chaos``: 300 steps in the
#: full run, each holding five heartbeat periods and about one round.
SLICE_MS = 100.0


def control_chaos(seed: int, size: dict) -> dict:
    """Event-driven control plane under loss, partition and a server crash."""
    spec = chaos_spec(seed, size)
    runtime, setup_s = _set_up(lambda: ScenarioRuntime(spec, audit=True))
    # Stamp the host clock every SLICE_MS of simulated time.  The stamps
    # ride the runtime's own simulator as plain events: they draw no
    # randomness and only ever run before same-time events, so the run's
    # behaviour is the same with and without them.
    stamps: list[float] = []
    for index in range(1, int(size["duration_ms"] / SLICE_MS) + 1):
        runtime.sim.schedule_at(
            index * SLICE_MS, lambda: stamps.append(time.perf_counter())
        )
    started = time.perf_counter()
    report = runtime.run()
    wall_s = time.perf_counter() - started
    slices_ms = [
        (later - earlier) * 1000.0
        for earlier, later in zip([started] + stamps, stamps)
    ]
    return _scenario_result(runtime, report, setup_s, wall_s, "slices", slices_ms)


def _scenario_result(
    runtime: ScenarioRuntime,
    report,
    setup_s: float,
    wall_s: float,
    step_series: str,
    steps_ms: list[float],
) -> dict:
    """Checks, digests and counters shared by the two scenario workloads."""
    audit = report.audit
    server = runtime.server
    service = runtime.service
    violating_rounds = len({(v.time_ms, v.event) for v in audit.violations})
    exact = {
        "audit_digest": audit.digest,
        "audit_violations": len(audit.violations),
        "directives_digest": _directives_digest(runtime.directives),
        "soft_state_digest": server.soft_state_digest(),
        "rounds": report.rounds,
        "requests_total": report.requests_total,
        "rejected_total": report.rejected_total,
        "rejection_ratio": report.rejection_ratio,
        "disruption_mean": report.mean_disruption,
        "convergence_sim_ms_mean": report.mean_convergence_ms,
        "detection_sim_ms_mean": report.mean_detection_ms,
        "final_active": report.final_active,
    }
    counters = {
        **_server_counters(server, runtime.directives),
        "sim.engine.events": runtime.sim.processed_events,
        # Every scheduled callback is popped exactly once (a cancelled
        # timer still fires as a no-op), so scheduled = run + queued.
        "sim.engine.schedule.calls": (
            runtime.sim.processed_events + runtime.sim.pending_events
        ),
    }
    if service is None:
        attempted = report.rounds
        failed = violating_rounds
    else:
        # Give-ups are not failures: retries are bounded so that a
        # partition cannot pin a round open, and the soft-state refresh
        # repairs what a give-up lost.  What must not happen is a site or
        # a report that is still missing once the run has drained.
        attempted = report.messages_sent
        failed = (
            report.unrecovered_suspicions
            + report.unrecovered_reports
            + violating_rounds
        )
        exact.update(
            messages_sent=report.messages_sent,
            unrecovered_suspicions=report.unrecovered_suspicions,
            unrecovered_reports=report.unrecovered_reports,
        )
        counters.update(
            {
                "pubsub.service.rounds": len(service.rounds),
                "pubsub.service.converged_rounds": len(service.converged_rounds()),
                "pubsub.service.overlapping_rounds": service.overlapping_rounds(),
                "pubsub.service.stale_directives": service.stale_directives,
                "pubsub.service.retransmits": service.retransmits,
                "pubsub.service.retransmit_giveups": service.retransmit_giveups,
                "pubsub.service.duplicates_discarded": service.duplicates_discarded,
                "pubsub.service.heartbeats_sent": service.heartbeats_sent,
                "pubsub.service.reports_parked": service.reports_parked,
                "pubsub.service.reports_replayed": service.reports_replayed,
                "pubsub.service.refresh_replays": service.refresh_replays,
                "pubsub.service.false_suspicions": service.false_suspicions,
                "pubsub.service.detected_failures": service.detected_failures,
                "pubsub.faults.dropped": service.link.dropped,
                "pubsub.faults.duplicated": service.link.duplicated,
            }
        )
    exact["error_ratio"] = _ratio(failed, attempted)
    return {
        "setup_s": setup_s,
        **_steps_and_rest(step_series, steps_ms, wall_s),
        "attempted": attempted,
        "failed": failed,
        "exact": exact,
        "counters": counters,
    }


# -- rebuild_dense and dissemination -----------------------------------------


class DenseDemand:
    """The performer/audience demand on heterogeneous nodes.

    A few *performer* sites are watched by everyone (display 0 of every
    site draws ``performer_draw`` of their 16 streams), which grows 16
    dense trees; display 1 draws ``audience_draw`` of all other streams,
    which grows hundreds of two-member trees beside them.
    """

    def __init__(self, seed: int, size: dict) -> None:
        n_sites = size["n_sites"]
        self.size = size
        self.session = session_module.build_session(
            backbone.load_backbone(f"synthetic-{n_sites}"),
            # Sec. 5.1's heterogeneous distribution: capacities 30/20/10
            # for 50/25/25 % of the nodes, U{10..30} streams a site.
            HeterogeneousCapacityModel(),
            RngStream(seed, label="bench/dense").spawn("session"),
            session_module.SessionConfig(n_sites=n_sites, displays_per_site=2),
        )
        self.system = PubSubSystem(
            session=self.session,
            # co-rj, so rejected requests go through the victim-swap path.
            builder=make_builder("co-rj"),
            latency_bound_ms=LATENCY_BOUND_MS,
            # The paper's model: re-solve from scratch every round.
            rebuild_policy="always",
        )
        self._draws = random.Random(seed)
        sites = self.session.sites
        # Performers are the two lowest-indexed large-capacity sites and
        # the lowest-indexed medium and small one, so the roots of the
        # dense trees have the same capacity mix under every seed.
        by_capacity: dict[int, list[int]] = {}
        for site in sites:
            by_capacity.setdefault(site.rp.outbound_limit, []).append(site.index)
        large, medium, small = sorted(by_capacity, reverse=True)
        performer_sites = sorted(
            by_capacity[large][:2] + by_capacity[medium][:1] + by_capacity[small][:1]
        )
        # The first 4 cameras of each performer: 16 dense trees.
        self.performer_streams = [
            stream
            for index in performer_sites
            for stream in self.session.site(index).stream_ids[:4]
        ]
        dense = set(self.performer_streams)
        self.other_streams = [
            stream
            for site in sites
            for stream in site.stream_ids
            if stream not in dense
        ]
        for site in sites:
            self.draw(site.index)

    def draw(self, site: int) -> None:
        """(Re-)draw both display subscriptions of ``site``."""
        first, second = self.session.site(site).displays
        for display, pool, count in (
            (first, self.performer_streams, self.size["performer_draw"]),
            (second, self.other_streams, self.size["audience_draw"]),
        ):
            streams = [
                stream
                for stream in self._draws.sample(pool, count)
                if stream.site != site
            ]
            self.system.subscribe_display(site, display.display_id, streams)

    def redraw_some(self) -> None:
        """One round's demand change: a few random sites re-aim."""
        n_sites = self.session.n_sites
        for site in self._draws.sample(range(n_sites), self.size["redraws"]):
            self.draw(site)


def rebuild_dense(seed: int, size: dict) -> dict:
    """The paper-faithful path: scratch assembly + full build every round."""
    demand, setup_s = _set_up(lambda: DenseDemand(seed, size))
    system = demand.system
    build_rng = RngStream(seed, label="bench/dense/build")
    rounds_ms: list[float] = []
    directives = []
    requests = rejected = 0
    started = time.perf_counter()
    for round_index in range(size["rounds"]):
        if round_index:
            demand.redraw_some()
        round_started = time.perf_counter()
        directive = system.run_control_round(build_rng.spawn(f"round-{round_index}"))
        rounds_ms.append((time.perf_counter() - round_started) * 1000.0)
        directives.append(directive)
        result = system.last_result
        requests += result.total_requests
        rejected += len(result.rejected)
    wall_s = time.perf_counter() - started
    server = system.server
    return {
        "setup_s": setup_s,
        **_steps_and_rest("rounds", rounds_ms, wall_s),
        # Unaudited: a round fails only by raising, which ends the pass.
        "attempted": size["rounds"],
        "failed": 0,
        "exact": {
            "directives_digest": _directives_digest(directives),
            "soft_state_digest": server.soft_state_digest(),
            "rounds": size["rounds"],
            "requests_total": requests,
            "rejected_total": rejected,
            "rejection_ratio": _ratio(rejected, requests),
            "error_ratio": 0.0,
        },
        "counters": _server_counters(server, directives),
    }


#: The four timed data-plane segments: name -> (capture ms, make_dataplane
#: keywords).  10 000 ms is 150 frames a stream, above the numpy backend's
#: plane_vector_min of 64; 500 ms is 8 frames, below it, and is how the
#: runtime's per-round sidecar calls the plane.
SEGMENTS = {
    "fast": (10_000.0, {}),
    "fast_short": (500.0, {}),
    # The tracked lossy noise model: 5 ms jitter, 20 % loss.
    "sampled": (
        10_000.0,
        {"plane": "sampled", "jitter_ms": 5.0, "loss_probability": 0.2},
    ),
    # The same noise plus 2 % duplicates on the event plane with NACK
    # repair armed.  The deadline (20 x the bound) ends a repair, not the
    # attempt count: a receiver whose parent is still repairing its own
    # copy must keep asking, or a frame that does arrive counts as lost.
    "event": (
        1_000.0,
        {
            "jitter_ms": 5.0,
            "loss_probability": 0.2,
            "duplicate_probability": 0.02,
            "nack_enabled": True,
            "max_repair_attempts": 1000,
            "repair_deadline_factor": 20.0,
        },
    ),
}


def dissemination(seed: int, size: dict) -> dict:
    """Four data-plane segments over one dense forest."""

    def demand_with_forest() -> DenseDemand:
        demand = DenseDemand(seed, size)
        demand.system.run_control_round(
            RngStream(seed, label="bench/dense/build").spawn("round-0")
        )
        return demand

    demand, setup_s = _set_up(demand_with_forest)
    forest = demand.system.last_result.forest
    session = demand.session

    def plane(label: str, **knobs):
        return dataplane.make_dataplane(
            session,
            forest,
            RngStream(seed, label=f"bench/dissemination/{label}"),
            latency_bound_ms=LATENCY_BOUND_MS,
            **knobs,
        )

    # Output check, untimed: with zero noise the event plane must report
    # exactly what the analytic fast plane reports.
    planes_agree = reports_equal(
        plane("check", plane="event", nack_enabled=True).run(500.0),
        plane("check", plane="fast").run(500.0),
    )
    calls_ms: dict[str, list[float]] = {}
    reports: dict[str, list] = {}
    network_sends = 0
    for name, (capture_ms, knobs) in SEGMENTS.items():
        calls_ms[name] = []
        reports[name] = []
        for index in range(size[name]):
            call_started = time.perf_counter()
            running = plane(f"{name}/{index}", **knobs)
            report = running.run(capture_ms)
            calls_ms[name].append((time.perf_counter() - call_started) * 1000.0)
            reports[name].append(report)
            if running.kind == "event":
                network_sends += running.network.sent
    frames = {
        name: sum(report.frames_delivered for report in reports[name])
        for name in SEGMENTS
    }
    event_reports = reports["event"]
    unrecovered = sum(report.frames_unrecovered for report in event_reports)
    recovered = sum(report.frames_recovered for report in event_reports)
    repairs_sent = sum(report.repairs_sent for report in event_reports)
    attempted = sum(frames.values()) + unrecovered
    exact = {
        "planes_agree": planes_agree,
        "reports_digest": _reports_digest(reports),
        "frames_unrecovered": unrecovered,
        "error_ratio": _ratio(unrecovered, attempted),
    }
    exact.update({f"{name}_frames": count for name, count in frames.items()})
    return {
        "setup_s": setup_s,
        "series_ms": calls_ms,
        "step_series": "fast_short",
        "attempted": attempted,
        "failed": unrecovered + (0 if planes_agree else 1),
        "exact": exact,
        "counters": {
            "sim.network.send.calls": network_sends,
            "sim.dataplane.event.nacks_sent": sum(
                report.nacks_sent for report in event_reports
            ),
            "sim.dataplane.event.repairs_sent": repairs_sent,
            "sim.dataplane.event.frames_recovered": recovered,
            "sim.dataplane.event.frames_unrecovered": unrecovered,
            "sim.dataplane.event.sends_dropped": sum(
                report.sends_dropped for report in event_reports
            ),
            "sim.dataplane.event.duplicates_discarded": sum(
                report.duplicates_discarded for report in event_reports
            ),
            "sim.dataplane.event.repair_efficiency": _ratio(recovered, repairs_sent),
        },
        "segment_frames": frames,
    }


# -- shared helpers -------------------------------------------------------------


WORKLOADS = {
    "churn_incremental": churn_incremental,
    "rebuild_dense": rebuild_dense,
    "control_chaos": control_chaos,
    "dissemination": dissemination,
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _steps_and_rest(step_series: str, steps_ms: list[float], wall_s: float) -> dict:
    """The timed steps plus one interval for the region's remainder."""
    return {
        "series_ms": {
            step_series: steps_ms,
            "rest": [wall_s * 1000.0 - sum(steps_ms)],
        },
        "step_series": step_series,
    }


def _directives_digest(directives) -> str:
    """SHA-256 over every directive the control plane emitted, in order."""
    digest = hashlib.sha256()
    for directive in directives:
        digest.update(
            repr(
                (
                    directive.epoch,
                    directive.base_epoch,
                    directive.edges,
                    directive.rejected,
                    directive.added,
                    directive.removed,
                )
            ).encode()
        )
    return digest.hexdigest()


def _server_counters(server, directives) -> dict:
    """Membership-server counts, directive wire size and delta share."""
    return {
        "pubsub.membership.repairs": server.repairs,
        "pubsub.membership.rebuilds": server.rebuilds,
        "pubsub.membership.verifications": server.verifications,
        "pubsub.membership.register.skipped_ratio": _ratio(
            server.registrations_skipped,
            server.registrations_applied + server.registrations_skipped,
        ),
        "pubsub.messages.directive_payload_edges": sum(
            directive.payload_edges() for directive in directives
        ),
        "pubsub.messages.delta_directive_ratio": _ratio(
            sum(1 for directive in directives if directive.is_delta),
            len(directives),
        ),
    }


def _reports_digest(reports: dict[str, list]) -> str:
    """SHA-256 over the delivery accounting of every data-plane report."""
    digest = hashlib.sha256()
    for name, segment_reports in reports.items():
        for report in segment_reports:
            deliveries = sorted(
                (key, stats.frames, stats.total_latency_ms, stats.max_latency_ms)
                for key, stats in report.deliveries.items()
            )
            digest.update(
                repr(
                    (
                        name,
                        report.frames_captured,
                        report.frames_delivered,
                        sorted(report.bytes_sent_by_site.items()),
                        report.sends_dropped,
                        report.duplicates_discarded,
                        report.nacks_sent,
                        report.repairs_sent,
                        report.frames_recovered,
                        report.frames_unrecovered,
                        deliveries,
                    )
                ).encode()
            )
    return digest.hexdigest()
