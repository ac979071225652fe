"""The perf sweep: build/dissemination/scenario timings across N.

This is the repo's tracked performance baseline.  ``tele3d perf sweep``
times the three hot paths the fast-path overhaul targets —

* **build** — overlay forest construction (``rj``) over one workload;
* **dissemination** — the data plane, event-driven vs analytic fast
  plane, on the *same* forest (the two reports are also cross-checked
  for equality, so every sweep doubles as an equivalence test);
* **scenario round** — one audited-off control round of a churn
  scenario at the same site count, once per rebuild policy: ``always``
  pays the paper's from-scratch assembly + solve every round, while
  ``incremental`` repairs the forest over a problem evolved by diffed
  assembly (:meth:`ForestProblem.evolve`) and must beat ``always`` on
  wall-clock at N >= 64;

across N in {16..256} on deterministic ``synthetic-<n>`` backbones, and
serializes the result as ``BENCH_<label>.json`` so successive PRs can
diff their baselines (``tele3d perf compare OLD NEW``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.core.backend import resolve_backend
from repro.core.problem import ForestProblem
from repro.core.registry import make_builder
from repro.errors import ConfigurationError, SimulationError
from repro.perf.timing import Timing, time_call
from repro.scenarios.spec import EventKind, SchedulePhase, ScenarioSpec
from repro.session.capacity import UniformCapacityModel
from repro.session.session import SessionConfig, TISession, build_session
from repro.sim.dataplane import (
    DataPlaneReport,
    FastDataPlane,
    ForestDataPlane,
    SampledDataPlane,
)
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.util.tables import Table
from repro.workload.coverage import CoverageWorkloadModel

#: The tracked sweep sizes (acceptance: 16..256).
DEFAULT_SIZES = (16, 32, 64, 128, 256)

#: Extended sizes for the large-N baselines.
EXTENDED_SIZES = DEFAULT_SIZES + (1024, 4096)

#: The event-driven plane replays every hop of every frame as a heap
#: event — beyond this size one repeat takes minutes, so larger sweep
#: cases time the fast plane only (equivalence is still pinned at every
#: size up to the cap).
EVENT_PLANE_MAX_SITES = 256

#: Scenario rounds re-solve the overlay per churn event; beyond this
#: size a single case dominates the whole sweep, so larger cases track
#: build + fast plane only.
SCENARIO_MAX_SITES = 1024

#: Sweep workload shape: modest per-site fan-out so the event-driven
#: plane stays runnable at N=256 while trees stay deep enough to matter.
DEFAULT_STREAMS_PER_SITE = 4
DEFAULT_MEAN_SUBSCRIBERS = 6.0
DEFAULT_DURATION_MS = 1000.0
DEFAULT_LATENCY_BOUND_MS = 120.0

#: Fault knobs of the lossy control-convergence series: same scenario,
#: same seed, but every control message rides a 20%-lossy jittered link
#: with retransmission armed.  Still simulated milliseconds, still
#: deterministic per (seed, N) — the series tracks how much convergence
#: latency the retransmit machinery pays under loss.
LOSSY_LOSS_RATE = 0.2
LOSSY_JITTER_MS = 5.0
LOSSY_RETRANSMIT_TIMEOUT_MS = 60.0

#: Failure-detection latency series: the rolling-failure chaos scenario
#: timed under both detectors (static deadline vs φ-accrual at the
#: conventional threshold) on both link profiles (quiet, and the
#: scenario's native 20% loss).  Detection latency is *simulated*
#: milliseconds — deterministic per (seed, N) — so the series gates the
#: PR 10 acceptance pins as ratchet behavior checks: φ must stay at or
#: under static on quiet links, and its lossy-link latency (the price
#: of zero false suspicions there) must not silently grow.
PHI_THRESHOLD = 8.0
#: Rolling failures at every site count get expensive; past this size
#: the series adds nothing the small cases don't already gate.
DETECTION_MAX_SITES = 64

#: Control-link delay / debounce of the tracked async-control series.
#: The recorded convergence is *simulated* milliseconds — deterministic
#: per (scenario, seed, N), so regressions in it are real behavior
#: changes, not machine noise.
CONTROL_DELAY_MS = 20.0
DEBOUNCE_MS = 10.0


@dataclass(frozen=True)
class PerfCase:
    """Timings for one sweep size."""

    n_sites: int
    requests: int
    satisfied: int
    build: Timing
    fast_plane: Timing
    event_plane: Timing | None
    scenario_round: Timing | None
    frames_delivered: int
    reports_identical: bool | None
    #: Mean control-round latency of the same churn scenario under
    #: ``rebuild_policy="incremental"`` (None when scenarios are skipped).
    scenario_round_incremental: Timing | None = None
    #: Simulated control-convergence latency (last ack minus trigger) of
    #: the same scenario through the event-driven service at
    #: ``CONTROL_DELAY_MS``/``DEBOUNCE_MS``: ``best_ms``/``mean_ms`` are
    #: the per-round mean, ``repeats`` the converged round count.
    #: Simulated time, so deterministic per (seed, N) — a gateable
    #: behavior series, not machine noise.
    control_convergence: Timing | None = None
    #: The same convergence series over a lossy, jittered control link
    #: with retransmission armed (:data:`LOSSY_LOSS_RATE` /
    #: :data:`LOSSY_JITTER_MS` / :data:`LOSSY_RETRANSMIT_TIMEOUT_MS`).
    #: Also simulated (deterministic) milliseconds.
    control_convergence_lossy: Timing | None = None
    #: Wall-clock time of the sampled-percentile noisy plane over the
    #: same forest at :data:`LOSSY_LOSS_RATE` / :data:`LOSSY_JITTER_MS`
    #: — the fast path for noisy sweeps the event plane prices per hop
    #: per frame.
    sampled_plane: Timing | None = None
    #: Per-round latency of the same scenario under
    #: ``rebuild_policy="hybrid"``: with the estimator-gated scratch-free
    #: hybrid, rounds between re-solves cost ~the incremental series and
    #: only estimator-triggered verification rounds pay the scratch
    #: solve.
    scenario_round_hybrid: Timing | None = None
    #: Simulated mean failure-detection latency of the rolling-failure
    #: scenario (``best_ms``; ``repeats`` is the detection count), one
    #: series per detector x link profile: static deadline vs φ-accrual
    #: (:data:`PHI_THRESHOLD`), quiet link vs the scenario's native 20%
    #: loss.  Simulated time — deterministic per (seed, N) — so these
    #: gate detector behavior, not machine speed.
    detection_static: Timing | None = None
    detection_static_lossy: Timing | None = None
    detection_phi: Timing | None = None
    detection_phi_lossy: Timing | None = None

    @property
    def speedup(self) -> float | None:
        """Event-driven / fast wall-clock ratio (best-of)."""
        if self.event_plane is None or self.fast_plane.best_s <= 0:
            return None
        return self.event_plane.best_s / self.fast_plane.best_s

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "n_sites": self.n_sites,
            "requests": self.requests,
            "satisfied": self.satisfied,
            "build": self.build.to_dict(),
            "fast_plane": self.fast_plane.to_dict(),
            "event_plane": (
                self.event_plane.to_dict() if self.event_plane else None
            ),
            "scenario_round": (
                self.scenario_round.to_dict() if self.scenario_round else None
            ),
            "scenario_round_incremental": (
                self.scenario_round_incremental.to_dict()
                if self.scenario_round_incremental
                else None
            ),
            "control_convergence": (
                self.control_convergence.to_dict()
                if self.control_convergence
                else None
            ),
            "control_convergence_lossy": (
                self.control_convergence_lossy.to_dict()
                if self.control_convergence_lossy
                else None
            ),
            "sampled_plane": (
                self.sampled_plane.to_dict() if self.sampled_plane else None
            ),
            "scenario_round_hybrid": (
                self.scenario_round_hybrid.to_dict()
                if self.scenario_round_hybrid
                else None
            ),
            "detection_static": (
                self.detection_static.to_dict()
                if self.detection_static
                else None
            ),
            "detection_static_lossy": (
                self.detection_static_lossy.to_dict()
                if self.detection_static_lossy
                else None
            ),
            "detection_phi": (
                self.detection_phi.to_dict() if self.detection_phi else None
            ),
            "detection_phi_lossy": (
                self.detection_phi_lossy.to_dict()
                if self.detection_phi_lossy
                else None
            ),
            "frames_delivered": self.frames_delivered,
            "reports_identical": self.reports_identical,
            "speedup": self.speedup,
        }


@dataclass
class PerfReport:
    """One full sweep: config + per-size cases."""

    label: str
    config: dict
    cases: list[PerfCase] = field(default_factory=list)

    def to_json(self, indent: int = 2) -> str:
        """Serialize for ``BENCH_<label>.json``."""
        return json.dumps(
            {
                "version": 1,
                "label": self.label,
                "config": self.config,
                "cases": [case.to_dict() for case in self.cases],
            },
            indent=indent,
        )

    def case_for(self, n_sites: int) -> PerfCase | None:
        """The case at one sweep size, if present."""
        for case in self.cases:
            if case.n_sites == n_sites:
                return case
        return None

    def summary(self) -> str:
        """Aligned table for CLI output."""
        table = Table(
            [
                "N",
                "requests",
                "build ms",
                "fast ms",
                "event ms",
                "speedup",
                "scenario-round ms",
                "round(incr) ms",
                "round(hyb) ms",
                "conv ms(sim)",
                "conv-lossy ms(sim)",
                "sampled ms",
                "detect st/phi ms(sim)",
                "detect@20% st/phi ms(sim)",
                "identical",
            ],
            title=f"perf sweep [{self.label}]",
        )
        for case in self.cases:
            table.add_row(
                [
                    case.n_sites,
                    case.requests,
                    f"{case.build.best_ms:.1f}",
                    f"{case.fast_plane.best_ms:.2f}",
                    (
                        f"{case.event_plane.best_ms:.1f}"
                        if case.event_plane
                        else "-"
                    ),
                    f"{case.speedup:.1f}x" if case.speedup else "-",
                    (
                        f"{case.scenario_round.best_ms:.1f}"
                        if case.scenario_round
                        else "-"
                    ),
                    (
                        f"{case.scenario_round_incremental.best_ms:.1f}"
                        if case.scenario_round_incremental
                        else "-"
                    ),
                    (
                        f"{case.scenario_round_hybrid.best_ms:.1f}"
                        if case.scenario_round_hybrid
                        else "-"
                    ),
                    (
                        f"{case.control_convergence.best_ms:.1f}"
                        if case.control_convergence
                        else "-"
                    ),
                    (
                        f"{case.control_convergence_lossy.best_ms:.1f}"
                        if case.control_convergence_lossy
                        else "-"
                    ),
                    (
                        f"{case.sampled_plane.best_ms:.2f}"
                        if case.sampled_plane
                        else "-"
                    ),
                    _detection_cell(
                        case.detection_static, case.detection_phi
                    ),
                    _detection_cell(
                        case.detection_static_lossy, case.detection_phi_lossy
                    ),
                    (
                        "yes"
                        if case.reports_identical
                        else ("NO" if case.reports_identical is False else "-")
                    ),
                ]
            )
        return table.render()


def _detection_cell(static: Timing | None, phi: Timing | None) -> str:
    """``static/phi`` mean-detection cell for the summary table."""
    static_text = f"{static.best_ms:.0f}" if static else "-"
    phi_text = f"{phi.best_ms:.0f}" if phi else "-"
    return f"{static_text}/{phi_text}"


def reports_equal(a: DataPlaneReport, b: DataPlaneReport) -> bool:
    """Field-exact equality of two data-plane reports (floats included).

    ``latency_percentiles`` is deliberately *not* compared: it is a
    presentation field the planes fill on different terms (sampled
    always, event only on request, fast never), orthogonal to the
    delivery accounting this check pins.
    """
    if (
        a.duration_ms != b.duration_ms
        or a.frames_captured != b.frames_captured
        or a.frames_delivered != b.frames_delivered
        or a.latency_bound_ms != b.latency_bound_ms
        or a.bytes_sent_by_site != b.bytes_sent_by_site
        or a.sends_dropped != b.sends_dropped
        or a.duplicates_discarded != b.duplicates_discarded
        or a.nacks_sent != b.nacks_sent
        or a.repairs_sent != b.repairs_sent
        or a.frames_recovered != b.frames_recovered
        or a.frames_unrecovered != b.frames_unrecovered
        or set(a.deliveries) != set(b.deliveries)
    ):
        return False
    for key, stats in a.deliveries.items():
        other = b.deliveries[key]
        if (
            stats.frames != other.frames
            or stats.total_latency_ms != other.total_latency_ms
            or stats.max_latency_ms != other.max_latency_ms
        ):
            return False
    return True


def _sweep_session(n_sites: int, seed: int, streams_per_site: int) -> TISession:
    """A deterministic N-site session on the ``synthetic-<n>`` backbone."""
    return build_session(
        load_backbone(f"synthetic-{n_sites}"),
        UniformCapacityModel(streams_per_site=streams_per_site),
        RngStream(seed, label=f"perf/N{n_sites}").spawn("session"),
        SessionConfig(n_sites=n_sites, displays_per_site=2),
    )


def _scenario_spec(
    n_sites: int, seed: int, rebuild_policy: str = "always"
) -> ScenarioSpec:
    """A small churn scenario used purely for round timing."""
    return ScenarioSpec(
        name="perf-round",
        n_sites=n_sites,
        initial_active=n_sites,
        duration_ms=400.0,
        seed=seed,
        schedule=(SchedulePhase(EventKind.FOV_CHANGE, 0.0, 350.0, 4),),
        backbone=f"synthetic-{n_sites}",
        displays_per_site=1,
        fov_size=2,
        rebuild_policy=rebuild_policy,
    )


def _measure_control_convergence(
    n_sites: int, seed: int, lossy: bool = False
) -> Timing:
    """Simulated convergence latency of the timing scenario, async control.

    Unlike every other series this is *simulated* milliseconds (the
    event-driven service's last-ack-minus-trigger per round), so the
    number is deterministic per (seed, N): the ratchet can gate it as a
    behavior series once it has a committed history.  With ``lossy`` the
    same scenario rides a 20%-lossy jittered link with retransmission
    armed, tracking the latency cost of the reliability machinery.
    """
    from repro.scenarios.runtime import ScenarioRuntime

    spec = replace(
        _scenario_spec(n_sites, seed),
        async_control=True,
        control_delay_ms=CONTROL_DELAY_MS,
        debounce_ms=DEBOUNCE_MS,
    )
    suffix = ""
    if lossy:
        spec = replace(
            spec,
            loss_rate=LOSSY_LOSS_RATE,
            jitter_ms=LOSSY_JITTER_MS,
            retransmit_timeout_ms=LOSSY_RETRANSMIT_TIMEOUT_MS,
        )
        suffix = "(lossy)"
    report = ScenarioRuntime(spec, audit=False).run()
    rounds = max(1, report.convergence_rounds)
    total_s = report.convergence_total_ms / 1000.0
    return Timing(
        label=f"control-convergence{suffix}/N{n_sites}",
        repeats=rounds,
        total_s=total_s,
        best_s=total_s / rounds,
    )


def _measure_detection_latency(
    n_sites: int, seed: int, phi: bool, lossy: bool
) -> Timing | None:
    """Simulated mean failure-detection latency, one detector x link combo.

    Runs the ``heartbeat-rolling-failure`` chaos scenario — staggered
    real site deaths over a churning membership — with either the
    static ``miss_threshold x heartbeat_ms`` deadline or the φ-accrual
    detector at :data:`PHI_THRESHOLD`, on either a quiet link or the
    scenario's native 20%-lossy one.  ``best_ms`` is the mean latency
    from a site's last beat to its suspicion, ``repeats`` the number of
    real failures detected.  Simulated milliseconds: deterministic per
    (seed, N), so the ratchet gates detector *behavior* with it — the
    quiet-link series pins "φ detects no later than static", the lossy
    series pins the latency φ pays for zero false suspicions there.
    """
    from repro.scenarios.library import get_scenario
    from repro.scenarios.runtime import ScenarioRuntime

    spec = replace(
        get_scenario("heartbeat-rolling-failure", sites=n_sites, seed=seed),
        backbone=f"synthetic-{n_sites}",
    )
    if not lossy:
        spec = replace(spec, loss_rate=0.0)
    if phi:
        spec = replace(spec, phi_threshold=PHI_THRESHOLD)
    report = ScenarioRuntime(spec, audit=False).run()
    if report.detected_failures == 0:
        return None
    mean_s = report.mean_detection_ms / 1000.0
    detector = "phi" if phi else "static"
    link = "lossy" if lossy else "quiet"
    return Timing(
        label=f"detection/{detector}/{link}/N{n_sites}",
        repeats=report.detected_failures,
        total_s=mean_s * report.detected_failures,
        best_s=mean_s,
    )


def _time_scenario_rounds(
    n_sites: int, seed: int, rebuild_policy: str
) -> Timing:
    """Per-round control latency of the timing scenario at one policy.

    Every synchronous round is timed individually (the runtime records
    wall-clock per round, advertise through install), so ``best_ms`` is
    the genuine fastest round and ``mean_ms`` the genuine mean.  The
    old implementation timed one whole run and divided by the round
    count, which published ``mean_ms == best_ms`` under a claimed
    ``repeats`` of the round count — a fabricated best-of.  Session
    assembly and between-round schedule machinery are excluded: they
    happen once per session lifetime, not per control round.
    """
    from repro.scenarios.runtime import ScenarioRuntime

    spec = _scenario_spec(n_sites, seed, rebuild_policy)
    runtime = ScenarioRuntime(spec, audit=False)
    runtime.run()
    times = runtime.round_wall_s or [0.0]
    suffix = "" if rebuild_policy == "always" else f"({rebuild_policy})"
    return Timing(
        label=f"scenario-round{suffix}/N{n_sites}",
        repeats=len(times),
        total_s=sum(times),
        best_s=min(times),
    )


def run_perf_case(
    n_sites: int,
    seed: int = 42,
    duration_ms: float = DEFAULT_DURATION_MS,
    repeats: int = 3,
    algorithm: str = "rj",
    streams_per_site: int = DEFAULT_STREAMS_PER_SITE,
    mean_subscribers: float = DEFAULT_MEAN_SUBSCRIBERS,
    with_event_plane: bool = True,
    with_scenario: bool = True,
) -> PerfCase:
    """Time build + dissemination (+ one scenario round) at one size.

    Sizes past :data:`EVENT_PLANE_MAX_SITES` /
    :data:`SCENARIO_MAX_SITES` silently skip the event-plane and
    scenario series respectively — at those scales a single skipped
    series would otherwise dominate the whole sweep's wall clock.
    """
    if n_sites < 2:
        raise ConfigurationError(f"n_sites must be >= 2, got {n_sites}")
    with_event_plane = with_event_plane and n_sites <= EVENT_PLANE_MAX_SITES
    with_scenario = with_scenario and n_sites <= SCENARIO_MAX_SITES
    session = _sweep_session(n_sites, seed, streams_per_site)
    rng = RngStream(seed, label=f"perf/N{n_sites}")
    workload = CoverageWorkloadModel(
        mean_subscribers=mean_subscribers, guarantee_coverage=False
    ).generate(session, rng.spawn("workload"))
    problem = ForestProblem.from_workload(
        session, workload, DEFAULT_LATENCY_BOUND_MS
    )
    builder = make_builder(algorithm)
    build_timing, result = time_call(
        lambda: builder.build(problem, rng.spawn("build")),
        repeats=repeats,
        label=f"build/{algorithm}/N{n_sites}",
    )

    def run_fast() -> DataPlaneReport:
        return FastDataPlane(
            session, result.forest, rng.spawn("dataplane")
        ).run(duration_ms)

    fast_timing, fast_report = time_call(
        run_fast, repeats=repeats, label=f"fast-plane/N{n_sites}"
    )

    # The sampled-percentile plane, timed under the tracked lossy noise
    # model — the regime it exists for (the event plane prices the same
    # run per hop per frame).
    sampled_timing, _ = time_call(
        lambda: SampledDataPlane(
            session,
            result.forest,
            rng.spawn("sampled-plane"),
            jitter_ms=LOSSY_JITTER_MS,
            loss_probability=LOSSY_LOSS_RATE,
        ).run(duration_ms),
        repeats=repeats,
        label=f"sampled-plane/N{n_sites}",
    )

    event_timing: Timing | None = None
    identical: bool | None = None
    if with_event_plane:
        # The event-driven plane is the expensive baseline: one repeat.
        event_timing, event_report = time_call(
            lambda: ForestDataPlane(
                session, result.forest, rng.spawn("dataplane")
            ).run(duration_ms),
            repeats=1,
            label=f"event-plane/N{n_sites}",
        )
        identical = reports_equal(fast_report, event_report)
        if not identical:
            raise SimulationError(
                f"fast/event data-plane reports diverged at N={n_sites} "
                f"(seed {seed}) — fast plane is supposed to be bit-exact"
            )

    scenario_timing: Timing | None = None
    scenario_incremental_timing: Timing | None = None
    scenario_hybrid_timing: Timing | None = None
    convergence_timing: Timing | None = None
    convergence_lossy_timing: Timing | None = None
    if with_scenario:
        scenario_timing = _time_scenario_rounds(n_sites, seed, "always")
        scenario_incremental_timing = _time_scenario_rounds(
            n_sites, seed, "incremental"
        )
        scenario_hybrid_timing = _time_scenario_rounds(n_sites, seed, "hybrid")
        convergence_timing = _measure_control_convergence(n_sites, seed)
        convergence_lossy_timing = _measure_control_convergence(
            n_sites, seed, lossy=True
        )

    detection_timings: dict[str, Timing | None] = {
        "static": None,
        "static_lossy": None,
        "phi": None,
        "phi_lossy": None,
    }
    if with_scenario and n_sites <= DETECTION_MAX_SITES:
        for key in detection_timings:
            detection_timings[key] = _measure_detection_latency(
                n_sites,
                seed,
                phi=key.startswith("phi"),
                lossy=key.endswith("lossy"),
            )

    return PerfCase(
        n_sites=n_sites,
        requests=problem.total_requests(),
        satisfied=len(result.satisfied),
        build=build_timing,
        fast_plane=fast_timing,
        event_plane=event_timing,
        scenario_round=scenario_timing,
        frames_delivered=fast_report.frames_delivered,
        reports_identical=identical,
        scenario_round_incremental=scenario_incremental_timing,
        control_convergence=convergence_timing,
        control_convergence_lossy=convergence_lossy_timing,
        sampled_plane=sampled_timing,
        scenario_round_hybrid=scenario_hybrid_timing,
        detection_static=detection_timings["static"],
        detection_static_lossy=detection_timings["static_lossy"],
        detection_phi=detection_timings["phi"],
        detection_phi_lossy=detection_timings["phi_lossy"],
    )


def run_perf_sweep(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = 42,
    duration_ms: float = DEFAULT_DURATION_MS,
    repeats: int = 3,
    algorithm: str = "rj",
    label: str = "PR2",
    with_event_plane: bool = True,
    with_scenario: bool = True,
) -> PerfReport:
    """Run the full sweep; see the module docstring for what is timed."""
    report = PerfReport(
        label=label,
        config={
            "sizes": list(sizes),
            "seed": seed,
            "duration_ms": duration_ms,
            "repeats": repeats,
            "algorithm": algorithm,
            "streams_per_site": DEFAULT_STREAMS_PER_SITE,
            "mean_subscribers": DEFAULT_MEAN_SUBSCRIBERS,
            "latency_bound_ms": DEFAULT_LATENCY_BOUND_MS,
            "backbone": "synthetic-<n>",
            # The fact, not a request: what this install selected.
            "backend": resolve_backend().name,
        },
    )
    for n_sites in sizes:
        report.cases.append(
            run_perf_case(
                n_sites,
                seed=seed,
                duration_ms=duration_ms,
                repeats=repeats,
                algorithm=algorithm,
                with_event_plane=with_event_plane,
                with_scenario=with_scenario,
            )
        )
    return report


def _case_best_ms(case: dict, metric: str) -> float | None:
    """``best_ms`` of one timing series in a parsed case, if usable.

    Returns None for a missing series, a null entry, or a non-positive
    timing — the one uniform guard every comparison column goes
    through, so no metric can divide by zero or KeyError on a baseline
    recorded before the series existed.
    """
    timing = case.get(metric)
    if not isinstance(timing, dict):
        return None
    value = timing.get("best_ms")
    if not isinstance(value, (int, float)) or value <= 0.0:
        return None
    return float(value)


def _pair_cell(before: dict, case: dict, metric: str, digits: int) -> str:
    """``old/new`` best-ms cell with ``-`` for either missing side."""
    old_ms = _case_best_ms(before, metric)
    new_ms = _case_best_ms(case, metric)
    old_text = f"{old_ms:.{digits}f}" if old_ms is not None else "-"
    new_text = f"{new_ms:.{digits}f}" if new_ms is not None else "-"
    return f"{old_text}/{new_text}"


def _ratio_cell(before: dict, case: dict, metric: str) -> str:
    """``old/new`` wall-clock ratio cell; ``-`` unless both sides exist."""
    old_ms = _case_best_ms(before, metric)
    new_ms = _case_best_ms(case, metric)
    if old_ms is None or new_ms is None:
        return "-"
    return f"{old_ms / new_ms:.2f}"


def compare_reports(old: dict, new: dict) -> str:
    """Render an old-vs-new ``BENCH_*.json`` comparison table.

    Takes the parsed JSON dicts (not :class:`PerfReport`) so the CLI can
    diff baselines produced by any past PR; every column rides the same
    zero/missing guard (:func:`_case_best_ms`).
    """
    old_by_n = {case["n_sites"]: case for case in old.get("cases", [])}
    table = Table(
        ["N", "build old/new ms", "fast old/new ms", "ratio(fast)", "speedup old/new"],
        title=f"perf compare {old.get('label')} -> {new.get('label')}",
    )
    for case in new.get("cases", []):
        n_sites = case["n_sites"]
        before = old_by_n.get(n_sites)
        if before is None:
            table.add_row([n_sites, "-", "-", "-", "-"])
            continue
        old_speedup = before.get("speedup")
        new_speedup = case.get("speedup")
        speedups = (
            f"{old_speedup:.1f}x" if old_speedup else "-"
        ) + "/" + (f"{new_speedup:.1f}x" if new_speedup else "-")
        table.add_row(
            [
                n_sites,
                _pair_cell(before, case, "build", 1),
                _pair_cell(before, case, "fast_plane", 2),
                _ratio_cell(before, case, "fast_plane"),
                speedups,
            ]
        )
    return table.render()


#: Timing series the CI ratchet gates (each a key into a case dict).
#: ``scenario_round_incremental`` joined once diffed problem assembly
#: stopped round time being dominated by O(N²) table rebuilding (the
#: PR 3 follow-on): the series now measures repair + evolve, which is
#: exactly the steady-state latency the ratchet must protect.
#: ``control_convergence`` is *simulated* milliseconds — deterministic
#: per (seed, N), so its gate catches behavior regressions (extra
#: rounds, slower settling) rather than machine noise.
#: ``sampled_plane`` is the sampled-percentile noisy plane under the
#: tracked lossy noise model — the series protecting the bulk-draw
#: convolution path noisy sweeps ride instead of the event heap.
#: ``scenario_round_hybrid`` protects the estimator-gated scratch-free
#: hybrid (between re-solves a round must stay ~incremental cost).
#: The four ``detection_*`` series are simulated failure-detection
#: latencies (static vs φ-accrual, quiet vs 20% loss): deterministic
#: per (seed, N), they ratchet the PR 10 detector-behavior pins — a
#: detector change that doubles time-to-suspicion fails CI even though
#: no wall clock moved.
RATCHET_METRICS = (
    "build",
    "fast_plane",
    "scenario_round_incremental",
    "scenario_round_hybrid",
    "control_convergence",
    "sampled_plane",
    "detection_static",
    "detection_static_lossy",
    "detection_phi",
    "detection_phi_lossy",
)

#: Default regression threshold: new/old wall-clock ratios above this
#: fail the ratchet.  2x is deliberately loose — absolute times are
#: machine noise, only gross regressions should gate CI.
RATCHET_THRESHOLD = 2.0


def ratchet_check(
    old: dict, new: dict, threshold: float = RATCHET_THRESHOLD
) -> list[str]:
    """Compare two parsed ``BENCH_*.json`` payloads; return failures.

    For every sweep size present in both baselines, each metric in
    :data:`RATCHET_METRICS` must not regress by more than ``threshold``
    (ratio of best-of wall-clock times).  An empty list means the
    ratchet passes; baselines with no comparable timings fail loudly
    rather than silently passing.
    """
    failures: list[str] = []
    old_by_n = {case["n_sites"]: case for case in old.get("cases", [])}
    compared = 0
    for case in new.get("cases", []):
        n_sites = case["n_sites"]
        before = old_by_n.get(n_sites)
        if before is None:
            continue
        for metric in RATCHET_METRICS:
            old_timing = before.get(metric)
            new_timing = case.get(metric)
            if not old_timing and not new_timing:
                continue  # neither baseline tracks it at this size
            if not old_timing or not new_timing:
                # A gated metric present on one side only must not pass
                # silently — that is how a gate rots away.
                missing = "old" if not old_timing else "new"
                failures.append(
                    f"{metric} at N={n_sites}: missing from the {missing} "
                    f"baseline"
                )
                continue
            old_ms = old_timing.get("best_ms") or 0.0
            new_ms = new_timing.get("best_ms") or 0.0
            if old_ms <= 0.0 or new_ms <= 0.0:
                continue
            compared += 1
            ratio = new_ms / old_ms
            if ratio > threshold:
                failures.append(
                    f"{metric} at N={n_sites}: {old_ms:.2f}ms -> {new_ms:.2f}ms "
                    f"({ratio:.2f}x > {threshold:.1f}x threshold)"
                )
    if compared == 0:
        failures.append(
            f"no comparable timings between baselines "
            f"{old.get('label')!r} and {new.get('label')!r}"
        )
    return failures
