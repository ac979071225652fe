"""Declarative stress-scenario specifications.

A :class:`ScenarioSpec` describes one adversarial session shape — how
many sites exist, which capacity distribution they draw from, and a
schedule of churn (joins, leaves, failures) and FOV-change phases — plus
the seed that makes the whole run reproducible.  Specs are pure data:
:meth:`ScenarioSpec.compile` expands the schedule into timed
:class:`ScenarioEvent` objects for the deterministic
:class:`~repro.sim.engine.Simulator`; the
:class:`~repro.scenarios.runtime.ScenarioRuntime` executes them against
a live control plane.

Events carry a *kind*, not a target site: the runtime picks the target
from the membership state at execution time (a leave must hit an active
site, a join an inactive one), using the same seeded RNG, which keeps
runs bit-for-bit reproducible while letting one spec scale to any site
count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.errors import ConfigurationError
from repro.pubsub.faults import PartitionWindow, ServerOutageWindow
from repro.pubsub.service import MISS_THRESHOLD, ControlConfig
from repro.util.rng import RngStream
from repro.util.validation import (
    check_at_least,
    check_finite_non_negative,
    check_positive,
    check_probability,
    check_rebuild_policy,
)


class EventKind(enum.Enum):
    """What one scheduled control-plane event does."""

    #: An inactive (never-joined or previously departed/failed) site
    #: joins the session and subscribes its displays.
    JOIN = "join"
    #: An active site leaves gracefully (clears its subscriptions first).
    LEAVE = "leave"
    #: An active site fails abruptly (state withdrawn server-side only).
    FAIL = "fail"
    #: An active site's displays re-draw their FOV stream sets.
    FOV_CHANGE = "fov-change"


@dataclass(frozen=True)
class SchedulePhase:
    """``count`` events of one kind spread across ``[start_ms, end_ms]``."""

    kind: EventKind
    start_ms: float
    end_ms: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError(f"phase count must be >= 0, got {self.count}")
        check_finite_non_negative("phase start", self.start_ms)
        check_finite_non_negative("phase end", self.end_ms)
        if self.end_ms < self.start_ms:
            raise ConfigurationError(
                f"phase end {self.end_ms} precedes start {self.start_ms}"
            )


#: The spec fields only the event-driven membership service reads: one
#: per :class:`~repro.pubsub.service.ControlConfig` knob.  Off its
#: default, each requires ``async_control``; the CLI's flag for each
#: implies ``--async-control``.
CONTROL_PLANE_FIELDS = tuple(f.name for f in fields(ControlConfig) if f.init)


@dataclass(frozen=True)
class ScenarioEvent:
    """One compiled, timed control-plane event."""

    time_ms: float
    kind: EventKind


@dataclass(frozen=True)
class ScenarioSpec:
    """One reproducible stress scenario.

    Attributes
    ----------
    name:
        Scenario identifier (used in reports and RNG labels).
    n_sites:
        Size of the site pool; joins can only activate pool members.
    initial_active:
        Sites active (subscribed) when the run starts.
    duration_ms:
        Simulated wall clock; events beyond it are clamped to it.
    seed:
        Root seed; every draw of the run derives from it.
    schedule:
        Churn and FOV phases to compile into timed events.
    algorithm:
        Overlay builder name (see :func:`repro.core.registry.make_builder`).
    rebuild_policy:
        How the membership server maintains the overlay across rounds:
        ``always`` (re-solve from scratch, the paper's model) or
        ``incremental`` (repair the surviving forest); see
        :mod:`repro.core.incremental`.  The policy also fixes how each
        round's problem is assembled (``always`` from scratch,
        ``incremental`` diffed from the previous round's).
    async_control:
        Replay the schedule through the event-driven
        :class:`~repro.pubsub.service.MembershipService` instead of
        running one synchronous control round per event.  With both
        delays zero this is the degenerate case, bit-identical to the
        synchronous path.  Every field in :data:`CONTROL_PLANE_FIELDS`
        requires it when off its default.
    control_delay_ms ... checkpoint_interval_ms:
        The service's knobs, flat: one keyword per
        :class:`~repro.pubsub.service.ControlConfig` field, which says
        what each sets and checks them.  An async spec builds the
        config once, as :attr:`control_config` (``None`` otherwise).
    data_loss_rate / data_jitter_ms / data_duplicate_rate:
        Data-plane fault model for the per-round dissemination
        measurement (the data mirror of the control knobs above).  Any
        nonzero knob auto-enables the dissemination sidecar and routes
        it to the event-driven plane.  Unlike the control knobs these
        are not in :data:`CONTROL_PLANE_FIELDS` — the data plane runs on its
        own simulator either way.
    data_nack / data_max_repair_attempts / data_repair_deadline_factor:
        Gap-recovery knobs for the dissemination measurement: arm the
        NACK/repair layer, bound its per-instance retries, and size the
        repair deadline as a multiple of ``latency_bound_ms``.
    nodes:
        Capacity family, ``uniform`` or ``heterogeneous``.
    capacity_base / capacity_jitter / streams_per_site:
        Overrides of the uniform capacity model — the capacity-starvation
        scenario shrinks these far below the paper's defaults.
    """

    name: str
    n_sites: int
    initial_active: int
    duration_ms: float
    seed: int
    schedule: tuple[SchedulePhase, ...] = field(default_factory=tuple)
    algorithm: str = "rj"
    rebuild_policy: str = "always"
    nodes: str = "uniform"
    backbone: str = "tier1"
    latency_bound_ms: float = 120.0
    displays_per_site: int = 2
    fov_size: int = 4
    capacity_base: int | None = None
    capacity_jitter: int = 5
    streams_per_site: int | None = None
    async_control: bool = False
    control_delay_ms: float = 0.0
    debounce_ms: float = 0.0
    loss_rate: float = 0.0
    jitter_ms: float = 0.0
    duplicate_rate: float = 0.0
    partitions: tuple[PartitionWindow, ...] = ()
    heartbeat_ms: float = 0.0
    miss_threshold: int = MISS_THRESHOLD
    retransmit_timeout_ms: float = 0.0
    server_outages: tuple[ServerOutageWindow, ...] = ()
    phi_threshold: float = 0.0
    checkpoint_interval_ms: float = 0.0
    data_loss_rate: float = 0.0
    data_jitter_ms: float = 0.0
    data_duplicate_rate: float = 0.0
    data_nack: bool = False
    data_max_repair_attempts: int = 3
    data_repair_deadline_factor: float = 2.0
    control_config: ControlConfig | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ConfigurationError(f"n_sites must be >= 1, got {self.n_sites}")
        if not 0 <= self.initial_active <= self.n_sites:
            raise ConfigurationError(
                f"initial_active must be in [0, {self.n_sites}], "
                f"got {self.initial_active}"
            )
        check_finite_non_negative("duration_ms", self.duration_ms)
        check_positive("duration_ms", self.duration_ms)
        check_rebuild_policy(self.rebuild_policy)
        if self.nodes not in ("uniform", "heterogeneous"):
            raise ConfigurationError(
                f"nodes must be 'uniform' or 'heterogeneous', got {self.nodes!r}"
            )
        if self.fov_size < 1:
            raise ConfigurationError(f"fov_size must be >= 1, got {self.fov_size}")
        check_positive("latency_bound_ms", self.latency_bound_ms)
        if self.capacity_base is not None:
            check_at_least("capacity_base", self.capacity_base, 1)
        if self.streams_per_site is not None:
            check_at_least("streams_per_site", self.streams_per_site, 1)
        check_at_least("capacity_jitter", self.capacity_jitter, 0)
        config = None
        if self.async_control:
            config = ControlConfig(
                **{name: getattr(self, name) for name in CONTROL_PLANE_FIELDS}
            )
            for window in config.partitions:
                if window.site >= self.n_sites:
                    raise ConfigurationError(
                        f"partition site {window.site} is outside the pool "
                        f"of {self.n_sites} sites"
                    )
        else:
            defaults = {f.name: f.default for f in fields(self)}
            for name in CONTROL_PLANE_FIELDS:
                if getattr(self, name) != defaults[name]:
                    raise ConfigurationError(
                        f"{name} requires async_control=True (the synchronous "
                        "path has no control links and no service)"
                    )
        object.__setattr__(self, "control_config", config)  # frozen
        check_probability("data_loss_rate", self.data_loss_rate)
        check_finite_non_negative("data_jitter_ms", self.data_jitter_ms)
        check_probability("data_duplicate_rate", self.data_duplicate_rate)
        check_finite_non_negative(
            "data_repair_deadline_factor", self.data_repair_deadline_factor
        )
        check_at_least(
            "data_max_repair_attempts", self.data_max_repair_attempts, 1
        )

    @property
    def data_chaotic(self) -> bool:
        """True when any data-plane fault knob perturbs dissemination."""
        return bool(
            self.data_loss_rate
            or self.data_jitter_ms
            or self.data_duplicate_rate
        )

    def compile(self, rng: RngStream) -> list[ScenarioEvent]:
        """Expand the schedule into timed events, sorted by time.

        Each phase spreads its ``count`` events evenly across its window
        with per-event jitter drawn from ``rng``, so two compilations
        with equal seeds agree exactly.  Times are clamped to the run's
        duration.
        """
        events: list[ScenarioEvent] = []
        for phase_index, phase in enumerate(self.schedule):
            phase_rng = rng.spawn(f"phase-{phase_index}")
            window = phase.end_ms - phase.start_ms
            for index in range(phase.count):
                if phase.count == 1:
                    offset = window * phase_rng.random()
                else:
                    slot = window / phase.count
                    offset = slot * index + slot * phase_rng.random()
                time_ms = min(phase.start_ms + offset, self.duration_ms)
                events.append(ScenarioEvent(time_ms=time_ms, kind=phase.kind))
        events.sort(key=lambda event: (event.time_ms, event.kind.value))
        return events

    def describe(self) -> str:
        """One line for ``scenario list`` output."""
        kinds: dict[str, int] = {}
        for phase in self.schedule:
            kinds[phase.kind.value] = kinds.get(phase.kind.value, 0) + phase.count
        mix = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        policy = (
            "" if self.rebuild_policy == "always" else f" policy={self.rebuild_policy}"
        )
        control = (
            f" async(delay={self.control_delay_ms:.0f}ms,"
            f"debounce={self.debounce_ms:.0f}ms)"
            if self.async_control
            else ""
        )
        chaos_bits = []
        if self.loss_rate:
            chaos_bits.append(f"loss={self.loss_rate:.0%}")
        if self.jitter_ms:
            chaos_bits.append(f"jitter={self.jitter_ms:.0f}ms")
        if self.duplicate_rate:
            chaos_bits.append(f"dup={self.duplicate_rate:.0%}")
        if self.partitions:
            chaos_bits.append(f"partitions={len(self.partitions)}")
        if self.heartbeat_ms:
            chaos_bits.append(
                f"hb={self.heartbeat_ms:.0f}ms x{self.miss_threshold}"
            )
        if self.retransmit_timeout_ms:
            chaos_bits.append(f"rto={self.retransmit_timeout_ms:.0f}ms")
        if self.server_outages:
            chaos_bits.append(f"outages={len(self.server_outages)}")
        if self.phi_threshold:
            chaos_bits.append(f"phi={self.phi_threshold:g}")
        if self.checkpoint_interval_ms:
            chaos_bits.append(f"ckpt={self.checkpoint_interval_ms:.0f}ms")
        if self.data_loss_rate:
            chaos_bits.append(f"data-loss={self.data_loss_rate:.0%}")
        if self.data_jitter_ms:
            chaos_bits.append(f"data-jitter={self.data_jitter_ms:.0f}ms")
        if self.data_duplicate_rate:
            chaos_bits.append(f"data-dup={self.data_duplicate_rate:.0%}")
        if self.data_nack:
            chaos_bits.append(
                f"nack(x{self.data_max_repair_attempts},"
                f"{self.data_repair_deadline_factor:g}*bound)"
            )
        chaos = f" chaos({','.join(chaos_bits)})" if chaos_bits else ""
        return (
            f"{self.name}: pool={self.n_sites} start={self.initial_active} "
            f"{self.duration_ms:.0f}ms [{mix or 'static'}] alg={self.algorithm}"
            f"{policy}{control}{chaos}"
        )
