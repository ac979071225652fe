"""Tests for the declarative scenario specification."""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.pubsub.faults import PartitionWindow, ServerOutageWindow
from repro.pubsub.service import ControlConfig
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.spec import (
    CONTROL_PLANE_FIELDS,
    EventKind,
    SchedulePhase,
    ScenarioSpec,
)
from repro.util.rng import RngStream


NAN = float("nan")
INF = float("inf")

#: A value off the default for each field only the asynchronous service
#: reads.
CONTROL_PLANE_VALUES = {
    "control_delay_ms": 5.0,
    "debounce_ms": 5.0,
    "loss_rate": 0.1,
    "jitter_ms": 2.0,
    "duplicate_rate": 0.1,
    "partitions": (PartitionWindow(0, 0.0, 10.0),),
    "heartbeat_ms": 10.0,
    "miss_threshold": 7,
    "retransmit_timeout_ms": 20.0,
    "server_outages": (ServerOutageWindow(10.0, 20.0),),
    "phi_threshold": 8.0,
    "checkpoint_interval_ms": 50.0,
}


def minimal_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="t",
        n_sites=4,
        initial_active=2,
        duration_ms=100.0,
        seed=1,
        schedule=(SchedulePhase(EventKind.JOIN, 0.0, 50.0, 3),),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_valid_spec_accepted(self):
        spec = minimal_spec()
        assert len(spec.compile(RngStream(5))) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_sites": 0},
            {"initial_active": 5},
            {"initial_active": -1},
            {"duration_ms": 0.0},
            {"nodes": "exotic"},
            {"fov_size": 0},
            {"capacity_base": 0},
        ],
    )
    def test_bad_field_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            minimal_spec(**overrides)

    @pytest.mark.parametrize("value", (-1.0, float("inf"), float("nan")))
    @pytest.mark.parametrize(
        "knob",
        [
            "duration_ms",
            "control_delay_ms",
            "debounce_ms",
            "jitter_ms",
            "heartbeat_ms",
            "retransmit_timeout_ms",
            "data_jitter_ms",
            "checkpoint_interval_ms",
        ],
    )
    def test_millisecond_knobs_must_be_finite_and_non_negative(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            minimal_spec(async_control=True, **{knob: value})

    def test_hybrid_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="always, incremental$"):
            minimal_spec(rebuild_policy="hybrid")

    def test_checkpoint_interval_requires_async_control(self):
        """A synchronous run has no service to take checkpoints."""
        with pytest.raises(ConfigurationError, match="checkpoint.*async_control"):
            minimal_spec(checkpoint_interval_ms=50.0)
        spec = minimal_spec(async_control=True, checkpoint_interval_ms=50.0)
        assert spec.checkpoint_interval_ms == 50.0

    @pytest.mark.parametrize("value", (float("nan"), 0.0, -5.0))
    def test_latency_bound_must_be_positive(self, value):
        """NaN compares False to everything, so a naive ``<= 0`` check lets
        it through and the latency constraint silently switches off."""
        with pytest.raises(ConfigurationError, match="latency_bound_ms"):
            minimal_spec(latency_bound_ms=value)

    def test_infinite_latency_bound_means_no_bound(self):
        assert minimal_spec(latency_bound_ms=float("inf")).latency_bound_ms > 1e300

    @pytest.mark.parametrize(
        "field, value",
        [("streams_per_site", 0), ("streams_per_site", -3), ("capacity_jitter", -1)],
    )
    def test_capacity_overrides_name_the_bad_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            minimal_spec(**{field: value})

    @pytest.mark.parametrize("site", (4, 99))
    def test_partition_outside_the_pool_rejected(self, site):
        """A window for a site the pool never has would cut nothing."""
        window = PartitionWindow(site, 0.0, 100.0)
        with pytest.raises(ConfigurationError, match=f"partition site {site}"):
            minimal_spec(async_control=True, partitions=(window,))

    def test_partition_of_the_last_pool_site_accepted(self):
        window = PartitionWindow(3, 0.0, 100.0)
        spec = minimal_spec(async_control=True, partitions=(window,))
        assert spec.partitions == (window,)

    def test_bad_phase_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulePhase(EventKind.JOIN, 10.0, 5.0, 1)
        with pytest.raises(ConfigurationError):
            SchedulePhase(EventKind.JOIN, -1.0, 5.0, 1)
        with pytest.raises(ConfigurationError):
            SchedulePhase(EventKind.JOIN, 0.0, 5.0, -1)

    @pytest.mark.parametrize(
        "start_ms, end_ms, bound",
        [
            (NAN, 10.0, "phase start"),
            (0.0, NAN, "phase end"),
            (0.0, INF, "phase end"),
            (INF, INF, "phase start"),
        ],
    )
    def test_nan_and_infinite_phase_bounds_rejected(self, start_ms, end_ms, bound):
        """Such a phase used to construct, and the run then died in the
        engine with ``cannot schedule at nan``."""
        with pytest.raises(ConfigurationError, match=f"^{bound} must be finite"):
            SchedulePhase(EventKind.JOIN, start_ms, end_ms, 2)

    @pytest.mark.parametrize("field", list(CONTROL_PLANE_VALUES))
    def test_control_plane_field_requires_async_control(self, field):
        """``miss_threshold=7`` on a synchronous spec used to run one
        synchronous round that never read it."""
        message = f"^{field} requires async_control"
        with pytest.raises(ConfigurationError, match=message):
            minimal_spec(**{field: CONTROL_PLANE_VALUES[field]})

    def test_data_plane_knobs_do_not_require_async_control(self):
        spec = minimal_spec(data_loss_rate=0.1, data_jitter_ms=2.0, data_nack=True)
        assert spec.data_chaotic and not spec.async_control

    @pytest.mark.parametrize(
        "detector",
        [{}, {"heartbeat_ms": 10.0, "phi_threshold": 8.0}],
        ids=["no-heartbeats", "phi"],
    )
    def test_miss_threshold_needs_the_static_deadline(self, detector):
        """Without heartbeats, or under φ, no detector reads the budget,
        so a budget off its default is refused, not ignored."""
        with pytest.raises(ConfigurationError, match="^miss_threshold"):
            minimal_spec(async_control=True, miss_threshold=7, **detector)
        minimal_spec(async_control=True, **detector)

    def test_miss_threshold_with_the_static_deadline_accepted(self):
        spec = minimal_spec(async_control=True, heartbeat_ms=10.0, miss_threshold=7)
        assert spec.miss_threshold == 7


#: The knobs of :class:`ControlConfig`, after which come its derived flags.
CONFIG_KNOBS = [f for f in fields(ControlConfig) if f.init]

#: One case per way ``ControlConfig.__post_init__`` refuses a config.
BAD_CONFIGS = [
    *(
        ({knob: value}, knob)
        for knob in (
            "control_delay_ms",
            "debounce_ms",
            "jitter_ms",
            "heartbeat_ms",
            "retransmit_timeout_ms",
            "phi_threshold",
            "checkpoint_interval_ms",
        )
        for value in (-1.0, INF, NAN)
    ),
    ({"loss_rate": 1.5}, "^loss_rate"),
    ({"duplicate_rate": -0.1}, "^duplicate_rate"),
    ({"miss_threshold": 0}, "^miss_threshold must be >= 1"),
    (
        {"server_outages": (
            ServerOutageWindow(0.0, 20.0), ServerOutageWindow(10.0, 30.0)
        )},
        "^server outage windows overlap",
    ),
    ({"phi_threshold": 8.0}, "^phi_threshold requires heartbeat_ms > 0"),
    ({"miss_threshold": 7}, "^miss_threshold=7 is read only"),
    (
        {"miss_threshold": 7, "heartbeat_ms": 10.0, "phi_threshold": 8.0},
        "^miss_threshold=7 is read only",
    ),
    (
        {"server_outages": (ServerOutageWindow(10.0, 20.0),),
         "heartbeat_ms": 10.0},
        "^server_outages require",
    ),
    (
        {"server_outages": (ServerOutageWindow(10.0, 20.0),),
         "retransmit_timeout_ms": 20.0},
        "^server_outages require",
    ),
]


class TestControlPlaneDeclaration:
    """The service's knobs are declared once, on :class:`ControlConfig`:
    the spec's flat fields, the CLI's implication and every check follow
    from it."""

    def test_values_cover_every_control_plane_field(self):
        knobs = tuple(f.name for f in CONFIG_KNOBS)
        assert tuple(CONTROL_PLANE_VALUES) == CONTROL_PLANE_FIELDS == knobs

    def test_every_config_field_has_one_meaning_line(self):
        lines = [
            line.strip() for line in inspect.getsource(ControlConfig).splitlines()
        ]
        for f in fields(ControlConfig):
            index = next(
                i for i, line in enumerate(lines) if line.startswith(f"{f.name}: ")
            )
            assert lines[index - 1].startswith("#: "), f.name
            assert not lines[index - 2].startswith("#:"), f.name

    def test_each_spec_default_is_the_config_default(self):
        spec_defaults = {f.name: f.default for f in fields(ScenarioSpec)}
        for knob in CONFIG_KNOBS:
            assert spec_defaults[knob.name] == knob.default, knob.name

    def test_an_async_spec_carries_its_config(self):
        knobs = {"loss_rate": 0.1, "heartbeat_ms": 10.0, "miss_threshold": 7}
        spec = minimal_spec(async_control=True, **knobs)
        assert spec.control_config == ControlConfig(**knobs)
        assert minimal_spec().control_config is None

    @pytest.mark.parametrize("knobs, message", BAD_CONFIGS)
    def test_a_bad_config_is_refused(self, knobs, message):
        with pytest.raises(ConfigurationError, match=message):
            ControlConfig(**knobs)

    def test_a_service_refuses_outages_without_heartbeats(self, small_session):
        """A service built directly used to accept an outage the spec
        refused, then drain with none of 8 sites registered and every
        unrecovered gate reading clean."""
        from repro.core.randomized import RandomJoinBuilder
        from repro.pubsub.service import MembershipService
        from repro.pubsub.system import PubSubSystem
        from repro.sim.engine import Simulator

        system = PubSubSystem(session=small_session, builder=RandomJoinBuilder())
        with pytest.raises(ConfigurationError, match="^server_outages require"):
            MembershipService(
                sim=Simulator(),
                server=system.server,
                rps=system.rps,
                build_rng=RngStream(5, label="t"),
                config=ControlConfig(
                    server_outages=(ServerOutageWindow(100.0, 200.0),)
                ),
            )


class TestCompile:
    def test_event_count_and_kinds(self):
        spec = minimal_spec(
            schedule=(
                SchedulePhase(EventKind.JOIN, 0.0, 50.0, 3),
                SchedulePhase(EventKind.LEAVE, 20.0, 80.0, 2),
            )
        )
        events = spec.compile(RngStream(5))
        assert len(events) == 5
        kinds = [event.kind for event in events]
        assert kinds.count(EventKind.JOIN) == 3
        assert kinds.count(EventKind.LEAVE) == 2

    def test_sorted_by_time(self):
        events = minimal_spec().compile(RngStream(5))
        times = [event.time_ms for event in events]
        assert times == sorted(times)

    def test_within_phase_window_and_duration(self):
        spec = minimal_spec(
            duration_ms=40.0,
            schedule=(SchedulePhase(EventKind.FOV_CHANGE, 10.0, 90.0, 8),),
        )
        for event in spec.compile(RngStream(5)):
            assert 10.0 <= event.time_ms <= 40.0

    def test_deterministic_given_seed(self):
        spec = minimal_spec()
        assert spec.compile(RngStream(5)) == spec.compile(RngStream(5))

    def test_different_seed_differs(self):
        spec = minimal_spec(
            schedule=(SchedulePhase(EventKind.JOIN, 0.0, 100.0, 10),)
        )
        assert spec.compile(RngStream(5)) != spec.compile(RngStream(6))

    def test_empty_schedule_compiles_empty(self):
        assert minimal_spec(schedule=()).compile(RngStream(5)) == []


class TestLibrary:
    def test_six_named_scenarios(self):
        names = scenario_names()
        assert len(names) == 6
        assert names == sorted(names)

    def test_all_factories_scale(self):
        for name in scenario_names():
            for sites in (2, 8, 16):
                spec = get_scenario(name, sites=sites, seed=3)
                assert spec.n_sites == sites
                assert spec.seed == 3
                assert spec.initial_active <= sites

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("tsunami")

    def test_lookup_case_insensitive(self):
        assert get_scenario("FLASH-CROWD").name == "flash-crowd"

    def test_describe_mentions_mix(self):
        description = get_scenario("mixed-churn", sites=8, seed=1).describe()
        assert "mixed-churn" in description
        assert "join" in description
