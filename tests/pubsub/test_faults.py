"""Unit tests for the control-link fault layer."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.pubsub.faults import (
    FaultConfig,
    FaultyLink,
    PartitionWindow,
    ServerOutageWindow,
)
from repro.sim.engine import Simulator
from repro.util.rng import RngStream


class CountingRng:
    """RngStream stand-in that counts every draw."""

    def __init__(self, seed: int = 1) -> None:
        self._rng = RngStream(seed, label="counting")
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        self.draws += 1
        return self._rng.uniform(low, high)


def make_link(config: FaultConfig | None = None, **kwargs):
    sim = Simulator()
    rng = CountingRng()
    link = FaultyLink(sim, rng, config or FaultConfig(), **kwargs)
    return sim, rng, link


class TestZeroFaultTransparency:
    def test_no_rng_draws_and_exact_delay(self):
        sim, rng, link = make_link()
        arrivals: list[float] = []
        assert link.transmit(0, 12.5, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [12.5]
        assert rng.draws == 0
        assert link.sent == link.delivered == 1
        assert link.dropped == 0

    def test_impaired_property(self):
        assert not FaultConfig().impaired
        assert FaultConfig(loss_rate=0.1).impaired
        assert FaultConfig(jitter_ms=1.0).impaired
        assert FaultConfig(duplicate_rate=0.1).impaired
        assert FaultConfig(
            partitions=(PartitionWindow(0, 0.0, 1.0),)
        ).impaired


class TestLoss:
    def test_certain_loss_drops_everything(self):
        sim, _, link = make_link(FaultConfig(loss_rate=1.0))
        arrivals: list[float] = []
        for _ in range(10):
            assert not link.transmit(0, 1.0, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == []
        assert link.dropped_loss == 10
        assert link.delivered == 0

    def test_loss_is_deterministic_per_seed(self):
        def outcomes(seed: int) -> list[bool]:
            sim = Simulator()
            link = FaultyLink(
                sim, RngStream(seed, label="loss"), FaultConfig(loss_rate=0.5)
            )
            return [link.transmit(0, 1.0, lambda: None) for _ in range(50)]

        assert outcomes(3) == outcomes(3)
        assert outcomes(3) != outcomes(4)


class TestJitter:
    def test_jitter_bounded_and_additive(self):
        sim, _, link = make_link(FaultConfig(jitter_ms=5.0))
        arrivals: list[float] = []
        for _ in range(20):
            link.transmit(0, 10.0, lambda: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 20
        assert all(10.0 <= t <= 15.0 for t in arrivals)
        assert len(set(arrivals)) > 1  # jitter actually varied


class TestDuplication:
    def test_certain_duplication_delivers_twice(self):
        sim, _, link = make_link(FaultConfig(duplicate_rate=1.0))
        arrivals: list[float] = []
        link.transmit(0, 3.0, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [3.0, 3.0]
        assert link.duplicated == 1
        assert link.delivered == 1  # the copy is not counted as delivered

    def test_copy_lands_strictly_after_original(self):
        sim, _, link = make_link(FaultConfig(duplicate_rate=1.0))
        order: list[str] = []
        link.transmit(0, 3.0, lambda: order.append("arrival"))
        sim.run()
        # Same timestamp, but (time, sequence) ordering keeps the copy
        # second — two arrivals, never an inverted pair.
        assert order == ["arrival", "arrival"]


class TestPartitions:
    def test_window_cuts_then_heals(self):
        window = PartitionWindow(site=1, start_ms=10.0, end_ms=20.0)
        sim, _, link = make_link(FaultConfig(partitions=(window,)))
        arrivals: list[float] = []

        def send() -> None:
            link.transmit(1, 1.0, lambda: arrivals.append(sim.now))

        for t in (5.0, 12.0, 19.9, 25.0):
            sim.schedule_at(t, send)
        sim.run()
        assert arrivals == [6.0, 26.0]
        assert link.dropped_partition == 2

    def test_other_sites_unaffected(self):
        window = PartitionWindow(site=1, start_ms=0.0, end_ms=100.0)
        sim, _, link = make_link(FaultConfig(partitions=(window,)))
        delivered: list[int] = []
        link.transmit(0, 1.0, lambda: delivered.append(0))
        link.transmit(2, 1.0, lambda: delivered.append(2))
        sim.run()
        assert sorted(delivered) == [0, 2]

    def test_covers_is_half_open(self):
        window = PartitionWindow(site=0, start_ms=10.0, end_ms=20.0)
        assert not window.covers(0, 9.999)
        assert window.covers(0, 10.0)
        assert window.covers(0, 19.999)
        assert not window.covers(0, 20.0)
        assert not window.covers(1, 15.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(site=-1, start_ms=0.0, end_ms=1.0)
        with pytest.raises(ConfigurationError):
            PartitionWindow(site=0, start_ms=-1.0, end_ms=1.0)
        with pytest.raises(ConfigurationError):
            PartitionWindow(site=0, start_ms=5.0, end_ms=5.0)


class TestDropFilter:
    def test_forced_drop_consumes_no_randomness(self):
        sim, rng, link = make_link(
            FaultConfig(), drop_filter=lambda kind, message, attempt: True
        )
        assert not link.transmit(0, 1.0, lambda: None, kind="advertise")
        assert link.dropped_forced == 1
        assert rng.draws == 0

    def test_filter_sees_kind_message_attempt(self):
        seen: list[tuple] = []

        def spy(kind, message, attempt):
            seen.append((kind, message, attempt))
            return attempt == 0

        sim, _, link = make_link(FaultConfig(), drop_filter=spy)
        assert not link.transmit(0, 1.0, lambda: None, kind="k", message="m")
        assert link.transmit(
            0, 1.0, lambda: None, kind="k", message="m", attempt=1
        )
        assert seen == [("k", "m", 0), ("k", "m", 1)]


class TestConfigValidation:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultConfig(duplicate_rate=-0.1)
        for jitter_ms in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="jitter_ms"):
                FaultConfig(jitter_ms=jitter_ms)


class TestOutageWindowValidation:
    def test_bad_bounds_rejected_with_the_offending_values(self):
        with pytest.raises(ConfigurationError, match="start must be >= 0"):
            ServerOutageWindow(-1.0, 50.0)
        with pytest.raises(ConfigurationError, match="end 50.0 must be after"):
            ServerOutageWindow(50.0, 50.0)
        with pytest.raises(ConfigurationError, match="end 10.0 must be after"):
            ServerOutageWindow(50.0, 10.0)

    def test_overlapping_outages_rejected_with_both_windows_named(self):
        with pytest.raises(
            ConfigurationError,
            match=r"server outage windows overlap: \[100.0, 300.0\) and "
            r"\[200.0, 400.0\)",
        ):
            FaultConfig(
                outages=(
                    ServerOutageWindow(100.0, 300.0),
                    ServerOutageWindow(200.0, 400.0),
                )
            )

    def test_overlap_check_is_order_independent(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            FaultConfig(
                outages=(
                    ServerOutageWindow(200.0, 400.0),
                    ServerOutageWindow(100.0, 300.0),
                )
            )

    def test_disjoint_and_touching_windows_accepted(self):
        config = FaultConfig(
            outages=(
                ServerOutageWindow(100.0, 200.0),
                ServerOutageWindow(200.0, 300.0),
            )
        )
        # Outages impair the server, not the link: the link keeps its
        # zero-fault fast path.
        assert not config.impaired
