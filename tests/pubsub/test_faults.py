"""Unit tests for the control-link fault layer."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.pubsub.faults import FaultyLink, PartitionWindow, ServerOutageWindow
from repro.pubsub.service import ControlConfig
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from tests.forced_links import force_drops
from tests.reference_paths import partition_covers

NAN, INF = float("nan"), float("inf")

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


def make_link(config: ControlConfig | None = None):
    sim = Simulator()
    rng = CountingRng()
    link = FaultyLink(sim, rng, config or ControlConfig())
    return sim, rng, link


class TestZeroFaultTransparency:
    def test_no_rng_draws_and_exact_delay(self):
        sim, rng, link = make_link()
        arrivals: list[float] = []
        assert link.transmit(0, 12.5, lambda: arrivals.append(sim.now), ())
        sim.run()
        assert arrivals == [12.5]
        assert rng.draws == 0
        assert link.sent == link.delivered == 1
        assert link.dropped == 0

    def test_impaired_property(self):
        assert not ControlConfig().impaired
        assert ControlConfig(loss_rate=0.1).impaired
        assert ControlConfig(jitter_ms=1.0).impaired
        assert ControlConfig(duplicate_rate=0.1).impaired
        assert ControlConfig(
            partitions=(PartitionWindow(0, 0.0, 1.0),)
        ).impaired


class TestLoss:
    def test_certain_loss_drops_everything(self):
        sim, _, link = make_link(ControlConfig(loss_rate=1.0))
        arrivals: list[float] = []
        for _ in range(10):
            assert not link.transmit(0, 1.0, lambda: arrivals.append(sim.now), ())
        sim.run()
        assert arrivals == []
        assert link.dropped == 10
        assert link.delivered == 0

    def test_loss_is_deterministic_per_seed(self):
        def outcomes(seed: int) -> list[bool]:
            sim = Simulator()
            link = FaultyLink(
                sim, RngStream(seed, label="loss"), ControlConfig(loss_rate=0.5)
            )
            return [link.transmit(0, 1.0, lambda: None, ()) for _ in range(50)]

        assert outcomes(3) == outcomes(3)
        assert outcomes(3) != outcomes(4)


class TestJitter:
    def test_jitter_bounded_and_additive(self):
        sim, _, link = make_link(ControlConfig(jitter_ms=5.0))
        arrivals: list[float] = []
        for _ in range(20):
            link.transmit(0, 10.0, lambda: arrivals.append(sim.now), ())
        sim.run()
        assert len(arrivals) == 20
        assert all(10.0 <= t <= 15.0 for t in arrivals)
        assert len(set(arrivals)) > 1  # jitter actually varied

    @pytest.mark.parametrize("jitter_ms", (1e-9, 0.1, 5.0, 8.0, 123.456))
    def test_scaled_draw_is_uniform_bit_for_bit(self, jitter_ms):
        """The link draws jitter as ``j * random()``: the same value and
        the same generator words as ``uniform(0.0, j)``, 2 000 draws per
        ``j`` (10^4 in all)."""
        scaled, reference = RngStream(11, "jitter"), RngStream(11, "jitter")
        for _ in range(2_000):
            got = jitter_ms * scaled.random()
            assert got.hex() == reference.uniform(0.0, jitter_ms).hex()
        assert scaled._random.getstate() == reference._random.getstate()

    def test_link_arrivals_are_base_plus_uniform(self):
        sim = Simulator()
        config = ControlConfig(jitter_ms=8.0, duplicate_rate=0.3)
        link = FaultyLink(sim, RngStream(5, "link"), config)
        arrivals: list[float] = []
        for _ in range(200):
            link.transmit(0, 10.0, lambda: arrivals.append(sim.now), ())
        sim.run()
        reference = RngStream(5, "link")
        expected: list[float] = []
        for _ in range(200):  # one jitter, one duplicate draw, copy jitter
            delay = 10.0 + reference.uniform(0.0, 8.0)
            expected.append(delay)
            if reference.random() < 0.3:
                expected.append(delay + reference.uniform(0.0, 8.0))
        assert sorted(arrivals) == sorted(expected)
        assert link.duplicated == len(expected) - 200 > 0


class TestDuplication:
    def test_certain_duplication_delivers_twice(self):
        sim, _, link = make_link(ControlConfig(duplicate_rate=1.0))
        arrivals: list[float] = []
        link.transmit(0, 3.0, lambda: arrivals.append(sim.now), ())
        sim.run()
        assert arrivals == [3.0, 3.0]
        assert link.duplicated == 1
        assert link.delivered == 2  # arrivals scheduled, the copy included

    def test_copy_lands_strictly_after_original(self):
        sim, _, link = make_link(ControlConfig(duplicate_rate=1.0))
        order: list[str] = []
        link.transmit(0, 3.0, lambda: order.append("arrival"), ())
        sim.run()
        # Same timestamp, but (time, sequence) ordering keeps the copy
        # second — two arrivals, never an inverted pair.
        assert order == ["arrival", "arrival"]


class TestPartitions:
    def test_window_cuts_then_heals(self):
        window = PartitionWindow(site=1, start_ms=10.0, end_ms=20.0)
        sim, _, link = make_link(ControlConfig(partitions=(window,)))
        arrivals: list[float] = []

        def send() -> None:
            link.transmit(1, 1.0, lambda: arrivals.append(sim.now), ())

        for t in (5.0, 12.0, 19.9, 25.0):
            sim.schedule_at(t, send)
        sim.run()
        assert arrivals == [6.0, 26.0]
        assert link.dropped == 2

    def test_other_sites_unaffected(self):
        window = PartitionWindow(site=1, start_ms=0.0, end_ms=100.0)
        sim, _, link = make_link(ControlConfig(partitions=(window,)))
        delivered: list[int] = []
        link.transmit(0, 1.0, lambda: delivered.append(0), ())
        link.transmit(2, 1.0, lambda: delivered.append(2), ())
        sim.run()
        assert sorted(delivered) == [0, 2]

    def test_window_is_half_open(self):
        window = PartitionWindow(site=0, start_ms=10.0, end_ms=20.0)
        _, _, link = make_link(ControlConfig(partitions=(window,)))
        assert not link.partitioned(0, 9.999)
        assert link.partitioned(0, 10.0)
        assert link.partitioned(0, 19.999)
        assert not link.partitioned(0, 20.0)
        assert not link.partitioned(1, 15.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(site=-1, start_ms=0.0, end_ms=1.0)
        with pytest.raises(ConfigurationError):
            PartitionWindow(site=0, start_ms=-1.0, end_ms=1.0)
        with pytest.raises(ConfigurationError):
            PartitionWindow(site=0, start_ms=5.0, end_ms=5.0)

    @pytest.mark.parametrize(
        "start_ms,end_ms",
        ((0.0, NAN), (NAN, 5.0), (NAN, NAN), (INF, INF), (INF, 5.0)),
    )
    def test_nan_and_infinite_bounds_rejected(self, start_ms, end_ms):
        """A NaN bound used to construct a window that never cut."""
        with pytest.raises(ConfigurationError, match="partition"):
            PartitionWindow(0, start_ms, end_ms)

    def test_unbounded_end_accepted(self):
        window = PartitionWindow(0, 5.0, INF)
        _, _, link = make_link(ControlConfig(partitions=(window,)))
        assert link.partitioned(0, 1e300) and not link.partitioned(0, 4.0)


#: Several windows on site 1 (two overlapping), one on site 3, none on
#: sites 0, 2 and 4.
TABLE_WINDOWS = (
    PartitionWindow(1, 10.0, 20.0),
    PartitionWindow(3, 0.0, 5.0),
    PartitionWindow(1, 15.0, 30.0),
    PartitionWindow(1, 50.0, 60.0),
)


class TestPartitionTable:
    """``FaultyLink.partitioned`` reads a per-site table built once; it
    must answer exactly what asking every window on its own did."""

    def test_agrees_with_every_window_covers(self):
        _, _, link = make_link(ControlConfig(partitions=TABLE_WINDOWS))
        bounds = {w.start_ms for w in TABLE_WINDOWS} | {w.end_ms for w in TABLE_WINDOWS}
        times = [t / 4.0 for t in range(-8, 280)]
        times += [math.nextafter(b, d) for b in bounds for d in (-INF, INF)]
        for site in range(5):
            for t in times:
                assert link.partitioned(site, t) == any(
                    partition_covers(w, site, t) for w in TABLE_WINDOWS
                ), (site, t)

    def test_start_inclusive_end_exclusive(self):
        _, _, link = make_link(ControlConfig(partitions=TABLE_WINDOWS))
        assert link.partitioned(1, 10.0) and not link.partitioned(1, 60.0)
        assert link.partitioned(1, 20.0)  # inside the overlapping window
        assert not link.partitioned(1, 30.0) and not link.partitioned(1, 45.0)
        assert link.partitioned(3, 0.0) and not link.partitioned(3, 5.0)

    def test_site_without_a_window_is_never_cut(self):
        _, _, link = make_link(ControlConfig(partitions=TABLE_WINDOWS))
        assert not any(
            link.partitioned(site, t) for site in (0, 2, 4) for t in (0.0, 15.0, 55.0)
        )
        _, _, unpartitioned = make_link(ControlConfig(loss_rate=0.5))
        assert not unpartitioned.partitioned(1, 15.0)


class TestForcedDrops:
    def test_forced_drop_consumes_no_randomness(self):
        sim, rng, link = make_link(ControlConfig(loss_rate=0.5, jitter_ms=2.0))
        force_drops(link, lambda kind, attempt, args: True)
        assert not link.transmit(0, 1.0, lambda: None, ())
        assert link.dropped == link.sent == 1
        assert rng.draws == 0


class TestConfigValidation:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            ControlConfig(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            ControlConfig(duplicate_rate=-0.1)
        for jitter_ms in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="jitter_ms"):
                ControlConfig(jitter_ms=jitter_ms)


class TestOutageWindowValidation:
    def test_bad_bounds_rejected_with_the_offending_values(self):
        with pytest.raises(ConfigurationError, match="start must be non-negative"):
            ServerOutageWindow(-1.0, 50.0)
        with pytest.raises(ConfigurationError, match="end 50.0 must be after"):
            ServerOutageWindow(50.0, 50.0)
        with pytest.raises(ConfigurationError, match="end 10.0 must be after"):
            ServerOutageWindow(50.0, 10.0)

    @pytest.mark.parametrize(
        "start_ms,end_ms", ((0.0, NAN), (NAN, 5.0), (NAN, NAN), (INF, INF))
    )
    def test_nan_and_infinite_bounds_rejected(self, start_ms, end_ms):
        with pytest.raises(ConfigurationError, match="outage"):
            ServerOutageWindow(start_ms, end_ms)

    def test_unending_outage_rejected_naming_its_end(self):
        """An infinite end used to "recover" the server at t = inf while
        the simulator drained."""
        with pytest.raises(ConfigurationError, match="outage end must be finite"):
            ServerOutageWindow(300.0, INF)

    def test_overlapping_outages_rejected_with_both_windows_named(self):
        with pytest.raises(
            ConfigurationError,
            match=r"server outage windows overlap: \[100.0, 300.0\) and "
            r"\[200.0, 400.0\)",
        ):
            ControlConfig(
                server_outages=(
                    ServerOutageWindow(100.0, 300.0),
                    ServerOutageWindow(200.0, 400.0),
                )
            )

    def test_overlap_check_is_order_independent(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            ControlConfig(
                server_outages=(
                    ServerOutageWindow(200.0, 400.0),
                    ServerOutageWindow(100.0, 300.0),
                )
            )

    def test_disjoint_and_touching_windows_accepted(self):
        config = ControlConfig(
            server_outages=(
                ServerOutageWindow(100.0, 200.0),
                ServerOutageWindow(200.0, 300.0),
            ),
            heartbeat_ms=40.0,
            retransmit_timeout_ms=60.0,
        )
        # Outages impair the server, not the link: the link keeps its
        # zero-fault fast path.
        assert not config.impaired
