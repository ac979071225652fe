"""Tests for the latency network model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SessionError, SimulationError
from repro.pubsub.faults import FaultConfig, FaultyLink
from repro.sim.engine import Simulator
from repro.sim.network import LatencyNetwork
from repro.util.rng import RngStream
from tests.forced_links import force_drops


def make_network(small_session, **kwargs) -> tuple[LatencyNetwork, Simulator]:
    simulator = Simulator()
    network = LatencyNetwork(
        session=small_session,
        simulator=simulator,
        rng=RngStream(5),
        **kwargs,
    )
    return network, simulator


def arrivals_into(simulator: Simulator, into: list):
    """An arrival callback recording ``(now, *args)``; sends leave at 0 ms,
    so ``now`` is the message's latency."""
    return lambda *args: into.append((simulator.now, *args))


class TestDelivery:
    def test_latency_equals_cost(self, small_session):
        network, simulator = make_network(small_session)
        deliveries = []
        network.send(0, 1, arrivals_into(simulator, deliveries), "payload", 7)
        simulator.run()
        assert deliveries == [(small_session.cost_ms(0, 1), "payload", 7)]

    def test_jitter_adds_bounded_delay(self, small_session):
        network, simulator = make_network(small_session, jitter_ms=5.0)
        arrivals = []
        for _ in range(50):
            network.send(0, 1, arrivals_into(simulator, arrivals))
        simulator.run()
        base = small_session.cost_ms(0, 1)
        latencies = [now for now, in arrivals]
        assert all(base <= lat <= base + 5.0 for lat in latencies)
        assert max(latencies) > base  # jitter actually applied

    def test_jitter_is_the_uniform_draw_bit_for_bit(self, small_session):
        """``jitter * random()`` is ``uniform(0, jitter)``: same values,
        same generator words."""
        network, simulator = make_network(small_session, jitter_ms=5.0)
        twin = RngStream(5)
        arrivals = []
        for _ in range(100):
            network.send(0, 1, arrivals_into(simulator, arrivals))
        simulator.run()
        base = small_session.cost_ms(0, 1)
        expected = [base + twin.uniform(0.0, 5.0) for _ in range(100)]
        assert sorted(now for now, in arrivals) == sorted(expected)
        assert network.rng.random() == twin.random()

    def test_infinite_jitter_rejected(self, small_session):
        with pytest.raises(ConfigurationError, match="jitter_ms must be finite"):
            make_network(small_session, jitter_ms=float("inf"))

    def test_loss_drops_messages(self, small_session):
        network, simulator = make_network(small_session, loss_probability=1.0)
        deliveries = []
        network.send(0, 1, arrivals_into(simulator, deliveries), None)
        simulator.run()
        assert deliveries == []
        assert network.dropped == 1
        assert network.sent == 1
        assert network.delivered == 0

    def test_counters(self, small_session):
        network, simulator = make_network(small_session)
        for _ in range(3):
            network.send(0, 2, lambda: None)
        simulator.run()
        assert network.sent == 3
        assert network.delivered == 3

    def test_delivered_counts_arrivals_when_scheduled(self, small_session):
        """``delivered`` counts every arrival the network schedules, a
        duplicate copy included, at send time; the drain lands them all."""
        network, simulator = make_network(small_session, duplicate_probability=1.0)
        arrivals = []
        for _ in range(3):
            network.send(0, 2, arrivals_into(simulator, arrivals))
        assert network.delivered == 6 and arrivals == []
        simulator.run()
        assert len(arrivals) == network.delivered == 6

    def test_forced_drop_draws_nothing(self, small_session):
        network, simulator = make_network(
            small_session, loss_probability=0.5, jitter_ms=5.0
        )
        force_drops(network, lambda kind, attempt, args: args[0] == "drop")
        state = network.rng._random.getstate()
        arrivals = []
        network.send(0, 1, arrivals_into(simulator, arrivals), "drop", 7)
        assert network.rng._random.getstate() == state
        assert network.dropped == network.sent == 1
        simulator.run()
        assert arrivals == []

    def test_self_send_rejected(self, small_session):
        network, _ = make_network(small_session)
        with pytest.raises(SimulationError):
            network.send(1, 1, lambda: None)

    @pytest.mark.parametrize("src, dst", ((-1, 0), (0, -1), (0, 99), (99, 0)))
    def test_sites_outside_the_session_rejected(self, small_session, src, dst):
        """A negative site would wrap around the dense rows; every send
        outside the session raises the session's error, sending nothing."""
        network, simulator = make_network(small_session)
        with pytest.raises(SessionError, match=f"{src}->{dst}"):
            network.send(src, dst, lambda: None)
        assert network.sent == 0 and simulator.pending_events == 0


class TestDuplication:
    def test_certain_duplication_delivers_twice(self, small_session):
        network, simulator = make_network(
            small_session, duplicate_probability=1.0
        )
        deliveries = []
        network.send(0, 1, arrivals_into(simulator, deliveries), "payload")
        simulator.run()
        base = small_session.cost_ms(0, 1)
        assert deliveries == [(base, "payload"), (base, "payload")]
        assert network.duplicated == 1
        assert network.sent == 1
        assert network.delivered == 2

    def test_copy_never_precedes_original(self, small_session):
        network, simulator = make_network(
            small_session, duplicate_probability=1.0, jitter_ms=5.0
        )
        arrivals = []
        for _ in range(20):
            network.send(0, 1, arrivals_into(simulator, arrivals))
        simulator.run()
        assert len(arrivals) == 40
        # Each copy carries the original latency plus its own jitter, so
        # it can only trail its original.
        assert network.duplicated == 20

    def test_bad_probability_rejected(self, small_session):
        with pytest.raises(ConfigurationError):
            make_network(small_session, duplicate_probability=1.5)


@pytest.mark.parametrize(
    "loss, jitter_ms, duplicate",
    ((0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 0.4),
     (0.25, 6.0, 0.3), (1.0, 6.0, 1.0)),
)
def test_both_fronts_share_one_draw_order(small_session, loss, jitter_ms, duplicate):
    """The data plane's network and the control plane's link are two
    fronts over one core: the same seed and rates give the same drops,
    arrival offsets and copies, and leave the stream in the same state."""
    network, data_sim = make_network(
        small_session,
        jitter_ms=jitter_ms,
        loss_probability=loss,
        duplicate_probability=duplicate,
    )
    control_sim = Simulator()
    link = FaultyLink(
        control_sim,
        RngStream(5),
        FaultConfig(loss_rate=loss, jitter_ms=jitter_ms, duplicate_rate=duplicate),
    )
    base = small_session.cost_ms(0, 1)
    data, control = [], []
    for message in range(200):
        network.send(0, 1, arrivals_into(data_sim, data), message)
        link.transmit(
            0, base, lambda m: control.append((control_sim.now, m)), (message,)
        )
    data_sim.run()
    control_sim.run()
    assert data == control
    assert (network.sent, network.delivered, network.dropped, network.duplicated) == (
        link.sent, link.delivered, link.dropped, link.duplicated
    )
    state = network.rng._random.getstate()
    assert state == link.rng._random.getstate()
    if not (loss or jitter_ms or duplicate):
        assert state == RngStream(5)._random.getstate()  # no draws at all
        assert data == [(base, message) for message in range(200)]
