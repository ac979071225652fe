"""Tests for the latency network model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import LatencyNetwork
from repro.util.rng import RngStream


def make_network(small_session, **kwargs) -> tuple[LatencyNetwork, Simulator]:
    simulator = Simulator()
    network = LatencyNetwork(
        session=small_session,
        simulator=simulator,
        rng=RngStream(5),
        **kwargs,
    )
    return network, simulator


class TestDelivery:
    def test_latency_equals_cost(self, small_session):
        network, simulator = make_network(small_session)
        deliveries = []
        network.send(0, 1, "payload", lambda p, lat: deliveries.append((p, lat)))
        simulator.run()
        assert deliveries == [("payload", small_session.cost_ms(0, 1))]
        assert simulator.now == pytest.approx(small_session.cost_ms(0, 1))

    def test_jitter_adds_bounded_delay(self, small_session):
        network, simulator = make_network(small_session, jitter_ms=5.0)
        latencies = []
        for _ in range(50):
            network.send(0, 1, None, lambda _p, lat: latencies.append(lat))
        simulator.run()
        base = small_session.cost_ms(0, 1)
        assert all(base <= lat <= base + 5.0 for lat in latencies)
        assert max(latencies) > base  # jitter actually applied

    def test_infinite_jitter_rejected(self, small_session):
        with pytest.raises(ConfigurationError, match="jitter_ms must be finite"):
            make_network(small_session, jitter_ms=float("inf"))

    def test_loss_drops_messages(self, small_session):
        network, simulator = make_network(small_session, loss_probability=1.0)
        deliveries = []
        network.send(0, 1, None, lambda _p, _l: deliveries.append(1))
        simulator.run()
        assert deliveries == []
        assert network.dropped == 1
        assert network.sent == 1
        assert network.delivered == 0

    def test_counters(self, small_session):
        network, simulator = make_network(small_session)
        for _ in range(3):
            network.send(0, 2, None, lambda _p, _l: None)
        simulator.run()
        assert network.sent == 3
        assert network.delivered == 3

    def test_self_send_rejected(self, small_session):
        network, _ = make_network(small_session)
        with pytest.raises(SimulationError):
            network.send(1, 1, None, lambda _p, _l: None)


class TestDuplication:
    def test_certain_duplication_delivers_twice(self, small_session):
        network, simulator = make_network(
            small_session, duplicate_probability=1.0
        )
        deliveries = []
        network.send(0, 1, "payload", lambda p, lat: deliveries.append((p, lat)))
        simulator.run()
        base = small_session.cost_ms(0, 1)
        assert deliveries == [("payload", base), ("payload", base)]
        assert network.duplicated == 1
        assert network.sent == 1
        assert network.delivered == 2

    def test_copy_never_precedes_original(self, small_session):
        network, simulator = make_network(
            small_session, duplicate_probability=1.0, jitter_ms=5.0
        )
        latencies = []
        for _ in range(20):
            network.send(0, 1, None, lambda _p, lat: latencies.append(lat))
        simulator.run()
        assert len(latencies) == 40
        # Each copy carries the original latency plus its own jitter, so
        # it can only trail its original.
        assert network.duplicated == 20

    def test_bad_probability_rejected(self, small_session):
        with pytest.raises(ConfigurationError):
            make_network(small_session, duplicate_probability=1.5)
