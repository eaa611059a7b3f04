"""Tests for the simulated message transport."""

import pytest

from repro.control import SequenceAck, SimTransport
from repro.control.messages import CheckpointRestored
from repro.core.errors import ConfigurationError, SimulationError


@pytest.fixture
def bus():
    t = SimTransport()
    t.register("a")
    t.register("b")
    return t


def ack(n=1):
    return SequenceAck(gpu_id=0, num_tasks=n)


class TestDelivery:
    def test_send_receive(self, bus):
        bus.send("a", "b", ack())
        d = bus.receive("b")
        assert d is not None
        assert d.src == "a" and isinstance(d.message, SequenceAck)

    def test_latency_applied(self, bus):
        delivered = bus.send("a", "b", ack(), at=1.0)
        assert delivered == pytest.approx(1.0 + bus.rpc_latency_s)

    def test_bulk_pays_bandwidth(self, bus):
        msg = CheckpointRestored(0, 1, 0, 0.0, data_bytes=bus.bandwidth)  # 1s
        delivered = bus.send("a", "b", msg, at=0.0)
        assert delivered == pytest.approx(1.0 + bus.rpc_latency_s)

    def test_delivery_order_by_time(self, bus):
        slow = CheckpointRestored(0, 1, 0, 0.0, data_bytes=bus.bandwidth)
        bus.send("a", "b", slow, at=0.0)       # arrives ~1s
        bus.send("a", "b", ack(7), at=0.0)     # arrives ~0.0005s
        first = bus.receive("b")
        assert isinstance(first.message, SequenceAck)

    def test_empty_inbox(self, bus):
        assert bus.receive("b") is None

    def test_drain(self, bus):
        for i in range(3):
            bus.send("a", "b", ack(i))
        out = bus.drain("b")
        assert [d.message.num_tasks for d in out] == [0, 1, 2]
        assert bus.pending("b") == 0


class TestValidation:
    def test_unknown_endpoint(self, bus):
        with pytest.raises(ConfigurationError):
            bus.send("a", "zzz", ack())
        with pytest.raises(ConfigurationError):
            bus.receive("zzz")

    def test_double_register(self, bus):
        with pytest.raises(ConfigurationError):
            bus.register("a")

    def test_send_into_past(self, bus):
        bus.send("a", "b", ack(), at=10.0)
        with pytest.raises(SimulationError):
            bus.send("a", "b", ack(), at=5.0)


class TestStats:
    def test_per_link_counters(self, bus):
        bus.send("a", "b", CheckpointRestored(0, 1, 0, 0.0, data_bytes=1e6))
        bus.send("a", "b", ack())
        s = bus.stats("a", "b")
        assert s.messages == 2
        assert s.payload_bytes == pytest.approx(1e6)
        assert s.control_bytes > 0

    def test_total_stats(self, bus):
        bus.register("c")
        bus.send("a", "b", ack())
        bus.send("a", "c", ack())
        assert bus.total_stats().messages == 2

    def test_unused_link_zero(self, bus):
        assert bus.stats("b", "a").messages == 0
