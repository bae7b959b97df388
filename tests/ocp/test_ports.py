"""OCP port unit tests: binding, convenience wrappers, monitors, slave
serialisation."""

import pytest

from repro.interconnect import Fabric
from repro.kernel import Simulator
from repro.memory import MemorySlave, SlaveTimings
from repro.ocp import (
    LatencyMonitor,
    OCPError,
    OCPMasterPort,
    OCPSlavePort,
    RecordingMonitor,
)
from repro.ocp.types import OCPCommand, Request


class _DirectFabric(Fabric):
    """Minimal fabric: hands requests straight to one slave port."""

    def __init__(self, sim, slave_port):
        super().__init__(sim, "direct")
        self.slave_port = slave_port

    def transport(self, master_id, request):
        self._accept(request)
        if not request.is_read:
            yield from self.slave_port.access(request)
            return None
        response = yield from self.slave_port.access(request)
        return response


def make_system(first_beat=2):
    sim = Simulator()
    slave = MemorySlave(sim, "ram", 0x0, 0x1000, SlaveTimings(first_beat, 1))
    slave_port = OCPSlavePort(sim, "ram.port", slave)
    fabric = _DirectFabric(sim, slave_port)
    port = OCPMasterPort(sim, "m0")
    port.bind(fabric, 0)
    return sim, port, slave, slave_port


class TestBinding:
    def test_double_bind_rejected(self):
        sim, port, _, _ = make_system()
        with pytest.raises(OCPError):
            port.bind(object(), 1)

    def test_unbound_transaction_rejected(self):
        sim = Simulator()
        port = OCPMasterPort(sim, "m0")

        def script():
            yield from port.read(0x0)

        sim.spawn(script())
        with pytest.raises(OCPError):
            sim.run()

    def test_is_bound_and_id(self):
        sim, port, _, _ = make_system()
        assert port.is_bound
        assert port.master_id == 0


class TestWrappers:
    def test_read_returns_word(self):
        sim, port, slave, _ = make_system()
        slave.poke(0x10, 42)

        def script():
            value = yield from port.read(0x10)
            return value

        process = sim.spawn(script())
        sim.run()
        assert process.result == 42

    def test_burst_write_then_burst_read(self):
        sim, port, slave, _ = make_system()

        def script():
            yield from port.burst_write(0x20, [9, 8, 7])
            words = yield from port.burst_read(0x20, 3)
            return words

        process = sim.spawn(script())
        sim.run()
        assert process.result == [9, 8, 7]

    def test_transactions_issued_counter(self):
        sim, port, _, _ = make_system()

        def script():
            yield from port.write(0x0, 1)
            yield from port.read(0x0)

        sim.spawn(script())
        sim.run()
        assert port.transactions_issued == 2


class TestMonitors:
    def test_detach(self):
        sim, port, _, _ = make_system()
        monitor = RecordingMonitor()
        port.attach_monitor(monitor)
        port.detach_monitor(monitor)

        def script():
            yield from port.read(0x0)

        sim.spawn(script())
        sim.run()
        assert monitor.events == []

    def test_latency_monitor_aggregates(self):
        sim, port, _, _ = make_system(first_beat=5)
        monitor = LatencyMonitor()
        port.attach_monitor(monitor)

        def script():
            yield from port.read(0x0)
            yield from port.write(0x0, 1)

        sim.spawn(script())
        sim.run()
        assert monitor.request_count == 2
        assert monitor.mean_response_latency >= 5
        assert monitor.max_response_latency >= 5
        assert len(monitor.accept_latencies) == 2

    def test_multiple_monitors_all_notified(self):
        sim, port, _, _ = make_system()
        monitors = [RecordingMonitor(), RecordingMonitor()]
        for monitor in monitors:
            port.attach_monitor(monitor)

        def script():
            yield from port.read(0x0)

        sim.spawn(script())
        sim.run()
        assert len(monitors[0].events) == len(monitors[1].events) == 3


class TestSlavePortSerialisation:
    def test_busy_flag(self):
        sim, port, _, slave_port = make_system(first_beat=10)

        def script():
            yield from port.read(0x0)

        sim.spawn(script())
        sim.run(until=3)
        assert slave_port.busy
        sim.run()
        assert not slave_port.busy
        assert slave_port.accesses_served == 1

    def test_concurrent_accesses_fifo_order(self):
        sim = Simulator()
        slave = MemorySlave(sim, "ram", 0x0, 0x1000, SlaveTimings(5, 1))
        slave_port = OCPSlavePort(sim, "ram.port", slave)
        order = []

        def accessor(tag, delay):
            yield delay
            request = Request(OCPCommand.READ, 0x0)
            yield from slave_port.access(request)
            order.append(tag)

        sim.spawn(accessor("first", 0))
        sim.spawn(accessor("second", 1))
        sim.spawn(accessor("third", 2))
        sim.run()
        assert order == ["first", "second", "third"]
