"""STBus- and TLM-specific behaviour (beyond the generic fabric tests)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import MEM_BASE, MEM2_BASE, TinySystem

from repro.kernel import SimulationError
from repro.memory import SlaveTimings
from repro.platform import MparmPlatform, PlatformConfig


class TestSTBusConcurrency:
    def test_disjoint_slaves_proceed_in_parallel(self):
        """Two masters to two slaves: total time ~ one transaction."""
        system = TinySystem("stbus", masters=2,
                            mem_timings=SlaveTimings(first_beat=10))
        ends = {}

        def script(port, base, tag):
            yield from port.read(base)
            ends[tag] = system.sim.now

        system.sim.spawn(script(system.ports[0], MEM_BASE, "a"))
        system.sim.spawn(script(system.ports[1], MEM2_BASE, "b"))
        system.run()
        # on a serialising bus the second read would end ~10 cycles later
        assert abs(ends["a"] - ends["b"]) <= 2

    def test_same_slave_serialises(self):
        system = TinySystem("stbus", masters=2,
                            mem_timings=SlaveTimings(first_beat=10))
        ends = {}

        def script(port, tag):
            yield from port.read(MEM_BASE)
            ends[tag] = system.sim.now

        system.sim.spawn(script(system.ports[0], "a"))
        system.sim.spawn(script(system.ports[1], "b"))
        system.run()
        assert abs(ends["a"] - ends["b"]) >= 10

    def test_per_slave_arbiters_created_lazily(self):
        system = TinySystem("stbus", masters=1)

        def script(port):
            yield from port.read(MEM_BASE)
            yield from port.read(MEM2_BASE)

        system.sim.spawn(script(system.ports[0]))
        system.run()
        assert len(system.fabric._slave_arbiters) == 2

    def test_posted_write_backpressure_on_channel(self):
        """A second write to the same busy slave waits for the channel."""
        system = TinySystem("stbus", masters=2,
                            mem_timings=SlaveTimings(first_beat=20))
        accepts = {}

        def script(port, tag, delay):
            yield delay
            yield from port.write(MEM_BASE, 1)
            accepts[tag] = system.sim.now

        system.sim.spawn(script(system.ports[0], "first", 0))
        system.sim.spawn(script(system.ports[1], "second", 1))
        system.run()
        assert accepts["second"] >= accepts["first"] + 20


BAD_POLICIES = [
    ("tdma", "TDMA needs a non-empty slot table"),
    ("lottery", "unknown arbiter policy 'lottery'"),
]


class TestSTBusArbiterPolicy:
    """A policy the per-slave channels cannot run fails at construction,
    with the error ``make_arbiter`` raises for AHB, not at the first
    transaction."""

    @pytest.mark.parametrize("policy,message", BAD_POLICIES)
    def test_fabric_rejects_policy(self, policy, message):
        with pytest.raises(SimulationError, match=message):
            TinySystem("stbus", arbiter_policy=policy)

    @pytest.mark.parametrize("policy,message", BAD_POLICIES)
    def test_platform_rejects_policy(self, policy, message):
        config = PlatformConfig(n_masters=1, interconnect="stbus",
                                fabric_kwargs={"arbiter_policy": policy})
        with pytest.raises(SimulationError, match=message):
            MparmPlatform(config)


class TestTlmFabric:
    def test_fixed_latency_read(self):
        system = TinySystem("tlm", masters=1, request_latency=3,
                            response_latency=2,
                            mem_timings=SlaveTimings(first_beat=4))
        ends = []

        def script(port):
            yield from port.read(MEM_BASE)
            ends.append(system.sim.now)

        system.sim.spawn(script(system.ports[0]))
        system.run()
        assert ends == [3 + 4 + 2]

    def test_no_contention_between_masters(self):
        """TLM is contention-free: simultaneous reads to the same slave
        only serialise at the slave itself."""
        slow = SlaveTimings(first_beat=6)
        system = TinySystem("tlm", masters=2, mem_timings=slow)
        ends = {}

        def script(port, base, tag):
            yield from port.read(base)
            ends[tag] = system.sim.now

        system.sim.spawn(script(system.ports[0], MEM_BASE, "a"))
        system.sim.spawn(script(system.ports[1], MEM2_BASE, "b"))
        system.run()
        assert ends["a"] == ends["b"]

    def test_zero_latencies_allowed(self):
        system = TinySystem("tlm", masters=1, request_latency=0,
                            response_latency=0,
                            mem_timings=SlaveTimings(first_beat=1))
        ends = []

        def script(port):
            yield from port.read(MEM_BASE)
            ends.append(system.sim.now)

        system.sim.spawn(script(system.ports[0]))
        system.run()
        assert ends == [1]

    def test_posted_write_returns_at_slave_arrival(self):
        system = TinySystem("tlm", masters=1, request_latency=5,
                            mem_timings=SlaveTimings(first_beat=50))
        marks = []

        def script(port):
            yield from port.write(MEM_BASE, 1)
            marks.append(system.sim.now)

        system.sim.spawn(script(system.ports[0]))
        system.run()
        assert marks[0] == 5        # not 55: the write is posted
        assert system.sim.now >= 55  # but the slave still finishes it
        assert system.mem.peek(MEM_BASE) == 1
