"""Simulator-performance microbenchmarks (not a paper experiment).

Tracks the raw speed of the layers everything else is built on, so
regressions in the kernel or the bus model show up in benchmark history:

* event throughput of the bare kernel;
* process context-switch rate;
* watchdog-churn (schedule+cancel per transaction) and notify-storm
  kernel workloads — the standalone profile in ``kernel_perf.py`` runs
  the same factories and writes the ``BENCH_kernel.json`` diagnostic;
* AHB transactions per second under contention;
* armlet instructions per second.
"""

import pytest

from benchmarks.kernel_perf import wl_notify_storm, wl_watchdog_churn
from repro.kernel import Simulator
from repro.platform import MparmPlatform, PlatformConfig


@pytest.mark.benchmark(group="simulator-performance")
def test_kernel_event_throughput(benchmark):
    def run_events():
        sim = Simulator()
        count = 20_000

        def chain():
            for _ in range(count):
                yield 1

        sim.spawn(chain())
        sim.run()
        return sim.events_fired

    events = benchmark(run_events)
    assert events >= 20_000


@pytest.mark.benchmark(group="simulator-performance")
def test_signal_notify_throughput(benchmark):
    def run_signals():
        sim = Simulator()
        sig = sim.signal()
        rounds = 5_000

        def waiter():
            for _ in range(rounds):
                yield sig

        def notifier():
            for _ in range(rounds):
                yield 1
                sig.notify()

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        return sim.now

    benchmark(run_signals)


@pytest.mark.benchmark(group="simulator-performance")
def test_watchdog_churn_throughput(benchmark):
    """The PR-1 resilience pattern: a guard event per transaction,
    cancelled on response.  Tombstone compaction keeps the heap near its
    live size; this tracks that the pattern stays cheap."""
    def run_churn():
        sim = wl_watchdog_churn(transactions=8_000)
        return sim

    sim = benchmark(run_churn)
    assert sim.events_cancelled == 8_000
    assert sim.heap_compactions >= 1


@pytest.mark.benchmark(group="simulator-performance")
def test_notify_storm_throughput(benchmark):
    """A popular signal notified every cycle with many waiters."""
    def run_storm():
        sim = wl_notify_storm(rounds=2_000, waiters=32)
        return sim.events_fired

    events = benchmark(run_storm)
    assert events > 60_000


@pytest.mark.benchmark(group="simulator-performance")
def test_ahb_transaction_rate(benchmark):
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "tests"))
    from helpers import MEM_BASE, TinySystem

    def run_bus():
        system = TinySystem("ahb", masters=4)

        def hammer(port, base):
            for i in range(250):
                yield from port.write(base + (i % 64) * 4, i)

        for master_id, port in enumerate(system.ports):
            system.sim.spawn(hammer(port, MEM_BASE + master_id * 0x400))
        system.run()
        return system.fabric.stats.transactions

    transactions = benchmark(run_bus)
    assert transactions == 1000


@pytest.mark.benchmark(group="simulator-performance")
def test_armlet_instruction_rate(benchmark):
    from repro.apps import cacheloop

    def run_core():
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        core = platform.add_core(cacheloop.source(0, 1, iters=2_000))
        platform.run()
        return core.cpu.instructions_executed

    instructions = benchmark(run_core)
    assert instructions > 10_000
