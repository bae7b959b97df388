"""Kernel perf profile: measure event-loop throughput, write BENCH_kernel.json.

Unlike the pytest-benchmark suite (``bench_simulator_performance.py``),
this is a plain script so CI can run it and archive the numbers::

    python benchmarks/kernel_perf.py --repeats 7 --out BENCH_kernel.json
    python benchmarks/kernel_perf.py --quick

This is a diagnostic and gates nothing: the end-to-end perf gate is
``perfbench/run.py`` (``BENCHMARK.json``), which times the paper's flow
on real platforms.  Absolute events/sec vary machine to machine.

Workloads (all deterministic — same event sequence every run):

* ``event_chain``      — one process sleeping 1 cycle at a time: the bare
  cost of schedule + dispatch + generator resume.
* ``watchdog_churn``   — the PR-1 resilient-TG pattern: every transaction
  schedules a watchdog guard and cancels it on response, so the queue
  fills with tombstones.  This is the workload lazy-deletion targets.
* ``notify_storm``     — a popular signal notified every cycle with many
  waiters: waiter bookkeeping and zero-delay scheduling.
* ``timeout_churn``    — processes blocking on ``timeout()`` signals that
  are notified early: the waiter-removal + event-cancel path.
"""

import argparse
import json
import platform as _platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kernel import Simulator  # noqa: E402


def _noop() -> None:
    pass


def wl_event_chain(n_events: int = 200_000) -> Simulator:
    sim = Simulator()

    def chain():
        for _ in range(n_events):
            yield 1

    sim.spawn(chain(), name="chain")
    sim.run()
    return sim


def wl_watchdog_churn(transactions: int = 40_000, watchdog: int = 1_000,
                      masters: int = 8) -> Simulator:
    """Schedule-then-cancel per transaction, as the resilient TG does."""
    sim = Simulator()
    per_master = transactions // masters

    def master():
        for _ in range(per_master):
            guard = sim.schedule_after(watchdog, _noop)
            yield 1                       # "response" arrives next cycle
            guard.cancel()
            yield 1

    for mid in range(masters):
        sim.spawn(master(), name=f"master{mid}")
    sim.run()
    return sim


def wl_notify_storm(rounds: int = 15_000, waiters: int = 32) -> Simulator:
    sim = Simulator()
    sig = sim.signal("storm")

    def waiter():
        for _ in range(rounds):
            yield sig

    def notifier():
        for _ in range(rounds):
            yield 1
            sig.notify()

    for wid in range(waiters):
        sim.spawn(waiter(), name=f"waiter{wid}")
    sim.spawn(notifier(), name="notifier")
    sim.run()
    return sim


def wl_timeout_churn(rounds: int = 15_000, deadline: int = 500) -> Simulator:
    """Waiters on cancellable timeouts that are always woken early."""
    from repro.kernel.simulator import timeout

    sim = Simulator()
    sig = sim.signal("early")

    def guarded_waiter():
        for _ in range(rounds):
            guard = timeout(sim, deadline)
            yield sig                     # woken before `guard` fires
            guard.cancel()

    def waker():
        for _ in range(rounds):
            yield 1
            sig.notify()

    sim.spawn(guarded_waiter(), name="guarded")
    sim.spawn(waker(), name="waker")
    sim.run()
    return sim


#: name -> (factory, {param overrides for --quick})
WORKLOADS = {
    "event_chain": (wl_event_chain, {"n_events": 60_000}),
    "watchdog_churn": (wl_watchdog_churn, {"transactions": 12_000}),
    "notify_storm": (wl_notify_storm, {"rounds": 4_000}),
    "timeout_churn": (wl_timeout_churn, {"rounds": 5_000}),
}


def _kernel_counters(sim: Simulator) -> dict:
    getter = getattr(sim, "kernel_counters", None)
    if getter is not None:
        return getter()
    return {"events_fired": sim.events_fired}


def run_profile(quick: bool = False, repeats: int = 3) -> dict:
    results = {}
    for name, (factory, quick_params) in WORKLOADS.items():
        kwargs = quick_params if quick else {}
        best = float("inf")
        sim = None
        for _ in range(repeats):
            start = time.perf_counter()
            sim = factory(**kwargs)
            best = min(best, time.perf_counter() - start)
        results[name] = {
            "events": sim.events_fired,
            "sim_cycles": sim.now,
            "wall_s": round(best, 6),
            "events_per_sec": round(sim.events_fired / best, 1),
            "counters": sim.kernel_counters(),
        }
    return {
        "schema": 3,
        "profile": "quick" if quick else "full",
        "repeats": repeats,
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="kernel perf profile -> BENCH_kernel.json")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke profile)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N wall time per workload")
    parser.add_argument("--out", metavar="FILE",
                        help="write the profile as JSON")
    args = parser.parse_args(argv)

    profile = run_profile(quick=args.quick, repeats=args.repeats)
    width = max(len(name) for name in profile["workloads"])
    for name, stats in profile["workloads"].items():
        print(f"{name:<{width}}  {stats['events']:>9,} events  "
              f"{stats['wall_s'] * 1000:8.1f} ms  "
              f"{stats['events_per_sec']:>12,.0f} ev/s")

    if args.out:
        Path(args.out).write_text(json.dumps(profile, indent=2) + "\n")
        print(f"profile written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
