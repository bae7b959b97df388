"""Kernel perf profile: measure event-loop throughput, write BENCH_kernel.json.

Unlike the pytest-benchmark suite (``bench_simulator_performance.py``),
this is a plain script so CI can run it, archive the numbers, and fail on
regression against the committed baseline::

    python benchmarks/kernel_perf.py --backend both --out BENCH_kernel.json
    python benchmarks/kernel_perf.py --quick --backend both \
        --check BENCH_kernel.json

This is a diagnostic: the end-to-end perf gate is ``perfbench/run.py``
(``BENCHMARK.json``), which times the paper's flow on real platforms.

Workloads (all deterministic — same event sequence every run, and the
same under either backend):

* ``event_chain``      — one process sleeping 1 cycle at a time: the bare
  cost of schedule + dispatch + generator resume.
* ``watchdog_churn``   — the PR-1 resilient-TG pattern: every transaction
  schedules a watchdog guard and cancels it on response, so the queue
  fills with tombstones.  This is the workload lazy-deletion targets.
* ``notify_storm``     — a popular signal notified every cycle with many
  waiters: waiter bookkeeping and zero-delay scheduling (the calendar
  queue's batched same-cycle dispatch shines here).
* ``timeout_churn``    — processes blocking on ``timeout()`` signals that
  are notified early: the waiter-removal + event-cancel path.
* ``snapshot_churn``   — one quiescent warm-up capture, then repeated
  codec round-trip + cross-platform restore: the per-point cost of a
  warm-up-shared sweep (gated separately via ``BENCH_snapshot.json``).

``--workloads a,b`` restricts a run to a subset, so CI can gate the
snapshot path against its own committed baseline without re-measuring
the event-loop workloads.

``--backend both`` runs every workload under the classic heap engine and
the fast calendar-queue engine, records the ``speedup`` ratio per
workload, and verifies both engines fired identical event counts.

Regression checking is **machine-relative**: ``--check`` compares each
workload's fast/classic *speedup ratio* against the baseline's ratio and
fails when it shrinks by more than ``--max-regress``.  Absolute events/sec
are recorded and printed but never gated on — they vary machine to
machine, so a committed baseline from one host would spuriously fail (or
spuriously pass) on another.
"""

import argparse
import json
import platform as _platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kernel import KERNEL_BACKENDS, Simulator  # noqa: E402


def _noop() -> None:
    pass


def wl_event_chain(n_events: int = 200_000,
                   backend: str = "classic") -> Simulator:
    sim = Simulator(backend=backend)

    def chain():
        for _ in range(n_events):
            yield 1

    sim.spawn(chain(), name="chain")
    sim.run()
    return sim


def wl_watchdog_churn(transactions: int = 40_000, watchdog: int = 1_000,
                      masters: int = 8,
                      backend: str = "classic") -> Simulator:
    """Schedule-then-cancel per transaction, as the resilient TG does."""
    sim = Simulator(backend=backend)
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


def wl_notify_storm(rounds: int = 15_000, waiters: int = 32,
                    backend: str = "classic") -> Simulator:
    sim = Simulator(backend=backend)
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


def wl_timeout_churn(rounds: int = 15_000, deadline: int = 500,
                     backend: str = "classic") -> Simulator:
    """Waiters on cancellable timeouts that are always woken early."""
    from repro.kernel.simulator import timeout

    sim = Simulator(backend=backend)
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


def wl_snapshot_churn(rounds: int = 40, warmup: int = 400,
                      backend: str = "classic") -> Simulator:
    """The warm-up-sharing hot path: restore N platforms from one snap.

    Captures one quiescent warm-up snapshot of a small synthetic
    workload, then repeatedly codec-round-trips it (the worker reads
    the ``.snap`` from disk) and fast-forwards a fresh platform from
    it — exactly what every point of a warm-up-shared sweep does.  The
    last restored platform is run to completion so the backends'
    events/cycles equality check still applies (restore overwrites the
    kernel counters with the captured values, so the totals are
    deterministic).
    """
    from repro.apps.synthetic import TrafficSpec, synthetic_programs
    from repro.artifacts.snap import dump_snap, load_snap_bytes
    from repro.harness.checkpoint import fast_forward, warmup_snapshot

    spec = TrafficSpec.from_dict({"n_cores": 2, "pattern": "uniform",
                                  "load": 0.4, "transactions": 30,
                                  "seed": 11})
    programs, _ = synthetic_programs(spec)
    overrides = {"backend": backend}
    payload = warmup_snapshot(programs, 2, warmup, "tlm", overrides)
    text = dump_snap(payload).encode("utf-8")
    platform = None
    for _ in range(rounds):
        restored = load_snap_bytes(text).value
        platform = fast_forward(restored, interconnect="tlm",
                                config_overrides=overrides)
    platform.run()
    return platform.sim


#: name -> (factory, {param overrides for --quick})
WORKLOADS = {
    "event_chain": (wl_event_chain, {"n_events": 60_000}),
    "watchdog_churn": (wl_watchdog_churn, {"transactions": 12_000}),
    "notify_storm": (wl_notify_storm, {"rounds": 4_000}),
    "timeout_churn": (wl_timeout_churn, {"rounds": 5_000}),
    "snapshot_churn": (wl_snapshot_churn, {"rounds": 12}),
}


def _kernel_counters(sim: Simulator) -> dict:
    getter = getattr(sim, "kernel_counters", None)
    if getter is not None:
        return getter()
    return {"events_fired": sim.events_fired}


def run_profile(quick: bool = False, repeats: int = 3,
                backends=("classic",), workloads=None) -> dict:
    results = {}
    selected = {name: WORKLOADS[name] for name in (workloads or WORKLOADS)}
    for name, (factory, quick_params) in selected.items():
        kwargs = quick_params if quick else {}
        per_backend = {}
        for backend in backends:
            best = float("inf")
            sim = None
            for _ in range(repeats):
                start = time.perf_counter()
                sim = factory(backend=backend, **kwargs)
                best = min(best, time.perf_counter() - start)
            per_backend[backend] = {
                "events": sim.events_fired,
                "sim_cycles": sim.now,
                "wall_s": round(best, 6),
                "events_per_sec": round(sim.events_fired / best, 1),
                "counters": _kernel_counters(sim),
            }
        row = {"backends": per_backend}
        if "classic" in per_backend and "fast" in per_backend:
            classic = per_backend["classic"]
            fast = per_backend["fast"]
            # the backends must simulate the *same* run before their
            # wall-clocks are comparable at all
            for field in ("events", "sim_cycles"):
                if classic[field] != fast[field]:
                    raise AssertionError(
                        f"{name}: backend divergence — classic {field} "
                        f"{classic[field]} != fast {field} {fast[field]}")
            row["speedup"] = round(
                fast["events_per_sec"] / classic["events_per_sec"], 3)
        results[name] = row
    return {
        "schema": 2,
        "profile": "quick" if quick else "full",
        "repeats": repeats,
        "backends": list(backends),
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "workloads": results,
    }


def check_regression(current: dict, baseline: dict,
                     max_regress: float) -> list:
    """Machine-relative regression check; returns failure strings.

    Compares the fast/classic speedup *ratio* per workload — a property
    of the code, not the host — so a baseline committed from one machine
    gates runs on any other.  Workloads without a ratio on either side
    (single-backend profiles, pre-schema-2 baselines) are skipped; the
    absolute events/sec numbers in the baseline are informational only.
    """
    failures = []
    base_wl = baseline.get("workloads", {})
    for name, row in current["workloads"].items():
        speedup = row.get("speedup")
        base_speedup = (base_wl.get(name) or {}).get("speedup")
        if speedup is None or base_speedup is None:
            continue
        if speedup < base_speedup * (1.0 - max_regress):
            failures.append(
                f"{name}: fast/classic speedup {speedup:.2f}x is "
                f"{1.0 - speedup / base_speedup:.0%} below baseline "
                f"{base_speedup:.2f}x (budget {max_regress:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="kernel perf profile -> BENCH_kernel.json")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke profile)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N wall time per workload")
    parser.add_argument("--backend", default="classic",
                        choices=sorted(KERNEL_BACKENDS) + ["both"],
                        help="kernel engine(s) to profile; 'both' also "
                             "records the per-workload speedup ratio")
    parser.add_argument("--out", metavar="FILE",
                        help="write the profile as JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare the fast/classic speedup ratio "
                             "against a baseline JSON (machine-relative; "
                             "absolute ev/s is informational only)")
    parser.add_argument("--max-regress", type=float, default=0.30,
                        help="fail --check when a workload's speedup "
                             "ratio shrinks by more than this fraction "
                             "(default 0.30)")
    parser.add_argument("--workloads", metavar="LIST", default=None,
                        help="comma-separated subset of workloads to run "
                             "(default: all of "
                             + ",".join(WORKLOADS) + ")")
    args = parser.parse_args(argv)

    workloads = None
    if args.workloads is not None:
        workloads = [name.strip() for name in args.workloads.split(",")
                     if name.strip()]
        unknown = sorted(set(workloads) - set(WORKLOADS))
        if unknown:
            parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(WORKLOADS)}")

    backends = ("classic", "fast") if args.backend == "both" \
        else (args.backend,)
    profile = run_profile(quick=args.quick, repeats=args.repeats,
                          backends=backends, workloads=workloads)
    width = max(len(name) for name in profile["workloads"])
    for name, row in profile["workloads"].items():
        for backend, stats in row["backends"].items():
            print(f"{name:<{width}}  {backend:<7}  "
                  f"{stats['events']:>9,} events  "
                  f"{stats['wall_s'] * 1000:8.1f} ms  "
                  f"{stats['events_per_sec']:>12,.0f} ev/s")
        speedup = row.get("speedup")
        if speedup is not None:
            print(f"{name:<{width}}  speedup  fast = {speedup:.2f}x classic")

    if args.out:
        Path(args.out).write_text(json.dumps(profile, indent=2) + "\n")
        print(f"profile written to {args.out}")

    status = 0
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_regression(profile, baseline, args.max_regress)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"regression check OK against {args.check} "
                  f"(speedup-ratio budget {args.max_regress:.0%})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
