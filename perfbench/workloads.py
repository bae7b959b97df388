"""The benchmark's phases and its three workloads.

A *phase* drives one step of the paper's flow through the program's
public API and returns its host wall time; a *workload* is a list of
phases run round after round for the measuring window.  Every phase
checks its simulated outputs against :mod:`pinned`.

All phases run mp_matrix on 4 cores with the default platform config
and kernel backend.  A workload runs its own phases at mp_matrix's
default size ``OWN`` (n=8).  The benchmark contract asks every workload
for every end-to-end metric, so the phases that belong to the other
workloads run alongside at the smaller ``PROBE`` size (n=4): they keep
each metric defined everywhere and let a change to a shared layer
register on every workload.
"""

import gc
import hashlib
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.apps import mp_matrix
from repro.apps.common import pollable_ranges
from repro.artifacts.snap import dump_snap, load_snap_bytes
from repro.core import ReplayMode
from repro.core.assembler import assemble_binary, disassemble_binary
from repro.harness import build_tg_platform, reference_run
from repro.harness.checkpoint import (
    CheckpointManager,
    checkpointed_run,
    fast_forward,
    load_snapshot,
    platform_recipe,
    restore_platform,
    warmup_snapshot,
)
from repro.trace import Translator, TranslatorOptions

from hostspeed import REFERENCE_S, reference_seconds
from pinned import Checks
from tracing import NullRecorder, Recorder, profile_shares

CORES = 4
OWN = 8
PROBE = 4
FABRICS = ("ahb", "stbus", "xpipes")
RESTORE_FABRICS = ("ahb", "stbus")
#: Checkpoint cadence and nominal warm-up boundary (cycles) per size.  The
#: seed adds an offset below ``JITTER`` to the warm-up boundary and starts
#: the checkpoint cadence that many cycles in, so each seed restores and
#: captures different queue contents while the snapshot count stays put.
CADENCE = {OWN: 1000, PROBE: 300}
WARMUP = {OWN: 2500, PROBE: 800}
JITTER = {OWN: 200, PROBE: 60}
#: Cross-fabric fast-forward runs its warm-up on TLM, so it cannot end on
#: the cold run's cycles; it must come within this share of them.
FAST_FORWARD_TOLERANCE = 0.10
SETUP_REPEATS = 3
#: Run in a fresh interpreter: the program import between two reference
#: loops (after one that warms the loop up).
IMPORT_PROBE = ("import time; "
                "from hostspeed import reference_seconds; "
                "reference_seconds(); before = reference_seconds(); "
                "start = time.perf_counter(); "
                "import repro.harness.checkpoint, repro.apps.mp_matrix, "
                "repro.artifacts.snap; "
                "seconds = time.perf_counter() - start; "
                "print((before + reference_seconds()) / 2, seconds)")

#: End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"), ("flow_s", "s"), ("arm_run_s", "s"),
    ("tg_run_ahb_s", "s"), ("tg_run_stbus_s", "s"), ("tg_run_xpipes_s", "s"),
    ("checkpointed_run_s", "s"), ("fanout_s", "s"), ("peak_rss_mb", "MB"),
]

#: Per-layer metrics: (name, unit).
PER_LAYER = (
    [("trace.traced_ref_s", "s"), ("trace.collect_overhead", "ratio"),
     ("trace.translate_s", "s"), ("trace.tgp_instructions", "count"),
     ("core.assemble_s", "s"), ("core.disassemble_s", "s"),
     ("core.bin_bytes", "B"), ("kernel.ref_events", "count"),
     ("sim.arm_cycles", "cycles"), ("cycle_error_pct.flow", "%")]
    + [(f"platform.tg_build_s.{f}", "s") for f in FABRICS]
    + [(f"{name}.{f}", unit) for name, unit in (
        ("kernel.events", "count"), ("kernel.events_per_s", "1/s"),
        ("kernel.host_us_per_kcycle", "us/kcycle"),
        ("kernel.peak_heap_size", "count"),
        ("interconnect.transactions", "count"),
        ("interconnect.beats", "count"), ("sim.tg_cycles", "cycles"),
        ("cycle_error_pct", "%")) for f in FABRICS]
    + [("interconnect.ahb.bus_utilisation", "ratio")]
    + [("harness.warmup_s", "s"), ("harness.warmup_cycle", "cycles"),
       ("harness.capture_s", "s"), ("harness.save_s", "s"),
       ("harness.snapshots_written", "count"),
       ("artifacts.snap_bytes", "B"), ("artifacts.encode_s", "s"),
       ("artifacts.decode_s", "s")]
    + [(f"harness.restore_s.{f}", "s") for f in RESTORE_FABRICS]
    + [(f"platform.run_after_restore_s.{f}", "s") for f in RESTORE_FABRICS]
    + [("gain.paper", "ratio"), ("gain.paper.arm_s", "s"),
       ("gain.paper.tg_s", "s"), ("gain.trace", "ratio"),
       ("gain.trace.ref_s", "s"), ("gain.trace.tg_run_s", "s"),
       ("gain.event", "ratio"), ("gain.event.ref_events", "count"),
       ("gain.event.tg_events", "count")]
    + [(f"share.{layer}", "%") for layer in (
        "kernel", "interconnect", "ocp", "core", "memory", "cpu", "trace",
        "platform", "harness", "artifacts", "other")]
    + [("tracing.untraced_round_s", "s"), ("tracing.traced_round_s", "s"),
       ("tracing.overhead_pct", "%"), ("tracing.spans", "count")]
    + [("host.reference_loop_s", "s")]
    + [(f"wall.{name}", unit) for name, unit in END_TO_END
       if name not in ("setup_s", "peak_rss_mb")]
)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


median = statistics.median


def normalised(samples: List[Tuple[float, float]]) -> float:
    """Median of (wall, reference loop) samples as seconds at the
    reference host speed (see :mod:`hostspeed`).  The reference of a
    sample is the mean of the loops timed just before and just after it."""
    return median([wall / reference for wall, reference in samples]) \
        * REFERENCE_S


def error_pct(tg_cycles: int, arm_cycles: int) -> float:
    return 100.0 * abs(tg_cycles - arm_cycles) / arm_cycles


class Env:
    """Per-run state: inputs made from the seed, programs, checks, facts."""

    def __init__(self, pins: dict, seed: int, workdir: str):
        rng = random.Random(seed)
        self.pins = pins
        self.checks = Checks()
        self.workdir = workdir
        self.warmup = {n: WARMUP[n] + rng.randrange(JITTER[n])
                       for n in (OWN, PROBE)}
        self.cadence_phase = {n: 1 + rng.randrange(JITTER[n])
                              for n in (OWN, PROBE)}
        self.programs: Dict[int, dict] = {}
        #: deterministic per-layer values (counts, cycles, ratios); names
        #: starting with "_" are inputs to derived metrics, not reported
        self.facts: Dict[str, float] = {}
        #: the first round's fast-forward cycles, to check later rounds
        self.fast_forward_cycles: Dict[Tuple[int, str], int] = {}
        self.rounds = 0
        self._dirs = 0

    def fresh_dir(self, name: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{name}-{self._dirs}")
        os.makedirs(path)
        return path


def translate(collectors, rec) -> Tuple[dict, dict]:
    """Trace → ``.tgp`` → ``.bin`` → program, as the paper's flow does."""
    translator = Translator(TranslatorOptions(
        mode=ReplayMode.REACTIVE, pollable_ranges=pollable_ranges(CORES)))
    with rec.span("Translator.translate_events", "trace",
                  "trace.translate_s"):
        programs = {master: translator.translate_events(collector.events,
                                                        master)
                    for master, collector in sorted(collectors.items())}
    with rec.span("assemble_binary", "core", "core.assemble_s"):
        images = {master: assemble_binary(program)
                  for master, program in programs.items()}
    with rec.span("disassemble_binary", "core", "core.disassemble_s"):
        decoded = {master: disassemble_binary(image)
                   for master, image in images.items()}
    return decoded, images


def check_programs(env: Env, what: str, n: int, programs: dict,
                   images: dict) -> None:
    pins = env.pins[n]
    for master in sorted(programs):
        env.checks.expect(f"{what} master {master} .tgp sha256",
                          sha256(programs[master].to_tgp()),
                          pins["tgp_sha256"][master])
        env.checks.expect(f"{what} master {master} .bin sha256",
                          sha256(images[master]),
                          pins["bin_sha256"][master])


def check_replay(env: Env, n: int, fabric: str, platform) -> None:
    got = (platform.cumulative_execution_time, platform.sim.events_fired,
           platform.fabric.stats.transactions,
           platform.fabric.stats.beats_transferred)
    for label, value, want in zip(
            ("cycles", "events", "transactions", "beats"), got,
            env.pins[n]["replay"][fabric]):
        env.checks.expect(f"n={n} TG on {fabric} {label}", value, want)


# ---------------------------------------------------------------- set-up

def import_sample(root: str) -> Tuple[float, float]:
    """(import time, reference loop time) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__)),
        env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    reference, seconds = done.stdout.split()[-2:]
    return float(seconds), float(reference)


def prepare_programs(env: Env, n: int) -> dict:
    """Trace mp_matrix on TLM and translate it: the replay phases' input."""
    reference, collectors, _ = reference_run(mp_matrix, CORES, "tlm",
                                             {"n": n})
    programs, images = translate(collectors, NullRecorder())
    env.checks.expect(f"n={n} ARM on tlm",
                      (reference.cumulative_execution_time,
                       reference.sim.events_fired), env.pins[n]["arm"]["tlm"])
    check_programs(env, f"n={n} TLM-traced", n, programs, images)
    return programs


def setup(env: Env, sizes: Tuple[int, ...], root: str) -> float:
    """Set-up time: program import plus the replay inputs, each a median."""
    imports = [import_sample(root) for _ in range(SETUP_REPEATS)]
    prepare = []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        programs = {n: prepare_programs(env, n) for n in sizes}
        seconds = time.perf_counter() - start
        after = reference_seconds()
        prepare.append((seconds, (before + after) / 2))
        before = after
    env.programs = programs
    return normalised(imports) + normalised(prepare)


# ---------------------------------------------------------------- phases

def phase_flow(env: Env, rec, n: int) -> Dict[str, float]:
    """The paper's flow: traced AHB reference, translate, .bin round trip,
    TG build and TG run on AHB."""
    gc.collect()
    start = time.perf_counter()
    with rec.span("phase.flow", "perfbench", n=n):
        with rec.span("reference_run", "harness", "trace.traced_ref_s"):
            reference, collectors, _ = reference_run(mp_matrix, CORES, "ahb",
                                                     {"n": n})
        programs, images = translate(collectors, rec)
        with rec.span("build_tg_platform", "harness", "flow.tg_build_s"):
            platform = build_tg_platform(programs, CORES, "ahb")
        with rec.span("MparmPlatform.run", "platform", "flow.tg_run_s"):
            platform.run()
    elapsed = time.perf_counter() - start
    env.checks.expect(f"n={n} traced ARM on ahb",
                      (reference.cumulative_execution_time,
                       reference.sim.events_fired), env.pins[n]["arm"]["ahb"])
    check_programs(env, f"n={n} AHB-traced", n, programs, images)
    check_replay(env, n, "ahb", platform)
    env.facts.update({
        "kernel.ref_events": reference.sim.events_fired,
        "sim.arm_cycles": reference.cumulative_execution_time,
        "trace.tgp_instructions": sum(len(program.instructions)
                                      for program in programs.values()),
        "core.bin_bytes": sum(len(image) for image in images.values()),
        "cycle_error_pct.flow": error_pct(
            platform.cumulative_execution_time,
            reference.cumulative_execution_time),
        "gain.event.ref_events": reference.sim.events_fired,
        "gain.event.tg_events": platform.sim.events_fired,
    })
    return {"flow_s": elapsed}


def phase_arm(env: Env, rec, n: int) -> Dict[str, float]:
    """The untraced ARM reference on AHB: the paper's gain denominator."""
    gc.collect()
    start = time.perf_counter()
    with rec.span("phase.arm_run", "perfbench", n=n):
        with rec.span("reference_run", "harness", "arm.ref_s"):
            reference, _, _ = reference_run(mp_matrix, CORES, "ahb",
                                            {"n": n}, collect=False)
    elapsed = time.perf_counter() - start
    env.checks.expect(f"n={n} untraced ARM on ahb",
                      (reference.cumulative_execution_time,
                       reference.sim.events_fired), env.pins[n]["arm"]["ahb"])
    return {"arm_run_s": elapsed}


def phase_replay(env: Env, rec, n: int, fabric: str) -> Dict[str, float]:
    """TG build plus run of the TLM-traced programs on one fabric."""
    programs = env.programs[n]
    gc.collect()
    start = time.perf_counter()
    with rec.span("phase.tg_run", "perfbench", n=n, fabric=fabric):
        with rec.span("build_tg_platform", "harness",
                      f"platform.tg_build_s.{fabric}"):
            platform = build_tg_platform(programs, CORES, fabric)
        with rec.span("MparmPlatform.run", "platform", f"run_s.{fabric}"):
            platform.run()
    elapsed = time.perf_counter() - start
    check_replay(env, n, fabric, platform)
    stats = platform.fabric.stats
    env.facts.update({
        f"kernel.events.{fabric}": platform.sim.events_fired,
        f"kernel.peak_heap_size.{fabric}":
            platform.sim.kernel_counters()["peak_heap_size"],
        f"interconnect.transactions.{fabric}": stats.transactions,
        f"interconnect.beats.{fabric}": stats.beats_transferred,
        f"sim.tg_cycles.{fabric}": platform.cumulative_execution_time,
        f"_sim_now.{fabric}": platform.sim.now,
        f"cycle_error_pct.{fabric}": error_pct(
            platform.cumulative_execution_time,
            env.pins[n]["arm"][fabric][0]),
    })
    if fabric == "ahb":
        env.facts["interconnect.ahb.bus_utilisation"] = \
            platform.fabric.utilisation()
    return {f"tg_run_{fabric}_s": elapsed}


class SpanningManager:
    """Delegates to a :class:`CheckpointManager`, one span per save."""

    def __init__(self, manager: CheckpointManager, rec):
        self.manager = manager
        self.rec = rec
        self.saved = 0

    def save(self, payload: dict) -> str:
        with self.rec.span("CheckpointManager.save", "harness",
                           "harness.save_s", cycle=payload["cycle"]):
            path = self.manager.save(payload)
        self.saved += 1
        return path


def phase_checkpointed(env: Env, rec, n: int) -> Dict[str, float]:
    """A TG run on AHB writing a .snap checkpoint every CADENCE cycles."""
    programs = env.programs[n]
    manager = SpanningManager(CheckpointManager(env.fresh_dir("ckpt")), rec)
    gc.collect()
    start = time.perf_counter()
    with rec.span("phase.checkpointed_run", "perfbench", n=n):
        with rec.span("build_tg_platform", "harness"):
            platform = build_tg_platform(programs, CORES, "ahb")
            recipe = platform_recipe(programs, CORES, "ahb")
        with rec.span("MparmPlatform.run", "platform",
                      until=env.cadence_phase[n]):
            platform.run(until=env.cadence_phase[n])
        with rec.span("checkpointed_run", "harness"):
            checkpointed_run(platform, recipe, manager, CADENCE[n])
    elapsed = time.perf_counter() - start
    cold = env.pins[n]["replay"]["ahb"][0]
    env.checks.expect(f"n={n} checkpointed run cycles",
                      platform.cumulative_execution_time, cold)
    env.facts["harness.snapshots_written"] = manager.saved
    restored = restore_platform(load_snapshot(manager.manager.latest()))
    restored.run()
    env.checks.expect(f"n={n} run restored from the last checkpoint",
                      restored.cumulative_execution_time, cold)
    return {"checkpointed_run_s": elapsed}


def phase_fanout(env: Env, rec, n: int) -> Dict[str, float]:
    """Warm up on TLM, round-trip the .snap, finish on AHB and on STBus."""
    programs = env.programs[n]
    finished = {}
    gc.collect()
    start = time.perf_counter()
    with rec.span("phase.fanout", "perfbench", n=n):
        with rec.span("warmup_snapshot", "harness", "harness.warmup_s"):
            payload = warmup_snapshot(programs, CORES, env.warmup[n], "tlm")
        with rec.span("dump_snap", "artifacts", "artifacts.encode_s"):
            data = dump_snap(payload).encode()
        with rec.span("load_snap_bytes", "artifacts", "artifacts.decode_s"):
            decoded = load_snap_bytes(data).value
        for fabric in RESTORE_FABRICS:
            with rec.span("fast_forward", "harness",
                          f"harness.restore_s.{fabric}"):
                platform = fast_forward(decoded, interconnect=fabric)
            with rec.span("MparmPlatform.run", "platform",
                          f"platform.run_after_restore_s.{fabric}"):
                platform.run()
            finished[fabric] = platform.cumulative_execution_time
    elapsed = time.perf_counter() - start
    checks = env.checks
    checks.expect(f"n={n} .snap decode re-encodes byte-identically",
                  dump_snap(decoded).encode() == data, True)
    for fabric, cycles in finished.items():
        cold = env.pins[n]["replay"][fabric][0]
        checks.expect_within(f"n={n} fast-forward onto {fabric} cycles",
                             cycles, cold, FAST_FORWARD_TOLERANCE)
        first = env.fast_forward_cycles.setdefault((n, fabric), cycles)
        checks.expect(f"n={n} fast-forward onto {fabric} is deterministic",
                      cycles, first)
    env.facts["artifacts.snap_bytes"] = len(data)
    env.facts["harness.warmup_cycle"] = payload["cycle"]
    return {"fanout_s": elapsed}


def probe_capture(env: Env, rec, n: int) -> None:
    """Traced runs only: time one ``MparmPlatform.snapshot`` capture on
    AHB at the warm-up boundary (``checkpointed_run`` captures internally,
    out of reach of a span)."""
    programs = env.programs[n]
    platform = build_tg_platform(programs, CORES, "ahb")
    recipe = platform_recipe(programs, CORES, "ahb")
    platform.run(until=env.warmup[n])
    with rec.span("MparmPlatform.snapshot", "platform", "harness.capture_s"):
        platform.snapshot(recipe)


# ------------------------------------------------------------- workloads

def _replays(n: int) -> List[Tuple[Callable, tuple]]:
    return [(phase_replay, (n, fabric)) for fabric in FABRICS]


Workload = List[Tuple[Callable, tuple]]

#: The phases of one round, in order; why each workload exists is in
#: BENCHMARK.json and perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    "paper_flow":
        [(phase_flow, (OWN,)), (phase_arm, (OWN,))] + _replays(PROBE)
        + [(phase_checkpointed, (PROBE,)), (phase_fanout, (PROBE,))],
    "fabric_replay":
        _replays(OWN) + [(phase_flow, (PROBE,)), (phase_arm, (PROBE,)),
                         (phase_checkpointed, (PROBE,)),
                         (phase_fanout, (PROBE,))],
    "checkpoint_fanout":
        [(phase_checkpointed, (OWN,)), (phase_fanout, (OWN,)),
         (phase_flow, (PROBE,)), (phase_arm, (PROBE,))] + _replays(PROBE),
}


def program_sizes(workload: Workload) -> Tuple[int, ...]:
    """Sizes whose TLM-traced programs the workload's phases replay."""
    return tuple(sorted({args[0] for phase, args in workload
                         if phase in (phase_replay, phase_checkpointed,
                                      phase_fanout)}))


def checkpoint_size(workload: Workload) -> int:
    return next(args[0] for phase, args in workload
                if phase is phase_checkpointed)


def run_round(workload: Workload, env: Env, rec,
              samples: Dict[str, List[Tuple[float, float]]]) -> None:
    """One pass over the workload's phases; each phase's wall time goes
    to ``samples`` beside the reference loops timed around it."""
    env.rounds += 1
    before = reference_seconds()
    for phase, args in workload:
        walls = phase(env, rec, *args)
        after = reference_seconds()
        for key, wall in walls.items():
            samples.setdefault(key, []).append((wall, (before + after) / 2))
        before = after


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, env: Env, seconds: float,
            setup_s: float) -> Dict[str, float]:
    """The untraced run: every end-to-end metric, each a median over
    the rounds that fit in ``seconds``, at the reference host speed."""
    samples: Dict[str, List[Tuple[float, float]]] = {}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(workload, env, NullRecorder(), samples)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    metrics = {key: normalised(values) for key, values in samples.items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def measure_traced(workload: Workload, env: Env, seconds: float,
                   rec: Recorder) -> Dict[str, float]:
    """The traced run: untraced and traced rounds alternate for
    ``seconds``, then one profiled round gives the layer shares."""
    untraced: List[float] = []
    traced: List[float] = []
    samples: Dict[str, List[Tuple[float, float]]] = {}
    start = time.perf_counter()
    while True:
        for sink, recorder, into in ((untraced, NullRecorder(), samples),
                                     (traced, rec, {})):
            round_start = time.perf_counter()
            run_round(workload, env, recorder, into)
            sink.append(time.perf_counter() - round_start)
        probe_capture(env, rec, checkpoint_size(workload))
        now = time.perf_counter()
        if now - start + untraced[-1] + traced[-1] > seconds:
            break
    shares = profile_shares(lambda: [phase(env, NullRecorder(), *args)
                                     for phase, args in workload])

    def span_median(key: str) -> float:
        return median(rec.durations(key))

    facts = env.facts
    metrics: Dict[str, float] = {
        name: value for name, value in facts.items()
        if not name.startswith("_")}
    for name, _unit in PER_LAYER:
        if rec.durations(name):
            metrics[name] = span_median(name)
    for fabric in FABRICS:
        run_s = span_median(f"run_s.{fabric}")
        metrics[f"kernel.events_per_s.{fabric}"] = \
            facts[f"kernel.events.{fabric}"] / run_s
        metrics[f"kernel.host_us_per_kcycle.{fabric}"] = \
            run_s * 1e6 / (facts[f"_sim_now.{fabric}"] / 1000.0)
    arm_s = span_median("arm.ref_s")
    traced_ref_s = span_median("trace.traced_ref_s")
    tg_run_s = span_median("flow.tg_run_s")
    tg_s = span_median("flow.tg_build_s") + tg_run_s
    metrics.update({
        "trace.collect_overhead": traced_ref_s / arm_s,
        "gain.paper": arm_s / tg_s, "gain.paper.arm_s": arm_s,
        "gain.paper.tg_s": tg_s,
        "gain.trace": traced_ref_s / tg_run_s,
        "gain.trace.ref_s": traced_ref_s, "gain.trace.tg_run_s": tg_run_s,
        "gain.event": facts["gain.event.ref_events"]
        / facts["gain.event.tg_events"],
    })
    metrics.update({f"share.{layer}": share
                    for layer, share in shares.items()})
    untraced_s, traced_s = median(untraced), median(traced)
    metrics.update({
        "tracing.untraced_round_s": untraced_s,
        "tracing.traced_round_s": traced_s,
        "tracing.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "tracing.spans": len(rec.spans),
        "host.reference_loop_s": median([
            reference for values in samples.values()
            for _, reference in values]),
    })
    metrics.update({f"wall.{key}": median([wall for wall, _ in values])
                    for key, values in samples.items()})
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str, pins: dict) -> Tuple[Env, Dict[str, float]]:
    """Set up and measure one workload; returns the run state and metrics.

    Checkpoints go to a scratch directory inside ``root`` that is removed
    afterwards; a traced run writes its spans under ``root/.perfbench_out``.
    """
    workload = WORKLOADS[name]
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        env = Env(pins, seed, workdir)
        setup_s = setup(env, program_sizes(workload), root)
        if not trace:
            return env, measure(workload, env, seconds, setup_s)
        rec = Recorder(f"{name}-seed{seed}-pid{os.getpid()}")
        metrics = measure_traced(workload, env, seconds, rec)
        rec.write(os.path.join(root, ".perfbench_out",
                               f"{name}-seed{seed}-spans.jsonl"))
        return env, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
