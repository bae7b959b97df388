"""The benchmark's own tests: names, limits, checks and the failure path.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from pinned import PINS  # noqa: E402
from tracing import (  # noqa: E402
    LAYERS,
    OTHER,
    NullRecorder,
    Recorder,
    layer_of,
    profile_shares,
)
from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    PROBE,
    WORKLOADS,
    Env,
    phase_replay,
    prepare_programs,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tampered(pins: dict, path: list, value) -> dict:
    """A deep copy of ``pins`` with one value replaced."""
    copied = copy.deepcopy(pins)
    node = copied
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copied


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_and_limits(spec):
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert name[0].isalnum(), name
    assert len(names) == len(set(names))
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_spec_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.fixture(scope="module")
def probe_programs():
    env = Env(PINS, seed=0, workdir=HERE)
    programs = prepare_programs(env, PROBE)
    assert env.checks.failed == 0, env.checks.failures
    return programs


def replay_checks(pins, programs):
    env = Env(pins, seed=0, workdir=HERE)
    env.programs = {PROBE: programs}
    phase_replay(env, NullRecorder(), PROBE, "ahb")
    return env.checks


def test_pinned_values_pass(probe_programs):
    checks = replay_checks(PINS, probe_programs)
    assert checks.attempted == 4
    assert checks.failed == 0, checks.failures


def test_tampered_pinned_value_is_a_failed_check(probe_programs):
    cycles, events, transactions, beats = PINS[PROBE]["replay"]["ahb"]
    pins = tampered(PINS, [PROBE, "replay", "ahb"],
                    (cycles + 1, events, transactions, beats))
    checks = replay_checks(pins, probe_programs)
    assert checks.attempted == 4
    assert checks.failed == 1
    assert "cycles" in checks.failures[0]


def test_tampered_digest_is_a_failed_check():
    digest = PINS[PROBE]["bin_sha256"][2]
    pins = tampered(PINS, [PROBE, "bin_sha256", 2], "0" * len(digest))
    env = Env(pins, seed=0, workdir=HERE)
    prepare_programs(env, PROBE)
    assert env.checks.failed == 1
    assert "master 2 .bin sha256" in env.checks.failures[0]


def test_seed_picks_the_checkpoint_inputs():
    first, second = (Env(PINS, seed, HERE) for seed in (1, 2))
    assert (first.warmup, first.cadence_phase) \
        != (second.warmup, second.cadence_phase)
    again = Env(PINS, 1, HERE)
    assert (again.warmup, again.cadence_phase) \
        == (first.warmup, first.cadence_phase)


def test_self_time_and_layers():
    rec = Recorder("test")
    with rec.span("outer", "perfbench"):
        with rec.span("inner", "kernel", "inner_s"):
            sum(range(10000))
    own = rec.self_times()
    outer, inner = rec.spans
    assert own[inner.span_id] == pytest.approx(inner.duration)
    assert own[outer.span_id] == pytest.approx(
        outer.duration - inner.duration)
    assert rec.durations("inner_s") == [inner.duration]
    assert layer_of("/x/src/repro/kernel/simulator.py") == "kernel"
    assert layer_of("/x/src/repro/apps/mp_matrix.py") == OTHER
    assert layer_of("/usr/lib/python3/heapq.py") == OTHER


def test_profile_shares_sum_to_100(probe_programs):
    from repro.harness import build_tg_platform
    shares = profile_shares(
        lambda: build_tg_platform(probe_programs, 4, "ahb").run())
    assert set(shares) == set(LAYERS) | {OTHER}
    assert sum(shares.values()) == pytest.approx(100.0)
    assert shares["kernel"] > 0 and shares["interconnect"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
