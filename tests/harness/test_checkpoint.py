"""Checkpoint harness tests: manager, recipes, auto-checkpointed runs,
restore and fault-campaign branching (fast, synthetic workloads), plus
byte pins of checkpointed mp_matrix runs."""

import hashlib
import json
import os

import pytest

from repro.apps import mp_matrix
from repro.apps.synthetic import TrafficSpec, generate
from repro.artifacts.errors import EXIT_SNAPSHOT, SnapshotError
from repro.artifacts.snap import dump_snap, load_snap, load_snap_bytes
from repro.core.program import TGProgram, parse_tgp
from repro.faults import RetryPolicy
from repro.harness import (
    CheckpointManager,
    branch,
    build_tg_platform,
    checkpointed_run,
    load_snapshot,
    platform_recipe,
    rebuild_platform,
    restore_platform,
)
from repro.harness.experiments import reference_run, translate_traces

SPEC = TrafficSpec.from_dict({"n_cores": 2, "transactions": 30,
                              "pattern": "uniform", "load": 0.4,
                              "seed": 11})
FAULTS = {"slave_errors": [{"slave": "shared", "probability": 0.2}]}
RETRY = RetryPolicy(max_attempts=4, backoff=2, backoff_factor=2,
                    on_exhaust="degrade")


def _programs():
    programs, _ = generate(SPEC)
    return programs


def _recipe(overrides=None, retry_policy=None):
    return platform_recipe(_programs(), 2, "ahb", overrides,
                           retry_policy=retry_policy)


def _platform(overrides=None, retry_policy=None):
    return build_tg_platform(_programs(), 2, "ahb", overrides,
                             retry_policy=retry_policy)


class TestCheckpointManager:

    def test_atomic_save_and_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        assert manager.latest() is None
        platform = _platform()
        platform.run(until=100)
        path = manager.save(platform.snapshot(_recipe()))
        assert os.path.exists(path)
        assert manager.latest() == path
        assert not any(name.endswith(".tmp")
                       for name in os.listdir(tmp_path))
        # the artifact is a verified .snap
        assert load_snap(path).value["cycle"] == platform.sim.now

    def test_retention_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        platform = _platform()
        paths = []
        for until in (50, 120, 190):
            platform.run(until=until)
            paths.append(manager.save(platform.snapshot(_recipe())))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2
        assert os.path.basename(paths[0]) not in names
        assert manager.latest() == paths[-1]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(SnapshotError):
            CheckpointManager(tmp_path, keep=0)

    def test_lexicographic_equals_cycle_order(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        platform = _platform()
        platform.run(until=80)
        first = manager.save(platform.snapshot(_recipe()))
        platform.run(until=200)
        second = manager.save(platform.snapshot(_recipe()))
        assert sorted([first, second]) == [first, second]


class TestCheckpointedRun:

    def test_matches_uninterrupted_run(self, tmp_path):
        base = _platform()
        base.run()
        manager = CheckpointManager(tmp_path, keep=2)
        platform = _platform()
        checkpointed_run(platform, _recipe(), manager, every=100)
        assert platform.stats_summary() == base.stats_summary()
        assert manager.latest() is not None

    def test_cadence_validated(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(SnapshotError):
            checkpointed_run(_platform(), _recipe(), manager, every=0)

    def test_idle_gap_longer_than_the_cadence(self, tmp_path):
        # no event fires for 5000 cycles: nothing changes, so the run
        # moves on without re-capturing the same cycle over and over
        text = ("MASTER[{core},0]\nMODE reactive\nREGISTER addr 0\n"
                "BEGIN\n    SetRegister(addr, 0x0100b9d8)\n"
                "    Idle(5000)\n    Write(addr, addr)\n    Halt\nEND\n")
        programs = {core: parse_tgp(text.format(core=core))
                    for core in range(2)}
        base = build_tg_platform(programs, 2, "ahb")
        base.run()
        manager = CheckpointManager(tmp_path, keep=100)
        saved = []
        save = manager.save

        def bounded_save(payload):
            saved.append(payload["cycle"])
            assert len(saved) <= 10, "re-captured an unchanged cycle"
            return save(payload)

        manager.save = bounded_save
        platform = build_tg_platform(programs, 2, "ahb")
        checkpointed_run(platform, platform_recipe(programs, 2, "ahb"),
                         manager, every=100)
        assert platform.stats_summary() == base.stats_summary()
        assert saved == [1, base.sim.now]
        restored = restore_platform(load_snapshot(manager.latest()))
        restored.run()
        assert restored.stats_summary() == base.stats_summary()

    def test_program_text_emitted_once_per_tg(self, tmp_path,
                                              monkeypatch):
        platform = _platform()
        recipe = _recipe()
        emitted = []
        to_tgp = TGProgram.to_tgp

        def counting(program):
            emitted.append(id(program))
            return to_tgp(program)

        monkeypatch.setattr(TGProgram, "to_tgp", counting)
        manager = CheckpointManager(tmp_path, keep=100)
        checkpointed_run(platform, recipe, manager, every=40)
        captures = len(os.listdir(tmp_path))
        assert captures >= 4
        restored = rebuild_platform(recipe)
        restored.apply_snapshot(load_snapshot(manager.latest()))
        restored.snapshot(recipe)
        tgs = [*platform.masters, *restored.masters]
        assert sorted(emitted) == sorted(id(tg.program) for tg in tgs)

    def test_different_program_is_refused(self):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot(_recipe())
        programs = _programs()
        swapped = {0: programs[1], 1: programs[0]}
        other = build_tg_platform(swapped, 2, "ahb")
        with pytest.raises(SnapshotError) as excinfo:
            other.apply_snapshot(payload)
        assert "different program" in str(excinfo.value)


@pytest.fixture(scope="module")
def mp_matrix_programs():
    _, collectors, _ = reference_run(mp_matrix, 4, "tlm", {"n": 4})
    return translate_traces(collectors, 4)


#: Checkpointed mp_matrix n=4 runs (TLM-traced, 4 TGs), recorded before
#: each cadence segment became one kernel call: ``.snap`` sha256 by file
#: name, per (fabric, cadence).  At cadence 1000 the run completes well
#: inside its last segment, so the clock must stop on the last event.
SNAP_PINS = {
    ("ahb", 300): {
        "ckpt-000000000836.snap": "f3c542ff98952fc39dfee12ec5c0c871"
                                  "501561311234fdebdeddf52d6eadb3cc",
        "ckpt-000000001192.snap": "18e70b9deafb3631f5531f517d724c3a"
                                  "0ff53bdeab2e665a374264c44c75be66",
        "ckpt-000000001579.snap": "84491ede84b03339fb6faf2217df2e0c"
                                  "8e9b4e60491a7b48e4cb83893a224760",
    },
    ("ahb", 1000): {
        "ckpt-000000001070.snap": "b4ee09c994d06e50a9cfdc04647ba751"
                                  "b9685e2122a4a70bf1be5ecff68bbb15",
    },
    ("xpipes", 300): {
        "ckpt-000000000423.snap": "aa5d917240f0ee9c64face6d64ace661"
                                  "a9f195b65752d7471496a88ebadf45f1",
        "ckpt-000000001231.snap": "c304679df7965e07222725ad6dd1d887"
                                  "9e3255b79b9f4c462ae9b335551f555d",
        "ckpt-000000001930.snap": "949440ca36fdd77e92329f91b302dc56"
                                  "946b5b28c15fd6b7a11933e0c3b8d723",
    },
    ("xpipes", 1000): {
        "ckpt-000000001231.snap": "c304679df7965e07222725ad6dd1d887"
                                  "9e3255b79b9f4c462ae9b335551f555d",
    },
}

#: ``stats_summary()`` of the same runs, checkpointed or not.
SUMMARY_PINS = {
    "ahb": {"bus_utilisation": 0.8968, "cycles": 1676, "events": 3770,
            "fabric_beats": 779, "fabric_transactions": 539,
            "kernel": {"events_cancelled": 0, "events_fired": 3770,
                       "heap_compactions": 0, "peak_heap_size": 5,
                       "queued_live": 0, "queued_tombstones": 0}},
    "xpipes": {"cycles": 2060, "events": 15395, "fabric_beats": 670,
               "fabric_transactions": 430,
               "kernel": {"events_cancelled": 0, "events_fired": 15395,
                          "heap_compactions": 0, "peak_heap_size": 75,
                          "queued_live": 0, "queued_tombstones": 0}},
}


class TestCheckpointedRunPins:

    def _run(self, programs, fabric, every, directory, **guards):
        platform = build_tg_platform(programs, 4, fabric)
        manager = CheckpointManager(directory, keep=100)
        checkpointed_run(platform, platform_recipe(programs, 4, fabric),
                         manager, every, **guards)
        snaps = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as handle:
                snaps[name] = hashlib.sha256(handle.read()).hexdigest()
        return platform, snaps

    @pytest.mark.parametrize("fabric,every", sorted(SNAP_PINS))
    def test_snapshots_and_completion_are_pinned(self, mp_matrix_programs,
                                                 tmp_path, fabric, every):
        cold = build_tg_platform(mp_matrix_programs, 4, fabric)
        cold.run()
        assert cold.stats_summary() == SUMMARY_PINS[fabric]

        platform, snaps = self._run(mp_matrix_programs, fabric, every,
                                    tmp_path / "plain")
        assert snaps == SNAP_PINS[(fabric, every)]
        summary = SUMMARY_PINS[fabric]
        assert platform.sim.now == summary["cycles"] == cold.sim.now
        assert platform.sim.events_fired == summary["events"] \
            == cold.sim.events_fired
        assert platform.stats_summary() == summary
        # completion inside the last segment: no coast to its boundary
        last = int(max(snaps)[len("ckpt-"):-len(".snap")])
        assert last < platform.sim.now < last + every

        guarded, guarded_snaps = self._run(
            mp_matrix_programs, fabric, every, tmp_path / "guarded",
            progress_window=10_000)
        assert guarded_snaps == snaps
        assert guarded.stats_summary() == summary


class TestRestorePlatform:

    def test_bit_identical_continuation(self, tmp_path):
        base = _platform()
        base.run()

        platform = _platform()
        platform.run(until=150)
        payload = platform.snapshot(_recipe())

        restored = restore_platform(payload)
        assert restored.sim.now == payload["cycle"]
        assert restored.sim.events_fired \
            == payload["kernel"]["events_fired"]
        restored.run()
        assert restored.stats_summary() == base.stats_summary()

    @pytest.mark.parametrize("legacy", ["classic", "fast"])
    def test_legacy_backend_snapshot_restores(self, legacy):
        # snapshots from releases with a second kernel engine name it in
        # the payload and in the recipe's config overrides; the one event
        # queue must still rebuild and continue them bit-identically
        platform = _platform()
        platform.run(until=150)
        payload = platform.snapshot(_recipe({"backend": legacy}))
        payload["backend"] = legacy
        payload = load_snap_bytes(dump_snap(payload).encode()).value
        assert payload["platform"]["config_overrides"] \
            == {"backend": legacy}
        restored = restore_platform(payload)
        restored.run()
        base = _platform()
        base.run()
        assert restored.stats_summary() == base.stats_summary()

    def test_roundtrip_through_disk(self, tmp_path):
        platform = _platform()
        platform.run(until=150)
        manager = CheckpointManager(tmp_path)
        path = manager.save(platform.snapshot(_recipe()))
        payload = load_snapshot(path)
        restored = restore_platform(payload)
        restored.run()
        assert restored.all_finished

    def test_missing_recipe_is_typed(self):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot()            # no recipe embedded
        with pytest.raises(SnapshotError) as excinfo:
            restore_platform(payload)
        assert "no embedded platform recipe" in str(excinfo.value)
        assert excinfo.value.exit_code == EXIT_SNAPSHOT

    def test_unparsable_program_is_typed(self):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot(_recipe())
        payload["platform"]["programs"]["0"] = "NOT A PROGRAM @@@"
        with pytest.raises(SnapshotError):
            rebuild_platform(payload["platform"])

    def test_faulted_run_restores_with_matching_spec(self):
        overrides = {"fault_spec": FAULTS, "fault_seed": 5}
        base = _platform(overrides, retry_policy=RETRY)
        base.run()
        base_res = base.resilience_counters().as_dict()

        platform = _platform(overrides, retry_policy=RETRY)
        platform.run(until=150)
        payload = platform.snapshot(
            _recipe(overrides, retry_policy=RETRY))
        restored = restore_platform(payload)
        restored.run()
        assert restored.resilience_counters().as_dict() == base_res
        assert restored.stats_summary() == base.stats_summary()

    def test_spec_mismatched_injector_state_is_typed(self):
        overrides = {"fault_spec": FAULTS, "fault_seed": 5}
        platform = _platform(overrides, retry_policy=RETRY)
        platform.run(until=150)
        payload = platform.snapshot(
            _recipe(overrides, retry_policy=RETRY))
        # forge: recipe claims two slave-error rules, state has one tally
        other = {"slave_errors": [{"slave": "shared", "nth": 3},
                                  {"slave": "priv0", "nth": 5}]}
        payload["platform"]["config_overrides"]["fault_spec"] = other
        with pytest.raises(SnapshotError) as excinfo:
            restore_platform(payload)
        assert "fault spec" in str(excinfo.value)


class TestBranch:

    def _warmup_payload(self):
        platform = _platform(retry_policy=RETRY)
        platform.run(until=150)
        return platform.snapshot(_recipe(retry_policy=RETRY)), platform

    def test_branch_arms_fresh_injector(self):
        payload, warm = self._warmup_payload()
        scenario = branch(payload, fault_spec=FAULTS, fault_seed=9)
        assert scenario.fault_injector is not None
        assert scenario.fault_injector.seed == 9
        # warm-up events were not re-simulated
        assert scenario.sim.events_fired == warm.sim.events_fired
        scenario.run()
        assert scenario.all_finished

    def test_branches_differ_only_by_seed(self):
        payload, _ = self._warmup_payload()
        prob_faults = {"slave_errors": [
            {"slave": "shared", "probability": 0.3}]}
        runs = {}
        for seed in (1, 2):
            scenario = branch(payload, fault_spec=prob_faults,
                              fault_seed=seed)
            scenario.run()
            runs[seed] = scenario.resilience_counters().as_dict()
        # deterministic per seed: branching twice reproduces exactly
        again = branch(payload, fault_spec=prob_faults, fault_seed=1)
        again.run()
        assert again.resilience_counters().as_dict() == runs[1]

    def test_plain_branch_continues_healthy_run(self):
        payload, _ = self._warmup_payload()
        base = _platform(retry_policy=RETRY)
        base.run()
        control = branch(payload)
        control.run()
        assert control.stats_summary() == base.stats_summary()

    def test_fault_seed_without_spec_is_typed(self):
        payload, _ = self._warmup_payload()
        with pytest.raises(SnapshotError):
            branch(payload, fault_seed=3)


class TestSnapPayloadCanonical:

    def test_dump_is_deterministic(self, tmp_path):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot(_recipe())
        from repro.artifacts.snap import dump_snap
        assert dump_snap(payload) == dump_snap(
            json.loads(json.dumps(payload)))
