"""Multitask TG tests: timeslice preemption, sleep/wake, consolidation."""

import pytest

from repro.core import (
    MultitaskTGMaster,
    ReplayMode,
    TGError,
    TGInstruction,
    TGMaster,
    TGOp,
    TGProgram,
)
from repro.artifacts.errors import SnapshotError
from repro.core.isa import ADDRREG, DATAREG
from repro.platform import MparmPlatform, PlatformConfig, SHARED_BASE


def I(op, **kwargs):  # noqa: E743
    return TGInstruction(op, **kwargs)


def writer_task(slot, values, gap=5):
    """Writes ``values`` to SHARED + slot*0x100 + i*4, pausing between."""
    instrs = []
    for index, value in enumerate(values):
        instrs.append(I(TGOp.SET_REGISTER, a=ADDRREG,
                        imm=SHARED_BASE + slot * 0x100 + index * 4))
        instrs.append(I(TGOp.SET_REGISTER, a=DATAREG, imm=value))
        instrs.append(I(TGOp.WRITE, a=ADDRREG, b=DATAREG))
        instrs.append(I(TGOp.IDLE, imm=gap))
    instrs.append(I(TGOp.HALT))
    return TGProgram(core_id=0, instructions=instrs)


def idle_task(idle=200):
    return TGProgram(core_id=0, instructions=[
        I(TGOp.IDLE, imm=idle), I(TGOp.HALT)])


def build(programs, idle_fill=True, **kwargs):
    platform = MparmPlatform(PlatformConfig(n_masters=2))
    multitask = MultitaskTGMaster(platform.sim, "mt0", programs, **kwargs)
    platform.add_master(multitask)
    filler = TGMaster(platform.sim, "tg1", TGProgram(
        core_id=1, instructions=[I(TGOp.HALT)]))
    platform.add_master(filler)
    return platform, multitask


class TestValidation:
    def test_needs_programs(self):
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        with pytest.raises(TGError):
            MultitaskTGMaster(platform.sim, "mt", [])

    def test_unknown_scheduler(self):
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        with pytest.raises(TGError):
            MultitaskTGMaster(platform.sim, "mt", [idle_task()],
                              scheduler="lottery")

    def test_cloning_rejected(self):
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        program = idle_task()
        program.mode = ReplayMode.CLONING
        with pytest.raises(TGError):
            MultitaskTGMaster(platform.sim, "mt", [program])

    def test_fence_rejected(self):
        """Out-of-order ops need the single TG's reader bookkeeping; a
        task program holding one is refused before the run starts."""
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        program = TGProgram(core_id=0, instructions=[
            I(TGOp.FENCE), I(TGOp.HALT)])
        with pytest.raises(TGError, match="FENCE"):
            MultitaskTGMaster(platform.sim, "mt", [idle_task(), program])

    def test_bad_quantum(self):
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        with pytest.raises(TGError):
            MultitaskTGMaster(platform.sim, "mt", [idle_task()],
                              timeslice=0)


class TestTimeslice:
    def test_all_tasks_complete(self):
        platform, mt = build([writer_task(0, [1, 2, 3]),
                              writer_task(1, [4, 5, 6])])
        platform.run()
        assert mt.finished
        assert all(t is not None for t in mt.task_completion_times)
        for slot, base_vals in ((0, [1, 2, 3]), (1, [4, 5, 6])):
            got = platform.shared_mem.peek_block(
                SHARED_BASE + slot * 0x100, 3)
            assert got == base_vals

    def test_preemption_interleaves_tasks(self):
        """With a small quantum, long idles are sliced and tasks overlap."""
        platform, mt = build([idle_task(300), idle_task(300)],
                             timeslice=50, context_switch_cycles=2)
        platform.run()
        assert mt.context_switches >= 4
        # two 300-cycle idles time-share one processor: total is at least
        # the serial 600 (one core!) but switching happened throughout
        assert mt.completion_time >= 600

    def test_large_quantum_runs_to_completion(self):
        platform, mt = build([writer_task(0, [1]), writer_task(1, [2])],
                             timeslice=10_000)
        platform.run()
        assert mt.context_switches == 1  # one hand-over only

    def test_context_switch_cost_counts(self):
        fast_platform, fast = build([idle_task(100), idle_task(100)],
                                    timeslice=20, context_switch_cycles=0)
        fast_platform.run()
        slow_platform, slow = build([idle_task(100), idle_task(100)],
                                    timeslice=20, context_switch_cycles=10)
        slow_platform.run()
        assert slow.completion_time > fast.completion_time

    def test_deterministic(self):
        results = []
        for _ in range(2):
            platform, mt = build([writer_task(0, [7, 8]), idle_task(120)],
                                 timeslice=30)
            platform.run()
            results.append((mt.completion_time, mt.context_switches))
        assert results[0] == results[1]


class TestSleepScheduler:
    def test_sleep_overlaps_idle_with_work(self):
        """Run-to-block hides one task's idle behind the other's work."""
        tasks = [writer_task(0, list(range(8)), gap=40),
                 writer_task(1, list(range(8)), gap=40)]
        serial_platform, serial = build(
            [writer_task(0, list(range(8)), gap=40)])
        serial_platform.run()
        single = serial.completion_time

        platform, mt = build(tasks, scheduler="sleep", sleep_threshold=10,
                             context_switch_cycles=2)
        platform.run()
        # two tasks on one socket finish in far less than 2x a single
        # task, because each sleeps through the other's activity
        assert mt.completion_time < 2 * single * 0.8

    def test_sleeping_task_wakes_at_recorded_time(self):
        platform, mt = build([idle_task(500)], scheduler="sleep",
                             sleep_threshold=10)
        platform.run()
        assert mt.completion_time >= 500

    def test_short_idles_do_not_sleep(self):
        platform, mt = build([writer_task(0, [1, 2], gap=3)],
                             scheduler="sleep", sleep_threshold=100)
        platform.run()
        assert mt.context_switches == 0


class TestConsolidationOfSynchronisedTasks:
    """Consolidating tasks that synchronise *with each other* is only
    safe under preemptive scheduling: a polling loop never executes a
    long Idle, so under run-to-block ("sleep") scheduling the polling
    task monopolises the processor and the task that would satisfy the
    poll never runs — a classic consolidation livelock."""

    def des_programs(self):
        from repro.apps import des
        from repro.harness import reference_run, translate_traces
        _, collectors, _ = reference_run(des, 2, app_params={"blocks": 2})
        return translate_traces(collectors, 2)

    def test_timeslice_preemption_resolves_cross_task_polling(self):
        programs = self.des_programs()
        platform = MparmPlatform(PlatformConfig(n_masters=2))
        multitask = MultitaskTGMaster(
            platform.sim, "pipeline_on_one_core",
            [programs[0], programs[1]],
            scheduler="timeslice", timeslice=64, context_switch_cycles=4)
        platform.add_master(multitask)
        platform.add_master(TGMaster(platform.sim, "filler", TGProgram(
            core_id=1, instructions=[I(TGOp.HALT)])))
        platform.run(until=2_000_000)
        assert multitask.finished
        # the consumer stage polls the producer's mailbox; switches
        # happened mid-poll to let the producer fill it
        assert multitask.context_switches > 2

    def test_sleep_scheduling_livelocks_on_cross_task_polling(self):
        """Documented limitation: poll loops never sleep, so run-to-block
        scheduling cannot consolidate mutually-synchronised tasks."""
        programs = self.des_programs()
        platform = MparmPlatform(PlatformConfig(n_masters=2))
        multitask = MultitaskTGMaster(
            platform.sim, "pipeline_on_one_core",
            [programs[1], programs[0]],  # consumer first: it polls forever
            scheduler="sleep", sleep_threshold=16)
        platform.add_master(multitask)
        platform.add_master(TGMaster(platform.sim, "filler", TGProgram(
            core_id=1, instructions=[I(TGOp.HALT)])))
        platform.run(until=100_000)
        assert not multitask.finished


class TestConsolidation:
    def test_two_traced_cores_on_one_socket(self):
        """The future-work scenario: translate two cores' traces, run
        both programs as tasks of a single TG."""
        from repro.apps import cacheloop
        from repro.harness import reference_run, translate_traces
        _, collectors, _ = reference_run(cacheloop, 2,
                                         app_params={"iters": 100})
        programs = translate_traces(collectors, 2)
        platform = MparmPlatform(PlatformConfig(n_masters=2))
        multitask = MultitaskTGMaster(
            platform.sim, "consolidated", [programs[0], programs[1]],
            scheduler="sleep", sleep_threshold=32)
        platform.add_master(multitask)
        platform.add_master(TGMaster(platform.sim, "tg1", TGProgram(
            core_id=1, instructions=[I(TGOp.HALT)])))
        platform.run()
        assert multitask.finished
        assert all(t is not None
                   for t in multitask.task_completion_times)


class TestCheckpointRefused:
    def test_snapshot_refuses_multitask_master(self):
        """The socket holds several task contexts that no snapshot format
        describes, so it stays outside checkpoint/restore."""
        platform, _ = build([writer_task(0, [1, 2]), idle_task(100)])
        platform.run(until=20)
        with pytest.raises(SnapshotError,
                           match="master 'mt0' is not checkpointable"):
            platform.snapshot()
