"""Multitask schedule lock: the exact schedule of every scheduler policy.

Each case runs task programs on one :class:`MultitaskTGMaster` socket
beside a halting filler TG and pins what the run produced:

* the socket's completion cycle and every task's completion cycle;
* the number of context switches;
* the kernel's ``events_fired`` and the fabric's transaction count.

The cases cover the E12 consolidation table (two translated Cacheloop
cores, ``iters=400``) under all three policies, the transaction-heavy
two-stage DES pipeline under timeslice preemption, and hand-written
tasks that exercise sliced idles, sleeps and wake-up preemption.  The
values were recorded on the dedicated multitask interpreter the
scheduler-over-contexts design replaced, so any change to how tasks are
interpreted, sliced, put to sleep or preempted must keep every idle
slice, switch and transaction on the very same cycle to stay green.
"""

import pytest

from repro.apps import cacheloop, des
from repro.core import (
    MultitaskTGMaster,
    TGInstruction,
    TGMaster,
    TGOp,
    TGProgram,
)
from repro.core.isa import ADDRREG, DATAREG
from repro.harness import reference_run, translate_traces
from repro.platform import MparmPlatform, PlatformConfig, SHARED_BASE


def I(op, **kwargs):  # noqa: E743
    return TGInstruction(op, **kwargs)


def writer_task(slot, count, gap):
    instrs = []
    for index in range(count):
        instrs.append(I(TGOp.SET_REGISTER, a=ADDRREG,
                        imm=SHARED_BASE + slot * 0x100 + index * 4))
        instrs.append(I(TGOp.SET_REGISTER, a=DATAREG, imm=index + 1))
        instrs.append(I(TGOp.WRITE, a=ADDRREG, b=DATAREG))
        if gap:
            instrs.append(I(TGOp.IDLE, imm=gap))
    instrs.append(I(TGOp.HALT))
    return TGProgram(core_id=0, instructions=instrs)


def idle_task(idle):
    return TGProgram(core_id=0, instructions=[
        I(TGOp.IDLE, imm=idle), I(TGOp.HALT)])


def wake_pair():
    """A high-priority task that sleeps first, then writes once, and a
    low-priority task of 600 local instructions it preempts on waking."""
    high = TGProgram(core_id=0, instructions=[
        I(TGOp.IDLE, imm=100),
        I(TGOp.SET_REGISTER, a=ADDRREG, imm=SHARED_BASE),
        I(TGOp.SET_REGISTER, a=DATAREG, imm=7),
        I(TGOp.WRITE, a=ADDRREG, b=DATAREG),
        I(TGOp.HALT),
    ])
    low = TGProgram(core_id=0, instructions=(
        [I(TGOp.SET_REGISTER, a=5, imm=0)] * 600 + [I(TGOp.HALT)]))
    return [high, low]


def run(programs, until=None, **kwargs):
    platform = MparmPlatform(PlatformConfig(n_masters=2))
    multitask = MultitaskTGMaster(platform.sim, "cpu0", programs, **kwargs)
    platform.add_master(multitask)
    platform.add_master(TGMaster(platform.sim, "filler", TGProgram(
        core_id=1, instructions=[I(TGOp.HALT)])))
    platform.run(until=until)
    assert multitask.finished
    return (multitask.completion_time, multitask.task_completion_times,
            multitask.context_switches, platform.sim.events_fired,
            platform.fabric.stats.transactions)


@pytest.fixture(scope="module")
def cacheloop_programs():
    _, collectors, _ = reference_run(cacheloop, 2,
                                     app_params={"iters": 400})
    programs = translate_traces(collectors, 2)
    return [programs[0], programs[1]]


@pytest.fixture(scope="module")
def des_programs():
    _, collectors, _ = reference_run(des, 2, app_params={"blocks": 2})
    programs = translate_traces(collectors, 2)
    return [programs[0], programs[1]]


# (completion, task completions, switches, events fired, transactions)
E12_PINS = [
    ("timeslice", {"timeslice": 64, "context_switch_cycles": 8},
     (8176, [8116, 8176], 113, 295, 10)),
    ("timeslice", {"timeslice": 16, "context_switch_cycles": 8},
     (10912, [10904, 10912], 455, 975, 10)),
    ("sleep", {"sleep_threshold": 32, "context_switch_cycles": 8},
     (3683, [3644, 3683], 3, 73, 10)),
    ("priority", {"priorities": [0, 5], "sleep_threshold": 32,
                  "context_switch_cycles": 8},
     (3683, [3683, 3644], 3, 73, 10)),
]


@pytest.mark.parametrize(
    "scheduler,settings,expected", E12_PINS,
    ids=["timeslice-q64", "timeslice-q16", "sleep", "priority"])
def test_e12_cacheloop_consolidation(cacheloop_programs, scheduler,
                                     settings, expected):
    assert run(cacheloop_programs, scheduler=scheduler,
               **settings) == expected


def test_des_pipeline_timeslice(des_programs):
    """Producer and consumer stages poll each other's mailbox: every
    quantum expiry lands mid-poll, between transactions."""
    assert run(des_programs, until=2_000_000, scheduler="timeslice",
               timeslice=64, context_switch_cycles=4) \
        == (3755, [2948, 3755], 43, 2170, 231)


HAND_PINS = [
    ("priority-writers",
     lambda: [writer_task(0, 4, gap=30), writer_task(1, 4, gap=30)],
     {"scheduler": "priority", "priorities": [1, 2], "sleep_threshold": 10},
     (160, [160, 152], 9, 72, 8)),
    ("priority-wakeup", wake_pair,
     {"scheduler": "priority", "priorities": [10, 0], "sleep_threshold": 50,
      "context_switch_cycles": 1},
     (607, [105, 607], 3, 612, 1)),
    ("timeslice-sliced-idles", lambda: [idle_task(300), idle_task(300)],
     {"scheduler": "timeslice", "timeslice": 50, "context_switch_cycles": 2},
     (626, [624, 626], 13, 27, 0)),
    ("sleep-writers",
     lambda: [writer_task(0, 8, gap=40), writer_task(1, 8, gap=40)],
     {"scheduler": "sleep", "sleep_threshold": 10,
      "context_switch_cycles": 2},
     (374, [368, 374], 17, 140, 16)),
]


@pytest.mark.parametrize("make,settings,expected",
                         [case[1:] for case in HAND_PINS],
                         ids=[case[0] for case in HAND_PINS])
def test_hand_written_tasks(make, settings, expected):
    assert run(make(), **settings) == expected
