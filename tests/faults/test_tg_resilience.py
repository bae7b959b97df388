"""TG-side resilience: retry/backoff accounting, degrade, fail-fast,
watchdogs — against full platforms and hand-wired systems."""

import pytest

from repro.core import MultitaskTGMaster, TGMaster, TGProgram
from repro.core.isa import (
    ADDRREG,
    DATAREG,
    RDREG,
    TGError,
    TGInstruction,
    TGOp,
)
from repro.faults import ERROR_DATA, RetryPolicy
from repro.kernel import Simulator, WatchdogTimeout
from repro.memory.slave import MemorySlave, SlaveTimings
from repro.interconnect import AddressMap, TlmFabric
from repro.ocp import OCPSlavePort
from repro.platform import MparmPlatform, PlatformConfig, SHARED_BASE

pytestmark = pytest.mark.faults

EVERY_READ_ERRORS = {"slave_errors": [{"slave": "shared", "nth": 1}]}


def read_program(addr, reads=1):
    prog = TGProgram()
    prog.append(TGInstruction(TGOp.SET_REGISTER, a=ADDRREG, imm=addr))
    for _ in range(reads):
        prog.append(TGInstruction(TGOp.READ, a=ADDRREG))
    prog.append(TGInstruction(TGOp.HALT))
    return prog


def run_tg(program, fault_spec=None, fault_seed=0, retry_policy=None,
           watchdog_cycles=None):
    platform = MparmPlatform(PlatformConfig(
        n_masters=1, fault_spec=fault_spec, fault_seed=fault_seed))
    tg = TGMaster(platform.sim, "tg0", program, retry_policy=retry_policy,
                  watchdog_cycles=watchdog_cycles)
    platform.add_master(tg)
    platform.run()
    return platform, tg


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0}, {"max_attempts": 1.5}, {"backoff": -1},
        {"backoff_factor": 0}, {"on_exhaust": "explode"},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff=3, backoff_factor=2)
        assert [policy.backoff_cycles(k) for k in (1, 2, 3, 4)] == \
            [3, 6, 12, 24]
        with pytest.raises(ValueError):
            policy.backoff_cycles(0)

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=4, backoff=1, backoff_factor=3,
                             on_exhaust="degrade")
        again = RetryPolicy.from_dict(policy.to_dict())
        assert again.to_dict() == policy.to_dict()
        assert RetryPolicy.from_dict(None) is None
        assert RetryPolicy.from_dict(policy) is policy


class TestRetryAccounting:
    POLICY = RetryPolicy(max_attempts=3, backoff=2, backoff_factor=2,
                         on_exhaust="degrade")

    def test_degrade_counts_and_cycles(self):
        """One always-erroring read: 3 attempts, backoff 2 then 4 cycles.

        The cycle cost of the retries must be exactly two extra transaction
        round-trips plus the 6 backoff cycles — measured against healthy
        runs, so the accounting is cycle-exact, not approximate.
        """
        _, healthy1 = run_tg(read_program(SHARED_BASE))
        _, healthy2 = run_tg(read_program(SHARED_BASE, reads=2))
        round_trip = healthy2.completion_time - healthy1.completion_time

        platform, tg = run_tg(read_program(SHARED_BASE),
                              fault_spec=EVERY_READ_ERRORS,
                              retry_policy=self.POLICY)
        assert tg.error_responses == 3
        assert tg.retries == 2
        assert tg.retry_backoff_cycles == 2 + 4
        assert tg.degraded_transactions == 1
        assert tg.finished
        assert tg.completion_time == \
            healthy1.completion_time + 2 * round_trip + 6
        counters = platform.resilience_counters()
        assert counters.as_dict()["slave_errors_injected"] == 3
        assert counters.as_dict()["faults_injected"] == 3

    def test_recovery_after_bounded_fault(self):
        """max_faults=1: the first attempt errors, the retry succeeds."""
        spec = {"slave_errors": [{"slave": "shared", "nth": 1,
                                  "max_faults": 1}]}
        platform, tg = run_tg(read_program(SHARED_BASE),
                              fault_spec=spec, retry_policy=self.POLICY)
        assert tg.error_responses == 1
        assert tg.retries == 1
        assert tg.degraded_transactions == 0
        assert tg.regs[RDREG] != ERROR_DATA  # the good retry data landed

    def test_fail_fast_raises(self):
        policy = RetryPolicy(max_attempts=2, backoff=1, on_exhaust="raise")
        platform = MparmPlatform(PlatformConfig(
            n_masters=1, fault_spec=EVERY_READ_ERRORS))
        tg = TGMaster(platform.sim, "tg0", read_program(SHARED_BASE),
                      retry_policy=policy)
        platform.add_master(tg)
        with pytest.raises(TGError, match="still erroring after 2"):
            platform.run()
        assert tg.error_responses == 2

    def test_no_policy_ignores_errors(self):
        """Historical behaviour: the error is counted, the program runs on
        the bogus data word."""
        _, tg = run_tg(read_program(SHARED_BASE),
                       fault_spec=EVERY_READ_ERRORS)
        assert tg.finished
        assert tg.error_responses == 1
        assert tg.retries == 0
        assert tg.regs[RDREG] == ERROR_DATA


class HangingSlave(MemorySlave):
    """A slave whose access never completes (lost response)."""

    def access(self, request):
        yield self.sim.signal("blackhole")


class TestWatchdog:
    def _hanging_system(self, watchdog_cycles):
        sim = Simulator()
        amap = AddressMap()
        slave = HangingSlave(sim, "hang", 0x0, 0x1000,
                             SlaveTimings(first_beat=1, per_beat=1))
        amap.add(slave.base, slave.size_bytes,
                 OCPSlavePort(sim, "hang.port", slave), slave.name)
        fabric = TlmFabric(sim, address_map=amap)
        tg = TGMaster(sim, "tg0", read_program(0x0),
                      watchdog_cycles=watchdog_cycles)
        tg.port.bind(fabric, 0)
        tg.start()
        return sim, tg

    def test_lost_response_trips_watchdog(self):
        sim, tg = self._hanging_system(watchdog_cycles=100)
        with pytest.raises(WatchdogTimeout, match="not complete within 100"):
            sim.run()
        assert tg.watchdog_trips == 1
        assert sim.now <= 101 + 100  # tripped at the deadline, not later

    def test_watchdog_names_blocked_process(self):
        sim, _ = self._hanging_system(watchdog_cycles=50)
        with pytest.raises(WatchdogTimeout, match="blackhole"):
            sim.run()

    def test_watchdog_rejects_bad_config(self):
        sim = Simulator()
        with pytest.raises(TGError, match="watchdog_cycles"):
            TGMaster(sim, "tg0", read_program(0x0), watchdog_cycles=0)

    def test_armed_watchdog_does_not_change_cycles(self):
        """A watchdog that never trips leaves cycle timing untouched."""
        _, plain = run_tg(read_program(SHARED_BASE, reads=3))
        _, guarded = run_tg(read_program(SHARED_BASE, reads=3),
                            watchdog_cycles=10_000)
        assert guarded.finished
        assert guarded.watchdog_trips == 0
        assert guarded.completion_time == plain.completion_time


class TestMultitaskErrorResponses:
    """A multitask socket issues through the TG's one transaction path,
    so an error response on a task's read is counted as on a single TG;
    with no retry policy it changes neither timing nor events."""

    EVERY_THIRD_READ_ERRORS = {"slave_errors": [{"slave": "shared",
                                                 "nth": 3}]}

    @staticmethod
    def rw_task(slot):
        base = SHARED_BASE + slot * 0x100
        code = []
        for i in range(6):
            code += [TGInstruction(TGOp.SET_REGISTER, a=ADDRREG,
                                   imm=base + 4 * i),
                     TGInstruction(TGOp.SET_REGISTER, a=DATAREG,
                                   imm=slot * 16 + i),
                     TGInstruction(TGOp.WRITE, a=ADDRREG, b=DATAREG),
                     TGInstruction(TGOp.READ, a=ADDRREG),
                     TGInstruction(TGOp.IDLE, imm=3 + 7 * slot)]
        code += [TGInstruction(TGOp.SET_REGISTER, a=ADDRREG, imm=base),
                 TGInstruction(TGOp.BURST_READ, a=ADDRREG, b=4),
                 TGInstruction(TGOp.HALT)]
        return TGProgram(core_id=0, instructions=code)

    # (completion, task completions, switches, events fired); recorded
    # when the multitask socket had an interpreter of its own
    @pytest.mark.parametrize("scheduler,settings,expected", [
        ("timeslice", {"timeslice": 8, "context_switch_cycles": 2},
         (246, [185, 246], 15, 208)),
        ("sleep", {"sleep_threshold": 5, "context_switch_cycles": 2},
         (218, [87, 218], 1, 171)),
    ])
    def test_errors_counted_on_unchanged_schedule(self, scheduler,
                                                  settings, expected):
        platform = MparmPlatform(PlatformConfig(
            n_masters=2, fault_spec=self.EVERY_THIRD_READ_ERRORS,
            fault_seed=11))
        multitask = MultitaskTGMaster(
            platform.sim, "mt", [self.rw_task(0), self.rw_task(1)],
            scheduler=scheduler, **settings)
        platform.add_master(multitask)
        platform.add_master(TGMaster(platform.sim, "filler", TGProgram(
            core_id=1, instructions=[TGInstruction(TGOp.HALT)])))
        platform.run()
        assert (multitask.completion_time, multitask.task_completion_times,
                multitask.context_switches,
                platform.sim.events_fired) == expected
        summary = platform.stats_summary()
        assert summary["fabric_transactions"] == 26
        resilience = summary["resilience"]
        assert resilience["slave_errors_injected"] == 4
        assert resilience["error_responses"] == 4
        assert resilience["retries"] == 0
        assert multitask.ocp_transactions == 26
