"""AHB/STBus schedule lock: the exact event schedule of contended buses.

Three traffic generators run a read/write/burst mix on hand-wired AHB and
STBus systems: posted writes queued behind reads, single and burst
transfers to two memories, non-blocking reads retired by a fence.  Each
case pins what the kernel and the arbiters observed:

* simulated cycles and events fired;
* every arbiter"s ``grants``, ``wait_cycles`` and ``busy_cycles``;
* every request"s issue and accept cycle (a digest over the requests in
  transport order, plus their count and total accept latency).

The values were recorded on the layered transaction path (TG helper
generators, a per-request accept closure, ``schedule_after`` grants), so
any rewrite of the TG → port → fabric → slave path must fire the very
same events at the very same cycles to stay green.  Requests are
captured from ``FabricStats.record``, which every transport calls once
per request, so the capture attaches no monitor and leaves the path as
it is.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import MEM_BASE, MEM2_BASE, TinySystem

from repro.core import TGInstruction, TGMaster, TGOp, TGProgram
from repro.faults import (
    FaultInjector,
    FaultSpec,
    LinkFaultRule,
    RetryPolicy,
    SlaveErrorRule,
)
from repro.interconnect.base import FabricStats
from repro.ocp import ProtocolChecker, RecordingMonitor

MASTERS = 3
ADDR, DATA, FAR = 4, 5, 6


def _program(master_id):
    """Writes posted right before reads, bursts to both memories, then
    non-blocking reads retired by a fence; masters start staggered."""
    base = MEM_BASE + 0x100 * master_id
    far = MEM2_BASE + 0x80 * master_id
    code = [TGInstruction(TGOp.IDLE, imm=master_id),
            TGInstruction(TGOp.SET_REGISTER, a=FAR, imm=far)]
    for i in range(4):
        code += [
            TGInstruction(TGOp.SET_REGISTER, a=ADDR, imm=base + 4 * i),
            TGInstruction(TGOp.SET_REGISTER, a=DATA,
                          imm=(master_id << 8) | i),
            TGInstruction(TGOp.WRITE, a=ADDR, b=DATA),
            TGInstruction(TGOp.READ, a=ADDR),
        ]
    code += [
        TGInstruction(TGOp.BURST_WRITE, a=FAR, b=4, imm=0),
        TGInstruction(TGOp.BURST_READ, a=FAR, b=4),
        TGInstruction(TGOp.IDLE, imm=2),
        TGInstruction(TGOp.READ_NB, a=ADDR),
        TGInstruction(TGOp.READ_NB, a=FAR),
        TGInstruction(TGOp.WRITE, a=FAR, b=DATA),
        TGInstruction(TGOp.FENCE),
        TGInstruction(TGOp.BURST_READ, a=ADDR, b=8),
        TGInstruction(TGOp.READ_NB, a=FAR),
        TGInstruction(TGOp.HALT),
    ]
    return TGProgram(core_id=master_id, instructions=code,
                     pool=[master_id * 16 + j for j in range(4)])


class _RecordingStats(FabricStats):
    """Fabric statistics that also keep every recorded request."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def record(self, master_id, request):
        super().record(master_id, request)
        self.requests.append(request)


def _arbiters(fabric):
    if hasattr(fabric, "arbiter"):
        return {"bus": fabric.arbiter}
    if hasattr(fabric, "_arbiters_by_port_name"):
        return dict(sorted(fabric._arbiters_by_port_name().items()))
    return {}


def run_case(fabric_kind, policy, faults=False, watchdog=None,
             observed=False):
    """Run the three TGs; ``observed`` attaches a recording monitor and a
    protocol checker to every TG port (see the observer test below)."""
    kwargs = {} if policy is None else {"arbiter_policy": policy}
    if policy == "tdma":
        kwargs["arbiter_kwargs"] = {"slot_table": [0, 1, 2, 1],
                                    "slot_cycles": 6}
    # the system's own ports go unused; they attach the ×pipes NIs the
    # TG ports then bind to
    system = TinySystem(fabric_kind, masters=MASTERS, **kwargs)
    fabric = system.fabric
    fabric.stats = _RecordingStats()
    retry = None
    injector = None
    if faults:
        injector = FaultInjector(FaultSpec(
            slave_errors=[SlaveErrorRule(slave="mem0", nth=5)],
            link_faults=[LinkFaultRule(jitter=2, stall_probability=0.1,
                                       stall_cycles=4)]), seed=5)
        fabric.fault_injector = injector
        system.mem.fault_injector = injector
        retry = RetryPolicy(max_attempts=3, backoff=2, backoff_factor=2,
                            on_exhaust="degrade")
    tgs = []
    observers = []
    for master_id in range(MASTERS):
        tg = TGMaster(system.sim, f"tg{master_id}", _program(master_id),
                      retry_policy=retry, watchdog_cycles=watchdog)
        tg.port.bind(fabric, master_id)
        if observed:
            recorder = RecordingMonitor()
            checker = ProtocolChecker(f"check{master_id}", max_outstanding=4)
            tg.port.attach_monitor(recorder)
            tg.port.attach_monitor(checker)
            observers.append((recorder, checker))
        tg.start()
        tgs.append(tg)
    system.run()
    assert all(tg.finished for tg in tgs)
    requests = fabric.stats.requests
    for recorder, checker in observers:
        checker.assert_quiescent()
        accepts = recorder.of_kind("ACC")
        assert accepts and all(time == request.accept_time
                               for _, time, request in accepts)
    timeline = [(r.master_id, r.cmd.value, r.addr, r.burst_len,
                 r.issue_time, r.accept_time) for r in requests]
    digest = hashlib.sha256(repr(timeline).encode()).hexdigest()[:16]
    arbiters = {name: (arb.grants, dict(sorted(arb.wait_cycles.items())),
                       arb.busy_cycles)
                for name, arb in _arbiters(fabric).items()}
    got = {
        "cycles": system.sim.now,
        "completion": [tg.completion_time for tg in tgs],
        "events": system.sim.events_fired,
        "arbiters": arbiters,
        "requests": len(requests),
        "accept_latency": sum(r.accept_time - r.issue_time
                              for r in requests),
        "timeline": digest,
    }
    if faults:
        got["retries"] = sum(tg.retries for tg in tgs)
        got["hop_faults"] = injector.counters["hop_faults_injected"]
    return got


CASES = {
    ("ahb", "fixed", "plain"): dict(
        cycles=152, completion=[71, 99, 152], events=281,
        arbiters={"bus": (45, {0: 24, 1: 51, 2: 103}, 129)}, requests=45,
        accept_latency=223, timeline="7eaa69d94ea0b941"),
    ("ahb", "round_robin", "faults"): dict(
        cycles=164, completion=[139, 134, 164], events=365,
        arbiters={"bus": (49, {0: 87, 1: 55, 2: 99}, 137)}, requests=49,
        accept_latency=358, timeline="8d4104c2fe7aaa90", retries=4,
        hop_faults=57),
    ("ahb", "round_robin", "plain"): dict(
        cycles=134, completion=[130, 132, 134], events=281,
        arbiters={"bus": (45, {0: 99, 1: 94, 2: 89}, 129)}, requests=45,
        accept_latency=327, timeline="9f677b1027560a10"),
    ("ahb", "round_robin", "watchdog"): dict(
        cycles=134, completion=[130, 132, 134], events=371,
        arbiters={"bus": (45, {0: 99, 1: 94, 2: 89}, 129)}, requests=45,
        accept_latency=327, timeline="9f677b1027560a10"),
    ("ahb", "tdma", "plain"): dict(
        cycles=207, completion=[195, 106, 207], events=303,
        arbiters={"bus": (45, {0: 168, 1: 78, 2: 178}, 129)}, requests=45,
        accept_latency=469, timeline="7fda696358d67ee7"),
    ("stbus", "fixed", "plain"): dict(
        cycles=85, completion=[61, 73, 85], events=284,
        arbiters={
            "mem0.port": (30, {0: 3, 1: 11, 2: 12}, 51),
            "mem1.port": (15, {0: 11, 1: 13, 2: 23}, 33)},
        requests=45, accept_latency=118, timeline="a50db09382a24b7c"),
    ("stbus", "round_robin", "faults"): dict(
        cycles=127, completion=[103, 127, 121], events=365,
        arbiters={
            "mem0.port": (34, {0: 8, 1: 13, 2: 18}, 62),
            "mem1.port": (15, {0: 11, 1: 16, 2: 15}, 33)},
        requests=49, accept_latency=197, timeline="8c84a96ab9f1ba54",
        retries=4, hop_faults=57),
    ("stbus", "round_robin", "plain"): dict(
        cycles=100, completion=[80, 88, 100], events=282,
        arbiters={
            "mem0.port": (30, {0: 14, 1: 21, 2: 29}, 51),
            "mem1.port": (15, {0: 20, 1: 17, 2: 21}, 33)},
        requests=45, accept_latency=167, timeline="e6bcb610b0e78f5d"),
    ("stbus", "round_robin", "watchdog"): dict(
        cycles=100, completion=[80, 88, 100], events=372,
        arbiters={
            "mem0.port": (30, {0: 14, 1: 21, 2: 29}, 51),
            "mem1.port": (15, {0: 20, 1: 17, 2: 21}, 33)},
        requests=45, accept_latency=167, timeline="e6bcb610b0e78f5d"),
}


def _run(key):
    fabric_kind, policy, variant = key
    return run_case(fabric_kind, policy, faults=variant == "faults",
                    watchdog=400 if variant == "watchdog" else None)


@pytest.mark.parametrize("key", sorted(CASES), ids="-".join)
def test_schedule_is_pinned(key):
    assert _run(key) == CASES[key]


@pytest.mark.parametrize("key", sorted(CASES) + [
    ("tlm", None, "plain"), ("xpipes", None, "plain"),
    ("xpipes", None, "faults")], ids=lambda key: "-".join(map(str, key)))
def test_observers_do_not_perturb(key):
    """Monitors only read: the run with a recording monitor and a
    protocol checker on every port fires the same events at the same
    cycles, with the same accept times, as the run with none."""
    fabric_kind, policy, variant = key
    kwargs = {"faults": variant == "faults",
              "watchdog": 400 if variant == "watchdog" else None}
    bare = run_case(fabric_kind, policy, **kwargs)
    observed = run_case(fabric_kind, policy, observed=True, **kwargs)
    assert observed == bare


if __name__ == "__main__":
    for key in sorted(CASES):
        print(f"    {key!r}: {_run(key)!r},")
