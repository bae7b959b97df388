"""×pipes schedule lock: the exact event schedule of a contended mesh.

Every case below runs the same three-master read/write/burst mix and
pins what the kernel and the routers observed — simulated cycles,
events fired, flits routed in total and per router.  The values were
recorded on the straightforward ``yield from fifo.put/get`` router, so
any rewrite of the flit transport (link tables, inline FIFO moves) must
fire the very same events at the very same cycles to stay green.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import MEM_BASE, MEM2_BASE, TinySystem

from repro.faults import FaultInjector, FaultSpec, LinkFaultRule
from repro.interconnect.xpipes import LOCAL, Flit, Packet
from repro.ocp import OCPCommand, OCPError, Request

MASTERS = 3

#: Non-row-major endpoint placement on a 3x3 mesh (the other endpoints
#: fill the free nodes): masters and memories sit far apart.
EXPLICIT = {0: (2, 2), 1: (0, 2), 2: (2, 0), "mem0": (0, 0), "mem1": (1, 1)}


def _traffic(system, master_id):
    """Writes, reads and bursts to both memories, tag-checked, then a
    burst-write hot spot that back-pressures the mesh."""
    port = system.ports[master_id]
    base = MEM_BASE + 0x100 * master_id
    far = MEM2_BASE + 0x80 * master_id
    for i in range(6):
        yield from port.write(base + 4 * i, (master_id << 8) | i)
        value = yield from port.read(base + 4 * i)
        assert value == (master_id << 8) | i
    yield from port.burst_write(far, [master_id * 16 + j for j in range(8)])
    words = yield from port.burst_read(far, 8)
    assert words == [master_id * 16 + j for j in range(8)]
    for i in range(4):
        yield from port.burst_read(MEM_BASE + 0x40 * ((master_id + i) % 3), 4)
        yield from port.write(far + 4 * i, i)
    # hot spot: posted bursts from every master into one memory
    for i in range(4):
        yield from port.burst_write(MEM2_BASE + 0x400 + 0x20 * i,
                                    [i] * 8)


def run_case(fifo_depth, routing, placement=None, injector=None):
    kwargs = {"fifo_depth": fifo_depth, "routing": routing}
    if placement is not None:
        kwargs.update(mesh=(3, 3), placement=placement)
    system = TinySystem("xpipes", masters=MASTERS, **kwargs)
    noc = system.fabric
    noc.fault_injector = injector
    for master_id in range(MASTERS):
        system.sim.spawn(_traffic(system, master_id), name=f"m{master_id}")
    cycles = system.run()
    per_router = {coords: router.flits_routed
                  for coords, router in sorted(noc._routers.items())
                  if router.flits_routed}
    return (cycles, system.sim.events_fired, noc.total_flits_routed,
            per_router)


# (fifo_depth, routing, placement) -> (cycles, events, flits, per-router)
EXPECTED = {
    (1, "xy", "auto"): (362, 2626, 1214, {
        (0, 0): 219, (0, 1): 219, (1, 0): 309, (1, 1): 283, (2, 0): 143,
        (2, 1): 41}),
    (2, "xy", "auto"): (360, 2617, 1214, {
        (0, 0): 219, (0, 1): 219, (1, 0): 309, (1, 1): 283, (2, 0): 143,
        (2, 1): 41}),
    (4, "xy", "auto"): (356, 2586, 1214, {
        (0, 0): 219, (0, 1): 219, (1, 0): 309, (1, 1): 283, (2, 0): 143,
        (2, 1): 41}),
    (1, "yx", "auto"): (362, 2629, 1214, {
        (0, 0): 207, (0, 1): 274, (1, 0): 193, (1, 1): 295, (2, 0): 143,
        (2, 1): 102}),
    (2, "yx", "auto"): (360, 2615, 1214, {
        (0, 0): 207, (0, 1): 274, (1, 0): 193, (1, 1): 295, (2, 0): 143,
        (2, 1): 102}),
    (4, "yx", "auto"): (356, 2587, 1214, {
        (0, 0): 207, (0, 1): 274, (1, 0): 193, (1, 1): 295, (2, 0): 143,
        (2, 1): 102}),
    (1, "xy", "explicit"): (393, 2894, 1427, {
        (0, 0): 210, (0, 1): 117, (0, 2): 181, (1, 0): 166, (1, 1): 219,
        (1, 2): 166, (2, 0): 175, (2, 1): 50, (2, 2): 143}),
    (2, "xy", "explicit"): (374, 2887, 1427, {
        (0, 0): 210, (0, 1): 117, (0, 2): 181, (1, 0): 166, (1, 1): 219,
        (1, 2): 166, (2, 0): 175, (2, 1): 50, (2, 2): 143}),
    (4, "xy", "explicit"): (370, 2857, 1427, {
        (0, 0): 210, (0, 1): 117, (0, 2): 181, (1, 0): 166, (1, 1): 219,
        (1, 2): 166, (2, 0): 175, (2, 1): 50, (2, 2): 143}),
    (1, "yx", "explicit"): (376, 2890, 1427, {
        (0, 0): 210, (0, 1): 166, (0, 2): 175, (1, 0): 117, (1, 1): 219,
        (1, 2): 50, (2, 0): 181, (2, 1): 166, (2, 2): 143}),
    (2, "yx", "explicit"): (374, 2879, 1427, {
        (0, 0): 210, (0, 1): 166, (0, 2): 175, (1, 0): 117, (1, 1): 219,
        (1, 2): 50, (2, 0): 181, (2, 1): 166, (2, 2): 143}),
    (4, "yx", "explicit"): (370, 2851, 1427, {
        (0, 0): 210, (0, 1): 166, (0, 2): 175, (1, 0): 117, (1, 1): 219,
        (1, 2): 50, (2, 0): 181, (2, 1): 166, (2, 2): 143}),
}

#: The link-fault case: fifo_depth 2, xy routing, auto placement.
FAULTED = (654, 2882, 1214, {
    (0, 0): 219, (0, 1): 219, (1, 0): 309, (1, 1): 283, (2, 0): 143,
    (2, 1): 41})
FAULTED_HOP_FAULTS = 236


@pytest.mark.parametrize("fifo_depth", [1, 2, 4])
@pytest.mark.parametrize("routing", ["xy", "yx"])
@pytest.mark.parametrize("placement", ["auto", "explicit"])
def test_schedule_is_pinned(fifo_depth, routing, placement):
    got = run_case(fifo_depth, routing,
                   EXPLICIT if placement == "explicit" else None)
    assert got == EXPECTED[(fifo_depth, routing, placement)]


def test_link_fault_schedule_is_pinned():
    spec = FaultSpec(link_faults=[LinkFaultRule(
        fabric="xpipes", jitter=2, stall_probability=0.2, stall_cycles=5)])
    injector = FaultInjector(spec, seed=11)
    got = run_case(2, "xy", injector=injector)
    assert got == FAULTED
    assert injector.counters["hop_faults_injected"] == FAULTED_HOP_FAULTS


class TestTransportErrors:
    def test_non_head_flit_at_idle_input_raises(self):
        system = TinySystem("xpipes", masters=1)
        noc = system.fabric
        packet = Packet(1, (0, 0), (1, 0), 3,
                        Request(OCPCommand.READ, MEM_BASE))
        assert noc._routers[(0, 0)].inputs[LOCAL].try_put(Flit(packet, 1))
        with pytest.raises(OCPError, match="expected head flit"):
            system.run()

    def test_route_off_the_mesh_raises(self):
        system = TinySystem("xpipes", masters=1)
        noc = system.fabric
        packet = Packet(1, (0, 0), (noc.width, 0), 1,
                        Request(OCPCommand.READ, MEM_BASE))
        assert noc._routers[(0, 0)].inputs[LOCAL].try_put(Flit(packet, 0))
        with pytest.raises(OCPError, match="off-mesh"):
            system.run()
