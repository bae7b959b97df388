"""Cloning-mode schedule lock: the exact replay of a FIFO-issuing TG.

In :attr:`ReplayMode.CLONING` the program races ahead and an issuer
process drains the queued transactions in order.  These cases pin what
that produced on every pin-accurate fabric:

* simulated cycles, every master's completion and ``events_fired``;
* the fabric's transaction and beat counts;
* for the hand-written case, every TG's read-data register and the
  memory the bursts wrote.

The values were recorded on the issuer that re-dispatched each queued
entry per command, so a rewrite of the issue queue must keep every
transaction on the very same cycle to stay green.
"""

import pytest

from repro.apps import mp_matrix
from repro.core import ReplayMode, TGInstruction, TGMaster, TGOp, TGProgram
from repro.core.isa import ADDRREG, DATAREG, RDREG
from repro.harness import build_tg_platform, reference_run, translate_traces
from repro.platform import MparmPlatform, PlatformConfig, SHARED_BASE

FABRICS = ("ahb", "stbus", "xpipes")


@pytest.fixture(scope="module")
def mp_matrix_programs():
    """TLM-traced mp_matrix, 4 cores, n=4, translated for cloning."""
    _, collectors, _ = reference_run(mp_matrix, 4, "tlm", {"n": 4})
    return translate_traces(collectors, 4, ReplayMode.CLONING)


# (cycles, completions, events fired, transactions, beats)
MP_MATRIX_PINS = {
    "ahb": (1522, [1522, 1473, 1475, 1485], 3648, 542, 782),
    "stbus": (1379, [1379, 1288, 1294, 1299], 4141, 542, 782),
    "xpipes": (2005, [1534, 1848, 1937, 2005], 19240, 542, 782),
}


@pytest.mark.parametrize("interconnect", FABRICS)
def test_mp_matrix_cloning_replay(mp_matrix_programs, interconnect):
    platform = build_tg_platform(mp_matrix_programs, 4, interconnect)
    platform.run()
    stats = platform.fabric.stats
    assert (platform.sim.now, platform.completion_times,
            platform.sim.events_fired, stats.transactions,
            stats.beats_transferred) == MP_MATRIX_PINS[interconnect]


def _all_commands(master_id):
    """Every OCP instruction kind, queued back to back from each TG."""
    def I(op, **kwargs):  # noqa: E743
        return TGInstruction(op, **kwargs)

    base = SHARED_BASE + 0x100 * master_id
    code = [I(TGOp.IDLE, imm=master_id)]
    for i in range(3):
        code += [I(TGOp.SET_REGISTER, a=ADDRREG, imm=base + 16 * i),
                 I(TGOp.SET_REGISTER, a=DATAREG, imm=(master_id << 8) | i),
                 I(TGOp.WRITE, a=ADDRREG, b=DATAREG),
                 I(TGOp.BURST_WRITE, a=ADDRREG, b=4, imm=4 * i),
                 I(TGOp.READ, a=ADDRREG),
                 I(TGOp.BURST_READ, a=ADDRREG, b=4),
                 I(TGOp.IDLE, imm=2)]
    code += [I(TGOp.READ, a=ADDRREG), I(TGOp.HALT)]
    return TGProgram(core_id=master_id, instructions=code,
                     pool=[master_id * 100 + j for j in range(12)],
                     mode=ReplayMode.CLONING)


# (cycles, completions, events fired, transactions, beats)
ALL_COMMAND_PINS = {
    "ahb": (175, [169, 172, 175], 236, 39, 93),
    "stbus": (137, [133, 135, 137], 236, 39, 93),
    "xpipes": (196, [180, 184, 196], 1539, 39, 93),
}


@pytest.mark.parametrize("interconnect", FABRICS)
def test_all_commands_cloning_replay(interconnect):
    platform = MparmPlatform(PlatformConfig(n_masters=3,
                                            interconnect=interconnect))
    for master_id in range(3):
        platform.add_master(TGMaster(platform.sim, f"tg{master_id}",
                                     _all_commands(master_id)))
    platform.run()
    stats = platform.fabric.stats
    assert (platform.sim.now, platform.completion_times,
            platform.sim.events_fired, stats.transactions,
            stats.beats_transferred) == ALL_COMMAND_PINS[interconnect]
    assert [tg.regs[RDREG] for tg in platform.masters] == [8, 108, 208]
    assert platform.shared_mem.peek_block(SHARED_BASE, 12) == list(range(12))
