"""Programs are validated where they are made or read in, and only there.

``TGMaster`` (and ``assemble_binary``) call ``validate()`` again, which
costs a list comparison for a program unchanged since it passed.  A
program built by hand and never validated, or edited after it passed, is
still checked in full and rejected with a typed :class:`TGError`.
"""

import pytest

from repro.core import (
    TGError,
    TGInstruction,
    TGOp,
    TGProgram,
    assemble_binary,
    disassemble_binary,
    parse_tgp,
)
from repro.core.isa import ADDRREG
from repro.harness import build_tg_platform

CORES = 2


def _program(core_id):
    return TGProgram(core_id=core_id, instructions=[
        TGInstruction(TGOp.SET_REGISTER, a=ADDRREG, imm=0x100),
        TGInstruction(TGOp.READ, a=ADDRREG),
        TGInstruction(TGOp.HALT),
    ])


@pytest.fixture
def validate_calls(monkeypatch):
    """Count per-instruction ``isa`` validation calls."""
    calls = []
    original = TGInstruction.validate

    def counting(self, n_instructions, pool_size):
        calls.append(self.op)
        return original(self, n_instructions, pool_size)

    monkeypatch.setattr(TGInstruction, "validate", counting)
    return calls


class TestValidateOnce:
    @pytest.mark.parametrize("read_in", ["parse_tgp", "disassemble_binary"])
    def test_read_in_program_is_not_revalidated_by_the_tg(
            self, validate_calls, read_in):
        programs = {}
        for core in range(CORES):
            if read_in == "parse_tgp":
                programs[core] = parse_tgp(_program(core).to_tgp())
            else:
                programs[core] = disassemble_binary(
                    assemble_binary(_program(core)))
        del validate_calls[:]
        platform = build_tg_platform(programs, CORES, "ahb")
        assert validate_calls == []
        platform.run()
        assert all(master.finished for master in platform.masters)

    def test_hand_built_program_is_validated_once(self, validate_calls):
        program = _program(0)
        program.validate()
        assert len(validate_calls) == 3
        assemble_binary(program)
        program.validate()
        assert len(validate_calls) == 3

    def test_edit_after_validation_is_checked_again(self):
        program = _program(0)
        program.validate()
        program.instructions[1] = TGInstruction(TGOp.READ, a=99)
        with pytest.raises(TGError, match="address register 99"):
            program.validate()

    def test_pool_shrunk_after_validation_is_checked_again(self):
        program = TGProgram(instructions=[
            TGInstruction(TGOp.BURST_WRITE, a=ADDRREG, b=2, imm=0),
            TGInstruction(TGOp.HALT)], pool=[1, 2])
        program.validate()
        program.pool.pop()
        with pytest.raises(TGError, match="outside pool"):
            program.validate()


class TestInvalidProgramIntoPlatform:
    @pytest.mark.parametrize("bad", [
        [TGInstruction(TGOp.READ, a=ADDRREG)],               # no Halt
        [TGInstruction(TGOp.READ, a=42), TGInstruction(TGOp.HALT)],
        [TGInstruction(TGOp.JUMP, imm=7)],                   # off the end
        [],
    ])
    def test_hand_built_invalid_program_raises_tgerror(self, bad):
        programs = {0: TGProgram(core_id=0, instructions=bad),
                    1: _program(1)}
        with pytest.raises(TGError):
            build_tg_platform(programs, CORES, "ahb")
