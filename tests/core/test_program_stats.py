"""TGProgram.stats() footprint summary and the tgdump --stats CLI."""

import json

import pytest

from repro.cli import tgasm_main, tgdump_main
from repro.core import TGInstruction, TGOp, TGProgram
from repro.core.assembler import assemble_binary
from repro.core.isa import ADDRREG


def I(op, **kwargs):  # noqa: E743
    return TGInstruction(op, **kwargs)


def sample():
    program = TGProgram(core_id=1)
    program.append(I(TGOp.SET_REGISTER, a=ADDRREG, imm=0x100))
    program.append(I(TGOp.IDLE, imm=5))
    program.append(I(TGOp.READ, a=ADDRREG))
    program.append(I(TGOp.READ, a=ADDRREG))
    program.add_pool([1, 2, 3])
    program.append(I(TGOp.BURST_WRITE, a=ADDRREG, b=3, imm=0))
    program.append(I(TGOp.HALT))
    return program


class TestStats:
    def test_histogram(self):
        stats = sample().stats()
        assert stats["histogram"] == {
            "BURST_WRITE": 1, "HALT": 1, "IDLE": 1, "READ": 2,
            "SET_REGISTER": 1}

    def test_image_size_matches_binary(self):
        program = sample()
        stats = program.stats()
        assert stats["image_bytes"] == len(assemble_binary(program))
        assert stats["image_words"] * 4 == stats["image_bytes"]

    def test_counts(self):
        stats = sample().stats()
        assert stats["instructions"] == 6
        assert stats["pool_words"] == 3
        assert stats["mode"] == "reactive"


class TestTgdumpStats:
    def test_cli_stats_json(self, tmp_path, capsys):
        program = sample()
        tgp = tmp_path / "p.tgp"
        image = tmp_path / "p.bin"
        tgp.write_text(program.to_tgp())
        tgasm_main([str(tgp), "-o", str(image)])
        capsys.readouterr()
        assert tgdump_main([str(image), "--stats"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["instructions"] == 6
        assert data["image_bytes"] == len(assemble_binary(program))


class TestMultitaskOooRejection:
    def test_multitask_rejects_ooo_ops_at_construction(self):
        from repro.core import MultitaskTGMaster, TGError
        from repro.platform import MparmPlatform, PlatformConfig
        program = TGProgram(core_id=0, instructions=[
            I(TGOp.SET_REGISTER, a=ADDRREG, imm=0x1900_0000),
            I(TGOp.READ_NB, a=ADDRREG),
            I(TGOp.HALT),
        ])
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        with pytest.raises(TGError):
            MultitaskTGMaster(platform.sim, "mt", [program])
