"""Unit tests for OCP datatypes."""

import pytest
from hypothesis import given, strategies as st

from repro.ocp import OCPCommand, OCPError, Request, Response


class TestOCPCommand:
    def test_read_flags(self):
        assert OCPCommand.READ.is_read
        assert not OCPCommand.READ.is_write
        assert not OCPCommand.READ.is_burst

    def test_burst_write_flags(self):
        cmd = OCPCommand.BURST_WRITE
        assert cmd.is_write and cmd.is_burst and not cmd.is_read

    def test_burst_read_flags(self):
        cmd = OCPCommand.BURST_READ
        assert cmd.is_read and cmd.is_burst


class TestRequestValidation:
    def test_simple_read(self):
        req = Request(OCPCommand.READ, 0x100)
        assert req.burst_len == 1
        assert req.data is None

    def test_unaligned_address_rejected(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.READ, 0x101)

    def test_address_out_of_space_rejected(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.READ, 0x1_0000_0000)

    def test_negative_address_rejected(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.READ, -4)

    def test_write_needs_int_data(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.WRITE, 0x100)
        with pytest.raises(OCPError):
            Request(OCPCommand.WRITE, 0x100, [1, 2])

    def test_read_must_not_carry_data(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.READ, 0x100, 5)

    def test_burst_read_needs_len_ge_2(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.BURST_READ, 0x100, burst_len=1)

    def test_single_read_rejects_burst_len(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.READ, 0x100, burst_len=4)

    def test_burst_write_data_length_must_match(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.BURST_WRITE, 0x100, [1, 2, 3], burst_len=4)

    def test_zero_burst_rejected(self):
        with pytest.raises(OCPError):
            Request(OCPCommand.READ, 0x100, burst_len=0)

    @pytest.mark.parametrize("cmd, data, burst_len", [
        (OCPCommand.READ, None, 1),
        (OCPCommand.WRITE, 7, 1),
        (OCPCommand.BURST_READ, None, 4),
        (OCPCommand.BURST_WRITE, [1, 2, 3, 4], 4),
    ])
    def test_flag_fields_match_the_command(self, cmd, data, burst_len):
        req = Request(cmd, 0x100, data, burst_len)
        assert (req.is_read, req.is_burst) == (cmd.is_read, cmd.is_burst)

    def test_unknown_command_rejected(self):
        with pytest.raises(OCPError, match="unknown OCP command"):
            Request("RD", 0x100)

    def test_beat_addresses(self):
        req = Request(OCPCommand.BURST_READ, 0x100, burst_len=4)
        assert req.beat_addresses == [0x100, 0x104, 0x108, 0x10C]

    def test_uids_are_unique(self):
        a = Request(OCPCommand.READ, 0x0)
        b = Request(OCPCommand.READ, 0x0)
        assert a.uid != b.uid

    @given(st.integers(0, 0x3FFF_FFFF), st.integers(2, 16))
    def test_beat_addresses_are_word_strided(self, word_index, burst_len):
        addr = word_index * 4
        req = Request(OCPCommand.BURST_READ, addr, burst_len=burst_len)
        beats = req.beat_addresses
        assert len(beats) == burst_len
        assert all(b - a == 4 for a, b in zip(beats, beats[1:]))


class TestResponse:
    def test_word_from_single(self):
        req = Request(OCPCommand.READ, 0x0)
        assert Response(req, 42).word == 42

    def test_word_from_burst_is_first_beat(self):
        req = Request(OCPCommand.BURST_READ, 0x0, burst_len=3)
        assert Response(req, [7, 8, 9]).word == 7

    def test_words_normalises_to_list(self):
        req = Request(OCPCommand.READ, 0x0)
        assert Response(req, 5).words == [5]
        assert Response(req).words == []

    def test_word_without_data_raises(self):
        req = Request(OCPCommand.READ, 0x0)
        with pytest.raises(OCPError):
            Response(req).word
