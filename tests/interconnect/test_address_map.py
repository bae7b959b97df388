"""Unit tests for address decoding."""

import pytest

from repro.interconnect import AddressMap
from repro.ocp import OCPCommand, OCPError, Request


class FakePort:
    def __init__(self, name):
        self.name = name


class TestAddressMap:
    def make(self):
        amap = AddressMap()
        self.ram = FakePort("ram")
        self.dev = FakePort("dev")
        amap.add(0x0000, 0x1000, self.ram, "ram")
        amap.add(0x8000, 0x100, self.dev, "dev")
        return amap

    def test_find_hits(self):
        amap = self.make()
        assert amap.find(0x0).slave_port is self.ram
        assert amap.find(0x0FFC).slave_port is self.ram
        assert amap.find(0x8000).slave_port is self.dev

    def test_find_miss(self):
        amap = self.make()
        assert amap.find(0x1000) is None
        assert amap.find(0x8100) is None

    def test_decode_request(self):
        amap = self.make()
        req = Request(OCPCommand.READ, 0x8000)
        assert amap.decode(req).slave_port is self.dev

    def test_decode_unmapped_raises(self):
        amap = self.make()
        with pytest.raises(OCPError):
            amap.decode(Request(OCPCommand.READ, 0x7000))

    def test_burst_crossing_boundary_raises(self):
        amap = self.make()
        req = Request(OCPCommand.BURST_READ, 0x0FF8, burst_len=4)
        with pytest.raises(OCPError):
            amap.decode(req)

    def test_burst_inside_range_ok(self):
        amap = self.make()
        req = Request(OCPCommand.BURST_READ, 0x0FF0, burst_len=4)
        assert amap.decode(req).slave_port is self.ram

    def test_overlap_rejected(self):
        amap = self.make()
        with pytest.raises(OCPError):
            amap.add(0x0800, 0x1000, FakePort("bad"))

    def test_adjacent_ranges_ok(self):
        amap = self.make()
        amap.add(0x1000, 0x1000, FakePort("next"))
        assert amap.find(0x1000).name == "next"

    def test_zero_size_rejected(self):
        with pytest.raises(OCPError):
            AddressMap().add(0x0, 0, FakePort("zero"))

    def test_unaligned_base_rejected(self):
        with pytest.raises(OCPError):
            AddressMap().add(0x2, 0x100, FakePort("odd"))

    def test_ranges_sorted(self):
        amap = self.make()
        bases = [r.base for r in amap.ranges]
        assert bases == sorted(bases)

    def test_slave_ports_deduplicated(self):
        amap = AddressMap()
        port = FakePort("two_windows")
        amap.add(0x0, 0x100, port)
        amap.add(0x1000, 0x100, port)
        assert amap.slave_ports() == [port]


class TestFindBoundaries:
    """``find`` bisects the sorted bases; every edge of every range."""

    def make(self):
        amap = AddressMap()
        self.ports = [FakePort(name) for name in ("a", "b", "c")]
        # added out of order, with a gap between b and c
        amap.add(0x2000, 0x100, self.ports[1])
        amap.add(0x1000, 0x1000, self.ports[0])
        amap.add(0x8000, 0x40, self.ports[2])
        return amap

    def test_below_first_base(self):
        amap = self.make()
        assert amap.find(0x0) is None
        assert amap.find(0x0FFC) is None

    def test_base_and_last_word_hit(self):
        amap = self.make()
        for range_, port in zip(amap.ranges, self.ports):
            assert amap.find(range_.base).slave_port is port
            assert amap.find(range_.end - 1).slave_port is port
            assert amap.find(range_.end - 4).slave_port is port

    def test_end_is_exclusive(self):
        amap = self.make()
        # 0x2000 is both the end of a and the base of b (adjacent ranges)
        assert amap.find(0x2000).slave_port is self.ports[1]
        assert amap.find(0x2100) is None
        assert amap.find(0x8040) is None

    def test_gap_between_ranges(self):
        amap = self.make()
        assert amap.find(0x2100) is None
        assert amap.find(0x4000) is None
        assert amap.find(0x7FFC) is None

    def test_beyond_last_range(self):
        amap = self.make()
        assert amap.find(0x803C).slave_port is self.ports[2]
        assert amap.find(0xFFFF_FFFC) is None

    def test_empty_map(self):
        assert AddressMap().find(0x0) is None

    def test_matches_linear_scan(self):
        amap = self.make()
        for addr in range(0, 0x9000, 0x3C):
            expected = next((r for r in amap.ranges if r.contains(addr)),
                            None)
            assert amap.find(addr) is expected
