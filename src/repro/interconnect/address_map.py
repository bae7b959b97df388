"""Global address decoding shared by all fabrics."""

from bisect import bisect_right
from typing import List, Optional

from repro.ocp.types import OCPError, Request, WORD_BYTES


class AddressRange:
    """A mapped slave: ``[base, base+size)`` served by ``slave_port``."""

    __slots__ = ("base", "size", "slave_port", "name")

    def __init__(self, base: int, size: int, slave_port, name: str = ""):
        if size <= 0:
            raise OCPError(f"range size must be positive, got {size}")
        if base % WORD_BYTES != 0:
            raise OCPError(f"range base 0x{base:x} not word aligned")
        self.base = base
        self.size = size
        self.slave_port = slave_port
        self.name = name or getattr(slave_port, "name", "slave")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def __repr__(self) -> str:
        return f"<AddressRange {self.name!r} [0x{self.base:08x}, 0x{self.end:08x})>"


class AddressMap:
    """Ordered collection of non-overlapping address ranges."""

    def __init__(self) -> None:
        self._ranges: List[AddressRange] = []
        self._bases: List[int] = []  # sorted range bases, for bisect

    def add(self, base: int, size: int, slave_port, name: str = "") -> AddressRange:
        """Map ``slave_port`` at ``[base, base+size)``; rejects overlaps."""
        new = AddressRange(base, size, slave_port, name)
        for existing in self._ranges:
            if existing.overlaps(new):
                raise OCPError(f"{new!r} overlaps {existing!r}")
        self._ranges.append(new)
        self._ranges.sort(key=lambda r: r.base)
        self._bases = [range_.base for range_ in self._ranges]
        return new

    @property
    def ranges(self) -> List[AddressRange]:
        return list(self._ranges)

    def find(self, addr: int) -> Optional[AddressRange]:
        """Range containing ``addr``, or None.

        Ranges never overlap, so the only candidate is the one with the
        greatest base ``<= addr``.
        """
        index = bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        range_ = self._ranges[index]
        return range_ if addr < range_.base + range_.size else None

    def decode(self, request: Request) -> AddressRange:
        """Resolve a request to its slave; the whole burst must fit."""
        range_ = self.find(request.addr)
        if range_ is None:
            raise OCPError(f"unmapped address 0x{request.addr:08x}")
        last = request.addr + (request.burst_len - 1) * WORD_BYTES
        if not range_.contains(last):
            raise OCPError(
                f"burst {request!r} crosses out of {range_!r}")
        return range_

    def slave_ports(self) -> List:
        """All distinct slave ports in mapping order."""
        seen = []
        for range_ in self._ranges:
            if range_.slave_port not in seen:
                seen.append(range_.slave_port)
        return seen
