"""MSB-first bit packing and the FNV-1a 64 hash used for stream checksums.

Both directions run in time linear in the stream length: the writer keeps
fewer than 64 pending bits in a small int and flushes whole bytes into a
buffer, and the reader converts only the bytes that hold the field it reads.
"""

from __future__ import annotations

from typing import Iterable

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME2 = FNV64_PRIME ** 2 & _FNV_MASK
_FNV_PRIME3 = FNV64_PRIME ** 3 & _FNV_MASK


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """FNV-1a 64 of `data`, optionally continuing from a previous value."""
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _FNV_MASK
    return h


def fnv1a64_u32(values: Iterable[int], h: int = FNV64_OFFSET) -> int:
    """fnv1a64 of the 4-byte big-endian images of `values`, without building them.

    XOR with a zero byte changes nothing, so the leading zero bytes of a value
    below 2^16 fold into one multiply by a power of the prime.  Only the low
    64 bits of h matter, so the mask is applied once per value.
    """
    for v in values:
        if v < 0x100:
            h = ((h * _FNV_PRIME3) ^ v) * FNV64_PRIME & _FNV_MASK
        elif v < 0x10000:
            h = (((h * _FNV_PRIME2) ^ (v >> 8)) * FNV64_PRIME ^ (v & 0xFF)) * FNV64_PRIME & _FNV_MASK
        else:
            h = fnv1a64(v.to_bytes(4, "big"), h)
    return h


class TruncatedStreamError(ValueError):
    """Raised when a read runs past the end of the bitstream."""


class BitWriter:
    """Accumulates fixed-width unsigned fields, first-written bit most significant."""

    __slots__ = ("_buf", "_acc", "_pending")

    def __init__(self) -> None:
        self._buf = bytearray()  # whole bytes already flushed
        self._acc = 0            # the last _pending bits written
        self._pending = 0

    def write(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        pending = self._pending + width
        if pending >= 64:
            keep = pending & 7
            self._buf += (acc >> keep).to_bytes(pending >> 3, "big")
            acc &= (1 << keep) - 1
            pending = keep
        self._acc = acc
        self._pending = pending

    @property
    def bit_length(self) -> int:
        return (len(self._buf) << 3) + self._pending

    def to_bytes(self) -> bytes:
        """Pack to bytes, zero-padding the tail to a byte boundary."""
        pad = -self._pending % 8
        tail = (self._acc << pad).to_bytes((self._pending + pad) >> 3, "big")
        return bytes(self._buf) + tail


class BitReader:
    """Reads fixed-width unsigned fields from bytes produced by BitWriter."""

    __slots__ = ("_data", "_total", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._total = len(data) * 8
        self._pos = 0

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("negative width")
        pos = self._pos
        end = pos + width
        if end > self._total:
            raise TruncatedStreamError("unexpected end of bitstream")
        self._pos = end
        chunk = int.from_bytes(self._data[pos >> 3:(end + 7) >> 3], "big")
        return (chunk >> (-end & 7)) & ((1 << width) - 1)

    @property
    def bits_read(self) -> int:
        return self._pos

    @property
    def bits_left(self) -> int:
        return self._total - self._pos
