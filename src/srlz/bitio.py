"""MSB-first bit packing, and the FNV-1a 64 hash behind the side-information
checksum of conditional streams and the CLI's file checksums.  Containers
themselves end in a `zlib.crc32` trailer (see `srlz.container`).

Both directions run in time linear in the stream length.  `pack` is the one
packing loop: it keeps fewer than 64 pending bits in a small int and flushes
whole bytes into a buffer.  `lz_encode` and `_cond_encode` hand it one field
per phrase; `BitWriter` collects fields for it.  `refill` is
the one reading loop: it feeds a decoder that keeps its own bit window,
8 bytes at a time; `BitReader` is a front end that keeps that window for
callers that read one field at a time.

`fnv1a64_u32` hashes the 4-byte images of values without building them: it
folds 4 values per loop step when all are below 2^8 and 2 when all are
below 2^16, and masks to 64 bits once per step.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .container import TruncatedStreamError

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME2 = FNV64_PRIME ** 2 & _FNV_MASK
_FNV_PRIME3 = FNV64_PRIME ** 3 & _FNV_MASK
_FNV_PRIME4 = FNV64_PRIME ** 4 & _FNV_MASK


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """FNV-1a 64 of `data`, optionally continuing from a previous value."""
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _FNV_MASK
    return h


def fnv1a64_u32(values: Sequence[int], h: int = FNV64_OFFSET, bound: int = 1 << 32) -> int:
    """fnv1a64 of the 4-byte big-endian images of `values`, each below `bound`.

    XOR with a zero byte changes nothing, so the three leading zero bytes of
    a value below 2^8 fold into one multiply by the prime's cube, and the two
    of a value below 2^16 into one by its square.  XOR with a byte touches
    only the low 8 bits, and the low 64 bits of a product depend only on the
    low 64 bits of its factors, so one mask per loop step suffices: a step
    takes 4 values when `bound` <= 2^8 and 2 when `bound` <= 2^16.  The
    values left over, or all of them for a larger bound, take one step each.
    """
    it = iter(values)
    if bound <= 0x100:
        for a, b, c, d in zip(it, it, it, it):
            h = ((((h * _FNV_PRIME3 ^ a) * _FNV_PRIME4 ^ b) * _FNV_PRIME4 ^ c)
                 * _FNV_PRIME4 ^ d) * FNV64_PRIME & _FNV_MASK
        rest = values[len(values) & ~3:]
    elif bound <= 0x10000:
        for a, b in zip(it, it):
            h = ((((h * _FNV_PRIME2 ^ a >> 8) * FNV64_PRIME ^ a & 0xFF) * _FNV_PRIME3
                  ^ b >> 8) * FNV64_PRIME ^ b & 0xFF) * FNV64_PRIME & _FNV_MASK
        rest = values[len(values) & ~1:]
    else:
        rest = values
    for v in rest:
        h = ((((h ^ v >> 24) * FNV64_PRIME ^ v >> 16 & 0xFF) * FNV64_PRIME ^ v >> 8 & 0xFF)
             * FNV64_PRIME ^ v & 0xFF) * FNV64_PRIME & _FNV_MASK
    return h


def pack(values: Iterable[int], widths: Iterable[int]) -> Tuple[bytes, int]:
    """Pack fixed-width unsigned fields, the first most significant, into
    bytes zero-padded to a byte boundary; returns (bytes, bit length)."""
    buf = bytearray()  # whole bytes already flushed
    acc = 0            # the last `pending` bits packed
    pending = 0
    for value, width in zip(values, widths):
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = acc << width | value
        pending += width
        if pending >= 64:
            keep = pending & 7
            buf += (acc >> keep).to_bytes(pending >> 3, "big")
            acc &= (1 << keep) - 1
            pending = keep
    total = (len(buf) << 3) + pending
    pad = -pending % 8
    buf += (acc << pad).to_bytes((pending + pad) >> 3, "big")
    return bytes(buf), total


class BitWriter:
    """Collects fixed-width unsigned fields for `pack`, rejecting a field
    that does not fit when it is written."""

    __slots__ = ("_values", "_widths", "_bits")

    def __init__(self) -> None:
        self._values: List[int] = []
        self._widths: List[int] = []
        self._bits = 0

    def write(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._values.append(value)
        self._widths.append(width)
        self._bits += width

    @property
    def bit_length(self) -> int:
        return self._bits

    def to_bytes(self) -> bytes:
        """Pack to bytes, zero-padding the tail to a byte boundary."""
        return pack(self._values, self._widths)[0]


def refill(data: bytes, acc: int, have: int, pos: int, width: int) -> Tuple[int, int, int]:
    """Load bytes of `data` from `pos`, 8 at a time, into the bit window
    (acc, have) until it holds at least `width` bits; returns (acc, have, pos).

    The window `acc` < 2^have holds the next `have` unread bits, and data[pos]
    is the next byte.  A caller reads a field of width w <= have as
    `have -= w; value = acc >> have; acc ^= value << have`, and the field
    started at bit 8*pos - have - w of `data`.
    """
    while have < width:
        chunk = data[pos:pos + 8]
        if not chunk:
            raise TruncatedStreamError(f"unexpected end of bitstream at bit {8 * pos - have}")
        acc = acc << 8 * len(chunk) | int.from_bytes(chunk, "big")
        have += 8 * len(chunk)
        pos += len(chunk)
    return acc, have, pos


class BitReader:
    """Reads fixed-width unsigned fields from bytes produced by BitWriter:
    a front end over the `refill` window.  A failed read leaves it as it was."""

    __slots__ = ("_data", "_acc", "_have", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._acc = self._have = self._pos = 0

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("negative width")
        acc, have, pos = self._acc, self._have, self._pos
        if have < width:
            acc, have, pos = refill(self._data, acc, have, pos, width)
        have -= width
        value = acc >> have
        self._acc, self._have, self._pos = acc ^ value << have, have, pos
        return value

    @property
    def bits_read(self) -> int:
        return 8 * self._pos - self._have

    @property
    def bits_left(self) -> int:
        return 8 * len(self._data) - self.bits_read
