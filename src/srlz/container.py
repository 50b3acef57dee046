"""Self-describing binary containers shared by every codec in the package.

Leaf containers (plain and conditional streams) carry a header and a
bit-packed payload padded to a byte boundary; a conditional stream's header
also holds the side-information checksum.  Wrapper containers (refinement and
description pairs) reuse the same header with an empty alphabet block; their
payload is a segment directory followed by the raw segment bytes, so embedded
streams stay exactly delimited.

Every container, leaf or wrapper, ends in a 4-byte big-endian `zlib.crc32` of
all bytes before it.  The parsers read the header, alphabet and directory
first, so a malformed field keeps its own error, and check the trailer before
they return: a decoder only sees fields that the checksum has verified.
Every format error raised here names the byte offset of the field at fault.

The module also holds the error classes the package shares and `Record`, the
base that gives every result record its ==, hash and repr.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Dict, Optional, Sequence as Seq, Tuple

MAGIC = b"SRLZ"
VERSION = 2
CRC_BYTES = 4  # the zlib.crc32 trailer

MODE_LZ = 0
MODE_COND = 1
MODE_SR = 2
MODE_MD1 = 3
MODE_MD2 = 4

MODE_NAMES = {
    MODE_LZ: "lz",
    MODE_COND: "cond",
    MODE_SR: "sr",
    MODE_MD1: "md-desc1",
    MODE_MD2: "md-desc2",
}

# Segment roles inside wrapper containers.
ROLE_STAGE1 = 1        # first-stage plain stream of an sr pair
ROLE_STAGE2 = 2        # refinement conditional stream of an sr pair
ROLE_MD_PRIMARY = 3    # plain stream private to one description
ROLE_COND_PART_A = 4   # first byte-slice of a shared conditional stream
ROLE_COND_PART_B = 5   # remaining byte-slice of a shared conditional stream
ROLE_AUX = 6           # plain stream of the shared auxiliary sequence
ROLE_COND_GIVEN_AUX = 7  # conditional stream given the auxiliary sequence


class StreamFormatError(ValueError):
    """Malformed container: bad magic, version, mode, or inconsistent fields."""


class TruncatedStreamError(StreamFormatError):
    """Raised when a read runs past the end of the container or bitstream."""


class PointerRangeError(StreamFormatError):
    """A phrase pointer referenced a phrase that does not exist yet."""


class ModeMismatchError(StreamFormatError):
    """Container mode does not match the requested decode operation."""


class SideInfoMismatchError(ValueError):
    """Side information handed to the decoder differs from the encoder's."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class InfeasibleError(ValueError):
    """No solution exists under the given constraints."""


class Record:
    """Value semantics from `__slots__`, which list the fields in `__init__` order.

    Unless a subclass writes its own `__init__`, the base builds one that takes
    one parameter per slot, in slot order, and stores each; `_defaults` maps
    the trailing slots that may be omitted to their default values, and the
    fields named in `_fresh_dicts` store a new {} when passed None.  == compares
    records of the same class field by field (other classes get
    NotImplemented), hash is the hash of the same field tuple, and repr has the
    dataclass format.  A subclass names the fields left out of == and hash in
    `_uncompared` and those left out of repr in `_unshown`; a mutable one sets
    `__hash__ = None`.
    """

    __slots__ = ()
    _defaults: Dict[str, object] = {}
    _fresh_dicts: Tuple[str, ...] = ()
    _uncompared: Tuple[str, ...] = ()
    _unshown: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A compiled tuple of slot reads costs what a hand-written _key method
        # does; operator.attrgetter's generic lookups made == about 1.8 times
        # as slow on CPython 3.11.  Slot names are identifiers, so the source
        # is safe to compile.
        fields = "".join(f"self.{f}, " for f in cls.__slots__ if f not in cls._uncompared)
        cls._key = eval(f"lambda self: ({fields})")
        cls._shown = tuple(f for f in cls.__slots__ if f not in cls._unshown)
        if "__init__" not in cls.__dict__:
            # compiled for the same reason: it runs as fast as a written one
            params = "".join(f", {f}=_defaults[{f!r}]" if f in cls._defaults else f", {f}"
                             for f in cls.__slots__)
            body = "".join(f"\n    self.{f} = {{}} if {f} is None else {f}"
                           if f in cls._fresh_dicts else f"\n    self.{f} = {f}"
                           for f in cls.__slots__)
            scope: Dict[str, object] = {}
            exec(f"def __init__(self{params}):{body}",
                 {"__name__": cls.__module__, "_defaults": cls._defaults}, scope)
            scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = scope["__init__"]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({fields})"


class Bitstream(Record):
    """A decoded or to-be-serialized leaf container."""

    __slots__ = ("mode", "n", "alphabet", "phrase_count", "last_incomplete", "payload",
                 "payload_bits",  # exact when produced by an encoder
                 "side_checksum")  # conditional streams only
    _defaults = {"payload_bits": None, "side_checksum": None}
    __hash__ = None  # mutable: payload_bits is set after decoding

    def to_bytes(self) -> bytes:
        if self.mode not in (MODE_LZ, MODE_COND):
            raise StreamFormatError(f"not a leaf mode: {self.mode} at byte 5")
        out = bytearray()
        out += MAGIC
        out += struct.pack(">BBQ", VERSION, self.mode, self.n)
        out += struct.pack(">I", len(self.alphabet))
        for sym in self.alphabet:
            enc = sym.encode("utf-8")
            out += struct.pack(">H", len(enc))
            out += enc
        if self.mode == MODE_COND:
            if self.side_checksum is None:
                raise StreamFormatError(
                    f"conditional stream needs a side-info checksum at byte {len(out)}")
            out += struct.pack(">Q", self.side_checksum)
        out += struct.pack(">QB", self.phrase_count, 1 if self.last_incomplete else 0)
        out += self.payload
        return _sealed(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Bitstream":
        mode, n, alphabet, pos = _parse_leaf_header(raw)
        end = len(raw) - CRC_BYTES
        side_checksum = None
        if mode == MODE_COND:
            if pos + 8 > end:
                raise TruncatedStreamError(f"truncated side-info checksum at byte {pos}")
            (side_checksum,) = struct.unpack_from(">Q", raw, pos)
            pos += 8
        if pos + 9 > end:
            raise TruncatedStreamError(f"truncated phrase-count block at byte {pos}")
        phrase_count, flags = struct.unpack_from(">QB", raw, pos)
        pos += 9
        if flags > 1:
            raise StreamFormatError(f"unknown flag bits: {flags:#x} at byte {pos - 1}")
        _check_crc(raw)
        return cls(
            mode=mode,
            n=n,
            alphabet=alphabet,
            phrase_count=phrase_count,
            last_incomplete=bool(flags & 1),
            payload=raw[pos:end],
            payload_bits=None,
            side_checksum=side_checksum,
        )


def _sealed(out: bytearray) -> bytes:
    """The container bytes in `out` with their CRC-32 trailer appended."""
    out += zlib.crc32(out).to_bytes(CRC_BYTES, "big")
    return bytes(out)


def _check_crc(raw: bytes) -> None:
    """Raise unless the trailer is the CRC-32 of every byte before it; the
    parsers call it after their field checks, so `raw` has room for it."""
    end = len(raw) - CRC_BYTES
    if zlib.crc32(memoryview(raw)[:end]) != int.from_bytes(raw[end:], "big"):
        raise StreamFormatError(f"container checksum mismatch (CRC-32 trailer at byte {end})")


def _parse_common_header(raw: bytes) -> Tuple[int, int, Tuple[str, ...], int]:
    """Returns (mode, n, alphabet_symbols, offset past the alphabet block).

    Every field is read from the bytes before the CRC-32 trailer."""
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise StreamFormatError("bad magic at byte 0")
    end = len(raw) - CRC_BYTES
    if end < 4 + 2 + 8 + 4:
        raise TruncatedStreamError("truncated header at byte 4")
    version, mode = raw[4], raw[5]
    if version != VERSION:
        raise StreamFormatError(f"unsupported version: {version} at byte 4")
    if mode not in MODE_NAMES:
        raise StreamFormatError(f"unknown mode byte: {mode} at byte 5")
    (n,) = struct.unpack_from(">Q", raw, 6)
    (count,) = struct.unpack_from(">I", raw, 14)
    pos = 18
    symbols = []
    for _ in range(count):
        if pos + 2 > end:
            raise TruncatedStreamError(f"truncated alphabet block at byte {pos}")
        (slen,) = struct.unpack_from(">H", raw, pos)
        pos += 2
        if pos + slen > end:
            raise TruncatedStreamError(f"truncated alphabet symbol at byte {pos}")
        try:
            symbols.append(raw[pos:pos + slen].decode("utf-8"))
        except UnicodeDecodeError:
            raise StreamFormatError(
                f"alphabet symbol {len(symbols)} at byte {pos} is not UTF-8") from None
        pos += slen
    if len(set(symbols)) != len(symbols):
        raise StreamFormatError("duplicate symbols in the alphabet block at byte 18")
    return mode, n, tuple(symbols), pos


def _parse_leaf_header(raw: bytes) -> Tuple[int, int, Tuple[str, ...], int]:
    mode, n, alphabet, pos = _parse_common_header(raw)
    if mode not in (MODE_LZ, MODE_COND):
        raise ModeMismatchError(
            f"expected a leaf container, got {MODE_NAMES[mode]} at byte 5")
    if not alphabet:
        raise StreamFormatError("leaf container with empty alphabet at byte 14")
    return mode, n, alphabet, pos


def leaf_header_length(raw: bytes) -> int:
    """Byte offset where the bit-packed payload starts in a leaf container."""
    mode, _, _, pos = _parse_leaf_header(raw)
    if mode == MODE_COND:
        pos += 8  # side-info checksum
    return pos + 9  # phrase count + flags


class Segment(Record):
    __slots__ = ("role", "bit_length", "data")
    _unshown = ("data",)  # it can run to megabytes
    __hash__ = None  # mutable, like Bitstream


def pack_segments(mode: int, n: int, segments: Seq[Segment]) -> bytes:
    if mode not in (MODE_SR, MODE_MD1, MODE_MD2):
        raise StreamFormatError(f"not a wrapper mode: {mode} at byte 5")
    out = bytearray()
    out += MAGIC
    out += struct.pack(">BBQ", VERSION, mode, n)
    out += struct.pack(">I", 0)  # no alphabet block on wrappers
    out += struct.pack(">QB", len(segments), 0)
    for seg in segments:
        out += struct.pack(">BQQ", seg.role, len(seg.data), seg.bit_length)
    for seg in segments:
        out += seg.data
    return _sealed(out)


def unpack_segments(raw: bytes, expect_mode: Optional[int] = None) -> Tuple[int, int, Tuple[Segment, ...]]:
    mode, n, alphabet, pos = _parse_common_header(raw)
    if mode not in (MODE_SR, MODE_MD1, MODE_MD2):
        raise ModeMismatchError(
            f"expected a wrapper container, got {MODE_NAMES[mode]} at byte 5")
    if expect_mode is not None and mode != expect_mode:
        raise ModeMismatchError(
            f"expected {MODE_NAMES[expect_mode]} container, got {MODE_NAMES[mode]} at byte 5")
    if alphabet:
        raise StreamFormatError("wrapper container with nonempty alphabet block at byte 14")
    end = len(raw) - CRC_BYTES
    if pos + 9 > end:
        raise TruncatedStreamError(f"truncated segment count at byte {pos}")
    count, flags = struct.unpack_from(">QB", raw, pos)
    pos += 9
    if flags:
        raise StreamFormatError(f"unknown flag bits: {flags:#x} at byte {pos - 1}")
    entries = []
    for _ in range(count):
        if pos + 17 > end:
            raise TruncatedStreamError(f"truncated segment directory at byte {pos}")
        role, blen, bits = struct.unpack_from(">BQQ", raw, pos)
        pos += 17
        entries.append((role, blen, bits))
    segments = []
    for role, blen, bits in entries:
        if pos + blen > end:
            raise TruncatedStreamError(f"truncated segment data at byte {pos}")
        segments.append(Segment(role=role, bit_length=bits, data=raw[pos:pos + blen]))
        pos += blen
    if pos != end:
        raise StreamFormatError(f"trailing bytes after last segment at byte {pos}")
    _check_crc(raw)
    return mode, n, tuple(segments)


def find_segment(segments: Seq[Segment], role: int) -> Optional[Segment]:
    for seg in segments:
        if seg.role == role:
            return seg
    return None


def split_leaf(raw: bytes, payload_bits: int, fraction: float) -> Tuple[bytes, bytes, int, int]:
    """Split a leaf container's bytes for two-description sharing.

    Part A is the header plus the first ceil(fraction * payload_bytes) payload
    bytes; part B is everything after.  Concatenating the parts restores the
    container byte for byte.  Returns (part_a, part_b, bits_a, bits_b) where
    the bit counts attribute the payload bits (never the padding or CRC-32
    trailer) exactly once.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"share fraction out of range: {fraction}")
    hdr = leaf_header_length(raw)
    payload_bytes = len(raw) - hdr - CRC_BYTES
    if payload_bytes < 0:
        raise StreamFormatError(
            f"container shorter than its header: the payload would start at byte {hdr}")
    if payload_bits > payload_bytes * 8:
        raise ValueError("payload bit count exceeds payload bytes")
    k = min(payload_bytes, math.ceil(fraction * payload_bytes))
    cut = hdr + k
    if k == payload_bytes:
        cut = len(raw)  # part A keeps the trailer when it takes the whole payload
    part_a = raw[:cut]
    part_b = raw[cut:]
    bits_a = min(payload_bits, 8 * k)
    bits_b = payload_bits - bits_a
    return part_a, part_b, bits_a, bits_b

