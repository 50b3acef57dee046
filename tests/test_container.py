import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlz.bitio import TruncatedStreamError
from srlz.cond_lz import cond_encode
from srlz.container import (
    MODE_COND,
    MODE_LZ,
    MODE_MD1,
    MODE_SR,
    Bitstream,
    ModeMismatchError,
    Segment,
    StreamFormatError,
    find_segment,
    leaf_header_length,
    pack_segments,
    split_leaf,
    unpack_segments,
)
from srlz.lz_core import Sequence, lz_encode
from srlz.sr_codec import sr_encode


def make_leaf(mode=MODE_LZ, n=5, alphabet=("0", "1"), payload=b"\xaa\x55",
              **kw):
    extra = {}
    if mode == MODE_COND:
        extra = {"side_checksum": 7}
    extra.update(kw)
    return Bitstream(mode=mode, n=n, alphabet=tuple(alphabet), phrase_count=3,
                     last_incomplete=True, payload=payload, payload_bits=12,
                     **extra)


def test_leaf_round_trip_plain():
    s = make_leaf()
    t = Bitstream.from_bytes(s.to_bytes())
    assert (t.mode, t.n, t.alphabet, t.phrase_count, t.last_incomplete,
            t.payload) == (s.mode, s.n, s.alphabet, s.phrase_count,
                           s.last_incomplete, s.payload)
    assert t.payload_bits is None  # exact bit count only known to encoders


def test_leaf_round_trip_conditional_with_trailer():
    s = make_leaf(MODE_COND)
    raw = s.to_bytes()
    t = Bitstream.from_bytes(raw)
    assert t.side_checksum == 7
    assert t.payload == s.payload
    assert raw[-4:] == zlib.crc32(raw[:-4]).to_bytes(4, "big")


def test_unicode_alphabet_symbols_survive():
    s = make_leaf(alphabet=("α", "β", "long-symbol"), payload=b"")
    t = Bitstream.from_bytes(s.to_bytes())
    assert t.alphabet == ("α", "β", "long-symbol")


def test_non_utf8_alphabet_symbol_is_a_format_error():
    raw = bytearray(make_leaf().to_bytes())
    assert raw[23] == ord("1")  # 18-byte header, then "0" and "1" after 2-byte lengths
    raw[23] = 0xFF
    with pytest.raises(StreamFormatError, match="alphabet symbol 1 at byte 23 is not UTF-8"):
        Bitstream.from_bytes(bytes(raw))


def test_bad_magic_and_version():
    raw = bytearray(make_leaf().to_bytes())
    with pytest.raises(StreamFormatError):
        Bitstream.from_bytes(b"XXXX" + bytes(raw[4:]))
    raw[4] = 99
    with pytest.raises(StreamFormatError):
        Bitstream.from_bytes(bytes(raw))


def test_unknown_mode_byte():
    raw = bytearray(make_leaf().to_bytes())
    raw[5] = 42
    with pytest.raises(StreamFormatError):
        Bitstream.from_bytes(bytes(raw))


def test_wrapper_mode_rejected_as_leaf():
    wrapped = pack_segments(MODE_SR, 4, [Segment(1, 8, b"x")])
    with pytest.raises(ModeMismatchError):
        Bitstream.from_bytes(wrapped)


def small_containers():
    """{kind: (container bytes, the parser that verifies it)} over short sequences."""
    x = Sequence.from_text("abracadabra")
    y = Sequence.from_text("abracadabrx")
    return {
        "lz": (lz_encode(x).to_bytes(), Bitstream.from_bytes),
        "cond": (cond_encode(y, x).to_bytes(), Bitstream.from_bytes),
        "sr": (sr_encode(x, x, y).to_bytes(), unpack_segments),
    }


def test_every_proper_prefix_raises():
    # the CRC-32 trailer covers the payload too, so no cut parses, wherever it falls
    for kind, (raw, parse) in small_containers().items():
        for cut in range(len(raw)):
            with pytest.raises(StreamFormatError, match=r"at byte \d+"):
                parse(raw[:cut])
        parse(raw)


@pytest.mark.parametrize("kind", ["lz", "cond", "sr"])
def test_every_single_bit_flip_raises(kind):
    raw, parse = small_containers()[kind]
    for bit in range(8 * len(raw)):
        bad = bytearray(raw)
        bad[bit >> 3] ^= 0x80 >> (bit & 7)
        with pytest.raises(StreamFormatError, match=r"at byte \d+"):
            parse(bytes(bad))


# the same lz leaf and sr wrapper of "0110" in container version 1, which
# had no CRC-32 trailer and ended a conditional stream in a dictionary hash
V1_LEAF = "53524c5a010000000000000000040000000200013000013100000000000000030030"
V1_WRAPPER = (
    "53524c5a01020000000000000004000000000000000000000002000100000000000000220000000000"
    "000006020000000000000032000000000000000453524c5a0100000000000000000400000002000130"
    "0001310000000000000003003053524c5a010100000000000000040000000200013000013124235c37"
    "b93196b300000000000000030040ae825e4ef79f809f")


def test_version_1_is_rejected():
    with pytest.raises(StreamFormatError, match="unsupported version: 1"):
        Bitstream.from_bytes(bytes.fromhex(V1_LEAF))
    with pytest.raises(StreamFormatError, match="unsupported version: 1"):
        unpack_segments(bytes.fromhex(V1_WRAPPER))


def test_leaf_header_length_points_at_payload():
    s = make_leaf(payload=b"\x12\x34")
    raw = s.to_bytes()
    off = leaf_header_length(raw)
    assert raw[off:off + 2] == b"\x12\x34"


def test_segment_round_trip_and_lookup():
    segs = [Segment(1, 10, b"abc"), Segment(5, 0, b""), Segment(7, 99, b"zz")]
    raw = pack_segments(MODE_MD1, 12, segs)
    mode, n, out = unpack_segments(raw)
    assert (mode, n) == (MODE_MD1, 12)
    assert [(s.role, s.bit_length, s.data) for s in out] == \
        [(s.role, s.bit_length, s.data) for s in segs]
    assert find_segment(out, 5).data == b""
    assert find_segment(out, 99) is None


def test_unpack_expect_mode_mismatch():
    raw = pack_segments(MODE_MD1, 3, [])
    with pytest.raises(ModeMismatchError):
        unpack_segments(raw, expect_mode=MODE_SR)


def test_segment_trailing_garbage_rejected():
    raw = pack_segments(MODE_SR, 3, [Segment(1, 4, b"a")])
    with pytest.raises(StreamFormatError):
        unpack_segments(raw + b"!")


def test_segment_truncation():
    raw = pack_segments(MODE_SR, 3, [Segment(1, 4, b"abcdef")])
    with pytest.raises(TruncatedStreamError):
        unpack_segments(raw[:-3])


@given(st.floats(min_value=0.0, max_value=1.0),
       st.binary(min_size=0, max_size=64),
       st.sampled_from([MODE_LZ, MODE_COND]))
def test_split_leaf_reassembles_exactly(fraction, payload, mode):
    s = make_leaf(mode, payload=payload)
    s.payload_bits = len(payload) * 8
    raw = s.to_bytes()
    part_a, part_b, bits_a, bits_b = split_leaf(raw, s.payload_bits, fraction)
    assert part_a + part_b == raw
    assert bits_a + bits_b == s.payload_bits
    assert bits_a >= 0 and bits_b >= 0


def test_split_leaf_full_share_keeps_trailer_in_part_a():
    s = make_leaf(MODE_COND, payload=b"abcd")
    s.payload_bits = 30
    raw = s.to_bytes()
    part_a, part_b, bits_a, bits_b = split_leaf(raw, 30, 1.0)
    assert part_b == b""
    assert (bits_a, bits_b) == (30, 0)


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 0.99, 1.0])
def test_split_cond_leaf_rejoins_into_a_verified_container(fraction):
    x = Sequence.from_text("abracadabra" * 5)
    y = Sequence.from_text("abracadabrx" * 5)
    stream = cond_encode(y, x)
    raw = stream.to_bytes()
    part_a, part_b, _, _ = split_leaf(raw, stream.payload_bits, fraction)
    back = Bitstream.from_bytes(part_a + part_b)
    assert (back.payload, back.side_checksum) == (stream.payload, stream.side_checksum)
    if part_b:  # neither part alone verifies
        for part in (part_a, part_b):
            with pytest.raises(StreamFormatError):
                Bitstream.from_bytes(part)


def test_split_leaf_bad_fraction():
    raw = make_leaf().to_bytes()
    with pytest.raises(ValueError):
        split_leaf(raw, 8, 1.5)
