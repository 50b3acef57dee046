import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlz.bitio import TruncatedStreamError
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


def make_leaf(mode=MODE_LZ, n=5, alphabet=("0", "1"), payload=b"\xaa\x55",
              **kw):
    extra = {}
    if mode == MODE_COND:
        extra = {"side_checksum": 7, "dict_hash": 9}
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
    t = Bitstream.from_bytes(s.to_bytes())
    assert t.side_checksum == 7
    assert t.dict_hash == 9
    assert t.payload == s.payload


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


def test_truncation_before_payload_always_raises():
    raw = make_leaf(MODE_COND).to_bytes()
    hdr = leaf_header_length(raw)
    # cuts inside the header or the 8-byte trailer budget must fail loudly;
    # cuts inside the payload proper only surface at decode time
    for cut in range(hdr + 8):
        with pytest.raises((TruncatedStreamError, StreamFormatError)):
            Bitstream.from_bytes(raw[:cut])


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


def test_split_leaf_bad_fraction():
    raw = make_leaf().to_bytes()
    with pytest.raises(ValueError):
        split_leaf(raw, 8, 1.5)
