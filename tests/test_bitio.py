import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from srlz.bitio import BitReader, BitWriter, TruncatedStreamError, fnv1a64


def test_fnv1a64_known_vectors():
    # standard FNV-1a 64 reference values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_chaining_matches_concatenation():
    h = fnv1a64(b"foo")
    assert fnv1a64(b"bar", h) == fnv1a64(b"foobar")


fields = st.lists(
    st.integers(min_value=0, max_value=130).flatmap(
        lambda w: st.tuples(st.integers(min_value=0, max_value=(1 << w) - 1),
                            st.just(w))),
    max_size=300)


@given(fields)
def test_writer_reader_round_trip(vals):
    # widths up to 130 cross every 64-bit flush boundary of the writer and
    # make reads span up to 18 bytes
    w = BitWriter()
    total = 0
    for value, width in vals:
        w.write(value, width)
        total += width
        assert w.bit_length == total
    data = w.to_bytes()
    assert len(data) == (total + 7) // 8
    assert data == oracles.pack_bits(vals)
    widths = [width for _, width in vals]
    values = [value for value, _ in vals]
    assert oracles.unpack_bits(data, widths) == values
    r = BitReader(data)
    assert [r.read(width) for width in widths] == values
    assert r.bits_read == total


def test_every_width_at_every_offset():
    data = bytes([0b10110010, 0b01111000, 0b11000101])
    for pos in range(25):
        for width in range(25 - pos):
            r = BitReader(data)
            assert r.read(pos) == oracles.unpack_bits(data, [pos])[0]
            assert r.read(width) == oracles.unpack_bits(data, [pos, width])[1]
            assert r.bits_read == pos + width


@pytest.mark.parametrize("size", [1, 2, 3, 9, 17])
def test_read_to_last_bit_then_one_past(size):
    data = bytes(range(0xA5, 0xA5 + size))
    for pos in range(8 * size + 1):
        r = BitReader(data)
        r.read(pos)
        assert r.read(8 * size - pos) == int.from_bytes(data, "big") & ((1 << (8 * size - pos)) - 1)
        assert r.bits_left == 0
        r = BitReader(data)
        r.read(pos)
        with pytest.raises(TruncatedStreamError):
            r.read(8 * size - pos + 1)
        assert r.bits_read == pos


def test_msb_first_packing():
    w = BitWriter()
    w.write(1, 1)
    w.write(0, 1)
    w.write(0b11, 2)
    assert w.to_bytes() == bytes([0b10110000])


def test_writer_rejects_overflow_and_negative():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(2, 1)
    with pytest.raises(ValueError):
        w.write(-1, 4)
    with pytest.raises(ValueError):
        w.write(0, -1)


def test_reader_truncation():
    r = BitReader(b"\xff")
    r.read(8)
    with pytest.raises(TruncatedStreamError):
        r.read(1)


def test_zero_width_fields():
    w = BitWriter()
    w.write(0, 0)
    assert w.bit_length == 0
    assert w.to_bytes() == b""
    r = BitReader(b"")
    assert r.read(0) == 0
    r = BitReader(b"\xff")
    r.read(3)
    assert r.read(0) == 0
    assert r.bits_read == 3
