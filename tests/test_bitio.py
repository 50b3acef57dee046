import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from srlz.bitio import (
    BitReader,
    BitWriter,
    TruncatedStreamError,
    fnv1a64,
    pack,
    refill,
)
from srlz.container import StreamFormatError


def test_fnv1a64_known_vectors():
    # standard FNV-1a 64 reference values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_chaining_matches_concatenation():
    h = fnv1a64(b"foo")
    assert fnv1a64(b"bar", h) == fnv1a64(b"foobar")


def window_read(data, widths):
    """Fields read through a bit window fed by `refill`."""
    acc = have = pos = 0
    out = []
    for w in widths:
        if have < w:
            acc, have, pos = refill(data, acc, have, pos, w)
        have -= w
        value = acc >> have
        acc ^= value << have
        out.append(value)
    return out


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
    assert window_read(data, widths) == values


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


# widths 0-70, each value either drawn or the largest that fits
pack_fields = st.lists(
    st.integers(min_value=0, max_value=70).flatmap(
        lambda w: st.tuples(st.one_of(st.just((1 << w) - 1),
                                      st.integers(min_value=0, max_value=(1 << w) - 1)),
                            st.just(w))),
    max_size=200)


@given(pack_fields)
def test_pack_matches_writer(vals):
    w = BitWriter()
    for value, width in vals:
        w.write(value, width)
    values = [value for value, _ in vals]
    widths = [width for _, width in vals]
    assert pack(values, widths) == (w.to_bytes(), w.bit_length)
    assert pack(values, widths)[0] == oracles.pack_bits(vals)


@given(st.lists(st.tuples(st.integers(0, 2 ** 70), st.integers(0, 70)), max_size=50),
       st.integers(0, 70), st.integers(1, 2 ** 8))
def test_pack_rejects_a_value_that_does_not_fit(vals, width, excess):
    values = [v & ((1 << w) - 1) for v, w in vals] + [(1 << width) - 1 + excess]
    widths = [w for _, w in vals] + [width]
    with pytest.raises(ValueError, match="does not fit"):
        pack(values, widths)


def test_truncation_is_a_format_error():
    import srlz
    from srlz import container

    assert issubclass(TruncatedStreamError, StreamFormatError)
    assert issubclass(StreamFormatError, ValueError)
    assert srlz.StreamFormatError is container.StreamFormatError is StreamFormatError
    # container defines both; bitio raises the one it imports from there
    assert srlz.TruncatedStreamError is container.TruncatedStreamError is TruncatedStreamError


@pytest.mark.parametrize("size", [0, 1, 8, 9, 17])
def test_window_runs_out_at_the_field_start(size):
    data = bytes(range(0xA5, 0xA5 + size))
    for pos in range(8 * size + 1):
        assert window_read(data, [pos, 8 * size - pos]) == oracles.unpack_bits(
            data, [pos, 8 * size - pos])
        with pytest.raises(TruncatedStreamError, match=f"at bit {pos}$"):
            window_read(data, [pos, 8 * size - pos + 1])


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
    for values, widths in (([2], [1]), ([-1], [4]), ([0], [-1])):
        with pytest.raises(ValueError):
            pack(values, widths)


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
