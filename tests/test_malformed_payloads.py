"""Decoders on truncated and bit-flipped containers of the golden inputs.

A decoder reads untrusted bytes: it returns exactly the encoded sequence or
raises a `StreamFormatError` or `SideInfoMismatchError` subclass, never an
`IndexError`, `KeyError` or another bare exception.  The 300-letter case has
a 9-bit symbol field and, in the md pipelines, side alphabets above 2^16; the
26-letter case has a 5-bit symbol field.
"""

import random

import pytest

from srlz.bitio import TruncatedStreamError
from srlz.cond_lz import cond_decode, cond_encode, side_info_checksum
from srlz.container import (
    MODE_COND,
    Bitstream,
    SideInfoMismatchError,
    StreamFormatError,
    leaf_header_length,
)
from srlz.lz_core import Alphabet, Sequence, lz_decode, lz_encode
from test_golden_containers import _inputs

CASES = ["300-uniform-800", "26-uniform-600"]
FLIPS = 200  # sampled payload bits per case and mode


def _streams(name):
    """{mode: (container bytes, decode, the sequence it must give back)}"""
    x, hat, tilde, _ = _inputs(name)
    return {
        "lz": (lz_encode(x).to_bytes(), lz_decode, x),
        "cond": (cond_encode(tilde, hat).to_bytes(), lambda raw: cond_decode(raw, hat), tilde),
    }


@pytest.mark.parametrize("mode", ["lz", "cond"])
@pytest.mark.parametrize("name", CASES)
def test_every_truncation_is_a_format_error(name, mode):
    raw, decode, _ = _streams(name)[mode]
    for cut in range(len(raw)):
        with pytest.raises(StreamFormatError):
            decode(raw[:cut])


@pytest.mark.parametrize("mode", ["lz", "cond"])
@pytest.mark.parametrize("name", CASES)
def test_every_payload_truncation_runs_out_of_bits(name, mode):
    # header and trailer intact: the decoder reads the same fields up to the
    # cut, and the cut takes at least one bit that is not padding
    raw, decode, _ = _streams(name)[mode]
    stream = Bitstream.from_bytes(raw)
    payload = stream.payload
    for cut in range(len(payload)):
        stream.payload = payload[:cut]
        with pytest.raises(TruncatedStreamError, match="end of bitstream"):
            decode(stream)


@pytest.mark.parametrize("mode", ["lz", "cond"])
@pytest.mark.parametrize("name", CASES)
def test_payload_bit_flips(name, mode):
    raw, decode, want = _streams(name)[mode]
    start = leaf_header_length(raw)
    end = len(raw) - 8 if mode == "cond" else len(raw)  # before the dictionary hash
    rng = random.Random(f"flips/{name}/{mode}")
    for bit in rng.sample(range(8 * start, 8 * end), FLIPS):
        bad = bytearray(raw)
        bad[bit >> 3] ^= 0x80 >> (bit & 7)
        try:
            got = decode(bytes(bad))
        except (StreamFormatError, SideInfoMismatchError):
            continue
        if mode == "cond":
            assert got == want
        else:
            # without a payload checksum a flip can decode to another
            # sequence, but never to one the header does not describe
            assert got.alphabet == want.alphabet and got.n == want.n


def _cond_stream(payload: bytes, n: int, side: Sequence) -> Bitstream:
    return Bitstream(mode=MODE_COND, n=n, alphabet=("a", "b", "c"), phrase_count=n,
                     last_incomplete=False, payload=payload,
                     side_checksum=side_info_checksum(side), dict_hash=0)


class TestErrorOffsets:
    """cond_decode names the payload bit where the failing field starts."""

    side = Sequence(Alphabet(("0",)), [0, 0, 0, 0])

    def test_symbol_index_out_of_range(self):
        # the first field is an innovation's 2-bit symbol: 3 is not in a..c
        with pytest.raises(StreamFormatError,
                           match="symbol index 3 out of range at payload bit 0"):
            cond_decode(_cond_stream(b"\xc0", 4, self.side), self.side)

    def test_child_index_out_of_range(self):
        # 00: innovate a; 1 01: innovate b; then 2 children, so a 2-bit
        # field from bit 5 where 3 is neither a child nor the escape 2
        with pytest.raises(StreamFormatError,
                           match="child index 3 out of range at payload bit 5"):
            cond_decode(_cond_stream(bytes([0b00101110]), 4, self.side), self.side)

    def test_end_of_payload(self):
        # as above, but bit 5 holds the escape 2, and the symbol after it
        # would take bits 7 and 8 of a one-byte payload
        with pytest.raises(TruncatedStreamError,
                           match="end of bitstream at bit 7"):
            cond_decode(_cond_stream(bytes([0b00101101]), 4, self.side), self.side)
