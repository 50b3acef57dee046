"""Decoders on truncated and bit-flipped containers of the golden inputs.

A decoder reads untrusted bytes: it returns exactly the encoded sequence or
raises a `StreamFormatError` or `SideInfoMismatchError` subclass, never an
`IndexError`, `KeyError`, `UnicodeDecodeError` or another bare exception.
Every container ends in a CRC-32 of all bytes before it, so a flipped bit
anywhere is an error, and no mutation decodes to a different sequence.
The 300-letter case has a 9-bit symbol field and, in the md pipelines, side
alphabets above 2^16; the 26-letter case has a 5-bit symbol field.
"""

import random
from functools import lru_cache

import pytest

from srlz import mdc
from srlz.bitio import TruncatedStreamError
from srlz.cond_lz import cond_decode, cond_encode, side_info_checksum
from srlz.container import (
    MAGIC,
    MODE_COND,
    Bitstream,
    SideInfoMismatchError,
    StreamFormatError,
)
from srlz.lz_core import Alphabet, Sequence, lz_decode, lz_encode
from srlz.sr_codec import sr_decode_full, sr_encode
from test_golden_containers import _inputs

CASES = ["300-uniform-800", "26-uniform-600"]
FLIPS = 200  # sampled container bits per case and mode
MUTANTS = 150  # sampled mutations of each kind per whole-container mode
HEADER_SPAN = 128  # bytes after each magic: header, alphabet block, directory


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
    # header, payload and trailer alike: CRC-32 catches every single-bit error
    raw, decode, _ = _streams(name)[mode]
    rng = random.Random(f"flips/{name}/{mode}")
    for bit in rng.sample(range(8 * len(raw)), FLIPS):
        bad = bytearray(raw)
        bad[bit >> 3] ^= 0x80 >> (bit & 7)
        with pytest.raises(StreamFormatError):
            decode(bytes(bad))


@lru_cache(maxsize=None)
def _containers(name):
    """{mode: (containers, [(decoder, what it must return)])}: each decoder
    takes the list of containers, one of them mutated."""
    x, hat, tilde, u = _inputs(name)
    d1, d2, _ = mdc.egc_encode(hat, tilde, x, 0.5)
    z1, z2, _ = mdc.zb_encode(hat, tilde, x, u, 0.5)
    return {
        "lz": ([lz_encode(x).to_bytes()], [(lambda c: lz_decode(c[0]), x)]),
        "cond": ([cond_encode(tilde, hat).to_bytes()],
                 [(lambda c: cond_decode(c[0], hat), tilde)]),
        "sr": ([sr_encode(x, hat, tilde).to_bytes()],
               [(lambda c: sr_decode_full(c[0]), (hat, tilde))]),
        "md-egc": ([d1, d2], [(lambda c: mdc.egc_decode1(c[0]), hat),
                              (lambda c: mdc.egc_decode0(*c), (hat, tilde, x))]),
        "md-zb": ([z1, z2], [(lambda c: mdc.zb_decode1(c[0]), (u, hat)),
                             (lambda c: mdc.zb_decode0(*c), (u, hat, tilde, x))]),
    }


def _mutants(raw, rng):
    """Header-byte rewrites after every magic (wrapper and embedded leaves),
    bit flips anywhere, and truncations."""
    starts = [i for i in range(len(raw)) if raw.startswith(MAGIC, i)]
    header = sorted({p for s in starts for p in range(s, min(s + HEADER_SPAN, len(raw)))})
    for pos in rng.sample(header, min(MUTANTS, len(header))):
        bad = bytearray(raw)
        bad[pos] = rng.choice([v for v in range(256) if v != raw[pos]])
        yield bytes(bad)
    for bit in rng.sample(range(8 * len(raw)), MUTANTS):
        bad = bytearray(raw)
        bad[bit >> 3] ^= 0x80 >> (bit & 7)
        yield bytes(bad)
    for cut in rng.sample(range(len(raw)), min(MUTANTS, len(raw))):
        yield raw[:cut]


@pytest.mark.parametrize("mode", ["lz", "cond", "sr", "md-egc", "md-zb"])
def test_whole_container_mutations(mode):
    raws, decoders = _containers("26-uniform-600")[mode]
    rng = random.Random(f"mutants/{mode}")
    for which, raw in enumerate(raws):
        for bad in _mutants(raw, rng):
            containers = raws[:which] + [bad] + raws[which + 1:]
            for decode, want in decoders:
                try:
                    got = decode(containers)
                except (StreamFormatError, SideInfoMismatchError):
                    continue
                assert got == want


def _cond_stream(payload: bytes, n: int, side: Sequence) -> Bitstream:
    return Bitstream(mode=MODE_COND, n=n, alphabet=("a", "b", "c"), phrase_count=n,
                     last_incomplete=False, payload=payload,
                     side_checksum=side_info_checksum(side))


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
