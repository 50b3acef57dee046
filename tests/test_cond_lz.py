import math
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import oracles
from srlz import cond_lz
from srlz.bitio import FNV64_PRIME, fnv1a64, fnv1a64_u32, pack
from srlz.container import MODE_COND, Bitstream, SideInfoMismatchError, StreamFormatError
from srlz.cond_lz import (
    _cond_encode,
    cond_decode,
    cond_encode,
    joint_parse,
    primary_step,
    rho_cond,
    rho_cond_from_counts,
    side_info_checksum,
)
from srlz.corpus import random_sequence
from srlz.lz_core import (BINARY, Alphabet, Sequence, _lz_walk, lz_encode, product_sequence,
                          xlogx_sum)


def bits(text: str) -> Sequence:
    return Sequence.from_symbols(BINARY, list(text))


class TestWorkedExample:
    def test_pair_parse(self):
        jp = joint_parse(bits("010101"), bits("010001"))
        assert jp.c_joint == 4
        assert jp.c_prime == 3
        assert tuple(sorted(jp.c_l)) == (1, 1, 2)
        assert jp.rho_cond == pytest.approx(2 / 6, abs=1e-15)
        assert jp.rho_joint == pytest.approx(4 * 2 / 6, abs=1e-15)

    def test_rho_cond_helper_argument_order(self):
        assert rho_cond(bits("010001"), bits("010101")) == pytest.approx(1 / 3)


pair_texts = st.integers(min_value=0, max_value=100).flatmap(
    lambda n: st.tuples(st.text(alphabet="01", min_size=n, max_size=n),
                        st.text(alphabet="abc", min_size=n, max_size=n)))


@given(pair_texts)
def test_joint_parse_matches_set_oracle(pair):
    ptext, stext = pair
    primary = bits(ptext) if ptext else Sequence(BINARY, ())
    secondary = Sequence.from_text(stext, Alphabet(("a", "b", "c")))
    jp = joint_parse(primary, secondary)
    c_joint, c_prime, c_l, rho_c, incomplete = oracles.joint_parse_by_set(
        list(ptext), list(stext))
    assert jp.c_joint == c_joint
    assert jp.c_prime == c_prime
    assert tuple(sorted(jp.c_l)) == tuple(c_l)
    assert jp.rho_cond == pytest.approx(rho_c, abs=1e-12)
    assert jp.is_last_incomplete == incomplete


@given(pair_texts)
def test_joint_counts_are_consistent(pair):
    ptext, stext = pair
    primary = bits(ptext) if ptext else Sequence(BINARY, ())
    secondary = Sequence.from_text(stext, Alphabet(("a", "b", "c")))
    jp = joint_parse(primary, secondary)
    assert sum(jp.c_l) == jp.c_joint
    assert len(jp.c_l) == jp.c_prime
    # conditioning can only help: rho_cond <= rho of the pair parse
    assert jp.rho_cond <= jp.rho_joint + 1e-12


sized_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5),
                        st.integers(0, 60)).flatmap(
    lambda abn: st.tuples(st.just(abn[0]), st.just(abn[1]),
                          st.lists(st.integers(0, abn[0] - 1), min_size=abn[2], max_size=abn[2]),
                          st.lists(st.integers(0, abn[1] - 1), min_size=abn[2], max_size=abn[2])))


@given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 60)).flatmap(
    lambda abn: st.tuples(st.just(abn[0]), st.just(abn[1]),
                          st.lists(st.tuples(st.integers(0, abn[0] - 1),
                                             st.integers(0, abn[1] - 1)),
                                   min_size=abn[2], max_size=abn[2]),
                          st.integers(0, abn[2]))))
def test_primary_step_resumed_over_two_chunks_counts_like_the_oracle(case):
    """The primary step over a joint walk's keys, cut in two and resumed,
    gives the set oracle's c_l in first-marking order (the incomplete last
    phrase added at its node's primary node), on a flat-list primary trie
    and on a dict one, and logs the key of primary node p at pslots[p - 1]."""
    size_a, size_b, pairs, cut = case
    keys, last = _lz_walk([a * size_b + b for a, b in pairs], size_a * size_b)
    phrases, _, _ = oracles.parse_by_set(pairs)
    want = list(Counter(tuple(a for a, _ in w) for w in phrases).values())
    cut = min(cut, len(keys))
    for ptrie in ([0] * ((len(want) + 1) * size_a), {}):  # a list with no spare slot
        pnode, pslots, c_l = [0], [], []
        primary_step(keys[:cut], size_a, size_b, pnode, ptrie, pslots, c_l)
        primary_step(keys[cut:], size_a, size_b, pnode, ptrie, pslots, c_l)
        if last:
            c_l[pnode[last] - 1] += 1
        assert c_l == want and len(pnode) == len(keys) + 1
        assert [ptrie[k] for k in pslots] == list(range(1, len(c_l) + 1))


def test_reported_rates_add_their_terms_left_to_right():
    # a seeded pair whose c_l terms round differently added left to right
    # than correctly rounded (math.fsum, or sum() from Python 3.12 on): every
    # report holds the left-to-right value on every interpreter
    rng = random.Random(6)
    primary, secondary = random_sequence(rng, 2, 400), random_sequence(rng, 3, 400)
    jp = joint_parse(primary, secondary)
    terms = [c * math.log2(c) for c in jp.c_l]
    ltr = 0.0
    for t in terms:
        ltr += t
    exact = math.fsum(terms)
    assert ltr / 400 != exact / 400
    table = [0.0] + [c * math.log2(c) for c in range(1, 401)]
    assert xlogx_sum(jp.c_l) == xlogx_sum(jp.c_l, table) == ltr != exact
    assert rho_cond_from_counts(jp.c_l, 400) == jp.rho_cond == ltr / 400
    assert rho_cond(secondary, primary) == ltr / 400


@given(sized_pairs)
def test_count_only_walk_matches_joint_parse(case):
    # the set oracle over the pairs, c_l in first-marking order: the order in
    # which each primary phrase string first appears
    size_a, size_b, pd, sd = case
    primary = Sequence(Alphabet.of_size(size_a), pd)
    secondary = Sequence(Alphabet.of_size(size_b), sd)
    jp = joint_parse(primary, secondary)
    phrases, c_joint, incomplete = oracles.parse_by_set(list(zip(pd, sd)))
    c_l = list(Counter(tuple(a for a, _ in w) for w in phrases).values())
    s = 0.0
    for v in c_l:  # left to right, never sum(): compensated from Python 3.12 on
        s += v * math.log2(v)
    rho_c = s / len(pd) if pd else 0.0
    assert list(jp.c_l) == c_l
    assert jp.rho_cond == rho_c
    assert rho_cond(secondary, primary) == rho_c
    assert jp.c_joint == c_joint
    assert jp.is_last_incomplete == incomplete
    # the conditional encoder's dictionary gives the same counts
    enc, enc_c_l = _cond_encode(secondary, primary, counts=True)
    assert enc_c_l == c_l
    assert enc.phrase_count == c_joint
    assert enc.last_incomplete == incomplete
    assert enc == cond_encode(secondary, primary)


@given(pair_texts)
def test_cond_round_trip(pair):
    ptext, stext = pair
    primary = bits(ptext) if ptext else Sequence(BINARY, ())
    secondary = Sequence.from_text(stext, Alphabet(("a", "b", "c")))
    enc = cond_encode(secondary, primary)
    assert cond_decode(enc.to_bytes(), primary) == secondary


PRIMARY_SIZES = (1, 2, 3, 26, 676)  # 676: a product of two 26-letter sequences
SECONDARY_SIZES = (1, 2, 5, 26)  # 1: an innovation field holds no symbol bits


@st.composite
def cond_cases(draw):
    """(primary, secondary, ends inside a phrase): repeats of a short drawn
    pattern with a drawn share of fresh symbols, so that phrases grow long.
    When the third item is set and the parse of the pairs finishes, they
    get a copy of its longest phrase, which the walk follows to a node away
    from the root."""
    size_a = draw(st.sampled_from(PRIMARY_SIZES))
    size_b = draw(st.sampled_from(SECONDARY_SIZES))
    n = draw(st.integers(0, 300))
    noise = draw(st.sampled_from((0.0, 0.05, 0.3, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    period = rng.randint(1, 8)
    pattern = [(rng.randrange(size_a), rng.randrange(size_b)) for _ in range(period)]
    pairs = [pattern[i % period] if rng.random() >= noise
             else (rng.randrange(size_a), rng.randrange(size_b)) for i in range(n)]
    end_inside = n > 0 and draw(st.booleans())
    if end_inside:
        phrases, _, incomplete = oracles.parse_by_set(pairs)
        if not incomplete:
            pairs += max(phrases, key=len)
    pd, sd = [a for a, _ in pairs], [b for _, b in pairs]
    if size_a == 676:
        primary = product_sequence((Sequence(Alphabet.of_size(26), [a // 26 for a in pd]),
                                    Sequence(Alphabet.of_size(26), [a % 26 for a in pd])))
    else:
        primary = Sequence(Alphabet.of_size(size_a), pd)
    return primary, Sequence(Alphabet.of_size(size_b), sd), end_inside


@settings(max_examples=200)  # 20 pairs of alphabet sizes
@given(cond_cases())
def test_cond_encode_matches_the_per_symbol_reference(case):
    """One packed field per phrase gives the per-symbol emitter's stream, the
    joint parse's c_l, and a stream that decodes to the input."""
    primary, secondary, end_inside = case
    note(f"A={primary.alphabet.size} B={secondary.alphabet.size} n={primary.n}")
    enc, c_l = _cond_encode(secondary, primary, counts=True)
    ref = oracles.cond_encode_reference(secondary, primary)
    assert enc.payload == ref.payload
    assert enc.payload_bits == ref.payload_bits
    assert enc.phrase_count == ref.phrase_count
    assert enc.last_incomplete == ref.last_incomplete
    assert enc.side_checksum == ref.side_checksum
    assert enc == ref
    if end_inside:
        assert enc.last_incomplete
    assert c_l == list(joint_parse(primary, secondary).c_l)
    assert cond_decode(enc.to_bytes(), primary) == secondary


def test_pack_gets_one_field_per_phrase(monkeypatch):
    """The encoder hands `pack` one field per joint phrase, an unfinished last
    phrase included."""
    fields, unfinished = [], []

    def counting_pack(values, widths):
        values, widths = list(values), list(widths)
        fields.append((len(values), len(widths)))
        return pack(values, widths)

    monkeypatch.setattr(cond_lz, "pack", counting_pack)
    rng = random.Random(3)
    for size_a, size_b, n in ((1, 1, 12), (2, 2, 200), (3, 5, 301), (26, 26, 500)):
        pd = [rng.randrange(size_a) for _ in range(n)]
        sd = [a % size_b if rng.random() < 0.9 else rng.randrange(size_b) for a in pd]
        primary = Sequence(Alphabet.of_size(size_a), pd)
        secondary = Sequence(Alphabet.of_size(size_b), sd)
        enc = cond_encode(secondary, primary)
        assert fields[-1] == (enc.phrase_count, enc.phrase_count)
        unfinished.append(enc.last_incomplete)
    assert len(fields) == 4 and any(unfinished) and not all(unfinished)


def test_identical_pair_costs_no_payload_bits():
    # when secondary == primary and the parse completes, every primary
    # phrase string is distinct, so the conditional complexity vanishes
    p = bits("011010011")
    enc = cond_encode(p, p)
    jp = joint_parse(p, p)
    assert not jp.is_last_incomplete
    assert jp.rho_cond == 0.0
    # only innovation steps carry the secondary symbol plus a 1-bit escape
    assert enc.payload_bits <= 2 * jp.c_joint + p.n


class TestSideInfoForms:
    def test_tuple_side_info_packs_to_product(self):
        # several side sequences travel as one: their product sequence
        a = bits("0101")
        b = bits("0011")
        packed = product_sequence((a, b))
        assert packed.alphabet.symbols == ("0|0", "0|1", "1|0", "1|1")
        assert packed.data == (0, 2, 1, 3)
        sec = bits("1100")
        enc = cond_encode(sec, packed)
        assert cond_decode(enc.to_bytes(), product_sequence((a, b))) == sec
        with pytest.raises(SideInfoMismatchError):
            cond_decode(enc.to_bytes(), product_sequence((b, a)))

    def test_checksum_covers_content(self):
        assert side_info_checksum(bits("0101")) != side_info_checksum(bits("0111"))
        assert side_info_checksum(bits("01")) != side_info_checksum(bits("010"))


def struct_checksum(seq: Sequence) -> int:
    """The side-information checksum over its full byte image."""
    image = struct.pack(">IQ", seq.alphabet.size, seq.n)
    return fnv1a64(image + b"".join(struct.pack(">I", v) for v in seq.data))


class TestHashFolding:
    """The zero-folded hashes equal FNV-1a 64 over the 4-byte field images."""

    @pytest.mark.parametrize("size", [1, 2, 256, 257, 676, 1352, 65537])
    def test_side_info_checksum_matches_struct_image(self, size):
        rng = random.Random(size)
        edges = [v for v in (0, 1, 255, 256, 65535, 65536) if v < size]
        data = edges + [rng.randrange(size) for _ in range(300)] + [size - 1]
        seq = Sequence(Alphabet.of_size(size), data)
        assert side_info_checksum(seq) == struct_checksum(seq)

    def test_tuple_side_info_checksum_matches_struct_image(self):
        rng = random.Random(5)
        parts = [Sequence(Alphabet.of_size(k), [rng.randrange(k) for _ in range(200)])
                 for k in (26, 26, 2)]
        for side in (product_sequence(parts[:2]), product_sequence(parts)):  # 676, 1352 letters
            assert side_info_checksum(side) == struct_checksum(side)

    @pytest.mark.parametrize("size", [2, 256, 257, 65536, 65537])
    def test_folded_checksum_at_every_tail(self, size):
        # lengths 0-9 leave 0-3 values after the 4-fold and 0-1 after the 2-fold
        rng = random.Random(size)
        edges = [v for v in (0, 255, 256, 65535, 65536) if v < size] + [size - 1]
        for n in range(10):
            for _ in range(10):
                data = [rng.choice(edges) if rng.random() < 0.5 else rng.randrange(size)
                        for _ in range(n)]
                seq = Sequence(Alphabet.of_size(size), data)
                assert side_info_checksum(seq) == struct_checksum(seq)
                h = rng.randrange(1 << 64)
                image = b"".join(struct.pack(">I", v) for v in seq.data)
                assert fnv1a64_u32(seq.data, h, size) == fnv1a64(image, h)

    fields = st.one_of(st.integers(0, 300), st.integers(65280, 65800),
                       st.integers(2 ** 32 - 300, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))

    @given(st.integers(0, 2 ** 64 - 1), st.lists(st.one_of(
        st.sampled_from([255, 256, 65535, 65536, 2 ** 32 - 1]), fields), max_size=60))
    def test_u32_hash_matches_struct_loop(self, h, values):
        # every fold, chained from any start value: below 2^8, below 2^16, and the rest
        want = h
        for byte in b"".join(struct.pack(">I", v) for v in values):
            want = ((want ^ byte) * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
        assert fnv1a64_u32(values, h) == want


class TestDecodeErrors:
    def test_wrong_length_side_info(self):
        enc = cond_encode(bits("0101"), bits("0011"))
        with pytest.raises(SideInfoMismatchError):
            cond_decode(enc.to_bytes(), bits("00110"))

    def test_wrong_content_side_info(self):
        enc = cond_encode(bits("0101"), bits("0011"))
        with pytest.raises(SideInfoMismatchError):
            cond_decode(enc.to_bytes(), bits("0111"))

    def test_mode_and_side_checksum_errors_name_the_field(self):
        side = bits("0011")
        with pytest.raises(StreamFormatError, match=(
                r"^not a conditional stream container: mode field \(byte 5\) reads 0, "
                r"expected 1$")):
            cond_decode(lz_encode(bits("0101")).to_bytes(), side)
        enc = cond_encode(bits("0101"), side)
        other = bits("0111")
        with pytest.raises(SideInfoMismatchError, match=(
                rf"^side information checksum mismatch: side_checksum field reads "
                rf"{enc.side_checksum}, the side information hashes to "
                rf"{side_info_checksum(other)}$")):
            cond_decode(enc.to_bytes(), other)

    def test_corrupted_payload_fails_the_checksum(self):
        # a format error, not a side-information mismatch: the side is right
        side = bits("00110101")
        enc = cond_encode(bits("10110100"), side)
        raw = bytearray(enc.to_bytes())
        from srlz.container import leaf_header_length

        off = leaf_header_length(bytes(raw))
        raw[off] ^= 0x80
        with pytest.raises(StreamFormatError,
                           match=rf"checksum mismatch \(CRC-32 trailer at byte {len(raw) - 4}\)"):
            cond_decode(bytes(raw), side)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cond_encode(bits("01"), bits("0"))

    def test_phrase_accounting_names_the_header_fields_and_the_bit(self):
        # a header that counts one phrase too many: decoding stops at the
        # payload's last bit, 6, with the four phrases the payload holds
        side = bits("0011")
        enc = cond_encode(bits("0101"), side)
        assert (enc.phrase_count, enc.last_incomplete, enc.payload_bits) == (4, False, 6)
        raw = Bitstream(mode=MODE_COND, n=4, alphabet=enc.alphabet, phrase_count=5,
                        last_incomplete=False, payload=enc.payload,
                        side_checksum=enc.side_checksum).to_bytes()
        with pytest.raises(StreamFormatError, match=(
                r"^phrase accounting mismatch at payload bit 6: decoded 4 phrases, last "
                r"incomplete False; header phrase_count=5, last_incomplete=False$")):
            cond_decode(raw, side)
