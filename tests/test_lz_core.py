import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from srlz import bounds, lz_core
from srlz.bitio import TruncatedStreamError
from srlz.container import (
    MODE_LZ,
    ModeMismatchError,
    PointerRangeError,
    StreamFormatError,
    leaf_header_length,
)
from srlz.lz_core import (
    BINARY,
    Alphabet,
    Sequence,
    lz_decode,
    lz_encode,
    parse,
    product_alphabet,
    product_sequence,
    rho_from_count,
    rho_lz,
    undo,
    walk,
)


def seq(text: str, alphabet=None) -> Sequence:
    return Sequence.from_text(text, alphabet)


def phrase_strings(s: Sequence):
    pr = parse(s)
    syms = s.alphabet.symbols
    return ["".join(syms[v] for v in s.data[start:start + ln])
            for start, ln in pr.phrases]


class TestAlphabet:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_bits_per_symbol(self):
        assert Alphabet(("x",)).bits_per_symbol == 0
        assert BINARY.bits_per_symbol == 1
        assert Alphabet.of_size(3).bits_per_symbol == 2
        assert Alphabet.of_size(26).bits_per_symbol == 5

    def test_of_size_names(self):
        assert Alphabet.of_size(3).symbols == ("0", "1", "2")


class TestSequence:
    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            Sequence(BINARY, (0, 2))

    @pytest.mark.parametrize("data", [(-1,), (1, 0, -1), (3,), (0, 3, 1), (1 << 64,)])
    def test_index_range_checked_both_ends(self, data):
        with pytest.raises(ValueError, match="symbol index out of range for alphabet"):
            Sequence(Alphabet.of_size(3), data)

    @pytest.mark.parametrize("data", [(0.5, 1, True), (1.0,), ("0", "1"), (0, None)])
    def test_non_integer_indices_rejected(self, data):
        with pytest.raises(ValueError, match="symbol indices must be integers"):
            Sequence(BINARY, data)

    @pytest.mark.parametrize("size", [1, 2, 256, 257])
    def test_rejects_what_the_integer_array_check_rejects(self, size):
        # the message the array('q') check gives: the first entry that is no
        # integer, or beyond 64 bits, decides; then the range decides
        def expected(data):
            for v in data:
                if not isinstance(v, int):
                    return "symbol indices must be integers"
                if not -(1 << 63) <= v < 1 << 63:
                    return "symbol index out of range for alphabet"
            if any(not 0 <= v < size for v in data):
                return "symbol index out of range for alphabet"
            return None

        bad = [-1, size, 1 << 64, 0.5, "0", None]
        cases = ([(b,) for b in bad] + [(0, b) for b in bad]
                 + [(a, b) for a in bad for b in bad]
                 + [(True,), (size - 1, True, 0), (False,) * 5])  # bools are integers
        for data in cases:
            want = expected(data)
            if want is None:
                assert Sequence(Alphabet.of_size(size), data).data == data
                continue
            with pytest.raises(ValueError) as err:
                Sequence(Alphabet.of_size(size), data)
            assert str(err.value) == want, data

    def test_byte_check_spans_slices(self):
        # an index out of range in the second slice, under 256 and above it
        n = lz_core._CHECK_SLICE + 3
        for size, bad in ((2, 2), (2, 255), (256, 256), (256, -1)):
            data = [0] * n
            data[-2] = bad
            with pytest.raises(ValueError, match="out of range"):
                Sequence(Alphabet.of_size(size), data)
            data[-2] = size - 1
            assert Sequence(Alphabet.of_size(size), data).n == n

    def test_type_check_memory_is_one_slice(self):
        # the integer check must not copy the whole input beside the tuple
        data = [i & 1 for i in range(1_000_000)]
        tracemalloc.start()
        try:
            tuple(data)
            _, tuple_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            Sequence(BINARY, data)
            _, seq_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one slice: its tuple of pointers plus its array('q'), 8 bytes each
        assert seq_peak <= tuple_peak + 2 * 8 * lz_core._CHECK_SLICE + 64 * 1024

    def test_empty_sequence_accepted(self):
        assert Sequence(BINARY, ()).n == 0

    def test_from_symbols_unknown_token(self):
        with pytest.raises(KeyError):
            Sequence.from_symbols(BINARY, ["0", "x"])

    def test_bytes_round_trip_preserves_values(self):
        data = bytes([5, 200, 5, 0, 200])
        s = Sequence.from_bytes(data)
        assert s.alphabet.symbols == ("0", "5", "200")
        assert s.to_bytes() == data

    @pytest.mark.parametrize("names", [("1", "01"), ("+1",), ("-0",), ("١",), ("256",),
                                       ("a",), (" 1",)])
    def test_only_canonical_decimal_names_are_bytes(self, names):
        # only str(v) for v in 0..255 names a byte; int() also reads "01", "+1", "١", " 1"
        s = Sequence(Alphabet(names), range(len(names)))
        assert not s.alphabet.byte_named
        with pytest.raises(ValueError, match="not byte values"):
            s.to_bytes()
        assert Alphabet(("0", "1", "255")).byte_named

    def test_empty_bytes(self):
        s = Sequence.from_bytes(b"")
        assert s.n == 0
        assert s.to_bytes() == b""


class TestWorkedExamples:
    def test_fifteen_symbol_parse(self):
        s = seq("abbabaabbaaabaa")
        pr = parse(s)
        assert phrase_strings(s) == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
        assert pr.c == 8
        assert pr.is_last_incomplete
        assert pr.rho_lz == pytest.approx(8 * 3 / 15, abs=1e-15)

    def test_all_same_symbol(self):
        pr = parse(seq("aaaaaa"))
        assert pr.c == 3  # a | aa | aaa
        assert pr.rho_lz == pytest.approx(3 * math.log2(3) / 6, abs=1e-15)

    def test_alternating(self):
        pr = parse(seq("010101"))
        assert pr.c == 4  # 0 | 1 | 01 | 01 (incomplete)
        assert pr.is_last_incomplete
        assert pr.rho_lz == pytest.approx(4 / 3, abs=1e-15)

    def test_empty_and_single(self):
        assert parse(Sequence(BINARY, ())).c == 0
        assert parse(Sequence(BINARY, ())).rho_lz == 0.0
        pr = parse(Sequence(BINARY, (1,)))
        assert pr.c == 1
        assert pr.rho_lz == 0.0


texts = st.text(alphabet="ab", min_size=0, max_size=120) | st.text(
    alphabet="abcz", min_size=0, max_size=80)


sized = st.tuples(st.integers(1, 5), st.integers(0, 120)).flatmap(
    lambda kn: st.tuples(st.just(kn[0]), st.lists(st.integers(0, kn[0] - 1),
                                                  min_size=kn[1], max_size=kn[1])))


@given(sized)
def test_parse_matches_set_oracle(case):
    size, data = case
    pr = parse(Sequence(Alphabet.of_size(size), data))
    phrases, c, incomplete = oracles.parse_by_set(data)
    assert pr.c == c
    assert pr.is_last_incomplete == incomplete
    assert [tuple(data[a:a + ln]) for a, ln in pr.phrases] == phrases
    assert pr.rho_lz == pytest.approx(oracles.rho_by_set(data), abs=1e-12)


# (width, letters, cut): letters below the width, split at the cut
walk_cases = st.tuples(st.integers(1, 6), st.integers(0, 80)).flatmap(
    lambda wn: st.tuples(st.just(wn[0]),
                         st.lists(st.integers(0, wn[0] - 1), min_size=wn[1], max_size=wn[1]),
                         st.integers(0, wn[1])))


def _new_tables(width, n):
    """A flat-list table with room for n + 1 nodes, and a dict table."""
    return [0] * ((n + 1) * width), {}


def _filled(table):
    return list(table) if type(table) is list else list(table.items())


@given(walk_cases)
def test_walk_resumed_over_two_chunks_is_one_walk(case):
    """On either table type, a walk cut in two (the second part resumed from
    the base the first returned) gives one walk's slots, end base and table;
    node j's slot is slots[j - 1] and holds its base j*width."""
    width, letters, cut = case
    slot_logs = []
    for one, two in zip(_new_tables(width, len(letters)), _new_tables(width, len(letters))):
        one_slots, two_slots = [], []
        end = walk(one, one_slots, letters, 0, width)
        mid = walk(two, two_slots, letters[:cut], 0, width)
        assert walk(two, two_slots, letters[cut:], mid, width) == end
        assert two_slots == one_slots and _filled(two) == _filled(one)
        assert [one[k] for k in one_slots] == [j * width for j in range(1, len(one_slots) + 1)]
        assert end % width == 0 and (end == 0 or end in set(one[k] for k in one_slots))
        slot_logs.append(one_slots)
    assert slot_logs[0] == slot_logs[1]


@given(walk_cases)
def test_undo_restores_the_walk_up_to_its_mark(case):
    """Undoing to the slot count before a resumed walk leaves the table and
    slots exactly as they were; undo to 0 leaves an empty trie."""
    width, letters, cut = case
    for table in _new_tables(width, len(letters)):
        slots = []
        mid = walk(table, slots, letters[:cut], 0, width)
        before, mark = _filled(table), len(slots)
        walk(table, slots, letters[cut:], mid, width)
        undo(table, slots, mark)
        assert _filled(table) == before and len(slots) == mark
        undo(table, slots, 0)
        assert not slots and not any(table)


@given(sized)
def test_lz_walk_keys_and_last_match_set_oracle(case):
    """_lz_walk's contract: keys[j-1] = parent*size + innovation of complete
    phrase j, and last is the node of an incomplete last phrase, else 0."""
    size, data = case
    keys, last = lz_core._lz_walk(data, size)
    phrases, _, incomplete = oracles.parse_by_set(data)
    strings = [()]
    for k in keys:
        strings.append(strings[k // size] + (k % size,))
    assert strings[1:] == (phrases[:-1] if incomplete else phrases)
    assert (last != 0) == incomplete
    if incomplete:
        assert strings[last] == phrases[-1]


@given(texts)
def test_phrases_partition_input(text):
    s = seq(text, Alphabet(("a", "b", "c", "z")))
    pr = parse(s)
    covered = []
    for start, ln in pr.phrases:
        covered.extend(range(start, start + ln))
    assert covered == list(range(s.n))
    # complete phrases are pairwise distinct
    body = pr.phrases[:-1] if pr.is_last_incomplete else pr.phrases
    strings = [s.data[a:a + l] for a, l in body]
    assert len(set(strings)) == len(strings)


@given(texts)
def test_encode_decode_round_trip(text):
    s = seq(text, Alphabet(("a", "b", "c", "z")))
    enc = lz_encode(s)
    assert lz_decode(enc.to_bytes()) == s


@given(texts)
def test_payload_bound(text):
    s = seq(text, Alphabet(("a", "b", "c", "z")))
    if s.n < 2:
        return
    enc = lz_encode(s)
    assert enc.payload_bits <= parse(s).code_len_bound + 1e-9


def test_rho_from_count_edges():
    assert rho_from_count(0, 0) == 0.0
    assert rho_from_count(1, 10) == 0.0
    assert rho_from_count(4, 6) == pytest.approx(8 / 6)


class TestProduct:
    def test_first_listed_most_significant(self):
        x = Sequence(BINARY, (1, 0))
        y = Sequence(Alphabet.of_size(3), (2, 1))
        p = product_sequence((x, y))
        assert p.alphabet.size == 6
        assert p.data == (1 * 3 + 2, 0 * 3 + 1)

    def test_product_alphabet_names(self):
        pa = product_alphabet([BINARY, Alphabet(("x", "y"))])
        assert pa.symbols == ("0|x", "0|y", "1|x", "1|y")

    @pytest.mark.parametrize("sizes", [(26, 26, 2), (4, 3, 2), (1, 5, 2)])
    def test_product_of_a_pair_product_is_the_three_way_product(self, sizes):
        # mdc.zb_encode codes its center given product_sequence((pair, u))
        rng = random.Random(sum(sizes))
        h, t, u = (Sequence(Alphabet.of_size(k), [rng.randrange(k) for _ in range(200)])
                   for k in sizes)
        nested = product_sequence((product_sequence((h, t)), u))
        flat = product_sequence((h, t, u))
        assert nested.alphabet.symbols == flat.alphabet.symbols
        assert nested.data == flat.data

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_sequence((Sequence(BINARY, (0,)), Sequence(BINARY, ())))

    def test_empty_list(self):
        with pytest.raises(ValueError):
            product_sequence(())


class TestDecodeErrors:
    def test_mode_mismatch(self):
        from srlz.cond_lz import cond_encode

        side = seq("0101")
        enc = cond_encode(seq("0110"), side)
        with pytest.raises(ModeMismatchError):
            lz_decode(enc.to_bytes())

    def test_mode_mismatch_names_the_mode_field(self):
        from srlz.cond_lz import cond_encode

        raw = cond_encode(seq("0110"), seq("0101")).to_bytes()
        with pytest.raises(ModeMismatchError, match=(
                r"^not a plain stream container: mode field \(byte 5\) reads 1, expected 0$")):
            lz_decode(raw)

    def test_truncated_payload(self):
        enc = lz_encode(seq("abbabaabbaaabaa"))
        raw = enc.to_bytes()
        with pytest.raises((TruncatedStreamError, StreamFormatError)):
            lz_decode(raw[:leaf_header_length(raw) + 1])

    def test_pointer_out_of_range(self):
        # craft a stream whose third phrase points at itself (undefined)
        from srlz.bitio import BitWriter
        from srlz.container import Bitstream

        w = BitWriter()
        w.write(0, 1)  # phrase 1: zero-width parent, innovation symbol 0
        w.write(1, 1)  # phrase 2: parent 1
        w.write(0, 1)  # phrase 2 innovation symbol
        w.write(3, 2)  # phrase 3: parent 3, but only phrases 0..2 exist
        w.write(0, 1)
        bs = Bitstream(mode=MODE_LZ, n=6, alphabet=("0", "1"), phrase_count=3,
                       last_incomplete=False, payload=w.to_bytes(),
                       payload_bits=w.bit_length)
        with pytest.raises(PointerRangeError,
                           match="phrase 3 points to undefined phrase 3 at payload bit 3"):
            lz_decode(bs.to_bytes())

    def test_symbol_out_of_range_names_payload_bit(self):
        # phrase 2's 2-bit symbol, from bit 3, is not in a..c
        from srlz.bitio import pack
        from srlz.container import Bitstream

        payload, nbits = pack([1, 1, 3], [2, 1, 2])
        bs = Bitstream(mode=MODE_LZ, n=6, alphabet=("a", "b", "c"), phrase_count=3,
                       last_incomplete=False, payload=payload, payload_bits=nbits)
        with pytest.raises(StreamFormatError,
                           match="symbol index 3 out of range at payload bit 3"):
            lz_decode(bs.to_bytes())

    def test_short_phrase_count_names_n_and_the_bit(self):
        # 0|1|00 takes 1 + 2 + 3 payload bits; a header that counts two
        # phrases stops after bit 3, with 2 of the 4 symbols decoded
        from srlz.container import Bitstream

        enc = lz_encode(Sequence.from_text("0100"))
        assert (enc.phrase_count, enc.last_incomplete) == (3, False)
        raw = Bitstream(mode=MODE_LZ, n=4, alphabet=enc.alphabet, phrase_count=2,
                        last_incomplete=False, payload=enc.payload).to_bytes()
        with pytest.raises(StreamFormatError, match="decoded length 2 differs from "
                                                    "header length n=4 at payload bit 3$"):
            lz_decode(raw)

    def test_chained_phrases_stop_at_header_length(self):
        # phrase j extends phrase j-1, so 3,000 phrases spell 4,501,500
        # symbols; a header n of 1,000 must stop decoding before the output
        # grows past n
        from srlz.bitio import BitWriter
        from srlz.container import Bitstream

        c = 3000
        w = BitWriter()
        for j in range(1, c + 1):
            w.write(j - 1, (j - 1).bit_length())
            w.write(0, 1)
        n = 1000
        raw = Bitstream(mode=MODE_LZ, n=n, alphabet=("0", "1"), phrase_count=c,
                        last_incomplete=False, payload=w.to_bytes(),
                        payload_bits=w.bit_length).to_bytes()
        longest = []

        def watch(frame, event, arg):
            if frame.f_code is lz_decode.__code__:
                longest.append(len(frame.f_locals.get("out", ())))
                return watch
            return None

        sys.settrace(watch)
        try:
            with pytest.raises(StreamFormatError, match="exceeds header length"):
                lz_decode(raw)
        finally:
            sys.settrace(None)
        assert 900 < max(longest) <= n

    def test_length_mismatch_detected(self):
        enc = lz_encode(seq("abab"))
        raw = bytearray(enc.to_bytes())
        # header n lives at offset 6..13 big endian; bump it
        raw[13] ^= 0x01
        with pytest.raises((StreamFormatError, TruncatedStreamError)):
            lz_decode(bytes(raw))


def test_single_symbol_alphabet_round_trip():
    s = Sequence(Alphabet(("x",)), (0,) * 9)
    enc = lz_encode(s)
    assert lz_decode(enc.to_bytes()) == s
    # c phrases of a unary alphabet: 1,2,3,... prefix lengths
    assert parse(s).c == 4  # x | xx | xxx | xxx(incomplete)


def test_code_len_bound_small_n():
    assert parse(Sequence(BINARY, ())).code_len_bound == 0.0
    assert math.isinf(parse(Sequence(BINARY, (0,))).code_len_bound)


@given(st.integers(min_value=2, max_value=40))
def test_bound_formula_matches_definition(n):
    # independent recomputation of c*log2(c) + n*eps(n)
    s = Sequence(BINARY, tuple(i % 2 for i in range(n)))
    pr = parse(s)
    eps = bounds.eps_slack(n, 2)
    expect = (pr.c * math.log2(pr.c) if pr.c > 1 else 0.0) + n * eps
    assert pr.code_len_bound == pytest.approx(expect, rel=1e-12)
