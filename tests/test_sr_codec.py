import copy
import functools
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import greedy_pairs_by_full_parse, in_ball
from srlz.container import (
    BudgetExceededError,
    InfeasibleError,
    MODE_SR,
    ModeMismatchError,
    ROLE_STAGE1,
    ROLE_STAGE2,
    Segment,
    StreamFormatError,
    pack_segments,
)
from srlz.cond_lz import joint_parse
from srlz.lz_core import BINARY, Alphabet, Sequence, lz_encode, rho_lz
from srlz import sr_codec
from srlz.regions import SearchBudget
from srlz.sr_codec import (
    OBJECTIVES,
    DistortionSpec,
    PerLetterDistortion,
    SrEncoded,
    _FlipScorer,
    candidate_pairs,
    distortion,
    hamming_spec,
    nearest_feasible,
    select_reproductions,
    sr_decode_full,
    sr_decode_stage1,
    sr_encode,
)


def bits(text: str) -> Sequence:
    return Sequence.from_symbols(BINARY, list(text))


class TestPerLetterDistortion:
    def test_hamming_matches_on_names(self):
        d = PerLetterDistortion("hamming")
        cost = d.letter_cost(Alphabet(("a", "b")), Alphabet(("b", "c")))
        assert cost == [[1.0, 1.0], [0.0, 1.0]]

    def test_absdiff_on_decimal_names(self):
        d = PerLetterDistortion("absdiff")
        cost = d.letter_cost(Alphabet(("0", "2", "5")), Alphabet(("1", "4")))
        assert cost == [[1.0, 4.0], [1.0, 2.0], [4.0, 1.0]]

    def test_absdiff_rejects_nonnumeric_names(self):
        d = PerLetterDistortion("absdiff")
        with pytest.raises(ValueError, match="integer symbol names"):
            d.letter_cost(Alphabet(("a", "b")), Alphabet(("0", "1")))

    def test_table_kind(self):
        t = {("a", "x"): 0.0, ("a", "y"): 2.0, ("b", "x"): 1.0, ("b", "y"): 0.5}
        d = PerLetterDistortion("table", table=t, reproduction=Alphabet(("x", "y")))
        cost = d.letter_cost(Alphabet(("a", "b")), d.rep_alphabet(Alphabet(("a", "b"))))
        assert cost == [[0.0, 2.0], [1.0, 0.5]]

    def test_table_without_table(self):
        with pytest.raises(ValueError, match="without a table"):
            PerLetterDistortion("table").letter_cost(BINARY, BINARY)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distortion kind"):
            PerLetterDistortion("euclid").letter_cost(BINARY, BINARY)

    def test_rep_alphabet_defaults_to_source(self):
        d = PerLetterDistortion("hamming")
        assert d.rep_alphabet(BINARY) is BINARY


class TestDistortionTotals:
    def test_hamming_counts_mismatches(self):
        d = PerLetterDistortion("hamming")
        assert distortion(bits("0101"), bits("0111"), d) == 1.0
        assert distortion(bits("0101"), bits("0101"), d) == 0.0
        assert distortion(bits("0101"), bits("1010"), d) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            distortion(bits("01"), bits("0"), PerLetterDistortion("hamming"))

    def test_in_ball_boundary_inclusive(self):
        spec = hamming_spec(0.25, 0.0)
        x = bits("0000")
        assert in_ball(x, bits("0001"), x, spec)       # exactly at level1
        assert not in_ball(x, bits("0011"), x, spec)   # above level1
        assert not in_ball(x, x, bits("0001"), spec)   # fine side violated


class TestNearestFeasible:
    def test_identity_at_level_zero(self):
        x = bits("0110")
        assert nearest_feasible(x, PerLetterDistortion("hamming"), 0.0) == x

    def test_absdiff_snaps_to_closest_value(self):
        x = Sequence.from_symbols(Alphabet(("0", "3", "9")), ["0", "9", "3", "9"])
        rep = Alphabet(("2", "8"))
        d = PerLetterDistortion("absdiff", reproduction=rep)
        y = nearest_feasible(x, d, 2.0)
        assert [rep.symbols[v] for v in y.data] == ["2", "8", "2", "8"]

    def test_unreachable_level(self):
        x = bits("0101")
        rep = Alphabet(("7",))
        d = PerLetterDistortion("absdiff", reproduction=rep)
        with pytest.raises(InfeasibleError, match="unreachable"):
            nearest_feasible(x, d, 1.0)


class TestRefinementCodec:
    def test_round_trip(self):
        x = bits("0100011011000001")
        xhat = bits("0000011011000001")
        xtilde = bits("0100011011000101")
        enc = sr_encode(x, xhat, xtilde)
        assert enc.n == 16
        assert enc.r1 == enc.stage1.payload_bits / 16
        assert enc.r2 == enc.stage2.payload_bits / 16
        raw = enc.to_bytes()
        assert sr_decode_stage1(raw) == xhat
        got_hat, got_til = sr_decode_full(raw)
        assert got_hat == xhat and got_til == xtilde

    def test_from_bytes_restores_rates(self):
        x = bits("01101001")
        enc = sr_encode(x, x, x)
        back = SrEncoded.from_bytes(enc.to_bytes())
        assert back.n == 8
        assert back.r1 == pytest.approx(enc.r1)
        assert back.r2 == pytest.approx(enc.r2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="match the source length"):
            sr_encode(bits("0101"), bits("010"), bits("0101"))

    def test_wrong_container_mode(self):
        plain = lz_encode(bits("0101")).to_bytes()
        with pytest.raises(ModeMismatchError):
            SrEncoded.from_bytes(plain)

    def test_swapped_stage_segments_rejected(self):
        x = bits("01101001")
        enc = sr_encode(x, x, x)
        swapped = pack_segments(MODE_SR, 8, [
            Segment(ROLE_STAGE1, enc.stage2.payload_bits, enc.stage2.to_bytes()),
            Segment(ROLE_STAGE2, enc.stage1.payload_bits, enc.stage1.to_bytes()),
        ])
        with pytest.raises(StreamFormatError, match="wrong modes"):
            SrEncoded.from_bytes(swapped)

    def test_missing_stage_segment(self):
        x = bits("01101001")
        enc = sr_encode(x, x, x)
        only1 = pack_segments(MODE_SR, 8, [
            Segment(ROLE_STAGE1, enc.stage1.payload_bits, enc.stage1.to_bytes()),
        ])
        with pytest.raises(StreamFormatError, match="missing a stage"):
            SrEncoded.from_bytes(only1)


@given(st.text(alphabet="01", min_size=1, max_size=48),
       st.text(alphabet="01", min_size=1, max_size=48),
       st.text(alphabet="01", min_size=1, max_size=48))
def test_codec_round_trips_any_triple(a, b, c):
    n = min(len(a), len(b), len(c))
    x, xhat, xtilde = bits(a[:n]), bits(b[:n]), bits(c[:n])
    got_hat, got_til = sr_decode_full(sr_encode(x, xhat, xtilde).to_bytes())
    assert got_hat == xhat and got_til == xtilde


class TestCandidatePairs:
    def test_exhaustive_ball_sizes(self):
        pairs, meta = candidate_pairs(bits("01"), hamming_spec(0.5, 0.0),
                                      SearchBudget())
        assert meta["search_mode"] == "exhaustive"
        assert meta["ball1"] == 3 and meta["ball2"] == 1
        assert len(pairs) == 3
        assert all(til == bits("01") for _, til in pairs)

    def test_all_pairs_feasible(self):
        spec = hamming_spec(0.25, 0.125)
        x = bits("01100110")
        pairs, _ = candidate_pairs(x, spec, SearchBudget())
        assert pairs
        for hat, til in pairs:
            assert in_ball(x, hat, til, spec)

    def test_exhaustive_mode_budget_error(self):
        spec = hamming_spec(0.25, 0.25)
        with pytest.raises(BudgetExceededError, match="exceed the exhaustive"):
            candidate_pairs(bits("01100110"), spec,
                            SearchBudget(mode="exhaustive", exhaustive_limit=10))

    def test_auto_falls_back_to_greedy(self):
        spec = hamming_spec(0.25, 0.125)
        x = bits("0110011001100110")
        search = SearchBudget(exhaustive_limit=10, evaluations=64, restarts=1)
        pairs, meta = candidate_pairs(x, spec, search)
        assert meta["search_mode"] == "greedy"
        for hat, til in pairs:
            assert in_ball(x, hat, til, spec)

    def test_greedy_is_deterministic_per_seed(self):
        spec = hamming_spec(0.25, 0.25)
        x = bits("0110100110010110")
        search = SearchBudget(mode="greedy", evaluations=128, restarts=2, seed=3)
        p1, _ = candidate_pairs(x, spec, search)
        p2, _ = candidate_pairs(x, spec, search)
        assert [(h.data, t.data) for h, t in p1] == [(h.data, t.data) for h, t in p2]

    def test_empty_ball_is_infeasible(self):
        rep = Alphabet(("5",))
        d = PerLetterDistortion("absdiff", reproduction=rep)
        spec = DistortionSpec(d1=d, d2=PerLetterDistortion("hamming"),
                              level1=0.5, level2=0.0)
        with pytest.raises(InfeasibleError):
            candidate_pairs(bits("0101"), spec, SearchBudget())

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown search mode"):
            candidate_pairs(bits("01"), hamming_spec(0.0, 0.0),
                            SearchBudget(mode="annealed"))

    def test_greedy_on_the_empty_sequence(self):
        x = Sequence(Alphabet.of_size(3), [])
        pairs, meta = candidate_pairs(x, hamming_spec(0.5, 0.5), SearchBudget(mode="greedy"))
        assert [(h.data, t.data) for h, t in pairs] == [((), ())]
        assert meta["search_mode"] == "greedy" and meta["pairs"] == 1

    def test_greedy_on_one_symbol(self):
        x = Sequence(Alphabet.of_size(3), [2])
        search = SearchBudget(mode="greedy")
        pairs, _ = candidate_pairs(x, hamming_spec(0.5, 0.5), search)
        assert [(h.data, t.data) for h, t in pairs] == [((2,), (2,))]
        # every flip is admissible at level 1 and every score is 0
        pairs, _ = candidate_pairs(x, hamming_spec(1.0, 1.0), search)
        assert [(h.data, t.data) for h, t in pairs] == [
            ((2,), (2,)), ((1,), (1,)), ((0,), (1,)), ((2,), (1,))]


class TestSelection:
    def test_zero_levels_return_source(self):
        x = bits("01101001")
        hat, til, diag = select_reproductions(x, hamming_spec(0.0, 0.0))
        assert hat == x and til == x
        assert diag["search_mode"] == "exhaustive"
        assert diag["pairs"] == 1

    def test_objective_value_matches_brute_force(self):
        x = bits("01000110")
        spec = hamming_spec(0.25, 0.125)
        search = SearchBudget()
        pairs, _ = candidate_pairs(x, spec, search)
        for objective, fn in (("min-r1", lambda r1, rc: r1),
                              ("min-sum", lambda r1, rc: r1 + rc)):
            hat, til, diag = select_reproductions(x, spec, objective, search)
            best = min(fn(rho_lz(h), joint_parse(h, t).rho_cond) for h, t in pairs)
            assert diag["objective_value"] == pytest.approx(best)
            assert in_ball(x, hat, til, spec)

    def test_weight_endpoints_match_named_objectives(self):
        x = bits("01000110")
        spec = hamming_spec(0.25, 0.125)
        h0, t0, d0 = select_reproductions(x, spec, "weighted",
                                          SearchBudget(weight=0.0))
        h1, t1, d1 = select_reproductions(x, spec, "min-r1")
        assert (h0, t0) == (h1, t1)
        hs, ts, ds = select_reproductions(x, spec, "weighted",
                                          SearchBudget(weight=1.0))
        hm, tm, dm = select_reproductions(x, spec, "min-sum")
        assert (hs, ts) == (hm, tm)

    def test_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            select_reproductions(bits("01"), hamming_spec(0.0, 0.0),
                                 "weighted", SearchBudget(weight=1.5))

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            select_reproductions(bits("01"), hamming_spec(0.0, 0.0), "fastest")

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_greedy_on_the_empty_sequence(self, objective):
        x = Sequence(Alphabet.of_size(3), [])
        hat, til, diag = select_reproductions(x, hamming_spec(0.5, 0.5), objective,
                                              SearchBudget(mode="greedy"))
        assert hat.data == til.data == ()
        assert diag["objective_value"] == 0.0 and diag["search_mode"] == "greedy"

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_greedy_on_one_symbol(self, objective):
        x = Sequence(Alphabet.of_size(3), [2])
        hat, til, diag = select_reproductions(x, hamming_spec(1.0, 1.0), objective,
                                              SearchBudget(mode="greedy"))
        assert (hat.data, til.data) == ((0,), (1,))
        assert diag["objective_value"] == 0.0

    def test_selection_is_deterministic(self):
        x = bits("0110100101001101")
        spec = hamming_spec(0.125, 0.0625)
        search = SearchBudget(exhaustive_limit=100, evaluations=128,
                              restarts=2, seed=11)
        a = select_reproductions(x, spec, "min-sum", search)
        b = select_reproductions(x, spec, "min-sum", search)
        assert (a[0], a[1]) == (b[0], b[1])


def _uniform_source(seed: int, size: int, n: int) -> Sequence:
    rng = random.Random(seed)
    return Sequence(Alphabet.of_size(size), [rng.randrange(size) for _ in range(n)])


_ABSDIFF = PerLetterDistortion("absdiff")
_ABSDIFF_TO_024 = PerLetterDistortion("absdiff", reproduction=Alphabet(("0", "2", "4")))

# name -> (source seed, alphabet size, n, distortion, search budget)
GOLDEN_CASES = {
    "hamming": (1, 4, 40, hamming_spec(0.25, 0.0),
                SearchBudget(mode="greedy", evaluations=800, seed=0)),
    "hamming-seed5": (2, 4, 48, hamming_spec(0.25, 0.0),
                      SearchBudget(mode="greedy", evaluations=1500, seed=5)),
    "hamming-fine": (3, 3, 36, hamming_spec(0.3, 0.1),
                     SearchBudget(mode="greedy", evaluations=1200, seed=1)),
    "absdiff": (4, 5, 40, DistortionSpec(d1=_ABSDIFF, d2=_ABSDIFF, level1=0.8, level2=0.2),
                SearchBudget(mode="greedy", evaluations=1200, seed=2)),
    "rep-size": (5, 5, 40, DistortionSpec(d1=_ABSDIFF_TO_024, d2=_ABSDIFF,
                                          level1=0.9, level2=0.15),
                 SearchBudget(mode="greedy", evaluations=1200, seed=3)),
    "binary-long": (6, 2, 96, hamming_spec(0.2, 0.05),
                    SearchBudget(mode="greedy", evaluations=2000, seed=4, restarts=2)),
    # the shape of the search-regions benchmark: long suffixes, full budget
    "hamming-n256": (0, 4, 256, hamming_spec(0.25, 0.0), SearchBudget(mode="greedy", seed=0)),
    # the benchmark's second size; source seed 0 would make the first restart
    # replay the source, since both draw randrange(4) from Random(0)
    "hamming-n512": (7, 4, 512, hamming_spec(0.25, 0.0), SearchBudget(mode="greedy", seed=0)),
}

# Captured from the search that scored every candidate with a full
# rho_lz + joint_parse (hamming-n256 and hamming-n512 later, from the suffix
# scorer that the others had checked, before it kept per-sweep prefix tries):
# (coarse, fine) index strings of candidate_pairs, then the selected
# objective values for "weighted" and "min-sum".
GOLDEN = {
    "hamming": (
        [
            ("1020333310303303210200003130133121132030",
             "1020333310303303210200003130133121132030"),
            ("3302332321121303210200003130133121132030",
             "1020333310303303210200003130133121132030"),
            ("1122332321321303210200003130133121132030",
             "1020333310303303210200003130133121132030"),
            ("3202032110201203210200003130133121132030",
             "1020333310303303210200003130133121132030"),
            ("1032033110221203210200003130033121132030",
             "1020333310303303210200003130133121132030"),
            ("2021132221233003210200003130133121132030",
             "1020333310303303210200003130133121132030"),
            ("0021132231223303210200203130133121132030",
             "1020333310303303210200003130133121132030"),
        ],
        1.8810438950854809, 2.017765568885703),
    "hamming-seed5": (
        [
            ("000212210133232002323311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("131212210133132102322311100121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("220310102313010002323311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("320110100313010002323311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("221012310030122331323311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("133112310130122131320311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("011311103110102102323311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
            ("011311100103101102313311110121121332223133132323",
             "000212210133232002323311110121121332223133132323"),
        ],
        1.6549186203550696, 1.7461153651692725),
    "hamming-fine": (
        [
            ("022012122020112002122112002021202002",
             "022012122020112002122112002021202002"),
            ("122012122020212002122112002021202002",
             "022012122020212002122112002021202002"),
            ("020101112100101102122112002021202002",
             "201012122020112002122112002021202002"),
            ("021100102001101002122112002021202002",
             "021112122020112002122112002021202002"),
            ("222212002000220122122112002021202002",
             "222211122020112002122112002021202002"),
            ("222212102020200122122112002021202002",
             "222210122020112002122112002021202002"),
            ("001111010122012002122112002021202002",
             "001112122020112002122112002021202002"),
            ("011011010122012002122112012021202002",
             "000112122020112002122112002021202002"),
        ],
        1.5084158030224015, 1.5361935808001794),
    "absdiff": (
        [
            ("1203310003420144221021022112220423411132",
             "1203310003420144221021022112220423411132"),
            ("0203212003420144221021022102220403412101",
             "0203212003420144221021022102220403412132"),
            ("0002122414041334243211022112220423411132",
             "4243310103420144221021022112220423411132"),
            ("0003102413041334243211024112220423411132",
             "2243110103420144221021022112220423411132"),
            ("0412110300221100000001122112220423411132",
             "3443310003420144221021022112220423411132"),
            ("2232110300221100000011122112220423411132",
             "3233313003420144221021022112220423411132"),
            ("0414422324010331040011022112220423411132",
             "0320410003420144221021022112220423411132"),
            ("2412400224310331040010022112220423411133",
             "2210210103420144221021022112220423411132"),
        ],
        1.4900839733531945, 1.5150839733531947),
    "rep-size": (
        [
            ("2112010000110120200011010002210000000011",
             "4224031010231340410132131014431100111122"),
            ("2212010002120121200010011002210000000111",
             "4224131010231340410132131014431100111122"),
            ("0220121020120120200021010002221100100011",
             "2324331010231340410132131014431100111122"),
            ("1102121020120120200021010022221100100011",
             "3324231110231340411132131014431100111122"),
            ("0022001121111220210111111012211100001111",
             "4230041010231340410132131014431100111122"),
            ("1022022121111220200111111012211100201111",
             "3213241010231340410132131014431100111122"),
            ("2110002012011210210121121002210100011111",
             "4201021010231340410132131014431100111122"),
            ("2112001012011210210121121002210100011111",
             "4211022010231340410132131014431100111122"),
        ],
        1.725, 1.85),
    "binary-long": (
        [
            ("011000111011010010110111100100011001011100001101100000001111110100110100111011110011100001101111",
             "011000111011010010110111100100011001011100001101100000001111110100110100111011110011100001101111"),
            ("011010111011010011110111100100011001011100011101100000001111110100110100111011110011100001101111",
             "011010111011010011110111100100011001011100001101100000001111110100110100111011110011100001101111"),
            ("010110000110011001001100111000011001011100001101100000001111110100110100111011110011100001101111",
             "101101111011010010110111100100011001011100001101100000001111110100110100111011110011100001101111"),
            ("011110000111011001001001101100011001011100001101100000001111110100110100111011110011100001100110",
             "001001111011011010110111100000011001011100001101100000001111110100110100111011110011100001101111"),
            ("000101100001110000110010011001101101011100001101100000001111110100110100111011110011100001101111",
             "010111111011010010110111100100011001011100001101100000001111110100110100111011110011100001101111"),
            ("010101101011110001110010001001101101011100001101100000001111110100110100111011110011100001111111",
             "011101111011010010110111100100011001011100001101100000001111110100110100111011110011100001101111"),
        ],
        1.3373121099834755, 1.3373121099834755),
    "hamming-n256": (
        [
            ("3302332321121021200230232133200030321201111300230220212303212111"
             "0230011003211323320203211020121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222",
             "3302332321121021200230232133200030321201111300230220212303212111"
             "0230011003211323320203211020121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222"),
            ("0302332321121021200230232133200030322201111302230220212303212111"
             "0230011003211323320203213020121230011000010302000110310030201022"
             "1103003222311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222",
             "3302332321121021200230232133200030321201111300230220212303212111"
             "0230011003211323320203211020121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222"),
            ("1012232221002131112111223010300132313220132033032312230102013313"
             "3113212303120330120213303120121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222",
             "3302332321121021200230232133200030321201111300230220212303212111"
             "0230011003211323320203211020121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222"),
            ("0022132221202331111111223010300132321220132033032312230102003313"
             "3113213303111330120213202120121231011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002303120120001222033321132011222",
             "3302332321121021200230232133200030321201111300230220212303212111"
             "0230011003211323320203211020121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322212330012111333033013021"
             "3300322303101033201000101221033002302120120001222033321132011222"),
        ],
        1.9873212796523008, 1.9990400296523008),
    "hamming-n512": (
        [
            ("2130002010033010300103010123102101200013323322111023232003121330"
             "0222330023002323203210301211333013321323231101111031220132210333"
             "3303301013102000102001312223003333201022310121020221212111311320"
             "0232123220101312130320031313203330111013132110001311021212231023"
             "3110310111300230011200300321233121313033201301201212131033111332"
             "3122020233032200100220121323132020130200201020302321010120112212"
             "3122020001313033321121132010023100321203112302222102121023032110"
             "0201303022101323121031010001203300132030003202111333032010122210",
             "2130002010033010300103010123102101200013323322111023232003121330"
             "0222330023002323203210301211333013321323231101111031220132210333"
             "3303301013102000102001312223003333201022310121020221212111311320"
             "0232123220101312130320031313203330111013132110001311021212231023"
             "3110310111300230011200300321233121313033201301201212131033111332"
             "3122020233032200100220121323132020130200201020302321010120112212"
             "3122020001313033321121132010023100321203112302222102121023032110"
             "0201303022101323121031010001203300132030003202111333032010122210"),
            ("1100002010033010300103110103102101200013323322111023230003121330"
             "0222330023002323303210301211333013321323231101111031220132210333"
             "3303301013102000102001312223003333201022310121020221212111311320"
             "0232123220101312130320032313203330111013132110001311021212231023"
             "3110310111300230011200300321233121313033201301201212131033111332"
             "3122020233032200100220121323132020130200201020302321010120112212"
             "3122020001313033321121132010023100321203212302222102121023032110"
             "0201303022101323121031010001203300132030002202111333032010122210",
             "2130002010033010300103010123102101200013323322111023232003121330"
             "0222330023002323203210301211333013321323231101111031220132210333"
             "3303301013102000102001312223003333201022310121020221212111311320"
             "0232123220101312130320031313203330111013132110001311021212231023"
             "3110310111300230011200300321233121313033201301201212131033111332"
             "3122020233032200100220121323132020130200201020302321010120112212"
             "3122020001313033321121132010023100321203112302222102121023032110"
             "0201303022101323121031010001203300132030003202111333032010122210"),
            ("3302332321121021200230232133200030321201111300230220212303212111"
             "0230011003211323320203211020121230011000010302000110310030201022"
             "3103003122311011220310332232103020211322210121020221212111311320"
             "0232123220101312130320031313203330111013132110001311021212231023"
             "3110310111300230011200300321233121313033201301201212131033111332"
             "3122020233032200100220121323132020130200201020302321010120112212"
             "3122020001313033321121132010023100321203112302222102121023032110"
             "0201303022101323121031010001203300132030003202111333032010122210",
             "2130002010033010300103010123102101200013323322111023232003121330"
             "0222330023002323203210301211333013321323231101111031220132210333"
             "3303301013102000102001312223003333201022310121020221212111311320"
             "0232123220101312130320031313203330111013132110001311021212231023"
             "3110310111300230011200300321233121313033201301201212131033111332"
             "3122020233032200100220121323132020130200201020302321010120112212"
             "3122020001313033321121132010023100321203112302222102121023032110"
             "0201303022101323121031010001203300132030003202111333032010122210"),
        ],
        2.012185634590608, 2.0246415794169397),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_greedy_search_matches_golden(name):
    seed, size, n, dist, search = GOLDEN_CASES[name]
    want_pairs, want_weighted, want_min_sum = GOLDEN[name]
    x = _uniform_source(seed, size, n)
    pairs, meta = candidate_pairs(x, dist, search)
    got = [("".join(map(str, h.data)), "".join(map(str, t.data))) for h, t in pairs]
    assert got == want_pairs
    assert meta == {"search_mode": "greedy", "seed": search.seed, "pairs": len(want_pairs),
                    "evaluations": search.evaluations, "restarts": search.restarts}
    assert select_reproductions(x, dist, "weighted", search)[2]["objective_value"] == want_weighted
    assert select_reproductions(x, dist, "min-sum", search)[2]["objective_value"] == want_min_sum


def _full_score(h, t, size_a, size_b):
    hat = Sequence(Alphabet.of_size(size_a), h)
    til = Sequence(Alphabet.of_size(size_b), t)
    return rho_lz(hat) + joint_parse(hat, til).rho_cond


def _on_both_layouts(test):
    """Run a scorer test on flat tables (the module's slot budget covers every
    drawn case) and again, on a copy of the case, on dict tables (the budget
    patched to 0)."""
    @functools.wraps(test)
    def run(case):
        for budget in (sr_codec.FLAT_SLOTS, 0):
            with mock.patch.object(sr_codec, "FLAT_SLOTS", budget):
                test(copy.deepcopy(case))
    return run


def _layout_scorer(h, t, size_a, size_b):
    scorer = _FlipScorer(h, t, size_a, size_b)
    assert (type(scorer.jt) is list) is (sr_codec.FLAT_SLOTS > 0)
    return scorer


# (A, B, h, t, flips): flip = (position fraction, coarse?, new letter, keep?)
scorer_cases = st.tuples(st.integers(1, 5), st.integers(1, 5),
                         st.integers(1, 48)).flatmap(
    lambda abn: st.tuples(
        st.just(abn[0]), st.just(abn[1]),
        st.lists(st.integers(0, abn[0] - 1), min_size=abn[2], max_size=abn[2]),
        st.lists(st.integers(0, abn[1] - 1), min_size=abn[2], max_size=abn[2]),
        st.lists(st.tuples(st.integers(0, abn[2] - 1), st.booleans(),
                           st.integers(0, 4), st.booleans()), max_size=12)))


@given(scorer_cases)
@_on_both_layouts
def test_suffix_scorer_is_bit_identical_to_full_score(case):
    size_a, size_b, h, t, flips = case
    n = len(h)
    scorer = _layout_scorer(h, t, size_a, size_b)
    assert scorer.rebuild() == _full_score(h, t, size_a, size_b)
    # the first and last positions, then the drawn flips (kept ones rebuild)
    edge = [(0, True, 1, False), (n - 1, False, 1, False),
            (n - 1, True, 1, False), (0, False, 1, False)]
    for i, coarse, letter, keep in edge + flips:
        seq, size = (h, size_a) if coarse else (t, size_b)
        old = seq[i]
        seq[i] = (old + letter) % size
        assert scorer.score(i, coarse) == _full_score(h, t, size_a, size_b)
        if keep:
            assert scorer.rebuild() == _full_score(h, t, size_a, size_b)
        else:
            seq[i] = old


# (A, B, n, source seed, skewed letters?, number of positions)
protocol_cases = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 200),
                           st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 8))


@given(protocol_cases)
@_on_both_layouts
def test_scorer_under_the_greedy_protocol(case):
    """Drive the scorer the way `improve` does: passes over the positions,
    every other letter of both sequences, rejected flips reverted without a
    rebuild and kept ones rebuilt; the second pass scores earlier positions
    after later ones were flipped and reverted."""
    size_a, size_b, n, seed, skewed, count = case
    rng = random.Random(seed)

    def draw(size):
        weights = [8] + [1] * (size - 1) if skewed else [1] * size
        return rng.choices(range(size), weights, k=n)

    h, t = draw(size_a), draw(size_b)
    positions = sorted(rng.sample(range(n), min(n, count)))
    scorer = _layout_scorer(h, t, size_a, size_b)
    best = scorer.rebuild()
    assert best == _full_score(h, t, size_a, size_b)
    for _ in range(2):
        for i in positions:
            for coarse, seq, size in ((True, h, size_a), (False, t, size_b)):
                old = seq[i]
                for j in range(size):
                    if j == old:
                        continue
                    seq[i] = j
                    cand = scorer.score(i, coarse)
                    assert cand == _full_score(h, t, size_a, size_b)
                    if cand < best - 1e-15:
                        best = cand
                        assert scorer.rebuild() == cand
                        old = j
                    else:
                        seq[i] = old


def _prefix_state(scorer):
    tables = [list(tb) if type(tb) is list else list(tb.items())
              for tb in (scorer.lz, scorer.jt, scorer.pt)]
    return (tables, list(scorer.lslots), list(scorer.jslots), list(scorer.pslots),
            list(scorer.pnode), list(scorer.c_l), scorer.state)


@given(scorer_cases)
@_on_both_layouts
def test_prefix_state_is_a_fresh_walk_of_the_prefix(case):
    """After `score(i, ...)` the prefix state is exactly what a fresh walk of
    positions < i gives: both walk tables slot for slot (dict tables item for
    item), the primary trie item for item, the three slot logs, `pnode`, the
    counts `c_l` in first-marking order and the walker state; and further
    scores at i, of both kinds, change neither it nor h, t and hb, so the
    undo restores every slot the suffix walks filled, primary trie included."""
    size_a, size_b, h, t, flips = case
    scorer = _layout_scorer(h, t, size_a, size_b)
    scorer.rebuild()
    for i, coarse, letter, keep in flips + [(0, True, 0, True)]:
        seq, size = (h, size_a) if coarse else (t, size_b)
        old = seq[i]
        seq[i] = (old + letter) % size
        scorer.score(i, coarse)
        assert scorer.pos == i
        fresh = _layout_scorer(list(h), list(t), size_a, size_b)
        fresh._advance(i)
        want = _prefix_state(fresh)
        assert _prefix_state(scorer) == want
        sequences = (list(h), list(t), list(scorer.hb))
        scorer.score(i, coarse)
        scorer.score(i, not coarse)
        assert _prefix_state(scorer) == want
        assert (h, t, scorer.hb) == sequences
        if keep:
            scorer.rebuild()
            assert _prefix_state(scorer) == want
        else:
            seq[i] = old


@pytest.mark.parametrize("slots", [None, 0, 300], ids=["flat", "dict", "mixed"])
def test_greedy_search_scores_are_full_scores(slots, monkeypatch):
    """Every score the greedy search reads equals a full parse of the pair, on
    both table layouts and on flat plain and primary tries beside a dict
    joint trie (at n = 60 those two need 244 slots and the joint one 488),
    with fine flips (level2 > 0) and a 3-letter source reproduced over 4
    coarse and 2 fine letters, so no base is square."""
    if slots is not None:
        monkeypatch.setattr(sr_codec, "FLAT_SLOTS", slots)
    src, rep1, rep2 = Alphabet.of_size(3), Alphabet.of_size(4), Alphabet.of_size(2)
    d1 = PerLetterDistortion("table", {(s, r): float(s != r) for s in src.symbols
                                       for r in rep1.symbols}, rep1)
    d2 = PerLetterDistortion("table", {(s, r): float(int(s) % 2 != int(r))
                                       for s in src.symbols for r in rep2.symbols}, rep2)
    dist = DistortionSpec(d1=d1, d2=d2, level1=0.25, level2=0.1)
    real, kinds = _FlipScorer.score, set()

    def checked(self, i, coarse):
        got = real(self, i, coarse)
        assert (self.A, self.B, type(self.jt) is list) == (4, 2, slots is None)
        assert type(self.lz) is type(self.pt) is (dict if slots == 0 else list)
        assert got == _full_score(self.h, self.t, self.A, self.B)
        kinds.add(coarse)
        return got

    monkeypatch.setattr(_FlipScorer, "score", checked)
    pairs, meta = candidate_pairs(_uniform_source(7, 3, 60), dist,
                                  SearchBudget(mode="greedy", evaluations=600, seed=2))
    assert kinds == {True, False} and meta["search_mode"] == "greedy"
    assert len(pairs) >= 2


# (source seed, alphabet size, n, level1, level2, evaluations, restarts)
_REFERENCE_CASES = [
    (11, 2, 24, 0.25, 0.1, 40, 3),
    (12, 2, 64, 0.2, 0.05, 300, 3),
    (13, 2, 48, 0.3, 0.15, 1500, 2),
    (14, 4, 20, 0.25, 0.1, 1, 3),
    (15, 4, 32, 0.25, 0.1, 150, 3),
    (16, 4, 64, 0.3, 0.1, 700, 1),
    (17, 4, 40, 0.25, 0.0, 900, 3),
]


def _greedy_case(case):
    seed, size, n, level1, level2, evaluations, restarts = case
    search = SearchBudget(mode="greedy", evaluations=evaluations, seed=seed,
                          restarts=restarts)
    return _uniform_source(seed, size, n), hamming_spec(level1, level2), search


@pytest.mark.parametrize("slots", [None, 0], ids=["flat", "dict"])
@pytest.mark.parametrize("case", _REFERENCE_CASES)
def test_greedy_search_matches_the_full_parse_reference(case, slots, monkeypatch):
    """The search returns the pairs of a greedy that parses every candidate
    in full and never skips one, on both table layouts, with fine flips and
    with budgets that end inside a position's candidates."""
    if slots is not None:
        monkeypatch.setattr(sr_codec, "FLAT_SLOTS", slots)
    x, dist, search = _greedy_case(case)
    want, _ = greedy_pairs_by_full_parse(x, dist, search)
    pairs, _ = candidate_pairs(x, dist, search)
    assert [(h.data, t.data) for h, t in pairs] == [(h.data, t.data) for h, t in want]


@pytest.mark.parametrize("case", _REFERENCE_CASES)
def test_greedy_search_scores_each_candidate_once_per_accepted_flip(case, monkeypatch):
    """A candidate (position, side, letter) is scored only when no score of it
    was made since the last accepted flip: the scorer sees exactly the first
    occurrence of each (start point, accepted flips, position, side, letter)
    the full-parse reference evaluates, in its order, so the score calls
    plus the skipped repeats are the reference's evaluation count."""
    x, dist, search = _greedy_case(case)
    _, reference = greedy_pairs_by_full_parse(x, dist, search)
    starts, seen = [], []  # [scorer, flips kept] per start point
    real_rebuild, real_score = _FlipScorer.rebuild, _FlipScorer.score

    def rebuild(self):  # once per start point, then once per flip kept
        if not starts or starts[-1][0] is not self:
            starts.append([self, -1])
        starts[-1][1] += 1
        return real_rebuild(self)

    def score(self, i, coarse):
        assert starts[-1][0] is self
        letter = (self.h if coarse else self.t)[i]
        seen.append((len(starts) - 1, starts[-1][1], i, coarse, letter))
        return real_score(self, i, coarse)

    monkeypatch.setattr(_FlipScorer, "rebuild", rebuild)
    monkeypatch.setattr(_FlipScorer, "score", score)
    candidate_pairs(x, dist, search)
    assert seen == list(dict.fromkeys(reference))


def test_reference_cases_repeat_candidates():
    """The cases above exercise the skip: on binary and on 4-letter sources
    some candidate is evaluated again with no flip accepted in between."""
    repeating = set()
    for case in _REFERENCE_CASES:
        _, reference = greedy_pairs_by_full_parse(*_greedy_case(case))
        if len(set(reference)) < len(reference):
            repeating.add(case[1])
    assert repeating == {2, 4}
