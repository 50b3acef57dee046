import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlz.container import StreamFormatError, TruncatedStreamError
from srlz import cond_lz, mdc
from srlz.cond_lz import cond_encode, rho_cond
from srlz.corpus import STYLES, noisy_copy, random_sequence
from srlz.lz_core import BINARY, Alphabet, Sequence, lz_encode, product_sequence, rho_lz
from srlz.mdc import (
    default_auxiliary,
    egc_decode0,
    egc_decode1,
    egc_decode2,
    egc_encode,
    empirical_mi,
    md_inner_region,
    md_outer_region,
    split_rates,
    zb_decode0,
    zb_decode1,
    zb_decode2,
    zb_encode,
)
from srlz import bounds
from srlz.regions import HalfPlaneRegion, RatePoint, region_contains_region


def bits(text: str) -> Sequence:
    return Sequence.from_symbols(BINARY, list(text))


def triple():
    xhat = bits("0100011011000001")
    xtilde = bits("0110011011000101")
    xcheck = bits("0100011011010001")
    return xhat, xtilde, xcheck


def egc_inner(xhat, xtilde, xcheck):
    """Pipeline 1's inner region from its encoder's bit counts."""
    return md_inner_region(xhat.n, egc_encode(xhat, xtilde, xcheck)[2]["bits"])


def zb_inner(xhat, xtilde, xcheck, u):
    """Pipeline 2's inner region from its encoder's bit counts."""
    return md_inner_region(xhat.n, zb_encode(xhat, xtilde, xcheck, u)[2]["bits"])


class TestSplitRates:
    def test_worked_example(self):
        assert split_rates(0.5, 0.5, 0.4, 0.7, 0.7) == pytest.approx(0.2)

    def test_share_caps_at_refinement(self):
        assert split_rates(0.1, 0.1, 0.25, 2.0, 0.5) == pytest.approx(0.25)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="nonnegative"):
            split_rates(0.5, 0.5, -0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="strictly"):
            split_rates(0.5, 0.5, 0.4, 0.5, 0.7)
        with pytest.raises(ValueError, match="sum constraint"):
            split_rates(0.5, 0.5, 0.4, 0.6, 0.6)

    @given(st.tuples(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2),
                     st.floats(0.001, 3), st.floats(0.001, 3)))
    def test_share_is_always_consistent(self, vals):
        a, b, c, e1, e2 = vals
        r1 = a + e1
        r2 = b + max(e2, c - e1 + 0.001)
        share = split_rates(a, b, c, r1, r2)
        assert 0.0 <= share <= c + 1e-12
        assert a + share <= r1 + 1e-9
        assert b + (c - share) <= r2 + 1e-9


class TestEmpiricalMi:
    def test_plain_formula(self):
        xhat, xtilde, _ = triple()
        mi = empirical_mi(xhat, xtilde)
        from srlz.cond_lz import joint_parse

        expected = rho_lz(xhat) + rho_lz(xtilde) - joint_parse(xhat, xtilde).rho_joint
        assert isinstance(mi, float)
        assert mi == pytest.approx(expected)

    def test_rho_lz_of_the_pair_is_the_joint_parse_rho(self):
        # empirical_mi and md_outer_region take rho_joint from rho_lz of the
        # product sequence: the joint parse's walk over the letters a*B + b
        from srlz.cond_lz import joint_parse

        rng = random.Random(3)
        for _ in range(300):
            sizes = rng.randint(2, 26), rng.randint(2, 26)
            n = rng.randint(0, 300)
            xhat, xtilde = (Sequence(Alphabet.of_size(k), [rng.randrange(k) for _ in range(n)])
                            for k in sizes)
            assert rho_lz(product_sequence((xhat, xtilde))) == \
                joint_parse(xhat, xtilde).rho_joint

    def test_conditional_chain_identity(self):
        xhat, xtilde, _ = triple()
        u = default_auxiliary(xhat)
        mi = empirical_mi(xhat, xtilde, u)
        pair = product_sequence((xhat, xtilde))
        lhs = rho_cond(xhat, u) + rho_cond(xtilde, u)
        rhs = rho_cond(pair, u) + mi
        assert lhs == pytest.approx(rhs)

    def test_self_information_is_complexity(self):
        x = bits("011010011")
        mi = empirical_mi(x, x)
        # joint parse of (x, x) mirrors the plain parse, so mi collapses to rho
        assert mi == pytest.approx(rho_lz(x))

    def test_length_checks(self):
        with pytest.raises(ValueError, match="equal length"):
            empirical_mi(bits("01"), bits("0"))
        with pytest.raises(ValueError, match="auxiliary length"):
            empirical_mi(bits("01"), bits("00"), bits("0"))


class TestOuterRegion:
    def test_floors_match_direct_formulas(self):
        xhat, xtilde, xcheck = triple()
        reg = md_outer_region(xhat, xtilde, xcheck, q=1)
        n = 16
        from srlz.cond_lz import joint_parse

        pair = product_sequence((xhat, xtilde))
        e1 = bounds.eps_n_value(n, 2, "default")
        e12 = bounds.eps_n_value(n, 4, "default")
        a = rho_lz(xhat) - bounds.delta1(1, n, 2, e1)
        b = rho_lz(xtilde) - bounds.delta1(1, n, 2, e1)
        d2, _ = bounds.delta2(1, n, 4, 2, e12)
        c = joint_parse(xhat, xtilde).rho_joint + rho_cond(xcheck, pair) - d2
        assert isinstance(reg, HalfPlaneRegion)
        assert reg.a == pytest.approx(max(a, 0.0))
        assert reg.c == pytest.approx(max(b, 0.0))   # R2 floor
        assert reg.b == pytest.approx(max(c, 0.0))   # sum floor
        assert reg.clamped_a == (a < 0)
        assert reg.clamped_c == (b < 0)
        assert reg.clamped_b == (c < 0)

    def test_contains_needs_all_three_floors(self):
        reg = HalfPlaneRegion(a=0.5, b=1.5, c=0.5)
        assert reg.contains(RatePoint(0.7, 0.8))
        assert not reg.contains(RatePoint(0.4, 2.0))   # r1 floor
        assert not reg.contains(RatePoint(2.0, 0.4))   # r2 floor
        assert not reg.contains(RatePoint(0.6, 0.6))   # sum floor

    def test_input_validation(self):
        x = bits("01")
        with pytest.raises(ValueError, match="n >= 2"):
            md_outer_region(bits("0"), bits("0"), bits("0"), 1)
        with pytest.raises(ValueError, match="equal length"):
            md_outer_region(x, bits("0"), x, 1)


class TestPipelineOne:
    def test_round_trip_across_splits(self):
        xhat, xtilde, xcheck = triple()
        for split in (0.0, 0.3, 0.5, 1.0):
            desc1, desc2, rep = egc_encode(xhat, xtilde, xcheck, split)
            assert egc_decode1(desc1) == xhat
            assert egc_decode2(desc2) == xtilde
            assert egc_decode0(desc1, desc2) == (xhat, xtilde, xcheck)
            b = rep["bits"]
            assert b["center_part1"] + b["center_part2"] == b["center"]
            assert rep["sum_identity"]["lhs_bits"] == rep["sum_identity"]["rhs_bits"]
            assert rep["rates"]["r1"] == pytest.approx(
                (b["stage_hat"] + b["center_part1"]) / 16)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_any_split_share_reassembles(self, split):
        xhat, xtilde, xcheck = triple()
        desc1, desc2, rep = egc_encode(xhat, xtilde, xcheck, split)
        assert egc_decode0(desc1, desc2)[2] == xcheck

    def test_side_decoders_ignore_the_other_description(self):
        xhat, xtilde, xcheck = triple()
        desc1, desc2, _ = egc_encode(xhat, xtilde, xcheck)
        assert egc_decode1(desc1) == xhat  # no desc2 needed at all
        with pytest.raises((StreamFormatError, TruncatedStreamError)):
            egc_decode2(desc2[:20])
        assert egc_decode1(desc1) == xhat

    def test_descriptions_must_agree_on_length(self):
        xhat, xtilde, xcheck = triple()
        desc1, _, _ = egc_encode(xhat, xtilde, xcheck)
        short = bits("0101")
        _, desc2b, _ = egc_encode(short, short, short)
        with pytest.raises(StreamFormatError, match="disagree"):
            egc_decode0(desc1, desc2b)

    def test_bad_split_fraction(self):
        xhat, xtilde, xcheck = triple()
        with pytest.raises(ValueError, match="share fraction"):
            egc_encode(xhat, xtilde, xcheck, 1.5)

    def test_inner_region_matches_stream_bits(self):
        xhat, xtilde, xcheck = triple()
        reg = egc_inner(xhat, xtilde, xcheck)
        bits_hat = lz_encode(xhat).payload_bits
        assert reg.a == pytest.approx(bits_hat / 16)
        assert reg.c == pytest.approx(reg.meta["bits_tilde"] / 16)
        assert reg.b == pytest.approx(
            (reg.meta["bits_hat"] + reg.meta["bits_tilde"]
             + reg.meta["bits_center"]) / 16)

    def test_inner_region_from_the_encoders_bit_counts(self):
        xhat, xtilde, xcheck = triple()
        reg = md_inner_region(16, {
            "stage_hat": lz_encode(xhat).payload_bits,
            "stage_tilde": lz_encode(xtilde).payload_bits,
            "center": cond_encode(xcheck, product_sequence((xhat, xtilde))).payload_bits,
        })
        _, _, rep = egc_encode(xhat, xtilde, xcheck)
        got = md_inner_region(16, rep["bits"])
        assert (got, got.meta) == (reg, reg.meta)
        with pytest.raises(ValueError, match="needs n >= 1"):
            md_inner_region(0, rep["bits"])

    def test_measured_rates_lie_in_inner_region(self):
        xhat, xtilde, xcheck = triple()
        reg = egc_inner(xhat, xtilde, xcheck)
        for split in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, _, rep = egc_encode(xhat, xtilde, xcheck, split)
            assert reg.contains(RatePoint(rep["rates"]["r1"], rep["rates"]["r2"]))
            assert rep["rates"]["sum"] == pytest.approx(reg.b)


class TestPipelineTwo:
    def test_round_trip(self):
        xhat, xtilde, xcheck = triple()
        u = default_auxiliary(xhat)
        for alpha in (0.0, 0.5, 1.0):
            desc1, desc2, rep = zb_encode(xhat, xtilde, xcheck, u, alpha)
            assert zb_decode1(desc1) == (u, xhat)
            assert zb_decode2(desc2) == (u, xtilde)
            assert zb_decode0(desc1, desc2) == (u, xhat, xtilde, xcheck)
            b = rep["bits"]
            assert b["center_part1"] + b["center_part2"] == b["center"]
            assert rep["sum_identity"]["lhs_bits"] == rep["sum_identity"]["rhs_bits"]

    def test_sum_decomposition_matches_direct_calls(self):
        xhat, xtilde, xcheck = triple()
        u = default_auxiliary(xhat)
        _, _, rep = zb_encode(xhat, xtilde, xcheck, u)
        dec = rep["sum_decomposition"]
        pair = product_sequence((xhat, xtilde))
        assert dec["rho_aux_doubled"] == pytest.approx(2 * rho_lz(u))
        assert dec["rho_pair_given_aux"] == pytest.approx(rho_cond(pair, u))
        assert dec["rho_center"] == pytest.approx(
            rho_cond(xcheck, product_sequence((xhat, xtilde, u))))
        assert dec["mi_given_aux"] == pytest.approx(rep["mi_given_aux"])
        assert rep["mi_given_aux"] == pytest.approx(
            empirical_mi(xhat, xtilde, u))

    def test_mismatched_auxiliaries_rejected(self):
        xhat, xtilde, xcheck = triple()
        u1 = default_auxiliary(xhat)
        u2 = bits("1" * 16)
        desc1, _, _ = zb_encode(xhat, xtilde, xcheck, u1)
        _, desc2, _ = zb_encode(xhat, xtilde, xcheck, u2)
        with pytest.raises(StreamFormatError, match="different auxiliary"):
            zb_decode0(desc1, desc2)

    def test_inner_region_matches_stream_bits(self):
        xhat, xtilde, xcheck = triple()
        u = default_auxiliary(xhat)
        reg = zb_inner(xhat, xtilde, xcheck, u)
        m = reg.meta
        assert reg.a == pytest.approx((m["bits_aux"] + m["bits_hat_given_aux"]) / 16)
        assert reg.c == pytest.approx((m["bits_aux"] + m["bits_tilde_given_aux"]) / 16)
        assert reg.b == pytest.approx(reg.a + reg.c + m["bits_center"] / 16)

    def test_inner_region_from_the_encoders_bit_counts(self):
        xhat, xtilde, xcheck = triple()
        u = default_auxiliary(xhat)
        reg = md_inner_region(16, {
            "aux": lz_encode(u).payload_bits,
            "hat_given_aux": cond_encode(xhat, u).payload_bits,
            "tilde_given_aux": cond_encode(xtilde, u).payload_bits,
            "center": cond_encode(xcheck, product_sequence((xhat, xtilde, u))).payload_bits,
        })
        _, _, rep = zb_encode(xhat, xtilde, xcheck, u)
        got = md_inner_region(16, rep["bits"])
        assert (got, got.meta) == (reg, reg.meta)

    def test_measured_rates_lie_in_inner_region(self):
        xhat, xtilde, xcheck = triple()
        u = default_auxiliary(xhat)
        reg = zb_inner(xhat, xtilde, xcheck, u)
        for alpha in (0.0, 0.5, 1.0):
            _, _, rep = zb_encode(xhat, xtilde, xcheck, u, alpha)
            assert reg.contains(RatePoint(rep["rates"]["r1"], rep["rates"]["r2"]))
            assert rep["rates"]["sum"] == pytest.approx(reg.b)


def long_triple(size=26, n=3000):
    rng = random.Random(size)
    x = Sequence(Alphabet.of_size(size), [rng.randrange(size) for _ in range(n)])
    xhat, xtilde = (Sequence(x.alphabet, [0 if rng.random() < 0.25 else v for v in x.data])
                    for _ in range(2))
    return xhat, xtilde, x


class TestOnePassPerStream:
    """The encoders take the plain and conditional rates of their report from
    the streams they code, and the decoders decode and hash a shared stream once."""

    def test_egc_encode_walks_only_the_pair(self, walks):
        egc_encode(*long_triple())
        assert walks == {"_lz_walk": 3, "_joint_walk": 0}

    def test_zb_encode_walks_u_and_the_pair_given_u(self, walks):
        xhat, xtilde, xcheck = long_triple()
        zb_encode(xhat, xtilde, xcheck, default_auxiliary(xcheck))
        assert walks == {"_lz_walk": 2, "_joint_walk": 1}

    @pytest.mark.parametrize("size", [2, 26])
    def test_report_floats_equal_the_direct_walks(self, size):
        xhat, xtilde, xcheck = long_triple(size)
        u = default_auxiliary(xcheck)
        pair = product_sequence((xhat, xtilde))
        rep = egc_encode(xhat, xtilde, xcheck)[2]
        assert rep["mi"] == empirical_mi(xhat, xtilde)
        rep = zb_encode(xhat, xtilde, xcheck, u)[2]
        dec = rep["sum_decomposition"]
        assert rep["mi_given_aux"] == dec["mi_given_aux"] == empirical_mi(xhat, xtilde, u)
        assert dec["rho_aux_doubled"] == 2.0 * rho_lz(u)
        assert dec["rho_pair_given_aux"] == rho_cond(pair, u)
        assert dec["rho_center"] == rho_cond(xcheck, product_sequence((xhat, xtilde, u)))

    def test_zb_decode0_decodes_and_hashes_u_once(self, monkeypatch):
        xhat, xtilde, xcheck = long_triple()
        u = default_auxiliary(xcheck)
        desc1, desc2, _ = zb_encode(xhat, xtilde, xcheck, u)
        real_decode, real_checksum = mdc.lz_decode, cond_lz.side_info_checksum
        decoded, hashed = [], []

        def decode(raw):
            decoded.append(real_decode(raw))
            return decoded[-1]

        def checksum(seq):
            hashed.append(seq)
            return real_checksum(seq)

        monkeypatch.setattr(mdc, "lz_decode", decode)
        for mod in (mdc, cond_lz):
            monkeypatch.setattr(mod, "side_info_checksum", checksum)
        assert zb_decode0(desc1, desc2) == (u, xhat, xtilde, xcheck)
        assert decoded == [u]
        assert hashed.count(u) == 1 and len(hashed) == 2  # u, then the triple


class TestSandwichOnMeasuredRates:
    def test_outer_floors_hold_for_both_pipelines(self):
        import random

        rng = random.Random(20240817)
        for _ in range(3):
            n = 512
            base = [rng.randrange(2) for _ in range(n)]
            flip = lambda d: [v ^ (rng.random() < 0.05) for v in d]
            xhat = Sequence(BINARY, flip(base))
            xtilde = Sequence(BINARY, flip(base))
            xcheck = Sequence(BINARY, base)
            outer = md_outer_region(xhat, xtilde, xcheck, q=1)
            _, _, rep1 = egc_encode(xhat, xtilde, xcheck)
            assert outer.contains(RatePoint(rep1["rates"]["r1"], rep1["rates"]["r2"]))
            u = default_auxiliary(xhat)
            _, _, rep2 = zb_encode(xhat, xtilde, xcheck, u)
            assert outer.contains(RatePoint(rep2["rates"]["r1"], rep2["rates"]["r2"]))


def sandwich_triples():
    """triple() plus 20 seeded corpus triples: n log-uniform in [16, 1000],
    alphabets of 2 and 4 letters, all four textures."""
    rng = random.Random("md-sandwich")
    out = [("triple", triple())]
    for i in range(20):
        size = (2, 4)[i % 2]
        n = int(16 * (1000 / 16) ** rng.random())
        x = random_sequence(rng, size, n, STYLES[i % 4])
        out.append((f"corpus-{i}-n{n}-a{size}",
                     (noisy_copy(rng, x, size, flip=0.1), noisy_copy(rng, x, size, flip=0.1),
                      noisy_copy(rng, x, size, flip=0.05))))
    return out


SANDWICH = sandwich_triples()


@pytest.mark.parametrize("seqs", [s for _, s in SANDWICH], ids=[name for name, _ in SANDWICH])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("eps_mode", ["default", "zero"])
def test_inner_regions_lie_in_the_outer_region(seqs, q, eps_mode):
    """The shared containment routine places both measured achievable regions
    inside the converse region, floor by floor.  At these lengths the default
    slack clamps most outer floors to zero; at q = 1 without slack none is
    zero, so the comparison has something to compare."""
    xhat, xtilde, xcheck = seqs
    outer = md_outer_region(xhat, xtilde, xcheck, q, eps_mode)
    assert region_contains_region(outer, egc_inner(xhat, xtilde, xcheck))
    assert region_contains_region(
        outer, zb_inner(xhat, xtilde, xcheck, default_auxiliary(xhat)))


class TestDefaultAuxiliary:
    def test_binary_identity(self):
        x = bits("0110")
        u = default_auxiliary(x, 2)
        assert u.data == x.data
        assert u.alphabet.symbols == ("0", "1")

    def test_quaternary_halving(self):
        a4 = Alphabet(("a", "b", "c", "d"))
        x = Sequence(a4, (0, 1, 2, 3))
        u = default_auxiliary(x, 2)
        assert u.data == (0, 0, 1, 1)

    def test_levels_capped_at_alphabet_size(self):
        x = bits("0110")
        u = default_auxiliary(x, 5)
        assert u.alphabet.size == 2

    def test_levels_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            default_auxiliary(bits("01"), 0)
