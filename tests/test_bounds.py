import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import calibrate_eps_hat_k, identity_encoder
from srlz import bounds, cli, corpus, fsm, mdc, regions, verify
from srlz.lz_core import BINARY


class TestEpsNValue:
    def test_default_formula(self):
        # min(0.999, (log2(max(1, log2(beta*n))) + 4) / log2(n))
        n, beta = 1024, 2
        expect = (math.log2(math.log2(2 * 1024)) + 4) / 10
        assert bounds.eps_n_value(n, beta, "default") == pytest.approx(expect)

    def test_default_capped_below_one(self):
        for n in range(2, 64):
            for beta in (1, 2, 4, 26):
                v = bounds.eps_n_value(n, beta, "default")
                assert 0.0 <= v <= 0.999

    def test_zero_and_custom_and_float(self):
        assert bounds.eps_n_value(16, 2, "zero") == 0.0
        assert bounds.eps_n_value(16, 2, "custom:0.25") == 0.25
        # a mode is a string; a bare float is refused, not read as eps_n
        with pytest.raises(ValueError, match="unknown eps_n mode"):
            bounds.eps_n_value(16, 2, 0.5)

    def test_rejections(self):
        with pytest.raises(ValueError):
            bounds.eps_n_value(1, 2)
        with pytest.raises(ValueError):
            bounds.eps_n_value(16, 0)
        with pytest.raises(ValueError):
            bounds.eps_n_value(16, 2, "nope")
        with pytest.raises(ValueError):
            bounds.eps_n_value(16, 2, "custom:1.5")
        with pytest.raises(ValueError):
            bounds.eps_n_value(16, 2, -0.1)


class TestEpsSlack:
    def test_formula_cross_check(self):
        # log2(e)/n + log2(b)*log2(2b)/((1-eps)*log2 n) + log2(2b(n+1))/n
        n, beta, eps = 256, 4, 0.25
        expect = (math.log2(math.e) / n
                  + 2 * math.log2(8) / (0.75 * 8)
                  + math.log2(8 * 257) / n)
        assert bounds.eps_slack(n, beta, eps) == pytest.approx(expect, rel=1e-12)

    def test_unary_alphabet_drops_middle_term(self):
        n = 64
        expect = math.log2(math.e) / n + math.log2(2 * 65) / n
        assert bounds.eps_slack(n, 1, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_decreases_in_n(self):
        vals = [bounds.eps_slack(n, 2) for n in (2 ** k for k in range(4, 16))]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEpsHat:
    def test_formula(self):
        n = 4096
        assert bounds.eps_hat(n) == pytest.approx(
            bounds.EPS_HAT_K * math.log2(math.log2(n)) / math.log2(n))

    def test_small_n_clamped(self):
        assert bounds.eps_hat(2) == 0.0  # log2(log2 2) = 0 after the clamp


def test_calibration_reproduces_frozen_constant():
    # the frozen K is exactly what the fixed-seed corpus demands
    assert calibrate_eps_hat_k() == bounds.EPS_HAT_K


class TestDeltas:
    def test_delta1_formula(self):
        q, n, beta, eps = 1, 1024, 2, 0.0
        expect = math.log2(4) / math.log2(n) + math.log2(4) / n
        assert bounds.delta1(q, n, beta, eps) == pytest.approx(expect, rel=1e-12)
        assert bounds.delta1(q, n, beta, eps) == pytest.approx(0.201953125)

    def test_delta_n_formula(self):
        l, n, beta, eps = 2, 64, 2, 0.5
        log_pow = 2.0 + 2 * l * math.log2(beta)
        expect = (log_pow * 1.0 / (0.5 * 6)
                  + (beta ** (2 * l)) * log_pow / n + 1.0 / l)
        assert bounds.delta_n(l, n, beta, eps) == pytest.approx(expect, rel=1e-12)

    def test_delta_n_prime_substitutes_joint_power(self):
        l, n, beta, gamma, eps = 2, 64, 2, 3, 0.25
        log_pow = 2.0 + 2 * l * math.log2(beta * gamma)
        expect = (log_pow * math.log2(beta) / (0.75 * 6)
                  + ((beta * gamma) ** (2 * l)) * log_pow / n + 1.0 / l)
        assert bounds.delta_n_prime(l, n, beta, gamma, eps) == pytest.approx(
            expect, rel=1e-12)

    def test_delta_n_prime_keeps_lone_log_beta(self):
        # the first-term numerator factor stays log2(beta), not log2(beta*gamma)
        a = bounds.delta_n_prime(1, 256, 2, 2, 0.0)
        b = bounds.delta_n(1, 256, 4, 0.0)
        # same power base (4) but different lone factor (1 vs 2 bits)
        assert a < b

    def test_huge_block_returns_inf(self):
        assert math.isinf(bounds.delta_n(2048, 4096, 2, 0.0))

    def test_delta2_is_min_over_divisors(self):
        q, n, beta, gamma, eps = 1, 512, 2, 2, 0.25
        val, arg = bounds.delta2(q, n, beta, gamma, eps)
        best = math.inf
        best_l = None
        for l in bounds.divisors(n):
            d = bounds.delta_n(l, n, beta, eps)
            dp = bounds.delta_n_prime(l, n, beta, gamma, eps)
            if math.isinf(d) or math.isinf(dp):
                continue
            third = math.log2(bounds.kraft_rhs(q, l, beta, gamma)) / l
            if d + dp + third < best:
                best = d + dp + third
                best_l = l
        assert val == pytest.approx(best, rel=1e-12)
        assert arg == best_l


class TestDivisors:
    def test_examples(self):
        assert bounds.divisors(1) == [1]
        assert bounds.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert bounds.divisors(1024) == [2 ** k for k in range(11)]

    @given(st.integers(min_value=1, max_value=3000))
    def test_definition(self, n):
        ds = bounds.divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


class TestKraftRhs:
    def test_identity_case(self):
        # q=1, l=1, binary pair: 1 * (1 + log2(1 + 4)) = 1 + log2(5)
        assert bounds.kraft_rhs(1, 1, 2, 2) == pytest.approx(
            1 + math.log2(5), rel=1e-12)

    def test_huge_exponent_stays_finite(self):
        v = bounds.kraft_rhs(1, 4096, 2, 2)
        assert math.isfinite(v)
        assert v == pytest.approx(1 + 2 * 4096, rel=1e-6)

    def test_rejections(self):
        with pytest.raises(ValueError):
            bounds.kraft_rhs(0, 1, 2, 2)


class TestZl78Floor:
    def test_zero_phrases(self):
        assert bounds.zl78_floor(0, 8, 1) == pytest.approx(0.25)

    def test_formula(self):
        c, n, q = 181, 1024, 1
        expect = (c + 1) / n * math.log2((c + 1) / 4) + 2 / n
        assert bounds.zl78_floor(c, n, q) == pytest.approx(expect, rel=1e-12)

    def test_small_c_can_go_negative(self):
        # (c+q^2)/(4q^2) < 1 makes the log negative; the floor is vacuous there
        assert bounds.zl78_floor(1, 16, 1) < 0.5


def test_phrase_count_bound_formula():
    assert bounds.phrase_count_bound(1024, 2, 0.0) == pytest.approx(102.4)
    assert bounds.phrase_count_bound(1024, 2, 0.5) == pytest.approx(204.8)


@given(st.integers(min_value=2, max_value=4096),
       st.sampled_from([2, 4, 26]))
def test_default_slacks_positive(n, beta):
    eps_n = bounds.eps_n_value(n, beta)
    assert bounds.eps_slack(n, beta, eps_n) > 0
    assert bounds.delta1(1, n, beta, eps_n) > 0
    assert bounds.delta_n(1, n, beta, eps_n) > 0


class TestConverseTerms:
    def test_terms_share_one_eps_n_for_the_primary_alphabet(self):
        eps = bounds.eps_n_value(240, 4, "default")
        d2, d2_l = bounds.delta2(2, 240, 4, 2, eps)
        assert bounds.converse_terms(2, 240, 4, 2, "default") == (
            eps, bounds.delta1(2, 240, 4, eps), d2, d2_l)

    def test_floors(self):
        rho_lz, rho_c, d1, d2 = 1.25, 0.5, 0.125, 0.375
        assert bounds.converse_floors(rho_lz, rho_c, 181, 1024, 2, d1, d2) == (
            rho_lz - d1, rho_lz + rho_c - d2, bounds.zl78_floor(181, 1024, 2))


# larger than every penalty below, so that no lowered floor is clamped at zero
SHIFT = 4096.0


def test_every_consumer_takes_its_penalties_from_converse_terms(monkeypatch, tmp_path, capsys):
    """Lower delta1 and delta2 at their one source: every floor built on them
    moves by exactly the amount, and the converse suite starts failing.  The
    sum floors sit at zero before any lowering, so the moves are measured
    from one lowering to the next."""
    primary, secondary = corpus.random_pair(random.Random("converse-terms"), 2, 2, 256)
    x, u = str(tmp_path / "x.txt"), str(tmp_path / "u.txt")
    cli.save_sequence(primary, x)
    cli.save_sequence(secondary, u)
    encoder = identity_encoder(BINARY, BINARY)
    real = bounds.converse_terms

    def lowered(by):
        def terms(*args, **kw):
            eps_n, d1, d2, d2_l = real(*args, **kw)
            return eps_n, d1 - by, d2 - by, d2_l

        monkeypatch.setattr(bounds, "converse_terms", terms)
        pair = regions.region_for_pair(primary, secondary, 2)
        block = regions.blockwise_region(primary, secondary, 2, 64, "outer")
        checks = fsm.converse_check(encoder, primary, secondary)["checks"]
        md = mdc.md_outer_region(primary, secondary, primary, 2)
        assert cli.main(["analyze", x, "--side-info", u, "--q", "2"]) == 0
        report = json.loads(capsys.readouterr().out)["results"]["bounds"]
        return {
            "pair.a": pair.a, "pair.b": pair.b, "blockwise.a": block.a,
            "blockwise.b": block.b, "converse_check.i": checks["i"]["rhs"],
            "converse_check.ii": checks["ii"]["rhs"], "md.a": md.a, "md.b": md.b,
            "md.c": md.c, "analyze.-delta1": -report["delta1"],
            "analyze.-delta2": -report["delta2"],
        }, checks["iii"]["rhs"]

    suite_flags = {"n_small": 4, "random_pairs": 2, "n_large": 64, "spot_checks": 2}
    assert verify.suite_converse(**suite_flags)["holds"]
    once, floor3 = lowered(SHIFT)
    twice, floor3_twice = lowered(2 * SHIFT)
    assert {name: twice[name] - once[name] for name in once} == pytest.approx(
        dict.fromkeys(once, SHIFT), abs=1e-9)
    assert floor3_twice == floor3  # (iii) takes no penalty
    assert verify.suite_converse(**suite_flags)["violations"]
