import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from srlz.bounds import delta_n, delta_n_prime, eps_n_value
from srlz.cond_lz import _joint_walk, joint_parse
from srlz import empirics
from srlz.empirics import _prefix_walk, block_empirics
from srlz.lz_core import BINARY, Alphabet, Sequence, _lz_walk, rho_lz
from srlz.verify import suite_cond_entropy_ineq, suite_entropy_ineq


def bits(text: str) -> Sequence:
    return Sequence.from_symbols(BINARY, list(text))


divisible_pair = st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda l: st.integers(min_value=1, max_value=16).flatmap(
        lambda k: st.tuples(
            st.just(l),
            st.text(alphabet="01", min_size=l * k, max_size=l * k),
            st.text(alphabet="xyz", min_size=l * k, max_size=l * k))))


class TestBlockEmpirics:
    @given(divisible_pair)
    def test_matches_counter_oracle(self, case):
        l, ptext, stext = case
        primary = bits(ptext)
        emp = block_empirics(primary, None, l)
        blocks = oracles.split_blocks(primary.data, l)
        assert emp.count == len(blocks)
        assert emp.h_joint == pytest.approx(oracles.block_entropy_bits(blocks), abs=1e-12)
        assert emp.h_primary == emp.h_joint
        assert emp.h_cond == 0.0

    @given(divisible_pair)
    def test_conditional_entropies_match_oracle(self, case):
        l, ptext, stext = case
        primary = bits(ptext)
        secondary = Sequence.from_text(stext, Alphabet(("x", "y", "z")))
        emp = block_empirics(primary, secondary, l)
        pblocks = oracles.split_blocks(primary.data, l)
        sblocks = oracles.split_blocks(secondary.data, l)
        joint = list(zip(pblocks, sblocks))
        assert emp.h_joint == pytest.approx(oracles.block_entropy_bits(joint), abs=1e-12)
        assert emp.h_primary == pytest.approx(oracles.block_entropy_bits(pblocks), abs=1e-12)
        assert emp.h_cond == pytest.approx(emp.h_joint - emp.h_primary, abs=1e-12)
        # conditioning cannot raise entropy, and entropies sit in [0, log2(count)]
        assert -1e-12 <= emp.h_cond <= emp.h_joint + 1e-12
        assert emp.h_joint <= math.log2(emp.count) + 1e-12 if emp.count else True

    def test_known_distribution(self):
        emp = block_empirics(bits("00011011"), None, 2)
        assert emp.count == 4
        assert emp.h_joint == pytest.approx(2.0)

    def test_block_len_must_divide(self):
        with pytest.raises(ValueError, match="does not divide"):
            block_empirics(bits("0101"), None, 3)

    def test_block_len_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            block_empirics(bits("0101"), None, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            block_empirics(bits("0101"), bits("010"), 1)


class TestChecks:
    def test_plain_check_fields_are_consistent(self):
        seq = bits("0100011011000001")
        rep = oracles.check_entropy_inequality(seq, 4)
        assert rep["rho_lz"] == pytest.approx(rho_lz(seq))
        eps = eps_n_value(seq.n, 2, "default")
        assert rep["eps_n"] == pytest.approx(eps)
        assert rep["delta"] == pytest.approx(delta_n(4, seq.n, 2, eps))
        assert rep["rhs"] == pytest.approx(rep["rho_lz"] - rep["delta"])
        emp = block_empirics(seq, None, 4)
        assert rep["lhs"] == pytest.approx(emp.h_joint / 4)
        assert rep["holds"]

    def test_cond_check_on_worked_pair(self):
        primary = bits("010101")
        secondary = bits("010001")
        for l in (1, 2, 3):
            rep = oracles.check_cond_entropy_inequality(secondary, primary, l)
            assert rep["rho_cond"] == pytest.approx(1 / 3)
            assert rep["holds"]
            eps = eps_n_value(6, 2, "default")
            assert rep["delta_prime"] == pytest.approx(delta_n_prime(l, 6, 2, 2, eps))

    def test_needs_two_symbols(self):
        with pytest.raises(ValueError, match="n >= 2"):
            oracles.check_entropy_inequality(bits("0"), 1)
        with pytest.raises(ValueError, match="n >= 2"):
            oracles.check_cond_entropy_inequality(bits("0"), bits("0"), 1)

    @given(st.text(alphabet="01", min_size=2, max_size=64))
    def test_plain_inequality_holds_under_default_slack(self, text):
        seq = bits(text)
        for l in [d for d in (1, 2, 4) if seq.n % d == 0]:
            assert oracles.check_entropy_inequality(seq, l)["holds"]

    @given(st.integers(min_value=1, max_value=31).flatmap(
        lambda n: st.tuples(st.text(alphabet="01", min_size=2 * n, max_size=2 * n),
                            st.text(alphabet="01", min_size=2 * n, max_size=2 * n))))
    def test_cond_inequality_holds_under_default_slack(self, pair):
        ptext, stext = pair
        rep = oracles.check_cond_entropy_inequality(bits(stext), bits(ptext), 2)
        assert rep["holds"]


class TestScans:
    """The exhaustive scans, run through the verify suites that own them."""

    def test_small_scan_agrees_with_per_sequence_checks(self):
        rep = suite_entropy_ineq(4, block_lens=(1, 2))
        assert rep["sequences"] == 16
        assert rep["checks"] == 32
        assert rep["holds"]
        # spot-check the scan against the single-sequence path
        for v in (0b0000, 0b0110, 0b1011):
            text = format(v, "04b")
            for l in (1, 2):
                assert oracles.check_entropy_inequality(bits(text), l)["holds"]

    def test_small_cond_scan(self):
        rep = suite_cond_entropy_ineq(2, block_lens=(1, 2))
        assert rep["pairs"] == 16
        assert rep["checks"] == 32
        assert rep["holds"]
        assert (rep["beta"], rep["gamma"]) == (2, 2)

    def test_scan_rejects_bad_block_len(self):
        with pytest.raises(ValueError, match="does not divide"):
            suite_entropy_ineq(4, block_lens=(3,))
        with pytest.raises(ValueError, match="block length must be positive"):
            suite_entropy_ineq(4, block_lens=(0,))
        with pytest.raises(ValueError, match="block length must be positive"):
            suite_cond_entropy_ineq(2, block_lens=(0,))

    def test_scan_budget_guard(self, monkeypatch):
        # 2^24 sequences and 4^11 pairs exceed the 2^20 inputs a scan may
        # walk: both suites refuse before the walk starts
        def no_walk(*args):
            raise AssertionError("the scan walked past its budget")

        monkeypatch.setattr(empirics, "_prefix_walk", no_walk)
        with pytest.raises(ValueError, match="16777216 sequences exceed the scan budget"):
            suite_entropy_ineq(n=24, block_lens=(1,))
        with pytest.raises(ValueError, match="4194304 pairs exceed the scan budget"):
            suite_cond_entropy_ineq(n=11, block_lens=(1,))


class TestPrefixWalk:
    """Brute-force oracle: every leaf of the prefix-tree walk carries what the
    per-input walks and left-to-right block counts give on that input."""

    @pytest.mark.parametrize("gamma", [1, 2])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_leaves_match_per_input_walks(self, n, gamma):
        divisors = tuple(l for l in range(1, n + 1) if n % l == 0)
        # every divisor, none (suite_converse's walks) and two proper subsets
        for lens in (divisors, (), divisors[1:], divisors[::2]):
            self.check_leaves(n, gamma, lens)

    @pytest.mark.parametrize("gamma", [2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_leaves_of_one_primary_come_in_runs_of_gamma(self, n, gamma):
        # what the conditional leaves of _scan and suite_converse keep from
        # one leaf to the next: a run of equal vh shares c_l and primary dicts
        divisors = tuple(l for l in range(1, n + 1) if n % l == 0)
        for lens in (divisors, ()):
            runs = []

            def leaf(vh, vt, phrases, c_l, joint, primary):
                shared = (list(c_l), [list(d.items()) for d in primary])
                if runs and runs[-1][0] == vh:
                    assert shared == runs[-1][1]
                    runs[-1][2] += 1
                else:
                    runs.append([vh, shared, 1])

            _prefix_walk(n, gamma, lens, leaf)
            assert [size for _, _, size in runs] == [gamma] * (2 ** n * gamma ** (n - 1))

    @staticmethod
    def check_leaves(n, gamma, lens):
        AB = 2 * gamma
        seen = []

        def leaf(vh, vt, phrases, c_l, joint, primary):
            pd = [(vh >> s) & 1 for s in range(n - 1, -1, -1)]
            sd = [vt // gamma ** s % gamma for s in range(n - 1, -1, -1)]
            sym = [a * gamma + b for a, b in zip(pd, sd)]
            keys, last = _lz_walk(sym, AB)
            assert phrases == len(keys) + (last != 0)
            assert c_l == _joint_walk(pd, sd, 2, gamma)[2]
            for i, l in enumerate(lens):
                want_j, want_p = {}, {}
                for t in range(0, n, l):
                    kj = sum(x * AB ** (l - 1 - u) for u, x in enumerate(sym[t:t + l]))
                    kp = sum(x << (l - 1 - u) for u, x in enumerate(pd[t:t + l]))
                    want_j[kj] = want_j.get(kj, 0) + 1
                    want_p[kp] = want_p.get(kp, 0) + 1
                assert list(joint[i].items()) == list(want_j.items())
                assert list(primary[i].items()) == list(want_p.items())
            seen.append((vh, vt, sum(x * AB ** (n - 1 - u) for u, x in enumerate(sym))))

        state = _prefix_walk(n, gamma, lens, leaf)
        assert len(seen) == len(set(seen)) == (2 * gamma) ** n
        assert {(vh, vt) for vh, vt, _ in seen} == {
            (vh, vt) for vh in range(2 ** n) for vt in range(gamma ** n)}
        # leaves in joint-prefix order
        assert [jv for _, _, jv in seen] == list(range(AB ** n))
        trie, ptrie, c_l, joint, primary = state
        assert not trie and not ptrie and not c_l
        assert all(not d for d in joint + primary)
