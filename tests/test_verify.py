import hashlib
import json
import random

import pytest

import oracles
from srlz import bounds, cli, empirics, fsm, mdc, regions, verify
from srlz.lz_core import parse
from srlz.verify import (
    SUITES,
    _counting_sequence,
    suite_cond_entropy_ineq,
    suite_converse,
    suite_entropy_ineq,
    suite_frontier,
    suite_kraft,
    suite_sandwich,
    suite_split_lemma,
)


class TestCountingSequence:
    def test_prefix_values(self):
        assert list(_counting_sequence(6).data) == [0, 1, 0, 0, 0, 1]
        assert list(_counting_sequence(10).data) == [0, 1, 0, 0, 0, 1, 1, 0, 1, 1]

    def test_parse_recovers_enumeration(self):
        # the first 10 symbols split exactly into 0,1,00,01,10,11
        pr = parse(_counting_sequence(10))
        assert pr.c == 6
        assert not pr.is_last_incomplete

    def test_frozen_large_instance(self):
        pr = parse(_counting_sequence(1024))
        assert pr.c == 181
        assert pr.rho_lz == pytest.approx(1.3256563530879495, abs=1e-12)


class TestSmallSuiteRuns:
    def test_entropy_ineq(self):
        rep = suite_entropy_ineq(n=8, block_lens=(1, 2, 4))
        assert rep["holds"]
        assert rep["sequences"] == 256
        assert rep["checks"] == 768

    def test_cond_entropy_ineq(self):
        rep = suite_cond_entropy_ineq(n=4, block_lens=(1, 2))
        assert rep["holds"]
        assert rep["pairs"] == 256
        assert rep["checks"] == 512

    def test_kraft(self):
        rep = suite_kraft(max_out_len=1, block_len_max=2, k_max=6)
        assert rep["holds"]
        assert rep["family_size"] == rep["f1_tables"] * rep["f2_tables"]
        assert rep["checks"] == 2 * rep["family_size"]
        assert 0.0 < rep["max_lhs_over_rhs"] <= 1.0

    @pytest.mark.parametrize("kwargs, digest", [
        ({}, "c2b2968744c7bf965e3f1cf183ecfc0ce6f61954522f3c5d7bc0daf7db283e6f"),
        ({"block_len_max": 2},
         "a5073efa79d1f28cb868f65d75024c41800b7edb0c797d8b2827bf2a73bb54ea"),
    ])
    def test_kraft_report_golden(self, kwargs, digest):
        # SHA-256 of the reports made by one kraft_check per encoder
        rep = suite_kraft(**kwargs)
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize("kwargs, calls", [({"block_len_max": 2}, 128), ({}, 192)])
    def test_kraft_checks_each_distinct_table_once(self, monkeypatch, kwargs, calls):
        seen = []
        real = fsm.kraft_check

        def counting(*args, **kw):
            seen.append(args[1])
            return real(*args, **kw)

        monkeypatch.setattr(fsm, "kraft_check", counting)
        rep = suite_kraft(**kwargs)
        assert len(seen) == calls
        assert rep["checks"] == rep["family_size"] * len(rep["block_lens"])

    def test_kraft_violations_list_encoders_in_family_order(self, monkeypatch):
        real = fsm.kraft_check

        def failing(*args, **kw):
            return {**real(*args, **kw), "holds": False}

        monkeypatch.setattr(fsm, "kraft_check", failing)
        rep = suite_kraft(max_out_len=1, block_len_max=2, k_max=6)
        family = rep["family_size"]
        assert family == 8
        assert [(v["encoder"], v["block_len"]) for v in rep["violations"]] == [
            (i, l) for i in range(family) for l in (1, 2)]

    @pytest.mark.parametrize("max_out_len", [0, 1, 2])
    @pytest.mark.parametrize("block_len_max", [0, 1, 2, 3])
    def test_kraft_matches_the_per_encoder_loop(self, max_out_len, block_len_max):
        kwargs = {"max_out_len": max_out_len, "block_len_max": block_len_max, "k_max": 3}
        assert (json.dumps(suite_kraft(**kwargs), sort_keys=True)
                == json.dumps(oracles.kraft_suite_reference(**kwargs), sort_keys=True))

    def test_kraft_lists_only_the_encoders_of_a_failing_profile(self, monkeypatch):
        # one (stage-1, stage-2) length profile pair fails; encoders of every
        # other profile pair must stay off the violation list
        real = fsm.kraft_check
        bad = ((1, 2), (1, 1, 2, 2))

        def failing(enc, l, **kw):
            rep = real(enc, l, **kw)
            lens = (tuple(len(enc.f1[0, a]) for a in (0, 1)),
                    tuple(len(enc.f2[0, a, b]) for a in (0, 1) for b in (0, 1)))
            return {**rep, "holds": rep["holds"] and lens != bad}

        monkeypatch.setattr(fsm, "kraft_check", failing)
        kwargs = {"max_out_len": 2, "block_len_max": 2, "k_max": 3}
        rep = suite_kraft(**kwargs)
        assert (json.dumps(rep, sort_keys=True)
                == json.dumps(oracles.kraft_suite_reference(**kwargs), sort_keys=True))
        f1s, f2s = fsm.lossless_onestate_binary_tables(2, 3)
        want = [(i1 * len(f2s) + i2, l) for i1, c in enumerate(f1s) for i2, t in enumerate(f2s)
                for l in (1, 2)
                if (tuple(map(len, c)), tuple(len(o) for row in t for o in row)) == bad]
        assert 0 < len(want) < rep["checks"]
        assert [(v["encoder"], v["block_len"]) for v in rep["violations"]] == want

    def test_split_lemma(self):
        rep = suite_split_lemma(budget=2000)
        assert rep["holds"]
        assert rep["checks"] == 2000
        assert rep["clamped_cases"] > 0

    def test_frontier(self):
        rep = suite_frontier(unions=10, max_members=5)
        assert rep["holds"]
        assert rep["corners"] > 0
        assert rep["corner_mismatches"] == []

    def test_frontier_idempotence_at_seed_7(self):
        # seed 7 draws corners such as (0.22, 0.25) whose sum floor rounds
        rep = suite_frontier(seed=7)
        assert rep["holds"]
        assert rep["idempotence_failures"] == []

    def test_frontier_holds_at_every_seed_to_59(self):
        # bench/wl_verify.py still excuses this suite as failing on about one
        # seed in thirty (the staircase of a frontier's own corners differing
        # in the last bit, before region_from_corner kept the exact corner)
        failing = [seed for seed in range(60) if not suite_frontier(seed=seed)["holds"]]
        assert failing == []

    def test_frontier_lattice_guard(self):
        with pytest.raises(ValueError, match="coarser"):
            suite_frontier(resolution=0.01, lattice=0.01)

    def test_sandwich(self):
        rep = suite_sandwich(pairs=3, n=16)
        assert rep["holds"]
        assert rep["block_lens"] == [2, 4, 8, 16]
        assert rep["containment_checks"] == 12
        assert rep["measured_rate_violations"] == []

    def test_sandwich_walks_each_block_once(self, monkeypatch):
        # each (pair, k) builds its inner and outer region from one plain and
        # one joint walk per block, and the k = n inner region the measured
        # rates are checked against is the last one the containment loop builds
        walked = {"_lz_walk": [], "_joint_walk": []}
        for name, seen in walked.items():
            def counting(data, *args, real=getattr(regions, name), seen=seen):
                seen.append(len(data))
                return real(data, *args)

            monkeypatch.setattr(regions, name, counting)
        suite_sandwich(pairs=2, n=16)
        # block lengths 2, 4, 8 and 16: 8 + 4 + 2 + 1 blocks per pair
        want = sorted(([2] * 8 + [4] * 4 + [8] * 2 + [16]) * 2)
        assert sorted(walked["_lz_walk"]) == sorted(walked["_joint_walk"]) == want

    def test_sandwich_needs_two_symbols(self):
        with pytest.raises(ValueError, match="needs n >= 2"):
            suite_sandwich(pairs=1, n=1)

    def test_converse(self):
        rep = suite_converse(n_small=4, random_pairs=5, n_large=64,
                             spot_checks=4, spot_k_max=4)
        assert rep["holds"]
        assert rep["exhaustive"]["pairs"] == 256
        assert rep["exhaustive"]["checks"]["ii"] == 256
        assert rep["adversarial"]["violations"] == []
        assert rep["family_size"] == 16744

    def test_converse_spot_checks_without_random_pairs(self):
        # with no large case to draw, every spot check takes a small one
        rep = suite_converse(random_pairs=0, spot_checks=4, n_small=4, n_large=16)
        assert rep["holds"]
        assert rep["spot_checks"]["count"] == 4


class TestLeafSums:
    """The gamma leaves below one primary letter share its c_l and primary
    block dicts, so each c*log2(c) sum over them is made once per run."""

    @pytest.fixture
    def sums(self, monkeypatch):
        calls = []

        def counting(module):
            real = module.xlogx_sum
            monkeypatch.setattr(module, "xlogx_sum",
                                lambda *args: calls.append(module) or real(*args))
            return calls

        return counting

    def test_converse_sums_each_c_l_once(self, sums):
        calls = sums(verify)
        rep = suite_converse(n_small=8, random_pairs=0, n_large=64, spot_checks=0)
        assert rep["exhaustive"]["pairs"] == 65536
        assert len(calls) == 32768

    def test_cond_scan_sums_c_l_and_primary_dicts_once(self, sums):
        calls = sums(empirics)
        rep = suite_cond_entropy_ineq(n=7, block_lens=(1, 7))
        assert rep["pairs"] == 16384
        # per leaf: 2 joint sums; per run of 2 leaves: rho_cond and 2 primary sums
        assert len(calls) == 57344


class TestEncoderObjects:
    """The suites iterate stage tables and build an encoder only to run it."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        real = fsm.FsmEncoder.__init__

        def counting(self, *args, **kw):
            count[0] += 1
            real(self, *args, **kw)

        monkeypatch.setattr(fsm.FsmEncoder, "__init__", counting)
        return count

    def test_kraft_builds_one_encoder_per_check(self, built, monkeypatch):
        calls = []
        real = fsm.kraft_check

        def counting(*args, **kw):
            calls.append(args[1])
            return real(*args, **kw)

        monkeypatch.setattr(fsm, "kraft_check", counting)
        rep = suite_kraft(block_len_max=2)
        assert rep["family_size"] == 16744
        assert 0 < built[0] <= len(calls)

    def test_converse_builds_only_spot_check_encoders(self, built):
        rep = suite_converse(n_small=4, random_pairs=2, n_large=64,
                             spot_checks=6, spot_k_max=3)
        assert rep["family_size"] == 16744
        assert built[0] <= 6


class TestConverseGolden:
    # SHA-256 of the reports made when the suite built the whole family and
    # drew spot-check encoders from that list
    @pytest.mark.parametrize("kwargs, digest", [
        ({"seed": 0}, "e587631956e92f5cded0ba2cd6d16541692fd69c13e8136e0a8d69020ff30a03"),
        ({"seed": 5}, "c932f63515f85922a5ee85f3b7047892c16a98e6d800afb56201db71feef29a7"),
        ({"seed": 0, "eps_mode": "zero"},
         "31765d7bd37fb49d9a39da67047ede47fc4db1b2bf929114d2bb80513c932995"),
    ])
    def test_converse_report_golden(self, kwargs, digest):
        rep = suite_converse(n_small=8, random_pairs=10, n_large=256, spot_checks=20, **kwargs)
        assert rep["holds"] == (kwargs.get("eps_mode") != "zero")
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


class TestExhaustiveGolden:
    # SHA-256 of the reports made when each exhaustive suite parsed every
    # input on its own; the tol=-1e6 runs list every check as a violation
    @pytest.mark.parametrize("suite, kwargs, digest", [
        (suite_entropy_ineq, {"n": 14, "block_lens": (1, 2, 7)},
         "e0bcbc65d459e1708a46ee947c554972480468517861ed139c880d0fc2be0acd"),
        (suite_entropy_ineq, {"n": 14, "block_lens": (1, 2, 7), "eps_mode": "zero"},
         "a9637135b7b4b543d97a92d5932eb19c2178d81e2bbd4c3bd1418bc45016a807"),
        (suite_entropy_ineq, {"n": 8, "block_lens": (1, 2, 4), "tol": -1e6},
         "1a047e7dd6de938fec57b05d9043c533004a94ba68edb2b291ee01e874878910"),
        (suite_cond_entropy_ineq, {"n": 7, "block_lens": (1, 7)},
         "b552cf2122577d1b59d528e26f5627151e1b0f0742747a35504fba0c58bfc47b"),
        (suite_cond_entropy_ineq, {"n": 4, "block_lens": (1, 2, 4), "tol": -1e6},
         "e94a04f9809db57128583cf1bd7626cd1f07c095893e5e37577a7c79504afe9e"),
        (suite_converse, {"n_small": 4, "random_pairs": 0, "spot_checks": 0,
                          "n_large": 16, "tol": -1e6},
         "9a2f9f51c82b7d6cb9564dcaac01692b0e77b76529736c815649077b8a7a3c02"),
    ])
    def test_exhaustive_report_golden(self, suite, kwargs, digest):
        rep = suite(**kwargs)
        if kwargs.get("tol") == -1e6:
            assert len(rep["violations"]) == (291 if suite is suite_converse else 768)
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


class TestBenchmarkParamsGolden:
    # SHA-256 of the seven reports at the verify-suites benchmark's parameters,
    # with fixed seeds for the seeded suites, as made before the last level of
    # the prefix walk was unrolled and sandwich walked each block once per k
    @pytest.mark.parametrize("suite, kwargs, digest", [
        ("entropy-ineq", {"n": 14, "block_lens": (1, 2, 7)},
         "e0bcbc65d459e1708a46ee947c554972480468517861ed139c880d0fc2be0acd"),
        ("cond-entropy-ineq", {"n": 7, "block_lens": (1, 7)},
         "b552cf2122577d1b59d528e26f5627151e1b0f0742747a35504fba0c58bfc47b"),
        ("kraft", {"block_len_max": 2},
         "a5073efa79d1f28cb868f65d75024c41800b7edb0c797d8b2827bf2a73bb54ea"),
        ("converse", {"n_small": 8, "random_pairs": 10, "n_large": 256, "spot_checks": 20,
                      "seed": 1},
         "71a21226252a5ea4b60e2d4a081a4cea083c5101a6dbcf32384ae1c73dc01fa2"),
        ("frontier", {"unions": 100, "seed": 7},
         "a7ae44c01aac9fa5b28d4b7e90a21bceb13059f42099ea0e4663fa7666e8a5e5"),
        ("split-lemma", {"budget": 100000, "seed": 2},
         "cf13a1f492ebe428cdbca56798d9419d0000748c2da2291dd8b8cecf940c7ea8"),
        ("sandwich", {"pairs": 6, "n": 256, "seed": 3},
         "73684e1b1fbc19d6cd760e703fcccbab6240581a1c5b04292a3a6b05243b89af"),
    ])
    def test_report_golden(self, suite, kwargs, digest):
        rep = SUITES[suite](**kwargs)
        assert rep["holds"]
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


class TestPerInputWalks:
    """The exhaustive suites walk one prefix tree instead of parsing each input."""

    def test_entropy_scans_make_no_per_input_walk(self, walks):
        suite_entropy_ineq(n=14, block_lens=(1, 2, 7))
        suite_cond_entropy_ineq(n=7, block_lens=(1, 7))
        assert walks == {"_lz_walk": 0, "_joint_walk": 0}

    def test_converse_walks_only_random_adversarial_and_spot_inputs(self, walks):
        suite_converse(n_small=8, random_pairs=10, n_large=256, spot_checks=20)
        assert walks["_joint_walk"] < 100


class TestZeroSlackRegression:
    def test_counting_sequence_breaches_first_floor(self):
        rep = suite_converse(eps_mode="zero", n_small=4, random_pairs=0,
                             spot_checks=0, n_large=1024)
        assert not rep["holds"]
        adv = rep["adversarial"]
        assert adv["phrase_count"] == 181
        # with the slack removed the phrase-count premise itself fails
        assert adv["phrase_count"] > adv["phrase_count_cap"]
        first = [v for v in adv["violations"] if v["check"] == "i"]
        assert first
        assert first[0]["family_min"] == pytest.approx(1.0)
        assert first[0]["delta1"] == pytest.approx(0.201953125)
        assert first[0]["rho_lz"] == pytest.approx(1.3256563530879495)

    def test_default_slack_restores_the_floor(self):
        rep = suite_converse(n_small=4, random_pairs=0, spot_checks=0,
                             n_large=1024)
        assert rep["adversarial"]["violations"] == []
        assert rep["adversarial"]["phrase_count"] <= rep["adversarial"]["phrase_count_cap"]


class TestPlantedFaults:
    """Each violation branch of the suites reports a fault planted in the code
    it checks."""

    @staticmethod
    def frontier_failures(rep):
        return {name: len(rep[name]) for name in (
            "corner_mismatches", "upward_closure_failures", "non_domination_failures",
            "idempotence_failures")}

    def test_frontier_without_its_minimality_filter(self, monkeypatch):
        # every member corner is kept, sorted and deduplicated: dominated ones too
        def every_corner(members, tol=regions.TOL):
            out = []
            for p in sorted((m.corner() for m in members), key=lambda p: (p.r1, p.r2)):
                if not out or abs(p.r1 - out[-1].r1) > tol or abs(p.r2 - out[-1].r2) > tol:
                    out.append(p)
            return out

        monkeypatch.setattr(regions, "frontier", every_corner)
        rep = suite_frontier(unions=20)
        failures = self.frontier_failures(rep)
        assert failures["corner_mismatches"] and failures["non_domination_failures"]
        assert not rep["holds"]

    def test_frontier_below_the_union(self, monkeypatch):
        real = regions.frontier
        monkeypatch.setattr(regions, "frontier", lambda members, tol=regions.TOL: [
            regions.RatePoint(p.r1, p.r2 - 0.01) for p in real(members, tol)])
        assert self.frontier_failures(suite_frontier(unions=20))["upward_closure_failures"]

    def test_region_from_corner_without_exact_corner(self, monkeypatch):
        # seed 7 draws corners whose sum floor rounds (see
        # test_frontier_idempotence_at_seed_7); nothing else is at fault
        monkeypatch.setattr(regions, "region_from_corner", lambda point: regions.HalfPlaneRegion(
            a=point.r1, b=point.r1 + point.r2))
        rep = suite_frontier(seed=7)
        assert rep["idempotence_failures"]
        assert rep["violations"] == rep["idempotence_failures"]

    def test_split_lemma_infeasible_split(self, monkeypatch, capsys):
        monkeypatch.setattr(mdc, "split_rates", lambda a, b, c, r1, r2: c + 1)
        rep = suite_split_lemma(budget=10)
        assert len(rep["violations"]) == 10 and not rep["holds"]
        assert cli.main(["verify", "--suite", "split-lemma", "--budget", "10"]) == 1
        assert not json.loads(capsys.readouterr().out)["results"]["holds"]

    def test_sandwich_outer_floors_above_inner(self, monkeypatch):
        # penalties lowered past the codec slacks at every block length
        real = bounds.converse_terms

        def lowered(*args, **kw):
            eps_n, d1, d2, d2_l = real(*args, **kw)
            return eps_n, d1 - 4096.0, d2 - 4096.0, d2_l

        monkeypatch.setattr(bounds, "converse_terms", lowered)
        rep = suite_sandwich(pairs=2, n=16)
        assert rep["containment_violations"] and not rep["holds"]

    def test_sandwich_inner_corner_without_the_conditional_slack(self, monkeypatch):
        monkeypatch.setattr(bounds, "eps_hat", lambda n, k=bounds.EPS_HAT_K: 0.0)
        rep = suite_sandwich(pairs=1, n=1024)
        assert [v["pair"] for v in rep["measured_rate_violations"]] == [0]
        assert not rep["holds"]

    def test_converse_spot_rate_below_the_family_minimum(self, monkeypatch):
        real = fsm.converse_check

        def understated(*args, **kw):
            # outputs take at most max_out_len = 2 bits a symbol, so every
            # member's rate drops below the family minimum
            rep = real(*args, **kw)
            return dict(rep, rho1=rep["rho1"] - 3.0)

        monkeypatch.setattr(fsm, "converse_check", understated)
        rep = suite_converse(n_small=4, random_pairs=2, n_large=64, spot_checks=4,
                             spot_k_max=4)
        assert rep["spot_checks"]["failures"] == [
            {"spot": j, "reason": "family minimum above a member"} for j in range(4)]
        assert not rep["holds"]

    def test_exhaustive_floors_come_from_converse_floors(self, monkeypatch):
        # floor (iii) raised at its one source fails every primary of the
        # exhaustive block, not only the random and adversarial cases
        real = bounds.converse_floors

        def raised(*args, **kw):
            floor1, floor2, floor3 = real(*args, **kw)
            return floor1, floor2, floor3 + 4096.0

        monkeypatch.setattr(bounds, "converse_floors", raised)
        rep = suite_converse(n_small=4, random_pairs=2, n_large=64, spot_checks=0)
        assert rep["exhaustive"]["violations"] == [
            {"check": "iii", "primary": vh} for vh in range(16)]


@pytest.mark.parametrize("seed, budget", [(0, 1), (1, 50), (9, 500), (12345, 3000)])
def test_split_lemma_draws_the_cases_of_random_uniform(seed, budget, monkeypatch):
    """The suite draws with uniform's own expression, so it checks the cases a
    loop written with rng.uniform draws, in the same order."""
    rng = random.Random(seed)
    want = []
    for _ in range(budget):
        a = rng.uniform(0.0, 2.0)
        b = rng.uniform(0.0, 2.0)
        e1 = rng.uniform(1e-9, 1.0)
        e2 = rng.uniform(1e-9, 1.0)
        c = rng.uniform(0.0, e1 + e2)
        want.append((a, b, c, a + e1, b + e2))
    got, real = [], mdc.split_rates

    def recorded(*case):
        got.append(case)
        return real(*case)

    monkeypatch.setattr(mdc, "split_rates", recorded)
    rep = suite_split_lemma(seed=seed, budget=budget)
    assert got == want
    assert rep["clamped_cases"] == sum(r1 - a > c for a, _, c, r1, _ in want)
    assert rep["holds"]


class TestDeterminism:
    def test_seeded_suites_reproduce_byte_identical_reports(self):
        a = suite_split_lemma(seed=9, budget=500)
        b = suite_split_lemma(seed=9, budget=500)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = suite_converse(seed=3, n_small=4, random_pairs=3, n_large=32,
                           spot_checks=2, spot_k_max=3)
        d = suite_converse(seed=3, n_small=4, random_pairs=3, n_large=32,
                           spot_checks=2, spot_k_max=3)
        assert json.dumps(c, sort_keys=True) == json.dumps(d, sort_keys=True)

    def test_different_seeds_differ(self):
        a = suite_frontier(seed=0, unions=5, max_members=4)
        b = suite_frontier(seed=1, unions=5, max_members=4)
        assert a["corners"] != b["corners"] or a != b


def test_suite_registry_is_complete():
    assert set(SUITES) == {"entropy-ineq", "cond-entropy-ineq", "kraft",
                           "converse", "frontier", "split-lemma", "sandwich"}
    for fn in SUITES.values():
        assert callable(fn)


@pytest.mark.parametrize("suite, kwargs", [
    (suite_entropy_ineq, {"n": -1}),
    (suite_cond_entropy_ineq, {"n": -1}),
    (suite_kraft, {"block_len_max": -1}),
    (suite_kraft, {"k_max": -1}),
    (suite_converse, {"random_pairs": -1}),
    (suite_converse, {"spot_checks": -1}),
    (suite_frontier, {"unions": -1}),
    (suite_split_lemma, {"budget": -5}),
    (suite_sandwich, {"pairs": -3, "n": 16}),
])
def test_negative_count_raises(suite, kwargs):
    # a negative count would run no case and report "holds": true
    name, value = next(iter(kwargs.items()))
    with pytest.raises(ValueError, match=f"{name} must be nonnegative, got {value}"):
        suite(**kwargs)
