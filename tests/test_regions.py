import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from srlz import bounds
from srlz.cond_lz import joint_parse
from srlz.lz_core import BINARY, Alphabet, Sequence, rho_lz
from srlz.regions import (
    HalfPlaneRegion,
    RatePoint,
    SearchBudget,
    blockwise_region,
    clamped_region,
    frontier,
    frontier_csv,
    region_contains_region,
    region_for_pair,
    region_from_corner,
    sr_outer_region,
    union_contains,
)
from srlz.sr_codec import hamming_spec


def bits(text: str) -> Sequence:
    return Sequence.from_symbols(BINARY, list(text))


class TestHalfPlane:
    def test_effective_floors(self):
        r = HalfPlaneRegion(a=1.0, b=3.0)
        assert r.floors() == (1.0, 0.0, 3.0)
        # sum floor is lifted to a + c when below it
        r2 = HalfPlaneRegion(a=2.0, b=1.0, c=1.0)
        assert r2.floors() == (2.0, 1.0, 3.0)

    def test_contains_and_corner(self):
        r = HalfPlaneRegion(a=1.0, b=3.0)
        assert r.corner() == RatePoint(1.0, 2.0)
        assert r.contains(RatePoint(1.0, 2.0))
        assert r.contains(RatePoint(5.0, 0.0))
        assert not r.contains(RatePoint(0.9, 5.0))
        assert not r.contains(RatePoint(2.0, 0.5))

    def test_clamping_records_flags(self):
        r = clamped_region(-0.2, 0.7, meta={"tag": 1})
        assert r.a == 0.0 and r.clamped_a and not r.clamped_b
        assert r.meta == {"tag": 1}
        r2 = clamped_region(0.1, -0.5, c=-1.0)
        assert r2.b == 0.0 and r2.clamped_b
        assert r2.c == 0.0 and r2.clamped_c


class TestFrontier:
    def test_two_member_staircase(self):
        members = [HalfPlaneRegion(a=1.0, b=3.0), HalfPlaneRegion(a=2.0, b=2.5)]
        assert frontier(members) == [RatePoint(1.0, 2.0), RatePoint(2.0, 0.5)]
        assert union_contains(members, RatePoint(2.0, 0.5))
        assert not union_contains(members, RatePoint(1.5, 0.9))

    def test_dominated_member_dropped(self):
        members = [HalfPlaneRegion(a=1.0, b=3.0), HalfPlaneRegion(a=1.5, b=3.5)]
        assert frontier(members) == [RatePoint(1.0, 2.0)]

    def test_duplicate_corners_deduplicated(self):
        members = [HalfPlaneRegion(a=1.0, b=2.0)] * 3
        assert frontier(members) == [RatePoint(1.0, 1.0)]

    def test_empty_union(self):
        assert frontier([]) == []

    def test_explicit_r2_floor_rejected(self):
        with pytest.raises(ValueError, match="R2 floor"):
            frontier([HalfPlaneRegion(a=1.0, b=2.0, c=0.5)])

    def test_idempotent_on_own_corners(self):
        members = [HalfPlaneRegion(a=0.5, b=2.0), HalfPlaneRegion(a=1.0, b=1.5),
                   HalfPlaneRegion(a=0.0, b=2.25)]
        front = frontier(members)
        again = frontier([region_from_corner(p) for p in front])
        assert again == front

    def test_corner_survives_rounding_of_the_sum_floor(self):
        p = RatePoint(0.22, 0.25)
        assert (0.22 + 0.25) - 0.22 != 0.25  # the sum floor alone loses the last bit
        assert region_from_corner(p).corner() == p
        assert frontier([region_from_corner(p)]) == [p]

    def test_corner_of_other_regions_from_floors(self):
        assert HalfPlaneRegion(a=0.22, b=0.22 + 0.25).corner() == RatePoint(0.22, 0.24999999999999997)
        assert region_from_corner(RatePoint(-0.5, 1.0)).corner() == RatePoint(0.0, 0.5)

    def test_matches_the_all_pairs_oracle(self):
        # repr tells -0.0 from 0.0, so the corners must match to the bit
        rng = random.Random(0)
        for _ in range(10000):
            members = oracles.random_union(rng)
            assert repr(frontier(members)) == repr(oracles.frontier_all_pairs(members)), members

    def test_corner_tol_above_the_axis_keeps_the_axis_test(self):
        # r2 == tol: the corner lies above the first member's sum edge, but on
        # the R1 axis within tol a member drops it only when a + tol < r1, and
        # 2e-9 + 1e-9 rounds to r1, so it stays
        members = [HalfPlaneRegion(a=2e-9, b=0.0),
                   region_from_corner(RatePoint(3.0000000000000004e-9, 1e-9))]
        want = [RatePoint(2e-9, 0.0), RatePoint(3.0000000000000004e-9, 1e-9)]
        assert frontier(members) == oracles.frontier_all_pairs(members) == want


lattice = st.integers(min_value=0, max_value=8)
member_floors = st.lists(st.tuples(lattice, lattice), min_size=1, max_size=4)


@given(member_floors)
def test_frontier_matches_grid_scan(raw):
    step = 0.25
    floors = [(a * step, b * step) for a, b in raw]
    members = [HalfPlaneRegion(a=a, b=b) for a, b in floors]
    front = frontier(members)
    # the frontier is exactly the set of member corners that are minimal
    # points of the union (left and lower lattice neighbors both outside)
    expected = set()
    for m in members:
        p = m.corner()
        if (oracles.in_union(floors, p.r1, p.r2)
                and not oracles.in_union(floors, p.r1 - step, p.r2)
                and not oracles.in_union(floors, p.r1, p.r2 - step)):
            expected.add((p.r1, p.r2))
    assert {(p.r1, p.r2) for p in front} == expected
    # every frontier point shows up in a full lattice scan for minimal points
    scan = oracles.grid_corners(floors, step, r1_max=2.5, r2_max=2.5)
    assert {(p.r1, p.r2) for p in front} <= set(scan)
    # reconstructing the union from the frontier preserves membership
    rebuilt = [(p.r1, p.r1 + p.r2) for p in front]
    for i in range(11):
        for j in range(11):
            r1, r2 = i * step, j * step
            assert oracles.in_union(floors, r1, r2) == oracles.in_union(rebuilt, r1, r2)
    # staircase shape: strictly increasing r1, strictly decreasing r2
    for prev, cur in zip(front, front[1:]):
        assert cur.r1 > prev.r1 and cur.r2 < prev.r2


class TestContainment:
    def test_direction(self):
        outer = HalfPlaneRegion(a=0.5, b=1.0)
        inner = HalfPlaneRegion(a=0.7, b=1.2)
        assert region_contains_region(outer, inner)
        assert not region_contains_region(inner, outer)

    def test_equal_regions_contain_each_other(self):
        r = HalfPlaneRegion(a=0.5, b=1.0)
        assert region_contains_region(r, r)


class TestPairRegion:
    def test_meta_and_floors(self):
        primary = bits("010101")
        secondary = bits("010001")
        reg = region_for_pair(primary, secondary, q=1)
        eps = bounds.eps_n_value(6, 2, "default")
        d1 = bounds.delta1(1, 6, 2, eps)
        d2, _ = bounds.delta2(1, 6, 2, 2, eps)
        rho1 = rho_lz(primary)
        rho_c = joint_parse(primary, secondary).rho_cond
        assert reg.a == max(rho1 - d1, 0.0)
        assert reg.b == max(rho1 + rho_c - d2, 0.0)
        assert reg.meta["rho_lz"] == pytest.approx(rho1)
        assert reg.meta["rho_cond"] == pytest.approx(rho_c)
        assert reg.meta["q"] == 1 and reg.meta["n"] == 6

    def test_input_validation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            region_for_pair(bits("0"), bits("0"), 1)
        with pytest.raises(ValueError, match="equal length"):
            region_for_pair(bits("01"), bits("0"), 1)

    def test_larger_state_budget_weakens_floors(self):
        primary = bits("01000110110000010100011011000001")
        secondary = primary
        small = region_for_pair(primary, secondary, q=1)
        large = region_for_pair(primary, secondary, q=4)
        assert region_contains_region(large, small)


class TestBlockwise:
    def pair(self):
        return (bits("0100011011000001"), bits("0100011011010001"))

    def test_outer_floors_match_hand_computation(self):
        primary, secondary = self.pair()
        k = 8
        reg = blockwise_region(primary, secondary, q=1, block_len=k, side="outer-minus")
        sum1 = sum2 = 0.0
        for t in (0, 8):
            pb = Sequence(BINARY, primary.data[t:t + k])
            sb = Sequence(BINARY, secondary.data[t:t + k])
            sum1 += rho_lz(pb)
            sum2 += joint_parse(pb, sb).rho_cond
        avg1 = k / 16 * sum1
        avg12 = k / 16 * (sum1 + sum2)
        eps = bounds.eps_n_value(k, 2, "default")
        d1 = bounds.delta1(1, k, 2, eps)
        d2, _ = bounds.delta2(1, k, 2, 2, eps)
        assert reg.meta["avg_rho_lz"] == pytest.approx(avg1)
        assert reg.meta["avg_rho_sum"] == pytest.approx(avg12)
        assert reg.a == max(avg1 - d1, 0.0)
        assert reg.b == max(avg12 - d2, 0.0)

    def test_inner_floors_add_codec_slacks(self):
        primary, secondary = self.pair()
        k = 4
        reg = blockwise_region(primary, secondary, q=1, block_len=k, side="inner-plus")
        e1 = bounds.eps_slack(k, 2, bounds.eps_n_value(k, 2, "default"))
        e2 = bounds.eps_hat(k)
        assert reg.a == pytest.approx(reg.meta["avg_rho_lz"] + e1)
        assert reg.b == pytest.approx(reg.meta["avg_rho_sum"] + e1 + e2)

    def test_side_aliases(self):
        primary, secondary = self.pair()
        for short, full in (("outer", "outer-minus"), ("inner", "inner-plus")):
            a = blockwise_region(primary, secondary, 1, 4, short)
            b = blockwise_region(primary, secondary, 1, 4, full)
            assert (a.a, a.b) == (b.a, b.b)
            assert a.meta["side"] == full

    def test_inner_sits_inside_outer(self):
        primary, secondary = self.pair()
        for k in (2, 4, 8, 16):
            outer = blockwise_region(primary, secondary, 1, k, "outer")
            inner = blockwise_region(primary, secondary, 1, k, "inner")
            assert region_contains_region(outer, inner)

    @pytest.mark.parametrize("beta, gamma", [(1, 1), (2, 2), (3, 26), (26, 3), (2, 1)])
    @pytest.mark.parametrize("n", [2, 60, 64])
    def test_matches_per_block_sequences(self, beta, gamma, n):
        # the walks on slices of .data give the reference's floats exactly
        rng = random.Random(n * 1000 + beta * 30 + gamma)
        primary = Sequence(Alphabet.of_size(beta), [rng.randrange(beta) for _ in range(n)])
        secondary = Sequence(Alphabet.of_size(gamma), [rng.randrange(gamma) for _ in range(n)])
        for k in bounds.divisors(n)[1:]:
            for side in ("outer-minus", "inner-plus", "outer", "inner"):
                for eps_mode in ("default", "zero"):
                    got = blockwise_region(primary, secondary, 2, k, side, eps_mode)
                    want = oracles.blockwise_region_reference(primary, secondary, 2, k, side,
                                                              eps_mode)
                    assert repr(got) == repr(want)
                    assert got.meta == want.meta
                    assert list(got.meta) == list(want.meta)

    def test_input_validation(self):
        primary, secondary = self.pair()
        with pytest.raises(ValueError, match="at least 2"):
            blockwise_region(primary, secondary, 1, 1, "outer")
        with pytest.raises(ValueError, match="does not divide"):
            blockwise_region(primary, secondary, 1, 3, "outer")
        with pytest.raises(ValueError, match="side must be"):
            blockwise_region(primary, secondary, 1, 4, "sideways")
        with pytest.raises(ValueError, match="equal length"):
            blockwise_region(primary, bits("01"), 1, 2, "outer")

    def test_needs_n_of_at_least_two(self):
        # checked first: n = 0 passes every divisibility test
        for short in ("", "0"):
            with pytest.raises(ValueError, match="needs n >= 2"):
                blockwise_region(bits(short), bits(short), 1, 2, "outer")


class TestOuterUnion:
    def test_exhaustive_tiny_search(self):
        x = bits("0110")
        union = sr_outer_region(x, hamming_spec(0.25, 0.0), q=1)
        # level2 = 0 forces the fine reproduction to equal x; ball1 has every
        # sequence within hamming distance 1 of x
        assert union.meta["search_mode"] == "exhaustive"
        assert union.meta["exhaustive"] is True
        assert union.meta["ball1"] == 5
        assert union.meta["ball2"] == 1
        assert len(union.members) == 5
        assert list(union.frontier) == list(frontier(list(union.members)))

    def test_frontier_points_lie_in_union(self):
        x = bits("01100110")
        union = sr_outer_region(x, hamming_spec(0.125, 0.125), q=1)
        for p in union.frontier:
            assert union_contains(list(union.members), p)

    def test_greedy_mode_is_seeded(self):
        x = bits("01100110" * 4)
        budget = SearchBudget(mode="greedy", evaluations=64, restarts=2, seed=7)
        u1 = sr_outer_region(x, hamming_spec(0.25, 0.125), q=1, search=budget)
        u2 = sr_outer_region(x, hamming_spec(0.25, 0.125), q=1, search=budget)
        assert u1.members == u2.members
        assert u1.meta["search_mode"] == "greedy"

    def test_needs_two_symbols(self):
        with pytest.raises(ValueError, match="n >= 2"):
            sr_outer_region(bits("0"), hamming_spec(0.0, 0.0), q=1)

    def test_exhaustive_union_of_a_seven_symbol_source_is_fast(self):
        # every pair of binary sequences of length 7: 2^14 members, whose
        # staircase an all-pairs check would take minutes to find
        start = time.perf_counter()
        union = sr_outer_region(bits("0110100"), hamming_spec(1.0, 1.0), q=1)
        elapsed = time.perf_counter() - start
        assert union.meta["search_mode"] == "exhaustive"
        assert len(union.members) == 16384
        assert union.frontier and all(union_contains(union.members, p) for p in union.frontier)
        assert elapsed < 10.0


class TestCsv:
    def test_round_trippable_floats(self):
        pts = [RatePoint(1 / 3, 2.0), RatePoint(0.7, 0.1)]
        text = frontier_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "r1,r2"
        parsed = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        assert parsed == [(1 / 3, 2.0), (0.7, 0.1)]

    def test_empty(self):
        assert frontier_csv([]) == "r1,r2\n"
