import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import identity_encoder
from srlz import bounds, fsm
from srlz.cond_lz import joint_parse
from srlz.container import BudgetExceededError
from srlz.fsm import (
    FsmEncoder,
    converse_check,
    enumerate_lossless_onestate_binary,
    is_information_lossless,
    kraft_check,
    kraft_tables,
    lossless_onestate_binary_tables,
    onestate_binary_encoder,
    run,
)
from srlz.lz_core import BINARY, Alphabet, Sequence, parse


def bits(text: str) -> Sequence:
    return Sequence.from_symbols(BINARY, list(text))


def one_state(f1_outs, f2_table, pa=BINARY, sa=BINARY) -> FsmEncoder:
    f1 = {(0, a): f1_outs[a] for a in range(pa.size)}
    g1 = {(0, a): 0 for a in range(pa.size)}
    f2 = {(0, a, b): f2_table[a][b] for a in range(pa.size) for b in range(sa.size)}
    g2 = {(0, a, b): 0 for a in range(pa.size) for b in range(sa.size)}
    return FsmEncoder(pa, sa, ("s0",), ("z0",), f1, g1, f2, g2)


@st.composite
def multi_state_encoders(draw):
    """Any total encoder (lossless or not): 1-3 states per stage, alphabets
    of 1-3 symbols, outputs of 0-3 bits."""
    pa = Alphabet.of_size(draw(st.integers(1, 3)))
    sa = Alphabet.of_size(draw(st.integers(1, 3)))
    ns, nz = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    out = st.text("01", max_size=3)
    f1 = {(s, a): draw(out) for s in range(ns) for a in range(pa.size)}
    g1 = {k: draw(st.integers(0, ns - 1)) for k in f1}
    f2 = {(z, a, b): draw(out) for z in range(nz)
          for a in range(pa.size) for b in range(sa.size)}
    g2 = {k: draw(st.integers(0, nz - 1)) for k in f2}
    return FsmEncoder(pa, sa, tuple(f"s{i}" for i in range(ns)),
                      tuple(f"z{i}" for i in range(nz)), f1, g1, f2, g2,
                      s1=draw(st.integers(0, ns - 1)), z1=draw(st.integers(0, nz - 1)))


class TestEncoderValidation:
    def test_q_defaults_to_state_count(self):
        enc = identity_encoder(BINARY, BINARY)
        assert enc.q == 1
        assert enc.beta == 2 and enc.gamma == 2

    def test_missing_transition_rejected(self):
        f1 = {(0, 0): "0"}  # (0, 1) missing
        with pytest.raises(ValueError, match="f1/g1 not total"):
            FsmEncoder(BINARY, BINARY, ("s0",), ("z0",), f1, {(0, 0): 0, (0, 1): 0},
                       {(0, a, b): "" for a in range(2) for b in range(2)},
                       {(0, a, b): 0 for a in range(2) for b in range(2)})

    def test_nonbinary_output_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            one_state(("0", "2"), (("", ""), ("", "")))

    @pytest.mark.parametrize("bad", ["0\n", "01\n", "2", "0 1", 1, None])
    def test_output_must_be_exactly_bits(self, bad):
        # a trailing newline once passed the check and counted as an output bit
        with pytest.raises(ValueError, match="f1 outputs must be binary"):
            one_state(("0", bad), (("", ""), ("", "")))
        with pytest.raises(ValueError, match="f2 outputs must be binary"):
            one_state(("0", "1"), (("", ""), ("", bad)))

    def test_empty_output_accepted(self):
        enc = one_state(("", "1"), (("", "0"), ("1", "")))
        t1, t2 = kraft_tables(enc)
        assert t1 == (((0, 0), (1, 0)),)
        assert t2 == (((0, 0), (1, 0), (1, 0), (0, 0)),)

    def test_state_budget_enforced(self):
        enc = identity_encoder(BINARY, BINARY)
        with pytest.raises(ValueError, match="budget"):
            FsmEncoder(BINARY, BINARY, ("s0", "s1"), ("z0",),
                       {(s, a): "0" for s in range(2) for a in range(2)},
                       {(s, a): 0 for s in range(2) for a in range(2)},
                       enc.f2, enc.g2, q=1)

    def test_duplicate_state_names_rejected(self):
        enc = identity_encoder(BINARY, BINARY)
        with pytest.raises(ValueError, match="duplicate"):
            FsmEncoder(BINARY, BINARY, ("s0", "s0"), ("z0",),
                       {(s, a): "0" for s in range(2) for a in range(2)},
                       {(s, a): 0 for s in range(2) for a in range(2)},
                       enc.f2, enc.g2)


class TestRun:
    def test_identity_trace(self):
        enc = identity_encoder(BINARY, BINARY)
        tr = run(enc, bits("0110"), bits("1010"))
        assert tr.outputs_u == ("0", "1", "1", "0")
        assert tr.outputs_v == ("1", "0", "1", "0")
        assert tr.bits_u == 4 and tr.bits_v == 4
        assert tr.rho1 == 1.0 and tr.rho12 == 2.0
        assert tr.states_s == (0,) * 5

    def test_input_validation(self):
        enc = identity_encoder(BINARY, BINARY)
        with pytest.raises(ValueError, match="lengths differ"):
            run(enc, bits("01"), bits("0"))
        with pytest.raises(ValueError, match="alphabet mismatch"):
            run(enc, Sequence.from_text("ab"), bits("01"))
        with pytest.raises(ValueError, match="empty"):
            run(enc, Sequence(BINARY, ()), Sequence(BINARY, ()))


class TestLosslessness:
    def test_identity_certified(self):
        rep = is_information_lossless(identity_encoder(BINARY, BINARY), k_max=6)
        assert rep.passed
        assert rep.depth_certified == 6
        assert rep.counterexample is None

    def test_swap_collision_found_in_stage_one(self):
        # a->0, b->1, c->00: "ac" and "ca" both emit 000 from the same state
        abc = Alphabet(("a", "b", "c"))
        enc = FsmEncoder(abc, BINARY, ("s0",), ("z0",),
                         {(0, 0): "0", (0, 1): "1", (0, 2): "00"},
                         {(0, a): 0 for a in range(3)},
                         {(0, a, b): format(b, "b") for a in range(3) for b in range(2)},
                         {(0, a, b): 0 for a in range(3) for b in range(2)})
        rep = is_information_lossless(enc, k_max=4)
        assert not rep.passed
        assert rep.counterexample["stage"] == 1
        assert rep.counterexample["k"] == 2
        assert sorted(rep.counterexample["inputs"]) == [["a", "c"], ["c", "a"]]
        found = oracles.stage1_collision(enc.f1, enc.g1, 1, 3, 2, 0)
        assert found is not None

    def test_constant_stage_two_fails_jointly(self):
        enc = one_state(("0", "1"), (("0", "0"), ("1", "1")))
        rep = is_information_lossless(enc, k_max=3)
        assert not rep.passed
        assert rep.counterexample["stage"] == 2
        assert rep.counterexample["k"] == 1
        assert oracles.joint_collision(enc, 1, 0, 0) is not None

    def test_collision_from_a_later_start_state(self):
        # s0 emits the symbol; s1 emits "0" for both and moves to s0
        enc = FsmEncoder(BINARY, BINARY, ("s0", "s1"), ("z0",),
                         {(0, 0): "0", (0, 1): "1", (1, 0): "0", (1, 1): "0"},
                         {(s, a): 0 for s in range(2) for a in range(2)},
                         {(0, a, b): str(b) for a in range(2) for b in range(2)},
                         {(0, a, b): 0 for a in range(2) for b in range(2)})
        assert is_information_lossless(enc, k_max=4, from_all_states=False).passed
        rep = is_information_lossless(enc, k_max=4)
        assert rep.counterexample == {"stage": 1, "k": 1, "start_state": "s1",
                                      "inputs": [["0"], ["1"]], "output": "0",
                                      "final_state": "s0"}

    def test_deep_certificate(self):
        # enumerating the inputs to depth 16 takes (beta*gamma)^16 = 4^16 words
        f1s, f2s = lossless_onestate_binary_tables(2, 8)
        code, table = ("0", "01"), (("0", "01"), ("10", "1"))
        assert code in f1s and table in f2s
        for enc in (identity_encoder(BINARY, BINARY), onestate_binary_encoder(code, table)):
            rep = is_information_lossless(enc, k_max=16)
            assert rep.passed and rep.depth_certified == 16

    def test_depth_must_be_nonnegative(self):
        # stage 1 maps both symbols to "0": a negative depth once certified it
        enc = one_state(("0", "0"), (("0", "1"), ("0", "1")))
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            is_information_lossless(enc, k_max=-1)
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            lossless_onestate_binary_tables(2, -1)
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            converse_check(enc, bits("0101"), bits("0011"), k_max=-3)
        assert is_information_lossless(enc, k_max=0).passed  # nothing to check


out_strings = st.sampled_from(["", "0", "1", "00", "01", "10", "11"])


@given(st.tuples(out_strings, out_strings),
       st.tuples(out_strings, out_strings, out_strings, out_strings))
def test_certificate_matches_enumeration_oracle(c1, flat):
    table = (flat[0:2], flat[2:4])
    enc = one_state(c1, table)
    rep = is_information_lossless(enc, k_max=3)
    stage1_bad = any(
        oracles.stage1_collision(enc.f1, enc.g1, 1, 2, k, 0) is not None
        for k in (1, 2, 3))
    joint_bad = any(oracles.joint_collision(enc, k, 0, 0) is not None
                    for k in (1, 2, 3))
    assert rep.passed == (not stage1_bad and not joint_bad)


def _replay(enc: FsmEncoder, ce: dict) -> None:
    """Both counterexample inputs, run from its start states, end in equal
    outputs and final states, the ones the counterexample reports."""
    pa = {x: i for i, x in enumerate(enc.primary_alphabet.symbols)}
    sa = {x: i for i, x in enumerate(enc.secondary_alphabet.symbols)}
    s_of = {x: i for i, x in enumerate(enc.states_s)}
    z_of = {x: i for i, x in enumerate(enc.states_z)}
    first, second = ce["inputs"]
    assert first < second and len(first) == len(second) == ce["k"]
    ends = []
    for word in (first, second):
        if ce["stage"] == 1:
            s, z, pairs = s_of[ce["start_state"]], 0, [(pa[x], 0) for x in word]
        else:
            s, z = s_of[ce["start_states"][0]], z_of[ce["start_states"][1]]
            pairs = [(pa[x], sa[y]) for x, y in word]
        u = v = ""
        for a, b in pairs:
            u, s = u + enc.f1[(s, a)], enc.g1[(s, a)]
            v, z = v + enc.f2[(z, a, b)], enc.g2[(z, a, b)]
        ends.append((u, s) if ce["stage"] == 1 else (u, s, v, z))
    assert ends[0] == ends[1]
    if ce["stage"] == 1:
        assert (ce["output"], s_of[ce["final_state"]]) == ends[0]
    else:
        assert ce["outputs"] == [ends[0][0], ends[0][2]]


def _first_oracle_collision(enc: FsmEncoder, k_max: int, from_all_states: bool):
    """(stage, k, s0, z0) of the enumeration oracles, in the certificate's
    order: stage 1 from every start state, then stage 2 from every pair of
    start states, each at its shallowest k; or None."""
    starts_s = range(len(enc.states_s)) if from_all_states else [enc.s1]
    starts_z = range(len(enc.states_z)) if from_all_states else [enc.z1]
    for s0 in starts_s:
        for k in range(1, k_max + 1):
            if oracles.stage1_collision(enc.f1, enc.g1, len(enc.states_s), enc.beta,
                                        k, s0) is not None:
                return 1, k, s0, None
    for s0 in starts_s:
        for z0 in starts_z:
            for k in range(1, k_max + 1):
                if oracles.joint_collision(enc, k, s0, z0) is not None:
                    return 2, k, s0, z0
    return None


# random encoders seldom pass from their first start state or need the side
# that overtakes to carry its state, so this test draws more examples
@settings(max_examples=400)
@given(multi_state_encoders(), st.integers(1, 4), st.booleans())
def test_walk_matches_enumeration_oracles(enc, k_max, from_all_states):
    expected = _first_oracle_collision(enc, k_max, from_all_states)
    rep = is_information_lossless(enc, k_max=k_max, from_all_states=from_all_states)
    assert rep.from_all_states == from_all_states
    if expected is None:
        assert rep.passed and rep.depth_certified == k_max and rep.counterexample is None
        return
    stage, k, s0, z0 = expected
    ce = rep.counterexample
    assert not rep.passed and rep.depth_certified == k - 1
    assert (ce["stage"], ce["k"]) == (stage, k)
    if stage == 1:
        assert ce["start_state"] == enc.states_s[s0]
    else:
        assert ce["start_states"] == [enc.states_s[s0], enc.states_z[z0]]
    _replay(enc, ce)


class TestOneStateFamily:
    def test_family_size_regression(self):
        encs, f1s, f2s = enumerate_lossless_onestate_binary(2, 8)
        assert len(f1s) == 26
        assert len(f2s) == 644
        assert len(encs) == 26 * 644 == 16744

    def test_family_membership_spot_checks(self):
        _, f1s, _ = enumerate_lossless_onestate_binary(2, 8)
        assert ("0", "1") in f1s
        assert ("0", "10") in f1s  # prefix-free
        assert ("0", "00") not in f1s  # 01 and 10 both emit 000
        assert ("", "") not in f1s

    def test_family_members_really_are_lossless(self):
        encs, _, _ = enumerate_lossless_onestate_binary(1, 6)
        for enc in encs:
            assert is_information_lossless(enc, k_max=4).passed

    @pytest.mark.parametrize("args, digest", [
        ((1, 6), "568d49587d4b3b1aa798280165d7c904e2b9b013db65bfa57a6dcf018798c549"),
        ((2, 8), "da26bd445195097ec828f8b2cd2bd70824bf6be19ae85222a5bd91cd71a61510"),
    ])
    def test_stage_tables_golden(self, args, digest):
        # SHA-256 of the f1 and f2 table lists made by one collision walk
        # per stage
        tables = lossless_onestate_binary_tables(*args)
        assert hashlib.sha256(json.dumps(list(tables)).encode()).hexdigest() == digest

    def test_encoder_index_maps_to_stage_tables(self):
        encs, f1s, f2s = enumerate_lossless_onestate_binary()
        primary, secondary = bits("0110100111"), bits("1100101001")
        for i in random.Random(0).sample(range(len(encs)), 40) + [0, len(encs) - 1]:
            enc = encs[i]
            built = onestate_binary_encoder(f1s[i // len(f2s)], f2s[i % len(f2s)])
            assert kraft_tables(built) == kraft_tables(enc)
            assert (built.f1, built.g1, built.f2, built.g2) == (enc.f1, enc.g1, enc.f2, enc.g2)
            assert run(built, primary, secondary) == run(enc, primary, secondary)


class TestKraft:
    def test_identity_sum_and_budget(self):
        enc = identity_encoder(BINARY, BINARY)
        rep = kraft_check(enc, 2)
        assert rep["pairs"] == 16
        assert rep["lhs"] == pytest.approx(1.0)
        assert rep["min_total_len"] == 4
        assert rep["rhs"] == pytest.approx(bounds.kraft_rhs(1, 2, 2, 2))
        assert rep["holds"]

    def test_q_override(self):
        enc = identity_encoder(BINARY, BINARY)
        rep = kraft_check(enc, 1, q=2)
        assert rep["q"] == 2 and rep["q4"] == 16
        assert rep["rhs"] == pytest.approx(bounds.kraft_rhs(2, 1, 2, 2))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            kraft_check(identity_encoder(BINARY, BINARY), 20, pair_budget=1000)

    def test_sum_matches_direct_enumeration(self):
        # one state: min over states is just the walk from state 0
        enc = one_state(("0", "10"), (("", "1"), ("1", "")))
        rep = kraft_check(enc, 2)
        lhs = 0.0
        for pa in ((0, 0), (0, 1), (1, 0), (1, 1)):
            l1 = sum(len(enc.f1[(0, a)]) for a in pa)
            for sa in ((0, 0), (0, 1), (1, 0), (1, 1)):
                l2 = sum(len(enc.f2[(0, a, b)]) for a, b in zip(pa, sa))
                lhs += 2.0 ** -(l1 + l2)
        assert rep["lhs"] == lhs

    @pytest.mark.parametrize("block_len", [0, -1])
    def test_block_len_rejected_before_enumeration(self, block_len):
        with pytest.raises(ValueError, match="block_len must be positive"):
            kraft_check(identity_encoder(BINARY, BINARY), block_len)

    @pytest.mark.parametrize("q", [0, -1])
    def test_q_rejected_before_enumeration(self, q, monkeypatch):
        def walk(*_):
            raise AssertionError("block pairs enumerated before q was checked")

        monkeypatch.setattr(fsm, "_min_walk_len", walk)
        with pytest.raises(ValueError, match="q, l, beta, gamma must be positive"):
            kraft_check(identity_encoder(BINARY, BINARY), 2, q=q)

    def test_tables_hold_lengths_and_transitions(self):
        enc = one_state(("0", "10"), (("", "1"), ("1", "")))
        t1, t2 = kraft_tables(enc)
        assert t1 == (((1, 0), (2, 0)),)
        assert t2 == (((0, 0), (1, 0), (1, 0), (0, 0)),)

    @given(st.data())
    def test_sum_matches_string_oracle(self, data):
        enc = data.draw(multi_state_encoders())
        block_len = data.draw(st.integers(1, 3))
        rep = kraft_check(enc, block_len)
        assert (rep["lhs"], rep["min_total_len"]) == oracles.kraft_sum_by_strings(enc, block_len)


class TestConverse:
    def test_identity_on_pair(self):
        enc = identity_encoder(BINARY, BINARY)
        p = bits("0100011011000001")
        s = bits("0100011011000001")
        rep = converse_check(enc, p, s)
        assert rep["applicable"] and rep["lossless"]
        pr = parse(p)
        jp = joint_parse(p, s)
        eps = bounds.eps_n_value(16, 2, "default")
        assert rep["rho1"] == 1.0 and rep["rho12"] == 2.0
        assert rep["rho_lz"] == pytest.approx(pr.rho_lz)
        assert rep["rho_cond"] == pytest.approx(jp.rho_cond)
        assert rep["delta1"] == pytest.approx(bounds.delta1(1, 16, 2, eps))
        d2, d2_l = bounds.delta2(1, 16, 2, 2, eps)
        assert rep["delta2"] == pytest.approx(d2)
        assert rep["delta2_block_len"] == d2_l
        assert rep["checks"]["i"]["rhs"] == pytest.approx(pr.rho_lz - rep["delta1"])
        assert rep["checks"]["iii"]["rhs"] == pytest.approx(
            bounds.zl78_floor(pr.c, 16, 1))
        assert rep["all_hold"]

    def test_lossy_machine_not_applicable(self):
        enc = one_state(("0", "1"), (("0", "0"), ("1", "1")))
        rep = converse_check(enc, bits("0101"), bits("0011"))
        assert not rep["applicable"]
        assert "counterexample" in rep
        assert "checks" not in rep

    def test_needs_two_symbols(self):
        enc = identity_encoder(BINARY, BINARY)
        with pytest.raises(ValueError, match="n >= 2"):
            converse_check(enc, bits("0"), bits("0"))

    @pytest.mark.parametrize("enc", [identity_encoder(BINARY, BINARY),
                                     one_state(("0", "1"), (("0", "0"), ("1", "1")))])
    def test_inputs_checked_before_certificate(self, enc):
        # a lossy encoder once returned a not-applicable report for these
        with pytest.raises(ValueError, match="n >= 2"):
            converse_check(enc, bits("0"), bits("0"))
        with pytest.raises(ValueError, match="lengths differ"):
            converse_check(enc, bits("010"), bits("0"))
        with pytest.raises(ValueError, match="primary alphabet mismatch"):
            converse_check(enc, Sequence.from_text("abc"), bits("010"))
        with pytest.raises(ValueError, match="secondary alphabet mismatch"):
            converse_check(enc, bits("010"), Sequence.from_text("abc"))
