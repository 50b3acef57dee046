"""Acceptance gate: eleven timed end-to-end criteria, one test each.

Each test asserts the substantive property first and its wall-clock budget
last, so a regression reads as the real failure rather than a timeout.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from srlz import bounds, cli, mdc, sr_codec, verify
from srlz.cond_lz import cond_decode, cond_encode, joint_parse
from srlz.lz_core import Alphabet, Sequence, lz_decode, lz_encode, parse


def bits(text):
    return Sequence.from_symbols(Alphabet(("0", "1")), tuple(text))


def same_sequence(a: Sequence, b: Sequence) -> bool:
    return a.alphabet.symbols == b.alphabet.symbols and a.data == b.data


def phrase_strings(seq: Sequence, pr) -> list:
    syms = seq.alphabet.symbols
    return ["".join(syms[v] for v in seq.data[s:s + ln]) for s, ln in pr.phrases]


def test_criterion_01_incremental_parse_worked_example():
    seq = Sequence.from_symbols(Alphabet(("a", "b")), tuple("abbabaabbaaabaa"))
    parse(seq)  # warm-up outside the timed window
    t0 = time.perf_counter()
    pr = parse(seq)
    dt = time.perf_counter() - t0
    assert phrase_strings(seq, pr) == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
    assert pr.c == 8
    assert pr.is_last_incomplete is True
    assert pr.rho_lz == 8 * 3 / 15
    assert dt < 1e-3, f"took {dt * 1e3:.3f} ms, budget 1 ms"


def test_criterion_02_conditional_parse_worked_example():
    primary = bits("010101")
    secondary = bits("010001")
    joint_parse(primary, secondary)  # warm-up
    t0 = time.perf_counter()
    jp = joint_parse(primary, secondary)
    dt = time.perf_counter() - t0
    assert jp.c_joint == 4
    assert jp.c_prime == 3
    assert tuple(jp.c_l) == (1, 1, 2)
    assert jp.rho_cond == 1 / 3
    assert dt < 1e-3, f"took {dt * 1e3:.3f} ms, budget 1 ms"


def test_criterion_03_codec_round_trips(standard_corpus):
    assert len(standard_corpus) == 500
    t0 = time.perf_counter()
    for case in standard_corpus:
        assert same_sequence(lz_decode(lz_encode(case.x).to_bytes()), case.x)

        raw = cond_encode(case.xtilde, case.xhat).to_bytes()
        assert same_sequence(cond_decode(raw, case.xhat), case.xtilde)

        raw = sr_codec.sr_encode(case.x, case.xhat, case.xtilde).to_bytes()
        assert same_sequence(sr_codec.sr_decode_stage1(raw), case.xhat)
        coarse, fine = sr_codec.sr_decode_full(raw)
        assert same_sequence(coarse, case.xhat)
        assert same_sequence(fine, case.xtilde)

        d1, d2, _ = mdc.egc_encode(case.xhat, case.xtilde, case.xcheck, case.split)
        assert same_sequence(mdc.egc_decode1(d1), case.xhat)
        assert same_sequence(mdc.egc_decode2(d2), case.xtilde)
        h, t, k = mdc.egc_decode0(d1, d2)
        assert same_sequence(h, case.xhat) and same_sequence(t, case.xtilde)
        assert same_sequence(k, case.xcheck)

        d1, d2, _ = mdc.zb_encode(case.xhat, case.xtilde, case.xcheck,
                                  case.u, case.split)
        u1, h = mdc.zb_decode1(d1)
        u2, t = mdc.zb_decode2(d2)
        assert same_sequence(u1, case.u) and same_sequence(h, case.xhat)
        assert same_sequence(u2, case.u) and same_sequence(t, case.xtilde)
        u0, h, t, k = mdc.zb_decode0(d1, d2)
        assert same_sequence(u0, case.u) and same_sequence(h, case.xhat)
        assert same_sequence(t, case.xtilde) and same_sequence(k, case.xcheck)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"took {dt:.1f} s, budget 60 s"


def test_criterion_04_payload_length_bounds(standard_corpus):
    t0 = time.perf_counter()
    for case in standard_corpus:
        n = case.x.n
        pr = parse(case.x)
        enc = lz_encode(case.x)
        cap = (pr.c * math.log2(pr.c) if pr.c > 1 else 0.0) \
            + n * bounds.eps_slack(n, case.x.alphabet.size)
        assert enc.payload_bits <= cap
        assert enc.payload_bits <= pr.code_len_bound

        jp = joint_parse(case.xhat, case.xtilde)
        cenc = cond_encode(case.xtilde, case.xhat)
        ccap = n * jp.rho_cond + n * bounds.eps_hat(n)
        assert cenc.payload_bits <= ccap
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"took {dt:.1f} s, budget 60 s"


def test_criterion_05_block_entropy_inequalities():
    t0 = time.perf_counter()
    rep = verify.suite_entropy_ineq(n=16, block_lens=(1, 2, 4, 8))
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["sequences"] == 65536
    assert rep["checks"] == 4 * 65536
    assert rep["violations"] == []
    assert dt < 30.0, f"took {dt:.1f} s, budget 30 s"

    t0 = time.perf_counter()
    rep = verify.suite_cond_entropy_ineq(n=8, block_lens=(1, 2, 4))
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["pairs"] == 65536
    assert rep["checks"] == 3 * 65536
    assert rep["violations"] == []
    assert dt < 60.0, f"took {dt:.1f} s, budget 60 s"


def test_criterion_06_kraft_inequality_family():
    t0 = time.perf_counter()
    rep = verify.suite_kraft()
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["violations"] == []
    assert rep["family_size"] == 16744
    assert rep["max_out_len"] == 2
    assert tuple(rep["block_lens"]) == (1, 2, 3)
    assert 0.0 < rep["max_lhs_over_rhs"] <= 1.0
    assert dt < 120.0, f"took {dt:.1f} s, budget 120 s"


def test_criterion_07_converse_bound_harness():
    t0 = time.perf_counter()
    rep = verify.suite_converse()
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["violations"] == []
    ex = rep["exhaustive"]
    assert ex["n"] == 8 and ex["pairs"] == 65536
    assert ex["checks"]["i"] > 0 and ex["checks"]["ii"] == 65536
    assert ex["checks"]["iii"] > 0
    assert ex["violations"] == []
    rnd = rep["random"]
    assert rnd["n"] == 1024 and rnd["pairs"] == 200
    assert rnd["violations"] == []
    assert rep["adversarial"]["violations"] == []
    assert dt < 300.0, f"took {dt:.1f} s, budget 300 s"


def test_criterion_08_frontier_matches_grid_oracle():
    t0 = time.perf_counter()
    rep = verify.suite_frontier()
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["unions"] == 100
    assert rep["max_members"] == 20
    assert rep["resolution"] == pytest.approx(1e-3)
    assert rep["corner_mismatches"] == []
    assert rep["violations"] == []
    assert dt < 30.0, f"took {dt:.1f} s, budget 30 s"


def test_criterion_09_rate_split_allocation():
    t0 = time.perf_counter()
    rep = verify.suite_split_lemma(budget=100000)
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["checks"] == 100000
    assert rep["violations"] == []
    assert dt < 5.0, f"took {dt:.1f} s, budget 5 s"


def test_criterion_10_region_sandwich():
    t0 = time.perf_counter()
    rep = verify.suite_sandwich()
    dt = time.perf_counter() - t0
    assert rep["holds"] is True
    assert rep["pairs"] == 100 and rep["n"] == 1024
    assert rep["containment_violations"] == []
    assert rep["measured_rate_violations"] == []
    assert rep["violations"] == []
    assert dt < 60.0, f"took {dt:.1f} s, budget 60 s"


def test_criterion_11_cli_determinism(tmp_path, capsys):
    src = tmp_path / "src.txt"
    src.write_text("alphabet: a b\n" + "\n".join("abbabaabbaaabaa") + "\n")

    def invoke(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    # identical paths on both passes so the reports can match byte for byte
    stream = str(tmp_path / "stream.lzc")
    fine = str(tmp_path / "fine.txt")
    csvp = str(tmp_path / "front.csv")
    t0 = time.perf_counter()
    runs = {}
    for tag in ("one", "two"):
        outs = [invoke("analyze", str(src), "--block-len", "3")]
        outs.append(invoke("encode", str(src), "--mode", "lz", "-o", stream))
        outs.append(invoke("decode", stream, "--mode", "lz", "-o", fine))
        outs.append(invoke("region", "sr", str(src), "--d1", "0.2",
                           "--seed", "11", "--csv", csvp))
        outs.append(invoke("verify", "--suite", "split-lemma",
                           "--budget", "2000", "--seed", "11"))
        artifacts = (open(stream, "rb").read(), open(fine, "rb").read(),
                     open(csvp, "rb").read())
        runs[tag] = (outs, artifacts)
    dt = time.perf_counter() - t0
    assert all(code == 0 for code, _ in runs["one"][0])
    assert runs["one"] == runs["two"]
    for _, out in runs["one"][0]:
        rep = json.loads(out)
        assert rep["report_version"] == 1 and rep["timing"] is None
    assert dt < 10.0, f"took {dt:.1f} s, budget 10 s"
