"""End-to-end tests for the command line: flags, reports, files, exit codes."""

from __future__ import annotations

import builtins
import importlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import srlz
from srlz import bounds, cli, empirics, mdc, regions
from srlz.bitio import fnv1a64
from srlz.cond_lz import joint_parse
from srlz.empirics import block_empirics
from srlz.lz_core import Alphabet, Sequence, parse

EXAMPLE_A = "abbabaabbaaabaa"
EXAMPLE_B_PRIMARY = "010101"
EXAMPLE_B_SECONDARY = "010001"


def run(capsys, *argv):
    """Invoke the CLI in process and split the captured streams."""
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    rep = json.loads(cap.out) if cap.out else None
    return code, rep, cap.out, cap.err


def token_file(tmp_path, name, text, alphabet="0 1"):
    p = tmp_path / name
    p.write_text("alphabet: " + alphabet + "\n" + "\n".join(text) + "\n",
                 encoding="utf-8")
    return str(p)


def bits(text):
    return Sequence.from_symbols(Alphabet(("0", "1")), tuple(text))


class TestSequenceIO:
    def test_token_save_and_auto_load_round_trip(self, tmp_path):
        seq = Sequence.from_symbols(Alphabet(("a", "b", "c")), tuple("abcabca"))
        path = str(tmp_path / "seq.txt")
        cli.save_sequence(seq, path)
        back = cli.load_sequence(path)
        assert back.symbols() == seq.symbols()
        assert back.alphabet.symbols == ("a", "b", "c")

    def test_auto_sniffs_bytes_without_header(self, tmp_path):
        p = tmp_path / "raw.bin"
        p.write_bytes(b"hello")
        seq = cli.load_sequence(str(p))
        assert seq.n == 5
        assert all(0 <= int(s) <= 255 for s in seq.alphabet.symbols)

    def test_token_file_tolerates_comments_and_blanks(self, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("alphabet: x y\n\nx\n# mid\ny\nx\n")
        assert cli.load_sequence(str(p)).symbols() == ["x", "y", "x"]
        # auto-sniffing keys on the first bytes, so a leading comment needs
        # the format forced
        q = tmp_path / "seq2.txt"
        q.write_text("# header comment\nalphabet: x y\nx\ny\n")
        assert cli.load_sequence(str(q), "tokens").symbols() == ["x", "y"]

    def test_missing_alphabet_header_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("a\nb\n")
        code, _, _, err = run(capsys, "analyze", str(p), "--format", "tokens")
        assert code == 2
        assert "alphabet: <sym> <sym> ..." in err

    def test_undeclared_token_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("alphabet: 0 1\n0\n2\n")
        code, _, _, err = run(capsys, "analyze", str(p))
        assert code == 2
        assert "'2' is not in the declared alphabet" in err

    def test_non_utf8_token_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"alphabet: 0 1\n\xff\xfe\n")
        code, _, _, err = run(capsys, "analyze", str(p))
        assert code == 2
        assert "UTF-8" in err

    def test_unknown_format_names_rejected(self, tmp_path):
        p = tmp_path / "raw.bin"
        p.write_bytes(b"xy")
        with pytest.raises(cli.UsageError, match="unknown input format"):
            cli.load_sequence(str(p), "base64")
        seq = cli.load_sequence(str(p))
        with pytest.raises(cli.UsageError, match="unknown output format"):
            cli.save_sequence(seq, str(tmp_path / "out"), "base64")

    def test_byte_output_needs_byte_valued_names(self, tmp_path):
        seq = Sequence.from_symbols(Alphabet(("a", "b")), tuple("ab"))
        with pytest.raises(cli.UsageError, match="not byte values"):
            cli.save_sequence(seq, str(tmp_path / "out"), "bytes")
        cli.save_sequence(seq, str(tmp_path / "out"))
        assert (tmp_path / "out").read_bytes().startswith(b"alphabet: a b")

    def test_hash_symbol_in_header_exits_2(self, tmp_path, capsys):
        # its data lines would read as comments: '#a b #a b' loaded as 'b b'
        p = tmp_path / "hash.txt"
        p.write_text("alphabet: #a b\n#a\nb\n#a\nb\n", encoding="utf-8")
        code, _, out, err = run(capsys, "encode", str(p), "--mode", "lz",
                                "-o", str(tmp_path / "o.lzc"))
        assert code == 2 and out == ""
        assert "alphabet symbol '#a' starts with '#'" in err
        assert not (tmp_path / "o.lzc").exists()

    @pytest.mark.parametrize("symbols", [("#a", "b"), ("a b", "c"), ("", "c"), ("a\u2028", "c")],
                             ids=["hash", "space", "empty", "line-separator"])
    def test_token_output_refuses_symbols_it_cannot_hold(self, tmp_path, capsys, symbols):
        from srlz.lz_core import lz_encode

        seq = Sequence(Alphabet(symbols), [0, 1, 0, 1])
        with pytest.raises(cli.UsageError, match="cannot be written as a token"):
            cli.save_sequence(seq, str(tmp_path / "direct.txt"))
        stream = tmp_path / "s.lzc"
        stream.write_bytes(lz_encode(seq).to_bytes())
        code, _, out, err = run(capsys, "decode", str(stream), "--mode", "lz",
                                "-o", str(tmp_path / "back.txt"))
        assert code == 2 and out == ""
        assert f"alphabet symbol {symbols[0]!r} cannot be written as a token" in err
        assert not (tmp_path / "back.txt").exists()
        assert not (tmp_path / "direct.txt").exists()


class TestAnalyze:
    def test_worked_single_sequence(self, tmp_path, capsys):
        f = token_file(tmp_path, "a.txt", EXAMPLE_A, "a b")
        code, rep, _, _ = run(capsys, "analyze", f)
        assert code == 0
        res = rep["results"]
        assert res["n"] == 15
        assert res["phrase_count"] == 8
        assert res["last_phrase_incomplete"] is True
        assert res["phrases"] == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
        assert res["rho_lz"] == pytest.approx(1.6)
        assert res["beta"] == 2
        eps_n = bounds.eps_n_value(15, 2, "default")
        assert res["bounds"]["eps_n"] == pytest.approx(eps_n)
        assert res["bounds"]["delta1"] == pytest.approx(bounds.delta1(1, 15, 2, eps_n))

    def test_worked_conditional_pair(self, tmp_path, capsys):
        sec = token_file(tmp_path, "sec.txt", EXAMPLE_B_SECONDARY)
        pri = token_file(tmp_path, "pri.txt", EXAMPLE_B_PRIMARY)
        code, rep, _, _ = run(capsys, "analyze", sec, "--side-info", pri)
        assert code == 0
        res = rep["results"]
        cond = res["conditional"]
        assert cond["c_joint"] == 4
        assert cond["c_prime"] == 3
        assert sorted(cond["c_l"]) == [1, 1, 2]
        assert cond["rho_cond"] == pytest.approx(1 / 3)
        assert cond["rho_joint"] == pytest.approx(4 * 2 / 6)
        assert res["beta"] == 2 and res["gamma"] == 2
        assert "delta2" in res["bounds"]

    def test_block_fields_match_library(self, tmp_path, capsys):
        f = token_file(tmp_path, "a.txt", EXAMPLE_A, "a b")
        code, rep, _, _ = run(capsys, "analyze", f, "--block-len", "3")
        assert code == 0
        blk = rep["results"]["block"]
        seq = cli.load_sequence(f)
        assert blk["h_block"] == pytest.approx(block_empirics(seq, None, 3).h_joint)
        assert blk["entropy_inequality"]["holds"] is True

    def test_conditional_block_fields(self, tmp_path, capsys):
        sec = token_file(tmp_path, "sec.txt", EXAMPLE_B_SECONDARY)
        pri = token_file(tmp_path, "pri.txt", EXAMPLE_B_PRIMARY)
        code, rep, _, _ = run(capsys, "analyze", sec, "--side-info", pri,
                              "--block-len", "2")
        assert code == 0
        blk = rep["results"]["block"]
        emp = block_empirics(bits(EXAMPLE_B_PRIMARY), bits(EXAMPLE_B_SECONDARY), 2)
        assert blk["h_joint"] == pytest.approx(emp.h_joint)
        assert blk["h_cond"] == pytest.approx(emp.h_cond)
        assert blk["cond_entropy_inequality"]["holds"] is True

    def test_block_checks_walk_each_sequence_once(self, tmp_path, capsys, walks,
                                                  monkeypatch):
        # --block-len: the inequalities read the parse and the joint parse the
        # report has, and one block_empirics per call feeds them; only the side
        # information's own plain parse is new
        rng = random.Random(5)
        x = "".join(rng.choice("acgt") for _ in range(2000))
        side = "".join(c if rng.random() < 0.9 else rng.choice("acgt") for c in x)
        f = token_file(tmp_path, "x.txt", x, "a c g t")
        g = token_file(tmp_path, "side.txt", side, "a c g t")
        built = []

        def counted(*args):
            built.append(args)
            return block_empirics(*args)

        monkeypatch.setattr(empirics, "block_empirics", counted)
        code, rep, _, _ = run(capsys, "analyze", f, "--block-len", "4")
        assert code == 0 and walks == {"_lz_walk": 1, "_joint_walk": 0}
        assert len(built) == 1
        seq, aux = cli.load_sequence(f), cli.load_sequence(g)
        walks["_lz_walk"] = 0
        assert rep["results"]["block"]["entropy_inequality"] == (
            oracles.check_entropy_inequality(seq, 4))
        walks["_lz_walk"], built[:] = 0, []
        code, rep, _, _ = run(capsys, "analyze", f, "--side-info", g, "--block-len", "4")
        # the plain parse of x, the joint parse (a plain walk of the pair
        # letters) and the plain parse of the side information
        assert code == 0 and walks == {"_lz_walk": 3, "_joint_walk": 1}
        assert len(built) == 1
        blk = rep["results"]["block"]
        assert blk["entropy_inequality"] == oracles.check_entropy_inequality(aux, 4)
        assert blk["cond_entropy_inequality"] == (
            oracles.check_cond_entropy_inequality(seq, aux, 4))

    def test_bad_block_length_lists_divisors(self, tmp_path, capsys):
        f = token_file(tmp_path, "a.txt", EXAMPLE_A, "a b")
        code, _, out, err = run(capsys, "analyze", f, "--block-len", "4")
        assert code == 2
        assert out == ""
        assert "usable block lengths: divisors of 15: [1, 3, 5, 15]" in err

    def test_short_sequence_skips_bound_terms(self, tmp_path, capsys):
        p = tmp_path / "one.bin"
        p.write_bytes(b"a")
        code, rep, _, _ = run(capsys, "analyze", str(p))
        assert code == 0
        assert rep["results"]["n"] == 1
        assert rep["results"]["phrases"] == ["97"]
        assert "bounds" not in rep["results"]

    def test_long_sequences_omit_phrase_listing(self, tmp_path, capsys):
        f = token_file(tmp_path, "long.txt", "01" * 40)
        code, rep, _, _ = run(capsys, "analyze", f)
        assert code == 0
        assert rep["results"]["n"] == 80
        assert rep["results"]["phrases"] is None

    def test_report_envelope(self, tmp_path, capsys):
        f = token_file(tmp_path, "a.txt", EXAMPLE_A, "a b")
        code, rep, out, _ = run(capsys, "analyze", f)
        assert code == 0
        assert set(rep) == {"command", "inputs", "parameters", "results",
                            "report_version", "timing"}
        assert rep["command"] == "analyze"
        assert rep["report_version"] == 1
        assert rep["timing"] is None
        assert rep["inputs"][f] == f"{fnv1a64(Path(f).read_bytes()):016x}"
        assert out == json.dumps(rep, sort_keys=True, indent=2) + "\n"


class TestEpsModes:
    def test_flag_selects_mode(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0110")
        _, rep, _, _ = run(capsys, "analyze", f, "--eps-mode", "zero")
        assert rep["parameters"]["eps_mode"] == "zero"
        assert rep["results"]["bounds"]["eps_n"] == 0.0

    def test_env_var_is_ignored(self, tmp_path, capsys, monkeypatch):
        # the mode comes from --eps-mode alone: the same argv, the same report
        f = token_file(tmp_path, "s.txt", "0110")
        _, _, plain, _ = run(capsys, "analyze", f)
        monkeypatch.setenv("SRLZ_EPS_MODE", "zero")
        _, rep, out, _ = run(capsys, "analyze", f)
        assert out == plain
        assert rep["parameters"]["eps_mode"] == "default"
        assert rep["results"]["bounds"]["eps_n"] == pytest.approx(
            bounds.eps_n_value(4, 2, "default"))

    def test_flag_overrides_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SRLZ_EPS_MODE", "zero")
        f = token_file(tmp_path, "s.txt", "0110")
        _, rep, _, _ = run(capsys, "analyze", f, "--eps-mode", "default")
        assert rep["parameters"]["eps_mode"] == "default"
        assert rep["results"]["bounds"]["eps_n"] == pytest.approx(
            bounds.eps_n_value(4, 2, "default"))

    def test_custom_value_mode(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0110")
        _, rep, _, _ = run(capsys, "analyze", f, "--eps-mode", "custom:0.25")
        assert rep["results"]["bounds"]["eps_n"] == 0.25

    def test_malformed_custom_value_exits_2(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0110")
        code, _, _, err = run(capsys, "analyze", f, "--eps-mode", "custom:oops")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("analyze", "{x}"),
        ("analyze", "{one}"),
        ("encode", "{x}", "--mode", "lz", "-o", "{out}"),
        ("region", "pair", "{x}", "{x}"),
        ("verify", "--suite", "split-lemma", "--budget", "10"),
        ("verify", "--suite", "kraft"),
        ("verify", "--suite", "frontier", "--budget", "2"),
    ], ids=["analyze", "analyze-n1", "encode-lz", "region-pair", "verify-split-lemma",
            "verify-kraft", "verify-frontier"])
    @pytest.mark.parametrize("mode", ["garbage", "", "custom:1.5"])
    def test_malformed_mode_exits_2_on_every_subcommand(self, argv, mode, tmp_path, capsys):
        # also where nothing resolves the mode: a one-symbol analyze, encode
        # lz, and the suites that take no slack
        paths = {"x": token_file(tmp_path, "x.txt", "01101001"),
                 "one": token_file(tmp_path, "one.txt", "0"), "out": tmp_path / "o"}
        argv = [a.format(**paths) for a in argv]
        code, rep, _, err = run(capsys, *argv, "--eps-mode", mode)
        assert (code, rep) == (2, None)
        assert "error: --eps-mode: " in err
        assert run(capsys, *argv)[0] == 0


class TestEncodeDecode:
    def test_lz_bytes_round_trip(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(bytes((i * 37 + 11) % 251 for i in range(300)))
        stream = str(tmp_path / "out.lzc")
        code, rep, _, _ = run(capsys, "encode", str(src), "--mode", "lz",
                              "-o", stream)
        assert code == 0
        res = rep["results"]
        assert res["n"] == 300
        assert res["payload_bits"] <= res["payload_bound_bits"]
        assert res["rate"] == pytest.approx(res["payload_bits"] / 300)
        out_entry = res["outputs"][0]
        data = open(stream, "rb").read()
        assert out_entry["bytes"] == len(data)
        assert out_entry["checksum"] == f"{fnv1a64(data):016x}"
        back = str(tmp_path / "back.bin")
        code, rep, _, _ = run(capsys, "decode", stream, "--mode", "lz", "-o", back)
        assert code == 0
        assert open(back, "rb").read() == src.read_bytes()
        assert rep["results"]["outputs"][0]["n"] == 300

    def test_encode_reads_its_counts_from_the_encoder(self, tmp_path, capsys, walks):
        # lz: the report's parse figures come from the one encoding walk; cond:
        # the encoder's own loop gives c_joint, c_prime and rho_cond, no walk
        rng = random.Random(3)
        x = "".join(rng.choice("acgt") for _ in range(2000))
        side = "".join(c if rng.random() < 0.9 else rng.choice("acgt") for c in x)
        f = token_file(tmp_path, "x.txt", x, "a c g t")
        g = token_file(tmp_path, "side.txt", side, "a c g t")
        code, rep, _, _ = run(capsys, "encode", f, "--mode", "lz", "-o", str(tmp_path / "o1"))
        assert code == 0 and walks == {"_lz_walk": 1, "_joint_walk": 0}
        pr = parse(cli.load_sequence(f))
        res = rep["results"]
        assert (res["phrase_count"], res["rho_lz"], res["payload_bound_bits"]) == (
            pr.c, pr.rho_lz, pr.code_len_bound)
        walks["_lz_walk"] = 0
        code, rep, _, _ = run(capsys, "encode", f, "--mode", "cond", "--side-info", g,
                              "-o", str(tmp_path / "o2"))
        assert code == 0 and walks == {"_lz_walk": 0, "_joint_walk": 0}
        jp = joint_parse(cli.load_sequence(g), cli.load_sequence(f))
        res = rep["results"]
        assert (res["c_joint"], res["c_prime"], res["rho_cond"]) == (
            jp.c_joint, jp.c_prime, jp.rho_cond)

    def test_lz_token_alphabet_round_trip(self, tmp_path, capsys):
        f = token_file(tmp_path, "src.txt", "abacabadabacaba", "a b c d")
        stream = str(tmp_path / "out.lzc")
        assert run(capsys, "encode", f, "--mode", "lz", "-o", stream)[0] == 0
        back = str(tmp_path / "back.txt")
        assert run(capsys, "decode", stream, "--mode", "lz", "-o", back)[0] == 0
        assert cli.load_sequence(back).symbols() == cli.load_sequence(f).symbols()

    def test_numeric_names_that_are_not_byte_names_stay_tokens(self, tmp_path, capsys):
        # "1" and "01" both read as the integer 1; as bytes they would merge
        f = token_file(tmp_path, "src.txt", ["1", "01", "1", "01"], "1 01")
        stream = str(tmp_path / "out.lzc")
        assert run(capsys, "encode", f, "--mode", "lz", "-o", stream)[0] == 0
        back = tmp_path / "back.txt"
        assert run(capsys, "decode", stream, "--mode", "lz", "-o", str(back))[0] == 0
        assert back.read_text(encoding="utf-8") == open(f, encoding="utf-8").read()
        code, _, _, err = run(capsys, "decode", stream, "--mode", "lz", "--format", "bytes",
                              "-o", str(tmp_path / "back.bin"))
        assert code == 2
        assert "not byte values" in err

    def test_lz_rejects_extra_inputs(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        code, _, _, err = run(capsys, "encode", f, f, "--mode", "lz",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "mode lz takes exactly one input file" in err

    def test_cond_round_trip_and_report(self, tmp_path, capsys):
        sec = token_file(tmp_path, "sec.txt", EXAMPLE_B_SECONDARY)
        pri = token_file(tmp_path, "pri.txt", EXAMPLE_B_PRIMARY)
        stream = str(tmp_path / "out.czc")
        code, rep, _, _ = run(capsys, "encode", sec, "--mode", "cond",
                              "--side-info", pri, "-o", stream)
        assert code == 0
        res = rep["results"]
        jp = joint_parse(bits(EXAMPLE_B_PRIMARY), bits(EXAMPLE_B_SECONDARY))
        assert res["c_joint"] == jp.c_joint and res["c_prime"] == jp.c_prime
        assert res["rho_cond"] == pytest.approx(jp.rho_cond)
        back = str(tmp_path / "back.txt")
        code, _, _, _ = run(capsys, "decode", stream, "--mode", "cond",
                            "--side-info", pri, "-o", back)
        assert code == 0
        assert cli.load_sequence(back).symbols() == list(EXAMPLE_B_SECONDARY)

    def test_cond_requires_side_info(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        code, _, _, err = run(capsys, "encode", f, "--mode", "cond",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "plus --side-info" in err
        code, _, _, err = run(capsys, "decode", f, "--mode", "cond",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "plus --side-info" in err

    def test_decode_mode_mismatch_exits_2(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "01010011")
        pri = token_file(tmp_path, "p.txt", "01100110")
        stream = str(tmp_path / "out.lzc")
        run(capsys, "encode", f, "--mode", "lz", "-o", stream)
        code, _, _, err = run(capsys, "decode", stream, "--mode", "cond",
                              "--side-info", pri, "-o", str(tmp_path / "b"))
        assert code == 2
        assert "error:" in err

    def test_decode_truncated_stream_exits_2(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "01010011")
        stream = tmp_path / "out.lzc"
        run(capsys, "encode", f, "--mode", "lz", "-o", str(stream))
        (tmp_path / "cut.lzc").write_bytes(stream.read_bytes()[:6])
        code, _, _, _ = run(capsys, "decode", str(tmp_path / "cut.lzc"),
                            "--mode", "lz", "-o", str(tmp_path / "b"))
        assert code == 2

    def test_sr_given_reproductions_round_trip(self, tmp_path, capsys):
        x = token_file(tmp_path, "x.txt", "0110100110010110")
        xhat = token_file(tmp_path, "xhat.txt", "0000000000000000")
        xtilde = token_file(tmp_path, "xtilde.txt", "0110100110010110")
        stream = str(tmp_path / "out.src")
        code, rep, _, _ = run(capsys, "encode", x, xhat, xtilde,
                              "--mode", "sr", "-o", stream)
        assert code == 0
        res = rep["results"]
        assert res["selection"] == {"search_mode": "given"}
        assert res["rates"]["sum"] == pytest.approx(res["rates"]["r1"] + res["rates"]["r2"])
        assert res["distortion"]["stage1"] == pytest.approx(0.5)
        assert res["distortion"]["stage2"] == 0.0
        assert "floors" in res and "ceilings" in res
        fine = str(tmp_path / "fine.txt")
        coarse = str(tmp_path / "coarse.txt")
        code, rep, _, _ = run(capsys, "decode", stream, "--mode", "sr",
                              "-o", fine, "--coarse-output", coarse)
        assert code == 0
        assert cli.load_sequence(fine).symbols() == list("0110100110010110")
        assert cli.load_sequence(coarse).symbols() == list("0000000000000000")
        stages = {o["stage"] for o in rep["results"]["outputs"]}
        assert stages == {1, 2}
        only1 = str(tmp_path / "only1.txt")
        code, rep, _, _ = run(capsys, "decode", stream, "--mode", "sr",
                              "--stage", "1", "-o", only1)
        assert code == 0
        assert cli.load_sequence(only1).symbols() == list("0000000000000000")
        assert rep["results"]["outputs"][0]["stage"] == 1

    def test_sr_searches_reproductions_from_source(self, tmp_path, capsys):
        x = token_file(tmp_path, "x.txt", "0110100110010110")
        stream = str(tmp_path / "out.src")
        code, rep, _, _ = run(capsys, "encode", x, "--mode", "sr",
                              "--d1", "0.25", "--d2", "0.0", "-o", stream)
        assert code == 0
        res = rep["results"]
        assert res["distortion"]["stage1"] <= 0.25 + 1e-9
        assert res["distortion"]["stage2"] == 0.0
        assert res["selection"]["search_mode"] in ("exhaustive", "greedy")
        fine = str(tmp_path / "fine.txt")
        assert run(capsys, "decode", stream, "--mode", "sr", "-o", fine)[0] == 0
        assert cli.load_sequence(fine).symbols() == list("0110100110010110")

    def test_sr_rejects_two_inputs(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        code, _, _, err = run(capsys, "encode", f, f, "--mode", "sr",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "source + two reproduction files" in err

    def test_md_egc_round_trip_all_decoders(self, tmp_path, capsys):
        hat_text = "0110100110010110"
        tilde_text = "0110100110010111"
        check_text = "0110100110010110"
        xhat = token_file(tmp_path, "hat.txt", hat_text)
        xtilde = token_file(tmp_path, "tilde.txt", tilde_text)
        xcheck = token_file(tmp_path, "check.txt", check_text)
        base = str(tmp_path / "md")
        code, rep, _, _ = run(capsys, "encode", xhat, xtilde, xcheck,
                              "--mode", "md-egc", "--split", "0.5", "-o", base)
        assert code == 0
        res = rep["results"]
        assert [o["path"] for o in res["outputs"]] == [base + ".d1", base + ".d2"]
        assert "outer_region" in res and "inner_region" in res
        got1 = str(tmp_path / "got1.txt")
        code, _, _, _ = run(capsys, "decode", base + ".d1", "--mode", "md-egc",
                            "--decoder", "1", "-o", got1)
        assert code == 0
        assert cli.load_sequence(got1).symbols() == list(hat_text)
        got2 = str(tmp_path / "got2.txt")
        code, _, _, _ = run(capsys, "decode", base + ".d2", "--mode", "md-egc",
                            "--decoder", "2", "-o", got2)
        assert code == 0
        assert cli.load_sequence(got2).symbols() == list(tilde_text)
        prefix = str(tmp_path / "joint")
        code, rep, _, _ = run(capsys, "decode", base + ".d1", base + ".d2",
                              "--mode", "md-egc", "-o", prefix)
        assert code == 0
        roles = {o["role"]: o["path"] for o in rep["results"]["outputs"]}
        assert set(roles) == {"hat", "tilde", "check"}
        assert cli.load_sequence(roles["hat"]).symbols() == list(hat_text)
        assert cli.load_sequence(roles["tilde"]).symbols() == list(tilde_text)
        assert cli.load_sequence(roles["check"]).symbols() == list(check_text)

    def test_md_zb_from_source_identity_levels(self, tmp_path, capsys):
        text = "0110100110010110"
        x = token_file(tmp_path, "x.txt", text)
        base = str(tmp_path / "md")
        code, rep, _, _ = run(capsys, "encode", x, "--mode", "md-zb",
                              "--d1", "0.0", "--d2", "0.0", "-o", base)
        assert code == 0
        assert "outer_region" in rep["results"]
        got = str(tmp_path / "got.txt")
        aux = str(tmp_path / "aux.txt")
        code, rep, _, _ = run(capsys, "decode", base + ".d1", "--mode", "md-zb",
                              "--decoder", "1", "-o", got, "--aux-output", aux)
        assert code == 0
        assert cli.load_sequence(got).symbols() == list(text)
        roles = [o.get("role") for o in rep["results"]["outputs"]]
        assert "aux" in roles
        expect_u = mdc.default_auxiliary(bits(text), levels=2)
        assert cli.load_sequence(aux).data == expect_u.data
        prefix = str(tmp_path / "joint")
        code, rep, _, _ = run(capsys, "decode", base + ".d1", base + ".d2",
                              "--mode", "md-zb", "-o", prefix)
        assert code == 0
        roles = {o["role"] for o in rep["results"]["outputs"]}
        assert roles == {"aux", "hat", "tilde", "check"}
        assert cli.load_sequence(prefix + ".check").symbols() == list(text)

    def test_md_zb_explicit_auxiliary_file(self, tmp_path, capsys):
        xhat = token_file(tmp_path, "hat.txt", "0110100110010110")
        xtilde = token_file(tmp_path, "tilde.txt", "0110100110010111")
        xcheck = token_file(tmp_path, "check.txt", "0110100110010110")
        u = token_file(tmp_path, "u.txt", "0101010101010101")
        base = str(tmp_path / "md")
        code, rep, _, _ = run(capsys, "encode", xhat, xtilde, xcheck,
                              "--mode", "md-zb", "--u-file", u, "-o", base)
        assert code == 0
        assert u in rep["inputs"]
        got = str(tmp_path / "got.txt")
        aux = str(tmp_path / "aux.txt")
        code, _, _, _ = run(capsys, "decode", base + ".d2", "--mode", "md-zb",
                            "--decoder", "2", "-o", got, "--aux-output", aux)
        assert code == 0
        assert cli.load_sequence(aux).symbols() == list("0101010101010101")
        assert cli.load_sequence(got).symbols() == list("0110100110010111")

    @pytest.mark.parametrize("mode", ["md-egc", "md-zb"])
    def test_md_empty_files_round_trip(self, tmp_path, capsys, mode):
        paths = []
        for name in ("hat", "tilde", "check"):
            (tmp_path / name).write_bytes(b"")
            paths.append(str(tmp_path / name))
        base = str(tmp_path / "md")
        code, rep, _, err = run(capsys, "encode", *paths, "--mode", mode, "-o", base)
        assert code == 0, err
        assert rep["results"]["n"] == 0
        assert "inner_region" not in rep["results"]
        for decoder in ("1", "2"):
            got = str(tmp_path / ("got" + decoder))
            code, _, _, err = run(capsys, "decode", base + ".d" + decoder, "--mode", mode,
                                  "--decoder", decoder, "-o", got)
            assert code == 0, err
            assert Path(got).read_bytes() == b""
        code, rep, _, err = run(capsys, "decode", base + ".d1", base + ".d2",
                                "--mode", mode, "-o", str(tmp_path / "joint"))
        assert code == 0, err
        outputs = rep["results"]["outputs"]
        assert len(outputs) == (3 if mode == "md-egc" else 4)
        assert all(Path(o["path"]).read_bytes() == b"" for o in outputs)

    def test_md_usage_errors(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        code, _, _, err = run(capsys, "encode", f, f, "--mode", "md-egc",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "three reproduction files" in err
        base = str(tmp_path / "md")
        run(capsys, "encode", f, "--mode", "md-egc", "-o", base)
        code, _, _, err = run(capsys, "decode", base + ".d1", "--mode", "md-egc",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "pass --decoder 1 or 2" in err
        code, _, _, err = run(capsys, "decode", base + ".d1", base + ".d2",
                              "--mode", "md-egc", "--decoder", "1",
                              "-o", str(tmp_path / "o"))
        assert code == 2
        assert "take one description file" in err
        code, _, _, err = run(capsys, "decode", base + ".d1", "--mode", "md-egc",
                              "--decoder", "0", "-o", str(tmp_path / "o"))
        assert code == 2
        assert "takes both description files" in err

    @pytest.mark.parametrize("mode, streams, flags, dropped", [
        ("sr", ("x.src",), ("--stage", "1"), "--coarse-output"),
        ("md-egc", ("x.d1",), ("--decoder", "1"), "--aux-output"),
        ("md-egc", ("x.d1", "x.d2"), (), "--aux-output"),
        ("md-zb", ("x.d1", "x.d2"), (), "--aux-output"),
    ], ids=["sr-stage1", "md-egc-decoder1", "md-egc-decoder0", "md-zb-decoder0"])
    def test_decode_output_it_would_not_write_exits_2(self, tmp_path, capsys, mode,
                                                      streams, flags, dropped):
        """An extra output file the decode call does not write is refused by
        name, like a flag decode never defines, before anything is decoded, so
        no output appears."""
        f = token_file(tmp_path, "s.txt", "01101001")
        base = str(tmp_path / "x")
        enc = (f, f, f) if mode == "sr" else (f,)
        assert run(capsys, "encode", *enc, "--mode", mode, "-o",
                   base + ".src" if mode == "sr" else base)[0] == 0
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as si:
            cli.main(["decode", *(str(tmp_path / p) for p in streams), "--mode", mode,
                      *flags, "-o", str(tmp_path / "out"), dropped, str(tmp_path / "extra")])
        cap = capsys.readouterr()
        assert si.value.code == 2 and cap.out == ""
        assert f"error: unrecognized arguments: {dropped} {tmp_path / 'extra'}\n" in cap.err
        assert set(tmp_path.iterdir()) == before

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code, _, _, err = run(capsys, "analyze", str(tmp_path / "nope.bin"))
        assert code == 2
        assert "error:" in err

    def test_infeasible_level_exits_3(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "01100110")
        code, _, _, err = run(capsys, "encode", f, "--mode", "md-zb",
                              "--d1", "-1", "-o", str(tmp_path / "o"))
        assert code == 3
        assert "error:" in err

    def test_forced_token_output_format(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"abcdabcd")
        stream = str(tmp_path / "out.lzc")
        run(capsys, "encode", str(src), "--mode", "lz", "-o", stream)
        back = tmp_path / "back.txt"
        code, _, _, _ = run(capsys, "decode", stream, "--mode", "lz",
                            "-o", str(back), "--format", "tokens")
        assert code == 0
        assert back.read_bytes().startswith(b"alphabet:")
        assert cli.load_sequence(str(back)).to_bytes() == b"abcdabcd"

    def test_argparse_rejects_unknown_mode(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        with pytest.raises(SystemExit) as si:
            cli.main(["encode", f, "--mode", "zip", "-o", str(tmp_path / "o")])
        assert si.value.code == 2


class TestRegionCmd:
    def test_pair_region_matches_library(self, tmp_path, capsys):
        xhat = token_file(tmp_path, "hat.txt", "0000000011111111")
        xtilde = token_file(tmp_path, "tilde.txt", "0110100110010110")
        csv_path = str(tmp_path / "front.csv")
        code, rep, _, _ = run(capsys, "region", "pair", xhat, xtilde,
                              "--csv", csv_path)
        assert code == 0
        want = regions.region_for_pair(cli.load_sequence(xhat),
                                       cli.load_sequence(xtilde), 1, "default")
        got = rep["results"]["region"]
        assert got["a"] == pytest.approx(want.a)
        assert got["b"] == pytest.approx(want.b)
        front = rep["results"]["frontier"]
        assert front == [[p.r1, p.r2] for p in regions.frontier([want])]
        assert rep["results"]["csv"] == csv_path
        text = open(csv_path, encoding="utf-8").read()
        assert text.splitlines()[0] == "r1,r2"
        assert len(text.splitlines()) == 1 + len(front)

    def test_pair_region_wrong_input_count(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        code, _, _, err = run(capsys, "region", "pair", f)
        assert code == 2
        assert "coarse and fine sequence files" in err

    def test_blockwise_needs_block_len(self, tmp_path, capsys):
        xhat = token_file(tmp_path, "hat.txt", "00001111")
        xtilde = token_file(tmp_path, "tilde.txt", "01101001")
        code, _, _, err = run(capsys, "region", "blockwise", xhat, xtilde)
        assert code == 2
        assert "needs --block-len" in err
        code, rep, _, _ = run(capsys, "region", "blockwise", xhat, xtilde,
                              "--block-len", "4", "--side", "inner-plus")
        assert code == 0
        want = regions.blockwise_region(cli.load_sequence(xhat),
                                        cli.load_sequence(xtilde),
                                        1, 4, "inner-plus", "default")
        assert rep["results"]["region"]["a"] == pytest.approx(want.a)
        assert rep["results"]["region"]["b"] == pytest.approx(want.b)
        assert rep["parameters"]["block_len"] == 4
        assert rep["parameters"]["side"] == "inner-plus"

    @pytest.mark.parametrize("kind", ["pair", "blockwise", "md"])
    def test_empty_inputs_exit_2(self, tmp_path, capsys, kind):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        inputs = [str(empty)] * (3 if kind == "md" else 2)
        block_len = ("--block-len", "2") if kind == "blockwise" else ()
        code, _, out, err = run(capsys, "region", kind, *inputs, *block_len)
        assert code == 2 and out == ""
        assert "needs n >= 2" in err

    def test_sr_union_and_csv(self, tmp_path, capsys):
        x = token_file(tmp_path, "x.txt", "01101001")
        csv_path = str(tmp_path / "front.csv")
        code, rep, _, _ = run(capsys, "region", "sr", x, "--d1", "0.125",
                              "--d2", "0.0", "--csv", csv_path)
        assert code == 0
        res = rep["results"]
        assert len(res["members"]) >= 1
        assert len(res["frontier"]) >= 1
        assert "search" in res
        assert open(csv_path, encoding="utf-8").read().startswith("r1,r2")

    def test_md_region_fields(self, tmp_path, capsys):
        xhat = token_file(tmp_path, "hat.txt", "0110100110010110")
        xtilde = token_file(tmp_path, "tilde.txt", "0110100110010111")
        xcheck = token_file(tmp_path, "check.txt", "0110100110010110")
        u = token_file(tmp_path, "u.txt", "0101010101010101")
        code, rep, _, _ = run(capsys, "region", "md", xhat, xtilde, xcheck)
        assert code == 0
        res = rep["results"]
        assert set(res) >= {"outer", "egc_inner", "mi"}
        assert "zb_inner" not in res
        want_mi = oracles.empirical_mi(cli.load_sequence(xhat), cli.load_sequence(xtilde))
        assert res["mi"] == pytest.approx(want_mi)
        code, rep, _, _ = run(capsys, "region", "md", xhat, xtilde, xcheck,
                              "--u-file", u)
        assert code == 0
        res = rep["results"]
        assert "zb_inner" in res and "mi_given_aux" in res
        assert u in rep["inputs"]

    def test_md_region_rejects_csv(self, tmp_path, capsys):
        """md has no staircase: --csv is refused before any input is read."""
        xhat = token_file(tmp_path, "hat.txt", "01101001")
        xtilde = token_file(tmp_path, "tilde.txt", "01101011")
        xcheck = token_file(tmp_path, "check.txt", "01101001")
        csv_path = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as si:
            cli.main(["region", "md", xhat, xtilde, xcheck, "--csv", str(csv_path)])
        cap = capsys.readouterr()
        assert si.value.code == 2 and cap.out == ""
        assert f"error: unrecognized arguments: --csv {csv_path}\n" in cap.err
        assert not csv_path.exists()

    def test_md_region_wrong_input_count(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0101")
        code, _, _, err = run(capsys, "region", "md", f, f)
        assert code == 2
        assert "coarse, fine, and central files" in err


class TestVerifyCmd:
    def test_split_lemma_suite_passes(self, capsys):
        code, rep, _, _ = run(capsys, "verify", "--suite", "split-lemma",
                              "--budget", "500")
        assert code == 0
        res = rep["results"]
        assert res["holds"] is True
        assert res["checks"] == 500
        assert rep["parameters"]["suite"] == "split-lemma"

    def test_frontier_suite_passes(self, capsys):
        code, rep, _, _ = run(capsys, "verify", "--suite", "frontier",
                              "--budget", "5", "--seed", "3")
        assert code == 0
        assert rep["results"]["holds"] is True
        assert rep["results"]["unions"] == 5

    def test_entropy_suites_pass(self, capsys):
        code, rep, _, _ = run(capsys, "verify", "--suite", "entropy-ineq",
                              "--n", "8", "--block-lens", "1,2")
        assert code == 0
        assert rep["results"]["sequences"] == 256
        assert rep["results"]["checks"] == 512
        code, rep, _, _ = run(capsys, "verify", "--suite", "cond-entropy-ineq",
                              "--n", "4", "--block-lens", "1,2")
        assert code == 0
        assert rep["results"]["pairs"] == 256

    def test_sandwich_suite_small(self, capsys):
        code, rep, _, _ = run(capsys, "verify", "--suite", "sandwich",
                              "--budget", "2", "--n", "16")
        assert code == 0
        assert rep["results"]["holds"] is True
        assert rep["results"]["pairs"] == 2

    def test_converse_zero_slack_flags_violation(self, capsys):
        code, rep, _, _ = run(capsys, "verify", "--suite", "converse",
                              "--eps-mode", "zero", "--budget", "1",
                              "--n", "1024")
        assert code == 1
        res = rep["results"]
        assert res["holds"] is False
        assert res["adversarial"]["violations"]
        code, rep, _, _ = run(capsys, "verify", "--suite", "converse",
                              "--budget", "1", "--n", "1024")
        assert code == 0
        assert rep["results"]["holds"] is True

    def test_converse_suite_at_budget_zero(self, capsys):
        code, rep, _, _ = run(capsys, "verify", "--suite", "converse", "--budget", "0")
        assert code == 0
        assert rep["results"]["holds"] is True
        assert rep["results"]["random"]["pairs"] == 0

    def test_bad_block_lens_exit_2(self, capsys):
        code, _, _, err = run(capsys, "verify", "--suite", "entropy-ineq",
                              "--block-lens", "1,x")
        assert code == 2
        assert "comma-separated integers" in err
        code, _, _, err = run(capsys, "verify", "--suite", "entropy-ineq",
                              "--block-lens", "0")
        assert code == 2
        assert "must be positive" in err

    def test_argparse_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as si:
            cli.main(["verify", "--suite", "everything"])
        assert si.value.code == 2

    @pytest.mark.parametrize("suite", ["split-lemma", "sandwich", "frontier", "converse"])
    def test_negative_budget_exits_2(self, suite, capsys):
        code, rep, _, err = run(capsys, "verify", "--suite", suite, "--budget", "-5")
        assert (code, rep) == (2, None)
        assert "error: --budget must be nonnegative" in err


@pytest.mark.parametrize("argv", [
    ("decode", "{lzc}", "--mode", "lz", "-o", "{out}", "--eps-mode", "zero"),
    ("decode", "{lzc}", "--mode", "lz", "-o", "{out}", "--q", "2"),
    ("verify", "--suite", "split-lemma", "--budget", "10", "--format", "tokens"),
    ("verify", "--suite", "entropy-ineq", "--n", "8", "--beta", "2"),
    ("verify", "--suite", "cond-entropy-ineq", "--n", "4", "--gamma", "2"),
    ("region", "sr", "{x}", "--d1", "0.2", "--weight", "0.5"),
    ("encode", "{x}", "--mode", "lz", "-o", "{out}", "--seed", "3"),
    ("encode", "{x}", "--mode", "cond", "--side-info", "{x}", "-o", "{out}",
     "--objective", "min-sum"),
    ("encode", "{x}", "--mode", "md-egc", "-o", "{out}", "--weight", "0.3"),
    ("encode", "{x}", "{x}", "{x}", "--mode", "sr", "-o", "{out}", "--seed", "0"),
    # flags another path of the same subcommand reads (its module's READS)
    ("decode", "{lzc}", "--mode", "lz", "-o", "{out}", "--side-info", "{x}"),
    ("decode", "{lzc}", "--mode", "lz", "-o", "{out}", "--stage", "1"),
    ("decode", "{src}", "--mode", "sr", "-o", "{out}", "--decoder", "1"),
    ("encode", "{x}", "--mode", "lz", "-o", "{out}", "--side-info", "{x}"),
    ("encode", "{x}", "--mode", "md-zb", "-o", "{out}", "--split", "0.3"),
    ("encode", "{x}", "--mode", "md-egc", "-o", "{out}", "--alpha", "0.3"),
    ("encode", "{x}", "--mode", "md-egc", "-o", "{out}", "--u-file", "{x}"),
    ("encode", "{x}", "--mode", "lz", "-o", "{out}", "--d1", "0.25"),
    ("encode", "{x}", "{x}", "{x}", "--mode", "sr", "-o", "{out}", "--d1", "0.25"),
    ("encode", "{x}", "{x}", "{x}", "--mode", "md-zb", "-o", "{out}", "--d1", "0.25"),
    ("encode", "{x}", "--mode", "cond", "--side-info", "{x}", "-o", "{out}",
     "--distortion", "absdiff"),
    ("region", "pair", "{x}", "{x}", "--block-len", "2"),
    ("region", "pair", "{x}", "{x}", "--u-file", "{x}"),
    ("region", "md", "{x}", "{x}", "{x}", "--seed", "3"),
    ("verify", "--suite", "kraft", "--n", "4"),
    ("verify", "--suite", "entropy-ineq", "--n", "8", "--budget", "3"),
    ("verify", "--suite", "converse", "--budget", "0", "--block-lens", "1,2"),
    ("verify", "--suite", "kraft", "--seed", "3"),
], ids=["decode-eps-mode", "decode-q", "verify-format", "verify-beta", "verify-gamma",
        "region-weight", "encode-lz-seed", "encode-cond-objective", "encode-md-egc-weight",
        "encode-sr-given-seed", "decode-lz-side-info", "decode-lz-stage",
        "decode-sr-decoder", "encode-lz-side-info", "encode-md-zb-split",
        "encode-md-egc-alpha", "encode-md-egc-u-file", "encode-lz-d1", "encode-sr-given-d1",
        "encode-md-zb-given-d1", "encode-cond-distortion", "region-pair-block-len",
        "region-pair-u-file", "region-md-seed", "verify-kraft-n",
        "verify-entropy-ineq-budget", "verify-converse-block-lens", "verify-kraft-seed"])
def test_a_flag_the_subcommand_never_reads_exits_2(argv, tmp_path, capsys):
    x = token_file(tmp_path, "x.txt", "0110100110")
    lzc, src = str(tmp_path / "x.lzc"), str(tmp_path / "x.src")
    assert run(capsys, "encode", x, "--mode", "lz", "-o", lzc)[0] == 0
    assert run(capsys, "encode", x, x, x, "--mode", "sr", "-o", src)[0] == 0
    argv = [a.format(lzc=lzc, src=src, x=x, out=tmp_path / "out.txt") for a in argv]
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as si:
        cli.main(argv)
    cap = capsys.readouterr()
    assert si.value.code == 2 and cap.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) + "\n" in cap.err
    assert set(tmp_path.iterdir()) == before
    # the same call without the flag runs
    assert run(capsys, *argv[:-2])[0] == 0


def test_reads_table_covers_every_flag_and_path():
    """Each optional flag of a subcommand is shared or in a row of its
    module's READS, no row names a flag the subcommand lacks, and the calls
    of every path reach every row and no other key."""
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert tuple(subparsers) == cli.COMMANDS
    modules = {name: importlib.import_module(f"srlz.cmd_{name}") for name in cli.COMMANDS}
    for name, sub in subparsers.items():
        flags = {a.option_strings[-1] for a in sub._actions if a.option_strings} - {"--help"}
        read = set().union(*modules[name].READS.values())
        assert flags <= read | set(cli.SHARED), name
        assert read <= flags, name
    kinds = next(a.choices for a in subparsers["region"]._actions if a.dest == "kind")
    calls = [["analyze", "x"]]
    calls += [["encode", *["x"] * k, "--mode", m, "-o", "o"] for m in cli.MODES for k in (1, 3)]
    calls += [["decode", "x", "--mode", m, "-o", "o", *f] for m in cli.MODES
              for f in ((), ("--stage", "1"), ("--decoder", "0"), ("--decoder", "2"))]
    calls += [["region", k, "x"] for k in kinds]
    calls += [["verify", "--suite", s] for s in modules["verify"].SUITES]
    reached = set()
    for argv in calls:
        args = parser.parse_args(argv)
        assert args.cmd is modules[argv[0]]
        reached.add((argv[0], args.cmd.row(args)))
        assert cli._reads(args) == {*cli.SHARED, *args.cmd.READS[args.cmd.row(args)]}
    assert reached == {(name, key) for name, mod in modules.items() for key in mod.READS}


def test_readme_cli_examples_pass_only_flags_their_calls_read():
    """Every `srlz` line of README's command-line section parses, and its call
    reads each flag it gives; nothing runs, so no file is opened."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [ln.split("#")[0] for ln in section.splitlines() if ln.startswith("srlz ")]
    assert len(lines) == 22
    sample = {"L": "2", "Q": "1"}  # the integer placeholders of analyze's usage line
    for line in lines:
        argv = [sample.get(tok.strip("[]"), tok.strip("[]")) for tok in shlex.split(line)[1:]]
        args = cli.build_parser().parse_args(argv)
        assert set(args.given) <= cli._reads(args), line


def outcome(capsys, argv):
    """Exit code, stdout and stderr of cli.main(argv), which may exit through argparse."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


TOP_USAGE = "usage: srlz [-h] {analyze,encode,decode,region,verify} ...\n"
# calls that end in argparse's help or usage error; none of them opens a file
HELP_AND_USAGE = {
    "no-arguments": [],
    "help": ["--help"],
    "unknown-subcommand": ["nope"],
    **{f"{name}-help": [name, "--help"] for name in cli.COMMANDS},
    "flag-the-subcommand-lacks": ["encode", "x.bin", "--mode", "lz", "-o", "o.lzc",
                                  "--bogus", "1"],
    "flag-only-another-subcommand-defines": ["decode", "x.lzc", "--mode", "lz", "-o", "o",
                                             "--split", "0.5"],
    "extra-positional": ["analyze", "x.bin", "extra"],
    "flag-the-call-does-not-read": ["encode", "x.bin", "--mode", "lz", "-o", "o.lzc",
                                    "--seed", "3"],
    "suite-flag-the-call-does-not-read": ["verify", "--suite", "kraft", "--n", "4"],
    "bad-mode": ["encode", "x.bin", "--mode", "zip", "-o", "o.lzc"],
    "bad-region-kind": ["region", "nope", "x.bin"],
    "missing-required-flag": ["decode", "x.lzc", "-o", "o"],
    "missing-input": ["analyze"],
}


@pytest.mark.parametrize("argv", HELP_AND_USAGE.values(), ids=HELP_AND_USAGE)
def test_help_and_usage_errors_are_the_full_parsers_bytes(argv, capsys, monkeypatch):
    """A call that names its subcommand builds only that subparser; what it
    prints on --help or a usage error is still the full parser's output."""
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    want = outcome(capsys, argv)
    assert got == want
    assert got[0] in (0, 2)
    # a top-level usage line names every subcommand, never just the one called
    printed = got[1] + got[2]
    assert TOP_USAGE in printed or "usage: srlz [-h] {" not in printed


# the shortest valid call of each subcommand: a flag it lacks stops it before
# any file is opened
SHORTEST = {"analyze": ["x"], "encode": ["x", "--mode", "lz", "-o", "o"],
            "decode": ["x", "--mode", "lz", "-o", "o"], "region": ["pair", "x"],
            "verify": ["--suite", "kraft"]}


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_a_named_subcommand_builds_only_its_own_parser(name, tmp_path):
    """Its parser registers every subcommand but fills only `name`'s, and
    neither building it nor a top-level usage error loads another command
    module."""
    code = (
        "import sys\nfrom srlz import cli\n"
        f"parser = cli.build_parser({name!r})\n"
        "subs = parser._subparsers._group_actions[0].choices\n"
        "print(list(subs), [n for n, p in subs.items() if len(p._actions) > 1])\n"
        "try:\n"
        f"    cli.main({[name, *SHORTEST[name], '--bogus', '1']!r})\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, sorted(m for m in sys.modules if m.startswith('srlz.cmd_')))\n")
    proc = run_child([sys.executable, "-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{list(cli.COMMANDS)} {[name]}",
                                        f"2 {['srlz.cmd_' + name]}"]
    assert proc.stderr.startswith(TOP_USAGE)
    assert proc.stderr.endswith("srlz: error: unrecognized arguments: --bogus 1\n")


def test_patching_cli_save_sequence_changes_what_decode_writes(tmp_path, capsys, monkeypatch):
    # command modules reach the file I/O through cli, never through copies
    # bound at import, so a patch of cli.save_sequence (the benchmark's planted
    # fault is one) reaches every file decode writes
    x = token_file(tmp_path, "x.txt", "0110100110010110")
    lzc, ref, out = (str(tmp_path / name) for name in ("x.lzc", "ref.txt", "out.txt"))
    assert run(capsys, "encode", x, "--mode", "lz", "-o", lzc)[0] == 0
    assert run(capsys, "decode", lzc, "--mode", "lz", "-o", ref)[0] == 0
    save = cli.save_sequence

    def flipped(seq, path, fmt="auto"):
        data = bytearray(save(seq, path, fmt))
        data[0] ^= 1
        Path(path).write_bytes(data)
        return bytes(data)

    monkeypatch.setattr(cli, "save_sequence", flipped)
    code, rep, _, err = run(capsys, "decode", lzc, "--mode", "lz", "-o", out)
    assert code == 0, err
    want = bytearray(Path(ref).read_bytes())
    want[0] ^= 1
    assert Path(out).read_bytes() == want
    assert rep["results"]["outputs"][0]["checksum"] == f"{fnv1a64(want):016x}"


@pytest.mark.parametrize("argv", [
    ("analyze", "{x}", "--side-info", "{y}"),
    ("encode", "{x}", "--mode", "lz", "-o", "{out}"),
    ("encode", "{x}", "--mode", "cond", "--side-info", "{y}", "-o", "{out}"),
    ("encode", "{x}", "--mode", "sr", "--d1", "0.25", "-o", "{out}"),
    ("encode", "{x}", "{y}", "{z}", "--mode", "sr", "-o", "{out}"),
    ("encode", "{x}", "--mode", "md-egc", "-o", "{out}"),
    ("encode", "{x}", "{y}", "{z}", "--mode", "md-zb", "--u-file", "{u}", "-o", "{out}"),
    ("region", "pair", "{x}", "{y}"),
    ("region", "blockwise", "{x}", "{y}", "--block-len", "4"),
    ("region", "sr", "{x}", "--d1", "0.25"),
    ("region", "md", "{x}", "{y}", "{z}", "--u-file", "{u}"),
], ids=["analyze", "encode-lz", "encode-cond", "encode-sr", "encode-sr-given",
        "encode-md-egc", "encode-md-zb", "region-pair", "region-blockwise", "region-sr",
        "region-md"])
def test_each_input_file_is_opened_once(argv, tmp_path, capsys, monkeypatch):
    # the inputs block checksums the bytes load_sequence read
    paths = {k: token_file(tmp_path, f"{k}.txt", text) for k, text in (
        ("x", "0110100110010110"), ("y", "0110100110010111"),
        ("z", "0110100110010110"), ("u", "0101010101010101"))}
    opened = []
    real = open

    def counted(file, *args, **kw):
        opened.append(str(file))
        return real(file, *args, **kw)

    monkeypatch.setattr(cli, "open", counted, raising=False)
    argv = [a.format(out=tmp_path / "out", **paths) for a in argv]
    code, rep, _, err = run(capsys, *argv)
    assert code == 0, err
    inputs = [p for p in paths.values() if p in argv]
    assert sorted(rep["inputs"]) == sorted(inputs)
    assert sorted(p for p in opened if p in paths.values()) == sorted(inputs)
    for p in inputs:
        with real(p, "rb") as fh:
            assert rep["inputs"][p] == f"{fnv1a64(fh.read()):016x}"


@pytest.mark.parametrize("encode, decode", [
    (("{x}", "--mode", "lz", "-o", "{c}"),
     ("{c}", "--mode", "lz", "-o", "{out}")),
    (("{x}", "{y}", "{x}", "--mode", "sr", "-o", "{c}"),
     ("{c}", "--mode", "sr", "-o", "{out}", "--coarse-output", "{coarse}")),
    (("{x}", "{y}", "{x}", "--mode", "md-zb", "--u-file", "{u}", "-o", "{c}"),
     ("{c}.d1", "--mode", "md-zb", "--decoder", "1", "-o", "{out}", "--aux-output", "{aux}")),
], ids=["lz", "sr", "md-zb"])
def test_decode_checksums_the_bytes_it_writes(encode, decode, tmp_path, capsys, monkeypatch):
    # each outputs entry checksums the bytes save_sequence wrote, not a re-read
    paths = {k: token_file(tmp_path, f"{k}.txt", text) for k, text in (
        ("x", "0110100110010110"), ("y", "0110100110010111"), ("u", "0101010101010101"))}
    paths.update({k: str(tmp_path / k) for k in ("c", "out", "coarse", "aux")})
    code, _, _, err = run(capsys, "encode", *(a.format(**paths) for a in encode))
    assert code == 0, err
    argv = [a.format(**paths) for a in decode]
    outputs = {paths[k] for k in ("out", "coarse", "aux") if paths[k] in argv}
    reads = []
    real = builtins.open

    def watched(file, mode="r", *args, **kw):
        if "r" in mode:
            reads.append(str(file))
        return real(file, mode, *args, **kw)

    monkeypatch.setattr(builtins, "open", watched)
    code, rep, _, err = run(capsys, "decode", *argv)
    monkeypatch.undo()
    assert code == 0, err
    assert not outputs & set(reads)
    entries = rep["results"]["outputs"]
    assert {e["path"] for e in entries} == outputs
    for e in entries:
        assert e["checksum"] == f"{fnv1a64(Path(e['path']).read_bytes()):016x}"


class TestDeterminism:
    def test_analyze_repeats_byte_identical(self, tmp_path, capsys):
        f = token_file(tmp_path, "a.txt", EXAMPLE_A, "a b")
        _, _, out1, _ = run(capsys, "analyze", f, "--block-len", "3")
        _, _, out2, _ = run(capsys, "analyze", f, "--block-len", "3")
        assert out1 == out2

    def test_verify_repeats_byte_identical(self, capsys):
        args = ("verify", "--suite", "split-lemma", "--budget", "300",
                "--seed", "7")
        _, _, out1, _ = run(capsys, *args)
        _, _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_seeded_region_search_byte_identical(self, tmp_path, capsys):
        x = token_file(tmp_path, "x.txt", "0110100110010110")
        args = ("region", "sr", x, "--d1", "0.25", "--seed", "5")
        _, _, out1, _ = run(capsys, *args)
        _, _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_timing_goes_to_stderr_only(self, tmp_path, capsys):
        f = token_file(tmp_path, "s.txt", "0110")
        _, rep, out, err = run(capsys, "analyze", f)
        assert "elapsed" in err
        assert "elapsed" not in out
        assert rep["timing"] is None


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_script(name):
    """Split ``[project.scripts][name]`` of pyproject.toml into module, attr."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib is 3.11+
        tomllib = pytest.importorskip("tomli")
    meta = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    module, _, attr = meta["project"]["scripts"][name].partition(":")
    return module.strip(), attr.strip()


def run_child(cmd, tmp_path):
    """Run ``cmd`` in tmp_path, importing the srlz package this process uses.

    Prefixing PYTHONPATH keeps a stale site-packages copy, or an unset
    PYTHONPATH, from handing the child different code.
    """
    env = dict(os.environ)
    pkg_root = str(Path(srlz.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          env=env, cwd=tmp_path)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("alphabet: 0 1\n0\n1\n1\n0\n")
        module, attr = declared_script("srlz")
        # the same code the wrapper generated by pip install runs
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.exit({attr}())")
        cmds = [[sys.executable, "-c", wrapper, "analyze", str(p)]]
        installed = shutil.which("srlz")
        if installed:
            cmds.append([installed, "analyze", str(p)])
        for cmd in cmds:
            proc = run_child(cmd, tmp_path)
            assert proc.returncode == 0, proc.stderr
            rep = json.loads(proc.stdout)
            assert rep["results"]["n"] == 4
            assert "elapsed" in proc.stderr

    def test_module_invocation(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("alphabet: 0 1\n0\n1\n1\n0\n")
        proc = run_child([sys.executable, "-m", "srlz.cli", "analyze", str(p)],
                         tmp_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "analyze"

    def test_runs_without_numpy(self, tmp_path):
        # a None entry in sys.modules makes any import of numpy fail
        code = ("import sys; sys.modules['numpy'] = None; "
                "from srlz.cli import main; sys.exit(main())")
        proc = run_child([sys.executable, "-c", code, "verify", "--suite",
                          "converse", "--budget", "2", "--n", "64"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["holds"] is True
