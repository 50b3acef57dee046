"""codecs-long: encode and decode round trips through all five codecs on long
seeded sources.

Six sources (binary and 26-letter, each in the uniform, tiled and runs
textures) are cut at every length of LADDER.  At each length a round parses
the source, joint-parses it against a noisy copy of itself, and round-trips
it through the plain (`lz`) and conditional (`cond`) codecs; at STAGED_N it
also round-trips the two-stage (`sr`) and both two-description (`md-egc`,
`md-zb`) codecs.  This is the workload where bit packing, stream hashing and
the per-symbol emit loops dominate, and where their growth with n shows.
"""

from __future__ import annotations

import math
import struct

from common import (IN_PROCESS, Ops, erased, import_srlz, loglog_slope, median,
                    noisy, ref_joint, ref_phrase_count, rng_for, texture)

NAME = "codecs-long"
YARDSTICK = IN_PROCESS
SOURCES = ((2, "uniform"), (2, "tiled"), (2, "runs"),
           (26, "uniform"), (26, "tiled"), (26, "runs"))
LADDER = (2500, 5000, 10000, 20000)
STAGED_N = 10000
WARMUP_N = 256


class Cut:
    """One source cut at length n: the source x, a noisy copy `side` (the
    conditional codec's side information), two coarse reproductions `hat` and
    `tilde` (a quarter of the symbols set to 0), a two-level quantization `u`
    (the md-zb auxiliary), and the reference parse values of x."""

    def __init__(self, srlz, k: int, n: int, full: dict) -> None:
        alpha = srlz.Alphabet.of_size(k)
        self.k, self.n = k, n
        self.x, self.side, self.hat, self.tilde = (
            srlz.Sequence(alpha, full[key][:n]) for key in ("x", "side", "hat", "tilde"))
        self.u = srlz.Sequence(srlz.Alphabet.of_size(2), full["u"][:n])
        self.ref_c = ref_phrase_count(self.x.data)
        self.ref_cj, self.ref_rho_cond = ref_joint(self.side.data, self.x.data)


def setup(seed: int) -> dict:
    srlz = import_srlz()
    ladders = []
    warm = None
    for i, (k, kind) in enumerate(SOURCES):
        rng = rng_for(NAME, seed, i)
        x = texture(rng, k, LADDER[-1], kind)
        full = {"x": x, "side": noisy(rng, x, k, 0.1), "hat": erased(rng, x, 0.25),
                "tilde": erased(rng, x, 0.25), "u": [v * 2 // k for v in x]}
        ladders.append([Cut(srlz, k, n, full) for n in LADDER])
        warm = warm or Cut(srlz, k, WARMUP_N, full)
    run_round({"ladders": [[warm]], "staged_n": WARMUP_N}, Ops())
    return {"ladders": ladders, "staged_n": STAGED_N}


def _same(got, want) -> bool:
    return got.alphabet.symbols == want.alphabet.symbols and got.data == want.data


def _round_trip(ops: Ops, codec: str, n: int, encode, decode, expect, bound=None) -> None:
    """encode() -> (containers, payload bits); decode(containers) -> expect.

    `bound`, when given, is the largest payload the encoder may emit."""
    def check_bits(out):
        bits = out[1]
        return None if bound is None or bits <= bound + 1e-9 else \
            f"{codec} payload {bits} bits above its bound {bound:.1f}"

    enc = ops.call(codec + ".encode", encode, check_bits, n=n)
    if enc is None:
        ops.skip(codec + ".decode", "no container to decode")
        return
    ops.note("container.bytes", sum(len(raw) for raw in enc[0]))

    def check(out):
        got = out if isinstance(out, tuple) else (out,)
        return None if len(got) == len(expect) and all(map(_same, got, expect)) \
            else f"{codec} decode at n={n} differs from the encoded sequences"

    ops.call(codec + ".decode", lambda: decode(enc[0]), check, n=n)


def run_round(state: dict, ops: Ops) -> None:
    from srlz import bounds, cond_lz, lz_core, mdc, sr_codec
    from srlz.container import Bitstream

    span = ops.tr.span
    for ladder in state["ladders"]:
        for cut in ladder:
            n, x, side = cut.n, cut.x, cut.side

            def parse():
                with span("lz_core.parse", n=n):
                    return lz_core.parse(x)

            def joint():
                with span("cond_lz.joint_parse", n=n):
                    return cond_lz.joint_parse(side, x)

            pr = ops.call("parse", parse, lambda pr: None if pr.c == cut.ref_c else
                          f"parse gives {pr.c} phrases, the reference {cut.ref_c}", n=n)
            jp = ops.call("joint_parse", joint, lambda jp: None if (
                jp.c_joint == cut.ref_cj and abs(jp.rho_cond - cut.ref_rho_cond) <= 1e-9) else
                f"joint parse gives ({jp.c_joint}, {jp.rho_cond}), the reference "
                f"({cut.ref_cj}, {cut.ref_rho_cond})", n=n)
            if pr is not None:
                ops.note("lz_core.phrases", pr.c)
            if jp is not None:
                ops.note("cond_lz.joint_phrases", jp.c_joint)

            def lz_enc():
                with span("lz_core.lz_encode", n=n):
                    bs = lz_core.lz_encode(x)
                with span("container.to_bytes", n=n):
                    return (bs.to_bytes(),), bs.payload_bits

            def lz_dec(raws):
                with span("container.from_bytes", n=n):
                    bs = Bitstream.from_bytes(raws[0])
                with span("lz_core.lz_decode", n=n):
                    return lz_core.lz_decode(bs)

            c = cut.ref_c
            _round_trip(ops, "lz", n, lz_enc, lz_dec, (x,),
                        (c * math.log2(c) if c > 1 else 0.0) + n * bounds.eps_slack(n, cut.k))

            def cond_enc():
                with span("cond_lz.cond_encode", n=n):
                    bs = cond_lz.cond_encode(x, side)
                with span("container.to_bytes", n=n):
                    return (bs.to_bytes(),), bs.payload_bits

            def cond_dec(raws):
                with span("container.from_bytes", n=n):
                    bs = Bitstream.from_bytes(raws[0])
                with span("cond_lz.cond_decode", n=n):
                    return cond_lz.cond_decode(bs, side)

            _round_trip(ops, "cond", n, cond_enc, cond_dec, (x,),
                        n * cut.ref_rho_cond + n * bounds.eps_hat(n))

            if n == state["staged_n"]:
                _staged(ops, cut, sr_codec, mdc)


def _staged(ops: Ops, cut: Cut, sr_codec, mdc) -> None:
    span = ops.tr.span
    n, x, hat, tilde, u = cut.n, cut.x, cut.hat, cut.tilde, cut.u

    def sr_enc():
        with span("sr_codec.sr_encode", n=n):
            enc = sr_codec.sr_encode(x, hat, x)
        with span("container.to_bytes", n=n):
            return (enc.to_bytes(),), enc.stage1.payload_bits + enc.stage2.payload_bits

    def sr_dec(raws):
        with span("container.from_bytes", n=n):
            enc = sr_codec.SrEncoded.from_bytes(raws[0])
        with span("sr_codec.sr_decode_full", n=n):
            return sr_codec.sr_decode_full(enc)

    def egc_enc():
        with span("mdc.egc_encode", n=n):
            d1, d2, rep = mdc.egc_encode(hat, tilde, x, 0.5)
        return (d1, d2), rep["sum_identity"]["lhs_bits"]

    def egc_dec(raws):
        with span("mdc.egc_decode0", n=n):
            return mdc.egc_decode0(*raws)

    def zb_enc():
        with span("mdc.zb_encode", n=n):
            d1, d2, rep = mdc.zb_encode(hat, tilde, x, u, 0.5)
        return (d1, d2), rep["sum_identity"]["lhs_bits"]

    def zb_dec(raws):
        with span("mdc.zb_decode0", n=n):
            return mdc.zb_decode0(*raws)

    _round_trip(ops, "sr", n, sr_enc, sr_dec, (hat, x))
    _round_trip(ops, "md-egc", n, egc_enc, egc_dec, (hat, tilde, x))
    _round_trip(ops, "md-zb", n, zb_enc, zb_dec, (u, hat, tilde, x))


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def probe(state: dict, ops: Ops) -> None:
    """Direct calls into the layers the codecs are built on, at the top
    length of each source: pack the source as fixed-width fields and read
    them back, hash its 4-byte-per-symbol image, rebuild it as a Sequence,
    and checksum the side information."""
    from srlz import bitio, cond_lz
    from srlz.lz_core import Sequence

    span = ops.tr.span
    for ladder in state["ladders"]:
        cut = ladder[-1]
        n, x, side = cut.n, cut.x, cut.side
        width = x.alphabet.bits_per_symbol
        image = b"".join(struct.pack(">I", v) for v in x.data)

        def write():
            with span("bitio.write", n=n):
                w = bitio.BitWriter()
                for v in x.data:
                    w.write(v, width)
                return w.to_bytes()

        raw = ops.call("bitio.write", write, lambda raw: None if len(raw) == -(-n * width // 8)
                       else "packed length differs", n=n)
        if raw is None:
            ops.skip("bitio.read", "nothing packed")
        else:
            def read():
                with span("bitio.read", n=n):
                    r = bitio.BitReader(raw)
                    return [r.read(width) for _ in range(n)]

            ops.call("bitio.read", read, lambda got: None if tuple(got) == x.data
                     else "fields read back differ", n=n)
        ops.call("bitio.fnv1a64", lambda: _timed(span, "bitio.fnv1a64", n, bitio.fnv1a64, image),
                 lambda h: None if h == _fnv1a64(image) else "fnv1a64 differs", n=n)
        data = list(x.data)
        ops.call("lz_core.Sequence", lambda: _timed(span, "lz_core.Sequence", n, Sequence, x.alphabet, data),
                 lambda s: None if s.data == x.data else "Sequence data differs", n=n)
        want = _fnv1a64(struct.pack(">IQ", side.alphabet.size, n)
                        + b"".join(struct.pack(">I", v) for v in side.data))
        ops.call("cond_lz.side_info_checksum",
                 lambda: _timed(span, "cond_lz.side_info_checksum", n, cond_lz.side_info_checksum, side),
                 lambda h: None if h == want else "side-information checksum differs", n=n)


def _timed(span, name, n, fn, *args):
    with span(name, n=n):
        return fn(*args)


TIMED_LAYERS = (
    "bitio.write", "bitio.read", "bitio.fnv1a64", "lz_core.Sequence",
    "cond_lz.side_info_checksum", "lz_core.parse", "lz_core.lz_encode",
    "lz_core.lz_decode", "cond_lz.joint_parse", "cond_lz.cond_encode",
    "cond_lz.cond_decode", "container.to_bytes", "container.from_bytes",
    "sr_codec.sr_encode", "sr_codec.sr_decode_full", "mdc.egc_encode",
    "mdc.egc_decode0", "mdc.zb_encode", "mdc.zb_decode0")
SCALED = ("lz_core.lz_encode", "lz_core.lz_decode", "cond_lz.cond_encode", "cond_lz.cond_decode")
COUNTS = ("lz_core.phrases", "cond_lz.joint_phrases", "container.bytes")


def layer_metrics(traced: list) -> dict:
    """Per-layer values from the traced rounds: seconds per round in each
    layer's spans, the log-log slope of each codec's time against n over the
    ladder, and the work counts of one round."""
    per_round = [ops.tr.totals() for ops in traced]
    out = {name + "_s": median([t.get(name, 0.0) for t in per_round]) for name in TIMED_LAYERS}
    by_n = [ops.tr.totals("n") for ops in traced]
    for name in SCALED:
        points = [(n, median([t.get((name, n), 0.0) for t in by_n])) for n in LADDER]
        out[name + "_exponent"] = loglog_slope(points)
    for name in COUNTS:
        out[name] = sum(traced[0].notes.get(name, ()))
    return out


def info(state: dict, rounds: list) -> dict:
    """Symbols per second through the encoders and through the decoders, and
    container bits per source symbol."""
    enc = [(r[3]["n"], r[4]) for ops in rounds for r in ops.records if r[0].endswith(".encode")]
    dec = [(r[3]["n"], r[4]) for ops in rounds for r in ops.records if r[0].endswith(".decode")]
    per_round = sum(n for n, _ in enc) / len(rounds)
    return {
        "encode_throughput_symbols_per_s": sum(n for n, _ in enc) / sum(t for _, t in enc),
        "decode_throughput_symbols_per_s": sum(n for n, _ in dec) / sum(t for _, t in dec),
        "container_bits_per_symbol": 8 * sum(rounds[0].notes["container.bytes"]) / per_round,
    }


def teardown(state: dict) -> None:
    pass
