"""Command-line front end: analyze, encode, decode, region, verify.

Reports are canonical JSON on stdout: report_version 1, sorted keys, and no
wall times (identical invocations must produce byte-identical reports);
human-oriented timing goes to stderr.  Exit codes: 0 success, 1 a verification
check failed, 2 usage or format error, 3 infeasible parameters or an exceeded
enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Sequence as Seq, Tuple

# Only what every subcommand needs is imported here; each cmd_* imports the
# rest, so a call loads just the modules it runs.
from .bitio import fnv1a64
from .container import (
    BudgetExceededError,
    InfeasibleError,
    StreamFormatError,
)
from .lz_core import (
    Alphabet,
    Sequence,
    _code_len_bound,
    lz_decode,
    lz_encode,
    parse,
    rho_from_count,
    rho_lz,
)

if TYPE_CHECKING:
    from . import regions, sr_codec

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MODES = ("lz", "cond", "sr", "md-egc", "md-zb")
DISTORTIONS = ("hamming", "absdiff")


class UsageError(ValueError):
    """Bad flags or malformed inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# sequence file I/O: raw bytes, or token text with an alphabet header


def _bad_token(symbols: Seq[str]) -> Optional[str]:
    """The first symbol a token file cannot hold, or None: a token symbol is
    non-empty, has no whitespace and does not start with '#', which marks a
    comment line."""
    return next((s for s in symbols if s.split() != [s] or s.startswith("#")), None)


def _read(path: str, sums: Optional[dict] = None) -> bytes:
    """The bytes of a file; with `sums`, also sets sums[path] to their
    checksum: a call's `sums` is its report's inputs block."""
    with open(path, "rb") as fh:
        data = fh.read()
    if sums is not None:
        sums[path] = f"{fnv1a64(data):016x}"
    return data


def load_sequence(path: str, fmt: str = "auto",
                  sums: Optional[dict] = None) -> Sequence:
    """The sequence in a file, read by _read with `sums`."""
    data = _read(path, sums)
    if fmt == "auto":
        fmt = "tokens" if data.startswith(b"alphabet:") else "bytes"
    if fmt == "bytes":
        return Sequence.from_bytes(data)
    if fmt != "tokens":
        raise UsageError(f"unknown input format: {fmt}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: token files must be UTF-8") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("alphabet:"):
        raise UsageError(
            f"{path}: token files start with a line 'alphabet: <sym> <sym> ...'")
    names = tuple(lines[0][len("alphabet:"):].split())
    if not names:
        raise UsageError(f"{path}: the alphabet header lists no symbols")
    bad = _bad_token(names)
    if bad is not None:
        raise UsageError(f"{path}: alphabet symbol {bad!r} starts with '#', "
                         "which marks a comment line")
    try:
        alpha = Alphabet(names)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    try:
        return Sequence.from_symbols(alpha, lines[1:])
    except KeyError as exc:
        raise UsageError(
            f"{path}: token {exc.args[0]!r} is not in the declared alphabet") from exc


def save_sequence(seq: Sequence, path: str, fmt: str = "auto") -> bytes:
    """Write seq to path in format fmt; the bytes written."""
    if fmt == "auto":
        fmt = "bytes" if seq.alphabet.byte_named else "tokens"
    if fmt == "bytes":
        if not seq.alphabet.byte_named:
            raise UsageError("alphabet symbols are not byte values; use token output")
        payload = seq.to_bytes()
    elif fmt == "tokens":
        bad = _bad_token(seq.alphabet.symbols)
        if bad is not None:
            raise UsageError(f"alphabet symbol {bad!r} cannot be written as a token: token "
                             "symbols are non-empty, without whitespace, not starting with '#'")
        lines = ["alphabet: " + " ".join(seq.alphabet.symbols)]
        lines.extend(seq.symbols())
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    else:
        raise UsageError(f"unknown output format: {fmt}")
    with open(path, "wb") as fh:
        fh.write(payload)
    return payload


def _write(path: str, data, fmt: str = "auto", **fields) -> dict:
    """Write a container's bytes, or a decoded sequence through save_sequence,
    to path; the file's report entry, with the checksum of the bytes written."""
    if isinstance(data, Sequence):
        data = save_sequence(data, path, fmt)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
        fields["bytes"] = len(data)
    return {"path": path, **fields, "checksum": f"{fnv1a64(data):016x}"}


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def emit_report(report: dict) -> None:
    report = dict(report)
    report["report_version"] = REPORT_VERSION
    # Wall time would break byte-identical re-runs; it goes to stderr instead.
    report.setdefault("timing", None)
    sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n")


def _region_dict(r: regions.HalfPlaneRegion) -> dict:
    return {"a": r.a, "b": r.b, "clamped_a": r.clamped_a, "clamped_b": r.clamped_b,
            "meta": r.meta}


def _md_region_dict(r: regions.HalfPlaneRegion, kind: str) -> dict:
    # report v1's layout: "b" is the R2 floor and "c" the sum floor
    return {"a": r.a, "b": r.c, "c": r.b, "kind": kind,
            "clamped_a": r.clamped_a, "clamped_b": r.clamped_c,
            "clamped_c": r.clamped_b, "meta": r.meta}


def _eps_mode(args) -> str:
    """--eps-mode, checked by bounds.eps_n_value, whose verdict on a mode does
    not depend on n or beta; the default needs no check, so a call without the
    flag does not load bounds."""
    if args.eps_mode != "default":
        from . import bounds

        try:
            bounds.eps_n_value(2, 2, args.eps_mode)
        except ValueError as exc:
            raise UsageError(f"--eps-mode: {exc}") from exc
    return args.eps_mode


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    from . import bounds

    sums: dict = {}  # the inputs block: path -> checksum of the bytes read
    seq = load_sequence(args.input, args.fmt, sums)
    side = load_sequence(args.side_info, args.fmt, sums) if args.side_info else None
    eps = _eps_mode(args)
    n = seq.n
    pr = parse(seq)
    results: dict = {
        "n": n,
        "phrase_count": pr.c,
        "last_phrase_incomplete": pr.is_last_incomplete,
        "phrases": _phrase_names(seq, pr) if n <= 64 else None,
        "rho_lz": pr.rho_lz,
        "code_len_bound_bits": pr.code_len_bound,
    }
    if side is None:
        results["beta"] = seq.alphabet.size
    else:
        from .cond_lz import joint_parse

        results["gamma"] = seq.alphabet.size
        results["beta"] = side.alphabet.size
        jp = joint_parse(side, seq)
        results["conditional"] = {
            "c_joint": jp.c_joint,
            "c_prime": jp.c_prime,
            "c_l": list(jp.c_l),
            "rho_cond": jp.rho_cond,
            "rho_joint": jp.rho_joint,
        }
    violation = False
    if args.block_len is not None:
        from .empirics import block_checks

        target = seq if side is None else side
        try:
            if side is None:
                emp, ineq, _ = block_checks(seq, None, args.block_len, eps, rho=pr.rho_lz)
                results["block"] = {
                    "block_len": args.block_len,
                    "h_block": emp.h_joint,
                    "entropy_inequality": ineq,
                }
                violation = not ineq["holds"]
            else:
                emp, ineq, cineq = block_checks(side, seq, args.block_len, eps,
                                                rho=rho_lz(side), rho_c=jp.rho_cond)
                results["block"] = {
                    "block_len": args.block_len,
                    "h_joint": emp.h_joint,
                    "h_primary": emp.h_primary,
                    "h_cond": emp.h_cond,
                    "entropy_inequality": ineq,
                    "cond_entropy_inequality": cineq,
                }
                violation = not ineq["holds"] or not cineq["holds"]
        except ValueError as exc:
            raise UsageError(
                f"{exc} (usable block lengths: divisors of {target.n}: "
                f"{bounds.divisors(target.n)})") from exc
    if n >= 2:
        beta = results["beta"]
        eps_n, d1, d2, d2_l = bounds.converse_terms(args.q, n, beta, seq.alphabet.size, eps)
        floors = {"q": args.q, "eps_mode": eps, "eps_n": eps_n, "delta1": d1}
        if side is not None:
            floors["delta2"] = d2
            floors["delta2_block_len"] = d2_l
        results["bounds"] = floors
    emit_report({
        "command": "analyze",
        "inputs": sums,
        "parameters": {"block_len": args.block_len, "q": args.q,
                       "eps_mode": eps, "format": args.fmt},
        "results": results,
    })
    return EXIT_VIOLATION if violation else EXIT_OK


def _phrase_names(seq: Sequence, pr) -> List[str]:
    syms = seq.alphabet.symbols
    joiner = "" if all(len(s) == 1 for s in syms) else " "
    return [joiner.join(syms[v] for v in seq.data[start:start + length])
            for start, length in pr.phrases]


# ---------------------------------------------------------------------------
# encode / decode


def _distortion_spec(args) -> sr_codec.DistortionSpec:
    from . import sr_codec

    d = sr_codec.PerLetterDistortion(args.distortion)
    return sr_codec.DistortionSpec(d1=d, d2=d, level1=args.d1, level2=args.d2)


def _md_triple(args, sums: dict) -> Tuple[Sequence, Sequence, Sequence]:
    """Three reproduction files, or one source file plus distortion levels."""
    if len(args.inputs) == 3:
        return tuple(load_sequence(p, args.fmt, sums) for p in args.inputs)
    if len(args.inputs) == 1:
        from . import sr_codec

        x = load_sequence(args.inputs[0], args.fmt, sums)
        dist = _distortion_spec(args)
        xhat = sr_codec.nearest_feasible(x, dist.d1, dist.level1)
        xtilde = sr_codec.nearest_feasible(x, dist.d2, dist.level2)
        xcheck = sr_codec.nearest_feasible(x, dist.d1, args.d0 if args.d0 is not None else 0.0)
        return xhat, xtilde, xcheck
    raise UsageError("two-description modes take three reproduction files "
                     "(coarse, fine, central) or one source file with levels")


def cmd_encode(args) -> int:
    eps = _eps_mode(args)
    mode = args.mode
    sums: dict = {}
    report: dict = {
        "command": "encode",
        "inputs": sums,
        "parameters": {"mode": mode, "q": args.q, "eps_mode": eps,
                       "seed": args.seed, "format": args.fmt},
    }
    if mode == "lz":
        if len(args.inputs) != 1:
            raise UsageError("mode lz takes exactly one input file")
        seq = load_sequence(args.inputs[0], args.fmt, sums)
        enc = lz_encode(seq)
        out = _write(args.output, enc.to_bytes())
        n = seq.n
        c = enc.phrase_count  # parse(seq).c, without a second walk
        report["results"] = {
            "n": n,
            "beta": seq.alphabet.size,
            "phrase_count": c,
            "payload_bits": enc.payload_bits,
            "rate": enc.payload_bits / n if n else 0.0,
            "rho_lz": rho_from_count(c, n),
            "payload_bound_bits": _code_len_bound(c, n, seq.alphabet.size),
            "outputs": [out],
        }
    elif mode == "cond":
        if len(args.inputs) != 1 or not args.side_info:
            raise UsageError("mode cond takes one input file plus --side-info")
        from . import bounds
        from .cond_lz import _cond_encode, rho_cond_from_counts

        seq = load_sequence(args.inputs[0], args.fmt, sums)
        side = load_sequence(args.side_info, args.fmt, sums)
        # the encoder's dictionary is the joint parse's trie: its counts, no second walk
        enc, c_l = _cond_encode(seq, side, counts=True)
        out = _write(args.output, enc.to_bytes())
        n = seq.n
        rho_c = rho_cond_from_counts(c_l, n)
        bound = n * rho_c + n * bounds.eps_hat(n) if n >= 2 else None
        report["results"] = {
            "n": n,
            "beta": side.alphabet.size,
            "gamma": seq.alphabet.size,
            "c_joint": enc.phrase_count,
            "c_prime": len(c_l),
            "payload_bits": enc.payload_bits,
            "rate": enc.payload_bits / n if n else 0.0,
            "rho_cond": rho_c,
            "payload_bound_bits": bound,
            "outputs": [out],
        }
    elif mode == "sr":
        from . import regions, sr_codec

        dist = _distortion_spec(args)
        if len(args.inputs) == 1:
            x = load_sequence(args.inputs[0], args.fmt, sums)
            xhat, xtilde, diag = sr_codec.select_reproductions(
                x, dist, args.objective,
                regions.SearchBudget(seed=args.seed, weight=args.weight))
        elif len(args.inputs) == 3:
            x, xhat, xtilde = (load_sequence(p, args.fmt, sums) for p in args.inputs)
            diag = {"search_mode": "given"}
        else:
            raise UsageError("mode sr takes a source file (reproductions are "
                             "searched) or source + two reproduction files")
        enc = sr_codec.sr_encode(x, xhat, xtilde)
        out = _write(args.output, enc.to_bytes())
        n = x.n
        results = {
            "n": n,
            "rates": {"r1": enc.r1, "r2": enc.r2, "sum": enc.r1 + enc.r2},
            "distortion": {
                "stage1": sr_codec.distortion(x, xhat, dist.d1) / n if n else 0.0,
                "stage2": sr_codec.distortion(x, xtilde, dist.d2) / n if n else 0.0,
            },
            "selection": diag,
            "outputs": [out],
        }
        if n >= 2:
            floor = regions.region_for_pair(xhat, xtilde, args.q, eps)
            inner = regions.blockwise_region(xhat, xtilde, args.q, n, "inner-plus", eps)
            results["floors"] = _region_dict(floor)
            results["ceilings"] = _region_dict(inner)
        report["parameters"].update({"d1": args.d1, "d2": args.d2,
                                     "objective": args.objective,
                                     "distortion": args.distortion})
        report["results"] = results
    else:  # md-egc, md-zb
        from . import mdc

        xhat, xtilde, xcheck = _md_triple(args, sums)
        if mode == "md-egc":
            desc1, desc2, enc_rep = mdc.egc_encode(xhat, xtilde, xcheck, args.split)
        else:
            if args.u_file:
                u = load_sequence(args.u_file, args.fmt, sums)
            else:
                u = mdc.default_auxiliary(xhat, levels=2)
            desc1, desc2, enc_rep = mdc.zb_encode(xhat, xtilde, xcheck, u, args.alpha)
        out1 = _write(args.output + ".d1", desc1)
        out2 = _write(args.output + ".d2", desc2)
        results = dict(enc_rep)
        results["outputs"] = [out1, out2]
        if xhat.n >= 2:
            results["outer_region"] = _md_region_dict(
                mdc.md_outer_region(xhat, xtilde, xcheck, args.q, eps), "outer")
            # the region of the streams just coded, from their bit counts
            results["inner_region"] = _md_region_dict(
                mdc.md_inner_region(xhat.n, enc_rep["bits"]), mode[3:] + "-inner")
        report["parameters"].update({"split": args.split, "alpha": args.alpha,
                                     "d1": args.d1, "d2": args.d2, "d0": args.d0})
        report["results"] = results
    emit_report(report)
    return EXIT_OK


def cmd_decode(args) -> int:
    mode = args.mode
    sums: dict = {}
    raws = [_read(p, sums) for p in args.inputs]
    report: dict = {
        "command": "decode",
        "inputs": sums,
        "parameters": {"mode": mode, "format": args.fmt},
    }
    outputs = []
    if mode in ("lz", "sr") and len(raws) != 1:
        raise UsageError(f"mode {mode} takes exactly one stream file")
    if mode == "lz":
        seq = lz_decode(raws[0])
        outputs.append(_write(args.output, seq, args.fmt, n=seq.n))
    elif mode == "cond":
        if len(raws) != 1 or not args.side_info:
            raise UsageError("mode cond takes one stream file plus --side-info")
        from .cond_lz import cond_decode

        seq = cond_decode(raws[0], load_sequence(args.side_info, args.fmt))
        outputs.append(_write(args.output, seq, args.fmt, n=seq.n))
    elif mode == "sr":
        from . import sr_codec

        if args.stage == 1:
            coarse = sr_codec.sr_decode_stage1(raws[0])
            outputs.append(_write(args.output, coarse, args.fmt, n=coarse.n, stage=1))
        else:
            coarse, fine = sr_codec.sr_decode_full(raws[0])
            outputs.append(_write(args.output, fine, args.fmt, n=fine.n, stage=2))
            if args.coarse_output:
                outputs.append(_write(args.coarse_output, coarse, args.fmt,
                                      n=coarse.n, stage=1))
    else:  # md-egc, md-zb
        from . import mdc

        if args.decoder is None and len(raws) != 2:
            raise UsageError("pass --decoder 1 or 2 for single-description decode")
        decoder = args.decoder or 0
        if decoder in (1, 2):
            if len(raws) != 1:
                raise UsageError("decoders 1 and 2 take one description file")
            if mode == "md-egc":
                seq = mdc.egc_decode1(raws[0]) if decoder == 1 else mdc.egc_decode2(raws[0])
            else:
                u, seq = mdc.zb_decode1(raws[0]) if decoder == 1 else mdc.zb_decode2(raws[0])
                if args.aux_output:
                    outputs.append(_write(args.aux_output, u, args.fmt, role="aux"))
            outputs.append(_write(args.output, seq, args.fmt, n=seq.n, decoder=decoder))
        else:
            if len(raws) != 2:
                raise UsageError("decoder 0 takes both description files")
            parts = []
            if mode == "md-egc":
                xhat, xtilde, xcheck = mdc.egc_decode0(raws[0], raws[1])
            else:
                u, xhat, xtilde, xcheck = mdc.zb_decode0(raws[0], raws[1])
                parts.append(("aux", u))
            parts += [("hat", xhat), ("tilde", xtilde), ("check", xcheck)]
            for name, seq in parts:
                outputs.append(_write(f"{args.output}.{name}", seq, args.fmt,
                                      n=seq.n, role=name))
    report["results"] = {"outputs": outputs}
    emit_report(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# region


def cmd_region(args) -> int:
    from . import regions

    eps = _eps_mode(args)
    kind = args.kind
    sums: dict = {}
    report: dict = {
        "command": "region",
        "inputs": sums,
        "parameters": {"kind": kind, "q": args.q, "eps_mode": eps,
                       "format": args.fmt},
    }
    if kind in ("pair", "blockwise"):
        if len(args.inputs) != 2:
            raise UsageError(f"region {kind} takes coarse and fine sequence files")
        if kind == "blockwise" and args.block_len is None:
            raise UsageError("region blockwise needs --block-len")
        xhat, xtilde = (load_sequence(p, args.fmt, sums) for p in args.inputs)
        if kind == "pair":
            region = regions.region_for_pair(xhat, xtilde, args.q, eps)
        else:
            region = regions.blockwise_region(xhat, xtilde, args.q, args.block_len,
                                              args.side, eps)
            report["parameters"].update({"block_len": args.block_len, "side": args.side})
        front = regions.frontier([region])
        results = {"region": _region_dict(region)}
    elif kind == "sr":
        if len(args.inputs) != 1:
            raise UsageError("region sr takes one source sequence file")
        x = load_sequence(args.inputs[0], args.fmt, sums)
        dist = _distortion_spec(args)
        union = regions.sr_outer_region(x, dist, args.q,
                                        regions.SearchBudget(seed=args.seed), eps)
        front = list(union.frontier)
        report["parameters"].update({"d1": args.d1, "d2": args.d2,
                                     "distortion": args.distortion,
                                     "seed": args.seed})
        results = {"members": [_region_dict(m) for m in union.members],
                   "search": union.meta}
    else:  # md
        if len(args.inputs) != 3:
            raise UsageError("region md takes coarse, fine, and central files")
        from . import mdc

        xhat, xtilde, xcheck = (load_sequence(p, args.fmt, sums) for p in args.inputs)
        outer = mdc.md_outer_region(xhat, xtilde, xcheck, args.q, eps)
        egc = mdc.egc_encode(xhat, xtilde, xcheck)[2]
        results = {
            "outer": _md_region_dict(outer, "outer"),
            "egc_inner": _md_region_dict(mdc.md_inner_region(xhat.n, egc["bits"]),
                                         "egc-inner"),
            "mi": egc["mi"],
        }
        if args.u_file:
            u = load_sequence(args.u_file, args.fmt, sums)
            zb = mdc.zb_encode(xhat, xtilde, xcheck, u)[2]
            results["zb_inner"] = _md_region_dict(mdc.md_inner_region(xhat.n, zb["bits"]),
                                                  "zb-inner")
            results["mi_given_aux"] = zb["mi_given_aux"]
    if kind != "md":  # the staircase kinds
        results["frontier"] = [[p.r1, p.r2] for p in front]
    report["results"] = results
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(regions.frontier_csv(front))
        results["csv"] = args.csv
    emit_report(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _block_lens(raw: str) -> Tuple[int, ...]:
    try:
        lens = tuple(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"--block-lens wants comma-separated integers: {raw!r}") from exc
    if not lens or any(l < 1 for l in lens):
        raise UsageError("block lengths must be positive")
    return lens


def cmd_verify(args) -> int:
    from . import verify

    eps = _eps_mode(args)
    if args.budget is not None and args.budget < 0:
        raise UsageError(f"--budget must be nonnegative, got {args.budget}")
    suite = args.suite
    kwargs = {}
    for flag, keyword in READS["verify"][suite].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value != "":
            kwargs[keyword] = _block_lens(value) if flag == "--block-lens" else value
    rep = verify.SUITES[suite](**kwargs)
    emit_report({
        "command": "verify",
        "parameters": {"suite": suite, "seed": args.seed, "eps_mode": eps},
        "results": rep,
    })
    return EXIT_OK if rep.get("holds") else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


# Flags that every call of a subcommand defining them reads.
SHARED = ("--output", "--format", "--q", "--eps-mode", "--mode", "--suite")
_LEVELS = ("--d1", "--d2", "--d0", "--distortion")
# The other flags each call reads, per subcommand and keyed by what picks the
# call's path (_reads); main refuses any other flag given.  Encode's "given" rows
# take reproduction files, not one source; decode's md-* rows without "decoder
# 1|2" decode both descriptions.  Verify rows map each flag to the keyword it
# sets in the suite, which keeps its own default for a flag left None or "".
READS = {
    "analyze": {"": ("--side-info", "--block-len")},
    "encode": {"lz": (), "cond": ("--side-info",),
               "sr": ("--d1", "--d2", "--distortion", "--objective", "--weight", "--seed"),
               "sr given": ("--distortion",),
               "md-egc": (*_LEVELS, "--split"), "md-egc given": ("--split",),
               "md-zb": (*_LEVELS, "--alpha", "--u-file"),
               "md-zb given": ("--alpha", "--u-file")},
    "decode": {"lz": (), "cond": ("--side-info",),
               "sr stage 1": ("--stage",), "sr stage 2": ("--stage", "--coarse-output"),
               "md-egc": ("--decoder",), "md-egc decoder 1|2": ("--decoder",),
               "md-zb": ("--decoder",), "md-zb decoder 1|2": ("--decoder", "--aux-output")},
    "region": {"pair": ("--csv",), "blockwise": ("--block-len", "--side", "--csv"),
               "sr": ("--d1", "--d2", "--distortion", "--seed", "--csv"),
               "md": ("--u-file",)},
    "verify": {
        "entropy-ineq": {"--n": "n", "--block-lens": "block_lens", "--eps-mode": "eps_mode"},
        "cond-entropy-ineq": {"--n": "n", "--block-lens": "block_lens",
                              "--eps-mode": "eps_mode"},
        "converse": {"--seed": "seed", "--budget": "random_pairs", "--n": "n_large",
                     "--eps-mode": "eps_mode"},
        "sandwich": {"--seed": "seed", "--budget": "pairs", "--n": "n", "--q": "q",
                     "--eps-mode": "eps_mode"},
        "frontier": {"--seed": "seed", "--budget": "unions"},
        "split-lemma": {"--seed": "seed", "--budget": "budget"}, "kraft": {},
    },
}
# the verify suites, named by READS, so that building the parser loads no suite
SUITES = tuple(sorted(READS["verify"]))


def _reads(args) -> set:
    """The flags the call reads: the shared ones and its row of READS."""
    if args.command not in ("encode", "decode"):  # analyze has neither attribute
        key = getattr(args, "kind", None) or getattr(args, "suite", "")
    elif args.mode in ("lz", "cond"):
        key = args.mode
    elif args.command == "encode":
        key = args.mode + " given" * (len(args.inputs) > 1)
    elif args.mode == "sr":
        key = f"sr stage {args.stage}"
    else:
        key = args.mode + " decoder 1|2" * (args.decoder in (1, 2))
    return {*SHARED, *READS[args.command][key]}


class _Given(argparse.Action):
    """argparse's store action, which also notes each flag given by its long name."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if option_string is not None:
            namespace.given = {**getattr(namespace, "given", {}),
                               self.option_strings[-1]: f"{option_string} {values}"}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="srlz",
        description="Individual-sequence refinement codecs, rate regions, and "
                    "the verification harness for their converse bounds.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.register("action", None, _Given)  # every flag added below notes itself
        p.set_defaults(func=func)
        return p

    # each subcommand accepts only the shared flags it reads
    def bound_flags(p):
        p.add_argument("--eps-mode", default="default",
                       help="slack mode: default, zero, or custom:<value>")
        p.add_argument("--q", type=int, default=1,
                       help="per-stage state budget for the bound terms")

    def format_flag(p):
        p.add_argument("--format", dest="fmt", default="auto",
                       choices=("auto", "bytes", "tokens"),
                       help="sequence file format (auto sniffs the header)")

    def common(p):
        bound_flags(p)
        format_flag(p)

    pa = command("analyze", cmd_analyze, "complexities, entropies, and inequality checks")
    pa.add_argument("input")
    pa.add_argument("--side-info", default=None,
                    help="condition the input on this sequence")
    pa.add_argument("--block-len", type=int, default=None)
    common(pa)

    pe = command("encode", cmd_encode, "compress sequences into containers")
    pe.add_argument("inputs", nargs="+")
    pe.add_argument("--mode", required=True, choices=MODES)
    pe.add_argument("-o", "--output", required=True)
    pe.add_argument("--side-info", default=None)
    pe.add_argument("--d1", type=float, default=0.0, help="stage/description 1 distortion level")
    pe.add_argument("--d2", type=float, default=0.0, help="stage/description 2 distortion level")
    pe.add_argument("--d0", type=float, default=None, help="central distortion level")
    pe.add_argument("--distortion", default="hamming", choices=DISTORTIONS)
    pe.add_argument("--objective", default="weighted",
                    choices=("min-r1", "min-sum", "weighted"),
                    help="sr search objective (default weighted)")
    pe.add_argument("--weight", type=float, default=0.5,
                    help="sr search weight of rho_cond (default 0.5)")
    pe.add_argument("--seed", type=int, default=0, help="sr search seed (default 0)")
    pe.add_argument("--split", type=float, default=0.5,
                    help="central-refinement share for description 1 (md-egc)")
    pe.add_argument("--alpha", type=float, default=0.5,
                    help="central-refinement share for description 1 (md-zb)")
    pe.add_argument("--u-file", default=None, help="auxiliary sequence (md-zb)")
    common(pe)

    pd = command("decode", cmd_decode, "reconstruct sequences from containers")
    pd.add_argument("inputs", nargs="+")
    pd.add_argument("--mode", required=True, choices=MODES)
    pd.add_argument("-o", "--output", required=True)
    pd.add_argument("--side-info", default=None)
    pd.add_argument("--stage", type=int, default=2, choices=(1, 2),
                    help="sr: stop after the coarse stage (1) or refine (2)")
    pd.add_argument("--coarse-output", default=None,
                    help="sr: also write the coarse reproduction here")
    pd.add_argument("--decoder", type=int, default=None, choices=(0, 1, 2),
                    help="md: which decoder to run (default 0 with two inputs)")
    pd.add_argument("--aux-output", default=None,
                    help="md-zb: also write the auxiliary sequence here")
    format_flag(pd)

    pr = command("region", cmd_region, "rate regions and staircase frontiers")
    pr.add_argument("kind", choices=tuple(READS["region"]))
    pr.add_argument("inputs", nargs="+")
    pr.add_argument("--block-len", type=int, default=None)
    pr.add_argument("--side", default="outer-minus",
                    choices=("outer-minus", "inner-plus", "outer", "inner"))
    pr.add_argument("--d1", type=float, default=0.0)
    pr.add_argument("--d2", type=float, default=0.0)
    pr.add_argument("--distortion", default="hamming", choices=DISTORTIONS)
    pr.add_argument("--u-file", default=None)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--csv", default=None, help="write the frontier staircase as CSV")
    common(pr)

    pv = command("verify", cmd_verify, "run a verification suite")
    pv.add_argument("--suite", required=True, choices=SUITES)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget", type=int, default=None,
                    help="suite case count (pairs, unions, or tuples)")
    pv.add_argument("--block-lens", default=None,
                    help="comma-separated block lengths for the entropy suites")
    bound_flags(pv)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reads = _reads(args)
    unread = [given for flag, given in getattr(args, "given", {}).items() if flag not in reads]
    if unread:  # refused like a flag the subcommand never defines
        parser.error("unrecognized arguments: " + " ".join(unread))
    started = time.monotonic()
    try:
        code = args.func(args)
    except (BudgetExceededError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, StreamFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
