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
# sorted(verify.SUITES), spelled out so that building the parser loads no suite
SUITES = ("cond-entropy-ineq", "converse", "entropy-ineq", "frontier", "kraft",
          "sandwich", "split-lemma")


class UsageError(ValueError):
    """Bad flags or malformed inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# sequence file I/O: raw bytes, or token text with an alphabet header


def _bad_token(symbols: Seq[str]) -> Optional[str]:
    """The first symbol a token file cannot hold, or None: a token symbol is
    non-empty, has no whitespace and does not start with '#', which marks a
    comment line."""
    return next((s for s in symbols if s.split() != [s] or s.startswith("#")), None)


def load_sequence(path: str, fmt: str = "auto") -> Sequence:
    with open(path, "rb") as fh:
        data = fh.read()
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


def save_sequence(seq: Sequence, path: str, fmt: str = "auto") -> None:
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


def _file_checksum(path: str) -> str:
    with open(path, "rb") as fh:
        return f"{fnv1a64(fh.read()):016x}"


def _save_output(seq: Sequence, path: str, fmt: str, **fields) -> dict:
    """Save seq to path; its report entry, with the checksum of the file written."""
    save_sequence(seq, path, fmt)
    return {"path": path, **fields, "checksum": _file_checksum(path)}


def _write_bytes(path: str, data: bytes) -> dict:
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": path, "bytes": len(data), "checksum": f"{fnv1a64(data):016x}"}


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


def _inputs_block(paths: Seq[str]) -> dict:
    return {p: _file_checksum(p) for p in paths}


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    from . import bounds

    seq = load_sequence(args.input, args.fmt)
    side = load_sequence(args.side_info, args.fmt) if args.side_info else None
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
        "inputs": _inputs_block([p for p in (args.input, args.side_info) if p]),
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


def _md_triple(args) -> Tuple[Sequence, Sequence, Sequence]:
    """Three reproduction files, or one source file plus distortion levels."""
    if len(args.inputs) == 3:
        return tuple(load_sequence(p, args.fmt) for p in args.inputs)
    if len(args.inputs) == 1:
        from . import sr_codec

        x = load_sequence(args.inputs[0], args.fmt)
        d = sr_codec.PerLetterDistortion(args.distortion)
        xhat = sr_codec.nearest_feasible(x, d, args.d1)
        xtilde = sr_codec.nearest_feasible(x, d, args.d2)
        xcheck = sr_codec.nearest_feasible(x, d, args.d0 if args.d0 is not None else 0.0)
        return xhat, xtilde, xcheck
    raise UsageError("two-description modes take three reproduction files "
                     "(coarse, fine, central) or one source file with levels")


def cmd_encode(args) -> int:
    eps = _eps_mode(args)
    mode = args.mode
    report: dict = {
        "command": "encode",
        "parameters": {"mode": mode, "q": args.q, "eps_mode": eps,
                       "seed": args.seed, "format": args.fmt},
    }
    if mode == "lz":
        if len(args.inputs) != 1:
            raise UsageError("mode lz takes exactly one input file")
        seq = load_sequence(args.inputs[0], args.fmt)
        enc = lz_encode(seq)
        out = _write_bytes(args.output, enc.to_bytes())
        n = seq.n
        c = enc.phrase_count  # parse(seq).c, without a second walk
        report["inputs"] = _inputs_block(args.inputs)
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

        seq = load_sequence(args.inputs[0], args.fmt)
        side = load_sequence(args.side_info, args.fmt)
        # the encoder's dictionary is the joint parse's trie: its counts, no second walk
        enc, c_l = _cond_encode(seq, side, counts=True)
        out = _write_bytes(args.output, enc.to_bytes())
        n = seq.n
        rho_c = rho_cond_from_counts(c_l, n)
        bound = n * rho_c + n * bounds.eps_hat(n) if n >= 2 else None
        report["inputs"] = _inputs_block(args.inputs + [args.side_info])
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
            x = load_sequence(args.inputs[0], args.fmt)
            xhat, xtilde, diag = sr_codec.select_reproductions(
                x, dist, args.objective,
                regions.SearchBudget(seed=args.seed, weight=args.weight))
        elif len(args.inputs) == 3:
            x, xhat, xtilde = (load_sequence(p, args.fmt) for p in args.inputs)
            diag = {"search_mode": "given"}
        else:
            raise UsageError("mode sr takes a source file (reproductions are "
                             "searched) or source + two reproduction files")
        enc = sr_codec.sr_encode(x, xhat, xtilde)
        out = _write_bytes(args.output, enc.to_bytes())
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
        report["inputs"] = _inputs_block(args.inputs)
        report["parameters"].update({"d1": args.d1, "d2": args.d2,
                                     "objective": args.objective,
                                     "distortion": args.distortion})
        report["results"] = results
    else:  # md-egc, md-zb
        from . import mdc

        xhat, xtilde, xcheck = _md_triple(args)
        if mode == "md-egc":
            desc1, desc2, enc_rep = mdc.egc_encode(xhat, xtilde, xcheck, args.split)
        else:
            if args.u_file:
                u = load_sequence(args.u_file, args.fmt)
            else:
                u = mdc.default_auxiliary(xhat, levels=2)
            desc1, desc2, enc_rep = mdc.zb_encode(xhat, xtilde, xcheck, u, args.alpha)
        out1 = _write_bytes(args.output + ".d1", desc1)
        out2 = _write_bytes(args.output + ".d2", desc2)
        results = dict(enc_rep)
        results["outputs"] = [out1, out2]
        if xhat.n >= 2:
            results["outer_region"] = _md_region_dict(
                mdc.md_outer_region(xhat, xtilde, xcheck, args.q, eps), "outer")
            # the region of the streams just coded, from their bit counts
            results["inner_region"] = _md_region_dict(
                mdc.md_inner_region(xhat.n, enc_rep["bits"]), mode[3:] + "-inner")
        inputs = list(args.inputs) + ([args.u_file] if args.u_file else [])
        report["inputs"] = _inputs_block(inputs)
        report["parameters"].update({"split": args.split, "alpha": args.alpha,
                                     "d1": args.d1, "d2": args.d2, "d0": args.d0})
        report["results"] = results
    emit_report(report)
    return EXIT_OK


def cmd_decode(args) -> int:
    mode = args.mode
    report: dict = {
        "command": "decode",
        "inputs": _inputs_block(args.inputs),
        "parameters": {"mode": mode, "format": args.fmt},
    }
    # an output file the call would not write is an error, not a silent drop
    if args.coarse_output is not None and (mode != "sr" or args.stage == 1):
        raise UsageError("--coarse-output: only an sr decode at stage 2 writes the "
                         "coarse reproduction")
    if args.aux_output is not None and not (mode == "md-zb" and args.decoder in (1, 2)):
        raise UsageError("--aux-output: only md-zb decoders 1 and 2 write the auxiliary "
                         "sequence (decoder 0 writes PREFIX.aux)")
    outputs = []
    if mode == "lz":
        if len(args.inputs) != 1:
            raise UsageError("mode lz takes exactly one stream file")
        with open(args.inputs[0], "rb") as fh:
            seq = lz_decode(fh.read())
        outputs.append(_save_output(seq, args.output, args.fmt, n=seq.n))
    elif mode == "cond":
        if len(args.inputs) != 1 or not args.side_info:
            raise UsageError("mode cond takes one stream file plus --side-info")
        from .cond_lz import cond_decode

        side = load_sequence(args.side_info, args.fmt)
        with open(args.inputs[0], "rb") as fh:
            seq = cond_decode(fh.read(), side)
        outputs.append(_save_output(seq, args.output, args.fmt, n=seq.n))
    elif mode == "sr":
        if len(args.inputs) != 1:
            raise UsageError("mode sr takes exactly one stream file")
        from . import sr_codec

        with open(args.inputs[0], "rb") as fh:
            raw = fh.read()
        if args.stage == 1:
            coarse = sr_codec.sr_decode_stage1(raw)
            outputs.append(_save_output(coarse, args.output, args.fmt, n=coarse.n, stage=1))
        else:
            coarse, fine = sr_codec.sr_decode_full(raw)
            outputs.append(_save_output(fine, args.output, args.fmt, n=fine.n, stage=2))
            if args.coarse_output:
                outputs.append(_save_output(coarse, args.coarse_output, args.fmt,
                                            n=coarse.n, stage=1))
    else:  # md-egc, md-zb
        from . import mdc

        decoder = args.decoder
        if decoder is None:
            decoder = 0 if len(args.inputs) == 2 else None
        if decoder is None:
            raise UsageError("pass --decoder 1 or 2 for single-description decode")
        raws = []
        for p in args.inputs:
            with open(p, "rb") as fh:
                raws.append(fh.read())
        if decoder in (1, 2):
            if len(raws) != 1:
                raise UsageError("decoders 1 and 2 take one description file")
            if mode == "md-egc":
                seq = mdc.egc_decode1(raws[0]) if decoder == 1 else mdc.egc_decode2(raws[0])
            else:
                u, seq = mdc.zb_decode1(raws[0]) if decoder == 1 else mdc.zb_decode2(raws[0])
                if args.aux_output:
                    outputs.append(_save_output(u, args.aux_output, args.fmt, role="aux"))
            outputs.append(_save_output(seq, args.output, args.fmt, n=seq.n, decoder=decoder))
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
                outputs.append(_save_output(seq, f"{args.output}.{name}", args.fmt,
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
    report: dict = {
        "command": "region",
        "parameters": {"kind": kind, "q": args.q, "eps_mode": eps,
                       "format": args.fmt},
    }
    front = None
    if kind == "pair":
        if len(args.inputs) != 2:
            raise UsageError("region pair takes coarse and fine sequence files")
        xhat = load_sequence(args.inputs[0], args.fmt)
        xtilde = load_sequence(args.inputs[1], args.fmt)
        region = regions.region_for_pair(xhat, xtilde, args.q, eps)
        front = regions.frontier([region])
        report["results"] = {"region": _region_dict(region),
                             "frontier": [[p.r1, p.r2] for p in front]}
    elif kind == "blockwise":
        if len(args.inputs) != 2:
            raise UsageError("region blockwise takes coarse and fine sequence files")
        if args.block_len is None:
            raise UsageError("region blockwise needs --block-len")
        xhat = load_sequence(args.inputs[0], args.fmt)
        xtilde = load_sequence(args.inputs[1], args.fmt)
        region = regions.blockwise_region(xhat, xtilde, args.q, args.block_len,
                                          args.side, eps)
        front = regions.frontier([region])
        report["parameters"].update({"block_len": args.block_len, "side": args.side})
        report["results"] = {"region": _region_dict(region),
                             "frontier": [[p.r1, p.r2] for p in front]}
    elif kind == "sr":
        if len(args.inputs) != 1:
            raise UsageError("region sr takes one source sequence file")
        x = load_sequence(args.inputs[0], args.fmt)
        dist = _distortion_spec(args)
        union = regions.sr_outer_region(x, dist, args.q,
                                        regions.SearchBudget(seed=args.seed), eps)
        front = list(union.frontier)
        report["parameters"].update({"d1": args.d1, "d2": args.d2,
                                     "distortion": args.distortion,
                                     "seed": args.seed})
        report["results"] = {
            "members": [_region_dict(m) for m in union.members],
            "frontier": [[p.r1, p.r2] for p in front],
            "search": union.meta,
        }
    else:  # md
        if len(args.inputs) != 3:
            raise UsageError("region md takes coarse, fine, and central files")
        from . import mdc

        xhat, xtilde, xcheck = (load_sequence(p, args.fmt) for p in args.inputs)
        outer = mdc.md_outer_region(xhat, xtilde, xcheck, args.q, eps)
        egc = mdc.egc_encode(xhat, xtilde, xcheck)[2]
        results = {
            "outer": _md_region_dict(outer, "outer"),
            "egc_inner": _md_region_dict(mdc.md_inner_region(xhat.n, egc["bits"]),
                                         "egc-inner"),
            "mi": egc["mi"],
        }
        if args.u_file:
            u = load_sequence(args.u_file, args.fmt)
            zb = mdc.zb_encode(xhat, xtilde, xcheck, u)[2]
            results["zb_inner"] = _md_region_dict(mdc.md_inner_region(xhat.n, zb["bits"]),
                                                  "zb-inner")
            results["mi_given_aux"] = zb["mi_given_aux"]
        report["results"] = results
    report["inputs"] = _inputs_block(
        list(args.inputs) + ([args.u_file] if args.u_file else []))
    if args.csv:
        if front is None:
            raise UsageError("--csv applies to staircase region kinds (pair, "
                             "blockwise, sr)")
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(regions.frontier_csv(front))
        report["results"]["csv"] = args.csv
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


# per suite, the CLI flags it reads and the keyword each one sets; a flag left
# unset (None, or an empty --block-lens) keeps the suite's own default
VERIFY_FLAGS = {
    "entropy-ineq": {"n": "n", "block_lens": "block_lens", "eps_mode": "eps_mode"},
    "cond-entropy-ineq": {"n": "n", "block_lens": "block_lens", "eps_mode": "eps_mode"},
    "kraft": {},
    "converse": {"seed": "seed", "budget": "random_pairs", "n": "n_large",
                 "eps_mode": "eps_mode"},
    "frontier": {"seed": "seed", "budget": "unions"},
    "split-lemma": {"seed": "seed", "budget": "budget"},
    "sandwich": {"seed": "seed", "budget": "pairs", "n": "n", "q": "q", "eps_mode": "eps_mode"},
}


def cmd_verify(args) -> int:
    from . import verify

    eps = _eps_mode(args)
    if args.budget is not None and args.budget < 0:
        raise UsageError(f"--budget must be nonnegative, got {args.budget}")
    suite = args.suite
    kwargs = {}
    for flag, keyword in VERIFY_FLAGS[suite].items():
        value = getattr(args, flag)
        if value is not None and value != "":
            kwargs[keyword] = _block_lens(value) if flag == "block_lens" else value
    rep = verify.SUITES[suite](**kwargs)
    emit_report({
        "command": "verify",
        "parameters": {"suite": suite, "seed": args.seed, "eps_mode": eps},
        "results": rep,
    })
    return EXIT_OK if rep.get("holds") else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


# encode flags that only the reproduction search (mode sr, one input) reads,
# with their defaults
SEARCH_FLAGS = {"objective": "weighted", "weight": 0.5, "seed": 0}


def build_parser(search_flags: bool = True) -> argparse.ArgumentParser:
    """The srlz parser; without `search_flags`, encode lacks SEARCH_FLAGS."""
    top = argparse.ArgumentParser(
        prog="srlz",
        description="Individual-sequence refinement codecs, rate regions, and "
                    "the verification harness for their converse bounds.")
    sub = top.add_subparsers(dest="command", required=True)

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

    pa = sub.add_parser("analyze", help="complexities, entropies, and inequality checks")
    pa.add_argument("input")
    pa.add_argument("--side-info", default=None,
                    help="condition the input on this sequence")
    pa.add_argument("--block-len", type=int, default=None)
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("encode", help="compress sequences into containers")
    pe.add_argument("inputs", nargs="+")
    pe.add_argument("--mode", required=True, choices=MODES)
    pe.add_argument("-o", "--output", required=True)
    pe.add_argument("--side-info", default=None)
    pe.add_argument("--d1", type=float, default=0.0, help="stage/description 1 distortion level")
    pe.add_argument("--d2", type=float, default=0.0, help="stage/description 2 distortion level")
    pe.add_argument("--d0", type=float, default=None, help="central distortion level")
    pe.add_argument("--distortion", default="hamming", choices=("hamming", "absdiff"))
    if search_flags:  # None: not given; see _search_flags
        pe.add_argument("--objective", default=None,
                        choices=("min-r1", "min-sum", "weighted"),
                        help="sr search objective (default weighted)")
        pe.add_argument("--weight", type=float, default=None,
                        help="sr search weight of rho_cond (default 0.5)")
        pe.add_argument("--seed", type=int, default=None,
                        help="sr search seed (default 0)")
    pe.add_argument("--split", type=float, default=0.5,
                    help="central-refinement share for description 1 (md-egc)")
    pe.add_argument("--alpha", type=float, default=0.5,
                    help="central-refinement share for description 1 (md-zb)")
    pe.add_argument("--u-file", default=None, help="auxiliary sequence (md-zb)")
    common(pe)
    pe.set_defaults(func=cmd_encode)

    pd = sub.add_parser("decode", help="reconstruct sequences from containers")
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
    pd.set_defaults(func=cmd_decode)

    pr = sub.add_parser("region", help="rate regions and staircase frontiers")
    pr.add_argument("kind", choices=("pair", "blockwise", "sr", "md"))
    pr.add_argument("inputs", nargs="+")
    pr.add_argument("--block-len", type=int, default=None)
    pr.add_argument("--side", default="outer-minus",
                    choices=("outer-minus", "inner-plus", "outer", "inner"))
    pr.add_argument("--d1", type=float, default=0.0)
    pr.add_argument("--d2", type=float, default=0.0)
    pr.add_argument("--distortion", default="hamming", choices=("hamming", "absdiff"))
    pr.add_argument("--u-file", default=None)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--csv", default=None, help="write the frontier staircase as CSV")
    common(pr)
    pr.set_defaults(func=cmd_region)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=SUITES)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget", type=int, default=None,
                    help="suite case count (pairs, unions, or tuples)")
    pv.add_argument("--block-lens", default=None,
                    help="comma-separated block lengths for the entropy suites")
    bound_flags(pv)
    pv.set_defaults(func=cmd_verify)
    return top


def _search_flags(args, argv: Optional[List[str]]) -> None:
    """Fill in encode's SEARCH_FLAGS.  A call that does not search and gives
    one exits 2 like any flag its subcommand never reads: the parser without
    them names it as unrecognized."""
    given = [f for f in SEARCH_FLAGS if getattr(args, f) is not None]
    if given and not (args.mode == "sr" and len(args.inputs) == 1):
        build_parser(search_flags=False).parse_args(argv)
    for flag, default in SEARCH_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "encode":
        _search_flags(args, argv)
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
