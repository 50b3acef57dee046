"""`srlz encode`: compress sequences into a container of each mode, plain
and conditional LZ, two-stage refinement and the two-description codecs,
and report rates, bounds and regions."""

from __future__ import annotations

from typing import Tuple

from . import cli
from .lz_core import Sequence, _code_len_bound, lz_encode, rho_from_count

HELP = "compress sequences into containers"
_LEVELS = ("--d1", "--d2", "--d0", "--distortion")
# The flags a call reads besides cli.SHARED, by the key `row` picks.  The
# "given" rows take reproduction files, not one source.
READS = {"lz": (), "cond": ("--side-info",),
         "sr": ("--d1", "--d2", "--distortion", "--objective", "--weight", "--seed"),
         "sr given": ("--distortion",),
         "md-egc": (*_LEVELS, "--split"), "md-egc given": ("--split",),
         "md-zb": (*_LEVELS, "--alpha", "--u-file"),
         "md-zb given": ("--alpha", "--u-file")}


def add_arguments(p) -> None:
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mode", required=True, choices=cli.MODES)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--side-info", default=None)
    p.add_argument("--d1", type=float, default=0.0, help="stage/description 1 distortion level")
    p.add_argument("--d2", type=float, default=0.0, help="stage/description 2 distortion level")
    p.add_argument("--d0", type=float, default=None, help="central distortion level")
    p.add_argument("--distortion", default="hamming", choices=cli.DISTORTIONS)
    p.add_argument("--objective", default="weighted",
                   choices=("min-r1", "min-sum", "weighted"),
                   help="sr search objective (default weighted)")
    p.add_argument("--weight", type=float, default=0.5,
                   help="sr search weight of rho_cond (default 0.5)")
    p.add_argument("--seed", type=int, default=0, help="sr search seed (default 0)")
    p.add_argument("--split", type=float, default=0.5,
                   help="central-refinement share for description 1 (md-egc)")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="central-refinement share for description 1 (md-zb)")
    p.add_argument("--u-file", default=None, help="auxiliary sequence (md-zb)")
    cli._bound_flags(p)
    cli._format_flag(p)


def row(args) -> str:
    if args.mode in ("lz", "cond"):
        return args.mode
    return args.mode + " given" * (len(args.inputs) > 1)


def _md_triple(args, sums: dict) -> Tuple[Sequence, Sequence, Sequence]:
    """Three reproduction files, or one source file plus distortion levels."""
    if len(args.inputs) == 3:
        return tuple(cli.load_sequence(p, args.fmt, sums) for p in args.inputs)
    if len(args.inputs) == 1:
        from . import sr_codec

        x = cli.load_sequence(args.inputs[0], args.fmt, sums)
        dist = cli._distortion_spec(args)
        xhat = sr_codec.nearest_feasible(x, dist.d1, dist.level1)
        xtilde = sr_codec.nearest_feasible(x, dist.d2, dist.level2)
        xcheck = sr_codec.nearest_feasible(x, dist.d1, args.d0 if args.d0 is not None else 0.0)
        return xhat, xtilde, xcheck
    raise cli.UsageError("two-description modes take three reproduction files "
                         "(coarse, fine, central) or one source file with levels")


def run(args) -> int:
    eps = cli._eps_mode(args)
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
            raise cli.UsageError("mode lz takes exactly one input file")
        seq = cli.load_sequence(args.inputs[0], args.fmt, sums)
        enc = lz_encode(seq)
        out = cli._write(args.output, enc.to_bytes())
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
            raise cli.UsageError("mode cond takes one input file plus --side-info")
        from . import bounds
        from .cond_lz import _cond_encode, rho_cond_from_counts

        seq = cli.load_sequence(args.inputs[0], args.fmt, sums)
        side = cli.load_sequence(args.side_info, args.fmt, sums)
        # the encoder's dictionary is the joint parse's trie: its counts, no second walk
        enc, c_l = _cond_encode(seq, side, counts=True)
        out = cli._write(args.output, enc.to_bytes())
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

        dist = cli._distortion_spec(args)
        if len(args.inputs) == 1:
            x = cli.load_sequence(args.inputs[0], args.fmt, sums)
            xhat, xtilde, diag = sr_codec.select_reproductions(
                x, dist, args.objective,
                regions.SearchBudget(seed=args.seed, weight=args.weight))
        elif len(args.inputs) == 3:
            x, xhat, xtilde = (cli.load_sequence(p, args.fmt, sums) for p in args.inputs)
            diag = {"search_mode": "given"}
        else:
            raise cli.UsageError("mode sr takes a source file (reproductions are "
                                 "searched) or source + two reproduction files")
        enc = sr_codec.sr_encode(x, xhat, xtilde)
        out = cli._write(args.output, enc.to_bytes())
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
            results["floors"] = cli._region_dict(floor)
            results["ceilings"] = cli._region_dict(inner)
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
                u = cli.load_sequence(args.u_file, args.fmt, sums)
            else:
                u = mdc.default_auxiliary(xhat, levels=2)
            desc1, desc2, enc_rep = mdc.zb_encode(xhat, xtilde, xcheck, u, args.alpha)
        out1 = cli._write(args.output + ".d1", desc1)
        out2 = cli._write(args.output + ".d2", desc2)
        results = dict(enc_rep)
        results["outputs"] = [out1, out2]
        if xhat.n >= 2:
            results["outer_region"] = cli._md_region_dict(
                mdc.md_outer_region(xhat, xtilde, xcheck, args.q, eps), "outer")
            # the region of the streams just coded, from their bit counts
            results["inner_region"] = cli._md_region_dict(
                mdc.md_inner_region(xhat.n, enc_rep["bits"]), mode[3:] + "-inner")
        report["parameters"].update({"split": args.split, "alpha": args.alpha,
                                     "d1": args.d1, "d2": args.d2, "d0": args.d0})
        report["results"] = results
    cli.emit_report(report)
    return cli.EXIT_OK
