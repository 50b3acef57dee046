"""`srlz decode`: reconstruct sequences from the containers of each mode,
and report each file written with the checksum of its bytes."""

from __future__ import annotations

from . import cli
from .lz_core import lz_decode

HELP = "reconstruct sequences from containers"
# The flags a call reads besides cli.SHARED, by the key `row` picks.  The
# md-* rows without "decoder 1|2" decode both descriptions.
READS = {"lz": (), "cond": ("--side-info",),
         "sr stage 1": ("--stage",), "sr stage 2": ("--stage", "--coarse-output"),
         "md-egc": ("--decoder",), "md-egc decoder 1|2": ("--decoder",),
         "md-zb": ("--decoder",), "md-zb decoder 1|2": ("--decoder", "--aux-output")}


def add_arguments(p) -> None:
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mode", required=True, choices=cli.MODES)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--side-info", default=None)
    p.add_argument("--stage", type=int, default=2, choices=(1, 2),
                   help="sr: stop after the coarse stage (1) or refine (2)")
    p.add_argument("--coarse-output", default=None,
                   help="sr: also write the coarse reproduction here")
    p.add_argument("--decoder", type=int, default=None, choices=(0, 1, 2),
                   help="md: which decoder to run (default 0 with two inputs)")
    p.add_argument("--aux-output", default=None,
                   help="md-zb: also write the auxiliary sequence here")
    cli._format_flag(p)


def row(args) -> str:
    if args.mode == "sr":
        return f"sr stage {args.stage}"
    if args.mode in ("lz", "cond"):
        return args.mode
    return args.mode + " decoder 1|2" * (args.decoder in (1, 2))


def run(args) -> int:
    mode = args.mode
    sums: dict = {}
    raws = [cli._read(p, sums) for p in args.inputs]
    report: dict = {
        "command": "decode",
        "inputs": sums,
        "parameters": {"mode": mode, "format": args.fmt},
    }
    outputs = []
    if mode in ("lz", "sr") and len(raws) != 1:
        raise cli.UsageError(f"mode {mode} takes exactly one stream file")
    if mode == "lz":
        seq = lz_decode(raws[0])
        outputs.append(cli._write(args.output, seq, args.fmt, n=seq.n))
    elif mode == "cond":
        if len(raws) != 1 or not args.side_info:
            raise cli.UsageError("mode cond takes one stream file plus --side-info")
        from .cond_lz import cond_decode

        seq = cond_decode(raws[0], cli.load_sequence(args.side_info, args.fmt))
        outputs.append(cli._write(args.output, seq, args.fmt, n=seq.n))
    elif mode == "sr":
        from . import sr_codec

        if args.stage == 1:
            coarse = sr_codec.sr_decode_stage1(raws[0])
            outputs.append(cli._write(args.output, coarse, args.fmt, n=coarse.n, stage=1))
        else:
            coarse, fine = sr_codec.sr_decode_full(raws[0])
            outputs.append(cli._write(args.output, fine, args.fmt, n=fine.n, stage=2))
            if args.coarse_output:
                outputs.append(cli._write(args.coarse_output, coarse, args.fmt,
                                          n=coarse.n, stage=1))
    else:  # md-egc, md-zb
        from . import mdc

        if args.decoder is None and len(raws) != 2:
            raise cli.UsageError("pass --decoder 1 or 2 for single-description decode")
        decoder = args.decoder or 0
        if decoder in (1, 2):
            if len(raws) != 1:
                raise cli.UsageError("decoders 1 and 2 take one description file")
            if mode == "md-egc":
                seq = mdc.egc_decode1(raws[0]) if decoder == 1 else mdc.egc_decode2(raws[0])
            else:
                u, seq = mdc.zb_decode1(raws[0]) if decoder == 1 else mdc.zb_decode2(raws[0])
                if args.aux_output:
                    outputs.append(cli._write(args.aux_output, u, args.fmt, role="aux"))
            outputs.append(cli._write(args.output, seq, args.fmt, n=seq.n, decoder=decoder))
        else:
            if len(raws) != 2:
                raise cli.UsageError("decoder 0 takes both description files")
            parts = []
            if mode == "md-egc":
                xhat, xtilde, xcheck = mdc.egc_decode0(raws[0], raws[1])
            else:
                u, xhat, xtilde, xcheck = mdc.zb_decode0(raws[0], raws[1])
                parts.append(("aux", u))
            parts += [("hat", xhat), ("tilde", xtilde), ("check", xcheck)]
            for name, seq in parts:
                outputs.append(cli._write(f"{args.output}.{name}", seq, args.fmt,
                                          n=seq.n, role=name))
    report["results"] = {"outputs": outputs}
    cli.emit_report(report)
    return cli.EXIT_OK
