"""`srlz region`: the rate region of a reproduction pair (exact or
blockwise), the outer region of a source searched over reproductions, and
the two-description regions, with their staircase frontiers."""

from __future__ import annotations

from . import cli

HELP = "rate regions and staircase frontiers"


def add_arguments(p) -> None:
    p.add_argument("kind", choices=tuple(cli.READS["region"]))
    p.add_argument("inputs", nargs="+")
    p.add_argument("--block-len", type=int, default=None)
    p.add_argument("--side", default="outer-minus",
                   choices=("outer-minus", "inner-plus", "outer", "inner"))
    p.add_argument("--d1", type=float, default=0.0)
    p.add_argument("--d2", type=float, default=0.0)
    p.add_argument("--distortion", default="hamming", choices=cli.DISTORTIONS)
    p.add_argument("--u-file", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="write the frontier staircase as CSV")
    cli._bound_flags(p)
    cli._format_flag(p)


def run(args) -> int:
    from . import regions

    eps = cli._eps_mode(args)
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
            raise cli.UsageError(f"region {kind} takes coarse and fine sequence files")
        if kind == "blockwise" and args.block_len is None:
            raise cli.UsageError("region blockwise needs --block-len")
        xhat, xtilde = (cli.load_sequence(p, args.fmt, sums) for p in args.inputs)
        if kind == "pair":
            region = regions.region_for_pair(xhat, xtilde, args.q, eps)
        else:
            region = regions.blockwise_region(xhat, xtilde, args.q, args.block_len,
                                              args.side, eps)
            report["parameters"].update({"block_len": args.block_len, "side": args.side})
        front = regions.frontier([region])
        results = {"region": cli._region_dict(region)}
    elif kind == "sr":
        if len(args.inputs) != 1:
            raise cli.UsageError("region sr takes one source sequence file")
        x = cli.load_sequence(args.inputs[0], args.fmt, sums)
        dist = cli._distortion_spec(args)
        union = regions.sr_outer_region(x, dist, args.q,
                                        regions.SearchBudget(seed=args.seed), eps)
        front = list(union.frontier)
        report["parameters"].update({"d1": args.d1, "d2": args.d2,
                                     "distortion": args.distortion,
                                     "seed": args.seed})
        results = {"members": [cli._region_dict(m) for m in union.members],
                   "search": union.meta}
    else:  # md
        if len(args.inputs) != 3:
            raise cli.UsageError("region md takes coarse, fine, and central files")
        from . import mdc

        xhat, xtilde, xcheck = (cli.load_sequence(p, args.fmt, sums) for p in args.inputs)
        outer = mdc.md_outer_region(xhat, xtilde, xcheck, args.q, eps)
        egc = mdc.egc_encode(xhat, xtilde, xcheck)[2]
        results = {
            "outer": cli._md_region_dict(outer, "outer"),
            "egc_inner": cli._md_region_dict(mdc.md_inner_region(xhat.n, egc["bits"]),
                                             "egc-inner"),
            "mi": egc["mi"],
        }
        if args.u_file:
            u = cli.load_sequence(args.u_file, args.fmt, sums)
            zb = mdc.zb_encode(xhat, xtilde, xcheck, u)[2]
            results["zb_inner"] = cli._md_region_dict(
                mdc.md_inner_region(xhat.n, zb["bits"]), "zb-inner")
            results["mi_given_aux"] = zb["mi_given_aux"]
    if kind != "md":  # the staircase kinds
        results["frontier"] = [[p.r1, p.r2] for p in front]
    report["results"] = results
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(regions.frontier_csv(front))
        results["csv"] = args.csv
    cli.emit_report(report)
    return cli.EXIT_OK
