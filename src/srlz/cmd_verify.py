"""`srlz verify`: run one verification suite of `srlz.verify` with the
flags its row of `cli.READS` maps to the suite's keywords."""

from __future__ import annotations

from typing import Tuple

from . import cli

HELP = "run a verification suite"


def add_arguments(p) -> None:
    p.add_argument("--suite", required=True, choices=cli.SUITES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="suite case count (pairs, unions, or tuples)")
    p.add_argument("--block-lens", default=None,
                   help="comma-separated block lengths for the entropy suites")
    cli._bound_flags(p)


def _block_lens(raw: str) -> Tuple[int, ...]:
    try:
        lens = tuple(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise cli.UsageError(f"--block-lens wants comma-separated integers: {raw!r}") from exc
    if not lens or any(l < 1 for l in lens):
        raise cli.UsageError("block lengths must be positive")
    return lens


def run(args) -> int:
    from . import verify

    eps = cli._eps_mode(args)
    if args.budget is not None and args.budget < 0:
        raise cli.UsageError(f"--budget must be nonnegative, got {args.budget}")
    suite = args.suite
    kwargs = {}
    for flag, keyword in cli.READS["verify"][suite].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value != "":
            kwargs[keyword] = _block_lens(value) if flag == "--block-lens" else value
    rep = verify.SUITES[suite](**kwargs)
    cli.emit_report({
        "command": "verify",
        "parameters": {"suite": suite, "seed": args.seed, "eps_mode": eps},
        "results": rep,
    })
    return cli.EXIT_OK if rep.get("holds") else cli.EXIT_VIOLATION
