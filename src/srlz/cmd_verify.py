"""`srlz verify`: run one verification suite of `srlz.verify` with the
flags its row of READS maps to the suite's keywords."""

from __future__ import annotations

from typing import Tuple

from . import cli

HELP = "run a verification suite"
# The flags a call reads besides cli.SHARED, by suite: each maps to the keyword
# it sets in the suite, which keeps its own default for a flag left None or "".
READS = {
    "entropy-ineq": {"--n": "n", "--block-lens": "block_lens", "--eps-mode": "eps_mode"},
    "cond-entropy-ineq": {"--n": "n", "--block-lens": "block_lens", "--eps-mode": "eps_mode"},
    "converse": {"--seed": "seed", "--budget": "random_pairs", "--n": "n_large",
                 "--eps-mode": "eps_mode"},
    "sandwich": {"--seed": "seed", "--budget": "pairs", "--n": "n", "--q": "q",
                 "--eps-mode": "eps_mode"},
    "frontier": {"--seed": "seed", "--budget": "unions"},
    "split-lemma": {"--seed": "seed", "--budget": "budget"}, "kraft": {},
}
# the verify suites, named here, so that building the parser loads no suite
SUITES = tuple(sorted(READS))


def add_arguments(p) -> None:
    p.add_argument("--suite", required=True, choices=SUITES)
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


def row(args) -> str:
    return args.suite


def run(args) -> int:
    from . import verify

    eps = cli._eps_mode(args)
    if args.budget is not None and args.budget < 0:
        raise cli.UsageError(f"--budget must be nonnegative, got {args.budget}")
    suite = args.suite
    kwargs = {}
    for flag, keyword in READS[suite].items():
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
