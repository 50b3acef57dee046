"""`srlz analyze`: the LZ78 complexity of a sequence, its conditional
complexity given side information, block entropies with their inequality
checks, and the converse bound terms."""

from __future__ import annotations

from typing import List

from . import cli
from .lz_core import Sequence, parse, rho_lz

HELP = "complexities, entropies, and inequality checks"
# The flags every call reads besides cli.SHARED, in its one row.
READS = {"": ("--side-info", "--block-len")}


def add_arguments(p) -> None:
    p.add_argument("input")
    p.add_argument("--side-info", default=None,
                   help="condition the input on this sequence")
    p.add_argument("--block-len", type=int, default=None)
    cli._bound_flags(p)
    cli._format_flag(p)


def row(args) -> str:
    return ""


def run(args) -> int:
    from . import bounds

    sums: dict = {}  # the inputs block: path -> checksum of the bytes read
    seq = cli.load_sequence(args.input, args.fmt, sums)
    side = cli.load_sequence(args.side_info, args.fmt, sums) if args.side_info else None
    eps = cli._eps_mode(args)
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
            raise cli.UsageError(
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
    cli.emit_report({
        "command": "analyze",
        "inputs": sums,
        "parameters": {"block_len": args.block_len, "q": args.q,
                       "eps_mode": eps, "format": args.fmt},
        "results": results,
    })
    return cli.EXIT_VIOLATION if violation else cli.EXIT_OK


def _phrase_names(seq: Sequence, pr) -> List[str]:
    syms = seq.alphabet.symbols
    joiner = "" if all(len(s) == 1 for s in syms) else " "
    return [joiner.join(syms[v] for v in seq.data[start:start + length])
            for start, length in pr.phrases]
