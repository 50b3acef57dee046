"""Block empirical distributions, entropies, and the entropy-vs-complexity checks.

For block length l dividing n, the empirical distribution is taken over the
n/l disjoint blocks.  The checked inequalities lower-bound per-symbol block
entropies by normalized parse complexities minus vanishing penalties:

    H_l(x)/l             >= rho_lz(x)   - delta_n(l)
    H_l(xtilde|xhat)/l   >= rho_cond    - delta'_n(l)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import bounds
from .cond_lz import SideInfo, _joint_walk, as_side_info, rho_cond, rho_cond_from_counts
from .lz_core import Sequence, _phrase_count, rho_from_count, rho_lz

TOL = 1e-12


@dataclass(frozen=True)
class BlockEmpirics:
    block_len: int
    count: int  # number of blocks
    joint_dist: Dict[tuple, float]
    h_joint: float   # bits per block
    h_primary: float
    h_cond: float    # h_joint - h_primary


def _entropy_from_counts(counts: Dict, total: int) -> float:
    if total == 0:
        return 0.0
    s = 0.0
    for c in counts.values():
        s += c * math.log2(c)
    return math.log2(total) - s / total


def block_empirics(primary: Sequence, secondary: Optional[Sequence], block_len: int) -> BlockEmpirics:
    n = primary.n
    l = block_len
    if l < 1:
        raise ValueError("block length must be positive")
    if n % l != 0:
        raise ValueError(f"block length {l} does not divide n={n}")
    if secondary is not None and secondary.n != n:
        raise ValueError("primary and secondary lengths differ")
    count = n // l
    pd = primary.data
    joint: Dict[tuple, int] = {}
    prim_marg: Dict[tuple, int] = {}
    if secondary is None:
        for t in range(0, n, l):
            key = pd[t:t + l]
            joint[key] = joint.get(key, 0) + 1
        h_joint = _entropy_from_counts(joint, count)
        dist = {k: v / count for k, v in joint.items()}
        return BlockEmpirics(l, count, dist, h_joint, h_joint, 0.0)
    sd = secondary.data
    for t in range(0, n, l):
        pb = pd[t:t + l]
        key = (pb, sd[t:t + l])
        joint[key] = joint.get(key, 0) + 1
        prim_marg[pb] = prim_marg.get(pb, 0) + 1
    h_joint = _entropy_from_counts(joint, count)
    h_primary = _entropy_from_counts(prim_marg, count)
    dist = {k: v / count for k, v in joint.items()}
    return BlockEmpirics(l, count, dist, h_joint, h_primary, h_joint - h_primary)


def check_entropy_inequality(seq: Sequence, block_len: int,
                             eps_mode: Union[str, float] = "default",
                             tol: float = TOL) -> dict:
    n = seq.n
    if n < 2:
        raise ValueError("needs n >= 2")
    beta = seq.alphabet.size
    eps_n = bounds.eps_n_value(n, beta, eps_mode)
    emp = block_empirics(seq, None, block_len)
    lhs = emp.h_joint / block_len
    rho = rho_lz(seq)
    delta = bounds.delta_n(block_len, n, beta, eps_n)
    rhs = rho - delta
    return {
        "n": n,
        "beta": beta,
        "block_len": block_len,
        "lhs": lhs,
        "rho_lz": rho,
        "delta": delta,
        "rhs": rhs,
        "eps_mode": str(eps_mode),
        "eps_n": eps_n,
        "holds": lhs >= rhs - tol,
    }


def check_cond_entropy_inequality(secondary: Sequence, primary: SideInfo, block_len: int,
                                  eps_mode: Union[str, float] = "default",
                                  tol: float = TOL) -> dict:
    prim = as_side_info(primary)
    n = prim.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if secondary.n != n:
        raise ValueError("primary and secondary lengths differ")
    beta = prim.alphabet.size
    gamma = secondary.alphabet.size
    eps_n = bounds.eps_n_value(n, beta, eps_mode)
    emp = block_empirics(prim, secondary, block_len)
    lhs = emp.h_cond / block_len
    rho_c = rho_cond(secondary, prim)
    delta_p = bounds.delta_n_prime(block_len, n, beta, gamma, eps_n)
    rhs = rho_c - delta_p
    return {
        "n": n,
        "beta": beta,
        "gamma": gamma,
        "block_len": block_len,
        "lhs": lhs,
        "rho_cond": rho_c,
        "delta_prime": delta_p,
        "rhs": rhs,
        "eps_mode": str(eps_mode),
        "eps_n": eps_n,
        "holds": lhs >= rhs - tol,
    }


def _int_block_counts(v: int, n: int, l: int) -> Dict[int, int]:
    mask = (1 << l) - 1
    counts: Dict[int, int] = {}
    for shift in range(n - l, -1, -l):
        key = (v >> shift) & mask
        counts[key] = counts.get(key, 0) + 1
    return counts


def scan_entropy_inequality(n: int, beta: int = 2,
                            block_lens: Tuple[int, ...] = (1, 2, 4, 8),
                            eps_mode: Union[str, float] = "default",
                            tol: float = TOL,
                            budget: int = 1 << 20) -> dict:
    """Exhaustively check the plain inequality over every length-n sequence."""
    if beta != 2:
        raise ValueError("exhaustive scan is implemented for binary sequences")
    for l in block_lens:
        if n % l != 0:
            raise ValueError(f"block length {l} does not divide n={n}")
    total = beta ** n
    if total > budget:
        raise ValueError(f"{total} sequences exceed the scan budget {budget}")
    eps_n = bounds.eps_n_value(n, beta, eps_mode)
    deltas = {l: bounds.delta_n(l, n, beta, eps_n) for l in block_lens}
    log2 = math.log2
    violations: List[dict] = []
    checks = 0
    for v in range(total):
        bits = [(v >> shift) & 1 for shift in range(n - 1, -1, -1)]
        rho = rho_from_count(_phrase_count(bits, 2), n)
        for l in block_lens:
            counts = _int_block_counts(v, n, l)
            blocks = n // l
            s = 0.0
            for cnt in counts.values():
                s += cnt * log2(cnt)
            lhs = (log2(blocks) - s / blocks) / l
            checks += 1
            if lhs < rho - deltas[l] - tol:
                violations.append({"sequence": v, "block_len": l,
                                   "lhs": lhs, "rhs": rho - deltas[l]})
    return {
        "suite": "entropy-ineq",
        "n": n,
        "beta": beta,
        "block_lens": list(block_lens),
        "eps_mode": str(eps_mode),
        "eps_n": eps_n,
        "sequences": total,
        "checks": checks,
        "violations": violations,
        "holds": not violations,
    }


def scan_cond_entropy_inequality(n: int, beta: int = 2, gamma: int = 2,
                                 block_lens: Tuple[int, ...] = (1, 2, 4),
                                 eps_mode: Union[str, float] = "default",
                                 tol: float = TOL,
                                 budget: int = 1 << 20) -> dict:
    """Exhaustively check the joint inequality over every binary pair of length n."""
    if beta != 2 or gamma != 2:
        raise ValueError("exhaustive scan is implemented for binary pairs")
    for l in block_lens:
        if n % l != 0:
            raise ValueError(f"block length {l} does not divide n={n}")
    total = (beta * gamma) ** n
    if total > budget:
        raise ValueError(f"{total} pairs exceed the scan budget {budget}")
    eps_n = bounds.eps_n_value(n, beta, eps_mode)
    deltas = {l: bounds.delta_n_prime(l, n, beta, gamma, eps_n) for l in block_lens}
    log2 = math.log2
    side = beta ** n
    bit_cache = []
    for v in range(side):
        bit_cache.append(tuple((v >> s) & 1 for s in range(n - 1, -1, -1)))
    violations: List[dict] = []
    checks = 0
    for vh in range(side):
        pb = bit_cache[vh]
        for vt in range(side):
            sb = bit_cache[vt]
            rho_c = rho_cond_from_counts(_joint_walk(pb, sb, 2, 2)[2], n)
            for l in block_lens:
                hc: Dict[Tuple[int, int], int] = {}
                pm: Dict[int, int] = {}
                mask = (1 << l) - 1
                for shift in range(n - l, -1, -l):
                    hb = (vh >> shift) & mask
                    key = (hb, (vt >> shift) & mask)
                    hc[key] = hc.get(key, 0) + 1
                    pm[hb] = pm.get(hb, 0) + 1
                blocks = n // l
                s = 0.0
                for cnt in hc.values():
                    s += cnt * log2(cnt)
                sp = 0.0
                for cnt in pm.values():
                    sp += cnt * log2(cnt)
                lhs = ((sp - s) / blocks) / l  # H(joint) - H(primary), log2(blocks) cancels
                checks += 1
                if lhs < rho_c - deltas[l] - tol:
                    violations.append({"primary": vh, "secondary": vt,
                                       "block_len": l, "lhs": lhs,
                                       "rhs": rho_c - deltas[l]})
    return {
        "suite": "cond-entropy-ineq",
        "n": n,
        "beta": beta,
        "gamma": gamma,
        "block_lens": list(block_lens),
        "eps_mode": str(eps_mode),
        "eps_n": eps_n,
        "pairs": total,
        "checks": checks,
        "violations": violations,
        "holds": not violations,
    }
