"""Block empirical distributions, entropies, and the entropy-vs-complexity checks.

For block length l dividing n, the empirical distribution is taken over the
n/l disjoint blocks.  The checked inequalities lower-bound per-symbol block
entropies by normalized parse complexities minus vanishing penalties:

    H_l(x)/l             >= rho_lz(x)   - delta_n(l)
    H_l(xtilde|xhat)/l   >= rho_cond    - delta'_n(l)
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from . import bounds
from .container import Record
from .lz_core import Sequence, rho_from_count

TOL = 1e-12


class BlockEmpirics(Record):
    __slots__ = ("block_len",
                 "count",  # number of blocks
                 "h_joint",  # bits per block
                 "h_primary",
                 "h_cond")  # h_joint - h_primary

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
    sd = None if secondary is None else secondary.data
    prim_marg: Dict[tuple, int] = {}
    joint: Dict[tuple, int] = prim_marg if sd is None else {}
    for t in range(0, n, l):
        pb = pd[t:t + l]
        prim_marg[pb] = prim_marg.get(pb, 0) + 1
        if sd is not None:
            key = (pb, sd[t:t + l])
            joint[key] = joint.get(key, 0) + 1
    h_primary = _entropy_from_counts(prim_marg, count)
    # without a secondary the joint blocks are the primary ones
    h_joint = h_primary if sd is None else _entropy_from_counts(joint, count)
    return BlockEmpirics(l, count, h_joint, h_primary, h_joint - h_primary)


def block_checks(primary: Sequence, secondary: Optional[Sequence], block_len: int,
                 eps_mode: str = "default", tol: float = TOL,
                 rho: Optional[float] = None,
                 rho_c: Optional[float] = None) -> Tuple[BlockEmpirics, Optional[dict],
                                                         Optional[dict]]:
    """One block_empirics(primary, secondary, block_len) and the inequality
    reports it feeds, from complexities the caller has: the plain inequality
    of primary when its rho_lz `rho` is given, the conditional one of
    secondary given primary when rho_cond(secondary | primary) `rho_c` is.
    The plain report reads H_l(primary) as h_primary, which with a secondary
    is the same float as h_joint without one (same counts, same order).
    Returns (empirics, plain report or None, conditional report or None)."""
    n = primary.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if secondary is not None and secondary.n != n:
        raise ValueError("primary and secondary lengths differ")
    beta = primary.alphabet.size
    eps_n = bounds.eps_n_value(n, beta, eps_mode)
    emp = block_empirics(primary, secondary, block_len)
    ineq = cineq = None
    if rho is not None:
        lhs = emp.h_primary / block_len
        delta = bounds.delta_n(block_len, n, beta, eps_n)
        rhs = rho - delta
        ineq = {
            "n": n,
            "beta": beta,
            "block_len": block_len,
            "lhs": lhs,
            "rho_lz": rho,
            "delta": delta,
            "rhs": rhs,
            "eps_mode": eps_mode,
            "eps_n": eps_n,
            "holds": lhs >= rhs - tol,
        }
    if rho_c is not None:
        gamma = secondary.alphabet.size
        lhs = emp.h_cond / block_len
        delta_p = bounds.delta_n_prime(block_len, n, beta, gamma, eps_n)
        rhs = rho_c - delta_p
        cineq = {
            "n": n,
            "beta": beta,
            "gamma": gamma,
            "block_len": block_len,
            "lhs": lhs,
            "rho_cond": rho_c,
            "delta_prime": delta_p,
            "rhs": rhs,
            "eps_mode": eps_mode,
            "eps_n": eps_n,
            "holds": lhs >= rhs - tol,
        }
    return emp, ineq, cineq


def _prefix_walk(n: int, gamma: int, block_lens: Tuple[int, ...],
                 leaf: Callable[..., None]) -> tuple:
    """Depth-first walk over the prefix tree of all pairs (vh, vt) of binary
    primary and gamma-ary secondary sequences of length n >= 1, so inputs that
    share a prefix share its parse.  Step t adds the joint symbol a*gamma + b to
    the joint trie, the primary trie with c_l (as cond_lz._joint_walk builds
    them) and, per block length, the joint and primary block-count dicts (keys:
    the block in base 2*gamma and in base 2; one set when gamma = 1, the plain
    parse), and undoes it on return.  Invariant: each dict is in first-appearance
    order along the current path and c_l in first-marking order; a count undone
    to 0 is deleted.  At each leaf, in joint-prefix order, leaf(vh, vt, phrases,
    c_l, joint, primary) sees c_l with the incomplete last phrase folded in.
    Returns the tries, c_l and dicts, empty again.
    Depth n - 1 expands its leaves in one loop, with no trie step (their last
    phrase ends at n) and one c_l mark and primary block update per letter a.
    The walk keeps its own tries rather than lz_core.walk's: it steps one
    symbol and undoes it, and per-symbol walk/undo/primary_step calls gave
    the same suite reports slower (single runs, 2 cores: converse 0.22-0.25 s
    against 0.13 s, entropy-ineq 0.080-0.084 s against 0.056-0.067 s).
    """
    AB = 2 * gamma
    trie, ptrie, c_l = {}, {}, []  # trie values: (joint node, its primary node)
    joint: List[dict] = [{} for _ in block_lens]
    primary = joint if gamma == 1 else [{} for _ in block_lens]
    # per depth: (dict, key modulus, keyed by the primary?) of each block ending there
    ends = [[(ds[i], m ** l, prim) for i, l in enumerate(block_lens) if (t + 1) % l == 0
             for ds, m, prim in ((joint, AB, False), (primary, 2, True))[:1 + (gamma > 1)]]
            for t in range(n)]
    steps = [(a, b, a * gamma + b) for a in (0, 1) for b in range(gamma)]
    # every block ends at n: the joint dicts, and the primary ones when apart
    jends = [(d, m) for d, m, prim in ends[-1] if not prim]
    pends = [(d, m) for d, m, prim in ends[-1] if prim]

    def step(t: int, node: int, pn: int, vh: int, vt: int, jv: int) -> None:
        below = step if t + 2 < n else last
        for a, b, s in steps:
            h, w, v = vh * 2 + a, vt * gamma + b, jv * AB + s
            for d, m, prim in ends[t]:
                k = (h if prim else v) % m
                d[k] = d.get(k, 0) + 1
            key = node * AB + s
            child = trie.get(key)
            if child is not None:
                below(t + 1, *child, h, w, v)
            else:  # a phrase ends and the next starts at the root
                pkey = pn * 2 + a
                p = ptrie.setdefault(pkey, len(c_l) + 1)
                if p > len(c_l):
                    c_l.append(0)
                c_l[p - 1] += 1
                trie[key] = (len(trie) + 1, p)
                below(t + 1, 0, 0, h, w, v)
                del trie[key]
                c_l[p - 1] -= 1
                if not c_l[p - 1]:
                    c_l.pop()
                    del ptrie[pkey]
            for d, m, prim in ends[t]:
                k = (h if prim else v) % m
                d[k] -= 1
                if not d[k]:
                    del d[k]

    def last(_t: int, _node: int, pn: int, vh: int, vt: int, jv: int) -> None:
        phrases, w0 = len(trie) + 1, vt * gamma
        for a in (0, 1):
            h = vh * 2 + a
            for d, m in pends:
                k = h % m
                d[k] = d.get(k, 0) + 1
            pkey = pn * 2 + a
            p = ptrie.setdefault(pkey, len(c_l) + 1)
            if p > len(c_l):
                c_l.append(0)
            c_l[p - 1] += 1
            if jends:
                for b in range(gamma):
                    v = (jv * 2 + a) * gamma + b
                    for d, m in jends:
                        k = v % m
                        d[k] = d.get(k, 0) + 1
                    leaf(h, w0 + b, phrases, c_l, joint, primary)
                    for d, m in jends:
                        k = v % m
                        d[k] -= 1
                        if not d[k]:
                            del d[k]
            else:  # no block lengths, as in suite_converse
                for b in range(gamma):
                    leaf(h, w0 + b, phrases, c_l, joint, primary)
            c_l[p - 1] -= 1
            if not c_l[p - 1]:
                c_l.pop()
                del ptrie[pkey]
            for d, m in pends:
                k = h % m
                d[k] -= 1
                if not d[k]:
                    del d[k]

    (step if n > 1 else last)(0, 0, 0, 0, 0, 0)
    return trie, ptrie, c_l, joint, primary


SCAN_BUDGET = 1 << 20  # most inputs an exhaustive scan walks


def _scan(head: dict, gamma: int, unit: str, block_lens: Tuple[int, ...],
          eps_mode: str, tol: float) -> dict:
    """Both exhaustive scans, verify's entropy suites, as one _prefix_walk over
    binary primaries: gamma = 1 for the plain inequality and 2 for the
    conditional one.  Leaves sum c*log2(c) in the order of the walker's dicts
    and c_l, as rho_from_count and rho_cond_from_counts do, so every float is
    that of a left-to-right pass.
    Leaves come in joint-prefix order, so violations are keyed by (vh, vt,
    block-length position) and sorted once, into (vh, vt, position) order.
    """
    n = head["n"]
    for l in block_lens:
        if l < 1:
            raise ValueError("block length must be positive")
        if n % l != 0:
            raise ValueError(f"block length {l} does not divide n={n}")
    total = (2 * gamma) ** n
    if total > SCAN_BUDGET:
        raise ValueError(f"{total} {unit} exceed the scan budget {SCAN_BUDGET}")
    eps_n = bounds.eps_n_value(n, 2, eps_mode)
    xlogx = [c * math.log2(c) if c else 0.0 for c in range(n + 1)]  # each c*log2(c) once
    rho_of = [rho_from_count(c, n) for c in range(n + 1)]  # a parse has at most n phrases
    cond = gamma > 1
    terms = [(i, l, n // l, math.log2(n // l), bounds.delta_n_prime(l, n, 2, gamma, eps_n)
              if cond else bounds.delta_n(l, n, 2, eps_n)) for i, l in enumerate(block_lens)]
    found: List[tuple] = []

    def leaf(vh: int, vt: int, c: int, c_l: list, joint: list, primary: list) -> None:
        rho = sum(map(xlogx.__getitem__, c_l)) / n if cond else rho_of[c]
        for i, l, blocks, log2_blocks, delta in terms:
            s = sp = 0.0
            for cnt in joint[i].values():
                s += xlogx[cnt]
            if cond:  # H(joint) - H(primary): log2(blocks) cancels
                for cnt in primary[i].values():
                    sp += xlogx[cnt]
                lhs = ((sp - s) / blocks) / l
            else:
                lhs = (log2_blocks - s / blocks) / l
            if lhs < rho - delta - tol:
                found.append((vh, vt, i, l, lhs, rho - delta))

    _prefix_walk(n, gamma, block_lens, leaf)
    names = ("primary", "secondary") if cond else ("sequence",)
    violations = [dict(zip(names, f), block_len=f[3], lhs=f[4], rhs=f[5])
                  for f in sorted(found)]
    return dict(head, block_lens=list(block_lens), eps_mode=eps_mode, eps_n=eps_n,
                **{unit: total}, checks=total * len(block_lens), violations=violations,
                holds=not violations)
