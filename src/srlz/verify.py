"""Verification suites for the bound machinery.

Each suite returns a JSON-ready report with a `holds` flag and an explicit
violation list.  Randomized suites are pure functions of their seed; the
exhaustive ones enumerate their whole domain, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

# The suites import the modules they exercise themselves, so running one
# suite loads only what it runs.
from .lz_core import BINARY, Sequence, rho_from_count, xlogx_sum

TOL = 1e-9


def _nonnegative(**counts: int) -> None:
    """Raise ValueError for a negative count, as the CLI does for a negative --budget."""
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def suite_entropy_ineq(n: int = 16, block_lens: Tuple[int, ...] = (1, 2, 4, 8),
                       eps_mode: str = "default",
                       tol: float = 1e-12) -> dict:
    """Exhaustive block-entropy inequality scan over all binary length-n sequences."""
    from . import empirics

    _nonnegative(n=n)
    return empirics._scan({"suite": "entropy-ineq", "n": n, "beta": 2}, 1, "sequences",
                          tuple(block_lens), eps_mode, tol)


def suite_cond_entropy_ineq(n: int = 8, block_lens: Tuple[int, ...] = (1, 2, 4),
                            eps_mode: str = "default",
                            tol: float = 1e-12) -> dict:
    """Exhaustive conditional block-entropy inequality scan over binary pairs."""
    from . import empirics

    _nonnegative(n=n)
    return empirics._scan({"suite": "cond-entropy-ineq", "n": n, "beta": 2, "gamma": 2}, 2,
                          "pairs", tuple(block_lens), eps_mode, tol)


def suite_kraft(max_out_len: int = 2, block_len_max: int = 3,
                k_max: int = 8, tol: float = 1e-12) -> dict:
    """Generalized Kraft sum over every enumerated lossless one-state binary
    encoder, at every block length up to block_len_max.

    The suite iterates the certified stage tables, not encoder objects:
    encoder i is the pair (f1s[i // len(f2s)], f2s[i % len(f2s)]), the order
    of fsm.enumerate_lossless_onestate_binary.  Reduction: a Kraft sum
    depends on an encoder only through its output lengths and transitions
    (fsm.kraft_tables), and a one-state encoder has one transition, so one
    exact kraft_check report per (stage-1 length profile, stage-2 length
    profile, block length), made on the first table of each profile, stands
    for every encoder of that profile pair.  Only when a report fails does the
    suite walk the family, in (encoder, block length) order, to list them.
    """
    from . import fsm

    _nonnegative(max_out_len=max_out_len, block_len_max=block_len_max, k_max=k_max)
    f1s, f2s = fsm.lossless_onestate_binary_tables(max_out_len, k_max)
    p1 = [tuple(map(len, c)) for c in f1s]
    p2 = [tuple(len(out) for row in t for out in row) for t in f2s]
    block_lens = list(range(1, block_len_max + 1))
    first1 = {p: f1s[p1.index(p)] for p in dict.fromkeys(p1)}  # each profile's first table
    first2 = {p: f2s[p2.index(p)] for p in dict.fromkeys(p2)}
    reports: Dict[tuple, dict] = {}
    for lens1, t1 in first1.items():
        for lens2, t2 in first2.items():
            enc = fsm.onestate_binary_encoder(t1, t2)
            for l in block_lens:
                reports[lens1, lens2, l] = fsm.kraft_check(enc, l, tol=tol)
    violations = [] if all(rep["holds"] for rep in reports.values()) else [
        {"encoder": i1 * len(f2s) + i2, "block_len": l, "lhs": rep["lhs"], "rhs": rep["rhs"]}
        for i1, lens1 in enumerate(p1) for i2, lens2 in enumerate(p2)
        for l in block_lens for rep in (reports[lens1, lens2, l],) if not rep["holds"]]
    return {
        "suite": "kraft",
        "family_size": len(f1s) * len(f2s),
        "f1_tables": len(f1s),
        "f2_tables": len(f2s),
        "max_out_len": max_out_len,
        "block_lens": block_lens,
        "checks": len(f1s) * len(f2s) * len(block_lens),
        "max_lhs_over_rhs": max([0.0] + [rep["lhs"] / rep["rhs"] for rep in reports.values()]),
        "violations": violations,
        "holds": not violations,
    }


def _counting_sequence(n: int) -> Sequence:
    """0,1,00,01,10,11,000,... concatenated and truncated: near-maximal
    phrase count for its length, the stress case for the converse floors."""
    out: List[int] = []
    length = 1
    while len(out) < n:
        for v in range(1 << length):
            out.extend((v >> s) & 1 for s in range(length - 1, -1, -1))
            if len(out) >= n:
                break
        length += 1
    return Sequence(BINARY, out[:n])


def suite_converse(seed: int = 0, n_small: int = 8, random_pairs: int = 200,
                   n_large: int = 1024, spot_checks: int = 200,
                   max_out_len: int = 2, k_max: int = 8, spot_k_max: int = 5,
                   eps_mode: str = "default",
                   tol: float = 1e-12) -> dict:
    """Converse floors (i)-(iii) against the enumerated one-state family.

    Reduction: the family is the full product of certified stage-1 and stage-2
    tables, and both measured rates are linear in the per-symbol output
    lengths, so the minimum of rho1 (and of rho1+rho2) over the family is the
    exact minimum over the distinct length profiles of each stage: one profile
    sweep per input pair covers every encoder.  Part (ii) gets rho_cond of
    every pair from one empirics._prefix_walk, which parses each shared joint
    prefix once; its violations are sorted into (primary, secondary) order.
    Encoder objects are built only for spot checks: each draws an index i into
    the family and pushes encoder (f1s[i // len(f2s)], f2s[i % len(f2s)]), the
    order of fsm.enumerate_lossless_onestate_binary, with a sampled pair
    through the public converse_check to tie the sweep back to the measured op.
    """
    from . import bounds, corpus, empirics, fsm
    from .cond_lz import rho_cond
    from .lz_core import parse

    _nonnegative(n_small=n_small, random_pairs=random_pairs, n_large=n_large,
                 spot_checks=spot_checks, max_out_len=max_out_len, k_max=k_max,
                 spot_k_max=spot_k_max)
    f1s, f2s = fsm.lossless_onestate_binary_tables(max_out_len, k_max)
    p1 = sorted({(len(a), len(b)) for a, b in f1s})
    p2 = sorted({(len(t[0][0]), len(t[0][1]), len(t[1][0]), len(t[1][1]))
                 for t in f2s})

    def min_rho1(zeros: int, ones: int, n: int) -> float:
        return min(zeros * pa + ones * pb for pa, pb in p1) / n

    def min_rho2(counts: Tuple[int, int, int, int], n: int) -> float:
        return min(sum(c * w for c, w in zip(counts, prof)) for prof in p2) / n

    # exhaustive binary pairs at n_small
    _, d1_small, d2_small, _ = bounds.converse_terms(1, n_small, 2, 2, eps_mode)
    side = 1 << n_small
    phrase_counts: List[int] = []  # gamma = 1 leaves come in sequence order
    empirics._prefix_walk(n_small, 1, (), lambda v, _vt, c, *_: phrase_counts.append(c))
    rho_small = [rho_from_count(c, n_small) for c in phrase_counts]
    m1_by_ones = [min_rho1(n_small - o, o, n_small) for o in range(n_small + 1)]
    ones_of = [bin(v).count("1") for v in range(side)]
    m2_memo: Dict[Tuple[int, int, int, int], float] = {}

    exhaustive_violations: List[dict] = []
    for vh in range(side):
        m1 = m1_by_ones[ones_of[vh]]
        # floors (i) and (iii) depend on the primary alone; (ii) is per leaf below
        floor1, _, floor3 = bounds.converse_floors(rho_small[vh], 0.0, phrase_counts[vh],
                                                   n_small, 1, d1_small, d2_small)
        exhaustive_violations += [{"check": name, "primary": vh}
                                  for name, floor in (("i", floor1), ("iii", floor3))
                                  if m1 < floor - tol]
    found: List[int] = []
    xlogx = [c * math.log2(c) if c else 0.0 for c in range(n_small + 1)]
    prev, oh, rhs = -1, 0, 0.0  # the last leaf's primary and what it alone fixes

    def leaf(vh: int, vt: int, _c: int, c_l: List[int], _joint, _primary) -> None:
        nonlocal prev, oh, rhs
        if vh != prev:  # a new run of leaves below one primary letter: a new c_l
            prev, oh = vh, ones_of[vh]
            # rho_cond_from_counts of c_l, then the right side of floor (ii)
            rhs = rho_small[vh] + xlogx_sum(c_l, xlogx) / n_small - d2_small - tol
        n11 = ones_of[vh & vt]
        n01 = ones_of[vt] - n11
        counts = (n_small - oh - n01, n01, oh - n11, n11)
        m2 = m2_memo.get(counts)
        if m2 is None:
            m2 = m2_memo[counts] = min_rho2(counts, n_small)
        if m1_by_ones[oh] + m2 < rhs:
            found.append(vh * side + vt)

    empirics._prefix_walk(n_small, 2, (), leaf)
    exhaustive_violations += [{"check": "ii", "primary": k // side, "secondary": k % side}
                              for k in sorted(found)]

    eps_large, d1_large, d2_large, _ = bounds.converse_terms(1, n_large, 2, 2, eps_mode)

    def large_case(primary: Sequence, secondary: Sequence) -> tuple:
        """(parse, rho_cond, family minima m1 and m2, floors, failed checks)."""
        pr = parse(primary)
        rho_c = rho_cond(secondary, primary)
        ones = sum(primary.data)
        m1 = min_rho1(n_large - ones, ones, n_large)
        cnt = [0, 0, 0, 0]
        for a, b in zip(primary.data, secondary.data):
            cnt[2 * a + b] += 1
        m2 = min_rho2(tuple(cnt), n_large)
        floors = bounds.converse_floors(pr.rho_lz, rho_c, pr.c, n_large, 1,
                                        d1_large, d2_large)
        failed = [name for name, lhs, rhs in zip(("i", "ii", "iii"), (m1, m1 + m2, m1),
                                                 floors) if lhs < rhs - tol]
        return pr, rho_c, m1, m2, floors, failed

    # seeded random pairs at n_large
    rng = random.Random(seed)
    random_violations: List[dict] = []
    large_cases: List[Tuple[Sequence, Sequence, float]] = []
    for i in range(random_pairs):
        primary, secondary = corpus.random_pair(rng, 2, 2, n_large)
        _, _, m1, _, _, failed = large_case(primary, secondary)
        random_violations += [{"check": name, "pair": i} for name in failed]
        large_cases.append((primary, secondary, m1))

    # deterministic stress case: the near-maximal-complexity sequence, paired
    # with itself.  It sits close to floor (iii) and, in the regression-only
    # zero slack mode, genuinely breaches floor (i): the phrase-count cap the
    # floor presumes fails there, and the suite must say so.
    counting = _counting_sequence(n_large)
    pr, rho_c, m1, m2, floors, failed = large_case(counting, counting)
    details = {"i": {"rho_lz": pr.rho_lz, "family_min": m1, "delta1": d1_large},
               "ii": {"rho_sum": pr.rho_lz + rho_c, "family_min": m1 + m2,
                      "delta2": d2_large},
               "iii": {"floor": floors[2], "family_min": m1}}
    adversarial_violations = [dict(check=name, **details[name]) for name in failed]

    # spot checks through the public op; with no random pair to draw, each
    # draws a small case
    spot_failures: List[dict] = []
    small_spots = spot_checks // 2
    for j in range(spot_checks):
        i = rng.randrange(len(f1s) * len(f2s))
        enc = fsm.onestate_binary_encoder(f1s[i // len(f2s)], f2s[i % len(f2s)])
        if j < small_spots or not large_cases:
            vh = rng.randrange(side)
            vt = rng.randrange(side)
            primary = Sequence.from_text(format(vh, f"0{n_small}b"), BINARY)
            secondary = Sequence.from_text(format(vt, f"0{n_small}b"), BINARY)
            m1 = m1_by_ones[ones_of[vh]]
        else:
            primary, secondary, m1 = large_cases[rng.randrange(len(large_cases))]
        rep = fsm.converse_check(enc, primary, secondary, k_max=spot_k_max,
                                 eps_mode=eps_mode)
        if not (rep["applicable"] and rep["all_hold"]):
            spot_failures.append({"spot": j, "report": rep})
        elif rep["rho1"] < m1 - tol:
            spot_failures.append({"spot": j, "reason": "family minimum above a member"})

    violations = (exhaustive_violations + random_violations
                  + adversarial_violations + spot_failures)
    return {
        "suite": "converse",
        "family_size": len(f1s) * len(f2s),
        "f1_profiles": [list(p) for p in p1],
        "f2_profiles": [list(p) for p in p2],
        "reduction": "profile minima over the certified stage tables; the "
                     "family is their full product, so per-stage minima are "
                     "exact for rho1 and rho1+rho2",
        "eps_mode": eps_mode,
        "exhaustive": {
            "n": n_small,
            "pairs": side * side,
            "checks": {"i": side, "ii": side * side, "iii": side},
            "violations": exhaustive_violations,
        },
        "random": {
            "n": n_large,
            "pairs": random_pairs,
            "seed": seed,
            "violations": random_violations,
        },
        "adversarial": {
            "n": n_large,
            "phrase_count": pr.c,
            "rho_lz": pr.rho_lz,
            "phrase_count_cap": bounds.phrase_count_bound(n_large, 2, eps_large),
            "violations": adversarial_violations,
        },
        "spot_checks": {
            "count": spot_checks,
            "k_max": spot_k_max,
            "failures": spot_failures,
        },
        "violations": violations,
        "holds": not violations,
    }


def suite_frontier(seed: int = 0, unions: int = 100, max_members: int = 20,
                   resolution: float = 1e-3, lattice: float = 0.005) -> dict:
    """Staircase extraction vs a grid oracle on random unions.

    Members are drawn from a coordinate lattice coarser than the probe
    resolution, so the oracle's one-step probes are conclusive: a corner is on
    the staircase exactly when the union contains it but neither the left nor
    the down probe point.
    """
    from . import regions

    _nonnegative(unions=unions, max_members=max_members)
    if lattice <= resolution:
        raise ValueError("lattice must be coarser than the probe resolution")
    rng = random.Random(seed)
    g = resolution
    corner_mismatches: List[dict] = []
    closure_failures: List[dict] = []
    domination_failures: List[dict] = []
    idempotence_failures: List[dict] = []
    corners_total = 0
    for t in range(unions):
        m = rng.randint(1, max_members)
        members = [regions.clamped_region(rng.randrange(-20, 601) * lattice,
                                          rng.randrange(-20, 1001) * lattice)
                   for _ in range(m)]
        front = regions.frontier(members)
        corners_total += len(front)

        oracle: List[Tuple[float, float]] = []
        for mem in members:
            p = mem.corner()
            inside = regions.union_contains(members, p)
            left = regions.union_contains(members, regions.RatePoint(p.r1 - g, p.r2))
            down = regions.union_contains(members, regions.RatePoint(p.r1, p.r2 - g))
            if inside and not left and not down:
                oracle.append((p.r1, p.r2))
        oracle = sorted(set(oracle))
        got = [(p.r1, p.r2) for p in front]
        if len(oracle) != len(got) or any(
                abs(a - x) > TOL or abs(b - y) > TOL
                for (a, b), (x, y) in zip(oracle, got)):
            corner_mismatches.append({"union": t, "oracle": oracle, "got": got})

        for p in front:
            for dx, dy in ((g, 0.0), (0.0, g), (g, g)):
                probe = regions.RatePoint(p.r1 + dx, p.r2 + dy)
                if not regions.union_contains(members, probe):
                    closure_failures.append({"union": t, "corner": (p.r1, p.r2)})
                    break
        for i, p in enumerate(front):
            for j, q in enumerate(front):
                if i != j and p.r1 <= q.r1 + TOL and p.r2 <= q.r2 + TOL:
                    domination_failures.append({"union": t, "dominated": (q.r1, q.r2)})
        refront = regions.frontier([regions.region_from_corner(p) for p in front])
        if [(p.r1, p.r2) for p in refront] != got:
            idempotence_failures.append({"union": t})

    violations = (corner_mismatches + closure_failures
                  + domination_failures + idempotence_failures)
    return {
        "suite": "frontier",
        "unions": unions,
        "max_members": max_members,
        "resolution": resolution,
        "lattice": lattice,
        "seed": seed,
        "corners": corners_total,
        "corner_mismatches": corner_mismatches,
        "upward_closure_failures": closure_failures,
        "non_domination_failures": domination_failures,
        "idempotence_failures": idempotence_failures,
        "violations": violations,
        "holds": not violations,
    }


def suite_split_lemma(seed: int = 0, budget: int = 100000,
                      tol: float = 1e-9) -> dict:
    """Randomized check of the rate-split fact: every precondition-satisfying
    tuple yields a feasible allocation."""
    from . import mdc

    _nonnegative(budget=budget)
    # random.uniform(lo, hi) is lo + (hi - lo) * random(): the same floats
    # without a method call per draw
    draw = random.Random(seed).random
    split_rates = mdc.split_rates
    violations: List[dict] = []
    clamped = 0
    for i in range(budget):
        a = 0.0 + (2.0 - 0.0) * draw()
        b = 0.0 + (2.0 - 0.0) * draw()
        e1 = 1e-9 + (1.0 - 1e-9) * draw()
        e2 = 1e-9 + (1.0 - 1e-9) * draw()
        c = 0.0 + (e1 + e2 - 0.0) * draw()
        r1 = a + e1
        r2 = b + e2
        d = split_rates(a, b, c, r1, r2)
        if r1 - a > c:
            clamped += 1
        ok = (-tol <= d <= c + tol
              and a + d <= r1 + tol
              and b + (c - d) <= r2 + tol)
        if not ok:
            violations.append({"case": i, "a": a, "b": b, "c": c,
                               "r1": r1, "r2": r2, "d": d})
    return {
        "suite": "split-lemma",
        "seed": seed,
        "checks": budget,
        "clamped_cases": clamped,
        "violations": violations,
        "holds": not violations,
    }


def suite_sandwich(seed: int = 0, pairs: int = 100, n: int = 1024, q: int = 1,
                   eps_mode: str = "default",
                   tol: float = TOL) -> dict:
    """Blockwise inner-plus regions sit inside outer-minus regions at every
    divisor block length, and the single-shot measured rates certify the k=n
    inner corner (measured rate <= corner coordinate)."""
    from . import bounds, corpus, regions
    from .cond_lz import cond_encode
    from .lz_core import lz_encode

    _nonnegative(pairs=pairs, n=n)
    rng = random.Random(seed)
    ks = [k for k in bounds.divisors(n) if k >= 2]
    containment_violations: List[dict] = []
    measured_violations: List[dict] = []
    containment_checks = 0
    sizes = corpus.ALPHABET_SIZES
    for i in range(pairs):
        beta = sizes[i % 3]
        gamma = sizes[(i // 3) % 3]
        primary, secondary = corpus.random_pair(rng, beta, gamma, n)
        # ks ends in n, so the last inner is the k = n one; with n < 2 it is
        # empty and the region rejects k = n
        for k in ks or [n]:
            inner, outer = regions._blockwise_regions(primary, secondary, q, k,
                                                      ("inner-plus", "outer-minus"), eps_mode)
            containment_checks += 1
            if not regions.region_contains_region(outer, inner, tol):
                containment_violations.append(
                    {"pair": i, "k": k,
                     "inner": inner.floors(), "outer": outer.floors()})
        r1 = lz_encode(primary).payload_bits / n
        rc = cond_encode(secondary, primary).payload_bits / n
        a_i, _, b_i = inner.floors()
        if r1 > a_i + tol or r1 + rc > b_i + tol:
            measured_violations.append(
                {"pair": i, "r1": r1, "rc": rc, "inner": (a_i, b_i)})
    violations = containment_violations + measured_violations
    return {
        "suite": "sandwich",
        "seed": seed,
        "pairs": pairs,
        "n": n,
        "q": q,
        "block_lens": ks,
        "eps_mode": eps_mode,
        "containment_checks": containment_checks,
        "containment_violations": containment_violations,
        "measured_rate_violations": measured_violations,
        "violations": violations,
        "holds": not violations,
    }


SUITES = {
    "entropy-ineq": suite_entropy_ineq,
    "cond-entropy-ineq": suite_cond_entropy_ineq,
    "kraft": suite_kraft,
    "converse": suite_converse,
    "frontier": suite_frontier,
    "split-lemma": suite_split_lemma,
    "sandwich": suite_sandwich,
}
