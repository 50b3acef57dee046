"""Two-rate regions: half-plane intersections, unions, frontiers, and the
block-partition inner/outer regions for a reproduction pair.

Every region here is upward closed in (R1, R2) with the implicit floors
R1 >= 0, R2 >= 0.  Frontiers are the minimal corner points of a union,
ascending in R1.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence as Seq, Tuple

from . import bounds
from .container import Record
from .cond_lz import _joint_walk, rho_cond, rho_cond_from_counts
from .lz_core import Sequence, _lz_walk, rho_from_count, rho_lz

TOL = 1e-9


class RatePoint(Record):
    __slots__ = ("r1", "r2")

class HalfPlaneRegion(Record):
    """{(R1, R2): R1 >= a, R1 + R2 >= b, R2 >= c} (c optional).

    `meta` and `exact_corner` take no part in == or hash; repr leaves out
    `exact_corner`."""

    __slots__ = ("a", "b", "c", "clamped_a", "clamped_b", "clamped_c", "meta",
                 # the point given to region_from_corner; corner() returns it unrounded
                 "exact_corner")
    _defaults = {"c": None, "clamped_a": False, "clamped_b": False, "clamped_c": False,
                 "meta": None, "exact_corner": None}
    _fresh_dicts = ("meta",)
    _uncompared = ("meta", "exact_corner")
    _unshown = ("exact_corner",)

    def floors(self) -> Tuple[float, float, float]:
        """Effective (R1 floor, R2 floor, sum floor) with the implicit >= 0."""
        a = max(self.a, 0.0)
        c = max(self.c, 0.0) if self.c is not None else 0.0
        b = max(self.b, a + c)
        return a, c, b

    def contains(self, point: RatePoint, tol: float = TOL) -> bool:
        a, c, b = self.floors()
        return (point.r1 >= a - tol and point.r2 >= c - tol
                and point.r1 + point.r2 >= b - tol)

    def corner(self) -> RatePoint:
        if self.exact_corner is not None:
            return self.exact_corner
        a, c, b = self.floors()
        return RatePoint(a, max(c, b - a))


def clamped_region(a: float, b: float, c: Optional[float] = None,
                   meta: Optional[dict] = None) -> HalfPlaneRegion:
    """Clamp negative bounds to zero, recording which ones were clamped."""
    return HalfPlaneRegion(
        a=max(a, 0.0),
        b=max(b, 0.0),
        c=None if c is None else max(c, 0.0),
        clamped_a=a < 0,
        clamped_b=b < 0,
        clamped_c=c is not None and c < 0,
        meta=meta or {},
    )


def union_contains(members: Seq[HalfPlaneRegion], point: RatePoint, tol: float = TOL) -> bool:
    return any(m.contains(point, tol) for m in members)


def frontier(members: Seq[HalfPlaneRegion], tol: float = TOL) -> List[RatePoint]:
    """Minimal corner points of the union, ascending in R1 (ties by R2).

    Members must be two-constraint regions (no explicit R2 floor): those are
    the regions whose staircase a single corner per member describes.  A
    member with floors (a, 0, b) holds a corner p off the staircase when
    p.r1 >= a - tol and p.r1 + p.r2 > b + tol, and also a + tol < p.r1 when
    p.r2 <= tol (corners are >= 0, tol >= 0).  So one sort and one sweep in
    (r1, r2) order keep the least b + tol of the members passing each test.
    """
    if not members:
        return []
    if any(m.c is not None for m in members):
        raise ValueError("frontier expects members without an explicit R2 floor")
    floors = [m.floors() for m in members]
    corners = [m.corner() for m in members]
    # at equal keys a member admitted by a - tol <= r1 (kind 0) sorts before
    # the corners (kind 1, by r2, then member order), one admitted by
    # a + tol < r1 (kind 2) after them
    events = sorted([(a - tol, 0, b + tol) for a, _, b in floors]
                    + [(a + tol, 2, b + tol) for a, _, b in floors]
                    + [(p.r1, 1, p.r2, k) for k, p in enumerate(corners)])
    least = dict.fromkeys((0, 2), float("inf"))  # the least b + tol admitted, by kind
    out: List[RatePoint] = []
    for event in events:
        kind = event[1]
        if kind != 1:
            least[kind] = min(least[kind], event[2])
            continue
        p = corners[event[3]]
        if least[0 if p.r2 > tol else 2] < p.r1 + p.r2:
            continue
        if out and abs(p.r1 - out[-1].r1) <= tol and abs(p.r2 - out[-1].r2) <= tol:
            continue
        out.append(p)
    return out


def region_from_corner(point: RatePoint) -> HalfPlaneRegion:
    """The region whose corner is `point`.  The sum floor r1 + r2 can round
    (0.22 + 0.25 - 0.22 is 0.24999999999999997), so a point with nonnegative
    coordinates is kept and corner() returns it exactly."""
    exact = point if point.r1 >= 0 and point.r2 >= 0 else None
    return HalfPlaneRegion(a=point.r1, b=point.r1 + point.r2, exact_corner=exact)


def region_contains_region(outer: HalfPlaneRegion, inner: HalfPlaneRegion,
                           tol: float = TOL) -> bool:
    """Every point of `inner` lies in `outer` (via the effective floors)."""
    a_o, c_o, b_o = outer.floors()
    a_i, c_i, b_i = inner.floors()
    return a_i >= a_o - tol and c_i >= c_o - tol and b_i >= b_o - tol


class RegionUnion(Record):
    """Member regions and the union's frontier; `meta` takes no part in == or hash."""

    __slots__ = ("members", "frontier", "meta")
    _defaults = {"meta": None}
    _fresh_dicts = ("meta",)
    _uncompared = ("meta",)


def region_for_pair(primary: Sequence, secondary: Sequence, q: int,
                    eps_mode: str = "default") -> HalfPlaneRegion:
    """Converse (outer) region for one reproduction pair at state budget q."""
    n = primary.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if secondary.n != n:
        raise ValueError("sequences must have equal length")
    beta = primary.alphabet.size
    gamma = secondary.alphabet.size
    eps_n, d1, d2, d2_l = bounds.converse_terms(q, n, beta, gamma, eps_mode)
    rho1 = rho_lz(primary)
    rho_c = rho_cond(secondary, primary)
    return clamped_region(
        rho1 - d1,
        rho1 + rho_c - d2,
        meta={
            "n": n, "q": q, "beta": beta, "gamma": gamma,
            "rho_lz": rho1, "rho_cond": rho_c,
            "delta1": d1, "delta2": d2, "delta2_block_len": d2_l,
            "eps_mode": eps_mode, "eps_n": eps_n,
        },
    )


def blockwise_region(primary: Sequence, secondary: Sequence, q: int, block_len: int,
                     side: str, eps_mode: str = "default") -> HalfPlaneRegion:
    """Block-partition region at block length k (k >= 2, k | n), from the mean
    over the n/k blocks of rho_lz(primary block) and rho_cond(secondary block
    | primary block).  side="outer-minus" (short form "outer"): converse
    floors, the means minus the penalties at k.  side="inner-plus" (short form
    "inner"): the rates the restart codec achieves, the means plus its slacks.
    """
    return _blockwise_regions(primary, secondary, q, block_len, (side,), eps_mode)[0]


def _blockwise_regions(primary: Sequence, secondary: Sequence, q: int, k: int,
                       sides: Tuple[str, ...], eps_mode: str) -> List[HalfPlaneRegion]:
    """blockwise_region at each of `sides` from one plain and one joint walk
    per block, on slices of `.data`, with rho_lz's and rho_cond's sums."""
    n = primary.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if secondary.n != n:
        raise ValueError("sequences must have equal length")
    if k < 2:
        raise ValueError("block length must be at least 2")
    if n % k != 0:
        raise ValueError(f"block length {k} does not divide n={n}")
    aliases = {"outer-minus": "outer-minus", "outer": "outer-minus",
               "inner-plus": "inner-plus", "inner": "inner-plus"}
    if any(side not in aliases for side in sides):
        raise ValueError("side must be 'outer-minus' or 'inner-plus'")
    beta, gamma = primary.alphabet.size, secondary.alphabet.size
    sum1 = sum2 = 0.0
    for t in range(0, n, k):
        pb = primary.data[t:t + k]
        keys, last = _lz_walk(pb, beta)
        sum1 += rho_from_count(len(keys) + (last != 0), k)
        sum2 += rho_cond_from_counts(_joint_walk(pb, secondary.data[t:t + k], beta, gamma)[2], k)
    avg1, avg12 = k / n * sum1, k / n * (sum1 + sum2)

    def region(side: str) -> HalfPlaneRegion:
        meta = {"n": n, "q": q, "block_len": k, "side": side,
                "avg_rho_lz": avg1, "avg_rho_sum": avg12, "eps_mode": eps_mode}
        if side == "outer-minus":
            eps_n, d1, d2, d2_l = bounds.converse_terms(q, k, beta, gamma, eps_mode)
            meta.update({"delta1": d1, "delta2": d2, "delta2_block_len": d2_l, "eps_n": eps_n})
            return clamped_region(avg1 - d1, avg12 - d2, meta=meta)
        e1 = bounds.eps_slack(k, beta, bounds.eps_n_value(k, beta, eps_mode))
        e2 = bounds.eps_hat(k)
        meta.update({"eps_slack": e1, "eps_hat": e2})
        return clamped_region(avg1 + e1, avg12 + e1 + e2, meta=meta)

    return [region(aliases[side]) for side in sides]


class SearchBudget(Record):
    """Knobs for reproduction-pair search; `mode` auto picks exhaustive when
    the candidate-pair count is at most `exhaustive_limit`."""

    __slots__ = ("mode",  # auto | exhaustive | greedy
                 "exhaustive_limit", "evaluations", "restarts", "seed", "weight")
    _defaults = {"mode": "auto", "exhaustive_limit": 1 << 24, "evaluations": 4096,
                 "restarts": 3, "seed": 0, "weight": 0.5}


def sr_outer_region(x: Sequence, dist, q: int,
                    search: Optional[SearchBudget] = None,
                    eps_mode: str = "default") -> RegionUnion:
    """Union of pair regions over admissible reproduction pairs.

    Exhaustive over the distortion balls when small enough, otherwise a
    seeded greedy/perturbation search; the search metadata says which.
    """
    from . import sr_codec  # local import; sr_codec pulls no regions symbols at call time

    search = search or SearchBudget()
    n = x.n
    if n < 2:
        raise ValueError("needs n >= 2")
    pairs, meta = sr_codec.candidate_pairs(x, dist, search)
    members = [region_for_pair(hat, til, q, eps_mode) for hat, til in pairs]
    front = frontier(members)
    meta = dict(meta)
    meta.update({"q": q, "eps_mode": eps_mode, "members": len(members),
                 "exhaustive": meta.get("search_mode") == "exhaustive"})
    return RegionUnion(members=tuple(members), frontier=tuple(front), meta=meta)


def frontier_csv(points: Iterable[RatePoint]) -> str:
    lines = ["r1,r2"]
    for p in points:
        lines.append(f"{p.r1!r},{p.r2!r}")
    return "\n".join(lines) + "\n"
