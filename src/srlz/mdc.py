"""Two-description coding: outer bound, the two achievable pipelines, the
empirical mutual information, and the sum-rate split fact.

Pipeline 1 (private + shared refinement): description i carries the plain
stream of its own reproduction; the central refinement, the conditional
stream of the central reproduction given both side reproductions, is split
between the descriptions at a byte boundary.

Pipeline 2 (common auxiliary): both descriptions carry the plain stream of a
shared auxiliary sequence, then the conditional stream of their own
reproduction given it; the central refinement conditions on all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from . import bounds
from .container import (
    MODE_MD1,
    MODE_MD2,
    ROLE_AUX,
    ROLE_COND_GIVEN_AUX,
    ROLE_COND_PART_A,
    ROLE_COND_PART_B,
    ROLE_MD_PRIMARY,
    Segment,
    StreamFormatError,
    find_segment,
    pack_segments,
    split_leaf,
    unpack_segments,
)
from .cond_lz import cond_decode, cond_encode, joint_parse, rho_cond
from .lz_core import Sequence, lz_decode, lz_encode, product_sequence, rho_lz


@dataclass(frozen=True)
class MdRegion:
    """{R1 >= a, R2 >= b, R1 + R2 >= c} with clamp flags.

    kind says which side of the sandwich the region sits on: "outer" for
    converse floors, "egc-inner" / "zb-inner" for measured achievable sets of
    the two pipelines (sweeping the split share).
    """

    a: float
    b: float
    c: float
    kind: str = "outer"
    clamped_a: bool = False
    clamped_b: bool = False
    clamped_c: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def contains(self, r1: float, r2: float, tol: float = 1e-9) -> bool:
        return (r1 >= self.a - tol and r2 >= self.b - tol
                and r1 + r2 >= self.c - tol)


@dataclass(frozen=True)
class EmpiricalMutualInfo:
    value: float
    conditional: bool


def empirical_mi(xhat: Sequence, xtilde: Sequence,
                 u: Optional[Sequence] = None) -> EmpiricalMutualInfo:
    """rho_lz(xhat) + rho_lz(xtilde) - rho_joint, or the conditional variant
    given u.  May be negative; reported as-is."""
    if xhat.n != xtilde.n:
        raise ValueError("sequences must have equal length")
    if u is None:
        jp = joint_parse(xhat, xtilde)
        value = rho_lz(xhat) + rho_lz(xtilde) - jp.rho_joint
        return EmpiricalMutualInfo(value=value, conditional=False)
    if u.n != xhat.n:
        raise ValueError("auxiliary length differs")
    pair = product_sequence((xhat, xtilde))
    value = rho_cond(xhat, u) + rho_cond(xtilde, u) - rho_cond(pair, u)
    return EmpiricalMutualInfo(value=value, conditional=True)


def md_outer_region(xhat: Sequence, xtilde: Sequence, xcheck: Sequence, q: int,
                    eps_mode: Union[str, float] = "default") -> MdRegion:
    """Converse floors for any q-state-per-stage two-description encoder
    reproducing (xhat, xtilde, xcheck)."""
    n = xhat.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if xtilde.n != n or xcheck.n != n:
        raise ValueError("sequences must have equal length")
    beta = xhat.alphabet.size
    gamma = xtilde.alphabet.size
    pair = product_sequence((xhat, xtilde))
    jp_pair = joint_parse(xhat, xtilde)
    rho_center = rho_cond(xcheck, pair)
    e1 = bounds.eps_n_value(n, beta, eps_mode)
    e2 = bounds.eps_n_value(n, gamma, eps_mode)
    e12 = bounds.eps_n_value(n, beta * gamma, eps_mode)
    d1_hat = bounds.delta1(q, n, beta, e1)
    d1_til = bounds.delta1(q, n, gamma, e2)
    d2, d2_l = bounds.delta2(q, n, beta * gamma, xcheck.alphabet.size, e12)
    a = rho_lz(xhat) - d1_hat
    b = rho_lz(xtilde) - d1_til
    c = jp_pair.rho_joint + rho_center - d2
    return MdRegion(
        a=max(a, 0.0), b=max(b, 0.0), c=max(c, 0.0), kind="outer",
        clamped_a=a < 0, clamped_b=b < 0, clamped_c=c < 0,
        meta={
            "n": n, "q": q,
            "rho_lz_hat": rho_lz(xhat), "rho_lz_tilde": rho_lz(xtilde),
            "rho_joint": jp_pair.rho_joint, "rho_center": rho_center,
            "delta1_hat": d1_hat, "delta1_tilde": d1_til,
            "delta2": d2, "delta2_block_len": d2_l,
            "eps_mode": str(eps_mode),
        },
    )


def egc_inner_region(xhat: Sequence, xtilde: Sequence,
                     xcheck: Sequence) -> MdRegion:
    """Measured achievable region of pipeline 1 as the split share sweeps
    [0, 1]: per-description floors are the private streams, the sum floor adds
    the central refinement."""
    n = xhat.n
    if xtilde.n != n or xcheck.n != n:
        raise ValueError("sequences must have equal length")
    if n == 0:
        raise ValueError("needs n >= 1")
    bits_hat = lz_encode(xhat).payload_bits
    bits_til = lz_encode(xtilde).payload_bits
    bits_center = cond_encode(xcheck, product_sequence((xhat, xtilde))).payload_bits
    return MdRegion(
        a=bits_hat / n, b=bits_til / n,
        c=(bits_hat + bits_til + bits_center) / n,
        kind="egc-inner",
        meta={"n": n, "bits_hat": bits_hat, "bits_tilde": bits_til,
              "bits_center": bits_center},
    )


def zb_inner_region(xhat: Sequence, xtilde: Sequence, xcheck: Sequence,
                    u: Sequence) -> MdRegion:
    """Measured achievable region of pipeline 2 as the split share sweeps
    [0, 1]: each description carries the auxiliary stream plus its own
    conditional stream; the sum floor adds the central refinement."""
    n = xhat.n
    if xtilde.n != n or xcheck.n != n or u.n != n:
        raise ValueError("sequences must have equal length")
    if n == 0:
        raise ValueError("needs n >= 1")
    bits_u = lz_encode(u).payload_bits
    bits_hat = cond_encode(xhat, u).payload_bits
    bits_til = cond_encode(xtilde, u).payload_bits
    bits_center = cond_encode(
        xcheck, product_sequence((xhat, xtilde, u))).payload_bits
    a = (bits_u + bits_hat) / n
    b = (bits_u + bits_til) / n
    return MdRegion(
        a=a, b=b, c=a + b + bits_center / n,
        kind="zb-inner",
        meta={"n": n, "bits_aux": bits_u, "bits_hat_given_aux": bits_hat,
              "bits_tilde_given_aux": bits_til, "bits_center": bits_center},
    )


def split_rates(a: float, b: float, c: float, r1: float, r2: float,
                tol: float = 1e-12) -> float:
    """Share of a sum constraint c that description 1 can absorb so that
    R1 >= a + share and R2 >= b + (c - share).

    Needs R1 > a, R2 > b, R1 + R2 >= a + b + c; returns R1 - a capped at c,
    so the share lies in [0, c].
    """
    if c < 0:
        raise ValueError("refinement amount c must be nonnegative")
    if not (r1 > a and r2 > b):
        raise ValueError("need R1 > a and R2 > b strictly")
    if r1 + r2 < a + b + c - tol:
        raise ValueError("sum constraint violated")
    share = min(r1 - a, c)
    assert -tol <= share <= c + tol
    assert a + share <= r1 + tol
    assert b + (c - share) <= r2 + tol
    return share


# ---------------------------------------------------------------------------
# pipeline 1: private reproductions + split central refinement


def egc_encode(xhat: Sequence, xtilde: Sequence, xcheck: Sequence,
               split: float = 0.5) -> Tuple[bytes, bytes, dict]:
    """Returns (description1, description2, report)."""
    n = xhat.n
    if xtilde.n != n or xcheck.n != n:
        raise ValueError("sequences must have equal length")
    if not 0.0 <= split <= 1.0:
        raise ValueError(f"share fraction out of range: {split}")
    s1 = lz_encode(xhat)
    s2 = lz_encode(xtilde)
    pair = product_sequence((xhat, xtilde))
    sc = cond_encode(xcheck, pair)
    part_a, part_b, bits_a, bits_b = split_leaf(sc.to_bytes(), sc.payload_bits, split)
    segs1 = [Segment(ROLE_MD_PRIMARY, s1.payload_bits, s1.to_bytes())]
    if part_a:
        segs1.append(Segment(ROLE_COND_PART_A, bits_a, part_a))
    segs2 = [Segment(ROLE_MD_PRIMARY, s2.payload_bits, s2.to_bytes())]
    if part_b:
        segs2.append(Segment(ROLE_COND_PART_B, bits_b, part_b))
    desc1 = pack_segments(MODE_MD1, n, segs1)
    desc2 = pack_segments(MODE_MD2, n, segs2)
    r1_bits = s1.payload_bits + bits_a
    r2_bits = s2.payload_bits + bits_b
    center_bits = sc.payload_bits
    assert bits_a + bits_b == center_bits
    mi = empirical_mi(xhat, xtilde)
    report = {
        "n": n,
        "split": split,
        "bits": {"stage_hat": s1.payload_bits, "stage_tilde": s2.payload_bits,
                 "center": center_bits, "center_part1": bits_a,
                 "center_part2": bits_b},
        "rates": {"r1": r1_bits / n if n else 0.0,
                  "r2": r2_bits / n if n else 0.0,
                  "sum": (r1_bits + r2_bits) / n if n else 0.0},
        "mi": mi.value,
        "sum_identity": {
            "lhs_bits": r1_bits + r2_bits,
            "rhs_bits": s1.payload_bits + s2.payload_bits + center_bits,
        },
    }
    assert report["sum_identity"]["lhs_bits"] == report["sum_identity"]["rhs_bits"]
    return desc1, desc2, report


def _md_segments(desc: bytes, expect_mode: int) -> Tuple[int, Tuple[Segment, ...]]:
    _, n, segments = unpack_segments(desc, expect_mode=expect_mode)
    return n, segments


def egc_decode1(desc1: bytes) -> Sequence:
    _, segments = _md_segments(desc1, MODE_MD1)
    seg = find_segment(segments, ROLE_MD_PRIMARY)
    if seg is None:
        raise StreamFormatError("description 1 missing its reproduction stream")
    return lz_decode(seg.data)


def egc_decode2(desc2: bytes) -> Sequence:
    _, segments = _md_segments(desc2, MODE_MD2)
    seg = find_segment(segments, ROLE_MD_PRIMARY)
    if seg is None:
        raise StreamFormatError("description 2 missing its reproduction stream")
    return lz_decode(seg.data)


def egc_decode0(desc1: bytes, desc2: bytes) -> Tuple[Sequence, Sequence, Sequence]:
    n1, segs1 = _md_segments(desc1, MODE_MD1)
    n2, segs2 = _md_segments(desc2, MODE_MD2)
    if n1 != n2:
        raise StreamFormatError("descriptions disagree on the source length")
    xhat = egc_decode1(desc1)
    xtilde = egc_decode2(desc2)
    part_a = find_segment(segs1, ROLE_COND_PART_A)
    part_b = find_segment(segs2, ROLE_COND_PART_B)
    raw = (part_a.data if part_a else b"") + (part_b.data if part_b else b"")
    if not raw:
        raise StreamFormatError("central refinement stream missing")
    pair = product_sequence((xhat, xtilde))
    return xhat, xtilde, cond_decode(raw, pair)


# ---------------------------------------------------------------------------
# pipeline 2: shared auxiliary sequence


def zb_encode(xhat: Sequence, xtilde: Sequence, xcheck: Sequence, u: Sequence,
              alpha: float = 0.5) -> Tuple[bytes, bytes, dict]:
    """Returns (description1, description2, report).  The auxiliary stream is
    duplicated in both descriptions; alpha splits the central refinement."""
    n = xhat.n
    if xtilde.n != n or xcheck.n != n or u.n != n:
        raise ValueError("sequences must have equal length")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"share fraction out of range: {alpha}")
    su = lz_encode(u)
    c1 = cond_encode(xhat, u)
    c2 = cond_encode(xtilde, u)
    triple = product_sequence((xhat, xtilde, u))
    sc = cond_encode(xcheck, triple)
    part_a, part_b, bits_a, bits_b = split_leaf(sc.to_bytes(), sc.payload_bits, alpha)
    su_bytes = su.to_bytes()
    segs1 = [Segment(ROLE_AUX, su.payload_bits, su_bytes),
             Segment(ROLE_COND_GIVEN_AUX, c1.payload_bits, c1.to_bytes())]
    if part_a:
        segs1.append(Segment(ROLE_COND_PART_A, bits_a, part_a))
    segs2 = [Segment(ROLE_AUX, su.payload_bits, su_bytes),
             Segment(ROLE_COND_GIVEN_AUX, c2.payload_bits, c2.to_bytes())]
    if part_b:
        segs2.append(Segment(ROLE_COND_PART_B, bits_b, part_b))
    desc1 = pack_segments(MODE_MD1, n, segs1)
    desc2 = pack_segments(MODE_MD2, n, segs2)
    r1_bits = su.payload_bits + c1.payload_bits + bits_a
    r2_bits = su.payload_bits + c2.payload_bits + bits_b
    pair = product_sequence((xhat, xtilde))
    rho_pair = rho_cond(pair, u)
    mi = rho_cond(xhat, u) + rho_cond(xtilde, u) - rho_pair  # empirical_mi(xhat, xtilde, u)
    report = {
        "n": n,
        "alpha": alpha,
        "bits": {"aux": su.payload_bits, "hat_given_aux": c1.payload_bits,
                 "tilde_given_aux": c2.payload_bits, "center": sc.payload_bits,
                 "center_part1": bits_a, "center_part2": bits_b},
        "rates": {"r1": r1_bits / n if n else 0.0,
                  "r2": r2_bits / n if n else 0.0,
                  "sum": (r1_bits + r2_bits) / n if n else 0.0},
        "mi_given_aux": mi,
        "sum_decomposition": {
            "rho_aux_doubled": 2.0 * rho_lz(u),
            "rho_pair_given_aux": rho_pair,
            "rho_center": rho_cond(xcheck, triple),
            "mi_given_aux": mi,
        },
        "sum_identity": {
            "lhs_bits": r1_bits + r2_bits,
            "rhs_bits": 2 * su.payload_bits + c1.payload_bits
                        + c2.payload_bits + sc.payload_bits,
        },
    }
    assert report["sum_identity"]["lhs_bits"] == report["sum_identity"]["rhs_bits"]
    return desc1, desc2, report


def _zb_side(desc: bytes, expect_mode: int) -> Tuple[Sequence, Sequence, Tuple[Segment, ...]]:
    _, segments = _md_segments(desc, expect_mode)
    seg_u = find_segment(segments, ROLE_AUX)
    seg_c = find_segment(segments, ROLE_COND_GIVEN_AUX)
    if seg_u is None or seg_c is None:
        raise StreamFormatError("description missing auxiliary or conditional stream")
    u = lz_decode(seg_u.data)
    side = cond_decode(seg_c.data, u)
    return u, side, segments


def zb_decode1(desc1: bytes) -> Tuple[Sequence, Sequence]:
    u, xhat, _ = _zb_side(desc1, MODE_MD1)
    return u, xhat


def zb_decode2(desc2: bytes) -> Tuple[Sequence, Sequence]:
    u, xtilde, _ = _zb_side(desc2, MODE_MD2)
    return u, xtilde


def zb_decode0(desc1: bytes, desc2: bytes) -> Tuple[Sequence, Sequence, Sequence, Sequence]:
    u1, xhat, segs1 = _zb_side(desc1, MODE_MD1)
    u2, xtilde, segs2 = _zb_side(desc2, MODE_MD2)
    if u1 != u2:
        raise StreamFormatError("descriptions carry different auxiliary sequences")
    part_a = find_segment(segs1, ROLE_COND_PART_A)
    part_b = find_segment(segs2, ROLE_COND_PART_B)
    raw = (part_a.data if part_a else b"") + (part_b.data if part_b else b"")
    if not raw:
        raise StreamFormatError("central refinement stream missing")
    xcheck = cond_decode(raw, product_sequence((xhat, xtilde, u1)))
    return u1, xhat, xtilde, xcheck


def default_auxiliary(x: Sequence, levels: int = 2) -> Sequence:
    """Coarse per-letter quantization of x used when no auxiliary is given."""
    if levels < 1:
        raise ValueError("levels must be positive")
    size = x.alphabet.size
    levels = min(levels, size)
    from .lz_core import Alphabet

    alpha = Alphabet(tuple(str(i) for i in range(levels)))
    return Sequence(alpha, (v * levels // size for v in x.data))
