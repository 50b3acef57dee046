"""Two-description coding: outer bound, the two achievable pipelines and the
sum-rate split fact.

Pipeline 1 (private + shared refinement): description i carries the plain
stream of its own reproduction; the central refinement, the conditional
stream of the central reproduction given both side reproductions, is split
between the descriptions at a byte boundary.

Pipeline 2 (common auxiliary): both descriptions carry the plain stream of a
shared auxiliary sequence, then the conditional stream of their own
reproduction given it; the central refinement conditions on all three.

The outer region takes its penalties from bounds.converse_terms: each
description's delta1 as a single-description converse on its own
reproduction, and the sum floor's delta2 with the reproduction pair as the
primary sequence.  A pipeline's inner region is md_inner_region of the "bits"
block of its encoder's report, so only the encoder lists the streams it codes.

The encoders take the complexities of their reports from the streams they
code: each plain stream's phrase count gives its rho_lz, and each
conditional stream of pipeline 2 hands back the c_l that gives its rho_cond.
Only the reproduction pair, which no stream codes on its own, is walked for
its figure (its rho_lz in pipeline 1, its rho_cond given u in pipeline 2).
Pipeline 2 hashes u once per call, and zb_decode0 decodes the auxiliary
stream once when both descriptions carry the same bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

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
from .cond_lz import (
    _cond_decode,
    _cond_encode,
    cond_decode,
    cond_encode,
    rho_cond,
    rho_cond_from_counts,
    side_info_checksum,
)
from .lz_core import (
    Alphabet,
    Sequence,
    lz_decode,
    lz_encode,
    product_sequence,
    rho_from_count,
    rho_lz,
)

# the region functions import regions and bounds when called: decoders never load them
if TYPE_CHECKING:
    from .regions import HalfPlaneRegion


def md_outer_region(xhat: Sequence, xtilde: Sequence, xcheck: Sequence, q: int,
                    eps_mode: str = "default") -> HalfPlaneRegion:
    """Converse floors for any q-state-per-stage two-description encoder
    reproducing (xhat, xtilde, xcheck): a on R1, c on R2, b on R1 + R2."""
    from . import bounds
    from .regions import clamped_region

    n = xhat.n
    if n < 2:
        raise ValueError("needs n >= 2")
    if xtilde.n != n or xcheck.n != n:
        raise ValueError("sequences must have equal length")
    beta = xhat.alphabet.size
    gamma = xtilde.alphabet.size
    pair = product_sequence((xhat, xtilde))
    rho_joint = rho_lz(pair)  # joint_parse's rho_joint: the same walk over a*B + b
    rho_center = rho_cond(xcheck, pair)
    d1_hat = bounds.converse_terms(q, n, beta, gamma, eps_mode)[1]
    d1_til = bounds.converse_terms(q, n, gamma, beta, eps_mode)[1]
    d2, d2_l = bounds.converse_terms(q, n, beta * gamma, xcheck.alphabet.size, eps_mode)[2:]
    rho_hat = rho_lz(xhat)
    rho_til = rho_lz(xtilde)
    return clamped_region(
        rho_hat - d1_hat, rho_joint + rho_center - d2, rho_til - d1_til,
        meta={
            "n": n, "q": q,
            "rho_lz_hat": rho_hat, "rho_lz_tilde": rho_til,
            "rho_joint": rho_joint, "rho_center": rho_center,
            "delta1_hat": d1_hat, "delta1_tilde": d1_til,
            "delta2": d2, "delta2_block_len": d2_l,
            "eps_mode": eps_mode,
        },
    )


def md_inner_region(n: int, bits: dict) -> HalfPlaneRegion:
    """Measured achievable region of either pipeline as the split share sweeps
    [0, 1], from the stream bit counts in the "bits" block of its encoder's
    report.  Pipeline 1 (keys stage_hat, stage_tilde, center): per-description
    floors are the private streams.  Pipeline 2 (keys aux, hat_given_aux,
    tilde_given_aux, center): each description carries the auxiliary stream
    plus its own conditional stream.  The sum floor adds the central
    refinement."""
    from .regions import HalfPlaneRegion

    if n == 0:
        raise ValueError("needs n >= 1")
    bits_center = bits["center"]
    if "aux" not in bits:
        bits_hat, bits_til = bits["stage_hat"], bits["stage_tilde"]
        return HalfPlaneRegion(
            a=bits_hat / n, b=(bits_hat + bits_til + bits_center) / n, c=bits_til / n,
            meta={"n": n, "bits_hat": bits_hat, "bits_tilde": bits_til,
                  "bits_center": bits_center},
        )
    bits_u, bits_hat, bits_til = bits["aux"], bits["hat_given_aux"], bits["tilde_given_aux"]
    a = (bits_u + bits_hat) / n
    c = (bits_u + bits_til) / n
    return HalfPlaneRegion(
        a=a, b=a + c + bits_center / n, c=c,
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
# shared by both pipelines: packing and reassembling the central stream


def _describe(n: int, own1: list, own2: list, center, share: float
              ) -> Tuple[bytes, bytes, int, int, dict]:
    """Both descriptions: own segments, then a share of the central stream.
    Also returns the report's "rates" and "sum_identity" blocks, from the bits
    of the segments each description packs."""
    streams_bits = sum(seg.bit_length for seg in own1 + own2) + center.payload_bits
    part_a, part_b, bits_a, bits_b = split_leaf(center.to_bytes(), center.payload_bits, share)
    if part_a:
        own1.append(Segment(ROLE_COND_PART_A, bits_a, part_a))
    if part_b:
        own2.append(Segment(ROLE_COND_PART_B, bits_b, part_b))
    r1_bits = sum(seg.bit_length for seg in own1)
    r2_bits = sum(seg.bit_length for seg in own2)
    blocks = {
        "rates": {"r1": r1_bits / n if n else 0.0,
                  "r2": r2_bits / n if n else 0.0,
                  "sum": (r1_bits + r2_bits) / n if n else 0.0},
        "sum_identity": {"lhs_bits": r1_bits + r2_bits, "rhs_bits": streams_bits},
    }
    return (pack_segments(MODE_MD1, n, own1), pack_segments(MODE_MD2, n, own2),
            bits_a, bits_b, blocks)


def _center(segs1: Tuple[Segment, ...], segs2: Tuple[Segment, ...],
            side: Tuple[Sequence, ...]) -> Sequence:
    """The central stream, joined from its two parts and decoded given the sides."""
    part_a = find_segment(segs1, ROLE_COND_PART_A)
    part_b = find_segment(segs2, ROLE_COND_PART_B)
    raw = (part_a.data if part_a else b"") + (part_b.data if part_b else b"")
    if not raw:
        raise StreamFormatError("central refinement stream missing")
    return cond_decode(raw, product_sequence(side))


# ---------------------------------------------------------------------------
# pipeline 1: private reproductions + split central refinement


def egc_encode(xhat: Sequence, xtilde: Sequence, xcheck: Sequence,
               split: float = 0.5) -> Tuple[bytes, bytes, dict]:
    """Returns (description1, description2, report)."""
    n = xhat.n
    if xtilde.n != n or xcheck.n != n:
        raise ValueError("sequences must have equal length")
    if not 0.0 <= split <= 1.0:  # before any stream is coded; NaN fails too
        raise ValueError(f"share fraction out of range: {split}")
    s1 = lz_encode(xhat)
    s2 = lz_encode(xtilde)
    pair = product_sequence((xhat, xtilde))
    sc = cond_encode(xcheck, pair)
    desc1, desc2, bits_a, bits_b, blocks = _describe(
        n, [Segment(ROLE_MD_PRIMARY, s1.payload_bits, s1.to_bytes())],
        [Segment(ROLE_MD_PRIMARY, s2.payload_bits, s2.to_bytes())], sc, split)
    report = {
        "n": n,
        "split": split,
        "bits": {"stage_hat": s1.payload_bits, "stage_tilde": s2.payload_bits,
                 "center": sc.payload_bits, "center_part1": bits_a,
                 "center_part2": bits_b},
        # the empirical mutual information rho_lz(xhat) + rho_lz(xtilde) -
        # rho_lz(pair), the plain rates from the streams' phrase counts
        "mi": rho_from_count(s1.phrase_count, n) + rho_from_count(s2.phrase_count, n)
              - rho_lz(pair),
        **blocks,
    }
    return desc1, desc2, report


def _egc_side(desc: bytes, which: int) -> Tuple[int, Segment, Tuple[Segment, ...]]:
    """(n, reproduction segment, all segments) of description 1 or 2, undecoded."""
    _, n, segments = unpack_segments(desc, expect_mode=(MODE_MD1, MODE_MD2)[which - 1])
    seg = find_segment(segments, ROLE_MD_PRIMARY)
    if seg is None:
        raise StreamFormatError(f"description {which} missing its reproduction stream")
    return n, seg, segments


def egc_decode1(desc1: bytes) -> Sequence:
    return lz_decode(_egc_side(desc1, 1)[1].data)


def egc_decode2(desc2: bytes) -> Sequence:
    return lz_decode(_egc_side(desc2, 2)[1].data)


def egc_decode0(desc1: bytes, desc2: bytes) -> Tuple[Sequence, Sequence, Sequence]:
    n1, seg1, segs1 = _egc_side(desc1, 1)
    n2, seg2, segs2 = _egc_side(desc2, 2)
    if n1 != n2:
        raise StreamFormatError("descriptions disagree on the source length")
    xhat = lz_decode(seg1.data)
    xtilde = lz_decode(seg2.data)
    return xhat, xtilde, _center(segs1, segs2, (xhat, xtilde))


# ---------------------------------------------------------------------------
# pipeline 2: shared auxiliary sequence


def zb_encode(xhat: Sequence, xtilde: Sequence, xcheck: Sequence, u: Sequence,
              alpha: float = 0.5) -> Tuple[bytes, bytes, dict]:
    """Returns (description1, description2, report).  The auxiliary stream is
    duplicated in both descriptions; alpha splits the central refinement."""
    n = xhat.n
    if xtilde.n != n or xcheck.n != n or u.n != n:
        raise ValueError("sequences must have equal length")
    if not 0.0 <= alpha <= 1.0:  # before any stream is coded; NaN fails too
        raise ValueError(f"share fraction out of range: {alpha}")
    su = lz_encode(u)
    hu = side_info_checksum(u)
    c1, cl_hat = _cond_encode(xhat, u, hu, counts=True)
    c2, cl_til = _cond_encode(xtilde, u, hu, counts=True)
    pair = product_sequence((xhat, xtilde))
    rho_pair = rho_cond(pair, u)
    sc, cl_center = _cond_encode(xcheck, product_sequence((pair, u)), counts=True)
    aux = Segment(ROLE_AUX, su.payload_bits, su.to_bytes())
    desc1, desc2, bits_a, bits_b, blocks = _describe(
        n, [aux, Segment(ROLE_COND_GIVEN_AUX, c1.payload_bits, c1.to_bytes())],
        [aux, Segment(ROLE_COND_GIVEN_AUX, c2.payload_bits, c2.to_bytes())], sc, alpha)
    # the empirical mutual information given u, from the streams' counts
    mi = rho_cond_from_counts(cl_hat, n) + rho_cond_from_counts(cl_til, n) - rho_pair
    report = {
        "n": n,
        "alpha": alpha,
        "bits": {"aux": su.payload_bits, "hat_given_aux": c1.payload_bits,
                 "tilde_given_aux": c2.payload_bits, "center": sc.payload_bits,
                 "center_part1": bits_a, "center_part2": bits_b},
        "mi_given_aux": mi,
        "sum_decomposition": {
            "rho_aux_doubled": 2.0 * rho_from_count(su.phrase_count, n),
            "rho_pair_given_aux": rho_pair,
            "rho_center": rho_cond_from_counts(cl_center, n),
            "mi_given_aux": mi,
        },
        **blocks,
    }
    return desc1, desc2, report


def _zb_segments(desc: bytes, which: int) -> Tuple[Segment, Segment, Tuple[Segment, ...]]:
    """(auxiliary segment, conditional segment, all segments) of description 1 or 2."""
    _, _, segments = unpack_segments(desc, expect_mode=(MODE_MD1, MODE_MD2)[which - 1])
    seg_u = find_segment(segments, ROLE_AUX)
    seg_c = find_segment(segments, ROLE_COND_GIVEN_AUX)
    if seg_u is None or seg_c is None:
        raise StreamFormatError("description missing auxiliary or conditional stream")
    return seg_u, seg_c, segments


def _zb_side(desc: bytes, which: int) -> Tuple[Sequence, Sequence]:
    seg_u, seg_c, _ = _zb_segments(desc, which)
    u = lz_decode(seg_u.data)
    return u, cond_decode(seg_c.data, u)


def zb_decode1(desc1: bytes) -> Tuple[Sequence, Sequence]:
    return _zb_side(desc1, 1)


def zb_decode2(desc2: bytes) -> Tuple[Sequence, Sequence]:
    return _zb_side(desc2, 2)


def zb_decode0(desc1: bytes, desc2: bytes) -> Tuple[Sequence, Sequence, Sequence, Sequence]:
    """Identical auxiliary streams are decoded and hashed once."""
    seg_u1, seg_c1, segs1 = _zb_segments(desc1, 1)
    u = lz_decode(seg_u1.data)
    hu = side_info_checksum(u)
    xhat = _cond_decode(seg_c1.data, u, hu)
    seg_u2, seg_c2, segs2 = _zb_segments(desc2, 2)
    if seg_u2.data == seg_u1.data:
        xtilde = _cond_decode(seg_c2.data, u, hu)
    else:
        u2 = lz_decode(seg_u2.data)
        xtilde = cond_decode(seg_c2.data, u2)
        if u2 != u:
            raise StreamFormatError("descriptions carry different auxiliary sequences")
    return u, xhat, xtilde, _center(segs1, segs2, (xhat, xtilde, u))


def default_auxiliary(x: Sequence, levels: int = 2) -> Sequence:
    """Coarse per-letter quantization of x used when no auxiliary is given."""
    if levels < 1:
        raise ValueError("levels must be positive")
    size = x.alphabet.size
    levels = min(levels, size)
    return Sequence(Alphabet.of_size(levels), (v * levels // size for v in x.data))
