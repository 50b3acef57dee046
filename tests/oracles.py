"""Brute-force reference implementations the tests check the package against.

Everything here is deliberately naive: sets of strings instead of tries,
Counter-based entropies, full input enumeration for machine certification,
and grid scans for region geometry.  Slow but obviously correct.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence as Seq, Tuple

from srlz import bounds
from srlz.bitio import pack
from srlz.cond_lz import cond_encode, joint_parse, rho_cond, side_info_checksum
from srlz.container import MODE_COND, Bitstream
from srlz.corpus import ALPHABET_SIZES, STYLES, noisy_copy, random_sequence
from srlz.empirics import TOL, block_checks
from srlz.fsm import FsmEncoder
from srlz.lz_core import Alphabet, Sequence, rho_lz
from srlz.regions import TOL as REGION_TOL
from srlz.regions import HalfPlaneRegion, RatePoint, clamped_region, region_from_corner
from srlz.sr_codec import DistortionSpec, _random_feasible, distortion, nearest_feasible


def parse_by_set(symbols: Seq) -> Tuple[List[tuple], int, bool]:
    """Incremental parse with an explicit phrase set.

    Each phrase is the shortest prefix of the remaining input that is not yet
    in the set; a leftover prefix that is already a phrase counts as a final
    incomplete phrase.  Returns (phrases, count, last_incomplete).
    """
    seen = set()
    phrases: List[tuple] = []
    i = 0
    n = len(symbols)
    while i < n:
        j = i + 1
        while j <= n and tuple(symbols[i:j]) in seen:
            j += 1
        w = tuple(symbols[i:j])
        if j > n:
            phrases.append(tuple(symbols[i:n]))
            return phrases, len(phrases), True
        seen.add(w)
        phrases.append(w)
        i = j
    return phrases, len(phrases), False


def pack_bits(fields: Seq[Tuple[int, int]]) -> bytes:
    """MSB-first packing of (value, width) fields: shift everything into one
    int, then zero-pad the tail to a byte boundary."""
    acc = 0
    nbits = 0
    for value, width in fields:
        acc = (acc << width) | value
        nbits += width
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


def unpack_bits(data: bytes, widths: Seq[int]) -> List[int]:
    """The fields of `widths`, read MSB first from the whole of `data` as one int."""
    val = int.from_bytes(data, "big")
    total = len(data) * 8
    pos = 0
    out = []
    for width in widths:
        pos += width
        assert pos <= total
        out.append((val >> (total - pos)) & ((1 << width) - 1))
    return out


def rho_by_set(symbols: Seq) -> float:
    _, c, _ = parse_by_set(symbols)
    if len(symbols) == 0 or c <= 1:
        return 0.0
    return c * math.log2(c) / len(symbols)


def joint_parse_by_set(primary: Seq, secondary: Seq):
    """Joint parse over symbol pairs plus per-primary-string phrase counts.

    Returns (c_joint, c_prime, sorted c_l, rho_cond, last_incomplete).
    """
    assert len(primary) == len(secondary)
    pairs = list(zip(primary, secondary))
    phrases, c_joint, incomplete = parse_by_set(pairs)
    primary_strings = [tuple(a for a, _ in ph) for ph in phrases]
    counts = Counter(primary_strings)
    c_l = sorted(counts.values())
    n = len(primary)
    rho_c = sum(v * math.log2(v) for v in c_l) / n if n else 0.0
    return c_joint, len(counts), c_l, rho_c, incomplete


def cond_encode_reference(secondary: Sequence, primary: Sequence) -> Bitstream:
    """The conditional stream with one field per symbol, then `bitio.pack`.

    At each step the dictionary node's children under the next primary
    symbol a are ranked by first use.  A match emits the child's rank,
    m.bit_length() bits wide for the m children; a miss adds a child and
    emits m << secw | b, m.bit_length() + secw bits wide, and returns to the
    root.  A walk that ends away from the root is an unfinished last phrase.
    """
    secw = secondary.alphabet.bits_per_symbol
    child: Dict[tuple, Tuple[int, int]] = {}  # (node, a, b) -> (rank, child id)
    fan: Dict[tuple, int] = {}  # (node, a) -> m
    values: List[int] = []
    widths: List[int] = []
    nodes = node = 0
    for a, b in zip(primary.data, secondary.data):
        hit = child.get((node, a, b))
        if hit is None:
            m = fan.get((node, a), 0)
            fan[node, a] = m + 1
            nodes += 1
            child[node, a, b] = (m, nodes)
            values.append(m << secw | b)
            widths.append(m.bit_length() + secw)
            node = 0
        else:
            values.append(hit[0])
            widths.append(fan[node, a].bit_length())
            node = hit[1]
    payload, payload_bits = pack(values, widths)
    return Bitstream(mode=MODE_COND, n=secondary.n, alphabet=secondary.alphabet.symbols,
                     phrase_count=nodes + (node != 0), last_incomplete=node != 0,
                     payload=payload, payload_bits=payload_bits,
                     side_checksum=side_info_checksum(primary))


def blockwise_region_reference(primary: Sequence, secondary: Sequence, q: int, k: int,
                               side: str, eps_mode: str = "default") -> HalfPlaneRegion:
    """The block-partition region from one Sequence per block and the public
    rho_lz and rho_cond; the reference for regions.blockwise_region."""
    n = primary.n
    side = {"outer": "outer-minus", "inner": "inner-plus"}.get(side, side)
    beta = primary.alphabet.size
    gamma = secondary.alphabet.size
    sum1 = 0.0
    sum2 = 0.0
    for t in range(0, n, k):
        pb = Sequence(primary.alphabet, primary.data[t:t + k])
        sb = Sequence(secondary.alphabet, secondary.data[t:t + k])
        sum1 += rho_lz(pb)
        sum2 += rho_cond(sb, pb)
    scale = k / n
    avg1 = scale * sum1
    avg12 = scale * (sum1 + sum2)
    meta = {
        "n": n, "q": q, "block_len": k, "side": side,
        "avg_rho_lz": avg1, "avg_rho_sum": avg12,
        "eps_mode": eps_mode,
    }
    if side == "outer-minus":
        eps_n, d1, d2, d2_l = bounds.converse_terms(q, k, beta, gamma, eps_mode)
        meta.update({"delta1": d1, "delta2": d2, "delta2_block_len": d2_l,
                     "eps_n": eps_n})
        return clamped_region(avg1 - d1, avg12 - d2, meta=meta)
    e1 = bounds.eps_slack(k, beta, bounds.eps_n_value(k, beta, eps_mode))
    e2 = bounds.eps_hat(k)
    meta.update({"eps_slack": e1, "eps_hat": e2})
    return clamped_region(avg1 + e1, avg12 + e1 + e2, meta=meta)


def block_entropy_bits(blocks: Seq) -> float:
    """Empirical entropy of the block multiset, in bits per block."""
    counts = Counter(blocks)
    total = len(blocks)
    h = 0.0
    for v in counts.values():
        p = v / total
        h -= p * math.log2(p)
    return h


def split_blocks(symbols: Seq, block_len: int) -> List[tuple]:
    n = len(symbols)
    assert n % block_len == 0
    return [tuple(symbols[i:i + block_len]) for i in range(0, n, block_len)]


def check_entropy_inequality(seq: Sequence, block_len: int, eps_mode: str = "default",
                             tol: float = TOL) -> dict:
    """The entropy inequality report of seq, from a parse of its own: the
    reference for `analyze --block-len` and the exhaustive suite."""
    return block_checks(seq, None, block_len, eps_mode, tol, rho=rho_lz(seq))[1]


def check_cond_entropy_inequality(secondary: Sequence, primary: Sequence, block_len: int,
                                  eps_mode: str = "default", tol: float = TOL) -> dict:
    """The conditional entropy inequality report of secondary given primary,
    from a joint parse of its own."""
    return block_checks(primary, secondary, block_len, eps_mode, tol,
                        rho_c=rho_cond(secondary, primary))[2]


def stage1_collision(f1_out: Dict[Tuple[int, int], str],
                     g1: Dict[Tuple[int, int], int],
                     n_states: int, beta: int, k: int,
                     start: int) -> Optional[Tuple[tuple, tuple]]:
    """Full enumeration of the length-k stage-1 input strings from `start`:
    two distinct inputs mapping to the same (output, final state), or None."""
    seen: Dict[Tuple[str, int], tuple] = {}
    for word in product(range(beta), repeat=k):
        out = []
        s = start
        for a in word:
            out.append(f1_out[(s, a)])
            s = g1[(s, a)]
        key = ("".join(out), s)
        if key in seen:
            return seen[key], word
        seen[key] = word
    return None


def joint_collision(encoder, k: int, s0: int, z0: int) -> Optional[tuple]:
    """Full enumeration of length-k pair inputs: two distinct pair strings
    with identical (u, s_final, v, z_final), or None."""
    beta, gamma = encoder.beta, encoder.gamma
    seen: Dict[tuple, tuple] = {}
    for word in product(product(range(beta), range(gamma)), repeat=k):
        u = []
        v = []
        s, z = s0, z0
        for a, b in word:
            u.append(encoder.f1[(s, a)])
            s = encoder.g1[(s, a)]
            v.append(encoder.f2[(z, a, b)])
            z = encoder.g2[(z, a, b)]
        key = ("".join(u), s, "".join(v), z)
        if key in seen:
            return seen[key], word
        seen[key] = word
    return None


def kraft_sum_by_strings(encoder, block_len: int) -> Tuple[float, int]:
    """Generalized Kraft sum by building every output string: over all
    (xhat^l, xtilde^l) in lexicographic order, add 2^-(min_s |f1 walk| +
    min_z |f2 walk|).  Returns (lhs, least total length)."""
    def walk1(s, symbols):
        parts = []
        for a in symbols:
            parts.append(encoder.f1[(s, a)])
            s = encoder.g1[(s, a)]
        return "".join(parts)

    def walk2(z, pairs):
        parts = []
        for a, b in pairs:
            parts.append(encoder.f2[(z, a, b)])
            z = encoder.g2[(z, a, b)]
        return "".join(parts)

    lhs = 0.0
    least = None
    for hat in product(range(encoder.beta), repeat=block_len):
        l1 = min(len(walk1(s, hat)) for s in range(len(encoder.states_s)))
        for til in product(range(encoder.gamma), repeat=block_len):
            pairs = tuple(zip(hat, til))
            l2 = min(len(walk2(z, pairs)) for z in range(len(encoder.states_z)))
            total = l1 + l2
            lhs += 2.0 ** (-total)
            if least is None or total < least:
                least = total
    return lhs, least


def in_union(floors: Seq[Tuple[float, float]], r1: float, r2: float,
             tol: float = 1e-9) -> bool:
    """Membership in a union of {R1 >= max(a,0), R1+R2 >= max(b, max(a,0))}
    regions given as raw (a, b) floors."""
    if r1 < -tol or r2 < -tol:
        return False
    for a, b in floors:
        ea = max(a, 0.0)
        eb = max(b, ea)
        if r1 >= ea - tol and r1 + r2 >= eb - tol:
            return True
    return False


def grid_corners(floors: Seq[Tuple[float, float]], step: float,
                 r1_max: float, r2_max: float) -> List[Tuple[float, float]]:
    """Scan a lattice for staircase corners: points in the union whose left
    and lower neighbors are both outside."""
    corners = []
    i_max = int(round(r1_max / step))
    j_max = int(round(r2_max / step))
    for i in range(i_max + 1):
        r1 = i * step
        for j in range(j_max + 1):
            r2 = j * step
            if (in_union(floors, r1, r2)
                    and not in_union(floors, r1 - step, r2)
                    and not in_union(floors, r1, r2 - step)):
                corners.append((r1, r2))
    return corners


def frontier_all_pairs(members: Seq[HalfPlaneRegion], tol: float = REGION_TOL) -> List[RatePoint]:
    """regions.frontier as every corner checked against every member: a corner
    stays unless some member holds it and it is not a minimal point of that
    member, i.e. it lies strictly above the member's sum edge and right of
    its R1 floor or above its R2 floor."""
    if not members:
        return []
    if any(m.c is not None for m in members):
        raise ValueError("frontier expects members without an explicit R2 floor")
    out: List[RatePoint] = []
    for p in (m.corner() for m in members):
        for m in members:
            a, c, b = m.floors()
            on_sum = p.r1 + p.r2 <= b + tol
            minimal = (p.r1 <= a + tol or on_sum) and (p.r2 <= c + tol or on_sum)
            if m.contains(p, tol) and not minimal:
                break
        else:
            out.append(p)
    out.sort(key=lambda p: (p.r1, p.r2))
    dedup: List[RatePoint] = []
    for p in out:
        if dedup and abs(p.r1 - dedup[-1].r1) <= tol and abs(p.r2 - dedup[-1].r2) <= tol:
            continue
        dedup.append(p)
    return dedup


def random_union(rng: random.Random) -> List[HalfPlaneRegion]:
    """1-14 members on a lattice from 1e-10 (below the tolerance) to 1.0:
    clamped, unclamped and region_from_corner regions, some repeated, some
    with off-lattice corners whose sum floor rounds.  Corners land on and
    within the tolerance of each other's floors and of the R1 axis."""
    step = rng.choice((1e-10, 5e-10, 1e-9, 2e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 1.0))
    members: List[HalfPlaneRegion] = []
    for _ in range(rng.randint(1, 14)):
        kind = rng.randrange(5)
        a = rng.randint(-3, 10) * step
        b = rng.randint(-3, 20) * step
        if kind == 0:
            members.append(clamped_region(a, b))
        elif kind == 1:
            members.append(HalfPlaneRegion(a=a, b=b))
        elif kind == 2:
            members.append(region_from_corner(RatePoint(a, rng.randint(0, 10) * step)))
        elif kind == 3:
            members.append(region_from_corner(RatePoint(rng.random(), rng.random())))
        else:
            members.append(rng.choice(members) if members else HalfPlaneRegion(a=a, b=b))
    return members


# ---------------------------------------------------------------------------
# fixtures: a reference encoder, the distortion-ball test, the standard corpus


def identity_encoder(primary_alphabet: Alphabet, secondary_alphabet: Alphabet) -> FsmEncoder:
    """One state per stage; fixed-length codes of each symbol."""
    bw = primary_alphabet.bits_per_symbol
    gw = secondary_alphabet.bits_per_symbol
    f1 = {(0, a): format(a, f"0{bw}b") if bw else "" for a in range(primary_alphabet.size)}
    g1 = {(0, a): 0 for a in range(primary_alphabet.size)}
    f2 = {}
    g2 = {}
    for a in range(primary_alphabet.size):
        for b in range(secondary_alphabet.size):
            f2[(0, a, b)] = format(b, f"0{gw}b") if gw else ""
            g2[(0, a, b)] = 0
    return FsmEncoder(primary_alphabet, secondary_alphabet, ("s0",), ("z0",),
                      f1, g1, f2, g2)


def in_ball(x: Sequence, xhat: Sequence, xtilde: Sequence, dist: DistortionSpec,
            tol: float = 1e-9) -> bool:
    """Both reproductions within their per-letter average distortion levels."""
    return (distortion(x, xhat, dist.d1) <= dist.level1 * x.n + tol
            and distortion(x, xtilde, dist.d2) <= dist.level2 * x.n + tol)


def greedy_pairs_by_full_parse(x: Sequence, dist: DistortionSpec, search
                               ) -> Tuple[List[Tuple[Sequence, Sequence]], List[tuple]]:
    """The greedy reproduction search of `sr_codec._greedy_pairs` (same start
    points, restarts, sweep order and per-position budget check), scoring
    every candidate flip with a full rho_lz(hat) + joint_parse(hat, til).rho_cond.
    Returns the pairs it keeps and one entry per candidate scored: (start
    point, flips accepted from it so far, position, coarse?, letter)."""
    rng = random.Random(search.seed)
    kept: List[Tuple[Sequence, Sequence]] = []
    scored: List[tuple] = []

    def score(h, t, hat_alpha, til_alpha):
        hat, til = Sequence(hat_alpha, h), Sequence(til_alpha, t)
        return rho_lz(hat) + joint_parse(hat, til).rho_cond

    def improve(start, hat, til):
        accepted = 0
        seqs = [list(hat.data), list(til.data)]
        specs = [(dist.d1.letter_cost(x.alphabet, hat.alphabet), dist.level1),
                 (dist.d2.letter_cost(x.alphabet, til.alphabet), dist.level2)]
        best = score(*seqs, hat.alphabet, til.alphabet)
        improved = True
        while improved and len(scored) < search.evaluations:
            improved = False
            for i in range(x.n):
                if len(scored) >= search.evaluations:
                    break
                for side, (cost, level) in enumerate(specs):
                    seq = seqs[side]
                    for j in range(len(cost[0])):
                        old = seq[i]
                        if j == old:
                            continue
                        seq[i] = j
                        spent = sum(cost[a][b] for a, b in zip(x.data, seq))
                        if spent > level * x.n + 1e-9:
                            seq[i] = old
                            continue
                        scored.append((start, accepted, i, side == 0, j))
                        cand = score(*seqs, hat.alphabet, til.alphabet)
                        if cand < best - 1e-15:
                            best, improved = cand, True
                            accepted += 1
                        else:
                            seq[i] = old
        return Sequence(hat.alphabet, seqs[0]), Sequence(til.alphabet, seqs[1])

    def keep(pair):
        if all((pair[0].data, pair[1].data) != (h.data, t.data) for h, t in kept):
            kept.append(pair)

    pair = (nearest_feasible(x, dist.d1, dist.level1),
            nearest_feasible(x, dist.d2, dist.level2))
    keep(pair)
    keep(improve(0, *pair))
    for restart in range(1, max(0, search.restarts) + 1):
        pair = (_random_feasible(x, dist.d1, dist.level1, rng),
                _random_feasible(x, dist.d2, dist.level2, rng))
        keep(pair)
        keep(improve(restart, *pair))
        if len(scored) >= search.evaluations:
            break
    return kept, scored


STANDARD_SEED = 0xC0DEC
CALIBRATION_SEED = 0x5EED


def _log_uniform_n(rng: random.Random, lo: int, hi: int) -> int:
    if lo >= hi:
        return lo
    return min(hi, int(lo * (hi / lo) ** rng.random()))


@dataclass(frozen=True)
class CorpusCase:
    """One bundle of related sequences feeding every codec suite."""

    index: int
    style: str
    n: int
    beta: int
    gamma: int
    x: Sequence        # source, over the beta-letter alphabet
    xhat: Sequence     # coarse reproduction, beta letters
    xtilde: Sequence   # fine reproduction, gamma letters
    xcheck: Sequence   # central reproduction, gamma letters
    u: Sequence        # shared auxiliary, 2 or 4 letters
    split: float       # refinement share for the description split


def standard_cases(seed: int = STANDARD_SEED, count: int = 500,
                   n_lo: int = 16, n_hi: int = 4096) -> List[CorpusCase]:
    """The round-trip / payload-bound corpus: all nine (beta, gamma) size
    combinations and all four textures cycle; n is log-uniform in [n_lo, n_hi]."""
    rng = random.Random(seed)
    cases: List[CorpusCase] = []
    for i in range(count):
        beta = ALPHABET_SIZES[i % 3]
        gamma = ALPHABET_SIZES[(i // 3) % 3]
        style = STYLES[i % 4]
        n = _log_uniform_n(rng, n_lo, n_hi)
        x = random_sequence(rng, beta, n, style)
        xhat = noisy_copy(rng, x, beta, flip=0.1)
        xtilde = noisy_copy(rng, x, gamma, flip=0.1)
        xcheck = noisy_copy(rng, x, gamma, flip=0.05)
        u = noisy_copy(rng, xhat, 2 if i % 2 else 4, flip=0.2)
        cases.append(CorpusCase(index=i, style=style, n=n, beta=beta,
                                gamma=gamma, x=x, xhat=xhat, xtilde=xtilde,
                                xcheck=xcheck, u=u, split=rng.random()))
    return cases


def calibration_pairs(seed: int = CALIBRATION_SEED, count: int = 500,
                      n_lo: int = 16, n_hi: int = 4096
                      ) -> List[Tuple[Sequence, Sequence]]:
    """(secondary, primary) pairs the conditional-stream slack constant
    `bounds.EPS_HAT_K` was calibrated on.  Do not change the seed or the draw
    order: the frozen constant is a function of this exact corpus."""
    rng = random.Random(seed)
    pairs: List[Tuple[Sequence, Sequence]] = []
    for i in range(count):
        beta = ALPHABET_SIZES[i % 3]
        gamma = ALPHABET_SIZES[(i // 3) % 3]
        style = STYLES[i % 4]
        n = _log_uniform_n(rng, n_lo, n_hi)
        primary = random_sequence(rng, beta, n, style)
        if i % 2:
            secondary = noisy_copy(rng, primary, gamma, flip=0.1)
        else:
            secondary = random_sequence(rng, gamma, n, style)
        pairs.append((secondary, primary))
    return pairs


def calibrate_eps_hat_k(pairs=None, max_power: int = 10) -> int:
    """Smallest power-of-two K making the conditional payload bound hold on the
    calibration corpus: how `bounds.EPS_HAT_K` was frozen."""
    if pairs is None:
        pairs = calibration_pairs()
    needed = 1
    for secondary, primary in pairs:
        n = secondary.n
        if n < 3:  # log2(log2 n) <= 0 gives no budget; excluded by corpus anyway
            continue
        stream = cond_encode(secondary, primary)
        rho_c = rho_cond(secondary, primary)
        slack_unit = n * math.log2(max(1.0, math.log2(n))) / math.log2(n)
        excess = stream.payload_bits - n * rho_c
        if excess <= 0:
            continue
        k = 1
        while k * slack_unit < excess:
            k *= 2
            if k > 2 ** max_power:
                raise RuntimeError("calibration did not converge")
        needed = max(needed, k)
    return needed
