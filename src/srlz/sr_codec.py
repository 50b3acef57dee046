"""Two-stage refinement codec and reproduction-pair selection.

The first description is the plain stream of the coarse reproduction; the
refinement description is the conditional stream of the fine reproduction
given the coarse one.  Decoder 1 reads a prefix (the first stream) of what
decoder 2 reads, which is the successive-refinement structure.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Tuple, Union

from .container import (
    MODE_COND,
    MODE_LZ,
    MODE_SR,
    Bitstream,
    BudgetExceededError,
    InfeasibleError,
    ROLE_STAGE1,
    ROLE_STAGE2,
    Record,
    Segment,
    StreamFormatError,
    find_segment,
    pack_segments,
    unpack_segments,
)
from .cond_lz import cond_decode, cond_encode, primary_step, rho_cond
from .lz_core import Alphabet, Sequence, lz_decode, lz_encode, rho_lz, undo, walk, xlogx_sum

OBJECTIVES = ("min-r1", "min-sum", "weighted")


class PerLetterDistortion(Record):
    """Single-letter distortion between a source alphabet and a reproduction
    alphabet.  kind: hamming (0/1 on symbol names), absdiff (|int - int| on
    decimal names), or table (explicit dict keyed by symbol-name pairs)."""

    __slots__ = ("kind", "table", "reproduction")
    _defaults = {"kind": "hamming", "table": None, "reproduction": None}

    def rep_alphabet(self, source: Alphabet) -> Alphabet:
        return self.reproduction if self.reproduction is not None else source

    def letter_cost(self, source: Alphabet, rep: Alphabet) -> List[List[float]]:
        """cost[i][j] = d(source symbol i, reproduction symbol j)."""
        if self.kind == "hamming":
            return [[0.0 if si == rj else 1.0 for rj in rep.symbols]
                    for si in source.symbols]
        if self.kind == "absdiff":
            try:
                src = [int(s) for s in source.symbols]
                rpv = [int(s) for s in rep.symbols]
            except ValueError as exc:
                raise ValueError("absdiff needs integer symbol names") from exc
            return [[float(abs(a - b)) for b in rpv] for a in src]
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table distortion without a table")
            return [[float(self.table[(si, rj)]) for rj in rep.symbols]
                    for si in source.symbols]
        raise ValueError(f"unknown distortion kind: {self.kind}")


class DistortionSpec(Record):
    """Distortion measures and levels for the two decoders."""

    __slots__ = ("d1", "d2", "level1", "level2")


def hamming_spec(level1: float, level2: float) -> DistortionSpec:
    d = PerLetterDistortion("hamming")
    return DistortionSpec(d1=d, d2=d, level1=level1, level2=level2)


def _added(terms: Iterable[float]) -> float:
    """The terms added left to right.  Every distortion total here is added
    by it: sum() of floats is compensated from Python 3.12 on, so its last
    bits, and with them a ball's edge, would depend on the interpreter."""
    s = 0.0
    for v in terms:
        s += v
    return s


def distortion(x: Sequence, y: Sequence, d: PerLetterDistortion) -> float:
    if x.n != y.n:
        raise ValueError("length mismatch")
    cost = d.letter_cost(x.alphabet, y.alphabet)
    return _added(cost[a][b] for a, b in zip(x.data, y.data))


class SrEncoded(Record):
    __slots__ = ("stage1", "stage2", "n", "r1", "r2")

    def to_bytes(self) -> bytes:
        return pack_segments(MODE_SR, self.n, [
            Segment(ROLE_STAGE1, self.stage1.payload_bits or 0, self.stage1.to_bytes()),
            Segment(ROLE_STAGE2, self.stage2.payload_bits or 0, self.stage2.to_bytes()),
        ])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SrEncoded":
        _, n, segments = unpack_segments(raw, expect_mode=MODE_SR)
        seg1 = find_segment(segments, ROLE_STAGE1)
        seg2 = find_segment(segments, ROLE_STAGE2)
        if seg1 is None or seg2 is None:
            raise StreamFormatError(
                "refinement container missing a stage segment: segment roles read "
                f"{[seg.role for seg in segments]}, expected {ROLE_STAGE1} and {ROLE_STAGE2}")
        s1 = Bitstream.from_bytes(seg1.data)
        s2 = Bitstream.from_bytes(seg2.data)
        s1.payload_bits = seg1.bit_length
        s2.payload_bits = seg2.bit_length
        if s1.mode != MODE_LZ or s2.mode != MODE_COND:
            raise StreamFormatError(
                f"stage segments have wrong modes: mode fields read {s1.mode} (stage 1) and "
                f"{s2.mode} (stage 2), expected {MODE_LZ} and {MODE_COND}")
        return cls(stage1=s1, stage2=s2, n=n,
                   r1=seg1.bit_length / n if n else 0.0,
                   r2=seg2.bit_length / n if n else 0.0)


def sr_encode(x: Sequence, xhat: Sequence, xtilde: Sequence) -> SrEncoded:
    n = x.n
    if xhat.n != n or xtilde.n != n:
        raise ValueError("reproductions must match the source length")
    s1 = lz_encode(xhat)
    s2 = cond_encode(xtilde, xhat)
    return SrEncoded(stage1=s1, stage2=s2, n=n,
                     r1=s1.payload_bits / n if n else 0.0,
                     r2=s2.payload_bits / n if n else 0.0)


def sr_decode_stage1(enc: Union[SrEncoded, bytes]) -> Sequence:
    if isinstance(enc, (bytes, bytearray)):
        enc = SrEncoded.from_bytes(bytes(enc))
    return lz_decode(enc.stage1)


def sr_decode_full(enc: Union[SrEncoded, bytes]) -> Tuple[Sequence, Sequence]:
    """Returns (coarse, fine); the fine stream is only decodable after the
    coarse one, which is its side information."""
    if isinstance(enc, (bytes, bytearray)):
        enc = SrEncoded.from_bytes(bytes(enc))
    xhat = lz_decode(enc.stage1)
    xtilde = cond_decode(enc.stage2, xhat)
    return xhat, xtilde


def _side(x: Sequence, d: PerLetterDistortion, level: float) -> Tuple[Alphabet, List[List[float]], float]:
    """One side's ball: its reproduction alphabet, cost[a][j] = d(source
    letter a, reproduction letter j), and the budget level * n + 1e-9 that a
    reproduction's total distortion may reach."""
    rep = d.rep_alphabet(x.alphabet)
    return rep, d.letter_cost(x.alphabet, rep), level * x.n + 1e-9


def nearest_feasible(x: Sequence, d: PerLetterDistortion, level: float) -> Sequence:
    """Per-letter cheapest reproduction; errors when even that misses the level."""
    rep, cost, budget = _side(x, d, level)
    choice = [min(range(rep.size), key=row.__getitem__) for row in cost]  # first cheapest
    total = _added(cost[a][choice[a]] for a in x.data)
    if total > budget:
        raise InfeasibleError(
            f"distortion level {level} unreachable (best average {total / max(1, x.n):.4f})")
    return Sequence(rep, [choice[a] for a in x.data])


def _ball(x: Sequence, d: PerLetterDistortion, level: float) -> List[Sequence]:
    """All reproductions within the level."""
    rep, cost, budget = _side(x, d, level)
    out: List[Sequence] = []
    n = x.n
    data = x.data
    stack: List[Tuple[int, float, Tuple[int, ...]]] = [(0, 0.0, ())]
    # depth-first with the trivial suffix bound (remaining letters cost >= 0)
    while stack:
        i, acc, prefix = stack.pop()
        if i == n:
            out.append(Sequence(rep, prefix))
            continue
        row = cost[data[i]]
        for j in range(rep.size - 1, -1, -1):
            nacc = acc + row[j]
            if nacc <= budget:
                stack.append((i + 1, nacc, prefix + (j,)))
    return out


def candidate_pairs(x: Sequence, dist: DistortionSpec, search) -> Tuple[List[Tuple[Sequence, Sequence]], dict]:
    """Admissible (coarse, fine) pairs: exhaustive over the two balls when
    small, otherwise greedy descents from the nearest pair and random restarts."""
    mode = search.mode
    meta: dict = {"search_mode": mode, "seed": search.seed}
    if mode not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown search mode: {mode}")
    rep1 = dist.d1.rep_alphabet(x.alphabet)
    rep2 = dist.d2.rep_alphabet(x.alphabet)
    total = (rep1.size * rep2.size) ** x.n
    if mode in ("auto", "exhaustive") and total <= search.exhaustive_limit:
        # total bounds |R1|^n and |R2|^n, so each ball fits the limit too
        ball1 = _ball(x, dist.d1, dist.level1)
        ball2 = _ball(x, dist.d2, dist.level2)
        if not ball1 or not ball2:
            raise InfeasibleError("a distortion ball is empty")
        pairs = [(h, t) for h in ball1 for t in ball2]
        meta.update({"search_mode": "exhaustive", "ball1": len(ball1),
                     "ball2": len(ball2), "pairs": len(pairs)})
        return pairs, meta
    if mode == "exhaustive":
        raise BudgetExceededError(
            f"{total} candidate pairs exceed the exhaustive limit")
    pairs = _greedy_pairs(x, dist, search)
    meta.update({"search_mode": "greedy", "pairs": len(pairs),
                 "evaluations": search.evaluations, "restarts": search.restarts})
    return pairs, meta


def _greedy_pairs(x: Sequence, dist: DistortionSpec, search) -> List[Tuple[Sequence, Sequence]]:
    """Single-letter flip descent from the nearest reproductions and from
    `search.restarts` random ones, within `search.evaluations` candidates.

    A sweep tries, at each position, every other letter of the coarse (side
    0) and then the fine (side 1) sequence that keeps it inside its ball, and
    keeps a flip that lowers rho_lz(hat) + rho_cond(til | hat).  A candidate
    (position, side, letter) last scored when as many flips had been accepted
    as now is not scored again: with no flip kept since, h, t and the best
    score are as they were when it was rejected, so it would be rejected
    again.  It still counts as an evaluation, so the budget, and with it every
    pair returned, is as if it were scored."""
    rng = random.Random(search.seed)
    reps, costs, budgets = zip(_side(x, dist.d1, dist.level1), _side(x, dist.d2, dist.level2))
    sizes = [rep.size for rep in reps]
    found: Dict[Tuple[tuple, tuple], Tuple[Sequence, Sequence]] = {}
    evals = 0

    def improve(hat: Sequence, til: Sequence) -> Tuple[Sequence, Sequence]:
        nonlocal evals
        seqs = [list(hat.data), list(til.data)]
        spent = [_added(c[a][b] for a, b in zip(x.data, seq)) for c, seq in zip(costs, seqs)]
        scorer = _FlipScorer(*seqs, *sizes)
        best = scorer.rebuild()
        # the accepted-flip count at which each (i, j) flip was last scored
        memos = [[-1] * (x.n * size) for size in sizes]
        accepted = 0
        improved = True
        while improved and evals < search.evaluations:
            improved = False
            for i in range(x.n):
                if evals >= search.evaluations:
                    break
                a = x.data[i]
                for side in (0, 1):
                    seq, row, size, memo = seqs[side], costs[side][a], sizes[side], memos[side]
                    old, total, budget = seq[i], spent[side], budgets[side]
                    for j in range(size):
                        if j == old:
                            continue
                        nd = total - row[old] + row[j]
                        if nd > budget:
                            continue
                        evals += 1
                        slot = i * size + j
                        if memo[slot] == accepted:  # rejected against this pair
                            continue
                        memo[slot] = accepted
                        seq[i] = j
                        cand = scorer.score(i, side == 0)
                        if cand < best - 1e-15:
                            best = cand
                            scorer.rebuild()
                            accepted += 1
                            spent[side] = total = nd
                            old = j
                            improved = True
                        else:
                            seq[i] = old
        return Sequence(reps[0], seqs[0]), Sequence(reps[1], seqs[1])

    def descend(hat: Sequence, til: Sequence) -> None:
        for h, t in ((hat, til), improve(hat, til)):
            found.setdefault((h.data, t.data), (h, t))

    descend(nearest_feasible(x, dist.d1, dist.level1), nearest_feasible(x, dist.d2, dist.level2))
    for _ in range(max(0, search.restarts)):
        descend(_random_feasible(x, dist.d1, dist.level1, rng),
                _random_feasible(x, dist.d2, dist.level2, rng))
        if evals >= search.evaluations:
            break
    return list(found.values())


# Most slots a flat trie table may take; a scorer trie of n letters below
# `width` has at most n + 1 nodes, so it takes (n + 1) * width slots flat and
# is a dict when that is more.  search-regions (n = 512, 4 x 4 letters) needs
# 8,208 joint slots; a 26-letter file of 4,096 symbols needs 106,522 for the
# plain trie and 2,769,572 for the joint one.
FLAT_SLOTS = 1 << 18


class _FlipScorer:
    """rho_lz(h) + rho_cond(t | h) of the index lists h and t, which the
    caller changes in place one position at a time.

    It is one resumable `lz_core.walk` over the plain trie of h and one over
    the joint trie of the letters hb[i] = h[i]*B + t[i], A and B the sizes of
    the two reproduction alphabets, with `cond_lz.primary_step` counting the
    joint phrases per primary phrase (`c_l`, in first-marking order) through
    the primary trie `pt`, whose nodes are distinct strings of total length
    at most n too.  A trie is a flat list when the slots of its most nodes
    fit FLAT_SLOTS, else a dict; `lslots`, `jslots` and `pslots` log their
    inserts, so `lz_core.undo` removes them.
    Invariant: the prefix state (the tries, their slot logs, `pnode`, `c_l`
    and the walker `state`) is the walk of positions < `pos` of the
    sequences as at the last `rebuild`.  `score(i, coarse)` walks that state
    forward to i (from 0 when i < pos: a new sweep), then walks i..n-1 on the
    same tries, plain and joint for a coarse flip (h changed), joint alone
    for a fine flip, counting on a copy of `c_l`, and undoes its inserts, so
    the prefix state is as it was.  `rebuild` is that suffix walk at `pos`
    keeping the plain phrase count, which fine flips reuse.
    Protocol: when `score(i, ...)` is called, every position except i is as it
    was at the last `rebuild` (`score` patches the joint letter hb[i] and puts
    it back); call `rebuild` after a change is kept, at the position scored
    last, so the prefix before it is unchanged and survives the rebuild.
    Scores are bit-identical to rho_lz(hat) + joint_parse(hat, til).rho_cond:
    xlogx_sum adds c_l*log2(c_l), from a table, in first-marking order.
    """

    def __init__(self, h: List[int], t: List[int], A: int, B: int) -> None:
        self.h, self.t, self.A, self.B = h, t, A, B
        n = len(h)
        # c*log2(c) for every count a parse of n symbols can reach
        self.xlogx = [0.0] + [c * math.log2(c) for c in range(1, n + 1)]
        self.hb = [a * B + b for a, b in zip(h, t)]

        def table(width: int):  # room for the root and a node per letter
            slots = (n + 1) * width
            return [0] * slots if slots <= FLAT_SLOTS else {}

        self.lz, self.pt, self.jt = table(A), table(A), table(A * B)
        self.lslots, self.jslots, self.pslots = [], [], []  # slot logs
        self.pnode, self.c_l = [0], []
        self.pos, self.state, self.c_h = 0, (0, 0), 0

    def _restart(self) -> None:
        undo(self.lz, self.lslots, 0)
        undo(self.jt, self.jslots, 0)
        undo(self.pt, self.pslots, 0)
        del self.pnode[1:], self.c_l[:]
        self.pos, self.state = 0, (0, 0)

    def rebuild(self) -> float:
        i = self.pos
        if i < len(self.h):
            self.hb[i] = self.h[i] * self.B + self.t[i]
        total, self.c_h = self._suffix(True)
        return total

    def score(self, i: int, coarse: bool) -> float:
        if i < self.pos:
            self._restart()
        if i > self.pos:
            self._advance(i)
        hb = self.hb
        old, hb[i] = hb[i], self.h[i] * self.B + self.t[i]
        total = self._suffix(coarse)[0]
        hb[i] = old
        return total

    def _advance(self, stop: int) -> None:
        """Walk the prefix state forward over pos..stop-1."""
        start, (lnode, node), mark = self.pos, self.state, len(self.jslots)
        A, B = self.A, self.B
        lnode = walk(self.lz, self.lslots, self.h[start:stop], lnode, A)
        node = walk(self.jt, self.jslots, self.hb[start:stop], node, A * B)
        primary_step(self.jslots[mark:], A, B, self.pnode, self.pt, self.pslots, self.c_l)
        self.pos, self.state = stop, (lnode, node)

    def _suffix(self, plain: bool) -> Tuple[float, int]:
        """The score and the plain phrase count of the walk of pos..n-1 from
        the prefix state, which it leaves as it was; with `plain` false, h is
        as at the last rebuild and so is its phrase count."""
        n = len(self.h)
        if not n:
            return 0.0, 0
        start, (lnode, node), A, B = self.pos, self.state, self.A, self.B
        mark, pmark, pnode = len(self.jslots), len(self.pslots), self.pnode
        node = walk(self.jt, self.jslots, self.hb[start:], node, A * B)
        c_h = self.c_h
        if plain:
            keep = len(self.lslots)
            lnode = walk(self.lz, self.lslots, self.h[start:], lnode, A)
            c_h = len(self.lslots) + (lnode != 0)
            undo(self.lz, self.lslots, keep)
        c_l = self.c_l.copy()
        primary_step(self.jslots[mark:], A, B, pnode, self.pt, self.pslots, c_l)
        if node:  # the unfinished joint phrase
            c_l[pnode[node // (A * B)] - 1] += 1
        undo(self.jt, self.jslots, mark)
        undo(self.pt, self.pslots, pmark)
        del pnode[mark + 1:]
        return self.xlogx[c_h] / n + xlogx_sum(c_l, self.xlogx) / n, c_h


def _random_feasible(x: Sequence, d: PerLetterDistortion, level: float,
                     rng: random.Random) -> Sequence:
    """Random reproduction inside the ball: per position, pick uniformly among
    letters that keep the remaining budget nonnegative (cheapest letters cost 0
    of budget beyond the floor)."""
    rep, cost, _ = _side(x, d, level)
    floor_cost = [min(row) for row in cost]
    slack = level * x.n - _added(floor_cost[a] for a in x.data)
    if slack < -1e-9:
        raise InfeasibleError(f"distortion level {level} unreachable")
    out = []
    for a in x.data:
        row = cost[a]
        options = [j for j in range(rep.size) if row[j] - floor_cost[a] <= slack + 1e-9]
        j = options[rng.randrange(len(options))]
        slack -= row[j] - floor_cost[a]
        out.append(j)
    return Sequence(rep, out)


def select_reproductions(x: Sequence, dist: DistortionSpec,
                         objective: str = "weighted",
                         search=None) -> Tuple[Sequence, Sequence, dict]:
    """Pick an admissible (coarse, fine) pair minimizing the rate objective.

    Objectives score a pair by its measured complexities: min-r1 uses
    rho_lz(coarse), min-sum adds rho_cond(fine|coarse), weighted interpolates.
    Ties break lexicographically on the symbol indices, so results are stable.
    """
    from .regions import SearchBudget  # shared knobs; no cycle at import time

    search = search or SearchBudget()
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective: {objective}")
    # a pair scores r1 + w * rc; the rates are finite, so w = 0 and 1 give r1 and r1 + rc
    w = {"min-r1": 0.0, "min-sum": 1.0}.get(objective, search.weight)
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    pairs, meta = candidate_pairs(x, dist, search)
    # the index, last, keeps the first of two pairs with equal keys
    best = min(((rho_lz(h) + w * rho_cond(t, h), h.data, t.data, k)
                for k, (h, t) in enumerate(pairs)), default=None)
    if best is None:
        raise InfeasibleError("no admissible reproduction pair")
    diag = dict(meta)
    diag.update({"objective": objective, "weight": search.weight,
                 "objective_value": best[0]})
    return (*pairs[best[3]], diag)
