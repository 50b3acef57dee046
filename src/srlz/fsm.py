"""Two-stage finite-state encoders: simulation, losslessness certification,
the generalized Kraft check, and the converse bound harness.

An encoder has a first stage (f1, g1) reading the coarse reproduction and a
second stage (f2, g2) reading both reproductions, each a finite-state machine
with at most q states emitting binary strings (possibly empty).  It is
information lossless when, for every length k, the start state, the emitted
output, and the final state determine the stage-1 input (and, jointly with
the stage-2 data, the input pair).  One collision walk, the synchronized pair
walk of the testing graph (Huffman 1959; Even 1965), certifies this to a depth
k_max, stage 1 as one row whose columns are the primary symbols; once stage 1
has passed, equal stage-1 bits and state imply equal primary symbols, so stage
2 is the walk of f2/g2 with the primary symbol as the row.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence as Seq, Tuple

from . import bounds
from .cond_lz import rho_cond
from .container import BudgetExceededError, Record
from .lz_core import BINARY, Alphabet, Sequence, parse


def _is_bits(out) -> bool:
    """True for a string of 0s and 1s, empty included (no trailing newline)."""
    return isinstance(out, str) and not out.strip("01")


class FsmEncoder(Record):
    """A validated two-stage encoder; compared by identity."""

    __slots__ = ("primary_alphabet", "secondary_alphabet", "states_s", "states_z",
                 "f1", "g1", "f2", "g2", "s1", "z1", "q")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, primary_alphabet: Alphabet, secondary_alphabet: Alphabet,
                 states_s: Tuple[str, ...], states_z: Tuple[str, ...],
                 f1: Dict[Tuple[int, int], str], g1: Dict[Tuple[int, int], int],
                 f2: Dict[Tuple[int, int, int], str], g2: Dict[Tuple[int, int, int], int],
                 s1: int = 0, z1: int = 0, q: int = 0) -> None:
        self.primary_alphabet = primary_alphabet
        self.secondary_alphabet = secondary_alphabet
        self.states_s = states_s
        self.states_z = states_z
        self.f1 = f1  # (state, primary symbol) -> bits
        self.g1 = g1  # (state, primary symbol) -> next state
        self.f2 = f2  # (state, primary, secondary) -> bits
        self.g2 = g2
        self.s1 = s1
        self.z1 = z1
        self.q = q  # state budget; defaults to max(|S|, |Z|)
        ns, nz = len(self.states_s), len(self.states_z)
        if ns == 0 or nz == 0:
            raise ValueError("state sets must be nonempty")
        if len(set(self.states_s)) != ns or len(set(self.states_z)) != nz:
            raise ValueError("duplicate state names")
        if self.q == 0:
            self.q = max(ns, nz)
        if ns > self.q or nz > self.q:
            raise ValueError(f"state budget {self.q} exceeded ({ns}, {nz})")
        if not (0 <= self.s1 < ns and 0 <= self.z1 < nz):
            raise ValueError("initial state out of range")
        beta = self.primary_alphabet.size
        gamma = self.secondary_alphabet.size
        for s in range(ns):
            for a in range(beta):
                if (s, a) not in self.f1 or (s, a) not in self.g1:
                    raise ValueError(f"f1/g1 not total at state {self.states_s[s]}")
                if not _is_bits(self.f1[(s, a)]):
                    raise ValueError("f1 outputs must be binary strings")
                if not 0 <= self.g1[(s, a)] < ns:
                    raise ValueError("g1 target out of range")
        for z in range(nz):
            for a in range(beta):
                for b in range(gamma):
                    if (z, a, b) not in self.f2 or (z, a, b) not in self.g2:
                        raise ValueError(f"f2/g2 not total at state {self.states_z[z]}")
                    if not _is_bits(self.f2[(z, a, b)]):
                        raise ValueError("f2 outputs must be binary strings")
                    if not 0 <= self.g2[(z, a, b)] < nz:
                        raise ValueError("g2 target out of range")

    @property
    def beta(self) -> int:
        return self.primary_alphabet.size

    @property
    def gamma(self) -> int:
        return self.secondary_alphabet.size


class EncodingTrace(Record):
    __slots__ = ("outputs_u", "outputs_v", "states_s", "states_z", "bits_u", "bits_v",
                 "rho1", "rho12")

def run(encoder: FsmEncoder, primary: Sequence, secondary: Sequence) -> EncodingTrace:
    if primary.n != secondary.n:
        raise ValueError("primary and secondary lengths differ")
    if primary.alphabet != encoder.primary_alphabet:
        raise ValueError("primary alphabet mismatch")
    if secondary.alphabet != encoder.secondary_alphabet:
        raise ValueError("secondary alphabet mismatch")
    n = primary.n
    if n == 0:
        raise ValueError("empty input")
    f1, g1, f2, g2 = encoder.f1, encoder.g1, encoder.f2, encoder.g2
    s, z = encoder.s1, encoder.z1
    us: List[str] = []
    vs: List[str] = []
    ss = [s]
    zs = [z]
    lu = lv = 0
    for a, b in zip(primary.data, secondary.data):
        out = f1[(s, a)]
        us.append(out)
        lu += len(out)
        s = g1[(s, a)]
        ss.append(s)
        out = f2[(z, a, b)]
        vs.append(out)
        lv += len(out)
        z = g2[(z, a, b)]
        zs.append(z)
    return EncodingTrace(
        outputs_u=tuple(us),
        outputs_v=tuple(vs),
        states_s=tuple(ss),
        states_z=tuple(zs),
        bits_u=lu,
        bits_v=lv,
        rho1=lu / n,
        rho12=(lu + lv) / n,
    )


class LosslessnessReport(Record):
    __slots__ = ("passed", "depth_certified", "from_all_states", "counterexample")
    _defaults = {"counterexample": None}

def is_information_lossless(encoder: FsmEncoder, k_max: int = 8,
                            from_all_states: bool = True) -> LosslessnessReport:
    """Certificate up to depth k_max by the collision walk, stage 1 first.

    Stage 1: for each start state and each k <= k_max, the pair (emitted bits,
    final state) must determine the k primary symbols.  Stage 2: jointly, the
    quadruple (stage-1 bits, stage-1 final state, stage-2 bits, stage-2 final
    state) must determine the symbol pair sequence.  After stage 1, a stage-2
    collision shares its primary symbols: it is a collision of f2/g2 with the
    primary symbol as the row, and it is reported from the first stage-1 start.
    """
    beta, gamma = encoder.beta, encoder.gamma
    ns, nz = len(encoder.states_s), len(encoder.states_z)
    f1, g1, f2, g2 = encoder.f1, encoder.g1, encoder.f2, encoder.g2
    starts_s = range(ns) if from_all_states else [encoder.s1]
    starts_z = range(nz) if from_all_states else [encoder.z1]
    stage1 = ([[[f1[(s, a)] for a in range(beta)]] for s in range(ns)],
              [[[g1[(s, a)] for a in range(beta)]] for s in range(ns)])
    stage2 = ([[[f2[(z, a, b)] for b in range(gamma)] for a in range(beta)] for z in range(nz)],
              [[[g2[(z, a, b)] for b in range(gamma)] for a in range(beta)] for z in range(nz)])
    for stage, (outs, nexts), starts in ((1, stage1, starts_s), (2, stage2, starts_z)):
        for start in starts:
            found = _collision(outs, nexts, start, k_max)
            if found is not None:
                s0, z0 = (start, 0) if stage == 1 else (starts_s[0], start)
                return LosslessnessReport(False, found[0] - 1, from_all_states,
                                          _counterexample(encoder, stage, s0, z0, *found))
    return LosslessnessReport(True, k_max, from_all_states)


def _collision(outs: Seq, nexts: Seq, start: int, k_max: int) -> Optional[tuple]:
    """The shallowest collision from `start` within k_max steps, as (k, input a,
    input b) with inputs as tuples of (row, column), or None.

    outs[s][r][c] and nexts[s][r][c] are the bits and the next state of state
    s on input (r, c).  Two inputs that read the same row at every step are
    walked level by level over (state a, state b, bits a has emitted beyond b,
    diverged), the side ahead named a.  A lag that the remaining steps cannot
    close is dropped, and a node reached before is not walked again.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    lens = [len(o) for state in outs for row in state for o in row]
    close = max(lens) - min(lens)  # the most a lag can shrink in one step
    root = (start, start, "", False)
    inputs = {root: ((), ())}  # node -> (input a, input b) that first reached it
    level = [root]
    for k in range(1, k_max + 1):
        room = close * (k_max - k)
        nxt = []
        for node in level:
            sa, sb, lag, div = node
            ins_a, ins_b = inputs[node]
            for r, (out_a, out_b) in enumerate(zip(outs[sa], outs[sb])):
                next_a, next_b = nexts[sa][r], nexts[sb][r]
                for ca, oa in enumerate(out_a):
                    ahead = lag + oa
                    for cb, ob in enumerate(out_b):
                        if ahead.startswith(ob):
                            child = (next_a[ca], next_b[cb], ahead[len(ob):], div or ca != cb)
                            pair = ins_a + ((r, ca),), ins_b + ((r, cb),)
                        elif ob.startswith(ahead):  # b overtakes a and is named a
                            child = (next_b[cb], next_a[ca], ob[len(ahead):], div or ca != cb)
                            pair = ins_b + ((r, cb),), ins_a + ((r, ca),)
                        else:
                            continue
                        if len(child[2]) > room or child in inputs:
                            continue
                        inputs[child] = pair
                        if child[3] and not child[2] and child[0] == child[1]:
                            return (k,) + pair
                        nxt.append(child)
        level = nxt
    return None


def _counterexample(encoder: FsmEncoder, stage: int, s0: int, z0: int, k: int,
                    *inputs: Tuple[Tuple[int, int], ...]) -> dict:
    """The colliding inputs in lexicographic order, and what the first emits."""
    pa, sa = encoder.primary_alphabet.symbols, encoder.secondary_alphabet.symbols
    # stage 1 reads the primary symbol a as the column, stage 2 reads (a, b)
    words = sorted([(c, 0) if stage == 1 else (r, c) for r, c in x] for x in inputs)
    s, z, u, v = s0, z0, "", ""
    for a, b in words[0]:
        u, s = u + encoder.f1[(s, a)], encoder.g1[(s, a)]
        v, z = v + encoder.f2[(z, a, b)], encoder.g2[(z, a, b)]
    if stage == 1:
        return {"stage": 1, "k": k, "start_state": encoder.states_s[s0],
                "inputs": [[pa[a] for a, _ in pairs] for pairs in words],
                "output": u, "final_state": encoder.states_s[s]}
    return {"stage": 2, "k": k, "start_states": [encoder.states_s[s0], encoder.states_z[z0]],
            "inputs": [[(pa[a], sa[b]) for a, b in pairs] for pairs in words],
            "outputs": [u, v]}


KraftTable = Tuple[Tuple[Tuple[int, int], ...], ...]


def kraft_tables(encoder: FsmEncoder) -> Tuple[KraftTable, KraftTable]:
    """Everything the Kraft sum reads from an encoder: per stage, per state,
    the (output length, next state) of every input, indexed by the primary
    symbol a in stage 1 and by the pair index a*gamma + b in stage 2."""
    beta, gamma = encoder.beta, encoder.gamma
    f1, g1, f2, g2 = encoder.f1, encoder.g1, encoder.f2, encoder.g2
    t1 = tuple(tuple((len(f1[(s, a)]), g1[(s, a)]) for a in range(beta))
               for s in range(len(encoder.states_s)))
    t2 = tuple(tuple((len(f2[(z, a, b)]), g2[(z, a, b)])
                     for a in range(beta) for b in range(gamma))
               for z in range(len(encoder.states_z)))
    return t1, t2


def _min_walk_len(table: KraftTable, word: Seq[int]) -> int:
    """Least total output length of the walk over word from any start state."""
    best = None
    for s in range(len(table)):
        total = 0
        for x in word:
            step, s = table[s][x]
            total += step
        if best is None or total < best:
            best = total
    return best


def kraft_check(encoder: FsmEncoder, block_len: int, q: Optional[int] = None,
                pair_budget: int = 10 ** 7, tol: float = 1e-12) -> dict:
    """Generalized Kraft sum over all pairs of length-l blocks.

    lhs = sum over (xhat^l, xtilde^l) of 2^-(min_s L1 + min_z L2); the budget
    side uses the combined-machine state count: with q states per stage the
    two-stage encoder has q^2 states, and the classical bound for it carries
    (q^2)^2 = q^4.
    """
    if block_len < 1:
        raise ValueError("block_len must be positive")
    beta, gamma = encoder.beta, encoder.gamma
    if (beta * gamma) ** block_len > pair_budget:
        raise BudgetExceededError("block enumeration exceeds budget")
    if q is None:
        q = encoder.q
    rhs = bounds.kraft_rhs(q, block_len, beta, gamma)  # rejects q < 1 before the sum
    t1, t2 = kraft_tables(encoder)
    lhs = 0.0
    min_len_seen = None
    for hat in iproduct(range(beta), repeat=block_len):
        l1 = _min_walk_len(t1, hat)
        # pair indices of (hat, til), til in lexicographic order: lhs adds up
        # in the same order as over strings, so it is bit-identical
        for pairs in iproduct(*[range(a * gamma, (a + 1) * gamma) for a in hat]):
            total = l1 + _min_walk_len(t2, pairs)
            lhs += 2.0 ** (-total)
            if min_len_seen is None or total < min_len_seen:
                min_len_seen = total
    return {
        "block_len": block_len,
        "beta": beta,
        "gamma": gamma,
        "q": q,
        "q4": q ** 4,
        "pairs": (beta * gamma) ** block_len,
        "lhs": lhs,
        "rhs": rhs,
        "min_total_len": min_len_seen,
        "holds": lhs <= rhs + tol,
    }


def converse_check(encoder: FsmEncoder, primary: Sequence, secondary: Sequence,
                   k_max: int = 6, eps_mode: str = "default",
                   tol: float = 1e-12) -> dict:
    """Measure the encoder on a pair and verify the three converse floors of
    bounds.converse_terms and bounds.converse_floors.

    (i)   rho1  >= rho_lz(primary) - delta1
    (ii)  rho12 >= rho_lz(primary) + rho_cond - delta2
    (iii) rho1  >= (c+q^2)/n * log2((c+q^2)/(4q^2)) + 2q^2/n

    Not applicable (reported, not raised) when the losslessness certificate
    fails: a lossy machine can beat the floors.
    """
    n = primary.n
    if n < 2:
        raise ValueError("converse check needs n >= 2")
    trace = run(encoder, primary, secondary)  # checks lengths and alphabets
    cert = is_information_lossless(encoder, k_max=k_max)
    q = encoder.q
    report: dict = {
        "n": n,
        "q": q,
        "beta": encoder.beta,
        "gamma": encoder.gamma,
        "k_max": k_max,
        "lossless": cert.passed,
        "depth_certified": cert.depth_certified,
        "applicable": cert.passed,
        "eps_mode": eps_mode,
    }
    if not cert.passed:
        report["counterexample"] = cert.counterexample
        return report
    pr = parse(primary)
    rho_c = rho_cond(secondary, primary)
    eps_n, d1, d2, d2_l = bounds.converse_terms(q, n, encoder.beta, encoder.gamma, eps_mode)
    floors = bounds.converse_floors(pr.rho_lz, rho_c, pr.c, n, q, d1, d2)
    checks = {name: {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - tol}
              for name, lhs, rhs in zip(("i", "ii", "iii"),
                                        (trace.rho1, trace.rho12, trace.rho1), floors)}
    cap = bounds.phrase_count_bound(n, encoder.beta, eps_n)
    report.update({
        "eps_n": eps_n,
        "rho1": trace.rho1,
        "rho12": trace.rho12,
        "rho_lz": pr.rho_lz,
        "rho_cond": rho_c,
        "phrase_count": pr.c,
        "delta1": d1,
        "delta2": d2,
        "delta2_block_len": d2_l,
        "phrase_count_cap": cap,
        "phrase_count_cap_ok": pr.c <= cap,
        "checks": checks,
        "all_hold": all(c["holds"] for c in checks.values()),
    })
    return report


# ---------------------------------------------------------------------------
# one-state binary family: enumeration and harnesses


def _out_strings(max_len: int) -> List[str]:
    outs = [""]
    for length in range(1, max_len + 1):
        outs += ["".join(bits) for bits in iproduct("01", repeat=length)]
    return outs


def lossless_onestate_binary_tables(max_out_len: int = 2, k_max: int = 8):
    """The stage tables of the one-state binary-in/binary-out encoders with
    per-step outputs of length <= max_out_len that pass the losslessness walk
    to depth k_max.  Every (f1, f2) pair of them is such an encoder.

    Returns (f1_tables, f2_tables): f1[a] and f2[a][b] are output strings.
    """
    codes = list(iproduct(_out_strings(max_out_len), repeat=2))
    f1_tables = [c for c in codes if _collision([[c]], [[(0, 0)]], 0, k_max) is None]
    # a row that collides alone collides in any table: rows are lossless codes
    f2_tables = [t for t in iproduct(f1_tables, repeat=2)
                 if _collision([t], [((0, 0), (0, 0))], 0, k_max) is None]
    return f1_tables, f2_tables


def onestate_binary_encoder(f1_table: Seq[str], f2_table: Seq[Seq[str]]) -> FsmEncoder:
    """The one-state binary encoder with stage tables f1_table and f2_table."""
    f1 = {(0, a): f1_table[a] for a in range(2)}
    f2 = {(0, a, b): f2_table[a][b] for a in range(2) for b in range(2)}
    return FsmEncoder(BINARY, BINARY, ("s0",), ("z0",),
                      f1, dict.fromkeys(f1, 0), f2, dict.fromkeys(f2, 0))


def enumerate_lossless_onestate_binary(max_out_len: int = 2, k_max: int = 8):
    """Every encoder of lossless_onestate_binary_tables, built.

    Returns (encoders, f1_tables, f2_tables); encoder i has the stage tables
    f1_tables[i // len(f2_tables)] and f2_tables[i % len(f2_tables)].
    """
    f1s, f2s = lossless_onestate_binary_tables(max_out_len, k_max)
    return [onestate_binary_encoder(c1, t2) for c1 in f1s for t2 in f2s], f1s, f2s
