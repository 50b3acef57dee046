"""Slack and penalty terms used by the converse bounds and the codecs.

All block/penalty terms take the vanishing sequence eps_n as an explicit
value; `eps_n_value` resolves the configured mode to a number.  The default
mode decays like O(loglog n / log n), stays below 1 for every n >= 2, and is
generous enough at small n that the phrase-count bound
c <= n*log2(beta) / ((1-eps_n)*log2(n)) holds for every input (the converse
terms silently assume it).  Mode "zero" exists for formula regression only.

`converse_terms` and `converse_floors` are the converse's one definition:
every region, check and report that states floors (i)-(iii) for a
q-state-per-stage encoder takes its penalties from the first and its
right-hand sides from the second.
"""

from __future__ import annotations

import math
from typing import List, Tuple

LOG2E = math.log2(math.e)

# Calibrated constant for the conditional-stream slack eps_hat(n) =
# EPS_HAT_K * log2(log2 n) / log2 n: the smallest power of two such that
# payload_bits <= n*rho_cond + n*eps_hat(n) across the fixed-seed calibration
# corpus; tests/test_bounds.py::test_calibration_reproduces_frozen_constant
# recomputes it.
EPS_HAT_K = 16

_EXP_GUARD = 1020  # beyond ~2**1020 the float terms overflow; report +inf


def eps_n_value(n: int, beta: int, mode: str = "default") -> float:
    """Resolve the eps_n mode (default, zero or custom:<value>) to a value in [0, 1)."""
    if n < 2:
        raise ValueError("eps_n needs n >= 2")
    if beta < 1:
        raise ValueError("alphabet size must be positive")
    if mode == "default":
        value = min(0.999, (math.log2(max(1.0, math.log2(beta * n))) + 4.0) / math.log2(n))
    elif mode == "zero":
        value = 0.0
    elif isinstance(mode, str) and mode.startswith("custom:"):
        value = float(mode.split(":", 1)[1])
    else:
        raise ValueError(f"unknown eps_n mode: {mode!r}")
    if not 0.0 <= value < 1.0:
        raise ValueError(f"eps_n must lie in [0, 1), got {value}")
    return value


def eps_slack(n: int, beta: int, eps_n: float = None) -> float:
    """Per-symbol redundancy of the plain stream beyond c*log2(c) bits."""
    if n < 2:
        raise ValueError("eps_slack needs n >= 2")
    if eps_n is None:
        eps_n = eps_n_value(n, beta)
    logb = math.log2(beta) if beta > 1 else 0.0
    log2b = math.log2(2 * beta)
    return (
        LOG2E / n
        + logb * log2b / ((1.0 - eps_n) * math.log2(n))
        + math.log2(2 * beta * (n + 1)) / n
    )


def eps_hat(n: int, k: int = EPS_HAT_K) -> float:
    """Per-symbol redundancy of the conditional stream beyond n*rho_cond bits."""
    if n < 2:
        raise ValueError("eps_hat needs n >= 2")
    return k * math.log2(max(1.0, math.log2(n))) / math.log2(n)


def delta1(q: int, n: int, beta: int, eps_n: float) -> float:
    """First-stage converse penalty for a q-state-per-stage encoder."""
    if n < 2:
        raise ValueError("delta1 needs n >= 2")
    if q < 1:
        raise ValueError("state budget must be positive")
    if not 0.0 <= eps_n < 1.0:
        raise ValueError("eps_n must lie in [0, 1)")
    logb = math.log2(beta) if beta > 1 else 0.0
    log4q2 = math.log2(4 * q * q)
    return log4q2 * logb / ((1.0 - eps_n) * math.log2(n)) + q * q * log4q2 / n


def delta_n(l: int, n: int, beta: int, eps_n: float) -> float:
    """Block-entropy slack: H_l(seq)/l >= rho_lz - delta_n(l)."""
    if n < 2:
        raise ValueError("delta_n needs n >= 2")
    if l < 1:
        raise ValueError("block length must be positive")
    if not 0.0 <= eps_n < 1.0:
        raise ValueError("eps_n must lie in [0, 1)")
    return _delta_core(l, n, beta, beta_pow_base=beta, eps_n=eps_n)


def delta_n_prime(l: int, n: int, beta: int, gamma: int, eps_n: float) -> float:
    """Joint variant of delta_n with (beta*gamma)^l in place of beta^l.

    The standalone log2(beta) factor is kept as-is; only powers of the form
    beta^l are substituted.
    """
    if gamma < 1:
        raise ValueError("alphabet size must be positive")
    return _delta_core(l, n, beta, beta_pow_base=beta * gamma, eps_n=eps_n)


def _delta_core(l: int, n: int, beta: int, beta_pow_base: int, eps_n: float) -> float:
    logb = math.log2(beta) if beta > 1 else 0.0
    exp = 2 * l * math.log2(beta_pow_base) if beta_pow_base > 1 else 0.0
    log_pow_term = 2.0 + exp  # log2(4 * base^(2l))
    first = log_pow_term * logb / ((1.0 - eps_n) * math.log2(n))
    if exp > _EXP_GUARD:
        return math.inf  # base^(2l) overflows any float budget
    second = (beta_pow_base ** (2 * l)) * log_pow_term / n
    return first + second + 1.0 / l


def divisors(n: int) -> List[int]:
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _log2_1p_ratio(big: int, denom: int) -> float:
    """log2(1 + big/denom) that survives arbitrarily large integer `big`."""
    if big.bit_length() - denom.bit_length() > 900:
        # the +1 is below float resolution there; math.log2 takes big ints
        return math.log2(big) - math.log2(denom)
    return math.log2(1.0 + big / denom)


def kraft_rhs(q: int, l: int, beta: int, gamma: int) -> float:
    """Combined-encoder Kraft budget: q^4 * (1 + log2(1 + beta^l*gamma^l / q^4))."""
    if q < 1 or l < 1 or beta < 1 or gamma < 1:
        raise ValueError("q, l, beta, gamma must be positive")
    q4 = q ** 4
    big = (beta * gamma) ** l
    return q4 * (1.0 + _log2_1p_ratio(big, q4))


def delta2(q: int, n: int, beta: int, gamma: int, eps_n: float) -> Tuple[float, int]:
    """Sum-rate converse penalty; minimized over block lengths dividing n.

    Returns (value, argmin block length).
    """
    if n < 2:
        raise ValueError("delta2 needs n >= 2")
    if q < 1:
        raise ValueError("state budget must be positive")
    best = math.inf
    best_l = 1
    for l in divisors(n):
        d = delta_n(l, n, beta, eps_n)
        dp = delta_n_prime(l, n, beta, gamma, eps_n)
        if math.isinf(d) or math.isinf(dp):
            continue
        val = d + dp + math.log2(kraft_rhs(q, l, beta, gamma)) / l
        if val < best:
            best = val
            best_l = l
    return best, best_l


def zl78_floor(c: int, n: int, q: int) -> float:
    """Single-stage finite-state floor in terms of the phrase count."""
    if n < 1 or c < 0 or q < 1:
        raise ValueError("need n >= 1, c >= 0, q >= 1")
    if c == 0:
        return 2.0 * q * q / n
    q2 = q * q
    return (c + q2) / n * math.log2((c + q2) / (4.0 * q2)) + 2.0 * q2 / n


def converse_terms(q: int, n: int, beta: int, gamma: int,
                   eps_mode: str = "default") -> Tuple[float, float, float, int]:
    """The converse penalties for a length-n pair over primary and secondary
    alphabets of sizes beta and gamma: (eps_n, delta1, delta2, delta2's block
    length).  eps_n is resolved for n and the primary alphabet, and both
    penalties share it."""
    eps_n = eps_n_value(n, beta, eps_mode)
    d1 = delta1(q, n, beta, eps_n)
    return (eps_n, d1) + delta2(q, n, beta, gamma, eps_n)


def converse_floors(rho_lz: float, rho_c: float, c: int, n: int, q: int,
                    d1: float, d2: float) -> Tuple[float, float, float]:
    """Right-hand sides of the converse floors on rho1, rho1 + rho2 and rho1:
    (i) rho_lz - delta1, (ii) rho_lz + rho_cond - delta2, and (iii) the
    phrase-count floor zl78_floor(c, n, q)."""
    return rho_lz - d1, rho_lz + rho_c - d2, zl78_floor(c, n, q)


def phrase_count_bound(n: int, beta: int, eps_n: float) -> float:
    """The phrase-count cap the converse terms assume: n*log2(beta)/((1-eps_n)*log2 n)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    logb = math.log2(beta) if beta > 1 else 1.0
    return n * logb / ((1.0 - eps_n) * math.log2(n))
