"""Closed-form leading-term bounds on the protocol's communication cost.

All logarithms here are base 2, matching the bit-counting context.  Every
value is a leading term: lower-order corrections are deliberately dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundReport",
    "baseline_bound_coefficient",
    "bound_report",
    "expected_code_bits_bound",
    "expected_delimiter_bits_bound",
    "module_bit_bounds",
    "module_coefficients",
    "redundancy_coefficient",
]


def redundancy_coefficient(s: float, w: int, a: float, c: float) -> float:
    """Leading multiplier of n*beta*log2(1/beta) for the improved protocol.

    The paper's r charges Modules I and III twice: r = c_II + 2*(c_I + c_III).
    """
    c1, c2, c3 = module_coefficients(s, w, a, c)
    return c2 + 2.0 * (c1 + c3)


def baseline_bound_coefficient(c: float) -> float:
    """Leading multiplier for the baseline single-deletion protocol."""
    if not 0 < c < math.inf:
        raise ValueError("require finite c > 0")
    return 8.0 * (4.0 * c + 1.0) + 5.0


def module_coefficients(s: float, w: int, a: float, c: float) -> tuple[float, float, float]:
    """Per-module leading coefficients of n*beta*log2(1/beta)."""
    if not (0 < s < math.inf and w >= 1 and 1 <= a < math.inf and 0 < c < math.inf):
        raise ValueError("require finite s > 0, a >= 1 and c > 0, and w >= 1")
    pow_w = 2.0**w
    return (
        2.0 / s,
        2.0 * (s + 1.0) / s * (pow_w * c / (pow_w - 1.0) + a),
        2.0,
    )


def _base(n: int, beta: float) -> float:
    """n * beta * log2(1/beta), for a session of n >= 1 bits at a rate beta in (0, 0.5]."""
    if not (n >= 1 and 0.0 < beta <= 0.5):
        raise ValueError("require n >= 1 and beta in (0, 0.5]")
    return n * beta * math.log2(1.0 / beta)


def module_bit_bounds(
    n: int, beta: float, s: float, w: int, a: float, c: float
) -> tuple[float, float, float]:
    """Leading-term expected-bit bounds for Modules I, II, III."""
    base = _base(n, beta)
    c1, c2, c3 = module_coefficients(s, w, a, c)
    return c1 * base, c2 * base, c3 * base


def expected_delimiter_bits_bound(t: int, w: int, l: float) -> float:
    """Mean delimiter bits to split a t-deletion section; zero within capability."""
    if t < 0 or w < 1 or not l > 0:
        raise ValueError("require t >= 0, w >= 1 and l > 0")
    if t <= w:
        return 0.0
    pow_w = 2.0**w
    return pow_w / (pow_w - 1.0) * (t - 1) * l


def expected_code_bits_bound(t: int, a: float, n_s: int) -> float:
    """Mean syndrome bits to correct t deletions in a length-n_s section."""
    if t < 0 or n_s < 2:
        raise ValueError("require t >= 0 and n_s >= 2")
    return a * t * math.log2(n_s)


@dataclass(frozen=True)
class BoundReport:
    r: float
    improved_bits: float
    baseline_bits: float
    N_I_bound: float
    N_II_bound: float
    N_III_bound: float


def bound_report(n: int, beta: float, s: float, w: int, a: float, c: float) -> BoundReport:
    base = _base(n, beta)
    r = redundancy_coefficient(s, w, a, c)
    n1, n2, n3 = module_bit_bounds(n, beta, s, w, a, c)
    return BoundReport(
        r=r,
        improved_bits=r * base,
        baseline_bits=baseline_bound_coefficient(c) * base,
        N_I_bound=n1,
        N_II_bound=n2,
        N_III_bound=n3,
    )
