"""Pythagorean fuzzy numbers and their algebra.

A Pythagorean fuzzy number (PFN) is a pair of a membership degree ``m`` and
a non-membership degree ``n``, both in [0, 1], constrained by
``m**2 + n**2 <= 1``.  This module provides the value type, the operation
algebra (complement, lattice join/meet, the Pythagorean sum and product,
scalar multiples and powers), the score / accuracy / expectation-score
functions, and the comparison orders built from them.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NonPositiveScalar, NotPythagorean, OutOfRange, ParseError

#: Slack allowed on the validity constraint m**2 + n**2 <= 1.
VALIDITY_EPS = 1e-9

#: Grid step of the lexicographic orders' primary key, and the tolerance of
#: algebraic-law checks.
COMPARE_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class PFN:
    """An immutable (membership, non-membership) pair on the unit quarter disk.

    Raises:
        OutOfRange: if a component lies outside [0, 1].
        NotPythagorean: if m**2 + n**2 > 1 + VALIDITY_EPS.
    """

    m: float
    n: float

    def __post_init__(self):
        m, n = self.m, self.n
        if type(m) is not float:
            m = float(m)
            object.__setattr__(self, "m", m)
        if type(n) is not float:
            n = float(n)
            object.__setattr__(self, "n", n)
        if not (0.0 <= m <= 1.0 and 0.0 <= n <= 1.0):
            raise OutOfRange(f"degrees must lie in [0, 1], got ({m}, {n})")
        if m * m + n * n > 1.0 + VALIDITY_EPS:
            raise NotPythagorean(
                f"m**2 + n**2 = {m * m + n * n} exceeds 1 for ({m}, {n})"
            )


class OrderKind(Enum):
    """Which comparison order `compare` applies.

    LATTICE is the componentwise partial order (larger m, smaller n); the
    other three are total lexicographic orders.  Each value is the order's
    CLI and JSON token.
    """

    LATTICE = "lattice"
    SCORE_ACCURACY = "sfaf"
    MEMBERSHIP_THEN_ES = "m"
    ES_THEN_MEMBERSHIP = "es"


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = 2


def indeterminacy(x: PFN) -> float:
    """Residual hesitation sqrt(1 - m**2 - n**2), clamped at the boundary."""
    return math.sqrt(max(0.0, 1.0 - x.m * x.m - x.n * x.n))


def complement(x: PFN) -> PFN:
    """Swap membership and non-membership; an involution."""
    return PFN(x.n, x.m)


def join(a: PFN, b: PFN) -> PFN:
    """Lattice join: componentwise (max m, min n)."""
    return PFN(max(a.m, b.m), min(a.n, b.n))


def meet(a: PFN, b: PFN) -> PFN:
    """Lattice meet: componentwise (min m, max n)."""
    return PFN(min(a.m, b.m), max(a.n, b.n))


def _sum_of_squares(xa: float, xb: float) -> float:
    """xa + xb - xa*xb for xa, xb in [0, 1].

    The direct form keeps relative accuracy when both squares are tiny;
    the complement-product form cannot round above 1 near the boundary.
    """
    if xa + xb < 0.5:
        return xa + xb - xa * xb
    return 1.0 - (1.0 - xa) * (1.0 - xb)


def add_p(a: PFN, b: PFN) -> PFN:
    """Pythagorean sum: (sqrt(m_a**2 + m_b**2 - m_a**2 m_b**2), n_a n_b)."""
    return PFN(math.sqrt(_sum_of_squares(a.m * a.m, b.m * b.m)), a.n * b.n)


def mul_p(a: PFN, b: PFN) -> PFN:
    """Pythagorean product: (m_a m_b, sqrt(n_a**2 + n_b**2 - n_a**2 n_b**2))."""
    return PFN(a.m * b.m, math.sqrt(_sum_of_squares(a.n * a.n, b.n * b.n)))


def _one_minus_pow(s: float, alpha: float) -> float:
    """sqrt(1 - (1-s)**alpha) for s in [0, 1], computed without cancellation."""
    if s >= 1.0:
        return 1.0
    # expm1/log1p keep relative accuracy when s is tiny, so the exponent laws
    # hold to machine precision instead of drifting near the boundary.
    return math.sqrt(-math.expm1(alpha * math.log1p(-s)))


def scalar_mul(alpha: float, x: PFN) -> PFN:
    """alpha-multiple: (sqrt(1 - (1-m**2)**alpha), n**alpha), alpha > 0."""
    if alpha <= 0:
        raise NonPositiveScalar(f"scalar must be > 0, got {alpha}")
    return PFN(_one_minus_pow(min(x.m * x.m, 1.0), alpha), x.n**alpha)


def power(x: PFN, alpha: float) -> PFN:
    """alpha-th power: (m**alpha, sqrt(1 - (1-n**2)**alpha)), alpha > 0."""
    if alpha <= 0:
        raise NonPositiveScalar(f"exponent must be > 0, got {alpha}")
    return PFN(x.m**alpha, _one_minus_pow(min(x.n * x.n, 1.0), alpha))


def score(x: PFN) -> float:
    """Score m**2 - n**2, in [-1, 1]."""
    return x.m * x.m - x.n * x.n


def accuracy(x: PFN) -> float:
    """Accuracy m**2 + n**2, in [0, 1]; the tiebreaker for equal scores."""
    return x.m * x.m + x.n * x.n


def expectation_score(x: PFN) -> float:
    """Expectation score (m**2 - n**2 + 1) / 2, in [0, 1].

    Defined through `score` so that ES == (score + 1) / 2 holds bit for bit.
    """
    return (score(x) + 1.0) / 2.0


# Reading an enum member off its class runs a descriptor; these are plain loads.
_LATTICE, _ES_THEN_M = OrderKind.LATTICE, OrderKind.ES_THEN_MEMBERSHIP
_M_THEN_ES, _SCORE_ACCURACY = OrderKind.MEMBERSHIP_THEN_ES, OrderKind.SCORE_ACCURACY


def order_key(order: OrderKind, m: float, n: float) -> tuple[float, float]:
    """Sort key of a total order for the PFN (m, n): the order's primary (ES, m
    or score) snapped down to the COMPARE_EPS grid, then its tiebreak (m, ES or
    accuracy).  Unlike a tolerance, a key is transitive.  The measures are
    written out, rounding exactly as `score`, `accuracy` and `expectation_score`
    do, because `compare` is the law suites' hot path.  Given numpy arrays of
    m and n, it returns both key columns with the same bits per entry.
    """
    if order is _M_THEN_ES:
        return m / COMPARE_EPS // 1.0, (m * m - n * n + 1.0) / 2.0
    if order is _ES_THEN_M:
        return (m * m - n * n + 1.0) / 2.0 / COMPARE_EPS // 1.0, m
    if order is _SCORE_ACCURACY:
        return (m * m - n * n) / COMPARE_EPS // 1.0, m * m + n * n
    raise TypeError(f"not a total order: {order!r}")


def compare(a: PFN, b: PFN, order: OrderKind) -> Ordering:
    """Compare two PFNs under the given order.

    The lattice order is genuinely partial and may return INCOMPARABLE.  The
    three lexicographic orders are total: they compare `order_key`, so two
    PFNs tie only when their primaries share a COMPARE_EPS grid cell (and so
    lie within COMPARE_EPS) and their tiebreaks are equal.
    """
    if order is _LATTICE:
        if a.m == b.m and a.n == b.n:
            return Ordering.EQUAL
        if a.m <= b.m and a.n >= b.n:
            return Ordering.LESS
        if a.m >= b.m and a.n <= b.n:
            return Ordering.GREATER
        return Ordering.INCOMPARABLE
    ka, kb = order_key(order, a.m, a.n), order_key(order, b.m, b.n)
    return Ordering.EQUAL if ka == kb else Ordering.LESS if ka < kb else Ordering.GREATER


def pfn_to_text(x: PFN) -> str:
    """Render as ``m,n`` with shortest round-trip float formatting."""
    return f"{x.m!r},{x.n!r}"


def pair_from_text(text: str) -> tuple[float, float]:
    """Read ``m,n`` with optional surrounding parentheses and whitespace.

    Raises ParseError for malformed text; the pair is not range-checked.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = s.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"expected two comma-separated numbers, got {text!r}") from None


def pfn_from_text(text: str) -> PFN:
    """Parse ``m,n`` with optional surrounding parentheses and whitespace.

    Raises ParseError for malformed text; OutOfRange / NotPythagorean when
    the parsed pair is not a valid PFN.
    """
    return PFN(*pair_from_text(text))
