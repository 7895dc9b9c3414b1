"""Pythagorean fuzzy numbers and their algebra.

A Pythagorean fuzzy number (PFN) is a pair of a membership degree ``m`` and
a non-membership degree ``n``, both in [0, 1], constrained by
``m**2 + n**2 <= 1``.  This module provides the value type, the operation
algebra (complement, lattice join/meet, the Pythagorean sum and product,
scalar multiples and powers), the score / accuracy / expectation-score
functions, and the comparison orders built from them.  Each takes one PFN,
or whole arrays of them as a `PFNArray`, and gives the same bits per entry.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat, starmap
from typing import NamedTuple

import numpy as np

from .errors import InvalidPFN, NonPositiveScalar, NotPythagorean, OutOfRange, ParseError

#: Slack allowed on the validity constraint m**2 + n**2 <= 1.
VALIDITY_EPS = 1e-9

#: Grid step of the lexicographic orders' primary key, and the tolerance of
#: algebraic-law checks.
COMPARE_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class PFN:
    """An immutable (membership, non-membership) pair on the unit quarter disk.

    Raises:
        InvalidPFN: if a component is not a real number (text is not one).
        OutOfRange: if a component lies outside [0, 1].
        NotPythagorean: if m**2 + n**2 > 1 + VALIDITY_EPS.
    """

    m: float
    n: float

    def __post_init__(self):
        m, n = self.m, self.n
        if type(m) is not float or type(n) is not float:
            m = _real(m, "degrees", InvalidPFN, OutOfRange)
            n = _real(n, "degrees", InvalidPFN, OutOfRange)
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "n", n)
        if not (0.0 <= m <= 1.0 and 0.0 <= n <= 1.0):
            raise OutOfRange(f"degrees must lie in [0, 1], got ({m}, {n})")
        if m * m + n * n > 1.0 + VALIDITY_EPS:
            raise NotPythagorean(
                f"m**2 + n**2 = {m * m + n * n} exceeds 1 for ({m}, {n})"
            )


def _real(value, what: str, error: type[Exception], too_large: type[Exception]) -> float:
    """`value` as a double, read as `array("d")` reads it: a number through
    `__float__` or `__index__`, never text.  Raises `error` "<what> must be
    real numbers" for anything else, and `too_large` for a number beyond
    double range (an integer, say)."""
    try:
        return array("d", (value,))[0]
    except (TypeError, ValueError):
        raise error(f"{what} must be real numbers, got {value!r}") from None
    except OverflowError:
        raise too_large(f"{what} must lie in [0, 1], got a number beyond float range") from None


class PFNArray(NamedTuple):
    """PFNs entry by entry: (m, n) float arrays of one shape, not validated
    (`valid` tells which entries are PFNs).  Every operation, order and
    measure below takes PFNs or PFNArrays; an operation returns its kind."""

    m: np.ndarray
    n: np.ndarray


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


def indeterminacy(x: PFN | PFNArray) -> float | np.ndarray:
    """Residual hesitation sqrt(1 - m**2 - n**2), clamped at the boundary."""
    h = np.sqrt(np.maximum(0.0, 1.0 - x.m * x.m - x.n * x.n))
    return float(h) if isinstance(x, PFN) else h


def _of_kind(x, m, n):
    """(m, n) as x's kind: a PFN of Python floats when x is a PFN, else a PFNArray."""
    return type(x)(m, n)


def _libm(fn, x: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """`fn`, a `math` function or `pow`, of each entry of `x` (and of `more`,
    arrays of x's shape).  numpy's log1p, expm1 and power differ from libm's
    in the last bit on a few percent of inputs, and per CPU.  The entries
    stream from each array's float64 buffer, with no list of them."""
    buffers = [memoryview(np.asarray(a, np.float64).ravel()) for a in (x, *more)]
    # math.log takes an optional base, so a vectorcall of it builds an argument
    # tuple per call; through starmap it parses zip's one reused tuple instead.
    values = starmap(fn, zip(*buffers)) if fn is math.log else map(fn, *buffers)
    return np.fromiter(values, np.float64, x.size).reshape(x.shape)


def complement(x: PFN | PFNArray) -> PFN | PFNArray:
    """Swap membership and non-membership; an involution."""
    return _of_kind(x, x.n, x.m)


def join(a: PFN | PFNArray, b: PFN | PFNArray) -> PFN | PFNArray:
    """Lattice join: componentwise (max m, min n).  Where two components are
    equal but for their sign (-0.0 and 0.0), the result takes b's."""
    return _of_kind(a, np.maximum(a.m, b.m), np.minimum(a.n, b.n))


def meet(a: PFN | PFNArray, b: PFN | PFNArray) -> PFN | PFNArray:
    """Lattice meet: componentwise (min m, max n); on a signed-zero tie, b's."""
    return _of_kind(a, np.minimum(a.m, b.m), np.maximum(a.n, b.n))


def _sum_of_squares(xa, xb):
    """xa + xb - xa*xb for xa, xb in [0, 1].

    The direct form keeps relative accuracy when both squares are tiny;
    the complement-product form cannot round above 1 near the boundary.
    """
    return np.where(xa + xb < 0.5, xa + xb - xa * xb, 1.0 - (1.0 - xa) * (1.0 - xb))


def add_p(a: PFN | PFNArray, b: PFN | PFNArray) -> PFN | PFNArray:
    """Pythagorean sum: (sqrt(m_a**2 + m_b**2 - m_a**2 m_b**2), n_a n_b)."""
    return _of_kind(a, np.sqrt(_sum_of_squares(a.m * a.m, b.m * b.m)), a.n * b.n)


def mul_p(a: PFN | PFNArray, b: PFN | PFNArray) -> PFN | PFNArray:
    """Pythagorean product: (m_a m_b, sqrt(n_a**2 + n_b**2 - n_a**2 n_b**2)),
    the complement of the sum of the complements."""
    return complement(add_p(complement(a), complement(b)))


def _one_minus_pow(s, alpha):
    """sqrt(1 - (1-s)**alpha) for s in [0, 1], computed without cancellation."""
    # expm1/log1p keep relative accuracy when s is tiny, so the exponent laws
    # hold to machine precision instead of drifting near the boundary.
    edge = s >= 1.0
    log = _libm(math.log1p, np.where(edge, 0.0, -s))
    return np.where(edge, 1.0, np.sqrt(-_libm(math.expm1, alpha * log)))


def scalar_mul(alpha: float | np.ndarray, x: PFN | PFNArray) -> PFN | PFNArray:
    """alpha-multiple: (sqrt(1 - (1-m**2)**alpha), n**alpha), alpha > 0."""
    if not (np.asarray(alpha) > 0.0).all():  # NaN fails > 0 as well
        raise NonPositiveScalar(f"scalar multiples and powers need alpha > 0, got {alpha}")
    n = _libm(pow, *np.broadcast_arrays(x.n, alpha))
    return _of_kind(x, _one_minus_pow(x.m * x.m, alpha), n)


def power(x: PFN | PFNArray, alpha: float | np.ndarray) -> PFN | PFNArray:
    """alpha-th power: (m**alpha, sqrt(1 - (1-n**2)**alpha)), alpha > 0, the
    complement of the alpha-multiple of the complement."""
    return complement(scalar_mul(alpha, complement(x)))


def score(x: PFN | PFNArray) -> float | np.ndarray:
    """Score m**2 - n**2, in [-1, 1]."""
    return x.m * x.m - x.n * x.n


def accuracy(x: PFN | PFNArray) -> float | np.ndarray:
    """Accuracy m**2 + n**2, in [0, 1]; the tiebreaker for equal scores."""
    return x.m * x.m + x.n * x.n


def expectation_score(x: PFN | PFNArray) -> float | np.ndarray:
    """Expectation score (m**2 - n**2 + 1) / 2, in [0, 1].

    Defined through `score` so that ES == (score + 1) / 2 holds bit for bit.
    """
    return (score(x) + 1.0) / 2.0


def _measures(m, n):
    """(ES, score, accuracy) of the PFN (m, n), or of each entry of (m, n)
    arrays, from one squaring of each: the bits of `expectation_score`,
    `score` and `accuracy`."""
    mm, nn = m * m, n * n
    sf = mm - nn
    return (sf + 1.0) / 2.0, sf, mm + nn


def valid(x: PFN | PFNArray) -> bool | np.ndarray:
    """Entrywise: whether x is a PFN, by PFN's own test."""
    ok = _valid(x.m, x.n, accuracy(x))
    return bool(ok) if isinstance(x, PFN) else ok


def _valid(m, n, af):
    """`valid` of (m, n), whose accuracy is `af`.  A NaN fails every
    comparison, and np.minimum/np.maximum pass it on, so NaN is invalid."""
    return (np.minimum(m, n) >= 0.0) & (np.maximum(m, n) <= 1.0) & (af <= 1.0 + VALIDITY_EPS)


_new, _set_m, _set_n = object.__new__, PFN.m.__set__, PFN.n.__set__

#: `as_pfns` calls the constructor on shorter arrays, where the array check's
#: fixed cost exceeds one constructor call per entry.  Measured crossover
#: (`timeit`, one CPU, collector paused, as in `decide_single`): 13-16 entries.
_FILL_MIN_ROWS = 16


def as_pfns(m: np.ndarray, n: np.ndarray, af: np.ndarray) -> list[PFN]:
    """The PFNs (m[i], n[i]) of two 1-D float arrays whose accuracy is `af`.
    Raises what `PFN(m[i], n[i])` raises for the first i that fails PFN's
    test.  From `_FILL_MIN_ROWS` entries on, no constructor runs per entry:
    one array check, then the PFNs are allocated and their slots filled by
    C-level loops."""
    if len(m) < _FILL_MIN_ROWS:
        return list(map(PFN, m.tolist(), n.tolist()))
    ok = _valid(m, n, af)
    if not ok.all():
        i = int(ok.argmin())
        PFN(m.item(i), n.item(i))
    # These slot wrappers take their arguments as a tuple: starmap passes them
    # zip's one reused tuple, where map would build one per call.
    pfns = list(starmap(_new, zip(repeat(PFN, len(m)))))
    deque(starmap(_set_m, zip(pfns, m.tolist())), 0)
    deque(starmap(_set_n, zip(pfns, n.tolist())), 0)
    return pfns


def close(a: PFN | PFNArray, b: PFN | PFNArray) -> bool | np.ndarray:
    """Entrywise: whether both components of a lie within COMPARE_EPS of b's."""
    return (abs(a.m - b.m) <= COMPARE_EPS) & (abs(a.n - b.n) <= COMPARE_EPS)


def order_key(order: OrderKind, m: float | np.ndarray, n: float | np.ndarray) -> tuple:
    """Sort key of a total order for the PFN (m, n): the order's primary (ES, m
    or score) snapped down to the COMPARE_EPS grid, then its tiebreak (m, ES or
    accuracy).  Unlike a tolerance, a key is transitive.  Given arrays of m
    and n, it returns both key columns with the same bits per entry.
    """
    return _order_key(order, m, *_measures(m, n))


def _order_key(order: OrderKind, m, es, sf, af) -> tuple:
    """`order_key` of the PFN (m, n), or of each entry, whose ES, score and
    accuracy are es, sf and af."""
    if order is OrderKind.MEMBERSHIP_THEN_ES:
        return m / COMPARE_EPS // 1.0, es
    if order is OrderKind.ES_THEN_MEMBERSHIP:
        return es / COMPARE_EPS // 1.0, m
    if order is OrderKind.SCORE_ACCURACY:
        return sf / COMPARE_EPS // 1.0, af
    raise TypeError(f"not a total order: {order!r}")


def below(a: PFN | PFNArray, b: PFN | PFNArray, order: OrderKind) -> bool | np.ndarray:
    """Entrywise a <= b under `order`: the lattice order (m_a <= m_b and
    n_a >= n_b), or the lexicographic <= of the total order's `order_key`."""
    if order is OrderKind.LATTICE:
        return (a.m <= b.m) & (a.n >= b.n)
    (pa, ta), (pb, tb) = order_key(order, a.m, a.n), order_key(order, b.m, b.n)
    return (pa < pb) | ((pa == pb) & (ta <= tb))


_ORDERINGS = {(True, True): Ordering.EQUAL, (True, False): Ordering.LESS,
              (False, True): Ordering.GREATER, (False, False): Ordering.INCOMPARABLE}


def compare(a: PFN, b: PFN, order: OrderKind) -> Ordering:
    """Compare two PFNs under the given order, by `below` both ways.

    The lattice order is genuinely partial and may return INCOMPARABLE.  The
    three lexicographic orders are total: they compare `order_key`, so two
    PFNs tie only when their primaries share a COMPARE_EPS grid cell (and so
    lie within COMPARE_EPS) and their tiebreaks are equal.
    """
    return _ORDERINGS[below(a, b, order), below(b, a, order)]


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
