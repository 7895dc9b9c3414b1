"""Weighted averaging of PFNs.

Two weighted-averaging operators are provided: a componentwise arithmetic
mean and the geometric form that folds the Pythagorean sum over scalar
multiples.  Both run on whole tables in `pfwa_table`.  Parameter weights
are normalized expectation scores of the importance degrees.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .errors import DegenerateWeights, LengthMismatch
from .pfn import PFN, PFNArray, _libm, _real, add_p, expectation_score, scalar_mul
from .softset import PFParameter

#: Allowed deviation of a weight vector's sum from 1.
WEIGHT_SUM_EPS = 1e-9


class Aggregator(Enum):
    GEOMETRIC = "geometric"
    LINEAR = "linear"


@dataclass(frozen=True, slots=True)
class WeightVector:
    """Non-negative weights summing to 1 (within WEIGHT_SUM_EPS)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(self.values)  # the error path reads them twice
        try:
            values = array("d", values)  # `_real` of each, in one call
        except (TypeError, ValueError, OverflowError):  # `_real` names the first refused
            values = [_real(v, "weights", DegenerateWeights, DegenerateWeights) for v in values]
        values = tuple(values)
        object.__setattr__(self, "values", values)
        if not values:
            raise DegenerateWeights("weight vector may not be empty")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise DegenerateWeights(f"weights must lie in [0, 1], got {v}")
        total = math.fsum(values)
        if abs(total - 1.0) > WEIGHT_SUM_EPS:
            raise DegenerateWeights(f"weights must sum to 1, got {total}")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def importance_weights(m: np.ndarray, n: np.ndarray) -> WeightVector:
    """The importances' (m, n) expectation scores, normalized; raises
    DegenerateWeights when every score is 0, or there are none."""
    scores = expectation_score(PFNArray(m, n))
    if not scores.size:
        raise DegenerateWeights("the set has no parameters to weigh")
    total = math.fsum(scores.tolist())
    if total <= 0.0:
        raise DegenerateWeights("all parameter importances have expectation score 0")
    return WeightVector((scores / total).tolist())


def weights_from_importances(parameters: Sequence[PFParameter]) -> WeightVector:
    """`importance_weights` of the parameters' importance degrees."""
    mn = np.array([(p.importance.m, p.importance.n) for p in parameters], dtype=np.float64)
    return importance_weights(*mn.reshape(-1, 2).T)


def _check_lengths(values: Sequence[PFN], weights: WeightVector) -> None:
    if len(values) != len(weights):
        raise LengthMismatch(f"{len(values)} values vs {len(weights)} weights")
    if not values:
        raise LengthMismatch("need at least one value")


def _fsums(terms: np.ndarray):
    """The `math.fsum` of each row of `terms`, lazily.  zip hands the rows
    out as one tuple that it reuses; `.tolist()` would make a list per row."""
    return map(math.fsum, zip(*terms.T.tolist()))


#: Tables with fewer rows go straight to `math.fsum`: below this, the
#: cascade's nine numpy calls per column cost more than one fsum per row.
#: The crossover falls from about 150 rows at 4 columns to about 90 at 60
#: (`timeit`, min of 15, one CPU of a 2-vCPU Xeon): at 128 rows fsum took
#: 25 µs against the cascade's 27 at P = 4, 43 against 38 at P = 8, 143
#: against 109 at P = 28 and 318 against 223 at P = 60.
_CASCADE_MIN_ROWS = 128


def _two_sum(a, b, s, err, bb):
    """TwoSum (Knuth): fl(a + b) into s and its rounding error a + b - s,
    exactly, into err; bb is overwritten.  Returns (s, err)."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=bb)
    np.subtract(a, np.subtract(s, bb, out=err), out=err)
    np.subtract(b, bb, out=bb)
    return s, np.add(err, bb, out=err)


def _row_sums(terms: np.ndarray, finish=None) -> np.ndarray:
    """The `math.fsum` of each row of `terms`, bit for bit, or `finish` (a
    `math` function) of it: on a small table that saves an array per call.

    TwoSum runs down the columns, every row at once (Ogita, Rump & Oishi,
    "Accurate Sum and Dot Product", 2005).  A row's exact sum S is s + E: s
    the running sum, E the exact sum of its P-1 rounding errors.  Their float
    sum e is off by at most gamma_(P-2) * sum|err|, about (P-2)u * sum|err|
    with u = 2**-53, well under delta = 2Pu * sum|err|.
    With (r, d) = TwoSum(s, e), S = r + d + (E - e); so where |d| + delta is
    below half the smaller gap around r, r is S correctly rounded, which is
    fsum's result.  With two columns E is the one TwoSum error, so e == E and
    r is S correctly rounded, ties to even included: every finite r != 0 is
    certified.  As in Shewchuk's adaptive predicates (1997), only the rows
    that this cannot certify are summed exactly, by fsum: ties (from three
    columns on), r == 0 (fsum's signed-zero rule), and non-finite terms or
    overflow, which make TwoSum's error NaN.
    The cascade reads each column as one contiguous row of `terms.T` (free
    when `terms` is the transpose of a C-ordered array, one copy otherwise)
    and writes into buffers that it reuses from column to column."""
    rows, width = terms.shape
    if rows < _CASCADE_MIN_ROWS or not width:
        sums = _fsums(terms)
        return np.fromiter(sums if finish is None else map(finish, sums), np.float64, rows)
    cols = np.ascontiguousarray(terms.T)
    s, e, mag = cols[0].copy(), np.zeros(rows), np.zeros(rows)
    t, err, bb = np.empty(rows), np.empty(rows), np.empty(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        for col in cols[1:]:
            _two_sum(s, col, t, err, bb)
            s, t = t, s
            np.add(e, err, out=e)
            np.add(mag, np.abs(err, out=err), out=mag)
        r, d = _two_sum(s, e, t, err, bb)
        if width == 2:  # e is the one TwoSum error, so r is S rounded, ties too
            certified = np.isfinite(r) & (r != 0.0)
        else:  # s is free now; mag becomes delta
            half_gap = np.abs(np.subtract(r, np.nextafter(r, 0.0, out=s), out=s), out=s)
            half_gap *= 0.5
            mag *= width * 2.0**-52
            certified = np.add(np.abs(d, out=d), mag, out=d) < half_gap
    redo = np.flatnonzero(~certified)
    if redo.size:
        r[redo] = np.fromiter(_fsums(terms[redo]), np.float64, redo.size)
    return r if finish is None else _libm(finish, r)


def _exp_log_sums(exp, log, x: np.ndarray, pole: float, w: np.ndarray) -> np.ndarray:
    """exp(sum_j w_j * log(x_ji)) per column i of the P x A array x, which it
    overwrites, with `math`'s exp and log; w is P x A or P x 1.  At the pole
    (no x lies below it) log raises, so its term is the limit, -inf."""
    at_pole = x == pole
    np.putmask(x, at_pole, 1.0)
    terms = _libm(log, x)
    terms[at_pole] = -math.inf
    terms *= w
    return _row_sums(terms.T, exp)


def pfwa_table(
    m: np.ndarray, n: np.ndarray, weights: Sequence[float] | np.ndarray, aggregator: Aggregator
) -> tuple[np.ndarray, np.ndarray]:
    """The aggregated (m, n) columns of the A x P table of PFNs (m, n): row i
    is `pfwa_geometric` (or `pfwa_linear`) of row i.  `weights` is a sequence
    of P weights for every row, or an A x P numpy array, one weight row each.
    A column whose weight is 0 in every row is dropped; a 0 in any other
    column raises DegenerateWeights.  Each row sums one term per weighted
    parameter to exactly `math.fsum`'s result, so the column order cannot
    change a bit; on tall tables `_row_sums` reaches it by a certified
    error-free cascade over all rows, and calls fsum only on the rows that
    the cascade cannot certify.
    log1p, log, expm1 and exp are `math`'s, because numpy's differ in the
    last bit on a few percent of inputs, and per CPU; the rest runs in numpy."""
    w = np.asarray(weights, np.float64)
    if 0.0 in weights:  # cheap on a one-row tuple; on an array it tests every entry
        keep = w.reshape(-1, w.shape[-1]).any(axis=0)
        m, n, w = m[:, keep], n[:, keep], w[..., keep]
        if not w.all():
            raise DegenerateWeights("a zero weight in a column that other rows weight")
    # The kernel runs on the P x A transposes, one contiguous row per parameter.
    w = w[:, None] if w.ndim == 1 else np.ascontiguousarray(w.T)
    if aggregator is Aggregator.LINEAR:
        # The weights may sum to 1 + ulp, which lifts a row of ones above 1.
        m_sums = _row_sums(np.multiply(m.T, w, order="C").T)
        return np.minimum(m_sums, 1.0), np.minimum(_row_sums(np.multiply(n.T, w, order="C").T), 1.0)
    x = np.multiply(m.T, m.T, order="C")  # each call overwrites the x it is given
    out_m = _exp_log_sums(math.expm1, math.log1p, np.negative(x, out=x), -1.0, w)
    x = n.T.copy()
    # 0.0 - out_m is -out_m, but +0.0 where out_m is -0.0 or 0.0, so an
    # all-zero-membership row gets sqrt(0.0) = 0.0, not sqrt(-0.0) = -0.0
    return np.sqrt(0.0 - out_m), _exp_log_sums(math.exp, math.log, x, 0.0, w)


def _pfwa(values: Sequence[PFN], weights: WeightVector, aggregator: Aggregator) -> PFN:
    """`pfwa_table` of the values as a one-row table."""
    _check_lengths(values, weights)
    m, n = np.array([[v.m for v in values]]), np.array([[v.n for v in values]])
    m, n = pfwa_table(m, n, weights.values, aggregator)
    return PFN(m.item(), n.item())


def pfwa_linear(values: Sequence[PFN], weights: WeightVector) -> PFN:
    """Componentwise weighted arithmetic mean of the values.

    Convexity of the unit quarter disk keeps the result valid; each
    component is capped at 1 against rounding in the weights.
    """
    return _pfwa(values, weights, Aggregator.LINEAR)


def pfwa_geometric(values: Sequence[PFN], weights: WeightVector) -> PFN:
    """Weighted averaging in the Pythagorean algebra.

    Closed form (sqrt(1 - prod (1-m_i**2)**w_i), prod n_i**w_i); equal to
    folding add_p over the scalar multiples w_i * value_i.  Zero-weight
    entries contribute nothing; 0**w = 0 for w > 0, so any zero
    non-membership zeroes the product.
    """
    return _pfwa(values, weights, Aggregator.GEOMETRIC)


def pfwa_fold(values: Sequence[PFN], weights: WeightVector) -> PFN:
    """Left fold of add_p over scalar multiples; the constructive route.

    Kept as an independent path for cross-checking pfwa_geometric.  All
    weights must be positive (scalar_mul rejects 0).  Given PFNArrays, each
    with a weight array of its shape, it folds every entry alike.
    """
    _check_lengths(values, weights)
    return reduce(add_p, (scalar_mul(w, v) for v, w in zip(values, weights)))
