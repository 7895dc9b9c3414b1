"""Weighted averaging of PFNs.

Two weighted-averaging operators are provided: a componentwise arithmetic
mean and the geometric form that folds the Pythagorean sum over scalar
multiples.  Parameter weights are normalized expectation scores of the
importance degrees.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

from .errors import DegenerateWeights, LengthMismatch
from .pfn import PFN, add_p, expectation_score, scalar_mul
from .softset import PFParameter

#: Allowed deviation of a weight vector's sum from 1.
WEIGHT_SUM_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class WeightVector:
    """Non-negative weights summing to 1 (within WEIGHT_SUM_EPS)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
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


def weights_from_importances(parameters: Sequence[PFParameter]) -> WeightVector:
    """Normalize the expectation scores of the importances into weights.

    Raises DegenerateWeights when every expectation score is 0 (which
    includes the empty parameter list): there is nothing to normalize.
    """
    scores = [expectation_score(p.importance) for p in parameters]
    total = math.fsum(scores)
    if total <= 0.0:
        raise DegenerateWeights(
            "all parameter importances have expectation score 0"
        )
    return WeightVector(tuple(s / total for s in scores))


def _check_lengths(values: Sequence[PFN], weights: WeightVector) -> None:
    if len(values) != len(weights):
        raise LengthMismatch(
            f"{len(values)} values vs {len(weights)} weights"
        )
    if not values:
        raise LengthMismatch("need at least one value")


def linear_kernel(ms: Sequence[float], ns: Sequence[float], ws: Sequence[float]):
    """(m, n) of the componentwise weighted mean; see `pfwa_linear`."""
    return (
        math.fsum(w * m for m, w in zip(ms, ws)),
        math.fsum(w * n for n, w in zip(ns, ws)),
    )


def geometric_kernel(ms: Sequence[float], ns: Sequence[float], ws: Sequence[float]):
    """(m, n) of the geometric weighted average; see `pfwa_geometric`."""
    m_saturated = False
    m_logs = []
    n_zero = False
    n_logs = []
    for m, n, w in zip(ms, ns, ws):
        if w == 0.0:
            continue
        s = min(m * m, 1.0)
        if s == 1.0:
            m_saturated = True
        else:
            m_logs.append(w * math.log1p(-s))
        if n == 0.0:
            n_zero = True
        else:
            n_logs.append(w * math.log(n))

    # fsum makes both components exact sums of their terms, so permuting
    # the (value, weight) pairs cannot change the result.
    return (
        1.0 if m_saturated else math.sqrt(-math.expm1(math.fsum(m_logs))),
        0.0 if n_zero else math.exp(math.fsum(n_logs)),
    )


def pfwa_linear(values: Sequence[PFN], weights: WeightVector) -> PFN:
    """Componentwise weighted arithmetic mean of the values.

    Convexity of the unit quarter disk keeps the result valid.
    """
    _check_lengths(values, weights)
    return PFN(*linear_kernel([v.m for v in values], [v.n for v in values], weights.values))


def pfwa_geometric(values: Sequence[PFN], weights: WeightVector) -> PFN:
    """Weighted averaging in the Pythagorean algebra.

    Closed form (sqrt(1 - prod (1-m_i**2)**w_i), prod n_i**w_i); equal to
    folding add_p over the scalar multiples w_i * value_i.  Zero-weight
    entries contribute nothing; 0**w = 0 for w > 0, so any zero
    non-membership zeroes the product.
    """
    _check_lengths(values, weights)
    return PFN(*geometric_kernel([v.m for v in values], [v.n for v in values], weights.values))


def pfwa_fold(values: Sequence[PFN], weights: WeightVector) -> PFN:
    """Left fold of add_p over scalar multiples; the constructive route.

    Kept as an independent path for cross-checking pfwa_geometric.  All
    weights must be positive (scalar_mul rejects 0).
    """
    _check_lengths(values, weights)
    return reduce(add_p, (scalar_mul(w, v) for v, w in zip(values, weights)))

