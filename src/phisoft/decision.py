"""The five-step decision procedure over two expert soft sets.

Combine the two sets (extended intersection by default), aggregate each
alternative's row into a single decision value, then rank descendingly
under a configurable total order.  Rank 1 is the optimal alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .aggregation import Aggregator, WeightVector, importance_weights, pfwa_table
from .errors import InvalidConfig
from .pfn import PFN, OrderKind, _measures, _order_key, as_pfns
from .softset import CombineRule, PhiSoftSet, combine


@dataclass(frozen=True, slots=True)
class DecisionConfig:
    """How to combine, aggregate, and rank.

    The default ranking order puts the expectation score first, which is
    the order the worked medical example's final ranking follows.
    """

    combine: CombineRule = CombineRule.EXTENDED_INTERSECTION
    aggregator: Aggregator = Aggregator.GEOMETRIC
    ranking_order: OrderKind = OrderKind.ES_THEN_MEMBERSHIP

    def __post_init__(self):
        for name, kind in (("combine", CombineRule), ("aggregator", Aggregator),
                           ("ranking_order", OrderKind)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                article = "an" if kind.__name__[0] in "AEIOU" else "a"
                raise InvalidConfig(f"{name}: expected {article} {kind.__name__}, got {value!r}")
        if self.ranking_order is OrderKind.LATTICE:
            raise InvalidConfig("ranking_order: needs a total order, not the lattice order")


class AlternativeMeasures(NamedTuple):
    """One report row: the aggregated value and its derived measures."""

    alternative: str
    apfdv: PFN
    es: float
    sf: float
    af: float
    rank: int


@dataclass(frozen=True, slots=True)
class DecisionReport:
    """Everything the procedure produced, in universe order.

    `combined` is the intermediate step-2 set so the combination can be
    audited; `rows` carry one rank per alternative, 1 = optimal.
    """

    rows: tuple[AlternativeMeasures, ...]
    weights: WeightVector
    combined: PhiSoftSet
    config: DecisionConfig = field(repr=False)

    def row(self, alternative: str) -> AlternativeMeasures:
        for r in self.rows:
            if r.alternative == alternative:
                return r
        raise KeyError(alternative)

    def ranking(self) -> tuple[str, ...]:
        """Alternative ids from rank 1 upward."""
        return tuple(r.alternative for r in sorted(self.rows, key=lambda r: r.rank))

    def optimal(self) -> str:
        return min(self.rows, key=lambda r: r.rank).alternative


def decide(
    a: PhiSoftSet, b: PhiSoftSet, config: DecisionConfig | None = None
) -> DecisionReport:
    """Run the full procedure on two expert soft sets."""
    config = config or DecisionConfig()
    return decide_single(combine(a, b, config.combine), config)


def decide_single(
    softset: PhiSoftSet, config: DecisionConfig | None = None
) -> DecisionReport:
    """Aggregate and rank one already-combined soft set (skips step 2)."""
    config = config or DecisionConfig()
    weights = importance_weights(softset.table_m[-1], softset.table_n[-1])
    m, n = pfwa_table(softset.m, softset.n, weights.values, config.aggregator)
    es, sf, af = _measures(m, n)
    apfdvs = as_pfns(m, n, af)
    primary, tiebreak = _order_key(config.ranking_order, m, es, sf, af)
    # descending key, then larger membership, then alternative id ascending;
    # ids[i] is universe[i]'s place in Python's string order
    universe, count = softset.universe, len(softset.universe)
    ids, ranks = np.empty(count, np.intp), np.empty(count, np.intp)
    ids[sorted(range(count), key=universe.__getitem__)] = np.arange(count)
    ranks[np.lexsort((ids, -m, -tiebreak, -primary))] = np.arange(1, count + 1)
    # tuple.__new__ skips the generated __new__'s per-row argument binding
    columns = zip(universe, apfdvs, es.tolist(), sf.tolist(), af.tolist(), ranks.tolist())
    rows = tuple(map(tuple.__new__, repeat(AlternativeMeasures), columns))
    return DecisionReport(rows=rows, weights=weights, combined=softset, config=config)
