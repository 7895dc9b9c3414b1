"""The five-step decision procedure over two expert soft sets.

Combine the two sets (extended intersection by default), aggregate each
alternative's row into a single decision value, then rank descendingly
under a configurable total order.  Rank 1 is the optimal alternative.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, fields
from functools import wraps
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
        for f in fields(self):  # each default is a member of its field's enum
            value, kind = getattr(self, f.name), type(f.default)
            if not isinstance(value, kind):
                article = "an" if kind.__name__[0] in "AEIOU" else "a"
                raise InvalidConfig(f"{f.name}: expected {article} {kind.__name__}, got {value!r}")
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
    audited; `rows` carry one rank per alternative, 1 = optimal.  `_order`
    holds the rows' positions from rank 1 upward, as a read-only intp array.
    """

    rows: tuple[AlternativeMeasures, ...]
    weights: WeightVector
    combined: PhiSoftSet
    config: DecisionConfig = field(repr=False)
    _order: np.ndarray = field(repr=False, compare=False)

    def row(self, alternative: str) -> AlternativeMeasures:
        try:
            return self.rows[self.combined._lookup()[0][alternative]]
        except (KeyError, TypeError):  # an unknown id, or one that is not hashable
            raise KeyError(alternative) from None

    def ranking(self) -> tuple[str, ...]:
        """Alternative ids from rank 1 upward."""
        return tuple(map(self.combined.universe.__getitem__, self._order.tolist()))

    def optimal(self) -> str:
        return self.combined.universe[self._order[0]]


def decide(
    a: PhiSoftSet, b: PhiSoftSet, config: DecisionConfig | None = None
) -> DecisionReport:
    """Run the full procedure on two expert soft sets."""
    config = config or DecisionConfig()
    return decide_single(combine(a, b, config.combine), config)


def _collector_paused(fn):
    """`fn` with CPython's cyclic collector paused, for a call that builds many
    objects none of which can form a cycle; each call restores its caller's
    state, saved in its own frame, on return or raise."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused  # the report's PFNs and rows are acyclic; the rest runs numpy and math
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
    # One argsort of the descending primary.  Rows whose primaries tie form
    # runs in it (-0.0 == 0.0; as_pfns has refused NaN), and only they are
    # sorted again, by their (-primary, -tiebreak, -m, id) tuples, into the
    # same positions.  Ids are unique, so no two tuples tie.
    universe, count = softset.universe, len(softset.universe)
    order = (-primary).argsort()
    q = primary[order]
    ties = q[1:] == q[:-1]
    if ties.any():
        at = np.flatnonzero(np.append(ties, False) | np.insert(ties, 0, False))
        tied = order[at]
        keys, ids = (-np.stack((primary, tiebreak, m))[:, tied]).tolist(), tied.tolist()
        order[at] = [row[-1] for row in sorted(zip(*keys, map(universe.__getitem__, ids), ids))]
    ranks = np.empty(count, np.intp)
    ranks[order] = np.arange(1, count + 1)
    order.setflags(write=False)
    # tuple.__new__ skips the generated __new__'s per-row argument binding
    columns = zip(universe, apfdvs, es.tolist(), sf.tolist(), af.tolist(), ranks.tolist())
    rows = tuple(map(tuple.__new__, repeat(AlternativeMeasures), columns))
    return DecisionReport(rows=rows, weights=weights, combined=softset, config=config, _order=order)
