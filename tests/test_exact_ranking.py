"""The ranking against an exact reference of each alternative's primary key.

The reference recomputes every aggregated value from the float inputs and
the report's own weights: exactly, as `fractions.Fraction`s, for the linear
aggregator, and in `decimal` at 60 digits for the geometric one, by
m**2 = 1 - exp(sum w ln(1 - m_j**2)) and n = exp(sum w ln n_j).  Its primary
is the order's first key: the expectation score, m, or the score.  Wherever
two neighbours in a report's ranking differ in that exact primary by more
than RANK_TOL, the report must put the larger first.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from phisoft import (
    Aggregator,
    CombineRule,
    DecisionConfig,
    OrderKind,
    build,
    decide,
    decide_single,
    parse_csv,
)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "data"

#: perfbench's ranking tolerance, COMPARE_EPS + 8 * APFDV_TOL: with both
#: components within 1e-12 of the exact ones, a primary is within 4e-12.
RANK_TOL = Fraction(1, 10**12) + 8 * Fraction(1, 10**12)

TOTAL_ORDERS = [order for order in OrderKind if order is not OrderKind.LATTICE]


def _linear(ms, ns, weights):
    """Exact (m, m**2, n**2) of the weighted mean, each component capped at 1."""
    m = min(sum(Fraction(w) * Fraction(x) for w, x in zip(weights, ms)), 1)
    n = min(sum(Fraction(w) * Fraction(x) for w, x in zip(weights, ns)), 1)
    return m, m * m, n * n


def _geometric(ms, ns, weights):
    """(m, m**2, n**2) of the geometric closed form, at 60 digits.  A zero
    weight drops its term, as `pfwa_table` drops the column; ln 0 is -inf."""
    with localcontext() as ctx:
        ctx.prec = 60
        terms = [(Decimal(w), Decimal(m), Decimal(n)) for w, m, n in zip(weights, ms, ns) if w]
        mm = 1 - sum(w * (1 - m * m).ln() for w, m, _ in terms).exp()
        n = sum(w * n.ln() for w, _, n in terms).exp()
        return mm.sqrt(), mm, n * n


EXACT = {Aggregator.LINEAR: _linear, Aggregator.GEOMETRIC: _geometric}


def exact_measures(report) -> dict:
    """Alternative -> exact (m, m**2, n**2) of its aggregated value."""
    s, aggregate = report.combined, EXACT[report.config.aggregator]
    weights = report.weights.values
    return {
        alt: aggregate(ms, ns, weights)
        for alt, ms, ns in zip(s.universe, s.m.tolist(), s.n.tolist())
    }


def primary(order: OrderKind, m, mm, nn):
    """The order's exact primary key."""
    if order is OrderKind.ES_THEN_MEMBERSHIP:
        return (mm - nn + 1) / 2
    if order is OrderKind.MEMBERSHIP_THEN_ES:
        return m
    return mm - nn


def assert_ranked_as_exact(reports) -> None:
    """Check reports of one set and aggregator, which differ in their order
    only and so share their aggregated values."""
    exact = exact_measures(reports[0])
    for report in reports:
        order = report.config.ranking_order
        key = {alt: primary(order, *measures) for alt, measures in exact.items()}
        ranking = report.ranking()
        for hi, lo in zip(ranking, ranking[1:]):
            assert not key[lo] - key[hi] > RANK_TOL, (
                f"{report.config}: {hi} ranked above {lo}, exact primaries "
                f"{float(key[hi])!r} < {float(key[lo])!r}"
            )


def _seeded_set(rows: int = 200, cols: int = 6):
    """A seeded set, uniform on the quarter disk, with a saturated (1, 0)
    cell, a (0, 1) cell and two identical rows planted."""
    rng = np.random.default_rng(2026)
    pairs = rng.random((4 * rows * cols, 2))
    pairs = pairs[(pairs**2).sum(axis=1) <= 1.0][: (rows + 1) * cols]
    m, n = pairs[:, 0].reshape(rows + 1, cols), pairs[:, 1].reshape(rows + 1, cols)
    m[0, 0], n[0, 0] = 1.0, 0.0
    m[1, 1], n[1, 1] = 0.0, 1.0
    m[3], n[3] = m[2], n[2]
    alts, names = [f"a{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]
    cells = {
        (alt, name): (m[i, j], n[i, j]) for i, alt in enumerate(alts) for j, name in enumerate(names)
    }
    params = [(name, (m[-1, j], n[-1, j])) for j, name in enumerate(names)]
    return build(alts, params, cells)


@pytest.mark.parametrize("aggregator", list(Aggregator), ids=lambda a: a.value)
@pytest.mark.parametrize("rule", list(CombineRule), ids=lambda r: r.value)
def test_the_paper_pair_is_ranked_as_the_exact_primaries_rank_it(rule, aggregator):
    a, b = (parse_csv((DEMO / name).read_bytes()) for name in ("table1.csv", "table2.csv"))
    assert_ranked_as_exact([decide(a, b, DecisionConfig(rule, aggregator, order))
                            for order in TOTAL_ORDERS])


@pytest.mark.parametrize("aggregator", list(Aggregator), ids=lambda a: a.value)
def test_a_seeded_set_is_ranked_as_the_exact_primaries_rank_it(aggregator):
    softset = _seeded_set()
    assert_ranked_as_exact([decide_single(softset, DecisionConfig(aggregator=aggregator,
                                                                  ranking_order=order))
                            for order in TOTAL_ORDERS])
