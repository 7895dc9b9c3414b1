"""The ranking depends only on the table contents, never on input order."""

import itertools
import math

import numpy as np
import pytest

from phisoft import (
    COMPARE_EPS,
    PFN,
    Aggregator,
    DecisionConfig,
    OrderKind,
    Ordering,
    build,
    compare,
    decide,
    decide_single,
    expectation_score,
    score,
)
from phisoft.pfn import accuracy, order_key
from conftest import TABLE1_CELLS, TABLE1_PARAMS, TABLE2_CELLS, TABLE2_PARAMS, UNIVERSE

TOTAL_ORDERS = (
    OrderKind.ES_THEN_MEMBERSHIP,
    OrderKind.MEMBERSHIP_THEN_ES,
    OrderKind.SCORE_ACCURACY,
)
# Test ids spell out each order's name ("es-then-membership"), not its token.
ORDER_IDS = [o.name.lower().replace("_", "-") for o in TOTAL_ORDERS]
CONFIGS = [
    DecisionConfig(aggregator=agg, ranking_order=order)
    for agg in Aggregator
    for order in TOTAL_ORDERS
]


def _with_es(m: float, es: float) -> tuple[float, float]:
    """(m, n) whose expectation score is `es`, up to rounding."""
    return m, math.sqrt(m * m + 1.0 - 2.0 * es)


def _near_tie_triple():
    """Three cells 0.6e-12 of ES apart, membership decreasing as ES rises.

    Under a tolerance comparison x > y (ES tie, larger m) and y > z, yet
    z > x (ES apart by more than COMPARE_EPS): a cycle.
    """
    return {
        "x": _with_es(0.60, 0.5),
        "y": _with_es(0.59, 0.5 + 0.6e-12),
        "z": _with_es(0.58, 0.5 + 1.2e-12),
    }


def _rows(report):
    return {
        r.alternative: (r.apfdv.m, r.apfdv.n, r.es, r.sf, r.af, r.rank)
        for r in report.rows
    }


def _rebuild(universe, params, cells):
    """`build` with the cells inserted in reverse order as well."""
    return build(universe, params, dict(reversed(cells.items())))


def _seeded_table(seed=11, alts=30, params=6):
    """A random table on the quarter disk, with exact and near ties planted."""
    rng = np.random.default_rng(seed)

    def points(k):
        r = np.sqrt(rng.random(k))
        theta = rng.random(k) * (math.pi / 2)
        return list(zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()))

    universe = tuple(f"a{i:02d}" for i in range(alts))
    names = [f"c{j}" for j in range(params)]
    rows = [points(params) for _ in range(alts)]
    rows[5] = rows[17] = rows[0]  # exact ties: the id decides
    rows[9] = [(m, max(0.0, n - 1e-13)) for m, n in rows[3]]  # a near tie
    cells = {
        (alt, name): cell
        for alt, row in zip(universe, rows)
        for name, cell in zip(names, row)
    }
    return universe, list(zip(names, points(params))), cells


def test_near_tie_triple_ranks_the_same_in_every_universe_order():
    cells = _near_tie_triple()
    x, y, z = (PFN(*cell) for cell in cells.values())
    es = [expectation_score(p) for p in (x, y, z)]
    assert abs(es[0] - es[1]) <= COMPARE_EPS and abs(es[1] - es[2]) <= COMPARE_EPS
    assert es[2] - es[0] > COMPARE_EPS and x.m > y.m > z.m
    params = [("c1", (0.5, 0.4))]
    for config in CONFIGS:
        rankings = set()
        for universe in itertools.permutations(cells):
            s = build(universe, params, {(alt, "c1"): cells[alt] for alt in universe})
            rankings.add(decide_single(s, config).ranking())
        assert len(rankings) == 1, (config, rankings)


def test_paper_tables_are_invariant_under_universe_and_parameter_order():
    base = {
        config: _rows(decide(
            build(UNIVERSE, TABLE1_PARAMS, TABLE1_CELLS),
            build(UNIVERSE, TABLE2_PARAMS, TABLE2_CELLS),
            config,
        ))
        for config in CONFIGS
    }
    reversed_params = (TABLE1_PARAMS[::-1], TABLE2_PARAMS[::-1])
    for universe in itertools.permutations(UNIVERSE):
        for p1, p2 in ((TABLE1_PARAMS, TABLE2_PARAMS), reversed_params):
            a = _rebuild(universe, p1, TABLE1_CELLS)
            b = _rebuild(universe[::-1], p2, TABLE2_CELLS)
            for config in CONFIGS:
                assert _rows(decide(a, b, config)) == base[config], (universe, config)


def test_seeded_table_is_invariant_under_universe_and_parameter_order():
    universe, params, cells = _seeded_table()
    base = {config: _rows(decide_single(build(universe, params, cells), config))
            for config in CONFIGS}
    for rows in base.values():  # the planted exact ties rank a00 > a05 > a17
        assert rows["a00"][-1] + 1 == rows["a05"][-1] == rows["a17"][-1] - 1
    rng = np.random.default_rng(5)
    orders = [universe[::-1]] + [
        tuple(universe[i] for i in rng.permutation(len(universe))) for _ in range(10)
    ]
    for moved in orders:
        for p in (params, [params[i] for i in rng.permutation(len(params))]):
            s = _rebuild(moved, p, cells)
            for config in CONFIGS:
                assert _rows(decide_single(s, config)) == base[config], config


_PRIMARY = {
    OrderKind.ES_THEN_MEMBERSHIP: expectation_score,
    OrderKind.MEMBERSHIP_THEN_ES: lambda x: x.m,
    OrderKind.SCORE_ACCURACY: score,
}
_TIEBREAK = {
    OrderKind.ES_THEN_MEMBERSHIP: lambda x: x.m,
    OrderKind.MEMBERSHIP_THEN_ES: expectation_score,
    OrderKind.SCORE_ACCURACY: accuracy,
}


def _pool(order: OrderKind) -> list[PFN]:
    """PFNs whose primary keys lie within and across COMPARE_EPS of each other."""
    out = []
    for k in range(-6, 7):
        step = k * 0.35 * COMPARE_EPS
        for other in (0.35, 0.5, 0.65):
            if order is OrderKind.MEMBERSHIP_THEN_ES:
                out.append(PFN(0.5 + step, other))
            elif order is OrderKind.ES_THEN_MEMBERSHIP:
                out.append(PFN(*_with_es(other, 0.5 + step)))
            else:  # score m^2 - n^2 = step, straddling 0
                out.append(PFN(other, math.sqrt(other * other - step)))
    return out


_INVERSE = {
    Ordering.LESS: Ordering.GREATER,
    Ordering.EQUAL: Ordering.EQUAL,
    Ordering.GREATER: Ordering.LESS,
}


@pytest.mark.parametrize("order", TOTAL_ORDERS, ids=ORDER_IDS)
def test_compare_is_a_strict_weak_order_on_near_ties(order):
    pool = _pool(order) + [PFN(*cell) for cell in _near_tie_triple().values()]
    verdict = {(i, j): compare(a, b, order)
               for i, a in enumerate(pool) for j, b in enumerate(pool)}
    at_least = (Ordering.GREATER, Ordering.EQUAL)
    for i, j in verdict:
        assert verdict[j, i] is _INVERSE[verdict[i, j]]
    for i, j, k in itertools.product(range(len(pool)), repeat=3):
        if verdict[i, j] in at_least and verdict[j, k] in at_least:
            expected = (Ordering.EQUAL if verdict[i, j] is verdict[j, k] is Ordering.EQUAL
                        else Ordering.GREATER)
            assert verdict[i, k] is expected, (pool[i], pool[j], pool[k])


@pytest.mark.parametrize("order", TOTAL_ORDERS, ids=ORDER_IDS)
def test_compare_agrees_with_the_order_key(order):
    pool = _pool(order)
    for x in pool:  # the key's measures round as the scalar functions do
        assert order_key(order, x.m, x.n) == (_PRIMARY[order](x) / COMPARE_EPS // 1.0,
                                              _TIEBREAK[order](x))
    for a, b in itertools.product(pool, repeat=2):
        ka, kb = order_key(order, a.m, a.n), order_key(order, b.m, b.n)
        assert compare(a, b, order) is (
            Ordering.EQUAL if ka == kb else Ordering.LESS if ka < kb else Ordering.GREATER
        )
        # primaries further apart than COMPARE_EPS never tie
        pa, pb = _PRIMARY[order](a), _PRIMARY[order](b)
        if abs(pa - pb) > 1.01 * COMPARE_EPS:
            assert compare(a, b, order) is (Ordering.LESS if pa < pb else Ordering.GREATER)


@pytest.mark.parametrize("order", TOTAL_ORDERS, ids=ORDER_IDS)
def test_ranking_follows_compare_on_near_ties(order):
    pool = _pool(order) + [PFN(*cell) for cell in _near_tie_triple().values()]
    universe = [f"x{i:02d}" for i in range(len(pool))]
    s = build(universe, [("c1", (0.5, 0.4))], {(alt, "c1"): x for alt, x in zip(universe, pool)})
    report = decide_single(s, DecisionConfig(aggregator=Aggregator.LINEAR, ranking_order=order))
    by_rank = sorted(report.rows, key=lambda r: r.rank)
    assert [r.apfdv for r in report.rows] == pool  # one unit weight: the cells themselves
    for upper, lower in zip(by_rank, by_rank[1:]):
        assert compare(upper.apfdv, lower.apfdv, order) is not Ordering.LESS
        if compare(upper.apfdv, lower.apfdv, order) is Ordering.EQUAL:
            assert (-upper.apfdv.m, upper.alternative) < (-lower.apfdv.m, lower.alternative)
