"""The five-step decision procedure and its report invariants."""

import pytest

from phisoft import (
    Aggregator,
    CombineRule,
    DecisionConfig,
    OrderKind,
    Ordering,
    build,
    compare,
    decide,
    decide_single,
    extended_intersection,
    equals,
)
from phisoft.errors import (
    DegenerateWeights,
    EmptyIntersection,
    InvalidConfig,
    PhiSoftError,
    UniverseMismatch,
)
from conftest import TABLE1_PARAMS, UNIVERSE


def test_default_config_reproduces_the_worked_ranking(table1, table2):
    report = decide(table1, table2)
    assert report.ranking() == ("p4", "p3", "p1", "p2")
    assert report.optimal() == "p4"
    assert [r.rank for r in report.rows] == [3, 4, 2, 1]


def test_report_measures_are_consistent(table1, table2):
    report = decide(table1, table2)
    for r in report.rows:
        assert r.es == pytest.approx((r.sf + 1.0) / 2.0, abs=1e-15)
        assert r.af >= abs(r.sf) - 1e-15
        assert r.es == pytest.approx(
            (r.apfdv.m ** 2 - r.apfdv.n ** 2 + 1.0) / 2.0, abs=1e-12
        )


def test_ranking_is_a_descending_sort(table1, table2):
    config = DecisionConfig()
    report = decide(table1, table2, config)
    by_rank = sorted(report.rows, key=lambda r: r.rank)
    for upper, lower in zip(by_rank, by_rank[1:]):
        verdict = compare(upper.apfdv, lower.apfdv, config.ranking_order)
        assert verdict in (Ordering.GREATER, Ordering.EQUAL)


def test_report_carries_the_combined_set(table1, table2):
    report = decide(table1, table2)
    assert equals(report.combined, extended_intersection(table1, table2))
    assert len(report.weights) == 5


def test_paper_es_column(table1, table2):
    report = decide(table1, table2)
    assert report.row("p2").es == pytest.approx(0.4259188, abs=5e-4)
    assert report.row("p3").es == pytest.approx(0.53796086, abs=5e-4)
    assert report.row("p4").es == pytest.approx(0.58791376, abs=5e-4)


def test_combining_a_set_with_itself_changes_nothing(table1):
    paired = decide(table1, table1)
    single = decide_single(table1)
    assert paired.ranking() == single.ranking()
    for alt in UNIVERSE:
        assert paired.row(alt).apfdv == single.row(alt).apfdv


def test_decide_single_matches_decide_on_the_combined_set(table1, table2):
    combined = extended_intersection(table1, table2)
    via_pair = decide(table1, table2)
    via_single = decide_single(combined)
    assert via_single.ranking() == via_pair.ranking()
    for alt in UNIVERSE:
        a = via_pair.row(alt)
        b = via_single.row(alt)
        assert a.apfdv == b.apfdv
        assert a.rank == b.rank


def test_argument_order_does_not_matter(table1, table2):
    fwd = decide(table1, table2)
    rev = decide(table2, table1)
    assert fwd.ranking() == rev.ranking()
    for alt in UNIVERSE:
        assert fwd.row(alt).apfdv.m == pytest.approx(rev.row(alt).apfdv.m, abs=1e-12)
        assert fwd.row(alt).apfdv.n == pytest.approx(rev.row(alt).apfdv.n, abs=1e-12)


def test_universe_permutation_changes_nothing(table1, table2):
    from conftest import TABLE1_CELLS, TABLE2_CELLS, TABLE2_PARAMS

    shuffled = ("p3", "p1", "p4", "p2")
    a = build(shuffled, TABLE1_PARAMS, TABLE1_CELLS)
    b = build(shuffled, TABLE2_PARAMS, TABLE2_CELLS)
    base = decide(table1, table2)
    moved = decide(a, b)
    assert moved.ranking() == base.ranking()
    for alt in UNIVERSE:
        assert moved.row(alt).apfdv == base.row(alt).apfdv
        assert moved.row(alt).rank == base.row(alt).rank


def test_single_alternative(table1):
    sub = build(["p1"], TABLE1_PARAMS, {
        ("p1", name): table1.cell("p1", name) for name in table1.parameter_names
    })
    report = decide_single(sub)
    assert report.ranking() == ("p1",)
    assert report.rows[0].rank == 1
    paired = decide(sub, sub)
    assert paired.ranking() == ("p1",)
    assert paired.optimal() == "p1"


def test_identical_rows_tie_break_deterministically():
    cells = {
        (alt, name): (0.5, 0.5)
        for alt in ("b2", "a1")
        for name in ("c1", "c2")
    }
    s = build(("b2", "a1"), [("c1", (0.5, 0.4)), ("c2", (0.6, 0.3))], cells)
    report = decide_single(s)
    # identical decision values: lexicographic id order breaks the tie
    assert report.ranking() == ("a1", "b2")


def test_tie_break_prefers_larger_membership():
    # same expectation score, different membership: ES order ties first key
    cells = {
        ("x", "c1"): (0.2, 0.2),
        ("y", "c1"): (0.5, 0.5),
    }
    s = build(("x", "y"), [("c1", (0.5, 0.4))], cells)
    report = decide_single(s, DecisionConfig(ranking_order=OrderKind.ES_THEN_MEMBERSHIP))
    assert report.ranking() == ("y", "x")


def test_aggregator_and_combine_options(table1, table2):
    for rule in CombineRule:
        for agg in Aggregator:
            report = decide(table1, table2, DecisionConfig(combine=rule, aggregator=agg))
            assert sorted(r.rank for r in report.rows) == [1, 2, 3, 4]


def test_ranking_orders_can_change_the_result():
    # x has the larger membership, y the larger expectation score
    cells = {
        ("x", "c1"): (0.5, 0.86),
        ("y", "c1"): (0.4, 0.1),
    }
    s = build(("x", "y"), [("c1", (0.5, 0.4))], cells)
    by_m = decide_single(s, DecisionConfig(ranking_order=OrderKind.MEMBERSHIP_THEN_ES))
    by_es = decide_single(s, DecisionConfig(ranking_order=OrderKind.ES_THEN_MEMBERSHIP))
    assert by_m.ranking() == ("x", "y")
    assert by_es.ranking() == ("y", "x")


def test_lattice_order_is_rejected_in_config():
    with pytest.raises(InvalidConfig, match="ranking_order") as info:
        DecisionConfig(ranking_order=OrderKind.LATTICE)
    assert isinstance(info.value, PhiSoftError) and isinstance(info.value, ValueError)


def test_errors_propagate(table1, table2):
    other = build(["q1"], TABLE1_PARAMS, {
        ("q1", name): (0.5, 0.5) for name, _ in TABLE1_PARAMS
    })
    with pytest.raises(UniverseMismatch):
        decide(table1, other)

    disjoint = build(UNIVERSE, [("z9", (0.5, 0.4))], {
        (alt, "z9"): (0.4, 0.4) for alt in UNIVERSE
    })
    with pytest.raises(EmptyIntersection):
        decide(table1, disjoint, DecisionConfig(combine=CombineRule.RESTRICTED_UNION))

    dead = build(UNIVERSE, [("z9", (0.0, 1.0))], {
        (alt, "z9"): (0.4, 0.4) for alt in UNIVERSE
    })
    with pytest.raises(DegenerateWeights):
        decide_single(dead)


def test_report_row_lookup(table1, table2):
    report = decide(table1, table2)
    assert report.row("p3").alternative == "p3"
    with pytest.raises(KeyError):
        report.row("p9")
