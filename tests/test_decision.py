"""The five-step decision procedure and its report invariants."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from phisoft import (
    Aggregator,
    AlternativeMeasures,
    CombineRule,
    DecisionConfig,
    OrderKind,
    Ordering,
    build,
    compare,
    decide,
    decide_single,
    decision,
    extended_intersection,
    equals,
)
from phisoft.pfn import (
    PFN, VALIDITY_EPS, PFNArray, accuracy, expectation_score, order_key, score,
)
from phisoft.errors import (
    DegenerateWeights,
    EmptyIntersection,
    InvalidConfig,
    NotPythagorean,
    OutOfRange,
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


@pytest.mark.parametrize("field, token, kind", [
    ("combine", "eunion", "a CombineRule"),
    ("aggregator", "linear", "an Aggregator"),
    ("ranking_order", "es", "an OrderKind"),
])
def test_config_refuses_a_token_in_place_of_its_enum(field, token, kind):
    with pytest.raises(InvalidConfig) as info:
        DecisionConfig(**{field: token})
    assert str(info.value) == f"{field}: expected {kind}, got {token!r}"


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


def test_a_set_with_no_parameters_has_nothing_to_weigh():
    bare = build(UNIVERSE, [], {})
    for run in (lambda: decide_single(bare), lambda: decide(bare, bare)):
        with pytest.raises(DegenerateWeights, match="^the set has no parameters to weigh$"):
            run()


def test_report_row_lookup(table1, table2):
    report = decide(table1, table2)
    assert report.row("p3").alternative == "p3"
    with pytest.raises(KeyError):
        report.row("p9")


# --- ranking and row contract pins ---------------------------------------

ORDERS = (OrderKind.ES_THEN_MEMBERSHIP, OrderKind.MEMBERSHIP_THEN_ES, OrderKind.SCORE_ACCURACY)
TIED_IDS = ("b10", "b9", "a\x00", "a", "A", "é")


def reference_ranks(universe, m, n, order):
    """Rank per alternative from one Python sort on 4-tuple keys: descending
    primary, descending tiebreak, larger membership, then id ascending."""
    primary, tiebreak = order_key(order, np.asarray(m), np.asarray(n))
    keys = list(zip((-primary).tolist(), (-tiebreak).tolist(), (-np.asarray(m)).tolist(), universe))
    ranks = [0] * len(keys)
    for rank, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__), 1):
        ranks[i] = rank
    return ranks


def _seeded_table(seed, grid):
    """A 2000×6 set with shuffled mixed-script ids.  With `grid`, every row
    is one of 20 rows of tenths, so about 100 alternatives tie exactly on
    all three numeric keys and the id decides among them."""
    rng = np.random.default_rng(seed)
    prefixes = ("a", "B", "b", "é", "Z", "z0", "_")
    universe = [f"{prefixes[k % len(prefixes)]}{k}" for k in range(2000)]
    universe = [universe[k] for k in rng.permutation(2000)]
    names = [f"c{j}" for j in range(6)]
    if grid:
        pick = rng.integers(0, 20, 2001)
        m = (rng.integers(0, 8, (20, 6)) / 10.0)[pick]
        n = (rng.integers(0, 8, (20, 6)) / 10.0)[pick]
    else:
        m = rng.random((2001, 6))
        n = rng.random((2001, 6)) * np.sqrt(1.0 - m * m)
    cells = {(alt, name): (m[i, j], n[i, j]) for i, alt in enumerate(universe) for j, name in enumerate(names)}
    return build(universe, [(name, (m[-1, j], n[-1, j])) for j, name in enumerate(names)], cells)


def _tied_table():
    """Identical rows: all three numeric keys tie exactly, ids decide."""
    cells = {(alt, name): (0.5, 0.5) for alt in TIED_IDS for name in ("c1", "c2")}
    return build(TIED_IDS, [("c1", (0.5, 0.4)), ("c2", (0.6, 0.3))], cells)


ZERO_ROWS = {
    "z1": [(0.0, 1.0), (0.0, 1.0)],
    "z2": [(0.0, 0.5), (0.0, 0.5)],
    "z3": [(1e-13, 1.0), (1e-13, 1.0)],
    "z4": [(0.5, 0.5), (0.5, 0.5)],
    "z5": [(0.0, 1.0), (0.0, 0.0)],
    "z6": [(1e-300, 1.0), (1e-300, 1.0)],
    "z7": [(0.3, 0.3), (0.4, 0.4)],
}


def _zero_table():
    """Rows whose primary key is 0 under the membership order, or within a
    COMPARE_EPS grid cell of it."""
    cells = {(alt, name): v for alt, vs in ZERO_ROWS.items() for name, v in zip(("c1", "c2"), vs)}
    return build(tuple(ZERO_ROWS), [("c1", (0.5, 0.4)), ("c2", (0.6, 0.3))], cells)


RANK_TABLES = {
    "seeded-2000x6": lambda: _seeded_table(3, grid=False),
    "seeded-2000x6-grid": lambda: _seeded_table(4, grid=True),
    "identical-rows": _tied_table,
    "zero-primary": _zero_table,
}


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
@pytest.mark.parametrize("aggregator", list(Aggregator), ids=lambda a: a.value)
@pytest.mark.parametrize("family", RANK_TABLES)
def test_ranks_equal_the_tuple_key_sort(family, aggregator, order):
    s = RANK_TABLES[family]()
    report = decide_single(s, DecisionConfig(aggregator=aggregator, ranking_order=order))
    m = [r.apfdv.m for r in report.rows]
    n = [r.apfdv.n for r in report.rows]
    assert [r.alternative for r in report.rows] == list(s.universe)
    assert [r.rank for r in report.rows] == reference_ranks(s.universe, m, n, order)


def test_identical_rows_rank_in_python_string_order():
    for aggregator in Aggregator:
        for order in ORDERS:
            report = decide_single(_tied_table(), DecisionConfig(aggregator=aggregator, ranking_order=order))
            assert report.ranking() == tuple(sorted(TIED_IDS)) == ("A", "a", "a\x00", "b10", "b9", "é")


def test_zero_primary_family_meets_both_signed_zeros(monkeypatch):
    # Both aggregators give an all-zero membership row +0.0, so the sort meets
    # -0.0 == 0.0 through a kernel that negates the zero memberships of every
    # other row, as the geometric operator's sqrt(-0.0) once did.
    order = OrderKind.MEMBERSHIP_THEN_ES
    signed = _signed_zeros(decision.pfwa_table)
    s = _zero_table()
    for aggregator in Aggregator:
        config = DecisionConfig(aggregator=aggregator, ranking_order=order)
        assert not any(np.signbit(r.apfdv.m) for r in decide_single(s, config).rows)
        with monkeypatch.context() as patched:
            patched.setattr(decision, "pfwa_table", signed)
            report = decide_single(s, config)
        m = np.array([r.apfdv.m for r in report.rows])
        n = np.array([r.apfdv.n for r in report.rows])
        zeros = order_key(order, m, n)[0][m == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert [r.rank for r in report.rows] == reference_ranks(s.universe, m, n, order)


def test_row_contract(table1, table2):
    report = decide(table1, table2)
    assert repr(report.rows[0]) == (
        "AlternativeMeasures(alternative='p1', apfdv=PFN(m=0.5171757691341456, n=0.643566361370471), "
        "es=0.4266465573459337, sf=-0.14670688530813253, af=0.6816484376671228, rank=3)"
    )
    assert AlternativeMeasures.__match_args__ == ("alternative", "apfdv", "es", "sf", "af", "rank")
    row = report.rows[0]
    for name in AlternativeMeasures.__match_args__:
        with pytest.raises(AttributeError):
            setattr(row, name, getattr(row, name))
    again = decide(table1, table2).rows[0]
    assert again is not row
    assert again == row and hash(again) == hash(row)
    assert report.rows[1] != row


# --- the APFDVs: one array check, then true PFNs with no constructor call ----

def _signed_zeros(kernel):
    """`kernel` with the zero memberships of every other row made -0.0."""
    def signed(m, n, weights, aggregator):
        out_m, out_n = kernel(m, n, weights, aggregator)
        return np.where((out_m == 0.0) & (np.arange(len(out_m)) % 2 == 0), -0.0, out_m), out_n
    return signed


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
@pytest.mark.parametrize("aggregator", list(Aggregator), ids=lambda a: a.value)
@pytest.mark.parametrize("family", [*RANK_TABLES, "zero-primary-signed"])
def test_apfdvs_are_frozen_pfns_equal_to_the_constructors(family, aggregator, order, monkeypatch):
    s = RANK_TABLES[family.removesuffix("-signed")]()
    kernel, seen = decision.pfwa_table, []
    if family.endswith("-signed"):
        kernel = _signed_zeros(kernel)

    def recorded(*args):
        seen.append(kernel(*args))
        return seen[-1]

    monkeypatch.setattr(decision, "pfwa_table", recorded)
    report = decide_single(s, DecisionConfig(aggregator=aggregator, ranking_order=order))
    (m, n), = seen
    if family.endswith("-signed"):
        assert np.signbit(m).any()
    # the rows as built before: one PFN constructor call per row
    x = PFNArray(m, n)
    es, sf, af = expectation_score(x), score(x), accuracy(x)
    ranks = reference_ranks(s.universe, m, n, order)
    built = list(map(PFN, m.tolist(), n.tolist()))
    assert list(report.rows) == list(map(AlternativeMeasures, s.universe, built, es.tolist(),
                                         sf.tolist(), af.tolist(), ranks))
    apfdvs = [r.apfdv for r in report.rows]
    assert all(type(v) is PFN for v in apfdvs)
    assert apfdvs == built and list(map(hash, apfdvs)) == list(map(hash, built))
    assert list(map(repr, apfdvs)) == list(map(repr, built))
    assert _bits([v.m for v in apfdvs]) == _bits(m) and _bits([v.n for v in apfdvs]) == _bits(n)
    for column, expected in (("es", es), ("sf", sf), ("af", af)):
        assert _bits([getattr(r, column) for r in report.rows]) == _bits(expected)
    unfrozen = 0
    for v in apfdvs:
        try:
            v.m = 0.5
        except FrozenInstanceError:
            continue
        unfrozen += 1
    assert unfrozen == 0


def test_a_valid_report_makes_no_pfn_constructor_call(monkeypatch):
    s = _seeded_table(5, grid=False)
    calls = []
    init = PFN.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PFN, "__init__", counted)
    assert PFN(0.5, 0.5) == PFN(0.5, 0.5) and len(calls) == 2  # the wrapper is in force
    calls.clear()
    for aggregator in Aggregator:
        report = decide_single(s, DecisionConfig(aggregator=aggregator))
        assert len(report.rows) == 2000
        assert calls == []


def _just_outside_the_disk():
    m = 0.6
    n = math.sqrt(1.0 + 2 * VALIDITY_EPS - m * m)
    assert n <= 1.0 and m * m + n * n > 1.0 + VALIDITY_EPS
    return m, n


@pytest.mark.parametrize("bad", [
    {3: (1.5, 0.2)},
    {3: (math.nan, 0.2)},
    {3: (0.2, math.nan)},
    {3: _just_outside_the_disk()},
    {2: _just_outside_the_disk(), 5: (1.5, 0.2)},
    {4: (-0.25, 0.2), 6: (math.nan, math.nan)},
], ids=["m-above-1", "m-nan", "n-nan", "off-the-disk", "two-bad-rows", "negative-then-nan"])
def test_a_bad_kernel_row_raises_what_the_constructor_raises(bad, monkeypatch):
    kernel = decision.pfwa_table

    def broken(*args):
        m, n = kernel(*args)
        m, n = m.copy(), n.copy()
        for k, (mk, nk) in bad.items():
            m[k], n[k] = mk, nk
        return m, n

    first = min(bad)
    with pytest.raises((OutOfRange, NotPythagorean)) as constructed:
        PFN(*bad[first])
    monkeypatch.setattr(decision, "pfwa_table", broken)
    s = _seeded_table(6, grid=False)
    for aggregator in Aggregator:
        with pytest.raises(type(constructed.value)) as raised:
            decide_single(s, DecisionConfig(aggregator=aggregator))
        assert type(raised.value) is type(constructed.value)
        assert str(raised.value) == str(constructed.value)
