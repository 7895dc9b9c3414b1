"""Weight derivation and the two weighted-averaging operators."""

import decimal
import fractions
import math

import numpy as np
import pytest

from phisoft import (
    PFN,
    Aggregator,
    CombineRule,
    DecisionConfig,
    PFParameter,
    WeightVector,
    build,
    decide,
    decide_single,
    extended_intersection,
    pfwa_fold,
    pfwa_geometric,
    pfwa_linear,
    weights_from_importances,
)
from phisoft import aggregation
from phisoft.aggregation import _CASCADE_MIN_ROWS, _row_sums, pfwa_table
from phisoft.errors import DegenerateWeights, LengthMismatch
from conftest import collections_started

PAPER_WEIGHTS = {
    "s1": 0.21001927,
    "s2": 0.12524085,
    "s3": 0.27938343,
    "s5": 0.14065510,
    "s6": 0.24470135,
}


def params(*pairs):
    return [PFParameter(name, PFN(*imp)) for name, imp in pairs]


def sample_pfns(rng, count):
    out = []
    while len(out) < count:
        m, n = rng.random(2)
        if m * m + n * n <= 1.0:
            out.append(PFN(m, n))
    return out


class TestWeights:
    def test_paper_weight_vector(self):
        ps = params(
            ("s1", (0.5, 0.4)),
            ("s2", (0.1, 0.6)),
            ("s3", (0.7, 0.2)),
            ("s5", (0.3, 0.6)),
            ("s6", (0.6, 0.3)),
        )
        w = weights_from_importances(ps)
        for value, (name, _) in zip(w, [(p.name, None) for p in ps]):
            assert value == pytest.approx(PAPER_WEIGHTS[name], abs=1e-6)
        assert weights_from_importances(iter(ps)) == w

    def test_single_parameter(self):
        w = weights_from_importances(params(("s1", (0.4, 0.2))))
        assert w.values == (1.0,)

    def test_equal_importances_split_evenly(self):
        w = weights_from_importances(params(("a", (0.6, 0.3)), ("b", (0.6, 0.3))))
        assert w.values == (0.5, 0.5)

    def test_degenerate_importances(self):
        with pytest.raises(DegenerateWeights):
            weights_from_importances(params(("a", (0.0, 1.0)), ("b", (0.0, 1.0))))
        with pytest.raises(DegenerateWeights):
            weights_from_importances([])

    def test_weight_vector_invariants(self):
        for values in ((0.6, 0.6), (1.2, -0.2), ()):
            with pytest.raises(DegenerateWeights) as info:
                WeightVector(values)
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("values", [(10**400,), (0.5, -10**400)], ids=["large", "negative"])
    def test_an_integer_beyond_double_range_is_a_degenerate_weight(self, values):
        with pytest.raises(DegenerateWeights) as raised:
            WeightVector(values)
        assert str(raised.value) == "weights must lie in [0, 1], got a number beyond float range"

    @pytest.mark.parametrize("values,shown", [
        ((None,), "None"), (("0.5", "0.5"), "'0.5'"), ((0.5, b"0.5"), "b'0.5'"),
        ((0.5, 1j), "1j"), ((None, 10**400), "None"),
    ], ids=["none", "numeric-text", "bytes", "complex", "first-of-two-faults"])
    def test_a_weight_that_is_not_a_real_number_is_degenerate(self, values, shown):
        with pytest.raises(DegenerateWeights) as raised:
            WeightVector(values)
        assert str(raised.value) == f"weights must be real numbers, got {shown}"

    def test_weights_of_other_number_types_are_read_as_float_reads_them(self):
        w = WeightVector([fractions.Fraction(1, 4), decimal.Decimal("0.5"), np.float16(0.25)])
        assert w.values == (0.25, 0.5, 0.25) and all(type(v) is float for v in w)

    def test_a_weight_vector_indexes_and_slices_its_values(self):
        w = WeightVector((0.25, 0.5, 0.25))
        assert (w[0], w[1], w[-1]) == (0.25, 0.5, 0.25)
        assert w[1:] == (0.5, 0.25)
        with pytest.raises(IndexError):
            w[3]


class TestLinear:
    def test_single_value(self):
        v = PFN(0.3, 0.8)
        assert pfwa_linear([v], WeightVector((1.0,))) == v

    def test_equal_values_are_a_fixed_point(self):
        v = PFN(0.5, 0.5)
        w = WeightVector((0.2, 0.3, 0.5))
        got = pfwa_linear([v, v, v], w)
        assert got.m == pytest.approx(v.m, abs=1e-12)
        assert got.n == pytest.approx(v.n, abs=1e-12)

    def test_midpoint(self):
        got = pfwa_linear([PFN(1, 0), PFN(0, 1)], WeightVector((0.5, 0.5)))
        assert got == PFN(0.5, 0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pfwa_linear([PFN(0.5, 0.5)], WeightVector((0.5, 0.5)))


class TestGeometric:
    def test_single_value(self):
        v = PFN(0.3, 0.8)
        got = pfwa_geometric([v], WeightVector((1.0,)))
        assert got.m == pytest.approx(v.m, abs=1e-12)
        assert got.n == pytest.approx(v.n, abs=1e-12)

    def test_golden_rows(self, table1, table2):
        combined = extended_intersection(table1, table2)
        w = weights_from_importances(combined.parameters)
        p3 = pfwa_geometric(combined.row("p3"), w)
        assert p3.m == pytest.approx(0.5156, abs=5e-4)
        assert p3.n == pytest.approx(0.4358, abs=5e-4)
        p4 = pfwa_geometric(combined.row("p4"), w)
        assert p4.m == pytest.approx(0.5554, abs=1e-3)
        assert p4.n == pytest.approx(0.3642, abs=1e-3)

    def test_zero_nonmembership_zeroes_the_product(self):
        got = pfwa_geometric(
            [PFN(0.5, 0.0), PFN(0.5, 0.5)], WeightVector((0.5, 0.5))
        )
        assert got.n == 0.0

    def test_full_membership_saturates(self):
        got = pfwa_geometric(
            [PFN(1.0, 0.0), PFN(0.2, 0.5)], WeightVector((0.5, 0.5))
        )
        assert got.m == 1.0

    def test_zero_weight_entries_are_inert(self):
        values = [PFN(0.9, 0.1), PFN(0.2, 0.2)]
        with_zero = pfwa_geometric(values, WeightVector((1.0, 0.0)))
        alone = pfwa_geometric(values[:1], WeightVector((1.0,)))
        assert with_zero == alone

    def test_matches_the_constructive_fold(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            k = int(rng.integers(1, 9))
            values = sample_pfns(rng, k)
            raw = rng.uniform(1e-3, 1.0, k)
            w = WeightVector(tuple(float(x) for x in raw / raw.sum()))
            closed = pfwa_geometric(values, w)
            folded = pfwa_fold(values, w)
            assert closed.m == pytest.approx(folded.m, abs=1e-9)
            assert closed.n == pytest.approx(folded.n, abs=1e-9)

    @pytest.mark.parametrize("weights", [np.empty(0), []], ids=["array", "list"])
    def test_folding_no_values_is_a_length_error(self, weights):
        # An empty WeightVector cannot be made, but the fold also takes weight
        # arrays; without the check, reduce of no terms raises a bare TypeError.
        with pytest.raises(LengthMismatch, match="^need at least one value$"):
            pfwa_fold([], weights)

    def test_boundedness(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            values = sample_pfns(rng, k)
            raw = rng.uniform(1e-3, 1.0, k)
            w = WeightVector(tuple(float(x) for x in raw / raw.sum()))
            got = pfwa_geometric(values, w)
            ms = [v.m for v in values]
            ns = [v.n for v in values]
            assert min(ms) - 1e-12 <= got.m <= max(ms) + 1e-12
            assert min(ns) - 1e-12 <= got.n <= max(ns) + 1e-12

    def test_idempotency(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            v = sample_pfns(rng, 1)[0]
            raw = rng.uniform(1e-3, 1.0, 4)
            w = WeightVector(tuple(float(x) for x in raw / raw.sum()))
            got = pfwa_geometric([v] * 4, w)
            assert got.m == pytest.approx(v.m, abs=1e-12)
            assert got.n == pytest.approx(v.n, abs=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            values = sample_pfns(rng, k)
            raw = rng.uniform(1e-3, 1.0, k)
            w = WeightVector(tuple(float(x) for x in raw / raw.sum()))
            base = pfwa_geometric(values, w)
            i = int(rng.integers(0, k))
            v = values[i]
            bumped = list(values)
            top_m = math.sqrt(max(0.0, 1.0 - v.n * v.n))
            bumped[i] = PFN(float(rng.uniform(v.m, top_m)), v.n)
            assert pfwa_geometric(bumped, w).m >= base.m
            bumped = list(values)
            top_n = math.sqrt(max(0.0, 1.0 - v.m * v.m))
            bumped[i] = PFN(v.m, float(rng.uniform(v.n, top_n)))
            assert pfwa_geometric(bumped, w).n >= base.n

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            values = sample_pfns(rng, k)
            raw = rng.uniform(1e-3, 1.0, k)
            w = tuple(float(x) for x in raw / raw.sum())
            perm = rng.permutation(k)
            shuffled_v = [values[i] for i in perm]
            shuffled_w = tuple(w[i] for i in perm)
            # fsum-based accumulation makes this exact, not just approximate
            assert pfwa_geometric(values, WeightVector(w)) == pfwa_geometric(
                shuffled_v, WeightVector(shuffled_w)
            )
            assert pfwa_linear(values, WeightVector(w)) == pfwa_linear(
                shuffled_v, WeightVector(shuffled_w)
            )


class TestApfdv:
    """The aggregated decision value of a row, as the report carries it."""

    def test_paper_row_p2(self, table1, table2):
        combined = extended_intersection(table1, table2)
        got = decide_single(combined).row("p2").apfdv
        assert got.m == pytest.approx(0.3601, abs=1e-3)
        assert got.n == pytest.approx(0.5271, abs=1e-3)

    def test_identical_cells_row(self):
        s = build(
            ["p1"],
            [("c1", (0.5, 0.4)), ("c2", (0.7, 0.2))],
            {("p1", "c1"): (0.3, 0.6), ("p1", "c2"): (0.3, 0.6)},
        )
        got = decide_single(s).row("p1").apfdv
        assert got.m == pytest.approx(0.3, abs=1e-12)
        assert got.n == pytest.approx(0.6, abs=1e-12)


def loop_linear(ms, ns, ws):
    """(m, n) of the componentwise weighted mean of one row, term by term."""
    return (
        min(math.fsum(w * m for m, w in zip(ms, ws)), 1.0),
        min(math.fsum(w * n for n, w in zip(ns, ws)), 1.0),
    )


def loop_geometric(ms, ns, ws):
    """(m, n) of the geometric weighted average of one row, term by term."""
    m_saturated = n_zero = False
    m_logs, n_logs = [], []
    for m, n, w in zip(ms, ns, ws):
        if w == 0.0:
            continue
        if m * m == 1.0:
            m_saturated = True
        else:
            m_logs.append(w * math.log1p(-(m * m)))
        if n == 0.0:
            n_zero = True
        else:
            n_logs.append(w * math.log(n))
    return (
        1.0 if m_saturated else math.sqrt(-math.expm1(math.fsum(m_logs))),
        0.0 if n_zero else math.exp(math.fsum(n_logs)),
    )


LOOPS = {Aggregator.GEOMETRIC: loop_geometric, Aggregator.LINEAR: loop_linear}


def edge_table(rng, rows, cols):
    """A random table with saturated, n = 0, m = 0 and (0, 1) entries, a
    zero-weight first column (if there are two), and weights from a random
    importance row, normalized the way `decide` does it."""
    m = np.empty((rows + 1, cols))
    n = np.empty((rows + 1, cols))
    for k, v in enumerate(sample_pfns(rng, m.size)):
        m.flat[k], n.flat[k] = v.m, v.n
    for value, share in (((1.0, 0.0), 0.03), ((0.6, 0.0), 0.03), ((0.0, 0.8), 0.03),
                         ((0.0, 1.0), 0.02)):
        hit = rng.random(m.shape) < share
        m[hit], n[hit] = value
    m[0], n[0] = 0.0, 1.0
    m[-1, 0], n[-1, 0] = (0.0, 1.0) if cols > 1 else (0.5, 0.5)
    scores = [(a * a - b * b + 1.0) / 2.0 for a, b in zip(m[-1].tolist(), n[-1].tolist())]
    total = math.fsum(scores)
    return m[:-1], n[:-1], WeightVector(tuple(x / total for x in scores))


class TestTableKernel:
    """`pfwa_table` is the one implementation behind both operators."""

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_matches_the_loop_bit_for_bit(self, aggregator):
        rng = np.random.default_rng(31)
        for shape in ((1, 1), (1, 6), (3, 3), (40, 7), (300, 12)):
            m, n, w = edge_table(rng, *shape)
            got_m, got_n = pfwa_table(m, n, w, aggregator)
            expected = [LOOPS[aggregator](ms, ns, w.values)
                        for ms, ns in zip(m.tolist(), n.tolist())]
            assert list(zip(got_m.tolist(), got_n.tolist())) == expected

    def test_closed_forms_at_the_edges(self):
        w = WeightVector((0.25, 0.25, 0.5, 0.0))
        m = np.array([[1.0, 0.3, 0.5, 0.2], [0.3, 0.4, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0]])
        n = np.array([[0.0, 0.5, 0.6, 0.9], [0.5, 0.6, 0.7, 0.0], [1.0, 1.0, 1.0, 1.0]])
        got_m, got_n = pfwa_table(m, n, w, Aggregator.GEOMETRIC)
        # A saturated cell gives membership 1, an n = 0 cell non-membership 0.
        assert got_m[0] == 1.0 and got_n[0] == 0.0
        # Entries of a zero-weight column, saturated or not, change nothing.
        assert got_m[1] == math.sqrt(-math.expm1(math.fsum(
            [0.25 * math.log1p(-0.3 * 0.3), 0.25 * math.log1p(-0.4 * 0.4),
             0.5 * math.log1p(-0.5 * 0.5)])))
        assert got_n[1] == math.exp(math.fsum(
            [0.25 * math.log(0.5), 0.25 * math.log(0.6), 0.5 * math.log(0.7)]))
        # An all-(0, 1) row aggregates to (+0.0, 1.0), though sqrt(-expm1(0.0)) is sqrt(-0.0).
        assert math.copysign(1.0, got_m[2]) == 1.0 and got_m[2] == 0.0 and got_n[2] == 1.0

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_rows_are_independent(self, aggregator):
        m, n, w = edge_table(np.random.default_rng(32), 60, 9)
        whole = pfwa_table(m, n, w, aggregator)
        for lo, hi in ((0, 1), (5, 6), (10, 37), (59, 60)):
            part = pfwa_table(m[lo:hi], n[lo:hi], w, aggregator)
            assert part[0].tobytes() == whole[0][lo:hi].tobytes()
            assert part[1].tobytes() == whole[1][lo:hi].tobytes()

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_column_permutations_change_nothing(self, aggregator):
        rng = np.random.default_rng(33)
        m, n, w = edge_table(rng, 80, 8)
        whole = pfwa_table(m, n, w, aggregator)
        for _ in range(10):
            perm = rng.permutation(8)
            shuffled = WeightVector(tuple(w.values[j] for j in perm))
            got = pfwa_table(m[:, perm], n[:, perm], shuffled, aggregator)
            assert got[0].tobytes() == whole[0].tobytes()
            assert got[1].tobytes() == whole[1].tobytes()

    def test_every_row_matches_the_fold(self):
        """`pfwa_geometric` is the one-row case; here the rows come at once."""
        rng = np.random.default_rng(34)
        for rows, cols in ((1, 1), (1, 7), (200, 6)):
            values = sample_pfns(rng, rows * cols)
            m = np.array([v.m for v in values]).reshape(rows, cols)
            n = np.array([v.n for v in values]).reshape(rows, cols)
            raw = rng.uniform(1e-3, 1.0, cols)
            w = WeightVector(tuple(float(x) for x in raw / raw.sum()))
            got_m, got_n = pfwa_table(m, n, w, Aggregator.GEOMETRIC)
            for i in range(rows):
                folded = pfwa_fold(values[i * cols:(i + 1) * cols], w)
                assert got_m[i] == pytest.approx(folded.m, abs=1e-9)
                assert got_n[i] == pytest.approx(folded.n, abs=1e-9)

    def test_linear_rows_of_ones_stay_valid(self):
        """Weights that sum to 1 + ulp must not lift a (0, 1) row above n = 1."""
        importances = [("c0", (0.5, 0.1)), ("c1", (0.3, 0.3)), ("c2", (0.1, 0.7))]
        w = weights_from_importances(params(*importances))
        assert math.fsum(w.values) > 1.0
        names = [name for name, _ in importances]
        s = build(
            ["p1", "p2"],
            importances,
            {**{("p1", c): (0.0, 1.0) for c in names}, **{("p2", c): (1.0, 0.0) for c in names}},
        )
        report = decide_single(s, DecisionConfig(aggregator=Aggregator.LINEAR))
        assert report.row("p1").apfdv == PFN(0.0, 1.0)
        assert report.row("p2").apfdv == PFN(1.0, 0.0)


def positive_weight_rows(rng, rows, cols):
    """One WeightVector per row, every weight positive."""
    raw = rng.uniform(1e-3, 1.0, (rows, cols))
    return [WeightVector(tuple((r / r.sum()).tolist())) for r in raw]


OPERATORS = {Aggregator.GEOMETRIC: pfwa_geometric, Aggregator.LINEAR: pfwa_linear}


class TestPerRowWeights:
    """`pfwa_table` takes one weight row for the table or one per table row."""

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_a_repeated_row_is_the_one_row_call(self, aggregator):
        rng = np.random.default_rng(35)
        for rows, cols in ((1, 1), (7, 2), (120, 9)):
            m, n, zero_first = edge_table(rng, rows, cols)
            for w in (zero_first, positive_weight_rows(rng, 1, cols)[0]):
                one = pfwa_table(m, n, w.values, aggregator)
                each = pfwa_table(m, n, np.tile(w.values, (rows, 1)), aggregator)
                assert each[0].tobytes() == one[0].tobytes()
                assert each[1].tobytes() == one[1].tobytes()

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_each_row_is_its_own_one_row_call(self, aggregator):
        rng = np.random.default_rng(36)
        m, n, _ = edge_table(rng, 150, 6)
        rows = positive_weight_rows(rng, 150, 6)
        got_m, got_n = pfwa_table(m, n, np.array([w.values for w in rows]), aggregator)
        for i, w in enumerate(rows):
            one = OPERATORS[aggregator](list(map(PFN, m[i].tolist(), n[i].tolist())), w)
            assert np.array([got_m[i], got_n[i]]).tobytes() == np.array([one.m, one.n]).tobytes()

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_a_zero_in_a_weighted_column_raises(self, aggregator):
        rng = np.random.default_rng(37)
        m, n, _ = edge_table(rng, 4, 3)
        w = np.array([r.values for r in positive_weight_rows(rng, 4, 3)])
        w[:, 0] = 0.0  # zero in every row: the column is dropped
        pfwa_table(m, n, w, aggregator)
        w[2, 1] = 0.0  # zero in one row of a column the others weight
        with pytest.raises(DegenerateWeights, match="zero weight"):
            pfwa_table(m, n, w, aggregator)


class TestMemoryLayout:
    """`pfwa_table` gives the same bits on non-contiguous inputs as on their
    contiguous copies: it transposes them into arrays of its own."""

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    @pytest.mark.parametrize("rows", [_CASCADE_MIN_ROWS - 1, 3 * _CASCADE_MIN_ROWS])
    def test_strided_tables_and_transposed_weights(self, aggregator, rows):
        # edge_table's row 0 is all (0, 1), some cells are saturated or have
        # n = 0 (the poles), and its first column has weight 0.
        m, n, shared = edge_table(np.random.default_rng(49), rows, 9)
        wide_m, wide_n = np.zeros((rows, 18)), np.zeros((rows, 18))
        wide_m[:, ::2], wide_n[:, ::2] = m, n
        m_view, n_view = wide_m[:, ::2], wide_n[:, ::2]
        per_row = np.array([w.values for w in positive_weight_rows(np.random.default_rng(50), rows, 9)])
        per_row[:, 0] = 0.0
        per_row_view = np.ascontiguousarray(per_row.T).T
        assert not (m_view.flags.contiguous or per_row_view.flags.c_contiguous)
        for w, w_view in ((shared.values, shared.values), (per_row, per_row_view)):
            expected = pfwa_table(m, n, w, aggregator)
            for args in ((m_view, n_view, w_view), (m, n, w_view), (m_view, n_view, w)):
                got = pfwa_table(*args, aggregator)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("aggregator", list(Aggregator))
def test_rows_are_summed_without_a_list_per_row(aggregator):
    """A list per row made a 20000 x 8 call run dozens of cyclic collections."""
    rng = np.random.default_rng(7)
    m, n = tall_pfns(rng, 20000, 8)
    w = positive_weight_rows(rng, 1, 8)[0].values
    assert len(collections_started(lambda: pfwa_table(m, n, w, aggregator))) <= 5


#: Each `math` function the geometric kernel calls, and its exact value at a
#: Decimal x in the current context.
LIBM_EXACT = {
    "log1p": lambda x: (1 + x).ln(),
    "log": lambda x: x.ln(),
    "expm1": lambda x: x.exp() - 1,
    "exp": lambda x: x.exp(),
}


def test_the_kernels_libm_values_are_within_one_ulp(table1, table2, monkeypatch):
    """Every finite nonzero value the geometric kernel takes from libm's
    log1p, log, expm1 and exp is within 1 ulp of `decimal` at 50 digits,
    on the paper pair under each rule and on a seeded table.  pfwa_table
    looks the functions up at call time, so spies on `math` see each call."""
    seen = {name: [] for name in LIBM_EXACT}

    def spy(name, fn):
        def recorded(x):
            y = fn(x)
            seen[name].append((x, y))
            return y
        return recorded

    for name in LIBM_EXACT:
        monkeypatch.setattr(math, name, spy(name, getattr(math, name)))
    for rule in CombineRule:
        decide(table1, table2, DecisionConfig(combine=rule))
    rng = np.random.default_rng(61)
    m, n = tall_pfns(rng, 1000, 8)
    pfwa_table(m, n, positive_weight_rows(rng, 1, 8)[0].values, Aggregator.GEOMETRIC)
    monkeypatch.undo()
    with decimal.localcontext() as context:
        context.prec = 50
        for name, exact in LIBM_EXACT.items():
            pairs = [(x, y) for x, y in seen[name] if math.isfinite(y) and y != 0.0]
            assert len(pairs) >= (7000 if name.startswith("log") else 1000)
            ulps = [abs(decimal.Decimal(y) - exact(decimal.Decimal(x))) / decimal.Decimal(math.ulp(y))
                    for x, y in pairs]
            assert max(ulps) <= 1, name


def fsum_rows(terms):
    """The reference: `math.fsum` of each row, one call per row."""
    return np.array([math.fsum(row) for row in terms.tolist()], np.float64)


def tall_pfns(rng, rows, cols, decimals=None):
    """(m, n) tables of PFNs spread over the quarter disk, optionally rounded
    to a decimal grid as CSV input is."""
    radius, angle = np.sqrt(rng.random((rows, cols))), rng.random((rows, cols)) * (math.pi / 2)
    m, n = radius * np.cos(angle), radius * np.sin(angle)
    if decimals is not None:
        m, n = np.floor(m * 10**decimals) / 10**decimals, np.floor(n * 10**decimals) / 10**decimals
    return m, n


#: Rows on which a cheap sum and the correctly rounded one part, or where
#: fsum has a rule of its own; each is cut or padded with zeros to a width.
ADVERSARIAL_ROWS = (
    [1.0, 2.0**-53],                        # an exact tie, to even: 1.0
    [1.0 + 2.0**-52, 2.0**-53],             # an exact tie, to even: up
    [1.0, 2.0**-53, 2.0**-100],             # a tie plus a tiny term: up
    [1.5, 2.0**-53, 2.0**-120],             # the same, with the tiny term lost in e
    [1.5, 2.0**-53 - 2.0**-106, *[2.0**-108] * 5],  # e rounds 5 terms away: up
    [1.0, -(2.0**-54), -(2.0**-130)],       # below a power of two, the tiny term lost in e
    [-0.0, -0.0, -0.0],
    [0.0, -0.0, -0.0],
    [-0.0, 0.0, -0.0],
    [5e-324, 5e-324, -5e-324],              # subnormals
    [2.0**-1022, -5e-324, 2.0**-1074],
    [1e300, -1e300, 1e-300],                # x, -x, tiny
    [0.1, 0.2, -0.3],
    [0.5, -math.inf, 0.25],                 # a geometric pole row
    [-math.inf, -math.inf, 1.0],
    [2.0**53, 1.0, -(2.0**53)],
    [1.0, 1e-16, 1e-16, 1e-16, 1e-16],
)


class TestRowSums:
    """`_row_sums` is `math.fsum` of each row, bit for bit, and cheap where
    it can be: the cascade settles nearly every row of a tall table."""

    @pytest.mark.parametrize("width", [1, 2, 3, 60])
    @pytest.mark.parametrize("rows", [_CASCADE_MIN_ROWS - 1, _CASCADE_MIN_ROWS, 3 * _CASCADE_MIN_ROWS])
    def test_adversarial_rows_bit_for_bit(self, rows, width):
        rng = np.random.default_rng(41)
        terms = rng.standard_normal((rows, width)) * 2.0 ** rng.integers(-60, 60, (rows, width))
        for i, row in enumerate(ADVERSARIAL_ROWS):
            cut = (row + [0.0] * width)[:width]
            terms[2 * i] = cut
            terms[rows - 1 - 2 * i] = cut[::-1]
        assert _row_sums(terms).tobytes() == fsum_rows(terms).tobytes()

    def test_overflow_raises_as_fsum_does(self):
        terms = np.zeros((_CASCADE_MIN_ROWS, 3))
        terms[5] = [1.7e308, 1.7e308, -1.7e308]
        with pytest.raises(OverflowError):
            _row_sums(terms)

    @pytest.mark.parametrize("decimals", [None, 2])
    def test_seeded_tall_term_tables_bit_for_bit(self, decimals):
        """Both aggregators' term shapes: m*w, w*log1p(-m*m) and w*log n."""
        rng = np.random.default_rng(42)
        m, n = tall_pfns(rng, 100_000, 8, decimals)
        w = np.array(positive_weight_rows(rng, 1, 8)[0].values)
        with np.errstate(divide="ignore"):
            for terms in (m * w, w * np.log1p(-(m * m)), w * np.log(n)):
                assert _row_sums(terms).tobytes() == fsum_rows(terms).tobytes()

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_tall_tables_match_the_loop_bit_for_bit(self, aggregator):
        rng = np.random.default_rng(43)
        for rows, cols, decimals in ((20_000, 8, None), (5000, 8, 2), (2000, 60, 4)):
            m, n = tall_pfns(rng, rows, cols, decimals)
            w = positive_weight_rows(rng, 1, cols)[0].values
            got = pfwa_table(m, n, w, aggregator)
            expected = np.array([LOOPS[aggregator](ms, ns, w)
                                 for ms, ns in zip(m.tolist(), n.tolist())])
            assert got[0].tobytes() == expected[:, 0].tobytes()
            assert got[1].tobytes() == expected[:, 1].tobytes()

    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_the_cascade_settles_nearly_every_row(self, aggregator, monkeypatch):
        """Only rows the cascade cannot certify reach fsum, so a cascade that
        certified nothing fails here though it would match fsum everywhere."""
        fsums, summed = aggregation._fsums, []

        def counted(terms):
            summed.append(len(terms))
            return fsums(terms)

        monkeypatch.setattr(aggregation, "_fsums", counted)
        rng = np.random.default_rng(44)
        m, n = tall_pfns(rng, 20_000, 8)
        pfwa_table(m, n, positive_weight_rows(rng, 1, 8)[0].values, aggregator)
        assert sum(summed) < 0.05 * 2 * 20_000
        summed.clear()
        pfwa_table(m[: _CASCADE_MIN_ROWS - 1], n[: _CASCADE_MIN_ROWS - 1],
                   positive_weight_rows(rng, 1, 8)[0].values, aggregator)
        assert summed == [_CASCADE_MIN_ROWS - 1] * 2

    @pytest.mark.parametrize("width", [1, 2, 3, 60])
    @pytest.mark.parametrize("rows", [_CASCADE_MIN_ROWS - 1, 3 * _CASCADE_MIN_ROWS])
    def test_every_memory_layout_gives_the_same_bits(self, rows, width):
        """A C-ordered table, its Fortran-ordered copy, the transpose of a
        C-ordered P x A array (as the kernel passes its terms) and a strided
        column view all sum to the same bits, which are fsum's."""
        rng = np.random.default_rng(48)
        terms = rng.standard_normal((rows, width)) * 2.0 ** rng.integers(-60, 60, (rows, width))
        for i, row in enumerate(ADVERSARIAL_ROWS):
            terms[3 * i] = (row + [0.0] * width)[:width]
        wide = np.zeros((rows, 3 * width))
        wide[:, 2::3] = terms
        layouts = (np.asfortranarray(terms), np.ascontiguousarray(terms.T).T, wide[:, 2::3])
        expected = fsum_rows(terms).tobytes()
        for layout in (terms, *layouts):
            assert _row_sums(layout).tobytes() == expected

    @pytest.mark.parametrize("shape", ["random", "decimals", "log"])
    def test_two_columns_reach_fsum_only_at_zero_or_non_finite(self, shape, monkeypatch):
        """At width 2 the cascade's error sum is the one TwoSum error, exact,
        so every finite nonzero sum is certified, ties included; only r == 0
        and non-finite rows reach fsum."""
        fsums, summed = aggregation._fsums, []

        def recorded(terms):
            summed.append(terms.copy())
            return fsums(terms)

        monkeypatch.setattr(aggregation, "_fsums", recorded)
        rng = np.random.default_rng(46)
        m, n = tall_pfns(rng, 5000, 2, 2 if shape == "decimals" else None)
        w = np.array(positive_weight_rows(rng, 1, 2)[0].values)
        with np.errstate(divide="ignore"):
            terms = w * np.log(n) if shape == "log" else m * w
        terms[[0, 7, 99]] = [[0.25, -0.25], [0.0, -0.0], [-0.0, -0.0]]
        terms[[5, 600]] = [[-math.inf, 0.5], [-math.inf, -math.inf]]
        assert _row_sums(terms).tobytes() == fsum_rows(terms).tobytes()
        with np.errstate(invalid="ignore"):
            r = terms[:, 0] + terms[:, 1]
        (reached,) = summed
        assert reached.tobytes() == terms[~np.isfinite(r) | (r == 0.0)].tobytes()
        assert len(reached) >= 5
