"""Unit tests for the PFN value type, its algebra, and the orders."""

import math

import numpy as np
import pytest

from phisoft import (
    PFN,
    OrderKind,
    Ordering,
    accuracy,
    add_p,
    compare,
    complement,
    expectation_score,
    indeterminacy,
    join,
    meet,
    mul_p,
    pfn_from_text,
    pfn_to_text,
    power,
    scalar_mul,
    score,
)
from phisoft.errors import (
    NonPositiveScalar,
    NotPythagorean,
    OutOfRange,
    ParseError,
)
from phisoft.pfn import PFNArray, below, valid
from phisoft.pfn import close as pfn_close

EPS = 1e-12


def close(a: PFN, b: PFN, tol: float = EPS) -> bool:
    return abs(a.m - b.m) <= tol and abs(a.n - b.n) <= tol


class TestConstruction:
    def test_accepts_the_pythagorean_region(self):
        assert PFN(0.7, 0.7) == PFN(0.7, 0.7)  # 0.49 + 0.49 <= 1
        assert PFN(1.0, 0.0).m == 1.0
        assert PFN(0.0, 0.0).n == 0.0

    def test_rejects_non_pythagorean_pairs(self):
        with pytest.raises(NotPythagorean):
            PFN(0.9, 0.9)

    def test_rejects_out_of_range_components(self):
        for m, n in [(-0.1, 0.5), (0.5, 1.1), (1.2, 0.0), (0.3, -0.2)]:
            with pytest.raises(OutOfRange):
                PFN(m, n)
        with pytest.raises(OutOfRange):
            PFN(float("nan"), 0.5)

    def test_coerces_ints(self):
        x = PFN(1, 0)
        assert isinstance(x.m, float) and x.m == 1.0


class TestBasicOps:
    def test_indeterminacy(self):
        assert indeterminacy(PFN(1.0, 0.0)) == 0.0
        assert indeterminacy(PFN(0.0, 0.0)) == 1.0
        expected = math.sqrt(1 - 0.5**2 - 0.4**2)
        assert indeterminacy(PFN(0.5, 0.4)) == pytest.approx(expected, abs=1e-15)
        assert indeterminacy(PFN(0.5, 0.4)) == pytest.approx(0.768115, abs=1e-6)

    def test_complement_swaps_and_involutes(self):
        assert complement(PFN(0.5, 0.4)) == PFN(0.4, 0.5)
        assert complement(PFN(0.0, 1.0)) == PFN(1.0, 0.0)
        x = PFN(0.3, 0.8)
        assert complement(complement(x)) == x

    def test_join_meet(self):
        a, b = PFN(0.5, 0.4), PFN(0.7, 0.2)
        assert join(a, b) == PFN(0.7, 0.2)
        assert meet(a, b) == PFN(0.5, 0.4)
        assert join(a, a) == a
        assert meet(b, b) == b


class TestArithmetic:
    def test_add_absorbing_and_identity(self):
        one, zero = PFN(1.0, 0.0), PFN(0.0, 1.0)
        for x in [PFN(0.3, 0.4), PFN(0.9, 0.1), zero, one]:
            assert add_p(one, x) == one
            assert close(add_p(zero, x), x)

    def test_add_direct_arithmetic(self):
        # sqrt(0.36 + 0.16 - 0.0576) = sqrt(0.4624) = 0.68 exactly
        got = add_p(PFN(0.6, 0.5), PFN(0.4, 0.7))
        assert got.m == pytest.approx(0.68, abs=1e-15)
        assert got.n == pytest.approx(0.35, abs=1e-15)

    def test_mul_identity_and_absorbing(self):
        one, zero = PFN(1.0, 0.0), PFN(0.0, 1.0)
        for x in [PFN(0.3, 0.4), PFN(0.9, 0.1), zero, one]:
            assert close(mul_p(one, x), x)
            assert mul_p(zero, x) == zero

    def test_mul_is_dual_to_add(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m1, n1, m2, n2 = rng.random(4)
            if m1 * m1 + n1 * n1 > 1 or m2 * m2 + n2 * n2 > 1:
                continue
            a, b = PFN(m1, n1), PFN(m2, n2)
            assert mul_p(a, b) == complement(add_p(complement(a), complement(b)))

    def test_scalar_mul(self):
        x = PFN(0.6, 0.5)
        assert close(scalar_mul(1.0, x), x)
        assert close(scalar_mul(2.0, x), add_p(x, x))
        half = scalar_mul(0.5, x)
        assert half.m == pytest.approx(math.sqrt(1 - 0.8), abs=1e-12)
        assert half.n == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_power(self):
        x = PFN(0.6, 0.5)
        assert close(power(x, 1.0), x)
        assert power(PFN(1.0, 0.0), 3.7) == PFN(1.0, 0.0)
        assert close(power(x, 2.0), mul_p(x, x))
        # power is the complement-conjugate of scalar_mul
        assert power(x, 0.3) == complement(scalar_mul(0.3, complement(x)))

    def test_rejects_non_positive_scalars(self):
        x = PFN(0.5, 0.5)
        for alpha in (0.0, -1.0):
            with pytest.raises(NonPositiveScalar):
                scalar_mul(alpha, x)
            with pytest.raises(NonPositiveScalar):
                power(x, alpha)


class TestScoreFunctions:
    def test_score_pair_from_the_tie_example(self):
        assert score(PFN(0.481, 0.402)) == pytest.approx(0.069757, abs=1e-9)
        assert score(PFN(0.527, 0.456)) == pytest.approx(0.069793, abs=1e-9)

    def test_score_symmetry(self):
        for a in (0.0, 0.2, 0.5, 0.7071):
            assert score(PFN(a, a)) == 0.0

    def test_accuracy(self):
        assert accuracy(PFN(1.0, 0.0)) == 1.0
        assert accuracy(PFN(0.0, 0.0)) == 0.0
        assert accuracy(PFN(0.6314, 0.6434)) == pytest.approx(0.81262952, abs=1e-9)

    def test_expectation_score_bounds(self):
        assert expectation_score(PFN(0.0, 1.0)) == 0.0
        assert expectation_score(PFN(1.0, 0.0)) == 1.0

    def test_expectation_score_table_values(self):
        assert expectation_score(PFN(0.5, 0.4)) == pytest.approx(0.545, abs=1e-15)
        assert expectation_score(PFN(0.3, 0.6)) == pytest.approx(0.365, abs=1e-15)

    def test_expectation_score_is_affine_in_score(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            m, n = rng.random(2)
            if m * m + n * n > 1:
                continue
            x = PFN(m, n)
            assert expectation_score(x) == (score(x) + 1.0) / 2.0

    def test_expectation_score_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = float(rng.uniform(0, 0.7))
            top = math.sqrt(1 - n * n)
            m1 = float(rng.uniform(0, top * 0.98))
            m2 = float(rng.uniform(m1 + 1e-6, top))
            assert expectation_score(PFN(m1, n)) < expectation_score(PFN(m2, n))
            m = m1
            top_n = math.sqrt(1 - m * m)
            n1 = float(rng.uniform(0, top_n * 0.98))
            n2 = float(rng.uniform(n1 + 1e-6, top_n))
            assert expectation_score(PFN(m, n1)) > expectation_score(PFN(m, n2))


class TestCompare:
    def test_score_accuracy_strict(self):
        got = compare(PFN(0.481, 0.402), PFN(0.527, 0.456), OrderKind.SCORE_ACCURACY)
        assert got is Ordering.LESS

    def test_lattice(self):
        assert (
            compare(PFN(0.3, 0.7), PFN(0.5, 0.2), OrderKind.LATTICE) is Ordering.LESS
        )
        assert (
            compare(PFN(0.5, 0.2), PFN(0.2, 0.1), OrderKind.LATTICE)
            is Ordering.INCOMPARABLE
        )
        assert (
            compare(PFN(0.5, 0.2), PFN(0.3, 0.7), OrderKind.LATTICE)
            is Ordering.GREATER
        )

    def test_reflexivity_everywhere(self):
        x = PFN(0.37, 0.61)
        for kind in OrderKind:
            assert compare(x, x, kind) is Ordering.EQUAL

    def test_lexicographic_orders_are_total(self):
        rng = np.random.default_rng(13)
        kinds = (
            OrderKind.SCORE_ACCURACY,
            OrderKind.MEMBERSHIP_THEN_ES,
            OrderKind.ES_THEN_MEMBERSHIP,
        )
        for _ in range(300):
            m1, n1, m2, n2 = rng.random(4)
            if m1 * m1 + n1 * n1 > 1 or m2 * m2 + n2 * n2 > 1:
                continue
            a, b = PFN(m1, n1), PFN(m2, n2)
            for kind in kinds:
                assert compare(a, b, kind) is not Ordering.INCOMPARABLE

    def test_membership_first_vs_es_first_differ(self):
        # higher membership but lower expectation score
        a, b = PFN(0.5, 0.86), PFN(0.4, 0.1)
        assert compare(a, b, OrderKind.MEMBERSHIP_THEN_ES) is Ordering.GREATER
        assert compare(a, b, OrderKind.ES_THEN_MEMBERSHIP) is Ordering.LESS


class TestTextForm:
    def test_round_trip(self):
        for x in (PFN(0.5, 0.4), PFN(1.0, 0.0), PFN(0.1234567890123, 0.2)):
            assert pfn_from_text(pfn_to_text(x)) == x

    def test_accepted_spellings(self):
        assert pfn_from_text("0.5,0.4") == PFN(0.5, 0.4)
        assert pfn_from_text("(0.5,0.4)") == PFN(0.5, 0.4)
        assert pfn_from_text("  0.5 , 0.4  ") == PFN(0.5, 0.4)

    def test_rejects_malformed_text(self):
        for text in ("", "0.5", "0.5,0.4,0.3", "a,b", "(0.5,0.4"):
            with pytest.raises((ParseError, OutOfRange, NotPythagorean)):
                pfn_from_text(text)

    def test_invalid_values_raise_validity_errors(self):
        with pytest.raises(NotPythagorean):
            pfn_from_text("0.9,0.9")
        with pytest.raises(OutOfRange):
            pfn_from_text("1.5,0.0")


class TestSignedZeroTies:
    # Where two components differ only in the sign of zero, the lattice
    # operations take b's, for one PFN as for a PFNArray table.
    @pytest.mark.parametrize("op", [join, meet])
    @pytest.mark.parametrize(("za", "zb"), [(-0.0, 0.0), (0.0, -0.0)])
    def test_a_tie_takes_b_s_zero(self, op, za, zb):
        for a, b in ((PFN(za, 0.5), PFN(zb, 0.5)), (PFN(0.5, za), PFN(0.5, zb))):
            got = op(a, b)
            tied = got.m if a.m == 0.0 else got.n
            assert tied == 0.0 and math.copysign(1.0, tied) == math.copysign(1.0, zb)
            m, n = op(*(PFNArray(np.array([[x.m]]), np.array([[x.n]])) for x in (a, b)))
            assert _bits([got.m, got.n]) == _bits([m.item(), n.item()])


# --- one algebra for PFNs and PFNArrays --------------------------------------

ORDERS = list(OrderKind)
EDGES = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (-0.0, 0.5), (0.5, -0.0), (-0.0, -0.0),
         (1e-300, 0.0), (0.0, 1e-300), (1e-300, 1e-300), (0.6, 0.8), (0.8, 0.6), (0.5, 0.4)]
ORDERINGS = {(True, True): Ordering.EQUAL, (True, False): Ordering.LESS,
             (False, True): Ordering.GREATER, (False, False): Ordering.INCOMPARABLE}


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _operands():
    """Every pair of edge points, then seeded pairs, with one alpha each:
    a and b as PFNArrays, and the alphas as an array."""
    rng = np.random.default_rng(2024)
    pairs = [(p, q) for p in EDGES for q in EDGES]
    while len(pairs) < 600:
        m1, n1, m2, n2 = rng.random(4)
        if m1 * m1 + n1 * n1 <= 1 and m2 * m2 + n2 * n2 <= 1:
            pairs.append(((m1, n1), (m2, n2)))
    a, b = (np.array([pair[k] for pair in pairs]) for k in (0, 1))
    alphas = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), len(pairs)))
    alphas[:5] = (1.0, 0.05, 4.0, 1e-300, 1e300)
    return PFNArray(*a.T), PFNArray(*b.T), alphas


def _entries(x):
    return [PFN(m, n) for m, n in zip(x.m.tolist(), x.n.tolist())]


class TestOneAlgebraForBothShapes:
    """Each operation, order and measure gives the same bits on a PFNArray
    as on each of its entries as a PFN."""

    a, b, alphas = _operands()
    cases = list(zip(_entries(a), _entries(b), alphas.tolist()))

    def _same_pfns(self, batch, scalars):
        assert isinstance(batch, PFNArray)
        assert all(type(r) is PFN and type(r.m) is float and type(r.n) is float for r in scalars)
        assert _bits(batch.m) == _bits([r.m for r in scalars])
        assert _bits(batch.n) == _bits([r.n for r in scalars])

    @pytest.mark.parametrize("op", [join, meet, add_p, mul_p], ids=lambda f: f.__name__)
    def test_binary_operations(self, op):
        self._same_pfns(op(self.a, self.b), [op(x, y) for x, y, _ in self.cases])

    def test_complement_and_scaling(self):
        self._same_pfns(complement(self.a), [complement(x) for x, _, _ in self.cases])
        self._same_pfns(scalar_mul(self.alphas, self.a), [scalar_mul(t, x) for x, _, t in self.cases])
        self._same_pfns(power(self.a, self.alphas), [power(x, t) for x, _, t in self.cases])

    def test_one_scalar_for_a_whole_array(self):
        self._same_pfns(scalar_mul(0.3, self.a), [scalar_mul(0.3, x) for x, _, _ in self.cases])
        self._same_pfns(power(self.a, 2.5), [power(x, 2.5) for x, _, _ in self.cases])

    @pytest.mark.parametrize("measure", [score, accuracy, expectation_score], ids=lambda f: f.__name__)
    def test_measures(self, measure):
        scalars = [measure(x) for x, _, _ in self.cases]
        assert all(type(v) is float for v in scalars)
        assert _bits(measure(self.a)) == _bits(scalars)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
    def test_below_and_compare(self, order):
        ab, ba = below(self.a, self.b, order), below(self.b, self.a, order)
        assert ab.dtype == bool and ab.shape == self.a.m.shape
        for i, (x, y, _) in enumerate(self.cases):
            assert below(x, y, order) is bool(ab[i]) and below(y, x, order) is bool(ba[i])
            assert compare(x, y, order) is ORDERINGS[bool(ab[i]), bool(ba[i])]

    def test_close_and_valid(self):
        near = PFNArray(self.a.m * (1 - 1e-12 * self.alphas.clip(max=4.0)), self.a.n)
        invalid = PFNArray(self.a.m * (1 + self.alphas.clip(max=4.0)), self.a.n)
        for x, y in ((self.a, self.b), (self.a, near), (self.a, self.a)):
            got = pfn_close(x, y)
            assert 0 < got.sum() and (y is not near or not got.all())
            assert got.tolist() == [pfn_close(p, q) for p, q in zip(_entries(x), _entries(y))]
        assert valid(self.a).all() and all(valid(x) is True for x, _, _ in self.cases)
        flags = valid(invalid).tolist()
        assert not all(flags) and any(flags)
        for (m, n), flag in zip(zip(invalid.m.tolist(), invalid.n.tolist()), flags):
            if flag:
                PFN(m, n)
            else:
                with pytest.raises((OutOfRange, NotPythagorean)):
                    PFN(m, n)
