"""Unit tests for the PFN value type, its algebra, and the orders."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

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
    InvalidPFN,
    NonPositiveScalar,
    NotPythagorean,
    OutOfRange,
    ParseError,
)
from phisoft import aggregation, pfn
from phisoft.pfn import VALIDITY_EPS, PFNArray, _valid, below, order_key, valid
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

    @pytest.mark.parametrize(
        "m,n", [(10**400, 0.0), (0.5, -10**400), (0, 10**400)], ids=["m", "negative-n", "int-n"]
    )
    def test_an_integer_beyond_double_range_is_out_of_range(self, m, n):
        with pytest.raises(OutOfRange) as raised:
            PFN(m, n)
        assert str(raised.value) == "degrees must lie in [0, 1], got a number beyond float range"

    @pytest.mark.parametrize("m,n,shown", [
        ("x", 0.5, "'x'"), (None, 0.5, "None"), (1j, 0, "1j"), ("0.5", 0.3, "'0.5'"),
        (b"0.5", 0.3, "b'0.5'"), (0.5, bytearray(b"0.3"), "bytearray(b'0.3')"),
        (Decimal("sNaN"), 0.3, "Decimal('sNaN')"),
    ], ids=["text", "none", "complex", "numeric-text", "bytes", "bytearray", "signaling-nan"])
    def test_a_component_that_is_not_a_real_number_is_invalid(self, m, n, shown):
        with pytest.raises(InvalidPFN) as raised:
            PFN(m, n)
        assert str(raised.value) == f"degrees must be real numbers, got {shown}"

    @pytest.mark.parametrize("m,n", [
        (np.float32(0.5), np.float16(0.25)), (np.int64(0), np.bool_(True)),
        (Fraction(1, 2), Decimal("0.3")), (True, False),
    ], ids=["numpy-floats", "numpy-integers", "fraction-decimal", "bools"])
    def test_numbers_of_other_types_are_read_as_float_reads_them(self, m, n):
        x = PFN(m, n)
        assert type(x.m) is float and type(x.n) is float
        assert (x.m, x.n) == (float(m), float(n))


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
        for alpha in (0.0, -1.0, math.nan):
            with pytest.raises(NonPositiveScalar):
                scalar_mul(alpha, x)
            with pytest.raises(NonPositiveScalar):
                power(x, alpha)
        # a NaN among positive scalars, one per entry of an array
        xs, alphas = PFNArray(np.array([0.5, 0.3]), np.array([0.5, 0.6])), np.array([2.0, math.nan])
        with pytest.raises(NonPositiveScalar):
            scalar_mul(alphas, xs)
        with pytest.raises(NonPositiveScalar):
            power(xs, alphas)


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

    def test_the_lattice_order_has_no_sort_key(self):
        with pytest.raises(TypeError, match="^not a total order: <OrderKind.LATTICE: 'lattice'>$"):
            order_key(OrderKind.LATTICE, 0.5, 0.3)

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

    @pytest.mark.parametrize(
        "measure", [score, accuracy, expectation_score, indeterminacy], ids=lambda f: f.__name__
    )
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


# --- the validity test: seven array operations, the nine comparisons' truth --

def _nine_comparisons(m, n, af):
    """The validity test as it was written before, with nine operations."""
    in_range = (0.0 <= m) & (m <= 1.0) & (0.0 <= n) & (n <= 1.0)
    return in_range & (af <= 1.0 + VALIDITY_EPS)


VALIDITY_EDGES = (0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0, math.nextafter(1.0, 2.0),
                  math.nan, math.inf, -math.inf)
ACCURACY_EDGES = (*VALIDITY_EDGES, 1.0 + VALIDITY_EPS, math.nextafter(1.0 + VALIDITY_EPS, 2.0))


def test_the_validity_test_agrees_with_nine_comparisons_at_the_edges():
    grid = np.meshgrid(VALIDITY_EDGES, VALIDITY_EDGES, ACCURACY_EDGES, indexing="ij")
    m, n, af = (axis.ravel() for axis in grid)
    expected = _nine_comparisons(m, n, af)
    assert expected.any() and not expected.all()
    got = _valid(m, n, af)
    assert got.dtype == np.bool_ and got.tolist() == expected.tolist()
    x = PFNArray(m, n)
    assert valid(x).tolist() == _nine_comparisons(m, n, accuracy(x)).tolist()


def test_valid_of_a_pfn_is_a_python_bool():
    """PFN-shaped inputs of Python floats, the constructor bypassed so that
    invalid pairs can be made too."""
    flags = []
    for m, n in itertools.product(VALIDITY_EDGES, repeat=2):
        x = object.__new__(PFN)
        object.__setattr__(x, "m", m)
        object.__setattr__(x, "n", n)
        flag = valid(x)
        assert type(flag) is bool and flag is _nine_comparisons(m, n, m * m + n * n)
        flags.append(flag)
    assert any(flags) and not all(flags)


# --- libm per entry: every array `_libm` is given, the list path's bits -------

def _listed_libm(fn, x, *more):
    """The reference: `fn` of each entry, read from `.tolist()` of each array."""
    entries = zip(*(np.asarray(a).ravel().tolist() for a in (x, *more)))
    return np.array([fn(*t) for t in entries], np.float64).reshape(np.shape(x))


LIBM_EDGES = np.array([0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 0.0), math.inf, math.nan])

#: Each function with the edge values in its domain; pow's exponents are the
#: same values, rolled by one.
LIBM_FUNCTIONS = {
    "log1p": (math.log1p, LIBM_EDGES),
    "log": (math.log, LIBM_EDGES[2:]),
    "expm1": (math.expm1, LIBM_EDGES),
    "exp": (math.exp, LIBM_EDGES),
    "pow": (pow, LIBM_EDGES),
}


def _read_only(a):
    a.setflags(write=False)
    return a


#: How an array of the values reaches `_libm`: float64 in each layout, then
#: the other float dtypes.
LIBM_LAYOUTS = {
    "c-ordered": lambda v: np.tile(v, (2, 1)),
    "transposed": lambda v: np.tile(v, (2, 1)).T,
    "stride-0": lambda v: np.broadcast_arrays(v[:, None], np.empty((1, 3)))[0],
    "0-d": lambda v: np.asarray(v[-2]),
    "empty": lambda v: np.tile(v, (2, 1))[:, :0],
    "read-only": lambda v: _read_only(np.tile(v, (2, 1))),
    "float32": lambda v: np.tile(v, (2, 1)).astype(np.float32),
    "float16": lambda v: np.tile(v, (2, 1)).astype(np.float16),
    "big-endian": lambda v: np.tile(v, (2, 1)).astype(">f8"),
}


@pytest.mark.parametrize("layout", LIBM_LAYOUTS)
@pytest.mark.parametrize("name", LIBM_FUNCTIONS)
def test_libm_gives_the_list_paths_bits(name, layout):
    fn, values = LIBM_FUNCTIONS[name]
    make = LIBM_LAYOUTS[layout]
    if fn is math.log:  # 5e-324 is 0 in float32 and float16, outside log's domain
        values = values[make(values).dtype.type(values) != 0]
    arrays = (make(values),) if fn is not pow else (make(values), make(np.roll(values, 1)))
    expected = _listed_libm(fn, *arrays)
    got = pfn._libm(fn, *arrays)
    assert got.dtype == np.float64 and got.shape == arrays[0].shape
    assert got.tobytes() == expected.tobytes()


def test_libm_takes_an_integer_exponent():
    x = np.tile(LIBM_EDGES, (2, 1))
    alpha = np.arange(x.size, dtype=np.int64).reshape(x.shape)
    assert pfn._libm(pow, x, alpha).tobytes() == _listed_libm(pow, x, alpha).tobytes()


@pytest.mark.parametrize("fn,bad", [(math.log, 0.0), (math.log1p, -1.0), (math.exp, 1000.0)],
                         ids=["log-of-zero", "log1p-of-minus-one", "exp-overflow"])
def test_a_libm_error_is_the_callees_own(fn, bad):
    with pytest.raises((ValueError, OverflowError)) as called:
        fn(bad)
    with pytest.raises(type(called.value)) as raised:
        pfn._libm(fn, np.array([0.5, bad]))
    assert type(raised.value) is type(called.value) and str(raised.value) == str(called.value)


@pytest.mark.parametrize("dtype", [">f8", np.float16], ids=["big-endian", "float16"])
def test_scaling_an_array_of_another_dtype_gives_the_list_paths_bits(dtype, monkeypatch):
    rng = np.random.default_rng(17)
    m, n = rng.uniform(0.0, 0.7, (2, 40))
    x = PFNArray(m.astype(dtype), n.astype(dtype))
    got = scalar_mul(2.0, x), power(x, 0.3)
    monkeypatch.setattr(pfn, "_libm", _listed_libm)
    expected = scalar_mul(2.0, x), power(x, 0.3)
    for g, e in zip(got, expected):
        assert _bits(g.m) == _bits(e.m) and _bits(g.n) == _bits(e.n)


# --- one pole rule: a scalar multiple's membership is the geometric kernel's --

#: Memberships at and near log1p(-m**2)'s pole, m = 1, and tiny ones.
POLE_EDGES = [0.0, 1.0, 1.0 - 2.0**-53, 2.0**-600, 1e-300, 0.9999999925526566]


@pytest.mark.parametrize("rows", [5, 300], ids=["fsum", "cascade"])
def test_a_scalar_multiples_membership_is_the_geometric_kernels(rows):
    """scalar_mul(alpha, x).m is pfwa_table's geometric membership of x as a
    one-column table weighted alpha per row, bit for bit.  Tables of 5 rows
    go to math.fsum, 300 rows to the row-sum cascade."""
    assert 5 < aggregation._CASCADE_MIN_ROWS <= 300
    rng = np.random.default_rng(32)
    m = np.concatenate([POLE_EDGES, rng.random(294)])
    alpha = np.concatenate([rng.uniform(0.01, 5.0, 294), [1e-3, 0.5, 1.0, 2.0, 7.5, 1e3]])
    got = scalar_mul(alpha, PFNArray(m, np.zeros(300))).m
    for rows_of in np.split(np.arange(300), 300 // rows):
        table = m[rows_of, None], np.zeros((rows, 1)), alpha[rows_of, None]
        kernel_m, _ = aggregation.pfwa_table(*table, aggregation.Aggregator.GEOMETRIC)
        assert _bits(kernel_m) == _bits(got[rows_of])


def test_an_entry_past_the_pole_raises_alike_in_scalar_mul_and_the_kernel():
    m, n = np.array([0.5, 1.5]), np.zeros(2)
    raised = []
    for past_the_pole in (
        lambda: scalar_mul(2.0, PFNArray(m, n)),
        lambda: power(PFNArray(n, m), 2.0),
        lambda: aggregation.pfwa_table(
            m[:, None], n[:, None], [1.0], aggregation.Aggregator.GEOMETRIC),
    ):
        with pytest.raises(ValueError) as error:
            past_the_pole()
        raised.append((type(error.value), str(error.value)))
    assert raised == [(ValueError, "math domain error")] * 3
