"""Weight derivation and the two weighted-averaging operators."""

import math

import numpy as np
import pytest

from phisoft import (
    PFN,
    PFParameter,
    WeightVector,
    build,
    decide_single,
    extended_intersection,
    pfwa_fold,
    pfwa_geometric,
    pfwa_linear,
    weights_from_importances,
)
from phisoft.errors import DegenerateWeights, LengthMismatch

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
