"""Seeded randomized checks of the algebraic laws.

Every suite draws its cases from one shared numpy Generator, so a fixed
seed reproduces the exact same verdict and counterexample.  Suites return
the first counterexample found instead of raising, which lets the command
line print it and the test suite assert on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import WeightVector, pfwa_fold, pfwa_geometric
from .pfn import (
    COMPARE_EPS,
    VALIDITY_EPS,
    PFN,
    OrderKind,
    Ordering,
    accuracy,
    add_p,
    compare,
    complement,
    expectation_score,
    join,
    meet,
    mul_p,
    order_key,
    power,
    scalar_mul,
    score,
)
from .softset import (
    PFParameter,
    PhiSoftSet,
    build,
    equals,
    extended_intersection,
    extended_union,
    is_subset,
    null_set,
    restricted_intersection,
    restricted_union,
    whole_set,
)

DEFAULT_CASES = 10_000
DEFAULT_SEED = 17

_M_ES = OrderKind.MEMBERSHIP_THEN_ES


@dataclass(slots=True)
class LawResult:
    name: str
    cases: int
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _sample_pfns(rng: np.random.Generator, count: int) -> list[PFN]:
    """Uniform samples from the valid quarter disk (rejection from the square)."""
    out: list[PFN] = []
    while len(out) < count:
        batch = rng.random((count - len(out) + 16, 2))
        keep = batch[:, 0] ** 2 + batch[:, 1] ** 2 <= 1.0
        out.extend(PFN(float(m), float(n)) for m, n in batch[keep])
    return out[:count]


def _sample_alphas(rng: np.random.Generator, count: int) -> np.ndarray:
    """Positive exponents, log-uniform over [0.05, 4]."""
    return np.exp(rng.uniform(math.log(0.05), math.log(4.0), count))


def pfn_close(a: PFN, b: PFN) -> bool:
    """Both components within COMPARE_EPS."""
    return abs(a.m - b.m) <= COMPARE_EPS and abs(a.n - b.n) <= COMPARE_EPS


def _diff(a: PFN, b: PFN) -> str:
    return f"left={a!r} right={b!r} dm={a.m - b.m:.3e} dn={a.n - b.n:.3e}"


def closure_of_pfn_operations(rng: np.random.Generator, cases: int) -> LawResult:
    """Every operation lands back inside the valid region."""
    name = "closure-of-pfn-operations"
    pairs = _sample_pfns(rng, 2 * cases)
    alphas = _sample_alphas(rng, cases)
    for i in range(cases):
        a, b = pairs[2 * i], pairs[2 * i + 1]
        alpha = float(alphas[i])
        try:
            results = (
                complement(a),
                join(a, b),
                meet(a, b),
                add_p(a, b),
                mul_p(a, b),
                scalar_mul(alpha, a),
                power(a, alpha),
            )
        except Exception as exc:  # constructor rejected a result
            return LawResult(name, cases, f"a={a!r} b={b!r} alpha={alpha!r}: {exc}")
        for r in results:
            if not (0.0 <= r.m <= 1.0 and 0.0 <= r.n <= 1.0) or (
                r.m * r.m + r.n * r.n > 1.0 + VALIDITY_EPS
            ):
                return LawResult(name, cases, f"a={a!r} b={b!r} alpha={alpha!r} -> {r!r}")
    return LawResult(name, cases)


def addition_and_multiplication_commute(rng, cases: int) -> LawResult:
    name = "addition-and-multiplication-commute"
    pairs = _sample_pfns(rng, 2 * cases)
    for i in range(cases):
        a, b = pairs[2 * i], pairs[2 * i + 1]
        left, right = add_p(a, b), add_p(b, a)
        if not pfn_close(left, right):
            return LawResult(name, cases, f"add_p a={a!r} b={b!r} {_diff(left, right)}")
        left, right = mul_p(a, b), mul_p(b, a)
        if not pfn_close(left, right):
            return LawResult(name, cases, f"mul_p a={a!r} b={b!r} {_diff(left, right)}")
    return LawResult(name, cases)


def scalar_distributes_over_addition(rng, cases: int) -> LawResult:
    name = "scalar-distributes-over-addition"
    pairs = _sample_pfns(rng, 2 * cases)
    alphas = _sample_alphas(rng, cases)
    for i in range(cases):
        a, b = pairs[2 * i], pairs[2 * i + 1]
        alpha = float(alphas[i])
        left = scalar_mul(alpha, add_p(a, b))
        right = add_p(scalar_mul(alpha, a), scalar_mul(alpha, b))
        if not pfn_close(left, right):
            return LawResult(
                name, cases, f"a={a!r} b={b!r} alpha={alpha!r} {_diff(left, right)}"
            )
    return LawResult(name, cases)


def scalar_multiples_add(rng, cases: int) -> LawResult:
    name = "scalar-multiples-add"
    points = _sample_pfns(rng, cases)
    alphas = _sample_alphas(rng, 2 * cases)
    for i in range(cases):
        a = points[i]
        a1, a2 = float(alphas[2 * i]), float(alphas[2 * i + 1])
        left = add_p(scalar_mul(a1, a), scalar_mul(a2, a))
        right = scalar_mul(a1 + a2, a)
        if not pfn_close(left, right):
            return LawResult(
                name, cases, f"a={a!r} a1={a1!r} a2={a2!r} {_diff(left, right)}"
            )
    return LawResult(name, cases)


def power_distributes_over_product(rng, cases: int) -> LawResult:
    name = "power-distributes-over-product"
    pairs = _sample_pfns(rng, 2 * cases)
    alphas = _sample_alphas(rng, cases)
    for i in range(cases):
        a, b = pairs[2 * i], pairs[2 * i + 1]
        alpha = float(alphas[i])
        left = power(mul_p(a, b), alpha)
        right = mul_p(power(a, alpha), power(b, alpha))
        if not pfn_close(left, right):
            return LawResult(
                name, cases, f"a={a!r} b={b!r} alpha={alpha!r} {_diff(left, right)}"
            )
    return LawResult(name, cases)


def powers_multiply(rng, cases: int) -> LawResult:
    name = "powers-multiply"
    points = _sample_pfns(rng, cases)
    alphas = _sample_alphas(rng, 2 * cases)
    for i in range(cases):
        a = points[i]
        a1, a2 = float(alphas[2 * i]), float(alphas[2 * i + 1])
        left = mul_p(power(a, a1), power(a, a2))
        right = power(a, a1 + a2)
        if not pfn_close(left, right):
            return LawResult(
                name, cases, f"a={a!r} a1={a1!r} a2={a2!r} {_diff(left, right)}"
            )
    return LawResult(name, cases)


def membership_then_es_is_partial_order(rng, cases: int) -> LawResult:
    """Reflexive, antisymmetric, and transitive on random triples."""
    name = "membership-then-es-is-partial-order"
    triples = _sample_pfns(rng, 3 * cases)
    for i in range(cases):
        x, y, z = triples[3 * i : 3 * i + 3]
        if compare(x, x, _M_ES) is not Ordering.EQUAL:
            return LawResult(name, cases, f"not reflexive at x={x!r}")
        for a, b in ((x, y), (y, z), (x, z)):
            if compare(b, a, _M_ES) is not Ordering(-compare(a, b, _M_ES).value):
                return LawResult(name, cases, f"not antisymmetric: a={a!r} b={b!r}")
        lo, mid, hi = sorted((x, y, z), key=lambda p: order_key(_M_ES, p.m, p.n))
        if (
            compare(lo, mid, _M_ES) is Ordering.GREATER
            or compare(mid, hi, _M_ES) is Ordering.GREATER
            or compare(lo, hi, _M_ES) is Ordering.GREATER
        ):
            return LawResult(name, cases, f"not transitive on {x!r}, {y!r}, {z!r}")
    return LawResult(name, cases)


def score_accuracy_agrees_with_es_then_membership(rng, cases: int) -> LawResult:
    name = "score-accuracy-agrees-with-es-then-membership"
    pairs = _sample_pfns(rng, 2 * cases)
    for i in range(cases):
        a, b = pairs[2 * i], pairs[2 * i + 1]
        left = compare(a, b, OrderKind.SCORE_ACCURACY)
        right = compare(a, b, OrderKind.ES_THEN_MEMBERSHIP)
        if left is not right:
            return LawResult(name, cases, f"a={a!r} b={b!r} {left} vs {right}")
    return LawResult(name, cases)


def _equal_score_pair(rng, base: PFN) -> PFN | None:
    """A second PFN with the same score as `base`, if one samples validly."""
    for _ in range(32):
        mb = float(rng.random())
        nb2 = base.n * base.n + mb * mb - base.m * base.m
        if 0.0 <= nb2 and mb * mb + nb2 <= 1.0:
            return PFN(mb, math.sqrt(nb2))
    return None


def equal_score_tiebreaks_agree(rng, cases: int) -> LawResult:
    """On equal-score pairs the five tiebreak readings say the same thing."""
    name = "equal-score-tiebreaks-agree"
    bases = _sample_pfns(rng, cases)
    done = 0
    attempts = 0
    while done < cases:
        a = bases[attempts % len(bases)]
        attempts += 1
        if attempts > 40 * cases:
            return LawResult(name, cases, "sampling stalled")
        b = _equal_score_pair(rng, a)
        if b is None:
            continue
        done += 1
        for x, y in ((a, b), (b, a)):
            sf_eq = abs(score(x) - score(y)) <= COMPARE_EPS
            es_eq = abs(expectation_score(x) - expectation_score(y)) <= COMPARE_EPS
            conditions = (
                sf_eq and accuracy(x) <= accuracy(y),
                es_eq and x.m <= y.m,
                es_eq and x.n <= y.n,
                sf_eq and x.m <= y.m,
                sf_eq and x.n <= y.n,
            )
            if any(conditions) != all(conditions):
                return LawResult(name, cases, f"x={x!r} y={y!r} -> {conditions}")
    return LawResult(name, cases)


def addition_preserves_order(rng, cases: int) -> LawResult:
    """N <= K implies M + N <= M + K under the membership-then-ES order."""
    name = "addition-preserves-order"
    triples = _sample_pfns(rng, 3 * cases)
    for i in range(cases):
        m, n, k = triples[3 * i : 3 * i + 3]
        if compare(n, k, _M_ES) is Ordering.GREATER:
            n, k = k, n
        if compare(add_p(m, n), add_p(m, k), _M_ES) is Ordering.GREATER:
            return LawResult(name, cases, f"M={m!r} N={n!r} K={k!r}")
    return LawResult(name, cases)


def scaling_preserves_order(rng, cases: int) -> LawResult:
    """Scaling keeps ordered pairs ordered; larger scalars dominate."""
    name = "scaling-preserves-order"
    pairs = _sample_pfns(rng, 2 * cases)
    alphas = _sample_alphas(rng, 2 * cases)
    for i in range(cases):
        a, b = pairs[2 * i], pairs[2 * i + 1]
        if compare(a, b, _M_ES) is Ordering.GREATER:
            a, b = b, a
        alpha = float(alphas[2 * i])
        if compare(scalar_mul(alpha, a), scalar_mul(alpha, b), _M_ES) is Ordering.GREATER:
            return LawResult(name, cases, f"a={a!r} b={b!r} alpha={alpha!r}")
        a1, a2 = sorted((alpha, float(alphas[2 * i + 1])))
        if compare(scalar_mul(a1, a), scalar_mul(a2, a), _M_ES) is Ordering.GREATER:
            return LawResult(name, cases, f"a={a!r} a1={a1!r} a2={a2!r}")
    return LawResult(name, cases)


def geometric_closed_form_matches_fold(rng, cases: int) -> LawResult:
    """Closed-form weighted averaging equals the constructive add_p fold."""
    name = "geometric-closed-form-matches-fold"
    for _ in range(cases):
        k = int(rng.integers(1, 9))
        values = _sample_pfns(rng, k)
        raw = rng.uniform(1e-3, 1.0, k)
        weights = WeightVector(tuple(float(w) for w in raw / raw.sum()))
        closed = pfwa_geometric(values, weights)
        folded = pfwa_fold(values, weights)
        if abs(closed.m - folded.m) > 1e-9 or abs(closed.n - folded.n) > 1e-9:
            return LawResult(
                name,
                cases,
                f"values={values!r} weights={weights.values!r} {_diff(closed, folded)}",
            )
    return LawResult(name, cases)


_UNIVERSE = ("a1", "a2")
_NAMES = ("c1", "c2")
_POOL = len(_NAMES) * (1 + len(_UNIVERSE))


def _softset_from(pool: list[PFN]) -> PhiSoftSet:
    it = iter(pool)
    params = [PFParameter(nm, next(it)) for nm in _NAMES]
    cells = {(alt, nm): next(it) for nm in _NAMES for alt in _UNIVERSE}
    return build(_UNIVERSE, params, cells)


def combination_identities(rng, cases: int) -> LawResult:
    """Idempotence plus the null/whole absorption identities.

    Cases alternate between the extended and the restricted operators.
    """
    name = "combination-identities"
    null = null_set(_UNIVERSE, _NAMES)
    whole = whole_set(_UNIVERSE, _NAMES)
    pool = _sample_pfns(rng, _POOL * cases)
    for i in range(cases):
        x = _softset_from(pool[_POOL * i : _POOL * (i + 1)])
        if i % 2 == 0:
            union, intersection, variant = extended_union, extended_intersection, "extended"
        else:
            union, intersection, variant = restricted_union, restricted_intersection, "restricted"
        checks = (
            ("union idempotent", union(x, x), x),
            ("intersection idempotent", intersection(x, x), x),
            ("union with null", union(x, null), x),
            ("intersection with null", intersection(x, null), null),
            ("union with whole", union(x, whole), whole),
            ("intersection with whole", intersection(x, whole), x),
        )
        for label, got, expected in checks:
            if not equals(got, expected):
                return LawResult(name, cases, f"{variant} {label} fails on {x.cells!r}")
    return LawResult(name, cases)


def _shrunk(value: PFN, u: float, v: float) -> PFN:
    """A PFN lattice-below `value`: membership shrinks, non-membership grows."""
    m = value.m * u
    n2 = value.n * value.n + v * (1.0 - m * m - value.n * value.n)
    # the max() guards the <= comparisons against sqrt round-off
    return PFN(m, max(value.n, math.sqrt(max(0.0, min(1.0, n2)))))


def _grown(value: PFN, u: float, v: float) -> PFN:
    """A PFN lattice-above `value`."""
    n = value.n * u
    m2 = value.m * value.m + v * (1.0 - value.m * value.m - n * n)
    return PFN(max(value.m, math.sqrt(max(0.0, min(1.0, m2)))), n)


def _map_set(s: PhiSoftSet, f, uv) -> PhiSoftSet:
    it = iter(uv)
    params = [
        PFParameter(p.name, f(p.importance, *next(it))) for p in s.parameters
    ]
    cells = {key: f(value, *next(it)) for key, value in s.cells.items()}
    return build(s.universe, params, cells)


def subset_is_transitive_and_antisymmetric(rng, cases: int) -> LawResult:
    name = "subset-is-transitive-and-antisymmetric"
    pool = _sample_pfns(rng, _POOL * cases)
    uv = rng.random((cases, 2 * _POOL, 2))
    for i in range(cases):
        b = _softset_from(pool[_POOL * i : _POOL * (i + 1)])
        a = _map_set(b, _shrunk, uv[i, :_POOL])
        c = _map_set(b, _grown, uv[i, _POOL:])
        if not (is_subset(a, b) and is_subset(b, c)):
            return LawResult(name, cases, f"constructed chain broken: {b.cells!r}")
        if not is_subset(a, c):
            return LawResult(name, cases, f"not transitive: {b.cells!r}")
        permuted = build(
            tuple(reversed(b.universe)), tuple(reversed(b.parameters)), b.cells
        )
        if not (is_subset(b, permuted) and is_subset(permuted, b)):
            return LawResult(name, cases, f"mutual subset broken: {b.cells!r}")
        if not equals(b, permuted):
            return LawResult(name, cases, f"antisymmetry broken: {b.cells!r}")
        if not equals(a, c) and is_subset(c, a):
            return LawResult(name, cases, f"order collapsed: {b.cells!r}")
    return LawResult(name, cases)


ALL_LAWS = (
    closure_of_pfn_operations,
    addition_and_multiplication_commute,
    scalar_distributes_over_addition,
    scalar_multiples_add,
    power_distributes_over_product,
    powers_multiply,
    membership_then_es_is_partial_order,
    score_accuracy_agrees_with_es_then_membership,
    equal_score_tiebreaks_agree,
    addition_preserves_order,
    scaling_preserves_order,
    geometric_closed_form_matches_fold,
    combination_identities,
    subset_is_transitive_and_antisymmetric,
)


def run_all(cases: int = DEFAULT_CASES, seed: int = DEFAULT_SEED) -> list[LawResult]:
    """Run every suite off one seeded generator, in a fixed order."""
    rng = np.random.default_rng(seed)
    return [law(rng, cases) for law in ALL_LAWS]


def render_report(results: list[LawResult], seed: int) -> str:
    lines = [f"seed: {seed}"]
    for r in results:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name} ({r.cases} cases)")
        if not r.ok:
            lines.append(f"      counterexample: {r.counterexample}")
    return "\n".join(lines) + "\n"
