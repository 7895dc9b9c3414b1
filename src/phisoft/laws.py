"""Seeded randomized checks of the algebraic laws.

Every suite draws its cases from one shared numpy Generator, so a fixed
seed reproduces the exact same verdict and counterexample.  Suites return
the first counterexample found instead of raising, which lets the command
line print it and the test suite assert on it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial, wraps
from itertools import product

import numpy as np

from . import aggregation, softset
from .aggregation import Aggregator, WeightVector, pfwa_fold, pfwa_geometric
from .errors import InvalidConfig, PhiSoftError
from .pfn import (
    COMPARE_EPS, PFN, OrderKind, PFNArray, accuracy, add_p, below, close as pfn_close, compare,
    complement, expectation_score, join, meet, mul_p, order_key, power, scalar_mul, score, valid,
)
from .softset import (
    CombineRule, PhiSoftSet, build, check_cells, combine, equals, is_subset, null_set, whole_set,
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


def _sample_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the valid quarter disk (rejection from the
    square), as a count x 2 array of (m, n) rows."""
    kept, have = [np.empty((0, 2))], 0
    while have < count:
        batch = rng.random((count - have + 16, 2))
        kept.append(batch[batch[:, 0] ** 2 + batch[:, 1] ** 2 <= 1.0])
        have += len(kept[-1])
    return np.concatenate(kept)[:count]


def _sample_alphas(rng: np.random.Generator, count: int) -> np.ndarray:
    """Positive exponents, log-uniform over [0.05, 4]."""
    return np.exp(rng.uniform(math.log(0.05), math.log(4.0), count))


def _diff(a: PFN, b: PFN) -> str:
    return f"left={a!r} right={b!r} dm={a.m - b.m:.3e} dn={a.n - b.n:.3e}"


def _suite(name: str):
    """The law suite `name` of `batch(rng, cases)`, which draws and checks every
    case at once and returns per-case `failed` flags and `replay(i)`: case i's
    counterexample through the public API, or None.  The suite refuses a case
    count that is not an integer of at least 1 before it draws, then replays
    case 0 and the first flagged case."""
    def frame(batch):
        @wraps(batch)
        def suite(rng, cases: int) -> LawResult:
            try:
                cases = operator.index(cases)
            except TypeError:
                raise InvalidConfig(f"cases must be an integer, got {cases!r}") from None
            if cases < 1:
                raise InvalidConfig(f"cases must be at least 1, got {cases!r}")
            failed, replay = batch(rng, cases)
            for i in sorted({0, int(failed.argmax())}):
                counterexample = replay(i)
                if counterexample is None and failed[i]:
                    counterexample = f"case {i} fails in the batched check only"
                if counterexample is not None:
                    return LawResult(name, cases, counterexample)
            return LawResult(name, cases)
        suite.__name__ = suite.__qualname__ = name.replace("-", "_")
        return suite
    return frame


def _law(name: str, labels: tuple[str, ...], points: int, check, draw=_sample_alphas):
    """The suite `name` of `check`, which it runs on every case at once.  It
    draws, for all cases, a PFN for each of the first `points` labels, then a
    scalar (`draw(rng, count)`) for each other label.  `check(*case)` yields
    (holds, word) pairs: whether a law holds, and `word(shown)`, its
    counterexample given the case as `label=value` text.  It runs on all cases
    as PFNArrays and arrays, then on the replayed cases as PFNs and floats."""
    scalars = len(labels) - points

    def batch(rng, cases: int):
        drawn = _sample_points(rng, points * cases).reshape(cases, points, 2)
        alphas = draw(rng, scalars * cases).reshape(cases, scalars)
        columns = (*(PFNArray(*p) for p in drawn.transpose(1, 2, 0)), *alphas.T)
        ok = np.all([holds for holds, _ in check(*columns)], axis=0)

        def replay(i: int) -> str | None:
            case = (*map(PFN, *drawn[i].T.tolist()), *alphas[i].tolist())
            shown = " ".join(f"{k}={v!r}" for k, v in zip(labels, case))
            try:
                return next((word(shown) for holds, word in check(*case) if not holds), None)
            except PhiSoftError as exc:  # a result is not a valid PFN
                return f"{shown}: {exc}"

        return ~ok, replay

    batch.__doc__ = check.__doc__
    return _suite(name)(batch)


@partial(_law, "closure-of-pfn-operations", ("a", "b", "alpha"), 2)
def closure_of_pfn_operations(a, b, alpha):
    """Every operation lands back inside the valid region."""
    results = (
        complement(a), join(a, b), meet(a, b), add_p(a, b), mul_p(a, b),
        scalar_mul(alpha, a), power(a, alpha),
    )
    for r in results:
        yield valid(r), lambda shown: f"{shown} -> {r!r}"


def _same(left, right, prefix: str = ""):
    """The (holds, word) pair of left == right by `pfn_close`, looked up at call time."""
    return pfn_close(left, right), lambda shown: f"{prefix}{shown} {_diff(left, right)}"


_IDENTITY_SUITES = tuple(_law(*row) for row in (
    ("addition-and-multiplication-commute", ("a", "b"), 2, lambda a, b: (
        _same(add_p(a, b), add_p(b, a), "add_p "), _same(mul_p(a, b), mul_p(b, a), "mul_p "))),
    ("scalar-distributes-over-addition", ("a", "b", "alpha"), 2, lambda a, b, t: (
        _same(scalar_mul(t, add_p(a, b)), add_p(scalar_mul(t, a), scalar_mul(t, b))),)),
    ("scalar-multiples-add", ("a", "a1", "a2"), 1, lambda a, s, t: (
        _same(add_p(scalar_mul(s, a), scalar_mul(t, a)), scalar_mul(s + t, a)),)),
    ("power-distributes-over-product", ("a", "b", "alpha"), 2, lambda a, b, t: (
        _same(power(mul_p(a, b), t), mul_p(power(a, t), power(b, t))),)),
    ("powers-multiply", ("a", "a1", "a2"), 1, lambda a, s, t: (
        _same(mul_p(power(a, s), power(a, t)), power(a, s + t)),)),
))


# The order suites' checks run on PFNs and PFNArrays alike.  Their flags may be
# Python bools, on which `~` is not negation, so p implies q is written p <= q.


def _not_greater(a, b):
    """Entrywise: compare(a, b, _M_ES) is not GREATER."""
    return below(b, a, _M_ES) <= below(a, b, _M_ES)


def _ordered(a, b):
    """(a, b), swapped where compare(a, b, _M_ES) is GREATER, as a's kind."""
    swap = below(a, b, _M_ES) < below(b, a, _M_ES)
    m, n = np.where(swap, (b.m, a.m), (a.m, b.m)), np.where(swap, (b.n, a.n), (a.n, b.n))
    return type(a)(m[0], n[0]), type(a)(m[1], n[1])


def _by_key(*points):
    """The points sorted by `order_key` (`_M_ES`), ties in the given order, as
    `sorted` puts them, entry by entry."""
    m, n = (np.stack([getattr(p, c) for p in points], -1) for c in "mn")
    rank = np.lexsort(order_key(_M_ES, m, n)[::-1], axis=-1)
    m, n = np.take_along_axis(m, rank, -1), np.take_along_axis(n, rank, -1)
    return [type(points[0])(m[..., j], n[..., j]) for j in range(len(points))]


@partial(_law, "membership-then-es-is-partial-order", ("x", "y", "z"), 3)
def membership_then_es_is_partial_order(x, y, z):
    """Reflexive, antisymmetric, and transitive on random triples."""
    yield below(x, x, _M_ES), lambda _: f"not reflexive at x={x!r}"
    for a, b in ((x, y), (y, z), (x, z)):
        (pa, ta), (pb, tb) = order_key(_M_ES, a.m, a.n), order_key(_M_ES, b.m, b.n)
        mutual = below(a, b, _M_ES) & below(b, a, _M_ES)
        yield mutual <= ((pa == pb) & (ta == tb)), lambda _: f"not antisymmetric: a={a!r} b={b!r}"
    lo, mid, hi = _by_key(x, y, z)
    transitive = _not_greater(lo, mid) & _not_greater(mid, hi) & _not_greater(lo, hi)
    yield transitive, lambda _: f"not transitive on {x!r}, {y!r}, {z!r}"


@partial(_law, "score-accuracy-agrees-with-es-then-membership", ("a", "b"), 2)
def score_accuracy_agrees_with_es_then_membership(a, b):
    s, e = OrderKind.SCORE_ACCURACY, OrderKind.ES_THEN_MEMBERSHIP
    agree = (below(a, b, s) == below(a, b, e)) & (below(b, a, s) == below(b, a, e))
    yield agree, lambda _: f"a={a!r} b={b!r} {compare(a, b, s)} vs {compare(a, b, e)}"


@partial(_law, "addition-preserves-order", ("M", "N", "K"), 3)
def addition_preserves_order(m, n, k):
    """N <= K implies M + N <= M + K under the membership-then-ES order."""
    n, k = _ordered(n, k)
    yield _not_greater(add_p(m, n), add_p(m, k)), lambda _: f"M={m!r} N={n!r} K={k!r}"


@partial(_law, "scaling-preserves-order", ("a", "b", "alpha", "beta"), 2)
def scaling_preserves_order(a, b, alpha, beta):
    """Scaling keeps ordered pairs ordered; larger scalars dominate."""
    a, b = _ordered(a, b)
    yield (_not_greater(scalar_mul(alpha, a), scalar_mul(alpha, b)),
           lambda _: f"a={a!r} b={b!r} alpha={alpha!r}")
    a1, a2 = np.minimum(alpha, beta), np.maximum(alpha, beta)
    yield (_not_greater(scalar_mul(a1, a), scalar_mul(a2, a)),
           lambda _: f"a={a!r} a1={float(a1)!r} a2={float(a2)!r}")


def _readings(x, y):
    """The five tiebreak readings of x <= y on an equal-score pair."""
    sf_eq = abs(score(x) - score(y)) <= COMPARE_EPS
    es_eq = abs(expectation_score(x) - expectation_score(y)) <= COMPARE_EPS
    return (
        sf_eq & (accuracy(x) <= accuracy(y)),
        es_eq & (x.m <= y.m),
        es_eq & (x.n <= y.n),
        sf_eq & (x.m <= y.m),
        sf_eq & (x.n <= y.n),
    )


def _partners(m, n, t) -> PFNArray:
    """Points of the score s = m**2 - n**2 of each (m, n), whose memberships
    lie at fraction t of the range that admits one, [sqrt(max(s, 0)),
    sqrt((1 + s) / 2)].  The score is computed here, not by `score`, which a
    test may replace."""
    s = m * m - n * n
    lo = np.sqrt(np.maximum(s, 0.0))
    mb = lo + t * (np.sqrt((1.0 + s) / 2) - lo)
    return PFNArray(mb, np.sqrt(np.maximum(n * n + mb * mb - m * m, 0.0)))


@partial(_law, "equal-score-tiebreaks-agree", ("x", "t"), 1, draw=np.random.Generator.random)
def equal_score_tiebreaks_agree(x, t):
    """On equal-score pairs the five tiebreak readings say the same thing.
    x's partner (`_partners`) has x's score and its membership at fraction t."""
    y = type(x)(*_partners(x.m, x.n, t))
    for a, b in ((x, y), (y, x)):
        c = _readings(a, b)
        yield np.any(c, axis=0) == np.all(c, axis=0), lambda _: f"x={a!r} y={b!r} -> {c}"


@_suite("geometric-closed-form-matches-fold")
def geometric_closed_form_matches_fold(rng, cases: int):
    """Closed-form weighted averaging equals the constructive add_p fold.

    Case i is the first k[i] (1 to 8) PFNs and weights of row i of (cases,
    8) tables, its weights normalized to sum to 1.  Every case's closed form
    runs through `aggregation.pfwa_table` (looked up at call time), one call
    per k, and every case is folded; case 0 and the first failing case are
    then checked again through `pfwa_geometric`, which words the
    counterexample.
    """
    k = rng.integers(1, 9, cases)
    mn = _sample_points(rng, 8 * cases).reshape(cases, 8, 2)
    w = rng.uniform(1e-3, 1.0, (cases, 8))
    closed_m, closed_n, folded_m, folded_n = np.empty((4, cases))
    for size in range(1, 9):
        sel = k == size
        raw = w[sel, :size]
        w[sel, :size] = weights = raw / raw.sum(axis=1, keepdims=True)
        m, n = mn[sel, :size, 0], mn[sel, :size, 1]
        closed_m[sel], closed_n[sel] = aggregation.pfwa_table(m, n, weights, Aggregator.GEOMETRIC)
        folded_m[sel], folded_n[sel] = pfwa_fold(list(map(PFNArray, m.T, n.T)), weights.T)
    failed = (abs(closed_m - folded_m) > 1e-9) | (abs(closed_n - folded_n) > 1e-9)

    def replay(i: int) -> str | None:
        values = list(map(PFN, *mn[i, : k[i]].T.tolist()))
        weights = WeightVector(tuple(w[i, : k[i]].tolist()))
        closed, folded = pfwa_geometric(values, weights), pfwa_fold(values, weights)
        if abs(closed.m - folded.m) > 1e-9 or abs(closed.n - folded.n) > 1e-9:
            return f"values={values!r} weights={weights.values!r} {_diff(closed, folded)}"
        return None

    return failed, replay


# The set suites check 2 x 2 sets, every case at once.  Each case's table is
# drawn in table order (cells row by row, then importances) into one (cases,
# 3, 2) PFNArray, validated by `check_cells`, that goes through what
# `is_subset`, `equals` and `combine` use, looked up on `softset` at call
# time: `_dominated`, `_close`, `join` and `meet`.  Case 0 and the first
# failing case are then built and checked through the public API.
_UNIVERSE, _NAMES = ("a1", "a2"), ("c1", "c2")
_POOL = len(_NAMES) * (1 + len(_UNIVERSE))


def _stack(values: np.ndarray) -> PFNArray:
    """The tables of `values`, _POOL (m, n) pairs per case, in table order."""
    # cases vary fastest in memory, so the per-table reductions run across cases
    tables = np.asfortranarray(values.reshape(-1, len(_UNIVERSE) + 1, len(_NAMES), 2))
    return PFNArray(tables[..., 0], tables[..., 1])


def _case(m: np.ndarray, n: np.ndarray, i: int) -> PhiSoftSet:
    """Case i of stacked tables, assembled and validated by `build`."""
    *rows, importances = (list(zip(rm, rn)) for rm, rn in zip(m[i].tolist(), n[i].tolist()))
    cells = dict(zip(product(_UNIVERSE, _NAMES), (pair for row in rows for pair in row)))
    return build(_UNIVERSE, zip(_NAMES, importances), cells)


def _identities_case(x: PhiSoftSet, i: int, null: PhiSoftSet, whole: PhiSoftSet) -> str | None:
    variant = "restricted" if i % 2 else "extended"
    union, intersection = (CombineRule[variant.upper() + op] for op in ("_UNION", "_INTERSECTION"))
    checks = (
        ("union idempotent", combine(x, x, union), x),
        ("intersection idempotent", combine(x, x, intersection), x),
        ("union with null", combine(x, null, union), x),
        ("intersection with null", combine(x, null, intersection), null),
        ("union with whole", combine(x, whole, union), whole),
        ("intersection with whole", combine(x, whole, intersection), x),
    )
    for label, got, expected in checks:
        if not equals(got, expected):
            return f"{variant} {label} fails on {x.cells!r}"
    return None


@_suite("combination-identities")
def combination_identities(rng, cases: int):
    """Idempotence plus the null/whole absorption identities.

    Cases alternate between the extended and the restricted operators.
    """
    null, whole = null_set(_UNIVERSE, _NAMES), whole_set(_UNIVERSE, _NAMES)
    x = _stack(_sample_points(rng, _POOL * cases))
    check_cells(*x, _UNIVERSE, _NAMES)
    lo, hi = PFNArray(null.table_m, null.table_n), PFNArray(whole.table_m, whole.table_n)
    # x, null and whole list the same alternatives and parameters in the same
    # order, so `combine` pairs each column of its first operand with the
    # same column of its second: join and meet of whole tables are what it computes.
    join, meet, close = softset.join, softset.meet, softset._close
    ok = close(join(x, x), x) & close(meet(x, x), x)
    ok &= close(join(x, lo), x) & close(meet(x, lo), lo)
    ok &= close(join(x, hi), hi) & close(meet(x, hi), x)
    return ~ok, lambda i: _identities_case(_case(*x, i), i, null, whole)


def _shrunk(m: np.ndarray, n: np.ndarray, u: np.ndarray, v: np.ndarray) -> PFNArray:
    """Tables lattice-below (m, n): memberships shrink, non-memberships grow."""
    sm = m * u
    n2 = n * n + v * (1.0 - sm * sm - n * n)
    # the maximum guards the <= comparisons against sqrt round-off
    return PFNArray(sm, np.maximum(n, np.sqrt(np.maximum(0.0, np.minimum(1.0, n2)))))


def _grown(m: np.ndarray, n: np.ndarray, u: np.ndarray, v: np.ndarray) -> PFNArray:
    """Tables lattice-above (m, n): the complements of those below its complement."""
    return complement(_shrunk(n, m, u, v))


def _chain(rng, cases: int) -> tuple[PFNArray, PFNArray, PFNArray]:
    """Stacked tables b, a below b and c above b, each checked by `check_cells`."""
    b = _stack(_sample_points(rng, _POOL * cases))
    uv = rng.random((cases, 2 * _POOL, 2))
    a, c = _shrunk(*b, *_stack(uv[:, :_POOL])), _grown(*b, *_stack(uv[:, _POOL:]))
    for tables in (b, a, c):
        check_cells(*tables, _UNIVERSE, _NAMES)
    return b, a, c


def _subset_case(b: PhiSoftSet, a: PhiSoftSet, c: PhiSoftSet) -> str | None:
    if not (is_subset(a, b) and is_subset(b, c)):
        return f"constructed chain broken: {b.cells!r}"
    if not is_subset(a, c):
        return f"not transitive: {b.cells!r}"
    permuted = build(tuple(reversed(b.universe)), tuple(reversed(b.parameters)), b.cells)
    if not (is_subset(b, permuted) and is_subset(permuted, b)):
        return f"mutual subset broken: {b.cells!r}"
    if not equals(b, permuted):
        return f"antisymmetry broken: {b.cells!r}"
    if not equals(a, c) and is_subset(c, a):
        return f"order collapsed: {b.cells!r}"
    return None


@_suite("subset-is-transitive-and-antisymmetric")
def subset_is_transitive_and_antisymmetric(rng, cases: int):
    """a <= b <= c for b's shrunk and grown copies; subset is transitive,
    antisymmetric against b in reversed order, and does not collapse.

    `is_subset` and `equals` lay b's reversed copy out as b's table itself, so
    the batch checks b against b; case 0's replay checks the reversal."""
    b, a, c = _chain(rng, cases)
    dominated, close = softset._dominated, softset._close
    ok = dominated(a, b) & dominated(b, c) & dominated(a, c)
    ok &= dominated(b, b) & close(b, b)
    ok &= close(a, c) | ~dominated(c, a)
    return ~ok, lambda i: _subset_case(*(_case(*t, i) for t in (b, a, c)))


ALL_LAWS = (
    closure_of_pfn_operations,
    *_IDENTITY_SUITES,
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
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed!r}") from None
    return [law(rng, cases) for law in ALL_LAWS]


def render_report(results: list[LawResult], seed: int) -> str:
    lines = [f"seed: {seed}"]
    for r in results:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name} ({r.cases} cases)")
        if not r.ok:
            lines.append(f"      counterexample: {r.counterexample}")
    return "\n".join(lines) + "\n"
