"""Seeded randomized checks of the algebraic laws.

Every suite draws its cases from one shared numpy Generator, so a fixed
seed reproduces the exact same verdict and counterexample.  Suites return
the first counterexample found instead of raising, which lets the command
line print it and the test suite assert on it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import aggregation, softset
from .aggregation import Aggregator, WeightVector, pfwa_fold, pfwa_geometric
from .errors import PhiSoftError
from .pfn import (
    COMPARE_EPS, PFN, OrderKind, PFNArray, accuracy, add_p, below, close as pfn_close, compare,
    complement, expectation_score, join, meet, mul_p, order_key, power, scalar_mul, score, valid,
)
from .softset import (
    PhiSoftSet, build, check_cells, equals, extended_intersection, extended_union, is_subset,
    null_set, restricted_intersection, restricted_union, whole_set,
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


def _law(name: str, labels: tuple[str, ...], points: int, check):
    """A suite that checks every case at once.  A case is a PFN for each of
    the first `points` labels, then a scalar for each other label, drawn in
    that order for all cases.  `check(*case)` yields (holds, word) pairs:
    whether a law holds, and `word(shown)`, its counterexample given the case
    as `label=value` text.  It runs on all cases as PFNArrays and arrays, then
    (`_replayed`) on case 0 and the first failing case as PFNs and floats."""
    scalars = len(labels) - points

    def law(rng, cases: int) -> LawResult:
        drawn = _sample_points(rng, points * cases).reshape(cases, points, 2)
        alphas = _sample_alphas(rng, scalars * cases).reshape(cases, scalars)
        batch = (*(PFNArray(*p) for p in drawn.transpose(1, 2, 0)), *alphas.T)
        ok = np.all([holds for holds, _ in check(*batch)], axis=0)

        def replay(i: int) -> str | None:
            case = (*map(PFN, *drawn[i].T.tolist()), *alphas[i].tolist())
            shown = " ".join(f"{k}={v!r}" for k, v in zip(labels, case))
            try:
                return next((word(shown) for holds, word in check(*case) if not holds), None)
            except PhiSoftError as exc:  # a result is not a valid PFN
                return f"{shown}: {exc}"

        return _replayed(name, cases, ~ok, replay)

    law.__name__ = law.__qualname__ = name.replace("-", "_")
    law.__doc__ = check.__doc__
    return law


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


def _doubles(rng, block: int):
    """The doubles of rng.random(), drawn `block` at a time: the same stream."""
    while True:
        yield from rng.random(block).tolist()


def _equal_score_scan(rng, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Attempt t tries up to 32 doubles mb for base t mod cases and keeps the
    first that gives a point (mb, sqrt(nb2)) of the base's score, until there
    are `cases` pairs or 40 * cases attempts.  Returns each pair's (mb, nb2)
    and (base, doubles used up to it), and all the doubles used."""
    cases = len(bases)
    squares_m, squares_n = (bases * bases).T.tolist()
    doubles = _doubles(rng, 1024)
    values, counts = array("d"), array("q")  # no Python object per pair
    drawn = 0
    for attempt in range(40 * cases):
        if len(values) == 2 * cases:
            break
        j = attempt % cases
        bm2, bn2 = squares_m[j], squares_n[j]
        for drawn, mb in zip(range(drawn + 1, drawn + 33), doubles):
            nb2 = bn2 + mb * mb - bm2
            if 0.0 <= nb2 and mb * mb + nb2 <= 1.0:
                values.extend((mb, nb2))
                counts.extend((j, drawn))
                break
    return np.array(values).reshape(-1, 2), np.array(counts).reshape(-1, 2), drawn


def equal_score_tiebreaks_agree(rng, cases: int) -> LawResult:
    """On equal-score pairs the five tiebreak readings say the same thing.

    All pairs are checked at once, then pair 0 and the first failing pair
    as PFNs.  The scan draws its doubles in blocks, so rng is then reset and
    advanced by the doubles a pair-by-pair run draws up to where it stops."""
    bases = _sample_points(rng, cases)
    start = rng.bit_generator.state
    values, counts, drawn = _equal_score_scan(rng, bases)
    (mb, nb2), (picked, used) = values.T, counts.T
    a, b = PFNArray(*bases[picked].T), PFNArray(mb, np.sqrt(nb2))
    failed = np.zeros(len(picked), bool)
    for x, y in ((a, b), (b, a)):
        conditions = _readings(x, y)
        failed |= np.any(conditions, axis=0) != np.all(conditions, axis=0)

    def replay(i: int) -> str | None:
        pa, pb = PFN(a.m[i].item(), a.n[i].item()), PFN(b.m[i].item(), b.n[i].item())
        for x, y in ((pa, pb), (pb, pa)):
            conditions = _readings(x, y)
            if any(conditions) != all(conditions):
                return f"x={x!r} y={y!r} -> {conditions}"
        return None

    stop, counterexample = _first_failure(failed, replay)
    rng.bit_generator.state = start
    left = drawn if stop is None else int(used[stop])
    while left:  # a stalled scan draws 1280 doubles per case
        left -= len(rng.random(min(left, 1 << 16)))
    if counterexample is None and len(picked) < cases:
        counterexample = "sampling stalled"
    return LawResult("equal-score-tiebreaks-agree", cases, counterexample)


def _geometric_cases(rng, cases: int):
    """Case i's length k[i] (1 to 8), points and weights, in row i of (cases,
    8, 2) and (cases, 8) tables, drawn as per-case `integers`,
    `_sample_points` and `uniform` calls draw them.  The loop makes only the
    generator calls; the rejection test and the weight normalization run on
    arrays.  A case whose first batch keeps fewer than k[i] points needs
    `_sample_points`' refill, which shifts every later draw: its chunk of
    cases is drawn again from the chunk's start, that case sampled in full."""
    k, mn, w = np.empty(cases, np.intp), np.zeros((cases, 8, 2)), np.zeros((cases, 8))
    chunk, refilled = 256, set()  # a chunk's table and its temporaries stay under 0.2 MB
    for lo in range(0, cases, chunk):
        start, hi = rng.bit_generator.state, min(lo + chunk, cases)
        while True:
            batches = np.ones((hi - lo, 24, 2))  # (1, 1) lies outside the disk
            for i in range(lo, hi):
                k[i] = size = int(rng.integers(1, 9))
                if i in refilled:
                    batches[i - lo, :size] = _sample_points(rng, size)
                else:
                    rng.random(out=batches[i - lo, : size + 16])
                w[i, :size] = rng.uniform(1e-3, 1.0, size)
            inside = batches[..., 0] ** 2 + batches[..., 1] ** 2 <= 1.0
            rank = np.cumsum(inside, axis=1, dtype=np.int8)  # of each kept point, from 1
            short = rank[:, -1] < k[lo:hi]
            if not short.any():
                break
            refilled.update((lo + np.flatnonzero(short)).tolist())
            rng.bit_generator.state = start
        row, col = np.nonzero(inside & (rank <= k[lo:hi, None]))
        mn[lo + row, rank[row, col] - 1] = batches[row, col]
    for size in range(1, 9):
        sel = k == size
        raw = w[sel, :size]
        w[sel, :size] = raw / raw.sum(axis=1, keepdims=True)
    return k, mn, w


def geometric_closed_form_matches_fold(rng, cases: int) -> LawResult:
    """Closed-form weighted averaging equals the constructive add_p fold.

    Case i is k[i] <= 8 PFNs and weights (`_geometric_cases`).  Every case's
    closed form runs through `aggregation.pfwa_table` (looked up at call
    time), one call per k, and every case is folded; case 0 and the first
    failing case are then checked again through `pfwa_geometric`, which
    words the counterexample.
    """
    k, mn, w = _geometric_cases(rng, cases)
    closed_m, closed_n, folded_m, folded_n = np.empty((4, cases))
    for size in range(1, 9):
        sel = k == size
        m, n, weights = mn[sel, :size, 0], mn[sel, :size, 1], w[sel, :size]
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

    return _replayed("geometric-closed-form-matches-fold", cases, failed, replay)


# The set suites check 2 x 2 sets, every case at once.  The cases' tables
# are stacked into one (cases, 3, 2) PFNArray, validated by `check_cells`, and
# go through what `is_subset`, `equals` and `_combine` use, looked up on
# `softset` at call time: `_dominated`, `_close`, `join` and `meet`, on tables
# laid out by `_layout`.  Case 0 and the first failing case are then built
# and checked through the public API, which words the counterexample.
_UNIVERSE = ("a1", "a2")
_NAMES = ("c1", "c2")
_POOL = len(_NAMES) * (1 + len(_UNIVERSE))
# Where each table entry (row-major, importances last) comes from among a
# case's draws: its PFNs hold the importances, then the cells parameter by
# parameter; its uv pairs go to the importances, then the cells row by row.
_FROM_POOL = [2, 4, 3, 5, 0, 1]
_FROM_UV = [2, 3, 4, 5, 0, 1]


def _stack(values: np.ndarray, order) -> PFNArray:
    """The tables of `values`, _POOL (m, n) pairs per case, in `order`."""
    tables = values.reshape(-1, _POOL, 2)[:, order].reshape(-1, len(_UNIVERSE) + 1, len(_NAMES), 2)
    return PFNArray(tables[..., 0], tables[..., 1])


def _case(m: np.ndarray, n: np.ndarray, i: int) -> PhiSoftSet:
    """Case i of stacked tables, assembled and validated by `build`."""
    *rows, importances = (list(zip(rm, rn)) for rm, rn in zip(m[i].tolist(), n[i].tolist()))
    cells = dict(zip(product(_UNIVERSE, _NAMES), (pair for row in rows for pair in row)))
    return build(_UNIVERSE, zip(_NAMES, importances), cells)


def _first_failure(failed: np.ndarray, replay) -> tuple[int | None, str | None]:
    """The first failing case and its counterexample, or (None, None), on
    per-case batched `failed` flags.  `replay(i)` checks case i through the
    public API and returns its counterexample or None; it runs on case 0 and
    on the first flagged case."""
    for i in sorted({0, int(failed.argmax())}) if len(failed) else ():
        counterexample = replay(i)
        if counterexample is None and failed[i]:
            counterexample = f"case {i} fails in the batched check only"
        if counterexample is not None:
            return i, counterexample
    return None, None


def _replayed(name: str, cases: int, failed: np.ndarray, replay) -> LawResult:
    """The verdict of `_first_failure`."""
    return LawResult(name, cases, _first_failure(failed, replay)[1])


def _identities_case(x: PhiSoftSet, i: int, null: PhiSoftSet, whole: PhiSoftSet) -> str | None:
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
            return f"{variant} {label} fails on {x.cells!r}"
    return None


def combination_identities(rng, cases: int) -> LawResult:
    """Idempotence plus the null/whole absorption identities.

    Cases alternate between the extended and the restricted operators.
    """
    null, whole = null_set(_UNIVERSE, _NAMES), whole_set(_UNIVERSE, _NAMES)
    x = _stack(_sample_points(rng, _POOL * cases), _FROM_POOL)
    check_cells(*x, _UNIVERSE, _NAMES)
    lo, hi = PFNArray(null.table_m, null.table_n), PFNArray(whole.table_m, whole.table_n)
    # x, null and whole list the same alternatives and parameters in the same
    # order, so `_combine` pairs each column of its first operand with the
    # same column of its second: join and meet of whole tables are what it computes.
    join, meet, close = softset.join, softset.meet, softset._close
    ok = close(join(x, x), x) & close(meet(x, x), x)
    ok &= close(join(x, lo), x) & close(meet(x, lo), lo)
    ok &= close(join(x, hi), hi) & close(meet(x, hi), x)
    replay = lambda i: _identities_case(_case(*x, i), i, null, whole)  # noqa: E731
    return _replayed("combination-identities", cases, ~ok, replay)


def _shrunk(m: np.ndarray, n: np.ndarray, u: np.ndarray, v: np.ndarray) -> PFNArray:
    """Tables lattice-below (m, n): memberships shrink, non-memberships grow."""
    sm = m * u
    n2 = n * n + v * (1.0 - sm * sm - n * n)
    # the maximum guards the <= comparisons against sqrt round-off
    return PFNArray(sm, np.maximum(n, np.sqrt(np.maximum(0.0, np.minimum(1.0, n2)))))


def _grown(m: np.ndarray, n: np.ndarray, u: np.ndarray, v: np.ndarray) -> PFNArray:
    """Tables lattice-above (m, n)."""
    gn = n * u
    m2 = m * m + v * (1.0 - m * m - gn * gn)
    return PFNArray(np.maximum(m, np.sqrt(np.maximum(0.0, np.minimum(1.0, m2)))), gn)


def _chain(rng, cases: int) -> tuple[PFNArray, PFNArray, PFNArray]:
    """Stacked tables b, then a below and c above b, per case, each checked
    by `check_cells`."""
    b = _stack(_sample_points(rng, _POOL * cases), _FROM_POOL)
    uv = rng.random((cases, 2 * _POOL, 2))
    a = _shrunk(*b, *_stack(uv[:, :_POOL], _FROM_UV))
    c = _grown(*b, *_stack(uv[:, _POOL:], _FROM_UV))
    for tables in (b, a, c):
        check_cells(*tables, _UNIVERSE, _NAMES)
    return b, a, c


def _permuted(s: PhiSoftSet) -> PhiSoftSet:
    return build(tuple(reversed(s.universe)), tuple(reversed(s.parameters)), s.cells)


def _subset_case(b: PhiSoftSet, a: PhiSoftSet, c: PhiSoftSet) -> str | None:
    if not (is_subset(a, b) and is_subset(b, c)):
        return f"constructed chain broken: {b.cells!r}"
    if not is_subset(a, c):
        return f"not transitive: {b.cells!r}"
    permuted = _permuted(b)
    if not (is_subset(b, permuted) and is_subset(permuted, b)):
        return f"mutual subset broken: {b.cells!r}"
    if not equals(b, permuted):
        return f"antisymmetry broken: {b.cells!r}"
    if not equals(a, c) and is_subset(c, a):
        return f"order collapsed: {b.cells!r}"
    return None


def subset_is_transitive_and_antisymmetric(rng, cases: int) -> LawResult:
    """a <= b <= c for b's shrunk and grown copies; subset is transitive,
    antisymmetric against b in reversed order, and does not collapse."""
    b, a, c = _chain(rng, cases)
    b0 = _case(*b, 0)
    p0 = _permuted(b0)
    p = softset._layout(b0, p0.universe, p0.parameter_names, b)  # the permuted tables
    p_as_b = softset._layout(p0, b0.universe, b0.parameter_names, p)
    dominated, close = softset._dominated, softset._close
    ok = dominated(a, b) & dominated(b, c) & dominated(a, c)
    ok &= dominated(b, p_as_b) & dominated(p, p) & close(b, p_as_b)
    ok &= close(a, c) | ~dominated(c, a)
    replay = lambda i: _subset_case(*(_case(*t, i) for t in (b, a, c)))  # noqa: E731
    return _replayed("subset-is-transitive-and-antisymmetric", cases, ~ok, replay)


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
