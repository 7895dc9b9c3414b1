"""Smoke coverage of the randomized law machinery (full runs live in the
acceptance suite and behind the `laws` subcommand)."""

import copy
import hashlib
import math
import re

import numpy as np
import pytest

from phisoft import (
    PFN,
    VALIDITY_EPS,
    OrderKind,
    Ordering,
    PFParameter,
    WeightVector,
    aggregation,
    build,
    compare,
    decide,
    equals,
    extended_intersection,
    extended_union,
    is_subset,
    laws,
    null_set,
    pfn,
    restricted_intersection,
    restricted_union,
    softset,
    whole_set,
)
from phisoft.errors import InvalidPFN
from phisoft.pfn import COMPARE_EPS, PFNArray, order_key


def _sample_pfns(rng, count):
    """`laws._sample_points` as PFNs, as the per-case suites drew them."""
    return list(map(PFN, *laws._sample_points(rng, count).T.tolist()))


def test_all_suites_pass_on_a_short_run():
    results = laws.run_all(cases=250, seed=123)
    assert len(results) == len(laws.ALL_LAWS)
    failed = [r for r in results if not r.ok]
    assert not failed, failed


def test_same_seed_same_report():
    a = laws.render_report(laws.run_all(cases=200, seed=5), seed=5)
    b = laws.render_report(laws.run_all(cases=200, seed=5), seed=5)
    assert a == b
    assert a.startswith("seed: 5")


def test_different_seeds_draw_different_cases():
    one = _sample_pfns(np.random.default_rng(1), 10)
    two = _sample_pfns(np.random.default_rng(2), 10)
    assert one != two


def test_render_report_shows_counterexamples():
    result = laws.LawResult("demo-law", 3, "a=1 b=2")
    text = laws.render_report([result], seed=0)
    assert "FAIL" in text and "a=1 b=2" in text


# The report bytes and the generator's draw count are pinned, so a faster
# suite must check the same cases with the same draws and say the same thing.
REPORT_SHA256 = {
    (17, 10_000): "3862c396cf8f52802b62c97d3fe926243e71d76ae5d98a9be71cae5bb6d2d63f",
    (5, 200): "467d10a469829afd749fbeb2bf6774750794daa21b9fa74566f18fdd093150e4",
    (123, 250): "e7b48dacee0af7ad61cb59e1d6dd8d7248a175506d197278fd1ef68ca58b59cc",
}

# rng.random() from a copy of the generator after each suite (seed 11, 300 cases).
NEXT_DRAW_AFTER_SUITE = (
    0.2871234026761018, 0.053281726805650576, 0.7181105917240156, 0.30979924766415423,
    0.7774870732265046, 0.6864544984020294, 0.005006749516033748, 0.9120356275009477,
    0.6409325542536529, 0.7919276563207154, 0.23969093962523336, 0.3981830107810702,
    0.08583066799218741, 0.5025923762632546,
)


@pytest.mark.parametrize(("seed", "cases"), sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(seed, cases):
    text = laws.render_report(laws.run_all(cases, seed), seed)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed, cases]


def test_each_suite_draws_what_it_drew():
    rng = np.random.default_rng(11)
    after = []
    for law in laws.ALL_LAWS:
        law(rng, 300)
        after.append(copy.deepcopy(rng).random())
    assert tuple(after) == NEXT_DRAW_AFTER_SUITE


def test_suite_names_and_case_counts():
    names = [law.__name__.replace("_", "-") for law in laws.ALL_LAWS]
    assert names == [
        "closure-of-pfn-operations", "addition-and-multiplication-commute",
        "scalar-distributes-over-addition", "scalar-multiples-add",
        "power-distributes-over-product", "powers-multiply",
        "membership-then-es-is-partial-order", "score-accuracy-agrees-with-es-then-membership",
        "equal-score-tiebreaks-agree", "addition-preserves-order", "scaling-preserves-order",
        "geometric-closed-form-matches-fold", "combination-identities",
        "subset-is-transitive-and-antisymmetric",
    ]
    results = laws.run_all(cases=7, seed=1)
    assert [r.name for r in results] == names
    assert {r.cases for r in results} == {7}


# `pfn_close` stand-ins that fail on some cases, so every identity suite
# prints a counterexample, commute's with the prefix given.  The report
# hashes were taken on the per-suite loops the identity table replaced.
IDENTITY_FAILURES = [
    (lambda left, right: left.m >= 0.2, "mul_p a=",
     "b9ac2017b450c1358254d01f79ea7b8edc44f9fff20ed79d5495e2af58f62d26"),
    (lambda left, right: left.m <= 0.5, "add_p a=",
     "f071d69145721b74c97dd00f58edf8f50515bc0bce349f84226369c28e80745d"),
]


@pytest.mark.parametrize(("close", "prefix", "sha256"), IDENTITY_FAILURES, ids=["mul_p", "add_p"])
def test_identity_counterexamples_keep_their_format(close, prefix, sha256, monkeypatch):
    monkeypatch.setattr(laws, "pfn_close", close)
    text = laws.render_report(laws.run_all(40, 3), 3)
    assert text.count("FAIL") == 5 and f"counterexample: {prefix}" in text
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


# --- the batched set suites against their per-case reference ---------------
#
# The per-case loops the batched suites replaced: one 2 x 2 set built per
# case, checked through `build`, `is_subset`, `equals` and the four
# combination operators.  They draw exactly what the suites draw.

_UNIVERSE, _NAMES, _POOL = laws._UNIVERSE, laws._NAMES, laws._POOL


def _softset_from(pool):
    it = iter(pool)
    params = [PFParameter(nm, next(it)) for nm in _NAMES]
    cells = {(alt, nm): next(it) for nm in _NAMES for alt in _UNIVERSE}
    return build(_UNIVERSE, params, cells)


def _shrunk(value, u, v):
    m = value.m * u
    n2 = value.n * value.n + v * (1.0 - m * m - value.n * value.n)
    return PFN(m, max(value.n, math.sqrt(max(0.0, min(1.0, n2)))))


def _grown(value, u, v):
    n = value.n * u
    m2 = value.m * value.m + v * (1.0 - value.m * value.m - n * n)
    return PFN(max(value.m, math.sqrt(max(0.0, min(1.0, m2)))), n)


def _map_set(s, f, uv):
    it = iter(uv)
    params = [PFParameter(p.name, f(p.importance, *next(it))) for p in s.parameters]
    cells = {key: f(value, *next(it)) for key, value in s.cells.items()}
    return build(s.universe, params, cells)


def _reference_chains(rng, cases):
    pool = _sample_pfns(rng, _POOL * cases)
    uv = rng.random((cases, 2 * _POOL, 2))
    for i in range(cases):
        b = _softset_from(pool[_POOL * i : _POOL * (i + 1)])
        yield b, _map_set(b, _shrunk, uv[i, :_POOL]), _map_set(b, _grown, uv[i, _POOL:])


def reference_subset_suite(rng, cases):
    """(index, counterexample) of the first failing case, or (None, None)."""
    for i, (b, a, c) in enumerate(_reference_chains(rng, cases)):
        if not (is_subset(a, b) and is_subset(b, c)):
            return i, f"constructed chain broken: {b.cells!r}"
        if not is_subset(a, c):
            return i, f"not transitive: {b.cells!r}"
        permuted = build(tuple(reversed(b.universe)), tuple(reversed(b.parameters)), b.cells)
        if not (is_subset(b, permuted) and is_subset(permuted, b)):
            return i, f"mutual subset broken: {b.cells!r}"
        if not equals(b, permuted):
            return i, f"antisymmetry broken: {b.cells!r}"
        if not equals(a, c) and is_subset(c, a):
            return i, f"order collapsed: {b.cells!r}"
    return None, None


def reference_identities_suite(rng, cases):
    null, whole = null_set(_UNIVERSE, _NAMES), whole_set(_UNIVERSE, _NAMES)
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
                return i, f"{variant} {label} fails on {x.cells!r}"
    return None, None


REFERENCES = {
    laws.subset_is_transitive_and_antisymmetric: reference_subset_suite,
    laws.combination_identities: reference_identities_suite,
}


def _against_reference(suite, seed, cases):
    """The batched verdict and the reference's (index, counterexample),
    after checking both leave the generator in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = suite(rng, cases)
    index, counterexample = REFERENCES[suite](ref_rng, cases)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert result.cases == cases
    return result, index, counterexample


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


def _sometimes_wrong(kernel):
    """`kernel`, wrong on the pairs of tables whose entries hash to 0 mod 13.

    The hash is an exact integer sum, the same for a table alone and for it
    inside a stack, so the fault hits each check on cases of its own.
    """

    def wrong(a, b):
        key = sum((t * 2**20).astype(np.int64) * w for t, w in zip((*a, *b), (1, 3, 5, 7)))
        hit = key.sum(axis=(-2, -1)) % 13 == 0
        out = kernel(a, b)
        if isinstance(out, PFNArray):  # a join or meet: halve the memberships
            return PFNArray(np.where(hit[..., None, None], out.m * 0.5, out.m), out.n)
        return out ^ hit

    return wrong


class TestBatchedSetSuites:
    def test_stacked_tables_are_the_per_case_sets(self):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        stacks = laws._chain(rng, 300)
        for i, sets in enumerate(_reference_chains(ref_rng, 300)):
            for (m, n), s in zip(stacks, sets):
                assert _bits(m[i]) == _bits(s.table_m) and _bits(n[i]) == _bits(s.table_n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("suite", list(REFERENCES), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0, 9, 31])
    def test_same_verdict_as_the_reference(self, suite, seed):
        result, index, counterexample = _against_reference(suite, seed, 400)
        assert result.ok and index is None

    @pytest.mark.parametrize("suite", list(REFERENCES), ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        ("broken", "first_failure"),
        [
            # >= lets no table be a subset of itself
            (lambda a, b: ~((a.m >= b.m) | (a.n < b.n)).any(axis=(-2, -1)),
             "mutual subset broken"),
            # every table a subset of every other
            (lambda a, b: np.ones(np.broadcast(a.m, b.m).shape[:-2], bool),
             "order collapsed"),
        ],
        ids=["strict", "always"],
    )
    def test_a_broken_subset_kernel_is_reported_alike(
        self, suite, broken, first_failure, monkeypatch
    ):
        monkeypatch.setattr(softset, "_dominated", broken)
        result, index, counterexample = _against_reference(suite, 5, 300)
        if suite is laws.combination_identities:  # uses no subset test
            assert result.ok and index is None
        else:
            assert not result.ok and result.counterexample == counterexample
            assert counterexample.startswith(first_failure)

    @pytest.mark.parametrize(
        ("suite", "kernel"),
        [(laws.subset_is_transitive_and_antisymmetric, k) for k in ("_dominated", "_close")]
        + [(laws.combination_identities, k) for k in ("_close", "join", "meet")],
        ids=["subset-dominated", "subset-close", "identities-close", "join", "meet"],
    )
    def test_a_fault_on_some_cases_is_reported_alike(self, suite, kernel, monkeypatch):
        monkeypatch.setattr(softset, kernel, _sometimes_wrong(getattr(softset, kernel)))
        first = []
        for seed in range(12):
            result, index, counterexample = _against_reference(suite, seed, 200)
            assert not result.ok and result.counterexample == counterexample
            first.append(index)
        assert max(first) > 0

    @pytest.mark.parametrize("suite", list(REFERENCES), ids=lambda f: f.__name__)
    def test_swapped_join_and_meet_are_reported_alike(self, suite, monkeypatch):
        join, meet = softset.join, softset.meet
        monkeypatch.setattr(softset, "join", meet)
        monkeypatch.setattr(softset, "meet", join)
        result, index, counterexample = _against_reference(suite, 5, 300)
        if suite is laws.subset_is_transitive_and_antisymmetric:  # combines nothing
            assert result.ok and index is None
        else:
            assert not result.ok and result.counterexample == counterexample
            assert counterexample.startswith("extended union with null fails")

    @pytest.mark.parametrize("suite", list(REFERENCES), ids=lambda f: f.__name__)
    def test_a_broken_closeness_kernel_is_reported_alike(self, suite, monkeypatch):
        def never(a, b):
            return np.zeros(np.broadcast(a.m, b.m).shape[:-2], bool)

        monkeypatch.setattr(softset, "_close", never)
        result, index, counterexample = _against_reference(suite, 5, 300)
        assert index == 0
        assert not result.ok and result.counterexample == counterexample

    def test_an_invalid_stacked_entry_raises_the_located_error(self):
        pool = laws._sample_points(np.random.default_rng(2), 3 * _POOL)
        m, n = (t.copy() for t in laws._stack(pool, laws._FROM_POOL))
        m[1, -1, 1] = 1.5  # case 1's importance of c2
        with pytest.raises(InvalidPFN, match=r"importance of 'c2': degrees must lie in \[0, 1\]"):
            softset.check_cells(m, n, laws._UNIVERSE, laws._NAMES)

    def test_a_stack_names_the_first_bad_entry_of_its_first_bad_table_as_build_does(self):
        pool = laws._sample_points(np.random.default_rng(2), 4 * _POOL)
        m, n = (t.copy() for t in laws._stack(pool, laws._FROM_POOL))
        m[1, 1, 0] = n[1, 1, 0] = 0.9  # case 1's cell (a2, c1): not Pythagorean
        m[1, -1, 0] = 1.5  # a later entry of case 1, its importance of c1
        m[2, 0, 0] = 1.5  # an earlier entry, of a later case
        with pytest.raises(InvalidPFN) as built:
            laws._case(m, n, 1)
        with pytest.raises(InvalidPFN) as checked:
            softset.check_cells(m, n, laws._UNIVERSE, laws._NAMES)
        assert str(checked.value) == str(built.value)
        assert str(built.value).startswith("cell (a2, c1): m**2 + n**2 = ")

    def test_a_failure_only_the_batch_sees_is_reported(self):
        failed = np.array([False, False, True, True])
        result = laws._replayed("demo-law", 4, failed, lambda i: None)
        assert result.counterexample == "case 2 fails in the batched check only"
        assert laws._replayed("demo-law", 4, np.zeros(4, bool), lambda i: None).ok


# --- the batched geometric suite against its per-case reference ------------


def reference_geometric_suite(rng, cases):
    """The per-case loop the batched suite replaced: (index, counterexample)
    of the first failing case, or (None, None).  It stops drawing there."""
    for i in range(cases):
        k = int(rng.integers(1, 9))
        values = _sample_pfns(rng, k)
        raw = rng.uniform(1e-3, 1.0, k)
        weights = WeightVector(tuple(float(w) for w in raw / raw.sum()))
        closed = laws.pfwa_geometric(values, weights)
        folded = laws.pfwa_fold(values, weights)
        if abs(closed.m - folded.m) > 1e-9 or abs(closed.n - folded.n) > 1e-9:
            return i, f"values={values!r} weights={weights.values!r} {laws._diff(closed, folded)}"
    return None, None


def _row_hit(m, n):
    """Rows of (m, n) whose entries hash to 0 mod 13.  The hash is an exact
    integer sum over the row, the same for a row alone and inside a stack."""
    key = (m * 2**20).astype(np.int64) + 3 * (n * 2**20).astype(np.int64)
    return key.sum(axis=-1) % 13 == 0


class TestBatchedGeometricSuite:
    suite = staticmethod(laws.geometric_closed_form_matches_fold)

    def _against_reference(self, seed, cases):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = self.suite(rng, cases)
        index, counterexample = reference_geometric_suite(ref_rng, cases)
        assert result.cases == cases
        if index is None:  # the reference stops drawing at its first failure
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        return result, index, counterexample

    @pytest.mark.parametrize("seed", [0, 9, 31, 2024])
    def test_same_verdict_and_draws_as_the_reference(self, seed):
        result, index, counterexample = self._against_reference(seed, 400)
        assert result.ok and index is None

    def test_the_closed_form_is_batched(self, monkeypatch):
        calls = {"pfwa_table": 0, "pfwa_geometric": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name, module in (("pfwa_table", aggregation), ("pfwa_geometric", laws)):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert self.suite(np.random.default_rng(3), 500).ok
        # at most 8 batch calls, then case 0's replay through pfwa_geometric
        assert calls == {"pfwa_table": 8 + 1, "pfwa_geometric": 1}

    def test_a_kernel_fault_on_some_rows_is_reported_alike(self, monkeypatch):
        kernel = aggregation.pfwa_table

        def nudged(m, n, weights, aggregator):
            out_m, out_n = kernel(m, n, weights, aggregator)
            return np.where(_row_hit(m, n), out_m * 0.5, out_m), out_n

        monkeypatch.setattr(aggregation, "pfwa_table", nudged)
        first = []
        for seed in range(12):
            result, index, counterexample = self._against_reference(seed, 200)
            assert not result.ok and result.counterexample == counterexample
            first.append(index)
        assert max(first) > 0

    def test_a_fold_fault_on_some_cases_is_reported_alike(self, monkeypatch):
        fold = laws.pfwa_fold

        def wrong(values, weights):  # PFNs, or PFNArray columns with one case per entry
            folded = fold(values, weights)
            m, n = (np.stack([getattr(v, c) for v in values], axis=-1) for c in "mn")
            return type(folded)(folded.m, np.where(_row_hit(m, n), folded.n * 0.5, folded.n))

        monkeypatch.setattr(laws, "pfwa_fold", wrong)
        first = []
        for seed in range(12):
            result, index, counterexample = self._against_reference(seed, 200)
            assert not result.ok and result.counterexample == counterexample
            first.append(index)
        assert max(first) > 0

    def test_a_short_first_batch_is_refilled_as_the_reference_refills_it(self):
        seed, cases = 5, 400
        rng = np.random.default_rng(seed)
        for j in range(cases):  # the state before the first batch of case j
            size = int(rng.integers(1, 9))
            if j >= 300 and size >= 2:  # past the suite's first chunk of cases
                target = rng.bit_generator.state
                break
            laws._sample_points(rng, size)
            rng.uniform(1e-3, 1.0, size)
        suite_rng, ref_rng = PushedOut(seed, target), PushedOut(seed, target)
        result = self.suite(suite_rng, cases)
        index, counterexample = reference_geometric_suite(ref_rng, cases)
        assert result.ok and index is None
        assert suite_rng.bit_generator.state == ref_rng.bit_generator.state
        # the reference refills case j once; the suite draws its batch, finds
        # it short, and draws it again with the refill
        assert (ref_rng.hits, ref_rng.refills) == (1, 1)
        assert (suite_rng.hits, suite_rng.refills) == (2, 1)


class PushedOut:
    """A Generator whose point batch drawn at state `target` lies outside the
    disk but for its first point, so `_sample_points` must refill it.  It
    counts such batches (`hits`) and the refill batches drawn right after
    one (`refills`)."""

    def __init__(self, seed, target):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.target, self.hits, self.refills, self._after_hit = target, 0, 0, False

    def integers(self, *args):
        self._after_hit = False
        return self._rng.integers(*args)

    def uniform(self, *args):
        self._after_hit = False
        return self._rng.uniform(*args)

    def random(self, size=None, out=None):
        hit = self.bit_generator.state == self.target
        self.refills += self._after_hit
        self._after_hit = hit
        batch = self._rng.random(size, out=out)
        if hit:
            self.hits += 1
            batch[1:] = 0.75 + 0.25 * batch[1:]  # 0.75**2 + 0.75**2 > 1
        return batch


# --- the batched equal-score suite against its per-case reference ----------


def reference_equal_score_suite(rng, cases):
    """The per-case loop the batched suite replaced, measures looked up on
    `laws` at call time.  It stops drawing at its first failing pair."""
    name = "equal-score-tiebreaks-agree"
    bases = _sample_pfns(rng, cases)
    done = attempts = 0
    while done < cases:
        a = bases[attempts % len(bases)]
        attempts += 1
        if attempts > 40 * cases:
            return laws.LawResult(name, cases, "sampling stalled")
        b = None
        for _ in range(32):
            mb = float(rng.random())
            nb2 = a.n * a.n + mb * mb - a.m * a.m
            if 0.0 <= nb2 and mb * mb + nb2 <= 1.0:
                b = PFN(mb, math.sqrt(nb2))
                break
        if b is None:
            continue
        done += 1
        for x, y in ((a, b), (b, a)):
            sf_eq = abs(laws.score(x) - laws.score(y)) <= COMPARE_EPS
            es_eq = abs(laws.expectation_score(x) - laws.expectation_score(y)) <= COMPARE_EPS
            conditions = (
                sf_eq and laws.accuracy(x) <= laws.accuracy(y),
                es_eq and x.m <= y.m,
                es_eq and x.n <= y.n,
                sf_eq and x.m <= y.m,
                sf_eq and x.n <= y.n,
            )
            if any(conditions) != all(conditions):
                return laws.LawResult(name, cases, f"x={x!r} y={y!r} -> {conditions}")
    return laws.LawResult(name, cases)


def _raised_on_hits(measure):
    """`measure`, raised by 1 on the PFNs that hash to 0 mod 13; a float for a PFN."""
    def wrong(x):
        out = measure(x) + np.where(_hit(x), 1.0, 0.0)
        return out if isinstance(x, PFNArray) else float(out)
    return wrong


class NeverEqual:
    """A Generator whose doubles drawn one at a time or in a row are all 1.0,
    which pairs with no base; it draws as many from `rng` as it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def random(self, size=None):
        drawn = self._rng.random(size)
        if size is None:
            return 1.0
        return drawn if np.ndim(drawn) > 1 else np.ones_like(drawn)


class TestBatchedEqualScoreSuite:
    suite = staticmethod(laws.equal_score_tiebreaks_agree)

    def _against_reference(self, rng, ref_rng, cases):
        result = self.suite(rng, cases)
        assert result == reference_equal_score_suite(ref_rng, cases)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return result

    @pytest.mark.parametrize("seed", [0, 9, 31, 2024])
    def test_same_result_and_draws_as_the_reference(self, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert self._against_reference(rng, ref_rng, 400).ok

    @pytest.mark.parametrize("measure", ["accuracy", "score"])
    def test_a_measure_fault_stops_where_the_reference_stops(self, measure, monkeypatch):
        unfaulted = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            self.suite(rng, 200)
            unfaulted.append(rng.bit_generator.state)
        monkeypatch.setattr(laws, measure, _raised_on_hits(getattr(laws, measure)))
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            result = self._against_reference(rng, ref_rng, 200)
            assert not result.ok and result.counterexample.startswith("x=PFN(")
            assert rng.bit_generator.state != unfaulted[seed]  # it stopped early

    def test_a_generator_that_never_pairs_stalls_alike(self):
        result = self._against_reference(NeverEqual(3), NeverEqual(3), 20)
        assert result.counterexample == "sampling stalled"

    def test_a_failure_at_the_first_pair_stops_there(self, monkeypatch):
        monkeypatch.setattr(laws, "accuracy", lambda x: -x.m)  # reverses the first reading
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        result = self._against_reference(rng, ref_rng, 50)
        # base 0, (0.976, 0.081), finds no pair in its 32 draws: pair 0 is base 1's
        assert repr(_sample_pfns(np.random.default_rng(4), 2)[1]) in result.counterexample


# --- the batched PFN suites against their per-case reference ---------------
#
# The per-case loops the `laws._law` runner replaced, one PFN case at a time
# through the scalar API.  They draw exactly what the suites draw, and look
# every operation up on `laws` (and `below` on `pfn`, through `compare`) at
# call time, so an injected fault reaches both sides.


def _reference_cases(rng, cases, points, scalars):
    pfns = _sample_pfns(rng, points * cases)
    alphas = laws._sample_alphas(rng, scalars * cases).tolist() if scalars else []
    for i in range(cases):
        yield i, (*pfns[points * i : points * (i + 1)], *alphas[scalars * i : scalars * (i + 1)])


def reference_closure(rng, cases):
    for i, (a, b, alpha) in _reference_cases(rng, cases, 2, 1):
        try:
            results = (
                laws.complement(a), laws.join(a, b), laws.meet(a, b), laws.add_p(a, b),
                laws.mul_p(a, b), laws.scalar_mul(alpha, a), laws.power(a, alpha),
            )
        except Exception as exc:  # constructor rejected a result
            return i, f"a={a!r} b={b!r} alpha={alpha!r}: {exc}"
        for r in results:
            if not (0.0 <= r.m <= 1.0 and 0.0 <= r.n <= 1.0) or (
                r.m * r.m + r.n * r.n > 1.0 + VALIDITY_EPS
            ):
                return i, f"a={a!r} b={b!r} alpha={alpha!r} -> {r!r}"
    return None, None


def _reference_identity(labels, *sides):
    points = sum(label in ("a", "b") for label in labels)

    def suite(rng, cases):
        for i, case in _reference_cases(rng, cases, points, len(labels) - points):
            for prefix, sides_of in sides:
                left, right = sides_of(*case)
                if not laws.pfn_close(left, right):
                    shown = " ".join(f"{k}={v!r}" for k, v in zip(labels, case))
                    return i, f"{prefix}{shown} {laws._diff(left, right)}"
        return None, None

    return suite


REFERENCE_IDENTITIES = [
    _reference_identity(("a", "b"),
                        ("add_p ", lambda a, b: (laws.add_p(a, b), laws.add_p(b, a))),
                        ("mul_p ", lambda a, b: (laws.mul_p(a, b), laws.mul_p(b, a)))),
    _reference_identity(("a", "b", "alpha"), ("", lambda a, b, t: (
        laws.scalar_mul(t, laws.add_p(a, b)),
        laws.add_p(laws.scalar_mul(t, a), laws.scalar_mul(t, b))))),
    _reference_identity(("a", "a1", "a2"), ("", lambda a, s, t: (
        laws.add_p(laws.scalar_mul(s, a), laws.scalar_mul(t, a)), laws.scalar_mul(s + t, a)))),
    _reference_identity(("a", "b", "alpha"), ("", lambda a, b, t: (
        laws.power(laws.mul_p(a, b), t), laws.mul_p(laws.power(a, t), laws.power(b, t))))),
    _reference_identity(("a", "a1", "a2"), ("", lambda a, s, t: (
        laws.mul_p(laws.power(a, s), laws.power(a, t)), laws.power(a, s + t)))),
]

_M_ES = OrderKind.MEMBERSHIP_THEN_ES


def reference_partial_order(rng, cases):
    for i, (x, y, z) in _reference_cases(rng, cases, 3, 0):
        if compare(x, x, _M_ES) is not Ordering.EQUAL:
            return i, f"not reflexive at x={x!r}"
        for a, b in ((x, y), (y, z), (x, z)):
            if compare(a, b, _M_ES) is Ordering.EQUAL and (
                order_key(_M_ES, a.m, a.n) != order_key(_M_ES, b.m, b.n)
            ):
                return i, f"not antisymmetric: a={a!r} b={b!r}"
        lo, mid, hi = sorted((x, y, z), key=lambda p: order_key(_M_ES, p.m, p.n))
        if (
            compare(lo, mid, _M_ES) is Ordering.GREATER
            or compare(mid, hi, _M_ES) is Ordering.GREATER
            or compare(lo, hi, _M_ES) is Ordering.GREATER
        ):
            return i, f"not transitive on {x!r}, {y!r}, {z!r}"
    return None, None


def reference_orders_agree(rng, cases):
    for i, (a, b) in _reference_cases(rng, cases, 2, 0):
        left = compare(a, b, OrderKind.SCORE_ACCURACY)
        right = compare(a, b, OrderKind.ES_THEN_MEMBERSHIP)
        if left is not right:
            return i, f"a={a!r} b={b!r} {left} vs {right}"
    return None, None


def reference_addition_order(rng, cases):
    for i, (m, n, k) in _reference_cases(rng, cases, 3, 0):
        if compare(n, k, _M_ES) is Ordering.GREATER:
            n, k = k, n
        if compare(laws.add_p(m, n), laws.add_p(m, k), _M_ES) is Ordering.GREATER:
            return i, f"M={m!r} N={n!r} K={k!r}"
    return None, None


def reference_scaling_order(rng, cases):
    for i, (a, b, alpha, beta) in _reference_cases(rng, cases, 2, 2):
        if compare(a, b, _M_ES) is Ordering.GREATER:
            a, b = b, a
        if compare(laws.scalar_mul(alpha, a), laws.scalar_mul(alpha, b), _M_ES) is Ordering.GREATER:
            return i, f"a={a!r} b={b!r} alpha={alpha!r}"
        a1, a2 = sorted((alpha, beta))
        if compare(laws.scalar_mul(a1, a), laws.scalar_mul(a2, a), _M_ES) is Ordering.GREATER:
            return i, f"a={a!r} a1={a1!r} a2={a2!r}"
    return None, None


PFN_REFERENCES = {
    laws.closure_of_pfn_operations: reference_closure,
    **dict(zip(laws._IDENTITY_SUITES, REFERENCE_IDENTITIES)),
    laws.membership_then_es_is_partial_order: reference_partial_order,
    laws.score_accuracy_agrees_with_es_then_membership: reference_orders_agree,
    laws.addition_preserves_order: reference_addition_order,
    laws.scaling_preserves_order: reference_scaling_order,
}
CLOSURE = [laws.closure_of_pfn_operations]
IDENTITIES = list(laws._IDENTITY_SUITES)
ORDER_SUITES = [
    laws.membership_then_es_is_partial_order, laws.score_accuracy_agrees_with_es_then_membership,
    laws.addition_preserves_order, laws.scaling_preserves_order,
]


def _against_pfn_reference(suite, seed, cases):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = suite(rng, cases)
    index, counterexample = PFN_REFERENCES[suite](ref_rng, cases)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert result.cases == cases and result.counterexample == counterexample
    return index


def _hit(*xs):
    """Entrywise: whether the PFNs or PFNArrays `xs` hash to 0 mod 13.  The
    hash is an exact integer sum, the same for an entry alone and inside an
    array."""
    parts = [c for x in xs for c in (x.m, x.n)]
    key = sum(np.asarray(c * 2**20).astype(np.int64) * (2 * k + 1) for k, c in enumerate(parts))
    return key % 13 == 0


def _invalid_on_hits(op):
    """`op`, whose membership is pushed above 1 on hashed cases."""
    def wrong(a, b):
        r = op(a, b)
        return type(r)(np.where(_hit(a, b), r.m + 1.0, r.m), r.n)
    return wrong


def _nudged_on_hits(op):
    """`op`, whose membership is halved on hashed cases."""
    def wrong(x, y):
        r = op(x, y)
        return type(r)(np.where(_hit(*(v for v in (x, y) if hasattr(v, "m"))), r.m * 0.5, r.m), r.n)
    return wrong


def _flipped_on_hits(below):
    """`below` with its operands swapped on pairs whose hash, symmetric in
    the two, is 0 mod 13: the order is reversed on those pairs."""
    def wrong(a, b, order):
        key = (a.m + b.m) * 2**20  # symmetric in a and b
        hit = np.asarray(key).astype(np.int64) % 13 == 0
        out = np.where(hit, below(b, a, order), below(a, b, order))
        return out if out.ndim else bool(out)
    return wrong


def _mutual_on_hits(below):
    """`below`, true both ways on pairs whose hash, symmetric in the two, is
    0 mod 13: such pairs tie whatever their keys."""
    def wrong(a, b, order):
        hit = np.asarray((a.m + b.m) * 2**20).astype(np.int64) % 13 == 0
        out = hit | below(a, b, order)
        return out if out.ndim else bool(out)
    return wrong


class TestBatchedPfnSuites:
    @pytest.mark.parametrize("suite", list(PFN_REFERENCES), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0, 9, 31])
    def test_same_verdict_and_draws_as_the_reference(self, suite, seed):
        assert _against_pfn_reference(suite, seed, 400) is None

    @pytest.mark.parametrize(
        ("family", "patch"),
        [
            (CLOSURE, lambda mp: mp.setattr(laws, "add_p", _invalid_on_hits(laws.add_p))),
            (IDENTITIES, lambda mp: [mp.setattr(laws, name, _nudged_on_hits(getattr(laws, name)))
                                     for name in ("add_p", "scalar_mul", "power")]),
            (ORDER_SUITES, lambda mp, flipped=_flipped_on_hits(pfn.below): [
                mp.setattr(module, "below", flipped) for module in (pfn, laws)]),
        ],
        ids=["closure-invalid-result", "identity-nudged-operation", "order-flipped-below"],
    )
    def test_a_fault_on_some_cases_is_reported_alike(self, family, patch, monkeypatch):
        patch(monkeypatch)
        for suite in family:
            first = [_against_pfn_reference(suite, seed, 200) for seed in range(8)]
            if suite is not laws.score_accuracy_agrees_with_es_then_membership:  # both orders flip
                assert None not in first and max(first) > 0, suite.__name__

    def test_a_tie_of_distinct_keys_is_reported_alike(self, monkeypatch):
        mutual = _mutual_on_hits(pfn.below)
        for module in (pfn, laws):
            monkeypatch.setattr(module, "below", mutual)
        suite = laws.membership_then_es_is_partial_order
        first = [_against_pfn_reference(suite, seed, 200) for seed in range(8)]
        assert None not in first and max(first) > 0
        assert suite(np.random.default_rng(0), 200).counterexample.startswith("not antisymmetric: a=")

    def test_an_invalid_result_is_worded_by_the_constructor(self, monkeypatch):
        monkeypatch.setattr(laws, "add_p", _invalid_on_hits(laws.add_p))
        result = laws.closure_of_pfn_operations(np.random.default_rng(1), 200)
        assert re.fullmatch(r"a=PFN\(.*\) b=PFN\(.*\) alpha=[0-9.e-]+: degrees must lie in .*",
                            result.counterexample)


def test_no_scalar_algebra_per_case(monkeypatch, table1, table2):
    """Every suite builds the same number of PFNs at 200 as at 400 cases:
    only its replays use the scalar API.  `decide` builds none through the
    algebra."""
    built, of_kind = [], pfn._of_kind
    post_init = PFN.__post_init__

    def counted_post_init(self):
        built.append("PFN")
        post_init(self)

    def counted_of_kind(x, m, n):
        out = of_kind(x, m, n)
        built.append("_of_kind" if type(out) is PFN else "array")
        return out

    monkeypatch.setattr(PFN, "__post_init__", counted_post_init)
    monkeypatch.setattr(pfn, "_of_kind", counted_of_kind)

    def count(run, kind):
        built.clear()
        run()
        return built.count(kind)

    for law in laws.ALL_LAWS:
        small, large = (count(lambda c=c: law(np.random.default_rng(8), c), "PFN") for c in (200, 400))
        assert small == large, law.__name__
    assert count(lambda: decide(table1, table2), "_of_kind") == 0
    assert "array" in built  # the arrays went through it
