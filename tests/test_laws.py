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
    cli,
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
from phisoft.errors import InvalidConfig, InvalidPFN, PhiSoftError
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


# The report bytes are pinned, so a faster suite must check the same cases
# and say the same thing.  So is where each suite leaves the generator: the
# next rng.random() from a copy of it after each suite (seed 11, 300 cases).
# A change to a suite's draw scheme re-pins that suite's entry and every later
# one, and CHANGES.md says which entries moved and why.
REPORT_SHA256 = {
    (17, 10_000): "3862c396cf8f52802b62c97d3fe926243e71d76ae5d98a9be71cae5bb6d2d63f",
    (5, 200): "467d10a469829afd749fbeb2bf6774750794daa21b9fa74566f18fdd093150e4",
    (123, 250): "e7b48dacee0af7ad61cb59e1d6dd8d7248a175506d197278fd1ef68ca58b59cc",
}

NEXT_DRAW_AFTER_SUITE = (
    0.2871234026761018, 0.053281726805650576, 0.7181105917240156, 0.30979924766415423,
    0.7774870732265046, 0.6864544984020294, 0.005006749516033748, 0.9120356275009477,
    0.5496651235305401, 0.025322904035268823, 0.01696626254793354, 0.4997981952400955,
    0.37682066988645224, 0.7172187686132081,
)


@pytest.mark.parametrize(("seed", "cases"), sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(seed, cases):
    text = laws.render_report(laws.run_all(cases, seed), seed)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed, cases]


def test_the_laws_command_prints_the_pinned_default_report(capsys):
    assert cli.main(["laws"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[17, 10_000]


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_a_seed_numpy_refuses_is_a_config_error(seed):
    with pytest.raises(InvalidConfig, match=rf"^seed must be a non-negative integer, got {seed}$"):
        laws.run_all(1, seed)


def test_each_suite_draws_what_it_drew():
    rng = np.random.default_rng(11)
    for law, pinned in zip(laws.ALL_LAWS, NEXT_DRAW_AFTER_SUITE, strict=True):
        law(rng, 300)
        assert copy.deepcopy(rng).random() == pinned, f"{law.__name__} moved the draws"


def _reference_sample_points(rng, count):
    """`laws._sample_points` as it was first written: it kept the accepted rows
    of each batch with a boolean index."""
    kept, have = [np.empty((0, 2))], 0
    while have < count:
        batch = rng.random((count - have + 16, 2))
        kept.append(batch[batch[:, 0] ** 2 + batch[:, 1] ** 2 <= 1.0])
        have += len(kept[-1])
    return np.concatenate(kept)[:count]


@pytest.mark.parametrize("seed", [0, 11, 17])
@pytest.mark.parametrize("count", [0, 1, 7, 16, 5000, 40_000])
def test_the_sampler_draws_what_the_boolean_index_drew(seed, count):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = laws._sample_points(rng, count), _reference_sample_points(reference, count)
    assert got.shape == want.shape == (count, 2) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


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


@pytest.mark.parametrize("cases", [0, -3])
def test_a_case_count_below_one_is_refused_before_any_draw(cases):
    with pytest.raises(PhiSoftError, match=rf"^cases must be at least 1, got {cases}$") as raised:
        laws.run_all(cases, 1)
    assert isinstance(raised.value, ValueError)
    rng = np.random.default_rng(1)
    for law in laws.ALL_LAWS:  # each suite called directly, as perfbench times them
        with pytest.raises(type(raised.value), match=rf"^cases must be at least 1, got {cases}$"):
            law(rng, cases)
    assert rng.random() == np.random.default_rng(1).random()


@pytest.mark.parametrize("cases", [2.5, None, "3", np.float64(4.0)])
def test_a_case_count_that_is_not_an_integer_is_refused_before_any_draw(cases):
    message = rf"^cases must be an integer, got {re.escape(repr(cases))}$"
    with pytest.raises(InvalidConfig, match=message):
        laws.run_all(cases, 1)
    rng = np.random.default_rng(1)
    for law in laws.ALL_LAWS:
        with pytest.raises(InvalidConfig, match=message):
            law(rng, cases)
    assert rng.random() == np.random.default_rng(1).random()


def test_a_numpy_integer_case_count_runs_as_that_many_cases():
    results = laws.run_all(np.int64(5), 3)
    assert [r.cases for r in results] == [5] * len(laws.ALL_LAWS)
    assert all(type(r.cases) is int for r in results)
    assert laws.render_report(results, 3) == laws.render_report(laws.run_all(5, 3), 3)


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
    """The set of a case's PFNs in table order: cells row by row, then importances."""
    it = iter(pool)
    cells = {(alt, nm): next(it) for alt in _UNIVERSE for nm in _NAMES}
    params = [PFParameter(nm, next(it)) for nm in _NAMES]
    return build(_UNIVERSE, params, cells)


def _shrunk(value, u, v):
    m = value.m * u
    n2 = value.n * value.n + v * (1.0 - m * m - value.n * value.n)
    return PFN(m, max(value.n, math.sqrt(max(0.0, min(1.0, n2)))))


def _grown(value, u, v):
    return pfn.complement(_shrunk(pfn.complement(value), u, v))


def _map_set(s, f, uv):
    """s with f applied entry by entry, in table order, to the uv pairs."""
    it = iter(uv)
    cells = {key: f(value, *next(it)) for key, value in s.cells.items()}
    params = [PFParameter(p.name, f(p.importance, *next(it))) for p in s.parameters]
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
        m, n = (t.copy() for t in laws._stack(pool))
        m[1, -1, 1] = 1.5  # case 1's importance of c2
        with pytest.raises(InvalidPFN, match=r"importance of 'c2': degrees must lie in \[0, 1\]"):
            softset.check_cells(m, n, laws._UNIVERSE, laws._NAMES)

    def test_a_stack_names_the_first_bad_entry_of_its_first_bad_table_as_build_does(self):
        pool = laws._sample_points(np.random.default_rng(2), 4 * _POOL)
        m, n = (t.copy() for t in laws._stack(pool))
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
        def suite(failed):
            return laws._suite("demo-law")(lambda rng, cases: (failed, lambda i: None))
        result = suite(np.array([False, False, True, True]))(None, 4)
        assert result.counterexample == "case 2 fails in the batched check only"
        assert suite(np.zeros(4, bool))(None, 4).ok


# --- the batched geometric suite against its per-case reference ------------


def reference_geometric_suite(rng, cases):
    """Case by case through the scalar API, on the draws the suite makes:
    (index, counterexample) of the first failing case, or (None, None)."""
    sizes = rng.integers(1, 9, cases).tolist()
    points = laws._sample_points(rng, 8 * cases).reshape(cases, 8, 2)
    raws = rng.uniform(1e-3, 1.0, (cases, 8))
    for i, k in enumerate(sizes):
        values = list(map(PFN, *points[i, :k].T.tolist()))
        raw = raws[i, :k]
        weights = WeightVector(tuple((raw / raw.sum()).tolist()))
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
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert result.cases == cases
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


# --- the batched equal-score suite against its per-case reference ----------


def reference_equal_score_suite(rng, cases):
    """Pair by pair through the scalar API, on the draws the suite makes (a
    base and a fraction per pair), measures looked up on `laws` at call time:
    (index, counterexample) of the first failing pair, or (None, None)."""
    bases = _sample_pfns(rng, cases)
    for i, (a, t) in enumerate(zip(bases, rng.random(cases).tolist())):
        s = a.m * a.m - a.n * a.n
        lo = math.sqrt(max(s, 0.0))
        mb = lo + t * (math.sqrt((1.0 + s) / 2) - lo)
        b = PFN(mb, math.sqrt(max(a.n * a.n + mb * mb - a.m * a.m, 0.0)))
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
                return i, f"x={x!r} y={y!r} -> {conditions}"
    return None, None


def _raised_on_hits(measure):
    """`measure`, raised by 1 on the PFNs that hash to 0 mod 13; a float for a PFN."""
    def wrong(x):
        out = measure(x) + np.where(_hit(x), 1.0, 0.0)
        return out if isinstance(x, PFNArray) else float(out)
    return wrong


# Bases at the corners and edges of the quarter disk, and with scores within
# 1e-6 of 1 and of -1, where the range of partner memberships is a point or
# has an end at 0 or 1.
EDGE_BASES = [
    (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5)),
    (math.sqrt(1 - 1e-7), 0.0), (math.sqrt(1 - 6e-7), math.sqrt(2e-7)), (1 - 1e-7, 1e-4),
    (0.0, math.sqrt(1 - 1e-7)), (math.sqrt(2e-7), math.sqrt(1 - 6e-7)), (1e-4, 1 - 1e-7),
]


class TestBatchedEqualScoreSuite:
    suite = staticmethod(laws.equal_score_tiebreaks_agree)

    def _against_reference(self, seed, cases):
        """The suite's result, the reference's first failing pair and the
        generator's state after both, checked to say the same and leave the
        generator in the same state."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = self.suite(rng, cases)
        index, counterexample = reference_equal_score_suite(ref_rng, cases)
        assert result.cases == cases and result.counterexample == counterexample
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return result, index, rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 9, 31, 2024])
    def test_same_result_and_draws_as_the_reference(self, seed):
        result, _, _ = self._against_reference(seed, 400)
        assert result.ok

    def test_partners_at_the_edges_are_valid_and_keep_the_score(self):
        bases = np.array(EDGE_BASES + laws._sample_points(np.random.default_rng(6), 200).tolist())
        base = PFNArray(*bases.T)
        assert pfn.valid(base).all()
        for t in (0.0, 0.5, 1 - 2**-53):
            partner = laws._partners(*base, np.full(len(bases), t))
            assert pfn.valid(partner).all(), t
            assert (abs(pfn.score(partner) - pfn.score(base)) <= COMPARE_EPS).all(), t

    @pytest.mark.parametrize("measure", ["accuracy", "score"])
    def test_a_measure_fault_stops_where_the_reference_stops(self, measure, monkeypatch):
        unfaulted = [self._against_reference(seed, 200)[2] for seed in range(6)]
        monkeypatch.setattr(laws, measure, _raised_on_hits(getattr(laws, measure)))
        first = []
        for seed in range(6):
            result, index, state = self._against_reference(seed, 200)
            assert not result.ok and result.counterexample.startswith("x=PFN(")
            assert state == unfaulted[seed]  # a failure changes no draw
            first.append(index)
        assert max(first) > 0

    def test_a_partner_off_the_disk_is_worded_by_the_constructor(self, monkeypatch):
        partners = laws._partners

        def off_disk(m, n, t):  # membership negated on hashed bases: same score and accuracy
            p = partners(m, n, t)
            return PFNArray(np.where(_hit(PFNArray(m, n)), -p.m, p.m), p.n)

        monkeypatch.setattr(laws, "_partners", off_disk)
        result = self.suite(np.random.default_rng(3), 200)
        assert re.fullmatch(r"x=PFN\(.*\) t=[0-9.e-]+: degrees must lie in \[0, 1\], got .*",
                            result.counterexample)

    def test_a_failure_at_the_first_pair_stops_there(self, monkeypatch):
        monkeypatch.setattr(laws, "accuracy", lambda x: -x.m)  # reverses the first reading
        result, index, _ = self._against_reference(4, 50)
        assert index == 0  # pair 0 is base 0 with its partner
        assert repr(_sample_pfns(np.random.default_rng(4), 1)[0]) in result.counterexample


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
