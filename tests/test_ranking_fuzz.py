"""Property test: `decide_single`'s ranks are those of one Python sort on the
4-tuple keys, on tables whose primary keys tie in several separate runs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phisoft import Aggregator, DecisionConfig, build, decide_single, decision
from test_decision import ORDERS, _signed_zeros, reference_ranks

# Derandomized and without an example database, so every run checks the
# same examples and leaves no files behind.
FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# A coarse grid, so that rows and their keys tie; half the memberships are 0,
# so that whole rows aggregate to m = 0.  No n above 0.7 keeps every cell on
# the quarter disk and every importance's weight positive.
membership = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]))
nonmembership = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
cell = st.tuples(membership, nonmembership)

# Mixed-script prefixes with numbered suffixes, shuffled: Python's string
# order ("A9" < "a\x0019" < "a10" < "a28", "ß5" < "é4") is not the universe order.
PREFIXES = ("a", "A", "a\x00", "b", "é", "ß", "z", "_", "中")


@st.composite
def tables(draw):
    width = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=8))
    importances = draw(st.lists(cell, min_size=width, max_size=width))
    # 1-400 rows, so numpy's small-array and large-array sort paths both run
    count = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    universe = [f"{PREFIXES[k % len(PREFIXES)]}{k}" for k in rng.permutation(count)]
    names = [f"c{j}" for j in range(width)]
    rows = rng.integers(0, len(pool), count)
    cells = {(alt, name): pool[row][j]
             for alt, row in zip(universe, rows.tolist()) for j, name in enumerate(names)}
    return build(universe, list(zip(names, importances)), cells)


@FUZZ
@given(tables(), st.booleans())
def test_ranks_equal_the_tuple_key_sort(s, signed):
    # With `signed`, the kernel's zero memberships of every other row become
    # -0.0, so a primary (m order) or membership key run holds both zeros.
    with pytest.MonkeyPatch.context() as patched:
        if signed:
            patched.setattr(decision, "pfwa_table", _signed_zeros(decision.pfwa_table))
        for aggregator in Aggregator:
            for order in ORDERS:
                report = decide_single(s, DecisionConfig(aggregator=aggregator, ranking_order=order))
                m = [r.apfdv.m for r in report.rows]
                n = [r.apfdv.n for r in report.rows]
                assert [r.rank for r in report.rows] == reference_ranks(s.universe, m, n, order)
