"""Property test: `aggregation._row_sums` is `math.fsum` of each row, bit for bit."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phisoft.aggregation import _CASCADE_MIN_ROWS, _row_sums

# Derandomized and without an example database, so every run checks the
# same examples and leaves no files behind.
FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Finite terms too small for a row of ten to overflow, signed zeros,
# subnormals, signed powers of two (which make ties with 1.0 and 1.5), and
# the -inf of a geometric pole.  No +inf: fsum refuses inf - inf.
term = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, 1.5, -math.inf]),
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0, 1.5]), st.integers(-1074, 60)),
)
tables = st.integers(1, 10).flatmap(
    lambda width: st.lists(st.lists(term, min_size=width, max_size=width), min_size=1, max_size=12)
)


@FUZZ
@given(tables)
def test_row_sums_is_fsum_bit_for_bit(rows):
    # Repeated to the cascade's row count, so the cascade sums them.
    terms = np.resize(np.array(rows, np.float64), (_CASCADE_MIN_ROWS, len(rows[0])))
    expected = np.array([math.fsum(row) for row in terms.tolist()], np.float64)
    assert _row_sums(terms).tobytes() == expected.tobytes()


@FUZZ
@given(tables)
def test_row_sums_reads_every_memory_layout_alike(rows):
    # The cascade reads its own contiguous copy of the columns, so a
    # Fortran-ordered copy and a strided column view give the C table's bits.
    terms = np.resize(np.array(rows, np.float64), (_CASCADE_MIN_ROWS, len(rows[0])))
    wide = np.zeros((_CASCADE_MIN_ROWS, 2 * terms.shape[1]))
    wide[:, 1::2] = terms
    expected = _row_sums(terms).tobytes()
    assert _row_sums(np.asfortranarray(terms)).tobytes() == expected
    assert _row_sums(wide[:, 1::2]).tobytes() == expected
