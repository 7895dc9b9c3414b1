"""Property tests for the parsers: total over any input, exact on round trips."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from phisoft import build, emit_csv, emit_json, parse_csv, parse_json
from phisoft.errors import InvalidId, PhiSoftError
from phisoft.io import IMPORTANCE_ROW_ID

# Derandomized and without an example database, so every run checks the
# same examples and leaves no files behind.
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

unit = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2**-53]),
)


@st.composite
def pfn_pairs(draw):
    m, n = draw(unit), draw(unit)
    if m * m + n * n > 1.0:
        # scale into the disk; half of a point in the unit square is in it
        m, n = m / 2, n / 2
    return m, n


ids = st.text(min_size=1, max_size=6) | st.sampled_from(["p1", "id", IMPORTANCE_ROW_ID])


@st.composite
def soft_sets(draw):
    universe = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    names = draw(st.lists(ids, min_size=0, max_size=4, unique=True))
    params = [(name, draw(pfn_pairs())) for name in names]
    cells = {(alt, name): draw(pfn_pairs()) for alt in universe for name in names}
    try:
        return build(universe, params, cells)
    except InvalidId:
        assume(False)


def _bits(softset):
    return (
        softset.universe,
        softset.parameter_names,
        [(p.importance.m.hex(), p.importance.n.hex()) for p in softset.parameters],
        softset.m.tobytes(),
        softset.n.tobytes(),
    )


def _parses_or_raises(parse, data):
    try:
        parse(data)
    except PhiSoftError:
        pass


@FUZZ
@given(soft_sets())
def test_json_round_trip_is_bit_exact(softset):
    data = emit_json(softset)
    back = parse_json(data)
    assert _bits(back) == _bits(softset)
    assert emit_json(back) == data


@FUZZ
@given(soft_sets())
def test_csv_round_trip_is_bit_exact(softset):
    if IMPORTANCE_ROW_ID in softset.universe:
        with pytest.raises(InvalidId):
            emit_csv(softset)
        return
    data = emit_csv(softset)
    back = parse_csv(data)
    assert _bits(back) == _bits(softset)
    assert emit_csv(back) == data


@FUZZ
@given(st.binary(max_size=300) | st.text(max_size=300))
def test_any_input_parses_or_raises_a_phisoft_error(data):
    _parses_or_raises(parse_csv, data)
    _parses_or_raises(parse_json, data)


@st.composite
def mutated_documents(draw):
    """A valid document with a few bytes replaced, inserted or deleted."""
    softset = draw(soft_sets())
    assume(IMPORTANCE_ROW_ID not in softset.universe)
    data = bytearray(draw(st.sampled_from([emit_csv, emit_json]))(softset))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(b'",{}[]()\n\r:-.e0159 \xff\x00') | st.integers(0, 255))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


@FUZZ
@given(mutated_documents())
def test_mutated_documents_parse_or_raise(data):
    _parses_or_raises(parse_csv, data)
    _parses_or_raises(parse_json, data)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
importances = pfn_pairs().map(lambda p: {"m": p[0], "n": p[1]})
parameter_entries = st.fixed_dictionaries(
    {"name": json_values | ids, "importance": json_values | importances}
)
cell_entries = st.fixed_dictionaries({
    "alt": json_values | ids,
    "param": json_values | ids,
    "m": json_values | unit,
    "n": json_values | unit,
})
#: Set documents with every key present and each value well or badly formed.
json_documents = st.fixed_dictionaries({
    "universe": json_values | st.lists(ids, max_size=3),
    "parameters": json_values | st.lists(parameter_entries, max_size=3),
    "cells": json_values | st.lists(cell_entries, max_size=3),
})


@FUZZ
@given(json_documents)
def test_json_shaped_documents_parse_or_raise(doc):
    _parses_or_raises(parse_json, json.dumps(doc))
