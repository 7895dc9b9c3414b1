"""Soft-set construction, subset/equality, and the combination operators."""

import copy
import gc
import math
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import phisoft
from phisoft import (
    COMPARE_EPS,
    PFN,
    PFParameter,
    PhiSoftSet,
    build,
    constant_set,
    decide_single,
    equals,
    extended_intersection,
    extended_union,
    is_subset,
    null_set,
    restricted_intersection,
    restricted_union,
    whole_set,
)
from phisoft.softset import CombineRule, combine
from phisoft.errors import (
    DuplicateId,
    EmptyIntersection,
    EmptyUniverse,
    InvalidId,
    InvalidPFN,
    MissingCell,
    NotPythagorean,
    OutOfRange,
    PhiSoftError,
    UniverseMismatch,
)
from conftest import (
    INTERSECTION_GOLDEN,
    INTERSECTION_IMPORTANCES,
    RESTRICTED_NAMES,
    TABLE1_CELLS,
    TABLE1_PARAMS,
    TABLE2_CELLS,
    TABLE2_PARAMS,
    UNION_GOLDEN,
    UNION_IMPORTANCES,
    UNIVERSE,
)


class TestBuild:
    def test_builds_the_worked_table(self, table1):
        assert table1.universe == UNIVERSE
        assert table1.parameter_names == ("s1", "s3", "s5", "s6")
        assert table1.cell("p1", "s1") == PFN(0.7, 0.7)
        assert table1.parameter("s3").importance == PFN(0.7, 0.2)

    def test_degenerate_empty_parameter_list(self):
        s = build(["p1", "p2"], [], {})
        assert s.parameters == ()
        assert s.row("p1") == ()

    def test_empty_universe_is_rejected(self):
        with pytest.raises(EmptyUniverse, match="universe is empty") as info:
            build([], [("c1", (0.5, 0.4))], {})
        assert isinstance(info.value, ValueError)
        with pytest.raises(EmptyUniverse, match="universe is empty"):
            constant_set([], ["c1"], 0.5, 0.4)

    def test_duplicate_parameter_names(self):
        with pytest.raises(DuplicateId):
            build(["p1"], [("s1", (0.5, 0.4)), ("s1", (0.1, 0.2))], {
                ("p1", "s1"): (0.5, 0.5),
            })

    def test_duplicate_alternative_ids(self):
        with pytest.raises(DuplicateId):
            build(["p1", "p1"], [("s1", (0.5, 0.4))], {("p1", "s1"): (0.5, 0.5)})

    def test_missing_cell_names_coordinates(self):
        with pytest.raises(MissingCell, match=r"\(p2, s1\)"):
            build(["p1", "p2"], [("s1", (0.5, 0.4))], {("p1", "s1"): (0.5, 0.5)})

    def test_invalid_cell_names_coordinates(self):
        with pytest.raises(InvalidPFN, match=r"\(p1, s1\)"):
            build(["p1"], [("s1", (0.5, 0.4))], {("p1", "s1"): (0.9, 0.9)})

    @pytest.mark.parametrize("cell,importance,where", [
        ((10**400, 0.1), (0.5, 0.4), "cell (p1, s1)"),
        ((0.5, 0.4), (0.1, 10**400), "importance of 's1'"),
    ], ids=["cell", "importance"])
    def test_an_integer_beyond_double_range_is_named(self, cell, importance, where):
        with pytest.raises(InvalidPFN) as raised:
            build(["p1"], [("s1", importance)], {("p1", "s1"): cell})
        assert str(raised.value) == (
            f"{where}: degrees must lie in [0, 1], got a number beyond float range"
        )

    @pytest.mark.parametrize("value", ["0.5", b"0.5", bytearray(b"0.5"), None],
                             ids=["str", "bytes", "bytearray", "None"])
    @pytest.mark.parametrize("in_importance", [False, True], ids=["cell", "importance"])
    def test_a_degree_that_is_not_a_number_is_named(self, value, in_importance):
        # `build` reads degrees as PFN does: text is refused, never parsed.
        bad, good = (value, 0.3), (0.5, 0.4)
        cell, importance = (good, bad) if in_importance else (bad, good)
        where = "importance of 's1'" if in_importance else "cell (p1, s1)"
        with pytest.raises(InvalidPFN) as raised:
            build(["p1"], [("s1", importance)], {("p1", "s1"): cell})
        assert str(raised.value) == f"{where}: degrees must be real numbers, got {value!r}"

    @pytest.mark.parametrize("first, where", [
        (("0.5", 0.3), "cell (p1, s1): degrees must be real numbers, got '0.5'"),
        ((0.5, 0.3), "cell (p1, s2): degrees must be real numbers, got 'x'"),
    ], ids=["text-first", "number-first"])
    def test_the_first_refused_entry_is_named(self, first, where):
        cells = {("p1", "s1"): first, ("p1", "s2"): ("x", 0.3)}
        params = [("s1", (0.5, 0.4)), ("s2", (0.5, 0.4))]
        with pytest.raises(InvalidPFN) as raised:
            build(["p1"], params, cells)
        assert str(raised.value) == where

    @pytest.mark.parametrize("pair", [
        (np.float32(0.5), np.int64(0)),
        (np.float16(0.25), np.float64(0.75)),
        (Fraction(1, 3), Decimal("0.25")),
        (True, False),
        (0, 1),
    ], ids=["numpy-float32-int64", "numpy-float16-float64", "fraction-decimal", "bool", "int"])
    def test_numbers_are_read_with_pfns_bits(self, pair):
        s = build(["p1"], [("s1", pair)], {("p1", "s1"): pair})
        want = PFN(*pair)
        for got in (s.cell("p1", "s1"), s.parameter("s1").importance):
            assert (got.m.hex(), got.n.hex()) == (want.m.hex(), want.n.hex())

    @pytest.mark.parametrize("bad", [(0.4,), (0.9, 0.9)], ids=["one-tuple", "out-of-disk"])
    def test_one_bad_pair_among_pfns_is_named(self, bad):
        cells = {(alt, name): PFN(0.5, 0.5) for alt in ("p1", "p2") for name in ("s1", "s2")}
        cells["p2", "s1"] = bad
        params = [("s1", PFN(0.5, 0.4)), ("s2", PFN(0.3, 0.6))]
        with pytest.raises(InvalidPFN, match=r"^cell \(p2, s1\): "):
            build(["p1", "p2"], params, cells)

    def test_unexpected_cell_rejected(self):
        with pytest.raises(MissingCell, match="unexpected"):
            build(["p1"], [("s1", (0.5, 0.4))], {
                ("p1", "s1"): (0.5, 0.5),
                ("p9", "s1"): (0.5, 0.5),
            })

    @pytest.mark.parametrize("extras, listed", [
        pytest.param({"junk": 1, ("x", "y"): 2}, "['junk', ('x', 'y')]", id="str-beside-tuple"),
        pytest.param({None: 1, "k": 2}, "['k', None]", id="none-beside-str"),
    ])
    def test_unexpected_cells_that_do_not_compare_are_listed(self, extras, listed):
        cells = {("a", "c"): (0.5, 0.4), **extras}
        with pytest.raises(MissingCell) as raised:
            build(["a"], [("c", (0.5, 0.4))], cells)
        assert str(raised.value) == f"unexpected cells outside the table: {listed}"

    def test_invalid_importance_names_the_parameter(self):
        with pytest.raises(InvalidPFN, match="importance of 's1'"):
            build(["p1"], [("s1", (0.9, 0.9))], {("p1", "s1"): (0.5, 0.5)})
        with pytest.raises(InvalidPFN, match="importance of 's1'"):
            build(["p1"], [("s1", "xy")], {("p1", "s1"): (0.5, 0.5)})

    @pytest.mark.parametrize(
        "entries, index",
        [
            ([("s1",)], 0),
            ([5], 0),
            ([("s1", (0.5, 0.4), 3)], 0),
            ([("s1", (0.5, 0.4)), ("s2",)], 1),
        ],
        ids=["one-tuple", "not-iterable", "three-tuple", "second-entry"],
    )
    def test_malformed_parameter_entry_is_a_package_error(self, entries, index):
        with pytest.raises(InvalidPFN, match=f"parameter entry {index} ") as info:
            build(["p1"], entries, {})
        assert isinstance(info.value, ValueError)

    def test_malformed_ids_rejected(self):
        with pytest.raises(ValueError):
            build(["p,1"], [("s1", (0.5, 0.4))], {("p,1", "s1"): (0.5, 0.5)})
        with pytest.raises(ValueError):
            build([""], [("s1", (0.5, 0.4))], {("", "s1"): (0.5, 0.5)})


class TestSubsetAndEquality:
    def test_subset_is_reflexive(self, table1):
        assert is_subset(table1, table1)

    def test_raising_one_cell_gives_a_superset(self, table1):
        cells = dict(TABLE1_CELLS)
        cells[("p2", "s3")] = (0.5, 0.5)  # m raised by 0.1, still valid
        bigger = build(UNIVERSE, TABLE1_PARAMS, cells)
        assert is_subset(table1, bigger)
        assert not is_subset(bigger, table1)
        # independent cell-by-cell check of the subset verdict
        for key in TABLE1_CELLS:
            a, b = table1.cells[key], bigger.cells[key]
            assert a.m <= b.m and a.n >= b.n

    def test_disjoint_parameter_sets_are_not_subsets(self, table1, table2):
        assert not is_subset(table1, table2)  # s1 absent from the other set

    def test_sets_with_different_parameter_counts_are_not_equal(self, table1):
        fewer = build(UNIVERSE, TABLE1_PARAMS[:-1], {
            key: value for key, value in TABLE1_CELLS.items() if key[1] != TABLE1_PARAMS[-1][0]
        })
        assert not equals(table1, fewer)
        assert not equals(fewer, table1)
        assert equals(fewer, fewer)

    def test_different_universes_are_not_subsets(self, table1):
        other = build(["q1"], TABLE1_PARAMS, {
            ("q1", name): TABLE1_CELLS[("p1", name)] for name, _ in TABLE1_PARAMS
        })
        assert not is_subset(table1, other)
        assert not equals(table1, other)

    def test_equality_ignores_ordering(self, table1):
        permuted = build(
            tuple(reversed(UNIVERSE)),
            tuple(reversed([PFParameter(n, PFN(*i)) for n, i in TABLE1_PARAMS])),
            TABLE1_CELLS,
        )
        assert equals(table1, permuted)
        assert is_subset(table1, permuted) and is_subset(permuted, table1)

    def test_single_cell_difference_breaks_equality(self, table1):
        cells = dict(TABLE1_CELLS)
        cells[("p4", "s6")] = (0.8, 0.3)
        assert not equals(table1, build(UNIVERSE, TABLE1_PARAMS, cells))


    @staticmethod
    def _importance_nudged(delta):
        """table1 with the membership of s5's importance raised by `delta`."""
        params = dict(TABLE1_PARAMS)
        m, n = params["s5"]
        params["s5"] = (m + delta, n)
        return build(UNIVERSE, list(params.items()), TABLE1_CELLS)

    @pytest.mark.parametrize("delta", [5e-13, 5e-12, 0.1])
    def test_one_importance_difference_is_seen(self, table1, delta):
        nudged = self._importance_nudged(delta)
        assert nudged.m.tobytes() == table1.m.tobytes()  # the cells are the same
        close = delta <= COMPARE_EPS
        assert equals(table1, nudged) is close and equals(nudged, table1) is close
        # the lattice order is exact: any raised membership makes a strict superset
        assert is_subset(table1, nudged)
        assert not is_subset(nudged, table1)


class TestCombinations:
    def test_extended_union_matches_the_worked_cells(self, table1, table2):
        got = extended_union(table1, table2)
        assert set(got.parameter_names) == {"s1", "s2", "s3", "s5", "s6"}
        for (alt, name), expected in UNION_GOLDEN.items():
            assert got.cell(alt, name) == PFN(*expected), (alt, name)
        for name, expected in UNION_IMPORTANCES.items():
            assert got.parameter(name).importance == PFN(*expected), name

    def test_extended_union_spot_values(self, table1, table2):
        got = extended_union(table1, table2)
        assert got.cell("p2", "s5") == PFN(0.8, 0.1)
        assert got.parameter("s5").importance == PFN(0.4, 0.5)

    def test_extended_intersection_matches_the_worked_cells(self, table1, table2):
        got = extended_intersection(table1, table2)
        for (alt, name), expected in INTERSECTION_GOLDEN.items():
            assert got.cell(alt, name) == PFN(*expected), (alt, name)
        for name, expected in INTERSECTION_IMPORTANCES.items():
            assert got.parameter(name).importance == PFN(*expected), name

    def test_extended_intersection_spot_values(self, table1, table2):
        got = extended_intersection(table1, table2)
        assert got.cell("p2", "s5") == PFN(0.5, 0.3)
        assert got.parameter("s5").importance == PFN(0.3, 0.6)

    def test_restricted_variants_project_the_extended_ones(self, table1, table2):
        runion = restricted_union(table1, table2)
        rinter = restricted_intersection(table1, table2)
        assert runion.parameter_names == RESTRICTED_NAMES
        assert rinter.parameter_names == RESTRICTED_NAMES
        assert runion.cell("p3", "s3") == PFN(0.9, 0.2)
        assert rinter.cell("p4", "s3") == PFN(0.5, 0.2)
        eunion = extended_union(table1, table2)
        einter = extended_intersection(table1, table2)
        for alt in UNIVERSE:
            for name in RESTRICTED_NAMES:
                assert runion.cell(alt, name) == eunion.cell(alt, name)
                assert rinter.cell(alt, name) == einter.cell(alt, name)

    def test_idempotence(self, table1):
        assert equals(extended_union(table1, table1), table1)
        assert equals(extended_intersection(table1, table1), table1)
        assert equals(restricted_union(table1, table1), table1)
        assert equals(restricted_intersection(table1, table1), table1)

    def test_commutativity(self, table1, table2):
        ops = (
            extended_union,
            extended_intersection,
            restricted_union,
            restricted_intersection,
        )
        for op in ops:
            assert equals(op(table1, table2), op(table2, table1))

    def test_union_dominates_and_intersection_is_dominated(self, table1, table2):
        union = extended_union(table1, table2)
        inter = extended_intersection(table1, table2)
        for s in (table1, table2):
            for p in s.parameters:
                for alt in UNIVERSE:
                    cell = s.cell(alt, p.name)
                    up = union.cell(alt, p.name)
                    down = inter.cell(alt, p.name)
                    assert cell.m <= up.m and cell.n >= up.n
                    assert down.m <= cell.m and down.n >= cell.n

    def test_operand_order_does_not_matter(self, table1, table2):
        shuffled = build(("p3", "p1", "p4", "p2"), TABLE2_PARAMS[::-1], TABLE2_CELLS)
        ops = (
            extended_union,
            extended_intersection,
            restricted_union,
            restricted_intersection,
        )
        for op in ops:
            want, got = op(table1, table2), op(table1, shuffled)
            assert got.universe == UNIVERSE
            assert set(got.parameter_names) == set(want.parameter_names)
            for name in want.parameter_names:
                assert got.parameter(name) == want.parameter(name)
                for alt in UNIVERSE:
                    assert got.cell(alt, name) == want.cell(alt, name), (op, alt, name)

    def test_bytes_do_not_depend_on_the_layout_of_b(self):
        """Signed zeros survive every operator whatever order b lists its
        alternatives and parameters in: shared entries are a's op b's, with
        a's first, and unshared columns are byte copies of their source."""
        rng = np.random.default_rng(11)
        universe = ("u1", "u2", "u3", "u4")
        a_names, b_names = ("c1", "c2", "c3"), ("c2", "c4", "c1")  # c3 is a's, c4 b's
        shape = (len(universe) + 1, 3)
        pool = np.array([-0.0, 0.0, 0.3, 0.6])
        am, an, bm, bn = (rng.choice(pool, size=shape) for _ in range(4))
        # every unshared column holds -0.0 in both components, in a cell and
        # in the importance row; shared c1/c2 entries have opposite signs
        am[[0, -1], 2] = an[[1, -1], 2] = bm[[2, -1], 1] = bn[[0, -1], 1] = -0.0
        am[0, 0], bm[0, 2], an[1, 0], bn[1, 2] = -0.0, 0.0, 0.0, -0.0
        am[2, 1], bm[2, 0], an[3, 1], bn[3, 0] = 0.0, -0.0, -0.0, 0.0
        am[-1, 0], bm[-1, 2], an[-1, 1], bn[-1, 0] = -0.0, 0.0, 0.0, -0.0

        def table(names, m, n, order=slice(None)):
            alts, columns = universe[order], list(enumerate(names))[order]
            rows = list(range(len(universe)))[order]
            params = [(name, (m[-1, j], n[-1, j])) for j, name in columns]
            cells = {(universe[i], name): (m[i, j], n[i, j]) for i in rows for j, name in columns}
            return build(alts, params, cells)

        a, b = table(a_names, am, an), table(b_names, bm, bn)
        flipped = table(b_names, bm, bn, slice(None, None, -1))
        assert flipped.universe == universe[::-1] and flipped.parameter_names == b_names[::-1]

        def column(s, name):
            j = s.parameter_names.index(name)
            return s.table_m[:, j].tobytes(), s.table_n[:, j].tobytes()

        ops = (extended_union, extended_intersection, restricted_union, restricted_intersection)
        for op in ops:
            want, got = op(a, b), op(a, flipped)
            assert got.universe == want.universe == universe
            assert set(got.parameter_names) == set(want.parameter_names)
            for name in want.parameter_names:
                assert column(got, name) == column(want, name), (op.__name__, name)
            for name in set(want.parameter_names) - {"c1", "c2"}:
                source = a if name in a_names else b
                assert column(want, name) == column(source, name), (op.__name__, name)

    def test_combine_is_the_named_operator_bit_for_bit(self, table1, table2):
        """On the paper tables, and on a seeded pair with unshared columns,
        b's universe reversed and both signed zeros in every table."""
        rng = np.random.default_rng(5)
        pool = np.array([-0.0, 0.0, 0.3, 0.6])

        def table(universe, names):
            m, n = rng.choice(pool, size=(2, len(universe) + 1, len(names)))
            zeros = np.concatenate((m[m == 0], n[n == 0]))
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
            params = [(name, (m[-1, j], n[-1, j])) for j, name in enumerate(names)]
            cells = {(alt, name): (m[i, j], n[i, j])
                     for i, alt in enumerate(universe) for j, name in enumerate(names)}
            return build(universe, params, cells)

        universe = ("u1", "u2", "u3", "u4")
        seeded = table(universe, ("c1", "c2", "c3")), table(universe[::-1], ("c2", "c4", "c1"))
        named = {
            CombineRule.EXTENDED_UNION: extended_union,
            CombineRule.EXTENDED_INTERSECTION: extended_intersection,
            CombineRule.RESTRICTED_UNION: restricted_union,
            CombineRule.RESTRICTED_INTERSECTION: restricted_intersection,
        }
        assert CombineRule is phisoft.CombineRule is phisoft.decision.CombineRule
        for a, b in ((table1, table2), seeded):
            for rule in CombineRule:
                got, want = combine(a, b, rule), named[rule](a, b)
                assert got.universe == want.universe == a.universe
                assert got.parameter_names == want.parameter_names, rule
                for component in ("table_m", "table_n"):
                    got_bytes, want_bytes = (getattr(s, component).tobytes() for s in (got, want))
                    assert got_bytes == want_bytes, (rule, component)

    def test_universe_mismatch(self, table1):
        other = build(["q1"], TABLE1_PARAMS, {
            ("q1", name): (0.5, 0.5) for name, _ in TABLE1_PARAMS
        })
        with pytest.raises(UniverseMismatch):
            extended_union(table1, other)

    def test_restricted_requires_overlap(self, table1):
        disjoint = build(UNIVERSE, [("z9", (0.5, 0.4))], {
            (alt, "z9"): (0.4, 0.4) for alt in UNIVERSE
        })
        with pytest.raises(EmptyIntersection):
            restricted_union(table1, disjoint)
        with pytest.raises(EmptyIntersection):
            restricted_intersection(table1, disjoint)
        # the extended variants still work
        got = extended_union(table1, disjoint)
        assert set(got.parameter_names) == {"s1", "s3", "s5", "s6", "z9"}


class TestConstantSets:
    def test_constant_cells_and_default_importance(self):
        s = constant_set(["p1", "p2"], ["c1", "c2"], 0.6, 0.8)
        for alt in ("p1", "p2"):
            for name in ("c1", "c2"):
                assert s.cell(alt, name) == PFN(0.6, 0.8)
        assert s.parameter("c1").importance == PFN(0.6, 0.8)

    def test_constant_rejects_invalid_pairs(self):
        with pytest.raises(NotPythagorean):
            constant_set(["p1"], ["c1"], 0.8, 0.8)

    def test_constant_rejects_an_integer_beyond_double_range(self):
        with pytest.raises(OutOfRange, match=r"^degrees must lie in \[0, 1\], got a number beyond"):
            constant_set(["p1"], ["c1"], 10**400, 0)

    def test_constant_rejects_a_value_that_is_not_a_number(self):
        for a, b, shown in (("x", 0.5, "'x'"), (0.5, "0.3", "'0.3'")):
            with pytest.raises(InvalidPFN) as raised:
                constant_set(["p1"], ["c1"], a, b)
            assert str(raised.value) == f"degrees must be real numbers, got {shown}"

    def test_null_and_whole(self):
        names = ["c1", "c2"]
        null = null_set(["p1"], names)
        whole = whole_set(["p1"], names)
        assert null.cell("p1", "c1") == PFN(0.0, 1.0)
        assert null.parameter("c2").importance == PFN(0.0, 1.0)
        assert whole.cell("p1", "c2") == PFN(1.0, 0.0)
        assert whole.parameter("c1").importance == PFN(1.0, 0.0)

    def test_absorption_identities(self):
        rng = np.random.default_rng(7)
        universe, names = ("u1", "u2", "u3"), ("c1", "c2")
        null = null_set(universe, names)
        whole = whole_set(universe, names)
        for _ in range(50):
            pool = []
            while len(pool) < 8:
                m, n = rng.random(2)
                if m * m + n * n <= 1:
                    pool.append(PFN(m, n))
            params = [PFParameter(nm, pool[i]) for i, nm in enumerate(names)]
            cells = {
                (u, nm): pool[2 + i * len(names) + j]
                for i, u in enumerate(universe)
                for j, nm in enumerate(names)
            }
            x = build(universe, params, cells)
            assert equals(extended_union(x, null), x)
            assert equals(restricted_union(x, null), x)
            assert equals(extended_intersection(x, null), null)
            assert equals(restricted_intersection(x, null), null)
            assert equals(extended_union(x, whole), whole)
            assert equals(restricted_union(x, whole), whole)
            assert equals(extended_intersection(x, whole), x)
            assert equals(restricted_intersection(x, whole), x)


class TestDataModel:
    def test_cells_are_two_read_only_arrays(self, table1):
        assert table1.m.shape == table1.n.shape == (4, 4)
        assert table1.m.dtype == table1.n.dtype == np.float64
        assert table1.m[0, 0] == 0.7 and table1.n[2, 1] == 0.2
        for values in (table1.m, table1.n):
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0] = 0.1
        with pytest.raises(AttributeError):
            table1.m = np.zeros((4, 4))

    def test_derived_sets_are_read_only_too(self, table1, table2):
        for s in (
            extended_union(table1, table2),
            restricted_intersection(table1, table2),
            extended_intersection(table1, table1),
            null_set(UNIVERSE, ("c1",)),
            copy.deepcopy(table1),
            pickle.loads(pickle.dumps(table1)),
        ):
            assert not s.m.flags.writeable and not s.n.flags.writeable
            assert not s.table_m.flags.writeable and not s.table_n.flags.writeable

    def test_last_table_row_holds_the_importances(self, table1):
        assert table1.table_m.shape == table1.table_n.shape == (5, 4)
        expected = [importance for _, importance in TABLE1_PARAMS]
        assert list(zip(table1.table_m[-1].tolist(), table1.table_n[-1].tolist())) == expected
        assert [(p.importance.m, p.importance.n) for p in table1.parameters] == expected
        assert [p.name for p in table1.parameters] == list(table1.parameter_names)

    def test_cell_arrays_are_views_of_the_table(self, table1):
        assert np.shares_memory(table1.m, table1.table_m)
        assert np.shares_memory(table1.n, table1.table_n)
        assert np.array_equal(table1.m, table1.table_m[:-1])
        assert np.array_equal(table1.n, table1.table_n[:-1])
        for values in (table1.table_m, table1.table_n):
            with pytest.raises(ValueError, match="read-only"):
                values[-1, 0] = 0.1

    def test_build_peaks_near_the_size_of_its_tables(self):
        """Each table is a view of the buffer its degrees were read into,
        and the entry lists are freed before the checks: a build that copies
        the buffers and keeps its entries peaks at about 3.6 times."""
        rng = np.random.default_rng(17)
        m = rng.random((20_001, 8))
        n = rng.random(m.shape) * np.sqrt(1.0 - m * m)
        universe, names = [f"p{i}" for i in range(20_000)], [f"c{j}" for j in range(8)]
        ms, ns = m.tolist(), n.tolist()
        params = list(zip(names, zip(ms[-1], ns[-1])))
        cells = {
            (alt, name): pair
            for alt, row_m, row_n in zip(universe, ms, ns)
            for name, pair in zip(names, zip(row_m, row_n))
        }
        del ms, ns
        gc.collect()
        tracemalloc.start()
        try:
            s = build(universe, params, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (s.table_m.nbytes + s.table_n.nbytes)

    def test_build_from_pfn_cells_peaks_near_the_size_of_its_tables(self):
        """PFN cells are read without an (m, n) pair each that outlives its
        read: a build that made every pair first peaked at about 5.6 times."""
        rng = np.random.default_rng(18)
        m = rng.random((20_001, 8))
        n = rng.random(m.shape) * np.sqrt(1.0 - m * m)
        universe, names = [f"p{i}" for i in range(20_000)], [f"c{j}" for j in range(8)]
        ms, ns = m.tolist(), n.tolist()
        params = [PFParameter(name, PFN(a, b)) for name, a, b in zip(names, ms[-1], ns[-1])]
        cells = {
            (alt, name): PFN(a, b)
            for alt, row_m, row_n in zip(universe, ms, ns)
            for name, a, b in zip(names, row_m, row_n)
        }
        del ms, ns
        gc.collect()
        tracemalloc.start()
        try:
            s = build(universe, params, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (s.table_m.nbytes + s.table_n.nbytes)
        assert s.table_m.tobytes() == m.tobytes() and s.table_n.tobytes() == n.tobytes()

    def test_copies_keep_the_importances(self, table1):
        for s in (copy.copy(table1), copy.deepcopy(table1), pickle.loads(pickle.dumps(table1))):
            assert s.parameters == table1.parameters
            assert s.table_m.tobytes() == table1.table_m.tobytes()
            assert s.table_n.tobytes() == table1.table_n.tobytes()
            assert np.shares_memory(s.m, s.table_m)

    def test_parameters_are_built_on_first_use(self, table1, table2):
        combined = extended_intersection(table1, table2)
        decide_single(combined)  # weighs the importance row, not PFParameters
        assert combined._parameters is None
        assert combined.parameters is combined.parameters
        assert combined.parameter("s2") == PFParameter("s2", PFN(0.1, 0.6))
        assert repr(table1) == (
            "PhiSoftSet(universe=('p1', 'p2', 'p3', 'p4'), "
            "parameter_names=('s1', 's3', 's5', 's6'), "
            "parameters=(PFParameter(name='s1', importance=PFN(m=0.5, n=0.4)), "
            "PFParameter(name='s3', importance=PFN(m=0.7, n=0.2)), "
            "PFParameter(name='s5', importance=PFN(m=0.3, n=0.6)), "
            "PFParameter(name='s6', importance=PFN(m=0.6, n=0.3))))"
        )

    def test_no_pfn_is_stored_per_cell(self, table1):
        table1.cell("p1", "s1")  # fill the lazy name -> index lookup
        stored = [getattr(table1, slot) for slot in type(table1).__slots__]
        pfns = [value for value in stored if isinstance(value, PFN)]
        mappings = [value for value in stored if isinstance(value, dict)]
        mappings += [d for value in stored if isinstance(value, tuple) for d in value
                     if isinstance(d, dict)]
        assert not pfns
        assert not any(isinstance(v, PFN) for d in mappings for v in d.values())

    def test_views_read_the_arrays(self, table1):
        for i, alt in enumerate(UNIVERSE):
            row = table1.row(alt)
            for j, name in enumerate(table1.parameter_names):
                expected = PFN(table1.m[i, j], table1.n[i, j])
                assert table1.cell(alt, name) == row[j] == table1.cells[alt, name] == expected
        assert len(table1.cells) == 16
        assert dict(table1.cells.items()) == {k: PFN(*v) for k, v in TABLE1_CELLS.items()}
        assert ("p9", "s1") not in table1.cells and "p1" not in table1.cells

    def test_views_are_frozen_pfns_or_raise_what_the_constructor_raises(self, table1):
        views = [*table1.row("p2"), *(p.importance for p in table1.parameters),
                 *dict(table1.cells.items()).values()]
        assert all(type(v) is PFN for v in views)
        with pytest.raises(FrozenInstanceError):
            views[0].m = 0.5
        # a table that skipped `build`: each view names the bad pair as PFN does
        m, n = table1.table_m.copy(), table1.table_n.copy()
        m[1, 2], n[1, 3], m[-1, 1] = 1.5, 0.99, math.nan
        raw = PhiSoftSet(table1.universe, table1.parameter_names, m, n)
        for view, (i, j) in ((lambda: raw.row("p2"), (1, 2)), (lambda: raw.parameters, (4, 1)),
                             (lambda: raw.cells.items(), (1, 2))):
            with pytest.raises((OutOfRange, NotPythagorean)) as constructed:
                PFN(m[i, j], n[i, j])
            with pytest.raises(type(constructed.value), match=re.escape(str(constructed.value))):
                view()
        assert raw.row("p1") == table1.row("p1")

    def test_rebuilding_from_another_sets_cells(self, table1):
        permuted = build(tuple(reversed(UNIVERSE)), TABLE1_PARAMS[::-1], table1.cells)
        assert permuted.universe == tuple(reversed(UNIVERSE))
        assert np.array_equal(permuted.m, table1.m[::-1, ::-1])
        assert np.array_equal(permuted.n, table1.n[::-1, ::-1])
        with pytest.raises(MissingCell, match="unexpected"):
            build(UNIVERSE[:2], TABLE1_PARAMS, table1.cells)
        with pytest.raises(MissingCell, match=r"\(p1, s9\)"):
            build(UNIVERSE, TABLE1_PARAMS + [("s9", (0.5, 0.4))], table1.cells)

    def test_equality_tolerance(self, table1):
        def nudged(delta):
            cells = dict(TABLE1_CELLS)
            m, n = cells[("p3", "s5")]
            cells[("p3", "s5")] = (m + delta, n)
            return build(UNIVERSE, TABLE1_PARAMS, cells)

        assert equals(table1, nudged(5e-13))
        assert not equals(table1, nudged(5e-12))

    def test_empty_ids_raise_a_package_error(self):
        with pytest.raises(InvalidId):
            build([""], [("s1", (0.5, 0.4))], {("", "s1"): (0.5, 0.5)})
        assert issubclass(InvalidId, PhiSoftError) and issubclass(InvalidId, ValueError)
