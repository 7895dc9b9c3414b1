"""Pythagorean fuzzy parameterized soft sets.

A soft set here couples a universe of alternatives with a family of
parameters, where each parameter carries a PFN importance degree and each
(alternative, parameter) cell holds a PFN describing how well the
alternative satisfies the parameter.  A set is one table, stored as two
read-only float64 arrays of memberships and non-memberships: a row per
alternative, then the importances as the last row, as in the CSV form.
Validation, combination, subset and equality treat the whole table alike;
`cell`, `row`, `cells` and `parameters` build PFN views of it.  Sets are
immutable after `build`; the combination operators return new sets.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import product

import numpy as np

from .errors import (
    DuplicateId,
    EmptyIntersection,
    EmptyUniverse,
    InvalidId,
    InvalidPFN,
    MissingCell,
    NotPythagorean,
    OutOfRange,
    UniverseMismatch,
)
from .pfn import PFN, OrderKind, PFNArray, below, close, join, meet, valid


@dataclass(frozen=True, slots=True)
class PFParameter:
    """A named parameter together with its PFN importance degree."""

    name: str
    importance: PFN


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PhiSoftSet:
    """Universe x PF-weighted parameters with one PFN per table cell.

    `table_m` and `table_n` have shape (A + 1) x P: row i < A holds the
    cells of `universe[i]`, row A the importances, and column j belongs to
    `parameter_names[j]`.  Both are read-only; `m` and `n` are views of
    their cell rows, and `parameters` pairs each name with its importance.
    Construct through `build` (or a parser), which validates everything;
    the dataclass itself only rejects an empty universe (EmptyUniverse).
    Use `equals` for the order-insensitive domain equality.
    """

    universe: tuple[str, ...]
    parameter_names: tuple[str, ...]
    table_m: np.ndarray
    table_n: np.ndarray
    m: np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)
    _parameters: tuple[PFParameter, ...] | None = field(default=None, init=False)
    _index: tuple[dict[str, int], dict[str, int]] | None = field(default=None, init=False)

    def __post_init__(self):
        if not self.universe:
            raise EmptyUniverse("the universe is empty: a soft set needs an alternative")
        self.table_m.setflags(write=False)
        self.table_n.setflags(write=False)
        object.__setattr__(self, "m", self.table_m[:-1])
        object.__setattr__(self, "n", self.table_n[:-1])

    def __reduce__(self):
        # Copies and unpickled sets go through __post_init__, which freezes
        # their arrays.
        return PhiSoftSet, (self.universe, self.parameter_names, self.table_m, self.table_n)

    def __repr__(self) -> str:
        fields = f"universe={self.universe!r}, parameter_names={self.parameter_names!r}"
        return f"PhiSoftSet({fields}, parameters={self.parameters!r})"

    @property
    def parameters(self) -> tuple[PFParameter, ...]:
        """Each parameter name with its importance, built on first use."""
        if self._parameters is None:
            importances = map(PFN, self.table_m[-1].tolist(), self.table_n[-1].tolist())
            parameters = tuple(map(PFParameter, self.parameter_names, importances))
            object.__setattr__(self, "_parameters", parameters)
        return self._parameters

    def _lookup(self) -> tuple[dict[str, int], dict[str, int]]:
        """(alternative -> row, parameter name -> column), built on first use."""
        if self._index is None:
            rows = {alt: i for i, alt in enumerate(self.universe)}
            cols = {name: j for j, name in enumerate(self.parameter_names)}
            object.__setattr__(self, "_index", (rows, cols))
        return self._index

    def parameter(self, name: str) -> PFParameter:
        return self.parameters[self._lookup()[1][name]]

    def cell(self, alternative: str, name: str) -> PFN:
        rows, cols = self._lookup()
        i, j = rows[alternative], cols[name]
        return PFN(self.m.item(i, j), self.n.item(i, j))

    def row(self, alternative: str) -> tuple[PFN, ...]:
        """The alternative's cells in parameter order."""
        i = self._lookup()[0][alternative]
        return tuple(map(PFN, self.m[i].tolist(), self.n[i].tolist()))

    @property
    def cells(self) -> Mapping[tuple[str, str], PFN]:
        """The cells as a read-only (alternative, name) -> PFN mapping."""
        return _CellView(self)


class _CellView(Mapping):
    """A set's cells as a mapping; each PFN is built when it is read."""

    __slots__ = ("_set",)

    def __init__(self, softset: PhiSoftSet):
        self._set = softset

    def __getitem__(self, key) -> PFN:
        try:
            return self._set.cell(*key)
        except (KeyError, TypeError):
            raise KeyError(key) from None

    def __iter__(self):
        return product(self._set.universe, self._set.parameter_names)

    def __len__(self) -> int:
        return self._set.m.size

    def _dict(self) -> dict[tuple[str, str], PFN]:
        """Every cell, read from the arrays in one pass, not key by key."""
        s = self._set
        return dict(zip(self, map(PFN, s.m.ravel().tolist(), s.n.ravel().tolist())))

    def items(self):
        return self._dict().items()

    def __repr__(self) -> str:
        return repr(self._dict())


#: Commas, the line breaks str.splitlines knows, and surrogates (no UTF-8 form).
_forbidden = re.compile("[,\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]").search


def check_ids(
    universe: Iterable[str], names: Iterable[str], locate=None
) -> tuple[tuple[str, ...], ...]:
    """Validate the alternative ids, then the parameter names; both as tuples.
    `locate(axis, k)`, if given, says where alternative id k (axis 0) or
    parameter name k (axis 1) sits in the input."""
    where = locate or (lambda axis, k: "")
    checked = []
    for axis, (kind, values) in enumerate((("alternative id", universe), ("parameter name", names))):
        values = tuple(values)
        for k, value in enumerate(values):
            if not isinstance(value, str) or not value:
                raise InvalidId(f"{kind}{where(axis, k)} must be a non-empty string, got {value!r}")
            if value != value.strip():
                raise InvalidId(f"{kind} {value!r}{where(axis, k)} starts or ends with whitespace")
        if _forbidden("".join(values)):
            k = next(k for k, v in enumerate(values) if _forbidden(v))
            what = f"{kind} {values[k]!r}{where(axis, k)}"
            raise InvalidId(f"{what} has a comma, line break or surrogate")
        if len(set(values)) != len(values):
            dupes = sorted(v for v, count in Counter(values).items() if count > 1)
            raise DuplicateId(f"duplicate {kind}s: {', '.join(dupes)}")
        checked.append(values)
    return tuple(checked)


def _reject(value, alts, names, i: int, j: int, where: str = "") -> None:
    """Raise InvalidPFN if `value`, entry (i, j) of a table, is not a valid
    PFN or (m, n) pair, naming a cell or, on the last row, an importance."""
    what = f"importance of {names[j]!r}" if i == len(alts) else f"cell ({alts[i]}, {names[j]})"
    try:
        m, n = value
        PFN(m, n)
    except (OutOfRange, NotPythagorean, TypeError, ValueError) as exc:
        raise InvalidPFN(f"{what}{where}: {exc}") from None


def check_cells(m: np.ndarray, n: np.ndarray, alts, names, locate=None) -> None:
    """Raise InvalidPFN for the first entry, row-major, of an (A + 1) x P table,
    or of the first such table of a stack, that is not a valid PFN.  The test
    is PFN's own, over whole arrays; `locate(i, j)`, if given, says where
    entry (i, j) sits in the input."""
    ok = valid(PFNArray(m, n))
    if not ok.all():
        *_, i, j = entry = tuple(int(k) for k in np.argwhere(~ok)[0])
        _reject((m.item(entry), n.item(entry)), alts, names, i, j, locate(i, j) if locate else "")


def build(
    universe: Iterable[str],
    parameters: Iterable[PFParameter | tuple],
    cells: Mapping[tuple[str, str], PFN | tuple],
) -> PhiSoftSet:
    """Validate and assemble a soft set.

    `parameters` entries may be PFParameter objects or (name, importance)
    pairs, and cell values may be PFNs or (m, n) pairs, whose degrees are
    read as `PFN` reads them: numbers, never text.  The cell mapping must
    be total: exactly one entry per (alternative, parameter name).

    Raises InvalidId, DuplicateId, MissingCell, or InvalidPFN, naming the
    offending cell, importance or parameter entry.
    """
    names, importances = [], []
    for index, entry in enumerate(parameters):
        if isinstance(entry, PFParameter):
            entry = entry.name, entry.importance
        try:
            name, importance = entry
        except (TypeError, ValueError):
            raise InvalidPFN(f"parameter entry {index} is not a (name, importance) pair") from None
        names.append(name)
        if isinstance(importance, PFN):  # a pair, so PFParameters keep `_degrees`' pair path
            importance = importance.m, importance.n
        importances.append(importance)
    alts, names = check_ids(universe, names)

    try:
        values = [cells[key] for key in product(alts, names)]
    except KeyError:
        alt, name = next(key for key in product(alts, names) if key not in cells)
        raise MissingCell(f"missing cell ({alt}, {name})") from None
    if len(cells) != len(values):
        extras = sorted(set(cells) - set(product(alts, names)))
        raise MissingCell(f"unexpected cells outside the table: {extras[:5]}")
    values += importances

    try:  # PFN's rule, `pfn._real`, in one call per component
        ms, ns = _degrees(values)
    except (TypeError, ValueError, OverflowError):  # an entry is not a PFN or a pair of numbers
        for k, value in enumerate(values):
            if not isinstance(value, PFN):
                _reject(value, alts, names, *divmod(k, len(names)))
        raise
    del values  # the buffers hold every degree; free the entries before the checks
    return _assemble(alts, names, ms, ns)


def _degrees(values: list) -> tuple[array, array]:
    """The m and the n of each (m, n) pair or PFN in `values`, in two
    `array("d")` buffers.  Raises TypeError, ValueError or OverflowError for
    any other entry."""
    try:  # pairs, the usual input, in one pass per component
        return array("d", [m for m, _ in values]), array("d", [n for _, n in values])
    except (TypeError, ValueError, OverflowError):
        pass
    # A PFN's pair is made as it is read and freed at once, so no two coexist.
    return (array("d", [m for v in values for m, _ in ((v.m, v.n) if isinstance(v, PFN) else v,)]),
            array("d", [n for v in values for _, n in ((v.m, v.n) if isinstance(v, PFN) else v,)]))


def _assemble(alts, names, m: array, n: array, locate=None) -> PhiSoftSet:
    """The set of checked ids `alts` and `names` whose table holds the
    row-major degrees in the `array("d")` buffers m and n: the cells, then
    the importance row.  Each table is one view of its buffer, not a copy.
    Raises what `check_cells` raises, with `locate`."""
    shape = (len(alts) + 1, len(names))
    m, n = np.ndarray(shape, np.float64, m), np.ndarray(shape, np.float64, n)
    check_cells(m, n, alts, names, locate)
    return PhiSoftSet(alts, names, m, n)


def _layout(s: PhiSoftSet, universe, names=None) -> PFNArray:
    """s's table with rows in `universe` order (importance row last) and
    columns in `names` order, or in s's own order when `names` is None.

    Raises KeyError unless `universe` lists s's alternatives, in any order,
    or for a name s lacks.
    """
    row_of, col_of = s._lookup()
    if len(universe) != len(row_of):
        raise KeyError("the universes differ")
    rows = np.array([row_of[alt] for alt in universe] + [len(row_of)], np.intp)
    m, n = s.table_m.take(rows, axis=-2), s.table_n.take(rows, axis=-2)
    if names is None:
        return PFNArray(m, n)
    cols = np.array([col_of[name] for name in names], np.intp)
    return PFNArray(m.take(cols, axis=-1), n.take(cols, axis=-1))


# The per-table reductions of two aligned tables (one of them from `_layout`)
# or of the law suites' stacks: `pfn`'s entrywise test over the last two axes.


def _dominated(a: PFNArray, b: PFNArray) -> np.ndarray:
    """Per table: whether every entry of a is lattice-below b's."""
    return below(a, b, OrderKind.LATTICE).all(axis=(-2, -1))


def _close(a: PFNArray, b: PFNArray) -> np.ndarray:
    """Per table: whether every component of a is within COMPARE_EPS of b's."""
    return close(a, b).all(axis=(-2, -1))


def is_subset(a: PhiSoftSet, b: PhiSoftSet) -> bool:
    """Whether `a` is a soft subset of `b`.

    Requires equal universes (as sets), every parameter of `a` present in
    `b`, and every importance and cell of `a` lattice-dominated by the
    matching one of `b`.
    """
    return _aligned(a, b, _dominated)


def equals(a: PhiSoftSet, b: PhiSoftSet) -> bool:
    """Order-insensitive equality of universes, importances, and cells.

    Components are compared within COMPARE_EPS; callers needing bit
    equality should compare fields directly.
    """
    return len(a.parameter_names) == len(b.parameter_names) and _aligned(a, b, _close)


def _aligned(a: PhiSoftSet, b: PhiSoftSet, reduction) -> bool:
    """`reduction` of a's table and b's laid out in a's order, or False when
    b lacks one of a's alternatives or parameters."""
    try:
        b_table = _layout(b, a.universe, a.parameter_names)
    except KeyError:
        return False
    return bool(reduction(PFNArray(a.table_m, a.table_n), b_table))


class CombineRule(Enum):
    """Step 2's four ways to merge two sets.  Extended rules keep every
    parameter of either set, restricted rules only the shared ones; union
    rules join shared entries, intersection rules meet them."""

    EXTENDED_UNION = "eunion"
    EXTENDED_INTERSECTION = "eintersect"
    RESTRICTED_UNION = "runion"
    RESTRICTED_INTERSECTION = "rintersect"


def combine(a: PhiSoftSet, b: PhiSoftSet, rule: CombineRule) -> PhiSoftSet:
    """Merge `b` into `a` by `rule`, in `a`'s universe order and with `a`'s
    parameters first.  Raises UniverseMismatch unless the universes are equal
    as sets, or, under a restricted rule, EmptyIntersection if none is shared."""
    extended = rule.name.startswith("EXTENDED_")
    try:
        b_table = _layout(b, a.universe)
    except KeyError:
        raise UniverseMismatch(
            f"universes differ: {sorted(a.universe)} vs {sorted(b.universe)}"
        ) from None
    a_cols, b_cols = a._lookup()[1], b._lookup()[1]
    names = [name for name in a.parameter_names if extended or name in b_cols]
    if not (extended or names):
        raise EmptyIntersection("the parameter sets share no name")
    names += [name for name in b.parameter_names if extended and name not in a_cols]
    # a's columns, then b's.  For a name one side lacks, that side takes the
    # other side's column: the join or meet of a column with itself is the
    # column bit for bit, so unshared entries are copied, signed zeros too.
    wide = len(a_cols)
    of_a = [a_cols[name] if name in a_cols else wide + b_cols[name] for name in names]
    of_b = [wide + b_cols[name] if name in b_cols else a_cols[name] for name in names]
    # One take per component gives both sides, as [:, 0] and [:, 1]; the
    # index array is intp also when a set with no parameters leaves it empty.
    cols = np.array((of_a, of_b), np.intp)
    m = np.concatenate((a.table_m, b_table.m), axis=1).take(cols, axis=1)
    n = np.concatenate((a.table_n, b_table.n), axis=1).take(cols, axis=1)
    # Join and meet of valid PFNs are valid, so the result needs no checks.
    lattice = join if rule.name.endswith("_UNION") else meet
    combined = lattice(PFNArray(m[:, 0], n[:, 0]), PFNArray(m[:, 1], n[:, 1]))
    return PhiSoftSet(a.universe, tuple(names), *combined)


def extended_union(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Combine over the union of parameter sets, joining shared entries.

    Unshared parameters are copied; shared parameters take the
    componentwise (max m, min n) of both importances and of every cell.
    """
    return combine(a, b, CombineRule.EXTENDED_UNION)


def extended_intersection(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Combine over the union of parameter sets, meeting shared entries."""
    return combine(a, b, CombineRule.EXTENDED_INTERSECTION)


def restricted_union(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Join shared parameters only; raises EmptyIntersection if none."""
    return combine(a, b, CombineRule.RESTRICTED_UNION)


def restricted_intersection(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Meet shared parameters only; raises EmptyIntersection if none."""
    return combine(a, b, CombineRule.RESTRICTED_INTERSECTION)


def constant_set(universe: Iterable[str], names: Iterable[str], a: float, b: float) -> PhiSoftSet:
    """A set whose every cell and every importance equals (a, b)."""
    value = PFN(a, b)
    alts, names = check_ids(universe, names)
    shape = (len(alts) + 1, len(names))
    return PhiSoftSet(alts, names, np.full(shape, value.m), np.full(shape, value.n))


def null_set(universe: Iterable[str], names: Iterable[str]) -> PhiSoftSet:
    """The relative null set: cells and importances all (0, 1)."""
    return constant_set(universe, names, 0.0, 1.0)


def whole_set(universe: Iterable[str], names: Iterable[str]) -> PhiSoftSet:
    """The relative whole set: cells and importances all (1, 0)."""
    return constant_set(universe, names, 1.0, 0.0)
