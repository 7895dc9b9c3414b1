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
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
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


def check_ids(universe: Iterable[str], names: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """Validate the alternative ids, then the parameter names; both as tuples."""
    checked = []
    for kind, values in (("alternative id", universe), ("parameter name", names)):
        values = tuple(values)
        for value in values:
            if not isinstance(value, str) or not value:
                raise InvalidId(f"{kind} must be a non-empty string, got {value!r}")
            if value != value.strip():
                raise InvalidId(f"{kind} {value!r} starts or ends with whitespace")
        if _forbidden("".join(values)):
            bad = next(v for v in values if _forbidden(v))
            raise InvalidId(f"{kind} {bad!r} has a comma, line break or surrogate")
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
    pairs, and cell values may be PFNs or (m, n) pairs.  The cell mapping
    must be total: exactly one entry per (alternative, parameter name).

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

    values = [(v.m, v.n) if isinstance(v, PFN) else v for v in values]
    try:
        ms, ns = [float(m) for m, _ in values], [float(n) for _, n in values]
    except (TypeError, ValueError):  # an entry is not a pair of numbers
        for k, value in enumerate(values):
            _reject(value, alts, names, *divmod(k, len(names)))
        raise
    shape = (len(alts) + 1, len(names))
    m = np.array(ms, dtype=np.float64).reshape(shape)
    n = np.array(ns, dtype=np.float64).reshape(shape)
    check_cells(m, n, alts, names)
    return PhiSoftSet(alts, names, m, n)


def _layout(s: PhiSoftSet, universe, names, tables: PFNArray | None = None) -> PFNArray:
    """s's table, or a stack of `tables` laid out as s's, with rows in
    `universe` order (importance row last) and columns in `names` order.  The
    last two axes are gathered, so a stack of tables lays out alike.

    Raises KeyError unless `universe` lists s's alternatives, in any order,
    or for a name s lacks.
    """
    row_of, col_of = s._lookup()
    if len(universe) != len(row_of):
        raise KeyError("the universes differ")
    rows = [row_of[alt] for alt in universe] + [len(row_of)]
    cols = [col_of[name] for name in names]
    m, n = tables or (s.table_m, s.table_n)
    return PFNArray(
        m.take(rows, axis=-2).take(cols, axis=-1), n.take(rows, axis=-2).take(cols, axis=-1)
    )


# The per-table reductions.  Each takes two aligned tables, or stacks of them,
# and reduces `pfn`'s entrywise test over the last two axes.


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
    try:
        b_table = _layout(b, a.universe, a.parameter_names)
    except KeyError:
        return False
    return bool(_dominated(PFNArray(a.table_m, a.table_n), b_table))


def equals(a: PhiSoftSet, b: PhiSoftSet) -> bool:
    """Order-insensitive equality of universes, importances, and cells.

    Components are compared within COMPARE_EPS; callers needing bit
    equality should compare fields directly.
    """
    if len(a.parameter_names) != len(b.parameter_names):
        return False
    try:
        b_table = _layout(b, a.universe, a.parameter_names)
    except KeyError:
        return False
    return bool(_close(PFNArray(a.table_m, a.table_n), b_table))


def _combine(a: PhiSoftSet, b: PhiSoftSet, union: bool, extended: bool) -> PhiSoftSet:
    try:
        b_table = _layout(b, a.universe, b.parameter_names)
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
    m = np.concatenate((a.table_m, b_table.m), axis=1)
    n = np.concatenate((a.table_n, b_table.n), axis=1)
    a_side, b_side = (PFNArray(m.take(cols, axis=1), n.take(cols, axis=1)) for cols in (of_a, of_b))
    # Join and meet of valid PFNs are valid, so the result needs no checks.
    lattice = join if union else meet
    return PhiSoftSet(a.universe, tuple(names), *lattice(a_side, b_side))


def extended_union(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Combine over the union of parameter sets, joining shared entries.

    Unshared parameters are copied; shared parameters take the
    componentwise (max m, min n) of both importances and of every cell.
    """
    return _combine(a, b, union=True, extended=True)


def extended_intersection(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Combine over the union of parameter sets, meeting shared entries."""
    return _combine(a, b, union=False, extended=True)


def restricted_union(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Join shared parameters only; raises EmptyIntersection if none."""
    return _combine(a, b, union=True, extended=False)


def restricted_intersection(a: PhiSoftSet, b: PhiSoftSet) -> PhiSoftSet:
    """Meet shared parameters only; raises EmptyIntersection if none."""
    return _combine(a, b, union=False, extended=False)


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
