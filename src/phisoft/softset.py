"""Pythagorean fuzzy parameterized soft sets.

A soft set here couples a universe of alternatives with a family of
parameters, where each parameter carries a PFN importance degree and each
(alternative, parameter) cell holds a PFN describing how well the
alternative satisfies the parameter.  The cells are stored once, as two
read-only float64 arrays of memberships and non-memberships; `cell`, `row`
and `cells` build PFN views of them on demand.  Sets are immutable after
`build`; the combination operators return new sets.
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
from .pfn import COMPARE_EPS, VALIDITY_EPS, PFN, OrderKind, Ordering, compare, join, meet

PFNLike = PFN | tuple


@dataclass(frozen=True, slots=True)
class PFParameter:
    """A named parameter together with its PFN importance degree."""

    name: str
    importance: PFN


@dataclass(frozen=True, slots=True, eq=False)
class PhiSoftSet:
    """Universe x PF-weighted parameters with one PFN per table cell.

    `m[i, j]` and `n[i, j]` are the cell of `universe[i]` under
    `parameters[j]`; both arrays are read-only.  Construct through `build`
    (or a parser), which validates everything; the dataclass itself only
    rejects an empty universe (EmptyUniverse).  Use `equals` for the
    order-insensitive domain equality.
    """

    universe: tuple[str, ...]
    parameters: tuple[PFParameter, ...]
    m: np.ndarray = field(repr=False)
    n: np.ndarray = field(repr=False)
    parameter_names: tuple[str, ...] = field(init=False, repr=False)
    _index: tuple[dict[str, int], dict[str, int]] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        if not self.universe:
            raise EmptyUniverse("the universe is empty: a soft set needs an alternative")
        object.__setattr__(self, "parameter_names", tuple([p.name for p in self.parameters]))
        self.m.setflags(write=False)
        self.n.setflags(write=False)

    def __reduce__(self):
        # Copies and unpickled sets go through __post_init__, which freezes
        # their arrays.
        return PhiSoftSet, (self.universe, self.parameters, self.m, self.n)

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


def check_ids(kind: str, values: Iterable[str]) -> tuple[str, ...]:
    """Validate ids of one kind ("alternative id", "parameter name")."""
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
    return values


def coerce_pfn(value: PFNLike, what: str) -> PFN:
    if isinstance(value, PFN):
        return value
    try:
        m, n = value
        return PFN(m, n)
    except (OutOfRange, NotPythagorean, TypeError, ValueError) as exc:
        raise InvalidPFN(f"{what}: {exc}") from None


def check_cells(m: np.ndarray, n: np.ndarray, where) -> None:
    """Raise InvalidPFN for the first cell, row-major, that is not a valid PFN.

    The test is PFN's own, over whole arrays; `where(i, j)` names cell (i, j)
    in the message.
    """
    ok = (m >= 0.0) & (m <= 1.0) & (n >= 0.0) & (n <= 1.0)
    ok &= m * m + n * n <= 1.0 + VALIDITY_EPS
    if not ok.all():
        i, j = (int(k) for k in np.argwhere(~ok)[0])
        coerce_pfn((m.item(i, j), n.item(i, j)), where(i, j))


def build(
    universe: Iterable[str],
    parameters: Iterable[PFParameter | tuple],
    cells: Mapping[tuple[str, str], PFNLike],
) -> PhiSoftSet:
    """Validate and assemble a soft set.

    `parameters` entries may be PFParameter objects or (name, importance)
    pairs, and cell values may be PFNs or (m, n) pairs.  The cell mapping
    must be total: exactly one entry per (alternative, parameter name).

    Raises InvalidId, DuplicateId, MissingCell, or InvalidPFN (with the
    offending coordinates in the message).
    """
    alts = check_ids("alternative id", universe)
    params = []
    for entry in parameters:
        if isinstance(entry, PFParameter):
            if isinstance(entry.importance, PFN):
                params.append(entry)
                continue
            name, importance = entry.name, entry.importance
        else:
            name, importance = entry
        params.append(PFParameter(name, coerce_pfn(importance, f"importance of {name!r}")))
    params = tuple(params)
    names = check_ids("parameter name", (p.name for p in params))

    ms, ns = [], []
    all_pfns = True  # PFNs are valid by construction
    for alt in alts:
        for name in names:
            try:
                value = cells[alt, name]
            except KeyError:
                raise MissingCell(f"missing cell ({alt}, {name})") from None
            if isinstance(value, PFN):
                ms.append(value.m)
                ns.append(value.n)
                continue
            all_pfns = False
            try:
                m, n = value
            except (TypeError, ValueError):
                coerce_pfn(value, f"cell ({alt}, {name})")  # raises, naming the cell
            ms.append(m)
            ns.append(n)
    if len(cells) != len(ms):
        extras = sorted(set(cells) - set(product(alts, names)))
        raise MissingCell(f"unexpected cells outside the table: {extras[:5]}")

    def where(i: int, j: int) -> str:
        return f"cell ({alts[i]}, {names[j]})"

    if not all_pfns:
        try:
            ms, ns = list(map(float, ms)), list(map(float, ns))
        except (TypeError, ValueError):
            for i, j in product(range(len(alts)), range(len(names))):
                coerce_pfn(cells[alts[i], names[j]], where(i, j))
            raise
    shape = (len(alts), len(names))
    m = np.array(ms, dtype=np.float64).reshape(shape)
    n = np.array(ns, dtype=np.float64).reshape(shape)
    if not all_pfns:
        check_cells(m, n, where)
    return PhiSoftSet(alts, params, m, n)


def _same_universe(a: PhiSoftSet, b: PhiSoftSet) -> bool:
    return a.universe == b.universe or set(a.universe) == set(b.universe)


def _rows(universe: tuple[str, ...], b: PhiSoftSet) -> list[int] | None:
    """b's row of each alternative, or None if b lists them in this order."""
    if universe == b.universe:
        return None
    rows = b._lookup()[0]
    return [rows[alt] for alt in universe]


def _columns(names: tuple[str, ...], b: PhiSoftSet) -> list[int] | None:
    """b's column of each parameter name, or None if b lists them in this
    order.  Raises KeyError for a name b lacks."""
    if names == b.parameter_names:
        return None
    cols = b._lookup()[1]
    return [cols[name] for name in names]


def _gather(values: np.ndarray, rows, cols) -> np.ndarray:
    """`values` restricted to the given rows and columns; None keeps all."""
    if rows is not None:
        values = values.take(rows, axis=0)
    if cols is not None:
        values = values.take(cols, axis=1)
    return values


def _aligned(a: PhiSoftSet, b: PhiSoftSet):
    """b's parameters, m and n in a's order (the universes must match).

    Raises KeyError for a parameter name of a that b lacks.
    """
    rows, cols = _rows(a.universe, b), _columns(a.parameter_names, b)
    others = b.parameters if cols is None else [b.parameters[k] for k in cols]
    return others, _gather(b.m, rows, cols), _gather(b.n, rows, cols)


_LATTICE_LEQ = (Ordering.LESS, Ordering.EQUAL)


def is_subset(a: PhiSoftSet, b: PhiSoftSet) -> bool:
    """Whether `a` is a soft subset of `b`.

    Requires equal universes (as sets), every parameter of `a` present in
    `b` with a lattice-dominating importance, and every cell of `a`
    lattice-dominated by the matching cell of `b`.
    """
    if not _same_universe(a, b):
        return False
    try:
        others, bm, bn = _aligned(a, b)
    except KeyError:
        return False
    for p, q in zip(a.parameters, others):
        if compare(p.importance, q.importance, OrderKind.LATTICE) not in _LATTICE_LEQ:
            return False
    return not np.count_nonzero((a.m > bm) | (a.n < bn))


def pfn_close(a: PFN, b: PFN) -> bool:
    """Both components within COMPARE_EPS."""
    return abs(a.m - b.m) <= COMPARE_EPS and abs(a.n - b.n) <= COMPARE_EPS


def equals(a: PhiSoftSet, b: PhiSoftSet) -> bool:
    """Order-insensitive equality of universes, importances, and cells.

    Components are compared within COMPARE_EPS; callers needing bit
    equality should compare fields directly.
    """
    if not _same_universe(a, b) or set(a.parameter_names) != set(b.parameter_names):
        return False
    others, bm, bn = _aligned(a, b)
    if not all(pfn_close(p.importance, q.importance) for p, q in zip(a.parameters, others)):
        return False
    if a.m.tobytes() == bm.tobytes() and a.n.tobytes() == bn.tobytes():
        return True  # bit-identical cells; cheaper to see than the tolerance
    return not np.count_nonzero(
        (np.abs(a.m - bm) > COMPARE_EPS) | (np.abs(a.n - bn) > COMPARE_EPS)
    )


def _combine(a: PhiSoftSet, b: PhiSoftSet, union: bool, extended: bool) -> PhiSoftSet:
    if not _same_universe(a, b):
        raise UniverseMismatch(
            f"universes differ: {sorted(a.universe)} vs {sorted(b.universe)}"
        )
    # Join and meet of valid PFNs are valid, so the result needs no checks.
    if union:
        up, down, merge = np.maximum, np.minimum, join
    else:
        up, down, merge = np.minimum, np.maximum, meet
    if not extended and not set(a.parameter_names) & set(b.parameter_names):
        raise EmptyIntersection("the parameter sets share no name")
    rows = _rows(a.universe, b)
    if a.parameter_names == b.parameter_names:
        params = tuple(
            PFParameter(p.name, merge(p.importance, q.importance))
            for p, q in zip(a.parameters, b.parameters)
        )
        m = up(a.m, _gather(b.m, rows, None))
        n = down(a.n, _gather(b.n, rows, None))
        return PhiSoftSet(a.universe, params, m, n)

    b_cols = b._lookup()[1]
    params: list[PFParameter] = []
    keep: list[int] = []  # a's columns in the result
    mine: list[int] = []  # result columns of the shared parameters...
    theirs: list[int] = []  # ...and their columns in b
    for j, p in enumerate(a.parameters):
        k = b_cols.get(p.name)
        if k is not None:
            mine.append(len(keep))
            theirs.append(k)
            p = PFParameter(p.name, merge(p.importance, b.parameters[k].importance))
        elif not extended:
            continue
        keep.append(j)
        params.append(p)

    m, n = a.m[:, keep], a.n[:, keep]
    if theirs:
        m[:, mine] = up(m[:, mine], _gather(b.m, rows, theirs))
        n[:, mine] = down(n[:, mine], _gather(b.n, rows, theirs))
    if extended:
        a_cols = a._lookup()[1]
        extra = [k for k, q in enumerate(b.parameters) if q.name not in a_cols]
        if extra:
            params += [b.parameters[k] for k in extra]
            m = np.hstack([m, _gather(b.m, rows, extra)])
            n = np.hstack([n, _gather(b.n, rows, extra)])
    return PhiSoftSet(a.universe, tuple(params), m, n)


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
    alts = check_ids("alternative id", universe)
    names = check_ids("parameter name", names)
    params = tuple(PFParameter(nm, value) for nm in names)
    shape = (len(alts), len(names))
    return PhiSoftSet(alts, params, np.full(shape, value.m), np.full(shape, value.n))


def null_set(universe: Iterable[str], names: Iterable[str]) -> PhiSoftSet:
    """The relative null set: cells and importances all (0, 1)."""
    return constant_set(universe, names, 0.0, 1.0)


def whole_set(universe: Iterable[str], names: Iterable[str]) -> PhiSoftSet:
    """The relative whole set: cells and importances all (1, 0)."""
    return constant_set(universe, names, 1.0, 0.0)
