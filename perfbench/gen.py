"""Seeded synthetic expert tables, kept as plain numpy arrays.

The program under test never sees the generator: it receives either the
files written here or soft sets built from these arrays.  Floats are
written with `repr`, so every parser reads back the exact float64 values
the reference computation uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Table:
    """One expert table: cells (m, n) of shape A x P plus importances."""

    alts: tuple[str, ...]
    names: tuple[str, ...]
    m: np.ndarray
    n: np.ndarray
    imp_m: np.ndarray
    imp_n: np.ndarray

    @property
    def cells(self) -> int:
        return self.m.size


def sample_pfns(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` points uniform on the quarter disk m, n >= 0, m^2 + n^2 <= 1."""
    out = np.empty((0, 2))
    while len(out) < count:
        batch = rng.random((2 * (count - len(out)) + 16, 2))
        out = np.vstack([out, batch[(batch**2).sum(axis=1) <= 1.0]])
    return out[:count]


def _table(rng, alts, names) -> Table:
    cells = sample_pfns(rng, len(alts) * len(names)).reshape(len(alts), len(names), 2)
    imp = sample_pfns(rng, len(names))
    return Table(tuple(alts), tuple(names), cells[..., 0], cells[..., 1],
                 imp[:, 0], imp[:, 1])


def make_pair(rng, alts: int, params_a: int, params_b: int, shared: int):
    """Two tables over one universe; `shared` parameter names appear in both.

    Each table lists its parameters in its own random order, so combination
    has to align columns by name.
    """
    ids = [f"p{i}" for i in range(alts)]
    common = [f"s{j}" for j in range(shared)]
    names_a = common + [f"a{j}" for j in range(params_a - shared)]
    names_b = common + [f"b{j}" for j in range(params_b - shared)]
    names_a = [names_a[i] for i in rng.permutation(params_a)]
    names_b = [names_b[i] for i in rng.permutation(params_b)]
    return _table(rng, ids, names_a), _table(rng, ids, names_b)


def make_single(rng, alts: int, params: int) -> Table:
    return _table(rng, [f"p{i}" for i in range(alts)], [f"c{j}" for j in range(params)])


def write_csv(table: Table, path: Path) -> None:
    lines = [",".join(["id", *table.names])]
    for i, alt in enumerate(table.alts):
        row = (f'"{m!r},{n!r}"' for m, n in zip(table.m[i].tolist(), table.n[i].tolist()))
        lines.append(",".join([alt, *row]))
    imp = (f'"{m!r},{n!r}"' for m, n in zip(table.imp_m.tolist(), table.imp_n.tolist()))
    lines.append(",".join(["__f__", *imp]))
    path.write_text("\n".join(lines) + "\n")


def write_json(table: Table, path: Path) -> None:
    doc = {
        "universe": list(table.alts),
        "parameters": [
            {"name": name, "importance": {"m": m, "n": n}}
            for name, m, n in zip(table.names, table.imp_m.tolist(), table.imp_n.tolist())
        ],
        "cells": [
            {"alt": alt, "param": name, "m": m, "n": n}
            for i, alt in enumerate(table.alts)
            for name, m, n in zip(table.names, table.m[i].tolist(), table.n[i].tolist())
        ],
    }
    path.write_text(json.dumps(doc))


def read_csv(path: Path) -> Table:
    """Read the paper's `id,<params>` / `"m,n"` / `__f__` CSV without phisoft."""
    rows = [line.split(",") for line in path.read_text().split("\n") if line.strip()]
    if rows[0][0] != "id" or rows[-1][0] != "__f__":
        raise ValueError(f"{path}: expected an id header and a final __f__ row")
    names = rows[0][1:]

    def pairs(fields):
        vals = [float(f.strip('"')) for f in fields]
        return np.array(vals[0::2]), np.array(vals[1::2])

    alts, ms, ns = [], [], []
    for fields in rows[1:-1]:
        alts.append(fields[0])
        m, n = pairs(fields[1:])
        ms.append(m)
        ns.append(n)
    imp_m, imp_n = pairs(rows[-1][1:])
    return Table(tuple(alts), tuple(names), np.array(ms), np.array(ns), imp_m, imp_n)
