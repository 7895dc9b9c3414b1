"""Independent numpy recomputation of what the program reports.

Nothing here imports phisoft: the combination, the expectation-score
weights and both aggregated decision values (APFDVs) are recomputed in
closed form from the generator's arrays, and the program's rankings are
checked against the recomputed keys.
"""

from __future__ import annotations

import numpy as np

from gen import Table

#: Largest allowed |program - reference| on each APFDV component.
APFDV_TOL = 1e-12
#: phisoft.pfn.COMPARE_EPS, restated so the check does not trust the program.
COMPARE_EPS = 1e-12
# With both components within APFDV_TOL, a ranking key (at worst the score
# m^2 - n^2) is within 4 * APFDV_TOL of the reference, so a pair the program
# ordered within COMPARE_EPS may look inverted here by up to 8 * APFDV_TOL more.
RANK_TOL = COMPARE_EPS + 8 * APFDV_TOL

#: Combine rule token -> (union, extended), as in the paper's four operators.
RULES = {
    "eunion": (True, True),
    "eintersect": (False, True),
    "runion": (True, False),
    "rintersect": (False, False),
}
AGGREGATORS = ("geometric", "linear")
ORDERS = ("es", "m", "sfaf")

PAPER_RANKING = ("p4", "p3", "p1", "p2")
#: The paper decides p1 over p2 by about 0.001 of expectation score.
PAPER_P1_P2_MARGIN = (5e-4, 2e-3)


def combine(a: Table, b: Table, rule: str) -> Table:
    """Shared parameters meet (intersection) or join (union) column-wise;
    extended rules keep the unshared ones, a's first, each in its table's order."""
    union, extended = RULES[rule]
    up, down = (np.maximum, np.minimum) if union else (np.minimum, np.maximum)
    col_b = {name: k for k, name in enumerate(b.names)}
    names, cols = [], []
    for j, name in enumerate(a.names):
        k = col_b.get(name)
        if k is not None:
            names.append(name)
            cols.append((up(a.m[:, j], b.m[:, k]), down(a.n[:, j], b.n[:, k]),
                         up(a.imp_m[j], b.imp_m[k]), down(a.imp_n[j], b.imp_n[k])))
        elif extended:
            names.append(name)
            cols.append((a.m[:, j], a.n[:, j], a.imp_m[j], a.imp_n[j]))
    if extended:
        shared = set(a.names)
        for k, name in enumerate(b.names):
            if name not in shared:
                names.append(name)
                cols.append((b.m[:, k], b.n[:, k], b.imp_m[k], b.imp_n[k]))
    m, n, imp_m, imp_n = zip(*cols)
    return Table(a.alts, tuple(names), np.column_stack(m), np.column_stack(n),
                 np.array(imp_m), np.array(imp_n))


def combined_faults(names, m, n, ref: Table) -> list[str]:
    """The program's combined set must equal the column-wise meet/join exactly."""
    if tuple(names) != ref.names:
        return [f"combined parameters {list(names)[:4]}... differ from {list(ref.names)[:4]}..."]
    if not (np.array_equal(m, ref.m) and np.array_equal(n, ref.n)):
        return ["combined cells differ from the reference meet/join"]
    return []


def weights(table: Table) -> np.ndarray:
    es = (table.imp_m**2 - table.imp_n**2 + 1.0) / 2.0
    return es / es.sum()


def apfdv(table: Table, aggregator: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-alternative (m, n) of the weighted average; zero weights drop out."""
    w = weights(table)
    if aggregator == "linear":
        return table.m @ w, table.n @ w
    live = w > 0
    sq = np.minimum(table.m**2, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_terms = np.where(live & (sq < 1.0), w * np.log1p(-sq), 0.0)
        n_terms = np.where(live & (table.n > 0.0), w * np.log(table.n), 0.0)
    m = np.sqrt(-np.expm1(m_terms.sum(axis=1)))
    n = np.exp(n_terms.sum(axis=1))
    m = np.where((live & (sq >= 1.0)).any(axis=1), 1.0, m)
    n = np.where((live & (table.n == 0.0)).any(axis=1), 0.0, n)
    return m, n


def expectation_score(m, n):
    return (m * m - n * n + 1.0) / 2.0


def _primary_key(m, n, order: str):
    if order == "m":
        return m
    if order == "sfaf":
        return m * m - n * n
    return expectation_score(m, n)


def report_faults(rows, ranking, table: Table, aggregator: str, order: str) -> list[str]:
    """Every way the program's answer disagrees with the recomputation.

    `rows` are (alt, m, n, es, rank) in universe order; `ranking` lists the
    alternatives from rank 1 down.
    """
    faults = []
    alts = [r[0] for r in rows]
    if tuple(alts) != table.alts:
        return [f"report universe {alts[:3]}... is not the input universe"]
    ref_m, ref_n = apfdv(table, aggregator)
    got = np.array([r[1:4] for r in rows], dtype=float)
    for label, ours, theirs in (("apfdv m", ref_m, got[:, 0]), ("apfdv n", ref_n, got[:, 1]),
                                ("es", expectation_score(ref_m, ref_n), got[:, 2])):
        off = np.abs(ours - theirs)
        if not (off <= APFDV_TOL).all():
            i = int(np.argmax(off))
            faults.append(f"{label} of {alts[i]}: program {float(theirs[i])!r}, "
                          f"reference {float(ours[i])!r}")
    if sorted(ranking) != sorted(alts):
        return faults + ["ranking is not a permutation of the universe"]
    position = {alt: i for i, alt in enumerate(alts)}
    order_idx = np.array([position[alt] for alt in ranking])
    key = _primary_key(ref_m, ref_n, order)[order_idx]
    rises = np.flatnonzero(key[1:] - key[:-1] > RANK_TOL)
    if rises.size:
        i = int(rises[0])
        faults.append(f"{order} key rises from {ranking[i]} to {ranking[i + 1]}")
    ranks = {r[0]: r[4] for r in rows}
    if [ranks[alt] for alt in ranking] != list(range(1, len(ranking) + 1)):
        faults.append("row ranks disagree with the ranking")
    return faults


def paper_faults(ranking, es_by_alt: dict[str, float]) -> list[str]:
    faults = []
    if tuple(ranking) != PAPER_RANKING:
        faults.append(f"paper ranking {' > '.join(ranking)}, expected p4 > p3 > p1 > p2")
    margin = es_by_alt["p1"] - es_by_alt["p2"]
    low, high = PAPER_P1_P2_MARGIN
    if not low < margin < high:
        faults.append(f"paper p1/p2 ES margin {margin!r} is not about 0.001")
    return faults
