"""Shared fixtures: the worked medical-diagnosis tables and their goldens."""

import gc

import pytest

from phisoft import build

# Expert 1: four patients, symptoms s1/s3/s5/s6, importance row last.
TABLE1_PARAMS = [
    ("s1", (0.5, 0.4)),
    ("s3", (0.7, 0.2)),
    ("s5", (0.3, 0.6)),
    ("s6", (0.6, 0.3)),
]
TABLE1_CELLS = {
    ("p1", "s1"): (0.7, 0.7), ("p1", "s3"): (0.6, 0.6), ("p1", "s5"): (0.8, 0.6), ("p1", "s6"): (0.4, 0.7),
    ("p2", "s1"): (0.5, 0.6), ("p2", "s3"): (0.4, 0.5), ("p2", "s5"): (0.8, 0.3), ("p2", "s6"): (0.5, 0.6),
    ("p3", "s1"): (0.5, 0.4), ("p3", "s3"): (0.9, 0.2), ("p3", "s5"): (0.6, 0.4), ("p3", "s6"): (0.6, 0.5),
    ("p4", "s1"): (0.7, 0.5), ("p4", "s3"): (0.6, 0.2), ("p4", "s5"): (0.5, 0.4), ("p4", "s6"): (0.8, 0.4),
}

# Expert 2: same patients, symptoms s2/s3/s5/s6.
TABLE2_PARAMS = [
    ("s2", (0.1, 0.6)),
    ("s3", (0.7, 0.2)),
    ("s5", (0.4, 0.5)),
    ("s6", (0.6, 0.3)),
]
TABLE2_CELLS = {
    ("p1", "s2"): (0.6, 0.6), ("p1", "s3"): (0.4, 0.2), ("p1", "s5"): (0.6, 0.4), ("p1", "s6"): (0.1, 0.5),
    ("p2", "s2"): (0.1, 0.7), ("p2", "s3"): (0.3, 0.5), ("p2", "s5"): (0.5, 0.1), ("p2", "s6"): (0.2, 0.5),
    ("p3", "s2"): (0.3, 0.4), ("p3", "s3"): (0.7, 0.4), ("p3", "s5"): (0.2, 0.5), ("p3", "s6"): (0.4, 0.2),
    ("p4", "s2"): (0.5, 0.4), ("p4", "s3"): (0.5, 0.2), ("p4", "s5"): (0.6, 0.4), ("p4", "s6"): (0.5, 0.5),
}

UNIVERSE = ("p1", "p2", "p3", "p4")

# Worked extended-union cells.  The source's own list prints (0.8, 0.5) at
# (p4, s6), but the componentwise join of the published inputs is
# (0.8, 0.4); every other cell matches the join rule.  The golden below
# carries the computed value; the anomaly is asserted separately.
UNION_GOLDEN = {
    ("p1", "s1"): (0.7, 0.7), ("p2", "s1"): (0.5, 0.6), ("p3", "s1"): (0.5, 0.4), ("p4", "s1"): (0.7, 0.5),
    ("p1", "s2"): (0.6, 0.6), ("p2", "s2"): (0.1, 0.7), ("p3", "s2"): (0.3, 0.4), ("p4", "s2"): (0.5, 0.4),
    ("p1", "s3"): (0.6, 0.2), ("p2", "s3"): (0.4, 0.5), ("p3", "s3"): (0.9, 0.2), ("p4", "s3"): (0.6, 0.2),
    ("p1", "s5"): (0.8, 0.4), ("p2", "s5"): (0.8, 0.1), ("p3", "s5"): (0.6, 0.4), ("p4", "s5"): (0.6, 0.4),
    ("p1", "s6"): (0.4, 0.5), ("p2", "s6"): (0.5, 0.5), ("p3", "s6"): (0.6, 0.2), ("p4", "s6"): (0.8, 0.4),
}
UNION_IMPORTANCES = {
    "s1": (0.5, 0.4), "s2": (0.1, 0.6), "s3": (0.7, 0.2), "s5": (0.4, 0.5), "s6": (0.6, 0.3),
}
WORKED_LIST_UNION_P4_S6 = (0.8, 0.5)  # as printed; join gives (0.8, 0.4)

# Worked extended-intersection cells; all 20 match the componentwise meet.
INTERSECTION_GOLDEN = {
    ("p1", "s1"): (0.7, 0.7), ("p2", "s1"): (0.5, 0.6), ("p3", "s1"): (0.5, 0.4), ("p4", "s1"): (0.7, 0.5),
    ("p1", "s2"): (0.6, 0.6), ("p2", "s2"): (0.1, 0.7), ("p3", "s2"): (0.3, 0.4), ("p4", "s2"): (0.5, 0.4),
    ("p1", "s3"): (0.4, 0.6), ("p2", "s3"): (0.3, 0.5), ("p3", "s3"): (0.7, 0.4), ("p4", "s3"): (0.5, 0.2),
    ("p1", "s5"): (0.6, 0.6), ("p2", "s5"): (0.5, 0.3), ("p3", "s5"): (0.2, 0.5), ("p4", "s5"): (0.5, 0.4),
    ("p1", "s6"): (0.1, 0.7), ("p2", "s6"): (0.2, 0.6), ("p3", "s6"): (0.4, 0.5), ("p4", "s6"): (0.5, 0.5),
}
INTERSECTION_IMPORTANCES = {
    "s1": (0.5, 0.4), "s2": (0.1, 0.6), "s3": (0.7, 0.2), "s5": (0.3, 0.6), "s6": (0.6, 0.3),
}

# Cells where the published summary tables disagree with the worked lists
# (and with the combination rules): {(alt, name): value as printed}.
PRINTED_TABLE_DIVERGENCES = {
    "extended union table (p3, s3)": (("p3", "s3"), (0.9, 0.4)),
    "restricted union table (p4, s5)": (("p4", "s5"), (0.4, 0.5)),
    "restricted union table (p4, s6)": (("p4", "s6"), (0.6, 0.3)),
}

RESTRICTED_NAMES = ("s3", "s5", "s6")

TABLE1_CSV = """\
id,s1,s3,s5,s6
p1,"0.7,0.7","0.6,0.6","0.8,0.6","0.4,0.7"
p2,"0.5,0.6","0.4,0.5","0.8,0.3","0.5,0.6"
p3,"0.5,0.4","0.9,0.2","0.6,0.4","0.6,0.5"
p4,"0.7,0.5","0.6,0.2","0.5,0.4","0.8,0.4"
__f__,"0.5,0.4","0.7,0.2","0.3,0.6","0.6,0.3"
"""

TABLE2_CSV = """\
id,s2,s3,s5,s6
p1,"0.6,0.6","0.4,0.2","0.6,0.4","0.1,0.5"
p2,"0.1,0.7","0.3,0.5","0.5,0.1","0.2,0.5"
p3,"0.3,0.4","0.7,0.4","0.2,0.5","0.4,0.2"
p4,"0.5,0.4","0.5,0.2","0.6,0.4","0.5,0.5"
__f__,"0.1,0.6","0.7,0.2","0.4,0.5","0.6,0.3"
"""

#: (m, n) PFNs whose components are edges of float text: the ends of [0, 1],
#: the smallest subnormal, the largest double below 1, and values under 1e-4,
#: whose repr takes exponent form.
EDGE_FLOAT_PFNS = (
    (0.0, 1.0), (1.0, 0.0), (5e-324, 1.0 - 2**-53), (1.0 - 2**-53, 5e-324),
    (3e-05, 0.5), (0.5, 7.5e-06), (1.2345678901234567e-07, 0.0), (9.99e-05, 1e-300),
)

# A well-formed set document with no alternatives, which no soft set may have.
EMPTY_UNIVERSE_JSON = """\
{"universe": [], "parameters": [{"name": "c", "importance": {"m": 0.5, "n": 0.4}}], "cells": []}
"""


def collections_started(call):
    """The generation of each cyclic collection that starts during `call()`,
    under CPython's default thresholds (700, 10, 10)."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    return started


@pytest.fixture
def table1():
    return build(UNIVERSE, TABLE1_PARAMS, TABLE1_CELLS)


@pytest.fixture
def table2():
    return build(UNIVERSE, TABLE2_PARAMS, TABLE2_CELLS)


@pytest.fixture
def table_files(tmp_path):
    a = tmp_path / "table1.csv"
    b = tmp_path / "table2.csv"
    a.write_text(TABLE1_CSV)
    b.write_text(TABLE2_CSV)
    return a, b
