"""The array writers produce exactly the bytes of the generic encoders.

`emit_json` writes a document section by section, its "cells" array
straight from a set's arrays and its "measures" row by row, and `emit_csv`
renders its cells from the arrays.  Both are pinned here against the
documents built cell by cell from PFN views: dicts through
`json.dumps(indent=2)`, PFN text through `csv.writer`.
"""

import csv
import hashlib
import json
import re
import subprocess
import sys
import textwrap
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from phisoft import (
    Aggregator,
    CombineRule,
    DecisionConfig,
    OrderKind,
    build,
    decide,
    emit_csv,
    emit_json,
    extended_union,
    parse_csv,
    parse_json,
    pfn_to_text,
)
from phisoft.cli import main
from phisoft.io import IMPORTANCE_ROW_ID
from conftest import (
    EDGE_FLOAT_PFNS,
    TABLE1_CELLS,
    TABLE1_PARAMS,
    TABLE2_CELLS,
    TABLE2_PARAMS,
    UNIVERSE,
)

DEMO = Path(__file__).resolve().parent.parent / "demos" / "data"


def _set_document(softset) -> dict:
    return {
        "universe": list(softset.universe),
        "parameters": [
            {"name": p.name, "importance": {"m": p.importance.m, "n": p.importance.n}}
            for p in softset.parameters
        ],
        "cells": [
            {"alt": alt, "param": name, "m": cell.m, "n": cell.n}
            for alt in softset.universe
            for name, cell in zip(softset.parameter_names, softset.row(alt))
        ],
    }


def _report_document(report) -> dict:
    doc = {
        "config": {
            "combine": report.config.combine.value,
            "aggregator": report.config.aggregator.value,
            "ranking_order": report.config.ranking_order.value,
        }
    }
    doc.update(_set_document(report.combined))
    doc["weights"] = list(report.weights)
    doc["measures"] = [
        {
            "alt": r.alternative,
            "apfdv": {"m": r.apfdv.m, "n": r.apfdv.n},
            "es": r.es,
            "sf": r.sf,
            "af": r.af,
            "rank": r.rank,
        }
        for r in report.rows
    ]
    doc["ranking"] = list(report.ranking())
    return doc


def _generic_json(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _generic_csv(softset) -> bytes:
    lines = [["id", *softset.parameter_names]]
    for alt in softset.universe:
        lines.append([alt, *(pfn_to_text(c) for c in softset.row(alt))])
    lines.append(
        [IMPORTANCE_ROW_ID, *(pfn_to_text(p.importance) for p in softset.parameters)]
    )
    sink = StringIO()
    csv.writer(sink, lineterminator="\n").writerows(lines)
    return sink.getvalue().encode("utf-8")


def _random_pfns(rng, count: int) -> list[tuple[float, float]]:
    out = []
    while len(out) < count:
        m, n = rng.random(2)
        if m * m + n * n <= 1.0:
            out.append((float(m), float(n)))
    return out


def _escaped_pair():
    """Two seeded tables whose ids need JSON escaping and CSV quoting."""
    rng = np.random.default_rng(2024)
    universe = ('q"1', "back\\slash", "café", "Ωmega", "100%", "tab\there")
    names_a = ('dose "high"', "ratio%d", "naïve\\", "plain", "%s%%")
    names_b = ("plain", "ratio%d", "日本", 'x"y')

    def table(names):
        values = iter(_random_pfns(rng, len(names) * (len(universe) + 1)))
        params = [(name, next(values)) for name in names]
        cells = {(alt, name): next(values) for alt in universe for name in names}
        return build(universe, params, cells)

    return table(names_a), table(names_b)


def _paper_pair():
    return (
        build(UNIVERSE, TABLE1_PARAMS, TABLE1_CELLS),
        build(UNIVERSE, TABLE2_PARAMS, TABLE2_CELLS),
    )


def _float_edge_pair():
    """Two seeded 12-alternative tables (3 shared parameters), so that ranks
    take two digits; every edge PFN sits in each column and in the importances."""
    rng = np.random.default_rng(31)
    universe = [f"p{i}" for i in range(12)]

    def table(names):
        m, n = _quarter_disk(rng, len(universe) + 1, len(names))
        for k, (mv, nv) in enumerate(EDGE_FLOAT_PFNS):
            for j in range(len(names)):
                m[(k + j) % len(universe), j], n[(k + j) % len(universe), j] = mv, nv
        for j, k in enumerate((3, 4, 0)):  # importances: 1 - 2**-53, 3e-05 and 0.0 in m
            m[-1, j], n[-1, j] = EDGE_FLOAT_PFNS[k]
        params = [(name, (m[-1, j], n[-1, j])) for j, name in enumerate(names)]
        cells = {
            (alt, name): (m[i, j], n[i, j])
            for i, alt in enumerate(universe)
            for j, name in enumerate(names)
        }
        return build(universe, params, cells)

    return table([f"c{j}" for j in range(6)]), table([f"c{j}" for j in range(3, 9)])


def _single_alternative_pair():
    """Two seeded one-alternative tables with two shared parameters."""
    rng = np.random.default_rng(32)

    def table(names):
        values = iter(_random_pfns(rng, 2 * len(names)))
        params = [(name, next(values)) for name in names]
        return build(["only"], params, {("only", name): next(values) for name in names})

    return table(["s1", "s2", "s3"]), table(["s2", "s3", "s4"])


PAIRS = [
    pytest.param(_paper_pair, id="paper"),
    pytest.param(_escaped_pair, id="escaped"),
    pytest.param(_float_edge_pair, id="float-edges"),
    pytest.param(_single_alternative_pair, id="single-alternative"),
]


@pytest.mark.parametrize("pair", PAIRS)
def test_set_json_matches_the_generic_encoder(pair):
    a, b = pair()
    for softset in (a, b, extended_union(a, b)):
        assert emit_json(softset) == _generic_json(_set_document(softset))


@pytest.mark.parametrize("pair", PAIRS)
def test_report_json_matches_the_generic_encoder(pair):
    a, b = pair()
    for rule in CombineRule:
        for aggregator in Aggregator:
            report = decide(a, b, DecisionConfig(combine=rule, aggregator=aggregator))
            assert emit_json(report) == _generic_json(_report_document(report))


@pytest.mark.parametrize("pair", PAIRS)
def test_csv_matches_the_generic_writer(pair):
    a, b = pair()
    for softset in (a, b, extended_union(a, b)):
        assert emit_csv(softset) == _generic_csv(softset)


@pytest.mark.parametrize("pair", PAIRS)
def test_writers_round_trip_bit_for_bit(pair):
    for softset in pair():
        for back in (parse_json(emit_json(softset)), parse_csv(emit_csv(softset))):
            assert back.universe == softset.universe
            assert back.parameters == softset.parameters
            assert np.array_equal(back.m, softset.m) and np.array_equal(back.n, softset.n)


def test_a_set_without_cells_matches_the_generic_encoder():
    empty = build(["p1", "p2"], [], {})
    assert emit_json(empty) == _generic_json(_set_document(empty))
    assert b'"cells": []' in emit_json(empty)


def test_cli_decide_bytes_are_pinned(tmp_path, capsys):
    """The paper run's stdout and JSON report, byte for byte (sha256)."""
    report = tmp_path / "report.json"
    argv = ["decide", str(DEMO / "table1.csv"), str(DEMO / "table2.csv"), "--json", str(report)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == (
        "56abfdc79c8cb56384140e3b8dfe9f7336e14e89b6fcd130d80233a90d0befb6"
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "ac6fb09c31de2edf379fc04c83eb08995f0714ba1cf4e968bfb1dbbfd48dbebc"
    )


def test_the_ci_workflows_tall_report_pin_holds(tmp_path, capsys):
    """CI's console-script step writes a 40-row table with an inline Python
    snippet, decides it against itself, and checks the JSON report's sha256.
    Both the snippet and the pin are read from the workflow file, so a change
    that moves those bytes fails here too."""
    workflow = (DEMO.parent.parent / ".github" / "workflows" / "ci.yml").read_text("utf-8")
    pin = re.search(r'echo "([0-9a-f]{64})  tall\.json" \| sha256sum -c -', workflow)
    snippet = re.search(r"python -c '\n(.*?)\n *'\n", workflow, re.S)
    assert pin and snippet, "the workflow no longer writes and pins tall.json"
    subprocess.run([sys.executable, "-c", textwrap.dedent(snippet[1])], cwd=tmp_path, check=True)
    table, report = tmp_path / "tall.csv", tmp_path / "tall.json"
    assert main(["decide", str(table), str(table), "--json", str(report)]) == 0
    ranking = " > ".join(f"r{i}" for i in range(39, -1, -1))
    assert f"ranking: {ranking}\n" in capsys.readouterr().out
    assert hashlib.sha256(report.read_bytes()).hexdigest() == pin[1]


def _quarter_disk(rng, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (m, n) arrays of the given shape, uniform on the quarter disk."""
    pairs = np.empty((0, 2))
    while len(pairs) < rows * cols:
        batch = rng.random((2 * rows * cols, 2))
        pairs = np.vstack([pairs, batch[(batch**2).sum(axis=1) <= 1.0]])
    pairs = pairs[: rows * cols].reshape(rows, cols, 2)
    return pairs[..., 0], pairs[..., 1]


def _edge_pair():
    """A seeded 200 x 12 pair (8 shared parameters) with every aggregation edge.

    Both experts agree on the planted entries, so each survives every rule:
    a (0, 1) importance (weight 0) on a shared and an unshared parameter, an
    all-(0, 1) row, saturated (1, 0) and n = 0 cells in weighted and in
    zero-weight columns, and an all-m = 0 row.
    """
    rng = np.random.default_rng(6)
    universe = [f"p{i}" for i in range(200)]
    shared = [f"s{j}" for j in range(8)]

    def table(own: str):
        names = shared + [f"{own}{j}" for j in range(4)]
        names = [names[k] for k in rng.permutation(len(names))]
        col = {name: j for j, name in enumerate(names)}
        m, n = _quarter_disk(rng, len(universe) + 1, len(names))
        planted = [
            (-1, "s0", (0.0, 1.0)), (-1, f"{own}0", (0.0, 1.0)),
            (0, slice(None), (0.0, 1.0)), (1, slice(None), (0.0, 0.5)),
            *((i, "s1", (1.0, 0.0)) for i in range(2, 7)),
            (7, "s0", (1.0, 0.0)), (8, f"{own}0", (1.0, 0.0)),
            *((i, "s2", (0.6, 0.0)) for i in range(9, 13)),
            (13, "s0", (0.3, 0.0)), (14, f"{own}1", (1.0, 0.0)),
            (15, "s3", (1.0, 0.0) if own == "a" else (0.2, 0.7)),
            (16, f"{own}2", (0.8, 0.0)),
        ]
        for i, name, (mv, nv) in planted:
            j = name if isinstance(name, slice) else col[name]
            m[i, j], n[i, j] = mv, nv
        params = [(name, (m[-1, j], n[-1, j])) for j, name in enumerate(names)]
        cells = {
            (alt, name): (m[i, j], n[i, j])
            for i, alt in enumerate(universe)
            for j, name in enumerate(names)
        }
        return build(universe, params, cells)

    return table("a"), table("b")


#: sha256 of `emit_json(decide(a, b, config))`, per input and (rule, aggregator, order).
REPORT_SHA256 = {
    "paper": {
        "eunion geometric sfaf":
            "9ad54b29aaa0ea330b0bc4a92409bf71e094f0698be0ec12db3f0f674f8f33a7",
        "eunion geometric m":
            "378e8b5958dd6e76a6a8c05b09088bb6e2a6c33d5c879d057b139fa1f31bcb50",
        "eunion geometric es":
            "f30afb90e68709624074c9a2ac76eed152e41294f85679e17290f68396213912",
        "eunion linear sfaf":
            "95341245e331cdf7e83c9f4a6860c604552b6ecc7ad7083a7a71fd9856cff588",
        "eunion linear m":
            "8538f7e834b343d3a593662d44e8b43b9aaec6c44313ff52f8e939dcf9311c0a",
        "eunion linear es":
            "b7067467e1a99e7781094d80d81830a7991b4b951c424942498f5bb062a5cae0",
        "eintersect geometric sfaf":
            "f218ece04a402fd3d43cb87c975dff4659e5a0bd13e516ba0e288899ae70e381",
        "eintersect geometric m":
            "3c019780994e947da7aff97692e036d3c577afb42ba72312ee2f77d0d7edd0e3",
        "eintersect geometric es":
            "ac6fb09c31de2edf379fc04c83eb08995f0714ba1cf4e968bfb1dbbfd48dbebc",
        "eintersect linear sfaf":
            "b1a9c9456fdb57429c9128a90fe489ea31b58c807b0683c1b5100b0d0418b590",
        "eintersect linear m":
            "b9182d44ddef7cdb4c42208593b0070f654f7ab949fe6f0ad5b004ea7d189f23",
        "eintersect linear es":
            "8e3a0261a445b3f6ffd2534bb13804bd7786fe02f131835883b82637f742fec6",
        "runion geometric sfaf":
            "ad6adea22c17692e0cad8d31fa8a8dea176a67abcc0dee97c2ca66f59ebb326b",
        "runion geometric m":
            "e04c3668d756963a11621ad44d73c5312770c05cc3fa23a80ad5aa31f93da4c6",
        "runion geometric es":
            "a3be21ba4afe09c70fb23c496882e61e1408bffb34929e84da26fe4b4a7b032e",
        "runion linear sfaf":
            "e942637625b502b74fb4f6b9c922c78332e306e72e997bec6e7c9a72a22df818",
        "runion linear m":
            "cb4299b08f992ac8b649f76fc0d0a3705fbd4e7daa6b2ba5e4f14d69353d7dd1",
        "runion linear es":
            "928c29378841d7a3dd4fc9cff6cbb30380c9b65285d5657a9b74f942cbb8b225",
        "rintersect geometric sfaf":
            "fa9bc53dac913ba058799b83e881f8dde10b060199e4aa04b0f0967eca30dd64",
        "rintersect geometric m":
            "b144cb67a3bc8f53791b9ef1eab0e1539faa74bfe726d91506bb852b436f824c",
        "rintersect geometric es":
            "d80aa68fcfa9461db7343952fda758bed4d952beba1e45573a0fe4e543149335",
        "rintersect linear sfaf":
            "a91148a799cadaf2eab1546f3ef15a5f16221b19f56853179124b608078bb037",
        "rintersect linear m":
            "ec6c77363b2c8e3002f79faadfa407874b4a8622af664d731e7740216c92c8b4",
        "rintersect linear es":
            "851627f553d28d4924970d0745d0ba5c785b1e7e7e2dcbb075cca895c19698c8",
    },
    "edge": {
        "eunion geometric sfaf":
            "c0313de9a19fae3b4f2f8300cc49fe60e36ebdc777e6cfa6575072476c3d8156",
        "eunion geometric m":
            "104b7decd58f19c71503ade01555c380e6f589b2613a5dbc80efb5f2c054d6a9",
        "eunion geometric es":
            "defdfc40ecffff5e44cd08de8c2f610495d4de46ff5c20dda7a5034200cc63bd",
        "eunion linear sfaf":
            "23a9c2553891f641005bb7e496a5cf48012c50170d438b85f2135c941fe6f646",
        "eunion linear m":
            "8a8a3d87987ddb6f31d84b2462b8a4757afa2108a8babc1efeac351591b4e01c",
        "eunion linear es":
            "24b28de60755ab47951fe8c9c9c82d4fbe8e9225bd092ed13434f31cca914805",
        "eintersect geometric sfaf":
            "670f9c2823069507329434e533e49dce7b6fdc346db4948d6009bfadd1a1726a",
        "eintersect geometric m":
            "a19efa4f0a6d35247dc6e75713bc43f3f65db7b4433e5aab3f48832bec24659d",
        "eintersect geometric es":
            "072ed9537deceaccc497b2b2804d3a7a18c3036561fc414dda71148cb5dcb1cf",
        "eintersect linear sfaf":
            "21ed78a9fed9583d2c06f9173e26ec874b0a02874bc55c1bed4dd79b59679a75",
        "eintersect linear m":
            "51ee4061b4c4aeb40ecbc38fc84992510db6e505b5b7c1d1f5f24e20bd843dc0",
        "eintersect linear es":
            "03833769aabde1cf7e5e84094e18cea0f982ad153fa0789951906fc4883e70fb",
        "runion geometric sfaf":
            "7ff3eb3b8cbb19fd6e99b3885d016c09a39a03fbcd91029a5df4bc470c979ebe",
        "runion geometric m":
            "97e979372e9f8b2f0cd29d75b78bd69d9cf0c4387ebf020495be8af414cdd86a",
        "runion geometric es":
            "9fde3814108ee4d23e7aa4e36c1fdb51b43b50740adcec0c6f89ea9cc85fb64a",
        "runion linear sfaf":
            "3506a0fddee24f97fe30b61d261dafaee36fceb1b3c06f5cfa04b919c747eeeb",
        "runion linear m":
            "084200db1cf34cb51974422a2f0f150020b338f530cee710b35377e944c1a2d2",
        "runion linear es":
            "39c15d518525de7b6d4e0c6b77def91a7c9bba98db2cc0749119e70eb3533886",
        "rintersect geometric sfaf":
            "6b45ca11ade7cdbe6c0e31db9d773e126bd42cb5177abfd1bf0175027ab79160",
        "rintersect geometric m":
            "db11056000bb74b57a3fefc7f287d26b39bcb40ec194b6d994decd75be0bc37e",
        "rintersect geometric es":
            "47c6c1dd61aef346297675530535ab9eee99ed036584f1bcfcfdd6061137f6cb",
        "rintersect linear sfaf":
            "535e48da04836b7dc838c36b80732c740ddc05503fb84509812afbe1e8bba881",
        "rintersect linear m":
            "38bd5f94513e3753ea4efdb10d3512806d103fb42c605fce33bb86a51c44e0aa",
        "rintersect linear es":
            "ea57e28ce52ad67ce5af1873421dc4bf32f82ee11365e4b1956bda846cba9eff",
    },
}


@pytest.mark.parametrize("name, pair", [("paper", _paper_pair), ("edge", _edge_pair)])
def test_every_report_configuration_is_pinned(name, pair):
    """All 4 rules x 2 aggregators x 3 orders write the pinned report bytes."""
    a, b = pair()
    got = {}
    for rule in CombineRule:
        for aggregator in Aggregator:
            for order in (o for o in OrderKind if o is not OrderKind.LATTICE):
                report = decide(a, b, DecisionConfig(rule, aggregator, order))
                key = f"{rule.value} {aggregator.value} {order.value}"
                got[key] = hashlib.sha256(emit_json(report)).hexdigest()
    assert got == REPORT_SHA256[name]
