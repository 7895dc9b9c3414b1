"""The array writers produce exactly the bytes of the generic encoders.

`emit_json` writes the "cells" array straight from a set's arrays, and
`emit_csv` renders its cells from them.  Both are pinned here against the
documents built cell by cell from PFN views: dicts through
`json.dumps(indent=2)`, PFN text through `csv.writer`.
"""

import csv
import hashlib
import json
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from phisoft import (
    Aggregator,
    CombineRule,
    DecisionConfig,
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
from conftest import TABLE1_CELLS, TABLE1_PARAMS, TABLE2_CELLS, TABLE2_PARAMS, UNIVERSE

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


PAIRS = [pytest.param(_paper_pair, id="paper"), pytest.param(_escaped_pair, id="escaped")]


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
