"""CSV/JSON parsing, emission, and round-trip stability."""

import copy
import gc
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from phisoft import (
    PFN,
    build,
    decide,
    emit_csv,
    emit_json,
    equals,
    parse_csv,
    parse_json,
)
from phisoft.errors import (
    DuplicateId,
    EmptyUniverse,
    InvalidId,
    InvalidPFN,
    MissingCell,
    ParseError,
    PhiSoftError,
)
from conftest import (
    EDGE_FLOAT_PFNS,
    EMPTY_UNIVERSE_JSON,
    TABLE1_CSV,
    TABLE2_CSV,
    UNIVERSE,
    collections_started,
)


class TestParseCsv:
    def test_parses_the_worked_table(self, table1):
        got = parse_csv(TABLE1_CSV)
        assert equals(got, table1)
        assert got.universe == UNIVERSE
        assert got.parameter_names == ("s1", "s3", "s5", "s6")

    def test_accepts_bytes(self, table1):
        assert equals(parse_csv(TABLE1_CSV.encode()), table1)

    def test_parenthesized_unquoted_cells(self, table1):
        text = TABLE1_CSV.replace('"0.7,0.7"', "(0.7,0.7)").replace(
            '"0.5,0.4"', "(0.5, 0.4)"
        )
        assert equals(parse_csv(text), table1)

    def test_whitespace_around_numbers(self):
        text = 'id,s1\np1," 0.5 , 0.4 "\n__f__,"0.5,0.4"\n'
        got = parse_csv(text)
        assert got.cell("p1", "s1") == PFN(0.5, 0.4)

    @pytest.mark.parametrize("line", [2, 4])
    def test_a_field_over_the_csv_limit_is_located(self, line):
        rows = ['p1,"0.5,0.4"', 'p2,"0.5,0.4"', 'p3,"0.5,0.4"']
        rows[line - 2] = f'p{line - 1},"{"0" * 140_000}"'
        text = "\n".join(["id,s1", *rows, '__f__,"0.5,0.4"']) + "\n"
        with pytest.raises(ParseError) as raised:
            parse_csv(text)
        assert str(raised.value) == f"line {line}: field larger than field limit (131072)"
        assert raised.value.line == line

    def test_header_only_fails(self):
        with pytest.raises(ParseError, match="no alternatives"):
            parse_csv("id,s1\n")
        with pytest.raises(ParseError, match="no alternatives"):
            parse_csv('id,s1\n__f__,"0.5,0.4"\n')

    def test_missing_importance_row_fails(self):
        with pytest.raises(ParseError, match="__f__"):
            parse_csv('id,s1\np1,"0.5,0.4"\n')

    def test_rows_after_the_importance_row_fail(self):
        with pytest.raises(ParseError, match="after"):
            parse_csv('id,s1\n__f__,"0.5,0.4"\np1,"0.5,0.4"\n')

    def test_invalid_cell_carries_coordinates(self):
        text = TABLE1_CSV.replace('"0.9,0.2"', '"0.9,0.9"')
        with pytest.raises(InvalidPFN, match=r"\(p3, s3\)"):
            parse_csv(text)

    def test_invalid_importance_carries_line(self):
        text = TABLE1_CSV.replace('__f__,"0.5,0.4"', '__f__,"0.5,1.4"')
        with pytest.raises(InvalidPFN, match=r"importance of 's1' at line 6"):
            parse_csv(text)

    def test_malformed_cell_carries_line(self):
        text = 'id,s1\np1,"0.5;0.4"\n__f__,"0.5,0.4"\n'
        with pytest.raises(ParseError, match="line 2"):
            parse_csv(text)

    def test_wrong_cell_count(self):
        with pytest.raises(ParseError, match="expected 2 cells"):
            parse_csv('id,s1,s2\np1,"0.5,0.4"\n__f__,"0.5,0.4","0.5,0.4"\n')

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_csv('name,s1\np1,"0.5,0.4"\n')

    def test_duplicate_row_ids_fail(self):
        text = 'id,s1\np1,"0.5,0.4"\np1,"0.5,0.4"\n__f__,"0.5,0.4"\n'
        with pytest.raises(DuplicateId):
            parse_csv(text)

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_csv("")

    @pytest.mark.parametrize(
        "row", ["p2,(0.5,0.4,(0.5,0.4", "p2,(0.5,0.4),(0.5,0.4", 'p2,"0.5,0.4",( 0.5']
    )
    def test_unclosed_parenthesis_names_the_line(self, row):
        text = f'id,s1,s2\np1,(0.5,0.4),"0.5,0.4"\n{row}\n__f__,"0.5,0.4","0.5,0.4"\n'
        with pytest.raises(ParseError, match=r"^line 3: unclosed '\(' in cell$"):
            parse_csv(text)


class TestEmitCsv:
    def test_round_trip(self, table1):
        assert equals(parse_csv(emit_csv(table1)), table1)

    def test_round_trip_without_parameters(self):
        softset = build(["p1"], [], {})
        data = emit_csv(softset)
        back = parse_csv(data)
        assert back.universe == ("p1",)
        assert back.parameters == ()
        assert emit_csv(back) == data

    def test_deterministic(self, table1):
        assert emit_csv(table1) == emit_csv(table1)

    def test_rows_are_streamed(self):
        """Only one row's text exists besides the output: a writer that
        holds every cell's text first peaks at about 4.4 times the output."""
        softset = parse_json(_tall_table_json(seed=13))
        gc.collect()
        tracemalloc.start()
        try:
            data = emit_csv(softset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(data)


class TestJson:
    def test_round_trip(self, table2):
        assert equals(parse_json(emit_json(table2)), table2)

    def test_emit_parse_identity_bytes(self, table2):
        once = emit_json(parse_json(emit_json(table2)))
        assert once == emit_json(table2)

    def test_document_shape(self, table1):
        doc = json.loads(emit_json(table1))
        assert doc["universe"] == list(UNIVERSE)
        assert doc["parameters"][0] == {
            "name": "s1",
            "importance": {"m": 0.5, "n": 0.4},
        }
        assert {"alt": "p1", "param": "s1", "m": 0.7, "n": 0.7} in doc["cells"]

    def test_empty_cells_with_parameters_fails(self):
        doc = {
            "universe": ["p1"],
            "parameters": [{"name": "s1", "importance": {"m": 0.5, "n": 0.4}}],
            "cells": [],
        }
        with pytest.raises(MissingCell):
            parse_json(json.dumps(doc))

    def test_empty_universe_fails(self):
        with pytest.raises(EmptyUniverse, match="universe is empty"):
            parse_json(EMPTY_UNIVERSE_JSON)

    def test_schema_violations_name_the_path(self):
        cases = [
            ({"universe": "p1", "parameters": [], "cells": []}, r"\$\.universe"),
            ({"universe": [], "parameters": [{}], "cells": []}, r"\$\.parameters\[0\]"),
            (
                {
                    "universe": ["p1"],
                    "parameters": [{"name": "s1", "importance": {"m": "x", "n": 0.4}}],
                    "cells": [],
                },
                r"\$\.parameters\[0\]\.importance\.m",
            ),
            (
                {
                    "universe": ["p1"],
                    "parameters": [{"name": "s1", "importance": {"m": 0.5, "n": 0.4}}],
                    "cells": [{"alt": "p1", "param": "s1", "m": 0.5}],
                },
                r"\$\.cells\[0\]",
            ),
        ]
        for doc, pattern in cases:
            with pytest.raises(ParseError, match=pattern):
                parse_json(json.dumps(doc))

    def test_invalid_json_text(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_json("{not json")

    def test_missing_top_level_key(self):
        with pytest.raises(ParseError, match="universe"):
            parse_json(json.dumps({"parameters": [], "cells": []}))

    def test_invalid_importance_carries_path(self):
        doc = {
            "universe": ["p1"],
            "parameters": [{"name": "s1", "importance": {"m": 0.9, "n": 0.9}}],
            "cells": [{"alt": "p1", "param": "s1", "m": 0.5, "n": 0.4}],
        }
        pattern = r"importance of 's1' \(\$\.parameters\[0\]\.importance\)"
        with pytest.raises(InvalidPFN, match=pattern):
            parse_json(json.dumps(doc))

    def test_invalid_cell_value(self):
        doc = {
            "universe": ["p1"],
            "parameters": [{"name": "s1", "importance": {"m": 0.5, "n": 0.4}}],
            "cells": [{"alt": "p1", "param": "s1", "m": 0.9, "n": 0.9}],
        }
        with pytest.raises(InvalidPFN, match=r"\(p1, s1\)"):
            parse_json(json.dumps(doc))


def _two_by_two(m=0.5, n=0.4) -> dict:
    """A 2 x 2 set document whose cells all hold (m, n)."""
    return {
        "universe": ["p1", "p2"],
        "parameters": [{"name": s, "importance": {"m": 0.5, "n": 0.4}} for s in ("s1", "s2")],
        "cells": [
            {"alt": a, "param": s, "m": m, "n": n} for a in ("p1", "p2") for s in ("s1", "s2")
        ],
    }


class TestJsonNumbers:
    """JSON numbers are checked in document order; a located error names the
    first faulty entry."""

    @pytest.mark.parametrize(
        "where, path",
        [
            (("cells", 1, "m"), r"\$\.cells\[1\]\.m"),
            (("cells", 2, "n"), r"\$\.cells\[2\]\.n"),
            (("parameters", 1, "importance", "m"), r"\$\.parameters\[1\]\.importance\.m"),
            (("parameters", 0, "importance", "n"), r"\$\.parameters\[0\]\.importance\.n"),
        ],
    )
    def test_an_integer_beyond_double_range_is_located(self, where, path):
        doc = _two_by_two()
        *parents, key = where
        target = doc
        for step in parents:
            target = target[step]
        target[key] = 10**400
        with pytest.raises(ParseError, match=f"^{path}: number out of range$"):
            parse_json(json.dumps(doc))

    def test_an_overflow_before_a_duplicate_is_reported(self):
        doc = _two_by_two()
        doc["cells"][1]["m"] = 10**400
        doc["cells"][2] = dict(doc["cells"][0])
        with pytest.raises(ParseError, match=r"^\$\.cells\[1\]\.m: number out of range$"):
            parse_json(json.dumps(doc))

    def test_an_overflow_is_reported_before_a_missing_cell(self):
        doc = _two_by_two()
        doc["cells"][1]["n"] = -(10**400)
        del doc["cells"][3]
        with pytest.raises(ParseError, match=r"^\$\.cells\[1\]\.n: number out of range$"):
            parse_json(json.dumps(doc))

    @pytest.mark.parametrize("m, n", [(1, 0), (0, 1), (0, 0)])
    def test_integer_cells_read_as_their_floats(self, m, n):
        from_ints = parse_json(json.dumps(_two_by_two(m, n)))
        from_floats = parse_json(json.dumps(_two_by_two(float(m), float(n))))
        assert from_ints.table_m.tobytes() == from_floats.table_m.tobytes()
        assert from_ints.table_n.tobytes() == from_floats.table_n.tobytes()
        assert emit_json(from_ints) == emit_json(from_floats)

    @pytest.mark.parametrize(
        "drop, message",
        [
            (lambda d: d.pop("cells"), r"^\$: missing key 'cells'$"),
            (
                lambda d: d["parameters"][0].pop("name"),
                r"^\$\.parameters\[0\]: missing key 'name'$",
            ),
            (
                lambda d: d["parameters"][1].pop("importance"),
                r"^\$\.parameters\[1\]: missing key 'importance'$",
            ),
            (
                lambda d: d["parameters"][0]["importance"].pop("n"),
                r"^\$\.parameters\[0\]\.importance: missing key 'n'$",
            ),
            (lambda d: d["cells"][3].pop("param"), r"^\$\.cells\[3\]: missing key 'param'$"),
        ],
        ids=["root", "parameter-name", "parameter-importance", "importance-n", "cell-param"],
    )
    def test_a_missing_key_is_named_with_its_path(self, drop, message):
        doc = _two_by_two()
        drop(doc)
        with pytest.raises(ParseError, match=message):
            parse_json(json.dumps(doc))


class TestCrossFormat:
    def test_parsers_accept_each_others_content(self, table1, table2):
        for text in (TABLE1_CSV, TABLE2_CSV):
            from_csv = parse_csv(text)
            assert equals(from_csv, parse_json(emit_json(from_csv)))

    def test_csv_json_csv_round_trip(self, table1, table2):
        for source, original in ((TABLE1_CSV, table1), (TABLE2_CSV, table2)):
            back = parse_csv(emit_csv(parse_json(emit_json(parse_csv(source)))))
            assert equals(back, original)


class TestReportJson:
    def test_report_document(self, table1, table2):
        report = decide(table1, table2)
        doc = json.loads(emit_json(report))
        assert doc["ranking"] == ["p4", "p3", "p1", "p2"]
        assert doc["config"] == {
            "combine": "eintersect",
            "aggregator": "geometric",
            "ranking_order": "es",
        }
        assert len(doc["weights"]) == 5
        assert {m["alt"] for m in doc["measures"]} == set(UNIVERSE)
        for m in doc["measures"]:
            assert set(m) == {"alt", "apfdv", "es", "sf", "af", "rank"}
        # a report document parses back into its combined set
        assert equals(parse_json(emit_json(report)), report.combined)

    def test_emit_rejects_other_types(self):
        with pytest.raises(TypeError):
            emit_json({"not": "a soft set"})


class TestErrorContract:
    def _one_cell_document(self) -> dict:
        return {
            "universe": ["p1"],
            "parameters": [{"name": "s1", "importance": {"m": 0.5, "n": 0.4}}],
            "cells": [{"alt": "p1", "param": "s1", "m": 0.5, "n": 0.5}],
        }

    def test_duplicate_json_cell_is_rejected(self):
        doc = self._one_cell_document()
        doc["cells"].append({"alt": "p1", "param": "s1", "m": 0.1, "n": 0.2})
        with pytest.raises(ParseError, match=r"\$\.cells\[1\]: duplicate cell \(p1, s1\)"):
            parse_json(json.dumps(doc))

    def test_json_cell_outside_the_table_is_a_missing_cell_error(self):
        doc = self._one_cell_document()
        doc["cells"].append({"alt": "p9", "param": "s1", "m": 0.1, "n": 0.2})
        with pytest.raises(MissingCell, match=r"unexpected.*'p9'"):
            parse_json(json.dumps(doc))

    @pytest.mark.parametrize("parse, data, message", [
        pytest.param(
            parse_csv,
            'id,s1\np1,"0.5,0.4"\n,"0.5,0.4"\n__f__,"0.5,0.4"\n',
            "alternative id at line 3 must be a non-empty string, got ''",
            id="csv-empty-id",
        ),
        pytest.param(
            parse_csv,
            'id,s1,\np1,"0.5,0.4","0.5,0.4"\n__f__,"0.5,0.4","0.5,0.4"\n',
            "parameter name at line 1, column 3 must be a non-empty string, got ''",
            id="csv-empty-header-name",
        ),
        pytest.param(
            parse_csv,
            'id,s1\np1,"0.5,0.4"\n"p,2","0.5,0.4"\n__f__,"0.5,0.4"\n',
            "alternative id 'p,2' at line 3 has a comma, line break or surrogate",
            id="csv-comma-in-quoted-id",
        ),
        pytest.param(
            parse_json,
            json.dumps({"universe": ["p1", ""], "parameters": [], "cells": []}),
            "alternative id ($.universe[1]) must be a non-empty string, got ''",
            id="json-empty-universe-id",
        ),
        pytest.param(
            parse_json,
            json.dumps({"universe": ["p1"], "parameters": [
                {"name": " c", "importance": {"m": 0.5, "n": 0.4}}], "cells": []}),
            "parameter name ' c' ($.parameters[0].name) starts or ends with whitespace",
            id="json-padded-parameter-name",
        ),
    ])
    def test_an_invalid_id_names_where_it_is(self, parse, data, message):
        with pytest.raises(InvalidId) as info:
            parse(data)
        assert type(info.value) is InvalidId
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "parse, data, error",
        [
            pytest.param(parse_csv, "\ufeff" + TABLE1_CSV, None, id="csv-utf8-bom"),
            pytest.param(
                parse_csv, ("\ufeff" + TABLE1_CSV).encode("utf-8"), None, id="csv-utf8-bom-bytes"
            ),
            pytest.param(
                parse_csv,
                'id,s1\n,"0.5,0.4"\n__f__,"0.5,0.4"\n',
                InvalidId,
                id="csv-empty-alternative-id",
            ),
            pytest.param(
                parse_json, "[" * 100_000 + "]" * 100_000, ParseError, id="json-deep-nesting"
            ),
        ],
    )
    def test_probed_holes(self, table1, parse, data, error):
        if error is None:
            assert equals(parse(data), table1)
            return
        with pytest.raises(error) as info:
            parse(data)
        assert isinstance(info.value, PhiSoftError) and isinstance(info.value, ValueError)


# --- the JSON reader runs with the cyclic collector paused -------------------

def _deep_nesting():
    return "[" * 100_000 + "]" * 100_000


def _duplicate_cell():
    doc = _two_by_two()
    doc["cells"].append(dict(doc["cells"][0]))
    return json.dumps(doc)


def _tall_table_json(rows=2000, cols=50, seed=5) -> str:
    """A seeded rows x cols set document, every (m, n) on the quarter disk."""
    rng = np.random.default_rng(seed)
    m = rng.random((rows + 1, cols))
    n = rng.random((rows + 1, cols)) * np.sqrt(1.0 - m * m)
    universe, names = [f"a{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]
    ms, ns = m.tolist(), n.tolist()
    return json.dumps({
        "universe": universe,
        "parameters": [
            {"name": name, "importance": {"m": ms[-1][j], "n": ns[-1][j]}}
            for j, name in enumerate(names)
        ],
        "cells": [
            {"alt": alt, "param": name, "m": ms[i][j], "n": ns[i][j]}
            for i, alt in enumerate(universe)
            for j, name in enumerate(names)
        ],
    })


class TestJsonReadCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "data, error",
        [
            pytest.param(lambda: json.dumps(_two_by_two()), None, id="valid"),
            pytest.param(lambda: "{not json", ParseError, id="invalid-json"),
            pytest.param(_deep_nesting, ParseError, id="nested-too-deeply"),
            pytest.param(
                lambda: json.dumps({"universe": "p1", "parameters": [], "cells": []}),
                ParseError,
                id="schema",
            ),
            pytest.param(_duplicate_cell, ParseError, id="duplicate-cell"),
            pytest.param(lambda: json.dumps(_two_by_two(0.9, 0.9)), InvalidPFN, id="invalid-pfn"),
        ],
    )
    def test_the_callers_collector_state_comes_back(self, data, error, enabled):
        text = data()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                parse_json(text)
            else:
                with pytest.raises(error):
                    parse_json(text)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_a_tall_table_runs_no_cyclic_collection(self):
        """Without the pause, its 100 000 decoded cell dicts made the read
        start about 140 collections."""
        text = _tall_table_json()
        assert collections_started(lambda: parse_json(text)) == []


# --- every reader fills the set's tables in place -----------------------------

def _edge_table():
    """Eight alternatives whose cells and importances are edge floats."""
    universe = tuple(f"p{i}" for i in range(8))
    names = ("c0", "c1")
    params = [(name, EDGE_FLOAT_PFNS[j + 2]) for j, name in enumerate(names)]
    cells = {
        (alt, name): EDGE_FLOAT_PFNS[(i + j) % len(EDGE_FLOAT_PFNS)]
        for i, alt in enumerate(universe)
        for j, name in enumerate(names)
    }
    return universe, params, cells


TABLES = [
    pytest.param(lambda: (("p1", "p2"), [], {}), id="no-parameters"),
    pytest.param(
        lambda: (
            ("only",),
            [("c1", (0.6, 0.3)), ("c2", (0.2, 0.9))],
            {("only", "c1"): (0.5, 0.5), ("only", "c2"): (0.0, 1.0)},
        ),
        id="one-alternative",
    ),
    pytest.param(_edge_table, id="float-edges"),
]


def _rows(universe, params, cells) -> list[list[tuple]]:
    """The table's (m, n) pairs row by row, the importance row last."""
    names = [name for name, _ in params]
    rows = [[cells[alt, name] for name in names] for alt in universe]
    return rows + [[importance for _, importance in params]]


def _csv_text(universe, params, cells) -> str:
    ids = [*universe, "__f__"]
    lines = [",".join(["id", *(name for name, _ in params)])]
    for alt, pairs in zip(ids, _rows(universe, params, cells)):
        lines.append(",".join([alt, *(f'"{m!r},{n!r}"' for m, n in pairs)]))
    return "\n".join(lines) + "\n"


def _json_text(universe, params, cells) -> str:
    return json.dumps({
        "universe": list(universe),
        "parameters": [{"name": name, "importance": {"m": m, "n": n}} for name, (m, n) in params],
        "cells": [{"alt": alt, "param": name, "m": m, "n": n} for (alt, name), (m, n) in cells.items()],
    })


READERS = [
    pytest.param(build, id="build"),
    pytest.param(lambda *table: parse_csv(_csv_text(*table)), id="parse_csv"),
    pytest.param(lambda *table: parse_json(_json_text(*table)), id="parse_json"),
]


@pytest.mark.parametrize("read", READERS)
@pytest.mark.parametrize("table", TABLES)
def test_each_reader_gives_read_only_float64_tables_of_the_input(read, table):
    universe, params, cells = table()
    names = tuple(name for name, _ in params)
    shape = (len(universe) + 1, len(names))
    rows = _rows(universe, params, cells)
    want_m = np.array([[m for m, _ in row] for row in rows], np.float64).reshape(shape)
    want_n = np.array([[n for _, n in row] for row in rows], np.float64).reshape(shape)
    got = read(universe, params, cells)
    for s in (got, pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
        assert s.universe == universe and s.parameter_names == names
        for values, want in ((s.table_m, want_m), (s.table_n, want_n)):
            assert values.dtype == np.float64 and values.shape == shape
            assert values.flags.c_contiguous and not values.flags.writeable
            assert values.tobytes() == want.tobytes()
