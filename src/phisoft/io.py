"""CSV and JSON serialization of soft sets and decision reports.

CSV grammar: a header ``id,<param1>,<param2>,...``, one row per
alternative with cells written ``"m,n"`` (quoted because of the comma) or
``(m,n)``, and a final row with the id literal ``__f__`` carrying the
parameter importances.

JSON documents are self-describing: ``universe``, ``parameters`` (name +
importance), and ``cells``; reports add ``weights``, ``measures``, and
``ranking``.  Rendering is deterministic and floats round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from array import array
from io import BytesIO, TextIOWrapper

from .decision import DecisionReport, _collector_paused
from .errors import InvalidId, MissingCell, ParseError
from .pfn import pair_from_text
from .softset import PhiSoftSet, _assemble, check_ids

IMPORTANCE_ROW_ID = "__f__"


def _as_text(data: bytes | str) -> str:
    """The document as text, without a leading UTF-8 byte order mark."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from None
    return data.removeprefix("\ufeff")


def _reassemble_parenthesized(fields: list[str], line: int) -> list[str]:
    """Re-join ``(m`` + ``n)`` pieces that the comma split apart."""
    out: list[str] = []
    for piece in fields:
        if out and _open(out[-1]):
            out[-1] += "," + piece
        else:
            out.append(piece)
    if out and _open(out[-1]):
        raise ParseError("unclosed '(' in cell", line=line)
    return out


def _open(field: str) -> bool:
    """Whether `field` starts a ``(`` group that it does not close."""
    return field.lstrip().startswith("(") and not field.rstrip().endswith(")")


def _parse_row(values: list[str], line: int) -> tuple[list[float], list[float]]:
    """The memberships and non-memberships of one row's ``m,n`` cells."""
    try:
        pairs = [v.split(",") for v in values]
        return [float(m) for m, _ in pairs], [float(n) for _, n in pairs]
    except ValueError:  # parenthesized or malformed cells: read one at a time
        pass
    pairs = []
    for column, text in enumerate(values):
        try:
            pairs.append(pair_from_text(text))
        except ParseError as exc:
            raise ParseError(str(exc), line=line, column=column + 2) from None
    return [m for m, _ in pairs], [n for _, n in pairs]


def parse_csv(data: bytes | str) -> PhiSoftSet:
    """Parse the CSV table grammar into a validated soft set."""
    text = _as_text(data)
    reader = csv.reader(text.splitlines())
    try:
        rows = [(reader.line_num, fields) for fields in reader if any(f.strip() for f in fields)]
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise ParseError("empty document")

    header_line, header = rows[0]
    header = [h.strip() for h in header]
    if not header or header[0] != "id":
        raise ParseError("header must start with 'id'", line=header_line)
    names = header[1:]

    # Only a table with a "(" anywhere can hold parenthesized cells.
    parenthesized = "(" in text
    universe: list[str] = []
    lines: list[int] = []
    # Every line after the header is one table row, so the buffers are sized
    # exactly.  Rows go in through a memoryview, as fast as `array.fromlist`
    # but without the slack that `fromlist` leaves and a table view keeps.
    width = len(names)
    size = width * (len(rows) - 1)
    ms, ns = array("d", [0.0]) * size, array("d", [0.0]) * size
    into_m, into_n = memoryview(ms), memoryview(ns)
    for line, fields in rows[1:]:
        if len(lines) > len(universe):  # the importance row came before
            raise ParseError(
                f"row after the {IMPORTANCE_ROW_ID} importance row", line=line
            )
        alt = fields[0].strip()
        values = fields[1:]
        if parenthesized:
            values = _reassemble_parenthesized(values, line)
        if len(values) != width:
            raise ParseError(f"expected {width} cells, got {len(values)}", line=line)
        row_m, row_n = _parse_row(values, line)
        if alt != IMPORTANCE_ROW_ID:
            universe.append(alt)
        start = width * len(lines)
        into_m[start:start + width] = array("d", row_m)
        into_n[start:start + width] = array("d", row_n)
        lines.append(line)

    if not universe:
        raise ParseError("no alternatives")
    if len(lines) == len(universe):  # no importance row
        raise ParseError(f"missing {IMPORTANCE_ROW_ID} importance row")
    alts, names = check_ids(universe, names, lambda axis, k: (
        f" at line {header_line}, column {k + 2}" if axis else f" at line {lines[k]}"))
    return _assemble(alts, names, ms, ns, lambda i, j: f" at line {lines[i]}")


def emit_csv(softset: PhiSoftSet) -> bytes:
    """Render a soft set in the CSV grammar (deterministic bytes), written
    row by row into one byte buffer: only one row's text exists at a time."""
    if IMPORTANCE_ROW_ID in softset.universe:
        raise InvalidId(f"alternative id {IMPORTANCE_ROW_ID!r} is reserved in CSV")
    out = BytesIO()
    sink = TextIOWrapper(out, "utf-8", newline="")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["id", *softset.parameter_names])
    ids = (*softset.universe, IMPORTANCE_ROW_ID)
    for alt, ms, ns in zip(ids, softset.table_m, softset.table_n):
        writer.writerow([alt, *map("%r,%r".__mod__, zip(ms.tolist(), ns.tolist()))])
    sink.detach()  # flushes into `out` and leaves it open
    return out.getvalue()


# --- JSON -----------------------------------------------------------------


def _expect(doc, path: str, kind: type, name: str):
    if not isinstance(doc, kind):
        raise ParseError(f"expected {name}", path=path)
    return doc


def _number(doc, path: str) -> float:
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ParseError("expected a number", path=path)
    try:
        return float(doc)
    except OverflowError:
        raise ParseError("number out of range", path=path) from None


def _object(doc, path: str, keys: tuple[str, ...]) -> dict:
    """`doc` if it is an object that holds every one of `keys`."""
    _expect(doc, path, dict, "an object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"missing key {key!r}", path=path)
    return doc


def _cell_key(entry, path: str) -> tuple[str, str]:
    """Check one cell entry's shape; its (alt, param) if the shape is right."""
    _object(entry, path, ("alt", "param", "m", "n"))
    alt = _expect(entry["alt"], f"{path}.alt", str, "a string")
    param = _expect(entry["param"], f"{path}.param", str, "a string")
    _number(entry["m"], f"{path}.m")
    _number(entry["n"], f"{path}.n")
    return alt, param


@_collector_paused  # the decoded tree cannot hold a cycle; none of its dicts need a walk
def parse_json(data: bytes | str) -> PhiSoftSet:
    """Parse a set (or report) document; reports yield their combined set."""
    try:
        doc = json.loads(_as_text(data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None

    _object(doc, "$", ("universe", "parameters", "cells"))
    universe = _expect(doc["universe"], "$.universe", list, "an array")
    alts = [_expect(a, f"$.universe[{i}]", str, "a string") for i, a in enumerate(universe)]

    names, importance_ms, importance_ns = [], [], []
    for i, entry in enumerate(_expect(doc["parameters"], "$.parameters", list, "an array")):
        path = f"$.parameters[{i}]"
        _object(entry, path, ("name", "importance"))
        names.append(_expect(entry["name"], f"{path}.name", str, "a string"))
        path += ".importance"
        importance = _object(entry["importance"], path, ("m", "n"))
        importance_ms.append(_number(importance["m"], f"{path}.m"))
        importance_ns.append(_number(importance["n"], f"{path}.n"))
    alts, names = check_ids(alts, names, lambda axis, k: (
        f" ($.parameters[{k}].name)" if axis else f" ($.universe[{k}])"))

    entries = _expect(doc["cells"], "$.cells", list, "an array")
    rows = {alt: i for i, alt in enumerate(alts)}
    cols = {name: j for j, name in enumerate(names)}
    width = len(names)
    size = len(alts) * width
    # Both buffers are sized exactly for the cells and the importance row,
    # which goes in now; the cells are written in place as they are read.
    ms, ns = array("d", [0.0]) * (size + width), array("d", [0.0]) * (size + width)
    ms[size:], ns[size:] = array("d", importance_ms), array("d", importance_ns)
    seen = bytearray(size)
    outside = []
    for i, entry in enumerate(entries):
        try:
            alt, param, m, n = entry["alt"], entry["param"], entry["m"], entry["n"]
            k = rows[alt] * width + cols[param]
        except (KeyError, TypeError):
            k = None
        if k is None or type(m) is not float or type(n) is not float:
            key = _cell_key(entry, f"$.cells[{i}]")
            if k is None:
                outside.append(key)
                continue
            m, n = float(m), float(n)
        if seen[k]:
            raise ParseError(f"duplicate cell ({alt}, {param})", path=f"$.cells[{i}]")
        seen[k] = 1
        ms[k] = m
        ns[k] = n
    missing = seen.find(0)
    if missing >= 0:
        raise MissingCell(f"missing cell ({alts[missing // width]}, {names[missing % width]})")
    if outside:
        raise MissingCell(f"unexpected cells outside the table: {sorted(outside)[:5]}")

    def locate(i: int, j: int) -> str:
        if i == len(alts):
            return f" ($.parameters[{j}].importance)"
        alt, name = alts[i], names[j]
        index = next(
            k for k, e in enumerate(entries) if e["alt"] == alt and e["param"] == name
        )
        return f" ($.cells[{index}])"

    return _assemble(alts, names, ms, ns, locate)


def _section(value) -> bytes:
    """`value` as ``json.dumps(document, indent=2)`` writes it under a
    top-level key: its own indented text, two more spaces after every line
    break.  JSON strings never hold a raw newline, so each break is layout."""
    return json.dumps(value, indent=2).replace("\n", "\n  ").encode("utf-8")


def _write_rows(out: BytesIO, rows) -> None:
    """Write a top-level array whose element text comes row by row from
    `rows`, each row's elements already joined by ``",\\n"``."""
    head = b"[\n"
    for row in rows:
        out.write(head)
        out.write(row.encode("utf-8"))
        head = b",\n"
    out.write(b"[]" if head == b"[\n" else b"\n  ]")


def _cell_rows(softset: PhiSoftSet):
    """Each alternative's {"alt", "param", "m", "n"} objects, laid out as
    ``json.dumps(document, indent=2)`` lays out "cells"."""
    names = [json.dumps(name) for name in softset.parameter_names]
    if not names:  # every alternative has a row, but no row has a cell
        return
    ids = map(json.dumps, softset.universe)
    for alt, ms, ns in zip(ids, softset.m.tolist(), softset.n.tolist()):
        yield ",\n".join([
            f'    {{\n      "alt": {alt},\n      "param": {name},\n      "m": {m!r},\n'
            f'      "n": {n!r}\n    }}' for name, m, n in zip(names, ms, ns)])


def _measure_rows(report: DecisionReport):
    """Each report row's measures object, laid out as "measures"."""
    for alt, apfdv, es, sf, af, rank in report.rows:
        yield (
            f'    {{\n      "alt": {json.dumps(alt)},\n      "apfdv": {{\n'
            f'        "m": {apfdv.m!r},\n        "n": {apfdv.n!r}\n      }},\n'
            f'      "es": {es!r},\n      "sf": {sf!r},\n      "af": {af!r},\n'
            f'      "rank": {rank:d}\n    }}'
        )


def emit_json(obj: PhiSoftSet | DecisionReport) -> bytes:
    """Render a soft set or a decision report as deterministic JSON bytes:
    exactly ``json.dumps(document, indent=2) + "\\n"``, written section by
    section into one buffer, with "cells" and "measures" written row by row."""
    if isinstance(obj, PhiSoftSet):
        report, softset = None, obj
    elif isinstance(obj, DecisionReport):
        report, softset = obj, obj.combined
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    out = BytesIO()
    out.write(b"{")
    if report is not None:
        config = report.config
        out.write(b'\n  "config": ' + _section({
            "combine": config.combine.value,
            "aggregator": config.aggregator.value,
            "ranking_order": config.ranking_order.value,
        }) + b",")
    out.write(b'\n  "universe": ' + _section(list(softset.universe)))
    out.write(b',\n  "parameters": ' + _section([
        {"name": p.name, "importance": {"m": p.importance.m, "n": p.importance.n}}
        for p in softset.parameters
    ]))
    out.write(b',\n  "cells": ')
    _write_rows(out, _cell_rows(softset))
    if report is not None:
        out.write(b',\n  "weights": ' + _section(list(report.weights)))
        out.write(b',\n  "measures": ')
        _write_rows(out, _measure_rows(report))
        out.write(b',\n  "ranking": ' + _section(list(report.ranking())))
    out.write(b"\n}\n")
    return out.getvalue()
