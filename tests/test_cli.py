"""Command-line behavior: subcommands, exit codes, output stability."""

import json

import pytest

from phisoft import DecisionConfig, decide, equals, parse_csv, parse_json
from phisoft import cli
from phisoft.cli import main
from conftest import EMPTY_UNIVERSE_JSON, TABLE1_CSV


def test_validate_ok(table_files, capsys):
    a, _ = table_files
    assert main(["validate", str(a)]) == 0
    assert "4 alternatives" in capsys.readouterr().out


def test_validate_json_file(table_files, tmp_path, capsys):
    from phisoft import emit_json

    a, _ = table_files
    path = tmp_path / "table1.json"
    path.write_bytes(emit_json(parse_csv(a.read_bytes())))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


def test_validate_bad_cell(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(TABLE1_CSV.replace('"0.9,0.2"', '"0.9,0.95"'))
    assert main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["combine", "a.csv", "b.csv"]) == 2  # missing --op/-o
    assert main(["decide", "a.csv", "b.csv", "--order", "bogus"]) == 2
    capsys.readouterr()


def test_combine_writes_the_table(table_files, tmp_path, table1, capsys):
    a, b = table_files
    out = tmp_path / "combined.csv"
    assert main(["combine", "--op", "eintersect", str(a), str(b), "-o", str(out)]) == 0
    combined = parse_csv(out.read_bytes())
    assert set(combined.parameter_names) == {"s1", "s2", "s3", "s5", "s6"}
    assert main(["validate", str(out)]) == 0
    capsys.readouterr()


def test_combine_idempotent_round_trip(table_files, tmp_path, table1, capsys):
    a, _ = table_files
    out = tmp_path / "same.csv"
    assert main(["combine", "--op", "eintersect", str(a), str(a), "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert equals(parse_csv(out.read_bytes()), table1)
    capsys.readouterr()


def test_combine_to_json(table_files, tmp_path, capsys):
    a, b = table_files
    out = tmp_path / "combined.json"
    assert main(["combine", "--op", "runion", str(a), str(b), "-o", str(out)]) == 0
    assert parse_json(out.read_bytes()).parameter_names == ("s3", "s5", "s6")
    capsys.readouterr()


def test_weights_first_line(table_files, tmp_path, capsys):
    a, b = table_files
    out = tmp_path / "combined.csv"
    main(["combine", "--op", "eintersect", str(a), str(b), "-o", str(out)])
    capsys.readouterr()
    assert main(["weights", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.21001927"
    assert len(lines) == 5


def test_weights_of_a_set_with_no_parameters(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    path.write_text("id\np1\n__f__\n")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["weights", str(path)]) == 1
    assert capsys.readouterr().err == "error: the set has no parameters to weigh\n"


def test_decide_without_options_uses_the_default_config(table_files, monkeypatch, capsys):
    configs = []

    def recorded(a, b, config):
        configs.append(config)
        return decide(a, b, config)

    monkeypatch.setattr(cli, "decide", recorded)
    a, b = table_files
    assert main(["decide", str(a), str(b)]) == 0
    assert configs == [DecisionConfig()]
    capsys.readouterr()


def test_decide_prints_ranking_and_measures(table_files, capsys):
    a, b = table_files
    assert main(["decide", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "ranking: p4 > p3 > p1 > p2" in out
    assert "optimal: p4" in out
    header = out.splitlines()[0].split()
    assert header == ["id", "apfdv_m", "apfdv_n", "es", "sf", "af", "rank"]


def test_decide_output_is_byte_stable(table_files, capsys):
    a, b = table_files
    main(["decide", str(a), str(b)])
    first = capsys.readouterr().out
    main(["decide", str(a), str(b)])
    second = capsys.readouterr().out
    assert first == second


def test_decide_json_report(table_files, tmp_path, capsys):
    a, b = table_files
    out = tmp_path / "report.json"
    assert main(["decide", str(a), str(b), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ranking"] == ["p4", "p3", "p1", "p2"]
    capsys.readouterr()


def test_decide_prints_a_zero_membership_without_a_sign(tmp_path, capsys):
    # sqrt(-expm1(0.0)) is sqrt(-0.0); the geometric operator gives 0.0, not -0.0
    table = tmp_path / "zero.csv"
    table.write_text('id,c1,c2\np1,"0.0,0.5","0.0,0.9"\np2,"0.6,0.3","0.5,0.4"\n'
                     '__f__,"0.5,0.4","0.6,0.3"\n')
    report = tmp_path / "zero.json"
    assert main(["decide", str(table), str(table), "--json", str(report)]) == 0
    row = next(line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith("p1"))
    assert row[1] == "0.0000"
    p1 = next(r for r in json.loads(report.read_text())["measures"] if r["alt"] == "p1")
    assert repr(p1["apfdv"]["m"]) == "0.0"


def test_decide_variants_run(table_files, capsys):
    a, b = table_files
    for extra in (
        ["--agg", "linear"],
        ["--order", "m"],
        ["--order", "sfaf"],
        ["--op", "eunion"],
        ["--op", "rintersect"],
    ):
        assert main(["decide", str(a), str(b), *extra]) == 0
    capsys.readouterr()


def test_decide_on_an_empty_universe_reports_an_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(EMPTY_UNIVERSE_JSON)
    assert main(["decide", str(path), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "universe is empty" in err
    assert "Traceback" not in err


def test_laws_smoke(capsys):
    assert main(["laws", "--cases", "150", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed: 7")
    assert "pass" in out and "FAIL" not in out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_laws_needs_at_least_one_case(cases, capsys):
    assert main(["laws", "--cases", cases]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least 1" in err


def test_laws_refuses_a_negative_seed(capsys):
    assert main(["laws", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--seed: must be at least 0, got -1" in err


@pytest.mark.parametrize("option,text", [("--cases", "x"), ("--cases", "2.5"), ("--seed", "1.5")])
def test_laws_refuses_a_count_that_is_not_an_integer(option, text, capsys):
    assert main(["laws", option, text]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"{option}: invalid int value: '{text}'" in err


def test_laws_reproducible(capsys):
    main(["laws", "--cases", "120", "--seed", "99"])
    first = capsys.readouterr().out
    main(["laws", "--cases", "120", "--seed", "99"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "name, content, code",
    [
        pytest.param("bom.csv", "\ufeff" + TABLE1_CSV, 0, id="csv-utf8-bom"),
        pytest.param(
            "empty-id.csv", 'id,s1\n,"0.5,0.4"\n__f__,"0.5,0.4"\n', 1, id="csv-empty-alternative-id"
        ),
        pytest.param("deep.json", "[" * 100_000 + "]" * 100_000, 1, id="json-deep-nesting"),
    ],
)
def test_validate_reports_errors_without_a_traceback(tmp_path, capsys, name, content, code):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    assert main(["validate", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") == bool(code)
    assert "Traceback" not in err
