"""CLI behaviour: formats, exit codes, golden JSON reports, round trips."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asymqec import cli
from asymqec.aqec import extend_by_defining_set, extend_by_polynomial, subsystem_euclidean
from asymqec.audit import REFERENCE_TABLE, audit_rows
from asymqec.cyclic import parse_code, parse_residue_set
from asymqec.galois import clear_modulus_overrides
from asymqec.search import search
from asymqec.weights import DEFAULT_BUDGET

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    ("cosets_15.json", ["cosets", "--n", "15", "--q", "2"]),
    ("code_bch15_5.json", ["code", "bch:n=15,q=2,delta=5"]),
    ("derive_css_row1.json",
     ["derive", "css", "--c1", "bch:n=15,q=2,delta=3", "--c2", "bch:n=15,q=2,delta=5"]),
    ("derive_subsystem_15.json", ["derive", "subsystem", "--c1", "bch:n=15,q=2,delta=5"]),
    ("derive_css_33.json",
     ["derive", "css", "--c1", "q=2 n=33 T={1,2,4,8,16,17,25,29,31,32}",
      "--c2", "q=2 n=33 T={5,7,10,13,14,19,20,23,26,28}"]),
    ("table1_rows_1_2.json", ["table1", "--rows", "1,2"]),
    ("table1.json", ["table1"]),
    ("search_n7_css.json", ["search", "--n", "7", "--q", "2", "--max-results", "5"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_json_output_matches_golden(golden, argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 0, err
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def _walk_descriptors(payload):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in ("c1", "c2") and isinstance(value, str):
                yield value
            else:
                yield from _walk_descriptors(value)
    elif isinstance(payload, list):
        for item in payload:
            yield from _walk_descriptors(item)


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_printed_descriptors_reparse_identically(golden, argv, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    count = 0
    for descriptor in _walk_descriptors(json.loads(out)):
        reparsed = parse_code(descriptor)
        assert reparsed.descriptor() == descriptor
        count += 1
    if golden.startswith(("derive", "table1", "search")):
        assert count > 0


def test_derive_json_schema_fields(capsys):
    code, out, _ = run(["derive", "css", "--c1", "bch:n=15,q=2,delta=3",
                        "--c2", "bch:n=15,q=2,delta=5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) <= {"n", "q", "k", "r", "dz", "dx", "pure", "c1", "c2", "route",
                            "verdict", "notes"}
    assert {"n", "q", "k", "dz", "dx", "c1", "c2", "route"} <= set(payload)
    assert set(payload["dz"]) == {"value", "method"}
    assert payload["dz"]["method"] in ("exhaustive", "macwilliams", "bound-only")


def test_cosets_text(capsys):
    code, out, _ = run(["cosets", "--n", "7", "--q", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["{0}", "{1,2,4}", "{3,5,6}"]


def test_cosets_gcd_error_exit_2(capsys):
    code, _, err = run(["cosets", "--n", "6", "--q", "2"], capsys)
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("argv,q", [
    (["cosets", "--n", "7", "--q", "6"], 6),
    (["cosets", "--n", "5", "--q", "1"], 1),
    (["code", "q=6 n=7 T={0}"], 6),
    (["search", "--n", "7", "--q", "6"], 6),
    (["search", "--n", "15", "--q", "1"], 1),
])
def test_q_that_is_not_a_prime_power_exit_2(argv, q, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: q={q} is not a prime power\n"


def test_code_text(capsys):
    code, out, _ = run(["code", "q=2", "n=15", "T={1,2,4,8}"], capsys)
    assert code == 0
    assert "[15,11]_2" in out
    assert "x^4 + x + 1" in out
    assert "d: 3" in out


def test_code_non_closed_exit_2(capsys):
    code, _, err = run(["code", "q=2", "n=15", "T={1,2,3}"], capsys)
    assert code == 2
    assert "not closed" in err


def test_code_bound_only_fallback_and_exact_exit_3(capsys):
    code, out, _ = run(["code", "bch:n=127,q=2,delta=15"], capsys)
    assert code == 0
    assert ">=15 (bound-only)" in out
    code, _, err = run(["code", "bch:n=127,q=2,delta=15", "--exact"], capsys)
    assert code == 3
    assert "budget" in err
    code, out, _ = run(["code", "bch:n=15,q=2,delta=3", "--budget", "0"], capsys)
    assert code == 0
    assert "d: >=3 (bound-only)" in out


def test_derive_extend_routes_agree(capsys):
    code, out_poly, _ = run(["derive", "extend-poly", "--c1", "hamming:m=4,q=2",
                             "--f", "minpoly:3", "--format", "json"], capsys)
    assert code == 0
    code, out_set, _ = run(["derive", "extend-set", "--c1", "hamming:m=4,q=2",
                            "--T", "{3,6,9,12}", "--format", "json"], capsys)
    assert code == 0
    poly = json.loads(out_poly)
    dset = json.loads(out_set)
    for key in ("n", "q", "k", "dz", "dx", "c1", "c2", "pure"):
        assert poly[key] == dset[key]
    assert poly["k"] == 4


def test_derive_extend_poly_literal_f(capsys):
    code, out, _ = run(["derive", "extend-poly", "--c1", "bch:n=7,q=2,delta=3",
                        "--f", "x + 1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["k"] == 1


def test_derive_missing_partner_exit_2(capsys):
    code, _, err = run(["derive", "css", "--c1", "bch:n=15,q=2,delta=3"], capsys)
    assert code == 2
    assert "--c2" in err


def test_derive_not_nested_exit_2(capsys):
    code, _, err = run(["derive", "css", "--c1", "q=2 n=15 T={0,1,2,3,4,5,6,8,9,10,12}",
                        "--c2", "bch:n=15,q=2,delta=5"], capsys)
    assert code == 2
    assert "not contained" in err


FULL, ZERO = "q=2 n=7 T={}", "q=2 n=7 T={0,1,2,3,4,5,6}"


@pytest.mark.parametrize("argv,message", [
    (["derive", "css", "--c1", FULL, "--c2", ZERO],
     f"error: C2 = {ZERO} is the zero code; the css route needs C1 and C2"),
    (["derive", "css", "--c1", ZERO, "--c2", FULL],
     f"error: C1 = {ZERO} is the zero code; the css route needs C1 and C2"),
    (["derive", "subsystem", "--c1", FULL],
     f"error: C1 = {FULL} is the full space, so C1-dual is the zero code; "
     "the subsystem route needs C1 smaller"),
    (["derive", "extend-set", "--c1", FULL, "--T", "{}"],
     f"error: C1 = {FULL} is the full space and T is empty, so C2 would be the zero code"),
])
def test_derive_with_a_zero_code_names_the_input_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


def test_derive_exact_exit_3(capsys):
    code, _, err = run(["derive", "css", "--c1", "bch:n=127,q=2,delta=5",
                        "--c2", "bch:n=127,q=2,delta=15", "--exact"], capsys)
    assert code == 3


def test_derive_csv(capsys):
    code, out, _ = run(["derive", "css", "--c1", "bch:n=15,q=2,delta=3",
                        "--c2", "bch:n=15,q=2,delta=5", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["n"] == "15" and rows[0]["k"] == "3"
    assert rows[0]["dz"] == "5" and rows[0]["dx"] == "3"
    assert rows[0]["route"] == "css"


def test_table1_text_full(capsys):
    code, out, _ = run(["table1"], capsys)
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("row ")) == 9
    assert "row 5: NOT-REPRODUCED" in out
    assert "row 8: PARTIAL" in out
    assert "self-inconsistent" in out  # row 9's 25-vs-27 flag


def test_table1_unknown_row_exit_2(capsys):
    code, _, err = run(["table1", "--rows", "12"], capsys)
    assert code == 2
    assert "unknown row" in err


@pytest.mark.parametrize("rows,message", [
    (",,", "error: --rows ',,' names no row\n"),
    (" , ", "error: --rows ' , ' names no row\n"),
    ("x", "error: --rows: 'x' is not a row number\n"),
    ("1,2x", "error: --rows: '2x' is not a row number\n"),
])
def test_table1_bad_rows_exit_2(rows, message, capsys):
    code, out, err = run(["table1", "--rows", rows], capsys)
    assert code == 2
    assert out == ""
    assert err == message


def test_table1_empty_rows_audit_every_row(capsys):
    code, out, _ = run(["table1", "--rows", "", "--format", "json"], capsys)
    assert code == 0
    assert [a["row"] for a in json.loads(out)] == list(range(1, 10))
    code, out, _ = run(["table1", "--rows", "2,,1,", "--format", "json"], capsys)
    assert code == 0
    assert [a["row"] for a in json.loads(out)] == [1, 2]


def test_table1_csv(capsys):
    code, out, _ = run(["table1", "--rows", "1,5", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["verdict"] for r in rows] == ["REPRODUCED", "NOT-REPRODUCED"]


def test_table1_verdicts_stable_across_runs(capsys):
    _, first, _ = run(["table1", "--rows", "1,2,3", "--format", "json"], capsys)
    _, second, _ = run(["table1", "--rows", "1,2,3", "--format", "json"], capsys)
    assert first == second


def test_search_text_and_limits(capsys):
    code, out, _ = run(["search", "--n", "15", "--q", "2", "--max-results", "10"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 10
    code, _, err = run(["search", "--n", "127", "--q", "2"], capsys)
    assert code == 2
    assert "exceeds the limit" in err
    code, _, err = run(["search", "--n", "6", "--q", "2"], capsys)
    assert code == 2


def test_search_rejects_negative_max_results(capsys):
    code, out, err = run(["search", "--n", "15", "--q", "2", "--max-results", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_search_csv(capsys):
    code, out, _ = run(["search", "--n", "7", "--q", "2", "--route", "subsystem",
                        "--format", "csv", "--max-results", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["r"] != "" for r in rows)


class WriteLog:
    """A stdout that keeps every write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_search_writes_one_record_at_a_time(fmt, monkeypatch):
    argv = ["search", "--n", "21", "--q", "2", "--route", "extend-poly", "--format"]
    log = WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert cli.main(argv + [fmt]) == 0
    records = len(search(21, 2, "extend-poly"))
    assert records > 600
    if fmt == "json":
        # the records and the closing bracket; every record opens at indent 2
        assert len(log.writes) == records + 1
        assert all(text.count("\n  {") <= 1 for text in log.writes)
        document = "".join(log.writes)
        assert document == json.dumps(json.loads(document), indent=2) + "\n"
    else:
        # the header and one row per record
        assert len(log.writes) == records + 1
        assert all(text.count("\n") == 1 for text in log.writes)


def test_search_with_no_results_prints_an_empty_array(capsys):
    code, out, _ = run(["search", "--n", "15", "--q", "2", "--max-results", "0",
                        "--format", "json"], capsys)
    assert code == 0
    assert out == "[]\n"


def _params_results(argv):
    if argv[0] == "search":
        return search(int(argv[2]), int(argv[4]), argv[6])
    return list(subsystem_euclidean(parse_code(argv[3])))


LIST_CASES = [
    ["search", "--n", "15", "--q", "2", "--route", route]
    for route in ("css", "extend-poly", "extend-set", "subsystem")
] + [
    ["search", "--n", "21", "--q", "2", "--route", "subsystem"],
    ["search", "--n", "8", "--q", "3", "--route", "subsystem"],
    ["search", "--n", "9", "--q", "4", "--route", "extend-set"],
    ["derive", "subsystem", "--c1", "bch:n=15,q=2,delta=5"],
    ["derive", "subsystem", "--c1", "q=3 n=8 T={1,3}"],
    ["table1", "--rows", "1,2,3"],
]


@pytest.mark.parametrize("argv", LIST_CASES, ids=[" ".join(a) for a in LIST_CASES])
def test_list_output_is_the_bytes_of_the_list_built_document(argv, capsys):
    if argv[0] == "table1":
        results = audit_rows([1, 2, 3], DEFAULT_BUDGET)
        flat, fields = cli._audit_flat, cli._AUDIT_FIELDS
    else:
        results = _params_results(argv)
        flat, fields = cli._params_flat, cli._PARAMS_FIELDS
    assert len(results) > 1
    listed = json.dumps([r.as_dict() for r in results], indent=2) + "\n"
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    writer.writerows([flat(r) for r in results])
    for fmt, expected in (("json", listed), ("csv", table.getvalue())):
        clear_modulus_overrides()
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert code == 0, err
        assert out == expected, fmt


SINGLE_CASES = [
    ["derive", "extend-poly", "--c1", "bch:n=15,q=2,delta=3", "--f", "minpoly:3"],
    ["derive", "extend-set", "--c1", "bch:n=15,q=2,delta=3", "--T", "{5,10}"],
]


@pytest.mark.parametrize("argv", SINGLE_CASES, ids=[" ".join(a) for a in SINGLE_CASES])
def test_single_record_json_is_the_bytes_of_its_as_dict(argv, capsys):
    c1 = parse_code(argv[3])
    if argv[1] == "extend-poly":
        params = extend_by_polynomial(c1, cli._parse_f(argv[5], c1))[1]
    else:
        params = extend_by_defining_set(c1, parse_residue_set(argv[5]))[1]
    clear_modulus_overrides()
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 0, err
    assert out == json.dumps(params.as_dict(), indent=2) + "\n"


def test_unknown_command_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_modulus_override_via_environment(tmp_path):
    table = tmp_path / "moduli.txt"
    table.write_text("2 4 1 0 0 1 1\n")  # x^4 + x^3 + 1
    env = dict(os.environ, ASYMQEC_MODULUS_TABLE=str(table))
    proc = subprocess.run(
        [sys.executable, "-m", "asymqec.cli", "code", "q=2 n=15 T={1,2,4,8}"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "x^4 + x^3 + 1" in proc.stdout
    missing = tmp_path / "missing.txt"
    bad = subprocess.run(
        [sys.executable, "-m", "asymqec.cli", "code", "q=2 n=15 T={1,2,4,8}"],
        capture_output=True, text=True,
        env=dict(os.environ, ASYMQEC_MODULUS_TABLE=str(missing)),
    )
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr == f"error: cannot read modulus table {missing}: No such file or directory\n"
    table.write_text("2 4 1 0 0 1 1\n2 x 1 0 1\n")
    bad = subprocess.run(
        [sys.executable, "-m", "asymqec.cli", "code", "q=2 n=15 T={1,2,4,8}"],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith(f"error: {table}:2: invalid literal for int()")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_reader_closing_stdout_early_gets_no_traceback(fmt):
    """`asymqec search ... | head -1`: the JSON output (356 kB) outgrows any
    pipe buffer, so the writer meets the closed pipe and exits 141; the text
    output (57 kB) may fit before the reader closes, and then exits 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "asymqec.cli", "search", "--n", "21", "--q", "2",
         "--route", "extend-poly", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    status = proc.wait(timeout=60)
    assert "Traceback" not in err and err == ""
    assert status == cli.EXIT_BROKEN_PIPE or (fmt == "text" and status == 0)


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """The records are named tuples, so importing the CLI and building its
    parser in a fresh interpreter pulls in no dataclass machinery; the
    package resolves its names on first use, so the parser loads no engine
    module and neither JSON nor CSV writer, and the `cosets` and `code`
    commands load none of the derivation modules. Without site (-S), no .pth
    file of the environment can load the modules first."""
    probe = (
        "import io, sys, contextlib, asymqec.cli\n"
        "asymqec.cli.build_parser()\n"
        "mods = lambda: sorted(m for m in sys.modules if m.startswith('asymqec'))\n"
        "print(mods(), sorted({'dataclasses', 'inspect', 'heapq', 'json', 'csv'}"
        " & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert asymqec.cli.main(['cosets', '--n', '15', '--q', '2']) == 0\n"
        "    assert asymqec.cli.main(['code', 'bch:n=15,q=2,delta=5', '--format', 'json']) == 0\n"
        "print(sorted({'asymqec.aqec', 'asymqec.audit', 'asymqec.search'} & set(mods())))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['asymqec', 'asymqec.cli', 'asymqec.errors'] []\n[]\n"


HELP_COMMANDS = ["", "cosets", "code", "derive", "table1", "search"]


@pytest.mark.parametrize("command", HELP_COMMANDS, ids=[c or "asymqec" for c in HELP_COMMANDS])
def test_help_text_matches_the_golden(command, capsys, monkeypatch):
    """Every --help text at 80 columns, byte for byte as stored."""
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads((GOLDEN / "help.json").read_text(encoding="utf-8"))
    code, out, err = run([command, "--help"] if command else ["--help"], capsys)
    assert (code, err) == (0, "")
    assert out == golden[command]


def test_table1_help_names_every_reference_row(capsys, monkeypatch):
    """The parser states the row count without importing the audit."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(["table1", "--help"], capsys)
    assert code == 0
    assert f"comma list of rows 1..{len(REFERENCE_TABLE)}\n" in out


def test_derive_css_text(capsys):
    code, out, _ = run(["derive", "css", "--c1", "bch:n=15,q=2,delta=3",
                        "--c2", "bch:n=15,q=2,delta=5"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "[[15,3,5/3]]_2",
        "  c1: q=2 n=15 T={1,2,4,8}   [15,11]_2",
        "  c2: q=2 n=15 T={1,2,3,4,6,8,9,12}   [15,7]_2",
        "  dz: 5 (exhaustive)   dx: 3 (exhaustive)",
        "  pure: True",
        "  corrects: 1 flip / 2 phase errors",
        "  route: css",
        "  note: symmetric stabilizer corollary [[15,3,3]]_2",
    ]


def test_derive_subsystem_text(capsys):
    code, out, _ = run(["derive", "subsystem", "--c1", "bch:n=15,q=2,delta=5"], capsys)
    assert code == 0
    block = [
        "  c1: q=2 n=15 T={1,2,3,4,6,8,9,12}   [15,7]_2",
        "  c2: q=2 n=15 T={0,1,2,3,4,5,6,8,9,10,12}   [15,4]_2",
        "  dz: 4 (exhaustive)   dx: 3 (exhaustive)",
        "  pure: True",
        "  corrects: 1 flip / 1 phase errors",
        "  route: subsystem-euclidean",
        "  note: intersection code C2 = C1 ^ C1-dual is [15,4]_2",
    ]
    assert out.splitlines() == ["[[15,4,3,4/3]]_2", *block, "[[15,3,4,4/3]]_2", *block]


def test_derive_text_bound_only(capsys):
    code, out, _ = run(["derive", "css", "--c1", "bch:n=127,q=2,delta=5",
                        "--c2", "bch:n=127,q=2,delta=15"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[[127,64,>=15/>=5]]_2"
    assert "  dz: >=15 (bound-only)   dx: >=5 (bound-only)" in lines
    assert "  corrects: 2 flip / 7 phase errors (lower bounds)" in lines
    assert not any("pure" in line or "note" in line for line in lines)


def test_derive_csv_exact_bytes(capsys):
    code, out, _ = run(["derive", "subsystem", "--c1", "bch:n=15,q=2,delta=5",
                        "--format", "csv"], capsys)
    assert code == 0
    descriptors = '"q=2 n=15 T={1,2,3,4,6,8,9,12}","q=2 n=15 T={0,1,2,3,4,5,6,8,9,10,12}"'
    assert out == (
        "n,q,k,r,dz,dz_method,dx,dx_method,pure,c1,c2,route\r\n"
        f"15,2,4,3,4,exhaustive,3,exhaustive,True,{descriptors},subsystem-euclidean\r\n"
        f"15,2,3,4,4,exhaustive,3,exhaustive,True,{descriptors},subsystem-euclidean\r\n"
    )
    code, out, _ = run(["derive", "css", "--c1", "bch:n=127,q=2,delta=5",
                        "--c2", "bch:n=127,q=2,delta=15", "--format", "csv"], capsys)
    assert code == 0
    row = out.splitlines()[1]
    assert row.startswith("127,2,64,,15,bound-only,5,bound-only,,")  # no r, purity unknown
    assert row.endswith(",css")


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    derive = ["derive", "css", "--c1", "bch:n=15,q=2,delta=3", "--c2", "bch:n=15,q=2,delta=5"]
    calls = [
        ["code", "bch:n=15,q=2,delta=5"],
        derive + ["--budget", "16"],
        derive,  # a flag given to the previous call must not carry over
        ["--help"],
        ["search", "--n", "7", "--q", "2", "--format", "json"],
    ]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        clear_modulus_overrides()
        alone.append(run(argv, capsys))
    assert alone[1][1] != alone[2][1]  # distances are exact only without --budget 16
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "asymqec":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    clear_modulus_overrides()
    together = [run(argv, capsys) for argv in calls]
    assert together == alone
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["code", "bch:n=15,q=2,delta=3"],
    ["derive", "css", "--c1", "bch:n=15,q=2,delta=3", "--c2", "bch:n=15,q=2,delta=5"],
    ["table1", "--rows", "1"],
    ["search", "--n", "7", "--q", "2"],
], ids=lambda argv: argv[0])
def test_negative_budget_is_rejected(argv, capsys):
    code, out, err = run(argv + ["--budget", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_reed_solomon_needs_q_at_least_3(capsys):
    code, out, err = run(["code", "rs:q=2,delta=2"], capsys)
    assert code == 2
    assert out == ""
    assert "q=2 too small for a Reed-Solomon code" in err
    code, out, _ = run(["code", "rs:q=3,delta=2"], capsys)
    assert code == 0
    assert out.startswith("[2,1]_3  q=3 n=2 T={1}")
