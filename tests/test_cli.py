from __future__ import annotations

import json
import subprocess
import sys

import pytest

from primexp.boolmat import serialize_matrix
from primexp.cli import main
from primexp.digraph import to_matrix
from primexp.families import d1, q1, standard_cycle


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.txt"
    path.write_text(serialize_matrix(to_matrix(d1(5))))
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frobenius_verb(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "3", "5")
    assert code == 0
    assert out == "8\n"


def test_frobenius_gcd_violation_is_input_error(capsys):
    code, _, err = run_cli(capsys, "frobenius", "4", "6")
    assert code == 3
    assert "gcd" in err


def test_exp_verb(capsys, d1_file):
    code, out, _ = run_cli(capsys, "exp", "-f", d1_file)
    assert code == 0
    assert out == "17\n"


def test_exp_verbose_certificate(capsys, d1_file):
    code, out, _ = run_cli(capsys, "exp", "-f", d1_file, "--verbose")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "17"
    assert lines[1].startswith("no-walk pair=")


def test_exp_on_nonprimitive_is_input_error(capsys, tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(serialize_matrix(to_matrix(standard_cycle(6))))
    code, _, err = run_cli(capsys, "exp", "-f", str(path))
    assert code == 3
    assert "not primitive" in err


def test_options_do_not_carry_over_between_calls(capsys, d1_file):
    # main reuses one parser across calls
    _, verbose, _ = run_cli(capsys, "exp", "-f", d1_file, "--verbose")
    code, plain, _ = run_cli(capsys, "exp", "-f", d1_file)
    assert code == 0
    assert verbose.startswith(plain) and len(verbose.splitlines()) == 2
    assert plain == "17\n"


def test_girth_and_cycles_verbs(capsys, d1_file):
    code, out, _ = run_cli(capsys, "girth", "-f", d1_file)
    assert (code, out) == (0, "4\n")
    code, out, _ = run_cli(capsys, "cycles", "-f", d1_file)
    assert (code, out) == (0, "4,5\n")


def test_cwalk_verb(capsys, tmp_path):
    path = tmp_path / "q1.txt"
    path.write_text(serialize_matrix(to_matrix(q1(10, 3))))
    code, out, _ = run_cli(capsys, "cwalk", "-f", str(path))
    assert (code, out) == (0, "16\n")


def test_bound_verbs(capsys):
    code, out, _ = run_cli(capsys, "bound", "lemma23", "--n", "10", "--g", "3")
    assert (code, out) == (0, "34\n")
    code, out, _ = run_cli(capsys, "bound", "lemma25", "--n", "10")
    assert (code, out) == (0, "42\n")
    code, out, _ = run_cli(capsys, "bound", "lemma26", "--n", "10", "--g", "3", "--q", "10")
    assert (code, out) == (0, "34\n")
    code, out, _ = run_cli(capsys, "bound", "formula-thm33", "--n", "10", "--g", "3", "--r", "2")
    assert (code, out) == (0, "33\n")
    code, out, _ = run_cli(capsys, "bound", "range-thm36", "--n", "10", "--g", "3")
    assert (code, out) == (0, "32,34\n")


def test_bound_missing_option_is_input_error(capsys):
    code, _, err = run_cli(capsys, "bound", "lemma23", "--n", "10")
    assert code == 3
    assert "--g" in err


def test_bound_lemma22_reads_matrix(capsys, tmp_path):
    path = tmp_path / "q1.txt"
    path.write_text(serialize_matrix(to_matrix(q1(10, 3))))
    code, out, _ = run_cli(capsys, "bound", "lemma22", "-f", str(path))
    assert (code, out) == (0, "34\n")


def test_family_verb_round_trips(capsys, tmp_path):
    out_path = tmp_path / "fam.txt"
    code, _, _ = run_cli(capsys, "family", "d_gN", "--n", "10", "--g", "3",
                         "--N", "1,2", "-o", str(out_path))
    assert code == 0
    from primexp.boolmat import parse_matrix
    from primexp.digraph import from_matrix
    assert from_matrix(parse_matrix(out_path.read_text())).arcs == q1(10, 3).arcs | {(2, 4)}


def test_family_verb_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "family", "cycle", "--n", "3")
    assert code == 0
    assert out == "3\n001\n100\n010\n"


def test_family_invariant_violation_is_input_error(capsys):
    code, _, err = run_cli(capsys, "family", "d_gN", "--n", "10", "--g", "5", "--N", "1")
    assert code == 3
    assert "gcd" in err


def test_iso_verb(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    from primexp.families import d_gN
    a.write_text(serialize_matrix(to_matrix(d_gN(10, 3, {1}))))
    b.write_text(serialize_matrix(to_matrix(d_gN(10, 3, {3}))))
    code, out, _ = run_cli(capsys, "iso", "-a", str(a), "-b", str(b))
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "iso", "-a", str(a), "-b", str(a), "--verbose")
    assert code == 0
    assert out.splitlines()[0] == "true"


def test_matrix_parse_error_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n01\n000\n000\n")
    code, _, err = run_cli(capsys, "girth", "-f", str(path))
    assert code == 3
    assert "line 2" in err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "girth", "-f", str(tmp_path / "nope.txt"))
    assert code == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "lemma99", "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bounds"])  # --seed is mandatory for randomized verbs
    assert exc.value.code == 2


def test_verify_thm33_writes_reports(capsys, tmp_path):
    out = tmp_path / "r.jsonl"
    code, _, _ = run_cli(capsys, "verify", "thm33", "--n-min", "5", "--n-max", "6",
                         "--out", str(out))
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["claim"] == "T3.3" for r in rows)
    csv_text = (tmp_path / "r.csv").read_text()
    assert csv_text.startswith("claim,agree,total,assert_failures\n")


def test_verify_bounds_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bounds", "--n-max", "5", "--samples", "10",
        "--seed", "7", "--chord-pairs", "",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all("claim" in r for r in rows)


def test_verify_census_verb(capsys, tmp_path):
    out = tmp_path / "census.jsonl"
    code, _, _ = run_cli(capsys, "verify", "census", "--n", "2", "--out", str(out))
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2
    assert (tmp_path / "census.csv").read_text().startswith("n,canonical")


@pytest.mark.parametrize("verb", [
    ("census", "--n", "2"),
    ("lemma34", "--n-max", "6"),
], ids=["census", "lemma34"])
def test_verify_csv_path_beside_a_non_jsonl_out(capsys, tmp_path, verb):
    out = tmp_path / "r.txt"
    code, _, _ = run_cli(capsys, "verify", *verb, "--out", str(out))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt", "r.txt.csv"]


def test_verify_files_are_byte_identical_across_invocations(capsys, tmp_path):
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    for path in (first, second):
        code, _, _ = run_cli(capsys, "verify", "thm36", "--n", "7", "--g", "3",
                             "--out", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_assert_failure_exit_code(capsys, tmp_path):
    from primexp.cli import _write_report
    from primexp.report import Report, make_row

    report = Report()
    report.add(make_row("L2.3", "synthetic", 10, 99, asserted=True, rule="le"))
    code = _write_report(report, str(tmp_path / "r.jsonl"))
    err = capsys.readouterr().err
    assert code == 1
    assert "assert failed" in err


def test_verify_lemma34_verb(capsys, tmp_path):
    out = tmp_path / "l34.jsonl"
    code, _, _ = run_cli(capsys, "verify", "lemma34", "--n-max", "8", "--out", str(out))
    assert code == 0
    assert out.exists() and (tmp_path / "l34.csv").exists()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "primexp.cli", "frobenius", "3", "5"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "8\n"
