from __future__ import annotations

import hashlib
import inspect
import json
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from primexp import families, verify
from primexp.boolmat import BoolMatrix, serialize_rows
from primexp.cli import BOUNDS, _parse_chord_pairs, build_parser, main
from primexp.digraph import CYCLE_COVER_BUDGET, from_matrix, simple_cycles
from primexp.exponent import (
    formula_thm33,
    lemma23_bound,
    lemma25_bound,
    lemma26_bound,
    lemma32_bound,
    lemma34_bound,
    thm36_range,
)
from primexp.families import KINDS, d1, q1, standard_cycle


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.txt"
    path.write_text(serialize_rows(d1(5).rows, 5))
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


def test_frobenius_past_its_budget_is_input_error(capsys):
    # m * (k - 1) = 2000001, one past the budget: refused before the sweep.
    code, _, err = run_cli(capsys, "frobenius", "2000001", "2000002")
    assert code == 3
    assert "exceeds the budget 2000000" in err


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


def test_exp_verbose_certificate_at_exponent_one(capsys, tmp_path):
    # A^0 = I is the power that is not all-positive; its least zero is (1, 2).
    path = tmp_path / "ones.txt"
    path.write_text("2\n11\n11\n")
    code, out, _ = run_cli(capsys, "exp", "-f", str(path), "--verbose")
    assert code == 0
    assert out == "1\nno-walk pair=(1,2) length=0\n"


def test_cli_defaults_match_the_library_defaults():
    parser = build_parser()

    def defaults(function):
        return {name: p.default for name, p in inspect.signature(function).parameters.items()}

    args = parser.parse_args(["verify", "bounds", "--seed", "1"])
    library = defaults(verify.verify_bounds)
    assert (args.n_max, args.samples) == (library["n_max"], library["samples"])
    assert _parse_chord_pairs(args.chord_pairs) == library["chord_pairs"]
    assert parser.parse_args(["verify", "lemma24"]).n == defaults(verify.verify_lemma24)["n"]
    args = parser.parse_args(["verify", "thm33"])
    library = defaults(verify.verify_thm33)
    assert (args.n_min, args.n_max) == (library["n_min"], library["n_max"])
    assert (parser.parse_args(["verify", "lemma34"]).n_max
            == defaults(verify.verify_lemma34)["n_max"])
    assert (parser.parse_args(["verify", "census", "--n", "4"]).jobs
            == defaults(verify.census)["jobs"])
    assert parser.parse_args(["cycles", "-f", "m.txt"]).cap == defaults(simple_cycles)["cap"]


def test_exp_on_nonprimitive_is_input_error(capsys, tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(serialize_rows(standard_cycle(6).rows, 6))
    code, _, err = run_cli(capsys, "exp", "-f", str(path))
    assert code == 3
    assert "not primitive" in err


def test_cwalk_and_lemma22_past_the_cover_budget_are_input_errors(capsys, tmp_path):
    path = tmp_path / "complete.txt"
    path.write_text(serialize_rows(((1 << 64) - 1,) * 64, 64))
    for argv in (["cwalk", "-f", str(path)], ["bound", "lemma22", "-f", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: cycle cover passed its budget of {CYCLE_COVER_BUDGET} vertex sets\n"


NOT_PRIMITIVE_ROWS = {
    "cycle(6)": (standard_cycle(6).rows, 6),
    "two looped 2-cycles": ((0b0011, 0b0001, 0b1100, 0b0100), 4),
    "acyclic": ((0b0110, 0b0100, 0b0000), 3),
}


@pytest.mark.parametrize("name", sorted(NOT_PRIMITIVE_ROWS))
def test_cwalk_and_lemma22_on_non_primitive_input_are_input_errors(capsys, tmp_path, name):
    rows, n = NOT_PRIMITIVE_ROWS[name]
    path = tmp_path / "m.txt"
    path.write_text(serialize_rows(rows, n))
    for argv in (["cwalk", "-f", str(path)], ["bound", "lemma22", "-f", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: digraph of order {n} is not primitive\n"


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
    path.write_text(serialize_rows(q1(10, 3).rows, 10))
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


@pytest.mark.parametrize("argv, message", [
    (("range-thm36", "--n", "10", "--g", "11"), "need 1 <= g <= n-1, got g=11, n=10"),
    (("range-thm36", "--n", "-4", "--g", "-2"), "need 1 <= g <= n-1, got g=-2, n=-4"),
    (("lemma34", "--n", "10", "--g", "-1"), "need g >= 1, got g=-1"),
], ids=["thm36-10-11", "thm36-neg4", "lemma34-neg1"])
def test_bound_outside_its_girth_window_is_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


# bound name -> (evaluator, options); the evaluator is named here, not read from BOUNDS
BOUND_CASES = {
    "lemma23": (lemma23_bound, {"n": 10, "g": 3}),
    "lemma25": (lemma25_bound, {"n": 10}),
    "lemma26": (lemma26_bound, {"n": 10, "g": 3, "q": 7}),
    "lemma32": (lemma32_bound, {"n": 10, "g": 3}),
    "lemma34": (lemma34_bound, {"n": 11, "g": 3}),
    "formula-thm33": (formula_thm33, {"n": 10, "g": 3, "r": 2}),
    "range-thm36": (thm36_range, {"n": 10, "g": 3}),
}


def test_bound_cases_cover_the_table():
    assert set(BOUND_CASES) == set(BOUNDS)


@pytest.mark.parametrize("which", sorted(BOUND_CASES))
def test_bound_verb_prints_the_evaluator(capsys, which):
    evaluator, options = BOUND_CASES[which]
    argv = [x for name, value in options.items() for x in (f"--{name}", str(value))]
    code, out, _ = run_cli(capsys, "bound", which, *argv)
    value = evaluator(**options)
    assert code == 0
    assert out == (",".join(map(str, value)) if isinstance(value, tuple) else str(value)) + "\n"
    # dropping the last option is an input error naming it
    code, out, err = run_cli(capsys, "bound", which, *argv[:-2])
    assert (code, out) == (3, "")
    assert err == f"error: missing required option {argv[-2]}\n"


def test_bound_missing_option_is_input_error(capsys):
    code, _, err = run_cli(capsys, "bound", "lemma23", "--n", "10")
    assert code == 3
    assert "--g" in err


def test_bound_lemma22_reads_matrix(capsys, tmp_path):
    path = tmp_path / "q1.txt"
    path.write_text(serialize_rows(q1(10, 3).rows, 10))
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


# kind -> (constructor, options); the constructor is named here, not read from KINDS
FAMILY_CASES = {
    "cycle": (families.standard_cycle, {"--n": 5}),
    "d1": (families.d1, {"--n": 6}),
    "d2": (families.d2, {"--n": 6}),
    "d_gN": (families.d_gN, {"--n": 10, "--g": 3, "--N": (1, 3)}),
    "q1": (families.q1, {"--n": 10, "--g": 3}),
    "q2": (families.q2, {"--n": 10, "--g": 3}),
    "h": (families.h_graph, {"--n": 10, "--g": 3, "--k": 5}),
    "chord": (families.chord_member, {"--n": 7, "--g": 3, "--mask": 5}),
}


def test_family_cases_cover_the_table():
    assert set(FAMILY_CASES) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(FAMILY_CASES))
def test_family_verb_prints_the_constructor(capsys, kind):
    constructor, options = FAMILY_CASES[kind]
    argv = [x for flag, value in options.items()
            for x in (flag, ",".join(map(str, value)) if flag == "--N" else str(value))]
    code, out, _ = run_cli(capsys, "family", kind, *argv)
    assert code == 0
    d = constructor(*options.values())
    assert out == serialize_rows(d.rows, d.order)
    code, out, err = run_cli(capsys, "family", kind, *argv[:-2])
    assert (code, out) == (3, "")
    assert err == f"error: missing required option {argv[-2]}\n"


def test_family_invariant_violation_is_input_error(capsys):
    code, _, err = run_cli(capsys, "family", "d_gN", "--n", "10", "--g", "5", "--N", "1")
    assert code == 3
    assert "gcd" in err


def test_family_order_past_the_cap_is_input_error(capsys):
    # Refused before any row is built: at this order the rows alone would
    # hold about 5 * 10^11 bits.
    code, out, err = run_cli(capsys, "family", "cycle", "--n", "1000000")
    assert (code, out) == (3, "")
    assert err == "error: order must be in [2, 64], got 1000000\n"


def test_iso_verb(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    from primexp.families import d_gN
    a.write_text(serialize_rows(d_gN(10, 3, {1}).rows, 10))
    b.write_text(serialize_rows(d_gN(10, 3, {3}).rows, 10))
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


def test_cycles_cap_below_one_is_input_error(capsys, d1_file):
    code, out, err = run_cli(capsys, "cycles", "-f", d1_file, "--cap", "0")
    assert (code, out) == (3, "")
    assert err == "error: cap must be >= 1, got 0\n"



def _cycles_text(cycles, n: int, cap_hit: bool) -> str:
    """The verbose ``cycles`` output, derived from a list of 1-based cycles."""
    lengths = sorted({len(c) for c in cycles})
    lines = [",".join(map(str, lengths)) if lengths else "none",
             f"count={len(cycles)} cap_hit={str(cap_hit).lower()}"]
    for v in range(1, n + 1):
        through = sorted({len(c) for c in cycles if v in c})
        lines.append(f"v{v}: {','.join(map(str, through)) if through else '-'}")
    return "\n".join(lines) + "\n"


def test_cycles_verbose_output_equals_the_listed_cycles(capsys, tmp_path):
    rng = random.Random(14)
    path = tmp_path / "d.txt"
    for trial in range(60):
        n = rng.randint(2, 12)
        p = rng.choice([0.15, 0.3, 0.45])
        rows = tuple(sum(1 << j for j in range(n) if rng.random() < p) for _ in range(n))
        d = from_matrix(BoolMatrix(n, rows))
        cap = rng.choice([3, 500, 10**6])
        path.write_text(serialize_rows(d.rows, d.order))
        cycles, profile = simple_cycles(d, cap=cap)
        code, out, _ = run_cli(capsys, "cycles", "-f", str(path), "--cap", str(cap), "--verbose")
        assert (code, out) == (0, _cycles_text(cycles, n, profile.cap_hit)), (rows, cap)


def test_cycles_cap_hit_only_past_the_cap(capsys, tmp_path):
    # The complete order-4 digraph with loops has 4 + 6 + 8 + 6 = 24 simple cycles.
    path = tmp_path / "k4.txt"
    path.write_text(serialize_rows(((1 << 4) - 1,) * 4, 4))
    for cap, hit in ((25, "false"), (24, "false"), (23, "true")):
        code, out, _ = run_cli(capsys, "cycles", "-f", str(path), "--cap", str(cap), "--verbose")
        assert code == 0
        assert out.splitlines()[1] == f"count={min(cap, 24)} cap_hit={hit}"


def test_cycles_verb_does_not_store_the_cycles(capsys, tmp_path):
    # Listing 50 000 cycles of about 63 vertices each would take some 30 MB.
    path = tmp_path / "k64.txt"
    path.write_text(serialize_rows(((1 << 64) - 1,) * 64, 64))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "cycles", "-f", str(path), "--cap", "50000", "--verbose")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.splitlines()[1] == "count=50000 cap_hit=true"
    assert peak < 10 * 2**20


@pytest.mark.parametrize("pairs", ["10", "10:3:1", "10:x", "10:3,"])
def test_verify_bounds_bad_chord_pairs_is_input_error(capsys, pairs):
    code, out, err = run_cli(capsys, "verify", "bounds", "--samples", "0", "--seed", "1",
                             "--chord-pairs", pairs)
    assert (code, out) == (3, "")
    assert err == f"error: bad chord pair list {pairs!r}\n"


@pytest.mark.parametrize("pairs", ["10:1", "10:10", "17:5", "10:3,17:2"])
def test_verify_bounds_chord_pair_out_of_range_is_input_error(capsys, monkeypatch, pairs):
    import primexp.verify as verify_module

    def no_universe(*args):
        raise AssertionError("the chord universes ran before the input check")

    monkeypatch.setattr(verify_module, "_chord_representatives", no_universe)
    code, out, err = run_cli(capsys, "verify", "bounds", "--samples", "0", "--seed", "1",
                             "--chord-pairs", pairs)
    bad = pairs.split(",")[-1]
    assert (code, out) == (3, "")
    assert err == f"error: chord pair {bad} needs 2 <= g <= n-1 and n <= 16\n"


@pytest.mark.parametrize("option, value, message", [
    ("--n-max", "1", "n_max must be in 2..10, got 1"),
    ("--samples", "-3", "samples must be >= 0, got -3"),
], ids=["n-max", "samples"])
def test_verify_bounds_bad_size_is_input_error(capsys, monkeypatch, option, value, message):
    import primexp.verify as verify_module

    def no_universe(*args):
        raise AssertionError("the chord universes ran before the input check")

    monkeypatch.setattr(verify_module, "_chord_representatives", no_universe)
    code, out, err = run_cli(capsys, "verify", "bounds", "--seed", "1", option, value)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("bounds", "--seed", "1", "--jobs", "0"),
    ("lemma24", "--jobs", "-1"),
    ("census", "--n", "2", "--jobs", "0"),
    ("thm33", "--jobs", "2"),
    ("lemma34", "--jobs", "2"),
    ("thm36", "--n", "7", "--g", "3", "--jobs", "2"),
], ids=["bounds-0", "lemma24-neg", "census-0", "thm33", "lemma34", "thm36"])
def test_jobs_below_one_or_on_a_serial_verb_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_lemma24_jobs_has_no_effect_on_the_output(capsys):
    code, plain, _ = run_cli(capsys, "verify", "lemma24", "--n", "5")
    assert code == 0
    assert run_cli(capsys, "verify", "lemma24", "--n", "5", "--jobs", "2") == (0, plain, "")


def test_verify_thm33_above_the_order_cap_is_input_error(capsys, monkeypatch):
    import primexp.verify as verify_module

    def no_work(*args):
        raise AssertionError("a chord set was enumerated before the order check")

    monkeypatch.setattr(verify_module, "_chord_rows", no_work)
    cap = verify_module.THM33_ORDER_CAP
    code, out, err = run_cli(capsys, "verify", "thm33", "--n-max", str(cap + 1))
    assert (code, out, err) == (3, "", f"error: n_max must be at most {cap}, got {cap + 1}\n")


@pytest.mark.parametrize("argv, message", [
    (("thm36", "--n", "17", "--g", "4"), "n must be at most 16, the chord universe cap, got 17"),
    (("thm36", "--n", "40", "--g", "19"), "n must be at most 16, the chord universe cap, got 40"),
    (("thm36", "--n", "10", "--g", "11"), "g must lie in 2..9, got 11"),
    (("thm36", "--n", "10", "--g", "1"), "g must lie in 2..9, got 1"),
    (("thm36", "--n", "-5", "--g", "2"), "n must be at least 4, got -5"),
    (("thm36", "--n", "3", "--g", "2"), "n must be at least 4, got 3"),
    (("lemma34", "--n-max", "65"), "n_max must be at most 64, got 65"),
    (("lemma34", "--n-max", "1"), "n_max must be at least 2, got 1"),
    (("thm33", "--n-min", "9", "--n-max", "5"), "n_min must be at most n_max, got n_min=9, n_max=5"),
    (("thm33", "--n-min", "2", "--n-max", "2"), "n_min must be at least 3, got 2"),
    (("thm33", "--n-min", "-3", "--n-max", "3"), "n_min must be at least 3, got -3"),
    (("lemma24", "--n", "3"), "supported orders are 4..64, got 3"),
    (("lemma24", "--n", "65"), "supported orders are 4..64, got 65"),
    (("bounds", "--chord-pairs", "7:3,7:3", "--samples", "0", "--seed", "1"),
     "chord pair 7:3 is repeated"),
], ids=["thm36-17", "thm36-40", "thm36-10-11", "thm36-10-1", "thm36-neg5", "thm36-3",
        "lemma34-65", "lemma34-1", "thm33-9-5", "thm33-2-2", "thm33--3-3", "lemma24-3",
        "lemma24-65", "bounds-7:3-twice"])
def test_verify_above_a_verb_order_cap_is_input_error_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "girth", "-f", str(tmp_path / "nope.txt"))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("family", "cycle", "--n", "5", "-o"),
    ("verify", "lemma24", "--n", "4", "--out"),
    ("verify", "census", "--n", "3", "--out"),
], ids=["family", "lemma24", "census"])
def test_unwritable_output_path_is_input_error(capsys, tmp_path, argv):
    # An output path that cannot be opened exits 3 with one error line, as
    # an unreadable matrix file does, not 1 with a traceback.
    path = tmp_path / "missing" / "out.jsonl"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


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


def test_verify_bounds_to_stdout(capsys, tmp_path):
    argv = ("verify", "bounds", "--n-max", "5", "--samples", "10", "--seed", "7",
            "--chord-pairs", "5:2,5:3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["instance"].split(":")[0] for r in rows} == {"chord", "rand"}
    path = tmp_path / "b.jsonl"
    code, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_verify_bounds_on_imprimitive_chord_pairs_is_pinned(capsys, tmp_path):
    # gcd(10, 4) = 2 and gcd(9, 3) = 3: every member of both universes is
    # imprimitive, so the report has no entry and the summary only its header.
    argv = ("verify", "bounds", "--chord-pairs", "10:4,9:3", "--samples", "0", "--seed", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    path = tmp_path / "b.jsonl"
    code, _, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()
    assert hashlib.sha256((tmp_path / "b.csv").read_bytes()).hexdigest() == (
        "628bd1c9eb19912d074efb9e73308dd9e9bf5983c9702fdc957bd6ae669313e1")


def test_verify_bounds_at_random_orders_nine_and_ten_is_pinned(capsys):
    # Two chord universes of orders 12 and 13, then a random sweep that
    # reaches orders 9 and 10; each order's covers come from one lane pass.
    code, out, _ = run_cli(capsys, "verify", "bounds", "--chord-pairs", "12:5,13:4",
                           "--samples", "300", "--n-max", "10", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86e5ce3855ccef8715b898e656a8d836c064fe6d133cfc42982592c6efa9d209")


def test_verify_census_verb(capsys, tmp_path):
    out = tmp_path / "census.jsonl"
    code, _, _ = run_cli(capsys, "verify", "census", "--n", "2", "--out", str(out))
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2
    assert (tmp_path / "census.csv").read_text().startswith("n,canonical")


@pytest.mark.parametrize("argv", [
    ("census", "--n", "4", "--long"),
    ("census", "--n", "3", "--start", "0"),
    ("census", "--n", "3", "--end", "8"),
], ids=["census-long", "census-start", "census-end"])
def test_removed_census_range_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2


def test_verify_census_order_six_is_input_error(capsys):
    code, out, err = run_cli(capsys, "verify", "census", "--n", "6")
    assert (code, out, err) == (3, "", "error: census supports orders 2..5, got 6\n")


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
