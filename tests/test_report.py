from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primexp.report import (
    CLAIM_IDS,
    CensusRow,
    Report,
    VerificationRow,
    census_to_csv,
    census_to_jsonl,
    compare,
    make_row,
)
from primexp.verify import census, verify_bounds, verify_lemma24, verify_thm33


def test_agree_flag_recomputable_from_predicted_and_oracle():
    row = make_row("L2.3", "x", 34, 30, asserted=True, rule="le")
    assert row.agree == compare(row.rule, row.predicted, row.oracle)
    row = make_row("T3.3", "y", 32, 34, asserted=False)
    assert not row.agree
    row = make_row("C3.7", "z", "member-of-D^1", "none", asserted=False, rule="member")
    assert not row.agree


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        make_row("L9.9", "x", 1, 1, asserted=False)


def test_report_sorting_and_exit_semantics():
    report = Report()
    report.add(make_row("T3.3", "b", 1, 2, asserted=False))
    report.add(make_row("L2.3", "a", 5, 4, asserted=True, rule="le"))
    report.add(make_row("L2.2", "c", 3, 9, asserted=True, rule="le"))
    assert [r.claim for r in report.sorted_rows()] == ["L2.2", "L2.3", "T3.3"]
    assert not report.all_asserts_pass
    assert [r.claim for r in report.failures()] == ["L2.2"]


class _CountingChecks(list):
    """A checks list that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_all_asserts_pass_reads_each_shared_checks_list_once():
    failing = _CountingChecks([make_row("L2.3", "", 5, 9, asserted=True, rule="le"),
                               make_row("T3.3", "", 1, 2, asserted=False)])
    passing = _CountingChecks([make_row("L2.3", "", 9, 5, asserted=True, rule="le")])
    unasserted = _CountingChecks([make_row("T3.3", "", 1, 2, asserted=False)])
    for lists, expected in (([passing, unasserted], True), ([passing, failing, unasserted], False)):
        entries = [(f"i{k}", {"n": k}, lists[k % len(lists)]) for k in range(9)]
        for checks in lists:
            checks.walks = 0
        report = Report(entries)
        rows = [c for _, _, checks in entries for c in list.__iter__(checks)]
        # the row-by-row definition
        assert report.all_asserts_pass == all(r.agree for r in rows if r.asserted) == expected
        # each shared list is walked at most once by the one call above, and
        # exactly once when nothing fails
        assert all(checks.walks == 1 if expected else checks.walks <= 1 for checks in lists)


def test_jsonl_is_sorted_and_parseable():
    report = Report()
    report.add(make_row("T3.3", "inst", 32, 34, asserted=False, n=10, g=3, N=[3]))
    text = report.to_jsonl()
    obj = json.loads(text)
    assert obj["claim"] == "T3.3"
    assert obj["N"] == [3]
    assert obj["predicted"] == 32 and obj["oracle"] == 34
    assert obj["agree"] is False
    assert text.endswith("\n")


def test_summary_csv():
    report = Report()
    report.add(make_row("L2.3", "a", 5, 4, asserted=True, rule="le"))
    report.add(make_row("L2.3", "b", 5, 6, asserted=True, rule="le"))
    report.add(make_row("T3.3", "c", 1, 1, asserted=False))
    csv_text = report.to_summary_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "claim,agree,total,assert_failures"
    assert "L2.3,1,2,1" in lines
    assert "T3.3,1,1,0" in lines


def test_census_serialization_round_trip():
    rows = [
        CensusRow(2, "0111", 1, (1, 2), 2, 2),
        CensusRow(2, "1111", 1, (1, 2), 1, 1),
    ]
    text = census_to_jsonl(rows)
    objs = [json.loads(line) for line in text.strip().split("\n")]
    assert [o["canonical"] for o in objs] == ["0111", "1111"]
    csv_text = census_to_csv(rows)
    assert csv_text.splitlines()[0] == "n,canonical,girth,cycles,exp,count"


# -- JSON-line encoder ----------------------------------------------------------
# The oracle is the plain encoder: one json.dumps per row, with sorted keys.

def _dumps(row) -> str:
    return json.dumps(row.to_json_obj(), sort_keys=True, separators=(",", ":"))


def _dumps_jsonl(report: Report) -> str:
    lines = [_dumps(row) for row in sorted(report.rows, key=lambda r: (r.claim, r.instance))]
    return "\n".join(lines) + ("\n" if lines else "")


def _report(rows) -> Report:
    report = Report()
    for row in rows:
        report.add(row)
    return report


def _assert_lines_match_the_oracle(report: Report) -> None:
    text = report.to_jsonl()
    assert text.split("\n")[:-1] == [_dumps(row) for row in report.sorted_rows()]
    assert text == _dumps_jsonl(report)


def test_jsonl_lines_equal_json_dumps_of_each_row():
    shared = {"n": 6, "p": 0.1, "seed": 3}
    report = _report([
        # equal values of different classes under one claim
        make_row("L2.3", "eq:true", True, True, asserted=False),
        make_row("L2.3", "eq:one", 1, 1, asserted=False),
        make_row("L2.3", "eq:float", 1.0, 1.0, asserted=False),
        make_row("L2.3", "eq:mixed", 1, True, asserted=False),
        make_row("L2.3", "eq:zero", 0.0, 0, asserted=False),
        make_row("L2.3", "eq:negzero", -0.0, 0, asserted=False),
        make_row("L2.3", "eq:nonfinite", float("inf"), float("nan"), asserted=False),
        VerificationRow("L2.3", "eq:int-asserted", 1, 1, True, 1),
        VerificationRow("L2.3", "eq:bool-asserted", 1, 1, True, True),
        # lists and None
        make_row("T3.6", "cycleset", [3, 10], [3, 10], asserted=True, n=10, g=3, mask=5),
        make_row("T3.6", "cycleset-other", [3, 10], [2, 10], asserted=True, n=10, g=3, mask=6),
        make_row("L2.2", "skipped", None, None, asserted=False, notes="skipped: too many"),
        # characters that need escaping, in notes, instance and string params
        make_row("C3.7", 'in{st}"an\\ce-é', "member-of-D^1", "none", asserted=False,
                 rule="member", notes='n{o}"t\\e ü ✓', label='v{a}l"u\\e ß'),
        # a float param, rows sharing one params dict, and other param sets
        VerificationRow("L2.3", "rand:1", 5, 4, False, True, "le", "", shared),
        VerificationRow("L2.6", "rand:1", 7, 4, True, True, "le", "", shared),
        make_row("T3.3", "chord", 32, 34, asserted=False, n=10, g=3, N=[1, 3], r=3),
        # params sorting before, between and after the base keys
        make_row("L3.4", "order", 1, 1, asserted=True, AA=0, inz=1, ora=2, zz=3),
        # a param named like a base key replaces it
        make_row("L3.2", "override", 4, 5, asserted=True, agree="forced"),
        make_row("L3.2", "override", 4, 5, asserted=True, agree=None, k={"b": 1, "a": 2}),
        make_row("L3.2", "brace-key", 4, 5, asserted=True, **{"{0}": 1, 'q"k': 2}),
        # percent signs, which a line's % pattern must keep literal
        make_row("C3.7", "pct:%s%%%(n)s%", "100%", "%s", asserted=False, rule="member",
                 notes="50% of %(n)s, %% and %s", label="%(n)s%", n=5),
        make_row("C3.7", "pct:%s%%%(n)s%", "100%", "%s", asserted=False, rule="member",
                 notes="%", **{"%": "%%", "%(n)s": 1, "%s": "%s"}),
        VerificationRow("L2.3", "%", "%%", ["%s"], False, False, "eq", "%(notes)s", shared),
    ])
    _assert_lines_match_the_oracle(report)


def test_jsonl_of_an_empty_report_is_empty():
    assert Report().to_jsonl() == "" == _dumps_jsonl(Report())


@pytest.mark.parametrize("run", [
    lambda: verify_bounds(n_max=6, samples=60, seed=3),
    lambda: verify_thm33(n_min=5, n_max=6),
    lambda: verify_lemma24(4),
    Report,
], ids=["bounds", "thm33", "lemma24", "empty"])
def test_write_gives_the_bytes_of_to_jsonl_and_to_summary_csv(run, tmp_path):
    report = run()
    jsonl, summary = tmp_path / "r.jsonl", tmp_path / "r.csv"
    report.write(str(jsonl), str(summary))
    assert jsonl.read_bytes() == report.to_jsonl().encode()
    assert summary.read_bytes() == report.to_summary_csv().encode()


_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1.0, 0.1, 2.5]),
    st.text(max_size=4), st.sampled_from(["%", "%s", "%%", "%(n)s"]),
    st.lists(st.integers(-2, 2), max_size=3),
)
_names = st.sampled_from(
    ["AA", "N", "agree", "claim", "instance", "mask", "n", "notes", "p", "z", "{", 'k"',
     "%", "%s", "%%", "%(n)s"]
)


@settings(max_examples=80)
@given(st.lists(st.tuples(
    st.sampled_from(CLAIM_IDS[:3]), st.sampled_from(["a", "b", "é{", "c", "%", "%s", "%%", "%(n)s"]),
    _values, _values, _values, _values, st.sampled_from(["eq", "le"]),
    st.sampled_from(["", "x", "%", "%s", "%%", "%(n)s"]),
    st.dictionaries(_names, _values, max_size=4),
), max_size=12))
def test_jsonl_lines_equal_json_dumps_on_random_rows(fields):
    _assert_lines_match_the_oracle(_report([VerificationRow(*f) for f in fields]))


# -- entries: one per instance, holding checks that other entries may share ------

_checks = st.builds(
    VerificationRow, claim=st.sampled_from(CLAIM_IDS[:4]), instance=st.just(""),
    predicted=_values, oracle=_values, agree=st.booleans(), asserted=st.booleans(),
    rule=st.sampled_from(["eq", "le"]),
    notes=st.sampled_from(["", "n{0}", "%", "%s", "%%", "%(n)s"]),
)
# Two param-name sets: one with a float, one with a list and a base key's name.
_params = st.one_of(
    st.fixed_dictionaries({"n": st.integers(2, 9), "p": st.sampled_from([0.05, 0.1, -0.0, 2.5e-7]),
                           "seed": st.integers(0, 3)}),
    st.fixed_dictionaries({"n": st.integers(2, 9), "agree": _values,
                           "N": st.lists(st.integers(1, 9), max_size=3)}),
    # percent signs in param keys and string values
    st.fixed_dictionaries({"%(n)s": _values, "%": st.sampled_from(["%", "%s", "%%", "%(n)s"]),
                           "%s": st.integers(0, 3)}),
)
_instances = st.sampled_from(["chord:7:3:5", "rand:000001:ab", "é✓", "a",
                              "%", "%s", "%%", "%(n)s"])


@st.composite
def _entries(draw):
    """Entries whose checks lists come from a small shared pool."""
    pool = draw(st.lists(st.lists(_checks, max_size=4), min_size=1, max_size=3))
    entries = [(draw(_instances), draw(_params), draw(st.sampled_from(pool)))
               for _ in range(draw(st.integers(0, 10)))]
    if draw(st.booleans()):
        # one failing asserted template, shared by three instances
        failing = [make_row("L2.3", "", 5, 9, asserted=True, rule="le")]
        for instance in ("a", "é✓", "a"):
            entries.insert(draw(st.integers(0, len(entries))), (instance, draw(_params), failing))
    return entries


@settings(max_examples=150)
@given(_entries())
def test_entries_report_equals_the_oracle_over_their_expanded_rows(entries):
    report = Report(entries)
    rows = [
        VerificationRow(c.claim, instance, c.predicted, c.oracle, c.agree, c.asserted,
                        c.rule, c.notes, params)
        for instance, params, checks in entries for c in checks
    ]
    ordered = sorted(rows, key=lambda r: (r.claim, r.instance))
    assert report.rows == rows
    assert report.to_jsonl() == "".join(_dumps(row) + "\n" for row in ordered)
    assert report.failures() == [r for r in ordered if r.asserted and not r.agree]
    assert report.all_asserts_pass == all(r.agree for r in rows if r.asserted)
    counts = {}
    for row in rows:
        agree, total, hard = counts.get(row.claim, (0, 0, 0))
        counts[row.claim] = (agree + row.agree, total + 1, hard + (row.asserted and not row.agree))
    assert report.summary_counts() == [(claim, *counts[claim]) for claim in sorted(counts)]


# -- census serializers -----------------------------------------------------------
# The oracles are json.dumps with sorted keys and csv.writer, one row each.

def _census_jsonl_oracle(rows) -> str:
    ordered = sorted(rows, key=lambda r: (r.order, r.canonical_bits))
    return "".join(_dumps(row) + "\n" for row in ordered)


def _census_csv_oracle(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "canonical", "girth", "cycles", "exp", "count"])
    for row in sorted(rows, key=lambda r: (r.order, r.canonical_bits)):
        writer.writerow([row.order, row.canonical_bits, row.girth,
                         " ".join(str(x) for x in row.cycle_lengths), row.exponent,
                         row.labeled_count])
    return buffer.getvalue()


def test_census_serializers_equal_the_oracles_on_the_order_four_census():
    rows = census(4)
    assert census_to_jsonl(rows) == _census_jsonl_oracle(rows)
    assert census_to_csv(rows) == _census_csv_oracle(rows)


def test_census_serializers_of_no_rows():
    assert census_to_jsonl([]) == _census_jsonl_oracle([]) == ""
    assert census_to_csv([]) == _census_csv_oracle([])


_census_rows = st.builds(
    CensusRow,
    order=st.integers(2, 64),
    canonical_bits=st.text("01", min_size=1, max_size=80),
    girth=st.integers(1, 64),
    cycle_lengths=st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True).map(
        lambda lengths: tuple(sorted(lengths))),
    exponent=st.integers(1, 4000),
    labeled_count=st.integers(1, 10**9),
)


@settings(max_examples=150)
@given(st.lists(_census_rows, max_size=8))
def test_census_serializers_equal_the_oracles_on_random_rows(rows):
    assert census_to_jsonl(rows) == _census_jsonl_oracle(rows)
    assert census_to_csv(rows) == _census_csv_oracle(rows)
