"""Machine-readable claim-check records and their JSON-lines/CSV stores.

A report is a flat list of rows; each row compares one predicted quantity
against one oracle value under a stated comparison rule.  Rows marked
``asserted`` are hard checks: any disagreement makes the whole run fail.
Everything else is reported as data.  Output is deterministic: rows are
sorted by (claim, instance) and serialized with sorted keys.

Each JSON line equals ``json.dumps(row.to_json_obj(), sort_keys=True,
separators=(",", ":"))`` but is built from cached fragments: one
``str.format`` pattern per tuple of param names, with the keys already in
sorted order, and the encoded fields of each distinct check (claim,
predicted, oracle, agree, asserted, rule, notes), so that each row encodes
only its instance and its param values.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter

CLAIM_IDS = (
    "L2.2", "L2.3", "L2.4", "L2.5", "C2.1", "L2.6",
    "L3.2", "T3.3", "L3.4", "T3.6", "C3.7", "C3.8",
)

Scalar = int | str | None
Value = Scalar | list


@dataclass(slots=True)
class VerificationRow:
    """One claim-check record: predicted vs oracle plus an agree flag.

    The agree flag is always recomputable from predicted and oracle alone
    given the rule: "eq" (formulas), "le" (upper bounds: oracle <= predicted)
    or "member" (classification: oracle is not the string "none").
    """

    claim: str
    instance: str
    predicted: Value
    oracle: Value
    agree: bool
    asserted: bool
    rule: str = "eq"
    notes: str = ""
    params: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "claim": self.claim,
            "instance": self.instance,
            "predicted": self.predicted,
            "oracle": self.oracle,
            "agree": self.agree,
            "asserted": self.asserted,
            "rule": self.rule,
            "notes": self.notes,
        }
        obj.update(self.params)
        return obj


def compare(rule: str, predicted: Value, oracle: Value) -> bool:
    if rule == "eq":
        return predicted == oracle
    if rule == "le":
        return isinstance(oracle, int) and isinstance(predicted, int) and oracle <= predicted
    if rule == "member":
        return oracle != "none"
    raise ValueError(f"unknown comparison rule {rule!r}")


def make_row(
    claim: str,
    instance: str,
    predicted: Value,
    oracle: Value,
    *,
    asserted: bool,
    rule: str = "eq",
    notes: str = "",
    **params,
) -> VerificationRow:
    if claim not in CLAIM_IDS:
        raise ValueError(f"unknown claim id {claim!r}")
    return VerificationRow(
        claim=claim,
        instance=instance,
        predicted=predicted,
        oracle=oracle,
        agree=compare(rule, predicted, oracle),
        asserted=asserted,
        rule=rule,
        notes=notes,
        params=dict(params),
    )


# The fields of a row that do not depend on its instance.
_CHECK_FIELDS = ("claim", "predicted", "oracle", "agree", "asserted", "rule", "notes")
_check_of = attrgetter(*_CHECK_FIELDS)
# A check's encoding is cached only when each value is of one of these
# classes.  True == 1 == 1.0 in a dict, so the key holds each value's class
# too, and floats stay out because 0.0 == -0.0 encode differently.
_CACHEABLE = frozenset((str, int, bool, type(None)))
_encode_other = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    return _encode_other(value)


def _line_pattern(names: tuple[str, ...]) -> str:
    """``str.format`` pattern of a JSON line with params ``names``.

    Fields 0..6 are the encoded check, 7 the instance and 8 + i param i.
    The keys are in sorted order, and a param replaces the base key of the
    same name, as ``obj.update(params)`` does in ``to_json_obj``.
    """
    fields = {key: i for i, key in enumerate(_CHECK_FIELDS)}
    fields["instance"] = len(_CHECK_FIELDS)
    for i, name in enumerate(names, start=len(fields)):
        fields[name] = i
    members = ",".join(
        encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + f":{{{fields[key]}}}"
        for key in sorted(fields)
    )
    return "{{" + members + "}}"


@dataclass
class Report:
    rows: list[VerificationRow] = field(default_factory=list)

    def add(self, row: VerificationRow) -> None:
        self.rows.append(row)

    def sorted_rows(self) -> list[VerificationRow]:
        return sorted(self.rows, key=attrgetter("claim", "instance"))

    @property
    def all_asserts_pass(self) -> bool:
        return all(r.agree for r in self.rows if r.asserted)

    def failures(self) -> list[VerificationRow]:
        return [r for r in self.sorted_rows() if r.asserted and not r.agree]

    def to_jsonl(self) -> str:
        patterns: dict[tuple[str, ...], str] = {}
        # Rows of one instance often share a params dict; every dict stays
        # alive in self.rows, so its id is a key for the call.
        by_params: dict[int, tuple[str, list[str]]] = {}
        checks: dict[tuple, tuple[str, ...]] = {}
        lines = []
        for row in self.sorted_rows():
            params = row.params
            entry = by_params.get(id(params))
            if entry is None:
                names = tuple(params)
                pattern = patterns.get(names)
                if pattern is None:
                    pattern = patterns[names] = _line_pattern(names)
                entry = by_params[id(params)] = (pattern, list(map(_encode, params.values())))
            pattern, encoded_params = entry
            check = _check_of(row)
            key = check + tuple(map(type, check))
            try:
                encoded = checks.get(key)
            except TypeError:  # a list value: encode it for this row alone
                encoded = key = None
            if encoded is None:
                encoded = tuple(map(_encode, check))
                if key is not None and _CACHEABLE.issuperset(key[len(check):]):
                    checks[key] = encoded
            lines.append(pattern.format(*encoded, _encode(row.instance), *encoded_params))
        return "\n".join(lines) + ("\n" if lines else "")

    def summary_counts(self) -> list[tuple[str, int, int, int]]:
        """(claim, agree, total, asserted_disagree) per claim id, sorted."""
        stats: dict[str, list[int]] = {}
        for row in self.rows:
            entry = stats.setdefault(row.claim, [0, 0, 0])
            entry[1] += 1
            if row.agree:
                entry[0] += 1
            if row.asserted and not row.agree:
                entry[2] += 1
        return [(claim, v[0], v[1], v[2]) for claim, v in sorted(stats.items())]

    def to_summary_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["claim", "agree", "total", "assert_failures"])
        for claim, agree, total, hard in self.summary_counts():
            writer.writerow([claim, agree, total, hard])
        return buffer.getvalue()

    def write(self, jsonl_path: str, csv_path: str | None = None) -> None:
        with open(jsonl_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_jsonl())
        if csv_path is not None:
            with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(self.to_summary_csv())


@dataclass(frozen=True)
class CensusRow:
    """One isomorphism class of primitive digraphs in an exhaustive census."""

    order: int
    canonical_bits: str
    girth: int
    cycle_lengths: tuple[int, ...]
    exponent: int
    labeled_count: int

    def to_json_obj(self) -> dict:
        return {
            "kind": "census",
            "n": self.order,
            "canonical": self.canonical_bits,
            "girth": self.girth,
            "cycles": list(self.cycle_lengths),
            "exp": self.exponent,
            "count": self.labeled_count,
        }


def _census_order(rows: list[CensusRow]) -> list[CensusRow]:
    return sorted(rows, key=attrgetter("order", "canonical_bits"))


def census_to_jsonl(rows: list[CensusRow]) -> str:
    """``json.dumps(row.to_json_obj(), sort_keys=True, separators=(",", ":"))`` per row.

    Every field but the canonical string is an int, and that string holds
    only 0 and 1, so no value needs escaping and each line is one fixed
    pattern with the keys in sorted order.
    """
    pattern = '{"canonical":"%s","count":%d,"cycles":[%s],"exp":%d,"girth":%d,"kind":"census","n":%d}'
    lines = [
        pattern % (row.canonical_bits, row.labeled_count, ",".join(map(str, row.cycle_lengths)),
                   row.exponent, row.girth, row.order)
        for row in _census_order(rows)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def census_to_csv(rows: list[CensusRow]) -> str:
    """The header and one ``csv.writer`` line per row.

    No field holds a comma, a quote or a line break, so none is quoted.
    """
    pattern = "%d,%s,%d,%s,%d,%d\n"
    return "n,canonical,girth,cycles,exp,count\n" + "".join(
        pattern % (row.order, row.canonical_bits, row.girth, " ".join(map(str, row.cycle_lengths)),
                   row.exponent, row.labeled_count)
        for row in _census_order(rows)
    )
