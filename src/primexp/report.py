"""Machine-readable claim-check records and their JSON-lines/CSV stores.

A report is a list of rows; each row compares one predicted quantity
against one oracle value under a stated comparison rule.  Rows marked
``asserted`` are hard checks: any disagreement makes the whole run fail.
Everything else is reported as data.  Output is deterministic: rows are
sorted by (claim, instance) and serialized with sorted keys.

The rows are stored as entries, one per instance: its label, its params
and its checks.  Every row of an instance differs from its check only in
the instance and params, so the bound suite hands each instance the one
fact list it computed, and instances with equal facts share it.

Each JSON line equals ``json.dumps(row.to_json_obj(), sort_keys=True,
separators=(",", ":"))`` but is built from cached fragments: one ``%``
pattern per check and tuple of param names, with the keys already in
sorted order, the check's fields (claim, predicted, oracle, agree,
asserted, rule, notes) filled in and a ``%s`` slot for the instance and
each param, so that each row encodes only its instance and its param
values, once per entry, and each line is one ``%`` format.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

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
    if cls is float and math.isfinite(value):  # json's own rule for finite floats
        return float.__repr__(value)
    return _encode_other(value)


def _escape(text: str) -> str:
    """``text`` as literal text of a ``%`` pattern."""
    return text.replace("%", "%%")


def _check_fields(check: VerificationRow, cache: dict[tuple, tuple[str, ...]]) -> tuple[str, ...]:
    """The fields ``_CHECK_FIELDS`` of ``check``, encoded and escaped, through ``cache``."""
    values = _check_of(check)
    key = values + tuple(map(type, values))
    try:
        fields = cache.get(key)
    except TypeError:  # a list value: encode it for this check alone
        return tuple(_escape(_encode(value)) for value in values)
    if fields is None:
        fields = tuple(_escape(_encode(value)) for value in values)
        if _CACHEABLE.issuperset(key[len(values):]):
            cache[key] = fields
    return fields


def _line_pattern(names: tuple[str, ...]) -> tuple[str, itemgetter]:
    """(``str.format`` pattern, slot getter) of the lines of rows with params ``names``.

    Formatted with a check's ``_check_fields``, the pattern gives that
    check's line pattern: a ``%`` pattern with one ``%s`` slot per key an
    entry fills, its instance and each param, in sorted-key order, ending
    in a newline.  The getter takes (instance, *param values) to the
    values of those slots, in order.  A param replaces the base key of the
    same name, as ``obj.update(params)`` does in ``to_json_obj``.
    """
    # A check field's str.format field, or the index of an entry's value.
    fields: dict[str, str | int] = {key: f"{{{i}}}" for i, key in enumerate(_CHECK_FIELDS)}
    fields["instance"] = 0
    for i, name in enumerate(names, start=1):
        fields[name] = i
    members = []
    slots = []
    for key in sorted(fields):
        value = fields[key]
        if isinstance(value, int):
            slots.append(value)
            value = "%s"
        literal = _escape(encode_basestring_ascii(key)).replace("{", "{{").replace("}", "}}")
        members.append(literal + ":" + value)
    return "{{" + ",".join(members) + "}}\n", itemgetter(*slots)


# The rows of one instance: (instance, params, checks).  Each check is a
# VerificationRow whose own instance and params are not read; the entry
# stands for one row per check, under the entry's instance and params.
# Entries may share one checks list and so the VerificationRows in it.
Entry = tuple[str, dict, Sequence[VerificationRow]]


@dataclass
class Report:
    entries: list[Entry] = field(default_factory=list)

    def add(self, row: VerificationRow) -> None:
        self.entries.append((row.instance, row.params, (row,)))

    @property
    def rows(self) -> list[VerificationRow]:
        """One row per check of each entry, in entry order."""
        return [
            VerificationRow(c.claim, instance, c.predicted, c.oracle, c.agree,
                            c.asserted, c.rule, c.notes, params)
            for instance, params, checks in self.entries
            for c in checks
        ]

    def sorted_rows(self) -> list[VerificationRow]:
        return sorted(self.rows, key=attrgetter("claim", "instance"))

    @property
    def all_asserts_pass(self) -> bool:
        """No asserted check disagrees; a checks list shared by entries is read once."""
        lists = {id(checks): checks for _, _, checks in self.entries}.values()
        return all(c.agree for checks in lists for c in checks if c.asserted)

    def failures(self) -> list[VerificationRow]:
        return [r for r in self.sorted_rows() if r.asserted and not r.agree]

    def _jsonl_buckets(self) -> list[list[str]]:
        """The JSON lines of ``to_jsonl``, each ending in a newline, per claim in claim order.

        Each entry's instance and params are encoded once, and each (checks,
        param names) pair gets one ``%`` pattern per check with only the
        instance and the params left open, so a line is one ``%`` format.
        Entries are sorted by instance, stably, and each line goes to its
        claim's bucket, so the buckets in claim order are sorted by
        (claim, instance) with ties in row order.
        """
        line_patterns: dict[tuple[str, ...], tuple[str, itemgetter]] = {}
        check_fields: dict[tuple, tuple[str, ...]] = {}
        # Every checks object stays alive in self.entries, so its id is a
        # key for the call.
        fact_patterns: dict[tuple[int, tuple[str, ...]], tuple[itemgetter, list]] = {}
        buckets: dict[str, list[str]] = {}
        for instance, params, checks in sorted(self.entries, key=itemgetter(0)):
            names = tuple(params)
            found = fact_patterns.get((id(checks), names))
            if found is None:
                layout = line_patterns.get(names)
                if layout is None:
                    layout = line_patterns[names] = _line_pattern(names)
                line, slots = layout
                found = fact_patterns[id(checks), names] = slots, [
                    (buckets.setdefault(check.claim, []).append,
                     line.format(*_check_fields(check, check_fields)))
                    for check in checks
                ]
            slots, patterns = found
            encoded = slots((_encode(instance), *map(_encode, params.values())))
            for append, pattern in patterns:
                append(pattern % encoded)
        return [buckets[claim] for claim in sorted(buckets)]

    def to_jsonl(self) -> str:
        """One JSON line per row, in the order of ``sorted_rows``."""
        return "".join(map("".join, self._jsonl_buckets()))

    def summary_counts(self) -> list[tuple[str, int, int, int]]:
        """(claim, agree, total, asserted_disagree) per claim id, sorted.

        Entries may share one checks list, so each list is counted once,
        times the number of entries that hold it.
        """
        lists = [checks for _, _, checks in self.entries]
        holders = Counter(map(id, lists))
        stats: dict[str, list[int]] = {}
        for checks in {id(checks): checks for checks in lists}.values():
            times = holders[id(checks)]
            for check in checks:
                entry = stats.setdefault(check.claim, [0, 0, 0])
                entry[1] += times
                if check.agree:
                    entry[0] += times
                if check.asserted and not check.agree:
                    entry[2] += times
        return [(claim, v[0], v[1], v[2]) for claim, v in sorted(stats.items())]

    def to_summary_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["claim", "agree", "total", "assert_failures"])
        for claim, agree, total, hard in self.summary_counts():
            writer.writerow([claim, agree, total, hard])
        return buffer.getvalue()

    def write_jsonl(self, fh) -> None:
        """Write ``to_jsonl`` to the text stream ``fh`` bucket by bucket, never joined."""
        for bucket in self._jsonl_buckets():
            fh.writelines(bucket)

    def write(self, jsonl_path: str, csv_path: str | None = None) -> None:
        with open(jsonl_path, "w", encoding="utf-8", newline="") as fh:
            self.write_jsonl(fh)
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


def _cycle_texts(rows: list[CensusRow], sep: str) -> dict[tuple[int, ...], str]:
    """Each distinct cycle-length tuple of the rows, joined by sep once."""
    return {lengths: sep.join(map(str, lengths)) for lengths in {row.cycle_lengths for row in rows}}


def census_to_jsonl(rows: list[CensusRow]) -> str:
    """``json.dumps(row.to_json_obj(), sort_keys=True, separators=(",", ":"))`` per row.

    Every field but the canonical string is an int, and that string holds
    only 0 and 1, so no value needs escaping and each line is one fixed
    pattern with the keys in sorted order.
    """
    pattern = '{"canonical":"%s","count":%d,"cycles":[%s],"exp":%d,"girth":%d,"kind":"census","n":%d}'
    cycles = _cycle_texts(rows, ",")
    lines = [
        pattern % (row.canonical_bits, row.labeled_count, cycles[row.cycle_lengths],
                   row.exponent, row.girth, row.order)
        for row in _census_order(rows)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def census_to_csv(rows: list[CensusRow]) -> str:
    """The header and one ``csv.writer`` line per row.

    No field holds a comma, a quote or a line break, so none is quoted.
    """
    pattern = "%d,%s,%d,%s,%d,%d\n"
    cycles = _cycle_texts(rows, " ")
    return "n,canonical,girth,cycles,exp,count\n" + "".join(
        pattern % (row.order, row.canonical_bits, row.girth, cycles[row.cycle_lengths],
                   row.exponent, row.labeled_count)
        for row in _census_order(rows)
    )
