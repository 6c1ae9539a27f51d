"""Exact Boolean (0,1) matrix arithmetic on bit-set rows.

A matrix of order n (2 <= n <= 64) is stored as n row bit-sets, one machine
word per row: bit j of row i set means entry (i, j) is 1, i.e. there is an
arc i+1 -> j+1 in the associated digraph.  All operations are pure; values
are immutable and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_ORDER = 2
MAX_ORDER = 64


class MatrixParseError(ValueError):
    """Raised on malformed matrix text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_order(n: int) -> None:
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {n}")


def _check_rows(n: int, rows: tuple[int, ...]) -> None:
    """The order check plus: exactly n rows, none with a bit at column n or beyond."""
    _check_order(n)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    mask = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~mask:
            raise ValueError(f"row {i + 1} has bits set beyond column {n}")


@dataclass(frozen=True)
class BoolMatrix:
    """Square (0,1) matrix under Boolean arithmetic (OR/AND, no counting)."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_rows(self.order, self.rows)
        # Rows given as a list are stored as a tuple, so equal matrices
        # compare equal and hash.
        object.__setattr__(self, "rows", tuple(self.rows))


# -- row-tuple kernels ---------------------------------------------------
#
# The hot paths (exhaustive censuses, exponent scans) work on bare row
# tuples to avoid per-step dataclass construction.

def mul_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean product of row tuples; a row stops ORing once it is all ones."""
    full = (1 << len(b)) - 1
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            low = r & -r
            acc |= b[low.bit_length() - 1]
            if acc == full:
                break
            r ^= low
        out.append(acc)
    return tuple(out)


def pow_rows(a: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    result = tuple(1 << i for i in range(n))
    base = a
    while k:
        if k & 1:
            result = mul_rows(result, base)
        k >>= 1
        if k:
            base = mul_rows(base, base)
    return result


def transpose_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for i, row in enumerate(rows):
        r = row
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return tuple(out)


def _lane_entries(rowsets, n: int) -> list[list[int]]:
    """A batch of order-n row tuples, bit-sliced into lanes.

    Entry [i][j] is an int that holds entry (i, j) of every matrix, matrix t
    at bit len(rowsets)-1-t, so one AND or OR acts on every matrix at once.
    The lane kernels (``exponent._lane_exponents``,
    ``digraph._lane_cycle_sets`` and ``exponent._lane_cwalk_diameters``)
    take these slices, so a batch read by several is sliced once.  An empty
    batch gives all-zero entries.
    """
    if not rowsets:
        return [[0] * n for _ in range(n)]
    nn = n * n
    width = f"0{n}b"
    text = "".join([format(row, width) for rows in rowsets for row in rows])
    entry = [int(text[e::nn], 2) for e in range(nn)]
    # Each row is written column n-1 first, so each row of entries is
    # reversed out of the text.
    return [entry[i * n:i * n + n][::-1] for i in range(n)]


# -- text format ----------------------------------------------------------
#
# Line 1: decimal order n.  Lines 2..n+1: exactly n characters from {0,1};
# row i, column j = '1' means entry (i, j) = 1.  LF endings; output always
# carries a final LF, input may omit it.

def parse_matrix(text: str) -> BoolMatrix:
    lines = text.split("\n")
    # A trailing LF leaves one empty fragment; tolerate exactly that.
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise MatrixParseError("empty input", 1)
    head = lines[0].strip()
    # int() alone would also take "+2", "0_2" and non-ASCII digits.
    if not (head.isascii() and head.isdigit()):
        raise MatrixParseError(f"expected decimal order, got {head!r}", 1)
    n = int(head)
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise MatrixParseError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {n}", 1)
    if len(lines) != n + 1:
        raise MatrixParseError(f"expected {n} rows after the order line, got {len(lines) - 1}", len(lines))
    rows = []
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if len(line) != n:
            raise MatrixParseError(f"row has length {len(line)}, expected {n}", i)
        # int() alone would also take "_", "+", spaces and non-ASCII digits.
        bad = line.lstrip("01")
        if bad:
            raise MatrixParseError(f"invalid character {bad[0]!r}", i)
        rows.append(int(line[::-1], 2))
    return BoolMatrix(n, tuple(rows))


def _row_line(row: int, n: int) -> str:
    """One order-n row of the text format, column j at character j, with its line feed."""
    return format(row, f"0{n}b")[::-1] + "\n"


def _row_lines(n: int) -> list[str]:
    """``_row_line`` of every order-n row value, indexed by the value: 2^n strings."""
    return [_row_line(row, n) for row in range(1 << n)]


def serialize_rows(rows: tuple[int, ...], n: int, lines: list[str] | None = None) -> str:
    """The text format of the order-n matrix with these rows, unchecked.

    ``lines``, when given, is ``_row_lines(n)``, and each row's text is read
    from it instead of being formatted again.
    """
    if lines is None:
        text = [_row_line(row, n) for row in rows]
    else:
        text = map(lines.__getitem__, rows)
    return "".join([f"{n}\n", *text])
