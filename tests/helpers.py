"""Oracles shared by several test modules."""

from __future__ import annotations

from primexp.iso import relabeled_codes


def canonical_code(rows: tuple[int, ...], tables) -> int:
    """Least relabeled row-major code of the successor rows, as an integer.

    ``tables`` comes from ``canonical_code_tables(len(rows))``; the result
    equals ``int(canonical_form(d).canonical_bits, 2)`` for the digraph d
    with these rows.
    """
    return min(relabeled_codes(rows, tables))
