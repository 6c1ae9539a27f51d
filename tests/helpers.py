"""Oracles shared by several test modules."""

from __future__ import annotations

import itertools
from operator import getitem


def relabeled_codes(rows: tuple[int, ...], tables) -> list[int]:
    """Row-major code of the successor rows under each of the n! relabelings.

    ``tables`` comes from ``canonical_code_tables(len(rows))``.  The first
    entry is the identity's, so the entries equal to it count the
    automorphisms.
    """
    return list(map(sum, zip(*map(getitem, tables, rows))))


def canonical_code(rows: tuple[int, ...], tables) -> int:
    """Least relabeled row-major code of the successor rows, as an integer.

    ``tables`` comes from ``canonical_code_tables(len(rows))``; the result
    equals ``int(canonical_form(d).canonical_bits, 2)`` for the digraph d
    with these rows.
    """
    return min(relabeled_codes(rows, tables))


def degree_sorted_rows(by_popcount: list[list[int]], degrees: tuple[int, ...]):
    """Every row tuple whose row i has popcount degrees[i], in lexicographic order."""
    return itertools.product(*(by_popcount[d] for d in degrees))
