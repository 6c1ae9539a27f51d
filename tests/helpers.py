"""Oracles shared by several test modules."""

from __future__ import annotations

import itertools
from operator import getitem

from primexp.digraph import Digraph
from primexp.iso import find_isomorphism


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


def relabel(d: Digraph, perm: tuple[int, ...]) -> Digraph:
    """Apply the vertex bijection perm (perm[i-1] is the image of vertex i)."""
    if sorted(perm) != list(range(1, d.order + 1)):
        raise ValueError("perm must be a permutation of 1..order")
    rows = [0] * d.order
    for i, row in enumerate(d.rows):
        rows[perm[i] - 1] = sum(1 << (perm[j] - 1) for j in range(d.order) if row >> j & 1)
    return Digraph(d.order, tuple(rows))


def classify_against(d: Digraph, family) -> int | None:
    """Index of the first family member isomorphic to d, or None."""
    for index, member in enumerate(family):
        if find_isomorphism(d, member) is not None:
            return index
    return None
