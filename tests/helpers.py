"""Oracles shared by several test modules."""

from __future__ import annotations

import itertools
from operator import getitem

from primexp.boolmat import _lane_entries
from primexp.digraph import Digraph, _cycle_cover, _lane_cycle_covers
from primexp.exponent import _lane_exponents
from primexp.iso import find_isomorphism
from primexp.verify import _random_primitive_rows


def relabeled_codes(rows: tuple[int, ...], tables) -> list[int]:
    """Row-major code of the successor rows under each of the n! relabelings.

    ``tables`` comes from ``canonical_code_tables(len(rows))``.  The first
    entry is the identity's, so the entries equal to it count the
    automorphisms.
    """
    return list(map(sum, zip(*map(getitem, tables, rows))))


def lane_exponents(rowsets, n: int) -> list[int | None]:
    """``_lane_exponents`` of a batch of order-n row tuples, sliced by ``_lane_entries``."""
    return _lane_exponents(_lane_entries(rowsets, n), len(rowsets))


def lane_cycle_covers(rowsets, n: int) -> list[list[int]]:
    """``_lane_cycle_covers`` of a batch of order-n row tuples, sliced by ``_lane_entries``."""
    return _lane_cycle_covers(_lane_entries(rowsets, n), len(rowsets))


def cover_lengths(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Sorted simple-cycle lengths read off the subset-DP cover ``_cycle_cover``; () if acyclic."""
    cover = _cycle_cover(rows, n)
    return tuple(k for k in range(1, n + 1) if cover[k])


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


def random_primitive_digraph(rng, n: int, p: float) -> Digraph:
    """The digraph of ``_random_primitive_rows``, its pattern dropped."""
    rows, _ = _random_primitive_rows(rng, n, p)
    return Digraph(n, rows)


def replay_cycle_positions(rng, n: int) -> list[int]:
    """Position on its drawn cycle of each vertex of one generator try.

    Makes the try's draws on ``rng``: one shuffle of the n vertices, then
    one draw per arc off the cycle.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    for _ in range(n * (n - 1)):
        rng.random()
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    return pos


def pattern_rows(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Successor rows of the n-cycle k -> k + 1 plus k -> k + o for each bit o of pattern[k]."""
    n = len(pattern)
    return tuple(
        (1 << (k + 1) % n) | sum(1 << (k + o) % n for o in range(n) if bits >> o & 1)
        for k, bits in enumerate(pattern)
    )


def relabel_rows(rows: tuple[int, ...], label: list[int]) -> tuple[int, ...]:
    """Successor rows with vertex v renamed label[v], labels 0-based."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[label[v]] = sum(1 << label[w] for w in range(len(rows)) if row >> w & 1)
    return tuple(out)
