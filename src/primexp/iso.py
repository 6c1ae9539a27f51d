"""Exact digraph isomorphism, automorphism counting and canonical forms.

Backtracking over vertex bijections with cheap invariant pruning
(in/out-degrees and the set of simple-cycle lengths through each vertex,
read from the subset-DP cover ``digraph._cycle_cover``, which has no cap and
spans at most 2^ISO_ORDER_CAP vertex sets).  Vertices are placed in
connectivity order, each next one joined by an arc to one already placed
where possible, so a wrong candidate fails at once on its arcs to the placed
vertices; practical for the near-cycle digraphs this package works with.
Canonical forms are the lexicographically minimal row-major adjacency
bit-string over all relabelings, computed from tables: one table per row
index maps a row value to its relabeled bits under each of the n!
relabelings, so the code of a matrix is n lookups, summed per relabeling,
and the least of the n! sums.  The census sums the same tables, and the
sums equal to the identity's count the automorphisms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import getitem

from .digraph import Digraph, _cycle_cover
from .boolmat import transpose_rows

ISO_ORDER_CAP = 14
TABLE_CODE_ORDER_CAP = 6


class OrderCapError(ValueError):
    """Input order exceeds a stated order cap."""


@dataclass(frozen=True)
class CanonicalForm:
    """Minimal row-major adjacency bit-string over all vertex relabelings."""

    order: int
    canonical_bits: str


def _vertex_invariants(d: Digraph) -> list[tuple]:
    """Per vertex: out-degree, in-degree and the ascending lengths of the cycles through it."""
    rows, n = d.rows, d.order
    cols = transpose_rows(rows, n)
    cover = _cycle_cover(rows, n)
    return [
        (rows[v].bit_count(), cols[v].bit_count(),
         tuple(k for k in range(1, n + 1) if cover[k] >> v & 1))
        for v in range(n)
    ]


def _search_isomorphisms(a: Digraph, b: Digraph):
    """Backtracking core: yields every arc-preserving bijection a -> b.

    Vertices of a are placed in connectivity order: first a vertex of the
    rarest invariant class, then always a vertex with an arc to or from one
    already placed, the rarest class first, while one exists, so a wrong
    candidate fails on the arcs to the placed vertices at once instead of
    several levels deeper (the VF2 order).  Candidates in b are restricted to
    the matching invariant class, and a candidate y for x must have, towards
    the placed vertices of b, exactly the images of x's arcs to and from the
    placed vertices of a, compared as bit-sets.  Callers stop consuming
    after the first witness when one suffices.
    """
    n = a.order
    rows_a = a.rows
    rows_b = b.rows
    inv_a = _vertex_invariants(a)
    inv_b = _vertex_invariants(b)
    if sorted(inv_a) != sorted(inv_b):
        return
    cols_a = transpose_rows(rows_a, n)
    cols_b = transpose_rows(rows_b, n)
    class_b: dict[tuple, int] = {}
    for w, inv in enumerate(inv_b):
        class_b[inv] = class_b.get(inv, 0) | 1 << w
    ranked = sorted(range(n), key=lambda v: (class_b[inv_a[v]].bit_count(), inv_a[v]))
    # Per depth: the vertex, its out- and in-neighbours placed before it, and
    # the bit-set of its candidates in b.  A loop is a 1-cycle, so the
    # invariant class already matches loops.
    steps = []
    placed = reached = 0
    while ranked:
        x = next((v for v in ranked if reached >> v & 1), ranked[0])
        ranked.remove(x)
        steps.append((x, _bits(rows_a[x] & placed), _bits(cols_a[x] & placed), class_b[inv_a[x]]))
        placed |= 1 << x
        reached |= rows_a[x] | cols_a[x]
    mapping = [-1] * n  # a-vertex (0-based) -> b-vertex

    def backtrack(depth: int, used: int):
        if depth == n:
            yield tuple(mapping[v] + 1 for v in range(n))
            return
        x, outs, ins, free = steps[depth]
        out_image = in_image = 0
        for xp in outs:
            out_image |= 1 << mapping[xp]
        for xp in ins:
            in_image |= 1 << mapping[xp]
        free &= ~used
        while free:
            low = free & -free
            free ^= low
            y = low.bit_length() - 1
            if rows_b[y] & used == out_image and cols_b[y] & used == in_image:
                mapping[x] = y
                yield from backtrack(depth + 1, used | low)

    yield from backtrack(0, 0)


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def find_isomorphism(a: Digraph, b: Digraph) -> tuple[int, ...] | None:
    """Witness permutation pi (pi[i-1] = image of vertex i), or None.

    Equal-order inputs only make sense; unequal orders are simply not
    isomorphic.
    """
    if max(a.order, b.order) > ISO_ORDER_CAP:
        raise OrderCapError(f"order exceeds the cap {ISO_ORDER_CAP}")
    if a.order != b.order or sum(map(int.bit_count, a.rows)) != sum(map(int.bit_count, b.rows)):
        return None
    for witness in _search_isomorphisms(a, b):
        return witness
    return None


def are_isomorphic(a: Digraph, b: Digraph) -> bool:
    return find_isomorphism(a, b) is not None


def automorphism_count(d: Digraph) -> int:
    """Number of arc-preserving self-bijections."""
    if d.order > ISO_ORDER_CAP:
        raise OrderCapError(f"order exceeds the cap {ISO_ORDER_CAP}")
    return sum(1 for _ in _search_isomorphisms(d, d))


def canonical_form(d: Digraph) -> CanonicalForm:
    """Least of the n! relabeled codes, summed from the rows' entries in
    ``canonical_code_tables`` as the census does; orders above 6 raise
    OrderCapError.
    """
    n = d.order
    codes = map(sum, zip(*map(getitem, canonical_code_tables(n), d.rows)))
    return CanonicalForm(order=n, canonical_bits=format(min(codes), f"0{n * n}b"))


@functools.cache
def canonical_code_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Relabeling tables of the census's row codes: one table per row index.

    Table i maps a value r of row i to a tuple with one entry per relabeling
    p of the n! (p[v] is the new position of vertex v): the bits of row i
    after relabeling, where bit j of r lands at bit n*n-1-(p[i]*n+p[j]) of
    the row-major, most-significant-first code.  The tables hold
    n * 2^n * n! entries, 9 MB at order 6, hence the cap and the cache.
    """
    if n > TABLE_CODE_ORDER_CAP:
        raise OrderCapError(f"order exceeds the cap {TABLE_CODE_ORDER_CAP}")
    top = n * n - 1
    perms = list(itertools.permutations(range(n)))
    tables = []
    for i in range(n):
        table = [(0,) * len(perms)]
        for r in range(1, 1 << n):
            low = r & -r
            j = low.bit_length() - 1
            table.append(tuple(
                bits | 1 << (top - p[i] * n - p[j])
                for bits, p in zip(table[r ^ low], perms)
            ))
        tables.append(tuple(table))
    return tuple(tables)


def perm_cycle_notation(perm: tuple[int, ...]) -> str:
    """One-line cycle notation for a 1-based permutation tuple."""
    seen = [False] * len(perm)
    parts = []
    for start in range(1, len(perm) + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        v = perm[start - 1]
        while v != start:
            cycle.append(v)
            seen[v - 1] = True
            v = perm[v - 1]
        if len(cycle) > 1:
            parts.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(parts) if parts else "()"
