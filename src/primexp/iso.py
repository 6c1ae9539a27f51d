"""Exact digraph isomorphism, automorphism counting and canonical forms.

Backtracking over vertex bijections with cheap invariant pruning
(in/out-degrees and the set of simple-cycle lengths through each vertex,
read from the subset-DP cover ``digraph._cycle_cover``, which has no cap and
spans at most 2^ISO_ORDER_CAP vertex sets); practical for the near-cycle
digraphs this package works with.
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

    Vertices of a are processed in invariant order; candidates in b are
    restricted to the matching invariant class.  Callers stop consuming
    after the first witness when one suffices.
    """
    n = a.order
    rows_a = a.rows
    rows_b = b.rows
    inv_a = _vertex_invariants(a)
    inv_b = _vertex_invariants(b)
    if sorted(inv_a) != sorted(inv_b):
        return
    order = sorted(range(n), key=lambda v: (inv_a[v], v))
    candidates = [
        [w for w in range(n) if inv_b[w] == inv_a[v]]
        for v in order
    ]
    mapping = [-1] * n  # a-vertex (0-based) -> b-vertex
    used = [False] * n

    def consistent(x: int, y: int, depth: int) -> bool:
        if (rows_a[x] >> x) & 1 != (rows_b[y] >> y) & 1:
            return False
        for d_idx in range(depth):
            xp = order[d_idx]
            yp = mapping[xp]
            if (rows_a[x] >> xp) & 1 != (rows_b[y] >> yp) & 1:
                return False
            if (rows_a[xp] >> x) & 1 != (rows_b[yp] >> y) & 1:
                return False
        return True

    def backtrack(depth: int):
        if depth == n:
            yield tuple(mapping[v] + 1 for v in range(n))
            return
        x = order[depth]
        for y in candidates[depth]:
            if used[y] or not consistent(x, y, depth):
                continue
            mapping[x] = y
            used[y] = True
            yield from backtrack(depth + 1)
            mapping[x] = -1
            used[y] = False

    yield from backtrack(0)


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
