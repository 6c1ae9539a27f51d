"""Exact digraph isomorphism, automorphism counting and canonical forms.

Backtracking over vertex bijections with cheap invariant pruning
(in/out-degrees and the set of simple-cycle lengths through each vertex,
read from the subset-DP cover ``digraph._cycle_cover``, which has no cap and
spans at most 2^ISO_ORDER_CAP vertex sets); practical for the near-cycle
digraphs this package works with.
Canonical forms are the lexicographically minimal row-major adjacency
bit-string over all relabelings, found by branch-and-bound.

The census computes the same code from tables instead: one table per row
index maps a row value to its relabeled bits under each of the n!
relabelings, so the code of a matrix is n lookups, summed per relabeling,
and the least of the n! sums.  The sums equal to the identity's count the
automorphisms.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .digraph import Digraph, _cycle_cover
from .boolmat import transpose_rows

ISO_ORDER_CAP = 14
CANONICAL_ORDER_CAP = 10
TABLE_CODE_ORDER_CAP = 6


class OrderCapError(ValueError):
    """Input order exceeds the supported backtracking size."""


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
    """Branch-and-bound minimization of the row-major adjacency bit-string.

    A partial relabeling fixes the leading k x k block; filling the unknown
    positions with zeros lower-bounds every completion, so any partial value
    already above the incumbent is pruned.

    Orders above CANONICAL_ORDER_CAP = 10 raise OrderCapError.  Each order
    costs about ten times the one before, and symmetry defeats the pruning:
    at order 10 the complete digraph takes 33 s and the empty one 27 s,
    d1/d2/q1 take 5-6 s, dense random digraphs up to 3.4 s (2-core x86 VM,
    Python 3.11).  d1(11) takes 132 s.
    """
    n = d.order
    if n > CANONICAL_ORDER_CAP:
        raise OrderCapError(f"order exceeds the cap {CANONICAL_ORDER_CAP}")
    rows = d.rows
    total = n * n

    def bit(i: int, j: int) -> int:
        return (rows[i] >> j) & 1

    def full_value(perm: list[int]) -> int:
        value = 0
        for i in range(n):
            for j in range(n):
                value = (value << 1) | bit(perm[i], perm[j])
        return value

    best = full_value(list(range(n)))
    perm: list[int] = []
    used = [False] * n

    def added_bits(v: int) -> int:
        """Newly determined positions when v becomes image index k = len(perm)."""
        k = len(perm)
        value = 0
        for j in range(k):
            value |= bit(v, perm[j]) << (total - 1 - (k * n + j))
        value |= bit(v, v) << (total - 1 - (k * n + k))
        for i in range(k):
            value |= bit(perm[i], v) << (total - 1 - (i * n + k))
        return value

    def descend(partial: int):
        nonlocal best
        k = len(perm)
        if k == n:
            if partial < best:
                best = partial
            return
        options = []
        for v in range(n):
            if not used[v]:
                options.append((partial | added_bits(v), v))
        options.sort()
        for value, v in options:
            if value > best:
                break
            used[v] = True
            perm.append(v)
            descend(value)
            perm.pop()
            used[v] = False

    descend(0)
    bits = format(best, f"0{total}b")
    return CanonicalForm(order=n, canonical_bits=bits)


def canonical_code_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Relabeling tables of the census's row codes: one table per row index.

    Table i maps a value r of row i to a tuple with one entry per relabeling
    p of the n! (p[v] is the new position of vertex v): the bits of row i
    after relabeling, where bit j of r lands at bit n*n-1-(p[i]*n+p[j]) of
    the row-major, most-significant-first code.  The tables hold
    n * 2^n * n! entries, hence the small order cap.
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


def classify_against(d: Digraph, family: Iterable[Digraph]) -> int | None:
    """Index of the first family member isomorphic to d, or None."""
    for index, member in enumerate(family):
        if find_isomorphism(d, member) is not None:
            return index
    return None


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
