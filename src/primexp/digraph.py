"""Digraph structure and cycle analysis.

Vertices are labelled 1..n throughout.  Loops are allowed, multi-arcs are
not.  A ``Digraph`` is its successor rows, the bit-set rows of its
adjacency matrix, which is what every kernel here reads; ``digraph()``
builds one from an arc set, and ``arcs`` reads the arc set back.
Everything here is a pure function over immutable values; the cycle
enumerator keeps only local state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boolmat import BoolMatrix, _check_order, _check_rows, transpose_rows

DEFAULT_CYCLE_CAP = 10**6
# Vertex-set keys one ``_cycle_cover`` run may create.  A run creates at most
# 2^n - 1, so the budget never binds at n <= 20; the complete digraph of
# order 64 reaches it in a few seconds.
CYCLE_COVER_BUDGET = 1 << 20


class TruncatedProfileError(ValueError):
    """A cycle profile hit its enumeration cap or its state budget; refusing to certify."""


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 1..order, held as its successor rows.

    Bit j-1 of rows[i-1] is set iff there is an arc i -> j; the rows are
    checked and stored as ``BoolMatrix`` checks and stores them.
    """

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_rows(self.order, self.rows)
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs (i, j), 1-based, read off the rows."""
        arcs = []
        for i, row in enumerate(self.rows, 1):
            while row:
                low = row & -row
                arcs.append((i, low.bit_length()))
                row ^= low
        return frozenset(arcs)


def digraph(order: int, arcs) -> Digraph:
    """The digraph with these arcs (i, j), 1-based; repeats are merged."""
    _check_order(order)
    rows = [0] * order
    for i, j in arcs:
        if not (1 <= i <= order and 1 <= j <= order):
            raise ValueError(f"arc ({i}, {j}) out of range for order {order}")
        rows[i - 1] |= 1 << (j - 1)
    return Digraph(order, tuple(rows))


@dataclass(frozen=True)
class CycleProfile:
    """Cycle length set plus, per vertex, the lengths of simple cycles through it.

    When the enumeration cap was hit, lengths/per_vertex are lower
    approximations and consumers must refuse to certify anything from them.
    """

    lengths: tuple[int, ...]
    per_vertex: tuple[frozenset[int], ...]
    cap_hit: bool

    def vertex_lengths(self, v: int) -> frozenset[int]:
        return self.per_vertex[v - 1]


# -- matrix conversion ---------------------------------------------------

def from_matrix(a: BoolMatrix) -> Digraph:
    return Digraph(a.order, a.rows)


# -- adjacency helpers ----------------------------------------------------

def _adj_lists(rows: tuple[int, ...], n: int) -> list[list[int]]:
    adj: list[list[int]] = []
    for i in range(n):
        row = rows[i]
        out = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        adj.append(out)
    return adj


def _bfs_dist(rows: tuple[int, ...], n: int, start: int) -> list[int]:
    """Distances from start (0-based); -1 marks unreachable."""
    dist = [-1] * n
    dist[start] = 0
    frontier = 1 << start
    seen = frontier
    level = 0
    while frontier:
        nxt = 0
        r = frontier
        while r:
            low = r & -r
            nxt |= rows[low.bit_length() - 1]
            r ^= low
        nxt &= ~seen
        level += 1
        r = nxt
        while r:
            low = r & -r
            dist[low.bit_length() - 1] = level
            r ^= low
        seen |= nxt
        frontier = nxt
    return dist


def rows_girth(rows: tuple[int, ...], n: int) -> int | None:
    """Minimum cycle length by a least-vertex BFS; None for acyclic digraphs.

    A loop answers 1 at once.  Otherwise every cycle is found from its least
    vertex s: a bit-set BFS from s through the vertices above s stops at the
    first level that meets a predecessor of s (that level + 1 is the shortest
    cycle whose least vertex is s), or once its depth can no longer beat the
    best cycle found so far.  No distance list is kept.  Independent of the
    simple-cycle enumerator and of the subset DP, so they cross-validate.
    """
    for v in range(n):
        if (rows[v] >> v) & 1:
            return 1
    into = transpose_rows(rows, n)
    full = (1 << n) - 1
    best = n + 1
    for s in range(n - 1):
        above = full ^ ((2 << s) - 1)
        back = into[s] & above
        if not back:
            continue
        frontier = rows[s] & above
        seen = frontier
        depth = 1
        while frontier and depth + 1 < best:
            if frontier & back:
                best = depth + 1
                break
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & above & ~seen
            seen |= frontier
            depth += 1
    return best if best <= n else None


def _cycle_cover(rows: tuple[int, ...], n: int) -> list[int]:
    """cover[k] is the bit-set of vertices on some simple k-cycle, k = 0..n.

    Each cycle is found from its least vertex s.  Simple paths out of s
    grow one vertex at a time through vertices above s, keeping per vertex
    set the bit-set of path endpoints, and a k-vertex set with an endpoint
    that has an arc back to s is the vertex set of a k-cycle (k = 1 is a
    loop at s), so it is ORed into cover[k].  The cost is one step per
    endpoint of each vertex set that a simple path from its least vertex
    spans: up to 2^n * n time and 2^n memory on dense input, but d1(64)
    spans only 189 such sets.  No cycle is stored.  Each vertex set is one
    key, and a run creates at most 2^n - 1 of them; past
    CYCLE_COVER_BUDGET keys it raises TruncatedProfileError, checked after
    every expanded set so that no level overshoots.  So the budget never
    binds at n <= 20, and dense input at orders up to 64 fails within
    seconds.  Every cycle-profile caller but the ``cycles`` verb and the
    census uses it: the bound suite (n <= 16), verify_thm33's attainment
    notes and the iso invariants (n <= 14), which read the lengths and the
    per-vertex bit-sets straight from the cover; c_walk_distances and
    lemma22_bound, which feed it to the c-walk BFS; and the thm36 converse
    (chord members) through rows_cycle_lengths.  Johnson's search stays behind
    the ``cycles`` verb, which counts cycles under its cap through
    count_cycles, and behind simple_cycles, the test oracle.  The census
    (n <= 5) matches its codes against a table of the simple-cycle arc
    masks of K_n, which the tests check against this DP.  Independent of
    simple_cycles and of the BFS girth, which searches from the same least
    vertex s but keeps one visited set per s instead of one state per
    vertex set, so they cross-check.
    """
    into = transpose_rows(rows, n)
    full = (1 << n) - 1
    cover = [0] * (n + 1)
    created = 0
    for s in range(n):
        if not into[s]:
            continue
        above = full ^ ((2 << s) - 1)
        level = {1 << s: 1 << s}
        size = 1
        while level:
            created += len(level)
            grown: dict[int, int] = {}
            for members, ends in level.items():
                if ends & into[s]:
                    cover[size] |= members
                reach = 0
                while ends:
                    low = ends & -ends
                    reach |= rows[low.bit_length() - 1]
                    ends ^= low
                reach &= above & ~members
                while reach:
                    low = reach & -reach
                    key = members | low
                    grown[key] = grown.get(key, 0) | low
                    reach ^= low
                if created + len(grown) > CYCLE_COVER_BUDGET:
                    raise TruncatedProfileError(
                        f"cycle cover passed its budget of {CYCLE_COVER_BUDGET} vertex sets")
            level = grown
            size += 1
    return cover


def rows_cycle_lengths(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Sorted simple-cycle lengths by the subset DP of ``_cycle_cover``; () if acyclic."""
    cover = _cycle_cover(rows, n)
    return tuple(k for k in range(1, n + 1) if cover[k])


def girth(d: Digraph) -> int | None:
    return rows_girth(d.rows, d.order)


# -- primitivity -----------------------------------------------------------

def _period_of_levels(rows: tuple[int, ...], n: int, level: list[int]) -> int:
    """gcd of all cycle lengths of a strongly connected digraph, from the
    BFS levels of vertex 0: every arc (u, v) contributes
    |level(u) + 1 - level(v)| to the gcd.
    """
    g = 0
    for u in range(n):
        row = rows[u]
        while row:
            low = row & -row
            v = low.bit_length() - 1
            row ^= low
            g = math.gcd(g, abs(level[u] + 1 - level[v]))
    return g


def rows_primitive(rows: tuple[int, ...], n: int) -> bool:
    """Strongly connected with period 1, from two BFS runs.

    The forward levels from vertex 0 decide that it reaches every vertex and
    also give the period, so only the reverse search is added.
    """
    level = _bfs_dist(rows, n, 0)
    return (-1 not in level
            and -1 not in _bfs_dist(transpose_rows(rows, n), n, 0)
            and _period_of_levels(rows, n, level) == 1)


# -- simple-cycle enumeration (Johnson) ------------------------------------

def _scc_decompose(adj: list[list[int]], vertices: list[int]) -> list[list[int]]:
    """Strongly connected components of the induced subgraph (iterative Kosaraju)."""
    inset = set(vertices)
    order: list[int] = []
    seen: set[int] = set()
    for root in vertices:
        if root in seen:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen.add(root)
        while stack:
            v, idx = stack[-1]
            nxt = None
            out = adj[v]
            while idx < len(out):
                w = out[idx]
                idx += 1
                if w in inset and w not in seen:
                    nxt = w
                    break
            stack[-1] = (v, idx)
            if nxt is None:
                order.append(v)
                stack.pop()
            else:
                seen.add(nxt)
                stack.append((nxt, 0))
    radj: dict[int, list[int]] = {v: [] for v in vertices}
    for v in vertices:
        for w in adj[v]:
            if w in inset:
                radj[w].append(v)
    comps: list[list[int]] = []
    assigned: set[int] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp = [root]
        assigned.add(root)
        stack2 = [root]
        while stack2:
            v = stack2.pop()
            for w in radj[v]:
                if w not in assigned:
                    assigned.add(w)
                    comp.append(w)
                    stack2.append(w)
        comps.append(sorted(comp))
    return comps


def _johnson_cycles_through(adj: dict[int, list[int]], start: int):
    """Yield all simple cycles through start inside adj (Johnson's search)."""
    blocked = {start}
    closure: dict[int, set[int]] = {v: set() for v in adj}
    path = [start]
    stack = [iter(adj[start])]
    closed = [False]
    while stack:
        advanced = False
        for w in stack[-1]:
            if w == start:
                yield list(path)
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                stack.append(iter(adj[w]))
                closed.append(False)
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        v = path.pop()
        if closed.pop():
            if closed:
                closed[-1] = True
            unblock = [v]
            while unblock:
                u = unblock.pop()
                if u in blocked:
                    blocked.remove(u)
                    unblock.extend(closure[u])
                    closure[u].clear()
        else:
            for w in adj[v]:
                closure[w].add(v)


def _iter_cycles(rows: tuple[int, ...], n: int):
    """Yield every simple cycle once, as a list of 0-based vertices.

    The loops come first.  Then each strongly connected component of the
    loopless digraph yields the cycles through its least vertex (Johnson's
    search) and is split again without that vertex.
    """
    for v in range(n):
        if (rows[v] >> v) & 1:
            yield [v]
    base_adj = _adj_lists(rows, n)
    loopless = [[w for w in base_adj[v] if w != v] for v in range(n)]
    components = [c for c in _scc_decompose(loopless, list(range(n))) if len(c) >= 2]
    while components:
        comp = components.pop()
        root = comp[0]
        compset = set(comp)
        sub = {v: [w for w in loopless[v] if w in compset] for v in comp}
        yield from _johnson_cycles_through(sub, root)
        rest = [v for v in comp if v != root]
        components.extend(c for c in _scc_decompose(loopless, rest) if len(c) >= 2)


def _capped_cycles(d: Digraph, cap: int):
    """(the first ``cap`` cycles of ``_iter_cycles``, the rest of the stream)."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    stream = _iter_cycles(d.rows, d.order)
    return itertools.islice(stream, cap), stream


def simple_cycles(d: Digraph, cap: int = DEFAULT_CYCLE_CAP) -> tuple[list[list[int]], CycleProfile]:
    """Enumerate simple directed cycles and build the cycle profile.

    Cycles are vertex lists (1-based, no repeated closing vertex).  At most
    cap cycles are listed; cap_hit is set when a further one exists.
    """
    head, rest = _capped_cycles(d, cap)
    cycles = list(head)
    _, profile = _tally(cycles, rest, d.order)
    return [[v + 1 for v in cycle] for cycle in cycles], profile


def count_cycles(d: Digraph, cap: int) -> tuple[int, CycleProfile]:
    """``len(cycles)`` and the profile of ``simple_cycles(d, cap)``, storing no cycle.

    Each cycle is read once from the stream (see ``_tally``), so memory does
    not grow with the cap.
    """
    head, rest = _capped_cycles(d, cap)
    return _tally(head, rest, d.order)


def _tally(cycles, rest, n: int) -> tuple[int, CycleProfile]:
    """The count and the profile of the ``_capped_cycles`` pair (cycles, rest).

    Each cycle is ORed, as a vertex bit-set, into the bit-set of its length;
    the cap was hit when ``rest`` yields a further cycle.
    """
    bit = [1 << v for v in range(n)]
    through: dict[int, int] = {}
    count = 0
    for cycle in cycles:
        count += 1
        length = len(cycle)
        through[length] = through.get(length, 0) | sum(map(bit.__getitem__, cycle))
    lengths = tuple(sorted(through))
    return count, CycleProfile(
        lengths=lengths,
        per_vertex=tuple(frozenset(k for k in lengths if through[k] & b) for b in bit),
        cap_hit=next(rest, None) is not None,
    )
