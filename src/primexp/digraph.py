"""Digraph structure and cycle analysis.

Vertices are labelled 1..n throughout.  Loops are allowed, multi-arcs are
not.  A ``Digraph`` is the ``BoolMatrix`` of its adjacency matrix, whose
bit-set successor rows are what every kernel here reads; ``digraph()``
builds one from an arc set, and ``arcs`` reads the arc set back.
Everything here is a pure function over immutable values; the cycle
enumerator keeps only local state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boolmat import BoolMatrix, _check_order, transpose_rows

DEFAULT_CYCLE_CAP = 10**6
# Keys one ``_cycle_cover`` or ``_lane_cycle_sets`` run may create.  A
# ``_cycle_cover`` run creates at most 2^n - 1, so the budget never binds at
# n <= 20; the complete digraph of order 64 reaches it in a few seconds.
CYCLE_COVER_BUDGET = 1 << 20


class TruncatedProfileError(ValueError):
    """A cycle profile hit its enumeration cap or its state budget; refusing to certify."""


@dataclass(frozen=True)
class Digraph(BoolMatrix):
    """Directed graph on vertices 1..order: a ``BoolMatrix`` read as successor rows.

    Bit j-1 of rows[i-1] is set iff there is an arc i -> j.  The rows are
    checked and stored by ``BoolMatrix``; a digraph never equals the
    ``BoolMatrix`` with its rows.
    """

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


def _bfs_levels(rows, frontier: int, allowed: int):
    """Yield the BFS levels out of ``frontier`` as bit-sets.

    Level 0 is ``frontier``; each later level holds the vertices of
    ``allowed`` that an arc enters from the level before and that no
    earlier level holds.  It stops after the last nonempty level.  ``rows``
    is read as the levels are drawn, so a caller may change it in between.
    """
    seen = frontier
    while frontier:
        yield frontier
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & allowed & ~seen
        seen |= frontier


def _bfs_dist(rows: tuple[int, ...], n: int, start: int) -> list[int]:
    """Distances from start (0-based); -1 marks unreachable."""
    dist = [-1] * n
    for d, level in enumerate(_bfs_levels(rows, 1 << start, (1 << n) - 1)):
        while level:
            low = level & -level
            dist[low.bit_length() - 1] = d
            level ^= low
    return dist


def rows_girth(rows: tuple[int, ...], n: int) -> int | None:
    """Minimum cycle length by a least-vertex BFS; None for acyclic digraphs.

    A loop answers 1 at once.  Otherwise every cycle is found from its least
    vertex s: the ``_bfs_levels`` from the successors of s through the
    vertices above s stop at the first level that meets a predecessor of s
    (that level + 1 is the shortest cycle whose least vertex is s), or once
    their depth can no longer beat the best cycle found so far.  No distance
    list is kept.  Independent of the subset DP and of Johnson's search,
    which also start each cycle from its least vertex, so they
    cross-validate.
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
        start = rows[s] & above
        if not (back and start):
            continue
        for depth, level in enumerate(_bfs_levels(rows, start, above), 1):
            if depth + 1 >= best:
                break
            if level & back:
                best = depth + 1
                break
    return best if best <= n else None


def _cycle_cover(rows: tuple[int, ...], n: int) -> list[int]:
    """cover[k] is the bit-set of vertices on some simple k-cycle, k = 0..n.

    Each cycle is found from its least vertex s, so s is expanded only when
    an arc from s or from a vertex above s closes back on it.  Simple paths
    out of s grow one vertex at a time through vertices above s, keeping per
    vertex set the bit-set of path endpoints, and a k-vertex set with an
    endpoint that has an arc back to s is the vertex set of a k-cycle (k = 1
    is a loop at s), so it is ORed into cover[k].  The cost is one step per
    endpoint of each vertex set that a simple path from its least vertex
    spans: up to 2^n * n time and 2^n memory on dense input, but d1(64)
    spans only 189 such sets.  No cycle is stored.  Each vertex set is one
    key, and a run creates at most 2^n - 1 of them; past CYCLE_COVER_BUDGET
    keys it raises TruncatedProfileError, checked after every expanded set
    so that no level overshoots.  So the budget never binds at n <= 20, and
    dense input at orders up to 64 fails within seconds.  The single-matrix
    cycle-profile callers use it: the iso invariants (n <= 14), which read
    the lengths and the per-vertex bit-sets straight from the cover;
    c_walk_distances and lemma22_bound, which feed it to the c-walk BFS; and
    verify's bound_rows_for.  The bound suite, the thm36 converse and the
    chord-set sweeps read theirs from ``_lane_cycle_covers``, and the census
    its lengths from ``_lane_cycle_sets``, the same DP over a batch; one
    matrix, up to order 64, would not repay a batch's slicing.  Johnson's
    search stays behind the ``cycles`` verb, which counts cycles under its
    cap through count_cycles, and behind simple_cycles, the test oracle.
    Independent of simple_cycles and of the BFS girth, which search from the
    same least vertex s but keep one path or one visited set per s instead
    of one state per vertex set, so they cross-check.
    """
    into = transpose_rows(rows, n)
    full = (1 << n) - 1
    cover = [0] * (n + 1)
    created = 0
    for s in range(n):
        if not into[s] >> s:
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


def _lane_cycle_sets(arc: list[list[int]], lanes: int) -> list[list[int]]:
    """on[k][v] is the set of lanes with vertex v on a simple k-cycle, k = 0..n.

    ``arc`` is a batch of ``lanes`` matrices of one order bit-sliced by
    ``boolmat._lane_entries``, the slices ``exponent._lane_exponents``
    takes, and ``_cycle_cover``'s DP runs once over the union of its
    matrices.  A state is a vertex set and an end vertex,
    and holds the lanes with a simple path from the least vertex s, through
    that set, that ends there; it grows by one vertex above s at a time, on
    the lanes that have the arc.  A state whose end has an arc back to s
    closes a cycle on those lanes, so its set goes into their on[size].
    Only states with a lane are created, so a batch creates no more
    states than its matrices would one by one, and far fewer where they
    share paths.  Each state is one key, and past CYCLE_COVER_BUDGET keys it
    raises TruncatedProfileError, checked as ``_cycle_cover`` checks.  Every
    (set, end) pair is one state at most, with s the least vertex of the
    set, so a batch creates fewer than n * 2^(n-1) keys, 524 288 at n = 16:
    the budget never binds in the bound suite or the thm36 converse (both
    n <= 16), nor in the census (n <= 5).  The thm33 chord sets reach
    n = 20, past that argument; there the margin is the measured count, at
    most 303 states (at (20, 11)).  The census reads only which lanes have
    a k-cycle, the OR of on[k], and no per-lane cover.
    """
    n = len(arc)
    on = [[0] * n for _ in range(n + 1)]
    if not lanes:
        return on
    # bit j of union[i] is set when some matrix has the arc i -> j.
    union = [sum(1 << j for j, held in enumerate(row) if held) for row in arc]
    into = transpose_rows(union, n)
    full = (1 << n) - 1
    everyone = (1 << lanes) - 1
    created = 0
    for s in range(n):
        if not into[s] >> s:
            continue
        above = full ^ ((2 << s) - 1)
        back = [row[s] for row in arc]
        level = {(1 << s, s): everyone}
        size = 1
        while level:
            created += len(level)
            closed: dict[int, int] = {}
            grown: dict[tuple[int, int], int] = {}
            for (members, end), held in level.items():
                cycle = held & back[end]
                if cycle:
                    closed[members] = closed.get(members, 0) | cycle
                out = arc[end]
                reach = union[end] & above & ~members
                while reach:
                    low = reach & -reach
                    w = low.bit_length() - 1
                    path = held & out[w]
                    if path:
                        key = (members | low, w)
                        grown[key] = grown.get(key, 0) | path
                    reach ^= low
                if created + len(grown) > CYCLE_COVER_BUDGET:
                    raise TruncatedProfileError(
                        f"lane cycle cover passed its budget of {CYCLE_COVER_BUDGET} states")
            lane_on = on[size]
            for members, cycle in closed.items():
                while members:
                    low = members & -members
                    lane_on[low.bit_length() - 1] |= cycle
                    members ^= low
            level = grown
            size += 1
    return on


def _lane_cycle_covers(arc: list[list[int]], lanes: int) -> list[list[int]]:
    """``_cycle_cover`` of each of the ``lanes`` matrices in ``arc``, in lane order.

    The per-lane readout of ``_lane_cycle_sets``: one string per length
    turns its lane sets back into per-matrix covers.  The bound suite, the
    thm36 converse and the chord-set sweeps read these.
    """
    n = len(arc)
    on = _lane_cycle_sets(arc, lanes)
    covers = [[0] * (n + 1) for _ in range(lanes)]
    width = f"0{lanes}b"
    for k in range(1, n + 1):
        if any(on[k]):
            # Vertex n-1 first, so lane t's slice reads as its bit-set.
            text = "".join([format(held, width) for held in reversed(on[k])])
            for t, cover in enumerate(covers):
                cover[k] = int(text[t::lanes], 2)
    return covers


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

def _johnson_cycles_through(adj: list[list[int]], start: int):
    """Yield every simple cycle whose least vertex is start (Johnson's search).

    adj lists the successors of each vertex, loops left out; arcs into
    vertices below start are skipped, so the search runs in the digraph
    induced by start and the vertices above it.  Johnson (SIAM J. Comput.
    4(1), 1975) also restricts it to the strongly connected component of
    start, but the search stays exact without that: a vertex that cannot
    reach start never closes a cycle, so it is entered once and stays blocked.
    """
    blocked = {start}
    closure: dict[int, set[int]] = {}
    path = [start]
    stack = [iter(adj[start])]
    closed = [False]
    while stack:
        advanced = False
        for w in stack[-1]:
            if w == start:
                yield list(path)
                closed[-1] = True
            elif w > start and w not in blocked:
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
                    unblock.extend(closure.pop(u, ()))
        else:
            for w in adj[v]:
                if w > start:
                    closure.setdefault(w, set()).add(v)


def _iter_cycles(rows: tuple[int, ...], n: int):
    """Yield every simple cycle once, as a list of 0-based vertices.

    The loops come first.  Then each start s = 0..n-2 yields, by Johnson's
    search, the cycles whose least vertex is s, each listed from s.
    """
    for v in range(n):
        if (rows[v] >> v) & 1:
            yield [v]
    adj = _adj_lists(tuple(row & ~(1 << v) for v, row in enumerate(rows)), n)
    for s in range(n - 1):
        yield from _johnson_cycles_through(adj, s)


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
