"""Exact exponent computation, walk witnesses, cycle-meeting walk distances
and the closed-form bound/prediction evaluators.

The exponent of a primitive digraph is the least k >= 1 whose k-th Boolean
matrix power is entirely positive.  One kernel computes it for both
``exponent`` and ``exponent_of_rows`` in O(log k) ``boolmat.mul_rows``
products: it squares the matrix until a square is all-positive, keeping
every square, then binary-searches below that square with the stored
ones.  The search ends on the power k - 1, whose least zero entry is the
witness pair.  A non-positive square equal to an earlier one means the
matrix is not primitive: the bare 64-cycle is refused at its 7th square,
where the Wielandt cap would take 12.  ``_lane_exponents`` runs the same
search on a batch of matrices of one order at once, bit-sliced so that
each AND or OR acts on every matrix; the bound suite, the chord-set
sweeps and the census read their exponents from it, one pass per order,
per (n, g) or per census block.

``c_walk_distances`` computes, for every ordered vertex pair, the length of
the shortest walk that shares a vertex with at least one simple cycle of
each length occurring in the digraph.  It and ``lemma22_bound`` read the
cycle lengths from the budgeted subset DP ``digraph._cycle_cover``, which
raises ``TruncatedProfileError`` on input too dense for it.  Neither runs a
separate primitivity test: the gcd of the cover's cycle lengths is the
period, and the c-walk search fails from a start that cannot reach every
vertex, so the two together are the verdict.  ``rows_primitive`` runs only
when the cover or the search gives up, so dense non-primitive input is
refused only after the cover's budget runs out, within seconds.  The
per-start search ``_cwalk_rows`` serves these single-matrix callers (the
``cwalk`` and ``bound lemma22`` verbs).  ``_lane_cwalk_diameters`` runs the
same search on a bit-sliced batch, every (matrix, start) pair at once in
one search, with each matrix's kept sets padded by the full vertex set to
the batch's largest count, and gives only each matrix's maximum; the bound
suite reads its c-walks from it, one search per order batch, as it reads
its exponents from ``_lane_exponents``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import and_, or_

from .boolmat import mul_rows
from .digraph import (
    Digraph,
    TruncatedProfileError,
    _cycle_cover,
    rows_primitive,
)
from .semigroup import frobenius

MAX_CYCLE_LENGTHS = 20


class NotPrimitiveError(ValueError):
    """The operation is defined for primitive digraphs only."""


class TooManyCycleLengthsError(ValueError):
    """More distinct cycle lengths than the product-state search supports."""


def wielandt_bound(n: int) -> int:
    """Maximum exponent over primitive digraphs of order n: (n-1)^2 + 1."""
    return (n - 1) ** 2 + 1


@dataclass(frozen=True)
class ExponentResult:
    """Exponent value plus the witness pair missing a walk of length value-1.

    The witness is the lexicographically least ordered pair (u, v) with no
    u -> v walk of length value - 1.  One always exists: the power value - 1
    is not all-positive by the exponent's minimality, and at value 1 it is
    the identity.
    """

    value: int
    certificate_pair: tuple[int, int]
    certificate_length: int


@dataclass(frozen=True)
class CWalkResult:
    """All-pairs cycle-meeting walk distances and their maximum.

    max is taken over every ordered pair including the diagonal; arg_max is
    the lexicographically least attaining pair.
    """

    per_pair: tuple[tuple[int, ...], ...]
    max: int
    arg_max: tuple[int, int]

    def pair(self, i: int, j: int) -> int:
        return self.per_pair[i - 1][j - 1]


def _exponent_kernel(rows: tuple[int, ...], n: int) -> tuple[int, tuple[int, ...]] | None:
    """(k, rows^(k-1)) for the least k >= 1 with rows^k all-positive, or None.

    Squares A through ``mul_rows`` until A^(2^m) is all-positive, keeping
    every square, then binary-searches below it: the largest non-positive
    power is assembled from the stored squares one bit at a time, which is
    exact because the all-positive predicate is monotone in k for primitive
    matrices.  That is 2m - 1 products, m = ceil(log2 k).  A primitive
    matrix has an all-positive square, so a non-positive square equal to an
    earlier stored one is the not-primitive verdict: from there the squares
    cycle and never reach all-ones.  A non-positive square whose index
    reaches the Wielandt cap is the verdict too.
    """
    positive = ((1 << n) - 1,) * n
    square = tuple(rows)
    if square == positive:
        return 1, tuple(1 << i for i in range(n))
    cap = wielandt_bound(n)
    squares = [square]
    index = 1
    while True:
        square = mul_rows(square, square)
        index *= 2
        if square == positive:
            break
        if index >= cap or square in squares:
            return None
        squares.append(square)
    below = squares[-1]
    k = index // 2
    for bit in range(len(squares) - 2, -1, -1):
        # Powers of A commute; the sparser stored square goes on the left,
        # because the product costs one row OR per set bit of its left operand.
        product = mul_rows(squares[bit], below)
        if product != positive:
            below = product
            k += 1 << bit
    return k + 1, below


def _lane_product(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    """Entry (i, c) is OR_j left[i][j] & right[j][c], on every lane at once.

    Row i ORs the rows j of ``right`` masked by left[i][j] and skips the
    entries that are zero on every lane.  Early squares and the small
    search steps are mostly such entries, so the sparser operand goes on
    the left: the thm33 chord sets of orders 5..20 took 0.26 s this way
    and 0.55 s with one OR-of-ANDs per entry (2-core VM, Python 3.11).
    """
    out = []
    for row in left:
        acc = [0] * len(right)
        for x, taken in zip(row, right):
            if x:
                acc = [a | x & y for a, y in zip(acc, taken)]
        out.append(acc)
    return out


def _positive_lanes(entries: list[list[int]]) -> int:
    """The lanes whose every entry is set."""
    return functools.reduce(and_, itertools.chain.from_iterable(entries))


def _lane_exponents(arc: list[list[int]], lanes: int) -> list[int | None]:
    """``exponent_of_rows`` of each of the ``lanes`` matrices in ``arc``, in lane order.

    ``arc`` is a batch of one order bit-sliced into lanes by
    ``boolmat._lane_entries``, so each AND or OR acts on every matrix at
    once; the caller slices a batch once and hands the same slices to
    ``digraph._lane_cycle_sets`` (or its per-lane readout
    ``_lane_cycle_covers``) as well.  The search is
    ``_exponent_kernel``'s, lane by lane.  All lanes are squared together,
    keeping every square, until every lane is positive or the index reaches
    Wielandt's bound (n-1)^2 + 1; a lane not positive at the last square is
    not primitive and gets None.  A lane first positive at square 2^j then
    binary-searches below square 2^(j-1): for b = j-2 ... 0, a lane whose
    product squares[b] * below is not positive takes that product as its
    new ``below`` and adds 2^b.  Every product serves every lane, so a
    batch of a few hundred matrices of one order costs about as many
    products as one of them.
    """
    if not lanes:
        return []
    n = len(arc)
    square = arc
    everyone = (1 << lanes) - 1
    cap = wielandt_bound(n)
    squares = []
    # first[j]: the lanes first positive at square 2^j.
    first = []
    done = 0
    while True:
        squares.append(square)
        new = _positive_lanes(square) & ~done
        first.append(new)
        done |= new
        if done == everyone or 1 << (len(squares) - 1) >= cap:
            break
        square = _lane_product(square, square)
    below = [[0] * n for _ in range(n)]
    for j in range(1, len(first)):
        if first[j]:
            below = [[x | (y & first[j]) for x, y in zip(row, lower)]
                     for row, lower in zip(below, squares[j - 1])]
    # grown[b]: the lanes whose search added 2^b.
    grown = [0] * len(first)
    for b in range(len(first) - 3, -1, -1):
        active = functools.reduce(or_, first[b + 2:])
        if not active:
            continue
        product = _lane_product(squares[b], below)
        grow = active & ~_positive_lanes(product)
        if grow:
            keep = ~grow
            below = [[(x & keep) | (y & grow) for x, y in zip(row, taken)]
                     for row, taken in zip(below, product)]
            grown[b] = grow
    exps: list[int | None] = [None] * lanes
    for j, new in enumerate(first):
        for t in _set_lanes(new, lanes):
            exps[t] = (1 << j >> 1) + 1
    for b, grow in enumerate(grown):
        for t in _set_lanes(grow, lanes):
            exps[t] += 1 << b
    return exps


def _set_lanes(mask: int, lanes: int):
    """The lanes t whose bit lanes-1-t is set in ``mask``, ascending."""
    bits = format(mask, f"0{lanes}b")
    t = bits.find("1")
    while t >= 0:
        yield t
        t = bits.find("1", t + 1)


def exponent_of_rows(rows: tuple[int, ...], n: int) -> int | None:
    """Smallest k >= 1 with rows^k all-positive, or None if not primitive.

    About 2*log2(k) Boolean products; see ``_exponent_kernel``.
    """
    found = _exponent_kernel(rows, n)
    return None if found is None else found[0]


def exponent(d: Digraph) -> ExponentResult:
    """Exponent with a lower-bound witness; raises on non-primitive input."""
    n = d.order
    found = _exponent_kernel(d.rows, n)
    if found is None:
        raise NotPrimitiveError(f"digraph of order {n} is not primitive")
    value, below = found
    return ExponentResult(
        value=value,
        certificate_pair=_least_zero_entry(below, n),
        certificate_length=value - 1,
    )


def _least_zero_entry(rows: tuple[int, ...], n: int) -> tuple[int, int]:
    """The least zero entry (i, j), 1-based, of rows that are not all ones."""
    full = (1 << n) - 1
    i = next(i for i, row in enumerate(rows) if row != full)
    missing = full & ~rows[i]
    return (i + 1, (missing & -missing).bit_length())


def _primitive_cwalk(rows: tuple[int, ...], n: int) -> tuple[list[int], list[list[int]]]:
    """(cycle lengths, ``_cwalk_rows``) of a primitive digraph from one cover.

    A digraph is primitive when it is strongly connected and the gcd of its
    cycle lengths, its period, is 1.  The gcd is read off the cover, and the
    c-walk search raises NotPrimitiveError from a start that cannot reach
    every vertex, which happens exactly when the digraph is not strongly
    connected.  When the cover passes its budget or the search has too many
    cycle lengths, ``rows_primitive`` decides which error to raise.  Every
    refusal is NotPrimitiveError with one message.
    """
    try:
        cover = _cycle_cover(rows, n)
        lengths = [k for k in range(1, n + 1) if cover[k]]
        if math.gcd(*lengths) == 1:
            return lengths, _cwalk_rows(rows, n, cover)
    except (TruncatedProfileError, TooManyCycleLengthsError):
        if rows_primitive(rows, n):
            raise
    except NotPrimitiveError:
        pass
    raise NotPrimitiveError(f"digraph of order {n} is not primitive")


def c_walk_distances(d: Digraph) -> CWalkResult:
    """All-pairs shortest walks meeting one cycle of every occurring length.

    A walk meets a p-cycle when it shares a vertex with some simple cycle of
    length p; the zero-length walk at v meets every cycle through v.  Runs
    ``_cwalk_rows`` on the subset-DP cover, which raises
    ``TruncatedProfileError`` past its state budget, and reads primitivity
    off the same work (see ``_primitive_cwalk``).  Non-primitive input raises
    NotPrimitiveError; when it is too dense for the cover, only after the
    budget runs out, which takes seconds at order 64.
    """
    return _cwalk_result(_primitive_cwalk(d.rows, d.order)[1])


def cwalk_of_cover(rows: tuple[int, ...], n: int, cover: list[int]) -> CWalkResult:
    """``c_walk_distances`` of a primitive digraph from its cycle cover, unchecked."""
    return _cwalk_result(_cwalk_rows(rows, n, cover))


def _cwalk_result(per_row: list[list[int]]) -> CWalkResult:
    """The c-walk rows with their maximum and its least attaining pair."""
    per_pair = tuple(map(tuple, per_row))
    row_max = [max(row) for row in per_pair]
    best = max(row_max)
    i = row_max.index(best)
    return CWalkResult(per_pair=per_pair, max=best, arg_max=(i + 1, per_pair[i].index(best) + 1))


def _cwalk_rows(rows: tuple[int, ...], n: int, cover: list[int]) -> list[list[int]]:
    """Row u - 1 holds the c-walk distances from u of a primitive digraph, unchecked.

    The kernel of ``c_walk_distances``, ``cwalk_of_cover`` and
    ``lemma22_bound``; ``_lane_cwalk_diameters``, the bound suite's batch
    kernel, is tested against its maximum.

    ``cover`` holds, per cycle length, the bit-set of vertices on some simple
    cycle of that length; empty entries are skipped, so the list that
    ``digraph._cycle_cover`` returns can be passed as it is.  A walk that
    meets a set meets every superset of it, so only the sets minimal under
    inclusion are kept (``_kept_sets``).

    A start u with exactly one successor w whose met-mask (the kept sets
    through it) includes u's is a chain start: every walk out of u goes
    through w first and meets what the rest of it meets, so u's row is w's
    row plus one, with 0 at u itself when u is on every kept set.  Each chain
    is followed to its end, which runs a search, and filled in backwards
    from there.  A chain that closes on itself gets one search at the vertex
    where it closes, so no row is ever derived from an unfinished one.  A
    search from a start on every kept set is a plain BFS.  Any other start
    runs a level-by-level BFS over (vertex, met-mask) states.  Its visited
    set maps a met-mask to the bit-set of vertices seen with it, in a dict
    rather than a list of 2^u entries: u can be 20, and few of the masks
    occur.  A search that cannot reach every vertex with every set met
    raises NotPrimitiveError; a derived row is complete exactly when the
    row it comes from is, so the chains change no verdict.
    """
    minimal = _kept_sets(cover)
    if minimal is None:
        raise _too_many_lengths(cover)
    met = [0] * n
    for i, vertices in enumerate(minimal):
        while vertices:
            low = vertices & -vertices
            met[low.bit_length() - 1] |= 1 << i
            vertices ^= low
    full = (1 << len(minimal)) - 1
    # (successor, its bit, its met-mask) per vertex, so the BFS peels no bits,
    # and the chain successor per vertex: itself unless the rule above holds.
    succ = []
    chain = list(range(n))
    for v in range(n):
        row = rows[v]
        if row and not row & (row - 1):
            w = row.bit_length() - 1
            succ.append(((w, row, met[w]),))
            if not met[v] & ~met[w]:
                chain[v] = w
            continue
        out = []
        while row:
            low = row & -row
            w = low.bit_length() - 1
            out.append((w, low, met[w]))
            row ^= low
        succ.append(out)

    per_row: list[list[int] | None] = [None] * n
    for first in range(n):
        path = []
        start = first
        while per_row[start] is None and start not in path:
            path.append(start)
            start = chain[start]
        if per_row[start] is None:
            per_row[start] = _cwalk_search(start, n, succ, met, full)
        for v in reversed(path):
            if per_row[v] is None:
                row = [d + 1 for d in per_row[chain[v]]]
                if met[v] == full:
                    row[v] = 0
                per_row[v] = row
    return per_row


def _too_many_lengths(cover: list[int]) -> TooManyCycleLengthsError:
    """The refusal of a cover with more than MAX_CYCLE_LENGTHS cycle lengths."""
    count = sum(1 for vertices in cover if vertices)
    return TooManyCycleLengthsError(f"{count} distinct cycle lengths exceeds {MAX_CYCLE_LENGTHS}")


def _kept_sets(cover: list[int]) -> list[int] | None:
    """The non-empty sets of ``cover`` minimal under inclusion, smallest first.

    None when the cover has more than MAX_CYCLE_LENGTHS cycle lengths.
    """
    if len(cover) - cover.count(0) > MAX_CYCLE_LENGTHS:
        return None
    minimal: list[int] = []
    for vertices in sorted(set(cover).difference((0,)), key=int.bit_count):
        for kept in minimal:
            if not kept & ~vertices:
                break
        else:
            minimal.append(vertices)
    return minimal


def _lane_cwalk_diameters(arc: list[list[int]], lanes: int,
                          covers: list[list[int]]) -> list[int | None]:
    """The c-walk maximum, ``max(map(max, _cwalk_rows(...)))``, of each lane, in lane order.

    ``arc`` is a batch of ``lanes`` matrices of one order sliced by
    ``boolmat._lane_entries`` and ``covers`` their cycle covers, as
    ``digraph._lane_cycle_covers`` reads them off the same slices.  A lane
    whose cover has more than MAX_CYCLE_LENGTHS lengths gets None.  A lane
    that cannot reach every vertex with every kept set met raises
    NotPrimitiveError.

    Every lane's kept sets (``_kept_sets``) are padded with the full vertex
    set up to m, the batch's largest count of them, so all lanes share one
    met-mask space and one search.  Every vertex lies in the full set, so
    every start meets it at once, and the padding changes no distance.  A
    lane with too many lengths is searched with m full sets, every set met
    from the start, and still reports None.

    Bit u*L + L-1-t of a wide int stands for start u of lane t, L = lanes,
    lane t sitting at bit L-1-t of its block as in the slices: each slice
    is replicated across the n start blocks by multiplying it by R = sum of
    1 << (u*L), so every start of every lane searches at once.  A state is
    a (vertex v, met-mask M) pair, as in ``_cwalk_search``, and holds the
    (start, lane) bits that reach it.  The search is level by level.  The
    bits of every state with mask M are first ORed into w on the lanes with
    an arc v -> w, then split once per (w, M) by the lanes' met-mask at w
    (``classes``), since the kept sets differ per lane; lanes whose masks
    at w differ only in sets M already meets stay together (``_merged``).
    A state keeps only the bits that first reach it.  A bit that has
    reached (w, full) is dropped from every other state at w, which it
    dominates, and a (start, lane) bit leaves the search once it has
    reached every vertex with the full mask.  The first level at which a
    bit reaches (w, full) is the c-walk distance from its start to w, so a
    lane's maximum is the last level at which any of its n blocks first
    reaches a full state.
    """
    n = len(arc)
    own = [_kept_sets(cover) for cover in covers]
    m = max([len(sets) for sets in own if sets is not None], default=0)
    vertices = (1 << n) - 1
    kept = [[vertices] * m if sets is None else sets + [vertices] * (m - len(sets))
            for sets in own]
    full = (1 << m) - 1
    lane_mask = (1 << lanes) - 1
    blocks = [u * lanes for u in range(n)]
    rep = sum(1 << shift for shift in blocks)
    everyone = lane_mask * rep
    # inside[i][w]: the lanes with w in their i-th kept set.
    inside = []
    for i in range(m):
        text = "".join([format(sets[i], f"0{n}b") for sets in kept])
        inside.append([int(text[n - 1 - w::n], 2) for w in range(n)])
    # classes[w]: (met-mask at w, its lanes) for each mask some lane has at w.
    classes = []
    frontier: dict[tuple[int, int], int] = {}
    for w in range(n):
        parts = {0: lane_mask}
        for i in range(m):
            held = inside[i][w]
            refined = {}
            for mask, group in parts.items():
                if group & held:
                    refined[mask | 1 << i] = group & held
                if group & ~held:
                    refined[mask] = group & ~held
            parts = refined
        classes.append([(mask, group * rep) for mask, group in parts.items()])
        for mask, group in parts.items():
            frontier[w, mask] = group << blocks[w]
    arc_rows = [[x * rep for x in row] for row in arc]
    seen = dict(frontier)
    reached = [seen.get((w, full), 0) for w in range(n)]
    # found[k]: the (start, lane) bits that first reach a full state at level k.
    found = [functools.reduce(or_, reached)]
    done = functools.reduce(and_, reached)
    # steps[w, mask]: (mask after stepping to w, its lanes) per distinct mask.
    steps: dict[tuple[int, int], list[tuple[int, int]]] = {}
    while frontier and done != everyone:
        # into[mask][w]: the bits that step to w from a state with that mask.
        into: dict[int, list[int]] = {}
        for (v, mask), bits in frontier.items():
            bits &= ~done
            if bits:
                row = into.get(mask)
                into[mask] = [x | bits & y for x, y in zip(row, arc_rows[v])] if row else [
                    bits & y for y in arc_rows[v]]
        grown: dict[tuple[int, int], int] = {}
        for mask, row in into.items():
            for w, bits in enumerate(row):
                if not bits:
                    continue
                parts = steps.get((w, mask))
                if parts is None:
                    parts = steps[w, mask] = _merged(mask, classes[w])
                if len(parts) == 1:
                    key = (w, parts[0][0])
                    grown[key] = grown.get(key, 0) | bits
                    continue
                for met, group in parts:
                    hit = bits & group
                    if hit:
                        grown[w, met] = grown.get((w, met), 0) | hit
        frontier = {}
        new_full = 0
        for key, bits in grown.items():
            w, mask = key
            # A bit that has reached (w, full) reaches everything from there
            # no later than from any other mask at w.
            bits &= ~reached[w]
            if not bits:
                continue
            if mask == full:
                reached[w] |= bits
                new_full |= bits
            else:
                old = seen.get(key, 0)
                bits &= ~old
                if not bits:
                    continue
                seen[key] = old | bits
            frontier[key] = bits
        found.append(new_full)
        done = functools.reduce(and_, reached)
    if done != everyone:
        raise NotPrimitiveError("product-state search could not reach every pair")
    diameters = [0] * lanes
    pending = lane_mask
    for level in range(len(found) - 1, -1, -1):
        hit = functools.reduce(or_, [found[level] >> shift for shift in blocks]) & pending
        if hit:
            for t in _set_lanes(hit, lanes):
                diameters[t] = level
            pending &= ~hit
    return [None if sets is None else d for sets, d in zip(own, diameters)]


def _merged(mask: int, classes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``classes`` of one vertex as seen from met-mask ``mask``: lanes whose
    masks differ only in sets ``mask`` already meets land in one state."""
    merged: dict[int, int] = {}
    for met, group in classes:
        merged[mask | met] = merged.get(mask | met, 0) | group
    return list(merged.items())


def _cwalk_search(start: int, n: int, succ: list, met: list[int], full: int) -> list[int]:
    """One row of ``_cwalk_rows`` by search; see there."""
    dist = [-1] * n
    if met[start] == full:
        # Every walk from here has met every set: plain distances.  A list
        # BFS beats the bit-set ``digraph._bfs_dist`` about 2x on sparse input.
        dist[start] = 0
        queue = [start]
        for v in queue:
            step = dist[v] + 1
            for w, _, _ in succ[v]:
                if dist[w] < 0:
                    dist[w] = step
                    queue.append(w)
        remaining = n - len(queue)
    else:
        frontier = [(start, met[start])]
        seen = {met[start]: 1 << start}
        remaining = n
        steps = 0
        while remaining and frontier:
            steps += 1
            grown = []
            for v, mask in frontier:
                for w, bit, w_met in succ[v]:
                    m = mask | w_met
                    old = seen.get(m, 0)
                    if not old & bit:
                        seen[m] = old | bit
                        grown.append((w, m))
                        # The first full-mask state at w is found at its least level.
                        if m == full:
                            dist[w] = steps
                            remaining -= 1
            frontier = grown
    if remaining:
        raise NotPrimitiveError("product-state search could not reach every pair")
    return dist


# -- closed-form evaluators -------------------------------------------------
#
# Each evaluator returns the stated expression after validating its
# parameter window; none of them asserts anything about actual exponents.

def lemma22_bound(d: Digraph) -> int:
    """Cycle-meeting diameter plus the conductor of the cycle length set.

    Both terms and the primitivity verdict come from one subset-DP cover;
    see ``c_walk_distances``, whose errors it raises.
    """
    lengths, per_row = _primitive_cwalk(d.rows, d.order)
    return max(map(max, per_row)) + frobenius(lengths)


def lemma23_bound(n: int, g: int) -> int:
    """n + g(n-2) for a primitive digraph of order n and girth g."""
    if not 1 <= g <= n - 1:
        raise ValueError(f"need 1 <= g <= n-1, got g={g}, n={n}")
    return n + g * (n - 2)


def lemma25_bound(n: int) -> int:
    """floor((n-2)^2 / 2) + n; applies when at least 3 cycle lengths occur."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n - 2) ** 2 // 2 + n


def lemma26_bound(n: int, g: int, q: int) -> int:
    """2n - g - 1 + (g-1)(q-1) for cycle length set {g, q}, g <= q."""
    if not 1 <= g <= q <= n:
        raise ValueError(f"need 1 <= g <= q <= n, got g={g}, q={q}, n={n}")
    return 2 * n - g - 1 + (g - 1) * (q - 1)


def lemma32_bound(n: int, g: int) -> int:
    """2n - 2 + (g-1)(n-3) for cycle length set {g, q} with q <= n-1."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    if not 1 <= g <= n - 2:
        raise ValueError(f"need 1 <= g <= n-2, got g={g}, n={n}")
    return 2 * n - 2 + (g - 1) * (n - 3)


def lemma34_bound(n: int, g: int) -> int:
    """(n-1)g + n - 2g for the two-disjoint-g-cycle construction."""
    if g < 1:
        raise ValueError(f"need g >= 1, got g={g}")
    if n < 2 * g:
        raise ValueError(f"need n >= 2g, got n={n}, g={g}")
    if math.gcd(n, g) != 1:
        raise ValueError(f"need gcd(n, g) = 1, got gcd({n}, {g}) = {math.gcd(n, g)}")
    return (n - 1) * g + n - 2 * g


def formula_thm33(n: int, g: int, r: int) -> int:
    """Predicted exponent (n-2)g + 1 - r + n for a chord set with maximum r.

    Pure prediction: the verification harness owns the comparison against
    oracle exponents.
    """
    if math.gcd(n, g) != 1:
        raise ValueError(f"need gcd(n, g) = 1, got gcd({n}, {g}) = {math.gcd(n, g)}")
    t = min(n - g + 1, g)
    if not 1 <= r <= t:
        raise ValueError(f"need 1 <= r <= {t}, got r={r}")
    return (n - 2) * g + 1 - r + n


def thm36_range(n: int, g: int) -> tuple[int, int]:
    """Exponent window (low_exclusive, high_inclusive) of the characterization.

    Its top is ``lemma23_bound``, so it takes the same window 1 <= g <= n-1.
    """
    high = lemma23_bound(n, g)
    return (2 * n - 2 + (g - 1) * (n - 3), high)


def z_of_w(n: int, g: int, w: int) -> int:
    """Chord-maximum index z = (n-2)g + 1 + n - w for w inside the window."""
    low, high = thm36_range(n, g)
    if not low < w <= high:
        raise ValueError(f"w={w} outside window ({low}, {high}]")
    return (n - 2) * g + 1 + n - w
