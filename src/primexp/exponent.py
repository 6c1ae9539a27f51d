"""Exact exponent computation, walk witnesses, cycle-meeting walk distances
and the closed-form bound/prediction evaluators.

The exponent of a primitive digraph is the least k >= 1 whose k-th Boolean
matrix power is entirely positive.  One kernel computes it for both
``exponent`` and ``exponent_of_rows`` in O(log k) Boolean products: it
squares the matrix until a square is all-positive, keeping every square,
then binary-searches below that square with the stored ones.  The search
ends on the power k - 1, whose least zero entry is the witness pair.  A
non-positive square equal to an earlier one means the matrix is not
primitive: the bare 64-cycle is refused at its 7th square, where the
Wielandt cap would take 12.

``c_walk_distances`` computes, for every ordered vertex pair, the length of
the shortest walk that shares a vertex with at least one simple cycle of
each length occurring in the digraph.  It and ``lemma22_bound`` read the
cycle lengths from the budgeted subset DP ``digraph._cycle_cover``, which
raises ``TruncatedProfileError`` on input too dense for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    u -> v walk of length value - 1; None only when the caller suppressed it.
    """

    value: int
    certificate_pair: tuple[int, int] | None
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

    Squares A until A^(2^m) is all-positive, keeping every square, then
    binary-searches below it: the largest non-positive power is assembled
    from the stored squares one bit at a time, which is exact because the
    all-positive predicate is monotone in k for primitive matrices.  A
    primitive matrix has an all-positive square, so a non-positive square
    equal to an earlier stored one is the not-primitive verdict: from there
    the squares cycle and never reach all-ones.  A non-positive square whose
    index reaches the Wielandt cap is the verdict too.  Both phases share
    one inline product loop, left times right, whose rows stop once they
    are all ones: at small orders, where exhaustive scans call this with
    exponents of 10 or less, a function call per product costs about as
    much as its ORs.  For the same reason each all-positive test is one
    tuple comparison.
    """
    full = (1 << n) - 1
    positive = (full,) * n
    square = tuple(rows)
    if square == positive:
        return 1, tuple(1 << i for i in range(n))
    cap = wielandt_bound(n)
    squares = [square]
    index = 1
    # bit < 0 while squaring; then the stored square the search tries next.
    bit = -1
    left = right = square
    while True:
        out = []
        for row in left:
            acc = 0
            while row:
                low = row & -row
                acc |= right[low.bit_length() - 1]
                if acc == full:
                    break
                row ^= low
            out.append(acc)
        product = tuple(out)
        if bit < 0:
            index *= 2
            if product != positive:
                if index >= cap or product in squares:
                    return None
                squares.append(product)
                left = right = product
                continue
            below = squares[-1]
            k = index // 2
            bit = len(squares) - 2
        else:
            if product != positive:
                below = product
                k += 1 << bit
            bit -= 1
        if bit < 0:
            return k + 1, below
        # Powers of A commute; the sparser stored square goes on the left,
        # because the product costs one row OR per set bit of its left operand.
        left, right = squares[bit], below


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


def _least_zero_entry(rows: tuple[int, ...], n: int) -> tuple[int, int] | None:
    full = (1 << n) - 1
    for i in range(n):
        missing = full & ~rows[i]
        if missing:
            return (i + 1, (missing & -missing).bit_length())
    return None


def _primitive_rows(d: Digraph) -> tuple[int, ...]:
    if not rows_primitive(d.rows, d.order):
        raise NotPrimitiveError(f"digraph of order {d.order} is not primitive")
    return d.rows


def c_walk_distances(d: Digraph) -> CWalkResult:
    """All-pairs shortest walks meeting one cycle of every occurring length.

    A walk meets a p-cycle when it shares a vertex with some simple cycle of
    length p; the zero-length walk at v meets every cycle through v.  Checks
    primitivity, then runs ``cwalk_of_cover`` on the subset-DP cover, which
    raises ``TruncatedProfileError`` past its state budget.
    """
    n = d.order
    rows = _primitive_rows(d)
    return cwalk_of_cover(rows, n, _cycle_cover(rows, n))


def cwalk_of_cover(rows: tuple[int, ...], n: int, cover: list[int]) -> CWalkResult:
    """``c_walk_distances`` of a primitive digraph from its cycle cover, unchecked.

    ``cover`` holds, per cycle length, the bit-set of vertices on some simple
    cycle of that length; empty entries are skipped, so the list that
    ``digraph._cycle_cover`` returns can be passed as it is.  A walk that
    meets a set meets every superset of it, so only the sets minimal under
    inclusion are kept.

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
    cover = [vertices for vertices in cover if vertices]
    if len(cover) > MAX_CYCLE_LENGTHS:
        raise TooManyCycleLengthsError(
            f"{len(cover)} distinct cycle lengths exceeds {MAX_CYCLE_LENGTHS}")
    minimal: list[int] = []
    for vertices in sorted(cover, key=int.bit_count):
        if all(kept & ~vertices for kept in minimal):
            minimal.append(vertices)
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

    per_pair = tuple(map(tuple, per_row))
    row_max = [max(row) for row in per_pair]
    best = max(row_max)
    i = row_max.index(best)
    return CWalkResult(per_pair=per_pair, max=best, arg_max=(i + 1, per_pair[i].index(best) + 1))


def _cwalk_search(start: int, n: int, succ: list, met: list[int], full: int) -> list[int]:
    """One row of ``cwalk_of_cover`` by search; see there."""
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

    Both terms come from one subset-DP cover; see ``c_walk_distances``.
    """
    n = d.order
    rows = _primitive_rows(d)
    cover = _cycle_cover(rows, n)
    lengths = [k for k in range(1, n + 1) if cover[k]]
    return cwalk_of_cover(rows, n, cover).max + frobenius(lengths)


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
    """Exponent window (low_exclusive, high_inclusive) of the characterization."""
    low = 2 * n - 2 + (g - 1) * (n - 3)
    high = n + g * (n - 2)
    return (low, high)


def z_of_w(n: int, g: int, w: int) -> int:
    """Chord-maximum index z = (n-2)g + 1 + n - w for w inside the window."""
    low, high = thm36_range(n, g)
    if not low < w <= high:
        raise ValueError(f"w={w} outside window ({low}, {high}]")
    return (n - 2) * g + 1 + n - w
