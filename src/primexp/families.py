"""Constructors for the named chord-on-a-cycle digraph families.

The base object is the standard descending n-cycle
C = (v_n, v_{n-1}, ..., v_2, v_1, v_n); chords of one span g are added on
top of it.  ``_chord_rows`` builds the successor rows of every such
chorded cycle from a bitmask of chord positions: the standard cycle is
mask 0, d1 and d2 are span n-1 with masks 0b1 and 0b11, d_gN is the mask of
N, and q1, q2 and the chord members follow.  The two-disjoint-g-cycle
family H is the transpose of the member with mask {1, k}.  Every
constructor checks the order before it builds a row, so an order far past
the cap is refused at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .boolmat import _check_order, transpose_rows
from .digraph import Digraph


def _chord_rows(n: int, g: int, mask: int) -> tuple[int, ...]:
    """Successor rows of the standard n-cycle plus a span-g chord per masked position.

    Row i - 1 is vertex v_i: its cycle arc goes to v_{i-1} (v_n for i = 1)
    and its chord, when bit i - 1 of the mask is set, to v_{(g+i-2) mod n + 1},
    which closes a g-cycle with the n-cycle.  Unchecked.
    """
    return tuple((1 << (v - 1) % n) | ((mask >> v & 1) << (g + v - 1) % n) for v in range(n))


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one constructed digraph.

    kind is a key of KINDS; only the fields that KINDS lists for it are
    set.  chord_mask is a bitmask over cyclic chord positions 1..n (bit i-1
    for position i).
    """

    kind: str
    n: int
    g: int | None = None
    N: tuple[int, ...] = field(default=())
    k: int | None = None
    chord_mask: int | None = None

    def build(self) -> Digraph:
        try:
            constructor, fields = KINDS[self.kind]
        except KeyError:
            raise ValueError(f"unknown family kind {self.kind!r}") from None
        return constructor(*(getattr(self, name) for name in fields))


def standard_cycle(n: int) -> Digraph:
    """Descending n-cycle: arcs v_j -> v_{j-1} for j = 2..n plus v_1 -> v_n."""
    _check_order(n)
    return Digraph(n, _chord_rows(n, 0, 0))


def d1(n: int) -> Digraph:
    """Standard cycle plus the chord (v_1, v_{n-1})."""
    _check_order(n)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return Digraph(n, _chord_rows(n, n - 1, 0b1))


def d2(n: int) -> Digraph:
    """d1 plus the chord (v_2, v_n)."""
    _check_order(n)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return Digraph(n, _chord_rows(n, n - 1, 0b11))


def chord_position_cap(n: int, g: int) -> int:
    """t = min(n-g+1, g): highest admissible chord position index."""
    return min(n - g + 1, g)


def d_gN(n: int, g: int, N) -> Digraph:
    """Standard cycle plus the chord (v_i, v_{g+i-1}) for every i in N.

    Each chord closes a g-cycle v_i -> v_{g+i-1} -> v_{g+i-2} -> ... -> v_i.
    Positions are at most t <= n - g + 1, so no chord wraps around.
    """
    _check_order(n)
    if math.gcd(n, g) != 1:
        raise ValueError(f"gcd violation: gcd({n}, {g}) = {math.gcd(n, g)}, need 1")
    positions = sorted(set(N))
    if not positions:
        raise ValueError("emptiness violation: chord set N must be nonempty")
    t = chord_position_cap(n, g)
    if positions[0] < 1 or positions[-1] > t:
        raise ValueError(f"range violation: N must lie in 1..{t}, got {positions}")
    return Digraph(n, _chord_rows(n, g, sum(1 << (i - 1) for i in positions)))


def q1(n: int, g: int) -> Digraph:
    return d_gN(n, g, {1})


def q2(n: int, g: int) -> Digraph:
    return d_gN(n, g, {1, 2})


def h_graph(n: int, g: int, k: int) -> Digraph:
    """Ascending n-cycle carrying two vertex-disjoint g-cycles.

    Arcs v_j -> v_{j+1} and v_n -> v_1 (note the opposite orientation from
    the standard cycle) plus the chords (v_g, v_1) and (v_{k+g-1}, v_k):
    the transpose of the chorded cycle with mask {1, k}.  The construction
    itself does not require gcd(n, g) = 1; without it the result is simply
    not primitive.
    """
    _check_order(n)
    if g < 1:
        raise ValueError(f"need g >= 1, got {g}")
    if n < 2 * g:
        raise ValueError(f"need n >= 2g, got n={n}, g={g}")
    if not g + 1 <= k:
        raise ValueError(f"need k >= g+1, got k={k}, g={g}")
    if not g + k - 1 <= n:
        raise ValueError(f"need g+k-1 <= n, got g={g}, k={k}, n={n}")
    return Digraph(n, transpose_rows(_chord_rows(n, g, 1 | 1 << (k - 1)), n))


def chord_member(n: int, g: int, mask: int) -> Digraph:
    """Standard cycle plus the rotational span-g chord at each masked position."""
    _check_order(n)
    if not 2 <= g <= n - 1:
        raise ValueError(f"need 2 <= g <= n-1, got g={g}, n={n}")
    if not 1 <= mask < (1 << n):
        raise ValueError(f"mask must be in 1..{(1 << n) - 1}, got {mask}")
    return Digraph(n, _chord_rows(n, g, mask))


# kind -> (constructor, the FamilySpec fields it takes, in call order)
KINDS = {
    "cycle": (standard_cycle, ("n",)),
    "d1": (d1, ("n",)),
    "d2": (d2, ("n",)),
    "d_gN": (d_gN, ("n", "g", "N")),
    "q1": (q1, ("n", "g")),
    "q2": (q2, ("n", "g")),
    "h": (h_graph, ("n", "g", "k")),
    "chord": (chord_member, ("n", "g", "chord_mask")),
}
