"""Constructors and enumerators for the named chord-on-a-cycle digraph families.

The base object is the standard descending n-cycle
C = (v_n, v_{n-1}, ..., v_2, v_1, v_n); chords of one span g are added on
top of it.  ``_chord_rows`` builds the successor rows of every such
chorded cycle from a bitmask of chord positions: the standard cycle is
mask 0, d1 and d2 are span n-1 with masks 0b1 and 0b11, d_gN is the mask of
N, and q1, q2 and the chord members follow.  The two-disjoint-g-cycle
family H rides on an ascending n-cycle instead and is built from its arcs.
Enumeration streams are deterministic (subset bitmasks ascending) so
verification runs are reproducible and resumable by index.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .digraph import Digraph, digraph


def _chord_rows(n: int, g: int, mask: int) -> tuple[int, ...]:
    """Successor rows of the standard n-cycle plus a span-g chord per masked position.

    Row i - 1 is vertex v_i: its cycle arc goes to v_{i-1} (v_n for i = 1)
    and its chord, when bit i - 1 of the mask is set, to v_{(g+i-2) mod n + 1},
    which closes a g-cycle with the n-cycle.  Unchecked.
    """
    return tuple((1 << (v - 1) % n) | ((mask >> v & 1) << (g + v - 1) % n) for v in range(n))


def _chorded_cycle(n: int, g: int, mask: int) -> Digraph:
    """``_chord_rows`` as a Digraph, for any n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Digraph(n, _chord_rows(n, g, mask))


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

    @property
    def r(self) -> int | None:
        return max(self.N) if self.N else None

    def build(self) -> Digraph:
        try:
            constructor, fields = KINDS[self.kind]
        except KeyError:
            raise ValueError(f"unknown family kind {self.kind!r}") from None
        return constructor(*(getattr(self, name) for name in fields))

    def label(self) -> str:
        parts = [f"n={self.n}"]
        if self.g is not None:
            parts.append(f"g={self.g}")
        if self.N:
            parts.append("N=" + ",".join(str(i) for i in self.N))
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.chord_mask is not None:
            parts.append(f"mask={self.chord_mask}")
        return f"{self.kind}:" + ",".join(parts)


def standard_cycle(n: int) -> Digraph:
    """Descending n-cycle: arcs v_j -> v_{j-1} for j = 2..n plus v_1 -> v_n."""
    return _chorded_cycle(n, 0, 0)


def d1(n: int) -> Digraph:
    """Standard cycle plus the chord (v_1, v_{n-1})."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _chorded_cycle(n, n - 1, 0b1)


def d2(n: int) -> Digraph:
    """d1 plus the chord (v_2, v_n)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _chorded_cycle(n, n - 1, 0b11)


def chord_position_cap(n: int, g: int) -> int:
    """t = min(n-g+1, g): highest admissible chord position index."""
    return min(n - g + 1, g)


def d_gN(n: int, g: int, N) -> Digraph:
    """Standard cycle plus the chord (v_i, v_{g+i-1}) for every i in N.

    Each chord closes a g-cycle v_i -> v_{g+i-1} -> v_{g+i-2} -> ... -> v_i.
    Positions are at most t <= n - g + 1, so no chord wraps around.
    """
    if math.gcd(n, g) != 1:
        raise ValueError(f"gcd violation: gcd({n}, {g}) = {math.gcd(n, g)}, need 1")
    positions = sorted(set(N))
    if not positions:
        raise ValueError("emptiness violation: chord set N must be nonempty")
    t = chord_position_cap(n, g)
    if positions[0] < 1 or positions[-1] > t:
        raise ValueError(f"range violation: N must lie in 1..{t}, got {positions}")
    return _chorded_cycle(n, g, sum(1 << (i - 1) for i in positions))


def q1(n: int, g: int) -> Digraph:
    return d_gN(n, g, {1})


def q2(n: int, g: int) -> Digraph:
    return d_gN(n, g, {1, 2})


def h_graph(n: int, g: int, k: int) -> Digraph:
    """Ascending n-cycle carrying two vertex-disjoint g-cycles.

    Arcs v_j -> v_{j+1} and v_n -> v_1 (note the opposite orientation from
    the standard cycle) plus the chords (v_g, v_1) and (v_{k+g-1}, v_k).
    The construction itself does not require gcd(n, g) = 1; without it the
    result is simply not primitive.
    """
    if g < 1:
        raise ValueError(f"need g >= 1, got {g}")
    if n < 2 * g:
        raise ValueError(f"need n >= 2g, got n={n}, g={g}")
    if not g + 1 <= k:
        raise ValueError(f"need k >= g+1, got k={k}, g={g}")
    if not g + k - 1 <= n:
        raise ValueError(f"need g+k-1 <= n, got g={g}, k={k}, n={n}")
    arcs = {(j, j + 1) for j in range(1, n)}
    arcs.add((n, 1))
    arcs.add((g, 1))
    arcs.add((k + g - 1, k))
    return digraph(n, arcs)


def chord_member(n: int, g: int, mask: int) -> Digraph:
    """Standard cycle plus the rotational span-g chord at each masked position."""
    if not 2 <= g <= n - 1:
        raise ValueError(f"need 2 <= g <= n-1, got g={g}, n={n}")
    if not 1 <= mask < (1 << n):
        raise ValueError(f"mask must be in 1..{(1 << n) - 1}, got {mask}")
    return _chorded_cycle(n, g, mask)


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


def _mask_positions(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def enumerate_DgN(n: int, g: int) -> Iterator[FamilySpec]:
    """All nonempty chord sets N within 1..t, as ascending subset bitmasks."""
    if math.gcd(n, g) != 1:
        raise ValueError(f"gcd violation: gcd({n}, {g}) = {math.gcd(n, g)}, need 1")
    t = chord_position_cap(n, g)
    for mask in range(1, 1 << t):
        yield FamilySpec(kind="d_gN", n=n, g=g, N=_mask_positions(mask))


def enumerate_Dr(n: int, g: int, r: int) -> Iterator[FamilySpec]:
    """Chord sets with maximum exactly r, in ascending subset-bitmask order."""
    if math.gcd(n, g) != 1:
        raise ValueError(f"gcd violation: gcd({n}, {g}) = {math.gcd(n, g)}, need 1")
    t = chord_position_cap(n, g)
    if not 1 <= r <= t:
        raise ValueError(f"need 1 <= r <= {t}, got r={r}")
    top = 1 << (r - 1)
    for low in range(top):
        yield FamilySpec(kind="d_gN", n=n, g=g, N=_mask_positions(low | top))
