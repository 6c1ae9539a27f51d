"""gcd utilities and the conductor of a numerical semigroup.

``frobenius`` follows the conductor convention: the smallest m such that
every integer k >= m is a nonnegative combination of the generators.  For
coprime pairs this is (s1 - 1)(s2 - 1), one more than the classical largest
non-representable integer.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

FROBENIUS_BUDGET = 2 * 10**6  # cap on m * (k - 1), see ``frobenius``


def gcd_set(values: Iterable[int]) -> int:
    vals = sorted(set(values))
    if not vals:
        raise ValueError("generator set must be nonempty")
    if vals[0] < 1:
        raise ValueError(f"generators must be positive, got {vals[0]}")
    return math.gcd(*vals)


def frobenius(values: Iterable[int]) -> int:
    """Conductor of the semigroup generated by a gcd-1 set of positive integers.

    Computed by the round-robin/Apery method: a shortest-path sweep over
    residues modulo the smallest generator finds, for each residue class,
    the least representable integer; the conductor follows exactly.  The
    pair closed form is never used here (tests cross-check against it).
    It relaxes each residue along the k - 1 other distinct generators, so
    m * (k - 1) above ``FROBENIUS_BUDGET`` = 2 * 10**6 raises ValueError.
    """
    vals = sorted(set(values))
    d = gcd_set(vals)
    if d != 1:
        raise ValueError(f"conductor undefined: gcd of {vals} is {d} != 1")
    m = vals[0]
    if m * (len(vals) - 1) > FROBENIUS_BUDGET:
        raise ValueError(f"m * (k - 1) = {m * (len(vals) - 1)} exceeds the budget {FROBENIUS_BUDGET}")
    if m == 1:
        return 0
    # least[r] = smallest representable integer congruent to r (mod m)
    least = [None] * m
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        value, r = heapq.heappop(heap)
        if value != least[r]:
            continue
        for s in vals[1:]:
            nr = (r + s) % m
            nv = value + s
            if least[nr] is None or nv < least[nr]:
                least[nr] = nv
                heapq.heappush(heap, (nv, nr))
    # gcd 1 guarantees every residue class is hit
    return max(least) - m + 1
