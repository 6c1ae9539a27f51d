"""Correctness oracles that share no code with the package under test.

Matrices are tuples of row bit-sets: bit j of row i set means an arc
i+1 -> j+1, the same layout as the package's matrix text format.  Every
helper here is written from the definitions, so a defect in the package's
kernels cannot hide behind the oracle that checks it.
"""

from __future__ import annotations

import hashlib
import math


def bool_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean product: row i of the result is the OR of b[k] over bits k of a[i]."""
    out = []
    for row in a:
        acc = 0
        k = 0
        while row:
            if row & 1:
                acc |= b[k]
            row >>= 1
            k += 1
        out.append(acc)
    return tuple(out)


def bool_power(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    """A^k by repeated squaring; A^0 is the identity."""
    result = tuple(1 << i for i in range(len(a)))
    base = a
    while k:
        if k & 1:
            result = bool_mul(result, base)
        k >>= 1
        if k:
            base = bool_mul(base, base)
    return result


def all_positive(rows: tuple[int, ...]) -> bool:
    full = (1 << len(rows)) - 1
    return all(row == full for row in rows)


def is_primitive(rows: tuple[int, ...]) -> bool:
    """Wielandt power test: A is primitive iff A^((n-1)^2+1) is all-positive."""
    n = len(rows)
    return all_positive(bool_power(rows, (n - 1) ** 2 + 1))


def exponent_holds(rows: tuple[int, ...], e: int) -> bool:
    """True iff e is the exponent: A^e all-positive and A^(e-1) not."""
    if e < 1:
        return False
    before = bool_power(rows, e - 1)
    return not all_positive(before) and all_positive(bool_mul(before, rows))


def entry(rows: tuple[int, ...], i: int, j: int) -> int:
    """Entry (i, j) with 1-based indices."""
    return (rows[i - 1] >> (j - 1)) & 1


def girth(rows: tuple[int, ...]) -> int | None:
    """Least k with a nonzero diagonal entry in A^k; None when acyclic."""
    n = len(rows)
    power = rows
    for k in range(1, n + 1):
        if any((power[i] >> i) & 1 for i in range(n)):
            return k
        power = bool_mul(power, rows)
    return None


def diameter(rows: tuple[int, ...]) -> int:
    """Largest shortest-path distance over ordered pairs (a strongly connected input)."""
    n = len(rows)
    full = (1 << n) - 1
    worst = 0
    for start in range(n):
        seen = frontier = 1 << start
        level = 0
        while seen != full:
            nxt = 0
            for v in range(n):
                if (frontier >> v) & 1:
                    nxt |= rows[v]
            frontier = nxt & ~seen
            if not frontier:
                raise ValueError("digraph is not strongly connected")
            seen |= frontier
            level += 1
        worst = max(worst, level)
    return worst


def conductor(a: int, b: int) -> int:
    """Conductor (a-1)(b-1) of the numerical semigroup generated by coprime a, b."""
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1")
    return (a - 1) * (b - 1)


def serialize(rows: tuple[int, ...]) -> str:
    """Matrix text format: the order, then one 0/1 line per row, LF-terminated."""
    n = len(rows)
    lines = [str(n)]
    lines.extend("".join("1" if (row >> j) & 1 else "0" for j in range(n)) for row in rows)
    return "\n".join(lines) + "\n"


def decode_bits(bits: str, n: int) -> tuple[int, ...]:
    """Rows of a row-major adjacency bit-string (character i*n+j is entry (i+1, j+1))."""
    return tuple(
        sum(1 << j for j in range(n) if bits[i * n + j] == "1") for i in range(n)
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- the chord-on-a-cycle constructions, from their definitions -------------

def standard_cycle(n: int) -> list[int]:
    """Descending n-cycle v_j -> v_{j-1}, v_1 -> v_n, as mutable rows."""
    rows = [0] * n
    for j in range(2, n + 1):
        rows[j - 1] |= 1 << (j - 2)
    rows[0] |= 1 << (n - 1)
    return rows


def chord_rows(n: int, g: int, positions) -> tuple[int, ...]:
    """Standard cycle plus the span-g chord v_i -> v_{(g+i-2) mod n + 1} per position i."""
    rows = standard_cycle(n)
    for i in positions:
        rows[i - 1] |= 1 << ((g + i - 2) % n)
    return tuple(rows)


def mask_positions(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


def relabel(rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Rows after mapping vertex i+1 to perm[i]+1 (perm is 0-based)."""
    n = len(rows)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if (rows[i] >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)
