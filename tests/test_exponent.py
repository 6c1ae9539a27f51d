from __future__ import annotations

import importlib
import json
import math
import random
import subprocess
import sys
import time

import pytest

from primexp.boolmat import mul_rows, pow_rows, serialize_rows, transpose_rows
from primexp.cli import main
from primexp.digraph import (
    Digraph,
    _bfs_dist,
    _cycle_cover,
    _period_of_levels,
    digraph,
    rows_primitive,
    simple_cycles,
)
from primexp.exponent import (
    MAX_CYCLE_LENGTHS,
    CWalkResult,
    NotPrimitiveError,
    TooManyCycleLengthsError,
    TruncatedProfileError,
    _exponent_kernel,
    c_walk_distances,
    cwalk_of_cover,
    exponent,
    exponent_of_rows,
    formula_thm33,
    lemma22_bound,
    lemma23_bound,
    lemma25_bound,
    lemma26_bound,
    lemma32_bound,
    lemma34_bound,
    thm36_range,
    wielandt_bound,
    z_of_w,
)
from primexp.families import chord_member, d1, d2, d_gN, h_graph, q1, q2, standard_cycle
from primexp.verify import _random_primitive_rows

from helpers import relabel


def linear_exponent_scan(rows: tuple[int, ...], n: int) -> tuple[int, tuple[int, ...]] | None:
    """Oracle: scan A, A^2, ... up to the Wielandt cap, one product per step.

    Returns (k, rows^(k-1)) for the least all-positive power k, or None.
    Each step multiplies A on the left of the running power: powers of A
    commute, and mul_rows costs one row OR per set bit of its left operand.
    """
    full = ((1 << n) - 1,) * n
    previous = tuple(1 << i for i in range(n))
    current = rows
    for k in range(1, wielandt_bound(n) + 1):
        if current == full:
            return k, previous
        previous = current
        current = mul_rows(rows, current)
    return None


def least_zero_pair(rows: tuple[int, ...], n: int) -> tuple[int, int] | None:
    """Oracle: row-major first 0 entry, as a 1-based (row, column) pair."""
    for i in range(n):
        for j in range(n):
            if not (rows[i] >> j) & 1:
                return (i + 1, j + 1)
    return None


def exponent_by_all_pairs_walks(d: Digraph) -> int:
    """Oracle: smallest k such that every ordered pair has a length-k walk."""
    n = d.order
    for k in range(1, wielandt_bound(n) + 1):
        if pow_rows(d.rows, k, n) == ((1 << n) - 1,) * n:
            return k
    raise AssertionError("no all-positive power within the maximum")


def profile_cover(profile, n: int) -> list[int]:
    """Per length of a cycle profile, the bit-set of the vertices on a cycle of it."""
    return [sum(1 << v for v in range(n) if length in profile.per_vertex[v])
            for length in profile.lengths]


def cwalk_of_profile(d: Digraph, profile) -> CWalkResult:
    """The c-walk kernel on a (Johnson) profile's cover instead of the subset-DP cover."""
    return cwalk_of_cover(d.rows, d.order, profile_cover(profile, d.order))


def cwalk_by_length_dp(d: Digraph):
    """Oracle: ``cover_walks_by_length_dp`` on the cover of a Johnson profile."""
    return cover_walks_by_length_dp(d.rows, d.order, profile_cover(simple_cycles(d)[1], d.order))


def cover_walks_by_length_dp(rows: tuple[int, ...], n: int, cover: list[int]):
    """Oracle: all-pairs shortest walks meeting every set of ``cover``.

    An exact-length walk DP over (vertex, met-set) states: level L holds the
    states reachable by walks of length exactly L.  Every set is tracked, nested
    or not, and there is no first-visit bookkeeping, so it is computed
    independently of the BFS.
    """
    met = [0] * n
    for i, vertices in enumerate(cover):
        for v in range(n):
            if (vertices >> v) & 1:
                met[v] |= 1 << i
    full = (1 << len(cover)) - 1
    limit = 2 * n * n
    result = []
    for start in range(n):
        found: dict[int, int] = {}
        current = {(start, met[start])}
        for level in range(limit + 1):
            for v, mask in current:
                if mask == full and v not in found:
                    found[v] = level
            if len(found) == n:
                break
            nxt = set()
            for v, mask in current:
                row = rows[v]
                while row:
                    low = row & -row
                    w = low.bit_length() - 1
                    row ^= low
                    nxt.add((w, mask | met[w]))
            current = nxt
        assert len(found) == n
        result.append(tuple(found[v] for v in range(n)))
    return tuple(result)


def complete_with_loops(n: int) -> Digraph:
    return Digraph(n, ((1 << n) - 1,) * n)


# -- exponent --------------------------------------------------------------

def test_exponent_anchors():
    assert exponent(d1(5)).value == 17
    assert exponent(d2(5)).value == 16
    assert exponent(complete_with_loops(3)).value == 1


def test_exponent_rejects_nonprimitive():
    with pytest.raises(NotPrimitiveError):
        exponent(standard_cycle(6))


def test_certificate_is_least_failing_pair():
    result = exponent(d1(4))
    assert result.certificate_length == result.value - 1
    prev = pow_rows(d1(4).rows, result.value - 1, 4)
    u, v = result.certificate_pair
    assert (prev[u - 1] >> (v - 1)) & 1 == 0
    for i in range(1, 5):
        for j in range(1, 5):
            if (i, j) < (u, v):
                assert (prev[i - 1] >> (j - 1)) & 1 == 1
            else:
                return


def test_exponent_equals_all_pairs_walk_oracle_on_random_instances():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(2, 8)
        d = Digraph(n, _random_primitive_rows(rng, n, rng.choice([0.05, 0.1, 0.2])))
        assert exponent(d).value == exponent_by_all_pairs_walks(d)


def test_exponent_brackets_the_all_positive_transition():
    rng = random.Random(211)
    for _ in range(30):
        n = rng.randint(2, 7)
        rows = _random_primitive_rows(rng, n, 0.15)
        full = ((1 << n) - 1,) * n
        value = exponent(Digraph(n, rows)).value
        assert pow_rows(rows, value, n) == full
        if value >= 2:
            assert pow_rows(rows, value - 1, n) != full


def test_exponent_is_relabeling_invariant():
    rng = random.Random(103)
    for _ in range(30):
        n = rng.randint(3, 7)
        d = Digraph(n, _random_primitive_rows(rng, n, 0.15))
        perm = list(range(1, d.order + 1))
        rng.shuffle(perm)
        assert exponent(relabel(d, tuple(perm))).value == exponent(d).value


def test_spanning_subgraph_monotonicity():
    rng = random.Random(107)
    checked = 0
    while checked < 40:
        n = rng.randint(3, 7)
        d = Digraph(n, _random_primitive_rows(rng, n, 0.1))
        extra = {
            (rng.randint(1, n), rng.randint(1, n))
            for _ in range(rng.randint(1, 4))
        }
        g = digraph(n, d.arcs | extra)
        assert exponent(g).value <= exponent(d).value
        checked += 1


# -- logarithmic kernel against the linear scan -------------------------------

def test_kernel_matches_linear_scan_on_every_order4_code():
    primitive = 0
    for code in range(1 << 16):
        rows = tuple((code >> (4 * i)) & 0xF for i in range(4))
        found = _exponent_kernel(rows, 4)
        assert found == linear_exponent_scan(rows, 4), rows
        assert (found is not None) == rows_primitive(rows, 4), rows
        assert exponent_of_rows(rows, 4) == (None if found is None else found[0])
        primitive += found is not None
    assert primitive == 25575


@pytest.mark.parametrize("family, closed_form", [
    (d1, lambda n: (n - 1) ** 2 + 1),
    (d2, lambda n: (n - 1) ** 2),
], ids=["d1", "d2"])
def test_extremal_families_match_closed_form_and_linear_scan(family, closed_form):
    for n in range(3, 65):  # both constructors need n >= 3
        d = family(n)
        rows = d.rows
        assert _exponent_kernel(rows, n) == linear_exponent_scan(rows, n), n
        result = exponent(d)
        assert result.value == exponent_of_rows(rows, n) == closed_form(n), n
        below = pow_rows(rows, result.value - 1, n)
        assert result.certificate_pair == least_zero_pair(below, n), n
        assert result.certificate_length == result.value - 1


# (digraph, exponent): exponent 1, every 2^k and 2^k + 1 up to 2^11 + 1,
# and the Wielandt cap at orders 2 and 64.
KERNEL_BOUNDARY_CASES = [
    (complete_with_loops(2), 1),
    (complete_with_loops(64), 1),
    (digraph(2, [(1, 1), (1, 2), (2, 1)]), 2),
    (digraph(3, [(1, 1), (1, 2), (1, 3), (2, 3), (3, 1)]), 3),
    (d_gN(3, 1, {1}), 4),
    (d_gN(3, 2, {1}), 5),
    (d_gN(5, 1, {1}), 8),
    (d_gN(4, 3, {1, 2}), 9),
    (d2(5), 16),
    (d1(5), 17),
    (d_gN(7, 5, {1}), 32),
    (d_gN(10, 3, {1, 2}), 33),
    (d2(9), 64),
    (d1(9), 65),
    (d_gN(18, 7, {1, 2, 3}), 128),
    (d_gN(18, 7, {1, 2}), 129),
    (d2(17), 256),
    (d1(17), 257),
    (d_gN(29, 18, {1, 2, 3, 4}), 512),
    (d_gN(28, 19, set(range(1, 11))), 513),
    (d2(33), 1024),
    (d1(33), 1025),
    (d_gN(56, 37, set(range(1, 8))), 2048),
    (d_gN(56, 37, set(range(1, 7))), 2049),
    (d1(64), wielandt_bound(64)),
]


@pytest.mark.parametrize("d, value", KERNEL_BOUNDARY_CASES,
                         ids=[str(value) for _, value in KERNEL_BOUNDARY_CASES])
def test_kernel_at_power_of_two_boundaries(d, value):
    rows = d.rows
    found = _exponent_kernel(rows, d.order)
    assert found == linear_exponent_scan(rows, d.order)
    assert found[0] == value
    assert exponent(d).certificate_pair == least_zero_pair(found[1], d.order)


def _period_two_64() -> Digraph:
    # The descending 64-cycle plus v_1 -> v_2 closes a 2-cycle: lengths {2, 64}.
    return digraph(64, standard_cycle(64).arcs | {(1, 2)})


def _zero_row_64() -> Digraph:
    return digraph(64, ((i, j) for i, j in d1(64).arcs if i != 64))


NONPRIMITIVE_EDGE_CASES = {
    "cycle64": standard_cycle(64),
    "period2_64": _period_two_64(),
    "zero_row_64": _zero_row_64(),
    "zero_row_2": digraph(2, [(1, 1), (1, 2)]),
    "two_loops_2": digraph(2, [(1, 1), (2, 2)]),
}


@pytest.mark.parametrize("name", sorted(NONPRIMITIVE_EDGE_CASES))
def test_nonprimitive_edge_inputs(name, tmp_path, capsys):
    d = NONPRIMITIVE_EDGE_CASES[name]
    rows = d.rows
    assert exponent_of_rows(rows, d.order) is None
    assert linear_exponent_scan(rows, d.order) is None
    with pytest.raises(NotPrimitiveError, match="not primitive"):
        exponent(d)
    path = tmp_path / "m.txt"
    path.write_text(serialize_rows(d.rows, d.order))
    assert main(["exp", "-f", str(path)]) == 3
    assert "not primitive" in capsys.readouterr().err


def _periodic_rows(rng: random.Random, n: int, period: int) -> tuple[int, ...]:
    """Seeded strongly connected rows of this period: every arc goes one class ahead."""
    while True:
        cls = [v % period for v in range(n)]
        rng.shuffle(cls)
        rows = tuple(sum(1 << w for w in range(n) if cls[w] == (cls[v] + 1) % period and rng.random() < 0.5)
                     for v in range(n))
        level = _bfs_dist(rows, n, 0)
        if (-1 not in level and -1 not in _bfs_dist(transpose_rows(rows, n), n, 0)
                and _period_of_levels(rows, n, level) == period):
            return rows


def _split_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    """Seeded rows with no arc into a nonempty proper vertex set from outside it."""
    inside = rng.randrange(1, (1 << n) - 1)
    return tuple(row if inside >> v & 1 else row & ~inside
                 for v, row in enumerate(rng.getrandbits(n) for _ in range(n)))


def _repeated_square_cases() -> list[tuple[str, tuple[int, ...], int]]:
    """Non-primitive rows whose squares cycle: bare cycles, imprimitive chord
    members, seeded period-2 and period-3 rows and seeded split rows."""
    cases = [(f"cycle({n})", standard_cycle(n).rows, n) for n in range(2, 65)]
    cases += [(f"chord({n}, {g}, {mask})", chord_member(n, g, mask).rows, n)
              for n in range(3, 11) for g in range(2, n) if math.gcd(n, g) > 1
              for mask in range(1, 1 << n)]
    rng = random.Random(2015)
    for n in range(5, 13):
        for index in range(12):
            cases.append((f"period2 {n} {index}", _periodic_rows(rng, n, 2), n))
            cases.append((f"period3 {n} {index}", _periodic_rows(rng, n, 3), n))
            cases.append((f"split {n} {index}", _split_rows(rng, n), n))
    return cases


def test_kernel_refuses_exactly_the_imprimitive_inputs_whose_squares_cycle():
    # The primitive chord members of the same orders must still get a value.
    primitive_members = [(f"chord({n}, {g}, {mask})", chord_member(n, g, mask).rows, n)
                         for n in range(3, 11) for g in range(2, n) if math.gcd(n, g) == 1
                         for mask in range(1, 1 << n)]
    for name, rows, n in _repeated_square_cases() + primitive_members:
        found = _exponent_kernel(rows, n)
        assert (found is None) == (not rows_primitive(rows, n)), name
        if n < 9:
            assert found == linear_exponent_scan(rows, n), name
    assert all(not rows_primitive(rows, n) for _, rows, n in _repeated_square_cases())


def test_kernel_refuses_repeated_squares_without_the_wielandt_cap():
    # With the cap at infinity only the repeated-square exit ends these
    # calls.  A child process with a timeout and a 1 GiB address-space limit
    # runs them, so that a missing exit, which stores squares without end,
    # fails this test instead of hanging it or filling the memory.
    cases = [[list(rows), n] for _, rows, n in _repeated_square_cases()]
    script = (
        "import importlib, json, math, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "module = importlib.import_module('primexp.exponent')\n"
        "module.wielandt_bound = lambda n: math.inf\n"
        "cases = json.load(sys.stdin)\n"
        "print(sum(module._exponent_kernel(tuple(rows), n) is None for rows, n in cases))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases),
                          capture_output=True, text=True, check=True, timeout=60)
    assert int(done.stdout) == len(cases)


# -- walk existence ------------------------------------------------------------

def walk_10_to_4(d: Digraph, length: int) -> bool:
    """Whether a walk of exactly this length joins v_10 to v_4: entry (10, 4) of A^length."""
    return bool((pow_rows(d.rows, length, d.order)[9] >> 3) & 1)


def test_walks_on_pure_cycle_fixed_length_classes():
    c = standard_cycle(10)
    assert walk_10_to_4(c, 6)
    assert not walk_10_to_4(c, 7)
    assert walk_10_to_4(c, 16)


def test_no_walk_at_one_below_the_chord_family_exponent():
    d = d_gN(10, 3, {1})
    assert not walk_10_to_4(d, formula_thm33(10, 3, 1) - 1)
    assert walk_10_to_4(d, formula_thm33(10, 3, 1))


# -- cycle-meeting walks ----------------------------------------------------------

def test_full_coverage_reduces_to_plain_distances():
    d = complete_with_loops(4)
    result = c_walk_distances(d)
    for i in range(1, 5):
        for j in range(1, 5):
            assert result.pair(i, j) == _bfs_dist(d.rows, 4, i - 1)[j - 1]
        assert result.pair(i, i) == 0


def test_chord_family_attains_claimed_maximum():
    result = c_walk_distances(q1(10, 3))
    assert result.pair(10, 4) == 16
    assert result.max == 16
    assert result.arg_max == (10, 4)


def test_per_pair_dominates_distance():
    rng = random.Random(109)
    for _ in range(40):
        n = rng.randint(2, 7)
        d = Digraph(n, _random_primitive_rows(rng, n, 0.15))
        result = c_walk_distances(d)
        for i in range(1, d.order + 1):
            for j in range(1, d.order + 1):
                assert result.pair(i, j) >= _bfs_dist(d.rows, d.order, i - 1)[j - 1]


def test_cwalk_matches_length_dp_oracle():
    rng = random.Random(113)
    for _ in range(80):
        n = rng.randint(2, 8)
        d = Digraph(n, _random_primitive_rows(rng, n, rng.choice([0.1, 0.2])))
        assert c_walk_distances(d).per_pair == cwalk_by_length_dp(d)


def test_cwalk_kernel_on_the_dp_profile_matches_length_dp_oracle():
    # The bound suite's path: the unchecked kernel fed the subset-DP cover.
    rng = random.Random(131)
    digraphs = []
    for _ in range(60):
        n = rng.randint(2, 10)
        digraphs.append(Digraph(n, _random_primitive_rows(rng, n, rng.choice([0.05, 0.1, 0.2]))))
    digraphs += [chord_member(10, 3, mask) for mask in (1, 5, 77, 1000)]
    digraphs += [d1(11), d2(11), q1(11, 4)]
    for d in digraphs:
        rows, n = d.rows, d.order
        if not rows_primitive(rows, n):
            continue
        result = cwalk_of_cover(rows, n, _cycle_cover(rows, n))
        assert result == cwalk_of_profile(d, simple_cycles(d)[1])
        assert result.per_pair == cwalk_by_length_dp(d)


def _starts_on_every_set(cover: list[int], n: int) -> int:
    """How many vertices lie on a cycle of every occurring length."""
    return sum(all((c >> v) & 1 for c in cover if c) for v in range(n))


def test_cwalk_kernel_on_the_cycle_cover_matches_c_walk_distances():
    # c_walk_distances runs the kernel on the subset-DP cover.  The Johnson
    # profile path and the exact-length DP take their cycles from
    # simple_cycles instead, so neither shares the cover.
    rng = random.Random(137)
    digraphs = [Digraph(n, _random_primitive_rows(rng, n, p))
                for n, p in [(rng.randint(2, 12), rng.choice([0.05, 0.1, 0.2, 0.3]))
                             for _ in range(150)]
                + [(rng.randint(13, 20), rng.choice([0.02, 0.05])) for _ in range(20)]]
    # Nested covers: the (n-1)-cycle of d1 and d2 misses one vertex of the n-cycle.
    digraphs += [d1(n) for n in (5, 9, 16)] + [d2(n) for n in (6, 11, 16)]
    digraphs += [q1(16, 5), q2(18, 7), d_gN(20, 9, {1, 4}), h_graph(16, 3, 5),
                 chord_member(22, 9, 0b1001)]
    # The families of the queries benchmark, up to order 64.
    digraphs += [d1(n) for n in (24, 40, 64)] + [d2(48), q1(28, 9), h_graph(28, 7, 10)]
    full_starts = partial_starts = 0
    for d in digraphs:
        rows, n = d.rows, d.order
        if not rows_primitive(rows, n):
            continue
        result = c_walk_distances(d)
        assert result == cwalk_of_profile(d, simple_cycles(d)[1]), d
        assert result.per_pair == cwalk_by_length_dp(d), d
        on_all = _starts_on_every_set(_cycle_cover(rows, n), n)
        full_starts += on_all
        partial_starts += n - on_all
    assert full_starts and partial_starts


def test_cwalk_kernel_on_nested_and_repeated_cover_sets_matches_length_dp():
    # Arbitrary vertex sets, with supersets and repeats of earlier sets, so the
    # kernel's minimal-set reduction and both of its BFS paths are exercised.
    rng = random.Random(139)
    for _ in range(120):
        n = rng.randint(2, 10)
        d = Digraph(n, _random_primitive_rows(rng, n, rng.choice([0.1, 0.2, 0.4])))
        rows = d.rows
        cover = [rng.getrandbits(n) | (1 << rng.randrange(n)) for _ in range(rng.randint(1, 4))]
        cover += [c | rng.getrandbits(n) for c in cover if rng.random() < 0.5]
        cover += [rng.choice(cover)] + [0]
        rng.shuffle(cover)
        result = cwalk_of_cover(rows, n, cover)
        expected = cover_walks_by_length_dp(rows, n, [c for c in cover if c])
        assert result.per_pair == expected, (d, cover)
        best = max(max(row) for row in expected)
        assert result.max == best
        assert result.arg_max == min((i + 1, j + 1) for i in range(n) for j in range(n)
                                     if expected[i][j] == best)


def cwalk_of_cover_per_start(rows: tuple[int, ...], n: int, cover: list[int]):
    """Oracle: ``cwalk_of_cover`` with one search per start and no chain rows.

    The kernel as it was before chains: the same minimal-set reduction, then
    a plain BFS from a start on every kept set and a (vertex, met-mask) BFS
    from any other, each start on its own.
    """
    cover = [vertices for vertices in cover if vertices]
    if len(cover) > MAX_CYCLE_LENGTHS:
        raise TooManyCycleLengthsError(
            f"{len(cover)} distinct cycle lengths exceeds {MAX_CYCLE_LENGTHS}")
    minimal: list[int] = []
    for vertices in sorted(cover, key=int.bit_count):
        if all(kept & ~vertices for kept in minimal):
            minimal.append(vertices)
    met = [sum(1 << i for i, kept in enumerate(minimal) if (kept >> v) & 1) for v in range(n)]
    full = (1 << len(minimal)) - 1
    succ = [[w for w in range(n) if (rows[v] >> w) & 1] for v in range(n)]
    per_pair = []
    for start in range(n):
        dist = [-1] * n
        if met[start] == full:
            dist[start] = 0
            queue = [start]
            for v in queue:
                for w in succ[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            remaining = n - len(queue)
        else:
            frontier = [(start, met[start])]
            seen = {(start, met[start])}
            remaining = n
            steps = 0
            while remaining and frontier:
                steps += 1
                grown = []
                for v, mask in frontier:
                    for w in succ[v]:
                        state = (w, mask | met[w])
                        if state not in seen:
                            seen.add(state)
                            grown.append(state)
                            if state[1] == full:
                                dist[w] = steps
                                remaining -= 1
                frontier = grown
        if remaining:
            raise NotPrimitiveError("product-state search could not reach every pair")
        per_pair.append(tuple(dist))
    row_max = [max(row) for row in per_pair]
    best = max(row_max)
    i = row_max.index(best)
    return CWalkResult(per_pair=tuple(per_pair), max=best,
                       arg_max=(i + 1, per_pair[i].index(best) + 1))


def _outcome(kernel, rows, n, cover):
    """The kernel's result, or the class of the exception it raised."""
    try:
        return kernel(rows, n, cover)
    except ValueError as exc:
        return type(exc)


# A closed single-successor sink: 1 -> 2 -> 3 -> 1 is left by no arc, and
# 4 -> 5 -> 6 -> 4 (with a loop at 4 and the arc 6 -> 1) feeds it.
SINK_CYCLE = digraph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (4, 4), (6, 1)])
CHAIN_GUARD_WALL_S = 10.0


def _chain_guard_cases():
    """(name, rows, n, cover) inputs the kernel takes unchecked: none is primitive."""
    for n in (2, 3, 7, 16, 64):
        rows = standard_cycle(n).rows
        full = (1 << n) - 1
        # A bare cycle is one chain that closes on itself.
        yield f"cycle({n}) [full]", rows, n, [full]
        yield f"cycle({n}) cover", rows, n, _cycle_cover(rows, n)
        yield f"cycle({n}) half", rows, n, [full, full & 0x5555555555555555]
    rows = SINK_CYCLE.rows
    for cover in ([0b111111], [0b000111], [0b111000], _cycle_cover(rows, 6), []):
        yield f"sink {cover}", rows, 6, cover
    rng = random.Random(149)
    for index in range(300):
        n = rng.randint(2, 9)
        if index % 3 == 0:
            # Period 2 or 3: a blown-up cycle, every arc one class ahead.
            d = rng.choice([k for k in (2, 3) if k <= n])
            cls = [v % d for v in range(n)]
            rows = tuple(sum(1 << w for w in range(n)
                             if cls[w] == (cls[v] + 1) % d and (rng.random() < 0.6 or w == (v + 1) % n))
                         for v in range(n))
        else:
            # Sparse rows, mostly single successors: rarely strongly connected.
            rows = tuple(rng.choice([1 << rng.randrange(n), rng.getrandbits(n), 0, 1 << rng.randrange(n)])
                         for _ in range(n))
        covers = [_cycle_cover(rows, n), [(1 << n) - 1], [], [rng.getrandbits(n) for _ in range(3)]]
        for cover in covers:
            yield f"random {index}", rows, n, cover


def test_cwalk_chain_rows_match_the_per_start_kernel_on_unchecked_input():
    # cwalk_of_cover does not check primitivity.  On imprimitive input it must
    # return or raise as the per-start kernel does, and never loop on a chain
    # that closes on itself.  The bare cycles and the sink run first in a
    # child process, so that a loop fails this test instead of stalling it.
    script = (
        "from primexp.exponent import NotPrimitiveError, cwalk_of_cover\n"
        "from primexp.families import standard_cycle\n"
        "for n in (2, 3, 7, 16, 64):\n"
        "    cwalk_of_cover(standard_cycle(n).rows, n, [(1 << n) - 1])\n"
        "try:\n"
        f"    cwalk_of_cover({SINK_CYCLE.rows}, 6, [0b111111])\n"
        "except NotPrimitiveError:\n"
        "    pass\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
    raised = returned = 0
    for name, rows, n, cover in _chain_guard_cases():
        start = time.perf_counter()
        outcome = _outcome(cwalk_of_cover, rows, n, cover)
        assert time.perf_counter() - start < CHAIN_GUARD_WALL_S, name
        assert outcome == _outcome(cwalk_of_cover_per_start, rows, n, cover), name
        if isinstance(outcome, type):
            raised += 1
        else:
            returned += 1
    assert raised and returned
    # The bare 64-cycle with a full cover returns its plain distances.
    rows = standard_cycle(64).rows
    result = cwalk_of_cover(rows, 64, [(1 << 64) - 1])
    assert result.max == 63 and result.pair(2, 1) == 1 and result.pair(1, 2) == 63
    with pytest.raises(NotPrimitiveError):
        cwalk_of_cover(SINK_CYCLE.rows, 6, [0b111111])


def test_cwalk_on_chord_members_and_d1_64_matches_the_oracles():
    # Chord members are mostly single-successor chains; d1(64) is one chain
    # of 62 vertices ending at v_1, its only vertex with two successors.
    digraphs = [chord_member(n, g, mask)
                for n, g in [(7, 3), (8, 3), (9, 2), (10, 3), (10, 7), (11, 4), (13, 5)]
                for mask in (1, 2, 3, 5, 9, 0b101011, (1 << n) - 1, (1 << (n - 1)) | 1)]
    digraphs.append(d1(64))
    chained = 0
    for d in digraphs:
        rows, n = d.rows, d.order
        cover = _cycle_cover(rows, n)
        result = cwalk_of_cover(rows, n, cover)
        assert result == cwalk_of_cover_per_start(rows, n, cover), d
        assert result.per_pair == cwalk_by_length_dp(d), d
        chained += sum(row & (row - 1) == 0 for row in rows)
    assert chained > len(digraphs) * 3


def test_cwalk_rejects_nonprimitive_and_truncated(monkeypatch):
    with pytest.raises(NotPrimitiveError):
        c_walk_distances(standard_cycle(5))
    # d2(7)'s cover creates 23 vertex-set keys.  One cut short at the budget
    # would be a lower approximation, so it raises instead.
    monkeypatch.setattr(importlib.import_module("primexp.digraph"), "CYCLE_COVER_BUDGET", 8)
    with pytest.raises(TruncatedProfileError):
        c_walk_distances(d2(7))


def test_cwalk_rejects_too_many_lengths():
    d = complete_with_loops(4)
    _, profile = simple_cycles(d)
    fake = type(profile)(
        lengths=tuple(range(1, 26)),
        per_vertex=(frozenset(range(1, 26)),) * 4,
        cap_hit=False,
    )
    with pytest.raises(TooManyCycleLengthsError):
        cwalk_of_profile(d, fake)
    with pytest.raises(TooManyCycleLengthsError):
        cwalk_of_cover(d.rows, 4, [0b1111] * 21)


# The complete digraph of order 64 and the seeded n = 24, p = 0.3 digraph
# reach the cover budget in about 3 s on a 2-core VM (Python 3.11).
BUDGET_WALL_S = 20.0
BEYOND_BUDGET = {
    "complete(64)": lambda: complete_with_loops(64),
    "random(24, 0.3)": lambda: Digraph(24, _random_primitive_rows(random.Random(24), 24, 0.3)),
}


@pytest.mark.parametrize("evaluate", [c_walk_distances, lemma22_bound])
@pytest.mark.parametrize("name", sorted(BEYOND_BUDGET))
def test_dense_input_fails_at_the_cover_budget_in_bounded_time(evaluate, name):
    d = BEYOND_BUDGET[name]()
    start = time.perf_counter()
    with pytest.raises(TruncatedProfileError, match="budget"):
        evaluate(d)
    assert time.perf_counter() - start < BUDGET_WALL_S


def test_truncated_profile_error_is_importable_from_the_package_and_exponent():
    import primexp
    from primexp.digraph import TruncatedProfileError as from_digraph

    assert primexp.TruncatedProfileError is TruncatedProfileError is from_digraph
    assert issubclass(TruncatedProfileError, ValueError)


# -- bound evaluators ----------------------------------------------------------------

def test_lemma22_bound_on_chord_family():
    assert lemma22_bound(q1(10, 3)) == 34
    assert exponent(q1(10, 3)).value == 34


def test_lemma22_with_a_loop_equals_cwalk_max():
    d = digraph(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
    assert lemma22_bound(d) == c_walk_distances(d).max


def test_lemma22_holds_on_random_instances():
    rng = random.Random(127)
    for _ in range(150):
        n = rng.randint(2, 8)
        d = Digraph(n, _random_primitive_rows(rng, n, rng.choice([0.05, 0.1, 0.2])))
        assert exponent(d).value <= lemma22_bound(d)


def test_lemma23_values_and_random_instances():
    assert lemma23_bound(10, 3) == 34
    for n in range(3, 12):
        assert lemma23_bound(n, n - 1) == (n - 1) ** 2 + 1
    rng = random.Random(131)
    for _ in range(150):
        n = rng.randint(2, 8)
        d = Digraph(n, _random_primitive_rows(rng, n, 0.15))
        _, profile = simple_cycles(d)
        assert exponent(d).value <= lemma23_bound(d.order, profile.lengths[0])


def test_lemma23_range_check():
    with pytest.raises(ValueError):
        lemma23_bound(5, 5)


def test_lemma25_values():
    assert lemma25_bound(10) == 42
    assert lemma25_bound(4) == 6
    with pytest.raises(ValueError):
        lemma25_bound(1)


def test_lemma26_values():
    assert lemma26_bound(10, 3, 10) == 34 == lemma23_bound(10, 3)
    assert lemma26_bound(4, 3, 4) == 10 == exponent(d1(4)).value
    with pytest.raises(ValueError):
        lemma26_bound(4, 3, 2)


def test_lemma26_on_two_length_chord_instances():
    for n, g in ((7, 3), (8, 3), (9, 4), (10, 7)):
        d = q1(n, g)
        _, profile = simple_cycles(d)
        assert profile.lengths == (g, n)
        assert exponent(d).value <= lemma26_bound(n, g, n)


def test_lemma32_values_and_window():
    assert lemma32_bound(10, 3) == 32
    assert lemma32_bound(10, 7) == 60
    with pytest.raises(ValueError):
        lemma32_bound(5, 2)
    with pytest.raises(ValueError):
        lemma32_bound(10, 9)


def test_lemma34_values():
    assert lemma34_bound(10, 3) == 31
    assert lemma34_bound(7, 3) == 19
    with pytest.raises(ValueError):
        lemma34_bound(5, 3)
    with pytest.raises(ValueError):
        lemma34_bound(6, 3)


def test_formula_thm33_values():
    assert formula_thm33(10, 3, 1) == 34
    assert formula_thm33(10, 3, 2) == 33
    for n in range(4, 10):
        assert formula_thm33(n, n - 1, 2) == (n - 1) ** 2
    with pytest.raises(ValueError):
        formula_thm33(10, 5, 1)  # gcd violation
    with pytest.raises(ValueError):
        formula_thm33(10, 3, 4)  # above the position cap


def test_thm36_window_and_index():
    assert thm36_range(10, 3) == (32, 34)
    assert thm36_range(10, 7) == (60, 66)
    assert z_of_w(10, 3, 34) == 1
    assert z_of_w(10, 3, 33) == 2
    with pytest.raises(ValueError):
        z_of_w(10, 3, 32)
    with pytest.raises(ValueError):
        z_of_w(10, 3, 35)


def test_z_at_the_top_of_the_window_is_one():
    for n, g in ((10, 3), (10, 7), (11, 4), (12, 5)):
        assert z_of_w(n, g, lemma23_bound(n, g)) == 1
