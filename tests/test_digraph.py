from __future__ import annotations

import importlib
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primexp.boolmat import BoolMatrix, mul_rows, pow_rows, transpose_rows
from primexp.digraph import (
    CYCLE_COVER_BUDGET,
    CycleProfile,
    Digraph,
    TruncatedProfileError,
    _bfs_dist,
    _cycle_cover,
    _period_of_levels,
    digraph,
    from_matrix,
    girth,
    rows_cycle_lengths,
    rows_girth,
    rows_primitive,
    simple_cycles,
)
from primexp.exponent import wielandt_bound
from primexp.families import d1, d2, d_gN, h_graph, q1, standard_cycle

from helpers import relabel


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < p
    }
    return digraph(n, arcs)


def closure_strongly_connected(d: Digraph) -> bool:
    """Oracle: strong connectivity via the (A OR I)^(n-1) all-positive criterion."""
    n = d.order
    rows = tuple(r | (1 << i) for i, r in enumerate(d.rows))
    return pow_rows(rows, n - 1, n) == ((1 << n) - 1,) * n


def reaches_every_vertex(rows: tuple[int, ...], n: int) -> bool:
    """Every BFS from a vertex reaches all n vertices."""
    return all(-1 not in _bfs_dist(rows, n, v) for v in range(n))


def cover_profile(rows: tuple[int, ...], n: int) -> CycleProfile:
    """The cycle profile read off the subset-DP cover; never truncated."""
    cover = _cycle_cover(rows, n)
    lengths = tuple(k for k in range(1, n + 1) if cover[k])
    per_vertex = tuple(frozenset(k for k in lengths if cover[k] >> v & 1) for v in range(n))
    return CycleProfile(lengths=lengths, per_vertex=per_vertex, cap_hit=False)


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


# -- conversion -------------------------------------------------------------

def test_zero_matrix_gives_no_arcs():
    assert from_matrix(BoolMatrix(3, (0, 0, 0))).arcs == frozenset()


def test_identity_gives_loops():
    assert from_matrix(BoolMatrix(3, (0b001, 0b010, 0b100))).arcs == frozenset({(1, 1), (2, 2), (3, 3)})


def test_round_trip_on_random_matrices():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 9)
        m = BoolMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        assert from_matrix(m).rows == m.rows


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_arc_set_and_matrix_round_trips(rows):
    n = len(rows)
    a = BoolMatrix(n, tuple(rows))
    d = from_matrix(a)
    assert digraph(n, d.arcs) == d
    assert d.rows == a.rows
    assert len(d.arcs) == sum(map(int.bit_count, rows))


@pytest.mark.parametrize("build, message", [
    (lambda: digraph(3, [(1, 4)]), r"arc \(1, 4\) out of range for order 3"),
    (lambda: digraph(3, [(0, 1)]), r"arc \(0, 1\) out of range for order 3"),
    (lambda: Digraph(3, (0b1000, 0, 0)), "row 1 has bits set beyond column 3"),
    (lambda: Digraph(3, (1, 2, -1)), "row 3 has bits set beyond column 3"),
    (lambda: Digraph(3, (1, 2)), "expected 3 rows, got 2"),
    (lambda: Digraph(1, (1,)), r"order must be in \[2, 64\], got 1"),
    (lambda: Digraph(65, (0,) * 65), r"order must be in \[2, 64\], got 65"),
    (lambda: digraph(1, []), r"order must be in \[2, 64\], got 1"),
    (lambda: digraph(65, [(65, 1)]), r"order must be in \[2, 64\], got 65"),
], ids=["arc-above", "arc-below", "row-bits", "negative-row", "row-count",
        "order-1", "order-65", "arcs-order-1", "arcs-order-65"])
def test_digraph_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("cls", [BoolMatrix, Digraph])
def test_rows_given_as_a_list_are_stored_as_a_tuple(cls):
    listed = cls(3, [2, 4, 1])
    assert type(listed.rows) is tuple
    assert listed == cls(3, (2, 4, 1))
    assert hash(listed) == hash(cls(3, (2, 4, 1)))


# -- strong connectivity -----------------------------------------------------

def test_cycle_is_strongly_connected():
    assert reaches_every_vertex(standard_cycle(7).rows, 7)


def test_disjoint_loops_are_not():
    assert _bfs_dist(digraph(2, [(1, 1), (2, 2)]).rows, 2, 0) == [0, -1]


def test_strong_connectivity_matches_closure_oracle():
    # Reaching every vertex from vertex 0 forward and backward, as
    # rows_primitive tests it, is reaching every vertex from every vertex.
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n, rng.choice([0.1, 0.2, 0.35]))
        from_zero = (-1 not in _bfs_dist(d.rows, n, 0)
                     and -1 not in _bfs_dist(transpose_rows(d.rows, n), n, 0))
        assert from_zero == reaches_every_vertex(d.rows, n) == closure_strongly_connected(d)


# -- distance -----------------------------------------------------------------

def test_distance_along_descending_cycle():
    assert _bfs_dist(standard_cycle(10).rows, 10, 9)[3] == 6


def test_distance_to_self_is_zero():
    assert _bfs_dist(standard_cycle(5).rows, 5, 2)[2] == 0


def test_distance_unreachable_is_none():
    d = digraph(3, [(1, 2)])
    assert _bfs_dist(d.rows, 3, 1)[0] == -1


@pytest.mark.parametrize("n,g,r", [(10, 3, 1), (10, 3, 2), (11, 4, 3), (9, 5, 2)])
def test_case1_geometry_distance(n, g, r):
    d = d_gN(n, g, set(range(1, r + 1)))
    assert _bfs_dist(d.rows, n, n - 1)[g + r - 1] == n - g - r


# -- girth ---------------------------------------------------------------------

def test_girth_of_cycle_is_n():
    for n in (2, 5, 9):
        assert girth(standard_cycle(n)) == n


def test_girth_of_chorded_cycle():
    assert girth(d_gN(10, 3, {1})) == 3


def test_girth_of_two_cycle_construction():
    assert girth(h_graph(10, 4, 6)) == 4


def test_girth_of_acyclic_is_none():
    assert girth(digraph(3, [(1, 2), (1, 3), (2, 3)])) is None


def test_girth_of_loop_is_one():
    assert girth(digraph(3, [(1, 2), (2, 1), (3, 3)])) == 1


def test_girth_matches_cycle_enumeration():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n, rng.choice([0.15, 0.3]))
        _, profile = simple_cycles(d)
        expected = profile.lengths[0] if profile.lengths else None
        assert girth(d) == expected


def per_vertex_bfs_girth(rows: tuple[int, ...], n: int) -> int | None:
    """Oracle: a full BFS from every vertex v; the shortest cycle through v
    is 1 + the distance from v to its nearest predecessor."""
    best = None
    for v in range(n):
        if (rows[v] >> v) & 1:
            return 1
        dist = _bfs_dist(rows, n, v)
        for u in range(n):
            if dist[u] >= 0 and (rows[u] >> v) & 1:
                length = dist[u] + 1
                if best is None or length < best:
                    best = length
    return best


@st.composite
def girth_inputs(draw):
    """Loopless sparse, half and dense rows, relabeled acyclic rows, and one loop."""
    n = draw(st.integers(2, 24))
    full = (1 << n) - 1
    words = st.lists(st.integers(0, full), min_size=n, max_size=n)
    a, b, c = draw(words), draw(words), draw(words)
    kind = draw(st.sampled_from(["sparse", "half", "dense", "acyclic", "loop"]))
    if kind == "sparse":
        rows = [x & y & z for x, y, z in zip(a, b, c)]
    elif kind == "dense":
        rows = [x | y | z for x, y, z in zip(a, b, c)]
    else:
        rows = list(a)
    rows = [row & ~(1 << i) for i, row in enumerate(rows)]
    if kind == "acyclic":
        upper = BoolMatrix(n, tuple(row & (full ^ ((2 << i) - 1)) for i, row in enumerate(rows)))
        perm = tuple(v + 1 for v in draw(st.permutations(range(n))))
        rows = list(relabel(from_matrix(upper), perm).rows)
    elif kind == "loop":
        v = draw(st.integers(0, n - 1))
        rows[v] |= 1 << v
    return tuple(rows), n, kind


@settings(max_examples=300, deadline=None)
@given(girth_inputs())
def test_girth_matches_the_per_vertex_bfs_oracle(case):
    rows, n, kind = case
    value = rows_girth(rows, n)
    assert value == per_vertex_bfs_girth(rows, n)
    if kind == "acyclic":
        assert value is None
    elif kind == "loop":
        assert value == 1


@pytest.mark.parametrize("d,expected", [
    (d1(64), 63), (d2(64), 63), (q1(64, 3), 3), (q1(64, 31), 31), (q1(64, 63), 63),
], ids=["d1(64)", "d2(64)", "q1(64,3)", "q1(64,31)", "q1(64,63)"])
def test_girth_of_relabeled_order_64_families(d, expected):
    rng = random.Random(expected)
    for _ in range(3):
        rows = relabel(d, random_permutation(rng, 64)).rows
        assert rows_girth(rows, 64) == per_vertex_bfs_girth(rows, 64) == expected


# -- cycle enumeration -----------------------------------------------------------

def test_single_cycle_enumeration():
    cycles, profile = simple_cycles(standard_cycle(6))
    assert len(cycles) == 1
    assert profile.lengths == (6,)
    assert not profile.cap_hit


def test_d1_profile_at_six():
    _, profile = simple_cycles(d1(6))
    assert profile.lengths == (5, 6)
    assert all(6 in profile.vertex_lengths(v) for v in range(1, 7))
    carriers = [v for v in range(1, 7) if 5 in profile.vertex_lengths(v)]
    assert carriers == [1, 2, 3, 4, 5]


def test_d2_has_two_cycle_lengths():
    _, profile = simple_cycles(d2(7))
    assert len(profile.lengths) == 2


def test_cap_hit_flags_truncation():
    cycles, profile = simple_cycles(d2(7), cap=2)
    assert profile.cap_hit
    assert len(cycles) == 2


def test_cap_must_be_positive():
    with pytest.raises(ValueError):
        simple_cycles(standard_cycle(3), cap=0)


def test_lengths_union_of_per_vertex():
    rng = random.Random(8)
    for _ in range(100):
        d = random_digraph(rng, rng.randint(2, 7), 0.3)
        _, profile = simple_cycles(d)
        union = set()
        for v in range(1, d.order + 1):
            union |= profile.vertex_lengths(v)
        assert union == set(profile.lengths)
        assert all(1 <= x <= d.order for x in profile.lengths)


def test_per_vertex_sets_invariant_under_relabeling():
    rng = random.Random(13)
    base = [d1(6), d_gN(10, 3, {1, 2}), h_graph(8, 3, 5)]
    for d in base:
        _, profile = simple_cycles(d)
        for _ in range(34):
            perm = random_permutation(rng, d.order)
            _, moved = simple_cycles(relabel(d, perm))
            for v in range(1, d.order + 1):
                assert moved.vertex_lengths(perm[v - 1]) == profile.vertex_lengths(v)


def brute_force_cycles(d: Digraph) -> set[tuple[int, ...]]:
    """Oracle: DFS over simple paths from each cycle's minimal vertex."""
    rows = d.rows
    found: set[tuple[int, ...]] = set()

    def extend(start: int, path: list[int], on_path: set[int]):
        row = rows[path[-1]]
        while row:
            low = row & -row
            w = low.bit_length() - 1
            row ^= low
            if w == start:
                found.add(tuple(v + 1 for v in path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(start, path, on_path)
                on_path.remove(w)
                path.pop()

    for start in range(d.order):
        extend(start, [start], {start})
    return found


def normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


def test_johnson_matches_brute_force_enumeration():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(2, 6)
        d = random_digraph(rng, n, rng.choice([0.2, 0.35, 0.5]))
        cycles, profile = simple_cycles(d)
        assert not profile.cap_hit
        normalized = {normalize_cycle(c) for c in cycles}
        assert len(normalized) == len(cycles)  # no duplicates up to rotation
        assert normalized == brute_force_cycles(d)


def assert_lengths_match_the_oracles(rows: tuple[int, ...], n: int) -> None:
    lengths = rows_cycle_lengths(rows, n)
    assert lengths == simple_cycles(from_matrix(BoolMatrix(n, rows)))[1].lengths
    assert (lengths[0] if lengths else None) == rows_girth(rows, n)


@pytest.mark.parametrize("n", [2, 3])
def test_subset_dp_lengths_match_enumeration_on_every_small_matrix(n):
    mask = (1 << n) - 1
    for code in range(1 << (n * n)):
        assert_lengths_match_the_oracles(tuple((code >> (i * n)) & mask for i in range(n)), n)


def test_subset_dp_lengths_match_enumeration_on_random_digraphs():
    rng = random.Random(41)
    for n in range(2, 9):
        for p in (0.15, 0.3, 0.5):
            for _ in range(20):
                assert_lengths_match_the_oracles(random_digraph(rng, n, p).rows, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_subset_dp_profile_matches_enumeration(rows):
    n = len(rows)
    profile = cover_profile(tuple(rows), n)
    assert profile == simple_cycles(from_matrix(BoolMatrix(n, tuple(rows))))[1]


@pytest.mark.parametrize("d", [d1(64), q1(64, 5)], ids=["d1(64)", "q1(64,5)"])
def test_subset_dp_profile_is_fast_on_sparse_order_64(d):
    # A sparse digraph spans few vertex sets with simple paths (d1(64): 189),
    # so the DP's 2^n worst case does not arise.
    start = time.perf_counter()
    profile = cover_profile(d.rows, d.order)
    assert time.perf_counter() - start < 1.0
    assert profile == simple_cycles(d)[1]


def test_cycle_cover_of_the_complete_digraph_of_order_16_stays_within_budget():
    # The complete digraph creates every one of the 2^16 - 1 vertex-set keys,
    # the most any order-16 run can create.
    n = 16
    full = (1 << n) - 1
    assert CYCLE_COVER_BUDGET >= 1 << n
    assert _cycle_cover((full,) * n, n) == [0] + [full] * n


def test_cycle_cover_budget_counts_every_vertex_set_key(monkeypatch):
    # At order 8 the complete digraph creates exactly 2^8 - 1 keys.
    n = 8
    full = (1 << n) - 1
    module = importlib.import_module("primexp.digraph")
    monkeypatch.setattr(module, "CYCLE_COVER_BUDGET", full)
    assert _cycle_cover((full,) * n, n) == [0] + [full] * n
    monkeypatch.setattr(module, "CYCLE_COVER_BUDGET", full - 1)
    with pytest.raises(TruncatedProfileError, match=f"budget of {full - 1} "):
        _cycle_cover((full,) * n, n)


# -- primitivity -------------------------------------------------------------------

def test_pure_cycle_is_not_primitive():
    for n in (2, 3, 6):
        assert not rows_primitive(standard_cycle(n).rows, n)


def test_chorded_cycle_with_coprime_girth_is_primitive():
    assert rows_primitive(d_gN(10, 3, {1}).rows, 10)
    assert rows_primitive(d_gN(9, 2, {1, 2}).rows, 9)


def test_primitive_matches_wielandt_power_oracle():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(2, 8)
        rows = random_digraph(rng, n, rng.choice([0.1, 0.2, 0.3])).rows
        full = ((1 << n) - 1,) * n
        power, oracle = rows, False
        for _ in range(wielandt_bound(n)):
            if power == full:
                oracle = True
                break
            power = mul_rows(power, rows)
        assert rows_primitive(rows, n) == oracle


def test_primitive_implies_strongly_connected():
    rng = random.Random(19)
    for _ in range(300):
        d = random_digraph(rng, rng.randint(2, 7), 0.25)
        if rows_primitive(d.rows, d.order):
            assert closure_strongly_connected(d)


def test_primitivity_matches_cycle_gcd():
    rng = random.Random(23)
    for _ in range(300):
        d = random_digraph(rng, rng.randint(2, 7), 0.3)
        if not closure_strongly_connected(d):
            continue
        _, profile = simple_cycles(d)
        assert rows_primitive(d.rows, d.order) == (math.gcd(*profile.lengths) == 1)


def test_period_equals_cycle_length_gcd():
    rng = random.Random(27)
    for _ in range(300):
        d = random_digraph(rng, rng.randint(2, 7), 0.3)
        if not closure_strongly_connected(d):
            continue
        _, profile = simple_cycles(d)
        rows, n = d.rows, d.order
        assert _period_of_levels(rows, n, _bfs_dist(rows, n, 0)) == math.gcd(*profile.lengths)


def test_primitivity_takes_two_searches(monkeypatch):
    # The forward levels from vertex 0 give both reachability and the period.
    module = importlib.import_module("primexp.digraph")
    calls = []

    def counted(rows, n, start):
        calls.append(start)
        return _bfs_dist(rows, n, start)

    monkeypatch.setattr(module, "_bfs_dist", counted)
    for d, primitive in ((d1(9), True), (standard_cycle(9), False)):
        calls.clear()
        assert module.rows_primitive(d.rows, d.order) is primitive
        assert len(calls) == 2
    # A digraph that does not reach every vertex from vertex 0 needs one.
    calls.clear()
    assert not module.rows_primitive((0b01, 0b11), 2)
    assert len(calls) == 1


# -- subgraph relation ---------------------------------------------------------------

def test_cycle_spans_chorded_families():
    sup = d_gN(10, 3, {1, 2}).rows
    assert all(a & ~b == 0 for a, b in zip(standard_cycle(10).rows, sup))


def test_d1_does_not_span_into_cycle():
    sup = standard_cycle(5).rows
    assert not all(a & ~b == 0 for a, b in zip(d1(5).rows, sup))
