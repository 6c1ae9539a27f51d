from __future__ import annotations

import itertools
import random

import pytest

from primexp.boolmat import BoolMatrix
from primexp.digraph import Digraph, digraph, from_matrix, girth, simple_cycles
from primexp.exponent import exponent
from primexp.families import chord_member, d1, d2, d_gN, q1, standard_cycle
from primexp.iso import (
    ISO_ORDER_CAP,
    OrderCapError,
    _vertex_invariants,
    are_isomorphic,
    automorphism_count,
    canonical_code_tables,
    canonical_form,
    find_isomorphism,
    perm_cycle_notation,
)
from primexp.verify import census

from helpers import canonical_code, classify_against, relabel


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    return digraph(
        n,
        (
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < p
        ),
    )


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def brute_canonical_bits(d: Digraph) -> str:
    """Oracle: minimum over all permutations by direct enumeration."""
    n = d.order
    rows = d.rows
    best = None
    for perm in itertools.permutations(range(n)):
        bits = "".join(
            "1" if (rows[perm[i]] >> perm[j]) & 1 else "0"
            for i in range(n)
            for j in range(n)
        )
        if best is None or bits < best:
            best = bits
    return best


def test_relabeled_d1_is_isomorphic_with_valid_witness():
    rng = random.Random(31)
    d = d1(5)
    for _ in range(10):
        perm = random_permutation(rng, 5)
        moved = relabel(d, perm)
        witness = find_isomorphism(d, moved)
        assert witness is not None
        assert relabel(d, witness).arcs == moved.arcs


def test_d1_d2_not_isomorphic():
    assert not are_isomorphic(d1(5), d2(5))


def test_rotated_singleton_chords_are_isomorphic():
    a = d_gN(10, 3, {1})
    b = d_gN(10, 3, {3})
    witness = find_isomorphism(a, b)
    assert witness is not None
    assert relabel(a, witness).arcs == b.arcs
    # the cyclic shift by 2 is one valid witness
    shift = tuple((v + 1) % 10 + 1 for v in range(1, 11))
    assert relabel(a, shift).arcs == b.arcs


def test_unequal_sizes_and_arc_counts_are_not_isomorphic():
    assert not are_isomorphic(standard_cycle(5), standard_cycle(6))
    assert not are_isomorphic(d1(5), standard_cycle(5))


def test_equivalence_relation_spot_checks():
    rng = random.Random(37)
    graphs = [random_digraph(rng, 5, 0.3) for _ in range(12)]
    for g in graphs:
        assert are_isomorphic(g, g)
    for a in graphs[:6]:
        for b in graphs[:6]:
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
    for a, b, c in zip(graphs, graphs[1:], graphs[2:]):
        if are_isomorphic(a, b) and are_isomorphic(b, c):
            assert are_isomorphic(a, c)


def test_isomorphic_graphs_share_invariants():
    rng = random.Random(41)
    for _ in range(25):
        d = random_digraph(rng, 6, 0.25)
        moved = relabel(d, random_permutation(rng, 6))
        assert girth(d) == girth(moved)
        _, pa = simple_cycles(d)
        _, pb = simple_cycles(moved)
        assert pa.lengths == pb.lengths


def test_vertex_invariants_list_every_cycle_length_of_a_complete_digraph():
    # Far more than 200 000 simple cycles: the invariants never enumerate them.
    n = ISO_ORDER_CAP
    complete = digraph(n, itertools.product(range(1, n + 1), repeat=2))
    everything = tuple(range(1, n + 1))
    assert _vertex_invariants(complete) == [(n, n, everything)] * n


def test_vertex_invariants_match_the_enumerated_profile():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n, rng.choice((0.15, 0.3, 0.5)))
        _, profile = simple_cycles(d)
        through = [inv[2] for inv in _vertex_invariants(d)]
        assert through == [tuple(sorted(s)) for s in profile.per_vertex]


def test_relabeled_dense_digraph_at_the_order_cap_is_isomorphic():
    rng = random.Random(59)
    n = ISO_ORDER_CAP
    d = random_digraph(rng, n, 0.9)
    moved = relabel(d, random_permutation(rng, n))
    witness = find_isomorphism(d, moved)
    assert witness is not None
    assert relabel(d, witness).arcs == moved.arcs


def brute_isomorphisms(a: Digraph, b: Digraph) -> list[tuple[int, ...]]:
    """Oracle: every arc-preserving bijection a -> b, by trying all n! of them."""
    n = a.order
    return [tuple(p + 1 for p in perm) for perm in itertools.permutations(range(n))
            if all(sum(1 << perm[j] for j in range(n) if a.rows[i] >> j & 1) == b.rows[perm[i]]
                   for i in range(n))]


def _disjoint_union(rng: random.Random, n: int) -> Digraph:
    """Two or three random digraphs side by side with no arc between them,
    relabeled at random, so some vertices have no arc to the placed ones."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
    arcs = []
    base = 0
    for size in sizes:
        arcs += [(base + i, base + j) for i in range(1, size + 1) for j in range(1, size + 1)
                 if rng.random() < 0.5]
        base += size
    return relabel(digraph(n, arcs), random_permutation(rng, n))


def test_search_equals_the_brute_force_oracle_on_small_digraphs():
    # The search places vertices in connectivity order; its answers and
    # automorphism counts must not depend on that order.
    rng = random.Random(2004)
    cases = []
    for _ in range(150):
        n = rng.randint(2, 7)
        a = _disjoint_union(rng, n) if rng.random() < 0.3 else random_digraph(
            rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
        b = relabel(a, random_permutation(rng, n))
        if rng.random() < 0.4:
            # flip one entry: usually not isomorphic, sometimes still is
            i, j = rng.randrange(n), rng.randrange(n)
            rows = list(b.rows)
            rows[i] ^= 1 << j
            b = Digraph(n, tuple(rows))
        cases.append((a, b))
    isomorphic = disconnected = 0
    for a, b in cases:
        oracle = brute_isomorphisms(a, b)
        witness = find_isomorphism(a, b)
        assert (witness is None) == (not oracle), (a, b)
        if witness is not None:
            isomorphic += 1
            assert witness in oracle
            assert witness == find_isomorphism(a, b)
        assert automorphism_count(a) == len(brute_isomorphisms(a, a)), a
        joined = [a.rows[v] | sum(1 << u for u in range(a.order) if a.rows[u] >> v & 1)
                  for v in range(a.order)]
        disconnected += len(_component(joined, 0)) < a.order
    assert isomorphic > 50 and disconnected > 20


def _component(joined: list[int], v: int) -> set[int]:
    """Vertices joined to v by paths of arcs taken in either direction."""
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for w in range(len(joined)):
            if joined[u] >> w & 1 and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_relabeled_chord_members_at_the_order_cap_have_valid_witnesses():
    rng = random.Random(14)
    n = ISO_ORDER_CAP
    for g in (3, 5, 9, 11):
        for _ in range(4):
            mask = rng.randrange(1, 1 << n)
            a = chord_member(n, g, mask)
            shift = rng.randrange(1, n)
            rotated = chord_member(n, g, (mask << shift | mask >> (n - shift)) & ((1 << n) - 1))
            b = relabel(rotated, random_permutation(rng, n))
            witness = find_isomorphism(a, b)
            assert witness is not None and relabel(a, witness).arcs == b.arcs, (g, mask)
            assert witness == find_isomorphism(a, b)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(43)
    base = [d1(6), q1(6, 5), random_digraph(rng, 6, 0.3)]
    for d in base:
        reference = canonical_form(d)
        for _ in range(34):
            moved = relabel(d, random_permutation(rng, d.order))
            assert canonical_form(moved) == reference


def test_canonical_form_separates_exactly_isomorphism_classes():
    rng = random.Random(47)
    for _ in range(60):
        a = random_digraph(rng, 5, 0.3)
        b = random_digraph(rng, 5, 0.3)
        same_form = canonical_form(a) == canonical_form(b)
        assert same_form == are_isomorphic(a, b)


def test_canonical_form_matches_brute_force():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 5)
        d = random_digraph(rng, n, rng.choice([0.2, 0.4]))
        assert canonical_form(d).canonical_bits == brute_canonical_bits(d)
    for d in (d1(6), random_digraph(rng, 6, 0.3), random_digraph(rng, 6, 0.6)):
        assert canonical_form(d).canonical_bits == brute_canonical_bits(d)


def rows_of_code(code: int, n: int) -> tuple[int, ...]:
    return tuple((code >> (i * n)) & ((1 << n) - 1) for i in range(n))


def table_bits(rows: tuple[int, ...], tables) -> str:
    n = len(rows)
    return format(canonical_code(rows, tables), f"0{n * n}b")


def test_table_code_matches_brute_force_on_every_small_code():
    for n in (2, 3):
        tables = canonical_code_tables(n)
        for code in range(1 << (n * n)):
            rows = rows_of_code(code, n)
            d = from_matrix(BoolMatrix(n, rows))
            assert table_bits(rows, tables) == brute_canonical_bits(d), (n, code)


def test_table_code_matches_brute_force_on_sampled_codes():
    rng = random.Random(67)
    for n in (4, 5):
        tables = canonical_code_tables(n)
        for _ in range(150):
            rows = rows_of_code(rng.getrandbits(n * n), n)
            d = from_matrix(BoolMatrix(n, rows))
            assert table_bits(rows, tables) == brute_canonical_bits(d), (n, rows)


def test_table_code_matches_brute_force_on_order_four_classes():
    # Each census class, moved off its canonical labeling, must get the
    # census code from both the table code and the brute-force minimum.
    rng = random.Random(71)
    tables = canonical_code_tables(4)
    classes = census(4)
    assert len(classes) == 1159
    for row in classes:
        rows = rows_of_code(int(row.canonical_bits[::-1], 2), 4)
        moved = relabel(from_matrix(BoolMatrix(4, rows)), random_permutation(rng, 4))
        assert table_bits(moved.rows, tables) == row.canonical_bits
        assert brute_canonical_bits(moved) == row.canonical_bits


def test_cycle_canonical_form_is_rotation_stable():
    rng = random.Random(59)
    d = standard_cycle(5)
    reference = canonical_form(d)
    for _ in range(10):
        assert canonical_form(relabel(d, random_permutation(rng, 5))) == reference


def test_classify_against_family():
    members = [q1(10, 3)]
    assert classify_against(q1(10, 3), members) == 0
    assert classify_against(standard_cycle(10), members) is None


def test_classify_picks_first_match():
    family = [standard_cycle(6), d1(6), relabel(d1(6), (2, 1, 3, 4, 5, 6))]
    assert classify_against(d1(6), family) == 1


def test_order_caps():
    big = standard_cycle(15)
    with pytest.raises(OrderCapError):
        find_isomorphism(big, big)
    with pytest.raises(OrderCapError):
        canonical_form(standard_cycle(7))
    with pytest.raises(OrderCapError):
        canonical_code_tables(7)


def test_canonical_form_refuses_order_seven():
    for d in (d1(7), standard_cycle(7), digraph(7, [])):
        with pytest.raises(OrderCapError, match="cap 6"):
            canonical_form(d)


def test_automorphism_counts():
    assert automorphism_count(standard_cycle(5)) == 5
    assert automorphism_count(d1(4)) == 1
    assert automorphism_count(digraph(3, [(1, 1), (2, 2), (3, 3)])) == 6


def test_exponent_constant_on_iso_classes():
    rng = random.Random(61)
    d = q1(7, 3)
    e = exponent(d).value
    for _ in range(10):
        moved = relabel(d, random_permutation(rng, 7))
        assert exponent(moved).value == e


def test_perm_cycle_notation():
    assert perm_cycle_notation((1, 2, 3)) == "()"
    assert perm_cycle_notation((2, 1, 3)) == "(1 2)"
    assert perm_cycle_notation((3, 4, 5, 6, 7, 8, 9, 10, 1, 2)) == "(1 3 5 7 9)(2 4 6 8 10)"
