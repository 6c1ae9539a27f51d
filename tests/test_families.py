from __future__ import annotations

import itertools
import math

import pytest

from primexp import families
from primexp.digraph import girth, rows_primitive, simple_cycles
from primexp.exponent import exponent, lemma34_bound
from primexp.families import (
    FamilySpec,
    chord_member,
    chord_position_cap,
    d1,
    d2,
    d_gN,
    h_graph,
    q1,
    q2,
    standard_cycle,
)
from primexp.verify import valid_h_triples, verify_bounds


def test_standard_cycle_arcs():
    assert standard_cycle(3).arcs == frozenset({(3, 2), (2, 1), (1, 3)})


def test_standard_cycle_girth_and_nonprimitivity():
    for n in (2, 4, 7):
        assert girth(standard_cycle(n)) == n
        assert not rows_primitive(standard_cycle(n).rows, n)
    with pytest.raises(ValueError):
        standard_cycle(1)


def test_d1_arcs_at_four():
    assert d1(4).arcs == frozenset({(4, 3), (3, 2), (2, 1), (1, 4), (1, 3)})


def test_d1_cycle_structure():
    for n in (4, 5, 7):
        _, profile = simple_cycles(d1(n))
        assert profile.lengths == (n - 1, n)
        assert girth(d1(n)) == n - 1


def test_d1_d2_exponents_at_six():
    assert exponent(d1(6)).value == 26
    assert exponent(d2(6)).value == 25


def test_d_gN_explicit_arcs():
    d = d_gN(10, 3, {1})
    assert d.arcs == standard_cycle(10).arcs | {(1, 3)}


def test_d_gN_at_top_girth_is_d1():
    for n in (4, 6, 9):
        assert d_gN(n, n - 1, {1}).arcs == d1(n).arcs


def test_d_gN_girth_and_lengths_with_overlapping_chords():
    d = d_gN(10, 7, {1, 2})
    assert girth(d) == 7
    _, profile = simple_cycles(d)
    assert profile.lengths == (7, 10)


def test_d_gN_error_messages_name_the_constraint():
    with pytest.raises(ValueError, match="gcd"):
        d_gN(10, 5, {1})
    with pytest.raises(ValueError, match="empt"):
        d_gN(10, 3, set())
    assert chord_position_cap(10, 3) == 3
    with pytest.raises(ValueError, match="range"):
        d_gN(10, 3, {4})


def test_q1_q2_are_fixed_chord_sets():
    assert q1(10, 3).arcs == d_gN(10, 3, {1}).arcs
    assert q2(10, 3).arcs == d_gN(10, 3, {1, 2}).arcs


def test_q1_q2_exponents():
    assert exponent(q1(10, 3)).value == 34
    assert exponent(q2(10, 3)).value == 33


def test_h_graph_case_geometry():
    h = h_graph(6, 3, 4)
    ascending = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)}
    assert h.arcs == ascending | {(3, 1), (6, 4)}
    cycles, _ = simple_cycles(h)
    triangles = sorted(sorted(c) for c in cycles if len(c) == 3)
    assert triangles == [[1, 2, 3], [4, 5, 6]]


def test_h_graph_cycles_are_disjoint_everywhere():
    for n, g, k in valid_h_triples(10):
        cycles, profile = simple_cycles(h_graph(n, g, k))
        assert profile.lengths == ((g, n) if g < n else (n,))
        short = [frozenset(c) for c in cycles if len(c) == g]
        assert len(short) == 2
        assert not (short[0] & short[1])


def test_h_graph_profile_example():
    _, profile = simple_cycles(h_graph(10, 3, 5))
    assert profile.lengths == (3, 10)


def test_h_graph_respects_lemma34_bound():
    for n, g, k in valid_h_triples(12):
        assert exponent(h_graph(n, g, k)).value <= lemma34_bound(n, g)


def test_h_graph_parameter_validation():
    with pytest.raises(ValueError):
        h_graph(5, 3, 4)  # n < 2g
    with pytest.raises(ValueError):
        h_graph(10, 3, 3)  # k < g+1
    with pytest.raises(ValueError):
        h_graph(10, 3, 9)  # second cycle runs off the end


def test_chord_family_singleton_matches_q1():
    first = chord_member(10, 3, 1)
    assert first.arcs == q1(10, 3).arcs


def test_chord_family_size():
    assert len(verify_bounds(samples=0, chord_pairs=((10, 3),)).entries) == 1023


def test_chord_family_contains_richer_cycle_sets():
    found = False
    for mask in range(1, 1 << 10):
        _, profile = simple_cycles(chord_member(10, 3, mask))
        if len(profile.lengths) >= 3:
            found = True
            break
    assert found


def _position_sets(n: int, g: int):
    """Every nonempty chord set N within 1..chord_position_cap(n, g)."""
    positions = range(1, chord_position_cap(n, g) + 1)
    for k in positions:
        yield from itertools.combinations(positions, k)


def test_every_d_gN_is_primitive_chorded_cycle():
    for n in range(4, 10):
        for g in range(2, n):
            if math.gcd(n, g) != 1:
                continue
            for N in _position_sets(n, g):
                d = d_gN(n, g, N)
                assert girth(d) == g
                assert rows_primitive(d.rows, n)
                assert all(a & ~b == 0 for a, b in zip(standard_cycle(n).rows, d.rows))
                assert len(d.arcs) == n + len(N)
                _, profile = simple_cycles(d)
                assert set(profile.lengths) <= {g, n}


def test_family_spec_labels():
    spec = FamilySpec(kind="d_gN", n=10, g=3, N=(1, 2))
    assert spec.build().arcs == q2(10, 3).arcs
    chord = FamilySpec(kind="chord", n=10, g=3, chord_mask=5)
    assert chord.build().arcs == chord_member(10, 3, 5).arcs


def test_chord_member_validation():
    with pytest.raises(ValueError):
        chord_member(10, 1, 1)
    with pytest.raises(ValueError):
        chord_member(10, 3, 0)
    with pytest.raises(ValueError):
        chord_member(10, 3, 1 << 10)


@pytest.mark.parametrize("n", [65, 10**6])
def test_constructors_check_the_order_before_building(monkeypatch, n):
    # Row v of a chorded cycle is an int of about v bits, so building the
    # rows first costs O(n^2) bits before the order check can refuse them.
    def refuse(*args):
        raise AssertionError("built before the order check")

    monkeypatch.setattr(families, "_chord_rows", refuse)
    constructors = [
        lambda: standard_cycle(n), lambda: d1(n), lambda: d2(n), lambda: d_gN(n, 3, {1}),
        lambda: q1(n, 3), lambda: q2(n, 3), lambda: chord_member(n, 3, 1),
        lambda: h_graph(n, 3, 4),
    ]
    for build in constructors:
        with pytest.raises(ValueError, match=rf"^order must be in \[2, 64\], got {n}$"):
            build()


# -- the row constructor against arc-set constructors ---------------------------
#
# Every family is built from one row constructor.  These oracles build the
# same digraphs as arc sets, one arc at a time.

def _oracle_standard_cycle(n: int) -> set[tuple[int, int]]:
    arcs = {(j, j - 1) for j in range(2, n + 1)}
    arcs.add((1, n))
    return arcs


def _oracle_d1(n: int) -> set[tuple[int, int]]:
    return _oracle_standard_cycle(n) | {(1, n - 1)}


def _oracle_d2(n: int) -> set[tuple[int, int]]:
    return _oracle_d1(n) | {(2, n)}


def _oracle_d_gN(n: int, g: int, N) -> set[tuple[int, int]]:
    return _oracle_standard_cycle(n) | {(i, g + i - 1) for i in N}


def _oracle_chord_member(n: int, g: int, mask: int) -> set[tuple[int, int]]:
    arcs = _oracle_standard_cycle(n)
    for i in range(1, n + 1):
        if (mask >> (i - 1)) & 1:
            arcs.add((i, (g + i - 2) % n + 1))
    return arcs


def _oracle_h_graph(n: int, g: int, k: int) -> set[tuple[int, int]]:
    arcs = {(j, j + 1) for j in range(1, n)}
    arcs.add((n, 1))
    arcs.add((g, 1))
    arcs.add((k + g - 1, k))
    return arcs


def test_chord_constructors_match_the_arc_set_oracles():
    for n in range(2, 65):
        assert standard_cycle(n).arcs == _oracle_standard_cycle(n), n
    for n in range(3, 65):
        assert d1(n).arcs == _oracle_d1(n), n
        assert d2(n).arcs == _oracle_d2(n), n
    for n in range(5, 13):
        for g in range(1, n):
            if math.gcd(n, g) == 1:
                for N in _position_sets(n, g):
                    assert d_gN(n, g, N).arcs == _oracle_d_gN(n, g, N), (n, g, N)
    for n in range(3, 12):
        for g in range(2, n):
            for mask in range(1, 1 << n):
                assert chord_member(n, g, mask).arcs == _oracle_chord_member(n, g, mask), (
                    n, g, mask)
    # Every triple h_graph accepts, coprime or not, loops (g = 1) included.
    for n in range(2, 65):
        for g in range(1, n // 2 + 1):
            for k in range(g + 1, n - g + 2):
                assert h_graph(n, g, k).arcs == _oracle_h_graph(n, g, k), (n, g, k)
