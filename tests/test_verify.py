from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import math
import operator
import os
import time

import pytest

import primexp.verify as verify_module
from primexp.boolmat import serialize_rows
from primexp.digraph import (
    Digraph,
    _bfs_dist,
    _cycle_cover,
    _period_of_levels,
    digraph,
    rows_girth,
    rows_primitive,
    simple_cycles,
)
from primexp.exponent import (
    _exponent_kernel,
    cwalk_of_cover,
    exponent,
    exponent_of_rows,
    lemma25_bound,
    thm36_range,
)
from primexp.families import FamilySpec, chord_member, chord_position_cap, d1, d2, d_gN, q1
from primexp.iso import ISO_ORDER_CAP, automorphism_count, canonical_code_tables, find_isomorphism
from primexp.report import Report, census_to_jsonl
from primexp.semigroup import frobenius
from primexp.verify import (
    BERNOULLI_SWEEP,
    CHORD_ORDER_CAP,
    _chord_sets,
    _converse_facts,
    _fixed_cycle_walk,
    _mirror_mask,
    _orbits,
    _random_primitive_rows,
    _random_tries,
    _rotations,
    bound_rows_for,
    census,
    printed_threshold_min_g,
    proof_threshold_min_g,
    random_instances,
    valid_h_triples,
    verify_bounds,
    verify_lemma24,
    verify_lemma34,
    verify_thm33,
    verify_thm36,
)
import random

from helpers import (
    bound_facts,
    canonical_code,
    classify_against,
    cover_lengths,
    degree_sorted_rows,
    pattern_rows,
    random_primitive_digraph,
    relabel_rows,
    relabeled_codes,
    replay_cycle_positions,
)


def rows_by_claim(report: Report, claim: str):
    return [r for r in report.sorted_rows() if r.claim == claim]


# -- random generation ---------------------------------------------------------

def test_random_primitive_digraph_is_primitive_and_deterministic():
    a, _ = _random_primitive_rows(random.Random(5), 6, 0.1)
    b, _ = _random_primitive_rows(random.Random(5), 6, 0.1)
    assert a == b
    assert rows_primitive(a, 6)


def _arc_set_random_primitive_digraph(rng, n, p, max_tries=100_000):
    """The generator on an arc set: the oracle for the one on bit rows."""
    for _ in range(max_tries):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i, j) not in arcs and rng.random() < p:
                    arcs.add((i, j))
        d = digraph(n, arcs)
        if rows_primitive(d.rows, n):
            return d
    raise RuntimeError(f"no primitive digraph found in {max_tries} tries (n={n}, p={p})")


def test_random_primitive_digraph_matches_the_arc_set_oracle():
    for seed in range(20):
        for n in range(2, 11):
            for p in BERNOULLI_SWEEP:
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                d = random_primitive_digraph(rng, n, p)
                assert d == _arc_set_random_primitive_digraph(oracle_rng, n, p), (seed, n, p)
                # the same draws were made: both generators leave rng in one state
                assert rng.random() == oracle_rng.random(), (seed, n, p)


def _genexpr_random_primitive_rows(rng, n, p, max_tries=100_000):
    """The bit-row generator as first written, with one sum() per row."""
    draw = rng.random
    for _ in range(max_tries):
        perm = list(range(n))
        rng.shuffle(perm)
        cycle = [0] * n
        for i in range(n):
            cycle[perm[i - 1]] = perm[i]
        rows = tuple(
            sum(1 << j for j in range(n) if j != c and draw() < p) | (1 << c)
            for c in cycle
        )
        if rows_primitive(rows, n):
            return rows
    raise RuntimeError(f"no primitive digraph found in {max_tries} tries (n={n}, p={p})")


def test_random_primitive_rows_equal_the_genexpr_form():
    for seed in range(12):
        for n in range(2, 11):
            for p in BERNOULLI_SWEEP:
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    rows, _ = _random_primitive_rows(rng, n, p)
                    assert rows == _genexpr_random_primitive_rows(oracle_rng, n, p), (seed, n, p)
                # the same draws were made, in the same order
                assert rng.getstate() == oracle_rng.getstate(), (seed, n, p)


def test_in_loop_period_equals_rows_period_on_every_try():
    # The generator reads the period off its drawn cycle; the BFS levels give it too.
    # Its pattern rebuilds the try: relabeled by cycle position, the rows are the
    # n-cycle plus the pattern's arcs.
    periods = set()
    for seed in range(12):
        for n in range(2, 11):
            for p in BERNOULLI_SWEEP:
                tries = _random_tries(random.Random(seed), n, p)
                replay = random.Random(seed)
                for rows, period, pattern in itertools.islice(tries, 25):
                    level = _bfs_dist(rows, n, 0)
                    assert period == _period_of_levels(rows, n, level), (seed, n, p, rows)
                    periods.add(period)
                    positions = replay_cycle_positions(replay, n)
                    assert pattern_rows(pattern) == relabel_rows(rows, positions), (
                        seed, n, p, rows)
                    assert not any(bits & 2 for bits in pattern), (seed, n, p, pattern)
    # rejected tries with periods up to 10 are covered, not only accepted ones
    assert periods == set(range(1, 11))


def test_random_instance_stream_is_reproducible():
    first = [(i, n, p, d.arcs) for i, n, p, d in random_instances(9, 20, 8)]
    second = [(i, n, p, d.arcs) for i, n, p, d in random_instances(9, 20, 8)]
    assert first == second
    assert all(n <= 8 for _, n, _, _ in first)


def test_random_instances_reject_large_orders():
    with pytest.raises(ValueError):
        list(random_instances(1, 1, 11))


# -- bound suite ------------------------------------------------------------------

def test_bound_rows_tightness_on_extremal_families():
    report = Report()
    bound_rows_for(d1(4), "d1(4)", report)
    by_claim = {r.claim: r for r in report.rows}
    assert by_claim["L2.6"].predicted == 10
    assert by_claim["L2.6"].oracle == 10
    assert by_claim["C2.1"].oracle == 2  # exp 10 > 6 forces two cycle lengths
    assert report.all_asserts_pass

    report = Report()
    bound_rows_for(q1(10, 3), "q1(10,3)", report)
    by_claim = {r.claim: r for r in report.rows}
    assert by_claim["L2.3"].predicted == 34
    assert by_claim["L2.3"].oracle == 34
    assert report.all_asserts_pass


def test_c21_rows_only_when_antecedent_holds():
    report = Report()
    bound_rows_for(d1(6), "d1(6)", report)
    c21 = [r for r in report.rows if r.claim == "C2.1"]
    assert len(c21) == 1  # exp 26 > 14
    assert exponent(d1(6)).value > lemma25_bound(6)

    report = Report()
    bound_rows_for(q1(10, 3), "q1", report)
    assert not [r for r in report.rows if r.claim == "C2.1"]  # exp 34 <= 42


def test_verify_bounds_small_run_passes_and_is_deterministic():
    kwargs = dict(n_max=6, samples=40, seed=424, chord_pairs=((6, 5),))
    first = verify_bounds(**kwargs)
    second = verify_bounds(**kwargs)
    assert first.all_asserts_pass
    assert first.to_jsonl() == second.to_jsonl()
    assert first.to_summary_csv() == second.to_summary_csv()
    # the chord sweep contributed rows for every primitive member
    chord_rows = [r for r in first.rows if r.instance.startswith("chord:")]
    assert chord_rows


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_bounds_report_bytes_are_pinned():
    report = verify_bounds(n_max=6, samples=60, seed=3)
    assert _sha256(report.to_jsonl()) == (
        "32fb8b4aa9b088e2c87a068f4461e40534a07391014e82b514ad9e482e0039e3"
    )
    assert _sha256(report.to_summary_csv()) == (
        "422a809105fad5f0d2f9de649a9e24954af8cca5ebbe5760807a1bccd247822e"
    )


def test_verify_bounds_report_bytes_are_pinned_at_full_size():
    # The parameters of `verify bounds --n-max 8 --samples 2000 --seed 1`:
    # 21 879 rows over the default chord pairs and the random sweep.
    report = verify_bounds(n_max=8, samples=2000, seed=1)
    assert _sha256(report.to_jsonl()) == (
        "e0f169a7673a4d01bdc560d792ac8bf72cb7753b140ebcd5bcd061574e2142b5"
    )
    assert _sha256(report.to_summary_csv()) == (
        "3c24e41bbdba9e6a20758148e0ce7306bf94077130e10609edcf2ebf1b1990f7"
    )


@pytest.mark.parametrize("kwargs, option", [
    (dict(n_max=1), "n_max"),
    (dict(n_max=11), "n_max"),
    (dict(samples=-3), "samples"),
    (dict(chord_pairs=((10, 1),)), "chord pair 10:1"),
    (dict(chord_pairs=((10, 10),)), "chord pair 10:10"),
    (dict(chord_pairs=((10, 3), (17, 5))), "chord pair 17:5"),
])
def test_verify_bounds_rejects_bad_sizes_before_any_universe(monkeypatch, kwargs, option):
    def no_universe(*args, **kwargs):
        raise AssertionError("a chord universe or the random sweep ran before the input check")

    monkeypatch.setattr(verify_module, "_orbits", no_universe)
    monkeypatch.setattr(verify_module, "_random_rows", no_universe)
    with pytest.raises(ValueError, match=option):
        verify_bounds(seed=1, **kwargs)


def test_verify_bounds_refuses_a_repeated_chord_pair_before_any_universe(monkeypatch):
    # A pair given twice would write each of its universe's rows twice, and
    # the summary would count each of its claims twice.
    def no_universe(*args, **kwargs):
        raise AssertionError("a chord universe or the random sweep ran before the input check")

    monkeypatch.setattr(verify_module, "_orbits", no_universe)
    monkeypatch.setattr(verify_module, "_random_rows", no_universe)
    for pairs in (((7, 3), (7, 3)), ((7, 3), (5, 2), (7, 3)), ((10, 4), (10, 4))):
        with pytest.raises(ValueError, match=f"chord pair {pairs[0][0]}:{pairs[0][1]} is repeated"):
            verify_bounds(samples=0, seed=1, chord_pairs=pairs)


def _rotate(mask: int, n: int) -> int:
    """The chord mask moved one position up: position i becomes i % n + 1."""
    return ((mask << 1) | (mask >> (n - 1))) & ((1 << n) - 1)


def _least_rotation(mask: int, n: int) -> int:
    """Smallest of the n cyclic rotations of an n-bit chord mask."""
    least = rotated = mask
    for _ in range(n - 1):
        rotated = _rotate(rotated, n)
        least = min(least, rotated)
    return least


def test_rotating_a_chord_mask_relabels_its_member():
    for n in range(3, 10):
        for g in range(2, n):
            for mask in range(1, 1 << n):
                shifted = {(i % n + 1, j % n + 1) for i, j in chord_member(n, g, mask).arcs}
                assert shifted == set(chord_member(n, g, _rotate(mask, n)).arcs), (n, g, mask)


def _reflect(v: int, n: int) -> int:
    """Vertex v_v relabeled v_{-v mod n}, with v_0 read as v_n."""
    return -v % n or n


def test_mirror_mask_member_is_the_transpose_relabeled():
    for n in range(3, 11):
        for g in range(2, n):
            for mask in range(1, 1 << n):
                mirrored = {(_reflect(j, n), _reflect(i, n))
                            for i, j in chord_member(n, g, mask).arcs}
                assert mirrored == set(chord_member(n, g, _mirror_mask(mask, n, g)).arcs), (
                    n, g, mask)


def _least_dihedral(mask: int, n: int, g: int) -> int:
    """Smallest rotation of the chord mask or of its mirror mask."""
    return min(_least_rotation(mask, n), _least_rotation(_mirror_mask(mask, n, g), n))


def test_least_rotation_counts_the_orbits():
    assert len({_least_rotation(mask, 10) for mask in range(1, 1 << 10)}) == 107
    assert len({_least_rotation(mask, 11) for mask in range(1, 1 << 11)}) == 187
    for mask in range(1, 1 << 7):
        orbit = [mask]
        for _ in range(6):
            orbit.append(_rotate(orbit[-1], 7))
        assert _least_rotation(mask, 7) == min(orbit) <= mask


def test_rotations_lists_the_n_rotations_from_the_mask_itself():
    for n in range(2, 9):
        for mask in range(1 << n):
            expected = [mask]
            for _ in range(n - 1):
                expected.append(_rotate(expected[-1], n))
            assert _rotations(mask, n) == expected, (n, mask)


@pytest.mark.parametrize("n, g", [(3, 2), (6, 5), (8, 3), (10, 3), (11, 4)])
def test_per_orbit_evaluates_each_least_mask_once(n, g):
    # verify_thm36 evaluates the rotation-orbit representatives of
    # ``_orbits`` once and maps every member to its orbit's facts through
    # ``orbit``, as this test does.  (The name is kept so the test ids do
    # not change.)
    reps, orbit = _orbits(n, g)
    least = sorted({_least_rotation(mask, n) for mask in range(1, 1 << n)})
    assert reps == [(mask, chord_member(n, g, mask).rows) for mask in least]
    assert len(orbit) == 1 << n and orbit[0] is None
    for mask in range(1, 1 << n):
        assert reps[orbit[mask]][0] == _least_rotation(mask, n), mask


@pytest.mark.parametrize("n, g, orbits", [(3, 2, 3), (6, 5, 12), (8, 3, 29), (10, 3, 77),
                                          (10, 7, 77), (11, 3, 125), (11, 4, 125)])
def test_per_orbit_with_mirror_evaluates_each_least_dihedral_mask_once(n, g, orbits):
    def facts(rows):
        if not rows_primitive(rows, n):
            return []
        return bound_facts(rows, n, exponent_of_rows(rows, n), _cycle_cover(rows, n))

    # The bound suite maps each member to its dihedral orbit's facts
    # through ``_orbits`` itself, as this test does.  (The name is kept so
    # the test ids do not change.)
    reps, orbit = _orbits(n, g, mirror=True)
    least = sorted({_least_dihedral(mask, n, g) for mask in range(1, 1 << n)})
    assert len(least) == orbits
    assert reps == [(mask, chord_member(n, g, mask).rows) for mask in least]
    values = [facts(rows) for _, rows in reps]
    assert len(orbit) == 1 << n and orbit[0] is None
    for mask in range(1, 1 << n):
        assert values[orbit[mask]] == facts(chord_member(n, g, mask).rows), mask


def test_every_chord_member_has_period_gcd_n_g():
    # The chord universe tests primitivity once per pair, by gcd(n, g).
    for n in range(3, 10):
        for g in range(2, n):
            for mask in range(1, 1 << n):
                rows = chord_member(n, g, mask).rows
                assert _period_of_levels(rows, n, _bfs_dist(rows, n, 0)) == math.gcd(n, g), (n, g, mask)
                assert rows_primitive(rows, n) == (math.gcd(n, g) == 1), (n, g, mask)


def test_chord_universe_labels_and_params_on_every_mask():
    for n in range(3, 12):
        for g in range(2, n):
            entries = verify_bounds(samples=0, chord_pairs=((n, g),)).entries
            if math.gcd(n, g) != 1:
                assert entries == [], (n, g)
                continue
            assert [(label, params) for label, params, _ in entries] == [
                (f"chord:n={n},g={g},mask={mask}", {"n": n, "g": g, "mask": mask})
                for mask in range(1, 1 << n)], (n, g)


def johnson_cwalk_max(d, profile) -> int:
    """The c-walk kernel's maximum on a Johnson profile's cover, not the subset-DP cover."""
    cover = [sum(1 << v for v in range(d.order) if length in profile.per_vertex[v])
             for length in profile.lengths]
    return cwalk_of_cover(d.rows, d.order, cover).max


def test_lemma22_rows_equal_the_johnson_cwalk_oracle():
    # Independent of bound_facts: the c-walk takes its profile from Johnson's
    # enumerator, not from the subset-DP cover.
    seed, samples, n_max = 8, 150, 7
    report = verify_bounds(n_max=n_max, samples=samples, seed=seed,
                           chord_pairs=((7, 3), (8, 5), (9, 2)))
    digraphs = [d for _, _, _, d in random_instances(seed, samples, n_max)]
    rows = rows_by_claim(report, "L2.2")
    assert len(rows) == len(rows_by_claim(report, "L2.3")) > samples
    for row in rows:
        params = row.params
        if row.instance.startswith("chord:"):
            d = chord_member(params["n"], params["g"], params["mask"])
        else:
            d = digraphs[int(row.instance.split(":")[1])]
        _, profile = simple_cycles(d)
        assert row.predicted == johnson_cwalk_max(d, profile) + frobenius(profile.lengths), (
            row.instance)


def _memo_run():
    """A reduced bound suite and the successor rows of each of its entries."""
    seed, samples, n_max = 4, 300, 7
    report = verify_bounds(n_max=n_max, samples=samples, seed=seed,
                           chord_pairs=((7, 3), (8, 5)))
    digraphs = [d for _, _, _, d in random_instances(seed, samples, n_max)]
    for instance, params, facts in report.entries:
        if instance.startswith("chord:"):
            d = chord_member(params["n"], params["g"], params["mask"])
        else:
            d = digraphs[int(instance.split(":")[1])]
        yield instance, params, d, facts


def test_memoized_bound_facts_equal_the_memo_less_facts():
    for instance, _, d, facts in _memo_run():
        assert facts == bound_facts(d.rows, d.order, exponent_of_rows(d.rows, d.order),
                                     _cycle_cover(d.rows, d.order)), instance


def test_bound_suite_entries_share_one_fact_list_per_key():
    # Each chord universe and the random sweep keep their own memo, keyed by
    # the order, the exponent, the cycle lengths and the c-walk maximum.
    ids: dict[tuple, set[int]] = {}
    for _, params, d, facts in _memo_run():
        _, profile = simple_cycles(d)
        key = (d.order, exponent(d).value, tuple(profile.lengths),
               johnson_cwalk_max(d, profile))
        scope = params.get("g", "rand")
        ids.setdefault((scope, key), set()).add(id(facts))
    assert all(len(shared) == 1 for shared in ids.values())
    assert len(set().union(*ids.values())) == len(ids)


@pytest.mark.parametrize("pair", [(7, 3), (8, 3), (9, 2), (9, 4)])
def test_chord_universe_rows_equal_the_per_member_loop(pair):
    n, g = pair
    oracle = Report()
    for mask in range(1, 1 << n):
        d = FamilySpec(kind="chord", n=n, g=g, chord_mask=mask).build()
        if rows_primitive(d.rows, n):
            bound_rows_for(d, f"chord:n={n},g={g},mask={mask}", oracle, n=n, g=g, mask=mask)
    assert verify_bounds(samples=0, chord_pairs=(pair,)).to_jsonl() == oracle.to_jsonl()


def test_random_sweep_rows_equal_the_per_instance_loop():
    # Orders 2..3 repeat often, so most instances reuse an earlier one's facts.
    kwargs = dict(seed=5, samples=300, n_max=3)
    instances = list(random_instances(**kwargs))
    assert len({d.rows for _, _, _, d in instances}) < len(instances) // 4
    oracle = Report()
    for idx, n, p, d in instances:
        digest = hashlib.sha256(serialize_rows(d.rows, d.order).encode()).hexdigest()[:12]
        bound_rows_for(d, f"rand:{idx:06d}:{digest}", oracle,
                       n=n, p=p, seed=kwargs["seed"])
    report = verify_bounds(**kwargs, chord_pairs=())
    assert report.rows == oracle.rows


def _random_sweep_oracle(seed: int, samples: int, n_max: int) -> Report:
    """The random sweep with one ``bound_facts`` call per distinct rows."""
    report = Report()
    seen = {}
    for idx, n, p, d in random_instances(seed, samples, n_max):
        if d.rows not in seen:
            digest = hashlib.sha256(serialize_rows(d.rows, n).encode()).hexdigest()[:12]
            seen[d.rows] = digest, bound_facts(d.rows, n, exponent_of_rows(d.rows, n),
                                                _cycle_cover(d.rows, n))
        digest, facts = seen[d.rows]
        report.entries.append((f"rand:{idx:06d}:{digest}", {"n": n, "p": p, "seed": seed}, facts))
    return report


@pytest.mark.parametrize("n_max", [4, 6, 8])
def test_random_sweep_per_pattern_orbit_equals_the_per_rows_oracle(n_max):
    # The sweep evaluates one try per rotation orbit of its pattern; the oracle
    # evaluates every distinct labeled matrix.
    for seed in range(1, 7):
        report = verify_bounds(n_max=n_max, samples=300, seed=seed, chord_pairs=())
        assert report.to_jsonl() == _random_sweep_oracle(seed, 300, n_max).to_jsonl(), seed


def test_bound_suite_evaluation_count_is_pinned(monkeypatch):
    # `verify bounds --n-max 8 --samples 2000 --seed 1`: 356 chord orbits, and
    # 962 pattern orbits among the 1 343 distinct random rows.
    calls = 0
    bound_key = verify_module._bound_key

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return bound_key(*args, **kwargs)

    monkeypatch.setattr(verify_module, "_bound_key", counting)
    verify_bounds(n_max=8, samples=0, seed=1)
    assert calls == 356
    verify_bounds(n_max=8, samples=2000, seed=1, chord_pairs=())
    assert calls == 356 + 962


def test_bound_suite_reads_exponents_in_one_lane_pass_per_order(monkeypatch):
    # One pass per order: the three order-10 chord universes share one, then
    # one per order of the random sweep, over the same 356 + 962
    # representatives the evaluation count pins.
    passes = []
    lane_exponents = verify_module._lane_exponents

    def counting(arc, lanes):
        passes.append((len(arc), lanes))
        return lane_exponents(arc, lanes)

    monkeypatch.setattr(verify_module, "_lane_exponents", counting)
    verify_bounds(n_max=8, samples=2000, seed=1)
    chord, random_orders = passes[:2], passes[2:]
    assert chord == [(10, 3 * 77), (11, 125)]
    assert sorted(n for n, _ in random_orders) == list(range(2, 9))
    assert sum(size for _, size in random_orders) == 962


def test_bound_suite_reads_c_walks_in_one_lane_pass_per_order(monkeypatch):
    # No representative gets a per-start c-walk search of its own, and no
    # batch goes to a worker process.  Each order's batch makes one lane
    # pass, whatever counts of kept sets (minimal cycle-length vertex sets)
    # its lanes have: 9 passes over the same 356 + 962 representatives the
    # evaluation count pins.
    passes = []
    lane_cwalk_diameters = verify_module._lane_cwalk_diameters

    def counting(arc, lanes, covers):
        passes.append((len(arc), lanes))
        return lane_cwalk_diameters(arc, lanes, covers)

    def refuse(*args):
        raise AssertionError("the bound suite ran a per-start c-walk search or a worker pool")

    monkeypatch.setattr(verify_module, "_lane_cwalk_diameters", counting)
    exponent_module = importlib.import_module("primexp.exponent")
    for name in ("_cwalk_rows", "_cwalk_search"):
        monkeypatch.setattr(exponent_module, name, refuse)
    monkeypatch.setattr(verify_module, "_run_blocks", refuse)
    verify_bounds(n_max=8, samples=2000, seed=1)
    chord, random_orders = passes[:2], passes[2:]
    assert chord == [(10, 3 * 77), (11, 125)]
    assert sorted(n for n, _ in random_orders) == list(range(2, 9))
    assert sum(size for _, size in random_orders) == 962


def test_bound_suite_reads_cycle_covers_in_one_lane_pass_per_order(monkeypatch):
    # The same passes as the exponents', and no cover of one representative.
    passes = []
    lane_cycle_covers = verify_module._lane_cycle_covers

    def counting(arc, lanes):
        passes.append((len(arc), lanes))
        return lane_cycle_covers(arc, lanes)

    def refuse(rows, n):
        raise AssertionError("the bound suite built a cover of one representative")

    monkeypatch.setattr(verify_module, "_lane_cycle_covers", counting)
    for name in ("primexp.digraph", "primexp.exponent"):
        monkeypatch.setattr(importlib.import_module(name), "_cycle_cover", refuse)
    verify_bounds(n_max=8, samples=2000, seed=1)
    chord, random_orders = passes[:2], passes[2:]
    assert chord == [(10, 3 * 77), (11, 125)]
    assert sorted(n for n, _ in random_orders) == list(range(2, 9))
    assert sum(size for _, size in random_orders) == 962


def test_bound_suite_slices_each_order_once(monkeypatch):
    # The exponent and cover passes of one order read the same slices.
    sliced = []
    lane_entries = verify_module._lane_entries

    def counting(rowsets, n):
        sliced.append(n)
        return lane_entries(rowsets, n)

    monkeypatch.setattr(verify_module, "_lane_entries", counting)
    verify_bounds(n_max=8, samples=2000, seed=1)
    assert sliced[:2] == [10, 11]
    assert sorted(sliced[2:]) == list(range(2, 9))


def test_lane_kernels_on_shared_slices_of_a_merged_batch():
    # Every member of the (10, 3) and (10, 7) universes in one batch, sliced
    # once: each lane's exponent and cover equal the one-matrix kernels'.
    batch = [verify_module._chord_rows(10, g, mask) for g in (3, 7) for mask in range(1, 1 << 10)]
    arc = verify_module._lane_entries(batch, 10)
    exps = verify_module._lane_exponents(arc, len(batch))
    covers = verify_module._lane_cycle_covers(arc, len(batch))
    assert exps == [exponent_of_rows(rows, 10) for rows in batch]
    assert covers == [_cycle_cover(rows, 10) for rows in batch]


def test_chord_sweeps_read_their_facts_in_one_lane_pass_each(monkeypatch):
    # verify_thm36 makes one cover pass over the 107 rotation-orbit
    # representatives of the (10, g) universe, then one exponent pass over
    # the girth-g ones only: all 107 at g = 3, 8 at g = 7.  Its forward
    # sweep reads those exponents and makes no pass of its own.
    # verify_thm33 makes one pass of each per coprime pair, over its chord
    # sets.  No member's exponent or cover is computed on its own.
    passes = []

    def counting(kernel):
        def count(arc, lanes):
            passes.append((kernel.__name__, len(arc), lanes))
            return kernel(arc, lanes)
        return count

    def refuse(rows, n):
        raise AssertionError("a chord sweep computed one member on its own")

    for name in ("_lane_exponents", "_lane_cycle_covers"):
        monkeypatch.setattr(verify_module, name, counting(getattr(verify_module, name)))
    for name in ("primexp.digraph", "primexp.exponent"):
        monkeypatch.setattr(importlib.import_module(name), "_cycle_cover", refuse)
    monkeypatch.setattr(verify_module, "exponent_of_rows", refuse)
    for g, girth_g in ((3, 107), (7, 8)):
        verify_thm36(10, g)
        assert passes == [("_lane_cycle_covers", 10, 107), ("_lane_exponents", 10, girth_g)], g
        passes.clear()
    verify_thm33(5, 12)
    pairs = [(n, g) for n in range(5, 13) for g in range(2, n) if math.gcd(n, g) == 1]
    assert passes == [(name, n, (1 << chord_position_cap(n, g)) - 1) for n, g in pairs
                      for name in ("_lane_exponents", "_lane_cycle_covers")]


def test_run_blocks_starts_at_most_one_worker_per_cpu(monkeypatch):
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, argses):
            return map(worker, argses)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 3)
    assert verify_module._run_blocks(abs, [-1, -2, -3, -4, -5], 10**6) == [1, 2, 3, 4, 5]
    assert verify_module._run_blocks(abs, [-1, -2], 10**6) == [1, 2]
    assert verify_module._run_blocks(abs, [-1, -2], 1) == [1, 2]
    assert started == [3, 2]


def test_scan_sizes_its_blocks_from_the_cpu_count(monkeypatch):
    import concurrent.futures

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, argses):
            argses = list(argses)
            pools[-1].append(argses)
            return map(worker, argses)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 2)
    assert census_to_jsonl(census(3, jobs=10**6)) == census_to_jsonl(census(3, jobs=1))
    [(workers, argses)] = pools
    assert workers == 2 and len(argses) <= 8
    # every sorted out-degree sequence without a zero lands in exactly one block
    sequences = [degrees for _, block in argses for degrees in block]
    assert sorted(sequences) == list(itertools.combinations_with_replacement(range(1, 4), 3))


# -- full-scan oracle ----------------------------------------------------------------
# The decode-and-filter scan over all 2^(n^2) codes: the oracle of the girth
# walks and of the degree-sorted census.

def _decode_rows(code: int, n: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple((code >> (i * n)) & mask for i in range(n))


def _scan_block(args: tuple[int, int, int]):
    """Exponent histogram and per canonical code [exponent, labeled count]
    of the primitive codes in [start, end) of order n."""
    n, start, end = args
    full = (1 << n) - 1
    tables = canonical_code_tables(n)
    counts: dict[int, int] = {}
    classes: dict[int, list] = {}
    for code in range(start, end):
        rows = _decode_rows(code, n)
        if not all(rows) or functools.reduce(int.__or__, rows) != full:
            continue
        exp = exponent_of_rows(rows, n)
        if exp is None:
            continue
        counts[exp] = counts.get(exp, 0) + 1
        form = canonical_code(rows, tables)
        entry = classes.setdefault(form, [exp, 0])
        if entry[0] != exp:
            raise RuntimeError(f"canonical class {form} saw exponents {entry[0]} and {exp}")
        entry[1] += 1
    return counts, classes


def _block_ranges(total: int, blocks: int) -> list[tuple[int, int]]:
    size = (total + blocks - 1) // blocks
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


@functools.cache
def _scan(n: int, blocks: int = 4):
    """``_scan_block`` over every code of order n in ``blocks`` blocks, merged.

    Cached because several tests read the order-4 scan, which takes about a
    second; callers must not mutate the result.
    """
    counts: dict[int, int] = {}
    merged: dict[int, list] = {}
    for lo, hi in _block_ranges(1 << (n * n), blocks):
        block_counts, classes = _scan_block((n, lo, hi))
        for exp, count in block_counts.items():
            counts[exp] = counts.get(exp, 0) + count
        for form, (exp, count) in classes.items():
            entry = merged.setdefault(form, [exp, 0])
            if entry[0] != exp:
                raise RuntimeError(f"canonical class {form} disagrees across blocks")
            entry[1] += count
    return counts, merged


# -- exhaustive extremal classes -----------------------------------------------------

def _girth_floor_walk(n: int, floor: int, keyed: tuple[int, ...]):
    """Walk every order-n matrix with no cycle shorter than ``floor``.

    The down-set oracle for ``_fixed_cycle_walk``: it walks labeled matrices
    with no fixed cycle and no weights.  Those matrices form a down-set, since
    deleting an arc creates no cycle.  A depth-first walk adds the
    off-diagonal arcs in row-major order and refuses arc i -> j when a walk
    j -> i of length <= floor - 2 exists, so it visits every member once;
    ``floor`` must be at least 2, as the walk adds no loops.  Returns the
    exponent histogram of the primitive members and, per exponent in
    ``keyed``, their rows.
    """
    full = (1 << n) - 1
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = [0] * n
    counts: dict[int, int] = {}
    hits: dict[int, list] = {exp: [] for exp in keyed}

    def closes_short_cycle(i: int, j: int) -> bool:
        seen = frontier = 1 << j
        for _ in range(floor - 2):
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= rows[low.bit_length() - 1]
                frontier ^= low
            if (reached >> i) & 1:
                return True
            frontier = reached & ~seen
            if not frontier:
                return False
            seen |= reached
        return False

    def descend(first: int, arc_count: int) -> None:
        # A primitive matrix is strongly connected and not a single n-cycle,
        # so it has more than n arcs, no zero row and no zero column.
        if arc_count > n and all(rows) and functools.reduce(int.__or__, rows) == full:
            exp = exponent_of_rows(tuple(rows), n)
            if exp is not None:
                counts[exp] = counts.get(exp, 0) + 1
                if exp in hits:
                    hits[exp].append(tuple(rows))
        for k in range(first, len(arcs)):
            i, j = arcs[k]
            if not closes_short_cycle(i, j):
                rows[i] |= 1 << j
                descend(k + 1, arc_count + 1)
                rows[i] ^= 1 << j

    descend(0, 0)
    return counts, hits


def test_verify_lemma24_order_four():
    report = verify_lemma24(4)
    assert report.all_asserts_pass
    by_instance = {r.instance: r for r in report.rows}
    assert by_instance["n=4:exp=10:class-size"].oracle == 24
    assert by_instance["n=4:exp=9:class-size"].oracle == 24
    assert by_instance["n=4:exp=10:membership"].oracle == 0
    assert by_instance["n=4:max-exponent"].oracle == 10


def test_verify_lemma24_report_bytes_are_pinned():
    assert _sha256(verify_lemma24(4).to_jsonl()) == (
        "d6b2ba0fcda8fa3d033433dda5017ec136577abd9ac3e787832bfb868b1d19b4"
    )


@pytest.mark.parametrize("n, digest", [
    (5, "5bc67d6921391f278ac2a31dd783ebff7e001e488b198a297c218f9769f79340"),
    (6, "c88efbb59723b4eba8f3fd7f977a86dfc8f4770518be8bbc703f58bc694ee649"),
])
def test_verify_lemma24_report_bytes_are_pinned_at_orders_five_and_six(n, digest):
    assert _sha256(verify_lemma24(n).to_jsonl()) == digest


@pytest.mark.parametrize("n, digest", [
    (15, "f428b9c0cede2e53545bea455fa7e8a39ed8f9d5bc052220be5122769c4e8fe3"),
    (16, "a972c428a1f1cd85562ccc7d264ee16e7f8639d8aea4ecf3a39975afdd3d3dcf"),
    (20, "64f36c2c00b090a2e9bec1eb7dd445d76da079c50de5f69ac832cc17138eaa0d"),
    (32, "8be2c9c53363f771fe8e5110e865de63858248c905a0595c30dfb18492b6c855"),
    (64, "3256b511cb86c32dcf133e7a2f501175576b978a3e8abb21b98d610080551fbd"),
])
def test_verify_lemma24_report_bytes_are_pinned_above_order_fourteen(n, digest):
    # Orders 15-32 were produced by the backtracking isomorphism search with
    # its order cap lifted; order 64 is the top of the accepted range.
    assert _sha256(verify_lemma24(n).to_jsonl()) == digest


def test_verify_lemma24_rejects_other_orders():
    for n in (3, 65):
        with pytest.raises(ValueError):
            verify_lemma24(n)


def test_verify_lemma24_passes_at_every_order_with_orbit_class_sizes():
    for n in range(4, ISO_ORDER_CAP + 1):
        report = verify_lemma24(n)
        assert report.all_asserts_pass, n
        sizes = [r.oracle for r in report.rows if r.instance.endswith("class-size")]
        assert sizes == [math.factorial(n) // automorphism_count(ref) for ref in (d1(n), d2(n))], n
        # The bare cycle is not primitive; one skip arc gives d1 and two from
        # consecutive cycle vertices give d2, so 2n of the 2n + 1 nodes are hits.
        exps = sorted(exp for exp, _ in _fixed_cycle_walk(n))
        assert exps == [(n - 1) ** 2] * n + [(n - 1) ** 2 + 1] * n, n


def test_lemma24_rotation_sets_accept_exactly_the_isomorphic_walk_nodes():
    # Every walk node, not only the hits at the reference's exponent.
    for n in range(4, ISO_ORDER_CAP + 1):
        nodes = [Digraph(n, rows) for _, rows in _fixed_cycle_walk(n)]
        for mask, reference in ((0b1, d1(n)), (0b11, d2(n))):
            members = {chord_member(n, n - 1, m).rows for m in _rotations(mask, n)}
            accepted = [d.rows in members for d in nodes]
            assert accepted == [find_isomorphism(d, reference) is not None for d in nodes], n
            assert sum(accepted) == n, n


@pytest.mark.parametrize("n", [4, 5])
def test_fixed_cycle_walk_weighted_histogram_equals_the_down_set_walk(n):
    # Every exponent, not only the two top ones: each node stands for (n-1)!
    # labeled matrices with girth >= n-1.
    weighted: dict[int, int] = {}
    for exp, _ in _fixed_cycle_walk(n):
        weighted[exp] = weighted.get(exp, 0) + math.factorial(n - 1)
    counts, _ = _girth_floor_walk(n, n - 1, ())
    assert weighted == counts
    if n == 4:
        scan, _ = _scan(n)
        skip_bound = n * n - 3 * n + 4
        assert weighted == {e: c for e, c in scan.items() if e > skip_bound}


def test_girth_floor_walk_matches_the_full_scan_above_the_skip_bound():
    # Girth <= n-2 caps the exponent at n + (n-2)^2 = n^2-3n+4 (Lemma 2.3),
    # so a walk with girth floor n-1 must see every exponent above that.
    n = 4
    walk, _ = _girth_floor_walk(n, n - 1, ())
    scan, _ = _scan(n)
    skip_bound = n * n - 3 * n + 4
    assert {e: c for e, c in walk.items() if e > skip_bound} == {
        e: c for e, c in scan.items() if e > skip_bound}
    assert all(count <= scan[e] for e, count in walk.items())


def test_girth_floor_walk_at_order_five():
    # A full order-5 scan found 120 matrices each at exponents 16 and 17
    # and none at 15, the first gap in the order-5 exponent set.
    counts, hits = _girth_floor_walk(5, 4, (16, 17))
    assert counts[16] == counts[17] == 120
    assert len(hits[16]) == len(hits[17]) == 120
    assert 15 not in counts and max(counts) == 17
    report = verify_lemma24(5)
    assert report.all_asserts_pass
    by_instance = {r.instance: r for r in report.rows}
    assert by_instance["n=5:exp=17:class-size"].oracle == 120
    assert by_instance["n=5:exp=16:class-size"].oracle == 120


# -- chord-set formula ------------------------------------------------------------

def test_chord_sets_match_the_d_gN_constructor(monkeypatch):
    # The chord sets of verify_thm33 and the thm36 forward phase against the
    # public constructor and the d_gN label format; the rows, exponent and
    # cycle cover verify_thm33 reads for each from its lane passes against
    # the constructor, its exponent and the subset DP.
    covers = {}
    note = verify_module._attainment_note

    def recording(n, g, r, rows, cover):
        covers[g, rows] = cover
        return note(n, g, r, rows, cover)

    monkeypatch.setattr(verify_module, "_attainment_note", recording)
    for n, g in ((10, 3), (11, 5), (13, 4)):
        sets = list(_chord_sets(n, g))
        assert [mask for mask, *_ in sets] == list(range(1, 1 << chord_position_cap(n, g)))
        by_label = {r.instance: r for r in rows_by_claim(verify_thm33(n, n), "T3.3")}
        for mask, label, N in sets:
            assert sum(1 << (i - 1) for i in N) == mask and max(N) == mask.bit_length()
            d = d_gN(n, g, N)
            assert label == f"d_gN:n={n},g={g},N=" + ",".join(map(str, N))
            assert by_label[label].oracle == exponent(d).value, (n, g, mask)
            assert covers[g, d.rows] == _cycle_cover(d.rows, n), (n, g, mask)


def test_verify_thm33_asserted_rows_pass_and_pattern_is_reported():
    report = verify_thm33(n_min=5, n_max=7)
    assert report.all_asserts_pass
    t33 = [r for r in rows_by_claim(report, "T3.3") if not r.instance.startswith("summary")]
    # one row per coprime (n, g) chord subset: 13 + 3 + 35
    assert len(t33) == 51
    anchored = [r for r in t33 if r.asserted]
    assert anchored and all(r.agree for r in anchored)
    disagreements = [r for r in t33 if not r.agree]
    assert disagreements  # rotated chord positions break the max-position formula
    assert all(1 not in r.params["N"] for r in disagreements)
    summary = [r for r in report.rows if r.instance == "summary:agreement-pattern"]
    assert len(summary) == 1 and "position 1" in summary[0].notes


def test_verify_thm33_report_bytes_are_pinned():
    assert _sha256(verify_thm33(5, 12).to_jsonl()) == (
        "fa41b4491f8e01709935ff11299fccd3148130a4e87dc638a89873c3f70cd97f"
    )


def test_verify_thm33_refuses_orders_above_the_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a chord set was enumerated before the order check")

    monkeypatch.setattr(verify_module, "_chord_rows", no_work)
    assert verify_module.THM33_ORDER_CAP >= 12
    for n_min, n_max in ((5, verify_module.THM33_ORDER_CAP + 1), (64, 64)):
        with pytest.raises(ValueError, match=f"at most {verify_module.THM33_ORDER_CAP}"):
            verify_thm33(n_min, n_max)


def test_verify_thm33_refuses_an_empty_range_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a chord set was enumerated before the range check")

    monkeypatch.setattr(verify_module, "_chord_rows", no_work)
    for n_min, n_max in ((9, 5), (13, 12), (20, 19)):
        with pytest.raises(ValueError, match=f"n_min must be at most n_max, got n_min={n_min}, n_max={n_max}"):
            verify_thm33(n_min, n_max)
    # Below order 3 there is no chord span g in 2..n-1; from 3 up, (n, n - 1)
    # is a coprime pair, so every accepted range has a chord set.
    for n_min, n_max in ((2, 2), (-3, 3), (2, 12)):
        with pytest.raises(ValueError, match=f"^n_min must be at least 3, got {n_min}$"):
            verify_thm33(n_min, n_max)


def test_verify_thm33_at_the_cap_finishes_in_bounded_time():
    # The docstring states about 1 s for the cap order alone.
    cap = verify_module.THM33_ORDER_CAP
    start = time.perf_counter()
    report = verify_thm33(cap, cap)
    assert time.perf_counter() - start < 15
    assert report.all_asserts_pass


def test_verify_thm33_notes_record_attainment_pairs():
    report = verify_thm33(n_min=5, n_max=5)
    noted = [r for r in rows_by_claim(report, "T3.3") if "dC=" in r.notes]
    assert noted
    assert any("[differ]" in r.notes or "[match]" in r.notes for r in noted)


# -- two-disjoint-cycle bound ----------------------------------------------------

def test_verify_lemma34_passes():
    report = verify_lemma34(10)
    assert report.all_asserts_pass
    assert len(report.rows) == len(list(valid_h_triples(10)))
    assert any(r.notes == "tight" for r in report.rows)


def test_h_graph_mirror_is_a_rotation_of_its_mask():
    # Rotating the mask {1, k} by n - k + 1 positions gives {1, n - k + 2},
    # so h(n, g, k) and h(n, g, n - k + 2) are isomorphic.
    for n, g, k in valid_h_triples(64):
        assert 1 | 1 << (n - k + 1) in _rotations(1 | 1 << (k - 1), n), (n, g, k)
    oracle = {(r.params["n"], r.params["g"], r.params["k"]): r.oracle
              for r in verify_lemma34(20).rows}
    for (n, g, k), value in oracle.items():
        assert oracle[n, g, n - k + 2] == value, (n, g, k)


def test_verify_lemma34_report_bytes_are_pinned():
    assert _sha256(verify_lemma34(20).to_jsonl()) == (
        "f35a4f7d6329ad48cf176de2373e04325611696179e8cfa7ecd7b49e7c101186"
    )


def test_verify_lemma34_refuses_orders_above_64_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("an exponent was computed before the order check")

    monkeypatch.setattr(verify_module, "exponent_of_rows", no_work)
    for n_max in (65, 1000):
        with pytest.raises(ValueError, match=f"n_max must be at most 64, got {n_max}"):
            verify_lemma34(n_max)


def test_verify_lemma34_refuses_orders_below_2_before_any_work(monkeypatch):
    # The least valid triple is (2, 1, 2), so n_max = 2 is the least range
    # with a row.
    def no_work(*args):
        raise AssertionError("an exponent was computed before the order check")

    assert next(valid_h_triples(64)) == (2, 1, 2)
    monkeypatch.setattr(verify_module, "exponent_of_rows", no_work)
    for n_max in (1, 0, -3):
        with pytest.raises(ValueError, match=f"n_max must be at least 2, got {n_max}"):
            verify_lemma34(n_max)


# -- window characterization ------------------------------------------------------

def test_thresholds_match_hand_computation():
    assert printed_threshold_min_g(10) == 3
    assert proof_threshold_min_g(10) == 5


def test_verify_thm36_structure_at_ten_three():
    report = verify_thm36(10, 3)
    assert report.all_asserts_pass

    forward = [r for r in rows_by_claim(report, "T3.6") if r.instance.startswith("forward:")]
    assert len(forward) == 7  # 2^t - 1 members across z = 1..3

    anchored = rows_by_claim(report, "C3.8")
    assert len(anchored) == 2 and all(r.agree for r in anchored)

    converse = rows_by_claim(report, "C3.7")
    assert converse
    # forward members with in-window exponents classify when reprocessed
    window_masks = set()
    for row in forward:
        if 32 < row.oracle <= 34:
            mask = sum(1 << (i - 1) for i in row.params["N"])
            window_masks.add(mask)
    converse_masks = {r.params["mask"] for r in converse}
    assert window_masks <= converse_masks

    audit = [r for r in report.rows if r.instance == "audit:girth-threshold"]
    assert len(audit) == 1
    assert audit[0].predicted == 3 and audit[0].oracle == 5 and not audit[0].agree

    universe = [r for r in report.rows if r.instance == "summary:universe"]
    assert len(universe) == 1 and "1023 chord subsets" in universe[0].notes


def test_verify_thm36_report_bytes_are_pinned():
    assert _sha256(verify_thm36(11, 4).to_jsonl()) == (
        "a97c95c086d650b68e2e0c92f1f56271cd85317513be12761edc4d20370cbf40"
    )


def test_verify_thm36_report_bytes_are_pinned_at_order_thirteen():
    report = verify_thm36(13, 4)
    assert len(report.rows) == 123
    assert sum(r.instance.startswith("cycleset:") for r in report.rows) == 52
    assert _sha256(report.to_jsonl()) == (
        "41a5f9fa02d757a8b52668e621cc9fb59b9b9ad369d156b93392fab1605309fe"
    )


@pytest.mark.parametrize("n, g, digest", [
    (15, 4, "dcb296a92dec7a7fbe936ca661d6f6ec5a7d4b1075869aa788f962c0e5253f68"),
    (16, 5, "534d05c0e7f44cf1294addc46018bc614acba7cdc49d255524c74699f815087f"),
    (16, 3, "ab51f1d61df976e23be21c3b922456ce8c97c5bad7d4cf336262d8942524f690"),
])
def test_verify_thm36_report_bytes_are_pinned_at_orders_fifteen_and_sixteen(n, g, digest):
    # Produced by the backtracking isomorphism search with its order cap lifted.
    assert _sha256(verify_thm36(n, g).to_jsonl()) == digest


def test_verify_thm36_converse_rows_equal_the_per_member_loop():
    # Every mask on its own, with no orbit cache and no lane pass: the girth
    # by the BFS, the exponent by the squaring search and the lengths by the
    # subset DP, against the isomorphism search over the D^z members and
    # against the forward rows.
    # (10, 7) is among the pairs where dihedral orbits would change the
    # report: the D^z index is not invariant under transposition.
    pairs = [(n, g) for n in range(5, 12) for g in range(2, n) if math.gcd(n, g) == 1]
    for n, g in pairs:
        low, high = thm36_range(n, g)
        expected = []
        cyclesets = []
        for mask in range(1, 1 << n):
            member = chord_member(n, g, mask)
            if rows_girth(member.rows, n) != g:
                continue
            oracle = exponent_of_rows(member.rows, n)
            cover = _cycle_cover(member.rows, n)
            facts = _converse_facts(mask, oracle, cover, n, g, low, high)
            lengths = cover_lengths(member.rows, n)
            assert facts[:2] == (oracle, lengths if oracle > low else None), (n, g, mask)
            assert (facts[2] is not None) == (low < oracle <= high), (n, g, mask)
            if oracle > low:
                cyclesets.append((mask, list(lengths)))
            if facts[2] is not None:
                first = 1 << (facts[2] - 1)
                family = [chord_member(n, g, m) for m in range(first, 2 * first)]
                assert facts[3] == classify_against(member, family), (n, g, mask)
                expected.append((mask, "none" if facts[3] is None else facts[3]))
        report = verify_thm36(n, g)
        converse = [(r.params["mask"], r.oracle) for r in rows_by_claim(report, "C3.7")]
        assert converse and sorted(converse) == expected, (n, g)
        forced = [(r.params["mask"], r.oracle) for r in rows_by_claim(report, "T3.6")
                  if r.instance.startswith("cycleset:")]
        assert sorted(forced) == cyclesets, (n, g)
        # Phase a reads its exponents from the converse's orbit facts; each
        # forward member on its own has girth g and cycle set {g, n}.
        forward = [r for r in rows_by_claim(report, "T3.6") if r.instance.startswith("forward:")]
        assert len(forward) == (1 << chord_position_cap(n, g)) - 1, (n, g)
        for r in forward:
            member = chord_member(n, g, sum(1 << (i - 1) for i in r.params["N"]))
            assert r.oracle == exponent_of_rows(member.rows, n), (n, g, r.instance)
            assert cover_lengths(member.rows, n) == (g, n), (n, g, r.instance)


def test_verify_thm36_rejects_gcd_violation():
    with pytest.raises(ValueError):
        verify_thm36(10, 5)


@pytest.mark.parametrize("n, g, message", [
    (17, 4, f"at most {CHORD_ORDER_CAP}.*got 17"),
    (40, 19, f"at most {CHORD_ORDER_CAP}.*got 40"),
    (10, 11, r"^g must lie in 2\.\.9, got 11$"),
    (10, 1, r"^g must lie in 2\.\.9, got 1$"),
    (-5, 2, r"^n must be at least 4, got -5$"),
    (3, 2, r"^n must be at least 4, got 3$"),
], ids=["17-4", "40-19", "10-11", "10-1", "-5-2", "3-2"])
def test_verify_thm36_refuses_orders_above_the_iso_cap_before_any_work(monkeypatch, n, g, message):
    # Phase b walks all 2^n - 1 chord masks, so a pair above the chord
    # universe cap is refused before the forward sweep.  A g outside 2..n-1 or an n below 4, where phase c's threshold is
    # undefined, is refused just as early, by an error that names n or g.
    def no_work(*args):
        raise AssertionError("a chord set was enumerated before the order check")

    monkeypatch.setattr(verify_module, "_chord_rows", no_work)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        verify_thm36(n, g)
    assert time.perf_counter() - start < 1


def test_verify_thm36_runs_at_the_iso_cap():
    report = verify_thm36(CHORD_ORDER_CAP, 3)
    assert report.all_asserts_pass
    assert rows_by_claim(report, "C3.7")


# -- census -------------------------------------------------------------------------

def test_census_order_two_classes():
    rows = census(2)
    assert len(rows) == 2
    by_count = {r.labeled_count: r for r in rows}
    assert by_count[1].exponent == 1  # both loops present
    assert by_count[2].exponent == 2  # single loop, either position
    assert max(r.exponent for r in rows) == 2
    assert all(r.girth == 1 and r.cycle_lengths == (1, 2) for r in rows)


def _msb_rows(code: int, n: int) -> tuple[int, ...]:
    """Successor rows of a row-major, most-significant-first code."""
    return _decode_rows(int(format(code, f"0{n * n}b")[::-1], 2), n)


def _planted_codes(n: int, count: int, seed: int) -> list[int]:
    """Seeded codes, each a planted simple cycle plus arcs drawn at a density
    from 0.05 to 0.5, so every length, and a lone cycle of it, is met often."""
    rng = random.Random(seed)
    codes = []
    for t in range(count):
        cycle = rng.sample(range(n), rng.randint(1, n))
        arcs = set(zip(cycle, cycle[1:] + cycle[:1]))
        p = (0.05, 0.1, 0.2, 0.35, 0.5)[t % 5]
        arcs |= {(i, j) for i in range(n) for j in range(n) if rng.random() < p}
        codes.append(sum(1 << (n * n - 1 - i * n - j) for i, j in arcs))
    return codes


def _check_lane_facts(codes: list[int], n: int) -> None:
    """``_lane_facts`` of the codes, packed in one batch, against the
    single-matrix exponent kernel and the subset DP, code by code, and
    every 10th code's lengths against Johnson's search."""
    facts = verify_module._lane_facts(codes, n)
    assert len(facts) == len(codes)
    for t, (code, (exp, lengths)) in enumerate(zip(codes, facts)):
        rows = _msb_rows(code, n)
        found = _exponent_kernel(rows, n)
        assert exp == (None if found is None else found[0]), code
        assert lengths == cover_lengths(rows, n), code
        if t % 10 == 0:
            assert lengths == simple_cycles(Digraph(n, rows))[1].lengths, code


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lane_facts_match_the_oracles_on_every_code(n):
    # Zero rows and columns included: such a code is never positive.
    _check_lane_facts(list(range(1 << (n * n))), n)


def test_lane_facts_match_the_oracles_at_order_five():
    _check_lane_facts(_planted_codes(5, 2000, 5), 5)


def test_lane_facts_keep_the_lane_order():
    # Lane t of a batch is its t-th code, whatever the order of the codes,
    # and a batch whose lanes are all positive before Wielandt's bound stops
    # its squaring early.
    n = 5
    codes = _planted_codes(n, 2000, 6)
    facts = dict(zip(codes, verify_module._lane_facts(codes, n)))
    shuffled = random.Random(7).sample(codes, len(codes))
    assert verify_module._lane_facts(shuffled, n) == [facts[c] for c in shuffled]
    early = [c for c in shuffled if facts[c][0] is not None and facts[c][0] < (n - 1) ** 2 + 1]
    assert len(early) > 100
    assert verify_module._lane_facts(early, n) == [facts[c] for c in early]
    assert verify_module._lane_facts([], n) == []


def test_census_girth_and_cycle_lengths_match_the_oracles():
    # The census reads the lengths from one ``_lane_cycle_sets`` pass per
    # block, and the girth as the least of them; neither oracle runs inside
    # it.
    for row in census(4):
        rows = _decode_rows(int(row.canonical_bits[::-1], 2), 4)
        assert row.girth == rows_girth(rows, 4)
        assert row.cycle_lengths == simple_cycles(Digraph(4, rows))[1].lengths


def test_census_is_deterministic():
    assert census_to_jsonl(census(3)) == census_to_jsonl(census(3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_matches_the_full_scan_oracle(n):
    _, classes = _scan(n)
    assert {(int(r.canonical_bits, 2), r.exponent, r.labeled_count) for r in census(n)} == {
        (form, exp, count) for form, (exp, count) in classes.items()}


def test_census_order_four_extremal_row():
    rows = census(4)
    extremal = [r for r in rows if r.exponent == 10]
    assert len(extremal) == 1
    assert extremal[0].labeled_count == 24
    assert extremal[0].girth == 3
    assert extremal[0].cycle_lengths == (3, 4)
    assert len([r for r in rows if r.exponent == 9]) == 1


def test_census_order_four_bytes_are_pinned():
    text = census_to_jsonl(census(4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2beb86970af1df7fefc985939bbe42837f6c3f88afe06b12903ca21ef1898cb0"
    )


@pytest.mark.skipif(
    os.environ.get("PRIMEXP_ACCEPT_LONG") != "1",
    reason="the order-5 census takes about 3.5 s on two workers (PRIMEXP_ACCEPT_LONG=1)",
)
def test_census_order_five_bytes_are_pinned():
    text = census_to_jsonl(census(5, jobs=2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0a9db7c0e5b2d69a68efcb5c71c2ee7edcd7db8fb593d52b5282338b4b69bf84"
    )


def test_census_jobs_do_not_change_output():
    assert census_to_jsonl(census(4, jobs=3)) == census_to_jsonl(census(4, jobs=1))


def test_census_rejects_a_wrong_automorphism_count(monkeypatch):
    real = verify_module._class_codes
    calls = []

    def one_extra_automorphism_once(head_codes, last_codes):
        codes = real(head_codes, last_codes)
        calls.append(last_codes)
        return codes + [codes[0]] if len(calls) == 1 else codes

    monkeypatch.setattr(verify_module, "_class_codes", one_extra_automorphism_once)
    with pytest.raises(RuntimeError, match="labeled matrices"):
        census(3)


def test_census_rejects_a_dropped_code(monkeypatch):
    # Out-degrees 1, 2, 3 are all distinct, so the primitive class of
    # (0b010, 0b101, 0b111) has no other degree-sorted code: dropping the
    # pair of rows 1 and 2 from its group loses the class.
    # A group lists its choices of rows in lexicographic order.
    real = verify_module._row_group
    by_popcount = verify_module._rows_by_popcount(3)
    entries = real(canonical_code_tables(3), by_popcount, 1, (2, 3))
    dropped = dict(zip(degree_sorted_rows(by_popcount, (2, 3)), entries))[(0b101, 0b111)]

    def without_one(tables, by_popcount, first, degrees):
        return [e for e in real(tables, by_popcount, first, degrees) if e != dropped]

    monkeypatch.setattr(verify_module, "_row_group", without_one)
    with pytest.raises(RuntimeError, match="labeled matrices"):
        census(3)


def test_census_canonicalizes_each_class_once(monkeypatch):
    real = verify_module._class_codes
    forms = []

    def counted(head_codes, last_codes):
        codes = real(head_codes, last_codes)
        forms.append(min(codes))
        return codes

    monkeypatch.setattr(verify_module, "_class_codes", counted)
    census(4)
    # 1 918 classes of order-4 matrices without a zero row or column, 1 159
    # of them primitive, against 6 757 degree-sorted codes that pass the
    # column filter.
    assert len(forms) == len(set(forms)) == 1918


@pytest.mark.parametrize("n, sequences, scanned", [
    (2, None, 5),
    (3, None, 100),
    (4, None, 6757),
    # Order 5 is the only one whose heads merge two groups.
    (5, ((1, 1, 1, 1, 5), (1, 1, 2, 4, 4), (1, 2, 3, 4, 5)), 8895),
])
def test_grouped_scan_keeps_the_codes_of_the_column_filter(monkeypatch, n, sequences, scanned):
    # With no degree-preserving relabeling nothing is known in advance, so
    # the block canonicalizes every code its scan keeps, each once; they must
    # be the degree-sorted codes whose rows cover every column.  With them,
    # the labeled total is that of every ordering of the degrees, and each
    # ordering has as many covering codes as the sorted one.
    tables = canonical_code_tables(n)
    by_popcount = verify_module._rows_by_popcount(n)
    full = (1 << n) - 1
    real = verify_module._class_codes
    kept = []

    def recorded(head_codes, last_codes):
        codes = real(head_codes, last_codes)
        kept.append(codes[0])
        return codes

    total = 0
    for degrees in sequences or itertools.combinations_with_replacement(range(1, n + 1), n):
        expected = [relabeled_codes(rows, tables)[0]
                    for rows in degree_sorted_rows(by_popcount, degrees)
                    if functools.reduce(operator.or_, rows) == full]
        _, labeled = verify_module._census_block((n, (degrees,)))
        assert labeled == len(set(itertools.permutations(degrees))) * len(expected), degrees
        with monkeypatch.context() as patch:
            patch.setattr(verify_module, "_degree_preserving", lambda perms, degrees: [])
            patch.setattr(verify_module, "_class_codes", recorded)
            kept.clear()
            verify_module._census_block((n, (degrees,)))
        assert sorted(kept) == sorted(expected), degrees
        total += len(expected)
    assert total == scanned


def _check_group_sums(rowses, n):
    """Each row group's entry for the rows, and their vectors summed, against
    the per-row oracle ``relabeled_codes``.

    The groups are the census block's: a lone row 0 when n is odd, then
    pairs, each listing its choices of rows in lexicographic order.
    """
    tables = canonical_code_tables(n)
    by_popcount = verify_module._rows_by_popcount(n)
    slices = [(0, 1)] * (n % 2) + [(first, first + 2) for first in range(n % 2, n, 2)]
    groups = {}
    for rows in rowses:
        vectors = []
        for first, end in slices:
            part = rows[first:end]
            key = (first, tuple(r.bit_count() for r in part))
            if key not in groups:
                entries = verify_module._row_group(tables, by_popcount, *key)
                groups[key] = dict(zip(degree_sorted_rows(by_popcount, key[1]), entries, strict=True))
            union, ident, codes = groups[key][part]
            assert union == functools.reduce(operator.or_, part) and ident == codes[0]
            vectors.append(codes)
        assert list(map(sum, zip(*vectors))) == relabeled_codes(rows, tables), rows


def test_row_group_vectors_sum_to_the_relabeled_codes_at_order_three():
    _check_group_sums(list(itertools.product(range(8), repeat=3)), 3)


@pytest.mark.parametrize("n", [4, 5])
def test_row_group_vectors_sum_to_the_relabeled_codes_on_seeded_codes(n):
    rng = random.Random(n)
    _check_group_sums([tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(300)], n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree_preserving_relabelings_keep_codes_degree_sorted(n):
    tables = canonical_code_tables(n)
    perms = list(itertools.permutations(range(n)))
    by_popcount = verify_module._rows_by_popcount(n)
    mask = (1 << n) - 1
    for degrees in itertools.combinations_with_replacement(range(n + 1), n):
        kept = set(verify_module._degree_preserving(perms, degrees))
        codes = degree_sorted_rows(by_popcount, degrees)
        sample = [next(codes), *itertools.islice(codes, 0, None, 997)]
        for rows in sample:
            for k, code in enumerate(relabeled_codes(rows, tables)):
                # Row i is the i-th n-bit group from the top of the code.
                popcounts = [((code >> (n * (n - 1 - i))) & mask).bit_count() for i in range(n)]
                assert (popcounts == sorted(popcounts)) == (k in kept), (degrees, rows, perms[k])
                assert sorted(popcounts) == list(degrees)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree_preserving_equals_the_per_vertex_predicate(n):
    perms = list(itertools.permutations(range(n)))
    for degrees in itertools.combinations_with_replacement(range(n + 1), n):
        oracle = [k for k, p in enumerate(perms) if all(degrees[w] == d for w, d in zip(p, degrees))]
        assert verify_module._degree_preserving(perms, degrees) == oracle, degrees


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_block_without_sequences_is_empty(n):
    assert verify_module._census_block((n, ())) == ([], 0)


def test_census_on_one_worker_runs_one_block(monkeypatch):
    # One block builds the relabeling tables, permutations and popcount
    # buckets once per call.
    real = verify_module._census_block
    blocks = []

    def counted(args):
        blocks.append(args)
        return real(args)

    monkeypatch.setattr(verify_module, "_census_block", counted)
    text = census_to_jsonl(census(4, jobs=1))
    assert len(blocks) == 1
    assert _sha256(text) == "2beb86970af1df7fefc985939bbe42837f6c3f88afe06b12903ca21ef1898cb0"


def test_census_reads_its_facts_in_one_lane_pass_each(monkeypatch):
    # At jobs=1 the order-4 census slices its 1 918 classes once and makes
    # one cycle-set pass and one exponent pass over them; no class's
    # exponent or cycles are computed on their own, and no per-lane cover
    # is read out.
    passes = []

    def counting(kernel):
        def count(arc, lanes):
            passes.append((kernel.__name__, len(arc), lanes))
            return kernel(arc, lanes)
        return count

    def refuse(*args):
        raise AssertionError("the census computed a class's facts on their own")

    for name in ("_lane_exponents", "_lane_cycle_sets"):
        monkeypatch.setattr(verify_module, name, counting(getattr(verify_module, name)))
    for module in (verify_module, importlib.import_module("primexp.digraph")):
        monkeypatch.setattr(module, "_lane_cycle_covers", refuse)
    for name in ("primexp.digraph", "primexp.exponent"):
        monkeypatch.setattr(importlib.import_module(name), "_cycle_cover", refuse)
    for module in (verify_module, importlib.import_module("primexp.exponent")):
        monkeypatch.setattr(module, "exponent_of_rows", refuse)
    text = census_to_jsonl(census(4, jobs=1))
    assert passes == [("_lane_cycle_sets", 4, 1918), ("_lane_exponents", 4, 1918)]
    assert _sha256(text) == "2beb86970af1df7fefc985939bbe42837f6c3f88afe06b12903ca21ef1898cb0"


def test_census_rejects_a_class_counted_twice(monkeypatch):
    # Without one degree-preserving relabeling, a class whose code under it
    # differs from its other codes is met again and counted a second time.
    real = verify_module._degree_preserving

    def one_short(perms, degrees):
        kept = real(perms, degrees)
        return kept[:-1] if len(kept) > 1 else kept

    monkeypatch.setattr(verify_module, "_degree_preserving", one_short)
    with pytest.raises(RuntimeError, match="labeled matrices"):
        census(4)


def test_census_guards(monkeypatch):
    for n in (1, 6):
        with pytest.raises(ValueError):
            census(n)

    class Reached(Exception):
        pass

    def reached(args):
        raise Reached

    # order 5 passes the guard and starts the scan
    monkeypatch.setattr(verify_module, "_census_block", reached)
    with pytest.raises(Reached):
        census(5)


def test_census_exhausts_the_order_four_bounds():
    from primexp.exponent import lemma23_bound

    rows = census(4)
    for row in rows:
        assert row.exponent <= lemma23_bound(4, row.girth)
        if len(row.cycle_lengths) >= 3:
            assert row.exponent <= lemma25_bound(4)


def test_report_rows_recomputable_from_predicted_and_oracle():
    from primexp.report import compare

    report = verify_thm33(n_min=5, n_max=6)
    for row in report.rows:
        assert row.agree == compare(row.rule, row.predicted, row.oracle)
