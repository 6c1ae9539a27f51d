from __future__ import annotations

import functools
import hashlib
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
    _period_of_levels,
    digraph,
    rows_cycle_lengths,
    rows_girth,
    rows_primitive,
    simple_cycles,
)
from primexp.exponent import (
    cwalk_of_cover,
    exponent,
    exponent_of_rows,
    lemma25_bound,
    thm36_range,
)
from primexp.families import FamilySpec, chord_member, d1, d2, q1
from primexp.iso import ISO_ORDER_CAP, automorphism_count, canonical_code_tables
from primexp.report import Report, census_to_jsonl
from primexp.semigroup import frobenius
from primexp.verify import (
    BERNOULLI_SWEEP,
    _bound_facts,
    _chord_universe_rows,
    _converse_facts,
    _fixed_cycle_walk,
    _mirror_mask,
    _per_orbit,
    _random_primitive_rows,
    _random_tries,
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

from helpers import canonical_code, degree_sorted_rows, relabeled_codes


def rows_by_claim(report: Report, claim: str):
    return [r for r in report.sorted_rows() if r.claim == claim]


# -- random generation ---------------------------------------------------------

def test_random_primitive_digraph_is_primitive_and_deterministic():
    a = _random_primitive_rows(random.Random(5), 6, 0.1)
    b = _random_primitive_rows(random.Random(5), 6, 0.1)
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
                d = Digraph(n, _random_primitive_rows(rng, n, p))
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
                    assert _random_primitive_rows(rng, n, p) == _genexpr_random_primitive_rows(
                        oracle_rng, n, p), (seed, n, p)
                # the same draws were made, in the same order
                assert rng.getstate() == oracle_rng.getstate(), (seed, n, p)


def test_in_loop_period_equals_rows_period_on_every_try():
    # The generator reads the period off its drawn cycle; the BFS levels give it too.
    periods = set()
    for seed in range(12):
        for n in range(2, 11):
            for p in BERNOULLI_SWEEP:
                tries = _random_tries(random.Random(seed), n, p)
                for rows, period in itertools.islice(tries, 25):
                    level = _bfs_dist(rows, n, 0)
                    assert period == _period_of_levels(rows, n, level), (seed, n, p, rows)
                    periods.add(period)
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


def test_verify_bounds_jobs_do_not_change_output():
    kwargs = dict(n_max=5, samples=20, seed=11, chord_pairs=((7, 3), (7, 4), (6, 5)))
    sequential = verify_bounds(**kwargs, jobs=1)
    parallel = verify_bounds(**kwargs, jobs=2)
    assert [r for r in sequential.rows if r.instance.startswith("chord:")]
    assert parallel.to_jsonl() == sequential.to_jsonl()
    assert parallel.to_summary_csv() == sequential.to_summary_csv()


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
    def no_universe(pair):
        raise AssertionError("a chord universe ran before the input check")

    monkeypatch.setattr(verify_module, "_chord_universe_rows", no_universe)
    with pytest.raises(ValueError, match=option):
        verify_bounds(seed=1, **kwargs)


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


@pytest.mark.parametrize("n, g", [(3, 2), (6, 5), (8, 3), (10, 3), (11, 4)])
def test_per_orbit_evaluates_each_least_mask_once(n, g):
    evaluated = []

    def evaluate(rows):
        evaluated.append(rows)
        return len(evaluated)

    values = dict(_per_orbit(n, g, evaluate))
    assert sorted(values) == list(range(1, 1 << n))
    least = sorted({_least_rotation(mask, n) for mask in values})
    assert evaluated == [chord_member(n, g, mask).rows for mask in least]
    for mask, value in values.items():
        assert value == values[_least_rotation(mask, n)], mask


@pytest.mark.parametrize("n, g, orbits", [(3, 2, 3), (6, 5, 12), (8, 3, 29), (10, 3, 77),
                                          (10, 7, 77), (11, 3, 125), (11, 4, 125)])
def test_per_orbit_with_mirror_evaluates_each_least_dihedral_mask_once(n, g, orbits):
    evaluated = []

    def facts(rows):
        return _bound_facts(rows, n) if rows_primitive(rows, n) else []

    def evaluate(rows):
        evaluated.append(rows)
        return facts(rows)

    values = dict(_per_orbit(n, g, evaluate, mirror=True))
    assert sorted(values) == list(range(1, 1 << n))
    least = sorted({_least_dihedral(mask, n, g) for mask in values})
    assert len(least) == orbits
    assert evaluated == [chord_member(n, g, mask).rows for mask in least]
    for mask, value in values.items():
        assert value == facts(chord_member(n, g, mask).rows), mask


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
            entries = _chord_universe_rows((n, g))
            if math.gcd(n, g) != 1:
                assert entries == [], (n, g)
                continue
            assert [(label, params) for label, params, _ in entries] == [
                (FamilySpec(kind="chord", n=n, g=g, chord_mask=mask).label(),
                 {"n": n, "g": g, "mask": mask})
                for mask in range(1, 1 << n)], (n, g)


def johnson_cwalk_max(d, profile) -> int:
    """The c-walk kernel's maximum on a Johnson profile's cover, not the subset-DP cover."""
    cover = [sum(1 << v for v in range(d.order) if length in profile.per_vertex[v])
             for length in profile.lengths]
    return cwalk_of_cover(d.rows, d.order, cover).max


def test_lemma22_rows_equal_the_johnson_cwalk_oracle():
    # Independent of _bound_facts: the c-walk takes its profile from Johnson's
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
        assert facts == _bound_facts(d.rows, d.order), instance


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
        spec = FamilySpec(kind="chord", n=n, g=g, chord_mask=mask)
        d = spec.build()
        if rows_primitive(d.rows, n):
            bound_rows_for(d, spec.label(), oracle, n=n, g=g, mask=mask)
    assert Report(_chord_universe_rows(pair)).to_jsonl() == oracle.to_jsonl()


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


def test_verify_lemma24_rejects_other_orders():
    for n in (3, 15):
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

    monkeypatch.setattr(verify_module, "enumerate_DgN", no_work)
    assert verify_module.THM33_ORDER_CAP >= 12
    for n_min, n_max in ((5, verify_module.THM33_ORDER_CAP + 1), (64, 64)):
        with pytest.raises(ValueError, match=f"at most {verify_module.THM33_ORDER_CAP}"):
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


def test_verify_lemma34_refuses_orders_above_64_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("an exponent was computed before the order check")

    monkeypatch.setattr(verify_module, "exponent", no_work)
    for n_max in (65, 1000):
        with pytest.raises(ValueError, match=f"n_max must be at most 64, got {n_max}"):
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


def test_verify_thm36_converse_rows_equal_the_per_member_loop():
    # (10, 7) is a pair where dihedral orbits would change the report: the
    # classify_against index is not invariant under transposition.
    n, g = 10, 7
    low, high = thm36_range(n, g)
    references: dict = {}
    expected = []
    for mask in range(1, 1 << n):
        facts = _converse_facts(chord_member(n, g, mask).rows, n, g, low, high,
                                references)
        if facts is not None and facts[2] is not None:
            expected.append((mask, "none" if facts[3] is None else facts[3]))
    converse = [(r.params["mask"], r.oracle) for r in rows_by_claim(verify_thm36(n, g), "C3.7")]
    assert converse and sorted(converse) == expected


def test_verify_thm36_rejects_gcd_violation():
    with pytest.raises(ValueError):
        verify_thm36(10, 5)


@pytest.mark.parametrize("n, g", [(15, 4), (40, 19)])
def test_verify_thm36_refuses_orders_above_the_iso_cap_before_any_work(monkeypatch, n, g):
    # Phase b classifies q1(n, g), whose exponent tops the window, so every
    # pair above the cap would fail there, after the whole forward sweep.
    def no_work(*args):
        raise AssertionError("a chord set was enumerated before the order check")

    monkeypatch.setattr(verify_module, "enumerate_Dr", no_work)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"at most {ISO_ORDER_CAP}.*got {n}"):
        verify_thm36(n, g)
    assert time.perf_counter() - start < 1


def test_verify_thm36_runs_at_the_iso_cap():
    report = verify_thm36(ISO_ORDER_CAP, 3)
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


def _table_lengths(code: int, cycle_masks) -> tuple[int, ...]:
    return tuple(k for k, masks in cycle_masks if any(code & m == m for m in masks))


def _msb_rows(code: int, n: int) -> tuple[int, ...]:
    """Successor rows of a row-major, most-significant-first code."""
    return _decode_rows(int(format(code, f"0{n * n}b")[::-1], 2), n)


@pytest.mark.parametrize("n, size", [(2, 3), (3, 8), (4, 24), (5, 89)])
def test_cycle_mask_table_sizes(n, size):
    cycle_masks = verify_module._cycle_masks(n)
    assert [k for k, _ in cycle_masks] == list(range(1, n + 1))
    for k, masks in cycle_masks:
        assert len(set(masks)) == len(masks) == math.comb(n, k) * math.factorial(k - 1)
        assert all(m.bit_count() == k for m in masks)
    assert sum(len(masks) for _, masks in cycle_masks) == size


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cycle_mask_lengths_match_the_dp_on_every_code(n):
    cycle_masks = verify_module._cycle_masks(n)
    for code in range(1 << (n * n)):
        assert _table_lengths(code, cycle_masks) == rows_cycle_lengths(_msb_rows(code, n), n), code


def test_cycle_mask_lengths_match_the_oracles_at_order_five():
    # Each code is a planted simple cycle plus arcs drawn at a density from
    # 0.05 to 0.5, so every length, and a lone cycle of it, is met often.
    n = 5
    rng = random.Random(5)
    cycle_masks = verify_module._cycle_masks(n)
    for t in range(2000):
        cycle = rng.sample(range(n), rng.randint(1, n))
        arcs = set(zip(cycle, cycle[1:] + cycle[:1]))
        p = (0.05, 0.1, 0.2, 0.35, 0.5)[t % 5]
        arcs |= {(i, j) for i in range(n) for j in range(n) if rng.random() < p}
        code = sum(1 << (n * n - 1 - i * n - j) for i, j in arcs)
        rows = _msb_rows(code, n)
        lengths = _table_lengths(code, cycle_masks)
        assert lengths == rows_cycle_lengths(rows, n), code
        if t % 10 == 0:
            assert lengths == simple_cycles(Digraph(n, rows))[1].lengths, code


def test_census_girth_and_cycle_lengths_match_the_oracles():
    # The census reads the lengths from its cycle-mask table and the girth
    # as the least of them; neither oracle runs inside it.
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
    reason="the order-5 census takes about 5.5 s on two workers (PRIMEXP_ACCEPT_LONG=1)",
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
    dropped = (0b101, 0b111)
    real = verify_module._row_group
    tables = canonical_code_tables(3)
    assert dropped in [e[3] for e in real(tables, verify_module._rows_by_popcount(3), 1, (2, 3))]

    def without_one(tables, by_popcount, first, degrees):
        return [e for e in real(tables, by_popcount, first, degrees) if e[3] != dropped]

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

    The groups are the census block's: a lone row 0 when n is odd, then pairs.
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
                groups[key] = {e[3]: e for e in verify_module._row_group(tables, by_popcount, *key)}
            union, ident, codes, _ = groups[key][part]
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


def test_census_on_one_worker_runs_one_block(monkeypatch):
    # One block builds the relabeling tables, permutations, popcount
    # buckets and cycle masks once per call.
    real = verify_module._census_block
    blocks = []

    def counted(args):
        blocks.append(args)
        return real(args)

    monkeypatch.setattr(verify_module, "_census_block", counted)
    text = census_to_jsonl(census(4, jobs=1))
    assert len(blocks) == 1
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
