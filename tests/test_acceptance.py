"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).  Time
limits are part of the criteria and asserted.  The exhaustive extremal
classes run at orders 4, 5 and 6; each takes a few milliseconds.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

from primexp.boolmat import pow_rows
from primexp.exponent import exponent, lemma34_bound, wielandt_bound
from primexp.families import chord_position_cap, h_graph, q1, q2
from primexp.report import census_to_jsonl
from primexp.semigroup import frobenius
from primexp.verify import (
    census,
    random_instances,
    valid_h_triples,
    verify_bounds,
    verify_lemma24,
    verify_thm33,
    verify_thm36,
)


@contextmanager
def criterion(number: int | str, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= limit_s:
            raise AssertionError(f"time limit exceeded: {elapsed:.1f}s >= {limit_s}s")
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance {number}] {name}: FAIL ({elapsed:.1f}s)")
        raise
    print(f"[acceptance {number}] {name}: PASS ({elapsed:.1f}s, limit {limit_s:.0f}s)")


def test_criterion_1_oracle_coherence():
    with criterion(1, "oracle coherence on 500 random primitive digraphs", 10):
        for _, n, _, d in random_instances(seed=1001, samples=500, n_max=8):
            rows = d.rows
            full = (1 << n) - 1
            oracle = None
            for k in range(1, wielandt_bound(n) + 1):
                if all(row == full for row in pow_rows(rows, k, n)):
                    oracle = k
                    break
            assert oracle is not None
            assert exponent(d).value == oracle


def test_criterion_2_extremal_classes_order_four():
    with criterion(2, "exhaustive extremal classes at order 4", 60):
        report = verify_lemma24(4)
        assert report.all_asserts_pass, [r.instance for r in report.failures()]


def test_criterion_2_long_extremal_classes_order_five():
    with criterion("2-long", "exhaustive extremal classes at order 5", 10):
        report = verify_lemma24(5)
        assert report.all_asserts_pass, [r.instance for r in report.failures()]


def test_criterion_2_long_extremal_classes_order_six():
    with criterion("2-long", "exhaustive extremal classes at order 6", 1):
        report = verify_lemma24(6)
        assert report.all_asserts_pass, [r.instance for r in report.failures()]
        sizes = {r.instance: r.oracle for r in report.rows if r.instance.endswith("class-size")}
        assert sizes == {"n=6:exp=26:class-size": 720, "n=6:exp=25:class-size": 720}


def test_criterion_3_conductor_pair_law():
    with criterion(3, "conductor pair law over coprime pairs up to 30", 1):
        for s1 in range(2, 31):
            for s2 in range(s1 + 1, 31):
                if math.gcd(s1, s2) == 1:
                    assert frobenius({s1, s2}) == (s1 - 1) * (s2 - 1)


def test_criterion_4_bound_suite():
    with criterion(4, "bound suite: 4 chord universes + 10^4 random instances", 300):
        report = verify_bounds(
            n_max=8,
            samples=10_000,
            seed=20_240_901,
            chord_pairs=((10, 3), (10, 7), (10, 9), (11, 3)),
        )
        failures = report.failures()
        assert not failures, [r.instance for r in failures[:5]]


def test_criterion_5_anchored_chord_exponents():
    with criterion(5, "anchored exponents of the one- and two-chord families", 30):
        for n in range(5, 13):
            for g in range(2, n):
                if math.gcd(n, g) != 1:
                    continue
                expected_q1 = n + g * (n - 2)
                assert exponent(q1(n, g)).value == expected_q1
                if chord_position_cap(n, g) >= 2:
                    assert exponent(q2(n, g)).value == expected_q1 - 1
                if g == n - 1:
                    assert expected_q1 == (n - 1) ** 2 + 1
                    assert exponent(q2(n, g)).value == (n - 1) ** 2


def test_criterion_6_two_cycle_bound():
    with criterion(6, "two-disjoint-cycle bound on every valid instance", 60):
        for n, g, k in valid_h_triples(12):
            assert exponent(h_graph(n, g, k)).value <= lemma34_bound(n, g)


def test_criterion_7_characterization_reports(tmp_path):
    with criterion(7, "exact-formula and window reports, converse assertion", 300):
        report33 = verify_thm33(n_min=5, n_max=12)
        assert report33.all_asserts_pass, [r.instance for r in report33.failures()]
        expected = 0
        for n in range(5, 13):
            for g in range(2, n):
                if math.gcd(n, g) == 1:
                    expected += (1 << chord_position_cap(n, g)) - 1
        chord_set_rows = [
            r for r in report33.rows
            if r.claim == "T3.3" and not r.instance.startswith("summary")
        ]
        assert len(chord_set_rows) == expected
        report33.write(str(tmp_path / "thm33.jsonl"), str(tmp_path / "thm33.csv"))

        for n, g in ((10, 3), (10, 7), (10, 9)):
            report36 = verify_thm36(n, g)
            assert report36.all_asserts_pass, [r.instance for r in report36.failures()]
            universe = [r for r in report36.rows if r.instance == "summary:universe"]
            assert f"processed {2 ** n - 1} chord subsets" in universe[0].notes
            forward = [r for r in report36.rows if r.instance.startswith("forward:")]
            assert len(forward) == (1 << chord_position_cap(n, g)) - 1
            report36.write(str(tmp_path / f"thm36_{n}_{g}.jsonl"))


def test_criterion_8_report_determinism(tmp_path):
    with criterion(8, "byte-identical reports on repeated runs", 300):
        def write_twice(name, produce):
            paths = []
            for tag in ("a", "b"):
                path = tmp_path / f"{name}_{tag}.out"
                path.write_bytes(produce().encode())
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

        write_twice(
            "bounds",
            lambda: verify_bounds(
                n_max=7, samples=300, seed=99, chord_pairs=((10, 3),)
            ).to_jsonl(),
        )
        write_twice("thm33", lambda: verify_thm33(n_min=5, n_max=7).to_jsonl())
        write_twice("thm36", lambda: verify_thm36(10, 3).to_jsonl())
        write_twice("census", lambda: census_to_jsonl(census(3)))
