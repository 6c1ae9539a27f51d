from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primexp import semigroup
from primexp.semigroup import FROBENIUS_BUDGET, frobenius, gcd_set


def conductor_by_dp(values: list[int]) -> int:
    """Independent oracle: boolean table of representable integers.

    The table extends past s_min * s_max; a run of s_min consecutive
    representable integers proves everything above it is representable too.
    """
    vals = sorted(set(values))
    bound = vals[0] * vals[-1] + vals[0] + 1
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for k in range(1, bound + 1):
        reachable[k] = any(s <= k and reachable[k - s] for s in vals)
    run_needed = vals[0]
    last_gap = -1
    for k in range(bound + 1):
        if not reachable[k]:
            last_gap = k
    assert all(reachable[last_gap + 1 : last_gap + 1 + run_needed])
    return last_gap + 1


def test_gcd_trivials():
    assert gcd_set({3, 5}) == 1
    assert gcd_set({4, 6}) == 2
    assert gcd_set({7}) == 7


def test_gcd_empty_rejected():
    with pytest.raises(ValueError):
        gcd_set(set())


def test_pair_values():
    assert frobenius({3, 5}) == 8
    assert frobenius({1, 7}) == 0


def test_multi_generator_value_against_dp_oracle():
    assert conductor_by_dp([4, 6, 9]) == 12
    assert frobenius({4, 6, 9}) == 12
    assert frobenius({4, 6, 9}) <= frobenius({4, 9})  # subset never lowers


def test_pair_closed_form_exhaustive():
    for s1 in range(2, 31):
        for s2 in range(s1 + 1, 31):
            if math.gcd(s1, s2) != 1:
                continue
            assert frobenius({s1, s2}) == (s1 - 1) * (s2 - 1)


def test_one_in_set_gives_zero():
    assert frobenius({1, 4, 9}) == 0
    assert frobenius({1}) == 0


@settings(max_examples=80)
@given(st.sets(st.integers(2, 40), min_size=2, max_size=5))
def test_dp_oracle_agreement_and_superset_monotonicity(values):
    vals = sorted(values)
    if gcd_set(vals) != 1:
        return
    phi = frobenius(vals)
    assert phi == conductor_by_dp(vals)
    extra = max(vals) + 1
    assert frobenius(set(vals) | {extra}) <= phi


@settings(max_examples=60)
@given(st.sets(st.integers(2, 30), min_size=2, max_size=4))
def test_definitional_conductor_property(values):
    vals = sorted(values)
    if gcd_set(vals) != 1:
        return
    phi = frobenius(vals)
    smallest = vals[0]
    bound = phi + smallest + 1
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for k in range(1, bound + 1):
        reachable[k] = any(s <= k and reachable[k - s] for s in vals)
    if phi >= 1:
        assert not reachable[phi - 1]
    assert all(reachable[phi + i] for i in range(smallest + 1))


def test_gcd_not_one_rejected():
    with pytest.raises(ValueError, match="gcd"):
        frobenius({4, 6})


def test_budget_bounds_the_residue_sweep(monkeypatch):
    assert FROBENIUS_BUDGET == 2 * 10**6
    with pytest.raises(ValueError, match="exceeds the budget 2000000"):
        frobenius({10**6 + 1, 10**6 + 2, 10**6 + 3})
    # m * (k - 1) at the budget runs, one past it does not.
    monkeypatch.setattr(semigroup, "FROBENIUS_BUDGET", 10)
    assert frobenius({5, 7, 8}) == 12
    assert frobenius({10, 11}) == 90
    with pytest.raises(ValueError, match="exceeds the budget 10"):
        frobenius({11, 12})
    with pytest.raises(ValueError, match="exceeds the budget 10"):
        frobenius({4, 5, 6, 7})


def test_nonpositive_rejected():
    with pytest.raises(ValueError):
        frobenius({0, 3})
    with pytest.raises(ValueError):
        frobenius(set())
