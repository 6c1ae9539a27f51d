from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primexp.boolmat import (
    BoolMatrix,
    MatrixParseError,
    _row_lines,
    mul_rows,
    parse_matrix,
    pow_rows,
    serialize_rows,
)
from primexp.families import d1, standard_cycle


def identity_rows(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def random_matrix(rng: random.Random, n: int) -> BoolMatrix:
    return BoolMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))


def matrices(max_order: int = 6):
    return st.integers(2, max_order).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
        )
    ).map(lambda t: BoolMatrix(t[0], tuple(t[1])))


def test_identity_is_multiplicative_unit():
    rng = random.Random(7)
    for _ in range(20):
        a = random_matrix(rng, 5).rows
        assert mul_rows(identity_rows(5), a) == a
        assert mul_rows(a, identity_rows(5)) == a


def test_four_cycle_square_is_two_step_rotation():
    a = standard_cycle(4).rows
    sq = mul_rows(a, a)
    for i in range(1, 5):
        row = sq[i - 1]
        assert bin(row).count("1") == 1
        two_back = (i - 3) % 4 + 1
        assert (row >> (two_back - 1)) & 1


def test_all_ones_is_absorbing():
    j = (0b111,) * 3
    assert mul_rows(j, j) == j


def test_power_zero_is_identity():
    rng = random.Random(1)
    a = random_matrix(rng, 4).rows
    assert pow_rows(a, 0, 4) == identity_rows(4)


def test_five_cycle_power_five_is_identity():
    assert pow_rows(standard_cycle(5).rows, 5, 5) == identity_rows(5)


def test_d1_power_hits_all_ones_exactly_at_ten():
    a = d1(4).rows
    assert pow_rows(a, 10, 4) == (0b1111,) * 4
    assert pow_rows(a, 9, 4) != (0b1111,) * 4


def test_order_bounds_enforced():
    with pytest.raises(ValueError):
        BoolMatrix(1, (0,))
    with pytest.raises(ValueError):
        BoolMatrix(65, (0,) * 65)
    with pytest.raises(ValueError):
        BoolMatrix(3, (0b1000, 0, 0))  # bit beyond column 3


def test_parse_antidiagonal():
    m = parse_matrix("2\n01\n10\n")
    assert m == BoolMatrix(2, (0b10, 0b01))


def test_parse_errors_name_the_line():
    with pytest.raises(MatrixParseError, match="line 3"):
        parse_matrix("3\n011\n01\n000\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix("2\n0x\n10\n")
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_matrix("q\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("2\n01\n")  # missing row


@pytest.mark.parametrize("head", ["+2", "0_2", "\uff12", "-2"])
def test_parse_takes_only_ascii_digits_for_the_order(head):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(f"{head}\n01\n10\n")
    assert exc.value.line == 1
    assert str(exc.value) == f"line 1: expected decimal order, got {head!r}"


def parse_matrix_per_char(text: str) -> BoolMatrix:
    """Oracle: the parser with a per-character row loop."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise MatrixParseError("empty input", 1)
    head = lines[0].strip()
    try:
        n = int(head)
    except ValueError:
        raise MatrixParseError(f"expected decimal order, got {head!r}", 1) from None
    if not 2 <= n <= 64:
        raise MatrixParseError(f"order must be in [2, 64], got {n}", 1)
    if len(lines) != n + 1:
        raise MatrixParseError(f"expected {n} rows after the order line, got {len(lines) - 1}", len(lines))
    rows = []
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if len(line) != n:
            raise MatrixParseError(f"row has length {len(line)}, expected {n}", i)
        row = 0
        for j, ch in enumerate(line):
            if ch == "1":
                row |= 1 << j
            elif ch != "0":
                raise MatrixParseError(f"invalid character {ch!r}", i)
        rows.append(row)
    return BoolMatrix(n, tuple(rows))


def parse_outcome(parse, text: str):
    try:
        return parse(text)
    except MatrixParseError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize("row", [
    "0_11", "+011", "0 11", "0\t11", "0121", "b011", "0111\r", "0\uff1101", "1_10", "+111",
    " 011", "011 ", "0110\r", "01\uff110", "0101",
])
def test_parse_matches_the_per_char_oracle(row):
    for place in range(1, 5):
        lines = ["4", "0110", "1001", "0011", "1100"]
        lines[place] = row
        text = "\n".join(lines) + "\n"
        assert parse_outcome(parse_matrix, text) == parse_outcome(parse_matrix_per_char, text)


def test_serialize_parse_round_trip_at_every_order():
    rng = random.Random(11)
    for n in range(2, 65):
        m = random_matrix(rng, n)
        text = serialize_rows(m.rows, n)
        assert parse_matrix(text) == parse_matrix_per_char(text) == m


def test_serialize_parse_round_trip_random():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(2, 10)
        m = random_matrix(rng, n)
        text = serialize_rows(m.rows, n)
        assert text.endswith("\n")
        assert parse_matrix(text) == m
        # serialize(parse(t)) canonicalizes: trailing whitespace and final LF
        messy = text.rstrip("\n") + ("" if n % 2 else "\n")
        assert serialize_rows(parse_matrix(messy).rows, n) == text


def test_serialize_matrix_matches_the_per_bit_join():
    rng = random.Random(3)
    for n in range(2, 65):
        full = (1 << n) - 1
        rows = (0, full, 1, 1 << (n - 1)) + tuple(rng.getrandbits(n) for _ in range(n - 4))
        m = BoolMatrix(n, rows[:n])
        lines = [str(n)] + [
            "".join("1" if (row >> j) & 1 else "0" for j in range(n)) for row in m.rows]
        assert serialize_rows(m.rows, n) == "\n".join(lines) + "\n", n


def test_serialize_from_the_row_line_table_matches_the_formatted_rows():
    rng = random.Random(5)
    for n in range(1, 11):
        table = _row_lines(n)
        assert len(table) == 1 << n
        for _ in range(20):
            rows = tuple(rng.getrandbits(n) for _ in range(n))
            assert serialize_rows(rows, n, table) == serialize_rows(rows, n), (n, rows)


@settings(max_examples=60)
@given(matrices(5), st.data())
def test_multiply_is_associative(a, data):
    n = a.order
    b = data.draw(matrices_of_order(n)).rows
    c = data.draw(matrices_of_order(n)).rows
    a = a.rows
    assert mul_rows(mul_rows(a, b), c) == mul_rows(a, mul_rows(b, c))


def matrices_of_order(n: int):
    return st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n).map(
        lambda rows: BoolMatrix(n, tuple(rows))
    )


@settings(max_examples=40)
@given(st.integers(2, 5), st.data())
def test_entrywise_monotonicity_of_powers(n, data):
    a = data.draw(matrices_of_order(n))
    # b dominates a entrywise
    extra = data.draw(matrices_of_order(n))
    b = BoolMatrix(n, tuple(x | y for x, y in zip(a.rows, extra.rows)))
    for k in range(2 * (n - 1) ** 2 + 1):
        pa, pb = pow_rows(a.rows, k, n), pow_rows(b.rows, k, n)
        assert all(ra & ~rb == 0 for ra, rb in zip(pa, pb))


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 6), st.data())
def test_power_addition_law(n, j, k, data):
    a = data.draw(matrices_of_order(n)).rows
    assert pow_rows(a, j + k, n) == mul_rows(pow_rows(a, j, n), pow_rows(a, k, n))


def triple_loop_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Oracle: entry (i, j) is OR over k of a[i][k] AND b[k][j], one entry at a time."""
    n = len(a)
    return tuple(
        sum(1 << j for j in range(n) if any((a[i] >> k) & 1 and (b[k] >> j) & 1 for k in range(n)))
        for i in range(n))


def dense_rows(n: int):
    """Row tuples biased to full rows and rows one bit short of full."""
    full = (1 << n) - 1
    row = st.one_of(st.just(full), st.integers(0, n - 1).map(lambda j: full ^ (1 << j)),
                    st.integers(0, full))
    return st.lists(row, min_size=n, max_size=n).map(tuple)


def any_rows(n: int):
    return st.one_of(dense_rows(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                                             max_size=n).map(tuple))


@settings(max_examples=150)
@given(st.sampled_from((2, 3, 4, 5, 6, 7, 8, 9, 64)).flatmap(
    lambda n: st.tuples(any_rows(n), any_rows(n))))
def test_mul_rows_matches_the_triple_loop_oracle(operands):
    # A full row of b under the least set bit of a row of a fills that row
    # after its first OR, where mul_rows stops.
    a, b = operands
    assert mul_rows(a, b) == triple_loop_product(a, b)


@settings(max_examples=80)
@given(st.integers(2, 7).flatmap(lambda n: any_rows(n)), st.integers(0, 9))
def test_pow_rows_matches_repeated_triple_loop_products(a, k):
    n = len(a)
    expected = tuple(1 << i for i in range(n))
    for _ in range(k):
        expected = triple_loop_product(expected, a)
    assert pow_rows(a, k, n) == expected
