"""The combinatorial formulas and the generating function."""

import pytest
from oracles import check_recurrence, compositions_of, example_quotient_tables

from loopbetti.closed_form import (
    EXAMPLE_LOOP_BETTI_1_TO_12,
    BettiInput,
    betti_pinched_example,
    betti_pinched_formula,
    binom,
    c_coeff,
    conjecture_rows,
    loop_betti,
    loop_betti_example,
    poincare_coeffs,
    quotient_betti_concentrated,
    series_coeffs,
)
from loopbetti.homology import BettiTable, UncertifiedRangeError, table_from_dict

GLUED_INPUT = BettiInput(table_from_dict({2: 1}), table_from_dict({1: 1}))
CIRCLE_INPUT = BettiInput(table_from_dict({1: 1}), table_from_dict({1: 1}))


def test_binomial_convention():
    assert binom(0, 0) == 1
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0
    assert binom(5, 2) == 10


def test_c_coeff_examples():
    assert c_coeff(0, 1, 2) == 1
    assert c_coeff(1, 1, 3) == 2
    assert c_coeff(0, 2, 3) == 0


def test_c_coeff_counts_compositions():
    """c_coeff(I, J, s) counts the compositions of s with I parts equal to
    one and J parts of size at least two."""
    for s in range(2, 10):
        tallies = {}
        for alpha in compositions_of(s):
            ones = sum(1 for p in alpha if p == 1)
            bigs = sum(1 for p in alpha if p >= 2)
            tallies[(ones, bigs)] = tallies.get((ones, bigs), 0) + 1
        for i in range(s + 1):
            for j in range(1, s + 1):
                assert c_coeff(i, j, s) == tallies.get((i, j), 0), (i, j, s)


def test_pinched_example_values():
    assert betti_pinched_example(2, 1) == 1
    assert betti_pinched_example(3, 2) == 1
    assert betti_pinched_example(3, 3) == 2
    assert betti_pinched_example(4, 5) == 3
    assert betti_pinched_example(5, 4) == 3


def test_pinched_example_vanishes_above_bound():
    for s in range(2, 9):
        for n in range(2 * s - 2, 2 * s + 4):
            assert betti_pinched_example(s, n) == 0


def test_formula_specializes_to_the_example():
    for s in range(2, 13):
        for t in range(0, 2 * s + 1):
            assert betti_pinched_formula(GLUED_INPUT, s, t) == \
                betti_pinched_example(s, t), (s, t)


def test_formula_on_circle_input():
    # everything is concentrated in degree s - 1 for the circle inputs
    assert [betti_pinched_formula(CIRCLE_INPUT, 3, t) for t in range(5)] == \
        [0, 0, 3, 0, 0]
    assert betti_pinched_formula(CIRCLE_INPUT, 4, 3) == 7


def test_formula_requires_certified_range():
    short = BettiInput(BettiTable({2: 1}, certified=2), table_from_dict({1: 1}))
    with pytest.raises(UncertifiedRangeError):
        betti_pinched_formula(short, 3, 3)


def test_quotient_betti_concentrated():
    assert quotient_betti_concentrated(1, table_from_dict({})).nonzero() == {2: 1}
    pinched2 = table_from_dict({1: 1})
    assert quotient_betti_concentrated(2, pinched2).nonzero() == {2: 1, 4: 1}
    pinched3 = table_from_dict({2: 1, 3: 2})
    assert quotient_betti_concentrated(3, pinched3).nonzero() == {3: 1, 4: 2, 6: 1}


def test_quotient_betti_concentrated_needs_vanishing():
    with pytest.raises(ValueError):
        quotient_betti_concentrated(2, table_from_dict({2: 1}))


def test_loop_betti_needs_all_small_indices():
    tables = example_quotient_tables(3)
    with pytest.raises(UncertifiedRangeError):
        loop_betti(tables, 4)


def test_loop_example_published_values():
    values = tuple(loop_betti_example(n) for n in range(1, 13))
    assert values == EXAMPLE_LOOP_BETTI_1_TO_12


def test_loop_example_rejects_degree_zero():
    with pytest.raises(ValueError):
        loop_betti_example(0)


def test_assembly_identity_through_24():
    """Summing the concentrated quotient tables built from the pinched
    example formula reproduces the closed loop formula; this also checks the
    two inner summation bounds against each other."""
    tables = example_quotient_tables(24)
    for n in range(1, 25):
        assert loop_betti(tables, n) == loop_betti_example(n), n


POINCARE = (1, -1), (1, -1, -2, 1)  # numerator and denominator


def test_series_coefficients():
    series = poincare_coeffs(12)
    assert series[:7] == (1, 0, 2, 1, 5, 5, 14)
    assert series[12] == 417
    assert len(series) == 13
    assert check_recurrence(*POINCARE, series)
    assert series_coeffs(*POINCARE, 12) == series


def test_series_recurrence_property():
    a = poincare_coeffs(30)
    for n in range(3, 31):
        assert a[n] == a[n - 1] + 2 * a[n - 2] - a[n - 3]


def test_series_expand_validates_denominator():
    with pytest.raises(ValueError):
        series_coeffs((1,), (2, 1), 5)
    with pytest.raises(ValueError):
        series_coeffs((1,), (), 5)


def test_long_division_oracle():
    """Multiply the expansion back by the denominator and compare with the
    numerator, coefficient by coefficient."""
    (num, den), a = POINCARE, poincare_coeffs(40)
    for n in range(41):
        conv = sum(den[k] * a[n - k] for k in range(min(n, len(den) - 1) + 1))
        assert conv == (num[n] if n < len(num) else 0)


def test_conjecture_rows_flags():
    rows = conjecture_rows(24)
    assert len(rows) == 24
    for n, closed, series, asserted in rows:
        assert asserted == (n <= 12)
        if asserted:
            assert closed == series
    # degrees 13..24 are reported either way; record that they are present
    assert [r[0] for r in rows[12:]] == list(range(13, 25))
