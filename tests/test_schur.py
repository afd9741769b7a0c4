"""Tests for index sets, Schur polynomials, and Pascal-minor coefficients."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

import sdpdeg.checks as checks
from sdpdeg.checks import (
    elementary_symmetric,
    h_schur_expansion,
    index_sets,
    is_symmetric,
    schur_bialternant,
    schur_decompose,
)
from sdpdeg.polynomial import (
    SparsePolynomial,
    complete_homogeneous,
    pairwise_sum_forms,
    x_space,
)
from sdpdeg.schur import _exact_div, as_index_set, bareiss_det, pascal_minor_det, psi


def test_index_set_validation():
    assert as_index_set((0, 2, 5)) == (0, 2, 5)
    with pytest.raises(ValueError):
        as_index_set((2, 2))
    with pytest.raises(ValueError):
        as_index_set((3, 1))
    with pytest.raises(ValueError):
        as_index_set((-1, 0))
    with pytest.raises(TypeError):
        as_index_set([0.5, 2.9])
    with pytest.raises(TypeError):
        as_index_set([True, 2])
    with pytest.raises(TypeError):
        psi([0.5, 2.9])


def test_index_sets_examples():
    assert index_sets(0, 3) == [(0, 1, 2)]
    assert index_sets(2, 2) == [(0, 3), (1, 2)]
    with pytest.raises(ValueError):
        index_sets(-1, 2)


def test_index_sets_order_is_ascending_lex():
    # the partitions (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
    assert index_sets(4, 4) == [
        (0, 1, 2, 7),
        (0, 1, 3, 6),
        (0, 1, 4, 5),
        (0, 2, 3, 5),
        (1, 2, 3, 4),
    ]


def _count_partitions(d, r):
    # independent oracle: partitions of d into at most r parts, by the
    # standard recurrence p(d, r) = p(d, r - 1) + p(d - r, r)
    if d == 0:
        return 1
    if d < 0 or r == 0:
        return 0
    return _count_partitions(d, r - 1) + _count_partitions(d - r, r)


def test_index_sets_count_the_partitions():
    # r-element index sets of weight d correspond to partitions of d into at
    # most r parts
    for d in range(8):
        for r in range(1, 6):
            got = index_sets(d, r)
            assert len(got) == _count_partitions(d, r), (d, r)
            assert len(set(got)) == len(got)
            for I in got:
                assert as_index_set(I) == I
                assert len(I) == r and sum(I) - comb(r, 2) == d, (I, d, r)


def test_index_set_weight_identity():
    # every r-subset I of the naturals is listed under weight sum(I) - C(r, 2)
    rng = random.Random(9)
    for _ in range(40):
        r = rng.randint(1, 4)
        indices = tuple(sorted(rng.sample(range(10), r)))
        assert indices in index_sets(sum(indices) - comb(r, 2), r), indices


def test_bareiss_det_against_permutation_expansion():
    rng = random.Random(11)
    for k in range(0, 6):
        for _ in range(10):
            m = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
            assert bareiss_det(m) == checks.permutation_det(m), m
    assert bareiss_det([]) == 1


def test_bareiss_det_zero_pivot_and_fractions():
    m = [[0, 1, 2], [3, 0, 1], [1, 1, 1]]
    assert bareiss_det(m) == checks.permutation_det(m)
    assert bareiss_det([[0, 0], [0, 5]]) == 0
    fm = [[Fraction(1, 2), 1], [1, Fraction(2, 3)]]
    assert bareiss_det(fm) == Fraction(1, 3) - 1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])


def test_alternant_is_its_definition():
    # the alternant of (0, 1, ..., r-1) is the Vandermonde product over i < j
    for r in range(1, 5):
        sp = x_space(r)
        vandermonde = sp.one()
        for i, j in combinations(range(r), 2):
            vandermonde = vandermonde * (sp.variable(j) - sp.variable(i))
        assert checks._alternant(sp, range(r)) == vandermonde, r
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    assert checks._alternant(sp, (0, 2)) == x2 * x2 - x1 * x1


def test_bialternant_small_cases():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    assert schur_bialternant((0, 2)) == x1 + x2
    assert schur_bialternant((0, 3)) == x1 * x1 + x1 * x2 + x2 * x2
    assert schur_bialternant((1, 2)) == x1 * x2
    with pytest.raises(ValueError):
        schur_bialternant((2, 1))


def test_bialternant_is_symmetric_and_homogeneous():
    for r in (2, 3):
        for I in index_sets(4, r):
            s = schur_bialternant(I)
            assert is_symmetric(s)
            degrees = {sum(mono) for mono in s.terms}
            assert degrees == {4}


def test_bialternant_matches_h_and_e_specializations():
    for r in (2, 3):
        xs = [x_space(r).variable(i) for i in range(r)]
        for k in range(1, r + 1):
            # (k) has the index set {0..r-2} + {k+r-1}; (1^k) has {0..r-1}
            # with its top k entries raised by one
            h_set = (*range(r - 1), k + r - 1)
            e_set = tuple(i + (i >= r - k) for i in range(r))
            assert schur_bialternant(h_set) == complete_homogeneous(xs, k)
            assert schur_bialternant(e_set) == elementary_symmetric(xs, k)


def test_schur_decompose_examples():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    h2_forms = SparsePolynomial(sp, {(2, 0): 7, (1, 1): 10, (0, 2): 7})
    assert schur_decompose(h2_forms) == {(0, 3): 7, (1, 2): 3}
    assert schur_decompose(x1 * x2) == {(1, 2): 1}
    assert schur_decompose((x1 + x2) * (x1 + x2)) == {(0, 3): 1, (1, 2): 1}
    # non-homogeneous input
    assert schur_decompose(sp.one() + x1 + x2) == {(0, 1): 1, (0, 2): 1}
    assert schur_decompose(sp.constant(3) - x1 * x2) == {(0, 1): 3, (1, 2): -1}


def test_schur_decompose_rejects_asymmetric():
    sp = x_space(2)
    with pytest.raises(ValueError):
        schur_decompose(sp.variable(0))


def test_schur_decompose_inverts_bialternant():
    # the alternant quotient against the coefficient read off a_delta * s_I
    for r in (2, 3):
        for weight in range(6):
            for I in index_sets(weight, r):
                assert schur_decompose(schur_bialternant(I)) == {I: 1}


def test_pascal_minor_examples():
    assert pascal_minor_det((0, 3), (0, 3)) == 1
    assert pascal_minor_det((0, 3), (0, 1)) == 3
    assert pascal_minor_det((1, 2), (2, 3)) == 0
    with pytest.raises(ValueError):
        pascal_minor_det((0, 1), (0, 1, 2))


def test_psi_examples():
    assert psi((1, 2)) == 3
    assert psi((0, 3)) == 7
    for r in (1, 2, 3, 4):
        assert psi(tuple(range(r))) == 1


def test_psi_hockey_stick_closed_form():
    for r in range(1, 7):
        for k in range(r):
            I = tuple(i for i in range(r + 1) if i != k)
            assert psi(I) == comb(r + 1, k + 1), (r, k)


def test_h_schur_expansion_examples():
    assert h_schur_expansion(2, 2) == {(0, 3): 7, (1, 2): 3}
    for r in (1, 2, 3):
        assert h_schur_expansion(0, r) == {tuple(range(r)): 1}
    assert h_schur_expansion(1, 2) == {(0, 2): 3}


def test_h_schur_expansion_matches_symbolic():
    for r in (1, 2, 3):
        forms = pairwise_sum_forms(x_space(r))
        for d in range(4):
            symbolic = schur_decompose(complete_homogeneous(forms, d))
            assert symbolic == h_schur_expansion(d, r), (r, d)


def test_vandermonde_square_coefficient():
    # coefficient of x^((n-1)^r) in s_I * prod_{j != i}(x_i - x_j):
    # r! exactly when I = {n-r..n-1}, the full rectangle, 0 otherwise
    for r in (1, 2):
        sp = x_space(r)
        vsq = sp.one()
        for i in range(r):
            for j in range(r):
                if i != j:
                    vsq = vsq * (sp.variable(i) - sp.variable(j))
        for n in range(r + 1, 5):
            target = (n - 1,) * r
            for I in index_sets(r * (n - r), r):
                coeff = (schur_bialternant(I) * vsq).coefficient_of(target)
                if I == tuple(range(n - r, n)):
                    assert coeff == factorial(r), (I, n)
                else:
                    assert coeff == 0, (I, n)


def test_psi_rectangle_strip_closed_form():
    for r in range(1, 5):
        for k in range(r + 1):
            # the index set of the partition (2^(r-k), 1^k)
            I = tuple(i for i in range(1, r + 2) if i != k + 1)
            assert psi(I) == (k + 1) * comb(r + 3, k + 3), (r, k)


def test_exact_div_refuses_a_remainder():
    with pytest.raises(ArithmeticError):
        _exact_div(3, 2)
