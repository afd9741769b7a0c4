"""Tests for Schur polynomials, Pieri products, and Pascal-minor coefficients."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from sdpdeg.checks import (
    Partition,
    elementary_symmetric,
    enumerate_partitions,
    h_schur_expansion,
    index_set_of,
    is_symmetric,
    jacobi_trudi_h,
    pieri_multiply,
    schur_bialternant,
    schur_decompose,
)
from sdpdeg.polynomial import (
    SparsePolynomial,
    complete_homogeneous,
    pairwise_sum_forms,
    x_space,
)
from sdpdeg.schur import bareiss_det, pascal_minor_det, psi


def _det_by_permutations(matrix):
    # independent oracle for determinants
    k = len(matrix)
    total = 0
    for perm in permutations(range(k)):
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        term = sign
        for i in range(k):
            term *= matrix[i][perm[i]]
        total += term
    return total


def test_bareiss_det_against_permutation_expansion():
    rng = random.Random(11)
    for k in range(0, 6):
        for _ in range(10):
            m = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
            assert bareiss_det(m) == _det_by_permutations(m), m
    assert bareiss_det([]) == 1


def test_bareiss_det_zero_pivot_and_fractions():
    m = [[0, 1, 2], [3, 0, 1], [1, 1, 1]]
    assert bareiss_det(m) == _det_by_permutations(m)
    assert bareiss_det([[0, 0], [0, 5]]) == 0
    fm = [[Fraction(1, 2), 1], [1, Fraction(2, 3)]]
    assert bareiss_det(fm) == Fraction(1, 3) - 1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])


def test_bialternant_small_cases():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    assert schur_bialternant(Partition([1]), 2) == x1 + x2
    assert schur_bialternant(Partition([2]), 2) == x1 * x1 + x1 * x2 + x2 * x2
    assert schur_bialternant(Partition([1, 1]), 2) == x1 * x2
    with pytest.raises(ValueError):
        schur_bialternant(Partition([1, 1, 1]), 2)


def test_bialternant_is_symmetric_and_homogeneous():
    for r in (2, 3):
        for lam in enumerate_partitions(4, r):
            s = schur_bialternant(lam, r)
            assert is_symmetric(s)
            degrees = {sum(mono) for mono in s.terms}
            assert degrees == {4}


def test_bialternant_matches_h_and_e_specializations():
    for r in (2, 3):
        xs = [x_space(r).variable(i) for i in range(r)]
        for k in range(1, r + 1):
            assert schur_bialternant(Partition([k]), r) == complete_homogeneous(xs, k)
            assert schur_bialternant(Partition([1] * k), r) == elementary_symmetric(xs, k)


def test_jacobi_trudi_examples():
    forms = pairwise_sum_forms(x_space(2))
    sp = forms[0].space
    assert jacobi_trudi_h(0, forms) == sp.one()
    assert jacobi_trudi_h(1, forms) == SparsePolynomial(sp, {(1, 0): 3, (0, 1): 3})
    assert jacobi_trudi_h(2, forms) == SparsePolynomial(sp, {(2, 0): 7, (1, 1): 10, (0, 2): 7})


def test_jacobi_trudi_matches_recurrence():
    for r in (2, 3):
        forms = pairwise_sum_forms(x_space(r))
        for k in range(4):
            assert jacobi_trudi_h(k, forms) == complete_homogeneous(forms, k), (r, k)


def test_pieri_examples():
    assert pieri_multiply(Partition(), 1, 2) == [Partition([1])]
    assert sorted(pieri_multiply(Partition([1]), 1, 2), key=lambda p: p.parts) == [
        Partition([1, 1]),
        Partition([2]),
    ]
    assert pieri_multiply(Partition([2, 2]), 2, 2) == [Partition([3, 3])]
    assert pieri_multiply(Partition([1]), 0, 2) == [Partition([1])]


def test_pieri_agrees_with_decomposition():
    for r in (2, 3):
        for weight in range(4):
            for lam in enumerate_partitions(weight, r):
                s_lam = schur_bialternant(lam, r)
                for k in range(r + 1):
                    e_k = elementary_symmetric(
                        [x_space(r).variable(i) for i in range(r)], k
                    )
                    expansion = schur_decompose(s_lam * e_k)
                    expected = {gamma: 1 for gamma in pieri_multiply(lam, k, r)}
                    assert expansion == expected, (lam, k, r)


def test_schur_decompose_examples():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    h2_forms = SparsePolynomial(sp, {(2, 0): 7, (1, 1): 10, (0, 2): 7})
    assert schur_decompose(h2_forms) == {Partition([2]): 7, Partition([1, 1]): 3}
    assert schur_decompose(x1 * x2) == {Partition([1, 1]): 1}
    assert schur_decompose((x1 + x2) * (x1 + x2)) == {
        Partition([2]): 1,
        Partition([1, 1]): 1,
    }


def test_schur_decompose_rejects_asymmetric():
    sp = x_space(2)
    with pytest.raises(ValueError):
        schur_decompose(sp.variable(0))


def test_schur_decompose_inverts_bialternant():
    for r in (2, 3):
        for weight in range(6):
            for lam in enumerate_partitions(weight, r):
                assert schur_decompose(schur_bialternant(lam, r)) == {lam: 1}


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
    assert h_schur_expansion(2, 2) == {Partition([2]): 7, Partition([1, 1]): 3}
    for r in (1, 2, 3):
        assert h_schur_expansion(0, r) == {Partition(): 1}
    assert h_schur_expansion(1, 2) == {Partition([1]): 3}


def test_h_schur_expansion_matches_symbolic():
    for r in (1, 2, 3):
        forms = pairwise_sum_forms(x_space(r))
        for d in range(4):
            symbolic = schur_decompose(complete_homogeneous(forms, d))
            assert symbolic == h_schur_expansion(d, r), (r, d)


def test_vandermonde_square_coefficient():
    # coefficient of x^((n-1)^r) in s_lam * prod_{j != i}(x_i - x_j):
    # r! exactly when lam is the full rectangle, 0 otherwise
    for r in (1, 2):
        sp = x_space(r)
        vsq = sp.one()
        for i in range(r):
            for j in range(r):
                if i != j:
                    vsq = vsq * (sp.variable(i) - sp.variable(j))
        for n in range(r + 1, 5):
            target = (n - 1,) * r
            for lam in enumerate_partitions(r * (n - r), r):
                coeff = (schur_bialternant(lam, r) * vsq).coefficient_of(target)
                if lam == Partition((n - r,) * r):
                    assert coeff == factorial(r), (lam, n)
                else:
                    assert coeff == 0, (lam, n)


def test_psi_rectangle_strip_closed_form():
    for r in range(1, 5):
        for k in range(r + 1):
            lam = Partition((2,) * (r - k) + (1,) * k)
            assert psi(index_set_of(lam, r)) == (k + 1) * comb(r + 3, k + 3), (r, k)
