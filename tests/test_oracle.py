"""Tests for the brute-force oracles and their agreement with the degree module."""

import random
from fractions import Fraction
from math import factorial

import pytest

from sdpdeg.degree import delta_residue, valid_triples
from sdpdeg.checks import (
    RootedPolynomial,
    d_coefficient,
    doubly_symmetric_sum,
    is_doubly_symmetric,
    is_symmetric,
    random_doubly_symmetric,
    random_polynomial,
    residue_sum,
)
from sdpdeg.polynomial import (
    complete_homogeneous,
    pairwise_sum_forms,
    x_space,
    xy_space,
)


def test_rooted_polynomial():
    q = RootedPolynomial([0, 1, 3])
    assert q.degree == 3
    assert q.derivative_at(0) == (0 - 1) * (0 - 3)
    with pytest.raises(ValueError):
        RootedPolynomial([1, 1])
    with pytest.raises(ValueError):
        RootedPolynomial([])


def test_residue_sum_univariate_cases():
    q = RootedPolynomial([0, 1])
    sp = x_space(1)
    assert residue_sum([q], sp.variable(0)) == 1
    assert residue_sum([q], sp.one()) == 0


def test_residue_sum_factors_over_blocks():
    sp = x_space(2)
    f = sp.variable(0) * sp.variable(1)
    qs = [RootedPolynomial([0, 1]), RootedPolynomial([0, 1])]
    assert residue_sum(qs, f) == 1


def test_residue_sum_validation():
    sp = x_space(2)
    with pytest.raises(ValueError, match="arity"):
        residue_sum([RootedPolynomial([0, 1])], sp.variable(0))
    cubic = sp.variable(0) * sp.variable(0) * sp.variable(0)
    with pytest.raises(ValueError, match="bound"):
        residue_sum([RootedPolynomial([0, 1]), RootedPolynomial([0, 1])], cubic)


def test_residue_sum_equals_coefficient_random():
    rng = random.Random(41)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        qs = [
            RootedPolynomial(rng.sample(range(-9, 10), rng.randint(2, 4)))
            for _ in range(nvars)
        ]
        degrees = tuple(q.degree - 1 for q in qs)
        f = random_polynomial(rng, x_space(nvars), sum(degrees), corner=degrees)
        assert residue_sum(qs, f) == f.coefficient_of(degrees)


def test_doubly_symmetric_sum_base_cases():
    sp = xy_space(1, 1)
    lams = (2, 5)
    assert doubly_symmetric_sum(sp.one(), lams, 1) == 0
    assert doubly_symmetric_sum(sp.variable(0), lams, 1) == 1
    assert doubly_symmetric_sum(sp.variable(1), lams, 1) == -1


def test_doubly_symmetric_sum_validation():
    sp = xy_space(2, 1)
    x1 = sp.variable(0)
    with pytest.raises(ValueError, match="doubly symmetric"):
        doubly_symmetric_sum(x1, (1, 2, 3), 2)
    sym = sp.variable(0) + sp.variable(1)
    with pytest.raises(ValueError, match="distinct"):
        doubly_symmetric_sum(sym, (1, 1, 3), 2)
    deep = sym
    for _ in range(3):
        deep = deep * sym
    with pytest.raises(ValueError, match="bound"):
        doubly_symmetric_sum(deep, (1, 2, 3), 2)


def test_d_coefficient_base_cases():
    sp = xy_space(1, 1)
    assert d_coefficient(sp.one(), 1, 2) == 0
    assert d_coefficient(sp.variable(0), 1, 2) == 1


def test_d_coefficient_matches_degree_example():
    # h_1(X) h_1(Y) for (m,n,r) = (2,3,2): target coefficient is -12
    sp = xy_space(2, 1)
    p = complete_homogeneous(pairwise_sum_forms(sp, range(2)), 1) * complete_homogeneous(
        pairwise_sum_forms(sp, range(2, 3)), 1
    )
    assert d_coefficient(p, 2, 3) == -12


def test_random_doubly_symmetric_properties():
    p1 = random_doubly_symmetric(2, 4, 3, seed=9)
    p2 = random_doubly_symmetric(2, 4, 3, seed=9)
    assert p1 == p2
    assert random_doubly_symmetric(2, 4, 3, seed=10) != p1
    assert is_doubly_symmetric(p1, 2)
    assert p1.total_degree() <= 4
    const = random_doubly_symmetric(1, 3, 0, seed=4)
    assert const.total_degree() <= 0
    with pytest.raises(ValueError):
        random_doubly_symmetric(2, 4, 5, seed=0)


def test_double_symmetry_at_the_block_edge():
    sp = xy_space(2, 2)
    x1, x2, y1, y2 = (sp.variable(i) for i in range(4))
    blockwise = x1 + x2 + 2 * y1 + 2 * y2
    assert is_doubly_symmetric(blockwise, 2)
    assert not is_symmetric(blockwise)
    assert not is_doubly_symmetric(x1 + x2 + y1 + 2 * y2, 2)


def test_subset_sum_matches_coefficient_random():
    rng = random.Random(17)
    for _ in range(15):
        r = rng.randint(1, 2)
        n = rng.randint(r + 1, 4)
        p = random_doubly_symmetric(r, n, rng.randint(0, r * (n - r)), seed=rng.randrange(10**6))
        rhs = Fraction(d_coefficient(p, r, n), factorial(r) * factorial(n - r))
        for seed in (1, 2):
            lams = tuple(rng.sample(range(-9, 10), n))
            assert doubly_symmetric_sum(p, lams, r) == rhs


def test_oracle_agrees_with_residue_algorithm():
    # the subset sum applied to h_ell(X) h_k(Y), scaled by (-1)^k, is delta
    for n in range(2, 5):
        for t in valid_triples(n):
            sp = xy_space(t.r, n - t.r)
            h_x = complete_homogeneous(pairwise_sum_forms(sp, range(t.r)), t.ell)
            h_y = complete_homogeneous(pairwise_sum_forms(sp, range(t.r, n)), t.k)
            p = h_x * h_y
            lams = tuple(range(1, n + 1))
            value = (-1) ** t.k * doubly_symmetric_sum(p, lams, t.r)
            assert value == delta_residue(t).delta, t
