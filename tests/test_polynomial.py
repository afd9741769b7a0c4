"""Tests for the exact sparse polynomial kernel."""

import random
from fractions import Fraction

import pytest

from sdpdeg.checks import elementary_symmetric
from sdpdeg.polynomial import (
    SparsePolynomial,
    VariableSpace,
    complete_homogeneous,
    pairwise_sum_forms,
    product_coefficient,
    x_space,
    xy_space,
)


def _random_poly(rng, space, max_deg=3, nterms=5):
    terms = {}
    for _ in range(nterms):
        exponents = [0] * space.arity
        for _ in range(rng.randint(0, max_deg)):
            exponents[rng.randrange(space.arity)] += 1
        terms[tuple(exponents)] = terms.get(tuple(exponents), 0) + rng.randint(-4, 4)
    return SparsePolynomial(space, terms)


def test_space_validation():
    with pytest.raises(ValueError):
        VariableSpace([])
    with pytest.raises(ValueError):
        VariableSpace(["a", "a"])
    assert x_space(3).names == ("x1", "x2", "x3")
    assert xy_space(2, 1).names == ("x1", "x2", "y1")


def test_add_cancellation():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    assert (x1 + x2) + (x1 - x2) == 2 * x1


def test_add_identity_and_doubling():
    sp = x_space(2)
    x1 = sp.variable(0)
    p = x1 * x1 + 3 * sp.variable(1)
    assert p + sp.zero() == p
    assert (x1 * x1) + (x1 * x1) == 2 * (x1 * x1)


def test_add_space_mismatch():
    with pytest.raises(ValueError):
        x_space(2).variable(0) + x_space(3).variable(0)
    with pytest.raises(ValueError):
        x_space(2).variable(0).mul(xy_space(1, 1).variable(0))


def test_mul_linear_difference():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    got = (x1 - x2) * (x2 - x1)
    assert got == -(x1 * x1) + 2 * (x1 * x2) - x2 * x2


def test_mul_hand_expansion():
    # (x1+x2)^2 (x1-x2)^2 = (x1^2 - x2^2)^2
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    p = (x1 + x2).mul(x1 + x2).mul(x1 - x2).mul(x1 - x2)
    expected = SparsePolynomial(sp, {(4, 0): 1, (2, 2): -2, (0, 4): 1})
    assert p == expected


def test_coefficient_of():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    p = -(x1 * x1) + 2 * (x1 * x2) - x2 * x2
    assert p.coefficient_of((1, 1)) == 2
    assert (x1 + x2).coefficient_of((1, 1)) == 0
    h2 = SparsePolynomial(sp, {(2, 0): 7, (1, 1): 10, (0, 2): 7})
    assert h2.coefficient_of((2, 0)) == 7


def test_evaluate():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    assert (x1 * x2).evaluate((2, 3)) == 6
    assert (x1 - x2).evaluate((5, 5)) == 0
    h2 = SparsePolynomial(sp, {(2, 0): 7, (1, 1): 10, (0, 2): 7})
    assert h2.evaluate((1, 1)) == 24
    assert h2.evaluate((Fraction(1, 2), 1)) == Fraction(7, 4) + 5 + 7
    with pytest.raises(ValueError):
        h2.evaluate((1,))


def test_floats_rejected():
    sp = x_space(1)
    with pytest.raises(TypeError):
        SparsePolynomial(sp, {(1,): 0.5})
    with pytest.raises(TypeError):
        sp.variable(0).evaluate((0.5,))
    # exponents must be int, and bool is not
    for exponent in (1.0, True):
        with pytest.raises(ValueError, match="nonnegative integers"):
            SparsePolynomial(x_space(2), {(exponent, 0): 1})


def test_zero_polynomial():
    sp = x_space(2)
    zero = sp.zero()
    assert zero.total_degree() == float("-inf")
    assert zero.leading_monomial() is None
    assert not zero


def test_leading_monomial_graded_lex():
    sp = x_space(2)
    p = SparsePolynomial(sp, {(0, 3): 1, (2, 0): 1, (1, 2): 1})
    assert p.leading_monomial() == (1, 2)  # degree 3 beats degree 2, x1 breaks ties


def test_pairwise_sum_forms():
    sp1 = x_space(1)
    assert pairwise_sum_forms(sp1) == [2 * sp1.variable(0)]
    sp2 = x_space(2)
    x1, x2 = sp2.variable(0), sp2.variable(1)
    assert pairwise_sum_forms(sp2) == [2 * x1, x1 + x2, 2 * x2]
    assert len(pairwise_sum_forms(x_space(3))) == 6
    # sublist selection inside a larger space
    sp = xy_space(2, 2)
    y_forms = pairwise_sum_forms(sp, range(2, 4))
    assert y_forms[0] == 2 * sp.variable(2)
    assert len(y_forms) == 3


def test_complete_homogeneous_values():
    forms = pairwise_sum_forms(x_space(2))
    sp = forms[0].space
    assert complete_homogeneous(forms, 0) == sp.one()
    h2 = complete_homogeneous(forms, 2)
    assert h2 == SparsePolynomial(sp, {(2, 0): 7, (1, 1): 10, (0, 2): 7})
    assert complete_homogeneous(forms, 1) == SparsePolynomial(sp, {(1, 0): 3, (0, 1): 3})


def test_complete_homogeneous_matches_multiset_enumeration():
    # independent oracle: explicit sum over multisets
    from itertools import combinations_with_replacement

    rng = random.Random(5)
    random_forms = [_random_poly(rng, x_space(2), max_deg=1, nterms=2) for _ in range(4)]
    for forms in (random_forms, pairwise_sum_forms(x_space(2)), pairwise_sum_forms(x_space(3))):
        sp = forms[0].space
        for d in range(4):
            brute = sp.zero()
            for combo in combinations_with_replacement(forms, d):
                prod = sp.one()
                for f in combo:
                    prod = prod * f
                brute = brute + prod
            assert complete_homogeneous(forms, d) == brute, (len(forms), d)


def test_elementary_symmetric_values():
    forms = pairwise_sum_forms(x_space(2))
    sp = forms[0].space
    assert elementary_symmetric(forms, 0) == sp.one()
    e2 = elementary_symmetric(forms, 2)
    assert e2 == SparsePolynomial(sp, {(2, 0): 2, (1, 1): 8, (0, 2): 2})
    consts = [sp.constant(1), sp.constant(2), sp.constant(3)]
    assert elementary_symmetric(consts, 3) == sp.constant(6)
    assert not elementary_symmetric(consts, 4)


def test_ring_laws_on_random_samples():
    rng = random.Random(17)
    for arity in (2, 3, 4):
        sp = x_space(arity)
        for _ in range(20):
            a = _random_poly(rng, sp)
            b = _random_poly(rng, sp)
            c = _random_poly(rng, sp)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a


def test_newton_relation():
    # sum_{i=0}^{d} (-1)^i e_i h_{d-i} = 0 for d >= 1
    for nvars, nforms in ((2, 3), (3, 6)):
        forms = pairwise_sum_forms(x_space(nvars))[:nforms]
        sp = forms[0].space
        es = [elementary_symmetric(forms, i) for i in range(5)]
        hs = [complete_homogeneous(forms, i) for i in range(5)]
        for d in range(1, 5):
            acc = sp.zero()
            for i in range(d + 1):
                acc = acc + (-1) ** i * (es[i] * hs[d - i])
            assert not acc, (nvars, d)


def test_product_coefficient_pruning_soundness():
    rng = random.Random(31)
    sp = x_space(3)
    for _ in range(25):
        a = _random_poly(rng, sp)
        b = _random_poly(rng, sp)
        target = tuple(rng.randint(0, 4) for _ in range(3))
        # the definition sum_e a_e * b_(target - e), with no product formed
        expected = sum(
            c * b.coefficient_of(tuple(map(int.__sub__, target, e)))
            for e, c in a.terms.items() if all(map(int.__le__, e, target))
        )
        assert product_coefficient(a, b, target) == expected


def test_str_rendering():
    sp = x_space(2)
    x1, x2 = sp.variable(0), sp.variable(1)
    assert str(sp.zero()) == "0"
    assert str(2 * x1 - x2) == "2*x1 - x2"
    assert str(x1 * x1) == "x1^2"


@pytest.mark.parametrize("call, error", [
    (lambda: x_space(2).monomial((1,)), ValueError),
    (lambda: x_space(1).variable(1), IndexError),
    (lambda: x_space(0), ValueError),
    (lambda: xy_space(0, 1), ValueError),
    (lambda: product_coefficient(x_space(1).one(), x_space(2).one(), (0,)), ValueError),
    (lambda: pairwise_sum_forms(x_space(1), ()), ValueError),
    (lambda: complete_homogeneous([x_space(1).one()], -1), ValueError),
    (lambda: complete_homogeneous([], 0), ValueError),
], ids=("monomial", "variable", "x_space", "xy_space", "product_coefficient",
        "pairwise_sum_forms", "complete_homogeneous-d", "complete_homogeneous-forms"))
def test_input_checks_raise(call, error):
    # the smallest bad input of each check
    with pytest.raises(error):
        call()
