"""Tests for the four degree algorithms and their dispatcher."""

import json
import random
import time
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpdeg.degree as degree_mod
import sdpdeg.polynomial as polynomial_mod
import sdpdeg.schur as schur_mod
from sdpdeg.degree import (
    METHODS,
    CrossCheckError,
    DegreeResult,
    InvalidTripleError,
    Method,
    PatakiBoundError,
    PatakiTriple,
    UnsupportedRankError,
    default_sample_points,
    delta,
    delta_closed,
    delta_psi_product,
    delta_residue,
    delta_theorem1,
    duality_partner,
    h_determinant,
    h_recurrence,
    pairwise_sums,
    psi_pfaffian,
    random_sample_points,
    valid_triples,
    validate_triple,
)
from sdpdeg.polynomial import SparsePolynomial
from sdpdeg.schur import psi


def test_validate_triple_examples():
    t = validate_triple(3, 4, 2)
    assert (t.k, t.ell) == (0, 4)
    with pytest.raises(PatakiBoundError, match="lower Pataki bound 3"):
        validate_triple(2, 4, 2)
    with pytest.raises(PatakiBoundError, match="upper Pataki bound 7"):
        validate_triple(8, 4, 2)
    for bad in (4.0, True, "4"):
        with pytest.raises(InvalidTripleError, match="n must be a positive integer"):
            validate_triple(3, bad, 2)


def test_validate_triple_rank_range():
    with pytest.raises(UnsupportedRankError):
        validate_triple(1, 4, 0)
    with pytest.raises(UnsupportedRankError):
        validate_triple(1, 4, 4)
    with pytest.raises(Exception):
        validate_triple(0, 4, 2)


def test_triple_slacks_sum_rule():
    for n in range(2, 7):
        for t in valid_triples(n):
            assert t.k >= 0 and t.ell >= 0
            assert t.k + t.ell == t.r * (n - t.r)


def test_triple_fields_are_m_n_r():
    assert [f.name for f in fields(PatakiTriple)] == ["m", "n", "r"]


def test_triple_accepts_exactly_the_valid_triples():
    for n in range(-1, 9):
        valid = set(valid_triples(n)) if n >= 2 else set()
        accepted = set()
        for r in range(-1, n + 2):
            for m in range(-1, comb(n + 1, 2) + 3):
                if m < 1 or n < 1:
                    expected = InvalidTripleError
                elif not 1 <= r <= n - 1:
                    expected = UnsupportedRankError
                else:
                    expected = PatakiBoundError
                try:
                    accepted.add(validate_triple(m, n, r))
                except InvalidTripleError as exc:
                    assert type(exc) is expected, (m, n, r, exc)
        assert accepted == valid, n


def test_triple_outside_the_window_is_rejected():
    with pytest.raises(PatakiBoundError, match="upper Pataki bound 7"):
        PatakiTriple(100, 4, 2)
    for m in (10, 3):
        with pytest.raises(UnsupportedRankError):
            PatakiTriple(m, 4, 0)


def test_equal_triples_hash_the_same():
    t = validate_triple(3, 4, 2)
    assert t == PatakiTriple(3, 4, 2)
    assert hash(t) == hash(PatakiTriple(3, 4, 2))
    assert len({t, PatakiTriple(3, 4, 2), duality_partner(duality_partner(t))}) == 1


def test_valid_triples_ordering_and_count():
    triples = valid_triples(4)
    assert [(t.r, t.m) for t in triples] == sorted((t.r, t.m) for t in triples)
    assert len(triples) == 13  # r=1: m 6..9, r=2: m 3..7, r=3: m 1..4
    for n in (1, 4.0, True, "4"):
        with pytest.raises(InvalidTripleError):
            valid_triples(n)


def test_duality_partner():
    t = validate_triple(3, 4, 2)
    p = duality_partner(t)
    assert (p.m, p.n, p.r) == (7, 4, 2)
    t2 = validate_triple(3, 3, 1)
    assert (duality_partner(t2).m, duality_partner(t2).r) == (3, 2)
    for n in range(2, 6):
        for t in valid_triples(n):
            back = duality_partner(duality_partner(t))
            assert (back.m, back.n, back.r) == (t.m, t.n, t.r)


def test_sample_points():
    assert default_sample_points(4) == (1, 2, 3, 4)
    pts = random_sample_points(5, seed=3)
    assert pts == random_sample_points(5, seed=3)
    assert len(set(pts)) == 5
    assert pts != random_sample_points(5, seed=4)


def test_pairwise_sums():
    assert pairwise_sums([1, 2]) == [2, 3, 4]
    assert pairwise_sums([5]) == [10]


def _h_by_enumeration(values, k):
    return sum(prod(c) for c in combinations_with_replacement(values, k)) if k else 1


def test_h_determinant_against_multiset_enumeration():
    rng = random.Random(2)
    for _ in range(30):
        values = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        for k in range(4):
            assert h_determinant(values, k) == _h_by_enumeration(values, k), (values, k)
    # zero e_1 exercises the Bareiss pivoting path
    assert h_determinant([-2, 0, 2], 2) == sum(
        a * b for a, b in [(-2, -2), (-2, 0), (-2, 2), (0, 0), (0, 2), (2, 2)]
    )
    with pytest.raises(ValueError, match="nonnegative"):
        h_determinant([1, 2], -1)


def test_h_recurrence_against_determinant_and_multiset_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        size = rng.randint(1, 4)
        ints = [rng.randint(-5, 5) for _ in range(size)]
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
        for values in (ints, fracs):
            for k in range(13):
                h = h_recurrence(values, k)
                assert h == h_determinant(values, k), (values, k)
                assert h == _h_by_enumeration(values, k), (values, k)
                if all(isinstance(v, int) for v in values):
                    assert isinstance(h, int), (values, k)
    for k in range(13):
        assert h_recurrence([], k) == h_determinant([], k) == (1 if k == 0 else 0)
    for values in ([1, 2], [], [Fraction(1, 2)]):
        with pytest.raises(ValueError, match="nonnegative"):
            h_recurrence(values, -1)


def test_residue_sum_runs_on_the_recurrence_only(monkeypatch):
    # Each subset costs exactly two series passes, with no e-values and no
    # determinant; its term joins one numerator, so integer points build a
    # Fraction only for the final division and its integrality check, and
    # integral points given as Fractions are summed as ints.
    def refuse(*args):
        raise AssertionError("the residue sum must not evaluate a determinant or e-values")

    calls = []
    kinds = set()
    fractions = []

    def counted(values, k):
        calls.append(k)
        kinds.update(map(type, values))
        return h_recurrence(values, k)

    def counted_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    monkeypatch.setattr(degree_mod, "h_determinant", refuse)
    monkeypatch.setattr(schur_mod, "bareiss_det", refuse)
    monkeypatch.setattr(degree_mod, "_elementary_values", refuse)
    monkeypatch.setattr(degree_mod, "h_recurrence", counted)
    monkeypatch.setattr(degree_mod, "Fraction", counted_fraction)
    pts = (Fraction(-3, 2), Fraction(1, 3), 2, Fraction(7, 5), 4, Fraction(-5, 7))
    for (m, n, r), points, expected in (
        ((9, 5, 2), None, 290),
        ((6, 5, 3), None, 290),
        ((10, 6, 3), None, 5184),
        ((10, 6, 3), random_sample_points(6, seed=5), 5184),
        ((10, 6, 3), pts, 5184),
        ((10, 6, 3), tuple(map(Fraction, random_sample_points(6, seed=5))), 5184),
        ((16, 7, 3), None, 99596),
    ):
        calls.clear()
        kinds.clear()
        fractions.clear()
        assert delta_residue(validate_triple(m, n, r), points).delta == expected
        assert len(calls) == 2 * comb(n, r), (m, n, r, points)
        if points is not pts:
            assert len(fractions) <= 2 and kinds == {int}, (m, n, r, points, kinds)


def _alternant(values):
    return prod(a - b for a, b in combinations(values, 2))


def test_residue_cofactor_is_the_vandermonde_over_the_cross_product():
    # the identity that lets delta_residue sum over one common denominator
    rng = random.Random(17)
    for n in range(2, 9):
        for seed in range(3):
            ints = random_sample_points(n, seed=seed)
            fracs = []
            while len(fracs) < n:
                value = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                if value not in fracs:
                    fracs.append(value)
            for pts in (ints, fracs):
                whole = _alternant(pts)
                for r in range(1, n):
                    for subset in combinations(range(n), r):
                        rest = [j for j in range(n) if j not in subset]
                        cross = prod(pts[i] - pts[j] for i in subset for j in rest)
                        cofactor = (
                            (-1) ** (sum(subset) - comb(r, 2))
                            * _alternant([pts[i] for i in subset])
                            * _alternant([pts[j] for j in rest])
                        )
                        assert cofactor == Fraction(whole) / cross, (pts, subset)


def _reference():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
    return {
        (row["m"], row["n"], row["r"]): int(row["delta"])
        for row in json.loads(path.read_text())["triples"]
    }


def test_residue_matches_the_reference_table():
    reference = _reference()
    triples = [t for n in range(2, 9) for t in valid_triples(n)]
    assert len(triples) == sum(1 for (m, n, r) in reference if n <= 8)
    for t in triples:
        assert delta_residue(t).delta == reference[(t.m, t.n, t.r)], t


def _rational_points(rng, n):
    # p/q in lowest terms, one for each q = 2..n+1: distinct denominators
    # make the points distinct
    return [
        Fraction(rng.choice([p for p in range(-3 * q, 3 * q + 1) if gcd(p, q) == 1]), q)
        for q in range(2, n + 2)
    ]


def test_residue_with_rational_points_matches_the_reference_table():
    reference = _reference()
    rng = random.Random(7)
    for t in (t for n in range(2, 8) for t in valid_triples(n)):
        points = _rational_points(rng, t.n)
        assert len(set(points)) == t.n
        assert delta_residue(t, points).delta == reference[(t.m, t.n, t.r)], (t, points)


def test_psi_pfaffian_equals_the_pascal_minor_sums():
    memo = psi_pfaffian(9)
    for size in range(6):
        for indices in combinations(range(9), size):
            mask = sum(1 << i for i in indices)
            assert memo(mask) == psi(indices), indices


def test_psi_product_matches_the_reference_table():
    reference = _reference()
    assert len(reference) == 366
    for (m, n, r), expected in reference.items():
        assert delta_psi_product(validate_triple(m, n, r)).delta == expected, (m, n, r)


def test_psi_product_matches_the_residue_sum_at_n_10():
    for t in valid_triples(10):
        assert delta_psi_product(t).delta == delta_residue(t).delta, t


def test_psi_product_matches_the_residue_sum_below_n_10():
    # the two routes that check each other under --check, on every triple
    # with n <= 9 at the default points and with n <= 7 at seeded ones
    for n in range(2, 10):
        for t in valid_triples(n):
            expected = delta_psi_product(t).delta
            assert expected == delta_residue(t).delta, t
            if n <= 7:
                points = random_sample_points(n, seed=100 * n + t.m)
                assert expected == delta_residue(t, points).delta, (t, points)


def test_theorem1_matches_the_reference_table():
    reference = _reference()
    for t in (t for n in range(2, 8) for t in valid_triples(n)):
        assert delta_theorem1(t).delta == reference[(t.m, t.n, t.r)], t


def _is_difference(p):
    # v_i - v_j: two terms of degree one with coefficients 1 and -1
    return sorted(p.terms.values()) == [-1, 1] and all(sum(e) == 1 for e in p.terms)


def test_theorem1_multiplies_within_one_block(monkeypatch):
    # The linear factors are summed over as one Vandermonde, never multiplied
    # in: every product lives in the ring of one h block, and no coefficient
    # of a product of the two blocks is read.
    def refuse(*args):
        raise AssertionError("theorem1 must not fold two blocks into one coefficient")

    mul = SparsePolynomial.mul
    arities = []

    def counted(self, other, cap=None):
        assert not _is_difference(self) and not _is_difference(other)
        arities.append(self.space.arity)
        return mul(self, other, cap)

    monkeypatch.setattr(SparsePolynomial, "mul", counted)
    for module in (polynomial_mod, degree_mod):
        monkeypatch.setattr(module, "product_coefficient", refuse, raising=False)
    for (m, n, r), expected in (
        ((2, 3, 2), 6),
        ((4, 4, 2), 30),
        ((9, 5, 2), 290),
        ((6, 5, 3), 290),
        ((10, 6, 3), 5184),
        ((16, 6, 1), 96),
        ((3, 5, 4), 40),
    ):
        arities.clear()
        assert delta_theorem1(validate_triple(m, n, r)).delta == expected
        assert arities and set(arities) <= {r, n - r}, (m, n, r, set(arities))


def test_theorem1_examples():
    assert delta_theorem1(validate_triple(2, 3, 2)).delta == 6
    assert delta_theorem1(validate_triple(3, 4, 2)).delta == 10
    assert delta_theorem1(validate_triple(4, 4, 2)).delta == 30
    assert delta_theorem1(validate_triple(25, 9, 4)).delta == 227546064
    assert delta_theorem1(validate_triple(27, 10, 5)).delta == 27161730960


def test_residue_examples():
    assert delta_residue(validate_triple(2, 3, 2), (1, 2, 3)).delta == 6
    assert delta_residue(validate_triple(7, 4, 2)).delta == 10  # ell = 0 boundary
    assert (
        delta_residue(validate_triple(2, 3, 2), (1, 2, 3)).delta
        == delta_residue(validate_triple(2, 3, 2), (2, 5, 11)).delta
    )


def test_residue_accepts_rational_points():
    pts = (Fraction(1, 2), Fraction(3, 2), 4)
    assert delta_residue(validate_triple(2, 3, 2), pts).delta == 6


def test_residue_point_validation():
    t = validate_triple(2, 3, 2)
    with pytest.raises(ValueError, match="distinct"):
        delta_residue(t, (1, 1, 2))
    with pytest.raises(ValueError, match="3 sample points"):
        delta_residue(t, (1, 2))
    with pytest.raises(TypeError, match="float"):
        delta_residue(t, (0.5, 1.5, 4.0))
    with pytest.raises(TypeError, match="bool"):
        delta_residue(t, (True, 2, 3))


def test_closed_examples():
    assert delta_closed(validate_triple(2, 3, 2)).delta == 6
    for n in range(2, 7):
        res = delta_closed(validate_triple(1, n, n - 1))
        assert res.delta == n
        assert res.method is Method.CLOSED_FORM
    r331 = delta_closed(validate_triple(3, 3, 1))
    assert r331.delta == 4
    partner_only = delta_closed(validate_triple(6, 4, 1))
    assert partner_only.delta == 8
    assert partner_only.method is Method.DUALITY_REDUCED
    assert delta_closed(validate_triple(6, 5, 3)) is None


def test_dispatcher_auto_and_check():
    auto = delta(validate_triple(4, 4, 2))
    assert (auto.delta, auto.method) == (30, Method.CLOSED_FORM)
    checked = delta(validate_triple(3, 4, 2), method="residue", cross_check=True)
    assert (checked.delta, checked.method) == (10, Method.RESIDUE)
    t1 = delta(validate_triple(2, 3, 2), method="theorem1", cross_check=True)
    assert (t1.delta, t1.method) == (6, Method.THEOREM1)


def test_dispatcher_duality_routing():
    # no closed form, r > n - r: auto runs the psi-product on the triple itself
    t = validate_triple(6, 5, 3)
    routed = delta(t)
    assert routed.method is Method.PSI_PRODUCT
    assert routed.triple == t
    assert routed.delta == delta_psi_product(t).delta == delta_residue(t).delta


def test_second_opinions(monkeypatch):
    # the psi-product and the residue sum check each other, the psi-product
    # also checks closed forms, and theorem1 runs only when requested
    ran = []
    for name in ("delta_residue", "delta_psi_product", "delta_theorem1"):
        kernel = getattr(degree_mod, name)

        def recorded(*args, _name=name, _kernel=kernel):
            ran.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(degree_mod, name, recorded)
    for (m, n, r), method, expected in (
        ((4, 4, 2), "auto", ["delta_psi_product"]),
        ((6, 5, 3), "auto", ["delta_psi_product", "delta_residue"]),
        ((6, 5, 3), "residue", ["delta_residue", "delta_psi_product"]),
        ((6, 5, 3), "theorem1", ["delta_theorem1", "delta_residue"]),
    ):
        ran.clear()
        delta(validate_triple(m, n, r), method, cross_check=True)
        assert ran == expected, (m, n, r, method)


def test_dispatcher_rejects_bad_method():
    t = validate_triple(6, 5, 3)
    with pytest.raises(ValueError, match="no closed form"):
        delta(t, method="closed")
    with pytest.raises(ValueError, match="unknown method"):
        delta(t, method="magic")


def test_methods_call_the_residue_kernel_on_the_module(monkeypatch):
    # auto and psi_product run the psi-product kernel, residue the residue
    # kernel, each looked up on the module at call time
    calls = []

    def fake(method):
        def kernel(t, points=None):
            calls.append((method, (t.m, t.n, t.r)))
            return DegreeResult(t, 1, method, 0.0)

        return kernel

    monkeypatch.setattr(degree_mod, "delta_residue", fake(Method.RESIDUE))
    monkeypatch.setattr(degree_mod, "delta_psi_product", fake(Method.PSI_PRODUCT))
    low_rank = validate_triple(9, 5, 2)  # no closed form, r <= n - r
    high_rank = validate_triple(6, 5, 3)  # no closed form, r > n - r
    assert delta(low_rank).delta == 1
    result = delta(high_rank)
    assert (result.delta, result.triple) == (1, high_rank)
    assert delta(high_rank, "residue").delta == 1
    assert delta(high_rank, "psi_product").delta == 1
    assert calls == [
        (Method.PSI_PRODUCT, (9, 5, 2)),
        (Method.PSI_PRODUCT, (6, 5, 3)),
        (Method.RESIDUE, (6, 5, 3)),
        (Method.PSI_PRODUCT, (6, 5, 3)),
    ]


def test_elapsed_covers_the_cross_check(monkeypatch):
    # the psi-product is the residue sum's second opinion
    t = validate_triple(10, 6, 3)
    value = delta_residue(t).delta

    def slow_psi_product(triple):
        time.sleep(0.05)
        return DegreeResult(triple, value, Method.PSI_PRODUCT, 0.05)

    monkeypatch.setattr(degree_mod, "delta_psi_product", slow_psi_product)
    assert delta(t, method="residue", cross_check=True).elapsed >= 0.05


def test_cross_check_raises_on_forced_disagreement(monkeypatch):
    import sdpdeg.degree as degree_mod

    t = validate_triple(3, 4, 2)
    good = delta_residue(t)
    fake = degree_mod.DegreeResult(t, good.delta + 1, Method.RESIDUE, 0.0)
    monkeypatch.setattr(degree_mod, "delta_residue", lambda *a, **k: fake)
    with pytest.raises(CrossCheckError) as err:
        delta(t, method="theorem1", cross_check=True)
    assert err.value.results[0].delta == 10
    assert err.value.results[1].delta == 11


def test_sign_convention_equivalence():
    # the same sum with the sign bookkeeping moved to the denominator side:
    # global (-1)^ell, each denominator carrying an extra (-1)^(r(n-r))
    for n in range(2, 5):
        for t in valid_triples(n):
            pts = default_sample_points(n)
            total = Fraction(0)
            for subset in combinations(range(n), t.r):
                rest = tuple(j for j in range(n) if j not in subset)
                a_ell = h_determinant(pairwise_sums([pts[i] for i in subset]), t.ell)
                a_k = h_determinant(pairwise_sums([pts[j] for j in rest]), t.k)
                signed_denom = (-1) ** (t.r * (n - t.r)) * prod(
                    pts[i] - pts[j] for i in subset for j in rest
                )
                total += Fraction(a_ell * a_k) / signed_denom
            value = (-1) ** t.ell * total
            assert value == delta_residue(t).delta, t


def test_method_agreement_small():
    for n in range(2, 5):
        for t in valid_triples(n):
            a = delta_theorem1(t).delta
            b = delta_residue(t).delta
            assert a == b == delta_psi_product(t).delta, t
            closed = delta_closed(t)
            if closed is not None:
                assert closed.delta == a, t


def test_results_carry_timing_and_method():
    t = validate_triple(2, 3, 2)
    res = delta(t, "residue")
    assert res.elapsed >= 0
    assert res.method is Method.RESIDUE
    assert isinstance(res.delta, int)
    # only delta reads the clock; a kernel called directly is not timed
    for kernel in (delta_residue, delta_psi_product, delta_theorem1, delta_closed):
        assert kernel(t).elapsed is None, kernel.__name__


@st.composite
def small_triples(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(1, n - 1))
    m = draw(st.integers(comb(n - r + 1, 2), comb(n + 1, 2) - comb(r + 1, 2)))
    return validate_triple(m, n, r)


@settings(max_examples=60, deadline=None)
@given(t=small_triples())
def test_methods_agree_under_cross_check(t):
    # theorem1 runs here as a method: n <= 5 keeps it quick
    expected = delta(t).delta
    for method in METHODS:
        if method == "closed" and delta_closed(t) is None:
            continue
        assert delta(t, method, cross_check=True).delta == expected, method


@settings(max_examples=60, deadline=None)
@given(t=small_triples(max_n=10), data=st.data())
def test_duality_and_sample_points_agree(t, data):
    expected = delta(t).delta
    assert delta(duality_partner(t)).delta == expected
    points = data.draw(st.lists(
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
        min_size=t.n, max_size=t.n, unique=True,
    ))
    assert delta_residue(t, points).delta == expected
