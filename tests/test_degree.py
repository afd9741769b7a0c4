"""Tests for the four degree algorithms and their dispatcher."""

import gc
import json
import random
import time
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpdeg.degree as degree_mod
import sdpdeg.schur as schur_mod
import sdpdeg.theorem1 as theorem1_mod
from sdpdeg.degree import (
    METHODS,
    ConsistencyError,
    CrossCheckError,
    DegreeResult,
    InvalidTripleError,
    Method,
    PatakiBoundError,
    PatakiTriple,
    UnsupportedRankError,
    delta,
    delta_closed,
    delta_psi_product,
    delta_residue,
    delta_table,
    delta_theorem1,
    duality_partner,
    h_determinant,
    psi_pfaffian,
    random_sample_points,
    valid_triples,
    validate_triple,
)
from sdpdeg.checks import pairwise_sums
from sdpdeg.polynomial import (
    SparsePolynomial,
    complete_homogeneous,
    pairwise_sum_forms,
    x_space,
)
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


def test_triple_and_result_are_frozen_dataclasses():
    # neither a field nor a slack can be assigned or deleted, replace()
    # validates the new triple, and repr is the dataclass's
    t = validate_triple(3, 4, 2)
    result = delta(t)
    for obj, names in ((t, ("m", "k", "ell")), (result, ("delta", "elapsed"))):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 5)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
    assert (t.m, t.k, t.ell, result.delta) == (3, 0, 4, 10)
    assert [f.name for f in fields(DegreeResult)] == ["triple", "delta", "method", "elapsed"]
    moved = replace(t, m=5)
    assert (moved, moved.k, moved.ell) == (PatakiTriple(5, 4, 2), 2, 2)
    with pytest.raises(PatakiBoundError, match=r"m=8 above the upper Pataki bound 7"):
        replace(t, m=8)
    with pytest.raises(InvalidTripleError, match="m must be a positive integer, got True"):
        replace(t, m=True)
    wrong = replace(result, delta=11)
    assert (wrong.triple, wrong.delta, wrong.method, wrong.elapsed) == (
        t, 11, result.method, result.elapsed)
    assert repr(t) == "PatakiTriple(m=3, n=4, r=2)"
    assert repr(DegreeResult(t, 10, Method.RESIDUE)) == (
        "DegreeResult(triple=PatakiTriple(m=3, n=4, r=2), delta=10, "
        "method=<Method.RESIDUE: 'residue'>, elapsed=None)"
    )
    assert DegreeResult(t, 10, Method.RESIDUE) == DegreeResult(t, 10, Method.RESIDUE, None)


def test_triple_checks_every_entry(monkeypatch):
    # every entry goes through _check_int, exact ints too; a bool, a float or
    # a string fails it, and an int subclass passes with the same errors as ever
    class Count(int):
        pass

    checked = []
    check_int = degree_mod._check_int
    monkeypatch.setattr(
        degree_mod, "_check_int", lambda name, value: checked.append(name) or check_int(name, value)
    )
    assert PatakiTriple(3, 4, 2).k == 0 and checked == ["m", "n", "r"]
    for args, error, message in (
        ((True, 4, 2), InvalidTripleError, "m must be a positive integer, got True"),
        ((3, True, 2), InvalidTripleError, "n must be a positive integer, got True"),
        ((3, 4, 2.0), InvalidTripleError, "r must be a positive integer, got 2.0"),
        (("3", 4, 2), InvalidTripleError, "m must be a positive integer, got '3'"),
        ((Count(2), 4, 2), PatakiBoundError, "m=2 below the lower Pataki bound 3 for (n=4, r=2)"),
        ((3, 4, Count(0)), UnsupportedRankError, "rank r=0 outside the supported range [1, 3]"),
    ):
        with pytest.raises(InvalidTripleError) as err:
            PatakiTriple(*args)
        assert (type(err.value), str(err.value)) == (error, message), args
    checked.clear()
    t = PatakiTriple(Count(3), 4, 2)
    assert checked == ["m", "n", "r"]
    assert (t, hash(t), t.k, t.ell) == (PatakiTriple(3, 4, 2), hash(PatakiTriple(3, 4, 2)), 0, 4)


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
    assert degree_mod._sample_points(4, None) == (1, 2, 3, 4)
    pts = random_sample_points(5, seed=3)
    assert pts == random_sample_points(5, seed=3)
    assert len(set(pts)) == 5
    assert pts != random_sample_points(5, seed=4)
    # 2 * spread + 1 integers lie in [-spread, spread]: n may reach that, not pass it.
    assert sorted(random_sample_points(5, seed=0, spread=2)) == [-2, -1, 0, 1, 2]
    with pytest.raises(ValueError, match="spread too small"):
        random_sample_points(4, seed=0, spread=1)


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


def test_push_against_determinant_and_multiset_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        size = rng.randint(1, 4)
        ints = [rng.randint(-5, 5) for _ in range(size)]
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
        for values in (ints, fracs):
            for k in range(13):
                h = degree_mod._push([1] + [0] * k, values)[k]
                assert h == h_determinant(values, k), (values, k)
                assert h == _h_by_enumeration(values, k), (values, k)
                if all(isinstance(v, int) for v in values):
                    assert isinstance(h, int), (values, k)
    for k in range(13):
        h = degree_mod._push([1] + [0] * k, [])[k]
        assert h == h_determinant([], k) == (1 if k == 0 else 0)


def test_residue_sum_runs_on_the_recurrence_only(monkeypatch):
    # The walk pushes each pairwise sum into its side's series once per
    # prefix, exactly the multiply-adds `_walk_pushes` counts, with no
    # e-values and no determinant; integral points, given as ints or as
    # Fractions, keep every pushed value and series entry an int.
    def refuse(*args):
        raise AssertionError("the residue sum must not evaluate a determinant or e-values")

    pushes = []
    kinds = set()
    push = degree_mod._push

    def counted(h, values):
        pushes.append(len(values) * (len(h) - 1))
        kinds.update(map(type, h))
        kinds.update(map(type, values))
        return push(h, values)

    monkeypatch.setattr(degree_mod, "h_determinant", refuse)
    monkeypatch.setattr(schur_mod, "bareiss_det", refuse)
    monkeypatch.setattr(degree_mod, "_push", counted)
    pts = (Fraction(-3, 2), Fraction(1, 3), 2, Fraction(7, 5), 4, Fraction(-5, 7))
    for (m, n, r), points, expected in (
        ((9, 5, 2), None, 290),
        ((6, 5, 3), None, 290),
        ((10, 6, 3), None, 5184),
        ((10, 6, 3), random_sample_points(6, seed=5), 5184),
        ((10, 6, 3), pts, 5184),
        ((10, 6, 3), tuple(map(Fraction, random_sample_points(6, seed=5))), 5184),
        ((16, 7, 3), None, 99596),
        ((7, 4, 2), None, 10),
        ((6, 12, 10), None, 227370),
    ):
        pushes.clear()
        kinds.clear()
        t = validate_triple(m, n, r)
        assert delta_residue(t, points).delta == expected
        assert sum(pushes) == degree_mod._walk_pushes(n, r, t.ell, t.k), (m, n, r, points)
        if points is not pts:
            assert kinds == {int}, (m, n, r, points, kinds)


def test_walk_pushes_counts_the_multiply_adds_of_real_walks(monkeypatch):
    # `_walk_pushes` is a closed form; the multiply-adds that reach `_push`
    # must equal it on every walk a residue table runs (uncapped, n <= 9),
    # on the same walks at seeded rational points, and on every row of
    # n = 7 as a single value (capped at ell and k), at both kinds of point
    pushes, walks = [], []
    push, residue_walk = degree_mod._push, degree_mod._residue_walk

    def counted_push(h, values):
        pushes.append(len(values) * (len(h) - 1))
        return push(h, values)

    def counted_walk(pts, r, ells):
        pushes.clear()
        sums = residue_walk(pts, r, ells)
        walks.append((len(pts), r, sum(pushes)))
        return sums

    monkeypatch.setattr(degree_mod, "_push", counted_push)
    monkeypatch.setattr(degree_mod, "_residue_walk", counted_walk)
    rng = random.Random(43)
    for n in range(2, 10):
        walks.clear()
        delta_table(n, "residue")
        assert [r for _, r, _ in walks] == list(range(1, n // 2 + 1)), n
        points = _rational_points(rng, n)
        for r in range(1, n // 2 + 1):
            counted_walk(points, r, range(r * (n - r) + 1))
        for size, r, count in walks:
            slack = r * (n - r)
            assert count == degree_mod._walk_pushes(size, r, slack, slack), (n, r)
    walks.clear()
    rows = valid_triples(7)
    for points in (None, _rational_points(rng, 7)):
        for t in rows:
            delta_residue(t, points)
    assert len(walks) == 2 * len(rows)
    for t, (size, r, count) in zip(rows + rows, walks):
        assert (size, r) == (7, t.r)
        assert count == degree_mod._walk_pushes(7, t.r, t.ell, t.k), t


def _oracle_numerators(pts, r):
    # sums[l] of (-1)^sum(I) a(I) a(I^c) h_l(Lambda_I) h_{L-l}(Lambda_{I^c})
    # over the r-subsets I, every h a determinant in the e-values.  Every
    # term is homogeneous of degree C(r,2) + C(n-r,2) + L in the points, so
    # rational points are scaled to integers by their common denominator D
    # and the sums divided by D to that power.
    n = len(pts)
    total = r * (n - r)
    scale = lcm(*(Fraction(p).denominator for p in pts))
    ints = [int(p * scale) for p in pts]
    sums = [0] * (total + 1)
    for subset in combinations(range(n), r):
        rest = [j for j in range(n) if j not in subset]
        xs, ys = [ints[i] for i in subset], [ints[j] for j in rest]
        w = (-1) ** sum(subset) * _alternant(xs) * _alternant(ys)
        lx, ly = pairwise_sums(xs), pairwise_sums(ys)
        for ell in range(total + 1):
            sums[ell] += w * h_determinant(lx, ell) * h_determinant(ly, total - ell)
    power = scale ** (comb(r, 2) + comb(n - r, 2) + total)
    return [Fraction(x, power) for x in sums]


def test_residue_walk_equals_the_per_subset_sum():
    # on every (n, r) with n <= 8, at integer, rational and integral
    # Fraction points: the uncapped walk of a table on every ell at once,
    # and the walk of each single value capped at its own ell and k (at
    # Fraction points up to n = 7, where the capped walks stay quick; the
    # caps do not depend on the type of the points)
    rng = random.Random(23)
    for n in range(2, 9):
        ints = random_sample_points(n, seed=n)
        oracle = {}  # the integral Fraction points hit the entries of ints
        for pts in (ints, tuple(_rational_points(rng, n)), tuple(map(Fraction, ints))):
            for r in range(1, n):
                total = r * (n - r)
                if (pts, r) not in oracle:
                    oracle[pts, r] = _oracle_numerators(pts, r)
                expected = oracle[pts, r]
                assert degree_mod._residue_walk(pts, r, range(total + 1)) == expected, (pts, r)
                if n == 8 and pts is not ints:
                    continue
                for ell in range(total + 1):
                    capped = degree_mod._residue_walk(pts, r, (ell,))
                    assert capped[ell] == expected[ell], (pts, r, ell)


def _alternant(values):
    return prod(a - b for a, b in combinations(values, 2))


def test_residue_walk_of_rank_n_minus_r_is_rank_r_reversed():
    # each r-subset I and its complement give one term of each rank, with the
    # h series swapped and the sign times (-1)^C(n,2): the uncapped numerators
    # of rank n - r are rank r's, reversed, times (-1)^C(n,2), up to n = 10 at
    # the default points and at seeded halves of odd integers, which keep the
    # Fraction walks quick
    rng = random.Random(41)
    for n in range(2, 11):
        halves = tuple(Fraction(p, 2) for p in rng.sample(range(-31, 32, 2), n))
        for pts in (degree_mod._sample_points(n, None), halves):
            for r in range(1, n // 2 + 1):
                ells = range(r * (n - r) + 1)
                low = degree_mod._residue_walk(pts, r, ells)
                high = degree_mod._residue_walk(pts, n - r, ells)
                assert high == [(-1) ** comb(n, 2) * s for s in reversed(low)], (n, r, pts)


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
    # on every mask of {0..8}
    memo = psi_pfaffian(9)
    for size in range(10):
        for indices in combinations(range(9), size):
            mask = sum(1 << i for i in indices)
            assert memo[mask] == psi(indices), indices


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
    for t in (t for n in range(2, 9) for t in valid_triples(n)):
        assert delta_theorem1(t).delta == reference[(t.m, t.n, t.r)], t


def test_pair_sum_h_is_complete_homogeneous_truncated_at_the_cap():
    for r in range(1, 6):
        forms = pairwise_sum_forms(x_space(r))
        for d in range(7):
            full = complete_homogeneous(forms, d).terms
            # all zeros, all twos, all d, and theorem1's targets for r as
            # either block of every n up to 8
            caps = {(0,) * r, (2,) * r, (d,) * r}
            caps.update(tuple(range(n - r, n)) for n in range(r + 1, 9))
            for cap in caps:
                truncated = {
                    e: c for e, c in full.items() if all(map(int.__le__, e, cap))
                }
                assert theorem1_mod._pair_sum_h(d, cap) == truncated, (r, d, cap)


def test_theorem1_multiplies_within_one_block(monkeypatch):
    # Each h block is built once, in its own variables and capped at its own
    # target, and no sparse polynomial is multiplied: the linear factors are
    # summed over as one Vandermonde, never multiplied in.
    def refuse(*args):
        raise AssertionError("theorem1 must not multiply sparse polynomials")

    monkeypatch.setattr(SparsePolynomial, "mul", refuse)
    pair_sum_h = theorem1_mod._pair_sum_h
    calls = []

    def counted(d, cap):
        calls.append((len(cap), d, tuple(cap)))
        return pair_sum_h(d, cap)

    monkeypatch.setattr(theorem1_mod, "_pair_sum_h", counted)
    for (m, n, r), expected in (
        ((2, 3, 2), 6),
        ((4, 4, 2), 30),
        ((9, 5, 2), 290),
        ((6, 5, 3), 290),
        ((10, 6, 3), 5184),
        ((16, 6, 1), 96),
        ((3, 5, 4), 40),
    ):
        calls.clear()
        t = validate_triple(m, n, r)
        assert delta_theorem1(t).delta == expected
        tx, ty = tuple(range(n - r, n)), tuple(range(r, n))
        assert sorted(calls) == sorted([(r, t.ell, tx), (n - r, t.k, ty)]), (t, calls)


def test_theorem1_blocks_are_psi_at_the_reflected_sets():
    # Each entry of theorem1's two block maps is a psi value: the entry at
    # the exponent set S is psi at {n-1-i : i in S}.  This is the Theorem 1
    # => psi-product bridge term by term, so errors that cancel in the sum
    # still show.
    for n in range(2, 8):
        memo = psi_pfaffian(n)
        for t in valid_triples(n):
            r = t.r
            for v, d, target in ((r, t.ell, range(n - r, n)), (n - r, t.k, range(r, n))):
                block = theorem1_mod._by_exponent_set(d, tuple(target))
                assert block, (t, v)
                for mask, value in block.items():
                    reflected = sum(1 << (n - 1 - i) for i in range(n) if mask >> i & 1)
                    assert value == memo[reflected], (t, v, bin(mask))


def test_theorem1_examples():
    assert delta_theorem1(validate_triple(2, 3, 2)).delta == 6
    assert delta_theorem1(validate_triple(3, 4, 2)).delta == 10
    assert delta_theorem1(validate_triple(4, 4, 2)).delta == 30
    assert delta_theorem1(validate_triple(25, 9, 4)).delta == 227546064
    assert delta_theorem1(validate_triple(27, 10, 5)).delta == 27161730960
    assert delta_theorem1(validate_triple(45, 10, 1)).delta == 512


def test_residue_examples():
    assert delta_residue(validate_triple(2, 3, 2), (1, 2, 3)).delta == 6
    assert delta_residue(validate_triple(7, 4, 2)).delta == 10  # ell = 0 boundary
    assert (
        delta_residue(validate_triple(2, 3, 2), (1, 2, 3)).delta
        == delta_residue(validate_triple(2, 3, 2), (2, 5, 11)).delta
    )


def test_residue_narrow_row():
    # r = n - 2, far from a closed form: 435 subsets, the I series capped
    # at ell = 53 and the I^c series at k = 3
    assert delta_residue(validate_triple(6, 30, 28)).delta == 86088240


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


def test_integrality_guard_rejects_a_non_positive_value(monkeypatch):
    # A closed form faked to give 0 at r = n - 1 must not come back as delta.
    real = degree_mod._closed_pattern
    monkeypatch.setattr(
        degree_mod, "_closed_pattern", lambda m, n, r: 0 if r == n - 1 else real(m, n, r)
    )
    expected = r"closed_form on PatakiTriple\(m=3, n=4, r=3\): non-positive value 0$"
    with pytest.raises(ConsistencyError, match=expected):
        delta_closed(validate_triple(3, 4, 3))


def test_integrality_guard_rejects_a_non_integral_value(monkeypatch):
    # The top h value of the walk's first push, off by one, reaches every
    # subset holding index 0 and makes the residue numerator miss a multiple
    # of a([n]).
    calls = []
    push = degree_mod._push

    def off_once(h, values):
        calls.append(values)
        out = push(h, values)
        if len(calls) == 1:
            out[-1] += 1
        return out

    monkeypatch.setattr(degree_mod, "_push", off_once)
    expected = r"residue sum on PatakiTriple\(m=6, n=5, r=3\): non-integral value 1685/6$"
    with pytest.raises(ConsistencyError, match=expected):
        delta_residue(validate_triple(6, 5, 3))


def test_integrality_guard_rejects_a_non_integral_value_at_rational_points(monkeypatch):
    # The same fault at rational points: numerator and a([n]) are Fractions,
    # and the one divmod of `_residue_delta` finds the remainder all the same.
    points = (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 4), Fraction(7, 6))
    t = validate_triple(6, 5, 3)
    exact = delta_residue(t, points).delta
    assert (exact, type(exact)) == (290, int)
    calls = []
    push = degree_mod._push

    def off_once(h, values):
        calls.append(values)
        out = push(h, values)
        if len(calls) == 1:
            out[-1] += 1
        return out

    monkeypatch.setattr(degree_mod, "_push", off_once)
    expected = r"residue sum on PatakiTriple\(m=6, n=5, r=3\): non-integral value 2396/7$"
    with pytest.raises(ConsistencyError, match=expected):
        delta_residue(t, points)


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


def test_closed_form_reads_the_dual_by_arithmetic(monkeypatch):
    # the partner's pattern is tried on its values; no partner triple is built
    triples = [t for n in range(2, 9) for t in valid_triples(n)]
    expected = {}
    for t in triples:
        candidates = ((Method.CLOSED_FORM, t), (Method.DUALITY_REDUCED, duality_partner(t)))
        for method, source in candidates:
            value = degree_mod._closed_pattern(source.m, source.n, source.r)
            if value is not None:
                expected[t] = (value, method)
                break

    def refuse(t):
        raise AssertionError(f"duality_partner built for {t}")

    monkeypatch.setattr(degree_mod, "duality_partner", refuse)
    for t in triples:
        result = delta_closed(t)
        assert (result and (result.delta, result.method)) == expected.get(t), t


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


def test_a_value_calls_delta_closed_once_under_auto_and_closed(monkeypatch):
    # delta_closed is looked up on the module, where the benchmark traces it:
    # a value calls it exactly once under auto and closed, checked or not,
    # with or without a closed form, and never under the other methods
    calls = []
    real = degree_mod.delta_closed
    monkeypatch.setattr(degree_mod, "delta_closed", lambda t: calls.append(t) or real(t))
    for t in (validate_triple(3, 4, 2), validate_triple(6, 5, 3)):
        for method in METHODS:
            for cross_check in (False, True):
                calls.clear()
                if method == "closed" and real(t) is None:
                    with pytest.raises(ValueError, match="no closed form"):
                        delta(t, method, cross_check)
                else:
                    delta(t, method, cross_check)
                expected = [t] if method in ("auto", "closed") else []
                assert calls == expected, (t, method, cross_check)


def test_dispatcher_rejects_bad_method():
    t = validate_triple(6, 5, 3)
    with pytest.raises(ValueError, match="no closed form"):
        delta(t, method="closed")
    with pytest.raises(ValueError, match="unknown method"):
        delta(t, method="magic")


def test_delta_table_is_delta_row_by_row():
    def rows(results):
        return [(res.triple, res.delta, res.method) for res in results]

    # a table's psi-product rows are read off one sweep, a value sums its own
    # ell only: the two sums are compared up to n = 12
    runs = [(n, method, cross_check) for n in range(2, 9)
            for method in ("auto", "residue", "psi_product") for cross_check in (False, True)]
    runs += [(n, "theorem1", cross_check) for n in range(2, 8) for cross_check in (False, True)]
    runs += [(n, method, False) for n in range(9, 13) for method in ("auto", "psi_product")]
    for n, method, cross_check in runs:
        expected = [delta(t, method, cross_check) for t in valid_triples(n)]
        assert rows(delta_table(n, method, cross_check)) == rows(expected), (n, method)


def test_residue_table_equals_the_psi_sweep():
    # every row of a residue table, read off one walk per rank, against the
    # psi-product's sums, on every triple up to n = 12
    for n in range(2, 13):
        sums = degree_mod._psi_sweep(n)
        for row in delta_table(n, "residue"):
            t = row.triple
            assert row.method is Method.RESIDUE
            assert row.delta == sums[t.r][t.ell + comb(t.r, 2)], t


def _gaussian_binomials_at_minus_one(n):
    # [n choose r] at q = -1 for r = 0..n, by the q-Pascal rule
    # [n choose r] = [n-1 choose r-1] + q^r [n-1 choose r]
    row = [1]
    for size in range(1, n + 1):
        row = [(row[r - 1] if r else 0) + (-1) ** r * (row[r] if r < size else 0)
               for r in range(size + 1)]
    return row


def test_rank_checksums_are_gaussian_binomials_at_minus_one():
    # sum over a rank of (-1)^ell delta is [n choose r] at q = -1, which is
    # C(n//2, r//2), or 0 at even n and odd r: on every rank of the psi sweep
    # up to n = 14, and of a residue table up to n = 10
    for n in range(2, 15):
        expected = _gaussian_binomials_at_minus_one(n)
        assert expected == [0 if r % 2 > n % 2 else comb(n // 2, r // 2) for r in range(n + 1)]
        sums = degree_mod._psi_sweep(n)
        for r in range(1, n):
            found = sum((-1) ** ell * sums[r][ell + comb(r, 2)] for ell in range(r * (n - r) + 1))
            assert found == expected[r], (n, r)
        if n <= 10:
            found = [0] * n
            for row in delta_table(n, "residue"):
                found[row.triple.r] += (-1) ** row.triple.ell * row.delta
            assert found[1:] == expected[1:n], n


def test_delta_table_walks_once_per_rank(monkeypatch):
    # a table's residue rows, as the method or as the checker, share one
    # uncapped walk per pair of ranks r <= n - r, which rank n - r reads
    # reversed: one walk for each rank r <= n - r when every row runs the
    # residue sum, and one for each such rank from 2 under auto, where the
    # psi-product checks the closed forms that fill ranks 1 and n - 1; no
    # other rank walks
    walks = []
    walk = degree_mod._residue_walk

    def counted(pts, r, ells):
        walks.append((r, list(ells)))
        return walk(pts, r, ells)

    monkeypatch.setattr(degree_mod, "_residue_walk", counted)
    runs = [(method, True) for method in ("auto", "psi_product", "residue")]
    runs += [("residue", False)]
    for n in range(2, 11):
        for method, cross_check in runs + [("theorem1", True)] * (n <= 7):
            walks.clear()
            delta_table(n, method, cross_check)
            ranks = range(2 if method == "auto" else 1, n // 2 + 1)
            expected = [(r, list(range(r * (n - r) + 1))) for r in ranks]
            assert walks == expected, (n, method, cross_check)


def test_residue_table_computes_the_alternant_once_per_walk(monkeypatch):
    # a([n]) at the default points is computed with each pair of ranks' walk
    # and read by every row of both ranks; a value computes its own once
    counts = {"_residue_walk": 0, "_alternant": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(degree_mod, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(degree_mod, name, counted)
    for n in range(2, 10):
        for method, cross_check in (("residue", False), ("residue", True), ("auto", True)):
            counts.update(dict.fromkeys(counts, 0))
            delta_table(n, method, cross_check)
            # auto checks ranks 1 and n - 1, all closed forms, by the psi-product
            walked = len(range(2 if method == "auto" else 1, n // 2 + 1))
            assert counts == {"_residue_walk": walked, "_alternant": walked}, (n, method)
    for t in valid_triples(6):
        counts.update(dict.fromkeys(counts, 0))
        delta_residue(t)
        assert counts == {"_residue_walk": 1, "_alternant": 1}, t


def test_oversized_table_fails_on_its_first_sweep_rank_by_rank(monkeypatch):
    # table 300's psi sweep cannot be allocated; rank 1 is all closed forms,
    # so the first row of rank 2 runs the sweep, before rank 3 is listed
    built = []
    real = degree_mod._rank_triples
    monkeypatch.setattr(degree_mod, "_rank_triples", lambda n, r: built.append(r) or real(n, r))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(OverflowError):
            delta_table(300)
    assert time.perf_counter() - start < 1
    assert built == [1, 2]


def test_psi_sweep_too_large_to_hold_fails_before_its_triangle(monkeypatch):
    # The sweep allocates its 2^(n-1) psi values before the Pascal triangle of
    # about n^2/2 integers, so a table too large to sweep fails at once.
    def refuse(n):
        raise AssertionError("the triangle was built before the sweep's lists")

    monkeypatch.setattr(degree_mod, "_pascal_pairs", refuse)
    with pytest.raises(OverflowError):
        degree_mod._psi_sweep(5000)


def test_delta_table_matches_the_reference_table():
    reference = _reference()
    for n in range(2, 10):
        table = delta_table(n)
        assert len(table) == sum(1 for (m, n_ref, r) in reference if n_ref == n), n
        for res in table:
            t = res.triple
            assert res.delta == reference[(t.m, t.n, t.r)], t


def test_delta_table_rejects_an_unknown_method_before_any_row(monkeypatch):
    ran = []
    for name in ("_closed_pattern", "_psi_sweep", "_residue_walk", "delta_closed",
                 "delta_psi_product", "delta_residue", "delta_theorem1"):
        monkeypatch.setattr(degree_mod, name, lambda *a, **k: ran.append(a))
    with pytest.raises(ValueError, match="unknown method"):
        delta_table(5, "magic")
    # before n and sample points are checked, too
    with pytest.raises(ValueError, match="unknown method"):
        delta_table(1, "magic")
    with pytest.raises(ValueError, match="unknown method"):
        delta(validate_triple(6, 5, 3), "magic", points=(1, 1))
    assert ran == []


def test_delta_table_estimates_each_planned_method_once(monkeypatch):
    # a value estimates each route of its plan once; a table estimates its
    # psi sweep once and the residue walk of each rank r <= n - r that walks
    # once, so neither estimate grows with the number of rows.  Under auto,
    # ranks 1 and n - 1 hold only closed forms and estimate one each.
    calls = []
    for route in (degree_mod._CLOSED, degree_mod._PSI, degree_mod._RESIDUE, degree_mod._THEOREM1):
        def counted(*args, _method=route.method, _cost=route.cost):
            calls.append(_method)
            return _cost(*args)

        monkeypatch.setattr(route, "cost", counted)
    closed, psi, res = Method.CLOSED_FORM, Method.PSI_PRODUCT, Method.RESIDUE
    for n in (5, 9):
        for method, cross_check, expected in (
            ("auto", False, {closed: 2, psi: 1}),
            ("auto", True, {closed: 2, psi: 1, res: n // 2 - 1}),
            ("psi_product", False, {psi: 1}),
            ("psi_product", True, {psi: 1, res: n // 2}),
            ("residue", False, {res: n // 2}),
            ("residue", True, {psi: 1, res: n // 2}),
        ):
            calls.clear()
            delta_table(n, method, cross_check)
            assert Counter(calls) == expected, (n, method, cross_check)
    for cross_check in (False, True):
        calls.clear()
        delta(validate_triple(6, 5, 3), cross_check=cross_check)
        assert calls == [psi, res][:1 + cross_check], cross_check


def test_table_estimate_is_the_sum_of_its_row_estimates():
    # delta_table estimates from (n, method, cross_check) alone; row by row,
    # each row with a closed form plans one, the psi sweep is charged to the
    # first row that runs the psi-product, the walk of ranks r and n - r to
    # the first row of rank r <= n - r that runs the residue sum, theorem1 to
    # every row.  A closed rank is one whose every row has a closed form.
    closed, psi, res, t1 = (degree_mod._CLOSED, degree_mod._PSI, degree_mod._RESIDUE,
                            degree_mod._THEOREM1)
    plans = {"auto": (psi, res), "psi_product": (psi, res), "residue": (res, psi),
             "theorem1": (t1, res), "closed": (closed, psi)}
    for n in range(2, 13):
        ranks = {}
        for t in valid_triples(n):
            ranks.setdefault(t.r, []).append(t)
        for r, rows in ranks.items():
            assert degree_mod._closed_rank(n, r) == all(map(delta_closed, rows)), (n, r)
        for method in plans if n <= 3 else set(plans) - {"closed"}:
            for cross_check in (False, True):
                total, charged = 0, set()
                for t in valid_triples(n):
                    planned = method in ("auto", "closed") and delta_closed(t)
                    plan = plans["closed" if planned else method][:1 + cross_check]
                    slack = t.r * (n - t.r)
                    for p in plan:
                        key = p.name, p is res and min(t.r, n - t.r)
                        if p is t1:
                            total += p.cost(n, t.r, t.k, t.ell, False)
                        elif p is not closed and key not in charged:
                            charged.add(key)
                            total += p.cost(n, t.r, slack, slack, True)
                estimate = degree_mod._table_cost_ns(n, method, cross_check)
                assert estimate == total, (n, method, cross_check)


def _counted_memos(monkeypatch):
    # every psi_pfaffian memo built from now on; a memo holds exactly the
    # masks it expanded
    memos = []
    psi_pfaffian_real = degree_mod.psi_pfaffian

    def counted(n):
        memos.append(psi_pfaffian_real(n))
        return memos[-1]

    monkeypatch.setattr(degree_mod, "psi_pfaffian", counted)
    return memos


def _counted_expansions(monkeypatch):
    # every mask expanded from now on, with the container it was expanded
    # into; the containers are kept alive, so each is a distinct object
    expanded = []
    expand_real = degree_mod._psi_expand

    def counted(mask, psi, pairs):
        expanded.append((mask, psi))
        return expand_real(mask, psi, pairs)

    monkeypatch.setattr(degree_mod, "_psi_expand", counted)
    return expanded


def _sweeps(expanded):
    # the distinct containers in order of first use, each with its masks
    sweeps = []
    for mask, psi in expanded:
        if not sweeps or sweeps[-1][0] is not psi:
            assert all(psi is not seen for seen, _ in sweeps)
            sweeps.append((psi, []))
        sweeps[-1][1].append(mask)
    return sweeps


def test_delta_table_builds_one_psi_memo(monkeypatch):
    # a table's psi-product rows, as the method or as the checker, share one
    # sweep: one list of the 2^(n-1) psi values without bit n-1, from which
    # every mask is expanded once, in ascending order; from n = 10, when the
    # last mask is expanded, no other list of 2^(n-1) entries is alive
    expanded = _counted_expansions(monkeypatch)
    expand, alive = degree_mod._psi_expand, []

    def scanned(mask, psi, pairs):
        if n >= 10 and mask == 2**n - 1:
            alive.append([obj is psi for obj in gc.get_objects()
                          if isinstance(obj, list) and len(obj) == 2 ** (n - 1)])
        return expand(mask, psi, pairs)

    monkeypatch.setattr(degree_mod, "_psi_expand", scanned)
    for n in range(5, 11):
        for method, cross_check in (("auto", False), ("psi_product", False), ("residue", True)):
            expanded.clear()
            alive.clear()
            delta_table(n, method, cross_check)
            [(psi, masks)] = _sweeps(expanded)
            assert type(psi) is list and len(psi) == 2 ** (n - 1), (n, method)
            assert masks == list(range(1, 2**n)), (n, method)
            assert alive == ([[True]] if n >= 10 else []), (n, method)
            del psi  # not alive in the next table's scan


def test_delta_table_memo_lives_for_one_call(monkeypatch):
    # nothing is kept between calls: the second table sweeps all masks again
    expanded = _counted_expansions(monkeypatch)
    delta_table(8)
    delta_table(8)
    sweeps = _sweeps(expanded)
    assert [len(masks) for _, masks in sweeps] == [2**8 - 1, 2**8 - 1]


def test_delta_table_computes_the_bounds_once_per_rank(monkeypatch):
    # valid_triples computes each rank's bounds once and builds its triples
    # from them, each with the k and ell a checked triple gets
    calls = []
    real = degree_mod._pataki_bounds
    monkeypatch.setattr(degree_mod, "_pataki_bounds", lambda n, r: calls.append(r) or real(n, r))
    for n in range(4, 10):
        calls.clear()
        rows = delta_table(n)
        assert calls == list(range(1, n)), n
        assert all((t.k, t.ell) == (t.m - real(n, t.r)[0], real(n, t.r)[1] - t.m)
                   for t in (row.triple for row in rows)), n


def test_rows_build_one_triple_and_one_timed_result_each(monkeypatch):
    # a table builds one triple per row, rank by rank and without
    # PatakiTriple's checks, and for each closed, psi-product or residue row
    # only the timed result it returns, checked or not; a value builds only
    # its own triple, and the result of its closed form or kernel, that of
    # its checker, if any, and the timed result it returns
    expected = {n: valid_triples(n) for n in range(2, 11)}
    built = dict.fromkeys((PatakiTriple, DegreeResult), 0)
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for n, triples in expected.items():
        for method in ("auto", "psi_product", "residue"):
            for cross_check in (False, True):
                built.update(dict.fromkeys(built, 0))
                results = delta_table(n, method, cross_check)
                assert built == {PatakiTriple: 0, DegreeResult: len(triples)}, (n, method)
                assert [res.triple for res in results] == triples, (n, method)
                assert len({id(res.triple) for res in results}) == len(triples), (n, method)
    for (m, n, r), method in (((4, 4, 2), "auto"), ((6, 5, 3), "auto"), ((6, 5, 3), "residue"),
                              ((6, 5, 3), "theorem1"), ((40, 12, 6), "auto")):
        for cross_check in (False, True):
            built.update(dict.fromkeys(built, 0))
            delta(validate_triple(m, n, r), method, cross_check)
            assert built == {PatakiTriple: 1, DegreeResult: 2 + cross_check}, (m, n, r, method)


def test_single_value_sums_only_its_own_subsets(monkeypatch):
    # one memo per call, evaluated only on the masks the subsets of its ell reach
    memos = _counted_memos(monkeypatch)
    for (m, n, r), masks in (((40, 12, 6), 377), ((60, 14, 7), 2048)):
        memos.clear()
        t = validate_triple(m, n, r)
        assert delta(t).delta == delta(t).delta
        assert [len(memo) for memo in memos] == [masks, masks], (m, n, r)


def test_psi_sweep_and_memo_share_one_expansion(monkeypatch):
    # a table's stored half and a value's memo agree on every mask without
    # bit n-1 up to n = 12, so up to n = 9 the half also equals the
    # Pascal-minor sums (see above)
    expanded = _counted_expansions(monkeypatch)
    for n in range(2, 13):
        expanded.clear()
        delta_table(n, "psi_product")
        [(table, _)] = _sweeps(expanded)
        memo = psi_pfaffian(n)
        assert [memo[mask] for mask in range(2 ** (n - 1))] == table, n


def _psi_by_other_rows(n):
    # psi_I for every mask of {0..n-1}, expanded along other rows than
    # _psi_expand's: an odd I along the border, an even I along its
    # smallest index
    pair = [[sum(comb(i + j, u) for u in range(i, j)) for j in range(n)] for i in range(n)]
    psi = [1] * 2**n
    for mask in range(1, 2**n):
        indices = [i for i in range(n) if mask >> i & 1]
        if len(indices) % 2:
            terms = (2**i * psi[mask ^ 1 << i] for i in indices)
        else:
            low, *others = indices
            terms = (pair[low][j] * psi[mask ^ 1 << low ^ 1 << j] for j in others)
        psi[mask] = sum((-1) ** b * term for b, term in enumerate(terms))
    return psi


def test_psi_expand_equals_an_expansion_along_other_rows():
    # on every mask up to n = 14, each mask expanded from the reference's
    # values of its sub-masks
    reference = _psi_by_other_rows(14)
    for n in range(1, 15):
        pairs = degree_mod._pascal_pairs(n)
        assert all(
            degree_mod._psi_expand(mask, reference, pairs) == reference[mask]
            for mask in range(2**n)
        ), n


def _pfaffian(indices, entry):
    # the signed sum over the perfect matchings of indices: the first index
    # pairs with each other one in turn, the rest are matched recursively
    if not indices:
        return 1
    first, *rest = indices
    return sum(
        (-1) ** b * entry(first, j) * _pfaffian(rest[:b] + rest[b + 1:], entry)
        for b, j in enumerate(rest)
    )


def test_psi_expand_is_the_pfaffian_of_any_bordered_triangle():
    # random integer triangles, row t holding t pair entries and a border
    # entry last; every mask, expanded in ascending order, is the Pfaffian
    # over its indices, with the border index -1 first when |I| is odd
    rng = random.Random(31)
    for n in range(1, 9):
        for _ in range(3):
            pairs = [[rng.randint(-9, 9) for _ in range(t + 1)] for t in range(n)]

            def entry(i, j):
                return pairs[j][i]  # i < j, and pairs[j][-1] is the border

            psi = []
            for mask in range(2**n):
                psi.append(degree_mod._psi_expand(mask, psi, pairs))
            for mask in range(2**n):
                indices = [i for i in range(n) if mask >> i & 1]
                indices = [-1] * (len(indices) % 2) + indices
                assert psi[mask] == _pfaffian(indices, entry), (n, mask, pairs)


def test_psi_sweep_equals_the_brute_force_sums_of_the_reference():
    # sums[|I|][sum(I)] of psi_I * psi_{I^c} over all 2^n masks, up to n = 12
    reference = _psi_by_other_rows(12)
    for n in range(1, 13):
        full, sums = 2**n - 1, [[0] * (comb(n, 2) + 1) for _ in range(n + 1)]
        for mask in range(2**n):
            indices = [i for i in range(n) if mask >> i & 1]
            sums[len(indices)][sum(indices)] += reference[mask] * reference[full ^ mask]
        assert degree_mod._psi_sweep(n) == sums, n


def test_pascal_pairs_runs_the_binomials_of_the_definition():
    # psi_{jt} = sum_{u=j}^{t-1} C(j+t, u), then the border 2^t, up to n = 40
    rows = [[sum(comb(j + t, u) for u in range(j, t)) for j in range(t)] + [1 << t]
            for t in range(40)]
    for n in range(41):
        assert degree_mod._pascal_pairs(n) == rows[:n], n


def test_table_warns_before_it_lists_any_row(monkeypatch):
    # a table's estimate depends on n, the method and cross_check alone, so
    # table 150 warns before it builds a single triple; a theorem1 table sums
    # each rank's rows in closed form, not row by row, and a walk's
    # multiply-adds are a closed form, so checked tables up to n = 300 and a
    # checked value at n = 1000 warn as fast, before any kernel runs
    def refuse(*args):
        raise AssertionError(f"a kernel ran on {args}")

    value = validate_triple(250250, 1000, 500)
    built = []
    init = PatakiTriple.__init__
    monkeypatch.setattr(PatakiTriple, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(degree_mod, "_rank_triples", lambda n, r: built.append((n, r)))
    for name in ("_psi_sweep", "_residue_walk", "delta_theorem1", "delta_psi_product",
                 "delta_residue"):
        monkeypatch.setattr(degree_mod, name, refuse)
    psi, res = "the psi-product", "the residue sum"
    requests = [
        (f"{psi} at n=150", lambda: delta_table(150)),
        ("theorem1 at n=150", lambda: delta_table(150, "theorem1")),
        (f"{psi} checked by {res} at n=1000", lambda: delta(value, cross_check=True)),
    ] + [
        (f"{first} checked by {second} at n={n}",
         lambda n=n, method=method: delta_table(n, method, cross_check=True))
        for n in (150, 300)
        for method, first, second in (("auto", psi, res), ("residue", res, psi))
    ]
    for text, request in requests:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            start = time.perf_counter()
            with pytest.raises(RuntimeWarning, match=f"^{text} is estimated to run for"):
                request()
            assert time.perf_counter() - start < 0.1, text
    assert built == []


def test_closed_table_fails_before_any_other_kernel(monkeypatch):
    # the leading rows of table 5 have closed forms, (6, 5, 2) has none
    def refuse(*args):
        raise AssertionError(f"a kernel ran on {args}")

    for name in ("_psi_sweep", "_residue_walk", "delta_theorem1"):
        monkeypatch.setattr(degree_mod, name, refuse)
    with pytest.raises(ValueError, match=r"no closed form applies to \(m=6, n=5, r=2\)"):
        delta_table(5, "closed", cross_check=True)


def test_closed_table_refuses_in_bounded_time(monkeypatch):
    # every row of the ranks before the first that `_closed_rank` rejects has
    # a closed form, so "closed" names its first failing row from that rank's
    # rows alone, without listing the table's triples
    def refuse(n):
        raise AssertionError(f"valid_triples({n}) ran")

    monkeypatch.setattr(degree_mod, "valid_triples", refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^no closed form applies to \(m=498501, n=1000, r=2\)"):
        delta_table(1000, "closed")
    assert time.perf_counter() - start < 0.1


def test_closed_table_refuses_from_its_first_row_without_a_closed_form():
    # a rank's triples are built one at a time, so the refusal builds only the
    # first row of rank 2, not all 2n - 3 of them
    start = time.perf_counter()
    with pytest.raises(
        ValueError, match=r"^no closed form applies to \(m=499998500001, n=1000000, r=2\)"
    ):
        delta_table(10**6, "closed")
    assert time.perf_counter() - start < 1


def test_methods_call_the_residue_kernel_on_the_module(monkeypatch):
    # auto and psi_product run the psi-product kernel, residue the residue
    # kernel, each looked up on the module at call time
    calls = []

    def fake(method):
        def kernel(t, *args):  # and the points of a residue call
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
            pts = tuple(range(1, n + 1))
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
