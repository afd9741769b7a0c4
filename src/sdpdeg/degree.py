"""The algebraic degree of semidefinite programming, by four exact algorithms.

For a triple (m, n, r) inside the Pataki window
C(n-r+1,2) <= m <= C(n+1,2) - C(r+1,2), the degree delta(m,n,r) of the
univariate polynomials behind a generic rank-r optimum is computed by:

  * coefficient extraction ("theorem1"): the paper's Theorem 1 reads delta
    off the coefficient of (x1...y_{n-r})^(n-1) in
    h_l(X) * h_k(Y) * prod_{i!=j}(x_i - x_j) * prod_{i!=j}(y_i - y_j) *
    prod(y_i - x_j), divided by r!(n-r)!.  Each prod_{i!=j} is
    (-1)^C(t,2) a^2 for the alternant a = prod_{i<j}, and every other
    factor is symmetric within each block, so one alternant per block
    carries the division.  The alternants and prod(y_i - x_j) together are,
    up to sign, the Vandermonde of z = (x1..xr, y1..y_{n-r}), the signed
    sum of z^e over the permutations e of (0, ..., n-1).  Since each h
    lives in one block, delta is the signed sum over e of one coefficient
    of h_l(X) times one of h_k(Y), with no division;

  * the residue subset sum ("residue"): for pairwise-distinct sample values
    lambda_1..lambda_n, sum over r-subsets I of [n] the products
    h_l(Lambda_I) * h_k(Lambda_{I^c}) / prod_{i in I, j not in I}(l_i - l_j)
    and multiply by (-1)^k, where Lambda_I is the multiset of pairwise sums
    of the chosen values.  Each h is a number, read off the series
    prod_v 1/(1 - v t) in one pass per value, and all terms share the one
    denominator prod_{i<j}(l_i - l_j), divided out at the end.  It never
    forms a polynomial, so it shares no code with the form-level multiset
    DP by which the coefficient path builds h;

  * the psi-product ("psi_product"), von Bothmer and Ranestad's formula:
    the sum of psi_I * psi_{I^c} over the r-subsets I of {0..n-1} with
    sum(I) - C(r,2) = l, where psi_I is a Pfaffian of integers (see
    `psi_pfaffian`), evaluated once per subset reached within one call;

  * closed forms ("closed_form"/"duality_reduced") for r = n-1 and for
    m in {3, 4} at r = n-2, reached directly or through the duality
    delta(m,n,r) = delta(C(n+1,2)-m, n, n-r).

Here k = m - lower and l = upper - m are the slacks of m against the two
Pataki bounds ("ell" in code); k + ell = r(n-r).  Every result is asserted
to be a positive integer; all arithmetic is exact.
"""

from __future__ import annotations

import enum
import functools
import random
import time
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod
from typing import Callable, Sequence, Union

#: The delta API, re-exported by the package.
__all__ = [
    "ConsistencyError", "CrossCheckError", "DegreeResult", "InvalidTripleError",
    "Method", "PatakiBoundError", "PatakiTriple", "UnsupportedRankError",
    "default_sample_points", "delta", "delta_closed", "delta_psi_product",
    "delta_residue", "delta_theorem1", "duality_partner", "random_sample_points",
    "valid_triples", "validate_triple",
]


#: An exact value: floats are rejected everywhere.
Coeff = Union[int, Fraction]
SamplePoints = tuple[Coeff, ...]
# Bound at import, so that a test patching this module's `Fraction` keeps the check.
_EXACT_TYPES = (int, Fraction)


def _check_coeff(c: object) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, _EXACT_TYPES):
        raise TypeError(f"exact values must be int or Fraction, got {type(c).__name__}")
    return c


class InvalidTripleError(ValueError):
    """The triple (m, n, r) does not admit an algebraic degree."""


class UnsupportedRankError(InvalidTripleError):
    """Rank outside 1 <= r <= n-1; the Pataki window degenerates there."""


class PatakiBoundError(InvalidTripleError):
    """m falls outside the Pataki window; the message names the violated bound."""


class ConsistencyError(ArithmeticError):
    """An internal identity failed (non-integral or non-positive degree)."""


class CrossCheckError(RuntimeError):
    """Two independent algorithms disagreed; carries both results."""

    def __init__(self, first: "DegreeResult", second: "DegreeResult"):
        self.results = (first, second)
        t = first.triple
        super().__init__(
            f"method disagreement on (m={t.m}, n={t.n}, r={t.r}): "
            f"{first.method.value} gives {first.delta}, "
            f"{second.method.value} gives {second.delta}"
        )


class Method(enum.Enum):
    """How a degree value was obtained."""

    THEOREM1 = "theorem1"
    RESIDUE = "residue"
    PSI_PRODUCT = "psi_product"
    CLOSED_FORM = "closed_form"
    DUALITY_REDUCED = "duality_reduced"


def _pataki_bounds(n: int, r: int) -> tuple[int, int]:
    """The lower and upper Pataki bounds on m at (n, r)."""
    return comb(n - r + 1, 2), comb(n + 1, 2) - comb(r + 1, 2)


def _check_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidTripleError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class PatakiTriple:
    """A triple (m, n, r) inside the Pataki window; construction checks it.

    Degenerate ranks r = 0 and r = n are rejected: the window collapses and
    the degree is about rank-r optima of a nontrivial problem.  k is the
    slack over the lower bound, ell the slack under the upper one; both are
    derived, and k + ell = r(n-r).
    """

    m: int
    n: int
    r: int

    def __post_init__(self):
        m, n, r = self.m, self.n, self.r
        for name, value in (("m", m), ("n", n), ("r", r)):
            _check_int(name, value)
        if m < 1 or n < 1:
            raise InvalidTripleError(f"m and n must be positive, got m={m}, n={n}")
        if not 1 <= r <= n - 1:
            raise UnsupportedRankError(f"rank r={r} outside the supported range [1, {n - 1}]")
        lower, upper = _pataki_bounds(n, r)
        if m < lower:
            raise PatakiBoundError(
                f"m={m} below the lower Pataki bound {lower} for (n={n}, r={r})"
            )
        if m > upper:
            raise PatakiBoundError(
                f"m={m} above the upper Pataki bound {upper} for (n={n}, r={r})"
            )

    @property
    def k(self) -> int:
        return self.m - _pataki_bounds(self.n, self.r)[0]

    @property
    def ell(self) -> int:
        return _pataki_bounds(self.n, self.r)[1] - self.m


@dataclass(frozen=True)
class DegreeResult:
    """A degree value with the method that produced it.

    elapsed is the time `delta` took, cross-check included, in seconds; a
    kernel called directly leaves it None (not timed).
    """

    triple: PatakiTriple
    delta: int
    method: Method
    elapsed: Union[float, None] = None


def validate_triple(m: int, n: int, r: int) -> PatakiTriple:
    """The triple (m, n, r), or InvalidTripleError naming what is wrong."""
    return PatakiTriple(m, n, r)


def valid_triples(n: int) -> list[PatakiTriple]:
    """Every Pataki-valid triple at this n, ordered by (r, m)."""
    _check_int("n", n)
    if n < 2:
        raise InvalidTripleError(f"need n >= 2, got {n}")
    out = []
    for r in range(1, n):
        lower, upper = _pataki_bounds(n, r)
        out += (PatakiTriple(m, n, r) for m in range(lower, upper + 1))
    return out


def duality_partner(t: PatakiTriple) -> PatakiTriple:
    """The dual triple (C(n+1,2) - m, n, n - r); an involution."""
    return PatakiTriple(comb(t.n + 1, 2) - t.m, t.n, t.n - t.r)


def default_sample_points(n: int) -> SamplePoints:
    """lambda_i = i for i = 1..n: small, distinct, keeps intermediates small."""
    return tuple(range(1, n + 1))


def _sample_points(n: int, points: Union[Sequence[Coeff], None]) -> SamplePoints:
    """The default points, or the given ones checked: n exact, pairwise-distinct values.

    A value with denominator 1 becomes an int, so integral points keep the
    residue sum in integer arithmetic.
    """
    if points is None:
        return default_sample_points(n)
    pts = tuple(p.numerator if p.denominator == 1 else p for p in map(_check_coeff, points))
    if len(pts) != n:
        raise ValueError(f"need {n} sample points, got {len(pts)}")
    if len(set(pts)) != n:
        raise ValueError("sample points must be pairwise distinct")
    return pts


def random_sample_points(n: int, seed: int, spread: int = 50) -> SamplePoints:
    """n distinct integers in [-spread, spread], deterministic per seed."""
    if n > 2 * spread + 1:
        raise ValueError("spread too small for that many distinct points")
    rng = random.Random(seed)
    return tuple(rng.sample(range(-spread, spread + 1), n))


def pairwise_sums(values: Sequence[Coeff]) -> list[Coeff]:
    """The multiset v_i + v_j over i <= j, diagonal included."""
    vals = list(values)
    return [vals[i] + vals[j] for i in range(len(vals)) for j in range(i, len(vals))]


def _elementary_values(values: Sequence[Coeff], kmax: int) -> list[Coeff]:
    """e_0..e_kmax of a multiset of numbers (one pass per value)."""
    e: list[Coeff] = [1] + [0] * kmax
    for v in values:
        for j in range(kmax, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def h_recurrence(values: Sequence[Coeff], k: int) -> Coeff:
    """h_k of a multiset of numbers, in len(values) * k multiply-adds.

    h_0..h_k are the coefficients of prod_v 1/(1 - v t) up to t^k, each value
    multiplied in by h_j += v h_{j-1}, j ascending.  This numeric pass shares
    no code with `polynomial.complete_homogeneous`, theorem1's form-level DP.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    h: list[Coeff] = [1] + [0] * k
    for v in values:
        for j in range(1, k + 1):
            h[j] += v * h[j - 1]
    return h[k]


def h_determinant(values: Sequence[Coeff], k: int) -> Coeff:
    """h_k of a multiset of numbers as the k x k determinant in e_1..e_k.

    Entry (i, j) is e_{j-i+1} (1 on the subdiagonal, 0 below), evaluated by
    fraction-free Bareiss; h_0 is the empty determinant 1.  The residue sum
    uses `h_recurrence`; this O(k^3) evaluation is its test oracle.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1
    from .schur import bareiss_det

    e = _elementary_values(values, k)
    matrix = [
        [e[j - i + 1] if j - i + 1 >= 0 else 0 for j in range(k)]
        for i in range(k)
    ]
    return bareiss_det(matrix)


def _as_positive_integer(value: Coeff, context: str) -> int:
    as_fraction = Fraction(value)
    if as_fraction.denominator != 1:
        raise ConsistencyError(f"{context}: non-integral value {as_fraction}")
    result = int(as_fraction)
    if result < 1:
        raise ConsistencyError(f"{context}: non-positive value {result}")
    return result


def _sign(e: Sequence[int]) -> int:
    """(-1) to the number of inversions of e."""
    return (-1) ** sum(a > b for a, b in combinations(e, 2))


def delta_theorem1(t: PatakiTriple) -> DegreeResult:
    """Degree by coefficient extraction, as one signed sum over the Vandermonde.

    Over z = (x1..xr, y1..ys), a(x) * a(y) * prod(y_i - x_j) is
    (-1)^(rs + C(n,2)) sum_e sgn(e) z^e, e running over the permutations of
    (0, ..., n-1).  The target is tx = (n-r, ..., n-1) on x and
    ty = (r, ..., n-1) on y, so the coefficient splits into one coefficient
    of each h block, each built in its own ring and capped at its target:
    delta = (-1)^k sum_e sgn(e) [x^(tx - e_x)] h_l(X) * [y^(ty - e_y)] h_k(Y).
    e_x is read off each term of h_l(X), which is skipped when an exponent
    repeats; e_y runs over the permutations of the exponents left.
    """
    from .polynomial import complete_homogeneous, pairwise_sum_forms, x_space

    r, s, n = t.r, t.n - t.r, t.n
    tx, ty = tuple(range(s, n)), tuple(range(r, n))
    h_x = complete_homogeneous(pairwise_sum_forms(x_space(r)), t.ell, tx)
    h_y = complete_homogeneous(pairwise_sum_forms(x_space(s)), t.k, ty).terms

    total = 0
    for alpha, c in h_x.terms.items():
        e_x = tuple(map(int.__sub__, tx, alpha))
        if len(set(e_x)) < r:
            continue
        rest = [i for i in range(n) if i not in e_x]
        for e_y in permutations(rest):
            c_y = h_y.get(tuple(map(int.__sub__, ty, e_y)))
            if c_y is not None:
                total += _sign(e_x + e_y) * c * c_y

    delta_value = _as_positive_integer((-1) ** t.k * total, f"coefficient extraction on {t}")
    return DegreeResult(t, delta_value, Method.THEOREM1)


def delta_residue(t: PatakiTriple, points: Union[Sequence[Coeff], None] = None) -> DegreeResult:
    """Degree by the exact residue sum over r-subsets of the sample points.

    Any pairwise-distinct points give the same value.  For the alternants
    a(S) = prod_{i<j in S}(l_i - l_j), 1 / prod_{i in I, j not in I}(l_i - l_j)
    is (-1)^(sum I - C(r,2)) a(I) a(I^c) / a([n]): the terms add up to one
    numerator, and a([n]) and (-1)^C(r,2) are applied once.  Both h factors
    come from `h_recurrence`, sharing nothing with the form-level h of theorem1.
    """
    n, r, k, ell = t.n, t.r, t.k, t.ell
    pts = _sample_points(n, points)

    def alternant(indices: Sequence[int]) -> Coeff:
        return prod(pts[i] - pts[j] for i, j in combinations(indices, 2))

    numerator: Coeff = 0
    for subset in combinations(range(n), r):
        rest = tuple(j for j in range(n) if j not in subset)
        h_ell = h_recurrence(pairwise_sums([pts[i] for i in subset]), ell)
        h_k = h_recurrence(pairwise_sums([pts[j] for j in rest]), k)
        numerator += (-1) ** sum(subset) * alternant(subset) * alternant(rest) * h_ell * h_k

    value = (-1) ** (k + comb(r, 2)) * Fraction(numerator) / alternant(range(n))
    delta_value = _as_positive_integer(value, f"residue sum on {t}")
    return DegreeResult(t, delta_value, Method.RESIDUE)


def psi_pfaffian(n: int) -> Callable[[int], int]:
    """A fresh memo psi(mask) of the Pascal-minor sums psi_I, for I within {0..n-1}.

    I is given as a bitmask (bit i set when i is in I), and psi_I is the
    Pfaffian of the skew matrix with entries psi_{ij} = sum_{u=i}^{j-1} C(i+j, u)
    for i < j, bordered by psi_i = 2^i when |I| is odd.  psi_() = 1; an even
    I expands along its smallest index i0, psi_I = sum_b (-1)^b psi_{i0 j_b}
    psi_{I - {i0, j_b}}, an odd I along the border, psi_I = sum_b (-1)^b
    2^(i_b) psi_{I - {i_b}}.  Integers only; each mask is evaluated once per
    memo.  `schur.psi` sums the Pascal minors outright and is its test oracle.
    """
    pair = [[sum(comb(i + j, u) for u in range(i, j)) for j in range(n)] for i in range(n)]

    @functools.cache
    def psi(mask: int) -> int:
        indices = [i for i in range(mask.bit_length()) if mask >> i & 1]
        if not indices:
            return 1
        total, sign = 0, 1
        if len(indices) % 2:
            for i in indices:
                total += sign * (1 << i) * psi(mask ^ (1 << i))
                sign = -sign
            return total
        first, *rest = indices
        mask ^= 1 << first
        for j in rest:
            total += sign * pair[first][j] * psi(mask ^ (1 << j))
            sign = -sign
        return total

    return psi


def delta_psi_product(t: PatakiTriple) -> DegreeResult:
    """Degree by the psi-product of von Bothmer and Ranestad.

    delta = sum of psi_I * psi_{I^c} over the r-subsets I of {0..n-1} with
    sum(I) - C(r,2) = ell, where I^c is the complement of I.  Both factors
    come from one `psi_pfaffian` memo, which lives for this call only.
    """
    n, r = t.n, t.r
    psi = psi_pfaffian(n)
    full = (1 << n) - 1
    weight = t.ell + comb(r, 2)
    total = 0
    for subset in combinations(range(n), r):
        if sum(subset) == weight:
            mask = sum(1 << i for i in subset)
            total += psi(mask) * psi(full ^ mask)
    delta_value = _as_positive_integer(total, f"psi-product on {t}")
    return DegreeResult(t, delta_value, Method.PSI_PRODUCT)


def _closed_pattern(m: int, n: int, r: int) -> Union[int, None]:
    if r == n - 1:
        return 2 ** (m - 1) * comb(n, m)
    if r == n - 2 and m == 3:
        return comb(n + 1, 3)
    if r == n - 2 and m == 4:
        return 6 * comb(n + 1, 4)
    return None


def delta_closed(t: PatakiTriple) -> Union[DegreeResult, None]:
    """Closed-form degree, or None when no pattern applies.

    Patterns: full-rank-minus-one r = n-1 gives 2^(m-1) C(n,m); at r = n-2,
    m = 3 gives C(n+1,3) and m = 4 gives 6 C(n+1,4).  If the triple itself
    does not match, its duality partner is tried and the result tagged as
    reduced through duality.
    """
    for method in (Method.CLOSED_FORM, Method.DUALITY_REDUCED):
        # The partner is built only when the triple itself has no closed form.
        source = t if method is Method.CLOSED_FORM else duality_partner(t)
        value = _closed_pattern(source.m, source.n, source.r)
        if value is not None:
            delta_value = _as_positive_integer(value, f"{method.value} on {t}")
            return DegreeResult(t, delta_value, method)
    return None


def _closed(t: PatakiTriple, points: Union[Sequence[Coeff], None]) -> DegreeResult:
    result = delta_closed(t)
    if result is None:
        raise ValueError(
            f"no closed form applies to (m={t.m}, n={t.n}, r={t.r}); "
            "use auto, psi_product, residue, or theorem1"
        )
    return result


#: The smallest n at which a requested `theorem1` warns before it starts: its
#: capped h blocks grow like n^n; every n = 9 value takes at most about 5 s,
#: and n = 10 values range from 0.4 s at (40, 10, 2) and 0.5 s at (27, 10, 5)
#: to 44 s at (3, 10, 8).
_THEOREM1_WARN_N = 10


def _residue_cost(t: PatakiTriple) -> int:
    """The multiply-adds of `delta_residue`'s h recurrences on t: per r-subset,
    h_ell over C(r+1, 2) pairwise sums and h_k over C(n-r+1, 2)."""
    return comb(t.n, t.r) * (comb(t.r + 1, 2) * t.ell + comb(t.n - t.r + 1, 2) * t.k)


#: The `_residue_cost` from which the residue sum warns before it starts, as
#: the requested method or as the checker: the cost of (81, 17, 8), about
#: 7.09e7, which takes about 11 s.  (80, 16, 8) costs 2.97e7 and takes 4 s,
#: (85, 18, 9) 1.77e8 and 30 s; no triple with n <= 16 reaches it.
_RESIDUE_WARN_COST = 70_887_960


def _psi_cost(n: int) -> int:
    """A bound on the work of one `delta_psi_product` call at n: its memo holds
    at most 2^n masks, each expanded over at most n indices."""
    return n << n


#: The summed `_psi_cost` from which psi-products warn before they start, for
#: one value or for all rows of a table: about 11 s at about 18 ns a unit,
#: process start included.  table 16 costs 695 * 16 * 2^16 = 7.29e8 and took
#: 12.6-14.2 s, table 15 2.82e8 and 5.2-6.4 s; one balanced value costs 4.03e8
#: and took 8 s at (150, 24, 12), 8.39e8 and 40 s at (169, 25, 12).
_PSI_WARN_COST = 600_000_000


def warn_psi_cost(n: int, calls: int = 1) -> None:
    """Warn when `calls` psi-products at n would cross the budget.

    The warning names n only, so a table warns once per n, not once per row.
    """
    if calls * _psi_cost(n) >= _PSI_WARN_COST:
        warnings.warn(
            f"the psi-product at n={n} evaluates up to 2^n Pfaffians per value "
            "and may run for tens of seconds or more "
            "(table 16 took 13 s, table 17 36 s; one value 8 s at n=24, 40 s at n=25)",
            RuntimeWarning,
        )


def _psi_product(t: PatakiTriple, points: Union[Sequence[Coeff], None] = None) -> DegreeResult:
    """`delta_psi_product`, as the requested method or as the checker, warned about when costly."""
    warn_psi_cost(t.n)
    return delta_psi_product(t)


def _theorem1(t: PatakiTriple, points: Union[Sequence[Coeff], None] = None) -> DegreeResult:
    """`delta_theorem1` as the requested method, warned about at large n."""
    if t.n >= _THEOREM1_WARN_N:
        warnings.warn(
            f"theorem1 at n={t.n} expands h blocks of up to n^n terms "
            "and may run for tens of seconds or more "
            "(single n=10 values took 0.4-44 s, n=9 values at most 5 s)",
            RuntimeWarning,
        )
    return delta_theorem1(t)


def _residue(t: PatakiTriple, points: Union[Sequence[Coeff], None] = None) -> DegreeResult:
    """`delta_residue`, as the requested method or as the checker, warned about when costly.

    The warning names n only, so a table warns once per n, not once per row.
    """
    if _residue_cost(t) >= _RESIDUE_WARN_COST:
        warnings.warn(
            f"the residue sum at n={t.n} runs over C(n, r) subsets "
            "and may run for tens of seconds or more "
            "(balanced values took 11 s at n=17, 30 s at n=18)",
            RuntimeWarning,
        )
    return delta_residue(t, points)


#: The methods `delta` accepts by name.  Entries name the kernels through this
#: module's globals at call time, so that a kernel replaced on the module (a
#: test fake, a tracing wrapper) is the one that runs.
METHODS: dict[str, Callable[..., DegreeResult]] = {
    "auto": lambda t, points: delta_closed(t) or _psi_product(t),
    "theorem1": _theorem1,
    "residue": _residue,
    "psi_product": _psi_product,
    "closed": _closed,
}

# The independent method that confirms a result, by the method that produced
# it.  The psi-product and the residue sum check each other, so theorem1 runs
# only when it is requested.
_SECOND_OPINION: dict[Method, Callable[..., DegreeResult]] = {
    Method.CLOSED_FORM: METHODS["psi_product"],
    Method.DUALITY_REDUCED: METHODS["psi_product"],
    Method.RESIDUE: METHODS["psi_product"],
    Method.PSI_PRODUCT: METHODS["residue"],
    Method.THEOREM1: METHODS["residue"],
}


def delta(
    t: PatakiTriple,
    method: str = "auto",
    cross_check: bool = False,
    points: Union[Sequence[Coeff], None] = None,
) -> DegreeResult:
    """Compute the degree, optionally verifying it with a second algorithm.

    "auto" prefers a closed form, otherwise runs the psi-product on the
    triple itself (the duality partner's sum runs over the same subset
    pairs, so computing the partner instead saves nothing).  With
    cross_check a second, independent method must agree exactly, else
    CrossCheckError carrying both results is raised: the residue sum checks
    the psi-product and theorem1, and the psi-product checks the residue sum
    and closed forms, so theorem1 runs only when it is requested.  Only this
    function times a result: elapsed covers dispatch and the cross-check.
    Only the residue sum uses sample points, as the method or as the checker
    of a psi-product or theorem1 value; given ones are checked whichever
    method runs, "auto" included, even one that does not use them.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    if points is not None:
        points = _sample_points(t.n, points)
    start = time.perf_counter()
    result = METHODS[method](t, points)
    if cross_check:
        second = _SECOND_OPINION[result.method](t, points)
        if second.delta != result.delta:
            raise CrossCheckError(result, second)
    return replace(result, elapsed=time.perf_counter() - start)
