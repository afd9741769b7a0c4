"""The algebraic degree of semidefinite programming, by four exact algorithms.

For a triple (m, n, r) inside the Pataki window
C(n-r+1,2) <= m <= C(n+1,2) - C(r+1,2), the degree delta(m,n,r) of the
univariate polynomials behind a generic rank-r optimum is computed by:

  * coefficient extraction ("theorem1"): the paper's Theorem 1 reads delta
    off one coefficient of h_l(X) * h_k(Y) times the alternants of X and Y
    and prod(y_i - x_j), which together are a Vandermonde; `sdpdeg.theorem1`
    sums it over complementary exponent sets, with no division;

  * the residue subset sum ("residue"): for pairwise-distinct sample values
    lambda_1..lambda_n, sum over r-subsets I of [n] the products
    h_l(Lambda_I) * h_k(Lambda_{I^c}) / prod_{i in I, j not in I}(l_i - l_j)
    and multiply by (-1)^k, where Lambda_I is the multiset of pairwise sums
    of the chosen values.  All terms share the one denominator
    prod_{i<j}(l_i - l_j), divided out at the end.  One depth-first walk
    decides index by index whether i joins I or I^c and carries both h
    series, read off prod_v 1/(1 - v t), so each pairwise sum is pushed
    into a series once per prefix, not once per subset.  A single value
    caps the series at l and k; a table walks each rank r <= n-r once,
    uncapped, and reads every l of it and of rank n-r off the leaves.  It
    never forms a polynomial, so it
    shares no code with the form-level multiset DP by which the coefficient
    path builds h;

  * the psi-product ("psi_product"), von Bothmer and Ranestad's formula:
    the sum of psi_I * psi_{I^c} over the r-subsets I of {0..n-1} with
    sum(I) - C(r,2) = l, where psi_I is a Pfaffian of integers (see
    `_psi_expand`).  A single value evaluates psi once per mask its own
    subsets reach; a table expands all 2^n masks in ascending order, stores
    psi only for the half without index n-1, and sums every rank's products
    as it goes, keyed by |I| and sum(I);

  * closed forms ("closed_form"/"duality_reduced") for r = n-1 and for
    m in {3, 4} at r = n-2, reached directly or through the duality
    delta(m,n,r) = delta(C(n+1,2)-m, n, n-r).

Here k = m - lower and l = upper - m are the slacks of m against the two
Pataki bounds ("ell" in code); k + ell = r(n-r).  Every result is asserted
to be a positive integer; all arithmetic is exact.
"""

from __future__ import annotations

import enum
import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations
from math import comb, prod
from types import SimpleNamespace
from typing import Iterator, Sequence, Union

#: The delta API, re-exported by the package.
__all__ = [
    "ConsistencyError", "CrossCheckError", "DegreeResult", "InvalidTripleError",
    "Method", "PatakiBoundError", "PatakiTriple", "UnsupportedRankError",
    "delta", "delta_closed", "delta_psi_product", "delta_residue", "delta_table",
    "delta_theorem1", "duality_partner", "random_sample_points", "valid_triples",
    "validate_triple",
]


#: An exact value: floats are rejected everywhere.
Coeff = Union[int, Fraction]
SamplePoints = tuple[Coeff, ...]


def _check_coeff(c: object) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact values must be int or Fraction, got {type(c).__name__}")
    return c


class InvalidTripleError(ValueError):
    """The triple (m, n, r) does not admit an algebraic degree."""


class UnsupportedRankError(InvalidTripleError):
    """Rank outside 1 <= r <= n-1; the Pataki window degenerates there."""


class PatakiBoundError(InvalidTripleError):
    """m falls outside the Pataki window; the message names the violated bound."""


class ConsistencyError(ArithmeticError):
    """An internal identity failed: a non-integral or non-positive degree, or a
    table rank's checksum."""


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


@dataclass(frozen=True, init=False)
class PatakiTriple:
    """A triple (m, n, r) inside the Pataki window; construction checks it.

    Degenerate ranks r = 0 and r = n are rejected: the window collapses and
    the degree is about rank-r optima of a nontrivial problem.  k is the
    slack over the lower bound, ell the slack under the upper one; both are
    set at construction, outside the fields, and k + ell = r(n-r).
    """

    m: int
    n: int
    r: int

    def __init__(self, m: int, n: int, r: int):
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
        # One write of the instance dict, which the frozen __setattr__ does
        # not guard, stores the fields and both slacks.
        self.__dict__.update(m=m, n=n, r=r, k=m - lower, ell=upper - m)


@dataclass(frozen=True, init=False)
class DegreeResult:
    """A degree value with the method that produced it.

    elapsed is the time `delta` or `delta_table` ran the row's kernels after
    its closed form, cross-check included, in seconds; a kernel called directly
    leaves it None (not timed).  In a table, the first psi-product row
    carries the whole psi sweep, every rank's sums included, and every later
    psi-product row a lookup; likewise the first residue row of each rank
    r <= n-r, as the method or as the checker, carries the walk it shares
    with rank n-r, and every other residue row a lookup.
    """

    triple: PatakiTriple
    delta: int
    method: Method
    elapsed: Union[float, None] = None

    def __init__(
        self, triple: PatakiTriple, delta: int, method: Method, elapsed: Union[float, None] = None
    ):
        self.__dict__.update(triple=triple, delta=delta, method=method, elapsed=elapsed)


def validate_triple(m: int, n: int, r: int) -> PatakiTriple:
    """The triple (m, n, r), or InvalidTripleError naming what is wrong."""
    return PatakiTriple(m, n, r)


def _rank_triples(n: int, r: int) -> Iterator[PatakiTriple]:
    """The triples of rank r at n, ordered by m, each built when it is reached,
    from the rank's bounds, without `PatakiTriple`'s checks."""
    lower, upper = _pataki_bounds(n, r)
    for m in range(lower, upper + 1):
        t = PatakiTriple.__new__(PatakiTriple)
        t.__dict__.update(m=m, n=n, r=r, k=m - lower, ell=upper - m)
        yield t


def _check_n(n: int) -> None:
    _check_int("n", n)
    if n < 2:
        raise InvalidTripleError(f"need n >= 2, got {n}")


def valid_triples(n: int) -> list[PatakiTriple]:
    """Every Pataki-valid triple at this n, ordered by (r, m), rank by rank."""
    _check_n(n)
    return [t for r in range(1, n) for t in _rank_triples(n, r)]


def duality_partner(t: PatakiTriple) -> PatakiTriple:
    """The dual triple (C(n+1,2) - m, n, n - r); an involution."""
    return PatakiTriple(comb(t.n + 1, 2) - t.m, t.n, t.n - t.r)


def _sample_points(n: int, points: Union[Sequence[Coeff], None]) -> SamplePoints:
    """The given points checked (n exact, pairwise-distinct values), or by
    default lambda_i = i for i = 1..n: small, distinct, keeps intermediates small.

    A value with denominator 1 becomes an int, so integral points keep the
    residue sum in integer arithmetic.
    """
    if points is None:
        return tuple(range(1, n + 1))
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


def _push(h: list[Coeff], values: Sequence[Coeff]) -> list[Coeff]:
    """h times prod_v 1/(1 - v t), truncated at len(h) terms; h is not changed.

    Each value is multiplied in by h_j += v h_{j-1}, j ascending from 1:
    len(h) - 1 multiply-adds a value.  This numeric pass shares no code with
    `theorem1._pair_sum_h`, theorem1's form-level DP.
    """
    for v in values:
        rest = iter(h)
        carry = next(rest)
        out = [carry]
        for c in rest:
            carry = c + v * carry
            out.append(carry)
        h = out
    return h


def h_determinant(values: Sequence[Coeff], k: int) -> Coeff:
    """h_k of a multiset of numbers as the k x k determinant in e_1..e_k.

    Entry (i, j) is e_{j-i+1} (1 on the subdiagonal, 0 below), evaluated by
    fraction-free Bareiss; h_0 is the empty determinant, 1.  It is the test
    oracle of `_push`, from which the residue walk reads h.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    from .schur import bareiss_det

    e: list[Coeff] = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    matrix = [
        [e[j - i + 1] if j - i + 1 >= 0 else 0 for j in range(k)]
        for i in range(k)
    ]
    return bareiss_det(matrix)


def _as_positive_integer(value: int, label: str, t: PatakiTriple) -> int:
    """value if positive, else ConsistencyError; `_residue_delta` tests exactness."""
    if value < 1:
        raise ConsistencyError(f"{label} on {t}: non-positive value {value}")
    return value


def delta_theorem1(t: PatakiTriple) -> DegreeResult:
    """Degree by coefficient extraction: `theorem1.theorem1_sum`, imported on the first call."""
    from .theorem1 import theorem1_sum

    value = _as_positive_integer(theorem1_sum(t.n, t.r, t.k, t.ell), "coefficient extraction", t)
    return DegreeResult(t, value, Method.THEOREM1)


def _residue_walk(pts: SamplePoints, r: int, ells: Sequence[int]) -> list[Coeff]:
    """The residue numerators sums[l] = sum over the r-subsets I of
    (-1)^sum(I) a(I) a(I^c) h_l(Lambda_I) h_{L-l}(Lambda_{I^c}) for each l in
    `ells` (0 at every other l), L = r(n-r), in one depth-first walk.

    The walk decides index by index whether i joins I or I^c and carries both
    h series, both alternants a(S) = prod_{i<j in S}(l_i - l_j) and the sign.
    Joining a side of s indices pushes its s + 1 new pairwise sums l_i + l_j
    (j on that side or i) into that side's series, so subsets with a common
    prefix share its work.  The I series is capped at max(ells), the I^c
    series at L - min(ells); `_walk_pushes` gives its multiply-adds in closed form.
    """
    n, push = len(pts), _push
    total = r * (n - r)
    sums = [0] * (total + 1)

    def walk(i, xs, ys, hx, hy, w):
        if i == n:
            for ell in ells:
                sums[ell] += w * hx[ell] * hy[total - ell]
            return
        v = pts[i]
        if len(xs) < r:
            w_x = prod([u - v for u in xs], start=-w if i & 1 else w)
            walk(i + 1, xs + [v], ys, push(hx, [u + v for u in xs] + [v + v]), hy, w_x)
        if len(ys) < n - r:
            w_y = prod([u - v for u in ys], start=w)
            walk(i + 1, xs, ys + [v], hx, push(hy, [u + v for u in ys] + [v + v]), w_y)

    walk(0, [], [], [1] + [0] * max(ells), [1] + [0] * (total - min(ells)), 1)
    return sums


def _walk_pushes(n: int, r: int, cap_x: int, cap_y: int) -> int:
    """The multiply-adds of `_residue_walk` with its series capped at cap_x
    and cap_y: C(a+b, a) walks reach |I| = a, |I^c| = b, whose next index
    pushes a + 1 sums at cap_x into I (a < r) or b + 1 at cap_y into I^c
    (b < n-r).  Summed over b <= n-r, I takes sum_{j=1}^{r} j C(j+n-r, j)
    pushes, and over a <= r, I^c takes sum_{j=1}^{n-r} j C(j+r, j); by the
    hockey stick, sum_{j<=p} j C(j+q, j) = (q+1) C(p+q+1, p-1)."""
    return cap_x * (n - r + 1) * comb(n + 1, r - 1) + cap_y * (r + 1) * comb(n + 1, r + 2)


def _alternant(pts: SamplePoints) -> Coeff:
    """a([n]) = prod_{i<j}(l_i - l_j), the residue sum's one denominator."""
    return prod(pts[i] - pts[j] for i, j in combinations(range(len(pts)), 2))


def _residue_delta(numerator: Coeff, whole: Coeff, t: PatakiTriple) -> int:
    """delta from the residue numerator at t's ell: times (-1)^(k + C(r,2)), over
    whole = a([n]); one divmod of ints or Fractions alike tests exactness here."""
    value, rest = divmod((-1) ** (t.k + comb(t.r, 2)) * numerator, whole)
    if rest:
        raise ConsistencyError(
            f"residue sum on {t}: non-integral value {value + Fraction(rest, whole)}")
    return _as_positive_integer(value, "residue sum", t)


def delta_residue(t: PatakiTriple, points: Union[Sequence[Coeff], None] = None) -> DegreeResult:
    """Degree by the exact residue sum over r-subsets of the sample points.

    Any pairwise-distinct points give the same value.  For the alternants
    a(S) = prod_{i<j in S}(l_i - l_j), 1 / prod_{i in I, j not in I}(l_i - l_j)
    is (-1)^(sum I - C(r,2)) a(I) a(I^c) / a([n]): the terms add up to one
    numerator, and a([n]) and (-1)^C(r,2) are applied once.  The call walks
    the subsets once with its series capped at ell and k; a table reads all
    the ell of a pair of ranks off one uncapped walk instead.
    """
    pts = _sample_points(t.n, points)
    numerators = _residue_walk(pts, t.r, (t.ell,))
    return DegreeResult(t, _residue_delta(numerators[t.ell], _alternant(pts), t), Method.RESIDUE)


def _pascal_pairs(n: int) -> list[list[int]]:
    """psi's bordered skew matrix as a triangle: row t < n is column t above the
    diagonal, psi_{jt} = sum_{u=j}^{t-1} C(j+t, u) for j < t, then the border 2^t.
    By Pascal's rule psi_{jt} = psi_{j-1,t} + psi_{j,t-1}, from psi_{0t} = 2^t - 1
    and psi_{tt} = 0: each row is a running sum over the row above."""
    rows, above = [], []
    for t in range(n):
        rows.append(list(accumulate(above + [0], initial=(1 << t) - 1))[:t] + [1 << t])
        above = rows[-1][1:-1]
    return rows


def _psi_expand(
    mask: int, psi: Union[list[int], dict[int, int]], pairs: list[list[int]]
) -> int:
    """The Pfaffian psi_I of the bitmask `mask` of I (bit i set when i is in
    I), from psi[sub] of its sub-masks without the largest index of I, which
    `psi` must hold or compute on access.

    Row t of the triangle `pairs` holds a_{jt} for j < t, then a border b_t.
    psi_I is the Pfaffian of the skew matrix a on I, bordered by b when |I|
    is odd; psi_() = 1.  Every other I expands along its largest index t:
    with j_0 < j_1 < ... the other indices and S = sum_b (-1)^b a_{j_b t}
    psi_{I - {j_b, t}}, psi_I = S when |I| is even and b_t psi_{I - {t}} - S
    when it is odd.  Over `_pascal_pairs` it is von Bothmer and Ranestad's
    psi, whose test oracle `schur.psi` sums the Pascal minors outright.
    """
    if not mask:
        return 1
    t = mask.bit_length() - 1
    row, below = pairs[t], mask ^ (1 << t)
    total, sign, rest = 0, 1, below
    while rest:
        bit = rest & -rest
        rest ^= bit
        total += sign * row[bit.bit_length() - 1] * psi[below ^ bit]
        sign = -sign
    if sign > 0:  # sign is (-1)^(|I|-1), so |I| is odd
        return row[t] * psi[below] - total
    return total


class psi_pfaffian(dict):
    """A fresh sparse memo of psi_I by bitmask, for I within {0..n-1}.

    memo[mask] expands the mask by `_psi_expand` on first access, and each of
    its sub-masks the same way, so the memo holds only the masks reached.
    """

    def __init__(self, n: int):
        super().__init__()
        self.pairs = _pascal_pairs(n)

    def __missing__(self, mask: int) -> int:
        value = self[mask] = _psi_expand(mask, self, self.pairs)
        return value


def _psi_sweep(n: int) -> list[list[int]]:
    """The sums of psi_I * psi_{I^c} over all subsets I of {0..n-1}, as
    sums[|I|][sum(I)].

    `_psi_expand` reads only masks without the expanded mask's largest
    index, so only the 2^(n-1) masks without bit n-1 store psi, filled in
    one ascending pass.  A second ascending pass expands each mask with bit
    n-1 on the fly from that list, multiplies it by the stored psi of its
    complement, and adds the product under both I and I^c.  sum(I) is a
    running sum: the next mask swaps 0..j-1 for j, the lowest index not in I.
    """
    top = 1 << (n - 1)
    full, sum_all = 2 * top - 1, comb(n, 2)
    psi = [1] * top  # first, so that a sweep too large to hold fails at once
    sums = [[0] * (sum_all + 1) for _ in range(n + 1)]
    expand, pairs = _psi_expand, _pascal_pairs(n)
    for mask in range(1, top):
        psi[mask] = expand(mask, psi, pairs)
    step = [j - comb(j, 2) for j in range(n + 1)]
    key = n - 1
    for mask in range(top, 2 * top):
        count = mask.bit_count()
        product = expand(mask, psi, pairs) * psi[full ^ mask]
        sums[count][key] += product
        sums[n - count][sum_all - key] += product
        key += step[(mask ^ (mask + 1)).bit_length() - 1]
    return sums


def delta_psi_product(t: PatakiTriple) -> DegreeResult:
    """Degree by the psi-product of von Bothmer and Ranestad.

    delta = sum of psi_I * psi_{I^c} over the r-subsets I of {0..n-1} with
    sum(I) - C(r,2) = ell, where I^c is the complement of I.  The call sums
    only the subsets of its ell, through its own `psi_pfaffian` memo, which
    expands only the masks they reach; a table reads every row off one
    `_psi_sweep` instead.
    """
    n, r = t.n, t.r
    weight = t.ell + comb(r, 2)
    psi, full, value = psi_pfaffian(n), (1 << n) - 1, 0
    for subset in combinations(range(n), r):
        if sum(subset) == weight:
            mask = sum(1 << i for i in subset)
            value += psi[mask] * psi[full ^ mask]
    return DegreeResult(t, _as_positive_integer(value, "psi-product", t), Method.PSI_PRODUCT)


def _closed_pattern(m: int, n: int, r: int) -> Union[int, None]:
    if r == n - 1:
        return 2 ** (m - 1) * comb(n, m)
    if r == n - 2 and m == 3:
        return comb(n + 1, 3)
    if r == n - 2 and m == 4:
        return 6 * comb(n + 1, 4)
    return None


def _closed_rank(n: int, r: int) -> bool:
    """Whether every m of rank r has a closed form: `_closed_pattern` matches every
    m at r = n-1, and through duality at r = 1; at r = n-2 it matches m = 3, 4 only."""
    return n - 1 in (r, n - r)


def _closed_form(t: PatakiTriple) -> Union[tuple[int, Method], None]:
    """`delta_closed`'s value and method, without building its result."""
    m, n, r = t.m, t.n, t.r
    value = _closed_pattern(m, n, r)
    if value is not None:
        return _as_positive_integer(value, "closed_form", t), Method.CLOSED_FORM
    value = _closed_pattern(n * (n + 1) // 2 - m, n, n - r)
    if value is not None:
        return _as_positive_integer(value, "duality_reduced", t), Method.DUALITY_REDUCED
    return None


def delta_closed(t: PatakiTriple) -> Union[DegreeResult, None]:
    """Closed-form degree, or None when no pattern applies.

    Patterns: full-rank-minus-one r = n-1 gives 2^(m-1) C(n,m); at r = n-2,
    m = 3 gives C(n+1,3) and m = 4 gives 6 C(n+1,4).  If the triple itself
    does not match, the patterns are tried on the values of its duality
    partner (C(n+1,2) - m, n, n - r) and the result tagged as reduced
    through duality.
    """
    found = _closed_form(t)
    return found and DegreeResult(t, *found)


# The routes, one record each.  cost(n, r, k, ell, table) is the estimated
# nanoseconds of one call on a triple, in O(1): its work units in closed form
# times the time per unit, calibrated on a 2-core Xeon VM with process start
# included, so that the requests named below fall exactly on their side of
# `_BUDGET_NS`.  With `table`, the psi-product is a table's sweep and theorem1
# every row of rank r, k = ell = r(n-r).  value(t, points) calls the module's
# kernel at call time, so that a test fake or a tracing wrapper runs.  A table
# runs work(n, key) once per key share(n, r) and reads rows off it by read(work, t).
_CLOSED = SimpleNamespace(method=Method.CLOSED_FORM, name="a closed form",
                          cost=lambda n, r, k, ell, table: 0, share=lambda n, r: r)
_PSI = SimpleNamespace(
    method=Method.PSI_PRODUCT, name="the psi-product",
    # At most 2^n masks, each expanded over at most n indices.  A value's
    # memo takes 18 ns a unit: one value took 8 s at (150, 24, 12), 40 s
    # at (169, 25, 12).  A table's sweep of all 2^n masks takes 100 ns a
    # unit: table 20 took 2.1 s, table 21 4.2 s, table 22 8.7 s.
    cost=lambda n, r, k, ell, table: (100 if table else 18) * (n << n),
    value=lambda t, points: delta_psi_product(t),
    share=lambda n, r: 0, work=lambda n, key: _psi_sweep(n),
    read=lambda sums, t: _as_positive_integer(sums[t.r][t.ell + comb(t.r, 2)], "psi-product", t),
)
_RESIDUE = SimpleNamespace(
    method=Method.RESIDUE, name="the residue sum",
    # The multiply-adds of the walk, 70 ns each: 0.76 s at (80, 16, 8),
    # 0.35 s at (6, 30, 28), 22 s at (9, 40, 37); checked, (145, 19, 9)
    # took 10.0 s and (143, 20, 7) 9.6 s.  A table walks each rank
    # once, uncapped at k = ell = r(n-r): table 16 --check took 8.0 s,
    # table 17 --check 19.6 s.
    cost=lambda n, r, k, ell, table: 70 * _walk_pushes(n, r, ell, k),
    value=lambda t, points: delta_residue(t, points),
    # I and I^c give one term of ranks r and n-r, h series swapped, sign times
    # (-1)^C(n,2), so rank n-r reads the walk of rank r <= n-r at k times that.
    # The work is the walk and a([n]) at the default points.
    share=lambda n, r: min(r, n - r),
    work=lambda n, r: (_residue_walk(pts := _sample_points(n, None), r, range(r * (n - r) + 1)),
                       _alternant(pts)),
    read=lambda work, t: _residue_delta(
        work[0][t.ell] if 2 * t.r <= t.n else (-1) ** comb(t.n, 2) * work[0][t.k], work[1], t),
)
_THEOREM1 = SimpleNamespace(
    method=Method.THEOREM1, name="theorem1",
    # A bound on the DP pushes of the two h blocks, C(d+v-1, v-1) terms
    # times C(v+1, 2) forms times d degrees for (v, d) = (r, ell) and
    # (n-r, k), 45 ns each: (3, 10, 8) took 5.4 s, (6, 10, 7) 4.6 s,
    # (3, 11, 9) 52 s.  C(d+v-1, v-1) d is v C(d+v-1, v), and over every
    # degree d <= D of a block, for a table's rank, it sums to v C(D+v, v+1).
    cost=lambda n, r, k, ell, table: 45 * sum(
        comb(v + 1, 2) * v * comb(d + v - 1 + table, v + table) for v, d in ((r, ell), (n - r, k))),
    value=lambda t, points: delta_theorem1(t),
    share=lambda n, r: r, work=lambda n, r: None,
    read=lambda work, t: delta_theorem1(t).delta,
)

# The routes each name runs on a row without a closed form, checker second;
# "closed" is the plan of every row with one.  The psi-product and the residue
# sum check each other, so theorem1 runs only when it is requested.
_PLANS = {
    "auto": (_PSI, _RESIDUE),
    "theorem1": (_THEOREM1, _RESIDUE),
    "residue": (_RESIDUE, _PSI),
    "psi_product": (_PSI, _RESIDUE),
    "closed": (_CLOSED, _PSI),
}

#: The method names `delta` and `delta_table` accept.
METHODS = tuple(_PLANS)

#: The estimated nanoseconds from which a request warns before it starts.
_BUDGET_NS = 11_000_000_000


def _plans(method: str, cross_check: bool) -> tuple[tuple, tuple]:
    """The routes a row of `method` runs without and with a closed form, checker last."""
    if method not in _PLANS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _PLANS[method][:1 + cross_check], _PLANS["closed"][:1 + cross_check]


def _table_cost_ns(n: int, method: str, cross_check: bool) -> int:
    """The estimated nanoseconds of `delta_table(n, method, cross_check)`, charged
    as the rows' elapsed is: each route of a rank's plan at k = ell = r(n-r), once
    per share key, to the first rank that reads it.  The estimate is O(n)."""
    plan, closed_plan = _plans(method, cross_check)
    charged = {}
    for r in range(1, n):
        slack = r * (n - r)
        for route in closed_plan if method == "auto" and _closed_rank(n, r) else plan:
            key = route.name, route.share(n, r)
            if key not in charged:
                charged[key] = route.cost(n, r, slack, slack, True)
    return sum(charged.values())


def _warn_if_costly(total: int, plan: tuple, n: int) -> None:
    """Warn when `total` crosses the budget, naming n and the routes of `plan`."""
    if total >= _BUDGET_NS:
        warnings.warn(
            f"{' checked by '.join(route.name for route in plan)} at n={n} "
            f"is estimated to run for {total // 10**9} seconds",
            RuntimeWarning,
        )


def _no_closed_form(t: PatakiTriple) -> ValueError:
    return ValueError(f"no closed form applies to (m={t.m}, n={t.n}, r={t.r}); "
                      "use auto, psi_product, residue, or theorem1")


def _evaluate(rows, plans, closed_of, read):
    """A timed result per triple of `rows`: the (delta, method) `closed_of(t)`,
    else `read(route, t)` of its plan's first route, and when checked the
    plan's second route must agree; elapsed starts after the closed form."""
    plan, closed_plan = plans
    first, checked, results, clock = plan[0], len(plan) > 1, [], time.perf_counter
    for t in rows:
        closed = closed_of(t)
        start = clock()
        value, how = closed or (read(first, t), first.method)
        if checked:
            route = (closed_plan if closed else plan)[1]
            other = read(route, t)
            if other != value:
                raise CrossCheckError(DegreeResult(t, value, how),
                                      DegreeResult(t, other, route.method))
        results.append(DegreeResult(t, value, how, clock() - start))
    return results


def delta(
    t: PatakiTriple,
    method: str = "auto",
    cross_check: bool = False,
    points: Union[Sequence[Coeff], None] = None,
) -> DegreeResult:
    """Compute the degree, optionally verifying it with a second algorithm.

    "auto" prefers a closed form, otherwise runs the psi-product on the
    triple itself (the duality partner's sum runs over the same subset
    pairs, so computing the partner instead saves nothing), which expands
    only the masks of the subsets of its own ell, not a table's sweep.  With
    cross_check a second, independent method must agree exactly, else
    CrossCheckError carrying both results is raised: the residue sum checks
    the psi-product and theorem1, and the psi-product checks the residue sum
    and closed forms, so theorem1 runs only when it is requested.  A request
    estimated at 11 s or more, checker included, issues one RuntimeWarning
    before any kernel but a closed form runs.  The row runs through a table's
    row loop, by its routes' value kernels; elapsed covers what runs after
    the closed form.  Only the residue sum uses sample points, as the method
    or as the checker of a psi-product or theorem1 value; given ones are
    checked whichever method runs, "auto" included, even one ignoring them.
    """
    plans = _plans(method, cross_check)
    if points is not None:
        points = _sample_points(t.n, points)
    closed = delta_closed(t) if method in ("auto", "closed") else None
    if not closed and method == "closed":
        raise _no_closed_form(t)
    plan = plans[bool(closed)]
    _warn_if_costly(sum(route.cost(t.n, t.r, t.k, t.ell, False) for route in plan), plan, t.n)
    return _evaluate((t,), plans, lambda _: closed and (closed.delta, closed.method),
                     lambda route, _: route.value(t, points).delta)[0]


def delta_table(n: int, method: str = "auto", cross_check: bool = False) -> list[DegreeResult]:
    """`delta` on every triple of `valid_triples(n)`, in that order, rank by rank.

    "closed" fails on its first row without a closed form before any other
    kernel, and a table estimated at 11 s or more, checkers included, warns
    before it lists any row; a failed check raises CrossCheckError.  Rows
    run through `delta`'s row loop and share their route's work: psi-product
    rows read one `_psi_sweep` at sums[r][ell + C(r,2)], residue rows one
    uncapped `_residue_walk` at the default points per pair of ranks, with
    its one a([n]), and theorem1 rows call `delta_theorem1` one by one (see
    `DegreeResult`).  Each rank's triples are listed only when its rows come
    up, so a table whose shared work fails on its first rank without closed
    forms (`table 300`'s psi sweep cannot be allocated) lists no later rank.

    Every rank of the evaluated table must then pass its checksum: the sum of
    (-1)^ell delta over the rank is the Gaussian binomial [n choose r] at
    q = -1, C(n//2, r//2), or 0 when n is even and r odd; a mismatch raises
    ConsistencyError naming n, r and both sums.  It is not a cross-check: it
    rests on the psi identity rather than a second route, and a failed sum
    cannot name its wrong row.
    """
    plans = _plans(method, cross_check)
    _check_n(n)
    if method == "closed":
        # every row before the first rank `_closed_rank` rejects has a closed form
        for r in range(1, n):
            if not _closed_rank(n, r):
                raise _no_closed_form(next(t for t in _rank_triples(n, r) if not _closed_form(t)))
    _warn_if_costly(_table_cost_ns(n, method, cross_check), plans[0], n)
    shared = {}

    def read(route, t):
        # a route's work, run once per share key, on the first row that reads it
        key = route.name, route.share(n, t.r)
        if key not in shared:
            shared[key] = route.work(n, key[1])
        return route.read(shared[key], t)

    rows = chain.from_iterable(_rank_triples(n, r) for r in range(1, n))
    closed = _closed_form if method in ("auto", "closed") else lambda t: None
    results = _evaluate(rows, plans, closed, read)
    found = [0] * n
    for row in results:
        found[row.triple.r] += -row.delta if row.triple.ell & 1 else row.delta
    for r in range(1, n):
        expected = 0 if r & 1 and not n & 1 else comb(n // 2, r // 2)
        if found[r] != expected:
            raise ConsistencyError(
                f"rank checksum of table n={n} fails at r={r}: "
                f"sum of (-1)^l delta is {found[r]}, expected {expected}")
    return results
