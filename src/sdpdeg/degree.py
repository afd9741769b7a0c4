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
    up to sign, the Vandermonde of z = (x1..xr, y1..y_{n-r}).  Expanded
    along the x block, delta is the sum over the r-subsets S of {0..n-1} of
    the signed h_l(X) coefficients on the exponent set S times the signed
    h_k(Y) coefficients on its complement, with no division;

  * the residue subset sum ("residue"): for pairwise-distinct sample values
    lambda_1..lambda_n, sum over r-subsets I of [n] the products
    h_l(Lambda_I) * h_k(Lambda_{I^c}) / prod_{i in I, j not in I}(l_i - l_j)
    and multiply by (-1)^k, where Lambda_I is the multiset of pairwise sums
    of the chosen values.  All terms share the one denominator
    prod_{i<j}(l_i - l_j), divided out at the end.  One depth-first walk
    decides index by index whether i joins I or I^c and carries both h
    series, read off prod_v 1/(1 - v t), so each pairwise sum is pushed
    into a series once per prefix, not once per subset.  A single value
    caps the series at l and k; a table walks each rank once, uncapped, and
    reads every l of it off the leaves.  It never forms a polynomial, so it
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
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from typing import Callable, Sequence, Union

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
    set at construction, outside the fields, and k + ell = r(n-r).
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
        object.__setattr__(self, "k", m - lower)
        object.__setattr__(self, "ell", upper - m)


@dataclass(frozen=True)
class DegreeResult:
    """A degree value with the method that produced it.

    elapsed is the time `delta` or `delta_table` ran the row's planned
    kernels, cross-check included, in seconds; a kernel called directly
    leaves it None (not timed).  In a table, the first psi-product row
    carries the whole psi sweep, every rank's sums included, and every later
    psi-product row a lookup; likewise the first residue row of each rank,
    as the method or as the checker, carries that rank's walk, and every
    later residue row of the rank a lookup.
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
    `_pair_sum_h`, theorem1's form-level DP.
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
    fraction-free Bareiss; h_0 is the empty determinant 1.  It is the test
    oracle of `_push`, from which the residue walk reads h.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1
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


def _as_positive_integer(value: Coeff, label: str, t: PatakiTriple) -> int:
    """value as a positive int, or ConsistencyError naming `label` and `t`."""
    if not isinstance(value, int):
        value = Fraction(value)
        if value.denominator != 1:
            raise ConsistencyError(f"{label} on {t}: non-integral value {value}")
        value = value.numerator
    if value < 1:
        raise ConsistencyError(f"{label} on {t}: non-positive value {value}")
    return value


def _pair_sum_h(r: int, d: int, cap: Sequence[int]) -> dict[tuple[int, ...], int]:
    """h_d over the forms x_i + x_j (i <= j) of r variables, as {exponents:
    coefficient}, without the terms above `cap` in some variable.

    One form at a time, degrees ascending: h_deg += (x_i + x_j) h_{deg-1}.
    Coefficients are positive and exponents only grow, so a term dropped at
    the cap could never come back within it.  Its test oracle is
    `polynomial.complete_homogeneous`.
    """
    h = [{(0,) * r: 1}] + [{} for _ in range(d)]
    for i, j in combinations_with_replacement(range(r), 2):
        for deg in range(1, d + 1):
            out = h[deg]
            for e, c in h[deg - 1].items():
                for v in (i, j):
                    if e[v] < cap[v]:
                        f = e[:v] + (e[v] + 1,) + e[v + 1:]
                        out[f] = out.get(f, 0) + c
    return h[d]


def _by_exponent_set(v: int, d: int, target: Sequence[int]) -> dict[int, int]:
    """`_pair_sum_h(v, d, target)` as {bitmask of the set of e: sum of sgn(e) c}
    over its terms c x^alpha, e = target - alpha; a term whose e repeats an
    exponent cancels in the Vandermonde and is dropped."""
    out: dict[int, int] = {}
    for alpha, c in _pair_sum_h(v, d, target).items():
        mask = inversions = 0
        for i in map(int.__sub__, target, alpha):
            inversions += (mask >> i).bit_count()  # earlier exponents above i
            mask |= 1 << i
        if mask.bit_count() == v:
            out[mask] = out.get(mask, 0) + (-1) ** inversions * c
    return out


def delta_theorem1(t: PatakiTriple) -> DegreeResult:
    """Degree by coefficient extraction, as one sum over complementary exponent sets.

    Over z = (x1..xr, y1..ys), a(x) * a(y) * prod(y_i - x_j) is
    (-1)^(rs + C(n,2)) sum_e sgn(e) z^e, e running over the permutations of
    (0, ..., n-1).  With X and Y the `_by_exponent_set` maps of h_l(X) at
    tx = (n-r, ..., n-1) and of h_k(Y) at ty = (r, ..., n-1), expanding
    along the x block gives delta = sum of X(S) * Y(S^c) over the r-subsets
    S of {0..n-1}: every S met has sum(S) - C(r,2) = k, so the sign that
    shuffles e_x and e_y together cancels the theorem's (-1)^k.
    """
    r, n = t.r, t.n
    x = _by_exponent_set(r, t.ell, tuple(range(n - r, n)))
    y = _by_exponent_set(n - r, t.k, tuple(range(r, n)))
    full = (1 << n) - 1
    total = sum(c * y.get(full ^ mask, 0) for mask, c in x.items())
    delta_value = _as_positive_integer(total, "coefficient extraction", t)
    return DegreeResult(t, delta_value, Method.THEOREM1)


def _residue_walk(pts: SamplePoints, r: int, ells: Sequence[int]) -> list[Coeff]:
    """The residue numerators sums[l] = sum over the r-subsets I of
    (-1)^sum(I) a(I) a(I^c) h_l(Lambda_I) h_{L-l}(Lambda_{I^c}) for each l in
    `ells` (0 at every other l), L = r(n-r), in one depth-first walk.

    The walk decides index by index whether i joins I or I^c and carries both
    h series, both alternants a(S) = prod_{i<j in S}(l_i - l_j) and the sign.
    Joining a side of s indices pushes its s + 1 new pairwise sums l_i + l_j
    (j on that side or i) into that side's series, so subsets with a common
    prefix share its work.  The I series is capped at max(ells), the I^c
    series at L - min(ells); `_walk_pushes` counts the multiply-adds.
    """
    n, push = len(pts), _push
    total = r * (n - r)
    sums: list[Coeff] = [0] * (total + 1)

    def walk(i: int, xs: list, ys: list, hx: list, hy: list, w: Coeff) -> None:
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
    and cap_y: the C(i, a) walks that reach index i with |I| = a push a + 1
    sums at cap_x when i joins I and i - a + 1 at cap_y when it joins I^c."""
    return sum(
        comb(i, a) * ((a + 1) * cap_x * (a < r) + (i - a + 1) * cap_y * (i - a < n - r))
        for i in range(n)
        for a in range(max(0, i - n + r), min(i, r) + 1)
    )


def delta_residue(
    t: PatakiTriple, points: Union[Sequence[Coeff], None] = None, shared: Union[dict, None] = None
) -> DegreeResult:
    """Degree by the exact residue sum over r-subsets of the sample points.

    Any pairwise-distinct points give the same value.  For the alternants
    a(S) = prod_{i<j in S}(l_i - l_j), 1 / prod_{i in I, j not in I}(l_i - l_j)
    is (-1)^(sum I - C(r,2)) a(I) a(I^c) / a([n]): the terms add up to one
    numerator, and a([n]) and (-1)^C(r,2) are applied once.  Alone, the call
    walks the subsets once with its series capped at ell and k.  The rows of
    one `delta_table` call share a dict holding one uncapped walk per rank,
    keyed (n, r), with the numerators of every ell, so every later row of the
    rank is a lookup; a table uses the default points.
    """
    n, r, k, ell = t.n, t.r, t.k, t.ell
    pts = _sample_points(n, points)
    if shared is None:
        numerators = _residue_walk(pts, r, (ell,))
    else:
        if (n, r) not in shared:
            shared[n, r] = _residue_walk(pts, r, range(k + ell + 1))
        numerators = shared[n, r]
    whole = prod(pts[i] - pts[j] for i, j in combinations(range(n), 2))
    value = (-1) ** (k + comb(r, 2)) * Fraction(numerators[ell]) / whole
    delta_value = _as_positive_integer(value, "residue sum", t)
    return DegreeResult(t, delta_value, Method.RESIDUE)


def _pascal_pairs(n: int) -> list[list[int]]:
    """psi's bordered skew matrix as a triangle: row t < n is column t above the
    diagonal, psi_{jt} = sum_{u=j}^{t-1} C(j+t, u) for j < t, then the border 2^t."""
    return [[sum(comb(j + t, u) for u in range(j, t)) for j in range(t)] + [1 << t]
            for t in range(n)]


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
    expand, pairs = _psi_expand, _pascal_pairs(n)
    top = 1 << (n - 1)
    full, sum_all = 2 * top - 1, comb(n, 2)
    psi = [1] * top
    sums = [[0] * (sum_all + 1) for _ in range(n + 1)]
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


def delta_psi_product(t: PatakiTriple, shared: Union[dict, None] = None) -> DegreeResult:
    """Degree by the psi-product of von Bothmer and Ranestad.

    delta = sum of psi_I * psi_{I^c} over the r-subsets I of {0..n-1} with
    sum(I) - C(r,2) = ell, where I^c is the complement of I.  Alone, the call
    sums only the subsets of its ell, through its own `psi_pfaffian` memo,
    which expands only the masks they reach.  The rows of one `delta_table`
    call share a dict holding the sums of one `_psi_sweep`, so every row is
    a lookup.
    """
    n, r = t.n, t.r
    weight = t.ell + comb(r, 2)
    if shared is None:
        psi, full, value = psi_pfaffian(n), (1 << n) - 1, 0
        for subset in combinations(range(n), r):
            if sum(subset) == weight:
                mask = sum(1 << i for i in subset)
                value += psi[mask] * psi[full ^ mask]
    else:
        if n not in shared:
            shared[n] = _psi_sweep(n)
        value = shared[n][r][weight]
    delta_value = _as_positive_integer(value, "psi-product", t)
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
    does not match, the patterns are tried on the values of its duality
    partner (C(n+1,2) - m, n, n - r) and the result tagged as reduced
    through duality.
    """
    m, n, r = t.m, t.n, t.r
    method, value = Method.CLOSED_FORM, _closed_pattern(m, n, r)
    if value is None:
        method, value = Method.DUALITY_REDUCED, _closed_pattern(n * (n + 1) // 2 - m, n, n - r)
    if value is None:
        return None
    return DegreeResult(t, _as_positive_integer(value, method.value, t), method)


#: The method names `delta` and `delta_table` accept.
METHODS = ("auto", "theorem1", "residue", "psi_product", "closed")

# The kernel of each planned method but a closed form, named through this
# module's globals at call time, so that a kernel replaced on the module (a
# test fake, a tracing wrapper) is the one that runs.
_KERNELS: dict[Method, Callable[..., DegreeResult]] = {
    Method.THEOREM1: lambda t, points, shared: delta_theorem1(t),
    Method.RESIDUE: lambda t, points, shared: delta_residue(t, points, shared),
    Method.PSI_PRODUCT: lambda t, points, shared: delta_psi_product(t, shared),
}

# The method that confirms a result, by the method that produced it.  The
# psi-product and the residue sum check each other, so theorem1 runs only when
# it is requested.
_CHECKER: dict[Method, Method] = {
    Method.CLOSED_FORM: Method.PSI_PRODUCT,
    Method.RESIDUE: Method.PSI_PRODUCT,
    Method.PSI_PRODUCT: Method.RESIDUE,
    Method.THEOREM1: Method.RESIDUE,
}

#: The estimated nanoseconds from which a request warns before it starts.
_BUDGET_NS = 11_000_000_000

_NAMES = {
    Method.CLOSED_FORM: "a closed form",
    Method.PSI_PRODUCT: "the psi-product",
    Method.RESIDUE: "the residue sum",
    Method.THEOREM1: "theorem1",
}


def _cost_ns(
    method: Method, n: int, r: int, k: int, ell: int, counted: Union[set, None] = None
) -> int:
    """The estimated nanoseconds of one `method` call on a triple: its work
    units times the time per unit, calibrated on a 2-core Xeon VM with
    process start included, so that the requests named below fall exactly
    on their side of `_BUDGET_NS`.

    A table passes `counted`, the n whose psi sweep and the (n, r) whose
    residue walk its earlier rows already carry; a psi-product or residue
    row is charged only what it is first to need, as its elapsed is.
    """
    if method is Method.PSI_PRODUCT:
        if counted is None:
            # At most 2^n memo masks, each expanded over at most n indices,
            # 18 ns a unit: one value took 8 s at (150, 24, 12), 40 s at
            # (169, 25, 12).
            return 18 * (n << n)
        # A table sweeps all 2^n masks once, each expanded over at most n
        # indices, 100 ns a unit: table 20 took 2.1 s, table 21 4.2 s,
        # table 22 8.7 s.
        if n in counted:
            return 0
        counted.add(n)
        return 100 * (n << n)
    if method is Method.RESIDUE:
        # The multiply-adds of the walk, 70 ns each: 0.76 s at (80, 16, 8),
        # 0.35 s at (6, 30, 28), 22 s at (9, 40, 37); checked, (145, 19, 9)
        # took 10.0 s and (143, 20, 7) 9.6 s.  A table walks each rank
        # once, uncapped at r(n-r): table 16 --check took 8.0 s, table 17
        # --check 19.6 s.
        if counted is None:
            return 70 * _walk_pushes(n, r, ell, k)
        if (n, r) in counted:
            return 0
        counted.add((n, r))
        return 70 * _walk_pushes(n, r, k + ell, k + ell)
    if method is Method.THEOREM1:
        # A bound on the DP pushes of the two h blocks, C(d+v-1, v-1) terms
        # times C(v+1, 2) forms times d degrees for (v, d) = (r, ell) and
        # (n-r, k), 45 ns each: (3, 10, 8) took 5.4 s, (6, 10, 7) 4.6 s,
        # (3, 11, 9) 52 s.
        blocks = ((r, ell), (n - r, k))
        return 45 * sum(comb(d + v - 1, v - 1) * comb(v + 1, 2) * d for v, d in blocks)
    return 0


def _warn_if_costly(plans: Sequence[tuple], table: bool) -> None:
    """Warn once when the plans of all rows are estimated to cross the
    budget, naming the methods of the costliest row, n and the estimate.
    The psi-product rows of a table are estimated as sharing one sweep, and
    the residue rows of each rank as sharing one walk."""
    total, top, costliest = 0, -1, ()
    counted = set() if table else None
    for t, plan, _ in plans:
        cost = sum(_cost_ns(p, t.n, t.r, t.k, t.ell, counted) for p in plan)
        total += cost
        if cost > top:
            top, costliest = cost, plan
    if total >= _BUDGET_NS:
        warnings.warn(
            f"{' checked by '.join(_NAMES[p] for p in costliest)} at n={t.n} "
            f"is estimated to run for {total // 10**9} seconds",
            RuntimeWarning,
        )


def _evaluate(
    rows: Callable[[], list[PatakiTriple]],
    method: str,
    cross_check: bool,
    points: Union[Sequence[Coeff], None] = None,
    shared: Union[dict, None] = None,
) -> list[DegreeResult]:
    """`method` on every triple of `rows()`: each row planned, all estimated, each run.

    A plan is the tuple of methods one row runs, checker last.  Planning an
    "auto" or "closed" row computes its closed form, which costs nothing,
    and keeps it; a "closed" row without one raises.  The method name is
    checked before `rows()` and the sample points, and one warning from the
    summed estimate of all plans precedes every kernel but the closed forms.
    A `shared` dict, given by a table, is passed to every psi-product and
    residue row.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    triples = rows()
    if points is not None:
        points = _sample_points(triples[0].n, points)
    plans = []
    for t in triples:
        closed = delta_closed(t) if method in ("auto", "closed") else None
        if closed is not None:
            first = Method.CLOSED_FORM
        elif method == "auto":
            first = Method.PSI_PRODUCT
        elif method == "closed":
            raise ValueError(
                f"no closed form applies to (m={t.m}, n={t.n}, r={t.r}); "
                "use auto, psi_product, residue, or theorem1"
            )
        else:
            first = Method(method)
        plans.append((t, (first, _CHECKER[first]) if cross_check else (first,), closed))
    _warn_if_costly(plans, shared is not None)
    results = []
    for t, plan, closed in plans:
        start = time.perf_counter()
        result = closed or _KERNELS[plan[0]](t, points, shared)
        if cross_check:
            second = _KERNELS[plan[1]](t, points, shared)
            if second.delta != result.delta:
                raise CrossCheckError(result, second)
        results.append(DegreeResult(t, result.delta, result.method, time.perf_counter() - start))
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
    and closed forms, so theorem1 runs only when it is requested.  A
    request estimated at 11 s or more, checker included, issues one
    RuntimeWarning before any kernel but a closed form runs; elapsed covers
    the kernels run after it.  Only the residue sum uses sample points, as
    the method or as the checker of a psi-product or theorem1 value; given
    ones are checked whichever method runs, "auto" included, even one that
    does not use them.
    """
    return _evaluate(lambda: [t], method, cross_check, points)[0]


def delta_table(n: int, method: str = "auto", cross_check: bool = False) -> list[DegreeResult]:
    """`delta` on every triple of `valid_triples(n)`, in that order.

    Every row is planned before any runs, so `method="closed"` fails before
    any other kernel when a row has no closed form, and the table warns
    once when the estimates of all its rows, checkers included, add up to
    11 s or more.  A row that fails its check raises CrossCheckError, so no
    partial table is returned.  The residue sum uses the default points.

    The psi-product rows share one `_psi_sweep`, which lives for this call:
    one list of the 2^(n-1) psi values without index n-1, filled in
    ascending order, and the sums of every rank from a second pass over the
    masks with it.  The first psi-product row carries the sweep in its
    elapsed, and every later psi-product row a lookup.  The residue rows,
    as the method or as the checker, share one `_residue_walk` per rank in
    the same dict, carried by the rank's first residue row.
    """
    return _evaluate(lambda: valid_triples(n), method, cross_check, shared={})
