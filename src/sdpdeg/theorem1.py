"""Coefficient extraction ("theorem1"), imported by `degree.delta_theorem1` on its first call.

The paper's Theorem 1 reads delta off the coefficient of (x1...y_{n-r})^(n-1)
in h_l(X) * h_k(Y) * prod_{i!=j}(x_i - x_j) * prod_{i!=j}(y_i - y_j) *
prod(y_i - x_j), divided by r!(n-r)!.  Each prod_{i!=j} is (-1)^C(t,2) a^2
for the alternant a = prod_{i<j}, and one alternant per block carries the
division, so `theorem1_sum` needs no polynomial product.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Sequence


def _pair_sum_h(d: int, cap: Sequence[int]) -> dict[tuple[int, ...], int]:
    """h_d over the forms x_i + x_j (i <= j) of len(cap) variables, as
    {exponents: coefficient}, without the terms above `cap` in some variable.

    One form at a time, degrees ascending: h_deg += (x_i + x_j) h_{deg-1}.
    Coefficients are positive and exponents only grow, so a term dropped at
    the cap could never come back within it.  Its test oracle is
    `polynomial.complete_homogeneous`.
    """
    h = [{(0,) * len(cap): 1}] + [{} for _ in range(d)]
    for i, j in combinations_with_replacement(range(len(cap)), 2):
        for deg in range(1, d + 1):
            out = h[deg]
            for e, c in h[deg - 1].items():
                for v in (i, j):
                    if e[v] < cap[v]:
                        f = e[:v] + (e[v] + 1,) + e[v + 1:]
                        out[f] = out.get(f, 0) + c
    return h[d]


def _by_exponent_set(d: int, target: Sequence[int]) -> dict[int, int]:
    """`_pair_sum_h(d, target)` as {bitmask of the set of e: sum of sgn(e) c}
    over its terms c x^alpha, e = target - alpha; a term whose set of e has
    fewer than len(target) elements cancels in the Vandermonde and is dropped."""
    out: dict[int, int] = {}
    for alpha, c in _pair_sum_h(d, target).items():
        mask = inversions = 0
        for i in map(int.__sub__, target, alpha):
            inversions += (mask >> i).bit_count()  # earlier exponents above i
            mask |= 1 << i
        if mask.bit_count() == len(target):
            out[mask] = out.get(mask, 0) + (-1) ** inversions * c
    return out


def theorem1_sum(n: int, r: int, k: int, ell: int) -> int:
    """delta from n, r and the slacks k, ell, as one sum over complementary exponent sets.

    Over z = (x1..xr, y1..ys), a(x) * a(y) * prod(y_i - x_j) is
    (-1)^(rs + C(n,2)) sum_e sgn(e) z^e, e running over the permutations of
    (0, ..., n-1).  With X and Y the `_by_exponent_set` maps of h_l(X) at
    tx = (n-r, ..., n-1) and of h_k(Y) at ty = (r, ..., n-1), expanding
    along the x block gives delta = sum of X(S) * Y(S^c) over the r-subsets
    S of {0..n-1}: every S met has sum(S) - C(r,2) = k, so the sign that
    shuffles e_x and e_y together cancels the theorem's (-1)^k.
    """
    x = _by_exponent_set(ell, tuple(range(n - r, n)))
    y = _by_exponent_set(k, tuple(range(r, n)))
    full = (1 << n) - 1
    return sum(c * y.get(full ^ mask, 0) for mask, c in x.items())
