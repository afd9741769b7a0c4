"""Exact determinants and Pascal-minor coefficients.

Numeric determinants use fraction-free Bareiss elimination.  The
Pascal-minor coefficients psi, indexed by the index sets `as_index_set`
validates, reproduce the Schur expansion of complete homogeneous
polynomials over pairwise-sum forms; the Schur-basis constructions that
check it live in `sdpdeg.checks`.  The psi-product computes the same psi
as a Pfaffian (`degree.psi_pfaffian`); the minor sums here are its test
oracle, off the production path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .degree import Coeff


def as_index_set(indices: Iterable[int]) -> tuple[int, ...]:
    """Validate a strictly increasing sequence of nonnegative integers."""
    idx = tuple(indices)
    if any(isinstance(i, bool) or not isinstance(i, int) for i in idx):
        raise TypeError(f"indices must be int: {idx}")
    if any(i < 0 for i in idx):
        raise ValueError(f"indices must be nonnegative: {idx}")
    if any(idx[j] >= idx[j + 1] for j in range(len(idx) - 1)):
        raise ValueError(f"indices must be strictly increasing: {idx}")
    return idx


def _exact_div(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(a, int) and isinstance(b, int):
        q, rem = divmod(a, b)
        if rem:
            raise ArithmeticError(f"non-exact division {a}/{b} in fraction-free elimination")
        return q
    return Fraction(a) / Fraction(b)


def bareiss_det(matrix: Sequence[Sequence[Coeff]]) -> Coeff:
    """Exact determinant by fraction-free Bareiss elimination with row pivoting.

    Integer input stays integer throughout; Fraction entries are handled by
    exact field division.  The empty matrix has determinant 1.
    """
    k = len(matrix)
    if k == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != k for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev: Coeff = 1
    for col in range(k - 1):
        pivot_row = next((i for i in range(col, k) if m[i][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for i in range(col + 1, k):
            row_i, row_c = m[i], m[col]
            head = row_i[col]
            for j in range(col + 1, k):
                row_i[j] = _exact_div(row_i[j] * pivot - head * row_c[j], prev)
            row_i[col] = 0
        prev = pivot
    return sign * m[k - 1][k - 1]


def pascal_minor_det(rows: Sequence[int], cols: Sequence[int]) -> int:
    """Determinant of the binomial submatrix with entries C(i, j)."""
    I = as_index_set(rows)
    J = as_index_set(cols)
    if len(I) != len(J):
        raise ValueError("row and column sets must have equal size")
    return bareiss_det([[comb(i, j) for j in J] for i in I])


def psi(indices: Sequence[int]) -> int:
    """Sum of det(M_{I,J}) over all column sets J of the same size as I.

    A column j > max(I) is identically zero (C(i, j) = 0 for j > i), so the
    a-priori infinite sum over column sets restricts to J within
    {0, ..., max(I)} and is finite.
    """
    I = as_index_set(indices)
    if not I:
        return 1
    top = I[-1]
    return sum(pascal_minor_det(I, J) for J in combinations(range(top + 1), len(I)))
