"""Schur polynomials, Schur-basis decomposition, exact determinants, and
Pascal-minor expansion coefficients.

The Pascal-minor coefficients psi reproduce the Schur expansion of complete
homogeneous polynomials over pairwise-sum forms.  Numeric determinants use
fraction-free Bareiss elimination.  The Jacobi-Trudi determinant and Pieri
products, which the tests compare this kernel against, live in
`sdpdeg.checks`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Sequence

from .partitions import Partition, as_index_set, enumerate_partitions, index_set_of
from .polynomial import (
    Coeff,
    SparsePolynomial,
    VariableSpace,
    x_space,
)

SchurExpansion = dict[Partition, Coeff]


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


def _signed_permutations(n: int):
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        yield perm, -1 if inversions & 1 else 1


def _alternant(space: VariableSpace, exponents: Sequence[int]) -> SparsePolynomial:
    """det(x_i ^ exponents_j) expanded over signed permutations."""
    r = space.arity
    terms: dict[tuple[int, ...], Coeff] = {}
    for perm, sign in _signed_permutations(r):
        mono = tuple(exponents[perm[i]] for i in range(r))
        terms[mono] = terms.get(mono, 0) + sign
    return SparsePolynomial(space, terms)


def _divide_exact(num: SparsePolynomial, den: SparsePolynomial) -> SparsePolynomial:
    """Long division in graded-lex order; the remainder must come out zero."""
    lead_den = den.leading_monomial()
    if lead_den is None:
        raise ZeroDivisionError("division by the zero polynomial")
    lc_den = den.coefficient_of(lead_den)
    quotient = num.space.zero()
    rem = num
    while not rem.is_zero():
        lead = rem.leading_monomial()
        shift = tuple(map(int.__sub__, lead, lead_den))
        if any(e < 0 for e in shift):
            raise ArithmeticError("non-exact polynomial division")
        c = _exact_div(rem.coefficient_of(lead), lc_den)
        term = SparsePolynomial(num.space, {shift: c})
        quotient = quotient + term
        rem = rem - den * term
    return quotient


def schur_bialternant(lam: Partition, r: int) -> SparsePolynomial:
    """Schur polynomial in r variables as the alternant quotient.

    Numerator det(x_i^(lam_j + r - j)) divided by the Vandermonde alternant;
    the division is exact, and a nonzero remainder would indicate a bug.
    """
    if r < 1:
        raise ValueError("need a positive variable count")
    if lam.length > r:
        raise ValueError(f"{lam} has more than {r} parts")
    space = x_space(r)
    padded = lam.pad(r)
    shifted = [padded[j] + (r - 1 - j) for j in range(r)]
    staircase = list(range(r - 1, -1, -1))
    return _divide_exact(_alternant(space, shifted), _alternant(space, staircase))


def _permute_variables(p: SparsePolynomial, mapping: Sequence[int]) -> SparsePolynomial:
    terms = {}
    for mono, c in p.terms.items():
        new = tuple(mono[mapping[i]] for i in range(len(mono)))
        terms[new] = c
    return SparsePolynomial._raw(p.space, terms)


def is_symmetric(p: SparsePolynomial) -> bool:
    """Invariance under all variable permutations, via adjacent transpositions."""
    r = p.space.arity
    for i in range(r - 1):
        mapping = list(range(r))
        mapping[i], mapping[i + 1] = mapping[i + 1], mapping[i]
        if _permute_variables(p, mapping) != p:
            return False
    return True


def schur_decompose(p: SparsePolynomial) -> SchurExpansion:
    """Exact expansion of a symmetric polynomial in the Schur basis.

    Peels the graded-lex leading term: for symmetric p it is x^alpha with
    alpha weakly decreasing, and subtracting that multiple of s_alpha
    strictly lowers the leading term, so this terminates.
    """
    if not is_symmetric(p):
        raise ValueError("polynomial is not symmetric under variable permutations")
    r = p.space.arity
    out: SchurExpansion = {}
    rem = p
    while not rem.is_zero():
        alpha = rem.leading_monomial()
        if any(alpha[i] < alpha[i + 1] for i in range(r - 1)):
            raise ValueError(f"leading exponent {alpha} is not weakly decreasing")
        lam = Partition(alpha)
        c = rem.coefficient_of(alpha)
        out[lam] = c
        rem = rem - schur_bialternant(lam, r) * c
    return out


def h_schur_expansion(d: int, r: int) -> SchurExpansion:
    """Schur coefficients of h_d over the C(r+1,2) pairwise-sum forms.

    Each partition of d with at most r parts contributes psi of its index
    set; the expansion has no other terms.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    out: SchurExpansion = {}
    for lam in enumerate_partitions(d, max_len=r):
        out[lam] = psi(index_set_of(lam, r))
    return out
