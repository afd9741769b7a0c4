"""Test-only machinery: brute-force evaluators and independent constructions
used as ground truth by the verify suites (defined here) and the tests.

Everything here favors transparency over speed: root tuples and subsets are
enumerated outright, products are formed without caps, alternants are
written out by their definition, and none of it reuses the optimized degree
algorithms these checks validate.  Only the CLI's `verify` command and the
tests import this module.  `random_polynomial` draws the seeded test
polynomials, `pairwise_sums` lists the pairwise sums Lambda of the residue
sum, and `difference_product` multiplies out Theorem 1's difference products.

Besides the brute-force oracles it holds the Schur-basis constructions,
labelled by index sets (the strictly increasing tuples `psi` takes), which
`index_sets` lists: Schur polynomials as alternant quotients
(`schur_bialternant`), the symmetry test and Schur-basis decomposition
(`is_symmetric`, `schur_decompose`, which reads every Schur coefficient of p
off the one product a_delta * p), the psi-weighted expansion of h_d over
pairwise sums (`h_schur_expansion`) and elementary symmetric polynomials.

The `SUITES` (`run_lemma21`, `run_prop22`, `run_identities`,
`run_cross_methods`) pit two independent computations against each other
(Lemma 2.1, Proposition 2.2, the psi and Schur identities, the delta
methods) and return a `SuiteReport`: exact-match counts and a printable
counterexample for the first failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from typing import Callable, Iterable, Sequence, Union

from .degree import (
    delta_closed,
    delta_psi_product,
    delta_residue,
    delta_theorem1,
    random_sample_points,
    valid_triples,
)
from .polynomial import (
    Coeff,
    SparsePolynomial,
    VariableSpace,
    complete_homogeneous,
    pairwise_sum_forms,
    x_space,
    xy_space,
)
from .schur import _exact_div, as_index_set, psi


SchurExpansion = dict[tuple[int, ...], Coeff]


def residue_sum(qs: Sequence[Sequence[Coeff]], f: SparsePolynomial) -> Fraction:
    """Sum of F(roots) / (Q_1'...Q_n') over all root tuples.

    Each Q_i is the monic polynomial with the pairwise-distinct roots qs[i],
    so Q_i'(a) is the product of a - b over the other roots b.  The sum
    equals the coefficient of x_1^{d_1}...x_n^{d_n} in F, where d_i is one
    less than the degree of Q_i, provided deg(F) <= d_1 + ... + d_n.
    """
    for roots in qs:
        if not roots:
            raise ValueError("need at least one root")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be pairwise distinct")
    if f.space.arity != len(qs):
        raise ValueError(f"F has arity {f.space.arity} but there are {len(qs)} polynomials")
    bound = sum(len(roots) - 1 for roots in qs)
    if f.total_degree() > bound:
        raise ValueError(f"deg(F) exceeds the hypothesis bound {bound}")
    total = Fraction(0)
    for point in product(*qs):
        denom = prod(
            prod(a - b for b in roots if b != a) for roots, a in zip(qs, point)
        )
        total += Fraction(f.evaluate(point)) / denom
    return total


def pairwise_sums(values: Sequence[Coeff]) -> list[Coeff]:
    """The multiset v_i + v_j over i <= j, diagonal included: Lambda of the
    residue sum, written out for the per-subset oracles."""
    vals = list(values)
    return [vals[i] + vals[j] for i in range(len(vals)) for j in range(i, len(vals))]


def _swap_invariant(p: SparsePolynomial, positions: Iterable[int]) -> bool:
    """Invariance under swapping variables i and i+1, for each i in positions."""
    terms = dict(p.terms)
    for i in positions:
        swapped = {
            mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2:]: c for mono, c in terms.items()
        }
        if swapped != terms:
            return False
    return True


def is_doubly_symmetric(p: SparsePolynomial, r: int) -> bool:
    """Invariance under permutations within the x block and within the y block."""
    n = p.space.arity
    if not 1 <= r <= n - 1:
        raise ValueError(f"block split r={r} invalid for arity {n}")
    return _swap_invariant(p, [*range(r - 1), *range(r, n - 1)])


def doubly_symmetric_sum(
    p: SparsePolynomial, lambdas: Sequence[Coeff], r: int
) -> Fraction:
    """Subset sum of P(lambda_I, lambda_{I^c}) over the difference products.

    For doubly symmetric P of degree at most r(n-r) this equals
    d(r,n) / (r!(n-r)!) with d(r,n) from d_coefficient, independent of the
    (pairwise-distinct) lambda values.
    """
    n = p.space.arity
    lams = tuple(lambdas)
    if len(lams) != n:
        raise ValueError(f"need {n} values, got {len(lams)}")
    if len(set(lams)) != n:
        raise ValueError("values must be pairwise distinct")
    if not is_doubly_symmetric(p, r):
        raise ValueError("polynomial is not doubly symmetric")
    if p.total_degree() > r * (n - r):
        raise ValueError(f"degree exceeds the hypothesis bound {r * (n - r)}")
    total = Fraction(0)
    for subset in combinations(range(n), r):
        chosen = set(subset)
        rest = tuple(j for j in range(n) if j not in chosen)
        point = [lams[i] for i in subset] + [lams[j] for j in rest]
        denom = prod(lams[i] - lams[j] for i in subset for j in rest)
        total += Fraction(p.evaluate(point)) / denom
    return total


def difference_product(
    space: VariableSpace, pairs: Iterable[tuple[int, int]]
) -> SparsePolynomial:
    """The product of v_i - v_j over the ordered index pairs (i, j), factor by factor."""
    full = space.one()
    for i, j in pairs:
        full = full * (space.variable(i) - space.variable(j))
    return full


def d_coefficient(p: SparsePolynomial, r: int, n: int) -> Coeff:
    """Coefficient of (x_1...y_{n-r})^(n-1) in P * prod_{i!=j}(x_i - x_j) *
    prod_{i!=j}(y_i - y_j) * prod(y_i - x_j), Theorem 1's difference product:
    `difference_product` over every ordered pair of distinct variables but an
    x before a y, formed without caps or reordering."""
    space = p.space
    if space.arity != n:
        raise ValueError(f"polynomial has arity {space.arity}, expected {n}")
    pairs = ((i, j) for i, j in permutations(range(n), 2) if not i < r <= j)
    return (p * difference_product(space, pairs)).coefficient_of((n - 1,) * n)


def random_polynomial(
    rng: random.Random,
    space: VariableSpace,
    max_deg: int,
    corner: Union[tuple[int, ...], None] = None,
) -> SparsePolynomial:
    """A sum of arity + max_deg + 2 random terms of degree at most max_deg.

    Coefficients lie in [-5, 5].  Given a corner monomial, half the draws add
    one more term there, so that the coefficient a check reads there is
    often nonzero.
    """
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(space.arity + max_deg + 2):
        exponents = [0] * space.arity
        for _ in range(rng.randint(0, max_deg)):
            exponents[rng.randrange(space.arity)] += 1
        mono = tuple(exponents)
        terms[mono] = terms.get(mono, 0) + rng.randint(-5, 5)
    if corner is not None and rng.random() < 0.5:
        terms[corner] = terms.get(corner, 0) + rng.randint(-5, 5)
    return SparsePolynomial(space, terms)


def random_doubly_symmetric(
    r: int, n: int, max_deg: int, seed: int
) -> SparsePolynomial:
    """A random integer polynomial symmetrized over both variable blocks.

    Orbit-sum symmetrization over S_r x S_{n-r} guarantees the double
    symmetry outright; deterministic for a fixed seed.
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"block split r={r} invalid for n={n}")
    if max_deg < 0 or max_deg > r * (n - r):
        raise ValueError(f"max_deg must lie in [0, {r * (n - r)}]")
    space = xy_space(r, n - r)
    base = random_polynomial(random.Random(seed), space, max_deg).terms
    symmetrized: dict[tuple[int, ...], int] = {}
    for sigma, theta in product(permutations(range(r)), permutations(range(r, n))):
        mapping = sigma + theta
        for mono, c in base.items():
            image = tuple(mono[i] for i in mapping)
            symmetrized[image] = symmetrized.get(image, 0) + c
    return SparsePolynomial(space, symmetrized)


def _sign(perm: Sequence[int]) -> int:
    """(-1) to the number of inversions of the permutation."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def permutation_det(matrix: Sequence[Sequence[Coeff]]) -> Coeff:
    """Determinant by the Leibniz formula, sum_p sign(p) * prod_i matrix[i][p(i)].

    The numeric oracle for `bareiss_det`; the empty matrix has determinant 1.
    """
    return sum(
        _sign(perm) * prod(row[j] for row, j in zip(matrix, perm))
        for perm in permutations(range(len(matrix)))
    )


def elementary_symmetric(forms: Sequence[SparsePolynomial], k: int) -> SparsePolynomial:
    """Elementary symmetric e_k over a list of polynomials.

    Sum over all k-subsets of products; e_0 = 1, and e_k = 0 when k exceeds
    the number of forms.  Descending index updates use each form at most
    once, the mirror image of the recurrence in `complete_homogeneous`.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if not forms:
        raise ValueError("need at least one form")
    space = forms[0].space
    e = [space.one()] + [space.zero()] * k
    for f in forms:
        for j in range(k, 0, -1):
            e[j] = e[j] + f * e[j - 1]
    return e[k]


def _alternant(space: VariableSpace, exponents: Sequence[int]) -> SparsePolynomial:
    """det(x_i ^ exponents_j): the term sign(p) * x^(exponents o p) for each
    permutation p, all distinct because the exponents increase strictly."""
    return SparsePolynomial(space, {
        tuple(exponents[j] for j in perm): _sign(perm)
        for perm in permutations(range(len(exponents)))
    })


def _divide_exact(num: SparsePolynomial, den: SparsePolynomial) -> SparsePolynomial:
    """Long division in graded-lex order; the remainder must come out zero."""
    lead_den = den.leading_monomial()
    if lead_den is None:
        raise ZeroDivisionError("division by the zero polynomial")
    lc_den = den.coefficient_of(lead_den)
    quotient = num.space.zero()
    rem = num
    while rem:
        lead = rem.leading_monomial()
        shift = tuple(map(int.__sub__, lead, lead_den))
        if any(e < 0 for e in shift):
            raise ArithmeticError("non-exact polynomial division")
        c = _exact_div(rem.coefficient_of(lead), lc_den)
        term = SparsePolynomial(num.space, {shift: c})
        quotient = quotient + term
        rem = rem - den * term
    return quotient


def index_sets(d: int, r: int) -> list[tuple[int, ...]]:
    """The r-element index sets of weight d, in ascending lexicographic order.

    These are the subsets I of range(d + r) with sum(I) - C(r, 2) = d, one
    for each partition of d into at most r parts; they label the Schur
    polynomials of degree d in r variables.
    """
    if d < 0:
        raise ValueError("weight must be nonnegative")
    if r < 1:
        raise ValueError("need a positive set size")
    return [I for I in combinations(range(d + r), r) if sum(I) - comb(r, 2) == d]


def schur_bialternant(indices: Iterable[int]) -> SparsePolynomial:
    """Schur polynomial s_I in len(I) variables as the alternant quotient.

    The index set I is the exponent vector of the numerator det(x_i^(I_j)),
    and the denominator is the Vandermonde alternant det(x_i^j); the division
    is exact, and a nonzero remainder would indicate a bug.
    """
    idx = as_index_set(indices)
    space = x_space(len(idx))
    return _divide_exact(_alternant(space, idx), _alternant(space, range(len(idx))))


def is_symmetric(p: SparsePolynomial) -> bool:
    """Invariance under all variable permutations, via adjacent transpositions."""
    return _swap_invariant(p, range(p.space.arity - 1))


def schur_decompose(p: SparsePolynomial) -> SchurExpansion:
    """Exact expansion of a symmetric polynomial in the Schur basis.

    By the bialternant identity a_delta * p = sum_I c_I * a_I, where
    a_I = det(x_i^(I_j)) and delta = (0, 1, ..., r-1), each coefficient c_I
    is the coefficient of x^I in the one product a_delta * p (Macdonald,
    Symmetric Functions and Hall Polynomials, I.3).  The monomials of a_I are
    the permutations of I, so alternants of distinct index sets share no
    monomial, and x^I, with coefficient 1, is the only one of them whose
    exponents increase strictly.  The result is keyed by index set, in
    ascending order.
    """
    if not is_symmetric(p):
        raise ValueError("polynomial is not symmetric under variable permutations")
    antisymmetric = _alternant(p.space, range(p.space.arity)) * p
    return {
        I: c for I, c in sorted(antisymmetric.terms.items())
        if all(a < b for a, b in zip(I, I[1:]))
    }


def h_schur_expansion(d: int, r: int) -> SchurExpansion:
    """Schur coefficients of h_d over the C(r+1,2) pairwise-sum forms.

    Each index set of weight d with r elements contributes its psi; the
    expansion has no other terms.
    """
    return {I: psi(I) for I in index_sets(d, r)}


# Seeded cases per run of the lemma21 and prop22 suites (prop22 checks each
# case at three point sets).
_LEMMA21_CASES = 100
_PROP22_CASES = 50


@dataclass
class SuiteReport:
    passed: int = 0
    failed: int = 0
    first_failure: Union[str, None] = None

    @property
    def total(self) -> int:
        return self.passed + self.failed

    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, describe: Callable[[], str]) -> None:
        """Count one comparison; keep the description of the first failure."""
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = describe()


def run_lemma21(seed: int = 0, max_n: int = 0) -> SuiteReport:
    """Root-tuple residue sums against direct coefficient extraction."""
    del max_n
    report = SuiteReport()
    rng = random.Random(seed)
    for case in range(_LEMMA21_CASES):
        nvars = rng.randint(1, 3)
        qs = [rng.sample(range(-9, 10), rng.randint(2, 4)) for _ in range(nvars)]
        degrees = tuple(len(roots) - 1 for roots in qs)
        space = x_space(nvars)
        f = random_polynomial(rng, space, sum(degrees), corner=degrees)
        expected = f.coefficient_of(degrees)
        got = residue_sum(qs, f)
        report.check(
            got == expected,
            lambda: (
                f"case {case}: roots {qs}\n"
                f"F = {f}\nexpected coefficient {expected}, residue sum {got}"
            ),
        )
    return report


def run_prop22(seed: int = 0, max_n: int = 0) -> SuiteReport:
    """Doubly symmetric subset sums against the target-monomial coefficient."""
    del max_n
    report = SuiteReport()
    rng = random.Random(seed)
    for case in range(_PROP22_CASES):
        r = rng.randint(1, 2)
        n = rng.randint(r + 1, 4)
        max_deg = rng.randint(0, r * (n - r))
        p = random_doubly_symmetric(r, n, max_deg, seed=rng.randrange(2**30))
        rhs = Fraction(d_coefficient(p, r, n), factorial(r) * factorial(n - r))
        for _ in range(3):
            lams = random_sample_points(n, seed=rng.randrange(2**30))
            lhs = doubly_symmetric_sum(p, lams, r)
            report.check(
                lhs == rhs,
                lambda: (
                    f"case {case}: P = {p}\nlambdas {lams}\n"
                    f"subset sum {lhs}, coefficient form {rhs}"
                ),
            )
    return report


def run_identities(seed: int = 0, max_n: int = 0) -> SuiteReport:
    """Symmetric-polynomial identities: psi closed forms, the Schur expansion
    of h_d over pairwise sums, and the Vandermonde-square coefficient."""
    del seed, max_n
    report = SuiteReport()

    h2 = complete_homogeneous(pairwise_sum_forms(x_space(2)), 2)
    expansion = schur_decompose(h2)
    expected = {(0, 3): 7, (1, 2): 3}
    report.check(
        expansion == expected,
        lambda: f"h_2 over pairwise sums decomposed to {expansion}, expected {expected}",
    )

    for r in range(1, 9):
        for k in range(r):
            got = psi(tuple(i for i in range(r + 1) if i != k))
            want = comb(r + 1, k + 1)
            report.check(
                got == want,
                lambda: (
                    f"psi over {{0..{r}}} minus {{{k}}}: got {got}, want C({r + 1},{k + 1}) = {want}"
                ),
            )

    for r in range(1, 7):
        for k in range(r + 1):
            # The index set of the partition (2^(r-k), 1^k).
            I = tuple(i for i in range(1, r + 2) if i != k + 1)
            got = psi(I)
            want = (k + 1) * comb(r + 3, k + 3)
            report.check(
                got == want,
                lambda: f"psi at {I} (r={r}): got {got}, want {want}",
            )

    for r in range(1, 4):
        vsq = difference_product(x_space(r), permutations(range(r), 2))
        for n in range(r + 1, 6):
            target = (n - 1,) * r
            for I in index_sets(r * (n - r), r):
                coeff = (schur_bialternant(I) * vsq).coefficient_of(target)
                want = factorial(r) if I == tuple(range(n - r, n)) else 0
                report.check(
                    coeff == want,
                    lambda: (
                        f"coefficient of x^{target} from s_{I} (r={r}, n={n}): "
                        f"got {coeff}, want {want}"
                    ),
                )

    for r in range(1, 4):
        forms = pairwise_sum_forms(x_space(r))
        for d in range(5):
            symbolic = schur_decompose(complete_homogeneous(forms, d))
            tabulated = h_schur_expansion(d, r)
            report.check(
                symbolic == tabulated,
                lambda: (
                    f"h_{d} over pairwise sums (r={r}): symbolic {symbolic}, "
                    f"psi-weighted {tabulated}"
                ),
            )

    return report


def run_cross_methods(seed: int = 0, max_n: int = 4) -> SuiteReport:
    """Coefficient extraction vs residue sum vs psi-product (vs closed form
    where it applies)."""
    del seed
    report = SuiteReport()
    for n in range(2, max_n + 1):
        for t in valid_triples(n):
            a = delta_theorem1(t).delta
            b = delta_residue(t).delta
            c = delta_psi_product(t).delta
            closed = delta_closed(t)
            agree = a == b == c and (closed is None or closed.delta == a)
            report.check(
                agree,
                lambda: (
                    f"(m={t.m}, n={t.n}, r={t.r}): coefficient extraction {a}, "
                    f"residue {b}, psi-product {c}"
                    + (f", closed form {closed.delta}" if closed else "")
                ),
            )
    return report


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "lemma21": run_lemma21,
    "prop22": run_prop22,
    "identities": run_identities,
    "cross-methods": run_cross_methods,
}
