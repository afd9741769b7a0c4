"""Self-verification suites: each pits two independent computations against
each other and reports exact-match counts with a printable counterexample on
the first failure.  The CLI drives these; the test suite reuses them."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Union

from .degree import (
    delta_closed,
    delta_residue,
    delta_theorem1,
    random_sample_points,
    valid_triples,
)
from .checks import (
    Partition,
    RootedPolynomial,
    d_coefficient,
    doubly_symmetric_sum,
    enumerate_partitions,
    h_schur_expansion,
    index_set_of,
    random_doubly_symmetric,
    random_polynomial,
    residue_sum,
    schur_bialternant,
    schur_decompose,
)
from .polynomial import (
    complete_homogeneous,
    pairwise_sum_forms,
    x_space,
)
from .schur import psi

# Seeded cases per run of the lemma21 and prop22 suites (prop22 checks each
# case at three point sets).
_LEMMA21_CASES = 100
_PROP22_CASES = 50


@dataclass
class SuiteReport:
    name: str
    passed: int
    failed: int
    first_failure: Union[str, None] = None

    @property
    def total(self) -> int:
        return self.passed + self.failed

    def ok(self) -> bool:
        return self.failed == 0


class _Recorder:
    def __init__(self, name: str):
        self.report = SuiteReport(name, 0, 0)

    def check(self, condition: bool, describe: Callable[[], str]) -> None:
        if condition:
            self.report.passed += 1
        else:
            self.report.failed += 1
            if self.report.first_failure is None:
                self.report.first_failure = describe()


def run_lemma21(seed: int = 0, max_n: int = 0) -> SuiteReport:
    """Root-tuple residue sums against direct coefficient extraction."""
    del max_n
    rec = _Recorder("lemma21")
    rng = random.Random(seed)
    for case in range(_LEMMA21_CASES):
        nvars = rng.randint(1, 3)
        qs = [
            RootedPolynomial(rng.sample(range(-9, 10), rng.randint(2, 4)))
            for _ in range(nvars)
        ]
        degrees = tuple(q.degree - 1 for q in qs)
        space = x_space(nvars)
        f = random_polynomial(rng, space, sum(degrees), corner=degrees)
        expected = f.coefficient_of(degrees)
        got = residue_sum(qs, f)
        rec.check(
            got == expected,
            lambda case=case, qs=qs, f=f, expected=expected, got=got: (
                f"case {case}: roots {[list(q.roots) for q in qs]}\n"
                f"F = {f}\nexpected coefficient {expected}, residue sum {got}"
            ),
        )
    return rec.report


def run_prop22(seed: int = 0, max_n: int = 0) -> SuiteReport:
    """Doubly symmetric subset sums against the target-monomial coefficient."""
    del max_n
    rec = _Recorder("prop22")
    rng = random.Random(seed)
    for case in range(_PROP22_CASES):
        r = rng.randint(1, 2)
        n = rng.randint(r + 1, 4)
        max_deg = rng.randint(0, r * (n - r))
        p = random_doubly_symmetric(r, n, max_deg, seed=rng.randrange(2**30))
        rhs = Fraction(d_coefficient(p, r, n), factorial(r) * factorial(n - r))
        for j in range(3):
            lams = random_sample_points(n, seed=rng.randrange(2**30))
            lhs = doubly_symmetric_sum(p, lams, r)
            rec.check(
                lhs == rhs,
                lambda case=case, p=p, lams=lams, lhs=lhs, rhs=rhs: (
                    f"case {case}: P = {p}\nlambdas {lams}\n"
                    f"subset sum {lhs}, coefficient form {rhs}"
                ),
            )
    return rec.report


def run_identities(seed: int = 0, max_n: int = 0) -> SuiteReport:
    """Symmetric-polynomial identities: psi closed forms, the Schur expansion
    of h_d over pairwise sums, and the Vandermonde-square coefficient."""
    del seed, max_n
    rec = _Recorder("identities")

    h2 = complete_homogeneous(pairwise_sum_forms(x_space(2)), 2)
    expansion = schur_decompose(h2)
    expected = {Partition([2]): 7, Partition([1, 1]): 3}
    rec.check(
        expansion == expected,
        lambda: f"h_2 over pairwise sums decomposed to {expansion}, expected {expected}",
    )

    for r in range(1, 9):
        for k in range(r):
            got = psi(tuple(i for i in range(r + 1) if i != k))
            want = comb(r + 1, k + 1)
            rec.check(
                got == want,
                lambda r=r, k=k, got=got, want=want: (
                    f"psi over {{0..{r}}} minus {{{k}}}: got {got}, want C({r + 1},{k + 1}) = {want}"
                ),
            )

    for r in range(1, 7):
        for k in range(r + 1):
            lam = Partition((2,) * (r - k) + (1,) * k)
            got = psi(index_set_of(lam, r))
            want = (k + 1) * comb(r + 3, k + 3)
            rec.check(
                got == want,
                lambda lam=lam, r=r, k=k, got=got, want=want: (
                    f"psi at {lam} (r={r}): got {got}, want {want}"
                ),
            )

    for r in range(1, 4):
        space = x_space(r)
        vsq = space.one()
        for i in range(r):
            for j in range(r):
                if i != j:
                    vsq = vsq * (space.variable(i) - space.variable(j))
        for n in range(r + 1, 6):
            target = (n - 1,) * r
            for lam in enumerate_partitions(r * (n - r), max_len=r):
                coeff = (schur_bialternant(lam, r) * vsq).coefficient_of(target)
                want = factorial(r) if lam == Partition((n - r,) * r) else 0
                rec.check(
                    coeff == want,
                    lambda lam=lam, r=r, n=n, coeff=coeff, want=want: (
                        f"coefficient of x^{target} from {lam} (r={r}, n={n}): "
                        f"got {coeff}, want {want}"
                    ),
                )

    for r in range(1, 4):
        forms = pairwise_sum_forms(x_space(r))
        for d in range(5):
            symbolic = schur_decompose(complete_homogeneous(forms, d))
            tabulated = h_schur_expansion(d, r)
            rec.check(
                symbolic == tabulated,
                lambda r=r, d=d, symbolic=symbolic, tabulated=tabulated: (
                    f"h_{d} over pairwise sums (r={r}): symbolic {symbolic}, "
                    f"psi-weighted {tabulated}"
                ),
            )

    return rec.report


def run_cross_methods(seed: int = 0, max_n: int = 4) -> SuiteReport:
    """Coefficient extraction vs residue sum (vs closed form where it applies)."""
    del seed
    rec = _Recorder("cross-methods")
    for n in range(2, max_n + 1):
        for t in valid_triples(n):
            a = delta_theorem1(t).delta
            b = delta_residue(t).delta
            closed = delta_closed(t)
            agree = a == b and (closed is None or closed.delta == a)
            rec.check(
                agree,
                lambda t=t, a=a, b=b, closed=closed: (
                    f"(m={t.m}, n={t.n}, r={t.r}): coefficient extraction {a}, "
                    f"residue {b}"
                    + (f", closed form {closed.delta}" if closed else "")
                ),
            )
    return rec.report


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "lemma21": run_lemma21,
    "prop22": run_prop22,
    "identities": run_identities,
    "cross-methods": run_cross_methods,
}
