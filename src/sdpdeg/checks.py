"""Test-only machinery: brute-force evaluators and independent constructions
used as ground truth by the verify suites and the tests.

Everything here favors transparency over speed: root tuples and subsets are
enumerated outright, products are formed without caps, determinants are
expanded over signed permutations, and no code is shared with the optimized
degree algorithms these checks validate.  The production path never imports
this module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from typing import Iterable, Sequence, Union

from .partitions import Partition, as_index_set
from .polynomial import (
    Coeff,
    SparsePolynomial,
    VariableSpace,
    elementary_symmetric,
    xy_space,
)


class RootedPolynomial:
    """A monic univariate polynomial given by its pairwise-distinct roots."""

    __slots__ = ("roots",)

    def __init__(self, roots: Sequence[Coeff]):
        roots = tuple(roots)
        if not roots:
            raise ValueError("need at least one root")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be pairwise distinct")
        self.roots = roots

    @property
    def degree(self) -> int:
        return len(self.roots)

    def derivative_at(self, root: Coeff) -> Coeff:
        """Q'(root) for Q(x) = prod(x - r): the product over the other roots."""
        return prod(root - other for other in self.roots if other != root)

    def __repr__(self) -> str:
        return f"RootedPolynomial(roots={list(self.roots)!r})"


def residue_sum(qs: Sequence[RootedPolynomial], f: SparsePolynomial) -> Fraction:
    """Sum of F(roots) / (Q_1'...Q_n') over all root tuples.

    Equals the coefficient of x_1^{d_1}...x_n^{d_n} in F, where d_i is one
    less than the degree of Q_i, provided deg(F) <= d_1 + ... + d_n.
    """
    if f.space.arity != len(qs):
        raise ValueError(f"F has arity {f.space.arity} but there are {len(qs)} polynomials")
    bound = sum(q.degree - 1 for q in qs)
    if f.total_degree() > bound:
        raise ValueError(f"deg(F) exceeds the hypothesis bound {bound}")
    total = Fraction(0)
    for roots in product(*(q.roots for q in qs)):
        denom = prod(q.derivative_at(a) for q, a in zip(qs, roots))
        total += Fraction(f.evaluate(roots)) / denom
    return total


def _block_permutation_maps(r: int, n: int) -> list[tuple[int, ...]]:
    maps = []
    for sigma in permutations(range(r)):
        for theta in permutations(range(r, n)):
            maps.append(sigma + theta)
    return maps


def is_doubly_symmetric(p: SparsePolynomial, r: int) -> bool:
    """Invariance under permutations within the x block and within the y block."""
    n = p.space.arity
    if not 1 <= r <= n - 1:
        raise ValueError(f"block split r={r} invalid for arity {n}")
    swaps = []
    for i in list(range(r - 1)) + list(range(r, n - 1)):
        mapping = list(range(n))
        mapping[i], mapping[i + 1] = mapping[i + 1], mapping[i]
        swaps.append(mapping)
    for mapping in swaps:
        permuted = {
            tuple(mono[mapping[i]] for i in range(n)): c for mono, c in p.terms.items()
        }
        if permuted != dict(p.terms):
            return False
    return True


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


def d_coefficient(p: SparsePolynomial, r: int, n: int) -> Coeff:
    """Coefficient of (x_1...y_{n-r})^(n-1) in P times the difference products.

    The multiplier is prod_{j!=i}(x_i-x_j) * prod_{j!=i}(y_i-y_j) *
    prod_{i,j}(y_i - x_j), formed here without caps or reordering.
    """
    space = p.space
    if space.arity != n:
        raise ValueError(f"polynomial has arity {space.arity}, expected {n}")
    s = n - r
    xs = [space.variable(i) for i in range(r)]
    ys = [space.variable(r + i) for i in range(s)]
    full = p
    for i in range(r):
        for j in range(r):
            if i != j:
                full = full * (xs[i] - xs[j])
    for i in range(s):
        for j in range(s):
            if i != j:
                full = full * (ys[i] - ys[j])
    for i in range(s):
        for j in range(r):
            full = full * (ys[i] - xs[j])
    return full.coefficient_of((n - 1,) * n)


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
    rng = random.Random(seed)
    space = xy_space(r, n - r)
    base: dict[tuple[int, ...], int] = {}
    for _ in range(n + max_deg + 2):
        exponents = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exponents[rng.randrange(n)] += 1
        coeff = rng.randint(-5, 5)
        mono = tuple(exponents)
        base[mono] = base.get(mono, 0) + coeff
    symmetrized: dict[tuple[int, ...], int] = {}
    for mapping in _block_permutation_maps(r, n):
        for mono, c in base.items():
            image = tuple(mono[mapping[i]] for i in range(n))
            symmetrized[image] = symmetrized.get(image, 0) + c
    return SparsePolynomial(space, symmetrized)


def lambda_of(indices: Iterable[int]) -> Partition:
    """The partition (i_r − (r−1), …, i_2 − 1, i_1) of an r-element index set."""
    idx = as_index_set(indices)
    r = len(idx)
    return Partition(idx[r - 1 - j] - (r - 1 - j) for j in range(r))


def _det_expand(entries: list[list[Union[SparsePolynomial, None]]],
                space: VariableSpace) -> SparsePolynomial:
    """Signed permutation expansion (DFS over columns, zero entries pruned)."""
    k = len(entries)
    total = space.zero()
    used = [False] * k

    def walk(col: int, sign: int, partial: SparsePolynomial) -> None:
        nonlocal total
        if col == k:
            total = total + (partial if sign > 0 else -partial)
            return
        flips = 0
        for row in range(k):
            if used[row]:
                flips += 1
                continue
            entry = entries[row][col]
            if entry is None or entry.is_zero():
                continue
            used[row] = True
            # row - flips = unused rows above this one; each will pair with a
            # later column to form an inversion, so the accumulated sign over
            # a complete assignment is the permutation parity.
            walk(col + 1, sign * (-1) ** (row - flips), partial * entry)
            used[row] = False

    walk(0, 1, space.one())
    return total


def jacobi_trudi_h(k: int, forms: Sequence[SparsePolynomial]) -> SparsePolynomial:
    """h_k over the forms as the k x k determinant with entries e_{j-i+1}.

    Subdiagonal entries are 1 and everything below vanishes; the expansion
    is by signed permutations, independent of the h recurrence this
    determinant is cross-checked against.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if not forms:
        raise ValueError("need at least one form")
    space = forms[0].space
    if k == 0:
        return space.one()
    es = [elementary_symmetric(forms, i) for i in range(k + 1)]
    entries: list[list[Union[SparsePolynomial, None]]] = [
        [es[j - i + 1] if j - i + 1 >= 0 else None for j in range(k)]
        for i in range(k)
    ]
    return _det_expand(entries, space)


def pieri_multiply(lam: Partition, k: int, r: int) -> list[Partition]:
    """Partitions from adding a vertical strip of k boxes within r rows.

    Expansion of s_lam * e_k: each result appears with multiplicity one.
    """
    if not 0 <= k <= r:
        raise ValueError(f"strip size {k} out of range for {r} rows")
    if lam.length > r:
        raise ValueError(f"{lam} has more than {r} parts")
    padded = lam.pad(r)
    out = []
    for rows in combinations(range(r), k):
        grown = list(padded)
        for i in rows:
            grown[i] += 1
        if all(grown[i] >= grown[i + 1] for i in range(r - 1)):
            out.append(Partition(grown))
    return out
