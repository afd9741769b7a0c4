"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored as a mapping from exponent tuples to exact
coefficients.  Coefficients are Python ints or fractions.Fraction (both
are exact rationals; floats are rejected), so identity testing and
coefficient extraction are fully reliable.

  monomial    = tuple[int, ...]   one nonnegative exponent per variable
  term map    = {monomial: coefficient}, zero coefficients never stored

Every polynomial belongs to a VariableSpace fixing the ordered variable
list; mixing spaces raises.  The zero polynomial is the empty term map.

Values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .degree import Coeff, _check_coeff

Monomial = tuple[int, ...]

#: Order sentinel for the degree of the zero polynomial.
NEG_INFINITY = float("-inf")


class VariableSpace:
    """An ordered list of distinct variable names; the ring the terms live in."""

    __slots__ = ("names",)

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a variable space needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names

    @property
    def arity(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableSpace) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSpace({list(self.names)!r})"

    def monomial(self, exponents: Iterable[int]) -> Monomial:
        """Validate an exponent vector against this space."""
        e = tuple(exponents)
        if len(e) != self.arity:
            raise ValueError(f"expected {self.arity} exponents, got {len(e)}")
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in e):
            raise ValueError(f"exponents must be nonnegative integers: {e}")
        return e

    def zero(self) -> SparsePolynomial:
        return SparsePolynomial._raw(self, {})

    def one(self) -> SparsePolynomial:
        return self.constant(1)

    def constant(self, c: Coeff) -> SparsePolynomial:
        _check_coeff(c)
        if c == 0:
            return self.zero()
        return SparsePolynomial._raw(self, {(0,) * self.arity: c})

    def variable(self, index: int) -> SparsePolynomial:
        """The polynomial consisting of the single variable at `index`."""
        if not 0 <= index < self.arity:
            raise IndexError(f"variable index {index} out of range for arity {self.arity}")
        e = [0] * self.arity
        e[index] = 1
        return SparsePolynomial._raw(self, {tuple(e): 1})


def x_space(r: int) -> VariableSpace:
    """The ring in variables x1..xr."""
    if r < 1:
        raise ValueError("need at least one variable")
    return VariableSpace([f"x{i}" for i in range(1, r + 1)])


def xy_space(r: int, s: int) -> VariableSpace:
    """The ring in variables x1..xr, y1..ys (two blocks, x first)."""
    if r < 1 or s < 1:
        raise ValueError("both blocks need at least one variable")
    return VariableSpace([f"x{i}" for i in range(1, r + 1)] + [f"y{i}" for i in range(1, s + 1)])


class SparsePolynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("space", "_terms")

    def __init__(self, space: VariableSpace, terms: Mapping[Monomial, Coeff] = ()):
        cleaned: dict[Monomial, Coeff] = {}
        for mono, c in dict(terms).items():
            mono = space.monomial(mono)
            _check_coeff(c)
            if c != 0:
                cleaned[mono] = c
        self.space = space
        self._terms = cleaned

    @classmethod
    def _raw(cls, space: VariableSpace, terms: dict[Monomial, Coeff]) -> SparsePolynomial:
        # Trusted constructor: terms already canonical (no zeros, right arity).
        p = object.__new__(cls)
        p.space = space
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[Monomial, Coeff]:
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> Union[int, float]:
        """Max total degree of any term; −inf sentinel for the zero polynomial."""
        if not self._terms:
            return NEG_INFINITY
        return max(sum(e) for e in self._terms)

    def leading_monomial(self) -> Union[Monomial, None]:
        """Greatest monomial in graded lexicographic order, or None if zero."""
        if not self._terms:
            return None
        return max(self._terms, key=lambda e: (sum(e), e))

    def coefficient_of(self, monomial: Iterable[int]) -> Coeff:
        """Stored coefficient of the monomial, 0 if absent."""
        return self._terms.get(self.space.monomial(monomial), 0)

    def evaluate(self, point: Sequence[Coeff]) -> Coeff:
        """Exact value at a point (one value per variable)."""
        vals = tuple(point)
        if len(vals) != self.space.arity:
            raise ValueError(f"expected {self.space.arity} values, got {len(vals)}")
        for v in vals:
            _check_coeff(v)
        total: Coeff = 0
        for mono, c in self._terms.items():
            total += prod((v ** e for v, e in zip(vals, mono) if e), start=c)
        return total

    def __add__(self, other: SparsePolynomial) -> SparsePolynomial:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if other.space != self.space:
            raise ValueError("polynomials live in different variable spaces")
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return SparsePolynomial._raw(self.space, out)

    def __neg__(self) -> SparsePolynomial:
        return SparsePolynomial._raw(self.space, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: SparsePolynomial) -> SparsePolynomial:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> SparsePolynomial:
        if isinstance(other, SparsePolynomial):
            return self.mul(other)
        if not isinstance(other, bool) and isinstance(other, (int, Fraction)):
            if other == 0:
                return self.space.zero()
            return SparsePolynomial._raw(
                self.space, {m: c * other for m, c in self._terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def mul(self, other: SparsePolynomial) -> SparsePolynomial:
        """Product of two polynomials in the same space."""
        if other.space != self.space:
            raise ValueError("polynomials live in different variable spaces")
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Coeff] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                mono = tuple(map(int.__add__, ea, eb))
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return SparsePolynomial._raw(self.space, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.space == other.space and self._terms == other._terms

    __hash__ = None  # holds a dict; identity-free equality only

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = self.space.names
        chunks = []
        for mono in sorted(self._terms, key=lambda e: (sum(e), e), reverse=True):
            c = self._terms[mono]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, mono)
                if e
            ]
            body = "*".join(factors)
            if not body:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(body)
            elif c == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{c}*{body}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<SparsePolynomial {self}>"


def product_coefficient(
    a: SparsePolynomial, b: SparsePolynomial, monomial: Iterable[int]
) -> Coeff:
    """Coefficient of one monomial in a*b without forming the product."""
    if a.space != b.space:
        raise ValueError("polynomials live in different variable spaces")
    target = a.space.monomial(monomial)
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    total: Coeff = 0
    for mono, c in small._terms.items():
        rest = tuple(map(int.__sub__, target, mono))
        if any(x < 0 for x in rest):
            continue
        cb = big._terms.get(rest)
        if cb is not None:
            total += c * cb
    return total


def pairwise_sum_forms(
    space: VariableSpace, indices: Union[Sequence[int], None] = None
) -> list[SparsePolynomial]:
    """Linear forms v_i + v_j for i <= j over the chosen variables.

    Ordered lexicographically by (i, j); the diagonal contributes 2*v_i.
    For t variables this yields C(t+1, 2) forms.
    """
    idx = tuple(range(space.arity)) if indices is None else tuple(indices)
    if not idx:
        raise ValueError("need at least one variable")
    forms = []
    for a in range(len(idx)):
        for b in range(a, len(idx)):
            forms.append(space.variable(idx[a]) + space.variable(idx[b]))
    return forms


def complete_homogeneous(forms: Sequence[SparsePolynomial], d: int) -> SparsePolynomial:
    """Complete homogeneous h_d over a multiset of polynomials.

    Sum over all size-d multisets of `forms` of their products; h_0 = 1.
    Item-at-a-time dynamic program: ascending index updates let every form
    repeat, so no multiset is ever enumerated explicitly.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if not forms:
        raise ValueError("need at least one form")
    space = forms[0].space
    h = [space.one()] + [space.zero()] * d
    for f in forms:
        for j in range(1, d + 1):
            h[j] = h[j] + f.mul(h[j - 1])
    return h[d]
