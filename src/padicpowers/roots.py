"""Root existence in the valuation ring and in the full local field.

The search walks the membership scan's Taylor nodes: a class a + pi^L O_K
with the coefficients c_k of G(a + pi^L y), from (0, 0, G) one level at a
time.  By the Newton polygon, the class holds exactly k* roots of G over an
algebraic closure, k* the largest index at which ord c_k is smallest (its
Weierstrass degree).  k* = 0 prunes the node.  k* = 1 means one root, in K
as the class is stable under conjugation, and once ord G(a) > 2 ord G'(a),
Hensel's lemma gives a root within ord c_0 - ord c_1 + L >= L of a, which
is that root.  Other nodes split; G is square-free, so the search ends.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import NotSquareFree, ZeroPolynomial
from .localfield import LocalField, OKElem, residues
from .polyring import (
    IntPoly,
    SquareFreeDecomposition,
    _power_free_part,
    reciprocal,
    resultant,
    squarefree_decompose,
)

__all__ = [
    "PadicRootReport",
    "RootApproximation",
    "has_root_in_field",
    "root_multiplicity_report",
    "roots_in_valuation_ring",
]


@dataclass(frozen=True)
class RootApproximation:
    """A certified root truncation: some genuine root r has ord(r - truncation)
    at least the stated precision.  Exact roots carry infinite precision."""

    truncation: OKElem
    precision: Union[int, float]
    certified_by_hensel: bool


@dataclass(frozen=True)
class PadicRootReport:
    exists: bool
    roots: tuple[RootApproximation, ...]
    search_depth_used: int


def roots_in_valuation_ring(G: IntPoly, field: LocalField) -> PadicRootReport:
    """All roots of a square-free polynomial in the valuation ring.

    A Taylor node (a, L, c_0..c_d), with c_k the coefficients of
    G(a + pi^L y), is pruned when k* = 0, reports one root when k* = 1 and
    ord G(a) > 2 ord G'(a), and is split otherwise, where k* is the largest
    index at which ord c_k is smallest.  k* is the number of roots in the
    class, and ord c_0 >= ord c_1 puts Hensel's root inside it, so each root
    is reported once, with truncation a and precision ord c_0 - ord c_1 + L.
    search_depth_used is the deepest level visited.  Res(G, G') only checks
    that G is square-free.
    """
    if G.field != field:
        raise ValueError("polynomial belongs to a different field")
    if G.is_zero:
        raise NotSquareFree("the zero polynomial is divisible by every square")
    if G.degree == 0:
        return PadicRootReport(exists=False, roots=(), search_depth_used=0)
    if not resultant(G, G.derivative()):
        raise NotSquareFree("polynomial has a repeated factor")
    return _ring_roots(G, field)


def _ring_roots(G: IntPoly, field: LocalField) -> PadicRootReport:
    """The search of roots_in_valuation_ring for a square-free G of degree
    at least 1."""
    roots: list[RootApproximation] = []
    pi = field.uniformizer()
    shift = field.one()
    level = 0
    nodes = [(field.zero(), [c.coords for c in G.coeffs])]
    while nodes:
        children = []
        for a, coeffs in nodes:
            ords = [OKElem(field, c).ord() for c in coeffs]
            k_star = len(ords) - 1 - ords[::-1].index(min(ords))
            if k_star == 1 and ords[0] > 2 * (ords[1] - level):
                roots.append(RootApproximation(a, ords[0] - ords[1] + level, True))
            elif k_star:  # a class with k* = 0 holds no root
                children += _children(a, coeffs, shift, 1, field)
        nodes = children
        shift = shift * pi
        level += 1
    return PadicRootReport(exists=bool(roots), roots=tuple(roots), search_depth_used=level - 1)


def _children(a: OKElem, coeffs: list, shift: OKElem, margin: int, field: LocalField) -> list:
    """The p^f children of the Taylor node (a, L, coeffs), shift = pi^L: for
    each digit r in iter_residues(field, 1) order, the point a + pi^L r and
    the coefficients of G(a + pi^L (r + pi y)), which are the parent's
    shifted by r, by repeated synthetic division, with c_k then scaled by
    pi^k.  The first child, r = 0, keeps the point a and the value c_0.

    As ord pi = 1 and r and the binomials are integral, ord c'_k >= k +
    min_{j>=k} ord c_j >= 1 + min_{j>=1} ord c_j =: b for k >= 1.  The first
    pass, Horner's, gives c'_0 = G(r); a child with b >= ord c'_0 + margin
    keeps c'_0 alone, which settles it as its full expansion would: margin
    1 prunes a root-search class (k* = 0), margin M pins a scan class."""
    mul = field._mul_vec
    d = len(coeffs) - 1
    bound = 1 + min(OKElem(field, c).ord() for c in coeffs[1:])
    pi = field.uniformizer().coords
    scales = [field.one().coords]
    for _ in range(d):
        scales.append(mul(scales[-1], pi))
    out = []
    for r in residues(field, 1):
        c = list(coeffs)
        for i in range(d if r else 1):
            if r:
                for j in range(d - 1, i - 1, -1):
                    c[j] = tuple(map(operator.add, c[j], mul(c[j + 1], r.coords)))
            if not i and bound >= OKElem(field, c[0]).ord() + margin:
                c = c[:1]
                break
        else:
            c = [mul(x, s) for x, s in zip(c, scales)]
        out.append((a + shift * r, c))
    return out


class _SquareFree:
    """A square-free factor G of degree >= 1 with ord Res(G, G') and the
    ring-root reports of G and of its reciprocal, each found on first use."""

    def __init__(self, poly: IntPoly, field: LocalField):
        self.poly = poly
        self.field = field

    @cached_property
    def res_ord(self) -> int:
        return resultant(self.poly, self.poly.derivative()).ord()

    @property
    def rev_res_ord(self) -> int:
        """ord Res of the reciprocal and its derivative: for G(0) != 0 the
        reciprocal has G's degree and discriminant and leading coefficient
        G(0), so no second resultant is needed."""
        return self.res_ord - self.poly.lc.ord() + self.poly.constant.ord()

    @cached_property
    def ring(self) -> PadicRootReport:
        return _ring_roots(self.poly, self.field)

    @cached_property
    def rev(self) -> PadicRootReport:
        """The inverses of G's roots outside the ring; asked for only when G
        has no ring root, so that G(0) != 0."""
        return _ring_roots(reciprocal(self.poly), self.field)

    @property
    def has_field_root(self) -> bool:
        return self.ring.exists or self.rev.exists


class _Analysis:
    """The analysis record of F, shared by every entry point that analyses
    F: its square-free decomposition, each factor's _SquareFree record and
    multiplicity, and the radical, each found on first use.  The record of
    the power-free part shares F's factor records."""

    def __init__(self, F: IntPoly, field: LocalField):
        self.F = F
        self.field = field

    @cached_property
    def decomposition(self) -> SquareFreeDecomposition:
        return squarefree_decompose(self.F)

    @cached_property
    def factors(self) -> tuple[tuple[_SquareFree, int], ...]:
        return tuple(
            (_SquareFree(G, self.field), mult) for G, mult in self.decomposition.factors
        )

    @cached_property
    def radical(self) -> _SquareFree:
        """A single factor is its own radical and keeps its resultant."""
        if len(self.factors) == 1:
            return self.factors[0][0]
        rad = IntPoly(self.field, (1,))
        for factor, _ in self.factors:
            rad = rad * factor.poly
        return _SquareFree(rad, self.field)

    @cached_property
    def power_free(self) -> "_Analysis":
        """The record of reduce_power_free(F): self when F is power-free."""
        p = self.field.p
        if all(mult < p for _, mult in self.factors):
            return self
        part = _Analysis(_power_free_part(self.F, self.decomposition), self.field)
        # F's factor records, with multiplicities mod p: no second decomposition
        part.factors = tuple((factor, mult % p) for factor, mult in self.factors if mult % p)
        return part

    @property
    def has_field_root(self) -> bool:
        if self.F.is_zero:
            raise ZeroPolynomial("the zero polynomial vanishes everywhere")
        return any(factor.has_field_root for factor, _ in self.factors)


def _analyse(F: IntPoly, field: LocalField) -> _Analysis:
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    return _Analysis(F, field)


def has_root_in_field(F: IntPoly, field: LocalField) -> bool:
    """True iff F has a root in the full field, tested factor by factor."""
    return _analyse(F, field).has_field_root


def root_multiplicity_report(F: IntPoly, field: LocalField, p: int) -> str:
    """"violates" when some root of F in the field has multiplicity not
    divisible by p, which certifies non-membership; "compliant" otherwise."""
    if p != field.p:
        raise ValueError("p must be the residue characteristic of the field")
    analysis = _analyse(F, field)
    if F.is_zero:
        raise ZeroPolynomial("the zero polynomial is excluded")
    for factor, mult in analysis.factors:
        if mult % p and factor.has_field_root:
            return "violates"
    return "compliant"
