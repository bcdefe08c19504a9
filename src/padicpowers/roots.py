"""Root existence in the valuation ring and in the full local field.

The core search refines residue classes level by level: a class survives
level k when the polynomial takes a value of ord at least k somewhere on it,
represented by its centre.  The search runs to a fixed depth derived from
ord of the resultant of G and G'; at that depth every surviving node
satisfies the Hensel criterion, so existence is decided exactly and no
"depth exhausted" state can occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import NotSquareFree, ZeroPolynomial
from .localfield import LocalField, OKElem, iter_residues
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

    Breadth-first refinement over residue levels 1, 2, ...: node a survives
    level k iff ord(G(a)) >= k.  The search always runs to depth
    D = 2*ord(Res(G, G')) + 1.  Any survivor a at that depth has
    ord(G'(a)) <= ord(Res) by the Bezout identity, hence satisfies the
    Hensel condition ord(G(a)) > 2*ord(G'(a)) and certifies a root.
    Survivors are then grouped into genuine roots: two certified survivors
    approximate the same root exactly when their G'-ords agree and their
    difference has ord beyond that shared value.
    """
    if G.field != field:
        raise ValueError("polynomial belongs to a different field")
    if G.is_zero:
        raise NotSquareFree("the zero polynomial is divisible by every square")
    if G.degree == 0:
        return PadicRootReport(exists=False, roots=(), search_depth_used=0)
    res = resultant(G, G.derivative())
    if not res:
        raise NotSquareFree("polynomial has a repeated factor")
    return _ring_roots(G, field, res.ord())


def _ring_roots(G: IntPoly, field: LocalField, res_ord: int) -> PadicRootReport:
    """The search of roots_in_valuation_ring for a square-free G of degree
    at least 1, given res_ord = ord Res(G, G')."""
    deriv = G.derivative()
    depth_max = 2 * res_ord + 1
    frontier = [a for a in iter_residues(field, 1) if G(a).ord() >= 1]
    depth = 1
    pi = field.uniformizer()
    shift = pi
    while depth < depth_max and frontier:
        nxt = []
        for a in frontier:
            for r in iter_residues(field, 1):
                b = a + shift * r
                if G(b).ord() >= depth + 1:
                    nxt.append(b)
        frontier = nxt
        shift = shift * pi
        depth += 1
    if not frontier:
        return PadicRootReport(exists=False, roots=(), search_depth_used=depth)

    roots: list[RootApproximation] = []
    kept: list[tuple[OKElem, Union[int, float]]] = []
    for a in frontier:
        gamma = deriv(a).ord()
        value_ord = G(a).ord()
        if not value_ord > 2 * gamma:  # pragma: no cover - impossible at full depth
            raise AssertionError("survivor at full depth failed the Hensel condition")
        if any(g == gamma and (a - rep).ord() > gamma for rep, g in kept):
            continue
        kept.append((a, gamma))
        precision = math.inf if value_ord == math.inf else value_ord - gamma
        roots.append(
            RootApproximation(truncation=a, precision=precision, certified_by_hensel=True)
        )
    return PadicRootReport(exists=True, roots=tuple(roots), search_depth_used=depth_max)


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
        return _ring_roots(self.poly, self.field, self.res_ord)

    @cached_property
    def rev(self) -> PadicRootReport:
        """The inverses of G's roots outside the ring; asked for only when G
        has no ring root, so that G(0) != 0."""
        return _ring_roots(reciprocal(self.poly), self.field, self.rev_res_ord)

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
