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
from typing import Optional, Union

from .errors import NotSquareFree, ZeroPolynomial
from .localfield import LocalField, OKElem, iter_residues
from .polyring import IntPoly, reciprocal, resultant, squarefree_decompose

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


def _field_roots(
    G: IntPoly, field: LocalField, res: OKElem
) -> tuple[PadicRootReport, Optional[PadicRootReport]]:
    """Ring-root reports of a square-free factor G, given res = Res(G, G'),
    and of its reciprocal, searched only when G has no ring root (else None).

    Roots outside the ring invert to roots of the reciprocal inside the
    maximal ideal.  Without a ring root G(0) != 0, so the reciprocal has G's
    degree and discriminant and leading coefficient G(0): its resultant with
    its derivative has ord ord(res) - ord lc(G) + ord G(0), and no second
    resultant is needed.
    """
    ring = _ring_roots(G, field, res.ord())
    if ring.exists:
        return ring, None
    rev_res_ord = res.ord() - G.lc.ord() + G.constant.ord()
    return ring, _ring_roots(reciprocal(G), field, rev_res_ord)


def _factor_has_root_in_field(G: IntPoly, field: LocalField) -> bool:
    """Root of a square-free factor anywhere in the field."""
    ring, rev = _field_roots(G, field, resultant(G, G.derivative()))
    return ring.exists or rev.exists


def has_root_in_field(F: IntPoly, field: LocalField) -> bool:
    """True iff F has a root in the full field, tested factor by factor."""
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    if F.is_zero:
        raise ZeroPolynomial("the zero polynomial vanishes everywhere")
    return any(
        _factor_has_root_in_field(G, field)
        for G, _ in squarefree_decompose(F).factors
    )


def root_multiplicity_report(F: IntPoly, field: LocalField, p: int) -> str:
    """"violates" when some root of F in the field has multiplicity not
    divisible by p, which certifies non-membership; "compliant" otherwise."""
    if p != field.p:
        raise ValueError("p must be the residue characteristic of the field")
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    if F.is_zero:
        raise ZeroPolynomial("the zero polynomial is excluded")
    for G, mult in squarefree_decompose(F).factors:
        if mult % p and _factor_has_root_in_field(G, field):
            return "violates"
    return "compliant"
