"""Explicit polynomial families and the two constructive results.

make_cz_not_ck produces the canonical witness separating the valuation-ring
class from the field class; make_ck_not_power produces square-free members
that are not polynomial p-th powers.  stability_radius bounds how deep a
coefficient perturbation must be to preserve membership, and
approximate_on_integers realizes a polynomial p-th root of a member up to a
prescribed valuation on the whole ring of integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .decide import DEFAULT_BUDGET, _decide_CK, _decide_CZ, _krasner
from .errors import (
    DegreeTooSmall,
    KTooLargeForMemory,
    LiftObstruction,
    LiftSearchBudgetExceeded,
    MTooSmall,
    PreconditionNotMember,
    PreconditionRootInField,
    PreconditionRootInRing,
    UnsupportedField,
)
from .localfield import BASE, LocalField, _vp
from .polyring import IntPoly, reciprocal
from .roots import _analyse

__all__ = [
    "approximate_on_integers",
    "make_ck_not_power",
    "make_cz_not_ck",
    "stability_radius",
]

_NODE_CAP = 20_000
_POINT_CAP = 4096


def make_cz_not_ck(field: LocalField) -> IntPoly:
    """1 + pi^m x for the smallest m that is 1 mod p and exceeds ep/(p-1).

    Every value on the valuation ring lands in 1 + the m-th ideal power and
    is a p-th power there; the value at the inverted witness point is not.
    """
    p, e = field.p, field.e
    m = 1
    while m * (p - 1) <= e * p:
        m += p
    return IntPoly(field, (1, field.uniformizer() ** m))


def make_ck_not_power(field: LocalField, m: int) -> IntPoly:
    """(1 + pi x^p)^p + pi^m, a field-wide member that is not G^p for any G."""
    p, e = field.p, field.e
    if m * (p - 1) <= e * p:
        raise MTooSmall(f"m must exceed ep/(p-1) = {e * p}/{p - 1}", m=m)
    pi = field.uniformizer()
    inner = IntPoly(field, (1,) + (0,) * (p - 1) + (pi,))
    return inner**p + IntPoly(field, (pi**m,))


def stability_radius(F: IntPoly, field: LocalField) -> int:
    """Perturbation depth below which membership in the field class is
    stable: every G whose coefficients differ from F's by elements of ord
    strictly greater than the radius is again a member.

    The radius is ceil(d * U + ord(F_0 * F_d) + ep/(p-1)) where U bounds the
    Krasner constants of both the square-free part and its reciprocal; the
    reciprocal side is included because inverting the roots can enlarge
    their pairwise distances when some roots are non-integral.  One record
    of F serves the root test, the membership decision and both Krasner
    bounds, so each factor and its reciprocal are searched for roots once.
    """
    analysis = _analyse(F, field)
    if F.degree < 2:
        raise DegreeTooSmall("stability needs degree at least 2")
    if analysis.has_field_root:
        raise PreconditionRootInField("polynomial has a root in the field")
    if not _decide_CK(analysis, DEFAULT_BUDGET).verdict:
        raise PreconditionNotMember("polynomial is not a member over the field")
    # a rootless radical has degree at least 2: linear factors have roots
    rad = analysis.radical
    upper = max(
        _krasner(rad.poly, rad.res_ord), _krasner(reciprocal(rad.poly), rad.rev_res_ord)
    )
    p, e = field.p, field.e
    value = (
        F.degree * upper
        + (F.constant * F.lc).ord()
        + Fraction(e * p, p - 1)
    )
    return math.ceil(value)


# ---------------------------------------------------------------------------
# polynomial p-th root approximation on the ring of rational integers


def _assert_member(F: IntPoly, field: LocalField) -> None:
    try:
        report = _decide_CZ(_analyse(F, field).power_free, DEFAULT_BUDGET)
    except PreconditionRootInRing as exc:
        raise PreconditionNotMember(
            "the power-free part has a ring root; nearby values are not powers"
        ) from exc
    if not report.verdict:
        raise PreconditionNotMember("polynomial is not a member on the valuation ring")


def approximate_on_integers(F: IntPoly, field: LocalField, n: int) -> IntPoly:
    """Integer polynomial G with ord(F(a) - G(a)^p) >= n for every a.

    Both sides mod p^n only depend on a mod p^n, so the residue points
    0 .. p^n - 1 carry the whole constraint.  For each point the p-th roots
    of F(a) mod p^n are tabulated; a depth-first search then picks one root
    per point and solves the triangular falling-factorial system
    G = sum c_j (x)_j, where point j constrains c_j * j! and is solvable
    exactly when the chosen root matches the partial sum to ord at least
    min(ord(j!), n).  Roots are tried best-match first (for p = 2 the branch
    that is 1 mod 4 breaks ties), and exhausted branches backtrack.  A search
    past _NODE_CAP nodes raises LiftSearchBudgetExceeded, a resource limit;
    LiftObstruction itself means that every root branch fails.
    """
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    if field.kind != BASE:
        raise UnsupportedField("approximation is implemented for the base field only")
    if n < 1:
        raise ValueError("n must be at least 1")
    p = field.p
    modulus = p**n
    if modulus > _POINT_CAP:
        raise KTooLargeForMemory(f"p^n = {modulus} residue points exceed the cap")
    _assert_member(F, field)

    roots_of: dict[int, list[int]] = {}
    for y in range(modulus):
        roots_of.setdefault(pow(y, p, modulus), []).append(y)
    candidate_sets = []
    for a in range(modulus):
        target = F(a).coords[0] % modulus
        ys = roots_of.get(target)
        if not ys:  # pragma: no cover - membership guarantees a root
            raise AssertionError("member value without a p-th root modulo p^n")
        candidate_sets.append(ys)

    # ord(j!) and the unit part of j! modulo p^n, built incrementally
    fact_ord = [0] * modulus
    fact_unit = [1] * modulus
    for j in range(1, modulus):
        w = _vp(j, p)
        fact_ord[j] = min(fact_ord[j - 1] + w, n)
        fact_unit[j] = fact_unit[j - 1] * (j // p**w) % modulus

    def partial_at(cs: list[int], j: int) -> int:
        total = 0
        fall = 1
        for i, c in enumerate(cs):
            total = (total + c * fall) % modulus
            fall = fall * (j - i) % modulus
            if fall == 0:
                break
        return total

    def ordered_choices(cs: list[int], j: int) -> list[int]:
        part = partial_at(cs, j)
        need = fact_ord[j]
        ranked = []
        for y in candidate_sets[j]:
            diff = (y - part) % modulus
            dord = n if diff == 0 else _vp(diff, p)
            if dord >= need:
                branch = 0 if p != 2 or y % 4 == 1 else 1
                ranked.append((-dord, branch, y))
        ranked.sort()
        out = []
        for _, _, y in ranked:
            diff = (y - part) % modulus
            if fact_ord[j] >= n:
                c = 0
            else:
                w = fact_ord[j]
                unit_inv = pow(fact_unit[j], -1, modulus)
                c = (diff // p**w) * unit_inv % p ** (n - w)
            out.append(c)
        return out

    cs: list[int] = []
    options: list[list[int]] = []
    nodes = 0
    while len(cs) < modulus:
        j = len(cs)
        if j == len(options):
            options.append(ordered_choices(cs, j))
        if options[j]:
            nodes += 1
            if nodes > _NODE_CAP:
                raise LiftSearchBudgetExceeded(
                    "no polynomial section found within the search budget",
                    point=j,
                    nodes=nodes,
                )
            cs.append(options[j].pop(0))
        else:
            options.pop()
            if not cs:
                raise LiftObstruction(
                    "every root branch leads to an unsolvable lift", point=j, nodes=nodes
                )
            cs.pop()

    # (x)_j is expanded only up to the last nonzero c_j
    cs = cs[: max((j + 1 for j, c in enumerate(cs) if c), default=0)]
    coeffs = [0] * modulus
    fall_poly = [1]
    for j, c in enumerate(cs):
        if c:
            for k, fc in enumerate(fall_poly):
                coeffs[k] = (coeffs[k] + c * fc) % modulus
        fall_poly = [0] + fall_poly
        for k in range(len(fall_poly) - 1):
            fall_poly[k] = (fall_poly[k] - j * fall_poly[k + 1]) % modulus
    balanced = [c - modulus if 2 * c > modulus else c for c in coeffs]
    G = IntPoly(field, balanced)
    for a in range(modulus):
        residue = (F(a).coords[0] - G(a).coords[0] ** p) % modulus
        if residue:  # pragma: no cover - the construction guarantees this
            raise AssertionError("approximation failed verification")
    return G
