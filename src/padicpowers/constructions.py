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
    LiftObstruction,
    LiftSearchBudgetExceeded,
    MTooSmall,
    PreconditionNotMember,
    PreconditionRootInField,
    UnsupportedField,
)
from .localfield import BASE, LocalField, _check_residue_count, _vp
from .polyring import IntPoly, reciprocal
from .roots import _analyse

__all__ = [
    "approximate_on_integers",
    "make_ck_not_power",
    "make_cz_not_ck",
    "stability_radius",
]

_NODE_CAP = 20_000


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
    """(1 + pi x^p)^p + pi^m, a field-wide member that is not G^p for any G.

    Built from its p + 1 nonzero terms: C(p, k) pi^k at x^(pk), and pi^m
    added at x^0."""
    p, e = field.p, field.e
    if m * (p - 1) <= e * p:
        raise MTooSmall(f"m must exceed ep/(p-1) = {e * p}/{p - 1}", m=m)
    pi = field.uniformizer()
    vecs = [field.zero().coords] * (p * p + 1)
    for k in range(p + 1):
        vecs[p * k] = (pi**k * math.comb(p, k)).coords
    vecs[0] = (field.one() + pi**m).coords
    return IntPoly._of(field, vecs)


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
    if not _decide_CZ(_analyse(F, field).power_free, DEFAULT_BUDGET).verdict:
        raise PreconditionNotMember("polynomial is not a member on the valuation ring")


def approximate_on_integers(F: IntPoly, field: LocalField, n: int) -> IntPoly:
    """Integer polynomial G with ord(F(a) - G(a)^p) >= n for every a.

    An integer polynomial H = sum b_j (x)_j has integer b_j, and its Mahler
    coefficients are the b_j j!, so H vanishes mod p^n on Z exactly when
    H(a) does for a < k = min{j : ord(j!) >= n} <= n p.  For each such point
    the p-th roots of F(a) mod p^n are tabulated; a depth-first search then
    picks one root per point and solves the triangular falling-factorial
    system G = sum c_j (x)_j, where point j constrains c_j * j! and is
    solvable exactly when the chosen root matches the partial sum to ord at
    least ord(j!).  Roots are tried best-match first (for p = 2 the branch
    that is 1 mod 4 breaks ties), and exhausted branches backtrack.  G is
    verified at a = 0 .. D, D = max(deg F, p deg G), which covers Z as F - G^p
    has degree at most D.  A table of p^n > RESIDUE_CAP residues raises
    KTooLargeForMemory and a search past _NODE_CAP choices
    LiftSearchBudgetExceeded, both resource limits; LiftObstruction itself
    means that every root branch fails.
    """
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    if field.kind != BASE:
        raise UnsupportedField("approximation is implemented for the base field only")
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_residue_count(field, n)
    _assert_member(F, field)
    p = field.p
    modulus = p**n

    # ord(j!) and the unit part of j! modulo p^n for j < k, built incrementally
    fact_ord = [0]
    fact_unit = [1]
    while fact_ord[-1] + _vp(len(fact_ord), p) < n:
        j = len(fact_ord)
        w = _vp(j, p)
        fact_ord.append(fact_ord[-1] + w)
        fact_unit.append(fact_unit[-1] * (j // p**w) % modulus)
    k = len(fact_ord)

    targets = [F(a).coords[0] % modulus for a in range(k)]
    roots_of: dict[int, list[int]] = {t: [] for t in targets}
    for y in range(modulus):
        ys = roots_of.get(pow(y, p, modulus))
        if ys is not None:
            ys.append(y)
    if not all(roots_of.values()):  # pragma: no cover - membership guarantees a root
        raise AssertionError("member value without a p-th root modulo p^n")

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
        unit_inv = pow(fact_unit[j], -1, modulus)
        ranked = []
        for y in roots_of[targets[j]]:
            diff = (y - part) % modulus
            dord = n if diff == 0 else _vp(diff, p)
            if dord >= need:
                branch = 0 if p != 2 or y % 4 == 1 else 1
                c = (diff // p**need) * unit_inv % p ** (n - need)
                ranked.append((-dord, branch, y, c))
        return [c for *_, c in sorted(ranked)]

    cs: list[int] = []
    options: list[list[int]] = []
    nodes = 0
    while len(cs) < k:
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
    coeffs = [0] * k
    fall_poly = [1]
    for j, c in enumerate(cs):
        if c:
            for i, fc in enumerate(fall_poly):
                coeffs[i] = (coeffs[i] + c * fc) % modulus
        fall_poly = [0] + fall_poly
        for i in range(len(fall_poly) - 1):
            fall_poly[i] = (fall_poly[i] - j * fall_poly[i + 1]) % modulus
    balanced = [c - modulus if 2 * c > modulus else c for c in coeffs]
    G = IntPoly(field, balanced)
    top = max(len(F.coeffs) - 1, p * (len(G.coeffs) - 1))
    for a in range(top + 1):
        residue = (F(a).coords[0] - G(a).coords[0] ** p) % modulus
        if residue:  # pragma: no cover - the construction guarantees this
            raise AssertionError("approximation failed verification")
    return G
