"""Membership of polynomial value sets in the p-th powers, decided exactly.

decide_CZ settles whether every value of F on the valuation ring is a p-th
power; decide_CK settles the same question over the whole field by combining
the direct scan with the scan of the reciprocal polynomial, which covers the
points outside the ring: on pi O_K only when p divides the degree, as the
direct scan has then covered the units.  One scan of each kind thus covers
the projective line once.  class_spectrum generalizes the scans to report
every power class the polynomial attains.
All three run a certified finite scan on roots._walk, the Taylor walk of
the ring-root search: a residue class a + pi^L O_K carries the coefficients
of F(a + pi^L y), and it is pinned once every higher coefficient has ord at
least the constant term's ord plus the congruence threshold M, since F then
keeps one ord and one power class on the whole class.  The scan splits
exactly the classes that are not yet pinned.  Where F's power-free part
has a root in the field, the counterexample comes from the same scan, run
on the residue class of that root only.  budget bounds the scan nodes a
decision visits, over all its scans.  witness_count is the size
p^(f(m + M)) of the residue system that certifies a scan whose largest ord
is m, summed over the scans of a decision, an invariant of F, not the
number of nodes visited.

Quantitative bounds (the Krasner-constant upper bound, the witness-set
cardinality exponent and the height-based exponent for integer inputs) are
computed from resultants and attached to every scan report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Optional, Union

from .errors import (
    DegreeTooSmall,
    NotSquareFree,
    PreconditionNotPowerFree,
    PreconditionRootInField,
    PreconditionRootInRing,
    ScanBudgetExceeded,
    ZeroPolynomial,
)
from .localfield import BASE, LocalField, OKElem
from .polyring import IntPoly, reciprocal, resultant
from .powerclasses import (
    PowerClassId,
    _moduli,
    class_of,
    enumerate_classes,
    is_pth_power,
    threshold_k0,
)
from .roots import _analyse, _Analysis, _walk

__all__ = [
    "BoundsReport",
    "DEFAULT_BUDGET",
    "DecisionReport",
    "class_spectrum",
    "decide_CZ",
    "decide_CK",
    "krasner_upper_bound",
    "witness_bounds",
]

DEFAULT_BUDGET = 10_000_000  # scan nodes a decision may visit

Rational = Union[int, Fraction]


class BoundsReport(NamedTuple):
    """Quantitative certificates attached to a decision.

    kras_upper bounds the Krasner constant from the discriminant; it is None
    when no square-free part of degree >= 2 exists.  max_ord_bound bounds
    ord F(a) over the valuation ring.  cardA_log_p bounds log_p of the
    witness-set size.  pejkovic_log_p is the height-based exponent, populated
    only for rational-integer inputs over the base field.
    """

    kras_upper: Optional[Rational]
    max_ord_bound: Rational
    cardA_log_p: Rational
    pejkovic_log_p: Optional[float]


class DecisionReport(NamedTuple):
    """Full certificate of a membership scan.

    For verdict False the counterexample names a witness point and the
    nontrivial power class of F's nonzero value there.  When decide_CK fails
    on the reciprocal side (its scan, or the scan of the class of a root of
    F_* outside the ring), the witness point belongs to the reciprocal: the
    class is that of reciprocal(F_*) at the point, which certifies
    non-membership of F just as directly.

    witness_count is p^(f(m + M)) for the direct scan's largest ord m, plus
    for decide_CK p^(f(m' + M)) for the reciprocal scan's largest ord m'
    on pi O_K (on O_K when p does not divide deg F_*).  final_m is the
    larger of m and m'.  A decision that ends in the scan of the class of
    a field root of F_* scans neither, and reports final_m 0, witness_count
    0 and no bounds.
    """

    verdict: bool
    class_tested: str
    M: int
    final_m: int
    witness_count: int
    counterexample: Optional[tuple[OKElem, PowerClassId]]
    m_history: tuple[int, ...]
    bounds: Optional[BoundsReport]


# ---------------------------------------------------------------------------
# bound formulas


def krasner_upper_bound(F: IntPoly, field: LocalField) -> Fraction:
    """Upper bound for the largest ord of a difference of two roots of F.

    Uses ord of the discriminant.  When the content ord is carried entirely
    by the leading coefficient the roots are integral and half the
    discriminant ord (normalized by lc) already works; otherwise the roots
    are mapped through eta = lc * xi, whose minimal polynomial is monic with
    integral roots, and the bound is pulled back.
    """
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    if F.is_zero:
        raise NotSquareFree("the zero polynomial is divisible by every square")
    if F.degree < 2:
        raise DegreeTooSmall("the bound needs at least two roots")
    res = resultant(F, F.derivative())
    if not res:
        raise NotSquareFree("polynomial has a repeated factor")
    return _krasner(F, res.ord())


def _krasner(F: IntPoly, res_ord: int) -> Fraction:
    """krasner_upper_bound of a square-free F of degree >= 2, given
    res_ord = ord Res(F, F').  The content test reads each coefficient's
    ord only up to lc_ord."""
    d = F.degree
    lc_ord = F.lc.ord()
    disc_ord = res_ord - lc_ord
    if all(F.field._ord_vec(c.coords, lc_ord) >= lc_ord for c in F.coeffs):
        return Fraction(disc_ord - (2 * d - 2) * lc_ord, 2)
    return Fraction(disc_ord + (d - 1) * (d - 2) * lc_ord, 2) - lc_ord


def witness_bounds(F: IntPoly, field: LocalField) -> BoundsReport:
    """Bound package for a polynomial with no roots anywhere in the field.

    max_ord_bound = d * kras_upper + ord(lc); cardA_log_p is the witness
    exponent efp/(p-1) + f*d*kras_upper + f*ord(lc).  Linear polynomials
    always have a field root, so they always raise.
    """
    analysis = _analyse(F, field)
    if analysis.has_field_root:
        raise PreconditionRootInField("polynomial has a root in the field")
    p, e, f = field.p, field.e, field.f
    d = F.degree
    lc_ord = F.lc.ord()
    kras: Optional[Fraction] = None
    max_ord = Fraction(lc_ord)
    if d >= 1:
        rad = analysis.radical
        kras = _krasner(rad.poly, rad.res_ord)
        max_ord += d * kras
    card = Fraction(e * f * p, p - 1) + f * (max_ord - lc_ord) + f * lc_ord
    pejkovic: Optional[float] = None
    if field.kind == BASE and d >= 1:
        try:
            decay = F.height ** (1 - d)
        except OverflowError:  # height >= 2^1024: the term is below 2^-1023
            decay = 0.0
        pejkovic = p / (p - 1) + 1.5 * d * d * (math.log(d) / math.log(p)) * decay + lc_ord
    return BoundsReport(
        kras_upper=kras,
        max_ord_bound=max_ord,
        cardA_log_p=card,
        pejkovic_log_p=pejkovic,
    )


def _scan_bounds(analysis: _Analysis, M: int) -> BoundsReport:
    """Bound package valid under the weaker scan precondition (no roots in
    the valuation ring only), for F = lambda * prod G^mult over its
    square-free factors.  Per-factor: a rootless linear factor has the
    constant ord of its constant term on the ring; a factor of degree >= 2
    exceeds ord lc(G) by at most deg(G) times its own Krasner bound, clamped
    at 0 to absorb non-integral roots.  The factors' leading coefficients
    cancel against lambda = lc(F) / prod lc(G)^mult exactly.  cardA_log_p
    is the log-size of the deepest witness system the scan can reach.
    kras_upper is the radical's Krasner bound: a single factor is its own
    radical, and its bound is computed once.
    """
    bound = Fraction(analysis.F.lc.ord())
    kras_upper = None
    for factor, mult in analysis.factors:
        G = factor.poly
        if G.degree == 1:
            contribution = Fraction(G.constant.ord() - G.lc.ord())
        else:
            kras_upper = _krasner(G, factor.res_ord)
            contribution = G.degree * max(kras_upper, Fraction(0))
        bound += mult * contribution
    if len(analysis.factors) > 1:  # else the radical is the one factor, bounded above
        rad = analysis.radical
        kras_upper = _krasner(rad.poly, rad.res_ord)
    card = Fraction(analysis.field.f * (math.floor(bound) + M))
    return BoundsReport(
        kras_upper=kras_upper,
        max_ord_bound=bound,
        cardA_log_p=card,
        pejkovic_log_p=None,
    )


# ---------------------------------------------------------------------------
# the certified scan


def _check_budget(budget: int) -> None:
    """A budget admits no scan unless it is positive: refuse it up front."""
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")


def _witness_size(field: LocalField, m: int, M: int) -> int:
    """p^(f(m + M)), the size of the residue system modulo pi^(m + M) that
    certifies a scan whose largest ord is m."""
    return field.p ** (field.f * (m + M))


def _scan(
    F: IntPoly, field: LocalField, M: int, budget: int, collect: bool, visited=0, level=0, a=None
):
    """Core scan of the class a + pi^level O_K, O_K by default, on the
    Taylor walk roots._walk.  Returns (final_m, m_history, counterexample,
    classes, visited).

    A node is a residue class a + pi^L O_K with the coefficients c_k of
    F(a + pi^L y).  When min_{k>=1} ord c_k >= ord c_0 + M, F / c_0 lies in
    1 + pi^M O_K on the whole class, so every value there has the ord and
    the power class of c_0 = F(a) and the node is pinned; otherwise it is
    split at margin M.  A node whose value is exactly 0, at a root of F, is
    split: no class around a root is pinned.  The walk's order makes the
    whole report deterministic.  A node's tag is ord c_0 once its point is
    tested, so the child r = 0, which repeats its parent's point, is not
    tested again.  Each level's nodes are added to visited, the nodes the
    decision's scans visited before, and past budget it raises
    ScanBudgetExceeded.
    """
    m = 0
    history = [0]
    classes: Optional[set[PowerClassId]] = set() if collect else None
    for _, nodes, split in _walk(F, M, level, a):
        visited += len(nodes)
        if visited > budget:
            message = f"scan visited {visited} nodes, past the budget {budget}"
            raise ScanBudgetExceeded(message, nodes=visited, budget=budget)
        for point, coeffs, v in nodes:
            if v is None:
                value = OKElem(field, coeffs[0])
                if not value:
                    split(point, coeffs, None)
                    continue
                if collect:
                    classes.add(class_of(value, field))
                elif not is_pth_power(value, field):
                    return m, tuple(history), (point(), class_of(value, field)), classes, visited
                v = value.ord()
                if v > m:
                    m = v
                    history.append(m)
            # pinned when every c_k, k >= 1, lies in the lattice pi^(v + M) O_K
            moduli = _moduli(field, v + M)
            if not all(x % n == 0 for c in coeffs[1:] for x, n in zip(c, moduli)):
                split(point, coeffs, v)
    return m, tuple(history), None, classes, visited


def _class_scan(P: IntPoly, a: OKElem, level: int, M: int, budget: int, visited: int = 0):
    """The counterexample of _scan on the class a + pi^level O_K, which
    holds a root r of P of multiplicity m.

    This ends.  Write P = (x - r)^m Q, Q(r) != 0.  Beyond the largest
    ord(r - r') over the other roots r' of P, ord Q(x) is constant, and
    soon Q(x) / Q(r) lies in 1 + pi^k0 O_K.  The node that holds r is never
    pinned, so each level L tests points x with ord(x - r) = L.  If p does
    not divide m, as at a root of the power-free part, ord P(x) = m L +
    ord Q(r): a non-power appears within p more levels.  If p divides m, as
    at the root of a stripped H^p where a scan of the power-free part
    failed, P(x) has the class of Q(r), the non-power class found there.
    """
    counterexample = _scan(P, P.field, M, budget, False, visited, level, a)[2]
    if counterexample is None:
        raise AssertionError("the scan of a root's class found no counterexample")
    return counterexample


# ---------------------------------------------------------------------------
# decision procedures


def _report(
    class_tested: str, M: int, counterexample, final_m=0, witness_count=0, m_history=(), bounds=None
) -> DecisionReport:
    """The report of a decision: the verdict is membership exactly when no
    counterexample was found.  A verdict reached without a scan of F_*,
    membership of the zero polynomial (0 = 0^p, in both classes) or a
    counterexample from the class of a field root, keeps the defaults: no
    witnesses and no bounds."""
    verdict = counterexample is None
    return DecisionReport(
        verdict, class_tested, M, final_m, witness_count, counterexample, m_history, bounds
    )


def _constant_report(analysis: _Analysis, M: int, class_tested: str) -> DecisionReport:
    """_scan_report of an F whose power-free part F_* is a nonzero constant
    c of ord v, which needs no scan.  The counterexample, when needed, is
    probed on F, the caller's polynomial, at the first integer point where
    it does not vanish; the value class there equals c's class.  F_* has no
    factors, so its scan bounds are those of c: no Krasner bound, max ord v
    and log-size f(v + M)."""
    power_free, F, field = analysis.power_free, analysis.F, analysis.field
    c = power_free.F.constant
    v = c.ord()
    counterexample = None
    if not is_pth_power(c, field):
        a = next(a for a in map(field.element, count()) if F(a))
        counterexample = (a, class_of(F(a), field))
    bounds = _scan_bounds(power_free, M)
    return _report(class_tested, M, counterexample, v, _witness_size(field, v, M), (v,), bounds)


def _scan_report(analysis: _Analysis, M: int, budget: int, class_tested: str) -> DecisionReport:
    """Scan of F_*, F's power-free part, without ring roots, and for C_K,
    once F_* passes, of its reciprocal; a constant F_* needs no scan
    (_constant_report).  When p divides d = deg F_*, x^d is a p-th power
    at a unit x, so the reciprocal's class there is F_*'s class at 1/x,
    which the direct scan has covered: the reciprocal is scanned on pi O_K
    only.  Otherwise it is scanned on all of O_K, so that a failure at a
    unit is still named.  A direct scan that fails where F = 0, at a root
    a of a stripped H^p, goes on with the scan of F on a + pi O_K
    (_class_scan).  The bounds come after the scans, so that a scan out of
    budget computes no resultant."""
    power_free, field = analysis.power_free, analysis.field
    F = power_free.F
    if F.degree == 0:
        return _constant_report(analysis, M, class_tested)
    final_m, history, counterexample, _, visited = _scan(F, field, M, budget, False)
    if counterexample and power_free is not analysis and not analysis.F(counterexample[0]):
        counterexample = _class_scan(analysis.F, counterexample[0], 1, M, budget, visited)
    witness_count = _witness_size(field, final_m, M)
    if class_tested == "C_K" and counterexample is None:
        rev_m, rev_history, counterexample, _, _ = _scan(
            reciprocal(F), field, M, budget, False, visited, int(F.degree % field.p == 0)
        )
        final_m = max(final_m, rev_m)
        witness_count += _witness_size(field, rev_m, M)
        history = tuple(sorted(set(history) | set(rev_history)))
    bounds = _scan_bounds(power_free, M)
    return _report(class_tested, M, counterexample, final_m, witness_count, history, bounds)


def decide_CZ(
    F: IntPoly,
    field: LocalField,
    *,
    budget: int = DEFAULT_BUDGET,
) -> DecisionReport:
    """Does F map the whole valuation ring into the p-th powers?

    Precondition: F p-th-power-free and without roots in the valuation
    ring; the zero polynomial is a member (0 is a p-th power).  The scan
    splits residue classes until F's Taylor expansion pins each one; a
    member's final_m is the largest ord F takes on the ring, and the
    residue system modulo pi^(final_m + M), of size p^(f*(final_m + M)) =
    witness_count, certifies the verdict.  A scan that visits more than
    budget nodes raises ScanBudgetExceeded; a budget below 1 raises
    ValueError.
    """
    _check_budget(budget)
    return _decide_CZ(_analyse(F, field), budget)


def _decide_CZ(analysis: _Analysis, budget: int) -> DecisionReport:
    """decide_CZ of F, given its record."""
    F, field = analysis.F, analysis.field
    M = threshold_k0(field)
    if F.is_zero:
        return _report("C_ZK", M, None)
    if any(mult >= field.p for _, mult in analysis.factors):
        raise PreconditionNotPowerFree(
            "apply reduce_power_free first: a factor has multiplicity >= p"
        )
    if any(factor.ring.exists for factor, _ in analysis.factors):
        raise PreconditionRootInRing("polynomial has a root in the valuation ring")
    return _scan_report(analysis, M, budget, "C_ZK")


def decide_CK(
    F: IntPoly,
    field: LocalField,
    *,
    budget: int = DEFAULT_BUDGET,
) -> DecisionReport:
    """Does F map the whole field into the p-th powers?

    Pipeline: strip p-th-power factors; a root of the reduced polynomial
    anywhere in the field refutes membership, witnessed by the scan of the
    root's residue class, of F or, for a root outside the ring, of the
    reduced polynomial's reciprocal; otherwise membership holds iff both
    the reduced polynomial and its reciprocal pass the valuation-ring scan.
    F is decomposed once, and each square-free factor and its reciprocal
    are searched for ring roots once.  The zero polynomial is a member (0
    is a p-th power).  Scans that visit more than budget nodes together
    raise ScanBudgetExceeded; the root search is not counted.  A budget
    below 1 raises ValueError.
    """
    _check_budget(budget)
    return _decide_CK(_analyse(F, field), budget)


def _decide_CK(analysis: _Analysis, budget: int) -> DecisionReport:
    """decide_CK of F, given its record."""
    F, field = analysis.F, analysis.field
    M = threshold_k0(field)
    if F.is_zero:
        return _report("C_K", M, None)
    power_free = analysis.power_free
    reduced = power_free.F
    for factor, _ in power_free.factors:
        if factor.ring.exists:
            P, root = F, factor.ring.roots[0]
        elif factor.rev.exists:
            P, root = reciprocal(reduced), factor.rev.roots[0]
        else:
            continue
        # the class a + pi^rho O_K of the root report, a + pi O_K for rho = inf
        level = root.precision if root.precision < math.inf else 1
        return _report("C_K", M, _class_scan(P, root.truncation, level, M, budget))
    # no root in the field: in particular none in the ring, for the
    # reduced polynomial and for its reciprocal, as the scans require
    return _scan_report(analysis, M, budget, "C_K")


def class_spectrum(
    F: IntPoly,
    field: LocalField,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[set[PowerClassId], bool]:
    """The exact set of power classes attained by F on the whole field,
    plus whether the value 0 is attained (by a p-th-power factor's root;
    the reduced polynomial itself must be rootless).

    When p does not divide the reduced degree, every class is attained:
    far from the origin the value class is class(lc) twisted by arbitrary
    unit classes and uniformizer exponents coprime to p.  Otherwise the
    collected classes of the reduced polynomial on the valuation ring and
    of its reciprocal on pi O_K are exactly the classes attained on the
    field, because x outside the ring contributes class(rev F_*(1/x)) there,
    with 1/x in pi O_K.  The two scans share the budget of nodes; a budget
    below 1 raises ValueError.
    """
    _check_budget(budget)
    analysis = _analyse(F, field)
    if F.is_zero:
        raise ZeroPolynomial("the spectrum of the zero polynomial is not defined")
    reduced = analysis.power_free.F
    rooted = [mult for factor, mult in analysis.factors if factor.has_field_root]
    attains_zero = bool(rooted)
    if reduced.degree == 0:
        return {class_of(reduced.constant, field)}, attains_zero
    if any(mult % field.p for mult in rooted):
        raise PreconditionRootInField(
            "the power-free part has a root in the field; the scan cannot pin classes near it"
        )
    M = threshold_k0(field)
    if reduced.degree % field.p != 0:
        return set(enumerate_classes(field)), attains_zero
    _, _, _, direct, visited = _scan(reduced, field, M, budget, True)
    _, _, _, mirrored, _ = _scan(reciprocal(reduced), field, M, budget, True, visited, 1)
    return direct | mirrored, attains_zero
