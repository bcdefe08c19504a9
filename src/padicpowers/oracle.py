"""Brute-force reference deciders.

These scan full residue systems and share no logic with the fast modules
beyond field arithmetic, so agreement between the two routes is evidence
rather than tautology.  Depth must be at least ep/(p-1) + 1 for the power
test and at least the scan's stability depth for the polynomial test; both
grow exponentially with depth and are meant for small cases only.
oracle_max_ord recomputes the largest value ord that a scan reports as
final_m.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import KTooLargeForMemory
from .localfield import BASE, RESIDUE_CAP, LocalField, OKElem, _over_residue_cap, iter_residues

__all__ = ["oracle_decide", "oracle_is_pth_power", "oracle_max_ord"]


def _min_depth(field: LocalField) -> int:
    return field.e * field.p // (field.p - 1) + 1


@lru_cache(maxsize=32)
def _power_residues(p: int, depth: int) -> frozenset[int]:
    if _over_residue_cap(p, depth):
        raise KTooLargeForMemory(f"p^depth = {p}^{depth} exceeds the cap {RESIDUE_CAP}")
    return frozenset(pow(b, p, p**depth) for b in range(p**depth))


def _evaluate(coeffs: tuple[OKElem, ...], x: OKElem, field: LocalField) -> OKElem:
    acc = field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def oracle_is_pth_power(x: OKElem, field: LocalField, depth: int) -> bool:
    """Exhaustive p-th power test: strip the uniformizer power, then scan
    every residue b to depth for ord(x - pi^v b^p) >= v + depth."""
    if depth < _min_depth(field):
        raise ValueError(f"depth must be at least {_min_depth(field)}")
    if not x:
        return True
    v = x.ord()
    if v % field.p:
        return False
    if field.kind == BASE:
        # x = p^v u with u an integer unit; x - p^v b^p has ord >= v + depth
        # exactly when b^p = u mod p^depth, so one set lookup replaces the scan
        p = field.p
        unit = x.coords[0] // p**v
        powers = _power_residues(p, depth)  # checks the cap before p^depth is built
        return unit % p**depth in powers
    shift = field.one()
    pi = field.uniformizer()
    for _ in range(v):
        shift = shift * pi
    for b in iter_residues(field, depth):
        if (x - shift * b**field.p).ord() >= v + depth:
            return True
    return False


def oracle_decide(F, field: LocalField, depth: int) -> bool:
    """True when F's value at every residue to depth is a p-th power, each
    tested at the minimum depth k0, which is exact as 1 + m^k0 lies in K^p."""
    k0 = _min_depth(field)
    if depth < k0:
        raise ValueError(f"depth must be at least {k0}")
    for a in iter_residues(field, depth):
        if not oracle_is_pth_power(_evaluate(F.coeffs, a, field), field, k0):
            return False
    return True


def oracle_max_ord(F, field: LocalField, depth: int) -> int:
    """Largest min(ord F(a), depth) over the residues a modulo pi^depth.

    When depth exceeds the largest ord F attains on the valuation ring plus
    the scan threshold, this is that largest ord, the final_m a certified
    scan of a member must report.
    """
    return max(
        min(_evaluate(F.coeffs, a, field).ord(), depth)
        for a in iter_residues(field, depth)
    )
