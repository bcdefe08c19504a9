"""Multiplicative p-th power classes of a local field.

The unit classes are detected at a finite precision threshold k0: once two
units agree modulo pi^k0, with k0 past ord(p) * p / (p - 1), their ratio is
a p-th power.  So the class of x = pi^v * u is fixed by v mod p and by the
residue of the unit part u = x / pi^v modulo pi^k0 (LocalField._unit_part).
The field has one table, over its units modulo pi^k0, and every question
becomes one dict lookup in it, keyed by a canonical residue.

The key.  Write x = sum c_i t^i in the model's power basis.  The model's
valuation is ord x = min(e * v_p(c_i) + i) in the Eisenstein model and
min v_p(c_i) in the other two, so the elements of ord >= k form the lattice
spanned by p^ceil((k - i) / e) * t^i (by p^k * t^i outside the Eisenstein
model; a nonpositive exponent means modulus 1).  Subtraction acts on
coordinates, so x and y agree modulo pi^k exactly when every c_i agrees
with c'_i modulo its lattice modulus, and the tuple of coordinates reduced
by those moduli is a canonical key of x modulo pi^k.  It needs no digit
peeling.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

from .errors import ArtinCountViolation, ZeroArgument
from .localfield import EISENSTEIN, LocalField, OKElem, _power, iter_residues

__all__ = [
    "PowerClassId",
    "class_of",
    "enumerate_classes",
    "is_pth_power",
    "same_class",
    "threshold_k0",
]


def threshold_k0(field: LocalField) -> int:
    """Smallest k with 1 + m^k contained in the p-th powers, plus margin.

    Equals floor(e * p / (p - 1)) + 1; congruence modulo the k0-th ideal
    power therefore pins down the power class of a unit.
    """
    return field.e * field.p // (field.p - 1) + 1


@lru_cache(maxsize=256)
def _moduli(field: LocalField, k: int) -> tuple[int, ...]:
    """Per-coordinate moduli of the lattice of elements of ord >= k, built
    once per (field, k): the scan reads them at every node."""
    p = field.p
    if field.kind == EISENSTEIN:
        return tuple(p ** max(0, -((i - k) // field.e)) for i in range(field.e))
    return (p**k,) * field.degree


def _balanced(coords: tuple[int, ...], moduli: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates congruent to coords modulo the lattice given by its
    moduli, each in (-m/2, m/2]."""
    out = []
    for c, m in zip(coords, moduli):
        r = c % m
        out.append(r - m if 2 * r > m else r)
    return tuple(out)


def _key(coords: tuple[int, ...], moduli: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical key of coordinates modulo the lattice given by its moduli."""
    return tuple(map(operator.mod, coords, moduli))


@lru_cache(maxsize=64)
def _unit_class_reps(
    field: LocalField,
) -> tuple[tuple[OKElem, ...], dict[tuple[int, ...], int], tuple[int, ...], int]:
    """The one power-class table of the field, built by coset filling.

    Returns the class representatives, a dict from the key modulo pi^k0 of
    every unit to the index of its class, the moduli of that key, and k0.
    The p-th powers of units modulo pi^k0 form a subgroup Q, and two units
    lie in one class exactly when their quotient lies in Q; so each new
    representative r claims the keys of r * q for every q in Q.  Units are
    visited in residue order with 1 seeded first, so each representative is
    the first unit of its class in that order, and the trivial class is
    always represented by 1.  Elements of every valuation are read through
    their unit parts (_unit_class_index).  Powers and products run on
    coordinate tuples through LocalField._mul_vec.
    """
    p, k0 = field.p, threshold_k0(field)
    mul, one = field._mul_vec, field.one().coords
    moduli = _moduli(field, k0)
    units = [c.coords for c in iter_residues(field, k0) if c.is_unit()]
    powers = list({_key(q, moduli): q for q in (_power(c, p, mul, one) for c in units)}.values())
    reps: list[OKElem] = []
    index: dict[tuple[int, ...], int] = {}
    for c in [one] + units:
        if _key(c, moduli) not in index:
            for q in powers:
                index[_key(mul(c, q), moduli)] = len(reps)
            reps.append(OKElem(field, c))
    return tuple(reps), index, moduli, k0


def _unit_class_index(x: OKElem, v: int, field: LocalField) -> int:
    """Class index of the unit x / pi^v, for x of ord v."""
    _, index, moduli, k0 = _unit_class_reps(field)
    return index[_key(field._unit_part(x.coords, v, k0), moduli)]


def is_pth_power(x: OKElem, field: LocalField) -> bool:
    """Exact membership of x in the p-th powers of the field.

    Zero counts as a power.  For x = pi^v * u the test requires p | v and a
    unit c with c^p congruent to u at the threshold precision, that is
    ord(x - pi^v * c^p) >= v + k0.  Those u are the trivial unit class, so
    the test is one lookup of the key of the unit part x / pi^v modulo pi^k0.
    """
    if x.field != field:
        raise ValueError("element belongs to a different field")
    v = x.ord()
    if v is math.inf:
        return True
    return v % field.p == 0 and _unit_class_index(x, v, field) == 0


def same_class(x: OKElem, y: OKElem, field: LocalField) -> bool:
    """Whether x and y lie in the same coset modulo p-th powers.

    Both arguments must be nonzero; zero belongs to no coset.
    """
    if not x or not y:
        raise ZeroArgument("power classes are defined for nonzero elements only")
    return is_pth_power(x * y ** (field.p - 1), field)


class PowerClassId(NamedTuple):
    """Canonical identifier of one coset: rep = pi^j * unit_rep.

    unit_index is the position of unit_rep in the deterministic ordering of
    unit class representatives, so (j, unit_index) sorts classes canonically.
    """

    j: int
    unit_index: int
    unit_rep: OKElem
    rep: OKElem

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.j, self.unit_index)

    def label(self) -> str:
        return str(self.rep)


@lru_cache(maxsize=64)
def enumerate_classes(field: LocalField) -> tuple[PowerClassId, ...]:
    """All power classes as pi^j * u, with j major and units in rep order.

    The count must be p^(e*f + 1) or p^(e*f + 2) (the latter exactly when
    the field contains the p-th roots of unity); anything else signals a
    broken classification and raises ArtinCountViolation.
    """
    p = field.p
    unit_reps = _unit_class_reps(field)[0]
    pi = field.uniformizer()
    out: list[PowerClassId] = []
    for j in range(p):
        shift = pi**j
        for idx, u in enumerate(unit_reps):
            out.append(PowerClassId(j=j, unit_index=idx, unit_rep=u, rep=shift * u))
    n = field.e * field.f
    expected = (p ** (n + 1), p ** (n + 2))
    if len(out) not in expected:
        raise ArtinCountViolation(
            f"found {len(out)} classes, expected one of {expected}",
            count=len(out),
            expected=expected,
        )
    return tuple(out)


def class_of(x: OKElem, field: LocalField) -> PowerClassId:
    """The canonical class containing the nonzero element x."""
    if not x:
        raise ZeroArgument("zero has no power class")
    if x.field != field:
        raise ValueError("element belongs to a different field")
    classes = enumerate_classes(field)
    v = x.ord()
    units_per_j = len(classes) // field.p
    return classes[(v % field.p) * units_per_j + _unit_class_index(x, v, field)]
