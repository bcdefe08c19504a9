"""Root existence in the valuation ring and in the full local field, and
exact p-th roots of ring elements and of polynomials.

One walk, _walk, serves decide's scan, the root search and the descent of
a root: a node is a class a + pi^L O_K with the coefficients c_k of
G(a + pi^L y).  By the Newton polygon, the class holds exactly k* roots of
G over an algebraic closure, k* the largest index at which ord c_k is
smallest (its Weierstrass degree).  k* = 0 prunes the node.  k* = 1 means
one root, in K as the class is stable under conjugation, and once ord G(a)
> 2 ord G'(a), Hensel's lemma gives a root within ord c_0 - ord c_1 + L >=
L of a, which is that root.  Other nodes split; G is square-free, so the
search ends.

The descent takes a reported root deeper, and the exact p-th roots that
perfect-power detection tries are the roots of X^p - x.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache, partial
from typing import NamedTuple, Union

from .errors import NotSquareFree, ZeroPolynomial
from .localfield import BASE, LocalField, OKElem, residues
from .polyring import (
    IntPoly,
    SquareFreeDecomposition,
    _power_free_part,
    _squarefree_decompose,
    reciprocal,
    resultant,
)
from .powerclasses import _balanced, _moduli, threshold_k0

__all__ = [
    "PadicRootReport",
    "RootApproximation",
    "has_root_in_field",
    "is_perfect_pth_power_poly",
    "root_multiplicity_report",
    "roots_in_valuation_ring",
]


class RootApproximation(NamedTuple):
    """A certified root truncation: some genuine root r has ord(r - truncation)
    at least the stated precision.  Exact roots carry infinite precision."""

    truncation: OKElem
    precision: Union[int, float]
    certified_by_hensel: bool


class PadicRootReport(NamedTuple):
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


def _ring_roots(G: IntPoly, field: LocalField, level: int = 0) -> PadicRootReport:
    """The search of roots_in_valuation_ring for a square-free G of degree
    at least 1; from level 1, the roots in pi O_K only, as the walk starts
    at that class, and search_depth_used is at least 1.

    Ords are read only as deep as their comparisons need: with low =
    min_{k>=1} ord c_k, found from the top down with the running minimum as
    each cap, c_0 is read up to max(low, 2(low - L) + 1), which settles
    both k* = 0 (ord c_0 < low) and Hensel's test.  A reported root's
    precision takes the exact ord c_0."""
    ord_vec = field._ord_vec
    roots: list[RootApproximation] = []
    for level, nodes, split in _walk(G, 1, level):
        for point, coeffs, _ in nodes:
            low, k_star = math.inf, 0
            for k in range(len(coeffs) - 1, 0, -1):
                o = ord_vec(coeffs[k], low)
                if o < low:
                    low, k_star = o, k
            if not k_star:
                continue  # only c_0 is kept: a settled class, which holds no root
            hensel = 2 * (low - level)
            c0 = ord_vec(coeffs[0], max(low, hensel + 1))
            if c0 < low:
                continue  # k* = 0: the class holds no root
            if k_star == 1 and c0 > hensel:
                roots.append(RootApproximation(point(), ord_vec(coeffs[0]) - low + level, True))
            else:
                split(point, coeffs, None)
    return PadicRootReport(exists=bool(roots), roots=tuple(roots), search_depth_used=level)


def _descend(G: IntPoly, root: RootApproximation):
    """Truncations of precision rho + 1, rho + 2, ... of the root r of the
    square-free G that root = (a, rho) reports.  The class a + pi^rho O_K
    holds no other root, so exactly one child of each node on the way down
    holds a root: the one with ord c_0 >= min_{k>=1} ord c_k."""
    field = G.field
    for level, nodes, split in _walk(G, 1, root.precision, root.truncation):
        node = nodes[0]  # the root's class, at the start
        if level > root.precision:
            point, coeffs, tag = next(
                (b, c, t)
                for b, c, t in nodes
                if len(c) > 1 and field._ord_vec(c[0], low := _least_ord(field, c[1:])) >= low
            )
            a = point()  # built once, for the truncation and for the split
            yield RootApproximation(a, level, False)
            node = (lambda: a, coeffs, tag)
        split(*node)


def _walk(G: IntPoly, margin: int, level: int, a: OKElem | None = None):
    """The level-order walk over G's Taylor nodes that the scan, the root
    search and the descent run on.  A node is (point, coeffs, tag): a
    function that builds a, the coefficient coordinates of G(a + pi^L y),
    and a tag of the caller's.  The walk starts at a + pi^level O_K, a = 0
    when None: O_K, pi O_K or a descent's class.  It yields (L, nodes,
    split) for L = level, level + 1, ... until a level splits no node;
    split(point, coeffs, tag) puts that node's children, by _children at
    margin, into the next level at once, in residue order.  The child r = 0
    repeats its parent's point and inherits its tag, the others have tag
    None."""
    field = G.field
    coeffs, shift = _node(G, level, a)
    nodes = [(field.zero if a is None else lambda: a, coeffs, None)]

    def split(point, coeffs, tag):
        children.extend(_children(point(), coeffs, tag, shift, margin, field))

    while True:
        children = []
        yield level, nodes, split
        if not children:
            return
        nodes = children
        shift = shift * field.uniformizer()
        level += 1


def _node(G: IntPoly, level: int, a: OKElem | None) -> tuple[list, OKElem]:
    """The start of a walk over G: the coefficient coordinates of G(a +
    pi^level y), by synthetic divisions by y - a, then c_k pi^(k level),
    and the shift pi^level; zero terms are skipped.  At level 0 the start
    is O_K: G's coordinates as they are, and shift 1; at level 1 the scales
    pi^k are read from _pi_powers."""
    field = G.field
    coeffs = [c.coords for c in G.coeffs]
    if not level:
        return coeffs, field.one()
    mul = field._mul_vec
    d = len(coeffs) - 1
    if a:
        _shift(coeffs, a.coords, 0, d, mul)
    if level == 1:
        shift = field.uniformizer()
        scales = _pi_powers(field, d)
    else:
        shift = field.uniformizer() ** level
        scales = [field.one().coords]
        for _ in range(d):
            scales.append(mul(scales[-1], shift.coords))
    coeffs[1:] = [mul(x, s) if any(x) else x for x, s in zip(coeffs[1:], scales[1:])]
    return coeffs, shift


def _shift(c: list, r: tuple[int, ...], start: int, stop: int, mul) -> None:
    """Passes start..stop - 1 of the synthetic divisions of c, coefficient
    coordinates low degree first, by y - r, in place: after passes 0..d -
    1, c holds the coefficients of the polynomial at y + r, and pass 0
    alone puts its value at r in c_0.  Pass 0 skips each zero c_(j+1),
    which adds nothing to c_j.  After it no coefficient is zero, as c_d
    and r are not, so the later passes test none."""
    top = len(c) - 2
    for i in range(start, stop):
        for j in range(top, i - 1, -1):
            if i or any(c[j + 1]):
                c[j] = tuple(map(operator.add, c[j], mul(c[j + 1], r)))


@lru_cache(maxsize=64)
def _pi_powers(field: LocalField, d: int) -> tuple[tuple[int, ...], ...]:
    """The coordinates of pi^0, ..., pi^d, which scale the Taylor
    coefficients c_0, ..., c_d of a child by pi^k."""
    mul, pi = field._mul_vec, field.uniformizer().coords
    out = [field.one().coords]
    for _ in range(d):
        out.append(mul(out[-1], pi))
    return tuple(out)


def _children(a: OKElem, coeffs: list, tag, shift: OKElem, margin: int, field: LocalField) -> list:
    """The p^f children of the Taylor node (a, L, coeffs, tag), shift =
    pi^L, as walk nodes: for each digit r in residues(field, 1) order, a
    function that builds the point a + pi^L r, called only where the point
    is read, the coefficients of G(a + pi^L (r + pi y)), which are the
    parent's shifted by r, by repeated synthetic division, with c_k then
    scaled by pi^k, and a tag.  The first child, r = 0, has the point a,
    keeps the value c_0 and inherits the tag; the others have tag None.

    As ord pi = 1 and r and the binomials are integral, ord c'_k >= k +
    min_{j>=k} ord c_j >= 1 + min_{j>=1} ord c_j =: b for k >= 1.  The first
    pass, Horner's, gives c'_0 = G(r); a child with b >= ord c'_0 + margin
    keeps c'_0 alone, which settles it as its full expansion would: margin
    1 prunes a root-search class (k* = 0), margin M pins a scan class.

    Both ords are read only as deep as that test needs: b through the
    running minimum of the parent's ords, each c'_0 up to the cap b -
    margin + 1, below which it settles its child.  Zero terms are skipped
    in the shift and the scaling."""
    mul = field._mul_vec
    d = len(coeffs) - 1
    cap = 2 + _least_ord(field, coeffs[1:]) - margin
    scales = _pi_powers(field, d)
    out = []
    for r in residues(field, 1):
        c = list(coeffs)
        if r:
            _shift(c, r.coords, 0, 1, mul)
        if field._ord_vec(c[0], cap) < cap:
            c = c[:1]
        else:
            if r:
                _shift(c, r.coords, 1, d, mul)
            c = [mul(x, s) if any(x) else x for x, s in zip(c, scales)]
        out.append((partial(_child_point, a, shift, r), c, None if out else tag))
    return out


def _least_ord(field: LocalField, vecs: list) -> Union[int, float]:
    """min ord of the coordinate vectors vecs, each read, from the last to
    the first, only as deep as the least ord after it."""
    low = math.inf
    for c in reversed(vecs):
        low = field._ord_vec(c, low)
    return low


def _child_point(a: OKElem, shift: OKElem, r: OKElem) -> OKElem:
    """a + shift r, the point of a child."""
    field = a.field
    return OKElem(field, tuple(map(operator.add, a.coords, field._mul_vec(shift.coords, r.coords))))


class _SquareFree:
    """A square-free factor G of degree >= 1 with ord Res(G, G') and the
    ring-root reports of G and of its reciprocal, each found on first use.
    res_ord is the value given, as the decomposition of a square-free F
    gives it (from Yun's remainder sequence, or for a wide F from the
    resultant of its copy modulo p^N), or else takes one resultant."""

    def __init__(self, poly: IntPoly, field: LocalField, res_ord: int | None = None):
        self.poly = poly
        self.field = field
        if res_ord is not None:
            self.res_ord = res_ord

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
        """The inverses of G's roots outside the ring.  Asked for only when
        G has no ring root, so that G(0) != 0 and the reciprocal has no unit
        root: its search covers pi O_K only.  Where G has a ring root, that
        search would miss the unit roots, so it raises AssertionError."""
        if self.ring.exists:
            raise AssertionError("rev is asked for only when G has no ring root")
        return _ring_roots(reciprocal(self.poly), self.field, 1)

    @property
    def has_field_root(self) -> bool:
        return self.ring.exists or self.rev.exists


class _Analysis:
    """The analysis record of F, shared by every entry point that analyses
    F: its square-free decomposition, each factor's _SquareFree record and
    multiplicity, and the radical, each found on first use.  factors, when
    given, are F's factor records: the record of the power-free part is
    built with F's."""

    def __init__(self, F: IntPoly, field: LocalField, factors=None):
        self.F = F
        self.field = field
        if factors is not None:
            self.factors = factors

    @cached_property
    def _decomposed(self):
        return _squarefree_decompose(self.F)

    @property
    def decomposition(self) -> SquareFreeDecomposition:
        return self._decomposed[0]

    @cached_property
    def factors(self) -> tuple[tuple[_SquareFree, int], ...]:
        """A square-free F's one factor takes ord Res from the decomposition."""
        dec, res_ord = self._decomposed
        return tuple((_SquareFree(G, self.field, res_ord), mult) for G, mult in dec.factors)

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
        # F's factor records, with multiplicities mod p: no second decomposition
        factors = tuple((factor, mult % p) for factor, mult in self.factors if mult % p)
        return _Analysis(_power_free_part(self.F, self.decomposition), self.field, factors)

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


# ---------------------------------------------------------------------------
# exact p-th roots of ring elements and of polynomials


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact positive k-th root of n >= 1, or None."""
    r = 1 << (n.bit_length() + k - 1) // k
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    return r if r**k == n else None


def _pth_roots(x: OKElem, field: LocalField) -> list[OKElem]:
    """Every w in the coordinate ring Z[t] with w^p = x: an integer root
    over the base field; over an extension each ring root of X^p - x,
    descended once, its truncation lifted to balanced coordinates and
    verified at the depths s, 2s, 4s, ... below a depth D derived from x,
    and at D, where s = max(2 k0 + ord x, 8).  The first lift that
    verifies is the root: two roots of X^p - x differ by ord x / p + e /
    (p - 1) < s, so a w in Z[t] with w^p = x that agrees with the root
    beyond s is that root.  For p = 2, +-w with the one whose first
    nonzero coordinate is positive first.

    The depth.  Let g = sum g_i t^i be the defining polynomial, of degree
    n, and R = 1 + max |g_i|, which bounds every complex conjugate of t
    (Cauchy).  For each embedding s, |s(w)|^p = |s(x)| <= X = sum |x_i|
    R^i.  By Euler's lemma the coordinates of w are w_i = Tr(w b_i(t) /
    g'(t)), where g(X) / (X - t) = sum b_i(t) X^i is the dual basis; b_i =
    sum_(k>i) g_k t^(k-i-1) has at most n terms, each below R^n in
    absolute value, so |b_i| <= n R^n.  The discriminant of g, an
    irreducible integer polynomial, is a nonzero integer and the product
    of the g'(s(t)), each of absolute value at most (2R)^(n-1), so |g'(s(t))|
    >= (2R)^(-(n-1)^2).  Summing over the n embeddings, every coordinate
    of w is below C = n^2 R^n (2R)^((n-1)^2) X^(1/p).  With p^m > 2C and D
    = e (m + 1), a truncation a with ord(a - w) >= D agrees with w modulo
    p^(m+1) in every coordinate (the lattice of ord >= D), so its balanced
    coordinates, in (-p^(m+1)/2, p^(m+1)/2], are those of w.  A ring root
    outside Z[t] fails the check at D and is dropped.
    """
    p = field.p
    if not x:
        return [field.zero()]
    if field.kind == BASE:
        n = x.coords[0]
        r = _int_nth_root(abs(n), p)
        if r is None or (n < 0 and p == 2):
            return []
        w = field.element(r if n > 0 else -r)
        return [w, -w] if p == 2 else [w]
    if x.ord() % p:
        return []
    n = field.degree
    R = 1 + max(map(abs, field.defining))
    # p^m > 2 C, raised to the p-th power so that it is a test on integers
    bound = (2 * n * n * R**n * (2 * R) ** ((n - 1) ** 2)) ** p * sum(
        abs(c) * R**i for i, c in enumerate(x.coords)
    )
    m = 0
    while p ** (m * p) <= bound:
        m += 1
    depth = field.e * (m + 1)
    levels, level = [], max(2 * threshold_k0(field) + x.ord(), 8)
    while level < depth:
        levels.append(level)
        level *= 2
    levels.append(depth)
    G = IntPoly(field, (-x,) + (0,) * (p - 1) + (1,))
    out = []
    for root in _ring_roots(G, field).roots:
        deeper = _descend(G, root)
        for level in levels:
            if root.precision < level:
                root = next(r for r in deeper if r.precision >= level)
            w = OKElem(field, _balanced(root.truncation.coords, _moduli(field, level)))
            if w**p == x:
                out.append(w)
                break
    if p == 2:
        out.sort(key=lambda w: next(c for c in w.coords if c) < 0)
    return out


def is_perfect_pth_power_poly(F: IntPoly, p: int) -> IntPoly | None:
    """Exact polynomial p-th root over the fraction field, or None.

    When F = G^p the returned G has valuation-ring coefficients and
    satisfies G^p == F exactly (so G is recovered up to a p-th root of
    unity).  G = w W / lc(W) for the first exact p-th root w of lc(F) that
    makes it integral, W = prod G_i^(m_i / p) over F's square-free factors.
    The final identity is always verified, making false positives impossible.
    """
    if p != F.field.p:
        raise ValueError("p must be the residue characteristic of the field")
    if F.is_zero:
        raise ZeroPolynomial("the zero polynomial is excluded")
    field = F.field
    dec = _analyse(F, field).decomposition
    if any(mult % p for _, mult in dec.factors):
        return None
    W = IntPoly(field, (1,))
    for G, mult in dec.factors:
        W = W * G ** (mult // p)
    # c = lc(W)^p, so F = lc * (W / lc(W))^p with the integer lc(W)
    s = W.lc.coords[0]
    for w in _pth_roots(dec.lc, field):
        G = W * w
        if not any(n % s for coeff in G.coeffs for n in coeff.coords):
            G = IntPoly(field, [[n // s for n in coeff.coords] for coeff in G.coeffs])
            return G if G**p == F else None
    return None
