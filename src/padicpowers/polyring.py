"""Exact integer-coefficient polynomials over a local field model.

Provides the polynomial plumbing the decision procedures sit on: reciprocal
polynomials, Yun square-free decomposition into factors cleared of
denominators, p-th-power-free reduction that leaves power-free input as it
is, and resultants.  Perfect-power detection needs exact p-th roots of ring
elements, found by the ring-root search, so it lives in roots.  All computations are exact;
the fraction-field layer is private and every result that claims
integrality is verified before it is returned.  Its elements, on which
Yun's algorithm runs, are integer coordinates over one denominator in
lowest terms, and their products run on the integer kernel
LocalField._mul_vec; an inverse is read from the integral cofactor of its
numerator, which localfield provides (a closed form over quadratic fields,
otherwise Bareiss's elimination from the integer system of multiplication
by it).
Yun's first gcd(F, F') keeps the leading coefficients of its remainders,
which give ord Res(F, F') of a square-free F.  A wide F, of height at
least 2^512, is first tested at working precision: Res(F, F') is congruent
modulo p^N to the resultant of F's copy with coordinates reduced modulo
p^N, so a nonzero copy resultant with ord below e N certifies that F is
square-free with the same ord, and Yun runs on no copy.  A wide F that no
copy certifies takes Res(F, F') exactly, and a nonzero value certifies it
in the same way; only a wide F with a repeated factor reaches Yun.
Yun's factors are cleared of denominators, and the identity c F = lc prod
G^m is checked, on coordinate tuples; the one factor of a certified
square-free F is read from the integral cofactor of lc(F), with no
fraction-field element.

Evaluation, the inner loop of every scan, runs Horner on coordinates:
plain integers over the base field, reduced coordinate tuples through
LocalField._mul_vec over extensions.  Products of polynomials convolve
coordinate tuples through the same kernel.  Resultants run one subresultant
remainder sequence on coordinate tuples over Z[t]/(g), with the base field
as the one-coordinate case Z.  A divisor b that is not a rational integer
is inverted once, as the same integral cofactor: adj b with b adj b = d, d
a rational integer, so every division by b is an exact integer division of
the coordinates.  Powers of polynomials and of the sequence's coefficients
take localfield's one binary power.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, NamedTuple, Union

from .errors import ZeroPolynomial
from .localfield import LocalField, OKElem, _cofactor, _power, _vp
from .powerclasses import _balanced, _moduli, is_pth_power

__all__ = [
    "IntPoly",
    "NecessaryConditions",
    "SquareFreeDecomposition",
    "is_power_free",
    "necessary_conditions",
    "reciprocal",
    "reduce_power_free",
    "resultant",
    "squarefree_decompose",
]

CoeffLike = Union[int, OKElem]


class IntPoly:
    """Polynomial with valuation-ring coefficients, stored low degree first.

    The zero polynomial is the empty coefficient tuple and has no degree.
    Instances are immutable and hashable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: LocalField, coeffs: Iterable[CoeffLike] = ()):
        vec = [field.element(c) for c in coeffs]
        while vec and not vec[-1]:
            vec.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return IntPoly, (self.field, self.coeffs)

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def lc(self) -> OKElem:
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> OKElem:
        return self.coeffs[0] if self.coeffs else self.field.zero()

    @property
    def height(self) -> int:
        """Largest absolute value of any integer coordinate."""
        return max((abs(n) for c in self.coeffs for n in c.coords), default=0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "IntPoly":
        if isinstance(other, IntPoly):
            if other.field != self.field:
                raise ValueError("mixed-field polynomial arithmetic")
            return other
        if isinstance(other, (int, OKElem)):
            return IntPoly(self.field, (other,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return IntPoly(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    @classmethod
    def _of(cls, field: LocalField, vecs: list[tuple[int, ...]]) -> "IntPoly":
        """The polynomial with the given reduced coordinate tuples of field
        as coefficients, low degree first, without coercing each through
        field.element."""
        while vecs and not any(vecs[-1]):
            vecs.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "coeffs", tuple([OKElem(field, v) for v in vecs]))
        return poly

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        field = self.field
        a = [c.coords for c in self.coeffs]
        b = [c.coords for c in o.coeffs]
        if not a or not b:
            return IntPoly(field)
        return IntPoly._of(field, _convolve(a, b, field._mul_vec))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        return _power(self, exponent, operator.mul, IntPoly(self.field, (1,)))

    def __call__(self, x: CoeffLike) -> OKElem:
        field = self.field
        xs = field.element(x).coords
        if field.degree == 1:
            xv, acc = xs[0], 0
            for c in reversed(self.coeffs):
                acc = acc * xv + c.coords[0]
            return OKElem(field, (acc,))
        coeffs = self.coeffs
        vec = coeffs[-1].coords if coeffs else (0,) * field.degree
        for c in reversed(coeffs[:-1]):
            vec = tuple(map(operator.add, field._mul_vec(vec, xs), c.coords))
        return OKElem(field, vec)

    def derivative(self) -> "IntPoly":
        return IntPoly(self.field, tuple(c * i for i, c in enumerate(self.coeffs) if i))

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPoly({[list(c.coords) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            negate = False
            if cs.startswith("-") and " " not in cs:
                cs, negate = cs[1:], True
            if " " in cs:
                cs = f"({cs})"
            if i == 0:
                term = cs
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if cs == "1" else f"{cs}{xs}"
            if not parts:
                parts.append(f"-{term}" if negate else term)
            else:
                parts.append(f"- {term}" if negate else f"+ {term}")
        return " ".join(parts) if parts else "0"


def _convolve(a: list, b: list, mul) -> list:
    """Product of two nonempty lists of coordinate tuples, low degree
    first, with coefficients multiplied by mul; zero terms of either
    factor are skipped."""
    out = [(0,) * len(a[0])] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if any(y)]
    for i, x in enumerate(a):
        if any(x):
            for j, y in terms:
                out[i + j] = tuple(map(operator.add, out[i + j], mul(x, y)))
    return out


def reciprocal(F: IntPoly) -> IntPoly:
    """Reverse the coefficient vector: x^deg(F) * F(1/x).

    Trailing zero coefficients of the input become nothing, so factors of x
    silently drop; the reciprocal of a polynomial with nonzero constant term
    has the same degree and reciprocal is an involution there.
    """
    if F.is_zero:
        raise ZeroPolynomial("the zero polynomial has no reciprocal")
    return IntPoly(F.field, tuple(reversed(F.coeffs)))


# ---------------------------------------------------------------------------
# the private fraction-field layer


class _KElem:
    """Element of K as integer coordinates num in the power basis over one
    positive denominator den, in lowest terms: gcd(den, *num) = 1.

    Arithmetic is Henrici's (Knuth, TAOCP 2, 4.5.1), which keeps lowest
    terms with gcds against denominators only: a product cancels each
    operand's content against the other's denominator before it multiplies
    on the integer kernel LocalField._mul_vec, and a sum takes d1 = gcd of
    the denominators, then gcd(d1, *t) of its cross sum t.  Over an
    extension a product is normalised once more, because reduction modulo
    g can create a common factor: (t/2) * t = 2/2 when t^2 = 2.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: LocalField, num: tuple[int, ...], den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return any(self.num)

    def _sum(self, b: tuple[int, ...], db: int) -> "_KElem":
        a, da = self.num, self.den
        d1 = math.gcd(da, db)
        if d1 == 1:
            return _KElem(self.field, tuple(x * db + y * da for x, y in zip(a, b)), da * db)
        ea, eb = da // d1, db // d1
        t = tuple(x * eb + y * ea for x, y in zip(a, b))
        d2 = math.gcd(d1, *t)
        if d2 != 1:
            t = tuple(x // d2 for x in t)
        return _KElem(self.field, t, ea * (db // d2))

    def __add__(self, other: "_KElem") -> "_KElem":
        return self._sum(other.num, other.den)

    def __sub__(self, other: "_KElem") -> "_KElem":
        return self._sum(tuple(-y for y in other.num), other.den)

    def __neg__(self) -> "_KElem":
        return _KElem(self.field, tuple(-x for x in self.num), self.den)

    def __mul__(self, other: "_KElem") -> "_KElem":
        a, da, b, db = self.num, self.den, other.num, other.den
        if db != 1 and (g := math.gcd(db, *a)) != 1:
            a, db = tuple(x // g for x in a), db // g
        if da != 1 and (g := math.gcd(da, *b)) != 1:
            b, da = tuple(x // g for x in b), da // g
        field = self.field
        num, den = field._mul_vec(a, b), da * db
        if field.degree > 1 and den != 1 and (g := math.gcd(den, *num)) != 1:
            num, den = tuple(x // g for x in num), den // g
        return _KElem(field, num, den)

    def scale(self, k: int) -> "_KElem":
        g = math.gcd(k, self.den)
        return _KElem(self.field, tuple(x * (k // g) for x in self.num), self.den // g)

    def inverse(self) -> "_KElem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.field.degree == 1:
            a = self.num[0]
            return _KElem(self.field, (-self.den,) if a < 0 else (self.den,), abs(a))
        # 1 / (num / den) = den adj / d, in lowest terms as gcd(d, *adj) = 1
        adj, d = _cofactor(self.num, self.field)
        g = math.gcd(d, self.den)
        return _KElem(self.field, tuple(x * (self.den // g) for x in adj), d // g)


def _kzero(field: LocalField) -> _KElem:
    return _KElem(field, (0,) * field.degree)


# polynomials over the fraction field: plain tuples of _KElem, low degree first


def _kp_trim(a: list[_KElem]) -> tuple[_KElem, ...]:
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def _kp_from_int(F: IntPoly) -> tuple[_KElem, ...]:
    return tuple(_KElem(F.field, c.coords) for c in F.coeffs)


def _kp_add(a, b):
    if not a:
        return _kp_trim(list(b))
    if not b:
        return _kp_trim(list(a))
    field = a[0].field
    out = list(a) + [_kzero(field)] * (len(b) - len(a))
    for i, c in enumerate(b):
        if any(c.num):
            out[i] = out[i] + c if any(out[i].num) else c
    return _kp_trim(out)


def _kp_sub(a, b):
    return _kp_add(a, tuple(-c for c in b))


def _kp_scale(a, k: _KElem):
    return _kp_trim([c * k if any(c.num) else c for c in a])


def _kp_derivative(a):
    if len(a) <= 1:
        return ()
    return _kp_trim([a[i].scale(i) for i in range(1, len(a))])


def _kp_divmod(a, b):
    """Quotient and remainder of a by a monic b.

    b must be monic, so each quotient coefficient is the remainder's leading
    coefficient and no division happens; every divisor in Yun is a monic
    remainder or a monic gcd.  Each step subtracts coef b_j only for the
    nonzero b_j.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    field = b[0].field
    zero = field.zero().coords
    rem = list(a)
    quot = [_kzero(field)] * max(len(a) - len(b) + 1, 0)
    terms = [(j, bj) for j, bj in enumerate(b) if bj.num != zero]
    while True:
        while rem and rem[-1].num == zero:
            rem.pop()
        if len(rem) < len(b):
            break
        coef = rem[-1]
        shift = len(rem) - len(b)
        quot[shift] = coef
        for j, bj in terms:
            rem[shift + j] = rem[shift + j] - coef * bj
    return _kp_trim(quot), _kp_trim(rem)


def _kp_exact_div(a, b):
    q, r = _kp_divmod(a, b)
    if r:
        raise ArithmeticError("division was expected to be exact")
    return q


def _kp_monic(a):
    if not a:
        return a
    return _kp_scale(a, a[-1].inverse())


def _kp_gcd(a, b):
    """Monic gcd by Euclid on a monic remainder sequence, and the steps
    (deg B, lc R) of its divisions A = Q B + R with R != 0.

    Each remainder is made monic before it divides, so its coefficients stay
    quotients of subresultants instead of carrying the growing scalar
    multiples of the plain sequence (Brown-Traub).
    """
    a, b = _kp_monic(a), _kp_monic(b)
    steps = []
    while b:
        r = _kp_divmod(a, b)[1]
        if r:
            steps.append((len(b) - 1, r[-1]))
        a, b = b, _kp_monic(r)
    return a, steps


def _yun(a: tuple[_KElem, ...]):
    """Square-free decomposition of a monic polynomial in characteristic 0,
    and the steps of its first gcd(a, a')."""
    d = _kp_derivative(a)
    u, steps = _kp_gcd(a, d)
    v = _kp_exact_div(a, u)
    w = _kp_exact_div(d, u)
    out = []
    i = 1
    while len(v) > 1:
        step = _kp_sub(w, _kp_derivative(v))
        h = _kp_gcd(v, step)[0]
        v = _kp_exact_div(v, h)
        w = _kp_exact_div(step, h)
        if len(h) > 1:
            out.append((h, i))
        i += 1
    return out, steps


# ---------------------------------------------------------------------------


class SquareFreeDecomposition(NamedTuple):
    """c * F = lc * prod factor_i ^ mult_i, all sides exactly integral.

    lc is the leading coefficient of F.  Factors have valuation-ring
    coefficients, are square-free and pairwise coprime, and the coordinates
    of each have no common divisor; c is a positive rational integer.  A
    factor is a monic Yun factor cleared by the lcm of its coordinate
    denominators, with c the product of those lcms to the multiplicities;
    the one factor of a certified square-free F is F adj / g with c = d /
    g, for (adj, d) the integral cofactor of lc and g the gcd of d and the
    coordinates of F adj, which is the same polynomial.  Every
    decomposition the module returns has had the identity verified on
    coordinate tuples by _verified; the record itself checks nothing.
    """

    lc: OKElem
    factors: tuple[tuple[IntPoly, int], ...]
    c: int


def squarefree_decompose(F: IntPoly) -> SquareFreeDecomposition:
    """Yun decomposition over the fraction field plus denominator clearing.

    A polynomial of height at least 2^512 is first tried at working
    precision: when its copy modulo p^N, for a p^N with n - 1 times its
    bits at most F's bits, n = deg F, has a nonzero resultant with its
    derivative, of ord below e N, the resultant congruence certifies that
    F is square-free, and F's one factor is returned, read from the
    integral cofactor of lc with no fraction-field element.  Past the last
    copy, a nonzero Res(F, F') taken exactly certifies it in the same way.
    Otherwise, and for every narrower polynomial, Yun runs on F itself.
    Either way the identity below is verified exactly on coordinate
    tuples.  Raises ZeroPolynomial on the zero input.  Constants decompose
    with an empty factor list.
    """
    return _squarefree_decompose(F)[0]


def _squarefree_decompose(F: IntPoly):
    """squarefree_decompose(F), and ord Res(G, G') of the factor G = c a, a
    = F / lc(F), of a square-free F of degree n >= 1; None in its place
    when F is constant or has a repeated factor.  The ord is often 0, so
    callers test it against None.

    A wide F, of height at least 2^512, is first tried at working precision
    (_at_working_precision); one that no copy certifies takes Res(F, F')
    exactly, whose nonzero value certifies F square-free with its ord.
    Narrow input and every wide F with Res(F, F') = 0 take the exact
    decomposition.
    """
    if F.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if F.degree == 0:
        return SquareFreeDecomposition(lc=F.lc, factors=(), c=1), None
    bits = F.height.bit_length()
    if bits > 512:
        found = _at_working_precision(F, bits)
        if found:
            return found
        res = resultant(F, F.derivative())
        if res:
            return _square_free(F, res.ord())
    return _exact_decompose(F)


def _exact_decompose(F: IntPoly):
    """_squarefree_decompose of a nonconstant F by Yun over the fraction
    field.

    Yun's first gcd runs on a and b = a' / n.  For monic A and B, R = c' R^
    with R^ monic gives ord Res(A, B) = deg B ord c' + ord Res(B, R^), and
    Res(B, c') = c'^deg B; so ord Res(a, a') = n ord n + sum deg B ord c'
    over the steps of the gcd, and G = c a multiplies it by c^(2n - 1).
    """
    field = F.field
    parts, steps = _yun(_kp_monic(_kp_from_int(F)))
    result = _cleared(F, parts)
    if len(parts) > 1 or parts[0][1] > 1:
        return result, None
    p, e, n = field.p, field.e, F.degree
    ords = sum(d * (field._ord_vec(r.num) - e * _vp(r.den, p)) for d, r in steps)
    return result, e * ((2 * n - 1) * _vp(result.c, p) + n * _vp(n, p)) + ords


def _cleared(F: IntPoly, parts) -> SquareFreeDecomposition:
    """The decomposition of F from its monic Yun factors with their
    multiplicities: each factor cleared by the lcm s of the denominators of
    its nonzero coefficients, built from the scaled coordinate tuples, and
    c the product of the s^m, all handed to the identity check _verified.
    A zero's denominator is left out, as a zero reached through operands
    not in lowest terms, such as 1/2 - 3/6 = 0/3, would make G imprimitive."""
    field = F.field
    factors = []
    c = 1
    for h, mult in parts:
        s = math.lcm(*(coeff.den for coeff in h if coeff))
        c *= s**mult
        G = IntPoly._of(field, [tuple([x * (s // coeff.den) for x in coeff.num]) for coeff in h])
        factors.append((G, mult))
    return _verified(F, tuple(factors), c)


def _verified(F: IntPoly, factors: tuple, c: int) -> SquareFreeDecomposition:
    """The decomposition (lc(F), factors, c) of F, after the always-on check
    of c F = lc prod G^m on coordinate tuples, as (c / g) F = (lc / g) prod
    G^m with g = gcd(c, *lc.coords), so that a wide F is not multiplied by a
    wide c.  One factor of multiplicity 1 is its own product, and only
    further factors are convolved onto it.  lc / g multiplies through
    LocalField._mul_vec."""
    mul = F.field._mul_vec
    lc = F.lc
    prod = None
    for G, mult in factors:
        coords = [coeff.coords for coeff in G.coeffs]
        for _ in range(mult):
            prod = coords if prod is None else _convolve(prod, coords, mul)
    g = math.gcd(c, *lc.coords)
    k, cg = tuple([x // g for x in lc.coords]), c // g
    if [mul(k, x) for x in prod] != [tuple([cg * x for x in coeff.coords]) for coeff in F.coeffs]:
        raise AssertionError("square-free decomposition identity failed")
    return SquareFreeDecomposition(lc=lc, factors=factors, c=c)


def _at_working_precision(F: IntPoly, bits: int):
    """_squarefree_decompose of a square-free F whose height has the given
    bit length, certified from a copy of F modulo p^N, or None.

    The copy F^, every coordinate of F reduced modulo p^N with balanced
    representatives, is tested by its resultant Res(F^, F^'), for p^N the
    least power of p past 2^64, 2^128, 2^256, ... while n - 1 times p^N's
    bits is at most F's bits, n = deg F: past that a copy's PRS, whose
    remainders grow by its width at each of n - 1 steps, outgrows F.  When
    F^ keeps F's degree, the Sylvester determinant gives Res(F, F') =
    Res(F^, F^') (mod p^N); so a nonzero Res(F^, F^') with ord < e N makes
    F square-free with the same ord (_square_free).  Every other case, a
    zero F^, a lower degree or an ord of e N or more (a zero resultant
    included), goes on to the next precision.  A copy equal to the last
    one, as when F's coordinates are below p^N apart from terms past every
    precision, keeps its resultant, whose ord is only capped again at the
    new e N.
    """
    field = F.field
    p, e, n = field.p, field.e, F.degree
    N, q, word = 0, 1, 64
    last = res_coords = None
    while True:
        while q >> word == 0:
            q, N = q * p, N + 1
        if (n - 1) * q.bit_length() > bits:
            return None
        moduli = _moduli(field, e * N)
        reduced = IntPoly(field, [_balanced(coeff.coords, moduli) for coeff in F.coeffs])
        if reduced and reduced.degree == n:
            if reduced != last:
                last, res_coords = reduced, resultant(reduced, reduced.derivative()).coords
            res = field._ord_vec(res_coords, e * N)
            if res < e * N:
                return _square_free(F, res)
        word *= 2


def _square_free(F: IntPoly, res: int):
    """_squarefree_decompose of an F certified square-free with ord
    Res(F, F') = res, and no fraction-field element: with (adj, d) the
    integral cofactor of lc = lc(F), lc adj = d, F's one factor is G = F
    adj / g and c = d / g, g = gcd(d, every coordinate of F adj), checked
    by _verified; and ord Res(G, G') = res + (2n - 1) ord(c / lc), as
    Res(kF, kF') = k^(2n - 1) Res(F, F')."""
    field = F.field
    mul = field._mul_vec
    adj, d = _cofactor(F.lc.coords, field)
    scaled = [mul(coeff.coords, adj) for coeff in F.coeffs]
    g = math.gcd(d, *[x for v in scaled for x in v])
    G = IntPoly._of(field, [tuple([x // g for x in v]) for v in scaled])
    result = _verified(F, ((G, 1),), d // g)
    ord_c = field.e * _vp(result.c, field.p) - F.lc.ord()
    return result, res + (2 * F.degree - 1) * ord_c


def _power_free_part(F: IntPoly, dec: SquareFreeDecomposition) -> IntPoly:
    """reduce_power_free from a decomposition of F already at hand."""
    field = F.field
    p = field.p
    if all(mult < p for _, mult in dec.factors):
        return F
    H = IntPoly(field, (1,))
    R = IntPoly(field, (1,))
    for G, mult in dec.factors:
        H = H * G ** (mult // p)
        R = R * G ** (mult % p)
    # F = (lc / c) H^p R, and pi^k, the content of H, makes H / pi^k
    # primitive, so F / (H / pi^k)^p = lc pi^(kp) R / c is integral by Gauss's
    # lemma up to denominators prime to p, which d^p clears without moving
    # the power class or ord
    k = min(coeff.ord() for coeff in H.coeffs)
    num = R * (dec.lc * field.uniformizer() ** (k * p))
    d = 1
    for coeff in num.coeffs:
        for n in coeff.coords:
            d = math.lcm(d, dec.c // math.gcd(n, dec.c))
    if d % p == 0:  # pragma: no cover - Gauss's lemma rules this out
        raise AssertionError("the power-free part is not integral")
    scale = d**p
    return IntPoly(
        field,
        [OKElem(field, tuple(n * scale // dec.c for n in coeff.coords)) for coeff in num.coeffs],
    )


def reduce_power_free(F: IntPoly, p: int) -> IntPoly:
    """Strip every p-th power factor: multiplicities are reduced mod p.

    A power-free F comes back unchanged.  Otherwise the result F_* is F
    divided by a p-th power (H / pi^k)^p times a unit p-th power, so F and
    F_* take values in the same power class at every point where neither
    vanishes.
    """
    if p != F.field.p:
        raise ValueError("p must be the residue characteristic of the field")
    return _power_free_part(F, squarefree_decompose(F))


def is_power_free(F: IntPoly, p: int) -> bool:
    """True when no factor of F has multiplicity p or higher."""
    if p != F.field.p:
        raise ValueError("p must be the residue characteristic of the field")
    return all(mult < p for _, mult in squarefree_decompose(F).factors)


class NecessaryConditions(NamedTuple):
    """Cheap screens that every member polynomial must pass."""

    deg_ok: bool
    lc_ord_ok: bool
    const_is_power: bool
    lc_is_power: bool

    @property
    def all_hold(self) -> bool:
        return self.deg_ok and self.lc_ord_ok and self.const_is_power and self.lc_is_power

    def as_dict(self) -> dict[str, bool]:
        return {
            "deg_ok": self.deg_ok,
            "lc_ord_ok": self.lc_ord_ok,
            "const_is_power": self.const_is_power,
            "lc_is_power": self.lc_is_power,
        }


def necessary_conditions(F: IntPoly, field: LocalField) -> NecessaryConditions:
    if F.field != field:
        raise ValueError("polynomial belongs to a different field")
    if F.is_zero:
        raise ZeroPolynomial("conditions are not defined for the zero polynomial")
    p = field.p
    return NecessaryConditions(
        deg_ok=F.degree % p == 0,
        lc_ord_ok=F.lc.ord() % p == 0,
        const_is_power=is_pth_power(F.constant, field),
        lc_is_power=is_pth_power(F.lc, field),
    )


# ---------------------------------------------------------------------------
# resultants via the subresultant PRS


def _exact_quo(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:  # pragma: no cover - subresultant divisions are exact
        raise AssertionError("inexact division inside subresultant PRS")
    return q


def _exact_div_elem(a: tuple[int, ...], cofactor: tuple[int, ...], d: int, field: LocalField):
    """Coordinates of a/b, given d/b = cofactor with d a rational integer,
    by exact integer division of the coordinates of a * cofactor."""
    return tuple(_exact_quo(n, d) for n in field._mul_vec(a, cofactor))


def _quo(xs: list, b: tuple[int, ...], field: LocalField) -> list:
    """Each coordinate tuple of xs divided exactly by b: a rational integer
    b divides coordinate by coordinate, any other through its integral
    cofactor, taken once."""
    if not any(b[1:]):
        return [tuple(_exact_quo(x, b[0]) for x in a) for a in xs]
    adj, d = _cofactor(b, field)
    return [_exact_div_elem(a, adj, d, field) for a in xs]


def _prem(A: list, B: list, mul) -> list:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B, low to high,
    on coordinate tuples multiplied by mul; zero entries of R and B are
    skipped."""
    dB = len(B) - 1
    c = B[-1]
    terms = [(i, y) for i, y in enumerate(B[:-1]) if any(y)]
    R = list(A)
    for k in range(len(A) - 1 - dB, -1, -1):
        top = R.pop()  # c * top - top * c cancels the leading term
        R = [mul(c, x) if any(x) else x for x in R]
        if any(top):
            for i, y in terms:
                R[i + k] = tuple(map(operator.sub, R[i + k], mul(top, y)))
    while R and not any(R[-1]):
        R.pop()
    return R


def _prs_resultant(A: list, B: list, field: LocalField) -> tuple[int, ...]:
    """Resultant of A and B, nonzero lists of coordinate tuples low to high,
    via the subresultant PRS over Z[t]/(g), which is Z for the base field.

    The textbook sequence (Cohen, Alg. 3.3.7, without contents): R =
    prem(A, B), then A, B = B, R / (g h^delta) with g = lc(A) and h =
    g^delta / h^(delta - 1), so every B is a subresultant and lies in the
    ring.  Once B is a constant the resultant is sign * lc(B)^deg A /
    h^(deg A - 1).  Every division is exact and checked.
    """
    mul = field._mul_vec
    one = field.one().coords

    def power(x, k):
        return _power(x, k, mul, one)

    sign = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
    g = h = one
    while len(B) > 1:
        dA, dB = len(A) - 1, len(B) - 1
        d = dA - dB
        R = _prem(A, B, mul)
        if not R:
            return field.zero().coords
        if dA * dB % 2:
            sign = -sign
        lam = mul(g, power(h, d))
        if lam != one:
            R = _quo(R, lam, field)
        A, B = B, R
        g = A[-1]
        if d == 1:
            h = g
        elif d:
            h = _quo([power(g, d)], power(h, d - 1), field)[0]
    dA = len(A) - 1
    res = power(B[0], dA)
    if dA > 1 and h != one:
        res = _quo([res], power(h, dA - 1), field)[0]
    return res if sign == 1 else tuple(-x for x in res)


def resultant(F: IntPoly, G: IntPoly) -> OKElem:
    """Resultant of two nonzero polynomials, by the subresultant PRS on
    coordinate tuples in Z[t]/(g), g the defining polynomial, with the base
    field as the one-coordinate case; every division is exact.
    Conventions: Res(F, c) = c^deg(F) for constant c, and the resultant of
    two constants is 1.
    """
    if F.is_zero or G.is_zero:
        raise ZeroPolynomial("resultants require nonzero polynomials")
    field = F.field
    if G.field != field:
        raise ValueError("mixed-field resultant")
    value = _prs_resultant([c.coords for c in F.coeffs], [c.coords for c in G.coeffs], field)
    return OKElem(field, value)
