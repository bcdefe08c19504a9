"""Exact arithmetic in three concrete local-field models.

Supported models: the base field Q_p, an unramified extension generated by a
root of a monic polynomial that is irreducible mod p, and a totally ramified
extension generated by a root of an Eisenstein polynomial.  Ring-of-integers
elements are unbounded-integer coordinate vectors in the power basis of the
generator, so all arithmetic is exact and reductions are always explicit.

This is the one module that implements element arithmetic: the product
of reduced coordinate tuples (LocalField._mul_vec), one binary power
(_power) for elements, polynomials and resultants, and the integral
cofactor of an element (_cofactor: a closed form over quadratic fields,
Bareiss's fraction-free elimination above).  An unramified defining
polynomial is checked by Rabin's irreducibility test on the field's own
product, with coordinates reduced mod p, and a determinant from the same
elimination for each gcd condition.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence, Union

from .errors import (
    KTooLargeForMemory,
    MixedTowerUnsupported,
    NotEisenstein,
    NotIrreducibleModP,
    NotPrime,
    PrimalityUnproven,
    UnsupportedField,
)

__all__ = [
    "BASE",
    "EISENSTEIN",
    "LocalField",
    "OKElem",
    "RESIDUE_CAP",
    "UNRAMIFIED",
    "congruent",
    "iter_residues",
    "make_field",
    "ord",
    "reduce_mod",
    "residues",
]

BASE = "base"
UNRAMIFIED = "unramified"
EISENSTEIN = "eisenstein"

RESIDUE_CAP = 1_000_000  # guard against runaway residue enumerations

ElementLike = Union[int, Sequence[int], "OKElem"]

_builtin_ord = ord  # the module exports its own `ord`


_LADDERS: dict[int, list[int]] = {}  # p -> [p, p^2, p^4, ...], grown on demand


def _vp(n: int, p: int, cap: Union[int, float] = math.inf) -> Union[int, float]:
    """min(v_p(n), cap) for a nonzero integer n.

    A caller that only compares v_p(n) with some c passes a cap that
    settles the comparison, so a wide n of high valuation costs one
    division, not a ladder of them.  For p = 2, v is the index of the
    lowest set bit and nothing is divided.  Otherwise the first 8 factors
    come off one at a time; past that, one test of p^(cap - v) settles a
    finite cap, and below it n is divided by p, p^2, p^4, ... while they
    divide, the rest of v taken greedily with the halving powers, so a
    large v costs O(log v) divisions.
    """
    if p == 2:
        return min((n & -n).bit_length() - 1, cap)
    v = 0
    while v < 8:
        if v >= cap or n % p:
            return min(v, cap)
        n //= p
        v += 1
    if v >= cap or (cap - v < n.bit_length() and n % p ** (cap - v) == 0):
        return cap
    ladder = _LADDERS.setdefault(p, [p])  # ladder[i] = p^(2^i)
    i = 0
    while True:
        if i == len(ladder):
            ladder.append(ladder[-1] * ladder[-1])
        if n % ladder[i]:
            break
        n //= ladder[i]
        v += 1 << i
        i += 1
    for j in range(i - 1, -1, -1):
        if n % ladder[j] == 0:
            n //= ladder[j]
            v += 1 << j
    return v


# the first 13 primes, and the least composite that is a strong probable
# prime to all of them (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin's strong test of an integer n >= 2 to each of the
    _PRIME_BASES: False proves n composite, and True proves n prime below
    _PRIME_TEST_PROVEN_BELOW."""
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of an integer n >= 1, increasing, by trial
    division by 2, 3 and then the 6k - 1 and 6k + 1 up to sqrt n."""
    out = []
    d, gap = 2, 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d, gap = d + gap, 2 if d < 5 else 6 - gap
    if n > 1:
        out.append(n)
    return out


def _power(x, k: int, mul, one):
    """x^k for an integer k >= 0 by binary powering with the product mul:
    x^1 is x itself, and no square is taken past the last bit of k."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if result is None else result


def _solve(rows: list[list[int]]) -> tuple[int, list[int]]:
    """D and D y for the integer system A y = c given as the rows of
    [A | c]: Bareiss's fraction-free elimination, whose last pivot D =
    +-det A makes D y integral by Cramer's rule, so every division, also in
    the back substitution, is exact.  A singular A gives (0, [])."""
    n = len(rows)
    prev = 1
    for k in range(n):
        i = next((i for i in range(k, n) if rows[i][k]), None)
        if i is None:
            return 0, []
        rows[k], rows[i] = rows[i], rows[k]
        top = rows[k]
        for row in rows[k + 1 :]:
            row[k + 1 :] = [(top[k] * x - row[k] * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])]
        prev = top[k]
    x = [0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        x[k] = (prev * row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) // row[k]
    return prev, x


def _scaled_inverse(b: tuple[int, ...], field: LocalField) -> tuple[int, list[int]]:
    """_solve of b y = 1 as M y = e_0, M the integer matrix of
    multiplication by b in Z[t]/(g), whose column j holds the coordinates
    of b t^j: D = +-det M and the coordinates of D / b, or (0, []) when b
    is a zero divisor."""
    n = field.degree
    t = (0, 1) + (0,) * (n - 2)
    cols = [b]
    for _ in range(n - 1):
        cols.append(field._mul_vec(cols[-1], t))
    return _solve([[col[i] for col in cols] + [int(not i)] for i in range(n)])


def _cofactor(b: tuple[int, ...], field: LocalField) -> tuple[tuple[int, ...], int]:
    """The integral cofactor (adj, d) of a nonzero b: b adj = d with d a
    positive rational integer and gcd(d, *adj) = 1, so that adj / d = 1 / b.

    Over a quadratic field, t^2 = -g_1 t - g_0, it is read off the closed
    form adj(b_0 + b_1 t) = (b_0 - g_1 b_1) - b_1 t with d = b_0^2 - g_1 b_0
    b_1 + g_0 b_1^2, the norm of b.  Otherwise Bareiss gives D and D / b
    (_scaled_inverse).  Either pair is reduced to lowest terms with d > 0."""
    if field.degree == 2:
        (b0, b1), (g0, g1) = b, field.defining[:2]
        d, y = b0 * b0 - g1 * b0 * b1 + g0 * b1 * b1, (b0 - g1 * b1, -b1)
    else:
        d, y = _scaled_inverse(b, field)
    g = math.gcd(d, *y) if d > 0 else -math.gcd(d, *y)
    return tuple(x // g for x in y), d // g


def _irreducible_mod_p(field: LocalField) -> bool:
    """Rabin's test of the defining polynomial g of degree n modulo p, on
    the field's own product with coordinates reduced mod p: g is
    irreducible mod p iff t^(p^n) = t and, for each prime q | n, h =
    t^(p^(n/q)) - t is a unit mod (g, p), that is gcd(h, g) = 1 over
    GF(p): the matrix of multiplication by h has a determinant prime to p
    (Rabin, Probabilistic algorithms in finite fields, 1980)."""
    p, n = field.p, field.degree

    def mul(a, b):
        return tuple([c % p for c in field._mul_vec(a, b)])

    one = (1,) + (0,) * (n - 1)
    t = (0, 1) + (0,) * (n - 2)
    frobenius = [t]  # t^(p^i)
    for _ in range(n):
        frobenius.append(_power(frobenius[-1], p, mul, one))
    if frobenius[n] != t:
        return False
    return all(
        _scaled_inverse(tuple(map(operator.sub, frobenius[n // q], t)), field)[0] % p
        for q in _prime_factors(n)
    )


# ---------------------------------------------------------------------------


class LocalField:
    """Descriptor of one of the three supported local-field models.

    Instances are immutable and hashable; build them through make_field so
    the kind-specific invariants are checked.  The constants 1, 0, pi and,
    on an extension, the generator t are built once, at construction, and
    one(), zero(), uniformizer() and generator() return them.  A pickled or
    copied field is rebuilt from (p, kind, defining), constants included.
    """

    __slots__ = (
        "p", "kind", "defining", "e", "f", "degree", "_hash", "_one", "_zero", "_gen", "_pi"
    )

    def __init__(self, p: int, kind: str, defining: tuple[int, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "defining", defining)
        n = len(defining) - 1 if defining else 1
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "e", n if kind == EISENSTEIN else 1)
        object.__setattr__(self, "f", n if kind == UNRAMIFIED else 1)
        object.__setattr__(self, "_hash", hash((p, kind, defining)))
        pad = (0,) * (n - 1)
        object.__setattr__(self, "_one", OKElem(self, (1,) + pad))
        object.__setattr__(self, "_zero", OKElem(self, (0,) + pad))
        gen = OKElem(self, (0, 1) + pad[1:]) if kind != BASE else None
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_pi", gen if kind == EISENSTEIN else OKElem(self, (p,) + pad))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LocalField is immutable")

    def __reduce__(self):
        return LocalField, (self.p, self.kind, self.defining)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocalField)
            and self.p == other.p
            and self.kind == other.kind
            and self.defining == other.defining
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.kind == BASE:
            return f"LocalField(p={self.p}, base)"
        return f"LocalField(p={self.p}, {self.kind}, defining={list(self.defining)})"

    # -- element constructors ------------------------------------------------

    def element(self, value: ElementLike) -> "OKElem":
        if isinstance(value, OKElem):
            if value.field is not self and value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coords = (value,) + (0,) * (self.degree - 1)
            return OKElem(self, coords)
        vec = list(map(operator.index, value))
        if len(vec) > self.degree:
            if self.kind == BASE:
                raise ValueError(
                    f"an element of the base field has one coordinate, got {len(vec)}"
                )
            vec = self._reduce_vec(vec)
        vec += [0] * (self.degree - len(vec))
        return OKElem(self, tuple(vec))

    def zero(self) -> "OKElem":
        return self._zero

    def one(self) -> "OKElem":
        return self._one

    def generator(self) -> "OKElem":
        if self._gen is None:
            raise UnsupportedField("the base field has no generator element")
        return self._gen

    def uniformizer(self) -> "OKElem":
        return self._pi

    # -- internal vector reduction modulo the monic defining polynomial ------

    def _reduce_vec(self, vec: list[int]) -> list[int]:
        n = self.degree
        g = self.defining
        for i in range(len(vec) - 1, n - 1, -1):
            c = vec[i]
            if c:
                vec[i] = 0
                for j in range(n):
                    vec[i - n + j] -= c * g[j]
        return vec[:n]

    def _mul_vec(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Reduced coordinate tuple of the product of two coordinate vectors."""
        n = self.degree
        if n == 1:
            return (a[0] * b[0],)
        if n == 2:  # t^2 = -g_1 t - g_0
            g0, g1 = self.defining[0], self.defining[1]
            h = a[1] * b[1]
            return (a[0] * b[0] - g0 * h, a[0] * b[1] + a[1] * b[0] - g1 * h)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return tuple(self._reduce_vec(conv))

    def _unit_part(self, coords: Sequence[int], v: int, k: int) -> tuple[int, ...]:
        """Coordinates congruent to x / pi^v modulo pi^k, for x of ord >= v.

        Outside the Eisenstein model p^v divides every coordinate.  In it,
        each of v steps takes x / t = (c_1, ..., c_(e-1), 0) - s (g_1, ...,
        g_(e-1), 1) with g_0 = p w and s = (c_0 / p) w^-1 modulo p^N.  With
        N = ceil((k + v) / e) each step's error, a multiple of p^N, stays
        past pi^k through the steps after it."""
        p = self.p
        if not v:
            return tuple(coords)
        if self.kind != EISENSTEIN:
            q = p**v
            return tuple([c // q for c in coords])
        g = self.defining
        m = p ** -(-(k + v) // self.e)
        w_inv = pow(g[0] // p, -1, m)
        c = list(coords)
        for _ in range(v):
            s = c[0] // p * w_inv % m
            for i in range(1, self.e):
                c[i - 1] = c[i] - s * g[i]
            c[-1] = -s
        return tuple(c)

    # -- valuation ------------------------------------------------------------

    def ord(self, x: "OKElem") -> Union[int, float]:
        return self._ord_vec(x.coords)

    def _ord_vec(
        self, coords: Sequence[int], cap: Union[int, float] = math.inf
    ) -> Union[int, float]:
        """min(ord, cap) of a coordinate vector; the zero vector gives cap.

        A caller that only compares the ord with some c passes a cap that
        settles the comparison.  Each coordinate is read only as deep as
        the running minimum: in the Eisenstein model, where coordinate i
        contributes e v_p(c_i) + i, its cap is ceil((low - i) / e)."""
        p = self.p
        if self.kind == BASE:
            c = coords[0]
            return cap if c == 0 else _vp(c, p, cap)
        low = cap
        if self.kind == UNRAMIFIED:
            for c in coords:
                if c:
                    low = _vp(c, p, low)
            return low
        e = self.e
        for i, c in enumerate(coords):
            if c and i < low:
                v = _vp(c, p, low if low == math.inf else -((i - low) // e))
                low = min(low, e * v + i)
        return low


class OKElem:
    """Exact element of the valuation-ring model of a LocalField.

    Arithmetic reduces modulo the defining polynomial; integers coerce on
    the fly, so `x + 1` and `3 * x` work as expected.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: LocalField, coords: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("OKElem is immutable")

    def __reduce__(self):
        return OKElem, (self.field, self.coords)

    def _coerce(self, other: ElementLike) -> "OKElem":
        if isinstance(other, OKElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return OKElem(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return OKElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return OKElem(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return OKElem(self.field, self.field._mul_vec(self.coords, o.coords))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer exponents")
        return _power(self, exponent, operator.mul, self.field.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, OKElem)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)

    def ord(self) -> Union[int, float]:
        return self.field.ord(self)

    def is_unit(self) -> bool:
        return self.ord() == 0

    def __repr__(self) -> str:
        return f"OKElem({list(self.coords)})"

    def __str__(self) -> str:
        if self.field.kind == BASE:
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(t)
                elif c == -1:
                    parts.append(f"-{t}")
                else:
                    parts.append(f"{c}*{t}")
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


# ---------------------------------------------------------------------------


def make_field(p: int, kind: str, defining_poly: Sequence[int] | None = None) -> LocalField:
    """Construct and validate a LocalField.

    defining_poly is given low degree first and must be monic; it is required
    for the two extension kinds and rejected for the base field.  p is
    tested by _strong_probable_prime, a proof below 3.3e24; a p past that
    bound that the test does not prove composite raises PrimalityUnproven.
    """
    if not isinstance(p, int) or p < 2 or not _strong_probable_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p >= _PRIME_TEST_PROVEN_BELOW:
        raise PrimalityUnproven(
            f"{p} passes the strong test to the prime bases 2, ..., 41, a proof of "
            f"primality only below {_PRIME_TEST_PROVEN_BELOW}",
            bound=_PRIME_TEST_PROVEN_BELOW,
        )
    if kind == BASE:
        if defining_poly is not None:
            raise UnsupportedField("the base field takes no defining polynomial")
        return LocalField(p, BASE, ())
    if kind not in (UNRAMIFIED, EISENSTEIN):
        raise MixedTowerUnsupported(
            f"unsupported field kind {kind!r}: only base, unramified and "
            "eisenstein models exist; mixed towers are rejected"
        )
    if defining_poly is None:
        raise UnsupportedField(f"kind {kind!r} requires a defining polynomial")
    coeffs = tuple(operator.index(c) for c in defining_poly)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    n = len(coeffs) - 1
    if n < 2 or coeffs[-1] != 1:
        if kind == EISENSTEIN:
            raise NotEisenstein("defining polynomial must be monic of degree >= 2")
        raise NotIrreducibleModP("defining polynomial must be monic of degree >= 2")
    if kind == EISENSTEIN:
        if coeffs[0] % p != 0 or (coeffs[0] // p) % p == 0:
            raise NotEisenstein("constant term must have p-adic valuation exactly 1")
        if any(c % p for c in coeffs[1:-1]):
            raise NotEisenstein("all non-leading coefficients must be divisible by p")
        return LocalField(p, EISENSTEIN, coeffs)
    field = LocalField(p, UNRAMIFIED, coeffs)
    if not _irreducible_mod_p(field):
        raise NotIrreducibleModP(f"defining polynomial is reducible modulo {p}")
    return field


def ord(x: OKElem, field: LocalField | None = None) -> Union[int, float]:
    """Normalized valuation: ord(uniformizer) = 1, ord(0) = +infinity."""
    if field is not None and x.field != field:
        raise ValueError("element belongs to a different field")
    return x.ord()


def _over_residue_cap(p: int, e: int) -> bool:
    # p^e > RESIDUE_CAP, settled by e alone, without building p^e, when e is large
    return e >= RESIDUE_CAP.bit_length() or p**e > RESIDUE_CAP


def _check_residue_count(field: LocalField, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    p, e = field.p, field.f * k
    if _over_residue_cap(p, e):
        raise KTooLargeForMemory(
            f"residue system of size {p}^{e} exceeds the cap {RESIDUE_CAP}",
            count=f"{p}^{e}",
            cap=RESIDUE_CAP,
        )


def iter_residues(field: LocalField, k: int) -> Iterator[OKElem]:
    """Yield the p^(f*k) residue representatives modulo the k-th ideal power.

    The ordering is deterministic and is relied upon for canonical class
    representatives and counterexample points.  Over the base field the
    representatives are the integers 0, ..., p^k - 1 in increasing order,
    so the lowest p-adic digit varies fastest.  Over an unramified field
    they are the coordinate vectors with entries in [0, p^k), lexicographic:
    the last coordinate varies fastest, and within it the lowest p-adic
    digit.  Over an Eisenstein field they are sum d_i pi^i with digits d_i
    in [0, p), lexicographic in (d_0, ..., d_(k-1)), so the highest digit
    varies fastest.
    """
    _check_residue_count(field, k)
    p = field.p
    if field.kind == BASE:
        for a in range(p**k):
            yield field.element(a)
        return
    if field.kind == UNRAMIFIED:
        for digits in product(range(p**k), repeat=field.f):
            yield field.element(digits)
        return
    t = field.generator().coords
    pows = [field.one().coords]
    for _ in range(k - 1):
        pows.append(field._mul_vec(pows[-1], t))
    for digits in product(range(p), repeat=k):
        acc = [0] * field.degree
        for c, power in zip(digits, pows):
            if c:
                for j, x in enumerate(power):
                    acc[j] += c * x
        yield OKElem(field, tuple(acc))


@lru_cache(maxsize=256)
def _residues_cached(field: LocalField, k: int) -> tuple[OKElem, ...]:
    return tuple(iter_residues(field, k))


def residues(field: LocalField, k: int) -> tuple[OKElem, ...]:
    """Materialized residue system; see iter_residues for the ordering."""
    _check_residue_count(field, k)
    return _residues_cached(field, k)


def reduce_mod(x: OKElem, field: LocalField, k: int) -> OKElem:
    """Canonical representative of x modulo the k-th power of the maximal ideal.

    The result is the unique element of residues(field, k) congruent to x.
    Over an Eisenstein field its k digits are read one at a time, each from
    the constant coordinate of a quotient by pi (LocalField._unit_part).
    """
    if x.field != field:
        raise ValueError("element belongs to a different field")
    if k < 1:
        raise ValueError("k must be >= 1")
    p = field.p
    if field.kind != EISENSTEIN:
        m = p**k
        return field.element(tuple(c % m for c in x.coords))
    gen = field.generator()
    partial = field.zero()
    power = field.one()
    coords = x.coords
    for i in range(k):
        digit = coords[0] % p
        partial = partial + power * digit
        power = power * gen
        coords = field._unit_part((coords[0] - digit,) + coords[1:], 1, k - i)
    return partial


def congruent(x: OKElem, y: OKElem, k: int) -> bool:
    """True when x and y agree modulo the k-th power of the maximal ideal."""
    return (x - y).ord() >= k
