"""Integral polynomials: decomposition, power-free parts, resultants."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicpowers import localfield, polyring
from padicpowers import (
    EISENSTEIN,
    IntPoly,
    ZeroPolynomial,
    is_perfect_pth_power_poly,
    is_power_free,
    iter_residues,
    make_ck_not_power,
    make_field,
    necessary_conditions,
    oracle_is_pth_power,
    reciprocal,
    reduce_power_free,
    resultant,
    squarefree_decompose,
    stability_radius,
    threshold_k0,
)
from padicpowers.oracle import _evaluate

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5)


def P(field, *coeffs):
    return IntPoly(field, coeffs)


# --- IntPoly basics


def test_intpoly_normalization(Q2):
    F = IntPoly(Q2, (1, 2, 0, 0))
    assert F.coeffs == (Q2.element(1), Q2.element(2))
    assert F.degree == 1
    assert F.lc == Q2.element(2)
    zero = IntPoly(Q2, ())
    assert not zero
    with pytest.raises(ZeroPolynomial):
        zero.degree
    with pytest.raises(ZeroPolynomial):
        zero.lc


def test_intpoly_str(Q2, E2):
    assert str(P(Q2, 9, 0, 4, 0, 4)) == "4x^4 + 4x^2 + 9"
    assert str(P(Q2, -1, 1)) == "x - 1"
    assert str(P(E2, E2.generator())) == "t"


def test_intpoly_height(Q2):
    assert P(Q2, 9, 0, -14, 1).height == 14


big_coords = st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=3, max_size=3)


@given(
    which=st.integers(min_value=0, max_value=6),
    coeffs=st.lists(big_coords, max_size=6),
    point=big_coords,
)
@settings(max_examples=200, deadline=None)
def test_eval_matches_oracle_horner(Q2, Q3, Q5, E2, U2, E2_cube, E3, which, coeffs, point):
    # the coordinate Horner of IntPoly.__call__ against the oracle's own
    # OKElem Horner, for element, coordinate-tuple and int arguments
    field = (Q2, Q3, Q5, E2, U2, E2_cube, E3)[which]
    n = field.degree
    F = IntPoly(field, [c[:n] for c in coeffs])
    x = field.element(point[:n])
    value = F(x)
    assert value.field is field
    assert value.coords == _evaluate(F.coeffs, x, field).coords
    assert F(tuple(point[:n])) == value
    assert F(point[0]).coords == _evaluate(F.coeffs, field.element(point[0]), field).coords


def test_eval_edge_cases(Q2, Q3, Q5, E2, U2, E2_cube, E3):
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3):
        zero = IntPoly(field, ())
        assert zero(7) == field.zero()
        assert zero(7).coords == (0,) * field.degree
        assert IntPoly(field, (5,))(field.uniformizer()) == field.element(5)
    # an equal field built separately is the same field
    twin = make_field(2, EISENSTEIN, (-2, 0, 1))
    F = P(E2, 1, 0, 1)
    assert F(twin.generator()) == F(E2.generator()) == E2.element(3)
    for G, x in (
        (F, U2.generator()),
        (F, Q2.element(1)),
        (P(Q2, 1, 1), Q3.element(1)),
        (P(Q2, 1, 1), E2.generator()),
    ):
        with pytest.raises(ValueError):
            G(x)


@given(a=coeff_lists, b=coeff_lists, point=st.integers(min_value=-20, max_value=20))
@settings(max_examples=150)
def test_arithmetic_is_pointwise(Q3, a, b, point):
    F, G = IntPoly(Q3, a), IntPoly(Q3, b)
    x = Q3.element(point)
    assert (F + G)(x) == F(x) + G(x)
    assert (F - G)(x) == F(x) - G(x)
    assert (F * G)(x) == F(x) * G(x)


def test_pow_is_the_repeated_product(Q2, E2, monkeypatch):
    t = E2.generator()
    cases = ((P(Q2, 3, -1, 2), P(Q2, 1)), (P(E2, t, 1 + t, 2), P(E2, 1)), (1 + t, E2.one()))
    for G, product in cases:
        for k in range(7):
            assert G**k == product
            product = product * G
    # binary powering takes floor(log2 k) squares and one product per set
    # bit of k after the first: G**1 is G itself, with no product by 1, and
    # no square is thrown away after the last bit
    for G in (P(E2, t, 1 + t, 2), 1 + t):
        expected = {k: G**k for k in (1, 2, 5, 8, 11)}
        products = []
        mul = type(G).__mul__
        monkeypatch.setattr(type(G), "__mul__", lambda a, b: products.append(b) or mul(a, b))
        for k, value in expected.items():
            products.clear()
            assert G**k == value
            assert len(products) == k.bit_length() + bin(k).count("1") - 2, (G, k)


def _schoolbook(F, G):
    """F G by the convolution of its coefficients' coordinates as integer
    polynomials in t, each product coefficient then reduced modulo the
    defining polynomial g by long division."""
    field = F.field
    n = field.degree
    g = field.defining
    out = [[0] * (2 * n - 1) for _ in range(len(F.coeffs) + len(G.coeffs) - 1)]
    for i, a in enumerate(F.coeffs):
        for j, b in enumerate(G.coeffs):
            for k, x in enumerate(a.coords):
                for m, y in enumerate(b.coords):
                    out[i + j][k + m] += x * y
    for c in out:
        for k in range(len(c) - 1, n - 1, -1):
            q, c[k] = c[k], 0
            for m in range(n):
                c[k - n + m] -= q * g[m]
    return IntPoly(field, [tuple(c[:n]) for c in out])


def test_product_matches_schoolbook(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    # products of signed coordinates up to 2,000 bits with zero
    # coefficients, and powers up to the exponent p^2, equal the test-local
    # convolution reduced by g on every fixture field; the zero polynomial
    # annihilates, and a product across two fields is refused
    rng = random.Random(20261019)
    fields = (Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3)

    def poly(field, degree, bits):
        def coeff():
            if rng.random() < 0.25:
                return field.zero()
            return field.element([rng.randint(-(2**bits), 2**bits) for _ in range(field.degree)])

        return IntPoly(field, [coeff() for _ in range(degree)] + [field.element(rng.randint(1, 9))])

    for field in fields:
        for _ in range(12):
            bits = rng.choice((3, 64, 700, 2000))
            F, G = poly(field, rng.randint(0, 5), bits), poly(field, rng.randint(0, 5), bits)
            assert F * G == _schoolbook(F, G), (field, str(F), str(G))
            assert G * F == F * G
            assert F * G.lc == _schoolbook(F, IntPoly(field, (G.lc,)))
        zero = IntPoly(field)
        assert F * zero == zero * F == zero
        assert zero**0 == IntPoly(field, (1,))
        G = poly(field, 2, 40)
        product = IntPoly(field, (1,))
        for k in range(field.p**2 + 1):
            assert G**k == product, (field, k)
            product = _schoolbook(product, G)
    for field, other in zip(fields, fields[1:]):
        with pytest.raises(ValueError, match="mixed-field"):
            P(field, 1, 1) * P(other, 1, 1)


def test_derivative(Q2):
    assert P(Q2, 9, 0, 4, 0, 4).derivative() == P(Q2, 0, 8, 0, 16)


# --- reciprocal


def test_reciprocal_fixtures(Q2):
    assert reciprocal(P(Q2, 9, 0, 4, 0, 4)) == P(Q2, 4, 0, 4, 0, 9)
    # factors of x are dropped: rev(x^2 + x) = x + 1
    assert reciprocal(P(Q2, 0, 1, 1)) == P(Q2, 1, 1)
    with pytest.raises(ZeroPolynomial):
        reciprocal(IntPoly(Q2, ()))


@given(a=coeff_lists)
@settings(max_examples=150)
def test_reciprocal_involution(Q2, a):
    F = IntPoly(Q2, a)
    if not F or not F.constant:
        return
    assert reciprocal(reciprocal(F)) == F


# --- square-free decomposition


def test_decompose_already_squarefree(Q2):
    F = P(Q2, 9, 0, 4, 0, 4)
    dec = squarefree_decompose(F)
    assert dec.lc == Q2.element(4)
    assert dec.factors == ((F, 1),)
    assert dec.c == 4  # 4F = 4 * F


def test_decompose_clears_denominators(Q3, E2):
    dec = squarefree_decompose(P(Q3, 1, 6, 9))  # (3x+1)^2
    assert dec.lc == Q3.element(9)
    assert dec.factors == ((P(Q3, 1, 3), 2),)
    assert dec.c == 9  # 9F = 9 * (3x + 1)^2
    t = E2.generator()
    dec2 = squarefree_decompose(IntPoly(E2, (1, 2 * t, 2)))  # (tx+1)^2
    assert dec2.lc == E2.element(2)
    assert dec2.factors == ((IntPoly(E2, (t, 2)), 2),)
    assert dec2.c == 4  # 4F = 2 * (2x + t)^2


def test_decompose_multiplicity_order(Q3):
    dec = squarefree_decompose(P(Q3, 0, 0, 0, 1, 1))  # x^3 (x+1)
    assert dec.factors == ((P(Q3, 1, 1), 1), (P(Q3, 0, 1), 3))
    assert dec.lc == Q3.one() and dec.c == Q3.one()


def test_decompose_rejects_zero(Q2):
    with pytest.raises(ZeroPolynomial):
        squarefree_decompose(IntPoly(Q2, ()))


@given(a=coeff_lists)
@settings(max_examples=100, deadline=None)
def test_reduce_power_free_is_power_free(Q2, a):
    F = IntPoly(Q2, a)
    if not F:
        return
    reduced = reduce_power_free(F, 2)
    assert is_power_free(reduced, 2)


@given(a=coeff_lists)
@settings(max_examples=100, deadline=None)
def test_reduce_power_free_of_power_free_is_identity(Q2, a):
    F = IntPoly(Q2, a)
    if not F or not is_power_free(F, 2):
        return
    assert reduce_power_free(F, 2) == F


coord_pairs = st.lists(
    st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)),
    min_size=1,
    max_size=3,
)


@given(which=st.integers(min_value=0, max_value=2), a=coord_pairs, b=coord_pairs)
@settings(max_examples=120, deadline=None)
def test_reduce_power_free_keeps_class(Q2, Q3, E2, which, a, b):
    # F = A^p B and its reduction R take values in one power class wherever
    # neither vanishes: F(x) R(x)^(p-1) = (F(x) / R(x)) R(x)^p is a p-th power
    field = (Q2, Q3, E2)[which]
    p = field.p

    def poly(pairs):
        return IntPoly(field, [pair if field.degree > 1 else pair[0] for pair in pairs])

    A, B = poly(a), poly(b)
    if not A or not B:
        return
    F = A**p * B
    R = reduce_power_free(F, p)
    assert is_power_free(R, p)
    depth = threshold_k0(field)
    for x in iter_residues(field, 2):
        if F(x) and R(x):
            assert oracle_is_pth_power(F(x) * R(x) ** (p - 1), field, depth), (str(F), x)


def test_reduce_power_free_fixtures(Q2, Q3, E2):
    assert reduce_power_free(P(Q3, 0, 0, 0, 1, 1), 3) == P(Q3, 1, 1)
    assert reduce_power_free(P(Q2, 0, 0, 1), 2) == P(Q2, 1)
    assert reduce_power_free(P(Q2, 9, 0, 4, 0, 4), 2) == P(Q2, 9, 0, 4, 0, 4)
    # (tx + 1)^2 = 2 (x + t/2)^2: dividing by 2^2 would leave ord 2
    t = E2.generator()
    assert reduce_power_free(IntPoly(E2, (1, 2 * t, 2)), 2) == IntPoly(E2, (1,))


# --- necessary conditions


def test_necessary_conditions(Q2):
    nc = necessary_conditions(P(Q2, 0, 1), Q2)
    assert nc.as_dict() == {
        "deg_ok": False,
        "lc_ord_ok": True,
        "const_is_power": True,
        "lc_is_power": True,
    }
    assert not nc.all_hold
    nc2 = necessary_conditions(P(Q2, 0, 0, 2), Q2)
    assert (nc2.deg_ok, nc2.lc_ord_ok, nc2.const_is_power, nc2.lc_is_power) == (
        True,
        False,
        True,
        False,
    )
    nc3 = necessary_conditions(P(Q2, 9, 0, 4, 0, 4), Q2)
    assert nc3.all_hold


# --- perfect p-th powers


def test_perfect_power_fixtures(Q2, Q3, E2, E3):
    assert is_perfect_pth_power_poly(P(Q2, 0, 0, 1), 2) == P(Q2, 0, 1)
    assert is_perfect_pth_power_poly(P(Q2, 9, 0, 4, 0, 4), 2) is None
    assert is_perfect_pth_power_poly(P(Q2, 1, 0, 2, 0, 1), 2) == P(Q2, 1, 0, 1)
    assert is_perfect_pth_power_poly(P(Q2, 1, 6, 9), 2) == P(Q2, 1, 3)
    assert is_perfect_pth_power_poly(P(Q2, 2, 4, 2), 2) is None  # 2(x+1)^2
    assert is_perfect_pth_power_poly(P(Q3, 0, 0, 0, 1), 3) == P(Q3, 0, 1)
    assert is_perfect_pth_power_poly(P(Q3, 0, 0, 0, -1), 3) == P(Q3, 0, -1)
    assert is_perfect_pth_power_poly(P(Q3, 0, 0, 0, 8), 3) == P(Q3, 0, 2)
    t = E2.generator()
    assert is_perfect_pth_power_poly(IntPoly(E2, (1, 2 * t, 2)), 2) == IntPoly(E2, (1, t))
    # -8 has the cube roots -2, 1 - t and 1 + t in Z[t], t^2 = -3, and only
    # 1 + t makes the root integral
    s = E3.generator()
    G = IntPoly(E3, (1, 1 + s))
    assert is_perfect_pth_power_poly(G**3, 3) == G


def test_perfect_power_of_wide_coordinates(E2, U2, E3, E2_cube):
    # the descent depth comes from the bound on the root's coordinates that
    # lc(F) gives, so a root is found however wide its coordinates are
    for field in (E2, U2, E3, E2_cube):
        for k in (50, 100, 300):
            for G in (IntPoly(field, (1, 2**k + 1)), IntPoly(field, (1, (2**k + 1, 2 ** (k // 2))))):
                F = G**field.p
                root = is_perfect_pth_power_poly(F, field.p)
                assert root is not None and root**field.p == F, (field, k, G)


@given(
    which=st.integers(min_value=0, max_value=4),
    a=st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=120, deadline=None)
@example(which=4, a=[[1, 0, 0], [1, 1, 0]])  # (1 + (1 + t)x)^3 over E3
def test_perfect_power_roundtrip(Q2, E2, U2, E2_cube, E3, which, a):
    field = (Q2, E2, U2, E2_cube, E3)[which]
    G = IntPoly(field, [c[: field.degree] for c in a])
    if not G:
        return
    F = G**field.p
    root = is_perfect_pth_power_poly(F, field.p)
    assert root is not None, str(G)
    assert root**field.p == F


# --- resultants


def _naive_resultant(F, G):
    """Laplace-free reference: Gaussian elimination over Fraction."""
    m, n = F.degree, G.degree
    size = m + n
    fc = [Fraction(c.coords[0]) for c in F.coeffs[::-1]]
    gc = [Fraction(c.coords[0]) for c in G.coeffs[::-1]]
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return det.numerator


def test_resultant_fixtures(Q2, Q3, E2):
    assert resultant(P(Q2, -3, 1), P(Q2, -5, 1)) == Q2.element(-2)
    assert resultant(P(Q2, -17, 0, 1), P(Q2, 0, 2)) == Q2.element(-68)
    assert resultant(P(Q2, 0, 0, 1), P(Q2, 0, 2)) == Q2.element(0)
    F = P(Q2, 9, 0, 4, 0, 4)
    assert resultant(F, F.derivative()).ord() == 22
    assert resultant(P(Q3, 3), P(Q3, 1, 0, 1)) == Q3.element(9)
    assert resultant(P(Q3, 1, 0, 1), P(Q3, 3)) == Q3.element(9)
    assert resultant(P(Q2, 5), P(Q2, 7)) == Q2.one()
    t = E2.generator()
    assert resultant(IntPoly(E2, (-2, 0, 1)), IntPoly(E2, (-t, 1))) == E2.zero()
    with pytest.raises(ZeroPolynomial):
        resultant(IntPoly(Q2, ()), P(Q2, 1))


# small coefficients, and 600-bit ones, which the remainder sequence
# multiplies far past a machine word before its exact divisions
_res_coeff = st.one_of(
    st.integers(min_value=-7, max_value=7), st.integers(min_value=-(2**600), max_value=2**600)
)


@given(
    which=st.integers(min_value=0, max_value=2),
    a=st.lists(_res_coeff, min_size=2, max_size=4),
    b=st.lists(_res_coeff, min_size=2, max_size=4),
)
@example(which=0, a=[2**600 - 1, 3, 2**599], b=[5, 0, 0, -(2**600)])
@example(which=2, a=[7, 2**600 + 1], b=[1, -(2**600), 0, 2**600 - 3])
@settings(max_examples=120, deadline=None)
def test_resultant_matches_naive_sylvester(Q2, Q3, Q5, which, a, b):
    field = (Q2, Q3, Q5)[which]
    F, G = IntPoly(field, a), IntPoly(field, b)
    if not F or not G or F.degree == 0 or G.degree == 0:
        return
    assert resultant(F, G).coords[0] == _naive_resultant(F, G)


@given(
    a=st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=3),
    b=st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=3),
    c=st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_resultant_multiplicative(Q2, a, b, c):
    F, G, H = IntPoly(Q2, a), IntPoly(Q2, b), IntPoly(Q2, c)
    if not (F and G and H) or 0 in (F.degree, G.degree, H.degree):
        return
    assert resultant(F * G, H) == resultant(F, H) * resultant(G, H)


def _leibniz_resultant(F, G):
    """Determinant of the Sylvester matrix of F and G by the Leibniz
    expansion, in plain OKElem arithmetic."""
    field = F.field
    m, n = F.degree, G.degree
    zero = [field.zero()]
    rows = [zero * i + list(F.coeffs[::-1]) + zero * (n - 1 - i) for i in range(n)]
    rows += [zero * i + list(G.coeffs[::-1]) + zero * (m - 1 - i) for i in range(m)]
    det = field.zero()
    for perm in permutations(range(m + n)):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        term = field.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        det = det - term if inversions % 2 else det + term
    return det


coord_pair = st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9))
coord_lists = st.lists(coord_pair, min_size=1, max_size=5)


@given(
    which=st.integers(min_value=0, max_value=2), a=coord_lists, b=coord_lists, root=coord_pair
)
# over E2, 1 / (6 + 9t) has coordinate denominators 21 and 14, so a pivot
# cofactor must scale by their lcm, not by either one
@example(which=0, a=[(1, 0), (6, 9)], b=[(1, 0), (0, 0), (1, 1)], root=(0, 0))
@settings(max_examples=120, deadline=None)
def test_resultant_matches_leibniz_over_extensions(E2, U2, E3, which, a, b, root):
    field = (E2, U2, E3)[which]
    F, G = IntPoly(field, a), IntPoly(field, b)
    if not F or not G or F.degree + G.degree > 5:
        return
    assert resultant(F, G) == _leibniz_resultant(F, G)
    # Res(x - r, G) = G(r)
    r = field.element(root)
    assert resultant(IntPoly(field, (-r, 1)), G) == G(r)


def _sparse_poly(rng, field, degree):
    """Degree-`degree` polynomial whose lower coefficients are mostly 0, so
    that remainder sequences drop by two or more degrees at a step."""
    coeffs = [rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(degree)]
    return IntPoly(field, coeffs + [rng.choice((-3, -2, -1, 1, 2, 3))])


def test_resultant_matches_naive_sylvester_sparse(Q3):
    # degrees 0-9 both ways round, equal degrees among them; sparse
    # coefficients reach degree gaps of 2 and more inside the subresultant
    # sequence, and a shared factor gives Res = 0
    rng = random.Random(20251018)
    for m in range(10):
        for n in range(10):
            for _ in range(3):
                F, G = _sparse_poly(rng, Q3, m), _sparse_poly(rng, Q3, n)
                expected = _naive_resultant(F, G)
                assert resultant(F, G).coords[0] == expected, (str(F), str(G))
                assert resultant(G, F).coords[0] == _naive_resultant(G, F), (str(G), str(F))
                if m and n and m + n <= 9:
                    H = _sparse_poly(rng, Q3, rng.randint(1, 3))
                    assert _naive_resultant(F * H, G * H) == 0
                    assert resultant(F * H, G * H) == Q3.zero(), (str(F * H), str(G * H))


class _QtElem:
    """Test-local element of Q(t) = Q[t]/(g): Fraction coordinates in the
    power basis of the field's defining polynomial g."""

    def __init__(self, field, coords):
        self.field, self.coords = field, tuple(Fraction(c) for c in coords)

    def __bool__(self):
        return any(self.coords)

    def __add__(self, other):
        return _QtElem(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return _QtElem(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        n, g = self.field.degree, self.field.defining
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                conv[i + j] += a * b
        for i in range(2 * n - 2, n - 1, -1):  # t^n = -(g_0 + ... + g_(n-1) t^(n-1))
            c, conv[i] = conv[i], 0
            for j in range(n):
                conv[i - n + j] -= c * g[j]
        return _QtElem(self.field, conv[:n])

    def inverse(self):
        """Solve self * y = 1 by Gauss-Jordan on the matrix of multiplication
        by self, whose column j holds the coordinates of self * t^j."""
        n = self.field.degree
        basis = [_QtElem(self.field, [int(i == j) for i in range(n)]) for j in range(n)]
        columns = [(self * e).coords for e in basis]
        rows = [[columns[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [x / rows[col][col] for x in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
        return _QtElem(self.field, [row[n] for row in rows])


# --- the fraction-field elements of Yun's algorithm

_coordinate = st.one_of(
    st.integers(min_value=-(2**1000), max_value=2**1000), st.integers(min_value=-9, max_value=9)
)
_smooth = st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
)
# coordinates, a common factor of them and a denominator: smooth parts make
# contents and denominators share factors, so both of Henrici's branches and
# every cancellation are reached
_kelem_spec = st.tuples(
    st.lists(_coordinate, min_size=3, max_size=3),
    _smooth,
    st.one_of(_smooth, st.builds(lambda s, k: s * k, _smooth, st.integers(1, 2**64))),
)


def _kelem_pair(field, spec):
    """A _KElem and the _QtElem of the same value, built from Fractions."""
    coords, content, den = spec
    q = [Fraction(c * content, den) for c in coords[: field.degree]]
    d = math.lcm(*(x.denominator for x in q))
    return polyring._KElem(field, tuple(int(x * d) for x in q), d), _QtElem(field, q)


def _assert_same(x, ref):
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1, (x.num, x.den)
    assert len(x.num) == x.field.degree
    assert tuple(Fraction(n, x.den) for n in x.num) == ref.coords


@given(
    which=st.integers(min_value=0, max_value=6),
    a=_kelem_spec,
    b=_kelem_spec,
    k=st.builds(lambda s, k: s * k, _smooth, st.integers(-(2**64), 2**64)),
)
@settings(max_examples=150, deadline=None)
@example(which=3, a=([0, 1, 0], 1, 2), b=([0, 1, 0], 1, 1), k=2)  # (t/2) t = 2/2 over E2
@example(which=0, a=([1, 0, 0], 1, 6), b=([1, 0, 0], 1, 6), k=3)  # 1/6 + 1/6 = 2/6 = 1/3
def test_kelem_matches_qt_reference(Q2, Q3, Q5, E2, U2, E2_cube, E3, which, a, b, k):
    # every result equals the test-local Q(t) arithmetic and is in lowest
    # terms with a positive denominator
    field = (Q2, Q3, Q5, E2, U2, E2_cube, E3)[which]
    (x, rx), (y, ry) = _kelem_pair(field, a), _kelem_pair(field, b)
    _assert_same(x, rx)
    _assert_same(x + y, rx + ry)
    _assert_same(x - y, rx - ry)
    _assert_same(-x, _QtElem(field, (0,) * field.degree) - rx)
    _assert_same(x * y, rx * ry)
    _assert_same(x.scale(k), rx * _QtElem(field, (k,) + (0,) * (field.degree - 1)))
    if y:
        _assert_same(y.inverse(), ry.inverse())
        _assert_same(x * y.inverse(), rx * ry.inverse())


def test_cofactor_matches_bareiss(E2, U2, E3, E2_w3):
    # over quadratic fields the closed form adj(b_0 + b_1 t) = (b_0 - g_1
    # b_1, -b_1) with d the norm of b gives, after normalization, the
    # Bareiss solution of the system of multiplication by b, and b adj = d
    # with d > 0 and gcd(d, *adj) = 1: on random b, on rational integers, on
    # b of norm divisible by p and on E2_w3, where g_1 = 2
    rng = random.Random(20261019)
    for field in (E2, U2, E3, E2_w3):
        p = field.p
        t = field.generator()
        cases = [(b,) + (0,) * (field.degree - 1) for b in (1, -1, p, -(p**5) * 7, 2**70 + 1)]
        cases += [t.coords, (-t).coords, (t * p).coords, (t + p).coords, (t * 3 + 6).coords]
        cases += [(p * rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(10)]
        for bits in (4, 64, 2000):
            cases += [(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)) for _ in range(10)]
        if field.f == 2:
            cases += [(2, 2), (2, -4)]
        for b in cases:
            adj, d = localfield._cofactor(b, field)
            assert d > 0 and math.gcd(d, *adj) == 1, (field, b)
            assert field.element(b) * field.element(adj) == d, (field, b)
            cols = [b, field._mul_vec(b, t.coords)]
            D, y = localfield._solve([[col[i] for col in cols] + [int(not i)] for i in range(2)])
            g = math.gcd(D, *y) if D > 0 else -math.gcd(D, *y)
            assert (adj, d) == (tuple(x // g for x in y), D // g), (field, b)
        assert any(localfield._cofactor(b, field)[1] % p == 0 for b in cases)


def _sylvester_over_qt(F, G):
    """Determinant of the Sylvester matrix of F and G by Gaussian
    elimination over Q(t), as the integer coordinates of an element."""
    field = F.field
    m, n = F.degree, G.degree
    zero = [_QtElem(field, (0,) * field.degree)]
    fc = [_QtElem(field, c.coords) for c in F.coeffs[::-1]]
    gc = [_QtElem(field, c.coords) for c in G.coeffs[::-1]]
    rows = [zero * i + fc + zero * (n - 1 - i) for i in range(n)]
    rows += [zero * i + gc + zero * (m - 1 - i) for i in range(m)]
    det = _QtElem(field, (1,) + (0,) * (field.degree - 1))
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if rows[r][col]), None)
        if pivot is None:
            return (0,) * field.degree
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = zero[0] - det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, m + n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b if b else a for a, b in zip(rows[r], rows[col])]
    assert all(c.denominator == 1 for c in det.coords)
    return tuple(int(c) for c in det.coords)


def _sparse_ext_poly(rng, field, degree):
    """Degree-`degree` polynomial over an extension with mostly zero lower
    coefficients, so that remainder sequences drop by two or more degrees."""
    n = field.degree
    coeffs = [
        tuple(rng.randint(-9, 9) for _ in range(n)) if rng.random() < 0.25 else 0
        for _ in range(degree)
    ]
    return IntPoly(field, coeffs + [tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n))])


def test_resultant_matches_sylvester_over_extensions(E2, U2, E3):
    # degrees 0-8 both ways round over the three quadratic extensions, with
    # sparse coefficients (degree gaps of 2 and more inside the subresultant
    # sequence), and a shared factor, which gives Res = 0
    rng = random.Random(20261018)
    for field in (E2, U2, E3):
        for m in range(9):
            for n in range(9):
                F, G = _sparse_ext_poly(rng, field, m), _sparse_ext_poly(rng, field, n)
                expected = _sylvester_over_qt(F, G)
                assert resultant(F, G).coords == expected, (str(F), str(G))
                # swapping the two row blocks of the matrix: sign (-1)^(mn)
                swapped = tuple(c * (-1) ** (m * n) for c in expected)
                assert resultant(G, F).coords == swapped, (str(G), str(F))
                if m and n and m + n <= 8:
                    H = _sparse_ext_poly(rng, field, rng.randint(1, 2))
                    assert resultant(F * H, G * H) == field.zero(), (str(F * H), str(G * H))


def test_resultant_divides_by_a_non_integer_over_extensions(E2, monkeypatch):
    # Res(F, G) with lc(G) = 6 + 9t over Q_2(sqrt 2): the second remainder
    # step divides by g h = (6 + 9t)^2 = 198 + 108t, whose inverse
    # (198 - 108t) / 15876 = 11/882 - t/147 has two different
    # denominators, so its cofactor must scale by their lcm, 882
    t = E2.generator()
    lam = _QtElem(E2, (t * 9 + 6).coords) * _QtElem(E2, (t * 9 + 6).coords)
    assert lam.coords == (198, 108)
    assert [c.denominator for c in lam.inverse().coords] == [882, 147]
    divisors = []
    exact_div = polyring._exact_div_elem

    def recorded(a, cofactor, d, field):
        divisors.append(d)
        return exact_div(a, cofactor, d, field)

    monkeypatch.setattr(polyring, "_exact_div_elem", recorded)
    F = IntPoly(E2, (1, 1, 0, 0, 1))
    G = IntPoly(E2, (1, t, 0, t * 9 + 6))
    assert resultant(F, G).coords == _sylvester_over_qt(F, G)
    assert resultant(G, F).coords == _sylvester_over_qt(G, F)
    assert 882 in divisors


def test_resultant_builds_no_fraction_field_element(E2, U2, E3, monkeypatch):
    # the remainder sequence divides by elements that are not rational
    # integers, lc 6 + 9t among them, through integral cofactors alone: with
    # the fraction-field element class replaced by one that raises, the
    # resultants still match the Sylvester determinant over Q(t)
    def refuse(*args):
        raise AssertionError("the subresultant PRS built a fraction-field element")

    monkeypatch.setattr(polyring, "_KElem", refuse)
    divisors = []
    exact_div = polyring._exact_div_elem

    def recorded(a, cofactor, d, field):
        divisors.append(d)
        return exact_div(a, cofactor, d, field)

    monkeypatch.setattr(polyring, "_exact_div_elem", recorded)
    t, u, s = E2.generator(), U2.generator(), E3.generator()
    for F, G in (
        (IntPoly(E2, (1, 1, 0, 0, 1)), IntPoly(E2, (1, t, 0, t * 9 + 6))),
        (IntPoly(E2, (t, 3, 1 - t, 2 * t + 1)), IntPoly(E2, (5, 0, t * 9 + 6))),
        (IntPoly(U2, (u, 1, 3, 0, 1)), IntPoly(U2, (2, u, 0, u * 3 + 5))),
        (IntPoly(E3, (1, s, 0, 2, 1)), IntPoly(E3, (s, 1, 0, s * 7 + 4))),
    ):
        divisors.clear()
        assert resultant(F, G).coords == _sylvester_over_qt(F, G), (str(F), str(G))
        assert resultant(G, F).coords == _sylvester_over_qt(G, F), (str(G), str(F))
        assert divisors, (str(F), str(G))


def _normalized_factor(G):
    """G made monic, then cleared of coordinate denominators, computed apart
    from the library on the test-local Q(t) arithmetic."""
    field = G.field
    inv = _QtElem(field, G.lc.coords).inverse()
    monic = [(_QtElem(field, c.coords) * inv).coords for c in G.coeffs]
    s = math.lcm(*(x.denominator for c in monic for x in c))
    return IntPoly(field, [tuple(int(x * s) for x in c) for c in monic])


def test_decompose_large_repeated_factor(Q3, E2, U2, E3, E2_cube):
    # F = G1^2 G2 with coefficients of 1,000 bits and more: Yun's remainder
    # sequence must come back to exactly the normalized G1 and G2.  Over E3
    # (t^2 = -3) and Q_2(2^(1/3)) (t^3 = 2) reduction modulo the defining
    # polynomial makes products of fractions gain content
    rng = random.Random(9)
    t, u, s, r = E2.generator(), U2.generator(), E3.generator(), E2_cube.generator()
    for field, top1, top2 in (
        (Q3, 7, -5),
        (E2, 3 + t, 5 - 2 * t),
        (U2, 3 + u, 2 - 5 * u),
        (E3, 2 + s, 3 - 2 * s),
        (E2_cube, 3 + r * r, 1 - 2 * r),
    ):
        def big():
            return field.element(tuple(rng.randint(-(2**1000), 2**1000) for _ in range(field.degree)))

        G1 = IntPoly(field, [big(), big(), top1])
        G2 = IntPoly(field, [big(), big(), big(), top2])
        F = G1**2 * G2
        assert F.height.bit_length() >= 2000
        dec = squarefree_decompose(F)
        assert dec.lc == F.lc
        assert dec.factors == ((_normalized_factor(G2), 1), (_normalized_factor(G1), 2))


# --- decomposition at working precision


def _least_power_past(p, bits):
    """The least N with p^N >= 2^bits."""
    N = 0
    while p**N < 2**bits:
        N += 1
    return N


@pytest.fixture
def exact_calls(monkeypatch):
    """The argument of every exact decomposition, in call order."""
    seen = []
    exact = polyring._exact_decompose

    def spy(F):
        seen.append(F)
        return exact(F)

    monkeypatch.setattr(polyring, "_exact_decompose", spy)
    return seen


def test_wide_decomposition_runs_at_working_precision(Q3, E2, exact_calls, monkeypatch):
    # the 1,552-bit criterion-9 perturbation over Q_3 is certified by the
    # resultants of copies with coordinates of at most two machine words,
    # and neither it nor a copy reaches the exact decomposition; the narrow
    # one over Q_2(sqrt 2), 44 bits, reaches the exact decomposition as it is
    resultant_args = []
    exact_resultant = polyring.resultant

    def recorded(F, G):
        resultant_args.append((F, G))
        return exact_resultant(F, G)

    monkeypatch.setattr(polyring, "resultant", recorded)
    rng = random.Random(20260814)
    for field, m in ((Q3, 2), (E2, 5)):
        F = make_ck_not_power(field, m)
        shift = field.uniformizer() ** (stability_radius(F, field) + 1)
        F += IntPoly(field, [field.element(rng.choice((-2, -1, 1, 2))) * shift for _ in F.coeffs])
        exact_calls.clear()
        resultant_args.clear()
        dec, res_ord = polyring._squarefree_decompose(F)
        if field is Q3:
            assert F.height.bit_length() >= 1550
            assert resultant_args and exact_calls == []
            for copy, derivative in resultant_args:
                assert copy.degree == F.degree and copy.height.bit_length() <= 128
                assert derivative == copy.derivative()
        else:
            assert F.height.bit_length() <= 63
            assert exact_calls == [F] and resultant_args == []
        assert res_ord == resultant(dec.factors[0][0], dec.factors[0][0].derivative()).ord()


def test_working_precision_matches_exact(
    Q2, Q3, Q5, E2, U2, E2_cube, E3, exact_calls, monkeypatch
):
    # on wide F of 600 to 3,000 bits the decomposition, factors and c, is the
    # exact one, and a square-free F's res_ord is ord Res(G, G'), whether F
    # is certified by a copy, at the first precision p^N >= 2^64 or at a
    # later one, or past every copy by Res(F, F') taken exactly; only F with
    # a repeated factor reaches the exact decomposition
    exact_resultant = polyring.resultant
    resultant_firsts = []

    def recorded(F, G):
        resultant_firsts.append(F)
        return exact_resultant(F, G)

    monkeypatch.setattr(polyring, "resultant", recorded)
    rng = random.Random(20261019)
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3):
        p, e = field.p, field.e
        q = field.element(p)
        pN = q ** _least_power_past(p, 64)

        def wide(degree, bits, top=1):
            def coeff():
                return field.element([rng.randint(-(2**bits), 2**bits) for _ in range(field.degree)])

            return IntPoly(field, [coeff() for _ in range(degree)] + [top])

        a = field.element([rng.randint(-9, 9) for _ in range(field.degree)])
        close = q ** _least_power_past(p, 140)
        cases = [
            ("square-free", wide(1, 900), "copy"),
            ("square-free", wide(3, 700), "copy"),
            ("square-free", wide(2, 2900, top=3), "copy"),
            ("G1^2 G2", wide(1, 300, top=2) ** 2 * wide(2, 300), "yun"),
            # two roots p^k apart, p^k >= 2^140: ord Res(F, F') >= 2 e k exceeds
            # e N at p^N >= 2^256, the last precision under the cap
            ("ord past the cap", P(field, -a, 1) * P(field, -a - close, 1) * wide(2, 700), "exact"),
            # the degree drops at the first precision, and F goes on to
            # p^N >= 2^128, as twice its bits is at most F's
            ("lc in p^N", wide(3, 700, top=pN), "copy"),
            ("lc in p^N", wide(3, 1100, top=pN * 3), "copy"),
            ("F in p^N", wide(3, 700) * pN, "exact"),
        ]
        member = make_ck_not_power(field, e * p // (p - 1) + 1)
        radius = stability_radius(member, field)
        # Q_5's radius, 37,007, puts its perturbations past 80,000 bits
        if radius < e * _least_power_past(p, 2900):
            shift = field.uniformizer() ** max(radius + 1, e * _least_power_past(p, 600))
            delta = IntPoly(field, [shift * rng.randint(-3, 3) for _ in member.coeffs])
            cases.append(("criterion 9", member + delta, "copy"))
        for case, F, path in cases:
            assert 600 <= F.height.bit_length() <= 3000, (case, field)
            exact_calls.clear()
            resultant_firsts.clear()
            dec, res_ord = polyring._squarefree_decompose(F)
            taken = "yun" if F in exact_calls else "exact" if F in resultant_firsts else "copy"
            assert taken == path, (case, field)
            exact_dec, exact_res_ord = polyring._exact_decompose(F)
            assert dec == exact_dec, (case, field)
            assert (res_ord is None) == (exact_res_ord is None), (case, field)
            if res_ord is not None:
                G = dec.factors[0][0]
                assert res_ord == exact_res_ord == resultant(G, G.derivative()).ord()


def test_wide_repeated_factor_of_high_degree_takes_no_copy(Q2, exact_calls, monkeypatch):
    # (x + 1)^600 has 596-bit coefficients, and every copy of it modulo p^N
    # is square-free, so a copy's PRS would run all 599 steps, its
    # coefficients growing by the copy's width at each: 599 times the 65
    # bits of the first precision past 2^64 exceed F's bits, so the ladder
    # takes no copy, and Res(F, F') = 0, taken exactly, sends F to Yun
    F = P(Q2, 1, 1) ** 600
    exact_resultant = polyring.resultant

    def refused(A, B):
        assert A == F, "a copy of F took a resultant"
        return exact_resultant(A, B)

    monkeypatch.setattr(polyring, "resultant", refused)
    dec, res_ord = polyring._squarefree_decompose(F)
    assert F.height.bit_length() > 512
    assert dec.factors == ((P(Q2, 1, 1), 600),) and res_ord is None
    assert exact_calls == [F]


def test_repeated_copy_takes_one_resultant(Q3, monkeypatch):
    # the 1,552-bit criterion-9 perturbation over Q_3 differs from the
    # member only in terms of ord 978, so its copies modulo 3^41 and 3^81
    # are the same 5-bit member, whose ord Res 57 is past e N = 41 and
    # below 81: one resultant serves both precisions
    copies = []
    exact_resultant = polyring.resultant

    def recorded(F, G):
        copies.append(F)
        return exact_resultant(F, G)

    monkeypatch.setattr(polyring, "resultant", recorded)
    rng = random.Random(20260814)
    F = make_ck_not_power(Q3, 2)
    shift = Q3.uniformizer() ** (stability_radius(F, Q3) + 1)
    F += IntPoly(Q3, [Q3.element(rng.choice((-2, -1, 1, 2))) * shift for _ in F.coeffs])
    copies.clear()
    dec, res_ord = polyring._squarefree_decompose(F)
    assert F.height.bit_length() >= 1550
    assert [copy.height.bit_length() for copy in copies] == [5]
    assert res_ord == 57 == exact_resultant(dec.factors[0][0], dec.factors[0][0].derivative()).ord()


def _off_by_one(parts, which, coeff, coord):
    """Yun's factors with one coordinate of one coefficient of factor
    number which off by one."""
    h, mult = parts[which]
    c = h[coeff]
    num = list(c.num)
    num[coord] += c.den
    h = h[:coeff] + (polyring._KElem(c.field, tuple(num), c.den),) + h[coeff + 1 :]
    return parts[:which] + [(h, mult)] + parts[which + 1 :]


def _coord_off_by_one(G, coeff, coord):
    """G with one coordinate of one coefficient off by one."""
    vecs = [list(c.coords) for c in G.coeffs]
    vecs[coeff][coord] += 1
    return IntPoly(G.field, [tuple(v) for v in vecs])


def test_cleared_refuses_a_wrong_factor(Q3, E2, U2, E2_cube):
    # the identity check (c / g) F = (lc / g) prod G^m, g = gcd(c, lc),
    # refuses Yun factors with one coordinate off by one on narrow input,
    # and on wide input refuses F's one factor, built by _square_free from
    # the integral cofactor of lc(F), with one coordinate off by one; the
    # true factors pass.  Q_2(2^(1/3)) takes its cofactors from Bareiss's
    # elimination, and the Q_3 case with two repeated factors runs the
    # product branch of the check
    rng = random.Random(20261019)
    t, u, r = E2.generator(), U2.generator(), E2_cube.generator()
    narrow = [
        P(Q3, 3, 2) ** 2 * P(Q3, -5, 0, 9),
        P(Q3, 3, 2) ** 2 * P(Q3, 1, 0, 1) ** 3,
        P(E2, 1 + t, 2) ** 3 * P(E2, t, 1, 6),
        P(U2, u, 2 + u) * P(U2, 3, 1) ** 2,
        P(E2_cube, 1 + r, 2 * r) ** 2 * P(E2_cube, r, 1, 3 + r * r),
    ]
    for F in narrow:
        parts = polyring._yun(polyring._kp_monic(polyring._kp_from_int(F)))[0]
        assert polyring._cleared(F, parts) == squarefree_decompose(F)
        for which, (h, _) in enumerate(parts):
            for coeff in range(len(h)):
                with pytest.raises(AssertionError, match="identity failed"):
                    polyring._cleared(F, _off_by_one(parts, which, coeff, coeff % F.field.degree))
    for field, top in ((Q3, 3**40 * 7), (E2, t * 2**41), (U2, 2 * u + 4), (E2_cube, r * r * 2**40 + r)):
        def big():
            return field.element([rng.randint(-(2**1500), 2**1500) for _ in range(field.degree)])

        F = IntPoly(field, [big(), big(), big(), top])
        dec = polyring._square_free(F, 0)[0]
        assert dec == polyring._exact_decompose(F)[0]
        G = dec.factors[0][0]
        assert G == _normalized_factor(F)
        for coeff in range(4):
            with pytest.raises(AssertionError, match="identity failed"):
                polyring._verified(F, ((_coord_off_by_one(G, coeff, field.degree - 1), 1),), dec.c)


def test_cleared_leaves_out_the_denominator_of_a_zero(Q3):
    # 1/2 - 3/6, with 3/6 not in lowest terms, is the zero 0/3; its
    # denominator takes no part in the lcm that clears the factor, so
    # x^2 + 1 comes back primitive with c = 1, not as 3x^2 + 3 with c = 3
    K = polyring._KElem
    zero = K(Q3, (1,), 2) - K(Q3, (3,), 6)
    assert not zero and zero.den == 3
    F = P(Q3, 1, 0, 1)
    dec = polyring._cleared(F, [((K(Q3, (1,)), zero, K(Q3, (1,))), 1)])
    assert dec.factors == ((F, 1),)
    assert dec.c == 1


# the criterion-5 nonic 27x^9 + 54x^6 + 54x^3 + 40
NONIC = (40, 0, 0, 54, 0, 0, 54, 0, 0, 27)


def test_decomposition_identity_on_sparse_input(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    # x^p-sparse F, whose zero terms every kernel of the decomposition
    # skips: the paper's member (1 + pi x^p)^p + pi^m at the smallest m,
    # its reciprocal, the member plus pi, the nonic, and the member squared
    # times x + 1 for a repeated factor; every factor is primitive, c > 0,
    # and c F = lc prod G^m holds, recomputed with IntPoly products
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
        p, e = field.p, field.e
        member = make_ck_not_power(field, e * p // (p - 1) + 1)
        cases = [
            member,
            reciprocal(member),
            member + P(field, field.uniformizer()),
            IntPoly(field, NONIC),
            member * member * P(field, 1, 1),
        ]
        for F in cases:
            dec = squarefree_decompose(F)
            assert dec.lc == F.lc
            assert dec.c > 0
            rhs = IntPoly(field, (dec.lc,))
            for G, mult in dec.factors:
                assert math.gcd(*(x for coeff in G.coeffs for x in coeff.coords)) == 1, (str(F), str(G))
                rhs = rhs * G**mult
            assert F * dec.c == rhs, str(F)
        assert sorted(mult for _, mult in dec.factors) == [1, 2]


def test_decomposition_identity_recomputed(Q2, Q3, Q5, E2, U2, E2_cube):
    # c F = lc prod G^m recomputed with IntPoly products and powers, every
    # factor primitive (its coordinates have gcd 1) and c > 0, on seeded
    # narrow F with repeated factors and on wide F, of 1,000 bits and more,
    # both square-free and with a repeated factor
    rng = random.Random(20261020)
    for field in (Q2, Q3, Q5, E2, U2, E2_cube):
        def poly(deg, bound):
            coeffs = [field.element([rng.randint(-bound, bound) for _ in range(field.degree)]) for _ in range(deg)]
            return IntPoly(field, coeffs + [field.element(rng.choice((1, 2, 3, field.p**2 * 5)))])

        cases = [poly(1, 9) ** 2 * poly(2, 9) for _ in range(4)]
        cases += [poly(1, 9) ** 3 * poly(1, 9) ** 2 * poly(1, 9) for _ in range(2)]
        cases += [poly(3, 2**1000), poly(4, 2**1000), poly(1, 2**600) ** 2 * poly(1, 9)]
        for F in cases:
            dec = squarefree_decompose(F)
            assert dec.lc == F.lc
            assert dec.c > 0
            rhs = IntPoly(field, (dec.lc,))
            for G, mult in dec.factors:
                assert math.gcd(*(x for coeff in G.coeffs for x in coeff.coords)) == 1, (str(F), str(G))
                rhs = rhs * G**mult
            assert F * dec.c == rhs, str(F)
