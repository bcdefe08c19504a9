"""Field construction, exact arithmetic and residue systems."""

from __future__ import annotations

import math
import random
import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicpowers import (
    BASE,
    EISENSTEIN,
    UNRAMIFIED,
    KTooLargeForMemory,
    MixedTowerUnsupported,
    NotEisenstein,
    NotIrreducibleModP,
    NotPrime,
    PrimalityUnproven,
    UnsupportedField,
    congruent,
    iter_residues,
    make_field,
    ord,
    reduce_mod,
    residues,
)
from padicpowers.localfield import _prime_factors, _solve, _strong_probable_prime, _vp
from padicpowers.powerclasses import _moduli, threshold_k0

small_ints = st.integers(min_value=-10**6, max_value=10**6)
coord_pairs = st.tuples(small_ints, small_ints)


# --- construction and validation


def test_base_field_shape(Q2):
    assert (Q2.p, Q2.e, Q2.f, Q2.degree) == (2, 1, 1, 1)
    assert Q2.defining == ()
    assert Q2.uniformizer() == Q2.element(2)


def test_eisenstein_shape(E2):
    assert (E2.e, E2.f, E2.degree) == (2, 1, 2)
    assert E2.uniformizer() == E2.generator()


def test_unramified_shape(U2):
    assert (U2.e, U2.f, U2.degree) == (1, 2, 2)
    assert U2.uniformizer() == U2.element(2)


def test_constants_are_built_once(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
        assert field.one() == field.element(1) and field.one() is field.one()
        assert field.zero() == field.element(0) and field.zero() is field.zero()
        assert field.uniformizer().ord() == 1
        assert field.uniformizer() is field.uniformizer()
        if field.kind == BASE:
            assert field.uniformizer() == field.element(field.p)
            with pytest.raises(UnsupportedField):
                field.generator()
            continue
        assert field.generator() == field.element((0, 1))
        assert field.generator() is field.generator()
        pi = field.generator() if field.kind == EISENSTEIN else field.element(field.p)
        assert field.uniformizer() == pi


def test_moduli_span_the_lattice_of_each_ord(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    # coordinate i of the lattice of ord >= k has the least modulus p^j
    # with ord(p^j t^i) >= k, read here through the field's own valuation
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
        n = field.degree
        for k in range(3 * threshold_k0(field) + 1):
            expected = []
            for i in range(n):
                j = 0
                while field._ord_vec(tuple(field.p**j * (i == m) for m in range(n))) < k:
                    j += 1
                expected.append(field.p**j)
            assert _moduli(field, k) == tuple(expected)
            assert _moduli(field, k) is _moduli(field, k)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(4, BASE)
    with pytest.raises(UnsupportedField):
        make_field(2, BASE, (1, 1, 1))
    with pytest.raises(UnsupportedField):
        make_field(2, EISENSTEIN)
    with pytest.raises(MixedTowerUnsupported):
        make_field(2, "totally-wild", (1, 1, 1))
    with pytest.raises(NotEisenstein):
        make_field(2, EISENSTEIN, (-4, 0, 1))
    with pytest.raises(NotEisenstein):
        make_field(2, EISENSTEIN, (-2, 0, 2))
    with pytest.raises(NotIrreducibleModP):
        make_field(3, UNRAMIFIED, (-1, 0, 1))


def test_make_field_validation_branches():
    # trailing zero coefficients are trimmed; an unramified polynomial of
    # degree below 2 defines no extension; an Eisenstein polynomial needs
    # every non-leading coefficient divisible by p, not only the constant
    assert make_field(2, EISENSTEIN, (-2, 0, 1, 0)) == make_field(2, EISENSTEIN, (-2, 0, 1))
    with pytest.raises(NotIrreducibleModP, match="degree >= 2"):
        make_field(3, UNRAMIFIED, (1, 2))
    with pytest.raises(NotEisenstein, match="non-leading"):
        make_field(2, EISENSTEIN, (2, 1, 1))


def test_make_field_rejects_non_integer_coefficients():
    # a float is not truncated (1.9 would give t^2 - 2) and a string is not
    # parsed: both raise TypeError where they enter
    with pytest.raises(TypeError):
        make_field(2, EISENSTEIN, (-2, 0, 1.9))
    with pytest.raises(TypeError):
        make_field(2, EISENSTEIN, ("-2", "0", "1"))


def _has_factor_mod_p(g, p):
    """True when the monic g, low degree first, has a monic factor of
    degree 1 to deg g // 2 modulo p: every candidate divides by long
    division."""
    n = len(g) - 1
    for k in range(1, n // 2 + 1):
        for low in product(range(p), repeat=k):
            r = [c % p for c in g]
            for i in range(n - k, -1, -1):
                c = r[i + k]
                for j, h in enumerate(low + (1,)):
                    r[i + j] = (r[i + j] - c * h) % p
            if not any(r[:k]):
                return True
    return False


def test_make_field_irreducibility_matches_factor_search():
    # Rabin's test against an exhaustive factor search: every monic g of
    # degree 2-5 modulo 2 and 3 and of degree 2-3 modulo 5 and 7, then
    # seeded integer lifts, whose coefficients reach past p and below 0
    cases = [
        (p, low + (1,))
        for p, top in ((2, 5), (3, 5), (5, 3), (7, 3))
        for n in range(2, top + 1)
        for low in product(range(p), repeat=n)
    ]
    rng = random.Random(20261020)
    for _ in range(1200):
        n = rng.randint(2, 5)
        cases.append((rng.choice((2, 3, 5, 7, 11)), tuple(rng.randint(-60, 60) for _ in range(n)) + (1,)))
    verdicts = []
    for p, g in cases:
        irreducible = not _has_factor_mod_p(g, p)
        verdicts.append(irreducible)
        if irreducible:
            assert make_field(p, UNRAMIFIED, g).defining == g
        else:
            with pytest.raises(NotIrreducibleModP):
                make_field(p, UNRAMIFIED, g)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_prime_factors_by_trial_division():
    # the 6k +- 1 stepping against division by every d, and make_field's
    # prime test against it
    for n in range(1, 3000):
        naive = [d for d in range(2, n + 1) if n % d == 0 and all(d % q for q in range(2, d))]
        assert _prime_factors(n) == naive, n
    for n in range(-3, 60):
        if n > 1 and _prime_factors(n) == [n]:
            assert make_field(n, BASE).p == n
        else:
            with pytest.raises(NotPrime):
                make_field(n, BASE)


def test_prime_test_is_strong_to_thirteen_bases():
    # Miller-Rabin to the bases 2, ..., 41 agrees with trial division below
    # 10^4, accepts 2^61 - 1 at once, and rejects a Carmichael number and
    # the least strong pseudoprimes to the first 4 and the first 9 prime
    # bases; past 3.3e24, where it proves no primality, a p that it does
    # not prove composite raises PrimalityUnproven, also the least strong
    # pseudoprime to all 13 bases
    for n in range(2, 10**4):
        assert _strong_probable_prime(n) == (_prime_factors(n) == [n]), n
    start = time.perf_counter()
    assert make_field(2**61 - 1, BASE).p == 2**61 - 1
    assert time.perf_counter() - start < 0.1
    for n in (561, 3_215_031_751, 3_825_123_056_546_413_051, 2**89 + 1):
        with pytest.raises(NotPrime):
            make_field(n, BASE)
    for n in (2**89 - 1, 3_317_044_064_679_887_385_961_981):
        with pytest.raises(PrimalityUnproven):
            make_field(n, BASE)


def test_solve_singular_system():
    # Bareiss on [A | c]: D = +-det A and D y; a singular A gives (0, [])
    assert _solve([[2, 1, 1], [1, 1, 0]]) == (1, [1, -1])
    assert _solve([[1, 2, 1], [2, 4, 0]]) == (0, [])
    assert _solve([[0, 0, 1], [0, 0, 1]]) == (0, [])


# --- valuation


def test_ord_fixtures(Q2, Q3, E2, U2):
    assert ord(Q2.zero()) == math.inf
    assert ord(Q2.element(12)) == 2
    assert ord(Q3.element(-27)) == 3
    assert ord(E2.generator()) == 1
    assert ord(E2.element(2)) == 2
    assert ord(E2.element((2, 1))) == 1
    assert ord(U2.element(2)) == 1
    assert ord(U2.element((2, 1))) == 0


@given(
    p=st.sampled_from((2, 3, 5, 7, 13)),
    v=st.integers(min_value=0, max_value=2000),
    u=st.integers(min_value=1, max_value=2**200),
    sign=st.sampled_from((1, -1)),
    cap_kind=st.sampled_from((None, "below", "equal", "above")),
    gap=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=300, deadline=None)
@example(p=3, v=978, u=2**199 + 1, sign=1, cap_kind=None, gap=1)  # the 1,552-bit Q_3 case
@example(p=5, v=978, u=2**199 + 1, sign=-1, cap_kind="below", gap=900)  # one test past 8
@example(p=5, v=978, u=2**199 + 1, sign=-1, cap_kind="below", gap=1)
def test_vp_matches_naive_loop(p, v, u, sign, cap_kind, gap):
    # u may itself be divisible by p, so the expected valuation is counted
    # by the one-factor-at-a-time loop, not assumed to be v
    n = m = sign * p**v * u
    expected = 0
    while m % p == 0:
        m //= p
        expected += 1
    if cap_kind is None:
        assert _vp(n, p) == expected
        return
    cap = {"below": max(expected - gap, 0), "equal": expected, "above": expected + gap}[cap_kind]
    assert _vp(n, p, cap) == min(expected, cap)


wide_ords = st.one_of(st.integers(min_value=0, max_value=6), st.integers(min_value=200, max_value=2000))
wide_coords = st.lists(
    st.one_of(st.just(None), st.tuples(wide_ords, st.integers(min_value=-(2**64), max_value=2**64))),
    min_size=3,
    max_size=3,
)


@given(coords=wide_coords, cap=st.one_of(st.integers(min_value=0, max_value=6500), st.just(math.inf)))
@settings(max_examples=150, deadline=None)
def test_capped_ord_vec_is_min_of_ord_and_cap(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3, coords, cap):
    # coordinate p^v u (u possibly divisible by p) or 0; the zero vector too
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
        vec = [0 if c is None else field.p ** c[0] * c[1] for c in coords[: field.degree]]
        assert field._ord_vec(vec, cap) == min(field._ord_vec(vec), cap)
        assert field._ord_vec([0] * field.degree, cap) == cap


def _reference_product(field, a, b):
    """Schoolbook convolution, then t^k = -(g_0 t^(k-n) + ... + g_(n-1) t^(k-1))
    from the top power down, g the monic defining polynomial."""
    n, g = field.degree, field.defining
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        top = conv.pop()
        for j in range(n):
            conv[k - n + j] -= top * g[j]
    return tuple(conv)


wide_ints = st.integers(min_value=-(2**2000), max_value=2**2000)


@given(a=st.tuples(wide_ints, wide_ints), b=st.tuples(wide_ints, wide_ints))
@settings(max_examples=100, deadline=None)
@example(a=(-1, -(2**1999)), b=(2**1999 + 1, -3))
def test_quadratic_product_matches_reduced_convolution(E2, U2, E3, E2_w3, a, b):
    assert E2_w3.defining[1] != 0
    for field in (E2, U2, E3, E2_w3):
        assert field._mul_vec(a, b) == _reference_product(field, a, b)


@given(a=small_ints, b=small_ints)
@settings(max_examples=200)
def test_ord_ultrametric_and_multiplicative_base(Q3, a, b):
    x, y = Q3.element(a), Q3.element(b)
    assert ord(x * y) == ord(x) + ord(y)
    assert ord(x + y) >= min(ord(x), ord(y))
    if ord(x) != ord(y):
        assert ord(x + y) == min(ord(x), ord(y))


@given(a=coord_pairs, b=coord_pairs)
@settings(max_examples=200)
def test_ord_ultrametric_and_multiplicative_eisenstein(E2, a, b):
    x, y = E2.element(a), E2.element(b)
    assert ord(x * y) == ord(x) + ord(y)
    assert ord(x + y) >= min(ord(x), ord(y))


@given(a=coord_pairs, b=coord_pairs, c=coord_pairs)
@settings(max_examples=100)
def test_ring_axioms_unramified(U2, a, b, c):
    x, y, z = U2.element(a), U2.element(b), U2.element(c)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


# --- residue systems


def test_residue_orderings(Q2, E2, U2):
    assert [str(x) for x in residues(Q2, 3)] == ["0", "1", "2", "3", "4", "5", "6", "7"]
    assert [str(x) for x in residues(E2, 2)] == ["0", "t", "1", "1 + t"]
    assert [str(x) for x in residues(U2, 1)] == ["0", "t", "1", "1 + t"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_residue_counts_and_nesting(Q2, E2, U2, k):
    for field in (Q2, E2, U2):
        level = residues(field, k)
        assert len(level) == field.p ** (field.f * k)
        assert set(level) <= set(residues(field, k + 1))
        for i, x in enumerate(level):
            for y in level[i + 1 :]:
                assert not congruent(x, y, k)


def test_residue_cap(Q2):
    with pytest.raises(KTooLargeForMemory):
        residues(Q2, 21)
    with pytest.raises(KTooLargeForMemory):
        list(iter_residues(Q2, 21))
    with pytest.raises(KTooLargeForMemory):
        residues(Q2, 20)


def test_residue_cap_compares_the_exponent_first(Q3, U2):
    # 3^(10^12) is never built: the refusal comes at once and names the size
    started = time.perf_counter()
    with pytest.raises(KTooLargeForMemory) as info:
        residues(Q3, 10**12)
    assert info.value.details["count"] == "3^1000000000000"
    with pytest.raises(KTooLargeForMemory, match=r"2\^2000000000000 "):
        list(iter_residues(U2, 10**12))
    assert time.perf_counter() - started < 1


def test_reduce_mod(Q2, E2):
    assert reduce_mod(Q2.element(17), Q2, 3) == Q2.element(1)
    assert reduce_mod(Q2.element(-1), Q2, 3) == Q2.element(7)
    assert congruent(Q2.element(17), Q2.element(1), 3)
    assert not congruent(Q2.element(17), Q2.element(1), 5)
    x = E2.element((5, 3))
    r = reduce_mod(x, E2, 3)
    assert r in residues(E2, 3)
    assert congruent(x, r, 3)


@given(a=small_ints, k=st.integers(min_value=1, max_value=6))
@settings(max_examples=150)
def test_reduce_mod_is_canonical_base(Q2, a, k):
    x = Q2.element(a)
    r = reduce_mod(x, Q2, k)
    assert congruent(x, r, k)
    assert reduce_mod(r, Q2, k) == r


@given(a=coord_pairs, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=150)
def test_reduce_mod_is_canonical_eisenstein(E2, E2_w3, a, k):
    for field in (E2, E2_w3):
        x = field.element(a)
        r = reduce_mod(x, field, k)
        assert congruent(x, r, k)
        assert r in residues(field, k)


def test_element_reduction_by_defining_poly(E2, U2):
    # t^2 = 2 in E2 and t^2 = -t - 1 in U2
    t = E2.generator()
    assert t * t == E2.element(2)
    u = U2.generator()
    assert u * u == U2.element((-1, -1))
    assert E2.element((0, 0, 1)) == E2.element(2)


def test_base_field_element_takes_one_coordinate(Q2):
    assert Q2.element((5,)) == Q2.element(5)
    with pytest.raises(ValueError, match="one coordinate"):
        Q2.element((1, 2))


def test_element_rejects_non_integer_coordinates(Q2, E2):
    # a coordinate that is not an integer raises TypeError at once
    with pytest.raises(TypeError):
        Q2.element([0.5])
    with pytest.raises(TypeError):
        E2.element(("1", 0))
