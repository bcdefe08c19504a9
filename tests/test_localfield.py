"""Field construction, exact arithmetic and residue systems."""

from __future__ import annotations

import math

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
    UnsupportedField,
    congruent,
    iter_residues,
    make_field,
    ord,
    reduce_mod,
    residues,
)
from padicpowers.localfield import _vp

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
)
@settings(max_examples=300, deadline=None)
@example(p=3, v=978, u=2**199 + 1, sign=1)  # the valuation of the 1,552-bit Q_3 case
def test_vp_matches_naive_loop(p, v, u, sign):
    # u may itself be divisible by p, so the expected valuation is counted
    # by the one-factor-at-a-time loop, not assumed to be v
    n = m = sign * p**v * u
    expected = 0
    while m % p == 0:
        m //= p
        expected += 1
    assert _vp(n, p) == expected


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
