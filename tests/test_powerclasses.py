"""Power classes: threshold, membership test, canonical enumeration."""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import SUITE_SEED, scaled_units
from hypothesis import given, settings
from hypothesis import strategies as st

from padicpowers import localfield, powerclasses
from padicpowers import (
    ZeroArgument,
    class_of,
    enumerate_classes,
    is_pth_power,
    iter_residues,
    oracle_is_pth_power,
    same_class,
    threshold_k0,
)

nonzero_ints = st.integers(min_value=-4000, max_value=4000).filter(bool)


def test_threshold_fixtures(Q2, Q3, Q5, E2, U2):
    assert threshold_k0(Q2) == 3
    assert threshold_k0(Q3) == 2
    assert threshold_k0(Q5) == 2
    assert threshold_k0(E2) == 5
    assert threshold_k0(U2) == 3


def test_is_pth_power_base_fixtures(Q2, Q3):
    assert is_pth_power(Q2.element(17), Q2)
    assert not is_pth_power(Q2.element(5), Q2)
    assert not is_pth_power(Q2.element(2), Q2)
    assert is_pth_power(Q2.element(4), Q2)
    assert not is_pth_power(Q2.element(8), Q2)
    assert not is_pth_power(Q2.element(-1), Q2)
    assert is_pth_power(Q2.zero(), Q2)
    assert is_pth_power(Q3.element(8), Q3)
    assert is_pth_power(Q3.element(-1), Q3)
    assert not is_pth_power(Q3.element(2), Q3)
    assert not is_pth_power(Q3.element(3), Q3)


def test_is_pth_power_extension_fixtures(E2, U2):
    assert is_pth_power(E2.element(2), E2)  # 2 = t^2
    assert not is_pth_power(E2.generator(), E2)
    assert is_pth_power(U2.element((-1, -1)), U2)  # t^2
    assert not is_pth_power(U2.element(2), U2)


@given(a=nonzero_ints)
@settings(max_examples=150)
def test_squares_of_integers_are_powers(Q2, a):
    assert is_pth_power(Q2.element(a * a), Q2)


@given(a=nonzero_ints)
@settings(max_examples=150)
def test_cubes_of_integers_are_powers(Q3, a):
    assert is_pth_power(Q3.element(a**3), Q3)


@given(a=nonzero_ints, b=nonzero_ints)
@settings(max_examples=150)
def test_same_class_is_power_quotient(Q3, a, b):
    x, y = Q3.element(a), Q3.element(b)
    assert same_class(x, x, Q3)
    assert same_class(x, y, Q3) == same_class(y, x, Q3)
    assert same_class(x, y, Q3) == is_pth_power(x * y ** (Q3.p - 1), Q3)


@given(a=nonzero_ints)
@settings(max_examples=100)
def test_power_iff_trivial_class(Q2, a):
    x = Q2.element(a)
    assert is_pth_power(x, Q2) == same_class(x, Q2.one(), Q2)


def test_enumerate_classes_counts(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    assert len(enumerate_classes(Q2)) == 8
    assert len(enumerate_classes(E2)) == 16
    assert len(enumerate_classes(Q3)) == 9
    assert len(enumerate_classes(Q5)) == 25
    assert len(enumerate_classes(U2)) == 16
    assert len(enumerate_classes(E2_cube)) == 32
    assert len(enumerate_classes(E3)) == 81
    assert len(enumerate_classes(E2_w3)) == 16


def test_class_order_is_first_match(Q2, Q3, Q5, E2, U2, E2_cube, E3):
    # Counterexample classes in reports follow this order, so it is rebuilt
    # here with the oracle: the first threshold unit of each class in residue
    # order represents it, 1 represents the trivial class, and j is major.
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3):
        p, k0 = field.p, threshold_k0(field)
        reps = [field.one()]
        for c in iter_residues(field, k0):
            if c.is_unit() and not any(
                oracle_is_pth_power(c * r ** (p - 1), field, k0) for r in reps
            ):
                reps.append(c)
        pi = field.uniformizer()
        expected = [str(pi**j * u) for j in range(p) for u in reps]
        assert [cls.label() for cls in enumerate_classes(field)] == expected


def test_class_table_caches_no_residue_system(Q3, E2, U2, E3):
    # the table reads the residues modulo pi^k0 once, as they are made, and
    # leaves no copy of the residue system in localfield's cache
    cached = localfield._residues_cached
    for field in (Q3, E2, U2, E3):
        cached.cache_clear()
        powerclasses._unit_class_reps.__wrapped__(field)
        assert cached.cache_info().currsize == 0, field


def test_enumerate_classes_q3_labels(Q3):
    labels = [cls.label() for cls in enumerate_classes(Q3)]
    assert labels == ["1", "2", "4", "3", "6", "12", "9", "18", "36"]


def test_enumerate_classes_q2_labels(Q2):
    labels = [cls.label() for cls in enumerate_classes(Q2)]
    assert labels == ["1", "3", "5", "7", "2", "6", "10", "14"]


def test_classes_are_pairwise_inequivalent(Q3):
    classes = enumerate_classes(Q3)
    for a, b in itertools.combinations(classes, 2):
        assert not same_class(a.rep, b.rep, Q3)


def test_class_of_roundtrip(Q2, E2, U2, E2_cube, E3, E2_w3):
    for field in (Q2, E2, U2, E2_cube, E3, E2_w3):
        k0 = threshold_k0(field)
        for x in list(iter_residues(field, k0)) + scaled_units(field):
            if not x:
                continue
            rep = class_of(x, field).rep
            assert oracle_is_pth_power(x * rep ** (field.p - 1), field, k0)
    with pytest.raises(ZeroArgument):
        class_of(Q2.zero(), Q2)


def test_class_of_respects_uniformizer_shift(Q3):
    # 3 * x stays in a class determined by (j + 1, same unit)
    x = Q3.element(5)
    shifted = class_of(Q3.element(15), Q3)
    assert shifted.j == (class_of(x, Q3).j + 1) % Q3.p
    assert shifted.unit_index == class_of(x, Q3).unit_index


def test_is_pth_power_at_high_valuations(E2_cube, E2_w3):
    # the unit part x / pi^v of an Eisenstein element takes v divisions by
    # the generator, each with w^-1 and the middle coefficients of the
    # defining polynomial
    rng = random.Random(SUITE_SEED)
    for field in (E2_cube, E2_w3):
        k0, pi = threshold_k0(field), field.uniformizer()
        for v in list(range(0, 41, 3)) + list(range(190, 201, 2)):
            for _ in range(2):
                u = field.element([rng.randint(-(2**64), 2**64) for _ in range(field.degree)])
                if not u.is_unit():
                    u = u + 1
                for x in (pi**v * u, pi**v * u**field.p):
                    assert is_pth_power(x, field) == oracle_is_pth_power(x, field, k0)


def test_new_valuations_enumerate_no_residues(E2_cube, monkeypatch):
    # one table per field: classifying at a valuation not seen before reads
    # the unit part and builds nothing; valuations past any small cache
    enumerate_classes(E2_cube)
    calls = []

    def counted(*args):
        calls.append(args)
        return iter_residues(*args)

    monkeypatch.setattr(powerclasses, "iter_residues", counted)
    pi, u = E2_cube.uniformizer(), E2_cube.element((3, 5, 7))
    for v in range(300, 320):
        x = pi**v * u
        is_pth_power(x, E2_cube)
        class_of(x, E2_cube)
    assert calls == []
