"""Reference deciders: fixtures, depth stability, agreement with the fast path."""

from __future__ import annotations

import time

import pytest
from conftest import scaled_units

from padicpowers import (
    IntPoly,
    KTooLargeForMemory,
    is_pth_power,
    iter_residues,
    oracle_decide,
    oracle_is_pth_power,
    threshold_k0,
)


def P(field, *coeffs):
    return IntPoly(field, coeffs)


def test_power_fixtures(Q2, E2):
    assert oracle_is_pth_power(Q2.element(17), Q2, 5)
    assert not oracle_is_pth_power(Q2.element(5), Q2, 5)
    assert oracle_is_pth_power(Q2.element(1), Q2, threshold_k0(Q2))
    assert oracle_is_pth_power(E2.element(1), E2, threshold_k0(E2))
    assert oracle_is_pth_power(Q2.zero(), Q2, 3)


def test_power_table_cap_is_quick(Q3):
    # the table size is named as p^depth, and the exponent is compared first
    with pytest.raises(KTooLargeForMemory, match=r"3\^10000 "):
        oracle_is_pth_power(Q3.element(2), Q3, 10**4)
    started = time.perf_counter()
    with pytest.raises(KTooLargeForMemory):
        oracle_is_pth_power(Q3.element(2), Q3, 10**12)
    assert time.perf_counter() - started < 1


def test_depth_guard(Q2):
    with pytest.raises(ValueError):
        oracle_is_pth_power(Q2.element(1), Q2, 2)
    with pytest.raises(ValueError):
        oracle_decide(P(Q2, 1, 8), Q2, 2)


def test_decide_fixtures(Q2):
    assert oracle_decide(P(Q2, 1, 8), Q2, 5)
    assert not oracle_decide(P(Q2, 2), Q2, 3)
    assert oracle_decide(P(Q2, 36, 0, 16, 0, 16), Q2, 6)


def test_power_depth_stability(Q2, Q3, E2):
    for field in (Q2, Q3, E2):
        k0 = threshold_k0(field)
        for x in iter_residues(field, k0):
            verdicts = {oracle_is_pth_power(x, field, d) for d in (k0, k0 + 1, k0 + 2)}
            assert len(verdicts) == 1


def test_power_depth_stability_on_scaled_units(U2, E2, E3):
    # oracle_decide tests every value at k0 alone, which is exact because
    # 1 + m^k0 lies in the p-th powers: one level deeper agrees
    for field in (U2, E2, E3):
        k0 = threshold_k0(field)
        for x in scaled_units(field):
            assert oracle_is_pth_power(x, field, k0) == oracle_is_pth_power(x, field, k0 + 1)


def test_decide_depth_stability(Q2):
    F = P(Q2, 36, 0, 16, 0, 16)
    assert len({oracle_decide(F, Q2, d) for d in (6, 7, 8)}) == 1


def test_agreement_with_fast_power_test(Q2, Q3, E2, U2, E2_cube, E3):
    for field in (Q2, Q3, E2, U2, E2_cube, E3):
        k0 = threshold_k0(field)
        for depth in (k0, k0 + 1):
            for x in iter_residues(field, depth):
                assert oracle_is_pth_power(x, field, depth) == is_pth_power(x, field)
        for x in scaled_units(field):
            assert oracle_is_pth_power(x, field, k0) == is_pth_power(x, field)
