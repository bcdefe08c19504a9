"""Acceptance suite: twelve pinned criteria, one test per criterion.

Each test prints a `CRITERION nn: PASS` line (visible under -s or -rA) and
enforces the pinned runtime limit where one applies.  Criteria 7, 8 and 11
share one deterministic 200-polynomial random suite; criterion 11 consumes
the decision reports produced by criteria 4 and 7.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction

from conftest import rootless_power_free_suite
from padicpowers import (
    IntPoly,
    approximate_on_integers,
    class_of,
    class_spectrum,
    decide_CK,
    decide_CZ,
    enumerate_classes,
    is_perfect_pth_power_poly,
    krasner_upper_bound,
    make_ck_not_power,
    make_cz_not_ck,
    oracle_decide,
    reciprocal,
    resultant,
    same_class,
    squarefree_decompose,
    stability_radius,
    threshold_k0,
)

import random


def P(field, *coeffs):
    return IntPoly(field, coeffs)


def _done(num: int, ok: bool, elapsed: float, limit: float | None) -> None:
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s"
    line += f" < {limit:.0f}s)" if limit is not None else ")"
    print(line)
    assert ok
    if limit is not None:
        assert elapsed < limit


# shared state: the random suite and the decide_CZ inputs and reports seen
# so far
_SUITE: list | None = None
_CZ_RUNS: list[tuple[object, object, object]] = []


def _suite(Q2, Q3):
    global _SUITE
    if _SUITE is None:
        _SUITE = rootless_power_free_suite([Q2, Q3], 200)
    return _SUITE


def test_criterion_01_motivating_quartic(Q2):
    t0 = time.perf_counter()
    F = P(Q2, 9, 0, 4, 0, 4)
    report = decide_CK(F, Q2)
    root = is_perfect_pth_power_poly(F, 2)
    elapsed = time.perf_counter() - t0
    _done(1, report.verdict is True and root is None, elapsed, 1.0)


def test_criterion_02_class_fan_for_p3(Q3):
    t0 = time.perf_counter()
    fan = enumerate_classes(Q3)
    reps = [Q3.element(r) for r in (1, 2, 3, 4, 6, 9, 12, 18, 36)]
    distinct = all(
        not same_class(a, b, Q3) for i, a in enumerate(reps) for b in reps[:i]
    )
    covered = {class_of(r, Q3) for r in reps} == set(fan)
    elapsed = time.perf_counter() - t0
    _done(2, len(fan) == 9 and distinct and covered, elapsed, 1.0)


def test_criterion_03_artin_counts(Q2, Q3, Q5, E2):
    t0 = time.perf_counter()
    ok = True
    for field, expected in ((Q2, 8), (E2, 16), (Q3, 9), (Q5, 25)):
        p, d = field.p, field.e * field.f
        formula = p ** (d + 2) if p == 2 else p ** (d + 1)
        ok = ok and len(enumerate_classes(field)) == expected == formula
    elapsed = time.perf_counter() - t0
    _done(3, ok, elapsed, 10.0)


def test_criterion_04_cz_without_ck(Q2, Q3, E2):
    t0 = time.perf_counter()
    ok = True
    for field in (Q2, Q3, E2):
        F = make_cz_not_ck(field)
        cz = decide_CZ(F, field)
        _CZ_RUNS.append((field, F, cz))
        ok = ok and cz.verdict is True and decide_CK(F, field).verdict is False
    elapsed = time.perf_counter() - t0
    _done(4, ok, elapsed, 10.0)


def test_criterion_05_nonic_spectrum(Q3):
    t0 = time.perf_counter()
    classes, attains_zero = class_spectrum(
        P(Q3, 40, 0, 0, 54, 0, 0, 54, 0, 0, 27), Q3
    )
    expected = {class_of(Q3.element(1), Q3), class_of(Q3.element(4), Q3)}
    elapsed = time.perf_counter() - t0
    _done(5, classes == expected and not attains_zero, elapsed, 30.0)


def test_criterion_06_member_family(Q2, Q3, E2):
    t0 = time.perf_counter()
    ok = True
    for field, ms in ((Q2, (3, 4, 5, 6)), (Q3, (2, 3, 4, 5)), (E2, (5, 6, 7, 8))):
        for m in ms:
            F = make_ck_not_power(field, m)
            member = decide_CK(F, field).verdict is True
            square_free = bool(resultant(F, F.derivative()))
            not_power = is_perfect_pth_power_poly(F, field.p) is None
            ok = ok and member and square_free and not_power
    elapsed = time.perf_counter() - t0
    _done(6, ok, elapsed, 120.0)


def test_criterion_07_oracle_differential(Q2, Q3):
    t0 = time.perf_counter()
    agreements = 0
    for field, F in _suite(Q2, Q3):
        report = decide_CZ(F, field)
        _CZ_RUNS.append((field, F, report))
        depth = report.final_m + report.M + 2
        if oracle_decide(F, field, depth) == report.verdict:
            agreements += 1
    elapsed = time.perf_counter() - t0
    _done(7, agreements == 200, elapsed, 600.0)


def test_criterion_08_reciprocal_symmetry(Q2, Q3):
    t0 = time.perf_counter()
    discrepancies = 0
    for field, F in _suite(Q2, Q3):
        if not F.constant:
            continue
        if decide_CK(F, field).verdict != decide_CK(reciprocal(F), field).verdict:
            discrepancies += 1
    elapsed = time.perf_counter() - t0
    _done(8, discrepancies == 0, elapsed, None)


def test_criterion_09_perturbation_stability(Q2, Q3, E2):
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    failures = 0
    for field, m in ((Q2, 3), (Q3, 2), (E2, 5)):
        F = make_ck_not_power(field, m)
        M = stability_radius(F, field)
        shift = field.uniformizer() ** (M + 1)
        for _ in range(20):
            delta = [
                field.element(rng.randint(-3, 3)) * shift
                for _ in range(F.degree + 1)
            ]
            G = F + IntPoly(field, delta)
            if decide_CK(G, field).verdict is not True:
                failures += 1
    elapsed = time.perf_counter() - t0
    _done(9, failures == 0, elapsed, None)


def test_criterion_10_integer_approximation(Q2, Q3):
    t0 = time.perf_counter()
    ok = True
    for field, F, n in (
        (Q2, P(Q2, 9, 0, 4, 0, 4), 3),
        (Q3, P(Q3, 1, 27), 3),
        (Q2, P(Q2, 1, 8), 2),
    ):
        G = approximate_on_integers(F, field, n)
        p = field.p
        for a in range(p ** (n + threshold_k0(field))):
            diff = F(a).coords[0] - G(a).coords[0] ** p
            ok = ok and diff % p**n == 0
    elapsed = time.perf_counter() - t0
    _done(10, ok, elapsed, 60.0)


def _max_ord_bound(F):
    """A bound on ord F over the valuation ring of a power-free F whose
    factors have no root there, from the public decomposition and Krasner
    bound alone: ord lc(F), plus per square-free factor G its multiplicity
    times ord G(0) - ord lc(G) when G is linear (its root lies outside the
    ring, so ord G is that of G(0) on the ring) and deg G * max(Krasner
    bound of G, 0) otherwise.  witness_bounds would refuse the suite's
    polynomials with a root outside the ring."""
    bound = Fraction(F.lc.ord())
    for G, mult in squarefree_decompose(F).factors:
        if G.degree == 1:
            bound += mult * (G.constant.ord() - G.lc.ord())
        else:
            bound += mult * G.degree * max(krasner_upper_bound(G, G.field), Fraction(0))
    return bound


def test_criterion_11_bound_consistency(Q2, Q3, E2):
    t0 = time.perf_counter()
    if len(_CZ_RUNS) < 203:
        # selective run: rebuild the decisions criteria 4 and 7 would have made
        for field in (Q2, Q3, E2):
            F = make_cz_not_ck(field)
            _CZ_RUNS.append((field, F, decide_CZ(F, field)))
        for field, F in _suite(Q2, Q3):
            _CZ_RUNS.append((field, F, decide_CZ(F, field)))
    violations = 0
    for field, F, report in _CZ_RUNS:
        bound = _max_ord_bound(F)
        if report.final_m > bound:
            violations += 1
            continue
        # the residue system modulo pi^(m + M) for the deepest m <= bound
        if report.witness_count > field.p ** (field.f * (math.floor(bound) + report.M)):
            violations += 1
    elapsed = time.perf_counter() - t0
    _done(11, violations == 0 and len(_CZ_RUNS) >= 203, elapsed, None)


_TIMING = re.compile(r'"timing_ms": \d+')


def _cli(args: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "padicpowers.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, _TIMING.sub('"timing_ms": 0', proc.stdout)


def test_criterion_12_cli_determinism():
    t0 = time.perf_counter()
    commands = [
        ["decide", "--p", "2", "--poly", "4x^4+4x^2+9", "--json"],
        ["decide", "--p", "2", "--coeffs", "9,0,4,0,4", "--ring", "integers", "--json"],
        ["spectrum", "--p", "3", "--poly", "27x^9+54x^6+54x^3+40", "--json"],
        ["classes", "--p", "3", "--json"],
        ["bounds", "--p", "2", "--coeffs", "9,0,4,0,4", "--json"],
        ["construct", "ck-not-power", "--p", "3", "--m", "2", "--json"],
        ["approximate", "--p", "2", "--coeffs", "9,0,4,0,4", "--n", "3", "--json"],
        ["check-power", "--p", "2", "--value", "17", "--json"],
    ]
    ok = True
    for args in commands:
        code_a, out_a = _cli(args)
        code_b, out_b = _cli(args)
        ok = ok and code_a == code_b == 0 and out_a == out_b and json.loads(out_a)
    elapsed = time.perf_counter() - t0
    _done(12, bool(ok), elapsed, None)
