"""Canonical families, stability radius and integer approximation."""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter

import pytest

from padicpowers import constructions
from padicpowers import (
    BASE,
    DegreeTooSmall,
    IntPoly,
    KTooLargeForMemory,
    LiftObstruction,
    LiftSearchBudgetExceeded,
    MTooSmall,
    PreconditionNotMember,
    PreconditionRootInField,
    UnsupportedField,
    approximate_on_integers,
    class_spectrum,
    decide_CK,
    decide_CZ,
    is_perfect_pth_power_poly,
    make_ck_not_power,
    make_cz_not_ck,
    make_field,
    reciprocal,
    resultant,
    stability_radius,
    threshold_k0,
)


def P(field, *coeffs):
    return IntPoly(field, coeffs)


def test_make_cz_not_ck_shapes(Q2, Q3, E2):
    assert make_cz_not_ck(Q2) == P(Q2, 1, 8)
    assert make_cz_not_ck(Q3) == P(Q3, 1, 81)
    t = E2.generator()
    assert make_cz_not_ck(E2) == IntPoly(E2, (E2.one(), t**5))


def test_make_cz_not_ck_separates(Q2, Q3, E2):
    for field in (Q2, Q3, E2):
        F = make_cz_not_ck(field)
        assert decide_CZ(F, field).verdict
        assert not decide_CK(F, field).verdict


def test_make_ck_not_power_shapes(Q2, Q3):
    assert make_ck_not_power(Q2, 3) == P(Q2, 9, 0, 4, 0, 4)
    assert make_ck_not_power(Q3, 2) == P(Q3, 10, 0, 0, 9, 0, 0, 27, 0, 0, 27)
    with pytest.raises(MTooSmall):
        make_ck_not_power(Q2, 2)
    with pytest.raises(MTooSmall):
        make_ck_not_power(Q3, 1)


def test_make_ck_not_power_closed_form(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    # C(p, k) pi^k at x^(pk) and pi^m added at x^0, against (1 + pi x^p)^p
    # + pi^m expanded by IntPoly products: every fixture field at the
    # smallest valid m and the next three, and Q_7, Q_11, Q_23 at m = 2
    cases = [(make_field(p, BASE), 2) for p in (7, 11, 23)]
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
        p, e = field.p, field.e
        low = e * p // (p - 1) + 1
        with pytest.raises(MTooSmall):
            make_ck_not_power(field, low - 1)
        cases += [(field, m) for m in range(low, low + 4)]
    for field, m in cases:
        p, pi = field.p, field.uniformizer()
        inner = IntPoly(field, [1] + [0] * (p - 1) + [pi])
        expanded = IntPoly(field, (1,))
        for _ in range(p):
            expanded = expanded * inner
        assert make_ck_not_power(field, m) == expanded + IntPoly(field, (pi**m,)), (field, m)


def test_make_ck_not_power_is_member_not_power(Q2, Q3, Q5):
    # Q5, m = 2 needs the default budget only since the reduction stopped
    # rescaling F by c^p with ord_5 c = 1
    for field, m in ((Q2, 3), (Q2, 4), (Q3, 2), (Q5, 2)):
        F = make_ck_not_power(field, m)
        assert decide_CK(F, field).verdict
        assert resultant(F, F.derivative())
        assert is_perfect_pth_power_poly(F, field.p) is None


def test_stability_radius_fixture(Q2):
    F = P(Q2, 9, 0, 4, 0, 4)
    M = stability_radius(F, Q2)
    assert M == 60
    G = F + P(Q2, 0, 2 ** (M + 1))
    assert decide_CK(G, Q2).verdict


def test_wide_perturbation_above_the_radius(Q5):
    # 7 * 5^37008 on every coefficient, just past the radius: coefficients
    # of 86k bits whose zero ones become of ord 37,008, which the root
    # search and the Krasner content test only compare
    F = make_ck_not_power(Q5, 2)
    assert stability_radius(F, Q5) == 37007
    G = F + IntPoly(Q5, [7 * 5**37008] * (F.degree + 1))
    member, report = decide_CK(F, Q5), decide_CK(G, Q5)
    assert report.verdict
    assert (report.final_m, report.m_history, report.bounds) == (
        member.final_m,
        member.m_history,
        member.bounds,
    )
    assert class_spectrum(G, Q5) == class_spectrum(F, Q5)


def test_stability_radius_random_perturbations(Q2):
    F = P(Q2, 9, 0, 4, 0, 4)
    M = stability_radius(F, Q2)
    rng = random.Random(7)
    for _ in range(8):
        shift = 2 ** (M + 1)
        delta = [shift * rng.randint(-3, 3) for _ in range(F.degree + 1)]
        G = F + IntPoly(Q2, delta)
        assert decide_CK(G, Q2).verdict


def test_stability_radius_analyses_once(Q2, Q3, E2, analysis_calls):
    # one decomposition, and one Res(G, G') per factor of the power-free
    # part for the scan bounds of the membership decision, which a single
    # factor shares with the Krasner bounds of the radical and its
    # reciprocal; several factors need the resultant of the radical too.
    # A square-free F computes none: Yun's first gcd(F, F') gives its ord.
    # The root test takes no resultant, and each factor and its reciprocal
    # are searched for ring roots once.
    # The criterion-9 members, their reciprocals (where the reciprocal's
    # Krasner bound is the larger one) and a two-factor member, with the
    # radii that a separate analysis for each use gives
    cases = [(Q2, P(Q2, 9, 0, 4, 0, 4) * P(Q2, 1, 1, 1) ** 2, 228, 2, 4)]
    for field, m, radius in ((Q2, 3, 60), (Q3, 2, 977), (E2, 5, 86)):
        F = make_ck_not_power(field, m)
        cases += [(field, F, radius, 0, 2), (field, reciprocal(F), radius, 0, 2)]
    for field, G, radius, resultants, searches in cases:
        analysis_calls.clear()
        assert stability_radius(G, field) == radius
        expected = {"squarefree_decompose": 1, "resultant": resultants, "_ring_roots": searches}
        assert analysis_calls == Counter(expected), str(G)


def test_stability_radius_preconditions(Q2):
    with pytest.raises(DegreeTooSmall):
        stability_radius(P(Q2, 1, 8), Q2)
    with pytest.raises(PreconditionRootInField):
        stability_radius(P(Q2, -17, 0, 1), Q2)
    with pytest.raises(PreconditionNotMember):
        stability_radius(P(Q2, 5, 0, 1), Q2)


def test_approximate_fixtures(Q2, Q3):
    cases = [
        (Q2, P(Q2, 9, 0, 4, 0, 4), 3),
        (Q3, P(Q3, 1, 27), 3),
        (Q2, P(Q2, 1, 8), 2),
    ]
    for field, F, n in cases:
        G = approximate_on_integers(F, field, n)
        p = field.p
        modulus = p ** (n + threshold_k0(field))
        for a in range(modulus):
            diff = F(a).coords[0] - G(a).coords[0] ** p
            assert diff % p**n == 0, (str(F), a)


def test_approximate_square_free_member(Q2):
    # values of (1+2x^2)^2 + 32 x^4 are squares near squares
    F = P(Q2, 1, 0, 4, 0, 36)
    if decide_CZ(F, Q2).verdict:
        G = approximate_on_integers(F, Q2, 2)
        for a in range(16):
            assert (F(a).coords[0] - G(a).coords[0] ** 2) % 4 == 0


def test_approximate_search_backtracks(Q2):
    # F = (x^2 + 5x + 3)^2 + 32 is a C_K member over Q_2; at n = 4 the
    # search backtracks ten times before it finds G, which its order of
    # candidates fixes
    F = P(Q2, 41, 30, 31, 10, 1)
    assert decide_CK(F, Q2).verdict
    G = approximate_on_integers(F, Q2, 4)
    assert G == P(Q2, 5, -5, -1, 2)
    for a in range(16):
        assert (F(a).coords[0] - G(a).coords[0] ** 2) % 2**4 == 0


def test_approximate_preconditions(Q2, E2):
    with pytest.raises(PreconditionNotMember):
        approximate_on_integers(P(Q2, 1, 2), Q2, 2)
    with pytest.raises(PreconditionNotMember):
        approximate_on_integers(P(Q2, 0, 1), Q2, 2)
    with pytest.raises(UnsupportedField):
        approximate_on_integers(IntPoly(E2, (1,)), E2, 2)
    with pytest.raises(ValueError):
        approximate_on_integers(P(Q2, 1), Q2, 0)
    with pytest.raises(KTooLargeForMemory):
        approximate_on_integers(P(Q2, 1), Q2, 20)


def test_approximate_cap_refusal_is_quick(Q3):
    # the size is named as p^n, so a refusal prints no huge number, and the
    # exponent is compared first, so it builds none
    F = P(Q3, 1, 27)
    with pytest.raises(KTooLargeForMemory, match=r"3\^10000 "):
        approximate_on_integers(F, Q3, 10**4)
    started = time.perf_counter()
    with pytest.raises(KTooLargeForMemory):
        approximate_on_integers(F, Q3, 10**12)
    assert time.perf_counter() - started < 1


def _approximation_grid():
    # the paper's families and the fixtures, at every n with p^n <= 4096
    for p in (2, 3, 5, 7):
        field = make_field(p, BASE)
        m = 1
        while m * (p - 1) <= p:
            m += 1
        polys = [make_ck_not_power(field, mm) for mm in (m, m + 1, m + 2)]
        polys.append(make_cz_not_ck(field))
        if p == 2:
            polys += [
                P(field, 9, 0, 4, 0, 4),
                P(field, 1, 0, 4, 0, 36),
                P(field, 1, 8),
                P(field, 41, 30, 31, 10, 1),
            ]
        if p == 3:
            polys.append(P(field, 1, 27))
        for F in polys:
            n = 1
            while p**n <= 4096:
                yield F, field, n
                n += 1


def test_approximate_grid_keeps_its_sections():
    # the search over the first k Mahler points returns the G that the
    # exhaustive search over all p^n residue points returned
    out = [str(approximate_on_integers(F, field, n)) for F, field, n in _approximation_grid()]
    assert len(out) == 167
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == "fe1db6fdf8b3868576544375113b8ef852bd99e4ee554d439aa173046b749db7"


def test_approximate_past_4096_points_pointwise(Q2):
    # checked at every residue modulo 2^n, independently of the deg + 1 check
    F = P(Q2, 9, 0, 4, 0, 4)
    for n in (13, 16):
        G = approximate_on_integers(F, Q2, n)
        fs = [c.coords[0] for c in F.coeffs]
        gs = [c.coords[0] for c in G.coeffs]
        modulus = 2**n
        for a in range(modulus):
            fa = ga = 0
            for c in reversed(fs):
                fa = (fa * a + c) % modulus
            for c in reversed(gs):
                ga = (ga * a + c) % modulus
            assert (fa - ga * ga) % modulus == 0, (n, a)


def test_approximate_node_cap_is_a_resource_limit(Q2, monkeypatch):
    # a search past its node cap is a resource limit with its own reason,
    # still caught by callers of LiftObstruction
    monkeypatch.setattr(constructions, "_NODE_CAP", 0)
    with pytest.raises(LiftSearchBudgetExceeded) as info:
        approximate_on_integers(P(Q2, 9, 0, 4, 0, 4), Q2, 3)
    assert isinstance(info.value, LiftObstruction)
    assert info.value.reason == "lift-search-budget-exceeded"


def test_member_with_root_is_not_stable(Q2):
    # x^2 is a member, yet a perturbation of ord <= ep/(p-1) breaks it;
    # no analogue of the radius guarantee exists once a root is present
    F = P(Q2, 0, 0, 1)
    assert decide_CK(F, Q2).verdict
    assert not decide_CK(F + P(Q2, 2), Q2).verdict
