"""Decision procedures, bounds and the class spectrum."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import rootless_power_free_suite
from padicpowers import decide as decide_module
from padicpowers import roots as roots_module
from padicpowers import (
    BASE,
    DegreeTooSmall,
    IntPoly,
    NotSquareFree,
    PreconditionRootInField,
    ScanBudgetExceeded,
    ZeroPolynomial,
    approximate_on_integers,
    class_of,
    class_spectrum,
    decide_CK,
    decide_CZ,
    enumerate_classes,
    has_root_in_field,
    is_pth_power,
    iter_residues,
    krasner_upper_bound,
    make_ck_not_power,
    make_cz_not_ck,
    make_field,
    necessary_conditions,
    oracle_decide,
    oracle_is_pth_power,
    oracle_max_ord,
    reciprocal,
    reduce_power_free,
    root_multiplicity_report,
    roots_in_valuation_ring,
    squarefree_decompose,
    threshold_k0,
    witness_bounds,
)


def P(field, *coeffs):
    return IntPoly(field, coeffs)


def rescan_CZ(F, field):
    """Reference for decide_CZ's scan: on every increase of the running
    maximum m, sweep the whole residue system modulo pi^(m + M) again.
    Returns (verdict, final_m, witness_count) as decide_CZ reports them."""
    M = threshold_k0(field)
    m = 0
    while True:
        for a in iter_residues(field, m + M):
            value = F(a)
            if not is_pth_power(value, field):
                return False, m, field.p ** (field.f * (m + M))
            if value.ord() > m:
                m = value.ord()
                break
        else:
            return True, m, field.p ** (field.f * (m + M))


def assert_cz_matches_rescan(F, field):
    report = decide_CZ(F, field)
    reported = (report.verdict, report.final_m, report.witness_count)
    assert reported == rescan_CZ(F, field), str(F)


# --- decide_CZ fixtures


def test_cz_one_plus_8x(Q2):
    report = decide_CZ(P(Q2, 1, 8), Q2)
    assert report.verdict
    assert report.class_tested == "C_ZK"
    assert (report.M, report.final_m, report.witness_count) == (3, 0, 8)
    assert report.m_history == (0,)
    assert report.counterexample is None
    # a report carries no bounds: witness_bounds computes them on request,
    # and refuses 1 + 8x, whose root -1/8 lies in the field
    with pytest.raises(PreconditionRootInField):
        witness_bounds(P(Q2, 1, 8), Q2)


def test_cz_constant_counterexample(Q3):
    # the scan of a constant is one pinned node, O_K itself, and like every
    # failing scan it returns at that node before it records the node's ord
    F = P(Q3, 3)
    report = decide_CZ(F, Q3)
    assert not report.verdict
    assert_counterexample_holds(report, F, Q3)
    assert report.counterexample[1].label() == "3"
    assert (report.final_m, report.witness_count) == (0, 9)


def test_cz_quartic(Q2):
    report = decide_CZ(P(Q2, 36, 0, 16, 0, 16), Q2)
    assert report.verdict
    assert (report.final_m, report.witness_count) == (2, 32)
    assert report.m_history == (0, 2)


def test_cz_budget(Q2):
    # the budget counts the scan nodes visited: the quartic's root node
    # splits in two, so three nodes decide it and two do not
    F = P(Q2, 9, 0, 4, 0, 4)
    with pytest.raises(ScanBudgetExceeded, match="scan visited 3 nodes, past the budget 2"):
        decide_CZ(F, Q2, budget=2)
    assert decide_CZ(F, Q2, budget=3).verdict


@pytest.mark.parametrize("entry", [decide_CZ, decide_CK, class_spectrum])
def test_budget_below_one_is_refused_before_analysis(Q2, entry, analysis_calls):
    # a budget admits no scan unless it is positive: a usage error, not a
    # resource limit, and raised before F is analysed, even for the zero
    # polynomial, which needs no scan
    for F in (P(Q2, 9, 0, 4, 0, 4), IntPoly(Q2, ())):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget"):
                entry(F, Q2, budget=budget)
    assert not analysis_calls
    entry(P(Q2, 9, 0, 4, 0, 4), Q2, budget=1_000)


def test_cz_preconditions(Q2):
    # decide_CZ has none: x^2 is a member, and x^2 - x, with its ring roots
    # 0 and 1, takes 2 at 2, in the class of 2
    assert decide_CZ(P(Q2, 0, 0, 1), Q2).verdict
    report = decide_CZ(P(Q2, 0, -1, 1), Q2)
    assert not report.verdict
    point, cls = report.counterexample
    assert (point, cls.label()) == (Q2.element(2), "2")
    # 0 = 0^p: both deciders report the zero polynomial as a member
    zero = IntPoly(Q2, ())
    assert decide_CZ(zero, Q2) == decide_CK(zero, Q2)._replace(class_tested="C_ZK")
    assert decide_CZ(zero, Q2).verdict
    with pytest.raises(ZeroPolynomial):
        class_spectrum(zero, Q2)


def test_cz_strategies_agree(Q2, Q3):
    # the queue scan of decide_CZ against the literal full rescan
    for field, coeffs in ((Q2, (1, 8)), (Q2, (36, 0, 16, 0, 16)), (Q3, (1, 0, 0, 27))):
        assert_cz_matches_rescan(IntPoly(field, coeffs), field)


# --- decide_CK fixtures


def test_ck_motivating_quartic(Q2):
    F = P(Q2, 9, 0, 4, 0, 4)
    report = decide_CK(F, Q2)
    assert report.verdict
    assert report.class_tested == "C_K"
    # F attains ord at most 0 on the ring and its reciprocal ord at most 2,
    # so the two scans reach 2^(0+3) and 2^(2+3) points
    depth = report.final_m + report.M + 1
    largest = max(oracle_max_ord(G, Q2, depth) for G in (F, reciprocal(F)))
    assert report.final_m == largest
    assert (report.final_m, report.witness_count) == (2, 40)
    assert report.m_history == (0, 2)


def test_ck_analyses_once(Q2, Q5, analysis_calls):
    # one decomposition, and one ring-root search for the factor and one for
    # its reciprocal.  A member, scanned on both sides, and a polynomial
    # with a root in the field: no decision computes a resultant
    for field, F in ((Q2, P(Q2, 9, 0, 4, 0, 4)), (Q5, P(Q5, 2, 5))):
        analysis_calls.clear()
        decide_CK(F, field)
        expected = {"squarefree_decompose": 1, "resultant": 0, "_ring_roots": 2}
        assert analysis_calls == Counter(expected), str(F)


# entry point, its arguments after F and the field, and its decompositions,
# resultants and ring-root searches: one decomposition each, resultants only
# for witness_bounds' Krasner bound of a radical of several factors (none
# for a square-free F, whose ord Res(F, F') comes from Yun's first gcd), at
# most one search per factor and one per reciprocal, and none for
# decide_CZ, whose scan needs no root search
QUARTIC = (9, 0, 4, 0, 4)
TWO_FACTOR = (9, 18, 31, 26, 25, 16, 16, 8, 4)  # the quartic times (x^2+x+1)^2
NONIC = (40, 0, 0, 54, 0, 0, 54, 0, 0, 27)


@pytest.mark.parametrize(
    "entry, args, field_name, coeffs, counts",
    [
        (witness_bounds, (), "Q2", QUARTIC, (1, 0, 2)),
        (witness_bounds, (), "Q2", TWO_FACTOR, (1, 1, 4)),
        (approximate_on_integers, (3,), "Q2", QUARTIC, (1, 0, 0)),
        (has_root_in_field, (), "Q2", QUARTIC, (1, 0, 2)),
        (has_root_in_field, (), "Q2", (-17, 0, 1), (1, 0, 1)),
        (root_multiplicity_report, (2,), "Q2", TWO_FACTOR, (1, 0, 2)),
        (class_spectrum, (), "Q3", NONIC, (1, 0, 2)),
        (class_spectrum, (), "Q2", TWO_FACTOR, (1, 0, 4)),
        (decide_CZ, (), "Q2", QUARTIC, (1, 0, 0)),
    ],
)
def test_entry_points_analyse_once(
    entry, args, field_name, coeffs, counts, request, analysis_calls
):
    field = request.getfixturevalue(field_name)
    entry(P(field, *coeffs), field, *args)
    names = ("squarefree_decompose", "resultant", "_ring_roots")
    assert analysis_calls == Counter(dict(zip(names, counts)))


def test_scan_out_of_budget_computes_no_resultant(Q2, analysis_calls):
    # a decision whose direct or reciprocal scan runs out of budget computes
    # no resultant, and the error names the nodes the decision's scans
    # visited and the budget.  The Q_13 member pins the one node of each
    # scan; the quartic's direct scan visits 3 nodes, and its reciprocal
    # scan 3 more
    Q13 = make_field(13, BASE)
    cases = [
        (decide_CK, make_ck_not_power(Q13, 2), Q13, 1, {"nodes": 2, "budget": 1}),
        (decide_CK, P(Q2, *QUARTIC), Q2, 3, {"nodes": 4, "budget": 3}),  # reciprocal scan
        (decide_CZ, P(Q2, *QUARTIC), Q2, 2, {"nodes": 3, "budget": 2}),
    ]
    for entry, F, field, budget, details in cases:
        analysis_calls.clear()
        with pytest.raises(ScanBudgetExceeded) as info:
            entry(F, field, budget=budget)
        assert info.value.details == details, str(F)
        assert analysis_calls["resultant"] == 0, str(F)


def test_ck_rejects_via_reciprocal(Q2):
    # 1 + 8x has its root -1/8 outside the ring: the scan of the class 8 Z_2
    # that the report of the reciprocal's root -8 certifies fails at once,
    # at 0, where the reciprocal x + 8 takes 8
    report = decide_CK(P(Q2, 1, 8), Q2)
    assert not report.verdict
    point, cls = report.counterexample
    assert point == Q2.element(0)
    assert cls.label() == "2"


def test_ck_perfect_square(Q2):
    assert decide_CK(P(Q2, 0, 0, 1), Q2).verdict


def test_ck_zero_polynomial(Q2):
    report = decide_CK(IntPoly(Q2, ()), Q2)
    assert report.verdict
    assert (report.final_m, report.witness_count, report.m_history) == (0, 0, ())


def test_ck_rejects_non_integer_coefficients(Q2):
    # a float coordinate is refused with TypeError as the polynomial is built
    with pytest.raises(TypeError):
        decide_CK(IntPoly(Q2, ([1.5], [1])), Q2)


def test_ck_root_in_field(Q2):
    report = decide_CK(P(Q2, -17, 0, 1), Q2)
    assert not report.verdict
    point, cls = report.counterexample
    assert cls.label() != "1"
    assert report.witness_count == 0


def test_ck_true_implies_necessary_conditions(Q2, Q3):
    fixtures = [
        (Q2, P(Q2, 9, 0, 4, 0, 4)),
        (Q3, P(Q3, 10, 0, 0, 9, 0, 0, 27, 0, 0, 27)),
    ]
    for field, F in fixtures:
        assert decide_CK(F, field).verdict
        assert necessary_conditions(F, field).all_hold


def test_ck_closed_under_products(Q2):
    F = P(Q2, 9, 0, 4, 0, 4)
    G = P(Q2, 89, 144, 100, 32, 4)  # F(x+2)
    assert decide_CK(F, Q2).verdict
    assert decide_CK(G, Q2).verdict
    assert decide_CK(F * G, Q2).verdict


def test_ck_reciprocal_symmetry_fixtures(Q2):
    for coeffs in ((9, 0, 4, 0, 4), (1, 8), (5, 0, 1)):
        F = IntPoly(Q2, coeffs)
        assert decide_CK(F, Q2).verdict == decide_CK(reciprocal(F), Q2).verdict


# --- bounds


def test_krasner_fixtures(Q2):
    assert krasner_upper_bound(P(Q2, -17, 0, 1), Q2) == 1
    assert krasner_upper_bound(P(Q2, -3, 0, 1), Q2) == 1
    assert krasner_upper_bound(P(Q2, 1, 1, 1), Q2) == 0
    assert krasner_upper_bound(P(Q2, 9, 0, 4, 0, 4), Q2) == 14
    with pytest.raises(NotSquareFree):
        krasner_upper_bound(P(Q2, 0, 0, 1), Q2)
    with pytest.raises(DegreeTooSmall):
        krasner_upper_bound(P(Q2, 1, 2), Q2)


def test_witness_bounds_quadratic(Q2):
    bounds = witness_bounds(P(Q2, -3, 0, 1), Q2)
    assert bounds.kras_upper == 1
    assert bounds.max_ord_bound == 2
    assert bounds.cardA_log_p == 4
    assert bounds.pejkovic_log_p == pytest.approx(4.0)


def test_witness_bounds_quartic(Q2):
    bounds = witness_bounds(P(Q2, 9, 0, 4, 0, 4), Q2)
    assert bounds.kras_upper == 14
    assert bounds.max_ord_bound == 58
    assert bounds.cardA_log_p == 60
    assert bounds.pejkovic_log_p == pytest.approx(4.0 + 48 / 729)


def test_witness_bounds_requires_rootless(Q2):
    with pytest.raises(PreconditionRootInField):
        witness_bounds(P(Q2, -17, 0, 1), Q2)


# x^3 + (3 * 2^1100 + 3) x + 3 (1 + 3 * 2^1100): Eisenstein over Q_3, so
# rootless, of height past the float range
WIDE_CUBIC = (3 * (1 + 3 * 2**1100), 3 * 2**1100 + 3, 0, 1)


def test_witness_bounds_past_float_range(Q3):
    # the height term h^(1 - d) underflows to its limit 0 instead of raising
    bounds = witness_bounds(P(Q3, *WIDE_CUBIC), Q3)
    assert bounds.kras_upper == Fraction(3, 2)
    assert bounds.max_ord_bound == Fraction(9, 2)
    assert bounds.pejkovic_log_p == 1.5


def test_ck_constant_power_free_part(Q2, Q3):
    # 3x^3 over Q_3 and 2x^2 over Q_2 strip x^p to the constants 3 and 2,
    # which are no p-th powers.  The scan of the constant fails at its one
    # node, at 0, where F vanishes, so the scan of F on pi O_K names the
    # witness
    for field, F, label, count in (
        (Q3, P(Q3, 0, 0, 0, 3), "3", 9),
        (Q2, P(Q2, 0, 0, 2), "2", 8),
    ):
        report = decide_CK(F, field)
        assert not report.verdict
        assert_counterexample_holds(report, F, field)
        assert report.counterexample[1].label() == label
        assert (report.final_m, report.m_history, report.witness_count) == (0, (0,), count)


def test_ck_constant_member_sums_both_scans(Q2, Q3):
    # 8x^3 and 27x^3 over Q_3 and 9x^2 over Q_2 strip x^p to constants that
    # are p-th powers: the constant's scan on O_K and its reciprocal's on
    # pi O_K each pin one node of ord v, so witness_count is twice p^(f(v + M))
    for field, F, v in (
        (Q3, P(Q3, 0, 0, 0, 8), 0),
        (Q3, P(Q3, 0, 0, 0, 27), 3),
        (Q2, P(Q2, 0, 0, 9), 0),
    ):
        report = decide_CK(F, field)
        assert report.verdict
        assert (report.final_m, report.m_history) == (v, tuple(sorted({0, v})))
        assert report.witness_count == 2 * field.p ** (field.f * (v + report.M))


def test_witness_bounds_of_two_factors(Q2):
    # (x^2 + x + 1)(x^2 + 3) over Q_2 has two square-free factors of degree
    # 2 and no root in the field: kras_upper is the radical's Krasner bound,
    # here F's own, and the bound on max ord holds above the largest ord F
    # takes on the ring
    F = P(Q2, 1, 1, 1) * P(Q2, 3, 0, 1)
    bounds = witness_bounds(F, Q2)
    assert bounds.kras_upper == krasner_upper_bound(F, Q2) == 1
    assert bounds.max_ord_bound == 4
    depth = 4 + threshold_k0(Q2) + 1
    assert oracle_max_ord(F, Q2, depth) == 2


# --- differential against the oracle


def test_cz_matches_oracle_on_random_suite(Q2, Q3):
    suite = rootless_power_free_suite([Q2, Q3], 30, seed=97)
    for field, F in suite:
        report = decide_CZ(F, field)
        depth = report.final_m + report.M + 2
        assert report.verdict == oracle_decide(F, field, depth), str(F)


def test_ck_reciprocal_symmetry_on_random_suite(Q2, Q3):
    suite = rootless_power_free_suite([Q2, Q3], 25, seed=101)
    for field, F in suite:
        if not F.constant:
            continue
        assert decide_CK(F, field).verdict == decide_CK(reciprocal(F), field).verdict


def test_cz_strategies_agree_on_random_suite(Q2):
    suite = rootless_power_free_suite([Q2], 15, seed=103, max_degree=3, height=6)
    for field, F in suite:
        assert_cz_matches_rescan(F, field)


def test_cz_final_m_matches_oracle(Q2, Q3, E2):
    # A member's scan visits every class, so final_m is the largest ord F
    # attains on the ring; a non-member's final_m depends on scan order.
    cases = rootless_power_free_suite([Q2, Q3], 30, seed=97)
    cases += rootless_power_free_suite([Q2], 15, seed=103, max_degree=3, height=6)
    cases.append((Q2, P(Q2, 36, 0, 16, 0, 16)))
    cases += [(field, make_cz_not_ck(field)) for field in (Q2, Q3, E2)]
    # the reciprocals of field-wide members attain ord 2 or 3 on the ring
    for field, m in ((Q2, 3), (Q3, 2), (E2, 5)):
        cases.append((field, reciprocal(make_ck_not_power(field, m))))
    members = 0
    for field, F in cases:
        report = decide_CZ(F, field)
        if not report.verdict:
            continue
        depth = report.final_m + report.M + 1
        assert report.final_m == oracle_max_ord(F, field, depth) < depth, str(F)
        members += 1
    assert members == 8


def test_cz_matches_oracle_on_extension_fields(U2, E2, E2_cube):
    # The oracle confirms every verdict.  A member is checked by oracle_decide
    # to depth final_m + M, where every class keeps one power class once
    # final_m is the largest ord F attains, which oracle_max_ord confirms.
    # A non-member is checked at its witness with the oracle's power test.
    for field, count in ((U2, 40), (E2, 30), (E2_cube, 30)):
        members = 0
        for _, F in rootless_power_free_suite([field], count, seed=107):
            report = decide_CZ(F, field)
            if report.verdict:
                depth = report.final_m + report.M
                assert oracle_decide(F, field, depth), str(F)
                assert report.final_m == oracle_max_ord(F, field, depth + 1), str(F)
                members += 1
            else:
                point, _ = report.counterexample
                assert not oracle_is_pth_power(F(point), field, report.M), str(F)
        assert members > 0, field


def seeded_members(field, count, seed):
    """count members F = A^p + pi^m B of C_K with p | deg F = p deg A,
    deg A <= 2, deg B <= deg F and m from M to M + 3, drawn with small
    coordinates and kept when decide_CK admits them."""
    rng = random.Random(seed)
    p, M = field.p, threshold_k0(field)
    pi = field.uniformizer()

    def coeff():
        return field.element([rng.randint(-5, 5) for _ in range(field.degree)])

    out = []
    while len(out) < count:
        a = rng.randint(1, 2)
        A = IntPoly(field, [coeff() for _ in range(a + 1)])
        if A.is_zero or A.degree != a:
            continue
        B = IntPoly(field, [rng.randint(-6, 6) for _ in range(p * a + 1)])
        F = A**p + B * pi ** rng.randint(M, M + 3)
        if F.degree == p * a and F.constant and decide_CK(F, field).verdict:
            out.append(F)
    return out


def test_witness_count_reciprocal_term_matches_oracle(Q2, Q3, E2, U2):
    # When p | deg F, the reciprocal is scanned on pi O_K only: the units
    # carry F's classes at their inverses, which F's scan covers.  So
    # witness_count is p^(f(m + M)) + p^(f(m' + M)), with m the largest ord
    # of F on the ring and m' that of y -> x^d F(1/x) at x = pi y, both
    # found by the oracle; final_m is the larger.  The oracle's maxima are
    # exact below its depth, as F(a + pi^D y) = F(a) mod pi^D.
    F = P(Q2, -39, -232, -14, -104, -375)
    assert F == P(Q2, -5, 4, 3) ** 2 + P(Q2, -1, -3, 0, -2, -6) * 2**6
    # 2^(2 + 3) + 2^(0 + 3); with the reciprocal's ord 2 at the units, 64
    assert decide_CK(F, Q2).witness_count == 40
    cases = [(Q2, F)]
    cases += [(field, G) for field in (Q2, Q3, E2, U2) for G in seeded_members(field, 16, 37)]
    moved = Counter()
    for field, F in cases:
        report = decide_CK(F, field)
        depth = report.final_m + 1
        pi, d = field.uniformizer(), F.degree
        G = IntPoly(field, [F.coeffs[d - k] * pi**k for k in range(d + 1)])
        m, rev_m = oracle_max_ord(F, field, depth), oracle_max_ord(G, field, depth)
        assert max(m, rev_m) == report.final_m < depth, str(F)
        q = field.p**field.f
        assert report.witness_count == q ** (m + report.M) + q ** (rev_m + report.M), str(F)
        # the reciprocal attains a larger ord at a unit, which no longer counts
        moved[field] += oracle_max_ord(reciprocal(F), field, depth) > rev_m
    assert all(moved[field] for field in (Q2, Q3, E2, U2)), moved


def assert_counterexample_holds(report, G, field):
    """The reported class is the class of G at the reported point, and it is
    not the class of the p-th powers."""
    point, cls = report.counterexample
    value = G(point)
    assert value and not oracle_is_pth_power(value, field, threshold_k0(field))
    assert class_of(value, field) == cls


def test_counterexamples_hold_at_their_points(Q2, Q3, Q5, E2, U2, E2_cube, E3, E2_w3):
    # Counterexample points follow the scan's visiting order; wherever they
    # fall, each must carry the class it reports.  decide_CK's witness lies
    # on the reciprocal side when F has a root outside the ring or when the
    # direct scan passes.
    fields = [Q2, Q3, Q5, E2, U2, E2_cube, E3]
    witnesses = 0
    for field, F in rootless_power_free_suite(fields, 70, seed=109):
        direct = decide_CZ(F, field)
        if not direct.verdict:
            assert_counterexample_holds(direct, F, field)
            witnesses += 1
        report = decide_CK(F, field)
        if not report.verdict:
            mirrored = has_root_in_field(F, field) or direct.verdict
            assert_counterexample_holds(report, reciprocal(F) if mirrored else F, field)
            witnesses += 1
    assert witnesses > 70

    # F_* with a ring root, with a root outside the ring (1 + 8x and its
    # kind, 1 + pi^j c x), with a stripped (x - a)^p factor, and the
    # constant F_* = c of c (x - a)^p, c no p-th power, over all eight
    # fixture fields: a witness from the scan of a root's class holds on F,
    # or on reciprocal(F_*) where the root is the reciprocal's, as it does
    # where the scan of a rootless F_* passes and the reciprocal's fails
    fields.append(E2_w3)
    rng, constants = random.Random(127), random.Random(131)
    cases = Counter()
    for field, G in rootless_power_free_suite(fields, 64, seed=127):
        a = field.element([rng.randint(-9, 9) for _ in range(field.degree)])
        b = field.uniformizer() ** rng.randint(1, 3) * rng.choice((1, 3, 5))
        reps = [cls.rep for cls in enumerate_classes(field)]
        c = constants.choice([r for r in reps if not is_pth_power(r, field)])
        built = {
            "ring root": G * P(field, -a, 1),
            "root outside": G * P(field, 1, b),
            "stripped": P(field, -a, 1) ** field.p * G,
            "constant": P(field, -a, 1) ** field.p * c,
        }
        for kind, F in built.items():
            report = decide_CK(F, field)
            if report.verdict:
                assert kind == "stripped" and decide_CK(G, field).verdict
                continue
            reduced = reduce_power_free(F, field.p)
            factors = squarefree_decompose(reduced).factors
            if any(roots_in_valuation_ring(H, field).exists for H, _ in factors):
                mirrored = False
            else:
                mirrored = has_root_in_field(reduced, field) or decide_CZ(reduced, field).verdict
            assert_counterexample_holds(report, reciprocal(reduced) if mirrored else F, field)
            cases[kind, field] += 1
    assert len(cases) == 4 * len(fields)


def test_cz_answers_inputs_with_ring_roots(Q2, Q3, Q5, E2, U2, E3):
    # decide_CZ has no precondition: G (x - a), G (x - a)^p and G (x - a)^2,
    # with a in the ring, each get a verdict.  Every witness is a nonzero
    # non-power of F itself under the oracle.  A member is checked against
    # the oracle on the residues modulo pi^min(final_m + M, 6) only, a
    # partial check: the scan's cover certifies the rest.  And C_K lies in
    # C_ZK: a field-wide member is a member on the ring
    rng = random.Random(20261022)
    fields = (Q2, Q3, Q5, E2, U2, E3)
    verdicts = Counter()
    for _ in range(300):
        field = rng.choice(fields)
        n = field.degree

        def elem():
            return tuple(rng.randint(-4, 4) for _ in range(n))

        G = IntPoly(field, [elem() for _ in range(rng.randint(0, 2))] + [elem()])
        if G.is_zero:
            continue
        a = field.element(elem())
        F = G * P(field, -a, 1) ** rng.choice((1, 2, field.p))
        report = decide_CZ(F, field)
        verdicts[report.verdict] += 1
        if report.verdict:
            assert oracle_decide(F, field, min(report.final_m + report.M, 6)), str(F)
        else:
            assert_counterexample_holds(report, F, field)
        if decide_CK(F, field).verdict:
            assert report.verdict, str(F)
    assert verdicts[False] > 250 and verdicts[True] > 0, verdicts


def test_witnesses_avoid_roots_of_stripped_powers(Q2, Q3, Q5, E2, U2, E2_cube, E3):
    # F = (x - c)^p G with c the point where G's scan fails: the scan of F's
    # power-free part fails at c as well, where F = 0, so decide_CK names a
    # point near c, where F takes G(c)'s class
    F = P(Q2, -1, 1) ** 2 * P(Q2, 1, 1, 1)
    report = decide_CK(F, Q2)
    assert report.counterexample[0] == Q2.element(3)  # F(1) = 0, F(3) = 52
    assert_counterexample_holds(report, F, Q2)
    fields = [Q2, Q3, Q5, E2, U2, E2_cube, E3]
    cases = Counter()
    for field, G in rootless_power_free_suite(fields, 60, seed=211):
        direct = decide_CZ(G, field)
        if direct.verdict or has_root_in_field(G, field):
            continue
        c = direct.counterexample[0]
        F = IntPoly(field, (-c, 1)) ** field.p * G
        report = decide_CK(F, field)
        assert not report.verdict
        assert_counterexample_holds(report, F, field)
        cases[field] += 1
    assert len(cases) == len(fields)


def test_witness_58_levels_from_exact_roots(Q2):
    # x (x - 2^60): values near either root are squares up to level 57; the
    # first non-square is F(2^58) = -3 * 2^116
    F = P(Q2, 0, -(2**60), 1)
    report = decide_CK(F, Q2)
    assert report.counterexample[0] == Q2.element(2**58)
    assert_counterexample_holds(report, F, Q2)


def test_witness_beyond_the_precision_of_a_root_report(Q2):
    # sqrt 17 is reported to precision 3, and the roots of x^2 - 17 - 2^40 lie
    # at distance 39 from it: the first witness on sqrt 17's own digits is at
    # level 37, so the probe must follow the root past its report
    F = P(Q2, -17, 0, 1) * P(Q2, -17 - 2**40, 0, 1) ** 3
    report = decide_CK(F, Q2)
    point, _ = report.counterexample
    assert (point * point - 17).ord() == 38  # at distance 37 from a root
    assert_counterexample_holds(report, F, Q2)


def test_cz_final_m_found_below_first_level(Q2):
    # G = (x - 8)^2 + 2^7 has ord 7 exactly on x = 8 mod 16 and less elsewhere,
    # and 2^17 / G^2 has ord >= 3, so F = G^2 + 2^17 is a member whose largest
    # ord, 14, lies only below the first scan level 2^M = 8
    G = P(Q2, 8 * 8 + 2**7, -16, 1)
    F = G * G + P(Q2, 2**17)
    report = decide_CZ(F, Q2)
    assert report.verdict
    assert report.m_history == (0, 12, 14)
    assert report.final_m == oracle_max_ord(F, Q2, 15) == 14


def test_member_scans_test_few_points(E2_cube, U2, monkeypatch):
    # Taylor nodes pin each residue class as soon as F's expansion settles
    # it, so the two scans of each member test only a few points: a point
    # is tested once, at the first node that has it, and the reciprocal's
    # scan starts at pi O_K, as the direct scan has covered the units
    tested = Counter()

    def counted(x, field):
        tested[field] += 1
        return is_pth_power(x, field)

    monkeypatch.setattr(decide_module, "is_pth_power", counted)
    for field, m, count in ((E2_cube, 7, 8), (U2, 3, 8)):
        report = decide_CK(make_ck_not_power(field, m), field)
        assert report.verdict
        assert tested[field] == count


def test_member_sweep_at_smallest_m(Q2, Q3, Q5, E2, U2, E2_cube, E3, monkeypatch):
    # make_ck_not_power at the smallest valid m, over every field the paper's
    # construction is tested on.  F = (1 + pi x^p)^p + pi^m has a unit
    # constant term and every other coefficient in pi O_K, so the root
    # search prunes F's first node; the p^2 roots of the reciprocal
    # (x^p + pi)^p + pi^m x^(p^2) have ord 1/p, so its search, which starts
    # at pi O_K, prunes that node at once: no node splits.  decide_CK then
    # decides each as a member at the default budget, which counts the
    # nodes visited: over Q_7, Q_11 and Q_13 the scan reaches final_m = p
    # on a few nodes, far fewer than the p^(p + 2) of its witness system.
    splits = Counter()
    children = roots_module._children

    def counted(*args):
        splits[args[-1]] += 1
        return children(*args)

    monkeypatch.setattr(roots_module, "_children", counted)
    fields = [Q2, Q3, Q5] + [make_field(p, BASE) for p in (7, 11, 13)]
    for field in fields + [E2, U2, E2_cube, E3]:
        m = field.e * field.p // (field.p - 1) + 1
        F = make_ck_not_power(field, m)
        splits.clear()
        assert not has_root_in_field(F, field)
        assert not splits, field
        assert decide_CK(F, field).verdict, field


@pytest.mark.parametrize("p", (7, 11, 13, 17, 19, 23))
def test_high_p_member_splits_no_node(p, monkeypatch):
    # F = (1 + p x^p)^p + p^2 pins its first node.  Its reciprocal
    # (x^p + p)^p + p^2 x^(p^2) takes ord p at 0, and every higher
    # coefficient of its node p Z_p has ord at least 2p, so the scan pins
    # that node, where the root search prunes it; the units, which F's scan
    # has covered, are not walked again.  No node splits anywhere.
    def refused(*args):
        raise AssertionError("a node split")

    monkeypatch.setattr(roots_module, "_children", refused)
    field = make_field(p, BASE)
    F = make_ck_not_power(field, 2)
    report = decide_CK(F, field, budget=10**40)
    assert report.verdict
    assert report.final_m == p
    classes, attains_zero = class_spectrum(F, field, budget=10**40)
    assert {cls.label() for cls in classes} == {"1"}
    assert not attains_zero


# --- class spectrum


def test_spectrum_paper_example(Q3):
    classes, attains_zero = class_spectrum(P(Q3, 40, 0, 0, 54, 0, 0, 54, 0, 0, 27), Q3)
    assert {cls.label() for cls in classes} == {"1", "4"}
    assert not attains_zero


def test_spectrum_of_member_is_trivial(Q2):
    classes, attains_zero = class_spectrum(P(Q2, 9, 0, 4, 0, 4), Q2)
    assert {cls.label() for cls in classes} == {"1"}
    assert not attains_zero


def test_spectrum_constant(Q3):
    classes, attains_zero = class_spectrum(P(Q3, 2), Q3)
    assert {cls.label() for cls in classes} == {"2"}
    assert not attains_zero


def test_spectrum_perfect_power(Q2):
    classes, attains_zero = class_spectrum(P(Q2, 0, 0, 1), Q2)
    assert {cls.label() for cls in classes} == {"1"}
    assert attains_zero


def oracle_labels(F, field, depth):
    """Labels of the classes that F and its reciprocal take on the residues
    modulo pi^depth, each value classed by the oracle's power test."""
    k0 = threshold_k0(field)
    reps = [cls.rep for cls in enumerate_classes(field)]
    labels = set()
    for G in (F, reciprocal(F)):
        for a in iter_residues(field, depth):
            value = G(a)
            same = (r for r in reps if oracle_is_pth_power(value * r ** (field.p - 1), field, k0))
            labels.add(str(next(same)))
    return labels


def test_spectrum_matches_oracle(Q2, Q3):
    # (x -+ 8)^2 + 2^15 takes the class of 2 only on x = +-8 mod 2^9, inside
    # the first (last) child of the class 0 mod 8, which the scan refines
    # from level 3 to level 9.  On the sextic, the classes 3 and 6 mod 9 of
    # the first level have values of ord 2 = level - M + 2 in three power
    # classes, so a scan that pinned there would lose a class.  Residues
    # mod 2^10 and 3^4 reach every class of these polynomials.
    cases = [
        (Q2, P(Q2, 64 + 2**15, -16, 1), 10),
        (Q2, P(Q2, 64 + 2**15, 16, 1), 10),
        (Q3, P(Q3, 18, -18, 20, 0, -2, -9, 20), 4),
    ]
    for field, F, depth in cases:
        classes, attains_zero = class_spectrum(F, field)
        assert {cls.label() for cls in classes} == oracle_labels(F, field, depth), str(F)
        assert not attains_zero


def test_spectrum_matches_oracle_on_extensions(U2, E2):
    # F and its reciprocal attain only ord 0 on the ring, so the residues
    # mod pi^M reach every class of their values
    cases = [
        (U2, P(U2, -5, -8, -6, 9, 9)),
        (E2, P(E2, 3, -9, -1)),
    ]
    for field, F in cases:
        classes, attains_zero = class_spectrum(F, field)
        depth = threshold_k0(field)
        assert max(oracle_max_ord(G, field, depth) for G in (F, reciprocal(F))) == 0
        assert {cls.label() for cls in classes} == oracle_labels(F, field, depth), str(F)
        assert not attains_zero


def test_spectrum_requires_rootless_reduction(Q2):
    with pytest.raises(PreconditionRootInField):
        class_spectrum(P(Q2, -17, 0, 1), Q2)


def test_spectrum_full_when_degree_coprime(Q2):
    # x^3 - 2 is rootless and 2 does not divide its degree, so x -> x^3
    # permutes the classes and the values sweep the whole fan
    classes, attains_zero = class_spectrum(P(Q2, -2, 0, 0, 1), Q2)
    assert classes == set(enumerate_classes(Q2))
    assert not attains_zero
