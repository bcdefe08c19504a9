"""Root search in the valuation ring and in the field."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicpowers import (
    IntPoly,
    make_ck_not_power,
    NotSquareFree,
    OKElem,
    PadicError,
    class_spectrum,
    decide_CK,
    decide_CZ,
    has_root_in_field,
    is_pth_power,
    ord,
    residues,
    root_multiplicity_report,
    roots_in_valuation_ring,
    resultant,
    stability_radius,
    threshold_k0,
)
from padicpowers import polyring
from padicpowers import roots as roots_module
from padicpowers.roots import _analyse, _children, _descend


def P(field, *coeffs):
    return IntPoly(field, coeffs)


def test_square_root_of_17_exists(Q2):
    report = roots_in_valuation_ring(P(Q2, -17, 0, 1), Q2)
    assert report.exists
    assert report.search_depth_used == 2
    summary = [(str(r.truncation), r.precision) for r in report.roots]
    assert summary == [("1", 3), ("3", 2)]
    assert all(r.certified_by_hensel for r in report.roots)


def test_square_root_of_3_does_not_exist(Q2):
    report = roots_in_valuation_ring(P(Q2, -3, 0, 1), Q2)
    assert not report.exists
    assert report.roots == ()
    assert report.search_depth_used == 1


def test_linear_root(Q3):
    report = roots_in_valuation_ring(P(Q3, -5, 1), Q3)
    assert [(str(r.truncation), r.precision) for r in report.roots] == [("2", 1)]


def test_exact_roots_have_infinite_precision(Q2):
    report = roots_in_valuation_ring(P(Q2, 0, -1, 1), Q2)  # x^2 - x
    assert [(str(r.truncation), r.precision) for r in report.roots] == [
        ("0", math.inf),
        ("1", math.inf),
    ]


def test_eisenstein_roots(E2):
    # x^2 - 2 = (x - t)(x + t) over the ramified quadratic
    report = roots_in_valuation_ring(IntPoly(E2, (-2, 0, 1)), E2)
    assert report.exists
    assert [(str(r.truncation), r.precision) for r in report.roots] == [
        ("t", math.inf),
        ("3*t", 5),
    ]


def test_rejects_repeated_roots(Q2):
    with pytest.raises(NotSquareFree):
        roots_in_valuation_ring(P(Q2, 0, 0, 1), Q2)
    with pytest.raises(NotSquareFree):
        roots_in_valuation_ring(IntPoly(Q2, ()), Q2)


def test_constants_have_no_roots(Q2):
    report = roots_in_valuation_ring(P(Q2, 7), Q2)
    assert not report.exists
    assert report.search_depth_used == 0


def test_has_root_in_field_fixtures(Q2):
    assert has_root_in_field(P(Q2, -17, 0, 1), Q2)
    assert not has_root_in_field(P(Q2, 9, 0, 4, 0, 4), Q2)
    # root 1/2 lies outside the ring but inside the field
    assert has_root_in_field(P(Q2, -1, 2), Q2)
    assert has_root_in_field(P(Q2, 0, 0, -3, 0, 1), Q2)  # x^2 (x^2 - 3)
    assert not has_root_in_field(P(Q2, -3, 0, 1), Q2)


def test_reciprocal_search_needs_the_ring_search_first(Q2, E2):
    # rev searches pi O_K only, as ring has ruled out the unit roots: asked
    # for where G has a ring root, it would miss them, so it refuses
    for field, G in ((Q2, P(Q2, -1, 1)), (E2, P(E2, -17, 0, 1))):
        ((factor, _),) = _analyse(G, field).factors
        with pytest.raises(AssertionError):
            factor.rev
    # the roots 1/2 and 1/6 of 12x^2 - 8x + 1 lie outside the ring: rev
    # reports their inverses 2 and 6, both in pi O_K
    ((factor, _),) = _analyse(P(Q2, 1, -8, 12), Q2).factors
    assert not factor.ring.exists
    roots = factor.rev.roots
    assert len(roots) == 2
    for root in roots:
        assert any((root.truncation - r).ord() >= root.precision >= 1 for r in (2, 6))


def test_root_multiplicity_report(Q2):
    assert root_multiplicity_report(P(Q2, 0, 0, 1), Q2, 2) == "compliant"
    assert root_multiplicity_report(P(Q2, 0, 0, 0, 1), Q2, 2) == "violates"
    assert root_multiplicity_report(P(Q2, 0, 0, -3, 0, 1), Q2, 2) == "compliant"
    sq = P(Q2, -1, 2) * P(Q2, -1, 2)
    assert root_multiplicity_report(sq, Q2, 2) == "compliant"
    assert root_multiplicity_report(sq * P(Q2, -1, 2), Q2, 2) == "violates"


@given(c=st.integers(min_value=-300, max_value=300).filter(bool))
@settings(max_examples=120, deadline=None)
def test_field_square_roots_match_power_test(Q2, c):
    # x^2 - c has a field root exactly when c is a square in the ring sense
    assert has_root_in_field(P(Q2, -c, 0, 1), Q2) == is_pth_power(Q2.element(c), Q2)


@given(c=st.integers(min_value=-200, max_value=200).filter(bool))
@settings(max_examples=80, deadline=None)
def test_field_cube_roots_match_power_test(Q3, c):
    assert has_root_in_field(P(Q3, -c, 0, 0, 1), Q3) == is_pth_power(Q3.element(c), Q3)


@given(
    coeffs=st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=4)
)
@settings(max_examples=100, deadline=None)
def test_reported_roots_satisfy_hensel(Q2, coeffs):
    G = IntPoly(Q2, coeffs)
    if not G or G.degree == 0:
        return
    try:
        report = roots_in_valuation_ring(G, Q2)
    except NotSquareFree:
        return
    for root in report.roots:
        value = G(root.truncation)
        slope = G.derivative()(root.truncation)
        assert ord(value) > 2 * ord(slope)
        assert root.certified_by_hensel


@given(
    data=st.data(),
    field_index=st.integers(min_value=0, max_value=6),
    count=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_known_roots_are_found(Q2, Q3, Q5, E2, U2, E2_cube, E3, data, field_index, count):
    # G = prod (x - r_i) over distinct r_i in the valuation ring: the search
    # reports each r_i once, within the stated precision of exactly one
    # Hensel-certified truncation; a factor pi^k x - u adds a root outside
    # the ring, which only has_root_in_field sees
    field = (Q2, Q3, Q5, E2, U2, E2_cube, E3)[field_index]
    points = residues(field, 4)
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(points) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    G = P(field, 1)
    for i in picks:
        G = G * P(field, -points[i], 1)
    report = roots_in_valuation_ring(G, field)
    assert report.exists
    assert len(report.roots) == count
    for i in picks:
        near = [root for root in report.roots if ord(points[i] - root.truncation) >= root.precision]
        assert len(near) == 1
    slope = G.derivative()
    for root in report.roots:
        assert ord(G(root.truncation)) > 2 * ord(slope(root.truncation))
        assert root.certified_by_hensel

    k = data.draw(st.integers(min_value=1, max_value=3))
    unit = data.draw(st.sampled_from([u for u in residues(field, 1) if u]))
    outer = P(field, -unit, field.uniformizer() ** k)
    assert has_root_in_field(outer, field)
    assert not roots_in_valuation_ring(outer, field).exists
    assert has_root_in_field(G * outer, field)
    assert len(roots_in_valuation_ring(G * outer, field).roots) == count


def test_children_settle_like_their_expansion(Q2, Q3, Q5, E2, U2, E2_cube, E3):
    # a child that comes back with c_0 alone must be one that its full
    # expansion G(r + pi y), built here with polynomial arithmetic, settles:
    # every c_k, k >= 1, has ord >= ord c_0 + margin (margin 1 prunes a
    # root-search class, margin M pins a scan class); any other child comes
    # back expanded in full
    rng = random.Random(20261018)
    settled = 0
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3):
        pi = field.uniformizer()
        for _ in range(6):
            degree = rng.randint(1, 4)
            coeffs = [rng.randint(-20, 20) * pi ** rng.randint(0, 4) for _ in range(degree)]
            G = IntPoly(field, coeffs + [pi ** rng.randint(0, 2)])
            for margin in (1, threshold_k0(field)):
                node = [c.coords for c in G.coeffs]
                children = _children(field.zero(), node, None, field.one(), margin, field)
                for (point, got, _), r in zip(children, residues(field, 1)):
                    assert point() == r
                    full = IntPoly(field, ())
                    for j, c in enumerate(G.coeffs):
                        full = full + IntPoly(field, (r, pi)) ** j * c
                    expected = [c.coords for c in full.coeffs]
                    if len(got) == 1:
                        settled += 1
                        v = OKElem(field, expected[0]).ord()
                        assert all(OKElem(field, c).ord() >= v + margin for c in expected[1:])
                        assert got == expected[:1]
                    else:
                        assert got == expected
    assert settled


def _split_sequence(fields, monkeypatch):
    """Every split of every walk, in order, as (margin, point coordinates,
    level), with the name of each entry point before its splits and the
    error it raises after them: over seeded polynomials, decide_CK,
    decide_CZ, class_spectrum, roots_in_valuation_ring and
    has_root_in_field, then 8 steps of the descent of each reported root."""
    calls = []
    children = roots_module._children

    def recorded(a, coeffs, tag, shift, margin, field):
        calls.append((margin, a.coords, shift.ord()))
        return children(a, coeffs, tag, shift, margin, field)

    monkeypatch.setattr(roots_module, "_children", recorded)
    entries = (decide_CK, decide_CZ, class_spectrum, roots_in_valuation_ring, has_root_in_field)
    rng = random.Random(20261020)
    for field in fields:
        pi = field.uniformizer()
        for _ in range(8):
            degree = rng.randint(1, 4)
            coeffs = [rng.randint(-20, 20) * pi ** rng.randint(0, 3) for _ in range(degree)]
            F = IntPoly(field, coeffs + [pi ** rng.randint(0, 2)])
            report = None
            for entry in entries:
                calls.append(entry.__name__)
                try:
                    out = entry(F, field)
                except PadicError as exc:
                    calls.append(type(exc).__name__)
                    continue
                if entry is roots_in_valuation_ring:
                    report = out
            for root in report.roots if report else ():
                if root.precision < math.inf:
                    calls.append("descend")
                    deeper = _descend(F, root)
                    for _ in range(8):
                        next(deeper)
    return calls


def test_walks_split_the_same_nodes(Q2, Q3, Q5, E2, U2, E2_cube, E3, monkeypatch):
    # the digest of the outputs cannot see a walk that splits extra nodes
    # and reaches the same answers: the sequence of splits is pinned here
    fields = (Q2, Q3, Q5, E2, U2, E2_cube, E3)
    calls = _split_sequence(fields, monkeypatch)
    assert len(calls) > 500
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == "890fd9be8a01f341a2217d1ddb50dc6ffb908455442922e02e1da5e920b05aa2", digest

    # the walk's contract, driven directly by a caller that splits a few
    # nodes of each level, each under a tag of its own: only those nodes
    # are split, levels rise by one from the start, the next level holds
    # their children in the order of the splits, and each child r = 0
    # repeats its parent's point and tag while the others have no tag
    split_coeffs = []

    def counted(a, coeffs, tag, shift, margin, field):
        split_coeffs.append(coeffs)
        return _children(a, coeffs, tag, shift, margin, field)

    monkeypatch.setattr(roots_module, "_children", counted)
    rng = random.Random(20261021)
    for field in fields:
        q = field.p**field.f
        pi = field.uniformizer()
        for _ in range(4):
            coeffs = [rng.randint(-20, 20) * pi ** rng.randint(0, 3) for _ in range(4)]
            F = IntPoly(field, coeffs + [1])
            start = rng.randint(0, 2)
            a = field.element(rng.randint(-9, 9)) if start == 2 else None
            margin = rng.choice((1, threshold_k0(field)))
            parents = None
            for level, nodes, split in roots_module._walk(F, margin, start, a):
                if parents is None:
                    assert level == start and len(nodes) == 1 and nodes[0][2] is None
                    assert nodes[0][0]() == (field.zero() if a is None else a)
                else:
                    assert level == previous + 1
                    assert len(nodes) == q * len(parents)
                    for i, (point, _, tag) in enumerate(parents):
                        block = nodes[q * i : q * (i + 1)]
                        assert block[0][0]() == point() and block[0][2] == tag
                        assert all(node[2] is None for node in block[1:])
                split_coeffs.clear()
                parents = []
                for j, (point, coeffs, _) in enumerate(nodes):
                    if level < start + 4 and len(coeffs) > 1 and rng.random() < 0.4:
                        split(point, coeffs, (level, j))
                        parents.append((point, coeffs, (level, j)))
                assert len(split_coeffs) == len(parents)
                assert all(c is node[1] for c, node in zip(split_coeffs, parents))
                previous = level
            assert not parents


def test_descents_stay_on_their_roots(Q2, Q3, Q5, E2, U2, E2_cube, E3):
    # each step of a report's descent names the same root one level deeper:
    # it agrees with the report to the report's precision, and by the Newton
    # polygon of G(t + pi^L y), rebuilt here with polynomial arithmetic, the
    # class t + pi^L O_K holds exactly one root of G
    rng = random.Random(20261019)
    steps = 0
    for field in (Q2, Q3, Q5, E2, U2, E2_cube, E3):
        pi = field.uniformizer()
        for _ in range(8):
            G = P(field, rng.randint(-30, 30) * pi ** rng.randint(0, 3), rng.randint(-9, 9), 1)
            if G.degree == 0 or G.constant == 0:
                continue
            try:
                report = roots_in_valuation_ring(G, field)
            except NotSquareFree:
                continue
            for root in report.roots:
                if root.precision == math.inf:
                    continue
                deeper = _descend(G, root)
                for level in range(root.precision + 1, root.precision + 12):
                    step = next(deeper)
                    assert step.precision == level
                    assert ord(step.truncation - root.truncation) >= root.precision
                    shifted = P(field)
                    for c in reversed(G.coeffs):
                        shifted = shifted * P(field, step.truncation, pi**level) + c
                    ords = [ord(c) for c in shifted.coeffs]
                    assert len(ords) - 1 - ords[::-1].index(min(ords)) == 1
                    steps += 1
    assert steps > 300


coords3 = st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=3, max_size=3)


@given(
    which=st.integers(min_value=0, max_value=6),
    coeffs=st.lists(coords3, min_size=2, max_size=7),
    lc_shift=st.integers(min_value=0, max_value=3),
    content=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=150, deadline=None)
@example(which=0, coeffs=[[1, 0, 0], [0, 0, 0], [1, 0, 0]], lc_shift=2, content=1)  # 4x^2 + 1
@example(which=3, coeffs=[[3, 1, 0], [1, 0, 0]], lc_shift=1, content=2)  # linear
def test_res_ord_from_yun_matches_resultant(
    Q2, Q3, Q5, E2, U2, E2_cube, E3, which, coeffs, lc_shift, content
):
    # a square-free F of degree 1 to 6, its leading coefficient times
    # p^lc_shift and all of it times p^content: the ord Res(G, G') that
    # the analysis reads off Yun's first gcd equals the resultant's
    field = (Q2, Q3, Q5, E2, U2, E2_cube, E3)[which]
    n = field.degree
    vec = [c[:n] for c in coeffs]
    vec[-1] = [x * field.p**lc_shift for x in vec[-1]]
    F = IntPoly(field, vec) * field.p**content
    assume(F and F.degree >= 1 and resultant(F, F.derivative()))
    ((factor, mult),) = _analyse(F, field).factors
    G = factor.poly
    assert mult == 1
    assert factor.res_ord == resultant(G, G.derivative()).ord()


def test_res_ord_from_yun_takes_no_resultant(Q2, Q3, E2, analysis_calls, monkeypatch):
    # the 1,552-bit criterion-9 perturbation over Q_3 above the radius 977
    # of its member takes its ord Res(G, G') from the resultant of its copy
    # modulo p^N, shifted to G by the resultant congruence: every resultant
    # it takes is on a copy of at most 128 bits, none on F or G
    resultant_args = []
    counted = polyring.resultant

    def recorded(A, B):
        resultant_args.append(A)
        return counted(A, B)

    monkeypatch.setattr(polyring, "resultant", recorded)
    rng = random.Random(20260814)
    F = make_ck_not_power(Q3, 2)
    shift = Q3.uniformizer() ** 978
    F += IntPoly(Q3, [Q3.element(rng.randint(-3, 3)) * shift for _ in range(F.degree + 1)])
    assert F.height.bit_length() >= 1550
    analysis_calls.clear()
    ((factor, _),) = _analyse(F, Q3).factors
    res_ord = factor.res_ord
    G = factor.poly
    assert analysis_calls == {"squarefree_decompose": 1, "resultant": len(resultant_args)}
    assert resultant_args and all(A.height.bit_length() <= 128 for A in resultant_args)
    assert F not in resultant_args and G not in resultant_args
    assert res_ord == resultant(G, G.derivative()).ord()
    # a non-square-free F still takes one resultant per factor that is asked
    A, B = P(Q2, 3, 1, 4), P(Q2, 1, 2)
    t = E2.generator()
    for field, H, k in ((Q2, A**2 * B, 2), (Q2, A * B**4, 2), (E2, P(E2, t, 1) ** 3, 1)):
        analysis_calls.clear()
        factors = _analyse(H, field).factors
        assert len(factors) == k
        ords = [factor.res_ord for factor, _ in factors]
        assert analysis_calls == {"squarefree_decompose": 1, "resultant": k}, str(H)
        assert ords == [resultant(G, G.derivative()).ord() for G in (f.poly for f, _ in factors)]


def test_res_ord_zero_is_kept(Q2, analysis_calls):
    # x^2 + x + 1 over Q_2 has ord Res(F, F') = 0, its resultant 3 being a
    # unit: the decomposition hands over the value 0, and the record keeps
    # it and takes no resultant of its own
    F = P(Q2, 1, 1, 1)
    assert polyring._squarefree_decompose(F)[1] == 0
    analysis_calls.clear()
    ((factor, _),) = _analyse(F, Q2).factors
    assert factor.res_ord == 0
    assert analysis_calls == {"squarefree_decompose": 1}


def test_pth_roots_stop_at_the_first_verified_lift(E2, U2, E3, E2_cube, monkeypatch):
    # each ring root of X^p - x in Z[t] gives its w once, +-w for p = 2;
    # there both roots are in Z[t] and, with small coordinates, verify by
    # the second depth of the doubling schedule, 2 s for s = max(2 k0 +
    # ord x, 8), while the derived depth of these x is 72 to 75 over
    # Q_2(2^(1/3)); over Q_3(sqrt -3) a root zeta w outside Z[t] is
    # dropped at the derived depth
    deepest = []
    descend = roots_module._descend

    def recorded(G, root):
        for r in descend(G, root):
            deepest.append(r.precision)
            yield r

    monkeypatch.setattr(roots_module, "_descend", recorded)
    rng = random.Random(20261019)
    for field in (E2, U2, E3, E2_cube):
        p = field.p
        for _ in range(10):
            w = field.element([rng.randint(-6, 6) for _ in range(field.degree)])
            if not w:
                continue
            x = w**p
            deepest.clear()
            found = roots_module._pth_roots(x, field)
            assert w in found and len(set(found)) == len(found) and all(r**p == x for r in found)
            if p == 2:
                assert found == sorted({w, -w}, key=lambda r: next(c for c in r.coords if c) < 0)
                start = max(2 * threshold_k0(field) + x.ord(), 8)
                assert max(deepest, default=0) <= 2 * start, (field, w)
