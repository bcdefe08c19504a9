"""Seeded workloads for the decider benchmark, and their answer checks.

Every workload is a fixed list of operations built from the seed before any
timing starts.  An operation is one public library call (or a construction
followed by the call it feeds), so the benchmark drives the package only
through names in ``padicpowers.__all__`` with default keyword arguments.
The checks compare each answer with an invariant of the input polynomial,
decided by an independent reference: the brute-force oracle or the paper's
constructions.  They never pin scan details (final_m, witness counts,
m histories or counterexample points), which later changes may move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import padicpowers as pp

# name -> (p, kind constant in padicpowers, defining polynomial low degree first)
FIELD_SPECS: dict[str, tuple[int, str, Optional[tuple[int, ...]]]] = {
    "Q2": (2, "BASE", None),
    "Q3": (3, "BASE", None),
    "Q5": (5, "BASE", None),
    "E2": (2, "EISENSTEIN", (-2, 0, 1)),  # Q_2(sqrt 2)
    "U2": (2, "UNRAMIFIED", (1, 1, 1)),  # unramified quadratic over Q_2
    "E3": (2, "EISENSTEIN", (-2, 0, 0, 1)),  # Q_2(2^(1/3))
}

# the random suite draws from the fixture distribution of tests/conftest.py
SUITE_FIELDS = ("Q2", "Q3", "Q5", "E2", "U2")
SUITE_PER_FIELD = 24
MAX_DISC_ORD = 4
MAX_DEGREE = 4
HEIGHT = 10

MEMBER_FAMILY = (
    ("Q2", (3, 4, 5, 6)),
    ("Q3", (2, 3, 4, 5)),
    ("E2", (5, 6, 7, 8)),
    ("U2", (3, 4)),
    ("E3", (7,)),
)
CZ_FIELDS = ("Q2", "Q3", "Q5", "E2", "U2")

# criterion 5 of the acceptance suite: its spectrum is {class(1), class(4)}
NONIC = (40, 0, 0, 54, 0, 0, 54, 0, 0, 27)
SPECTRUM_FAMILY = (
    ("Q2", (3, 4, 5, 6)),
    ("Q3", (2, 3, 4, 5)),
    ("E2", (5, 6, 7, 8)),
    ("U2", (3, 4)),
)

PERTURBED_BASES = (("Q2", 3, 4), ("E2", 5, 4), ("U2", 3, 4), ("Q3", 2, 1))

WORKLOAD_FIELDS = {
    "suite": SUITE_FIELDS,
    "members": ("Q2", "Q3", "E2", "U2", "E3", "Q5"),
    "spectrum": ("Q2", "Q3", "E2", "U2"),
    "perturbed": ("Q2", "E2", "U2", "Q3"),
}

# a member that exhausted the default scan budget when this benchmark was
# added (ROADMAP W4); the traced run of the members workload runs it once,
# untimed
DEFECT_PROBE = ("Q5", 2)


@dataclass
class Op:
    """One timed call.  ``run`` takes no arguments; ``check`` returns an error
    message for a wrong answer and None for a right one."""

    label: str
    kind: str
    field: str
    degree: int
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    name: str
    seed: int
    fields: tuple[str, ...]
    ops: list[Op]

    def shape(self) -> list[tuple[str, str, int]]:
        """Sorted (kind, field, degree) of every operation: equal for any seed."""
        return sorted((op.kind, op.field, op.degree) for op in self.ops)


def make_fields(names) -> dict[str, pp.LocalField]:
    out = {}
    for name in names:
        p, kind, poly = FIELD_SPECS[name]
        out[name] = pp.make_field(p, getattr(pp, kind), poly)
    return out


def setup(names) -> None:
    """Build the fields and fill their power-class tables."""
    for K in make_fields(names).values():
        pp.enumerate_classes(K)


# ---------------------------------------------------------------------------
# independent answer checks


def _depth(K) -> int:
    return pp.threshold_k0(K)


def _is_power(x, K) -> bool:
    return pp.oracle_is_pth_power(x, K, _depth(K))


def _check_member(F, K, report) -> Optional[str]:
    if report.verdict is not True:
        return f"expected a member, got verdict {report.verdict}"
    if not pp.oracle_decide(F, K, _depth(K)):
        return "oracle finds a non-power value of a reported member"
    return None


def _check_witness(F, K, report) -> Optional[str]:
    """A non-member verdict must name a point whose value is not a p-th
    power: the value of F there, or for a witness found on the reciprocal
    side, the value of the reciprocal of F's p-th-power-free part."""
    if report.counterexample is None:
        return "non-member verdict without a counterexample"
    a = report.counterexample[0]
    value = F(a)
    if value and not _is_power(value, K):
        return None
    mirrored = pp.reciprocal(pp.reduce_power_free(F, K.p))(a)
    if mirrored and not _is_power(mirrored, K):
        return None
    return f"the value at the counterexample {a} is a p-th power"


def _check_decision(F, K, report) -> Optional[str]:
    if report.verdict:
        return _check_member(F, K, report)
    return _check_witness(F, K, report)


def _same_class(x, y, K) -> bool:
    return _is_power(x * y ** (K.p - 1), K)


def _check_spectrum_covers(F, K, result) -> Optional[str]:
    """Every value class met on the ring residues must be in the spectrum."""
    classes, _ = result
    if not classes:
        return "empty spectrum"
    reps = [cls.rep for cls in classes]
    for a in pp.iter_residues(K, _depth(K)):
        value = F(a)
        if value and not any(_same_class(value, r, K) for r in reps):
            return f"value at {a} lies in no reported class"
    return None


def _check_nonic(F, K, result) -> Optional[str]:
    classes, attains_zero = result
    if attains_zero:
        return "the nonic spectrum claims the value 0"
    want = [K.element(1), K.element(4)]
    reps = [cls.rep for cls in classes]
    if len(reps) != 2 or not all(any(_same_class(r, w, K) for r in reps) for w in want):
        return "the nonic spectrum is not {class(1), class(4)}"
    return None


# ---------------------------------------------------------------------------
# generators


def _draw_poly(rng: random.Random, K, degree: int, accept) -> Any:
    """One polynomial of the given degree with integer coefficients in
    [-10, 10], as in the fixture distribution, that satisfies
    ``accept(coeffs)``."""
    while True:
        coeffs = [rng.randint(-HEIGHT, HEIGHT) for _ in range(degree + 1)]
        if accept(coeffs):
            return pp.IntPoly(K, coeffs)


def _decide_op(label, kind, name, K, F, check=_check_decision) -> Op:
    return Op(
        label=label,
        kind=kind,
        field=name,
        degree=F.degree,
        run=lambda: pp.decide_CK(F, K),
        check=lambda r: check(F, K, r),
    )


def _light(coeffs, p: int) -> bool:
    """Unit leading coefficient and p-adic valuation of the integer
    discriminant resultant Res(F, F') at most MAX_DISC_ORD (a zero resultant,
    from a repeated factor, is allowed).  Both are properties of F alone."""
    if coeffs[-1] % p == 0:
        return False
    F = pp.IntPoly(pp.make_field(p, pp.BASE), coeffs)
    disc = pp.resultant(F, F.derivative()).coords[0]
    v = 0
    while disc and disc % p == 0 and v <= MAX_DISC_ORD:
        disc //= p
        v += 1
    return v <= MAX_DISC_ORD


def build_suite(seed: int) -> Workload:
    """decide_CK on random polynomials over the five fixture fields.

    Light stratum: SUITE_PER_FIELD polynomials per field that pass _light,
    the same number of each degree from 1 to MAX_DEGREE (the fixture
    distribution draws the degree uniformly).
    The rest of the distribution has a heavy tail (single decisions of up
    to 77 s), so only one slice of it is kept, as the tail stratum: the 16
    linear Q_5 polynomials 5x + a with 0 < |a| < 10 and 5 not dividing a.
    Their ring-root search runs to a depth set by the internally rescaled
    discriminant, which is the Q_5 root-search tail.
    """
    rng = random.Random(f"suite:{seed}")
    fields = make_fields(SUITE_FIELDS)
    ops = []
    for name in SUITE_FIELDS:
        K = fields[name]
        for i in range(SUITE_PER_FIELD):
            degree = 1 + i % MAX_DEGREE
            F = _draw_poly(rng, K, degree, lambda cs: _light(cs, K.p))
            ops.append(_decide_op(f"{name}#{i}", "decide_CK", name, K, F))
    # the whole slice, not a seeded sample: the 16 cases differ in cost by
    # a factor of 1.8, so a sample of them would make wall_s depend on the seed
    Q5 = fields["Q5"]
    for a in range(-HEIGHT + 1, HEIGHT):
        if a % 5:
            F = pp.IntPoly(Q5, (a, 5))
            ops.append(_decide_op(f"Q5-tail a={a}", "decide_CK-tail", "Q5", Q5, F))
    rng.shuffle(ops)
    return Workload("suite", seed, SUITE_FIELDS, ops)


def build_members(seed: int) -> Workload:
    """Deep scans of members: make_ck_not_power over five fields and both
    deciders on make_cz_not_ck over the five fixture fields.

    The constructions have no free parameter, so the seed only orders the
    operations.  Scaling the inputs by a seeded unit c^p would keep every
    answer, but it moves the cost of the linear unit-table scan in
    is_pth_power by up to a third, which would make the cost depend on the
    seed.
    """
    rng = random.Random(f"members:{seed}")
    names = WORKLOAD_FIELDS["members"]
    fields = make_fields(names)
    ops = []
    for name, ms in MEMBER_FAMILY:
        K = fields[name]
        for m in ms:

            def run(K=K, m=m):
                return pp.decide_CK(pp.make_ck_not_power(K, m), K)

            def check(r, K=K, m=m):
                return _check_member(pp.make_ck_not_power(K, m), K, r)

            degree = K.p * K.p
            ops.append(Op(f"ck-not-power {name} m={m}", "ck-member", name, degree, run, check))
    for name in CZ_FIELDS:
        K = fields[name]
        F = pp.make_cz_not_ck(K)
        ops.append(
            Op(
                f"cz-not-ck {name} decide_CZ",
                "cz-member",
                name,
                F.degree,
                lambda F=F, K=K: pp.decide_CZ(F, K),
                lambda r, F=F, K=K: _check_member(F, K, r),
            )
        )
        ops.append(
            _decide_op(
                f"cz-not-ck {name} decide_CK",
                "cz-not-ck",
                name,
                K,
                F,
                lambda F, K, r: _check_witness(F, K, r) if not r.verdict else "C_K verdict True",
            )
        )
    rng.shuffle(ops)
    return Workload("members", seed, names, ops)


def build_spectrum(seed: int) -> Workload:
    """class_spectrum on the criterion-5 nonic and on make_ck_not_power + pi.
    As in build_members, the seed only orders the operations."""
    rng = random.Random(f"spectrum:{seed}")
    names = WORKLOAD_FIELDS["spectrum"]
    fields = make_fields(names)
    ops = []
    Q3 = fields["Q3"]
    nonic = pp.IntPoly(Q3, NONIC)
    ops.append(
        Op(
            "nonic Q3",
            "nonic",
            "Q3",
            nonic.degree,
            lambda: pp.class_spectrum(nonic, Q3),
            lambda r: _check_nonic(nonic, Q3, r),
        )
    )
    for name, ms in SPECTRUM_FAMILY:
        K = fields[name]
        for m in ms:
            pi = pp.IntPoly(K, (K.uniformizer(),))
            F = pp.make_ck_not_power(K, m) + pi
            ops.append(
                Op(
                    f"ck-not-power+pi {name} m={m}",
                    "spectrum",
                    name,
                    F.degree,
                    lambda F=F, K=K: pp.class_spectrum(F, K),
                    lambda r, F=F, K=K: _check_spectrum_covers(F, K, r),
                )
            )
    rng.shuffle(ops)
    return Workload("spectrum", seed, names, ops)


def build_perturbed(seed: int) -> Workload:
    """stability_radius, then decide_CK on perturbations above the radius
    (criterion 9).  Each perturbation adds pi^(radius+1) times a seeded unit
    to every coefficient, so every seed gives coefficients of the same size:
    1,552 bits over Q_3."""
    rng = random.Random(f"perturbed:{seed}")
    names = WORKLOAD_FIELDS["perturbed"]
    fields = make_fields(names)
    ops = []
    for name, m, count in PERTURBED_BASES:
        K = fields[name]
        F = pp.make_ck_not_power(K, m)
        radius = pp.stability_radius(F, K)
        ops.append(
            Op(
                f"stability_radius {name} m={m}",
                "radius",
                name,
                F.degree,
                lambda F=F, K=K: pp.stability_radius(F, K),
                lambda r, radius=radius: None if r == radius else f"radius {r} != {radius}",
            )
        )
        shift = K.uniformizer() ** (radius + 1)
        units = [u for u in range(-3, 4) if u % K.p]
        for i in range(count):
            delta = [shift * rng.choice(units) for _ in range(F.degree + 1)]
            G = F + pp.IntPoly(K, delta)
            ops.append(
                _decide_op(f"perturbed {name} m={m} #{i}", "perturbed", name, K, G, _check_member)
            )
    rng.shuffle(ops)
    return Workload("perturbed", seed, names, ops)


BUILDERS = {
    "suite": build_suite,
    "members": build_members,
    "spectrum": build_spectrum,
    "perturbed": build_perturbed,
}


def run_defect_probe() -> str:
    """Outcome of the known-failing member, as one line of text."""
    name, m = DEFECT_PROBE
    K = make_fields([name])[name]
    try:
        report = pp.decide_CK(pp.make_ck_not_power(K, m), K)
    except pp.PadicError as exc:
        return f"raised {type(exc).__name__}"
    return f"verdict {report.verdict}"
