"""Shared field fixtures and the seeded random polynomial suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from padicpowers import constructions, decide, polyring, roots
from padicpowers import (
    BASE,
    EISENSTEIN,
    UNRAMIFIED,
    IntPoly,
    is_power_free,
    make_field,
    roots_in_valuation_ring,
    squarefree_decompose,
)

SUITE_SEED = 20260814


@pytest.fixture(scope="session")
def Q2():
    return make_field(2, BASE)


@pytest.fixture(scope="session")
def Q3():
    return make_field(3, BASE)


@pytest.fixture(scope="session")
def Q5():
    return make_field(5, BASE)


@pytest.fixture(scope="session")
def E2():
    # totally ramified: x^2 - 2, the field Q_2(sqrt 2)
    return make_field(2, EISENSTEIN, (-2, 0, 1))


@pytest.fixture(scope="session")
def U2():
    # unramified quadratic: x^2 + x + 1
    return make_field(2, UNRAMIFIED, (1, 1, 1))


@pytest.fixture(scope="session")
def E2_cube():
    # totally ramified of degree 3: x^3 - 2, the field Q_2(2^(1/3))
    return make_field(2, EISENSTEIN, (-2, 0, 0, 1))


@pytest.fixture(scope="session")
def E3():
    # totally ramified: x^2 + 3, the field Q_3(sqrt -3), which contains the
    # cube roots of unity
    return make_field(3, EISENSTEIN, (3, 0, 1))


@pytest.fixture(scope="session")
def E2_w3():
    # totally ramified: x^2 + 2x + 6 over Q_2, whose constant term is 2 * 3
    # and whose middle coefficient is nonzero, so dividing by the generator
    # needs 3^-1 and the middle coefficient
    return make_field(2, EISENSTEIN, (6, 2, 1))


@pytest.fixture
def analysis_calls(monkeypatch):
    """Counts, by name, the decompositions, resultants and ring-root
    searches run from any module of the library.  Every decomposition, also
    one through the public squarefree_decompose, runs through
    polyring._squarefree_decompose, which is counted as
    "squarefree_decompose"."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = {
        "_squarefree_decompose": "squarefree_decompose",
        "resultant": "resultant",
        "_ring_roots": "_ring_roots",
    }
    for module in (constructions, decide, polyring, roots):
        for name, label in names.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(label, getattr(module, name)))
    return calls


def rootless_power_free_suite(fields, count, *, max_degree=4, height=10, seed=SUITE_SEED):
    """Deterministic sample of power-free polynomials without ring roots.

    Rejection sampling: draw integer coefficients in [-height, height] and
    keep F only when it is power-free and no square-free factor has a root
    in the valuation ring, the inputs on which criterion 11's bound on ord F
    holds.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        field = fields[rng.randrange(len(fields))]
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-height, height) for _ in range(degree + 1)]
        if not any(coeffs):
            continue
        F = IntPoly(field, coeffs)
        if F.degree == 0 or not is_power_free(F, field.p):
            continue
        if any(
            roots_in_valuation_ring(G, field).exists
            for G, _ in squarefree_decompose(F).factors
        ):
            continue
        out.append((field, F))
    return out


def scaled_units(field):
    """Elements pi^v * u for v = 0 .. 2p + e, with big signed coordinates.

    For each v, two units u have random 64-bit signed coordinates and two
    are p-th powers c^p of such units, so both verdicts of the power test
    occur.  The coordinates of pi^v * u then meet every per-coordinate
    modulus a residue key can use, not only residues below p^depth.
    """
    rng = random.Random(SUITE_SEED)
    pi = field.uniformizer()

    def unit():
        while True:
            u = field.element([rng.randint(-(2**64), 2**64) for _ in range(field.degree)])
            if u.is_unit():
                return u

    out = []
    for v in range(2 * field.p + field.e + 1):
        shift = pi**v
        for _ in range(2):
            out += [shift * unit(), shift * unit() ** field.p]
    return out
