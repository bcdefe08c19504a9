"""One sha256 over the library's outputs on seeded inputs.

    python3 tools/report_digest.py --seed 7

Over Q_2, Q_3, Q_5, Q_2(sqrt 2), the unramified quadratic U_2 and
Q_3(sqrt -3), it draws seeded polynomials and records, exceptions included:

- resultant in both argument orders, and Res(F, F')
- squarefree_decompose and reduce_power_free
- the ring-root report of every square-free factor
- decide_CK, decide_CZ (on the power-free part) and class_spectrum
- stability_radius, witness_bounds and krasner_upper_bound
- is_perfect_pth_power_poly of each of those polynomials and of G^p for a
  seeded G
- over Q_3 and Q_2(sqrt 2), decide_CK and stability_radius of a seeded
  perturbation of make_ck_not_power (m = 2 and 5) above its stability
  radius
- over Q_3 and Q_2(sqrt 2), the decomposition, power-free part, decide_CK,
  witness_bounds and krasner_upper_bound of wide polynomials, 700 to 1,700
  bits, built from Eisenstein ones: a G1^2 G2, a square-free F whose
  ord Res(F, F') is past every working precision tried, and F whose
  leading coefficient or content is divisible by the first one,
  p^N >= 2^64
- over those six fields and Q_2(t), t^2 + 2t + 6 = 0, is_pth_power, the
  class_of label and reduce_mod at depths 1, k0 and v + k0 of seeded
  pi^v * u, for v = 0 .. 2p + e and one v >= 100, where u is a unit with
  wide coordinates or the p-th power of one

and prints the sha256 of their canonical serialization.  Two checkouts that
print the same digest for a seed give the same outputs on all of it, so a
change meant to keep outputs can be checked by running this on both.  Run
it from the root of a source checkout; it imports the package from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import padicpowers as pp  # noqa: E402

FIELDS = {
    "Q2": (2, pp.BASE, None),
    "Q3": (3, pp.BASE, None),
    "Q5": (5, pp.BASE, None),
    "E2": (2, pp.EISENSTEIN, (-2, 0, 1)),
    "U2": (2, pp.UNRAMIFIED, (1, 1, 1)),
    "E3": (3, pp.EISENSTEIN, (3, 0, 1)),
}
# the fields whose make_ck_not_power(K, m) is perturbed above its radius,
# and that get wide polynomials
PERTURBED = {"Q3": 2, "E2": 5}
# the fields of the power-class records: FIELDS and an Eisenstein field
# whose defining polynomial has g_0 / p = 3 and a nonzero middle coefficient
POWER_FIELDS = {**FIELDS, "E2w3": (2, pp.EISENSTEIN, (6, 2, 1))}


def canon(x):
    """A JSON-ready form of an output; integers as hex, sets sorted."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return hex(x)
    if isinstance(x, pp.OKElem):
        return ["el", [hex(n) for n in x.coords]]
    if isinstance(x, pp.IntPoly):
        return ["poly", [canon(c) for c in x.coeffs]]
    if isinstance(x, Fraction):
        return ["frac", hex(x.numerator), hex(x.denominator)]
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, tuple) and hasattr(x, "_fields"):  # a report record
        return [type(x).__name__] + [canon(y) for y in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(y) for y in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(y) for y in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def outcome(fn, *args):
    """The canonical result of fn(*args), or of the exception it raised."""
    try:
        return canon(fn(*args))
    except Exception as exc:  # every outcome counts, errors included
        details = getattr(exc, "details", {})
        return ["raise", type(exc).__name__, str(exc), canon(sorted(details.items()))]


def draw(rng: random.Random, K, degree: int, bits: int, sparse: bool):
    """A degree-`degree` polynomial with coordinates below 2^bits, most of
    them zero when sparse."""

    def coeff():
        if sparse and rng.random() < 0.6:
            return (0,) * K.degree
        return tuple(rng.randint(-(2**bits), 2**bits) for _ in range(K.degree))

    lead = tuple(rng.choice((-3, -1, 1, 2, 3)) for _ in range(K.degree))
    return pp.IntPoly(K, [coeff() for _ in range(degree)] + [lead])


def eisenstein(rng: random.Random, K, degree: int, bits: int, top=1):
    """top x^degree plus pi times coordinates below 2^bits, with a constant
    term of ord 1: Eisenstein, so irreducible, when top is a unit."""
    pi = K.uniformizer()

    def wide():
        return K.element([rng.randint(-(2**bits), 2**bits) for _ in range(K.degree)])

    rest = [pi * wide() for _ in range(degree - 1)]
    return pp.IntPoly(K, [pi * (1 + pi * wide())] + rest + [top])


def wide_polys(rng: random.Random, K):
    """The wide polynomials over K.  The working precision certifies the
    one with leading coefficient 3 p^N, wide enough to reach p^N >= 2^128,
    and passes the others on to the exact decomposition."""
    p = K.p
    q = K.element(p)
    first = q ** next(N for N in range(1, 65) if p**N >= 2**64)
    A = eisenstein(rng, K, 2, 400)
    # A and A + pi p^k, p^k >= 2^300, have roots close enough that
    # ord Res(F, F') is past the widest precision tried, p^N >= 2^128
    close = A + K.uniformizer() * q ** next(k for k in range(1, 301) if p**k >= 2**300)
    return [
        eisenstein(rng, K, 2, 300) ** 2 * eisenstein(rng, K, 2, 300),
        A * close * eisenstein(rng, K, 2, 800),
        eisenstein(rng, K, 3, 700, first),
        eisenstein(rng, K, 3, 1100, first * 3),
        eisenstein(rng, K, 3, 700) * first,
    ]


def field_items(name: str, rng: random.Random):
    p, kind, poly = FIELDS[name]
    K = pp.make_field(p, kind, poly)
    # resultants: sparse and dense pairs, large coefficients, shared factors
    for m in range(7):
        for n in range(7):
            F = draw(rng, K, m, rng.choice((4, 40, 400)), rng.random() < 0.5)
            G = draw(rng, K, n, rng.choice((4, 40)), rng.random() < 0.5)
            yield outcome(pp.resultant, F, G)
            yield outcome(pp.resultant, G, F)
            if m and n:
                H = draw(rng, K, rng.randint(1, 2), 4, False)
                yield outcome(pp.resultant, F * H, G * H)
    # analyses and decisions: random polynomials, products with repeated
    # factors, and the paper's members
    polys = [
        draw(rng, K, rng.randint(1, 4), rng.choice((2, 5)), rng.random() < 0.3) for _ in range(12)
    ]
    for _ in range(4):
        A = draw(rng, K, rng.randint(1, 2), 3, False)
        B = draw(rng, K, rng.randint(1, 2), 3, False)
        polys.append(A ** rng.randint(2, p + 1) * B)
    m = K.e * p // (p - 1) + 1
    polys += [pp.make_ck_not_power(K, m), pp.make_cz_not_ck(K)]
    for F in polys:
        yield outcome(pp.resultant, F, F.derivative())
        yield outcome(pp.squarefree_decompose, F)
        yield outcome(pp.reduce_power_free, F, p)
        for G, _ in pp.squarefree_decompose(F).factors:
            yield outcome(pp.roots_in_valuation_ring, G, K)
        yield outcome(pp.decide_CK, F, K)
        yield outcome(lambda: pp.decide_CZ(pp.reduce_power_free(F, p), K))
        yield outcome(pp.class_spectrum, F, K)
        yield outcome(pp.stability_radius, F, K)
        yield outcome(pp.witness_bounds, F, K)
        yield outcome(pp.krasner_upper_bound, F, K)
        yield outcome(pp.is_perfect_pth_power_poly, F, p)
        G = draw(rng, K, rng.randint(1, 2), 3, rng.random() < 0.3)
        yield outcome(pp.is_perfect_pth_power_poly, G**p, p)
    if name in PERTURBED:
        F = pp.make_ck_not_power(K, PERTURBED[name])
        shift = K.uniformizer() ** (pp.stability_radius(F, K) + 1)
        delta = [K.element([rng.randint(-3, 3) for _ in range(K.degree)]) for _ in F.coeffs]
        G = F + pp.IntPoly(K, [shift * c for c in delta])
        yield outcome(pp.decide_CK, G, K)
        yield outcome(pp.stability_radius, G, K)
        for F in wide_polys(rng, K):
            yield outcome(pp.squarefree_decompose, F)
            yield outcome(pp.reduce_power_free, F, p)
            yield outcome(pp.decide_CK, F, K)
            yield outcome(pp.witness_bounds, F, K)
            yield outcome(pp.krasner_upper_bound, F, K)


def power_items(name: str, rng: random.Random):
    p, kind, poly = POWER_FIELDS[name]
    K = pp.make_field(p, kind, poly)
    pi, k0 = K.uniformizer(), pp.threshold_k0(K)

    def unit():
        while True:
            u = K.element([rng.randint(-(2**64), 2**64) for _ in range(K.degree)])
            if u.is_unit():
                return u

    for v in list(range(2 * p + K.e + 1)) + [rng.randint(100, 120)]:
        for x in (pi**v * unit(), pi**v * unit() ** p):
            yield outcome(pp.is_pth_power, x, K)
            yield outcome(lambda: pp.class_of(x, K).label())
            for depth in (1, k0, v + k0):
                yield outcome(pp.reduce_mod, x, K, depth)


def items(seed: int):
    """Every record of the digest, in order."""
    for name in FIELDS:
        yield from field_items(name, random.Random(f"digest:{seed}:{name}"))
    for name in POWER_FIELDS:
        yield from power_items(name, random.Random(f"digest:{seed}:powers:{name}"))


def digest(seed: int) -> str:
    h = hashlib.sha256()
    for item in items(seed):
        h.update(json.dumps(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    print(digest(parser.parse_args().seed))


if __name__ == "__main__":
    main()
