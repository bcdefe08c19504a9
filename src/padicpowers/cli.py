"""Command-line frontend.

Subcommands: decide, spectrum, classes, bounds, construct, approximate and
check-power.  Exit codes: 0 computed, 2 precondition violated, 3 budget
or resource cap exceeded, 64 usage error.  Reports go to stdout (JSON
with --json), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .constructions import approximate_on_integers, make_ck_not_power, make_cz_not_ck
from .decide import (
    DEFAULT_BUDGET,
    BoundsReport,
    DecisionReport,
    class_spectrum,
    decide_CK,
    decide_CZ,
    witness_bounds,
)
from .errors import (
    KTooLargeForMemory,
    LiftSearchBudgetExceeded,
    PadicError,
    PrimalityUnproven,
    ScanBudgetExceeded,
)
from .localfield import BASE, EISENSTEIN, UNRAMIFIED, LocalField, OKElem, make_field
from .polyring import IntPoly
from .powerclasses import class_of, enumerate_classes, is_pth_power, threshold_k0

__all__ = ["main", "run"]

# Largest exponent accepted after ^ in a polynomial expression, counted in
# degrees for a non-constant base (so nested powers are bounded too).  The
# expansion cost grows faster than the degree, and an unbounded exponent
# such as x^99999999999 would never finish expanding.  1,024 admits the
# paper's members that `construct ck-not-power` prints through p = 31, of
# degree p^2.
MAX_EXPONENT = 1024


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# input parsing


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_field(args: argparse.Namespace) -> LocalField:
    ext: Optional[str] = getattr(args, "ext", None)
    if ext is None:
        return make_field(args.p, BASE)
    head, sep, tail = ext.partition(":")
    if not sep:
        raise _UsageError("--ext must look like eis:<coeffs> or unram:<coeffs>")
    kinds = {"eis": EISENSTEIN, "unram": UNRAMIFIED}
    if head not in kinds:
        raise _UsageError(f"unknown extension kind {head!r}")
    return make_field(args.p, kinds[head], _parse_int_list(tail))


def _tokenize(text: str) -> list[object]:
    tokens: list[object] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch in "xt^*+-()":
            tokens.append(ch)
            i += 1
        else:
            raise _UsageError(f"unexpected character {ch!r} in polynomial")
    return tokens


def _parse_poly_expr(text: str, field: LocalField) -> IntPoly:
    """Recursive descent over +, -, implicit *, ^ and parentheses."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> IntPoly:
        tok = peek()
        if tok is None:
            raise _UsageError("polynomial ends unexpectedly")
        if isinstance(tok, int):
            take()
            return IntPoly(field, (tok,))
        if tok == "x":
            take()
            return IntPoly(field, (0, 1))
        if tok == "t":
            take()
            if field.kind == BASE:
                raise _UsageError("t is only meaningful over an extension field")
            return IntPoly(field, (field.generator(),))
        if tok == "(":
            take()
            inner = expr()
            if peek() != ")":
                raise _UsageError("missing closing parenthesis")
            take()
            return inner
        raise _UsageError(f"unexpected token {tok!r}")

    def power() -> IntPoly:
        base = atom()
        if peek() == "^":
            take()
            exponent = peek()
            if not isinstance(exponent, int):
                raise _UsageError("exponent must be a plain integer")
            take()
            degree = 0 if base.is_zero else base.degree
            if max(degree, 1) * exponent > MAX_EXPONENT:
                raise _UsageError(
                    f"power of degree {degree} to the {exponent} exceeds the "
                    f"exponent limit {MAX_EXPONENT}"
                )
            return base**exponent
        return base

    def term() -> IntPoly:
        value = power()
        while True:
            tok = peek()
            if tok == "*":
                take()
                value = value * power()
            elif isinstance(tok, int) or tok in ("x", "t", "("):
                value = value * power()
            else:
                return value

    def expr() -> IntPoly:
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        value = term() * IntPoly(field, (sign,))
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            value = value - rhs if op == "-" else value + rhs
        return value

    result = expr()
    if pos != len(tokens):
        raise _UsageError(f"trailing input after polynomial: {tokens[pos:]!r}")
    return result


def _parse_poly(args: argparse.Namespace, field: LocalField) -> IntPoly:
    if getattr(args, "coeffs", None) is not None:
        return IntPoly(field, _parse_int_list(args.coeffs))
    if getattr(args, "poly", None) is not None:
        return _parse_poly_expr(args.poly, field)
    raise _UsageError("one of --poly or --coeffs is required")


# ---------------------------------------------------------------------------
# serialization


def _ser_elem(x: OKElem):
    if x.field.kind == BASE:
        return x.coords[0]
    return list(x.coords)


def _ser_rational(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    return value


def _ser_poly(F: IntPoly) -> dict:
    return {"coeffs": [_ser_elem(c) for c in F.coeffs], "str": str(F)}


def _ser_bounds(bounds: Optional[BoundsReport]):
    if bounds is None:
        return None
    payload = {
        "kras_upper": _ser_rational(bounds.kras_upper),
        "max_ord_bound": _ser_rational(bounds.max_ord_bound),
        "cardA_log_p": _ser_rational(bounds.cardA_log_p),
    }
    if bounds.pejkovic_log_p is not None:
        payload["pejkovic_log_p"] = bounds.pejkovic_log_p
    return payload


def _field_payload(field: LocalField) -> dict:
    return {"p": field.p, "e": field.e, "f": field.f}


def _decision_payload(report: DecisionReport, field: LocalField) -> dict:
    payload = {
        "verdict": report.verdict,
        "class": report.class_tested,
        "field": _field_payload(field),
        "M": report.M,
        "final_m": report.final_m,
        "witness_count": report.witness_count,
    }
    if report.counterexample is not None:
        point, cls = report.counterexample
        payload["counterexample"] = {"point": _ser_elem(point), "class": cls.label()}
    payload["m_history"] = list(report.m_history)
    payload["bounds"] = _ser_bounds(report.bounds)
    return payload


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the arguments and the parsed field and
# returns the JSON payload and the text lines of its report


def _cmd_decide(args, field: LocalField) -> tuple[dict, list[str]]:
    F = _parse_poly(args, field)
    decider = decide_CK if args.ring == "field" else decide_CZ
    report = decider(F, field, budget=args.budget)
    lines = [
        f"verdict: {str(report.verdict).lower()} ({report.class_tested})",
        f"final_m: {report.final_m}  witnesses: {report.witness_count}",
    ]
    if report.counterexample is not None:
        point, cls = report.counterexample
        lines.append(f"counterexample: F({point}) lies in class {cls.label()}")
    return _decision_payload(report, field), lines


def _cmd_spectrum(args, field: LocalField) -> tuple[dict, list[str]]:
    F = _parse_poly(args, field)
    classes, attains_zero = class_spectrum(F, field, budget=args.budget)
    labels = [cls.label() for cls in sorted(classes, key=lambda c: c.sort_key)]
    payload = {
        "field": _field_payload(field),
        "spectrum": labels,
        "attains_zero": attains_zero,
    }
    lines = [
        "spectrum: " + ", ".join(labels),
        f"attains zero: {str(attains_zero).lower()}",
    ]
    return payload, lines


def _cmd_classes(args, field: LocalField) -> tuple[dict, list[str]]:
    classes = enumerate_classes(field)
    payload = {
        "field": _field_payload(field),
        "classes": [
            {"label": cls.label(), "j": cls.j, "unit_rep": _ser_elem(cls.unit_rep)}
            for cls in classes
        ],
    }
    lines = [f"{'class':>12}  {'j':>2}  unit"]
    for cls in classes:
        lines.append(f"{cls.label():>12}  {cls.j:>2}  {cls.unit_rep}")
    return payload, lines


def _cmd_bounds(args, field: LocalField) -> tuple[dict, list[str]]:
    F = _parse_poly(args, field)
    bounds = witness_bounds(F, field)
    payload = {"field": _field_payload(field), "bounds": _ser_bounds(bounds)}
    lines = [
        f"kras_upper: {bounds.kras_upper}",
        f"max_ord_bound: {bounds.max_ord_bound}",
        f"cardA_log_p: {bounds.cardA_log_p}",
        f"pejkovic_log_p: {bounds.pejkovic_log_p}",
    ]
    return payload, lines


def _cmd_construct(args, field: LocalField) -> tuple[dict, list[str]]:
    if args.family == "cz-not-ck":
        F = make_cz_not_ck(field)
    else:
        if args.m is None:
            raise _UsageError("ck-not-power requires --m")
        F = make_ck_not_power(field, args.m)
    return {"field": _field_payload(field), "poly": _ser_poly(F)}, [str(F)]


def _cmd_approximate(args, field: LocalField) -> tuple[dict, list[str]]:
    F = _parse_poly(args, field)
    if args.n < 1:
        raise _UsageError("--n must be a positive integer")
    G = approximate_on_integers(F, field, args.n)
    payload = {
        "field": _field_payload(field),
        "n": args.n,
        "buffer": threshold_k0(field),
        "poly": _ser_poly(G),
    }
    return payload, [str(G)]


def _cmd_check_power(args, field: LocalField) -> tuple[dict, list[str]]:
    try:
        x = field.element(_parse_int_list(args.value))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    verdict = is_pth_power(x, field)
    payload = {
        "verdict": verdict,
        "field": _field_payload(field),
        "value": _ser_elem(x),
        "class": class_of(x, field).label() if x else "0",
    }
    return payload, [f"verdict: {str(verdict).lower()} (class {payload['class']})"]


# ---------------------------------------------------------------------------
# argument wiring


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="residue characteristic")
    sub.add_argument("--ext", help="extension: eis:<coeffs> or unram:<coeffs>, low degree first")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def _add_poly_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--poly", help="ASCII expression in x (and t over extensions)")
    group.add_argument("--coeffs", help="comma-separated integer coefficients, low degree first")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _add_scan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)


def _build_parser() -> _Parser:
    parser = _Parser(prog="padic-powers", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    decide = subs.add_parser("decide", help="decide membership in C_K or C_ZK")
    _add_field_flags(decide)
    _add_poly_flags(decide)
    _add_scan_flags(decide)
    decide.add_argument("--ring", choices=("field", "integers"), default="field")
    decide.set_defaults(handler=_cmd_decide)

    spectrum = subs.add_parser("spectrum", help="power classes attained on the ring")
    _add_field_flags(spectrum)
    _add_poly_flags(spectrum)
    _add_scan_flags(spectrum)
    spectrum.set_defaults(handler=_cmd_spectrum)

    classes = subs.add_parser("classes", help="enumerate the power-class fan")
    _add_field_flags(classes)
    classes.set_defaults(handler=_cmd_classes)

    bounds = subs.add_parser("bounds", help="witness bounds for a rootless polynomial")
    _add_field_flags(bounds)
    _add_poly_flags(bounds)
    bounds.set_defaults(handler=_cmd_bounds)

    construct = subs.add_parser("construct", help="emit a canonical example polynomial")
    construct.add_argument("family", choices=("cz-not-ck", "ck-not-power"))
    construct.add_argument("--m", type=int)
    _add_field_flags(construct)
    construct.set_defaults(handler=_cmd_construct)

    approximate = subs.add_parser("approximate", help="polynomial p-th root on the integers")
    _add_field_flags(approximate)
    _add_poly_flags(approximate)
    approximate.add_argument("--n", type=int, required=True)
    approximate.set_defaults(handler=_cmd_approximate)

    check = subs.add_parser("check-power", help="test one ring element for p-th power")
    _add_field_flags(check)
    check.add_argument("--value", required=True, help="integer, or coordinates over an extension")
    check.set_defaults(handler=_cmd_check_power)

    return parser


def _report_error(exc: PadicError, as_json: bool) -> None:
    sys.stderr.write(f"error ({exc.reason}): {exc}\n")
    if as_json:
        payload = {"error": {"reason": exc.reason, "message": str(exc)}}
        if exc.details:
            payload["error"]["details"] = {k: str(v) for k, v in exc.details.items()}
        sys.stdout.write(json.dumps(payload) + "\n")


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    Reports carry exact integers, which can exceed the interpreter's limit on
    int-to-str digits (construct ck-not-power --p 3 --m 9013 does), so the
    limit is lifted for the command and restored afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreter without the limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error (usage): {exc}\n")
        return 64
    as_json = getattr(args, "json", False)
    started = time.monotonic()
    try:
        payload, lines = args.handler(args, _parse_field(args))
    except _UsageError as exc:
        sys.stderr.write(f"error (usage): {exc}\n")
        return 64
    except (
        ScanBudgetExceeded,
        KTooLargeForMemory,
        LiftSearchBudgetExceeded,
        PrimalityUnproven,
    ) as exc:
        _report_error(exc, as_json)
        return 3
    except PadicError as exc:
        _report_error(exc, as_json)
        return 2
    payload["timing_ms"] = int((time.monotonic() - started) * 1000)
    if as_json:
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
