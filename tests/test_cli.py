"""CLI parsing, exit codes and report serialization."""

from __future__ import annotations

import json
import sys
import time

import pytest

from padicpowers import (
    BASE,
    EISENSTEIN,
    IntPoly,
    constructions,
    make_field,
    oracle_decide,
    reciprocal,
    threshold_k0,
)
from padicpowers.cli import MAX_EXPONENT, _parse_poly_expr, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- polynomial expression parser


def test_expr_parser_matches_coeffs():
    Q2 = make_field(2, BASE)
    assert _parse_poly_expr("4x^4+4x^2+9", Q2) == IntPoly(Q2, (9, 0, 4, 0, 4))
    assert _parse_poly_expr("x^2 - 17", Q2) == IntPoly(Q2, (-17, 0, 1))
    assert _parse_poly_expr("-x+1", Q2) == IntPoly(Q2, (1, -1))
    assert _parse_poly_expr("2(x+1)", Q2) == IntPoly(Q2, (2, 2))
    assert _parse_poly_expr("(x+1)(x-1)", Q2) == IntPoly(Q2, (-1, 0, 1))
    assert _parse_poly_expr("3*x^2", Q2) == IntPoly(Q2, (0, 0, 3))


def test_expr_parser_extension_generator():
    E2 = make_field(2, EISENSTEIN, (-2, 0, 1))
    t = E2.generator()
    assert _parse_poly_expr("t^5 x + 1", E2) == IntPoly(E2, (E2.one(), t**5))
    assert _parse_poly_expr("x^2-t^2", E2) == IntPoly(E2, (-2, 0, 1))


def test_expr_parser_usage_errors(capsys):
    code, _, err = invoke(capsys, "decide", "--p", "2", "--poly", "x^^2")
    assert code == 64
    code, _, err = invoke(capsys, "decide", "--p", "2", "--poly", "x + y")
    assert code == 64
    assert "usage" in err


def test_exponent_limit_is_usage_error(capsys):
    # the limit is checked before expansion, so a huge exponent fails at once
    t0 = time.perf_counter()
    code, _, err = invoke(capsys, "decide", "--p", "2", "--poly", "x^99999999999")
    assert time.perf_counter() - t0 < 5
    assert code == 64
    assert "exponent limit" in err
    # nested powers are bounded by the degree they would reach
    code, _, err = invoke(capsys, "decide", "--p", "2", "--poly", "((x+1)^32)^33")
    assert code == 64
    Q2 = make_field(2, BASE)
    assert _parse_poly_expr(f"x^{MAX_EXPONENT}", Q2).degree == MAX_EXPONENT


def test_paper_member_round_trips_through_the_cli(capsys):
    # construct prints the p = 23 member, of degree 529, which decide
    # parses under the exponent limit and decides as a member
    code, printed, err = invoke(capsys, "construct", "ck-not-power", "--p", "23", "--m", "2")
    assert code == 0, err
    assert "x^529" in printed
    payload = payload_of(
        capsys, "decide", "--p", "23", "--poly", printed.strip(), "--budget", str(10**40), "--json"
    )
    assert payload["verdict"] is True


# --- exit codes


def test_exit_code_zero_even_when_verdict_false(capsys):
    code, out, _ = invoke(capsys, "decide", "--p", "2", "--coeffs", "1,8", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] is False


def test_witness_far_from_an_exact_root_exits_zero(capsys):
    # x (x - 2^60) needs a witness 58 levels from its roots
    code, out, _ = invoke(
        capsys, "decide", "--p", "2", "--poly", "x^2-1152921504606846976x", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] is False


def test_exit_code_precondition(capsys):
    code, out, err = invoke(
        capsys, "decide", "--p", "2", "--ring", "integers", "--coeffs", "0,0,1", "--json"
    )
    assert code == 2
    assert json.loads(out)["error"]["reason"] == "not-power-free"
    assert "not-power-free" in err


def test_exit_code_budget(capsys):
    # the quartic's root node splits, so its scan visits 3 nodes by level 1
    code, out, _ = invoke(
        capsys,
        "decide", "--p", "2", "--ring", "integers", "--poly", "4x^4+4x^2+9",
        "--budget", "1", "--json",
    )
    assert code == 3
    error = json.loads(out)["error"]
    assert error["reason"] == "scan-budget-exceeded"
    assert error["details"] == {"nodes": "3", "budget": "1"}


def test_paper_members_decide_at_the_default_budget(capsys):
    # make_ck_not_power(Q_p, 2) decides as a member with final_m = p at the
    # default budget, which counts the few nodes its scans visit; the oracle
    # checks independently that F and its reciprocal take p-th-power values
    # at every residue modulo p^k0
    for p in (5, 7, 11, 13, 23):
        field = make_field(p, BASE)
        F = constructions.make_ck_not_power(field, 2)
        expr = f"(1+{p}x^{p})^{p}+{p * p}"
        assert _parse_poly_expr(expr, field) == F
        payload = payload_of(capsys, "decide", "--p", str(p), "--poly", expr, "--json")
        assert (payload["verdict"], payload["final_m"]) == (True, p)
        k0 = threshold_k0(field)
        assert oracle_decide(F, field, k0) and oracle_decide(reciprocal(F), field, k0)


def test_exit_code_resource_cap(capsys):
    # the 2^20 residues of the approximation's p-th power table exceed the
    # residue cap: a resource limit, not a failed precondition
    code, out, err = invoke(
        capsys, "approximate", "--p", "2", "--coeffs", "9,0,4,0,4", "--n", "20", "--json"
    )
    assert code == 3
    assert json.loads(out)["error"]["reason"] == "k-too-large-for-memory"
    assert "k-too-large-for-memory" in err


def test_resource_cap_error_names_its_size(capsys):
    # the refusal names 3^3000000 instead of printing it, and comes at once
    started = time.monotonic()
    code, out, err = invoke(
        capsys, "approximate", "--p", "3", "--coeffs", "1,27", "--n", "3000000", "--json"
    )
    assert code == 3
    assert time.monotonic() - started < 1
    error = json.loads(out)["error"]
    assert error["reason"] == "k-too-large-for-memory"
    assert error["details"]["count"] == "3^3000000"
    assert len(out) + len(err) < 500


def test_exit_code_lift_search_cap(capsys, monkeypatch):
    # the approximation's search passing its node cap is a resource limit
    monkeypatch.setattr(constructions, "_NODE_CAP", 0)
    code, out, _ = invoke(capsys, "approximate", "--p", "2", "--poly", "4x^4+4x^2+9", "--n", "3", "--json")
    assert code == 3
    assert json.loads(out)["error"]["reason"] == "lift-search-budget-exceeded"


def test_exit_code_usage(capsys):
    assert invoke(capsys, "decide", "--p", "2")[0] == 64
    assert invoke(capsys, "unknown-command")[0] == 64
    assert invoke(capsys, "decide", "--p", "2", "--poly", "x", "--ring", "nope")[0] == 64
    for flag in (("--threads", "2"), ("--strategy", "rescan")):
        assert invoke(capsys, "decide", "--p", "2", "--poly", "x^2+7", *flag)[0] == 64
    # a budget admits no scan unless it is positive
    for budget in ("0", "-1"):
        code, _, err = invoke(
            capsys, "decide", "--p", "2", "--coeffs", "9,0,4,0,4", "--budget", budget
        )
        assert code == 64
        assert "positive integer" in err


def test_check_power_extra_coordinates_is_usage_error(capsys):
    code, out, err = invoke(capsys, "check-power", "--p", "2", "--value", "1,2", "--json")
    assert code == 64
    assert out == ""
    assert "one coordinate" in err


def test_internal_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(field):
        raise ValueError("internal fault")

    monkeypatch.setattr("padicpowers.cli.enumerate_classes", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["classes", "--p", "3"])


def test_not_prime_is_precondition(capsys):
    code, _, err = invoke(capsys, "classes", "--p", "6", "--json")
    assert code == 2
    assert "not-prime" in err


def test_large_primes_exit_on_a_resource_limit(capsys):
    # 2^61 - 1 is proven prime at once and stops at the residue cap; past
    # 3.3e24 the prime test proves nothing, an honest exit 3
    code, _, err = invoke(capsys, "check-power", "--p", str(2**61 - 1), "--value", "9")
    assert code == 3
    assert "k-too-large-for-memory" in err
    code, _, err = invoke(capsys, "classes", "--p", str(2**89 - 1), "--json")
    assert code == 3
    assert "primality-unproven" in err


# --- payloads


def test_decide_payload_shape(capsys):
    payload = payload_of(
        capsys, "decide", "--p", "2", "--poly", "4x^4+4x^2+9", "--json"
    )
    assert payload["verdict"] is True
    assert payload["class"] == "C_K"
    assert payload["field"] == {"p": 2, "e": 1, "f": 1}
    assert payload["M"] == 3
    assert payload["final_m"] == 2
    assert payload["witness_count"] == 40
    assert payload["m_history"] == [0, 2]
    assert payload["bounds"]["kras_upper"] == "14"
    assert "timing_ms" in payload


def test_spectrum_payload(capsys):
    payload = payload_of(
        capsys, "spectrum", "--p", "3", "--poly", "27x^9+54x^6+54x^3+40", "--json"
    )
    assert payload["spectrum"] == ["1", "4"]
    assert payload["attains_zero"] is False


def test_classes_payload_and_table(capsys):
    payload = payload_of(capsys, "classes", "--p", "3", "--json")
    assert len(payload["classes"]) == 9
    assert payload["classes"][0] == {"label": "1", "j": 0, "unit_rep": 1}
    code, out, _ = invoke(capsys, "classes", "--p", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 10  # header + 9 rows


def test_counterexample_payload(capsys):
    # the root -8 of the reciprocal x + 8 is reported with its class 8 Z_2,
    # whose scan fails at once, at 0, where x + 8 takes 8
    payload = payload_of(capsys, "decide", "--p", "2", "--coeffs", "1,8", "--json")
    assert payload["counterexample"] == {"point": 0, "class": "2"}


def test_extension_field_payload(capsys):
    payload = payload_of(
        capsys,
        "decide", "--p", "2", "--ext", "eis:-2,0,1", "--poly", "t^5x+1",
        "--ring", "integers", "--json",
    )
    assert payload["verdict"] is True
    assert payload["field"] == {"p": 2, "e": 2, "f": 1}


def test_construct_and_approximate_payloads(capsys):
    built = payload_of(capsys, "construct", "ck-not-power", "--p", "2", "--m", "3", "--json")
    assert built["poly"]["coeffs"] == [9, 0, 4, 0, 4]
    approx = payload_of(
        capsys, "approximate", "--p", "2", "--poly", "4x^4+4x^2+9", "--n", "3", "--json"
    )
    assert approx["n"] == 3
    assert approx["buffer"] == 3


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int digit limit"
)
def test_construct_json_past_int_digit_limit(capsys):
    # m = 9013 is the smallest m for which the constant 1 + 3^m has more than
    # the default 4300 decimal digits of int-to-str conversion
    m = 9013
    assert 3 ** (m - 1) + 1 < 10**4300 <= 3**m + 1
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "construct", "ck-not-power", "--p", "3", "--m", str(m), "--json")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload["poly"]["coeffs"][0] == 3**m + 1


def test_check_power_payload(capsys):
    yes = payload_of(capsys, "check-power", "--p", "2", "--value", "17", "--json")
    assert yes["verdict"] is True and yes["class"] == "1"
    no = payload_of(capsys, "check-power", "--p", "2", "--value", "5", "--json")
    assert no["verdict"] is False and no["class"] == "5"


def test_bounds_payload(capsys):
    payload = payload_of(capsys, "bounds", "--p", "2", "--poly", "x^2-3", "--json")
    assert payload["bounds"] == {
        "kras_upper": "1",
        "max_ord_bound": "2",
        "cardA_log_p": "4",
        "pejkovic_log_p": 4.0,
    }


def test_bounds_of_a_height_past_the_float_range(capsys):
    # x^3 + (3 * 2^1100 + 3) x + 3 (1 + 3 * 2^1100) over Q_3 exits 0
    coeffs = ",".join(map(str, (3 * (1 + 3 * 2**1100), 3 * 2**1100 + 3, 0, 1)))
    payload = payload_of(capsys, "bounds", "--p", "3", "--coeffs", coeffs, "--json")
    assert payload["bounds"]["pejkovic_log_p"] == 1.5


# --- determinism and round-trips


def _strip_timing(text: str) -> dict:
    payload = json.loads(text)
    payload.pop("timing_ms", None)
    return payload


def test_json_round_trip(capsys):
    _, out, _ = invoke(capsys, "decide", "--p", "2", "--poly", "x^2-3", "--json")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_repeated_runs_identical(capsys):
    args = ["spectrum", "--p", "3", "--poly", "27x^9+54x^6+54x^3+40", "--json"]
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert _strip_timing(first) == _strip_timing(second)
    assert json.dumps(_strip_timing(first)) == json.dumps(_strip_timing(second))
