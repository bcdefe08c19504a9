"""Fast self-test of the benchmark harness (about 5 s).

    python3 bench/smoke.py

Checks that the driving code calls the library only through names in
``padicpowers.__all__`` with default keyword arguments, that two seeds give
every workload the same shape, and that the tracer's self times add up and
``uninstall`` restores every wrapped function.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import padicpowers as pp  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

DRIVING_CODE = ("run.py", "workloads.py")


def check_public_api() -> list[str]:
    """Every ``pp.name`` in the driving code is exported, and no call into
    the package passes a keyword argument."""
    errors = []
    public = set(pp.__all__)
    for filename in DRIVING_CODE:
        tree = ast.parse((HERE / filename).read_text(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "pp" and node.attr not in public:
                    errors.append(f"{filename}:{node.lineno}: pp.{node.attr} is not in __all__")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func.value
                if isinstance(target, ast.Name) and target.id == "pp" and node.keywords:
                    errors.append(f"{filename}:{node.lineno}: keyword argument to pp.{node.func.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("padicpowers"):
                errors.append(f"{filename}:{node.lineno}: import the package as pp instead")
    return errors


def check_shapes() -> list[str]:
    errors = []
    for name, build in workloads.BUILDERS.items():
        a, b = build(1), build(2)
        if a.shape() != b.shape() or a.fields != b.fields:
            errors.append(f"{name}: seeds 1 and 2 give different workload shapes")
        if name == "suite" and not all(1 <= op.degree <= workloads.MAX_DEGREE for op in a.ops):
            errors.append("suite: a polynomial outside the degree range")
    return errors


def check_tracer() -> list[str]:
    errors = []
    K = pp.make_field(2, pp.BASE)
    F = pp.IntPoly(K, (9, 0, 4, 0, 4))
    originals = (pp.decide_CK, pp.IntPoly.__call__, pp.OKElem.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        report, _ = tracer.run_op("quartic", lambda: pp.decide_CK(F, K))
    finally:
        tracer.uninstall()
    if report.verdict is not True:
        errors.append("traced decide_CK gave the wrong verdict")
    if tracer.calls["decide.decide_CK"] != 1 or not tracer.calls["polyring.eval"]:
        errors.append("tracer missed decide_CK or polynomial evaluation")
    errors += tracer.check()
    if (pp.decide_CK, pp.IntPoly.__call__, pp.OKElem.__mul__) != originals:
        errors.append("uninstall left a wrapper in place")
    return errors


def main() -> int:
    errors = check_public_api() + check_shapes() + check_tracer()
    for line in errors:
        print(f"FAIL: {line}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
