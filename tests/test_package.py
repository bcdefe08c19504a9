"""The package namespace."""

from __future__ import annotations

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import padicpowers
from padicpowers import (
    BASE,
    EISENSTEIN,
    UNRAMIFIED,
    BoundsReport,
    DecisionReport,
    IntPoly,
    NecessaryConditions,
    PadicRootReport,
    PowerClassId,
    RootApproximation,
    SquareFreeDecomposition,
    class_of,
    decide_CK,
    make_field,
    necessary_conditions,
    roots_in_valuation_ring,
    squarefree_decompose,
    witness_bounds,
)


def test_package_exports_every_submodule_name():
    # cli is the command-line frontend, not part of the library
    for info in pkgutil.iter_modules(padicpowers.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"padicpowers.{info.name}")
        missing = set(getattr(module, "__all__", ())) - set(padicpowers.__all__)
        assert not missing, f"{info.name}: {sorted(missing)}"


def test_import_loads_neither_dataclasses_nor_inspect():
    # the report records are NamedTuples: a fresh interpreter that imports
    # the package does not import dataclasses, nor inspect through it
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import padicpowers\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(padicpowers.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


RECORD_FIELDS = {
    BoundsReport: ("kras_upper", "max_ord_bound", "cardA_log_p", "pejkovic_log_p"),
    DecisionReport: (
        "verdict",
        "class_tested",
        "M",
        "final_m",
        "witness_count",
        "counterexample",
        "m_history",
    ),
    RootApproximation: ("truncation", "precision", "certified_by_hensel"),
    PadicRootReport: ("exists", "roots", "search_depth_used"),
    PowerClassId: ("j", "unit_index", "unit_rep", "rep"),
    SquareFreeDecomposition: ("lc", "factors", "c"),
    NecessaryConditions: ("deg_ok", "lc_ord_ok", "const_is_power", "lc_is_power"),
}


def test_report_records_are_immutable_named_tuples():
    Q2 = make_field(2, BASE)
    F = IntPoly(Q2, (9, 0, 4, 0, 4))
    report = decide_CK(F, Q2)
    records = [
        report,
        witness_bounds(F, Q2),
        roots_in_valuation_ring(IntPoly(Q2, (-2, 1)), Q2),
        roots_in_valuation_ring(IntPoly(Q2, (-2, 1)), Q2).roots[0],
        class_of(Q2.element(3), Q2),
        squarefree_decompose(F),
        necessary_conditions(F, Q2),
    ]
    assert {type(r) for r in records} == set(RECORD_FIELDS)
    for record in records:
        assert record._fields == RECORD_FIELDS[type(record)]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        # equality and hash go by the fields
        rebuilt = type(record)(*record)
        assert rebuilt == record and hash(rebuilt) == hash(record) == hash(tuple(record))
        changed = record._replace(**{record._fields[-1]: "changed"})
        assert changed != record and changed[:-1] == record[:-1]
    assert repr(report).startswith("DecisionReport(verdict=True, class_tested='C_K', M=3, final_m=2,")
    assert report._replace(class_tested="C_ZK").class_tested == "C_ZK"


def test_values_cross_pickle_and_copy():
    # fields, elements, polynomials and reports are immutable, so a copy or
    # an unpickled value is rebuilt through its constructor; a field's
    # constants are rebuilt with it and belong to the new field
    Q3 = make_field(3, BASE)
    E2 = make_field(2, EISENSTEIN, (-2, 0, 1))
    U2 = make_field(2, UNRAMIFIED, (1, 1, 1))
    report = decide_CK(IntPoly(U2, ((0, 1), 0, 1)), U2)
    assert report.counterexample is not None
    values = [
        Q3,
        E2,
        U2,
        E2.element((3, -5)),
        IntPoly(E2, (E2.generator(), 0, 7)),
        report,
    ]
    for value in values:
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
    field = pickle.loads(pickle.dumps(E2))
    assert field.one().field is field and field.uniformizer() == E2.uniformizer()
