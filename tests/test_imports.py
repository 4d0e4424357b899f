"""Importing the package loads no numpy and no scipy, the command line parses
its arguments before numpy loads, and each command loads only the solver
modules, and the scipy modules, of the solvers it calls.  Every import check runs in a fresh
interpreter, because this test process has numpy and scipy loaded already.  The
benchmark's tracer finds every package name it wraps."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import tranship
from tranship import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")

PLAN_DOC = {
    "version": 1,
    "plan": [{"base": [1.0, 0.0], "dir": [-1.0, 0.0], "t": 1.0, "mass": 1.0}],
    "atoms": [
        {"point": [0.0, 0.0], "mass": 1.0},
        {"point": [1.0, 0.0], "mass": -1.0},
    ],
}

DISTINCT_DOC = {
    "version": 1,
    "atoms": [
        {"point": [0.0, 0.0], "mass": 0.75},
        {"point": [2.0, 0.0], "mass": 0.25},
        {"point": [1.0, 1.0], "mass": -0.5},
        {"point": [3.0, 1.0], "mass": -0.5},
    ],
}

EQUAL_DOC = {
    "version": 1,
    "atoms": [
        {"point": [0.0, 0.0], "mass": 1.0},
        {"point": [2.0, 0.0], "mass": 1.0},
        {"point": [1.0, 1.0], "mass": -1.0},
        {"point": [3.0, 1.0], "mass": -1.0},
    ],
}

DECOMPOSE_DOC = {
    "version": 1,
    "segments": [{"a": [0.0, 0.0], "b": [1.0, 0.0], "density": [1.0, 0.0]}],
    "vector_atoms": [{"point": [4.0, 0.0], "vector": [0.0, 2.0]}],
}

DIPOLE_DOC = {
    "version": 1,
    "dipoles": {"pairs": [{"p": [0.0, float(i)], "n": [2.0**-i, float(i)]} for i in range(1, 6)]},
}


def modules_after(code: str) -> dict:
    """Run `code` in a fresh interpreter; return the scipy modules it left in
    ``sys.modules``, whether numpy is among them, and the value it bound to
    ``status``, if any."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps({'status': globals().get('status'), 'numpy': 'numpy' in sys.modules,"
        " 'scipy': sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))}))\n"
    )
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run(
        [sys.executable, "-c", code + report],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def loads(modules, package) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def run_command(argv) -> dict:
    return modules_after(f"from tranship.cli import run\nstatus = run({argv!r})")


def report_warnings(out_path) -> list:
    # the commands import numpy and scipy while `run` records warnings, so an
    # import-time warning would land in the report
    with open(out_path) as fh:
        return json.load(fh)["warnings"]


def write_doc(tmp_path, payload) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_import_loads_no_scipy():
    assert modules_after("import tranship, tranship.cli")["scipy"] == []


@pytest.mark.parametrize(
    "doc, args",
    [
        (DIPOLE_DOC, ["modulus", "--eps", "0.25,0.125"]),
        (PLAN_DOC, ["plan-check"]),
        (PLAN_DOC, ["density", "--grid", "4x4"]),
    ],
    ids=["modulus", "plan-check", "density-plan"],
)
def test_commands_without_solvers_load_no_scipy(tmp_path, doc, args):
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "report.out")
    result = run_command([args[0], path, *args[1:], "--out", out])
    assert result == {"status": 0, "numpy": True, "scipy": []}


@pytest.mark.parametrize(
    "flags", [["--grid", "3x1"], ["--grid", "4x4", "--diagonals"]], ids=["axis", "diagonals"]
)
def test_beckmann_grid_loads_no_scipy(tmp_path, flags):
    # grid networks are solved in their closed-form metric with numpy alone
    path = write_doc(tmp_path, DISTINCT_DOC)
    out = str(tmp_path / "report.out")
    result = run_command(["beckmann", path, *flags, "--out", out])
    assert result == {"status": 0, "numpy": True, "scipy": []}
    assert report_warnings(out) == []


def test_beckmann_complete_graph_loads_no_scipy(tmp_path):
    # the complete network is solved by the dense numpy Dijkstra, not csgraph
    path = write_doc(tmp_path, DISTINCT_DOC)
    out = str(tmp_path / "report.out")
    result = run_command(["beckmann", path, "--out", out])
    assert result == {"status": 0, "numpy": True, "scipy": []}
    assert report_warnings(out) == []


@pytest.mark.parametrize(
    "doc, args",
    [
        (DISTINCT_DOC, ["connect"]),
        (EQUAL_DOC, ["connect"]),
        (DECOMPOSE_DOC, ["decompose"]),
        (DISTINCT_DOC, ["density", "--grid", "4x4"]),
        (DISTINCT_DOC, ["flatnorm", "--convention", "max"]),
    ],
    ids=["connect-distinct", "connect-equal", "decompose", "density-atoms", "flatnorm-max"],
)
def test_flow_certified_commands_load_no_optimize(tmp_path, doc, args):
    # the matching route and the max flat norm solve transports with numpy
    # alone, and the certificate is the flow's own potential: no scipy at all
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "report.out")
    result = run_command([args[0], path, *args[1:], "--out", out])
    assert result == {"status": 0, "numpy": True, "scipy": []}
    if args[0] != "density":  # density writes a raster, not a report
        assert report_warnings(out) == []


CELLS_DOC = {
    "version": 1,
    "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "cells": {"resolution": [1, 1], "vectors": [[0.9, 0.0]]},
}

SOLVERS = ("tranship.matchnorm", "tranship.mincostflow")


@pytest.mark.parametrize(
    "doc, args, solvers",
    [
        (PLAN_DOC, ["plan-check"], []),
        (PLAN_DOC, ["density", "--grid", "4x4"], []),
        (CELLS_DOC, ["density", "--grid", "3x3", "--format", "csv"], []),
        (DISTINCT_DOC, ["beckmann", "--grid", "3x1"], ["tranship.mincostflow"]),
        (DISTINCT_DOC, ["beckmann"], ["tranship.mincostflow"]),
        (DISTINCT_DOC, ["connect"], list(SOLVERS)),
        (DISTINCT_DOC, ["density", "--grid", "4x4"], list(SOLVERS)),
    ],
    ids=[
        "plan-check", "density-plan", "density-cells", "beckmann-grid", "beckmann-complete",
        "connect", "density-atoms",
    ],
)
def test_commands_load_only_their_solver_modules(tmp_path, doc, args, solvers):
    # the document parser loads no solver module; a command loads the ones it calls
    path = write_doc(tmp_path, doc)
    argv = [args[0], path, *args[1:], "--out", str(tmp_path / "report.out")]
    code = (
        f"import sys\nfrom tranship.cli import run\nstatus = [run({argv!r}),"
        f" sorted(m for m in sys.modules if m in {SOLVERS!r})]"
    )
    assert modules_after(code)["status"] == [0, solvers]


# scipy's HiGHS bindings, loaded from their file; pybind registers the
# bindings' submodules (``.cb``, ``.simplex_constants``) in sys.modules
HIGHS = "scipy.optimize._highspy._core"


def loads_only_highs(modules) -> bool:
    """Whether every scipy module loaded belongs to HiGHS's bindings, so no
    ``scipy.optimize`` package module, no ``scipy.linalg`` and no
    ``scipy.sparse`` is among them."""
    return all(loads([m], HIGHS) for m in modules)


@pytest.mark.parametrize(
    "args", [["dual"], ["flatnorm", "--convention", "sum"]], ids=["dual", "flatnorm-sum"]
)
def test_lp_commands_load_only_the_highs_bindings(tmp_path, args):
    path = write_doc(tmp_path, DISTINCT_DOC)
    out = str(tmp_path / "report.out")
    result = run_command([args[0], path, *args[1:], "--out", out])
    assert result["status"] == 0
    assert result["scipy"] and loads_only_highs(result["scipy"])
    assert report_warnings(out) == []


def test_selftest_loads_only_the_highs_bindings():
    # its duality suite runs the dual LP; the complete-graph flow it
    # cross-checks against needs no scipy
    result = modules_after(
        "import contextlib, io\nfrom tranship.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    status = run(['selftest'])"
    )
    assert result["status"] == 0
    assert result["scipy"] and loads_only_highs(result["scipy"])


# one LP, solved by the direct HiGHS call and by scipy.optimize.linprog; a
# fresh interpreter loads the bindings in the order given, and every solve
# reports the hex bits of its optimum, objective and iterations
LOAD_ORDER_CODE = """
import sys
import numpy as np
from tranship import matchnorm
from tranship.matchnorm import _pair_constraints

rng = np.random.default_rng(29)
n = 12
points = rng.uniform(size=(n, 2))
a, b = _pair_constraints(points, *np.nonzero(~np.eye(n, dtype=bool)))
masses = rng.uniform(0.5, 1.5, size=n)
masses -= masses.mean()
lp = dict(c=-masses[1:], A_ub=a[:, 1:], b_ub=b, bounds=[(None, None)] * (n - 1))


def bits(res):
    assert res.success, res.message
    return [res.x.tobytes().hex(), float(res.fun).hex(), int(res.nit)]


def direct():
    return bits(matchnorm.linprog(**lp))


def reference():
    from scipy.optimize import linprog

    return bits(linprog(**lp, method="highs", options=matchnorm._LP_OPTIONS))
"""


@pytest.mark.parametrize(
    "steps",
    [
        "first = direct()\nassert 'scipy.optimize' not in sys.modules\n"
        "status = [first, reference(), direct()]",
        "import scipy.optimize\nstatus = [reference(), direct(), direct()]",
    ],
    ids=["direct-first", "optimize-first"],
)
def test_direct_highs_keeps_its_bits_in_either_load_order(steps):
    solves = modules_after(LOAD_ORDER_CODE + steps)["status"]
    assert solves[0] == solves[1] == solves[2]


# the package's exports before they became lazy, by defining module
EXPORTS = {
    "beckmann": [
        "Flow", "FlowNetwork", "anisotropy_bound", "complete_network",
        "flow_to_vector_measure", "grid_network", "solve_beckmann",
    ],
    "density": ["GridDensity", "export", "rasterize_plan", "rasterize_vector_measure"],
    "errors": [
        "InfeasibleFlowError", "TailBoundError", "TranshipError",
        "UnbalancedMeasureError", "ValidationError", "VerificationError",
    ],
    "funcs": ["Coordinate", "Polynomial", "RadialBump", "polynomial_family"],
    "genplan": [
        "GeneralizedPlan", "PlanAtom", "pair_plan", "plan_from_matching",
        "plan_from_vector_measure", "ray_quotient", "split", "to_vector_measure",
        "verify_projection",
    ],
    "geom": ["Domain", "Grid"],
    "matchnorm": [
        "Matching", "Potential", "brute_force_connection", "dual_potential",
        "flat_norm", "minimal_connection",
    ],
    "measures": [
        "CellField", "DipoleChain", "Distribution", "NotAMeasure", "SignedAtomMeasure",
        "StructuredVectorMeasure", "divergence_as_measure", "from_dipoles", "pair",
    ],
    "sharpspace": [
        "Decomposition", "ModulusCurve", "TangentialSplit", "decompose",
        "distance_to_sharp", "modulus", "sharp_distance_via_plan",
        "tangential_cycle", "tangential_split", "verify_modulus_bound",
    ],
}


@pytest.mark.parametrize(
    "code, status",
    [
        ("import tranship", None),
        ("from tranship.cli import run\nstatus = run(['--help'])", 0),
        ("from tranship.cli import run\nstatus = run(['connect'])", 2),
        ("from tranship.cli import run\nstatus = run(['connect', 'x.json', '--tol-abs=nan'])", 2),
        ("from tranship.cli import run\nstatus = run(['modulus', 'x.json', '--eps=0.1,inf'])", 2),
    ],
    ids=["import", "help", "connect-without-document", "tol-abs-nan", "eps-inf"],
)
def test_no_numpy_before_a_command_runs(code, status):
    assert modules_after(code) == {"status": status, "numpy": False, "scipy": []}


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py rebinds package functions by name, private ones
    # too: a deleted or renamed one fails here, not only in the benchmark
    code = (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport tracer\n"
        "tracer.install(tracer.Tracer())\nstatus = 'installed'"
    )
    assert modules_after(code)["status"] == "installed"


def test_export_list_is_unchanged():
    assert sorted(tranship.__all__) == sorted(n for names in EXPORTS.values() for n in names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_modules_attribute(module):
    defining = importlib.import_module(f"tranship.{module}")
    for name in EXPORTS[module]:
        assert getattr(tranship, name) is getattr(defining, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tranship.no_such_name
    assert not hasattr(tranship, "_MISSING")
    # a submodule outside __all__ still imports by name
    from tranship import mincostflow

    assert mincostflow is sys.modules["tranship.mincostflow"]


def test_main_defaults_openblas_to_one_thread(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset by the test")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setattr(sys, "argv", ["tranship", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    capsys.readouterr()


def test_main_keeps_a_preset_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(sys, "argv", ["tranship", "--help"])
    with pytest.raises(SystemExit):
        cli.main()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    capsys.readouterr()


def test_run_leaves_the_environment_alone(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset by the test")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert cli.run(["--help"]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    capsys.readouterr()
