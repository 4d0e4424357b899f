"""Importing the package loads no numpy and no scipy, the command line parses
its arguments before numpy loads, and each command loads only the scipy
modules of the solvers it calls.  Every import check runs in a fresh
interpreter, because this test process has numpy and scipy loaded already."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import tranship
from tranship import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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


def test_beckmann_grid_loads_only_csgraph(tmp_path):
    path = write_doc(tmp_path, PLAN_DOC)
    out = str(tmp_path / "report.out")
    result = run_command(["beckmann", path, "--grid", "3x1", "--out", out])
    assert result["status"] == 0
    assert "scipy.sparse.csgraph" in result["scipy"]
    for package in ("scipy.optimize", "scipy.spatial"):
        assert not loads(result["scipy"], package)


def test_beckmann_complete_graph_loads_only_csgraph(tmp_path):
    # the graph-flow route keeps scipy's Dijkstra, apart from the matching route
    path = write_doc(tmp_path, DISTINCT_DOC)
    out = str(tmp_path / "report.out")
    result = run_command(["beckmann", path, "--out", out])
    assert result["status"] == 0
    assert "scipy.sparse.csgraph" in result["scipy"]
    assert not loads(result["scipy"], "scipy.optimize")


@pytest.mark.parametrize(
    "doc, args",
    [
        (DISTINCT_DOC, ["connect"]),
        (EQUAL_DOC, ["connect"]),
        (DECOMPOSE_DOC, ["decompose"]),
        (DISTINCT_DOC, ["density", "--grid", "4x4"]),
    ],
    ids=["connect-distinct", "connect-equal", "decompose", "density-atoms"],
)
def test_flow_certified_commands_load_no_optimize(tmp_path, doc, args):
    # the matching route solves with numpy alone, and the certificate is the
    # flow's own potential: no scipy at all
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "report.out")
    result = run_command([args[0], path, *args[1:], "--out", out])
    assert result == {"status": 0, "numpy": True, "scipy": []}
    if args[0] != "density":  # density writes a raster, not a report
        assert report_warnings(out) == []


@pytest.mark.parametrize(
    "args",
    [["dual"], ["flatnorm", "--convention", "max"], ["flatnorm", "--convention", "sum"]],
    ids=["dual", "flatnorm", "flatnorm-sum"],
)
def test_lp_commands_load_optimize(tmp_path, args):
    path = write_doc(tmp_path, DISTINCT_DOC)
    out = str(tmp_path / "report.out")
    result = run_command([args[0], path, *args[1:], "--out", out])
    assert result["status"] == 0
    assert loads(result["scipy"], "scipy.optimize")
    assert report_warnings(out) == []


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
