"""Importing the package loads no scipy, and each command loads only the scipy
modules of the solvers it calls.  Every check runs in a fresh interpreter,
because this test process has scipy loaded already."""

import json
import os
import subprocess
import sys

import pytest

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


def scipy_modules_after(code: str) -> dict:
    """Run `code` in a fresh interpreter; return the scipy modules it left in
    ``sys.modules`` and the value it bound to ``status``, if any."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps({'status': globals().get('status'), 'scipy': sorted("
        "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))}))\n"
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
    return scipy_modules_after(f"from tranship.cli import run\nstatus = run({argv!r})")


def write_doc(tmp_path, payload) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_import_loads_no_scipy():
    assert scipy_modules_after("import tranship, tranship.cli")["scipy"] == []


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
    assert result == {"status": 0, "scipy": []}


def test_beckmann_grid_loads_only_csgraph(tmp_path):
    path = write_doc(tmp_path, PLAN_DOC)
    out = str(tmp_path / "report.out")
    result = run_command(["beckmann", path, "--grid", "3x1", "--out", out])
    assert result["status"] == 0
    assert "scipy.sparse.csgraph" in result["scipy"]
    for package in ("scipy.optimize", "scipy.spatial"):
        assert not loads(result["scipy"], package)


@pytest.mark.parametrize(
    "doc, command",
    [(DISTINCT_DOC, "connect"), (EQUAL_DOC, "connect"), (DECOMPOSE_DOC, "decompose")],
    ids=["connect-distinct", "connect-equal", "decompose"],
)
def test_flow_certified_commands_load_no_optimize(tmp_path, doc, command):
    # the certificate is the flow's own potential: no LP, no assignment
    path = write_doc(tmp_path, doc)
    out = str(tmp_path / "report.out")
    result = run_command([command, path, "--out", out])
    assert result["status"] == 0
    assert "scipy.sparse.csgraph" in result["scipy"]
    assert not loads(result["scipy"], "scipy.optimize")


@pytest.mark.parametrize(
    "args", [["dual"], ["flatnorm", "--convention", "max"]], ids=["dual", "flatnorm"]
)
def test_lp_commands_load_optimize(tmp_path, args):
    path = write_doc(tmp_path, DISTINCT_DOC)
    out = str(tmp_path / "report.out")
    result = run_command([args[0], path, *args[1:], "--out", out])
    assert result["status"] == 0
    assert loads(result["scipy"], "scipy.optimize")
