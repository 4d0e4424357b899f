import json
import math

import numpy as np
import pytest

from tranship import cli
from tranship.cli import run
from tranship.document import load_document, parse_document
from tranship.errors import ValidationError
from tranship.geom import dists
from tranship.matchnorm import minimal_connection
from tranship.testing import random_balanced_measure


def write_doc(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


UNIT_DIPOLE_DOC = {
    "version": 1,
    "atoms": [
        {"point": [0.0, 0.0], "mass": 1.0},
        {"point": [1.0, 0.0], "mass": -1.0},
    ],
}


class TestDocument:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = dict(UNIT_DIPOLE_DOC)
        doc["atomz"] = []
        with pytest.raises(ValidationError, match="atomz"):
            parse_document(doc)

    def test_unknown_nested_key_rejected(self):
        doc = {"version": 1, "atoms": [{"point": [0, 0], "mass": 1.0, "extra": 2}]}
        with pytest.raises(ValidationError, match="extra"):
            parse_document(doc)

    def test_version_required(self):
        with pytest.raises(ValidationError, match="version"):
            parse_document({"atoms": []})

    def test_domain_is_padded_bbox_when_omitted(self):
        doc = parse_document(UNIT_DIPOLE_DOC)
        assert doc.domain.contains([0.0, 0.0]) and doc.domain.contains([1.0, 0.0])
        assert doc.domain.lower[0] < 0.0 < 1.0 < doc.domain.upper[0]

    def test_explicit_domain_must_contain_geometry(self):
        doc = dict(UNIT_DIPOLE_DOC)
        doc["domain"] = {"lower": [0.2, -0.5], "upper": [2.0, 0.5]}
        with pytest.raises(ValidationError, match="outside"):
            parse_document(doc)

    def test_mixed_dimensions_rejected(self):
        doc = {
            "version": 1,
            "atoms": [{"point": [0.0, 0.0], "mass": 1.0}],
            "vector_atoms": [{"point": [0.0, 0.0, 0.0], "vector": [1.0, 0.0, 0.0]}],
        }
        with pytest.raises(ValidationError, match="dimension"):
            parse_document(doc)

    def test_malformed_json_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "atoms": [}')
        with pytest.raises(ValidationError, match="line 2"):
            load_document(str(path))

    def test_plan_parsing(self):
        doc = parse_document(
            {
                "version": 1,
                "plan": [{"base": [1.0, 0.0], "dir": [-1.0, 0.0], "t": 1.0, "mass": 1.0}],
                "atoms": [
                    {"point": [0.0, 0.0], "mass": 1.0},
                    {"point": [1.0, 0.0], "mass": -1.0},
                ],
            }
        )
        assert doc.plan is not None and len(doc.plan) == 1


MALFORMED_DOCS = [
    {"version": 1, "atoms": [{"point": [0, 0]}]},
    {"version": 1, "atoms": [{"mass": 1.0}]},
    {"version": 1, "atoms": [{"point": [0, 0], "mass": "heavy"}]},
    {"version": 1, "atoms": [{"point": [0, "x"], "mass": 1.0}]},
    {"version": 1, "atoms": [{"point": [0], "mass": 1.0}]},
    {"version": 1, "atoms": "nope"},
    {"version": 1, "atoms": [["not", "a", "dict"]]},
    {"version": 1, "dipoles": {"pairs": [{"p": [0, 0]}]}},
    {"version": 1, "dipoles": {"pairs": [], "tail": {"ratio": 2.0, "first_term": 1.0}}},
    {"version": 1, "dipoles": {"pairs": [], "tail": {"ratio": 0.5}}},
    {"version": 1, "segments": [{"a": [0, 0], "b": [1, 0]}]},
    {"version": 1, "segments": [{"a": [0, 0], "b": [0, 0], "density": [1, 0]}]},
    {"version": 1, "plan": [{"base": [0, 0], "dir": [1, 0], "t": -1, "mass": 1}]},
    {"version": 1, "plan": [{"base": [0, 0], "dir": [2, 0], "t": 1, "mass": 1}]},
    {"version": 1, "plan": [{"base": [0, 0], "dir": [1, 0], "mass": 1}]},
    {"version": 1, "domain": {"lower": [0, 0]}},
    {"version": 1, "domain": {"lower": [1, 1], "upper": [0, 0]}},
    {"version": 1, "cells": {"resolution": [2, 2]}},
    {"version": 1, "test_functions": [{"kind": "coordinate", "axis": 9}]},
    {"version": 1, "test_functions": [{"kind": "warp"}]},
    {"version": 1, "test_functions": [{"kind": "radial_bump", "center": [0, 0]}]},
    {"version": 2},
    {"version": 1, "options": "settings"},
    {"version": 1, "atomz": []},
    [],
]


@pytest.mark.parametrize("doc", MALFORMED_DOCS, ids=range(len(MALFORMED_DOCS)))
def test_malformed_documents_fail_validation(doc):
    with pytest.raises(ValidationError):
        parse_document(doc)


class TestCommands:
    def test_connect_unit_dipole(self, tmp_path, capsys):
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC)
        assert run(["connect", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["cost"] == 1.0
        assert report["residuals"]["duality_gap"] <= 1e-9

    def test_reports_are_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert run(["connect", path, "--out", out1]) == 0
        assert run(["connect", path, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_dual_and_flatnorm(self, tmp_path, capsys):
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC)
        assert run(["dual", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["value"] == 1.0
        assert run(["flatnorm", path, "--convention", "max"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["values"]["value"] - 1.0) <= 1e-9

    def test_beckmann_grid(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "domain": {"lower": [-0.25, -0.1], "upper": [1.25, 0.1]},
            "atoms": [
                {"point": [0.0, 0.0], "mass": 1.0},
                {"point": [1.0, 0.0], "mass": -1.0},
            ],
        }
        path = write_doc(tmp_path, doc)
        assert run(["beckmann", path, "--grid", "3x1"]) == 0
        report = json.loads(capsys.readouterr().out)
        # cell centers at 0, 0.5, 1: the path costs exactly 1
        assert report["values"]["cost"] == 1.0
        assert report["values"]["anisotropy_bound"] == pytest.approx(np.sqrt(2))

    def test_plan_check_pass_and_fail(self, tmp_path, capsys):
        good = dict(UNIT_DIPOLE_DOC)
        good["plan"] = [{"base": [1.0, 0.0], "dir": [-1.0, 0.0], "t": 1.0, "mass": 1.0}]
        path = write_doc(tmp_path, good)
        assert run(["plan-check", path]) == 0
        capsys.readouterr()
        bad = dict(good)
        bad["plan"] = [{"base": [1.0, 0.0], "dir": [-1.0, 0.0], "t": 1.0, "mass": 1.1}]
        path_bad = write_doc(tmp_path, bad, name="bad.json")
        assert run(["plan-check", path_bad]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["max_residual"] >= 0.09
        assert "necessary" in report["values"]["note"]

    def test_density_csv(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "atoms": [
                {"point": [0.0, 0.5], "mass": 2.0},
                {"point": [1.0, 0.5], "mass": -2.0},
            ],
        }
        path = write_doc(tmp_path, doc)
        assert run(["density", path, "--grid", "2x1", "--format", "csv"]) == 0
        body = capsys.readouterr().out
        assert body.splitlines()[1] == "0,0,1.0"

    def test_density_requires_grid(self, tmp_path):
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC)
        assert run(["density", path]) == 2

    def test_decompose_report(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "segments": [{"a": [0.0, 0.0], "b": [1.0, 0.0], "density": [1.0, 0.0]}],
            "vector_atoms": [{"point": [4.0, 0.0], "vector": [0.0, 2.0]}],
        }
        path = write_doc(tmp_path, doc)
        assert run(["decompose", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["normal_mass"] == 2.0
        assert report["values"]["certified"] is True
        assert report["certificates"]["f_T"]["as_measure"] is not None

    def test_decompose_zero_vector_atom(self, tmp_path, capsys):
        # the zero atom pairs to 0 and gets no witness cone; it used to build
        # a NaN cone whose division warning leaked into the report
        doc = {
            "version": 1,
            "segments": [{"a": [0.0, 0.0], "b": [1.0, 0.0], "density": [1.0, 0.0]}],
            "vector_atoms": [
                {"point": [5.0, 0.0], "vector": [0.0, 0.0]},
                {"point": [8.0, 0.0], "vector": [0.0, 1.0]},
            ],
        }
        path = write_doc(tmp_path, doc)
        assert run(["decompose", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["certified"] is True
        assert report["certificates"]["witness_value"] == 2.0
        assert report["warnings"] == []

    def test_decompose_zero_vector_atom_on_support(self, tmp_path, capsys):
        # a zero atom gets no cone, so it must not shrink the cones' radius:
        # on a support point it used to make the radius 0 and the result
        # uncertified, although the same input without it certifies
        doc = {
            "version": 1,
            "segments": [{"a": [0.0, 0.0], "b": [1.0, 0.0], "density": [1.0, 0.0]}],
            "vector_atoms": [
                {"point": [1.0, 0.0], "vector": [0.0, 0.0]},
                {"point": [8.0, 0.0], "vector": [0.0, 1.0]},
            ],
        }
        reports = []
        for atoms in (doc["vector_atoms"], doc["vector_atoms"][1:]):
            path = write_doc(tmp_path, {**doc, "vector_atoms": atoms})
            assert run(["decompose", path]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        with_zero, without = reports
        assert without["values"]["certified"] is True
        assert with_zero["values"] == without["values"]
        assert with_zero["certificates"]["witness_value"] == 2.0
        assert with_zero["warnings"] == []

    def test_io_errors_name_input_or_output(self, tmp_path, capsys):
        assert run(["connect", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("cannot read input: [Errno 2]")
        chain = {"dipoles": {"pairs": [{"p": [0.0, 0.0], "n": [1.0, 0.0]}]}}
        path = write_doc(tmp_path, {**UNIT_DIPOLE_DOC, **chain})
        out = str(tmp_path / "missing_dir" / "x.json")
        for argv in (
            ["connect", path, "--out", out],
            ["modulus", path, "--eps", "0.5", "--format", "csv", "--out", out],
            ["density", path, "--grid", "2x2", "--out", out],
        ):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err.startswith("cannot write output: [Errno 2]"), argv

    def test_modulus_json_and_csv(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "dipoles": {
                "pairs": [
                    {"p": [0.0, float(i)], "n": [2.0**-i, float(i)]} for i in range(1, 11)
                ],
                "tail": {"ratio": 0.5, "first_term": 1.0},
            },
            "options": {"truncation_eps": 0.001},
        }
        path = write_doc(tmp_path, doc)
        assert run(["modulus", path, "--eps", "0.25,0.125", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["table"][0] == {"eps": 0.25, "C": 4, "k": 2}
        assert run(["modulus", path, "--eps", "0.25", "--format", "csv"]) == 0
        body = capsys.readouterr().out
        assert body.splitlines()[0] == "eps,C,k"
        assert body.splitlines()[1] == "0.25,4,2"

    def test_truncated_dipole_chain_is_one_report_warning(self, tmp_path):
        doc = {
            "version": 1,
            "dipoles": {
                "pairs": [
                    {"p": [0.0, float(i)], "n": [2.0**-i, float(i)]} for i in range(1, 11)
                ],
                "tail": {"ratio": 0.5, "first_term": 1.0},
            },
            "options": {"truncation_eps": 0.001},
        }
        path = write_doc(tmp_path, doc)
        out = tmp_path / "report.json"
        assert run(["connect", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["warnings"] == [
            "dipole chain truncated: norm error bound 0.0009765625"
        ]

    @pytest.mark.parametrize("fmt", ["svg", "ascii"])
    def test_modulus_rejects_raster_formats(self, tmp_path, capsys, fmt):
        chain = {"version": 1, "dipoles": {"pairs": [{"p": [0, 0], "n": [1, 0]}]}}
        path = write_doc(tmp_path, chain)
        out = tmp_path / "report"
        assert run(["modulus", path, "--eps", "0.5", "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: modulus --format must be one of csv, json, got '{fmt}'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_density_rejects_json_before_solving(self, tmp_path, capsys, monkeypatch, dim):
        import tranship.matchnorm

        def no_solve(f):
            raise AssertionError("density solved before checking --format")

        monkeypatch.setattr(tranship.matchnorm, "minimal_connection", no_solve)
        doc = {
            "version": 1,
            "atoms": [
                {"point": [0.0] * dim, "mass": 1.0},
                {"point": [1.0] * dim, "mass": -1.0},
            ],
        }
        path = write_doc(tmp_path, doc)
        grid = "x".join(["2"] * dim)
        assert run(["density", path, "--grid", grid, "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "validation error: density --format must be one of csv, svg, ascii, got 'json'\n"
        )

    @pytest.mark.parametrize("fmt", ["svg", "ascii"])
    def test_density_rejects_raster_formats_in_3d_before_solving(
        self, tmp_path, capsys, monkeypatch, fmt
    ):
        import tranship.matchnorm

        def no_solve(f):
            raise AssertionError("density solved before checking the grid dimension")

        monkeypatch.setattr(tranship.matchnorm, "minimal_connection", no_solve)
        doc = {
            "version": 1,
            "atoms": [{"point": [0.0] * 3, "mass": 1.0}, {"point": [1.0] * 3, "mass": -1.0}],
        }
        path = write_doc(tmp_path, doc)
        out = tmp_path / "density.out"
        assert run(["density", path, "--grid", "2x2x2", "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"validation error: {fmt} export requires a 2-d grid\n"
        assert not out.exists()

    def test_plan_of_mixed_dimensions_is_a_validation_error(self, tmp_path, capsys):
        doc = dict(UNIT_DIPOLE_DOC, plan=[
            {"base": [1, 0], "dir": [-1, 0], "t": 1, "mass": 1},
            {"base": [1, 0, 0], "dir": [-1, 0, 0], "t": 1, "mass": 1},
        ])
        assert run(["plan-check", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "validation error: mixed dimensions in document: [2, 3]\n"

    def test_density_of_an_empty_3d_plan_is_all_zero(self, tmp_path, capsys):
        doc = {"version": 1, "domain": {"lower": [0, 0, 0], "upper": [1, 1, 1]}, "plan": []}
        assert run(["density", write_doc(tmp_path, doc), "--grid", "2x2x2", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 9 and all(row.endswith(",0.0") for row in rows[1:])

    def test_validation_exit_codes(self, tmp_path):
        assert run(["connect", str(tmp_path / "missing.json")]) == 2
        unbalanced = {
            "version": 1,
            "atoms": [{"point": [0.0, 0.0], "mass": 1.0}],
        }
        path = write_doc(tmp_path, unbalanced, name="unbalanced.json")
        assert run(["connect", path]) == 2
        # each case breaks one field of a document that is otherwise valid
        chain = {"version": 1, "dipoles": {"pairs": [{"p": [0, 0], "n": [1, 0]}]}}
        path = write_doc(tmp_path, chain, name="chain.json")
        out = ["--out", str(tmp_path / "report.json")]
        assert run(["connect", path] + out) == 0
        assert run(["modulus", path, "--eps", "0.5"] + out) == 0
        assert run(["modulus", path, "--eps", "0.5,x"] + out) == 2
        assert run(["modulus", path, "--eps", "nan"] + out) == 2
        modulus = ["modulus", "--eps", "0.5"]
        malformed = [
            (modulus, {"test_functions": [{"kind": "polynomial", "coeffs": {"x,0": 1}}]}),
            (modulus, {"test_functions": [{"kind": "polynomial", "coeffs": {"1,0": "abc"}}]}),
            (modulus, {"test_functions": [{"kind": "polynomial", "coeffs": {"1,0": [1]}}]}),
            (modulus, {"test_functions": [{"kind": "polynomial", "coeffs": {"1,0": True}}]}),
            (modulus, {"test_functions": [{"kind": "coordinate", "axis": "x"}]}),
            (["modulus"], {"options": {"eps": ["abc"]}}),
            (["connect"], {"options": {"truncation_eps": "abc"}}),
            (["connect"], {"dipoles": {"pairs": [{"p": [0, 0], "n": [1, 0]}, {"p": [0, 0, 1], "n": [1, 0, 1]}]}}),
        ]
        for k, (command, change) in enumerate(malformed):
            path = write_doc(tmp_path, {**chain, **change}, name=f"malformed{k}.json")
            assert run(command[:1] + [path] + command[1:] + out) == 2, change
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"version": 1, "options": {"label": "\u00e9"}}'.encode("latin-1"))
        assert run(["connect", str(latin1)]) == 2
        huge = tmp_path / "huge.json"  # more digits than json.loads converts
        huge.write_text('{"version": 1, "options": {"truncation_eps": 1' + "0" * 5000 + "}}")
        assert run(["connect", str(huge)]) == 2

    PLAN_CHECK_DOC = dict(UNIT_DIPOLE_DOC, plan=[
        {"base": [1.0, 0.0], "dir": [-1.0, 0.0], "t": 1.0, "mass": 1.0},
    ])
    CHAIN_DOC = {"version": 1, "dipoles": {"pairs": [{"p": [0, 0], "n": [1, 0]}]}}
    CELL_DOC = {"version": 1, "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                "cells": {"resolution": [1, 1], "vectors": [[1.0, 0.0]]}}

    @pytest.mark.parametrize("command, doc, field, value", [
        ("connect", {**UNIT_DIPOLE_DOC, "atoms": [{"point": [0.0, math.nan], "mass": 1.0},
                                                  UNIT_DIPOLE_DOC["atoms"][1]]},
         "atoms[0].point", "nan"),
        ("plan-check", {**PLAN_CHECK_DOC, "plan": [{**PLAN_CHECK_DOC["plan"][0], "t": math.nan}]},
         "plan[0].t", "nan"),
        ("plan-check", {**PLAN_CHECK_DOC, "plan": [{**PLAN_CHECK_DOC["plan"][0], "mass": math.inf}]},
         "plan[0].mass", "inf"),
        ("plan-check", {**PLAN_CHECK_DOC, "test_functions": [
            {"kind": "polynomial", "coeffs": {"1,0": math.nan}}]},
         "test_functions[0].coeffs['1,0']", "nan"),
        ("modulus", {**CHAIN_DOC, "options": {"eps": [0.5, -math.inf]}}, "options.eps[1]", "-inf"),
        ("connect", {**UNIT_DIPOLE_DOC, "atoms": [UNIT_DIPOLE_DOC["atoms"][0],
                                                  {"point": [1.0, 0.0], "mass": -(10**400)}]},
         "atoms[1].mass", "-inf"),
        ("decompose", {**CELL_DOC, "cells": {**CELL_DOC["cells"], "vectors": [[1.0, math.nan]]}},
         "cells.vectors[0][1]", "nan"),
    ], ids=["atom-point", "plan-t", "plan-mass", "coefficient", "options-eps", "integer-overflow",
            "cell-vector"])
    def test_non_finite_numbers_are_validation_errors(self, tmp_path, capsys, command, doc,
                                                      field, value):
        # json.dumps writes NaN, Infinity and -Infinity, which JSON lacks but
        # json.loads reads, and integers of any size
        path = write_doc(tmp_path, doc)
        assert run([command, path]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {field}: expected a finite number, got {value}\n"
        )

    @pytest.mark.parametrize("vectors, message", [
        ([[True, False]], "cells.vectors[0][0]: expected a number, got True"),
        ([[1.0]], "cells.vectors[0]: expected a list of 2 numbers"),
        ({"0": [1.0, 0.0]}, "cells.vectors: expected a list of vectors"),
    ], ids=["boolean", "short-row", "not-a-list"])
    def test_cell_vectors_are_numbers_by_field(self, tmp_path, capsys, vectors, message):
        doc = {**self.CELL_DOC, "cells": {**self.CELL_DOC["cells"], "vectors": vectors}}
        assert run(["decompose", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("command", ["connect", "plan-check"])
    def test_tolerances_are_finite_and_nonnegative(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "report.json"
        argv = [command, str(tmp_path / "missing.json"), f"{flag}={value}", "--out", str(out)]
        assert run(argv) == 2  # before the document is read
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: expected a finite number >= 0, got '{value}'\n"
        )
        assert not out.exists()

    def test_duality_gap_beyond_tolerance_exits_4(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import tranship.matchnorm

        solve = tranship.matchnorm.minimal_connection

        def costlier(f):
            matching = solve(f)
            return dataclasses.replace(matching, cost=matching.cost + 1.0)

        monkeypatch.setattr(tranship.matchnorm, "minimal_connection", costlier)
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC)
        assert run(["connect", path]) == 4
        assert run(["connect", path, "--tol-abs", "1.5"]) == 0
        assert run(["connect", path, "--tol-abs", "nan"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("eps", ["inf", "1e400", "0.1,-inf"])
    def test_eps_flag_is_finite(self, tmp_path, capsys, eps):
        out = tmp_path / "report.json"
        assert run(["modulus", write_doc(tmp_path, self.CHAIN_DOC), f"--eps={eps}",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --eps: expected comma-separated finite numbers, got '{eps}'\n"
        )
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path, monkeypatch):
        # grid and complete networks are connected by construction, so force
        # the infeasible path through the runner with a solver stub
        from tranship import beckmann
        from tranship.errors import InfeasibleFlowError

        def broken_solver(net):
            raise InfeasibleFlowError("forced for the exit-code contract")

        monkeypatch.setattr(beckmann, "solve_beckmann", broken_solver)
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC, name="inf.json")
        assert run(["beckmann", path]) == 3

    def test_selftest_filter_and_fault(self, tmp_path, capsys):
        assert run(["selftest", "--filter", "duality"]) == 0
        capsys.readouterr()
        assert run(["selftest", "--inject-fault", "unit_dipole_cost", "--filter", "oracle"]) == 4
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["connect", "doc.json", "--frobnicate"]) == 2
        capsys.readouterr()


def reference_slackness(matching):
    """The per-edge loop connect's slackness replaced: Python floats, one edge
    at a time, the running maximum starting from 0.0."""
    worst = 0.0
    u = matching.potential.tolist()
    for i, j in matching.edges.tolist():
        length = dists(matching.points[i], matching.points[j])
        worst = max(worst, abs(u[i] - u[j] - length))
    return float(worst)


class TestSlackness:
    def test_equals_the_edge_loop(self):
        rng = np.random.default_rng(1302)
        nonzero = 0
        for _ in range(60):
            m = minimal_connection(random_balanced_measure(rng, max_pairs=15))
            assert cli._max_slackness(m) == reference_slackness(m)
            nonzero += reference_slackness(m) > 0.0
        assert nonzero > 0  # roundoff leaves some edges off tight

    def test_report_carries_it(self, tmp_path):
        rng = np.random.default_rng(1303)
        f = random_balanced_measure(rng, max_pairs=15)
        atoms = [{"point": p, "mass": m} for p, m in zip(f.points.tolist(), f.masses.tolist())]
        path = write_doc(tmp_path, {"version": 1, "atoms": atoms})
        out = tmp_path / "report.json"
        assert run(["connect", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        slackness = reference_slackness(minimal_connection(load_document(path).atoms))
        assert report["residuals"]["slackness"] == slackness


class TestReportWriting:
    # handlers build reports from `_table` rows and Python scalars only
    REPORT = {
        "command": "beckmann",
        "values": {"cost": 1.25, "count": 3, "ok": True},
        "certificates": {
            "flows": [[0.5, -0.0], [1e-300, 2.5e17]],
            "index": [0, 1, 2],
            "nested": {"deeper": [{"empty": [], "none": {}}, [0.5, None]]},
        },
        "residuals": {"nan": math.nan, "pos": math.inf, "neg": -math.inf},
        "warnings": ["déjà vu ≈ \U0001f600"],
    }

    def test_file_has_the_bytes_of_json_dumps(self, tmp_path):
        out = tmp_path / "report.json"
        cli._emit(self.REPORT, str(out))
        expected = json.dumps(self.REPORT, indent=2, sort_keys=True) + "\n"
        assert out.read_bytes() == expected.encode()

    def test_stdout_has_the_same_text(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cli._emit(self.REPORT, str(out))
        cli._emit(self.REPORT, None)
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("command", [["connect"], ["dual"], ["beckmann", "--grid", "2x2"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, UNIT_DIPOLE_DOC)
        for out in (tmp_path / "missing_dir" / "x.json", tmp_path):
            argv = [command[0], path, *command[1:], "--out", str(out)]
            assert run(argv) == 2, argv
            assert capsys.readouterr().err.startswith("cannot write output: "), argv

    @pytest.mark.parametrize("dim", [2, 3])
    def test_records_equal_the_per_row_builders(self, dim):
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(17, dim))
        points[3] = -0.0
        values = rng.normal(size=17) * 10.0 ** rng.integers(-300, 300, size=17)
        values[5] = -0.0
        rows = cli._table(point=points, value=values)
        expected = [
            {"point": [float(c) for c in p], "value": float(v)} for p, v in zip(points, values)
        ]
        # json writes floats by repr, which tells -0.0 from 0.0 and keeps every bit
        assert repr(rows) == repr(expected)
        assert all(type(c) is float for row in rows for c in [*row["point"], row["value"]])
        edges = rng.integers(0, 17, size=(9, 2))
        flows = cli._table(i=edges[:, 0], j=edges[:, 1], flow=values[:9])
        assert repr(flows) == repr(
            [{"i": int(i), "j": int(j), "flow": float(v)} for (i, j), v in zip(edges, values)]
        )
        assert all(type(row["i"]) is int and type(row["j"]) is int for row in flows)
        eps, c, k = zip((0.25, 4, 2), (1e-300, 6, 3))  # the modulus table's tuple columns
        table = cli._table(eps=eps, C=c, k=k)
        assert table == [{"eps": 0.25, "C": 4, "k": 2}, {"eps": 1e-300, "C": 6, "k": 3}]
        assert [type(row["C"]) for row in table] == [int, int]
        assert cli._table(point=np.zeros((0, dim)), value=np.zeros(0)) == []
