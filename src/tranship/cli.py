"""Command-line front end.

One JSON document in, one JSON report out (densities may instead emit
csv/svg/ascii, and ``modulus`` csv).  Reports are deterministic: identical
input files and flags produce byte-identical output.  Exit codes: 0 success,
2 validation failure, 3 infeasible, 4 tolerance/verification failure.

There is one output path.  Every handler, ``_cmd_selftest`` included,
returns ``(status, output)`` and writes nothing itself: the output is the
report dict, whose record lists ``_table`` builds from named array columns,
or the bytes of a csv/svg/ascii body.  ``run`` writes it in one place, with
``_emit`` for a report and ``_emit_bytes`` for bytes.

At module level this imports only the standard library and ``.errors``.
Numpy, the document parser and the solver modules are imported inside the
handler or helper that uses them, so ``--help`` and argument errors never
load numpy, and each command loads only what it runs.  ``main`` defaults
OpenBLAS to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

from .errors import InfeasibleFlowError, TranshipError, ValidationError, VerificationError

if TYPE_CHECKING:
    from .document import ProblemDocument
    from .measures import Distribution

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4

# the --format values a command accepts; the others ignore the flag
_FORMATS = {"density": ("csv", "svg", "ascii"), "modulus": ("csv", "json")}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _table(**columns) -> list:
    """One dict per row, keyed by column name.  Each column is converted
    whole by ``np.asarray(column).tolist()``, so float columns hold Python
    floats, int columns Python ints, and no value is converted one at a
    time."""
    import numpy as np

    rows = zip(*(np.asarray(column).tolist() for column in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def _tolerance(text: str) -> float:
    """argparse type of --tol-abs and --tol-rel: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _eps_list(text: str) -> list:
    """argparse type of --eps: comma-separated finite numbers."""
    try:
        values = [float(token) for token in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}"
        )
    return values


class _OutputError(Exception):
    """The output file could not be written."""


_JSON_FORMAT = {"indent": 2, "sort_keys": True}


def _emit(report: dict, out_path):
    """Write `report` as indented JSON.  A file is written as the encoder
    produces it, so the whole text is never held in memory; the bytes are
    those of ``json.dumps`` (ASCII, since ``ensure_ascii`` is on)."""
    if not out_path:
        sys.stdout.write(json.dumps(report, **_JSON_FORMAT) + "\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(report, fh, **_JSON_FORMAT)
            fh.write("\n")
    except OSError as exc:
        raise _OutputError(exc) from exc


def _emit_bytes(data: bytes, out_path):
    if not out_path:
        sys.stdout.buffer.write(data)
        return
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _parse_grid_spec(spec: str, dim: int):
    parts = spec.lower().split("x")
    if len(parts) != dim:
        raise ValidationError(f"grid spec {spec!r} does not match dimension {dim}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}") from exc


def _base_report(command: str, digest) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "values": {},
        "certificates": {},
        "residuals": {},
        "warnings": [],
    }


def _cmd_connect(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    import numpy as np

    from . import matchnorm as mn

    f = doc.atom_distribution().measure_part
    matching = mn.minimal_connection(f)
    points, (i, j) = matching.points, matching.edges.T
    dual_value = float(np.sum(f.masses * matching.potential))
    gap = abs(matching.cost - dual_value)
    report["values"]["cost"] = matching.cost
    report["certificates"]["edges"] = _table(
        source=points[i], target=points[j], mass=matching.masses
    )
    report["certificates"]["potential"] = _table(point=points, value=matching.potential)
    report["residuals"]["duality_gap"] = gap
    report["residuals"]["slackness"] = _max_slackness(matching)
    if gap > args.tol_abs + args.tol_rel * max(1.0, abs(matching.cost)):
        return EXIT_VERIFICATION, report
    return EXIT_OK, report


def _max_slackness(matching) -> float:
    """Largest |u(s) - u(t) - |s - t|| over the matching edges from atom s
    to atom t, with u the matching's potential."""
    import numpy as np

    from .geom import dists

    i, j = matching.edges.T
    u, points = matching.potential, matching.points
    return float(np.max(np.abs(u[i] - u[j] - dists(points[i], points[j])), initial=0.0))


def _cmd_dual(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    from . import matchnorm as mn

    f = doc.atom_distribution().measure_part
    potential, value = mn.dual_potential(f)
    report["values"]["value"] = value
    report["values"]["lip_bound"] = potential.lip_bound
    report["certificates"]["potential"] = _table(point=f.points, value=potential.values)
    return EXIT_OK, report


def _cmd_flatnorm(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    from . import matchnorm as mn

    f = doc.atom_distribution().measure_part
    value, u = mn._flat_norm_lp(f, args.convention)
    report["values"]["value"] = value
    report["values"]["convention"] = args.convention
    report["certificates"]["potential"] = _table(point=f.points, value=u)
    return EXIT_OK, report


def _cmd_beckmann(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    import numpy as np

    from . import beckmann as bk

    f = doc.atom_distribution().measure_part
    if args.grid:
        resolution = _parse_grid_spec(args.grid, doc.domain.dim)
        net = bk.grid_network(doc.domain, resolution, f, diagonals=args.diagonals)
        bound = bk.anisotropy_bound(doc.domain.dim, args.diagonals)
    else:
        net = bk.complete_network(f)
        bound = 1.0
    flow = bk.solve_beckmann(net)
    report["values"]["cost"] = flow.cost
    report["values"]["anisotropy_bound"] = bound
    carrying = np.flatnonzero(flow.edge_flows)
    i, j = net.edges[carrying].T
    report["certificates"]["flows"] = _table(i=i, j=j, flow=flow.edge_flows[carrying])
    report["certificates"]["potentials"] = _table(point=net.points, value=flow.potentials)
    report["residuals"]["node_balance"] = _flow_balance_residual(net, flow)
    return EXIT_OK, report


def _flow_balance_residual(net, flow) -> float:
    import numpy as np

    # edge by edge, +v at its first node then -v at its second, onto -supply
    balance = -net.supply
    v = flow.edge_flows
    np.add.at(balance, net.edges.ravel(), np.column_stack([v, -v]).ravel())
    return float(np.max(np.abs(balance))) if balance.size else 0.0


def _cmd_plan_check(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    from .genplan import verify_projection

    if doc.plan is None:
        raise ValidationError("plan-check requires a 'plan' section")
    f = doc.full_distribution()
    family = doc.family(doc.domain.dim)
    scale = max(1.0, doc.plan.total_variation)
    tol = args.tol_abs + args.tol_rel * scale
    check = verify_projection(doc.plan, f, family, tol)
    report["values"]["max_residual"] = check.max_residual
    report["values"]["passed"] = check.passed
    report["residuals"]["per_function"] = list(check.residuals)
    report["values"]["note"] = check.note
    return (EXIT_OK if check.passed else EXIT_VERIFICATION), report


def _cmd_density(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    """Rasterize, in order of precedence: the document's plan, its vector
    measure, or the optimal matching of its atoms."""
    from . import density as dens
    from . import matchnorm as mn
    from .genplan import to_vector_measure
    from .geom import Grid

    if not args.grid:
        raise ValidationError("density requires --grid RxC[xD]")
    resolution = _parse_grid_spec(args.grid, doc.domain.dim)
    grid = Grid(doc.domain, resolution)
    dens.check_format(args.format, grid.dim)
    if doc.plan is not None:
        nu = to_vector_measure(doc.plan)
        result = dens.rasterize_vector_measure(nu, grid)
    elif not doc.vector_measure.is_empty:
        result = dens.rasterize_vector_measure(doc.vector_measure, grid)
    else:
        f = doc.atom_distribution().measure_part
        matching = mn.minimal_connection(f)
        result = dens.rasterize_plan(matching, grid)
    return EXIT_OK, dens.export(result, args.format)


def _cmd_decompose(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    from . import sharpspace as sharp

    nu = doc.vector_measure
    if nu.is_empty:
        raise ValidationError("decompose requires segments/vector_atoms/cells")
    result = sharp.decompose(nu)
    report["values"]["normal_mass"] = result.normal_mass
    report["values"]["certified"] = result.certified
    if result.witness_value is not None:
        report["certificates"]["witness_value"] = result.witness_value
        report["certificates"]["claimed_value"] = result.claimed_value
    report["certificates"]["f_T"] = _serialize_divergence(result.tangential)
    report["certificates"]["f_N"] = _serialize_divergence(result.normal)
    return EXIT_OK, report


def _serialize_divergence(f: Distribution) -> dict:
    from .measures import NotAMeasure, divergence_as_measure

    nu = f.divergence_part
    out = {
        "atoms": _table(point=nu.atom_points, vector=nu.atom_vectors),
        "segments": _table(a=nu.seg_a, b=nu.seg_b, density=nu.seg_density),
        "as_measure": None,
    }
    if nu.cells is None:
        converted = divergence_as_measure(nu)
        if not isinstance(converted, NotAMeasure):
            out["as_measure"] = _table(point=converted.points, mass=converted.masses)
    return out


def _cmd_modulus(doc: ProblemDocument, args, report: dict) -> tuple[int, dict | bytes]:
    from . import sharpspace as sharp

    if doc.dipoles is None:
        raise ValidationError("modulus requires a 'dipoles' section")
    eps_list = args.eps or doc.options.get("eps")
    if not eps_list:
        raise ValidationError("modulus requires eps values (--eps or options.eps)")
    curve = sharp.modulus(doc.dipoles, eps_list, seed=args.seed)
    if args.format == "csv":
        lines = ["eps,C,k"] + [f"{eps!r},{c},{k}" for eps, c, k in curve.samples]
        return EXIT_OK, ("\n".join(lines) + "\n").encode()
    eps, c, k = zip(*curve.samples)
    report["values"]["table"] = _table(eps=eps, C=c, k=k)
    report["residuals"]["verified_margin"] = curve.verified_margin
    return EXIT_OK, report


def _cmd_selftest(args) -> tuple[int, dict]:
    from .testing import GOLDEN, SUITES

    golden = dict(GOLDEN)
    if args.inject_fault:
        if args.inject_fault not in golden:
            raise ValidationError(f"unknown fault target {args.inject_fault!r}")
        golden[args.inject_fault] += 1e-3
    names = [n for n in SUITES if args.filter is None or args.filter == n]
    if not names:
        raise ValidationError(f"--filter matched no suite (have {sorted(SUITES)})")
    report = _base_report("selftest", None)
    all_passed = True
    for name in names:
        result = SUITES[name](args.seed, golden)
        report["values"][name] = result
        all_passed = all_passed and result["passed"]
    return (EXIT_OK if all_passed else EXIT_VERIFICATION), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tranship",
        description="Transshipment norms, minimal connections, Beckmann flows "
        "and transport densities.",
    )
    parser.add_argument("command", choices=(*_HANDLERS, "selftest"))
    parser.add_argument("document", nargs="?", help="JSON problem document")
    parser.add_argument("--out", default=None, help="write the report/body here")
    parser.add_argument("--grid", default=None, help="grid spec RxC[xD]")
    parser.add_argument("--diagonals", action="store_true", help="grid: include diagonal edges")
    parser.add_argument("--format", default="csv", choices=("csv", "svg", "ascii", "json"))
    parser.add_argument("--convention", default="max", choices=("max", "sum"))
    parser.add_argument("--tol-abs", type=_tolerance, default=1e-9, dest="tol_abs")
    parser.add_argument("--tol-rel", type=_tolerance, default=1e-7, dest="tol_rel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--filter", default=None, help="selftest: run one suite")
    parser.add_argument(
        "--eps", type=_eps_list, default=None, help="modulus: comma-separated eps values"
    )
    parser.add_argument(
        "--inject-fault", default=None, dest="inject_fault",
        help="selftest only: perturb a golden value to exercise failure detection",
    )
    return parser


_HANDLERS = {
    "connect": _cmd_connect,
    "dual": _cmd_dual,
    "flatnorm": _cmd_flatnorm,
    "beckmann": _cmd_beckmann,
    "plan-check": _cmd_plan_check,
    "density": _cmd_density,
    "decompose": _cmd_decompose,
    "modulus": _cmd_modulus,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        formats = _FORMATS.get(args.command)
        if formats and args.format not in formats:
            raise ValidationError(
                f"{args.command} --format must be one of {', '.join(formats)}, got {args.format!r}"
            )
        if args.command == "selftest":
            status, output = _cmd_selftest(args)
        elif not args.document:
            raise ValidationError(f"{args.command} requires a document path")
        else:
            from .document import load_document

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                doc = load_document(args.document)
                report = _base_report(args.command, _digest(args.document))
                status, output = _HANDLERS[args.command](doc, args, report)
                report["warnings"].extend(str(w.message) for w in caught)
        if isinstance(output, bytes):
            _emit_bytes(output, args.out)
        else:
            _emit(output, args.out)
        return status
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_VALIDATION
    except _OutputError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_VALIDATION
    except InfeasibleFlowError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION
    except TranshipError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def main():
    """Console entry point.  Numpy and scipy each start an OpenBLAS thread
    pool when they load, and no solver makes a BLAS call large enough to
    split, so one thread is the default; a value already in the environment
    is kept.  ``run`` leaves the environment alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
