"""Command-line front end.

One JSON document in, one JSON report out (densities may instead emit
csv/svg/ascii).  Reports are deterministic: identical input files and flags
produce byte-identical output.  Exit codes: 0 success, 2 validation failure,
3 infeasible, 4 tolerance/verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings

import numpy as np

from . import beckmann as bk
from . import density as dens
from . import matchnorm as mn
from . import sharpspace as sharp
from .document import ProblemDocument, load_document
from .errors import InfeasibleFlowError, TranshipError, ValidationError, VerificationError
from .genplan import plan_from_matching, to_vector_measure, verify_projection
from .geom import Grid, dists
from .measures import Distribution, NotAMeasure, divergence_as_measure, pair

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4

_COMMANDS = (
    "connect",
    "dual",
    "flatnorm",
    "beckmann",
    "plan-check",
    "density",
    "decompose",
    "modulus",
    "selftest",
)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _point_list(points, values) -> list:
    return [
        {"point": [float(c) for c in p], "value": float(v)}
        for p, v in zip(points, values)
    ]


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(report: dict, out_path):
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_bytes(data: bytes, out_path):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _parse_grid_spec(spec: str, dim: int):
    parts = spec.lower().split("x")
    if len(parts) != dim:
        raise ValidationError(f"grid spec {spec!r} does not match dimension {dim}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}") from exc


def _base_report(command: str, path: str) -> dict:
    return {
        "command": command,
        "input_digest": _digest(path),
        "values": {},
        "certificates": {},
        "residuals": {},
        "warnings": [],
    }


def _cmd_connect(doc: ProblemDocument, args, report: dict) -> int:
    f = doc.atom_distribution(report["warnings"]).measure_part
    matching = mn.minimal_connection(f)
    potential = matching.potential
    dual_value = float(np.sum(f.masses * potential))
    gap = abs(matching.cost - dual_value)
    report["values"]["cost"] = matching.cost
    report["certificates"]["edges"] = [
        {"source": [float(c) for c in s], "target": [float(c) for c in t], "mass": m}
        for s, t, m in matching.edges
    ]
    report["certificates"]["potential"] = _point_list(f.points, potential)
    report["residuals"]["duality_gap"] = gap
    report["residuals"]["slackness"] = _max_slackness(matching, f.points, potential)
    if gap > args.tol_abs + args.tol_rel * max(1.0, abs(matching.cost)):
        return EXIT_VERIFICATION
    return EXIT_OK


def _max_slackness(matching, points, potential) -> float:
    """Largest |u(s) - u(t) - |s - t|| over the matching edges, with u given
    by its values at `points`."""
    worst = 0.0
    if not matching.edges:
        return worst
    values = dict(zip(map(tuple, points), potential.tolist()))
    sources, targets, _masses = zip(*matching.edges)
    lengths = dists(np.array(sources), np.array(targets))
    for source, target, length in zip(sources, targets, lengths):
        u_s = values[tuple(source)]
        u_t = values[tuple(target)]
        worst = max(worst, abs(u_s - u_t - length))
    return float(worst)


def _cmd_dual(doc: ProblemDocument, args, report: dict) -> int:
    f = doc.atom_distribution(report["warnings"]).measure_part
    potential, value = mn.dual_potential(f)
    report["values"]["value"] = value
    report["values"]["lip_bound"] = potential.lip_bound
    report["certificates"]["potential"] = _point_list(f.points, potential.values)
    return EXIT_OK


def _cmd_flatnorm(doc: ProblemDocument, args, report: dict) -> int:
    f = doc.atom_distribution(report["warnings"]).measure_part
    value, u = mn._flat_norm_lp(f, args.convention)
    report["values"]["value"] = value
    report["values"]["convention"] = args.convention
    report["certificates"]["potential"] = _point_list(f.points, u)
    return EXIT_OK


def _cmd_beckmann(doc: ProblemDocument, args, report: dict) -> int:
    f = doc.atom_distribution(report["warnings"]).measure_part
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
    report["certificates"]["flows"] = [
        {"i": int(i), "j": int(j), "flow": float(v)}
        for (i, j), v in zip(net.edges, flow.edge_flows)
        if v != 0.0
    ]
    report["certificates"]["potentials"] = _point_list(net.points, flow.potentials)
    worst_balance = _flow_balance_residual(net, flow)
    report["residuals"]["node_balance"] = worst_balance
    return EXIT_OK


def _flow_balance_residual(net, flow) -> float:
    # edge by edge, +v at its first node then -v at its second, onto -supply
    balance = -net.supply
    v = flow.edge_flows
    np.add.at(balance, net.edges.ravel(), np.column_stack([v, -v]).ravel())
    return float(np.max(np.abs(balance))) if balance.size else 0.0


def _cmd_plan_check(doc: ProblemDocument, args, report: dict) -> int:
    if doc.plan is None:
        raise ValidationError("plan-check requires a 'plan' section")
    f = doc.full_distribution(report["warnings"])
    family = doc.family(doc.domain.dim)
    scale = max(1.0, doc.plan.total_variation)
    tol = args.tol_abs + args.tol_rel * scale
    check = verify_projection(doc.plan, f, family, tol)
    report["values"]["max_residual"] = check.max_residual
    report["values"]["passed"] = check.passed
    report["residuals"]["per_function"] = list(check.residuals)
    report["values"]["note"] = check.note
    return EXIT_OK if check.passed else EXIT_VERIFICATION


def _cmd_density(doc: ProblemDocument, args, report: dict) -> int:
    """Rasterize, in order of precedence: the document's plan, its vector
    measure, or the optimal matching of its atoms."""
    if not args.grid:
        raise ValidationError("density requires --grid RxC[xD]")
    resolution = _parse_grid_spec(args.grid, doc.domain.dim)
    grid = Grid(doc.domain, resolution)
    if doc.plan is not None:
        nu = to_vector_measure(doc.plan)
        result = dens.rasterize_vector_measure(nu, grid)
    elif not doc.vector_measure.is_empty:
        result = dens.rasterize_vector_measure(doc.vector_measure, grid)
    else:
        f = doc.atom_distribution(report["warnings"]).measure_part
        matching = mn.minimal_connection(f)
        result = dens.rasterize_plan(matching, grid)
    _emit_bytes(dens.export(result, args.format), args.out)
    return EXIT_OK


def _cmd_decompose(doc: ProblemDocument, args, report: dict) -> int:
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
    return EXIT_OK


def _serialize_divergence(f: Distribution) -> dict:
    nu = f.divergence_part
    out = {
        "atoms": [
            {"point": [float(c) for c in p], "vector": [float(c) for c in v]}
            for p, v in zip(nu.atom_points, nu.atom_vectors)
        ],
        "segments": [
            {
                "a": [float(c) for c in a],
                "b": [float(c) for c in b],
                "density": [float(c) for c in d],
            }
            for a, b, d in zip(nu.seg_a, nu.seg_b, nu.seg_density)
        ],
    }
    converted = (
        divergence_as_measure(nu) if nu.cells is None else NotAMeasure("cells present")
    )
    if isinstance(converted, NotAMeasure):
        out["as_measure"] = None
    else:
        out["as_measure"] = [
            {"point": [float(c) for c in p], "mass": float(m)}
            for p, m in zip(converted.points, converted.masses)
        ]
    return out


def _cmd_modulus(doc: ProblemDocument, args, report: dict) -> int:
    if doc.dipoles is None:
        raise ValidationError("modulus requires a 'dipoles' section")
    eps_list = doc.options.get("eps")
    if args.eps:
        try:
            eps_list = [float(tok) for tok in args.eps.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--eps: expected comma-separated numbers, got {args.eps!r}") from exc
    if not eps_list:
        raise ValidationError("modulus requires eps values (--eps or options.eps)")
    curve = sharp.modulus(doc.dipoles, eps_list, seed=args.seed)
    if args.format == "csv":
        lines = ["eps,C,k"] + [f"{eps!r},{c},{k}" for eps, c, k in curve.samples]
        _emit_bytes(("\n".join(lines) + "\n").encode(), args.out)
        return EXIT_OK
    report["values"]["table"] = [
        {"eps": eps, "C": c, "k": k} for eps, c, k in curve.samples
    ]
    report["residuals"]["verified_margin"] = curve.verified_margin
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in verification suites.

_GOLDEN = {
    "reconnection_cost": 2.0,
    "unit_dipole_cost": 1.0,
}


def _suite_duality(seed: int, golden: dict) -> dict:
    from .testing import random_balanced_measure

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        f = random_balanced_measure(rng, max_pairs=8)
        matching = mn.minimal_connection(f)
        _, dual_value = mn.dual_potential(f)
        flow = bk.solve_beckmann(bk.complete_network(f))
        scale = max(1.0, matching.cost)
        worst = max(
            worst,
            abs(matching.cost - dual_value) / scale,
            abs(matching.cost - flow.cost) / scale,
        )
    rec = mn.minimal_connection(
        _reconnection_measure()
    )
    gap = abs(rec.cost - golden["reconnection_cost"])
    return {"max_rel_gap": worst, "golden_gap": gap, "passed": worst <= 1e-7 and gap <= 1e-12}


def _reconnection_measure():
    from .measures import SignedAtomMeasure

    return SignedAtomMeasure.from_atoms(
        [((0.0, 0.0), 1.0), ((10.0, 0.0), -1.0), ((10.0, 1.0), 1.0), ((0.0, 1.0), -1.0)]
    )


def _suite_oracle(seed: int, golden: dict) -> dict:
    from .testing import random_unit_dipole_measure

    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(50):
        f = random_unit_dipole_measure(rng, max_pairs=6)
        if mn.minimal_connection(f).cost != mn.brute_force_connection(f):
            mismatches += 1
    single = mn.minimal_connection(
        _unit_dipole_measure()
    ).cost
    gap = abs(single - golden["unit_dipole_cost"])
    return {"mismatches": mismatches, "golden_gap": gap, "passed": mismatches == 0 and gap <= 1e-12}


def _unit_dipole_measure():
    from .measures import SignedAtomMeasure

    return SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((1.0, 0.0), -1.0)])


def _suite_raster(seed: int, golden: dict) -> dict:
    from .geom import Domain
    from .testing import random_balanced_measure

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        f = random_balanced_measure(rng, max_pairs=8)
        matching = mn.minimal_connection(f)
        grid = Grid(Domain.from_geometry(f.points), (32, 32))
        result = dens.rasterize_plan(matching, grid)
        worst = max(worst, abs(result.total - matching.cost) / max(1.0, matching.cost))
    return {"max_rel_gap": worst, "passed": worst <= 1e-12}


def _suite_roundtrip(seed: int, golden: dict) -> dict:
    from .funcs import polynomial_family
    from .testing import random_balanced_measure

    rng = np.random.default_rng(seed)
    family = polynomial_family(2, 3)
    worst = 0.0
    for _ in range(10):
        f = random_balanced_measure(rng, max_pairs=6)
        matching = mn.minimal_connection(f)
        plan = plan_from_matching(matching)
        nu = to_vector_measure(plan)
        f_dist = Distribution.from_measure(f)
        div_dist = Distribution.from_divergence(nu)
        for func in family:
            worst = max(worst, abs(pair(div_dist, func) - pair(f_dist, func)))
    return {"max_residual": worst, "passed": worst <= 1e-10}


_SUITES = {
    "duality": _suite_duality,
    "oracle": _suite_oracle,
    "raster": _suite_raster,
    "roundtrip": _suite_roundtrip,
}


def _cmd_selftest(args) -> int:
    golden = dict(_GOLDEN)
    if args.inject_fault:
        if args.inject_fault not in golden:
            raise ValidationError(f"unknown fault target {args.inject_fault!r}")
        golden[args.inject_fault] += 1e-3
    names = [n for n in _SUITES if args.filter is None or args.filter == n]
    if not names:
        raise ValidationError(f"--filter matched no suite (have {sorted(_SUITES)})")
    report = {
        "command": "selftest",
        "input_digest": None,
        "values": {},
        "certificates": {},
        "residuals": {},
        "warnings": [],
    }
    all_passed = True
    for name in names:
        result = _SUITES[name](args.seed, golden)
        report["values"][name] = result
        all_passed = all_passed and result["passed"]
    _emit(report, args.out)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tranship",
        description="Transshipment norms, minimal connections, Beckmann flows "
        "and transport densities.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("document", nargs="?", help="JSON problem document")
    parser.add_argument("--out", default=None, help="write the report/body here")
    parser.add_argument("--grid", default=None, help="grid spec RxC[xD]")
    parser.add_argument("--diagonals", action="store_true", help="grid: include diagonal edges")
    parser.add_argument("--format", default="csv", choices=("csv", "svg", "ascii", "json"))
    parser.add_argument("--convention", default="max", choices=("max", "sum"))
    parser.add_argument("--tol-abs", type=float, default=1e-9, dest="tol_abs")
    parser.add_argument("--tol-rel", type=float, default=1e-7, dest="tol_rel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--filter", default=None, help="selftest: run one suite")
    parser.add_argument("--eps", default=None, help="modulus: comma-separated eps values")
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
        if args.command == "selftest":
            return _cmd_selftest(args)
        if not args.document:
            raise ValidationError(f"{args.command} requires a document path")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc = load_document(args.document)
            report = _base_report(args.command, args.document)
            status = _HANDLERS[args.command](doc, args, report)
            for w in caught:
                report["warnings"].append(str(w.message))
        if args.command not in ("density",) and not (
            args.command == "modulus" and args.format == "csv"
        ):
            _emit(report, args.out)
        return status
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
