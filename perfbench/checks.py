"""Offline certificate checks for every job's output.

A job fails when the CLI exits nonzero, runs out of time or memory, or
leaves an output whose certificates do not hold.  The checks use tolerances
only, never stored digests, so any correct report passes:

* ``connect``: duality gap and slackness within the CLI tolerances, the
  edges form a transport plan between the document's atoms whose cost is the
  reported cost, and the potential is 1-Lipschitz and reaches that cost;
* ``dual``, complete-graph ``beckmann``: the value agrees with the
  ``connect`` cost of the same document within 1e-7 relative;
* ``flatnorm``: a feasible potential for the convention that reaches the
  reported value, which cannot exceed the ``connect`` cost;
* grid ``beckmann``: node balance within 1e-9 of the mass scale;
* ``density``: the CSV total equals the ``connect`` cost within 1e-12
  relative for atom documents, or the total variation of the document's
  vector measure or plan;
* ``decompose``: certified, with the witness value reaching the claim;
* ``plan-check``: passed;  ``modulus``: a nonpositive verified margin.
"""

from __future__ import annotations

import json
import math

import numpy as np

# the CLI defaults of --tol-abs and --tol-rel
TOL_ABS = 1e-9
TOL_REL = 1e-7
CROSS_REL = 1e-7
DENSITY_REL = 1e-12
# a vector measure deposits each segment by cell fractions summing to 1 up
# to roundoff, and plan rays carry unit directions only to 1e-12
VECTOR_DENSITY_REL = 1e-10
BALANCE_REL = 1e-9
WITNESS_REL = 1e-8
ASCII_RAMP = " .:-=+*#%@"


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def cli_tol(scale: float) -> float:
    return TOL_ABS + TOL_REL * max(1.0, abs(scale))


def _close(a: float, b: float, rel: float, what: str):
    _require(abs(a - b) <= rel * max(1.0, abs(b)), f"{what}: {a!r} vs {b!r}")


def _atoms(doc):
    pts = np.array([a["point"] for a in doc["atoms"]], dtype=float)
    masses = np.array([a["mass"] for a in doc["atoms"]], dtype=float)
    return pts, masses


def _pairwise(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _potential(entries, doc):
    """Potential points/values of a report, with each point's document mass."""
    mass_of = {tuple(p): m for p, m in zip(*_atoms(doc))}
    points = np.array([e["point"] for e in entries], dtype=float)
    values = np.array([e["value"] for e in entries], dtype=float)
    _require(len(entries) == len(mass_of), "potential does not cover every atom")
    masses = np.array([mass_of[tuple(e["point"])] for e in entries])
    return points, values, masses


def _max_lipschitz(points, values) -> float:
    d = _pairwise(points)
    du = np.abs(values[:, None] - values[None, :])
    off = d > 0.0
    return float(np.max(du[off] / d[off])) if np.any(off) else 0.0


def _lipschitz_violation(points, values) -> float:
    du = values[:, None] - values[None, :]
    return float(np.max(du - _pairwise(points))) if len(values) else 0.0


def check_connect(report, doc, ref):
    cost = report["values"]["cost"]
    tol = cli_tol(cost)
    _require(report["residuals"]["duality_gap"] <= tol, "duality gap above tolerance")
    _require(report["residuals"]["slackness"] <= tol, "slackness above tolerance")
    edges = report["certificates"]["edges"]
    src = np.array([e["source"] for e in edges], dtype=float).reshape(-1, 2)
    dst = np.array([e["target"] for e in edges], dtype=float).reshape(-1, 2)
    mass = np.array([e["mass"] for e in edges], dtype=float)
    _require(bool(np.all(mass > 0.0)), "edge with nonpositive mass")
    lengths = np.sqrt(((src - dst) ** 2).sum(axis=1))
    _close(math.fsum(mass * lengths), cost, DENSITY_REL, "edge cost")
    net = {}
    for s, t, m in zip(map(tuple, src), map(tuple, dst), mass):
        net[s] = net.get(s, 0.0) + m
        net[t] = net.get(t, 0.0) - m
    points, masses = _atoms(doc)
    scale = float(np.sum(np.abs(masses)))
    for p, m in zip(map(tuple, points), masses):
        _require(abs(net.pop(p, 0.0) - m) <= BALANCE_REL * scale, f"marginal at {p}")
    _require(not net, "edges touch points that are not atoms")
    pts, u, m = _potential(report["certificates"]["potential"], doc)
    _require(_lipschitz_violation(pts, u) <= tol, "potential is not 1-Lipschitz")
    _require(abs(float(np.dot(m, u)) - cost) <= tol, "potential does not reach the cost")


def check_dual(report, doc, ref):
    value = report["values"]["value"]
    _close(value, ref["values"]["cost"], CROSS_REL, "dual value vs connect cost")
    tol = cli_tol(value)
    pts, u, m = _potential(report["certificates"]["potential"], doc)
    _require(_lipschitz_violation(pts, u) <= tol, "potential is not 1-Lipschitz")
    _require(abs(float(np.dot(m, u)) - value) <= tol, "potential does not reach the value")


def _check_flatnorm(report, doc, ref, convention):
    value = report["values"]["value"]
    tol = cli_tol(value)
    _require(report["values"]["convention"] == convention, "wrong convention")
    _require(-tol <= value <= ref["values"]["cost"] + tol, "flat norm outside [0, W1]")
    pts, u, m = _potential(report["certificates"]["potential"], doc)
    sup = float(np.max(np.abs(u))) if u.size else 0.0
    lip = _max_lipschitz(pts, u)
    if convention == "max":
        _require(sup <= 1.0 + tol and lip <= 1.0 + tol, "potential infeasible (max)")
    else:
        _require(sup + lip <= 1.0 + tol, "potential infeasible (sum)")
    _require(abs(float(np.dot(m, u)) - value) <= tol, "potential does not reach the value")


def check_flatnorm_max(report, doc, ref):
    _check_flatnorm(report, doc, ref, "max")


def check_flatnorm_sum(report, doc, ref):
    _check_flatnorm(report, doc, ref, "sum")


def _check_flows(report, doc):
    _, masses = _atoms(doc)
    scale = float(np.sum(np.abs(masses)))
    _require(report["residuals"]["node_balance"] <= BALANCE_REL * scale, "node balance")
    nodes = np.array([p["point"] for p in report["certificates"]["potentials"]], dtype=float)
    flows = report["certificates"]["flows"]
    i = np.array([f["i"] for f in flows], dtype=int)
    j = np.array([f["j"] for f in flows], dtype=int)
    v = np.array([f["flow"] for f in flows], dtype=float)
    lengths = np.sqrt(((nodes[i] - nodes[j]) ** 2).sum(axis=1))
    cost = report["values"]["cost"]
    _close(math.fsum(np.abs(v) * lengths), cost, DENSITY_REL, "flow cost")
    return cost


def check_beckmann_complete(report, doc, ref):
    cost = _check_flows(report, doc)
    _close(cost, ref["values"]["cost"], CROSS_REL, "beckmann cost vs connect cost")


def check_beckmann_grid(report, doc, ref):
    _require(_check_flows(report, doc) > 0.0, "grid flow has zero cost")


def _vector_total_variation(doc) -> float:
    if "plan" in doc:
        return math.fsum(a["mass"] for a in doc["plan"])
    parts = [float(np.hypot(*v["vector"])) for v in doc.get("vector_atoms", [])]
    for s in doc.get("segments", []):
        length = float(np.hypot(*np.subtract(s["b"], s["a"])))
        parts.append(float(np.hypot(*s["density"])) * length)
    return math.fsum(parts)


def check_density_csv(text, doc, ref):
    lines = text.splitlines()
    _require(lines[0] == "i,j,mass", "csv header")
    masses = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    _require(all(m >= 0.0 for m in masses), "negative cell mass")
    total = math.fsum(masses)
    if ref is not None:
        expected, rel = ref["values"]["cost"], DENSITY_REL
    else:
        expected, rel = _vector_total_variation(doc), VECTOR_DENSITY_REL
    _require(abs(total - expected) <= rel * abs(expected), f"csv total {total!r} vs {expected!r}")


def check_density_svg(text, doc, ref):
    _require(text.startswith("<svg") and text.rstrip().endswith("</svg>"), "svg framing")
    _require(text.count("<rect") >= 4, "svg has no cells")


def check_density_ascii(text, doc, ref):
    rows = text.rstrip("\n").split("\n")
    _require(len({len(r) for r in rows}) == 1, "ragged ascii raster")
    _require(set("".join(rows)) <= set(ASCII_RAMP), "ascii outside the ramp")
    _require(any(c != " " for r in rows for c in r), "blank ascii raster")


def check_decompose(report, doc, ref):
    _require(report["values"]["certified"] is True, "decomposition not certified")
    claimed = report["certificates"]["claimed_value"]
    witness = report["certificates"]["witness_value"]
    _close(witness, claimed, WITNESS_REL, "witness vs claimed value")
    normal = math.fsum(float(np.hypot(*v["vector"])) for v in doc.get("vector_atoms", []))
    _close(report["values"]["normal_mass"], normal, BALANCE_REL, "normal mass")


def check_plan_check(report, doc, ref):
    _require(report["values"]["passed"] is True, "plan projection check failed")


def check_modulus(report, doc, ref):
    _require(report["residuals"]["verified_margin"] <= 0.0, "modulus bound violated")
    table = report["values"]["table"]
    _require(len(table) == len(doc["options"]["eps"]), "modulus table length")
    ks = [row["k"] for row in table]
    _require(all(row["C"] == 2 * row["k"] for row in table), "C != 2k")
    _require(ks == sorted(ks), "k must not shrink as eps shrinks")


CHECKS = {
    "connect": check_connect,
    "dual": check_dual,
    "flatnorm_max": check_flatnorm_max,
    "flatnorm_sum": check_flatnorm_sum,
    "beckmann_complete": check_beckmann_complete,
    "beckmann_grid": check_beckmann_grid,
    "density_csv": check_density_csv,
    "density_svg": check_density_svg,
    "density_ascii": check_density_ascii,
    "decompose": check_decompose,
    "plan_check": check_plan_check,
    "modulus": check_modulus,
}
TEXT_CHECKS = {"density_csv", "density_svg", "density_ascii"}


def check_job(job, status, out_path, doc, ref_report):
    """Return ``(reason, report)``: reason is None when the job passed.

    `status` is the CLI exit code, or a string saying why the job did not
    finish (timeout, run deadline)."""
    if isinstance(status, str):
        return status, None
    if status != 0:
        return f"exit code {status}", None
    try:
        with open(out_path) as fh:
            text = fh.read()
        report = text if job["check"] in TEXT_CHECKS else json.loads(text)
        CHECKS[job["check"]](report, doc, ref_report)
    except CheckFailed as exc:
        return str(exc), None
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}", None
    return None, report


def check_pass(jobs, docs, statuses, out_paths):
    """Check one pass; returns {job id: failure reason or None}."""
    reasons, passed = {}, {}
    for job in jobs:
        ref = job["ref"]
        if ref is not None and ref not in passed:
            reasons[job["id"]] = f"reference job {ref} failed"
            continue
        reason, report = check_job(
            job, statuses[job["id"]], out_paths[job["id"]], docs[job["doc"]][1],
            passed.get(ref),
        )
        reasons[job["id"]] = reason
        if reason is None:
            passed[job["id"]] = report
    return reasons
