"""Seeded problem documents and the fixed job list of each workload.

Every document is a pure function of ``(seed, variant, document name)``; the
program under test only ever sees the JSON files written here.  Sizes are fixed per
document so that a different seed changes geometry and masses, never the
amount of work a pass is asked to do.

A job is one ``tranship <command> <document> [flags]`` call plus the name of
the check that decides whether its output is correct (see ``checks.py``).
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

UNIT_BOX = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
GRID = "128x128"


def _pt(p) -> list:
    return [float(c) for c in p]


def _masses(rng, n_pos: int, n_neg: int, low: float = 0.05, high: float = 1.0):
    pos = rng.uniform(low, high, size=n_pos)
    neg = rng.uniform(low, high, size=n_neg)
    neg *= pos.sum() / neg.sum()
    return np.concatenate([pos, -neg])


def _balanced_atoms(rng, n_pos: int, n_neg: int, unit: bool = False) -> list:
    """Uniform atoms in the unit box; distinct random masses unless `unit`."""
    points = rng.uniform(0.0, 1.0, size=(n_pos + n_neg, 2))
    if unit:
        if n_pos != n_neg:
            raise ValueError("unit masses need as many sinks as sources")
        masses = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    else:
        masses = _masses(rng, n_pos, n_neg)
    return [{"point": _pt(p), "mass": float(m)} for p, m in zip(points, masses)]


def _atom_document(rng, n_pos, n_neg, unit=False) -> dict:
    return {"version": 1, "domain": UNIT_BOX, "atoms": _balanced_atoms(rng, n_pos, n_neg, unit)}


def _lattice_document(rng, k: int) -> dict:
    """k x k atoms, one jittered atom per lattice cell with checkerboard
    signs and distinct masses within 10% of each other.

    Successive shortest paths on a grid graph explore up to the nearest
    remaining deficit, so their work swings by integer factors with uniform
    atoms and very uneven masses; this layout keeps that exploration local
    and the pass time nearly independent of the seed.
    """
    i, j = np.divmod(np.arange(k * k), k)
    points = (np.stack([i, j], axis=1) + 0.5 + rng.uniform(-0.25, 0.25, size=(k * k, 2))) / k
    source = (i + j) % 2 == 0
    masses = _masses(rng, int(source.sum()), int((~source).sum()), 0.9, 1.1)
    points = np.vstack([points[source], points[~source]])
    atoms = [{"point": _pt(p), "mass": float(m)} for p, m in zip(points, masses)]
    return {"version": 1, "domain": UNIT_BOX, "atoms": atoms}


def _tangential_density(a, b, density) -> float:
    """The scalar density ``tranship.measures.divergence_as_measure`` reads
    off segment [a, b], with the same floating-point operations."""
    length = float(np.sqrt(np.dot(a - b, a - b)))
    return float(np.dot(density, (b - a) / length))


def _polylines_document(rng, n_lines=20, n_segments=20, ghosts=12, n_normal=10) -> dict:
    """Random-walk polylines with a constant tangential density each, plus
    separated vector atoms far to the right of them.

    The divergence of a polyline cancels exactly at an interior vertex only
    when both segments give the same rounded density; elsewhere a roundoff
    ghost atom of mass ~1e-17 survives atom merging.  Each walk is steered so
    that exactly `ghosts` of its interior vertices (a seeded choice of which)
    leave one, so the size of the dual LP over the divergence, and with it
    the peak memory, does not depend on the seed.

    Walks are not clipped at the box edges: clipping would create collinear
    overlapping segments, which the document validator rejects.
    """
    segments = []
    for _ in range(n_lines):
        ghost_at = rng.permutation(n_segments - 1) < ghosts
        p = rng.uniform(0.2, 0.8, size=2)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        theta = rng.uniform(0.2, 1.0)
        previous = None
        for k in range(n_segments):
            while True:
                turn = heading + rng.uniform(-1.0, 1.0)
                unit = np.array([np.cos(turn), np.sin(turn)])
                q = p + rng.uniform(0.02, 0.06) * unit
                density = theta * unit
                current = _tangential_density(p, q, density)
                if previous is None or (current != previous) == ghost_at[k - 1]:
                    break
            segments.append({"a": _pt(p), "b": _pt(q), "density": _pt(density)})
            p, heading, previous = q, turn, current
    return {
        "version": 1,
        "segments": segments,
        "vector_atoms": _normal_atoms(rng, n_normal),
    }


def _normal_atoms(rng, n: int) -> list:
    """Vector atoms on a line at x >= 4, 2 apart: farther from the unit box
    than any potential value reaches, as in ``tranship.testing``."""
    atoms = []
    for k in range(n):
        vec = rng.normal(size=2)
        vec *= rng.uniform(0.5, 2.0) / np.sqrt(np.dot(vec, vec))
        atoms.append({"point": [4.0 + 2.0 * k, float(rng.uniform(0.0, 1.0))], "vector": _pt(vec)})
    return atoms


def _matching(atoms):
    from tranship.matchnorm import minimal_connection
    from tranship.measures import SignedAtomMeasure

    f = SignedAtomMeasure.from_atoms([(a["point"], a["mass"]) for a in atoms])
    return minimal_connection(f)


def _certified_document(rng, n_pos=12, n_neg=12, n_normal=3) -> dict:
    """Optimal-transport segments plus separated normal atoms, the shape of
    ``tranship.testing.certified_instance`` at a fixed size."""
    from tranship.genplan import plan_from_matching, to_vector_measure

    nu = to_vector_measure(plan_from_matching(_matching(_balanced_atoms(rng, n_pos, n_neg))))
    segments = [
        {"a": _pt(a), "b": _pt(b), "density": _pt(d)}
        for a, b, d in zip(nu.seg_a, nu.seg_b, nu.seg_density)
    ]
    return {"version": 1, "segments": segments, "vector_atoms": _normal_atoms(rng, n_normal)}


def _plan_document(rng, n_pos=100, n_neg=100) -> dict:
    """Atoms plus the ray plan of their optimal matching."""
    from tranship.genplan import plan_from_matching

    atoms = _balanced_atoms(rng, n_pos, n_neg)
    plan = plan_from_matching(_matching(atoms))
    return {
        "version": 1,
        "domain": UNIT_BOX,
        "atoms": atoms,
        "plan": [
            {"base": _pt(p.base), "dir": _pt(p.dir), "t": p.t, "mass": p.mass}
            for p in plan.atoms
        ],
    }


def _dipole_document(rng, n_pairs=40, n_eps=8) -> dict:
    """Dipoles with geometrically shrinking lengths and a valid analytic tail."""
    ratio = float(rng.uniform(0.6, 0.8))
    first = float(rng.uniform(0.2, 0.5))
    pairs = []
    for i in range(n_pairs):
        p = rng.uniform(0.0, 1.0, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        n = p + first * ratio**i * np.array([np.cos(angle), np.sin(angle)])
        pairs.append({"p": _pt(p), "n": _pt(n)})
    # unlisted remainder sum_{i>k} first ratio^i <= first ratio^k / (1 - ratio)
    tail = {"ratio": ratio, "first_term": first / (1.0 - ratio)}
    eps = [float(e) for e in np.geomspace(0.3, 1e-6, n_eps)]
    return {"version": 1, "dipoles": {"pairs": pairs, "tail": tail}, "options": {"eps": eps}}


def _job(name, command, doc, check, flags=(), ref=None) -> dict:
    return {"id": name, "command": command, "doc": doc, "flags": list(flags),
            "check": check, "ref": ref}


def _transport(rng_for, sizes):
    a, b, u = sizes
    docs = {
        "small": _atom_document(rng_for("small"), a // 2, a // 2),
        "large": _atom_document(rng_for("large"), b // 2, b - b // 2),
        "unit": _atom_document(rng_for("unit"), u // 2, u // 2, unit=True),
    }
    jobs = []
    for doc in ("small", "large"):
        jobs += [
            _job(f"connect:{doc}", "connect", doc, "connect"),
            _job(f"dual:{doc}", "dual", doc, "dual", ref=f"connect:{doc}"),
            _job(f"beckmann:{doc}", "beckmann", doc, "beckmann_complete", ref=f"connect:{doc}"),
        ]
    # the flat-norm LPs have the dual LP's shape; one document covers them
    jobs += [
        _job("flatnorm-max:small", "flatnorm", "small", "flatnorm_max",
             ["--convention", "max"], ref="connect:small"),
        _job("flatnorm-sum:small", "flatnorm", "small", "flatnorm_sum",
             ["--convention", "sum"], ref="connect:small"),
        _job("connect:unit", "connect", "unit", "connect"),
    ]
    return docs, jobs


def _grid(rng_for, sizes):
    k, coarse, fine, raster = sizes
    docs = {"atoms": _lattice_document(rng_for("atoms"), k)}
    # connect gives the cost the density totals are checked against
    jobs = [
        _job("connect:atoms", "connect", "atoms", "connect"),
        _job("beckmann-grid", "beckmann", "atoms", "beckmann_grid", ["--grid", f"{coarse}x{coarse}"]),
        _job("beckmann-grid-diag", "beckmann", "atoms", "beckmann_grid",
             ["--grid", f"{coarse}x{coarse}", "--diagonals"]),
        _job("beckmann-grid-fine", "beckmann", "atoms", "beckmann_grid", ["--grid", f"{fine}x{fine}"]),
    ]
    for fmt in ("csv", "svg", "ascii"):
        jobs.append(_job(f"density-{fmt}", "density", "atoms", f"density_{fmt}",
                         ["--grid", f"{raster}x{raster}", "--format", fmt], ref="connect:atoms"))
    return docs, jobs


def _structure(rng_for, sizes):
    lines, segs, ghosts, certified, plan_atoms, pairs = sizes
    docs = {
        "polylines": _polylines_document(rng_for("polylines"), lines, segs, ghosts),
        "certified": _certified_document(rng_for("certified"), certified, certified),
        "plan": _plan_document(rng_for("plan"), plan_atoms // 2, plan_atoms // 2),
        "dipoles": _dipole_document(rng_for("dipoles"), pairs),
    }
    jobs = [
        _job("decompose:polylines", "decompose", "polylines", "decompose"),
        _job("density:polylines", "density", "polylines", "density_csv",
             ["--grid", GRID, "--format", "csv"]),
        _job("decompose:certified", "decompose", "certified", "decompose"),
        _job("plan-check:plan", "plan-check", "plan", "plan_check"),
        _job("density:plan", "density", "plan", "density_csv", ["--grid", GRID, "--format", "csv"]),
        _job("modulus:dipoles", "modulus", "dipoles", "modulus", ["--format", "json"]),
    ]
    return docs, jobs


# (document generator, full sizes, smoke sizes)
WORKLOADS = {
    "transport": (_transport, (100, 160, 100), (12, 16, 8)),
    "grid": (_grid, (6, 64, 96, 128), (3, 8, 12, 16)),
    "structure": (_structure, (20, 20, 12, 12, 200, 40), (3, 4, 2, 3, 12, 6)),
}


def build(workload: str, seed: int, out_dir: str, tiny: bool = False, variant: int = 0):
    """Write the workload's documents under `out_dir`, validate each with
    ``tranship.document.load_document`` and return ``(docs, jobs)``.

    ``docs`` maps a document name to ``(path, parsed JSON)``; job ``doc``
    fields name these documents.  Variants of one seed are independent
    draws of the same sizes; the job list is the same for all of them.
    """
    from tranship.document import load_document

    generate, full, small = WORKLOADS[workload]

    def rng_for(doc_name):
        return np.random.default_rng([seed, variant, zlib.crc32(f"{workload}/{doc_name}".encode())])

    raw, jobs = generate(rng_for, small if tiny else full)
    docs = {}
    for name, payload in raw.items():
        path = os.path.join(out_dir, f"{workload}-{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        load_document(path)
        docs[name] = (path, payload)
    return docs, jobs
