"""Digest the output of every benchmark job, to compare two source trees.

For one ``--seed`` and ``--variant`` (``--tiny`` for the smoke sizes) this
writes each workload's documents from ``perfbench/workloads.py`` into a
temporary directory, runs every job in-process through ``tranship.cli.run``
with ``--out``, and prints one line per job:

    workload job exit sha256(out) sha256(stderr) warnings

Six lines of workload ``pairing`` follow, for documents seeded here from
``--seed`` and ``--variant`` (see :func:`pairing_documents`): they reach
test functions, cell fields, 3-d pairings, a 3-d plan raster, a cell-field
raster and a 3-d modulus spot-check, which no benchmark document does.

``-`` stands for a job that wrote no output file; ``warnings`` is the length
of a JSON report's ``warnings`` list, or ``-`` for any other output.  The
package is imported from ``PYTHONPATH``, so diffing the output for two trees
checks that every report, exit code and error message is byte-identical:

    PYTHONPATH=src python scripts/report_digests.py --seed 57 > new.txt
    PYTHONPATH=../parent/src python scripts/report_digests.py --seed 57 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import zlib

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from tranship import cli  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(seed: int, variant: int, tiny: bool):
    """Yield one digest line per job of every workload, in job order, then
    one per job of the pairing documents."""
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            docs, jobs = workloads.build(workload, seed, work, tiny=tiny, variant=variant)
            for job in jobs:
                argv = [job["command"], docs[job["doc"]][0], *job["flags"]]
                yield f"{workload} {job['id']} {_digest_job(argv, work)}"
    with tempfile.TemporaryDirectory() as work:
        for name, (command, doc, flags) in pairing_documents(seed, variant).items():
            path = os.path.join(work, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            yield f"pairing {command}:{name} {_digest_job([command, path, *flags], work)}"


def _unit(v):
    return v / np.sqrt(np.dot(v, v))


def _rows(array) -> list:
    return np.asarray(array, dtype=float).tolist()


def _flux_atoms(points, vectors, masses) -> list:
    """Plan atoms at t = 0: mass * |vector| along the vector's direction."""
    return [
        {"base": _rows(p), "dir": _rows(_unit(v)), "t": 0.0, "mass": float(m * np.sqrt(np.dot(v, v)))}
        for p, v, m in zip(points, vectors, masses)
    ]


def _plan_check_document(rng, dim: int) -> dict:
    """Unit dipoles, vector atoms, segments and a cell field with zero
    cells, with a plan that reproduces all four parts: rays from each sink
    back to its source, and flux atoms on the vector atoms and at the
    segment and cell quadrature nodes.  The test functions are the
    coordinates, a polynomial of degree 8 and radial bumps of either sign."""
    sources, sinks = rng.uniform(0.0, 1.0, size=(2, 5, dim))
    lengths = np.sqrt(np.sum((sources - sinks) ** 2, axis=1))
    plan = [
        {"base": _rows(y), "dir": _rows(_unit(x - y)), "t": float(t), "mass": float(t)}
        for x, y, t in zip(sources, sinks, lengths)
    ]
    atom_points, atom_vectors = rng.uniform(0.0, 1.0, size=(2, 3, dim))
    plan += _flux_atoms(atom_points, atom_vectors, np.ones(3))
    seg_a, seg_b, seg_density = rng.uniform(0.0, 1.0, size=(3, 3, dim))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for a, b, density in zip(seg_a, seg_b, seg_density):
        points = a + (0.5 * (nodes + 1.0))[:, None] * (b - a)
        w = 0.5 * weights * np.sqrt(np.dot(b - a, b - a))
        plan += _flux_atoms(points, [density] * len(w), w)
    resolution = (3, 2, 2)[:dim]
    vectors = rng.normal(size=(int(np.prod(resolution)), dim))
    vectors[::3] = 0.0
    h = 1.0 / np.asarray(resolution, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    stencil = np.stack(np.meshgrid(*[0.5 * (nodes + 1.0)] * dim, indexing="ij"), axis=-1)
    w = np.prod(np.stack(np.meshgrid(*[0.5 * weights] * dim, indexing="ij"), axis=-1), axis=-1)
    for flat, v in enumerate(vectors):
        if np.any(v):
            lower = np.array(np.unravel_index(flat, resolution)) * h
            points = lower + stencil.reshape(-1, dim) * h
            plan += _flux_atoms(points, [v] * w.size, w.ravel() * np.prod(h))
    exponents = ["3,1", "0,2", "4,4"] if dim == 2 else ["2,1,1", "0,0,3", "3,3,2"]
    test_functions = [{"kind": "coordinate", "axis": k} for k in range(dim)]
    test_functions.append(
        {"kind": "polynomial", "coeffs": dict(zip(exponents, rng.normal(size=3).tolist()))}
    )
    for amplitude in (-1.5, 0.75):
        center = rng.uniform(0.2, 0.8, size=dim)
        test_functions.append(
            {"kind": "radial_bump", "center": _rows(center), "radius": 0.6, "amplitude": amplitude}
        )
    unit_box = {"lower": [0.0] * dim, "upper": [1.0] * dim}
    return {
        "version": 1,
        "domain": unit_box,
        "atoms": [{"point": _rows(p), "mass": m} for ps, m in ((sources, 1.0), (sinks, -1.0)) for p in ps],
        "vector_atoms": [{"point": _rows(p), "vector": _rows(v)} for p, v in zip(atom_points, atom_vectors)],
        "segments": [
            {"a": _rows(a), "b": _rows(b), "density": _rows(d)} for a, b, d in zip(seg_a, seg_b, seg_density)
        ],
        "cells": {"resolution": list(resolution), "vectors": _rows(vectors), "domain": unit_box},
        "plan": plan,
        "test_functions": test_functions,
    }


def _certified_3d_document(rng) -> dict:
    """Tangential segments from sinks to sources in the unit cube plus
    normal vector atoms on a line at x >= 4, 2 apart: ``decompose`` builds
    its 3-d cone witness and certifies the split."""
    sources, sinks = rng.uniform(0.0, 1.0, size=(2, 6, 3))
    masses = rng.uniform(0.5, 1.5, size=6)
    segments = [
        {"a": _rows(y), "b": _rows(x), "density": _rows(m * _unit(x - y))}
        for x, y, m in zip(sources, sinks, masses)
    ]
    atoms = [
        {"point": [4.0 + 2.0 * k, *rng.uniform(0.0, 1.0, size=2).tolist()],
         "vector": _rows(rng.uniform(0.5, 2.0) * _unit(rng.normal(size=3)))}
        for k in range(3)
    ]
    return {"version": 1, "segments": segments, "vector_atoms": atoms}


def _dipole_3d_document(rng, n_pairs=12) -> dict:
    """3-d dipoles of geometrically shrinking length with a valid analytic
    tail, the 3-d form of the benchmark's dipole document."""
    ratio, first = float(rng.uniform(0.6, 0.8)), float(rng.uniform(0.2, 0.5))
    pairs = []
    for i in range(n_pairs):
        p = rng.uniform(0.0, 1.0, size=3)
        pairs.append({"p": _rows(p), "n": _rows(p + first * ratio**i * _unit(rng.normal(size=3)))})
    tail = {"ratio": ratio, "first_term": first / (1.0 - ratio)}
    return {"version": 1, "dipoles": {"pairs": pairs, "tail": tail}, "options": {"eps": [0.3, 0.02, 1e-4]}}


def pairing_documents(seed: int, variant: int) -> dict:
    """``name -> (command, document, flags)`` for the paths the benchmark's
    documents leave out: pairings against coordinate, polynomial and radial
    bump test functions, cell fields and 3-d geometry, including the
    rasterized 3-d plan and a 3-d modulus.  ``raster-cells`` rasterizes the
    2-d document without its plan, so the vector atoms, segments and cell
    field are rasterized themselves.  Every job exits 0 with no report
    warnings."""
    def rng_for(name):
        return np.random.default_rng([seed, variant, zlib.crc32(name.encode())])

    functions_2d = _plan_check_document(rng_for("functions-2d"), 2)
    functions_3d = _plan_check_document(rng_for("functions-3d"), 3)
    without_plan = {key: value for key, value in functions_2d.items() if key != "plan"}
    return {
        "functions-2d": ("plan-check", functions_2d, []),
        "functions-3d": ("plan-check", functions_3d, []),
        "certified-3d": ("decompose", _certified_3d_document(rng_for("certified-3d")), []),
        "dipoles-3d": ("modulus", _dipole_3d_document(rng_for("dipoles-3d")), ["--format", "json"]),
        "raster-3d": ("density", functions_3d, ["--grid", "4x4x4", "--format", "csv"]),
        "raster-cells": ("density", without_plan, ["--grid", "12x8", "--format", "csv"]),
    }


def _digest_job(argv, work: str) -> str:
    """Run one job with ``--out``: ``exit sha256(out) sha256(stderr) warnings``."""
    out = os.path.join(work, "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            status = cli.run([*argv, "--out", out])
        except Exception as exc:  # one broken job must not hide the rest
            traceback.print_exc()
            status = type(exc).__name__
    out_digest = n_warnings = "-"
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        out_digest = _sha256(data)
        n_warnings = _count_warnings(data)
    return f"{status} {out_digest} {_sha256(err.getvalue().encode())} {n_warnings}"


def _count_warnings(data: bytes) -> str:
    """Length of a JSON report's ``warnings`` list, ``-`` for other output."""
    if not data.startswith(b"{"):  # csv, svg and ascii output
        return "-"
    return str(len(json.loads(data)["warnings"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="the smoke check's document sizes")
    args = parser.parse_args(argv)
    for line in digest_lines(args.seed, args.variant, args.tiny):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
