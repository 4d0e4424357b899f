"""In-process scaling suite: seeded solver timings at sizes the CLI
benchmark (``perfbench/``) does not run.

    PYTHONPATH=src python scripts/bench.py [--repeats 3] [--seed 0] [--out bench.json]

Every case builds one seeded instance (uniform atoms in the unit box, half
positive and half negative, distinct masses) and times the solver call alone,
``--repeats`` times after one untimed warm-up call; the reported time is the
median.  Cases:

* start-up: a fresh ``python -m tranship.cli --help`` and a fresh
  ``python -m tranship.cli connect`` on a 100-atom document, ``--repeats``
  processes each.  The case gives the median wall time and the median child
  peak RSS;
* ``dual_potential`` and ``flat_norm`` (``max`` and ``sum``) at 100 / 160 /
  400 / 800 atoms.  Each of the ``--repeats`` runs is one timed call after a
  warm-up call in its own child process, which also reports its peak RSS
  (numpy and scipy, where loaded, included); the case gives the medians.
  ``dual_potential`` and the ``sum`` flat norm are the row-generated LP;
  the ``max`` flat norm is the ground transport, which keeps these cases so
  that it compares with the LP it replaced;
* ``load_document`` of a seeded 2,000-segment polyline document (100
  random walks of 20 segments from ``perfbench/workloads.py``, plus its 10
  vector atoms) and of the seeded 2,000-atom document: JSON parsing,
  validation, atom merging and the segment-overlap check;
* ``minimal_connection`` at 100 / 200 / 400 / 800 / 1200 atoms, and on
  400 + 400 unit masses (the same seeded points, masses +1 and -1);
* ``solve_beckmann`` on the complete graph at 100 / 200 / 400 atoms (the
  dense numpy solver, ``mincostflow.solve_complete``), and on 64², 128² with
  diagonals and 256² grids over 36 atoms in the unit box and a 32³ grid with
  diagonals (the 26-neighbour stencil) over 36 atoms in the unit cube (the
  network is built outside the timed call);
* ``rasterize_vector_measure`` of a seeded cell field (standard normal
  vectors) onto a grid of the same shape on the unit box, at 256² and 32³;
* the CLI report path at scale: ``tranship beckmann --grid 256x256`` over the
  36-atom instance, ``tranship connect`` at 800 atoms, ``tranship beckmann``
  (the complete network) at 400 atoms, ``tranship flatnorm --convention
  max`` (the ground transport) at 800 atoms, and the two LP commands,
  ``tranship dual`` and ``tranship flatnorm --convention sum``, at 400 atoms,
  each through ``tranship.cli.run`` with ``--out`` into a temporary
  directory.  Each of the ``--repeats`` runs is one call in its own child
  process, which reports the call's time (the LP commands' load of HiGHS's
  bindings included), its peak RSS, the report's sha256 and its value
  (``cost`` or ``value``); the case gives the medians.

Peak RSS is the child's ``ru_maxrss``.  A child started by vfork+exec
inherits its parent's high-water mark, so the child cases run before the
in-process cases grow this process; its resident set (numpy and the package,
about 40 MiB) is still a floor under every child peak.  The start-up
processes are started by a small launcher that imports no numpy, so their
floor is a bare interpreter's.

The package is imported from ``PYTHONPATH``, so running the suite against
two source trees compares them on the same instances.  The JSON result goes
to standard output (and to ``--out``); the suite takes a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from tranship import beckmann, cli, matchnorm  # noqa: E402
from tranship.density import rasterize_vector_measure  # noqa: E402
from tranship.document import load_document  # noqa: E402
from tranship.geom import Domain, Grid  # noqa: E402
from tranship.measures import CellField, SignedAtomMeasure, StructuredVectorMeasure  # noqa: E402

LP_SIZES = (100, 160, 400, 800)
FLOW_SIZES = (100, 200, 400, 800, 1200)
UNIT_FLOW_SIZE = 800
# (shape, diagonals) of the solve_beckmann grid cases
GRIDS = (((64, 64), False), ((128, 128), True), ((256, 256), False), ((32, 32, 32), True))
GRID_ATOMS = 36
COMPLETE_SIZES = (100, 200, 400)
# shapes of the rasterized cell fields, each onto a grid of its own shape
CELL_FIELDS = ((256, 256), (32, 32, 32))
# command line -> atoms in its document
CLI_CASES = (
    ("beckmann --grid 256x256", GRID_ATOMS),
    ("connect", 800),
    ("beckmann", 400),
    ("flatnorm --convention max", 800),
    ("dual", 400),
    ("flatnorm --convention sum", 400),
)
LOAD_ATOMS = 2000
LOAD_POLYLINES = (100, 20)  # walks, segments per walk
STARTUP_CASES = (("--help", 0), ("connect", 100))
MIB = float(1 << 20)


def instance(n: int, seed: int, unit: bool = False, dim: int = 2) -> SignedAtomMeasure:
    rng = np.random.default_rng([seed, n])
    half = n // 2
    pos = rng.uniform(0.5, 1.5, size=half)
    neg = rng.uniform(0.5, 1.5, size=n - half)
    neg *= pos.sum() / neg.sum()
    if unit:
        pos, neg = np.ones(half), np.ones(n - half)
    return SignedAtomMeasure(rng.uniform(size=(n, dim)), np.concatenate([pos, -neg]))


def timed(call, repeats: int):
    """Median and all times of `repeats` calls after one warm-up call, and
    the warm-up call's result."""
    result = call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, result


LP_SOLVERS = {
    "dual_potential": lambda f: matchnorm.dual_potential(f)[1],
    "flat_norm:max": lambda f: matchnorm.flat_norm(f, "max"),
    "flat_norm:sum": lambda f: matchnorm.flat_norm(f, "sum"),
}


def lp_case(solver: str, n: int, seed: int) -> dict:
    """One timed call of an ``LP_SOLVERS`` case (the ``max`` flat norm among
    them is a transport) after a warm-up call in this process; run it in a
    fresh child for its RSS."""
    f = instance(n, seed)
    elapsed, _times, value = timed(lambda: LP_SOLVERS[solver](f), 1)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    return {"case": solver, "atoms": n, "time_s": elapsed, "value": value, "peak_rss_mib": peak}


def in_child(case: str, seed: int) -> dict:
    """Run ``--child CASE`` in a fresh interpreter and return its JSON."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", case, "--seed", str(seed)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def medians(runs: list) -> dict:
    """One case from runs in separate processes: the median time and peak
    RSS, and the other entries, which every run must reproduce."""
    timed_keys = ("time_s", "peak_rss_mib")
    fixed = [{k: v for k, v in run.items() if k not in timed_keys} for run in runs]
    if any(entries != fixed[0] for entries in fixed):
        raise RuntimeError(f"runs of one case disagree: {fixed}")
    return {**fixed[0],
            "time_s": statistics.median(run["time_s"] for run in runs),
            "times_s": [run["time_s"] for run in runs],
            "peak_rss_mib": statistics.median(run["peak_rss_mib"] for run in runs)}


def write_document(path: str, n: int, seed: int):
    """The seeded n-atom instance as a document in the unit box."""
    f = instance(n, seed)
    doc = {
        "version": 1,
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "atoms": [{"point": p, "mass": m} for p, m in zip(f.points.tolist(), f.masses.tolist())],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def cli_case(command: str, n: int, seed: int) -> dict:
    """One ``tranship.cli.run`` call in this process on the seeded n-atom
    document in the unit box, with ``--out`` into a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out_path = os.path.join(tmp, "doc.json"), os.path.join(tmp, "report.json")
        write_document(doc_path, n, seed)
        name, *flags = command.split()
        argv = [name, doc_path, *flags, "--out", out_path]
        start = time.perf_counter()
        status = cli.run(argv)
        elapsed = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
        with open(out_path, "rb") as fh:
            report = fh.read()
    values = json.loads(report)["values"]
    return {"case": f"cli {command}", "atoms": n, "exit": status,
            "time_s": elapsed, "peak_rss_mib": peak, "report_mib": len(report) / MIB,
            "report_sha256": hashlib.sha256(report).hexdigest(),
            "value": values["cost"] if "cost" in values else values["value"]}


def child_cases(seed: int, repeats: int):
    """The LP and CLI cases, `repeats` fresh children each."""
    cases = [f"{solver}@{n}" for solver in LP_SOLVERS for n in LP_SIZES]
    cases += [f"cli:{command}@{n}" for command, n in CLI_CASES]
    for case in cases:
        yield medians([in_child(case, seed) for _ in range(repeats)])


# runs ARGV_JSON REPEATS times, one fresh process each, and prints per run
# the exit code, wall time and the process's own peak RSS from wait4
LAUNCHER = """\
import json, os, subprocess, sys, time
argv, runs = json.loads(sys.argv[1]), []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    runs.append({"exit": proc.returncode, "time_s": time.perf_counter() - start,
                 "peak_rss_mib": usage.ru_maxrss / 1024.0})
print(json.dumps(runs))
"""


def startup_cases(seed: int, repeats: int):
    """Fresh ``python -m tranship.cli`` processes, as a user starts them."""
    with tempfile.TemporaryDirectory() as tmp:
        for command, n in STARTUP_CASES:
            argv = [sys.executable, "-m", "tranship.cli", command]
            out_path = os.path.join(tmp, "report.json")
            if n:
                doc_path = os.path.join(tmp, "doc.json")
                write_document(doc_path, n, seed)
                argv += [doc_path, "--out", out_path]
            launcher = [sys.executable, "-c", LAUNCHER, json.dumps(argv), str(repeats)]
            out = subprocess.run(launcher, check=True, capture_output=True, text=True).stdout
            case = {"case": f"startup {command}", "atoms": n, **medians(json.loads(out))}
            if n:
                with open(out_path) as fh:
                    case["value"] = json.load(fh)["values"]["cost"]
            yield case


def load_cases(seed: int, repeats: int):
    """``load_document`` of the seeded polyline and atom documents."""
    with tempfile.TemporaryDirectory() as tmp:
        polylines = os.path.join(tmp, "polylines.json")
        lines, segments = LOAD_POLYLINES
        doc = workloads._polylines_document(np.random.default_rng([seed, lines]), lines, segments)
        with open(polylines, "w") as fh:
            json.dump(doc, fh)
        atoms = os.path.join(tmp, "atoms.json")
        write_document(atoms, LOAD_ATOMS, seed)
        for name, path in (("polylines", polylines), ("atoms", atoms)):
            median, times, loaded = timed(lambda: load_document(path), repeats)
            yield {"case": "load_document", "document": name, "atoms": len(loaded.atoms),
                   "segments": loaded.vector_measure.n_segments, "time_s": median,
                   "times_s": times}


def flow_cases(seed: int, repeats: int):
    for n, unit in [(n, False) for n in FLOW_SIZES] + [(UNIT_FLOW_SIZE, True)]:
        f = instance(n, seed, unit)
        median, times, matching = timed(lambda: matchnorm.minimal_connection(f), repeats)
        yield {"case": "minimal_connection", "atoms": n, "masses": "unit" if unit else "distinct",
               "time_s": median, "times_s": times, "value": matching.cost}
    for n in COMPLETE_SIZES:
        net = beckmann.complete_network(instance(n, seed))
        median, times, flow = timed(lambda: beckmann.solve_beckmann(net), repeats)
        yield {"case": "solve_beckmann", "graph": "complete", "atoms": n,
               "edges": int(net.edges.shape[0]), "time_s": median,
               "times_s": times, "value": flow.cost}
    for shape, diagonals in GRIDS:
        dim = len(shape)
        f = instance(GRID_ATOMS, seed, dim=dim)
        domain = Domain(np.zeros(dim), np.ones(dim))
        net = beckmann.grid_network(domain, shape, f, diagonals=diagonals)
        median, times, flow = timed(lambda: beckmann.solve_beckmann(net), repeats)
        yield {"case": "solve_beckmann", "grid": "x".join(map(str, shape)), "diagonals": diagonals,
               "atoms": GRID_ATOMS, "edges": int(net.edges.shape[0]), "time_s": median,
               "times_s": times, "value": flow.cost}


def raster_cases(seed: int, repeats: int):
    for shape in CELL_FIELDS:
        dim = len(shape)
        grid = Grid(Domain(np.zeros(dim), np.ones(dim)), shape)
        vectors = np.random.default_rng([seed, *shape]).normal(size=(grid.n_cells, dim))
        empty = np.zeros((0, dim))
        nu = StructuredVectorMeasure(
            dim, empty, empty, empty, empty, empty, cells=CellField(grid, vectors)
        )
        median, times, density = timed(lambda: rasterize_vector_measure(nu, grid), repeats)
        yield {"case": "rasterize_vector_measure", "cells": "x".join(map(str, shape)),
               "time_s": median, "times_s": times, "value": density.total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per case")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    parser.add_argument("--out", help="also write the JSON result here")
    # one case in this process: SOLVER@ATOMS (an LP) or cli:COMMAND@ATOMS
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child:
        case, n = args.child.rsplit("@", 1)
        if case.startswith("cli:"):
            result = cli_case(case[len("cli:"):], int(n), args.seed)
        else:
            result = lp_case(case, int(n), args.seed)
        print(json.dumps(result))
        return 0
    start = time.perf_counter()
    cases = list(startup_cases(args.seed, args.repeats))
    # before the in-process cases raise this process's high-water mark
    cases += child_cases(args.seed, args.repeats)
    cases += load_cases(args.seed, args.repeats)
    cases += flow_cases(args.seed, args.repeats)
    cases += raster_cases(args.seed, args.repeats)
    result = {
        "seed": args.seed,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "cases": cases,
        "suite_s": time.perf_counter() - start,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
