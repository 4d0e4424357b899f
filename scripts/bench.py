"""In-process scaling suite: seeded solver timings at sizes the CLI
benchmark (``perfbench/``) does not run.

    PYTHONPATH=src python scripts/bench.py [--repeats 3] [--seed 0] [--out bench.json]

Every case builds one seeded instance (uniform atoms in the unit box, half
positive and half negative, distinct masses) and times the solver call alone,
``--repeats`` times after one untimed warm-up call; the reported time is the
median.  Cases:

* ``dual_potential`` and ``flat_norm`` (``max`` and ``sum``) at 100 / 160 /
  400 atoms.  Each runs in its own child process, which also reports its
  peak RSS (numpy and scipy included);
* ``minimal_connection`` at 100 / 200 / 400 / 800 atoms;
* ``solve_beckmann`` on 64², 128² with diagonals and 256² grids over 36
  atoms in the unit box (the network is built outside the timed call).

The package is imported from ``PYTHONPATH``, so running the suite against
two source trees compares them on the same instances.  The JSON result goes
to standard output (and to ``--out``); the suite takes well under a minute.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from tranship import beckmann, matchnorm
from tranship.geom import Domain
from tranship.measures import SignedAtomMeasure

LP_SIZES = (100, 160, 400)
FLOW_SIZES = (100, 200, 400, 800)
GRIDS = ((64, False), (128, True), (256, False))
GRID_ATOMS = 36
MIB = float(1 << 20)


def instance(n: int, seed: int) -> SignedAtomMeasure:
    rng = np.random.default_rng([seed, n])
    half = n // 2
    pos = rng.uniform(0.5, 1.5, size=half)
    neg = rng.uniform(0.5, 1.5, size=n - half)
    neg *= pos.sum() / neg.sum()
    return SignedAtomMeasure(rng.uniform(size=(n, 2)), np.concatenate([pos, -neg]))


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


def lp_case(solver: str, n: int, seed: int, repeats: int) -> dict:
    """One LP case in this process; run it in a fresh child for its RSS."""
    f = instance(n, seed)
    median, times, value = timed(lambda: LP_SOLVERS[solver](f), repeats)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    return {"case": solver, "atoms": n, "time_s": median, "times_s": times,
            "value": value, "peak_rss_mib": peak}


def lp_case_in_child(solver: str, n: int, seed: int, repeats: int) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", f"{solver}@{n}",
            "--seed", str(seed), "--repeats", str(repeats)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def flow_cases(seed: int, repeats: int):
    for n in FLOW_SIZES:
        f = instance(n, seed)
        median, times, matching = timed(lambda: matchnorm.minimal_connection(f), repeats)
        yield {"case": "minimal_connection", "atoms": n, "time_s": median,
               "times_s": times, "value": matching.cost}
    domain = Domain(np.zeros(2), np.ones(2))
    f = instance(GRID_ATOMS, seed)
    for side, diagonals in GRIDS:
        net = beckmann.grid_network(domain, (side, side), f, diagonals=diagonals)
        median, times, flow = timed(lambda: beckmann.solve_beckmann(net), repeats)
        yield {"case": "solve_beckmann", "grid": f"{side}x{side}", "diagonals": diagonals,
               "atoms": GRID_ATOMS, "edges": int(net.edges.shape[0]), "time_s": median,
               "times_s": times, "value": flow.cost}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per case")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    parser.add_argument("--out", help="also write the JSON result here")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # SOLVER@ATOMS: one LP case
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child:
        solver, n = args.child.rsplit("@", 1)
        print(json.dumps(lp_case(solver, int(n), args.seed, args.repeats)))
        return 0
    start = time.perf_counter()
    cases = [
        lp_case_in_child(solver, n, args.seed, args.repeats)
        for solver in LP_SOLVERS
        for n in LP_SIZES
    ]
    cases += flow_cases(args.seed, args.repeats)
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
