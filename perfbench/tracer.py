"""One in-process pass over a job list, optionally traced.

Run as a child process with ``PYTHONPATH=src``:

    python perfbench/tracer.py JOBS_JSON RESULT_JSON [SPANS_JSON]

Every job calls ``tranship.cli.run(argv)`` in this one process.  With a
spans path the pass is traced: each public function of the package is
wrapped, from outside, at every module attribute where a caller bound it
(``dist`` in every importing module, ``solve_min_cost_flow`` inside
``matchnorm`` and ``beckmann``, ``linprog`` inside ``matchnorm``, ...).  A
wrapper records a span (name, start, end, parent span, job) and counts work
at the same boundary.  Spans stay in memory and are written when the pass
ends.  Without a spans path nothing is wrapped, which gives the untraced
time the tracing overhead is measured against.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback
from collections import Counter

import numpy as np

import tranship.cli as cli
from tranship import beckmann, density, document, genplan, geom, matchnorm, measures, mincostflow, sharpspace

GHOST_RTOL = 1e-12
MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = Counter()
        self.job = None
        self._open = []

    def span(self, name, fn, after=None, before=None):
        """Wrap `fn` in a span; `before(counts, args)` and
        `after(counts, result, args)` count work outside the timed interval."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.counts, args, kwargs)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.job]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self.counts, result, args)
            return result

        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def rebind(original, wrapped):
    """Replace `original` wherever a package module bound it."""
    for name, module in list(sys.modules.items()):
        if name == "tranship" or name.startswith("tranship."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    for command, handler in cli._HANDLERS.items():
        if handler is original:
            cli._HANDLERS[command] = wrapped


def _solve_counts(counts, sol, args):
    counts["mincostflow.calls"] += 1
    counts["mincostflow.nodes"] += int(args[0])
    counts["mincostflow.arcs"] += int(np.asarray(args[1]).reshape(-1, 2).shape[0])
    counts["mincostflow.flow_arcs"] += int(np.count_nonzero(sol.arc_flows > 0.0))


def _lp_matrix(counts, args, kwargs):
    a_ub = kwargs.get("A_ub")
    if a_ub is not None:
        counts["matchnorm.lp_rows"] += int(a_ub.shape[0])
        counts["matchnorm.lp_matrix_mib"] = max(counts["matchnorm.lp_matrix_mib"], a_ub.nbytes / MIB)


def _lp_iters(counts, res, args):
    counts["matchnorm.lp_iters"] += int(res.nit)


def _atom_counts(counts, _result, args):
    masses = args[0].masses
    counts["measures.atoms_kept"] += int(masses.size)
    scale = float(np.sum(np.abs(masses)))
    counts["measures.ghost_atoms"] += int(np.count_nonzero(np.abs(masses) <= GHOST_RTOL * scale))


def _segment_counts(counts, _result, args):
    nu = args[0]
    if nu.validate and nu.n_segments > 1:
        counts["measures.segments"] += nu.n_segments


def _edge_counts(counts, net, args):
    counts["beckmann.edges"] += int(net.edges.shape[0])


def _cell_counts(counts, result, args):
    counts["density.cells"] += result.grid.n_cells


def _pair_counts(counts, _result, args):
    counts["measures.pair_calls"] += 1


def install(tracer: Tracer):
    """Wrap each layer's public functions; the span name is the metric name
    without its ``_s`` suffix."""
    spans = [
        (geom, "segment_cell_intervals", "geom.segment_cells", None, None),
        (mincostflow, "solve_min_cost_flow", "mincostflow.solve", _solve_counts, None),
        (matchnorm, "_pair_constraints", "matchnorm.lp_build", None, None),
        (matchnorm, "linprog", "matchnorm.lp_solve", _lp_iters, _lp_matrix),
        (matchnorm, "linear_sum_assignment", "matchnorm.assignment", None, None),
        (matchnorm, "minimal_connection", "matchnorm.connect", None, None),
        (matchnorm, "dual_potential", "matchnorm.dual", None, None),
        (matchnorm, "_flat_norm_lp", "matchnorm.flat", None, None),
        (beckmann, "complete_network", "beckmann.network_build", _edge_counts, None),
        (beckmann, "grid_network", "beckmann.network_build", _edge_counts, None),
        (beckmann, "solve_beckmann", "beckmann.solve", None, None),
        (density, "rasterize_plan", "density.raster", _cell_counts, None),
        (density, "rasterize_vector_measure", "density.raster", _cell_counts, None),
        (density, "export", "density.export", None, None),
        (genplan, "verify_projection", "genplan.verify", None, None),
        (genplan, "plan_from_matching", "genplan.convert", None, None),
        (genplan, "plan_from_vector_measure", "genplan.convert", None, None),
        (genplan, "to_vector_measure", "genplan.convert", None, None),
        (sharpspace, "tangential_split", "sharpspace.split", None, None),
        (sharpspace, "_try_certify", "sharpspace.certify", None, None),
        (sharpspace, "modulus", "sharpspace.modulus", None, None),
        (measures, "pair", "measures.pair", _pair_counts, None),
        (measures, "divergence_as_measure", "measures.divergence", None, None),
        (document, "load_document", "document.parse", None, None),
        (cli, "_emit", "cli.emit", None, None),
        (cli, "_emit_bytes", "cli.emit", None, None),
    ]
    spans += [(cli, fn.__name__, "cli.handler", None, None) for fn in set(cli._HANDLERS.values())]
    for module, attr, name, after, before in spans:
        original = getattr(module, attr)
        rebind(original, tracer.span(name, original, after=after, before=before))
    rebind(geom.dist, tracer.count("geom.dist_calls", geom.dist))
    # constructors: dataclass __init__ looks __post_init__ up on the class
    for cls, name, after in (
        (measures.SignedAtomMeasure, "measures.atoms_build", _atom_counts),
        (measures.StructuredVectorMeasure, "measures.vector_build", _segment_counts),
    ):
        cls.__post_init__ = tracer.span(name, cls.__post_init__, after=after)


def main(argv) -> int:
    jobs_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    tracer = Tracer()
    if spans_path is not None:
        install(tracer)
    run = tracer.span("job", cli.run) if spans_path is not None else cli.run
    statuses = {}
    start = time.perf_counter()
    for job in jobs:
        tracer.job = job["id"]
        try:
            statuses[job["id"]] = run(job["argv"])
        except Exception:  # one broken job must not hide the others' results
            traceback.print_exc()
            statuses[job["id"]] = "uncaught exception"
    pass_s = time.perf_counter() - start
    if spans_path is not None:
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump({"pass_s": pass_s, "statuses": statuses, "counts": dict(tracer.counts)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
