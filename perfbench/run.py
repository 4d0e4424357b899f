"""End-to-end and per-layer benchmark of the ``tranship`` command line.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 40 --trace 0

Run from the repository root.  The seed makes the workload's documents
(``workloads.py``); the program sees only those files.  The load is a closed
loop with one client: one ``python -m tranship.cli`` child process at a time,
each with a wall-time budget and an address-space cap, so a runaway job
counts as failed instead of hanging or exhausting memory.  Every output is
checked offline (``checks.py``).

``--trace 0`` measures what a user sees, repeating passes over the fixed job
list for ``--seconds`` and reporting medians; each pass after the first runs
on a fresh seeded variant of the documents:

* ``setup_s``: a fresh ``python -m tranship.cli --help`` (interpreter start,
  imports, argparse), median of a few samples before every pass;
* ``wall_s`` / ``cpu_s``: wall and child CPU time of one pass;
* ``peak_rss_mib``: the largest peak RSS of any job;
* ``ok_frac``: jobs that passed their checks over jobs attempted.  Its
  complement, the failed fraction, is printed with the summary; the metric
  counts successes because a metric must never read 0.

``--trace 1`` runs the job list over the first variant three times, in one
process each (``tracer.py``): untraced, traced, untraced.  It reports
per-layer self times and counts from the traced pass, and the tracing
overhead as the traced pass minus the mean of the untraced ones.  Import
times come from ``python -X importtime`` in fresh processes.  The spans are
kept under ``.perfbench/``.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

JOB_TIMEOUT_S = 60.0
# no child may run past this point of a run, which must end within 180 s
RUN_DEADLINE_S = 150.0
MEMORY_CAP = 3 << 30
SETUP_PER_PASS = 3
IMPORT_REPEATS = 3
MIB = float(1 << 20)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "fraction",
}

# span name -> the layer's self time, reported as "<span>_s"
SPAN_LAYERS = (
    "cli.handler", "cli.emit", "document.parse",
    "measures.vector_build", "measures.atoms_build", "measures.divergence", "measures.pair",
    "geom.segment_cells", "mincostflow.solve",
    "matchnorm.lp_build", "matchnorm.lp_solve", "matchnorm.connect", "matchnorm.dual",
    "matchnorm.flat", "matchnorm.assignment",
    "beckmann.network_build", "beckmann.solve", "density.raster", "density.export",
    "genplan.verify", "genplan.convert",
    "sharpspace.split", "sharpspace.certify", "sharpspace.modulus",
)
COUNTS = {
    "measures.segments": "count", "measures.atoms_kept": "count",
    "measures.ghost_atoms": "count", "measures.pair_calls": "count",
    "geom.dist_calls": "count",
    "mincostflow.calls": "count", "mincostflow.nodes": "count",
    "mincostflow.arcs": "count", "mincostflow.flow_arcs": "count",
    "matchnorm.lp_rows": "count", "matchnorm.lp_matrix_mib": "MiB",
    "matchnorm.lp_iters": "count",
    "beckmann.edges": "count", "density.cells": "count",
}
IMPORTS = ("cli.import_s", "beckmann.import_s", "matchnorm.import_s")
# the import of each of these modules, with the third-party modules it pulls
# in first, is charged to its own metric; everything else to cli.import_s
IMPORT_OWNERS = {"tranship.beckmann": "beckmann.import_s",
                 "tranship.matchnorm": "matchnorm.import_s"}

PER_LAYER = {name: "s" for name in IMPORTS}
PER_LAYER.update({f"{name}_s": "s" for name in SPAN_LAYERS})
PER_LAYER.update(COUNTS)
PER_LAYER["cli.report_mib"] = "MiB"
PER_LAYER["trace.overhead_s"] = "s"


@dataclass(frozen=True)
class Child:
    """Outcome of one child process: status is its exit code, or a string
    when it did not finish."""

    status: object
    wall: float
    cpu: float
    rss_mib: float


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout, stderr_path) -> Child:
    """Run `argv` to completion or until `timeout`; rusage from wait4."""
    if timeout <= 0:
        return Child("run deadline reached", 0.0, 0.0, 0.0)
    timed_out = []
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    # set from outside: a preexec_fn is unsafe once numpy has started threads
    try:
        resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    except ProcessLookupError:  # already exited; wait4 still collects it
        pass

    def on_alarm(_signum, _frame):
        timed_out.append(True)
        os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, wait_status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    status = f"timeout after {timeout:.0f} s" if timed_out else proc.returncode
    return Child(status, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _cli(argv):
    return [sys.executable, "-m", "tranship.cli", *argv]


def _job_argv(job, docs, out_path):
    return [job["command"], docs[job["doc"]][0], "--out", out_path, *job["flags"]]


class Run:
    """State of one benchmark run: its documents, scratch space and deadline."""

    def __init__(self, workload, seed, tiny=False):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        self.log = os.path.join(self.work, "stderr.log")
        self.docs, self.jobs = workloads.build(workload, seed, self.work, tiny=tiny)
        self.attempted = 0
        self.failures = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def budget(self, cap=JOB_TIMEOUT_S):
        return min(cap, self.deadline - time.monotonic())

    def out_paths(self, tag):
        return {j["id"]: os.path.join(self.work, f"{tag}-{j['id'].replace(':', '-')}.out")
                for j in self.jobs}

    def check(self, statuses, out_paths, tag):
        reasons = checks.check_pass(self.jobs, self.docs, statuses, out_paths)
        self.attempted += len(reasons)
        for job_id, reason in reasons.items():
            if reason is not None:
                self.failures.append(f"{tag} {job_id}: {reason}")

    def result(self, metrics):
        for line in self.failures:
            sys.stderr.write(f"FAILED {line}\n")
        if self.failures and os.path.exists(self.log):
            with open(self.log, errors="replace") as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}

    # --- untraced: what a user of the CLI sees -------------------------------

    def setup_times(self, repeats):
        times = []
        for _ in range(repeats):
            child = run_child(_cli(["--help"]), self.budget(), self.log)
            if child.status != 0:
                raise RuntimeError(f"tranship --help failed: {child.status}")
            times.append(child.wall)
        return times

    def timed_pass(self, out_paths):
        statuses, cpu, rss = {}, 0.0, 0.0
        start = time.perf_counter()
        for job in self.jobs:
            out = out_paths[job["id"]]
            if os.path.exists(out):
                os.remove(out)
            child = run_child(_cli(_job_argv(job, self.docs, out)), self.budget(), self.log)
            statuses[job["id"]] = child.status
            cpu += child.cpu
            rss = max(rss, child.rss_mib)
        wall = time.perf_counter() - start
        return statuses, wall, cpu, rss

    def end_to_end(self, seconds):
        """Cycles of (document variant, setup samples, one pass) until one
        more cycle would end after `seconds`.

        Each pass after the first runs on a fresh seeded variant of the
        documents, so a run's medians average over several instances, and
        the setup samples are spread over the run rather than taken at once.
        """
        self.setup_times(1)  # fills the bytecode cache
        out_paths = self.out_paths("pass")
        setup, walls, cpus, cycles, peak = [], [], [], [], 0.0
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if walls:
                self.docs, _ = workloads.build(self.workload, self.seed, self.work,
                                               tiny=self.tiny, variant=len(walls))
            setup += self.setup_times(SETUP_PER_PASS)
            statuses, wall, cpu, rss = self.timed_pass(out_paths)
            self.check(statuses, out_paths, f"pass {len(walls)}")
            walls.append(wall)
            cpus.append(cpu)
            peak = max(peak, rss)
            cycles.append(time.perf_counter() - began)
            cycle = max(cycles)
            if time.perf_counter() - start + cycle > seconds or time.monotonic() + cycle > self.deadline:
                break
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": peak,
            "ok_frac": 1.0 - len(self.failures) / self.attempted,
        }
        print(f"# {self.workload} seed {self.seed}: {len(walls)} passes of {len(self.jobs)} jobs, "
              f"{len(setup)} setup runs, failed_frac {1.0 - values['ok_frac']!r}")
        return values

    # --- traced: per-layer self times and counts -----------------------------

    def import_times(self):
        samples = defaultdict(list)
        for k in range(IMPORT_REPEATS):
            log = os.path.join(self.work, f"importtime-{k}.log")
            argv = [sys.executable, "-X", "importtime", "-c", "import numpy, tranship.cli"]
            child = run_child(argv, self.budget(), log)
            if child.status != 0:
                raise RuntimeError(f"importing tranship.cli failed: {child.status}")
            with open(log) as fh:
                for name, value in attribute_imports(fh.read()).items():
                    samples[name].append(value)
        return {name: statistics.median(samples[name]) for name in IMPORTS}

    def in_process_pass(self, tag, spans_path=None):
        out_paths = self.out_paths(tag)
        jobs = [{"id": j["id"], "argv": _job_argv(j, self.docs, out_paths[j["id"]])}
                for j in self.jobs]
        jobs_path = os.path.join(self.work, f"{tag}-jobs.json")
        result_path = os.path.join(self.work, f"{tag}-result.json")
        with open(jobs_path, "w") as fh:
            json.dump(jobs, fh)
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), jobs_path, result_path]
        if spans_path is not None:
            argv.append(spans_path)
        child = run_child(argv, self.budget(RUN_DEADLINE_S), self.log)
        result = {"pass_s": 0.0, "statuses": {}, "counts": {}}
        if child.status == 0:
            with open(result_path) as fh:
                result = json.load(fh)
        statuses = {j["id"]: result["statuses"].get(j["id"], f"tracer child: {child.status}")
                    for j in self.jobs}
        self.check(statuses, out_paths, tag)
        report_bytes = sum(os.path.getsize(p) for p in out_paths.values() if os.path.exists(p))
        return result, report_bytes

    def per_layer(self):
        imports = self.import_times()
        spans_path = os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        # untraced passes on both sides of the traced one cancel a steady drift
        before, _ = self.in_process_pass("untraced")
        traced, report_bytes = self.in_process_pass("traced", spans_path)
        after, _ = self.in_process_pass("untraced")
        values = dict(imports)
        spans = []
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)["spans"]
        self_times = self_time_by_name(spans)
        for name in SPAN_LAYERS:
            values[f"{name}_s"] = self_times.get(name, 0.0)
        for name in COUNTS:
            values[name] = traced["counts"].get(name, 0)
        values["cli.report_mib"] = report_bytes / MIB
        values["trace.overhead_s"] = traced["pass_s"] - (before["pass_s"] + after["pass_s"]) / 2
        print(f"# {self.workload} seed {self.seed}: {len(spans)} spans in {spans_path}")
        return values


def attribute_imports(log: str) -> dict:
    """Import time per metric from ``python -X importtime`` output.

    Each module's self time goes to the nearest enclosing module listed in
    IMPORT_OWNERS (itself included), else to ``cli.import_s``.  The log lists
    children before their parent, one indent step deeper.
    """
    pending = defaultdict(list)
    for line in log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(self_us), pending.pop(level + 1, []))
        pending[level].append(node)
    totals = dict.fromkeys(IMPORTS, 0.0)

    def charge(node, owner):
        name, self_us, children = node
        owner = IMPORT_OWNERS.get(name, owner)
        totals[owner] += self_us * 1e-6
        for child in children:
            charge(child, owner)

    for root in pending[0]:
        charge(root, "cli.import_s")
    return totals


def self_time_by_name(spans) -> dict:
    """Sum over spans of each name: duration minus its direct children's."""
    self_time = [end - start for _name, start, end, _parent, _job in spans]
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    totals = defaultdict(float)
    for (name, *_), value in zip(spans, self_time):
        totals[name] += value
    return dict(totals)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def measure(workload, seed, seconds, trace, tiny=False) -> dict:
    run = Run(workload, seed, tiny=tiny)
    try:
        if trace:
            metrics, units = run.per_layer(), PER_LAYER
        else:
            metrics, units = run.end_to_end(seconds), END_TO_END
        return run.result({k: {"value": metrics[k], "unit": units[k]} for k in units})
    finally:
        run.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tranship", "cli.py")):
        sys.stderr.write(f"no tranship sources under {SRC}: run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    # a terminated run still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    print("# env " + json.dumps(environment(), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"# {args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
