"""The benchmark's own smoke check; takes well under a minute.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and requires every
metric named in BENCHMARK.json to be reported with its unit, every job to
pass, the work counts to repeat exactly on a second traced run, and roundoff
ghost atoms to show on ``structure`` but not on ``transport``.  Then it
shows that the checks and limits catch faults: a ``connect`` report whose
cost is raised by 1e-3 must fail (and so must the ``dual`` job checked
against it), a child past its wall-time budget must be killed, and a child
allocating past the memory cap must fail.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"smoke check failed: {what}")


def check_metrics(spec, workload):
    """Returns the per-layer metrics of the traced run."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure(workload, seed=0, seconds=1, trace=trace, tiny=True)
        expect(result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: {result}")
        expect(result["attempted"] >= 1, f"{workload} attempted nothing")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"{workload} trace {trace} metrics {sorted(got)} != {sorted(want)}")
        for name, metric in result["metrics"].items():
            expect(isinstance(metric["value"], (int, float)), f"{name} is not a number")
        print(f"smoke: {workload} trace {trace}: {len(got)} metrics, {result['attempted']} jobs ok")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_counts_repeat(workload, first):
    again = run.measure(workload, seed=0, seconds=1, trace=1, tiny=True)["metrics"]
    for name in run.COUNTS:
        expect(again[name]["value"] == first[name], f"{workload} {name} differs between runs")
    print(f"smoke: {workload} work counts repeat exactly")


def check_injected_fault():
    bench = run.Run("transport", seed=0, tiny=True)
    try:
        jobs = [j for j in bench.jobs if j["id"] in ("connect:small", "dual:small")]
        out_paths = bench.out_paths("fault")
        statuses = {}
        for job in jobs:
            argv = run._cli(run._job_argv(job, bench.docs, out_paths[job["id"]]))
            statuses[job["id"]] = run.run_child(argv, bench.budget(), bench.log).status
        clean = checks.check_pass(jobs, bench.docs, statuses, out_paths)
        expect(clean == {"connect:small": None, "dual:small": None}, f"clean reports: {clean}")
        path = out_paths["connect:small"]
        with open(path) as fh:
            report = json.load(fh)
        report["values"]["cost"] += 1e-3
        with open(path, "w") as fh:
            json.dump(report, fh)
        faulty = checks.check_pass(jobs, bench.docs, statuses, out_paths)
        expect(faulty["connect:small"] is not None, "perturbed connect cost passed")
        expect(faulty["dual:small"] is not None, "dual passed against a perturbed cost")
        print(f"smoke: perturbed connect cost caught: {faulty['connect:small']}")

        sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
        child = run.run_child(sleeper, 0.5, bench.log)
        expect(isinstance(child.status, str) and child.wall < 10, f"timeout: {child.status}")
        # an untouched mapping just over the cap: refused under the cap, and
        # harmless (never paged in) if the cap were missing
        hog = [sys.executable, "-c", f"import mmap; mmap.mmap(-1, {run.MEMORY_CAP + (256 << 20)})"]
        child = run.run_child(hog, bench.budget(), bench.log)
        expect(child.status not in (0, None), f"memory cap: {child.status}")
        print("smoke: wall-time budget and memory cap enforced")
    finally:
        bench.close()


def main() -> int:
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # one setup and import sample keep the smoke run short
    run.SETUP_PER_PASS = run.IMPORT_REPEATS = 1
    layers = {w["name"]: check_metrics(spec, w["name"]) for w in spec["workloads"]}
    expect(layers["structure"]["measures.ghost_atoms"] > 0, "no ghost atoms on structure")
    expect(layers["transport"]["measures.ghost_atoms"] == 0, "ghost atoms on transport")
    check_counts_repeat("structure", layers["structure"])
    check_injected_fault()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
