"""Digest the output of every benchmark job, to compare two source trees.

For one ``--seed`` and ``--variant`` (``--tiny`` for the smoke sizes) this
writes each workload's documents from ``perfbench/workloads.py`` into a
temporary directory, runs every job in-process through ``tranship.cli.run``
with ``--out``, and prints one line per job:

    workload job exit sha256(out) sha256(stderr) warnings

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from tranship import cli  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(seed: int, variant: int, tiny: bool):
    """Yield one digest line per job of every workload, in job order."""
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            docs, jobs = workloads.build(workload, seed, work, tiny=tiny, variant=variant)
            out = os.path.join(work, "out")
            for job in jobs:
                argv = [job["command"], docs[job["doc"]][0], "--out", out, *job["flags"]]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        status = cli.run(argv)
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
                err_digest = _sha256(err.getvalue().encode())
                yield f"{workload} {job['id']} {status} {out_digest} {err_digest} {n_warnings}"


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
