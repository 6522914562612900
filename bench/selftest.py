"""Shows that the correctness gate is not blind.

Usage, from the repository root:

    python3 bench/selftest.py

A tiny branching j1 run goes through the whole harness (worker process,
reference comparison, dense check) and must pass; the same output with one
interior nodal value nudged by one part in a million must fail.  run_bench.py
does this at the start of every run.
"""

import csv
import shutil
import sys
from pathlib import Path

import gate
import worker
from workloads import SELFTEST


def gate_blind_spots(root, workdir):
    """Problems with the gate itself; empty when it behaves."""
    w = SELFTEST
    jobs = worker.launch(root, w.name, 0, False, 0, workdir)["jobs"]
    first_dir = Path(workdir) / "job0"
    reference = gate.load_reference()[w.name]
    problems, _ = gate.check_run(w, jobs, first_dir, reference)
    if problems:
        return ["self-test: clean run failed the gate: %s" % "; ".join(problems)]

    path = first_dir / "trajectory.csv"
    header, rows = gate.read_csv(path)
    col = 4 + w.nx // 2  # an interior node of the last branch
    rows[-1][col] = repr(float(rows[-1][col]) * (1 + 1e-6))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    out = []
    if not gate.dense_check(w, first_dir):
        out.append("self-test: dense check passed a corrupted nodal value")
    jobs[0]["files"] = worker.file_hashes(first_dir)
    _, failed = gate.check_run(w, jobs, first_dir, reference)
    if failed != len(jobs):
        out.append("self-test: %d of %d jobs failed on corrupted output" % (failed, len(jobs)))
    shutil.rmtree(workdir)
    return out


def main():
    root = Path.cwd()
    problems = gate_blind_spots(root, root / worker.WORK_ROOT / "selftest")
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        print("self-test: gate passed the clean run and flagged the corrupted one")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
