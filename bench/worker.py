"""Runs one workload's jobs in a fresh process and reports what they did.

Usage (with the repository's ``src`` on PYTHONPATH; ``launch`` does this):

    python3 bench/worker.py WORKLOAD SECONDS TRACE SEED WORKDIR

Each job calls ``hvisolve.cli.main(argv)`` in this process with HVI_OUT set to
its own directory WORKDIR/jobN.  Repeats go on until one more would end after
SECONDS, with at least two jobs so that reruns can be compared byte for byte.
With TRACE=1 an untimed job comes first, then each repeat is an untraced and
a traced job, in an order drawn from SEED.  Only WORKDIR/job0 is kept; later
jobs keep their file hashes.  The result goes to WORKDIR/worker.json, the
spans of the last traced job to WORKDIR/spans.json.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

MIN_JOBS = 2
WORK_ROOT = ".bench_work"  # under the repository root; listed in .gitignore
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root):
    """Environment for hvisolve processes: ``src`` importable, BLAS threads at most nproc."""
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def launch(root, name, seconds, trace, seed, workdir):
    """Run the worker for one workload in a child process and return its result."""
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), name, str(seconds),
           "1" if trace else "0", str(seed), str(workdir)]
    proc = subprocess.run(cmd, env=child_env(root), cwd=root, timeout=seconds + 60,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError("worker for %s exited with %d:\n%s"
                           % (name, proc.returncode, proc.stdout))
    with open(workdir / "worker.json") as fh:
        return json.load(fh)


def file_hashes(outdir):
    out = {}
    for path in sorted(outdir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[path.name] = h.hexdigest()
    return out


def run_job(main, argv, outdir, tracer=None):
    """One timed call of the CLI; the result is checked later, untimed."""
    os.environ["HVI_OUT"] = str(outdir)
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.span("cli.main", main, argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": buf.getvalue(), "error": error,
            "files": file_hashes(outdir), "traced": tracer is not None}


def main():
    name, seconds, trace, seed, workdir = sys.argv[1:]
    seconds = float(seconds)
    trace = trace == "1"
    workdir = Path(workdir)
    argv = list(workloads.by_name(name).argv)
    from hvisolve.cli import main as cli_main

    rng = random.Random(int(seed))
    jobs = []
    layer_runs = []
    last_tracer = None
    rounds = 0
    start = time.perf_counter()
    if trace:
        # The first job in a process runs slower; a traced/untraced pair
        # compares single jobs, so it starts after an untimed one.
        outdir = workdir / "job0"
        outdir.mkdir()
        jobs.append(dict(run_job(cli_main, argv, outdir), warmup=True))
    loop_start = time.perf_counter()
    while True:
        order = [False, True] if trace else [False]
        rng.shuffle(order)
        for traced in order:
            outdir = workdir / ("job%d" % len(jobs))
            outdir.mkdir()
            tracer = tracing.Tracer().install() if traced else None
            try:
                job = run_job(cli_main, argv, outdir, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                layer_runs.append(tracer.metrics())
                last_tracer = tracer
            if jobs:
                shutil.rmtree(outdir)
            jobs.append(job)
        rounds += 1
        now = time.perf_counter()
        if len(jobs) >= MIN_JOBS and now - start + (now - loop_start) / rounds > seconds:
            break

    result = {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        last_tracer.write(workdir / "spans.json")
        result["layers"] = layer_runs
        untraced = statistics.median(
            j["seconds"] for j in jobs if not j["traced"] and "warmup" not in j)
        traced = statistics.median(j["seconds"] for j in jobs if j["traced"])
        result["trace_overhead_s"] = traced - untraced
    with open(workdir / "worker.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
