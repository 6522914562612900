"""The hvisolve benchmark: one workload per run.

Usage, from the repository root:

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 a run reports the end-to-end metrics: setup_s (cold
interpreter until hvisolve.cli is imported and its parser built, median of
several processes), job_s (median wall time of the workload's CLI command in
a warm worker process, CSV writing included), peak_rss_mb (of that worker)
and pass_share (jobs that exited 0 and passed the correctness gate, over jobs
attempted).  With --trace 1 it reports per-layer metrics from spans recorded
around hvisolve's module boundaries (see tracing.py), plus the tracing
overhead.  Inputs are fixed; the seed only orders the repeats.  The last line
of stdout is the JSON result; details go to .bench_work/WORKLOAD/result.json.
See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import selftest
import tracing
import worker
from workloads import WORKLOADS

SETUP_PROBES = 7
MAX_PRINTED_PROBLEMS = 20
SETUP_CODE = "import hvisolve.cli as cli; cli.build_parser()"


def setup_probe(root, env):
    """Wall time of one fresh interpreter importing the CLI and building its parser.

    The wait blocks: Popen.wait with a timeout polls in steps of up to 50 ms,
    which would round the measurement up.  A timer kills a hung probe instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=root)
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError("set-up probe exited with %d" % rc)
    return elapsed


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env, seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": {v: int(env[v]) for v in worker.BLAS_THREAD_VARS},
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hvisolve" / "cli.py").is_file():
        print("run_bench: no src/hvisolve/cli.py under %s; run from the repository root"
              % root, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = root / worker.WORK_ROOT / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = worker.child_env(root)
    record = {"environment": environment(env, args.seed), "workload": workload.name,
              "argv": list(workload.argv), "seconds": args.seconds, "trace": args.trace}
    print("environment: %s" % json.dumps(record["environment"]))

    problems = selftest.gate_blind_spots(root, workdir / "selftest")
    jobs_dir = workdir / "jobs"
    if args.trace:
        result = worker.launch(root, workload.name, args.seconds, True, args.seed, jobs_dir)
    else:
        setup_probe(root, env)  # untimed: fills the file cache
        before = random.Random(args.seed).randint(0, SETUP_PROBES)
        setup = [setup_probe(root, env) for _ in range(before)]
        result = worker.launch(root, workload.name, args.seconds, False, args.seed, jobs_dir)
        setup += [setup_probe(root, env) for _ in range(SETUP_PROBES - before)]
    jobs = result["jobs"]
    gate_problems, failed = gate.check_run(
        workload, jobs, jobs_dir / "job0", gate.load_reference()[workload.name])
    problems += gate_problems
    shutil.rmtree(jobs_dir / "job0")

    if args.trace:
        metrics = layer_metrics(result, problems)
        samples = {  # jobs[0] is the untimed warm-up
            "untraced_job_s": [j["seconds"] for j in jobs[1:] if not j["traced"]],
            "traced_job_s": [j["seconds"] for j in jobs if j["traced"]],
        }
    else:
        samples = {"setup_s": setup, "job_s": [j["seconds"] for j in jobs]}
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "job_s": statistics.median(samples["job_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_share": (len(jobs) - failed) / len(jobs),
        }
    for line in problems[:MAX_PRINTED_PROBLEMS]:
        print("problem: %s" % line)
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print("problem: ... %d more in result.json" % (len(problems) - MAX_PRINTED_PROBLEMS))
    print("samples: %s" % json.dumps(samples))
    record.update(problems=problems, samples=samples, metrics=metrics,
                  attempted=len(jobs), failed=failed)
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    units = metric_units(root)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(result, problems):
    """Counts from the first traced job (they must repeat exactly), medians of times."""
    layers = result["layers"]
    metrics = {}
    for key in layers[0]:
        values = [run[key] for run in layers]
        if key in tracing.TIME_METRICS:
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                problems.append("%s differs between traced jobs: %r" % (key, values))
    metrics["trace.overhead_s"] = result["trace_overhead_s"]
    return metrics


def metric_units(root):
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
