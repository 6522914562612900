"""Correctness gate for benchmark jobs, run after the timed region.

A job passes when

* it exited with code 0;
* its files and stdout are byte-identical to the first job of the run;
* the first job's outputs match the summary recorded in reference.json:
  strings and integers (branch ids, parent ids, case tags, per-level counts,
  headers, the truncation flag) exactly, floats (boundary values, fluxes,
  norms) within RTOL;
* every branch in the first job's trajectory.csv solves its step: the
  Galerkin rows, rebuilt with dense numpy from the closed-form P1 entries,
  vanish and (a_n, xi) lies on the graph segment the case tag names.  No
  hvisolve code is used for this.
"""

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

RTOL = 1e-9  # well above the 1e-12 agreement a refactor must keep
ATOL = 1e-12
# Backward-stable solves leave Galerkin residuals near 1e-16 of the row scale
# sum_j |A_ij a_j| + |b_i|; a mass matrix off by one part in 1e7 leaves 4e-10.
RESIDUAL_RTOL = 1e-12
GRAPH_TOL = 1e-9  # hvisolve accepts segment candidates within 1e-12

REFERENCE = Path(__file__).resolve().parent / "reference.json"

INF = math.inf
# Clarke graphs of the closed-form potentials by case tag, written out here
# rather than taken from hvisolve.nonsmooth:
# ("a", r_lo, r_hi, slope, intercept) or ("v", r, xi_lo, xi_hi).
GRAPHS = {
    # j1 = 0 | r^2/2 on (0,1) | 1/2: gradient jumps down from 1 to 0 at r = 1.
    "j1": {"a0": ("a", -INF, 0.0, 0.0, 0.0), "a1": ("a", 0.0, 1.0, 1.0, 0.0),
           "v2": ("v", 1.0, 0.0, 1.0), "a3": ("a", 1.0, INF, 0.0, 0.0)},
    # j2 = 0 | (1-(r-2)^2)/2 on (1,2) | 1/2: gradient jumps up from 0 to 1 at r = 1.
    "j2": {"a0": ("a", -INF, 1.0, 0.0, 0.0), "v1": ("v", 1.0, 0.0, 1.0),
           "a2": ("a", 1.0, 2.0, -1.0, 2.0), "a3": ("a", 2.0, INF, 0.0, 0.0)},
}


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _stats(values):
    return [min(values), max(values), math.fsum(values)]


def summarize(workload, outdir, stdout):
    """The parts of a job's output that the reference pins, as plain JSON data."""
    outdir = Path(outdir)
    summary = {
        "stdout": [[_number(tok) for tok in re.split(r"[\s=:,]+", line) if tok]
                   for line in stdout.splitlines()],
        "files": sorted(p.name for p in outdir.iterdir()),
    }
    header, rows = read_csv(outdir / "trajectory.csv")
    levels = {}
    for row in rows:
        levels.setdefault(row[0], []).append(row)
    structure = hashlib.sha256()
    for row in rows:
        structure.update(("%s,%s,%s\n" % (row[1], row[2], row[3])).encode())
    per_level = list(levels.values())
    summary["trajectory"] = {
        "header": header,
        "times": [_number(t) for t in levels],
        "level_counts": [len(level) for level in per_level],
        "structure_sha256": structure.hexdigest(),
        "boundary_min_max_sum": [_stats([float(r[-2]) for r in level]) for level in per_level],
        "xi_min_max_sum": [_stats([float(r[-1]) for r in level]) for level in per_level[1:]],
    }
    summary["truncated"] = any("truncated" in line for line in stdout.splitlines())
    header, rows = read_csv(outdir / "norms.csv")
    summary["norms"] = {"header": header, "rows": [[_number(v) for v in row] for row in rows]}
    header, rows = read_csv(outdir / "surface.csv")
    u = [float(r[2]) for r in rows]
    summary["surface"] = {"header": header, "rows": len(rows), "u_min_max_sum": _stats(u)}
    summary["plot_sha256"] = hashlib.sha256((outdir / "plot.gp").read_bytes()).hexdigest()
    return summary


def compare(actual, expected, where="reference"):
    """Differences between two summaries: exact for everything but floats."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if abs(actual - expected) <= ATOL + RTOL * max(abs(actual), abs(expected)):
            return []
        return ["%s: %r != %r" % (where, actual, expected)]
    if type(actual) is not type(expected):
        return ["%s: %r != %r" % (where, actual, expected)]
    if isinstance(expected, dict):
        if sorted(actual) != sorted(expected):
            return ["%s: keys %s != %s" % (where, sorted(actual), sorted(expected))]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], "%s.%s" % (where, key))
        return out
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return ["%s: length %d != %d" % (where, len(actual), len(expected))]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, "%s[%d]" % (where, i))
        return out
    return [] if actual == expected else ["%s: %r != %r" % (where, actual, expected)]


def step_matrices(nx, tau):
    """Dense mass matrix M and step matrix M/tau + K of uniform P1 with x_0 eliminated."""
    dx = 1.0 / nx
    mass = np.diag(np.full(nx, 2 * dx / 3))
    stiff = np.diag(np.full(nx, 2 / dx))
    mass[-1, -1] = dx / 3
    stiff[-1, -1] = 1 / dx
    i = np.arange(nx - 1)
    mass[i, i + 1] = mass[i + 1, i] = dx / 6
    stiff[i, i + 1] = stiff[i + 1, i] = -1 / dx
    return mass, mass / tau + stiff


def on_segment(seg, r, xi, tol):
    if seg[0] == "a":
        _, lo, hi, slope, intercept = seg
        return lo - tol <= r <= hi + tol and abs(xi - (slope * r + intercept)) <= tol
    _, r0, xi_lo, xi_hi = seg
    return abs(r - r0) <= tol and xi_lo - tol <= xi <= xi_hi + tol


def dense_check(workload, outdir):
    """Check every trajectory row against its parent with dense arithmetic."""
    header, rows = read_csv(Path(outdir) / "trajectory.csv")
    n = workload.nx
    if len(header) != n + 5:
        return ["trajectory.csv: %d columns for nx=%d" % (len(header), n)]
    problems = []
    root = rows[0]
    if root[1:4] != ["0", "", "init"] or any(float(v) != workload.u0 for v in root[4:-1]):
        problems.append("trajectory.csv: root row is not the nodal u0 = %r" % workload.u0)
    levels = []  # per time level: branch id -> row index
    parents = []
    kept = []
    for i, row in enumerate(rows):
        if i == 0 or row[0] != rows[i - 1][0]:
            levels.append({})
        levels[-1][row[1]] = i
        if i == 0:
            continue
        parent = levels[-2].get(row[2]) if len(levels) > 1 else None
        if parent is None:
            problems.append("row %d: parent %r not in the previous level" % (i + 1, row[2]))
            continue
        parents.append(parent)
        kept.append(i)
    if not kept:
        return problems + ["trajectory.csv: no step rows"]
    states = np.array([r[4:-1] for r in rows], dtype=float)
    xi = np.array([float(rows[i][-1]) for i in kept])
    mass, step = step_matrices(n, workload.tau)
    a = states[kept]
    prev = states[parents]
    lhs = a @ step.T
    rhs = prev @ (mass / workload.tau).T
    lhs[:, -1] += xi
    scale = np.abs(a) @ np.abs(step).T + np.abs(prev) @ np.abs(mass / workload.tau).T
    scale[:, -1] += np.abs(xi)
    bad = np.abs(lhs - rhs) > RESIDUAL_RTOL * scale + ATOL
    for j in np.nonzero(bad.any(axis=1))[0][:5]:
        col = int(np.nonzero(bad[j])[0][0])
        problems.append("row %d: Galerkin row %d residual %.3e"
                        % (kept[j] + 1, col + 1, lhs[j, col] - rhs[j, col]))
    graph = GRAPHS[workload.potential]
    for j, i in enumerate(kept):
        tag = rows[i][3]
        seg = graph.get(tag)
        if seg is None or not on_segment(seg, a[j, -1], xi[j], GRAPH_TOL):
            problems.append("row %d: (a_n, xi) = (%r, %r) not on segment %s"
                            % (i + 1, a[j, -1], xi[j], tag))
            if len(problems) > 10:
                break
    return problems


def check_run(workload, jobs, first_dir, reference):
    """Gate a run's jobs; returns (problems found, number of failed jobs)."""
    first = jobs[0]
    content = []
    if first["rc"] == 0:
        content = compare(summarize(workload, first_dir, first["stdout"]), reference)
        content += dense_check(workload, first_dir)
    problems = list(content)
    failed = 0
    for i, job in enumerate(jobs):
        if job["rc"] != 0:
            why = "exited with %r\n%s" % (job["rc"], job["error"] or "")
        elif job["files"] != first["files"] or job["stdout"] != first["stdout"]:
            why = "outputs differ from job 0"
        elif content:
            why = "outputs fail the checks above"
        else:
            continue
        failed += 1
        problems.append("job %d: %s" % (i, why))
    return problems, failed
