"""Spans and counters recorded around hvisolve's module boundaries.

A wrapper is installed at the name each caller imported, so
``hvisolve.rothe.solve_tridiagonal`` (step solves) and
``hvisolve.analysis.solve_tridiagonal`` (norm solves) become different spans
although they call the same function.  Untraced jobs install nothing.

Spans are (name, start, end, parent index) tuples kept in memory; a span's
self time is its duration minus the durations of its direct children.
"""

import importlib
import json
import os
import statistics
import time

# (module, attribute path, span name)
BOUNDARIES = (
    ("hvisolve.rothe", "solve_tridiagonal", "fem1d.step_solve"),
    ("hvisolve.analysis", "solve_tridiagonal", "fem1d.norm_solve"),
    ("hvisolve.rothe", "assemble_mass", "fem1d.assemble"),
    ("hvisolve.rothe", "assemble_stiffness", "fem1d.assemble"),
    ("hvisolve.analysis", "assemble_mass", "fem1d.assemble"),
    ("hvisolve.analysis", "assemble_stiffness", "fem1d.assemble"),
    ("hvisolve.cli", "assemble_mass", "fem1d.assemble"),
    ("hvisolve.cli", "assemble_stiffness", "fem1d.assemble"),
    ("hvisolve.fem1d", "TridiagonalSystem.matvec", "fem1d.matvec"),
    ("hvisolve.rothe", "rothe_step_all", "rothe.step"),
    ("hvisolve.cli", "run", "rothe.run"),
    ("hvisolve.analysis", "run", "rothe.run"),
    ("hvisolve.cli", "trajectory_rows", "rothe.trajectory_rows"),
    ("hvisolve.cli", "interpolant_norms", "analysis.interpolant_norms"),
    ("hvisolve.analysis", "bv2_seminorm", "analysis.bv2"),
    ("hvisolve.cli", "write_csv", "cli.write_csv"),
)

# Per-layer metrics whose value is a time; they are medians over traced jobs.
# Every other metric is a count, identical in every traced job.
TIME_METRICS = (
    "fem1d.step_solve_s", "fem1d.assemble_s", "fem1d.matvec_s", "fem1d.norm_solve_s",
    "rothe.step_self_s", "rothe.step_us_p50", "rothe.step_us_p90",
    "rothe.run_self_s", "rothe.trajectory_rows_s",
    "analysis.interpolant_norms_self_s", "analysis.bv2_s",
    "cli.write_csv_s", "cli.self_s",
)


class Tracer:
    """Records spans for one job; ``install``/``uninstall`` patch the boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.counts = {
            "singular_pivots": 0, "solve_rows": 0, "segments": 0,
            "candidates": 0, "kept": 0, "csv_bytes": 0, "bv2_norm_evals": 0,
        }
        # Imported here: the benchmark's parent process reads TIME_METRICS
        # without hvisolve on its path.
        from hvisolve.fem1d import SingularSystemError
        self._singular = SingularSystemError

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kw):
        """Call fn inside a span called ``name`` and return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrapper(self, name, fn):
        counts = self.counts
        span = self.span

        if name == "fem1d.step_solve" or name == "fem1d.norm_solve":
            def wrapper(system, rhs):
                if name == "fem1d.step_solve":
                    counts["solve_rows"] += system.size
                try:
                    return span(name, fn, system, rhs)
                except self._singular:
                    counts["singular_pivots"] += 1
                    raise
        elif name == "rothe.step":
            def wrapper(mesh, graph, *args, **kw):
                sols = span(name, fn, mesh, graph, *args, **kw)
                counts["segments"] += len(graph.segments)
                counts["candidates"] += len(sols)
                return sols
        elif name == "rothe.run":
            def wrapper(*args, **kw):
                tree = span(name, fn, *args, **kw)
                counts["kept"] += sum(len(level) for level in tree.levels[1:])
                return tree
        elif name == "analysis.bv2":
            def wrapper(values, norm):
                def counted(v):
                    counts["bv2_norm_evals"] += 1
                    return norm(v)
                return span(name, fn, values, counted)
        elif name == "cli.write_csv":
            def wrapper(path, *args, **kw):
                out = span(name, fn, path, *args, **kw)
                counts["csv_bytes"] += os.path.getsize(path)
                return out
        else:
            def wrapper(*args, **kw):
                return span(name, fn, *args, **kw)
        return wrapper

    def install(self):
        for module, attr, name in BOUNDARIES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(name, original))
        return self

    def uninstall(self):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the recorded job, keyed by metric name."""
        total = {}
        own = {}
        calls = {}
        child = [0.0] * len(self.spans)
        steps = []
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            d = end - start
            total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + d - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "rothe.step":
                steps.append(d)
        c = self.counts
        step_calls = calls.get("rothe.step", 0)
        return {
            "fem1d.step_solves": calls.get("fem1d.step_solve", 0),
            "fem1d.step_solve_s": total.get("fem1d.step_solve", 0.0),
            "fem1d.solve_rows": c["solve_rows"],
            "fem1d.assemblies": calls.get("fem1d.assemble", 0),
            "fem1d.assemble_s": total.get("fem1d.assemble", 0.0),
            "fem1d.matvecs": calls.get("fem1d.matvec", 0),
            "fem1d.matvec_s": total.get("fem1d.matvec", 0.0),
            "fem1d.singular_pivots": c["singular_pivots"],
            "fem1d.norm_solves": calls.get("fem1d.norm_solve", 0),
            "fem1d.norm_solve_s": total.get("fem1d.norm_solve", 0.0),
            "nonsmooth.segments": c["segments"] / step_calls if step_calls else 0.0,
            "rothe.step_calls": step_calls,
            "rothe.step_self_s": own.get("rothe.step", 0.0),
            "rothe.step_us_p50": statistics.median(steps) * 1e6,
            "rothe.step_us_p90": statistics.quantiles(steps, n=10)[8] * 1e6,
            "rothe.candidates": c["candidates"],
            "rothe.segment_yield": c["candidates"] / c["segments"] if c["segments"] else 0.0,
            "rothe.level_discarded": c["candidates"] - c["kept"],
            "rothe.run_self_s": own.get("rothe.run", 0.0),
            "rothe.trajectory_rows_s": total.get("rothe.trajectory_rows", 0.0),
            "analysis.interpolant_norms_self_s": own.get("analysis.interpolant_norms", 0.0),
            "analysis.bv2_s": total.get("analysis.bv2", 0.0),
            "analysis.bv2_norm_evals": c["bv2_norm_evals"],
            "cli.write_csv_s": total.get("cli.write_csv", 0.0),
            "cli.csv_bytes": c["csv_bytes"],
            "cli.self_s": own.get("cli.main", 0.0),
        }

    def write(self, path):
        """Write the spans as JSON: span names once, then [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent] for n, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh)
