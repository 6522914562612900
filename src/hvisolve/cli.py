"""Command line front end: single runs, branch enumeration, convergence
studies, and the abstract-condition checker.

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(no-solution step, singular system, non-finite state or norm), 3 I/O error.
The environment variable HVI_OUT overrides the output directory.
"""

import argparse
import ast
import csv
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    AbstractConstants,
    NormReport,
    StudyProblem,
    check_conditions,
    convergence_study,
    interpolant_norms,
)
from .fem1d import Mesh1D, SingularSystemError, assemble_mass, assemble_stiffness
from .nonsmooth import (
    PiecewiseQuadraticPotential,
    PotentialError,
    clarke_subdifferential,
    potential_j1,
    potential_j2,
)
from .rothe import (
    BRANCH_POLICIES,
    NoSolutionError,
    RotheConfig,
    TRAJECTORY_HEADER,
    run,
    trajectory_rows,
)


class ConfigError(ValueError):
    pass


PRESETS = {
    "paper-j1": {"potential": "j1", "nx": 100, "dt": 0.01, "T": 1.0, "u0": "const:2"},
    "paper-j2": {"potential": "j2", "nx": 100, "dt": 0.01, "T": 1.0, "u0": "const:2"},
}

DEFAULTS = {
    "potential": None,
    "breakpoints": "",
    "pieces": "",
    "nx": 100,
    "dt": 0.01,
    "T": 1.0,
    "u0": "const:2",
    "policy": "all",
    "max_branches": 64,
    "out": "hvi_out",
}


@dataclass
class ExperimentConfig:
    potential: str
    breakpoints: str
    pieces: str
    nx: int
    dt: float
    T: float
    u0: str
    policy: str
    max_branches: int
    out: str

    def __post_init__(self):
        if self.potential is None:
            raise ConfigError("no potential given (use --potential or --preset)")
        if self.nx < 2:
            raise ConfigError("nx must be at least 2")
        if self.policy not in BRANCH_POLICIES:
            raise ConfigError("policy must be one of %s" % (", ".join(BRANCH_POLICIES)))
        for name in ("dt", "T"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError("%s must be positive and finite, got %r" % (name, value))
        if self.max_branches < 1:
            raise ConfigError("max_branches must be at least 1, got %r" % (self.max_branches,))
        ratio = self.T / self.dt  # overflows for a subnormal dt
        steps = round(ratio) if math.isfinite(ratio) else 0
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-12:
            raise ConfigError("dt=%r does not divide T=%r" % (self.dt, self.T))


def read_kv_file(path):
    """key = value lines; '#' starts a comment; values stay strings."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("malformed config line: %r" % raw)
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_CASTS = {"nx": int, "dt": float, "T": float, "max_branches": int}


def merge_config(args):
    """defaults < config file < preset < explicit flags."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, value in read_kv_file(args.config).items():
            if key not in DEFAULTS:
                raise ConfigError("unknown config key %r" % key)
            try:
                merged[key] = _CASTS.get(key, str)(value)
            except ValueError as err:
                raise ConfigError("bad value for %r: %s" % (key, err)) from err
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError("unknown preset %r" % args.preset)
        merged.update(PRESETS[args.preset])
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return ExperimentConfig(**merged)


def parse_potential(cfg):
    if cfg.potential == "j1":
        pot = potential_j1()
    elif cfg.potential == "j2":
        pot = potential_j2()
    elif cfg.potential == "custom":
        try:
            breakpoints = [float(v) for v in cfg.breakpoints.split(",") if v.strip()]
            pieces = []
            for chunk in cfg.pieces.split(";"):
                if not chunk.strip():
                    continue
                c2, c1, c0 = (float(v) for v in chunk.split(":"))
                pieces.append((c2, c1, c0))
            pot = PiecewiseQuadraticPotential(breakpoints, pieces)
        except (ValueError, PotentialError) as err:
            raise ConfigError("bad custom potential: %s" % err) from err
    else:
        raise ConfigError("potential must be j1, j2 or custom, got %r" % cfg.potential)
    return pot, clarke_subdifferential(pot)


_EXPR_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt,
    "abs": abs, "min": min, "max": max,
}
_EXPR_CONSTANTS = {"pi": math.pi}

_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}


def _eval_expr(node, x):
    """Value of a whitelisted u0 expression node at x, as a finite float.

    Numbers, ``x``, _EXPR_CONSTANTS, calls of _EXPR_FUNCTIONS, the binary
    operators + - * / ** and unary minus; anything else raises ValueError.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)  # float powers overflow instead of growing
    elif isinstance(node, ast.Name) and node.id == "x":
        value = x
    elif isinstance(node, ast.Name) and node.id in _EXPR_CONSTANTS:
        value = _EXPR_CONSTANTS[node.id]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = -_eval_expr(node.operand, x)
    elif isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        value = _EXPR_OPS[type(node.op)](_eval_expr(node.left, x), _eval_expr(node.right, x))
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _EXPR_FUNCTIONS and not node.keywords):
        value = _EXPR_FUNCTIONS[node.func.id](*(_eval_expr(arg, x) for arg in node.args))
    else:
        raise ValueError("%r is not allowed" % ast.unparse(node))
    value = float(value)  # a negative base to a fractional power gives a complex
    if not math.isfinite(value):
        raise ValueError("%r is %r" % (ast.unparse(node), value))
    return value


def parse_u0(text):
    """Initial datum from ``const:VALUE`` or ``expr:EXPRESSION`` in x.

    Expressions are evaluated node by node over a whitelist (see _eval_expr);
    any failure or non-finite value, at parse time or at a mesh node, is a
    ConfigError.
    """
    if text.startswith("const:"):
        try:
            value = float(text[6:])
        except ValueError as err:
            raise ConfigError("bad u0 constant %r" % text) from err
        if not math.isfinite(value):
            raise ConfigError("u0 constant must be finite, got %r" % text)
        return lambda x: value
    if text.startswith("expr:"):
        expr = text[5:]
        try:
            body = ast.parse(expr, "<u0>", mode="eval").body
        except (SyntaxError, ValueError, RecursionError, MemoryError) as err:
            raise ConfigError("bad u0 expression %r: %s" % (expr, err)) from err

        def u0(x):
            x = float(x)
            try:
                return _eval_expr(body, x)
            except (ArithmeticError, ValueError, TypeError, RecursionError) as err:
                raise ConfigError("bad u0 expression %r at x=%r: %s" % (expr, x, err)) from err

        u0(0.5)
        return u0
    raise ConfigError("u0 must look like const:VALUE or expr:EXPRESSION, got %r" % text)


def output_dir(cfg):
    out = os.environ.get("HVI_OUT") or cfg.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# CSV emission

def write_csv(path, header, rows):
    """Header plus rows; floats (np.float64 too) are written as their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def trajectory_header(n):
    return TRAJECTORY_HEADER + ["alpha_%d" % i for i in range(1, n + 1)] + ["xi"]


def write_trajectory(path, tree):
    write_csv(path, trajectory_header(tree.mesh.n), trajectory_rows(tree))


def write_surface(path, tree):
    tau = tree.config.tau
    dx = float(tree.mesh.dx)
    rows = []
    for k, state in enumerate(tree.path_states(0)):
        t = k * tau
        rows.append([0.0, t, 0.0])  # Dirichlet end
        for i, u in enumerate(state, start=1):
            rows.append([i * dx, t, float(u)])
    write_csv(path, ["x", "t", "u"], rows)


def write_matrices(outdir, mesh):
    for name, sys_ in (("mass", assemble_mass(mesh)), ("stiffness", assemble_stiffness(mesh))):
        rows = []
        for i in range(sys_.size):
            lo, dg, up = sys_.row(i)
            rows.append([i + 1, "" if lo is None else float(lo), float(dg),
                         "" if up is None else float(up)])
        write_csv(outdir / ("%s.csv" % name), ["i", "lower", "diag", "upper"], rows)


PLOT_SCRIPT = """\
# Generic gnuplot script; the CSV data files are authoritative.
set datafile separator ","
set key off
set xlabel "x"
set ylabel "t"
set zlabel "u"
set dgrid3d 64,64
set hidden3d
splot "surface.csv" using 1:2:3 every ::1 with lines
pause -1 "surface of u(x,t); press enter"
"""


def write_plot_script(path):
    Path(path).write_text(PLOT_SCRIPT)


# ---------------------------------------------------------------------------
# subcommands

def _solve(cfg, policy):
    mesh = Mesh1D.uniform(cfg.nx)
    _, graph = parse_potential(cfg)
    u0 = parse_u0(cfg.u0)
    config = RotheConfig.from_step(cfg.dt, cfg.T, max_branches=cfg.max_branches)
    tree = run(config, mesh, graph, u0, f=None, branch_policy=policy)
    if not tree.completed():
        raise NoSolutionError(
            "no solution on any segment at step %r (%d step failures recorded)"
            % (tree.no_solution_level, len(tree.step_failures))
        )
    if not all(np.isfinite(b.state).all() for level in tree.levels for b in level):
        raise FloatingPointError("non-finite state in the solution tree")
    return tree


def cmd_run(args):
    cfg = merge_config(args)
    outdir = output_dir(cfg)
    tree = _solve(cfg, cfg.policy)
    report = interpolant_norms(tree.mesh, tree.path_states(0), cfg.dt)
    if not np.isfinite(report.csv_row()).all():
        raise FloatingPointError("non-finite norm in %r" % (report,))
    write_trajectory(outdir / "trajectory.csv", tree)
    write_surface(outdir / "surface.csv", tree)
    write_plot_script(outdir / "plot.gp")
    write_csv(outdir / "norms.csv", NormReport.CSV_HEADER, [report.csv_row()])
    if args.dump_matrices:
        write_matrices(outdir, tree.mesh)
    counts = tree.branch_counts()
    multiple = any(c > 1 for c in counts)
    print("steps: %d   max branches per step: %d" % (tree.config.num_steps, max(counts)))
    print("multiple solutions detected: %s" % ("yes" if multiple else "no"))
    if tree.truncated:
        print("branch tree truncated at max_branches=%d" % cfg.max_branches)
    print("wrote %s" % ", ".join(["trajectory.csv", "surface.csv", "norms.csv", "plot.gp"]))
    return 0


def cmd_branches(args):
    cfg = merge_config(args)
    outdir = output_dir(cfg)
    tree_min = _solve(cfg, "min_boundary")
    tree_max = _solve(cfg, "max_boundary")
    write_trajectory(outdir / "trajectory_min.csv", tree_min)
    write_trajectory(outdir / "trajectory_max.csv", tree_max)
    lo = tree_min.boundary_values()
    hi = tree_max.boundary_values()
    rows = [
        [k * cfg.dt, float(a), float(b), float(b - a)]
        for k, (a, b) in enumerate(zip(lo, hi))
    ]
    write_csv(outdir / "spread.csv", ["t", "alpha_min", "alpha_max", "spread"], rows)
    spread = float(np.max(hi - lo))
    print("max boundary spread between extreme branches: %r" % spread)
    print("wrote trajectory_min.csv, trajectory_max.csv, spread.csv")
    return 0


def cmd_converge(args):
    cfg = merge_config(args)
    outdir = output_dir(cfg)
    try:
        taus = [float(v) for v in args.taus.split(",") if v.strip()]
        reference = float(args.reference_tau)
    except ValueError as err:
        raise ConfigError("bad tau list: %s" % err) from err
    for tau in taus + [reference]:
        if not (math.isfinite(tau) and tau > 0):
            raise ConfigError("every tau must be positive and finite, got %r" % (tau,))
    mesh = Mesh1D.uniform(cfg.nx)
    _, graph = parse_potential(cfg)
    problem = StudyProblem(
        mesh=mesh, graph=graph, u0=parse_u0(cfg.u0),
        policy=cfg.policy if cfg.policy != "all" else "first",
        horizon=cfg.T, max_branches=cfg.max_branches,
    )
    try:
        table = convergence_study(problem, taus, reference)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if not np.isfinite(np.array(table.csv_rows(), dtype=float)).all():
        raise FloatingPointError("non-finite error in the convergence table")
    write_csv(outdir / "convergence.csv", table.CSV_HEADER, table.csv_rows())
    for row in table.rows:
        print("tau=%-10g err_CH=%.6e err_L2V=%.6e branches=%d"
              % (row.tau, row.err_CH, row.err_L2V, row.branch_count))
    if table.branch_mismatch:
        print("warning: branch counts differ between runs; errors use the policy branch")
    print("wrote convergence.csv")
    return 0


_CONSTANT_KEYS = {"alpha", "beta", "a", "b", "c", "iota_norm", "p_norm", "d", "sigma",
                  "m1", "m2", "m3"}


def cmd_check(args):
    values = {}
    for key, val in read_kv_file(args.constants).items():
        if key not in _CONSTANT_KEYS:
            raise ConfigError("unknown constant %r" % key)
        try:
            values[key] = float(val)
        except ValueError as err:
            raise ConfigError("bad value for %r: %s" % (key, err)) from err
    d_sigma = None
    if "d" in values or "sigma" in values:
        if not ("d" in values and "sigma" in values):
            raise ConfigError("d and sigma must be given together")
        d_sigma = (values.pop("d"), values.pop("sigma"))
    try:
        constants = AbstractConstants(d_sigma=d_sigma, **values)
    except (TypeError, ValueError) as err:
        raise ConfigError("bad constants: %s" % err) from err
    report = check_conditions(constants)
    for line in report.lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------

def _add_experiment_flags(p):
    p.add_argument("--preset", choices=sorted(PRESETS), help="pin the bundled reference settings")
    p.add_argument("--config", help="key=value config file (flags win)")
    p.add_argument("--potential", choices=["j1", "j2", "custom"])
    p.add_argument("--breakpoints", help="custom potential breakpoints r1,r2,...")
    p.add_argument("--pieces", help="custom potential pieces c2:c1:c0;...")
    p.add_argument("--nx", type=int, help="number of free mesh nodes (dx = 1/nx)")
    p.add_argument("--dt", type=float, help="time step; must divide T")
    p.add_argument("--T", type=float, help="time horizon")
    p.add_argument("--u0", help="initial datum: const:VALUE or expr:EXPRESSION in x")
    p.add_argument("--policy", choices=BRANCH_POLICIES)
    p.add_argument("--max-branches", type=int, dest="max_branches")
    p.add_argument("--out", help="output directory (HVI_OUT env var overrides)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hvisolve",
        description="Backward-Euler solver for the 1D heat equation with a "
                    "multivalued boundary condition, with per-step solution enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single experiment; trajectory, norms, surface data")
    _add_experiment_flags(p_run)
    p_run.add_argument("--dump-matrices", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_br = sub.add_parser("branches", help="extreme-branch runs and their boundary spread")
    _add_experiment_flags(p_br)
    p_br.set_defaults(func=cmd_branches)

    p_cv = sub.add_parser("converge", help="error table against a fine-step reference")
    _add_experiment_flags(p_cv)
    p_cv.add_argument("--taus", required=True, help="comma-separated step sizes")
    p_cv.add_argument("--reference-tau", required=True, dest="reference_tau")
    p_cv.set_defaults(func=cmd_converge)

    p_ck = sub.add_parser("check", help="solvability/uniqueness condition report")
    p_ck.add_argument("--constants", required=True, help="key=value constants file")
    p_ck.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 1
    except (NoSolutionError, SingularSystemError, FloatingPointError) as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
