"""Command line front end: single runs, branch enumeration, convergence
studies, and the abstract-condition checker.

Exit codes: 0 success, 1 configuration error (also a rejected command
line), 2 numerical failure (no-solution step, singular system, non-finite
state or norm), 3 I/O error.
The environment variable HVI_OUT overrides the output directory.
"""

import argparse
import ast
import contextlib
import math
import operator
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import astuple, dataclass, field, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .analysis import (
    AbstractConstants,
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
from .rothe import BRANCH_POLICIES, NoSolutionError, RotheConfig, project_initial, run


class ConfigError(ValueError):
    pass


PRESETS = {
    "paper-j1": {"potential": "j1", "nx": 100, "dt": 0.01, "T": 1.0, "u0": "const:2"},
    "paper-j2": {"potential": "j2", "nx": 100, "dt": 0.01, "T": 1.0, "u0": "const:2"},
}


@dataclass
class ExperimentConfig:
    """Settings of run, branches and converge, one field each: the name is the
    config key and, with - for _, the flag after --; the type casts a config
    value, and the metadata holds the flag's help and choices.  Construction
    checks every input but the time grid and keeps the parsed ``mesh``, ``graph``
    and ``initial`` (u0 at the free mesh nodes) as plain attributes, not fields."""

    potential: str = field(default=None, metadata={"choices": ["j1", "j2", "custom"]})
    breakpoints: str = field(default="", metadata={
        "help": "custom potential breakpoints r1,r2,...; a value starting with - needs "
                "the = form, --breakpoints=-1,2"})
    pieces: str = field(default="", metadata={
        "help": "custom potential pieces c2:c1:c0;...; a value starting with - needs "
                "the = form, --pieces=-1.9375:7.25:0"})
    nx: int = field(default=100, metadata={"help": "number of free mesh nodes (dx = 1/nx)"})
    dt: float = field(default=0.01, metadata={"help": "time step; must divide T"})
    T: float = field(default=1.0, metadata={"help": "time horizon"})
    u0: str = field(default="const:2",
                    metadata={"help": "initial datum: const:VALUE or expr:EXPRESSION in x"})
    policy: str = field(default="all", metadata={"choices": BRANCH_POLICIES})
    max_branches: int = RotheConfig.max_branches
    out: str = field(default="hvi_out",
                     metadata={"help": "output directory (HVI_OUT env var overrides)"})

    def __post_init__(self):
        if self.potential is None:
            raise ConfigError("no potential given (use --potential or --preset)")
        for f in fields(self):  # argparse checks a flag's choices, not a config file's value
            value = getattr(self, f.name)
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                raise ConfigError("%s must be one of %s, got %r"
                                  % (f.name, ", ".join(f.metadata["choices"]), value))
        self.mesh = _config_checked(Mesh1D.uniform, self.nx)
        self.graph = parse_potential(self)
        self.initial = project_initial(self.mesh, parse_u0(self.u0))

    def time_grid(self):
        """Steps of dt up to T, for the subcommands that step with dt."""
        return _config_checked(RotheConfig.from_step, self.dt, self.T,
                               max_branches=self.max_branches)


def _config_checked(build, *args, **kw):
    """build(*args, **kw), its own checks deciding; a ValueError is a ConfigError."""
    try:
        return build(*args, **kw)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def read_kv_file(path, casts, what):
    """key = value lines ('#' starts a comment), each value cast by ``casts[key]``.

    A malformed line is reported first, then a key given twice (a repeated
    ``what``), then, in file order, a key not in ``casts`` (an unknown
    ``what``) or a value its cast rejects."""
    out, repeated = {}, []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ConfigError("%s is not UTF-8 text: %s" % (path, err)) from err
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("malformed config line: %r" % raw)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            repeated.append(key)
        out[key] = value.strip()
    if repeated:
        raise ConfigError("repeated %s %r" % (what, repeated[0]))
    for key, value in out.items():
        if key not in casts:
            raise ConfigError("unknown %s %r" % (what, key))
        try:
            out[key] = casts[key](value)
        except ValueError as err:
            raise ConfigError("bad value for %r: %s" % (key, err)) from err
    return out


def merge_config(args):
    """defaults < config file < preset < explicit flags."""
    settings = {f.name: f.type for f in fields(ExperimentConfig)}
    config = getattr(args, "config", None)
    merged = read_kv_file(config, settings, "config key") if config else {}
    if getattr(args, "preset", None):
        merged.update(PRESETS[args.preset])
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return ExperimentConfig(**merged)


def parse_potential(cfg):
    """The subdifferential graph of the configured potential (j1, j2 or custom)."""
    if cfg.potential == "j1":
        pot = potential_j1()
    elif cfg.potential == "j2":
        pot = potential_j2()
    else:
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
    return clarke_subdifferential(pot)


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
    any failure or non-finite value, at parse time or at an x the callable is
    given, is a ConfigError.
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

        return u0
    raise ConfigError("u0 must look like const:VALUE or expr:EXPRESSION, got %r" % text)


def output_dir(cfg):
    path = Path(os.environ.get("HVI_OUT") or cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# CSV emission: every table's columns are laid out here, and only here

TRAJECTORY_HEADER = ["t", "branch_id", "parent_id", "case_tag"]  # then alpha_1..alpha_n, xi
NORMS_HEADER = ["l2V", "linfH", "cH", "l2Vstar_du", "bv2"]  # NormReport's fields, in order
CONVERGENCE_HEADER = ["tau", "err_CH", "err_L2V", "branch_count"]  # ConvergenceRow's fields


def write_csv(path, header, rows):
    """Header plus rows, streamed one line at a time from any iterable.

    Each field is written as its str, so a float (np.float64 too) appears as
    its repr.  Nothing is quoted: fields must not hold commas, quotes or line
    breaks.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def trajectory_rows(tree, start=0):
    """Rows of the branch-trajectory table from level ``start`` on, one per
    branch per level, yielded lazily: the whole table is never held at once.

    Columns: t, branch_id, parent_id, case_tag, alpha_1..alpha_n, xi.  The
    root row has case tag ``init`` and empty parent and flux fields.  The ids
    come from ``tree.level_ids()`` and the states from
    ``tree.level_states()``, both derived from level 0 on whatever ``start``
    is; the rows before ``start`` are never built.
    """
    ids, states = tree.level_ids(), tree.level_states()
    parent_ids = next(ids)
    root = next(states)
    if start == 0:
        yield [0.0, parent_ids[0], "", "init", *root[0].tolist(), ""]
    for k, (branch_ids, stack) in enumerate(zip(ids, states), start=1):
        if k >= start:
            level, t = tree.levels[k], k * tree.config.tau
            for bid, state, parent, seg, flux in zip(
                    branch_ids, stack, level.parent.tolist(),
                    level.segment.tolist(), level.flux.tolist()):
                yield [t, bid, parent_ids[parent], tree.tags[seg], *state.tolist(), flux]
        parent_ids = branch_ids


# Fork for a back half of this many floats: fork + waitpid of a 36 MB process took
# 3.9 ms (median, 2 vCPUs) and a float's repr ~0.9 us, so the break-even is ~4.4k values.
# The estimate is no margin to trim: made to fork on the j2-preset bench workload (5050
# values behind the split), job_s rose in 7 of 8 alternating pairs of 10-s runs (2 vCPUs).
FORK_MIN_VALUES = 20_000


def _fork_level(counts, n):
    """First level of the back half a forked child should write, or None."""
    total = sum(counts)
    k = next(k for k, front in enumerate(accumulate(counts, initial=0)) if 2 * front >= total)
    back = sum(counts[k:]) * (n + 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    fork = hasattr(os, "fork") and (cpus or 1) >= 2 and back >= max(FORK_MIN_VALUES, 1)
    return k if fork else None


def _write_levels(fh, sf, tree, levels, on_path, xs):
    """Rows of the tree's ``levels`` (a range) to ``fh``; the rows ``on_path`` to ``sf``."""
    rows = trajectory_rows(tree, levels.start)
    for k in levels:
        for row, values in zip(range(len(tree.levels[k])), rows):
            fields = list(map(str, values))
            fh.write(",".join(fields) + "\n")
            if row == on_path[k]:
                sep = "," + fields[0] + ","
                us = ["0.0", *fields[len(TRAJECTORY_HEADER):-1]]  # alpha_1..alpha_n
                sf.write("\n".join(map(sep.join, zip(xs, us))) + "\n")


def write_trajectory(path, tree, surface=None):
    """The branch-trajectory table at ``path``, streamed one row at a time.

    With ``surface``, the x, t, u table of the path ``tree.path_states(0)``
    follows goes there in the same pass, the Dirichlet end first at each
    level.  Each level's surface lines are built from the text of its path
    row, so every value on the path is formatted once.  A forked child may
    write the back levels (see _fork_level), deriving the branch ids and
    replaying the states of the front levels without formatting their rows;
    the bytes are the same.  If writing fails, neither file is left behind.
    """
    n = tree.mesh.n
    xs = ["0.0", *map(str, tree.mesh.nodes.tolist())]
    header = TRAJECTORY_HEADER + ["alpha_%d" % i for i in range(1, n + 1)] + ["xi"]
    on_path = tree.path_rows(0) if surface is not None else [-1] * tree.num_levels
    split = _fork_level(tree.branch_counts(), n)
    try:
        # Without a surface its header goes to the null device, and no row is on the path.
        with open(path, "w", newline="") as fh, open(surface or os.devnull, "w", newline="") as sf:
            fh.write(",".join(header) + "\n")
            sf.write("x,t,u\n")
            if split is None:
                return _write_levels(fh, sf, tree, range(tree.num_levels), on_path, xs)
            with tempfile.TemporaryFile("w+", newline="", dir=Path(path).parent) as tf, \
                    tempfile.TemporaryFile("w+", newline="", dir=Path(path).parent) as tsf:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork with threads alive (OpenBLAS's):
                    # a lock they hold could hang a child, but this child only writes text.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:  # leaves by os._exit, never flushing or closing fh and sf
                    code = 1
                    try:
                        _write_levels(tf, tsf, tree, range(split, tree.num_levels), on_path, xs)
                        tf.flush()
                        tsf.flush()
                        code = 0
                    except BaseException:
                        sys.excepthook(*sys.exc_info())
                    finally:
                        os._exit(code)
                try:
                    _write_levels(fh, sf, tree, range(split), on_path, xs)
                except BaseException:
                    os.kill(pid, 9)  # SIGKILL; cli does not import the signal module
                    raise
                finally:
                    status = os.waitpid(pid, 0)[1]
                if status:
                    raise OSError("the child writing %s ended with wait status %d" % (path, status))
                for dst, src in ((fh, tf), (sf, tsf)):
                    dst.flush()
                    src.buffer.seek(0)
                    shutil.copyfileobj(src.buffer, dst.buffer)
    except BaseException:
        for name in filter(None, (path, surface)):  # leave no partial table behind
            with contextlib.suppress(OSError):
                os.unlink(name)
        raise


def write_matrices(outdir, mesh):
    for name, sys_ in (("mass", assemble_mass(mesh)), ("stiffness", assemble_stiffness(mesh))):
        rows = ([i, "" if lo is None else float(lo), float(dg), "" if up is None else float(up)]
                for i, (lo, dg, up) in enumerate(map(sys_.row, range(sys_.size)), start=1))
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


# ---------------------------------------------------------------------------
# subcommands

def _solve(cfg, grid, policy):
    tree = run(grid, cfg.mesh, cfg.graph, cfg.initial, branch_policy=policy)
    return tree.require_solved()


def _report_failures(label, count, first):
    """Print how many step failures a solved run recorded, quoting the first
    (see SolutionTree.failure_summary); nothing without any."""
    if count:
        print("step failures%s: %d, first: %s" % (label, count, first))


def cmd_run(args):
    cfg = merge_config(args)
    tree = _solve(cfg, cfg.time_grid(), cfg.policy)
    report = interpolant_norms(tree.mesh, tree.path_states(0), cfg.dt)
    if not np.isfinite(astuple(report)).all():
        raise FloatingPointError("non-finite norm in %r" % (report,))
    outdir = output_dir(cfg)
    write_trajectory(outdir / "trajectory.csv", tree, surface=outdir / "surface.csv")
    (outdir / "plot.gp").write_text(PLOT_SCRIPT)
    write_csv(outdir / "norms.csv", NORMS_HEADER, [astuple(report)])
    written = ["trajectory.csv", "surface.csv", "norms.csv", "plot.gp"]
    if args.dump_matrices:
        write_matrices(outdir, tree.mesh)
        written += ["mass.csv", "stiffness.csv"]
    counts = tree.branch_counts()
    print("steps: %d   max branches per step: %d" % (tree.config.num_steps, max(counts)))
    print("multiple solutions detected: %s" % ("yes" if max(counts) > 1 else "no"))
    if tree.truncated:
        print("branch tree truncated at max_branches=%d" % cfg.max_branches)
    _report_failures("", *tree.failure_summary())
    print("wrote %s" % ", ".join(written))
    return 0


def cmd_branches(args):
    cfg = merge_config(args)
    grid = cfg.time_grid()
    tree_min = _solve(cfg, grid, "min_boundary")
    tree_max = _solve(cfg, grid, "max_boundary")
    outdir = output_dir(cfg)
    write_trajectory(outdir / "trajectory_min.csv", tree_min)
    write_trajectory(outdir / "trajectory_max.csv", tree_max)
    lo = tree_min.boundary_values()
    hi = tree_max.boundary_values()
    rows = [[k * cfg.dt, float(a), float(b), float(b - a)] for k, (a, b) in enumerate(zip(lo, hi))]
    write_csv(outdir / "spread.csv", ["t", "alpha_min", "alpha_max", "spread"], rows)
    spread = float(np.max(hi - lo))
    print("max boundary spread between extreme branches: %r" % spread)
    _report_failures(" (min_boundary)", *tree_min.failure_summary())
    _report_failures(" (max_boundary)", *tree_max.failure_summary())
    print("wrote trajectory_min.csv, trajectory_max.csv, spread.csv")
    return 0


def cmd_converge(args):
    cfg = merge_config(args)
    try:
        taus = [float(v) for v in args.taus.split(",") if v.strip()]
        reference = float(args.reference_tau)
    except ValueError as err:
        raise ConfigError("bad tau list: %s" % err) from err
    problem = StudyProblem(
        mesh=cfg.mesh, graph=cfg.graph, initial=cfg.initial,
        policy=cfg.policy if cfg.policy != "all" else "first",
        horizon=cfg.T, max_branches=cfg.max_branches,
    )
    table = _config_checked(convergence_study, problem, taus, reference)
    rows = [astuple(row) for row in table.rows]
    if not np.isfinite(np.array(rows, dtype=float)).all():
        raise FloatingPointError("non-finite error in the convergence table")
    write_csv(output_dir(cfg) / "convergence.csv", CONVERGENCE_HEADER, rows)
    for row in table.rows:
        print("tau=%-10g err_CH=%.6e err_L2V=%.6e branches=%d"
              % (row.tau, row.err_CH, row.err_L2V, row.branch_count))
    for tau, count, first in table.failures:
        _report_failures(" (tau=%g)" % tau, count, first)
    print("wrote convergence.csv")
    return 0


def cmd_check(args):
    casts = {f.name: float for f in fields(AbstractConstants)}
    values = read_kv_file(args.constants, casts, "constant")
    try:
        constants = AbstractConstants(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError("bad constants: %s" % err) from err
    report = check_conditions(constants)
    for line in report.lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------

def _experiment_flags():
    p = argparse.ArgumentParser(add_help=False)  # the parent of run, branches and converge
    p.add_argument("--preset", choices=sorted(PRESETS), help="pin the bundled reference settings")
    p.add_argument("--config", help="key=value config file (flags win)")
    for f in fields(ExperimentConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=f.type, **f.metadata)
    return p


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, the configuration-error
    code, instead of argparse's 2, the code of a numerical failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="hvisolve",
        description="Backward-Euler solver for the 1D heat equation with a "
                    "multivalued boundary condition, with per-step solution enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = [_experiment_flags()]

    p_run = sub.add_parser("run", parents=experiment,
                           help="single experiment; trajectory, norms, surface data")
    p_run.add_argument("--dump-matrices", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_br = sub.add_parser("branches", parents=experiment,
                          help="extreme-branch runs and their boundary spread")
    p_br.set_defaults(func=cmd_branches)

    p_cv = sub.add_parser("converge", parents=experiment,
                          help="error table against a fine-step reference")
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
