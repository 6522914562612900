import argparse
import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hvisolve import (
    Mesh1D,
    PiecewiseQuadraticPotential,
    RotheConfig,
    clarke_subdifferential,
    potential_j1,
    potential_j2,
    run,
)
from hvisolve import cli, rothe
from hvisolve.cli import (
    ConfigError,
    build_parser,
    main,
    merge_config,
    trajectory_rows,
    write_csv,
    write_trajectory,
)
from oracles import schur_parallel_j1, tree_branch_ids


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _run_cli(*argv):
    return main(list(argv))


J2_SMALL = ["--potential", "j2", "--nx", "20", "--dt", "0.02", "--T", "0.2",
            "--u0", "const:2"]


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "o"
    assert _run_cli("run", *J2_SMALL, "--out", str(out)) == 0
    for name in ("trajectory.csv", "surface.csv", "norms.csv", "plot.gp"):
        assert (out / name).exists()
    header, rows = _read_csv(out / "trajectory.csv")
    assert header[:4] == ["t", "branch_id", "parent_id", "case_tag"]
    assert header[4:] == ["alpha_%d" % i for i in range(1, 21)] + ["xi"]
    assert len(rows) == 11  # unique branch: one row per level
    # root row: empty parent and flux
    assert rows[0][1] == "0" and rows[0][2] == "" and rows[0][-1] == ""
    for row in rows[1:]:
        float(row[0]), float(row[-1])  # parse-back
        assert row[3].startswith(("a", "v"))
    header, rows = _read_csv(out / "norms.csv")
    assert header == ["l2V", "linfH", "cH", "l2Vstar_du", "bv2"]
    assert len(rows) == 1 and all(float(v) >= 0 for v in rows[0])
    header, rows = _read_csv(out / "surface.csv")
    assert header == ["x", "t", "u"]
    assert len(rows) == 11 * 21
    assert float(rows[0][2]) == 0.0  # Dirichlet corner


def test_run_rejects_bad_step(tmp_path, capsys):
    assert _run_cli("run", "--potential", "j2", "--dt", "0.3", "--T", "1.0",
                    "--out", str(tmp_path / "x")) == 1
    assert "config error" in capsys.readouterr().err


def test_converge_does_not_check_dt(tmp_path, capsys):
    # the default dt = 0.01 does not divide T = 0.125, but converge never steps with dt
    out = tmp_path / "o"
    assert _run_cli("converge", "--potential", "j2", "--nx", "10", "--T", "0.125",
                    "--taus", "0.025", "--reference-tau", "0.00625", "--out", str(out)) == 0
    assert (out / "convergence.csv").exists()
    capsys.readouterr()
    for command in ("run", "branches"):
        out = tmp_path / command
        assert _run_cli(command, "--potential", "j2", "--nx", "10", "--T", "0.125",
                        "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "config error: tau=0.01 does not divide horizon=0.125: horizon/tau must be a "
            "whole number, got 12.5\n")
        assert not out.exists()


def test_run_requires_potential(tmp_path):
    assert _run_cli("run", "--out", str(tmp_path / "x")) == 1


@pytest.mark.parametrize("argv, message", [
    (["converge", "--potential", "j2", "--nx", "10", "--T", "0.5", "--taus", "0.1,0.1",
      "--reference-tau", "0.025"],
     "repeated step tau=0.1: its time grid is already in the list"),
    (["run", "--potential", "j1", "--nx", "10", "--u0", "expr:x/0"],
     "bad u0 expression 'x/0' at x=0.1: float division by zero"),
    (["branches", "--potential", "custom", "--breakpoints", "0", "--pieces", "1:0:0"],
     "bad custom potential: need exactly len(breakpoints)+1 pieces, got 1 for 1 breakpoints"),
    # the datum is checked at every mesh node before the time grid
    (["run", "--potential", "j1", "--nx", "10", "--u0", "expr:sqrt(x-0.5)", "--dt", "0.3"],
     "bad u0 expression 'sqrt(x-0.5)' at x=0.1: math domain error"),
    (["run", "--potential", "j1", "--u0", "const:abc"], "bad u0 constant 'const:abc'"),
    (["run", "--potential", "j1", "--u0", "foo"],
     "u0 must look like const:VALUE or expr:EXPRESSION, got 'foo'"),
    (["converge", "--potential", "j2", "--taus", "0.1,x", "--reference-tau", "0.025"],
     "bad tau list: could not convert string to float: 'x'"),
], ids=["converge-repeated-tau", "run-bad-u0", "branches-bad-potential", "run-u0-before-dt",
        "run-bad-u0-constant", "run-u0-without-prefix", "converge-bad-tau-list"])
def test_rejected_command_leaves_no_output_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert _run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--potential", "j1", "--u0", "expr:x/0"],
    ["--potential", "j1", "--u0", "const:nan"],
    ["--potential", "custom", "--breakpoints", "0", "--pieces", "1:0:0"],
])
def test_merge_config_rejects_bad_inputs(flags):
    with pytest.raises(ConfigError):
        merge_config(build_parser().parse_args(["run", *flags]))


def test_branches_parses_each_input_once(tmp_path, monkeypatch):
    calls = []
    for name in ("parse_potential", "parse_u0"):
        def counted(*args, _name=name, _parse=getattr(cli, name)):
            calls.append(_name)
            return _parse(*args)
        monkeypatch.setattr(cli, name, counted)
    assert _run_cli("branches", *J2_SMALL, "--out", str(tmp_path / "o")) == 0
    assert sorted(calls) == ["parse_potential", "parse_u0"]


@pytest.mark.parametrize("argv", [
    ["run", "--potential", "j1", "--dt", "0.05", "--T", "0.3"],
    ["branches", "--potential", "j1", "--dt", "0.05", "--T", "0.3"],
    ["converge", "--potential", "j2", "--T", "0.5", "--taus", "0.1", "--reference-tau", "0.025"],
], ids=["run", "branches", "converge"])
def test_each_command_evaluates_the_datum_once_per_node(tmp_path, monkeypatch, argv):
    # every run of a command starts from the nodal state ExperimentConfig
    # checked: `x` is one _eval_expr call per node, 10 nodes, whatever the
    # number of runs (two extreme runs, a coarse and a reference run)
    calls = []

    def counted(node, x, _eval=cli._eval_expr):
        calls.append(x)
        return _eval(node, x)

    monkeypatch.setattr(cli, "_eval_expr", counted)
    assert _run_cli(*argv, "--u0", "expr:x", "--nx", "10", "--out", str(tmp_path / "o")) == 0
    assert calls == Mesh1D.uniform(10).nodes.tolist()


@pytest.mark.parametrize("argv, code, message", [
    (["run", "--potential", "custom", "--breakpoints=", "--pieces", "-1.9375:7.25:0",
      "--nx", "2"], 1, "argument --pieces: expected one argument"),
    (["run", "--preset", "paper-j2", "--bogus"], 1, "unrecognized arguments: --bogus"),
    (["run", "--policy", "some"], 1, "argument --policy: invalid choice: 'some'"),
    (["run", "--nx", "ten"], 1, "argument --nx: invalid int value: 'ten'"),
    (["--help"], 0, ""),
])
def test_usage_errors_are_config_errors(capsys, argv, code, message):
    with pytest.raises(SystemExit) as exc:
        _run_cli(*argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert message in err and ("error: " in err) == (code != 0)


def test_run_reports_numerical_failure(tmp_path):
    # dyadic mesh/step make the folded boundary pivot exactly zero on the
    # only graph segment, so the first step has no solution at all
    code = _run_cli(
        "run", "--potential", "custom", "--pieces=-1.9375:0:0",
        "--nx", "2", "--dt", "0.08333333333333333", "--T", "0.16666666666666666",
        "--u0", "const:2", "--out", str(tmp_path / "x"),
    )
    assert code == 2


@pytest.mark.parametrize("pieces, failure", [
    ("-1.9375:7.25:0",
     "continuum of solutions: segment lies on the Schur line for r in [-inf, inf]"),
    ("-1.9375:0:0", "no solution: segment parallel to the Schur line, flux offset 7.25"),
])
def test_run_failure_quotes_the_dying_step(tmp_path, capsys, pieces, failure):
    # n=2, dx=1/2, tau=1/12: g = 3.875 and e0 = 3.625*2 = 7.25, so the only
    # segment, xi = -3.875*r + c1, is parallel to the Schur line xi = 7.25 - g*r
    # and lies on it for c1 = 7.25
    code = _run_cli(
        "run", "--potential", "custom", "--breakpoints=", "--pieces=" + pieces,
        "--nx", "2", "--dt", "0.08333333333333333", "--T", "0.08333333333333333",
        "--u0", "const:2", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: no isolated solution at step 1 of tau=0.08333333333333333 "
        "(1 step failure at that step): branch 0, a0: %s\n" % failure)


def _parallel_piece_flags():
    """j1 plus a piece parallel to the Schur line: every parent of every level
    of a run records one step failure (see oracles.schur_parallel_j1)."""
    breakpoints, pieces = schur_parallel_j1(rothe._schur_operator(10, 0.1, 0.05).g)
    return ["--potential", "custom", "--breakpoints=" + ",".join(map(repr, breakpoints)),
            "--pieces=" + ";".join(":".join(map(repr, p)) for p in pieces),
            "--nx", "10", "--dt", "0.05", "--T", "0.3", "--u0", "const:1.5"]


PARALLEL_FAILURE = ("step 1, branch 0, a4: no solution: segment parallel to the Schur line, "
                    "flux offset -6.919403588631067")


def test_run_reports_surviving_step_failures(tmp_path, capsys):
    # the run names how many step failures it survived and quotes the first
    # as require_solved quotes those of a dying level
    code = _run_cli("run", *_parallel_piece_flags(), "--policy", "all",
                    "--max-branches", "128", "--out", str(tmp_path / "o"))
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "step failures: 12, first: " + PARALLEL_FAILURE)
    assert _run_cli("run", *J2_SMALL, "--out", str(tmp_path / "o")) == 0
    assert "step failures" not in capsys.readouterr().out


def test_branches_reports_step_failures_of_each_extreme_run(tmp_path, capsys):
    # each extreme chain survives one failure per level, quoted as run quotes them
    assert _run_cli("branches", *_parallel_piece_flags(), "--out", str(tmp_path / "o")) == 0
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "step failures (min_boundary): 6, first: " + PARALLEL_FAILURE,
        "step failures (max_boundary): 6, first: " + PARALLEL_FAILURE]
    assert _run_cli("branches", *J2_SMALL, "--out", str(tmp_path / "o")) == 0
    assert "step failures" not in capsys.readouterr().out


def test_converge_reports_step_failures_of_each_run(tmp_path, capsys):
    # the piece is parallel at tau=0.05 only: the coarse run survives one
    # failure per level, the reference run at tau=0.0125 none
    code = _run_cli("converge", *_parallel_piece_flags(), "--taus", "0.05",
                    "--reference-tau", "0.0125", "--out", str(tmp_path / "o"))
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "step failures (tau=0.05): 6, first: " + PARALLEL_FAILURE, "wrote convergence.csv"]
    header, rows = _read_csv(tmp_path / "o" / "convergence.csv")
    assert header == ["tau", "err_CH", "err_L2V", "branch_count"] and len(rows) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_run_non_finite_norm_is_numerical_failure(tmp_path, capsys):
    # finite pieces, but states near -3e307 overflow the quadratic forms:
    # the V norm is NaN and must not be written as 0.0
    code = _run_cli("run", "--potential", "custom", "--pieces", "0:1e308:0",
                    "--nx", "4", "--dt", "0.1", "--T", "0.2", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "norms.csv").exists()


def test_run_non_finite_later_row_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # a NaN in a kept row past row 0, which the tree does not store: run()
    # records it as it steps, and no output file is written
    step_all, calls = rothe.rothe_step_all, []

    def poisoned(*args, **kw):
        step = step_all(*args, **kw)
        calls.append(len(step))
        if len(calls) == 4:
            step.states[-1, 0] = np.nan
        return step

    monkeypatch.setattr(rothe, "rothe_step_all", poisoned)
    code = _run_cli("run", "--potential", "j1", "--nx", "10", "--dt", "0.05", "--T", "0.3",
                    "--u0", "const:1.5", "--policy", "all", "--out", str(tmp_path / "o"))
    assert calls[3] >= 2 and code == 2
    assert capsys.readouterr().err == (
        "numerical failure: non-finite state in the solution tree\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_converge_non_finite_error_is_numerical_failure(tmp_path, capsys):
    for flags, message in (
        # the same overflowing pieces overflow the states themselves
        (["--potential", "custom", "--pieces", "0:1e308:0", "--nx", "4", "--T", "0.2"],
         "non-finite state in the solution tree"),
        # finite states whose H and V norm differences overflow
        (["--potential", "j2", "--u0", "const:1e200", "--nx", "10", "--T", "0.5"],
         "non-finite error in the convergence table"),
    ):
        code = _run_cli("converge", *flags, "--taus", "0.1", "--reference-tau", "0.025",
                        "--out", str(tmp_path / "o"))
        assert code == 2, flags
        assert capsys.readouterr().err == "numerical failure: %s\n" % message
        assert not (tmp_path / "o").exists()


def test_branches_flat_graph_zero_spread(tmp_path):
    out = tmp_path / "o"
    code = _run_cli("branches", "--potential", "custom", "--pieces", "0:0:0",
                    "--nx", "10", "--dt", "0.05", "--T", "0.25", "--u0", "const:2",
                    "--out", str(out))
    assert code == 0
    header, rows = _read_csv(out / "spread.csv")
    assert header == ["t", "alpha_min", "alpha_max", "spread"]
    assert all(abs(float(r[3])) <= 1e-10 for r in rows)
    a, _ = _read_csv(out / "trajectory_min.csv")
    b, _ = _read_csv(out / "trajectory_max.csv")
    assert a == b


def test_branches_j1_spread_positive(tmp_path):
    out = tmp_path / "o"
    code = _run_cli("branches", "--preset", "paper-j1", "--T", "0.5", "--out", str(out))
    assert code == 0
    _, rows = _read_csv(out / "spread.csv")
    assert max(float(r[3]) for r in rows) > 1e-6


def test_branches_j2_spread_vanishes(tmp_path):
    out = tmp_path / "o"
    code = _run_cli("branches", "--preset", "paper-j2", "--T", "0.5", "--out", str(out))
    assert code == 0
    _, rows = _read_csv(out / "spread.csv")
    assert max(abs(float(r[3])) for r in rows) <= 1e-10


def test_run_summary_reports_multiplicity(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run_cli("run", "--preset", "paper-j1", "--T", "0.5", "--policy", "all",
                    "--out", str(out)) == 0
    assert "multiple solutions detected: yes" in capsys.readouterr().out
    assert _run_cli("run", "--preset", "paper-j2", "--T", "0.5", "--policy", "all",
                    "--out", str(out)) == 0
    assert "multiple solutions detected: no" in capsys.readouterr().out
    assert _run_cli("run", "--potential", "j1", "--nx", "10", "--dt", "0.05", "--T", "0.5",
                    "--max-branches", "2", "--policy", "all", "--out", str(out)) == 0
    assert "branch tree truncated at max_branches=2\n" in capsys.readouterr().out


def test_converge_writes_table(tmp_path):
    out = tmp_path / "o"
    code = _run_cli("converge", "--potential", "j2", "--nx", "20", "--T", "0.4",
                    "--u0", "const:2", "--taus", "0.04,0.02", "--reference-tau", "0.005",
                    "--out", str(out))
    assert code == 0
    header, rows = _read_csv(out / "convergence.csv")
    assert header == ["tau", "err_CH", "err_L2V", "branch_count"]
    assert len(rows) == 2
    assert float(rows[0][0]) > float(rows[1][0])
    assert float(rows[0][1]) > float(rows[1][1]) > 0
    assert all(int(r[3]) == 1 for r in rows)


def test_converge_rejects_bad_taus(tmp_path, capsys):
    for bad, want in (("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-0.01", "-0.01")):
        for taus, reference in (("0.02," + bad, "0.005"), ("0.02", bad)):
            code = _run_cli("converge", "--potential", "j2", "--nx", "10", "--T", "0.2",
                            "--taus=" + taus, "--reference-tau=" + reference,
                            "--out", str(tmp_path / "o"))
            err = capsys.readouterr().err
            assert code == 1, (taus, reference)
            assert "config error:" in err and "got " + want in err, (taus, reference, err)
    code = _run_cli("converge", "--potential", "j2", "--nx", "10", "--T", "0.2",
                    "--taus=", "--reference-tau=0.005", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert "config error:" in err and "got []" in err, err


def test_converge_rejects_a_repeated_step(tmp_path, capsys):
    for taus in ("0.1,0.1", "0.1,0.05,0.1", "0.1,0.1000000000000001"):
        code = _run_cli("converge", "--potential", "j2", "--nx", "10", "--T", "0.5",
                        "--taus", taus, "--reference-tau", "0.0125", "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", taus
        assert captured.err.startswith("config error: repeated step tau=0.1"), captured.err
    assert not (tmp_path / "o" / "convergence.csv").exists()


def test_converge_reports_numerical_failure(tmp_path, capsys):
    # at n=4, dx=1/4, tau=0.025 the only segment (slope 2*c2) is parallel to
    # the Schur line, so the reference run dies at its first step
    code = _run_cli("converge", "--potential", "custom", "--pieces=-3.4761124575460805:0:0",
                    "--nx", "4", "--T", "0.2", "--taus", "0.1", "--reference-tau", "0.025",
                    "--out", str(tmp_path / "o"))
    assert code == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "convergence.csv").exists()


def test_check_command(tmp_path, capsys):
    constants = tmp_path / "c.txt"
    constants.write_text("alpha = 1.0\nc = 0.3\nbeta = 0.0\niota_norm = 1.0\n")
    assert _run_cli("check", "--constants", str(constants)) == 0
    out = capsys.readouterr().out
    assert "H_aux B: holds" in out
    assert "tau0 (cases B/C)       = inf" in out

    constants.write_text(
        "alpha = 1.0\nc = 0.3\nbeta = 0.0\niota_norm = 1.0\nd = 1.0\nsigma = 2.0\n"
    )
    assert _run_cli("check", "--constants", str(constants)) == 1


def test_check_uniqueness_constants(tmp_path, capsys):
    constants = tmp_path / "c.txt"
    constants.write_text("alpha=1.0\nc=0.3\nbeta=0.5\niota_norm=1.0\nm1=2.0\nm2=1.0\nm3=1.0\n")
    assert _run_cli("check", "--constants", str(constants)) == 0
    assert "H_const: holds" in capsys.readouterr().out


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run_cli("run", *J2_SMALL, "--out", str(out)) == 0
    for name in ("trajectory.csv", "surface.csv", "norms.csv", "plot.gp"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file, not a directory")
    code = _run_cli("run", *J2_SMALL, "--out", str(blocker / "sub"))
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_hvi_out_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_dir"
    monkeypatch.setenv("HVI_OUT", str(env_dir))
    assert _run_cli("run", *J2_SMALL, "--out", str(tmp_path / "flag_dir")) == 0
    assert (env_dir / "trajectory.csv").exists()
    assert not (tmp_path / "flag_dir").exists()


def test_preset_pins_reference_settings():
    args = build_parser().parse_args(["run", "--preset", "paper-j2"])
    cfg = merge_config(args)
    assert (cfg.potential, cfg.nx, cfg.dt, cfg.T, cfg.u0) == ("j2", 100, 0.01, 1.0, "const:2")


def test_config_file_with_flag_precedence(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("potential = j2\nnx = 10\ndt = 0.05  # comment\nT = 0.5\n")
    args = build_parser().parse_args(["run", "--config", str(f)])
    cfg = merge_config(args)
    assert (cfg.potential, cfg.nx, cfg.dt, cfg.T) == ("j2", 10, 0.05, 0.5)
    args = build_parser().parse_args(["run", "--config", str(f), "--nx", "20"])
    assert merge_config(args).nx == 20
    f.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError):
        merge_config(build_parser().parse_args(["run", "--config", str(f)]))


@pytest.mark.parametrize("command, own_flags", [
    ("run", ["dump_matrices"]), ("branches", []), ("converge", ["taus", "reference_tau"]),
])
def test_experiment_flags_are_the_config_fields(command, own_flags):
    names = [f.name for f in fields(cli.ExperimentConfig)]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    assert [a.dest for a in actions] == ["help", "preset", "config", *names, *own_flags]
    flags = [a.option_strings for a in actions[3:3 + len(names)]]
    assert flags == [["--" + name.replace("_", "-")] for name in names]
    assert set().union(*cli.PRESETS.values()) <= set(names)


def test_experiment_subparsers_share_one_action_per_flag():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    names = ["preset", "config", *(f.name for f in fields(cli.ExperimentConfig))]
    shared = [{a.dest: a for a in subparsers.choices[command]._actions}
              for command in ("run", "branches", "converge")]
    for name in names:
        assert shared[0][name] is shared[1][name] is shared[2][name], name


def test_unset_flags_leave_the_field_defaults():
    cfg = merge_config(build_parser().parse_args(["run", "--potential", "j2"]))
    assert cfg == cli.ExperimentConfig(potential="j2")
    assert (cfg.breakpoints, cfg.pieces, cfg.nx, cfg.dt, cfg.T, cfg.u0, cfg.policy,
            cfg.max_branches, cfg.out) == ("", "", 100, 0.01, 1.0, "const:2", "all", 64, "hvi_out")


def test_config_file_values_take_their_field_types(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("potential = j1\nnx = 20\ndt = 0.05\nT = 1\nmax_branches = 8\n")
    cfg = merge_config(build_parser().parse_args(["run", "--config", str(f)]))
    assert [(type(v), v) for v in (cfg.nx, cfg.dt, cfg.T, cfg.max_branches)] == [
        (int, 20), (float, 0.05), (float, 1.0), (int, 8)]
    # comment lines, blank lines and trailing comments add nothing
    f.write_text("# comment\npotential = j1\n\nnx = 20  # trailing comment\ndt = 0.05\n"
                 "T = 1\nmax_branches = 8\n")
    assert merge_config(build_parser().parse_args(["run", "--config", str(f)])) == cfg


@pytest.mark.parametrize("text, message", [
    ("nx = abc", "bad value for 'nx': invalid literal for int() with base 10: 'abc'"),
    ("max_branches = 1.5",
     "bad value for 'max_branches': invalid literal for int() with base 10: '1.5'"),
    ("T = x", "bad value for 'T': could not convert string to float: 'x'"),
    ("foo = 1", "unknown config key 'foo'"),
    ("max-branches = 3", "unknown config key 'max-branches'"),
    ("preset = paper-j1", "unknown config key 'preset'"),
    ("nx", "malformed config line: 'nx'"),
    # argparse checks only a flag's choices; a config file's value is checked against them
    ("potential = j9", "potential must be one of j1, j2, custom, got 'j9'"),
    ("policy = best", "policy must be one of all, min_boundary, max_boundary, first, got 'best'"),
])
def test_config_file_error_messages(tmp_path, capsys, text, message):
    f = tmp_path / "cfg.txt"
    # a case that sets the potential itself gets no j2 line, which would repeat the key
    f.write_text(("" if text.startswith("potential") else "potential = j2\n") + text + "\n")
    assert _run_cli("run", "--config", str(f), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "config error: %s\n" % message


@pytest.mark.parametrize("argv", [["run", "--config"], ["check", "--constants"]])
def test_kv_file_malformed_line_comes_before_unknown_keys(tmp_path, capsys, monkeypatch, argv):
    # every line of a key=value file is read before any key is checked
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kv.txt").write_text("foo = 1\nnonsense\n")
    assert _run_cli(*argv, "kv.txt") == 1
    assert capsys.readouterr().err == "config error: malformed config line: 'nonsense'\n"


@pytest.mark.parametrize("argv, text, message", [
    (["run", "--config"], "potential = j2\nnx = abc\nnx = 5\n", "repeated config key 'nx'"),
    (["check", "--constants"], "alpha = 1\nc = 0.3\nbeta = 0\niota_norm = 1\nd = 1\n"
     "sigma = 1.5\nd = 2\n", "repeated constant 'd'"),
    (["run", "--config"], "nx = 5\nnx = 6\nnonsense\n", "malformed config line: 'nonsense'"),
])
def test_kv_file_repeated_key_is_config_error(tmp_path, capsys, monkeypatch, argv, text, message):
    # a later line must not replace an earlier one, not even a bad value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kv.txt").write_text(text)
    assert _run_cli(*argv, "kv.txt") == 1
    assert capsys.readouterr().err == "config error: %s\n" % message


@pytest.mark.parametrize("argv", [["run", "--config"], ["check", "--constants"]])
def test_kv_file_undecodable_byte_is_config_error(tmp_path, capsys, monkeypatch, argv):
    # a key=value file is read as UTF-8 whatever the locale
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kv.txt").write_bytes(b"potential = j2\nnx = \xff\n")
    assert _run_cli(*argv, "kv.txt") == 1
    assert capsys.readouterr().err == (
        "config error: kv.txt is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 20: invalid start byte\n")


def test_u0_expression(tmp_path):
    out = tmp_path / "o"
    code = _run_cli("run", "--potential", "j2", "--nx", "10", "--dt", "0.05",
                    "--T", "0.2", "--u0", "expr:2*sin(pi*x/2)", "--out", str(out))
    assert code == 0
    _, rows = _read_csv(out / "trajectory.csv")
    first = [float(v) for v in rows[0][4:-1]]
    assert first[-1] == pytest.approx(2.0)  # sin(pi/2) = 1 at x = 1
    assert _run_cli("run", "--potential", "j2", "--u0", "expr:import os",
                    "--out", str(out)) == 1
    # the datum is evaluated at the mesh nodes only: x = 0.5 is none of nx = 9's
    assert _run_cli("run", "--potential", "j2", "--nx", "9", "--dt", "0.05", "--T", "0.2",
                    "--u0", "expr:1/(x-0.5)", "--out", str(out)) == 0


@pytest.mark.parametrize("u0", [
    "const:nan",  # non-finite constant
    "expr:sqrt(x-0.5)",  # math domain error at the left nodes
    "expr:().__class__.__name__.__len__()",  # attribute access outside the whitelist
    "expr:1e308*10*x",  # overflows to inf, a config error, not a non-finite state
])
def test_u0_rejects_bad_input(tmp_path, capsys, u0):
    code = _run_cli("run", "--potential", "j2", "--nx", "10", "--dt", "0.05", "--T", "0.2",
                    "--u0", u0, "--out", str(tmp_path / "o"))
    assert code == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config_text", [
    (["--nx", "0"], ""),
    (["--dt", "0"], ""),
    (["--dt", "nan"], ""),
    (["--dt", "1e-320"], ""),  # finite, but T/dt overflows
    (["--T", "inf"], ""),
    (["--dt", "1e-300", "--T", "0.5"], ""),  # T/dt is finite but far past 2**53 steps
    (["--dt", "0.10000000001", "--T", "1"], ""),  # 10 steps end 1e-10 past T
    ([], "nx = abc\n"),
    (["--max-branches", "0"], ""),  # solutions exist; truncation would empty the level
    (["--max-branches", "-3"], ""),
], ids=["nx-zero", "dt-zero", "dt-nan", "dt-subnormal", "T-inf", "dt-tiny", "dt-off-1e-11",
        "config-nx-abc",
        "max-branches-0", "max-branches-neg"])
def test_run_rejects_bad_numbers(tmp_path, capsys, flags, config_text):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("potential = j2\n" + config_text)
    code = _run_cli("run", "--config", str(cfg), "--dt", "0.05", "--T", "0.2",
                    "--out", str(tmp_path / "o"), *flags)
    assert code == 1
    assert "config error:" in capsys.readouterr().err


def test_write_csv_float_format(tmp_path):
    values = [np.float64(0.1), 1e16, 1e-05, -0.0]
    write_csv(tmp_path / "f.csv", ["v"] * len(values), [values])
    _, rows = _read_csv(tmp_path / "f.csv")
    assert rows == [[repr(float(v)) for v in values]]


def _csv_writer_bytes(path, header, rows):
    """The oracle: the same header and rows through the standard csv module."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_write_csv_matches_csv_writer(tmp_path):
    header = ["a", "b", "c", "d", "e"]
    rows = [
        [-0.0, 1e16, 1e-05, 5e-324, np.float64(0.1)],
        [np.float64(-0.0), np.float64(1e16), np.float64(1e-05), np.float64(5e-324), 2.5e-300],
        [0, -7, "", "0.1.3", "a1"],
        ["", "", "", "", ""],
    ]
    write_csv(tmp_path / "new.csv", header, iter(rows))
    assert ((tmp_path / "new.csv").read_bytes()
            == _csv_writer_bytes(tmp_path / "old.csv", header, rows))


def _selftest_tree():
    """The small branching j1 run of the benchmark self-test."""
    return run(RotheConfig.from_step(0.05, 0.3, max_branches=128), Mesh1D.uniform(10),
               clarke_subdifferential(potential_j1()), np.full(10, 1.5), branch_policy="all")


def _want_tables(tree):
    """The expected trajectory and surface rows, built from the level arrays."""
    trajectory, branch_ids = [], tree_branch_ids(tree)
    for k, (level, ids, states) in enumerate(zip(tree.levels, branch_ids, tree.level_states())):
        for i, bid in enumerate(ids):
            parent, tag, flux = "", "init", ""
            if k:
                parent = branch_ids[k - 1][level.parent[i]]
                tag, flux = tree.tags[level.segment[i]], float(level.flux[i])
            trajectory.append([k * tree.config.tau, bid, parent, tag, *states[i], flux])
    surface = []
    for k, state in enumerate(tree.path_states(0)):
        t = k * tree.config.tau
        surface.append([0.0, t, 0.0])
        surface.extend([i * tree.mesh.dx, t, u] for i, u in enumerate(state, start=1))
    return trajectory, surface


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forcing_forks(mp, forked):
    """Set write_trajectory, on two CPUs, to fork always (FORK_MIN_VALUES 0) or
    never (huge); return the list its forks are recorded in."""
    mp.setattr(cli, "FORK_MIN_VALUES", 0 if forked else 10**18)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    mp.setattr(os, "fork", counted_fork)
    return forks


def _forced_split(tree):
    with pytest.MonkeyPatch.context() as mp:
        _forcing_forks(mp, True)
        return cli._fork_level(tree.branch_counts(), tree.mesh.n)


def _check_tables(tmp_path, tree):
    """write_trajectory with and without a surface against the csv.writer oracle,
    forked and in one process, leaving no child process and no temporary file."""
    want_trajectory, want_surface = _want_tables(tree)
    header = (["t", "branch_id", "parent_id", "case_tag"]
              + ["alpha_%d" % i for i in range(1, tree.mesh.n + 1)] + ["xi"])
    want = _csv_writer_bytes(tmp_path / "want_trajectory.csv", header, want_trajectory)
    want_surface = _csv_writer_bytes(tmp_path / "want_surface.csv", ["x", "t", "u"], want_surface)
    for forked in (True, False):
        out = tmp_path / ("forked" if forked else "one-process")
        alone = out / "alone"
        alone.mkdir(parents=True)
        with pytest.MonkeyPatch.context() as mp:
            forks = _forcing_forks(mp, forked)
            write_trajectory(out / "trajectory.csv", tree, surface=out / "surface.csv")
            _assert_no_child()
            write_trajectory(alone / "trajectory.csv", tree)
            _assert_no_child()
        assert forks == [os.getpid()] * (2 if forked else 0)
        assert sorted(os.listdir(out)) == ["alone", "surface.csv", "trajectory.csv"]
        assert (out / "trajectory.csv").read_bytes() == want
        assert (out / "surface.csv").read_bytes() == want_surface
        assert os.listdir(alone) == ["trajectory.csv"]
        assert (alone / "trajectory.csv").read_bytes() == want


def test_trajectory_and_surface_match_csv_writer(tmp_path):
    tree = _selftest_tree()
    assert max(tree.branch_counts()) > 1
    rows = trajectory_rows(tree)
    assert iter(rows) is rows and not isinstance(rows, list)  # lazy
    assert next(rows)[:4] == [0.0, "0", "", "init"]
    # counts 1, 1, 1, 1, 3, 5, 5: the back half is the last level alone
    assert _forced_split(tree) == 6
    _check_tables(tmp_path, tree)


def test_trajectory_of_a_chain_splits_mid_path(tmp_path):
    # one branch per level: the child writes the last 5 of 11 levels, each a path row
    tree = run(RotheConfig.from_step(0.02, 0.2), Mesh1D.uniform(6),
               clarke_subdifferential(potential_j2()), np.full(6, 2.0))
    assert tree.branch_counts() == [1] * 11
    assert list(trajectory_rows(tree, 6)) == list(trajectory_rows(tree))[6:]
    assert _forced_split(tree) == 6
    _check_tables(tmp_path, tree)


def test_fork_level_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # j2-preset: 101 single-branch levels of 101 values; 50 rows behind, 5050 values
    assert cli._fork_level([1] * 101, 100) is None
    assert cli._fork_level([1] * 400, 100) == 200  # 200 rows behind: 20200 values
    assert cli._fork_level([1, 2, 2], 3) is None
    monkeypatch.setattr(cli, "FORK_MIN_VALUES", 0)
    assert cli._fork_level([1, 2, 2], 3) == 2
    assert cli._fork_level([1], 3) is None  # nothing behind the root
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._fork_level([1, 2, 2], 3) is None  # one CPU: never fork


@pytest.mark.parametrize("side", ["child", "parent"])
def test_failed_trajectory_writer_is_io_error(tmp_path, capsys, monkeypatch, side):
    monkeypatch.setattr(cli, "FORK_MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pid, write_levels = os.getpid(), cli._write_levels

    def failing(*args):
        if (os.getpid() == pid) == (side == "parent"):
            raise OSError("%s formatting failed" % side)
        return write_levels(*args)

    monkeypatch.setattr(cli, "_write_levels", failing)
    out = tmp_path / "o"
    assert _run_cli("run", *J2_SMALL, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ")
    assert ("parent formatting failed" if side == "parent" else "the child writing") in err
    _assert_no_child()
    assert os.listdir(out) == []  # no partial trajectory or surface file


def test_surface_follows_parent_links(tmp_path):
    # Leaf 0 descends from row 1 of levels 1-5, where row 0 is a branch that
    # dies at the next step and differs from row 1 in every node: a surface
    # that takes row 0 of each level fails here.
    graph = clarke_subdifferential(PiecewiseQuadraticPotential(
        [0.0], [(-3.0, 0.0, 0.0), (0.0, 0.0, 0.0)]))
    tree = run(RotheConfig.from_step(0.05, 0.3), Mesh1D.uniform(6), graph, np.full(6, 1.5))
    assert tree.branch_counts() == [1] + [2] * 6
    assert tree.terminated == [(k, 0) for k in range(2, 7)]
    assert tree.path_rows(0) == [0, 1, 1, 1, 1, 1, 0]
    stacks = list(tree.level_states())
    assert all((stacks[k][0] != stacks[k][1]).all() for k in range(1, 6))
    assert _forced_split(tree) == 4  # the child replays levels 1-3 before it writes
    _check_tables(tmp_path, tree)


def test_cli_import_leaves_heavy_modules_out():
    # setup_s of the benchmark times this import; a cold scipy.linalg alone costs ~0.7 s.
    # The trajectory writer forks by itself: no process pool is imported for it.
    # Step failures are returned, not logged: importing logging adds ~0.14 MB of RSS.
    code = ("import sys, hvisolve.cli; hvisolve.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in "
            "('scipy', 'hypothesis', 'pandas', 'multiprocessing', 'concurrent', 'logging')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_signed_zero_datum_keeps_its_bytes(tmp_path):
    # u0 = -0.0 at every node: the root row keeps its negative zeros, and the
    # first step adds the zero vector of no forcing, which makes them 0.0
    out = tmp_path / "o"
    assert _run_cli("run", "--potential", "j2", "--nx", "6", "--dt", "0.1", "--T", "0.3",
                    "--u0", "expr:-0.0*x", "--out", str(out)) == 0
    assert (out / "trajectory.csv").read_text().splitlines()[1:] == [
        "0.0,0,,init," + "-0.0," * 6,
        "0.1,0.0,0,a0," + "0.0," * 6 + "0.0",
        "0.2,0.0.0,0.0,a0," + "0.0," * 6 + "0.0",
        "0.30000000000000004,0.0.0.0,0.0.0,a0," + "0.0," * 6 + "0.0",
    ]


def test_dump_matrices(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run_cli("run", *J2_SMALL, "--out", str(out), "--dump-matrices") == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "wrote trajectory.csv, surface.csv, norms.csv, plot.gp, mass.csv, stiffness.csv")
    header, rows = _read_csv(out / "mass.csv")
    assert header == ["i", "lower", "diag", "upper"]
    assert len(rows) == 20
    assert rows[0][1] == "" and rows[-1][3] == ""
    assert float(rows[0][2]) == pytest.approx(2 * 0.05 / 3)
    header, rows = _read_csv(out / "stiffness.csv")
    assert float(rows[-1][2]) == pytest.approx(1 / 0.05)


def test_custom_potential_round_trip(tmp_path):
    out = tmp_path / "o"
    code = _run_cli(
        "run", "--potential", "custom",
        "--breakpoints", "0,1", "--pieces", "0:0:0;0.5:0:0;0:0:0.5",
        "--nx", "10", "--dt", "0.05", "--T", "0.2", "--u0", "const:2",
        "--out", str(out),
    )
    assert code == 0
    code = _run_cli("run", "--potential", "custom", "--breakpoints", "1",
                    "--pieces", "0:0:0;0:0:99", "--out", str(out))
    assert code == 1  # discontinuous pieces rejected


def test_custom_pieces_skip_an_empty_chunk():
    # a trailing ';' leaves an empty chunk, which adds no piece
    graphs = [merge_config(build_parser().parse_args(
        ["run", "--potential", "custom", "--breakpoints", "0", pieces])).graph
        for pieces in ("--pieces=-12:0:0;0:0:0", "--pieces=-12:0:0;0:0:0;")]
    assert graphs[0].segments == graphs[1].segments


@pytest.mark.parametrize("breakpoints, pieces", [
    ("", "0:inf:0"),
    ("", "nan:0:0"),
    ("1", "0:nan:0;0:0:0"),  # NaN values compare equal to nothing, continuity included
], ids=["slope-inf", "curvature-nan", "nan-across-breakpoint"])
def test_custom_potential_rejects_non_finite(tmp_path, capsys, breakpoints, pieces):
    code = _run_cli("run", "--potential", "custom", "--breakpoints", breakpoints,
                    "--pieces", pieces, "--nx", "4", "--dt", "0.1", "--T", "0.2",
                    "--out", str(tmp_path / "o"))
    assert code == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "norms.csv").exists()


@pytest.mark.parametrize("line, err", [
    pytest.param("alpha = abc", "bad value for 'alpha': could not convert string to float: "
                 "'abc'", id="alpha = abc"),
    pytest.param("alpha = nan", "bad constants: alpha must be finite, got nan", id="alpha = nan"),
    pytest.param("beta = inf", "bad constants: beta must be finite, got inf", id="beta = inf"),
    pytest.param("d = 1", "bad constants: d and sigma must be given together", id="d = 1"),
    pytest.param("alpha = 0", "bad constants: alpha must be positive", id="alpha = 0"),
    pytest.param("beta = -1", "bad constants: beta must be nonnegative", id="beta = -1"),
    pytest.param("c = 0", "bad constants: c must be positive", id="c = 0"),
    pytest.param("d = -1; sigma = 1.5", "bad constants: d must be nonnegative", id="d = -1"),
])
def test_check_rejects_bad_constants(tmp_path, capsys, line, err):
    # each ;-separated assignment replaces its key's valid value, so no key is repeated
    valid = {"alpha": "1.0", "c": "0.3", "beta": "0.0", "iota_norm": "1.0"}
    for assignment in line.split(";"):
        key, _, value = assignment.split()
        valid[key] = value
    constants = tmp_path / "c.txt"
    constants.write_text("".join("%s = %s\n" % kv for kv in valid.items()))
    assert _run_cli("check", "--constants", str(constants)) == 1
    assert capsys.readouterr().err == "config error: %s\n" % err


@pytest.mark.parametrize("line", ["d_sigma = 1", "foo = 1"])
def test_check_rejects_unknown_constants(tmp_path, capsys, line):
    constants = tmp_path / "c.txt"
    constants.write_text("alpha = 1.0\nc = 0.3\nbeta = 0.0\niota_norm = 1.0\n" + line + "\n")
    assert _run_cli("check", "--constants", str(constants)) == 1
    assert capsys.readouterr().err == "config error: unknown constant %r\n" % line.split()[0]


def test_check_accepts_every_constant(tmp_path, capsys):
    constants = tmp_path / "c.txt"
    constants.write_text("alpha = 1\nbeta = 0.5\nc = 0.3\niota_norm = 1\na = 0.1\nb = 2\n"
                         "p_norm = 2\nd = 1\nsigma = 1.5\nm1 = 2\nm2 = 1\nm3 = 1\n")
    assert _run_cli("check", "--constants", str(constants)) == 0
    assert "H_const: holds" in capsys.readouterr().out
