import csv
from pathlib import Path

import numpy as np
import pytest

from hvisolve.cli import ConfigError, main, merge_config, build_parser, write_csv


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


def test_run_requires_potential(tmp_path):
    assert _run_cli("run", "--out", str(tmp_path / "x")) == 1


def test_run_reports_numerical_failure(tmp_path):
    # dyadic mesh/step make the folded boundary pivot exactly zero on the
    # only graph segment, so the first step has no solution at all
    code = _run_cli(
        "run", "--potential", "custom", "--pieces=-1.9375:0:0",
        "--nx", "2", "--dt", "0.08333333333333333", "--T", "0.16666666666666666",
        "--u0", "const:2", "--out", str(tmp_path / "x"),
    )
    assert code == 2


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_converge_non_finite_error_is_numerical_failure(tmp_path, capsys):
    # the same overflowing states give err_CH = inf and err_L2V = nan
    code = _run_cli("converge", "--potential", "custom", "--pieces", "0:1e308:0",
                    "--nx", "4", "--T", "0.2", "--taus", "0.1", "--reference-tau", "0.025",
                    "--out", str(tmp_path / "o"))
    assert code == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "convergence.csv").exists()


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


@pytest.mark.parametrize("u0", [
    "const:nan",  # non-finite constant
    "expr:sqrt(x-0.5)",  # fine at x = 0.5, math domain error at the left nodes
    "expr:().__class__.__name__.__len__()",  # attribute access outside the whitelist
])
def test_u0_rejects_bad_input(tmp_path, capsys, u0):
    code = _run_cli("run", "--potential", "j2", "--nx", "10", "--dt", "0.05", "--T", "0.2",
                    "--u0", u0, "--out", str(tmp_path / "o"))
    assert code == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config_text", [
    (["--dt", "0"], ""),
    (["--dt", "nan"], ""),
    (["--dt", "1e-320"], ""),  # finite, but T/dt overflows
    (["--T", "inf"], ""),
    ([], "nx = abc\n"),
    (["--max-branches", "0"], ""),  # solutions exist; truncation would empty the level
    (["--max-branches", "-3"], ""),
], ids=["dt-zero", "dt-nan", "dt-subnormal", "T-inf", "config-nx-abc", "max-branches-0",
        "max-branches-neg"])
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


def test_dump_matrices(tmp_path):
    out = tmp_path / "o"
    assert _run_cli("run", *J2_SMALL, "--out", str(out), "--dump-matrices") == 0
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


@pytest.mark.parametrize("line", ["alpha = abc", "alpha = nan", "beta = inf"])
def test_check_rejects_bad_constants(tmp_path, capsys, line):
    constants = tmp_path / "c.txt"
    constants.write_text("alpha = 1.0\nc = 0.3\nbeta = 0.0\niota_norm = 1.0\n" + line + "\n")
    assert _run_cli("check", "--constants", str(constants)) == 1
    assert "config error:" in capsys.readouterr().err
