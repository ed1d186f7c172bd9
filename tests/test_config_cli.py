"""Config loading and the command-line frontend (exit codes, determinism)."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sumhessian.cli as cli
import sumhessian.expr as expr
from sumhessian.cli import main
from sumhessian.config import load_config
from sumhessian.errors import ConfigError, LinearSolveError
from sumhessian.grid import ScalarField, make_domain, read_field, write_field
from sumhessian.solver import TraceEntry

QUAD_3D = """
[operator]
n = 3
k = 2
alpha = 1.0

[domain]
lower = -1 -1 -1
upper = 1 1 1
cells = 8 8 8
mask = box

[rhs]
f = "18"

[boundary]
g = "(x1^2 + x2^2 + x3^2 - 1)/2"

[solver]
tol = 1e-10
max_iter = 50

[estimates]
beta = 1 2 4
p_beta = 2.0
a = 0.1
A = 1.0

[run]
output = {out}
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
TRACE_HEADER = "iteration,residual,step,admissible,krylov,linear_residual"

BALL_3D = """
[operator]
n = 3
k = 2
alpha = 1.0

[domain]
lower = -1 -1 -1
upper = 1 1 1
cells = 8 8 8
mask = ball

[rhs]
f = "{f}"

[boundary]
g = "0"

[run]
output = {out}
"""


def stalled_cfg(tmp_path, name):
    """A config whose solve stops unconverged: f = 30 moves the solution off
    the quadratic guess and max_iter = 0 allows no step."""
    out = tmp_path / f"{name}.field"
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(QUAD_3D.format(out=out).replace('f = "18"', 'f = "30"').replace(
        "max_iter = 50", "max_iter = 0"))
    return str(cfg)


@pytest.fixture
def quad_cfg(tmp_path):
    out = tmp_path / "field.txt"
    path = tmp_path / "quad.cfg"
    path.write_text(QUAD_3D.format(out=out))
    return path, out


class TestConfig:
    def test_load(self, quad_cfg):
        path, out = quad_cfg
        cfg = load_config(str(path))
        assert cfg.params.n == 3 and cfg.params.k == 2 and cfg.params.alpha == 1.0
        assert cfg.cells == (8, 8, 8)
        assert cfg.betas == (1.0, 2.0, 4.0)
        assert cfg.rhs.expression == expr.parse("18")
        assert cfg.boundary == expr.parse("(x1^2 + x2^2 + x3^2 - 1)/2")
        cfg.domain()  # builds without error

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize("mangle", [
        ("n = 3", "n = 4"),                 # k <= n <= 3 violated with k below
        ("k = 2", "k = 9"),
        ("alpha = 1.0", "alpha = -1"),
        ('f = "18"', 'f = "18 +"'),
        ("cells = 8 8 8", "cells = 8 8"),
        ("mask = box", "mask = disc"),
        ("alpha = 1.0", "alpha = nan"),
        ("alpha = 1.0", "alpha = inf"),
        # domains GridDomain rejects: too few cells, uneven spacing, a NaN corner
        ("cells = 8 8 8", "cells = 4 4 4"),
        ("upper = 1 1 1", "upper = 1 1 2"),
        ("lower = -1 -1 -1", "lower = nan -1 -1"),
    ])
    def test_invalid_configs(self, tmp_path, quad_cfg, mangle):
        path, out = quad_cfg
        text = path.read_text().replace(*mangle)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_config(str(bad))
        assert str(caught.value).startswith(f"{bad}: ")

    def test_unknown_solver_key_is_ignored(self, tmp_path, quad_cfg):
        # configs written when [solver] still took a homotopy schedule load
        # and solve the target problem
        path, out = quad_cfg
        text = path.read_text().replace("[solver]", "[solver]\nhomotopy = 0.5 1.0")
        old = tmp_path / "old.cfg"
        old.write_text(text)
        assert load_config(str(old)) == load_config(str(path))
        # so do configs that set the log diagnostic's beta, a and A, now
        # estimates constants: at their defaults, at others or not at all
        p_keys = "p_beta = 2.0\na = 0.1\nA = 1.0\n"
        assert p_keys in path.read_text()
        for keys in ("p_beta = 3\na = 0.5\nA = 2\n", ""):
            other = tmp_path / "other.cfg"
            other.write_text(path.read_text().replace(p_keys, keys))
            assert load_config(str(other)) == load_config(str(path))


class TestCliVerify:
    def test_pass_lines(self, capsys):
        status = main(["verify", "--n", "3", "--k", "2", "--alpha", "1",
                       "--count", "60", "--seed", "7"])
        out = capsys.readouterr().out
        assert status == 0
        assert "PASS identity-split" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_exits_2(self, capsys, count):
        assert main(["verify", "--n", "3", "--k", "2", "--count", count]) == 2
        captured = capsys.readouterr()
        assert f"count must be >= 1, got {count}" in captured.err
        assert captured.out == ""

    def test_suite_failure_exits_1(self, capsys, monkeypatch):
        import sumhessian.cli as cli_mod
        from sumhessian.suites import SuiteResult

        monkeypatch.setattr(cli_mod, "run_suites",
                            lambda *a, **kw: [SuiteResult("stub", "FAIL", "forced")])
        status = main(["verify", "--n", "3", "--k", "2"])
        captured = capsys.readouterr()
        assert status == 1
        assert "FAIL stub" in captured.out
        assert "failed" in captured.err


class TestCliSample:
    def test_csv_deterministic(self, tmp_path):
        args = ["sample", "--cone", "gamma-tilde", "--n", "3", "--k", "2",
                "--alpha", "1", "--count", "40", "--seed", "9"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("lam1,lam2,lam3,cone,n,k,alpha")

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "3"])  # missing --k
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, capsys, command, alpha):
        assert main([command, "--n", "3", "--k", "2", "--alpha", alpha, "--count", "10"]) == 2
        captured = capsys.readouterr()
        assert "alpha must be finite" in captured.err
        assert captured.out == ""


class TestCliSolve:
    def test_solve_writes_field_and_trace(self, quad_cfg, capsys):
        path, out = quad_cfg
        assert main(["solve", str(path)]) == 0
        with open(out) as stream:
            fld = read_field(stream)
        ustar = 0.5 * (np.sum(fld.domain.points**2, axis=1) - 1.0)
        assert np.max(np.abs(fld.flat - ustar)) <= 1e-9
        trace = (str(out) + ".trace.csv")
        with open(trace) as stream:
            lines = stream.read().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) >= 2

    def test_trace_exact_text(self, tmp_path):
        """The trace's every byte: repr floats, 0.0 kept as such, and
        admissible in lower case, false for a negative margin."""
        path = tmp_path / "t.trace.csv"
        cli._write_trace([TraceEntry(0, 0.0025, 0.0, 0.125, 0, 0.0),
                          TraceEntry(1, 2.220446049250313e-16, 0.5, -0.0625, 7, 3.3e-11)],
                         str(path))
        assert path.read_text() == (TRACE_HEADER + "\n"
                                    "0,0.0025,0.0,true,0,0.0\n"
                                    "1,2.220446049250313e-16,0.5,false,7,3.3e-11\n")

    def test_solve_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[operator]\nn = 3\n")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("mangle", [("lower = -1 -1 -1", "lower = nan -1 -1"),
                                        ("upper = 1 1 1", "upper = 1 1 inf")])
    def test_non_finite_corner_exits_2(self, tmp_path, quad_cfg, capsys, mangle):
        path, out = quad_cfg
        cfg = tmp_path / "corner.cfg"
        cfg.write_text(path.read_text().replace(*mangle))
        assert main(["solve", str(cfg)]) == 2
        assert "corners must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [
        ("operator", "n"), ("operator", "k"), ("domain", "lower"), ("domain", "upper"),
        ("domain", "cells"), ("rhs", "f"),
    ])
    def test_missing_key_exits_2(self, tmp_path, capsys, section, key):
        text = (CONFIGS / "ball18.cfg").read_text()
        cfg = tmp_path / "missing.cfg"
        cfg.write_text("\n".join(line for line in text.splitlines()
                                 if not line.startswith(f"{key} = ")))
        assert main(["solve", str(cfg), "--out", str(tmp_path / "missing.field")]) == 2
        assert f"missing required key '{key}' in section [{section}]" in capsys.readouterr().err

    def test_trace_bitwise_deterministic(self, tmp_path, quad_cfg):
        path, out = quad_cfg
        traces = []
        for tag in ("a", "b"):
            dest = tmp_path / f"run_{tag}.field"
            assert main(["solve", str(path), "--out", str(dest)]) == 0
            traces.append((dest.read_bytes(), (str(dest) + ".trace.csv")))
        assert traces[0][0] == traces[1][0]
        with open(traces[0][1], "rb") as f1, open(traces[1][1], "rb") as f2:
            assert f1.read() == f2.read()

    def test_nonconvergence_exits_1(self, tmp_path, capsys):
        assert main(["solve", stalled_cfg(tmp_path, "stall")]) == 1
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle,message", [
        (('f = "18"', 'f = "x1"'), "right-hand side must stay positive, min -0.75\n"),
        (('f = "18"', 'f = "-1"'), "right-hand side must stay positive, min -1.0\n"),
        (('g = "(x1^2 + x2^2 + x3^2 - 1)/2"', 'g = "log(x1)"'),
         "boundary data failed to evaluate: log of a nonpositive value"),
    ], ids=["nonpositive-f", "nonpositive-constant-f", "failing-g"])
    def test_instance_error_exits_1(self, tmp_path, quad_cfg, capsys, mangle, message):
        # InstanceError is a ValueError, but an ill-posed instance is solver
        # trouble, not a malformed config
        path, out = quad_cfg
        cfg = tmp_path / "bad-instance.cfg"
        cfg.write_text(path.read_text().replace(*mangle))
        assert main(["solve", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cone_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        import sumhessian.solver as solver_mod

        # a repair that hands back u = 0, whose Hessian lies on the cone's
        # boundary, leaves an inadmissible guess
        monkeypatch.setattr(solver_mod, "_repair_admissibility",
                            lambda fld, params, scale: ScalarField(fld.domain,
                                                                   np.zeros(fld.domain.shape)))
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_3D.format(f="18", out=tmp_path / "ball.field"))
        assert main(["solve", str(cfg)]) == 1
        assert "initial guess is not admissible" in capsys.readouterr().err

    def test_stalled_solve_writes_trace_and_no_field(self, tmp_path, quad_cfg, capsys,
                                                      monkeypatch):
        import sumhessian.solver as solver_mod

        # a useless step can never decrease the residual: the line search stalls
        monkeypatch.setattr(solver_mod, "_solve_linear",
                            lambda mat, rhs_vec, rtol, pattern: (np.zeros(mat.shape[0]), 0, 1.0))
        path, out = quad_cfg
        cfg = tmp_path / "stall.cfg"
        cfg.write_text(path.read_text().replace('f = "18"', 'f = "30"'))
        assert main(["solve", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "line search stalled: step 2^0 no longer changes the iterate" in err
        assert not out.exists()
        lines = Path(str(out) + ".trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_failed_linear_solve_writes_trace_and_no_field(self, tmp_path, quad_cfg, capsys,
                                                           monkeypatch):
        import sumhessian.solver as solver_mod

        def fail(mat, rhs_vec, rtol, pattern):
            raise LinearSolveError(rtol, 1.0, 1, mat.shape[0])

        monkeypatch.setattr(solver_mod, "_solve_linear", fail)
        path, out = quad_cfg
        # f = 30 moves the solution off the quadratic guess, so Newton steps
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(path.read_text().replace('f = "18"', 'f = "30"'))
        assert main(["solve", str(cfg)]) == 1
        assert "linear solve reached" in capsys.readouterr().err
        assert not out.exists()
        lines = Path(str(out) + ".trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2 and lines[1].startswith("0,")


class TestCliEstimate:
    def test_estimate_from_field(self, quad_cfg, tmp_path, capsys):
        path, out = quad_cfg
        assert main(["solve", str(path)]) == 0
        csv_out = tmp_path / "est.csv"
        assert main(["estimate", str(out), "--beta", "1,2,4", "--out", str(csv_out)]) == 0
        header = csv_out.read_text().split("\n")[0]
        assert header.count("weighted_pogorelov") == 3

    @pytest.mark.parametrize("shipped,p_keys", [
        pytest.param("ball18.cfg", "", id="ball18.cfg"),
        pytest.param(None, "", id="None"),
        # the log diagnostic's beta, a and A, once config keys, away from
        # the estimates constants: the loader ignores them
        pytest.param("ball18.cfg", "p_beta = 3\na = 0.5\nA = 2\n", id="ball18.cfg-p-keys"),
    ])
    def test_estimate_field_equals_config(self, shipped, p_keys, quad_cfg, tmp_path,
                                          monkeypatch):
        """estimate <field> rebuilds the solved domain, mask included, so it
        reports what estimate <cfg> reports; only the instance name differs."""
        if shipped:
            monkeypatch.chdir(tmp_path)  # the shipped config writes next to itself
            path = tmp_path / shipped
            path.write_text((CONFIGS / shipped).read_text().replace(
                "[estimates]\n", "[estimates]\n" + p_keys))
            out = tmp_path / load_config(str(path)).output
        else:
            path, out = quad_cfg
        betas = ",".join(f"{b:g}" for b in load_config(str(path)).betas)
        from_field, from_cfg = tmp_path / "field.csv", tmp_path / "cfg.csv"
        assert main(["solve", str(path)]) == 0
        assert main(["estimate", str(out), "--beta", betas, "--out", str(from_field)]) == 0
        assert main(["estimate", str(path), "--out", str(from_cfg)]) == 0

        def rows(csv_path):
            return [line.split(",", 1)[1] for line in csv_path.read_text().splitlines()]

        assert rows(from_field) == rows(from_cfg)

    def test_estimate_from_config(self, tmp_path):
        out = tmp_path / "ball.field"
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_3D.format(f="18", out=out))
        csv_out = tmp_path / "est.csv"
        assert main(["estimate", str(cfg), "--out", str(csv_out)]) == 0
        text = csv_out.read_text()
        assert "NA" not in text.split("\n")[1]  # zero boundary: all quantities present

    def test_estimate_from_config_uses_config_betas(self, tmp_path):
        out = tmp_path / "ball.field"
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_3D.format(f="18", out=out).replace(
            "[run]", "[estimates]\nbeta = 1 8\n\n[run]"))
        csv_out = tmp_path / "est.csv"
        assert main(["estimate", str(cfg), "--out", str(csv_out)]) == 0
        header = csv_out.read_text().split("\n")[0]
        assert "weighted_pogorelov_b8" in header
        assert header.count("weighted_pogorelov") == 2

    @pytest.mark.parametrize("beta", ["nan", "inf", "0.5"])
    @pytest.mark.parametrize("shipped", ["ball18.cfg", "quadratic3d.cfg"])
    def test_bad_config_weight_exits_2_before_solving(self, shipped, beta, tmp_path, capsys,
                                                      monkeypatch):
        """A weight that is not a finite number >= 1 stops every command that
        loads the config with status 2 before any solve, whatever the
        boundary data (ball18 has zero data, quadratic3d not)."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / shipped
        text = (CONFIGS / shipped).read_text()
        path.write_text("\n".join(f"beta = {beta} 2" if line.startswith("beta =") else line
                                  for line in text.splitlines()))
        monkeypatch.setattr(cli, "newton_solve", self.must_not_run)
        for argv in (["solve", str(path)], ["estimate", str(path)], ["report", str(path)]):
            assert main(argv) == 2
            assert "beta must be a finite number >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("shipped,line,message", [
        ("quadratic3d.cfg", 'g = "u + 1"', "boundary expression may only reference"),
        ("expradial2d.cfg", 'f = "x3 + 5"', "rhs expression may only reference"),
        ("quadratic3d.cfg", "tol = nan", "tol must be a finite number > 0"),
        ("quadratic3d.cfg", "max_iter = -3", "max_iter must be >= 0"),
    ])
    def test_bad_config_exits_2_before_solving(self, shipped, line, message, tmp_path, capsys,
                                               monkeypatch):
        """Data that reads u or a coordinate beyond n, a right-hand side
        that reads a coordinate beyond n, a tol that is not a finite number
        > 0 and a negative max_iter stop every command that loads the config
        with status 2 before any solve."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / shipped
        key = line.split(" = ")[0] + " ="
        text = (CONFIGS / shipped).read_text()
        assert key in text
        path.write_text("\n".join(line if row.startswith(key) else row
                                  for row in text.splitlines()))
        monkeypatch.setattr(cli, "newton_solve", self.must_not_run)
        for argv in (["solve", str(path)], ["estimate", str(path)], ["report", str(path)]):
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "inf", "0.5", "1,0.5"])
    def test_bad_beta_flag_exits_2_before_any_work(self, beta, quad_cfg, tmp_path, capsys,
                                                   monkeypatch):
        """--beta is checked before the field is read or the config solved."""
        path, _ = quad_cfg
        monkeypatch.setattr(cli, "read_field", self.must_not_run)
        monkeypatch.setattr(cli, "newton_solve", self.must_not_run)
        for target in (tmp_path / "any.field", path):
            assert main(["estimate", str(target), "--beta", beta]) == 2
            assert "beta must be a finite number >= 1" in capsys.readouterr().err

    def test_weights_sharing_a_column_exit_2(self, quad_cfg, tmp_path, capsys, monkeypatch):
        """1 and 1.0000001 would both write weighted_pogorelov_b1."""
        path, _ = quad_cfg
        monkeypatch.setattr(cli, "read_field", self.must_not_run)
        monkeypatch.setattr(cli, "newton_solve", self.must_not_run)
        for target in (tmp_path / "any.field", path):
            assert main(["estimate", str(target), "--beta", "1,1.0000001"]) == 2
            assert "share the column weighted_pogorelov_b1" in capsys.readouterr().err

    @staticmethod
    def must_not_run(*args, **kwargs):
        raise AssertionError("called before the weights were checked")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_field_exits_2(self, bad, tmp_path, capsys):
        """A NaN or infinite value in a field file stops estimate with status
        2, naming the first such grid point in row-major order."""
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        vals = np.zeros(dom.shape)
        vals[2, 6] = vals[5, 1] = float(bad)
        path, csv_out = tmp_path / "bad.field", tmp_path / "est.csv"
        with open(path, "w") as stream:
            write_field(ScalarField(dom, vals), stream)
        assert main(["estimate", str(path), "--out", str(csv_out)]) == 2
        assert (f"field value {float(bad)!r} at grid point (2, 6) is not finite"
                in capsys.readouterr().err)
        assert not csv_out.exists()

    def test_estimate_refuses_unconverged(self, tmp_path, capsys):
        csv_out = tmp_path / "est.csv"
        assert main(["estimate", stalled_cfg(tmp_path, "stall"),
                     "--out", str(csv_out)]) == 1
        assert "refusing to report estimates" in capsys.readouterr().err
        assert not csv_out.exists()

    def test_estimate_deterministic(self, tmp_path):
        out = tmp_path / "ball.field"
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_3D.format(f="18", out=out))
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["estimate", str(cfg), "--out", str(c1)]) == 0
        assert main(["estimate", str(cfg), "--out", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()


class TestCliReport:
    def test_report_skips_unconverged_member(self, tmp_path, capsys):
        good = tmp_path / "f18.cfg"
        good.write_text(BALL_3D.format(f="18", out=tmp_path / "f18.field"))
        stalled = stalled_cfg(tmp_path, "stall")
        # a member whose solve raises is skipped like one that stops above tol
        nonpositive = tmp_path / "x1.cfg"
        nonpositive.write_text(BALL_3D.format(f="x1", out=tmp_path / "x1.field"))
        csv_out = tmp_path / "family.csv"
        assert main(["report", str(good), stalled, str(nonpositive),
                     "--out", str(csv_out)]) == 1
        err = capsys.readouterr().err
        assert f"{stalled}: solver did not converge" in err
        assert f"{nonpositive}: right-hand side must stay positive" in err
        lines = csv_out.read_text().splitlines()
        assert len(lines) == 3  # header, the converged instance, family max
        assert lines[1].startswith(f"{good},")
        assert lines[2].startswith("FAMILY_MAX,")

    def test_report_without_converged_member(self, tmp_path, capsys):
        csv_out = tmp_path / "family.csv"
        assert main(["report", stalled_cfg(tmp_path, "a"), stalled_cfg(tmp_path, "b"),
                     "--out", str(csv_out)]) == 1
        assert "no converged instances to report" in capsys.readouterr().err
        assert not csv_out.exists()

    def test_report_loads_every_member_before_solving(self, quad_cfg, tmp_path, capsys,
                                                      monkeypatch):
        """A member whose domain is invalid stops report with status 2 and
        no table before the first member solves."""
        path, _ = quad_cfg
        small = tmp_path / "small.cfg"
        small.write_text(path.read_text().replace("cells = 8 8 8", "cells = 4 4 4"))
        calls, solve = [], cli.newton_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "newton_solve", counted)
        csv_out = tmp_path / "family.csv"
        assert main(["report", str(path), str(small), "--out", str(csv_out)]) == 2
        assert f"{small}: cells per axis must be >= 8" in capsys.readouterr().err
        assert not calls
        assert not csv_out.exists()

    def test_family_table(self, tmp_path):
        paths = []
        for fval in ("18", "72"):
            out = tmp_path / f"f{fval}.field"
            cfg = tmp_path / f"f{fval}.cfg"
            cfg.write_text(BALL_3D.format(f=fval, out=out))
            paths.append(str(cfg))
        csv_out = tmp_path / "family.csv"
        assert main(["report", *paths, "--out", str(csv_out)]) == 0
        lines = csv_out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + 2 instances + family max
        assert lines[-1].startswith("FAMILY_MAX")


# Run in a fresh interpreter: this process already holds scipy.
COLD_START = """
import sys

import numpy as np

from sumhessian import RhsSpec, ScalarField, SumHessianParams, cli, expr, make_domain, \\
    newton_solve, write_field


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name="ball")
quad = 0.5 * (np.sum(dom.points ** 2, axis=1) - 1.0)
with open("quad.field", "w") as stream:
    write_field(ScalarField(dom, quad.reshape(dom.shape)), stream)
for argv in (["verify", "--n", "3", "--k", "2", "--alpha", "0.5", "--count", "40", "--seed", "1"],
             ["sample", "--n", "3", "--k", "2", "--count", "40", "--out", "sample.csv"],
             ["estimate", "quad.field", "--out", "quad.csv"]):
    assert cli.main(argv) == 0, argv
assert not scipy_modules(), scipy_modules()[:5]
result = newton_solve(dom, SumHessianParams(3, 2, 1.0), RhsSpec.parse("18"), expr.parse("0"))
assert result.converged(1e-10)
assert "scipy.sparse.linalg" in sys.modules
print("cold start ok")
"""


class TestColdStart:
    def test_algebra_and_field_estimates_never_load_scipy(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.endswith("cold start ok\n")
        assert (tmp_path / "quad.csv").read_text().count("\n") == 2
