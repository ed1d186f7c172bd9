"""Command-line frontend.

Subcommands: verify (property suites), sample (cone batches to CSV),
solve (config -> field file + trace CSV), estimate (field or config ->
estimate CSV), report (family of configs -> family table). Exit status 0
on success, 1 on suite failure or solver trouble, 2 on usage/config
errors. Diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import sys

from . import estimates, expr
from .cones import Cone, sample_cone, batch_to_csv
from .config import load_config
from .errors import (
    ConeViolationError,
    ConfigError,
    InstanceError,
    LinearSolveError,
    NonConvergenceError,
    SamplingExhaustedError,
)
from .grid import read_field, write_field
from .solver import newton_solve
from .suites import run_suites
from .symfun import SumHessianParams


def _add_params_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--n", type=int, required=True, help="eigenvalue count / dimension")
    cmd.add_argument("--k", type=int, required=True, help="operator order")
    cmd.add_argument("--alpha", type=float, default=0.0, help="lower-order weight (>= 0)")
    cmd.add_argument("--count", type=int, default=1000, help="sample count")
    cmd.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumhessian")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity/inequality suites")
    _add_params_flags(verify)

    sample = sub.add_parser("sample", help="rejection-sample a cone batch to CSV")
    _add_params_flags(sample)
    sample.add_argument("--cone", choices=[c.value for c in Cone], default=Cone.GAMMA_TILDE.value)
    sample.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")

    solve = sub.add_parser("solve", help="solve a Dirichlet instance from a config file")
    solve.add_argument("config", help="run configuration file")
    solve.add_argument("--out", default=None, help="override the configured field output path")

    estimate = sub.add_parser("estimate", help="estimate quantities for a field or config")
    estimate.add_argument("input", help="field file, or a .cfg run configuration (solved first)")
    estimate.add_argument("--beta", default=None,
                          help="comma-separated weight exponents (default: the config's, "
                               f"else {','.join(f'{b:g}' for b in estimates.BETAS)})")
    estimate.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")

    report = sub.add_parser("report", help="family table over several configs")
    report.add_argument("configs", nargs="+", help="run configuration files")
    report.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    return parser


def _output(path: str):
    """Output stream context: stdout for '-', never closed, else the file."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _cmd_verify(args) -> int:
    params = SumHessianParams(n=args.n, k=args.k, alpha=args.alpha)
    results = run_suites(params, count=args.count, seed=args.seed)
    for res in results:
        print(res.line())
    failed = sum(not res.passed for res in results)
    if failed:
        print(f"{failed} suite(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_sample(args) -> int:
    params = SumHessianParams(n=args.n, k=args.k, alpha=args.alpha)
    batch = sample_cone(Cone(args.cone), params, args.count, args.seed)
    with _output(args.out) as stream:
        batch_to_csv(batch, stream)
    return 0


# what a solve can raise on a well-formed config; the CLI exits 1 on it
SOLVER_TROUBLE = (NonConvergenceError, LinearSolveError, ConeViolationError, InstanceError)
# the trace CSV's columns, attributes of solver.TraceEntry
TRACE_COLUMNS = ("iteration", "residual", "step", "admissible", "krylov", "linear_residual")


def _solve_from_config(cfg):
    return newton_solve(cfg.domain(), cfg.params, cfg.rhs, cfg.boundary, cfg.solve)


def _config_row(path: str, cfg, betas=None):
    """The estimate row of a config's solve, under the config's weights
    unless betas overrides them; None when the solve stops above its tol."""
    result = _solve_from_config(cfg)
    if not result.converged(cfg.solve.tol):
        return None
    return estimates.build_report(path, result.field, betas or cfg.betas)


def _write_trace(trace, path: str) -> None:
    with open(path, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([estimates.csv_cell(getattr(entry, name)) for name in TRACE_COLUMNS]
                         for entry in trace)


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out_path = args.out or cfg.output
    try:
        result = _solve_from_config(cfg)
    except (NonConvergenceError, LinearSolveError) as exc:
        # the iterates up to the failure explain it; there is no field to write
        _write_trace(exc.trace, out_path + ".trace.csv")
        raise
    with open(out_path, "w") as stream:
        write_field(result.field, stream)
    _write_trace(result.trace, out_path + ".trace.csv")
    print(f"iterations={result.iterations} residual={result.residual:.3e} "
          f"admissible={result.admissible} field={out_path}")
    if not result.converged(cfg.solve.tol):
        print(f"solver did not reach tol={cfg.solve.tol:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_estimate(args) -> int:
    betas = tuple(float(v) for v in args.beta.split(",")) if args.beta else None
    estimates.check_betas(betas or ())
    if args.input.endswith(".cfg"):
        report = _config_row(args.input, load_config(args.input), betas)
        if report is None:
            print("solver did not converge; refusing to report estimates", file=sys.stderr)
            return 1
    else:
        with open(args.input) as stream:
            fld = read_field(stream)
        report = estimates.build_report(args.input, fld, betas or estimates.BETAS)
    with _output(args.out) as stream:
        estimates.write_reports([report], stream)
    return 0


def _cmd_report(args) -> int:
    """Load every member before the first solve, then skip, with status 1, a
    member whose solve fails or stops above tol."""
    reports = []
    for path, cfg in [(path, load_config(path)) for path in args.configs]:
        try:
            report = _config_row(path, cfg)
        except SOLVER_TROUBLE as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            continue
        if report is None:
            print(f"{path}: solver did not converge", file=sys.stderr)
            continue
        reports.append(report)
    if not reports:
        print("no converged instances to report", file=sys.stderr)
        return 1
    with _output(args.out) as stream:
        estimates.write_reports(reports, stream, family_max=True)
    return int(len(reports) < len(args.configs))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "sample": _cmd_sample,
        "solve": _cmd_solve,
        "estimate": _cmd_estimate,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    # solver trouble first: InstanceError and ConeViolationError are ValueErrors
    except SOLVER_TROUBLE + (SamplingExhaustedError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, expr.ExprError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
