"""Traced run: wrap the layers' entry points from outside the package.

Every wrapper records a span (name, parent, start, end) and the calls made
through its binding. Functions that other modules import by name are
wrapped at each binding, because replacing the defining module's attribute
would not reach a copy already bound elsewhere. Nothing under ``src/`` is
edited; the wrappers are installed only for a traced run.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

import numpy as np

SOLVE_WORKLOADS = frozenset({"ball-family", "exp-box", "cli-roundtrip"})
VERIFY_WORKLOADS = frozenset({"verify-sweep"})
CLI_WORKLOADS = frozenset({"cli-roundtrip"})

# Suites whose time is reported per suite (the heaviest spectral ones).
REPORTED_SUITES = ("matrix_concavity", "lambda_concavity", "matrix_grad_fd",
                   "matrix_hess_fd", "frame_invariance")

# Counts that must repeat exactly between traced passes of the same inputs.
DETERMINISTIC_COUNTS = ("solver.newton_iters", "solver.krylov_iters",
                        "spectral.eigen_sym_calls", "grid.hessian_field_calls")

PER_LAYER_UNITS = {
    "solver.newton_solve_s": "s",
    "solver.newton_iters": "count",
    "solver.krylov_iters": "count",
    "solver.krylov_s": "s",
    "solver.initial_guess.krylov_iters": "count",
    "solver.ls_trials": "count",
    "solver.ls_accept_ratio": "1",
    "solver.initial_guess_s": "s",
    "solver.initial_guess.hessian_field_calls": "count",
    "solver.linearize_calls": "count",
    "solver.linearize_s": "s",
    "solver.residual_calls": "count",
    "solver.residual_s": "s",
    "solver.admissible_mask_calls": "count",
    "solver.admissible_mask_s": "s",
    "grid.hessian_field_calls": "count",
    "grid.hessian_field_s": "s",
    "grid.gradient_field_s": "s",
    "grid.write_field_s": "s",
    "grid.read_field_s": "s",
    "grid.field_bytes": "bytes",
    "expr.evaluate_calls": "count",
    "expr.evaluate_s": "s",
    "estimates.build_report_s": "s",
    "estimates.hessian_field_calls": "count",
    "config.load_config_s": "s",
    "cli.main_s": "s",
    "spectral.eigen_sym_calls": "count",
    "spectral.eigen_sym_s": "s",
    "spectral.operator_hess_quad_s": "s",
    "cones.sample_cone_s": "s",
    "cones.accept_ratio": "1",
    "symfun.sum_hessian_calls": "count",
    "suites.run_suites_s": "s",
    **{f"suites.{name}_s": "s" for name in REPORTED_SUITES},
    "trace_overhead_share": "1",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "value", "ok")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.value = 0      # per-span count: Krylov iterations, Newton steps
        self.ok = False     # returned without raising


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.binding_calls: Counter = Counter()
        self.tally: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.tally = Counter()

    @contextlib.contextmanager
    def paused(self):
        """Keep output checks out of the traced counts."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def current(self) -> Span:
        return self.spans[self.stack[-1]]

    def replace(self, module, attr: str, value) -> None:
        """Set ``module.attr`` until ``uninstall``."""
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(self, module, attr: str, name: str, hook=None) -> str:
        """Replace ``module.attr`` with a recording wrapper; return the binding."""
        binding = f"{module.__name__}:{attr}"
        self.replace(module, attr, self.recorder(getattr(module, attr), name, binding, hook))
        return binding

    def recorder(self, fn, name: str, binding: str, hook=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``hook(tracer, fn, args, kwargs)`` runs the call when extra data
        (iterations, rows, bytes) must be taken from the arguments or result.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.binding_calls[binding] += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, parent, time.perf_counter())
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = hook(tracer, fn, args, kwargs) if hook else fn(*args, **kwargs)
                span.ok = True
                return out
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore = []

    def write_spans(self, path) -> None:
        with open(path, "w") as stream:
            stream.write("id,name,parent,start_s,end_s,value,ok\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                stream.write(f"{i},{s.name},{s.parent},{s.start - t0!r},{s.end - t0!r},"
                             f"{s.value},{int(s.ok)}\n")


# ---------------------------------------------------------------------------
# hooks that take extra data from a call

def _krylov_hook(tracer, fn, args, kwargs):
    span = tracer.current()
    user_callback = kwargs.pop("callback", None)

    def count(xk):
        span.value += 1
        if user_callback is not None:
            user_callback(xk)

    return fn(*args, callback=count, **kwargs)


def _newton_hook(tracer, fn, args, kwargs):
    span = tracer.current()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        trace = getattr(exc, "trace", None) or []
        span.value = trace[-1].iteration if trace else 0
        raise
    span.value = result.iterations
    return result


def _in_cone_hook(tracer, fn, args, kwargs):
    accepted = fn(*args, **kwargs)
    tracer.tally["cones.rows_drawn"] += int(np.size(accepted))
    tracer.tally["cones.rows_accepted"] += int(np.count_nonzero(accepted))
    return accepted


def _write_field_hook(tracer, fn, args, kwargs):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    before = stream.tell()
    out = fn(*args, **kwargs)
    tracer.tally["grid.field_bytes"] += stream.tell() - before
    return out


# ---------------------------------------------------------------------------
# bindings

def install(tracer: Tracer):
    """Wrap every layer entry point the per-layer metrics need.

    Returns the self-check table: binding -> workloads on which it must
    record at least one call.
    """
    import scipy.sparse.linalg as spla

    from sumhessian import cli, cones, estimates, expr, solver, spectral, suites, symfun

    must_fire: dict[str, frozenset] = {}

    def wrap(module, attr, name, workloads, hook=None):
        must_fire[tracer.wrap(module, attr, name, hook)] = workloads

    solve, verify = SOLVE_WORKLOADS, VERIFY_WORKLOADS

    wrap(spla, "bicgstab", "solver.krylov", solve, _krylov_hook)
    wrap(solver, "newton_solve", "solver.newton_solve", solve - CLI_WORKLOADS, _newton_hook)
    wrap(cli, "newton_solve", "solver.newton_solve", CLI_WORKLOADS, _newton_hook)
    for attr in ("initial_guess", "linearize", "residual", "admissible_mask"):
        wrap(solver, attr, f"solver.{attr}", solve)
    for module in (solver, estimates):
        wrap(module, "hessian_field", "grid.hessian_field", solve)
        wrap(module, "gradient_field", "grid.gradient_field", solve)
    wrap(estimates, "build_report", "estimates.build_report", solve)
    wrap(expr, "evaluate", "expr.evaluate", solve)

    wrap(cli, "main", "cli.main", CLI_WORKLOADS)
    wrap(cli, "load_config", "config.load_config", CLI_WORKLOADS)
    wrap(cli, "write_field", "grid.write_field", CLI_WORKLOADS, _write_field_hook)
    wrap(cli, "read_field", "grid.read_field", CLI_WORKLOADS)

    wrap(solver, "sum_hessian", "symfun.sum_hessian", solve)
    for module in (symfun, suites, cones, spectral):
        wrap(module, "sum_hessian", "symfun.sum_hessian", verify)
    wrap(suites, "sample_cone", "cones.sample_cone", verify)
    wrap(cones, "in_cone", "cones.in_cone", verify, _in_cone_hook)
    for attr in ("grad_coefficients", "lambda_space_hessian", "operator_grad",
                 "operator_hess_quad", "operator_value", "u_operator"):
        wrap(suites, attr, f"spectral.{attr}", verify)
    wrap(spectral, "eigen_sym", "spectral.eigen_sym", verify)
    wrap(suites, "run_suites", "suites.run_suites", verify)

    # run_suites iterates the SUITES tuple at call time, so the suites are
    # wrapped by swapping that tuple for one of wrapped functions
    wrapped = []
    for fn in suites.SUITES:
        binding = f"sumhessian.suites.SUITES:{fn.__name__}"
        wrapped.append(tracer.recorder(fn, "suites." + fn.__name__.removeprefix("suite_"),
                                       binding))
        must_fire[binding] = verify
    tracer.replace(suites, "SUITES", tuple(wrapped))
    return must_fire


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def _ancestors(spans: list[Span], span: Span):
    parent = span.parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent


def summarize(tracer: Tracer) -> dict[str, float]:
    """Counts and inclusive times per layer over the spans recorded so far."""
    spans = tracer.spans
    calls: Counter = Counter()
    secs: Counter = Counter()
    for s in spans:
        calls[s.name] += 1
        secs[s.name] += s.end - s.start

    def under(name: str, ancestor: str):
        return (s for s in spans if s.name == name and ancestor in _ancestors(spans, s))

    newton = [s for s in spans if s.name == "solver.newton_solve"]
    newton_iters = sum(s.value for s in newton)
    # admissible_mask runs directly under newton_solve once for the initial
    # guess, once per line-search trial, and once for the returned result
    masks_in_loop = sum(1 for s in spans if s.name == "solver.admissible_mask"
                        and s.parent >= 0 and spans[s.parent].name == "solver.newton_solve")
    ls_trials = masks_in_loop - len(newton) - sum(1 for s in newton if s.ok)
    drawn = tracer.tally["cones.rows_drawn"]

    out = {
        "solver.newton_solve_s": secs["solver.newton_solve"],
        "solver.newton_iters": newton_iters,
        "solver.krylov_iters": sum(s.value for s in spans if s.name == "solver.krylov"),
        "solver.krylov_s": secs["solver.krylov"],
        "solver.initial_guess.krylov_iters":
            sum(s.value for s in under("solver.krylov", "solver.initial_guess")),
        "solver.ls_trials": ls_trials,
        "solver.ls_accept_ratio": newton_iters / ls_trials if ls_trials else 0.0,
        "solver.initial_guess_s": secs["solver.initial_guess"],
        "solver.initial_guess.hessian_field_calls":
            sum(1 for _ in under("grid.hessian_field", "solver.initial_guess")),
        "grid.hessian_field_calls": calls["grid.hessian_field"],
        "grid.hessian_field_s": secs["grid.hessian_field"],
        "grid.gradient_field_s": secs["grid.gradient_field"],
        "grid.write_field_s": secs["grid.write_field"],
        "grid.read_field_s": secs["grid.read_field"],
        "grid.field_bytes": tracer.tally["grid.field_bytes"],
        "expr.evaluate_calls": calls["expr.evaluate"],
        "expr.evaluate_s": secs["expr.evaluate"],
        "estimates.build_report_s": secs["estimates.build_report"],
        "estimates.hessian_field_calls":
            sum(1 for _ in under("grid.hessian_field", "estimates.build_report")),
        "config.load_config_s": secs["config.load_config"],
        "cli.main_s": secs["cli.main"],
        "spectral.eigen_sym_calls": calls["spectral.eigen_sym"],
        "spectral.eigen_sym_s": secs["spectral.eigen_sym"],
        "spectral.operator_hess_quad_s": secs["spectral.operator_hess_quad"],
        "cones.sample_cone_s": secs["cones.sample_cone"],
        "cones.accept_ratio": tracer.tally["cones.rows_accepted"] / drawn if drawn else 0.0,
        "symfun.sum_hessian_calls": calls["symfun.sum_hessian"],
        "suites.run_suites_s": secs["suites.run_suites"],
    }
    for attr in ("linearize", "residual", "admissible_mask"):
        out[f"solver.{attr}_calls"] = calls[f"solver.{attr}"]
        out[f"solver.{attr}_s"] = secs[f"solver.{attr}"]
    for name in REPORTED_SUITES:
        out[f"suites.{name}_s"] = secs[f"suites.{name}"]
    return out


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes; counts must agree between passes.

    Returns the combined metrics and the counts that differed.
    """
    differing = [name for name in DETERMINISTIC_COUNTS
                 if len({p[name] for p in passes}) > 1]
    combined = {name: statistics.median(p[name] for p in passes)
                if PER_LAYER_UNITS[name] == "s" else passes[0][name] for name in passes[0]}
    return combined, differing


def self_check(tracer: Tracer, must_fire: dict[str, frozenset], workload: str) -> list[str]:
    """Bindings that should have fired on this workload but recorded no call."""
    return sorted(b for b, workloads in must_fire.items()
                  if workload in workloads and tracer.binding_calls[b] == 0)


def isolation(metrics: dict[str, float], workload: str) -> list[str]:
    """Layers that should stay idle on this workload but did work."""
    if workload in VERIFY_WORKLOADS:
        idle = [m for m in metrics if m.startswith(("solver.", "grid.", "expr.", "estimates."))]
    else:
        idle = [m for m in metrics if m.startswith(("spectral.", "cones.", "suites."))]
    return [m for m in idle if metrics[m]]
