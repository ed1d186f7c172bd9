"""sumhessian benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ball-family --seed 1 --seconds 25 --trace 0

Runs one workload in this process through the package's public entry
points, checks every output, prints one line per operation and metric,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). See NOTES.md next to this file.
"""
import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sumhessian"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOADS = ("ball-family", "exp-box", "verify-sweep", "cli-roundtrip")
MAX_ABS_ERR_WORKLOADS = ("ball-family", "exp-box")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time, converted to whole passes at the "
                             "workload's nominal pass time; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import sumhessian from this checkout's src/, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: {PACKAGE} not found; run from the root of a sumhessian checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import sumhessian

    if Path(sumhessian.__file__).resolve().parent != PACKAGE:
        sys.exit(f"error: imported sumhessian from {sumhessian.__file__}, not {PACKAGE}")


def environment(seed: int) -> str:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas_version} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} seed={seed}")


class Runner:
    """Times operations, runs their checks and keeps the tallies."""

    def __init__(self, workload: str, known_failures: dict, tracer=None):
        self.workload = workload
        self.known = {op: label for (w, op), (label, _) in known_failures.items()
                      if w == workload}
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.max_abs_err = 0.0

    def run(self, op, counted: bool = True) -> float:
        start = time.perf_counter()
        try:
            value, error = op.execute(), None
        except Exception as exc:  # a raised error is a failed operation
            value, error = None, exc
        elapsed = time.perf_counter() - start
        if error is not None:
            labels, info, detail = [type(error).__name__], {}, str(error).split("\n")[0]
            if self.known.get(op.name) != labels[0]:
                traceback.print_exception(error, file=sys.stderr)
        else:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                outcome = op.check(value)
            labels, info, detail = outcome.failures, outcome.info, ""
        if counted:
            self.attempted += 1
            self.failed += bool(labels)
            self.samples.setdefault(op.name, []).append(elapsed)
            self.failures.update((op.name, label) for label in labels)
            self.max_abs_err = max(self.max_abs_err, info.get("max_abs_err", 0.0))
        fields = [f"op {op.name} {elapsed:.4f} s", "FAIL " + ",".join(labels) if labels else "ok"]
        fields += [f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()]
        print(" ".join(fields + [detail]).rstrip())
        return elapsed

    def unexpected(self) -> list[tuple[str, str]]:
        return [(op, label) for op, label in self.failures if self.known.get(op) != label]


def setup(workloads, name: str, seed: int, work_dir: Path, runner: Runner):
    """Build the inputs and run the warm-up operation, SETUP_REPEATS times.

    Returns the pass built by the last repeat and the median repeat time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        one_pass = workloads.build(name, seed, work_dir, ROOT)
        runner.run(one_pass.warmup, counted=False)
        times.append(time.perf_counter() - start)
    return one_pass, statistics.median(times)


def measure(one_pass, runner: Runner, passes: int) -> list[float]:
    """Run whole passes; return the time of each."""
    return [sum(runner.run(op) for op in one_pass.ops) for _ in range(passes)]


def op_p50(samples: dict[str, list[float]]) -> float:
    """Median over operation kinds of each kind's median time.

    Taken per kind so that one slow sample of a cheap kind cannot move the
    result across the gap between cheap and expensive kinds.
    """
    return statistics.median(statistics.median(v) for v in samples.values())


def end_to_end(runner: Runner, pass_times: list[float], setup_s: float) -> dict:
    n_samples = sum(len(v) for v in runner.samples.values())
    metrics = {
        "wall_s": (statistics.median(pass_times), "s"),
        "op_s_p50": (op_p50(runner.samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(pass_times)} passes",
        "op_s_p50": f"{n_samples} samples over {len(runner.samples)} operation kinds",
        "setup_s": f"import plus median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.4f} {unit} ({notes[name]})")
    print(f"metric fail_share {runner.failed / runner.attempted:.4f} 1 "
          f"({runner.failed}/{runner.attempted} operations)")
    if runner.workload in MAX_ABS_ERR_WORKLOADS:
        print(f"metric max_abs_err {runner.max_abs_err:.4e} 1 (sup over converged solves)")
    return metrics


def traced(one_pass, runner: Runner, rounds: int, seed: int, tracer, must_fire):
    """Alternate untraced and traced passes, ``rounds`` of each.

    Returns the per-layer metrics and the problems found: counts that
    differ between traced passes, and wrappers that never fired.
    """
    plain, traced_times, passes = [], [], []
    for _ in range(rounds):
        plain += measure(one_pass, runner, 1)
        tracer.reset()
        tracer.enabled = True
        traced_times += measure(one_pass, runner, 1)
        tracer.enabled = False
        passes.append(layertrace.summarize(tracer))
    tracer.uninstall()
    metrics, differing = layertrace.combine(passes)
    metrics["trace_overhead_share"] = (statistics.median(traced_times)
                                       / statistics.median(plain) - 1.0)
    problems = [f"count differs between traced passes: {name}" for name in differing]
    problems += [f"wrapper recorded no call: {binding}"
                 for binding in layertrace.self_check(tracer, must_fire, runner.workload)]
    for name in layertrace.isolation(metrics, runner.workload):
        print(f"note: {name} is nonzero on {runner.workload}")
    spans_path = OUT_DIR / f"spans-{runner.workload}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    print(f"spans of the last traced pass: {spans_path}")
    units = layertrace.PER_LAYER_UNITS
    for name, unit in units.items():
        print(f"layer {name} {metrics[name]!r} {unit}")
    return {name: (metrics[name], unit) for name, unit in units.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    import_s = time.perf_counter() - _STARTED

    tracer = must_fire = None
    if args.trace:
        tracer = layertrace.Tracer()
        must_fire = layertrace.install(tracer)
    runner = Runner(args.workload, workloads.KNOWN_FAILURES, tracer)
    # a fixed number of passes per run, so that the work measured does not
    # depend on how fast the shared host happens to be during the run
    passes = max(1, int(args.seconds / workloads.PASS_SECONDS[args.workload]))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"passes {passes} trace {args.trace}")
    print("env " + environment(args.seed))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        one_pass, setup_s = setup(workloads, args.workload, args.seed, work_dir, runner)
        if args.trace:
            metrics, problems = traced(one_pass, runner, max(2, passes // 2), args.seed,
                                       tracer, must_fire)
        else:
            metrics = end_to_end(runner, measure(one_pass, runner, passes),
                                 import_s + setup_s)
            problems = []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for (op, label), times in sorted(runner.failures.items()):
        known = workloads.KNOWN_FAILURES.get((args.workload, op))
        tag = f"known, {known[1]}" if known and known[0] == label else "UNEXPECTED"
        print(f"failure {op}: {label} x{times} ({tag})")
    for problem in problems:
        print(f"failure {problem} (UNEXPECTED)")
    if any(p.startswith("wrapper") for p in problems):
        print("error: the traced run's wrapper self-check failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not runner.unexpected() and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
