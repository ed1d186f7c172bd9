"""Runtime verification suites for the symmetric-function identities,
cone properties, and spectral concavity/ordering facts.

Each suite draws deterministic samples, checks one identity or
inequality at its stated tolerance, and reports the worst value
observed (including the empirical constants of the ratio bounds).
The tolerances are the module constants below.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cones import Cone, eta, in_gamma_tilde, sample_cone
from .spectral import (
    grad_coefficients,
    lambda_space_hessian,
    operator_grad,
    operator_hess_quad,
    operator_value,
    u_operator,
)
from .symfun import (
    SumHessianParams,
    maclaurin_chain,
    sigma,
    sum_hessian,
    sum_hessian_chain,
    sum_hessian_grad,
    sum_hessian_hess,
)

GRAD_FD_STEP = 1e-6
HESS_FD_STEP = 1e-3
MATRIX_GRAD_FD_STEP = 1e-5
MATRIX_HESS_FD_STEP = 1e-3
# five-point second-difference stencil: f'' ~ sum(w_i f(x + s_i h)) / h^2
FD4_STEPS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
FD4_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

IDENTITY_REL = 1e-10
QUADRATIC_SLACK = 1e-12     # S_k^2 - S_{k-1} S_{k+1} >= -slack * max(1, S_k^2)
GRAD_SUM_SLACK = 1e-10
GRAD_FD_REL = 1e-6
HESS_FD_REL = 1e-5
CHAIN_SLACK = 1e-12
CONCAVITY_ETA = 1e-9
CONCAVITY_MATRIX = 1e-8
MATRIX_GRAD_FD_REL = 1e-6
MATRIX_HESS_FD_ABS = 1e-4
ORDERING_SLACK = 1e-10
RATIO_FLOOR = 1e-8
FRAME_INVARIANCE_REL = 1e-10


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"

    def line(self) -> str:
        return f"{self.status} {self.name}: {self.detail}"


def _uniform_lams(params: SumHessianParams, count: int, rng) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, size=(count, params.n))


def _result(name: str, ok: bool, detail: str) -> SuiteResult:
    return SuiteResult(name, "PASS" if ok else "FAIL", detail)


def _rel(err: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.abs(err) / np.maximum(1.0, np.abs(scale))


# ---------------------------------------------------------------------------
# identity suites (any real lambda)

def suite_identity_split(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, count, rng)
    k, a = params.k, params.alpha
    s = sum_hessian(lam, k, a)
    grad = sum_hessian_grad(lam, k, a)
    worst = 0.0
    for i in range(params.n):
        rest = sum_hessian(np.delete(lam, i, axis=-1), k, a)
        worst = max(worst, float(np.max(_rel(s - (lam[:, i] * grad[:, i] + rest), s))))
    return _result("identity-split", worst <= IDENTITY_REL, f"max rel err {worst:.3e}")


def suite_identity_deleted_sum(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, count, rng)
    k, a, n = params.k, params.alpha, params.n
    lhs = np.zeros(count)
    for i in range(n):
        lhs += sum_hessian(np.delete(lam, i, axis=-1), k, a)
    rhs = (n - k) * sum_hessian(lam, k, a) + a * sigma(lam, k - 1)
    worst = float(np.max(_rel(lhs - rhs, rhs)))
    return _result("identity-deleted-sum", worst <= IDENTITY_REL, f"max rel err {worst:.3e}")


def suite_identity_euler(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, count, rng)
    k, a = params.k, params.alpha
    lhs = np.sum(lam * sum_hessian_grad(lam, k, a), axis=-1)
    rhs = k * sum_hessian(lam, k, a) - a * sigma(lam, k - 1)
    worst = float(np.max(_rel(lhs - rhs, rhs)))
    return _result("identity-euler", worst <= IDENTITY_REL, f"max rel err {worst:.3e}")


def suite_grad_fd(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, count, rng)
    k, a = params.k, params.alpha
    grad = sum_hessian_grad(lam, k, a)
    h = GRAD_FD_STEP
    worst = 0.0
    for i in range(params.n):
        delta = np.zeros(params.n)
        delta[i] = h
        fd = (sum_hessian(lam + delta, k, a) - sum_hessian(lam - delta, k, a)) / (2 * h)
        worst = max(worst, float(np.max(_rel(fd - grad[:, i], grad[:, i]))))
    return _result("gradient-fd", worst <= GRAD_FD_REL, f"max rel err {worst:.3e}")


def suite_hess_fd(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, min(count, 200), rng)
    k, a, n = params.k, params.alpha, params.n
    hess = np.moveaxis(sum_hessian_hess(lam, k, a), 0, -1)     # (n, n, batch)
    h = HESS_FD_STEP
    steps = h * np.eye(n)[:, None, :]                           # steps[p] = h e_p
    fd = np.empty_like(hess)
    # one sum_hessian call at lam and lam +/- h e_p ...
    mid, plus, minus = np.split(
        sum_hessian(np.concatenate([lam[None], lam + steps, lam - steps]), k, a), [1, n + 1])
    diag = np.arange(n)
    fd[diag, diag] = (plus - 2 * mid + minus) / h**2
    # ... and one at lam + (+/-h e_p +/- h e_q), p < q, which also serves (q, p)
    p, q = np.triu_indices(n, 1)
    dp, dq = steps[p], steps[q]
    pp, pm, mp, mm = sum_hessian(lam + np.stack([dp + dq, dp - dq, -dp + dq, -dp - dq]), k, a)
    fd[p, q] = (pp - pm - mp + mm) / (4 * h**2)
    fd[q, p] = (pp - mp - pm + mm) / (4 * h**2)
    worst = float(np.max(_rel(fd - hess, hess)))
    return _result("hessian-fd", worst <= HESS_FD_REL, f"max rel err {worst:.3e}")


def suite_quadratic_bound(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, count, rng)
    k, a = params.k, params.alpha
    gap = sum_hessian(lam, k, a) ** 2 - sum_hessian(lam, k - 1, a) * sum_hessian(lam, k + 1, a)
    floor = -QUADRATIC_SLACK * np.maximum(1.0, sum_hessian(lam, k, a) ** 2)
    worst = float(np.min(gap - floor))
    return _result("consecutive-quadratic-bound", bool(np.all(gap >= floor)),
                   f"min margin {worst:.3e}")


def suite_grad_sum_root(params, count, seed):
    from math import comb

    k = params.k
    batch = sample_cone(Cone.GAMMA, params, count, seed)
    lam = batch.samples
    sig_k = sigma(lam, k)
    grad_sigma = sum_hessian_grad(lam, k, 0.0)
    total = (1.0 / k) * sig_k ** (1.0 / k - 1.0) * grad_sigma.sum(axis=-1)
    bound = comb(params.n, k) ** (1.0 / k) - GRAD_SUM_SLACK
    worst = float(np.min(total - bound))
    return _result("root-gradient-sum", bool(np.all(total >= bound)),
                   f"min margin {worst:.3e}")


# ---------------------------------------------------------------------------
# chain / cone suites

def suite_maclaurin(params, count, seed):
    full = replace(params, k=params.n)
    batch = sample_cone(Cone.GAMMA, full, count, seed)
    chain = maclaurin_chain(batch.samples)
    diffs = chain[:, :-1] - chain[:, 1:]
    slack = -CHAIN_SLACK * np.maximum(1.0, np.abs(chain[:, :-1]))
    ok = bool(np.all(diffs >= slack))
    return _result("maclaurin-chain", ok, f"min step {float(np.min(diffs)):.3e}")


def suite_power_chain(params, count, seed):
    if params.n < 3:
        return SuiteResult("root-chain", "SKIP", "requires n >= 3")
    batch = sample_cone(Cone.GAMMA_TILDE, params, count, seed)
    chain = sum_hessian_chain(batch.samples, params.k, params.alpha)
    if params.k == 1:
        return _result("root-chain", True, "single entry (k=1)")
    diffs = chain[:, :-1] - chain[:, 1:]
    slack = -CHAIN_SLACK * np.maximum(1.0, np.abs(chain[:, :-1]))
    ok = bool(np.all(diffs >= slack))
    return _result("root-chain", ok, f"min step {float(np.min(diffs)):.3e}")


def suite_concavity_quadform(params, count, seed):
    rng = np.random.default_rng(seed)
    batch = sample_cone(Cone.GAMMA_TILDE, params, count, seed)
    lam = batch.samples
    k, a = params.k, params.alpha
    xi = rng.uniform(-1.0, 1.0, size=lam.shape)
    hess = sum_hessian_hess(lam, k, a)
    lhs = np.einsum("bi,bij,bj->b", xi, hess, xi)
    grad_dot = np.sum(sum_hessian_grad(lam, k, a) * xi, axis=-1)
    rhs = (1.0 - 1.0 / k) * grad_dot ** 2 / sum_hessian(lam, k, a) + CONCAVITY_ETA
    worst = float(np.max(lhs - rhs))
    return _result("concavity-quadform", bool(np.all(lhs <= rhs)), f"max excess {worst:.3e}")


def suite_tilde_nesting(params, count, seed):
    batch = sample_cone(Cone.GAMMA_TILDE, params, count, seed)
    ok = True
    for j in range(1, params.k + 1):
        sub = replace(params, k=j)
        ok = ok and bool(np.all(in_gamma_tilde(batch.samples, sub)))
    return _result("tilde-nesting", ok, f"orders 1..{params.k} all contain the batch")


def suite_tilde_convex_cone(params, count, seed):
    """Midpoints and scalings of admissible samples stay admissible.

    With a positive lower-order weight the admissible set is convex and
    closed under downward scaling but not upward scaling (the defining
    function is inhomogeneous: (1, 1, -0.9) with k=2, alpha=1 is inside
    while twice it is not), so t=2 is only checked for alpha = 0.
    """
    rng = np.random.default_rng(seed)
    batch = sample_cone(Cone.GAMMA_TILDE, params, count, seed)
    lam = batch.samples
    pairs = min(500, count)
    i = rng.integers(0, lam.shape[0], size=pairs)
    j = rng.integers(0, lam.shape[0], size=pairs)
    mid_ok = bool(np.all(in_gamma_tilde(0.5 * (lam[i] + lam[j]), params)))
    scale_ok = bool(np.all(in_gamma_tilde(0.5 * lam, params)))
    note = "midpoints and scaling 0.5 stay inside"
    if params.alpha == 0:
        scale_ok = scale_ok and bool(np.all(in_gamma_tilde(2.0 * lam, params)))
        note = "midpoints and scalings 0.5/2 stay inside"
    return _result("tilde-convex-cone", mid_ok and scale_ok, f"{pairs} {note}")


def suite_eta_linear(params, count, seed):
    rng = np.random.default_rng(seed)
    lam = _uniform_lams(params, count, rng)
    e = eta(lam)
    exact = bool(np.all(e == lam.sum(axis=-1, keepdims=True) - lam))
    twice = eta(e)
    expect = (params.n - 2) * lam.sum(axis=-1, keepdims=True) + lam
    rel = float(np.max(_rel(twice - expect, expect)))
    return _result("eta-linear-identity", exact and rel <= 1e-12,
                   f"exact linear form; double-transform rel err {rel:.3e}")


def suite_eta_order(params, count, seed):
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    lam = np.sort(batch.samples, axis=-1)[:, ::-1]
    e = eta(lam)
    ascending = bool(np.all(np.diff(e, axis=-1) >= 0))
    pos_idx = params.n - params.k + 1  # 0-based counterpart of the positivity index
    positive = bool(np.all(e[:, pos_idx] > 0)) if pos_idx < params.n else True
    return _result("eta-ordering", ascending and positive,
                   f"eta ascending; entry {pos_idx} min {float(np.min(e[:, min(pos_idx, params.n - 1)])):.3e}")


def suite_deleted_ordering(params, count, seed):
    batch = sample_cone(Cone.GAMMA_TILDE, params, count, seed)
    lam = np.sort(batch.samples, axis=-1)[:, ::-1]
    grad = sum_hessian_grad(lam, params.k, params.alpha)
    diffs = np.diff(grad, axis=-1)
    slack = -ORDERING_SLACK * np.maximum(1.0, np.abs(grad[:, :-1]))
    ordered = bool(np.all(diffs >= slack))
    positive = bool(np.all(grad[:, 0] > 0))
    lam_pos = bool(np.all(lam[:, params.k - 2] > 0)) if params.k >= 2 else True
    # deleting the k-th largest keeps a uniform share of the full value
    ratio = float(np.min(grad[:, params.k - 1]
                         / sum_hessian(lam, params.k - 1, params.alpha)))
    return _result("deleted-ordering", ordered and positive and lam_pos
                   and ratio > RATIO_FLOOR,
                   f"min first entry {float(np.min(grad[:, 0])):.3e}, "
                   f"empirical share at k {ratio:.3e}")


def suite_eta_deleted_ratio(params, count, seed):
    if not 0 < params.k < params.n:
        return SuiteResult("eta-deleted-ratio", "SKIP", "requires 0 < k < n")
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    lam = np.sort(batch.samples, axis=-1)[:, ::-1]
    e = eta(lam)
    k, a = params.k, params.alpha
    drop = params.n - params.k  # 0-based index of the distinguished coordinate
    num = sum_hessian(np.delete(e, drop, axis=-1), k - 1, a)
    den = sum_hessian(e, k - 1, a)
    ratio = float(np.min(num / den))
    return _result("eta-deleted-ratio", ratio > RATIO_FLOOR,
                   f"empirical theta {ratio:.3e}")


# ---------------------------------------------------------------------------
# spectral / matrix suites

def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _unit(a, norms):
    """Scale each matrix of a stack by its norm (floored at 1e-8)."""
    return a / np.maximum(norms, 1e-8)[..., None, None]


def _cone_matrices(params, count, seed):
    """Symmetric matrices whose spectra are cone samples (random frames)."""
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    lam = batch.samples
    rng = np.random.default_rng(seed + 1)
    q, _ = np.linalg.qr(rng.normal(size=(len(lam), params.n, params.n)))
    return _sym((q * lam[:, None, :]) @ np.swapaxes(q, -1, -2))


def suite_matrix_grad_fd(params, count, seed):
    rng = np.random.default_rng(seed)
    n = params.n
    h = MATRIX_GRAD_FD_STEP
    m = _sym(rng.uniform(-1.0, 1.0, size=(min(count, 25), n, n)))
    # keep values O(1) for the oracle
    m = _unit(m, np.linalg.norm(u_operator(m), axis=(-2, -1)))
    grad = operator_grad(m, params)
    # one symmetric perturbation per upper-triangle entry
    i, j = np.triu_indices(n)
    rows = np.arange(len(i))
    pert = np.zeros((len(i), n, n))
    pert[rows, i, j] = pert[rows, j, i] = h
    values = operator_value(m[:, None, None] + np.stack([pert, -pert]), params)
    fd = (values[:, 0] - values[:, 1]) / (2 * h)
    fd = np.where(i != j, 0.5 * fd, fd)  # symmetric perturbation moves two entries
    worst = float(np.max(_rel(fd - grad[:, i, j], grad[:, i, j])))
    return _result("matrix-gradient-fd", worst <= MATRIX_GRAD_FD_REL,
                   f"max rel err {worst:.3e}")


def suite_matrix_hess_fd(params, count, seed):
    rng = np.random.default_rng(seed)
    n = params.n
    h = MATRIX_HESS_FD_STEP
    mats, dirs = [], []
    for trial in range(min(count, 25)):
        if trial % 3 == 2:
            mats.append(np.eye(n))  # every eigenvalue repeated
        else:
            mats.append(_sym(rng.normal(size=(n, n))))
        dirs.append(_sym(rng.normal(size=(n, n))))
    # unit complement norm keeps the operator value O(1) at every (n, k),
    # which the absolute tolerance of the difference oracle assumes
    m, a = np.array(mats), np.array(dirs)
    m = _unit(m, np.linalg.norm(u_operator(m), axis=(-2, -1)))
    a = _unit(a, np.linalg.norm(a, axis=(-2, -1)))
    quad = operator_hess_quad(m, a, params)
    # fourth-order central second difference: the operator is a degree-k
    # polynomial along a line, so the oracle is exact up to rounding for
    # k <= 5 and truncates at O(h^4) above. A three-point rule's O(h^2)
    # truncation exceeds the absolute tolerance at n = 12, where the
    # quadratic form reaches ~1e3 at unit complement norm.
    values = operator_value(m + h * FD4_STEPS[:, None, None, None] * a, params)
    worst = float(np.max(np.abs(quad - FD4_WEIGHTS @ values / h**2)))
    return _result("matrix-hessian-fd", worst <= MATRIX_HESS_FD_ABS,
                   f"max abs err {worst:.3e}")


def suite_matrix_concavity(params, count, seed):
    rng = np.random.default_rng(seed + 2)
    k = params.k
    m = _cone_matrices(params, count, seed)
    a = _sym(rng.normal(size=m.shape))
    a = _unit(a, np.linalg.norm(a, axis=(-2, -1)))
    value = operator_value(m, params)
    d1 = np.sum(operator_grad(m, params) * a, axis=(-2, -1))
    d2 = operator_hess_quad(m, a, params)
    root_second = (1.0 / k) * value ** (1.0 / k - 1.0) * (
        d2 - (1.0 - 1.0 / k) * d1 * d1 / value)
    worst = float(np.max(root_second))
    return _result("matrix-concavity", worst <= CONCAVITY_MATRIX,
                   f"max root second derivative {worst:.3e}")


def suite_lambda_concavity(params, count, seed):
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    lam = batch.samples
    rng = np.random.default_rng(seed + 3)
    k, a = params.k, params.alpha
    xi = rng.uniform(-1.0, 1.0, size=lam.shape)
    hess = lambda_space_hessian(lam, params)
    grad = grad_coefficients(lam, params)
    value = sum_hessian(eta(lam), k, a)
    lhs = np.einsum("bi,bij,bj->b", xi, hess, xi)
    rhs = (1.0 - 1.0 / k) * np.sum(grad * xi, axis=-1) ** 2 / value + CONCAVITY_MATRIX
    worst = float(np.max(lhs - rhs))
    return _result("eta-concavity-quadform", bool(np.all(lhs <= rhs)),
                   f"max excess {worst:.3e}")


def suite_partials_ordering(params, count, seed):
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    lam = np.sort(batch.samples, axis=-1)[:, ::-1]
    k, a = params.k, params.alpha
    e = eta(lam)
    eta_partials = sum_hessian_grad(e, k, a)           # indexed by the lam ordering
    t = eta_partials.sum(axis=-1, keepdims=True) - eta_partials
    slack_eta = ORDERING_SLACK * np.maximum(1.0, np.abs(eta_partials[:, :-1]))
    slack_t = -ORDERING_SLACK * np.maximum(1.0, np.abs(t[:, :-1]))
    eta_ok = bool(np.all(np.diff(eta_partials, axis=-1) <= slack_eta))
    t_ok = bool(np.all(np.diff(t, axis=-1) >= slack_t))
    value = sum_hessian(e, k, a)
    normalized = (1.0 / k) * value[:, None] ** (1.0 / k - 1.0) * t
    norm_ok = bool(np.all(np.diff(normalized, axis=-1) >= -ORDERING_SLACK
                          * np.maximum(1.0, np.abs(normalized[:, :-1]))))
    return _result("partials-ordering", eta_ok and t_ok and norm_ok,
                   "eta-side non-increasing, lam-side non-decreasing (raw and normalized)")


def suite_min_partial_ratio(params, count, seed):
    if not 0 < params.k < params.n:
        return SuiteResult("min-partial-ratio", "SKIP", "requires 0 < k < n")
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    e = eta(batch.samples)
    eta_partials = sum_hessian_grad(e, params.k, params.alpha)
    t = eta_partials.sum(axis=-1, keepdims=True) - eta_partials
    ratio = float(np.min(t.min(axis=-1) / t.sum(axis=-1)))
    return _result("min-partial-ratio", ratio > RATIO_FLOOR,
                   f"empirical c {ratio:.3e}")


def suite_grad_sum_lower(params, count, seed):
    batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, count, seed)
    e = eta(batch.samples)
    n, k, a = params.n, params.k, params.alpha
    eta_partials = sum_hessian_grad(e, k, a)
    t_sum = (n - 1) * eta_partials.sum(axis=-1)
    # exact decomposition of the gradient sum into sigma_{k-1} and sigma_{k-2}
    closed = (n - 1) * ((n - k + 1) * sigma(e, k - 1) + a * (n - k + 2) * sigma(e, k - 2))
    exact = float(np.max(_rel(t_sum - closed, closed)))
    value = sum_hessian(e, k, a)
    ratio = float(np.min(t_sum / value ** (1.0 - 1.0 / k)))
    return _result("gradient-sum-lower",
                   ratio > RATIO_FLOOR and exact <= IDENTITY_REL,
                   f"empirical c {ratio:.3e}; closed form rel err {exact:.1e}")


def suite_frame_invariance(params, count, seed):
    rng = np.random.default_rng(seed + 4)
    n = params.n
    trials = min(count, 50)
    draws = rng.normal(size=(trials, 2, n, n))  # (matrix, frame) per trial
    m = _sym(draws[:, 0])
    q, _ = np.linalg.qr(draws[:, 1])
    rotated = _sym(np.swapaxes(q, -1, -2) @ m @ q)
    values = operator_value(np.concatenate([m, rotated]), params)
    v1, v2 = values[:trials], values[trials:]
    worst = float(np.max(np.abs(v1 - v2) / np.maximum(1.0, np.abs(v1))))
    return _result("frame-invariance", worst <= FRAME_INVARIANCE_REL,
                   f"max rel err {worst:.3e}")


SUITES = (
    suite_identity_split,
    suite_identity_deleted_sum,
    suite_identity_euler,
    suite_grad_fd,
    suite_hess_fd,
    suite_quadratic_bound,
    suite_grad_sum_root,
    suite_maclaurin,
    suite_power_chain,
    suite_concavity_quadform,
    suite_tilde_nesting,
    suite_tilde_convex_cone,
    suite_eta_linear,
    suite_eta_order,
    suite_deleted_ordering,
    suite_eta_deleted_ratio,
    suite_matrix_grad_fd,
    suite_matrix_hess_fd,
    suite_matrix_concavity,
    suite_lambda_concavity,
    suite_partials_ordering,
    suite_min_partial_ratio,
    suite_grad_sum_lower,
    suite_frame_invariance,
)


def run_suites(params: SumHessianParams, count: int = 1000, seed: int = 0) -> list[SuiteResult]:
    """Run every suite; per-suite seeds derive deterministically from `seed`.
    A count below 1 raises ValueError."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [fn(params, count, seed + 1009 * idx) for idx, fn in enumerate(SUITES)]
