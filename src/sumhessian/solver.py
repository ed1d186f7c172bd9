"""Finite-difference damped-Newton solver for the Dirichlet problem

    S_k(eta(lam(D^2 u))) = f(x, u, Du)  in Omega,   u = g  on the boundary,

on uniform box grids in 2D/3D, with an admissibility-preserving line search.

Unknowns are the interior grid values only: boundary-layer values are
Dirichlet data, so a stencil neighbour on the boundary contributes to the
right-hand side, never to the operator. Every linear system (Newton step
and harmonic extension) is solved by Jacobi-preconditioned BiCGSTAB. Newton
steps are inexact: the relative linear residual asked of each step is the
Eisenstat-Walker "choice 1" forcing term, which loosens the solve far from
the solution and tightens it as the linear model becomes predictive.

The Jacobian's sparsity pattern (CSR ``indptr``/``indices``, and which
stencil neighbours have entries) depends on the domain only. Each
``newton_solve`` makes one pattern, built on first use, and hands it to the
harmonic extension and to every linearization, which then fill ``data``
alone. The pattern lives for one solve: it is not kept on the domain.

The bulk path never eigendecomposes: one loop kernel, valid in any grid
dimension and order k, evaluates sigma_m of eta(lam(H)) and the coefficient
matrices of the linearization from power sums and Newton transformations of
U = trace(H) I - H, vectorized over grid points. (The spectral module serves
n up to 16 and keeps LAPACK eigh: there a trace recurrence read errors of
3e-6 against eigh's 2e-12.) Assembly is data-parallel over interior points;
the Newton loop is sequential and single-threaded runs produce
bitwise-identical traces for identical configurations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import expr
from .errors import (
    ConeViolationError,
    InstanceError,
    LinearSolveError,
    NonConvergenceError,
)
from .grid import GridDomain, ScalarField, _hessian_stencil, gradient_field, hessian_field
from .symfun import SumHessianParams, sum_hessian

FD_STEP = 1e-6          # step for df/du, df/dp central differences
MIN_STEP = 2.0 ** -20   # the line search stalls below this damping step
EXTENSION_RTOL = 1e-10  # relative residual of the harmonic-extension solve
KRYLOV_MAXITER = 4000   # BiCGSTAB iteration cap of every linear solve
# Eisenstat-Walker forcing terms (SIAM J. Sci. Comput. 17, 1996, choice 1)
ETA_MAX = 0.1           # forcing term of the first step of each homotopy stage, and its cap
ETA_FLOOR = 1e-12       # smallest relative linear residual ever asked of BiCGSTAB
ETA_TOL_SHARE = 0.5     # a step need not cut ||F||_2 below this share of tol
EW_EXPONENT = 0.5 * (1.0 + 5.0 ** 0.5)
# eta_{k-1}^EW_EXPONENT above this bounds eta_k from below; it cannot fire
# while ETA_MAX^EW_EXPONENT (0.024 at 0.1) stays under it
EW_SAFEGUARD = 0.1
GUESS_SCALE_START = 2.0 ** -16
GUESS_SCALE_CAP = 2.0 ** 40


@dataclass(frozen=True)
class RhsSpec:
    """Right-hand side f(x, u, Du) as an expression tree."""

    expression: expr.Node
    require_positive: bool = True

    @staticmethod
    def parse(source: str, require_positive: bool = True) -> "RhsSpec":
        return RhsSpec(expr.parse(source), require_positive)


@dataclass(frozen=True)
class SolveConfig:
    tol: float = 1e-10
    max_iter: int = 50
    homotopy: tuple[float, ...] = (1.0,)


@dataclass(frozen=True)
class TraceEntry:
    """One recorded iterate: sup-norm residual, accepted step (0 at the start
    of a homotopy stage) and cone margin, the minimum over interior points of
    sigma_1..sigma_{k-1} and S_k of eta(lam(H))."""

    iteration: int
    residual: float
    step: float
    margin: float

    @property
    def admissible(self) -> bool:
        return self.margin > 0


@dataclass
class SolveResult:
    field: ScalarField
    iterations: int
    residual: float
    admissible: bool
    trace: list[TraceEntry] = field(default_factory=list)

    def converged(self, tol: float) -> bool:
        return self.residual <= tol


def _check_dim(dom: GridDomain, params: SumHessianParams) -> None:
    if params.n != dom.dim:
        raise ValueError(f"params.n={params.n} must equal grid dim {dom.dim}")


# ---------------------------------------------------------------------------
# invariants of the complement matrix (vectorized over interior points)

def _invariants(hb: np.ndarray, m_max: int, transforms: bool = False):
    """(sig, newton) for a stack of symmetric matrices H, (N, d, d), and
    U = trace(H) I - H, whose eigenvalues are eta(lam(H)).

    sig[:, m] is sigma_m(eta(lam(H))), m = 0..m_max, from Newton's identities
    m sigma_m = sum_{i=1..m} (-1)^(i-1) sigma_{m-i} p_i on p_i = tr(U^i).
    With ``transforms``, newton[m] is the Newton transformation
    T_m = sum_{i=0..m} (-1)^i sigma_{m-i} U^i = d sigma_{m+1} / dU for
    m = 0..m_max-1, and newton[-1] is T_{-1} = 0; without, newton is empty.
    """
    n_pts, d, _ = hb.shape
    eye = np.eye(d)
    u = np.einsum("nii->n", hb)[:, None, None] * eye - hb
    powers = [eye, u]                           # U^0..U^(m_max-1), at least U^1
    while len(powers) < m_max:
        powers.append(powers[-1] @ u)

    sig = np.empty((n_pts, m_max + 1))
    sig[:, 0] = 1.0
    sig[:, 1] = np.einsum("nii->n", u)
    p = [None, sig[:, 1]]                       # p[i] = p_i; sigma_1 = p_1
    for m in range(2, m_max + 1):
        p.append(np.einsum("nij,nji->n", powers[m - 1], u))
        acc = sig[:, m - 1] * p[1]
        for i in range(2, m + 1):
            if i % 2:
                acc += sig[:, m - i] * p[i]
            else:
                acc -= sig[:, m - i] * p[i]
        sig[:, m] = acc / m
    if not transforms:
        return sig, []

    newton = []
    for m in range(m_max):
        t = sig[:, m, None, None] * eye
        for i in range(1, m + 1):
            if i % 2:
                t -= sig[:, m - i, None, None] * powers[i]
            else:
                t += sig[:, m - i, None, None] * powers[i]
        newton.append(t)
    newton.append(np.zeros((1, 1, 1)))
    return sig, newton


def _grad_coeff_matrices(newton: list, params: SumHessianParams) -> np.ndarray:
    """Coefficient matrices dF(H) of the linearized operator, (N, d, d), from
    the Newton transformations of ``_invariants(hb, params.k, transforms=True)``.

    dF = (trace G) I - G with G = T_{k-1}(U) + alpha T_{k-2}(U); the
    eigenvalues of dF are the per-eigenvalue derivative coefficients of the
    spectral module.
    """
    g = newton[params.k - 1] + params.alpha * newton[params.k - 2]
    return np.einsum("nii->n", g)[:, None, None] * np.eye(g.shape[-1]) - g


def _cone_margins(sig: np.ndarray, params: SumHessianParams) -> np.ndarray:
    """Per point, the smallest of sigma_1..sigma_{k-1} and S_k of eta(lam(H)),
    from the sigmas of ``_invariants``; positive exactly on the tilde-prime
    cone."""
    s_k = sig[:, params.k] + params.alpha * sig[:, params.k - 1]
    return np.minimum(np.min(sig[:, 1:params.k], axis=1, initial=np.inf), s_k)


def admissible_mask(fld: ScalarField, params: SumHessianParams) -> np.ndarray:
    """Per-interior-point admissibility: eta(lam(H)) has sigma_1..sigma_{k-1}
    positive and S_k positive (the tilde-prime cone test)."""
    _check_dim(fld.domain, params)
    return _cone_margins(_invariants(hessian_field(fld), params.k)[0], params) > 0


def first_violation(dom: GridDomain, mask: np.ndarray):
    """Multi-index of the first interior point where an admissibility mask
    is False, or None."""
    if mask.all():
        return None
    bad = dom.interior_idx[np.flatnonzero(~mask)[0]]
    return tuple(int(v) for v in np.unravel_index(bad, dom.shape))


def ellipticity_margins(fld: ScalarField, params: SumHessianParams):
    """(min eigenvalue, eigenvalue sum) of the coefficient matrix per interior
    point; positive minima witness ellipticity on admissible fields."""
    _check_dim(fld.domain, params)
    _, newton = _invariants(hessian_field(fld), params.k, transforms=True)
    eigs = np.linalg.eigvalsh(_grad_coeff_matrices(newton, params))
    return eigs[:, 0], eigs.sum(axis=1)


# ---------------------------------------------------------------------------
# right-hand side evaluation

def _interior_env(fld: ScalarField) -> dict:
    dom = fld.domain
    pts = dom.points[dom.interior_idx]
    grad = gradient_field(fld)
    env = {"u": fld.flat[dom.interior_idx]}
    for a in range(dom.dim):
        env[f"x{a + 1}"] = pts[:, a]
        env[f"p{a + 1}"] = grad[:, a]
    return env


def _eval_rhs(rhs: RhsSpec, env: dict, n_pts: int, blend=None) -> np.ndarray:
    try:
        vals = expr.evaluate(rhs.expression, env)
    except expr.EvalError as exc:
        raise InstanceError(f"right-hand side failed to evaluate: {exc}") from exc
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (n_pts,)).copy()
    if blend is not None:
        t, const = blend
        vals = (1.0 - t) * const + t * vals
    if rhs.require_positive and np.min(vals) <= 0:
        raise InstanceError(f"right-hand side must stay positive, min {np.min(vals)!r}")
    if not np.all(np.isfinite(vals)):
        raise InstanceError("right-hand side evaluated non-finite")
    return vals


def residual(fld: ScalarField, params: SumHessianParams, rhs: RhsSpec, blend=None) -> np.ndarray:
    """S_k(eta(lam(H))) - f at interior points, zeros on the boundary layer
    (grid-shaped array)."""
    dom = fld.domain
    _check_dim(dom, params)
    sig, _ = _invariants(hessian_field(fld), params.k)
    s_k = sig[:, params.k] + params.alpha * sig[:, params.k - 1]
    f_vals = _eval_rhs(rhs, _interior_env(fld), dom.interior_idx.size, blend)
    out = np.zeros(dom.n_points)
    out[dom.interior_idx] = s_k - f_vals
    return out.reshape(dom.shape)


def _rhs_derivatives(fld: ScalarField, rhs: RhsSpec, blend=None):
    """df/du and df/dp by central differences of the evaluator (step 1e-6).

    A variable the expression does not reference is not probed: its
    derivative is exactly 0, as its central difference would be.
    """
    dom = fld.domain
    n_int = dom.interior_idx.size
    t_factor = 1.0 if blend is None else blend[0]
    names = expr.variables(rhs.expression)
    keys = ["u"] + [f"p{a + 1}" for a in range(dom.dim)]
    env = _interior_env(fld) if names.intersection(keys) else None

    def central(key: str) -> np.ndarray:
        if key not in names:
            return np.zeros(n_int)
        vals = []
        for value in (env[key] + FD_STEP, env[key] - FD_STEP):
            try:
                vals.append(expr.evaluate(rhs.expression, {**env, key: value}))
            except expr.EvalError as exc:
                raise InstanceError(f"right-hand side failed to evaluate: {exc}") from exc
        plus, minus = (np.broadcast_to(np.asarray(v, dtype=float), (n_int,)) for v in vals)
        return (plus - minus) / (2 * FD_STEP)

    f_u = central("u")
    f_p = np.empty((n_int, dom.dim))
    for a in range(dom.dim):
        f_p[:, a] = central(keys[a + 1])
    return t_factor * f_u, t_factor * f_p


def _stencil_offsets(dom: GridDomain) -> list[int]:
    """Flat-index offsets of the Hessian stencil: the centre, +/- each axis,
    then the four diagonal neighbours of each axis pair."""
    s = dom.strides
    offsets = [0]
    for a in range(dom.dim):
        offsets += [s[a], -s[a]]
    for a in range(dom.dim):
        for b in range(a + 1, dom.dim):
            offsets += [s[a] + s[b], -s[a] - s[b], s[a] - s[b], -s[a] + s[b]]
    return offsets


class _JacobianPattern:
    """Sparsity pattern of the operator on the interior unknowns of one
    domain, built on first use, so a solve that never assembles never
    builds it.

    ``arrays`` is (order, present, indptr, indices). ``order`` sorts the
    stencil offsets of ``_stencil_offsets``; interior indices grow with the
    flat index, so taking the offsets in that order yields each row's
    columns sorted. ``present[i, j]`` marks that interior row i has an entry
    at the j-th sorted offset: a neighbour on the boundary layer holds
    Dirichlet data and has none. The marked entries, row by row, are the
    slots of ``data``. ``indptr`` and ``indices`` are int32.
    """

    def __init__(self, dom: GridDomain):
        self.dom = dom

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        dom = self.dom
        idx = dom.interior_idx
        local = np.full(dom.n_points, -1, dtype=np.int32)
        local[idx] = np.arange(idx.size, dtype=np.int32)
        offsets = np.array(_stencil_offsets(dom))
        order = np.argsort(offsets)
        cols = np.empty((idx.size, order.size), dtype=np.int32)
        for j, offset in enumerate(offsets[order]):
            cols[:, j] = local[idx + offset]
        present = cols >= 0
        indptr = np.zeros(idx.size + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
        return order, present, indptr, cols[present]


def _assemble(dom: GridDomain, pattern: _JacobianPattern, coeff: np.ndarray,
              f_u: np.ndarray, f_p: np.ndarray) -> sp.csr_matrix:
    """Sparse operator on the interior unknowns, (n_int, n_int): second-order
    term with per-point coefficient matrices contracted against the Hessian
    stencil, minus first/zeroth-order terms. ``pattern`` is the domain's
    ``_JacobianPattern``; only ``data`` is computed here.
    """
    h2 = dom.h * dom.h
    center = -f_u.copy()
    for a in range(dom.dim):
        center -= 2.0 * coeff[:, a, a] / h2
    weights = [center]          # one per stencil offset, in _stencil_offsets order
    for a in range(dom.dim):
        for sign in (+1, -1):
            weights.append(coeff[:, a, a] / h2 - sign * f_p[:, a] / (2.0 * dom.h))
    for a in range(dom.dim):
        for b in range(a + 1, dom.dim):
            w = coeff[:, a, b] / (2.0 * h2)
            weights += [w, w, -w, -w]

    order, present, indptr, indices = pattern.arrays
    data = np.stack([weights[j] for j in order], axis=1)[present]
    return sp.csr_matrix((data, indices, indptr), shape=(f_u.size, f_u.size))


def linearize(fld: ScalarField, params: SumHessianParams, rhs: RhsSpec, blend=None, *,
              pattern: _JacobianPattern | None = None) -> sp.csr_matrix:
    """Discrete linearized operator at an admissible field, with respect to
    the interior unknowns (rows and columns follow ``interior_idx``).

    ``pattern`` is the domain's ``_JacobianPattern``, made here when
    omitted; the matrix is the same either way.
    Raises ConeViolationError naming the first inadmissible interior point.
    """
    dom = fld.domain
    _check_dim(dom, params)
    sig, newton = _invariants(hessian_field(fld), params.k, transforms=True)
    offender = first_violation(dom, _cone_margins(sig, params) > 0)
    if offender is not None:
        raise ConeViolationError(f"field is not admissible at grid point {offender}")
    coeff = _grad_coeff_matrices(newton, params)
    del sig, newton     # free the (N, d, d) stacks before assembly
    f_u, f_p = _rhs_derivatives(fld, rhs, blend)
    return _assemble(dom, pattern or _JacobianPattern(dom), coeff, f_u, f_p)


def _solve_linear(mat: sp.csr_matrix, rhs_vec: np.ndarray, rtol: float) -> np.ndarray:
    """Solve mat x = rhs_vec by Jacobi-preconditioned BiCGSTAB to relative
    residual rtol; raises LinearSolveError when the achieved residual,
    recomputed from x, exceeds it."""
    rhs_norm = float(np.linalg.norm(rhs_vec))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs_vec)
    diag = mat.diagonal()
    precond = spla.LinearOperator(mat.shape, matvec=lambda x: x / diag, dtype=np.float64)
    # unit-norm right-hand side keeps BiCGSTAB clear of its absolute
    # breakdown thresholds on late Newton steps
    b_unit = rhs_vec / rhs_norm
    iterations = 0

    def count(_xk):
        nonlocal iterations
        iterations += 1

    x, _ = spla.bicgstab(mat, b_unit, rtol=rtol, atol=0.0, maxiter=KRYLOV_MAXITER,
                         M=precond, callback=count)
    achieved = float(np.linalg.norm(mat @ x - b_unit))
    if not achieved <= rtol:
        raise LinearSolveError(rtol, achieved, iterations, mat.shape[0])
    return x * rhs_norm


def _forcing_term(f_norm: float, prev: tuple[float, float, float], tol: float) -> float:
    """Eisenstat-Walker choice 1 for the next Newton step.

    prev holds the previous step's forcing term, ||F_{k-1}|| and the norm of
    the linear model's prediction (1 - lam) F_{k-1} + lam r_lin of F_k. The
    result is clamped to [max(ETA_TOL_SHARE * tol / ||F_k||, ETA_FLOOR),
    ETA_MAX]; the lower end stops the solve from oversolving near tol.
    """
    eta_prev, prev_norm, model_norm = prev
    eta = abs(f_norm - model_norm) / prev_norm
    safeguard = eta_prev ** EW_EXPONENT
    if safeguard > EW_SAFEGUARD:
        eta = max(eta, safeguard)
    return min(ETA_MAX, max(eta, ETA_TOL_SHARE * tol / f_norm, ETA_FLOOR))


# ---------------------------------------------------------------------------
# initial guess

def quadratic_scale(params: SumHessianParams, f_sup: float) -> float:
    """Smallest power of two c with S_k(eta(c I)) >= f_sup."""
    def value(c: float) -> float:
        return float(sum_hessian(np.full(params.n, (params.n - 1) * c), params.k, params.alpha))

    c = GUESS_SCALE_START
    while value(c) < f_sup:
        c *= 2.0
        if c > GUESS_SCALE_CAP:
            raise InstanceError(f"no admissible quadratic scale below 2^40 for f_sup={f_sup}")
    return c


def boundary_values(dom: GridDomain, boundary: expr.Node) -> np.ndarray:
    """Dirichlet data evaluated at every grid point (used on the boundary layer)."""
    names = expr.variables(boundary)
    allowed = {f"x{a + 1}" for a in range(dom.dim)}
    if not names <= allowed:
        raise InstanceError(
            f"boundary data may only reference {sorted(allowed)}, got {sorted(names)}"
        )
    env = {f"x{a + 1}": dom.points[:, a] for a in range(dom.dim)}
    vals = expr.evaluate(boundary, env)
    return np.broadcast_to(np.asarray(vals, dtype=float), (dom.n_points,)).copy()


REPAIR_SWEEPS = 200


def _repair_admissibility(fld: ScalarField, params: SumHessianParams,
                          scale: float) -> ScalarField:
    """Lower interior values at inadmissible points until the field is
    admissible with a uniform margin on the complement eigenvalues.

    Lowering u at a grid point adds an isotropic positive matrix to its
    discrete Hessian, which always pushes the point back into the cone;
    staircase boundaries inject trace-free noise into any smooth extension,
    and this sweep absorbs it locally. Boundary values are never modified.
    Lowering a point changes only the Hessians of its stencil neighbours,
    so after one evaluation of the whole grid each sweep re-evaluates
    those neighbourhoods alone.
    """
    dom = fld.domain
    d = dom.dim
    margin = 0.1 * max(1.0, scale)
    shift = (margin / (d - 1)) * np.eye(d)
    delta = 0.25 * dom.h * dom.h * max(1.0, scale)
    idx = dom.interior_idx
    offsets = np.array(_stencil_offsets(dom))
    trial = ScalarField(dom, fld.values.copy())
    flat = trial.flat   # a view: lowering it lowers trial

    def margin_ok(hb: np.ndarray) -> np.ndarray:
        return _cone_margins(_invariants(hb - shift, params.k)[0], params) > 0

    ok = margin_ok(hessian_field(trial))
    for _ in range(REPAIR_SWEEPS):
        bad = idx[~ok]
        if bad.size == 0:
            return trial
        flat[bad] -= delta
        near = np.unique(bad[:, None] + offsets)
        near = near[dom.interior_flat[near]]
        ok[np.searchsorted(idx, near)] = margin_ok(_hessian_stencil(trial, near))
    if (_cone_margins(_invariants(hessian_field(trial), params.k)[0], params) > 0).all():
        return trial
    raise ConeViolationError(
        f"initial guess could not be repaired to admissibility in {REPAIR_SWEEPS} sweeps"
    )


def _axis_blend(values: np.ndarray, axis: int) -> np.ndarray:
    """Linear blend of the two opposite faces along one axis."""
    n = values.shape[axis] - 1
    weight_shape = [1] * values.ndim
    weight_shape[axis] = n + 1
    w = (np.arange(n + 1) / n).reshape(weight_shape)
    lo = np.take(values, [0], axis=axis)
    hi = np.take(values, [n], axis=axis)
    return (1.0 - w) * lo + w * hi


def transfinite_blend(values: np.ndarray) -> np.ndarray:
    """Boolean-sum (transfinite) interpolation of the box-face values.

    Matches the input on every face of the box; smooth in the interior
    with no corner singularities, and exact on additively separable
    functions.

    The boolean sum of the axis projections P_a is the inclusion-exclusion
    sum over nonempty axis subsets S of (-1)^(|S|+1) prod_{a in S} P_a.
    """
    blend = None
    for size in range(1, values.ndim + 1):
        for axes in itertools.combinations(range(values.ndim), size):
            term = values
            for a in reversed(axes):
                term = _axis_blend(term, a)
            if blend is None:
                blend = term
            else:
                blend = blend + term if size % 2 else blend - term
    return blend


def guess_scale(dom: GridDomain, params: SumHessianParams, rhs: RhsSpec) -> float:
    """quadratic_scale of sup f over the interior, evaluated at u = 0, Du = 0."""
    n_int = dom.interior_idx.size
    env = {"u": np.zeros(n_int)}
    for a in range(dom.dim):
        env[f"x{a + 1}"] = dom.points[dom.interior_idx, a]
        env[f"p{a + 1}"] = np.zeros(n_int)
    return quadratic_scale(params, float(np.max(_eval_rhs(rhs, env, n_int))))


def initial_guess(dom: GridDomain, params: SumHessianParams, rhs: RhsSpec,
                  boundary: expr.Node, scale: float | None = None, *,
                  pattern: _JacobianPattern | None = None) -> ScalarField:
    """Starting field c (|x - x_c|^2 - r^2)/2 plus an interpolation of the
    boundary mismatch.

    The scale c is the smallest power of two making the constant-Hessian
    value dominate sup f (evaluated at u = 0, Du = 0); ``scale`` passes a c
    already computed by ``guess_scale``. On plain boxes the mismatch is
    interpolated by the transfinite face blend (no corner singularities;
    exact on the quadratic, so the guess coincides with the blended
    boundary data). On masked domains the mismatch lives on the staircase
    ring and is small, and the discrete harmonic extension is used instead,
    which keeps the trace of the Hessian exact. Boundary values equal the
    Dirichlet data exactly in both cases. ``pattern`` is the domain's
    ``_JacobianPattern`` for the extension's Laplacian, made here when
    omitted.
    """
    _check_dim(dom, params)
    c = guess_scale(dom, params, rhs) if scale is None else scale
    pts = dom.points
    center = dom.center
    radius = dom.inscribed_radius
    quad = 0.5 * (np.sum((pts - center) ** 2, axis=1) - radius * radius)

    bvals = boundary_values(dom, boundary)
    bdry = ~dom.interior_flat
    extent = max(1.0, c, float(np.max(np.abs(bvals))))

    def with_extension(use_blend: bool) -> ScalarField:
        flat = c * quad
        mismatch = np.zeros(dom.n_points)
        mismatch[bdry] = bvals[bdry] - flat[bdry]
        if np.max(np.abs(mismatch)) > 1e-14 * extent:
            if use_blend:
                flat = flat + transfinite_blend((bvals - flat).reshape(dom.shape)).ravel()
            else:
                # harmonic extension x of the mismatch m: x = m on the
                # boundary layer and Lap_h x = 0 inside, i.e.
                # A_II x_I = -(Lap_h m)_I with A_II the interior Laplacian
                n_int, d = dom.interior_idx.size, dom.dim
                lap = _assemble(dom, pattern or _JacobianPattern(dom),
                                np.broadcast_to(np.eye(d), (n_int, d, d)),
                                np.zeros(n_int), np.zeros((n_int, d)))
                lap_m = np.einsum("nii->n", hessian_field(
                    ScalarField(dom, mismatch.reshape(dom.shape))))
                flat[dom.interior_idx] += _solve_linear(lap, -lap_m, EXTENSION_RTOL)
        flat[bdry] = bvals[bdry]
        return ScalarField(dom, flat.reshape(dom.shape))

    if dom.mask is None:
        fld = with_extension(use_blend=True)
        if (_cone_margins(_invariants(hessian_field(fld), params.k)[0], params) > 0).all():
            return fld
        fld = with_extension(use_blend=False)
    else:
        fld = with_extension(use_blend=False)
    return _repair_admissibility(fld, params, c)


# ---------------------------------------------------------------------------
# damped Newton

def newton_solve(dom: GridDomain, params: SumHessianParams, rhs: RhsSpec,
                 boundary: expr.Node, config: SolveConfig | None = None) -> SolveResult:
    """Inexact damped Newton with admissibility-preserving backtracking.

    Each step solves the linearized system on the interior unknowns to the
    relative residual of its Eisenstat-Walker forcing term (reset to ETA_MAX
    at each homotopy stage), then halves the step until the trial iterate
    is admissible at every interior point and strictly decreases the
    sup-norm residual (or lands below the tolerance). Stops at residual <=
    tol or after max_iter accepted steps; raises NonConvergenceError when
    the line search stalls below the minimum step.
    """
    config = config or SolveConfig()
    _check_dim(dom, params)
    if not config.homotopy or config.homotopy[-1] != 1.0:
        raise ValueError(f"homotopy schedule must end at 1.0, got {config.homotopy}")
    c0 = guess_scale(dom, params, rhs)
    pattern = _JacobianPattern(dom)
    fld = initial_guess(dom, params, rhs, boundary, scale=c0, pattern=pattern)
    idx = dom.interior_idx

    # homotopy target at t=0: the operator value of the guess-scale quadratic
    blend_const = float(sum_hessian(np.full(params.n, (params.n - 1) * c0), params.k, params.alpha))

    trace: list[TraceEntry] = []
    iterations = 0

    offender = first_violation(dom, admissible_mask(fld, params))
    if offender is not None:
        raise ConeViolationError(f"initial guess is not admissible at grid point {offender}")

    for t in config.homotopy:
        blend = None if t == 1.0 else (t, blend_const)
        res = residual(fld, params, rhs, blend)
        res_norm = float(np.max(np.abs(res)))
        margin = float(np.min(_cone_margins(_invariants(hessian_field(fld), params.k)[0], params)))
        trace.append(TraceEntry(iterations, res_norm, 0.0, margin))
        forcing = None      # (eta, ||F||_2, ||model of the next F||_2) of the last step

        while res_norm > config.tol and iterations < config.max_iter:
            f_int = res.ravel()[idx]
            f_norm = float(np.linalg.norm(f_int))
            eta = ETA_MAX if forcing is None else _forcing_term(f_norm, forcing, config.tol)
            mat = linearize(fld, params, rhs, blend, pattern=pattern)
            delta_int = _solve_linear(mat, -f_int, eta)
            delta = np.zeros(dom.n_points)
            delta[idx] = delta_int
            step = 1.0
            accepted = None
            while step >= MIN_STEP:
                trial = ScalarField(dom, fld.values + step * delta.reshape(dom.shape))
                if admissible_mask(trial, params).all():
                    try:
                        res_try = residual(trial, params, rhs, blend)
                    except InstanceError:
                        res_try = None
                    if res_try is not None:
                        norm_try = float(np.max(np.abs(res_try)))
                        if norm_try < res_norm or norm_try <= config.tol:
                            accepted = (trial, res_try, norm_try)
                            break
                step *= 0.5
            if accepted is None:
                raise NonConvergenceError(
                    f"line search stalled below step {MIN_STEP:g} at residual {res_norm:.3e}",
                    trace=trace,
                )
            # (1 - step) F + step r_lin = F + step J delta
            model_norm = float(np.linalg.norm(f_int + step * (mat @ delta_int)))
            forcing = (eta, f_norm, model_norm)
            fld, res, res_norm = accepted
            iterations += 1
            margin = float(np.min(_cone_margins(_invariants(hessian_field(fld), params.k)[0],
                                                params)))
            trace.append(TraceEntry(iterations, res_norm, step, margin))

    # the last stage is t = 1, so res_norm is the residual of the target problem
    return SolveResult(
        field=fld,
        iterations=iterations,
        residual=res_norm,
        admissible=bool(admissible_mask(fld, params).all()),
        trace=trace,
    )
