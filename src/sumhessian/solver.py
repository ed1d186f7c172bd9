"""Finite-difference damped-Newton solver for the Dirichlet problem

    S_k(eta(lam(D^2 u))) = f(x, u, Du)  in Omega,   u = g  on the boundary,

on uniform box grids in 2D/3D, with an admissibility-preserving line search.

Unknowns are the interior grid values only: boundary-layer values are
Dirichlet data, so a stencil neighbour on the boundary contributes to the
right-hand side, never to the operator. Every linear system (Newton step
and harmonic extension) is solved by BiCGSTAB preconditioned with one
geometric multigrid V-cycle (Briggs, Henson & McCormick, "A Multigrid
Tutorial", 2000). Newton steps are inexact: the relative linear residual
asked of each step is the Eisenstat-Walker "choice 1" forcing term, which
loosens the solve far from the solution and tightens it as the linear model
becomes predictive. The derivatives df/du and df/dp are exact (``expr.diff``).

A sparsity pattern depends on the domain and its steps, rows of the stencil
table ``grid.stencil_steps``, only. Its rows have a fixed width, slot j the
neighbour one step j away: a neighbour on the boundary layer keeps its
slot, which points at the row's own column and holds an exact +0.0, so the
pattern is the int32 column of each slot and the short list of those absent
slots. Each ``newton_solve`` makes one Jacobian pattern on the whole table,
built on first use, and hands it to every linearization, which then writes
each step's weights into its column of ``data``. The harmonic extension of
the ball's guess assembles its Laplacian on a pattern of its own, the
table's centre and axis steps, so no row stores the mixed slots' zeros;
that pattern is freed with the extension. Neither pattern is kept on the
domain. The V-cycle's grid hierarchy (``_CoarseGrids``) depends on the
domain only, so a solve builds it once, on the first linear solve, and both
patterns' levels use it: the cells halve while every axis stays even and at
least ``MIN_CELLS``, and each coarse grid keeps its n-linear prolongation
P, the Kronecker product of one 1-D linear interpolation per axis
(restriction is P^T / 2^d), built block by block from the interior index
sets, each block's rows with ``scipy.sparse.kron``. A coarse operator
takes the fine row of its injected point 2j, whole (slot j is the same
step on every level), scaled by (h / 2h)^2 and zeroed at its own absent
slots, so no Galerkin product is formed. The V-cycle forms its residuals
and corrections in place and never writes its input. Across its linear
solve a Newton step holds the iterate, its interior residual, the
Jacobian and the pattern alone: the grid residual goes once its interior
is read, and the last step's Jacobian and step go once that step is
accepted. A failed solve's error keeps none of it: ``newton_solve`` and
``initial_guess`` clear its traceback's frames, so it carries its trace alone.

The bulk path never eigendecomposes: one loop kernel, valid in any grid
dimension and order k, evaluates sigma_m of eta(lam(H)) from the power sums
of U = trace(H) I - H, and the coefficient matrices of the linearization in
closed form from the sigmas and the powers of U, vectorized over grid
points. (The spectral module serves n up to 16 and keeps LAPACK eigh: there
a trace recurrence read errors of 3e-6 against eigh's 2e-12.) Every matrix
of that path (H, U, the powers of U and the coefficients) is packed as in
``grid``: one contiguous (N,) row per symmetric entry, so a matrix product
is a few sums of products of rows and a trace is a sum of the diagonal
rows; nothing here unpacks.

Every per-point stage works in fixed-size blocks of interior points, so no
stage holds a whole-grid Hessian or kernel temporary. The kernel
(admissibility, residual, the guess's repair, the extension's Laplacian
of the boundary mismatch) reads the stencil of one ``grid.interior_blocks``
block at a time through ``hessian_field`` and runs on it (``_blockwise``);
linearization is one such pass (``_assemble``), in which each block's
coefficient matrices and f's derivatives go straight into its fixed-width
rows. f and its derivatives are evaluated on one block's env at a time
(``_interior_env``), an env holding only the coordinates, u and gradient
the tree reads; a constant f is one value, never an (n_interior,)
array. g is evaluated on pieces of the boundary layer only
(``boundary_values``), and the box guess, the transfinite blend of g built
axis by axis, is formed on one block of whole axis-0 planes
(``GridDomain.plane``) at a time, written into g's array, so no stage
holds whole-grid f, g, blend or coefficient arrays.
A point's arithmetic does not depend on its block, so the results are
bitwise those of one whole-grid pass. ``_evaluate_field`` is the one
kernel of a field's admissibility and S_k: one ``_blockwise`` pass that
keeps the mask, the smallest cone margin and S_k, which
``admissible_mask``, ``residual``, ``linearize`` and the trace read
(``_evaluated``). A Newton iterate (``_Iterate``: the guess or a
line-search trial) is read-only and keeps its evaluation; any other field
is evaluated afresh on each call. The Newton loop is sequential and
single-threaded runs produce bitwise-identical traces for identical
configurations.

scipy's sparse stack is imported inside the functions that build a sparse
matrix or run a Krylov solve, not at module level: importing the package,
the algebra suites and ``estimate <field>`` never load it, and the first
linear solve of a process pays the import once.
"""
from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from typing import TYPE_CHECKING

import numpy as np

from . import expr
from .errors import (
    ConeViolationError,
    InstanceError,
    LinearSolveError,
    NonConvergenceError,
)
from .grid import (
    MIN_CELLS,
    GridDomain,
    ScalarField,
    _hessian_stencil,
    boundary_pieces,
    gradient_field,
    hessian_field,
    interior_blocks,
    point_blocks,
    squared_distance,
    stencil_steps,
    sym_pairs,
)
from .symfun import SumHessianParams, sum_hessian

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

MIN_STEP = 2.0 ** -20   # the line search stalls below this damping step
EXTENSION_RTOL = 1e-10  # relative residual of the harmonic-extension solve
KRYLOV_MAXITER = 4000   # BiCGSTAB iteration cap of every linear solve
# the multigrid V-cycle that preconditions every BiCGSTAB solve
MG_OMEGA = 0.8          # damping of every Jacobi sweep
MG_SMOOTH_SWEEPS = 1    # Jacobi sweeps before and after each coarse correction
MG_COARSEST_SWEEPS = 10  # Jacobi sweeps on the coarsest level, which has no LU
# Eisenstat-Walker forcing terms (SIAM J. Sci. Comput. 17, 1996, choice 1)
ETA_MAX = 0.1           # forcing term of the first Newton step, and its cap
ETA_FLOOR = 1e-12       # smallest relative linear residual ever asked of BiCGSTAB
ETA_TOL_SHARE = 0.5     # a step need not cut ||F||_2 below this share of tol
GUESS_SCALE_START = 2.0 ** -16
GUESS_SCALE_CAP = 2.0 ** 40


@dataclass(frozen=True)
class RhsSpec:
    """Right-hand side f(x, u, Du) as an expression tree."""

    expression: expr.Node

    @staticmethod
    def parse(source: str) -> "RhsSpec":
        return RhsSpec(expr.parse(source))


@dataclass(frozen=True)
class SolveConfig:
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class TraceEntry:
    """One recorded iterate: sup-norm residual, accepted step (0 for the
    initial guess) and cone margin, the minimum over interior points of
    sigma_1..sigma_{k-1} and S_k of eta(lam(H)).

    ``krylov`` and ``linear_residual`` are the BiCGSTAB iterations and the
    relative linear residual of the solve that produced the iterate: the
    Newton step, or for the guess the harmonic extension (0 and 0.0 when
    the guess needs none)."""

    iteration: int
    residual: float
    step: float
    margin: float
    krylov: int
    linear_residual: float

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


def _clears_frames(fn):
    """Clear the frames of an ``Exception`` that fn raises and of its chain of
    causes and contexts (to a repeat or the caller's handled error), so a kept
    error holds only its attributes; an interrupt keeps its frames."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        handled = sys.exc_info()[1]
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            seen, err = [], exc
            while err is not None and err is not handled and err not in seen:
                traceback.clear_frames(err.__traceback__)
                seen.append(err)
                err = err.__cause__ or err.__context__
            raise
    return wrapper


# ---------------------------------------------------------------------------
# invariants of the complement matrix (vectorized over interior points, on
# packed symmetric matrices: one contiguous (N,) row per entry, in
# grid.sym_pairs order)

def _packed_eye(dim: int) -> np.ndarray:
    """The identity as a packed column, (d(d+1)/2, 1)."""
    return np.array([float(a == b) for a, b in sym_pairs(dim)])[:, None]


def _trace(packed: np.ndarray, dim: int) -> np.ndarray:
    """Trace of each packed matrix: its diagonal rows summed in order."""
    return packed[:dim].sum(axis=0)


def _product(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Packed A B of two commuting packed symmetric stacks, whose product is
    therefore symmetric: entry (i, j) is sum_c A[i, c] B[c, j]."""
    pairs = sym_pairs(dim)
    row = {}
    for r, (i, j) in enumerate(pairs):
        row[i, j] = row[j, i] = r
    return np.stack([sum(a[row[i, c]] * b[row[c, j]] for c in range(dim)) for i, j in pairs])


def _trace_product(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """tr(A B) of packed symmetric stacks: the products of the diagonal rows
    plus twice those of the off-diagonal rows."""
    return np.einsum("r,rn,rn->n", 2.0 - _packed_eye(dim)[:, 0], a, b)


def _invariants(hp: np.ndarray, m_max: int):
    """(sig, powers) for packed symmetric matrices H, (d(d+1)/2, N), and
    U = trace(H) I - H, whose eigenvalues are eta(lam(H)).

    sig[m] is sigma_m(eta(lam(H))), (N,), m = 0..m_max, from Newton's
    identities m sigma_m = sum_{i=1..m} (-1)^(i-1) sigma_{m-i} p_i on
    p_i = tr(U^(i-1) U). powers[i] is the packed U^i, i = 0..max(m_max-1, 1),
    with U^0 the packed identity column.
    """
    dim = math.isqrt(2 * hp.shape[0])
    u = np.negative(hp)
    u[:dim] += _trace(hp, dim)
    powers = [_packed_eye(dim), u]              # U^0..U^(m_max-1), at least U^1
    while len(powers) < m_max:
        powers.append(_product(powers[-1], u, dim))

    sig = np.empty((m_max + 1, hp.shape[1]))
    sig[0] = 1.0
    sig[1] = _trace(u, dim)
    p = [None, sig[1]]                          # p[i] = p_i; sigma_1 = p_1
    for m in range(2, m_max + 1):
        p.append(_trace_product(powers[m - 1], u, dim))
        acc = sig[m - 1] * p[1]
        for i in range(2, m + 1):
            if i % 2:
                acc += sig[m - i] * p[i]
            else:
                acc -= sig[m - i] * p[i]
        sig[m] = acc / m
    return sig, powers


def _grad_coeff_matrices(sig: np.ndarray, powers: list, params: SumHessianParams) -> np.ndarray:
    """Packed coefficient matrices dF(H) = d S_k / d H of the linearized
    operator, (d(d+1)/2, N), from ``_invariants(hp, params.k)``.

    With c_i = sigma_{k-1-i} + alpha sigma_{k-2-i} (sigma_{-1} = 0) and
    R = sum_{i=1..k-1} (-1)^i c_i U^i, dF = ((d - 1) c_0 + tr R) I - R: the
    trace complement of d S_k / d U = c_0 I + R. The eigenvalues of dF are
    the per-eigenvalue derivative coefficients of the spectral module.
    """
    k, d, alpha = params.k, params.n, params.alpha

    def c(i: int) -> np.ndarray:
        return sig[0] if i == k - 1 else sig[k - 1 - i] + alpha * sig[k - 2 - i]

    # accumulates -R, from -0.0 so that a zero entry keeps the sign it
    # has in -(c_0 I + R)
    coeff = np.full_like(powers[1], -0.0)
    for i in range(1, k):
        if i % 2:
            coeff += c(i) * powers[i]
        else:
            coeff -= c(i) * powers[i]
    coeff[:d] += (d - 1) * c(0) - _trace(coeff, d)
    return coeff


def _s_k(sig: np.ndarray, params: SumHessianParams) -> np.ndarray:
    """S_k of eta(lam(H)) per point, from the sigmas of ``_invariants``."""
    return sig[params.k] + params.alpha * sig[params.k - 1]


def _cone_margins(sig: np.ndarray, params: SumHessianParams) -> np.ndarray:
    """Per point, the smallest of sigma_1..sigma_{k-1} and S_k of eta(lam(H)),
    from the sigmas of ``_invariants``; positive exactly on the tilde-prime
    cone."""
    return np.minimum(np.min(sig[1:params.k], axis=0, initial=np.inf), _s_k(sig, params))


def _blockwise(kernel, fld: ScalarField) -> tuple[np.ndarray, ...]:
    """The per-point arrays that ``kernel`` returns for packed Hessians,
    (d(d+1)/2, n), evaluated on the field's ``grid.interior_blocks``: a
    tuple of arrays (..., n_interior), each filled block by block into one
    preallocated result. Each block's stencil is read by its own
    ``hessian_field`` call. A point's arithmetic does not depend on its
    block, so the results are those of one call on the whole interior,
    bitwise; only the stencil and the kernel's temporaries shrink to the
    size of a block."""
    n = fld.domain.interior_idx.size
    outs = None
    for block in interior_blocks(fld.domain):
        parts = kernel(hessian_field(fld, block))
        if outs is None:
            outs = tuple(np.empty(part.shape[:-1] + (n,), part.dtype) for part in parts)
        for out, part in zip(outs, parts):
            out[..., block] = part
    return outs


@dataclass
class _Evaluation:
    """What the admissibility test, the residual, the linearization and the
    trace read of one field: the mask ``margins > 0`` (read-only), the
    smallest margin, and S_k per interior point until ``residual`` takes it
    (then None)."""

    mask: np.ndarray
    min_margin: float
    s_k: np.ndarray | None


def _evaluate_field(fld: ScalarField, params: SumHessianParams) -> _Evaluation:
    """The ``_Evaluation`` of a field: one ``_blockwise`` pass of the sigma
    kernel, the only code that computes a field's cone margins and S_k (the
    repair's shifted cone aside). The float margins live one block at a
    time: each block yields its mask and its smallest margin, whose
    minimum, NaN included, is that of the whole grid's."""
    lowest = np.inf

    def kernel(hp: np.ndarray):
        nonlocal lowest
        sig, _ = _invariants(hp, params.k)
        margins = _cone_margins(sig, params)
        lowest = np.minimum(lowest, np.min(margins))
        return margins > 0, _s_k(sig, params)

    mask, s_k = _blockwise(kernel, fld)
    mask.flags.writeable = False
    return _Evaluation(mask, float(lowest), s_k)


class _Iterate(ScalarField):
    """A Newton iterate: the guess or a line-search trial. Its values are
    read-only, so one evaluation for ``params`` (``_evaluated``) serves
    every call on it: ``admissible_mask``, ``residual``, ``linearize``, the
    trace margin and the result's admissibility. The evaluation is made on
    first request, or handed over by the code that built the values and
    evaluated them."""

    def __init__(self, domain: GridDomain, values: np.ndarray, params: SumHessianParams,
                 evaluation: _Evaluation | None = None):
        super().__init__(domain, values)
        self.values.flags.writeable = False
        self.params = params
        self.evaluation = evaluation


def _evaluated(fld: ScalarField, params: SumHessianParams) -> _Evaluation:
    """The evaluation of a field for ``params``: a Newton iterate's own for
    its own params, made on first request; a fresh one for any other field
    or params."""
    if not isinstance(fld, _Iterate) or fld.params != params:
        return _evaluate_field(fld, params)
    if fld.evaluation is None:
        fld.evaluation = _evaluate_field(fld, params)
    return fld.evaluation


def admissible_mask(fld: ScalarField, params: SumHessianParams) -> np.ndarray:
    """Per-interior-point admissibility, read-only: eta(lam(H)) has
    sigma_1..sigma_{k-1} positive and S_k positive (the tilde-prime cone
    test)."""
    _check_dim(fld.domain, params)
    return _evaluated(fld, params).mask


def _first_violation(dom: GridDomain, mask: np.ndarray):
    """Multi-index of the first interior point where an admissibility mask
    is False, or None."""
    if mask.all():
        return None
    bad = dom.interior_idx[np.flatnonzero(~mask)[0]]
    return tuple(int(v) for v in np.unravel_index(bad, dom.shape))


# ---------------------------------------------------------------------------
# right-hand side evaluation

def _coordinate_env(dom: GridDomain, names: set, idx: np.ndarray) -> dict:
    """x1..x_dim, those among ``names`` only, at the flat indices idx."""
    return {f"x{a + 1}": dom.coordinate(a, idx) for a in range(dom.dim) if f"x{a + 1}" in names}


def _interior_env(fld: ScalarField, names: set, block: slice) -> dict:
    """The env at the interior positions of one ``grid.interior_blocks``
    block of a tree reading ``names``: u, the gradient's p1..p_dim and the
    coordinates x1..x_dim, only those read."""
    dom = fld.domain
    idx = dom.interior_idx[block]
    env = _coordinate_env(dom, names, idx)
    if "u" in names:
        env["u"] = fld.flat[idx]
    gradient = [f"p{a + 1}" for a in range(dom.dim)]
    if not names.isdisjoint(gradient):
        env.update(zip(gradient, gradient_field(fld, block).T))
    return env


def _evaluate(node: expr.Node, env: dict, label: str):
    """The tree on ``env``, an array or a scalar; EvalError -> InstanceError,
    whose message names the tree by ``label``."""
    try:
        return expr.evaluate(node, env)
    except expr.EvalError as exc:
        raise InstanceError(f"{label} failed to evaluate: {exc}") from exc


def _eval_rhs(rhs: RhsSpec, fld: ScalarField, names: set) -> np.ndarray | np.float64:
    """f on the interior of the field, on envs holding ``names``, one
    ``grid.interior_blocks`` block at a time: (n_interior,), or one value,
    evaluated on the first block's env, for a constant f (a tree reading no
    variable). InstanceError unless it is positive at every point."""
    blocks = interior_blocks(fld.domain)
    if not expr.variables(rhs.expression):
        vals = np.float64(_evaluate(rhs.expression, _interior_env(fld, names, next(blocks)),
                                    "right-hand side"))
    else:
        vals = np.empty(fld.domain.interior_idx.size)
        for block in blocks:
            vals[block] = _evaluate(rhs.expression, _interior_env(fld, names, block),
                                    "right-hand side")
    if np.min(vals) <= 0:
        raise InstanceError(f"right-hand side must stay positive, min {float(np.min(vals))}")
    return vals


def _state_keys(dim: int) -> list[str]:
    """The env names of the state f may read: u, then p1..p_dim."""
    return ["u"] + [f"p{a + 1}" for a in range(dim)]


def _state_free(rhs: RhsSpec, dim: int) -> bool:
    """Whether f reads neither u nor any p_a: an f(x), the same on every field."""
    return expr.variables(rhs.expression).isdisjoint(_state_keys(dim))


def residual(fld: ScalarField, params: SumHessianParams, rhs: RhsSpec, *,
             f_values: np.ndarray | np.float64 | None = None) -> np.ndarray:
    """S_k(eta(lam(H))) - f at interior points, zeros on the boundary layer
    (grid-shaped array).

    ``f_values``, when given, is f on the interior as ``_eval_rhs``
    returns it (one value for a constant f), for a ``_state_free`` f, whose
    values do not depend on the field; the result is the same as when f is
    evaluated here. S_k is taken from the field's evaluation
    (``_evaluated``); a Newton iterate whose S_k an earlier residual took
    is evaluated afresh.
    """
    dom = fld.domain
    _check_dim(dom, params)
    evaluation = _evaluated(fld, params)
    if evaluation.s_k is None:
        evaluation = _evaluate_field(fld, params)
    values, evaluation.s_k = evaluation.s_k, None
    if f_values is None:
        f_values = _eval_rhs(rhs, fld, expr.variables(rhs.expression))
    values -= f_values
    out = np.zeros(dom.n_points)
    out[dom.interior_idx] = values
    return out.reshape(dom.shape)


def _local_index(n_points: int, idx: np.ndarray) -> np.ndarray:
    """Unknown number of each flat grid index: its position in idx, or -1."""
    local = np.full(n_points, -1, dtype=np.int32)
    local[idx] = np.arange(idx.size, dtype=np.int32)
    return local


def _pattern_arrays(shape: tuple[int, ...], idx: np.ndarray, directions: np.ndarray):
    """``_JacobianPattern.arrays`` of the operator on the stencil steps
    ``directions`` at the interior flat indices idx (sorted, none on the
    outer layer) of a grid of this shape."""
    local = _local_index(int(np.prod(shape)), idx)
    strides = [int(np.prod(shape[a + 1:], dtype=int)) for a in range(len(shape))]
    indices = np.empty((idx.size, len(directions)), dtype=np.int32)
    absent = []
    for j, offset in enumerate(directions @ strides):
        column = local[idx + offset]
        missing = np.flatnonzero(column < 0)    # rows whose neighbour is data
        column[missing] = missing               # the row's own column
        indices[:, j] = column
        absent.append(missing * len(directions) + j)
    absent = np.concatenate(absent)
    for array in (indices, absent):
        array.flags.writeable = False
    return indices, absent


def _prolongation(fine_shape: tuple[int, ...], fine_idx: np.ndarray,
                  coarse_shape: tuple[int, ...], coarse_idx: np.ndarray) -> sp.csr_matrix:
    """n-linear interpolation from the coarse interior unknowns to the fine
    ones, (fine_idx.size, coarse_idx.size) CSR; values at coarse boundary
    points are zero. Along each axis, fine point m reads coarse points m // 2
    and (m + 1) // 2 with weight 1/2 each (one point, weight 1, for even m),
    and a row's weights are the products of one per axis: the Kronecker
    product of the 1-D interpolations, restricted to rows ``fine_idx`` and
    columns ``coarse_idx``.

    It is built one ``point_blocks`` block of rows at a time, with no
    whole-grid matrix: ``scipy.sparse.kron`` of axis 0's rows for the
    planes the block spans with the product of the other axes, whose rows
    the block selects; the blocks' CSR matrices are stacked. A row's
    columns come in increasing order, that of the parents' multi-indices,
    and the weights (powers of 1/2) are exact, so the matrix is the whole
    product's, bit for bit."""
    import scipy.sparse as sp

    def interpolation(n_fine: int, n_coarse: int) -> sp.csr_matrix:
        # n_fine = 2 n_coarse - 1: even rows hold one entry, odd rows two,
        # so entry k of the row-major listing is column (k + 1) // 3, and
        # an even row's own entry where k % 3 == 0
        k = np.arange(3 * (n_coarse - 1) + 1)
        return sp.csr_matrix((np.where(k % 3 == 0, 1.0, 0.5), (k + 1) // 3,
                              3 * np.arange(n_fine + 1) // 2), shape=(n_fine, n_coarse))

    axis0, *rest = map(interpolation, fine_shape, coarse_shape)
    others = reduce(lambda a, b: sp.kron(a, b, format="csr"), rest)
    plane = others.shape[0]
    local = _local_index(int(np.prod(coarse_shape)), coarse_idx)
    blocks = []
    for block in point_blocks(fine_idx.size):
        rows = fine_idx[block]
        low = rows[0] // plane
        part = sp.kron(axis0[low:rows[-1] // plane + 1], others, format="csr")[rows - low * plane]
        # drop the coarse boundary columns, keeping each row's order
        cols = local[part.indices]
        keep = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(keep)))[part.indptr]
        blocks.append(sp.csr_matrix((part.data[keep], cols[keep], indptr),
                                    shape=(rows.size, coarse_idx.size)))
    return sp.vstack(blocks, format="csr")


class _CoarseGrids:
    """The V-cycle's grid hierarchy of one domain, built on first use. It
    depends on the domain only, so the patterns of one solve share it.

    ``levels`` holds one (P, shape, idx, rows) per coarse grid, finest
    first. The cells halve while every axis stays even and at least
    ``MIN_CELLS``; a coarse point j is interior when the finer point 2j is.
    ``idx`` is the grid's interior flat indices, ``rows`` the finer grid's
    interior row of each injected point 2j, and P interpolates from the
    grid's interior unknowns to the finer grid's (``_prolongation``, built
    block by block with ``scipy.sparse.kron``).
    """

    def __init__(self, dom: GridDomain):
        self.dom = dom

    @cached_property
    def levels(self) -> list[tuple[sp.csr_matrix, tuple[int, ...], np.ndarray, np.ndarray]]:
        dom = self.dom
        shape, idx = dom.shape, dom.interior_idx
        inside = dom.interior_flat.reshape(shape)
        cells = np.array(dom.cells)
        levels = []
        while np.all(cells % 2 == 0) and np.all(cells // 2 >= MIN_CELLS):
            cells //= 2
            inside = inside[(slice(None, None, 2),) * dom.dim]
            coarse_idx = np.flatnonzero(inside)
            injected = np.ravel_multi_index(
                tuple(2 * m for m in np.unravel_index(coarse_idx, inside.shape)), shape)
            levels.append((_prolongation(shape, idx, inside.shape, coarse_idx), inside.shape,
                           coarse_idx, np.searchsorted(idx, injected)))
            shape, idx = inside.shape, coarse_idx
        return levels


class _JacobianPattern:
    """Sparsity pattern of a stencil operator on the interior unknowns of one
    domain, and its levels of the V-cycle, each built on first use, so a
    solve that never assembles builds neither. The stencil's steps are
    ``directions``, rows of ``grid.stencil_steps`` in its order: all of
    them for the Jacobian (when None), the centre and the +/- axis steps
    for the Laplacian. ``grids`` is the domain's ``_CoarseGrids``, made here
    when omitted; patterns of one domain may share them.

    Rows have a fixed width: slot j of every row, on every level, is the
    neighbour one step directions[j] away, and the centre is the middle
    slot. ``arrays`` is (indices, absent). ``indices`` (int32,
    n_int x width) is the column of each slot. A neighbour on the boundary
    layer holds Dirichlet data and has no unknown: its slot points at the
    row's own column and holds an exact +0.0, which adds nothing to a
    product (a CSR row sum starts from +0.0). ``absent`` lists those slots
    as flat positions in (n_int x width), only rows next to the boundary.
    Every matrix assembled on the pattern shares ``indices``, so it and
    ``absent`` are read-only: an in-place CSR operation
    (``eliminate_zeros``) on such a matrix raises instead of rewriting the
    pattern.
    """

    def __init__(self, dom: GridDomain, directions: np.ndarray | None = None,
                 grids: _CoarseGrids | None = None):
        self.dom = dom
        self.directions = stencil_steps(dom.dim) if directions is None else directions
        self.grids = grids or _CoarseGrids(dom)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _pattern_arrays(self.dom.shape, self.dom.interior_idx, self.directions)

    @cached_property
    def levels(self) -> list[tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]]:
        """Coarse levels, finest first: (P, rows, indices, absent) each, on
        the grids of ``grids``, whose P and ``rows`` it shares.

        ``indices`` and ``absent`` are the level's pattern. Its data is a
        gather of the finer level's (``_vcycle``): coarse row j takes the
        finer row ``rows[j]``, that of the injected point 2j, whole, since
        slot s is the same step e on both levels. Where 2j + 2e is
        interior, 2j + e is too (the midpoint of two points of a box or ball
        lies in it), so the finer slot is present; where it is not, the
        coarse slot is absent and is zeroed.
        """
        return [(prolong, rows, *_pattern_arrays(shape, idx, self.directions))
                for prolong, shape, idx, rows in self.grids.levels]


def _fixed_width_csr(data: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """The square CSR matrix whose row i holds data[i] at columns
    indices[i], both (n, width); its ``data`` and ``indices`` are views of
    them."""
    import scipy.sparse as sp

    n, width = indices.shape
    indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
    return sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=(n, n))


def _stencil_weights(h: float, directions: np.ndarray, coeff: np.ndarray,
                     f_u: np.ndarray | float, f_p: np.ndarray):
    """Per-point weight of each step in ``directions``, yielded in turn, of
    the operator that ``_assemble`` describes, for one block's terms; a term
    constant over the block broadcasts. The step e weighs, at the centre,
    -f_u - sum_a 2 coeff[a] / h^2; along axis a, coeff[a] / h^2 - e_a
    f_p[:, a] / (2h); along axes a < b, e_a e_b coeff[ab] / (2h^2)."""
    dim = f_p.shape[1]
    h2 = h * h
    for step in directions.tolist():
        axes = [a for a in range(dim) if step[a]]
        if not axes:
            center = -f_u
            for a in range(dim):
                center -= 2.0 * coeff[a] / h2
            yield center
        elif len(axes) == 1:
            (a,) = axes
            yield coeff[a] / h2 - step[a] * f_p[:, a] / (2.0 * h)
        else:
            a, b = axes
            w = coeff[sym_pairs(dim).index((a, b))] / (2.0 * h2)
            yield w if step[a] == step[b] else -w


def _assemble(dom: GridDomain, pattern: _JacobianPattern, terms) -> sp.csr_matrix:
    """Sparse operator on the interior unknowns, (n_int, n_int): second-order
    term with per-point packed coefficient matrices contracted against the
    Hessian stencil, minus first/zeroth-order terms. ``pattern`` is the
    domain's ``_JacobianPattern``; only ``data``, one fixed-width row per
    unknown, is computed here, in one pass over ``grid.interior_blocks``:
    ``terms(block)`` gives the block's packed coefficient matrices, df/du
    and df/dp, (d(d+1)/2, n), (n,) and (n, d), or constants that broadcast,
    and each step's weights go into its column of the block's rows of
    ``data`` as they are formed. The absent slots are then set to +0.0.
    """
    indices, absent = pattern.arrays
    data = np.empty(indices.shape)
    for block in interior_blocks(dom):
        for column, weight in zip(data[block].T,
                                  _stencil_weights(dom.h, pattern.directions, *terms(block))):
            column[:] = weight
    data.reshape(-1)[absent] = 0.0
    return _fixed_width_csr(data, indices)


def linearize(fld: ScalarField, params: SumHessianParams, rhs: RhsSpec, *,
              pattern: _JacobianPattern | None = None) -> sp.csr_matrix:
    """Discrete linearized operator at an admissible field, with respect to
    the interior unknowns (rows and columns follow ``interior_idx``).

    ``pattern`` is the domain's ``_JacobianPattern``, made here when
    omitted; the matrix is the same either way.
    Raises ConeViolationError naming the first inadmissible interior point
    of the field's evaluation (``_evaluated``).

    One ``_assemble`` pass: each block's stencil (its own ``hessian_field``
    call), coefficient matrices and exact df/du and df/dp go straight into
    its rows; an f(x)'s zero derivatives are constants, with no env built.
    """
    dom = fld.domain
    _check_dim(dom, params)
    offender = _first_violation(dom, _evaluated(fld, params).mask)
    if offender is not None:
        raise ConeViolationError(f"field is not admissible at grid point {offender}")
    names = expr.variables(rhs.expression)
    trees = [] if _state_free(rhs, dom.dim) else [
        expr.diff(rhs.expression, key) for key in _state_keys(dom.dim)]
    zero_row = np.zeros((1, dom.dim))

    def terms(block: slice):
        coeff = _grad_coeff_matrices(*_invariants(hessian_field(fld, block), params.k), params)
        if not trees:
            return coeff, 0.0, zero_row
        env = _interior_env(fld, names, block)
        derivs = np.empty((len(trees), block.stop - block.start))
        for row, tree in zip(derivs, trees):
            row[:] = _evaluate(tree, env, "right-hand side")
        return coeff, derivs[0], derivs[1:].T

    return _assemble(dom, pattern or _JacobianPattern(dom), terms)


def _jacobi(a: sp.csr_matrix, damped: np.ndarray, r: np.ndarray, x: np.ndarray,
            sweeps: int) -> np.ndarray:
    """x after ``sweeps`` damped-Jacobi sweeps on a x = r, where ``damped``
    is MG_OMEGA / diag(a); x is updated in place, and each sweep's
    correction is formed in the array that ``a @ x`` returns."""
    for _ in range(sweeps):
        correction = a @ x
        np.subtract(r, correction, out=correction)
        correction *= damped
        x += correction
    return x


def _vcycle(mat: sp.csr_matrix, pattern: _JacobianPattern) -> spla.LinearOperator:
    """One V-cycle over ``pattern.levels`` as a linear operator, an
    approximate inverse of ``mat``, which fills ``pattern``.

    Each level's fixed-width rows are the finer level's rows ``rows``,
    scaled by (h / 2h)^2 = 1/4, with the level's own absent slots set to
    +0.0. Each level's inverse diagonal is read from the centre slot. A
    level smooths with MG_SMOOTH_SWEEPS damped-Jacobi sweeps from zero,
    corrects from the next level through P and the restriction P^T / 2^d,
    and smooths again; the coarsest level, or a grid that cannot be
    coarsened, takes MG_COARSEST_SWEEPS sweeps from zero. The cycle is
    therefore linear in its input, which it never writes: BiCGSTAB hands it
    vectors it reads again. Each level's residual is formed in the array
    that ``a @ x`` returns, its restriction is scaled in place, and the
    prolonged correction is added into the level's first smoothed x.
    """
    import scipy.sparse.linalg as spla

    ops = [mat]
    width = pattern.arrays[0].shape[1]
    for _, rows, indices, absent in pattern.levels:
        data = ops[-1].data.reshape(-1, width)[rows]
        data *= 0.25
        data.reshape(-1)[absent] = 0.0
        ops.append(_fixed_width_csr(data, indices))
    damped = [MG_OMEGA / a.data.reshape(-1, width)[:, width // 2] for a in ops]
    # P.T is a CSC view of P's arrays, not a copy
    transfers = [(level[0], level[0].T) for level in pattern.levels]
    restrict = 0.5 ** pattern.dom.dim

    # a loop, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep every level's operator alive until
    # the garbage collector runs
    def cycle(r: np.ndarray) -> np.ndarray:
        down = []
        for a, w, (_, p_t) in zip(ops, damped, transfers):
            x = _jacobi(a, w, r, w * r, MG_SMOOTH_SWEEPS - 1)
            down.append((r, x))
            defect = a @ x
            np.subtract(r, defect, out=defect)
            r = p_t @ defect
            r *= restrict
        x = _jacobi(ops[-1], damped[-1], r, damped[-1] * r, MG_COARSEST_SWEEPS - 1)
        for lv in reversed(range(len(transfers))):
            r, x_fine = down[lv]
            x_fine += transfers[lv][0] @ x
            x = _jacobi(ops[lv], damped[lv], r, x_fine, MG_SMOOTH_SWEEPS)
        return x

    return spla.LinearOperator(mat.shape, matvec=cycle, dtype=np.float64)


def _solve_linear(mat: sp.csr_matrix, b: np.ndarray, rtol: float,
                  pattern: _JacobianPattern) -> tuple[np.ndarray, int, float]:
    """Solve mat x = -b by BiCGSTAB, preconditioned with one V-cycle
    (``_vcycle``; ``mat`` fills ``pattern``), to relative residual rtol:
    x is the correction that cancels a residual b to first order.

    The solve runs on the unit right-hand side -b / ||b||, built in one
    array as b / -||b||, which is it exactly. Returns x, the Krylov
    iterations and the relative residual reached, recomputed from x;
    raises LinearSolveError when that exceeds rtol.
    """
    import scipy.sparse.linalg as spla

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    # unit-norm right-hand side keeps BiCGSTAB clear of its absolute
    # breakdown thresholds on late Newton steps
    b_unit = b / -b_norm
    iterations = 0

    def count(_xk):
        nonlocal iterations
        iterations += 1

    x, _ = spla.bicgstab(mat, b_unit, rtol=rtol, atol=0.0, maxiter=KRYLOV_MAXITER,
                         M=_vcycle(mat, pattern), callback=count)
    remainder = mat @ x
    remainder -= b_unit
    achieved = float(np.linalg.norm(remainder))
    if not achieved <= rtol:
        raise LinearSolveError(rtol, achieved, iterations, mat.shape[0])
    x *= b_norm
    return x, iterations, achieved


def _forcing_term(f_norm: float, prev: tuple[float, float], tol: float) -> float:
    """Eisenstat-Walker choice 1 for the next Newton step.

    prev holds ||F_{k-1}|| and the norm of the linear model's prediction
    (1 - lam) F_{k-1} + lam r_lin of F_k. The result is clamped to
    [max(ETA_TOL_SHARE * tol / ||F_k||, ETA_FLOOR), ETA_MAX]; the lower end
    stops the solve from oversolving near tol.
    """
    prev_norm, model_norm = prev
    eta = abs(f_norm - model_norm) / prev_norm
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
    """Dirichlet data on the boundary layer, as an (n_points,) array that is
    zero at interior points. g is evaluated only where it is read, one
    ``grid.boundary_pieces`` piece at a time, so it may be undefined inside."""
    names = expr.variables(boundary)
    allowed = {f"x{a + 1}" for a in range(dom.dim)}
    if not names <= allowed:
        raise InstanceError(
            f"boundary data may only reference {sorted(allowed)}, got {sorted(names)}"
        )
    out = np.zeros(dom.n_points)
    for idx in boundary_pieces(dom):
        out[idx] = _evaluate(boundary, _coordinate_env(dom, names, idx), "boundary data")
    return out


REPAIR_SWEEPS = 200


def _repair_admissibility(fld: ScalarField, params: SumHessianParams,
                          scale: float) -> _Iterate:
    """Lower interior values at inadmissible points until the field is
    admissible with a uniform margin on the complement eigenvalues; the
    repaired field is returned as a Newton iterate.

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
    shift = (margin / (d - 1)) * _packed_eye(d)
    delta = 0.25 * dom.h * dom.h * max(1.0, scale)
    idx = dom.interior_idx
    offsets = stencil_steps(d) @ dom.strides
    trial = ScalarField(dom, fld.values.copy())
    flat = trial.flat   # a view: lowering it lowers trial

    def margin_ok(hp: np.ndarray) -> np.ndarray:
        return _cone_margins(_invariants(hp - shift, params.k)[0], params) > 0

    (ok,) = _blockwise(lambda hp: (margin_ok(hp),), trial)
    for _ in range(REPAIR_SWEEPS):
        bad = idx[~ok]
        if bad.size == 0:
            return _Iterate(dom, trial.values, params)
        flat[bad] -= delta
        touched = np.zeros(dom.n_points, dtype=bool)
        touched[bad[:, None] + offsets] = True
        near = np.flatnonzero(touched & dom.interior_flat)
        rows = np.searchsorted(idx, near)
        for part in point_blocks(near.size):
            ok[rows[part]] = margin_ok(_hessian_stencil(trial, near[part]))
    evaluation = _evaluate_field(trial, params)
    if evaluation.mask.all():
        return _Iterate(dom, trial.values, params, evaluation)
    raise ConeViolationError(
        f"initial guess could not be repaired to admissibility in {REPAIR_SWEEPS} sweeps"
    )


def _lerp(lo: np.ndarray, hi: np.ndarray, axis: int, t: np.ndarray) -> np.ndarray:
    """(1 - t) lo + t hi, the weights t running along ``axis``."""
    shape = [1] * lo.ndim
    shape[axis] = t.size
    t = t.reshape(shape)
    return (1.0 - t) * lo + t * hi


def _blend_after_axis_0(values: np.ndarray) -> np.ndarray:
    """The boolean sum of the linear face blends P_a of ``values`` along axes
    1 .. d-1, built from the last axis: B = P_a v + (I - P_a) B', B' the
    sum over the axes after a, which is B' + P_a (v - B'). Each pass reads
    v - B' on the two faces of its axis alone."""
    blend = None
    for a in range(values.ndim - 1, 0, -1):
        lo, hi = (np.take(values, [i], axis=a) for i in (0, -1))
        if blend is not None:
            lo, hi = lo - np.take(blend, [0], axis=a), hi - np.take(blend, [-1], axis=a)
        term = _lerp(lo, hi, a, np.arange(values.shape[a]) / (values.shape[a] - 1))
        blend = term if blend is None else blend + term
    return blend


def transfinite_blend(slab: np.ndarray, ends: np.ndarray, rows: slice,
                      cells: int) -> np.ndarray:
    """Boolean-sum (transfinite, Gordon-Hall) interpolation of the box-face
    values, on the axis-0 planes ``rows`` (a slice of range(cells + 1)) of a
    box with ``cells`` cells along axis 0.

    ``slab`` holds the values on those planes, which contain their faces
    along the other axes, and ``ends``, shape (2,) + slab.shape[1:], the
    values on the two axis-0 faces, planes 0 and ``cells``. Only face values
    are read. The blend matches the input on every face of the box, is
    smooth in the interior with no corner singularities, and is exact on
    additively separable functions. A point's value does not depend on the
    planes blended with it, so slabs give the bits of one pass over the box
    (rows = slice(0, cells + 1), ends = values[[0, -1]]).

    The boolean sum is built axis by axis, d passes: the sum B' over axes
    d-1 .. 1 on the slab, then B = B' + P_0 (v - B'), whose axis-0 faces
    v - B' are ``ends`` less B' on ``ends``.
    """
    rest = ends - _blend_after_axis_0(ends)
    return _blend_after_axis_0(slab) + _lerp(rest[:1], rest[1:], 0,
                                             np.arange(rows.start, rows.stop) / cells)


def _rhs_at_rest(dom: GridDomain, rhs: RhsSpec) -> np.ndarray | np.float64:
    """f on the interior at u = 0, Du = 0, as ``_eval_rhs`` gives it (one
    value for a constant f): on the interior envs of the zero field. For a
    ``_state_free`` f these are its values on every field.

    The envs hold the zero field's whole state, its gradient included, even
    for an f(x) or a constant f, whose one value is read on the first
    block's env: perfbench's traced run requires the solver's
    ``gradient_field`` to record a call on every solve."""
    zero = ScalarField(dom, np.zeros(dom.shape))
    return _eval_rhs(rhs, zero, expr.variables(rhs.expression) | set(_state_keys(dom.dim)))


@_clears_frames
def initial_guess(dom: GridDomain, params: SumHessianParams, rhs: RhsSpec,
                  boundary: expr.Node, *, pattern: _JacobianPattern | None = None,
                  krylov_log: list | None = None,
                  f_rest: np.ndarray | np.float64 | None = None) -> _Iterate:
    """Starting field of a solve, returned as a Newton iterate.

    On a box (``GridDomain.plane``) the guess is the transfinite face blend
    of the Dirichlet data g (``transfinite_blend``: no corner singularities,
    exact on the quadratic below), and it is returned when admissible, its
    admissibility check being the iterate's evaluation. Otherwise, and on a
    ball, the guess is c q, q = (|x - x_c|^2 - r^2)/2, plus the discrete
    harmonic extension of the boundary mismatch g - c q where there is one,
    which keeps the trace of the Hessian exact (on a ball the mismatch lives
    on the staircase ring and is small), and is then repaired to
    admissibility; the repair's last check, when it runs out of sweeps, is
    the iterate's evaluation too. Boundary values equal the Dirichlet data
    exactly in every case.

    The scale c is the smallest power of two making the constant-Hessian
    value dominate sup f over the interior, evaluated at u = 0, Du = 0:
    ``f_rest``, those values as ``_rhs_at_rest`` gives them (one value for
    a constant f), or evaluated here when omitted. The extension's
    Laplacian has its own ``_JacobianPattern``, on the centre and axis
    steps of ``pattern``, the domain's Jacobian pattern (made here when
    omitted), whose coarse grids it shares, and is freed with the
    Laplacian. The extension appends its (Krylov iterations, linear
    residual) to ``krylov_log`` when one is given.

    g is read on the boundary layer only (``boundary_values``), and the
    guess is written into that one grid array, one ``grid.interior_blocks``
    block at a time, the blend on whole axis-0 planes from the two axis-0
    faces; only the extension's mismatch, which its stencil reads, is a
    second grid array.
    """
    _check_dim(dom, params)
    pattern = pattern or _JacobianPattern(dom)
    if f_rest is None:
        f_rest = _rhs_at_rest(dom, rhs)
    c = quadratic_scale(params, float(np.max(f_rest)))
    radius = dom.inscribed_radius
    idx = dom.interior_idx

    def quad(points: np.ndarray) -> np.ndarray:
        """c q at the flat indices ``points``."""
        return c * (0.5 * (squared_distance(dom, dom.center, points) - radius * radius))

    flat = boundary_values(dom, boundary)
    values = flat.reshape(dom.shape)
    fld = ScalarField(dom, values)      # holds flat, whose interior is written below
    extent = max(1.0, c, float(np.max(flat)), -float(np.min(flat)))
    mismatched = max(float(np.max(np.abs(flat[b] - quad(b))))
                     for b in boundary_pieces(dom)) > 1e-14 * extent

    def extended():
        # harmonic extension x of the mismatch m: x = m on the boundary
        # layer and Lap_h x = 0 inside, i.e. A_II x_I = -(Lap_h m)_I with
        # A_II the interior Laplacian
        mismatch = np.zeros(dom.n_points)
        for b in boundary_pieces(dom):
            mismatch[b] = flat[b] - quad(b)
        d = dom.dim
        eye, zero_row = _packed_eye(d), np.zeros((1, d))
        axes = np.count_nonzero(pattern.directions, axis=1) <= 1
        laplacian = _JacobianPattern(dom, pattern.directions[axes], pattern.grids)
        lap = _assemble(dom, laplacian, lambda block: (eye, 0.0, zero_row))
        (lap_m,) = _blockwise(lambda hp: (_trace(hp, d),),
                              ScalarField(dom, mismatch.reshape(dom.shape)))
        del mismatch
        x, krylov, linear_residual = _solve_linear(lap, lap_m, EXTENSION_RTOL, laplacian)
        for block in interior_blocks(dom):
            flat[idx[block]] = quad(idx[block]) + x[block]
        if krylov_log is not None:
            krylov_log.append((krylov, linear_residual))

    if dom.plane:
        inside, ends = dom.interior_flat.reshape(dom.shape), values[[0, -1]]
        for block in interior_blocks(dom):
            rows = slice(1 + block.start // dom.plane, 1 + block.stop // dom.plane)
            np.copyto(values[rows], transfinite_blend(values[rows], ends, rows, dom.cells[0]),
                      where=inside[rows])
        evaluation = _evaluate_field(fld, params)
        if evaluation.mask.all():
            return _Iterate(dom, values, params, evaluation)
        del evaluation
    if mismatched:
        extended()
    else:
        for block in interior_blocks(dom):
            flat[idx[block]] = quad(idx[block])
    return _repair_admissibility(fld, params, c)


# ---------------------------------------------------------------------------
# damped Newton

@_clears_frames
def newton_solve(dom: GridDomain, params: SumHessianParams, rhs: RhsSpec,
                 boundary: expr.Node, config: SolveConfig | None = None) -> SolveResult:
    """Inexact damped Newton with admissibility-preserving backtracking.

    Each step solves the linearized system on the interior unknowns to the
    relative residual of its Eisenstat-Walker forcing term (ETA_MAX on the
    first step), then halves the step until the trial iterate is admissible
    at every interior point and strictly decreases the sup-norm residual
    (or lands below the tolerance). The trace records the guess as step 0
    and every accepted iterate after it. Stops at residual <= tol or after
    max_iter accepted steps. NonConvergenceError (a line-search stall) and
    LinearSolveError (a failed step solve) carry the trace so far.

    The line search stalls in one of two ways. When a trial equals the
    iterate bit for bit, so does every smaller step (halving is exact and
    rounding is monotone), and its residual is the iterate's: the search
    stops there, unevaluated, saying the step no longer changes the
    iterate. Otherwise it stalls when no step down to MIN_STEP gives an
    admissible decrease. f is evaluated once at u = 0, Du = 0, for the
    guess's scale. An f(x) right-hand side (``_state_free``) is evaluated
    there only: every residual of the solve reads those values, which for
    a constant f are one value, not an (n_interior,) array.
    """
    config = config or SolveConfig()
    _check_dim(dom, params)
    f_values = _rhs_at_rest(dom, rhs)
    pattern = _JacobianPattern(dom)
    extension = []
    fld = initial_guess(dom, params, rhs, boundary, pattern=pattern, krylov_log=extension,
                        f_rest=f_values)
    if not _state_free(rhs, dom.dim):
        f_values = None     # f is then evaluated on every residual's field
    idx = dom.interior_idx

    offender = _first_violation(dom, admissible_mask(fld, params))
    if offender is not None:
        raise ConeViolationError(f"initial guess is not admissible at grid point {offender}")

    res = residual(fld, params, rhs, f_values=f_values)
    res_norm = float(np.max(np.abs(res)))
    krylov, linear_residual = extension[0] if extension else (0, 0.0)
    trace = [TraceEntry(0, res_norm, 0.0, _evaluated(fld, params).min_margin,
                        krylov, linear_residual)]
    iterations = 0
    forcing = None      # (||F||_2, ||model of the next F||_2) of the last step

    while res_norm > config.tol and iterations < config.max_iter:
        f_int = res.ravel()[idx]
        del res     # the grid residual: f_int holds its interior
        f_norm = float(np.linalg.norm(f_int))
        eta = ETA_MAX if forcing is None else _forcing_term(f_norm, forcing, config.tol)
        mat = linearize(fld, params, rhs, pattern=pattern)
        try:
            delta_int, krylov, linear_residual = _solve_linear(mat, f_int, eta, pattern)
        except LinearSolveError as exc:
            exc.trace = trace
            raise
        delta = np.zeros(dom.n_points)
        delta[idx] = delta_int
        step = 1.0
        accepted = None
        stall = f"no admissible decrease down to step 2^{math.log2(MIN_STEP):.0f}"
        while step >= MIN_STEP:
            trial = _Iterate(dom, fld.values + step * delta.reshape(dom.shape), params)
            if np.array_equal(trial.values.view(np.int64), fld.values.view(np.int64)):
                stall = f"step 2^{math.log2(step):.0f} no longer changes the iterate"
                break
            if admissible_mask(trial, params).all():
                try:
                    res_try = residual(trial, params, rhs, f_values=f_values)
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
                f"line search stalled: {stall}, at residual {res_norm:.3e}", trace=trace)
        # (1 - step) F + step r_lin = F + step J delta
        model_norm = float(np.linalg.norm(f_int + step * (mat @ delta_int)))
        forcing = (f_norm, model_norm)
        fld, res, res_norm = accepted
        # free this Jacobian and this step before the next ones are made;
        # the accepted trial and its residual live on as fld and res alone
        del mat, delta, delta_int, accepted, res_try
        iterations += 1
        trace.append(TraceEntry(iterations, res_norm, step, _evaluated(fld, params).min_margin,
                                krylov, linear_residual))

    admissible = bool(admissible_mask(fld, params).all())
    # the solve is done with the iterate: its values go out as a plain,
    # writeable field
    fld.values.flags.writeable = True
    return SolveResult(
        field=ScalarField(dom, fld.values),
        iterations=iterations,
        residual=res_norm,
        admissible=admissible,
        trace=trace,
    )
