"""Symmetric-matrix spectral machinery and the matrix operator calculus.

For a symmetric H the operator acts through the complement matrix
U[H] = trace(H) I - H, whose eigenvalues are eta(lam(H)). This module
evaluates

    value(H)   = S_k(eta(lam(H)))               (operator_value)
    gradient   = d value / dH                    (operator_grad)
    hessian    = quadratic form A -> d2 value    (operator_hess_quad)

The second derivative of a spectral function combines the eigenvalue-space
Hessian with divided differences of the gradient over eigenvalue pairs. For
S_k at mu = eta(lam) the divided difference is exact: sigma_m(mu|q) -
sigma_m(mu|p) = (mu_p - mu_q) sigma_{m-1}(mu|p,q), so the whole form is
read off the doubly deleted values S_{k-2}(mu|p,q), with no gap test.

Every function takes a single matrix (n, n) or a stack (..., n, n) and
works on the whole stack at once; the eigen decomposition is LAPACK's
symmetric solver (np.linalg.eigh). A single matrix returns a float or an
(n, n) array, a stack returns one value or matrix per leading index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import eta
from .symfun import MAX_N, SumHessianParams, sum_hessian, sum_hessian_grad, sum_hessian_hess

MIN_DIM = 2
MAX_DIM = MAX_N
SYMMETRY_ATOL = 1e-14


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def as_sym_matrix(entries) -> np.ndarray:
    """Validate and return a dense symmetric matrix or stack (dim 2..16).

    Entries must be symmetric to 1e-14 absolute in every matrix of the
    stack; the result is exactly symmetrized.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    dim = a.shape[-1]
    if not MIN_DIM <= dim <= MAX_DIM:
        raise ValueError(f"matrix dim must be in [{MIN_DIM}, {MAX_DIM}], got {dim}")
    if np.any(np.abs(a - _transpose(a)) > SYMMETRY_ATOL):
        raise ValueError("matrix entries are not symmetric to 1e-14")
    return 0.5 * (a + _transpose(a))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching orthonormal frame columns."""

    values: np.ndarray  # (..., dim)
    frame: np.ndarray   # (..., dim, dim), columns are eigenvectors


def eigen_sym(matrix) -> EigenDecomposition:
    """Eigen decomposition of a symmetric matrix or stack by LAPACK's eigh,
    reordered so that the eigenvalues descend."""
    values, frame = np.linalg.eigh(as_sym_matrix(matrix))
    return EigenDecomposition(values=values[..., ::-1], frame=frame[..., ::-1])


def u_operator(matrix) -> np.ndarray:
    """Complement matrix trace(H) I - H; its eigenvalues are eta(lam(H))."""
    h = as_sym_matrix(matrix)
    trace = np.trace(h, axis1=-2, axis2=-1)[..., None, None]
    return trace * np.eye(h.shape[-1]) - h


def operator_value(matrix, params: SumHessianParams):
    """S_k(eta(lam(H)))."""
    return sum_hessian(eta(eigen_sym(matrix).values), params.k, params.alpha)


def grad_coefficients(values, params: SumHessianParams) -> np.ndarray:
    """Per-eigenvalue derivative coefficients of lam -> S_k(eta(lam)).

    Coefficient i equals the sum of the eta-side partials over all
    coordinates other than i (the trace-minus-own combination produced by
    the complement transform).
    """
    lam = np.asarray(values, dtype=float)
    g_eta = sum_hessian_grad(eta(lam), params.k, params.alpha)
    return g_eta.sum(axis=-1, keepdims=True) - g_eta


def operator_grad(matrix, params: SumHessianParams) -> np.ndarray:
    """Matrix derivative of H -> S_k(eta(lam(H))): diagonal in the eigenframe."""
    dec = eigen_sym(matrix)
    t = grad_coefficients(dec.values, params)
    return (dec.frame * t[..., None, :]) @ _transpose(dec.frame)


def lambda_space_hessian(values, params: SumHessianParams) -> np.ndarray:
    """Hessian of lam -> S_k(eta(lam)) (chain rule through the eta transform)."""
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    d2_eta = sum_hessian_hess(eta(lam), params.k, params.alpha)
    mix = np.ones((n, n)) - np.eye(n)  # d eta_p / d lam_i
    return mix @ d2_eta @ mix


def operator_hess_quad(matrix, direction, params: SumHessianParams):
    """Second derivative quadratic form of H -> S_k(eta(lam(H))) along a
    symmetric direction A (one direction per matrix of a stack).

    The value is S_k(lam(U)) with U = trace(H) I - H, so the form is the
    second derivative of S_k(lam(U)) along B = trace(A) I - A. In the
    eigenframe Q of H, with A' = Q^T A Q, e_p = trace(A) - A'_pp and
    S[p, q] = S_{k-2}(eta|p,q) (zero diagonal):

        quad = e^T S e - sum_{p,q} S[p, q] A'_pq^2.
    """
    dec = eigen_sym(matrix)
    a = as_sym_matrix(direction)
    if a.shape != dec.frame.shape:
        raise ValueError("direction must have the same shape as the matrix")
    at = _transpose(dec.frame) @ a @ dec.frame
    s = sum_hessian_hess(eta(dec.values), params.k, params.alpha)
    e = eta(np.diagonal(at, axis1=-2, axis2=-1))
    total = np.einsum("...p,...pq,...q->...", e, s, e) - np.sum(s * at**2, axis=(-2, -1))
    return float(total) if total.ndim == 0 else total
