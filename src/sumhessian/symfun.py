"""Elementary symmetric polynomials and the sum Hessian function.

The sum Hessian function of order k with weight alpha >= 0 is

    S_k(lam) = sigma_k(lam) + alpha * sigma_{k-1}(lam),

with the conventions sigma_0 = 1 and sigma_m = 0 for m < 0 or m > n.
All functions are vectorized over leading axes: an input of shape
(..., n) produces outputs of shape (...) / (..., n) / (..., n, n).
Scalar (1-D) inputs return plain floats / 1-D arrays.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeViolationError

MAX_N = 16
# pairs (p, q) per gather of sum_hessian_hess: every pair of an n <= 6 tuple
# in one, and at n = 16 an eighth of the (batch, 120, 14) table at a time
PAIR_GROUP = 15


@dataclass(frozen=True)
class SumHessianParams:
    """Order and weight of one sum Hessian operator instance."""

    n: int
    k: int
    alpha: float

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [2, {MAX_N}], got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")


def _as_batch(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        raise ValueError("eigenvalue tuple must have at least one axis")
    return lam


def sigma_all(lam, m_max: int) -> np.ndarray:
    """All elementary symmetric polynomials sigma_0..sigma_m_max, shape (..., m_max+1).

    Stable O(n*m) product-expansion recurrence (coefficients of prod(t + lam_i));
    never enumerates subsets.
    """
    lam = _as_batch(lam)
    n = lam.shape[-1]
    m_max = min(m_max, n)
    e = np.zeros(lam.shape[:-1] + (m_max + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i]
        hi = min(i + 1, m_max)
        for j in range(hi, 0, -1):
            e[..., j] += x * e[..., j - 1]
    return e


def sigma(lam, m: int):
    """m-th elementary symmetric polynomial; 1 for m = 0, 0 for m < 0 or m > n."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if m < 0 or m > n:
        out = np.zeros(lam.shape[:-1])
    else:
        out = sigma_all(lam, m)[..., m]
    return float(out) if out.ndim == 0 else out


def _check_deleted(n: int, deleted) -> tuple[int, ...]:
    idx = tuple(deleted)
    if not 1 <= len(idx) <= 2:
        raise ValueError("deleted index set must contain one or two indices")
    if len(set(idx)) != len(idx):
        raise ValueError(f"deleted indices must be distinct, got {idx}")
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"deleted index {i} out of range for n={n}")
    return idx


def _kept(n: int, r: int) -> np.ndarray:
    """(C(n, r), n - r) table of what is left, in order, after deleting each
    r-subset of range(n) (``itertools.combinations`` order)."""
    return np.array([[i for i in range(n) if i not in gone]
                     for gone in itertools.combinations(range(n), r)], dtype=np.intp)


def sigma_deleted(lam, m: int, deleted):
    """sigma_m of the sub-tuple with the listed coordinates removed.

    `deleted` holds one or two distinct 0-based indices. Computed by re-running
    the recurrence on the sub-tuple (no polynomial division).
    """
    lam = _as_batch(lam)
    n = lam.shape[-1]
    idx = _check_deleted(n, deleted)
    return sigma(lam[..., [i for i in range(n) if i not in idx]], m)


def sum_hessian(lam, k: int, alpha: float):
    """S_k(lam) = sigma_k(lam) + alpha * sigma_{k-1}(lam)."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if 1 <= k <= n:
        e = sigma_all(lam, k)
        out = e[..., k] + alpha * e[..., k - 1]
    else:
        out = np.asarray(sigma(lam, k)) + alpha * np.asarray(sigma(lam, k - 1))
    return float(out) if out.ndim == 0 else out


def sum_hessian_grad(lam, k: int, alpha: float) -> np.ndarray:
    """Gradient of S_k: component p is S_{k-1} of the tuple with coordinate p deleted."""
    lam = _as_batch(lam)
    return sum_hessian(lam[..., _kept(lam.shape[-1], 1)], k - 1, alpha)


def sum_hessian_hess(lam, k: int, alpha: float) -> np.ndarray:
    """Hessian of S_k in eigenvalue space: entry (p, q), p != q, is S_{k-2} of the
    tuple with both coordinates deleted; diagonal entries are zero. The
    deleted tuples are gathered ``PAIR_GROUP`` pairs at a time."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    out = np.zeros(lam.shape + (n,), dtype=float)
    if k < 2:
        return out
    p, q = np.triu_indices(n, 1)
    kept = _kept(n, 2)
    for start in range(0, p.size, PAIR_GROUP):
        g = slice(start, start + PAIR_GROUP)
        out[..., p[g], q[g]] = out[..., q[g], p[g]] = sum_hessian(lam[..., kept[g]], k - 2, alpha)
    return out


def maclaurin_chain(lam) -> np.ndarray:
    """Normalized root chain ((sigma_m / C(n, m))**(1/m))_{m=1..n}.

    Requires sigma_m > 0 for every m (lam inside the full positivity cone);
    raises ConeViolationError otherwise instead of returning complex/NaN.
    """
    lam = _as_batch(lam)
    n = lam.shape[-1]
    e = sigma_all(lam, n)
    if np.any(e[..., 1:] <= 0):
        raise ConeViolationError("maclaurin_chain requires all sigma_m > 0")
    out = np.empty(lam.shape, dtype=float)
    for m in range(1, n + 1):
        out[..., m - 1] = (e[..., m] / math.comb(n, m)) ** (1.0 / m)
    return out


def sum_hessian_chain(lam, k: int, alpha: float) -> np.ndarray:
    """Root chain (S_m**(1/m))_{m=1..k}; requires every S_m > 0 along the chain."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if n < 3:
        raise ValueError("sum_hessian_chain requires n >= 3")
    e = sigma_all(lam, min(k, n))
    out = np.empty(lam.shape[:-1] + (k,), dtype=float)
    for m in range(1, k + 1):
        sm = e[..., m] + alpha * e[..., m - 1]
        if np.any(sm <= 0):
            raise ConeViolationError(f"sum_hessian_chain requires S_{m} > 0")
        out[..., m - 1] = sm ** (1.0 / m)
    return out
