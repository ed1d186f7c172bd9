"""Admissibility cones for the sum Hessian operator.

Four open cones are supported, all with strict inequalities (boundary
points are excluded; boundary handling belongs to callers):

  gamma              sigma_1..sigma_m all positive
  gamma-tilde        gamma at order k-1 intersected with {S_k > 0}
  gamma-prime        eta(lam) in gamma at order k
  gamma-tilde-prime  eta(lam) in gamma-tilde

where eta_i = sigma_1(lam) - lam_i. Membership tests are vectorized
over leading axes.
"""
from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import SamplingExhaustedError
from .symfun import SumHessianParams, sigma_all, sum_hessian

SAMPLE_BOX = (-1.0, 3.0)
DRAW_BUDGET = 10**7
MIN_ACCEPT_RATE = 1e-4
_CHUNK = 1 << 14        # most rows one draw may test
_MIN_DRAW = 64          # fewest rows one draw tests


class Cone(enum.Enum):
    GAMMA = "gamma"
    GAMMA_TILDE = "gamma-tilde"
    GAMMA_PRIME = "gamma-prime"
    GAMMA_TILDE_PRIME = "gamma-tilde-prime"


def eta(lam) -> np.ndarray:
    """Complementary-sum transform eta_i = sigma_1(lam) - lam_i.

    The output is not re-sorted: a descending lam yields an ascending eta.
    """
    lam = np.asarray(lam, dtype=float)
    return lam.sum(axis=-1, keepdims=True) - lam


def in_gamma(lam, m: int):
    """True iff sigma_j(lam) > 0 for every j = 1..m (strict, open cone).

    m = 0 is vacuous (always True).
    """
    lam = np.asarray(lam, dtype=float)
    if not 0 <= m <= lam.shape[-1]:
        raise ValueError(f"cone order m={m} out of range for n={lam.shape[-1]}")
    e = sigma_all(lam, m)
    out = np.all(e[..., 1:] > 0, axis=-1)
    return bool(out) if out.ndim == 0 else out


def in_gamma_tilde(lam, params: SumHessianParams):
    """True iff lam is in gamma at order k-1 and S_k(lam) > 0."""
    lam = np.asarray(lam, dtype=float)
    ok = in_gamma(lam, params.k - 1)
    s = sum_hessian(lam, params.k, params.alpha)
    out = np.logical_and(ok, np.asarray(s) > 0)
    return bool(out) if out.ndim == 0 else out


def in_cone(lam, cone: Cone, params: SumHessianParams):
    """Membership test dispatched on the cone identifier."""
    if cone is Cone.GAMMA:
        return in_gamma(lam, params.k)
    if cone is Cone.GAMMA_TILDE:
        return in_gamma_tilde(lam, params)
    if cone is Cone.GAMMA_PRIME:
        return in_gamma(eta(lam), params.k)
    if cone is Cone.GAMMA_TILDE_PRIME:
        return in_gamma_tilde(eta(lam), params)
    raise ValueError(f"unknown cone {cone!r}")


@dataclass(frozen=True)
class ConeSampleBatch:
    """Accepted rejection samples; every row passes the membership test.

    Sample 0 is always the deterministic interior point (1, ..., 1).
    """

    samples: np.ndarray  # (count, n)
    cone: Cone
    params: SumHessianParams
    seed: int


def sample_cone(cone: Cone, params: SumHessianParams, count: int, seed: int) -> ConeSampleBatch:
    """Deterministic-for-seed rejection sampling of cone points.

    Draws uniformly from the box [-1, 3]^n and keeps points passing the
    membership test. Each draw tests about as many rows as the samples
    still missing need at the acceptance rate seen so far, within
    [_MIN_DRAW, _CHUNK] rows; the draws continue one random stream, so the
    samples do not depend on the draw sizes. Raises SamplingExhaustedError
    when the acceptance rate stays below 1e-4 over a 10^7-draw budget (an
    empty-looking cone for these parameters).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = params.n
    rng = np.random.default_rng(seed)
    rows = [np.ones((1, n))]
    accepted = 1
    drawn = 0
    lo, hi = SAMPLE_BOX
    while accepted < count:
        if drawn >= DRAW_BUDGET and (accepted - 1) / drawn < MIN_ACCEPT_RATE:
            rate = (accepted - 1) / drawn
            raise SamplingExhaustedError(
                f"cone {cone.value} acceptance rate {rate:.2e} below {MIN_ACCEPT_RATE:.0e} "
                f"after {drawn} draws (n={n}, k={params.k}, alpha={params.alpha})"
            )
        # rows for the missing samples at rate accepted / (drawn + 1), rounded
        # up: the fixed sample 0 counts as one acceptance, so the first draw
        # assumes every row is accepted, and while none is, each draw at
        # least doubles the rows drawn so far, up to _CHUNK rows a draw
        need = count - accepted
        size = min(_CHUNK, max(_MIN_DRAW, -(-need * (drawn + 1) // accepted)))
        chunk = rng.uniform(lo, hi, size=(size, n))
        drawn += size
        keep = chunk[in_cone(chunk, cone, params)][:need]
        rows.append(keep)
        accepted += keep.shape[0]
    samples = np.concatenate(rows, axis=0)
    return ConeSampleBatch(samples=samples, cone=cone, params=params, seed=seed)


def batch_to_csv(batch: ConeSampleBatch, stream) -> None:
    """One row per sample: n lambda columns, cone id, n, k, alpha."""
    n = batch.params.n
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"lam{i + 1}" for i in range(n)] + ["cone", "n", "k", "alpha"])
    for row in batch.samples:
        writer.writerow(
            [repr(float(v)) for v in row]
            + [batch.cone.value, n, batch.params.k, repr(float(batch.params.alpha))]
        )
