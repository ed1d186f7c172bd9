"""Estimate diagnostics on solved fields.

``build_report`` evaluates one row of estimate quantities per field:

- sup|Du| and sup|D^2 u| over the interior, and |D^2 u| at the point
  nearest the center;
- the interior ratio |D^2 u(center)| / (1 + sup|Du| / R), R the inscribed
  radius: the empirical constant of the interior C^2 estimate;
- for zero boundary data, the Pogorelov-type weighted products
  max (-u)^beta |D^2 u| and the log test function P;
- the test function phi.

Of phi and P the maximum and its maximizer are reported. |D^2 u| is the
spectral norm (largest-magnitude eigenvalue); the top signed eigenvalue
plays the role of the maximal second directional derivative. A report reads
each interior point's Hessian stencil once and one gradient field, whatever
the number of weights. The stencil is read and decomposed by ``eigvalsh``
one ``grid.interior_blocks`` block at a time, and of each point only the
top eigenvalue and the spectral norm are kept. Every weight must be a
finite number >= 1 (``check_betas``).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFieldError, MaxPrincipleError
from .grid import (
    GridDomain,
    ScalarField,
    gradient_field,
    hessian_field,
    interior_blocks,
    squared_distance,
    unpack,
)

# defaults of build_report, which the config loader and the CLI read from here
BETAS = (1.0, 2.0, 4.0)    # weights of the products (-u)^beta |D^2 u|
P_BETA, P_A, P_BIG_A = 2.0, 0.1, 1.0  # beta, a and A of the log diagnostic P


def check_betas(betas) -> None:
    """Raise ValueError unless every weight is a finite number >= 1."""
    for beta in betas:
        if not 1.0 <= beta < np.inf:
            raise ValueError(f"beta must be a finite number >= 1, got {beta!r}")


def _pogorelov_product(u_int: np.ndarray, spectral_norm: np.ndarray, beta: float) -> float:
    return float(np.max((-u_int) ** beta * spectral_norm))


def _phi_values(dom: GridDomain, radius: float, grad2: np.ndarray,
                top: np.ndarray) -> np.ndarray:
    """rho(x) g(|Du|^2/2) u_tt at interior points, with rho = 1 - |x - x_c|^2 / r^2,
    g(t) = (1 - t/(sup|Du|^2))^(-1/3) and u_tt the top Hessian eigenvalue.

    For a constant field (sup|Du| = 0) g is taken identically 1.
    """
    rho = 1.0 - squared_distance(dom, dom.center, dom.interior_idx) / (radius * radius)
    a_sup = float(np.max(grad2))
    if a_sup == 0.0:
        g = np.ones_like(grad2)
    else:
        g = (1.0 - 0.5 * grad2 / a_sup) ** (-1.0 / 3.0)
    return rho * g * top


def _p_values(dom: GridDomain, u_int: np.ndarray, top: np.ndarray, grad2: np.ndarray,
              beta: float, a: float, big_a: float) -> np.ndarray:
    """beta log(-u) + log u_11 + (a/2)|Du|^2 + (A/2)|x|^2 at interior points,
    u_11 the top Hessian eigenvalue.

    Points with u >= 0 or a nonpositive top eigenvalue (log undefined) read
    -inf. Raises DegenerateFieldError when every interior point is excluded.
    """
    include = (u_int < 0) & (top > 0)
    if not include.any():
        raise DegenerateFieldError("every interior point was excluded from the diagnostic")
    vals = np.full(u_int.shape, -np.inf)
    vals[include] = (
        beta * np.log(-u_int[include])
        + np.log(top[include])
        + 0.5 * a * grad2[include]
        + 0.5 * big_a * squared_distance(dom, np.zeros(dom.dim), dom.interior_idx[include])
    )
    return vals


def _interior_max(dom: GridDomain, vals: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Max of per-interior-point values and the grid multi-index attaining it."""
    best = int(np.argmax(vals))
    point = np.unravel_index(dom.interior_idx[best], dom.shape)
    return float(vals[best]), tuple(int(v) for v in point)


@dataclass
class EstimateReport:
    """One row of the estimate table; None marks an absent optional entry."""

    instance: str
    h: float
    sup_du: float
    sup_d2u: float
    d2u_center: float
    interior_ratio: float
    pogorelov: Optional[float]
    weighted: dict[float, Optional[float]]
    phi_max: float
    phi_argmax: tuple[int, ...]
    p_max: Optional[float]
    p_argmax: Optional[tuple[int, ...]]
    rho_rescaled: bool


def build_report(instance: str, fld: ScalarField, betas: tuple[float, ...] = BETAS,
                 p_beta: float = P_BETA, p_a: float = P_A,
                 p_big_a: float = P_BIG_A) -> EstimateReport:
    """Evaluate every estimate quantity on one field.

    Weighted products and the log diagnostic are present only when the
    boundary data is identically zero. Then a field positive anywhere raises
    MaxPrincipleError (a solution of the zero-boundary problem with positive
    right-hand side is nonpositive). A weight that is not a finite number
    >= 1 raises ValueError (``check_betas``) before any work, whatever the
    boundary data; so does a point nearest the center that is not interior.
    """
    check_betas(betas)
    dom = fld.domain
    radius = dom.inscribed_radius
    u_int = fld.flat[dom.interior_idx]
    # the stencil and eigvalsh run on one block of points at a time, so only
    # the block's Hessians, their (n, d, d) unpacking and eigenvalues are
    # ever held, and of every point only the two values the report reads
    top, spectral_norm = np.empty((2, u_int.size))
    for block in interior_blocks(dom):
        eigs = np.linalg.eigvalsh(unpack(hessian_field(fld, block)))
        top[block] = eigs[:, -1]
        spectral_norm[block] = np.max(np.abs(eigs), axis=1)
    del eigs
    # |Du|^2 summed over the gradient's contiguous columns, in axis order
    grad = gradient_field(fld)
    grad2 = np.zeros(u_int.size)
    for a in range(dom.dim):
        grad2 += grad[:, a] ** 2
    del grad
    phi_max, phi_argmax = _interior_max(dom, _phi_values(dom, radius, grad2, top))
    if np.all(fld.flat[~dom.interior_flat] == 0.0):
        if np.any(fld.flat > 0):
            raise MaxPrincipleError("field is positive somewhere; maximum principle violated")
        weighted = {b: _pogorelov_product(u_int, spectral_norm, b) for b in betas}
        pog = weighted[1.0] if 1.0 in weighted else _pogorelov_product(u_int, spectral_norm, 1.0)
        p_max, p_argmax = _interior_max(
            dom, _p_values(dom, u_int, top, grad2, p_beta, p_a, p_big_a))
    else:
        pog = None
        weighted = {b: None for b in betas}
        p_max, p_argmax = None, None
    center = dom.center_index()
    flat = int(np.ravel_multi_index(center, dom.shape))
    if not dom.interior_flat[flat]:
        raise ValueError(f"center point {center} is not interior")
    sup_du = float(np.sqrt(np.max(grad2)))
    d2u_center = float(spectral_norm[np.searchsorted(dom.interior_idx, flat)])
    return EstimateReport(
        instance=instance,
        h=dom.h,
        sup_du=sup_du,
        sup_d2u=float(np.max(spectral_norm)),
        d2u_center=d2u_center,
        interior_ratio=d2u_center / (1.0 + sup_du / radius),
        pogorelov=pog,
        weighted=weighted,
        phi_max=phi_max,
        phi_argmax=phi_argmax,
        p_max=p_max,
        p_argmax=p_argmax,
        rho_rescaled=not (abs(radius - 1.0) < 1e-12 and np.all(np.abs(dom.center) < 1e-12)),
    )


def stable_weight(coarse: EstimateReport, fine: EstimateReport, drift: float = 0.10):
    """Smallest swept weight whose product moves at most `drift` (relative)
    between two refinements of the same instance, or None."""
    for beta in sorted(set(coarse.weighted) & set(fine.weighted)):
        a, b = coarse.weighted[beta], fine.weighted[beta]
        if a is None or b is None or a == 0:
            continue
        if abs(b - a) / abs(a) <= drift:
            return beta
    return None


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, tuple):
        return "/".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_columns(betas) -> list[str]:
    cols = ["instance", "h", "sup_du", "sup_d2u", "d2u_center", "interior_ratio", "pogorelov"]
    cols += [f"weighted_pogorelov_b{b:g}" for b in betas]
    cols += ["phi_max", "phi_argmax", "p_max", "p_argmax", "rho_rescaled"]
    return cols


def write_reports(reports: list[EstimateReport], stream, family_max: bool = False) -> None:
    """CSV table, one row per instance; with family_max a final row holds the
    per-column maximum of the numeric entries (the empirical constants).

    The weighted columns are the union of the reports' weights, in the order
    first seen; a report without a weight reads NA there."""
    if not reports:
        raise ValueError("no reports to write")
    betas = tuple(dict.fromkeys(b for rep in reports for b in rep.weighted))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(report_columns(betas))

    def row_values(rep: EstimateReport) -> list:
        return (
            [rep.instance, rep.h, rep.sup_du, rep.sup_d2u, rep.d2u_center,
             rep.interior_ratio, rep.pogorelov]
            + [rep.weighted.get(b) for b in betas]
            + [rep.phi_max, rep.phi_argmax, rep.p_max, rep.p_argmax, rep.rho_rescaled]
        )

    rows = [row_values(r) for r in reports]
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    if family_max:
        cols = report_columns(betas)
        skip = {"instance", "h", "phi_argmax", "p_argmax", "rho_rescaled"}
        maxima: list = ["FAMILY_MAX"]
        for j, name in enumerate(cols[1:], start=1):
            vals = [r[j] for r in rows
                    if isinstance(r[j], (int, float)) and not isinstance(r[j], bool)]
            maxima.append(max(vals) if vals and name not in skip else None)
        writer.writerow([_fmt(v) for v in maxima])
