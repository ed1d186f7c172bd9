"""Estimate diagnostics on solved fields.

Quantities mirror interior and Pogorelov-type second-derivative bounds:
the ratio |D^2 u(center)| / (1 + sup|Du|/R), weighted products
(-u)^beta * |D^2 u|, and two auxiliary test functions whose maxima and
maximizers are reported. |D^2 u| is the spectral norm (largest-magnitude
eigenvalue); the top signed eigenvalue plays the role of the maximal
second directional derivative.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFieldError, MaxPrincipleError
from .grid import GridDomain, ScalarField, gradient_field, hessian_at, hessian_field, unpack


def _interior_arrays(fld: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, the ascending eigenvalues of the discrete Hessian and the centered
    gradient at interior points: the arrays every diagnostic reads."""
    # the packed Hessians and their (n_interior, d, d) unpacking are never
    # bound, so both are freed as soon as eigvalsh returns
    eigs = np.linalg.eigvalsh(unpack(hessian_field(fld)))
    grad = gradient_field(fld)
    return fld.flat[fld.domain.interior_idx], eigs, grad


def _boundary_is_zero(fld: ScalarField) -> bool:
    return bool(np.all(fld.flat[~fld.domain.interior_flat] == 0.0))


def _sup_gradient(grad: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(grad, axis=1)))


def sup_gradient(fld: ScalarField) -> float:
    """Max Euclidean norm of the centered gradient over interior points."""
    return _sup_gradient(gradient_field(fld))


def _sup_hessian_norm(eigs: np.ndarray) -> float:
    return float(np.max(np.abs(eigs)))


def sup_hessian_norm(fld: ScalarField) -> float:
    """Max spectral norm of the discrete Hessian over interior points."""
    return _sup_hessian_norm(_interior_arrays(fld)[1])


def center_hessian_norm(fld: ScalarField) -> float:
    """Spectral norm of the discrete Hessian at the point nearest the center;
    ValueError when that point is not interior."""
    eigs = np.linalg.eigvalsh(hessian_at(fld, fld.domain.center_index()))
    return float(np.max(np.abs(eigs)))


def _interior_ratio(center_norm: float, sup_du: float, radius: float) -> float:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return center_norm / (1.0 + sup_du / radius)


def interior_ratio(fld: ScalarField, radius: float) -> float:
    """|D^2 u(center)| / (1 + sup|Du| / radius): the empirical interior
    estimate constant."""
    return _interior_ratio(center_hessian_norm(fld), sup_gradient(fld), radius)


def _check_max_principle(fld: ScalarField) -> None:
    if np.any(fld.flat > 0):
        raise MaxPrincipleError("field is positive somewhere; maximum principle violated")


def _pogorelov_product(u_int: np.ndarray, spectral_norm: np.ndarray, beta: float) -> float:
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    return float(np.max((-u_int) ** beta * spectral_norm))


def pogorelov_product(fld: ScalarField, beta: float = 1.0) -> float:
    """max over interior of (-u)^beta * |D^2 u| for zero boundary data.

    Raises MaxPrincipleError when u is positive anywhere (a solution of the
    zero-boundary problem with positive right-hand side must be
    nonpositive).
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if not _boundary_is_zero(fld):
        raise ValueError("weighted products require identically zero boundary data")
    _check_max_principle(fld)
    u_int, eigs, _ = _interior_arrays(fld)
    return _pogorelov_product(u_int, np.max(np.abs(eigs), axis=1), beta)


@dataclass(frozen=True)
class PhiDiagnostic:
    values: np.ndarray          # grid-shaped; zero on the boundary layer
    max: float
    argmax: tuple[int, ...]
    rho_rescaled: bool          # True unless the domain is the unit ball at the origin


def _phi_diagnostic(dom: GridDomain, radius: float, grad2: np.ndarray,
                    top: np.ndarray) -> PhiDiagnostic:
    pts = dom.points[dom.interior_idx]
    center = dom.center
    rho = 1.0 - np.sum((pts - center) ** 2, axis=1) / (radius * radius)
    a_sup = float(np.max(grad2))
    if a_sup == 0.0:
        g = np.ones_like(grad2)
    else:
        g = (1.0 - 0.5 * grad2 / a_sup) ** (-1.0 / 3.0)
    phi = rho * g * top
    values = np.zeros(dom.n_points)
    values[dom.interior_idx] = phi
    best = int(np.argmax(phi))
    argmax = tuple(int(v) for v in np.unravel_index(dom.interior_idx[best], dom.shape))
    rescaled = not (abs(radius - 1.0) < 1e-12 and np.all(np.abs(center) < 1e-12))
    return PhiDiagnostic(values.reshape(dom.shape), float(phi[best]), argmax, rescaled)


def phi_diagnostic(fld: ScalarField) -> PhiDiagnostic:
    """rho(x) g(|Du|^2/2) u_tt with rho = 1 - |x - x_c|^2 / r^2 and
    g(t) = (1 - t/(sup|Du|^2))^(-1/3); u_tt is the top Hessian eigenvalue.

    For a constant field (sup|Du| = 0) g is taken identically 1.
    """
    _, eigs, grad = _interior_arrays(fld)
    return _phi_diagnostic(fld.domain, fld.domain.inscribed_radius,
                           np.sum(grad ** 2, axis=1), eigs[:, -1])


@dataclass(frozen=True)
class PDiagnostic:
    values: np.ndarray          # grid-shaped; -inf where excluded
    max: float
    argmax: tuple[int, ...]
    excluded: int               # interior points with u >= 0 or a nonpositive top eigenvalue


def _p_diagnostic(dom: GridDomain, u_int: np.ndarray, top: np.ndarray, grad2: np.ndarray,
                  beta: float, a: float, big_a: float) -> PDiagnostic:
    include = (u_int < 0) & (top > 0)
    excluded = int(np.sum(~include))
    if not include.any():
        raise DegenerateFieldError("every interior point was excluded from the diagnostic")
    pts = dom.points[dom.interior_idx]
    vals = np.full(u_int.shape, -np.inf)
    vals[include] = (
        beta * np.log(-u_int[include])
        + np.log(top[include])
        + 0.5 * a * grad2[include]
        + 0.5 * big_a * np.sum(pts[include] ** 2, axis=1)
    )
    values = np.full(dom.n_points, -np.inf)
    values[dom.interior_idx] = vals
    best = int(np.argmax(vals))
    argmax = tuple(int(v) for v in np.unravel_index(dom.interior_idx[best], dom.shape))
    return PDiagnostic(values.reshape(dom.shape), float(vals[best]), argmax, excluded)


def p_diagnostic(fld: ScalarField, beta: float = 2.0, a: float = 0.1,
                 big_a: float = 1.0) -> PDiagnostic:
    """beta log(-u) + log u_11 + (a/2)|Du|^2 + (A/2)|x|^2 with u_11 the top
    Hessian eigenvalue.

    Interior points with u >= 0 are excluded and counted; points with a
    nonpositive top eigenvalue (log undefined) fall under the same counter.
    Raises DegenerateFieldError when every interior point is excluded.
    """
    if not _boundary_is_zero(fld):
        raise ValueError("the log(-u) diagnostic requires identically zero boundary data")
    u_int, eigs, grad = _interior_arrays(fld)
    return _p_diagnostic(fld.domain, u_int, eigs[:, -1], np.sum(grad ** 2, axis=1),
                         beta, a, big_a)


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


def build_report(instance: str, fld: ScalarField, betas: tuple[float, ...] = (1.0, 2.0, 4.0),
                 p_beta: float = 2.0, p_a: float = 0.1, p_big_a: float = 1.0) -> EstimateReport:
    """Evaluate every estimate quantity on one field.

    Weighted products and the log diagnostic are present only when the
    boundary data is identically zero. The field's Hessians are decomposed
    once and its gradient taken once, whatever the number of weights.
    """
    dom = fld.domain
    radius = dom.inscribed_radius
    u_int, eigs, grad = _interior_arrays(fld)
    grad2 = np.sum(grad ** 2, axis=1)
    top = eigs[:, -1]
    phi = _phi_diagnostic(dom, radius, grad2, top)
    if _boundary_is_zero(fld):
        _check_max_principle(fld)
        spectral_norm = np.max(np.abs(eigs), axis=1)
        weighted = {b: _pogorelov_product(u_int, spectral_norm, b) for b in betas}
        pog = weighted[1.0] if 1.0 in weighted else _pogorelov_product(u_int, spectral_norm, 1.0)
        p_diag = _p_diagnostic(dom, u_int, top, grad2, p_beta, p_a, p_big_a)
        p_max, p_argmax = p_diag.max, p_diag.argmax
    else:
        pog = None
        weighted = {b: None for b in betas}
        p_max, p_argmax = None, None
    sup_du = _sup_gradient(grad)
    d2u_center = center_hessian_norm(fld)
    return EstimateReport(
        instance=instance,
        h=dom.h,
        sup_du=sup_du,
        sup_d2u=_sup_hessian_norm(eigs),
        d2u_center=d2u_center,
        interior_ratio=_interior_ratio(d2u_center, sup_du, radius),
        pogorelov=pog,
        weighted=weighted,
        phi_max=phi.max,
        phi_argmax=phi.argmax,
        p_max=p_max,
        p_argmax=p_argmax,
        rho_rescaled=phi.rho_rescaled,
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
