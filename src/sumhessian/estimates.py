"""Estimate diagnostics on solved fields.

``build_report`` evaluates one row of estimate quantities per field:

- sup|Du| and sup|D^2 u| over the interior, and |D^2 u| at the point
  nearest the center;
- the interior ratio |D^2 u(center)| / (1 + sup|Du| / R), R the inscribed
  radius: the empirical constant of the interior C^2 estimate;
- for zero boundary data, the Pogorelov-type weighted products
  max (-u)^beta |D^2 u| and the log test function
  P = beta log(-u) + log u_11 + (a/2)|Du|^2 + (A/2)|x|^2, its beta, a and A
  the constants P_BETA, P_A and P_BIG_A;
- the test function phi.

Of phi and P the maximum and its maximizer are reported. |D^2 u| is the
spectral norm (largest-magnitude eigenvalue); the top signed eigenvalue
plays the role of the maximal second directional derivative. A report
streams over the ``grid.interior_blocks`` blocks twice, whatever the
number of weights, and keeps no per-point array of the whole interior. The
first pass reads each block's gradient for sup|Du|^2, which the weight of
phi needs at every point. The second reads each block's Hessian stencil
once, takes each point's top eigenvalue and spectral norm from the packed
rows in closed form (``grid.top_and_norm``), reads the gradient again, and
keeps only running maxima and the first maximizer in interior order (the
point ``np.argmax`` picks over the whole interior), so a report is bitwise
that of one whole-interior pass. Every weight must be a finite number >= 1
(``check_betas``), and every field value finite. ``write_reports`` writes the
table, its columns EstimateReport's fields, each cell by ``csv_cell``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DegenerateFieldError, MaxPrincipleError, NonFiniteFieldError
from .grid import (
    GridDomain,
    ScalarField,
    boundary_pieces,
    gradient_field,
    hessian_field,
    interior_blocks,
    squared_distance,
    top_and_norm,
)

# defaults of build_report, which the config loader and the CLI read from here
BETAS = (1.0, 2.0, 4.0)    # weights of the products (-u)^beta |D^2 u|
# beta, a and A of the log diagnostic P: constants, so a field and its
# weights fix the report, whether read from a field file or solved from a config
P_BETA, P_A, P_BIG_A = 2.0, 0.1, 1.0
WEIGHT_COLUMN = "weighted_pogorelov_b{:g}"  # a weight's column in the table


def check_betas(betas) -> None:
    """Raise ValueError unless every weight is a finite number >= 1 with a column of its own."""
    columns = {}
    for beta in betas:
        if not 1.0 <= beta < np.inf:
            raise ValueError(f"beta must be a finite number >= 1, got {beta!r}")
        name = WEIGHT_COLUMN.format(beta)
        if columns.setdefault(name, beta) != beta:
            raise ValueError(f"weights {columns[name]!r} and {beta!r} share the column {name}")


def _phi_values(dom: GridDomain, block: slice, radius: float, grad2: np.ndarray,
                a_sup: float, top: np.ndarray) -> np.ndarray:
    """rho(x) g(|Du|^2/2) u_tt at the interior positions of one
    ``interior_blocks`` block, with
    rho = 1 - |x - x_c|^2 / r^2, g(t) = (1 - t/a_sup)^(-1/3), a_sup = sup|Du|^2,
    and u_tt the top Hessian eigenvalue.

    For a constant field (sup|Du| = 0) g is taken identically 1.
    """
    rho = 1.0 - squared_distance(dom, dom.center, block) / (radius * radius)
    if a_sup == 0.0:
        g = np.ones_like(grad2)
    else:
        g = (1.0 - 0.5 * grad2 / a_sup) ** (-1.0 / 3.0)
    return rho * g * top


def _p_values(dom: GridDomain, block: slice, u: np.ndarray, top: np.ndarray,
              grad2: np.ndarray, include: np.ndarray) -> np.ndarray:
    """beta log(-u) + log u_11 + (a/2)|Du|^2 + (A/2)|x|^2 at the interior
    positions of one ``interior_blocks`` block, u_11 the top Hessian
    eigenvalue.

    Points outside ``include``, those with u >= 0 or a nonpositive top
    eigenvalue (log undefined), read -inf.
    """
    vals = np.full(u.shape, -np.inf)
    vals[include] = (
        P_BETA * np.log(-u[include])
        + np.log(top[include])
        + 0.5 * P_A * grad2[include]
        + 0.5 * P_BIG_A * squared_distance(dom, np.zeros(dom.dim), block)[include]
    )
    return vals


def _first_maximizer(dom: GridDomain, maxima: list) -> tuple[float, tuple[int, ...]]:
    """The largest of the blocks' (value, interior position) maxima, each at
    the block's ``np.argmax``, and the grid multi-index of its point.
    ``np.argmax`` over them picks the earliest block holding a NaN, else the
    earliest holding the maximum: the point it picks over the whole
    interior."""
    values, positions = zip(*maxima)
    best = int(np.argmax(values))
    point = np.unravel_index(dom.interior_idx[positions[best]], dom.shape)
    return float(values[best]), tuple(int(v) for v in point)


def _zero_boundary(fld: ScalarField) -> bool:
    """Whether the field is zero on its whole boundary layer."""
    return all(np.all(fld.flat[idx] == 0.0) for idx in boundary_pieces(fld.domain))


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


def build_report(instance: str, fld: ScalarField,
                 betas: tuple[float, ...] = BETAS) -> EstimateReport:
    """Evaluate every estimate quantity on one field, under the weights
    betas and P's constants P_BETA, P_A and P_BIG_A.

    Weighted products and the log diagnostic are present only when the
    boundary data is identically zero. Then a field positive anywhere raises
    MaxPrincipleError (a solution of the zero-boundary problem with positive
    right-hand side is nonpositive). A weight that is not a finite number
    >= 1 raises ValueError (``check_betas``) before any work, whatever the
    boundary data; so does a point nearest the center that is not interior.
    A NaN or infinite field value raises NonFiniteFieldError, naming the
    first such grid point.
    """
    check_betas(betas)
    dom = fld.domain
    bad = np.flatnonzero(~np.isfinite(fld.flat))
    if bad.size:
        raise NonFiniteFieldError(np.unravel_index(bad[0], dom.shape), fld.flat[bad[0]])
    center = dom.center_index()
    center_flat = int(np.ravel_multi_index(center, dom.shape))
    if not dom.interior_flat[center_flat]:
        raise ValueError(f"center point {center} is not interior")
    center_row = int(np.searchsorted(dom.interior_idx, center_flat))
    radius = dom.inscribed_radius
    zero_data = _zero_boundary(fld)
    if zero_data and np.any(fld.flat > 0):
        raise MaxPrincipleError("field is positive somewhere; maximum principle violated")

    def grad2(block: slice) -> np.ndarray:
        """|Du|^2 of the block, summed over the gradient's contiguous
        columns in axis order."""
        grad = gradient_field(fld, block)
        out = np.zeros(grad.shape[0])
        for a in range(dom.dim):
            out += grad[:, a] ** 2
        return out

    # first pass: sup |Du|^2, which the weight g of phi reads at every point
    a_sup = float(np.max([np.max(grad2(block)) for block in interior_blocks(dom)]))
    # second pass: the stencil and top_and_norm run on one block at a time
    products = dict.fromkeys(tuple(betas) + (1.0,), -np.inf)
    sup_d2u, d2u_center = -np.inf, None
    phi, p_diag = [], []    # each block's maximum and its interior position

    def block_max(vals: np.ndarray, block: slice) -> tuple[np.float64, int]:
        best = int(np.argmax(vals))
        return vals[best], block.start + best

    included = False
    for block in interior_blocks(dom):
        top, spectral_norm = top_and_norm(hessian_field(fld, block))
        sup_d2u = float(np.maximum(sup_d2u, np.max(spectral_norm)))
        if block.start <= center_row < block.stop:
            d2u_center = float(spectral_norm[center_row - block.start])
        g2 = grad2(block)
        phi.append(block_max(_phi_values(dom, block, radius, g2, a_sup, top), block))
        if zero_data:
            u = fld.flat[dom.interior_idx[block]]
            for beta in products:
                products[beta] = float(np.maximum(products[beta],
                                                  np.max((-u) ** beta * spectral_norm)))
            include = (u < 0) & (top > 0)
            included |= bool(include.any())
            p_diag.append(block_max(_p_values(dom, block, u, top, g2, include), block))
    if zero_data:
        if not included:
            raise DegenerateFieldError("every interior point was excluded from the diagnostic")
        weighted = {b: products[b] for b in betas}
        pog = products[1.0]
        p_max, p_argmax = _first_maximizer(dom, p_diag)
    else:
        pog = None
        weighted = {b: None for b in betas}
        p_max, p_argmax = None, None
    sup_du = float(np.sqrt(a_sup))
    phi_max, phi_argmax = _first_maximizer(dom, phi)
    return EstimateReport(
        instance=instance,
        h=dom.h,
        sup_du=sup_du,
        sup_d2u=sup_d2u,
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


def csv_cell(value) -> str:
    """One CSV cell: NA for None, a '/'-joined tuple, a lower-case bool, a repr float, else str."""
    if value is None:
        return "NA"
    if isinstance(value, tuple):
        return "/".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row(rep: EstimateReport, betas) -> dict:
    """The report's cells by column, in EstimateReport's field order, with
    ``weighted`` spread over one column per weight of betas (None if absent)."""
    row = {}
    for f in fields(EstimateReport):
        if f.name == "weighted":
            row.update((WEIGHT_COLUMN.format(b), rep.weighted.get(b)) for b in betas)
        else:
            row[f.name] = getattr(rep, f.name)
    return row


def write_reports(reports: list[EstimateReport], stream, family_max: bool = False) -> None:
    """CSV table, one row per instance (``_row``); with family_max a final
    row holds each column's maximum numeric entry (the empirical constants),
    NA for h. The weighted columns are the union of the reports' weights, in
    the order first seen, checked by ``check_betas``."""
    if not reports:
        raise ValueError("no reports to write")
    betas = tuple(dict.fromkeys(b for rep in reports for b in rep.weighted))
    check_betas(betas)
    rows = [_row(rep, betas) for rep in reports]
    if family_max:
        maxima = {name: max((row[name] for row in rows
                             if isinstance(row[name], (int, float))
                             and not isinstance(row[name], bool)), default=None)
                  for name in rows[0]}
        rows.append(maxima | {"instance": "FAMILY_MAX", "h": None})
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(map(csv_cell, row.values()) for row in rows)
