"""Uniform box grids with a one-point Dirichlet boundary layer.

A domain is a box split into equal cells (same spacing on every axis),
optionally intersected with a mask predicate: grid points where the mask
is False are treated as boundary points and carry Dirichlet values, which
yields staircase approximations of discs and balls. Fields store one value
per grid point, boundary layer included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

MIN_CELLS = 8


@dataclass
class GridDomain:
    """Uniform grid on a box, optional interior mask, spacing h on all axes."""

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]
    mask: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mask_name: str = "box"

    h: float = field(init=False)
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        self.lower = tuple(float(v) for v in self.lower)
        self.upper = tuple(float(v) for v in self.upper)
        self.cells = tuple(int(c) for c in self.cells)
        if not (len(self.lower) == len(self.upper) == len(self.cells) == self.dim):
            raise ValueError("lower/upper/cells must all have length dim")
        if any(c < MIN_CELLS for c in self.cells):
            raise ValueError(f"cells per axis must be >= {MIN_CELLS}, got {self.cells}")
        spacings = [(u - l) / c for l, u, c in zip(self.lower, self.upper, self.cells)]
        if any(s <= 0 for s in spacings):
            raise ValueError("upper corner must exceed lower corner on every axis")
        if max(spacings) - min(spacings) > 1e-12 * max(spacings):
            raise ValueError(f"spacing must be uniform across axes, got {spacings}")
        self.h = spacings[0]
        self.shape = tuple(c + 1 for c in self.cells)
        self._build()

    def _build(self):
        axes = [self.lower[a] + self.h * np.arange(self.shape[a]) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self._points = np.stack([m.ravel() for m in mesh], axis=-1)  # (N, dim)
        strict = np.ones(self.shape, dtype=bool)
        for a in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[a] = 0
            strict[tuple(sl)] = False
            sl[a] = -1
            strict[tuple(sl)] = False
        interior = strict.ravel()
        if self.mask is not None:
            interior = interior & np.asarray(self.mask(self._points), dtype=bool)
        self._interior_flat = interior
        self._interior_idx = np.flatnonzero(interior)
        self._strides = tuple(int(np.prod(self.shape[a + 1:], dtype=int)) for a in range(self.dim))

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def points(self) -> np.ndarray:
        """All grid point coordinates, shape (n_points, dim), row-major order."""
        return self._points

    @property
    def interior_flat(self) -> np.ndarray:
        """Boolean flat array marking interior points."""
        return self._interior_flat

    @property
    def interior_idx(self) -> np.ndarray:
        """Flat indices of interior points."""
        return self._interior_idx

    @property
    def strides(self) -> tuple[int, ...]:
        """Flat-index offset of a +1 step along each axis."""
        return self._strides

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lower) + np.asarray(self.upper))

    @property
    def inscribed_radius(self) -> float:
        """Distance from the domain center to the nearest boundary grid point."""
        bdry = self._points[~self._interior_flat]
        return float(np.min(np.linalg.norm(bdry - self.center, axis=1)))

    def center_index(self) -> tuple[int, ...]:
        """Multi-index of the grid point nearest the domain center."""
        return tuple(int(round((c - l) / self.h)) for c, l in zip(self.center, self.lower))


def ball_mask(domain_lower, domain_upper) -> Callable[[np.ndarray], np.ndarray]:
    """Mask for the open ball inscribed in the box (staircase boundary)."""
    lower = np.asarray(domain_lower, dtype=float)
    upper = np.asarray(domain_upper, dtype=float)
    center = 0.5 * (lower + upper)
    radius = 0.5 * float(np.min(upper - lower))

    def mask(points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(points - center, axis=-1) < radius

    return mask


def make_domain(dim, lower, upper, cells, mask_name="box") -> GridDomain:
    """Build a domain; mask_name is 'box' or 'ball'."""
    if mask_name == "box":
        mask = None
    elif mask_name == "ball":
        mask = ball_mask(lower, upper)
    else:
        raise ValueError(f"unknown mask '{mask_name}' (expected 'box' or 'ball')")
    return GridDomain(dim=dim, lower=tuple(lower), upper=tuple(upper),
                      cells=tuple(cells), mask=mask, mask_name=mask_name)


@dataclass
class ScalarField:
    """Grid function; values indexed like the grid shape (boundary included)."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.domain.shape}"
            )

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def copy(self) -> "ScalarField":
        return ScalarField(self.domain, self.values.copy())


def _hessian_stencil(fld: ScalarField, idx: np.ndarray) -> np.ndarray:
    """Discrete Hessians at the flat indices idx, all interior, shape
    (idx.size, d, d).

    Second-order central differences: diagonal entries from the 3-point
    stencil, mixed entries from the 4-point cross stencil. Exact on
    quadratics.
    """
    dom = fld.domain
    flat = fld.flat
    h2 = dom.h * dom.h
    s = dom.strides
    d = dom.dim
    out = np.empty((idx.size, d, d))
    for a in range(d):
        out[:, a, a] = (flat[idx + s[a]] - 2.0 * flat[idx] + flat[idx - s[a]]) / h2
        for b in range(a + 1, d):
            cross = (
                flat[idx + s[a] + s[b]]
                - flat[idx + s[a] - s[b]]
                - flat[idx - s[a] + s[b]]
                + flat[idx - s[a] - s[b]]
            ) / (4.0 * h2)
            out[:, a, b] = cross
            out[:, b, a] = cross
    return out


def hessian_at(fld: ScalarField, point: tuple[int, ...]) -> np.ndarray:
    """Discrete Hessian at one interior multi-index, shape (d, d)."""
    dom = fld.domain
    idx = int(np.ravel_multi_index(point, dom.shape))
    if not dom.interior_flat[idx]:
        raise ValueError(f"point {point} is not interior")
    return _hessian_stencil(fld, np.array([idx]))[0]


def hessian_field(fld: ScalarField) -> np.ndarray:
    """Discrete Hessians at every interior point, shape (n_interior, d, d)."""
    return _hessian_stencil(fld, fld.domain.interior_idx)


def gradient_field(fld: ScalarField) -> np.ndarray:
    """Centered gradients at every interior point, shape (n_interior, d)."""
    dom = fld.domain
    flat = fld.flat
    idx = dom.interior_idx
    s = dom.strides
    out = np.empty((idx.size, dom.dim))
    for a in range(dom.dim):
        out[:, a] = (flat[idx + s[a]] - flat[idx - s[a]]) / (2.0 * dom.h)
    return out


def write_field(fld: ScalarField, stream) -> None:
    """Plain-text format: header 'dim nx [ny [nz]] x0 y0 ... h', then one
    value per line in row-major order.

    A masked domain appends its mask name and upper corner to the header,
    'dim nx ... x0 ... h mask X0 ...', so that reading the file rebuilds
    the same interior. The upper corner is stored rather than rebuilt as
    lower + h * cells, which can round to a different ball mask.
    """
    dom = fld.domain
    header = [str(dom.dim)] + [str(n) for n in dom.shape] \
        + [repr(v) for v in dom.lower] + [repr(dom.h)]
    if dom.mask_name != "box":
        header += [dom.mask_name] + [repr(v) for v in dom.upper]
    stream.write(" ".join(header) + "\n")
    stream.write("\n".join(map(repr, fld.flat.tolist())) + "\n")


def read_field(stream) -> ScalarField:
    """Read the plain-text format of write_field. A header without the mask
    name and upper corner is read as a plain box."""
    header = stream.readline().split()
    if not header:
        raise ValueError("empty field file")
    dim = int(header[0])
    box_len = 1 + dim + dim + 1
    if len(header) not in (box_len, box_len + 1 + dim):
        raise ValueError(f"malformed field header: expected {box_len} or "
                         f"{box_len + 1 + dim} entries, got {len(header)}")
    shape = tuple(int(v) for v in header[1:1 + dim])
    lower = tuple(float(v) for v in header[1 + dim:1 + 2 * dim])
    h = float(header[box_len - 1])
    cells = tuple(n - 1 for n in shape)
    if len(header) == box_len:
        upper = tuple(l + h * c for l, c in zip(lower, cells))
        dom = GridDomain(dim=dim, lower=lower, upper=upper, cells=cells)
    else:
        upper = tuple(float(v) for v in header[box_len + 1:])
        dom = make_domain(dim, lower, upper, cells, header[box_len])
        if dom.h != h:
            raise ValueError(f"field header spacing {h!r} does not match its corners ({dom.h!r})")
    values = np.fromiter(map(float, stream.read().split()), dtype=float)
    if values.size != np.prod(shape):
        raise ValueError(
            f"field file has {values.size} values, expected {int(np.prod(shape))}"
        )
    return ScalarField(dom, values.reshape(shape))
