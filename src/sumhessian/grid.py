"""Uniform box grids with a one-point Dirichlet boundary layer.

A domain is a box split into equal cells (same spacing on every axis),
optionally intersected with the open ball inscribed in the box: grid points
outside the ball are treated as boundary points and carry Dirichlet values,
which yields staircase approximations of discs and balls. Fields store one
value per grid point, boundary layer included. A domain keeps its mask,
interior indices and strides, not its coordinates: the coordinate on axis
a is lower[a] + h i_a, built per axis for every point or for an index
array (``GridDomain.coordinate``); ``squared_distance`` broadcasts each
axis's coordinates over a box block's planes.

Per-point symmetric matrices are packed: an array (d(d+1)/2, n) holds one
contiguous row per entry (a, b), a <= b, in ``sym_pairs`` order, the
diagonal first. ``hessian_field`` returns the discrete Hessians this way,
of every interior point or of one block of them (``interior_blocks``):
whole inner planes along axis 0 of a box, read as shifted slices of the
grid-shaped values, or about ``BLOCK_POINTS`` interior points of a ball,
gathered at their indices. ``gradient_field`` reads the same blocks.
Every per-point stage of the package reads the stencil and the gradient
block by block, and the boundary layer in ``boundary_pieces``; the
solver keeps the layout through its invariant kernel and assembly, and
the estimates read each point's top eigenvalue and spectral norm from the
packed rows in closed form (``top_and_norm``), with no (n, d, d) stack.

Building a domain, writing a field and reading one make no (N, dim) array
and no Python object per grid value: the ball test sums squared distances
axis by axis (``squared_distance``), the writer formats each distinct bit
pattern of a ``WRITE_CHUNK`` block of values once, and the reader parses
with numpy's C parser.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

MIN_CELLS = 8
MASK_NAMES = ("box", "ball")
# interior points per block of the per-point stages (the Hessian stencil,
# the solver's invariant kernel, the estimates' top_and_norm; see
# interior_blocks): a 32^3 ball or box is one block, as in a whole-grid
# pass, and 64^3 grids run as fast as at 16384; 8192 slowed the 64^3 box's
# admissibility test, each block paying ~25 small stencil operations
BLOCK_POINTS = 32768
# points per chunk of top_and_norm, whose 3D kernel holds some 25
# temporaries per point: 4096 keeps them at 0.8 MB, inside a 2 MiB L2
# cache, and runs within 10% of 8192 and 32768 on a 32^3 ball
KERNEL_CHUNK = 4096
WRITE_CHUNK = 8192  # values formatted per write of write_field


@dataclass
class GridDomain:
    """Uniform grid on a box, spacing h on all axes. ``mask_name`` is 'box'
    (every strictly inner grid point is interior) or 'ball' (only those
    inside the open ball inscribed in the box).

    ``plane`` is the number of interior points per axis-0 plane when the
    interior is every strictly inner point, so that it is whole inner
    axis-0 planes, and 0 otherwise."""

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]
    mask_name: str = "box"

    h: float = field(init=False)
    shape: tuple[int, ...] = field(init=False)
    plane: int = field(init=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.mask_name not in MASK_NAMES:
            raise ValueError(f"unknown mask '{self.mask_name}' (expected 'box' or 'ball')")
        self.lower = tuple(float(v) for v in self.lower)
        self.upper = tuple(float(v) for v in self.upper)
        self.cells = tuple(int(c) for c in self.cells)
        if not (len(self.lower) == len(self.upper) == len(self.cells) == self.dim):
            raise ValueError("lower/upper/cells must all have length dim")
        if any(c < MIN_CELLS for c in self.cells):
            raise ValueError(f"cells per axis must be >= {MIN_CELLS}, got {self.cells}")
        if not all(math.isfinite(v) for v in self.lower + self.upper):
            raise ValueError(f"corners must be finite, got {self.lower} and {self.upper}")
        spacings = [(u - l) / c for l, u, c in zip(self.lower, self.upper, self.cells)]
        if any(s <= 0 for s in spacings):
            raise ValueError("upper corner must exceed lower corner on every axis")
        if max(spacings) - min(spacings) > 1e-12 * max(spacings):
            raise ValueError(f"spacing must be uniform across axes, got {spacings}")
        self.h = spacings[0]
        self.shape = tuple(c + 1 for c in self.cells)
        self._build()

    def _build(self):
        self._strides = tuple(int(np.prod(self.shape[a + 1:], dtype=int)) for a in range(self.dim))
        strict = np.ones(self.shape, dtype=bool)
        for a in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[a] = 0
            strict[tuple(sl)] = False
            sl[a] = -1
            strict[tuple(sl)] = False
        interior = strict.ravel()
        if self.mask_name == "ball":
            radius = 0.5 * float(np.min(np.asarray(self.upper) - np.asarray(self.lower)))
            interior &= np.sqrt(squared_distance(self, self.center)) < radius
        self._interior_flat = interior
        self._interior_idx = np.flatnonzero(interior)
        inner = [n - 2 for n in self.shape]
        self.plane = math.prod(inner[1:]) if self._interior_idx.size == math.prod(inner) else 0

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def axis_values(self, axis: int) -> np.ndarray:
        """The coordinates lower + h i, i = 0 .. shape[axis] - 1, of one axis."""
        return self.lower[axis] + self.h * np.arange(self.shape[axis])

    def coordinate(self, axis: int, idx: np.ndarray | None = None) -> np.ndarray:
        """Coordinate lower + h i on one axis of every grid point, (n_points,)
        in row-major order, or of the points at the flat indices idx."""
        values = self.axis_values(axis)
        if idx is None:
            along = [1] * self.dim
            along[axis] = self.shape[axis]
            return np.broadcast_to(values.reshape(along), self.shape).ravel()
        return values[idx // self._strides[axis] % self.shape[axis]]

    @property
    def points(self) -> np.ndarray:
        """All grid point coordinates, shape (n_points, dim), row-major order.
        Built on access from ``coordinate``, not stored; the package itself
        never reads it."""
        return np.stack([self.coordinate(a) for a in range(self.dim)], axis=1)

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
        return float(np.sqrt(min(np.min(squared_distance(self, self.center, idx))
                                 for idx in boundary_pieces(self))))

    def center_index(self) -> tuple[int, ...]:
        """Multi-index of the grid point nearest the domain center."""
        return tuple(int(round((c - l) / self.h)) for c, l in zip(self.center, self.lower))


def squared_distance(dom: GridDomain, center, where=None) -> np.ndarray:
    """|x - center|^2 for every grid point x of dom (``where`` None), for the
    interior positions a slice names (an ``interior_blocks`` block, say), or
    for the points at the flat indices of an array. The squares are summed
    axis by axis, in axis order, which is bitwise what
    ``np.sum((dom.points - center) ** 2, axis=1)`` gives, without its
    (N, dim) arrays. A slice of whole axis-0 planes (``_whole_planes``)
    broadcasts each axis's squares over the block, with no index arithmetic
    per point; another slice gathers at its interior indices."""
    planes = _whole_planes(dom, where)
    if planes is not None:
        first, last = planes
        spans = (slice(1 + first, 1 + last),) + (slice(1, -1),) * (dom.dim - 1)
        out = np.zeros((last - first,) + tuple(n - 2 for n in dom.shape[1:]))
        for a, c in enumerate(center):
            along = [1] * dom.dim
            along[a] = -1
            out += (dom.axis_values(a)[spans[a]] - c).reshape(along) ** 2
        return out.ravel()
    idx = dom.interior_idx[where] if isinstance(where, slice) else where
    out = np.zeros(dom.n_points if idx is None else idx.size)
    for a, c in enumerate(center):
        out += (dom.coordinate(a, idx) - c) ** 2
    return out


def point_blocks(n: int, size: int | None = None):
    """Consecutive slices of at most size items, BLOCK_POINTS when None,
    covering range(n)."""
    size = size or BLOCK_POINTS
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def boundary_pieces(dom: GridDomain):
    """Flat indices of the boundary layer in increasing order, in pieces of
    at most BLOCK_POINTS / 4: those among each ``point_blocks`` slice of the
    grid's points, split. About half a ball's points are boundary points,
    and an expression evaluated on a piece holds some six arrays of its
    size (coordinates and temporaries): with quarter blocks a ball's
    boundary_values peaks at 1.3 times the field at 64^3, with whole
    slices at 1.7."""
    for piece in point_blocks(dom.n_points):
        idx = np.flatnonzero(~dom.interior_flat[piece])
        idx += piece.start
        for part in point_blocks(idx.size, max(1, BLOCK_POINTS // 4)):
            yield idx[part]


def interior_blocks(dom: GridDomain):
    """Consecutive slices of interior positions (of ``interior_idx``) covering
    every interior point, about BLOCK_POINTS each. Where the interior is
    whole inner axis-0 planes (``GridDomain.plane``, a box) a block is whole
    planes, at least one, which ``hessian_field`` reads as slices of the
    grid; elsewhere (a ball) it is BLOCK_POINTS points."""
    plane = dom.plane
    return point_blocks(dom.interior_idx.size,
                        max(1, BLOCK_POINTS // plane) * plane if plane else BLOCK_POINTS)


def _whole_planes(dom: GridDomain, where):
    """(first, last): the inner axis-0 planes first..last - 1 whose points
    are the interior positions the slice ``where`` names, when the interior
    is whole axis-0 planes (``GridDomain.plane``) and the slice has step 1
    and covers whole planes; else None. Those positions, in interior_idx
    order, are then the grid's points in those planes, inner on every
    other axis, in row-major order."""
    plane = dom.plane if isinstance(where, slice) else 0
    if not plane:
        return None
    points = range(*where.indices(dom.interior_idx.size))
    if points.step == 1 and points.start % plane == len(points) % plane == 0:
        return points.start // plane, (points.start + len(points)) // plane
    return None


def make_domain(dim, lower, upper, cells, mask_name="box") -> GridDomain:
    """Build a domain; mask_name is 'box' or 'ball'."""
    return GridDomain(dim, lower, upper, cells, mask_name)


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


def sym_pairs(dim: int) -> list[tuple[int, int]]:
    """Entry (a, b) of each packed row of a symmetric dim x dim matrix: the
    diagonal (a, a) first, then a < b in row-major order."""
    return [(a, a) for a in range(dim)] + list(itertools.combinations(range(dim), 2))


def top_and_norm(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and spectral norm (largest |eigenvalue|) of each packed
    symmetric matrix (d(d+1)/2, N), d = 2 or 3, in closed form, a
    ``KERNEL_CHUNK`` of points at a time.

    With m the mean of the diagonal and s = A - m I, d = 2 reads m +- r,
    r = hypot((a - c)/2, b). For d = 3 the eigenvalues of s are
    2 sqrt(J2/3) cos(theta - 2 pi j/3), J2 = tr(s^2)/2, J3 = det s, 3 theta
    = atan2(sqrt(Delta/108), J3/2), where Delta = 4 J2^3 - 27 J3^2 is the
    discriminant prod (l_i - l_j)^2. Delta is formed as a sum of squares,
    never as that difference, which cancels at nearly double eigenvalues:
    it is the Gram determinant of I, s, s^2 under the Frobenius product
    (Cauchy-Binet on the Vandermonde matrix; Harari and Albocher, IJNME
    2023), and I is orthogonal to s and to the traceless part of s^2, so
    Delta / 3 is the sum of the squared 2 x 2 minors of their coordinates in
    an orthonormal basis of traceless symmetric matrices. Each point's s is
    divided by its largest entry first, so no cube overflows or underflows.
    """
    n = packed.shape[1]
    top, norm = np.empty(n), np.empty(n)
    kernel = _top_and_norm_2d if packed.shape[0] == 3 else _top_and_norm_3d
    for chunk in point_blocks(n, KERNEL_CHUNK):
        kernel(packed[:, chunk], top[chunk], norm[chunk])
    return top, norm


def _top_and_norm_2d(packed, top, norm):
    a, c, b = packed
    m = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    np.add(m, r, out=top)
    np.add(np.abs(m), r, out=norm)


def _top_and_norm_3d(packed, top, norm):
    a00, a11, a22, a01, a02, a12 = packed
    m = (a00 + a11 + a22) / 3.0
    d = [a00 - m, a11 - m, a22 - m]
    scale = np.abs(d[0])
    for row in d[1:] + [a01, a02, a12]:
        np.maximum(scale, np.abs(row), out=scale)
    scale[scale == 0.0] = 1.0
    d0, d1, d2, o01, o02, o12 = (v / scale for v in d + [a01, a02, a12])
    # s^2: diagonal e, off-diagonal f
    e0 = d0 * d0 + o01 * o01 + o02 * o02
    e1 = o01 * o01 + d1 * d1 + o12 * o12
    e2 = o02 * o02 + o12 * o12 + d2 * d2
    f = [o01 * (d0 + d1) + o02 * o12, o02 * (d0 + d2) + o01 * o12, o12 * (d1 + d2) + o01 * o02]
    j2 = 0.5 * (e0 + e1 + e2)
    j3 = d0 * (d1 * d2 - o12 * o12) - o01 * (o01 * d2 - o12 * o02) + o02 * (o01 * o12 - d1 * o02)
    # coordinates of s and s^2 in the orthonormal basis (diag(1, -1, 0)/sqrt 2,
    # diag(1, 1, -2)/sqrt 6, and sqrt 2 times each off-diagonal unit pair),
    # with the constant factors moved onto the minors' squares
    o = [o01, o02, o12]
    xs, ys, xw, yw = d0 - d1, d0 + d1 - 2.0 * d2, e0 - e1, e0 + e1 - 2.0 * e2
    delta3 = (xs * yw - ys * xw) ** 2 / 12.0
    for k in range(3):
        delta3 += (xs * f[k] - o[k] * xw) ** 2 + (ys * f[k] - o[k] * yw) ** 2 / 3.0
    for j, k in ((0, 1), (0, 2), (1, 2)):
        delta3 += 4.0 * (o[j] * f[k] - o[k] * f[j]) ** 2
    # atan2(sqrt(Delta/108), J3/2) with both arguments times 6
    theta = np.arctan2(np.sqrt(delta3), 3.0 * j3) / 3.0
    radius = 2.0 * scale * np.sqrt(j2 / 3.0)
    np.add(m, radius * np.cos(theta), out=top)
    np.maximum(np.abs(top), np.abs(m - radius * np.cos(np.pi / 3.0 - theta)), out=norm)


def _shifted(fld: ScalarField, where):
    """(at, shape): at(o) is the field's values, an array of this shape, moved
    by the integer offset vector o, at the points ``where`` names: every
    interior point when None, the interior positions a slice names (an
    ``interior_blocks`` block, say), or the flat indices of an array. Where
    the interior is whole axis-0 planes (``GridDomain.plane``), a slice with
    step 1 that covers whole planes is read as a slice of the grid-shaped
    values (in interior_idx order); other points are gathered from the flat
    values."""
    dom = fld.domain
    if where is None:
        where = slice(None)
    planes = _whole_planes(dom, where)
    if planes is not None:
        first, last = planes

        def at(o):
            o = o.tolist()
            return fld.values[(slice(1 + first + o[0], 1 + last + o[0]),)
                              + tuple(slice(1 + c, n - 1 + c) for c, n in zip(o[1:], dom.shape[1:]))]

        return at, (last - first,) + tuple(n - 2 for n in dom.shape[1:])
    idx = dom.interior_idx[where] if isinstance(where, slice) else where
    # an interior point is at least one step from the lower faces, so the
    # base of one shared index array is never negative; each offset is then
    # a view of the flat values, with no index arithmetic per gather
    lowest = sum(dom.strides)
    flat, base = fld.flat, idx - lowest
    return lambda o: flat[lowest + int(np.dot(o, dom.strides)):][base], idx.shape


def stencil_steps(dim: int) -> np.ndarray:
    """The steps of ``_hessian_stencil``, (m, dim) ints over {-1, 0, 1}: the
    centre, +/- each axis and the four diagonals of each axis pair, in
    lexicographic order, which on a grid of at least 3 points per axis is
    that of their flat offsets step . strides (the gap at the first
    differing axis a is at least s_a - 2 sum_{b>a} s_b > 0). The centre is
    the middle row."""
    return np.array([step for step in itertools.product((-1, 0, 1), repeat=dim)
                     if np.count_nonzero(step) <= 2])


def _hessian_stencil(fld: ScalarField, where) -> np.ndarray:
    """Packed discrete Hessians, (d(d+1)/2, n), at the points ``where`` names
    (``_shifted``): every interior point, a block or flat indices.

    Second-order central differences on the steps of ``stencil_steps``:
    diagonal entries from the 3-point stencil, mixed entries from the
    4-point cross stencil. Exact on quadratics.
    """
    dom = fld.domain
    at, shape = _shifted(fld, where)
    h2 = dom.h * dom.h
    unit = np.eye(dom.dim, dtype=int)
    centre = at(np.zeros(dom.dim, dtype=int))
    pairs = sym_pairs(dom.dim)
    out = np.empty((len(pairs),) + shape)
    for row, (a, b) in enumerate(pairs):
        ea, eb = unit[a], unit[b]
        if a == b:
            np.divide(at(ea) - 2.0 * centre + at(-ea), h2, out=out[row])
        else:
            np.divide(at(ea + eb) - at(ea - eb) - at(eb - ea) + at(-ea - eb),
                      4.0 * h2, out=out[row])
    return out.reshape(len(pairs), -1)


def hessian_field(fld: ScalarField, block: slice | None = None) -> np.ndarray:
    """Packed discrete Hessians at every interior point, or at the interior
    positions of one ``interior_blocks`` block, shape (d(d+1)/2, n), rows in
    ``sym_pairs`` order."""
    return _hessian_stencil(fld, block)


def gradient_field(fld: ScalarField, block: slice | None = None) -> np.ndarray:
    """Centered gradients at every interior point, or at the interior
    positions of one ``interior_blocks`` block, shape (n, d): the transpose
    of a (d, n) array, so each component is contiguous."""
    dom = fld.domain
    at, shape = _shifted(fld, block)
    out = np.empty((dom.dim,) + shape)
    for a, e in enumerate(np.eye(dom.dim, dtype=int)):
        np.divide(at(e) - at(-e), 2.0 * dom.h, out=out[a])
    return out.reshape(dom.dim, -1).T


def write_field(fld: ScalarField, stream) -> None:
    """Plain-text format: header 'dim nx [ny [nz]] x0 y0 ... h mask X0 Y0 ...'
    (point counts, lower corner, spacing, mask name, upper corner), then one
    value per line in row-major order, each as its ``repr``: the shortest
    text that reads back bit for bit.

    Each ``WRITE_CHUNK`` block of values is formatted one distinct bit
    pattern at a time, its lines gathered from those texts: the symmetric
    families repeat values bit for bit (the 64^3 quadratic holds 0.7%
    distinct patterns, ball18 2.5%, expradial2d 16%), and a field with no
    repeats writes within 5% of one ``repr`` per value.

    The upper corner is stored rather than rebuilt as lower + h * cells,
    which can round to a different corner: on a ball a different mask, on
    any domain a center and inscribed radius an ulp off.
    """
    dom = fld.domain
    header = [str(dom.dim)] + [str(n) for n in dom.shape] + [repr(v) for v in dom.lower] \
        + [repr(dom.h), dom.mask_name] + [repr(v) for v in dom.upper]
    stream.write(" ".join(header) + "\n")
    flat = fld.flat
    for block in point_blocks(flat.size, WRITE_CHUNK):
        # distinct bit patterns, not distinct floats: -0.0 == 0.0 but reprs differ
        bits, inverse = np.unique(flat[block].view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        stream.write("\n".join(texts[inverse].tolist()) + "\n")


def _header_number(parse, token: str):
    """One number of a field header, int or float as ``parse`` says."""
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"malformed field header: {token!r} is not "
                         f"{'an integer' if parse is int else 'a number'}") from None


def read_field(stream) -> ScalarField:
    """Read the plain-text format of write_field: a header of other than its
    3 dim + 3 entries, a header number that does not parse, or a spacing off
    its corners, raises ValueError."""
    header = stream.readline().split()
    if not header:
        raise ValueError("empty field file")
    dim = _header_number(int, header[0])
    if len(header) != 3 * dim + 3:
        raise ValueError(f"malformed field header: {len(header)} entries, not {3 * dim + 3}")
    shape = tuple(_header_number(int, v) for v in header[1:1 + dim])
    lower = tuple(_header_number(float, v) for v in header[1 + dim:1 + 2 * dim])
    h = _header_number(float, header[1 + 2 * dim])
    upper = tuple(_header_number(float, v) for v in header[3 + 2 * dim:])
    dom = GridDomain(dim, lower, upper, tuple(n - 1 for n in shape), header[2 + 2 * dim])
    if dom.h != h:
        raise ValueError(f"field header spacing {h!r} does not match its corners ({dom.h!r})")
    # numpy's C parser: correctly rounded, so every value written by repr
    # reads back bit for bit, with no token list; a bad token raises
    # ValueError, and an empty body, which loadtxt only warns about, reads
    # as zero values
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(stream, dtype=float, comments=None, ndmin=1)
    if values.size != np.prod(shape):
        raise ValueError(
            f"field file has {values.size} values, expected {int(np.prod(shape))}"
        )
    return ScalarField(dom, values.reshape(shape))
