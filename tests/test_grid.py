"""Grid domains, stencils, and the field file format."""
import io
import math

import numpy as np
import pytest

from sumhessian import (
    GridDomain,
    RhsSpec,
    ScalarField,
    SumHessianParams,
    expr,
    make_domain,
    newton_solve,
    read_field,
    write_field,
)
from sumhessian.estimates import build_report, write_reports
from sumhessian.grid import (
    _hessian_stencil,
    gradient_field,
    hessian_field,
    interior_blocks,
    stencil_steps,
    sym_pairs,
    top_and_norm,
)


def field_from(dom, fn):
    return ScalarField(dom, fn(dom.points).reshape(dom.shape))


def unpack(packed):
    """The stack of symmetric matrices (N, d, d) of packed rows (d(d+1)/2, N),
    the layout LAPACK's eigvalsh reads."""
    dim = math.isqrt(2 * packed.shape[0])
    out = np.empty((packed.shape[1], dim, dim))
    for row, (a, b) in enumerate(sym_pairs(dim)):
        out[:, a, b] = out[:, b, a] = packed[row]
    return out


def per_entry_hessians(fld):
    """(n_interior, d, d) Hessians gathered entry by entry from the flat
    values: the stencil formula the packed layout must reproduce bitwise."""
    dom, flat, idx, s = fld.domain, fld.flat, fld.domain.interior_idx, fld.domain.strides
    h2 = dom.h * dom.h
    out = np.empty((idx.size, dom.dim, dom.dim))
    for a in range(dom.dim):
        out[:, a, a] = (flat[idx + s[a]] - 2.0 * flat[idx] + flat[idx - s[a]]) / h2
        for b in range(a + 1, dom.dim):
            out[:, a, b] = out[:, b, a] = (
                flat[idx + s[a] + s[b]] - flat[idx + s[a] - s[b]]
                - flat[idx - s[a] + s[b]] + flat[idx - s[a] - s[b]]) / (4.0 * h2)
    return out


def random_field(dim, mask, cells=12):
    dom = make_domain(dim, (-1.0,) * dim, (1.0,) * dim, (cells,) * dim, mask_name=mask)
    vals = np.random.default_rng(dim).normal(size=dom.n_points)
    vals[::5] *= 1e6
    return ScalarField(dom, vals.reshape(dom.shape))


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_domain(4, (0,) * 4, (1,) * 4, (8,) * 4)
        with pytest.raises(ValueError):
            make_domain(2, (0, 0), (1, 1), (4, 8))
        with pytest.raises(ValueError):
            make_domain(2, (0, 0), (1, 2), (8, 8))  # nonuniform spacing
        for upper in ((0, 1), (1, -1)):
            with pytest.raises(ValueError, match="upper corner must exceed lower corner"):
                make_domain(2, (0, 0), upper, (8, 8))
        with pytest.raises(ValueError):
            make_domain(2, (0, 0), (1, 1), (8, 8), mask_name="disc")
        with pytest.raises(ValueError):
            GridDomain(2, (0, 0), (1, 1), (8, 8), mask_name="disc")
        for lower, upper in (((math.nan, 0), (1, 1)), ((0, 0), (1, math.inf)),
                             ((-math.inf, 0), (1, 1))):
            with pytest.raises(ValueError, match="corners must be finite"):
                make_domain(2, lower, upper, (8, 8))

    def test_geometry(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        assert dom.h == 0.25
        assert dom.shape == (9, 9)
        assert dom.n_points == 81
        assert np.allclose(dom.center, [0, 0])
        assert dom.inscribed_radius == 1.0
        assert dom.center_index() == (4, 4)
        # 7x7 interior block
        assert dom.interior_idx.size == 49

    def test_ball_mask(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16), mask_name="ball")
        pts = dom.points[dom.interior_idx]
        assert np.all(np.linalg.norm(pts, axis=1) < 1.0)
        # masked-out points inside the box are boundary
        box = make_domain(2, (-1, -1), (1, 1), (16, 16))
        assert dom.interior_idx.size < box.interior_idx.size
        # the name alone builds the mask
        direct = GridDomain(2, (-1, -1), (1, 1), (16, 16), "ball")
        assert np.array_equal(direct.interior_flat, dom.interior_flat)


    @pytest.mark.parametrize("cells,mask,plane", [
        ((8, 8), "box", 7 * 1),
        ((8, 8, 8), "box", 7 * 7),
        ((32, 16, 64), "box", 15 * 63),
        ((16, 16, 16), "ball", 0),
        ((16, 16), "ball", 0),
    ])
    def test_plane(self, cells, mask, plane):
        """Interior points per axis-0 plane where the interior is every
        strictly inner point, 0 on a ball or disc, and so after a field
        round trip."""
        dim = len(cells)
        dom = make_domain(dim, (0.0,) * dim, tuple(c / 8 for c in cells), cells, mask_name=mask)
        assert dom.plane == plane
        buf = io.StringIO()
        write_field(ScalarField(dom, np.zeros(dom.shape)), buf)
        assert read_field(io.StringIO(buf.getvalue())).domain.plane == plane


class TestStencils:
    def test_quadratic_exact(self):
        dom = make_domain(2, (-1, -1), (1, 1), (10, 10))
        fld = field_from(dom, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        assert np.allclose(unpack(hessian_field(fld)), np.eye(2)[None])

    def test_mixed_exact(self):
        dom = make_domain(2, (-1, -1), (1, 1), (10, 10))
        fld = field_from(dom, lambda p: p[:, 0] * p[:, 1])
        assert np.allclose(unpack(hessian_field(fld)), [[0, 1], [1, 0]])

    def test_sine_taylor_remainder(self):
        # diagonal entry error at a fixed point is O(h^2): ratio ~ 4
        errs = []
        x_target = 0.25
        for cells in (16, 32):
            dom = make_domain(2, (-1, -1), (1, 1), (cells, cells))
            fld = field_from(dom, lambda p: np.sin(p[:, 0]))
            point = (round((x_target + 1.0) / dom.h), cells // 2)
            row = np.searchsorted(dom.interior_idx, np.ravel_multi_index(point, dom.shape))
            errs.append(abs(hessian_field(fld)[0, row] - (-np.sin(x_target))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_impulse_reaches_the_table_steps(self, dim):
        # the Hessian at q reads u at q + e for e in the table, so a unit
        # impulse at p changes the Hessians at p - e, and nowhere else
        dom = make_domain(dim, (-1.0,) * dim, (1.0,) * dim, (8,) * dim)
        p = np.array(dom.center_index())
        values = np.zeros(dom.shape)
        values[tuple(p)] = 1.0
        changed = np.any(hessian_field(ScalarField(dom, values)) != 0.0, axis=0)
        got = np.stack(np.unravel_index(dom.interior_idx[changed], dom.shape), axis=1)
        want = p - stencil_steps(dim)
        assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))

    def test_gradient_centered(self):
        dom = make_domain(3, (0, 0, 0), (1, 1, 1), (8, 8, 8))
        fld = field_from(dom, lambda p: 2 * p[:, 0] - p[:, 2])
        grad = gradient_field(fld)
        assert np.allclose(grad, [2.0, 0.0, -1.0])


class TestPackedLayout:
    """hessian_field returns one contiguous row per symmetric entry."""

    @pytest.mark.parametrize("dim,mask", [(2, "box"), (2, "ball"), (3, "box"), (3, "ball")])
    def test_entries_match_per_entry_formula(self, dim, mask):
        fld = random_field(dim, mask)
        packed = hessian_field(fld)
        assert packed.shape == (dim * (dim + 1) // 2, fld.domain.interior_idx.size)
        assert packed.flags.c_contiguous
        ref = per_entry_hessians(fld)
        for row, (a, b) in enumerate(sym_pairs(dim)):
            assert packed[row].tobytes() == ref[:, a, b].tobytes(), (a, b)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_box_slices_equal_gather(self, dim):
        fld = random_field(dim, "box")
        sliced = _hessian_stencil(fld, None)
        gathered = _hessian_stencil(fld, fld.domain.interior_idx)
        assert sliced.tobytes() == gathered.tobytes()
        assert hessian_field(fld).tobytes() == sliced.tobytes()

    @pytest.mark.parametrize("dim,mask", [(2, "box"), (2, "ball"), (3, "box"), (3, "ball")])
    def test_any_slice_equals_whole_interior_columns(self, dim, mask, monkeypatch):
        import sumhessian.grid as grid

        fld = random_field(dim, mask)
        n = fld.domain.interior_idx.size
        hessians, gradients = hessian_field(fld), gradient_field(fld)
        # many blocks: whole planes of a box, 50 points of a ball
        monkeypatch.setattr(grid, "BLOCK_POINTS", 50)
        blocks = list(interior_blocks(fld.domain))
        assert len(blocks) > 2
        # a box slice that cuts an axis-0 plane, or steps over points, is
        # gathered, not read as whole planes; open and negative ends too
        plane = n // (fld.domain.shape[0] - 2)
        for where in [slice(0, 5), slice(3, 60), slice(n - 7, n), slice(None, 49),
                      slice(-49, None), slice(0, 49, 2), slice(0, 2 * plane, 2)] + blocks:
            assert hessian_field(fld, where).tobytes() == hessians[:, where].tobytes(), where
            assert gradient_field(fld, where).tobytes() == gradients[where].tobytes(), where

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unpack_round_trips(self, dim):
        packed = np.random.default_rng(dim).normal(size=(dim * (dim + 1) // 2, 50))
        stack = unpack(packed)
        assert stack.shape == (50, dim, dim)
        assert np.array_equal(stack, stack.transpose(0, 2, 1))
        repacked = np.stack([stack[:, a, b] for a, b in sym_pairs(dim)])
        assert repacked.tobytes() == packed.tobytes()

    @pytest.mark.parametrize("dim,mask", [(2, "box"), (2, "ball"), (3, "box"), (3, "ball")])
    def test_gradient_matches_per_entry_formula(self, dim, mask):
        fld = random_field(dim, mask)
        dom, flat, idx = fld.domain, fld.flat, fld.domain.interior_idx
        grad = gradient_field(fld)
        assert grad.shape == (idx.size, dim)
        for a, s in enumerate(dom.strides):
            want = (flat[idx + s] - flat[idx - s]) / (2.0 * dom.h)
            assert grad[:, a].tobytes() == want.tobytes()


class TestTopAndNorm:
    """The closed-form top eigenvalue and spectral norm of packed matrices
    against LAPACK's eigvalsh of the unpacked stack, within 1e-14 times the
    spectral norm."""

    @staticmethod
    def assert_matches_eigvalsh(packed):
        eigs = np.linalg.eigvalsh(unpack(packed))
        norm_ref = np.max(np.abs(eigs), axis=1)
        top, norm = top_and_norm(packed)
        assert np.all(np.abs(top - eigs[:, -1]) <= 1e-14 * norm_ref)
        assert np.all(np.abs(norm - norm_ref) <= 1e-14 * norm_ref)

    @staticmethod
    def matrices(dim):
        """Rotated diag(1, 1 +- delta, c) (diag(1, 1 +- delta) in 2D) for
        delta from 1e-1 down to 0, the near-double pair above the third
        eigenvalue c, below it or at it; then multiples of I, zero, the
        same spectra unrotated, and random symmetric matrices; packed."""
        rng = np.random.default_rng(dim)
        lams = [[1.0, 1.0 + sign * delta, c][:dim]
                for delta in [10.0 ** -e for e in range(1, 17)] + [0.0]
                for sign in (1.0, -1.0) for c in (-3.0, -1.0, 0.0, 0.5, 1.0, 4.0)]
        lams += [[c] * dim for c in (-2.0, 1.0, 1.0 / 3.0)]
        lams += [[0.0] * dim] + rng.normal(size=(20, dim)).tolist()
        rot, _ = np.linalg.qr(rng.normal(size=(len(lams), dim, dim)))
        rotated = rot @ (np.asarray(lams)[:, :, None] * rot.transpose(0, 2, 1))
        diagonal = np.asarray(lams)[:, :, None] * np.eye(dim)
        random = rng.normal(size=(200, dim, dim))
        stack = np.concatenate([rotated, diagonal, random + random.transpose(0, 2, 1)])
        return np.stack([stack[:, a, b] for a, b in sym_pairs(dim)])

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_eigvalsh(self, dim, scale):
        self.assert_matches_eigvalsh(scale * self.matrices(dim))

    def test_matches_eigvalsh_on_ball_hessians(self):
        """The Hessians of the k = 2, f = 18 zero-data ball at 32^3."""
        dom = make_domain(3, (-1.0,) * 3, (1.0,) * 3, (32,) * 3, mask_name="ball")
        fld = newton_solve(dom, SumHessianParams(3, 2, 1.0), RhsSpec.parse("18"),
                           expr.parse("0")).field
        self.assert_matches_eigvalsh(hessian_field(fld))


class TestFieldIO:
    def test_round_trip_bitwise(self):
        dom = make_domain(2, (-1, -0.5), (0.5, 1), (12, 12))
        rng = np.random.default_rng(0)
        fld = ScalarField(dom, rng.normal(size=dom.shape))
        buf = io.StringIO()
        write_field(fld, buf)
        text = buf.getvalue()
        back = read_field(io.StringIO(text))
        assert back.domain.shape == dom.shape
        assert back.domain.h == dom.h
        assert back.domain.lower == dom.lower
        assert np.array_equal(back.values, fld.values)
        buf2 = io.StringIO()
        write_field(back, buf2)
        assert buf2.getvalue() == text

    @pytest.mark.parametrize("dim,lo,hi,cells", [
        (2, -1.0, 1.0, 16),
        (3, -1.0, 1.0, 16),
        (3, -1.0, 1.0, 32),
        # lower + h * cells rounds the upper corner here and moves the mask
        (3, -1.0 / 3.0, 2.0 / 3.0, 30),
    ])
    def test_round_trip_keeps_ball_mask(self, dim, lo, hi, cells):
        dom = make_domain(dim, (lo,) * dim, (hi,) * dim, (cells,) * dim, mask_name="ball")
        vals = np.sum(dom.points ** 2, axis=1) - 0.25
        vals[~dom.interior_flat] = 0.0
        fld = ScalarField(dom, vals.reshape(dom.shape))
        buf = io.StringIO()
        write_field(fld, buf)
        text = buf.getvalue()
        header = text.split("\n")[0].split()
        assert len(header) == 1 + dim + dim + 1 + 1 + dim
        assert header[2 * dim + 2] == "ball"
        back = read_field(io.StringIO(text))
        assert back.domain.mask_name == "ball"
        assert np.array_equal(back.domain.interior_flat, dom.interior_flat)
        assert back.domain.h == dom.h
        assert back.domain.lower == dom.lower
        assert np.array_equal(back.values, fld.values)
        buf2 = io.StringIO()
        write_field(back, buf2)
        assert buf2.getvalue() == text

    def test_header_format(self):
        dom = make_domain(3, (0, 0, 0), (1, 1, 1), (8, 8, 8))
        fld = ScalarField(dom, np.zeros(dom.shape))
        buf = io.StringIO()
        write_field(fld, buf)
        header = buf.getvalue().split("\n")[0].split()
        assert header[0] == "3"
        assert header[1:4] == ["9", "9", "9"]
        assert len(header) == 1 + 3 + 3 + 1 + 1 + 3
        assert header[8:] == ["box", "1.0", "1.0", "1.0"]

    def test_round_trip_keeps_box_corner(self):
        # lower + h * cells rounds the upper corner here to 0.8999999999999999,
        # which moves the center, the inscribed radius and phi_max by an ulp
        dom = make_domain(2, (-1.0, -1.0), (0.9, 0.9), (20, 20))
        vals = np.exp(np.sum(dom.points ** 2, axis=1) / 2)
        fld = ScalarField(dom, vals.reshape(dom.shape))
        buf = io.StringIO()
        write_field(fld, buf)
        back = read_field(io.StringIO(buf.getvalue()))
        assert back.domain.upper == dom.upper
        assert np.array_equal(back.domain.center, dom.center)
        assert back.domain.inscribed_radius == dom.inscribed_radius
        rows = []
        for f in (fld, back):
            out = io.StringIO()
            write_reports([build_report("box", f)], out)
            rows.append(out.getvalue())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("dim,mask", [(2, "box"), (2, "ball"), (3, "box"), (3, "ball")])
    def test_bytes_match_per_value_format(self, dim, mask):
        dom = make_domain(dim, (-1.0,) * dim, (1.0,) * dim, (10,) * dim, mask_name=mask)
        vals = np.random.default_rng(dim).normal(size=dom.n_points)
        vals[:7] = [-0.0, 1e-300, 1.0 / 3.0, 5e-324, -1.7976931348623157e308, 0.0, 1e22]
        fld = ScalarField(dom, vals.reshape(dom.shape))
        buf = io.StringIO()
        write_field(fld, buf)
        text = buf.getvalue()
        body = text.split("\n", 1)[1]
        assert body == "".join(repr(float(v)) + "\n" for v in vals)
        back = read_field(io.StringIO(text))
        assert back.values.tobytes() == fld.values.tobytes()

    def test_malformed(self):
        with pytest.raises(ValueError):
            read_field(io.StringIO(""))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0\n"))
        # a header that ends at h is not write_field's, whatever the body
        with pytest.raises(ValueError, match="malformed field header: 6 entries, not 9"):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25\n1.0\n"))
        with pytest.raises(ValueError, match="has 1 values, expected 81"):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 box 2.0 2.0\n1.0\n"))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 ball 2.0\n"))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 disc 2.0 2.0\n" + "0.0\n" * 81))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 ball 1.0 1.0\n" + "0.0\n" * 81))
        with pytest.raises(ValueError, match="malformed field header"):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25\n" + "0.0\n" * 80 + "nought\n"))
        with pytest.raises(ValueError, match="nought"):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 box 2.0 2.0\n" + "0.0\n" * 80
                                   + "nought\n"))
        # a header number that does not parse is named, a config file's
        # comment among them
        body = "0.0\n" * 81
        for header, token in (("x 9 9 0.0 0.0 0.25 box 2.0 2.0", "'x' is not an integer"),
                              ("2 nine 9 0.0 0.0 0.25 box 2.0 2.0", "'nine' is not an integer"),
                              ("2 9 9 0.0 zero 0.25 box 2.0 2.0", "'zero' is not a number"),
                              ("# Zero-boundary instance", "'#' is not an integer")):
            with pytest.raises(ValueError, match=f"malformed field header: {token}"):
                read_field(io.StringIO(header + "\n" + body))

    def test_shape_mismatch(self):
        dom = make_domain(2, (0, 0), (1, 1), (8, 8))
        with pytest.raises(ValueError):
            ScalarField(dom, np.zeros((3, 3)))
