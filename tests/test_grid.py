"""Grid domains, stencils, and the field file format."""
import io

import numpy as np
import pytest

from sumhessian import GridDomain, ScalarField, make_domain, read_field, write_field
from sumhessian.grid import gradient_field, hessian_at, hessian_field


def field_from(dom, fn):
    return ScalarField(dom, fn(dom.points).reshape(dom.shape))


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_domain(4, (0,) * 4, (1,) * 4, (8,) * 4)
        with pytest.raises(ValueError):
            make_domain(2, (0, 0), (1, 1), (4, 8))
        with pytest.raises(ValueError):
            make_domain(2, (0, 0), (1, 2), (8, 8))  # nonuniform spacing
        with pytest.raises(ValueError):
            make_domain(2, (0, 0), (1, 1), (8, 8), mask_name="disc")

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


class TestStencils:
    def test_quadratic_exact(self):
        dom = make_domain(2, (-1, -1), (1, 1), (10, 10))
        fld = field_from(dom, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        assert np.allclose(hessian_at(fld, (5, 5)), np.eye(2))
        hb = hessian_field(fld)
        assert np.allclose(hb, np.eye(2)[None])

    def test_mixed_exact(self):
        dom = make_domain(2, (-1, -1), (1, 1), (10, 10))
        fld = field_from(dom, lambda p: p[:, 0] * p[:, 1])
        assert np.allclose(hessian_at(fld, (3, 7)), [[0, 1], [1, 0]])

    def test_requires_interior(self):
        dom = make_domain(2, (-1, -1), (1, 1), (10, 10))
        fld = field_from(dom, lambda p: p[:, 0])
        with pytest.raises(ValueError):
            hessian_at(fld, (0, 5))

    def test_sine_taylor_remainder(self):
        # diagonal entry error at a fixed point is O(h^2): ratio ~ 4
        errs = []
        x_target = 0.25
        for cells in (16, 32):
            dom = make_domain(2, (-1, -1), (1, 1), (cells, cells))
            fld = field_from(dom, lambda p: np.sin(p[:, 0]))
            point = (round((x_target + 1.0) / dom.h), cells // 2)
            errs.append(abs(hessian_at(fld, point)[0, 0] - (-np.sin(x_target))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_gradient_centered(self):
        dom = make_domain(3, (0, 0, 0), (1, 1, 1), (8, 8, 8))
        fld = field_from(dom, lambda p: 2 * p[:, 0] - p[:, 2])
        grad = gradient_field(fld)
        assert np.allclose(grad, [2.0, 0.0, -1.0])


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
        assert len(header) == 1 + 3 + 3 + 1

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
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25\n1.0\n"))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 ball 2.0\n"))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 disc 2.0 2.0\n" + "0.0\n" * 81))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25 ball 1.0 1.0\n" + "0.0\n" * 81))
        with pytest.raises(ValueError):
            read_field(io.StringIO("2 9 9 0.0 0.0 0.25\n" + "0.0\n" * 80 + "nought\n"))

    def test_shape_mismatch(self):
        dom = make_domain(2, (0, 0), (1, 1), (8, 8))
        with pytest.raises(ValueError):
            ScalarField(dom, np.zeros((3, 3)))
