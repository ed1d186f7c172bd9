"""Estimate diagnostics on synthetic and solved fields."""
import dataclasses
import io
import math

import numpy as np
import pytest

import sumhessian.estimates as est
import sumhessian.expr as expr
import sumhessian.grid as grid
from sumhessian import (
    RhsSpec,
    ScalarField,
    SumHessianParams,
    build_report,
    make_domain,
    newton_solve,
)
from sumhessian.errors import DegenerateFieldError, MaxPrincipleError, NonFiniteFieldError
from sumhessian.estimates import EstimateReport, check_betas, write_reports
from sumhessian.grid import gradient_field, hessian_field, top_and_norm

ZERO = expr.parse("0")


def paraboloid_disc(cells=16):
    """u = (|x|^2 - 1)/2 on the staircase unit disc (zero at boundary points)."""
    dom = make_domain(2, (-1, -1), (1, 1), (cells, cells), mask_name="ball")
    vals = 0.5 * (np.sum(dom.points**2, axis=1) - 1.0)
    vals[~dom.interior_flat] = 0.0
    return ScalarField(dom, vals.reshape(dom.shape))


def interior_row(dom, point):
    """Position of an interior multi-index in interior_idx order."""
    return int(np.searchsorted(dom.interior_idx, np.ravel_multi_index(point, dom.shape)))


class TestBasics:
    def test_norms_on_quadratic(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16))
        vals = 0.5 * (np.sum(dom.points**2, axis=1) - 1.0)
        rep = build_report("quad", ScalarField(dom, vals.reshape(dom.shape)))
        assert rep.d2u_center == pytest.approx(1.0)
        assert rep.sup_d2u == pytest.approx(1.0)
        # gradient = x at interior points; max |x| over the interior
        assert rep.sup_du == pytest.approx(np.sqrt(2) * (1 - dom.h), rel=1e-12)

    def test_center_must_be_interior(self, monkeypatch):
        fld = paraboloid_disc()
        monkeypatch.setattr(fld.domain, "center_index", lambda: (0, 8))
        with pytest.raises(ValueError, match="not interior"):
            build_report("disc", fld)


class TestInteriorRatio:
    def test_unit_disc_value(self):
        # |D2u(0)| = 1 and sup|Du| close to 1 on the staircase disc
        assert build_report("disc", paraboloid_disc()).interior_ratio == pytest.approx(0.5, abs=0.05)


class TestPogorelov:
    def test_unit_disc_values(self):
        rep = build_report("disc", paraboloid_disc(32), betas=(1.0, 2.0))
        # max (-u)^b |D2u| = (1/2)^b at the center
        assert rep.pogorelov == rep.weighted[1.0]
        assert rep.weighted[1.0] == pytest.approx(0.5, abs=0.02)
        assert rep.weighted[2.0] == pytest.approx(0.25, abs=0.02)

    def test_requires_zero_boundary(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        rep = build_report("ones", ScalarField(dom, np.ones(dom.shape)), betas=(1.0, 2.0))
        assert rep.pogorelov is None
        assert rep.weighted == {1.0: None, 2.0: None}

    def test_max_principle_violation(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        vals = np.zeros(dom.n_points)
        vals[dom.interior_idx] = 1.0  # positive bump violates the sign
        with pytest.raises(MaxPrincipleError):
            build_report("bump", ScalarField(dom, vals.reshape(dom.shape)))

    def test_beta_validation(self):
        with pytest.raises(ValueError, match="beta"):
            build_report("disc", paraboloid_disc(), betas=(0.5,))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("boundary", ["zero", "nonzero"])
    def test_weight_must_be_finite_and_at_least_1(self, beta, boundary):
        """Checked before any work, whatever the boundary data: a nonzero
        boundary, which reports no weighted product, rejects it too."""
        fld = paraboloid_disc()
        if boundary == "nonzero":
            fld = ScalarField(fld.domain, fld.values + 1.0)
        with pytest.raises(ValueError, match="finite number >= 1"):
            build_report("disc", fld, betas=(1.0, beta))


class TestPhi:
    def test_unit_disc(self):
        fld = paraboloid_disc(32)
        rep = build_report("disc", fld)
        # phi(0) = rho(0) g(0) u_tt = 1 at the center, which attains the max
        assert rep.phi_max == pytest.approx(1.0, abs=0.05)
        assert rep.phi_argmax == fld.domain.center_index()
        assert not rep.rho_rescaled

    def test_constant_field_g_is_one(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        # sup|Du| = 0 must not divide by zero
        assert build_report("one", ScalarField(dom, np.ones(dom.shape))).phi_max == 0.0

    def test_rescaled_flag_on_box(self):
        dom = make_domain(2, (0, 0), (1, 1), (8, 8))
        assert build_report("one", ScalarField(dom, np.ones(dom.shape))).rho_rescaled


def set_p_constants(monkeypatch, beta, a, big_a):
    """Set the log diagnostic's beta, a and A for one test."""
    for name, value in (("P_BETA", beta), ("P_A", a), ("P_BIG_A", big_a)):
        monkeypatch.setattr(est, name, value)


class TestPDiagnostic:
    def test_unit_disc_log_profile(self, monkeypatch):
        fld = paraboloid_disc(32)
        set_p_constants(monkeypatch, 1.0, 0.0, 0.0)
        rep = build_report("disc", fld)
        # P = log((1 - |x|^2)/2) + log(1), max at the center = log(1/2)
        assert rep.p_max == pytest.approx(math.log(0.5), abs=0.02)
        assert rep.p_argmax == fld.domain.center_index()

    def test_unit_disc_shipped_constants(self):
        # at the center (the origin, a grid point), u = -1/2, u_11 = 1 and
        # Du = 0, so P = 2 log(1/2) exactly, and every other point is lower
        fld = paraboloid_disc(32)
        assert (est.P_BETA, est.P_A, est.P_BIG_A) == (2.0, 0.1, 1.0)
        rep = build_report("disc", fld)
        assert rep.p_max == 2 * math.log(0.5)
        assert rep.p_argmax == fld.domain.center_index()

    def test_quadratic_shift(self, monkeypatch):
        # P is a max of functions affine in A, each with slope |x|^2/2, so the
        # slopes at the two maximizers bound the change of the max
        fld = paraboloid_disc(32)
        dom = fld.domain
        reps = []
        for big_a in (1.0, 3.0):
            set_p_constants(monkeypatch, 1.0, 0.0, big_a)
            reps.append(build_report("disc", fld))
        slopes = [0.5 * np.sum(dom.points[np.ravel_multi_index(r.p_argmax, dom.shape)] ** 2)
                  for r in reps]
        lift = reps[1].p_max - reps[0].p_max
        assert 2.0 * slopes[0] - 1e-12 <= lift <= 2.0 * slopes[1] + 1e-12
        assert slopes[1] > slopes[0]  # the A term moves the maximizer outward

    def test_degenerate_field(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        with pytest.raises(DegenerateFieldError):
            build_report("zero", ScalarField(dom, np.zeros(dom.shape)))


class TestBuildReport:
    """build_report against a standalone evaluation of every quantity over
    the whole interior at once, the Hessians' top eigenvalues and spectral
    norms from one ``top_and_norm`` call (tests/test_grid.py checks it
    against eigvalsh)."""

    BETAS = (1.0, 2.0, 4.0, 8.0)

    @staticmethod
    def zero_boundary_ball():
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name="ball")
        return newton_solve(dom, SumHessianParams(3, 2, 1.0), RhsSpec.parse("18"), ZERO).field

    @staticmethod
    def nonzero_boundary_box():
        dom = make_domain(2, (-1, -1), (1, 1), (12, 12))
        vals = np.exp(0.5 * np.sum(dom.points ** 2, axis=1)) + 0.1 * dom.points[:, 0] ** 3
        return ScalarField(dom, vals.reshape(dom.shape))

    @staticmethod
    def pointwise(fld):
        """u, the Hessian's top eigenvalue and spectral norm, the gradient
        and the coordinates at every interior point."""
        idx = fld.domain.interior_idx
        top, norm = top_and_norm(hessian_field(fld))
        return fld.flat[idx], top, norm, gradient_field(fld), fld.domain.points[idx]

    @staticmethod
    def at_max(dom, vals):
        best = int(np.argmax(vals))
        return vals[best], tuple(int(v) for v in np.unravel_index(dom.interior_idx[best],
                                                                   dom.shape))

    @staticmethod
    def count_calls(monkeypatch):
        """Call counts of the report's stencil reads, gradient reads and
        eigenvalue kernel, and under "hessian_blocks" and "gradient_blocks"
        the block argument of each stencil and gradient read."""
        calls = {"hessian_field": 0, "gradient_field": 0, "top_and_norm": 0,
                 "hessian_blocks": [], "gradient_blocks": []}
        for name in ("hessian_field", "gradient_field", "top_and_norm"):
            original = getattr(est, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                if _name != "top_and_norm":
                    calls[_name.split("_")[0] + "_blocks"].append(
                        args[1] if len(args) > 1 else None)
                return _original(*args)

            monkeypatch.setattr(est, name, counted)
        return calls

    def common_fields_match(self, rep, fld):
        dom = fld.domain
        _, top, norm, grad, pts = self.pointwise(fld)
        grad2 = np.sum(grad ** 2, axis=1)
        radius = dom.inscribed_radius
        rho = 1.0 - np.sum((pts - dom.center) ** 2, axis=1) / radius ** 2
        phi = rho * (1.0 - 0.5 * grad2 / np.max(grad2)) ** (-1.0 / 3.0) * top
        assert rep.h == dom.h
        assert rep.sup_du == np.max(np.sqrt(grad2))
        assert rep.sup_d2u == np.max(norm)
        assert rep.d2u_center == norm[interior_row(dom, dom.center_index())]
        assert rep.interior_ratio == rep.d2u_center / (1.0 + rep.sup_du / radius)
        assert (rep.phi_max, rep.phi_argmax) == self.at_max(dom, phi)
        assert not rep.rho_rescaled  # inscribed radius 1 about the origin

    def test_zero_boundary_matches_standalone(self):
        fld = self.zero_boundary_ball()
        dom = fld.domain
        rep = build_report("ball", fld, self.BETAS)
        self.common_fields_match(rep, fld)
        u, top, norm, grad, pts = self.pointwise(fld)
        assert rep.weighted == {b: np.max((-u) ** b * norm) for b in self.BETAS}
        assert rep.pogorelov == rep.weighted[1.0]
        with np.errstate(invalid="ignore", divide="ignore"):
            # P at the shipped beta = 2, a = 0.1 and A = 1
            p_vals = (2.0 * np.log(-u) + np.log(top) + 0.05 * np.sum(grad ** 2, axis=1)
                      + 0.5 * np.sum(pts ** 2, axis=1))
        p_vals[(u >= 0) | (top <= 0)] = -np.inf
        assert (rep.p_max, rep.p_argmax) == self.at_max(dom, p_vals)

    def test_zero_boundary_without_unit_weight(self):
        fld = self.zero_boundary_ball()
        rep = build_report("ball", fld, (2.0, 4.0))
        assert rep.pogorelov == build_report("ball", fld, (1.0,)).weighted[1.0]
        assert set(rep.weighted) == {2.0, 4.0}

    def test_nonzero_boundary_matches_standalone(self):
        fld = self.nonzero_boundary_box()
        rep = build_report("box", fld, self.BETAS)
        self.common_fields_match(rep, fld)
        assert rep.pogorelov is None
        assert rep.weighted == {b: None for b in self.BETAS}
        assert rep.p_max is None and rep.p_argmax is None

    @pytest.mark.parametrize("make", ["zero_boundary_ball", "nonzero_boundary_box"])
    def test_one_stencil_pass_per_report(self, make, monkeypatch):
        """A report reads each interior point's stencil exactly once, one
        block at a time, and runs the eigenvalue kernel once per block. It
        reads the gradient in two passes over the same blocks, sup|Du|
        first, each interior point once per pass. Neither count depends on
        the number of weights."""
        fld = getattr(self, make)()
        n_int = fld.domain.interior_idx.size
        monkeypatch.setattr(grid, "BLOCK_POINTS", n_int // 3)
        calls = self.count_calls(monkeypatch)
        build_report("inst", fld, self.BETAS)
        blocks = calls.pop("hessian_blocks")
        assert len(blocks) >= 3 and all(isinstance(b, slice) for b in blocks)
        read = np.concatenate([np.arange(n_int)[b] for b in blocks])
        assert np.array_equal(read, np.arange(n_int))
        assert calls.pop("gradient_blocks") == blocks + blocks
        assert calls == {"hessian_field": len(blocks), "gradient_field": 2 * len(blocks),
                         "top_and_norm": len(blocks)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_field_names_first_point(self, bad, dim):
        """A NaN or infinite value, at an interior or a boundary point,
        raises before any work and names the first one in row-major order."""
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (8,) * dim)
        interior, boundary, later = (2, 6, 3)[:dim], (0, 4, 4)[:dim], (5, 1, 1)[:dim]
        for first in (interior, boundary):
            vals = np.zeros(dom.shape)
            vals[first] = vals[later] = bad
            with pytest.raises(NonFiniteFieldError) as err:
                build_report("bad", ScalarField(dom, vals))
            assert str(err.value).endswith(f"at grid point {first} is not finite")
            assert err.value.point == first
            assert repr(err.value.value) == repr(bad)

    def test_errors_raise_through_report(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        bump = np.zeros(dom.n_points)
        bump[dom.interior_idx] = 1.0
        with pytest.raises(MaxPrincipleError):
            build_report("bump", ScalarField(dom, bump.reshape(dom.shape)))
        with pytest.raises(ValueError, match="beta"):
            build_report("disc", paraboloid_disc(), betas=(1.0, 0.5))
        with pytest.raises(DegenerateFieldError):
            build_report("zero", ScalarField(dom, np.zeros(dom.shape)))


class TestReports:
    def solved(self, cells=8):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
        params = SumHessianParams(3, 2, 1.0)
        return newton_solve(dom, params, RhsSpec.parse("18"), ZERO)

    def test_report_zero_boundary(self):
        result = self.solved()
        rep = build_report("inst", result.field, betas=(1.0, 2.0, 4.0))
        assert rep.pogorelov is not None
        assert set(rep.weighted) == {1.0, 2.0, 4.0}
        assert rep.p_max is not None
        assert all(np.isfinite(v) for v in rep.weighted.values())

    def test_report_nonzero_boundary_has_na(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        vals = 0.5 * np.sum(dom.points**2, axis=1) + 1.0
        rep = build_report("inst", ScalarField(dom, vals.reshape(dom.shape)))
        assert rep.pogorelov is None
        assert rep.p_max is None
        buf = io.StringIO()
        write_reports([rep], buf)
        text = buf.getvalue()
        assert ",NA," in text

    def test_csv_layout_and_family_max(self):
        result = self.solved()
        reps = [build_report(f"i{j}", result.field, betas=(1.0, 2.0)) for j in range(2)]
        buf = io.StringIO()
        write_reports(reps, buf, family_max=True)
        lines = buf.getvalue().strip().split("\n")
        header = lines[0].split(",")
        assert header[:7] == ["instance", "h", "sup_du", "sup_d2u", "d2u_center",
                              "interior_ratio", "pogorelov"]
        assert "weighted_pogorelov_b1" in header
        assert "weighted_pogorelov_b2" in header
        assert len(lines) == 4
        assert lines[-1].startswith("FAMILY_MAX")
        # family max of pogorelov column equals the instance value
        pog_col = header.index("pogorelov")
        assert lines[-1].split(",")[pog_col] == lines[1].split(",")[pog_col]

    def test_csv_columns_are_union_of_weights(self):
        field = self.solved().field
        reps = [build_report("a", field, betas=(1.0, 2.0, 4.0)),
                build_report("b", field, betas=(1.0, 8.0))]
        buf = io.StringIO()
        write_reports(reps, buf, family_max=True)
        header, row_a, row_b, family = (line.split(",") for line in buf.getvalue().splitlines())
        cols = [f"weighted_pogorelov_b{b}" for b in (1, 2, 4, 8)]
        assert [c for c in header if c.startswith("weighted_")] == cols
        at = {c: header.index(c) for c in cols}
        assert row_a[at[cols[3]]] == "NA"
        assert row_b[at[cols[1]]] == row_b[at[cols[2]]] == "NA"
        assert row_b[at[cols[3]]] == repr(reps[1].weighted[8.0])
        assert family[at[cols[3]]] == row_b[at[cols[3]]]
        assert family[at[cols[1]]] == row_a[at[cols[1]]]

    @staticmethod
    def hand_built(weights=(1.0, 2.0), na_weights=(1.0, 8.0)) -> list:
        """A zero-data report and one without zero data (NA weights, no P)."""
        return [
            EstimateReport(instance="ball.field", h=0.125, sup_du=1.5, sup_d2u=2.25,
                           d2u_center=1.0, interior_ratio=1.0 / 3.0, pogorelov=0.75,
                           weighted=dict(zip(weights, (0.75, 0.5))), phi_max=0.1,
                           phi_argmax=(4, 4), p_max=-1.25, p_argmax=(3, 4),
                           rho_rescaled=False),
            EstimateReport(instance="box.cfg", h=0.1, sup_du=2.0, sup_d2u=1e-20,
                           d2u_center=3.0, interior_ratio=2.5, pogorelov=None,
                           weighted=dict.fromkeys(na_weights), phi_max=-0.5,
                           phi_argmax=(5, 6, 7), p_max=None, p_argmax=None,
                           rho_rescaled=True),
        ]

    def test_exact_text(self):
        """The table's every byte: repr floats, NA for None, '/'-joined
        argmaxes, lower-case bools; FAMILY_MAX reads NA for h and for every
        column without a number."""
        buf = io.StringIO()
        write_reports(self.hand_built(), buf, family_max=True)
        assert buf.getvalue() == (
            "instance,h,sup_du,sup_d2u,d2u_center,interior_ratio,pogorelov,"
            "weighted_pogorelov_b1,weighted_pogorelov_b2,weighted_pogorelov_b8,"
            "phi_max,phi_argmax,p_max,p_argmax,rho_rescaled\n"
            "ball.field,0.125,1.5,2.25,1.0,0.3333333333333333,0.75,0.75,0.5,NA,"
            "0.1,4/4,-1.25,3/4,false\n"
            "box.cfg,0.1,2.0,1e-20,3.0,2.5,NA,NA,NA,NA,-0.5,5/6/7,NA,NA,true\n"
            "FAMILY_MAX,NA,2.0,2.25,3.0,2.5,0.75,0.75,0.5,NA,0.1,NA,-1.25,NA,NA\n"
        )

    def test_no_reports_raise(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="no reports to write"):
            write_reports([], buf)
        assert buf.getvalue() == ""

    def test_weights_sharing_a_column_raise(self):
        """Each report's weights pass alone; their union would write
        weighted_pogorelov_b1 twice."""
        with pytest.raises(ValueError, match="share the column weighted_pogorelov_b1"):
            check_betas((1.0, 1.0000001))
        check_betas((1.0, 1.0, 2.0))
        reps = self.hand_built(weights=(1.0, 2.0), na_weights=(1.0000001,))
        buf = io.StringIO()
        with pytest.raises(ValueError, match="share the column weighted_pogorelov_b1"):
            write_reports(reps, buf)
        assert buf.getvalue() == ""

    def test_phi_bound_cross_check_on_family(self):
        """rho(argmax) u_tt(argmax) stays within the empirical interior
        constant of the family times (1 + sup|Du|)."""
        params = SumHessianParams(3, 2, 1.0)
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
        fields = [newton_solve(dom, params, RhsSpec.parse(repr(f)), ZERO).field
                  for f in (18.0, 72.0, 288.0)]
        reps = [build_report(f"f{j}", fld) for j, fld in enumerate(fields)]
        c_family = max(rep.interior_ratio for rep in reps)
        for fld, rep in zip(fields, reps):
            x0 = dom.points[np.ravel_multi_index(rep.phi_argmax, dom.shape)]
            top = top_and_norm(hessian_field(fld))[0][interior_row(dom, rep.phi_argmax)]
            lhs = (1.0 - float(np.sum(x0**2))) * top
            assert lhs <= 1.01 * c_family * (1.0 + rep.sup_du)

    def test_p_max_stable_under_refinement(self):
        params = SumHessianParams(3, 3, 1.0)
        pmax = {}
        for cells in (16, 32):
            dom = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
            res = newton_solve(dom, params, RhsSpec.parse("20"), ZERO)
            pmax[cells] = np.exp(build_report("b", res.field).p_max)
        assert np.isfinite(pmax[16]) and np.isfinite(pmax[32])
        assert abs(pmax[32] - pmax[16]) / pmax[16] <= 0.10

    def test_interior_ratio_stable_for_manufactured(self):
        f_src = "exp(x1^2+x2^2)*(1+x1^2+x2^2) + exp((x1^2+x2^2)/2)*(2+x1^2+x2^2)"
        g_src = "exp((x1^2+x2^2)/2)"
        params = SumHessianParams(2, 2, 1.0)
        ratios = []
        for cells in (32, 64):
            dom = make_domain(2, (-1, -1), (1, 1), (cells, cells))
            res = newton_solve(dom, params, RhsSpec.parse(f_src), expr.parse(g_src))
            ratios.append(build_report("exp", res.field).interior_ratio)
        assert abs(ratios[1] - ratios[0]) / ratios[0] <= 0.10

    def test_stable_weight_helper(self):
        from sumhessian import stable_weight

        params = SumHessianParams(3, 3, 1.0)
        reps = {}
        for cells in (16, 32):
            dom = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
            res = newton_solve(dom, params, RhsSpec.parse("20"), ZERO)
            reps[cells] = build_report(f"b{cells}", res.field, betas=(1.0, 2.0, 4.0, 8.0))
        assert stable_weight(reps[16], reps[32]) == 1.0
        assert stable_weight(reps[16], reps[32], drift=1e-6) is None
        # a weight whose product is missing (NA) or zero on either grid is skipped
        coarse = dataclasses.replace(reps[16], weighted={1.0: None, 2.0: 0.0, 4.0: 1.0})
        fine = dataclasses.replace(reps[32], weighted={1.0: 1.0, 2.0: 1.0, 4.0: 1.05})
        assert stable_weight(coarse, fine) == 4.0
        assert stable_weight(fine, coarse) == 4.0

    def test_interior_ratio_scale_invariance(self):
        params = SumHessianParams(3, 2, 1.0)
        ratios = []
        h_unit = None
        for radius in (1.0, 2.0):
            dom = make_domain(3, (-radius,) * 3, (radius,) * 3, (8,) * 3, mask_name="ball")
            result = newton_solve(dom, params, RhsSpec.parse("18"), ZERO)
            ratios.append(build_report("ball", result.field).interior_ratio)
            h_unit = h_unit or dom.h
        assert abs(ratios[0] - ratios[1]) <= 5 * h_unit * h_unit
