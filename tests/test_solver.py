"""Residual, linearization, initial guess, and the damped Newton loop."""
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp

import sumhessian.expr as expr
from sumhessian import (
    RhsSpec,
    ScalarField,
    SolveConfig,
    SumHessianParams,
    make_domain,
    newton_solve,
    operator_grad,
    operator_value,
)
from sumhessian.errors import ConeViolationError, InstanceError, LinearSolveError
from sumhessian.grid import hessian_field
from sumhessian.solver import (
    _JacobianPattern,
    _assemble,
    _cone_margins,
    _grad_coeff_matrices,
    _invariants,
    _repair_admissibility,
    admissible_mask,
    boundary_values,
    ellipticity_margins,
    initial_guess,
    linearize,
    quadratic_scale,
    residual,
    transfinite_blend,
)

ZERO = expr.parse("0")
EXP2D_RHS = "exp(x1^2+x2^2)*(1+x1^2+x2^2) + exp((x1^2+x2^2)/2)*(2+x1^2+x2^2)"


def field_from(dom, fn):
    return ScalarField(dom, fn(dom.points).reshape(dom.shape))


class TestResidual:
    def test_exact_quadratic_zero(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        params = SumHessianParams(3, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * (np.sum(p**2, axis=1) - 1.0))
        res = residual(fld, params, RhsSpec.parse("18"))
        assert np.max(np.abs(res)) < 1e-12

    def test_linear_case_reduction(self):
        # sigma_1(eta) + alpha = (n-1) lap u + alpha
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 1, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        res = residual(fld, params, RhsSpec.parse("3"))
        assert np.max(np.abs(res)) < 1e-12

    def test_manufactured_second_order(self):
        params = SumHessianParams(2, 2, 1.0)
        sups = []
        for cells in (16, 32):
            dom = make_domain(2, (-1, -1), (1, 1), (cells, cells))
            fld = field_from(dom, lambda p: np.exp(0.5 * np.sum(p**2, axis=1)))
            res = residual(fld, params, RhsSpec.parse(EXP2D_RHS))
            sups.append(float(np.max(np.abs(res))))
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.25)

    def test_nonpositive_rhs_rejected(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 1, 0.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        with pytest.raises(InstanceError):
            residual(fld, params, RhsSpec.parse("x1"))

    def test_dimension_mismatch(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        fld = field_from(dom, lambda p: np.sum(p**2, axis=1))
        with pytest.raises(ValueError):
            residual(fld, SumHessianParams(3, 2, 0.0), RhsSpec.parse("1"))

    def test_every_field_entry_point_checks_dimension(self):
        # a 3D field under 2D parameters is an error, not "admissible"
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        params, rhs = SumHessianParams(2, 2, 1.0), RhsSpec.parse("1")
        calls = (lambda: admissible_mask(fld, params),
                 lambda: linearize(fld, params, rhs),
                 lambda: ellipticity_margins(fld, params),
                 lambda: initial_guess(dom, params, rhs, ZERO),
                 lambda: residual(fld, params, rhs),
                 lambda: newton_solve(dom, params, rhs, ZERO))
        for call in calls:
            with pytest.raises(ValueError, match="must equal grid dim 3"):
                call()


def hessian_stack(rng, d):
    """Indefinite, repeated-eigenvalue and multiple-of-identity Hessians at
    three scales."""
    mats = [a + a.T for a in rng.normal(size=(12, d, d))]
    for _ in range(8):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = rng.normal(size=d)
        lam[1] = lam[0]
        mats.append(q @ np.diag(lam) @ q.T)
    mats += [3.0 * np.eye(d), -2.0 * np.eye(d), np.zeros((d, d))]
    hb = np.concatenate([scale * np.array(mats) for scale in (1e-2, 1.0, 1e2)])
    return 0.5 * (hb + hb.transpose(0, 2, 1))


class TestInvariantKernel:
    """The grid solver's invariant kernel against the spectral (eigh) layer."""

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_matches_spectral_reference(self, d, k, alpha):
        params = SumHessianParams(d, k, alpha)
        hb = hessian_stack(np.random.default_rng(10 * d + k), d)
        sig, newton = _invariants(hb, k, transforms=True)
        # S_k is homogeneous of degree k in H, its gradient of degree k - 1
        scale = 1.0 + np.linalg.norm(hb, axis=(1, 2))
        value = sig[:, k] + alpha * sig[:, k - 1]
        assert np.max(np.abs(value - operator_value(hb, params)) / scale**k) <= 1e-12
        grad_err = np.linalg.norm(_grad_coeff_matrices(newton, params)
                                  - operator_grad(hb, params), axis=(1, 2))
        assert np.max(grad_err / scale ** (k - 1)) <= 1e-12

    def test_sigmas_without_transforms(self):
        hb = hessian_stack(np.random.default_rng(3), 3)
        sig, newton = _invariants(hb, 3)
        assert newton == []
        assert np.array_equal(sig, _invariants(hb, 3, transforms=True)[0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_einsum_trace_is_np_trace(self, d):
        # the kernel takes traces with einsum("nii->n"); it must not move a bit
        stack = np.random.default_rng(d).normal(size=(20000, d, d))
        stack[::7] *= 1e150
        stack[::11] *= 1e-150
        assert (np.einsum("nii->n", stack).tobytes()
                == np.trace(stack, axis1=-2, axis2=-1).tobytes())


class TestTransfiniteBlend:
    @pytest.mark.parametrize("shape", [(9, 12), (9, 10, 11)])
    def test_reproduces_every_face(self, shape):
        values = np.random.default_rng(2).normal(size=shape)
        blend = transfinite_blend(values)
        for a in range(len(shape)):
            for face in (0, shape[a] - 1):
                assert np.allclose(np.take(blend, face, axis=a), np.take(values, face, axis=a),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(9, 12), (9, 10, 11)])
    def test_exact_on_separable_functions(self, shape):
        axes = np.meshgrid(*[np.linspace(-1.0, 1.0, n) for n in shape], indexing="ij")
        exact = sum(fn(x) for fn, x in zip((np.sin, np.exp, np.cos), axes))
        faces_only = exact.copy()
        faces_only[(slice(1, -1),) * len(shape)] = np.random.default_rng(4).normal(
            size=tuple(n - 2 for n in shape))
        assert np.max(np.abs(transfinite_blend(faces_only) - exact)) <= 1e-13


class TestAdmissibility:
    def test_quadratic_admissible(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        for k in (1, 2, 3):
            assert admissible_mask(fld, SumHessianParams(3, k, 1.0)).all()

    def test_saddle_not_admissible(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        fld = field_from(dom, lambda p: p[:, 0] ** 2 - 4 * p[:, 1] ** 2)
        params = SumHessianParams(2, 2, 0.0)
        assert not admissible_mask(fld, params).all()
        with pytest.raises(ConeViolationError) as err:
            linearize(fld, params, RhsSpec.parse("1"))
        assert "grid point" in str(err.value)


def coo_reference(dom, coeff, f_u, f_p):
    """The operator built term by term in COO form: a neighbour on the
    boundary layer puts a zero on the diagonal, and tocsr sums duplicates."""
    idx = dom.interior_idx
    rows = np.arange(idx.size)
    local = np.full(dom.n_points, -1)
    local[idx] = rows
    s = dom.strides
    h2 = dom.h * dom.h
    center = -f_u.copy()
    for a in range(dom.dim):
        center -= 2.0 * coeff[:, a, a] / h2
    cols, vals = [rows], [center]

    def neighbour(offset, weight):
        col = local[idx + offset]
        known = col < 0
        cols.append(np.where(known, rows, col))
        vals.append(np.where(known, 0.0, weight))

    for a in range(dom.dim):
        for sign in (+1, -1):
            neighbour(sign * s[a], coeff[:, a, a] / h2 - sign * f_p[:, a] / (2.0 * dom.h))
    for a in range(dom.dim):
        for b in range(a + 1, dom.dim):
            w = coeff[:, a, b] / (2.0 * h2)
            for sa, sb, sgn in ((1, 1, +1.0), (-1, -1, +1.0), (1, -1, -1.0), (-1, 1, -1.0)):
                neighbour(sa * s[a] + sb * s[b], sgn * w)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.tile(rows, len(cols)), np.concatenate(cols))),
        shape=(idx.size, idx.size),
    )
    return mat.tocsr()


def full_sweep_repair(fld, params, scale):
    """Admissibility repair re-evaluating the whole grid on every sweep;
    returns the field and the number of sweeps that lowered values."""
    dom = fld.domain
    d = dom.dim
    shift = (0.1 * max(1.0, scale) / (d - 1)) * np.eye(d)
    delta = 0.25 * dom.h * dom.h * max(1.0, scale)
    values = fld.values
    for sweep in range(200):
        trial = ScalarField(dom, values)
        ok = _cone_margins(_invariants(hessian_field(trial) - shift, params.k)[0], params) > 0
        if ok.all():
            return trial, sweep
        values = values.copy()
        values.reshape(-1)[dom.interior_idx[~ok]] -= delta
    raise AssertionError("reference repair did not finish")


class TestAssembly:
    @pytest.mark.parametrize("dim,mask", [(2, "box"), (2, "ball"), (3, "box"), (3, "ball")])
    def test_matches_coo_reference(self, dim, mask):
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (12,) * dim, mask_name=mask)
        rng = np.random.default_rng(dim)
        n_int = dom.interior_idx.size
        coeff = rng.normal(size=(n_int, dim, dim))
        coeff = coeff + coeff.transpose(0, 2, 1)
        f_u, f_p = rng.normal(size=n_int), rng.normal(size=(n_int, dim))
        got = _assemble(dom, _JacobianPattern(dom), coeff, f_u, f_p)
        want = coo_reference(dom, coeff, f_u, f_p)
        assert got.indptr.dtype == got.indices.dtype == np.int32
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
        assert got.has_sorted_indices

    def test_shared_pattern_gives_the_same_matrix(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (10,) * 3, mask_name="ball")
        params = SumHessianParams(3, 2, 1.0)
        rhs = RhsSpec.parse("20 + exp(u/10) + p1^2/100 + p3/10")
        fld = field_from(dom, lambda p: 2.0 * (0.5 * np.sum(p**2, axis=1)))
        pattern = _JacobianPattern(dom)
        first = linearize(fld, params, rhs, pattern=pattern)
        again = linearize(fld, params, rhs, pattern=pattern)
        fresh = linearize(fld, params, rhs)
        for mat in (again, fresh):
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mat, attr), getattr(first, attr)), attr


    def test_one_pattern_per_solve_built_on_first_use(self, monkeypatch):
        import sumhessian.solver as solver_mod

        built = []
        build = solver_mod._JacobianPattern.arrays.func

        def counting(self):
            built.append(self.dom)
            return build(self)

        arrays = cached_property(counting)
        arrays.__set_name__(solver_mod._JacobianPattern, "arrays")
        monkeypatch.setattr(solver_mod._JacobianPattern, "arrays", arrays)
        params = SumHessianParams(3, 2, 1.0)
        # the extension and every Newton step share one pattern
        ball = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name="ball")
        assert newton_solve(ball, params, RhsSpec.parse("18"), ZERO).iterations > 0
        assert built == [ball]
        # an exact guess on a box assembles nothing and builds nothing
        box = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        exact = newton_solve(box, params, RhsSpec.parse("18"),
                             expr.parse("(x1^2 + x2^2 + x3^2 - 1)/2"))
        assert exact.iterations == 0
        assert built == [ball]


class TestLocalRepair:
    def test_matches_full_sweeps(self, monkeypatch):
        import sumhessian.solver as solver_mod

        # the ball 24^3 extension guess at k = 3 needs several sweeps
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (24,) * 3, mask_name="ball")
        params = SumHessianParams(3, 3, 1.0)
        captured = []

        def capture(fld, params, scale):
            captured.append((fld, fld.values.copy(), scale))
            return _repair_admissibility(fld, params, scale)

        monkeypatch.setattr(solver_mod, "_repair_admissibility", capture)
        repaired = initial_guess(dom, params, RhsSpec.parse("20"), ZERO)
        unrepaired, before, scale = captured[0]
        assert unrepaired.values.tobytes() == before.tobytes()    # input left as it was
        want, sweeps = full_sweep_repair(unrepaired, params, scale)
        assert sweeps >= 3
        assert repaired.values.tobytes() == want.values.tobytes()

    def test_unrepairable_raises(self, monkeypatch):
        import sumhessian.solver as solver_mod

        monkeypatch.setattr(solver_mod, "REPAIR_SWEEPS", 1)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        fld = field_from(dom, lambda p: -4.0 * np.sum(p**2, axis=1))
        with pytest.raises(ConeViolationError):
            _repair_admissibility(fld, SumHessianParams(2, 2, 1.0), 1.0)


class TestLinearize:
    def test_k1_is_laplacian(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 1, 0.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        mat = linearize(fld, params, RhsSpec.parse("1")).toarray()
        # interior row at (2, 2), whose 4 neighbours are all interior:
        # 5-point Laplacian, (n-1) = 1 times
        point = int(np.ravel_multi_index((2, 2), dom.shape))
        local = int(np.searchsorted(dom.interior_idx, point))
        assert dom.interior_idx[local] == point
        row = mat[local]
        h2 = dom.h**2
        assert row[local] == pytest.approx(-4 / h2)
        assert np.sum(row != 0) == 5

    @pytest.mark.parametrize("mask", ["box", "ball"])
    def test_operator_on_interior_unknowns(self, mask):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name=mask)
        params = SumHessianParams(3, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        mat = linearize(fld, params, RhsSpec.parse("18"))
        n_int = dom.interior_idx.size
        assert mat.shape == (n_int, n_int)

    def test_f_independent_of_state_has_no_lower_order(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        m1 = linearize(fld, params, RhsSpec.parse("3"))
        m2 = linearize(fld, params, RhsSpec.parse("3 + 0*u"))
        assert np.allclose((m1 - m2).toarray(), 0.0, atol=1e-9)

    def test_directional_derivative_oracle(self):
        rng = np.random.default_rng(1)
        dom = make_domain(2, (-1, -1), (1, 1), (10, 10))
        params = SumHessianParams(2, 2, 1.0)
        rhs = RhsSpec.parse("20 + exp(u/10) + p1^2/100")
        fld = field_from(dom, lambda p: 2.0 * (0.5 * np.sum(p**2, axis=1)))
        mat = linearize(fld, params, rhs)
        eps = 1e-6
        delta = rng.normal(size=dom.n_points)
        delta[~dom.interior_flat] = 0.0
        plus = ScalarField(dom, fld.values + eps * delta.reshape(dom.shape))
        minus = ScalarField(dom, fld.values - eps * delta.reshape(dom.shape))
        fd = (residual(plus, params, rhs).ravel() - residual(minus, params, rhs).ravel()) / (2 * eps)
        got = mat @ delta[dom.interior_idx]
        fd = fd[dom.interior_idx]
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(fd - got)) / denom < 1e-4

    def test_ellipticity_witness(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        params = SumHessianParams(3, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        mins, sums = ellipticity_margins(fld, params)
        assert np.min(mins) > 0
        assert np.min(mins / sums) > 0  # uniform ratio for 0 < k < n


class TestInitialGuess:
    def test_scale_rule(self):
        params = SumHessianParams(3, 2, 1.0)
        # direct-evaluation oracle: S(eta(cI)) = 12c^2 + 6c
        assert quadratic_scale(params, 18.0) == 1.0       # 18 >= 18
        assert quadratic_scale(params, 18.1) == 2.0
        assert quadratic_scale(params, 72.0) == 4.0
        assert quadratic_scale(params, 288.0) == 8.0
        # c=2 also satisfies the inequality for f=18, but is not minimal
        assert 12 * 4 + 6 * 2 >= 18

    def test_scale_minimality(self):
        params = SumHessianParams(3, 2, 1.0)
        c = quadratic_scale(params, 18.0)
        assert 12 * c**2 + 6 * c >= 18.0
        assert 12 * (c / 2) ** 2 + 6 * (c / 2) < 18.0

    def test_admissible_for_all_orders(self):
        for mask in ("box", "ball"):
            dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name=mask)
            for k in (1, 2, 3):
                params = SumHessianParams(3, k, 1.0)
                fld = initial_guess(dom, params, RhsSpec.parse("18"), ZERO)
                assert admissible_mask(fld, params).all(), (mask, k)

    def test_boundary_values_exact(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        g = expr.parse("x1 + 2*x2")
        fld = initial_guess(dom, params, RhsSpec.parse("5"), g)
        bvals = boundary_values(dom, g)
        bdry = ~dom.interior_flat
        assert np.array_equal(fld.flat[bdry], bvals[bdry])

    def test_boundary_expression_restricted(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        with pytest.raises(InstanceError):
            boundary_values(dom, expr.parse("u + 1"))


class TestNewton:
    def test_exact_quadratic_instance(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        params = SumHessianParams(3, 2, 1.0)
        bnd = expr.parse("(x1^2 + x2^2 + x3^2 - 1)/2")
        result = newton_solve(dom, params, RhsSpec.parse("18"), bnd)
        ustar = 0.5 * (np.sum(dom.points**2, axis=1) - 1.0)
        assert result.converged(1e-10)
        assert np.max(np.abs(result.field.flat - ustar)) <= 1e-9
        assert result.admissible

    def test_linear_case_two_iterations(self):
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        params = SumHessianParams(2, 1, 1.0)
        result = newton_solve(dom, params, RhsSpec.parse("3 + x1"), ZERO)
        assert result.converged(1e-10)
        assert result.iterations <= 2

    def test_trace_monotone_and_admissible(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16))
        params = SumHessianParams(2, 2, 1.0)
        result = newton_solve(dom, params, RhsSpec.parse("8"), ZERO)
        assert result.converged(1e-10)
        residuals = [t.residual for t in result.trace]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert all(t.admissible for t in result.trace)
        assert all(t.margin > 0 for t in result.trace)
        assert result.trace[0].step == 0.0
        assert all(t.step > 0 for t in result.trace[1:])

    def test_gradient_dependent_rhs(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16))
        params = SumHessianParams(2, 2, 1.0)
        result = newton_solve(dom, params, RhsSpec.parse("8 + u/5 + (p1^2 + p2^2)/20"), ZERO)
        assert result.converged(1e-10)
        assert result.admissible

    def test_maximum_principle_sign(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16))
        params = SumHessianParams(2, 2, 0.5)
        result = newton_solve(dom, params, RhsSpec.parse("6"), ZERO)
        assert np.all(result.field.flat <= 0.0)

    def test_homotopy_schedule(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16))
        params = SumHessianParams(2, 2, 1.0)
        cfg = SolveConfig(homotopy=(0.25, 0.5, 1.0))
        result = newton_solve(dom, params, RhsSpec.parse("8"), ZERO, cfg)
        assert result.converged(1e-10)
        # a schedule must end at the target problem, t = 1
        with pytest.raises(ValueError):
            newton_solve(dom, params, RhsSpec.parse("8"), ZERO, SolveConfig(homotopy=(0.5,)))

    def test_masked_ball_solves(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name="ball")
        params = SumHessianParams(3, 2, 1.0)
        result = newton_solve(dom, params, RhsSpec.parse("18"), ZERO)
        assert result.converged(1e-10)
        # exact solution on the true ball is (|x|^2 - 1)/2; staircase error is O(h)
        ustar = 0.5 * (np.sum(dom.points**2, axis=1) - 1.0)
        mask = dom.interior_flat
        assert np.max(np.abs(result.field.flat[mask] - ustar[mask])) < 5 * dom.h

    def test_line_search_stall_raises_with_trace(self, monkeypatch):
        import sumhessian.solver as solver_mod
        from sumhessian.errors import NonConvergenceError

        # a useless step can never decrease the residual: the backtracking
        # line search must stall and surface the trace
        monkeypatch.setattr(solver_mod, "_solve_linear",
                            lambda mat, rhs_vec, rtol: np.zeros(mat.shape[0]))
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        with pytest.raises(NonConvergenceError) as err:
            newton_solve(dom, params, RhsSpec.parse("8"), ZERO)
        assert err.value.trace  # carries the iteration log

    def test_max_iter_returns_unconverged(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        result = newton_solve(dom, params, RhsSpec.parse("8"), ZERO,
                              SolveConfig(max_iter=1))
        assert result.iterations == 1
        assert not result.converged(1e-10)

    @pytest.mark.parametrize("case", ["ball16", "exp2d32"])
    def test_inexact_matches_near_exact(self, monkeypatch, case):
        import sumhessian.solver as solver_mod

        if case == "ball16":
            dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
            params, rhs, bnd = SumHessianParams(3, 2, 1.0), RhsSpec.parse("18"), ZERO
        else:
            dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
            params = SumHessianParams(2, 2, 1.0)
            rhs = RhsSpec.parse(EXP2D_RHS)
            bnd = expr.parse("exp((x1^2+x2^2)/2)")
        inexact = newton_solve(dom, params, rhs, bnd)
        # every step solved to relative residual 1e-12
        monkeypatch.setattr(solver_mod, "ETA_MAX", 1e-12)
        exact = newton_solve(dom, params, rhs, bnd)
        assert inexact.converged(1e-10) and exact.converged(1e-10)
        assert np.max(np.abs(inexact.field.flat - exact.field.flat)) <= 1e-9

    def test_linear_solve_error_carries_state(self, monkeypatch):
        import sumhessian.solver as solver_mod

        monkeypatch.setattr(solver_mod, "KRYLOV_MAXITER", 1)
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        params = SumHessianParams(2, 2, 1.0)
        with pytest.raises(LinearSolveError) as err:
            newton_solve(dom, params, RhsSpec.parse(EXP2D_RHS),
                         expr.parse("exp((x1^2+x2^2)/2)"))
        exc = err.value
        assert exc.iterations == 1
        assert exc.unknowns == dom.interior_idx.size
        assert exc.achieved > exc.required > 0
        msg = str(exc)
        assert f"{exc.achieved:.2e}" in msg and f"(required {exc.required:.2e})" in msg
        assert f"after 1 Krylov iterations on {exc.unknowns} unknowns" in msg

    def test_discrete_scale_covariance(self):
        params = SumHessianParams(3, 2, 1.0)
        fields = {}
        for radius in (1.0, 2.0):
            dom = make_domain(3, (-radius,) * 3, (radius,) * 3, (8,) * 3, mask_name="ball")
            fields[radius] = newton_solve(dom, params, RhsSpec.parse("18"), ZERO)
        h = fields[1.0].field.domain.h
        scaled = 4.0 * fields[1.0].field.values
        assert np.max(np.abs(fields[2.0].field.values - scaled)) <= 5 * h * h
