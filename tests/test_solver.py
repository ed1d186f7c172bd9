"""Residual, linearization, initial guess, and the damped Newton loop."""
import gc
import itertools
import math
import weakref
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator

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
from sumhessian.grid import MIN_CELLS, hessian_field, stencil_steps, sym_pairs
from sumhessian.solver import (
    EXTENSION_RTOL,
    ETA_MAX,
    _JacobianPattern,
    _assemble,
    _cone_margins,
    _grad_coeff_matrices,
    _invariants,
    _repair_admissibility,
    _rhs_at_rest,
    _solve_linear,
    _trace,
    _vcycle,
    admissible_mask,
    boundary_values,
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


def pack(stack):
    """Packed rows, (d(d+1)/2, N), of a stack of symmetric matrices (N, d, d)."""
    return np.stack([stack[:, a, b] for a, b in sym_pairs(stack.shape[-1])])


def unpack(packed):
    """The stack of symmetric matrices (N, d, d) of packed rows (d(d+1)/2, N)."""
    dim = math.isqrt(2 * packed.shape[0])
    out = np.empty((packed.shape[1], dim, dim))
    for row, (a, b) in enumerate(sym_pairs(dim)):
        out[:, a, b] = out[:, b, a] = packed[row]
    return out


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

    @pytest.mark.parametrize("mask", ["box", "ball"])
    def test_interior_vector_in_interior_idx_order(self, mask):
        """S_k - f of each interior point, in interior_idx order: the layout
        of admissible_mask, of the Jacobian's rows and of a Krylov vector."""
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name=mask)
        params = SumHessianParams(3, 2, 1.0)
        fld = field_from(dom, lambda p: np.exp(0.5 * np.sum(p**2, axis=1)))
        res = residual(fld, params, RhsSpec.parse("18 + x1"))
        assert res.shape == (dom.interior_idx.size,)
        assert res.shape == admissible_mask(fld, params).shape
        hess = unpack(hessian_field(fld))
        want = operator_value(hess, params) - (18 + dom.points[dom.interior_idx, 0])
        assert np.max(np.abs(res - want)) <= 1e-12 * np.max(np.abs(want))

    def test_f_values_match_evaluation_bitwise(self):
        params = SumHessianParams(2, 2, 1.0)
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        fld = field_from(dom, lambda p: np.exp(0.5 * np.sum(p**2, axis=1)))
        rhs = RhsSpec.parse(EXP2D_RHS)
        pts = dom.points[dom.interior_idx]
        f_values = expr.evaluate(rhs.expression, {"x1": pts[:, 0], "x2": pts[:, 1]})
        res = residual(fld, params, rhs)
        assert np.max(np.abs(res)) > 0
        assert residual(fld, params, rhs, f_values=f_values).tobytes() == res.tobytes()

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
        sig, powers = _invariants(pack(hb), k)
        # S_k is homogeneous of degree k in H, its gradient of degree k - 1
        scale = 1.0 + np.linalg.norm(hb, axis=(1, 2))
        value = sig[k] + alpha * sig[k - 1]
        assert np.max(np.abs(value - operator_value(hb, params)) / scale**k) <= 1e-12
        grad_err = np.linalg.norm(unpack(_grad_coeff_matrices(sig, powers, params))
                                  - operator_grad(hb, params), axis=(1, 2))
        assert np.max(grad_err / scale ** (k - 1)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_k1_coefficients_are_exactly_d_minus_1_identity(self, d, alpha):
        # dS_1/dH = (d - 1) I for every H: no rounding may reach it
        hp = pack(hessian_stack(np.random.default_rng(3), d))
        coeff = _grad_coeff_matrices(*_invariants(hp, 1), SumHessianParams(d, 1, alpha))
        assert coeff.shape == hp.shape
        expect = np.broadcast_to((d - 1) * np.eye(d), (hp.shape[1], d, d))
        assert np.array_equal(unpack(coeff), expect)

    @pytest.mark.parametrize("d", [2, 3])
    def test_packed_trace_is_np_trace(self, d):
        # the kernel sums the packed diagonal rows; it must not move a bit
        # against the trace of the unpacked stack
        stack = np.random.default_rng(d).normal(size=(20000, d, d))
        stack[::7] *= 1e150
        stack[::11] *= 1e-150
        stack = stack + stack.transpose(0, 2, 1)
        assert (_trace(pack(stack), d).tobytes()
                == np.trace(stack, axis1=-2, axis2=-1).tobytes())


def whole_blend(values: np.ndarray) -> np.ndarray:
    """transfinite_blend over every axis-0 plane of the box at once."""
    cells = values.shape[0] - 1
    return transfinite_blend(values, values[[0, -1]], slice(0, cells + 1), cells)


def axis_blend(values: np.ndarray, axis: int) -> np.ndarray:
    """Linear blend of the two opposite faces along one axis."""
    n = values.shape[axis] - 1
    weight_shape = [1] * values.ndim
    weight_shape[axis] = n + 1
    w = (np.arange(n + 1) / n).reshape(weight_shape)
    lo = np.take(values, [0], axis=axis)
    hi = np.take(values, [n], axis=axis)
    return (1.0 - w) * lo + w * hi


def inclusion_exclusion_blend(values: np.ndarray) -> np.ndarray:
    """The boolean sum of the axis projections P_a written out term by term:
    the sum over nonempty axis subsets S of (-1)^(|S|+1) prod_{a in S} P_a,
    the projections applied from the last axis of S to the first."""
    blend = np.zeros_like(values)
    for size in range(1, values.ndim + 1):
        for axes in itertools.combinations(range(values.ndim), size):
            term = values
            for a in reversed(axes):
                term = axis_blend(term, a)
            blend += term if size % 2 else -term
    return blend


class TestTransfiniteBlend:
    @pytest.mark.parametrize("shape", [(9, 12), (9, 10, 11), (17, 9, 13)])
    def test_matches_inclusion_exclusion(self, shape):
        """The axis-by-axis boolean sum is the 2^d - 1 term sum, to rounding."""
        values = np.random.default_rng(5).normal(size=shape)
        assert np.max(np.abs(whole_blend(values) - inclusion_exclusion_blend(values))) <= 1e-13

    @pytest.mark.parametrize("shape", [(9, 12), (9, 10, 11)])
    def test_reproduces_every_face(self, shape):
        values = np.random.default_rng(2).normal(size=shape)
        blend = whole_blend(values)
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
        assert np.max(np.abs(whole_blend(faces_only) - exact)) <= 1e-13

    @pytest.mark.parametrize("shape", [(9, 12), (9, 10, 11)])
    def test_slabs_give_the_whole_blend(self, shape):
        """Blending slabs of axis-0 planes from the two axis-0 faces gives
        the bits of one pass over the box, and reads no inner value."""
        values = np.random.default_rng(3).normal(size=shape)
        whole = whole_blend(values)
        faces_only = values.copy()
        faces_only[(slice(1, -1),) * len(shape)] = np.nan
        cells = shape[0] - 1
        for start, stop in ((0, 1), (1, 4), (4, 8), (8, 9)):
            rows = slice(start, stop)
            slab = transfinite_blend(faces_only[rows], values[[0, -1]], rows, cells)
            assert slab.tobytes() == whole[rows].tobytes()


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
    shift = (0.1 * max(1.0, scale) / (d - 1)) * pack(np.eye(d)[None])
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
    def test_matches_coo_reference(self, dim, mask, monkeypatch):
        import sumhessian.grid as grid

        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (12,) * dim, mask_name=mask)
        rng = np.random.default_rng(dim)
        n_int = dom.interior_idx.size
        coeff = rng.normal(size=(n_int, dim, dim))
        coeff = coeff + coeff.transpose(0, 2, 1)
        f_u, f_p = rng.normal(size=n_int), rng.normal(size=(n_int, dim))
        want = coo_reference(dom, coeff, f_u, f_p)
        width = 2 * dim * dim + 1
        packed = pack(coeff)
        # every row in one block, then many blocks and a short last one
        for rows in (n_int, 97):
            monkeypatch.setattr(grid, "BLOCK_POINTS", rows)
            assert (len(list(grid.interior_blocks(dom))) > 1) == (rows < n_int)
            pattern = _JacobianPattern(dom)
            got = _assemble(dom, pattern, lambda b: (packed[:, b], f_u[b], f_p[b]))
            assert got.indptr.dtype == got.indices.dtype == np.int32
            assert np.array_equal(got.indptr, width * np.arange(n_int + 1))
            # every absent slot is +0.0 on its own row's column
            indices, absent = pattern.arrays
            assert absent.size > 0
            assert np.array_equal(got.indices[absent], absent // width)
            assert not got.data[absent].view(np.int64).any()
            # the operator, its duplicates summed as tocsr sums the
            # reference's, is the reference's bit for bit
            summed = sp.csr_matrix((got.data.copy(), got.indices.copy(), got.indptr.copy()),
                                   shape=got.shape)
            summed.sum_duplicates()
            for attr in ("indptr", "indices", "data"):
                assert getattr(summed, attr).tobytes() == getattr(want, attr).tobytes(), attr

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

        built, grids = [], []

        def count(cls, attr, log):
            build = getattr(cls, attr).func

            def counting(self):
                log.append(self)
                return build(self)

            prop = cached_property(counting)
            prop.__set_name__(cls, attr)
            monkeypatch.setattr(cls, attr, prop)

        count(solver_mod._JacobianPattern, "arrays", built)
        count(solver_mod._CoarseGrids, "levels", grids)
        params = SumHessianParams(3, 2, 1.0)
        # a ball solve builds the extension's (2d + 1)-point Laplacian
        # pattern, then the one Jacobian pattern of every Newton step; both
        # are built on one set of coarse grids, whose prolongations they share
        ball = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
        assert newton_solve(ball, params, RhsSpec.parse("18"), ZERO).iterations > 0
        assert [(p.dom, len(p.directions)) for p in built] == [(ball, 7), (ball, 19)]
        assert len(grids) == 1 and all(p.grids is grids[0] for p in built)
        laplacian, jacobian = built
        assert len(jacobian.levels) == 1
        assert laplacian.levels[0][0] is jacobian.levels[0][0] is grids[0].levels[0][0]
        # an exact guess on a box assembles nothing and builds nothing
        box = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        exact = newton_solve(box, params, RhsSpec.parse("18"),
                             expr.parse("(x1^2 + x2^2 + x3^2 - 1)/2"))
        assert exact.iterations == 0
        assert len(built) == 2 and len(grids) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_laplacian_pattern_drops_only_the_zero_slots(self, dim):
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (16,) * dim, mask_name="ball")
        full = _JacobianPattern(dom)
        axes = full.directions[np.count_nonzero(full.directions, axis=1) <= 1]
        lean = _JacobianPattern(dom, axes, full.grids)
        n_int = dom.interior_idx.size
        eye = pack(np.eye(dim)[None])

        def terms(block):
            return eye, np.zeros(block.stop - block.start), np.zeros((1, dim))

        lap = _assemble(dom, lean, terms)
        assert np.array_equal(np.diff(lap.indptr), np.full(n_int, 2 * dim + 1))
        # both Laplacians with their explicit zeros eliminated (on copies:
        # a matrix shares its index arrays with the pattern) are the same
        # matrix: the full pattern's extra slots are all zeros
        full_lap = _assemble(dom, full, terms)
        want, got = full_lap.copy(), lap.copy()
        want.eliminate_zeros()
        got.eliminate_zeros()
        assert want.nnz == got.nnz < lap.nnz < full_lap.nnz
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
        # the extension's solve: the same x, bit for bit, in as many iterations
        b = np.random.default_rng(dim).normal(size=n_int)
        x, krylov, achieved = _solve_linear(lap, b, EXTENSION_RTOL, lean)
        x_full, krylov_full, achieved_full = _solve_linear(full_lap, b, EXTENSION_RTOL, full)
        assert krylov == krylov_full > 0 and achieved == achieved_full
        assert x.tobytes() == x_full.tobytes()
        assert lean.levels[0][0] is full.levels[0][0]

    def test_pattern_index_arrays_are_read_only(self):
        # an assembled matrix shares the pattern's indices, so an in-place
        # CSR operation on it raises instead of rewriting the pattern of
        # the next assembly
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
        pattern = _JacobianPattern(dom)
        eye = pack(np.eye(3)[None])

        def terms(block):
            return eye, 0.0, np.zeros((1, 3))

        lap = _assemble(dom, pattern, terms)
        want = [getattr(lap, attr).tobytes() for attr in ("indptr", "indices", "data")]
        assert np.count_nonzero(lap.data) < lap.nnz     # the mixed and absent slots' zeros
        with pytest.raises(ValueError, match="read-only"):
            lap.eliminate_zeros()
        again = _assemble(dom, pattern, terms)
        assert [getattr(again, attr).tobytes() for attr in ("indptr", "indices", "data")] == want
        indices, absent = pattern.arrays
        arrays = [indices, absent] + [a for level in pattern.levels for a in level[2:]]
        assert len(arrays) == 4 and not any(a.flags.writeable for a in arrays)


def coarse_domains(dom):
    """The coarse grids of the V-cycle as domains, finest first."""
    out, cells = [], np.array(dom.cells)
    while np.all(cells % 2 == 0) and np.all(cells // 2 >= MIN_CELLS):
        cells //= 2
        out.append(make_domain(dom.dim, dom.lower, dom.upper, tuple(cells), dom.mask_name))
    return out


def kronecker_prolongation(fine, coarse):
    """The prolongation as the whole grid's Kronecker product of 1-D linear
    interpolations, sliced to the fine interior rows and the coarse
    interior columns."""
    full = None
    for n_fine, n_coarse in zip(fine.shape, coarse.shape):
        m = np.arange(n_fine)
        eye = sp.identity(n_coarse, format="csr")
        axis = 0.5 * (eye[m // 2] + eye[(m + 1) // 2])
        full = axis if full is None else sp.kron(full, axis, format="csr")
    return full[fine.interior_idx][:, coarse.interior_idx]


# grids whose axes differ, each with one coarse level (an axis of 8 cells
# has none): a box, a 2D box and a disc
UNEVEN_GRIDS = [pytest.param(3, (32, 16, 64), "box", id="3-32x16x64-box"),
                pytest.param(2, (16, 64), "box", id="2-16x64-box"),
                pytest.param(2, (40, 24), "ball", id="2-40x24-ball")]


def centred_domain(dim, cells, mask):
    """A grid of this many cells per axis (one number: all axes) about the
    origin, its longest axis spanning [-1, 1]."""
    cells = cells if isinstance(cells, tuple) else (cells,) * dim
    upper = tuple(c / max(cells) for c in cells)
    return make_domain(dim, tuple(-u for u in upper), upper, cells, mask_name=mask)


def grid_points(dom, idx):
    """Multi-indices of flat indices, (idx.size, d)."""
    return np.stack(np.unravel_index(idx, dom.shape), axis=1)


class TestMultigrid:
    @pytest.mark.parametrize("dim,cells,mask,depth", [
        (2, 256, "box", 5), (3, 32, "ball", 2), (3, 16, "ball", 1), (3, 8, "ball", 0),
        (2, 26, "box", 1), (2, 20, "box", 1), (2, 14, "box", 0), (2, 17, "box", 0)])
    def test_levels_halve_down_to_min_cells(self, dim, cells, mask, depth):
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (cells,) * dim, mask_name=mask)
        levels = _JacobianPattern(dom).levels
        assert len(levels) == depth == len(coarse_domains(dom))
        for (prolong, rows, indices, _), coarse in zip(levels, coarse_domains(dom)):
            assert indices.shape[0] == rows.size == prolong.shape[1] == coarse.interior_idx.size

    @pytest.mark.parametrize("cells,mask", [
        ((32, 32), "box"), ((32, 32), "ball"), ((8, 64), "box"), ((16, 64), "box"),
        ((16, 16, 16), "ball"), ((32, 32, 32), "box"), ((16, 8, 32), "box"),
        ((32, 16, 64), "box")])
    def test_one_step_per_slot_on_every_level(self, cells, mask):
        dim = len(cells)
        dom = make_domain(dim, (0.0,) * dim, cells, cells, mask_name=mask)
        pattern = _JacobianPattern(dom)
        steps = pattern.directions
        assert np.array_equal(steps, stencil_steps(dim))
        # the centre is the middle row, and the steps pair up around it
        assert not steps[len(steps) // 2].any()
        assert np.array_equal(steps, -steps[::-1])
        grids = [(dom.shape, dom.interior_idx)] + [
            (shape, idx) for _, shape, idx, _ in pattern.grids.levels]
        arrays = [pattern.arrays] + [level[2:] for level in pattern.levels]
        # down to the coarsest level, 9 points on its shortest axis
        assert min(grids[-1][0]) == MIN_CELLS + 1
        for (shape, idx), (indices, absent) in zip(grids, arrays):
            strides = [math.prod(shape[a + 1:]) for a in range(dim)]
            offsets = steps @ strides
            # the table's order is that of the flat offsets on every level ...
            assert np.all(np.diff(offsets) > 0)
            # ... and slot j of every row is its neighbour one step steps[j] away
            present = np.ones(indices.shape, dtype=bool)
            present.reshape(-1)[absent] = False
            assert np.array_equal(idx[indices][present], (idx[:, None] + offsets)[present])

    @pytest.mark.parametrize("dim,cells,mask", [(2, 32, "box"), (3, 16, "ball"),
                                                (3, 16, "box"), (2, 32, "ball")] + UNEVEN_GRIDS)
    def test_prolongation_is_multilinear_interpolation(self, dim, cells, mask):
        dom = centred_domain(dim, cells, mask)
        coarse = coarse_domains(dom)[0]
        prolong = _JacobianPattern(dom).levels[0][0]

        def multilinear(pts):
            return 1.0 + pts @ np.arange(1.0, dim + 1) + np.prod(pts, axis=1) \
                - 2.0 * pts[:, 0] * pts[:, 1]

        fine = prolong @ multilinear(coarse.points[coarse.interior_idx])
        exact = multilinear(dom.points[dom.interior_idx])
        # rows whose coarse neighbours are all interior reproduce it exactly
        whole = np.isclose(prolong.sum(axis=1).A1, 1.0, rtol=0.0, atol=1e-15)
        assert whole.mean() > 0.5
        assert np.max(np.abs(fine[whole] - exact[whole])) <= 1e-13
        # every row is n-linear interpolation of the coarse values, with
        # zero at coarse boundary points
        axes = [coarse.lower[a] + coarse.h * np.arange(coarse.shape[a]) for a in range(dim)]
        zeroed = np.where(coarse.interior_flat, multilinear(coarse.points), 0.0)
        reference = RegularGridInterpolator(axes, zeroed.reshape(coarse.shape))(
            dom.points[dom.interior_idx])
        assert np.max(np.abs(fine - reference)) <= 1e-13

    @pytest.mark.parametrize("dim,cells,mask", [(2, 32, "box"), (2, 40, "ball"),
                                                (3, 16, "box"), (3, 32, "ball")] + UNEVEN_GRIDS)
    def test_prolongation_is_the_sliced_kronecker_product(self, dim, cells, mask, monkeypatch):
        import sumhessian.grid as grid

        dom = centred_domain(dim, cells, mask)
        # built block by block: many blocks and a short last one
        monkeypatch.setattr(grid, "BLOCK_POINTS", 97)
        assert dom.interior_idx.size > 4 * 97
        fine = dom
        for (prolong, *_), coarse in zip(_JacobianPattern(dom).levels, coarse_domains(dom)):
            want = kronecker_prolongation(fine, coarse)
            for attr in ("data", "indices", "indptr"):
                assert getattr(prolong, attr).tobytes() == getattr(want, attr).tobytes(), attr
            fine = coarse
        assert fine is not dom

    @pytest.mark.parametrize("dim,cells,mask", [(3, 16, "ball"), (3, 32, "ball"),
                                                (2, 32, "box")])
    def test_coarse_rows_take_the_injected_fine_row(self, dim, cells, mask, monkeypatch):
        import sumhessian.solver as solver_mod

        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (cells,) * dim, mask_name=mask)
        pattern = _JacobianPattern(dom)
        n_int = dom.interior_idx.size
        rng = np.random.default_rng(cells)
        coeff = rng.normal(size=(n_int, dim, dim))
        packed = pack(coeff + coeff.transpose(0, 2, 1))
        f_u, f_p = rng.normal(size=n_int), rng.normal(size=(n_int, dim))
        mat = _assemble(dom, pattern, lambda b: (packed[:, b], f_u[b], f_p[b]))
        # the coarse operators, as the V-cycle builds them
        built, fixed_width_csr = [], solver_mod._fixed_width_csr
        monkeypatch.setattr(solver_mod, "_fixed_width_csr",
                            lambda *args: built.append(fixed_width_csr(*args)) or built[-1])
        _vcycle(mat, pattern)
        assert len(built) == len(pattern.levels) > 0

        def present(indices, absent):
            mask = np.ones(indices.shape, dtype=bool)
            mask.reshape(-1)[absent] = False
            return mask

        fine, (f_indices, f_absent), f_op = dom, pattern.arrays, mat
        width = f_indices.shape[1]
        for (_, rows, indices, absent), op, coarse in zip(pattern.levels, built,
                                                          coarse_domains(dom)):
            n = rows.size
            # every coarse interior point injects to a fine interior point
            injected = np.ravel_multi_index(tuple(2 * grid_points(coarse, coarse.interior_idx).T),
                                            fine.shape)
            assert np.array_equal(fine.interior_idx[rows], injected)
            # the centre is the middle slot, present in every row
            assert np.array_equal(indices[:, width // 2], np.arange(n))
            # each present coarse slot takes a present slot of its injected
            # fine row, in the same stencil direction
            keep = present(indices, absent)
            assert present(f_indices, f_absent)[rows][keep].all()
            row_of = np.broadcast_to(np.arange(n)[:, None], indices.shape)
            own = row_of[keep]
            c_step = grid_points(coarse, coarse.interior_idx[indices[keep]]) \
                - grid_points(coarse, coarse.interior_idx[own])
            f_cols = f_indices[rows][keep]
            f_step = grid_points(fine, fine.interior_idx[f_cols]) \
                - grid_points(fine, injected[own])
            assert np.array_equal(c_step, f_step)
            # ... and is 1/4 of that fine entry; an absent slot is +0.0
            # on its own row's column
            data = op.data.reshape(n, width)
            fine_data = f_op.data.reshape(-1, width)[rows]
            assert data[keep].tobytes() == (0.25 * fine_data[keep]).tobytes()
            assert not data[~keep].view(np.int64).any()
            assert np.array_equal(indices[~keep], row_of[~keep])
            fine, f_indices, f_absent, f_op = coarse, indices, absent, op

    @pytest.mark.parametrize("cells", [8, 32])
    def test_vcycle_is_linear_and_repeatable(self, cells):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
        params = SumHessianParams(3, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1) + 0.1 * p[:, 0] ** 3)
        pattern = _JacobianPattern(dom)
        mat = linearize(fld, params, RhsSpec.parse("18 + x1^2"), pattern=pattern)
        cycle = _vcycle(mat, pattern)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, mat.shape[0]))
        a, b = 0.7, -2.3
        given = a * x + b * y
        kept = given.copy()
        combined = cycle.matvec(given)
        # BiCGSTAB reads its p and s again after preconditioning them
        assert given.tobytes() == kept.tobytes()
        separate = a * cycle.matvec(x) + b * cycle.matvec(y)
        assert np.linalg.norm(combined - separate) <= 1e-12 * np.linalg.norm(separate)
        again = _vcycle(mat, pattern).matvec(given)
        assert again.tobytes() == combined.tobytes()
        assert given.tobytes() == kept.tobytes()

    def test_vcycle_is_freed_without_the_collector(self):
        # a reference cycle would keep every level's operator alive after
        # the solve until the garbage collector runs, raising peak memory
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        pattern = _JacobianPattern(dom)
        n_int = dom.interior_idx.size
        eye = pack(np.eye(2)[None])
        lap = _assemble(dom, pattern, lambda b: (eye, 0.0, np.zeros((1, 2))))
        gc.disable()
        try:
            cycle = _vcycle(lap, pattern)
            cycle.matvec(np.ones(n_int))
            freed = weakref.ref(lap)
            del cycle, lap
            assert freed() is None
        finally:
            gc.enable()

    def test_zero_rhs_runs_no_krylov_solve(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def bicgstab(*args, **kwargs):
            raise AssertionError("BiCGSTAB ran on a zero right-hand side")

        monkeypatch.setattr(spla, "bicgstab", bicgstab)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        mat = linearize(fld, SumHessianParams(2, 1, 0.0), RhsSpec.parse("1"))
        n_int = dom.interior_idx.size
        x, krylov, achieved = _solve_linear(mat, np.zeros(n_int), 1e-10, _JacobianPattern(dom))
        assert (krylov, achieved) == (0, 0.0)
        assert x.tobytes() == np.zeros(n_int).tobytes()

    def test_trace_records_krylov_and_linear_residual(self):
        params = SumHessianParams(3, 2, 1.0)
        # an 8-cell grid has no coarse level: its V-cycle is Jacobi sweeps alone
        for cells in (8, 16):
            ball = make_domain(3, (-1,) * 3, (1,) * 3, (cells,) * 3, mask_name="ball")
            result = newton_solve(ball, params, RhsSpec.parse("18"), ZERO)
            assert result.converged(1e-10)
            # step 0 is the harmonic extension
            assert result.trace[0].krylov > 0
            assert 0 < result.trace[0].linear_residual <= EXTENSION_RTOL
            assert all(t.krylov > 0 and 0 < t.linear_residual <= ETA_MAX
                       for t in result.trace[1:])
        # the box guess is the face blend, which solves nothing
        box = make_domain(2, (-1, -1), (1, 1), (16, 16))
        blended = newton_solve(box, SumHessianParams(2, 2, 1.0), RhsSpec.parse(EXP2D_RHS),
                               expr.parse("exp((x1^2+x2^2)/2)"))
        assert (blended.trace[0].krylov, blended.trace[0].linear_residual) == (0, 0.0)
        # each entry reads its iterate's record: the guess carries its
        # extension's
        for dom, case, rhs, g in ((ball, params, RhsSpec.parse("18"), ZERO),
                                  (box, SumHessianParams(2, 2, 1.0), RhsSpec.parse(EXP2D_RHS),
                                   expr.parse("exp((x1^2+x2^2)/2)"))):
            guess = initial_guess(dom, case, rhs, g)
            first = newton_solve(dom, case, rhs, g).trace[0]
            assert (guess.krylov, guess.linear_residual) == (first.krylov, first.linear_residual)

    def test_krylov_counts_flat_under_refinement(self):
        params = SumHessianParams(2, 2, 1.0)
        rhs, bnd = RhsSpec.parse(EXP2D_RHS), expr.parse("exp((x1^2+x2^2)/2)")
        most = {}
        for cells in (32, 64, 128):
            dom = make_domain(2, (-1, -1), (1, 1), (cells, cells))
            result = newton_solve(dom, params, rhs, bnd)
            assert result.converged(1e-10)
            most[cells] = max(t.krylov for t in result.trace)
        assert most[64] <= math.ceil(1.25 * most[32])
        assert most[128] <= math.ceil(1.25 * most[32])


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

    def test_out_of_sweeps_but_admissible(self, monkeypatch):
        import sumhessian.solver as solver_mod

        # admissible, but short of the repair's uniform margin: the sweeps
        # lower it, and with none left the last check takes it as it is
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        fld = field_from(dom, lambda p: 0.005 * np.sum(p**2, axis=1))
        params = SumHessianParams(3, 2, 1.0)
        assert _repair_admissibility(fld, params, 1.0).values.tobytes() != fld.values.tobytes()
        monkeypatch.setattr(solver_mod, "REPAIR_SWEEPS", 0)
        repaired = _repair_admissibility(fld, params, 1.0)
        assert isinstance(repaired, solver_mod._Iterate)
        assert repaired.evaluation is not None and repaired.evaluation.mask.all()
        assert repaired.values.tobytes() == fld.values.tobytes()

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

    @pytest.mark.parametrize("dim,mask,cells", [(3, "ball", 12), (2, "box", 24)])
    @pytest.mark.parametrize("source,f_u,f_p1", [("18 - u + p1", -1.0, 1.0),
                                                 ("18 - u/2 + p1/4", -0.5, 0.25)])
    def test_constant_derivatives_broadcast(self, dim, mask, cells, source, f_u, f_p1,
                                            monkeypatch):
        """A derivative tree that evaluates to a scalar on a block's env is
        broadcast over the block's rows: the Jacobian is, bit for bit, the
        one assembled from whole-interior arrays of the same constants."""
        import sumhessian.grid as grid

        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (cells,) * dim, mask_name=mask)
        params, rhs = SumHessianParams(dim, 2, 1.0), RhsSpec.parse(source)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1) + 0.1 * p[:, 0] ** 3)
        env = {"u": np.ones(3), "p1": np.ones(3)}
        scalars = [np.ndim(expr.evaluate(expr.diff(rhs.expression, key), env)) == 0
                   for key in ["u"] + [f"p{a + 1}" for a in range(dim)]]
        assert scalars == ([True] * (dim + 1) if source == "18 - u + p1"
                           else [False, False] + [True] * (dim - 1))
        n_int = dom.interior_idx.size
        coeff = _grad_coeff_matrices(*_invariants(hessian_field(fld), 2), params)
        f_u_whole = np.full(n_int, f_u)
        f_p_whole = np.zeros((n_int, dim))
        f_p_whole[:, 0] = f_p1
        pattern = _JacobianPattern(dom)
        want = _assemble(dom, pattern, lambda b: (coeff[:, b], f_u_whole[b], f_p_whole[b]))
        monkeypatch.setattr(grid, "BLOCK_POINTS", 97)
        assert n_int > 4 * 97
        got = linearize(fld, params, rhs, pattern=pattern)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr

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
        fd = (residual(plus, params, rhs) - residual(minus, params, rhs)) / (2 * eps)
        got = mat @ delta[dom.interior_idx]
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(fd - got)) / denom < 1e-4

    def test_abs_derivative_at_zero_names_the_subexpression(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))   # u = 0 at the centre
        with pytest.raises(InstanceError) as err:
            linearize(fld, params, RhsSpec.parse("8 + abs(u)"))
        assert "'(u / abs(u))'" in str(err.value)

    def test_admissibility_read_from_the_evaluation(self, monkeypatch):
        import sumhessian.solver as solver_mod

        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        params, rhs = SumHessianParams(3, 2, 1.0), RhsSpec.parse("18")
        values = 0.5 * np.sum(dom.points**2, axis=1).reshape(dom.shape)
        iterate = solver_mod._Iterate(dom, values.copy(), params)
        assert admissible_mask(iterate, params).all()     # evaluates the iterate
        calls = []
        cone_margins = solver_mod._cone_margins

        def counted(*args):
            calls.append(args)
            return cone_margins(*args)

        monkeypatch.setattr(solver_mod, "_cone_margins", counted)
        mat = linearize(iterate, params, rhs)
        assert calls == []
        # a plain field is evaluated afresh, to the same matrix
        plain = linearize(ScalarField(dom, values), params, rhs)
        assert calls
        assert plain.data.tobytes() == mat.data.tobytes()
        # an inadmissible plain field: the first bad point is named
        values[3, 4, 5] += 0.1
        values[5, 2, 2] += 0.1
        bad = dom.interior_idx[~admissible_mask(ScalarField(dom, values), params)]
        assert bad.tolist() == np.ravel_multi_index(([3, 5], [4, 2], [5, 2]), dom.shape).tolist()
        with pytest.raises(ConeViolationError, match=r"grid point \(3, 4, 5\)"):
            linearize(ScalarField(dom, values), params, rhs)

    def test_residual_reevaluates_an_iterate_whose_s_k_was_taken(self, monkeypatch):
        import sumhessian.solver as solver_mod

        dom = make_domain(3, (-1,) * 3, (1,) * 3, (12,) * 3, mask_name="ball")
        params, rhs = SumHessianParams(3, 2, 1.0), RhsSpec.parse("18")
        guess = initial_guess(dom, params, rhs, ZERO)
        assert isinstance(guess, solver_mod._Iterate)
        calls = []
        evaluate_field = solver_mod._evaluate_field
        monkeypatch.setattr(solver_mod, "_evaluate_field",
                            lambda *args: calls.append(args) or evaluate_field(*args))
        first = residual(guess, params, rhs)    # takes the evaluation's S_k
        before = len(calls)
        again = residual(guess, params, rhs)
        assert len(calls) == before + 1
        assert again.tobytes() == first.tobytes()

    def test_ellipticity_witness(self):
        # the coefficient matrices of an admissible field are positive
        # definite: eigenvalues of dF per interior point
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3)
        params = SumHessianParams(3, 2, 1.0)
        fld = field_from(dom, lambda p: 0.5 * np.sum(p**2, axis=1))
        sig, powers = _invariants(hessian_field(fld), params.k)
        eigs = np.linalg.eigvalsh(unpack(_grad_coeff_matrices(sig, powers, params)))
        assert eigs.shape == (dom.interior_idx.size, 3)
        mins, sums = eigs[:, 0], eigs.sum(axis=1)
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

    def test_scale_beyond_the_cap_raises(self):
        with pytest.raises(InstanceError, match="below 2\\^40"):
            quadratic_scale(SumHessianParams(3, 2, 1.0), 1e30)

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

    def test_box_guess_is_the_blend_of_g(self):
        """On the exp3d-32 box the guess's interior is the whole-box face
        blend of g, bit for bit."""
        s = "(x1^2+x2^2+x3^2)"
        dom = make_domain(3, (-0.75,) * 3, (0.75,) * 3, (32,) * 3)
        rhs = RhsSpec.parse(f"exp({s})*((2+{s})^2 + 4*(2+{s})) + exp({s}/2)*(6+2*{s})")
        boundary = expr.parse(f"exp({s}/2)")
        guess = initial_guess(dom, SumHessianParams(3, 2, 1.0), rhs, boundary)
        blend = whole_blend(boundary_values(dom, boundary).reshape(dom.shape)).ravel()
        inside = dom.interior_flat
        assert guess.flat[inside].tobytes() == blend[inside].tobytes()

    def test_boundary_values_exact(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        g = expr.parse("x1 + 2*x2")
        fld = initial_guess(dom, params, RhsSpec.parse("5"), g)
        bvals = boundary_values(dom, g)
        bdry = ~dom.interior_flat
        assert np.array_equal(fld.flat[bdry], bvals[bdry])

    # Dirichlet data undefined at the origin, an interior grid point: g is
    # read on the boundary layer only, so the guess and the solve go through
    SINGULAR_INSIDE = [("box", "-1/sqrt(x1^2 + x2^2 + x3^2)"),
                       ("ball", "log(x1^2 + x2^2 + x3^2)")]

    @pytest.mark.parametrize("mask,g", SINGULAR_INSIDE)
    def test_data_singular_inside(self, mask, g):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name=mask)
        assert dom.interior_flat[np.ravel_multi_index(dom.center_index(), dom.shape)]
        params, rhs, boundary = SumHessianParams(3, 2, 1.0), RhsSpec.parse("18"), expr.parse(g)
        bvals = boundary_values(dom, boundary)
        assert np.all(bvals[dom.interior_flat] == 0.0)
        bdry = ~dom.interior_flat
        fld = initial_guess(dom, params, rhs, boundary)
        assert np.array_equal(fld.flat[bdry], bvals[bdry])
        assert admissible_mask(fld, params).all()
        result = newton_solve(dom, params, rhs, boundary)
        assert result.converged(1e-10) and result.admissible
        assert np.array_equal(result.field.flat[bdry], bvals[bdry])

    def test_boundary_expression_restricted(self):
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        with pytest.raises(InstanceError):
            boundary_values(dom, expr.parse("u + 1"))
        with pytest.raises(InstanceError, match="boundary data failed to evaluate"):
            boundary_values(dom, expr.parse("log(x1)"))


def held_state(exc, dom) -> list:
    """(function, local name) of every sparse matrix, _JacobianPattern,
    ScalarField or array of at least n_interior elements that the frames of
    the exception's traceback still hold, the domain's own interior_idx and
    interior_flat aside."""
    def grid_sized(value) -> bool:
        if sp.issparse(value) or isinstance(value, (_JacobianPattern, ScalarField)):
            return True
        return (isinstance(value, np.ndarray) and value.size >= dom.interior_idx.size
                and value is not dom.interior_idx and value is not dom.interior_flat)

    held = []
    tb = exc.__traceback__
    while tb is not None:
        held += [(tb.tb_frame.f_code.co_name, name)
                 for name, value in tb.tb_frame.f_locals.items() if grid_sized(value)]
        tb = tb.tb_next
    return held


class TestNewton:
    @pytest.mark.parametrize("key,value", [
        ("tol", 0.0), ("tol", math.nan), ("tol", math.inf), ("max_iter", -1)])
    def test_solve_config_checks_itself(self, key, value):
        message = {"tol": "tol must be a finite number > 0", "max_iter": "max_iter must be >= 0"}
        with pytest.raises(ValueError, match=message[key]):
            SolveConfig(**{key: value})

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

    # g of the 16^2 box is -0.0 on every face: a trial copies the boundary
    # layer, so it keeps the sign bit that adding a step of +0.0 would flip
    @pytest.mark.parametrize("dim,mask,k,f,g", [
        (2, "box", 2, "3", "-0*(x1+2)"),
        (2, "box", 2, EXP2D_RHS, "exp((x1^2+x2^2)/2)"),
        (3, "ball", 3, "20", "x1/10 + x2*x3/5")])
    def test_boundary_layer_is_g_bit_for_bit(self, dim, mask, k, f, g):
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (16,) * dim, mask_name=mask)
        boundary = expr.parse(g)
        result = newton_solve(dom, SumHessianParams(dim, k, 1.0), RhsSpec.parse(f), boundary)
        assert result.converged(1e-10) and result.iterations > 0
        bdry = ~dom.interior_flat
        assert result.field.flat[bdry].tobytes() == boundary_values(dom, boundary)[bdry].tobytes()

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

    # exact solution exp(|x|^2/2) with S = |x|^2: Du = x u and
    # D^2 u = u (I + x x^T), so these f(x, u, Du) equal S_2(eta(lam(D^2 u)))
    # at alpha = 1; the error bounds are 1.5x the measured errors (5.6e-4,
    # 1.4e-4 and 1.0e-3)
    @pytest.mark.parametrize("dim, cells, half, rhs, bound", [
        (2, 32, 1.0, "exp(x1^2+x2^2) + p1^2 + p2^2 + (2 + x1^2+x2^2)*u", 8.4e-4),
        (2, 64, 1.0, "exp(x1^2+x2^2) + p1^2 + p2^2 + (2 + x1^2+x2^2)*u", 2.1e-4),
        (3, 16, 0.75, "exp(S)*(12 + 7*S + S^2) + p1^2+p2^2+p3^2 + (6 + 2*S)*u", 1.5e-3),
    ])
    def test_state_dependent_manufactured_solution(self, dim, cells, half, rhs, bound):
        s = "+".join(f"x{a + 1}^2" for a in range(dim))
        dom = make_domain(dim, (-half,) * dim, (half,) * dim, (cells,) * dim)
        result = newton_solve(dom, SumHessianParams(dim, 2, 1.0),
                              RhsSpec.parse(rhs.replace("S", f"({s})")),
                              expr.parse(f"exp(({s})/2)"))
        assert result.converged(1e-10)
        exact = np.exp(0.5 * np.sum(dom.points**2, axis=1))
        assert np.max(np.abs(result.field.flat - exact)) <= bound
        # superlinear: past the last damped step, each full Newton step that
        # starts above 1e-6 contracts the residual at least as much as the
        # step before it
        steps = [t.step for t in result.trace]
        first = max(i for i, step in enumerate(steps) if step < 1.0) + 1
        res = [t.residual for t in result.trace[first - 1:]]
        rates = [b / a for a, b in zip(res, res[1:]) if a > 1e-6]
        assert len(rates) >= 3
        assert all(later <= earlier for earlier, later in zip(rates, rates[1:]))

    def test_maximum_principle_sign(self):
        dom = make_domain(2, (-1, -1), (1, 1), (16, 16))
        params = SumHessianParams(2, 2, 0.5)
        result = newton_solve(dom, params, RhsSpec.parse("6"), ZERO)
        assert np.all(result.field.flat <= 0.0)

    def test_masked_ball_solves(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (8,) * 3, mask_name="ball")
        params = SumHessianParams(3, 2, 1.0)
        result = newton_solve(dom, params, RhsSpec.parse("18"), ZERO)
        assert result.converged(1e-10)
        # exact solution on the true ball is (|x|^2 - 1)/2; staircase error is O(h)
        ustar = 0.5 * (np.sum(dom.points**2, axis=1) - 1.0)
        mask = dom.interior_flat
        assert np.max(np.abs(result.field.flat[mask] - ustar[mask])) < 5 * dom.h

    @staticmethod
    def count_masks(monkeypatch) -> list:
        """Record each admissible_mask call of the Newton loop."""
        import sumhessian.solver as solver_mod

        calls = []

        def counted(fld, params):
            calls.append(fld)
            return admissible_mask(fld, params)

        monkeypatch.setattr(solver_mod, "admissible_mask", counted)
        return calls

    def test_line_search_stall_raises_with_trace(self, monkeypatch):
        import sumhessian.solver as solver_mod
        from sumhessian.errors import NonConvergenceError

        # a zero step leaves the iterate as it is, so can never decrease the
        # residual: the line search stalls on its first trial, unevaluated,
        # and surfaces the trace
        monkeypatch.setattr(solver_mod, "_solve_linear",
                            lambda mat, rhs_vec, rtol, pattern: (np.zeros(mat.shape[0]), 0, 1.0))
        masks = self.count_masks(monkeypatch)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        with pytest.raises(NonConvergenceError) as err:
            newton_solve(dom, params, RhsSpec.parse("8"), ZERO)
        trace = err.value.trace
        assert len(trace) == 1  # carries the iteration log: the guess
        assert str(err.value) == ("line search stalled: step 2^0 no longer changes the "
                                  f"iterate, at residual {trace[-1].residual:.3e}")
        assert len(masks) == 1  # the guess check alone: no trial was evaluated

    def test_line_search_without_decrease_stalls_at_min_step(self, monkeypatch):
        import sumhessian.solver as solver_mod
        from sumhessian.errors import NonConvergenceError

        # the reversed Newton step raises the residual at every damping
        solve_linear = solver_mod._solve_linear

        def uphill(*args):
            x, krylov, achieved = solve_linear(*args)
            return -x, krylov, achieved

        monkeypatch.setattr(solver_mod, "_solve_linear", uphill)
        masks = self.count_masks(monkeypatch)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        params = SumHessianParams(2, 2, 1.0)
        with pytest.raises(NonConvergenceError) as err:
            newton_solve(dom, params, RhsSpec.parse("8"), ZERO)
        trace = err.value.trace
        assert len(trace) == 1
        assert str(err.value) == ("line search stalled: no admissible decrease down to "
                                  f"step 2^-20, at residual {trace[-1].residual:.3e}")
        assert len(masks) == 1 + 21  # the guess, then every step 2^0 .. 2^-20

    def test_stall_frees_the_jacobian(self, monkeypatch):
        import sumhessian.solver as solver_mod
        from sumhessian.errors import NonConvergenceError

        # the traceback keeps the raising frame alive: it must not keep the
        # Jacobian, the V-cycle hierarchy, the iterate, the step or the trial
        monkeypatch.setattr(solver_mod, "_solve_linear",
                            lambda mat, rhs_vec, rtol, pattern: (np.zeros(mat.shape[0]), 0, 1.0))
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        with pytest.raises(NonConvergenceError) as err:
            newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse("8"), ZERO)
        assert not held_state(err.value, dom)

    # (domain, params, f, g, calls of admissible_mask, residual and linearize
    # at the parent commit): each line search rejects one trial
    EVALUATION_CASES = {
        "box": ((2, 64, "box"), (2, 2), EXP2D_RHS, "exp((x1^2+x2^2)/2)", (9, 8, 6)),
        "ball": ((3, 24, "ball"), (3, 3), "20", "0", (8, 7, 5)),
    }

    @pytest.mark.parametrize("case", sorted(EVALUATION_CASES))
    def test_one_evaluation_per_iterate(self, monkeypatch, case):
        import sumhessian.solver as solver_mod

        (dim, cells, mask), (n, k), f, g, parent_calls = self.EVALUATION_CASES[case]
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (cells,) * dim, mask_name=mask)
        calls, iterates, guessing = {}, [], []

        def counted(name):
            fn = getattr(solver_mod, name)

            def call(*args, **kwargs):
                key = (name, "guess" if guessing else "solve")
                calls[key] = calls.get(key, 0) + 1
                if name == "admissible_mask":
                    iterates.append(args[0])
                if name != "initial_guess":
                    return fn(*args, **kwargs)
                guessing.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    guessing.pop()

            monkeypatch.setattr(solver_mod, name, call)

        for name in ("admissible_mask", "residual", "linearize", "hessian_field", "initial_guess"):
            counted(name)
        result = newton_solve(dom, SumHessianParams(n, k, 1.0), RhsSpec.parse(f), expr.parse(g))
        assert result.converged(1e-10)
        masks, residuals, linearizes = (calls.get((name, "solve"), 0) for name in
                                        ("admissible_mask", "residual", "linearize"))
        assert (masks, residuals, linearizes) == parent_calls
        trials = masks - 2      # every call but the guess's and the result's
        assert trials > result.iterations   # a trial was rejected
        # the stencil runs once per trial and once per linearize; the box's
        # guess reuses the evaluation of its blend check, the ball's guess,
        # repaired, is evaluated once
        guess = int(mask == "ball")
        assert calls[("hessian_field", "solve")] == guess + trials + linearizes
        assert calls[("hessian_field", "guess")] == (1 if mask == "box" else 2)
        # every iterate but the returned one stays read-only; the result's
        # field is writeable
        held = [fld for fld in iterates if fld.values is not result.field.values]
        assert len(held) == len(iterates) - 2   # the last trial's and the result's call
        for fld in held:
            with pytest.raises(ValueError, match="read-only"):
                fld.values[(1,) * dim] = 0.0
        result.field.values[(1,) * dim] += 0.0

    def test_line_search_rejects_a_trial_that_raises(self, monkeypatch):
        import sumhessian.solver as solver_mod

        # the first trial's residual fails to evaluate: the search halves the
        # step instead of giving up
        calls = []

        def first_trial_fails(fld, params, rhs, **kwargs):
            calls.append(fld)
            if len(calls) == 2:     # the guess, then the first trial
                raise InstanceError("right-hand side evaluated non-finite")
            return residual(fld, params, rhs, **kwargs)

        monkeypatch.setattr(solver_mod, "residual", first_trial_fails)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        result = newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse("8"), ZERO)
        assert result.converged(1e-10)
        assert result.trace[1].step == 0.5

    def test_f_of_x_evaluated_once_per_solve(self, monkeypatch):
        calls = []
        evaluate = expr.evaluate

        def counted(node, env):
            calls.append(node)
            return evaluate(node, env)

        monkeypatch.setattr(expr, "evaluate", counted)
        dom = make_domain(2, (-1, -1), (1, 1), (64, 64))
        params = SumHessianParams(2, 2, 1.0)
        rhs, bnd = RhsSpec.parse(EXP2D_RHS), expr.parse("exp((x1^2+x2^2)/2)")
        counts = {}
        for max_iter in (1, 50):
            calls.clear()
            result = newton_solve(dom, params, rhs, bnd, SolveConfig(max_iter=max_iter))
            counts[result.iterations] = len(calls)
        assert max(counts) > 1
        # f once, for the guess's scale and every residual, and the boundary data
        assert list(counts.values()) == [2, 2]

    def test_constant_f_is_one_value(self):
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
        const = _rhs_at_rest(dom, RhsSpec.parse("18"))
        assert isinstance(const, np.float64) and np.ndim(const) == 0 and const == 18.0
        varying = _rhs_at_rest(dom, RhsSpec.parse("18 + x1/10"))
        assert varying.shape == (dom.interior_idx.size,)

    def test_constant_f_solves_as_its_array(self, monkeypatch):
        """f = 18 goes through the solve as one value, and f = 18 + 0*x1 as
        an array of 18.0: the same field and trace, bit for bit."""
        import sumhessian.solver as solver_mod

        seen = []

        def recorded(fld, params, rhs, **kwargs):
            seen.append(kwargs["f_values"])
            return residual(fld, params, rhs, **kwargs)

        monkeypatch.setattr(solver_mod, "residual", recorded)
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
        params = SumHessianParams(3, 2, 1.0)
        results = {}
        for source in ("18", "18 + 0*x1"):
            seen.clear()
            results[source] = newton_solve(dom, params, RhsSpec.parse(source), ZERO)
            assert results[source].converged(1e-10)
            shape = () if source == "18" else (dom.interior_idx.size,)
            assert seen and all(np.shape(f) == shape and np.all(f == 18.0) for f in seen)
        one, array = results.values()
        assert one.field.values.tobytes() == array.field.values.tobytes()
        assert one.trace == array.trace

    def test_state_dependent_f_evaluated_every_trial(self, monkeypatch):
        import sumhessian.solver as solver_mod

        evaluated, residuals = [], []
        evaluate = expr.evaluate

        def counted_evaluate(node, env):
            evaluated.append(node)
            return evaluate(node, env)

        def counted_residual(fld, params, rhs, **kwargs):
            residuals.append(kwargs)
            return residual(fld, params, rhs, **kwargs)

        monkeypatch.setattr(expr, "evaluate", counted_evaluate)
        monkeypatch.setattr(solver_mod, "residual", counted_residual)
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        rhs = RhsSpec.parse("exp(x1^2+x2^2) + p1^2 + p2^2 + (2 + x1^2+x2^2)*u")
        result = newton_solve(dom, SumHessianParams(2, 2, 1.0), rhs,
                              expr.parse("exp((x1^2+x2^2)/2)"))
        assert result.converged(1e-10)
        assert len(residuals) >= 1 + result.iterations   # the guess, then each trial
        assert all(kwargs["f_values"] is None for kwargs in residuals)
        # f itself once for the guess's scale, then once per residual
        assert sum(node is rhs.expression for node in evaluated) == 1 + len(residuals)

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

        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        params = SumHessianParams(2, 2, 1.0)
        rhs, bnd = RhsSpec.parse(EXP2D_RHS), expr.parse("exp((x1^2+x2^2)/2)")
        full = newton_solve(dom, params, rhs, bnd).trace
        monkeypatch.setattr(solver_mod, "KRYLOV_MAXITER", 1)
        with pytest.raises(LinearSolveError) as err:
            newton_solve(dom, params, rhs, bnd)
        exc = err.value
        assert exc.iterations == 1
        assert exc.unknowns == dom.interior_idx.size
        assert exc.achieved > exc.required > 0
        msg = str(exc)
        assert f"{exc.achieved:.2e}" in msg and f"(required {exc.required:.2e})" in msg
        assert f"after 1 Krylov iterations on {exc.unknowns} unknowns" in msg
        # the steps that one Krylov iteration solves match the uncapped
        # solve's, and the error carries them from the guess's entry on
        assert exc.trace[0].iteration == 0
        assert exc.trace == full[:len(exc.trace)]

    def test_linear_solve_error_frees_the_jacobian(self, monkeypatch):
        import sumhessian.solver as solver_mod

        # as for a stall: the traceback of a failed step solve must not keep
        # the Jacobian, the V-cycle hierarchy or the solve's vectors alive
        monkeypatch.setattr(solver_mod, "KRYLOV_MAXITER", 1)
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        with pytest.raises(LinearSolveError) as err:
            newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse(EXP2D_RHS),
                         expr.parse("exp((x1^2+x2^2)/2)"))
        assert not held_state(err.value, dom)

    def test_extension_solve_error_frees_the_laplacian(self, monkeypatch):
        import sumhessian.solver as solver_mod

        # the ball's guess solves a harmonic extension before any Newton
        # step; when that solve fails, no frame may keep its Laplacian, the
        # pattern or the guess's arrays alive, and the error carries an
        # empty trace
        monkeypatch.setattr(solver_mod, "KRYLOV_MAXITER", 1)
        dom = make_domain(3, (-1,) * 3, (1,) * 3, (16,) * 3, mask_name="ball")
        with pytest.raises(LinearSolveError) as err:
            newton_solve(dom, SumHessianParams(3, 2, 1.0), RhsSpec.parse("18"), ZERO)
        exc = err.value
        assert exc.iterations == 1 and exc.unknowns == dom.interior_idx.size
        assert exc.achieved > exc.required == solver_mod.EXTENSION_RTOL
        assert exc.trace == []
        assert not held_state(exc, dom)

    @pytest.mark.parametrize("solve,dim,cells,mask,k,f", [
        (newton_solve, 2, 32, "box", 2, "3"),
        (newton_solve, 3, 16, "ball", 3, "20"),
        (initial_guess, 3, 16, "ball", 3, "20"),
    ], ids=["solve-box", "solve-ball", "guess-ball"])
    def test_repair_failure_frees_the_guess(self, solve, dim, cells, mask, k, f, monkeypatch):
        import sumhessian.solver as solver_mod

        # a zero-data guess out of repair sweeps raises before any Newton
        # step, from newton_solve or from a direct initial_guess call: no
        # frame may keep the pattern, the guess or the repair's arrays
        monkeypatch.setattr(solver_mod, "REPAIR_SWEEPS", 0)
        dom = make_domain(dim, (-1,) * dim, (1,) * dim, (cells,) * dim, mask_name=mask)
        with pytest.raises(ConeViolationError, match="could not be repaired") as err:
            solve(dom, SumHessianParams(dim, k, 1.0), RhsSpec.parse(f), ZERO)
        assert not held_state(err.value, dom)

    def test_interrupt_keeps_the_frames(self, monkeypatch):
        import sumhessian.solver as solver_mod

        # an interrupt is no solver error: its frames stay for post-mortem
        # debugging
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(solver_mod, "_solve_linear", interrupt)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        with pytest.raises(KeyboardInterrupt) as err:
            newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse("8"), ZERO)
        assert ("newton_solve", "pattern") in held_state(err.value, dom)

    def test_undefined_rhs_frees_the_cause(self):
        # the InstanceError's cause, the expression's EvalError, passed
        # through the evaluation of f on the interior's envs
        dom = make_domain(2, (-1, -1), (1, 1), (32, 32))
        with pytest.raises(InstanceError, match="failed to evaluate") as err:
            newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse("3 + log(x1 + 0.5)"),
                         ZERO)
        assert isinstance(err.value.__cause__, expr.EvalError)
        assert not held_state(err.value.__cause__, dom)

    def test_cyclic_causes_end_the_walk(self, monkeypatch):
        import sumhessian.solver as solver_mod

        def cyclic(*args):
            a, b = RuntimeError("a"), RuntimeError("b")
            a.__cause__, b.__cause__ = b, a
            raise a

        monkeypatch.setattr(solver_mod, "_solve_linear", cyclic)
        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        with pytest.raises(RuntimeError, match="a") as err:
            newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse("8"), ZERO)
        assert err.value.__cause__.__cause__ is err.value
        assert not held_state(err.value, dom)

    def test_the_callers_error_keeps_its_frames(self):
        # raised while the caller handles another error, the solve's errors
        # have that one down their chain; it is the caller's to keep
        def fail():
            kept = np.zeros(3)
            raise KeyError(kept.size)

        dom = make_domain(2, (-1, -1), (1, 1), (8, 8))
        try:
            fail()
        except KeyError as outer:
            with pytest.raises(InstanceError) as err:
                newton_solve(dom, SumHessianParams(2, 2, 1.0), RhsSpec.parse("log(x1)"), ZERO)
            chain, exc = [], err.value
            while exc is not None and exc not in chain:
                chain.append(exc)
                exc = exc.__cause__ or exc.__context__
            assert outer in chain
            assert "kept" in outer.__traceback__.tb_next.tb_frame.f_locals

    def test_discrete_scale_covariance(self):
        params = SumHessianParams(3, 2, 1.0)
        fields = {}
        for radius in (1.0, 2.0):
            dom = make_domain(3, (-radius,) * 3, (radius,) * 3, (8,) * 3, mask_name="ball")
            fields[radius] = newton_solve(dom, params, RhsSpec.parse("18"), ZERO)
        h = fields[1.0].field.domain.h
        scaled = 4.0 * fields[1.0].field.values
        assert np.max(np.abs(fields[2.0].field.values - scaled)) <= 5 * h * h
