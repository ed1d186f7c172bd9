"""Symmetric eigen decomposition and the matrix-space operator calculus,
for single matrices and stacks."""
import numpy as np
import pytest

from sumhessian import (
    SumHessianParams,
    as_sym_matrix,
    eigen_sym,
    eta,
    grad_coefficients,
    operator_grad,
    operator_hess_quad,
    operator_value,
    sum_hessian,
    sum_hessian_grad,
    sum_hessian_hess,
    u_operator,
)
from sumhessian.spectral import lambda_space_hessian


def random_sym(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


class TestSymMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            as_sym_matrix([[0, 1], [0.5, 0]])
        with pytest.raises(ValueError):
            as_sym_matrix(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            as_sym_matrix(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            as_sym_matrix(np.zeros((17, 17)))
        out = as_sym_matrix([[1, 2], [2, 1]])
        assert np.array_equal(out, out.T)


def mixed_stack(rng, n, size=7):
    """Random symmetric matrices with the identity (all eigenvalues equal)
    in every third row, so that repeated eigenvalues are covered."""
    return np.stack([np.eye(n) if i % 3 == 0 else random_sym(rng, n) for i in range(size)])


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


class TestStacks:
    """A stack (..., n, n) gives, row by row, what single-matrix calls give."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_operator_rows_match_single_calls(self, n):
        rng = np.random.default_rng(30 + n)
        mats = mixed_stack(rng, n)
        dirs = np.stack([random_sym(rng, n) for _ in mats])
        for k in sorted({1, 2, (n + 1) // 2, n}):
            params = SumHessianParams(n, k, 0.5)
            values = operator_value(mats, params)
            grads = operator_grad(mats, params)
            quads = operator_hess_quad(mats, dirs, params)
            assert values.shape == quads.shape == (len(mats),)
            assert grads.shape == mats.shape
            for m, a, value, grad, quad in zip(mats, dirs, values, grads, quads):
                assert rel_err(value, operator_value(m, params)) <= 1e-12
                assert rel_err(grad, operator_grad(m, params)) <= 1e-12
                assert rel_err(quad, operator_hess_quad(m, a, params)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_eigen_stack_descending_and_orthonormal(self, n):
        rng = np.random.default_rng(40 + n)
        mats = mixed_stack(rng, n).reshape(7, 1, n, n)  # two leading axes
        dec = eigen_sym(mats)
        assert dec.values.shape == (7, 1, n)
        assert dec.frame.shape == mats.shape
        assert np.all(np.diff(dec.values, axis=-1) <= 0)
        gram = np.swapaxes(dec.frame, -1, -2) @ dec.frame
        assert np.allclose(gram, np.eye(n), atol=1e-12)
        rebuilt = (dec.frame * dec.values[..., None, :]) @ np.swapaxes(dec.frame, -1, -2)
        assert np.allclose(rebuilt, mats, atol=1e-10 * max(1, np.linalg.norm(mats)))

    def test_single_matrix_returns_float(self):
        params = SumHessianParams(3, 2, 1.0)
        assert type(operator_value(np.eye(3), params)) is float
        assert type(operator_hess_quad(np.eye(3), np.eye(3), params)) is float

    def test_stack_with_one_asymmetric_matrix_rejected(self):
        rng = np.random.default_rng(50)
        mats = mixed_stack(rng, 4)
        mats[4, 0, 1] += 1e-6
        with pytest.raises(ValueError):
            as_sym_matrix(mats)
        with pytest.raises(ValueError):
            operator_value(mats, SumHessianParams(4, 2, 0.5))

    def test_direction_stack_must_match(self):
        rng = np.random.default_rng(51)
        mats = mixed_stack(rng, 3)
        with pytest.raises(ValueError):
            operator_hess_quad(mats, mats[:2], SumHessianParams(3, 2, 0.5))


class TestEigenSym:
    def test_diagonal(self):
        dec = eigen_sym(np.diag([3.0, 1.0]))
        assert np.allclose(dec.values, [3, 1])
        assert np.allclose(np.abs(dec.frame), np.eye(2))

    def test_offdiag_pair(self):
        dec = eigen_sym([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(dec.values, [1, -1])
        assert np.allclose(np.abs(dec.frame), np.full((2, 2), 1 / np.sqrt(2)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            m = random_sym(rng, n, scale=3.0)
            dec = eigen_sym(m)
            assert np.all(np.diff(dec.values) <= 1e-12)
            assert np.allclose(dec.frame.T @ dec.frame, np.eye(n), atol=1e-10)
            rebuilt = dec.frame @ np.diag(dec.values) @ dec.frame.T
            assert np.allclose(rebuilt, m, atol=1e-10 * max(1, np.linalg.norm(m)))

    def test_zero_matrix(self):
        dec = eigen_sym(np.zeros((3, 3)))
        assert np.all(dec.values == 0)


class TestUOperator:
    def test_examples(self):
        assert np.allclose(u_operator(np.eye(3)), 2 * np.eye(3))
        assert np.allclose(u_operator(np.diag([1.0, 2, 3])), np.diag([5.0, 4, 3]))

    def test_eigen_commutes_with_eta(self):
        rng = np.random.default_rng(9)
        m = random_sym(rng, 4)
        lam = eigen_sym(m).values
        ulam = eigen_sym(u_operator(m)).values
        assert np.allclose(np.sort(ulam), np.sort(eta(lam)), atol=1e-9)


class TestOperatorValue:
    def test_examples(self):
        assert operator_value(np.eye(3), SumHessianParams(3, 2, 1.0)) == pytest.approx(18.0)
        assert operator_value(np.diag([1.0, 2, 3]), SumHessianParams(3, 1, 0.0)) == pytest.approx(12.0)

    def test_composition_oracle(self):
        rng = np.random.default_rng(10)
        params = SumHessianParams(3, 2, 0.5)
        for _ in range(25):
            m = random_sym(rng, 3)
            lam = eigen_sym(m).values
            want = sum_hessian(eta(lam), 2, 0.5)
            assert operator_value(m, params) == pytest.approx(want, rel=1e-12)

    def test_frame_invariance(self):
        rng = np.random.default_rng(11)
        params = SumHessianParams(4, 3, 2.0)
        for _ in range(10):
            m = random_sym(rng, 4)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rotated = as_sym_matrix(0.5 * ((q.T @ m @ q) + (q.T @ m @ q).T))
            v1, v2 = operator_value(m, params), operator_value(rotated, params)
            assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-10)


class TestOperatorGrad:
    def test_trace_case_identity(self):
        rng = np.random.default_rng(12)
        params = SumHessianParams(2, 1, 0.0)
        m = random_sym(rng, 2)
        assert np.allclose(operator_grad(m, params), np.eye(2))

    def test_frozen_identity_example(self):
        # value computed with the matrix-difference oracle before build
        got = operator_grad(np.eye(3), SumHessianParams(3, 2, 0.0))
        assert np.allclose(got, 8 * np.eye(3), atol=1e-12)

    def test_entrywise_central_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for n, k, alpha in ((2, 2, 0.0), (3, 2, 1.0), (4, 3, 0.5)):
            params = SumHessianParams(n, k, alpha)
            for _ in range(8):
                m = random_sym(rng, n)
                grad = operator_grad(m, params)
                for i in range(n):
                    for j in range(i, n):
                        pert = np.zeros((n, n))
                        pert[i, j] = pert[j, i] = h
                        fd = (operator_value(m + pert, params)
                              - operator_value(m - pert, params)) / (2 * h)
                        if i != j:
                            fd *= 0.5
                        assert abs(fd - grad[i, j]) / max(1, abs(grad[i, j])) < 1e-6

    def test_grad_coefficients_match_eta_partials(self):
        rng = np.random.default_rng(14)
        params = SumHessianParams(5, 3, 0.5)
        lam = rng.uniform(-1, 3, size=5)
        f_eta = sum_hessian_grad(eta(lam), 3, 0.5)
        t = grad_coefficients(lam, params)
        assert np.allclose(t, f_eta.sum() - f_eta)


class TestOperatorHessQuad:
    def test_k1_vanishes(self):
        rng = np.random.default_rng(15)
        params = SumHessianParams(3, 1, 2.0)
        for _ in range(5):
            m, a = random_sym(rng, 3), random_sym(rng, 3)
            assert operator_hess_quad(m, a, params) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_dim2_examples(self):
        # oracle values: second directional differences computed before build
        params = SumHessianParams(2, 2, 0.0)
        h_mat = np.diag([1.0, 2.0])
        assert operator_hess_quad(h_mat, np.diag([1.0, 0.0]), params) == pytest.approx(0.0, abs=1e-12)
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert operator_hess_quad(h_mat, off, params) == pytest.approx(-2.0, rel=1e-12)

    def test_directional_differences(self):
        rng = np.random.default_rng(16)
        h = 1e-3
        for n, k, alpha in ((2, 2, 0.0), (3, 2, 1.0), (4, 4, 0.5)):
            params = SumHessianParams(n, k, alpha)
            for trial in range(8):
                m = np.eye(n) if trial == 0 else random_sym(rng, n)
                a = random_sym(rng, n)
                a /= np.linalg.norm(a)
                quad = operator_hess_quad(m, a, params)
                fd = (operator_value(m + h * a, params) - 2 * operator_value(m, params)
                      + operator_value(m - h * a, params)) / h**2
                assert abs(quad - fd) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_near_degenerate_pair_exact_k2(self, n, alpha):
        """At k = 2 the form is (n^2 - 3n + 3) tr(A)^2 - |A|_F^2 at every H.
        A pair of eigenvalues 2e-8 * max(1, |lam|) apart, in a random frame,
        must meet it to 1e-12 relative."""
        rng = np.random.default_rng(19 + n)
        params = SumHessianParams(n, 2, alpha)
        for _ in range(10):
            lam = rng.normal(size=n)
            lam[1] = lam[0] + 2e-8 * max(1.0, np.linalg.norm(lam))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = (q * lam) @ q.T
            m, a = 0.5 * (m + m.T), random_sym(rng, n)
            want = (n * n - 3 * n + 3) * np.trace(a) ** 2 - np.sum(a * a)
            assert rel_err(operator_hess_quad(m, a, params), want) <= 1e-12

    def test_repeated_eigenvalues_match_nearby(self):
        # a repeated eigenvalue gives what a nearly repeated one gives
        params = SumHessianParams(3, 2, 1.0)
        rng = np.random.default_rng(17)
        a = random_sym(rng, 3)
        exact = operator_hess_quad(np.eye(3), a, params)
        nearby = operator_hess_quad(np.diag([1.0, 1.0 + 1e-6, 1.0 - 1e-6]), a, params)
        assert exact == pytest.approx(nearby, rel=1e-4, abs=1e-6)

    def test_analytic_dual_route_full_scale(self):
        """Chain rule through the complement matrix: an independent analytic
        evaluation that must agree at full scale to high relative accuracy."""
        rng = np.random.default_rng(18)
        for n, k, alpha in ((3, 2, 1.0), (8, 7, 0.0), (8, 8, 2.0), (6, 4, 0.5)):
            params = SumHessianParams(n, k, alpha)
            for _ in range(5):
                m = random_sym(rng, n)
                a = random_sym(rng, n)
                dec = eigen_sym(m)
                e = eta(dec.values)
                b_mat = np.trace(a) * np.eye(n) - a
                bt = dec.frame.T @ b_mat @ dec.frame
                hess_eta = sum_hessian_hess(e, k, alpha)
                grad_eta = sum_hessian_grad(e, k, alpha)
                diag = np.diag(bt)
                want = float(diag @ hess_eta @ diag)
                for p in range(n - 1):
                    for q in range(p + 1, n):
                        gap = e[p] - e[q]
                        if abs(gap) < 1e-10:
                            w = -hess_eta[p, q]
                        else:
                            w = (grad_eta[p] - grad_eta[q]) / gap
                        want += 2.0 * w * bt[p, q] ** 2
                got = operator_hess_quad(m, a, params)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestConcavity:
    def test_normalized_root_concave_on_cone(self):
        from sumhessian import Cone, sample_cone

        rng = np.random.default_rng(19)
        params = SumHessianParams(3, 2, 1.0)
        batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, 200, seed=20)
        for lam in batch.samples:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            m = as_sym_matrix(q @ np.diag(lam) @ q.T)
            a = random_sym(rng, 3)
            a /= np.linalg.norm(a)
            value = operator_value(m, params)
            d1 = float(np.sum(operator_grad(m, params) * a))
            d2 = operator_hess_quad(m, a, params)
            root_second = 0.5 * value ** (0.5 - 1.0) * (d2 - 0.5 * d1 * d1 / value)
            assert root_second <= 1e-8

    def test_lambda_space_quadform_bound(self):
        from sumhessian import Cone, sample_cone

        rng = np.random.default_rng(21)
        params = SumHessianParams(4, 3, 0.5)
        batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, 200, seed=22)
        for lam in batch.samples:
            xi = rng.uniform(-1, 1, size=4)
            hess = lambda_space_hessian(lam, params)
            grad = grad_coefficients(lam, params)
            value = sum_hessian(eta(lam), 3, 0.5)
            lhs = float(xi @ hess @ xi)
            rhs = (1 - 1 / 3) * float(grad @ xi) ** 2 / value
            assert lhs <= rhs + 1e-8

    def test_partials_orderings(self):
        from sumhessian import Cone, sample_cone

        params = SumHessianParams(5, 3, 1.0)
        batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, 300, seed=23)
        lam = np.sort(batch.samples, axis=-1)[:, ::-1]
        e = eta(lam)
        assert np.all(np.diff(e, axis=-1) >= 0)
        assert np.all(e[:, 5 - 3 + 1] > 0)
        f_eta = sum_hessian_grad(e, 3, 1.0)
        t = f_eta.sum(axis=-1, keepdims=True) - f_eta
        slack = 1e-10 * np.maximum(1, np.abs(f_eta[:, :-1]))
        assert np.all(np.diff(f_eta, axis=-1) <= slack)
        assert np.all(np.diff(t, axis=-1) >= -1e-10 * np.maximum(1, np.abs(t[:, :-1])))
        assert np.all(t > 0)
