"""Symmetric-function kernel: frozen examples, identities, derivative oracles."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumhessian import (
    SumHessianParams,
    maclaurin_chain,
    sigma,
    sigma_all,
    sigma_deleted,
    sum_hessian,
    sum_hessian_chain,
    sum_hessian_grad,
    sum_hessian_hess,
)
from sumhessian.errors import ConeViolationError


def sigma_bruteforce(lam, m):
    """Independent oracle: subset enumeration."""
    lam = list(lam)
    if m == 0:
        return 1.0
    if m < 0 or m > len(lam):
        return 0.0
    return float(sum(np.prod([lam[i] for i in c])
                     for c in itertools.combinations(range(len(lam)), m)))


class TestSigma:
    def test_basic_values(self):
        assert sigma([1, 2, 3], 2) == 11.0
        assert sigma([1, 1, 1, 1], 3) == 4.0
        assert sigma([1, 2, 3], 5) == 0.0
        assert sigma([1, 2, 3], 0) == 1.0
        assert sigma([1, 2, 3], -2) == 0.0

    def test_batch_shape(self):
        lam = np.arange(12.0).reshape(2, 2, 3)
        out = sigma(lam, 2)
        assert out.shape == (2, 2)
        with pytest.raises(ValueError, match="eigenvalue tuple must have at least one axis"):
            sigma(3.0, 1)

    def test_against_bruteforce(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            lam = rng.uniform(-2, 2, size=n)
            for m in range(0, n + 1):
                assert sigma(lam, m) == pytest.approx(sigma_bruteforce(lam, m), rel=1e-12)

    def test_sigma_all_consistent(self):
        rng = np.random.default_rng(6)
        lam = rng.uniform(-2, 2, size=(10, 5))
        e = sigma_all(lam, 5)
        for m in range(6):
            assert np.allclose(e[:, m], sigma(lam, m))

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=8), st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_property(self, values, m):
        got = sigma(values, m)
        want = sigma_bruteforce(values, m)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestSigmaDeleted:
    def test_examples(self):
        # 0-based indices: deleting index 1 of (1,2,3) leaves (1,3)
        assert sigma_deleted([1, 2, 3], 1, {1}) == 4.0
        assert sigma_deleted([1, 2, 3], 2, {0}) == 6.0
        assert sigma_deleted([1, 2, 3], 0, {0, 2}) == 1.0

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            sigma_deleted([1, 2, 3], 1, {3})
        with pytest.raises(ValueError):
            sigma_deleted([1, 2, 3], 1, [1, 1])
        with pytest.raises(ValueError):
            sigma_deleted([1, 2, 3], 1, [])
        with pytest.raises(ValueError):
            sigma_deleted([1, 2, 3], 1, [-1])


class TestSumHessian:
    def test_examples(self):
        assert sum_hessian([1, 2, 3], 2, 2.0) == 23.0
        assert sum_hessian([1, 2, 3], 2, 0.0) == 11.0
        assert sum_hessian([2, 2, 2], 2, 1.0) == 18.0

    def test_out_of_range_orders(self):
        lam = [1.0, 2.0]
        # above n only the alpha term survives; far outside everything is 0
        assert sum_hessian(lam, 3, 2.0) == 2.0 * sigma(lam, 2)
        assert sum_hessian(lam, 5, 2.0) == 0.0
        assert sum_hessian(lam, 0, 3.0) == 1.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SumHessianParams(1, 1, 0.0)
        with pytest.raises(ValueError):
            SumHessianParams(3, 4, 0.0)
        with pytest.raises(ValueError):
            SumHessianParams(3, 2, -0.5)
        with pytest.raises(ValueError):
            SumHessianParams(17, 2, 0.0)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                SumHessianParams(3, 2, alpha)


class TestGradient:
    def test_frozen_examples(self):
        assert np.allclose(sum_hessian_grad([1., 2, 3], 2, 0.0), [5, 4, 3])
        assert np.allclose(sum_hessian_grad([1., 1, 1], 3, 0.0), [1, 1, 1])
        # value computed with the central-difference oracle before build
        assert np.allclose(sum_hessian_grad([1., 2, 3], 2, 1.0), [6, 5, 4])

    def test_k1_is_ones(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(-2, 2, size=(20, 4))
        assert np.allclose(sum_hessian_grad(lam, 1, 3.0), 1.0)

    def test_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for n in (2, 4, 7):
            for k in (1, 2, n):
                for alpha in (0.0, 0.5, 2.0):
                    lam = rng.uniform(-2, 2, size=(50, n))
                    grad = sum_hessian_grad(lam, k, alpha)
                    for i in range(n):
                        d = np.zeros(n)
                        d[i] = h
                        fd = (sum_hessian(lam + d, k, alpha)
                              - sum_hessian(lam - d, k, alpha)) / (2 * h)
                        denom = np.maximum(1.0, np.abs(grad[:, i]))
                        assert np.max(np.abs(fd - grad[:, i]) / denom) < 1e-6


class TestHessian:
    def test_frozen_examples(self):
        hess = sum_hessian_hess([1., 2, 3], 2, 0.0)
        assert hess[0, 1] == 1.0
        assert np.allclose(np.diag(hess), 0.0)
        # value computed with the second-difference oracle before build
        assert sum_hessian_hess([1., 2, 3], 3, 0.0)[0, 2] == 2.0

    def test_k1_zero(self):
        rng = np.random.default_rng(2)
        lam = rng.uniform(-2, 2, size=(5, 4))
        assert np.all(sum_hessian_hess(lam, 1, 5.0) == 0.0)

    def test_second_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-3
        for n, k, alpha in ((3, 2, 0.5), (5, 3, 2.0), (6, 6, 0.0)):
            lam = rng.uniform(-2, 2, size=(30, n))
            hess = sum_hessian_hess(lam, k, alpha)
            for p in range(n):
                for q in range(p + 1, n):
                    dp = np.zeros(n); dp[p] = h
                    dq = np.zeros(n); dq[q] = h
                    fd = (sum_hessian(lam + dp + dq, k, alpha)
                          - sum_hessian(lam + dp - dq, k, alpha)
                          - sum_hessian(lam - dp + dq, k, alpha)
                          + sum_hessian(lam - dp - dq, k, alpha)) / (4 * h * h)
                    denom = np.maximum(1.0, np.abs(hess[:, p, q]))
                    assert np.max(np.abs(fd - hess[:, p, q]) / denom) < 1e-5


@pytest.mark.parametrize("n", range(2, 17))
def test_derivatives_are_the_deleted_values_bitwise(n):
    """Gradient and Hessian entries equal S_{k-1} and S_{k-2} of the tuples
    np.delete leaves, bit for bit, for every order k = 0..n+1."""
    rng = np.random.default_rng(n)
    lam = rng.uniform(-2, 2, size=(7, n))
    alpha = 0.5
    for k in range(n + 2):
        grad = sum_hessian_grad(lam, k, alpha)
        hess = sum_hessian_hess(lam, k, alpha)
        assert grad.shape == (7, n) and hess.shape == (7, n, n)
        for p in range(n):
            ref = sum_hessian(np.delete(lam, p, axis=-1), k - 1, alpha)
            assert grad[:, p].tobytes() == ref.tobytes()
            assert np.all(hess[:, p, p] == 0.0)
            for q in range(p + 1, n):
                ref = (sum_hessian(np.delete(lam, (p, q), axis=-1), k - 2, alpha)
                       if k >= 2 else np.zeros(7))
                assert hess[:, p, q].tobytes() == ref.tobytes()
                assert hess[:, q, p].tobytes() == ref.tobytes()


def test_hessian_gathers_a_bounded_group_of_pairs(monkeypatch):
    """sum_hessian_hess gathers the deleted tuples PAIR_GROUP pairs at a
    time. On a (1000, 16) batch its traced peak stays under 3 times its
    output for every order: 2.0 to 2.8, against 8.5 to 15.1 with all 120
    pairs in one gather. A tuple of n <= 6 is still one gather, so one
    sum_hessian call."""
    import tracemalloc

    import sumhessian.symfun as symfun

    lam = np.random.default_rng(16).uniform(-2, 2, size=(1000, 16))
    for k in range(2, 17):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hess = sum_hessian_hess(lam, k, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * hess.nbytes, (k, peak / hess.nbytes)
    calls = []
    original = symfun.sum_hessian

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(symfun, "sum_hessian", counted)
    for n in range(2, 7):
        calls.clear()
        sum_hessian_hess(lam[:, :n], 2, 0.5)
        assert len(calls) == 1


class TestIdentities:
    """Exact algebraic identities over random tuples (the CLI suite runs the
    large sweeps; these pin the math at module level)."""

    @pytest.mark.parametrize("n,k,alpha", [
        (2, 1, 0.0), (3, 2, 0.5), (5, 3, 2.0), (8, 8, 0.5), (6, 1, 2.0),
    ])
    def test_split_and_euler(self, n, k, alpha):
        rng = np.random.default_rng(n * 100 + k)
        lam = rng.uniform(-2, 2, size=(200, n))
        s = sum_hessian(lam, k, alpha)
        grad = sum_hessian_grad(lam, k, alpha)
        for i in range(n):
            rest = sum_hessian(np.delete(lam, i, axis=-1), k, alpha)
            lhs = lam[:, i] * grad[:, i] + rest
            assert np.max(np.abs(lhs - s) / np.maximum(1, np.abs(s))) < 1e-10
        euler = np.sum(lam * grad, axis=-1)
        rhs = k * s - alpha * sigma(lam, k - 1)
        assert np.max(np.abs(euler - rhs) / np.maximum(1, np.abs(rhs))) < 1e-10

    @pytest.mark.parametrize("n,k,alpha", [(4, 2, 0.5), (7, 5, 2.0)])
    def test_deleted_sum(self, n, k, alpha):
        rng = np.random.default_rng(17)
        lam = rng.uniform(-2, 2, size=(200, n))
        lhs = sum(sum_hessian(np.delete(lam, i, axis=-1), k, alpha) for i in range(n))
        rhs = (n - k) * sum_hessian(lam, k, alpha) + alpha * sigma(lam, k - 1)
        assert np.max(np.abs(lhs - rhs) / np.maximum(1, np.abs(rhs))) < 1e-10

    def test_consecutive_quadratic_bound_all_real(self):
        rng = np.random.default_rng(23)
        for n, k, alpha in ((3, 2, 1.0), (6, 4, 0.0), (8, 8, 2.0)):
            lam = rng.uniform(-2, 2, size=(1000, n))
            s = sum_hessian(lam, k, alpha)
            gap = s ** 2 - sum_hessian(lam, k - 1, alpha) * sum_hessian(lam, k + 1, alpha)
            assert np.min(gap) >= -1e-12 * max(1.0, float(np.max(s ** 2)))


class TestChains:
    def test_maclaurin_examples(self):
        assert np.allclose(maclaurin_chain([1., 1, 1]), [1, 1, 1])
        assert np.allclose(maclaurin_chain([4., 1]), [2.5, 2.0])
        chain = maclaurin_chain([3., 2, 1])
        assert np.all(np.diff(chain) <= 1e-12)

    def test_maclaurin_requires_positive_sigmas(self):
        with pytest.raises(ConeViolationError):
            maclaurin_chain([3., 1, -1])

    def test_root_chain_examples(self):
        assert np.allclose(sum_hessian_chain([1., 1, 1], 2, 0.0), [3, math.sqrt(3)])
        assert np.allclose(sum_hessian_chain([1., 1, 1], 2, 1.0), [4, math.sqrt(6)])

    def test_root_chain_needs_three(self):
        with pytest.raises(ValueError):
            sum_hessian_chain([1., 1], 2, 0.0)

    def test_root_chain_domain_error(self):
        with pytest.raises(ConeViolationError):
            sum_hessian_chain([1., -1, -1], 2, 0.0)
