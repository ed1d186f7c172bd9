"""Cone membership, the eta transform, and the rejection sampler."""
import io
import itertools

import numpy as np
import pytest

from sumhessian import (
    Cone,
    SumHessianParams,
    eta,
    in_cone,
    in_gamma,
    in_gamma_tilde,
    sample_cone,
    sum_hessian,
)
import sumhessian.cones as cones_mod
from sumhessian.cones import _CHUNK, SAMPLE_BOX, batch_to_csv
from sumhessian.errors import SamplingExhaustedError


class TestEta:
    def test_examples(self):
        assert np.allclose(eta([1., 2, 3]), [5, 4, 3])
        assert np.allclose(eta([3., 2, 1]), [3, 4, 5])
        assert np.allclose(eta([2., 2, 2, 2]), [6, 6, 6, 6])
        assert np.allclose(eta([1., 0, 0]), [0, 1, 1])

    def test_linear_identity_exact(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(-5, 5, size=(100, 6))
        assert np.all(eta(lam) == lam.sum(axis=-1, keepdims=True) - lam)

    def test_double_transform(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            lam = rng.uniform(-3, 3, size=(50, n))
            expect = (n - 2) * lam.sum(axis=-1, keepdims=True) + lam
            assert np.allclose(eta(eta(lam)), expect, rtol=1e-12, atol=1e-12)


class TestMembership:
    def test_gamma_examples(self):
        assert in_gamma([1., 1, 1], 3)
        assert not in_gamma([3., 1, -1], 2)
        assert not in_gamma([2., 2, -1], 2)  # sigma_2 = 0: open cone
        # order 0 is vacuous, for a single tuple and a batch
        assert in_gamma([-1., -2, -3], 0) is True
        batch = in_gamma(np.array([[-1., -2, -3], [1., 1, 1]]), 0)
        assert batch.dtype == bool and batch.tolist() == [True, True]
        for m in (-1, 4):
            with pytest.raises(ValueError):
                in_gamma([1., 1, 1], m)

    def test_gamma_tilde_examples(self):
        assert in_gamma_tilde([1., 1, -0.9], SumHessianParams(3, 2, 1.0))
        assert not in_gamma_tilde([1., 1, -0.9], SumHessianParams(3, 2, 0.0))
        assert in_gamma_tilde([1., 1, 1], SumHessianParams(3, 3, 2.0))

    def test_gamma_prime_examples(self):
        params = SumHessianParams(3, 2, 0.0)
        assert in_cone([1., 1, 1], Cone.GAMMA_TILDE_PRIME, params)
        # eta = (-2, 9, 9): sigma_1 = 16, sigma_2 = 45, both positive
        assert in_cone([10., -1, -1], Cone.GAMMA_PRIME, params)
        p3 = SumHessianParams(3, 3, 0.0)
        assert not in_cone([1., 0, 0], Cone.GAMMA_PRIME, p3)
        with pytest.raises(ValueError, match="unknown cone 'gamma'"):
            in_cone([1., 1, 1], "gamma", params)

    def test_batched(self):
        params = SumHessianParams(3, 2, 1.0)
        lam = np.array([[1., 1, 1], [1., 1, -0.9], [-1., -1, -1]])
        out = in_gamma_tilde(lam, params)
        assert out.tolist() == [True, True, False]

    def test_upward_scaling_leaves_set_when_alpha_positive(self):
        # the admissible set is not a cone for alpha > 0: S_k is inhomogeneous
        params = SumHessianParams(3, 2, 1.0)
        lam = np.array([1.0, 1.0, -0.9])
        assert in_gamma_tilde(lam, params)
        assert sum_hessian(2 * lam, 2, 1.0) == pytest.approx(-1.0)
        assert not in_gamma_tilde(2 * lam, params)
        # downward scaling is safe
        assert in_gamma_tilde(0.5 * lam, params)


def fixed_chunk_samples(cone, params, count, seed):
    """The sampler's rows when every draw tests _CHUNK rows."""
    rng = np.random.default_rng(seed)
    rows = [np.ones((1, params.n))]
    accepted = 1
    while accepted < count:
        chunk = rng.uniform(*SAMPLE_BOX, size=(_CHUNK, params.n))
        keep = chunk[in_cone(chunk, cone, params)][:count - accepted]
        rows.append(keep)
        accepted += keep.shape[0]
    return np.concatenate(rows)


class TestSampler:
    @pytest.mark.parametrize("cone", list(Cone))
    def test_matches_fixed_chunk_draws(self, cone, monkeypatch):
        for (n, k, alpha), count, seed in itertools.product(
                [(3, 2, 0.5), (4, 4, 0.0), (6, 5, 2.0)], (2, 150, 3000), (0, 5)):
            params = SumHessianParams(n, k, alpha)
            batch = sample_cone(cone, params, count, seed)
            ref = fixed_chunk_samples(cone, params, count, seed)
            assert batch.samples.tobytes() == ref.tobytes()
        # draws are sized to the samples still missing, not to _CHUNK
        tested = []
        monkeypatch.setattr(cones_mod, "in_cone",
                            lambda lam, *a: tested.append(len(lam)) or in_cone(lam, *a))
        sample_cone(cone, SumHessianParams(3, 2, 0.5), 150, 0)
        assert sum(tested) < 4 * 150

    def test_contains_ones_first(self):
        params = SumHessianParams(3, 3, 0.0)
        batch = sample_cone(Cone.GAMMA, params, 1, seed=99)
        assert batch.samples.shape == (1, 3)
        assert np.all(batch.samples[0] == 1.0)

    @pytest.mark.parametrize("cone", list(Cone))
    def test_postcondition_membership(self, cone):
        params = SumHessianParams(4, 2, 0.5)
        batch = sample_cone(cone, params, 200, seed=7)
        assert batch.samples.shape == (200, 4)
        assert np.all(in_cone(batch.samples, cone, params))

    def test_tilde_prime_batch(self):
        params = SumHessianParams(3, 2, 1.0)
        batch = sample_cone(Cone.GAMMA_TILDE_PRIME, params, 100, seed=42)
        assert batch.samples.shape == (100, 3)
        assert np.all(in_gamma_tilde(eta(batch.samples), params))

    def test_deterministic_for_seed(self):
        params = SumHessianParams(5, 3, 0.5)
        b1 = sample_cone(Cone.GAMMA_TILDE, params, 50, seed=3)
        b2 = sample_cone(Cone.GAMMA_TILDE, params, 50, seed=3)
        assert np.array_equal(b1.samples, b2.samples)
        b3 = sample_cone(Cone.GAMMA_TILDE, params, 50, seed=4)
        assert not np.array_equal(b1.samples, b3.samples)

    def test_nesting(self):
        params = SumHessianParams(4, 3, 0.5)
        batch = sample_cone(Cone.GAMMA_TILDE, params, 300, seed=11)
        for j in range(1, 4):
            sub = SumHessianParams(4, j, 0.5)
            assert np.all(in_gamma_tilde(batch.samples, sub))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_cone(Cone.GAMMA, SumHessianParams(3, 2, 0.0), 0, seed=0)

    def test_exhaustion_unreachable_cone(self, monkeypatch):
        import sumhessian.cones as cones_mod
        monkeypatch.setattr(cones_mod, "DRAW_BUDGET", 1 << 16)
        params = SumHessianParams(8, 8, 0.0)
        # box draws essentially never land in the full positivity cone at n=8
        # with a tiny budget, so the sampler must signal exhaustion
        monkeypatch.setattr(cones_mod, "MIN_ACCEPT_RATE", 1.0)
        with pytest.raises(SamplingExhaustedError):
            cones_mod.sample_cone(Cone.GAMMA, params, 1 << 18, seed=1)


class TestCsv:
    def test_header_and_rows(self):
        params = SumHessianParams(3, 2, 1.0)
        batch = sample_cone(Cone.GAMMA_TILDE, params, 5, seed=1)
        buf = io.StringIO()
        batch_to_csv(batch, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "lam1,lam2,lam3,cone,n,k,alpha"
        assert len(lines) == 6
        assert lines[1].endswith("gamma-tilde,3,2,1.0")

    def test_bitwise_deterministic(self):
        params = SumHessianParams(4, 2, 0.5)
        out = []
        for _ in range(2):
            buf = io.StringIO()
            batch_to_csv(sample_cone(Cone.GAMMA, params, 30, seed=12), buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]
