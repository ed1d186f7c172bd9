"""Surface checks of the runtime verification suites."""
import numpy as np
import pytest

import sumhessian.suites as suites
from sumhessian import SumHessianParams, sum_hessian, sum_hessian_hess
from sumhessian.suites import SUITES, run_suites


class TestRunSuites:
    def test_all_pass_default_config(self):
        results = run_suites(SumHessianParams(3, 2, 1.0), count=100, seed=5)
        assert len(results) == len(SUITES)
        failed = [r for r in results if r.status == "FAIL"]
        assert not failed, [r.line() for r in failed]

    def test_skips_where_hypotheses_fail(self):
        results = {r.name: r for r in run_suites(SumHessianParams(2, 2, 0.5), count=60, seed=5)}
        assert results["root-chain"].status == "SKIP"           # needs n >= 3
        assert results["eta-deleted-ratio"].status == "SKIP"    # needs k < n
        assert results["min-partial-ratio"].status == "SKIP"

    def test_deterministic(self):
        a = run_suites(SumHessianParams(4, 2, 0.5), count=80, seed=9)
        b = run_suites(SumHessianParams(4, 2, 0.5), count=80, seed=9)
        assert [r.line() for r in a] == [r.line() for r in b]

    def test_line_format(self):
        res = run_suites(SumHessianParams(3, 1, 0.0), count=50, seed=1)[0]
        assert res.line().startswith(("PASS ", "FAIL ", "SKIP "))

    def test_tight_tolerance_fails(self, monkeypatch):
        # absurdly tight tolerance must flip identity suites to FAIL
        monkeypatch.setattr(suites, "IDENTITY_REL", 1e-18)
        results = run_suites(SumHessianParams(5, 3, 2.0), count=100, seed=2)
        names = {r.name: r for r in results}
        assert names["identity-split"].status == "FAIL"

    def test_matrix_suites_run_above_dim_8(self):
        results = {r.name: r for r in run_suites(SumHessianParams(10, 5, 1.0), count=200,
                                                 seed=3)}
        for name in ("matrix-gradient-fd", "matrix-hessian-fd", "matrix-concavity",
                     "frame-invariance"):
            assert results[name].status == "PASS", results[name].line()

    @pytest.mark.parametrize("n,k,alpha", [(3, 2, 0.5), (6, 5, 2.0)])
    def test_hessian_fd_matches_loop_in_two_calls(self, monkeypatch, n, k, alpha):
        params, count, seed = SumHessianParams(n, k, alpha), 150, 4
        lam = suites._uniform_lams(params, count, np.random.default_rng(seed))
        hess = sum_hessian_hess(lam, k, alpha)
        h = suites.HESS_FD_STEP
        worst = 0.0
        for p in range(n):
            for q in range(n):
                dp = np.zeros(n); dp[p] = h
                dq = np.zeros(n); dq[q] = h
                if p == q:
                    fd = (sum_hessian(lam + dp, k, alpha) - 2 * sum_hessian(lam, k, alpha)
                          + sum_hessian(lam - dp, k, alpha)) / h**2
                else:
                    fd = (sum_hessian(lam + dp + dq, k, alpha) - sum_hessian(lam + dp - dq, k, alpha)
                          - sum_hessian(lam - dp + dq, k, alpha)
                          + sum_hessian(lam - dp - dq, k, alpha)) / (4 * h**2)
                err = np.abs(fd - hess[:, p, q]) / np.maximum(1.0, np.abs(hess[:, p, q]))
                worst = max(worst, float(np.max(err)))
        calls = []
        monkeypatch.setattr(suites, "sum_hessian",
                            lambda *args: calls.append(1) or sum_hessian(*args))
        result = suites.suite_hess_fd(params, count, seed)
        assert result.line() == f"PASS hessian-fd: max rel err {worst:.3e}"
        assert len(calls) == 2
