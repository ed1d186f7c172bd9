"""Numerical laboratory for sum Hessian operators.

Core pieces: exact symmetric-function algebra (symfun), admissibility
cones and sampling (cones), matrix spectral calculus (spectral), a
finite-difference admissible Newton solver (grid/solver), estimate
diagnostics (estimates), and an expression/config/CLI frontend
(expr/config/cli) with runtime verification suites (suites).
"""
from .symfun import (
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
from .cones import (
    Cone,
    ConeSampleBatch,
    eta,
    in_cone,
    in_gamma,
    in_gamma_tilde,
    sample_cone,
)
from .spectral import (
    EigenDecomposition,
    as_sym_matrix,
    eigen_sym,
    grad_coefficients,
    operator_grad,
    operator_hess_quad,
    operator_value,
    u_operator,
)
from .grid import GridDomain, ScalarField, make_domain, read_field, write_field
from .solver import (
    RhsSpec,
    SolveConfig,
    SolveResult,
    initial_guess,
    linearize,
    newton_solve,
    residual,
)
from .estimates import (
    EstimateReport,
    build_report,
    stable_weight,
)
from .suites import SuiteResult, run_suites

__version__ = "0.1.0"
