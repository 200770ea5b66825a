"""Logistic order statistics under independent exponential shifts.

Exact characteristic functions, a catalog of verifiable distributional
identities, Monte Carlo and exact verification machinery, and a
characterization-based logistic goodness-of-fit test.
"""

__version__ = "0.1.0"

from .cf import (
    CFGrid,
    cf_invert_derivative,
    exponential_order_stat_cf,
    logistic_cf_grid,
    logistic_order_stat_cf,
    numerical_cf,
)
from .distributions import (
    Distribution,
    Exponential,
    Laplace,
    Logistic,
    Normal,
    OrderStatistic,
    Uniform01,
    parse_distribution,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    LogshiftError,
    TruncationError,
    UnsupportedParentError,
)
from .gof import (
    GofConfig,
    GofResult,
    adjacent_functional_residual,
    gof_null,
    gof_test,
    w_functional,
)
from .hypotests import cvm_two_sample, kolmogorov_sf, ks_statistic, ks_two_sample
from .identities import (
    IdentitySpec,
    ShiftExpression,
    ShiftTerm,
    VerificationConfig,
    VerificationReport,
    catalog,
    lemma1i,
    lemma1ii,
    maxexp,
    median,
    mc_test,
    parse_identity,
    theorem1,
    verify,
)
from .quadrature import adaptive_quadrature, gauss_kronrod_15
from .rng import RngStream
from .special import exponential_cf, logistic_cf

__all__ = [
    "__version__",
    "CFGrid",
    "ConvergenceError",
    "Distribution",
    "DomainError",
    "Exponential",
    "GofConfig",
    "GofResult",
    "IdentitySpec",
    "InsufficientDataError",
    "Laplace",
    "Logistic",
    "LogshiftError",
    "Normal",
    "OrderStatistic",
    "RngStream",
    "ShiftExpression",
    "ShiftTerm",
    "TruncationError",
    "Uniform01",
    "UnsupportedParentError",
    "VerificationConfig",
    "VerificationReport",
    "adaptive_quadrature",
    "adjacent_functional_residual",
    "catalog",
    "cf_invert_derivative",
    "cvm_two_sample",
    "exponential_cf",
    "exponential_order_stat_cf",
    "gauss_kronrod_15",
    "gof_null",
    "gof_test",
    "kolmogorov_sf",
    "ks_statistic",
    "ks_two_sample",
    "lemma1i",
    "lemma1ii",
    "logistic_cf",
    "logistic_cf_grid",
    "logistic_order_stat_cf",
    "maxexp",
    "mc_test",
    "median",
    "numerical_cf",
    "parse_distribution",
    "parse_identity",
    "theorem1",
    "verify",
    "w_functional",
]
