"""Random walks on free products of two finite rooted graphs.

Exact truncated generating functions by path enumeration, fast evaluations
by linear solves and a minimal fixed point, trajectory sampling with
renewal decomposition at cone exit times, and verification of the three
central limit theorems (graph-distance drift, block-length speed, entropy).
"""

from .core import (
    FactorSpec,
    FreewalkError,
    IncompatibleLetters,
    InvalidConfig,
    LoopWitness,
    ParameterBinding,
    ValidationReport,
    WalkConfig,
    Word,
    step_distribution,
    validate_config,
)
from .genfun import (
    GenFunContext,
    RenewalLaw,
    build_context,
    clt_constants,
    factor_resolvent,
    radius_diagnostic,
    renewal_increment_law,
    solve_xi,
)
from .instances import NAMED_INSTANCES, instance_k3_k3, instance_path_k3
from .oracle import (
    TruncatedSeries,
    enum_green_series,
    enum_L_series,
    enum_xi_series,
    exact_renewal_increment_dist,
    series_combine,
)
from .simulator import BlockPool, simulate_batch, simulate_pool
from .estimators import (
    CltReport,
    estimate_rates,
    estimate_sigmas,
    iid_diagnostics,
    normality_test,
    run_clt_suite,
    smoothness_probe,
    tail_diagnostic,
)

__version__ = "0.1.0"
