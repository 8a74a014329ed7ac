"""Regression discontinuity with linear-in-means spillovers along the
running variable: exact population solver, cutoff estimators, limit
objects, and a Monte Carlo harness.

Importing the package before numpy pins OpenBLAS to one thread: it sets
OPENBLAS_NUM_THREADS=1 unless the variable is already set. Study cells run
their replications on one process per CPU, and threaded BLAS in each of
them would only contend for the same cores; the pin also makes the last
bits of the spillover fits independent of the core count. Once numpy is
loaded the variable no longer reaches its BLAS, so it is then left unset
rather than passed on to every subprocess.
"""
import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .asymptotics import (
    LambdaTable,
    adequate_table,
    build_lambda_table,
    corollary_bounds_check,
    mu_profile,
    nu_profile,
    tau_star,
)
from .errors import (
    CollinearityError,
    ConfigError,
    CrossValidationError,
    DataError,
    DomainError,
    EstimationError,
    IllPosedError,
    InsufficientSupportError,
    NumericError,
    RdspillError,
    SolverError,
)
from .estimators import (
    EstimatorConfig,
    RddEstimate,
    SpilloverEstimate,
    cross_validate_r,
    donut_rdd,
    local_linear_rdd,
    local_spillover_regression,
    mu_hat,
    nadaraya_watson_rdd,
    to_record,
)
from .experiments import (
    ExperimentPlan,
    ExperimentReport,
    RegimeRule,
    SolutionCache,
    VERSION as __version__,
    benchmark_model,
    run_donut_study,
    run_ll_vs_nw,
    run_phase_transition,
    run_spillover_consistency,
    tau_star_for_model,
)
from .funcspace import (
    FuncSpec,
    LipschitzRecord,
    ModelSpec,
    constant,
    eval_func,
    lipschitz_constant,
    polynomial,
    sinusoid_sum,
)
from .kernels import KERNEL_NAMES, kernel_values, one_sided_moment
from .population import (
    ALL_TREATED,
    CUTOFF,
    NONE_TREATED,
    PopulationSolution,
    TreatmentRegime,
    mu_at,
    nu_exact,
    solve_population,
    true_estimands,
)
from .sampling import Sample, draw_sample, load_sample_csv, parse_sample_csv, substream

__all__ = [name for name in dir() if not name.startswith("_")]
