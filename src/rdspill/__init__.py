"""Regression discontinuity with linear-in-means spillovers along the
running variable: exact population solver, cutoff estimators, limit
objects, and a Monte Carlo harness.

Importing the package before numpy pins OpenBLAS to one thread: it sets
OPENBLAS_NUM_THREADS=1 unless the variable is already set. The pin makes
the last bits of the spillover fits, and so every artifact, independent of
the core count, and it spares desk-scale solves threaded OpenBLAS's cold
start (a cold tau_star at c = 1 took 0.16-0.17 s threaded against 6-7 ms
pinned on two cores). Once numpy is loaded the variable no longer reaches
its BLAS, so it is then left unset rather than passed on to every
subprocess.
"""
import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .asymptotics import (
    LambdaTable,
    build_lambda_table,
    corollary_bounds_check,
    lambda_table,
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
    ModelSpec,
    constant,
    eval_func,
    polynomial,
    sinusoid_sum,
)
from .kernels import KERNEL_NAMES, kernel_values, one_sided_moment
from .population import (
    PopulationSolution,
    mu_at,
    nu_exact,
    solve_population,
    true_estimands,
)
from .sampling import Sample, draw_sample, parse_sample_csv, substream

__all__ = [name for name in dir() if not name.startswith("_")]
