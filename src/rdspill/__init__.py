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

The top-level names load their submodule on first use (PEP 562), so
`import rdspill`, and a CLI child that runs only part of the package, load
no more than they touch.
"""
import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": ("LambdaTable", "build_lambda_table", "corollary_bounds_check",
                    "lambda_table", "mu_profile", "nu_profile", "tau_star"),
    "errors": ("CollinearityError", "ConfigError", "CrossValidationError", "DataError",
               "DomainError", "EstimationError", "IllPosedError",
               "InsufficientSupportError", "NumericError", "RdspillError",
               "SolverError"),
    "estimators": ("EstimatorConfig", "RddEstimate", "SpilloverEstimate",
                   "cross_validate_r", "donut_rdd", "local_linear_rdd",
                   "local_spillover_regression", "nadaraya_watson_rdd", "to_record"),
    "experiments": ("ExperimentPlan", "ExperimentReport", "RegimeRule", "SolutionCache",
                    "benchmark_model", "run_donut_study", "run_ll_vs_nw",
                    "run_phase_transition", "run_spillover_consistency",
                    "tau_star_for_model"),
    "funcspace": ("FuncSpec", "ModelSpec", "constant", "eval_func", "polynomial",
                  "sinusoid_sum"),
    "kernels": ("KERNEL_NAMES", "kernel_values", "one_sided_moment"),
    "population": ("PopulationSolution", "mu_at", "nu_exact", "solve_population",
                   "true_estimands"),
    "sampling": ("Sample", "draw_sample", "parse_sample_csv", "substream"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def _lazy(namespace: dict, exports: dict):
    """A PEP 562 module ``__getattr__`` for the module whose globals are
    namespace: a name listed under a submodule in exports is imported from
    that rdspill submodule on first use and cached in namespace, so later
    reads, and a name rebound on the module from outside, skip the hook."""
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in source:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(_importlib.import_module(f"{__name__}.{source[name]}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})
