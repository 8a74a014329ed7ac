"""Monte Carlo studies at desk scale.

The four studies run through one cell loop, `_run_cells`. A study supplies
its plan guards, its cells as (label, radius rule, model, sample size,
estimator named on a failure row), and per cell the rows it reports with
their targets, a per-sample fit and the fit's reach. The loop solves the
population once per cell (cached for the call), sets the cell up, then
draws its replications one at a time in the calling process, drawing only
the window |Z| <= reach of each n-row sample (binomial thinning, see
draw_sample), fits each, and reports mean / sd / se against the
theoretical target, which is recomputed at run time from the population
solver (tau_tot: one solve of the treatment contrast) or the limit machinery.
No target number is hard-coded. A library error in a cell becomes that
cell's failure row; the other cells still run. A report has the law that
full draws give, not their bits.

Reproducibility: every cell derives its replication seeds from one Philox
substream keyed by (plan seed, study tag, cell index), and the whole seed
vector is materialized before any drawing. Results are therefore bit-exact
across reruns and, with the package's BLAS pin (see its docstring), across
core counts; they do not depend on the order in which cells or
replications execute.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import tau_star
from .config import integer, list_of, read_section, real, text
from .errors import ConfigError, RdspillError
from .estimators import (
    EstimatorConfig,
    donut_rdd,
    local_linear_rdd,
    local_spillover_regression,
    nadaraya_watson_rdd,
)
from .funcspace import ModelSpec, constant, polynomial
from .kernels import KERNEL_NAMES, kernel_values
from .population import DEFAULT_GRID_N, check_grid_n, solve_population, true_estimands
from .sampling import draw_sample, substream

VERSION = "0.1.0"

TARGET_KINDS = ("tau_d", "tau_tot", "tau_star")
RADIUS_CAP = 0.9
RADIUS_FLOOR_CELLS = 8

_STUDY_TAGS = {"phase_transition": 1, "spillover_consistency": 2,
               "donut": 3, "ll_vs_nw": 4}


def benchmark_model(noise_sd: float = 0.1) -> ModelSpec:
    """The standard test model: tau_d = 1, delta(0) = 0.4, gamma(0) = 0.5.

    Linear baselines make the finite-r total effect exactly
    (tau_d + gamma(0)) / (1 - delta(0)) = 2.5 at every radius.
    """
    return ModelSpec(
        m_plus=polynomial([1.0, 0.3]),
        m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.4),
        gamma=constant(0.5),
        noise_sd=constant(noise_sd),
    )


@dataclass(frozen=True)
class RegimeRule:
    """Radius rule r = factor * h * n^n_power, capped below RADIUS_CAP and
    floored at RADIUS_FLOOR_CELLS grid cells."""

    label: str
    target: str
    factor: float
    n_power: float = 0.0

    def __post_init__(self):
        if self.target not in TARGET_KINDS:
            raise ConfigError(
                f"regime target must be one of {TARGET_KINDS}, got {self.target!r}")
        if self.factor <= 0.0:
            raise ConfigError(f"regime factor must be positive, got {self.factor}")

    def radius(self, n: int, h: float, grid_n: int) -> float:
        try:
            r = self.factor * h * float(n) ** self.n_power
        except OverflowError:
            raise ConfigError(f"regime {self.label!r} overflows at n={n}: "
                              f"n^{self.n_power} is out of range") from None
        floor = RADIUS_FLOOR_CELLS * 2.0 / (grid_n - 1)
        return min(max(r, floor), RADIUS_CAP)

    def to_config(self) -> dict:
        return {"label": self.label, "target": self.target,
                "factor": self.factor, "n_power": self.n_power}

    @classmethod
    def from_config(cls, doc: dict) -> "RegimeRule":
        return cls(**read_section(doc, "regime rule",
                                  {"label": text, "target": text, "factor": real},
                                  {"n_power": real}))


def hash_config(doc: dict) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON of doc."""
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentPlan:
    model: ModelSpec
    regime_map: tuple[RegimeRule, ...]
    n_grid: tuple[int, ...]
    replications: int
    seed: int
    h_coef: float = 1.0
    h_power: float = -0.2
    kernel: str = "triangular"
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self):
        object.__setattr__(self, "regime_map", tuple(self.regime_map))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.replications < 2:
            raise ConfigError(
                f"need >= 2 replications for a standard error, got {self.replications}")
        if not self.regime_map:
            raise ConfigError("regime_map must contain at least one rule")
        if not self.n_grid or any(n < 10 for n in self.n_grid):
            raise ConfigError("n_grid must be non-empty with every n >= 10")
        if len(set(self.n_grid)) < len(self.n_grid):
            raise ConfigError(f"n_grid repeats a sample size: {list(self.n_grid)}")
        if self.h_coef <= 0.0:
            raise ConfigError(f"bandwidth coefficient must be positive, got {self.h_coef}")
        if not -0.25 < self.h_power < 0.0:
            raise ConfigError(
                f"bandwidth exponent must lie in (-1/4, 0), got {self.h_power}")
        if self.kernel not in KERNEL_NAMES:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        check_grid_n(self.grid_n)
        for n in self.n_grid:
            h = self.h_of(n)
            if not 0.0 < h <= 1.0:
                raise ConfigError(f"bandwidth rule gives h={h} at n={n}")
            for rule in self.regime_map:
                r = rule.radius(n, h, self.grid_n)
                if not 0.0 < r < 1.0:
                    raise ConfigError(
                        f"regime {rule.label!r} gives r={r} at n={n}")

    def h_of(self, n: int) -> float:
        return self.h_coef * float(n) ** self.h_power

    def to_config(self) -> dict:
        return {
            "model": self.model.to_config(),
            "regime_map": [rule.to_config() for rule in self.regime_map],
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "seed": self.seed,
            "h_coef": self.h_coef,
            "h_power": self.h_power,
            "kernel": self.kernel,
            "grid_n": self.grid_n,
        }

    @classmethod
    def from_config(cls, doc: dict) -> "ExperimentPlan":
        return cls(**read_section(
            doc, "experiment plan",
            {"model": ModelSpec.from_config, "regime_map": list_of(RegimeRule.from_config),
             "n_grid": list_of(integer), "replications": integer, "seed": integer},
            {"h_coef": real, "h_power": real, "kernel": text, "grid_n": integer}))

    def config_hash(self) -> str:
        return hash_config(self.to_config())


@dataclass
class ExperimentReport:
    study: str
    cells: list
    failures: list
    summary: dict
    provenance: dict

    CSV_COLUMNS = ("study", "regime", "estimator", "quantity", "n", "h", "r",
                   "replications", "mean", "sd", "se", "target_name",
                   "target_value", "bias", "se_distance", "status")

    def to_json(self) -> str:
        doc = {"study": self.study, "provenance": self.provenance,
               "summary": self.summary, "cells": self.cells,
               "failures": self.failures}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return "%.17g" % v
            return str(v)

        lines = [",".join(self.CSV_COLUMNS)]
        for entries, status in ((self.cells, "ok"), (self.failures, "failed")):
            for entry in entries:
                row = dict(entry, study=self.study, status=status)
                lines.append(",".join(fmt(row.get(col)) for col in self.CSV_COLUMNS))
        return "\n".join(lines) + "\n"


class SolutionCache:
    """Insert-only store of population solves keyed by (model, radius, grid
    size); a frozen ModelSpec hashes and compares by value."""

    def __init__(self):
        self._store = {}

    def __len__(self):
        return len(self._store)

    def get_or_solve(self, model: ModelSpec, r: float, grid_n: int):
        key = (model, float(r), int(grid_n))
        if key not in self._store:
            self._store[key] = solve_population(model, r, grid_n)
        return self._store[key]


def _rep_seeds(seed: int, study: str, cell_index: int, replications: int) -> np.ndarray:
    gen = substream(seed, _STUDY_TAGS[study], cell_index)
    return gen.integers(0, 2**62, size=replications)


def _provenance(plan: ExperimentPlan) -> dict:
    return {"config_hash": plan.config_hash(), "seed": plan.seed,
            "version": VERSION}


def _tau_d(model: ModelSpec) -> float:
    return float(model.m_plus(0.0) - model.m_minus(0.0))


def tau_star_for_model(model: ModelSpec, c: float, kernel: str) -> float:
    """Limit value of the cutoff contrast at c = 2r/h, built from the model's
    values at the cutoff on the lambda table cached per delta0."""
    return tau_star({"tau_d": _tau_d(model), "delta0": float(model.delta(0.0)),
                     "gamma0": float(model.gamma_at(0.0))}, c, kernel)


def _cell_target(plan: ExperimentPlan, model: ModelSpec, kind: str, r: float,
                 h: float) -> tuple[str, float]:
    if kind == "tau_d":
        return "tau_d", _tau_d(model)
    if kind == "tau_tot":
        return "tau_tot", true_estimands(model, r, plan.grid_n)["tau_tot"]
    return "tau_star", tau_star_for_model(model, 2.0 * r / h, plan.kernel)


def _stats_cell(label: str, estimator: str, quantity: str, n: int, h: float,
                r: float, values, target_name: str, target_value: float,
                extra: dict | None = None) -> dict:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    se = sd / math.sqrt(arr.size)
    bias = mean - target_value
    cell = {
        "regime": label, "estimator": estimator, "quantity": quantity,
        "n": int(n), "h": float(h), "r": float(r),
        "replications": int(arr.size),
        "mean": mean, "sd": sd, "se": se,
        "target_name": target_name, "target_value": float(target_value),
        "bias": bias,
        "se_distance": abs(bias) / se if se > 0.0 else math.inf,
    }
    if extra:
        cell.update(extra)
    return cell


def _failure(label: str, n: int, h: float, r: float, err: Exception,
             estimator: str | None) -> dict:
    return {"regime": label, "estimator": estimator, "n": int(n),
            "h": float(h), "r": float(r),
            "error": type(err).__name__, "message": str(err)}


def _run_cells(study: str, plan: ExperimentPlan, cache: SolutionCache | None,
               layout, setup, summarize=None) -> ExperimentReport:
    """The cell loop every study shares.

    layout lists (label, rule, model, n, failure estimator) in report order;
    a cell's position in it keys its replication seeds. For each cell,
    setup(model, rule, sol, h, r) returns (rows, fit, reach): rows are
    the (estimator, quantity, target name, target value, extra) of the stats
    rows the cell reports, fit(sample) returns one value per row, and each
    sample is drawn as only the window |Z| <= reach the fit reads. One pass
    per cell solves it (into a fresh cache when cache is None), sets it up,
    then draws and fits its replications in seed order. The first
    RdspillError in a cell ends it as that cell's failure row.
    summarize(cells) adds study-specific summary keys.
    """
    cache = cache if cache is not None else SolutionCache()
    cells, failures = [], []
    for cell_index, (label, rule, model, n, estimator) in enumerate(layout):
        h = plan.h_of(n)
        r = rule.radius(n, h, plan.grid_n)
        try:
            sol = cache.get_or_solve(model, r, plan.grid_n)
            rows, fit, reach = setup(model, rule, sol, h, r)
            values = [fit(draw_sample(sol, n, int(s), reach=reach))
                      for s in _rep_seeds(plan.seed, study, cell_index,
                                          plan.replications)]
        except RdspillError as err:
            failures.append(_failure(label, n, h, r, err, estimator))
            continue
        for (row_estimator, quantity, target_name, target_value, extra), series \
                in zip(rows, zip(*values)):
            cells.append(_stats_cell(label, row_estimator, quantity, n, h, r,
                                     series, target_name, target_value, extra))
    summary = {"n_cells": len(cells), "n_failures": len(failures)}
    if summarize is not None:
        summary.update(summarize(cells))
    return ExperimentReport(study, cells, failures, summary, _provenance(plan))


def _single_rule(plan: ExperimentPlan, study: str) -> RegimeRule:
    if len(plan.regime_map) != 1:
        raise ConfigError(f"the {study} study takes exactly one regime rule")
    return plan.regime_map[0]


def _require_fraction_of_h(rule: RegimeRule, need: str) -> None:
    """Refuse rules other than r = factor * h with 0 < factor < 1."""
    if rule.n_power != 0.0 or not 0.0 < rule.factor < 1.0:
        raise ConfigError(
            f"{need}; got factor={rule.factor}, n_power={rule.n_power}")


def _require_zero_delta(model: ModelSpec, study: str) -> None:
    if model.delta_bar != 0.0:
        raise ConfigError(
            f"the {study} study requires delta identically zero; got "
            f"sup|delta| = {model.delta_bar}")


def run_phase_transition(plan: ExperimentPlan,
                         cache: SolutionCache | None = None) -> ExperimentReport:
    """Monte Carlo mean of the local linear cutoff contrast across radius
    regimes. Wide radii target tau_d, narrow radii the finite-r total effect,
    comparable radii the limit value tau_star at c = 2r/h."""
    layout = [(rule.label, rule, plan.model, n, "local_linear")
              for rule in plan.regime_map for n in plan.n_grid]

    def setup(model, rule, sol, h, r):
        target = _cell_target(plan, model, rule.target, r, h)
        cfg = EstimatorConfig(kernel=plan.kernel, h=h)
        return ([("local_linear", "tau_hat", *target, None)],
                lambda sample: (local_linear_rdd(sample, cfg).tau_hat,), cfg.h)

    return _run_cells("phase_transition", plan, cache, layout, setup)


def _trend_ok(ordered_cells: list) -> bool:
    """|bias| nonincreasing along the cells, with one combined-SE slack."""
    for a, b in zip(ordered_cells, ordered_cells[1:]):
        slack = math.hypot(a["se"], b["se"])
        if abs(b["bias"]) > abs(a["bias"]) + slack:
            return False
    return True


def run_spillover_consistency(plan: ExperimentPlan,
                              cache: SolutionCache | None = None) -> ExperimentReport:
    """Bias of the spillover regression coefficients along a sample-size
    ladder at fixed c = 2r/h < 2."""
    rule = _single_rule(plan, "consistency")
    _require_fraction_of_h(rule, "the consistency study needs r = (c/2) * h "
                                 "with 0 < c < 2")
    if len(plan.n_grid) < 3:
        raise ConfigError("the consistency trend needs at least three sample sizes")
    layout = [(rule.label, rule, plan.model, n, "spillover")
              for n in sorted(plan.n_grid)]

    def setup(model, rule, sol, h, r):
        tau_tot = true_estimands(model, r, plan.grid_n)["tau_tot"]
        cfg = EstimatorConfig(kernel=plan.kernel, h=h, r=r)
        rows = [("spillover", "tau_d", "tau_d", _tau_d(model), None),
                ("spillover", "delta", "delta0", float(model.delta(0.0)), None),
                ("spillover", "gamma", "gamma0", float(model.gamma_at(0.0)), None),
                ("spillover", "tau_tot", "tau_tot", tau_tot, None)]

        def fit(sample):
            est = local_spillover_regression(sample, cfg)
            if est.tau_tot_hat is None:
                raise ConfigError(
                    "a replication produced delta_hat = 1 exactly; "
                    "tau_tot is undefined for this cell")
            return est.tau_d_hat, est.delta_hat, est.gamma_hat, est.tau_tot_hat

        return rows, fit, cfg.h + cfg.r

    def summarize(cells):
        trend = {}
        for quantity in ("tau_d", "delta", "gamma", "tau_tot"):
            ordered = sorted((c for c in cells if c["quantity"] == quantity),
                             key=lambda c: c["n"])
            trend[quantity] = _trend_ok(ordered) if len(ordered) >= 3 else False
        return {"trend": trend}

    return _run_cells("spillover_consistency", plan, cache, layout, setup,
                      summarize)


def run_donut_study(plan: ExperimentPlan,
                    cache: SolutionCache | None = None) -> ExperimentReport:
    """Donut extrapolation with h_donut = r on exogenous-spillover models.

    Two sub-studies: two-sided gamma targets the finite-r total effect,
    one-sided gamma (active only at z <= 0) targets tau_d.
    """
    _require_zero_delta(plan.model, "donut")
    rule = _single_rule(plan, "donut")
    _require_fraction_of_h(rule, "the donut study needs r = factor * h with "
                                 "0 < factor < 1 so the donut stays inside the "
                                 "bandwidth")
    layout = [(f"{variant}:{rule.label}", rule,
               dataclasses.replace(plan.model, gamma_one_sided=one_sided),
               n, "donut")
              for variant, one_sided in (("two_sided", False), ("one_sided", True))
              for n in sorted(plan.n_grid)]

    def setup(model, rule, sol, h, r):
        kind = "tau_d" if model.gamma_one_sided else "tau_tot"
        target = _cell_target(plan, model, kind, r, h)
        cfg = EstimatorConfig(kernel=plan.kernel, h=h, h_donut=r)
        return ([("donut", "tau_hat", *target, {"h_donut": float(r)})],
                lambda sample: (donut_rdd(sample, cfg).tau_hat,), cfg.h)

    return _run_cells("donut", plan, cache, layout, setup)


def _nw_population_value(sol, h: float, kernel: str) -> float:
    """Population value of the kernel-mean contrast, by 64-node per-side
    Gauss-Legendre quadrature of the solved outcome profile."""
    x, wq = np.polynomial.legendre.leggauss(64)
    means = []
    for z in (0.5 * h * (x + 1.0), -0.5 * h * (x[::-1] + 1.0)):
        kw = kernel_values(kernel, z / h) * (0.5 * h * wq)
        means.append(float(np.sum(kw * sol.interp(z)) / np.sum(kw)))
    return means[0] - means[1]


def _nw_separation(cells: list) -> dict:
    """Distance of each local-constant mean from tau_d and tau_tot, in SEs."""
    separation = {}
    for cell in cells:
        if cell["estimator"] != "nadaraya_watson":
            continue
        se = cell["se"]
        separation[str(cell["n"])] = {
            "nw_se_distance_from_tau_d":
                abs(cell["mean"] - cell["tau_d"]) / se if se > 0 else math.inf,
            "nw_se_distance_from_tau_tot":
                abs(cell["mean"] - cell["tau_tot"]) / se if se > 0 else math.inf,
            "predicted_margin": cell["margin_from_tau_d"],
        }
    return {"nw_separation": separation}


def run_ll_vs_nw(plan: ExperimentPlan,
                 cache: SolutionCache | None = None) -> ExperimentReport:
    """Local linear versus local constant under exogenous spillovers with
    r >= h: the linear fit absorbs the treated-share ramp, the constant fit
    does not. The local-constant cell's target is its own population value,
    computed by quadrature; its distance from tau_d is the separation margin.
    """
    model = plan.model
    _require_zero_delta(model, "comparison")
    if float(model.gamma_at(0.0)) == 0.0 and float(model.gamma_at(-1e-9)) == 0.0:
        raise ConfigError(
            "the comparison study needs a nonzero exogenous spillover gamma")
    rule = _single_rule(plan, "comparison")
    layout = [(rule.label, rule, model, n, None) for n in sorted(plan.n_grid)]

    def setup(model, rule, sol, h, r):
        if r < h:
            raise ConfigError(f"comparison regime needs r >= h, got r={r} < h={h}")
        tau_d = _tau_d(model)
        tau_tot = true_estimands(model, r, plan.grid_n)["tau_tot"]
        nw_pop = _nw_population_value(sol, h, plan.kernel)
        cfg = EstimatorConfig(kernel=plan.kernel, h=h)
        rows = [("local_linear", "tau_hat", "tau_d", tau_d, None),
                ("nadaraya_watson", "tau_hat", "nw_population", nw_pop,
                 {"tau_d": tau_d, "tau_tot": tau_tot,
                  "margin_from_tau_d": abs(nw_pop - tau_d)})]
        return (rows, lambda sample: (local_linear_rdd(sample, cfg).tau_hat,
                                      nadaraya_watson_rdd(sample, cfg)), cfg.h)

    return _run_cells("ll_vs_nw", plan, cache, layout, setup, _nw_separation)


STUDIES = {
    "phase_transition": run_phase_transition,
    "spillover_consistency": run_spillover_consistency,
    "donut": run_donut_study,
    "ll_vs_nw": run_ll_vs_nw,
}
