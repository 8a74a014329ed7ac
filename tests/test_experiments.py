import dataclasses
import json
import math
import os

import numpy as np
import pytest

import rdspill.experiments as exp_mod
from rdspill.errors import ConfigError, IllPosedError, InsufficientSupportError
from rdspill.estimators import EstimatorConfig
from rdspill.experiments import (
    STUDIES,
    ExperimentPlan,
    RegimeRule,
    SolutionCache,
    _nw_population_value,
    _rep_seeds,
    benchmark_model,
    draw_sample,
    local_linear_rdd,
    run_donut_study,
    run_ll_vs_nw,
    run_phase_transition,
    run_spillover_consistency,
)
from rdspill.funcspace import MODEL_FUNCTIONS, ModelSpec, constant, polynomial
from rdspill.population import true_estimands
from rdspill.sampling import Sample

# the three regimes of the phase-transition study, one rule each
PHASE_REGIMES = (
    RegimeRule("r>>h", "tau_d", 1.0, 0.1),
    RegimeRule("r<<h", "tau_tot", 1.0, -0.1),
    RegimeRule("r~h", "tau_star", 0.5, 0.0),
)


def exogenous_model(noise=0.05):
    return ModelSpec(
        m_plus=polynomial([1.0, 0.3]),
        m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.0),
        gamma=constant(0.5),
        noise_sd=constant(noise),
    )


@pytest.fixture(scope="module")
def cache():
    return SolutionCache()


@pytest.fixture(scope="module")
def small_phase_plan():
    return ExperimentPlan(
        model=benchmark_model(0.05),
        regime_map=(RegimeRule("r=8h", "tau_d", 8.0, 0.0),
                    RegimeRule("r~h", "tau_star", 0.5, 0.0)),
        n_grid=(1500,),
        replications=3,
        seed=42,
        grid_n=1601,
    )


@pytest.fixture(scope="module")
def phase_report(small_phase_plan, cache):
    return run_phase_transition(small_phase_plan, cache)


class TestRegimeRule:
    def test_rejects_unknown_target(self):
        with pytest.raises(ConfigError):
            RegimeRule("x", "tau_q", 1.0)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigError):
            RegimeRule("x", "tau_d", 0.0)

    def test_radius_cap(self):
        rule = RegimeRule("wide", "tau_d", 8.0)
        assert rule.radius(100000, 0.5, 4001) == 0.9

    def test_radius_floor_in_grid_cells(self):
        rule = RegimeRule("narrow", "tau_tot", 1.0, -0.5)
        assert rule.radius(10**12, 0.1, 4001) == pytest.approx(16.0 / 4000)

    def test_plain_power_rule(self):
        rule = RegimeRule("r>>h", "tau_d", 1.0, 0.1)
        assert rule.radius(1024, 0.1, 4001) == pytest.approx(0.1 * 1024**0.1)

    def test_config_roundtrip(self):
        rule = RegimeRule("r~h", "tau_star", 0.5, 0.0)
        assert RegimeRule.from_config(rule.to_config()) == rule

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            RegimeRule.from_config({"label": "x", "target": "tau_d",
                                    "factor": 1.0, "cap": 0.5})


class TestExperimentPlan:
    def test_requires_two_replications(self):
        with pytest.raises(ConfigError, match="replications"):
            ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES,
                           n_grid=(1000,), replications=1, seed=1)

    def test_requires_regimes(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(model=benchmark_model(), regime_map=(),
                           n_grid=(1000,), replications=2, seed=1)

    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES,
                           n_grid=(5,), replications=2, seed=1)

    def test_rejects_bandwidth_exponent_at_quarter(self):
        with pytest.raises(ConfigError, match="exponent"):
            ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES,
                           n_grid=(1000,), replications=2, seed=1, h_power=-0.25)

    def test_rejects_oversized_bandwidth(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES,
                           n_grid=(16,), replications=2, seed=1, h_coef=3.0)

    @pytest.mark.parametrize("n_grid", [(20000, 20000, 20000), (1000, 2000, 1000)])
    def test_rejects_a_repeated_sample_size(self, n_grid):
        # a ladder that repeats an n would pass the consistency study's
        # three-sizes guard, and ll_vs_nw's separation keyed by n would
        # keep one of the repeated cells
        with pytest.raises(ConfigError, match="repeats a sample size"):
            ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES,
                           n_grid=n_grid, replications=2, seed=1)

    def test_a_plan_that_sets_estimators_is_refused(self, small_phase_plan):
        # every study fits a fixed set of estimators
        doc = dict(small_phase_plan.to_config(), estimators=["local_linear"])
        with pytest.raises(ConfigError, match=r"unknown keys .*'estimators'"):
            ExperimentPlan.from_config(doc)

    def test_bandwidth_rule(self):
        plan = ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES,
                              n_grid=(100000,), replications=2, seed=1)
        assert plan.h_of(100000) == pytest.approx(0.1, abs=1e-12)

    def test_config_roundtrip(self, small_phase_plan):
        doc = small_phase_plan.to_config()
        clone = ExperimentPlan.from_config(doc)
        assert clone == small_phase_plan
        assert clone.config_hash() == small_phase_plan.config_hash()

    def test_config_hash_hex(self, small_phase_plan):
        digest = small_phase_plan.config_hash()
        assert len(digest) == 16
        int(digest, 16)

    def test_hash_changes_with_seed(self, small_phase_plan):
        other = ExperimentPlan.from_config(
            dict(small_phase_plan.to_config(), seed=43))
        assert other.config_hash() != small_phase_plan.config_hash()

    def test_from_config_rejects_unknown_keys(self, small_phase_plan):
        doc = dict(small_phase_plan.to_config(), color="red")
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentPlan.from_config(doc)


class TestInfrastructure:
    def test_cache_reuses_solutions(self):
        cache = SolutionCache()
        model = benchmark_model()
        a = cache.get_or_solve(model, 0.1, 1601)
        b = cache.get_or_solve(model, 0.1, 1601)
        assert a is b
        assert len(cache) == 1
        cache.get_or_solve(model, 0.2, 1601)
        assert len(cache) == 2
        cache.get_or_solve(model, 0.2, 2001)
        assert len(cache) == 3

    def test_cache_keys_on_the_model_value(self):
        # a model built again from its config, or by replace, shares the
        # entry; a change to any one function or to gamma_one_sided does not
        cache = SolutionCache()
        model = benchmark_model()
        first = cache.get_or_solve(model, 0.1, 1601)
        for twin in (benchmark_model(), ModelSpec.from_config(model.to_config()),
                     dataclasses.replace(model, gamma=constant(0.5))):
            assert twin is not model and twin == model
            assert cache.get_or_solve(twin, 0.1, 1601) is first
        assert len(cache) == 1
        variants = [dataclasses.replace(model, **{name: constant(0.05)})
                    for name in MODEL_FUNCTIONS]
        variants.append(dataclasses.replace(model, gamma_one_sided=True))
        for variant in variants:
            assert cache.get_or_solve(variant, 0.1, 1601) is not first
        assert len(cache) == 1 + len(variants)

    def test_a_signed_zero_coefficient_shares_the_fresh_solve(self):
        # -0.0 == 0.0, so the two models are one key; their solves and
        # draws are bit-identical, so the hit returns what a fresh solve would
        plus = dataclasses.replace(benchmark_model(), gamma=polynomial([0.5, 0.0]))
        minus = dataclasses.replace(plus, gamma=polynomial([0.5, -0.0]))
        assert plus == minus and hash(plus) == hash(minus)
        assert json.dumps(plus.to_config()) != json.dumps(minus.to_config())
        fresh = exp_mod.solve_population(minus, 0.1, 1601)
        cache = SolutionCache()
        cache.get_or_solve(plus, 0.1, 1601)
        hit = cache.get_or_solve(minus, 0.1, 1601)
        assert len(cache) == 1
        for name in ("grid", "y", "jump_left", "jump_right"):
            assert np.asarray(getattr(hit, name)).tobytes() \
                == np.asarray(getattr(fresh, name)).tobytes(), name
        assert hit.solver_report == fresh.solver_report
        a, b = draw_sample(hit, 5000, 3), draw_sample(fresh, 5000, 3)
        assert a.z.tobytes() == b.z.tobytes() and a.y.tobytes() == b.y.tobytes()

    def test_rep_seeds_deterministic_and_distinct(self):
        a = _rep_seeds(7, "phase_transition", 0, 6)
        b = _rep_seeds(7, "phase_transition", 0, 6)
        c = _rep_seeds(7, "phase_transition", 1, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert len(set(a.tolist())) == 6

    def test_benchmark_model_is_the_standard_one(self):
        model = benchmark_model()
        assert float(model.m_plus(0.0) - model.m_minus(0.0)) == 1.0
        assert float(model.delta(0.0)) == 0.4
        assert float(model.gamma_at(0.0)) == 0.5
        assert model.delta_bar == 0.4

    def test_study_registry_covers_all_runners(self):
        assert set(STUDIES) == {"phase_transition", "spillover_consistency",
                                "donut", "ll_vs_nw"}


class TestPhaseTransition:
    def test_cell_layout_and_targets(self, phase_report):
        assert phase_report.study == "phase_transition"
        assert len(phase_report.cells) == 2
        assert not phase_report.failures
        by_regime = {c["regime"]: c for c in phase_report.cells}
        assert by_regime["r=8h"]["target_name"] == "tau_d"
        assert by_regime["r=8h"]["target_value"] == 1.0
        assert by_regime["r~h"]["target_name"] == "tau_star"
        assert by_regime["r~h"]["target_value"] == pytest.approx(1.161, abs=0.01)

    def test_se_is_sd_over_sqrt_reps(self, phase_report):
        for cell in phase_report.cells:
            assert cell["se"] == pytest.approx(
                cell["sd"] / np.sqrt(cell["replications"]), rel=1e-12)
            assert cell["bias"] == pytest.approx(
                cell["mean"] - cell["target_value"], abs=1e-15)

    def test_provenance_fields(self, phase_report, small_phase_plan):
        assert phase_report.provenance == {
            "config_hash": small_phase_plan.config_hash(),
            "seed": 42,
            "version": exp_mod.VERSION,
        }

    def test_rerun_is_bit_identical(self, small_phase_plan, phase_report, cache):
        again = run_phase_transition(small_phase_plan, cache)
        assert again.to_json() == phase_report.to_json()
        assert again.to_csv() == phase_report.to_csv()

    def test_seed_changes_the_draws(self, small_phase_plan, phase_report, cache):
        other_plan = ExperimentPlan.from_config(
            dict(small_phase_plan.to_config(), seed=43))
        other = run_phase_transition(other_plan, cache)
        means = [c["mean"] for c in phase_report.cells]
        other_means = [c["mean"] for c in other.cells]
        assert means != other_means

    def test_failures_recorded_without_aborting(self, small_phase_plan, cache,
                                                monkeypatch):
        calls = {"n": 0}
        real = exp_mod.local_linear_rdd

        def flaky(sample, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise InsufficientSupportError("plus", "forced for the test")
            return real(sample, cfg)

        monkeypatch.setattr(exp_mod, "local_linear_rdd", flaky)
        report = run_phase_transition(small_phase_plan, cache)
        assert len(report.failures) == 1
        assert report.failures[0]["error"] == "InsufficientSupportError"
        assert len(report.cells) == 1

    def test_csv_shape(self, phase_report):
        lines = phase_report.to_csv().splitlines()
        assert lines[0].split(",") == list(phase_report.CSV_COLUMNS)
        assert len(lines) == 1 + len(phase_report.cells) + len(phase_report.failures)
        assert all(line.endswith("ok") for line in lines[1:])

    def test_json_roundtrip_and_key_order(self, phase_report):
        text = phase_report.to_json()
        doc = json.loads(text)
        assert doc["study"] == "phase_transition"
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


class TestSpilloverConsistency:
    def test_requires_single_half_c_rule(self):
        plan_kwargs = dict(model=benchmark_model(0.05), n_grid=(1000, 2000, 4000),
                           replications=2, seed=3, grid_n=1601)
        with pytest.raises(ConfigError, match="exactly one"):
            run_spillover_consistency(ExperimentPlan(
                regime_map=(PHASE_REGIMES[0], PHASE_REGIMES[2]), **plan_kwargs))
        with pytest.raises(ConfigError, match="0 < c < 2"):
            run_spillover_consistency(ExperimentPlan(
                regime_map=(RegimeRule("wide", "tau_d", 1.5),), **plan_kwargs))
        with pytest.raises(ConfigError, match="0 < c < 2"):
            run_spillover_consistency(ExperimentPlan(
                regime_map=(RegimeRule("power", "tau_d", 0.5, 0.1),), **plan_kwargs))

    def test_requires_three_sizes(self):
        plan = ExperimentPlan(model=benchmark_model(0.05),
                              regime_map=(RegimeRule("r~h", "tau_star", 0.5),),
                              n_grid=(1000, 2000), replications=2, seed=3,
                              grid_n=1601)
        with pytest.raises(ConfigError, match="three"):
            run_spillover_consistency(plan)

    def test_cells_and_trend_summary(self, cache):
        plan = ExperimentPlan(model=benchmark_model(0.05),
                              regime_map=(RegimeRule("r~h", "tau_star", 0.5),),
                              n_grid=(1000, 2000, 4000), replications=3, seed=5,
                              grid_n=1601)
        report = run_spillover_consistency(plan, cache)
        assert len(report.cells) == 12
        quantities = {c["quantity"] for c in report.cells}
        assert quantities == {"tau_d", "delta", "gamma", "tau_tot"}
        assert set(report.summary["trend"]) == quantities
        tau_tot_cells = [c for c in report.cells if c["quantity"] == "tau_tot"]
        for cell in tau_tot_cells:
            oracle = true_estimands(plan.model, cell["r"], grid_n=1601)
            assert cell["target_value"] == pytest.approx(oracle["tau_tot"],
                                                         abs=1e-12)

    def test_tau_d_cells_track_target_closely(self, cache):
        plan = ExperimentPlan(model=benchmark_model(0.05),
                              regime_map=(RegimeRule("r~h", "tau_star", 0.5),),
                              n_grid=(1000, 2000, 4000), replications=3, seed=5,
                              grid_n=1601)
        report = run_spillover_consistency(plan, cache)
        largest = max((c for c in report.cells if c["quantity"] == "tau_d"),
                      key=lambda c: c["n"])
        assert abs(largest["bias"]) < 0.1


class TestDonutStudy:
    def test_refuses_endogenous_spillover(self):
        plan = ExperimentPlan(model=benchmark_model(),
                              regime_map=(RegimeRule("r=h/2", "tau_d", 0.5),),
                              n_grid=(1000,), replications=2, seed=3, grid_n=1601)
        with pytest.raises(ConfigError, match="delta"):
            run_donut_study(plan)

    def test_requires_inner_radius_rule(self):
        plan = ExperimentPlan(model=exogenous_model(),
                              regime_map=(RegimeRule("r=h", "tau_d", 1.0),),
                              n_grid=(1000,), replications=2, seed=3, grid_n=1601)
        with pytest.raises(ConfigError, match="factor"):
            run_donut_study(plan)

    def test_two_substudies_with_matching_targets(self, cache):
        plan = ExperimentPlan(model=exogenous_model(),
                              regime_map=(RegimeRule("r=h/2", "tau_d", 0.5),),
                              n_grid=(3000,), replications=3, seed=11,
                              grid_n=1601)
        report = run_donut_study(plan, cache)
        assert len(report.cells) == 2
        by_regime = {c["regime"]: c for c in report.cells}
        two = by_regime["two_sided:r=h/2"]
        one = by_regime["one_sided:r=h/2"]
        assert two["target_name"] == "tau_tot"
        assert two["target_value"] == pytest.approx(1.5, abs=1e-6)
        assert one["target_name"] == "tau_d"
        assert one["target_value"] == 1.0
        for cell in report.cells:
            assert cell["h_donut"] == cell["r"]
            assert abs(cell["bias"]) < 0.15

    def test_rerun_bit_identical(self, cache):
        plan = ExperimentPlan(model=exogenous_model(),
                              regime_map=(RegimeRule("r=h/2", "tau_d", 0.5),),
                              n_grid=(1200,), replications=2, seed=13,
                              grid_n=1601)
        a = run_donut_study(plan, cache)
        b = run_donut_study(plan, cache)
        assert a.to_json() == b.to_json()


class TestLlVsNw:
    def test_refuses_endogenous_spillover(self):
        plan = ExperimentPlan(model=benchmark_model(),
                              regime_map=(RegimeRule("r=h", "tau_d", 1.0),),
                              n_grid=(1000,), replications=2, seed=3, grid_n=1601)
        with pytest.raises(ConfigError, match="delta"):
            run_ll_vs_nw(plan)

    def test_refuses_zero_gamma(self):
        model = ModelSpec(m_plus=polynomial([1.0, 0.3]),
                          m_minus=polynomial([0.0, 0.2]),
                          delta=constant(0.0), gamma=constant(0.0),
                          noise_sd=constant(0.05))
        plan = ExperimentPlan(model=model,
                              regime_map=(RegimeRule("r=h", "tau_d", 1.0),),
                              n_grid=(1000,), replications=2, seed=3, grid_n=1601)
        with pytest.raises(ConfigError, match="gamma"):
            run_ll_vs_nw(plan)

    def test_narrow_radius_is_recorded_as_failure(self, cache):
        plan = ExperimentPlan(model=exogenous_model(),
                              regime_map=(RegimeRule("r=h/2", "tau_d", 0.5),),
                              n_grid=(1000,), replications=2, seed=3, grid_n=1601)
        report = run_ll_vs_nw(plan, cache)
        assert not report.cells
        assert len(report.failures) == 1
        assert "r >= h" in report.failures[0]["message"]

    def test_ll_tracks_tau_d_and_nw_separates(self, cache):
        plan = ExperimentPlan(model=exogenous_model(),
                              regime_map=(RegimeRule("r=h", "tau_d", 1.0),),
                              n_grid=(4000,), replications=4, seed=10,
                              grid_n=1601)
        report = run_ll_vs_nw(plan, cache)
        by_est = {c["estimator"]: c for c in report.cells}
        ll = by_est["local_linear"]
        nw = by_est["nadaraya_watson"]
        assert ll["target_name"] == "tau_d"
        assert abs(ll["bias"]) < 0.05
        assert nw["target_name"] == "nw_population"
        assert abs(nw["bias"]) < 0.05
        assert nw["margin_from_tau_d"] > 0.1
        sep = report.summary["nw_separation"]["4000"]
        assert sep["nw_se_distance_from_tau_d"] > 5.0
        assert sep["nw_se_distance_from_tau_tot"] > 5.0

    def test_reports_both_fits_at_every_sample_size(self, cache):
        plan = ExperimentPlan(model=exogenous_model(),
                              regime_map=(RegimeRule("r=h", "tau_d", 1.0),),
                              n_grid=(2400, 1200), replications=2, seed=10,
                              grid_n=1601)
        report = run_ll_vs_nw(plan, cache)
        assert not report.failures
        assert [(c["n"], c["estimator"], c["target_name"]) for c in report.cells] == [
            (1200, "local_linear", "tau_d"), (1200, "nadaraya_watson", "nw_population"),
            (2400, "local_linear", "tau_d"), (2400, "nadaraya_watson", "nw_population")]
        assert sorted(report.summary["nw_separation"]) == ["1200", "2400"]

    def test_nw_population_value_matches_closed_form(self, cache):
        # With linear baselines, gamma constant, and r >= h the outcome is
        # m(z) + gamma * (z + r) / (2r) on the fit window, so the kernel-mean
        # contrast is tau_d + h*m1*(s_plus + s_minus) + gamma*h*m1/r with m1
        # the one-sided first-moment ratio of the kernel (1/3 for triangular).
        model = exogenous_model(noise=0.0)
        h, r = 0.15, 0.2
        sol = cache.get_or_solve(model, r, 1601)
        got = _nw_population_value(sol, h, "triangular")
        m1 = 1.0 / 3.0
        want = 1.0 + h * m1 * (0.3 + 0.2) + 0.5 * h * m1 / r
        assert got == pytest.approx(want, abs=1e-5)


STUDY_NAMES = ("phase_transition", "spillover_consistency", "donut", "ll_vs_nw")


def _study_plans():
    exogenous = exogenous_model()
    return [
        (run_phase_transition, ExperimentPlan(
            model=benchmark_model(0.05),
            regime_map=(RegimeRule("r=8h", "tau_d", 8.0, 0.0),
                        RegimeRule("r~h", "tau_star", 0.5, 0.0)),
            n_grid=(1500,), replications=5, seed=42, grid_n=1601)),
        (run_spillover_consistency, ExperimentPlan(
            model=benchmark_model(0.05),
            regime_map=(RegimeRule("r~h", "tau_star", 0.5),),
            n_grid=(1000, 2000, 4000), replications=5, seed=5, grid_n=1601)),
        (run_donut_study, ExperimentPlan(
            model=exogenous, regime_map=(RegimeRule("r=h/2", "tau_d", 0.5),),
            n_grid=(1200,), replications=5, seed=13, grid_n=1601)),
        (run_ll_vs_nw, ExperimentPlan(
            model=exogenous, regime_map=(RegimeRule("r=h", "tau_d", 1.0),),
            n_grid=(1200, 2400), replications=5, seed=10, grid_n=1601)),
    ]


def _failing_local_linear(sample, cfg):
    # fails on about a quarter of the replications, with a message naming
    # the draw, so a failure row shows which replication failed first; in
    # the plan below some cells fail at their first seed, some later, some
    # not at all. It keys on the first row inside the fit's window
    first = sample.z[np.abs(sample.z) <= cfg.h][0]
    if first < -0.5 * cfg.h:
        raise IllPosedError(f"forced at z={first!r}", 1e13)
    return local_linear_rdd(sample, cfg)


# per call the replications make through this module, a plan whose study
# makes it once per replication of every cell
REPLICATION_CALLS = {"draw_sample": 0, "local_linear_rdd": 0,
                     "local_spillover_regression": 1, "donut_rdd": 2,
                     "nadaraya_watson_rdd": 3}


@pytest.mark.parametrize("name", REPLICATION_CALLS)
def test_wrapper_sees_every_call_in_this_process(name, monkeypatch):
    # what a tracer wrapping a replication's call needs
    pids = []
    original = getattr(exp_mod, name)

    def traced(*args, **kwargs):
        pids.append(os.getpid())
        return original(*args, **kwargs)

    monkeypatch.setattr(exp_mod, name, traced)
    runner, plan = _study_plans()[REPLICATION_CALLS[name]]
    report = runner(plan, SolutionCache())
    assert not report.failures
    cells = {(cell["regime"], cell["n"]) for cell in report.cells}
    assert pids == [os.getpid()] * (len(cells) * plan.replications)


def test_failure_row_is_the_earliest_failing_seed(monkeypatch):
    runner, plan = _study_plans()[0]
    plan = dataclasses.replace(plan, n_grid=(1500, 2000, 2500, 3000))
    cache = SolutionCache()
    # an independent loop over the seeds: the draws a cell must make and
    # the failure it must report
    want_seeds, want_failures, failed_late = [], [], False
    cells = [(rule, n) for rule in plan.regime_map for n in plan.n_grid]
    for cell_index, (rule, n) in enumerate(cells):
        h = plan.h_of(n)
        r = rule.radius(n, h, plan.grid_n)
        sol = cache.get_or_solve(plan.model, r, plan.grid_n)
        cfg = EstimatorConfig(kernel=plan.kernel, h=h)
        seeds = _rep_seeds(plan.seed, "phase_transition", cell_index,
                           plan.replications)
        for k, seed in enumerate(seeds):
            want_seeds.append(int(seed))
            try:
                _failing_local_linear(
                    draw_sample(sol, n, int(seed), reach=h), cfg)
            except IllPosedError as err:
                want_failures.append((rule.label, n, str(err)))
                failed_late = failed_late or k > 0
                break
    assert want_failures and failed_late
    assert len(want_failures) < len(cells)

    drawn = []

    def counting(sol, n, seed, reach=None):
        drawn.append(seed)
        return draw_sample(sol, n, seed, reach=reach)

    monkeypatch.setattr(exp_mod, "local_linear_rdd", _failing_local_linear)
    monkeypatch.setattr(exp_mod, "draw_sample", counting)
    report = runner(plan, cache)
    assert [(f["regime"], f["n"], f["message"]) for f in report.failures] \
        == want_failures
    assert all(f["error"] == "IllPosedError" for f in report.failures)
    assert drawn == want_seeds


def test_setup_and_replication_failures(monkeypatch):
    # n = 1200 fails in setup (r < h), n = 4800 in a replication, n = 2400 not
    plan = ExperimentPlan(
        model=exogenous_model(),
        regime_map=(RegimeRule("r=0.7h*n^0.05", "tau_d", 0.7, 0.05),),
        n_grid=(1200, 2400, 4800), replications=5, seed=2, grid_n=1601)
    monkeypatch.setattr(exp_mod, "local_linear_rdd", _failing_local_linear)
    report = run_ll_vs_nw(plan, SolutionCache())
    assert [(f["n"], f["error"]) for f in report.failures] == [
        (1200, "ConfigError"), (4800, "IllPosedError")]
    assert {cell["n"] for cell in report.cells} == {2400}


def _draws_with(monkeypatch, reach_of):
    """Make the studies draw with reach_of(reach, sol) in place of the reach
    their fits ask for."""
    def draw(sol, n, seed, reach=None):
        return draw_sample(sol, n, seed, reach=reach_of(reach, sol))

    monkeypatch.setattr(exp_mod, "draw_sample", draw)


class TestWindowedDraws:
    @pytest.mark.parametrize("seed_set", (1, 2))
    @pytest.mark.parametrize("index", range(4), ids=lambda i: STUDY_NAMES[i])
    def test_reports_identical_to_full_draws(self, index, seed_set, monkeypatch):
        """Identical in law: each cell mean from windowed draws is within 4
        combined SEs of the one from full draws, on the plan's seed (set 1)
        and on the next seed (set 2)."""
        runner, plan = _study_plans()[index]
        plan = dataclasses.replace(plan, seed=plan.seed + seed_set - 1)
        windowed = runner(plan, SolutionCache())
        _draws_with(monkeypatch, lambda reach, sol: None)
        full = runner(plan, SolutionCache())
        assert not windowed.failures and not full.failures
        assert len(windowed.cells) == len(full.cells)
        for a, b in zip(windowed.cells, full.cells):
            assert (a["regime"], a["quantity"], a["n"]) == (b["regime"], b["quantity"], b["n"])
            assert abs(a["mean"] - b["mean"]) <= 4.0 * math.hypot(a["se"], b["se"])

    @pytest.mark.parametrize("index", range(4), ids=lambda i: STUDY_NAMES[i])
    def test_each_fit_asks_for_its_window(self, index, monkeypatch):
        # h for the kernel fits, h + r for the spillover fit
        runner, plan = _study_plans()[index]
        asked = set()

        def record(reach, sol):
            asked.add(reach)
            return reach

        _draws_with(monkeypatch, record)
        report = runner(plan, SolutionCache())
        widen = STUDY_NAMES[index] == "spillover_consistency"
        assert asked == {cell["h"] + cell["r"] if widen else cell["h"]
                         for cell in report.cells}

    # per study, a reach inside its fit's window: h/2 for local linear, h for
    # the spillover fit, h/2 for the donut fit, 0.9h for local linear and NW
    NARROWER = (lambda reach, sol: reach / 2, lambda reach, sol: reach - sol.r,
                lambda reach, sol: reach / 2, lambda reach, sol: 0.9 * reach)

    @pytest.mark.parametrize("index", range(4), ids=lambda i: STUDY_NAMES[i])
    def test_a_narrower_reach_changes_the_report(self, index, monkeypatch):
        # the same draws, less the rows between a narrower reach and the
        # fit's: the fit reads those rows, so the report must move; keeping
        # every row must leave it byte-identical
        runner, plan = _study_plans()[index]
        windowed = runner(plan, SolutionCache())

        def draws_within(reach_of):
            def draw(sol, n, seed, reach=None):
                sample = draw_sample(sol, n, seed, reach=reach)
                keep = np.abs(sample.z) <= reach_of(reach, sol)
                return Sample(z=sample.z[keep], y=sample.y[keep])

            monkeypatch.setattr(exp_mod, "draw_sample", draw)

        draws_within(lambda reach, sol: reach)
        kept = runner(plan, SolutionCache())
        assert kept.to_json() == windowed.to_json()
        assert kept.to_csv() == windowed.to_csv()
        draws_within(self.NARROWER[index])
        narrowed = runner(plan, SolutionCache())
        assert narrowed.to_json() != windowed.to_json()
        assert narrowed.to_csv() != windowed.to_csv()


def test_a_study_without_a_cache_solves_into_a_fresh_one(monkeypatch):
    # nothing is kept between calls: two runs solve the same populations
    solves = []
    real = exp_mod.solve_population

    def counting(*args):
        solves.append(args[1])
        return real(*args)

    monkeypatch.setattr(exp_mod, "solve_population", counting)
    runner, plan = _study_plans()[0]
    first = runner(plan)
    per_call = len(solves)
    second = runner(plan)
    assert per_call == len(plan.regime_map) and len(solves) == 2 * per_call
    assert first.to_json() == second.to_json()
