"""Acceptance gate: every commitment the package makes, one test each.

Each test prints a single `ACCEPTANCE <id>: PASS/FAIL` line with the measured
numbers next to the tolerance it was held to, then asserts. Check 6 is split
into its three radius-regime cells so each regime reports its own line. The
narrow-radius cell (6b) uses r = h n^(-1/10), so c = 2r/h is still 0.63 at
n = 1e5: there the estimand is tau_star(c), not tau_tot, and the gap between
them shrinks only linearly in c (n near 1e20 would be needed to close it). 6b
therefore holds the cell mean to tau_star at the cell's own c, and checks the
total-effect limit in c rather than in n: |tau_star(c) - tau_tot| must
strictly shrink along c = c_n, 0.1, 0.01 and end within 0.05. No tolerance
differs from the other regime cells.
"""
import json
import time

import numpy as np
import pytest

from rdspill import cli
from rdspill import estimators as est_mod
from rdspill.asymptotics import corollary_bounds_check
from rdspill.estimators import EstimatorConfig, local_linear_rdd, local_spillover_regression
from rdspill.experiments import (
    ExperimentPlan,
    RegimeRule,
    benchmark_model,
    run_donut_study,
    run_ll_vs_nw,
    run_phase_transition,
    run_spillover_consistency,
    tau_star_for_model,
)
from rdspill.funcspace import (
    ModelSpec,
    constant,
    eval_func,
    polynomial,
    sinusoid_sum,
)
from rdspill.population import mu_at, nu_exact, solve_population, true_estimands
from rdspill.quadrature import window_integrals
from rdspill.sampling import Sample

GRID_N = 2001  # fine enough for every radius used below (r >= 45 spacings)


def report_line(tag: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def cell_of(report, regime: str, quantity: str = "tau_hat", n: int | None = None,
            estimator: str | None = None) -> dict:
    for cell in report.cells:
        if cell["regime"] != regime or cell["quantity"] != quantity:
            continue
        if n is not None and cell["n"] != n:
            continue
        if estimator is not None and cell["estimator"] != estimator:
            continue
        return cell
    raise AssertionError(f"no cell for regime={regime} quantity={quantity} n={n}")


def within(cell: dict) -> tuple[bool, float, float]:
    tol = max(3.0 * cell["se"], 0.05)
    return abs(cell["bias"]) <= tol, abs(cell["bias"]), tol


# ---------------------------------------------------------------- check 1 --


def _solver_zoo():
    return [
        ("benchmark", benchmark_model(), 0.1),
        ("sinusoid", ModelSpec(
            m_plus=sinusoid_sum([0.5, 0.3, 2.0]),
            m_minus=sinusoid_sum([-0.2, 0.2, 3.0]),
            delta=polynomial([0.35, 0.15]),
            gamma=sinusoid_sum([0.0, 0.4, 1.5]),
            noise_sd=constant(0.0)), 0.2),
        ("negative-delta", ModelSpec(
            m_plus=polynomial([0.5, -0.1]), m_minus=polynomial([-0.3, 0.4]),
            delta=constant(-0.6), gamma=constant(0.3),
            noise_sd=constant(0.0)), 0.15),
        ("one-sided-gamma", ModelSpec(
            m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
            delta=polynomial([0.3, -0.2]), gamma=constant(0.5),
            noise_sd=constant(0.0), gamma_one_sided=True), 0.08),
        ("no-endogenous", ModelSpec(
            m_plus=polynomial([0.7, 0.1, 0.2]), m_minus=polynomial([0.0, 0.3]),
            delta=constant(0.0), gamma=sinusoid_sum([0.2, 0.3, 4.0]),
            noise_sd=constant(0.0)), 0.3),
    ]


def test_check_01_solver_vs_dense_oracle(dense_population):
    worst_gap, worst_time = 0.0, 0.0
    for label, model, r in _solver_zoo():
        start = time.perf_counter()
        sol = solve_population(model, r, 4001)
        elapsed = time.perf_counter() - start
        gap = float(np.max(np.abs(sol.y - dense_population(model, r, 4001))))
        worst_gap = max(worst_gap, gap)
        worst_time = max(worst_time, elapsed)
        assert gap <= 1e-8, (label, gap)
        assert elapsed <= 10.0, (label, elapsed)
    ok = worst_gap <= 1e-8 and worst_time <= 10.0
    report_line("1", ok, f"5 models on the 4001 grid: worst sup gap to the "
                         f"dense oracle {worst_gap:.2e} (<= 1e-8), slowest "
                         f"solve {worst_time:.2f}s (<= 10s)")
    assert ok


# ---------------------------------------------------------------- check 2 --


def test_check_02_contraction():
    model = benchmark_model()
    sol = solve_population(model, 0.1, 1001)
    grid = sol.grid
    lo = np.maximum(grid - sol.r, -1.0)
    hi = np.minimum(grid + sol.r, 1.0)
    m_vals = np.where(grid >= 0.0, eval_func(model.m_plus, grid),
                      eval_func(model.m_minus, grid))
    rhs = m_vals + np.asarray(model.gamma_at(grid)) * nu_exact(sol.r, grid)
    dvals = np.asarray(eval_func(model.delta, grid))

    def apply_map(vec):
        avg = window_integrals(vec, grid, lo, hi, sol.i0,
                               sol.jump_left, sol.jump_right) / (hi - lo)
        return rhs + dvals * avg

    # solved outcome is a fixed point of this very map
    assert np.max(np.abs(apply_map(sol.y) - sol.y)) <= 1e-8

    rng = np.random.default_rng(402)
    worst = -np.inf
    for _ in range(100):
        f = sol.y + rng.normal(size=grid.shape)
        g = sol.y + rng.normal(size=grid.shape)
        lhs = np.max(np.abs(apply_map(f) - apply_map(g)))
        bound = model.delta_bar * np.max(np.abs(f - g)) + 1e-12
        worst = max(worst, lhs - bound)
        assert lhs <= bound
    ok = worst <= 0.0
    report_line("2", ok, f"100 random pairs: max(|Gf-Gg| - 0.4|f-g|) = "
                         f"{worst:.2e} (<= 0 after the 1e-12 slack)")
    assert ok


# ---------------------------------------------------------------- check 3 --


def test_check_03_lipschitz_and_oddness(lipschitz_constant):
    grid = np.linspace(-1.0, 1.0, 4001)
    dz = grid[1] - grid[0]
    r = 0.15
    lo = np.maximum(grid - r, -1.0)
    hi = np.minimum(grid + r, 1.0)

    g_spec = sinusoid_sum([0.0, 0.8, 3.0])
    d_spec = polynomial([0.3, 0.15])
    gvals = eval_func(g_spec, grid)
    dvals = eval_func(d_spec, grid)
    mapped = dvals * window_integrals(gvals, grid, lo, hi, None, 0.0, 0.0) / (hi - lo)
    interior = np.abs(grid[:-1]) < 1.0 - r - 2 * dz
    slope = float(np.max(np.abs(np.diff(mapped) / dz)[interior]))
    big_m = float(np.max(np.abs(gvals)))
    bound = (lipschitz_constant(d_spec) * big_m
             + float(np.max(np.abs(dvals))) * lipschitz_constant(g_spec))
    lip_ok = slope <= bound + 0.02

    odd_vals = eval_func(sinusoid_sum([0.0, 0.7, 3.0]), grid)
    odd_mapped = 0.35 * window_integrals(odd_vals, grid, lo, hi, None, 0.0, 0.0) \
        / (hi - lo)
    odd_dev = float(np.max(np.abs(odd_mapped + odd_mapped[::-1])))
    odd_ok = odd_dev <= 1e-9

    ok = lip_ok and odd_ok
    report_line("3", ok, f"smoothing-map slope {slope:.3f} <= bound {bound:.3f} "
                         f"+ grid slack; odd input stays odd to {odd_dev:.1e} "
                         f"(<= 1e-9)")
    assert lip_ok, (slope, bound)
    assert odd_ok, odd_dev


# ---------------------------------------------------------------- check 4 --


def test_check_04_cutoff_average_limit():
    model = benchmark_model()
    limit = (model.m_plus(0.0) + model.m_minus(0.0) + model.gamma_at(0.0)) \
        / (2.0 * (1.0 - model.delta(0.0)))
    devs = []
    for r in (0.1, 0.05, 0.01, 0.005):
        sol = solve_population(model, r, 4001)
        devs.append(abs(mu_at(sol, 0.0) - limit))
    monotone = bool(np.all(np.diff(devs) < 0.0))
    final_ok = devs[-1] <= 5e-2
    ok = monotone and final_ok
    report_line("4", ok, "cutoff window average vs (Y+ + Y-)/2 limit: "
                         "deviations " + ", ".join(f"{d:.2e}" for d in devs)
                         + f" strictly decreasing, last <= 5e-2")
    assert ok, devs


# ---------------------------------------------------------------- check 5 --


def test_check_05_total_effect_small_radius():
    model = benchmark_model()
    tau_d = model.m_plus(0.0) - model.m_minus(0.0)
    limit = (tau_d + model.gamma_at(0.0)) / (1.0 - model.delta(0.0))
    got = true_estimands(model, 0.005, grid_n=4001)["tau_tot"]
    gap = abs(got - limit)
    ok = gap <= 1e-2
    report_line("5", ok, f"tau_tot(r=0.005) = {got:.6f} vs limit {limit} "
                         f"(gap {gap:.1e} <= 1e-2)")
    assert ok, gap


# ---------------------------------------------------------------- check 6 --


PHASE_PLAN = ExperimentPlan(
    model=benchmark_model(noise_sd=0.05),
    regime_map=(RegimeRule("r>>h", "tau_d", 8.0, 0.0),
                RegimeRule("r<<h", "tau_tot", 1.0, -0.1),
                RegimeRule("r~h", "tau_star", 0.5, 0.0)),
    n_grid=(100_000,),
    replications=200,
    seed=1061,
    grid_n=GRID_N,
)


@pytest.fixture(scope="module")
def phase_run():
    start = time.perf_counter()
    report = run_phase_transition(PHASE_PLAN)
    elapsed = time.perf_counter() - start
    assert not report.failures, report.failures
    return report, elapsed


def test_check_06a_wide_radius_recovers_direct_effect(phase_run):
    report, elapsed = phase_run
    cell = cell_of(report, "r>>h")
    ok, gap, tol = within(cell)
    ok = ok and elapsed <= 1800.0
    report_line("6a", ok, f"r=8h mean {cell['mean']:.6f} vs tau_d "
                          f"{cell['target_value']:.1f} (|gap| {gap:.2e} <= "
                          f"{tol:.3f}); study took {elapsed:.0f}s (<= 1800s)")
    assert ok, cell


def test_check_06b_narrow_radius_vs_total_effect(phase_run):
    # at fixed c = 2r/h the estimand is tau_star(c); tau_tot is its c -> 0
    # limit, which n alone approaches too slowly to test (module docstring)
    report, _ = phase_run
    cell = cell_of(report, "r<<h")
    c_n = 2.0 * cell["r"] / cell["h"]
    star = tau_star_for_model(PHASE_PLAN.model, c_n, PHASE_PLAN.kernel)
    ok_mean, gap, tol = within({**cell, "bias": cell["mean"] - star})
    ladder = [(c_n, abs(star - cell["target_value"]))] + [
        (c, abs(tau_star_for_model(PHASE_PLAN.model, c, PHASE_PLAN.kernel)
                - cell["target_value"])) for c in (0.1, 0.01)]
    gaps = [g for _, g in ladder]
    ok_limit = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 0.05
    ok = ok_mean and ok_limit
    steps = ", ".join(f"c={c:.3g}: {g:.4f}" for c, g in ladder)
    report_line("6b", ok, f"r=h*n^(-1/10) mean {cell['mean']:.6f} vs "
                          f"tau_star(c={c_n:.4f}) {star:.6f} (|gap| {gap:.2e} "
                          f"<= {tol:.3f}); |tau_star(c) - tau_tot "
                          f"{cell['target_value']:.4f}| as c -> 0 ({steps}) "
                          f"strictly decreasing, last <= 0.05")
    assert ok_mean, (cell["mean"], star, tol)
    assert ok_limit, ladder


def test_check_06c_comparable_radius_hits_intermediate_value(phase_run):
    report, _ = phase_run
    cell = cell_of(report, "r~h")
    ok, gap, tol = within(cell)
    report_line("6c", ok, f"r=h/2 mean {cell['mean']:.6f} vs tau_star "
                          f"{cell['target_value']:.6f} (|gap| {gap:.2e} <= "
                          f"{tol:.3f})")
    assert ok, cell


# ---------------------------------------------------------------- check 7 --


@pytest.fixture(scope="module")
def consistency_run():
    # noise 0.05: the total-effect ratio (tau_d + gamma)/(1 - delta) amplifies
    # attenuation in delta from the estimated regressor roughly fourfold, and
    # its replication mean is heavy-tailed at higher noise
    plan = ExperimentPlan(
        model=benchmark_model(noise_sd=0.05),
        regime_map=(RegimeRule("r=h/2", "tau_tot", 0.5, 0.0),),
        n_grid=(10_000, 40_000, 160_000),
        replications=100,
        seed=1071,
        grid_n=GRID_N,
    )
    report = run_spillover_consistency(plan)
    assert not report.failures, report.failures
    return report


def test_check_07_spillover_regression_consistency(consistency_run):
    report = consistency_run
    biggest = 160_000
    tau_cells = sorted((c for c in report.cells if c["quantity"] == "tau_d"),
                       key=lambda c: c["n"])
    trend_ok = report.summary["trend"]["tau_d"]
    tau_cell = cell_of(report, "r=h/2", "tau_d", biggest)
    delta_cell = cell_of(report, "r=h/2", "delta", biggest)
    tot_cell = cell_of(report, "r=h/2", "tau_tot", biggest)
    tau_ok = abs(tau_cell["bias"]) <= 0.05
    delta_ok = abs(delta_cell["bias"]) <= 0.1
    tot_ok = abs(tot_cell["bias"]) <= 0.1
    ok = trend_ok and tau_ok and delta_ok and tot_ok
    biases = ", ".join(f"n={c['n']}: {abs(c['bias']):.4f}" for c in tau_cells)
    report_line("7", ok, f"|bias(tau_d)| along the ladder ({biases}) "
                         f"nonincreasing within 1 SE; at n=160000 tau_d bias "
                         f"{abs(tau_cell['bias']):.4f} <= 0.05, delta bias "
                         f"{abs(delta_cell['bias']):.4f} <= 0.1, tau_tot bias "
                         f"{abs(tot_cell['bias']):.4f} <= 0.1")
    assert trend_ok, tau_cells
    assert tau_ok and delta_ok and tot_ok


# ---------------------------------------------------------------- check 8 --


def test_check_08_donut_estimands():
    model = ModelSpec(
        m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.0), gamma=constant(0.5), noise_sd=constant(0.1))
    plan = ExperimentPlan(
        model=model,
        regime_map=(RegimeRule("r=h/2", "tau_tot", 0.5, 0.0),),
        n_grid=(40_000,),
        replications=100,
        seed=1081,
        grid_n=GRID_N,
    )
    report = run_donut_study(plan)
    assert not report.failures, report.failures
    two = cell_of(report, "two_sided:r=h/2")
    one = cell_of(report, "one_sided:r=h/2")
    two_ok, two_gap, two_tol = within(two)
    one_ok, one_gap, one_tol = within(one)
    ok = two_ok and one_ok
    report_line("8", ok, f"donut with hole = radius: two-sided spillover mean "
                         f"{two['mean']:.4f} vs total {two['target_value']:.4f} "
                         f"(|gap| {two_gap:.4f} <= {two_tol:.3f}); one-sided "
                         f"mean {one['mean']:.4f} vs direct "
                         f"{one['target_value']:.1f} (|gap| {one_gap:.4f} <= "
                         f"{one_tol:.3f})")
    assert ok, (two, one)


# ---------------------------------------------------------------- check 9 --


def test_check_09_local_linear_vs_local_constant():
    model = ModelSpec(
        m_plus=polynomial([1.0, 0.3]), m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.0), gamma=constant(0.5), noise_sd=constant(0.1))
    plan = ExperimentPlan(
        model=model,
        regime_map=(RegimeRule("r=h", "tau_d", 1.0, 0.0),),
        n_grid=(40_000,),
        replications=100,
        seed=1091,
        grid_n=GRID_N,
    )
    report = run_ll_vs_nw(plan)
    assert not report.failures, report.failures
    ll = cell_of(report, "r=h", estimator="local_linear")
    ll_ok, ll_gap, ll_tol = within(ll)
    sep = report.summary["nw_separation"]["40000"]["nw_se_distance_from_tau_d"]
    sep_ok = sep > 5.0
    ok = ll_ok and sep_ok
    report_line("9", ok, f"local linear mean {ll['mean']:.4f} vs tau_d 1.0 "
                         f"(|gap| {ll_gap:.2e} <= {ll_tol:.3f}); local "
                         f"constant sits {sep:.0f} SEs from tau_d (> 5)")
    assert ok, (ll, sep)


# --------------------------------------------------------------- check 10 --


def _sign_conforming_models():
    # three models per sign case; each entry: (model, c, expected verdict)
    def spec(mp, mm, d, g):
        return ModelSpec(m_plus=polynomial(mp), m_minus=polynomial(mm),
                         delta=constant(d), gamma=constant(g),
                         noise_sd=constant(0.0))

    # negative delta(0) needs |gamma(0)| < |delta(0)| * |tau_d|, otherwise the
    # total effect (tau_d + gamma0)/(1 - delta0) overshoots tau_d and no
    # ordering of the claimed shape can hold
    return [
        (spec([1.0, 0.3], [0.0, 0.2], 0.4, 0.5), 1.0, "ordered-case-1"),
        (spec([0.8, 0.1], [0.0, 0.15], 0.25, 0.3), 0.8, "ordered-case-1"),
        (spec([0.6, 0.2], [0.0, 0.1], -0.3, 0.15), 1.2, "ordered-case-1"),
        (spec([-1.0, -0.3], [0.0, -0.2], 0.4, -0.5), 1.0, "ordered-case-2"),
        (spec([-0.8, 0.1], [0.0, 0.15], 0.25, -0.3), 0.8, "ordered-case-2"),
        (spec([-0.6, -0.2], [0.0, -0.1], -0.3, -0.15), 1.2, "ordered-case-2"),
    ]


def test_check_10_sign_ordering_of_estimands():
    verdicts = []
    for model, c, expected in _sign_conforming_models():
        tau_d = model.m_plus(0.0) - model.m_minus(0.0)
        star = tau_star_for_model(model, c, "triangular")
        tot = true_estimands(model, 0.01, grid_n=GRID_N)["tau_tot"]
        verdict = corollary_bounds_check(tau_d, star, tot,
                                         float(model.delta(0.0)),
                                         float(model.gamma_at(0.0)))
        verdicts.append((expected, verdict, (tau_d, star, tot)))
    ok = all(expected == got for expected, got, _ in verdicts)
    case1 = sum(1 for e, g, _ in verdicts if g == "ordered-case-1")
    case2 = sum(1 for e, g, _ in verdicts if g == "ordered-case-2")
    report_line("10", ok, f"sign-conforming triples ordered as claimed on "
                          f"{case1} positive-case and {case2} negative-case "
                          f"models (>= 3 each)")
    assert ok, verdicts
    assert case1 >= 3 and case2 >= 3


# --------------------------------------------------------------- check 11 --


def _pipeline_once(cfg_path: str, root, capsys) -> dict:
    root.mkdir(exist_ok=True)
    blobs = {}
    assert cli.main(["simulate", "--config", cfg_path,
                     "--out", str(root / "sim.csv")]) == 0
    capsys.readouterr()
    assert cli.main(["estimate", "--config", cfg_path,
                     "--data", str(root / "sim.csv"),
                     "--out", str(root / "est.json"),
                     "--estimator", "all"]) == 0
    capsys.readouterr()
    assert cli.main(["crossval", "--config", cfg_path,
                     "--data", str(root / "sim.csv"),
                     "--out", str(root / "cv.json")]) == 0
    blobs["crossval-stdout"] = capsys.readouterr().out
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(root / "exp")]) == 0
    capsys.readouterr()
    for rel in ("sim.csv", "sim.estimands.json", "est.json", "cv.json",
                "exp/phase_transition_report.json",
                "exp/phase_transition_report.csv"):
        blobs[rel] = (root / rel).read_bytes()
    return blobs


def test_check_11_cli_pipelines_are_byte_identical(tmp_path, capsys):
    model_doc = benchmark_model().to_config()
    doc = {
        "model": model_doc,
        "estimator": {"kernel": "triangular", "h": 0.2, "r": 0.1},
        "simulate": {"n": 1500, "seed": 7, "r": 0.1, "grid_n": GRID_N},
        "crossval": {"candidates": [0.06, 0.12], "folds": 2, "seed": 3},
        "experiment": {
            "study": "phase_transition",
            "plan": {
                "model": model_doc,
                "regime_map": [{"label": "r>>h", "target": "tau_d",
                                "factor": 8.0, "n_power": 0.0}],
                "n_grid": [900],
                "replications": 2,
                "seed": 21,
                "grid_n": 1601,
            },
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    # identical invocations: the second pass overwrites the first, so any
    # byte that depends on more than config + seed shows up as a mismatch
    first = _pipeline_once(str(cfg_path), tmp_path / "artifacts", capsys)
    second = _pipeline_once(str(cfg_path), tmp_path / "artifacts", capsys)
    mismatched = [key for key in first if first[key] != second[key]]
    ok = not mismatched
    report_line("11", ok, "simulate, estimate, crossval, and experiment "
                          "reruns byte-identical across "
                          f"{len(first)} artifacts"
                + ("" if ok else f"; mismatched: {mismatched}"))
    assert ok, mismatched


# --------------------------------------------------------------- check 12 --


def test_check_12_nesting_identity(monkeypatch):
    monkeypatch.setattr(
        est_mod._NeighborPool, "mu",
        lambda pool, targets, r, exclude=None, bounds=None: np.full(np.shape(targets), 0.5))
    monkeypatch.setattr(est_mod, "nu_exact", lambda r, z: 0.5)
    cfg = EstimatorConfig(kernel="triangular", h=0.3, r=0.05)
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1200 + seed)
        z = rng.uniform(-1.0, 1.0, 600)
        y = np.where(z >= 0.0, 2.0 + 0.5 * z, 1.0 - 0.3 * z) \
            + rng.normal(0.0, 0.2, 600)
        sample = Sample(z=z, y=y)
        sp = local_spillover_regression(sample, cfg)
        ll = local_linear_rdd(sample, cfg)
        assert sp.beta_plus[:2] == ll.beta_plus
        assert sp.beta_minus[:2] == ll.beta_minus
        assert sp.beta_plus[2:] == (0.0,) * 4 and sp.beta_minus[2:] == (0.0,) * 4
        assert sp.tau_d_hat == ll.tau_hat
        checked += 1
    ok = checked == 20
    report_line("12", ok, "spillover fit with zeroed spillover columns equals "
                          "the local linear fit bit for bit on 20 samples")
    assert ok
