import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdspill.estimators as est_mod
from rdspill.errors import (
    CollinearityError,
    ConfigError,
    CrossValidationError,
    IllPosedError,
    InsufficientSupportError,
    NumericError,
)
from rdspill.estimators import (
    EstimatorConfig,
    RddEstimate,
    SpilloverEstimate,
    _share_weight_plus,
    cross_validate_r,
    donut_rdd,
    local_linear_rdd,
    local_spillover_regression,
    mu_hat,
    nadaraya_watson_rdd,
    to_record,
)
from rdspill.funcspace import ModelSpec, constant, polynomial
from rdspill.kernels import kernel_values
from rdspill.population import CUTOFF, nu_exact, solve_population
from rdspill.sampling import Sample, draw_sample, substream


def linear_sample(n=400, seed=3, noise=0.0):
    rng = substream(seed, 77)
    z = rng.uniform(-1.0, 1.0, n)
    y = np.where(z >= 0.0, 2.0 + 0.5 * z, 1.0 - 0.3 * z)
    if noise:
        y = y + noise * rng.standard_normal(n)
    return Sample(z=z, y=y)


@pytest.fixture(scope="module")
def quiet_model():
    return ModelSpec(
        m_plus=polynomial([1.0, 0.3]),
        m_minus=polynomial([0.0, 0.2]),
        delta=constant(0.4),
        gamma=constant(0.5),
        noise_sd=constant(0.02),
    )


@pytest.fixture(scope="module")
def quiet_solution(quiet_model):
    return solve_population(quiet_model, r=0.05, regime=CUTOFF, grid_n=2001)


@pytest.fixture(scope="module")
def quiet_sample(quiet_solution, quiet_model):
    return draw_sample(quiet_solution, quiet_model, 20000, seed=11)


# ----------------------------------------------------------------- config --


class TestEstimatorConfig:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(kernel="box", h=0.2)

    @pytest.mark.parametrize("h", [0.0, -0.1, 1.5])
    def test_rejects_bad_bandwidth(self, h):
        with pytest.raises(ConfigError):
            EstimatorConfig(kernel="triangular", h=h)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(kernel="triangular", h=0.2, r=0.0)

    def test_rejects_nan_r(self):
        with pytest.raises(ConfigError, match="positive"):
            EstimatorConfig(kernel="triangular", h=0.2, r=float("nan"))

    def test_rejects_donut_at_bandwidth(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(kernel="triangular", h=0.2, h_donut=0.2)

    def test_config_roundtrip(self):
        cfg = EstimatorConfig(kernel="epanechnikov", h=0.25, r=0.05, h_donut=0.01)
        assert EstimatorConfig.from_config(cfg.to_config()) == cfg

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            EstimatorConfig.from_config({"kernel": "uniform", "h": 0.5, "bw": 1})

    def test_from_config_requires_kernel_and_h(self):
        with pytest.raises(ConfigError, match="missing"):
            EstimatorConfig.from_config({"kernel": "uniform"})


# -------------------------------------------------------- canonical order --


def _lexsort_order(sample, half_width, strict=False):
    """The canonical order by its definition: one lexsort of the window."""
    dist = np.abs(sample.z)
    keep = dist < half_width if strict else dist <= half_width
    z, y = sample.z[keep], sample.y[keep]
    order = np.lexsort((y, z))
    return z[order], y[order]


def _ordering_cases():
    rng = substream(5, 31)
    cases = {}
    for i in range(3):
        z = rng.uniform(-1.0, 1.0, 2000)
        cases[f"random-{i}"] = (Sample(z=z, y=rng.standard_normal(2000)), 0.3)
    # repeated z: equal (z, y) rows and equal z with different y
    z = np.round(rng.uniform(-1.0, 1.0, 3000), 2)
    cases["repeated-z"] = (Sample(z=z, y=np.round(rng.standard_normal(3000), 0)), 0.5)
    # the signed zeros compare equal, so only y may order them
    cases["signed-zeros"] = (Sample(z=np.array([0.0, -0.0, 0.3, -0.0, 0.0, -0.2]),
                                    y=np.array([2.0, 1.0, 0.5, 3.0, -1.0, 0.0])), 0.5)
    z = np.full(500, 0.25)
    cases["all-equal-z"] = (Sample(z=z, y=rng.standard_normal(500)), 0.5)
    # ties on both window edges, with different y
    z = np.concatenate([rng.uniform(-0.2, 0.2, 200), np.full(20, 0.2),
                        np.full(20, -0.2), rng.uniform(0.2, 1.0, 50)])
    perm = rng.permutation(z.size)
    cases["edge-ties"] = (Sample(z=z[perm], y=rng.standard_normal(z.size)), 0.2)
    return cases


class TestCanonicalOrder:
    @pytest.mark.parametrize("strict", [False, True], ids=["closed", "open"])
    @pytest.mark.parametrize("name", list(_ordering_cases()))
    def test_matches_lexsort_bitwise(self, name, strict):
        sample, half_width = _ordering_cases()[name]
        got = est_mod._canonical_order(sample, half_width, strict=strict)
        want = _lexsort_order(sample, half_width, strict=strict)
        for a, b in zip(got, want):
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


# ----------------------------------------------------------- local linear --


class TestLocalLinear:
    @pytest.mark.parametrize("fit", [local_linear_rdd, donut_rdd])
    def test_takes_no_condition_number(self, fit, monkeypatch):
        # the fit discards it, so it must not pay for the second SVD
        calls = []
        cond = np.linalg.cond

        def counting_cond(*args, **kwargs):
            calls.append(1)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        fit(linear_sample(noise=0.3),
            EstimatorConfig(kernel="triangular", h=0.5, h_donut=0.05))
        assert calls == []

    def test_rank_deficient_design_names_its_condition_number(self):
        z = np.linspace(0.1, 0.5, 9)
        X = np.column_stack([np.ones_like(z), np.ones_like(z)])
        w = np.full_like(z, 0.25)
        with pytest.raises(NumericError, match="rank 1 < 2") as exc:
            est_mod._wls(X, 1.0 + z, w, "plus")
        assert f"condition number {np.linalg.cond(X * 0.5):.3e}" in str(exc.value)

    def test_exact_on_piecewise_linear_data(self):
        cfg = EstimatorConfig(kernel="triangular", h=0.8)
        est = local_linear_rdd(linear_sample(), cfg)
        assert est.beta_plus == pytest.approx((2.0, 0.5), abs=1e-10)
        assert est.beta_minus == pytest.approx((1.0, -0.3), abs=1e-10)
        assert est.tau_hat == pytest.approx(1.0, abs=1e-10)

    def test_tau_is_intercept_difference(self):
        est = local_linear_rdd(linear_sample(noise=0.3),
                               EstimatorConfig(kernel="uniform", h=0.5))
        assert est.tau_hat == est.beta_plus[0] - est.beta_minus[0]

    def test_side_counts_and_support(self):
        sample = linear_sample(n=200, seed=9)
        cfg = EstimatorConfig(kernel="triangular", h=0.4)
        est = local_linear_rdd(sample, cfg)
        inside = np.abs(sample.z / cfg.h) < 1.0
        n_plus = int(np.sum(inside & (sample.z >= 0)))
        n_minus = int(np.sum(inside & (sample.z < 0)))
        assert (est.n_plus, est.n_minus) == (n_plus, n_minus)
        assert est.min_side_support == min(n_plus, n_minus)

    def test_normal_equations_residual(self):
        sample = linear_sample(n=600, seed=21, noise=0.5)
        cfg = EstimatorConfig(kernel="epanechnikov", h=0.6)
        est = local_linear_rdd(sample, cfg)
        w = kernel_values(cfg.kernel, sample.z / cfg.h)
        for side, beta in (("plus", est.beta_plus), ("minus", est.beta_minus)):
            mask = (w > 0) & ((sample.z >= 0) if side == "plus" else (sample.z < 0))
            X = np.column_stack([np.ones(mask.sum()), sample.z[mask]])
            resid = X.T @ (w[mask] * (sample.y[mask] - X @ np.asarray(beta)))
            scale = max(float(np.linalg.norm(X.T @ (w[mask] * sample.y[mask]))), 1.0)
            assert np.linalg.norm(resid) / scale <= 1e-10

    def test_far_points_have_zero_influence_bitwise(self):
        base = linear_sample(n=200, seed=5, noise=0.2)
        cfg = EstimatorConfig(kernel="triangular", h=0.3)
        poisoned = Sample(
            z=np.concatenate([base.z, [0.32, -0.32, 0.95, -0.95]]),
            y=np.concatenate([base.y, [1e9, -1e9, 1e8, 1e7]]),
        )
        a = local_linear_rdd(base, cfg)
        b = local_linear_rdd(poisoned, cfg)
        assert a == b

    def test_permutation_invariance_bitwise(self):
        sample = linear_sample(n=300, seed=13, noise=0.4)
        rng = substream(99, 0)
        perm = rng.permutation(sample.n)
        shuffled = Sample(z=sample.z[perm], y=sample.y[perm])
        cfg = EstimatorConfig(kernel="epanechnikov", h=0.5)
        assert local_linear_rdd(sample, cfg) == local_linear_rdd(shuffled, cfg)

    def test_constant_shift_moves_both_intercepts(self):
        sample = linear_sample(n=300, seed=17, noise=0.4)
        shifted = Sample(z=sample.z, y=sample.y + 7.5)
        cfg = EstimatorConfig(kernel="triangular", h=0.5)
        a = local_linear_rdd(sample, cfg)
        b = local_linear_rdd(shifted, cfg)
        assert b.beta_plus[0] - a.beta_plus[0] == pytest.approx(7.5, abs=1e-9)
        assert b.beta_minus[0] - a.beta_minus[0] == pytest.approx(7.5, abs=1e-9)
        assert b.tau_hat == pytest.approx(a.tau_hat, abs=1e-9)

    def test_insufficient_side_named(self):
        z = np.array([-0.5, -0.4, -0.3, -0.2, 0.1, 0.2])
        y = np.zeros(6)
        with pytest.raises(InsufficientSupportError) as exc:
            local_linear_rdd(Sample(z=z, y=y), EstimatorConfig(kernel="uniform", h=1.0))
        assert exc.value.side == "plus"

    def test_identical_z_is_insufficient(self):
        # -0.0 and 0.0 are one value, as np.unique counts them
        for plus in ([0.1, 0.1, 0.1], [0.0, -0.0, 0.0]):
            z = np.array(plus + [-0.1, -0.2, -0.3])
            with pytest.raises(InsufficientSupportError) as exc:
                local_linear_rdd(Sample(z=z, y=np.arange(6.0)),
                                 EstimatorConfig(kernel="uniform", h=1.0))
            assert exc.value.side == "plus"

    def test_fit_leaves_numpy_ma_unimported(self):
        # the first np.unique in a process imports numpy.ma, 16-29 ms of a CLI run
        code = ("import sys, numpy as np\n"
                "from rdspill.estimators import EstimatorConfig, local_linear_rdd\n"
                "from rdspill.sampling import Sample\n"
                "z = np.linspace(-0.9, 0.9, 40)\n"
                "local_linear_rdd(Sample(z=z, y=z + (z >= 0)),\n"
                "                 EstimatorConfig(kernel='triangular', h=0.5))\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_kernel_support_can_starve_a_side(self):
        z = np.array([-0.01, -0.02, -0.03, 0.5, 0.6, 0.7])
        with pytest.raises(InsufficientSupportError) as exc:
            local_linear_rdd(Sample(z=z, y=np.ones(6)),
                             EstimatorConfig(kernel="triangular", h=0.1))
        assert exc.value.side == "plus"


# -------------------------------------------------------- nadaraya-watson --


class TestNadarayaWatson:
    def test_hand_computed_value(self):
        z = np.array([-0.05, -0.15, 0.05, 0.15])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        got = nadaraya_watson_rdd(Sample(z=z, y=y),
                                  EstimatorConfig(kernel="triangular", h=0.2))
        assert isinstance(got, float)
        assert got == pytest.approx(3.25 - 1.25, abs=1e-14)

    def test_single_point_per_side(self):
        z = np.array([-0.02, 0.03])
        y = np.array([1.5, 4.5])
        got = nadaraya_watson_rdd(Sample(z=z, y=y),
                                  EstimatorConfig(kernel="uniform", h=0.1))
        assert got == pytest.approx(3.0, abs=1e-14)

    def test_constant_outcome_gives_zero(self):
        sample = Sample(z=np.linspace(-0.5, 0.5, 41), y=np.full(41, 2.25))
        got = nadaraya_watson_rdd(sample, EstimatorConfig(kernel="epanechnikov", h=0.6))
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_empty_side_raises(self):
        sample = Sample(z=np.array([-0.3, -0.2, -0.1]), y=np.zeros(3))
        with pytest.raises(InsufficientSupportError) as exc:
            nadaraya_watson_rdd(sample, EstimatorConfig(kernel="triangular", h=0.5))
        assert exc.value.side == "plus"

    def test_far_points_have_zero_influence_bitwise(self):
        base = linear_sample(n=150, seed=31, noise=0.1)
        cfg = EstimatorConfig(kernel="epanechnikov", h=0.25)
        poisoned = Sample(z=np.concatenate([base.z, [0.26, -0.9]]),
                          y=np.concatenate([base.y, [1e12, -1e12]]))
        assert nadaraya_watson_rdd(base, cfg) == nadaraya_watson_rdd(poisoned, cfg)


# ------------------------------------------------------------------ donut --


class TestDonut:
    def test_zero_donut_matches_local_linear_bitwise(self):
        sample = linear_sample(n=250, seed=41, noise=0.3)
        cfg = EstimatorConfig(kernel="triangular", h=0.4, h_donut=0.0)
        assert donut_rdd(sample, cfg) == local_linear_rdd(sample, cfg)

    def test_excludes_inner_observations(self):
        base = linear_sample(n=300, seed=43)
        poisoned = Sample(z=np.concatenate([base.z, [0.005, -0.007]]),
                          y=np.concatenate([base.y, [1e6, -1e6]]))
        cfg = EstimatorConfig(kernel="triangular", h=0.5, h_donut=0.02)
        est = donut_rdd(poisoned, cfg)
        assert est.beta_plus == pytest.approx((2.0, 0.5), abs=1e-9)
        assert est.beta_minus == pytest.approx((1.0, -0.3), abs=1e-9)

    def test_boundary_point_is_kept(self):
        z = np.array([0.02, 0.03, 0.04, -0.02, -0.03, -0.04])
        y = np.where(z >= 0, 1.0 + z, z)
        cfg = EstimatorConfig(kernel="uniform", h=0.5, h_donut=0.02)
        est = donut_rdd(Sample(z=z, y=y), cfg)
        assert est.n_plus == 3
        assert est.tau_hat == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------- neighbor mean --


class TestMuHat:
    def test_hand_computed_two_sided(self):
        z = np.array([-0.4, -0.1, 0.2, 0.3])
        y = np.array([4.0, 2.0, 6.0, 10.0])
        got = mu_hat(Sample(z=z, y=y), r=0.35, z=0.0)
        assert got["value"] == pytest.approx(5.0, abs=1e-14)
        assert got["n_plus_neighbors"] == 2
        assert got["n_minus_neighbors"] == 1

    def test_window_is_strict_and_self_is_excluded(self):
        z = np.array([-0.5, 0.0, 0.5])
        y = np.array([1.0, 2.0, 3.0])
        got = mu_hat(Sample(z=z, y=y), r=0.5, z=0.0)
        assert got == {"value": 0.0, "n_plus_neighbors": 0, "n_minus_neighbors": 0}

    def test_self_exclusion_removes_one_match(self):
        z = np.array([0.1, 0.1])
        y = np.array([1.0, 9.0])
        got = mu_hat(Sample(z=z, y=y), r=0.05, z=0.1)
        assert got["value"] == pytest.approx(9.0)
        assert got["n_plus_neighbors"] == 1

    def test_own_outlier_does_not_contaminate(self):
        z = np.array([-0.01, 0.0, 0.01])
        y = np.array([2.0, 1e6, 4.0])
        got = mu_hat(Sample(z=z, y=y), r=0.05, z=0.0)
        assert got["value"] == pytest.approx(3.0, abs=1e-10)

    def test_empty_side_contributes_zero(self):
        z = np.array([-0.04, -0.03, -0.02])
        y = np.array([3.0, 5.0, 7.0])
        got = mu_hat(Sample(z=z, y=y), r=0.05, z=-0.02)
        w_plus = (-0.02 + 0.05) / 0.1
        assert got["n_plus_neighbors"] == 0
        assert got["value"] == pytest.approx((1 - w_plus) * 4.0, abs=1e-12)

    def test_deep_interior_weight_is_one_sided(self):
        z = np.array([0.3, 0.31, 0.32])
        y = np.array([1.0, 100.0, 3.0])
        got = mu_hat(Sample(z=z, y=y), r=0.05, z=0.31)
        assert got["value"] == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigError):
            mu_hat(linear_sample(20), r=0.0, z=0.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ConfigError, match="positive"):
            mu_hat(linear_sample(20), r=float("nan"), z=0.0)

    @given(st.floats(-1.0, 1.0), st.floats(0.01, 1.0))
    def test_share_weights_complement(self, z, r):
        wp = float(_share_weight_plus(z, r))
        wm = float(_share_weight_plus(-z, r))
        assert 0.0 <= wp <= 1.0
        assert wp + wm == pytest.approx(1.0, abs=1e-12)

    def test_share_weight_anchors(self):
        assert float(_share_weight_plus(0.0, 0.2)) == 0.5
        assert float(_share_weight_plus(0.2, 0.2)) == 1.0
        assert float(_share_weight_plus(-0.2, 0.2)) == 0.0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**31 - 1))
    def test_value_bounded_when_both_sides_present(self, seed):
        rng = substream(seed, 5)
        z = rng.uniform(-0.2, 0.2, 30)
        y = rng.normal(0.0, 3.0, 30)
        got = mu_hat(Sample(z=z, y=y), r=0.25, z=0.01)
        if got["n_plus_neighbors"] and got["n_minus_neighbors"]:
            assert y.min() - 1e-12 <= got["value"] <= y.max() + 1e-12

    def test_points_outside_the_window_have_zero_influence_bitwise(self):
        z = np.array([-0.03, -0.01, 0.02, 0.04])
        y = np.array([0.1, 0.3, 0.7, 1.1])
        base = mu_hat(Sample(z=z, y=y), r=0.05, z=0.01)
        poisoned = mu_hat(Sample(z=np.concatenate([z, [-0.9, 0.07, 0.9]]),
                                 y=np.concatenate([y, [1e9, 1e9, 1e9]])),
                          r=0.05, z=0.01)
        assert base == poisoned


# --------------------------------------------------- spillover regression --


class TestSpilloverRegression:
    def test_requires_radius(self):
        with pytest.raises(ConfigError, match="r"):
            local_spillover_regression(linear_sample(),
                                       EstimatorConfig(kernel="triangular", h=0.2))

    def test_wide_radius_is_collinear(self):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.2)
        with pytest.raises(CollinearityError):
            local_spillover_regression(linear_sample(), cfg)

    def test_rejects_unknown_pooling(self):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        with pytest.raises(ConfigError, match="pooling"):
            local_spillover_regression(linear_sample(), cfg, pooling="median")

    def test_recovers_benchmark_effects(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        est = local_spillover_regression(quiet_sample, cfg)
        assert est.tau_d_hat == pytest.approx(1.0, abs=0.05)
        assert est.delta_hat == pytest.approx(0.4, abs=0.1)
        assert est.gamma_hat == pytest.approx(0.5, abs=0.1)
        assert est.tau_tot_hat == pytest.approx(2.5, abs=0.35)
        assert est.mu_hat_at_0 == pytest.approx(1.25, abs=0.05)
        assert est.condition_numbers["plus"] < 1e10
        assert est.condition_numbers["minus"] < 1e10

    def test_pooling_modes_are_consistent(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        avg = local_spillover_regression(quiet_sample, cfg, pooling="average")
        plus = local_spillover_regression(quiet_sample, cfg, pooling="plus")
        minus = local_spillover_regression(quiet_sample, cfg, pooling="minus")
        assert avg.delta_hat == (plus.delta_hat + minus.delta_hat) / 2.0
        assert avg.gamma_hat == (plus.gamma_hat + minus.gamma_hat) / 2.0
        assert plus.beta_plus == avg.beta_plus
        assert minus.beta_minus == avg.beta_minus
        assert plus.tau_d_hat == avg.tau_d_hat

    def test_one_condition_number_per_side(self, quiet_sample, monkeypatch):
        cond_calls = []
        cond = np.linalg.cond

        def counting_cond(*args, **kwargs):
            cond_calls.append(1)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        est = local_spillover_regression(quiet_sample, EstimatorConfig(kernel="triangular", h=0.2, r=0.05))
        assert est.beta_plus[2:] != (0.0,) * 4  # the full six-regressor fit ran
        assert len(cond_calls) == 2

    def test_condition_numbers_are_those_of_the_fitted_designs(self, quiet_sample,
                                                               monkeypatch):
        # each side reports the condition number of the very matrix lstsq
        # solves, bit for bit, on the full fit and on the nested fallback
        lstsq = np.linalg.lstsq
        designs = []

        def recording_lstsq(a, b, rcond=None):
            designs.append(a.copy())
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        est = local_spillover_regression(quiet_sample, cfg)
        nested_sample = linear_sample(n=500, seed=61, noise=0.25)
        monkeypatch.setattr(
            est_mod, "_mu_values",
            lambda pool, targets, r, exclude=None: np.full(np.shape(targets), 0.5))
        monkeypatch.setattr(est_mod, "nu_exact", lambda regime, r, z: 0.5)
        nested = local_spillover_regression(nested_sample,
                                            EstimatorConfig(kernel="triangular", h=0.3, r=0.05))
        assert [d.shape[1] for d in designs] == [6, 6, 2, 2]
        for fit, (plus, minus) in ((est, designs[:2]), (nested, designs[2:])):
            assert fit.condition_numbers == {"plus": float(np.linalg.cond(plus)),
                                             "minus": float(np.linalg.cond(minus))}

    def test_non_finite_design_is_ill_posed_before_any_svd(self, quiet_sample,
                                                           monkeypatch):
        # r = 1e-300 does not move Z in floating point: the treated share is
        # 0/0, and the SVD of a NaN design need not converge
        def no_cond(*args, **kwargs):
            raise AssertionError("took the condition number of a non-finite design")

        monkeypatch.setattr(np.linalg, "cond", no_cond)
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=1e-300)
        with np.errstate(invalid="ignore"), pytest.raises(IllPosedError, match="inf or NaN") as exc:
            local_spillover_regression(quiet_sample, cfg)
        assert exc.value.condition_number == math.inf

    def test_normal_equations_residual(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        est = local_spillover_regression(quiet_sample, cfg)
        # the fit's regressors: a pool over the canonical window |Z| < h + r,
        # each row evaluated with its own row excluded
        z, y = est_mod._canonical_order(quiet_sample, cfg.h + cfg.r, strict=True)
        pool = est_mod._NeighborPool(z, y)
        exclude = np.arange(z.size)
        mu_delta, nu_delta, _ = est_mod._spillover_regressors(z, pool, cfg.r, exclude)
        w = kernel_values(cfg.kernel, z / cfg.h)
        for side, beta in (("plus", est.beta_plus), ("minus", est.beta_minus)):
            mask = (w > 0) & ((z >= 0) if side == "plus" else (z < 0))
            X = est_mod._spillover_design(z[mask], mu_delta[mask], nu_delta[mask])
            resid = X.T @ (w[mask] * (y[mask] - X @ np.asarray(beta)))
            scale = max(float(np.linalg.norm(X.T @ (w[mask] * y[mask]))), 1.0)
            assert np.linalg.norm(resid) / scale <= 1e-10

    def test_permutation_invariance_bitwise(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        rng = substream(7, 2)
        perm = rng.permutation(quiet_sample.n)
        shuffled = Sample(z=quiet_sample.z[perm], y=quiet_sample.y[perm])
        assert (local_spillover_regression(quiet_sample, cfg)
                == local_spillover_regression(shuffled, cfg))

    def test_far_right_points_have_zero_influence_bitwise(self):
        rng = substream(51, 0)
        z = rng.uniform(-0.6, 0.6, 400)
        y = np.where(z >= 0, 1.5 + 0.2 * z, 0.1 * z) + 0.05 * rng.standard_normal(400)
        base = Sample(z=z, y=y)
        poisoned = Sample(z=np.concatenate([z, [0.8, 0.9]]),
                          y=np.concatenate([y, [1e9, 1e9]]))
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        assert (local_spillover_regression(base, cfg)
                == local_spillover_regression(poisoned, cfg))

    def test_far_left_points_have_zero_influence_bitwise(self):
        # points below -(h + r) sit ahead of every neighbor window in
        # canonical order, so they must not enter the window sums either
        rng = substream(51, 0)
        z = rng.uniform(-0.6, 0.6, 400)
        y = np.where(z >= 0, 1.5 + 0.2 * z, 0.1 * z) + 0.05 * rng.standard_normal(400)
        base = Sample(z=z, y=y)
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        for far_z in ([-0.9, -0.8], [-0.9, -0.8, 0.8, 0.9], [-0.25, 0.25]):
            poisoned = Sample(z=np.concatenate([z, far_z]),
                              y=np.concatenate([y, np.full(len(far_z), 1e9)]))
            assert (local_spillover_regression(base, cfg)
                    == local_spillover_regression(poisoned, cfg)), far_z

    def test_constant_shift_equivariance(self, quiet_sample):
        # Intercepts shift by the constant almost exactly. The spillover
        # coefficients sit in poorly conditioned directions (identified by
        # the kink), so the cumsum rounding of the shifted pool can move
        # them by ~1e-4; the bounds reflect that.
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        shifted = Sample(z=quiet_sample.z, y=quiet_sample.y + 4.0)
        a = local_spillover_regression(quiet_sample, cfg)
        b = local_spillover_regression(shifted, cfg)
        assert b.tau_d_hat == pytest.approx(a.tau_d_hat, abs=1e-4)
        assert b.delta_hat == pytest.approx(a.delta_hat, abs=2e-3)
        assert b.gamma_hat == pytest.approx(a.gamma_hat, abs=2e-3)
        assert b.beta_plus[0] - a.beta_plus[0] == pytest.approx(4.0, abs=1e-9)
        assert b.mu_hat_at_0 - a.mu_hat_at_0 == pytest.approx(4.0, abs=1e-9)

    def test_nested_identity_when_columns_vanish(self, monkeypatch):
        sample = linear_sample(n=500, seed=61, noise=0.25)
        cfg = EstimatorConfig(kernel="triangular", h=0.3, r=0.05)
        monkeypatch.setattr(
            est_mod, "_mu_values",
            lambda pool, targets, r, exclude=None: np.full(np.shape(targets), 0.5))
        monkeypatch.setattr(est_mod, "nu_exact", lambda regime, r, z: 0.5)
        sp = local_spillover_regression(sample, cfg)
        ll = local_linear_rdd(sample, cfg)
        assert sp.beta_plus[:2] == ll.beta_plus
        assert sp.beta_minus[:2] == ll.beta_minus
        assert sp.beta_plus[2:] == (0.0,) * 4
        assert sp.tau_d_hat == ll.tau_hat

    def test_collinear_regressor_is_ill_posed(self, monkeypatch):
        sample = linear_sample(n=500, seed=63, noise=0.1)
        cfg = EstimatorConfig(kernel="triangular", h=0.3, r=0.05)
        monkeypatch.setattr(
            est_mod, "_mu_values",
            lambda pool, targets, r, exclude=None: 2.0 * np.asarray(targets, dtype=float))
        with pytest.raises(IllPosedError) as exc:
            local_spillover_regression(sample, cfg)
        assert exc.value.condition_number > 1e10

    def test_insufficient_side_named(self):
        z = np.array([0.01, 0.02, 0.03, 0.04, 0.05,
                      -0.01, -0.02, -0.03, -0.04, -0.05, -0.06, -0.07])
        y = np.arange(12.0)
        cfg = EstimatorConfig(kernel="uniform", h=0.5, r=0.1)
        with pytest.raises(InsufficientSupportError) as exc:
            local_spillover_regression(Sample(z=z, y=y), cfg)
        assert exc.value.side == "plus"

    def test_tau_tot_undefined_near_unit_delta(self, monkeypatch):
        sample = linear_sample(n=200, seed=65)
        cfg = EstimatorConfig(kernel="triangular", h=0.3, r=0.05)

        def fake_fits(z, y, w, mu_delta, nu_delta):
            beta = np.array([1.0, 0.0, 1.0, 0.0, 0.2, 0.0])
            return {"plus": (beta, 5.0, 100), "minus": (beta.copy(), 5.0, 100)}

        monkeypatch.setattr(est_mod, "_fit_sides", fake_fits)
        est = local_spillover_regression(sample, cfg)
        assert est.delta_hat == 1.0
        assert est.tau_tot_hat is None


# --------------------------------------------------------- cross-validation --


class TestCrossValidation:
    def test_rejects_empty_candidates(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        with pytest.raises(ConfigError):
            cross_validate_r(quiet_sample, cfg, [], folds=2, seed=1)

    def test_rejects_single_fold(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        with pytest.raises(ConfigError):
            cross_validate_r(quiet_sample, cfg, [0.05], folds=1, seed=1)

    def test_rejects_candidate_outside_range(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        with pytest.raises(ConfigError):
            cross_validate_r(quiet_sample, cfg, [0.25], folds=2, seed=1)

    def test_more_folds_than_rows(self):
        sample = linear_sample(n=6, seed=71)
        cfg = EstimatorConfig(kernel="triangular", h=0.5)
        with pytest.raises(CrossValidationError):
            cross_validate_r(sample, cfg, [0.1], folds=7, seed=1)

    def test_all_infeasible_raises(self):
        sample = linear_sample(n=10, seed=73)
        cfg = EstimatorConfig(kernel="uniform", h=0.5)
        with pytest.raises(CrossValidationError):
            cross_validate_r(sample, cfg, [0.01], folds=2, seed=1)

    def test_table_marks_infeasible_candidates(self, quiet_sample):
        small = Sample(z=quiet_sample.z[:2000], y=quiet_sample.y[:2000])
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        out = cross_validate_r(small, cfg, [0.05, 0.1], folds=2, seed=4)
        assert {row["r"] for row in out["cv_table"]} == {0.05, 0.1}
        for row in out["cv_table"]:
            if row["feasible"]:
                assert row["mse_plus"] > 0.0 and row["mse_minus"] > 0.0
            else:
                assert row["mse_plus"] is None
        assert out["r_plus"] in {0.05, 0.1}
        assert out["r_minus"] in {0.05, 0.1}

    def test_rerun_is_deterministic(self, quiet_sample):
        small = Sample(z=quiet_sample.z[:3000], y=quiet_sample.y[:3000])
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        a = cross_validate_r(small, cfg, [0.03, 0.05], folds=3, seed=12)
        b = cross_validate_r(small, cfg, [0.03, 0.05], folds=3, seed=12)
        assert a == b

    def test_matches_fold_by_fold_reference(self, quiet_sample):
        # Folds partition the canonical order of the whole sample; each
        # fold's error is the kernel-weighted squared error of a spillover
        # fit on the training rows, predicting held-out rows from neighbor
        # means over the training rows, here one public call at a time.
        sample = Sample(z=quiet_sample.z[:3000], y=quiet_sample.y[:3000])
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        folds, seed = 3, 12
        out = cross_validate_r(sample, cfg, [0.03, 0.05], folds=folds, seed=seed)
        order = np.lexsort((sample.y, sample.z))
        z, y = sample.z[order], sample.y[order]
        fold_id = substream(seed, 101).permutation(z.size) % folds
        for row in out["cv_table"]:
            r = row["r"]
            nu0 = nu_exact(CUTOFF, r, 0.0)
            mse = {"plus": 0.0, "minus": 0.0}
            for k in range(folds):
                train = Sample(z=z[fold_id != k], y=y[fold_id != k])
                est = local_spillover_regression(
                    train, EstimatorConfig(kernel=cfg.kernel, h=cfg.h, r=r))
                for zt, yt in zip(z[fold_id == k], y[fold_id == k]):
                    w = float(kernel_values(cfg.kernel, zt / cfg.h))
                    if w == 0.0:
                        continue
                    md = mu_hat(train, r, zt)["value"] - est.mu_hat_at_0
                    nd = nu_exact(CUTOFF, r, zt) - nu0
                    side = "plus" if zt >= 0.0 else "minus"
                    beta = est.beta_plus if side == "plus" else est.beta_minus
                    pred = np.dot(beta, [1.0, zt, md, zt * md, nd, zt * nd])
                    mse[side] += w * (yt - pred) ** 2
            assert row["feasible"]
            assert row["mse_plus"] == pytest.approx(mse["plus"], rel=1e-9)
            assert row["mse_minus"] == pytest.approx(mse["minus"], rel=1e-9)

    def test_prefers_true_radius(self, quiet_solution, quiet_model):
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        candidates = [0.02, 0.05, 0.15]
        hits = 0
        reps = 10
        for i in range(reps):
            sample = draw_sample(quiet_solution, quiet_model, 4000, seed=500 + i)
            out = cross_validate_r(sample, cfg, candidates, folds=2, seed=i)
            hits += int(out["r_plus"] == 0.05) + int(out["r_minus"] == 0.05)
        assert hits >= int(0.6 * 2 * reps)


# ----------------------------------------------------------------- records --


class TestToRecord:
    def test_rdd_record(self):
        cfg = EstimatorConfig(kernel="triangular", h=0.4)
        est = local_linear_rdd(linear_sample(), cfg)
        rec = to_record("local_linear", cfg, est)
        assert rec["estimator"] == "local_linear"
        assert rec["config"] == cfg.to_config()
        assert rec["tau_d"] == est.tau_hat
        assert rec["tau_tot"] is None
        assert rec["diagnostics"]["min_side_support"] == est.min_side_support

    def test_nw_record(self):
        cfg = EstimatorConfig(kernel="triangular", h=0.4)
        value = nadaraya_watson_rdd(linear_sample(), cfg)
        rec = to_record("nadaraya_watson", cfg, value)
        assert rec["tau_d"] == value
        assert rec["coefficients"] is None

    def test_spillover_record(self, quiet_sample):
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        est = local_spillover_regression(quiet_sample, cfg)
        rec = to_record("spillover", cfg, est)
        assert rec["tau_tot"] == est.tau_tot_hat
        assert rec["diagnostics"]["delta_hat"] == est.delta_hat
        assert rec["diagnostics"]["tau_tot_defined"] is True
        assert len(rec["coefficients"]["beta_plus"]) == 6

    def test_unknown_type_rejected(self):
        cfg = EstimatorConfig(kernel="triangular", h=0.4)
        with pytest.raises(ConfigError):
            to_record("mystery", cfg, object())
