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
    nadaraya_watson_rdd,
    to_record,
)
from rdspill.funcspace import ModelSpec, constant, polynomial
from rdspill.kernels import kernel_values
from rdspill.population import nu_exact, solve_population
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
    return solve_population(quiet_model, r=0.05, grid_n=2001)


@pytest.fixture(scope="module")
def quiet_sample(quiet_solution):
    return draw_sample(quiet_solution, 20000, seed=11)


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

    @pytest.mark.parametrize("strict", [False, True], ids=["closed", "open"])
    @pytest.mark.parametrize("name", list(_ordering_cases()))
    def test_strictly_increasing_sample_serves_slices_bitwise(self, name, strict):
        # each case in canonical order with every repeated Z kept once: Z
        # strictly increases, so each window is a slice of the sample with
        # the bits of the sorting path (run on a reversed copy); edge-ties
        # keeps one row on each window edge
        sample, half_width = _ordering_cases()[name]
        z, y = _lexsort_order(sample, 1.0)
        first = np.concatenate([[True], z[1:] != z[:-1]])
        distinct = Sample(z=z[first], y=y[first])
        reversed_copy = Sample(z=distinct.z[::-1].copy(), y=distinct.y[::-1].copy())
        got = est_mod._canonical_order(distinct, half_width, strict=strict)
        want = est_mod._canonical_order(reversed_copy, half_width, strict=strict)
        reference = _lexsort_order(distinct, half_width, strict=strict)
        for a, b, c, whole in zip(got, want, reference, (distinct.z, distinct.y)):
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist()
            assert a.view(np.int64).tolist() == c.view(np.int64).tolist()
            assert a.size and np.shares_memory(a, whole)
        if name == "edge-ties":
            assert {-half_width, half_width} <= set(distinct.z.tolist())
            assert (half_width in got[0].tolist()) != strict
            assert (-half_width in got[0].tolist()) != strict

    @pytest.mark.parametrize("name", ["repeated-z", "signed-zeros", "all-equal-z",
                                      "edge-ties", "zero-pair"])
    def test_sorted_sample_with_equal_z_takes_the_sort(self, name):
        # sorted by Z, but equal neighbours (-0.0 == 0.0 among them): only
        # the lexsort puts the tied rows in Y order
        cases = dict(_ordering_cases(), **{"zero-pair": (
            Sample(z=np.array([-0.5, -0.0, 0.0, 0.5]), y=np.array([0.0, 2.0, 1.0, 3.0])), 0.5)})
        sample, half_width = cases[name]
        by_z = np.argsort(sample.z, kind="stable")
        sorted_by_z = Sample(z=sample.z[by_z], y=sample.y[by_z])
        for strict in (False, True):
            got = est_mod._canonical_order(sorted_by_z, half_width, strict=strict)
            want = _lexsort_order(sorted_by_z, half_width, strict=strict)
            for a, b, whole in zip(got, want, (sorted_by_z.z, sorted_by_z.y)):
                assert a.view(np.int64).tolist() == b.view(np.int64).tolist()
                assert not np.shares_memory(a, whole)
            if name == "zero-pair":  # the input order is not the canonical one
                assert got[1].tolist() == ([1.0, 2.0] if strict else [0.0, 1.0, 2.0, 3.0])


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
        # three distinct treated Z pass the support check, but two of them
        # sit one ulp apart, so lstsq finds rank 1
        zp = np.array([0.3, 0.3, np.nextafter(0.3, 1.0)])
        z = np.concatenate([[-0.4, -0.3, -0.2], zp])
        w = np.full_like(z, 0.25)
        with pytest.raises(NumericError, match="rank 1 < 2") as exc:
            est_mod._fit_sides(z, 1.0 + z, w)
        Xw = np.column_stack([np.ones_like(zp), zp]) * 0.5
        s = np.linalg.lstsq(Xw, (1.0 + zp) * 0.5, rcond=None)[3]
        assert f"condition number {s[0] / s[-1]:.3e}" in str(exc.value)

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


def mu_hat(sample: Sample, r: float, z: float) -> float:
    """_NeighborPool.mu at z over the sample's strict window |Z| < |z| + r,
    with the first row at Z == z, if any, excluded as z's own row."""
    pool = est_mod._NeighborPool(*est_mod._canonical_order(sample, abs(z) + r, strict=True))
    hit = np.searchsorted(pool.z, z)
    own = np.array([hit]) if hit < pool.z.size and pool.z[hit] == z else None
    return float(pool.mu(np.array([z]), r, own)[0])


def brute_force_mu_hat(z: np.ndarray, y: np.ndarray, r: float, t: float) -> float:
    """The neighbor mean at t from its definition, one row at a time: the
    strict window |Z_j - t| < r less the first row at Z == t, each side's
    mean (0 for an empty side), weighted by w_plus = clip((t + r)/(2r), 0, 1)."""
    own = next((j for j, zj in enumerate(z) if zj == t), None)
    sides = {True: [], False: []}
    for j, (zj, yj) in enumerate(zip(z, y)):
        if j != own and abs(zj - t) < r:
            sides[zj >= 0.0].append(yj)
    t_mean, u_mean = (sum(v) / len(v) if v else 0.0 for v in (sides[True], sides[False]))
    w_plus = min(max((t + r) / (2.0 * r), 0.0), 1.0)
    return w_plus * t_mean + (1.0 - w_plus) * u_mean


class TestMuHat:
    def test_hand_computed_two_sided(self):
        z = np.array([-0.4, -0.1, 0.2, 0.3])
        y = np.array([4.0, 2.0, 6.0, 10.0])
        got = mu_hat(Sample(z=z, y=y), r=0.35, z=0.0)
        assert got == pytest.approx(5.0, abs=1e-14)

    def test_window_is_strict_and_self_is_excluded(self):
        z = np.array([-0.5, 0.0, 0.5])
        y = np.array([1.0, 2.0, 3.0])
        assert mu_hat(Sample(z=z, y=y), r=0.5, z=0.0) == 0.0

    def test_self_exclusion_removes_one_match(self):
        z = np.array([0.1, 0.1])
        y = np.array([1.0, 9.0])
        assert mu_hat(Sample(z=z, y=y), r=0.05, z=0.1) == pytest.approx(9.0)

    def test_own_outlier_does_not_contaminate(self):
        z = np.array([-0.01, 0.0, 0.01])
        y = np.array([2.0, 1e6, 4.0])
        assert mu_hat(Sample(z=z, y=y), r=0.05, z=0.0) == pytest.approx(3.0, abs=1e-10)

    def test_empty_side_contributes_zero(self):
        z = np.array([-0.04, -0.03, -0.02])
        y = np.array([3.0, 5.0, 7.0])
        got = mu_hat(Sample(z=z, y=y), r=0.05, z=-0.02)
        w_plus = (-0.02 + 0.05) / 0.1
        assert got == pytest.approx((1 - w_plus) * 4.0, abs=1e-12)

    def test_deep_interior_weight_is_one_sided(self):
        z = np.array([0.3, 0.31, 0.32])
        y = np.array([1.0, 100.0, 3.0])
        assert mu_hat(Sample(z=z, y=y), r=0.05, z=0.31) == pytest.approx(2.0, abs=1e-12)

    # the radius reaches the neighbor mean through EstimatorConfig (the
    # spillover fit) or a cross-validation candidate, each checked
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(kernel="triangular", h=0.2, r=0.0)
        with pytest.raises(ConfigError):
            cross_validate_r(linear_sample(20), EstimatorConfig(kernel="triangular", h=0.2),
                             [0.0], folds=2, seed=1)

    def test_rejects_nan_radius(self):
        with pytest.raises(ConfigError, match="positive"):
            EstimatorConfig(kernel="triangular", h=0.2, r=float("nan"))
        with pytest.raises(ConfigError, match="outside"):
            cross_validate_r(linear_sample(20), EstimatorConfig(kernel="triangular", h=0.2),
                             [float("nan")], folds=2, seed=1)

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
        near = np.abs(z - 0.01) < 0.25
        if np.any(near & (z >= 0.0)) and np.any(near & (z < 0.0)):
            assert y.min() - 1e-12 <= got <= y.max() + 1e-12
        assert got == pytest.approx(brute_force_mu_hat(z, y, 0.25, 0.01), rel=1e-12, abs=1e-12)

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
        # the condition number comes from the solve's own singular values,
        # so each side costs one SVD and no np.linalg.cond
        lstsq_calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            lstsq_calls.append(1)
            return lstsq(*args, **kwargs)

        def no_cond(*args, **kwargs):
            raise AssertionError("took a second SVD for the condition number")

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        monkeypatch.setattr(np.linalg, "cond", no_cond)
        est = local_spillover_regression(quiet_sample, EstimatorConfig(kernel="triangular", h=0.2, r=0.05))
        assert est.beta_plus[2:] != (0.0,) * 4  # the full six-regressor fit ran
        assert len(lstsq_calls) == 2

    def test_condition_numbers_are_those_of_the_fitted_designs(self, quiet_sample,
                                                               monkeypatch):
        # each side reports s[0]/s[-1] of the very solve lstsq ran, bit for
        # bit, on the full fit and on the nested fallback
        lstsq = np.linalg.lstsq
        designs, solves = [], []

        def recording_lstsq(a, b, rcond=None):
            designs.append(a.copy())
            solves.append(lstsq(a, b, rcond=rcond))
            return solves[-1]

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        cfg = EstimatorConfig(kernel="triangular", h=0.2, r=0.05)
        est = local_spillover_regression(quiet_sample, cfg)
        nested_sample = linear_sample(n=500, seed=61, noise=0.25)
        monkeypatch.setattr(
            est_mod._NeighborPool, "mu",
            lambda pool, targets, r, exclude=None, bounds=None: np.full(np.shape(targets), 0.5))
        monkeypatch.setattr(est_mod, "nu_exact", lambda r, z: 0.5)
        nested = local_spillover_regression(nested_sample,
                                            EstimatorConfig(kernel="triangular", h=0.3, r=0.05))
        assert [d.shape[1] for d in designs] == [6, 6, 2, 2]
        for fit, sides in ((est, (0, 1)), (nested, (2, 3))):
            cond = {}
            for side, i in zip(("plus", "minus"), sides):
                s = solves[i][3]
                cond[side] = float(s[0] / s[-1])
                assert cond[side] == pytest.approx(float(np.linalg.cond(designs[i])),
                                                   rel=1e-12, abs=0.0)
            assert fit.condition_numbers == cond

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
        mu_delta, _ = est_mod._mu_delta(z, pool, cfg.r, exclude, (None, None))
        nu_delta = est_mod._nu_delta(z, cfg.r)
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
            est_mod._NeighborPool, "mu",
            lambda pool, targets, r, exclude=None, bounds=None: np.full(np.shape(targets), 0.5))
        monkeypatch.setattr(est_mod, "nu_exact", lambda r, z: 0.5)
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
            est_mod._NeighborPool, "mu",
            lambda pool, targets, r, exclude=None, bounds=None: 2.0 * np.asarray(targets, dtype=float))
        with pytest.raises(IllPosedError) as exc:
            local_spillover_regression(sample, cfg)
        assert exc.value.condition_number > 1e10

    def test_ill_conditioned_before_rank_test(self, monkeypatch):
        # equal, non-zero mu and nu contrasts make the six-regressor design
        # rank deficient: the conditioning guard must name it, not the rank test
        sample = linear_sample(n=500, seed=63, noise=0.1)
        cfg = EstimatorConfig(kernel="triangular", h=0.3, r=0.05)
        monkeypatch.setattr(
            est_mod._NeighborPool, "mu",
            lambda pool, targets, r, exclude=None, bounds=None: np.asarray(targets, dtype=float) ** 2)
        monkeypatch.setattr(est_mod, "nu_exact",
                            lambda r, z: np.asarray(z, dtype=float) ** 2)
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

    def test_folds_are_checked_against_the_window(self):
        # the folds partition |Z| < h + max(candidates): three rows there and
        # 100 far ones give the message of the three rows alone
        rng = substream(79, 0)
        near = Sample(z=np.array([-0.05, 0.01, 0.04]), y=np.array([1.0, 2.0, 3.0]))
        full = Sample(z=np.concatenate([near.z, rng.uniform(0.5, 1.0, 100)]),
                      y=np.concatenate([near.y, rng.standard_normal(100)]))
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        for sample in (full, near):
            with pytest.raises(CrossValidationError,
                               match="5 folds exceed the 3 observations"):
                cross_validate_r(sample, cfg, [0.05], folds=5, seed=1)

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
        # Folds partition the canonical order of the window |Z| < h +
        # max(candidates); each fold's error is the kernel-weighted squared
        # error of a spillover fit on the window's training rows, predicting
        # held-out rows from brute-force neighbor means over those rows.
        sample = Sample(z=quiet_sample.z[:3000], y=quiet_sample.y[:3000])
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        folds, seed, candidates = 3, 12, [0.03, 0.05]
        out = cross_validate_r(sample, cfg, candidates, folds=folds, seed=seed)
        window = np.abs(sample.z) < cfg.h + max(candidates)
        order = np.lexsort((sample.y[window], sample.z[window]))
        z, y = sample.z[window][order], sample.y[window][order]
        fold_id = substream(seed, 101).permutation(z.size) % folds
        for row in out["cv_table"]:
            r = row["r"]
            nu0 = nu_exact(r, 0.0)
            mse = {"plus": 0.0, "minus": 0.0}
            for k in range(folds):
                train = Sample(z=z[fold_id != k], y=y[fold_id != k])
                est = local_spillover_regression(
                    train, EstimatorConfig(kernel=cfg.kernel, h=cfg.h, r=r))
                for zt, yt in zip(z[fold_id == k], y[fold_id == k]):
                    w = float(kernel_values(cfg.kernel, zt / cfg.h))
                    if w == 0.0:
                        continue
                    md = brute_force_mu_hat(train.z, train.y, r, zt) - est.mu_hat_at_0
                    nd = nu_exact(r, zt) - nu0
                    side = "plus" if zt >= 0.0 else "minus"
                    beta = est.beta_plus if side == "plus" else est.beta_minus
                    pred = np.dot(beta, [1.0, zt, md, zt * md, nd, zt * nd])
                    mse[side] += w * (yt - pred) ** 2
            assert row["feasible"]
            assert row["mse_plus"] == pytest.approx(mse["plus"], rel=1e-9)
            assert row["mse_minus"] == pytest.approx(mse["minus"], rel=1e-9)

    def test_far_points_have_zero_influence_bitwise(self, quiet_sample):
        # rows outside |Z| < h + max(candidates) enter no fold and no fit
        sample = Sample(z=quiet_sample.z[:4000], y=quiet_sample.y[:4000])
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        poisoned = Sample(z=np.concatenate([sample.z, [-0.9, 0.9, 0.9]]),
                          y=np.concatenate([sample.y, [1e9, 1e9, 1e9]]))
        base = cross_validate_r(sample, cfg, [0.03, 0.05], folds=3, seed=12)
        assert cross_validate_r(poisoned, cfg, [0.03, 0.05], folds=3, seed=12) == base

    def test_prefers_true_radius(self, quiet_solution):
        cfg = EstimatorConfig(kernel="triangular", h=0.2)
        candidates = [0.02, 0.05, 0.15]
        hits = 0
        reps = 10
        for i in range(reps):
            sample = draw_sample(quiet_solution, 4000, seed=500 + i)
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
