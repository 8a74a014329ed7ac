import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspill import asymptotics as asy
from rdspill.asymptotics import (
    TABLE_SPACING,
    TAIL_BUDGET,
    LambdaTable,
    build_lambda_table,
    corollary_bounds_check,
    lambda_table,
    mu_profile,
    nu_profile,
    tau_star,
)
from rdspill.errors import ConfigError, DomainError, NumericError
from rdspill.kernels import kernel_values, one_sided_moment
from rdspill.population import nu_exact
from rdspill.quadrature import SOLVER_TOL, window_integrals

BENCH = {"tau_d": 1.0, "delta0": 0.4, "gamma0": 0.5}

# Independent anchor for the benchmark model at c = 1 (triangular kernel):
# the population fixed point solved on a fine grid, run through weighted
# local linear fits on both sides with h = 0.1 and r = h/2. The value is
# bandwidth-independent for this model because its baselines are linear.
POP_ANCHOR_C1 = 1.160983


def lambda_point(tab, a):
    """lambda pointwise (right-continuous at 0, asymptotic beyond +-A): the
    table's interpolant, one-sided in the cell left of the unit jump."""
    arr = np.asarray(a, dtype=float)
    grid, vals, A, i0 = tab.a_grid, tab.values, tab.truncation_A, tab.i0
    out = np.interp(arr, grid, vals)
    out = np.where(arr <= -A, 0.0, out)
    out = np.where(arr >= A, tab.plateau, out)
    mask = (arr >= grid[i0 - 1]) & (arr < 0.0)
    if np.any(mask):
        t = (arr[mask] - grid[i0 - 1]) / (grid[1] - grid[0])
        out = np.array(out, copy=True)
        out[mask] = (1 - t) * vals[i0 - 1] + t * (vals[i0] - 1.0)
    return out if np.ndim(a) else float(out)


def _riemann_avg(tab, lo, hi, n=40000):
    """Midpoint-rule average of the table, split at the jump point."""
    total = 0.0
    for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if b <= a:
            continue
        mids = np.linspace(a, b, n + 1)[:-1] + (b - a) / (2 * n)
        total += (b - a) * float(np.mean(lambda_point(tab, mids)))
    return total / (hi - lo)


def _interval_average_scalar(tab, lo, hi):
    """Reference for LambdaTable.interval_average: one window, in floats."""
    A = tab.truncation_A
    total = max(0.0, hi - max(lo, A)) * tab.plateau
    lo_in, hi_in = max(lo, -A), min(hi, A)
    if lo_in < hi_in:
        total += float(window_integrals(tab.values, tab.a_grid, np.array([lo_in]),
                                        np.array([hi_in]), tab.i0, -1.0, 0.0)[0])
    return total / (hi - lo)


def _mu_profile_loop(x, c, tab, tau_d, gamma0):
    """Reference for mu_profile: the same two window averages, one x at a time."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for idx, xv in enumerate(np.atleast_1d(x)):
        a = 2 * float(xv) / c
        lam = _interval_average_scalar(tab, a - 1.0, a + 1.0) \
            - _interval_average_scalar(tab, -1.0, 1.0)
        nu = min(max(float(xv) / c, -0.5), 0.5)
        out.flat[idx] = tab.delta0 * tau_d * lam + gamma0 * (lam - nu)
    return out


def _mu_profile_pieces(x, c, tab, tau_d, gamma0):
    """Identity reference for mu_profile: the share min(1, |x|/c) times the
    averages of lambda and lambda_tilde over the neighborhood piece gained at
    z = xh minus those over the piece lost, one x at a time."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for idx, xv in enumerate(np.atleast_1d(x)):
        xv = float(xv)
        if xv == 0.0:
            continue
        ctr = 2 * xv / c
        if xv >= 0:
            (g_lo, g_hi), (l_lo, l_hi) = (max(1.0, ctr - 1.0), ctr + 1.0), (-1.0, min(1.0, ctr - 1.0))
        else:
            (g_lo, g_hi), (l_lo, l_hi) = (ctr - 1.0, min(-1.0, ctr + 1.0)), (max(-1.0, ctr + 1.0), 1.0)
        lam_g = _interval_average_scalar(tab, g_lo, g_hi)
        lam_l = _interval_average_scalar(tab, l_lo, l_hi)
        til_g = lam_g - (max(g_hi, 0.0) - max(g_lo, 0.0)) / (g_hi - g_lo)
        til_l = lam_l - (max(l_hi, 0.0) - max(l_lo, 0.0)) / (l_hi - l_lo)
        share = min(1.0, abs(xv) / c)
        out.flat[idx] = share * (tab.delta0 * tau_d * (lam_g - lam_l)
                                 + gamma0 * (til_g - til_l))
    return out


def _profile_moment(p, c, kernel, side, nodes=64):
    """int x^p V(x) K(x) dx over one side, by Gauss-Legendre on each piece
    between the kinks of the share profile V at |x| = c/2."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    pts = sorted({0.0, min(c / 2.0, 1.0), 1.0})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        xs = side * ((lo + hi) / 2.0 + (hi - lo) / 2.0 * x)
        total += (hi - lo) / 2.0 * np.sum(w * xs**p * nu_profile(xs, c)
                                          * kernel_values(kernel, xs))
    return float(total)


def _moment_combination(model, c, kernel):
    """Reference for tau_star: per side and per profile (mu, nu), the
    integrals I0 = int p*K and I1 = int x*p*K on tau_star's own pieces and
    nodes, combined into the plus intercept (g2*I0 - g1*I1)/den minus the
    minus intercept (g2*I0 + g1*I1)/den."""
    tau_d, gamma0 = model["tau_d"], model["gamma0"]
    table = lambda_table(model["delta0"])
    g0, g1, g2 = (one_sided_moment(kernel, p) for p in (0, 1, 2))
    nodes, weights = np.polynomial.legendre.leggauss(asy.GL_NODES)
    ints = {}
    for side in (1, -1):
        mu, nu = [0.0, 0.0], [0.0, 0.0]
        breaks = asy._side_breaks(c, side)
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            half = (hi - lo) / 2.0
            xs = (lo + hi) / 2.0 + half * nodes
            k = kernel_values(kernel, xs)
            for moments, prof in ((mu, mu_profile(xs, c, table, tau_d, gamma0)),
                                  (nu, nu_profile(xs, c))):
                moments[0] += half * float(np.sum(weights * prof * k))
                moments[1] += half * float(np.sum(weights * xs * prof * k))
        ints[side] = mu, nu

    def combo(which):
        (p0, p1), (m0, m1) = ints[1][which], ints[-1][which]
        return ((g2 * p0 - g1 * p1) - (g2 * m0 + g1 * m1)) / (g0 * g2 - g1 * g1)

    return tau_d + combo(0) + gamma0 * combo(1)


def _mixing_weight(tau_d, delta0, gamma0, c, kernel):
    """w in tau_star = tau_d + w * (tau_tot - tau_d)."""
    tau_tot = (tau_d + gamma0) / (1.0 - delta0)
    model = {"tau_d": tau_d, "delta0": delta0, "gamma0": gamma0}
    return (tau_star(model, c, kernel) - tau_d) / (tau_tot - tau_d)


@pytest.fixture(scope="module")
def tab04():
    return build_lambda_table(0.4, A=8.0, grid_n=1601)


@pytest.fixture(scope="module")
def tab0():
    return build_lambda_table(0.0, A=8.0, grid_n=1601)


@pytest.fixture(scope="module")
def tab04_sized():
    # the table tau_star builds itself at delta0 = 0.4: A = 11, spacing 0.005
    return lambda_table(0.4)


class TestBuildLambdaTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            build_lambda_table(1.0)
        with pytest.raises(DomainError):
            build_lambda_table(-1.3)
        with pytest.raises(ConfigError):
            build_lambda_table(0.4, A=7.9)
        with pytest.raises(ConfigError):
            build_lambda_table(0.4, grid_n=801)
        with pytest.raises(ConfigError):
            build_lambda_table(0.4, A=8.0, grid_n=1602)

    def test_residual_small(self, tab04):
        assert tab04.residual <= 1e-8

    @pytest.mark.parametrize("delta0", [-0.5, 0.4, 0.8])
    def test_matches_dense_oracle(self, dense_lambda_table, delta0):
        tab = build_lambda_table(delta0, A=8.0, grid_n=1601)
        gap = np.max(np.abs(tab.values - dense_lambda_table(delta0, 8.0, 1601)))
        # a residual below tol leaves an error below tol / (1 - |delta0|); the
        # factor 2 covers the oracle's own rounding
        assert gap <= 2 * SOLVER_TOL / (1 - abs(delta0))

    def test_jump_value_at_zero(self, tab04):
        # right limit at 0 is the midpoint of the two asymptotes plus half
        # the unit jump: (1/(1-d0) + 1)/2
        assert tab04.values[tab04.i0] == pytest.approx((1 / 0.6 + 1) / 2, abs=1e-6)

    def test_delta0_zero_is_indicator(self, tab0):
        ind = (tab0.a_grid >= 0).astype(float)
        assert np.max(np.abs(tab0.values - ind)) < 1e-12
        assert tab0.residual < 1e-12

    def test_sum_identity(self, tab04):
        # lambda(a) + lambda(-a) = 1/(1 - delta0) away from the jump point
        n = tab04.i0
        s = tab04.values[n + 1:] + tab04.values[:n][::-1]
        assert np.max(np.abs(s - 1 / 0.6)) < 1e-8

    def test_monotone_for_positive_delta0(self, tab04):
        assert np.all(np.diff(tab04.values) > -1e-10)

    def test_asymptotes(self, tab04):
        assert tab04.values[0] == pytest.approx(0.0, abs=1e-4)
        assert tab04.values[-1] == pytest.approx(1 / 0.6, abs=1e-4)

    def test_tail_bound_formula(self, tab04):
        # min over s in (0, s*) of e^{-sA} q/(1-q) (1 + d/(2(1-d))) with
        # q = d sinh(s)/s, on a dense uniform grid; s* = 2.55265 at d = 0.4
        s = np.linspace(1e-4, 2.5526, 200_001)
        q = 0.4 * np.sinh(s) / s
        assert q.max() < 1.0
        ref = np.min(np.exp(-8.0 * s) * q / (1.0 - q)) * (1.0 + 0.4 / 1.2)
        assert tab04.tail_bound == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("delta0, A", [(-0.5, 13), (0.0, 8), (0.4, 11), (0.8, 24),
                                           (0.9, 36), (0.99, 125), (0.998, 296)])
    def test_extent_is_least_whole_A_within_budget(self, delta0, A):
        def bound(extent):
            return LambdaTable(delta0, np.zeros(3), np.zeros(3), float(extent), 0.0).tail_bound

        budget = TAIL_BUDGET * max(1.0, 1.0 / (1.0 - delta0))
        assert bound(A) <= budget
        assert A == 8 or bound(A - 1) > budget
        if delta0 != 0.998:  # that table takes 1.4 s and 90 MB to build
            assert lambda_table(delta0).truncation_A == A

    def test_extent_beyond_cap_fails_fast(self):
        # delta0 = 0.999 needs A = 427, past the largest table (A = 384)
        start = time.perf_counter()
        with pytest.raises(NumericError, match=r"delta0=0\.999 needs A=427"):
            lambda_table(0.999)
        with pytest.raises(NumericError, match="needs A=427"):
            tau_star({"tau_d": 1.0, "delta0": 0.999, "gamma0": 0.3}, 1.0, "triangular")
        assert time.perf_counter() - start < 0.1

    def test_sharp_table_near_one_has_no_false_dip(self):
        # a -1.1e-8 step at a = A - 1 is inside the solve's own error bound
        # (residual ~6e-9 on a solution of size 100), so no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = build_lambda_table(0.99)
        assert tab.truncation_A == 125.0

    @pytest.mark.parametrize("delta0, dent", [(0.99, 1e-4), (0.4, 1e-7)])
    def test_dip_beyond_solver_error_warns(self, monkeypatch, delta0, dent):
        # the threshold is max(1e-8, 2*residual/(1 - delta0)): 1.3e-6 at 0.99,
        # the 1e-8 floor at 0.4
        solve = asy.two_grid_solve

        def dented(*args, **kwargs):
            lam, report = solve(*args, **kwargs)
            lam[len(lam) // 4] -= dent
            return lam, report

        monkeypatch.setattr(asy, "two_grid_solve", dented)
        with pytest.warns(RuntimeWarning, match="not monotone"):
            build_lambda_table(delta0)

    def test_negative_delta0_solves(self):
        tab = build_lambda_table(-0.5, A=8.0, grid_n=1601)
        assert tab.residual <= 1e-8
        assert tab.values[-1] == pytest.approx(1 / 1.5, abs=1e-4)

    def test_left_limit_at_zero(self, tab04):
        # the jump has size exactly 1, so the left limit sits 1 below
        left = lambda_point(tab04, -1e-12)
        assert left == pytest.approx(tab04.values[tab04.i0] - 1.0, abs=1e-9)


class TestIntervalAverage:
    def test_matches_fine_riemann(self, tab04):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lo = rng.uniform(-9.0, 2.0)
            hi = lo + rng.uniform(0.05, 4.0)
            ref = _riemann_avg(tab04, lo, hi)
            assert tab04.interval_average(lo, hi)[0] == pytest.approx(ref, abs=1e-5)

    @given(lo=st.floats(-20, 19), width=st.floats(0.01, 8))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_range(self, lo, width):
        tab = _SHARED["tab"]
        avg = tab.interval_average(lo, lo + width)[0]
        assert -1e-9 <= avg <= tab.plateau + 1e-9

    def test_rejects_empty(self, tab04):
        with pytest.raises(ConfigError):
            tab04.interval_average(1.0, 1.0)
        with pytest.raises(ConfigError):
            tab04.interval_average(np.array([-1.0, 1.0, 2.0]), np.array([0.5, 1.0, 3.0]))

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (1.0, np.nan),
                                        (np.nan, np.nan)])
    def test_rejects_nan_ends(self, tab04, lo, hi):
        with pytest.raises(ConfigError, match="lo < hi"):
            tab04.interval_average(lo, hi)
        with pytest.raises(ConfigError, match="lo < hi"):
            tab04.interval_average(np.array([-1.0, lo]), np.array([0.5, hi]))

    def test_arrays_match_scalar_calls(self, tab04):
        lo = np.array([-20.0, -9.0, -1.0, -0.3, 0.0, 7.5, 12.0])
        hi = np.array([-10.0, -7.0, 1.0, 0.0, 0.2, 9.0, 13.0])
        got = tab04.interval_average(lo, hi)
        ref = [_interval_average_scalar(tab04, a, b) for a, b in zip(lo, hi)]
        np.testing.assert_array_equal(got.view(np.int64), np.array(ref).view(np.int64))
        assert tab04.interval_average(-0.3, 0.0).shape == (1,)


# hypothesis can't take a fixture argument; share one small table instead
_SHARED = {}


def setup_module(module):
    _SHARED["tab"] = build_lambda_table(0.4, A=8.0, grid_n=1601)


class TestLambdaPm:
    """Window averages of lambda over the neighborhood pieces gained (plus)
    at bandwidth scale x, for c = 1: [max(1, 2x - 1), 1 + 2x]."""

    def test_delta0_zero_plus_is_one(self, tab0):
        for x in (0.25, 0.7, 1.0):
            assert tab0.interval_average(max(1.0, 2 * x - 1.0), 1.0 + 2 * x)[0] \
                == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self, tab04_sized):
        # the gained window slides right toward the plateau; for positive
        # delta0 its average must not decrease
        xs = np.linspace(0.0, 1.0, 21)[1:]
        vals = [tab04_sized.interval_average(max(1.0, 2 * x - 1.0), 1.0 + 2 * x)[0]
                for x in xs]
        assert np.all(np.diff(vals) > -1e-9)


class TestTauStar:
    def test_benchmark_anchor(self):
        ts = tau_star(BENCH, 1.0, "triangular")
        assert ts == pytest.approx(POP_ANCHOR_C1, abs=5e-4)

    def test_between_direct_and_total(self):
        ts = tau_star(BENCH, 1.0, "triangular")
        assert 1.0 < ts < 2.5

    def test_curve_monotone_decreasing_in_c(self):
        cs = [0.2, 0.4, 1.0, 1.5, 1.9]
        vals = [tau_star(BENCH, c, "triangular") for c in cs]
        assert np.all(np.diff(vals) < 0)
        assert vals[0] < 2.5 and vals[-1] > 1.0

    def test_delta0_zero_closed_form(self):
        # triangular kernel at c = 1: the share-profile intercept combination
        # equals 1/8 exactly, so tau_star = tau_d + gamma0/8
        ts = tau_star({"tau_d": 1.0, "delta0": 0.0, "gamma0": 0.5}, 1.0, "triangular")
        assert ts == pytest.approx(1.0625, abs=1e-10)
        # as a mixing weight: w = 2 * int_0^1 K_eq(x) min(x, 1/2) dx = 1/8
        assert _mixing_weight(1.0, 0.0, 0.5, 1.0, "triangular") == pytest.approx(
            0.125, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("kernel", ["triangular", "epanechnikov", "uniform"])
    @pytest.mark.parametrize("delta0", [-0.5, 0.0, 0.4, 0.9])
    def test_mixing_weight_does_not_depend_on_the_effects(self, kernel, delta0):
        # the estimand mixes the direct and the total effect with a weight set
        # by (delta0, c, kernel) alone: the drift is (delta0*tau_d + gamma0)
        # times one profile, and tau_tot - tau_d = (delta0*tau_d + gamma0)/(1 - delta0)
        pairs = ((1.0, 0.3), (0.5, 1.0), (-1.0, -0.2), (2.0, 0.1), (0.0, 0.5))
        for c in (0.1, 0.5, 1.0, 1.9):
            ws = [_mixing_weight(tau_d, delta0, gamma0, c, kernel)
                  for tau_d, gamma0 in pairs]
            assert max(ws) - min(ws) <= 1e-13

    def test_delta0_zero_wide_c_no_bias(self):
        # with c >= 2 the share profile is linear on the fit window and the
        # local linear functional annihilates it; approach c -> 2 from below
        ts = tau_star({"tau_d": 1.0, "delta0": 0.0, "gamma0": 0.5}, 1.999, "triangular")
        assert ts == pytest.approx(1.0, abs=1e-4)

    def test_no_spillover_returns_tau_d(self):
        ts = tau_star({"tau_d": 1.3, "delta0": 0.0, "gamma0": 0.0}, 0.7, "triangular")
        assert ts == pytest.approx(1.3, abs=1e-12)

    def test_zero_direct_zero_gamma_is_zero(self):
        ts = tau_star({"tau_d": 0.0, "delta0": 0.3, "gamma0": 0.0}, 1.0, "triangular")
        assert ts == pytest.approx(0.0, abs=1e-12)

    def test_delta0_zero_matches_gamma_moment_combo(self):
        # with no endogenous channel the estimand reduces to the share-profile
        # term alone, reconstructable from its one-sided kernel moments
        c, kern, gamma0 = 0.8, "epanechnikov", 0.7
        g01, g11, g21 = (one_sided_moment(kern, p) for p in (0, 1, 2))
        plus = [_profile_moment(p, c, kern, 1) for p in (0, 1)]
        minus = [_profile_moment(p, c, kern, -1) for p in (0, 1)]
        combo = (g21 * (plus[0] - minus[0]) - g11 * (plus[1] + minus[1])) \
            / (g01 * g21 - g11**2)
        ts = tau_star({"tau_d": 2.0, "delta0": 0.0, "gamma0": gamma0}, c, kern)
        assert ts == pytest.approx(2.0 + gamma0 * combo, abs=1e-10)

    @pytest.mark.parametrize("kernel", ["triangular", "epanechnikov", "uniform"])
    @pytest.mark.parametrize("delta0", [-0.5, 0.4, 0.9, 0.99])
    @pytest.mark.parametrize("c", [0.1, 1.0, 1.9])
    def test_matches_the_moment_combination(self, kernel, delta0, c):
        # the equivalent-kernel integral against the intercept recombined from
        # the per-side moments int p*K and int x*p*K of each profile, on the
        # same Gauss-Legendre pieces
        model = {"tau_d": 1.0, "delta0": delta0, "gamma0": 0.3}
        assert tau_star(model, c, kernel) == pytest.approx(
            _moment_combination(model, c, kernel), rel=1e-12, abs=0.0)

    def test_kernel_agreement_rough(self):
        # different kernels weight the same profiles; values stay in a band
        vals = [tau_star(BENCH, 1.0, k)
                for k in ("triangular", "epanechnikov", "uniform")]
        assert max(vals) - min(vals) < 0.25
        assert all(1.0 < v < 2.5 for v in vals)

    def test_c_validation(self):
        with pytest.raises(ConfigError):
            tau_star(BENCH, 2.0, "triangular")
        with pytest.raises(ConfigError):
            tau_star(BENCH, -0.5, "triangular")

    def test_degenerate_kernel_moments(self, monkeypatch):
        monkeypatch.setattr(asy, "one_sided_moment", lambda k, p: 0.5)
        with pytest.raises(NumericError):
            tau_star({"tau_d": 1.0, "delta0": 0.0, "gamma0": 0.5}, 1.0, "triangular")

    def test_default_table_is_cached_per_delta0(self, monkeypatch):
        assert lambda_table(0.4) is lambda_table(0.4)
        # tau_star reads the cached table: it builds none at a delta0 seen before
        monkeypatch.setattr(asy, "build_lambda_table", None)
        assert tau_star(BENCH, 0.01, "triangular") > 1.0


# one reference per delta0: the sized table's tau_star against a table at
# twice the extent and half the spacing
_REFERENCE = {}


def _reference_table(delta0):
    if delta0 not in _REFERENCE:
        A = 2.0 * lambda_table(delta0).truncation_A
        _REFERENCE[delta0] = build_lambda_table(delta0, A, int(round(2 * A / (TABLE_SPACING / 2))) + 1)
    return _REFERENCE[delta0]


class TestSizedTable:
    @pytest.mark.parametrize("delta0", [-0.5, 0.4, 0.8, 0.9, 0.99])
    @pytest.mark.parametrize("c", [1.0, 0.1, 0.01])
    def test_matches_reference(self, monkeypatch, delta0, c):
        # gamma0 = 0.3: with tau_d = 1 and gamma0 = 0.5 the endogenous term
        # cancels exactly at delta0 = -0.5
        model = {"tau_d": 1.0, "delta0": delta0, "gamma0": 0.3}
        got = tau_star(model, c, "triangular")
        monkeypatch.setattr(asy, "lambda_table", {delta0: _reference_table(delta0)}.__getitem__)
        ref = tau_star(model, c, "triangular")
        assert abs(got - ref) <= 1e-5 * abs(ref)

    @pytest.mark.parametrize("delta0", [-0.5, 0.4, 0.8, 0.9, 0.99])
    def test_tail_bound_covers_reference(self, delta0):
        # the whole left tail a <= -A, where lambda and its rounding are near
        # 0, and the node a = +A; the right tail mirrors the left
        # (lambda(a) + lambda(-a) = plateau) but carries the reference's own
        # solve error, up to 2e-8 near its edge at delta0 = 0.99
        tab, ref = lambda_table(delta0), _reference_table(delta0)
        A, a = tab.truncation_A, ref.a_grid
        observed = max(np.max(np.abs(ref.values[a <= -A])),
                       abs(ref.values[np.argmin(np.abs(a - A))] - ref.plateau))
        assert observed <= tab.tail_bound


class TestMoments:
    def test_share_profile_moment_closed_form(self):
        # int_0^1 V(x) K(x) dx at c = 1, triangular: 7/48 = 0.1458333...
        assert _profile_moment(0, 1.0, "triangular", 1) == pytest.approx(7 / 48, abs=1e-12)

    def test_gamma_matches_nu_exact(self, tab0):
        # the share profile is the small-h limit of nu_exact differences
        c, h = 0.8, 1e-3
        xs = np.linspace(-1, 1, 41)
        prof = asy.nu_profile(xs, c)
        direct = nu_exact(c * h / 2, xs * h) - 0.5
        np.testing.assert_allclose(prof, direct, atol=1e-12)

    def test_dual_resolution_agreement(self, monkeypatch):
        assert asy.GL_NODES == 32
        hi = tau_star(BENCH, 1.0, "triangular")
        monkeypatch.setattr(asy, "GL_NODES", 16)
        lo = tau_star(BENCH, 1.0, "triangular")
        assert abs(hi - lo) < 1e-6

    @pytest.mark.parametrize("delta0", [-0.5, 0.0, 0.4, 0.8])
    def test_mu_profile_matches_node_loop_bitwise(self, delta0):
        # one array pass adds the same terms in the same order as the loop
        tab = build_lambda_table(delta0, A=8.0, grid_n=1601)
        for c in (0.05, 0.3, 1.0, 1.9):
            xs = np.concatenate([np.linspace(-1.0, 1.0, 401),
                                 [0.0, c / 2, -c / 2, c, -c, 1.0, -1.0]])
            got = mu_profile(xs, c, tab, 1.3, 0.7)
            ref = _mu_profile_loop(xs, c, tab, 1.3, 0.7)
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
            assert mu_profile([c / 2], c, tab, 1.3, 0.7)[0] == ref[-6]
            # L(a) - L(0) is the share times the gained-minus-lost piece
            # averages; the treated share over those windows moves by nu
            np.testing.assert_allclose(got, _mu_profile_pieces(xs, c, tab, 1.3, 0.7),
                                       rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("delta0", [-0.5, 0.0, 0.4, 0.8])
    def test_drift_is_one_window_average_difference(self, delta0):
        # mu + gamma0*nu = (delta0*tau_d + gamma0) * (L(a) - L(0)), a = 2x/c
        tab = build_lambda_table(delta0, A=8.0, grid_n=1601)
        for c in (0.05, 0.3, 1.0, 1.9):
            xs = np.linspace(-1.0, 1.0, 401)
            a = 2 * xs / c
            diff = tab.interval_average(a - 1.0, a + 1.0) - tab.interval_average(-1.0, 1.0)
            for tau_d, gamma0 in ((1.3, 0.7), (-0.4, 2.0), (0.0, -0.6)):
                drift = mu_profile(xs, c, tab, tau_d, gamma0) + gamma0 * nu_profile(xs, c)
                np.testing.assert_allclose(drift, (delta0 * tau_d + gamma0) * diff,
                                           rtol=0.0, atol=1e-14)

    def test_delta0_zero_lambda_tilde_maps_vanish(self, tab0):
        # lambda_tilde = lambda - 1{a >= 0} is zero at delta0 = 0, so the
        # endogenous profile vanishes whatever gamma0 is
        xs = np.linspace(-1.0, 1.0, 41)
        assert np.max(np.abs(mu_profile(xs, 1.0, tab0, 1.0, 0.5))) < 1e-12


class TestCorollaryBounds:
    def test_positive_chain(self):
        assert corollary_bounds_check(1.0, 1.16, 2.5, 0.4, 0.5) == "ordered-case-1"

    def test_negative_chain(self):
        assert corollary_bounds_check(-1.0, -1.16, -2.5, 0.4, -0.5) == "ordered-case-2"

    def test_negative_delta0_reversed(self):
        assert corollary_bounds_check(2.0, 1.5, 1.0, -0.5, 0.5) == "ordered-case-1"
        assert corollary_bounds_check(-2.0, -1.5, -1.0, -0.5, -0.5) == "ordered-case-2"

    def test_preconditions(self):
        assert corollary_bounds_check(0.0, 0.1, 0.2, 0.4, 0.5) == "preconditions-unmet"
        assert corollary_bounds_check(1.0, 1.1, 1.2, 0.4, 0.0) == "preconditions-unmet"
        assert corollary_bounds_check(1.0, 1.1, 1.2, 0.4, -0.5) == "preconditions-unmet"
        assert corollary_bounds_check(1.0, 1.1, 1.2, 0.0, 0.5) == "preconditions-unmet"

    def test_violated(self):
        assert corollary_bounds_check(1.0, 2.6, 2.5, 0.4, 0.5) == "violated"
        assert corollary_bounds_check(1.0, 0.9, 2.5, 0.4, 0.5) == "violated"
