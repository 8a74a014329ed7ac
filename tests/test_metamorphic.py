"""Metamorphic relations: a transformation of the data whose effect on each
estimate is known, so two runs check each other with no target value.

Each relation states its tolerance: bit for bit where the relation is exact
in floating point (a permutation, every row twice for a ratio of sums), and
otherwise 1e-12 relative, because the transformed fit reaches its answer by
a different rounding path.
"""
import dataclasses
import json

import numpy as np
import pytest

from rdspill import cli
from rdspill.estimators import (
    EstimatorConfig,
    cross_validate_r,
    donut_rdd,
    local_linear_rdd,
    local_spillover_regression,
    nadaraya_watson_rdd,
)
from rdspill.experiments import benchmark_model, tau_star_for_model
from rdspill.funcspace import FuncSpec, ModelSpec, constant, polynomial, sinusoid_sum
from rdspill.population import solve_population, true_estimands
from rdspill.sampling import Sample, draw_sample

RTOL = 1e-12
# the benchmark's analyze estimator, with a donut hole for donut_rdd
CFG = EstimatorConfig(kernel="triangular", h=0.15, r=0.075, h_donut=0.02)
HALVED = EstimatorConfig(kernel="triangular", h=0.075, r=0.0375, h_donut=0.01)


@pytest.fixture(scope="module")
def sample():
    model = benchmark_model(0.1)
    sol = solve_population(model, 0.075, 4001)
    return draw_sample(sol, 50_000, seed=1)


def close(a, b, rtol=RTOL):
    return a == pytest.approx(b, rel=rtol, abs=0.0)


class TestReflection:
    """Z -> -Z swaps the sides: tau changes sign, and so does the treated
    share's contrast, while the neighbor mean keeps its value."""

    @pytest.mark.parametrize("fit", [local_linear_rdd, donut_rdd])
    def test_local_fits(self, sample, fit):
        est = fit(sample, CFG)
        mirrored = fit(Sample(z=-sample.z, y=sample.y), CFG)
        assert close(mirrored.tau_hat, -est.tau_hat)

    def test_nadaraya_watson(self, sample):
        tau = nadaraya_watson_rdd(sample, CFG)
        assert close(nadaraya_watson_rdd(Sample(z=-sample.z, y=sample.y), CFG), -tau)

    def test_spillover(self, sample):
        est = local_spillover_regression(sample, CFG)
        mirrored = local_spillover_regression(Sample(z=-sample.z, y=sample.y), CFG)
        assert close(mirrored.tau_d_hat, -est.tau_d_hat)
        assert close(mirrored.gamma_hat, -est.gamma_hat)
        assert close(mirrored.delta_hat, est.delta_hat)


class TestEveryRowTwice:
    @staticmethod
    def doubled(sample):
        return Sample(z=np.concatenate([sample.z, sample.z]),
                      y=np.concatenate([sample.y, sample.y]))

    def test_nadaraya_watson_keeps_its_bits(self, sample):
        # each side's two sums double exactly, so their ratio keeps its bits
        assert nadaraya_watson_rdd(self.doubled(sample), CFG) == nadaraya_watson_rdd(sample, CFG)

    def test_local_linear(self, sample):
        # the same weighted normal equations, solved by an SVD of a design
        # with twice the rows: equal to rounding, not bit for bit
        est = local_linear_rdd(sample, CFG)
        twice = local_linear_rdd(self.doubled(sample), CFG)
        for got, want in zip(twice.beta_plus + twice.beta_minus,
                             est.beta_plus + est.beta_minus):
            assert close(got, want)
        assert (twice.n_plus, twice.n_minus) == (2 * est.n_plus, 2 * est.n_minus)


class TestHalvedRunningVariable:
    """Z -> Z/2 with h and r halved keeps every kernel weight and neighbor
    set; only the Z coefficients double."""

    def test_local_linear(self, sample):
        est = local_linear_rdd(sample, CFG)
        half = local_linear_rdd(Sample(z=sample.z / 2.0, y=sample.y), HALVED)
        assert close(half.tau_hat, est.tau_hat)
        for got, want in ((half.beta_plus, est.beta_plus), (half.beta_minus, est.beta_minus)):
            assert close(got[0], want[0])
            assert close(got[1], 2.0 * want[1])

    def test_spillover(self, sample):
        est = local_spillover_regression(sample, CFG)
        half = local_spillover_regression(Sample(z=sample.z / 2.0, y=sample.y), HALVED)
        assert close(half.tau_d_hat, est.tau_d_hat)
        assert close(half.delta_hat, est.delta_hat)
        assert close(half.gamma_hat, est.gamma_hat)
        assert close(half.mu_hat_at_0, est.mu_hat_at_0)


def test_local_linear_follows_an_affine_outcome_map(sample):
    est = local_linear_rdd(sample, CFG)
    mapped = local_linear_rdd(Sample(z=sample.z, y=3.0 + 2.5 * sample.y), CFG)
    assert close(mapped.tau_hat, 2.5 * est.tau_hat)
    for got, want in ((mapped.beta_plus, est.beta_plus), (mapped.beta_minus, est.beta_minus)):
        assert close(got[0], 3.0 + 2.5 * want[0])
        assert close(got[1], 2.5 * want[1])


# (a, s) of Y -> a + s*Y: a shift and a scaling together, a large shift
# alone, and scalings far from the units of the draw
OUTCOME_MAPS = [(3.0, 2.5), (-100.0, 1.0), (0.0, 1e8), (0.0, 1e-8)]


class TestAffineOutcomeMap:
    """Y -> a + s*Y: tau scales by s, intercepts map as Y does and slopes
    scale by s."""

    @pytest.mark.parametrize("a, s", OUTCOME_MAPS)
    def test_nadaraya_watson(self, sample, a, s):
        tau = nadaraya_watson_rdd(sample, CFG)
        assert close(nadaraya_watson_rdd(Sample(z=sample.z, y=a + s * sample.y), CFG), s * tau)

    @pytest.mark.parametrize("a, s", OUTCOME_MAPS)
    def test_donut(self, sample, a, s):
        est = donut_rdd(sample, CFG)
        mapped = donut_rdd(Sample(z=sample.z, y=a + s * sample.y), CFG)
        assert close(mapped.tau_hat, s * est.tau_hat)
        for got, want in ((mapped.beta_plus, est.beta_plus), (mapped.beta_minus, est.beta_minus)):
            assert close(got[0], a + s * want[0])
            assert close(got[1], s * want[1])


class TestSpilloverOutcomeMap:
    """Y -> a + Y leaves tau_d, delta and gamma and shifts mu(0) by a;
    Y -> s*Y, s from 1e-310 to 1e300, scales tau_d and gamma by s and leaves
    delta. Radius cross-validation keeps its radii; its errors stay under a
    shift and scale by s^2, s from 1e-12 to 1e12. Within 1e-9: each run
    solves a different design."""

    RTOL = 1e-9
    CANDIDATES = ([0.04, 0.075, 0.12], 5, 1)

    @pytest.fixture(scope="class")
    def reference(self, sample):
        return (local_spillover_regression(sample, CFG),
                cross_validate_r(sample, CFG, *self.CANDIDATES))

    def mapped(self, sample, y):
        mapped = Sample(z=sample.z, y=y)
        return (local_spillover_regression(mapped, CFG),
                cross_validate_r(mapped, CFG, *self.CANDIDATES))

    def assert_errors(self, got, want, factor):
        assert (got["r_plus"], got["r_minus"]) == (want["r_plus"], want["r_minus"])
        for row, ref in zip(got["cv_table"], want["cv_table"]):
            assert row["r"] == ref["r"] and row["feasible"] and ref["feasible"]
            for key in ("mse_plus", "mse_minus"):
                assert close(row[key], factor * ref[key], self.RTOL), (row, ref)

    @pytest.mark.parametrize("a", [-100.0, 3.0])
    def test_a_shift(self, sample, reference, a):
        (est, cv), (got, got_cv) = reference, self.mapped(sample, a + sample.y)
        for name in ("tau_d_hat", "delta_hat", "gamma_hat"):
            assert close(getattr(got, name), getattr(est, name), self.RTOL), name
        assert close(got.mu_hat_at_0, a + est.mu_hat_at_0, self.RTOL)
        self.assert_errors(got_cv, cv, 1.0)

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0, 1e-12, 1e-8, 1e8, 1e12])
    def test_a_scaling(self, sample, reference, s):
        (est, cv), (got, got_cv) = reference, self.mapped(sample, s * sample.y)
        assert close(got.tau_d_hat, s * est.tau_d_hat, self.RTOL)
        assert close(got.gamma_hat, s * est.gamma_hat, self.RTOL)
        assert close(got.delta_hat, est.delta_hat, self.RTOL)
        self.assert_errors(got_cv, cv, s * s)

    @pytest.mark.parametrize("s", [1e-310, 1e-300, 1e-160, 1e160, 1e300])
    def test_a_scaling_to_the_float_range_edges(self, sample, reference, s):
        # the fit alone: radius cross-validation's errors are in Y^2 units,
        # so they overflow past |s| ~ 1e154 whatever the fit does. At 1e-310
        # the spillover columns are subnormal: their scale 2^-e would overflow
        # uncapped, and they keep fewer digits than a normal float
        est = reference[0]
        got = local_spillover_regression(Sample(z=sample.z, y=s * sample.y), CFG)
        assert close(got.tau_d_hat, s * est.tau_d_hat, self.RTOL)
        assert close(got.gamma_hat, s * est.gamma_hat, self.RTOL)
        assert close(got.delta_hat, est.delta_hat, self.RTOL)
        for side in ("plus", "minus"):
            assert close(got.condition_numbers[side], est.condition_numbers[side], self.RTOL)


def _mapped(spec: FuncSpec, a: float, s: float) -> FuncSpec:
    """a + s*spec, for a constant or polynomial spec."""
    first, *rest = spec.coefficients
    return FuncSpec(spec.family, [a + s * first, *(s * c for c in rest)])


def _targets(model) -> tuple[float, float, float]:
    """tau_d, tau_tot at r = 0.075 and tau_star at c = 1."""
    estimands = true_estimands(model, 0.075, 2001)
    return (estimands["tau_d"], estimands["tau_tot"],
            tau_star_for_model(model, 1.0, "triangular"))


class TestPopulation:
    """The README model's targets under maps of its functions: a common
    shift of the baselines leaves every target, and scaling the baselines,
    gamma and the noise scales every target."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _targets(benchmark_model())

    @pytest.mark.parametrize("a", [-100.0, 3.0])
    def test_a_common_shift_of_the_baselines(self, reference, a):
        base = benchmark_model()
        model = dataclasses.replace(base, m_plus=_mapped(base.m_plus, a, 1.0),
                                    m_minus=_mapped(base.m_minus, a, 1.0))
        for got, want in zip(_targets(model), reference):
            assert close(got, want)

    @pytest.mark.parametrize("s", [2.5, 1e-3])
    def test_a_common_scaling(self, reference, s):
        base = benchmark_model()
        model = dataclasses.replace(base, **{name: _mapped(getattr(base, name), 0.0, s)
                                             for name in ("m_plus", "m_minus", "gamma",
                                                          "noise_sd")})
        for got, want in zip(_targets(model), reference):
            assert close(got, s * want)

    @pytest.mark.parametrize("s", [2.5, 1e-3, 1e-6])
    def test_a_common_scaling_with_curved_baselines(self, s):
        # a varying delta and non-linear baselines make tau_tot depend on the
        # solve, which must then stop relative to the data's scale
        base = ModelSpec(m_plus=polynomial([1.0, 0.3, -0.5]),
                         m_minus=polynomial([0.0, 0.2, 0.4]),
                         delta=sinusoid_sum([0.3, 0.2, 2.0]),
                         gamma=polynomial([0.5, 0.3]), noise_sd=constant(0.1))
        model = dataclasses.replace(base, **{name: _mapped(getattr(base, name), 0.0, s)
                                             for name in ("m_plus", "m_minus", "gamma",
                                                          "noise_sd")})
        for got, want in zip(_targets(model), _targets(base)):
            assert close(got, s * want)


def test_cross_validation_table_ignores_row_order(sample):
    # folds partition the canonical order, so the input order cannot matter
    perm = np.random.default_rng(23).permutation(sample.n)
    shuffled = Sample(z=sample.z[perm], y=sample.y[perm])
    args = ([0.04, 0.075, 0.12], 5, 1)
    assert cross_validate_r(shuffled, CFG, *args) == cross_validate_r(sample, CFG, *args)


def _close_tree(got, want, rtol=RTOL) -> bool:
    """got and want have one shape; their floats agree within rtol."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _close_tree(got[key], want[key], rtol) for key in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(
            _close_tree(a, b, rtol) for a, b in zip(got, want))
    if isinstance(want, float):
        return close(got, want, rtol)
    return got == want


class TestRescaledCli:
    """--rescale maps a raw running variable onto [-1, 1], so a CSV whose Z
    is an affine image of the unit-scale Z gives the same estimates and radii
    with the same config: bit for bit when the map is a power of two,
    otherwise within 1e-12."""

    CONFIG = {"estimator": CFG.to_config(),
              "crossval": {"candidates": [0.04, 0.075, 0.12], "folds": 5, "seed": 1}}

    @pytest.fixture(scope="class")
    def rows(self):
        sol = solve_population(benchmark_model(0.1), 0.075, 4001)
        sample = draw_sample(sol, 20_000, seed=5)
        return sample.z, sample.y

    @staticmethod
    def run(tmp_path, capsys, name, z, y, rescale=None):
        """The est.json records, the selected radii and crossval's table."""
        data = tmp_path / f"{name}.csv"
        np.savetxt(data, np.column_stack((z, y)), fmt="%.17g", delimiter=",",
                   header="z,y", comments="")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TestRescaledCli.CONFIG), encoding="utf-8")
        flags = ["--config", str(config), "--data", str(data)]
        if rescale is not None:
            flags.append("--rescale=" + rescale)
        est, cv = tmp_path / f"{name}.est.json", tmp_path / f"{name}.cv.json"
        assert cli.main(["estimate", "--estimator", "all", "--out", str(est), *flags]) == 0
        capsys.readouterr()
        assert cli.main(["crossval", "--out", str(cv), *flags]) == 0
        records = json.loads(est.read_text())["records"]
        result = json.loads(cv.read_text())["crossval"]
        return records, (result["r_plus"], result["r_minus"]), capsys.readouterr().out

    def test_a_power_of_two_scale_keeps_the_bits(self, tmp_path, rows, capsys):
        z, y = rows
        unit = self.run(tmp_path, capsys, "unit", z, y)
        assert [r["estimator"] for r in unit[0]] == [
            "local_linear", "nadaraya_watson", "donut", "spillover"]
        assert self.run(tmp_path, capsys, "x4", 4.0 * z, y, "-4,0,4") == unit

    def test_an_affine_map_agrees_to_rounding(self, tmp_path, rows, capsys):
        z, y = rows
        records, radii, _ = self.run(tmp_path, capsys, "unit", z, y)
        mapped, mapped_radii, _ = self.run(tmp_path, capsys, "affine", 3.0 * z + 0.5, y,
                                           "-2.5,0.5,3.5")
        assert _close_tree(mapped, records)
        assert mapped_radii == radii
