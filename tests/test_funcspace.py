import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspill.errors import ConfigError, DomainError
from rdspill.funcspace import (
    FuncSpec,
    ModelSpec,
    constant,
    eval_func,
    polynomial,
    sinusoid_sum,
)


def noise_sup(model: ModelSpec) -> float:
    """Sup of the noise sd over [-1, 1], on a 10 001-point grid."""
    return float(np.max(eval_func(model.noise_sd, np.linspace(-1.0, 1.0, 10_001))))


class TestFuncSpec:
    def test_constant(self):
        f = constant(2.5)
        assert f(0.3) == 2.5
        assert f(-1.0) == 2.5

    def test_polynomial_horner(self):
        f = polynomial([1.0, 0.3, -2.0])
        z = 0.5
        assert f(z) == pytest.approx(1.0 + 0.3 * z - 2.0 * z * z, abs=1e-15)

    def test_sinusoid_pairs(self):
        f = sinusoid_sum([0.5, 2.0, 0.25, 7.0])
        z = -0.4
        assert f(z) == pytest.approx(0.5 * math.sin(2 * z) + 0.25 * math.sin(7 * z))

    def test_sinusoid_leading_offset(self):
        f = sinusoid_sum([0.1, 0.5, 2.0])
        z = 0.8
        assert f(z) == pytest.approx(0.1 + 0.5 * math.sin(2 * z))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            FuncSpec("spline", (1.0, 2.0))

    def test_config_roundtrip(self):
        for f in (constant(3.0), polynomial([0.0, 0.2]), sinusoid_sum([1.0, 4.0])):
            doc = f.to_config()
            assert set(doc) == {"family", "coefficients"}
            assert FuncSpec.from_config(doc) == f

    @pytest.mark.parametrize("f", [
        polynomial([0.2, 0.05, 0.1, -0.04]),
        sinusoid_sum([0.3] + [0.02, 1.0, 0.02, 2.5, 0.02, 4.0, 0.02, 5.5] * 2),
        sinusoid_sum([0.7]),
    ], ids=["polynomial", "sinusoid_sum", "sinusoid_offset_only"])
    def test_value_depends_on_its_own_z_only(self, f):
        # evaluated in short slices, each value keeps the bits it has in one
        # long array, whatever its position in the slice
        z = np.random.default_rng(1).uniform(-1.0, 1.0, 1001)
        full = eval_func(f, z)
        assert full.shape == z.shape
        for width in (1, 2, 3, 5, 7):
            pieces = [eval_func(f, z[i:i + width]) for i in range(0, z.size, width)]
            assert np.concatenate(pieces).tobytes() == full.tobytes()

    def test_vectorized_eval(self):
        f = polynomial([1.0, 0.3])
        z = np.linspace(-1, 1, 7)
        out = eval_func(f, z)
        assert out.shape == z.shape
        np.testing.assert_allclose(out, 1.0 + 0.3 * z, atol=1e-15)

    def test_domain_enforced(self):
        f = constant(1.0)
        with pytest.raises(DomainError):
            eval_func(f, 1.001)
        with pytest.raises(DomainError):
            eval_func(f, np.array([0.0, -1.5]))
        # the closed endpoints themselves are fine
        assert eval_func(f, 1.0) == 1.0
        assert eval_func(f, -1.0) == 1.0


class TestLipschitz:
    def test_closed_forms(self, lipschitz_constant):
        assert lipschitz_constant(constant(9.0)) == 0.0
        assert lipschitz_constant(polynomial([2.0, 3.0, -1.0])) == pytest.approx(5.0)
        assert lipschitz_constant(sinusoid_sum([0.5, 2.0, 0.25, 8.0])) == pytest.approx(3.0)
        assert lipschitz_constant(sinusoid_sum([7.0, 0.5, 2.0])) == pytest.approx(1.0)

    @given(
        coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
        z1=st.floats(-1, 1),
        z2=st.floats(-1, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_polynomial_bound_holds(self, lipschitz_constant, coeffs, z1, z2):
        f = polynomial(coeffs)
        C = lipschitz_constant(f)
        gap = abs(eval_func(f, z1) - eval_func(f, z2))
        assert gap <= C * abs(z1 - z2) + 1e-9

    @given(
        pairs=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(0.1, 9)), min_size=1, max_size=3),
        z1=st.floats(-1, 1),
        z2=st.floats(-1, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_sinusoid_bound_holds(self, lipschitz_constant, pairs, z1, z2):
        coeffs = [v for pair in pairs for v in pair]
        f = sinusoid_sum(coeffs)
        C = lipschitz_constant(f)
        gap = abs(eval_func(f, z1) - eval_func(f, z2))
        assert gap <= C * abs(z1 - z2) + 1e-9


class TestModelSpec:
    def test_benchmark_fields(self, benchmark_model, lipschitz_constant):
        m = benchmark_model
        assert m.delta_bar == pytest.approx(0.4)
        assert max(lipschitz_constant(m.m_plus),
                   lipschitz_constant(m.m_minus)) == pytest.approx(0.3)
        assert lipschitz_constant(m.delta) == 0.0
        assert lipschitz_constant(m.gamma) == 0.0
        assert noise_sup(m) == pytest.approx(0.1)

    def test_rejects_near_unit_delta(self):
        with pytest.raises(ConfigError):
            ModelSpec(
                m_plus=constant(1.0), m_minus=constant(0.0),
                delta=constant(0.9999995), gamma=constant(0.0),
                noise_sd=constant(0.0),
            )

    def test_rejects_sign_changing_delta(self):
        # oscillation 1.0 exceeds sup 0.5: the contraction certificate would
        # not cover the signed operator
        with pytest.raises(ConfigError):
            ModelSpec(
                m_plus=constant(1.0), m_minus=constant(0.0),
                delta=polynomial([0.0, 0.5]), gamma=constant(0.0),
                noise_sd=constant(0.0),
            )

    def test_accepts_varying_same_sign_delta(self):
        m = ModelSpec(
            m_plus=constant(1.0), m_minus=constant(0.0),
            delta=polynomial([0.5, 0.2]), gamma=constant(0.0),
            noise_sd=constant(0.0),
        )
        assert m.delta_bar == pytest.approx(0.7)

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigError):
            ModelSpec(
                m_plus=constant(1.0), m_minus=constant(0.0),
                delta=constant(0.0), gamma=constant(0.0),
                noise_sd=constant(-0.1),
            )

    def test_gamma_at_two_sided(self, benchmark_model):
        np.testing.assert_allclose(
            benchmark_model.gamma_at(np.array([-0.5, 0.0, 0.5])), 0.5)

    def test_gamma_at_one_sided(self):
        m = ModelSpec(
            m_plus=constant(1.0), m_minus=constant(0.0),
            delta=constant(0.0), gamma=constant(0.5),
            noise_sd=constant(0.0), gamma_one_sided=True,
        )
        assert m.gamma_at(-0.5) == 0.5
        assert m.gamma_at(0.0) == 0.5
        assert m.gamma_at(0.5) == 0.0

    def test_config_roundtrip(self, benchmark_model):
        doc = benchmark_model.to_config()
        again = ModelSpec.from_config(doc)
        assert again == benchmark_model

    def test_one_sided_flag_roundtrips(self):
        m = ModelSpec(
            m_plus=constant(1.0), m_minus=constant(0.0),
            delta=constant(0.0), gamma=constant(0.5),
            noise_sd=constant(0.0), gamma_one_sided=True,
        )
        assert ModelSpec.from_config(m.to_config()) == m

    def test_from_config_rejects_unknown_keys(self, benchmark_model):
        doc = benchmark_model.to_config()
        doc["extra"] = 1
        with pytest.raises(ConfigError):
            ModelSpec.from_config(doc)

    def test_from_config_rejects_missing_keys(self, benchmark_model):
        doc = benchmark_model.to_config()
        del doc["gamma"]
        with pytest.raises(ConfigError):
            ModelSpec.from_config(doc)
