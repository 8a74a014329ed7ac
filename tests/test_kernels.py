import numpy as np
import pytest

from rdspill.errors import ConfigError
from rdspill.kernels import KERNEL_NAMES, kernel_values, one_sided_moment

# gamma_p = int_0^1 x^p K(x) dx, worked out by hand
CLOSED_FORMS = {
    ("triangular", 0): 1 / 2,
    ("triangular", 1): 1 / 6,
    ("triangular", 2): 1 / 12,
    ("epanechnikov", 0): 1 / 2,
    ("epanechnikov", 1): 3 / 16,
    ("epanechnikov", 2): 1 / 10,
    ("uniform", 0): 1 / 2,
    ("uniform", 1): 1 / 4,
    ("uniform", 2): 1 / 6,
}


@pytest.mark.parametrize("key", sorted(CLOSED_FORMS))
def test_moment_closed_forms(key):
    assert one_sided_moment(*key) == pytest.approx(CLOSED_FORMS[key], abs=1e-14)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_unit_mass(name):
    # symmetric kernels integrate to one over [-1, 1]
    assert 2 * one_sided_moment(name, 0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_support_and_symmetry(name):
    u = np.linspace(-2, 2, 201)
    k = kernel_values(name, u)
    assert np.all(k[np.abs(u) > 1.0] == 0.0)
    assert np.all(k[np.abs(u) <= 1.0] >= 0.0)
    np.testing.assert_allclose(k, k[::-1], atol=1e-15)


def test_peak_values():
    assert kernel_values("triangular", 0.0) == 1.0
    assert kernel_values("epanechnikov", 0.0) == 0.75
    assert kernel_values("uniform", 0.0) == 0.5


def test_unknown_kernel():
    with pytest.raises(ConfigError):
        kernel_values("gaussian", 0.0)
    with pytest.raises(ConfigError):
        one_sided_moment("gaussian", 0)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_moments_decrease_in_p(name):
    vals = [one_sided_moment(name, p) for p in range(5)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_local_linear_denominator_positive(name):
    g01 = one_sided_moment(name, 0)
    g11 = one_sided_moment(name, 1)
    g21 = one_sided_moment(name, 2)
    assert g01 * g21 - g11**2 > 0
