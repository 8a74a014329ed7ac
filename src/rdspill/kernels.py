"""Kernel functions on [-1, 1] and their one-sided moments."""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

KERNEL_NAMES = ("triangular", "epanechnikov", "uniform")


def check_kernel(name: str) -> None:
    """ConfigError unless name is one of KERNEL_NAMES."""
    if name not in KERNEL_NAMES:
        raise ConfigError(f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}")


def kernel_values(name: str, u) -> np.ndarray:
    """K(u) with support [-1, 1]; zero outside."""
    check_kernel(name)
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    if name == "triangular":
        return (1.0 - np.abs(u)) * inside
    if name == "epanechnikov":
        return 0.75 * (1.0 - u * u) * inside
    return 0.5 * inside


def one_sided_moment(name: str, p: int) -> float:
    """gamma_p = integral_0^1 x^p K(x) dx, in closed form."""
    check_kernel(name)
    if name == "triangular":
        return 1.0 / ((p + 1) * (p + 2))
    if name == "epanechnikov":
        return 1.5 / ((p + 1) * (p + 3))
    return 0.5 / (p + 1)
