"""Kernel functions on [-1, 1] and their one-sided moments."""
from __future__ import annotations

import functools

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


@functools.cache
def _unit_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """24-node Gauss-Legendre nodes and weights mapped to [0, 1], built on
    first use: a process that never takes a moment never loads
    numpy.polynomial."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def one_sided_moment(name: str, p: int) -> float:
    """gamma_p = integral_0^1 x^p K(x) dx.

    Gauss-Legendre with 24 nodes is exact here: every supported kernel is a
    polynomial on [0, 1] of degree <= 2, so the integrand degree is p + 2.
    """
    nodes, weights = _unit_quadrature()
    return float(np.sum(weights * nodes**p * kernel_values(name, nodes)))
