"""Parametric structural functions on [-1, 1].

Model ingredients (the two outcome branches, the endogenous and exogenous
spillover coefficients, the noise scale) are restricted to closed families, so
a config names each one exactly by its family and coefficients. Everything is
immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .config import boolean, list_of, read_section, real, text
from .errors import ConfigError, DomainError

FAMILIES = ("constant", "polynomial", "sinusoid-sum")
MODEL_FUNCTIONS = ("m_plus", "m_minus", "delta", "gamma", "noise_sd")

# margin below 1 required of sup|delta|, so the fixed-point map has a
# certified contraction factor
DELTA_MARGIN = 1e-6

_VALIDATION_GRID_N = 10_001


@dataclass(frozen=True)
class FuncSpec:
    """One function on [-1, 1].

    family:
        "constant"      coefficients = [c]
        "polynomial"    coefficients = [a0, a1, ...] for sum a_k z^k
        "sinusoid-sum"  coefficients = [A1, w1, A2, w2, ...] for sum A_j sin(w_j z);
                        an odd-length list supplies a leading constant offset.
    """

    family: str
    coefficients: tuple[float, ...]

    def __init__(self, family: str, coefficients: Iterable[float]):
        if family not in FAMILIES:
            raise ConfigError(f"unknown function family {family!r}; expected one of {FAMILIES}")
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ConfigError("coefficients must be non-empty")
        if not all(np.isfinite(coeffs)):
            raise ConfigError("coefficients must be finite")
        if family == "constant" and len(coeffs) != 1:
            raise ConfigError("constant family takes exactly one coefficient")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "coefficients", coeffs)

    def _sinusoid_parts(self) -> tuple[float, np.ndarray, np.ndarray]:
        coeffs = self.coefficients
        if len(coeffs) % 2 == 1:
            offset, rest = coeffs[0], coeffs[1:]
        else:
            offset, rest = 0.0, coeffs
        amps = np.asarray(rest[0::2])
        freqs = np.asarray(rest[1::2])
        return offset, amps, freqs

    def __call__(self, z):
        return eval_func(self, z)

    @classmethod
    def from_config(cls, doc: dict) -> "FuncSpec":
        return cls(**read_section(doc, "function spec",
                                  {"family": text, "coefficients": list_of(real)}))


def constant(c: float) -> FuncSpec:
    return FuncSpec("constant", [c])


def polynomial(coefficients: Iterable[float]) -> FuncSpec:
    return FuncSpec("polynomial", coefficients)


def sinusoid_sum(coefficients: Iterable[float]) -> FuncSpec:
    return FuncSpec("sinusoid-sum", coefficients)


def eval_func(spec: FuncSpec, z):
    """Evaluate spec at z (scalar or array). Raises DomainError outside [-1, 1]."""
    arr = np.asarray(z, dtype=float)
    if arr.size and (np.min(arr) < -1.0 - 1e-12 or np.max(arr) > 1.0 + 1e-12):
        bad = arr[(arr < -1.0 - 1e-12) | (arr > 1.0 + 1e-12)].flat[0]
        raise DomainError(f"z={bad} outside the model domain [-1, 1]")
    if spec.family == "constant":
        out = np.full_like(arr, spec.coefficients[0], dtype=float)
    elif spec.family == "polynomial":
        # Horner, highest degree first
        out = np.zeros_like(arr, dtype=float)
        for c in reversed(spec.coefficients):
            out = out * arr + c
    else:
        # term by term, elementwise: a matrix product's sums depend on the
        # row's position in the array, so a subset would not keep its bits
        offset, amps, freqs = spec._sinusoid_parts()
        total = np.zeros_like(arr, dtype=float)
        for amp, freq in zip(amps, freqs):
            total = total + amp * np.sin(arr * freq)
        out = offset + total
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Full structural model: outcome branches, spillover coefficients, noise.

    delta_bar (the fine-grid sup of |delta|) is computed at construction and
    doubles as the certified contraction factor; construction fails when it
    reaches 1 - 1e-6, or when delta's oscillation on the grid exceeds it.

    gamma_one_sided=True replaces gamma(z) by gamma(z)*1{z <= 0}: the exogenous
    spillover acts only through untreated neighbors. The donut-design study
    needs this discontinuous variant; no continuous family can express it.
    """

    m_plus: FuncSpec
    m_minus: FuncSpec
    delta: FuncSpec
    gamma: FuncSpec
    noise_sd: FuncSpec
    gamma_one_sided: bool = False
    delta_bar: float = field(init=False)

    def __post_init__(self):
        grid = np.linspace(-1.0, 1.0, _VALIDATION_GRID_N)
        dvals = eval_func(self.delta, grid)
        sup_abs = float(np.max(np.abs(dvals)))
        if sup_abs > 1.0 - DELTA_MARGIN:
            raise ConfigError(
                f"sup|delta| = {sup_abs:.8f} exceeds {1 - DELTA_MARGIN}; "
                "the fixed-point map would not be a certified contraction"
            )
        oscillation = float(np.max(dvals) - np.min(dvals))
        if oscillation > sup_abs + 1e-12:
            raise ConfigError(
                f"delta oscillation {oscillation:.8f} exceeds sup|delta| = {sup_abs:.8f}"
            )
        svals = eval_func(self.noise_sd, grid)
        if np.min(svals) < 0.0:
            raise ConfigError("noise_sd must be nonnegative on [-1, 1]")
        object.__setattr__(self, "delta_bar", sup_abs)

    def gamma_at(self, z):
        """gamma as it enters outcomes: gamma(z), or gamma(z)*1{z<=0} when one-sided."""
        vals = eval_func(self.gamma, z)
        if not self.gamma_one_sided:
            return vals
        arr = np.asarray(z, dtype=float)
        mask = (arr <= 0.0).astype(float)
        out = np.asarray(vals) * mask
        if np.ndim(z) == 0:
            return float(out)
        return out

    @classmethod
    def from_config(cls, doc: dict) -> "ModelSpec":
        return cls(**read_section(doc, "model config",
                                  dict.fromkeys(MODEL_FUNCTIONS, FuncSpec.from_config),
                                  {"gamma_one_sided": boolean}))
