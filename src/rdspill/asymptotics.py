"""Limit objects of the intermediate regime r ~ h and the closed-form tau_star.

When the spillover radius and the bandwidth shrink at the same rate
(c = 2r/h fixed), the local linear estimator converges to a value strictly
between the direct effect tau_d and the total effect tau_tot. Everything
needed to compute it lives at the scale a = z/r and depends on the model only
through (tau_d, delta(0), gamma(0)):

* lambda(a): the response of the fixed point to the treatment step, solved
  from (I - delta0*G) lambda = 1{a >= 0} with G the unit-radius moving mean
  on the whole line. lambda jumps by exactly 1 at a = 0 and approaches 0 /
  1/(1-delta0) at -inf / +inf; the table solver (the population's two-grid
  iteration) pads with those constants and carries the jump exactly.
  One table per delta0 (`lambda_table`) serves every c, as windows beyond +-A
  read the asymptotes; a Chernoff tail bound sets A (`_tail_terms`).
* lambda_tilde(a) = lambda(a) - 1{a >= 0}: the same response with the direct
  step removed. It is continuous and also absorbs the exogenous channel: the
  neighborhood-share ramp response equals lambda_tilde/delta0, so no separate
  table is needed.
* profile of the endogenous regressor at bandwidth scale x = z/h: the
  neighborhood average of the solved outcome moves by
      P(x) = min(1, |x|/c) * [delta0*tau_d*D_lambda(x) + gamma0*D_tilde(x)]
  where D_* are differences of window averages of the table over the gained
  and lost neighborhood pieces.
* profile of the treated-share regressor: V(x) = clip(x/c, -1/2, 1/2).

tau_star applies the one-sided local linear intercept functional to those
profiles on each side of the cutoff and adds the direct effect.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .kernels import kernel_values, one_sided_moment
from .quadrature import coarse_grid, two_grid_solve, window_integrals, window_matrix

TABLE_SPACING = 0.005
GL_NODES = 32  # Gauss-Legendre nodes per piece of tau_star's profile integrals
TAIL_BUDGET = 1e-10  # times max(1, plateau): far below the O(spacing^2) quadrature error
MAX_TABLE_A = 384  # no larger than the per-c sizing built: 3073 coarse nodes, about 150 MB


def _tail_terms(delta0: float) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff exponents s on a grid below s* (sinh(s*)/s* = 1/|delta0|) and
    log factors: every table error is at most exp(log_factor - s*A). With S_k a
    sum of k uniforms on (-1, 1), lambda - asymptote = sum_k delta0^k P(S_k > |a|)
    and P(S_k > t) <= e^{-st} (sinh(s)/s)^k: for q = |delta0| sinh(s)/s < 1 the
    error beyond +-A is e^{-sA} q/(1-q), and padding adds |delta0|/2 of it to
    window averages inside, magnified by at most 1/(1-|delta0|)."""
    d = max(abs(delta0), 1e-300)  # delta0 = 0 as a limit: its bound underflows to 0
    s = np.geomspace(1e-6, min(math.sqrt(6.0 / d), 700.0), 4097)  # s* < sqrt(6/d)
    q = d * np.sinh(s) / s
    s, q = s[q < 1.0], q[q < 1.0]
    return s, np.log((1.0 + d / (2.0 * (1.0 - d))) * q / (1.0 - q))


@dataclass(frozen=True)
class LambdaTable:
    delta0: float
    a_grid: np.ndarray
    values: np.ndarray
    truncation_A: float
    residual: float

    def __post_init__(self):
        self.a_grid.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def i0(self) -> int:
        return len(self.a_grid) // 2

    @property
    def plateau(self) -> float:
        """Asymptotic value at +inf, 1/(1 - delta0)."""
        return 1.0 / (1.0 - self.delta0)

    @property
    def tail_bound(self) -> float:
        """Bound on the truncation error of lambda, inside and beyond +-A."""
        s, log_factor = _tail_terms(self.delta0)
        return float(np.min(np.exp(log_factor - s * self.truncation_A)))

    def interval_average(self, lo, hi) -> np.ndarray:
        """Mean of lambda over each [lo[i], hi[i]], for two 1-D arrays of one
        length (a float is read as one window); pieces beyond +-A use the
        asymptotes."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if not np.all(lo < hi):
            raise ConfigError("interval_average requires lo < hi")
        A = self.truncation_A
        # pieces beyond +A contribute the plateau, beyond -A contribute 0
        total = np.maximum(0.0, hi - np.maximum(lo, A)) * self.plateau
        lo_in, hi_in = np.maximum(lo, -A), np.minimum(hi, A)
        inside = lo_in < hi_in
        total[inside] += window_integrals(self.values, self.a_grid, lo_in[inside],
                                          hi_in[inside], self.i0, -1.0, 0.0)
        return total / (hi - lo)


def build_lambda_table(delta0: float, A: float | None = None,
                       grid_n: int | None = None) -> LambdaTable:
    """Solve (I - delta0*G) lambda = 1{a>=0} on [-A, A] by the two-grid solver.

    The moving mean is over the whole line; window mass outside the table is
    replaced by the known asymptotic constants. The cutoff jump (size exactly
    1) is carried through the quadrature instead of being smeared over a cell.
    A defaults to the least whole number >= 8 whose tail bound meets the budget
    (NumericError, before allocating, above MAX_TABLE_A), grid_n to spacing
    TABLE_SPACING. SolverError when the residual misses the solver's stop.
    """
    if not abs(delta0) < 1.0:
        raise DomainError(f"|delta0| must be < 1, got {delta0}")
    if A is None:
        s, log_factor = _tail_terms(delta0)
        budget = TAIL_BUDGET * max(1.0, 1.0 / (1.0 - delta0))
        A = max(8, math.ceil(float(np.min((log_factor - math.log(budget)) / s))))
        if A > MAX_TABLE_A:
            raise NumericError(f"the lambda table at delta0={delta0} needs A={A}, "
                               f"above the largest supported A={MAX_TABLE_A}")
    if not A >= 8.0:
        raise ConfigError(f"truncation A must be >= 8, got {A}")
    if grid_n is None:
        grid_n = int(round(2 * A / TABLE_SPACING)) + 1
    if grid_n < 1601:
        raise ConfigError(f"table grid_n must be >= 1601, got {grid_n}")
    if grid_n % 2 == 0:
        raise ConfigError("table grid_n must be odd so a=0 is a grid point")
    a = np.linspace(-A, A, grid_n)
    i0 = grid_n // 2
    plateau = 1.0 / (1.0 - delta0)

    def windows(x):
        return np.maximum(x - 1.0, -A), np.minimum(x + 1.0, A), np.full_like(x, delta0 / 2.0)

    lo, hi, _ = windows(a)
    pad_right = np.maximum(a + 1.0 - A, 0.0)
    # operator = delta0/2 * (integral + jump term + overhang * plateau); b holds the last two
    b = (a >= 0.0) + delta0 / 2.0 * (
        window_integrals(np.zeros(grid_n), a, lo, hi, i0, -1.0, 0.0) + pad_right * plateau)
    ac = coarse_grid(a, 1.0)
    lam, report = two_grid_solve(b, a, ac, windows, window_matrix(ac, *windows(ac)[:2]))
    residual = report["residual_sup_norm"]
    # two nodes may each be off by the solve's error bound, residual/(1 - |delta0|)
    if 0.0 <= delta0 < 1.0 and np.any(np.diff(lam) < -max(1e-8, 2 * residual / (1 - delta0))):
        warnings.warn("lambda table is not monotone nondecreasing", RuntimeWarning)
    return LambdaTable(delta0=float(delta0), a_grid=a, values=lam,
                       truncation_A=float(A), residual=residual)


@functools.cache
def lambda_table(delta0: float) -> LambdaTable:
    """The table tau_star reads at delta0, built once per process."""
    return build_lambda_table(delta0)


def _indicator_average(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of 1{a >= 0} over each [lo, hi]."""
    return (np.maximum(hi, 0.0) - np.maximum(lo, 0.0)) / (hi - lo)


def mu_profile(x: np.ndarray, c: float, table: LambdaTable,
               tau_d: float, gamma0: float) -> np.ndarray:
    """Limit drift of the endogenous regressor, already scaled by delta0.

    Returns min(1,|x|/c) * [delta0*tau_d*D_lambda + gamma0*D_lambda_tilde]:
    D_* is the average over the neighborhood piece gained at z = xh minus that
    over the piece lost (a-units), one interval_average call per piece for all
    x. The delta0 factor multiplying tau_d is absorbed through
    lambda_tilde = delta0 * (ramp response), keeping delta0 = 0 regular.
    """
    delta0 = table.delta0
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nonzero = x != 0.0
    xs = x[nonzero]
    ctr = 2 * xs / c
    right = xs >= 0
    g_lo = np.where(right, np.maximum(1.0, ctr - 1.0), ctr - 1.0)
    g_hi = np.where(right, ctr + 1.0, np.minimum(-1.0, ctr + 1.0))
    l_lo = np.where(right, -1.0, np.maximum(-1.0, ctr + 1.0))
    l_hi = np.where(right, np.minimum(1.0, ctr - 1.0), 1.0)
    lam_g = table.interval_average(g_lo, g_hi)
    lam_l = table.interval_average(l_lo, l_hi)
    til_g = lam_g - _indicator_average(g_lo, g_hi)
    til_l = lam_l - _indicator_average(l_lo, l_hi)
    share = np.minimum(1.0, np.abs(xs) / c)
    out[nonzero] = share * (delta0 * tau_d * (lam_g - lam_l) + gamma0 * (til_g - til_l))
    return out


def nu_profile(x, c: float) -> np.ndarray:
    """Limit drift of the treated-share regressor: clip(x/c, -1/2, 1/2)."""
    return np.clip(np.asarray(x, dtype=float) / c, -0.5, 0.5)


def _side_breaks(c: float, side: int) -> list[float]:
    """Integration breakpoints: profile kinks at |x| = c/2 and |x| = c."""
    pts = sorted({0.0, min(c / 2.0, 1.0), min(c, 1.0), 1.0})
    if side > 0:
        return pts
    return [-p for p in reversed(pts)]


# ---------------------------------------------------------------- tau_star --


def tau_star(model_at_0: dict, c: float, kernel: str) -> float:
    """Intermediate-regime limit of the local linear RDD estimand.

    model_at_0 carries {tau_d, delta0, gamma0}; the profiles read
    lambda_table(delta0). Each side's intercept is one integral of the drift
    mu + gamma0*nu against the equivalent kernel (g2 - g1|x|) K / (g0 g2 - g1^2),
    GL_NODES Gauss-Legendre nodes per piece between the profile kinks.
    """
    if not 0.0 < c < 2.0:
        raise ConfigError(f"c must be in (0, 2), got {c}")
    tau_d = float(model_at_0["tau_d"])
    delta0 = float(model_at_0["delta0"])
    gamma0 = float(model_at_0["gamma0"])
    table = lambda_table(delta0)
    g0, g1, g2 = (one_sided_moment(kernel, p) for p in (0, 1, 2))
    den = g0 * g2 - g1 * g1
    if abs(den) < 1e-14:
        raise NumericError(f"degenerate kernel moments for {kernel!r}: g0*g2 - g1^2 = {den}")
    nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
    total = tau_d
    for side in (1, -1):
        breaks = _side_breaks(c, side)
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            xs = mid + half * nodes
            drift = mu_profile(xs, c, table, tau_d, gamma0) + gamma0 * nu_profile(xs, c)
            kern = (g2 - g1 * np.abs(xs)) * kernel_values(kernel, xs) / den
            total += side * half * float(np.sum(weights * drift * kern))
    return float(total)


def corollary_bounds_check(tau_d: float, tau_star_value: float, tau_tot: float,
                           delta0: float, gamma0: float) -> str:
    """Sign-pattern ordering of the three estimands.

    With aligned signs of tau_d and gamma(0) and positive delta(0) the chain
    0 < tau_d < tau_* < tau_tot (or its negative mirror) must hold; negative
    delta(0) reverses the inner orderings. Zero signs are degenerate.
    """
    s = math.copysign(1.0, tau_d) if tau_d != 0 else 0.0
    sg = math.copysign(1.0, gamma0) if gamma0 != 0 else 0.0
    if s == 0.0 or sg == 0.0 or s != sg or delta0 == 0.0:
        return "preconditions-unmet"
    if delta0 > 0:
        if 0 < tau_d < tau_star_value < tau_tot:
            return "ordered-case-1"
        if tau_tot < tau_star_value < tau_d < 0:
            return "ordered-case-2"
    else:
        if tau_d > tau_star_value > tau_tot > 0:
            return "ordered-case-1"
        if tau_d < tau_star_value < tau_tot < 0:
            return "ordered-case-2"
    return "violated"
