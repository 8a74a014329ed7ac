"""Continuum fixed point of the spillover model on a grid.

The outcome function solves Y(z) = m_d(z) + delta(z)*mu(z) + gamma_d(z)*nu(z)
where mu averages Y itself over the neighborhood [z-r, z+r] clipped to
[-1, 1] (renormalized near the edges) and nu is the neighborhood treated
share, known in closed form. Treatment is assigned at the cutoff
(d(z) = 1{z >= 0}, with d(0) = 1). The fixed point is linear in its
right-hand side, so tau_tot (everyone minus no one treated) is one solve.

Y inherits a single jump at the cutoff from m (and from a one-sided gamma);
its size is known from the model, so the solver carries it exactly instead of
smearing it across a grid cell: the quadrature underlying mu treats the cell
straddling 0 one-sidedly, and the jump shows up as a constant offset in the
discrete system that `quadrature.two_grid_solve` solves. The grid stores
right limits at 0 (the treated branch).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .funcspace import ModelSpec, eval_func
from .quadrature import coarse_grid, two_grid_solve, window_integrals, window_matrix

DEFAULT_GRID_N = 4001
INTERP_BLOCK = 16384  # queries per block of the grid lookup; keeps its temporaries in cache


def nu_exact(r: float, z):
    """Treated share of the neighborhood [z-r, z+r] clipped to [-1, 1].

    Closed-form piecewise-linear expression; no quadrature. At interior
    points this is the familiar ramp: 1/2 at the cutoff, saturating at 0/1
    once the neighborhood clears the cutoff, slope 1/(2r) in between.
    """
    if not r > 0.0:
        raise ConfigError("neighborhood radius must be positive")
    if r >= 2.0:
        raise ConfigError(f"r={r} degenerate: the neighborhood always covers all of [-1, 1]")
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    bound = 1.0 + 1e-12  # min and max, not abs: no temporary as long as z; NaN fails too
    if arr.size and not (arr.min() >= -bound and arr.max() <= bound):
        raise DomainError("nu_exact evaluated outside [-1, 1]")
    lo = arr - r
    np.maximum(lo, -1.0, out=lo)
    hi = arr + r
    np.minimum(hi, 1.0, out=hi)
    out = np.clip(hi, 0.0, None)
    out -= np.clip(lo, 0.0, None)
    hi -= lo
    with np.errstate(invalid="ignore"):  # 0/0 where r does not move z; _fit_sides refuses the NaN
        out /= hi
    if np.ndim(z) == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class PopulationSolution:
    grid: np.ndarray
    r: float
    y: np.ndarray
    solver_report: dict
    model: ModelSpec
    jump_left: float   # Y(0-) - Y(0)
    jump_right: float  # Y(0+) - Y(0)

    def __post_init__(self):
        self.grid.flags.writeable = False
        self.y.flags.writeable = False

    @property
    def i0(self) -> int:
        return len(self.grid) // 2

    @cached_property
    def _slope(self) -> np.ndarray:
        return np.diff(self.y) / np.diff(self.grid)

    def interp(self, z) -> np.ndarray:
        """Linear interpolation of y, one-sided in the two cells at the cutoff.

        Elsewhere this is np.interp(z, grid, y) bit for bit, but each query's
        cell comes from the uniform spacing, corrected by two exact comparisons
        to grid[j] <= z < grid[j+1], instead of from a binary search.
        """
        z = np.asarray(z, dtype=float)
        grid, y, slope = self.grid, self.y, self._slope
        i0, dz, last = self.i0, grid[1] - grid[0], len(grid) - 2
        out = np.empty(z.shape)
        z_flat, out_flat = z.reshape(-1), out.reshape(-1)
        for start in range(0, z.size, INTERP_BLOCK):
            zb, ob = z_flat[start:start + INTERP_BLOCK], out_flat[start:start + INTERP_BLOCK]
            # clipped before the cast, so NaN and huge z index safely
            j = np.fmin(np.fmax((zb - grid[0]) / dz, 0.0), last).astype(np.intp)
            j -= zb < grid[j]
            j += zb >= grid[j + 1]
            np.clip(j, 0, last, out=j)
            gj = grid[j]
            np.multiply(slope[j], zb - gj, out=ob)
            ob += y[j]
            hit = zb == gj
            ob[hit] = y[j[hit]]
            ob[zb >= grid[-1]] = y[-1]
            ob[zb < grid[0]] = y[0]
        if self.jump_left != 0.0:
            mask = (z >= grid[i0 - 1]) & (z < 0.0)
            t = (z[mask] - grid[i0 - 1]) / dz
            out[mask] = (1 - t) * y[i0 - 1] + t * (y[i0] + self.jump_left)
        if self.jump_right != 0.0:
            mask = (z > 0.0) & (z <= grid[i0 + 1])
            t = (z[mask] - grid[i0]) / dz
            out[mask] = (1 - t) * (y[i0] + self.jump_right) + t * y[i0 + 1]
        return out


def check_grid_n(grid_n: int) -> None:
    """Refuse a grid that solve_population cannot use."""
    if grid_n % 2 == 0 or grid_n < 201:
        raise ConfigError(f"grid_n must be odd and >= 201, got {grid_n}")


def _solve(model: ModelSpec, r: float, grid_n: int, rhs,
           jump_left: float, jump_right: float) -> PopulationSolution:
    """y = rhs(grid) + delta*mu(y) on grid_n points over [-1, 1], with y's jumps
    left and right of 0 known; two_grid_solve on a coarse grid of spacing r/4."""
    check_grid_n(grid_n)
    if not 0.0 < r < 2.0:
        raise ConfigError(f"radius r={r} outside (0, 2)")
    grid = np.linspace(-1.0, 1.0, grid_n)
    dz = grid[1] - grid[0]
    if r <= 4 * dz:
        raise ConfigError(
            f"grid too coarse: r={r} needs more than 4 grid spacings ({4 * dz:.6g}); increase grid_n"
        )

    def windows(x):
        lo, hi = np.maximum(x - r, -1.0), np.minimum(x + r, 1.0)
        return lo, hi, np.asarray(eval_func(model.delta, x)) / (hi - lo)

    lo, hi, scale = windows(grid)
    # the jumps are known, so their share of delta*mu is a constant of the system
    b = rhs(grid) + scale * window_integrals(np.zeros(grid_n), grid, lo, hi, grid_n // 2,
                                             jump_left, jump_right)
    zc = coarse_grid(grid, r)
    y, report = two_grid_solve(b, grid, zc, windows, window_matrix(zc, *windows(zc)[:2]))
    return PopulationSolution(grid=grid, r=float(r), y=y, solver_report=report,
                              model=model, jump_left=jump_left, jump_right=jump_right)


def solve_population(model: ModelSpec, r: float,
                     grid_n: int = DEFAULT_GRID_N) -> PopulationSolution:
    """The outcome profile Y under treatment at the cutoff. Y jumps left of 0
    by m_-(0) - m_+(0), and right of 0 by -gamma(0)/2 when gamma is one-sided."""
    def rhs(grid):
        m_vals = np.where(grid >= 0.0, eval_func(model.m_plus, grid),
                          eval_func(model.m_minus, grid))
        return m_vals + model.gamma_at(grid) * nu_exact(r, grid)

    jump_left = eval_func(model.m_minus, 0.0) - eval_func(model.m_plus, 0.0)
    jump_right = -eval_func(model.gamma, 0.0) * 0.5 if model.gamma_one_sided else 0.0
    return _solve(model, r, grid_n, rhs, jump_left, jump_right)


def mu_at(sol: PopulationSolution, z: float):
    """F-average of the solved outcome over [z-r, z+r] clipped to [-1, 1]."""
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):  # NaN fails too
        raise DomainError("mu_at evaluated outside [-1, 1]")
    lo = np.maximum(arr - sol.r, -1.0)
    hi = np.minimum(arr + sol.r, 1.0)
    vals = window_integrals(sol.y, sol.grid, lo, hi, sol.i0,
                            sol.jump_left, sol.jump_right) / (hi - lo)
    if np.ndim(z) == 0:
        return float(vals[0])
    return vals


def true_estimands(model: ModelSpec, r: float, grid_n: int = DEFAULT_GRID_N) -> dict:
    """Exact tau_d and the finite-r total effect tau_tot.

    tau_d needs no solve. tau_tot, Y(0) with everyone treated minus Y(0) with
    no one treated, is y(0) of the fixed point of the treatment contrast
    m_+ - m_- + gamma. As r -> 0 it approaches (tau_d + gamma(0)) / (1 - delta(0)).
    """
    tau_d = eval_func(model.m_plus, 0.0) - eval_func(model.m_minus, 0.0)

    def rhs(grid):
        return eval_func(model.m_plus, grid) - eval_func(model.m_minus, grid) + model.gamma_at(grid)

    jump_right = -eval_func(model.gamma, 0.0) if model.gamma_one_sided else 0.0
    sol = _solve(model, r, grid_n, rhs, 0.0, jump_right)
    return {"tau_d": float(tau_d), "tau_tot": float(sol.y[sol.i0])}
