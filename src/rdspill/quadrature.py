"""Window integrals of piecewise-linear grid functions, and the one solver built on them.

Both the population fixed point and the limit-profile tables need averages of
a gridded function over sliding intervals. The functions involved are smooth
except for a single known jump at an interior node (the cutoff), so the
interpolant treats the two cells adjacent to that node one-sidedly: the stored
node value is the right limit, and the left limit differs by a known constant.

The quadrature rule is evaluated in two ways:

* ``window_integrals``: the integrals directly from y via a cumulative
  integral, O(N) per call, jumps included. Used on every fine grid.
* ``window_matrix``: the same rule as an explicit jump-free weight matrix W,
  with ``integral = W @ y``. Used for the coarse matrix of the two-grid
  solver.

``two_grid_solve`` solves both fixed points by the Brakhage-Atkinson
two-grid Nystrom iteration (K. Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997, ch. 6): only the coarse grid is dense.

Windows must satisfy lo < hi and lie inside [z[0], z[-1]].
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

SOLVER_TOL = 1e-10
MAX_ITERATIONS = 50


def _locate(p: np.ndarray, z0: float, dz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell index k and fraction t in [0,1] with p = z0 + (k+t)*dz, 0 <= k <= n-2."""
    k = np.floor((p - z0) / dz).astype(int)
    k = np.clip(k, 0, n - 2)
    t = (p - (z0 + k * dz)) / dz
    # exact node hits can land t slightly outside [0,1]
    t = np.clip(t, 0.0, 1.0)
    return k, t


def window_matrix(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral weights W of the piecewise-linear interpolant over [lo_i, hi_i].

    z must be a uniform grid; W has shape (len(lo), len(z)), and W @ y is
    window_integrals(y, z, lo, hi) up to rounding. Each row adds its one-cell
    window, or its partial left cell, full cells and partial right cell.
    """
    z = np.asarray(z, dtype=float)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = len(z)
    dz = z[1] - z[0]
    if not np.all(lo < hi):
        raise ValueError("window_matrix requires lo < hi")
    if lo.min() < z[0] - 1e-9 * dz or hi.max() > z[-1] + 1e-9 * dz:
        raise ValueError("window outside grid range")
    klo, tlo = _locate(lo, z[0], dz, n)
    khi, thi = _locate(hi, z[0], dz, n)
    # full cells a+1 .. b-1 give each interior node a+2 .. b-1 exactly dz;
    # the mask exists before W, so the peak is W plus one boolean matrix
    cols = np.arange(n)
    W = np.where((cols > klo[:, None] + 1) & (cols < khi[:, None]), dz, 0.0)
    rows = np.arange(len(lo))
    one = klo == khi
    # both endpoints inside one cell
    r, a, ta, tb = rows[one], klo[one], tlo[one], thi[one]
    W[r, a] += dz * ((tb - ta) - (tb * tb - ta * ta) / 2.0)
    W[r, a + 1] += dz * (tb * tb - ta * ta) / 2.0
    # partial left cell [lo, z_{a+1}]
    r, a, b, ta, tb = rows[~one], klo[~one], khi[~one], tlo[~one], thi[~one]
    W[r, a] += dz * (1.0 - ta) ** 2 / 2.0
    W[r, a + 1] += dz * (1.0 - ta * ta) / 2.0
    # end nodes a+1 and b of the composite trapezoid over the full cells
    full = b > a + 1
    W[r[full], a[full] + 1] += dz / 2.0
    W[r[full], b[full]] += dz / 2.0
    # partial right cell [z_b, hi]
    part = tb > 0.0
    r, b, tb = r[part], b[part], tb[part]
    W[r, b] += dz * (tb - tb * tb / 2.0)
    W[r, b + 1] += dz * tb * tb / 2.0
    return W


def cell_endpoints(y: np.ndarray, i0: int | None, jump_left: float, jump_right: float):
    """Left/right endpoint values of every cell of the jump-aware interpolant."""
    yl = np.asarray(y, dtype=float)[:-1].copy()
    yr = np.asarray(y, dtype=float)[1:].copy()
    if i0 is not None:
        if i0 >= 1:
            yr[i0 - 1] += jump_left
        if i0 <= len(y) - 2:
            yl[i0] += jump_right
    return yl, yr


def window_integrals(y: np.ndarray, z: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     i0: int | None = None, jump_left: float = 0.0,
                     jump_right: float = 0.0) -> np.ndarray:
    """Integrals of the jump-aware interpolant of y over [lo_i, hi_i], O(N + m)."""
    z = np.asarray(z, dtype=float)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = len(z)
    dz = z[1] - z[0]
    yl, yr = cell_endpoints(y, i0, jump_left, jump_right)
    cum = np.zeros(n)
    np.cumsum((yl + yr) * dz / 2.0, out=cum[1:])

    def T(p):
        k, t = _locate(p, z[0], dz, n)
        return cum[k] + dz * (yl[k] * (t - t * t / 2.0) + yr[k] * (t * t / 2.0))

    return T(hi) - T(lo)


def coarse_grid(z: np.ndarray, half_width: float) -> np.ndarray:
    """The span of z at spacing half_width/4, with at most (len(z)+1)//2 nodes."""
    n = min(math.ceil((z[-1] - z[0]) / (half_width / 4.0)) + 1, (len(z) + 1) // 2)
    return np.linspace(z[0], z[-1], n)


def two_grid_solve(b: np.ndarray, z: np.ndarray, zc: np.ndarray, windows,
                   coarse_weights: np.ndarray):
    """Solve y = b + K y on the uniform grid z; return y and a solver report.

    (K y)(x) = scale * integral over [lo, hi] of the jump-free interpolant of
    y, with (lo, hi, scale) = windows(x). coarse_weights = window_matrix(zc,
    lo_c, hi_c) on the coarse grid zc; it is overwritten. Each step
    adds rho + K rho + K w_c (w_c interpolated from zc), where (I - K_c) w_c =
    (K rho)(zc); SolverError unless |rho| <= SOLVER_TOL * min(1, sup|b|)
    within MAX_ITERATIONS steps, so the stop is relative below unit scale.
    The stop is raised to the rounding floor len(z)*eps*sup|b|/(1 - sup|K|)
    when it lies below it, as it does for solutions of size 1/(1 - delta)
    near delta = 1.
    """
    lo, hi, scale = windows(z)
    lo_c, hi_c, scale_c = windows(zc)
    # N window terms, each rounded relative to sup|y| <= sup|b|/(1 - sup|K|)
    gain = float(np.max(np.abs(scale * (hi - lo))))
    b_sup = float(np.max(np.abs(b)))
    tol = max(SOLVER_TOL * min(1.0, b_sup), len(z) * np.finfo(float).eps * b_sup / (1.0 - gain))
    # I - K_c in place, inverted once: each step is then one coarse matvec
    coarse_weights *= -scale_c[:, None]
    coarse_weights[np.diag_indices_from(coarse_weights)] += 1.0
    inverse = np.linalg.inv(coarse_weights)
    y = np.array(b, dtype=float)
    for iterations in range(MAX_ITERATIONS + 1):
        rho = b + scale * window_integrals(y, z, lo, hi) - y
        residual = float(np.max(np.abs(rho)))
        if residual <= tol or iterations == MAX_ITERATIONS:
            break
        w_c = inverse @ (scale_c * window_integrals(rho, z, lo_c, hi_c))
        y += rho + scale * (window_integrals(rho, z, lo, hi) + window_integrals(w_c, zc, lo, hi))
    if not residual <= tol:  # also catches a NaN residual
        raise SolverError(f"two-grid iteration left residual {residual:.3e} above "
                          f"tolerance {tol:.0e} after {iterations} iterations")
    return y, {"method": "two-grid", "iterations": iterations,
               "residual_sup_norm": residual, "coarse_n": len(zc)}
