import tracemalloc

import numpy as np
import pytest

from rdspill import quadrature
from rdspill.errors import SolverError
from rdspill.quadrature import (
    cell_endpoints,
    coarse_grid,
    two_grid_solve,
    window_integrals,
    window_matrix,
)


def _grid(n):
    return np.linspace(-1.0, 1.0, n)


def _random_windows(rng, m, z):
    lo = rng.uniform(z[0], z[-1] - 0.05, size=m)
    hi = lo + rng.uniform(0.01, z[-1] - lo)
    return lo, np.minimum(hi, z[-1])


def _brute_window_integrals(y, z, lo, hi, i0, jl, jr, n=400_000):
    """Midpoint-rule reference on the jump-aware piecewise-linear interpolant."""
    yl, yr = cell_endpoints(y, i0, jl, jr)
    dz = z[1] - z[0]

    def interp(t):
        k = np.clip(((t - z[0]) / dz).astype(int), 0, len(z) - 2)
        frac = (t - z[k]) / dz
        return (1 - frac) * yl[k] + frac * yr[k]

    out = np.empty_like(lo)
    z0 = z[i0] if i0 is not None else None
    for j, (a, b) in enumerate(zip(lo, hi)):
        total = 0.0
        pieces = [(a, b)] if i0 is None else [(a, min(b, z0)), (max(a, z0), b)]
        for p_lo, p_hi in pieces:
            if p_hi <= p_lo:
                continue
            mids = np.linspace(p_lo, p_hi, n + 1)[:-1] + (p_hi - p_lo) / (2 * n)
            total += (p_hi - p_lo) * float(np.mean(interp(mids)))
        out[j] = total
    return out


class TestWindowMatrix:
    def test_row_sums_are_lengths(self):
        z = _grid(401)
        rng = np.random.default_rng(0)
        lo, hi = _random_windows(rng, 50, z)
        W = window_matrix(z, lo, hi)
        np.testing.assert_allclose(W @ np.ones_like(z), hi - lo, atol=1e-12)

    def test_linear_exact(self):
        z = _grid(301)
        rng = np.random.default_rng(1)
        lo, hi = _random_windows(rng, 40, z)
        W = window_matrix(z, lo, hi)
        np.testing.assert_allclose(W @ z, (hi**2 - lo**2) / 2, atol=1e-12)

    def test_quadratic_second_order(self):
        errs = []
        for n in (401, 801):
            z = _grid(n)
            lo = np.array([-0.43, 0.1, -0.9])
            hi = np.array([0.57, 0.9, -0.1])
            W = window_matrix(z, lo, hi)
            exact = (hi**3 - lo**3) / 3
            errs.append(np.max(np.abs(W @ z**2 - exact)))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 3.0

    def test_matches_window_integrals_with_jumps(self, window_matrix_loop):
        # the dense oracles take their jump weights from the reference loop
        z = _grid(201)
        i0 = len(z) // 2
        rng = np.random.default_rng(2)
        y = rng.normal(size=z.shape)
        lo, hi = _random_windows(rng, 30, z)
        jl, jr = -0.7, 0.25
        W, wl0, wr0 = window_matrix_loop(z, lo, hi, i0)
        via_matrix = W @ y + wl0 * jl + wr0 * jr
        via_prefix = window_integrals(y, z, lo, hi, i0, jl, jr)
        np.testing.assert_allclose(via_matrix, via_prefix, atol=1e-10)

    @pytest.mark.parametrize("n", [11, 201, 4001])
    def test_matches_row_loop(self, window_matrix_loop, n):
        # the array code adds the loop's terms in the loop's order; only the
        # squares may round differently (scalar pow against array multiply),
        # so the bound is one rounding of a cell's weight
        z = _grid(n)
        dz = z[1] - z[0]
        rng = np.random.default_rng(n)
        k = rng.integers(0, n - 1, size=40)
        one_lo = z[k] + dz * rng.uniform(0.0, 0.5, size=40)
        one_hi = z[k] + dz * rng.uniform(0.5, 1.0, size=40)
        j = rng.integers(0, n - 1, size=40)
        hit_lo = z[j]
        hit_hi = z[np.minimum(j + rng.integers(1, 6, size=40), n - 1)]
        wide_lo, wide_hi = _random_windows(rng, 40, z)
        lo = np.concatenate([one_lo, hit_lo, wide_lo, [z[0], z[0], z[-2]]])
        hi = np.concatenate([one_hi, hit_hi, wide_hi, [z[-1], z[1], z[-1]]])
        W = window_matrix(z, lo, hi)
        ref, _, _ = window_matrix_loop(z, lo, hi, None)
        np.testing.assert_allclose(W, ref, rtol=0.0, atol=np.finfo(float).eps * dz)

    def test_peak_memory_near_the_matrix(self):
        # the coarse grid of the A = 384 lambda table: 3073 nodes, 75 MB of
        # weights; the full-cell mask is built before W, never beside a copy
        a = np.linspace(-384.0, 384.0, 6401)
        ac = coarse_grid(a, 1.0)
        lo, hi = np.maximum(ac - 1.0, -384.0), np.minimum(ac + 1.0, 384.0)
        tracemalloc.start()
        try:
            W = window_matrix(ac, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.shape == (3073, 3073)
        assert peak <= 1.5 * W.nbytes

    def test_rejects_bad_windows(self):
        z = _grid(201)
        with pytest.raises(ValueError):
            window_matrix(z, np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            window_matrix(z, np.array([-2.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            window_matrix(z, np.array([0.0]), np.array([1.5]))

    @pytest.mark.parametrize("lo, hi", [(np.nan, 0.5), (-0.5, np.nan),
                                        (np.nan, np.nan)])
    def test_rejects_nan_window_ends(self, lo, hi):
        # a NaN end compares false both ways, so only `lo < hi` catches it
        with pytest.raises(ValueError, match="lo < hi"):
            window_matrix(_grid(201), np.array([-0.5, lo]), np.array([0.5, hi]))


class TestJumpHandling:
    def test_step_function_exact(self):
        # stored values are right limits of 1{z >= 0}; with the left jump of
        # size -1 the interpolant reproduces the exact step, so windows get
        # exactly the length of their positive part
        z = _grid(201)
        i0 = len(z) // 2
        y = (z >= 0.0).astype(float)
        lo = np.array([-0.731, -0.05, 0.013, -1.0, 0.4])
        hi = np.array([0.269, 0.051, 0.77, -0.2, 0.9])
        got = window_integrals(y, z, lo, hi, i0, -1.0, 0.0)
        exact = np.maximum(hi, 0.0) - np.maximum(lo, 0.0)
        np.testing.assert_allclose(got, exact, atol=1e-12)

    def test_right_jump_local_to_first_cell(self):
        # nodes away from 0 already sit on the correct branch; jump_right only
        # replaces the right limit at the origin node, so with y = 0 the
        # correction is one triangle of area jr*dz/2
        z = _grid(201)
        dz = z[1] - z[0]
        i0 = len(z) // 2
        y = np.zeros_like(z)
        got = window_integrals(y, z, np.array([-0.3]), np.array([0.5]), i0, 0.0, 2.0)
        assert got[0] == pytest.approx(2.0 * dz / 2.0, abs=1e-12)
        # a window ending left of 0 never sees it
        unaffected = window_integrals(y, z, np.array([-0.3]), np.array([-0.1]), i0, 0.0, 2.0)
        assert unaffected[0] == 0.0

    def test_brute_force_oracle(self):
        z = _grid(161)
        i0 = len(z) // 2
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.normal(size=z.shape)) * 0.1
        lo, hi = _random_windows(rng, 8, z)
        jl, jr = 1.3, -0.4
        got = window_integrals(y, z, lo, hi, i0, jl, jr)
        ref = _brute_window_integrals(y, z, lo, hi, i0, jl, jr)
        np.testing.assert_allclose(got, ref, atol=5e-7)

    def test_no_jump_matches_trapezoid(self):
        z = _grid(101)
        y = np.sin(3 * z)
        got = window_integrals(y, z, np.array([z[10]]), np.array([z[90]]), None, 0.0, 0.0)
        ref = np.trapezoid(y[10:91], z[10:91])
        assert got[0] == pytest.approx(ref, abs=1e-12)


class TestCellEndpoints:
    def test_plain(self):
        y = np.array([1.0, 2.0, 3.0])
        yl, yr = cell_endpoints(y, None, 0.0, 0.0)
        np.testing.assert_array_equal(yl, y[:-1])
        np.testing.assert_array_equal(yr, y[1:])

    def test_jumps_enter_adjacent_cells(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        yl, yr = cell_endpoints(y, 2, -0.5, 0.25)
        assert yr[1] == pytest.approx(3.0 - 0.5)   # left limit at the node
        assert yl[2] == pytest.approx(3.0 + 0.25)  # right limit at the node
        assert yr[2] == 4.0 and yl[1] == 2.0


def test_two_grid_unreachable_tolerance_raises_at_cap(monkeypatch):
    z = _grid(201)

    def windows(x):
        lo, hi = np.maximum(x - 0.1, -1.0), np.minimum(x + 0.1, 1.0)
        return lo, hi, 0.5 / (hi - lo)

    zc = coarse_grid(z, 0.1)
    lo_c, hi_c, _ = windows(zc)
    # the stop never sits below the rounding floor, so only a short cap can
    # leave the residual above it
    monkeypatch.setattr(quadrature, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverError, match="after 1 iterations"):
        two_grid_solve(np.cos(3 * z), z, zc, windows,
                       window_matrix(zc, lo_c, hi_c))
