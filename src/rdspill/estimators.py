"""Cutoff estimators: local linear, Nadaraya-Watson, donut, and the
six-regressor local spillover regression with its derived quantities.

Every local regression runs through one per-side fit (_fit_sides): weighted
least squares of Y on (1, Z) or on the six spillover regressors by one SVD
solve (numpy lstsq, never normal equations), whose singular values also give
the side's condition number. A side with all-zero spillover columns takes
the (1, Z) fit, so the spillover fit nests the local linear one bit for bit.

Every estimator first selects the rows it can use and only then
canonicalizes them (sorts by Z, ties by Y). Local linear, Nadaraya-Watson and
donut fits keep the kernel window |Z| <= h; the spillover regression keeps
|Z| < h + r, the weighted rows plus every row in their strict neighbor
windows; radius cross-validation keeps |Z| < h + max(candidates). A row
outside its estimator's window never enters a sort, a sum, a fit or a fold
draw, so it has no influence on the estimate, bit for bit, and because the
kept rows are canonicalized, estimates are bit-for-bit invariant under
permutations of the input; a sample with strictly increasing Z serves slices.

The neighbor-mean estimator follows the sample-analog definition: strict
window |Z_j - z| < r, self-exclusion of the evaluation point's own row, and
share weights w_plus(z) = |[z-r, z+r] n [0, inf)| / (2r) with
w_plus + w_minus = 1. An empty treated or untreated part gives its share to
the other, so the mean does not depend on where Y's origin sits; a target
with no neighbor at all raises InsufficientSupportError. Targets are taken
NEIGHBOR_BLOCK at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import read_section, real, text
from .errors import (
    CollinearityError,
    ConfigError,
    CrossValidationError,
    EstimationError,
    IllPosedError,
    InsufficientSupportError,
    NumericError,
)
from .kernels import check_kernel, kernel_values
from .population import nu_exact
from .sampling import Sample, substream

ILL_POSED_CONDITION = 1e10
NEIGHBOR_BLOCK = 4096  # targets per block of _NeighborPool.mu; bounds its temporaries


@dataclass(frozen=True)
class EstimatorConfig:
    kernel: str
    h: float
    r: float | None = None
    h_donut: float = 0.0

    def __post_init__(self):
        check_kernel(self.kernel)
        if not 0.0 < self.h <= 1.0:
            raise ConfigError(f"bandwidth h must be in (0, 1], got {self.h}")
        if self.r is not None and not self.r > 0.0:
            raise ConfigError(f"spillover radius r must be positive, got {self.r}")
        if not 0.0 <= self.h_donut < self.h:
            raise ConfigError(
                f"h_donut must lie in [0, h); got h_donut={self.h_donut}, h={self.h}")

    def to_config(self) -> dict:
        doc = {"kernel": self.kernel, "h": self.h}
        if self.r is not None:
            doc["r"] = self.r
        if self.h_donut:
            doc["h_donut"] = self.h_donut
        return doc

    @classmethod
    def from_config(cls, doc: dict) -> "EstimatorConfig":
        return cls(**read_section(doc, "estimator config", {"kernel": text, "h": real},
                                  {"r": real, "h_donut": real}))


@dataclass(frozen=True)
class RddEstimate:
    beta_plus: tuple[float, float]
    beta_minus: tuple[float, float]
    tau_hat: float
    n_plus: int
    n_minus: int
    min_side_support: int


@dataclass(frozen=True)
class SpilloverEstimate:
    beta_plus: tuple[float, ...]
    beta_minus: tuple[float, ...]
    tau_d_hat: float
    delta_hat: float
    gamma_hat: float
    tau_tot_hat: float | None
    condition_numbers: dict
    mu_hat_at_0: float


def _canonical_order(sample: Sample, half_width: float,
                     strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Rows with |Z| <= half_width (|Z| < half_width when strict), sorted by
    Z with ties broken by Y.

    A sample with strictly increasing Z is its own canonical order, so the
    window is a slice. Otherwise the window test takes two comparisons of Z,
    which negation leaves exact: no float array as long as the sample."""
    z, y = sample.z, sample.y
    if not np.all(z[1:] > z[:-1]):  # ties, and -0.0 beside 0.0, need the sort
        below, above = (np.less, np.greater) if strict else (np.less_equal, np.greater_equal)
        keep = below(z, half_width)
        keep &= above(z, -half_width)
        z, y = _sort_rows(z[keep], y[keep])
    a, b = _window_range(z, half_width, strict)
    return z[a:b], y[a:b]


def _window_range(z: np.ndarray, half_width: float, strict: bool = False) -> tuple[int, int]:
    """Positions [a, b) of the sorted z's rows with |Z| <= half_width (|Z| <
    half_width when strict). With half_width h, no row outside has a
    positive kernel weight: |z| > h rounds |z / h| above 1."""
    return (int(np.searchsorted(z, -half_width, side="right" if strict else "left")),
            int(np.searchsorted(z, half_width, side="left" if strict else "right")))


def _sort_rows(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows sorted by Z, ties by Y: distinct Z (no NaN) admit one sorting
    permutation, so one argsort serves unless Z ties (-0.0 == 0.0 among them)."""
    order = np.argsort(z)
    zs = z[order]
    if np.any(zs[1:] == zs[:-1]):
        order = np.lexsort((y, z))
        zs = z[order]
    return zs, y[order]


def _side_split(z: np.ndarray, y: np.ndarray, w: np.ndarray, *extra):
    """The positively weighted rows of (z, y, w, *extra), as views, a plus
    and a minus tuple; ties at 0 are treated. z is sorted, as every caller's
    window is, and each kernel's weight does not rise with |Z|, so the
    positive weights form one run."""
    keep = w > 0.0
    count = np.count_nonzero(keep)
    first = int(np.argmax(keep)) if count else 0
    cols = [a[first:first + count] for a in (z, y, w, *extra)]
    split = int(np.searchsorted(cols[0], 0.0, side="left"))
    return tuple(a[split:] for a in cols), tuple(a[:split] for a in cols)


def _require_linear_support(z_side: np.ndarray, side: str) -> None:
    # min == max, not np.unique: the first np.unique in a process imports numpy.ma
    if z_side.size < 3 or z_side.min() == z_side.max():
        raise InsufficientSupportError(
            side, f"need >= 3 positively weighted observations with non-identical "
                  f"running-variable values on the {side} side, "
                  f"got {z_side.size} points")


def _fit_sides(z, y, w, mu_delta=None, nu_delta=None) -> dict:
    """Per-side weighted least squares, one lstsq on the sqrt-weighted
    design, of Y on (1, Z), or on the six spillover regressors when mu_delta
    and nu_delta are given; {side: (beta, cond, n)}, cond the ratio of the
    design's extreme singular values (inf if the least is zero), of a
    six-regressor design with its columns scaled to unit norm. A side whose
    spillover columns are all zero takes the (1, Z) fit, zero-padded to six
    coefficients. A design holding inf or NaN raises before the SVD, which
    need not converge on one; a six-regressor design above
    ILL_POSED_CONDITION raises before the rank test."""
    extra = () if mu_delta is None else (mu_delta, nu_delta)
    # one side's design at a time: each dies with its _fit_side call
    return {side: _fit_side(side, slice(None), *cols)
            for side, cols in zip(("plus", "minus"), _side_split(z, y, w, *extra))}


def _fit_side(side: str, rows, zs, ys, ws, *cols) -> tuple:
    """The fit on the rows of a side that rows (a mask, or slice(None)) selects."""
    zs = zs[rows]
    cols = [col[rows] for col in cols]
    six = bool(cols) and bool(np.any(cols[0]) or np.any(cols[1]))
    if six:
        if zs.size < 6:
            raise InsufficientSupportError(
                side, f"need >= 6 positively weighted observations on the "
                      f"{side} side, got {zs.size}")
        X = _spillover_design(zs, *cols)
    else:
        _require_linear_support(zs, side)
        X = _spillover_design(zs)
    sw = np.sqrt(ws[rows])
    X *= sw[:, None]
    sw *= ys[rows]  # the weighted outcome
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):  # NaN propagates to both
        raise IllPosedError(f"weighted design on the {side} side holds inf or NaN; "
                            f"Y is not finite, or its sums overflow",
                            condition_number=math.inf)
    if six:
        # unit 2-norm columns (van der Sluis 1969), so the condition number
        # does not carry Y's units; a zero column keeps divisor 1 and its rank loss
        norms = np.sqrt(np.einsum("ij,ij->j", X, X))
        norms[norms == 0.0] = 1.0
        X /= norms
    beta, _, rank, s = np.linalg.lstsq(X, sw, rcond=None)
    if six:
        beta /= norms
    cond = float(s[0] / s[-1]) if s[-1] > 0.0 else math.inf
    if six and cond > ILL_POSED_CONDITION:
        raise IllPosedError(
            f"spillover design on the {side} side has condition number "
            f"{cond:.3e}; this typically signals a near-zero direct "
            f"effect, which makes the neighbor-mean contrast collinear "
            f"with the running variable", condition_number=cond)
    if rank < X.shape[1]:
        raise NumericError(
            f"singular weighted design on the {side} side "
            f"(rank {rank} < {X.shape[1]}, condition number {cond:.3e})")
    if cols and not six:
        beta = np.concatenate([beta, np.zeros(4)])
    return beta, cond, int(zs.size)


def local_linear_rdd(sample: Sample, cfg: EstimatorConfig) -> RddEstimate:
    """Per-side weighted linear fit of Y on (1, Z); tau from the intercepts."""
    return _local_linear(*_canonical_order(sample, cfg.h), cfg)


def _local_linear(z: np.ndarray, y: np.ndarray, cfg: EstimatorConfig) -> RddEstimate:
    fits = _fit_sides(z, y, kernel_values(cfg.kernel, z / cfg.h))
    (bp, _, n_p), (bm, _, n_m) = fits["plus"], fits["minus"]
    return RddEstimate(
        beta_plus=(float(bp[0]), float(bp[1])),
        beta_minus=(float(bm[0]), float(bm[1])),
        tau_hat=float(bp[0] - bm[0]),
        n_plus=n_p, n_minus=n_m, min_side_support=min(n_p, n_m),
    )


def nadaraya_watson_rdd(sample: Sample, cfg: EstimatorConfig) -> float:
    """Difference of kernel-weighted outcome means across the cutoff."""
    z, y = _canonical_order(sample, cfg.h)
    w = kernel_values(cfg.kernel, z / cfg.h)
    (zp, yp, wp), (zm, ym, wm) = _side_split(z, y, w)
    if zp.size < 1:
        raise InsufficientSupportError("plus", "no positively weighted observations with Z >= 0")
    if zm.size < 1:
        raise InsufficientSupportError("minus", "no positively weighted observations with Z < 0")
    return float(np.sum(wp * yp) / np.sum(wp) - np.sum(wm * ym) / np.sum(wm))


def donut_rdd(sample: Sample, cfg: EstimatorConfig) -> RddEstimate:
    """Local linear fit restricted to h_donut <= |Z|; intercepts extrapolate to 0.

    The ring is cut from the canonical |Z| <= h window, whose order it keeps."""
    z, y = _canonical_order(sample, cfg.h)
    ring = (z <= -cfg.h_donut) | (z >= cfg.h_donut)
    return _local_linear(z[ring], y[ring], cfg)


# ------------------------------------------------------------- neighbor mean --


class _NeighborPool:
    """A window's rows in canonical order, less any held out, with prefix
    sums of Y for O(1) window sums.

    z and y must be sorted by Z with ties broken by Y; positions index into
    that order. held (a bool per row, or None) marks rows outside the pool:
    they enter the prefix sums as +0.0 and leave every count, so each window
    sum has the bits of a pool built from the other rows alone, except that
    a sum of -0.0 can read +0.0.
    """

    def __init__(self, z: np.ndarray, y: np.ndarray, held: np.ndarray | None = None):
        self.z, self.y, self.held = z, y, held
        self.split = int(np.searchsorted(z, 0.0, side="left"))  # first treated
        self.cum = np.zeros(z.size + 1)
        np.cumsum(y if held is None else np.where(held, 0.0, y), out=self.cum[1:])
        if held is not None:
            self.n_kept = np.zeros(z.size + 1, np.intp)  # pool rows before each position
            np.cumsum(~held, out=self.n_kept[1:])

    def mu(self, targets: np.ndarray, r: float, exclude_pos: np.ndarray | None = None,
           bounds=None) -> np.ndarray:
        """Share-weighted neighbor means of Y at targets; each target's
        exclude_pos entry is left out of its window. bounds, when given, is
        _window_bounds(self.z, targets, r). Blocks of NEIGHBOR_BLOCK targets
        keep the bits, as every step is per target."""
        out = np.empty(targets.size)
        for start in range(0, targets.size, NEIGHBOR_BLOCK):
            block = slice(start, start + NEIGHBOR_BLOCK)
            a, b = (_window_bounds(self.z, targets[block], r) if bounds is None
                    else (bounds[0][block], bounds[1][block]))
            ex = None if exclude_pos is None else exclude_pos[block]
            own = (None, None)  # per side, the targets whose own row is in their window
            if ex is not None:
                hit = (ex >= a) & (ex < b)
                if self.held is not None:
                    hit &= ~self.held[ex]
                treated = ex >= self.split
                own = (hit & treated, hit & ~treated)
            means, empty = [], []
            # treated neighbors lie in [split, ...), untreated ones in [..., split)
            for clip, mine in zip((np.maximum, np.minimum), own):
                lo, hi = clip(a, self.split), clip(b, self.split)
                total = self.cum[hi]
                total -= self.cum[lo]
                count = hi - lo if self.held is None else self.n_kept[hi] - self.n_kept[lo]
                if mine is not None:
                    total[mine] -= self.y[ex[mine]]
                    count[mine] -= 1
                empty.append(count == 0)
                np.divide(total, count, out=total, where=~empty[-1])
                means.append(total)  # an empty part's entry stays undivided: weight 0 below
            t_mean, u_mean = means
            alone = empty[0] & empty[1]
            if alone.any():
                t = float(targets[block][np.argmax(alone)])
                side = "plus" if t >= 0.0 else "minus"
                raise InsufficientSupportError(
                    side, f"no neighbor within r={r} of the target Z={t} on the {side} side")
            wp = _share_weight_plus(targets[block], r)
            wp[empty[0]] = 0.0  # an empty part gives its share to the other
            wp[empty[1]] = 1.0
            t_mean *= wp
            np.subtract(1.0, wp, out=wp)
            u_mean *= wp
            np.add(t_mean, u_mean, out=out[block])  # w_plus * t_mean + (1 - w_plus) * u_mean
        return out


def _window_bounds(z: np.ndarray, targets: np.ndarray, r: float):
    """Positions [a, b) in the sorted z of each target's strict window
    |Z_j - t| < r."""
    a = np.searchsorted(z, targets - r, side="right")
    # a > b only where r does not move t in floating point: an empty window
    return a, np.maximum(a, np.searchsorted(z, targets + r, side="left"))


def _share_weight_plus(z, r: float):
    """w_plus(z) = |[z-r, z+r] n [0, inf)| / (2r), clipped to [0, 1]."""
    return np.clip((np.asarray(z, dtype=float) + r) / (2.0 * r), 0.0, 1.0)


# --------------------------------------------------- spillover regression --


_ZERO = np.zeros(1)  # the target of the neighbor mean at the cutoff
_ZERO.flags.writeable = False


def _spillover_design(z: np.ndarray, mu_delta: np.ndarray | None = None,
                      nu_delta: np.ndarray | None = None) -> np.ndarray:
    """(1, Z, mu_delta, Z*mu_delta, nu_delta, Z*nu_delta), or (1, Z) alone."""
    X = np.empty((z.size, 2 if mu_delta is None else 6))
    X[:, 0] = 1.0
    X[:, 1] = z
    if mu_delta is not None:
        for j, col in ((2, mu_delta), (4, nu_delta)):
            X[:, j] = col
            np.multiply(z, col, out=X[:, j + 1])
    return X


def _mu_delta(z: np.ndarray, pool: _NeighborPool, r: float, exclude_pos, bounds):
    """mu(z) - mu(0), the neighbor-mean contrast at z, and mu(0); bounds
    holds the pool's window bounds for z and for 0, or (None, None)."""
    mu0 = float(pool.mu(_ZERO, r, None, bounds[1])[0])
    mu = pool.mu(z, r, exclude_pos, bounds[0])
    mu -= mu0
    return mu, mu0


def _nu_delta(z: np.ndarray, r: float) -> np.ndarray:
    """nu(z) - nu(0), the treated-share contrast at z, in closed form."""
    return np.broadcast_to(nu_exact(r, z) - nu_exact(r, 0.0), z.shape)


def _check_spillover(cfg: EstimatorConfig) -> None:
    """Refuse a cfg without a radius."""
    if cfg.r is None:
        raise ConfigError("spillover regression requires cfg.r")


def local_spillover_regression(sample: Sample, cfg: EstimatorConfig) -> SpilloverEstimate:
    """Six-regressor WLS per side: (1, Z, mu_delta, Z*mu_delta, nu_delta,
    Z*nu_delta), with the neighbor-mean contrast estimated and the treated
    share supplied in closed form; delta_hat and gamma_hat average the sides'
    mu_delta and nu_delta coefficients."""
    _check_spillover(cfg)
    c = 2.0 * cfg.r / cfg.h
    if c >= 2.0:
        raise CollinearityError(
            f"2r/h = {c:.3f} >= 2: the treated-share contrast is a linear "
            f"function of Z on the whole fit window and collinear with it")
    z, y = _canonical_order(sample, cfg.h + cfg.r, strict=True)
    a, b = _window_range(z, cfg.h)
    mu_delta, mu0 = _mu_delta(z[a:b], _NeighborPool(z, y), cfg.r, np.arange(a, b), (None, None))
    nu_delta = _nu_delta(z[a:b], cfg.r)
    z, y = z[a:b], y[a:b]
    if not np.may_share_memory(z, sample.z):
        # the window was sorted into new arrays: copy the |Z| <= h rows so
        # the pool and the rest of that window go before the fit; a slice of
        # the caller's sample costs nothing to keep
        z, y = z.copy(), y.copy()
    fits = _fit_sides(z, y, kernel_values(cfg.kernel, z / cfg.h), mu_delta, nu_delta)
    bp, cond_p, n_p = fits["plus"]
    bm, cond_m, n_m = fits["minus"]
    tau_d_hat = float(bp[0] - bm[0])
    delta_hat = float((bp[2] + bm[2]) / 2.0)
    gamma_hat = float((bp[4] + bm[4]) / 2.0)
    if abs(1.0 - delta_hat) > 1e-6:
        tau_tot_hat = float((tau_d_hat + gamma_hat) / (1.0 - delta_hat))
    else:
        tau_tot_hat = None
    return SpilloverEstimate(
        beta_plus=tuple(float(v) for v in bp),
        beta_minus=tuple(float(v) for v in bm),
        tau_d_hat=tau_d_hat, delta_hat=delta_hat, gamma_hat=gamma_hat,
        tau_tot_hat=tau_tot_hat,
        condition_numbers={"plus": cond_p, "minus": cond_m},
        mu_hat_at_0=mu0,
    )


def _fold_errors(z, y, held, a: int, b: int, w, r: float, bounds, nu_delta) -> dict:
    """{side: kernel-weighted squared prediction error} of the spillover fit
    at radius r on the window's rows not held, predicting the held rows in
    [a, b), the |Z| <= h rows, with kernel weights w and contrasts nu_delta."""
    mu_delta, _ = _mu_delta(z[a:b], _NeighborPool(z, y, held), r, np.arange(a, b), bounds)
    errors = {}
    sides = _side_split(z[a:b], y[a:b], w, mu_delta, nu_delta, held[a:b])
    for side, (*cols, test) in zip(("plus", "minus"), sides):
        beta = _fit_side(side, ~test, *cols)[0]
        zs, ys, ws, mu_d, nu_d = (col[test] for col in cols)
        resid = ys - _spillover_design(zs, mu_d, nu_d) @ beta
        errors[side] = float(np.sum(ws * resid**2))
    return errors


def _check_crossval(cfg: EstimatorConfig, candidates, folds: int) -> list[float]:
    """The candidate radii as floats, once they and the fold count are valid."""
    candidates = [float(r) for r in candidates]
    if not candidates:
        raise ConfigError("need at least one candidate radius")
    if folds < 2:
        raise ConfigError(f"cross-validation needs >= 2 folds, got {folds}")
    for r in candidates:
        if not 0.0 < r < cfg.h:
            raise ConfigError(
                f"candidate r={r} outside (0, h={cfg.h}); the fitted ratio "
                f"2r/h must stay below 2")
    return candidates


def cross_validate_r(sample: Sample, cfg: EstimatorConfig, candidates,
                     folds: int, seed: int) -> dict:
    """K-fold selection of the neighborhood radius, per side.

    Folds are a random seed-determined partition of the canonically ordered
    window |Z| < h + max(candidates), the only rows any fold reads. For each
    candidate radius the spillover regression is fit on the training part
    (its neighbor pool is the training data only) and kernel-weighted squared
    prediction error is accumulated over the held-out part, separately for
    each side of the cutoff. A candidate where any fold fails to fit is
    infeasible.

    Each candidate's neighbor bounds and treated-share contrasts are found
    once over the window, and a fold's pool is the window with the fold's
    rows held out of the prefix sums, never a copy.
    """
    candidates = _check_crossval(cfg, candidates, folds)
    z, y = _canonical_order(sample, cfg.h + max(candidates), strict=True)
    if folds > z.size:
        raise CrossValidationError(f"{folds} folds exceed the {z.size} observations "
                                   f"within h + max(candidates) of the cutoff")
    fold_id = (substream(seed, 101).permutation(z.size)
               % folds).astype(np.min_scalar_type(folds - 1))
    a, b = _window_range(z, cfg.h)
    w = kernel_values(cfg.kernel, z[a:b] / cfg.h)

    mse = []  # per candidate; None: infeasible
    for r in candidates:
        nu_delta = _nu_delta(z[a:b], r)
        bounds = (_window_bounds(z, z[a:b], r), _window_bounds(z, _ZERO, r))
        total = {"plus": 0.0, "minus": 0.0}
        try:
            for k in range(folds):
                for side, err in _fold_errors(z, y, fold_id == k, a, b, w, r, bounds,
                                              nu_delta).items():
                    total[side] += err
        except EstimationError:
            total = None
        mse.append(total)

    cv_table = [{"r": r, "feasible": m is not None,
                 "mse_plus": None if m is None else m["plus"],
                 "mse_minus": None if m is None else m["minus"]}
                for r, m in zip(candidates, mse)]
    usable = [row for row in cv_table if row["feasible"]]
    if not usable:
        raise CrossValidationError(
            "no candidate radius admits a full cross-validation fit; "
            "fewer folds or a larger sample is needed")
    r_plus = min(usable, key=lambda row: row["mse_plus"])["r"]
    r_minus = min(usable, key=lambda row: row["mse_minus"])["r"]
    return {"r_plus": r_plus, "r_minus": r_minus, "cv_table": cv_table}


def to_record(estimator: str, cfg: EstimatorConfig, est) -> dict:
    """Uniform JSON-ready record for any estimator output."""
    record = {
        "estimator": estimator,
        "config": cfg.to_config(),
        "coefficients": None,
        "tau_d": None,
        "tau_tot": None,
        "diagnostics": {},
    }
    if isinstance(est, RddEstimate):
        record["coefficients"] = {
            "beta_plus": list(est.beta_plus), "beta_minus": list(est.beta_minus)}
        record["tau_d"] = est.tau_hat
        record["diagnostics"] = {
            "n_plus": est.n_plus, "n_minus": est.n_minus,
            "min_side_support": est.min_side_support}
    elif isinstance(est, SpilloverEstimate):
        record["coefficients"] = {
            "beta_plus": list(est.beta_plus), "beta_minus": list(est.beta_minus)}
        record["tau_d"] = est.tau_d_hat
        record["tau_tot"] = est.tau_tot_hat
        record["diagnostics"] = {
            "delta_hat": est.delta_hat, "gamma_hat": est.gamma_hat,
            "tau_tot_defined": est.tau_tot_hat is not None,
            "condition_numbers": est.condition_numbers,
            "mu_hat_at_0": est.mu_hat_at_0}
    elif isinstance(est, float):
        record["tau_d"] = est
    else:
        raise ConfigError(f"unknown estimate type {type(est).__name__}")
    return record
