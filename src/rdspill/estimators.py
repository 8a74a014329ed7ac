"""Cutoff estimators: local linear, Nadaraya-Watson, donut, and the
six-regressor local spillover regression with its derived quantities.

Every local regression runs through one per-side fit (_fit_sides): weighted
least squares by an orthogonalizing solver (numpy lstsq), never by normal
equations, of Y on (1, Z) or on the six spillover regressors. A side whose
spillover columns are all zero takes the (1, Z) fit, so with vanishing
spillover terms the spillover fit is the local linear fit, bit for bit.

Every estimator first selects the rows it can use and only then
canonicalizes them (sorts by Z, ties by Y). Local linear, Nadaraya-Watson and
donut fits keep the kernel window |Z| <= h; the spillover regression keeps
|Z| < h + r, the weighted rows plus every row in their strict neighbor
windows; radius cross-validation keeps |Z| < h + max(candidates); the
neighbor mean at z keeps |Z| < |z| + r. A row outside its estimator's window
never enters a sort, a sum or a fit, so it has no influence on the estimate,
bit for bit, and because the kept rows are canonicalized, estimates are
bit-for-bit invariant under permutations of the input.

The neighbor-mean estimator follows the sample-analog definition: strict
window |Z_j - z| < r, self-exclusion of the evaluation point's own row, and
share weights w_plus(z) = |[z-r, z+r] n [0, inf)| / (2r) with
w_plus + w_minus = 1. Empty neighbor sets contribute zero to their term.
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
from .kernels import KERNEL_NAMES, kernel_values
from .population import CUTOFF, nu_exact
from .sampling import Sample, substream

ILL_POSED_CONDITION = 1e10
POOLING_MODES = ("average", "plus", "minus")


@dataclass(frozen=True)
class EstimatorConfig:
    kernel: str
    h: float
    r: float | None = None
    h_donut: float = 0.0

    def __post_init__(self):
        if self.kernel not in KERNEL_NAMES:
            raise ConfigError(f"unknown kernel {self.kernel!r}; expected one of {KERNEL_NAMES}")
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

    One argsort of Z serves when the sorted Z has no equal neighbours: a
    Sample holds no NaN, so distinct Z admit one sorting permutation, the
    one lexsort finds. Ties (-0.0 == 0.0 among them) take the lexsort."""
    dist = np.abs(sample.z)
    rows = np.flatnonzero(dist < half_width if strict else dist <= half_width)
    z, y = sample.z[rows], sample.y[rows]
    order = np.argsort(z)
    zs = z[order]
    if np.any(zs[1:] == zs[:-1]):
        order = np.lexsort((y, z))
        zs = z[order]
    return zs, y[order]


def _wls(X: np.ndarray, y: np.ndarray, w: np.ndarray, side: str,
         with_cond: bool = False, ill_posed_check: bool = False):
    """Weighted least squares via lstsq on the sqrt-weighted design.

    Returns (beta, cond). The condition number cond costs a second SVD, so
    it is computed only with with_cond or ill_posed_check, and is None
    otherwise; with ill_posed_check, a value above ILL_POSED_CONDITION
    raises. A design holding inf or NaN raises before any SVD, which need
    not converge on one."""
    sw = np.sqrt(w)
    Xw = X * sw[:, None]
    yw = y * sw
    if not np.isfinite(Xw).all():
        raise IllPosedError(
            f"weighted design on the {side} side holds inf or NaN; a radius "
            f"too small to move Z in floating point makes the treated share "
            f"0/0", condition_number=math.inf)
    cond = float(np.linalg.cond(Xw)) if with_cond or ill_posed_check else None
    if ill_posed_check and (not np.isfinite(cond) or cond > ILL_POSED_CONDITION):
        raise IllPosedError(
            f"spillover design on the {side} side has condition number "
            f"{cond:.3e}; this typically signals a near-zero direct "
            f"effect, which makes the neighbor-mean contrast collinear "
            f"with the running variable", condition_number=cond)
    beta, _, rank, _ = np.linalg.lstsq(Xw, yw, rcond=None)
    if rank < X.shape[1]:
        raise NumericError(
            f"singular weighted design on the {side} side "
            f"(rank {rank} < {X.shape[1]}, condition number "
            f"{np.linalg.cond(Xw):.3e})")
    return beta, cond


def _side_split(z: np.ndarray, y: np.ndarray, w: np.ndarray, *extra):
    """The positively weighted rows of (z, y, w, *extra), as a plus and a
    minus tuple; ties at 0 are treated."""
    keep = w > 0.0
    cols = [a[keep] for a in (z, y, w, *extra)]
    plus = cols[0] >= 0.0
    return tuple(a[plus] for a in cols), tuple(a[~plus] for a in cols)


def _require_linear_support(z_side: np.ndarray, side: str) -> None:
    # min == max, not np.unique: the first np.unique in a process imports numpy.ma
    if z_side.size < 3 or z_side.min() == z_side.max():
        raise InsufficientSupportError(
            side, f"need >= 3 positively weighted observations with non-identical "
                  f"running-variable values on the {side} side, "
                  f"got {z_side.size} points")


def _fit_sides(z, y, w, mu_delta=None, nu_delta=None) -> dict:
    """Per-side WLS on (1, Z), or on the six spillover regressors when
    mu_delta and nu_delta are given; {side: (beta, cond, n)}, cond None
    without them. A side whose spillover columns are all zero takes the
    (1, Z) fit, zero-padded to six coefficients."""
    extra = () if mu_delta is None else (mu_delta, nu_delta)
    out = {}
    for side, (zs, ys, ws, *cols) in zip(("plus", "minus"), _side_split(z, y, w, *extra)):
        if cols and (np.any(cols[0]) or np.any(cols[1])):
            if zs.size < 6:
                raise InsufficientSupportError(
                    side, f"need >= 6 positively weighted observations on the "
                          f"{side} side, got {zs.size}")
            beta, cond = _wls(_spillover_design(zs, *cols), ys, ws, side, ill_posed_check=True)
        else:
            _require_linear_support(zs, side)
            beta, cond = _wls(np.column_stack([np.ones_like(zs), zs]), ys, ws,
                              side, with_cond=bool(cols))
            if cols:
                beta = np.concatenate([beta, np.zeros(4)])
        out[side] = (beta, cond, int(zs.size))
    return out


def local_linear_rdd(sample: Sample, cfg: EstimatorConfig) -> RddEstimate:
    """Per-side weighted linear fit of Y on (1, Z); tau from the intercepts."""
    z, y = _canonical_order(sample, cfg.h)
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
    """Local linear fit restricted to h_donut <= |Z|; intercepts extrapolate to 0."""
    dist = np.abs(sample.z)
    keep = (dist >= cfg.h_donut) & (dist <= cfg.h)
    inner = Sample(z=sample.z[keep], y=sample.y[keep], meta=dict(sample.meta))
    return local_linear_rdd(inner, cfg)


# ------------------------------------------------------------- neighbor mean --


class _NeighborPool:
    """Outcome pool in canonical order supporting O(log n) window sums.

    z and y must already be sorted by Z with ties broken by Y; exclude
    positions index into that order.
    """

    def __init__(self, z: np.ndarray, y: np.ndarray):
        self.z = z
        self.y = y
        self.cum = np.concatenate([[0.0], np.cumsum(y)])
        self.split = int(np.searchsorted(z, 0.0, side="left"))  # first treated

    def window_means(self, targets: np.ndarray, r: float,
                     exclude_pos: np.ndarray | None = None):
        """Per-target treated/untreated neighbor means over |Z_j - t| < r."""
        a = np.searchsorted(self.z, targets - r, side="right")
        b = np.searchsorted(self.z, targets + r, side="left")
        at = np.maximum(a, self.split)
        bu = np.minimum(b, self.split)
        t_cnt = np.maximum(b - at, 0).astype(float)
        u_cnt = np.maximum(bu - a, 0).astype(float)
        t_sum = np.where(b > at, self.cum[b] - self.cum[np.minimum(at, b)], 0.0)
        u_sum = np.where(bu > a, self.cum[np.maximum(bu, a)] - self.cum[a], 0.0)
        if exclude_pos is not None:
            inside = (exclude_pos >= a) & (exclude_pos < b)
            treated = exclude_pos >= self.split
            hit_t = inside & treated
            hit_u = inside & ~treated
            t_sum[hit_t] -= self.y[exclude_pos[hit_t]]
            t_cnt[hit_t] -= 1.0
            u_sum[hit_u] -= self.y[exclude_pos[hit_u]]
            u_cnt[hit_u] -= 1.0
        t_mean = np.divide(t_sum, t_cnt, out=np.zeros_like(t_sum), where=t_cnt > 0)
        u_mean = np.divide(u_sum, u_cnt, out=np.zeros_like(u_sum), where=u_cnt > 0)
        return t_mean, u_mean, t_cnt.astype(int), u_cnt.astype(int)


def _share_weight_plus(z, r: float):
    """w_plus(z) = |[z-r, z+r] n [0, inf)| / (2r), clipped to [0, 1]."""
    return np.clip((np.asarray(z, dtype=float) + r) / (2.0 * r), 0.0, 1.0)


def _mu_values(pool: _NeighborPool, targets: np.ndarray, r: float,
               exclude_pos: np.ndarray | None = None) -> np.ndarray:
    t_mean, u_mean, _, _ = pool.window_means(targets, r, exclude_pos)
    wp = _share_weight_plus(targets, r)
    return wp * t_mean + (1.0 - wp) * u_mean


def mu_hat(sample: Sample, r: float, z: float) -> dict:
    """Share-weighted neighbor mean of Y around z.

    When z coincides with an observed running-variable value, the first such
    observation is excluded as the evaluation point's own row (with
    continuously distributed Z, exact coincidence identifies it uniquely).
    """
    if not r > 0.0:
        raise ConfigError(f"neighborhood radius must be positive, got {r}")
    pool = _NeighborPool(*_canonical_order(sample, abs(z) + r, strict=True))
    exclude = None
    hit = np.searchsorted(pool.z, z, side="left")
    if hit < pool.z.size and pool.z[hit] == z:
        exclude = np.array([hit])
    targets = np.array([float(z)])
    t_mean, u_mean, t_cnt, u_cnt = pool.window_means(targets, r, exclude)
    wp = float(_share_weight_plus(z, r))
    return {
        "value": float(wp * t_mean[0] + (1.0 - wp) * u_mean[0]),
        "n_plus_neighbors": int(t_cnt[0]),
        "n_minus_neighbors": int(u_cnt[0]),
    }


# --------------------------------------------------- spillover regression --


def _spillover_design(z: np.ndarray, mu_delta: np.ndarray, nu_delta: np.ndarray) -> np.ndarray:
    return np.column_stack([
        np.ones_like(z), z,
        mu_delta, z * mu_delta,
        nu_delta, z * nu_delta,
    ])


def _kernel_rows(pool: _NeighborPool, h: float, kernel: str):
    """z, y, kernel weights and own pool positions of the pool's rows with
    |Z| <= h."""
    a = int(np.searchsorted(pool.z, -h, side="left"))
    b = int(np.searchsorted(pool.z, h, side="right"))
    z = pool.z[a:b]
    return z, pool.y[a:b], kernel_values(kernel, z / h), np.arange(a, b)


def _spillover_regressors(z: np.ndarray, pool: _NeighborPool, r: float,
                          exclude_pos: np.ndarray | None):
    mu = np.broadcast_to(np.asarray(_mu_values(pool, z, r, exclude_pos),
                                    dtype=float), z.shape)
    mu0 = float(_mu_values(pool, np.array([0.0]), r, None)[0])
    nu0 = nu_exact(CUTOFF, r, 0.0)
    nu_delta = np.broadcast_to(
        np.asarray(nu_exact(CUTOFF, r, z), dtype=float) - nu0, z.shape)
    return mu - mu0, nu_delta, mu0


def local_spillover_regression(sample: Sample, cfg: EstimatorConfig,
                               pooling: str = "average") -> SpilloverEstimate:
    """Six-regressor WLS per side: (1, Z, mu_delta, Z*mu_delta, nu_delta,
    Z*nu_delta), with the neighbor-mean contrast estimated and the treated
    share supplied in closed form.
    """
    if cfg.r is None:
        raise ConfigError("spillover regression requires cfg.r")
    if pooling not in POOLING_MODES:
        raise ConfigError(f"pooling must be one of {POOLING_MODES}, got {pooling!r}")
    c = 2.0 * cfg.r / cfg.h
    if c >= 2.0:
        raise CollinearityError(
            f"2r/h = {c:.3f} >= 2: the treated-share contrast is a linear "
            f"function of Z on the whole fit window and collinear with it")
    pool = _NeighborPool(*_canonical_order(sample, cfg.h + cfg.r, strict=True))
    z, y, w, own = _kernel_rows(pool, cfg.h, cfg.kernel)
    mu_delta, nu_delta, mu0 = _spillover_regressors(z, pool, cfg.r, own)
    fits = _fit_sides(z, y, w, mu_delta, nu_delta)
    bp, cond_p, n_p = fits["plus"]
    bm, cond_m, n_m = fits["minus"]
    tau_d_hat = float(bp[0] - bm[0])
    if pooling == "plus":
        delta_hat, gamma_hat = float(bp[2]), float(bp[4])
    elif pooling == "minus":
        delta_hat, gamma_hat = float(bm[2]), float(bm[4])
    else:
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


def cross_validate_r(sample: Sample, cfg: EstimatorConfig, candidates,
                     folds: int, seed: int) -> dict:
    """K-fold selection of the neighborhood radius, per side.

    Folds are a random seed-determined partition of the canonically ordered
    sample. For each candidate radius the spillover regression is fit on the
    training part (its neighbor pool is the training data only) and
    kernel-weighted squared prediction error is accumulated over the held-out
    part, separately for each side of the cutoff. A candidate where any fold
    fails to fit is infeasible.
    """
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
    n = sample.n
    if folds > n:
        raise CrossValidationError(f"{folds} folds exceed the {n} observations")
    reach = cfg.h + max(candidates)
    z, y = _canonical_order(sample, reach, strict=True)
    # Fold ids index the canonical order of the whole sample, where the rows
    # left of the window (Z <= -reach) come first.
    n_left = int(np.count_nonzero(sample.z <= -reach))
    fold_id = substream(seed, 101).permutation(n)[n_left:n_left + z.size] % folds
    w = kernel_values(cfg.kernel, z / cfg.h)

    mse = [{"plus": 0.0, "minus": 0.0} for _ in candidates]  # None: infeasible
    for k in range(folds):
        test = fold_id == k
        pool = _NeighborPool(z[~test], y[~test])
        z_fit, y_fit, w_fit, own = _kernel_rows(pool, cfg.h, cfg.kernel)
        held = dict(zip(("plus", "minus"), _side_split(z[test], y[test], w[test])))
        for i, r in enumerate(candidates):
            if mse[i] is None:
                continue
            try:
                mu_delta, nu_delta, _ = _spillover_regressors(z_fit, pool, r, own)
                fits = _fit_sides(z_fit, y_fit, w_fit, mu_delta, nu_delta)
            except EstimationError:
                mse[i] = None
                continue
            for side, (zs, ys, ws) in held.items():
                mu_d, nu_d, _ = _spillover_regressors(zs, pool, r, None)
                resid = ys - _spillover_design(zs, mu_d, nu_d) @ fits[side][0]
                mse[i][side] += float(np.sum(ws * resid**2))

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
