"""Gaussian building blocks: the variogram specs (``AdditiveFBM``,
``CustomVariogram``), exact fractional Brownian motion, additive fBm
fields, variogram-driven Gaussian samplers, and Brown-Resnick fields.

fBm is sampled exactly (Cholesky factor of the stationary increment
covariance), not through spectral approximations, because the extremal
quantities downstream are sensitive to the exact Gaussian law.  Brown-
Resnick fields are sampled exactly too, by extremal functions, with no
truncation of the Poisson series; the walk takes the first arrival at its
first site as an argument, which is how ``BrownResnick._given_root``
draws fields given the value at one site.  ``br_tail_field_batch`` draws
the limit tail field.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .lattice import Window, as_point


@dataclass(frozen=True)
class AdditiveFBM:
    """Sum of independent fractional Brownian motions, one per axis.

    Variogram ``gamma(t) = sum_l |t_l|^(2 H_l)``; the field vanishes at
    the origin, so the variance equals the variogram.
    """

    hurst: tuple[float, ...]

    def __post_init__(self):
        h = tuple(float(x) for x in self.hurst)
        if not h or any(not 0 < x < 1 for x in h):
            raise ValueError("each Hurst parameter must lie in (0,1)")
        object.__setattr__(self, "hurst", h)

    @property
    def dim(self) -> int:
        return len(self.hurst)

    def gamma(self, t) -> float:
        return float(sum(abs(x) ** (2 * h) for x, h in zip(t, self.hurst)))

    def sigma2(self, t) -> float:
        return self.gamma(t)


@dataclass(frozen=True)
class CustomVariogram:
    """Arbitrary stationary-increment Gaussian structure.

    ``gamma(t)`` is the variogram and ``sigma2(t)`` the variance of W(t);
    gamma must vanish at the origin.  Not serializable.
    """

    dim: int
    gamma: Callable[[tuple[int, ...]], float]
    sigma2: Callable[[tuple[int, ...]], float]


VariogramSpec = Union[AdditiveFBM, CustomVariogram]


# held around fgn_cholesky lookups: map_chunks workers asking for a new
# factor at once would otherwise each miss the cache and compute it
_FGN_LOCK = threading.Lock()

# columns per gathered block in GaussianFieldSampler.draw
_DRAW_BLOCK = 512

# most sites the walk takes: one 60x60 additive-fBm field took 0.7 s on one core
MAX_WALK_SITES = 3600


@functools.lru_cache(maxsize=128)
def fgn_cholesky(hurst: float, n: int) -> np.ndarray:
    """Lower Cholesky factor of the covariance of n fGn increments."""
    if not 0 < hurst < 1:
        raise ValueError("Hurst parameter must lie in (0,1)")
    if n < 1:
        raise ValueError("need at least one increment")
    k = np.arange(n, dtype=float)
    h2 = 2 * hurst
    rho = 0.5 * ((k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2)
    i = np.arange(n)
    cov = rho[np.abs(i[:, None] - i[None, :])]
    L = np.linalg.cholesky(cov)
    L.flags.writeable = False
    return L


def fbm_grid_batch(hurst: float, lo: int, hi: int, count: int, gen) -> np.ndarray:
    """Exact fBm on the integer grid lo..hi, anchored so fBm(0) = 0.

    The grid is extended to contain 0 internally; the returned array has
    one column per grid point of [lo, hi].
    """
    lo2, hi2 = min(lo, 0), max(hi, 0)
    n = hi2 - lo2
    if n == 0:
        return np.zeros((count, 1))
    with _FGN_LOCK:
        L = fgn_cholesky(hurst, n)
    inc = gen.standard_normal((count, n)) @ L.T
    s = np.zeros((count, n + 1))
    np.cumsum(inc, axis=1, out=s[:, 1:])
    s -= s[:, [-lo2]]  # anchor at position 0
    return s[:, lo - lo2 : hi - lo2 + 1]


def fbm_variance_table(hurst: float, lo: int, hi: int) -> np.ndarray:
    """``|c|^(2 H)`` for c = lo..hi, with the float operations of
    ``AdditiveFBM.gamma``."""
    return np.array([abs(c) ** (2 * hurst) for c in range(lo, hi + 1)])


def _variogram_at(variogram: VariogramSpec, lags: np.ndarray) -> np.ndarray:
    """gamma at each row of an ``(n, dim)`` int array of lags.

    For additive fBm the sum is built from per-axis ``fbm_variance_table``s,
    added from 0.0 in axis order; otherwise gamma is called once per
    distinct lag.
    """
    if isinstance(variogram, AdditiveFBM):
        out = np.zeros(len(lags))
        for axis, h in enumerate(variogram.hurst):
            col = lags[:, axis]
            lo, hi = int(col.min()), int(col.max())
            out += fbm_variance_table(h, lo, hi)[col - lo]
        return out
    uniq, inverse = np.unique(lags, axis=0, return_inverse=True)
    vals = np.array([float(variogram.gamma(tuple(int(x) for x in d))) for d in uniq])
    return vals[inverse.ravel()]


class GaussianFieldSampler:
    """Batch sampler for W on a fixed finite point set of Z^k.

    ``points`` is an ``(n, dim)`` int array or a sequence of points.  The
    joint law is pinned down by the variogram and pointwise variance:
    Cov(W(s), W(t)) = (sigma2(s) + sigma2(t) - gamma(s - t)) / 2.  For
    additive fBm the draw factorizes along axes; otherwise a dense
    Cholesky factor of the covariance is prepared once.
    """

    def __init__(self, variogram: VariogramSpec, points):
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("need a nonempty (n, dim) set of points")
        if pts.shape[1] != variogram.dim:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, the variogram {variogram.dim}"
            )
        self.points = pts
        self.variogram = variogram
        if isinstance(variogram, AdditiveFBM):
            self.sigma2 = _variogram_at(variogram, pts)  # sigma2 == gamma
            self._axis_ranges = []
            self._axis_cols = []
            for axis in range(variogram.dim):
                col = pts[:, axis]
                lo, hi = min(int(col.min()), 0), max(int(col.max()), 0)
                self._axis_ranges.append((lo, hi))
                self._axis_cols.append(col - lo)
            self._chol = None
        else:
            s2 = variogram.sigma2
            self.sigma2 = np.array([float(s2(tuple(int(x) for x in p))) for p in pts])
            diffs = (pts[:, None] - pts[None]).reshape(-1, variogram.dim)
            g = _variogram_at(variogram, diffs).reshape(len(pts), -1)
            cov = 0.5 * (self.sigma2[:, None] + self.sigma2[None, :] - g)
            cov[np.diag_indices(len(pts))] += 1e-12  # numerical jitter
            self._chol = np.linalg.cholesky(cov)

    def draw(self, count: int, gen) -> np.ndarray:
        """(count, n_points) Gaussian draw."""
        if self._chol is not None:
            z = gen.standard_normal((count, len(self.points)))
            return z @ self._chol.T
        out = np.zeros((count, len(self.points)))
        vg: AdditiveFBM = self.variogram
        for axis in range(vg.dim):
            lo, hi = self._axis_ranges[axis]
            path = fbm_grid_batch(vg.hurst[axis], lo, hi, count, gen)
            cols = self._axis_cols[axis]
            # in column blocks: freeing output-sized temporaries on every call
            # lets glibc trim the heap, and the next call faults it back in
            for j in range(0, len(cols), _DRAW_BLOCK):
                out[:, j : j + _DRAW_BLOCK] += path[:, cols[j : j + _DRAW_BLOCK]]
        return out


def _extremal_walk(
    variogram: VariogramSpec, pts: np.ndarray, e: np.ndarray, gen
) -> np.ndarray:
    """Brown-Resnick fields on the ordered rows of ``pts``, by extremal functions.

    The algorithm of Dombry, Engelke & Oesting (Biometrika 2016) visits the
    sites x_1..x_N in turn.  At x_n it walks the Poisson points
    zeta = 1/Gamma in decreasing order while zeta > Z(x_n), drawing each
    spectral function from its law given a peak at x_n,
    Y(.) = exp(W(.) - W(x_n) - gamma(. - x_n)/2), and keeps zeta * Y only
    if it stays below Z at every earlier site (otherwise that function was
    already counted there).  The result is exact, with no truncation, and
    costs about one spectral draw per site per replicate.  Replicates that
    are still walking at x_n share one vectorised draw per round.

    ``e`` holds each replicate's first arrival Gamma_1 at x_1, so Z(x_1) is
    1/e (``e`` is advanced in place); later sites draw their own.  Returns
    a ``(len(e), len(pts))`` array, in memory linear in the sites; more than
    ``MAX_WALK_SITES`` sites raise ``ValueError``.
    """
    count, npts = len(e), len(pts)
    if npts > MAX_WALK_SITES:
        raise ValueError(f"Brown-Resnick window of {npts} sites: exact sampling "
                         f"takes at most {MAX_WALK_SITES}")
    sampler = GaussianFieldSampler(variogram, pts)
    z = np.zeros((count, npts))
    for n in range(npts):
        if n:
            e = gen.standard_exponential(count)  # zeta = 1/e
        half = 0.5 * _variogram_at(variogram, pts[n] - pts)
        idx = np.flatnonzero(e * z[:, n] < 1.0)
        while idx.size:
            w = sampler.draw(idx.size, gen)
            y = np.exp(w - w[:, n : n + 1] - half) / e[idx, None]
            zi = z[idx]
            new = np.all(y[:, :n] < zi[:, :n], axis=1)
            z[idx[new]] = np.maximum(zi[new], y[new])
            e[idx] += gen.standard_exponential(idx.size)
            idx = idx[e[idx] * z[idx, n] < 1.0]
    return z


def brown_resnick_batch(
    variogram: VariogramSpec, window: Window, count: int, gen
) -> np.ndarray:
    """Exact batch of Brown-Resnick fields on a window: the extremal-function
    walk of ``_extremal_walk`` over the sites in row-major order."""
    e = gen.standard_exponential(count)
    z = _extremal_walk(variogram, window.point_array(), e, gen)
    return z.reshape(count, *window.shape)


def br_tail_field_batch(
    variogram: VariogramSpec, points, count: int, gen
) -> np.ndarray:
    """Exact draws of the Brown-Resnick tail field on a finite point set.

    Uses the representation Y(t) = P * V~(t) / V~(0) with P standard
    Pareto(1) independent of W and V~(t) = exp(W~(t) - sigma2(t)/2),
    where W~ is W mean-shifted by Cov(W(.), W(0)) (the size bias induced
    by conditioning on a large value at the origin).  Reproduces the
    closed-form finite-dimensional distributions of the tail field.
    """
    pts = [as_point(p) for p in points]
    dim = len(pts[0])
    origin = (0,) * dim
    if origin not in pts:
        raise ValueError("point set must contain the origin")
    sampler = GaussianFieldSampler(variogram, pts)
    # Cov(W(t), W(0)); exactly 0 for additive fBm, where W(0) = 0
    s2_0 = float(variogram.sigma2(origin))
    tilt = 0.5 * (sampler.sigma2 + s2_0 - _variogram_at(variogram, sampler.points))
    w = sampler.draw(count, gen) + tilt
    logv = w - 0.5 * sampler.sigma2[None, :]
    logv -= logv[:, [pts.index(origin)]]
    p = 1.0 / (1.0 - gen.random(count))
    return p[:, None] * np.exp(logv)
