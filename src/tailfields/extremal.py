"""Spatial extremal indices: five estimators plus exact closed forms.

The five notions (classical, block, run per corner, tail-field per
corner, half-space) agree only under extra conditions, so each gets its
own estimator.  They are tested against the models' ``exact_indices``:
the stencil models (IID noise, the max-moving averages) and their mixtures
read them off their spectral atoms, on the ``lattice`` regions that
``theta_from_tail_samples`` reads too.

The block and run estimators take the level u from the caller, as
``MaxLinear.run_index`` does; ``level_u`` solves n P(|X(0)| > u) = tau
for it.  Only the classical index keeps (n, tau): -log P(M_n <= u) / tau.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .lattice import (
    HalfSpaceRegion,
    InvariantOrder,
    OrthantRegion,
    as_point,
    corner_point,
    pos_block,
)
from .gaussian import fbm_grid_batch, fbm_variance_table
from .models import AdditiveFBM, MaxMovingAverage, Model, check_level
from .rng import RngStream, map_chunks
from .simulate import block_max_batch, run_max_batch
from .tailfield import MCEstimate, TailBatch, _exponent_gap, _gap_estimates


def level_u(spec: Model, n: Sequence[int], tau: float) -> float:
    """Threshold u with (prod n) P(|X(0)| > u) = tau, by bisecting the exact marginal."""
    n = as_point(n)
    npts = math.prod(n)
    if not 0 < tau < npts:
        raise ValueError(f"tau={tau} must lie in (0, {npts}), the window cardinality")
    target = tau / npts

    def f(u):
        return spec.exceed_prob(u) - target

    hi = 1.0
    while f(hi) > 0:
        hi *= 4.0
        if hi > 1e300:
            raise RuntimeError("failed to bracket the level")
    lo = hi / 4.0
    while f(lo) < 0:
        lo /= 4.0
        if lo < 1e-300:
            raise RuntimeError("failed to bracket the level")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


class DegenerateEstimateError(RuntimeError):
    pass


def theta_classical_empirical(
    spec: Model,
    n: Sequence[int],
    tau: float,
    n_replicates: int,
    rng: RngStream,
    chunk: int = 32,
    threads: int = 1,
) -> MCEstimate:
    """Classical extremal index via -log P(no exceedance on [0:n-1]) / tau.

    Block maxima come from ``block_max_batch``: for IID noise and
    max-moving averages one Frechet variable per replicate, scaled by the
    exponent V of the block (``exponent``), so P(M <= u) = exp(-V u^-alpha)
    and the exact finite-n index is V u^-alpha / tau; other models build the
    fields.
    """
    n = as_point(n)
    u = level_u(spec, n, tau)
    window = pos_block(n)

    def work(start, count, stream):
        m = block_max_batch(spec, window, count, stream.generator())
        return int((m <= u).sum())

    est = MCEstimate.proportion(
        sum(map_chunks(work, n_replicates, chunk, rng, threads)), n_replicates
    )
    p = est.value
    if p <= 0.0 or p >= 1.0:
        raise DegenerateEstimateError(
            f"P(M <= u) estimated as {p}; adjust tau or n"
        )
    return MCEstimate(-math.log(p) / tau, est.se / (p * tau), n_replicates)


def theta_block_empirical(
    spec: Model,
    r: Sequence[int],
    u: float,
    n_replicates: int,
    rng: RngStream,
    threads: int = 1,
) -> MCEstimate:
    """Block extremal index: exceedance rate of block maxima over blocks.

    Estimates P(M_X([0:r-1]) > u) by simulation; the denominator
    (prod r) P(|X(0)| > u) uses the exact marginal.  The block maxima come
    from ``block_max_batch`` as in ``theta_classical_empirical``.
    """
    check_level(u)
    r = as_point(r)
    window = pos_block(r)

    def work(start, count, stream):
        m = block_max_batch(spec, window, count, stream.generator())
        return int((m > u).sum())

    est = MCEstimate.proportion(
        sum(map_chunks(work, n_replicates, 2048, rng, threads)), n_replicates
    )
    if est.value <= 0.0:
        raise DegenerateEstimateError("no block exceedances observed")
    den = math.prod(r) * spec.exceed_prob(u)
    return MCEstimate(est.value / den, est.se / den, n_replicates)


def theta_run_empirical(
    spec: Model,
    corner: Sequence[int],
    r: Sequence[int],
    u: float,
    n_replicates: int,
    rng: RngStream,
    chunk: int = 2048,
    threads: int = 1,
) -> MCEstimate:
    """Run extremal index at a hypercube corner, at level u.

    Conditions on an exceedance of u at the corner vertex of the block
    [0:r-1] and estimates the probability of no other exceedance inside
    the block, over ``n_replicates`` maxima of the block minus the corner
    drawn given that exceedance by ``run_max_batch``: max-linear models
    and their mixtures draw them from their law, other models build the
    conditional fields (a ``TypeError`` for a model without an exact
    conditional sampler).  For max-linear models ``MaxLinear.run_index``
    gives the exact value.
    """
    corner, r = as_point(corner), as_point(r)
    if any(x < 2 for x in r):
        raise ValueError("need r >= 2 componentwise")
    check_level(u)
    window = pos_block(r)
    cpt = corner_point(corner, r)

    def work(start, count, stream):
        m = run_max_batch(spec, window, cpt, u, count, stream.generator())
        return int((m <= u).sum())

    hits = sum(map_chunks(work, n_replicates, chunk, rng, threads))
    return MCEstimate.proportion(hits, n_replicates)


# -- tail-field based indices --------------------------------------------------

def theta_from_tail_samples(
    samples: TailBatch, region: OrthantRegion | HalfSpaceRegion
) -> tuple[MCEstimate, MCEstimate]:
    """P(sup of |Y| over the region <= 1) from tail-field draws.

    Returns ``(theta, shell)``, two proportions over the same draws: the
    index estimate, and the share of draws with |Y| > 1 somewhere on the
    truncation shell |t|_inf = bound, a diagnostic for the region being
    too small.
    """
    n = len(samples)
    if not n:
        raise ValueError("no samples")
    pts = region.points()
    for p in pts:
        if not samples.lags.contains(p):
            raise ValueError(f"region point {p} outside the lag window")
    shell = np.array([max(map(abs, p)) == region.bound for p in pts], dtype=bool)
    norms = samples.norms_at(pts)
    ok = int((norms.max(axis=1) <= 1.0).sum())
    on_shell = int((norms[:, shell] > 1.0).any(axis=1).sum())
    return MCEstimate.proportion(ok, n), MCEstimate.proportion(on_shell, n)


def mma_index_table(a) -> dict:
    """``MaxMovingAverage(a=a).exact_indices()``, as ``perfbench/test_checks.py`` names it."""
    return MaxMovingAverage(a=a).exact_indices()


# -- Brown-Resnick block index by Monte Carlo ----------------------------------

def br_theta_block_profile(
    variogram,
    M_list: Sequence[int],
    order: InvariantOrder,
    n_mc: int,
    rng: RngStream,
    chunk: int = 64,
    threads: int = 1,
) -> dict[int, MCEstimate]:
    """Block index of a Brown-Resnick field at several truncation radii.

    Per replicate and truncation M the value is
    max(V(0), max_(t<0, |t|<=M) V(t)) - max_(t<0, |t|<=M) V(t) with
    V = exp(W - sigma2/2), the tail field's joint CDF at level 1 on
    ``HalfSpaceRegion(order, M)``; all truncations share the Gaussian draw,
    so the per-replicate value is nonincreasing in M pathwise.  Valid when
    the Gaussian drift criterion holds (W(t) - sigma2(t)/2 diverges to
    -infinity), as it does for additive fractional Brownian motion with any
    Hurst parameters.

    For ``AdditiveFBM``, V is a product of per-axis factors, so its maximum
    over each of the region's ``boxes()`` is found from per-axis maxima
    (``_axis_block_gaps``): O(dim M) work per replicate instead of O(M^dim),
    with output bit-identical to the dense route.  Other variograms take
    the dense route, ``tailfield._exponent_gap`` on every site.
    """
    M_list = sorted(set(int(m) for m in M_list))
    if M_list[0] < 1:
        raise ValueError("truncation radii must be >= 1")
    if isinstance(variogram, AdditiveFBM):
        if variogram.dim != order.dim:
            raise ValueError(f"order has dimension {order.dim}, the variogram {variogram.dim}")
        work = _axis_block_gaps(variogram, order, M_list)
        estimates = _gap_estimates(map_chunks(work, n_mc, chunk, rng, threads), n_mc)
    else:
        pts = HalfSpaceRegion(order, M_list[-1]).point_array()
        radii = np.abs(pts).max(axis=1)
        masks = [radii <= m for m in M_list]
        estimates = _exponent_gap(variogram, pts, None, masks, n_mc, rng, chunk, threads)
    return dict(zip(M_list, estimates))


def _axis_block_gaps(vg: AdditiveFBM, order: InvariantOrder, M_list: list[int]):
    """Chunk worker of ``br_theta_block_profile`` for additive fBm.

    Each axis's fBm path is drawn over the range, and in the order, that
    ``GaussianFieldSampler`` uses on the half-space, so the generator stream
    is the dense route's.  log V = sum_i a_i(t_i) with a_i = path_i -
    |t_i|^(2 H_i)/2, so on each box of ``HalfSpaceRegion(order, m).boxes()``
    V is largest where every a_i is largest on the box's range of axis i.
    V is evaluated at each box's maximiser with the dense route's float
    operations (w and sigma2 added from 0.0 in axis order; axes fixed at 0
    add exact zeros and are left out), so the maxima, and the per-replicate
    gaps max(1, m) - m, are the same floats.
    """
    profile = [HalfSpaceRegion(order, m).boxes() for m in M_list]
    boxes = profile[-1]
    spans = [(min(0, *(b.lo[i] for b in boxes)), max(0, *(b.hi[i] for b in boxes)))
             for i in range(vg.dim)]
    tables = [fbm_variance_table(h, lo, hi) for h, (lo, hi) in zip(vg.hurst, spans)]
    halves = [0.5 * t for t in tables]
    # per box, its axes not fixed at 0, each keyed by (axis, lo, hi) at the
    # largest radius; per key, the path columns it covers at every radius
    box_keys, columns = [], {}
    for j, box in enumerate(boxes):
        keys = [(i, lo, hi) for i, (lo, hi) in enumerate(zip(box.lo, box.hi)) if lo or hi]
        for i, lo, hi in keys:
            columns[i, lo, hi] = [slice(b[j].lo[i] - spans[i][0], b[j].hi[i] - spans[i][0] + 1)
                                  for b in profile]
        box_keys.append(keys)
    starts = {key: np.array([[s.start] for s in sl]) for key, sl in columns.items()}

    def work(start, count, stream):
        gen = stream.generator()
        paths = [fbm_grid_batch(h, lo, hi, count, gen)
                 for h, (lo, hi) in zip(vg.hurst, spans)]
        a = [path - half for path, half in zip(paths, halves)]
        # the winning path column of each key, one row per radius
        winners = {
            key: np.stack([a[key[0]][:, s].argmax(axis=1) for s in sl]) + starts[key]
            for key, sl in columns.items()
        }
        rows = np.arange(count)
        maxima = []
        for keys in box_keys:
            w = s2 = 0.0
            for key in keys:
                col = winners[key]
                w = w + paths[key[0]][rows, col]
                s2 = s2 + tables[key[0]][col]
            maxima.append(np.exp(w - 0.5 * s2))
        m = np.max(maxima, axis=0)
        diff = np.maximum(1.0, m) - m  # V(0) = exp(0.0) = 1.0
        return [(d.sum(), (d**2).sum()) for d in diff]

    return work
