"""Spatial extremal indices: five estimators plus exact closed forms.

The five notions (classical, block, run per corner, tail-field per
corner, half-space) agree only under extra conditions, so each gets its
own estimator.  For the diagonal max-moving-average family the classical
and run indices have exact rational closed forms, which the empirical
estimators are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import brentq

from .gaussian import GaussianFieldSampler
from .lattice import (
    InvariantOrder,
    as_point,
    centered_box,
    corner_point,
    pos_block,
)
from .models import MMA_OFFSETS, MaxMovingAverage, Model, model_digest
from .rng import RngStream, map_chunks
from .simulate import (
    TooFewEventsError,
    block_max_batch,
    conditional_field_batch,
    field_batch,
)
from .tailfield import MCEstimate, TailBatch


def level_u(spec: Model, n: Sequence[int], tau: float) -> float:
    """Threshold u with (prod n) P(|X(0)| > u) = tau, via the exact marginal."""
    n = as_point(n)
    npts = math.prod(n)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau >= npts:
        raise ValueError(f"tau={tau} >= window cardinality {npts}: no valid level")
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
    return float(brentq(f, lo, hi, xtol=1e-12, rtol=1e-14))


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

    Block maxima come from ``block_max_batch``: for max-moving averages the
    maximum is max_s c_s Z(s) over the noise, c_s the largest weight through
    which site s reaches the block, and IID noise needs only each field's
    largest uniform; other models build the fields.  Either way the maxima
    equal those of the built fields bit for bit.
    """
    n = as_point(n)
    u = level_u(spec, n, tau)
    window = pos_block(n)

    def work(start, count, stream):
        m = block_max_batch(spec, window, count, stream.generator())
        return int((m <= u).sum())

    hits = sum(map_chunks(work, n_replicates, chunk, rng, threads))
    p = hits / n_replicates
    if p <= 0.0 or p >= 1.0:
        raise DegenerateEstimateError(
            f"P(M <= u) estimated as {p}; adjust tau or n"
        )
    se_p = math.sqrt(p * (1 - p) / n_replicates)
    return MCEstimate(
        value=-math.log(p) / tau, se=se_p / (p * tau), n=n_replicates
    )


def theta_block_empirical(
    spec: Model,
    n: Sequence[int],
    r: Sequence[int],
    tau: float,
    n_replicates: int,
    rng: RngStream,
    chunk: int = 2048,
    threads: int = 1,
) -> MCEstimate:
    """Block extremal index: exceedance rate of block maxima over blocks.

    Estimates P(M_X([0:r-1]) > u) by simulation; the denominator
    (prod r) P(|X(0)| > u) uses the exact marginal.  The block maxima come
    from ``block_max_batch`` as in ``theta_classical_empirical``
    (max_s c_s Z(s) for max-moving averages, the fields themselves for
    models without a noise shortcut).
    """
    n, r = as_point(n), as_point(r)
    if any(a >= b for a, b in zip(r, n)):
        raise ValueError("need r < n componentwise")
    u = level_u(spec, n, tau)
    window = pos_block(r)

    def work(start, count, stream):
        m = block_max_batch(spec, window, count, stream.generator())
        return int((m > u).sum())

    hits = sum(map_chunks(work, n_replicates, chunk, rng, threads))
    p = hits / n_replicates
    if p <= 0.0:
        raise DegenerateEstimateError("no block exceedances observed")
    den = math.prod(r) * spec.exceed_prob(u)
    se_p = math.sqrt(p * (1 - p) / n_replicates)
    return MCEstimate(value=p / den, se=se_p / den, n=n_replicates)


def theta_run_empirical(
    spec: Model,
    corner: Sequence[int],
    r: Sequence[int],
    n: Sequence[int],
    tau: float,
    n_replicates: int,
    rng: RngStream,
    chunk: int = 2048,
    threads: int = 1,
    min_events: int = 100,
) -> MCEstimate:
    """Run extremal index at a hypercube corner.

    Conditions on an exceedance at the corner vertex of the block
    [0:r-1] and estimates the probability of no other exceedance inside
    the block.  Models with tractable noise are conditioned exactly; for
    the rest, plain rejection is attempted and aborts if too few
    conditioning events occur.
    """
    corner, r, n = as_point(corner), as_point(r), as_point(n)
    if any(x < 2 for x in r):
        raise ValueError("need r >= 2 componentwise")
    u = level_u(spec, n, tau)
    window = pos_block(r)
    cpt = corner_point(corner, r)
    cidx = window.index(cpt)
    flat_cidx = int(np.ravel_multi_index(cidx, window.shape))

    if spec.exact_conditioning:
        def work(start, count, stream):
            x = conditional_field_batch(
                spec, window, cpt, u, count, stream.generator()
            )
            flat = np.abs(x.reshape(count, -1))
            flat[:, flat_cidx] = 0.0
            return (int((flat.max(axis=1) <= u).sum()), count)
    else:
        def work(start, count, stream):
            x = field_batch(spec, window, count, stream.generator())
            flat = np.abs(x.reshape(count, -1))
            cond = flat[:, flat_cidx] > u
            flat = flat[cond]
            if not len(flat):
                return (0, 0)
            flat[:, flat_cidx] = 0.0
            return (int((flat.max(axis=1) <= u).sum()), int(cond.sum()))

    parts = map_chunks(work, n_replicates, chunk, rng, threads)
    hits = sum(h for h, _ in parts)
    events = sum(e for _, e in parts)
    if events < min_events:
        raise TooFewEventsError(
            f"only {events} conditioning events; increase n_replicates or "
            "use a model with exact conditioning"
        )
    p = hits / events
    return MCEstimate(
        value=p, se=math.sqrt(max(p * (1 - p), 1e-300) / events), n=events
    )


# -- tail-field based indices --------------------------------------------------

@dataclass(frozen=True)
class OrthantRegion:
    """Truncated closed orthant pointing away from a corner, origin removed:
    {t : t_l (1 - 2 corner_l) >= 0 for all l, t != 0, |t|_inf <= bound}."""

    corner: tuple[int, ...]
    bound: int

    def points(self, dim: int) -> list[tuple[int, ...]]:
        """The region's points, in lexicographic order."""
        corner = as_point(self.corner)
        if dim != len(corner):
            raise ValueError("dimension mismatch")
        if any(b not in (0, 1) for b in corner):
            raise ValueError("corner entries must be 0 or 1")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        b = self.bound
        axes = [range(0, b + 1) if c == 0 else range(-b, 1) for c in corner]
        # a product of increasing ranges comes out in lexicographic order
        return [t for t in itertools.product(*axes) if any(t)]


@dataclass(frozen=True)
class HalfSpaceRegion:
    """Points strictly preceding the origin, truncated to a box."""

    order: InvariantOrder
    bound: int

    def points(self, dim: int) -> list[tuple[int, ...]]:
        pts = _half_space_points(self.order, self.bound, dim)
        return [tuple(int(x) for x in p) for p in pts if p.any()]


@dataclass(frozen=True)
class TailRegionEstimate:
    value: float
    se: float
    n: int
    boundary_mass: float  # fraction of samples whose region sup sits on the shell


def theta_from_tail_samples(
    samples: TailBatch, region: OrthantRegion | HalfSpaceRegion
) -> TailRegionEstimate:
    """P(sup of |Y| over the region <= 1) from tail-field draws.

    Also reports the empirical mass of exceedances on the truncation
    shell |t|_inf = bound, a diagnostic for the region being too small.
    """
    n = len(samples)
    if not n:
        raise ValueError("no samples")
    pts = region.points(samples.lags.dim)
    for p in pts:
        if not samples.lags.contains(p):
            raise ValueError(f"region point {p} outside the lag window")
    shell = np.array(
        [max(abs(x) for x in p) == region.bound for p in pts], dtype=bool
    )
    norms = samples.norms_at(pts)
    ok = int((norms.max(axis=1) <= 1.0).sum())
    on_shell = int((norms[:, shell] > 1.0).any(axis=1).sum())
    p = ok / n
    return TailRegionEstimate(
        value=p,
        se=math.sqrt(max(p * (1 - p), 1e-300) / n),
        n=n,
        boundary_mass=on_shell / n,
    )


# -- exact closed forms for the diagonal max-moving average --------------------

def _exact_weights(a) -> dict[tuple[int, int], Fraction]:
    if isinstance(a, MaxMovingAverage):
        vals = a.a
    elif isinstance(a, Mapping):
        vals = [a[o] for o in MMA_OFFSETS]
    else:
        vals = list(a)
    if len(vals) != 4:
        raise ValueError("need four weights in the diagonal-offset order")
    out = {}
    for o, w in zip(MMA_OFFSETS, vals):
        fw = Fraction(str(w)) if isinstance(w, float) else Fraction(w)
        if not 0 <= fw <= 1:
            raise ValueError(f"weight {w} outside [0,1]")
        out[o] = fw
    return out


def mma_theta_closed_form(a, corner=None) -> Fraction:
    """Exact extremal index of the diagonal max-moving average.

    ``corner=None`` gives the classical (= block) index 1/(1+s) with s
    the weight sum.  A corner in {0,1}^2 gives the run index there: the
    stencil is reflected through the axes where the corner bit is 1 and
    the corner-0 exceedance mass is evaluated on the reflected weights.
    """
    w = _exact_weights(a)
    s = sum(w.values())
    if corner is None:
        return 1 / (1 + s)
    corner = as_point(corner)
    if any(b not in (0, 1) for b in corner) or len(corner) != 2:
        raise ValueError("corner must lie in {0,1}^2")
    refl = {
        tuple(v * (-1 if b else 1) for v, b in zip(o, corner)): wt
        for o, wt in w.items()
    }
    mass = (
        refl[(-1, -1)]
        + min(refl[(-1, 1)], refl[(-1, -1)])
        + refl[(1, 1)]
        + min(refl[(1, -1)], refl[(-1, -1)])
    )
    return 1 - mass / (1 + s)


ALL_CORNERS = ((0, 0), (1, 1), (0, 1), (1, 0))


def mma_index_table(a) -> dict:
    """Classical index plus the run index at all four corners, exact."""
    out = {"classical": mma_theta_closed_form(a)}
    for c in ALL_CORNERS:
        out[c] = mma_theta_closed_form(a, corner=c)
    return out


def mixture_theta(components: Sequence[tuple[float, object]]) -> dict:
    """Exact indices of a whole-field mixture of diagonal max-moving averages.

    Run indices average with the mixture weights; this is valid only when
    the components share the marginal exceedance scale s (equal weight
    sums), which also forces a common classical index.
    """
    comps = [
        (Fraction(str(w)) if isinstance(w, float) else Fraction(w), _exact_weights(a))
        for w, a in components
    ]
    if sum(w for w, _ in comps) != 1:
        raise ValueError("mixture weights must sum to 1")
    sums = {sum(wts.values()) for _, wts in comps}
    if len(sums) != 1:
        raise ValueError(
            "components have unequal weight sums; the averaging rule for run "
            "indices is not justified in that case"
        )
    out = {"classical": 1 / (1 + sums.pop())}
    for c in ALL_CORNERS:
        out[c] = sum(
            w * mma_theta_closed_form(wts, corner=c) for w, wts in comps
        )
    return out


# -- Brown-Resnick block index by Monte Carlo ----------------------------------

def _half_space_points(order: InvariantOrder, bound: int, dim: int) -> np.ndarray:
    """The origin and the points of [-bound, bound]^dim before it, as an
    ``(n, dim)`` int array in row-major order."""
    pts = centered_box(bound, dim).point_array()
    keep = order.before_origin_mask(pts) | np.all(pts == 0, axis=1)
    return pts[keep]


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
    V = exp(W - sigma2/2); all truncations share the Gaussian draw, so
    the per-replicate value is nonincreasing in M pathwise.
    """
    M_list = sorted(set(int(m) for m in M_list))
    if M_list[0] < 1:
        raise ValueError("truncation radii must be >= 1")
    dim = order.dim
    pts = _half_space_points(order, M_list[-1], dim)
    not_origin = np.any(pts != 0, axis=1)
    oix = int(np.flatnonzero(~not_origin)[0])
    sampler = GaussianFieldSampler(variogram, pts)
    s2 = sampler.sigma2
    radii = np.abs(pts).max(axis=1)
    strict_masks = {m: (radii <= m) & not_origin for m in M_list}

    def work(start, count, stream):
        v = sampler.draw(count, stream.generator())
        v -= 0.5 * s2
        np.exp(v, out=v)
        v0 = v[:, oix]
        sums = {}
        for m in M_list:
            # v > 0, so the initial 0 changes no maximum and is the empty one
            ms = np.max(v, axis=1, where=strict_masks[m], initial=0.0)
            diff = np.maximum(v0, ms) - ms
            sums[m] = (diff.sum(), (diff**2).sum())
        return sums

    parts = map_chunks(work, n_mc, chunk, rng, threads)
    out = {}
    for m in M_list:
        tot = sum(p[m][0] for p in parts)
        tot2 = sum(p[m][1] for p in parts)
        mean = tot / n_mc
        var = max(0.0, tot2 / n_mc - mean**2)
        out[m] = MCEstimate(value=float(mean), se=math.sqrt(var / n_mc), n=n_mc)
    return out


def br_theta_block_mc(
    variogram,
    M: int,
    order: InvariantOrder,
    n_mc: int,
    rng: RngStream,
    chunk: int = 64,
    threads: int = 1,
) -> MCEstimate:
    """Block extremal index of a Brown-Resnick field, truncated to |t| <= M.

    Valid when the Gaussian drift criterion holds (W(t) - sigma2(t)/2
    diverges to -infinity), as it does for additive fractional Brownian
    motion with any Hurst parameters.
    """
    return br_theta_block_profile(
        variogram, [M], order, n_mc, rng, chunk=chunk, threads=threads
    )[M]


# -- report shell ----------------------------------------------------------------

@dataclass
class IndexReport:
    """Named extremal-index estimates with their level geometry."""

    model: Model
    tau: float
    u: float
    n: tuple[int, ...]
    r: tuple[int, ...]
    seed: int
    theta_classical: MCEstimate | None = None
    theta_block: MCEstimate | None = None
    theta_run: dict = field(default_factory=dict)
    theta_tailfield: dict = field(default_factory=dict)
    theta_halfspace: TailRegionEstimate | None = None

    def records(self) -> list[dict]:
        base = {
            "tau": self.tau,
            "u": self.u,
            "r": "x".join(str(x) for x in self.r),
            "n": "x".join(str(x) for x in self.n),
            "seed": self.seed,
            "model": model_digest(self.model),
        }
        out = []

        def add(method, corner, est):
            if est is None:
                return
            out.append(
                {
                    "method": method,
                    "corner": corner,
                    "theta": est.value,
                    "se": est.se,
                    **base,
                }
            )

        add("classical", "", self.theta_classical)
        add("block", "", self.theta_block)
        for c, est in sorted(self.theta_run.items()):
            add("run", "".join(str(b) for b in c), est)
        for c, est in sorted(self.theta_tailfield.items()):
            add("tailfield", "".join(str(b) for b in c), est)
        add("halfspace", "", self.theta_halfspace)
        return out
