"""Seedable samplers for the concrete heavy-tailed field models.

Each sampler returns a ``(count, *window.shape)`` array drawn from the
NumPy generator it is given, so the same spec, window, count and
generator state always reproduce the same fields.  Callers derive the
generator from an ``RngStream``; the chunked estimators assign one stream
per fixed-size chunk, which keeps results independent of worker count.
``block_max_batch`` returns only each field's maximum, and ``field_roots``
only each field's value at one site plus the full rows asked for; both
give the same values and generator state as building the fields.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Window, as_point
from .models import (
    BrownResnick,
    CounterexampleField,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
    ModelSpec,
    marginal_exceed_prob,
    model_dim,
    stencil_radius,
)


class TooFewEventsError(RuntimeError):
    """Raised when a conditional estimator collects too few exceedances."""


def _frechet_of(u: np.ndarray, alpha: float) -> np.ndarray:
    # inverse transform: Z = (-ln U)^(-1/alpha), increasing in U
    return (-np.log(u)) ** (-1.0 / alpha)


def _frechet(gen: np.random.Generator, alpha: float, shape) -> np.ndarray:
    return _frechet_of(gen.random(shape), alpha)


def frechet_batch(alpha: float, window: Window, count: int, gen) -> np.ndarray:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _frechet(gen, alpha, (count, *window.shape))


def _stencil_items(spec) -> list[tuple[tuple[int, ...], float]]:
    if isinstance(spec, MaxMovingAverage):
        return list(spec.weights.items())
    return list(spec.stencil)


def _stencil_max(spec, z: np.ndarray, radius: int, shape) -> np.ndarray:
    """max(Z(t), max_o w_o Z(t + o)) on the core of noise ``z``, a batch of
    fields on a window of ``shape`` dilated by ``radius``."""
    core = tuple(slice(radius, radius + s) for s in shape)
    x = z[(slice(None), *core)].copy()
    for o, w in _stencil_items(spec):
        if w == 0.0:
            continue
        sl = tuple(slice(radius + off, radius + off + s) for off, s in zip(o, shape))
        np.maximum(x, w * z[(slice(None), *sl)], out=x)
    return x


def mma_batch(spec, window: Window, count: int, gen) -> np.ndarray:
    """Batch of max-moving-average fields; noise drawn on the dilated window."""
    radius = stencil_radius(spec)
    z = _frechet(gen, 1.0, (count, *window.dilate(radius).shape))
    return _stencil_max(spec, z, radius, window.shape)


def _mma_block_max(spec, window: Window, count: int, gen) -> np.ndarray:
    """max_s c_s Z(s) from the same uniforms that ``mma_batch`` draws.

    c_s, on the window dilated by the stencil radius, is the largest weight
    through which noise site s reaches the window: 1 on the window itself,
    whose max then needs only the largest uniform (Z = f(U) is increasing),
    and 0 where no positive weight reaches.  Only the ring sites with
    c_s > 0 are transformed one by one.
    """
    radius = stencil_radius(spec)
    shape = window.shape
    c = np.zeros(window.dilate(radius).shape)
    for o, w in _stencil_items(spec):
        sl = tuple(slice(radius + off, radius + off + s) for off, s in zip(o, shape))
        np.maximum(c[sl], w, out=c[sl])
    core = tuple(slice(radius, radius + s) for s in shape)
    c[core] = 1.0
    u = gen.random((count, *c.shape))
    m = _frechet_of(u[(slice(None), *core)].max(axis=tuple(range(1, u.ndim))), 1.0)
    ring = c > 0.0
    ring[core] = False
    idx = np.flatnonzero(ring)
    if idx.size:
        z = _frechet_of(u.reshape(count, -1)[:, idx], 1.0)
        np.maximum(m, (c.ravel()[idx] * z).max(axis=1), out=m)
    return m


# -- the exchangeable Pareto pair and its parity field -----------------------

_MAX_RANK = 170  # largest m with m! representable as a float

_FACTORIALS = np.array([float(math.factorial(m)) for m in range(1, _MAX_RANK + 1)])


def factorial_rank(z: np.ndarray) -> np.ndarray:
    """Index m >= 1 with a_m <= z < a_(m+1) for the boundaries a_m = m!.

    Any float is below 171!, so the boundary table never overflows; block
    arithmetic elsewhere works on the z/a_m ratio scale.
    """
    return np.searchsorted(_FACTORIALS, z, side="right")


def _pareto_in_block(gen, alpha: float, m: np.ndarray) -> np.ndarray:
    """Pareto(alpha) conditioned to [a_m, a_(m+1)), returned as Z / a_m."""
    v = gen.random(m.shape)
    ratio_tail = (m + 1.0) ** (-alpha)  # (a_(m+1)/a_m)^-alpha
    return (1.0 - v * (1.0 - ratio_tail)) ** (-1.0 / alpha)


def counterexample_pairs(alpha: float, count: int, gen) -> np.ndarray:
    """Draw ``count`` exchangeable pairs (Z1, Z2); returns a (count, 2) array.

    The latent variable Z is standard Pareto(alpha).  On odd factorial
    blocks [a_(2n-1), a_(2n)) the pair is the diagonal (Z, Z); on even
    blocks the coordinates are redrawn independently from the block's
    conditional Pareto law.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z = (1.0 - gen.random(count)) ** (-1.0 / alpha)
    m = factorial_rank(z)
    out = np.empty((count, 2))
    odd = (m % 2) == 1
    out[odd, 0] = out[odd, 1] = z[odd]
    n_even = int((~odd).sum())
    if n_even:
        me = m[~odd].astype(float)
        a_m = _FACTORIALS[m[~odd] - 1]
        z1 = _pareto_in_block(gen, alpha, me) * a_m
        z2 = _pareto_in_block(gen, alpha, me) * a_m
        out[~odd, 0] = z1
        out[~odd, 1] = z2
    return out


def counterexample_batch(alpha: float, window: Window, count: int, gen) -> np.ndarray:
    if window.dim != 2:
        raise ValueError("the parity field lives on Z^2")
    lo, hi = window.lo, window.hi
    n_diag = (hi[0] + hi[1]) - (lo[0] + lo[1]) + 1
    pairs = counterexample_pairs(alpha, count * n_diag, gen).reshape(count, n_diag, 2)
    t1 = np.arange(lo[0], hi[0] + 1)[:, None]
    t2 = np.arange(lo[1], hi[1] + 1)[None, :]
    diag = (t1 + t2) - (lo[0] + lo[1])  # per-site anti-diagonal index
    coord = np.abs(t1 % 2) * np.ones_like(t2)  # 1 where t1 odd
    # Z1 on odd t1, Z2 on even t1
    z1 = pairs[:, diag, 0]
    z2 = pairs[:, diag, 1]
    return np.where(coord[None, :, :] == 1, z1, z2)


# -- generic dispatch ---------------------------------------------------------

def _check_dim(spec: ModelSpec, window: Window) -> None:
    dim = model_dim(spec)
    if dim is not None and dim != window.dim:
        raise ValueError(f"model needs dimension {dim}, window has {window.dim}")


def _mixture_batch(spec: Mixture, count: int, gen, draw, shape, p=None) -> np.ndarray:
    """Pick a component per replicate with probabilities ``p`` (default: the
    mixture weights), then fill each component's rows with
    ``draw(component, n_rows)``."""
    if p is None:
        p = np.array([w for w, _ in spec.components])
    picks = gen.choice(len(p), size=count, p=p)
    out = np.empty((count, *shape))
    # component draws consume the generator in component order
    for ci, (_, comp) in enumerate(spec.components):
        idx = np.nonzero(picks == ci)[0]
        if len(idx):
            out[idx] = draw(comp, len(idx))
    return out


def field_batch(spec: ModelSpec, window: Window, count: int, gen) -> np.ndarray:
    """Batch of ``count`` fields for any model, drawn from one generator."""
    _check_dim(spec, window)
    if isinstance(spec, IIDFrechet):
        return frechet_batch(spec.alpha, window, count, gen)
    if isinstance(spec, (MaxMovingAverage, GeneralMaxMovingAverage)):
        return mma_batch(spec, window, count, gen)
    if isinstance(spec, CounterexampleField):
        return counterexample_batch(spec.alpha, window, count, gen)
    if isinstance(spec, BrownResnick):
        from .gaussian import brown_resnick_batch

        return brown_resnick_batch(spec.variogram, window, count, gen)
    if isinstance(spec, Mixture):
        return _mixture_batch(
            spec, count, gen, lambda comp, k: field_batch(comp, window, k, gen),
            window.shape,
        )
    raise TypeError(f"unknown model {spec!r}")


def block_max_batch(spec: ModelSpec, window: Window, count: int, gen) -> np.ndarray:
    """max over the window of |X|, for ``count`` fields; a ``(count,)`` array.

    Equal, bit for bit, to ``abs(field_batch(spec, window, count, gen))``
    maximised per replicate, and it leaves ``gen`` in the same state.  For a
    max-moving average the block maximum is max_s c_s Z(s), where c_s is
    the largest weight through which noise site s reaches the window (1 on
    the window): rounding is monotone, so max_o fl(w_o Z) = fl(max_o w_o Z),
    and Z = (-log U)^(-1) is increasing in the uniform U, so the window
    itself needs only its largest uniform and the stencil is never applied.
    IID noise needs only the largest uniform of each field.  Mixtures pick
    components as ``field_batch`` does; every other model falls back to
    building the fields.
    """
    _check_dim(spec, window)
    if isinstance(spec, IIDFrechet):
        u = gen.random((count, *window.shape))
        return _frechet_of(u.reshape(count, -1).max(axis=1), spec.alpha)
    if isinstance(spec, (MaxMovingAverage, GeneralMaxMovingAverage)):
        return _mma_block_max(spec, window, count, gen)
    if isinstance(spec, Mixture):
        return _mixture_batch(
            spec, count, gen, lambda comp, k: block_max_batch(comp, window, k, gen), ()
        )
    x = field_batch(spec, window, count, gen)
    return np.abs(x.reshape(count, -1)).max(axis=1)


def field_roots(spec: ModelSpec, window: Window, point, count: int, gen):
    """|X(point)| for ``count`` fields, and a builder for chosen rows.

    Returns ``(roots, rows)``.  ``roots`` equals, bit for bit,
    ``abs(field_batch(spec, window, count, gen))`` at ``point``, and
    ``rows(idx)`` equals that batch's rows ``idx``; ``gen`` is left in the
    same state.  Both come from the uniforms ``field_batch`` draws, kept
    until ``rows`` is released, so a caller that needs a few full rows
    never builds the others.  For a max-moving average the root is
    max(Z(point), max_o w_o Z(point + o)), with the same noise values, the
    same products and the same ``np.maximum`` steps as ``_stencil_max`` at
    that site, and maxima are exact; IID noise needs the one uniform at the
    point.  ``rows`` applies the Fréchet transform and the stencil to the
    chosen rows only.  Every other model (Brown-Resnick, the counterexample
    field, mixtures) builds all the fields.
    """
    _check_dim(spec, window)
    pidx = window.index(as_point(point))
    if isinstance(spec, IIDFrechet):
        u = gen.random((count, *window.shape))
        roots = _frechet_of(u[(slice(None), *pidx)], spec.alpha)
        return roots, lambda idx: _frechet_of(u[idx], spec.alpha)
    if isinstance(spec, (MaxMovingAverage, GeneralMaxMovingAverage)):
        radius = stencil_radius(spec)
        u = gen.random((count, *window.dilate(radius).shape))

        def noise(o):
            return _frechet_of(
                u[(slice(None), *(radius + i + d for i, d in zip(pidx, o)))], 1.0
            )

        roots = noise((0,) * window.dim)
        for o, w in _stencil_items(spec):
            if w != 0.0:
                np.maximum(roots, w * noise(o), out=roots)
        return roots, lambda idx: _stencil_max(
            spec, _frechet_of(u[idx], 1.0), radius, window.shape
        )
    x = field_batch(spec, window, count, gen)
    return np.abs(x[(slice(None), *pidx)]), lambda idx: x[idx]


# -- exact conditional sampling given an exceedance at one site ---------------

def supports_conditioning(spec: ModelSpec) -> bool:
    if isinstance(spec, (IIDFrechet, MaxMovingAverage, GeneralMaxMovingAverage)):
        return True
    if isinstance(spec, Mixture):
        return all(supports_conditioning(m) for _, m in spec.components)
    return False


def _frechet_above(gen, c: float, shape) -> np.ndarray:
    # Frechet(1) conditioned on Z > c: invert F on (F(c), 1)
    f_c = math.exp(-1.0 / c)
    u = f_c + gen.random(shape) * (1.0 - f_c)
    return -1.0 / np.log(u)


def _frechet_below(gen, c: float, shape) -> np.ndarray:
    # Frechet(1) conditioned on Z <= c
    f_c = math.exp(-1.0 / c)
    u = gen.random(shape) * f_c
    return -1.0 / np.log(u)


def _conditional_mma_batch(spec, window, point, u, count, gen) -> np.ndarray:
    """MMA fields conditioned on X(point) > u, sampled exactly.

    X(point) exceeds iff one of the weighted noise sites behind it
    exceeds; the occurring subset of those independent events is drawn
    from its exact conditional law, then noise is filled in accordingly.
    """
    items = [((0,) * window.dim, 1.0)] + [
        (o, w) for o, w in _stencil_items(spec) if w > 0.0
    ]
    radius = max(max(abs(x) for x in o) for o, _ in items)
    big = window.dilate(radius)
    sites = [tuple(p + o_l for p, o_l in zip(point, o)) for o, _ in items]
    probs = np.array([-math.expm1(-w / u) for _, w in items])  # P(w Z > u)

    # conditional law of the event-indicator vector given at least one event
    n_ev = len(items)
    subsets = np.arange(1, 1 << n_ev)
    bits = (subsets[:, None] >> np.arange(n_ev)[None, :]) & 1
    logw = bits * np.log(probs)[None, :] + (1 - bits) * np.log1p(-probs)[None, :]
    w_subset = np.exp(logw.sum(axis=1))
    w_subset /= w_subset.sum()
    picks = gen.choice(len(subsets), size=count, p=w_subset)
    occur = bits[picks].astype(bool)  # (count, n_ev)

    z = _frechet(gen, 1.0, (count, *big.shape))
    for j, ((_, w), s) in enumerate(zip(items, sites)):
        c = u / w
        idx = big.index(s)
        col_hi = _frechet_above(gen, c, count)
        col_lo = _frechet_below(gen, c, count)
        z[(slice(None), *idx)] = np.where(occur[:, j], col_hi, col_lo)

    return _stencil_max(spec, z, radius, window.shape)


def conditional_field_batch(
    spec: ModelSpec, window: Window, point, u: float, count: int, gen
) -> np.ndarray:
    """Batch of fields conditioned on |X(point)| > u (exact, no rejection)."""
    point = as_point(point)
    if not window.contains(point):
        raise ValueError("conditioning point must lie in the window")
    if isinstance(spec, IIDFrechet):
        x = frechet_batch(spec.alpha, window, count, gen)
        idx = window.index(point)
        c = u ** spec.alpha  # reduce to Frechet(1) via Z^alpha
        x[(slice(None), *idx)] = _frechet_above(gen, c, count) ** (1.0 / spec.alpha)
        return x
    if isinstance(spec, (MaxMovingAverage, GeneralMaxMovingAverage)):
        return _conditional_mma_batch(spec, window, point, u, count, gen)
    if isinstance(spec, Mixture):
        if not supports_conditioning(spec):
            raise TooFewEventsError(
                "conditional sampling unsupported for a mixture component"
            )
        w_cond = np.array(
            [w * marginal_exceed_prob(m, u) for w, m in spec.components]
        )
        w_cond /= w_cond.sum()
        return _mixture_batch(
            spec, count, gen,
            lambda comp, k: conditional_field_batch(comp, window, point, u, k, gen),
            window.shape, w_cond,
        )
    raise TooFewEventsError(
        f"exact conditional sampling not available for {type(spec).__name__}; "
        "direct simulation would collect too few exceedances"
    )
