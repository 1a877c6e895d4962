"""Seedable samplers for the heavy-tailed field models.

The entry points ``field_batch``, ``block_max_batch``, ``field_roots``,
``conditional_field_batch`` and ``run_max_batch`` check their arguments
and then dispatch to the model's own sampler (``fields``,
``block_maxima``, ``roots``, ``conditional_fields`` and ``run_maxima``;
see ``models``).  Each returns arrays drawn from
the NumPy generator it is given, so the same spec, window, count and
generator state always reproduce the same fields.  Callers derive the
generator from an ``RngStream``; the chunked estimators assign one stream
per fixed-size chunk, which keeps results independent of worker count.
``block_max_batch`` returns only each field's maximum, and ``field_roots``
only each field's value at one site plus a builder of full rows; both have
the law of the built fields, and max-stable models draw them from it.
``conditional_field_batch`` draws fields given an exceedance at one site
from that law directly, with no rejection; a model without such a sampler
raises ``TypeError``.  ``run_max_batch`` returns only their maximum off
that site, which max-linear models draw from its law.  The rest of the
module holds the noise kernels that the models share.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Window, as_point


def frechet_of(u: np.ndarray, alpha: float) -> np.ndarray:
    # inverse transform: Z = (-ln U)^(-1/alpha), increasing in U
    return (-np.log(u)) ** (-1.0 / alpha)


def frechet_above(gen, c: np.ndarray, alpha: float) -> np.ndarray:
    # Frechet(alpha) above each level in c: E = Z^-alpha is Exp(1) below
    # c^-alpha, by inversion; 1 - U lies in (0, 1], so every draw is finite
    e = -np.log1p((1.0 - gen.random(c.shape)) * np.expm1(-(c**-alpha)))
    return e ** (-1.0 / alpha)


def frechet_below(gen, c: np.ndarray, alpha: float) -> np.ndarray:
    # Frechet(alpha) at most each level in c: E = Z^-alpha is c^-alpha plus
    # a fresh Exp(1) draw
    return (c**-alpha + gen.standard_exponential(c.shape)) ** (-1.0 / alpha)


def stencil_max(spec, z: np.ndarray, radius: int, shape) -> np.ndarray:
    """max(Z(t), max_o w_o Z(t + o)) over the ``spec.stencil`` pairs (o, w_o)
    on the core of noise ``z``, a batch of fields on a window of ``shape``
    dilated by ``radius``."""
    core = tuple(slice(radius, radius + s) for s in shape)
    x = z[(slice(None), *core)].copy()
    for o, w in spec.stencil:
        if w == 0.0:
            continue
        sl = tuple(slice(radius + off, radius + off + s) for off, s in zip(o, shape))
        np.maximum(x, w * z[(slice(None), *sl)], out=x)
    return x


def mma_batch(spec, window: Window, count: int, gen) -> np.ndarray:
    """Batch of max-moving-average fields, IID noise among them (the empty
    stencil); Frechet(``spec.alpha``) noise drawn on the dilated window."""
    radius = spec.radius
    z = frechet_of(gen.random((count, *window.dilate(radius).shape)), spec.alpha)
    return stencil_max(spec, z, radius, window.shape)


# -- the exchangeable Pareto pair and its parity field -----------------------

_MAX_RANK = 170  # largest m with m! representable as a float

_FACTORIALS = np.array([float(math.factorial(m)) for m in range(1, _MAX_RANK + 1)])


def factorial_rank(z: np.ndarray) -> np.ndarray:
    """Index m >= 1 with a_m <= z < a_(m+1) for the boundaries a_m = m!.

    Any float is below 171!, so the boundary table never overflows; block
    arithmetic elsewhere works on the z/a_m ratio scale.
    """
    return np.searchsorted(_FACTORIALS, z, side="right")


def pareto_in_block(gen, alpha: float, m, shape) -> np.ndarray:
    """Pareto(alpha) conditioned to [a_m, a_(m+1)), returned as Z / a_m; the
    rank ``m`` is one number or an array of ``shape``."""
    v = gen.random(shape)
    ratio_tail = (m + 1.0) ** (-alpha)  # (a_(m+1)/a_m)^-alpha
    return (1.0 - v * (1.0 - ratio_tail)) ** (-1.0 / alpha)


def counterexample_pairs(alpha: float, count: int, gen) -> np.ndarray:
    """Draw ``count`` exchangeable pairs (Z1, Z2); returns a (count, 2) array.

    The latent variable Z is standard Pareto(alpha).  On odd factorial
    blocks [a_(2n-1), a_(2n)) the pair is the diagonal (Z, Z); on even
    blocks the coordinates are redrawn independently from the block's
    conditional Pareto law.  ``CounterexampleField`` checks ``alpha``.
    """
    z = (1.0 - gen.random(count)) ** (-1.0 / alpha)
    m = factorial_rank(z)
    out = np.empty((count, 2))
    odd = (m % 2) == 1
    out[odd, 0] = out[odd, 1] = z[odd]
    n_even = int((~odd).sum())
    if n_even:
        me = m[~odd].astype(float)
        a_m = _FACTORIALS[m[~odd] - 1]
        z1 = pareto_in_block(gen, alpha, me, me.shape) * a_m
        z2 = pareto_in_block(gen, alpha, me, me.shape) * a_m
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


# -- entry points: check the arguments, then dispatch to the model -----------

def _check_dim(spec, window: Window) -> None:
    dim = spec.dim
    if dim is not None and dim != window.dim:
        raise ValueError(f"model needs dimension {dim}, window has {window.dim}")


def field_batch(spec, window: Window, count: int, gen) -> np.ndarray:
    """Batch of ``count`` fields for any model, drawn from one generator."""
    _check_dim(spec, window)
    return spec.fields(window, count, gen)


def block_max_batch(spec, window: Window, count: int, gen) -> np.ndarray:
    """max over the window of |X|, for ``count`` fields; a ``(count,)`` array.
    Max-linear models draw it in one variable per replicate (see
    ``models``); mixtures pick components as ``field_batch`` does, and
    every other model builds the fields.
    """
    _check_dim(spec, window)
    return spec.block_maxima(window, count, gen)


def field_roots(spec, window: Window, point, count: int, gen):
    """|X(point)| for ``count`` fields, and a builder for chosen rows.

    Returns ``(roots, rows)``: ``roots`` has the law of |X(point)|, and
    ``rows(idx)`` that of the fields given the roots ``idx``, with the roots
    at ``point``.  Max-stable models draw each root in one variable and
    build only the rows asked for, given their roots (see ``models``);
    mixtures ask the component picked per replicate; the counterexample
    builds all the fields and keeps them until ``rows`` goes.
    """
    _check_dim(spec, window)
    return spec.roots(window, window.index(as_point(point)), count, gen)


def _check_point(spec, window: Window, point):
    _check_dim(spec, window)
    point = as_point(point)
    if not window.contains(point):
        raise ValueError("conditioning point must lie in the window")
    return point


def conditional_field_batch(
    spec, window: Window, point, u: float, count: int, gen
) -> np.ndarray:
    """Batch of fields conditioned on |X(point)| > u (exact, no rejection);
    a ``TypeError`` for a model with no such sampler."""
    point = _check_point(spec, window, point)
    return spec.conditional_fields(window, point, u, count, gen)


def run_max_batch(spec, window: Window, point, u: float, count: int, gen) -> np.ndarray:
    """max over ``window`` minus ``point`` of |X|, for ``count`` fields given
    |X(point)| > u; a ``(count,)`` array.  Max-linear models draw it from
    O(|stencil|) variables per replicate (see ``models``); mixtures pick the
    component given the exceedance, and every other model builds the
    fields of ``conditional_field_batch``."""
    point = _check_point(spec, window, point)
    return spec.run_maxima(window, point, u, count, gen)
