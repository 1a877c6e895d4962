"""Seedable samplers for the heavy-tailed field models.

The entry points ``field_batch``, ``block_max_batch``, ``field_roots`` and
``conditional_field_batch`` check their arguments and then dispatch to the
model's own sampler (``fields``, ``block_maxima``, ``roots`` and
``conditional_fields``; see ``models``).  Each returns arrays drawn from
the NumPy generator it is given, so the same spec, window, count and
generator state always reproduce the same fields.  Callers derive the
generator from an ``RngStream``; the chunked estimators assign one stream
per fixed-size chunk, which keeps results independent of worker count.
``block_max_batch`` returns only each field's maximum, and ``field_roots``
only each field's value at one site plus the full rows asked for; both
give the same values and generator state as building the fields.  The rest
of the module holds the noise kernels that the models share.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Window, as_point


class TooFewEventsError(RuntimeError):
    """Raised when a conditional estimator collects too few exceedances."""


def frechet_of(u: np.ndarray, alpha: float) -> np.ndarray:
    # inverse transform: Z = (-ln U)^(-1/alpha), increasing in U
    return (-np.log(u)) ** (-1.0 / alpha)


def frechet_batch(alpha: float, window: Window, count: int, gen) -> np.ndarray:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return frechet_of(gen.random((count, *window.shape)), alpha)


def frechet_above(gen, c: float, shape) -> np.ndarray:
    # Frechet(1) conditioned on Z > c: invert F on (F(c), 1)
    f_c = math.exp(-1.0 / c)
    u = f_c + gen.random(shape) * (1.0 - f_c)
    return -1.0 / np.log(u)


def frechet_below(gen, c: float, shape) -> np.ndarray:
    # Frechet(1) conditioned on Z <= c
    f_c = math.exp(-1.0 / c)
    u = gen.random(shape) * f_c
    return -1.0 / np.log(u)


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
    """Batch of max-moving-average fields; noise drawn on the dilated window."""
    radius = spec.radius
    z = frechet_of(gen.random((count, *window.dilate(radius).shape)), 1.0)
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

    Equal, bit for bit, to ``abs(field_batch(spec, window, count, gen))``
    maximised per replicate, and it leaves ``gen`` in the same state.  IID
    noise needs only the largest uniform of each field, and a max-moving
    average the noise weighted by the largest weight through which each
    site reaches the window; mixtures pick components as ``field_batch``
    does, and every other model builds the fields.
    """
    _check_dim(spec, window)
    return spec.block_maxima(window, count, gen)


def field_roots(spec, window: Window, point, count: int, gen):
    """|X(point)| for ``count`` fields, and a builder for chosen rows.

    Returns ``(roots, rows)``.  ``roots`` equals, bit for bit,
    ``abs(field_batch(spec, window, count, gen))`` at ``point``, and
    ``rows(idx)`` equals that batch's rows ``idx``; ``gen`` is left in the
    same state.  Both come from the uniforms ``field_batch`` draws, kept
    until ``rows`` is released, so a caller that needs a few full rows
    never builds the others.  IID noise needs the one uniform at the point
    and a max-moving average the noise at the point and its stencil sites;
    every other model (Brown-Resnick, the counterexample field, mixtures)
    builds all the fields.
    """
    _check_dim(spec, window)
    return spec.roots(window, window.index(as_point(point)), count, gen)


def conditional_field_batch(
    spec, window: Window, point, u: float, count: int, gen
) -> np.ndarray:
    """Batch of fields conditioned on |X(point)| > u (exact, no rejection)."""
    point = as_point(point)
    if not window.contains(point):
        raise ValueError("conditioning point must lie in the window")
    return spec.conditional_fields(window, point, u, count, gen)
