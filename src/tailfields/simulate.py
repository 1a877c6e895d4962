"""Seedable samplers for the heavy-tailed field models.

The entry points ``field_batch``, ``block_max_batch``, ``field_roots``,
``conditional_field_batch``, ``run_max_batch`` and ``field_clusters``
check their arguments and then dispatch to the model's own sampler
(``fields``, ``block_maxima``, ``roots``, ``conditional_fields``,
``run_maxima`` and ``clusters``; see ``models``).  Each returns arrays
drawn from the NumPy generator it is given, so the same spec, window,
count and generator state always reproduce the same fields.  Callers
derive the generator from an ``RngStream``; the chunked estimators assign
one stream per fixed-size chunk, which keeps results independent of
worker count.
``block_max_batch`` returns only each field's maximum, and ``field_roots``
only each field's value at one site plus a builder of full rows; both have
the law of the built fields, and max-stable models draw them from it.
``conditional_field_batch`` draws fields given an exceedance at one site
from that law directly, with no rejection; a model without such a sampler
raises ``TypeError``.  ``run_max_batch`` returns only their maximum off
that site, which max-linear models draw from its law.
``field_clusters`` returns one field's nonempty blocks, the clusters of
``cluster-laplace``.  It checks the field's dimension, that r tiles the
window, and the level, before any draw.  Max-linear models screen the
field's uniform noise and build only the blocks that can hold a cluster:
every stencil weight is at most 1, so a cluster needs a Frechet noise
variable above u near its block, and the Frechet transform increases in
the uniform.  The built blocks have the bytes of the built field.  The
rest of the module holds the noise kernels that the models share; the
counterexample's law lives in its class.
"""

from __future__ import annotations

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


# -- entry points: check the arguments, then dispatch to the model -----------

def _check_dim(spec, window: Window) -> None:
    dim = spec.dim
    if dim is not None and dim != window.dim:
        raise ValueError(f"model needs dimension {dim}, window has {window.dim}")


def _check_blocks(shape, r) -> None:
    """A window of ``shape`` tiles into blocks of shape ``r``, or a ``ValueError``."""
    if len(r) != len(shape):
        raise ValueError("block size dimension mismatch")
    if any(s % ri for s, ri in zip(shape, r)):
        raise ValueError(f"window shape {shape} is not a multiple of r={r}")


def field_batch(spec, window: Window, count: int, gen) -> np.ndarray:
    """Batch of ``count`` fields for any model, drawn from one generator."""
    _check_dim(spec, window)
    return spec.fields(window, count, gen)


def field_clusters(spec, window: Window, r, u: float, gen) -> np.ndarray:
    """The atoms u^-1 X(t) of one field's nonempty r-blocks, as
    ``cluster.nonempty_blocks`` of ``cluster.cluster_process_extract``
    selects them from ``field_batch(spec, window, 1, gen)``: a ``(k,
    prod(r))`` array, blocks in row-major order.  Max-linear models build
    only the blocks whose noise can reach above u (see ``models``)."""
    from .models import check_level  # models imports this module

    _check_dim(spec, window)
    r = as_point(r)
    _check_blocks(window.shape, r)
    return spec.clusters(window, r, check_level(u), gen)


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
