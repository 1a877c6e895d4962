"""Extremal cluster statistics: the block cluster process, its empirical
conditional Laplace functional, the limiting Laplace functional driven by
spectral-field draws, and the anti-clustering diagnostic."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .extremal import level_u
from .lattice import InvariantOrder, as_point, sym_block
from .models import Model
from .rng import RngStream, map_chunks
from .simulate import conditional_field_batch
from .tailfield import MCEstimate, TailBatch
from .testfuncs import PointFunction


def cluster_process_extract(values: np.ndarray, r: Sequence[int], u: float) -> np.ndarray:
    """Tile a field into disjoint [0:r-1]-shaped blocks of rescaled values.

    Returns an ``(n_blocks, prod(r))`` array whose row b holds the atoms
    u^-1 X(t) of block b, blocks in row-major order of their block index
    and atoms in row-major order within the block.  Small atoms are kept;
    downstream test functions vanish near the origin anyway.
    """
    r = as_point(r)
    shape = values.shape
    if len(r) != values.ndim:
        raise ValueError("block size dimension mismatch")
    if any(s % ri for s, ri in zip(shape, r)):
        raise ValueError(f"window shape {shape} is not a multiple of r={r}")
    if u <= 0:
        raise ValueError("threshold must be positive")
    nb = [s // ri for s, ri in zip(shape, r)]
    interleaved = (values / u).reshape([x for pair in zip(nb, r) for x in pair])
    k = len(r)
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    return interleaved.transpose(perm).reshape(math.prod(nb), math.prod(r))


def empirical_cluster_laplace(atoms: np.ndarray, f: PointFunction) -> MCEstimate:
    """Mean of exp(-sum_atoms f) over the nonempty blocks, the rows of
    ``atoms`` whose largest norm exceeds the threshold (1 after rescaling)."""
    # largest |atom| per block, without a full-size temporary
    nonempty = np.maximum(atoms.max(axis=1), -atoms.min(axis=1)) > 1.0
    sums = f(np.abs(atoms[nonempty])).sum(axis=1)
    if not len(sums):
        raise ValueError("no nonempty clusters at this threshold")
    # libm exp per block: NumPy's SIMD exp can differ from it in the last bit
    return MCEstimate.sample_mean(np.array([math.exp(-x) for x in sums.tolist()]))


def limit_cluster_laplace_mc(
    spectral: TailBatch,
    f: PointFunction,
    order: InvariantOrder,
    quad_points: int = 256,
) -> MCEstimate:
    """Laplace functional of the limiting cluster from spectral-field draws.

    Per draw the radial integral against d(-y^-alpha), alpha that of the
    batch, is split into the two indicator pieces and each is reduced by
    the substitution w = (y m)^-alpha to a smooth integral over (0, 1],
    handled by a midpoint rule; the indicator jumps are thereby integrated
    exactly, so the zero function evaluates to exactly 1: the result is
    divided by the half-space index estimated from the same draws (the mean
    of max_(t>=0)|field|^alpha - max_(t>0)|field|^alpha).  ``order`` must
    have the lags' dimension.
    The quadrature runs one draw at a time, which keeps its memory at
    ``quad_points`` by the number of lags.
    """
    n = len(spectral)
    if not n:
        raise ValueError("no spectral samples")
    alpha = spectral.alpha
    pts = spectral.lags.point_array()
    before = order.before_origin_mask(pts)
    origin_mask = np.all(pts == 0, axis=1)
    succ = ~before & ~origin_mask
    succeq = ~before

    w_nodes = (np.arange(quad_points) + 0.5) / quad_points
    y_scale = w_nodes ** (-1.0 / alpha)  # y = y_scale / m

    norms = np.abs(spectral.values.reshape(n, -1))
    m1s = norms[:, succeq].max(axis=1).tolist()
    m2s = norms[:, succ].max(axis=1).tolist() if succ.any() else [0.0] * n

    def piece(row, mask, m):
        if m <= 0.0:
            return 0.0
        sub = row[mask]
        sub = sub[sub > 0]
        y = y_scale / m
        s_of_y = f(y[:, None] * sub[None, :]).sum(axis=1)
        return (m**alpha) * float(np.exp(-s_of_y).mean())

    theta_half = float(np.mean([m1**alpha - m2**alpha for m1, m2 in zip(m1s, m2s)]))
    if theta_half <= 0:
        raise ValueError("half-space index must be positive")
    vals = [piece(row, succeq, m1) - piece(row, succ, m2)
            for row, m1, m2 in zip(norms, m1s, m2s)]
    est = MCEstimate.sample_mean(np.array(vals))
    return MCEstimate(est.value / theta_half, est.se / theta_half, n)


def check_anticluster(
    spec: Model,
    r: Sequence[int],
    tau: float,
    M_list: Sequence[int],
    n_replicates: int,
    rng: RngStream,
    n: Sequence[int] | None = None,
    chunk: int = 4096,
) -> dict[int, MCEstimate]:
    """Profile of P(an exceedance occurs in R_r beyond the box |t| <= M,
    given an exceedance at the origin), as a proportion keyed by M.

    A decreasing-to-zero profile is the anti-clustering diagnostic.  The
    excluded region is the centered box of sup-norm radius M.  Fields are
    drawn given the exceedance by ``conditional_field_batch`` (a
    ``TypeError`` for a model without an exact conditional sampler), at a
    level derived from n (default n_l = r_l^2).
    """
    r = as_point(r)
    M_list = [int(m) for m in M_list]
    if sorted(M_list) != M_list:
        raise ValueError("M_list must be increasing")
    if M_list and M_list[-1] >= min(r):
        raise ValueError("max(M_list) must stay below min(r)")
    window = sym_block(r)
    radius = np.abs(window.point_array()).max(axis=1)
    masks = {m: radius > m for m in M_list}
    n = as_point(n) if n is not None else tuple(x * x for x in r)
    u = level_u(spec, n, tau)
    origin = (0,) * window.dim

    def work(start, count, stream):
        x = conditional_field_batch(spec, window, origin, u, count, stream.generator())
        hit = np.abs(x.reshape(count, -1)) > u
        return [int(hit[:, masks[m]].any(axis=1).sum()) for m in M_list]

    parts = map_chunks(work, n_replicates, chunk, rng)
    return {
        m: MCEstimate.proportion(sum(part[j] for part in parts), n_replicates)
        for j, m in enumerate(M_list)
    }
