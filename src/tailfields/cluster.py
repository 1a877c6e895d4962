"""Extremal cluster statistics: the block cluster process, its empirical
conditional Laplace functional, the limiting Laplace functional driven by
spectral-field draws, and the anti-clustering diagnostic."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .lattice import InvariantOrder, as_point, sym_block
from .models import Model, check_level
from .rng import RngStream, map_chunks
from .simulate import _check_blocks, conditional_field_batch
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
    _check_blocks(values.shape, r)
    check_level(u)
    nb = [s // ri for s, ri in zip(values.shape, r)]
    interleaved = (values / u).reshape([x for pair in zip(nb, r) for x in pair])
    k = len(r)
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    return interleaved.transpose(perm).reshape(math.prod(nb), math.prod(r))


def nonempty_blocks(atoms: np.ndarray) -> np.ndarray:
    """The rows of ``atoms`` whose largest norm exceeds the threshold (1
    after rescaling): the blocks that hold a cluster."""
    # largest |atom| per block, without a full-size temporary
    return atoms[np.maximum(atoms.max(axis=1), -atoms.min(axis=1)) > 1.0]


def empirical_cluster_laplace(clusters: np.ndarray, f: PointFunction) -> MCEstimate:
    """Mean of exp(-sum_atoms f) over the nonempty blocks ``clusters``, as
    ``nonempty_blocks`` selects them."""
    sums = f(np.abs(clusters)).sum(axis=1)
    if not len(sums):
        raise ValueError("no nonempty clusters at this threshold")
    # libm exp per block: NumPy's SIMD exp can differ from it in the last bit
    return MCEstimate.sample_mean(np.array([math.exp(-x) for x in sums.tolist()]))


# Spectral draws per block of the cluster limit's quadrature; its temporary
# arrays hold DRAW_BLOCK by quad_points values each.
DRAW_BLOCK = 128


def _through(k: np.ndarray, w: np.ndarray | None, q: int) -> np.ndarray:
    """Per draw d and node i < q, the sum of ``w[d, t]`` (1 if None) over the
    lags t with ``k[d, t] <= i``: one ``bincount`` of the cut-offs, offset
    per draw, then a cumulative sum over the nodes."""
    d = len(k)
    bins = (k + (q + 1) * np.arange(d)[:, None]).ravel()
    tally = np.bincount(bins, None if w is None else w.ravel(), d * (q + 1))
    return tally.reshape(d, q + 1).cumsum(axis=1)[:, :q]


def _cutoffs(x: np.ndarray, m: np.ndarray, y_scale: np.ndarray, level: float) -> np.ndarray:
    """Per draw d and lag t, the number of nodes i with
    ``(y_scale[i] / m[d]) * x[d, t] > level``.  ``y_scale`` decreases, so
    these nodes are a prefix.  ``searchsorted`` places its end, and the
    expression itself, evaluated beside the end, moves it to where that
    exact comparison changes."""
    q = len(y_scale)
    m = m[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: no node
        k = q - np.searchsorted(y_scale[::-1], level * m / x, side="right")

    def holds(i):
        return (y_scale[i] / m) * x > level

    while (down := (k > 0) & ~holds(np.maximum(k - 1, 0))).any():
        k -= down
    while (up := (k < q) & holds(np.minimum(k, q - 1))).any():
        k += up
    return k


def _node_means(x: np.ndarray, m: np.ndarray, y_scale: np.ndarray, f: PointFunction) -> np.ndarray:
    """Per draw d, the mean over the nodes i of exp(-s_i), with
    s_i = sum_t f(y_i x[d, t]) and y_i = y_scale[i] / m[d] (m[d] > 0).

    With k_a(t) and k_b(t) the cut-offs of y_i x_t > a and > b, lag t adds
    the height h at the nodes i < k_b(t) and c (y_i x_t - a), c = h / (b - a),
    at the nodes k_b(t) <= i < k_a(t).  So s_i = h L + C_i + y_i X_i over L
    lags, where C_i and X_i add up what each lag changes at its cut-offs
    up to node i: -h - c a and c x_t at k_b, c a and -c x_t at k_a.  A step
    (a = b) changes only at k_a, where it drops h: s_i is h times a count.
    """
    if f.height == 0.0:
        return np.ones(len(x))
    q, lags = len(y_scale), x.shape[1]
    k_a = _cutoffs(x, m, y_scale, f.a)
    if f.b == f.a:
        s = f.height * (lags - _through(k_a, None, q))
    else:
        c = f.height / (f.b - f.a)
        k = np.concatenate([_cutoffs(x, m, y_scale, f.b), k_a], axis=1)
        change = np.broadcast_to(np.repeat([-f.height - c * f.a, c * f.a], lags), k.shape)
        slope = c * np.concatenate([x, -x], axis=1)
        y = y_scale / m[:, None]
        s = f.height * lags + _through(k, change, q) + y * _through(k, slope, q)
    # a C-contiguous (draws, nodes) array: each row's mean is the same
    # pairwise sum as the mean of that row alone
    return np.exp(-s).mean(axis=1)


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

    The nodes y_i = y_scale_i / m decrease in i, so at each lag the nodes
    where f rises or is at its height are prefixes, whose ends (cut-offs)
    give the sum of f at every node by counts and cumulative sums: there is
    no per-draw Python code and no (draws, nodes, lags) array.  Draws run
    in blocks of ``DRAW_BLOCK``, so memory is O(``DRAW_BLOCK`` *
    ``quad_points``) beside the batch, and the result does not depend on
    the block size.
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

    flat = spectral.values.reshape(n, -1)
    gaps, vals = [], []
    for lo in range(0, n, DRAW_BLOCK):
        norms = np.abs(flat[lo : lo + DRAW_BLOCK])
        pieces = []
        for mask in (succeq, succ):
            x = norms[:, mask]
            m = x.max(axis=1, initial=0.0)
            # libm pow per draw: NumPy's power can differ from it in the last bit
            m_alpha = np.array([v**alpha for v in m.tolist()])
            # a draw with m = 0 has x = 0 on the mask: 0 times a mean of 1
            means = _node_means(x, np.where(m > 0, m, 1.0), y_scale, f)
            pieces.append((m_alpha, m_alpha * means))
        (m1_alpha, piece1), (m2_alpha, piece2) = pieces
        gaps.append(m1_alpha - m2_alpha)
        vals.append(piece1 - piece2)
    theta_half = float(np.mean(np.concatenate(gaps)))
    if theta_half <= 0:
        raise ValueError("half-space index must be positive")
    est = MCEstimate.sample_mean(np.concatenate(vals))
    return MCEstimate(est.value / theta_half, est.se / theta_half, n)


def check_anticluster(
    spec: Model,
    r: Sequence[int],
    u: float,
    M_list: Sequence[int],
    n_replicates: int,
    rng: RngStream,
) -> dict[int, MCEstimate]:
    """Profile of P(an exceedance of u occurs in R_r beyond the box |t| <= M,
    given an exceedance at the origin), as a proportion keyed by M.

    A decreasing-to-zero profile, at the level u_n of a window n >> r, is
    the anti-clustering diagnostic.  The excluded region is the centered
    box of sup-norm radius M.  Fields are drawn given the exceedance by
    ``conditional_field_batch`` (a ``TypeError`` for a model without an
    exact conditional sampler).
    """
    r = as_point(r)
    M_list = [int(m) for m in M_list]
    if sorted(M_list) != M_list:
        raise ValueError("M_list must be increasing")
    if M_list and M_list[-1] >= min(r):
        raise ValueError("max(M_list) must stay below min(r)")
    check_level(u)
    window = sym_block(r)
    radius = np.abs(window.point_array()).max(axis=1)
    masks = {m: radius > m for m in M_list}
    origin = (0,) * window.dim

    def work(start, count, stream):
        x = conditional_field_batch(spec, window, origin, u, count, stream.generator())
        hit = np.abs(x.reshape(count, -1)) > u
        return [int(hit[:, masks[m]].any(axis=1).sum()) for m in M_list]

    parts = map_chunks(work, n_replicates, 4096, rng)
    return {
        m: MCEstimate.proportion(sum(part[j] for part in parts), n_replicates)
        for j, m in enumerate(M_list)
    }
