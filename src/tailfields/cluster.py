"""Extremal cluster statistics: the block cluster process, its empirical
conditional Laplace functional, the limiting Laplace functional driven by
spectral-field draws, and the anti-clustering diagnostic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    vals = np.array([math.exp(-x) for x in sums.tolist()])
    n = len(vals)
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return MCEstimate(value=float(vals.mean()), se=se, n=n)


def limit_cluster_laplace_mc(
    spectral: TailBatch,
    f: PointFunction,
    alpha: float,
    order: InvariantOrder,
    theta_half: float | None = None,
    quad_points: int = 256,
) -> MCEstimate:
    """Laplace functional of the limiting cluster from spectral-field draws.

    Per draw the radial integral against d(-y^-alpha) is split into the
    two indicator pieces and each is reduced by the substitution
    w = (y m)^-alpha to a smooth integral over (0, 1], handled by a
    midpoint rule; the indicator jumps are thereby integrated exactly,
    so the zero function evaluates to exactly theta_half / theta_half = 1.
    When ``theta_half`` is omitted it is estimated from the same draws
    (the mean of max_(t>=0)|field|^alpha - max_(t>0)|field|^alpha).
    The quadrature runs one draw at a time, which keeps its memory at
    ``quad_points`` by the number of lags.
    """
    n = len(spectral)
    if not n:
        raise ValueError("no spectral samples")
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

    vals = np.empty(n)
    theta_vals = np.empty(n)
    for k, (row, m1, m2) in enumerate(zip(norms, m1s, m2s)):
        theta_vals[k] = m1**alpha - m2**alpha
        vals[k] = piece(row, succeq, m1) - piece(row, succ, m2)

    if theta_half is None:
        theta_half = float(theta_vals.mean())
    if theta_half <= 0:
        raise ValueError("half-space index must be positive")
    se = float(vals.std(ddof=1) / math.sqrt(n)) / theta_half if n > 1 else float("inf")
    return MCEstimate(value=float(vals.mean()) / theta_half, se=se, n=n)


@dataclass(frozen=True)
class AnticlusterRow:
    M: int
    value: float
    se: float
    n: int
    method: str


def check_anticluster(
    spec: Model,
    r: Sequence[int],
    tau: float,
    M_list: Sequence[int],
    n_replicates: int,
    rng: RngStream,
    n: Sequence[int] | None = None,
    chunk: int = 4096,
) -> list[AnticlusterRow]:
    """Profile of P(an exceedance occurs in R_r beyond the box |t| <= M,
    given an exceedance at the origin), for each M of the list.

    A decreasing-to-zero profile is the anti-clustering diagnostic.  The
    excluded region is the centered box of sup-norm radius M.  Models
    with tractable noise are conditioned exactly at a level derived from
    n (default n_l = r_l^2); the others, such as Brown-Resnick fields,
    are evaluated in the limit via exact tail-field draws from
    ``limit_tail_batch`` (a ``TypeError`` where there are none), where the
    event becomes sup over the region of |Y| > 1.
    """
    from .extremal import level_u  # local import to avoid a cycle

    r = as_point(r)
    M_list = [int(m) for m in M_list]
    if sorted(M_list) != M_list:
        raise ValueError("M_list must be increasing")
    if M_list and M_list[-1] >= min(r):
        raise ValueError("max(M_list) must stay below min(r)")
    window = sym_block(r)
    pts = window.point_array()
    radius = np.abs(pts).max(axis=1)
    masks = {m: radius > m for m in M_list}

    if spec.exact_conditioning:
        n = as_point(n) if n is not None else tuple(x * x for x in r)
        u = level_u(spec, n, tau)
        origin = (0,) * window.dim

        def exceeds(count, gen):
            x = conditional_field_batch(spec, window, origin, u, count, gen)
            return np.abs(x.reshape(count, -1)) > u

        method = f"conditional(u={u:.6g})"
    else:
        plist = [tuple(int(v) for v in p) for p in pts]

        def exceeds(count, gen):
            return np.abs(spec.limit_tail_batch(plist, count, gen)) > 1.0

        method = "tail-limit"

    def work(start, count, stream):
        hit = exceeds(count, stream.generator())
        return [int(hit[:, masks[m]].any(axis=1).sum()) for m in M_list]

    parts = map_chunks(work, n_replicates, chunk, rng)
    rows = []
    for j, m in enumerate(M_list):
        p = sum(part[j] for part in parts) / n_replicates
        rows.append(
            AnticlusterRow(
                M=m,
                value=p,
                se=math.sqrt(max(p * (1 - p), 1e-300) / n_replicates),
                n=n_replicates,
                method=method,
            )
        )
    return rows
