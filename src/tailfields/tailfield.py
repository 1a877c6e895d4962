"""Empirical tail and spectral fields, their transforms, and identity checks.

The tail field is estimated by conditioning simulated fields on a high
exceedance at the origin: with x the empirical q-quantile of |X(0)|, the
retained replicates form one :class:`TailBatch`, an array of the rescaled
lags x^-1 X(t) with one row per replicate and its root norm alongside.
Dividing each row by its root norm gives the spectral batch.  Estimators
are chunked with one substream per fixed-size chunk, so results do not
depend on worker count and a chunk's roots can be drawn again
deterministically.  The threshold needs only |X(0)| of every replicate:
for the max-stable models (IID, max-moving-average and Brown-Resnick)
``field_roots`` draws it from its law, and full lag windows are built,
given their roots, only for the rows above the threshold; mixtures take
each replicate's root and row from the component picked for it, and the
counterexample field builds every field, in both passes.

:class:`MCEstimate` is the package's estimate record: every Monte-Carlo
estimator reduces its per-replicate outcomes to (value, se, n) through one
of its three constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianFieldSampler
from .lattice import Window, as_point
from .models import Model, VariogramSpec
from .rng import RngStream, map_chunks
from .simulate import field_roots
from .testfuncs import FieldFunction


class TooFewExceedancesError(RuntimeError):
    pass


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate with its standard error over n replicates."""

    value: float
    se: float
    n: int

    @classmethod
    def proportion(cls, hits: int, n: int) -> "MCEstimate":
        """Share of ``hits`` among ``n`` replicates, with the binomial se
        (floored so that it stays positive at p = 0 and p = 1)."""
        p = hits / n
        return cls(p, math.sqrt(max(p * (1 - p), 1e-300) / n), n)

    @classmethod
    def from_sums(cls, total, total_sq, n: int) -> "MCEstimate":
        """Mean of n replicates from their sum and sum of squares."""
        mean = total / n
        var = max(0.0, total_sq / n - mean**2)
        return cls(float(mean), math.sqrt(var / n), n)

    @classmethod
    def sample_mean(cls, values: np.ndarray) -> "MCEstimate":
        """Mean of the values, with the ddof=1 se (infinite for one value)."""
        n = len(values)
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
        return cls(float(values.mean()), se, n)


@dataclass(frozen=True)
class TailBatch:
    """n draws of the tail field Y, or of the spectral field, on a lag window.

    ``values[i]`` approximates Y on ``lags`` (shape ``(n, *lags.shape)``,
    read-only).  ``root_norm[i] = |values[i] at 0|`` is at least 1 because
    each draw is conditioned on an exceedance and rescaled by the
    threshold.  A spectral batch, Y / |Y(0)|, has ``root_norm`` None and
    lag-0 norm exactly 1.
    """

    lags: Window
    values: np.ndarray
    root_norm: np.ndarray | None
    alpha: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[1:] != self.lags.shape:
            raise ValueError("values must have shape (n, *lags.shape)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.root_norm is not None:
            roots = np.asarray(self.root_norm, dtype=float)
            if roots.shape != (len(vals),):
                raise ValueError("need one root norm per draw")
            if np.any(roots < 1.0):
                raise ValueError("root norm below 1: not an exceedance draw")
            roots.flags.writeable = False
            object.__setattr__(self, "root_norm", roots)

    def __len__(self) -> int:
        return len(self.values)

    def norms_at(self, points) -> np.ndarray:
        """``(n, len(points))`` array of |values| at the given lags."""
        flat = [np.ravel_multi_index(self.lags.index(p), self.lags.shape) for p in points]
        return np.abs(self.values.reshape(len(self), -1)[:, flat])


def estimate_tail_field(
    spec: Model,
    lags: Window,
    n_replicates: int,
    rng: RngStream,
    q: float = 0.999,
    min_retained: int = 50,
    chunk: int = 4096,
    threads: int = 1,
) -> TailBatch:
    """Empirical tail-field draws of a model on a lag window.

    Simulates ``n_replicates`` fields, sets the threshold x to the
    empirical q-quantile of |X(0)|, and returns the rows with |X(0)| > x,
    rescaled by x, in replicate order.  Two passes run over the same
    chunks: the first keeps only the roots |X(0)| from ``field_roots`` and
    sets x; the second draws each chunk's roots again from the same
    substream and builds full lag windows only for the rows above x.  Rows
    and roots have the law of the built fields (see ``field_roots``), and
    chunk ``c`` always draws from ``rng.substream(c)``, so the result does
    not depend on ``threads``.
    """
    origin = (0,) * lags.dim
    if not lags.contains(origin):
        raise ValueError("lag window must contain the origin")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0,1)")

    def roots_of(start, count, stream):
        return field_roots(spec, lags, origin, count, stream.generator())[0]

    roots = np.concatenate(map_chunks(roots_of, n_replicates, chunk, rng, threads))
    x_thresh = float(np.quantile(roots, q))
    if x_thresh <= 0:
        raise TooFewExceedancesError("threshold is not positive")
    n, need = int((roots > x_thresh).sum()), max(min_retained, 1)
    if n < need:
        raise TooFewExceedancesError(
            f"only {n} exceedances retained; increase n_replicates "
            f"(need at least {need})"
        )

    def rows_of(start, count, stream):
        chunk_roots, build = field_roots(spec, lags, origin, count, stream.generator())
        kept = np.flatnonzero(chunk_roots > x_thresh)
        return build(kept), chunk_roots[kept]

    parts = map_chunks(rows_of, n_replicates, chunk, rng, threads)
    return TailBatch(
        lags=lags,
        values=np.concatenate([v for v, _ in parts]) / x_thresh,
        root_norm=np.concatenate([r for _, r in parts]) / x_thresh,
        alpha=spec.alpha,
    )


def spectral_from_tail(batch: TailBatch) -> TailBatch:
    """Normalize tail-field draws by their root norms; lag-0 norm becomes 1."""
    if batch.root_norm is None:
        raise ValueError("batch is already spectral")
    scale = batch.root_norm.reshape(-1, *(1,) * batch.lags.dim)
    return TailBatch(batch.lags, batch.values / scale, None, batch.alpha)


# -- Brown-Resnick tail-field distributions ----------------------------------

def br_tail_marginal_cdf(gamma_t: float, y: float) -> float:
    """Closed-form marginal CDF of the Brown-Resnick tail field at one lag.

    ``gamma_t`` is the variogram at the lag.  The gamma_t = 0 case is the
    continuity limit, a standard Pareto(1) root.
    """
    if gamma_t < 0:
        raise ValueError("variogram value must be nonnegative")
    if y <= 0:
        return 0.0
    if gamma_t == 0.0:
        return max(0.0, 1.0 - 1.0 / y)
    sg = math.sqrt(gamma_t)
    ly = math.log(y)
    return _ndtr((2 * ly + gamma_t) / (2 * sg)) - _ndtr((2 * ly - gamma_t) / (2 * sg)) / y


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2))


def _exponent_gap(
    variogram, points, levels, masks, n_mc: int, rng: RngStream, chunk: int,
    threads: int = 1,
) -> list[MCEstimate]:
    """E[max(V(0), M) - M] per boolean mask over ``points``, on one shared
    Gaussian draw: V = exp(W - sigma2/2) on the origin and ``points`` (an
    ``(n, dim)`` int array), M the maximum of V(t)/y_t over the masked
    points (0 if none), y_t the ``levels`` (1 where None).  Each value is
    P(Y(t) <= y_t on the masked points) for the Brown-Resnick tail field Y,
    and each per-replicate difference is nonnegative.
    """
    origin = np.zeros((1, points.shape[1]), dtype=np.int64)
    sampler = GaussianFieldSampler(variogram, np.vstack([origin, points]))
    s2 = sampler.sigma2

    def work(start, count, stream):
        v = sampler.draw(count, stream.generator())
        v -= 0.5 * s2
        np.exp(v, out=v)
        v0, vp = v[:, 0], v[:, 1:]
        if levels is not None:  # a pass over the whole draw, skipped at level 1
            vp /= levels
        sums = []
        for mask in masks:
            # v > 0, so the initial 0 changes no maximum and is the empty one
            m = np.max(vp, axis=1, where=mask, initial=0.0)
            diff = np.maximum(v0, m) - m
            sums.append((diff.sum(), (diff**2).sum()))
        return sums

    return _gap_estimates(map_chunks(work, n_mc, chunk, rng, threads), n_mc)


def _gap_estimates(parts: list, n_mc: int) -> list[MCEstimate]:
    """One estimate per mask from ``parts``, which holds per chunk and per
    mask the sum and sum of squares of the gaps; chunks add in chunk order."""
    return [
        MCEstimate.from_sums(*(sum(col) for col in zip(*per_mask)), n_mc)
        for per_mask in zip(*parts)
    ]


def br_tail_fdd_mc(
    points,
    y,
    variogram: VariogramSpec,
    n_mc: int,
    rng: RngStream,
    chunk: int = 65536,
) -> MCEstimate:
    """Monte-Carlo joint CDF P(Y(t_1) <= y_1, ..., Y(t_n) <= y_n).

    Evaluates the difference of the two exponent expectations with common
    random numbers (``_exponent_gap``), which makes the per-replicate
    difference nonnegative.
    """
    pts = np.array([as_point(p) for p in points], dtype=np.int64)
    yv = np.asarray(y, dtype=float)
    if yv.ndim == 0:
        yv = np.full(len(pts), float(yv))
    if len(yv) != len(pts) or not np.all(yv > 0):
        raise ValueError("need one positive level per point")
    return _exponent_gap(variogram, pts, yv, [True], n_mc, rng, chunk)[0]


# -- the re-rooting transform and identity checks -----------------------------

def rs_transform(batch: TailBatch, rng: RngStream) -> TailBatch:
    """Re-root each spectral draw at a lag drawn from its alpha-power weights.

    The shift I of row i, drawn from ``rng.substream(i)``, satisfies
    P(I = j | field) ~ |field(j)|^alpha; the output row is
    field(. + I) / |field(I)| on the same lag window, with lags shifted
    outside the window filled by zero (valid when the window already
    carries essentially all of the field's mass).
    """
    weights = np.abs(batch.values) ** batch.alpha
    out = np.zeros_like(batch.values)
    shape = batch.lags.shape
    for k, (vals, w) in enumerate(zip(batch.values, weights)):
        tot = w.sum()
        if not tot > 0:
            raise ValueError("all-zero spectral sample")
        gen = rng.substream(k).generator()
        idx = np.unravel_index(gen.choice(w.size, p=(w / tot).ravel()), shape)
        scale = abs(float(vals[idx]))
        shift = tuple(int(a) + lo for a, lo in zip(idx, batch.lags.lo))  # lattice point I
        src = []
        dst = []
        for i, size in zip(shift, shape):
            lo_dst = max(0, -i)
            hi_dst = min(size, size - i)
            dst.append(slice(lo_dst, hi_dst))
            src.append(slice(lo_dst + i, hi_dst + i))
        out[(k, *dst)] = vals[tuple(src)] / scale
    return TailBatch(batch.lags, out, None, batch.alpha)


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    se: float
    n: int

    @property
    def discrepancy(self) -> float:
        return self.lhs - self.rhs


def verify_change_of_time(
    samples: TailBatch,
    s,
    g: FieldFunction,
    zero_tol: float = 0.05,
) -> IdentityCheck:
    """Estimate both sides of the shift identity for the spectral field.

    Left side: E[g(field(. - s)) 1(|field(-s)| > zero_tol)]; right side:
    E[g(field(.) / |field(s)|) |field(s)|^alpha], with the batch's alpha.
    ``zero_tol`` stands in for the exact event {field(-s) != 0}, which is
    never observed at a finite threshold; it must be below the smallest
    nonzero limit value.
    The standard error is that of the paired per-sample difference.
    """
    s = as_point(s)
    n = len(samples)
    if not n:
        raise ValueError("no samples")
    lags = samples.lags
    minus_s = tuple(-x for x in s)
    shifted = [tuple(l - d for l, d in zip(lag, s)) for lag in g.lags]
    for lag, p in zip(g.lags, shifted):
        if not lags.contains(p):
            raise ValueError(
                f"lag window too small to evaluate g shifted by {s} at {lag}"
            )
    if not lags.contains(minus_s) or not lags.contains(s):
        raise ValueError("lag window must contain both s and -s")

    lhs_vals = np.where(
        samples.norms_at([minus_s])[:, 0] > zero_tol, g(samples.norms_at(shifted)), 0.0
    )
    ns = samples.norms_at([s])
    hit = ns[:, 0] > 0
    rhs_vals = np.zeros(n)
    rhs_vals[hit] = (
        g(samples.norms_at(g.lags)[hit] / ns[hit]) * ns[hit, 0] ** samples.alpha
    )
    se = MCEstimate.sample_mean(lhs_vals - rhs_vals).se
    return IdentityCheck(
        lhs=float(lhs_vals.mean()), rhs=float(rhs_vals.mean()), se=se, n=n
    )


# -- columnar text round trip --------------------------------------------------

def samples_to_rows(batch: TailBatch) -> tuple[list[str], list[list[float]]]:
    """Header and rows for a batch of tail or spectral draws.

    Columns are lag-major in the window's row-major point order; tail
    batches get a leading root_norm column.
    """
    if not len(batch):
        raise ValueError("no samples")
    header = ["lag_" + "_".join(str(x) for x in p) for p in batch.lags.points()]
    cols = batch.values.reshape(len(batch), -1)
    if batch.root_norm is not None:
        header = ["root_norm"] + header
        cols = np.column_stack([batch.root_norm, cols])
    return header, cols.tolist()
