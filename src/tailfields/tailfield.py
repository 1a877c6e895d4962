"""Empirical tail and spectral fields, their transforms, and identity checks.

The tail field is estimated by conditioning simulated fields on a high
exceedance at the origin: with x the empirical q-quantile of |X(0)|, the
retained replicates form one :class:`TailBatch`, an array of the rescaled
lags x^-1 X(t) with one row per replicate and its root norm alongside.
Dividing each row by its root norm gives the spectral batch.  Estimators
are chunked with one substream per fixed-size chunk, so results do not
depend on worker count and retained replicates can be regenerated
bit-identically.  The threshold needs only |X(0)| of every replicate:
for IID and max-moving-average noise ``field_roots`` computes it from the
noise at the origin and its stencil sites, bit-identical to the built
field, and full lag windows are built only for the rows a chunk keeps;
Brown-Resnick, the counterexample field and mixtures build every field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .gaussian import GaussianFieldSampler
from .lattice import Window, as_point
from .models import Model, VariogramSpec
from .rng import RngStream, map_chunks
from .simulate import field_roots
from .testfuncs import FieldFunction


class TooFewExceedancesError(RuntimeError):
    pass


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
    alpha: float | None = None,
    q: float = 0.999,
    min_retained: int = 50,
    chunk: int = 4096,
    threads: int = 1,
) -> TailBatch:
    """Empirical tail-field draws of a model on a lag window.

    Simulates ``n_replicates`` fields, sets the threshold x to the
    empirical q-quantile of |X(0)|, and returns the rows with |X(0)| > x,
    rescaled by x, in replicate order.  The threshold needs only the roots
    |X(0)|, so each chunk takes them from ``field_roots`` and builds full
    lag windows only for a buffer of its 3(1-q) share of largest roots; a
    chunk is regenerated from its substream only in the rare case its
    buffer turns out too shallow.  Rows and roots are bit-identical to
    those of the built fields (see ``field_roots``), and chunk ``c`` always
    draws from ``rng.substream(c)``, so the result does not depend on
    ``threads``.
    """
    origin = (0,) * lags.dim
    if not lags.contains(origin):
        raise ValueError("lag window must contain the origin")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0,1)")
    if alpha is None:
        alpha = spec.alpha

    keep_frac = min(1.0, 3.0 * (1.0 - q))

    def first_pass(start, count, stream):
        roots, build = field_roots(spec, lags, origin, count, stream.generator())
        n_keep = max(1, int(math.ceil(keep_frac * count)))
        if n_keep >= count:
            return roots, np.arange(count), build(np.arange(count)), -np.inf
        order = np.argpartition(roots, count - n_keep)
        kept = np.sort(order[count - n_keep :])
        floor = float(roots[order[: count - n_keep]].max())
        return roots, kept, build(kept), floor

    parts = map_chunks(first_pass, n_replicates, chunk, rng, threads)
    x_thresh = float(np.quantile(np.concatenate([p[0] for p in parts]), q))
    if x_thresh <= 0:
        raise TooFewExceedancesError("threshold is not positive")

    rows, row_roots = [], []
    for c, (chunk_roots, kept, kept_vals, floor) in enumerate(parts):
        retained = np.nonzero(chunk_roots > x_thresh)[0]
        if len(retained) == 0:
            continue
        if floor >= x_thresh:
            # buffer may miss rows; regenerate this chunk deterministically
            gen = rng.substream(c).generator()
            _, build = field_roots(spec, lags, origin, len(chunk_roots), gen)
            rows.append(build(retained))
        else:
            rows.append(kept_vals[np.searchsorted(kept, retained)])
        row_roots.append(chunk_roots[retained])
    n, need = sum(len(r) for r in rows), max(min_retained, 1)
    if n < need:
        raise TooFewExceedancesError(
            f"only {n} exceedances retained; increase n_replicates "
            f"(need at least {need})"
        )
    return TailBatch(
        lags=lags,
        values=np.concatenate(rows) / x_thresh,
        root_norm=np.concatenate(row_roots) / x_thresh,
        alpha=alpha,
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
    return float(
        ndtr((2 * ly + gamma_t) / (2 * sg)) - ndtr((2 * ly - gamma_t) / (2 * sg)) / y
    )


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float
    n: int
    flagged: bool = False


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
    random numbers, which makes the per-replicate difference nonnegative.
    """
    pts = [as_point(p) for p in points]
    yv = np.asarray(y, dtype=float)
    if yv.ndim == 0:
        yv = np.full(len(pts), float(yv))
    if len(yv) != len(pts) or np.any(yv <= 0):
        raise ValueError("need one positive level per point")
    dim = len(pts[0])
    origin = (0,) * dim
    sampler = GaussianFieldSampler(variogram, [origin] + pts)
    s2 = sampler.sigma2

    def work(start, count, stream):
        w = sampler.draw(count, stream.generator())
        v = np.exp(w - 0.5 * s2)
        m_pts = (v[:, 1:] / yv[None, :]).max(axis=1)
        diff = np.maximum(m_pts, v[:, 0]) - m_pts
        return diff.sum(), (diff**2).sum()

    tot = 0.0
    tot2 = 0.0
    for part, part2 in map_chunks(work, n_mc, chunk, rng):  # chunk order
        tot += part
        tot2 += part2
    mean = tot / n_mc
    var = max(0.0, tot2 / n_mc - mean**2)
    se = math.sqrt(var / n_mc)
    return MCEstimate(value=float(mean), se=float(se), n=n_mc, flagged=mean < -3 * se)


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
    alpha: float,
    zero_tol: float = 0.05,
) -> IdentityCheck:
    """Estimate both sides of the shift identity for the spectral field.

    Left side: E[g(field(. - s)) 1(|field(-s)| > zero_tol)]; right side:
    E[g(field(.) / |field(s)|) |field(s)|^alpha].  ``zero_tol`` stands in
    for the exact event {field(-s) != 0}, which is never observed at a
    finite threshold; it must be below the smallest nonzero limit value.
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
    rhs_vals[hit] = g(samples.norms_at(g.lags)[hit] / ns[hit]) * ns[hit, 0] ** alpha
    diffs = lhs_vals - rhs_vals
    se = float(diffs.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
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
