"""Named, seed-reproducible verification campaigns with pass/fail verdicts.

Each campaign bundles the distributional identities into concrete checks
with centralized thresholds; every run is fully determined by its name,
model, and seed.  Negative controls (a corruption or model known to
violate a hypothesis) are part of the suite and are expected to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from scipy import stats

from .lattice import centered_box
from .models import Model, model_tag
from .rng import RngStream
from .tailfield import (
    TailBatch,
    estimate_tail_field,
    rs_transform,
    spectral_from_tail,
    verify_change_of_time,
)
from .testfuncs import field_catalog

# Central verdict thresholds for all campaigns.
THRESHOLDS = {
    "pareto_ks": 0.02,
    "identity_sigmas": 3.0,
    "identity_floor": 0.01,  # finite-threshold resolution of both sides
    "ks_level": 0.01,  # per-family level, Bonferroni-corrected across lags
    "counterexample_rank_sigmas": 4.0,
    "counterexample_group_tol": 0.05,
    "counterexample_separation": 5.0,
}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statistic: float
    threshold: float
    passed: bool


@dataclass
class VerificationRun:
    name: str
    model: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, statistic: float, threshold: float, good: bool):
        self.checks.append(CheckResult(check_id, statistic, threshold, good))


# Default level of the pareto-root campaign; its default retention of 5000
# exceedances out of 500000 fields relies on it.
PARETO_ROOT_Q = 0.99
# retained roots at which the KS threshold is THRESHOLDS["pareto_ks"]
PARETO_KS_REF_RETAINED = 5000


def run_pareto_root_check(
    spec: Model,
    rng: RngStream,
    alpha: float | None = None,
    lag_radius: int = 1,
    q: float = PARETO_ROOT_Q,
    n_replicates: int = 500_000,
    min_retained: int = 5000,
    name: str = "pareto-root",
) -> VerificationRun:
    """Kolmogorov-Smirnov check that the rescaled root norm is Pareto(alpha).

    The KS distance of a correct sample of m roots is about 0.87/sqrt(m),
    so the threshold ``pareto_ks`` holds at ``PARETO_KS_REF_RETAINED`` roots
    and grows as 1/sqrt(m) below that: max(0.02, 0.02 sqrt(5000/m)).
    """
    if alpha is None:
        alpha = spec.alpha
    dim = spec.dim or 2
    lags = centered_box(lag_radius, dim)
    samples = estimate_tail_field(
        spec, lags, n_replicates, rng, alpha=alpha, q=q, min_retained=min_retained
    )
    roots = samples.root_norm
    ks = stats.kstest(roots, lambda y: 1.0 - np.maximum(y, 1.0) ** -alpha).statistic
    run = VerificationRun(name=name, model=model_tag(spec), seed=rng.seed)
    run.add("retained", float(len(roots)), float(min_retained), len(roots) >= min_retained)
    # estimate_tail_field retains at least one root
    scale = max(1.0, math.sqrt(PARETO_KS_REF_RETAINED / len(roots)))
    band = THRESHOLDS["pareto_ks"] * scale
    run.add("root-ks", float(ks), band, ks <= band)
    return run


def run_change_of_time_check(
    spec: Model,
    rng: RngStream,
    shifts=((1, 0), (0, 1), (1, 1)),
    q: float = 0.999,
    n_replicates: int = 2_000_000,
    lag_radius: int = 4,
    zero_tol: float = 0.05,
    name: str = "change-of-time",
) -> VerificationRun:
    """Both sides of the shift identity must agree for every shift and g.

    The pass band is max(identity_sigmas * paired se, identity_floor):
    the floor reflects that both sides are estimated at a finite
    threshold, where the exact identity holds only in the limit.
    """
    alpha = spec.alpha
    dim = spec.dim or 2
    lags = centered_box(lag_radius, dim)
    samples = spectral_from_tail(estimate_tail_field(spec, lags, n_replicates, rng, q=q))
    run = VerificationRun(name=name, model=model_tag(spec), seed=rng.seed)
    for s in shifts:
        for g in field_catalog(((1,) * dim,)):
            res = verify_change_of_time(samples, s, g, alpha, zero_tol=zero_tol)
            band = max(
                THRESHOLDS["identity_sigmas"] * res.se, THRESHOLDS["identity_floor"]
            )
            run.add(
                f"shift{s}-{g.gid}",
                abs(res.discrepancy),
                band,
                abs(res.discrepancy) <= band,
            )
    return run


def _censor(batch: TailBatch, tol: float) -> TailBatch:
    vals = np.where(np.abs(batch.values) > tol, batch.values, 0.0)
    return TailBatch(batch.lags, vals, None, batch.alpha)


def rs_invariance_ks(
    samples: TailBatch,
    rng: RngStream,
    test_radius: int = 3,
    level: float = 0.01,
    zero_tol: float = 0.05,
) -> tuple[float, float]:
    """Smallest Bonferroni-adjusted two-sample KS p-value across test lags.

    Compares the per-lag norm distribution of the samples with that of
    their re-rooted transforms.  Empirical spectral draws carry an
    O(1/threshold) noise floor at lags where the limit law vanishes;
    values below ``zero_tol`` are treated as exact zeros on both sides,
    since the limit law has no mass in (0, zero_tol) for the models
    under test.  Returns (min adjusted p-value, level).
    """
    if not len(samples):
        raise ValueError("no samples")
    lags = samples.lags
    censored = _censor(samples, zero_tol)
    transformed = _censor(rs_transform(censored, rng), zero_tol)
    test_lags = [
        p for p in centered_box(test_radius, lags.dim).points() if lags.contains(p)
    ]
    n_tests = len(test_lags)
    min_adj = 1.0
    for a, b in zip(censored.norms_at(test_lags).T, transformed.norms_at(test_lags).T):
        if not (a.any() or b.any()):
            continue
        pval = stats.ks_2samp(a, b, method="asymp").pvalue
        min_adj = min(min_adj, min(1.0, pval * n_tests))
    return float(min_adj), level


def run_rs_invariance_check(
    spec: Model,
    rng: RngStream,
    q: float = 0.999,
    n_replicates: int = 1_000_000,
    lag_radius: int = 4,
    corrupt: bool = False,
    name: str = "rs-invariance",
) -> VerificationRun:
    """Re-rooting invariance of the spectral law, by per-lag two-sample KS.

    With ``corrupt=True`` every sample is scaled so its lag-0 norm is no
    longer 1; the transform then provably changes the law and the check
    must reject (negative control).
    """
    dim = spec.dim or 2
    samples = spectral_from_tail(
        estimate_tail_field(spec, centered_box(lag_radius, dim), n_replicates,
                            rng.lane(0), q=q)
    )
    label = name + ("-corrupted" if corrupt else "")
    if corrupt:
        samples = TailBatch(samples.lags, 1.3 * samples.values, None, samples.alpha)
    min_adj, level = rs_invariance_ks(samples, rng.lane(1), level=THRESHOLDS["ks_level"])
    run = VerificationRun(name=label, model=model_tag(spec), seed=rng.seed)
    run.add("ks-no-rejection", min_adj, level, min_adj >= level)
    return run


def counterexample_scaled_box_prob(
    alpha: float, rank: int, n_draws: int, rng: RngStream
) -> tuple[float, float]:
    """Importance-sampled a_m^alpha P(a_m^-1 (Z1,Z2) in (1,2]^2) at rank m.

    The latent Pareto variable is drawn directly inside the factorial
    block [a_m, a_(m+1)) under its conditional law (in ratio space, so
    factorial scales never materialize) and reweighted by the exact block
    mass; the returned estimate and its standard error are on the
    a_m^alpha-rescaled scale.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    gen = rng.generator()
    weight = 1.0 - (rank + 1.0) ** (-alpha)  # a_m^alpha * P(Z in block m)
    ratio_tail = (rank + 1.0) ** (-alpha)
    v = gen.random((n_draws, 2))
    draws = (1.0 - v * (1.0 - ratio_tail)) ** (-1.0 / alpha)  # Z / a_m in [1, m+1)
    if rank % 2 == 1:
        hit = draws[:, 0] <= 2.0  # diagonal block: both coordinates equal Z
    else:
        hit = (draws <= 2.0).all(axis=1)
    p = float(hit.mean())
    return weight * p, weight * math.sqrt(max(p * (1 - p), 1e-300) / n_draws)


def counterexample_exact_box_prob(alpha: float, rank: int) -> float:
    """Exact a_m^alpha-rescaled box probability from the mixture law."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    c = 1.0 - 2.0**-alpha
    if rank % 2 == 1:
        return c
    return c**2 / (1.0 - (rank + 1.0) ** (-alpha))


def run_counterexample_check(
    alpha: float,
    rng: RngStream,
    odd_ranks=(9, 13, 19),
    even_ranks=(10, 14, 20),
    n_per_rank: int = 200_000,
    name: str = "counterexample",
) -> VerificationRun:
    """Scaled box probabilities split by factorial-rank parity.

    Odd ranks must cluster near 1 - 2^-alpha and even ranks near its
    square, with the groups separated by at least the configured number
    of pooled standard errors; each rank is also compared with its exact
    finite-rank value.  The persistent gap between the two subsequences
    is what rules out joint regular variation.
    """
    run = VerificationRun(name=name, model=f"CounterexamplePair(alpha={alpha})", seed=rng.seed)
    c = 1.0 - 2.0**-alpha
    groups = {}
    lane = 0
    for label, ranks, target in (("odd", odd_ranks, c), ("even", even_ranks, c * c)):
        ests, ses = [], []
        for m in ranks:
            est, se = counterexample_scaled_box_prob(
                alpha, m, n_per_rank, rng.lane(lane)
            )
            lane += 1
            exact = counterexample_exact_box_prob(alpha, m)
            band = THRESHOLDS["counterexample_rank_sigmas"] * se
            run.add(f"{label}-rank-{m}-exact", abs(est - exact), band, abs(est - exact) <= band)
            ests.append(est)
            ses.append(se)
        mean = float(np.mean(ests))
        run.add(
            f"{label}-group-near-{target:.4g}",
            abs(mean - target),
            THRESHOLDS["counterexample_group_tol"],
            abs(mean - target) <= THRESHOLDS["counterexample_group_tol"],
        )
        groups[label] = (mean, float(np.sqrt(np.mean(np.square(ses)) / len(ses))))
    gap = groups["odd"][0] - groups["even"][0]
    pooled = math.hypot(groups["odd"][1], groups["even"][1])
    run.add(
        "group-separation-sigmas",
        gap / pooled,
        THRESHOLDS["counterexample_separation"],
        gap / pooled >= THRESHOLDS["counterexample_separation"],
    )
    return run
