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

from .lattice import centered_box
from .models import CounterexampleField, Model, model_tag
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
) -> VerificationRun:
    """Kolmogorov-Smirnov check that the rescaled root norm is Pareto(alpha).

    The KS distance of a correct sample of m roots is about 0.87/sqrt(m),
    so the threshold ``pareto_ks`` holds at ``PARETO_KS_REF_RETAINED`` roots
    and grows as 1/sqrt(m) below that: max(0.02, 0.02 sqrt(5000/m)).
    ``alpha`` defaults to the model's; another value is the negative
    control.
    """
    if alpha is None:
        alpha = spec.alpha
    lags = centered_box(lag_radius, spec.lattice_dim)
    samples = estimate_tail_field(
        spec, lags, n_replicates, rng, q=q, min_retained=min_retained
    )
    roots = samples.root_norm
    # one-sample KS distance to Pareto(alpha): max(D+, D-) on the sorted roots
    cdf = 1.0 - np.maximum(np.sort(roots), 1.0) ** -alpha
    m = len(cdf)
    ks = max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max())
    run = VerificationRun(name="pareto-root", model=model_tag(spec), seed=rng.seed)
    run.add("retained", float(len(roots)), float(min_retained), len(roots) >= min_retained)
    # estimate_tail_field retains at least one root
    scale = max(1.0, math.sqrt(PARETO_KS_REF_RETAINED / len(roots)))
    band = THRESHOLDS["pareto_ks"] * scale
    run.add("root-ks", float(ks), band, ks <= band)
    return run


def run_change_of_time_check(
    spec: Model,
    rng: RngStream,
    q: float = 0.999,
    n_replicates: int = 2_000_000,
    lag_radius: int = 4,
    zero_tol: float = 0.05,
) -> VerificationRun:
    """Both sides of the shift identity must agree for every g and every
    distinct shift among the unit vectors and the diagonal: (1, 0), (0, 1)
    and (1, 1) in two dimensions, (1,) alone in one.

    The pass band is max(identity_sigmas * paired se, identity_floor):
    the floor reflects that both sides are estimated at a finite
    threshold, where the exact identity holds only in the limit.
    """
    dim = spec.lattice_dim
    lags = centered_box(lag_radius, dim)
    samples = spectral_from_tail(estimate_tail_field(spec, lags, n_replicates, rng, q=q))
    run = VerificationRun(name="change-of-time", model=model_tag(spec), seed=rng.seed)
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    for s in dict.fromkeys(units + [(1,) * dim]):
        for g in field_catalog(((1,) * dim,)):
            res = verify_change_of_time(samples, s, g, zero_tol=zero_tol)
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


RS_TEST_RADIUS = 3  # rs_invariance_ks tests the lags in this centered box
RS_ZERO_TOL = 0.05  # and counts spectral values below this as exact zeros


def _ks_equal_size(a: np.ndarray, b: np.ndarray) -> tuple[int, float]:
    """KS statistic h = max |#{a <= x} - #{b <= x}| of two samples of one size
    n, and its exact p-value P(D >= h/n) = 2 sum_{i>=1} (-1)^(i+1) C(2n, n - ih)
    / C(2n, n) (Gnedenko-Korolyuk), summed in Horner form in O(n) flops."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    h = int(np.abs(np.searchsorted(a, pooled, "right")
                   - np.searchsorted(b, pooled, "right")).max())
    if h == 0:
        return 0, 1.0
    n, p = len(a), 0.0
    for k in range(n // h, -1, -1):
        ratio = 1.0  # C(2n, n - (k+1)h) / C(2n, n - kh)
        for j in range(h):
            ratio = (n - k * h - j) * ratio / (n + k * h + j + 1)
        p = ratio * (1.0 - p)
    return h, min(1.0, 2 * p)


def rs_invariance_ks(samples: TailBatch, rng: RngStream) -> float:
    """Smallest Bonferroni-adjusted two-sample KS p-value across test lags.

    Compares the per-lag norm distribution of the samples with that of
    their re-rooted transforms, which have the same number of rows, under
    the exact equal-size KS law; ties make that law conservative.
    Empirical spectral draws carry an O(1/threshold) noise floor at lags
    where the limit law vanishes; values below ``RS_ZERO_TOL`` are treated
    as exact zeros on both sides, since the limit law has no mass in
    (0, RS_ZERO_TOL) for the models under test.
    """
    if not len(samples):
        raise ValueError("no samples")
    lags = samples.lags
    censored = _censor(samples, RS_ZERO_TOL)
    transformed = _censor(rs_transform(censored, rng), RS_ZERO_TOL)
    test_lags = [
        p for p in centered_box(RS_TEST_RADIUS, lags.dim).points() if lags.contains(p)
    ]
    n_tests = len(test_lags)
    min_adj = 1.0
    for a, b in zip(censored.norms_at(test_lags).T, transformed.norms_at(test_lags).T):
        _, pval = _ks_equal_size(a, b)
        min_adj = min(min_adj, min(1.0, pval * n_tests))
    return float(min_adj)


def run_rs_invariance_check(
    spec: Model,
    rng: RngStream,
    q: float = 0.999,
    n_replicates: int = 1_000_000,
    lag_radius: int = 4,
    corrupt: bool = False,
) -> VerificationRun:
    """Re-rooting invariance of the spectral law, by per-lag two-sample KS.

    With ``corrupt=True`` every sample is scaled so its lag-0 norm is no
    longer 1; the transform then provably changes the law and the check
    must reject (negative control).
    """
    samples = spectral_from_tail(
        estimate_tail_field(spec, centered_box(lag_radius, spec.lattice_dim),
                            n_replicates, rng.lane(0), q=q)
    )
    label = "rs-invariance-corrupted" if corrupt else "rs-invariance"
    if corrupt:
        samples = TailBatch(samples.lags, 1.3 * samples.values, None, samples.alpha)
    min_adj = rs_invariance_ks(samples, rng.lane(1))
    level = THRESHOLDS["ks_level"]
    run = VerificationRun(name=label, model=model_tag(spec), seed=rng.seed)
    run.add("ks-no-rejection", min_adj, level, min_adj >= level)
    return run


def run_counterexample_check(spec: CounterexampleField, rng: RngStream) -> VerificationRun:
    """Scaled box probabilities at the odd ranks 9, 13, 19 and the even ranks
    10, 14, 20, 200000 draws each.

    Odd ranks must cluster near 1 - 2^-alpha and even ranks near its
    square, with the groups separated by at least the configured number
    of pooled standard errors; each rank is also compared with its exact
    finite-rank value.  The persistent gap between the two subsequences
    is what rules out joint regular variation.
    """
    run = VerificationRun(
        "counterexample", f"CounterexamplePair(alpha={spec.alpha})", rng.seed
    )
    c = 1.0 - 2.0**-spec.alpha
    groups = {}
    lane = 0
    for label, ranks, target in (("odd", (9, 13, 19), c), ("even", (10, 14, 20), c * c)):
        ests, ses = [], []
        for m in ranks:
            est = spec.scaled_box_prob(m, 200_000, rng.lane(lane))
            lane += 1
            err = abs(est.value - spec.exact_box_prob(m))
            band = THRESHOLDS["counterexample_rank_sigmas"] * est.se
            run.add(f"{label}-rank-{m}-exact", err, band, err <= band)
            ests.append(est.value)
            ses.append(est.se)
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
