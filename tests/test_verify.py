import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from tailfields.lattice import centered_box
from tailfields.models import (
    CounterexampleField,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxMovingAverage,
)
from tailfields.rng import RngStream
from tailfields.tailfield import estimate_tail_field
from tailfields.verify import (
    PARETO_ROOT_Q,
    THRESHOLDS,
    _ks_equal_size,
    run_change_of_time_check,
    run_counterexample_check,
    run_pareto_root_check,
    run_rs_invariance_check,
)

MMA = MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1))


class TestParetoRoot:
    def test_iid_passes(self):
        run = run_pareto_root_check(IIDFrechet(1.0), RngStream(601),
                                    n_replicates=300_000, min_retained=3000)
        assert run.passed

    def test_mma_passes(self):
        run = run_pareto_root_check(MMA, RngStream(602), n_replicates=300_000,
                                    min_retained=3000)
        assert run.passed

    def test_threshold_scales_with_retained(self):
        run = run_pareto_root_check(IIDFrechet(1.0), RngStream(603),
                                    n_replicates=100_000, min_retained=500)
        retained = next(c for c in run.checks if c.check_id == "retained")
        ks = next(c for c in run.checks if c.check_id == "root-ks")
        assert retained.statistic == 1000
        assert ks.threshold == pytest.approx(0.02 * math.sqrt(5000 / 1000))

    def test_reduced_size_negative_control_fails(self):
        # Pareto(1.5) against roots of an alpha = 1 model: KS about 0.15,
        # against a threshold of 0.02 sqrt(10) at 500 retained roots
        run = run_pareto_root_check(MMA, RngStream(608), alpha=1.5,
                                    n_replicates=50_000, min_retained=250)
        ks = next(c for c in run.checks if c.check_id == "root-ks")
        assert not run.passed
        assert ks.statistic > 2 * ks.threshold

    @pytest.mark.parametrize(
        "spec, alpha, seed",
        [(IIDFrechet(2.0), None, 611), (MMA, None, 612), (MMA, 1.5, 608)],
        ids=["iid-2", "mma", "mma-negative-control"],
    )
    def test_ks_statistic_matches_scipy(self, spec, alpha, seed):
        run = run_pareto_root_check(spec, RngStream(seed), alpha=alpha,
                                    n_replicates=50_000, min_retained=250)
        roots = estimate_tail_field(spec, centered_box(1, 2), 50_000, RngStream(seed),
                                    q=PARETO_ROOT_Q, min_retained=250).root_norm
        a = spec.alpha if alpha is None else alpha
        oracle = stats.kstest(roots, lambda y: 1.0 - np.maximum(y, 1.0) ** -a).statistic
        ks = next(c for c in run.checks if c.check_id == "root-ks")
        assert ks.statistic == pytest.approx(oracle, rel=0, abs=1e-15)

    def test_reproducible(self):
        a = run_pareto_root_check(IIDFrechet(1.0), RngStream(603),
                                  n_replicates=100_000, min_retained=500)
        b = run_pareto_root_check(IIDFrechet(1.0), RngStream(603),
                                  n_replicates=100_000, min_retained=500)
        assert a.checks == b.checks and a.model == b.model


class TestChangeOfTime:
    def test_mma_passes(self):
        run = run_change_of_time_check(MMA, RngStream(604), q=0.999,
                                       n_replicates=1_000_000, lag_radius=4)
        assert run.passed, [c for c in run.checks if not c.passed]

    def test_iid_passes(self):
        run = run_change_of_time_check(IIDFrechet(1.0), RngStream(605), q=0.999,
                                       n_replicates=600_000, lag_radius=4,
                                       zero_tol=0.2)
        assert run.passed, [c for c in run.checks if not c.passed]

    def test_shifts_follow_the_model_dimension(self):
        spec = GeneralMaxMovingAverage(stencil=(((1, 0, 1), 0.5),))
        run = run_change_of_time_check(spec, RngStream(613), q=0.99,
                                       n_replicates=20_000, lag_radius=2)
        shifts = {c.check_id.partition("-")[0] for c in run.checks}
        assert shifts == {"shift(1, 0, 0)", "shift(0, 1, 0)", "shift(0, 0, 1)",
                          "shift(1, 1, 1)"}

    def test_1d_checks_each_shift_once(self):
        # in 1-D the unit shift is the all-ones shift
        spec = GeneralMaxMovingAverage(stencil=(((1,), 0.5), ((-2,), 0.8)))
        run = run_change_of_time_check(spec, RngStream(614), q=0.99,
                                       n_replicates=20_000, lag_radius=2)
        ids = [c.check_id for c in run.checks]
        assert len(ids) == len(set(ids)) == 3
        assert {i.partition("-")[0] for i in ids} == {"shift(1,)"}


class TestRsInvariance:
    def test_mma_passes(self):
        run = run_rs_invariance_check(MMA, RngStream(606), q=0.999,
                                      n_replicates=600_000)
        assert run.passed

    def test_corrupted_negative_control_fails(self):
        run = run_rs_invariance_check(MMA, RngStream(607), q=0.999,
                                      n_replicates=600_000, corrupt=True)
        assert not run.passed
        assert run.name.endswith("corrupted")


class TestKsEqualSizeLaw:
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied-zeros"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 400, 1000])
    def test_matches_scipy_exact(self, n, ties):
        gen = np.random.default_rng(n)
        for shift in (0.0, 0.3, 1.0):
            a = gen.pareto(2.0, n)
            b = gen.pareto(2.0, n) + shift
            if ties:  # the censored zeros of rs_invariance_ks
                a[gen.random(n) < 0.3] = 0.0
                b[gen.random(n) < 0.3] = 0.0
            h, p = _ks_equal_size(a, b)
            ref = stats.ks_2samp(a, b, method="exact")
            assert p == ref.pvalue
            assert h == round(ref.statistic * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_brute_force_split_count(self, n):
        # every split of 2n distinct values into two halves is equally
        # likely; h of a split is the largest |partial sum| of its +1 (a)
        # and -1 (b) steps in pooled order, and P(D >= h/n) is the share
        # of splits whose h is at least that
        hs = []
        for idx in itertools.combinations(range(2 * n), n):
            steps = [1 if i in idx else -1 for i in range(2 * n)]
            hs.append(max(abs(x) for x in itertools.accumulate(steps)))
        for h in sorted(set(hs)):
            exact = Fraction(sum(x >= h for x in hs), math.comb(2 * n, n))
            a = np.arange(n, dtype=float)
            got_h, p = _ks_equal_size(a, a + h - 0.5)
            assert got_h == h
            assert p == pytest.approx(float(exact), rel=1e-12)

    def test_large_size_is_linear(self):
        a = np.arange(10_000, dtype=float)
        start = time.perf_counter()
        h, p = _ks_equal_size(a, a + 0.5)
        assert time.perf_counter() - start < 0.5
        assert (h, p) == (1, 1.0)


class TestCounterexample:
    def test_exact_values(self):
        # odd blocks are diagonal: the box probability is the block tail mass
        assert CounterexampleField(1.0).exact_box_prob(9) == 0.5
        assert CounterexampleField(2.0).exact_box_prob(9) == 0.75
        # even blocks: independent-coordinate square over the block mass
        assert CounterexampleField(1.0).exact_box_prob(10) == pytest.approx(
            0.25 / (1 - 1 / 11)
        )
        assert CounterexampleField(2.0).exact_box_prob(10) == pytest.approx(
            0.5625 / (1 - 11**-2)
        )

    def test_rank3_quadrature_oracle(self):
        # direct one-dimensional quadrature of the latent Pareto density over
        # (a_3, 2 a_3] = (6, 12], rescaled by a_3
        alpha = 1.0
        val, _ = quad(lambda z: alpha * z ** -(alpha + 1), 6.0, 12.0)
        spec = CounterexampleField(alpha)
        est = spec.scaled_box_prob(3, 400_000, RngStream(608))
        assert est.n == 400_000
        assert est.value == pytest.approx(6.0 * val, abs=4 * est.se)
        assert spec.exact_box_prob(3) == pytest.approx(6.0 * val, rel=1e-9)

    def test_alpha_one_campaign(self):
        run = run_counterexample_check(CounterexampleField(1.0), RngStream(609))
        assert run.passed
        sep = [c for c in run.checks if c.check_id == "group-separation-sigmas"]
        assert sep and sep[0].statistic >= THRESHOLDS["counterexample_separation"]

    def test_alpha_two_targets(self):
        # plug alpha = 2 into the two tail constants: 0.75 and 0.5625
        run = run_counterexample_check(CounterexampleField(2.0), RngStream(610))
        assert run.passed
        near = {c.check_id: c for c in run.checks}
        assert "odd-group-near-0.75" in near
        assert "even-group-near-0.5625" in near

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            CounterexampleField(1.0).scaled_box_prob(0, 100, RngStream(0))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            CounterexampleField(alpha)


class TestRsIdempotence:
    def test_transform_of_transformed_keeps_the_law(self, mma_spectral):
        # applying the re-rooting twice is indistinguishable from once
        from tailfields.tailfield import rs_transform
        from tailfields.verify import _censor, rs_invariance_ks

        once = rs_transform(_censor(mma_spectral, 0.05), RngStream(611))
        assert rs_invariance_ks(once, RngStream(612)) >= THRESHOLDS["ks_level"]
