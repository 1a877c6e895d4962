import math

import pytest
from scipy.integrate import quad

from tailfields.models import IIDFrechet, MaxMovingAverage
from tailfields.rng import RngStream
from tailfields.verify import (
    THRESHOLDS,
    counterexample_exact_box_prob,
    counterexample_scaled_box_prob,
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


class TestCounterexample:
    def test_exact_values(self):
        # odd blocks are diagonal: the box probability is the block tail mass
        assert counterexample_exact_box_prob(1.0, 9) == 0.5
        assert counterexample_exact_box_prob(2.0, 9) == 0.75
        # even blocks: independent-coordinate square over the block mass
        assert counterexample_exact_box_prob(1.0, 10) == pytest.approx(
            0.25 / (1 - 1 / 11)
        )
        assert counterexample_exact_box_prob(2.0, 10) == pytest.approx(
            0.5625 / (1 - 11**-2)
        )

    def test_rank3_quadrature_oracle(self):
        # direct one-dimensional quadrature of the latent Pareto density over
        # (a_3, 2 a_3] = (6, 12], rescaled by a_3
        alpha = 1.0
        val, _ = quad(lambda z: alpha * z ** -(alpha + 1), 6.0, 12.0)
        est, se = counterexample_scaled_box_prob(alpha, 3, 400_000, RngStream(608))
        assert est == pytest.approx(6.0 * val, abs=4 * se)
        assert counterexample_exact_box_prob(alpha, 3) == pytest.approx(6.0 * val, rel=1e-9)

    def test_alpha_one_campaign(self):
        run = run_counterexample_check(1.0, RngStream(609))
        assert run.passed
        sep = [c for c in run.checks if c.check_id == "group-separation-sigmas"]
        assert sep and sep[0].statistic >= THRESHOLDS["counterexample_separation"]

    def test_alpha_two_targets(self):
        # plug alpha = 2 into the two tail constants: 0.75 and 0.5625
        run = run_counterexample_check(2.0, RngStream(610))
        assert run.passed
        near = {c.check_id: c for c in run.checks}
        assert "odd-group-near-0.75" in near
        assert "even-group-near-0.5625" in near

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            counterexample_scaled_box_prob(1.0, 0, 100, RngStream(0))

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            counterexample_scaled_box_prob(alpha, 9, 100, RngStream(0))
        with pytest.raises(ValueError, match="alpha must be positive"):
            counterexample_exact_box_prob(alpha, 9)


class TestRsIdempotence:
    def test_transform_of_transformed_keeps_the_law(self, mma_spectral):
        # applying the re-rooting twice is indistinguishable from once
        from tailfields.tailfield import rs_transform
        from tailfields.verify import _censor, rs_invariance_ks

        once = rs_transform(_censor(mma_spectral, 0.05), RngStream(611))
        min_adj, level = rs_invariance_ks(once, RngStream(612))
        assert min_adj >= level
