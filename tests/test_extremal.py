import math
from fractions import Fraction

import pytest

from tailfields.gaussian import br_tail_field_batch
from tailfields.lattice import InvariantOrder, centered_box
from tailfields.models import (
    AdditiveFBM,
    CustomVariogram,
    IIDFrechet,
    MaxMovingAverage,
)
from tailfields.rng import RngStream
from tailfields.simulate import TooFewEventsError
from tailfields.extremal import (
    ALL_CORNERS,
    DegenerateEstimateError,
    HalfSpaceRegion,
    IndexReport,
    OrthantRegion,
    br_theta_block_mc,
    br_theta_block_profile,
    level_u,
    mixture_theta,
    mma_index_table,
    mma_theta_closed_form,
    theta_block_empirical,
    theta_classical_empirical,
    theta_from_tail_samples,
    theta_run_empirical,
)
from tailfields.tailfield import TailBatch

MMA_A = (0.1, 0.7, 0.6, 0.1)
MMA_A2 = (0.6, 0.2, 0.6, 0.1)
MMA = MaxMovingAverage(a=MMA_A)
LEX = InvariantOrder(dim=2)


class TestLevelU:
    def test_iid_example(self):
        # root of 10^4 (1 - e^(-1/u)) = 1
        u = level_u(IIDFrechet(1.0), (100, 100), 1.0)
        assert u == pytest.approx(9999.5, abs=0.01)
        assert 10_000 * IIDFrechet(1.0).exceed_prob(u) == pytest.approx(1.0, rel=1e-9)

    def test_mma_marginal_inversion(self):
        u = level_u(MMA, (50, 50), 2.0)
        assert 2500 * (1 - math.exp(-2.5 / u)) == pytest.approx(2.0, rel=1e-9)

    def test_monotone_in_tau(self):
        u1 = level_u(MMA, (100, 100), 0.5)
        u2 = level_u(MMA, (100, 100), 1.0)
        assert u2 < u1

    def test_no_valid_level(self):
        with pytest.raises(ValueError):
            level_u(IIDFrechet(1.0), (3, 3), 10.0)


class TestClosedForms:
    def test_reference_weight_table(self):
        t = mma_index_table(MMA_A)
        assert t["classical"] == Fraction(2, 5)
        assert t[(0, 0)] == Fraction(16, 25)
        assert t[(1, 1)] == Fraction(11, 25)
        assert t[(0, 1)] == Fraction(2, 5)
        assert t[(1, 0)] == Fraction(3, 5)

    def test_second_weight_table(self):
        t = mma_index_table(MMA_A2)
        assert t["classical"] == Fraction(2, 5)
        assert (t[(0, 0)], t[(1, 1)], t[(0, 1)], t[(1, 0)]) == (
            Fraction(2, 5), Fraction(2, 5), Fraction(18, 25), Fraction(4, 5)
        )

    def test_all_zero_weights_give_one(self):
        t = mma_index_table((0, 0, 0, 0))
        assert all(v == 1 for v in t.values())

    def test_exact_mixture_table(self):
        m = mixture_theta([(0.5, MMA_A), (0.5, MMA_A2)])
        assert m["classical"] == Fraction(2, 5)
        assert m[(0, 0)] == Fraction(13, 25)
        assert m[(1, 1)] == Fraction(21, 50)
        assert m[(0, 1)] == Fraction(14, 25)
        assert m[(1, 0)] == Fraction(7, 10)

    def test_mixture_single_component_reduces(self):
        m = mixture_theta([(1, MMA_A)])
        t = mma_index_table(MMA_A)
        assert all(m[k] == t[k] for k in m)

    def test_mixture_self_fixed_point(self):
        m = mixture_theta([(0.5, MMA_A), (0.5, MMA_A)])
        t = mma_index_table(MMA_A)
        assert all(m[k] == t[k] for k in m)

    def test_mixture_unequal_scale_rejected(self):
        with pytest.raises(ValueError):
            mixture_theta([(0.5, MMA_A), (0.5, (0.1, 0.1, 0.1, 0.1))])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            mma_theta_closed_form((1.5, 0, 0, 0))


class TestRunEstimator:
    def test_mma_all_corners(self):
        rng = RngStream(301)
        for i, corner in enumerate(ALL_CORNERS):
            est = theta_run_empirical(MMA, corner, (20, 20), (400, 400), 1.0,
                                      4000, rng.lane(i))
            exact = float(mma_theta_closed_form(MMA_A, corner))
            assert abs(est.value - exact) <= max(3.5 * est.se, 0.03)

    def test_iid_no_clustering(self):
        est = theta_run_empirical(IIDFrechet(1.0), (0, 0), (10, 10), (100, 100),
                                  1.0, 4000, RngStream(302))
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            theta_run_empirical(MMA, (0, 0), (1, 5), (50, 50), 1.0, 100, RngStream(0))

    def test_rejection_path_starves(self):
        # no exact conditioning for the parity field; rejection at a high
        # level must report the event shortage
        from tailfields.models import CounterexampleField

        with pytest.raises(TooFewEventsError):
            theta_run_empirical(CounterexampleField(1.0), (0, 0), (4, 4),
                                (200, 200), 1.0, 2000, RngStream(303))


class TestClassicalEstimator:
    def test_iid_is_one(self):
        est = theta_classical_empirical(IIDFrechet(1.0), (50, 50), 1.0, 20_000,
                                        RngStream(304), chunk=2048)
        assert abs(est.value - 1.0) <= max(3 * est.se, 0.03)

    def test_mma_smoke(self):
        est = theta_classical_empirical(MMA, (100, 100), 1.0, 3000,
                                        RngStream(305), chunk=256)
        # finite-n closed form: theta_n = E(n,a) / ((1+s) n1 n2)
        from tests.test_simulate import brute_stencil_exponent

        e = brute_stencil_exponent((100, 100), MMA.weights)
        expect = e / (2.5 * 100 * 100)
        assert abs(est.value - expect) <= 3 * est.se

    def test_degenerate_level(self):
        with pytest.raises(DegenerateEstimateError):
            theta_classical_empirical(IIDFrechet(1.0), (1000, 1000), 900_000.0,
                                      200, RngStream(306), chunk=64)


class TestBlockEstimator:
    def test_mma_against_finite_geometry_oracle(self):
        n, r, tau = (300, 300), (30, 30), 1.0
        u = level_u(MMA, n, tau)
        from tests.test_simulate import brute_stencil_exponent

        e = brute_stencil_exponent(r, MMA.weights)
        p_exact = 1 - math.exp(-e / u)
        theta_exact = p_exact / (900 * (1 - math.exp(-2.5 / u)))
        # the paper-level claim: the finite-geometry value is within .03 of the
        # limit, which equals the classical index 0.4
        assert abs(theta_exact - 0.4) <= 0.03
        est = theta_block_empirical(MMA, n, r, tau, 120_000, RngStream(307))
        assert abs(est.value - theta_exact) <= 3 * est.se

    def test_iid_is_one(self):
        est = theta_block_empirical(IIDFrechet(1.0), (100, 100), (10, 10), 1.0,
                                    120_000, RngStream(308))
        assert abs(est.value - 1.0) <= max(3 * est.se, 0.05)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            theta_block_empirical(MMA, (10, 10), (10, 10), 1.0, 100, RngStream(0))


class TestTailSampleIndices:
    def test_iid_all_indices_one(self, iid_tails):
        for corner in ALL_CORNERS:
            est = theta_from_tail_samples(iid_tails, OrthantRegion(corner, 2))
            assert est.value >= 0.96
        est = theta_from_tail_samples(iid_tails, HalfSpaceRegion(LEX, 2))
        assert est.value >= 0.96

    def test_mma_matches_run_indices(self):
        # q high enough that the noise floor is small next to the MC error
        from tailfields.tailfield import estimate_tail_field

        tails = estimate_tail_field(MMA, centered_box(2, 2), 1_000_000,
                                    RngStream(320), q=0.999)
        rng = RngStream(309)
        for i, corner in enumerate(ALL_CORNERS):
            tf = theta_from_tail_samples(tails, OrthantRegion(corner, 2))
            run = theta_run_empirical(MMA, corner, (20, 20), (400, 400), 1.0,
                                      4000, rng.lane(i))
            z = abs(tf.value - run.value) / math.hypot(tf.se, run.se)
            assert z <= 3.5

    def test_halfspace_order_free(self, mma_tails):
        a = theta_from_tail_samples(mma_tails, HalfSpaceRegion(LEX, 2))
        b = theta_from_tail_samples(
            mma_tails, HalfSpaceRegion(InvariantOrder(dim=2, perm=(1, 0)), 2)
        )
        assert abs(a.value - b.value) <= 3 * math.hypot(a.se, b.se)

    @pytest.mark.parametrize(
        "order",
        [LEX, InvariantOrder(dim=2, perm=(1, 0)), InvariantOrder(dim=3, signs=(1, -1, 1))],
    )
    def test_halfspace_points_precede_origin(self, order):
        origin = (0,) * order.dim
        expected = [p for p in centered_box(2, order.dim).points()
                    if order.compare(p, origin) < 0]
        assert HalfSpaceRegion(order, 2).points(order.dim) == expected

    def test_boundary_diagnostic_reported(self, mma_tails):
        est = theta_from_tail_samples(mma_tails, OrthantRegion((0, 0), 4))
        assert 0.0 <= est.boundary_mass <= 1.0

    def test_region_exceeds_window(self, mma_tails):
        with pytest.raises(ValueError):
            theta_from_tail_samples(mma_tails, OrthantRegion((0, 0), 9))


class TestBrBlockIndex:
    def test_antitone_in_truncation_pathwise(self):
        prof = br_theta_block_profile(AdditiveFBM((0.6, 0.6)), [1, 2, 4, 8], LEX,
                                      20_000, RngStream(310))
        vals = [prof[m].value for m in [1, 2, 4, 8]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_near_independence_limit(self):
        vg = CustomVariogram(
            dim=2,
            gamma=lambda t: 0.0 if all(x == 0 for x in t) else 1e6,
            sigma2=lambda t: 0.0 if all(x == 0 for x in t) else 1e6,
        )
        est = br_theta_block_mc(vg, 2, LEX, 2000, RngStream(311))
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_matches_half_space_on_exact_tail_draws(self):
        # same truncation on both routes estimates the same probability
        vg = AdditiveFBM((0.7, 0.7))
        M = 8
        bb = br_theta_block_mc(vg, M, LEX, 40_000, RngStream(312))
        lagw = centered_box(M, 2)
        pts = list(lagw.points())
        rows = br_tail_field_batch(vg, pts, 40_000, RngStream(313).generator())
        oi = pts.index((0, 0))
        samples = TailBatch(lagw, rows.reshape(-1, *lagw.shape), rows[:, oi], 1.0)
        half = theta_from_tail_samples(samples, HalfSpaceRegion(LEX, M))
        assert abs(bb.value - half.value) <= 3 * math.hypot(bb.se, half.se)

    def test_paper_scale_truncation_runs(self):
        est = br_theta_block_mc(AdditiveFBM((0.5, 0.5)), 200, LEX, 200,
                                RngStream(314))
        assert 0.0 < est.value < 1.0 and est.se < 0.05


class TestIndexReport:
    def test_records_schema(self):
        rep = IndexReport(model=MMA, tau=1.0, u=1e5, n=(100, 100), r=(10, 10), seed=7)
        rep.theta_classical = theta_classical_empirical(
            MMA, (50, 50), 1.0, 500, RngStream(315), chunk=256
        )
        recs = rep.records()
        assert len(recs) == 1
        assert recs[0]["method"] == "classical"
        assert set(recs[0]) >= {"method", "corner", "theta", "se", "tau", "u", "r", "n", "seed", "model"}


class TestBrBlockEstimatorCrossMethod:
    def test_matches_exponent_route(self):
        # P(M_X(block) <= u) = exp(-E[max_block V]/u) holds exactly for the
        # max-stable field at every level, so a lognormal MC of the exponent
        # gives an independent same-geometry oracle for the block estimator
        from tailfields.gaussian import GaussianFieldSampler
        from tailfields.lattice import pos_block
        from tailfields.models import BrownResnick
        import numpy as np

        vg = AdditiveFBM((0.6, 0.6))
        spec = BrownResnick(variogram=vg)
        n, r, tau = (32, 32), (4, 4), 1.0
        u = level_u(spec, n, tau)
        est = theta_block_empirical(spec, n, r, tau, 12_000, RngStream(330))
        sampler = GaussianFieldSampler(vg, list(pos_block(r).points()))
        w = sampler.draw(400_000, RngStream(331).generator())
        m = np.exp(w - 0.5 * sampler.sigma2).max(axis=1)
        p = 1.0 - math.exp(-m.mean() / u)
        se_p = math.exp(-m.mean() / u) * m.std() / math.sqrt(len(m)) / u
        den = 16 * spec.exceed_prob(u)
        oracle, oracle_se = p / den, se_p / den
        z = abs(est.value - oracle) / math.hypot(est.se, oracle_se)
        assert z <= 3.0, (est.value, oracle)
