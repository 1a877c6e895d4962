import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfields.gaussian import br_tail_field_batch
from tailfields.lattice import InvariantOrder, centered_box, corner_point, pos_block
from tailfields.models import (
    ALL_CORNERS,
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    CustomVariogram,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxLinear,
    MaxMovingAverage,
    Mixture,
)
from tailfields.rng import RngStream
from tailfields.simulate import conditional_field_batch, field_batch, run_max_batch
from tailfields.extremal import (
    DegenerateEstimateError,
    HalfSpaceRegion,
    OrthantRegion,
    br_theta_block_profile,
    level_u,
    theta_block_empirical,
    theta_classical_empirical,
    theta_from_tail_samples,
    theta_run_empirical,
)
from tailfields.tailfield import MCEstimate, TailBatch, _exponent_gap, br_tail_fdd_mc

MMA_A = (0.1, 0.7, 0.6, 0.1)
MMA_A2 = (0.6, 0.2, 0.6, 0.1)
MMA = MaxMovingAverage(a=MMA_A)
MMA2 = MaxMovingAverage(a=MMA_A2)
LEX = InvariantOrder(dim=2)
# a radius-2 stencil off the diagonal family: exact classical index 2/5 and
# run indices 7/10, 7/10, 1/2, 2/5 at ALL_CORNERS
GENERAL = GeneralMaxMovingAverage(stencil=(((1, 0), 0.5), ((0, 2), 0.25), ((-1, 1), 0.75)))
# components of unequal classical index, 2/5 and 5/7
UNEQUAL = Mixture(components=((0.3, MMA), (0.7, MaxMovingAverage(a=(0.1, 0.1, 0.1, 0.1)))))
# the same components at equal weights (scripts/mixture-unequal.json)
UNEQUAL_HALVES = Mixture(components=((0.5, MMA), (0.5, MaxMovingAverage(a=(0.1, 0.1, 0.1, 0.1)))))


def _stencil_inverse(spec, p):
    # X(0) has the law of s Z with s^alpha = 1 + sum of w^alpha over the stencil
    s = (1.0 + sum(w**spec.alpha for _, w in spec.stencil)) ** (1 / spec.alpha)
    return s * (-math.log1p(-p)) ** (-1 / spec.alpha)


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

    @pytest.mark.parametrize("tau", [float("nan"), 0.0, -1.0, 9.0, float("inf")])
    def test_rejects_tau_outside_the_window(self, tau):
        with pytest.raises(ValueError, match="tau"):
            level_u(MMA, (3, 3), tau)

    @pytest.mark.parametrize("n, tau", [((100, 100), 1.0), ((40, 40), 0.5), ((5, 4), 3.0)])
    @pytest.mark.parametrize(
        "spec, inverse",
        [
            (IIDFrechet(1.0), _stencil_inverse),
            (IIDFrechet(2.0), _stencil_inverse),
            (MMA, _stencil_inverse),
            (GeneralMaxMovingAverage(stencil=(((1, 0), 0.5), ((0, 2), 0.25))),
             _stencil_inverse),
            (BrownResnick(variogram=AdditiveFBM((0.5, 0.5))),
             lambda spec, p: -1.0 / math.log1p(-p)),
            (CounterexampleField(0.5), lambda spec, p: p ** (-1.0 / spec.alpha)),
            (Mixture(components=((0.3, MMA), (0.7, GeneralMaxMovingAverage(
                stencil=(((1, 0), 0.5),))))), None),
        ],
        ids=["iid-1", "iid-2", "mma", "general-mma", "br-fbm", "counterexample", "mixture"],
    )
    def test_inverts_the_marginal(self, spec, inverse, n, tau):
        p = tau / math.prod(n)
        u = level_u(spec, n, tau)
        assert spec.exceed_prob(u) == pytest.approx(p, rel=1e-13, abs=0)
        if inverse is not None:
            assert u == pytest.approx(inverse(spec, p), rel=1e-14, abs=0)


class TestClosedForms:
    def test_reference_weight_table(self):
        t = MMA.exact_indices()
        assert list(t) == ["classical", *ALL_CORNERS]
        assert t["classical"] == Fraction(2, 5)
        assert t[(0, 0)] == Fraction(16, 25)
        assert t[(1, 1)] == Fraction(11, 25)
        assert t[(0, 1)] == Fraction(2, 5)
        assert t[(1, 0)] == Fraction(3, 5)

    def test_second_weight_table(self):
        t = MMA2.exact_indices()
        assert t["classical"] == Fraction(2, 5)
        assert (t[(0, 0)], t[(1, 1)], t[(0, 1)], t[(1, 0)]) == (
            Fraction(2, 5), Fraction(2, 5), Fraction(18, 25), Fraction(4, 5)
        )

    def test_all_zero_weights_give_one(self):
        t = MaxMovingAverage(a=(0, 0, 0, 0)).exact_indices()
        assert all(v == 1 for v in t.values())

    def test_exact_mixture_table(self):
        m = Mixture(components=((0.5, MMA), (0.5, MMA2))).exact_indices()
        assert list(m) == ["classical", *ALL_CORNERS]
        assert m["classical"] == Fraction(2, 5)
        assert m[(0, 0)] == Fraction(13, 25)
        assert m[(1, 1)] == Fraction(21, 50)
        assert m[(0, 1)] == Fraction(14, 25)
        assert m[(1, 0)] == Fraction(7, 10)

    def test_mixture_single_component_reduces(self):
        m = Mixture(components=((1, MMA),)).exact_indices()
        t = MMA.exact_indices()
        assert all(m[k] == t[k] for k in m)

    def test_mixture_self_fixed_point(self):
        m = Mixture(components=((0.5, MMA), (0.5, MMA))).exact_indices()
        t = MMA.exact_indices()
        assert all(m[k] == t[k] for k in m)

    def test_unequal_scale_mixture_table(self):
        # component weights pi ∝ w / theta: 3/4 and 49/50, over 173/100
        m = UNEQUAL.exact_indices()
        assert list(m) == ["classical", *ALL_CORNERS]
        assert m["classical"] == Fraction(100, 173)
        assert m[(0, 0)] == Fraction(118, 173)
        assert m[(1, 1)] == Fraction(103, 173)
        assert m[(0, 1)] == Fraction(100, 173)
        assert m[(1, 0)] == Fraction(115, 173)

    def test_general_stencil_table(self):
        t = GENERAL.exact_indices()
        assert list(t) == ["classical", *ALL_CORNERS]
        assert [t[k] for k in t] == [
            Fraction(2, 5), Fraction(7, 10), Fraction(7, 10), Fraction(1, 2), Fraction(2, 5)
        ]

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_iid_reads_all_ones(self, alpha):
        t = IIDFrechet(alpha).exact_indices()
        assert list(t) == ["classical", *ALL_CORNERS]
        assert all(v == 1 and isinstance(v, Fraction) for v in t.values())

    def test_three_dimensional_stencil_has_eight_corners(self):
        t = GeneralMaxMovingAverage(stencil=(((1, 0, -1), 0.5), ((0, 1, 1), 0.25))).exact_indices()
        assert list(t)[1:] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                               (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert t["classical"] == Fraction(4, 7)

    def test_non_integer_alpha_gives_floats(self):
        table = MaxLinear(MMA.stencil, alpha=1.5).exact_indices()  # Frechet(1.5) noise
        s = 1 + sum(w**1.5 for w in MMA_A)
        assert table["classical"] == pytest.approx(1 / s, rel=1e-14)
        assert all(isinstance(v, float) for v in table.values())

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.dictionaries(
                st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]),
                min_size=1, max_size=6,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_half_space_value_is_one_over_the_weight_sum(self, stencil):
        spec = GeneralMaxMovingAverage(stencil=tuple(stencil.items()))
        t = spec.exact_indices()
        s = 1 + sum(Fraction(str(w)) for w in stencil.values())
        assert t["classical"] == 1 / s
        assert len(t) == 1 + 2**spec.dim

    @pytest.mark.parametrize("a", [MMA_A, MMA_A2, (0.3, 0.2, 0.9, 0.5), (0, 1, 0, 0.4)])
    def test_every_order_gives_the_classical_index(self, a):
        spec = MaxMovingAverage(a=a)
        t = spec.exact_indices()
        for order in (LEX, InvariantOrder(2, perm=(1, 0)), InvariantOrder(2, signs=(1, -1))):
            # the atom law on HalfSpaceRegion(order, 2), written out
            pts = set(HalfSpaceRegion(order, 2).points())
            atoms = [((0, 0), Fraction(1))] + [
                (o, Fraction(str(w))) for o, w in spec.stencil if w > 0
            ]
            w = dict(atoms)
            mass = sum(
                max(wk - max([w.get((k[0] - t0, k[1] - t1), 0) for t0, t1 in pts]), 0)
                for k, wk in atoms
            )
            assert mass / sum(w.values()) == t["classical"]

    @pytest.mark.parametrize("iid_first", [False, True], ids=["stencil-first", "iid-first"])
    def test_mixture_takes_the_dimension_of_its_stencil(self, iid_first):
        # the IID table is built in 3-D: classical plus 8 corners, IID all ones
        stencil = GeneralMaxMovingAverage(stencil=(((1, 0, 0), 0.5),))
        comps = ((0.5, stencil), (0.5, IIDFrechet(1.0)))
        t = Mixture(components=comps[::-1] if iid_first else comps).exact_indices()
        own = stencil.exact_indices()
        # pi ∝ w_i / theta_i = (1/2) / (2/3) and (1/2) / 1
        pi_s, pi_iid = Fraction(3, 4), Fraction(1, 2)
        assert len(t) == 9 and list(t) == list(own)
        assert t == {k: (pi_s * v + pi_iid) / (pi_s + pi_iid) for k, v in own.items()}
        assert t["classical"] == Fraction(4, 5)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MaxMovingAverage(a=(1.5, 0, 0, 0))

    def test_models_without_a_closed_form_raise_type_error(self):
        br = BrownResnick(variogram=AdditiveFBM((0.5, 0.5)))
        with pytest.raises(TypeError, match="BrownResnick"):
            br.exact_indices()
        with pytest.raises(TypeError, match="CounterexampleField"):
            CounterexampleField(1.0).exact_indices()
        with pytest.raises(TypeError, match="BrownResnick"):
            Mixture(components=((0.5, MMA), (0.5, br))).exact_indices()


class TestAtomLaw:
    @pytest.mark.parametrize("spec", [GENERAL, UNEQUAL], ids=["general-stencil", "unequal-mixture"])
    def test_estimators_match_exact(self, spec):
        # classical and run estimates at n = 400^2, r = 20^2, tau = 1, each
        # within 4 se of the exact atom-law value
        exact = spec.exact_indices()
        rng = RngStream(331)
        n, r = (400, 400), (20, 20)
        ests = {"classical": theta_classical_empirical(spec, n, 1.0, 20_000, rng.lane(0),
                                                      chunk=2048)}
        u = level_u(spec, n, 1.0)
        for i, corner in enumerate(ALL_CORNERS):
            ests[corner] = theta_run_empirical(spec, corner, r, u, 20_000, rng.lane(1 + i))
        for key, est in ests.items():
            assert abs(est.value - float(exact[key])) <= 4 * est.se, key


class TestRunEstimator:
    def test_mma_all_corners(self):
        rng = RngStream(301)
        u = level_u(MMA, (400, 400), 1.0)
        for i, corner in enumerate(ALL_CORNERS):
            est = theta_run_empirical(MMA, corner, (20, 20), u, 4000, rng.lane(i))
            exact = float(MMA.exact_indices()[corner])
            assert abs(est.value - exact) <= max(3.5 * est.se, 0.03)

    def test_iid_no_clustering(self):
        u = level_u(IIDFrechet(1.0), (100, 100), 1.0)
        est = theta_run_empirical(IIDFrechet(1.0), (0, 0), (10, 10), u, 4000, RngStream(302))
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            theta_run_empirical(MMA, (0, 0), (1, 5), level_u(MMA, (50, 50), 1.0), 100,
                                RngStream(0))

    def test_brown_resnick_matches_rejection(self):
        # the exact conditional route against rejection from built fields
        spec = BrownResnick(variogram=AdditiveFBM((0.5, 0.5)))
        r, n = (3, 3), (6, 6)
        u = level_u(spec, n, 1.0)
        est = theta_run_empirical(spec, (0, 0), r, u, 20_000, RngStream(321))
        x = field_batch(spec, pos_block(r), 300_000, RngStream(322).generator())
        x = x[x[:, 0, 0] > u].reshape(-1, 9)[:, 1:]
        rej = MCEstimate.proportion(int((x.max(axis=1) <= u).sum()), len(x))
        assert abs(est.value - rej.value) <= 4 * math.hypot(est.se, rej.se)
        two = theta_run_empirical(spec, (0, 0), r, u, 20_000, RngStream(321), threads=2)
        assert two == est

    def test_model_without_sampler_raises(self):
        # the parity field has no exact conditional sampler
        spec = CounterexampleField(1.0)
        with pytest.raises(TypeError, match="CounterexampleField"):
            theta_run_empirical(spec, (0, 0), (4, 4), level_u(spec, (200, 200), 1.0), 2000,
                                RngStream(303))


@pytest.mark.parametrize("u", [math.nan, 0.0, -1.0, math.inf])
def test_estimators_reject_a_level_that_is_not_positive_and_finite(u):
    # the run and block estimators take u from the caller
    for estimate in (
        lambda: theta_run_empirical(MMA, (0, 0), (5, 5), u, 100, RngStream(0)),
        lambda: theta_block_empirical(MMA, (5, 5), u, 100, RngStream(0)),
    ):
        with pytest.raises(ValueError, match="must be positive and finite"):
            estimate()


# 1-D stencil of scripts/stencil-1d.json
STENCIL_1D = GeneralMaxMovingAverage(stencil=(((1,), 0.5), ((-2,), 0.8)))


class TestRunFromTheLaw:
    """``run_max_batch`` draws max-linear run maxima from their law; the
    finite-window run index ``MaxLinear.run_index`` is their exact target."""

    def test_full_mask_keeps_the_exponent(self):
        for spec, r in [(MMA, (20, 20)), (GENERAL, (7, 5)), (STENCIL_1D, (20,)),
                        (IIDFrechet(2.0), (4, 3)), (MaxLinear(MMA.stencil, alpha=1.5), (6, 6))]:
            window = pos_block(r)
            assert spec.exponent(window, np.ones(r, dtype=bool)) == spec.exponent(window)

    def test_mma_finite_window_values(self):
        # n = 200^2, r = 20^2, tau = 1: within 4 se at 200,000 replicates
        u = level_u(MMA, (200, 200), 1.0)
        expect = {(0, 0): 0.637189, (0, 1): 0.398242, (1, 0): 0.597364, (1, 1): 0.438066}
        rng = RngStream(341)
        for i, (corner, value) in enumerate(expect.items()):
            exact = MMA.run_index(pos_block((20, 20)), corner_point(corner, (20, 20)), u)
            assert exact == pytest.approx(value, abs=5e-7)
            est = theta_run_empirical(MMA, corner, (20, 20), u, 200_000, rng.lane(i))
            assert abs(est.value - exact) <= 4 * est.se, corner

    @pytest.mark.parametrize("spec, corner, r, n", [
        (STENCIL_1D, (1,), (20,), (400,)),
        (IIDFrechet(2.0), (1, 1), (10, 10), (100, 100)),
        (MaxLinear(MMA.stencil, alpha=1.5), (1, 0), (20, 20), (200, 200)),
    ], ids=["stencil-1d", "iid-alpha-2", "mma-alpha-1.5"])
    def test_finite_window_values(self, spec, corner, r, n):
        u = level_u(spec, n, 1.0)
        exact = spec.run_index(pos_block(r), corner_point(corner, r), u)
        est = theta_run_empirical(spec, corner, r, u, 200_000, RngStream(342))
        assert 0.0 < exact < 1.0
        assert abs(est.value - exact) <= 4 * est.se

    def test_default_route_builds_the_conditional_fields(self):
        spec = BrownResnick(variogram=AdditiveFBM((0.5, 0.5)))
        r, n, count = (3, 3), (6, 6), 500
        u, window, point = level_u(spec, n, 1.0), pos_block(r), corner_point((1, 0), r)
        x = conditional_field_batch(spec, window, point, u, count,
                                    RngStream(343).substream(0).generator())
        x = np.abs(x.reshape(count, -1))
        x[:, np.ravel_multi_index(window.index(point), r)] = 0.0
        by_hand = x.max(axis=1)
        m = run_max_batch(spec, window, point, u, count, RngStream(343).substream(0).generator())
        assert np.array_equal(m, by_hand)
        est = theta_run_empirical(spec, (1, 0), r, u, count, RngStream(343), chunk=count)
        assert est == MCEstimate.proportion(int((by_hand <= u).sum()), count)

    @pytest.mark.parametrize("spec", [MMA, UNEQUAL], ids=["mma", "unequal-mixture"])
    def test_threads_keep_the_bytes(self, spec):
        args = (spec, (0, 1), (20, 20), level_u(spec, (200, 200), 1.0), 5000, RngStream(344))
        one = theta_run_empirical(*args, chunk=1024)
        assert theta_run_empirical(*args, chunk=1024, threads=2) == one

    def test_memory_is_not_the_block(self):
        # building the conditioned blocks took a traced peak of about 180 MB
        u = level_u(MMA, (600, 600), 1.0)
        tracemalloc.start()
        try:
            theta_run_empirical(MMA, (0, 0), (60, 60), u, 2048, RngStream(345))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestMixtureFiniteWindow:
    """For a mixture of max-linear components P(M <= u) = sum_i w_i
    exp(-V_i u^-alpha), V_i the component exponents of the window: the
    exact finite-window targets of the classical and block estimators."""

    @staticmethod
    def _no_exceedance(spec, r, u):
        w = pos_block(r)
        return sum(wi * math.exp(-m.exponent(w) * u**-spec.alpha) for wi, m in spec.components)

    @pytest.mark.parametrize("spec, expect, seed", [
        (Mixture(tuple((0.5, m) for m in (MMA, MMA2))), (0.404505, 0.444017), 346),
        (UNEQUAL_HALVES, (0.516035, 0.543841), 347),
    ], ids=["mixture", "mixture-unequal"])
    def test_within_4_se_of_the_exact_values(self, spec, expect, seed):
        n, r = (200, 200), (20, 20)
        u = level_u(spec, n, 1.0)
        classical = -math.log(self._no_exceedance(spec, n, u))
        block = (1.0 - self._no_exceedance(spec, r, u)) / (math.prod(r) * spec.exceed_prob(u))
        assert (classical, block) == pytest.approx(expect, abs=5e-7)
        rng = RngStream(seed)
        for est, exact in [
            (theta_classical_empirical(spec, n, 1.0, 200_000, rng.lane(0)), classical),
            (theta_block_empirical(spec, r, u, 200_000, rng.lane(1)), block),
        ]:
            assert abs(est.value - exact) <= 4 * est.se


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

    @pytest.mark.parametrize(
        "spec, n", [(MMA, (100, 100)), (IIDFrechet(2.0), (50, 50))], ids=["mma", "iid-2"]
    )
    def test_exact_finite_n(self, spec, n):
        # P(M <= u) = exp(-V u^-alpha), so theta_n = V u^-alpha / tau exactly
        tau = 1.0
        est = theta_classical_empirical(spec, n, tau, 20_000, RngStream(309), chunk=2048)
        exact = spec.exponent(pos_block(n)) * level_u(spec, n, tau) ** -spec.alpha / tau
        assert abs(est.value - exact) <= 4 * est.se

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
        est = theta_block_empirical(MMA, r, u, 120_000, RngStream(307))
        assert abs(est.value - theta_exact) <= 3 * est.se

    def test_iid_is_one(self):
        u = level_u(IIDFrechet(1.0), (100, 100), 1.0)
        est = theta_block_empirical(IIDFrechet(1.0), (10, 10), u, 120_000, RngStream(308))
        assert abs(est.value - 1.0) <= max(3 * est.se, 0.05)


class TestTailSampleIndices:
    def test_iid_all_indices_one(self, iid_tails):
        for corner in ALL_CORNERS:
            est, _ = theta_from_tail_samples(iid_tails, OrthantRegion(corner, 2))
            assert est.value >= 0.96
        est, _ = theta_from_tail_samples(iid_tails, HalfSpaceRegion(LEX, 2))
        assert est.value >= 0.96

    def test_mma_matches_run_indices(self):
        # q high enough that the noise floor is small next to the MC error
        from tailfields.tailfield import estimate_tail_field

        tails = estimate_tail_field(MMA, centered_box(2, 2), 1_000_000,
                                    RngStream(320), q=0.999)
        rng = RngStream(309)
        u = level_u(MMA, (400, 400), 1.0)
        for i, corner in enumerate(ALL_CORNERS):
            tf, _ = theta_from_tail_samples(tails, OrthantRegion(corner, 2))
            run = theta_run_empirical(MMA, corner, (20, 20), u, 4000, rng.lane(i))
            z = abs(tf.value - run.value) / math.hypot(tf.se, run.se)
            assert z <= 3.5

    def test_halfspace_order_free(self, mma_tails):
        a, _ = theta_from_tail_samples(mma_tails, HalfSpaceRegion(LEX, 2))
        b, _ = theta_from_tail_samples(
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
        assert HalfSpaceRegion(order, 2).points() == expected

    def test_boundary_diagnostic_reported(self, mma_tails):
        # the stencil reaches two steps, so the shell at bound 4 carries only
        # the finite-threshold noise floor; at bound 1 it holds the clusters
        est, shell = theta_from_tail_samples(mma_tails, OrthantRegion((0, 0), 4))
        near, near_shell = theta_from_tail_samples(mma_tails, OrthantRegion((0, 0), 1))
        assert shell.n == est.n == len(mma_tails)
        assert 0.0 <= shell.value < near_shell.value <= 1.0
        assert near_shell.value == pytest.approx(1.0 - near.value)

    def test_region_exceeds_window(self, mma_tails):
        with pytest.raises(ValueError):
            theta_from_tail_samples(mma_tails, OrthantRegion((0, 0), 9))


class TestBrBlockIndex:
    def test_antitone_in_truncation_pathwise(self):
        prof = br_theta_block_profile(AdditiveFBM((0.6, 0.6)), [1, 2, 4, 8], LEX,
                                      20_000, RngStream(310))
        vals = [prof[m].value for m in [1, 2, 4, 8]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "order",
        [LEX, InvariantOrder(dim=2, perm=(1, 0), signs=(-1, 1)),
         InvariantOrder(dim=1, signs=(-1,)),
         InvariantOrder(dim=3, perm=(2, 0, 1), signs=(1, -1, -1))],
        ids=["lex", "permuted-signed", "1d-signed", "3d-permuted-signed"],
    )
    def test_is_the_half_space_cdf_bit_for_bit(self, order):
        # the block index is the tail field's CDF at level 1 on the half-space;
        # at n_mc <= 64 both estimators draw one chunk from the same substream
        vg, M = AdditiveFBM((0.6, 0.4, 0.7)[: order.dim]), 5
        for n in (1, 40, 64):
            prof = br_theta_block_profile(vg, [M], order, n, RngStream(315))[M]
            pts = HalfSpaceRegion(order, M).points()
            assert prof == br_tail_fdd_mc(pts, 1.0, vg, n, RngStream(315))

    @pytest.mark.parametrize(
        "hurst, order, M_list",
        [((0.6, 0.4), LEX, [1, 2, 4, 8]),
         ((0.3, 0.5, 0.7), InvariantOrder(dim=3, perm=(2, 0, 1), signs=(1, -1, -1)), [3, 6])],
        ids=["2d", "3d"],
    )
    def test_profile_is_the_dense_route_bit_for_bit(self, hurst, order, M_list):
        # per-axis maxima against V on every site of the half-space, over
        # several chunks and a ragged last one
        vg = AdditiveFBM(hurst)
        prof = br_theta_block_profile(vg, M_list, order, 300, RngStream(316))
        pts = HalfSpaceRegion(order, M_list[-1]).point_array()
        radii = np.abs(pts).max(axis=1)
        masks = [radii <= m for m in M_list]
        dense = _exponent_gap(vg, pts, None, masks, 300, RngStream(316), 64)
        assert prof == dict(zip(M_list, dense))

    def test_memory_is_linear_in_the_radius(self):
        # the dense route held (64, 2 M^2) arrays: a traced peak of about 48 MB
        vg = AdditiveFBM((0.5, 0.5))
        br_theta_block_profile(vg, [200], LEX, 1, RngStream(317))  # fGn factors cached
        tracemalloc.start()
        try:
            br_theta_block_profile(vg, [200], LEX, 200, RngStream(317))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_near_independence_limit(self):
        vg = CustomVariogram(
            dim=2,
            gamma=lambda t: 0.0 if all(x == 0 for x in t) else 1e6,
            sigma2=lambda t: 0.0 if all(x == 0 for x in t) else 1e6,
        )
        est = br_theta_block_profile(vg, [2], LEX, 2000, RngStream(311))[2]
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_matches_half_space_on_exact_tail_draws(self):
        # same truncation on both routes estimates the same probability
        vg = AdditiveFBM((0.7, 0.7))
        M = 8
        bb = br_theta_block_profile(vg, [M], LEX, 40_000, RngStream(312))[M]
        lagw = centered_box(M, 2)
        pts = list(lagw.points())
        rows = br_tail_field_batch(vg, pts, 40_000, RngStream(313).generator())
        oi = pts.index((0, 0))
        samples = TailBatch(lagw, rows.reshape(-1, *lagw.shape), rows[:, oi], 1.0)
        half, _ = theta_from_tail_samples(samples, HalfSpaceRegion(LEX, M))
        assert abs(bb.value - half.value) <= 3 * math.hypot(bb.se, half.se)

    def test_paper_scale_truncation_runs(self):
        est = br_theta_block_profile(AdditiveFBM((0.5, 0.5)), [200], LEX, 200,
                                     RngStream(314))[200]
        assert 0.0 < est.value < 1.0 and est.se < 0.05


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
        est = theta_block_empirical(spec, r, u, 12_000, RngStream(330))
        sampler = GaussianFieldSampler(vg, list(pos_block(r).points()))
        w = sampler.draw(400_000, RngStream(331).generator())
        m = np.exp(w - 0.5 * sampler.sigma2).max(axis=1)
        p = 1.0 - math.exp(-m.mean() / u)
        se_p = math.exp(-m.mean() / u) * m.std() / math.sqrt(len(m)) / u
        den = 16 * spec.exceed_prob(u)
        oracle, oracle_se = p / den, se_p / den
        z = abs(est.value - oracle) / math.hypot(est.se, oracle_se)
        assert z <= 3.0, (est.value, oracle)
