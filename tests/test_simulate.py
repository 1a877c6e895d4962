import math

import numpy as np
import pytest
from scipy import stats

from tailfields.extremal import level_u
from tailfields.lattice import Window, centered_box, pos_block, sym_block
from tailfields.models import (
    AdditiveFBM,
    BrownResnick,
    MMA_OFFSETS,
    CounterexampleField,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
    Model,
)
from tailfields.rng import RngStream
from tailfields.simulate import (
    block_max_batch,
    conditional_field_batch,
    field_batch,
    field_roots,
    frechet_above,
)

MMA_A = (0.1, 0.7, 0.6, 0.1)
MMA = MaxMovingAverage(a=MMA_A)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [IIDFrechet(1.0), MMA, CounterexampleField(1.0),
         Mixture(components=((0.5, IIDFrechet(1.0)), (0.5, MMA)))],
        ids=["IIDFrechet", "MaxMovingAverage", "CounterexampleField", "Mixture"],
    )
    def test_same_stream_same_field(self, spec):
        w = pos_block((6, 6))
        a = field_batch(spec, w, 1, RngStream(9, 4).generator())
        b = field_batch(spec, w, 1, RngStream(9, 4).generator())
        assert np.array_equal(a, b)
        c = field_batch(spec, w, 1, RngStream(9, 5).generator())
        assert not np.array_equal(a, c)


class TestFrechet:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            IIDFrechet(0.0)

    def test_cdf_at_one(self):
        z = field_batch(IIDFrechet(1.0), pos_block((1, 1)), 1_000_000,
                        RngStream(1).generator())
        assert (z <= 1.0).mean() == pytest.approx(math.exp(-1), abs=2e-3)

    def test_tail_scaling(self):
        # exact value of z^alpha P(Z > z) at z=100: 100 * (1 - e^(-1/100))
        z = field_batch(IIDFrechet(1.0), pos_block((1, 1)), 4_000_000,
                        RngStream(2).generator())
        target = 100 * (1 - math.exp(-0.01))
        assert 100 * (z > 100).mean() == pytest.approx(target, abs=0.01)

    def test_alpha_two_margin(self):
        z = field_batch(IIDFrechet(2.0), pos_block((1, 1)), 500_000, RngStream(3).generator())
        assert (z <= 2.0).mean() == pytest.approx(math.exp(-0.25), abs=3e-3)


def brute_stencil_exponent(r, weights, alpha=1.0):
    """Sum over noise sites of the alpha-th power of the largest weight
    through which the site can reach the block [0:r-1]; independent oracle
    for the block-max law P(M <= u) = exp(-E u^-alpha)."""
    kappa = {}
    for t in pos_block(r).points():
        for o, w in [((0,) * len(r), 1.0)] + list(weights.items()):
            s = tuple(a + b for a, b in zip(t, o))
            kappa[s] = max(kappa.get(s, 0.0), w)
    return sum(c**alpha for c in kappa.values())


def exact_block_cdf(spec, shape, u):
    """P(max over [0:shape-1] of X <= u) for a max-linear model or a mixture
    of them, from the enumeration oracle."""
    if isinstance(spec, Mixture):
        return sum(w * exact_block_cdf(m, shape, u) for w, m in spec.components)
    e = brute_stencil_exponent(shape, spec.weights, spec.alpha)
    return math.exp(-e * u**-spec.alpha)


def assert_proportion(hits, n, exact):
    """The share hits/n lies within 4 binomial se of ``exact``."""
    assert abs(hits / n - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def paper_exponent(r, a):
    r1, r2 = r
    m1, p1, pp, pm = a
    return (
        r1 * r2
        + 3 * (m1 + p1 + pp + pm)
        + (r1 - 2) * (max(m1, pm) + max(pp, p1))
        + (r2 - 2) * (max(m1, p1) + max(pp, pm))
    )


class TestMaxMovingAverage:
    def test_zero_weights_reduce_to_noise(self):
        spec = MaxMovingAverage(a=(0.0, 0.0, 0.0, 0.0))
        w = pos_block((5, 5))
        x = field_batch(spec, w, 1, RngStream(4, 2).generator())[0]
        z = field_batch(IIDFrechet(1.0), w.dilate(1), 1, RngStream(4, 2).generator())[0]
        assert np.array_equal(x, z[1:-1, 1:-1])

    def test_marginal_closed_form(self):
        # P(X(0) <= u) = F_Z(u)^(1+s) with s the weight sum
        x = field_batch(MMA, pos_block((1, 1)), 1_000_000, RngStream(5).generator())
        assert (x <= 10.0).mean() == pytest.approx(math.exp(-0.25), abs=3e-3)

    @pytest.mark.parametrize("r,a", [((4, 4), MMA_A), ((2, 2), MMA_A),
                                     ((5, 7), (0.6, 0.2, 0.6, 0.1))])
    def test_exponent_formula_matches_enumeration(self, r, a):
        weights = dict(zip(MMA_OFFSETS, a))
        assert brute_stencil_exponent(r, weights) == pytest.approx(paper_exponent(r, a))

    def test_block_max_law(self):
        # P(M_X([0:r-1]) <= u) = F_Z(u)^E(r,a), E from the enumeration oracle
        r, u = (4, 4), 40.0
        e = brute_stencil_exponent(r, dict(zip(MMA_OFFSETS, MMA_A)))
        x = field_batch(MMA, pos_block(r), 400_000, RngStream(6).generator())
        emp = (x.reshape(len(x), -1).max(axis=1) <= u).mean()
        assert emp == pytest.approx(math.exp(-e / u), abs=3e-3)

    def test_general_stencil_marginal(self):
        spec = GeneralMaxMovingAverage(stencil=(((2, 0), 0.5), ((0, 1), 0.25)))
        x = field_batch(spec, pos_block((1, 1)), 500_000, RngStream(7).generator())
        assert (x <= 5.0).mean() == pytest.approx(math.exp(-1.75 / 5), abs=3e-3)

    def test_stationarity_two_sites(self):
        x = field_batch(MMA, pos_block((3, 3)), 40_000, RngStream(8).generator())
        p = stats.ks_2samp(x[:, 0, 0], x[:, 2, 1]).pvalue
        assert p > 0.01


class TestBlockMaxBatch:
    """Block maxima have the law of the built fields' maxima: at the level u
    with |window| P(X(0) > u) = 1/2, P(M <= u) matches the exact
    exp(-V u^-alpha) at 4 se (a weighted sum of such terms for mixtures).
    A model without a block-max law builds the fields, bit for bit."""

    MMA2 = MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1))
    GMMA3 = GeneralMaxMovingAverage(
        stencil=(((1, 0, 0), 0.5), ((0, -2, 1), 0.9), ((0, 0, 1), 1.0))
    )

    @staticmethod
    def assert_law(spec, shape, seeds, count=20_000):
        u = level_u(spec, shape, 0.5)
        exact = exact_block_cdf(spec, shape, u)
        for seed in seeds:
            m = block_max_batch(spec, pos_block(shape), count, RngStream(seed).generator())
            assert m.shape == (count,)
            assert_proportion(int((m <= u).sum()), count, exact)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (200, 200)])
    @pytest.mark.parametrize(
        "spec",
        [MMA, MaxMovingAverage(a=(0.0, 0.0, 0.0, 0.0)),
         MaxMovingAverage(a=(1.0, 0.3, 0.0, 0.5)), IIDFrechet(2.0),
         Mixture(components=((0.5, MMA), (0.5, MMA2))), CounterexampleField(1.0)],
        ids=["mma-default", "zero-weights", "weight-one", "iid-2", "mixture",
             "counterexample"],
    )
    def test_equals_field_maxima(self, spec, shape):
        if type(spec).block_maxima is Model.block_maxima:
            count, w = (4 if shape == (200, 200) else 300), pos_block(shape)
            m = block_max_batch(spec, w, count, RngStream(0).generator())
            x = field_batch(spec, w, count, RngStream(0).generator())
            assert np.array_equal(m, np.abs(x.reshape(count, -1)).max(axis=1))
            return
        self.assert_law(spec, shape, (0, 1))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 13, 3), (40, 40, 40)])
    def test_equals_field_maxima_3d(self, shape):
        self.assert_law(self.GMMA3, shape, (2,))

    @pytest.mark.parametrize(
        "spec, shape",
        [(MMA, (4, 4)), (MaxMovingAverage(a=(1.0, 0.3, 0.0, 0.5)), (5, 7)),
         (GMMA3, (3, 4, 2)), (IIDFrechet(2.0), (6, 5))],
        ids=["mma-default", "weight-one", "gmma3", "iid-2"],
    )
    def test_exponent_matches_enumeration(self, spec, shape):
        e = brute_stencil_exponent(shape, spec.weights, spec.alpha)
        assert spec.exponent(pos_block(shape)) == pytest.approx(e, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            block_max_batch(MMA, pos_block((3, 3, 3)), 1, RngStream(0).generator())


class TestFieldRoots:
    """Roots and the rows built for them have the law of the built fields:
    at the level u with P(|X(point)| > u) = 1/2, the roots exceed u at that
    rate, and per lag t, P(|X(t)| > u | |X(point)| > u) over the rows built
    for the exceeding roots matches the built fields at 4 se."""

    OFF_CENTRE = Window((-1, -3), (2, 1))

    @pytest.mark.parametrize(
        "spec, window, point, count",
        [
            (MMA, centered_box(4, 2), (0, 0), 20_000),
            (MMA, OFF_CENTRE, (0, 0), 20_000),
            (MMA, OFF_CENTRE, (2, -3), 20_000),
            (TestBlockMaxBatch.MMA2, OFF_CENTRE, (0, 0), 20_000),
            (MaxMovingAverage(a=(0.0, 0.0, 0.0, 0.0)), OFF_CENTRE, (-1, 1), 20_000),
            (TestBlockMaxBatch.GMMA3, Window((-2, -1, 0), (1, 3, 2)), (0, 0, 1), 10_000),
            (IIDFrechet(2.0), OFF_CENTRE, (0, 0), 20_000),
            (Mixture(components=((0.5, MMA), (0.5, TestBlockMaxBatch.MMA2))),
             OFF_CENTRE, (0, 0), 20_000),
            (CounterexampleField(1.0), OFF_CENTRE, (0, 0), 20_000),
            (BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5))), OFF_CENTRE,
             (0, 0), 20_000),
            # the walk starts at a corner of the window, then visits the rest
            (BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5))), OFF_CENTRE,
             (2, -3), 20_000),
        ],
        ids=["mma-default", "mma-off-centre", "mma-corner", "mma2", "zero-weights",
             "gmma3-radius-2", "iid-2", "mixture", "counterexample", "brown-resnick",
             "brown-resnick-corner"],
    )
    def test_equals_built_fields(self, spec, window, point, count):
        u = level_u(spec, (2,), 1.0)
        at = (slice(None), *window.index(point))
        roots, rows = field_roots(spec, window, point, count, RngStream(0).generator())
        assert_proportion(int((roots > u).sum()), count, 0.5)
        kept = np.flatnonzero(roots > u)
        x_roots = rows(kept)
        assert np.array_equal(np.abs(x_roots[at]), roots[kept])
        x = field_batch(spec, window, count, RngStream(1).generator())
        x_built = x[np.abs(x[at]) > u]
        p_roots, p_built = (
            (np.abs(y) > u).reshape(len(y), -1).mean(axis=0) for y in (x_roots, x_built)
        )
        se = np.sqrt(p_roots * (1 - p_roots) / len(x_roots)
                     + p_built * (1 - p_built) / len(x_built))
        assert np.all(np.abs(p_roots - p_built) <= 4 * se)

    def test_point_outside_window(self):
        with pytest.raises(ValueError):
            field_roots(MMA, centered_box(1, 2), (2, 0), 1, RngStream(0).generator())


class TestCounterexampleField:
    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            field_batch(CounterexampleField(1.0), pos_block((3,)), 1, RngStream(0).generator())

    def test_pair_structure_on_antidiagonal(self):
        # (X(0,0), X(-1,1)) sits on one anti-diagonal: X(-1,1) = Z1, X(0,0) = Z2
        w = Window((-1, 0), (0, 1))
        x = field_batch(CounterexampleField(1.0), w, 300_000, RngStream(14).generator())
        x00 = x[:, 1, 0]  # lattice (0,0)
        xm11 = x[:, 0, 1]  # lattice (-1,1)
        # equal-coordinate probability matches the odd-block mass of the latent Pareto
        diag_mass = sum(
            math.exp(-math.lgamma(2 * n)) - math.exp(-math.lgamma(2 * n + 1))
            for n in range(1, 40)
        )
        assert (x00 == xm11).mean() == pytest.approx(diag_mass, abs=5e-3)
        ks = stats.kstest(x00, lambda y: 1 - np.maximum(y, 1.0) ** -1.0)
        assert ks.statistic < 0.01

    def test_distinct_antidiagonals_independent(self):
        w = pos_block((2, 1))
        x = field_batch(CounterexampleField(1.0), w, 100_000, RngStream(15).generator())
        assert not (x[:, 0, 0] == x[:, 1, 0]).any()
        r = np.corrcoef(np.minimum(x[:, 0, 0], 10), np.minimum(x[:, 1, 0], 10))[0, 1]
        assert abs(r) < 0.02

    def test_stationarity_two_sites(self):
        x = field_batch(CounterexampleField(1.0), sym_block((3, 3)), 50_000,
                        RngStream(16).generator())
        p = stats.ks_2samp(x[:, 0, 0], x[:, 3, 4]).pvalue
        assert p > 0.01


class TestMixture:
    def test_whole_field_marginal(self):
        mix = Mixture(components=((0.5, MMA), (0.5, MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1)))))
        x = field_batch(mix, pos_block((1, 1)), 400_000, RngStream(17).generator())
        # both components share s = 1.5, so the mixture marginal is the common one
        assert (x <= 10.0).mean() == pytest.approx(math.exp(-0.25), abs=3e-3)


# all 24 offsets of [-2, 2]^2: the given-the-root law is linear in the
# stencil size, where a table of event subsets would need 2^25 rows
RADIUS_TWO = GeneralMaxMovingAverage(
    stencil=tuple(
        (o, 0.04 * (k + 1))
        for k, o in enumerate(o for o in centered_box(2, 2).points() if any(o))
    )
)


class TestConditionalSampling:
    @pytest.mark.parametrize(
        "spec, window, point, u, n, seed",
        [(MMA, pos_block((4, 4)), (0, 0), 1e4, 5000, 18),
         (RADIUS_TWO, pos_block((5, 5)), (2, 2), 50.0, 100, 23),
         (IIDFrechet(2.0), pos_block((3, 3)), (1, 1), 1e3, 5000, 25)],
        ids=["mma", "radius-two", "iid-2"],
    )
    def test_event_always_holds(self, spec, window, point, u, n, seed):
        x = conditional_field_batch(spec, window, point, u, n, RngStream(seed).generator())
        assert (x[:, point[0], point[1]] > u).all()

    def test_matches_rejection_at_moderate_level(self):
        # cross-validate the exact conditional law against plain rejection
        u, w = 50.0, pos_block((6, 6))
        gen = RngStream(19).generator()
        x = field_batch(MMA, w, 400_000, gen)
        cond = x[:, 0, 0] > u
        rej = x[cond]
        xc = conditional_field_batch(MMA, w, (0, 0), u, 100_000, RngStream(20).generator())
        # compare P(second exceedance) and a bulk statistic
        other = np.ones(w.shape, dtype=bool)
        other[0, 0] = False
        p_rej = (rej[:, other] > u).any(axis=1).mean()
        p_con = (xc[:, other] > u).any(axis=1).mean()
        se = math.sqrt(p_rej * (1 - p_rej) / len(rej) + p_con * (1 - p_con) / len(xc))
        assert abs(p_rej - p_con) <= 4 * max(se, 1e-4)
        ks = stats.ks_2samp(rej[:, 0, 0], xc[:, 0, 0])
        assert ks.pvalue > 1e-3

    def test_conditional_marginal_tail(self):
        # X(p) is Frechet with scale 1 + s, so given X(p) > u its law is
        # P(X(p) > y | X(p) > u) = (1 - e^-(1+s)/y) / (1 - e^-(1+s)/u)
        u, n, scale = 20.0, 400_000, 1.0 + sum(MMA_A)
        x = conditional_field_batch(MMA, pos_block((1, 1)), (0, 0), u, n,
                                    RngStream(24).generator())[:, 0, 0]
        for y in (30.0, 60.0, 200.0):
            exact = -math.expm1(-scale / y) / -math.expm1(-scale / u)
            p = (x > y).mean()
            assert abs(p - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)

    def test_iid_conditioning(self):
        u = 100.0
        x = conditional_field_batch(IIDFrechet(2.0), pos_block((3, 3)), (1, 1), u,
                                    20_000, RngStream(21).generator())
        assert (x[:, 1, 1] > u).all()
        # conditioned Frechet(2) tail: P(Z > c y | Z > c) -> y^-2
        ratio = (x[:, 1, 1] / u)
        assert (ratio > 2).mean() == pytest.approx(
            (1 - math.exp(-(200.0) ** -2)) / (1 - math.exp(-(100.0) ** -2)), abs=5e-3
        )

    def test_brown_resnick_matches_rejection(self):
        # additive-fBm Brown-Resnick given X(p) > u against rejection from
        # built fields: per lag P(X(t) > u | X(p) > u), and the root law
        # P(X(p) > 2u | X(p) > u); p is not the first site in row-major order
        spec = BrownResnick(variogram=AdditiveFBM((0.5, 0.5)))
        w, p, u, n = pos_block((3, 3)), (1, 0), 3.0, 30_000
        x = field_batch(spec, w, 100_000, RngStream(40).generator())
        rej = x[x[:, 1, 0] > u]
        xc = conditional_field_batch(spec, w, p, u, n, RngStream(41).generator())
        r = frechet_above(RngStream(41).generator(), np.full(n, u), 1.0)
        assert np.array_equal(xc[:, 1, 0], r) and (r > u).all()
        for a, b in [(rej > u, xc > u), (rej[:, 1, 0] > 2 * u, xc[:, 1, 0] > 2 * u)]:
            pa = a.reshape(len(a), -1).mean(axis=0)
            pb = b.reshape(len(b), -1).mean(axis=0)
            se = np.sqrt(pa * (1 - pa) / len(a) + pb * (1 - pb) / len(b))
            assert (np.abs(pa - pb) <= 4 * se).all(), (pa, pb)

    def test_unsupported_model_raises(self):
        with pytest.raises(TypeError, match="CounterexampleField"):
            conditional_field_batch(CounterexampleField(1.0), pos_block((3, 3)),
                                    (0, 0), 10.0, 10, RngStream(22).generator())

    def test_dimension_mismatch(self):
        # a 2-D model on a 1-D window is rejected, not sampled off its stencil
        with pytest.raises(ValueError, match="dimension 2"):
            conditional_field_batch(MMA, pos_block((20,)), (0,), 10.0, 10,
                                    RngStream(23).generator())
