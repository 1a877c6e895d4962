import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from tailfields.lattice import Window, centered_box
from tailfields.models import (
    MMA_OFFSETS,
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    IIDFrechet,
    MaxLinear,
    MaxMovingAverage,
    Mixture,
    Model,
    model_from_config,
)
from tailfields.rng import RngStream
from tailfields.simulate import field_batch, field_roots
from tailfields.tailfield import (
    MCEstimate,
    TailBatch,
    TooFewExceedancesError,
    br_tail_fdd_mc,
    br_tail_marginal_cdf,
    estimate_tail_field,
    rs_transform,
    samples_to_rows,
    spectral_from_tail,
    verify_change_of_time,
)
from tailfields.testfuncs import ConstantOne, FieldRamp

MMA_A = (0.1, 0.7, 0.6, 0.1)


def head(batch, k):
    """The first k draws of a batch."""
    roots = None if batch.root_norm is None else batch.root_norm[:k]
    return TailBatch(batch.lags, batch.values[:k], roots, batch.alpha)


def spectral_batch(values, alpha=1.0):
    """A spectral batch of one draw on the centered box that fits ``values``."""
    values = np.asarray(values, dtype=float)
    return TailBatch(centered_box(values.shape[0] // 2, 2), values[None], None, alpha)


def alpha_norms(batch):
    """Per draw, the sum over lags of the field norm raised to alpha."""
    return (np.abs(batch.values) ** batch.alpha).reshape(len(batch), -1).sum(axis=1)


def mma_nonzero_prob(a, s):
    """Exact P(limit field nonzero at -s) from the noise-cause decomposition."""
    supp = dict(zip(MMA_OFFSETS, a))
    supp[(0, 0)] = 1.0
    return sum(
        w for c, w in supp.items() if (c[0] + s[0], c[1] + s[1]) in supp
    ) / (1 + sum(a))


class TestEstimateTailField:
    def test_iid_off_lags_vanish(self, iid_tails):
        # independence kills off-origin values: P(|Y(t)| > 0.1) -> 1 - e^{-1/100}
        # at q=0.999; allow 3 sigma of sampling noise on top of the limit bound
        y = iid_tails.norms_at([(2, -1)])[:, 0]
        slack = 3 * math.sqrt(0.01 * 0.99 / len(y))
        assert (y > 0.1).mean() <= 0.01 + slack

    def test_root_is_pareto(self, mma_tails):
        roots = mma_tails.root_norm
        ks = stats.kstest(roots, lambda y: 1 - np.maximum(y, 1.0) ** -1.0)
        assert ks.statistic <= 0.02
        assert roots.min() >= 1.0

    def test_counterexample_nonneg_lags_vanish(self):
        lags = Window((0, 0), (3, 3))
        tails = estimate_tail_field(
            CounterexampleField(1.0), lags, 200_000, RngStream(71), q=0.999
        )
        slack = 3 * math.sqrt(0.01 * 0.99 / len(tails))
        for lag in [(1, 0), (2, 2), (0, 3)]:
            y = tails.norms_at([lag])[:, 0]
            assert (y > 0.1).mean() <= 0.01 + slack

    def test_too_few_exceedances(self):
        with pytest.raises(TooFewExceedancesError):
            estimate_tail_field(
                IIDFrechet(1.0), centered_box(1, 2), 1000, RngStream(0), q=0.999,
                min_retained=50,
            )

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            estimate_tail_field(
                IIDFrechet(1.0), Window((1, 1), (3, 3)), 1000, RngStream(0)
            )

    def test_deterministic(self):
        a = estimate_tail_field(IIDFrechet(1.0), centered_box(1, 2), 30_000,
                                RngStream(72), q=0.99, chunk=1024)
        b = estimate_tail_field(IIDFrechet(1.0), centered_box(1, 2), 30_000,
                                RngStream(72), q=0.99, chunk=1024)
        assert len(a) == len(b)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.root_norm, b.root_norm)

    @pytest.mark.parametrize(
        "spec",
        [IIDFrechet(1.0), MaxMovingAverage(a=MMA_A),
         Mixture(components=((0.5, MaxMovingAverage(a=MMA_A)), (0.5, IIDFrechet(1.0)))),
         CounterexampleField(1.0), BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5)))],
        ids=["iid", "mma-default", "mixture", "counterexample", "brown-resnick"],
    )
    def test_rows_match_brute_force(self, spec):
        # Every model draws its roots first, so they are kept bit for bit;
        # rows are bit-exact where the model builds its fields, and the
        # max-stable models draw them given their roots.
        lags, chunk, n, q, rng = centered_box(1, 2), 16, 16_000, 0.9, RngStream(73)
        gens = [rng.substream(c).generator for c in range(n // chunk)]
        roots = np.concatenate([field_roots(spec, lags, (0, 0), chunk, g())[0] for g in gens])
        thresh = float(np.quantile(roots, q))
        exceed = roots > thresh
        got = estimate_tail_field(spec, lags, n, rng, q=q, chunk=chunk)
        assert np.array_equal(got.root_norm, roots[exceed] / thresh)
        assert np.array_equal(got.values[:, 1, 1], got.root_norm)
        if type(spec).roots is Model.roots:
            x = np.concatenate([field_batch(spec, lags, chunk, g()) for g in gens])
            assert np.array_equal(got.values, x[exceed] / thresh)

    def test_mixture_roots_have_the_built_field_law(self):
        # Components of unequal one-site scales: given an exceedance the
        # larger-scale component is more likely than its weight, so rows
        # built from a wrong component law read a different P(|Y(t)| > 1/2).
        config = Path(__file__).resolve().parents[1] / "scripts" / "mixture-unequal.json"
        spec = model_from_config(json.loads(config.read_text()))
        lags, n, u = centered_box(1, 2), 200_000, 10.0  # P(|X(0)| > u) about 0.18
        index = lags.index((0, 0))
        shares = []
        for route in (Mixture.roots, Model.roots):
            roots, build = route(spec, lags, index, n, RngStream(75).generator())
            kept = np.flatnonzero(roots > u)
            y = np.abs(build(kept)) / u
            shares.append([MCEstimate.proportion(int((y[:, 1 + a, 1 + b] > 0.5).sum()), len(kept))
                           for a, b in ((1, 1), (-1, 1))])
        for law, built in zip(*shares):
            assert abs(law.value - built.value) <= 4 * math.hypot(law.se, built.se)

    def test_builds_rows_only_for_kept_replicates(self):
        class CountingMMA(MaxLinear):
            def roots(self, window, index, count, gen):
                roots, build = super().roots(window, index, count, gen)

                def counted(idx):
                    built.append(len(idx))
                    return build(idx)

                return roots, counted

        built = []
        spec = CountingMMA(MaxMovingAverage(a=MMA_A).stencil)
        got = estimate_tail_field(spec, centered_box(1, 2), 20_000,
                                  RngStream(74), q=0.99, chunk=1024)
        assert sum(built) == len(got)


class TestSpectral:
    def test_lag_zero_norm_exactly_one(self, mma_spectral):
        assert np.all(mma_spectral.norms_at([(0, 0)]) == 1.0)
        assert mma_spectral.root_norm is None

    def test_scaling_invariance(self, mma_tails):
        t = head(mma_tails, 1)
        scaled = TailBatch(t.lags, 3.0 * t.values, 3.0 * t.root_norm, t.alpha)
        assert np.allclose(
            spectral_from_tail(t).values, spectral_from_tail(scaled).values,
            rtol=1e-12, atol=0.0,
        )

    def test_root_independent_of_spectral(self, mma_tails, mma_spectral):
        roots = mma_tails.root_norm
        th = mma_spectral.norms_at([(1, 1)])[:, 0]
        r = np.corrcoef(roots, th)[0, 1]
        assert abs(r) <= 3.0 / math.sqrt(len(roots))


class TestAlphaNorm:
    def test_single_atom(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = -1.0
        assert alpha_norms(spectral_batch(vals, alpha=1.7)).tolist() == [1.0]

    def test_monotone_in_window(self, mma_spectral):
        sl = (slice(None), slice(2, 7), slice(2, 7))
        small = TailBatch(centered_box(2, 2), mma_spectral.values[sl], None, 1.0)
        assert np.all(alpha_norms(small) <= alpha_norms(mma_spectral))

    def test_iid_concentrates_near_one(self, iid_spectral):
        med = np.median(alpha_norms(iid_spectral))
        assert 1.0 <= med <= 1.4  # finite-threshold noise floor inflates it slightly


class TestBrMarginalCdf:
    def test_exceedance_closed_form(self):
        # P(Y > 1) = 2 Phi(-sqrt(gamma)/2)
        from scipy.special import ndtr

        assert 1 - br_tail_marginal_cdf(4.0, 1.0) == pytest.approx(2 * ndtr(-1.0), abs=1e-12)
        assert 1 - br_tail_marginal_cdf(4.0, 1.0) == pytest.approx(0.31731, abs=5e-6)

    def test_specific_value(self):
        # direct numeric evaluation of the formula at gamma=1, y=2
        from scipy.special import ndtr

        expect = ndtr((2 * math.log(2) + 1) / 2) - 0.5 * ndtr((2 * math.log(2) - 1) / 2)
        assert br_tail_marginal_cdf(1.0, 2.0) == pytest.approx(expect, abs=1e-14)
        assert br_tail_marginal_cdf(1.0, 2.0) == pytest.approx(0.59533, abs=1e-4)

    def test_limits_and_degenerate_case(self):
        assert br_tail_marginal_cdf(2.0, 1e9) == pytest.approx(1.0, abs=1e-6)
        assert br_tail_marginal_cdf(2.0, 1e-9) == pytest.approx(0.0, abs=1e-9)
        assert br_tail_marginal_cdf(0.0, 2.0) == 0.5
        assert br_tail_marginal_cdf(0.0, 0.5) == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 4.0, 25.0])
    def test_valid_cdf_on_grid(self, gamma):
        ys = np.exp(np.linspace(-3, 6, 200))
        vals = [br_tail_marginal_cdf(gamma, y) for y in ys]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_mc_oracle_cross_check(self):
        # lognormal-representation quadrature of E[(1 - P e^{N - g/2} ... )]:
        # integrate the exact mixture density instead of trusting the formula
        g, y = 1.5, 1.3
        sg = math.sqrt(g)

        def integrand(w):
            v = math.exp(w - g / 2)
            pv = stats.norm.pdf(w, scale=sg)
            return pv * (max(0.0, 1.0 - v / y) )

        # P(Y <= y) = E[(1 - V/y)^+] with V lognormal(mean -g/2, var g)
        val, _ = quad(integrand, -12 * sg, 12 * sg, limit=200)
        assert br_tail_marginal_cdf(g, y) == pytest.approx(val, abs=1e-9)


class TestBrFddMc:
    def test_single_point_matches_closed_form(self):
        vg = AdditiveFBM((0.5, 0.5))
        for lag, y in [((2, 2), 1.0), ((1, 0), 2.0), ((2, 2), 0.7)]:
            res = br_tail_fdd_mc([lag], [y], vg, 200_000, RngStream(73))
            exact = br_tail_marginal_cdf(vg.gamma(lag), y)
            assert abs(res.value - exact) <= 3 * res.se

    def test_large_levels_tend_to_one(self):
        vg = AdditiveFBM((0.5,))
        res = br_tail_fdd_mc([(1,), (3,)], [1e8, 1e8], vg, 20_000, RngStream(74))
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_far_lag_large_gamma(self):
        # gamma = 100: P(Y <= 1) = 1 - 2 Phi(-5), essentially 1
        from scipy.special import ndtr

        vg = AdditiveFBM((0.5,))
        res = br_tail_fdd_mc([(100,)], [1.0], vg, 100_000, RngStream(75))
        assert res.value == pytest.approx(1 - 2 * ndtr(-5.0), abs=3 * res.se + 1e-6)

    def test_pathwise_nonnegative(self):
        res = br_tail_fdd_mc([(1, 1)], [0.05], AdditiveFBM((0.5, 0.5)), 50_000,
                             RngStream(76))
        assert res.value >= 0.0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            br_tail_fdd_mc([(1,)], [-1.0], AdditiveFBM((0.5,)), 100, RngStream(0))


class TestRsTransform:
    def test_single_atom_identity(self):
        vals = np.zeros((5, 5))
        vals[2, 2] = 1.0
        s = spectral_batch(vals)
        out = rs_transform(s, RngStream(77))
        assert np.array_equal(out.values, s.values)

    def test_two_lags_equal_weights(self):
        vals = np.zeros((5, 5))
        vals[2, 2] = 1.0
        vals[3, 4] = 1.0
        many = TailBatch(centered_box(2, 2), np.repeat(vals[None], 4000, axis=0), None, 1.0)
        out = rs_transform(many, RngStream(78))
        stay = (out.values == vals).all(axis=(1, 2))
        assert np.mean(stay) == pytest.approx(0.5, abs=0.025)
        # row i draws from substream i, as a one-row batch on that stream does
        i = int(np.argmin(stay))
        moved = rs_transform(spectral_batch(vals), RngStream(78).substream(i))
        assert np.array_equal(moved.values[0], out.values[i])
        # re-rooted at (1,2): origin lands at (-1,-2), lag-0 norm is 1
        assert moved.norms_at([(0, 0), (-1, -2)]).tolist() == [[1.0, 1.0]]

    def test_output_lag_zero_norm_one(self, mma_spectral):
        out = rs_transform(head(mma_spectral, 100), RngStream(79))
        assert np.all(out.norms_at([(0, 0)]) == 1.0)

    def test_all_zero_rejected(self):
        s = spectral_batch(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            rs_transform(s, RngStream(0))


class TestChangeOfTime:
    def test_mma_identity_paired(self, mma_spectral):
        # both sides estimated on the same draws must agree
        for s in [(1, 1), (2, 0)]:
            res = verify_change_of_time(mma_spectral, s, ConstantOne())
            assert abs(res.discrepancy) <= max(3 * res.se, 0.03)

    def test_mma_alpha_moment_exact_values(self):
        # g == 1: E|Theta(s)|^alpha = P(Theta(-s) != 0); at q=0.999 the noise
        # floor is small enough to compare with the cause-decomposition values
        from tailfields.models import MaxMovingAverage

        spec = MaxMovingAverage(a=MMA_A)
        spectral = spectral_from_tail(
            estimate_tail_field(spec, centered_box(3, 2), 1_000_000, RngStream(81), q=0.999)
        )
        for s in [(1, 1), (2, 0)]:
            res = verify_change_of_time(spectral, s, ConstantOne())
            exact = mma_nonzero_prob(MMA_A, s)
            assert abs(res.discrepancy) <= max(3 * res.se, 0.012)
            assert res.lhs == pytest.approx(exact, abs=0.06)
            assert res.rhs == pytest.approx(exact, abs=0.06)

    def test_alpha_moment_bounded_by_one(self, mma_spectral):
        for s in [(1, 1), (2, 0), (1, 0)]:
            res = verify_change_of_time(mma_spectral, s, ConstantOne())
            assert res.rhs <= 1.0 + 3 * res.se

    def test_iid_both_sides_vanish(self, iid_spectral):
        g = FieldRamp("ind", a=0.5, b=0.5, lags=((1, 1),))
        for s in [(1, 0), (1, 1)]:
            res = verify_change_of_time(iid_spectral, s, g, zero_tol=0.2)
            assert abs(res.lhs) <= 0.03
            assert abs(res.rhs) <= 0.03

    def test_matches_row_loop(self, mma_spectral):
        # reference: both sides draw by draw, the way the identity is written
        g = FieldRamp("ramp", a=0.2, b=1.0, lags=((1, 1), (0, 1)))
        s, alpha, tol = (1, 0), mma_spectral.alpha, 0.05
        lags = mma_spectral.lags
        lhs, rhs = [], []
        for row in np.abs(mma_spectral.values):
            at = lambda t: row[lags.index(t)]  # noqa: E731
            shifted = np.array([[at((l0 - s[0], l1 - s[1])) for l0, l1 in g.lags]])
            lhs.append(g(shifted)[0] if at((-s[0], -s[1])) > tol else 0.0)
            ns = at(s)
            here = np.array([[at(l) / ns for l in g.lags]])
            rhs.append(g(here)[0] * ns**alpha if ns > 0 else 0.0)
        res = verify_change_of_time(mma_spectral, s, g, zero_tol=tol)
        diffs = np.array(lhs) - np.array(rhs)
        assert res.lhs == np.mean(lhs) and res.rhs == np.mean(rhs)
        assert res.se == diffs.std(ddof=1) / math.sqrt(len(diffs))

    def test_window_too_small(self, mma_spectral):
        g = FieldRamp("ind", a=0.5, b=0.5, lags=((4, 4),))
        with pytest.raises(ValueError):
            verify_change_of_time(mma_spectral, (-2, -2), g)


class TestSamplesToRows:
    def test_round_trip_shape(self, mma_tails):
        header, rows = samples_to_rows(head(mma_tails, 5))
        assert header[0] == "root_norm"
        assert len(header) == 1 + mma_tails.lags.cardinality
        assert header[1] == "lag_-4_-4"
        assert len(rows) == 5
        assert rows[0][0] == mma_tails.root_norm[0]
        assert type(rows[0][0]) is float and type(rows[0][1]) is float

    def test_spectral_has_no_root_column(self, mma_spectral):
        header, rows = samples_to_rows(head(mma_spectral, 2))
        assert header[0] == "lag_-4_-4"


class TestTailBatch:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TailBatch(centered_box(1, 2), np.zeros((4, 3, 2)), None, 1.0)
        with pytest.raises(ValueError):
            TailBatch(centered_box(1, 2), np.ones((4, 3, 3)), np.ones(3), 1.0)

    def test_root_norm_below_one_rejected(self):
        with pytest.raises(ValueError, match="root norm below 1"):
            TailBatch(centered_box(1, 2), np.ones((2, 3, 3)), np.array([1.0, 0.5]), 1.0)

    def test_values_frozen(self, mma_tails):
        assert len(mma_tails) == len(mma_tails.root_norm) > 0
        with pytest.raises(ValueError):
            mma_tails.values[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            mma_tails.root_norm[0] = 2.0

    def test_spectral_divides_each_row_by_its_root(self, mma_tails, mma_spectral):
        t = head(mma_tails, 50)
        for k in range(len(t)):
            assert np.array_equal(mma_spectral.values[k], t.values[k] / t.root_norm[k])
