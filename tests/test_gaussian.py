import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from tailfields.gaussian import (
    MAX_WALK_SITES,
    GaussianFieldSampler,
    br_tail_field_batch,
    brown_resnick_batch,
    fbm_grid_batch,
    fgn_cholesky,
)
from tailfields.lattice import Window, centered_box, pos_block
from tailfields.models import AdditiveFBM, CustomVariogram
from tailfields.rng import RngStream
from tailfields.tailfield import br_tail_marginal_cdf


def additive_fields(hurst, window, count, gen):
    """Additive-fBm fields on a window, as arrays of the window's shape."""
    x = GaussianFieldSampler(AdditiveFBM(hurst), window.point_array()).draw(count, gen)
    return x.reshape(count, *window.shape)


def fbm_cov(s, t, h):
    return 0.5 * (abs(s) ** (2 * h) + abs(t) ** (2 * h) - abs(s - t) ** (2 * h))


class TestFbm:
    def test_hurst_validation(self):
        with pytest.raises(ValueError):
            fbm_grid_batch(1.0, 0, 4, 1, RngStream(0).generator())

    def test_determinism(self):
        a = fbm_grid_batch(0.7, 0, 16, 1, RngStream(5, 1).generator())[0]
        b = fbm_grid_batch(0.7, 0, 16, 1, RngStream(5, 1).generator())[0]
        assert np.array_equal(a, b)
        assert a[0] == 0.0

    def test_brownian_case_increments_iid(self):
        paths = fbm_grid_batch(0.5, 0, 64, 20_000, RngStream(6).generator())
        inc = np.diff(paths, axis=1)
        assert inc.mean() == pytest.approx(0.0, abs=3e-3)
        assert inc.var() == pytest.approx(1.0, abs=5e-3)
        lag1 = np.mean(inc[:, :-1] * inc[:, 1:])
        assert abs(lag1) <= 3e-3  # ~ 3 sigma at >1e6 increment pairs

    def test_variance_growth(self):
        paths = fbm_grid_batch(0.75, 0, 16, 60_000, RngStream(7).generator())
        assert paths[:, 16].var() == pytest.approx(16**1.5, rel=0.01)

    def test_variogram_between_times(self):
        # E(fBm(9) - fBm(5))^2 = 4^(2*0.3) evaluated analytically
        paths = fbm_grid_batch(0.3, 0, 9, 60_000, RngStream(8).generator())
        d = paths[:, 9] - paths[:, 5]
        assert d.var() == pytest.approx(4**0.6, rel=0.02)

    def test_exact_covariance_matrix(self):
        # sample covariance on {0..8} within 5 MC standard errors entrywise
        h, n, reps = 0.7, 8, 120_000
        paths = fbm_grid_batch(h, 0, n, reps, RngStream(9).generator())
        emp = np.cov(paths[:, 1:], rowvar=False)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                c = fbm_cov(i, j, h)
                # se of a covariance entry ~ sqrt((c_ii c_jj + c_ij^2)/reps)
                se = math.sqrt(
                    (fbm_cov(i, i, h) * fbm_cov(j, j, h) + c * c) / reps
                )
                assert abs(emp[i - 1, j - 1] - c) <= 5 * se

    def test_grid_anchoring(self):
        g = fbm_grid_batch(0.6, -5, 3, 4096, RngStream(10).generator())
        assert g.shape == (4096, 9)
        assert np.array_equal(g[:, 5], np.zeros(4096))  # position 0
        assert g[:, 0].var() == pytest.approx(5**1.2, rel=0.05)


class TestAdditiveFbm:
    def test_one_axis_reduces_to_path(self):
        w = Window((0,), (12,))
        a = additive_fields((0.7,), w, 3, RngStream(11).generator())
        b = fbm_grid_batch(0.7, 0, 12, 3, RngStream(11).generator())
        assert np.array_equal(a, b)

    def test_variance_sum(self):
        w = pos_block((5, 6))
        x = additive_fields((0.5, 0.5), w, 80_000, RngStream(12).generator())
        assert x[:, 3, 4].var() == pytest.approx(7.0, rel=0.02)

    def test_stationary_increment_identity(self):
        # Cov(W(s), W(t)) = (sigma2(s) + sigma2(t) - gamma(t-s)) / 2
        hurst = (0.3, 0.8)
        vg = AdditiveFBM(hurst=hurst)
        w = centered_box(3, 2)
        x = additive_fields(hurst, w, 150_000, RngStream(13).generator())
        s, t = (-2, 1), (3, 2)
        emp = np.mean(x[:, 1, 4] * x[:, 6, 5])
        diff = tuple(b - a for a, b in zip(s, t))
        expect = 0.5 * (vg.sigma2(s) + vg.sigma2(t) - vg.gamma(diff))
        assert emp == pytest.approx(expect, abs=0.06)

    def test_field_sample_api(self):
        x = additive_fields((0.5, 0.5), pos_block((4, 4)), 3, RngStream(14).generator())
        assert x.shape == (3, 4, 4)
        assert np.all(x[:, 0, 0] == 0.0)


class TestGaussianFieldSampler:
    def test_custom_matches_additive(self):
        hurst = (0.4, 0.6)
        add = AdditiveFBM(hurst=hurst)
        custom = CustomVariogram(dim=2, gamma=add.gamma, sigma2=add.sigma2)
        pts = [(0, 0), (1, 2), (-2, 1), (3, -3)]
        a = GaussianFieldSampler(add, pts).draw(200_000, RngStream(15).generator())
        b = GaussianFieldSampler(custom, pts).draw(200_000, RngStream(16).generator())
        assert np.allclose(np.cov(a, rowvar=False), np.cov(b, rowvar=False), atol=0.1)

    @pytest.mark.parametrize("pts", [[(2,)], [(0, 0, 1)]])
    def test_points_of_another_dimension_rejected(self, pts):
        for vg in (AdditiveFBM(hurst=(0.5, 0.5)),
                   CustomVariogram(dim=2, gamma=lambda t: 1.0, sigma2=lambda t: 1.0)):
            with pytest.raises(ValueError, match="dimension"):
                GaussianFieldSampler(vg, pts)

    def test_additive_draw_equals_path_sum(self):
        # more points than one gathered block: the sum of the axis paths at
        # each point's coordinates, bit for bit
        hurst = (0.3, 0.8)
        pts = Window((-30, -12), (4, 20)).point_array()
        got = GaussianFieldSampler(AdditiveFBM(hurst), pts).draw(7, RngStream(18).generator())
        gen = RngStream(18).generator()
        want = np.zeros((7, len(pts)))
        for axis, h in enumerate(hurst):
            lo, hi = min(pts[:, axis].min(), 0), max(pts[:, axis].max(), 0)
            want += fbm_grid_batch(h, lo, hi, 7, gen)[:, pts[:, axis] - lo]
        assert len(pts) > 512
        assert np.array_equal(got, want)

    def test_concurrent_draws_miss_each_factor_once(self):
        # map_chunks workers that need a new factor at the same moment must
        # not each compute it: the miss count is what the run reports
        fgn_cholesky.cache_clear()
        sampler = GaussianFieldSampler(AdditiveFBM((0.3, 0.7)), [(0, 0), (400, -300)])
        start = threading.Barrier(8)

        def work(i):
            start.wait(timeout=10)
            return sampler.draw(2, RngStream(17, i).generator())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                draws = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(draws) == 8
        assert fgn_cholesky.cache_info().misses == 2  # one per axis


class TestBrownResnick:
    def test_single_point_margin_exact_frechet(self):
        x = brown_resnick_batch(
            AdditiveFBM((0.5,)), pos_block((1,)), 100_000, RngStream(17).generator()
        ).ravel()
        ks = stats.kstest(x, lambda v: np.exp(-1.0 / np.maximum(v, 1e-300)))
        assert ks.statistic < 0.006

    def test_margins_on_window(self):
        x = brown_resnick_batch(
            AdditiveFBM((0.5, 0.5)), centered_box(1, 2), 100_000, RngStream(18).generator()
        )
        ks = stats.kstest(
            x[:, 1, 1], lambda v: np.exp(-1.0 / np.maximum(v, 1e-300))
        )
        assert ks.statistic <= 0.01
        ks_corner = stats.kstest(
            x[:, 0, 0], lambda v: np.exp(-1.0 / np.maximum(v, 1e-300))
        )
        assert ks_corner.statistic <= 0.01

    def test_degenerate_variogram_fully_dependent(self):
        vg = CustomVariogram(dim=2, gamma=lambda t: 0.0, sigma2=lambda t: 0.0)
        x = brown_resnick_batch(vg, centered_box(1, 2), 500, RngStream(19).generator())
        flat = x.reshape(500, -1)
        assert np.allclose(flat, flat[:, [0]])

    def test_bivariate_cdf_two_routes(self):
        # direct simulation vs the max-stable exponent expectation by its own MC
        vg = AdditiveFBM((0.5, 0.5))
        t, level = (2, 1), 2.0
        fields = brown_resnick_batch(vg, pos_block((3, 2)), 120_000, RngStream(20).generator())
        direct = ((fields[:, 0, 0] <= level) & (fields[:, 2, 1] <= level)).mean()
        se_d = math.sqrt(direct * (1 - direct) / len(fields))
        sampler = GaussianFieldSampler(vg, [(0, 0), t])
        w = sampler.draw(300_000, RngStream(21).generator())
        m = np.exp(w - 0.5 * sampler.sigma2).max(axis=1)
        expo = math.exp(-m.mean() / level)
        se_e = expo * m.std() / math.sqrt(len(m)) / level
        assert abs(direct - expo) <= 3 * math.hypot(se_d, se_e)

    @pytest.mark.parametrize("lag", [(1, 0), (2, 1)])
    @pytest.mark.parametrize("y1,y2", [(1.0, 1.0), (0.5, 2.0)])
    def test_bivariate_closed_form(self, lag, y1, y2):
        # P(Z(0) <= y1, Z(t) <= y2) = exp(-V) with a = sqrt(gamma(t)) and
        # V = Phi(a/2 + log(y2/y1)/a)/y1 + Phi(a/2 + log(y1/y2)/a)/y2
        vg = AdditiveFBM((0.5, 0.5))
        fields = brown_resnick_batch(vg, pos_block((3, 2)), 60_000, RngStream(27).generator())
        hit = (fields[:, 0, 0] <= y1) & (fields[:, lag[0], lag[1]] <= y2)
        p = hit.mean()
        a = math.sqrt(vg.gamma(lag))
        v = ndtr(a / 2 + math.log(y2 / y1) / a) / y1 + ndtr(a / 2 + math.log(y1 / y2) / a) / y2
        se = math.sqrt(p * (1 - p) / len(hit))
        assert abs(p - math.exp(-v)) <= 4 * se

    def test_large_window_finishes(self):
        # the truncated Poisson series used to give up on this window
        x = brown_resnick_batch(
            AdditiveFBM((0.5, 0.5)), pos_block((20, 20)), 64, RngStream(3).generator()
        )
        assert x.shape == (64, 20, 20)
        assert np.all(np.isfinite(x)) and np.all(x > 0)

    def test_memory_is_linear_in_the_sites(self):
        # O(sites) memory: a 1600 x 1600 variogram matrix alone would be 20 MB
        vg, window, gen = AdditiveFBM((0.5, 0.5)), pos_block((40, 40)), RngStream(4).generator()
        fgn_cholesky(0.5, 40)  # cached factors are not the walk's memory
        tracemalloc.start()
        try:
            x = brown_resnick_batch(vg, window, 2, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (2, 40, 40) and np.all(x > 0)
        assert peak < 2_000_000

    def test_window_above_the_site_limit_raises(self):
        assert MAX_WALK_SITES >= 121  # the 11 x 11 windows that tests walk
        side = math.isqrt(MAX_WALK_SITES) + 1
        with pytest.raises(ValueError, match=f"{side * side} sites"):
            brown_resnick_batch(
                AdditiveFBM((0.5, 0.5)), pos_block((side, side)), 1, RngStream(5).generator()
            )

    def test_sampler_api_deterministic(self):
        a, b = (
            brown_resnick_batch(
                AdditiveFBM((0.6, 0.6)), pos_block((3, 3)), 2, RngStream(23, 7).generator()
            )
            for _ in range(2)
        )
        assert np.array_equal(a, b)


class TestBrTailFieldSampler:
    @pytest.mark.parametrize("gamma,y", [(1.0, 2.0), (2.0, 1.0), (4.0, 1.0)])
    def test_matches_marginal_closed_form(self, gamma, y):
        # anchored field: sigma2 = variogram, one-dimensional axis grid
        vg = AdditiveFBM((0.5,))
        lag = (int(gamma),)  # gamma(t) = |t| at H = 0.5
        draws = br_tail_field_batch(vg, [(0,), lag], 400_000, RngStream(24).generator())
        emp = (draws[:, 1] <= y).mean()
        assert emp == pytest.approx(br_tail_marginal_cdf(vg.gamma(lag), y), abs=4e-3)

    def test_stationary_tilted_case(self):
        s2 = 1.0
        vg = CustomVariogram(
            dim=1,
            gamma=lambda t: 2 * s2 * (1 - math.exp(-abs(t[0]) / 2.0)),
            sigma2=lambda t: s2,
        )
        draws = br_tail_field_batch(vg, [(0,), (3,)], 400_000, RngStream(25).generator())
        g = vg.gamma((3,))
        emp = (draws[:, 1] > 1.0).mean()
        assert emp == pytest.approx(2 * ndtr(-0.5 * math.sqrt(g)), abs=4e-3)

    def test_root_is_pareto(self):
        draws = br_tail_field_batch(
            AdditiveFBM((0.5, 0.5)), [(0, 0), (1, 1)], 200_000, RngStream(26).generator()
        )
        ks = stats.kstest(draws[:, 0], lambda v: 1 - np.maximum(v, 1.0) ** -1.0)
        assert ks.statistic < 0.005

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            br_tail_field_batch(AdditiveFBM((0.5,)), [(1,)], 10, RngStream(0).generator())
