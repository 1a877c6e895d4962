import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from tailfields import cluster
from tailfields.cli import NAMED_MODELS
from tailfields.cluster import (
    check_anticluster,
    cluster_process_extract,
    empirical_cluster_laplace,
    limit_cluster_laplace_mc,
    nonempty_blocks,
)
from tailfields.extremal import level_u
from tailfields.lattice import InvariantOrder, centered_box, pos_block
from tailfields.models import (
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    CustomVariogram,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
    Model,
    model_from_config,
)
from tailfields.rng import RngStream
from tailfields.simulate import field_batch, field_clusters
from tailfields.tailfield import MCEstimate, TailBatch, estimate_tail_field, spectral_from_tail
from tailfields.testfuncs import POINT_CATALOG, ZERO, PointFunction

MMA = MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1))
LEX = InvariantOrder(dim=2)
CATALOG = {f.fid: f for f in POINT_CATALOG}
STEP1 = CATALOG["step-1"]


def one_field(spec, n, stream):
    """One field on [0:n-1], drawn from the stream's generator."""
    return field_batch(spec, pos_block(n), 1, stream.generator())[0]


@pytest.fixture(scope="module")
def iid_field():
    return one_field(IIDFrechet(1.0), (80, 80), RngStream(501))


class TestClusterExtract:
    def test_threshold_above_max_empty(self, iid_field):
        u = float(np.abs(iid_field).max()) + 1.0
        atoms = cluster_process_extract(iid_field, (8, 8), u)
        assert not (np.abs(atoms) > 1.0).any()

    def test_block_count(self, iid_field):
        atoms = cluster_process_extract(iid_field, (8, 10), 10.0)
        assert atoms.shape == ((80 // 8) * (80 // 10), 80)
        # block (0, 1) covers rows 0..7 and columns 10..19
        assert np.array_equal(atoms[1], iid_field[0:8, 10:20].ravel() / 10.0)

    def test_atom_counts_match_rescan(self, iid_field):
        u = 20.0
        atoms = cluster_process_extract(iid_field, (16, 16), u)
        assert (np.abs(atoms) > 1.0).sum() == (np.abs(iid_field) > u).sum()
        assert atoms.shape == (25, 256)

    def test_partial_blocks_rejected(self, iid_field):
        with pytest.raises(ValueError):
            cluster_process_extract(iid_field, (7, 8), 10.0)

    @pytest.mark.parametrize("u", [0.0, -1.0, math.nan, math.inf])
    def test_bad_level_rejected(self, iid_field, u):
        with pytest.raises(ValueError, match="must be positive and finite"):
            cluster_process_extract(iid_field, (8, 8), u)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def script_model(name):
    return model_from_config(json.loads((SCRIPTS / name).read_text()))


# max-linear models, each with a window and a block shape that tiles it
SCREENED = {
    "mma-default": (MMA, (200, 200), (20, 20)),
    "iid-0.5": (IIDFrechet(0.5), (60, 60), (10, 15)),
    "iid-2": (IIDFrechet(2.0), (60, 60), (20, 20)),
    "mma-alpha15": (script_model("mma-alpha15.json"), (60, 60), (20, 10)),
    "stencil-1d": (script_model("stencil-1d.json"), (400,), (20,)),
    "stencil-3d": (GeneralMaxMovingAverage({(1, 0, 0): 0.5, (0, -1, 1): 0.9, (0, 0, 2): 0.3},
                                           alpha=0.7), (10, 8, 20), (5, 4, 10)),
    "weights-1": (MaxMovingAverage(a=(1.0, 1.0, 1.0, 1.0)), (60, 60), (20, 20)),
    "alpha-8": (MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1), alpha=8.0), (60, 60), (20, 20)),
}


class TestFieldClusters:
    """The max-linear screen against the built field, ``Model.clusters``."""

    # tau 1 is the workload's level; at a tenth of the sites most blocks
    # pass the screen; no noise reaches 1e300
    @pytest.mark.parametrize("level", ["workload", "low", "unreached"])
    @pytest.mark.parametrize("name", SCREENED)
    def test_screen_keeps_every_byte_and_the_stream(self, name, level):
        spec, n, r = SCREENED[name]
        window = pos_block(n)
        tau = {"workload": 1.0, "low": window.cardinality / 10}.get(level)
        u = 1e300 if tau is None else level_u(spec, n, tau)
        kept = 0
        for i in range(40 if n == (200, 200) else 100):
            stream = RngStream(700).substream(i)
            gen_default, gen_screen = stream.generator(), stream.generator()
            default = Model.clusters(spec, window, r, u, gen_default)
            screened = spec.clusters(window, r, u, gen_screen)
            assert np.array_equal(screened, default), (name, level, i)
            assert np.array_equal(gen_screen.random(4), gen_default.random(4))
            kept += len(screened)
        assert (kept == 0) == (level == "unreached"), kept

    def test_entry_point_dispatches_to_the_model(self):
        n, r = (40, 40), (20, 20)
        for spec in (MMA, Mixture(((0.5, MMA), (0.5, IIDFrechet(1.0)))),
                     BrownResnick(AdditiveFBM(hurst=(0.5, 0.5)))):
            u = level_u(spec, n, 20.0)
            built = cluster_process_extract(one_field(spec, n, RngStream(701)), r, u)
            got = field_clusters(spec, pos_block(n), r, u, RngStream(701).generator())
            assert np.array_equal(got, nonempty_blocks(built)) and len(got)

    @pytest.mark.parametrize(
        "spec", [MMA, BrownResnick(AdditiveFBM(hurst=(0.5, 0.5)))], ids=["mma", "br"])
    @pytest.mark.parametrize(
        "n, r, u, message",
        [((400,), (20,), 10.0, "model needs dimension 2, window has 1"),
         ((40, 40), (15, 20), 10.0, r"is not a multiple of r=\(15, 20\)"),
         ((40, 40), (20,), 10.0, "block size dimension mismatch"),
         ((40, 40), (80, 80), 10.0, r"is not a multiple of r=\(80, 80\)"),
         *(((40, 40), (20, 20), u, "must be positive and finite")
           for u in (0.0, -1.0, math.nan, math.inf))],
    )
    def test_rejected_before_any_draw(self, spec, n, r, u, message):
        gen = RngStream(702).generator()
        with pytest.raises(ValueError, match=message):
            field_clusters(spec, pos_block(n), r, u, gen)
        assert np.array_equal(gen.random(4), RngStream(702).generator().random(4))


class TestEmpiricalLaplace:
    def test_zero_function_exactly_one(self, iid_field):
        atoms = cluster_process_extract(iid_field, (8, 8), 15.0)
        assert empirical_cluster_laplace(nonempty_blocks(atoms), ZERO).value == 1.0

    def test_iid_binomial_oracle(self):
        # blocks of independent noise: E[e^{-K} | K >= 1] with K binomial
        u, r, n = 25.0, (10, 10), (100, 100)
        atoms = np.concatenate([
            cluster_process_extract(
                one_field(IIDFrechet(1.0), n, RngStream(502).substream(i)), r, u
            )
            for i in range(80)
        ])
        est = empirical_cluster_laplace(nonempty_blocks(atoms), STEP1)
        p = 1 - math.exp(-1 / u)
        npts = 100
        oracle = (((1 - p) + p * math.e**-1) ** npts - (1 - p) ** npts) / (
            1 - (1 - p) ** npts
        )
        assert abs(est.value - oracle) <= 3 * est.se

    def test_hard_core_limit_counts_single_exceedances(self):
        # exp(c) E[e^{-c K} | K>=1] -> P(K = 1 | K >= 1) for a steep step
        u, r = 25.0, (10, 10)
        atoms = np.concatenate([
            cluster_process_extract(
                one_field(IIDFrechet(1.0), (100, 100), RngStream(503).substream(i)), r, u
            )
            for i in range(80)
        ])
        steep = PointFunction("steep", a=1.0, b=1.0, height=40.0)
        est = empirical_cluster_laplace(nonempty_blocks(atoms), steep)
        counts = (np.abs(atoms) > 1.0).sum(axis=1)
        frac_single = (counts == 1).sum() / (counts >= 1).sum()
        assert est.value * math.exp(40.0) == pytest.approx(frac_single, rel=1e-9)

    def test_matches_block_loop(self, iid_field):
        # reference: one block at a time over the nonempty blocks
        atoms = cluster_process_extract(iid_field, (8, 8), 15.0)
        f = CATALOG["ramp-1-2"]
        vals = [
            math.exp(-float(f(np.abs(block)).sum()))
            for block in atoms
            if np.abs(block).max() > 1.0
        ]
        est = empirical_cluster_laplace(nonempty_blocks(atoms), f)
        assert est.n == len(vals) and est.value == np.mean(vals)

    def test_monotone_in_function(self, iid_field):
        atoms = cluster_process_extract(iid_field, (8, 8), 15.0)
        bigger = PointFunction("double", a=1.0, b=1.0, height=2.0)
        assert (
            empirical_cluster_laplace(nonempty_blocks(atoms), bigger).value
            <= empirical_cluster_laplace(nonempty_blocks(atoms), STEP1).value
            <= 1.0
        )

    def test_no_nonempty_clusters(self, iid_field):
        u = float(np.abs(iid_field).max()) + 1.0
        atoms = cluster_process_extract(iid_field, (8, 8), u)
        with pytest.raises(ValueError):
            empirical_cluster_laplace(nonempty_blocks(atoms), STEP1)


def single_atom_samples(n=64):
    vals = np.zeros((n, 5, 5))
    vals[:, 2, 2] = 1.0
    return TailBatch(centered_box(2, 2), vals, None, 1.0)


def reference_limit(spectral, f, order, quad_points=256):
    """The cluster limit one draw at a time: f at every node and nonzero lag."""
    n, alpha = len(spectral), spectral.alpha
    pts = spectral.lags.point_array()
    before = order.before_origin_mask(pts)
    succ = ~before & ~np.all(pts == 0, axis=1)
    succeq = ~before
    y_scale = ((np.arange(quad_points) + 0.5) / quad_points) ** (-1.0 / alpha)
    norms = np.abs(spectral.values.reshape(n, -1))
    m1s = norms[:, succeq].max(axis=1).tolist()
    m2s = norms[:, succ].max(axis=1).tolist() if succ.any() else [0.0] * n

    def piece(row, mask, m):
        if m <= 0.0:
            return 0.0
        sub = row[mask]
        sub = sub[sub > 0]
        y = y_scale / m
        s_of_y = f(y[:, None] * sub[None, :]).sum(axis=1)
        return (m**alpha) * float(np.exp(-s_of_y).mean())

    theta_half = float(np.mean([m1**alpha - m2**alpha for m1, m2 in zip(m1s, m2s)]))
    vals = [piece(row, succeq, m1) - piece(row, succ, m2)
            for row, m1, m2 in zip(norms, m1s, m2s)]
    est = MCEstimate.sample_mean(np.array(vals))
    return MCEstimate(est.value / theta_half, est.se / theta_half, n)


def head(batch, k):
    return TailBatch(batch.lags, batch.values[:k], None, batch.alpha)


@pytest.fixture(scope="module")
def spectral_batches(mma_spectral):
    """Spectral batches of four models, and four edge batches."""
    def spectral_of(spec, radius, seed):
        return spectral_from_tail(estimate_tail_field(
            spec, centered_box(radius, 2), 20_000, RngStream(seed), q=0.99))

    # draws whose lags past the origin sit within a few ulp of a step level
    # at some node of the piece over those lags, whose largest norm is m
    lags = centered_box(5, 2)
    pts = lags.point_array()
    after = np.flatnonzero(~LEX.before_origin_mask(pts) & np.any(pts != 0, axis=1))
    gen = np.random.default_rng(513)
    w_nodes = (np.arange(256) + 0.5) / 256  # alpha = 1: node i at y = 1 / (w_i m)
    m = 0.3 + 0.6 * gen.random(60)
    near = np.where(np.arange(len(after) - 1) % 2, 1.0, 2.0) * m[:, None]
    near *= w_nodes[gen.integers(0, 256, near.shape)]
    near *= 1 + 2.2e-16 * gen.integers(-2, 3, near.shape)
    ties = np.zeros((60, len(pts)))
    ties[:, len(pts) // 2] = 1.0
    ties[:, after] = np.column_stack([m, np.minimum(near, m[:, None])])
    ties = ties.reshape(60, *lags.shape)

    lone_row = mma_spectral.values[:20].copy()
    lone_row[0] = 0.0
    lone_row[0, 4, 4] = 1.0  # m2 = 0 in the first draw only
    return {
        "mma-default": head(mma_spectral, 200),
        "iid-alpha-2": spectral_of(IIDFrechet(2.0), 3, 509),
        "br-fbm": spectral_of(NAMED_MODELS["br-fbm"](), 2, 510),
        "mixture": spectral_of(NAMED_MODELS["mixture"](), 3, 511),
        "single-atom": single_atom_samples(),
        "lag-radius-0": TailBatch(centered_box(0, 2), mma_spectral.values[:50, 4:5, 4:5],
                                  None, 1.0),
        "m2-zero": TailBatch(mma_spectral.lags, lone_row, None, 1.0),
        "near-ties": TailBatch(lags, ties, None, 1.0),
    }


class TestLimitLaplace:
    @pytest.mark.parametrize("quad_points", [256, 4096])
    @pytest.mark.parametrize("name", ["mma-default", "iid-alpha-2", "br-fbm", "mixture",
                                      "single-atom", "lag-radius-0", "m2-zero", "near-ties"])
    def test_matches_per_draw_reference(self, spectral_batches, name, quad_points):
        # steps sum h a whole number of times either way: equal bits; a ramp's
        # sum is reassociated, so its last bits may move
        spectral = spectral_batches[name]
        if quad_points > 256:
            spectral = head(spectral, 40)  # the reference is slow at 4096 nodes
        for f in (ZERO,) + POINT_CATALOG:
            got = limit_cluster_laplace_mc(spectral, f, LEX, quad_points)
            ref = reference_limit(spectral, f, LEX, quad_points)
            if f.a == f.b:
                assert (got.value, got.se, got.n) == (ref.value, ref.se, ref.n), f.fid
            else:
                assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0), f.fid
                assert got.se == pytest.approx(ref.se, rel=1e-12, abs=0.0), f.fid

    @pytest.mark.parametrize("block", [1, 7, 10_000])
    def test_block_size_does_not_change_the_result(self, spectral_batches, block,
                                                   monkeypatch):
        spectral = spectral_batches["mma-default"]
        expect = [limit_cluster_laplace_mc(spectral, f, LEX) for f in POINT_CATALOG]
        monkeypatch.setattr(cluster, "DRAW_BLOCK", block)
        assert [limit_cluster_laplace_mc(spectral, f, LEX) for f in POINT_CATALOG] == expect

    def test_memory_stays_flat_in_the_draws(self):
        # 4,000 draws on 121 lags; the values themselves take 3.9 MB
        gen = np.random.default_rng(512)
        vals = gen.random((4000, 11, 11)) * (gen.random((4000, 11, 11)) < 0.3)
        vals[:, 5, 5] = 1.0
        spectral = TailBatch(centered_box(5, 2), vals, None, 1.0)
        tracemalloc.start()
        try:
            limit_cluster_laplace_mc(spectral, CATALOG["ramp-1-2"], LEX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_zero_function_exactly_one(self, mma_spectral):
        res = limit_cluster_laplace_mc(mma_spectral, ZERO, LEX)
        assert res.value == 1.0

    def test_single_atom_closed_form(self):
        # one spectral atom at the origin: the functional is exp(-f(y)) with
        # y Pareto(alpha) above 1, here constant beyond the step level 1
        res = limit_cluster_laplace_mc(single_atom_samples(), STEP1, LEX)
        assert res.value == pytest.approx(math.exp(-1.0), abs=1e-12)
        half = CATALOG["step-2"]  # height 0.5 above level 2
        res2 = limit_cluster_laplace_mc(single_atom_samples(), half, LEX)
        # integral: y in (1,2] -> f=0; y > 2 -> f=0.5; d(-y^-1) masses 1/2 each
        assert res2.value == pytest.approx(0.5 + 0.5 * math.exp(-0.5), abs=1e-3)

    def test_monotone_in_function(self, mma_spectral):
        v1 = limit_cluster_laplace_mc(mma_spectral, STEP1, LEX)
        bigger = PointFunction("double", a=1.0, b=1.0, height=2.0)
        v2 = limit_cluster_laplace_mc(mma_spectral, bigger, LEX)
        assert 0.0 < v2.value <= v1.value <= 1.0

    def test_ramp_below_step(self, mma_spectral):
        ramp = CATALOG["ramp-1-2"]  # pointwise <= step-1
        a = limit_cluster_laplace_mc(mma_spectral, ramp, LEX)
        b = limit_cluster_laplace_mc(mma_spectral, STEP1, LEX)
        assert a.value >= b.value

    def test_quadrature_resolution(self, mma_spectral):
        first = TailBatch(mma_spectral.lags, mma_spectral.values[:400], None, 1.0)
        a = limit_cluster_laplace_mc(first, STEP1, LEX, quad_points=256)
        b = limit_cluster_laplace_mc(first, STEP1, LEX, quad_points=4096)
        assert abs(a.value - b.value) <= 2e-4

    def test_order_of_another_dimension_rejected(self):
        vals = np.zeros((4, 3, 3, 3))
        vals[:, 1, 1, 1] = 1.0
        spectral = TailBatch(centered_box(1, 3), vals, None, 1.0)
        with pytest.raises(ValueError, match="dimension mismatch with order"):
            limit_cluster_laplace_mc(spectral, STEP1, LEX)


class TestCrossMethod:
    def test_mma_empirical_vs_limit(self, mma_spectral):
        # moderate-size version of the cross-method comparison
        n, r, tau = (120, 120), (24, 24), 1.0
        u = level_u(MMA, n, tau)
        atoms = np.concatenate([
            cluster_process_extract(one_field(MMA, n, RngStream(504).substream(i)), r, u)
            for i in range(400)
        ])
        for fid in ("step-1", "step-2"):
            f = CATALOG[fid]
            emp = empirical_cluster_laplace(nonempty_blocks(atoms), f)
            lim = limit_cluster_laplace_mc(mma_spectral, f, LEX)
            z = abs(emp.value - lim.value) / math.hypot(emp.se, lim.se)
            assert z <= 3.5, (fid, emp.value, lim.value)


class TestAnticluster:
    def test_iid_matches_independence_oracle(self):
        u = level_u(IIDFrechet(1.0), (36, 36), 1.0)
        rows = check_anticluster(IIDFrechet(1.0), (6, 6), u, [1, 2, 3, 4],
                                 60_000, RngStream(505))
        p = 1 - math.exp(-1 / u)
        for m, row in rows.items():
            region = 121 - (2 * m + 1) ** 2
            oracle = 1 - (1 - p) ** region
            assert abs(row.value - oracle) <= max(4 * row.se, 1e-4)

    def test_mma_dies_at_radius_two(self):
        # the stencil reaches at most two steps from the origin; with a high
        # level the profile at M=2 is pure background
        rows = check_anticluster(MMA, (6, 6), level_u(MMA, (300, 300), 1.0), [1, 2],
                                 60_000, RngStream(506))
        assert rows[1].value > 0.3  # genuine cluster mass at M=1
        assert rows[2].value <= 0.005

    def test_br_stationary_profile_floored(self):
        s2 = 1.0
        vg = CustomVariogram(
            dim=2,
            gamma=lambda t: 2 * s2 * (1 - math.exp(-(t[0] ** 2 + t[1] ** 2) / 8.0)),
            sigma2=lambda t: s2,
        )
        spec = BrownResnick(variogram=vg)
        rows = check_anticluster(spec, (6, 6), level_u(spec, (36, 36), 1.0),
                                 [1, 2, 3, 4], 20_000, RngStream(507))
        floor = 2 * ndtr(-math.sqrt(s2))
        assert list(rows) == [1, 2, 3, 4]
        for row in rows.values():
            assert row.value >= floor * (1 - 0.05)

    def test_br_fbm_profile_decays(self):
        spec = BrownResnick(variogram=AdditiveFBM((0.7, 0.7)))
        rows = check_anticluster(spec, (6, 6), level_u(spec, (36, 36), 1.0),
                                 [1, 2, 3, 4], 20_000, RngStream(508))
        assert rows[1].value > rows[4].value

    def test_unsupported_model(self):
        with pytest.raises(TypeError):
            spec = CounterexampleField(1.0)
            check_anticluster(spec, (4, 4), level_u(spec, (16, 16), 1.0), [1], 100,
                              RngStream(0))

    @pytest.mark.parametrize("u", [math.nan, 0.0, -1.0, math.inf])
    def test_level_validation(self, u):
        with pytest.raises(ValueError, match="must be positive and finite"):
            check_anticluster(MMA, (4, 4), u, [1], 100, RngStream(0))

    def test_m_list_validation(self):
        with pytest.raises(ValueError):
            check_anticluster(MMA, (4, 4), level_u(MMA, (16, 16), 1.0), [1, 4], 100,
                              RngStream(0))
