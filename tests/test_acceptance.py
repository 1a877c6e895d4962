"""Acceptance suite: every release criterion as one test with a printed
pass/fail line.  Tolerances are fixed here, not tuned at runtime; all
randomness is pinned to explicit seeds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from tailfields.cli import main as cli_main
from tailfields.cluster import (
    check_anticluster,
    cluster_process_extract,
    empirical_cluster_laplace,
    limit_cluster_laplace_mc,
    nonempty_blocks,
)
from tailfields.extremal import (
    br_theta_block_profile,
    level_u,
    theta_classical_empirical,
    theta_run_empirical,
)
from tailfields.lattice import InvariantOrder, centered_box, pos_block
from tailfields.models import (
    ALL_CORNERS,
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    CustomVariogram,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
)
from tailfields.rng import RngStream
from tailfields.simulate import field_batch
from tailfields.tailfield import (
    br_tail_fdd_mc,
    br_tail_marginal_cdf,
    estimate_tail_field,
    spectral_from_tail,
)
from tailfields.testfuncs import ZERO, POINT_CATALOG
from tailfields.verify import (
    run_change_of_time_check,
    run_counterexample_check,
    run_pareto_root_check,
    run_rs_invariance_check,
)

MMA_A = (0.1, 0.7, 0.6, 0.1)
MMA_A2 = (0.6, 0.2, 0.6, 0.1)
MMA = MaxMovingAverage(a=MMA_A)
LEX = InvariantOrder(dim=2)


def record(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class TestCriterion01ExactTable:
    def test_exact_example_table(self):
        table = MMA.exact_indices()
        expect = {
            "classical": Fraction(2, 5),
            (0, 0): Fraction(16, 25),
            (1, 1): Fraction(11, 25),
            (0, 1): Fraction(2, 5),
            (1, 0): Fraction(3, 5),
        }
        record(
            "criterion-1 exact index table",
            table == expect,
            f"closed forms {[str(table[k]) for k in expect]} == (.4,.64,.44,.40,.60) exactly",
        )


class TestCriterion02ExactMixture:
    def test_exact_mixture_table(self):
        m = Mixture(
            components=((0.5, MMA), (0.5, MaxMovingAverage(a=MMA_A2)))
        ).exact_indices()
        expect = {
            "classical": Fraction(2, 5),
            (0, 0): Fraction(13, 25),
            (1, 1): Fraction(21, 50),
            (0, 1): Fraction(14, 25),
            (1, 0): Fraction(7, 10),
        }
        record(
            "criterion-2 exact mixture table",
            m == expect,
            f"mixture {[str(m[k]) for k in expect]} == (.40,.52,.42,.56,.70) exactly",
        )


class TestCriterion03RunEmpirical:
    def test_run_estimator_reproduces_corners(self):
        rng = RngStream(9301)
        worst = 0.0
        u = level_u(MMA, (400, 400), 1.0)
        for i, corner in enumerate(ALL_CORNERS):
            est = theta_run_empirical(MMA, corner, (20, 20), u, 2500, rng.lane(i))
            exact = float(MMA.exact_indices()[corner])
            worst = max(worst, abs(est.value - exact))
        record(
            "criterion-3 empirical run indices",
            worst <= 0.03,
            f"max |empirical - exact| over 4 corners = {worst:.4f} <= 0.03 "
            "(n=400x400, r=20x20, tau=1, 2500 conditional replicates)",
        )


class TestCriterion04Classical:
    def test_classical_mma(self):
        est = theta_classical_empirical(MMA, (200, 200), 1.0, 16_000,
                                        RngStream(9401), chunk=64)
        record(
            "criterion-4a classical index (local-interaction model)",
            abs(est.value - 0.40) <= 0.03,
            f"theta_cl = {est.value:.4f} +- {est.se:.4f}, target 0.40 +- 0.03",
        )
        # finite-n oracle: P(M <= u) = exp(-E/u) exactly, E the sum over noise
        # sites of the largest weight through which the site reaches the block
        from tests.test_simulate import brute_stencil_exponent

        e = brute_stencil_exponent((200, 200), MMA.weights)
        theta_n = e / level_u(MMA, (200, 200), 1.0)
        record(
            "criterion-4a classical index, finite-n oracle",
            abs(est.value - theta_n) <= 4 * est.se,
            f"theta_cl = {est.value:.4f} +- {est.se:.4f}, exact {theta_n:.5f} +- 4 se",
        )

    def test_classical_iid(self):
        est = theta_classical_empirical(IIDFrechet(1.0), (50, 50), 1.0, 20_000,
                                        RngStream(9402), chunk=2048)
        record(
            "criterion-4b classical index (independent noise)",
            abs(est.value - 1.0) <= 0.03,
            f"theta_cl = {est.value:.4f} +- {est.se:.4f}, target 1.00 +- 0.03",
        )


class TestCriterion05ParetoRoot:
    @pytest.mark.parametrize(
        "name,spec,n_rep,q",
        [
            ("iid", IIDFrechet(1.0), 2_000_000, 0.99),
            ("mma", MMA, 2_000_000, 0.99),
            ("br", BrownResnick(variogram=AdditiveFBM((0.5, 0.5))), 500_000, 0.98),
        ],
    )
    def test_root_norm_pareto(self, name, spec, n_rep, q):
        run = run_pareto_root_check(
            spec, RngStream(9500 + len(name)), q=q, n_replicates=n_rep,
            min_retained=5000,
        )
        retained = next(c for c in run.checks if c.check_id == "retained")
        ks = next(c for c in run.checks if c.check_id == "root-ks")
        record(
            f"criterion-5 Pareto root ({name})",
            run.passed and ks.threshold == 0.02,
            f"KS = {ks.statistic:.4f} <= {ks.threshold} at {int(retained.statistic)} retained exceedances",
        )


class TestCriterion06BrMarginalOracle:
    def test_mc_matches_closed_form(self):
        vg = AdditiveFBM((0.5, 0.5))
        cases = [((2, 2), 1.0), ((1, 0), 2.0), ((0, 2), 0.7)]
        rng = RngStream(9601)
        zs = []
        for i, (lag, y) in enumerate(cases):
            res = br_tail_fdd_mc([lag], [y], vg, 200_000, rng.lane(i))
            exact = br_tail_marginal_cdf(vg.gamma(lag), y)
            zs.append(abs(res.value - exact) / res.se)
        target = 2 * stats.norm.cdf(-1.0)
        gamma4 = br_tail_marginal_cdf(4.0, 1.0)
        record(
            "criterion-6 max-stable marginal oracle",
            max(zs) <= 3.0 and abs((1 - gamma4) - target) < 1e-9,
            f"|mc - closed form| sigmas = {[f'{z:.2f}' for z in zs]} (all <= 3); "
            f"P(Y>1; gamma=4) = {1-gamma4:.5f} = 2*Phi(-1)",
        )


class TestCriterion07HurstSweep:
    def test_grid_monotone_and_symmetric(self):
        grid = (0.25, 0.5, 0.75)
        rng = RngStream(9701)
        est = {}
        for a, h1 in enumerate(grid):
            for b, h2 in enumerate(grid):
                est[(a, b)] = br_theta_block_profile(
                    AdditiveFBM((h1, h2)), [50], LEX, 6000, rng.lane(3 * a + b)
                )[50]
        mono_ok = True
        for a in range(3):
            for b in range(3):
                for da, db in ((1, 0), (0, 1)):
                    if a + da > 2 or b + db > 2:
                        continue
                    hi, lo = est[(a + da, b + db)], est[(a, b)]
                    if hi.value - lo.value < -3 * math.hypot(hi.se, lo.se):
                        mono_ok = False
        sym_ok = all(
            abs(est[(a, b)].value - est[(b, a)].value)
            <= 3 * math.hypot(est[(a, b)].se, est[(b, a)].se)
            for a in range(3)
            for b in range(a + 1, 3)
        )
        diag = [round(est[(i, i)].value, 4) for i in range(3)]
        record(
            "criterion-7 Hurst sweep (truncation 50, 3x3 grid)",
            mono_ok and sym_ok,
            f"theta_b diagonal {diag} monotone within MC error; grid symmetric under swap",
        )


class TestCriterion08Counterexample:
    def test_rank_parity_separation(self):
        run = run_counterexample_check(CounterexampleField(1.0), RngStream(9801))
        sep = next(c for c in run.checks if c.check_id == "group-separation-sigmas")
        odd = next(c for c in run.checks if c.check_id.startswith("odd-group"))
        even = next(c for c in run.checks if c.check_id.startswith("even-group"))
        record(
            "criterion-8 factorial-rank separation",
            run.passed,
            f"odd ranks near 0.5 (|dev| {odd.statistic:.4f}), even near 0.25 "
            f"(|dev| {even.statistic:.4f}), separation {sep.statistic:.0f} sigma >= 5",
        )


class TestCriterion09IdentitySuite:
    def test_change_of_time(self):
        mma_run = run_change_of_time_check(MMA, RngStream(9901), q=0.999,
                                           n_replicates=2_000_000)
        iid_run = run_change_of_time_check(IIDFrechet(1.0), RngStream(9902),
                                           q=0.999, n_replicates=600_000,
                                           zero_tol=0.2)
        bad = [c.check_id for r in (mma_run, iid_run) for c in r.checks if not c.passed]
        record(
            "criterion-9a change-of-time identities",
            mma_run.passed and iid_run.passed,
            f"{len(mma_run.checks) + len(iid_run.checks)} shift/function checks "
            f"pass for both models{'; failed: ' + str(bad) if bad else ''}",
        )

    def test_rs_invariance_with_negative_control(self):
        mma_run = run_rs_invariance_check(MMA, RngStream(9903), q=0.999,
                                          n_replicates=1_000_000)
        iid_run = run_rs_invariance_check(IIDFrechet(1.0), RngStream(9904),
                                          q=0.999, n_replicates=600_000)
        neg = run_rs_invariance_check(MMA, RngStream(9905), q=0.999,
                                      n_replicates=1_000_000, corrupt=True)
        record(
            "criterion-9b re-rooting invariance",
            mma_run.passed and iid_run.passed and not neg.passed,
            "invariance holds for both models; corrupted negative control rejected",
        )


class TestCriterion10ClusterLaplace:
    def test_cross_method_catalog(self):
        n, r, tau = (200, 200), (40, 40), 1.0
        u = level_u(MMA, n, tau)
        rng = RngStream(9105)
        atoms = np.concatenate([
            cluster_process_extract(
                field_batch(MMA, pos_block(n), 1, rng.lane(1).substream(i).generator())[0],
                r, u,
            )
            for i in range(800)
        ])
        spectral = spectral_from_tail(
            estimate_tail_field(MMA, centered_box(5, 2), 600_000, rng.lane(2), q=0.995)
        )
        zero = limit_cluster_laplace_mc(spectral, ZERO, LEX)
        zs = {}
        for f in POINT_CATALOG:
            emp = empirical_cluster_laplace(nonempty_blocks(atoms), f)
            lim = limit_cluster_laplace_mc(spectral, f, LEX)
            zs[f.fid] = abs(emp.value - lim.value) / math.hypot(emp.se, lim.se)
        record(
            "criterion-10 cluster Laplace cross-method",
            zero.value == 1.0 and max(zs.values()) <= 3.0,
            f"Psi(0) = {zero.value} exactly; |empirical - limit| sigmas = "
            + ", ".join(f"{k}:{v:.2f}" for k, v in zs.items()),
        )


class TestCriterion11Anticluster:
    def test_local_interaction_dies_fast(self):
        rows = check_anticluster(MMA, (6, 6), level_u(MMA, (300, 300), 1.0), [1, 2],
                                 60_000, RngStream(9111))
        record(
            "criterion-11a anti-clustering (local interaction)",
            rows[2].value <= 0.005,
            f"profile M=1: {rows[1].value:.3f}, M=2: {rows[2].value:.5f} "
            "(~0 beyond the interaction radius)",
        )

    def test_stationary_gaussian_never_dies(self):
        s2 = 1.0
        vg = CustomVariogram(
            dim=2,
            gamma=lambda t: 2 * s2 * (1 - math.exp(-(t[0] ** 2 + t[1] ** 2) / 8.0)),
            sigma2=lambda t: s2,
        )
        spec = BrownResnick(variogram=vg)
        rows = check_anticluster(spec, (6, 6), level_u(spec, (36, 36), 1.0),
                                 [1, 2, 3, 4], 20_000, RngStream(9112))
        floor = 2 * stats.norm.cdf(-math.sqrt(s2))
        vals = [r.value for r in rows.values()]
        ok = all(v >= floor * 0.95 for v in vals)
        record(
            "criterion-11b anti-clustering negative instance",
            ok,
            f"stationary-variance profile {[round(v, 3) for v in vals]} stays above "
            f"2*Phi(-sigma) = {floor:.3f}",
        )


class TestCriterion12Determinism:
    def test_cli_byte_identical(self, tmp_path, capsys):
        cases = [
            ["mma-empirical", "--n", "100,100", "--r", "10,10",
             "--replicates", "600", "--seed", "12"],
            ["br-fig1", "--hurst-grid", "0.3,0.7", "--trunc-m", "8",
             "--n-mc", "600", "--seed", "12"],
        ]
        ok = True
        for case in cases:
            blobs = []
            for run_id, threads in enumerate(("1", "3", "1")):
                out = tmp_path / f"{case[0]}-{run_id}.csv"
                code = cli_main(case + ["--threads", threads, "--out", str(out)])
                assert code == 0
                blobs.append(out.read_bytes())
            ok = ok and blobs[0] == blobs[1] == blobs[2]
        capsys.readouterr()
        record(
            "criterion-12 determinism",
            ok,
            "re-runs with identical config and seed are byte-identical at "
            "thread counts 1 and 3",
        )
