import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailfields
import tailfields.extremal
from tailfields.cli import main
from tailfields.extremal import level_u, theta_run_empirical
from tailfields.models import MaxMovingAverage, Mixture, corners, model_digest
from tailfields.rng import RngStream


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse or validation exits
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# components of classical index 2/5 and 5/7, so of unequal one-site scales
UNEQUAL_MIXTURE = Mixture(components=(
    (0.5, MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1))),
    (0.5, MaxMovingAverage(a=(0.1, 0.1, 0.1, 0.1))),
)).to_config()
WEIGHT_13 = {"variant": "MaxMovingAverage",
             "a": {"-1,-1": 1.3, "-1,1": 0.0, "1,1": 0.0, "1,-1": 0.0}}


def write_config(tmp_path, name, cfg) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def index_table(out) -> dict:
    """(method without "closed-", corner) -> (theta, se) of an index command."""
    return {(row["method"].removeprefix("closed-"), row["corner"]):
            (float(row["theta"]), float(row["se"]))
            for row in csv.DictReader(io.StringIO(out))}


class TestMmaTheta:
    def test_exact_table_values(self, capsys):
        code, out, _ = run_cli(["mma-theta"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,corner,theta,se")
        values = {
            (row.split(",")[0], row.split(",")[1]): row.split(",")[2]
            for row in lines[1:]
        }
        assert values[("closed-classical", "")] == "0.4"
        assert values[("closed-run", "00")] == "0.64"
        assert values[("closed-run", "11")] == "0.44"
        assert values[("closed-run", "01")] == "0.4"
        assert values[("closed-run", "10")] == "0.6"

    def test_mixture_values(self, capsys):
        code, out, _ = run_cli(["mma-theta", "--model", "mixture"], capsys)
        assert code == 0
        vals = {
            (r.split(",")[0], r.split(",")[1]): r.split(",")[2]
            for r in out.strip().splitlines()[1:]
        }
        assert vals[("closed-run", "00")] == "0.52"
        assert vals[("closed-run", "11")] == "0.42"
        assert vals[("closed-run", "01")] == "0.56"
        assert vals[("closed-run", "10")] == "0.7"
        assert vals[("closed-classical", "")] == "0.4"

    def test_unequal_scale_mixture_values(self, capsys, tmp_path):
        # components of classical index 2/5 and 5/7, weighted 5/4 : 7/10
        cfg = write_config(tmp_path, "mixture.json", UNEQUAL_MIXTURE)
        code, out, _ = run_cli(["mma-theta", "--model", cfg], capsys)
        assert code == 0
        vals = {
            (r["method"], r["corner"]): float(r["theta"])
            for r in csv.DictReader(io.StringIO(out))
        }
        assert vals[("closed-classical", "")] == 20 / 39
        assert vals[("closed-run", "00")] == 2 / 3
        assert vals[("closed-run", "11")] == 7 / 13
        assert vals[("closed-run", "01")] == 20 / 39
        assert vals[("closed-run", "10")] == 25 / 39

    def test_malformed_weight_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "weight.json", WEIGHT_13)
        code, _, err = run_cli(["mma-theta", "--model", cfg], capsys)
        assert code == 2

    def test_empirical_within_tolerance(self, capsys):
        # mma-empirical against the closed forms that mma-theta prints
        tables = []
        for argv in (["mma-theta"],
                     ["mma-empirical", "--n", "200,200", "--r", "10,10",
                      "--replicates", "1500", "--seed", "5"]):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            rows = csv.DictReader(io.StringIO(out))
            tables.append({(r["method"].removeprefix("closed-"), r["corner"]):
                           float(r["theta"]) for r in rows})
        closed, emp = tables
        assert emp.keys() == closed.keys()
        for key, theta in closed.items():
            assert abs(emp[key] - theta) <= 0.06, key

    def test_empirical_rows_schema(self, capsys):
        code, out, _ = run_cli(
            ["mma-empirical", "--n", "50,50", "--r", "10,10", "--replicates", "500",
             "--seed", "7"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["method"], r["corner"]) for r in rows] == [
            ("classical", ""), ("run", "00"), ("run", "01"), ("run", "10"),
            ("run", "11"),
        ]
        for row in rows:
            geometry = (row["tau"], row["r"], row["n"], row["seed"])
            assert geometry == ("1.0", "10x10", "50x50", "7")
            assert float(row["u"]) > 1.0 and float(row["se"]) > 0.0
            assert row["model"] == rows[0]["model"] != ""


class TestAnyModelIndices:
    """The index commands on models other than the 2-D max-moving averages."""

    CASES = {
        "1d-stencil": ({"variant": "GeneralMaxMovingAverage",
                        "stencil": {"1": 0.5, "-2": 0.8}}, "400", "20"),
        # two corners have exact run index 1, where the finite-n estimate
        # falls short by about |r| tau / |n|: 0.2% at 40^3
        "3d-stencil": ({"variant": "GeneralMaxMovingAverage",
                        "stencil": {"1,0,-1": 0.5, "0,1,1": 0.25, "-1,-1,0": 0.7}},
                       "40,40,40", "5,5,5"),
        "unequal-mixture": (UNEQUAL_MIXTURE, "100,100", "10,10"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_empirical_within_5_se_of_exact(self, case, capsys, tmp_path):
        cfg, n, r = self.CASES[case]
        path = write_config(tmp_path, "model.json", cfg)
        tables = []
        for argv in (["mma-theta"],
                     ["mma-empirical", "--n", n, "--r", r, "--replicates", "2000",
                      "--seed", "0"]):
            code, out, _ = run_cli(argv + ["--model", path], capsys)
            assert code == 0
            tables.append(index_table(out))
        closed, emp = tables
        assert emp.keys() == closed.keys()
        assert len(closed) == 1 + 2 ** len(n.split(","))
        for key, (theta, _) in closed.items():
            value, se = emp[key]
            assert abs(value - theta) <= 5 * se, (key, value, theta, se)

    def test_2d_corners_keep_their_order_and_lanes(self, capsys):
        # mma-theta lists corners in ALL_CORNERS order, mma-empirical sorted;
        # corner i of ALL_CORNERS draws on lane 2 + i in any row order
        code, out, _ = run_cli(["mma-theta", "--model", "mma2"], capsys)
        assert code == 0
        assert list(index_table(out)) == [
            ("classical", ""), ("run", "00"), ("run", "11"), ("run", "01"), ("run", "10")]
        argv = ["mma-empirical", "--model", "mma2", "--n", "50,50", "--r", "10,10",
                "--replicates", "300", "--seed", "4"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        emp = index_table(out)
        assert list(emp) == [
            ("classical", ""), ("run", "00"), ("run", "01"), ("run", "10"), ("run", "11")]
        spec = MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1))
        est = theta_run_empirical(spec, (0, 1), (10, 10), level_u(spec, (50, 50), 1.0), 300,
                                  RngStream(4).lane(2 + 2))
        assert emp[("run", "01")] == (est.value, est.se)

    def test_path_runs_like_the_name(self, capsys, tmp_path):
        # a config of a named model gives the named model's bytes
        cfg = write_config(tmp_path, "iid.json", {"variant": "IIDFrechet", "alpha": 1.0})
        outs = []
        for model in ("iid", cfg):
            code, out, _ = run_cli(
                ["verify", "pareto-root", "--model", model, "--q", "0.99",
                 "--replicates", "20000", "--seed", "1"], capsys)
            assert code in (0, 1)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_stencil_model_at_alpha_1_5_runs(self, capsys):
        # a stencil config with an "alpha" key runs under its own digest
        path = str(DIGESTS_PATH.parent / "mma-alpha15.json")
        code, out, _ = run_cli(["mma-empirical", "--model", path, "--n", "60,60",
                                "--r", "6,6", "--replicates", "300", "--seed", "2"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["method"] for r in rows] == ["classical"] + ["run"] * 4
        spec = MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1), alpha=1.5)
        assert {r["model"] for r in rows} == {model_digest(spec)}

    def test_missing_path_is_an_unknown_model(self, capsys, tmp_path):
        code, _, err = run_cli(["mma-theta", "--model", str(tmp_path / "no.json")], capsys)
        assert code == 2
        assert err.startswith(f"error: unknown model '{tmp_path / 'no.json'}'; one of [")

    def test_unloadable_file_is_named(self, capsys, tmp_path):
        for name, content, kind in [
            ("bad.json", json.dumps({"alpha": 2}), "KeyError"),
            ("not-json.json", "{variant", "JSONDecodeError"),
            ("weight-1.3.json", json.dumps(WEIGHT_13), "ValueError"),
        ]:
            cfg = tmp_path / name
            cfg.write_text(content)
            code, _, err = run_cli(["tailfield", "--model", str(cfg)], capsys)
            assert code == 2
            assert err.startswith(f"error: cannot load a model from {cfg}: {kind}")


class TestMmaEmpiricalLevel:
    """mma-empirical finds the level u once and passes it to its run rows."""

    ARGV = ["mma-empirical", "--model", "mma2", "--n", "50,50", "--r", "10,10",
            "--tau", "2", "--replicates", "300", "--seed", "6"]

    def test_two_bisections_per_command(self, capsys, monkeypatch):
        # one for the u column, one inside the classical estimator
        calls = []

        def counted(*args):
            calls.append(args)
            return level_u(*args)

        monkeypatch.setattr(tailfields.cli, "level_u", counted)
        monkeypatch.setattr(tailfields.extremal, "level_u", counted)
        code, _, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        assert len(calls) == 2

    def test_run_rows_are_the_estimator_at_the_printed_level(self, capsys):
        code, out, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        spec = MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1))
        u = level_u(spec, (50, 50), 2.0)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["u"] for row in rows} == {repr(u)}
        emp = index_table(out)
        for i, corner in enumerate(corners(2)):
            est = theta_run_empirical(spec, corner, (10, 10), u, 300, RngStream(6).lane(2 + i))
            assert emp[("run", "".join(map(str, corner)))] == (est.value, est.se)

    def test_r_not_below_n_keeps_its_message(self, capsys):
        code, out, err = run_cli(["mma-empirical", "--n", "20,20", "--r", "30,30"], capsys)
        assert (code, out, err) == (2, "", "error: need r < n componentwise\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mma-empirical", "--n", "100,100", "--r", "10,10",
             "--replicates", "400", "--seed", "3"],
            ["br-fig1", "--hurst-grid", "0.3,0.7", "--trunc-m", "8",
             "--n-mc", "500", "--seed", "3"],
            ["tailfield", "--spectral", "--lag-radius", "2", "--q", "0.99",
             "--replicates", "20000", "--seed", "3"],
            ["cluster-laplace", "--n", "40,40", "--r", "20,20", "--fields", "2",
             "--lag-radius", "2", "--q", "0.99", "--replicates", "12000", "--seed", "3"],
            # more field chunks than workers, each filling its own rows
            ["cluster-laplace", "--n", "40,40", "--r", "20,20", "--fields", "12",
             "--lag-radius", "2", "--q", "0.99", "--replicates", "12000", "--seed", "5"],
            # Brown-Resnick fields from the extremal-function walk
            ["tailfield", "--model", "br-fbm", "--lag-radius", "1", "--q", "0.99",
             "--replicates", "6000", "--seed", "3"],
            # each replicate's component picked, then roots and rows from it
            ["tailfield", "--model", "mixture", "--lag-radius", "2", "--q", "0.99",
             "--replicates", "20000", "--seed", "3"],
        ],
        ids=["mma", "fig1", "tailfield-spectral", "cluster-laplace",
             "cluster-laplace-12-fields", "tailfield-br-fbm", "tailfield-mixture"],
    )
    def test_bytes_identical_across_threads(self, argv, capsys, tmp_path):
        outs = []
        for threads in ("1", "3"):
            path = tmp_path / f"out-{threads}.csv"
            code, _, _ = run_cli(argv + ["--threads", threads, "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_rerun_identical(self, capsys, tmp_path):
        argv = ["br-theta", "--hurst", "0.6,0.6", "--trunc-m", "8", "--n-mc",
                "400", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(argv + ["--out", str(a)], capsys)
        run_cli(argv + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestBrCommands:
    def test_fig1_monotone_smoke(self, capsys):
        code, out, _ = run_cli(
            ["br-fig1", "--hurst-grid", "0.3,0.7", "--trunc-m", "6", "--n-mc",
             "2000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        theta = {(float(r[0]), float(r[1])): float(r[4]) for r in rows}
        assert theta[(0.7, 0.7)] > theta[(0.3, 0.3)]

    @pytest.mark.parametrize("hurst, flagged", [("0.1,0.1", 1), ("0.5,0.5", 0)])
    def test_truncation_profile(self, capsys, hurst, flagged):
        # at M = 50, h = 0.1 loses about 8 se of mass between M/2 and M, and
        # h = 0.5 about 0.1 se
        code, out, _ = run_cli(
            ["br-theta", "--hurst", hurst, "--trunc-m", "50", "--n-mc", "4000",
             "--seed", "5"],
            capsys,
        )
        assert code == 0
        header, line = out.strip().splitlines()
        assert header.split(",")[4:9] == [
            "theta_b", "se", "theta_b_m4", "theta_b_m2", "truncated"]
        (row,) = csv.DictReader(io.StringIO(out))
        theta, se = float(row["theta_b"]), float(row["se"])
        m4, m2 = float(row["theta_b_m4"]), float(row["theta_b_m2"])
        assert m4 >= m2 >= theta  # antitone in the truncation pathwise
        assert int(row["truncated"]) == flagged == int(m2 - theta > 2 * se)

    def test_tailcdf_consistency(self, capsys):
        code, out, _ = run_cli(
            ["br-tailcdf", "--hurst", "0.5,0.5", "--point", "2,2", "--y",
             "1.0,2.0", "--n-mc", "50000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            f = row.split(",")
            exact, mc, se = float(f[3]), float(f[4]), float(f[5])
            assert abs(exact - mc) <= 4 * se


class TestTailfieldCommand:
    def test_columnar_output(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            ["tailfield", "--model", "iid", "--lag-radius", "1", "--q", "0.99",
             "--replicates", "20000", "--min-retained", "100", "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "root_norm"
        assert len(lines[0].split(",")) == 10  # root + 9 lags
        assert len(lines) >= 101
        roots = [float(l.split(",")[0]) for l in lines[1:]]
        assert min(roots) >= 1.0

    def test_spectral_flag(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, _, _ = run_cli(
            ["tailfield", "--model", "iid", "--lag-radius", "1", "--q", "0.99",
             "--replicates", "20000", "--min-retained", "100", "--spectral",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "lag_-1_-1"
        # lag-0 column is the middle one; norms exactly 1
        mid = lines[0].split(",").index("lag_0_0")
        assert all(abs(float(l.split(",")[mid])) == 1.0 for l in lines[1:])

    def test_model_json(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(MaxMovingAverage(a=(0, 0, 0, 0)).to_config()))
        code, out, _ = run_cli(
            ["tailfield", "--model", str(cfg), "--lag-radius", "1", "--q",
             "0.99", "--replicates", "20000", "--min-retained", "100"],
            capsys,
        )
        assert code == 0


class TestClusterLaplaceCommand:
    def test_alpha_taken_from_model(self, capsys, tmp_path):
        # one-atom IID clusters: the step-2 functional (height 1/2 beyond
        # norm 2) has limit 1 - 2^-alpha (1 - e^-1/2)
        cfg = tmp_path / "iid2.json"
        cfg.write_text(json.dumps({"variant": "IIDFrechet", "alpha": 2.0}))
        code, out, _ = run_cli(
            ["cluster-laplace", "--model", str(cfg), "--n", "40,40",
             "--r", "20,20", "--fields", "40", "--replicates", "100000",
             "--lag-radius", "2", "--q", "0.99", "--seed", "1"],
            capsys,
        )
        assert code == 0
        row = next(r for r in csv.DictReader(io.StringIO(out)) if r["function"] == "step-2")
        exact = 1 - 2**-2.0 * (1 - math.exp(-0.5))
        assert abs(float(row["limit"]) - exact) <= 4 * float(row["limit_se"])


class TestVerifyCommand:
    def test_pareto_root_pass_exit_0(self, capsys):
        code, out, err = run_cli(
            ["verify", "pareto-root", "--model", "iid", "--q", "0.99",
             "--replicates", "600000", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert "PASS" in err

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pareto_root_reduced_size_exit_0(self, capsys, seed):
        # 50000 replicates retain 500 roots, where a correct sample reads a
        # KS distance near 0.04; the threshold grows to 0.02 sqrt(5000/500)
        code, _, err = run_cli(
            ["verify", "pareto-root", "--replicates", "50000", "--seed", str(seed)],
            capsys,
        )
        assert code == 0
        assert "PASS" in err

    def test_negative_control_exit_1(self, capsys):
        code, out, err = run_cli(
            ["verify", "rs-invariance", "--model", "corrupted", "--q", "0.999",
             "--replicates", "400000", "--seed", "2"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in err

    def test_unknown_model_exit_2(self, capsys):
        code, _, err = run_cli(
            ["verify", "pareto-root", "--model", "nope"], capsys
        )
        assert code == 2
        assert err.startswith("error: unknown model 'nope'; one of [")

    def test_unknown_model_named_by_resolve_model(self, capsys):
        code, _, err = run_cli(["tailfield", "--model", "nope"], capsys)
        assert code == 2
        assert err.startswith("error: unknown model 'nope'; one of [")
        assert "'mma-default'" in err

    def test_pareto_root_default_flags_exit_0(self, capsys):
        # without --q the campaign keeps its own level, where the default
        # retention requirement is reachable
        code, _, err = run_cli(["verify", "pareto-root"], capsys)
        assert code == 0
        assert "PASS" in err

    def test_check_ids_with_commas_are_quoted(self, capsys):
        code, out, _ = run_cli(
            ["verify", "change-of-time", "--replicates", "50000", "--seed", "2"],
            capsys,
        )
        assert code in (0, 1)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(None not in r for r in rows)  # no spill-over columns
        assert "shift(1, 0)-one" in {r["check"] for r in rows}
        assert {r["verdict"] for r in rows} <= {"pass", "fail"}

    def test_flag_before_campaign_name_exits_2(self, capsys):
        # the flag takes the name as its value, or leaves it to be parsed
        for argv in (["verify", "--seed", "3", "pareto-root"],
                     ["verify", "--seed", "pareto-root"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and out == "", argv
            assert err.startswith("error: verify flags go after the campaign name")
            assert err.count("\n") == 1, argv

    def test_counterexample_campaign(self, capsys):
        code, out, err = run_cli(
            ["verify", "counterexample", "--seed", "2"], capsys
        )
        assert code == 0


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["br-tailcdf", "--n-mc", "0"], "--n-mc"),
            (["br-theta", "--n-mc", "-5"], "--n-mc"),
            (["br-fig1", "--trunc-m", "0"], "--trunc-m"),
            (["mma-empirical", "--replicates", "0", "--n", "40,40", "--r", "20,20"],
             "--replicates"),
            (["tailfield", "--replicates", "0"], "--replicates"),
            (["cluster-laplace", "--fields", "0"], "--fields"),
            (["counterexample", "--n-per-rank", "-1"], "--n-per-rank"),
            (["verify", "pareto-root", "--replicates", "0"], "--replicates"),
            (["verify", "change-of-time", "--replicates", "ten"], "--replicates"),
            # rejected before any thread starts
            (["mma-empirical", "--threads", "0"], "--threads"),
            (["tailfield", "--threads", "-3"], "--threads"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(v[:2]),
    )
    def test_nonpositive_count_exits_2_naming_the_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert f"argument {flag}: must be a positive integer" in err


# --n and --r that cluster-laplace rejects, with its message
BAD_BLOCKS = [
    (["--n", "400", "--r", "20"], "error: model needs dimension 2, window has 1\n"),
    (["--n", "40,40", "--r", "15,20"],
     "error: window shape (40, 40) is not a multiple of r=(15, 20)\n"),
    (["--n", "40,40", "--r", "20"], "error: block size dimension mismatch\n"),
    (["--n", "40,40", "--r", "80,80"],
     "error: window shape (40, 40) is not a multiple of r=(80, 80)\n"),
]


class TestRejectedInputs:
    @pytest.mark.parametrize("model", ["mma-default", "br-fbm"])
    @pytest.mark.parametrize("blocks, message", BAD_BLOCKS,
                             ids=["-".join(blocks) for blocks, _ in BAD_BLOCKS])
    def test_cluster_blocks_keep_their_messages(self, model, blocks, message, capsys):
        code, out, err = run_cli(["cluster-laplace", "--model", model, *blocks], capsys)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster-laplace", "--r", "0,20"],
            ["counterexample", "--alpha", "0"],
            ["counterexample", "--alpha", "-1", "--ranks", "9"],
            ["verify", "counterexample", "--alpha", "0"],
            ["counterexample", "--alpha", "nan"],
            ["counterexample", "--alpha", "inf"],
            ["verify", "counterexample", "--alpha", "nan"],
            ["br-tailcdf", "--y", "nan"],
            ["mma-theta", "--model", "{tmp}/alpha-nan.json"],
            ["tailfield", "--model", "{tmp}/mixture-weight-nan.json"],
            ["br-tailcdf", "--point", "2"],
            ["br-theta", "--hurst", "0.5,0.5,0.2"],
            ["verify", "pareto-root", "--model", "corrupted"],
            ["verify", "pareto-root", "--model", "nope"],
            ["tailfield", "--model", "nope"],
            ["mma-theta", "--model", "{tmp}/weight-1.3.json"],
            ["mma-theta", "--model", "{tmp}/mixture-weight-1.3.json"],
            ["tailfield", "--model", "{tmp}/mixed-alpha.json"],
            ["tailfield", "--model", "{tmp}/missing.json"],
            ["tailfield", "--model", "{tmp}/no-variant.json"],
            ["tailfield", "--model", "{tmp}/no-weights.json"],
            ["tailfield", "--model", "{tmp}/list-weights.json"],
            ["tailfield", "--model", "{tmp}/list-variogram.json"],
            ["tailfield", "--model", "{tmp}/not-json.json"],
            # models that lack what the index commands need
            ["mma-theta", "--model", "br-fbm"],
            ["mma-empirical", "--model", "counterexample"],
            ["mma-empirical", "--tau", "nan", "--n", "40,40", "--r", "20,20"],
            ["mma-empirical", "--n", "20,20", "--r", "30,30"],
            ["cluster-laplace", "--tau", "nan"],
            # a bad q is named before it sizes the pareto-root retention requirement
            ["verify", "pareto-root", "--q", "inf", "--replicates", "2000"],
            ["verify", "pareto-root", "--q=-inf", "--replicates", "2000"],
            ["verify", "pareto-root", "--q", "nan", "--replicates", "2000"],
            # 40,000-site Brown-Resnick fields at the default --n 200,200
            ["cluster-laplace", "--model", "br-fbm"],
            # blocks that do not tile the window, for a screened and a built model
            *(["cluster-laplace", "--model", model, *blocks]
              for model in ("mma-default", "br-fbm") for blocks, _ in BAD_BLOCKS),
        ],
        ids="-".join,
    )
    def test_exits_2_with_one_line_error(self, argv, capsys, tmp_path):
        (tmp_path / "no-variant.json").write_text(json.dumps({"alpha": 2}))
        no_weights = {"variant": "MaxMovingAverage"}
        (tmp_path / "no-weights.json").write_text(json.dumps(no_weights))
        mixed = {"variant": "Mixture", "components": [
            {"weight": 0.5, "model": {"variant": "IIDFrechet", "alpha": a}}
            for a in (1.0, 2.0)
        ]}
        (tmp_path / "mixed-alpha.json").write_text(json.dumps(mixed))
        write_config(tmp_path, "weight-1.3.json", WEIGHT_13)
        write_config(tmp_path, "mixture-weight-1.3.json", {"variant": "Mixture", "components": [
            {"weight": 0.5, "model": MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1)).to_config()},
            {"weight": 0.5, "model": WEIGHT_13},
        ]})
        write_config(tmp_path, "list-weights.json",
                     {"variant": "MaxMovingAverage", "a": [0.1, 0.7, 0.6, 0.1]})
        write_config(tmp_path, "list-variogram.json",
                     {"variant": "BrownResnick", "variogram": [0.5]})
        (tmp_path / "not-json.json").write_text("{variant")
        write_config(tmp_path, "alpha-nan.json", {"variant": "IIDFrechet", "alpha": math.nan})
        write_config(tmp_path, "mixture-weight-nan.json", {"variant": "Mixture", "components": [
            {"weight": w, "model": {"variant": "IIDFrechet", "alpha": 1.0}}
            for w in (math.nan, 0.5)
        ]})
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestImportPath:
    def test_scipy_stays_unloaded(self, tmp_path):
        # the package runs on NumPy alone: neither the import nor any
        # command, the KS campaigns included, loads SciPy
        code = (
            "import sys, tailfields.cli as cli\n"
            "for argv in (['mma-empirical', '--n', '20,20', '--r', '5,5'],"
            " ['br-tailcdf', '--point', '1,0', '--n-mc', '200'],"
            " ['verify', 'rs-invariance', '--q', '0.99', '--replicates', '5000'],"
            " ['verify', 'pareto-root', '--q', '0.99', '--replicates', '20000']):\n"
            "    assert cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(tailfields.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "counterexample", "--model", "nope"], "--model"),
            (["verify", "counterexample", "--q", "0.5"], "--q"),
            (["verify", "counterexample", "--replicates", "10"], "--replicates"),
            (["verify", "pareto-root", "--alpha", "2"], "--alpha"),
            (["verify", "change-of-time", "--threads", "2"], "--threads"),
            (["tailfield", "--format", "json"], "--format"),
            (["counterexample", "--threads", "2"], "--threads"),
            (["br-tailcdf", "--threads", "2"], "--threads"),
            (["mma-theta", "--empirical"], "--empirical"),
            (["mma-theta", "--threads", "2"], "--threads"),
            (["mma-theta", "--seed", "3"], "--seed"),
            # one --model flag selects every model
            (["mma-theta", "--a", "0.1,0.7,0.6,0.1"], "--a"),
            (["mma-theta", "--mixture-a", "0.6,0.2,0.6,0.1"], "--mixture-a"),
            (["mma-empirical", "--a", "0.1,0.7,0.6,0.1"], "--a"),
            (["tailfield", "--model-json", "model.json"], "--model-json"),
            (["cluster-laplace", "--model-json", "model.json"], "--model-json"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(v[:3]),
    )
    def test_exits_2_naming_the_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag}" in err


DIGESTS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"


def test_digest_script_commands_run(capsys, tmp_path):
    # scripts/cli_digests.py is not a package module; load it by path so a
    # flag change that breaks one of its commands fails here, not silently
    spec = importlib.util.spec_from_file_location("cli_digests", DIGESTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for i, argv in enumerate(module.COMMANDS):
        path = tmp_path / f"out-{i}"
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code in (0, 1), argv  # 1: a verify FAIL verdict
        assert path.stat().st_size > 0, argv
