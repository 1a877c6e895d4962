import csv
import io
import json
import math

import pytest

from tailfields.cli import main
from tailfields.models import MaxMovingAverage


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse or validation exits
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


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
        code, out, _ = run_cli(
            ["mma-theta", "--mixture-a", "0.6,0.2,0.6,0.1"], capsys
        )
        assert code == 0
        vals = {
            (r.split(",")[0], r.split(",")[1]): r.split(",")[2]
            for r in out.strip().splitlines()[1:]
        }
        assert vals[("closed-mixture-run", "00")] == "0.52"
        assert vals[("closed-mixture-run", "11")] == "0.42"
        assert vals[("closed-mixture-run", "01")] == "0.56"
        assert vals[("closed-mixture-run", "10")] == "0.7"
        assert vals[("closed-mixture-classical", "")] == "0.4"

    def test_malformed_weight_exits_2(self, capsys):
        code, _, err = run_cli(["mma-theta", "--a", "1.3,0,0,0"], capsys)
        assert code == 2

    def test_empirical_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            ["mma-theta", "--empirical", "--n", "200,200", "--r", "10,10",
             "--replicates", "1500", "--seed", "5"],
            capsys,
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        closed = {(r[0], r[1]): float(r[2]) for r in rows if r[0].startswith("closed")}
        emp = {(r[0], r[1]): float(r[2]) for r in rows if not r[0].startswith("closed")}
        assert abs(emp[("classical", "")] - closed[("closed-classical", "")]) <= 0.06
        for c in ("00", "11", "01", "10"):
            assert abs(emp[("run", c)] - closed[("closed-run", c)]) <= 0.06


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mma-theta", "--empirical", "--n", "100,100", "--r", "10,10",
             "--replicates", "400", "--seed", "3"],
            ["br-fig1", "--hurst-grid", "0.3,0.7", "--trunc-m", "8",
             "--n-mc", "500", "--seed", "3"],
            ["counterexample", "--n-per-rank", "20000", "--seed", "3"],
            ["tailfield", "--spectral", "--lag-radius", "2", "--q", "0.99",
             "--replicates", "20000", "--seed", "3"],
            ["cluster-laplace", "--n", "40,40", "--r", "20,20", "--fields", "2",
             "--lag-radius", "2", "--q", "0.99", "--replicates", "12000", "--seed", "3"],
        ],
        ids=["mma", "fig1", "counterexample", "tailfield-spectral", "cluster-laplace"],
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
            ["tailfield", "--model-json", str(cfg), "--lag-radius", "1", "--q",
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
            ["cluster-laplace", "--model-json", str(cfg), "--n", "40,40",
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
        assert "unknown model 'nope'; one of [" in err

    def test_unknown_model_named_by_resolve_model(self, capsys):
        code, _, err = run_cli(["tailfield", "--model", "nope"], capsys)
        assert code == 2
        assert "unknown model 'nope'; one of [" in err
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
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(v[:2]),
    )
    def test_nonpositive_count_exits_2_naming_the_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert f"argument {flag}: must be a positive integer" in err


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster-laplace", "--r", "0,20"],
            ["counterexample", "--alpha", "0"],
            ["counterexample", "--alpha", "-1", "--ranks", "9"],
            ["verify", "counterexample", "--alpha", "0"],
            ["br-tailcdf", "--point", "2"],
        ],
        ids="-".join,
    )
    def test_exits_2_with_one_line_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
