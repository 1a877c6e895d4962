"""Checks of the benchmark's own machinery: oracles, tracer and metric names.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TAIL = ",seed,model,version"


def result(argv, text, code=0):
    return wl.CmdResult(list(argv), code, text, "", 0.1)


def mma_output(theta_00="0.64"):
    return (
        "method,corner,theta,se,tau,u,r,n" + TAIL + "\n"
        "classical,,0.41,0.015,1.0,1e5,20x20,200x200,1,m,v\n"
        f"run,00,{theta_00},0.011,1.0,1e5,20x20,200x200,1,m,v\n"
        "run,01,0.39,0.011,1.0,1e5,20x20,200x200,1,m,v\n"
        "run,10,0.61,0.011,1.0,1e5,20x20,200x200,1,m,v\n"
        "run,11,0.45,0.011,1.0,1e5,20x20,200x200,1,m,v\n"
    )


def test_mma_oracle_counts_a_corrupted_row():
    assert wl.check_mma_index([result(["mma-empirical"], mma_output())]) == []
    bad = wl.check_mma_index([result(["mma-empirical"], mma_output("0.90"))])
    assert len(bad) == 1 and "'00'" in bad[0]


def br_outputs(cdf_mc_y1=0.6827, cdf_exact_y1=None):
    exact1 = wl.br_tail_cdf_exact(4.0, 1.0)
    exact2 = wl.br_tail_cdf_exact(4.0, 2.0)
    if cdf_exact_y1 is None:
        cdf_exact_y1 = exact1
    fig1 = "h1,h2,trunc_m,n_mc,theta_b,se" + TAIL + "\n" + "".join(
        f"{h1},{h2},50,2000,0.05,0.003,1,m,v\n" for h1 in (0.25, 0.75) for h2 in (0.25, 0.75)
    )
    tailcdf = (
        "point,gamma,y,cdf_exact,cdf_mc,mc_se" + TAIL + "\n"
        f"2x2,4.0,1.0,{cdf_exact_y1!r},{cdf_mc_y1},0.0008,1,m,v\n"
        f"2x2,4.0,2.0,{exact2!r},0.7826,0.0007,1,m,v\n"
    )
    tailfield = "root_norm,lag_0_0,lag_0_1\n1.5,1.5,0.7\n"
    return [result(["br-fig1"], fig1), result(["br-tailcdf"], tailcdf),
            result(["tailfield"], tailfield)]


def test_brown_resnick_oracle_counts_a_corrupted_row():
    assert wl.check_brown_resnick(br_outputs()) == []
    assert len(wl.check_brown_resnick(br_outputs(cdf_mc_y1=0.70))) == 1
    assert len(wl.check_brown_resnick(br_outputs(cdf_exact_y1=0.70))) == 1


def tail_outputs(zero_limit="1.0", cot_stat=0.004, cot_verdict="pass", rs_verdict="pass"):
    laplace = "function,empirical,empirical_se,limit,limit_se" + TAIL + "\n" + "".join(
        f"{f},{v},0.01,{v},0.02,1,m,v\n"
        for f, v in (("zero", "1.0"), ("step-1", "0.2"), ("step-2", "0.7"),
                     ("ramp-1-2", "0.4"), ("ramp-05-1", "0.02"))
    ).replace("zero,1.0,0.01,1.0", f"zero,1.0,0.01,{zero_limit}")
    head = "campaign,check,statistic,threshold,verdict,model,seed,version\n"
    cot = head + (
        f"change-of-time,shift(1, 0)-one,{cot_stat},0.013,{cot_verdict},M:1,1,v\n"
        "change-of-time,shift(0, 1)-one,0.002,0.013,pass,M:1,1,v\n"
    )
    rs = head + f"rs-invariance,ks-no-rejection,1.0,0.01,{rs_verdict},M:1,1,v\n"
    return [result(["cluster-laplace"], laplace),
            result(["verify", "change-of-time"], cot, int(cot_verdict != "pass")),
            result(["verify", "rs-invariance"], rs, int(rs_verdict != "pass"))]


def test_tail_cluster_oracle_counts_a_corrupted_row():
    assert wl.check_tail_cluster(tail_outputs()) == []
    assert len(wl.check_tail_cluster(tail_outputs(zero_limit="0.9999"))) == 1
    assert len(wl.check_tail_cluster(tail_outputs(rs_verdict="fail"))) == 1
    # a change-of-time check failed at 3 se is re-judged at 5 se
    assert wl.check_tail_cluster(tail_outputs(cot_stat=0.015, cot_verdict="fail")) == []
    assert len(wl.check_tail_cluster(tail_outputs(cot_stat=0.03, cot_verdict="fail"))) == 1


def test_verify_rows_keep_commas_in_check_ids():
    (row,) = wl.verify_rows(tail_outputs()[1])[:1]
    assert row["check"] == "shift(1, 0)-one" and row["statistic"] == "0.004"


def test_mma_exact_table_matches_the_closed_form():
    from tailfields.extremal import mma_index_table

    table = mma_index_table((0.1, 0.7, 0.6, 0.1))
    assert wl.MMA_EXACT[("classical", "")] == table["classical"]
    for c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert wl.MMA_EXACT[("run", "".join(map(str, c)))] == table[c]


def test_failed_command_fails_the_op():
    bad = wl.Workload(
        name="bad", commands=(("tailfield", "--model", "no-such-model"),), threads=1,
        check=lambda results: [], headline_se=lambda results: 1.0, se_target=1.0,
    )
    op = run.Op(bad, 0)
    assert op.results[0].code == 2 and len(op.failures) == 1


SMALL = wl.Workload(
    name="small",
    commands=(
        ("mma-empirical", "--n", "40,40", "--r", "10,10", "--replicates", "256",
         "--threads", "2"),
        ("tailfield", "--model", "br-fbm", "--lag-radius", "1", "--q", "0.99",
         "--replicates", "6000"),
    ),
    threads=2, check=lambda results: [], headline_se=lambda results: 1.0, se_target=1.0,
)


def test_tracing_keeps_output_and_repeats_counts():
    from tailfields import simulate

    orig = simulate.field_batch
    plain = run.Op(SMALL, 7)
    tracer = Tracer()
    snaps = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            op = run.Op(SMALL, 7, tracer)
        finally:
            tracer.uninstall()
        assert op.output == plain.output and not op.failures
        snaps.append(run.count_snapshot(tracer))
    assert simulate.field_batch is orig
    assert snaps[0] == snaps[1]
    c = snaps[0]
    assert c["extremal.theta_run_empirical.events"] == 4 * 256
    assert c["tailfield.estimate_tail_field.fields"] == 6000
    assert c["gaussian.brown_resnick_batch.reps"] == 6000
    assert c["tailfield.estimate_tail_field.regen_chunks"] == 0
    names = {s[0] for s in tracer.spans}
    assert {"rng.map_chunks", "simulate.mma_batch", "gaussian.sampler_draw",
            "cli.main", "io.write"} <= names


def test_trace_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    op = SimpleNamespace(per_command=[], output=[""])
    names = set(run.layer_metrics(Tracer(), op)) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in bench["per_layer"]}
    assert set(wl.WORKLOADS) == {w["name"] for w in bench["workloads"]}


def test_run_probed_pins_work_to_the_fastest_cpu():
    seen = []

    def work():
        seen.append(os.sched_getaffinity(0))
        return "done"

    result, factor, cpu = run.run_probed(work)
    assert result == "done" and factor > 0 and seen == [{cpu}]
    assert run.at_reference_speed(2.0, 1.0) == 2.0
    assert 0.5 < run.at_reference_speed(1.0, 0.5) < 1.0
