"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads mma-index,tail-cluster --seeds 0-9

For every workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs are made one at a time, untraced
unless ``--trace 1``.  ``--out`` also writes the summary and each run's
metric values as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
            "unit": results[0]["metrics"][name]["unit"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma list (default: all)")
    p.add_argument("--seeds", default="0-9", help="range such as 0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for name in names:
        results = []
        for seed in seed_list(args.seeds):
            res = run_once(bench, name, seed, args.trace)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
            results.append(res)
        summary = summarise(results, bounds)
        report[name] = {
            "seeds": seed_list(args.seeds),
            "env": results[0]["detail"]["env"],
            "summary": summary,
            "values": {m: [r["metrics"][m]["value"] for r in results] for m in summary},
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        print(f"\n{name} ({len(results)} runs)")
        for metric, s in summary.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {metric:48s} median {s['median']:<12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}{bound}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
