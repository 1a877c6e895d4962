#!/usr/bin/env python3
"""Count the ops of one benchmark workload that its oracle fails.

Runs ``--ops`` ops of a workload from ``perfbench/workloads.py`` (loaded
by file path) in-process through ``tailfields.cli.main``.  Op i runs at
the op seed ``seed * 2**20 + i``, as ``perfbench/run.py`` numbers its
ops, and fails as it would there: a command that raises, an exit status
the workload does not accept, malformed output or a failed oracle check.
On correct code every failure is a false failure of the oracle, so the
failed share estimates its false-failure rate.  Prints the ops attempted,
the ops failed, and each failing op seed with its first message:

    PYTHONPATH=src python scripts/oracle_failures.py --workload tail-cluster \\
        --ops 4000 --seed 9101

Nothing is timed; an op of the slowest workload takes about 0.1 s on one
core.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import traceback

from tailfields import cli, gaussian

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PATH = os.path.join(os.path.dirname(HERE), "perfbench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def run_command(wl, argv):
    gaussian.fgn_cholesky.cache_clear()  # as a fresh CLI process starts
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a command that raises fails its op
            traceback.print_exc()
            code = -1
    return wl.CmdResult(argv, int(code or 0), out.getvalue(), err.getvalue(), 0.0)


def op_failures(wl, workload, op_seed: int) -> list[str]:
    results = [run_command(wl, argv) for argv in workload.argvs(op_seed)]
    bad = [f"{' '.join(r.argv[:2])}: exit {r.code}: {r.stderr.strip()[-300:]}"
           for r in results if not wl.exit_ok(r)]
    if bad:
        return bad
    try:
        return workload.check(results)
    except (KeyError, ValueError, StopIteration) as exc:
        return [f"malformed output: {exc!r}"]


def main(argv=None) -> int:
    wl = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="run seed, as run.py --seed")
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    failed = []
    for i in range(args.ops):
        op_seed = args.seed * 2**20 + i
        messages = op_failures(wl, workload, op_seed)
        if messages:
            failed.append(op_seed)
            print(f"op seed {op_seed}: {messages[0]}", flush=True)
    print(f"workload {args.workload}: {args.ops} ops attempted, {len(failed)} failed; "
          f"failing op seeds {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
