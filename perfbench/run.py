"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload mma-index --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's CLI commands run
in-process through ``tailfields.cli.main`` with stdout captured; op ``i``
of a run uses the op seed ``seed * 2**20 + i``.  The first op is an
untimed warm-up, then ops run until ``--seconds`` would be exceeded.
Each command and each set-up sample runs on the CPU that probed fastest,
and its time is rescaled by the host speed probed around it (``run_probed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
once untraced and twice traced at the same op seed, checks that the three
outputs are byte-identical and that the traced counts repeat exactly, and
prints the per-layer metrics.  Every op's output is checked by the
workload's oracle; an op fails on an exception, a non-zero exit status, a
failed oracle or a failed trace check.

The last line of stdout is the result object; the line before it records
the environment and the individual ops.  BLAS threads are left as found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5
# The host speed probe: a pure-Python loop of PROBE_LOOPS steps, about 4 ms.
# On a shared host a CPU runs it up to 1.8x slower while another tenant
# loads the same core.  Reported times are rescaled towards a CPU that runs
# the probe in PROBE_REF_S seconds by the speed factor to the power
# SPEED_EXPONENT, because the workloads' ops slow less than the probe does
# (see WORKLOADS.md, "Host speed").
PROBE_LOOPS = 20_000
PROBE_REF_S = 0.0035
SPEED_EXPONENT = 0.75
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import tailfields.cli; "
    "print(time.perf_counter() - t0)"
)
SIMULATE_SPANS = ("simulate.field_batch", "simulate.mma_batch",
                  "simulate.conditional_field_batch")


def op_seed(seed: int, i: int) -> int:
    return seed * 2**20 + i


def import_seconds() -> float:
    """Seconds to import tailfields.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_command(argv: list[str]):
    from tailfields import cli, gaussian
    from workloads import CmdResult

    # a CLI run starts with an empty Cholesky cache; so does every command here
    gaussian.fgn_cholesky.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - t0
    return CmdResult(argv, int(code or 0), out.getvalue(), err.getvalue(), wall)


# CPUs the run may use, read before the main thread is ever pinned.
CPUS = sorted(os.sched_getaffinity(0))


def probe_seconds() -> float:
    """Time of a short, fixed pure-Python loop on the current CPU."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        k = i % 997
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


def run_probed(fn):
    """Run ``fn()`` on the CPU that probes fastest; return its result, the
    host speed factor and that CPU.

    The main thread is pinned to the CPU, so ``fn`` and any thread or
    process it starts run there; threads that already exist, such as BLAS
    workers, keep their affinity.  The CPU is probed again afterwards, and
    the speed factor is PROBE_REF_S over the mean of its two probe times.
    """
    before = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        before[cpu] = probe_seconds()
    cpu = min(before, key=before.get)
    os.sched_setaffinity(0, {cpu})
    result = fn()
    return result, 2 * PROBE_REF_S / (before[cpu] + probe_seconds()), cpu


def at_reference_speed(seconds: float, factor: float) -> float:
    return seconds * factor ** SPEED_EXPONENT


class Op:
    """One run of a workload's commands at one op seed.

    Each command runs under ``run_probed``.  ``wall * speed`` is the sum of
    the commands' times at reference speed.
    """

    def __init__(self, workload, seed: int, tracer=None):
        from tailfields import gaussian
        from workloads import exit_ok

        self.seed = seed
        self.results = []
        self.per_command = []  # (argv, wall, span index range, cholesky misses)
        self.cpus, self.factors = [], []
        reference_wall = 0.0
        for argv in workload.argvs(seed):
            first = len(tracer.spans) if tracer else 0
            res, factor, cpu = run_probed(lambda: run_command(argv))
            misses = gaussian.fgn_cholesky.cache_info().misses
            last = len(tracer.spans) if tracer else 0
            self.results.append(res)
            self.per_command.append((argv, res.wall, first, last, misses))
            self.cpus.append(cpu)
            self.factors.append(factor)
            reference_wall += at_reference_speed(res.wall, factor)
        self.wall = sum(r.wall for r in self.results)
        self.speed = reference_wall / self.wall
        self.failures = [
            f"{' '.join(r.argv[:2])}: exit {r.code}: {r.stderr.strip()[-500:]}"
            for r in self.results if not exit_ok(r)
        ]
        if not self.failures:
            try:
                self.failures = workload.check(self.results)
            except (KeyError, ValueError, StopIteration) as exc:
                self.failures = [f"malformed output: {exc!r}"]
        self.se = None
        if not self.failures:
            self.se = workload.headline_se(self.results)

    @property
    def output(self) -> list[str]:
        return [r.stdout for r in self.results]


def run_ops(seed: int, seconds: float, make_op, after=None) -> list:
    """Warm-up op, then ops while the next one is expected to fit in ``seconds``.

    ``after(i, elapsed)`` runs after timed op ``i`` and counts against
    ``seconds``.
    """
    ops = [make_op(op_seed(seed, 0))]
    start = time.perf_counter()
    i = 1
    while True:
        ops.append(make_op(op_seed(seed, i)))
        if after is not None:
            after(i, time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        if i >= 3 and elapsed * (i + 1) / i > seconds:
            return ops
        i += 1


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    # Set-up samples are spread evenly over the run, so that a slow spell of
    # the host does not hit all of them.
    setup = []

    def import_at_reference_speed():
        seconds, factor, _ = run_probed(import_seconds)
        setup.append(at_reference_speed(seconds, factor))

    def sample_setup(_i, elapsed):
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            import_at_reference_speed()

    ops = run_ops(seed, seconds, lambda s: Op(workload, s), sample_setup)
    while len(setup) < SETUP_SAMPLES:
        import_at_reference_speed()
    timed = [op for op in ops[1:] if not op.failures]
    metrics = {}
    if timed:
        wall = statistics.median(op.wall * op.speed for op in timed)
        se_factor = statistics.median((op.se / workload.se_target) ** 2 for op in timed)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "reps_per_s": {"value": workload.replicates / wall, "unit": "1/s"},
            "time_to_se_s": {"value": wall * se_factor, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    return metrics, ops, {"setup_s": setup}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced run ------------------------------------------------------------------

def layer_metrics(tracer, op) -> dict:
    """Per-layer metrics of one traced op (see WORKLOADS.md for each name)."""
    self_s = tracer.self_times()
    dur = tracer.durations()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name + ".s": self_s.get(name, 0.0) for name in LAYER_SPANS}
    out.update({key: c.get(key, 0.0) for key in LAYER_COUNTS})
    out["rng.map_chunks.busy_s"] = c.get("rng.map_chunks.busy_s", 0.0)
    out["rng.map_chunks.par_eff"] = ratio(
        c.get("rng.map_chunks.busy_s", 0.0), c.get("rng.map_chunks.thread_s", 0.0))
    out["gaussian.fgn_cholesky.misses"] = sum(m for *_, m in op.per_command)
    br_reps = c.get("gaussian.brown_resnick_batch.reps", 0.0)
    out["gaussian.brown_resnick_batch.draws_per_rep"] = ratio(
        c.get("gaussian.brown_resnick_batch.rows", 0.0), br_reps)
    out["gaussian.brown_resnick_batch.us_per_rep"] = ratio(
        1e6 * dur.get("gaussian.brown_resnick_batch", 0.0), br_reps)
    out["tailfield.estimate_tail_field.useful_ratio"] = ratio(
        c.get("tailfield.estimate_tail_field.retained", 0.0),
        c.get("tailfield.estimate_tail_field.fields", 0.0))
    out["extremal.theta_classical_empirical.ms_per_rep"] = ratio(
        1e3 * dur.get("extremal.theta_classical_empirical", 0.0),
        c.get("extremal.theta_classical_empirical.reps", 0.0))
    out["simulate.self_share"] = ratio(
        sum(self_s.get(n, 0.0) for n in SIMULATE_SPANS), dur.get("cli.main", 0.0))
    out["io.bytes"] = float(sum(len(s.encode()) for s in op.output))
    return out


def layers_at_reference_speed(layers: dict, speed: float) -> dict:
    """Layer metrics with every time multiplied by the op's ``speed``."""
    return {name: value * speed if LAYER_UNITS.get(name, unit_of(name)) in TIME_UNITS
            else value for name, value in layers.items()}


def count_snapshot(tracer) -> dict:
    """The traced counts that must repeat exactly at one op seed.

    Cholesky cache misses are left out: two map_chunks workers that ask for
    the same factor at once both miss, so that count depends on timing.
    """
    return {k: v for k, v in tracer.counts.items() if not k.endswith("_s")}


def command_breakdown(tracer, op) -> list[dict]:
    """Wall time and simulate self-time share of each command of a traced op."""
    out = []
    for argv, wall, first, last, _ in op.per_command:
        sim = sum(s for name, _t, _p, _d, s in tracer.spans[first:last]
                  if name in SIMULATE_SPANS)
        out.append({"argv": argv[:2], "wall_s": wall,
                    "simulate_self_share": sim / wall if wall else 0.0})
    return out


def traced(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    from tracer import Tracer

    tracer = Tracer()
    layers, overheads, breakdown = [], [], []

    def triple(s):
        plain = Op(workload, s)
        runs = []
        for _ in range(2):
            tracer.reset()
            tracer.install()
            try:
                op = Op(workload, s, tracer)
            finally:
                tracer.uninstall()
            runs.append((op, layers_at_reference_speed(layer_metrics(tracer, op), op.speed),
                         count_snapshot(tracer)))
            if not breakdown:
                breakdown.extend(command_breakdown(tracer, op))
        (t1, m1, c1), (t2, _, c2) = runs
        for op in (t1, t2):
            if op.output != plain.output:
                plain.failures.append("traced output differs from untraced output")
            plain.failures.extend(op.failures)
        if c1 != c2:
            plain.failures.append(f"traced counts differ: {c1} vs {c2}")
        if not plain.failures:
            layers.append(m1)
            overheads.append((t1.wall * t1.speed + t2.wall * t2.speed)
                             / (2 * plain.wall * plain.speed) - 1.0)
        return plain

    def make_op(s):
        return Op(workload, s) if s == op_seed(seed, 0) else triple(s)

    ops = run_ops(seed, seconds, make_op)
    metrics = {}
    if layers:
        for name in layers[0]:
            metrics[name] = {"value": statistics.median(m[name] for m in layers),
                             "unit": LAYER_UNITS.get(name, unit_of(name))}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(overheads), "unit": "ratio"}
    return metrics, ops, {"commands": breakdown}


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


LAYER_SPANS = (
    "rng.map_chunks", "simulate.field_batch", "simulate.mma_batch",
    "simulate.conditional_field_batch", "gaussian.sampler_init",
    "gaussian.sampler_draw", "gaussian.brown_resnick_batch",
    "tailfield.estimate_tail_field", "tailfield.spectral_from_tail",
    "tailfield.verify_change_of_time", "tailfield.rs_transform",
    "tailfield.br_tail_fdd_mc", "extremal.level_u",
    "extremal.theta_classical_empirical", "extremal.theta_run_empirical",
    "extremal.br_theta_block_profile", "cluster.cluster_process_extract",
    "cluster.empirical_cluster_laplace", "cluster.limit_cluster_laplace_mc",
    "verify.rs_invariance_ks", "verify.campaign", "io.write", "cli.main",
)
LAYER_COUNTS = (
    "rng.map_chunks.chunks", "simulate.field_batch.fields",
    "simulate.field_batch.sites", "simulate.field_batch.bytes_computed",
    "simulate.conditional_field_batch.fields", "gaussian.sampler_draw.rows",
    "tailfield.estimate_tail_field.fields", "tailfield.estimate_tail_field.retained",
    "tailfield.estimate_tail_field.regen_chunks", "tailfield.rs_transform.calls",
    "extremal.theta_run_empirical.events", "cluster.cluster_process_extract.blocks",
    "cluster.limit_cluster_laplace_mc.samples",
)
TIME_UNITS = ("s", "ms", "us")
LAYER_UNITS = {
    "rng.map_chunks.par_eff": "ratio",
    "simulate.field_batch.bytes_computed": "bytes",
    "io.bytes": "bytes",
    "gaussian.brown_resnick_batch.us_per_rep": "us",
    "extremal.theta_classical_empirical.ms_per_rep": "ms",
    "tailfield.estimate_tail_field.useful_ratio": "ratio",
    "simulate.self_share": "ratio",
}


# -- environment and entry point ---------------------------------------------------

def git_commit() -> str | None:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": workload.threads,
        "seed": seed,
        "git_commit": git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        p.error("--seed must lie in [0, 2**40)")
    if not os.path.isfile(os.path.join(SRC, "tailfields", "cli.py")):
        print(f"no tailfields sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    import tailfields.cli  # noqa: F401  (compiles and caches the package)

    run = traced if args.trace else end_to_end
    metrics, ops, detail = run(workload, args.seed, args.seconds)
    failed = [op for op in ops if op.failures]
    for op in failed:
        print(f"op seed {op.seed} failed: {op.failures}", file=sys.stderr)
    detail.update(
        env=environment(workload, args.seed),
        ops=[{"seed": op.seed, "wall_s": op.wall, "se": op.se, "cpus": op.cpus,
              "factors": op.factors, "speed": op.speed,
              "ok": not op.failures}
             for op in ops],
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
