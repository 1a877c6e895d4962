"""Span tracer that wraps the public functions of the ``tailfields`` modules.

The package itself carries no instrumentation.  ``Tracer.install`` rebinds
each traced function in every ``tailfields`` module that holds a reference
to it (``extremal`` has its own binding of ``field_batch``, for example),
and ``uninstall`` puts the originals back.  Spans are kept in memory; the
caller aggregates them when the run ends.

Self time is a span's duration minus the durations of its child spans on
the same thread.  A span opened on a ``map_chunks`` worker thread has no
parent on its own thread; it is attributed to the enclosing ``map_chunks``
span but not subtracted from it, so on threaded runs self times add up to
more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import defaultdict

MODULES = (
    "rng", "simulate", "gaussian", "tailfield", "extremal",
    "cluster", "verify", "io", "cli",
)

# (module, function) -> span name.  Several functions may share a span name.
SPANS = {
    ("rng", "map_chunks"): "rng.map_chunks",
    ("simulate", "field_batch"): "simulate.field_batch",
    ("simulate", "mma_batch"): "simulate.mma_batch",
    ("simulate", "conditional_field_batch"): "simulate.conditional_field_batch",
    ("gaussian", "brown_resnick_batch"): "gaussian.brown_resnick_batch",
    ("tailfield", "estimate_tail_field"): "tailfield.estimate_tail_field",
    ("tailfield", "spectral_from_tail"): "tailfield.spectral_from_tail",
    ("tailfield", "verify_change_of_time"): "tailfield.verify_change_of_time",
    ("tailfield", "rs_transform"): "tailfield.rs_transform",
    ("tailfield", "br_tail_fdd_mc"): "tailfield.br_tail_fdd_mc",
    ("extremal", "level_u"): "extremal.level_u",
    ("extremal", "theta_classical_empirical"): "extremal.theta_classical_empirical",
    ("extremal", "theta_run_empirical"): "extremal.theta_run_empirical",
    ("extremal", "br_theta_block_profile"): "extremal.br_theta_block_profile",
    ("cluster", "cluster_process_extract"): "cluster.cluster_process_extract",
    ("cluster", "empirical_cluster_laplace"): "cluster.empirical_cluster_laplace",
    ("cluster", "limit_cluster_laplace_mc"): "cluster.limit_cluster_laplace_mc",
    ("verify", "rs_invariance_ks"): "verify.rs_invariance_ks",
    ("verify", "run_pareto_root_check"): "verify.campaign",
    ("verify", "run_change_of_time_check"): "verify.campaign",
    ("verify", "run_rs_invariance_check"): "verify.campaign",
    ("verify", "run_counterexample_check"): "verify.campaign",
    ("io", "write_records"): "io.write",
    ("io", "write_table"): "io.write",
    ("cli", "main"): "cli.main",
}

# methods of gaussian.GaussianFieldSampler -> span name
SAMPLER_SPANS = {"__init__": "gaussian.sampler_init", "draw": "gaussian.sampler_draw"}


class _Frame:
    __slots__ = ("name", "start", "child", "inner")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.child = 0.0
        self.inner = 0  # work counted inside this span: field_batch calls, sampler rows


class Tracer:
    """Records (name, thread, parent, duration, self time) spans and counters."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._pool_frame = None  # the map_chunks span whose workers are running
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.spans = []  # (name, thread_id, parent_name, duration, self_time)
        self.counts = defaultdict(float)

    # -- span bookkeeping -------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack().append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        dur = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            parent = stack[-1]
            parent.child += dur
            parent_name = parent.name
        else:
            pool = self._pool_frame
            parent_name = pool.name if pool is not None else None
        self.spans.append(
            (frame.name, threading.get_ident(), parent_name, dur, dur - frame.child)
        )
        return dur

    def _enclosing(self, name: str):
        for frame in reversed(self._stack()):
            if frame.name == name:
                return frame
        return None

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                counter(frame, out, *args, **kwargs)
            return out

        return traced

    def _wrap_map_chunks(self, fn):
        rng_mod = importlib.import_module("tailfields.rng")

        @functools.wraps(fn)
        def traced(work, n_total, chunk, rng, threads=1):
            n_chunks = len(rng_mod.chunk_sizes(n_total, chunk))
            eff_threads = threads if threads > 1 and n_chunks > 1 else 1

            def timed(*a):
                t0 = time.perf_counter()
                try:
                    return work(*a)
                finally:
                    self._add("rng.map_chunks.busy_s", time.perf_counter() - t0)

            frame = self._enter("rng.map_chunks")
            outer, self._pool_frame = self._pool_frame, frame
            try:
                return fn(timed, n_total, chunk, rng, threads)
            finally:
                self._pool_frame = outer
                dur = self._exit(frame)
                self._add("rng.map_chunks.chunks", n_chunks)
                self._add("rng.map_chunks.thread_s", dur * eff_threads)

        return traced

    # -- counters, named after the span they belong to ----------------------------

    def _count_simulate_field_batch(self, frame, out, spec, window, count, gen):
        models = importlib.import_module("tailfields.models")
        r = models.stencil_radius(spec)
        noise_sites = math.prod(s + 2 * r for s in window.shape)
        self._add("simulate.field_batch.fields", count)
        self._add("simulate.field_batch.sites", count * window.cardinality)
        self._add("simulate.field_batch.bytes_computed", count * noise_sites * 8)
        outer = self._enclosing("tailfield.estimate_tail_field")
        if outer is not None:
            outer.inner += 1

    def _count_simulate_conditional_field_batch(self, frame, out, spec, window,
                                                point, u, count, gen):
        self._add("simulate.conditional_field_batch.fields", count)

    def _count_gaussian_brown_resnick_batch(self, frame, out, variogram, window,
                                            count, gen, *a, **kw):
        self._add("gaussian.brown_resnick_batch.reps", count)
        self._add("gaussian.brown_resnick_batch.rows", frame.inner)

    def _count_tailfield_estimate_tail_field(self, frame, out, spec, lags,
                                             n_replicates, rng, *a, chunk=4096,
                                             **kw):
        # 4096 is estimate_tail_field's own default; every field_batch call
        # past one per chunk regenerates a chunk
        n_chunks = math.ceil(n_replicates / chunk)
        self._add("tailfield.estimate_tail_field.fields", n_replicates)
        self._add("tailfield.estimate_tail_field.retained", len(out))
        self._add("tailfield.estimate_tail_field.regen_chunks", frame.inner - n_chunks)

    def _count_tailfield_rs_transform(self, frame, out, *a, **kw):
        self._add("tailfield.rs_transform.calls", 1)

    def _count_extremal_theta_classical_empirical(self, frame, out, spec, n, tau,
                                                  n_replicates, *a, **kw):
        self._add("extremal.theta_classical_empirical.reps", n_replicates)

    def _count_extremal_theta_run_empirical(self, frame, out, *a, **kw):
        self._add("extremal.theta_run_empirical.events", out.n)

    def _count_cluster_cluster_process_extract(self, frame, out, *a, **kw):
        self._add("cluster.cluster_process_extract.blocks", len(out))

    def _count_cluster_limit_cluster_laplace_mc(self, frame, out, samples, *a, **kw):
        self._add("cluster.limit_cluster_laplace_mc.samples", len(samples))

    def _wrap_sampler_method(self, name: str, fn):
        counts_rows = name == "gaussian.sampler_draw"

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._exit(frame)
                if counts_rows:
                    rows = args[0] if args else kwargs["count"]
                    self._add("gaussian.sampler_draw.rows", rows)
                    br = self._enclosing("gaussian.brown_resnick_batch")
                    if br is not None:
                        br.inner += rows

        return traced

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module("tailfields." + m) for m in MODULES}
        for (home, fname), span in SPANS.items():
            orig = getattr(mods[home], fname)
            if fname == "map_chunks":
                wrapped = self._wrap_map_chunks(orig)
            else:
                wrapped = self._wrap(span, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        cls = mods["gaussian"].GaussianFieldSampler
        for meth, span in SAMPLER_SPANS.items():
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap_sampler_method(span, orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches = []

    # -- aggregation ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, _tid, _parent, _dur, self_s in self.spans:
            out[name] += self_s
        return dict(out)

    def durations(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, _tid, _parent, dur, _self in self.spans:
            out[name] += dur
        return dict(out)
