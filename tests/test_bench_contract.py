"""The benchmark's view of the package, checked against the package.

``perfbench/tracer.py`` rebinds package functions by module and name, binds
their leading arguments by position in its counters and reads ``len()`` of
some results; ``perfbench/run.py`` and ``perfbench/test_checks.py`` call a
few more names.  This loads the tracer by file path (``perfbench`` is not a
package), checks that every name the benchmark reads resolves and that each
counter's parameters line up with its function's, and runs tiny CLI
commands under the tracer to check that the counters it reports move.
"""

import importlib
import importlib.util
import inspect
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tailfields import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """``tailfields.<dotted>``, attribute by attribute after the module."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module("tailfields." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_function_resolves(tracer_module):
    for module, name in tracer_module.SPANS:
        assert callable(resolve(f"{module}.{name}")), (module, name)


# names the benchmark calls besides the traced functions
BENCH_NAMES = (
    "models.stencil_radius",  # tracer: noise sites per field
    "extremal.mma_index_table",  # test_checks: the exact MMA table
    "rng.chunk_sizes",  # tracer: chunks per map_chunks call
    "gaussian.fgn_cholesky.cache_clear",  # run: a cold cache per op
    "gaussian.fgn_cholesky.cache_info",  # run: Cholesky misses
    "gaussian.GaussianFieldSampler.__init__",  # tracer: sampler spans
    "gaussian.GaussianFieldSampler.draw",
)


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_every_name_the_benchmark_calls_resolves(name):
    assert callable(resolve(name))


def positional(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


# a counter may name an argument otherwise than its function does
COUNTER_NAMES = {"samples": "spectral"}  # limit_cluster_laplace_mc


def test_counters_bind_their_functions_arguments_by_position(tracer_module):
    tracer = tracer_module.Tracer
    counted = {"_count_" + span.replace(".", "_"): key
               for key, span in tracer_module.SPANS.items()}
    counters = [name for name in vars(tracer) if name.startswith("_count_")]
    assert counters
    for name in counters:
        module, fn = counted[name]  # every counter belongs to a traced function
        params = positional(resolve(f"{module}.{fn}"))
        wants = positional(getattr(tracer, name))[3:]  # after self, frame and out
        assert len(wants) <= len(params), name
        for want, param in zip(wants, params):
            assert COUNTER_NAMES.get(want, want) == param, (name, want, param)


def test_map_chunks_and_sampler_draw_take_what_the_tracer_passes(tracer_module):
    # the map_chunks wrapper passes its five arguments on by position
    fn = resolve("rng.map_chunks")
    wrapper = tracer_module.Tracer()._wrap_map_chunks(fn)
    passed = list(inspect.signature(wrapper, follow_wrapped=False).parameters)
    assert len(positional(fn)) == len(passed) and positional(fn)[1:] == passed[1:]
    # the draw span reads the row count from the first argument or "count"
    assert positional(resolve("gaussian.GaussianFieldSampler.draw"))[1] == "count"


def test_tail_field_chunk_default_is_the_counters(tracer_module):
    counter = tracer_module.Tracer._count_tailfield_estimate_tail_field
    chunk = inspect.signature(counter).parameters["chunk"].default
    assert chunk == 4096
    estimate = resolve("tailfield.estimate_tail_field")
    assert inspect.signature(estimate).parameters["chunk"].default == chunk


COMMANDS = (
    ["tailfield", "--spectral", "--lag-radius", "1", "--q", "0.99",
     "--replicates", "5000"],
    # Brown-Resnick fields are built and tiled; max-linear ones build only
    # the blocks that can hold a cluster
    ["cluster-laplace", "--model", "br-fbm", "--n", "20,20", "--r", "10,10", "--fields", "2",
     "--lag-radius", "2", "--q", "0.99", "--replicates", "5000"],
    ["verify", "rs-invariance", "--q", "0.99", "--replicates", "5000"],
)


def test_tracer_counts_tail_cluster_work(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for argv in COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 1), argv  # 1: a verify FAIL verdict
    finally:
        tracer.uninstall()
    c = tracer.counts
    assert c["tailfield.estimate_tail_field.retained"] > 0
    assert c["cluster.cluster_process_extract.blocks"] == 2 * 4
    assert c["cluster.limit_cluster_laplace_mc.samples"] > 0
    assert c["tailfield.rs_transform.calls"] == 1  # one call per batch
