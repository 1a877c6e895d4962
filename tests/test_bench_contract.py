"""The benchmark tracer's view of the package, checked against the package.

``perfbench/tracer.py`` rebinds package functions by module and name and
reads ``len()`` of some results.  This loads it by file path (``perfbench``
is not a package), runs tiny CLI commands under it, and checks that every
traced name resolves and that the counters the benchmark reports move.
"""

import importlib
import importlib.util
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


def test_every_traced_function_resolves(tracer_module):
    for module, name in tracer_module.SPANS:
        fn = getattr(importlib.import_module("tailfields." + module), name)
        assert callable(fn), (module, name)


COMMANDS = (
    ["tailfield", "--spectral", "--lag-radius", "1", "--q", "0.99",
     "--replicates", "5000"],
    ["cluster-laplace", "--n", "40,40", "--r", "20,20", "--fields", "2",
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
