#!/usr/bin/env python3
"""SHA-256 digests of the output of a fixed list of reduced-size CLI commands.

Each command runs in-process through ``tailfields.cli.main`` with ``--out``
to a temporary file; one line ``<sha256>  <argv>`` is printed per command.
Run it on two checkouts and diff the outputs to show that a change keeps
the CLI output byte-identical:

    PYTHONPATH=src python scripts/cli_digests.py > digests.txt

The 42 commands cover every subcommand, all four ``verify`` campaigns plus
the corrupted negative control (``pareto-root`` also on IID noise and on
``stencil-1d.json``, so that the tags of all three stencil config formats
are in the output; ``change-of-time`` also on ``stencil-1d.json``, whose
unit shift is its all-ones shift), ``tailfield`` on every route (IID,
max-moving-average and Brown-Resnick roots drawn from their law and rows
drawn given their roots, one Brown-Resnick run on an 81-site window;
mixture roots and rows from the component picked per replicate;
counterexample fields built), three ``--threads 2`` runs, one
``--format json`` run, the counterexample command at a non-default alpha,
the exact-index command on three more models (``mma2``, ``mixture`` and a
mixture of unequal classical indices read from ``mixture-unequal.json``),
one empirical-index run on the 1-D stencil of ``stencil-1d.json`` and
one on the max-moving average at alpha = 1.5 of ``mma-alpha15.json``, and
one ``br-theta`` at a paper-scale truncation (``--trunc-m 200``).  Five
more reach the mixture and Brown-Resnick samplers that no command above
runs: the empirical indices of the ``mixture`` model (block and run
maxima of the component picked), of ``br-fbm`` (block and run maxima from
built and conditioned fields) and of the Brown-Resnick and
max-moving-average mixture of ``mixture-br.json`` (a component picked
given the exceedance); ``tailfield`` on that mixture; and
``cluster-laplace`` on ``br-fbm``, whose fields are built unconditioned.
Four more run ``cluster-laplace`` on max-linear models, whose clusters
come from a screen of the uniform noise: IID noise at alpha = 2
(``iid-alpha2.json``), the max-moving average at alpha = 1.5, the 1-D
stencil, and ``mma-default`` at ``--tau 20`` on a small window, where
most blocks pass the screen.  The
``mma-empirical`` run rows are drawn from the law of the block's maximum
off its corner, and the classical rows from the law of the block's
maximum; neither builds a field.  The
config paths print relative to the repository root.  The whole list
takes a few seconds on one core.

With ``--contract`` the script prints the byte contract that
``tests/test_byte_contract.py`` checks, ``tests/byte_contract.txt``:

    PYTHONPATH=src python scripts/cli_digests.py --contract > tests/byte_contract.txt

It starts with NumPy's version and the BLAS build, then has the lines
above, then one line per command of each benchmark workload
(``perfbench/workloads.py``, read by path) at op seeds 0-2, whose digest
covers the exit code, stdout and stderr of an in-process run.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

import numpy as np

from tailfields.cli import build_parser
from tailfields.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PATH = os.path.join(os.path.dirname(HERE), "perfbench", "workloads.py")
CONTRACT_SEEDS = (0, 1, 2)
PARSER = build_parser()

COMMANDS = (
    ["mma-theta"],
    ["mma-empirical", "--n", "100,100", "--r", "10,10", "--replicates", "400",
     "--seed", "3", "--threads", "2"],
    ["mma-empirical", "--n", "100,100", "--r", "10,10", "--replicates", "400",
     "--seed", "4"],
    ["br-theta", "--hurst", "0.6,0.4", "--trunc-m", "8", "--n-mc", "400",
     "--seed", "5"],
    ["br-fig1", "--hurst-grid", "0.3,0.7", "--trunc-m", "6", "--n-mc", "300",
     "--seed", "6"],
    ["br-tailcdf", "--point", "2,1", "--y", "0.7,1.0,2.0", "--n-mc", "20000",
     "--seed", "7"],
    ["tailfield", "--lag-radius", "2", "--q", "0.99", "--replicates", "20000",
     "--seed", "8"],
    ["tailfield", "--model", "br-fbm", "--spectral", "--lag-radius", "1", "--q", "0.99",
     "--replicates", "5000", "--seed", "9"],
    ["tailfield", "--model", "iid", "--lag-radius", "2", "--q", "0.99",
     "--replicates", "20000", "--seed", "20"],
    ["tailfield", "--model", "mixture", "--lag-radius", "2", "--q", "0.99",
     "--replicates", "20000", "--seed", "21"],
    ["tailfield", "--model", "counterexample", "--lag-radius", "2", "--q", "0.99",
     "--replicates", "20000", "--seed", "22"],
    ["cluster-laplace", "--n", "40,40", "--r", "20,20", "--fields", "10",
     "--lag-radius", "2", "--q", "0.99", "--replicates", "12000", "--seed", "10"],
    ["counterexample", "--n-per-rank", "20000", "--seed", "11"],
    ["verify", "pareto-root", "--replicates", "50000", "--seed", "12"],
    ["verify", "change-of-time", "--replicates", "50000", "--seed", "13"],
    ["verify", "rs-invariance", "--q", "0.99", "--replicates", "30000", "--seed", "14"],
    ["verify", "rs-invariance", "--model", "corrupted", "--q", "0.99",
     "--replicates", "30000", "--seed", "14"],
    ["verify", "counterexample", "--seed", "15"],
    ["cluster-laplace", "--model", "mixture", "--n", "40,40", "--r", "20,20",
     "--fields", "5", "--lag-radius", "2", "--q", "0.99", "--replicates", "12000",
     "--seed", "16", "--threads", "2"],
    ["mma-empirical", "--n", "60,60", "--r", "6,6", "--replicates", "300",
     "--seed", "17", "--format", "json"],
    ["counterexample", "--alpha", "0.5", "--ranks", "1,2,9", "--n-per-rank", "20000",
     "--seed", "18"],
    ["verify", "counterexample", "--alpha", "2.0", "--seed", "19"],
    ["mma-theta", "--model", "mma2"],
    ["mma-theta", "--model", "mixture"],
    ["tailfield", "--model", "br-fbm", "--lag-radius", "1", "--q", "0.99",
     "--replicates", "6000", "--seed", "23", "--threads", "2"],
    ["mma-theta", "--model", os.path.join(HERE, "mixture-unequal.json")],
    ["mma-empirical", "--model", os.path.join(HERE, "stencil-1d.json"), "--n", "400",
     "--r", "20", "--replicates", "400", "--seed", "26"],
    ["tailfield", "--model", "br-fbm", "--lag-radius", "4", "--q", "0.99",
     "--replicates", "5000", "--seed", "24"],
    ["br-theta", "--hurst", "0.1,0.1", "--trunc-m", "200", "--n-mc", "2000",
     "--seed", "25"],
    ["verify", "pareto-root", "--model", "iid", "--replicates", "50000", "--seed", "27"],
    ["verify", "pareto-root", "--model", os.path.join(HERE, "stencil-1d.json"),
     "--replicates", "50000", "--seed", "27"],
    ["mma-empirical", "--model", os.path.join(HERE, "mma-alpha15.json"), "--n", "100,100",
     "--r", "10,10", "--replicates", "400", "--seed", "28"],
    ["verify", "change-of-time", "--model", os.path.join(HERE, "stencil-1d.json"),
     "--replicates", "50000", "--seed", "29"],
    ["mma-empirical", "--model", "mixture", "--n", "60,60", "--r", "6,6",
     "--replicates", "300", "--seed", "30"],
    ["mma-empirical", "--model", "br-fbm", "--n", "8,8", "--r", "3,3", "--replicates", "60",
     "--seed", "31"],
    ["mma-empirical", "--model", os.path.join(HERE, "mixture-br.json"), "--n", "8,8",
     "--r", "3,3", "--replicates", "60", "--seed", "32"],
    ["tailfield", "--model", os.path.join(HERE, "mixture-br.json"), "--lag-radius", "1",
     "--q", "0.99", "--replicates", "6000", "--seed", "33"],
    ["cluster-laplace", "--model", "br-fbm", "--n", "20,20", "--r", "10,10", "--fields", "4",
     "--lag-radius", "1", "--q", "0.99", "--replicates", "6000", "--seed", "34"],
    ["cluster-laplace", "--model", os.path.join(HERE, "iid-alpha2.json"), "--n", "40,40",
     "--r", "20,20", "--fields", "10", "--lag-radius", "2", "--q", "0.99",
     "--replicates", "12000", "--seed", "35"],
    ["cluster-laplace", "--model", os.path.join(HERE, "mma-alpha15.json"), "--n", "40,40",
     "--r", "20,20", "--fields", "10", "--lag-radius", "2", "--q", "0.99",
     "--replicates", "12000", "--seed", "36"],
    ["cluster-laplace", "--model", os.path.join(HERE, "stencil-1d.json"), "--n", "400",
     "--r", "20", "--fields", "10", "--lag-radius", "2", "--q", "0.99",
     "--replicates", "12000", "--seed", "37"],
    ["cluster-laplace", "--n", "40,40", "--r", "5,5", "--tau", "20", "--fields", "4",
     "--lag-radius", "2", "--q", "0.99", "--replicates", "12000", "--seed", "38"],
)


def digest(argv: list[str]) -> str:
    """SHA-256 of the file that ``argv`` writes through ``--out``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv + ["--out", path])  # a verify FAIL verdict exits 1
        if not os.path.exists(path):
            return f"no output (exit {code})"
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def output_digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of ``argv`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    blob = "\0".join([str(code), out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def takes_threads(argv: list[str]) -> bool:
    """Whether the command of ``argv`` has a ``--threads`` flag."""
    return not PARSER.parse_known_args(argv + ["--threads", "1"])[1]


def with_threads(argv: list[str], threads: int) -> list[str]:
    """``argv`` with its ``--threads`` value, if any, replaced by ``threads``."""
    if "--threads" in argv:
        i = argv.index("--threads")
        argv = argv[:i] + argv[i + 2:]
    return argv + ["--threads", str(threads)]


def build() -> list[str]:
    """The contract's header: the NumPy and BLAS builds, whose LAPACK and
    BLAS calls some output bytes pass through."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# blas {blas.get('name')} {blas.get('version')}"]


def workload_commands() -> list[tuple[str, list[str]]]:
    """(label, argv) of every benchmark workload command at ``CONTRACT_SEEDS``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    spec.loader.exec_module(module)
    return [(name, argv) for name, w in module.WORKLOADS.items()
            for seed in CONTRACT_SEEDS for argv in w.argvs(seed)]


def entries(workloads: bool = True):
    """(text, argv, digest function) of each contract line after the header;
    without ``workloads``, of the ``COMMANDS`` lines only."""
    for argv in COMMANDS:
        yield " ".join(argv).replace(HERE, "scripts"), argv, digest
    for name, argv in workload_commands() if workloads else ():
        yield f"[{name}] {' '.join(argv)}", argv, output_digest


def main() -> int:
    contract = sys.argv[1:] == ["--contract"]
    if contract:
        print("\n".join(build()))
    for text, argv, fn in entries(workloads=contract):
        print(f"{fn(argv)}  {text}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
