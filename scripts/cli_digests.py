#!/usr/bin/env python3
"""SHA-256 digests of the output of a fixed list of reduced-size CLI commands.

Each command runs in-process through ``tailfields.cli.main`` with ``--out``
to a temporary file; one line ``<sha256>  <argv>`` is printed per command.
Run it on two checkouts and diff the outputs to show that a change keeps
the CLI output byte-identical:

    PYTHONPATH=src python scripts/cli_digests.py > digests.txt

The 32 commands cover every subcommand, all four ``verify`` campaigns plus
the corrupted negative control (``pareto-root`` also on IID noise and on
``stencil-1d.json``, so that the tags of all three stencil config formats
are in the output), ``tailfield`` on every route (IID,
max-moving-average and Brown-Resnick roots drawn from their law and rows
drawn given their roots, one Brown-Resnick run on an 81-site window;
mixture roots and rows from the component picked per replicate;
counterexample fields built), three ``--threads 2`` runs, one
``--format json`` run, the counterexample command at a non-default alpha,
the exact-index command on three more models (``mma2``, ``mixture`` and a
mixture of unequal classical indices read from ``mixture-unequal.json``),
one empirical-index run on the 1-D stencil of ``stencil-1d.json`` and
one on the max-moving average at alpha = 1.5 of ``mma-alpha15.json``, and
one ``br-theta`` at a paper-scale truncation (``--trunc-m 200``).  The
``mma-empirical`` run rows are drawn from the law of the block's maximum
off its corner, and the classical rows from the law of the block's
maximum; neither builds a field.  The
config paths print relative to the repository root.  The whole list
takes a few seconds on one core.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from tailfields.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))

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


def main() -> int:
    for argv in COMMANDS:
        print(f"{digest(argv)}  {' '.join(argv).replace(HERE, 'scripts')}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
