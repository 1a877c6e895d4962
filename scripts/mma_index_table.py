#!/usr/bin/env python3
"""Exact extremal-index table of the diagonal max-moving-average model,
with the equal-weight mixture that separates all five index notions, and
an optional Monte-Carlo cross-check of every closed-form value."""

import argparse
import sys

from tailfields.cli import main as cli_main

REFERENCE_A = "0.1,0.7,0.6,0.1"
SECOND_A = "0.6,0.2,0.6,0.1"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--empirical", action="store_true",
                    help="add MC estimates next to the closed forms "
                         "(about 3 s on one Xeon vCPU)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()
    argv = [
        "mma-theta",
        "--a", REFERENCE_A,
        "--mixture-a", SECOND_A,
        "--seed", str(args.seed),
        "--out", args.out,
    ]
    if args.empirical:
        argv += ["--empirical", "--n", "400,400", "--r", "20,20",
                 "--replicates", "2500"]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
