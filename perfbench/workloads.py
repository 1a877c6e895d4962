"""The benchmark's workloads: the CLI commands of one op and their oracles.

An op is a fixed list of ``tailfields`` commands run with one op seed.
Each workload names the commands, the headline standard error behind
``time_to_se_s`` and an oracle that checks every command's output against
an exact value.  WORKLOADS.md says why each workload was chosen.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Oracle band in standard errors.  Every op checks up to five estimates and a
# full set of benchmark runs makes a few thousand such checks; at 4 se a
# correct program would fail one of them about once per set, at 5 se about
# once per thousand sets.
Z_BAND = 5.0
# The change-of-time campaign passes a check when its statistic is within
# max(3 se, 0.01); at 4e5 replicates the statistic sits about 1 se from 0
# (finite-threshold bias), so the campaign alone fails a few seeds in a
# thousand.  The oracle re-judges a failed check at Z_BAND / 3 of its band.
CAMPAIGN_REJUDGE = {"change-of-time": Z_BAND / 3.0}

# Exact indices of the max-moving average with a = (0.1, 0.7, 0.6, 0.1):
# the classical index and the run index at each corner.
MMA_EXACT = {
    ("classical", ""): Fraction(2, 5),
    ("run", "00"): Fraction(16, 25),
    ("run", "11"): Fraction(11, 25),
    ("run", "01"): Fraction(2, 5),
    ("run", "10"): Fraction(3, 5),
}

# Flags whose values are the replicates an op requests.
REPLICATE_FLAGS = ("--replicates", "--n-mc", "--fields")


@dataclass
class CmdResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    wall: float


def exit_ok(result: CmdResult) -> bool:
    """Exit 0, or a verify campaign's FAIL verdict (1), which the oracle judges."""
    return result.code == 0 or (result.code == 1 and result.argv[0] == "verify")


def rows(result: CmdResult) -> list[dict]:
    return list(csv.DictReader(io.StringIO(result.stdout)))


def verify_rows(result: CmdResult) -> list[dict]:
    """Rows of a verify campaign.  Check ids such as ``shift(1, 0)-one`` hold
    unquoted commas, so the columns after ``check`` are taken from the right."""
    lines = result.stdout.splitlines()
    header = lines[0].split(",")
    tail = len(header) - 2  # columns after campaign and check
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        out.append(dict(zip(header, [parts[0], ",".join(parts[1:-tail])] + parts[-tail:])))
    return out


def within(estimate: float, exact: float, se: float) -> bool:
    return math.isfinite(estimate) and se > 0 and abs(estimate - exact) <= Z_BAND * se


def br_tail_cdf_exact(gamma: float, y: float) -> float:
    """P(Y(t) <= y) for the Brown-Resnick tail field, variogram value gamma > 0."""
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    sg, ly = math.sqrt(gamma), math.log(y)
    return phi((2 * ly + gamma) / (2 * sg)) - phi((2 * ly - gamma) / (2 * sg)) / y


# -- oracles: each returns a list of failure messages ---------------------------

def check_mma_index(results: list[CmdResult]) -> list[str]:
    (res,) = results
    out = []
    seen = set()
    for r in rows(res):
        key = (r["method"], r["corner"])
        exact = MMA_EXACT.get(key)
        if exact is None:
            out.append(f"unexpected row {key}")
            continue
        seen.add(key)
        theta, se = float(r["theta"]), float(r["se"])
        if not within(theta, float(exact), se):
            out.append(f"{key}: theta {theta} vs exact {float(exact)}, se {se}")
    if seen != set(MMA_EXACT):
        out.append(f"missing rows {sorted(set(MMA_EXACT) - seen)}")
    return out


def check_brown_resnick(results: list[CmdResult]) -> list[str]:
    fig1, tailcdf, tailfield = results
    out = []
    grid = rows(fig1)
    if len(grid) != 4 or not all(0.0 < float(r["theta_b"]) <= 1.0 for r in grid):
        out.append("br-fig1: need four block indices in (0, 1]")
    cdf = rows(tailcdf)
    if len(cdf) != 2:
        out.append("br-tailcdf: need two rows")
    for r in cdf:
        exact = br_tail_cdf_exact(float(r["gamma"]), float(r["y"]))
        if abs(float(r["cdf_exact"]) - exact) > 1e-12:
            out.append(f"br-tailcdf y={r['y']}: cdf_exact {r['cdf_exact']} vs {exact}")
        if not within(float(r["cdf_mc"]), exact, float(r["mc_se"])):
            out.append(f"br-tailcdf y={r['y']}: cdf_mc {r['cdf_mc']} vs {exact}, "
                       f"se {r['mc_se']}")
    draws = rows(tailfield)
    if not draws:
        out.append("tailfield: no rows")
    for r in draws:
        root = float(r["root_norm"])
        if not (root > 1.0 and float(r["lag_0_0"]) == root):
            out.append(f"tailfield: root_norm {root} must exceed 1 and equal lag_0_0")
            break
    return out


def check_tail_cluster(results: list[CmdResult]) -> list[str]:
    laplace, *campaigns = results
    out = []
    by_fn = {r["function"]: r for r in rows(laplace)}
    if set(by_fn) != {"zero", "step-1", "step-2", "ramp-1-2", "ramp-05-1"}:
        out.append(f"cluster-laplace: functions {sorted(by_fn)}")
    zero = by_fn.get("zero", {})
    if zero.get("empirical") != "1.0" or zero.get("limit") != "1.0":
        out.append(f"cluster-laplace: zero row {zero} is not exactly 1.0")
    for res in campaigns:
        checks = verify_rows(res)
        if not checks:
            out.append(f"{res.argv[1]}: no checks")
        for r in checks:
            if r["verdict"] == "pass":
                continue
            scale = CAMPAIGN_REJUDGE.get(r["campaign"])
            if scale is None or float(r["statistic"]) > scale * float(r["threshold"]):
                out.append(f"{r['campaign']} {r['check']}: {r['statistic']} "
                           f"vs threshold {r['threshold']}")
    return out


# -- headline standard errors ----------------------------------------------------

def se_mma_index(results: list[CmdResult]) -> float:
    return next(float(r["se"]) for r in rows(results[0]) if r["method"] == "classical")


def se_brown_resnick(results: list[CmdResult]) -> float:
    return next(float(r["mc_se"]) for r in rows(results[1]) if float(r["y"]) == 1.0)


def se_tail_cluster(results: list[CmdResult]) -> float:
    return next(float(r["limit_se"]) for r in rows(results[0])
                if r["function"] == "step-2")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    threads: int  # the --threads value of the commands that take it
    check: Callable[[list[CmdResult]], list[str]]
    headline_se: Callable[[list[CmdResult]], float]
    se_target: float  # the precision time_to_se_s is quoted at

    def argvs(self, op_seed: int) -> list[list[str]]:
        return [list(c) + ["--seed", str(op_seed)] for c in self.commands]

    @property
    def replicates(self) -> int:
        """Replicates requested per op: the sum of the replicate flags."""
        total = 0
        for cmd in self.commands:
            for flag, value in zip(cmd, cmd[1:]):
                if flag in REPLICATE_FLAGS:
                    total += int(value)
        return total


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mma-index",
            commands=(
                ("mma-empirical", "--n", "200,200", "--r", "20,20", "--tau", "1",
                 "--replicates", "400", "--threads", "1"),
            ),
            threads=1,
            check=check_mma_index,
            headline_se=se_mma_index,
            se_target=0.01,
        ),
        Workload(
            name="brown-resnick",
            commands=(
                ("br-fig1", "--hurst-grid", "0.25,0.75", "--trunc-m", "50",
                 "--n-mc", "250", "--threads", "1"),
                ("br-tailcdf", "--hurst", "0.5,0.5", "--point", "2,2",
                 "--y", "1.0,2.0", "--n-mc", "25000"),
                ("tailfield", "--model", "br-fbm", "--lag-radius", "1", "--q", "0.99",
                 "--replicates", "6000"),
            ),
            threads=1,
            check=check_brown_resnick,
            headline_se=se_brown_resnick,
            se_target=0.001,
        ),
        Workload(
            name="tail-cluster",
            commands=(
                ("cluster-laplace", "--n", "200,200", "--r", "20,20", "--fields", "40",
                 "--lag-radius", "5", "--q", "0.995", "--replicates", "25000"),
                ("verify", "change-of-time", "--replicates", "50000"),
                ("verify", "rs-invariance", "--replicates", "50000"),
            ),
            threads=1,
            check=check_tail_cluster,
            headline_se=se_tail_cluster,
            se_target=0.02,
        ),
    )
}
