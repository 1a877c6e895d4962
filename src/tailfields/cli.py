"""Command-line entry point.

Subcommands: mma-theta, mma-empirical, br-theta, br-fig1, br-tailcdf,
tailfield, cluster-laplace, counterexample, verify.  Every command is a
pure function of its flags and --seed; outputs are byte-identical across
re-runs at any --threads value.  TAILFIELDS_THREADS sets the default
worker count; BLAS runs on one thread per worker.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .cluster import (
    cluster_process_extract,
    empirical_cluster_laplace,
    limit_cluster_laplace_mc,
)
from .extremal import (
    ALL_CORNERS,
    IndexReport,
    br_theta_block_mc,
    level_u,
    mixture_theta,
    mma_index_table,
    theta_classical_empirical,
    theta_run_empirical,
)
from .io import write_records, write_table
from .lattice import InvariantOrder, centered_box, pos_block
from .models import (
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
    model_digest,
    model_from_config,
)
from .rng import RngStream, single_threaded_blas
from .simulate import field_batch
from .tailfield import (
    br_tail_fdd_mc,
    br_tail_marginal_cdf,
    estimate_tail_field,
    samples_to_rows,
    spectral_from_tail,
)
from .testfuncs import POINT_CATALOG, ZERO
from .verify import (
    PARETO_ROOT_Q,
    run_change_of_time_check,
    run_counterexample_check,
    run_pareto_root_check,
    run_rs_invariance_check,
)

BASE_COLUMNS = ["seed", "model", "version"]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _positive_int(text: str) -> int:
    """argparse type of the count flags: a zero count has nothing to estimate."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


NAMED_MODELS = {
    "iid": lambda: IIDFrechet(1.0),
    "mma-default": lambda: MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1)),
    "mma2": lambda: MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1)),
    "mixture": lambda: Mixture(
        components=(
            (0.5, MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1))),
            (0.5, MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1))),
        )
    ),
    "br-fbm": lambda: BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5))),
    "counterexample": lambda: CounterexampleField(alpha=1.0),
}


def resolve_model(args) -> object:
    if getattr(args, "model_json", None):
        with open(args.model_json) as fh:
            return model_from_config(json.load(fh))
    name = getattr(args, "model", None) or "mma-default"
    if name not in NAMED_MODELS:
        _unknown_model(name)
        raise SystemExit(2)
    return NAMED_MODELS[name]()


def _unknown_model(name) -> None:
    print(f"unknown model {name!r}; one of {sorted(NAMED_MODELS)}", file=sys.stderr)


def _base(args, spec) -> dict:
    return {
        "seed": args.seed,
        "model": model_digest(spec) if spec is not None else "",
        "version": __version__,
    }


# -- commands -----------------------------------------------------------------

INDEX_COLUMNS = ["method", "corner", "theta", "se", "tau", "u", "r", "n"] + BASE_COLUMNS


def _mma_weights(args):
    a = _parse_floats(args.a)
    if len(a) != 4 or any(not 0.0 <= w <= 1.0 for w in a):
        print(f"invalid weights {args.a}: need four values in [0,1]", file=sys.stderr)
        raise SystemExit(2)
    return a


def cmd_mma_theta(args) -> int:
    a = _mma_weights(args)
    spec = MaxMovingAverage(a=a)
    base = _base(args, spec)
    records = []
    table = mma_index_table(a)
    records.append(
        {"method": "closed-classical", "corner": "", "theta": float(table["classical"]),
         "se": 0.0, "tau": "", "u": "", "r": "", "n": "", **base}
    )
    for c in ALL_CORNERS:
        records.append(
            {"method": "closed-run", "corner": "".join(map(str, c)),
             "theta": float(table[c]), "se": 0.0, "tau": "", "u": "", "r": "", "n": "",
             **base}
        )
    if args.mixture_a:
        a2 = _parse_floats(args.mixture_a)
        mt = mixture_theta([(0.5, a), (0.5, a2)])
        records.append(
            {"method": "closed-mixture-classical", "corner": "",
             "theta": float(mt["classical"]), "se": 0.0, "tau": "", "u": "", "r": "",
             "n": "", **base}
        )
        for c in ALL_CORNERS:
            records.append(
                {"method": "closed-mixture-run", "corner": "".join(map(str, c)),
                 "theta": float(mt[c]), "se": 0.0, "tau": "", "u": "", "r": "", "n": "",
                 **base}
            )
    if args.empirical:
        records.extend(_empirical_records(args, spec))
    write_records(records, INDEX_COLUMNS, args.out, args.format)
    return 0


def _empirical_records(args, spec) -> list[dict]:
    rng = RngStream(args.seed)
    n = _parse_ints(args.n)
    r = _parse_ints(args.r)
    u = level_u(spec, n, args.tau)
    report = IndexReport(model=spec, tau=args.tau, u=u, n=n, r=r, seed=args.seed)
    report.theta_classical = theta_classical_empirical(
        spec, n, args.tau, args.replicates, rng.lane(1), threads=args.threads
    )
    for i, corner in enumerate(ALL_CORNERS):
        report.theta_run[corner] = theta_run_empirical(
            spec, corner, r, n, args.tau, args.replicates, rng.lane(2 + i),
            threads=args.threads,
        )
    recs = report.records()
    for rec in recs:
        rec["version"] = __version__
    return recs


def cmd_mma_empirical(args) -> int:
    a = _mma_weights(args)
    spec = MaxMovingAverage(a=a)
    records = _empirical_records(args, spec)
    write_records(records, INDEX_COLUMNS, args.out, args.format)
    return 0


BR_COLUMNS = ["h1", "h2", "trunc_m", "n_mc", "theta_b", "se"] + BASE_COLUMNS


def cmd_br_theta(args) -> int:
    hurst = _parse_floats(args.hurst)
    spec = BrownResnick(variogram=AdditiveFBM(hurst=hurst))
    order = InvariantOrder(dim=len(hurst))
    est = br_theta_block_mc(
        AdditiveFBM(hurst=hurst), args.trunc_m, order, args.n_mc,
        RngStream(args.seed), threads=args.threads,
    )
    rec = {"h1": hurst[0], "h2": hurst[1] if len(hurst) > 1 else "",
           "trunc_m": args.trunc_m, "n_mc": args.n_mc,
           "theta_b": est.value, "se": est.se, **_base(args, spec)}
    write_records([rec], BR_COLUMNS, args.out, args.format)
    return 0


def cmd_br_fig1(args) -> int:
    grid = _parse_floats(args.hurst_grid)
    rng = RngStream(args.seed)
    records = []
    lane = 0
    for h1 in grid:
        for h2 in grid:
            spec = BrownResnick(variogram=AdditiveFBM(hurst=(h1, h2)))
            est = br_theta_block_mc(
                AdditiveFBM(hurst=(h1, h2)), args.trunc_m, InvariantOrder(dim=2),
                args.n_mc, rng.lane(lane), threads=args.threads,
            )
            lane += 1
            records.append(
                {"h1": h1, "h2": h2, "trunc_m": args.trunc_m, "n_mc": args.n_mc,
                 "theta_b": est.value, "se": est.se, **_base(args, spec)}
            )
    write_records(records, BR_COLUMNS, args.out, args.format)
    return 0


TAILCDF_COLUMNS = ["point", "gamma", "y", "cdf_exact", "cdf_mc", "mc_se"] + BASE_COLUMNS


def cmd_br_tailcdf(args) -> int:
    hurst = _parse_floats(args.hurst)
    vg = AdditiveFBM(hurst=hurst)
    spec = BrownResnick(variogram=vg)
    point = _parse_ints(args.point)
    rng = RngStream(args.seed)
    records = []
    for i, y in enumerate(_parse_floats(args.y)):
        gamma = vg.gamma(point)
        exact = br_tail_marginal_cdf(gamma, y)
        mc = br_tail_fdd_mc([point], [y], vg, args.n_mc, rng.lane(i))
        records.append(
            {"point": "x".join(map(str, point)), "gamma": gamma, "y": y,
             "cdf_exact": exact, "cdf_mc": mc.value, "mc_se": mc.se,
             **_base(args, spec)}
        )
    write_records(records, TAILCDF_COLUMNS, args.out, args.format)
    return 0


def cmd_tailfield(args) -> int:
    spec = resolve_model(args)
    dim = spec.dim or 2
    lags = centered_box(args.lag_radius, dim)
    samples = estimate_tail_field(
        spec, lags, args.replicates, RngStream(args.seed), q=args.q,
        min_retained=args.min_retained, threads=args.threads,
    )
    if args.spectral:
        samples = spectral_from_tail(samples)
    header, rows = samples_to_rows(samples)
    write_table(header, rows, args.out)
    return 0


LAPLACE_COLUMNS = ["function", "empirical", "empirical_se", "limit", "limit_se"] + BASE_COLUMNS


def cmd_cluster_laplace(args) -> int:
    spec = resolve_model(args)
    alpha = spec.alpha
    dim = spec.dim or 2
    rng = RngStream(args.seed)
    n = _parse_ints(args.n)
    r = _parse_ints(args.r)
    if min(r) < 1:
        raise ValueError(f"block size --r must be positive, got {args.r}")
    u = level_u(spec, n, args.tau)
    # The blocks of all fields are filled in place and freed before the tail
    # field is simulated, so the two never occupy memory at the same time.
    per_field = math.prod(n) // math.prod(r)
    atoms = np.empty((args.fields * per_field, math.prod(r)))
    for i in range(args.fields):
        field = field_batch(spec, pos_block(n), 1, rng.lane(1).substream(i).generator())
        atoms[i * per_field : (i + 1) * per_field] = cluster_process_extract(field[0], r, u)
    functions = (ZERO,) + POINT_CATALOG
    empirical = [empirical_cluster_laplace(atoms, f) for f in functions]
    del atoms
    spectral = spectral_from_tail(
        estimate_tail_field(
            spec, centered_box(args.lag_radius, dim), args.replicates, rng.lane(2),
            q=args.q, threads=args.threads,
        )
    )
    order = InvariantOrder(dim=dim)
    records = []
    for f, emp in zip(functions, empirical):
        lim = limit_cluster_laplace_mc(spectral, f, alpha, order)
        records.append(
            {"function": f.fid, "empirical": emp.value, "empirical_se": emp.se,
             "limit": lim.value, "limit_se": lim.se, **_base(args, spec)}
        )
    write_records(records, LAPLACE_COLUMNS, args.out, args.format)
    return 0


CE_COLUMNS = ["rank", "parity", "estimate", "se", "exact"] + BASE_COLUMNS


def cmd_counterexample(args) -> int:
    from .verify import counterexample_exact_box_prob, counterexample_scaled_box_prob

    rng = RngStream(args.seed)
    records = []
    for i, rank in enumerate(_parse_ints(args.ranks)):
        est, se = counterexample_scaled_box_prob(
            args.alpha, rank, args.n_per_rank, rng.lane(i)
        )
        records.append(
            {"rank": rank, "parity": "odd" if rank % 2 else "even",
             "estimate": est, "se": se,
             "exact": counterexample_exact_box_prob(args.alpha, rank),
             "seed": args.seed, "model": f"counterexample-a{args.alpha}",
             "version": __version__}
        )
    write_records(records, CE_COLUMNS, args.out, args.format)
    return 0


VERIFY_COLUMNS = ["campaign", "check", "statistic", "threshold", "verdict", "model", "seed", "version"]


def cmd_verify(args) -> int:
    rng = RngStream(args.seed)
    campaign = args.campaign
    corrupt = args.model == "corrupted"
    model_name = "mma-default" if corrupt else (args.model or "mma-default")
    if campaign != "counterexample" and model_name not in NAMED_MODELS:
        _unknown_model(args.model)
        return 2
    spec = NAMED_MODELS[model_name]() if campaign != "counterexample" else None

    # without --q each campaign keeps its own default level
    opts = {"q": args.q} if args.q is not None else {}
    if args.replicates is not None:
        opts["n_replicates"] = args.replicates
    if campaign == "pareto-root":
        if args.replicates is not None:
            # keep the retention requirement feasible for reduced runs
            q = opts.get("q", PARETO_ROOT_Q)
            opts["min_retained"] = min(5000, int(args.replicates * (1 - q) / 2))
        run = run_pareto_root_check(spec, rng, **opts)
    elif campaign == "change-of-time":
        run = run_change_of_time_check(spec, rng, **opts)
    elif campaign == "rs-invariance":
        run = run_rs_invariance_check(spec, rng, corrupt=corrupt, **opts)
    elif campaign == "counterexample":
        run = run_counterexample_check(args.alpha, rng)
    else:
        print(f"unknown campaign {campaign!r}", file=sys.stderr)
        return 2

    records = [
        {"campaign": run.name, "model": run.model, "check": c.check_id,
         "statistic": c.statistic, "threshold": c.threshold,
         "verdict": "pass" if c.passed else "fail",
         "seed": args.seed, "version": __version__}
        for c in run.checks
    ]
    write_records(records, VERIFY_COLUMNS, args.out, args.format)
    print(f"{run.name}: {'PASS' if run.passed else 'FAIL'}", file=sys.stderr)
    return 0 if run.passed else 1


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tailfields",
        description="Heavy-tailed lattice fields: simulation, extremal indices, "
        "cluster statistics, and verification campaigns.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument(
            "--threads", type=int,
            default=int(os.environ.get("TAILFIELDS_THREADS", "1")),
        )
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("mma-theta", help="exact index table, optionally with MC")
    sp.add_argument("--a", default="0.1,0.7,0.6,0.1")
    sp.add_argument("--mixture-a", default=None)
    sp.add_argument("--empirical", action="store_true")
    sp.add_argument("--n", default="400,400")
    sp.add_argument("--r", default="20,20")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--replicates", type=_positive_int, default=2500)
    common(sp)
    sp.set_defaults(func=cmd_mma_theta)

    sp = sub.add_parser("mma-empirical", help="empirical index report")
    sp.add_argument("--a", default="0.1,0.7,0.6,0.1")
    sp.add_argument("--n", default="400,400")
    sp.add_argument("--r", default="20,20")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--replicates", type=_positive_int, default=2500)
    common(sp)
    sp.set_defaults(func=cmd_mma_empirical)

    sp = sub.add_parser("br-theta", help="block index of a Brown-Resnick field")
    sp.add_argument("--hurst", default="0.5,0.5")
    sp.add_argument("--trunc-m", type=_positive_int, default=50)
    sp.add_argument("--n-mc", type=_positive_int, default=10000)
    common(sp)
    sp.set_defaults(func=cmd_br_theta)

    sp = sub.add_parser("br-fig1", help="block index over a Hurst grid")
    sp.add_argument("--hurst-grid", default="0.25,0.5,0.75")
    sp.add_argument("--trunc-m", type=_positive_int, default=50)
    sp.add_argument("--n-mc", type=_positive_int, default=4000)
    common(sp)
    sp.set_defaults(func=cmd_br_fig1)

    sp = sub.add_parser("br-tailcdf", help="tail-field CDF, closed form vs MC")
    sp.add_argument("--hurst", default="0.5,0.5")
    sp.add_argument("--point", default="2,2")
    sp.add_argument("--y", default="1.0,2.0")
    sp.add_argument("--n-mc", type=_positive_int, default=100000)
    common(sp)
    sp.set_defaults(func=cmd_br_tailcdf)

    sp = sub.add_parser("tailfield", help="columnar batch of tail-field draws")
    sp.add_argument("--model", default="mma-default", help=f"one of {sorted(NAMED_MODELS)}")
    sp.add_argument("--model-json", default=None)
    sp.add_argument("--lag-radius", type=int, default=4)
    sp.add_argument("--q", type=float, default=0.999)
    sp.add_argument("--replicates", type=_positive_int, default=200000)
    sp.add_argument("--min-retained", type=int, default=50)
    sp.add_argument("--spectral", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_tailfield)

    sp = sub.add_parser("cluster-laplace", help="empirical vs limiting Laplace functional")
    sp.add_argument("--model", default="mma-default")
    sp.add_argument("--model-json", default=None)
    sp.add_argument("--n", default="200,200")
    sp.add_argument("--r", default="20,20")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--fields", type=_positive_int, default=500)
    sp.add_argument("--lag-radius", type=int, default=5)
    sp.add_argument("--q", type=float, default=0.995)
    sp.add_argument("--replicates", type=_positive_int, default=400000)
    common(sp)
    sp.set_defaults(func=cmd_cluster_laplace)

    sp = sub.add_parser("counterexample", help="scaled box probabilities by rank")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--ranks", default="9,10,13,14,19,20")
    sp.add_argument("--n-per-rank", type=_positive_int, default=200000)
    common(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("verify", help="run a named verification campaign")
    sp.add_argument(
        "campaign",
        choices=("pareto-root", "change-of-time", "rs-invariance", "counterexample"),
    )
    sp.add_argument("--model", default="mma-default",
                    help=f"one of {sorted(NAMED_MODELS)} or 'corrupted'")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=None,
                    help="exceedance level (default: the campaign's own)")
    sp.add_argument("--replicates", type=_positive_int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with single_threaded_blas():
            return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
