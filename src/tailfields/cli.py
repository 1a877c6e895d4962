"""Command-line entry point.

Subcommands: mma-theta, mma-empirical, br-theta, br-fig1, br-tailcdf,
tailfield, cluster-laplace, counterexample, verify.  Each command accepts
only the flags it reads and is a pure function of them; all but the
closed-form mma-theta take --seed.  One flag, --model, picks the model:
a ``NAMED_MODELS`` name first, else the path of a JSON model config.  The
index commands serve any model (the benchmark's workloads fix their mma-
names): mma-theta prints its exact indices, mma-empirical estimates them
at each corner of the --n window's dimension, all at the one level u of
--n and --tau that it prints.
--threads (default 1) is taken by mma-empirical, br-theta, br-fig1,
tailfield and cluster-laplace, whose outputs are byte-identical at any
value; BLAS runs on one thread per worker.  tailfield writes CSV only;
the others take --format.  verify flags go after the campaign name;
``verify --seed pareto-root`` exits 2 saying so.  Rejected input exits
2: a flag the command does not take with argparse's usage message, a
bad value, such as an unknown model or one with no exact indices or
conditional sampler where the command needs them, with one ``error: `` line.
br-theta and br-fig1 print, after theta_b and its se, the truncation
profile from the same draw: theta_b_m4 and theta_b_m2 at max(1, M//4)
and max(1, M//2) for M = --trunc-m, and truncated = 1 when theta_b_m2
exceeds theta_b by more than 2 se, i.e. the index still moves at M.
The parser is built on the first ``main`` call and reused by later ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .cluster import empirical_cluster_laplace, limit_cluster_laplace_mc
from .extremal import (
    br_theta_block_profile,
    level_u,
    theta_classical_empirical,
    theta_run_empirical,
)
from .io import write_records, write_table
from .lattice import InvariantOrder, centered_box, pos_block
from .models import (
    AdditiveFBM,
    BrownResnick,
    CapabilityError,
    CounterexampleField,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
    Model,
    corners,
    model_digest,
    model_from_config,
)
from .rng import RngStream, map_chunks, single_threaded_blas
from .simulate import field_clusters
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
    VerificationRun,
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
    """argparse type of the count flags and --threads: a zero count has
    nothing to estimate, and a run needs a thread."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


MMA_WEIGHTS = {"mma-default": (0.1, 0.7, 0.6, 0.1), "mma2": (0.6, 0.2, 0.6, 0.1)}
NAMED_MODELS = {
    "iid": lambda: IIDFrechet(1.0),
    "mma-default": lambda: MaxMovingAverage(a=MMA_WEIGHTS["mma-default"]),
    "mma2": lambda: MaxMovingAverage(a=MMA_WEIGHTS["mma2"]),
    "mixture": lambda: Mixture(
        components=tuple((0.5, MaxMovingAverage(a=a)) for a in MMA_WEIGHTS.values())
    ),
    "br-fbm": lambda: BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5))),
    "counterexample": lambda: CounterexampleField(alpha=1.0),
}
MODEL_HELP = f"one of {sorted(NAMED_MODELS)}, else the path of a JSON model config"


def resolve_model(value: str) -> Model:
    """The model ``--model`` names: a key of ``NAMED_MODELS``, else the path
    of a JSON config; a ``ValueError`` for neither or a config that does
    not load."""
    if value in NAMED_MODELS:
        return NAMED_MODELS[value]()
    if not os.path.exists(value):
        raise ValueError(f"unknown model {value!r}; {MODEL_HELP}")
    try:
        with open(value) as fh:
            return model_from_config(json.load(fh))
    except (OSError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(
            f"cannot load a model from {value}: {type(exc).__name__}: {exc}"
        ) from None


def _base(args, spec) -> dict:
    # mma-theta is closed-form and takes no --seed; its seed column reads 0
    return {"seed": getattr(args, "seed", 0), "model": model_digest(spec),
            "version": __version__}


# -- commands -----------------------------------------------------------------

INDEX_COLUMNS = ["method", "corner", "theta", "se", "tau", "u", "r", "n"] + BASE_COLUMNS


def _index_rows(prefix: str, estimates: dict, base: dict) -> list[dict]:
    """Rows of (theta, se) pairs keyed by "classical" or a corner; the
    method is the prefix followed by "classical" or "run"."""
    return [{"method": prefix + ("classical" if key == "classical" else "run"),
             "corner": "" if key == "classical" else "".join(map(str, key)),
             "theta": theta, "se": se, **base}
            for key, (theta, se) in estimates.items()]


def cmd_mma_theta(args) -> int:
    spec = resolve_model(args.model)
    exact = {k: (float(v), 0.0) for k, v in spec.exact_indices().items()}
    write_records(_index_rows("closed-", exact, _base(args, spec)), INDEX_COLUMNS,
                  args.out, args.format)
    return 0


def cmd_mma_empirical(args) -> int:
    spec = resolve_model(args.model)
    rng = RngStream(args.seed)
    n = _parse_ints(args.n)
    r = _parse_ints(args.r)
    u = level_u(spec, n, args.tau)
    if any(a >= b for a, b in zip(r, n)):
        raise ValueError("need r < n componentwise")
    base = {"tau": args.tau, "u": u, "r": "x".join(map(str, r)),
            "n": "x".join(map(str, n)), **_base(args, spec)}
    # corner i on lane 2 + i and the classical index on lane 1; the run rows
    # are estimated first, so a model with no conditional sampler fails at once
    runs = {
        corner: theta_run_empirical(spec, corner, r, u, args.replicates,
                                    rng.lane(2 + i), threads=args.threads)
        for i, corner in enumerate(corners(len(n)))
    }
    classical = theta_classical_empirical(
        spec, n, args.tau, args.replicates, rng.lane(1), threads=args.threads
    )
    estimates = {"classical": classical, **{c: runs[c] for c in sorted(runs)}}
    rows = _index_rows("", {k: (e.value, e.se) for k, e in estimates.items()}, base)
    write_records(rows, INDEX_COLUMNS, args.out, args.format)
    return 0


BR_COLUMNS = ["h1", "h2", "trunc_m", "n_mc", "theta_b", "se",
              "theta_b_m4", "theta_b_m2", "truncated"] + BASE_COLUMNS


def _br_block_fields(variogram, order, args, rng) -> dict:
    """The block index at ``--trunc-m`` M with its truncation profile: the
    index at max(1, M//4) and max(1, M//2) from the same draw, and
    ``truncated`` 1 when the M//2 value exceeds the M value by more than
    2 se (the shell between them still carries mass)."""
    m = args.trunc_m
    m4, m2 = max(1, m // 4), max(1, m // 2)
    prof = br_theta_block_profile(variogram, [m4, m2, m], order, args.n_mc, rng,
                                  threads=args.threads)
    est = prof[m]
    return {"trunc_m": m, "n_mc": args.n_mc, "theta_b": est.value, "se": est.se,
            "theta_b_m4": prof[m4].value, "theta_b_m2": prof[m2].value,
            "truncated": int(prof[m2].value - est.value > 2 * est.se)}


def cmd_br_theta(args) -> int:
    hurst = _parse_floats(args.hurst)
    if len(hurst) > 2:
        raise ValueError(f"--hurst takes one or two values, got {args.hurst}")
    spec = BrownResnick(variogram=AdditiveFBM(hurst=hurst))
    fields = _br_block_fields(spec.variogram, InvariantOrder(dim=len(hurst)), args,
                              RngStream(args.seed))
    rec = {"h1": hurst[0], "h2": hurst[1] if len(hurst) > 1 else "", **fields,
           **_base(args, spec)}
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
            fields = _br_block_fields(spec.variogram, InvariantOrder(dim=2), args,
                                      rng.lane(lane))
            lane += 1
            records.append({"h1": h1, "h2": h2, **fields, **_base(args, spec)})
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
    spec = resolve_model(args.model)
    lags = centered_box(args.lag_radius, spec.lattice_dim)
    samples = estimate_tail_field(
        spec, lags, args.replicates, RngStream(args.seed), q=args.q,
        min_retained=args.min_retained, threads=args.threads,
    )
    if args.spectral:
        samples = spectral_from_tail(samples)
    write_table(*samples_to_rows(samples), args.out)
    return 0


LAPLACE_COLUMNS = ["function", "empirical", "empirical_se", "limit", "limit_se"] + BASE_COLUMNS


def cmd_cluster_laplace(args) -> int:
    spec = resolve_model(args.model)
    dim = spec.lattice_dim
    rng = RngStream(args.seed)
    n = _parse_ints(args.n)
    r = _parse_ints(args.r)
    if min(r) < 1:
        raise ValueError(f"block size --r must be positive, got {args.r}")
    u = level_u(spec, n, args.tau)

    def fill(start, count, stream):  # one field per chunk, its clusters only
        return field_clusters(spec, pos_block(n), r, u, stream.generator())

    # in chunk order, so the clusters do not depend on --threads
    clusters = np.concatenate(map_chunks(fill, args.fields, 1, rng.lane(1), args.threads))
    functions = (ZERO,) + POINT_CATALOG
    empirical = [empirical_cluster_laplace(clusters, f) for f in functions]
    spectral = spectral_from_tail(
        estimate_tail_field(
            spec, centered_box(args.lag_radius, dim), args.replicates, rng.lane(2),
            q=args.q, threads=args.threads,
        )
    )
    order = InvariantOrder(dim=dim)
    records = []
    for f, emp in zip(functions, empirical):
        lim = limit_cluster_laplace_mc(spectral, f, order)
        records.append(
            {"function": f.fid, "empirical": emp.value, "empirical_se": emp.se,
             "limit": lim.value, "limit_se": lim.se, **_base(args, spec)}
        )
    write_records(records, LAPLACE_COLUMNS, args.out, args.format)
    return 0


CE_COLUMNS = ["rank", "parity", "estimate", "se", "exact"] + BASE_COLUMNS


def cmd_counterexample(args) -> int:
    spec = CounterexampleField(args.alpha)
    rng = RngStream(args.seed)
    records = []
    for i, rank in enumerate(_parse_ints(args.ranks)):
        est = spec.scaled_box_prob(rank, args.n_per_rank, rng.lane(i))
        records.append(
            {"rank": rank, "parity": "odd" if rank % 2 else "even",
             "estimate": est.value, "se": est.se, "exact": spec.exact_box_prob(rank),
             "seed": args.seed, "model": f"counterexample-a{spec.alpha}",
             "version": __version__}
        )
    write_records(records, CE_COLUMNS, args.out, args.format)
    return 0


VERIFY_COLUMNS = ["campaign", "check", "statistic", "threshold", "verdict", "model", "seed", "version"]


def cmd_verify(args) -> int:
    rng = RngStream(args.seed)
    if args.campaign == "counterexample":
        run = run_counterexample_check(CounterexampleField(args.alpha), rng)
    else:
        run = _tail_campaign(args, rng)
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


def _tail_campaign(args, rng: RngStream) -> VerificationRun:
    """One of the three campaigns on tail-field draws of the ``--model`` model."""
    corrupt = args.campaign == "rs-invariance" and args.model == "corrupted"
    spec = NAMED_MODELS["mma-default"]() if corrupt else resolve_model(args.model)
    # without --q each campaign keeps its own default level
    opts = {"q": args.q} if args.q is not None else {}
    if args.replicates is not None:
        opts["n_replicates"] = args.replicates
    if args.campaign == "pareto-root":
        if args.replicates is not None:
            # keep the retention requirement feasible for reduced runs
            q = opts.get("q", PARETO_ROOT_Q)
            if not 0 < q < 1:  # before it sizes the retention requirement
                raise ValueError("q must lie in (0,1)")
            opts["min_retained"] = min(5000, int(args.replicates * (1 - q) / 2))
        return run_pareto_root_check(spec, rng, **opts)
    if args.campaign == "change-of-time":
        return run_change_of_time_check(spec, rng, **opts)
    return run_rs_invariance_check(spec, rng, corrupt=corrupt, **opts)


# -- parser ---------------------------------------------------------------------

TAIL_CAMPAIGNS = {
    "pareto-root": "KS test of the rescaled root norm against Pareto(alpha)",
    "change-of-time": "both sides of the spectral field's shift identity",
    "rs-invariance": "re-rooting invariance of the spectral law, by per-lag KS",
}
VERIFY_CAMPAIGNS = (*TAIL_CAMPAIGNS, "counterexample")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tailfields",
        description="Heavy-tailed lattice fields: simulation, extremal indices, "
        "cluster statistics, and verification campaigns.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, threads=True, fmt=True, model=None):
        if model:  # the help text of --model
            sp.add_argument("--model", default="mma-default", help=model)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if threads:
            sp.add_argument("--threads", type=_positive_int, default=1)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("mma-theta", help="exact index table of any model that has one")
    common(sp, seed=False, threads=False, model=MODEL_HELP)
    sp.set_defaults(func=cmd_mma_theta)

    sp = sub.add_parser("mma-empirical", help="empirical index report of any model")
    sp.add_argument("--n", default="400,400")
    sp.add_argument("--r", default="20,20")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--replicates", type=_positive_int, default=2500)
    common(sp, model=MODEL_HELP)
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
    common(sp, threads=False)
    sp.set_defaults(func=cmd_br_tailcdf)

    sp = sub.add_parser("tailfield", help="columnar CSV batch of tail-field draws")
    sp.add_argument("--lag-radius", type=int, default=4)
    sp.add_argument("--q", type=float, default=0.999)
    sp.add_argument("--replicates", type=_positive_int, default=200000)
    sp.add_argument("--min-retained", type=int, default=50)
    sp.add_argument("--spectral", action="store_true")
    common(sp, fmt=False, model=MODEL_HELP)
    sp.set_defaults(func=cmd_tailfield)

    sp = sub.add_parser("cluster-laplace", help="empirical vs limiting Laplace functional")
    sp.add_argument("--n", default="200,200")
    sp.add_argument("--r", default="20,20")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--fields", type=_positive_int, default=500)
    sp.add_argument("--lag-radius", type=int, default=5)
    sp.add_argument("--q", type=float, default=0.995)
    sp.add_argument("--replicates", type=_positive_int, default=400000)
    common(sp, model=MODEL_HELP)
    sp.set_defaults(func=cmd_cluster_laplace)

    sp = sub.add_parser("counterexample", help="scaled box probabilities by rank")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--ranks", default="9,10,13,14,19,20")
    sp.add_argument("--n-per-rank", type=_positive_int, default=200000)
    common(sp, threads=False)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser(
        "verify", help="run a named verification campaign; its flags follow the name"
    )
    sp.set_defaults(func=cmd_verify)
    campaigns = sp.add_subparsers(dest="campaign", required=True)
    for name, text in TAIL_CAMPAIGNS.items():
        cp = campaigns.add_parser(name, help=text)
        negative = "; or 'corrupted', the negative control" if name == "rs-invariance" else ""
        cp.add_argument("--q", type=float, default=None,
                        help="exceedance level (default: the campaign's own)")
        cp.add_argument("--replicates", type=_positive_int, default=None)
        common(cp, threads=False, model=MODEL_HELP + negative)
    cp = campaigns.add_parser(
        "counterexample", help="box probabilities of the counterexample pair by rank parity"
    )
    cp.add_argument("--alpha", type=float, default=1.0)
    common(cp, threads=False)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call: it holds no state that
    parsing changes, and ops that call ``main`` several times build it once."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the word after ``verify`` must name the campaign: a flag there, as in
    # ``verify --seed pareto-root``, would otherwise reach the top parser
    word = argv[1] if len(argv) > 1 else None
    if argv[:1] == ["verify"] and word not in (*VERIFY_CAMPAIGNS, "-h", "--help"):
        names = ",".join(VERIFY_CAMPAIGNS)
        print(f"error: verify flags go after the campaign name: verify {{{names}}} [flags]",
              file=sys.stderr)
        return 2
    args = _parser().parse_args(argv)
    try:
        with single_threaded_blas():
            return args.func(args)
    except (ValueError, RuntimeError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
