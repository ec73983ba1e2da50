"""Command-line surface: configure experiments, run them, emit JSON/CSV/SVG.

Exit codes, from the outcome or the error class that ``execute`` catches:

  0  success
  1  a verdict failed: ``--check`` thresholds, ``fr-check``,
     ``semicircle-check`` (the JSON is still written)
  2  invalid configuration: argparse usage errors and every ValueError
     subclass of ``errors`` (InvalidSizeError, ShapeError, InvalidDataError,
     DomainError, UnsupportedError, DegenerateInputError)
  3  numerical failure: NumericalFailureError (DiscretizationFailureError
     included) and NumericalRangeError, a value beyond double precision
  4  unwritable output: OSError

An exact tie in the superposed spectra of ``fr-check``
(DegenerateInputError) is not resampled and currently reports 2.
"""

import argparse
import datetime as _dt
import json
import math
import os
import sys

import numpy as np
import scipy

from . import __version__, ensembles, fluctuations, kernel, semicircle, spectra, stats
from .ensembles import EnsembleKind, EnsembleSpec, mix_trial_seed
from .errors import (
    InvalidSizeError,
    NumericalFailureError,
    NumericalRangeError,
    UnsupportedError,
)
from .stats import ExperimentPlan, Thresholds

SCHEMA_VERSION = 1

_ENSEMBLE_FLAGS = {
    "goe": EnsembleKind.GOE,
    "gue": EnsembleKind.GUE,
    "gse": EnsembleKind.GSE,
    "wigner-real": EnsembleKind.WIGNER_REAL_MATCHED,
    "wigner-hermitian": EnsembleKind.WIGNER_HERMITIAN_MATCHED,
    "tridiag": EnsembleKind.TRIDIAG_BETA,
}


def _positive_int(flag):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects an integer, got {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be >= 1, got {value}")
        return value

    return parse


def _seed_arg(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seed expects an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"--seed must be >= 0, got {value}")
    return value


def _beta_arg(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--beta expects an integer, got {text!r}")
    if value not in (1, 2, 4):
        raise argparse.ArgumentTypeError(f"--beta must be one of {{1,2,4}}, got {value}")
    return value


def _index_list(flag):
    def parse(text):
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects comma-separated integers, got {text!r}"
            )
        if not values or any(v < 1 for v in values):
            raise argparse.ArgumentTypeError(f"{flag} indices must be >= 1")
        return values

    return parse


def _interval_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"--interval expects 'a,b' (inf allowed), got {text!r}"
        )
    try:
        a = float(parts[0])
        b = float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"--interval endpoints must be numbers, got {text!r}")
    if not a < b:
        raise argparse.ArgumentTypeError(f"--interval needs a < b, got {text!r}")
    return (a, b)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wigner-fluct",
        description="Eigenvalue counting statistics and fluctuation laws of "
        "Gaussian and Wigner random matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials_default=2000):
        p.add_argument("--seed", type=_seed_arg, default=0)
        p.add_argument("--trials", type=_positive_int("--trials"), default=trials_default)
        p.add_argument("--threads", type=_positive_int("--threads"), default=None)
        add_output(p)

    def add_output(p):
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        p.add_argument("--csv", help="write per-trial vectors as CSV")
        p.add_argument("--svg", help="write an SVG histogram of the first coordinate")
        p.add_argument("--per-trial", action="store_true", help="embed per-trial vectors in the JSON")
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("sample", help="draw one matrix and report its spectrum")
    p.add_argument("--ensemble", choices=sorted(_ENSEMBLE_FLAGS), required=True)
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--beta", type=_beta_arg, default=None)
    add_output(p)

    p = sub.add_parser("bulk-fluct", help="bulk eigenvalue fluctuation experiment")
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--k", type=_positive_int("--k"), required=True)
    p.add_argument("--beta", type=_beta_arg, default=None)
    p.add_argument("--ensemble", choices=sorted(_ENSEMBLE_FLAGS), default="tridiag")
    p.add_argument("--check", action="store_true", help="exit 1 unless thresholds hold")
    p.add_argument("--ks-max", type=float, default=0.08)
    p.add_argument("--var-lo", type=float, default=0.8)
    p.add_argument("--var-hi", type=float, default=1.25)
    add_common(p)

    p = sub.add_parser("edge-fluct", help="edge eigenvalue fluctuation experiment")
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--k", type=_positive_int("--k"), required=True,
                   help="offset from the top edge; normalizes eigenvalue n-k")
    p.add_argument("--beta", type=_beta_arg, default=None)
    p.add_argument("--ensemble", choices=sorted(_ENSEMBLE_FLAGS), default="tridiag")
    p.add_argument("--check", action="store_true")
    p.add_argument("--ks-max", type=float, default=0.1)
    p.add_argument("--var-lo", type=float, default=0.75)
    p.add_argument("--var-hi", type=float, default=1.3)
    add_common(p)

    p = sub.add_parser("joint-fluct", help="joint fluctuations of several eigenvalues")
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--k", type=_index_list("--k"), required=True,
                   help="comma-separated indices (bulk) or edge offsets (edge)")
    p.add_argument("--regime", choices=("bulk", "edge"), default="bulk")
    p.add_argument("--beta", type=_beta_arg, default=None)
    p.add_argument("--ensemble", choices=sorted(_ENSEMBLE_FLAGS), default="tridiag")
    p.add_argument("--check", action="store_true")
    p.add_argument("--corr-tol", type=float, default=0.12)
    add_common(p, trials_default=3000)

    p = sub.add_parser("fr-check", help="superposition/decimation identity check")
    p.add_argument("--which", choices=("gue", "gse"), required=True)
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--k", type=_index_list("--k"), default=None,
                   help="indices to compare (default: all)")
    p.add_argument("--p-min", type=float, default=0.01)
    add_common(p, trials_default=5000)

    p = sub.add_parser("kernel", help="counting expectation/variance from the exact Gram matrix")
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--variance", action="store_true", help="also compute the count variance")
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_output(p)

    p = sub.add_parser("cumulants", help="counting-statistic cumulants of the kernel operator")
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--order", type=_positive_int("--order"), default=32)
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_output(p)

    p = sub.add_parser("semicircle-check", help="empirical spectral CDF vs the semicircle law")
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--path", choices=("tridiag", "dense"), default="tridiag")
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_output(p)

    return parser


def parse_args(argv):
    return build_parser().parse_args(argv)


def _blas_build(module):
    """Name and version of the BLAS that numpy or scipy was built with."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # TypeError: a show_config without the mode
        return "unknown"


def _env():
    """Versions that bit-identical results depend on: dense reductions run
    in scipy's LAPACK on its BLAS level-3 kernels, the rest on numpy's."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
    }


def _meta(args, config, thresholds=None):
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "config": config,
        "thresholds": thresholds or {},
        "env": _env(),
    }
    if not getattr(args, "no_timestamp", False):
        meta["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return meta


def _threads(args):
    """--threads, else WIGNER_FLUCT_THREADS under the same rule, else 1."""
    if args.threads:
        return args.threads
    env = os.environ.get("WIGNER_FLUCT_THREADS")
    if not env:
        return 1
    try:
        return _positive_int("WIGNER_FLUCT_THREADS")(env)
    except argparse.ArgumentTypeError as exc:
        raise InvalidSizeError(str(exc)) from None


def _ensemble_spec(name, n, beta):
    """EnsembleSpec from CLI flags; beta=None means 'implied by the kind'."""
    kind = _ENSEMBLE_FLAGS[name]
    if kind is EnsembleKind.TRIDIAG_BETA:
        if beta is None:
            raise UnsupportedError("--beta is required for the tridiag ensemble")
        return EnsembleSpec(kind, n, beta=beta)
    return EnsembleSpec(kind, n, beta=beta or 0)


def _run_fluct(args, plan, title):
    """Run a fluctuation plan and write its JSON, CSV and SVG (titled with
    title and the plan's beta); returns the exit code (1 when --check is
    given and a threshold fails)."""
    result = stats.run_mc(plan, threads=_threads(args))
    payload = {
        "meta": _meta(
            args,
            config={
                "ensemble": plan.ensemble.kind.value,
                "n": plan.ensemble.n,
                "beta": plan.ensemble.beta,
                "regime": plan.index_spec.regime,
                "indices": list(plan.index_spec.indices),
                "trials": plan.trials,
            },
            thresholds=_thresholds_dict(plan.thresholds),
        ),
        "plan": {
            "ensemble": plan.ensemble.kind.value,
            "n": plan.ensemble.n,
            "beta": plan.ensemble.beta,
            "regime": plan.index_spec.regime,
            "indices": list(plan.index_spec.indices),
            "thetas": list(plan.index_spec.thetas),
            "gamma": plan.index_spec.gamma,
            "trials": plan.trials,
            "seed": plan.seed,
        },
        "summary": result.summary,
    }
    if args.per_trial:
        payload["per_trial"] = result.vectors.tolist()
    _write_json(payload, args)
    if args.csv:
        _write_csv(result.vectors, args.csv)
    if args.svg:
        title = f"{title}, beta={plan.ensemble.beta}"
        _svg_histogram(result.vectors[:, 0], args.svg, title, density=_normal_density)
    return 1 if args.check and not result.passed else 0


def _thresholds_dict(th: Thresholds):
    return {k: v for k, v in vars(th).items() if v is not None}


def _write_json(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(vectors, path):
    m = vectors.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"X_{i + 1}" for i in range(m)) + "\n")
        for row in vectors:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _svg_histogram(values, path, title, density):
    """40-bin density histogram of values with the curve density overlaid."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(np.min(values)), float(np.max(values))
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(values, bins=40, range=(lo, hi), density=True)
    width, height = 640, 420
    ml, mr, mt, mb = 55, 15, 30, 40
    plot_w, plot_h = width - ml - mr, height - mt - mb
    ymax = float(max(counts.max(), 0.45)) * 1.1

    def sx(x):
        return ml + (x - lo) / (hi - lo) * plot_w

    def sy(y):
        return mt + plot_h - y / ymax * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for c, (e0, e1) in zip(counts, zip(edges[:-1], edges[1:])):
        if c <= 0:
            continue
        parts.append(
            f'<rect x="{sx(e0):.2f}" y="{sy(c):.2f}" width="{sx(e1) - sx(e0):.2f}" '
            f'height="{sy(0) - sy(c):.2f}" fill="#9ecae1" stroke="#3182bd" stroke-width="0.5"/>'
        )
    xs = np.linspace(lo, hi, 300)
    pts = " ".join(f"{sx(x):.2f},{sy(density(x)):.2f}" for x in xs)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#de2d26" stroke-width="1.5"/>')
    # axes with integer ticks
    parts.append(
        f'<line x1="{ml}" y1="{sy(0):.2f}" x2="{width - mr}" y2="{sy(0):.2f}" stroke="black"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{sy(0):.2f}" stroke="black"/>')
    for tick in range(math.ceil(lo), math.floor(hi) + 1):
        parts.append(
            f'<line x1="{sx(tick):.2f}" y1="{sy(0):.2f}" x2="{sx(tick):.2f}" '
            f'y2="{sy(0) + 4:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(tick):.2f}" y="{sy(0) + 16:.2f}" text-anchor="middle" '
            f'font-size="10">{tick}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _normal_density(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cmd_sample(args):
    spec = _ensemble_spec(args.ensemble, args.n, args.beta)
    sample = ensembles.sample(
        EnsembleSpec(spec.kind, spec.n, seed=args.seed, beta=spec.beta)
    )
    spectrum = spectra.eigenvalues(sample)
    payload = {
        "meta": _meta(args, config={"ensemble": args.ensemble, "n": args.n, "beta": spec.beta}),
        "plan": {"ensemble": args.ensemble, "n": args.n, "beta": spec.beta, "seed": args.seed},
        "summary": {
            "eigenvalues": spectrum.values.tolist(),
            "trace": float(np.sum(spectrum.values)),
        },
    }
    _write_json(payload, args)
    return 0


def _cmd_bulk_edge(args, regime):
    make_spec = fluctuations.bulk_index_spec if regime == "bulk" else fluctuations.edge_index_spec
    index_spec = make_spec((args.k,), args.n)
    th = Thresholds(ks_max=args.ks_max, var_lo=args.var_lo, var_hi=args.var_hi)
    plan = ExperimentPlan(
        ensemble=_ensemble_spec(args.ensemble, args.n, args.beta),
        index_spec=index_spec,
        trials=args.trials,
        seed=args.seed,
        thresholds=th,
    )
    return _run_fluct(args, plan, f"{regime} fluctuation, n={args.n}, k={args.k}")


def _cmd_joint(args):
    if args.regime == "bulk":
        index_spec = fluctuations.bulk_index_spec(args.k, args.n)
    else:
        index_spec = fluctuations.edge_index_spec(args.k, args.n)
    th = Thresholds(corr_tol=args.corr_tol)
    plan = ExperimentPlan(
        ensemble=_ensemble_spec(args.ensemble, args.n, args.beta),
        index_spec=index_spec,
        trials=args.trials,
        seed=args.seed,
        thresholds=th,
    )
    return _run_fluct(args, plan, f"joint {args.regime} fluctuations, n={args.n}")


def fr_check_samples(which, n, trials, seed, threads=1):
    """Per-index samples for the two sides of the superposition/decimation
    identity: returns (decimated, direct) arrays of shape (trials, n).

    Three trial streams, stream s with master seed mix_trial_seed(seed, s):
    1 and 2 the GOE spectra the map merges (2 only for gue), 3 the direct
    GUE or GSE spectra."""

    def spectra_of(stream, sampler, size):
        def solve(t, trial_seed):
            return spectra.eigenvalues(sampler(size, trial_seed)).values

        return stats._map_trials(mix_trial_seed(seed, stream), range(trials), solve, threads)

    if which == "gue":
        goe_a = spectra_of(1, ensembles.sample_goe, n)
        goe_b = spectra_of(2, ensembles.sample_goe, n + 1)
        left = list(map(ensembles.superpose_decimate_even, goe_a, goe_b))
        right = spectra_of(3, ensembles.sample_gue, n)
    else:
        left = list(map(ensembles.gse_from_goe, spectra_of(1, ensembles.sample_goe, 2 * n + 1)))
        right = spectra_of(3, ensembles.sample_gse, n)
    return np.array(left), np.array(right)


def _cmd_fr_check(args):
    n = args.n
    indices = args.k or tuple(range(1, n + 1))
    if any(k > n for k in indices):
        raise UnsupportedError(f"--k indices must be <= n={n}")
    left, right = fr_check_samples(args.which, n, args.trials, args.seed, _threads(args))
    ks = {}
    all_pass = True
    for k in indices:
        d, p = stats.ks_two_sample(left[:, k - 1], right[:, k - 1])
        ks[str(k)] = {"d": d, "ks_p": p, "passed": bool(p > args.p_min)}
        all_pass &= p > args.p_min
    payload = {
        "meta": _meta(
            args,
            config={"which": args.which, "n": n, "indices": list(indices), "trials": args.trials},
            thresholds={"p_min": args.p_min},
        ),
        "plan": {"which": args.which, "n": n, "trials": args.trials, "seed": args.seed},
        "summary": {"ks_p": ks, "passed": bool(all_pass)},
    }
    _write_json(payload, args)
    return 0 if all_pass else 1


def _cmd_kernel(args):
    expected = kernel.expected_count(args.n, args.interval)
    summary = {"expected_count": expected}
    if args.variance:
        summary["variance_count"] = kernel.variance_count(args.n, args.interval)
    payload = {
        "meta": _meta(args, config={"n": args.n, "interval": list(args.interval)}),
        "plan": {"n": args.n, "interval": list(args.interval)},
        "summary": summary,
    }
    _write_json(payload, args)
    return 0


def _cmd_cumulants(args):
    op = kernel.discretize_operator(args.n, args.interval, order=args.order)
    report = kernel.counting_cumulants(op)
    norm3, norm4 = report.normalized()
    payload = {
        "meta": _meta(
            args, config={"n": args.n, "interval": list(args.interval), "order": args.order}
        ),
        "plan": {"n": args.n, "interval": list(args.interval), "order": args.order},
        "summary": {
            "c2": report.c2,
            "c3": report.c3,
            "c4": report.c4,
            "traces": {str(k): v for k, v in report.traces.items()},
            "c3_normalized": norm3,
            "c4_normalized": norm4,
            "nodes": int(op.size),
        },
    }
    _write_json(payload, args)
    return 0


def _cmd_semicircle_check(args):
    n = args.n
    if args.path == "tridiag":
        sample = ensembles.sample_tridiag_beta(n, 1, args.seed)
    else:
        sample = ensembles.sample_goe(n, args.seed)
    values = spectra.eigenvalues(sample).values / math.sqrt(2.0 * n)
    sup = stats.ks_one_sample(np.clip(values, -1.0, 1.0), semicircle.semicircle_cdf)
    passed = sup <= args.threshold
    payload = {
        "meta": _meta(
            args,
            config={"n": n, "path": args.path},
            thresholds={"sup_max": args.threshold},
        ),
        "plan": {"n": n, "path": args.path, "seed": args.seed},
        "summary": {"sup_distance": sup, "passed": bool(passed)},
    }
    _write_json(payload, args)
    if args.svg:
        _svg_histogram(
            values,
            args.svg,
            f"rescaled GOE_{n} spectrum vs semicircle",
            density=lambda x: semicircle.semicircle_density(x, 0.5),
        )
    return 0 if passed else 1


def execute(args):
    """Run a parsed command; returns the process exit code."""
    try:
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "bulk-fluct":
            return _cmd_bulk_edge(args, "bulk")
        if args.command == "edge-fluct":
            return _cmd_bulk_edge(args, "edge")
        if args.command == "joint-fluct":
            return _cmd_joint(args)
        if args.command == "fr-check":
            return _cmd_fr_check(args)
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "cumulants":
            return _cmd_cumulants(args)
        if args.command == "semicircle-check":
            return _cmd_semicircle_check(args)
        raise UnsupportedError(f"unknown command {args.command!r}")
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc} {exc.context}", file=sys.stderr)
        return 3
    except NumericalRangeError as exc:
        print(f"numerical range exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    code = execute(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
