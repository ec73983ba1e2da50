"""Command-line surface: configure experiments, run them, emit JSON/CSV/SVG.

One of each path:

- a command table: ``build_parser`` adds ``bulk-fluct``, ``edge-fluct`` and
  ``joint-fluct`` from the rows of ``_FLUCT_COMMANDS``, and ``_cmd_fluct``
  runs all three; every integer flag is parsed by ``_int_arg``;
- one dispatch: each subparser names its handler with
  ``set_defaults(run=...)``, and ``execute`` calls it and maps the error
  class to the exit code;
- one payload builder: ``_write_payload`` assembles and writes every
  command's JSON, ``meta`` (config echo, the thresholds that are set, env),
  ``plan`` and ``summary``.

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
import dataclasses
import datetime as _dt
import functools
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


def _int_arg(flag, least=1, choices=None):
    """argparse type of flag: an integer >= least, or one of choices if given."""
    rule = f"one of {{{','.join(map(str, choices))}}}" if choices else f">= {least}"

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects an integer, got {text!r}")
        if (value not in choices) if choices else value < least:
            raise argparse.ArgumentTypeError(f"{flag} must be {rule}, got {value}")
        return value

    return parse


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


# The fluctuation commands, all run by _cmd_fluct.  Per command: help, the
# regime (None: the --regime flag chooses), the --k parser and help, the
# default trial count, the --check help, the threshold flags (their dests
# are Thresholds fields) with defaults, and the SVG title, formatted with
# the parsed flags.
_FLUCT_COMMANDS = {
    "bulk-fluct": (
        "bulk eigenvalue fluctuation experiment", "bulk", _int_arg("--k"), None, 2000,
        "exit 1 unless thresholds hold", {"--ks-max": 0.08, "--var-lo": 0.8, "--var-hi": 1.25},
        "{regime} fluctuation, n={n}, k={k}",
    ),
    "edge-fluct": (
        "edge eigenvalue fluctuation experiment", "edge", _int_arg("--k"),
        "offset from the top edge; normalizes eigenvalue n-k", 2000,
        None, {"--ks-max": 0.1, "--var-lo": 0.75, "--var-hi": 1.3},
        "{regime} fluctuation, n={n}, k={k}",
    ),
    "joint-fluct": (
        "joint fluctuations of several eigenvalues", None, _index_list("--k"),
        "comma-separated indices (bulk) or edge offsets (edge)", 3000,
        None, {"--corr-tol": 0.12},
        "joint {regime} fluctuations, n={n}",
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wigner-fluct",
        description="Eigenvalue counting statistics and fluctuation laws of "
        "Gaussian and Wigner random matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    n_arg, seed_arg = _int_arg("--n"), _int_arg("--seed", least=0)
    beta_arg = _int_arg("--beta", choices=(1, 2, 4))

    def add_common(p, trials_default, run):
        p.add_argument("--seed", type=seed_arg, default=0)
        p.add_argument("--trials", type=_int_arg("--trials"), default=trials_default)
        p.add_argument("--threads", type=_int_arg("--threads"), default=None)
        add_output(p, run)

    def add_output(p, run):
        """The output flags, last in every command, and run as its handler."""
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        p.add_argument("--csv", help="write per-trial vectors as CSV")
        p.add_argument("--svg", help="write an SVG histogram of the first coordinate")
        p.add_argument("--per-trial", action="store_true", help="embed per-trial vectors in the JSON")
        p.add_argument("--no-timestamp", action="store_true")
        p.set_defaults(run=run)

    p = sub.add_parser("sample", help="draw one matrix and report its spectrum")
    p.add_argument("--ensemble", choices=sorted(_ENSEMBLE_FLAGS), required=True)
    p.add_argument("--n", type=n_arg, required=True)
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--beta", type=beta_arg, default=None)
    add_output(p, _cmd_sample)

    for name, row in _FLUCT_COMMANDS.items():
        help_, regime, k_type, k_help, trials, check_help, thresholds, title = row
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=n_arg, required=True)
        p.add_argument("--k", type=k_type, required=True, help=k_help)
        if regime is None:
            p.add_argument("--regime", choices=("bulk", "edge"), default="bulk")
        else:
            p.set_defaults(regime=regime)
        p.add_argument("--beta", type=beta_arg, default=None)
        p.add_argument("--ensemble", choices=sorted(_ENSEMBLE_FLAGS), default="tridiag")
        p.add_argument("--check", action="store_true", help=check_help)
        for flag, default in thresholds.items():
            p.add_argument(flag, type=float, default=default)
        add_common(p, trials, functools.partial(_cmd_fluct, title=title))

    p = sub.add_parser("fr-check", help="superposition/decimation identity check")
    p.add_argument("--which", choices=("gue", "gse"), required=True)
    p.add_argument("--n", type=n_arg, required=True)
    p.add_argument("--k", type=_index_list("--k"), default=None,
                   help="indices to compare (default: all)")
    p.add_argument("--p-min", type=float, default=0.01)
    add_common(p, 5000, _cmd_fr_check)

    p = sub.add_parser("kernel", help="counting expectation/variance from the exact Gram matrix")
    p.add_argument("--n", type=n_arg, required=True)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--variance", action="store_true", help="also compute the count variance")
    p.add_argument("--seed", type=seed_arg, default=0)
    add_output(p, _cmd_kernel)

    p = sub.add_parser("cumulants", help="counting-statistic cumulants of the kernel operator")
    p.add_argument("--n", type=n_arg, required=True)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--order", type=_int_arg("--order"), default=32)
    p.add_argument("--seed", type=seed_arg, default=0)
    add_output(p, _cmd_cumulants)

    p = sub.add_parser("semicircle-check", help="empirical spectral CDF vs the semicircle law")
    p.add_argument("--n", type=n_arg, required=True)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--path", choices=("tridiag", "dense"), default="tridiag")
    p.add_argument("--seed", type=seed_arg, default=0)
    add_output(p, _cmd_semicircle_check)

    return parser


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


def _threads(args):
    """--threads, else WIGNER_FLUCT_THREADS under the same rule, else 1."""
    if args.threads:
        return args.threads
    env = os.environ.get("WIGNER_FLUCT_THREADS")
    if not env:
        return 1
    try:
        return _int_arg("WIGNER_FLUCT_THREADS")(env)
    except argparse.ArgumentTypeError as exc:
        raise InvalidSizeError(str(exc)) from None


def _ensemble_spec(name, n, beta, seed=0):
    """EnsembleSpec from CLI flags; beta=None means 'implied by the kind'."""
    kind = _ENSEMBLE_FLAGS[name]
    if kind is EnsembleKind.TRIDIAG_BETA and beta is None:
        raise UnsupportedError("--beta is required for the tridiag ensemble")
    return EnsembleSpec(kind, n, seed=seed, beta=beta or 0)


def _write_payload(args, config, plan, summary, thresholds=None, per_trial=None):
    """Write a run's JSON to --out or stdout: meta (the config echo, the
    thresholds that are set, env, and a timestamp unless --no-timestamp),
    plan and summary, plus the per_trial vectors when --per-trial is given."""
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": config,
        "thresholds": {k: v for k, v in (thresholds or {}).items() if v is not None},
        "env": _env(),
    }
    if not args.no_timestamp:
        meta["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    payload = {"meta": meta, "plan": plan, "summary": summary}
    if args.per_trial and per_trial is not None:
        payload["per_trial"] = per_trial.tolist()
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
    spec = _ensemble_spec(args.ensemble, args.n, args.beta, args.seed)
    values = spectra.eigenvalues(ensembles.sample(spec)).values
    config = {"ensemble": args.ensemble, "n": args.n, "beta": spec.beta}
    summary = {"eigenvalues": values.tolist(), "trace": float(np.sum(values))}
    _write_payload(args, config, {**config, "seed": args.seed}, summary)
    return 0


def _cmd_fluct(args, title):
    """Run a fluctuation command and write its JSON, CSV and SVG (titled with
    title and the plan's beta); exit code 1 when --check finds a failure."""
    bulk = args.regime == "bulk"
    make_spec = fluctuations.bulk_index_spec if bulk else fluctuations.edge_index_spec
    index_spec = make_spec(args.k if isinstance(args.k, tuple) else (args.k,), args.n)
    th = Thresholds(**{f.name: getattr(args, f.name, None) for f in dataclasses.fields(Thresholds)})
    plan = ExperimentPlan(
        ensemble=_ensemble_spec(args.ensemble, args.n, args.beta),
        index_spec=index_spec,
        trials=args.trials,
        seed=args.seed,
        thresholds=th,
    )
    result = stats.run_mc(plan, threads=_threads(args))
    spec = plan.ensemble
    config = {
        "ensemble": spec.kind.value,
        "n": spec.n,
        "beta": spec.beta,
        "regime": index_spec.regime,
        "indices": list(index_spec.indices),
        "trials": plan.trials,
    }
    plan_echo = {
        **config, "thetas": list(index_spec.thetas), "gamma": index_spec.gamma, "seed": plan.seed
    }
    _write_payload(args, config, plan_echo, result.summary, vars(th), result.vectors)
    if args.csv:
        _write_csv(result.vectors, args.csv)
    if args.svg:
        title = f"{title.format(**vars(args))}, beta={spec.beta}"
        _svg_histogram(result.vectors[:, 0], args.svg, title, density=_normal_density)
    return 1 if args.check and not result.passed else 0


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
    config = {"which": args.which, "n": n, "indices": list(indices), "trials": args.trials}
    plan = {"which": args.which, "n": n, "trials": args.trials, "seed": args.seed}
    summary = {"ks_p": ks, "passed": bool(all_pass)}
    _write_payload(args, config, plan, summary, {"p_min": args.p_min})
    return 0 if all_pass else 1


def _cmd_kernel(args):
    # one Gram factorization serves both moments
    expected, variance = kernel._count_moments(args.n, args.interval, args.variance)
    summary = {"expected_count": expected}
    if args.variance:
        summary["variance_count"] = variance
    config = {"n": args.n, "interval": list(args.interval)}
    _write_payload(args, config, config, summary)
    return 0


def _cmd_cumulants(args):
    op = kernel.discretize_operator(args.n, args.interval, order=args.order)
    report = kernel.counting_cumulants(op)
    norm3, norm4 = report.normalized()
    config = {"n": args.n, "interval": list(args.interval), "order": args.order}
    summary = {
        "c2": report.c2,
        "c3": report.c3,
        "c4": report.c4,
        "traces": {str(k): v for k, v in report.traces.items()},
        "c3_normalized": norm3,
        "c4_normalized": norm4,
        "nodes": int(op.size),
    }
    _write_payload(args, config, config, summary)
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
    config = {"n": n, "path": args.path}
    summary = {"sup_distance": sup, "passed": bool(passed)}
    plan = {**config, "seed": args.seed}
    _write_payload(args, config, plan, summary, {"sup_max": args.threshold})
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
        return args.run(args)
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
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    code = execute(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
