"""Command-line surface: configure experiments, run them, emit JSON/CSV/SVG.

One of each path:

- one subcommand skeleton: a helper in ``build_parser`` adds every command
  with ``--n``, its own flags, ``--seed``, ``--trials`` if it draws trials,
  and the output flags (``--out``, the files it writes, ``--no-timestamp``);
  ``_cmd_fluct`` runs the commands of ``_FLUCT_COMMANDS``, the only ones
  with ``--threads``, which ``stats.run_mc`` passes to its trial pool;
- one number parser: ``_number_arg`` reads a flag as an int or a float and
  leaves its domain to a rule of ``errors``, whose message becomes the
  usage error; ``kernel`` checks ``--interval`` as a strictly increasing pair;
- one dispatch: each subparser names its handler with
  ``set_defaults(run=...)``, and ``execute`` calls it and maps the error
  class to the exit code;
- one parser per process: ``main`` parses with the parser that
  ``build_parser`` made on its first call;
- one payload builder: ``_write_payload`` assembles and writes every
  command's JSON: ``meta``, the provenance (schema version, command,
  package version, seed, the thresholds that are set, env), ``plan``, the
  run as resolved, and ``summary``;
- one name per ensemble: ``--ensemble`` takes the values of EnsembleKind,
  and EnsembleSpec decides whether the ensemble needs ``--beta``.

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

from . import __version__, ensembles, errors, fluctuations, kernel, semicircle, spectra, stats
from .ensembles import EnsembleKind, EnsembleSpec, mix_trial_seed
from .errors import NumericalFailureError, NumericalRangeError
from .stats import ExperimentPlan, Thresholds

SCHEMA_VERSION = 2

_positive = functools.partial(errors.integer, least=1)  # the rule of most integer flags


def _number_arg(flag, convert, rule):
    """argparse type of flag: the text read by convert (int or float), returned
    as that plain number once rule(value, flag), a rule of errors, accepts it."""
    noun = "an integer" if convert is int else "a finite number"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects {noun}, got {text!r}")
        try:
            rule(value, flag)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return parse


def _index_list(flag):
    index = _number_arg(flag, int, _positive)

    def parse(text):
        values = tuple(map(index, text.split(",")))
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"{flag} indices must be distinct, got {text!r}")
        return values

    return parse


def _interval_arg(text):
    try:
        return tuple(map(float, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--interval endpoints must be numbers, got {text!r}")


# The fluctuation commands, all run by _cmd_fluct.  Per command: help, the
# regime (None: the --regime flag chooses), the --k parser and help, the
# default trial count, the threshold flags (their dests are Thresholds
# fields) with defaults, and the SVG title, formatted with the parsed flags.
_FLUCT_COMMANDS = {
    "bulk-fluct": (
        "bulk eigenvalue fluctuation experiment", "bulk", _number_arg("--k", int, _positive),
        None, 2000, {"--ks-max": 0.08, "--var-lo": 0.8, "--var-hi": 1.25},
        "{regime} fluctuation, n={n}, k={k}",
    ),
    "edge-fluct": (
        "edge eigenvalue fluctuation experiment", "edge", _number_arg("--k", int, _positive),
        "offset from the top edge; normalizes eigenvalue n-k", 2000,
        {"--ks-max": 0.1, "--var-lo": 0.75, "--var-hi": 1.3},
        "{regime} fluctuation, n={n}, k={k}",
    ),
    "joint-fluct": (
        "joint fluctuations of several eigenvalues", None, _index_list("--k"),
        "comma-separated indices (bulk) or edge offsets (edge)", 3000, {"--corr-tol": 0.12},
        "joint {regime} fluctuations, n={n}",
    ),
}


# The flags of the files a command can write: the fluctuation commands take
# all three, semicircle-check only --svg.
_FILE_FLAGS = {
    "--csv": {"help": "write per-trial vectors as CSV"},
    "--svg": {"help": "write an SVG histogram of the first coordinate"},
    "--per-trial": {"action": "store_true", "help": "embed per-trial vectors in the JSON"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wigner-fluct",
        description="Eigenvalue counting statistics and fluctuation laws of "
        "Gaussian and Wigner random matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    n_arg = _number_arg("--n", int, _positive)
    seed_arg = _number_arg("--seed", int, errors.uint64)
    beta_rule = functools.partial(errors.one_of, choices=ensembles.BETAS)
    beta = {"type": _number_arg("--beta", int, beta_rule), "default": None}
    kinds = sorted(kind.value for kind in EnsembleKind)

    def finite(flag, default):
        return {"type": _number_arg(flag, float, errors.finite), "default": default}

    def command(name, help_, run, options, trials=None, files=()):
        """Add the subcommand name, handled by run: --n, then options (each
        flag with its add_argument keywords), --seed, --trials when trials
        gives its default, and the output flags: --out, files (keys of
        _FILE_FLAGS) and --no-timestamp."""
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=n_arg, required=True)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--seed", type=seed_arg, default=0)
        if trials is not None:
            p.add_argument("--trials", type=_number_arg("--trials", int, _positive), default=trials)
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        for flag in files:
            p.add_argument(flag, **_FILE_FLAGS[flag])
        p.add_argument("--no-timestamp", action="store_true")
        p.set_defaults(run=run)
        return p

    command("sample", "draw one matrix and report its spectrum", _cmd_sample, {
        "--ensemble": {"choices": kinds, "required": True},
        "--beta": beta,
    })

    for name, (help_, regime, k_type, k_help, trials, thresholds, title) in _FLUCT_COMMANDS.items():
        options = {"--k": {"type": k_type, "required": True, "help": k_help}}
        if regime is None:
            options["--regime"] = {"choices": ("bulk", "edge"), "default": "bulk"}
        options.update({
            "--beta": beta,
            "--ensemble": {"choices": kinds, "default": EnsembleKind.TRIDIAG_BETA.value},
            "--check": {"action": "store_true", "help": "exit 1 unless thresholds hold"},
            **{flag: finite(flag, default) for flag, default in thresholds.items()},
            "--threads": {"type": _number_arg("--threads", int, _positive), "default": 1},
        })
        run = functools.partial(_cmd_fluct, title=title)
        p = command(name, help_, run, options, trials, _FILE_FLAGS)
        if regime is not None:
            p.set_defaults(regime=regime)

    command("fr-check", "superposition/decimation identity check", _cmd_fr_check, {
        "--which": {"choices": ("gue", "gse"), "required": True},
        "--k": {"type": _index_list("--k"), "default": None,
                "help": "indices to compare (default: all)"},
        "--p-min": finite("--p-min", 0.01),
    }, trials=5000)

    interval = {"type": _interval_arg, "required": True}
    command("kernel", "counting expectation/variance from the exact Gram matrix", _cmd_kernel, {
        "--interval": interval,
        "--variance": {"action": "store_true", "help": "also compute the count variance"},
    })

    order = functools.partial(errors.integer, least=kernel.MIN_QUADRATURE_ORDER)
    command("cumulants", "counting-statistic cumulants of the kernel operator", _cmd_cumulants, {
        "--interval": interval,
        "--order": {"type": _number_arg("--order", int, order), "default": 32},
    })

    command("semicircle-check", "empirical spectral CDF vs the semicircle law",
            _cmd_semicircle_check, {
                "--threshold": finite("--threshold", 0.05),
                "--path": {"choices": ("tridiag", "dense"), "default": "tridiag"},
            }, files=("--svg",))

    return parser


def _blas_build(module):
    """Name and version of the BLAS that numpy or scipy was built with."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # TypeError: a show_config without the mode
        return "unknown"


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    """Versions and settings that bit-identical results depend on: dense
    reductions run in scipy's LAPACK on its BLAS level-3 kernels, the rest
    on numpy's, and the BLAS thread count (None where unset) can move the
    last bits of a level-3 sum, such as the cumulants' syrk."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
        "threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }


def _write_payload(args, plan, summary, thresholds=None, per_trial=None):
    """Write a run's JSON to --out or stdout: meta (the provenance: schema
    version, command, package version, seed, the thresholds that are set,
    env, and a timestamp unless --no-timestamp), plan (the run as resolved)
    and summary, plus a per_trial block when per_trial is an array."""
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "thresholds": {k: v for k, v in (thresholds or {}).items() if v is not None},
        "env": _env(),
    }
    if not args.no_timestamp:
        meta["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    payload = {"meta": meta, "plan": plan, "summary": summary}
    if per_trial is not None:
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
    spec = EnsembleSpec(args.ensemble, args.n, beta=args.beta or 0)
    values = spectra.eigenvalues(ensembles.sample(spec, args.seed)).values
    plan = {"ensemble": spec.kind.value, "n": spec.n, "beta": spec.beta}
    summary = {"eigenvalues": values.tolist(), "trace": float(np.sum(values))}
    _write_payload(args, plan, summary)
    return 0


def _cmd_fluct(args, title):
    """Run a fluctuation command and write its JSON, CSV and SVG (titled with
    title and the plan's beta); exit code 1 when --check finds a failure."""
    bulk = args.regime == "bulk"
    make_spec = fluctuations.bulk_index_spec if bulk else fluctuations.edge_index_spec
    index_spec = make_spec(args.k if isinstance(args.k, tuple) else (args.k,), args.n)
    th = Thresholds(**{f.name: getattr(args, f.name, None) for f in dataclasses.fields(Thresholds)})
    plan = ExperimentPlan(
        ensemble=EnsembleSpec(args.ensemble, args.n, beta=args.beta or 0),
        index_spec=index_spec,
        trials=args.trials,
        seed=args.seed,
        thresholds=th,
    )
    result = stats.run_mc(plan, threads=args.threads)
    spec = plan.ensemble
    echo = {
        "ensemble": spec.kind.value,
        "n": spec.n,
        "beta": spec.beta,
        "regime": index_spec.regime,
        "indices": list(index_spec.indices),
        "thetas": list(index_spec.thetas),
        "gamma": index_spec.gamma,
        "trials": plan.trials,
    }
    per_trial = result.vectors if args.per_trial else None
    _write_payload(args, echo, result.summary, vars(th), per_trial)
    if args.csv:
        _write_csv(result.vectors, args.csv)
    if args.svg:
        title = f"{title.format(**vars(args))}, beta={spec.beta}"
        _svg_histogram(result.vectors[:, 0], args.svg, title, density=_normal_density)
    return 1 if args.check and not result.passed else 0


def fr_check_samples(which, n, trials, seed):
    """Per-index samples for the two sides of the superposition/decimation
    identity: returns (decimated, direct) arrays of shape (trials, n).

    Three trial streams, each run serially, stream s with master seed
    mix_trial_seed(seed, s): 1 and 2 the GOE spectra the map merges (2 only
    for gue), 3 the direct GUE or GSE spectra.  which must be "gue" or "gse"
    (UnsupportedError) and trials an integer >= 1 (InvalidSizeError)."""
    errors.one_of(which, "which", ("gue", "gse"))
    trials = errors.integer(trials, "trials", least=1)

    def spectra_of(stream, sampler, size):
        def solve(t, trial_seed):
            return spectra.eigenvalues(sampler(size, trial_seed)).values

        return stats._map_trials(mix_trial_seed(seed, stream), range(trials), solve)

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
    indices = [errors.integer(k, "--k", most=n) for k in args.k or range(1, n + 1)]
    left, right = fr_check_samples(args.which, n, args.trials, args.seed)
    ks = {}
    all_pass = True
    for k in indices:
        d, p = stats.ks_two_sample(left[:, k - 1], right[:, k - 1])
        ks[str(k)] = {"d": d, "ks_p": p, "passed": bool(p > args.p_min)}
        all_pass &= p > args.p_min
    plan = {"which": args.which, "n": n, "indices": list(indices), "trials": args.trials}
    summary = {"ks_p": ks, "passed": bool(all_pass)}
    _write_payload(args, plan, summary, {"p_min": args.p_min})
    return 0 if all_pass else 1


def _interval_echo(interval):
    """--interval for the JSON, which has no inf: "inf" or "-inf" stand for it."""
    return [v if math.isfinite(v) else str(v) for v in interval]


def _cmd_kernel(args):
    # one Gram factorization serves both moments
    expected, variance = kernel._count_moments(args.n, args.interval, args.variance)
    summary = {"expected_count": expected}
    if args.variance:
        summary["variance_count"] = variance
    _write_payload(args, {"n": args.n, "interval": _interval_echo(args.interval)}, summary)
    return 0


def _cmd_cumulants(args):
    op = kernel.discretize_operator(args.n, args.interval, order=args.order)
    report = kernel.counting_cumulants(op)
    # RFC 8259 has no Infinity token: a ratio that is not finite is null
    norm3, norm4 = (r if math.isfinite(r) else None for r in report.normalized())
    plan = {"n": args.n, "interval": _interval_echo(args.interval), "order": args.order}
    summary = {
        "c2": report.c2,
        "c3": report.c3,
        "c4": report.c4,
        "traces": {str(k): v for k, v in report.traces.items()},
        "c3_normalized": norm3,
        "c4_normalized": norm4,
        "nodes": int(op.size),
    }
    _write_payload(args, plan, summary)
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
    summary = {"sup_distance": sup, "passed": bool(passed)}
    _write_payload(args, {"n": n, "path": args.path}, summary, {"sup_max": args.threshold})
    if args.svg:
        title = f"rescaled GOE_{n} spectrum vs semicircle"
        _svg_histogram(values, args.svg, title, density=semicircle.semicircle_density)
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


# The parser does not depend on the call (its defaults are immutable and its
# handlers fixed), so main builds it once per process; build_parser still
# returns a fresh one.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    code = execute(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
