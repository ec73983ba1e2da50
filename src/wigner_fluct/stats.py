"""Monte-Carlo experiment orchestration and statistical verdicts.

Determinism contract: an experiment is identified by (plan, master seed).
The plan's one ensemble spec says what every trial draws and the master seed
which draws: trial t draws at the seed mix_trial_seed(master, t), and
aggregation is an ordered fold over the trial index, so results are
bit-identical for any thread count or scheduling order.  One private trial
loop, _map_trials, holds the contract: every Monte-Carlo experiment of the
package (run_mc, counting_experiment and the CLI's fr-check samples) seeds,
orders and labels its trials through it.  Only run_mc threads its trials,
for the CLI's --threads.

Thresholds attached to theorem checks are fixed engineering constants chosen
for n in the few-hundreds-to-thousands range (the limit theorems converge at
logarithmic speed, so asymptotic critical values would be dishonest at desk
scale); every emitted verdict carries the threshold it was judged against.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import combinations
from math import sqrt

import numpy as np
from scipy.special import kolmogorov, ndtr

from . import ensembles, errors, fluctuations, spectra
from .ensembles import EnsembleKind, EnsembleSpec, mix_trial_seed
from .errors import DegenerateInputError, NumericalFailureError, ShapeError
from .fluctuations import IndexSpec
# unused here; bench/tests/test_spans.py traces the name stats.bulk_center_scale
from .semicircle import bulk_center_scale  # noqa: F401


def standard_normal_cdf(x):
    """Phi(x), machine-accurate (scipy.special.ndtr)."""
    return ndtr(x)


def _sorted_sample(samples):
    """samples sorted, if they are finite, 1-D and not empty."""
    xs = errors.rank(errors.finite(samples, "samples"), "samples", 1)
    errors.integer(xs.size, "sample size", least=1)
    return np.sort(xs)


def ks_one_sample(samples, cdf=standard_normal_cdf):
    """Sup-distance between the empirical CDF of the (finite, 1-D) samples and cdf."""
    xs = _sorted_sample(samples)
    n = xs.size
    f = np.asarray([cdf(v) for v in xs])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_two_sample(a, b):
    """Two-sample KS statistic d of two finite 1-D samples and its asymptotic p-value,
    the Kolmogorov survival function (scipy.special.kolmogorov) at sqrt(nm / (n + m)) d."""
    a, b = _sorted_sample(a), _sorted_sample(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    eff = sqrt(a.size * b.size / (a.size + b.size))
    return d, float(kolmogorov(eff * d))


def _trial_vectors(vectors):
    """vectors as a finite (T, m) array, T, m >= 1, read from 2-D or (one column) 1-D input."""
    x = errors.rank(errors.finite(vectors, "vectors"), "vectors", 1, 2)
    x = x[:, None] if x.ndim == 1 else x
    errors.integer(x.shape[0], "trials", least=1)
    errors.integer(x.shape[1], "coordinates", least=1)
    return x


def empirical_corr(vectors):
    """Pearson correlation matrix of finite per-trial fluctuation vectors (T, m)."""
    x = _trial_vectors(vectors)
    errors.integer(x.shape[0], "trials", least=2)
    stds = x.std(axis=0, ddof=1)
    if np.any(stds == 0.0):
        raise DegenerateInputError("zero-variance coordinate in correlation input")
    if x.shape[1] == 1:
        return np.ones((1, 1))
    return np.corrcoef(x, rowvar=False)


@dataclass(frozen=True)
class Thresholds:
    """Verdict bounds; a field left as None is not checked, and one that is set
    is a finite scalar, stored as a float (a nan bound would fail every verdict),
    with var_lo <= var_hi when both are set (else every variance verdict fails)."""

    ks_max: float | None = None
    var_lo: float | None = None
    var_hi: float | None = None
    corr_tol: float | None = None

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) is not None:
                bound = errors.rank(errors.finite(getattr(self, f.name), f.name), f.name, 0)
                object.__setattr__(self, f.name, float(bound))
        if None not in (self.var_lo, self.var_hi) and self.var_lo > self.var_hi:
            raise errors.DomainError(f"var_lo {self.var_lo} exceeds var_hi {self.var_hi}")


@dataclass(frozen=True)
class ExperimentPlan:
    ensemble: EnsembleSpec
    index_spec: IndexSpec
    trials: int
    seed: int
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        errors.integer(self.trials, "trials", least=1)
        errors.uint64(self.seed, "seed")
        # the summary needs the predicted covariance (gap exponents when
        # m > 1): reject a plan without it before any trial is drawn
        fluctuations.predicted_cov(self.index_spec)


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    vectors: np.ndarray  # (trials, m)
    summary: dict

    @property
    def passed(self):
        return all(rec["passed"] for rec in self.summary["pass"])


def _map_trials(seed, trials, fn, threads=1):
    """[fn(t, mix_trial_seed(seed, t)) for t in trials], in the order of
    trials: the one trial loop of the package.

    With threads > 1 (only run_mc passes it) the calls run on a pool of
    min(threads, len(trials), os.cpu_count()) threads, or serially when
    that is 1; results are still returned in trial order, so they do not
    depend on the thread count.  A NumericalFailureError leaving fn is labelled with its trial
    and trial seed, replacing any label set further down.
    """

    def call(t):
        trial_seed = mix_trial_seed(seed, t)
        try:
            return fn(t, trial_seed)
        except NumericalFailureError as exc:
            exc.context.update(trial=t, trial_seed=trial_seed)
            raise

    workers = min(threads, len(trials), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(call, trials))
    return [call(t) for t in trials]


def summarize_vectors(vectors, index_spec, thresholds=Thresholds()):
    """Summary statistics plus pass/fail records for the given thresholds.

    Deterministic function of its inputs; rerunning it on stored per-trial
    vectors must reproduce a result's summary exactly.  Vectors are read as in
    empirical_corr (rank 1 or 2, else ShapeError; no trial or column, InvalidSizeError).
    """
    x = _trial_vectors(vectors)
    m = x.shape[1]
    if m != index_spec.m:
        raise ShapeError(f"vectors have {m} columns, the index spec {index_spec.m}")
    mean = x.mean(axis=0)
    var = x.var(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(m)
    corr = empirical_corr(x) if x.shape[0] > 1 else np.eye(m)
    lam = fluctuations.predicted_cov(index_spec)
    ks = np.array([ks_one_sample(x[:, i]) for i in range(m)])

    th = thresholds
    var_bound = {side: v for side, v in (("min", th.var_lo), ("max", th.var_hi)) if v is not None}
    lo, hi = var_bound.get("min", -np.inf), var_bound.get("max", np.inf)
    checks = []  # (criterion, coordinate, value, bound, passed)
    for i in range(m):
        if th.ks_max is not None:
            checks.append(("ks_vs_normal", i, ks[i], {"max": th.ks_max}, ks[i] <= th.ks_max))
        if var_bound:  # only the sides that are set: an infinite side is not JSON
            checks.append(("sample_variance", i, var[i], dict(var_bound), lo <= var[i] <= hi))
    if th.corr_tol is not None:
        for i, j in combinations(range(m), 2):
            bound = {"target": float(lam[i, j]), "tol": th.corr_tol}
            passed = abs(corr[i, j] - lam[i, j]) <= th.corr_tol
            checks.append(("pairwise_correlation", [i, j], corr[i, j], bound, passed))
    records = [
        {"criterion": c, "coordinate": i, "value": float(v), "bound": b, "passed": bool(p)}
        for c, i, v, b, p in checks
    ]

    return {
        "mean": mean.tolist(),
        "var": var.tolist(),
        "corr": corr.tolist(),
        "lambda_pred": lam.tolist(),
        "ks": ks.tolist(),
        "pass": records,
    }


def run_mc(plan: ExperimentPlan, threads=1):
    """Sample the planned ensemble over all trials, normalize the requested
    eigenvalues, and aggregate.  Output is bit-identical for any thread
    count (see _map_trials); threads is an integer >= 1."""
    threads = errors.integer(threads, "threads", least=1)
    spec = plan.ensemble
    positions, centers, scales = fluctuations.coordinates(plan.index_spec, spec.n, spec.beta)

    def trial_vector(t, trial_seed):
        sample = ensembles.sample(spec, trial_seed)
        return (spectra.eigenvalues_at(sample, positions) - centers) / scales

    vectors = np.array(_map_trials(plan.seed, range(plan.trials), trial_vector, threads))
    summary = summarize_vectors(vectors, plan.index_spec, plan.thresholds)
    return ExperimentResult(plan=plan, vectors=vectors, summary=summary)


# Trials per batched Sturm count in counting_experiment; counts do not depend on it.
_COUNTING_BATCH = 512


def counting_experiment(n, beta, cut, trials, seed):
    """Monte-Carlo counts of eigenvalues above `cut` for the beta-ensemble of
    size n (eigenvalue convention: weight e^{-(beta/2) sum x^2}).

    Each trial draws sample_tridiag_beta (identical spectrum law) from its
    mixed seed, and counting goes through batched Sturm inertia
    (spectra.sturm_count_below_batch), so one trial costs O(n).  A cut that is
    not a scalar (ShapeError) or is NaN is refused before any trial is drawn.
    """
    errors.integer(trials, "trials", least=1)
    # checks n and beta before the batch arrays are sized from n
    EnsembleSpec(EnsembleKind.TRIDIAG_BETA, n, beta=beta)
    cut = errors.rank(errors.extended_real(cut, "cut"), "cut", 0)
    batch = min(_COUNTING_BATCH, trials)
    # each draw goes straight into its row; holding the samples would raise
    # the peak memory of a batch
    diag, off = np.empty((batch, n)), np.empty((batch, n - 1))

    def draw(t, trial_seed):
        sample = ensembles.sample_tridiag_beta(n, beta, trial_seed)
        diag[t % batch], off[t % batch] = sample.diag, sample.offdiag

    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, batch):
        stop = min(start + batch, trials)
        _map_trials(seed, range(start, stop), draw)
        rows = stop - start
        counts[start:stop] = n - spectra.sturm_count_below_batch(diag[:rows], off[:rows], cut)
    return counts
