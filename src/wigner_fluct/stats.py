"""Monte-Carlo experiment orchestration and statistical verdicts.

Determinism contract: an experiment is identified by (plan, master seed).
Trial t draws from a generator seeded with mix_trial_seed(master, t), and
aggregation is an ordered fold over the trial index, so results are
bit-identical for any thread count or scheduling order.  One private trial
loop, _map_trials, holds the contract: every Monte-Carlo experiment of the
package (run_mc, counting_experiment and the CLI's fr-check samples) seeds,
orders, threads and labels its trials through it.

Thresholds attached to theorem checks are fixed engineering constants chosen
for n in the few-hundreds-to-thousands range (the limit theorems converge at
logarithmic speed, so asymptotic critical values would be dishonest at desk
scale); every emitted verdict carries the threshold it was judged against.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import sqrt

import numpy as np
from scipy.special import kolmogorov, ndtr

from . import ensembles, fluctuations, spectra
from .ensembles import EnsembleKind, EnsembleSpec, mix_trial_seed
from .errors import DegenerateInputError, InvalidSizeError, NumericalFailureError
from .fluctuations import IndexSpec
# unused here; bench/tests/test_spans.py traces the name stats.bulk_center_scale
from .semicircle import bulk_center_scale  # noqa: F401


def standard_normal_cdf(x):
    """Phi(x), machine-accurate (scipy.special.ndtr)."""
    return ndtr(x)


def ks_one_sample(samples, cdf=standard_normal_cdf):
    """Sup-distance between the empirical CDF of the samples and cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise InvalidSizeError("need at least one sample")
    f = np.asarray([cdf(v) for v in xs])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def kolmogorov_sf(lam):
    """Asymptotic Kolmogorov survival function 2 sum (-1)^{j-1} e^{-2 j^2 lam^2}
    (scipy.special.kolmogorov, accurate for small lam, where the series
    converges slowly)."""
    return float(kolmogorov(lam))


def ks_two_sample(a, b):
    """Two-sample KS statistic and its asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidSizeError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    eff = sqrt(a.size * b.size / (a.size + b.size))
    return d, kolmogorov_sf(eff * d)


def empirical_corr(vectors):
    """Pearson correlation matrix of per-trial fluctuation vectors (T, m)."""
    x = np.asarray(vectors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise InvalidSizeError("need at least two trials for a correlation")
    stds = x.std(axis=0, ddof=1)
    if np.any(stds == 0.0):
        raise DegenerateInputError("zero-variance coordinate in correlation input")
    if x.shape[1] == 1:
        return np.ones((1, 1))
    return np.corrcoef(x, rowvar=False)


@dataclass(frozen=True)
class Thresholds:
    """Verdict bounds; any field left as None is simply not checked."""

    ks_max: float | None = None
    var_lo: float | None = None
    var_hi: float | None = None
    corr_tol: float | None = None


@dataclass(frozen=True)
class ExperimentPlan:
    ensemble: EnsembleSpec
    index_spec: IndexSpec
    trials: int
    seed: int
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidSizeError(f"trials must be >= 1, got {self.trials}")


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

    With threads > 1 the calls run on a pool of that many threads; results
    are still returned in trial order, so they do not depend on the thread
    count.  A NumericalFailureError leaving fn is labelled with its trial
    and trial seed, replacing any label set further down.
    """

    def call(t):
        trial_seed = mix_trial_seed(seed, t)
        try:
            return fn(t, trial_seed)
        except NumericalFailureError as exc:
            exc.context.update(trial=t, trial_seed=trial_seed)
            raise

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(call, trials))
    return [call(t) for t in trials]


def summarize_vectors(vectors, index_spec, thresholds=Thresholds()):
    """Summary statistics plus pass/fail records for the given thresholds.

    Deterministic function of its inputs; rerunning it on stored per-trial
    vectors must reproduce a result's summary exactly.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    m = x.shape[1]
    mean = x.mean(axis=0)
    var = x.var(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(m)
    corr = empirical_corr(x) if x.shape[0] > 1 else np.eye(m)
    lam = fluctuations.predicted_cov(index_spec)
    ks = np.array([ks_one_sample(x[:, i]) for i in range(m)])

    records = []
    th = thresholds
    for i in range(m):
        if th.ks_max is not None:
            records.append(
                {
                    "criterion": "ks_vs_normal",
                    "coordinate": i,
                    "value": float(ks[i]),
                    "bound": {"max": th.ks_max},
                    "passed": bool(ks[i] <= th.ks_max),
                }
            )
        if th.var_lo is not None or th.var_hi is not None:
            lo = -np.inf if th.var_lo is None else th.var_lo
            hi = np.inf if th.var_hi is None else th.var_hi
            records.append(
                {
                    "criterion": "sample_variance",
                    "coordinate": i,
                    "value": float(var[i]),
                    "bound": {"min": lo, "max": hi},
                    "passed": bool(lo <= var[i] <= hi),
                }
            )
    if th.corr_tol is not None:
        for i in range(m):
            for j in range(i + 1, m):
                records.append(
                    {
                        "criterion": "pairwise_correlation",
                        "coordinate": [i, j],
                        "value": float(corr[i, j]),
                        "bound": {"target": float(lam[i, j]), "tol": th.corr_tol},
                        "passed": bool(abs(corr[i, j] - lam[i, j]) <= th.corr_tol),
                    }
                )

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
    count (see _map_trials)."""
    spec = plan.ensemble
    positions, centers, scales = fluctuations.coordinates(plan.index_spec, spec.n, spec.beta)

    def trial_vector(t, trial_seed):
        sample = ensembles.sample(EnsembleSpec(spec.kind, spec.n, seed=trial_seed, beta=spec.beta))
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
    (spectra.count_above), so one trial costs O(n).
    """
    if trials < 1:
        raise InvalidSizeError(f"trials must be >= 1, got {trials}")
    spec = EnsembleSpec(EnsembleKind.TRIDIAG_BETA, n, beta=beta)
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
        counts[start:stop] = spectra.count_above(diag[:rows], off[:rows], cut, spec)
    return counts
