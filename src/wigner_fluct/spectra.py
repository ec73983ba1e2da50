"""Ordered spectra of symmetric/Hermitian matrices and tridiagonal models.

Solver policy: every sample is reduced to one real symmetric tridiagonal
problem, in one place (_reduce).  Dense real matrices go through LAPACK
sytrd; complex Hermitian matrices through their real 2n x 2n embedding,
which repeats each eigenvalue twice (four times for the symplectic
ensemble's quaternion storage, already doubled).  sytrd gets the workspace
its own query asks for, so above LAPACK's crossover order it takes the
blocked path (level-3 BLAS updates); small matrices stay on the unblocked
one.  eigenvalues() solves the whole tridiagonal spectrum (LAPACK sterf);
eigenvalues_at() solves only the group of repeated copies behind each
requested position (LAPACK stebz).  Both collapse the repeated copies with
the same spread check.  The tridiagonal beta model's sqrt(beta) scale is
known to one helper (_model_scale): the solvers divide spectra by it and
count_above multiplies cuts by it.  The Sturm-bisection reference path that
cross-checks LAPACK, its scalar Sturm count and interval counting live in
tests/test_spectra.py as oracles; the batched Sturm count used by counting
experiments stays here.

The float64 LAPACK handles (dsterf, dstebz, dsytrd and its workspace query)
are looked up once, at import, and called directly with the arguments
scipy.linalg.eigvalsh_tridiagonal would pass them, so the results are
bit-identical to that wrapper's.  The wrapper's own work (argument
validation, a handle lookup and a batching layer on every call) costs more
than the solve at the orders 4-17 of the superposition/decimation checks,
which make thousands of calls; the validation it repeats is done once, by
Tridiagonal, and sytrd's workspace query runs once per order.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np
from scipy.linalg import get_lapack_funcs

from .ensembles import EnsembleKind, EnsembleSpec, MatrixSample
from .errors import (
    InvalidDataError,
    NumericalFailureError,
    ShapeError,
)

# Relative tolerance for collapsing structurally doubled eigenvalues of
# embedded forms back to single copies.
_DEDUP_RTOL = 1e-8

_STERF, _STEBZ, _SYTRD, _SYTRD_LWORK = get_lapack_funcs(
    ("sterf", "stebz", "sytrd", "sytrd_lwork"), dtype=np.float64
)


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: diagonal (n,) and off-diagonal (n-1,)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
            raise ShapeError(
                f"inconsistent tridiagonal shapes: diag {d.shape}, offdiag {e.shape}"
            )
        if d.size == 0:
            raise ShapeError("empty tridiagonal")
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise InvalidDataError("tridiagonal entries must be finite")

    @property
    def n(self):
        return self.diag.size


@dataclass
class SpectrumSample:
    """Strictly increasing eigenvalues of one sampled matrix."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        self.values = v
        if v.ndim != 1:
            raise ShapeError("spectrum must be one-dimensional")
        if not (v[1:] > v[:-1]).all():
            raise ShapeError("spectrum must be strictly increasing")

    @classmethod
    def _checked(cls, values):
        """A spectrum from a 1-d float array the caller has already found
        strictly increasing, without checking it again."""
        spectrum = cls.__new__(cls)
        spectrum.values = values
        return spectrum

    @property
    def n(self):
        return self.values.size


def tridiagonalize(matrix):
    """Householder reduction of an exactly symmetric real matrix to
    tridiagonal form (orthogonally similar, spectrum preserved).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidDataError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ShapeError("matrix is not exactly symmetric")
    n = a.shape[0]
    if n == 1:
        return Tridiagonal(diag=a.diagonal().copy(), offdiag=np.zeros(0))
    _, d, e, _, info = _SYTRD(a, lower=0, lwork=_sytrd_lwork(n))
    if info != 0:
        raise NumericalFailureError("sytrd failed", info=int(info), n=n)
    return Tridiagonal(diag=d, offdiag=e)


@lru_cache(maxsize=256)
def _sytrd_lwork(n):
    """sytrd's own workspace size for order n.  The wrapper's default (n) is
    below the blocked path's n*nb, so without the queried size LAPACK falls
    back to unblocked sytd2."""
    lwork, info = _SYTRD_LWORK(n, lower=0)
    if info != 0:
        raise NumericalFailureError("sytrd workspace query failed", info=int(info), n=n)
    return int(lwork)


# Tridiagonal has validated its entries as finite and its shapes, which is
# all the checking scipy's eigvalsh_tridiagonal would add before the same
# LAPACK call.
def tridiag_eigenvalues(t: Tridiagonal):
    """All eigenvalues, ascending (LAPACK implicit-shift QL/QR path)."""
    if t.n == 1:
        return t.diag.copy()
    w, info = _STERF(t.diag, t.offdiag)
    if info != 0:
        raise NumericalFailureError("sterf failed", info=int(info), n=t.n)
    return w


def tridiag_eigenvalues_selected(t: Tridiagonal, lo, hi):
    """Eigenvalues with 0-based ascending indices lo..hi inclusive."""
    if not 0 <= lo <= hi < t.n:
        raise ShapeError(f"index range [{lo}, {hi}] invalid for n={t.n}")
    if t.n == 1:
        return t.diag.copy()
    # range 2: by 1-based index (vl, vu unused); abstol 0 picks LAPACK's default
    m, w, _, _, info = _STEBZ(t.diag, t.offdiag, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
    if info != 0:
        raise NumericalFailureError("stebz failed", info=int(info), n=t.n)
    return w[:m]


def sturm_count_below_batch(diag, offdiag, x):
    """Vectorized Sturm count for a batch of tridiagonals of equal size:
    the number of eigenvalues strictly below x, by LDL^T inertia of T - xI
    with the standard pivot-perturbation guard.

    diag (B, n), offdiag (B, n-1); x scalar or (B,).  Returns (B,) counts.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.ndim != 2 or offdiag.shape != (diag.shape[0], diag.shape[1] - 1):
        raise ShapeError("batch shapes must be (B, n) and (B, n-1)")
    n = diag.shape[1]
    emax = np.max(np.abs(offdiag)) if n > 1 else 0.0
    pivmin = 1e-300 * max(1.0, float(emax) * float(emax))
    d = diag[:, 0] - x
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, n):
        d = diag[:, i] - x - offdiag[:, i - 1] ** 2 / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0
    return count


def count_above(diag, offdiag, cut, spec: EnsembleSpec):
    """Eigenvalues above cut, on the common convention, of each row of a
    batch of tridiagonals drawn from spec's ensemble: a batched Sturm count
    of the stored matrices below the cut in their own units.

    diag (B, n), offdiag (B, n-1).  Returns (B,) counts.
    """
    return diag.shape[1] - sturm_count_below_batch(diag, offdiag, cut * _model_scale(spec))


def check_interlacing(parent, child):
    """True iff r_1 <= s_1 <= r_2 <= ... <= s_(n-1) <= r_n, where r are the
    parent eigenvalues and s the (one fewer) child eigenvalues."""
    r = np.asarray(parent.values if isinstance(parent, SpectrumSample) else parent)
    s = np.asarray(child.values if isinstance(child, SpectrumSample) else child)
    if r.size != s.size + 1:
        raise ShapeError(
            f"parent must have exactly one more eigenvalue (got {r.size} vs {s.size})"
        )
    return bool(np.all(r[:-1] <= s) and np.all(s <= r[1:]))


def _real_embedding(h):
    """Real symmetric 2n x 2n matrix with the spectrum of the complex
    Hermitian h doubled: [[Re h, -Im h], [Im h, Re h]]."""
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=h.real.dtype)
    out[:n, :n] = out[n:, n:] = h.real
    out[n:, :n] = h.imag
    np.negative(h.imag, out=out[:n, n:])
    return out


# How often the real embedding of each dense storage repeats an eigenvalue:
# twice for complex Hermitian, and the quaternion storage is a complex
# Hermitian matrix whose spectrum is already doubled.
_EMBEDDED_MULT = {"real-symmetric": 1, "complex-hermitian": 2, "quaternion-embedded": 4}


def _model_scale(spec):
    """How many times larger a stored spectrum is than the common convention
    (weight exp(-(beta/2) sum x^2)): sqrt(beta) for the tridiagonal beta
    model, 1 for every other ensemble."""
    return sqrt(spec.beta) if spec.kind is EnsembleKind.TRIDIAG_BETA else 1.0


def _reduce(sample):
    """(t, mult, divisor): a real symmetric tridiagonal t whose spectrum is
    the sample's, each eigenvalue repeated mult times in consecutive
    positions and multiplied by divisor.

    This is the one place that knows how a sample becomes a tridiagonal:
    complex input is reduced through its real embedding, and a tridiagonal
    sample is scaled by _model_scale.  Plain arrays and Tridiagonal
    instances are taken as they are.
    """
    if isinstance(sample, Tridiagonal):
        return sample, 1, 1.0
    if isinstance(sample, np.ndarray):
        a, mult = sample, 2 if np.iscomplexobj(sample) else 1
    elif sample.storage == "tridiagonal":
        t = Tridiagonal(diag=sample.diag, offdiag=sample.offdiag)
        return t, 1, _model_scale(sample.spec)
    elif sample.storage in _EMBEDDED_MULT:
        a, mult = sample.array, _EMBEDDED_MULT[sample.storage]
    else:
        raise ShapeError(f"unknown storage {sample.storage!r}")
    if mult > 1:
        a = _real_embedding(a)
    return tridiagonalize(a), mult, 1.0


def _collapse_multiplicity(values, mult):
    """Average consecutive groups of mult values (each group ascending) down
    to single copies, verifying the within-group spread stays below the
    dedup tolerance relative to the largest |value| given (at least 1)."""
    if values.size % mult:
        raise ShapeError(f"spectrum length {values.size} not divisible by {mult}")
    groups = values.reshape(-1, mult)
    radius = max(float(np.max(np.abs(values))), 1.0)
    spread = np.max(groups[:, -1] - groups[:, 0]) if groups.size else 0.0
    if spread > _DEDUP_RTOL * radius:
        raise NumericalFailureError(
            "doubled-eigenvalue pairing violated", spread=float(spread), radius=radius
        )
    return groups.mean(axis=1)


def _solve(sample, positions):
    """Eigenvalues of the sample in the common convention: the whole
    ascending spectrum when positions is None, else the value at each
    0-based ascending position, in the order given.  A numerical failure
    carries the sample's seed and size."""
    try:
        t, mult, divisor = _reduce(sample)
        if positions is None:
            values = tridiag_eigenvalues(t)
        else:
            values = np.concatenate(
                [tridiag_eigenvalues_selected(t, mult * p, mult * p + mult - 1) for p in positions]
            )
        if mult > 1:
            values = _collapse_multiplicity(values, mult)
    except NumericalFailureError as exc:
        for key, value in _context(sample).items():
            exc.context.setdefault(key, value)
        raise
    return values / divisor if divisor != 1.0 else values


def _context(sample):
    if isinstance(sample, MatrixSample):
        return {"seed": sample.spec.seed, "n": sample.spec.n}
    return {}


def eigenvalues(sample):
    """Full ordered spectrum of a MatrixSample, in the ensemble's natural
    eigenvalue units.

    Embedded storages are deduplicated back to n values; tridiagonal
    beta-ensemble samples are rescaled by 1/sqrt(beta) so all ensembles
    produce spectra on the same convention (weight exp(-(beta/2) sum x^2)).
    Plain arrays (complex ones through their real embedding) and Tridiagonal
    instances are accepted and solved as-is.
    """
    values = _solve(sample, None)
    if not (values[1:] > values[:-1]).all():
        if isinstance(sample, MatrixSample):
            raise NumericalFailureError("computed spectrum is not simple", **_context(sample))
        raise ShapeError("spectrum must be strictly increasing")
    return SpectrumSample._checked(values)


def eigenvalues_at(sample, positions):
    """Eigenvalues at the given 0-based positions of the ascending spectrum,
    as an array in the order of positions, on the same convention and with
    the same multiplicity check as eigenvalues().

    Only the requested eigenvalues are solved (LAPACK stebz bisection on the
    reduced tridiagonal, one call per position), so a trial that reads a few
    of n eigenvalues pays for those alone.  A position outside [0, n) raises
    ShapeError.
    """
    return _solve(sample, positions)
