"""Ordered spectra and interval counting for symmetric/Hermitian matrices.

Solver policy: every dense problem is reduced to a real symmetric
tridiagonal one (complex Hermitian matrices through the real 2n x 2n
embedding, which doubles each eigenvalue) by LAPACK sytrd.  sytrd gets the
workspace its own query asks for, so above LAPACK's crossover order it
takes the blocked path (level-3 BLAS updates); small matrices stay on the
unblocked one.  The tridiagonal problem is then solved either by the
LAPACK implicit-shift path (fast) or by bisection on Sturm-sequence
inertia counts (reference).  The two paths are required to
agree to 1e-10 absolute on the sqrt(2n) scale and are cross-checked in the
test suite rather than trusted.

Interval convention: intervals are open at finite endpoints.  An exact
endpoint hit is a probability-zero event; it resolves by the Sturm
convention (strictly-below counting with pivot perturbation) and is flagged
with a warning when detected.
"""

from dataclasses import dataclass
import warnings

import numpy as np
import scipy.linalg as sla

from .ensembles import EnsembleKind, EnsembleSpec, MatrixSample
from .errors import (
    InvalidDataError,
    NumericalFailureError,
    ShapeError,
)

# Relative tolerance for collapsing structurally doubled eigenvalues of
# embedded forms back to single copies.
_DEDUP_RTOL = 1e-8


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
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise InvalidDataError("tridiagonal entries must be finite")

    @property
    def n(self):
        return self.diag.size

    def gershgorin_bounds(self):
        """Interval certainly containing the whole spectrum."""
        r = np.zeros(self.n)
        if self.n > 1:
            r[:-1] += np.abs(self.offdiag)
            r[1:] += np.abs(self.offdiag)
        return float(np.min(self.diag - r)), float(np.max(self.diag + r))


@dataclass
class SpectrumSample:
    """Strictly increasing eigenvalues of one sampled matrix."""

    values: np.ndarray
    spec: EnsembleSpec | None = None
    trial: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        self.values = v
        if v.ndim != 1:
            raise ShapeError("spectrum must be one-dimensional")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise ShapeError("spectrum must be strictly increasing")

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
    if not np.all(np.isfinite(a)):
        raise InvalidDataError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ShapeError("matrix is not exactly symmetric")
    n = a.shape[0]
    if n == 1:
        return Tridiagonal(diag=a.diagonal().copy(), offdiag=np.zeros(0))
    sytrd, sytrd_lwork = sla.get_lapack_funcs(("sytrd", "sytrd_lwork"), (a,))
    # the wrapper's default workspace (n) is below the blocked path's n*nb,
    # so without the queried size LAPACK falls back to unblocked sytd2
    lwork, info = sytrd_lwork(n, lower=0)
    if info != 0:
        raise NumericalFailureError("sytrd workspace query failed", info=int(info), n=n)
    _, d, e, _, info = sytrd(a, lower=0, lwork=int(lwork))
    if info != 0:
        raise NumericalFailureError("sytrd failed", info=int(info), n=n)
    return Tridiagonal(diag=d, offdiag=e)


def _real_embedding(h):
    """Real symmetric 2n x 2n matrix with the spectrum of the complex
    Hermitian h doubled: [[Re h, -Im h], [Im h, Re h]]."""
    re = h.real
    im = h.imag
    return np.block([[re, -im], [im, re]])


def _collapse_multiplicity(values, mult, context):
    """Average exact multiplicity groups of a sorted spectrum down to single
    copies, verifying the within-group spread stays below the dedup
    tolerance."""
    values = np.sort(values)
    if values.size % mult:
        raise ShapeError(f"spectrum length {values.size} not divisible by {mult}")
    groups = values.reshape(-1, mult)
    radius = max(float(np.max(np.abs(values))), 1.0)
    spread = np.max(groups[:, -1] - groups[:, 0]) if groups.size else 0.0
    if spread > _DEDUP_RTOL * radius:
        raise NumericalFailureError(
            "doubled-eigenvalue pairing violated",
            spread=float(spread),
            radius=radius,
            **context,
        )
    return groups.mean(axis=1)


def tridiag_eigenvalues(t: Tridiagonal):
    """All eigenvalues, ascending (LAPACK implicit-shift QL/QR path)."""
    if t.n == 1:
        return t.diag.copy()
    return sla.eigvalsh_tridiagonal(t.diag, t.offdiag, lapack_driver="sterf")


def tridiag_eigenvalues_selected(t: Tridiagonal, lo, hi):
    """Eigenvalues with 0-based ascending indices lo..hi inclusive."""
    if not 0 <= lo <= hi < t.n:
        raise ShapeError(f"index range [{lo}, {hi}] invalid for n={t.n}")
    if t.n == 1:
        return t.diag.copy()
    return sla.eigvalsh_tridiagonal(
        t.diag, t.offdiag, select="i", select_range=(lo, hi)
    )


def _pivmin(t: Tridiagonal):
    emax = float(np.max(np.abs(t.offdiag))) if t.n > 1 else 0.0
    return 1e-300 * max(1.0, emax * emax)


def sturm_count_below(t: Tridiagonal, x):
    """Number of eigenvalues strictly below x, by LDL^T inertia of T - xI
    with the standard pivot-perturbation guard."""
    if not np.isfinite(x):
        if x == np.inf:
            return t.n
        if x == -np.inf:
            return 0
        raise InvalidDataError("shift must not be NaN")
    pivmin = _pivmin(t)
    d = t.diag[0] - x
    if abs(d) < pivmin:
        d = -pivmin
    count = 1 if d < 0 else 0
    for i in range(1, t.n):
        d = t.diag[i] - x - t.offdiag[i - 1] ** 2 / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0:
            count += 1
    return count


def sturm_count_below_batch(diag, offdiag, x):
    """Vectorized Sturm count for a batch of tridiagonals of equal size.

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


def tridiag_eigenvalues_bisect(t: Tridiagonal, indices=None, abs_tol=None):
    """Reference eigenvalue path: bisection driven purely by Sturm counts.

    indices: 0-based ascending eigenvalue indices (default: all).  Bisection
    is self-validating through matrix inertia, which is why it serves as the
    oracle for the LAPACK fast path.
    """
    if indices is None:
        indices = range(t.n)
    glo, ghi = t.gershgorin_bounds()
    width = max(ghi - glo, 1.0)
    if abs_tol is None:
        abs_tol = 1e-13 * max(1.0, max(abs(glo), abs(ghi)))
    out = np.empty(len(list(indices)))
    idx_list = list(indices)
    for j, k in enumerate(idx_list):
        if not 0 <= k < t.n:
            raise ShapeError(f"eigenvalue index {k} out of range for n={t.n}")
        lo, hi = glo, ghi
        # smallest x with count_below(x) >= k+1 is eigenvalue k
        for _ in range(200):
            if hi - lo <= abs_tol:
                break
            mid = 0.5 * (lo + hi)
            if sturm_count_below(t, mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        else:
            raise NumericalFailureError(
                "bisection failed to converge", index=k, lo=lo, hi=hi, width=width
            )
        out[j] = 0.5 * (lo + hi)
    return out


def count_in_interval(t: Tridiagonal, interval, flag_endpoint_hits=True):
    """Number of eigenvalues in the open interval (a, b); b may be +inf and
    a may be -inf.  Endpoint hits (probability zero) follow the Sturm
    convention and trigger a warning when detected."""
    a, b = interval
    if not a < b:
        raise ShapeError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
    below_b = sturm_count_below(t, b)
    below_a = sturm_count_below(t, a)
    if flag_endpoint_hits:
        for x in (a, b):
            if not np.isfinite(x):
                continue
            straddle = sturm_count_below(t, np.nextafter(x, np.inf)) - sturm_count_below(
                t, np.nextafter(x, -np.inf)
            )
            if straddle > 0:
                warnings.warn(
                    f"eigenvalue coincides with interval endpoint {x}", stacklevel=2
                )
    return below_b - below_a


def check_interlacing(parent, child, tol=0.0):
    """True iff r_1 <= s_1 <= r_2 <= ... <= s_(n-1) <= r_n, where r are the
    parent eigenvalues and s the (one fewer) child eigenvalues."""
    r = np.asarray(parent.values if isinstance(parent, SpectrumSample) else parent)
    s = np.asarray(child.values if isinstance(child, SpectrumSample) else child)
    if r.size != s.size + 1:
        raise ShapeError(
            f"parent must have exactly one more eigenvalue (got {r.size} vs {s.size})"
        )
    return bool(np.all(r[:-1] <= s + tol) and np.all(s <= r[1:] + tol))


def _solve_dense_symmetric(a):
    return tridiag_eigenvalues(tridiagonalize(a))


def eigenvalues(sample, trial=0):
    """Full ordered spectrum of a MatrixSample, in the ensemble's natural
    eigenvalue units.

    Embedded storages are deduplicated back to n values; tridiagonal
    beta-ensemble samples are rescaled by 1/sqrt(beta) so all ensembles
    produce spectra on the same convention (weight exp(-(beta/2) sum x^2)).
    Plain arrays and Tridiagonal instances are accepted and solved as-is.
    """
    if isinstance(sample, Tridiagonal):
        vals = tridiag_eigenvalues(sample)
        return SpectrumSample(values=np.sort(vals), spec=None, trial=trial)
    if isinstance(sample, np.ndarray):
        if np.iscomplexobj(sample):
            vals = _collapse_multiplicity(
                _solve_dense_symmetric(_real_embedding(sample)), 2, {"trial": trial}
            )
        else:
            vals = _solve_dense_symmetric(sample)
        return SpectrumSample(values=np.sort(vals), spec=None, trial=trial)

    ctx = {"seed": sample.spec.seed, "trial": trial, "n": sample.spec.n}
    try:
        if sample.storage == "real-symmetric":
            vals = _solve_dense_symmetric(sample.array)
        elif sample.storage == "complex-hermitian":
            vals = _collapse_multiplicity(
                _solve_dense_symmetric(_real_embedding(sample.array)), 2, ctx
            )
        elif sample.storage == "quaternion-embedded":
            # complex Hermitian with structurally doubled spectrum; the real
            # embedding doubles again, so each eigenvalue shows up 4 times
            vals = _collapse_multiplicity(
                _solve_dense_symmetric(_real_embedding(sample.array)), 4, ctx
            )
        elif sample.storage == "tridiagonal":
            t = Tridiagonal(diag=sample.diag, offdiag=sample.offdiag)
            vals = tridiag_eigenvalues(t)
            if sample.spec.kind is EnsembleKind.TRIDIAG_BETA:
                vals = vals / np.sqrt(sample.spec.beta)
        else:
            raise ShapeError(f"unknown storage {sample.storage!r}")
    except NumericalFailureError as exc:
        for key, value in ctx.items():
            exc.context.setdefault(key, value)
        raise

    vals = np.sort(vals)
    if vals.size > 1 and not np.all(np.diff(vals) > 0):
        raise NumericalFailureError("computed spectrum is not simple", **ctx)
    return SpectrumSample(values=vals, spec=sample.spec, trial=trial)


def principal_submatrix(sample: MatrixSample):
    """Dense principal (n-1) x (n-1) submatrix of a dense real sample."""
    if sample.storage != "real-symmetric":
        raise ShapeError("principal submatrix helper expects dense real storage")
    return sample.array[:-1, :-1]
