"""Ordered spectra of symmetric/Hermitian matrices and tridiagonal models.

Solver policy: every sample is reduced to one real symmetric tridiagonal
problem, in one place (_reduce).  Dense real matrices go through LAPACK
sytrd; complex Hermitian matrices through their real 2n x 2n embedding,
which repeats each eigenvalue twice (a sample's order and dtype tell how
often its solved spectrum repeats each one).  sytrd gets the workspace
its own query asks for, so above LAPACK's crossover order it takes the
blocked path (level-3 BLAS updates); small matrices stay on the unblocked
one.  eigenvalues() solves the whole tridiagonal spectrum (LAPACK sterf);
eigenvalues_at() solves only the group of repeated copies behind each
requested position (LAPACK stebz).  Both collapse the repeated copies with
the same spread check.  Every sampler draws on the common eigenvalue
convention, so a spectrum is solved as it is given, never rescaled.  The
Sturm-bisection reference path that cross-checks LAPACK, its scalar Sturm
count and interval counting live in tests/test_spectra.py as oracles; the
batched Sturm count used by counting experiments stays here.

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

import numpy as np
from scipy.linalg import get_lapack_funcs

from .ensembles import MatrixSample
from .errors import InvalidDataError, NumericalFailureError, ShapeError
from .errors import extended_real, finite, integer, rank, strictly_increasing

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
        d = rank(finite(self.diag, "tridiagonal entries"), "diag", 1)
        e = rank(finite(self.offdiag, "tridiagonal entries"), "offdiag", 1)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if e.size != max(d.size - 1, 0):
            raise ShapeError(f"inconsistent tridiagonal shapes: diag {d.shape}, offdiag {e.shape}")
        if d.size == 0:
            raise ShapeError("empty tridiagonal")

    @property
    def n(self):
        return self.diag.size


@dataclass
class SpectrumSample:
    """Strictly increasing eigenvalues of one sampled matrix."""

    values: np.ndarray

    def __post_init__(self):
        self.values = strictly_increasing(self.values, "spectrum")

    def __array__(self, dtype=None, copy=None):  # every rule reads a sample as its values
        return np.array(self.values, dtype=dtype, copy=copy)


def tridiagonalize(matrix):
    """Householder reduction of an exactly symmetric real matrix to
    tridiagonal form (orthogonally similar, spectrum preserved).
    """
    a = rank(finite(matrix, "matrix entries"), "matrix", 2)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:  # sytrd cannot size its output for order 0
        raise ShapeError("empty tridiagonal")
    if not (a == a.T).all():
        raise ShapeError("matrix is not exactly symmetric")
    n = a.shape[0]
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
    lo = integer(lo, "position lo", least=0, most=t.n - 1)
    hi = integer(hi, "position hi", least=lo, most=t.n - 1)
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

    diag (B, n), offdiag (B, n-1); x scalar or (B,), an extended_real; any
    other rank (errors.rank) or shape raises ShapeError.  Returns (B,) counts.
    The pivot floor reads max |offdiag| as the larger of max offdiag and
    -min offdiag, the same float without a copy of the batch; what the call
    holds beyond its input is the finiteness check's one-byte mask.
    """
    diag = rank(finite(diag, "diag"), "diag", 2)
    offdiag = finite(offdiag, "offdiag")
    x = rank(extended_real(x, "shift"), "shift", 0, 1)
    if offdiag.shape != (diag.shape[0], diag.shape[1] - 1) or x.shape not in ((), diag.shape[:1]):
        raise ShapeError("batch shapes must be (B, n) and (B, n-1), and the shift () or (B,)")
    n = diag.shape[1]
    emax = max(float(offdiag.max(initial=0.0)), -float(offdiag.min(initial=0.0)))
    pivmin = 1e-300 * max(1.0, emax * emax)
    d = diag[:, 0] - x
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, n):
        d = diag[:, i] - x - offdiag[:, i - 1] ** 2 / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0
    return count


def check_interlacing(parent, child):
    """True iff r_1 <= s_1 <= r_2 <= ... <= s_(n-1) <= r_n for the parent eigenvalues r
    and the (one fewer) child eigenvalues s, both read by strictly_increasing."""
    r = strictly_increasing(parent, "parent spectrum")
    s = strictly_increasing(child, "child spectrum")
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


def _reduce(sample):
    """(t, mult): a real symmetric tridiagonal t whose spectrum is the
    sample's, each eigenvalue repeated mult times in consecutive positions.

    This is the one place that knows how a sample becomes a tridiagonal.  A
    MatrixSample without a dense array is a tridiagonal model; a dense one
    of order c n repeats each of its n eigenvalues c times, and the order
    must be a positive multiple of n.  Complex input is reduced through its
    real embedding, which doubles every multiplicity.  Tridiagonal
    instances are taken as they are, and any other input as an array.
    """
    if isinstance(sample, Tridiagonal):
        return sample, 1
    if not isinstance(sample, MatrixSample):
        a, copies = rank(np.asarray(sample), "matrix", 2), 1
    elif sample.array is None:
        return Tridiagonal(diag=sample.diag, offdiag=sample.offdiag), 1
    else:
        a = rank(np.asarray(sample.array), "matrix", 2)
        copies, rest = divmod(a.shape[0], sample.n)
        if rest or not copies:
            raise ShapeError(f"array of shape {a.shape} for a sample of size n={sample.n}")
    if a.dtype.kind == "c":
        return tridiagonalize(_real_embedding(a)), 2 * copies
    return tridiagonalize(a), copies


def _collapse_multiplicity(values, mult):
    """Average consecutive groups of mult values (each group ascending) down
    to single copies, verifying the within-group spread stays below the
    dedup tolerance relative to the largest |value| given (at least 1)."""
    groups = values.reshape(-1, mult)  # _reduce's order check makes mult divide the length
    radius = max(float(np.abs(values).max(initial=0.0)), 1.0)
    spread = (groups[:, -1] - groups[:, 0]).max(initial=0.0)
    if spread > _DEDUP_RTOL * radius:
        raise NumericalFailureError(
            "doubled-eigenvalue pairing violated", spread=float(spread), radius=radius
        )
    return groups.sum(axis=1) / mult


def _solve(sample, positions):
    """Eigenvalues of the sample: the whole ascending spectrum when
    positions is None, else the value at each 0-based ascending position,
    in the order given, each uncast (positions are read as an object array)
    and checked against the sample's n before it is scaled by the multiplicity.
    A numerical failure carries the sample's seed and size."""
    try:
        t, mult = _reduce(sample)
        if positions is None:
            values = tridiag_eigenvalues(t)
        else:
            n, selected = t.n // mult, []
            for p in rank(np.asarray(positions, dtype=object), "positions", 1).tolist():
                p = integer(p, "position", least=0, most=n - 1)
                selected.append(tridiag_eigenvalues_selected(t, mult * p, mult * p + mult - 1))
            values = np.concatenate(selected) if selected else np.empty(0)
        if mult > 1:
            values = _collapse_multiplicity(values, mult)
    except NumericalFailureError as exc:
        if isinstance(sample, MatrixSample):
            exc.context.setdefault("seed", sample.seed)
            exc.context.setdefault("n", sample.n)
        raise
    return values


def eigenvalues(sample):
    """Full ordered spectrum of a MatrixSample, on the convention every
    sampler draws on (weight exp(-(beta/2) sum x^2)).

    Repeated copies (see _reduce) are collapsed back to n values.  Plain
    arrays and nested lists (complex ones through their real embedding) and
    Tridiagonal instances are accepted and solved as-is.  A spectrum that is
    not strictly increasing raises NumericalFailureError, carrying the seed
    and size, for a sample, and ShapeError for any other input.
    """
    values = _solve(sample, None)
    try:
        return SpectrumSample(values)
    except (ShapeError, InvalidDataError) as exc:
        if not isinstance(sample, MatrixSample):
            raise
        raise NumericalFailureError(
            "computed spectrum is not simple", seed=sample.seed, n=sample.n
        ) from exc


def eigenvalues_at(sample, positions):
    """Eigenvalues at the given 0-based positions of the ascending spectrum,
    as an array in the order of positions, on the same convention and with
    the same multiplicity check as eigenvalues().

    Only the requested eigenvalues are solved (LAPACK stebz bisection on the
    reduced tridiagonal, one call per position), so a trial that reads a few
    of n eigenvalues pays for those alone.  No positions give an empty
    array; positions that are not 1-D (rank) raise ShapeError, and a position
    that is not an integer in [0, n - 1] InvalidSizeError.
    """
    return _solve(sample, positions)
