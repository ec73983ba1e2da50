"""Samplers for the Gaussian invariant ensembles (beta = 1, 2, 4), matched
fourth-moment Wigner ensembles, and the tridiagonal beta-ensemble fast path,
plus the superposition/decimation maps that couple them.

Entry conventions (weight exp(-(beta/2) Tr H^2)):

  GOE  real symmetric,   entry variance (1 + delta_ij) / 2
  GUE  complex Hermitian, Re/Im off-diagonal variance 1/4, diagonal 1/2
  GSE  quaternion self-dual, off-diagonal components variance 1/8,
       diagonal 1/4; realized as the 2x2 complex-block embedding, so every
       eigenvalue of the stored 2n x 2n matrix appears twice.

Reproducibility contract: each sampler consumes its PCG64 stream in a fixed
documented order (row-major over the upper triangle, diagonal included,
with each entry taking its draws consecutively), so a (spec, seed) pair
yields a bit-identical matrix regardless of scheduling.  That order is
coded once, in _upper_triangle_draws; the dense samplers only map its draws
to entries and write both triangles through _hermitian.  The tridiagonal
model's stream (diagonal normals, then gammas) is likewise coded once, in
_tridiag_draws, which stats.counting_experiment shares.  Per-trial seeds are
derived from a master seed with the SplitMix64 mixing function.
"""

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInputError, InvalidSizeError, ShapeError, UnsupportedError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_trial_seed(master_seed, trial):
    """Derive the RNG seed for one trial: SplitMix64 finalizer applied to
    master_seed XOR (trial+1) * golden-ratio constant.

    The map is a bijection of the 64-bit integers for fixed trial, so
    distinct trials get decorrelated streams and results are independent of
    the order in which trials are executed.
    """
    if trial < 0:
        raise InvalidSizeError(f"trial index must be >= 0, got {trial}")
    z = (int(master_seed) ^ (((trial + 1) * _GOLDEN) & _MASK64)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class EnsembleKind(str, Enum):
    GOE = "goe"
    GUE = "gue"
    GSE = "gse"
    WIGNER_REAL_MATCHED = "wigner-real-matched"
    WIGNER_HERMITIAN_MATCHED = "wigner-hermitian-matched"
    TRIDIAG_BETA = "tridiag-beta"


_IMPLIED_BETA = {
    EnsembleKind.GOE: 1,
    EnsembleKind.GUE: 2,
    EnsembleKind.GSE: 4,
    EnsembleKind.WIGNER_REAL_MATCHED: 1,
    EnsembleKind.WIGNER_HERMITIAN_MATCHED: 2,
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from, at what size, from what seed."""

    kind: EnsembleKind
    n: int
    seed: int = 0
    beta: int = 0  # required for TRIDIAG_BETA, implied otherwise

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSizeError(f"matrix size must be >= 1, got {self.n}")
        kind = EnsembleKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is EnsembleKind.TRIDIAG_BETA:
            if self.beta not in (1, 2, 4):
                raise UnsupportedError(
                    f"tridiagonal model requires beta in {{1,2,4}}, got {self.beta}"
                )
        else:
            implied = _IMPLIED_BETA[kind]
            if self.beta == 0:
                object.__setattr__(self, "beta", implied)
            elif self.beta != implied:
                raise UnsupportedError(
                    f"{kind.value} implies beta={implied}, got {self.beta}"
                )


@dataclass
class MatrixSample:
    """One sampled matrix together with its provenance.

    storage values:
      "real-symmetric"       dense (n, n) float array
      "complex-hermitian"    dense (n, n) complex array
      "quaternion-embedded"  dense (2n, 2n) complex Hermitian array whose
                             spectrum is the quaternion matrix's spectrum with
                             every eigenvalue doubled (doubled_spectrum=True)
      "tridiagonal"          diag (n,) and offdiag (n-1,) float arrays
    """

    storage: str
    spec: EnsembleSpec
    array: np.ndarray | None = None
    diag: np.ndarray | None = None
    offdiag: np.ndarray | None = None
    doubled_spectrum: bool = False

    @property
    def n(self):
        return self.spec.n


@dataclass(frozen=True)
class EntryDistribution:
    """Entry law with its analytically declared moments (mean is always 0).

    kind "gaussian": N(0, variance).
    kind "three-point": P(+c) = P(-c) = p, P(0) = 1 - 2p, so the moments in
    closed form are E X^2 = 2 p c^2, E X^3 = 0, E X^4 = 2 p c^4.
    """

    kind: str
    variance: float
    third: float
    fourth: float
    c: float = 0.0
    p: float = 0.0

    @staticmethod
    def gaussian(variance):
        return EntryDistribution(
            kind="gaussian", variance=variance, third=0.0, fourth=3.0 * variance**2
        )

    @staticmethod
    def three_point(c, p=1.0 / 6.0):
        if not 0.0 < p <= 0.5:
            raise UnsupportedError(f"atom weight p must be in (0, 1/2], got {p}")
        return EntryDistribution(
            kind="three-point",
            variance=2.0 * p * c * c,
            third=0.0,
            fourth=2.0 * p * c**4,
            c=c,
            p=p,
        )

    def sample_from_uniforms(self, u):
        """Map uniform(0,1) draws to this law (inverse-CDF, vectorized)."""
        u = np.asarray(u)
        if self.kind == "gaussian":
            return ndtri(u) * sqrt(self.variance)
        out = np.zeros_like(u, dtype=float)
        out[u < self.p] = self.c
        out[(u >= self.p) & (u < 2.0 * self.p)] = -self.c
        return out


# Matched-moment entry laws: the symmetric three-point distribution with
# P(+-c) = 1/6 has fourth moment exactly 3 * variance^2, i.e. it matches the
# Gaussian second and fourth moments once c is chosen for the target variance.
REAL_MATCHED_OFFDIAG = EntryDistribution.three_point(c=sqrt(1.5))        # var 1/2
HERMITIAN_MATCHED_COMPONENT = EntryDistribution.three_point(c=sqrt(3.0) / 2.0)  # var 1/4


def _rng(seed):
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def _check_n(n):
    if n < 1:
        raise InvalidSizeError(f"matrix size must be >= 1, got {n}")


def _upper_triangle_draws(n, draw, c):
    """The documented stream layout, the one place it is coded: one
    ``draw(size)`` call walks the upper triangle of an n x n matrix
    row-major, diagonal included, giving one draw to each diagonal entry and
    c consecutive draws to each off-diagonal entry.

    Returns (upper, diag, off): upper the n x n boolean mask of the strict
    upper triangle, diag the n diagonal draws, and off the off-diagonal draws
    as an (entries, c) array, one row per True entry of upper in row-major
    order (the order in which boolean indexing visits them).
    """
    r = np.arange(n)
    z = draw(n + c * (n * (n - 1) // 2))
    # the diagonal draw of row i follows c draws per off-diagonal entry of rows < i
    at_diag = r + c * (r * n - r * (r + 1) // 2)
    is_off = np.ones(z.size, dtype=bool)
    is_off[at_diag] = False
    return r[:, None] < r, z[at_diag], z[is_off].reshape(-1, c)


def _hermitian(diag, upper, vals):
    """Square matrix with the given diagonal, vals at the positions upper
    selects above it (a boolean mask or a (rows, cols) pair) and their
    complex conjugates at the mirrored positions below it."""
    size = diag.size
    h = np.zeros((size, size), dtype=vals.dtype)
    h.reshape(-1)[:: size + 1] = diag
    h[upper] = vals
    # indexing the transpose view mirrors each position: h.T[i, j] is h[j, i]
    h.T[upper] = vals.conj()
    return h


def sample_goe(n, seed):
    """Real symmetric matrix, independent N(0, (1+delta_ij)/2) entries.

    Stream layout: one standard normal per upper-triangle entry; the diagonal
    keeps unit variance, off-diagonal draws are scaled by 1/sqrt(2).
    """
    _check_n(n)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 1)
    return MatrixSample(
        storage="real-symmetric",
        spec=EnsembleSpec(EnsembleKind.GOE, n, seed=seed),
        array=_hermitian(diag, upper, off[:, 0] / sqrt(2.0)),
    )


def sample_gue(n, seed):
    """Complex Hermitian matrix: diagonal N(0, 1/2), off-diagonal entries with
    independent N(0, 1/4) real and imaginary parts.

    Stream layout: a diagonal entry takes one draw, an off-diagonal entry two
    (Re then Im).
    """
    _check_n(n)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 2)
    return MatrixSample(
        storage="complex-hermitian",
        spec=EnsembleSpec(EnsembleKind.GUE, n, seed=seed),
        array=_hermitian(diag * sqrt(0.5), upper, off[:, 0] * 0.5 + 1j * (off[:, 1] * 0.5)),
    )


def sample_gse(n, seed):
    """Quaternion self-dual matrix as its 2n x 2n complex-Hermitian embedding.

    Off-diagonal quaternion components are N(0, 1/8) (four draws per entry:
    the 1, e1, e2, e3 parts), diagonal entries are real N(0, 1/4) (one draw).
    The quaternion a + b e1 + c e2 + d e3 at (j, k) becomes the 2x2 block
    [[a + ib, c + id], [-c + id, a - ib]] at rows 2j, 2j+1 and columns 2k,
    2k+1.  Every eigenvalue of the embedding appears with multiplicity
    exactly 2.
    """
    _check_n(n)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 4)
    q = off * sqrt(1.0 / 8.0)
    # block entries (0,0), (0,1), (1,0), (1,1) from the parts (a, b, c, d)
    blocks = np.empty(q.shape, dtype=complex)
    blocks.real = q[:, [0, 2, 2, 0]] * [1.0, 1.0, -1.0, 1.0]
    blocks.imag = q[:, [1, 3, 3, 1]] * [1.0, 1.0, 1.0, -1.0]
    iu = np.nonzero(upper)
    rows = 2 * iu[0][:, None] + [0, 0, 1, 1]
    cols = 2 * iu[1][:, None] + [0, 1, 0, 1]
    return MatrixSample(
        storage="quaternion-embedded",
        spec=EnsembleSpec(EnsembleKind.GSE, n, seed=seed),
        array=_hermitian(np.repeat(diag * sqrt(1.0 / 4.0), 2), (rows, cols), blocks),
        doubled_spectrum=True,
    )


def sample_matched_wigner(n, seed, symmetry="real"):
    """Wigner matrix whose entries match the Gaussian ensemble moments up to
    order four but follow the symmetric three-point law off the diagonal.

    real:      off-diagonal three-point with c = sqrt(3/2)  (variance 1/2,
               fourth moment 3/4), diagonal N(0, 1).
    hermitian: Re and Im of each off-diagonal entry three-point with
               c = sqrt(3)/2 (variance 1/4, fourth moment 3/16), diagonal
               N(0, 1/2).

    Stream layout: one uniform draw per entry component (the diagonal
    Gaussian is produced from its uniform through the inverse normal CDF).
    """
    _check_n(n)
    if symmetry not in ("real", "hermitian"):
        raise UnsupportedError(f"symmetry must be 'real' or 'hermitian', got {symmetry!r}")
    hermitian = symmetry == "hermitian"
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).random, 2 if hermitian else 1)
    if hermitian:
        parts = HERMITIAN_MATCHED_COMPONENT.sample_from_uniforms(off)
        vals, diag_variance = parts[:, 0] + 1j * parts[:, 1], 0.5
        kind, storage = EnsembleKind.WIGNER_HERMITIAN_MATCHED, "complex-hermitian"
    else:
        vals, diag_variance = REAL_MATCHED_OFFDIAG.sample_from_uniforms(off[:, 0]), 1.0
        kind, storage = EnsembleKind.WIGNER_REAL_MATCHED, "real-symmetric"
    diag = EntryDistribution.gaussian(diag_variance).sample_from_uniforms(diag)
    h = _hermitian(diag, upper, vals)
    return MatrixSample(storage=storage, spec=EnsembleSpec(kind, n, seed=seed), array=h)


def _tridiag_draws(n, beta, seed):
    """(diag, offdiag) of sample_tridiag_beta in its documented stream order;
    stats.counting_experiment draws through it too."""
    rng = _rng(seed)
    diag = rng.standard_normal(n)
    dof = beta * np.arange(n - 1, 0, -1, dtype=float)
    return diag, np.sqrt(2.0 * rng.standard_gamma(dof / 2.0)) / sqrt(2.0)


def sample_tridiag_beta(n, beta, seed):
    """Symmetric tridiagonal model whose spectrum, divided by sqrt(beta),
    follows the beta-ensemble eigenvalue density with weight
    exp(-(beta/2) sum x_i^2).

    Diagonal entries are N(0, 1); the k-th off-diagonal entry (k = 1..n-1) is
    (1/sqrt(2)) chi with beta*(n-k) degrees of freedom.  Chi draws are
    sqrt(2 * Gamma(dof/2, 1)) using the generator's standard gamma sampler.
    Stream layout: the n diagonal normals first, then the n-1 gamma draws in
    k order.

    The 1/sqrt(beta) eigenvalue rescale is the caller's responsibility (see
    spectra.eigenvalues, which applies it for tridiagonal samples).
    """
    _check_n(n)
    if beta not in (1, 2, 4):
        raise UnsupportedError(f"beta must be 1, 2 or 4, got {beta}")
    diag, offdiag = _tridiag_draws(n, beta, seed)
    return MatrixSample(
        storage="tridiagonal",
        spec=EnsembleSpec(EnsembleKind.TRIDIAG_BETA, n, seed=seed, beta=beta),
        diag=diag,
        offdiag=offdiag,
    )


def _check_strictly_increasing(values, name):
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ShapeError(f"{name} must be a 1-d array of eigenvalues")
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ShapeError(f"{name} must be strictly increasing")
    return values


def superpose_decimate_even(spectrum_a, spectrum_b):
    """Merge two spectra and keep the particles at even positions (2, 4, ...,
    counting from 1).

    With spectrum_a from a size-n GOE and spectrum_b from an independent
    size-(n+1) GOE this reproduces the size-n GUE spectrum in law.  Exact
    ties in the merged list occur with probability zero and are rejected so
    the caller can resample.
    """
    a = _check_strictly_increasing(spectrum_a, "spectrum_a")
    b = _check_strictly_increasing(spectrum_b, "spectrum_b")
    merged = np.sort(np.concatenate([a, b]))
    if merged.size > 1 and np.any(np.diff(merged) == 0.0):
        raise DegenerateInputError("exact tie in superposed spectra; resample")
    return merged[1::2]


def gse_from_goe(spectrum):
    """Even-position particles of a size-(2n+1) spectrum, scaled by 1/sqrt(2).

    Applied to a GOE_(2n+1) spectrum this reproduces the GSE_n spectrum in
    law.  (Scaling the decimated eigenvalues is equivalent to scaling the
    matrix itself.)
    """
    y = _check_strictly_increasing(spectrum, "spectrum")
    if y.size % 2 == 0:
        raise ShapeError(f"expected odd-length spectrum, got length {y.size}")
    return y[1::2] / sqrt(2.0)


def sample(spec: EnsembleSpec):
    """Dispatch to the sampler for ``spec.kind``."""
    kind = EnsembleKind(spec.kind)
    if kind is EnsembleKind.GOE:
        return sample_goe(spec.n, spec.seed)
    if kind is EnsembleKind.GUE:
        return sample_gue(spec.n, spec.seed)
    if kind is EnsembleKind.GSE:
        return sample_gse(spec.n, spec.seed)
    if kind is EnsembleKind.WIGNER_REAL_MATCHED:
        return sample_matched_wigner(spec.n, spec.seed, symmetry="real")
    if kind is EnsembleKind.WIGNER_HERMITIAN_MATCHED:
        return sample_matched_wigner(spec.n, spec.seed, symmetry="hermitian")
    if kind is EnsembleKind.TRIDIAG_BETA:
        return sample_tridiag_beta(spec.n, spec.beta, spec.seed)
    raise UnsupportedError(f"unknown ensemble kind {spec.kind!r}")
