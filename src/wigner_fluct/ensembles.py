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
coded once, in _upper_triangle_draws and its index arrays (_stream_layout,
kept read-only for small orders, as are sample_gse's block positions); the
dense samplers only map its draws to entries and write both triangles
through _hermitian.  The tridiagonal model's stream (diagonal normals, then
gammas) is coded once, in sample_tridiag_beta.  Every sampler builds its
EnsembleSpec before it draws, and the spec is the one check of n and beta.
Per-trial seeds are derived from a master seed with the SplitMix64 mixing
function; stats drives every trial loop from them.
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
                             every eigenvalue doubled
      "tridiagonal"          diag (n,) and offdiag (n-1,) float arrays

    The storage alone fixes how the stored spectrum relates to the
    ensemble's (repeated copies, rescale); spectra reads it from there.
    """

    storage: str
    spec: EnsembleSpec
    array: np.ndarray | None = None
    diag: np.ndarray | None = None
    offdiag: np.ndarray | None = None

    @property
    def n(self):
        return self.spec.n


# Off-diagonal atoms of the matched-moment entry laws: the symmetric
# three-point law with P(+-c) = 1/6 has variance c^2/3 and fourth moment
# c^4/3 = 3 variance^2, matching the Gaussian moments up to order four.
_REAL_MATCHED_C = sqrt(1.5)  # variance 1/2
_HERMITIAN_MATCHED_C = sqrt(3.0) / 2.0  # variance 1/4 per component


def _three_point(u, c):
    """Inverse CDF of the law P(+c) = P(-c) = 1/6, P(0) = 2/3 at the
    uniform(0,1) draws u: +c below 1/6, -c on [1/6, 1/3), else 0."""
    out = np.zeros_like(u, dtype=float)
    out[u < 1.0 / 6.0] = c
    out[(u >= 1.0 / 6.0) & (u < 1.0 / 3.0)] = -c
    return out


def _rng(seed):
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


# Layouts of orders up to this bound are kept, read-only, after their first
# use: building one is about 15 of sample_goe(8)'s 35-50 us, and all of them
# (n <= 64, c in 1, 2, 4) hold about 0.7 MB.  Larger layouts cost little next
# to their draws and are rebuilt on each call; keeping n = 2000's would hold
# 6 MB.  Threads that miss on the same key at once build equal layouts and
# either one is kept.  sample_gse's block positions are kept beside them
# under the same bound (about 11 of sample_gse(4)'s 54 us; at most 2.8 MB
# for every order up to 64).
_LAYOUT_MEMO_MAX_N = 64
_layout_memo = {}
_gse_block_memo = {}


def _keep(memo, key, n, arrays):
    """arrays, made read-only and kept in memo under key if n is within
    _LAYOUT_MEMO_MAX_N."""
    if n <= _LAYOUT_MEMO_MAX_N:
        for a in arrays:
            a.setflags(write=False)
        memo[key] = arrays
    return arrays


def _stream_layout(n, c):
    """(upper, at_diag, is_off) for _upper_triangle_draws: the strict upper
    triangle mask of an n x n matrix, and where the diagonal and the
    off-diagonal draws sit in a stream of n + c n(n-1)/2 draws."""
    layout = _layout_memo.get((n, c))
    if layout is not None:
        return layout
    r = np.arange(n)
    # the diagonal draw of row i follows c draws per off-diagonal entry of rows < i
    at_diag = r + c * (r * n - r * (r + 1) // 2)
    is_off = np.ones(n + c * (n * (n - 1) // 2), dtype=bool)
    is_off[at_diag] = False
    return _keep(_layout_memo, (n, c), n, (r[:, None] < r, at_diag, is_off))


def _gse_blocks(n, upper):
    """(rows, cols) of the 2n x 2n GSE embedding: row i holds the four
    positions of the 2x2 block of the i-th True entry of upper (row-major),
    in the order (0,0), (0,1), (1,0), (1,1)."""
    blocks = _gse_block_memo.get(n)
    if blocks is not None:
        return blocks
    iu = np.nonzero(upper)
    rows = 2 * iu[0][:, None] + [0, 0, 1, 1]
    cols = 2 * iu[1][:, None] + [0, 1, 0, 1]
    return _keep(_gse_block_memo, n, n, (rows, cols))


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
    upper, at_diag, is_off = _stream_layout(n, c)
    z = draw(is_off.size)
    return upper, z[at_diag], z[is_off].reshape(-1, c)


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
    spec = EnsembleSpec(EnsembleKind.GOE, n, seed=seed)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 1)
    return MatrixSample(
        storage="real-symmetric",
        spec=spec,
        array=_hermitian(diag, upper, off[:, 0] / sqrt(2.0)),
    )


def sample_gue(n, seed):
    """Complex Hermitian matrix: diagonal N(0, 1/2), off-diagonal entries with
    independent N(0, 1/4) real and imaginary parts.

    Stream layout: a diagonal entry takes one draw, an off-diagonal entry two
    (Re then Im).
    """
    spec = EnsembleSpec(EnsembleKind.GUE, n, seed=seed)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 2)
    return MatrixSample(
        storage="complex-hermitian",
        spec=spec,
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
    spec = EnsembleSpec(EnsembleKind.GSE, n, seed=seed)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 4)
    q = off * sqrt(1.0 / 8.0)
    # block entries (0,0), (0,1), (1,0), (1,1) from the parts (a, b, c, d)
    blocks = np.empty(q.shape, dtype=complex)
    blocks.real = q[:, [0, 2, 2, 0]] * [1.0, 1.0, -1.0, 1.0]
    blocks.imag = q[:, [1, 3, 3, 1]] * [1.0, 1.0, 1.0, -1.0]
    return MatrixSample(
        storage="quaternion-embedded",
        spec=spec,
        array=_hermitian(np.repeat(diag * sqrt(1.0 / 4.0), 2), _gse_blocks(n, upper), blocks),
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
    if symmetry not in ("real", "hermitian"):
        raise UnsupportedError(f"symmetry must be 'real' or 'hermitian', got {symmetry!r}")
    hermitian = symmetry == "hermitian"
    kind = EnsembleKind.WIGNER_HERMITIAN_MATCHED if hermitian else EnsembleKind.WIGNER_REAL_MATCHED
    spec = EnsembleSpec(kind, n, seed=seed)
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).random, 2 if hermitian else 1)
    if hermitian:
        parts = _three_point(off, _HERMITIAN_MATCHED_C)
        vals, diag_variance = parts[:, 0] + 1j * parts[:, 1], 0.5
    else:
        vals, diag_variance = _three_point(off[:, 0], _REAL_MATCHED_C), 1.0
    return MatrixSample(
        storage="complex-hermitian" if hermitian else "real-symmetric",
        spec=spec,
        array=_hermitian(ndtri(diag) * sqrt(diag_variance), upper, vals),
    )


def sample_tridiag_beta(n, beta, seed):
    """Symmetric tridiagonal model whose spectrum, divided by sqrt(beta),
    follows the beta-ensemble eigenvalue density with weight
    exp(-(beta/2) sum x_i^2).

    Diagonal entries are N(0, 1); the k-th off-diagonal entry (k = 1..n-1) is
    (1/sqrt(2)) chi with beta*(n-k) degrees of freedom.  Chi draws are
    sqrt(2 * Gamma(dof/2, 1)) using the generator's standard gamma sampler.
    Stream layout: the n diagonal normals first, then the n-1 gamma draws in
    k order.

    The 1/sqrt(beta) eigenvalue rescale is the caller's responsibility
    (spectra applies it to every spectrum and count it computes).
    """
    spec = EnsembleSpec(EnsembleKind.TRIDIAG_BETA, n, seed=seed, beta=beta)
    rng = _rng(seed)
    diag = rng.standard_normal(n)
    dof = beta * np.arange(n - 1, 0, -1, dtype=float)
    return MatrixSample(
        storage="tridiagonal",
        spec=spec,
        diag=diag,
        offdiag=np.sqrt(2.0 * rng.standard_gamma(dof / 2.0)) / sqrt(2.0),
    )


def _check_strictly_increasing(values, name):
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ShapeError(f"{name} must be a 1-d array of eigenvalues")
    if not (values[1:] > values[:-1]).all():
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
