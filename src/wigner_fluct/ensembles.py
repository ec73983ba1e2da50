"""Samplers for the Gaussian invariant ensembles (beta = 1, 2, 4), matched
fourth-moment Wigner ensembles, and the tridiagonal beta-ensemble fast path,
plus the superposition/decimation maps that couple them.

Entry conventions (weight exp(-(beta/2) Tr H^2)):

  GOE  real symmetric,   entry variance (1 + delta_ij) / 2
  GUE  complex Hermitian, Re/Im off-diagonal variance 1/4, diagonal 1/2
  GSE  quaternion self-dual, off-diagonal components variance 1/8,
       diagonal 1/4; realized as the 2x2 complex-block embedding, so every
       eigenvalue of the stored 2n x 2n matrix appears twice (spectra
       reads the repeat from the order 2n; a sample carries no label).
  tridiagonal beta model  H_beta / sqrt(beta), eigenvalues on the same
       weight: diagonal variance 1/beta, k-th off-diagonal entry
       chi_(beta (n-k)) / sqrt(2 beta).

Reproducibility contract: each sampler consumes its PCG64 stream in a fixed
documented order (row-major over the upper triangle, diagonal included,
with each entry taking its draws consecutively), so a (spec, seed) pair
yields a bit-identical matrix regardless of scheduling.  That order is
coded once, in _upper_triangle_draws and its index arrays (_stream_layout,
kept read-only for small orders; the only arrays the module keeps); the
dense samplers only map its draws to entries and write both triangles
through _hermitian, which sample_gse uses for the block A of its
[[A, B], [B^H, A^T]] form.  The tridiagonal model's stream (diagonal
normals, then gammas) is coded once, in sample_tridiag_beta.  One table,
_ENSEMBLES, gives each kind its implied beta and its sampler; a kind's
value is its one name, the command line's too.  A spec says what to draw
and a seed which draw: every sampler builds its EnsembleSpec, which checks
n (an integer >= 1) and beta (in BETAS, and given where the kind implies
none), then checks the seed, an integer in [0, 2**64) (PCG64 seeds are
64-bit; a wider seed would alias a narrower one), by the rules of errors,
before it draws.  Per-trial seeds are derived from a master seed in the
same range by SplitMix64 mixing; stats drives every trial loop from them.
"""

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateInputError, ShapeError, UnsupportedError
from .errors import integer, one_of, strictly_increasing, uint64

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

BETAS = (1, 2, 4)  # the Dyson indices the package samples and normalizes


def mix_trial_seed(master_seed, trial):
    """Derive the RNG seed for one trial: SplitMix64 finalizer applied to
    master_seed XOR (trial+1) * golden-ratio constant.

    The map is a bijection of the 64-bit integers for fixed trial, so
    distinct trials get decorrelated streams and results are independent of
    the order in which trials are executed.
    """
    master_seed = uint64(master_seed, "master seed")
    trial = integer(trial, "trial index", least=0)
    z = master_seed ^ (((trial + 1) * _GOLDEN) & _MASK64)
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class EnsembleKind(str, Enum):
    GOE = "goe"
    GUE = "gue"
    GSE = "gse"
    WIGNER_REAL_MATCHED = "wigner-real"
    WIGNER_HERMITIAN_MATCHED = "wigner-hermitian"
    TRIDIAG_BETA = "tridiag"


# kind's value -> (implied beta, None for the tridiagonal model whose beta is
# a parameter; the sampler of a spec).  A kind hashes and compares as its value,
# so it finds itself here, and the keys are the kinds EnsembleSpec accepts.
# Samplers are looked up by name when called, so rebinding one reaches sample().
_ENSEMBLES = {
    EnsembleKind.GOE.value: (1, lambda s, seed: sample_goe(s.n, seed)),
    EnsembleKind.GUE.value: (2, lambda s, seed: sample_gue(s.n, seed)),
    EnsembleKind.GSE.value: (4, lambda s, seed: sample_gse(s.n, seed)),
    EnsembleKind.WIGNER_REAL_MATCHED.value: (
        1, lambda s, seed: sample_matched_wigner(s.n, seed, symmetry="real")
    ),
    EnsembleKind.WIGNER_HERMITIAN_MATCHED.value: (
        2, lambda s, seed: sample_matched_wigner(s.n, seed, symmetry="hermitian")
    ),
    EnsembleKind.TRIDIAG_BETA.value: (None, lambda s, seed: sample_tridiag_beta(s.n, s.beta, seed)),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from, at what size; a seed says which draw."""

    kind: EnsembleKind
    n: int
    beta: int = 0  # required for TRIDIAG_BETA, implied otherwise

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "matrix size", least=1))
        object.__setattr__(self, "beta", integer(self.beta, "beta"))
        kind = EnsembleKind(one_of(self.kind, "ensemble kind", tuple(_ENSEMBLES)))
        object.__setattr__(self, "kind", kind)
        implied = _ENSEMBLES[kind][0]
        if implied is None:
            if self.beta == 0:
                raise UnsupportedError(f"beta is required for the {kind.value} ensemble")
            one_of(self.beta, "beta", BETAS)
        elif self.beta == 0:
            object.__setattr__(self, "beta", implied)
        elif self.beta != implied:
            raise UnsupportedError(f"{kind.value} implies beta={implied}, got {self.beta}")


@dataclass
class MatrixSample:
    """One sampled matrix with its provenance, a spec and the seed (an int)
    that picked the draw: a dense array, or the diagonal (n,) and
    off-diagonal (n-1,) of a tridiagonal model.

    The arrays alone fix how often the stored spectrum repeats each of the
    ensemble's n eigenvalues: a dense array of order c n repeats each c
    times (c = 2 for the GSE's quaternion embedding, 1 otherwise); spectra
    reads c from the order and, for complex arrays, doubles it through the
    real embedding it solves.
    """

    spec: EnsembleSpec
    seed: int
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
    return np.random.Generator(np.random.PCG64(seed))


# Layouts of orders up to this bound are kept, read-only, after their first
# use: building one is about 15 of sample_goe(8)'s 35-50 us, and all of them
# (n <= 64, c in 1, 2, 4) hold about 0.7 MB.  Larger layouts cost little next
# to their draws and are rebuilt on each call; keeping n = 2000's would hold
# 6 MB.  Threads that miss on the same key at once build equal layouts and
# either one is kept.
_LAYOUT_MEMO_MAX_N = 64
_layout_memo = {}


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
    layout = (r[:, None] < r, at_diag, is_off)
    if n <= _LAYOUT_MEMO_MAX_N:
        for a in layout:
            a.setflags(write=False)
        _layout_memo[(n, c)] = layout
    return layout


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
    """Square matrix with the given diagonal, vals at the True entries of the
    strict upper triangle mask upper (row-major) and their complex conjugates
    at the mirrored entries below the diagonal."""
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
    spec, seed = EnsembleSpec(EnsembleKind.GOE, n), uint64(seed, "seed")
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 1)
    return MatrixSample(spec=spec, seed=seed, array=_hermitian(diag, upper, off[:, 0] / sqrt(2.0)))


def sample_gue(n, seed):
    """Complex Hermitian matrix: diagonal N(0, 1/2), off-diagonal entries with
    independent N(0, 1/4) real and imaginary parts.

    Stream layout: a diagonal entry takes one draw, an off-diagonal entry two
    (Re then Im).
    """
    spec, seed = EnsembleSpec(EnsembleKind.GUE, n), uint64(seed, "seed")
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 2)
    # each row (Re, Im) read as one complex number
    vals = (off * 0.5).view(complex)[:, 0]
    return MatrixSample(spec=spec, seed=seed, array=_hermitian(diag * sqrt(0.5), upper, vals))


def sample_gse(n, seed):
    """Quaternion self-dual matrix as its 2n x 2n complex-Hermitian embedding.

    Off-diagonal quaternion components are N(0, 1/8) (four draws per entry:
    the 1, e1, e2, e3 parts), diagonal entries are real N(0, 1/4) (one draw).
    The quaternion a + b e1 + c e2 + d e3 at (j, k) becomes the 2x2 block
    [[a + ib, c + id], [-c + id, a - ib]] at rows 2j, 2j+1 and columns 2k,
    2k+1.  So the embedding is [[A, B], [B^H, A^T]] block by block: A the
    Hermitian matrix of the a + ib parts over the real diagonal, B the
    antisymmetric matrix of the c + id parts.  Every eigenvalue of the
    embedding appears with multiplicity exactly 2.
    """
    spec, seed = EnsembleSpec(EnsembleKind.GSE, n), uint64(seed, "seed")
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).standard_normal, 4)
    # each row (a, b, c, d) read as the two complex numbers a + ib, c + id
    ab, cd = (off * sqrt(1.0 / 8.0)).view(complex).T
    a = _hermitian(diag * sqrt(1.0 / 4.0), upper, ab)
    b = np.zeros((n, n), dtype=complex)
    b[upper] = cd
    b -= b.T
    h = np.empty((2 * n, 2 * n), dtype=complex)
    # blocks[:, s, :, t] is entry (s, t) of every 2x2 block
    blocks = h.reshape(n, 2, n, 2)
    blocks[:, 0, :, 0] = a
    blocks[:, 0, :, 1] = b
    blocks[:, 1, :, 0] = b.conj().T
    blocks[:, 1, :, 1] = a.T
    # conjugating B's zero diagonal gave -0 imaginary parts, at h[2j+1, 2j]
    h.reshape(-1)[2 * n :: 4 * n + 2] = 0.0
    return MatrixSample(spec=spec, seed=seed, array=h)


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
    one_of(symmetry, "symmetry", ("real", "hermitian"))
    hermitian = symmetry == "hermitian"
    kind = EnsembleKind.WIGNER_HERMITIAN_MATCHED if hermitian else EnsembleKind.WIGNER_REAL_MATCHED
    spec, seed = EnsembleSpec(kind, n), uint64(seed, "seed")
    upper, diag, off = _upper_triangle_draws(n, _rng(seed).random, 2 if hermitian else 1)
    if hermitian:
        parts = _three_point(off, _HERMITIAN_MATCHED_C)
        vals, diag_variance = parts[:, 0] + 1j * parts[:, 1], 0.5
    else:
        vals, diag_variance = _three_point(off[:, 0], _REAL_MATCHED_C), 1.0
    array = _hermitian(ndtri(diag) * sqrt(diag_variance), upper, vals)
    return MatrixSample(spec=spec, seed=seed, array=array)


def sample_tridiag_beta(n, beta, seed):
    """Symmetric tridiagonal model H_beta / sqrt(beta) (Dumitriu-Edelman),
    whose spectrum follows the beta-ensemble eigenvalue density with weight
    exp(-(beta/2) sum x_i^2), the convention of every other sampler.

    H_beta has N(0, 1) diagonal entries and, as its k-th off-diagonal entry
    (k = 1..n-1), (1/sqrt(2)) chi with beta*(n-k) degrees of freedom.  Chi
    draws are sqrt(2 * Gamma(dof/2, 1)) using the generator's standard gamma
    sampler.  Stream layout: the n diagonal normals first, then the n-1
    gamma draws in k order.
    """
    spec, seed = EnsembleSpec(EnsembleKind.TRIDIAG_BETA, n, beta=beta), uint64(seed, "seed")
    rng = _rng(seed)
    diag = rng.standard_normal(n) / sqrt(beta)
    dof = beta * np.arange(n - 1, 0, -1, dtype=float)
    offdiag = np.sqrt(2.0 * rng.standard_gamma(dof / 2.0)) / sqrt(2.0 * beta)
    return MatrixSample(spec=spec, seed=seed, diag=diag, offdiag=offdiag)


def superpose_decimate_even(spectrum_a, spectrum_b):
    """Merge two spectra and keep the particles at even positions (2, 4, ...,
    counting from 1).

    With spectrum_a from a size-n GOE and spectrum_b from an independent
    size-(n+1) GOE this reproduces the size-n GUE spectrum in law.  Exact
    ties in the merged list occur with probability zero and are rejected so
    the caller can resample.
    """
    a = strictly_increasing(spectrum_a, "spectrum_a")
    b = strictly_increasing(spectrum_b, "spectrum_b")
    merged = np.concatenate([a, b])
    merged.sort()
    if (merged[1:] == merged[:-1]).any():
        raise DegenerateInputError("exact tie in superposed spectra; resample")
    return merged[1::2]


def gse_from_goe(spectrum):
    """Even-position particles of a size-(2n+1) spectrum, scaled by 1/sqrt(2).

    Applied to a GOE_(2n+1) spectrum this reproduces the GSE_n spectrum in
    law.  (Scaling the decimated eigenvalues is equivalent to scaling the
    matrix itself.)
    """
    y = strictly_increasing(spectrum, "spectrum")
    if y.size % 2 == 0:
        raise ShapeError(f"expected odd-length spectrum, got length {y.size}")
    return y[1::2] / sqrt(2.0)


def sample(spec: EnsembleSpec, seed):
    """Draw spec at seed: the sample of the sampler for ``spec.kind``."""
    return _ENSEMBLES[spec.kind][1](spec, seed)
