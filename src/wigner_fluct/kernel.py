"""Determinantal kernel computations for the complex Hermitian (beta = 2)
Gaussian ensemble: weighted Hermite functions, the n-level kernel

    K_n(x, y) = sum_{i=0}^{n-1} phi_i(x) phi_i(y) exp(-(x^2+y^2)/2),

exact counting expectations/variances from the Gram matrix, Nystrom
discretization of the kernel operator on an interval (a strictly increasing
pair, either end possibly infinite), and the counting-statistic cumulant engine.

phi_i are the orthonormal Hermite polynomials for the weight exp(-x^2); the
code works throughout with the weighted functions psi_i = phi_i exp(-x^2/2),
evaluated by the stable three-term recurrence

    psi_{i+1} = x sqrt(2/(i+1)) psi_i - sqrt(i/(i+1)) psi_{i-1}.

The recurrence is carried with explicit power-of-two scaling (mantissa plus
integer exponent per point): the seed psi_0 = pi^(-1/4) exp(-x^2/2)
underflows for |x| > 38, yet the terminal values psi_{n-2..n} are O(1) in
the bulk, so unscaled upward recursion silently zeroes the outer bulk for
n >= 1000.  Scaling keeps the evaluation exact up to n = 10^4 on
|x| <= sqrt(2n) + 10; the scale is checked once every 16 steps, which the
per-step growth bound on that range allows without changing a bit of the
descaled values.

Every psi evaluation reads _psi_table: hermite_psi takes its last row,
kernel_diag the last three for the confluent Christoffel-Darboux form
K_n(x, x) = n psi_{n-1}^2 - sqrt(n(n-1)) psi_{n-2} psi_n, and the Gram and
Nystrom paths the whole table.  The table has two layouts, chosen only by
the number of points.  The vector layout steps all points at once with
numpy; its fixed cost of a few numpy calls per step dominates for few
points.  Up to _FEW_POINTS = 16 points (the Gram path's finite interval
ends, the scalar x of kernel_diag and hermite_psi) the scalar layout runs
the recurrence for each point alone in Python floats instead, with one
exponent per 16-step block.  At n = 1000 on a 2-vCPU x86-64 host, one BLAS
thread, one point costs 0.2 ms (step weights cached per n) against
3.2-3.6 ms for the vector layout, and the two cost the same at 16-18
points.  Both perform the same IEEE operations in the same order, with
the same scale checks and exact power-of-two scalings, so every psi value
is bit-identical in both.

Counting statistics use no quadrature.  The count in I is a sum of
independent Bernoulli(eig G), G_ij = int_I psi_i psi_j the n x n Gram
compression (Hough-Krishnapur-Peres-Virag, Probab. Surveys 2006), so
E#I = tr G and Var#I = tr G - ||G||_F^2 exactly; G = G(a) - G(b) on
I = (a, b), with G(t) = int_t^inf.  At an infinite end, or one that the
truncation clips, G takes its closed form G(-inf) = I or G(inf) = 0, so psi
runs only at the finite ends: a half-line costs one recurrence, and the
whole line none (G = I, so E = n and Var = 0 exactly), nor an interval
that the truncation empties (G = 0).  The Hermite equation and the relation
psi_i' = sqrt(2i) psi_{i-1} - x psi_i give, for i != j,

    G(t)_ij = [sqrt(2j) psi_i psi_{j-1} - sqrt(2i) psi_{i-1} psi_j](t) / (2(j - i)),

and integrating x psi_k psi_{k+1} through the three-term relation gives the
diagonal as one cumulative sum from G_00 = erfc(t)/2,

    G_{k+1,k+1} = G_kk + [sqrt(k+2) G_{k,k+2} - sqrt(k) G_{k-1,k+1}] / sqrt(k+1).

Both need only psi_0 .. psi_n at t, from the scaled recurrence.  With the
factors u, v of G = G(a) - G(b), two columns per finite end, the strict
upper triangle's square sum is

    sum_{i<j} (u_i . v_j)^2 / (4(j - i)^2)
        = sum_{c <= d} (2 - [c = d]) <u_c o u_d, T (v_c o v_d)>,

correlations of elementwise column products with the upper-triangular
Toeplitz matrix T, T_ij = 1 / (4(j - i)^2) for j > i, all from one batched
real FFT: ten on a window and three on a half-line, O(n log n) time and
O(n) memory for the variance.  At n = 1000 (same host) the moments of a
half-line take 0.44 ms, of a window 0.91 ms, of the whole line 0.01 ms.

The Nystrom operator of K_n on an interval, with quadrature nodes x_a and
weights w_a, is A = S^T S for S_ia = psi_i(x_a) sqrt(w_a), i < n, because
K_n(x, y) = sum_{i<n} psi_i(x) psi_i(y); S comes from the same psi table as
the Gram matrix.  One BLAS syrk forms the smaller of S^T S (nodes x nodes)
and S S^T (n x n).  Both have A's nonzero spectrum, so the trace, the band
and the cumulants are those of A.  The band -1e-8 <= A <= 1 + 1e-8 is
checked by two Cholesky factorizations, of A + 1e-8 I and of
(1 + 1e-8) I - A, instead of an eigendecomposition; the cumulants come from
the upper triangle of A A, one more syrk.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import erfc, ldexp, pi, sqrt

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DiscretizationFailureError, DomainError, NumericalFailureError
from .errors import NumericalRangeError, ShapeError, finite, integer, rank, strictly_increasing

_LOG2E = 1.4426950408889634  # 1 / ln 2
_MAX_HERMITE_INDEX = 10**4
_RESCALE_EVERY = 16  # psi recurrence steps between scale checks; see _psi_scaled
_SCALE_HI, _SCALE_LO, _SCALE_SHIFT = 2.0**300, 2.0**-300, 600  # thresholds, power-of-two shift
_FEW_POINTS = 16  # psi tables of at most this many points run the scalar layout
MIN_QUADRATURE_ORDER = 16  # Gauss-Legendre nodes per panel, the least discretize_operator takes
_BAND = (-1e-8, 1.0 + 1e-8)  # admitted spectrum of a Nystrom operator
_TINY = np.finfo(float).tiny  # smallest normal double


def _hermite_guard(i):
    """Index guard; the evaluation is validated for |x| <= sqrt(2i) + 10,
    and beyond that psi underflows to an exact 0 (correct to double
    precision), so only the index range is a hard limit."""
    if integer(i, "Hermite index", least=0) > _MAX_HERMITE_INDEX:
        raise NumericalRangeError(
            f"Hermite index {i} above supported maximum {_MAX_HERMITE_INDEX}"
        )


def _psi_seed(x):
    """psi_0 and psi_1 as (mantissa, exponent) pairs; exact for the |x| range
    admitted by the index guard."""
    l0 = -0.5 * x * x * _LOG2E
    expo = np.floor(l0).astype(np.int64)
    m0 = np.pi ** -0.25 * np.exp2(l0 - expo)
    m1 = sqrt(2.0) * x * m0
    return m0, m1, expo


@lru_cache(maxsize=16)
def _recurrence_weights(n):
    """sqrt(2/(i+1)) and sqrt(i/(i+1)) for the steps i = 1 .. n-1, as tuples
    of Python floats, computed once per n and shared."""
    steps = np.arange(1, n)
    return tuple(np.sqrt(2.0 / (steps + 1)).tolist()), tuple(np.sqrt(steps / (steps + 1)).tolist())


def _exponent_shift(a):
    """Exponent shift into 2^(+-300) of a = |psi_{i-1}| + |psi_i|, float or
    array: -600 above, +600 below (not at 0), else 0; 1 * makes the bools ints."""
    return _SCALE_SHIFT * (1 * ((a < _SCALE_LO) & (a > 0.0)) - (a > _SCALE_HI))


def _rescale(pm, pc, expo):
    shift = _exponent_shift(np.abs(pc) + np.abs(pm))
    return np.ldexp(pm, shift), np.ldexp(pc, shift), expo - shift


def _psi_scaled(n, x):
    """Yield psi_0 .. psi_n (psi_0, psi_1 at n = 0) at the points x as
    (mantissa, exponent) pairs, psi_i = ldexp(mantissa, exponent), by the
    scaled upward recurrence, one numpy step for all points: the vector
    layout of _psi_table, which hermite_psi, kernel_diag and the Gram and
    Nystrom paths read, for more than _FEW_POINTS = 16 points.

    The scale is checked every _RESCALE_EVERY = 16 steps.  On the admitted
    range |x| <= sqrt(2 * 10^4) + 10 one step changes the pair
    |psi_{i-1}| + |psi_i| by a factor of at most 2^7.8 either way, so 16
    unchecked steps move it at most 2^125 past the 2^(+-300) thresholds of
    _exponent_shift, far from overflow and from the subnormal range.  There
    every power-of-two scaling is exact, so the descaled values are
    bit-identical to those of a check after every step.  _psi_point is the
    same recurrence for one point in Python floats: the same IEEE operations
    in the same order, x * u * pc - d * pm, the same checks and the same
    exact scalings by _exponent_shift, so its values are bit-identical to these."""
    pm, pc, expo = _psi_seed(x)
    yield pm, expo
    for i, (u, d) in enumerate(zip(*_recurrence_weights(n)), start=1):
        pm, pc = pc, x * u * pc - d * pm
        if i % _RESCALE_EVERY == 0:
            pm, pc, expo = _rescale(pm, pc, expo)
        yield pm, expo
    yield pc, expo


def _psi_point(x, pm, pc, expo, up, down):
    """The scalar layout of _psi_scaled at one point x, from its seed
    psi_0 = (pm, expo) and psi_1 = (pc, expo) and the step weights up, down
    of _recurrence_weights, as two lists of Python floats and ints: the
    mantissas of psi_0 .. psi_n, and one exponent per block psi_16k ..
    psi_16k+15, the blocks between scale checks.  The last exponent comes
    twice, so that psi_n has one also when n % 16 == 0: no check follows
    the step that gives psi_n, which keeps the exponent of the block before."""
    mant, expos = [pm], [expo]
    for i, (u, d) in enumerate(zip(up, down), start=1):
        pm, pc = pc, x * u * pc - d * pm
        if i % _RESCALE_EVERY == 0:
            shift = _exponent_shift(abs(pc) + abs(pm))
            pm, pc, expo = ldexp(pm, shift), ldexp(pc, shift), expo - shift
            expos.append(expo)
        mant.append(pm)
    mant.append(pc)
    expos.append(expo)
    return mant, expos


def _psi_table(n, x, rows=None):
    """The last rows of psi_0 .. psi_n (all n + 1 by default) at the points x
    (n >= 0), one row per index, descaled to plain floats by ldexp: values
    below the normal range come out subnormal, and only those below the
    subnormal range are 0.
    Every psi evaluation passes through here.  At most _FEW_POINTS points
    run the scalar layout, one _psi_point loop per point; more run the
    vector layout of _psi_scaled.  Both skip the first n + 1 - rows indices
    and write each descaled row or column into the table in place."""
    _hermite_guard(n)
    x = finite(x, "points")
    rows = n + 1 if rows is None else rows
    skip = n + 1 - rows
    table = np.empty((rows,) + x.shape)
    if x.size <= _FEW_POINTS:
        flat = x.ravel()
        up, down = _recurrence_weights(n)
        columns = table.reshape(rows, -1)
        seeds = zip(flat.tolist(), *(part.tolist() for part in _psi_seed(flat)))
        for column, seed in zip(columns.T, seeds):
            mant, expos = _psi_point(*seed, up, down)
            expos = np.repeat(expos, _RESCALE_EVERY)[skip : n + 1]
            np.ldexp(mant[skip : n + 1], expos, out=column)
    else:
        for row, (m, e) in zip(table, islice(_psi_scaled(n, x), skip, None)):
            np.ldexp(m, e, out=row)
    return table


def hermite_psi(i, x):
    """Weighted orthonormal Hermite function psi_i(x) = phi_i(x) e^{-x^2/2},
    the last row of _psi_table."""
    psi = _psi_table(i, x, rows=1)[0]
    return psi if np.ndim(x) else float(psi)


def kernel_diag(n, x):
    """K_n(x, x) = n psi_{n-1}^2 - sqrt(n(n-1)) psi_{n-2} psi_n (confluent
    Christoffel-Darboux) from the last three rows of _psi_table; at n = 1 the
    two rows psi_0, psi_1 serve, and the second term is 0 psi_0 psi_1 = 0."""
    integer(n, "kernel order", least=1)
    top = _psi_table(n, x, rows=min(n + 1, 3))
    p2, p1, p0 = top[0], top[-2], top[-1]
    out = n * p1 * p1 - sqrt(n * (n - 1.0)) * p2 * p0
    return out if np.ndim(x) else float(out)


def truncation_halfwidth(n):
    """|x| beyond which the kernel is negligible: sqrt(2n) + 10."""
    return sqrt(2.0 * n) + 10.0


def _clip_interval(n, interval):
    """The Gram and Nystrom paths' one interval check: a strictly increasing pair."""
    integer(n, "kernel order", least=1)
    pair = strictly_increasing(interval, "interval")
    if pair.size != 2:
        raise ShapeError(f"interval must be a pair (a, b), got shape {pair.shape}")
    lim = truncation_halfwidth(n)
    return max(float(pair[0]), -lim), min(float(pair[1]), lim)


@lru_cache(maxsize=16)
def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights of the order on [-1, 1], computed
    once per order and shared read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for part in rule:
        part.flags.writeable = False
    return rule


def _composite_gl(n, a, b, order, wavelengths_per_panel):
    """Composite Gauss-Legendre nodes/weights on [a, b], with panels sized by
    the local oscillation wavelength pi / sqrt(2n) of the kernel."""
    lam = pi / sqrt(2.0 * n)
    width = wavelengths_per_panel * lam
    panels = max(1, int(np.ceil((b - a) / width)))
    xg, wg = _gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _half_line_gram(n, x):
    """p_i = psi_i(t), q_i = sqrt(2i) psi_{i-1}(t) (i < n) and the diagonal of
    G(t), one column per point t of x; off the diagonal of G(t),
    G(t)_ij = (p_i q_j - q_i p_j) / (2(j - i))."""
    p = _psi_table(n, x)
    q = np.sqrt(2.0 * np.arange(n + 1))[:, None] * np.vstack([np.zeros_like(x), p[:-1]])
    # h[k] = G_{k-1,k+1}, with G_{-1,1} = 0
    h = np.vstack([np.zeros_like(x), 0.25 * (p[:-2] * q[2:] - q[:-2] * p[2:])])
    k = np.arange(n - 1.0)[:, None]
    steps = (np.sqrt(k + 2.0) * h[1:] - np.sqrt(k) * h[:-1]) / np.sqrt(k + 1.0)
    g00 = np.array([0.5 * erfc(t) for t in x])
    diag = np.vstack([g00, g00 + np.cumsum(steps, axis=0)])
    return p[:n], q[:n], diag


def _interval_gram(n, interval):
    """(u, v, diag) of G = G(a) - G(b) on the clipped interval (a, b):
    G_ij = u_i . v_j / (2(j - i)) for i != j.

    psi runs only at the ends strictly inside the clip range (-lim, lim).
    An end on or beyond it, clipped or given, is infinite, where the kernel
    is negligible by the truncation contract, and G takes its closed form
    there: G(t) = I for t <= -lim and G(t) = 0 for t >= lim.  u and v have
    two columns per finite end.  Without a finite end they have none, and
    G = I on the whole line and G = 0 on an interval that the clip empties."""
    a, b = _clip_interval(n, interval)
    lim = truncation_halfwidth(n)
    # the infinite ends' part of G(a) - G(b): 1 from a = -lim, cancelled by
    # b <= -lim, where the clip empties the interval
    closed = float(a <= -lim) - float(b <= -lim)
    ends = [(t, sign) for t, sign in ((a, 1.0), (b, -1.0)) if -lim < t < lim]
    if not ends:
        return np.zeros((n, 0)), np.zeros((n, 0)), np.full(n, closed)
    cuts, signs = np.array(ends).T
    p, q, diag = _half_line_gram(n, cuts)
    u = np.hstack([p * signs, -q * signs])
    return u, np.hstack([q, p]), closed + diag @ signs


def expected_count(n, interval):
    """Expected number of eigenvalues in the interval: tr G, O(n)."""
    return _count_moments(n, interval, variance=False)[0]


def variance_count(n, interval):
    """Variance of the eigenvalue count in the interval: tr G - ||G||_F^2,
    with the strict upper triangle of G summed as ten FFT correlations on
    a window and three on a half-line, O(n log n); exactly 0 on the whole
    line."""
    return _count_moments(n, interval, variance=True)[1]


def _count_moments(n, interval, variance):
    """(expected_count, variance_count) of the interval from one Gram
    factorization; the variance is None unless asked for."""
    u, v, diag = _interval_gram(n, interval)
    mean = float(np.sum(diag))
    if not variance:
        return mean, None
    return mean, float(np.dot(diag, 1.0 - diag)) - 2.0 * _upper_square_sum(u, v)


def _upper_square_sum(u, v):
    """sum_{i<j} (u_i . v_j)^2 / (4(j - i)^2) for the n x 4 factors u, v
    (n x 2 on a half-line) as the ten (three) correlations of the module
    docstring: the products u_c o u_d and the Toeplitz kernel 1 / (4 d^2) go
    through one batched rfft of length 2n, where the linear convolutions do
    not wrap.  Factors without columns (the whole line, G = I) give 0 with
    no transform.  Subnormal inputs (psi at an end near the clip range, at
    large n) slow the transform about tenfold, so they are zeroed: each is
    below 2.3e-308, and the sum moves by less than 1e-298 for n <= 10^4."""
    if not u.size:
        return 0.0
    n = u.shape[0]
    c, d = np.triu_indices(u.shape[1])
    batch = np.zeros((c.size + 1, n))
    batch[:-1] = (u[:, c] * u[:, d]).T
    batch[-1, 1:] = 0.25 / np.arange(1.0, n) ** 2
    batch[np.abs(batch) < _TINY] = 0.0
    freq = np.fft.rfft(batch, n=2 * n)
    conv = np.fft.irfft(freq[:-1] * freq[-1], n=2 * n)[:, :n]
    return float(np.vdot(conv, (v[:, c] * v[:, d] * (2.0 - (c == d))).T))


@dataclass
class KernelOperator:
    """Nystrom discretization of K_n restricted to an interval.

    A[a, b] = sqrt(w_a) K_n(x_a, x_b) sqrt(w_b) is S^T S for
    S_ia = psi_i(x_a) sqrt(w_a), i < n.  matrix is the smaller of S^T S and
    S S^T, of order min(n, nodes): symmetric, with A's nonzero spectrum,
    which discretizes the operator inequality 0 <= A <= 1.
    """

    nodes: np.ndarray
    matrix: np.ndarray
    n: int

    @property
    def size(self):
        return self.nodes.size


def _check_band(matrix, n):
    """Raise DiscretizationFailureError unless the spectrum of the symmetric
    matrix lies in [lo, hi] = _BAND.  By Sylvester's law of inertia it does
    (up to O(size * eps)) iff A - lo I and hi I - A are both positive
    definite, i.e. iff both Cholesky factorizations succeed; they run in
    place in one Fortran-ordered scratch matrix.  Only a failure pays for
    the eigenvalues that the error reports."""
    lo, hi = _BAND
    diag = np.arange(matrix.shape[0])
    # matrix.T holds the same symmetric matrix, already in Fortran order
    # when matrix is C-ordered, so both fills are plain copies
    work = np.array(matrix.T, order="F")
    work[diag, diag] -= lo
    ok = lapack.dpotrf(work, overwrite_a=1, clean=0)[1] == 0
    if ok:
        np.negative(matrix.T, out=work)
        work[diag, diag] += hi
        ok = lapack.dpotrf(work, overwrite_a=1, clean=0)[1] == 0
    if not ok:
        eigs = np.linalg.eigvalsh(matrix)
        raise DiscretizationFailureError(
            "Nystrom spectrum escapes [0, 1] band; raise the quadrature order",
            min_eig=float(eigs[0]),
            max_eig=float(eigs[-1]),
            n=n,
        )


def discretize_operator(n, interval, order=32, wavelengths_per_panel=3.0, validate_band=True):
    """Build the Nystrom operator and validate it: Tr A must match
    expected_count to 1e-6 (relative once the count exceeds 1) and the
    spectrum must lie in [-1e-8, 1 + 1e-8].

    The band check costs two Cholesky factorizations of the operator matrix
    (O(min(n, size)^3 / 3) each); callers building very large operators may
    pass validate_band=False after having established the band on a coarser
    version of the same interval.
    """
    integer(order, "quadrature order", least=MIN_QUADRATURE_ORDER)
    label = "wavelengths per panel"
    wavelengths_per_panel = float(rank(finite(wavelengths_per_panel, label), label, 0))
    if not wavelengths_per_panel > 0.0:
        raise DomainError(f"{label} must be > 0, got {wavelengths_per_panel}")
    a, b = _clip_interval(n, interval)
    if a >= b:
        raise ShapeError(f"interval {interval} is empty after truncation")
    nodes, weights = _composite_gl(n, a, b, order, wavelengths_per_panel)
    # S = s (n x nodes); syrk reads S^T in place as s.T and forms the upper
    # triangle of S S^T when there are at least n nodes, else of S^T S = A
    s = _psi_table(n, nodes)[:n]
    s *= np.sqrt(weights)
    upper = blas.dsyrk(1.0, s.T, trans=int(nodes.size >= n))
    matrix = upper.T + np.triu(upper, 1)  # C-ordered, mirrored
    op = KernelOperator(nodes=nodes, matrix=matrix, n=n)

    tr = float(np.trace(matrix))
    ref = expected_count(n, (a, b))
    if abs(tr - ref) > 1e-6 * max(1.0, abs(ref)):
        raise DiscretizationFailureError(
            "Nystrom trace disagrees with the exact Gram expectation",
            trace=tr,
            expected=ref,
            n=n,
        )
    if validate_band:
        _check_band(matrix, n)
    return op


@dataclass(frozen=True)
class CumulantReport:
    """Cumulants C_2..C_4 of the eigenvalue count, plus the power traces."""

    c2: float
    c3: float
    c4: float
    traces: dict

    def normalized(self):
        """(|C_3| / C_2^{3/2}, |C_4| / C_2^2): both must vanish as the
        variance grows for the counting CLT to hold.  Divided step by step,
        since the powers of a tiny C_2 underflow to 0; inf when C_2 <= 0."""
        if self.c2 <= 0.0:
            return float("inf"), float("inf")
        return abs(self.c3) / self.c2 / sqrt(self.c2), abs(self.c4) / self.c2 / self.c2


def counting_cumulants(op: KernelOperator):
    """Counting-statistic cumulants C_2, C_3, C_4 from the operator power
    traces T_l = Tr(A^l).  A determinantal count is a sum of independent
    Bernoulli(eig A), whose cumulants are
      C_2 = T_1 - T_2,
      C_3 = T_1 - 3 T_2 + 2 T_3,
      C_4 = T_1 - 7 T_2 + 12 T_3 - 6 T_4.
    A is symmetric, so one product A2 = A A gives them all:
    T_2 = ||A||_F^2, T_3 = <A2, A> and T_4 = ||A2||_F^2 (Frobenius).  BLAS
    syrk forms only the upper triangle U of A2 (zeros below), so
    T_3 = 2 <U, A> - <diag U, diag A> and T_4 = 2 ||U||_F^2 - ||diag U||^2.
    """
    a = op.matrix
    # A itself in Fortran order, which syrk reads in place (A^T = A)
    af = a.T if a.flags.c_contiguous else np.asfortranarray(a)
    upper = blas.dsyrk(1.0, af)
    # Frobenius products on C-ordered views: np.vdot copies any other layout
    ac, uc = af.T, upper.T
    du, da = np.diagonal(upper), np.diagonal(a)
    traces = {
        1: float(np.trace(a)),
        2: float(np.vdot(ac, ac)),
        3: float(2.0 * np.vdot(uc, ac) - np.dot(du, da)),
        4: float(2.0 * np.vdot(uc, uc) - np.dot(du, du)),
    }
    t1, t2, t3, t4 = (traces[l] for l in range(1, 5))
    c2 = t1 - t2
    if c2 < -1e-10:
        raise NumericalFailureError("count variance came out negative", c2=c2, n=op.n)
    return CumulantReport(
        c2=c2, c3=t1 - 3.0 * t2 + 2.0 * t3, c4=t1 - 7.0 * t2 + 12.0 * t3 - 6.0 * t4, traces=traces
    )
