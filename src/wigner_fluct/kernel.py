"""Determinantal kernel computations for the complex Hermitian (beta = 2)
Gaussian ensemble: weighted Hermite functions, the n-level kernel

    K_n(x, y) = sum_{i=0}^{n-1} phi_i(x) phi_i(y) exp(-(x^2+y^2)/2),

exact counting expectations/variances from the Gram matrix, Nystrom
discretization of the kernel operator on an interval, and the
counting-statistic cumulant engine.

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

Evaluation of K_n off the diagonal uses the Christoffel-Darboux form

    K_n(x, y) = sqrt(n/2) [psi_n(x) psi_{n-1}(y) - psi_{n-1}(x) psi_n(y)] / (x - y)

and its confluent limit n psi_{n-1}^2 - sqrt(n(n-1)) psi_{n-2} psi_n on the
diagonal.

Counting statistics use no quadrature.  The count in I is a sum of
independent Bernoulli(eig G), G_ij = int_I psi_i psi_j the n x n Gram
compression (Hough-Krishnapur-Peres-Virag, Probab. Surveys 2006), so
E#I = tr G and Var#I = tr G - ||G||_F^2 exactly; G = G(a) - G(b) on
I = (a, b), with G(t) = int_t^inf.  The Hermite equation and the relation
psi_i' = sqrt(2i) psi_{i-1} - x psi_i give, for i != j,

    G(t)_ij = [sqrt(2j) psi_i psi_{j-1} - sqrt(2i) psi_{i-1} psi_j](t) / (2(j - i)),

and integrating x psi_k psi_{k+1} through the three-term relation gives the
diagonal as one cumulative sum from G_00 = erfc(t)/2,

    G_{k+1,k+1} = G_kk + [sqrt(k+2) G_{k,k+2} - sqrt(k) G_{k-1,k+1}] / sqrt(k+1).

Both need only psi_0 .. psi_n at t, from the scaled recurrence.  The
variance streams the strict upper triangle of G in fixed blocks of rows.

The Nystrom operator A of K_n on an interval is checked against the band
-1e-8 <= A <= 1 + 1e-8 by two Cholesky factorizations, of A + 1e-8 I and of
(1 + 1e-8) I - A, instead of an eigendecomposition; its cumulants come from
the upper triangle of A A, one BLAS syrk.
"""

from collections import deque
from dataclasses import dataclass
from math import erfc, pi, sqrt

import numpy as np
from scipy.linalg import blas, lapack

from .errors import (
    DiscretizationFailureError,
    NumericalFailureError,
    NumericalRangeError,
    ShapeError,
    UnsupportedError,
)

_LOG2E = 1.4426950408889634  # 1 / ln 2
_MAX_HERMITE_INDEX = 10**4
_GRAM_BLOCK_ROWS = 64  # rows of G per streamed block: 64 x n doubles
_RESCALE_EVERY = 16  # psi recurrence steps between scale checks; see _psi_scaled
_BAND = (-1e-8, 1.0 + 1e-8)  # admitted spectrum of a Nystrom operator


def _hermite_guard(i):
    """Index guard; the evaluation is validated for |x| <= sqrt(2i) + 10,
    and beyond that psi underflows to an exact 0 (correct to double
    precision), so only the index range is a hard limit."""
    if i < 0:
        raise ShapeError(f"Hermite index must be >= 0, got {i}")
    if i > _MAX_HERMITE_INDEX:
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


def _rescale(pm, pc, expo):
    a = np.abs(pc) + np.abs(pm)
    big = a > 2.0**300
    if np.any(big):
        pc = np.where(big, np.ldexp(pc, -600), pc)
        pm = np.where(big, np.ldexp(pm, -600), pm)
        expo = expo + np.where(big, 600, 0)
    small = (a < 2.0**-300) & (a > 0.0)
    if np.any(small):
        pc = np.where(small, np.ldexp(pc, 600), pc)
        pm = np.where(small, np.ldexp(pm, 600), pm)
        expo = expo - np.where(small, 600, 0)
    return pm, pc, expo


def _psi_scaled(n, x):
    """Yield psi_0 .. psi_n at the points x as (mantissa, exponent) pairs,
    psi_i = ldexp(mantissa, exponent), by the scaled upward recurrence.

    The scale is checked every _RESCALE_EVERY = 16 steps.  On the admitted
    range |x| <= sqrt(2 * 10^4) + 10 one step changes the pair
    |psi_{i-1}| + |psi_i| by a factor of at most 2^7.8 either way, so 16
    unchecked steps move it at most 2^125 past the 2^(+-300) thresholds of
    _rescale, far from overflow and from the subnormal range.  There every
    power-of-two scaling is exact, so the descaled values are bit-identical
    to those of a check after every step."""
    pm, pc, expo = _psi_seed(x)
    yield pm, expo
    steps = np.arange(1, n)
    up = np.sqrt(2.0 / (steps + 1)).tolist()
    down = np.sqrt(steps / (steps + 1)).tolist()
    for i, (u, d) in enumerate(zip(up, down), start=1):
        pm, pc = pc, x * u * pc - d * pm
        if i % _RESCALE_EVERY == 0:
            pm, pc, expo = _rescale(pm, pc, expo)
        yield pm, expo
    yield pc, expo


def _psi_top_three(n, x):
    """psi_{n-2}, psi_{n-1}, psi_n at the points x (n >= 1), descaled to
    plain floats (values below the double-precision floor flush to zero,
    which is exact to working precision)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _hermite_guard(n)
    top = deque(_psi_scaled(n, x), maxlen=3)
    if n == 1:
        top.appendleft((np.zeros_like(x), 0))
    return tuple(np.ldexp(m, e) for m, e in top)


def hermite_psi(i, x):
    """Weighted orthonormal Hermite function psi_i(x) = phi_i(x) e^{-x^2/2}."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _hermite_guard(i)
    if i == 0:
        out = np.pi**-0.25 * np.exp(-0.5 * x_arr * x_arr)
    else:
        _, _, top = _psi_top_three(i, x_arr)
        out = top
    return out if np.ndim(x) else float(out[0])


def _confluent_diag(n, p2, p1, p0):
    """K_n(x, x) from psi_{n-2}, psi_{n-1}, psi_n at x: the confluent
    Christoffel-Darboux form."""
    if n == 1:
        return p1 * p1
    return n * p1 * p1 - sqrt(n * (n - 1.0)) * p2 * p0


def kernel_diag(n, x):
    """K_n(x, x) via the confluent Christoffel-Darboux form."""
    if n < 1:
        raise ShapeError(f"kernel order must be >= 1, got {n}")
    out = _confluent_diag(n, *_psi_top_three(n, x))
    return out if np.ndim(x) else float(out[0])


def _kernel_cross(n, nodes):
    """K_n on the grid nodes x nodes, from one psi recurrence.  Exactly
    coincident points use the confluent form."""
    top = _psi_top_three(n, nodes)
    _, p1, p0 = top
    num = p0[:, None] * p1[None, :] - p1[:, None] * p0[None, :]
    den = nodes[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = sqrt(n / 2.0) * num / den
    eq = den == 0.0
    if np.any(eq):
        k[eq] = np.broadcast_to(_confluent_diag(n, *top)[:, None], k.shape)[eq]
    return k


def truncation_halfwidth(n):
    """|x| beyond which the kernel is negligible: sqrt(2n) + 10."""
    return sqrt(2.0 * n) + 10.0


def _clip_interval(n, interval):
    a, b = interval
    if not a < b:
        raise ShapeError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
    lim = truncation_halfwidth(n)
    return max(float(a), -lim), min(float(b), lim)


def _composite_gl(n, a, b, order, wavelengths_per_panel):
    """Composite Gauss-Legendre nodes/weights on [a, b], with panels sized by
    the local oscillation wavelength pi / sqrt(2n) of the kernel."""
    lam = pi / sqrt(2.0 * n)
    width = wavelengths_per_panel * lam
    panels = max(1, int(np.ceil((b - a) / width)))
    xg, wg = np.polynomial.legendre.leggauss(order)
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
    _hermite_guard(n)
    p = np.array([np.ldexp(m, e) for m, e in _psi_scaled(n, x)])
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
    G_ij = u_i . v_j / (2(j - i)) for i != j.  None when the interval is empty."""
    if n < 1:
        raise ShapeError(f"kernel order must be >= 1, got {n}")
    a, b = _clip_interval(n, interval)
    if a >= b:
        return None
    p, q, diag = _half_line_gram(n, np.array([a, b]))
    u = np.hstack([p * [1.0, -1.0], q * [-1.0, 1.0]])
    return u, np.hstack([q, p]), diag[:, 0] - diag[:, 1]


def expected_count(n, interval):
    """Expected number of eigenvalues in the interval: tr G, O(n)."""
    return _count_moments(n, interval, variance=False)[0]


def variance_count(n, interval):
    """Variance of the eigenvalue count in the interval: tr G - ||G||_F^2,
    with the strict upper triangle of G streamed in blocks of rows."""
    return _count_moments(n, interval, variance=True)[1]


def _count_moments(n, interval, variance):
    """(expected_count, variance_count) of the interval from one Gram
    factorization; the variance is None unless asked for."""
    gram = _interval_gram(n, interval)
    if gram is None:
        return 0.0, 0.0 if variance else None
    u, v, diag = gram
    mean = float(np.sum(diag))
    if not variance:
        return mean, None
    offset = np.arange(n)[None, :] - np.arange(_GRAM_BLOCK_ROWS)[:, None]
    inv = np.divide(0.5, offset, out=np.zeros(offset.shape), where=offset > 0)
    upper = 0.0
    for r in range(0, n, _GRAM_BLOCK_ROWS):
        block = (u[r : r + _GRAM_BLOCK_ROWS] @ v[r:].T) * inv[: n - r, : n - r]
        upper += float(np.vdot(block, block))
    return mean, float(np.dot(diag, 1.0 - diag)) - 2.0 * upper


@dataclass
class KernelOperator:
    """Nystrom discretization of K_n restricted to an interval.

    matrix[a, b] = sqrt(w_a) K_n(x_a, x_b) sqrt(w_b); symmetric, and its
    spectrum discretizes the operator inequality 0 <= A <= 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    interval: tuple
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

    The band check costs two Cholesky factorizations (O(size^3 / 3) each);
    callers building very large operators may pass validate_band=False after
    having established the band on a coarser version of the same interval.
    """
    if order < 16:
        raise UnsupportedError(f"quadrature order must be >= 16, got {order}")
    a, b = _clip_interval(n, interval)
    if a >= b:
        raise ShapeError(f"interval {interval} is empty after truncation")
    nodes, weights = _composite_gl(n, a, b, order, wavelengths_per_panel)
    k = _kernel_cross(n, nodes)
    sw = np.sqrt(weights)
    matrix = sw[:, None] * k * sw[None, :]
    matrix = 0.5 * (matrix + matrix.T)
    op = KernelOperator(nodes=nodes, weights=weights, matrix=matrix, interval=(a, b), n=n)

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
        variance grows for the counting CLT to hold."""
        if self.c2 <= 0.0:
            return float("inf"), float("inf")
        return abs(self.c3) / self.c2**1.5, abs(self.c4) / self.c2**2


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
