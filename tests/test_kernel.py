import tracemalloc
from math import factorial, log, pi, sqrt

import numpy as np
import pytest

import wigner_fluct as wf
from wigner_fluct import kernel
from wigner_fluct.kernel import (
    _BAND,
    _check_band,
    _clip_interval,
    _composite_gl,
    _FEW_POINTS,
    _gauss_legendre,
    _hermite_guard,
    _interval_gram,
    _psi_scaled,
    _psi_seed,
    _psi_table,
    _rescale,
    truncation_halfwidth,
)


def hermite_phi(i, x):
    """Orthonormal Hermite polynomial phi_i(x), with
    integral phi_i phi_j e^{-x^2} dx = delta_ij; the package works with
    psi_i only, and this unweighted form checks it against the polynomials.

    Computed as psi_i(x) e^{x^2/2}; raises NumericalRangeError when the
    result (or the unweighting factor) cannot be represented.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _hermite_guard(i)
    if np.any(0.5 * x_arr * x_arr > 700.0):
        raise wf.NumericalRangeError("e^{x^2/2} overflows double precision")
    psi = wf.hermite_psi(i, x_arr)
    out = np.atleast_1d(psi) * np.exp(0.5 * x_arr * x_arr)
    if not np.all(np.isfinite(out)):
        raise wf.NumericalRangeError(f"phi_{i} overflows at |x| up to {np.max(np.abs(x_arr))}")
    return out if np.ndim(x) else float(out[0])


def kernel_point(n, x, y):
    """K_n(x, y): Christoffel-Darboux off the diagonal, confluent form on it;
    the oracle for the Nystrom operator's Hermite-sum form of K_n."""
    if n < 1:
        raise wf.ShapeError(f"kernel order must be >= 1, got {n}")
    if x == y:
        return wf.kernel_diag(n, x)
    p1, p0 = _psi_table(n, [x, y], rows=2)
    return float(sqrt(n / 2.0) * (p0[0] * p1[1] - p1[0] * p0[1]) / (x - y))


def kernel_sum_direct(n, x, y):
    """Direct evaluation sum_i psi_i(x) psi_i(y); O(n) per call, the
    cross-check oracle for the Christoffel-Darboux path at moderate n."""
    total = 0.0
    for i in range(n):
        total += wf.hermite_psi(i, x) * wf.hermite_psi(i, y)
    return total


def phi_polynomial_oracle(i, x):
    """phi_i via the physicists' Hermite polynomial and the norm
    2^i i! sqrt(pi); independent of the weighted recurrence path."""
    coeffs = np.zeros(i + 1)
    coeffs[i] = 1.0
    h = np.polynomial.hermite.hermval(x, coeffs)
    return h / sqrt(2.0**i * factorial(i) * sqrt(pi))


def bernoulli_cumulant_oracle(probs):
    """Exact cumulants (2..4) of a sum of independent Bernoulli(p_i):
    kappa_2 = sum p(1-p), kappa_3 = sum p(1-p)(1-2p),
    kappa_4 = sum p(1-p)(1-6p+6p^2)."""
    p = np.asarray(probs, dtype=float)
    q = 1.0 - p
    return (
        float(np.sum(p * q)),
        float(np.sum(p * q * (1.0 - 2.0 * p))),
        float(np.sum(p * q * (1.0 - 6.0 * p + 6.0 * p * p))),
    )


def quadrature_expected_count(n, interval):
    """Integral of K_n(x, x) over the interval by composite Gauss-Legendre
    panels, refined until two consecutive levels agree to 1e-8; the
    Christoffel-Darboux oracle for the closed-form Gram expectation."""
    a, b = _clip_interval(n, interval)
    if a >= b:
        return 0.0
    prev = None
    for wl in (3.0, 1.5, 0.75, 0.375):
        nodes, weights = _composite_gl(n, a, b, 24, wl)
        val = float(np.sum(weights * wf.kernel_diag(n, nodes)))
        if prev is not None and abs(val - prev) <= 1e-8:
            return val
        prev = val
    raise wf.NumericalFailureError("expectation quadrature did not converge", n=n)


def _trace_pair(n, nodes, weights):
    """(Tr A, Tr A^2) for the Nystrom operator on the given quadrature rule,
    computed in row chunks without materializing the full matrix; each chunk
    takes the columns from its first row on, and the part right of its
    square block stands also for the mirror image below the diagonal."""
    m = nodes.size
    p1, p0 = _psi_table(n, nodes, rows=2)
    kd = wf.kernel_diag(n, nodes)
    tr_a = float(np.sum(weights * kd))
    tr_a2 = 0.0
    chunk = max(1, 2 * 10**6 // m)
    for s in range(0, m, chunk):
        rows, cols = slice(s, min(s + chunk, m)), slice(s, m)
        # Christoffel-Darboux block from the cached psi values, confluent form
        # where a row node meets its own column
        num = p0[rows, None] * p1[None, cols] - p1[rows, None] * p0[None, cols]
        den = nodes[rows, None] - nodes[None, cols]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = sqrt(n / 2.0) * num / den
        eq = den == 0.0
        k[eq] = np.broadcast_to(kd[rows, None], k.shape)[eq]
        sq = weights[rows, None] * weights[None, cols] * k * k
        square = rows.stop - s
        tr_a2 += float(np.sum(sq[:, :square])) + 2.0 * float(np.sum(sq[:, square:]))
    return tr_a, tr_a2


def quadrature_variance_count(n, interval):
    """Tr(A) - Tr(A^2) = int_I K(x,x) - int_I int_I K(x,y)^2 by the same
    panels, refined until two levels agree to 1e-6 relative; the
    Christoffel-Darboux oracle for the Gram variance."""
    a, b = _clip_interval(n, interval)
    if a >= b:
        return 0.0
    prev = None
    for wl in (3.0, 1.5, 0.75):
        nodes, weights = _composite_gl(n, a, b, 24, wl)
        tr_a, tr_a2 = _trace_pair(n, nodes, weights)
        val = tr_a - tr_a2
        if prev is not None and abs(val - prev) <= 1e-6 * max(abs(val), 1e-3):
            return val
        prev = val
    raise wf.NumericalFailureError("variance quadrature did not converge", n=n)


def streamed_variance_count(n, interval, block_rows=64):
    """tr G - ||G||_F^2 with the strict upper triangle of the closed-form Gram
    matrix, G_ij = u_i . v_j / (2(j - i)), formed in blocks of rows: O(n^2)
    time, the oracle for the FFT correlation of variance_count."""
    u, v, diag = _interval_gram(n, interval)
    offset = np.arange(n)[None, :] - np.arange(block_rows)[:, None]
    inv = np.divide(0.5, offset, out=np.zeros(offset.shape), where=offset > 0)
    upper = 0.0
    for r in range(0, n, block_rows):
        block = (u[r : r + block_rows] @ v[r:].T) * inv[: n - r, : n - r]
        upper += float(np.vdot(block, block))
    return float(np.dot(diag, 1.0 - diag)) - 2.0 * upper


def psi_scaled_per_step(n, x):
    """psi_0 .. psi_n at the points x as (mantissa, exponent) pairs, with the
    scale checked after every step of the recurrence; the oracle for the
    package's recurrence, which checks it every 16 steps."""
    pm, pc, expo = _psi_seed(x)
    yield pm, expo
    for i in range(1, n):
        pm, pc = pc, x * sqrt(2.0 / (i + 1)) * pc - sqrt(i / (i + 1)) * pm
        pm, pc, expo = _rescale(pm, pc, expo)
        yield pm, expo
    yield pc, expo


def descaled(pairs):
    return np.array([np.ldexp(m, e) for m, e in pairs])


def rotated_diagonal(eigs, rng):
    """Exactly symmetric Q diag(eigs) Q^T for a random orthogonal Q."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    a = (q * np.asarray(eigs, dtype=float)) @ q.T
    return 0.5 * (a + a.T)


def in_band(matrix):
    try:
        _check_band(matrix, n=0)
    except wf.DiscretizationFailureError:
        return False
    return True


def traced_peak(fn, *args):
    """Peak bytes that fn(*args) allocates through traced allocators."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def diag_operator(probs):
    probs = np.asarray(probs, dtype=float)
    m = probs.size
    return wf.KernelOperator(nodes=np.arange(m, dtype=float), matrix=np.diag(probs), n=m)


class TestHermiteFunctions:
    def test_phi0_constant(self):
        for x in (-3.0, 0.0, 1.7):
            assert hermite_phi(0, x) == pytest.approx(pi**-0.25, rel=1e-14)

    def test_phi1_at_one(self):
        got = hermite_phi(1, 1.0)
        assert got == pytest.approx(sqrt(2.0) * pi**-0.25, rel=1e-13)
        assert got == pytest.approx(phi_polynomial_oracle(1, 1.0), rel=1e-13)
        assert got == pytest.approx(1.06225, abs=5e-5)

    @pytest.mark.parametrize("i", [2, 3, 7, 15, 30])
    def test_matches_polynomial_oracle(self, i):
        xs = np.linspace(-4.0, 4.0, 17)
        got = hermite_phi(i, xs)
        want = phi_polynomial_oracle(i, xs)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-12)

    def test_orthogonality_by_gauss_hermite(self):
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        inner = float(np.sum(weights * hermite_phi(3, nodes) * hermite_phi(5, nodes)))
        assert abs(inner) < 1e-10

    def test_basis_orthonormality(self):
        nodes, weights = np.polynomial.hermite.hermgauss(80)
        for i in (0, 4, 11, 29):
            for j in (0, 4, 11, 29):
                inner = float(np.sum(weights * hermite_phi(i, nodes) * hermite_phi(j, nodes)))
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_psi_decays_in_tail(self):
        val = wf.hermite_psi(10, sqrt(20.0) + 9.0)
        assert 0.0 <= abs(val) < 1e-12

    def test_overflow_guard(self):
        with pytest.raises(wf.NumericalRangeError):
            hermite_phi(5, 100.0)
        with pytest.raises(wf.NumericalRangeError):
            wf.hermite_psi(10**4 + 1, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 17, 1000, 10**4])
    def test_sparse_scale_checks_are_bit_identical(self, n):
        # 40 is past the psi_0 underflow at |x| > 38
        edge = sqrt(2.0 * n)
        pts = np.array([0.0, 1e-3, -1e-3, 1.0, -1.0, edge, -edge, edge + 10, -edge - 10, 40.0])
        got = descaled(_psi_scaled(n, pts))
        want = descaled(psi_scaled_per_step(n, pts))
        assert got.shape == (n + 1, pts.size)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 2, 16, 17, 1000, 10**4])
    def test_point_and_vector_layouts_are_bit_identical(self, n):
        # the set above plus -0.0; each point alone and the whole set run the
        # scalar layout, the set twice over runs the vector layout; at n = 0
        # both give the one row psi_0
        edge = sqrt(2.0 * n)
        pts = np.array(
            [0.0, -0.0, 1e-3, -1e-3, 1.0, -1.0, edge, -edge, edge + 10, -edge - 10, 40.0]
        )
        assert pts.size <= _FEW_POINTS < 2 * pts.size
        want = descaled(psi_scaled_per_step(n, pts))[: n + 1]
        alone = np.hstack([_psi_table(n, pts[k : k + 1]) for k in range(pts.size)])
        together = _psi_table(n, pts)
        vector = _psi_table(n, np.tile(pts, 2))
        for got in (alone, together, vector[:, : pts.size], vector[:, pts.size :]):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            # Python floats overflow to inf without numpy's RuntimeWarning
            assert np.isfinite(got).all()
        top = min(n + 1, 3)
        for x in (pts, np.tile(pts, 2)):
            assert np.array_equal(_psi_table(n, x, rows=top)[:, : pts.size], want[-top:])

    @pytest.mark.parametrize("i", range(6))
    def test_hermite_psi_is_the_last_table_row(self, i):
        # psi_0 included: there is no second closed form for it
        pts = np.array([0.0, -0.0, 1e-300, 0.7, -5.0, 37.6, 38.5, -40.0])
        for x in (pts, np.linspace(-45.0, 45.0, 2 * _FEW_POINTS + 1)):
            assert np.array_equal(wf.hermite_psi(i, x), _psi_table(i, x)[i])
            for point in x.tolist():
                one, want = wf.hermite_psi(i, point), _psi_table(i, point)[i]
                assert one == want and np.signbit(one) == np.signbit(want)

    def test_table_peak_is_the_table(self):
        # rows are descaled into the preallocated table, not stacked from a list
        nodes = wf.discretize_operator(200, (2.0, np.inf), order=20).nodes
        assert nodes.size > _FEW_POINTS
        assert traced_peak(_psi_table, 200, nodes) <= 1.1 * 201 * nodes.size * 8

    def test_scaled_recurrence_survives_deep_bulk(self):
        # seed value e^{-x^2/2} underflows at x = 40 but psi_n is O(1) there
        val = wf.kernel_diag(2000, 40.0)
        t = 40.0 / sqrt(4000.0)
        density = (sqrt(4000.0) / pi) * sqrt(1 - t * t)
        assert val == pytest.approx(density, rel=0.05)


class TestKernelEvaluation:
    def test_k1_origin(self):
        assert wf.kernel_diag(1, 0.0) == pytest.approx(1.0 / sqrt(pi), rel=1e-14)

    def test_order_one_confluent_form_is_psi0_squared(self):
        # at n = 1 the term sqrt(n(n-1)) psi_{n-2} psi_n is 0 * 0
        x = np.array([0.0, -0.0, 1e-300, 0.7, -5.0, 38.5, -40.0])
        psi0 = _psi_table(1, x, rows=2)[0]
        assert np.array_equal(wf.kernel_diag(1, x), psi0 * psi0)
        for k in range(x.size):
            assert wf.kernel_diag(1, float(x[k])) == psi0[k] * psi0[k]

    def test_symmetry_exact(self):
        for x, y in ((0.3, -1.2), (2.0, 1.9), (-4.0, 4.0)):
            assert kernel_point(12, x, y) == kernel_point(12, y, x)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    def test_christoffel_darboux_vs_direct_sum(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-sqrt(2 * n) - 1, sqrt(2 * n) + 1, size=8)
        for x in pts[:4]:
            for y in pts[4:]:
                direct = kernel_sum_direct(n, x, y)
                cd = kernel_point(n, x, y)
                assert cd == pytest.approx(direct, rel=1e-10, abs=1e-12)
        for x in pts[:3]:
            assert wf.kernel_diag(n, x) == pytest.approx(
                kernel_sum_direct(n, x, x), rel=1e-10, abs=1e-12
            )


class TestExpectedCount:
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_whole_line_trace(self, n):
        assert wf.expected_count(n, (-np.inf, np.inf)) == pytest.approx(n, abs=1e-8)

    def test_whole_line_n7(self):
        assert wf.expected_count(7, (-np.inf, np.inf)) == pytest.approx(7.0, abs=1e-8)

    def test_halfline_symmetry(self):
        assert wf.expected_count(20, (0.0, np.inf)) == pytest.approx(10.0, abs=1e-8)

    def test_complement_identity(self):
        for n, cut in ((5, 0.7), (20, -1.3)):
            left = wf.expected_count(n, (-np.inf, cut))
            right = wf.expected_count(n, (cut, np.inf))
            assert left + right == pytest.approx(n, abs=2e-8)

    def test_bulk_expectation_formula(self):
        # interval [sqrt(2n) t + x sqrt(log n / 2n), inf) at t=0, k=n/2:
        # expectation n - k - (x/pi) sqrt((1-t^2) log n) up to O(log n / n)
        n, k = 500, 250
        for x in (-1.0, 1.0):
            a = x * sqrt(np.log(n) / (2 * n))
            got = wf.expected_count(n, (a, np.inf))
            want = n - k - (x / pi) * sqrt(np.log(n))
            assert got == pytest.approx(want, abs=np.log(n) / n + 1e-3)


class TestVarianceCount:
    def test_whole_line_projection(self):
        assert wf.variance_count(1, (-np.inf, np.inf)) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 5, 500, 1000])
    @pytest.mark.parametrize("interval", [(-np.inf, np.inf), (-1e3, 1e3)], ids=["inf", "clipped"])
    def test_whole_line_is_exact(self, n, interval):
        # G = I in closed form: E = n and Var = 0 with no rounding
        assert wf.expected_count(n, interval) == n
        assert wf.variance_count(n, interval) == 0.0

    @pytest.mark.parametrize(
        "interval, points",
        [((0.0, np.inf), 1), ((-np.inf, 0.3), 1), ((-1.5, 100.0), 1), ((-1.0, 1.0), 2),
         ((-np.inf, np.inf), 0), ((-100.0, 100.0), 0), ((20.0, 30.0), 0), ((-np.inf, -25.0), 0)],
        ids=["half-line", "left-half-line", "clipped-window", "window", "whole-line",
             "both-clipped", "empty-above", "empty-below"],
    )
    def test_psi_runs_only_at_finite_ends(self, interval, points, monkeypatch):
        # a clipped end is infinite, where G is I or 0 in closed form; the
        # clip at n = 50 is sqrt(100) + 10 = 20, so the last two are empty
        sizes = []
        half_line_gram = kernel._half_line_gram

        def counting_gram(n, x):
            sizes.append(x.size)
            return half_line_gram(n, x)

        monkeypatch.setattr(kernel, "_half_line_gram", counting_gram)
        wf.expected_count(50, interval)
        wf.variance_count(50, interval)
        # one call each from expected_count and variance_count, none without ends
        assert sizes == ([points] * 2 if points else [])

    @pytest.mark.parametrize("n", [1, 50, 1000])
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_empty_after_clip_is_zero(self, n, side):
        # G = 0 in closed form: zero-column factors and a zero diagonal
        lim = truncation_halfwidth(n)
        interval = tuple(sorted((side * lim, side * (lim + 10.0))))
        u, v, diag = _interval_gram(n, interval)
        assert u.shape == v.shape == (n, 0)
        assert not diag.any()
        assert (wf.expected_count(n, interval), wf.variance_count(n, interval)) == (0.0, 0.0)

    def test_single_eigenvalue_halfline(self):
        # one N(0, 1/2) eigenvalue: the count on [0, inf) is Bernoulli(1/2)
        assert wf.variance_count(1, (0.0, np.inf)) == pytest.approx(0.25, abs=1e-6)

    def test_complement_symmetry(self):
        v1 = wf.variance_count(5, (0.3, np.inf))
        v2 = wf.variance_count(5, (-np.inf, 0.3))
        assert v1 == pytest.approx(v2, abs=1e-6)

    def test_monte_carlo_agreement(self):
        # independent route: sample spectra, count, compare variances
        n, trials = 20, 20_000
        counts = wf.counting_experiment(n, 2, 0.5, trials, seed=202)
        mc = counts.var(ddof=1)
        quad_var = wf.variance_count(n, (0.5, np.inf))
        assert quad_var == pytest.approx(mc, rel=0.08)


class TestGramAgainstQuadrature:
    # (40, inf) at n=1000: psi_0 underflows at the endpoint;
    # (44, 60) crosses the spectral edge sqrt(2000) = 44.7; left half-lines
    # take G(-inf) = I and the whole line G = I in closed form
    @pytest.mark.parametrize(
        "n, interval",
        [(1, (0.3, np.inf)), (5, (0.3, np.inf)), (20, (0.0, 2.5)),
         (1000, (40.0, np.inf)), (1000, (44.0, 60.0)), (5, (-np.inf, 0.3)),
         (1000, (-np.inf, 44.0)), (20, (-np.inf, np.inf))],
    )
    def test_matches_christoffel_darboux_quadrature(self, n, interval):
        assert wf.expected_count(n, interval) == pytest.approx(
            quadrature_expected_count(n, interval), rel=1e-9
        )
        assert wf.variance_count(n, interval) == pytest.approx(
            quadrature_variance_count(n, interval), rel=1e-9
        )

    def test_streamed_variance_at_index_limit(self):
        # Var#(0, inf) = (log n + c_n) / (2 pi^2), c_n rising to 1 + gamma + 3 log 2
        c = {
            n: 2 * pi * pi * wf.variance_count(n, (0.0, np.inf)) - log(n)
            for n in (200, 2000, 10_000)
        }
        assert c[200] < c[2000] < c[10_000]
        assert c[10_000] == pytest.approx(1.0 + np.euler_gamma + 3.0 * log(2.0), abs=2e-3)


class TestVarianceAgainstBlockStream:
    # half-lines, each with psi at its one finite end; a window; a window
    # clipped on the right; the spectral edge; an interval beyond the
    # truncation (empty)
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 1000, 2000])
    @pytest.mark.parametrize(
        "interval",
        [
            lambda n: (0.0, np.inf),
            lambda n: (-np.inf, 0.3),
            lambda n: (-1.0, 1.0),
            lambda n: (-1.5, 100.0),
            lambda n: (sqrt(2.0 * n) - 1.0, np.inf),
            lambda n: (truncation_halfwidth(n) + 1.0, np.inf),
        ],
        ids=["half-line", "left-half-line", "window", "clipped-window", "edge", "beyond"],
    )
    def test_fft_correlation_matches_block_stream(self, n, interval):
        interval = interval(n)
        assert wf.variance_count(n, interval) == pytest.approx(
            streamed_variance_count(n, interval), rel=1e-11
        )

    def test_matches_block_stream_with_subnormal_endpoint(self):
        # at n = 10^4 psi at the end one unit inside the clip range has
        # subnormal values; the FFT zeroes its subnormal inputs, each below
        # 2.3e-308
        n = 10**4
        interval = (0.0, truncation_halfwidth(n) - 1.0)
        u = _interval_gram(n, interval)[0]
        assert np.any((u != 0.0) & (np.abs(u) < np.finfo(float).tiny))
        assert wf.variance_count(n, interval) == pytest.approx(
            streamed_variance_count(n, interval), rel=1e-11
        )


class TestExpectationLink:
    @pytest.mark.parametrize("n", [100, 400])
    def test_beta1_count_mean_tracks_kernel_expectation(self, n):
        # mean count of the beta=1 ensemble on a bulk half-line differs from
        # the beta=2 kernel expectation by a bounded term: the gap must stay
        # within 2 plus Monte-Carlo noise
        cut = 0.3 * sqrt(2.0 * n)
        trials = 4000
        counts = wf.counting_experiment(n, 1, cut, trials, seed=300 + n)
        mc_mean = counts.mean()
        mc_se = counts.std(ddof=1) / sqrt(trials)
        kernel_mean = wf.expected_count(n, (cut, np.inf))
        assert abs(mc_mean - kernel_mean) <= 2.0 + 3.0 * mc_se


class TestDiscretizeOperator:
    def test_trace_n1(self, monkeypatch):
        op = wf.discretize_operator(1, (-8.0, 8.0), order=64)
        tr = float(np.trace(op.matrix))
        assert tr == pytest.approx(1.0, abs=1e-10)
        # the same trace against an expectation 2e-6 away fails the 1e-6 check
        monkeypatch.setattr(kernel, "expected_count", lambda n, interval: tr + 2e-6)
        with pytest.raises(wf.DiscretizationFailureError) as err:
            wf.discretize_operator(1, (-8.0, 8.0), order=64)
        assert err.value.context == {"trace": tr, "expected": tr + 2e-6, "n": 1}

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_spectrum_in_unit_band(self, n):
        op = wf.discretize_operator(n, (-1.0, 1.5), order=32)
        eigs = np.linalg.eigvalsh(op.matrix)
        assert eigs[0] >= -1e-8
        assert eigs[-1] <= 1.0 + 1e-8

    def test_order_doubling_stability(self):
        n = 10
        tr2 = []
        for order in (24, 48):
            op = wf.discretize_operator(n, (-2.0, 2.0), order=order)
            tr2.append(float(np.trace(op.matrix @ op.matrix)))
        assert abs(tr2[1] - tr2[0]) < 1e-8

    # 64 nodes for n = 20 (S S^T) and 320 nodes for n = 1000 (S^T S = A)
    @pytest.mark.parametrize("n, interval", [(20, (0.0, 2.5)), (1000, (-1.0, 1.0))])
    def test_matrix_is_the_smaller_gram_product(self, n, interval):
        op = wf.discretize_operator(n, interval, order=32)
        order = min(n, op.size)
        assert op.matrix.shape == (order, order)
        assert np.array_equal(op.matrix, op.matrix.T)
        nodes, weights = _composite_gl(n, *_clip_interval(n, interval), 32, 3.0)
        assert np.array_equal(op.nodes, nodes)
        tr_a, tr_a2 = _trace_pair(n, nodes, weights)
        assert float(np.trace(op.matrix)) == pytest.approx(tr_a, rel=1e-10)
        assert float(np.vdot(op.matrix, op.matrix)) == pytest.approx(tr_a2, rel=1e-10)

    def test_memory_stays_within_the_hermite_table(self):
        # the (n + 1) x nodes table of psi values bounds the working set
        args = (200, (2.0, np.inf), 20)
        table_bytes = (args[0] + 1) * wf.discretize_operator(*args).size * 8
        assert traced_peak(wf.discretize_operator, *args) <= 2 * table_bytes

    def test_kernel_order_zero_rejected_like_the_gram_path(self):
        with pytest.raises(wf.InvalidSizeError) as gram:
            wf.expected_count(0, (0.0, 1.0))
        with pytest.raises(wf.InvalidSizeError) as nystrom:
            wf.discretize_operator(0, (0.0, 1.0))
        assert str(nystrom.value) == str(gram.value) == "kernel order must be >= 1, got 0"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: wf.expected_count(5.0, (0.0, 1.0)),
            lambda: wf.variance_count(5.0, (0.0, 1.0)),
            lambda: wf.discretize_operator(5.0, (0.0, 1.0)),
            lambda: wf.kernel_diag(5.0, 0.3),
            lambda: wf.hermite_psi(3.0, 0.2),
            lambda: wf.discretize_operator(20, (0.0, 2.5), order=20.5),
        ],
        ids=[
            "expected_count", "variance_count", "discretize_operator", "kernel_diag", "hermite_psi",
            "quadrature-order",
        ],
    )
    def test_order_that_is_not_an_integer_rejected(self, call):
        with pytest.raises(wf.InvalidSizeError, match="integer"):
            call()

    @pytest.mark.parametrize("order", [2.5, 0.5])
    def test_kernel_diag_order_rejected_like_the_gram_path(self, order):
        with pytest.raises(wf.InvalidSizeError) as gram:
            wf.expected_count(order, (0.0, 1.0))
        with pytest.raises(wf.InvalidSizeError) as diag:
            wf.kernel_diag(order, 0.0)
        assert type(diag.value) is type(gram.value)
        assert str(diag.value) == str(gram.value) == f"kernel order must be an integer, got {order}"

    def test_numpy_integer_order_accepted(self):
        assert wf.expected_count(np.int64(5), (0.0, 1.0)) == wf.expected_count(5, (0.0, 1.0))
        assert wf.kernel_diag(np.int32(5), 0.3) == wf.kernel_diag(5, 0.3)
        assert wf.hermite_psi(np.int64(3), 0.2) == wf.hermite_psi(3, 0.2)
        got = wf.discretize_operator(20, (0.0, 2.5), order=np.int64(20))
        assert np.array_equal(got.matrix, wf.discretize_operator(20, (0.0, 2.5), order=20).matrix)

    @pytest.mark.parametrize("order", [16, 20, 32])
    def test_gauss_legendre_rule_is_cached_read_only(self, order):
        rule = _gauss_legendre(order)
        assert _gauss_legendre(order) is rule
        for part, want in zip(rule, np.polynomial.legendre.leggauss(order)):
            assert np.array_equal(part, want)
            with pytest.raises(ValueError):
                part[0] = 0.0

    def test_low_order_rejected(self):
        with pytest.raises(wf.InvalidSizeError):
            wf.discretize_operator(5, (-1.0, 1.0), order=8)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: wf.kernel_diag(0, 0.3), "kernel order must be >= 1, got 0"),
            (lambda: wf.hermite_psi(-1, 0.2), "Hermite index must be >= 0, got -1"),
            (
                lambda: wf.discretize_operator(5, (-1.0, 1.0), order=np.int64(8)),
                "quadrature order must be >= 16, got 8",
            ),
        ],
        ids=["kernel_diag", "hermite_psi", "discretize_operator"],
    )
    def test_bound_rejected_as_a_size(self, call, message):
        with pytest.raises(wf.InvalidSizeError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "width, cls",
        [(0.0, wf.DomainError), (0, wf.DomainError), (-1.0, wf.DomainError),
         (np.nan, wf.InvalidDataError), (np.inf, wf.InvalidDataError)],
    )
    def test_panel_width_must_be_finite_and_positive(self, width, cls):
        # the panel count is ceil(length / width), so only a finite positive width sizes it
        with pytest.raises(ValueError, match="wavelengths per panel") as exc:
            wf.discretize_operator(20, (0.0, 2.5), wavelengths_per_panel=width)
        assert type(exc.value) is cls

    def test_band_failure_reports_the_spectrum(self):
        # 6 wavelengths per 16-node panel: the trace still matches, but the
        # top eigenvalue of the coarse operator exceeds 1 + 1e-8
        args = (5, (-np.inf, np.inf))
        kw = dict(order=16, wavelengths_per_panel=6.0)
        eigs = np.linalg.eigvalsh(wf.discretize_operator(*args, **kw, validate_band=False).matrix)
        assert eigs[-1] > _BAND[1]
        with pytest.raises(wf.DiscretizationFailureError) as err:
            wf.discretize_operator(*args, **kw)
        assert err.value.context["min_eig"] == pytest.approx(eigs[0], rel=1e-12, abs=1e-15)
        assert err.value.context["max_eig"] == pytest.approx(eigs[-1], rel=1e-12)
        assert err.value.context["n"] == 5


class TestBandCheck:
    def test_cholesky_verdict_matches_eigenvalues(self):
        # one eigenvalue 1e-12 .. 1e-6 inside or outside either end of the band
        rng = np.random.default_rng(35)
        for _ in range(400):
            eigs = rng.uniform(0.05, 0.95, size=40)
            gap = 10.0 ** rng.uniform(-12.0, -6.0)
            eigs[0] = _BAND[rng.integers(2)] + rng.choice([-1.0, 1.0]) * gap
            a = rotated_diagonal(eigs, rng)
            spectrum = np.linalg.eigvalsh(a)
            assert in_band(a) == (_BAND[0] <= spectrum[0] and spectrum[-1] <= _BAND[1])

    @pytest.mark.parametrize("outlier", [-1e-6, 1.0 + 1e-6])
    def test_failure_carries_the_extreme_eigenvalues(self, outlier):
        rng = np.random.default_rng(36)
        eigs = np.append(rng.uniform(0.05, 0.95, size=30), outlier)
        a = rotated_diagonal(eigs, rng)
        spectrum = np.linalg.eigvalsh(a)
        with pytest.raises(wf.DiscretizationFailureError) as err:
            _check_band(a, n=7)
        assert err.value.context == {"min_eig": spectrum[0], "max_eig": spectrum[-1], "n": 7}

    def test_scratch_space_is_one_matrix(self):
        rng = np.random.default_rng(37)
        a = rotated_diagonal(rng.uniform(0.0, 1.0, size=600), rng)
        assert in_band(a)
        assert traced_peak(_check_band, a, 0) <= 1.1 * a.nbytes


class TestCountingCumulants:
    def test_projection_has_no_fluctuations(self):
        rep = wf.counting_cumulants(diag_operator(np.ones(6)))
        assert rep.c2 == pytest.approx(0.0, abs=1e-12)
        assert rep.c3 == pytest.approx(0.0, abs=1e-12)
        assert rep.c4 == pytest.approx(0.0, abs=1e-12)

    def test_matches_bernoulli_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            probs = rng.uniform(0.0, 1.0, size=rng.integers(1, 12))
            rep = wf.counting_cumulants(diag_operator(probs))
            k2, k3, k4 = bernoulli_cumulant_oracle(probs)
            assert rep.c2 == pytest.approx(k2, abs=1e-10)
            assert rep.c3 == pytest.approx(k3, abs=1e-10)
            assert rep.c4 == pytest.approx(k4, abs=1e-10)

    def test_dense_operator_matches_bernoulli_oracle(self):
        # a rotated diagonal: the Frobenius-product traces need the symmetry
        rng = np.random.default_rng(34)
        probs = rng.uniform(0.0, 1.0, size=40)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = (q * probs) @ q.T
        op = diag_operator(probs)
        op.matrix = 0.5 * (a + a.T)
        rep = wf.counting_cumulants(op)
        for l in (2, 3, 4):
            power = np.trace(np.linalg.matrix_power(op.matrix, l))
            assert rep.traces[l] == pytest.approx(power, rel=1e-12)
        k2, k3, k4 = bernoulli_cumulant_oracle(probs)
        assert (rep.c2, rep.c3, rep.c4) == pytest.approx((k2, k3, k4), abs=1e-10)

    @pytest.mark.parametrize("m, layout", [(1, "C"), (1, "F"), (40, "F")])
    def test_size_and_layout_keep_matrix_power_traces(self, m, layout):
        rng = np.random.default_rng(40)
        op = diag_operator(np.zeros(m))
        op.matrix = np.asarray(rotated_diagonal(rng.uniform(0.0, 1.0, size=m), rng), order=layout)
        rep = wf.counting_cumulants(op)
        for l in (1, 2, 3, 4):
            power = np.trace(np.linalg.matrix_power(op.matrix, l))
            assert rep.traces[l] == pytest.approx(power, rel=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_memory_stays_within_one_product(self, layout):
        # one 600 x 600 triangle of A A; a Fortran-ordered copy for np.vdot
        # would double it
        rng = np.random.default_rng(39)
        op = diag_operator(np.zeros(600))
        op.matrix = np.asarray(rotated_diagonal(rng.uniform(0.0, 1.0, size=600), rng), order=layout)
        assert traced_peak(wf.counting_cumulants, op) <= 1.1 * op.matrix.nbytes

    def test_single_atom_closed_form(self):
        a = 0.3
        rep = wf.counting_cumulants(diag_operator([a]))
        assert rep.c2 == pytest.approx(a * (1 - a), abs=1e-14)
        assert rep.c3 == pytest.approx(a * (1 - a) * (1 - 2 * a), abs=1e-14)

    def test_trace_bound(self):
        # 0 <= Tr(A - A^l) <= (l-1) C_2 for operators with spectrum in [0, 1]
        op = wf.discretize_operator(8, (0.0, 2.0), order=32)
        rep = wf.counting_cumulants(op)
        for l in (3, 4):
            gap = rep.traces[1] - rep.traces[l]
            assert gap >= -1e-10
            assert gap <= (l - 1) * rep.c2 + 1e-10

    def test_c2_matches_variance_quadrature(self):
        n, interval = 20, (0.0, 2.5)
        op = wf.discretize_operator(n, interval, order=32)
        rep = wf.counting_cumulants(op)
        var = wf.variance_count(n, interval)
        assert rep.c2 == pytest.approx(var, rel=1e-5)

    def test_c2_never_negative(self):
        rep = wf.counting_cumulants(diag_operator([0.0, 1.0]))
        assert rep.c2 >= -1e-10
        # an eigenvalue 2, outside the unit band, gives C_2 = 2 - 4, which is refused
        with pytest.raises(wf.NumericalFailureError) as err:
            wf.counting_cumulants(diag_operator([2.0]))
        assert err.value.context == {"c2": -2.0, "n": 1}

    def test_normalized_survives_underflowing_powers(self):
        # T_2..T_4 underflow to 0, so C_2 = C_3 = C_4 = T_1 ~ 8e-301 and the
        # ratios are 1 / sqrt(T_1) and 1 / T_1, though T_1**2 is 0
        rep = wf.counting_cumulants(wf.discretize_operator(3, (0.0, 1e-300)))
        t1 = rep.traces[1]
        assert rep.c2 == rep.c3 == rep.c4 == t1 and 0.0 < t1 < 1e-290 and t1**2 == 0.0
        assert rep.normalized() == pytest.approx((1.0 / sqrt(t1), 1.0 / t1), rel=1e-15)


class TestTruncation:
    def test_halfwidth(self):
        assert truncation_halfwidth(50) == pytest.approx(10.0 + 10.0)

    def test_interval_beyond_truncation_is_empty(self):
        assert wf.expected_count(5, (truncation_halfwidth(5) + 1, np.inf)) == 0.0

    def test_inverted_interval(self):
        with pytest.raises(wf.ShapeError):
            wf.expected_count(5, (1.0, -1.0))
