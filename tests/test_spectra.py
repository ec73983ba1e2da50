import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

import wigner_fluct as wf
from wigner_fluct import spectra
from wigner_fluct.stats import ExperimentPlan


def eig_2x2_oracle(a, b, d):
    """Closed-form eigenvalues of [[a, b], [b, d]]."""
    t = 0.5 * (a + d)
    s = np.hypot(0.5 * (a - d), b)
    return t - s, t + s


def real_embedding(h):
    """[[Re h, -Im h], [Im h, Re h]]: real symmetric, spectrum of h doubled."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def principal_submatrix(sample):
    """Dense principal (n-1) x (n-1) submatrix of a dense real sample."""
    assert sample.array.dtype == np.float64
    return sample.array[:-1, :-1]


def sturm_count_below(t, x):
    """Scalar reference for the batched Sturm count: number of eigenvalues
    strictly below x, by LDL^T inertia of T - xI with the standard
    pivot-perturbation guard."""
    if not np.isfinite(x):
        if x == np.inf:
            return t.n
        if x == -np.inf:
            return 0
        raise wf.InvalidDataError("shift must not be NaN")
    emax = float(np.max(np.abs(t.offdiag))) if t.n > 1 else 0.0
    pivmin = 1e-300 * max(1.0, emax * emax)
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


def gershgorin_bounds(t):
    """Interval certainly containing the whole spectrum of the tridiagonal t."""
    r = np.zeros(t.n)
    if t.n > 1:
        r[:-1] += np.abs(t.offdiag)
        r[1:] += np.abs(t.offdiag)
    return float(np.min(t.diag - r)), float(np.max(t.diag + r))


def tridiag_eigenvalues_bisect(t, indices=None, abs_tol=None):
    """Reference eigenvalue path: bisection driven purely by Sturm counts.

    indices: 0-based ascending eigenvalue indices (default: all).  Bisection
    is self-validating through matrix inertia, which is why it serves as the
    oracle for the LAPACK fast path.
    """
    idx_list = list(range(t.n) if indices is None else indices)
    glo, ghi = gershgorin_bounds(t)
    if abs_tol is None:
        abs_tol = 1e-13 * max(1.0, max(abs(glo), abs(ghi)))
    out = np.empty(len(idx_list))
    for j, k in enumerate(idx_list):
        if not 0 <= k < t.n:
            raise wf.ShapeError(f"eigenvalue index {k} out of range for n={t.n}")
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
            raise wf.NumericalFailureError("bisection failed to converge", index=k)
        out[j] = 0.5 * (lo + hi)
    return out


def count_in_interval(t, interval, flag_endpoint_hits=True):
    """Number of eigenvalues in the open interval (a, b), by Sturm counts;
    an exact endpoint hit follows the Sturm convention and warns."""
    a, b = interval
    if not a < b:
        raise wf.ShapeError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
    if flag_endpoint_hits:
        for x in (a, b):
            if not np.isfinite(x):
                continue
            straddle = sturm_count_below(t, np.nextafter(x, np.inf)) - sturm_count_below(
                t, np.nextafter(x, -np.inf)
            )
            if straddle > 0:
                warnings.warn(f"eigenvalue coincides with interval endpoint {x}", stacklevel=2)
    return sturm_count_below(t, b) - sturm_count_below(t, a)


class TestTridiagonalize:
    def test_tridiagonal_fixed_point_up_to_sign(self):
        diag = np.array([1.0, -2.0, 0.5])
        off = np.array([0.7, -0.3])
        m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        t = wf.tridiagonalize(m)
        assert np.allclose(t.diag, diag, atol=1e-14)
        assert np.allclose(np.abs(t.offdiag), np.abs(off), atol=1e-14)

    def test_2x2_closed_form(self):
        t = wf.tridiagonalize(np.array([[1.0, 2.0], [2.0, 1.0]]))
        got = np.sort(wf.tridiag_eigenvalues(t))
        lo, hi = eig_2x2_oracle(1.0, 2.0, 1.0)
        assert got[0] == pytest.approx(lo, abs=1e-12)
        assert got[1] == pytest.approx(hi, abs=1e-12)

    @pytest.mark.parametrize("value", [0.0, -0.0, -3.25, 5e-324, 1e308])
    def test_order_one_is_the_entry_itself(self, value):
        # sytrd at order 1 returns d = [a00] and an empty e; no special case
        t = wf.tridiagonalize(np.array([[value]]))
        assert np.array_equal(t.diag, [value]) and np.signbit(t.diag[0]) == np.signbit(value)
        assert t.offdiag.shape == (0,)
        assert np.array_equal(wf.tridiag_eigenvalues(t), [value])

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((10, 10))
        a = a + a.T
        t = wf.tridiagonalize(a)
        eigs = wf.tridiag_eigenvalues(t)
        assert np.sum(eigs) == pytest.approx(np.trace(a), rel=1e-10)

    # Orders well above LAPACK's blocking crossover, so sytrd takes its blocked
    # path; the embedded case is the 2n real form every complex sample uses.
    BLOCKED_CASES = {
        "goe-300": lambda: wf.sample_goe(300, 31).array,
        "gue-150-embedded": lambda: real_embedding(wf.sample_gue(150, 32).array),
    }

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_blocked_reduction_matches_independent_solver(self, case):
        a = self.BLOCKED_CASES[case]()
        got = np.sort(wf.tridiag_eigenvalues(wf.tridiagonalize(a)))
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.sqrt(2 * a.shape[0])

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_blocked_reduction_preserves_frobenius_norm(self, case):
        a = self.BLOCKED_CASES[case]()
        t = wf.tridiagonalize(a)
        norm2 = np.sum(t.diag**2) + 2.0 * np.sum(t.offdiag**2)
        assert norm2 == pytest.approx(np.sum(a * a), rel=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(wf.ShapeError):
            wf.tridiagonalize(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(wf.InvalidDataError):
            wf.tridiagonalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_complex_entries(self):
        # a cast to float would drop the imaginary part and reduce another matrix
        with pytest.raises(wf.InvalidDataError, match="real"):
            wf.tridiagonalize(wf.sample_gue(4, 3).array)


class TestEigenvalues:
    def test_two_site_hopping(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))
        assert np.allclose(wf.eigenvalues(t).values, [-1.0, 1.0], atol=1e-14)

    def test_three_site_toeplitz(self):
        t = wf.Tridiagonal(diag=np.zeros(3), offdiag=np.ones(2))
        expected = 2 * np.cos(np.array([3, 2, 1]) * np.pi / 4)
        assert np.allclose(wf.eigenvalues(t).values, expected, atol=1e-14)

    def test_goe_semicircle_single_sample(self):
        values = wf.eigenvalues(wf.sample_goe(200, 2024)).values / np.sqrt(400)
        grid = np.clip(values, -1, 1)
        cdf = np.array([wf.semicircle_cdf(v) for v in grid])
        n = values.size
        sup = max(
            np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)
        )
        assert sup < 0.08

    def test_trace_identity_all_samplers(self):
        samplers = [
            wf.sample_goe(50, 3),
            wf.sample_goe(500, 7),
            wf.sample_gue(40, 4),
            wf.sample_gse(15, 5),
            wf.sample_matched_wigner(60, 6, symmetry="real"),
            wf.sample_matched_wigner(500, 8, symmetry="real"),
        ]
        for s in samplers:
            eigs = wf.eigenvalues(s).values
            # an array of order c n has every eigenvalue c times in its trace
            tr = np.trace(s.array).real / (s.array.shape[0] // s.n)
            scale = max(1.0, abs(tr))
            assert abs(np.sum(eigs) - tr) <= 1e-10 * scale

        s = wf.sample_tridiag_beta(500, 1, 9)
        eigs = wf.eigenvalues(s).values
        tr = float(np.sum(s.diag))
        assert abs(np.sum(eigs) - tr) <= 1e-10 * max(1.0, abs(tr))

    def test_complex_path_matches_dense_solver(self):
        h = wf.sample_gue(12, 77).array
        got = wf.eigenvalues(wf.sample_gue(12, 77)).values
        oracle = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(got, oracle, atol=1e-10)

    def test_repeated_eigenvalue_of_a_sample_names_the_sample(self):
        spec = wf.EnsembleSpec(wf.EnsembleKind.GOE, 2)
        sample = wf.MatrixSample(spec=spec, seed=7, array=np.eye(2))
        with pytest.raises(wf.NumericalFailureError) as exc:
            wf.eigenvalues(sample)
        assert exc.value.context == {"seed": 7, "n": 2}

    @pytest.mark.parametrize(
        "array",
        [np.eye(0), np.eye(2), np.eye(4), np.eye(7), np.ones(6), np.array(1.0)],
        ids=["0x0", "2x2", "4x4", "7x7", "1-d", "0-d"],
    )
    def test_sample_order_not_a_positive_multiple_of_n_rejected(self, array):
        spec = wf.EnsembleSpec(wf.EnsembleKind.GOE, 3)
        sample = wf.MatrixSample(spec=spec, seed=1, array=array)
        with pytest.raises(wf.ShapeError, match="shape"):
            wf.eigenvalues(sample)
        with pytest.raises(wf.ShapeError, match="shape"):
            wf.eigenvalues_at(sample, [0])

    def test_complex_array_under_a_real_spec_is_solved_through_the_embedding(self):
        # the array's dtype, not the spec's kind, decides the reduction
        h = wf.sample_gue(6, 5).array
        sample = wf.MatrixSample(spec=wf.EnsembleSpec(wf.EnsembleKind.GOE, 6), seed=5, array=h)
        got = wf.eigenvalues(sample).values
        assert got.size == 6
        assert np.allclose(got, np.linalg.eigvalsh(h), atol=1e-10)
        assert np.allclose(wf.eigenvalues_at(sample, [5, 0]), got[[5, 0]], rtol=0, atol=1e-12)

    def test_real_array_of_order_2n_repeats_each_eigenvalue_twice(self):
        s = wf.sample_gue(5, 8)
        sample = wf.MatrixSample(spec=s.spec, seed=s.seed, array=real_embedding(s.array))
        assert spectra._reduce(sample)[1] == 2
        got = wf.eigenvalues(sample).values
        assert np.allclose(got, np.linalg.eigvalsh(s.array), atol=1e-10)

    def test_repeated_eigenvalue_of_an_array_is_a_shape_error(self):
        with pytest.raises(wf.ShapeError, match="strictly increasing"):
            wf.eigenvalues(np.eye(2))

    def test_gse_dedup_matches_embedding_pairs(self):
        s = wf.sample_gse(6, 13)
        got = wf.eigenvalues(s).values
        oracle = np.sort(np.linalg.eigvalsh(s.array))[::2]
        assert np.allclose(got, oracle, atol=1e-8)
        assert got.size == 6

    def test_tridiag_beta_spectrum_is_not_rescaled(self):
        # the sampler draws on the common convention; spectra solves it as given
        s = wf.sample_tridiag_beta(5, 4, 21)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        raw = wf.tridiag_eigenvalues(t)
        assert np.array_equal(wf.eigenvalues(s).values, raw)

    SELECTED_CASES = {
        "goe": lambda: wf.sample_goe(25, 41),
        "gue": lambda: wf.sample_gue(25, 42),
        "gse": lambda: wf.sample_gse(25, 43),
        "wigner-real": lambda: wf.sample_matched_wigner(25, 44, symmetry="real"),
        "wigner-hermitian": lambda: wf.sample_matched_wigner(25, 45, symmetry="hermitian"),
        "tridiag-beta4": lambda: wf.sample_tridiag_beta(25, 4, 46),
        "complex-array": lambda: wf.sample_gue(25, 47).array,
        "tridiagonal": lambda: wf.Tridiagonal(diag=np.zeros(25), offdiag=np.ones(24)),
    }

    @pytest.mark.parametrize("case", sorted(SELECTED_CASES))
    def test_selected_positions_match_full_spectrum(self, case):
        sample = self.SELECTED_CASES[case]()
        full = wf.eigenvalues(sample).values
        # edge positions arrive in descending order; the output keeps it
        positions = [24, 23, 0, 12]
        got = wf.eigenvalues_at(sample, positions)
        assert np.allclose(got, full[positions], rtol=0, atol=1e-12 * np.sqrt(50))
        with pytest.raises(wf.InvalidSizeError, match=r"^position must be <= 24, got 25$"):
            wf.eigenvalues_at(sample, [25])

    @pytest.mark.parametrize("case", ["goe", "gue"])
    def test_no_positions_give_an_empty_array(self, case):
        # the complex GUE array is solved through its doubled real embedding
        got = wf.eigenvalues_at(self.SELECTED_CASES[case](), [])
        assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("case", ["goe", "gue", "tridiagonal"])
    @pytest.mark.parametrize("position", [2.5, 0.5, np.float64(2.0)])
    def test_position_that_is_not_an_integer_rejected(self, case, position):
        # a GUE position p selects 2p..2p+1 of its embedding: 2 * 2.5 is 5.0, still no integer
        sample = self.SELECTED_CASES[case]()
        with pytest.raises(wf.InvalidSizeError, match="must be an integer"):
            wf.eigenvalues_at(sample, [position])
        got = wf.eigenvalues_at(sample, [np.int64(2), np.int32(7)])
        assert np.array_equal(got, wf.eigenvalues_at(sample, [2, 7]))

    @pytest.mark.parametrize("sampler", [wf.sample_gue, wf.sample_gse], ids=["gue", "gse"])
    def test_bad_position_named_in_the_callers_terms(self, sampler):
        # the embedding repeats each eigenvalue 2 or 4 times; an error names
        # the position and size the caller gave, not the embedding's
        sample = sampler(8, 0)
        with pytest.raises(wf.InvalidSizeError, match="position must be an integer, got 2.5"):
            wf.eigenvalues_at(sample, [2.5])
        for position, bound in ((-1, ">= 0"), (8, "<= 7")):
            with pytest.raises(wf.InvalidSizeError) as err:
                wf.eigenvalues_at(sample, [3, position])
            assert str(err.value) == f"position must be {bound}, got {position}"
        assert np.allclose(wf.eigenvalues_at(sample, [7]), wf.eigenvalues(sample).values[7])

    def test_selected_range_that_is_not_an_integer_rejected(self):
        t = random_tridiagonal(8, 0)
        with pytest.raises(wf.InvalidSizeError, match="must be an integer"):
            wf.tridiag_eigenvalues_selected(t, 0.5, 1.7)
        with pytest.raises(wf.InvalidSizeError, match="must be an integer"):
            wf.tridiag_eigenvalues_selected(t, 0, 1.0)
        got = wf.tridiag_eigenvalues_selected(t, np.int64(0), np.int32(1))
        assert np.array_equal(got, wf.tridiag_eigenvalues_selected(t, 0, 1))
        with pytest.raises(wf.InvalidSizeError, match=r"^position lo must be >= 0, got -1$"):
            wf.tridiag_eigenvalues_selected(t, -1, 1)

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]], [[1.0, 1j], [-1j, 1.0]]],
        ids=["diagonal", "symmetric", "hermitian"],
    )
    def test_nested_lists_are_solved_as_arrays(self, rows):
        array = np.array(rows)
        assert np.array_equal(wf.eigenvalues(rows).values, wf.eigenvalues(array).values)
        assert np.array_equal(wf.eigenvalues_at(rows, [1, 0]), wf.eigenvalues_at(array, [1, 0]))
        # a sample built with a nested list is read the same way (a bare AttributeError once)
        spec = wf.EnsembleSpec(wf.EnsembleKind.GOE, 2)
        sample = wf.MatrixSample(spec=spec, seed=1, array=rows)
        dense = wf.MatrixSample(spec=spec, seed=1, array=array)
        assert np.array_equal(wf.eigenvalues(sample).values, wf.eigenvalues(dense).values)
        assert np.array_equal(wf.eigenvalues_at(sample, [1]), wf.eigenvalues_at(dense, [1]))


def random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    return wf.Tridiagonal(diag=rng.standard_normal(n), offdiag=rng.standard_normal(n - 1))


def grouped_tridiagonal(n, mult, seed):
    """Reduced tridiagonal of order about n whose eigenvalues come in groups of
    mult consecutive copies: a GUE (mult 2) or GSE (mult 4) real embedding."""
    sampler = wf.sample_gue if mult == 2 else wf.sample_gse
    t, got_mult = spectra._reduce(sampler(n // mult, seed))
    assert got_mult == mult and t.n == mult * (n // mult)
    return t


def failing_handle(info):
    """A LAPACK handle that reports the error code info, in the shape of the
    result of dsterf (two values) or dstebz (five values)."""

    def handle(d, e, *args):
        w = np.zeros(d.size)
        return (w, info) if not args else (0, w, None, None, info)

    return handle


class TestCollapseMultiplicity:
    @pytest.mark.parametrize("mult", [2, 4])
    def test_is_bitwise_the_group_mean(self, mult):
        rng = np.random.default_rng(mult)
        for size in (1, 2, 7, 100):
            # each value repeated mult times, the copies split by a spread
            # far inside the dedup tolerance
            base = np.sort(rng.standard_normal(size)) * 30.0
            values = np.sort(np.repeat(base, mult) + rng.standard_normal(size * mult) * 1e-12)
            want = values.reshape(-1, mult).mean(axis=1)
            assert spectra._collapse_multiplicity(values, mult).tobytes() == want.tobytes()


class TestDirectLapack:
    """The direct dsterf/dstebz calls return exactly what scipy's
    eigvalsh_tridiagonal, the wrapper they replace, returns."""

    SIZES = (1, 2, 3, 17, 500, 1000)

    @staticmethod
    def assert_selected_match(t, lo, hi):
        d, e = t.diag.copy(), t.offdiag.copy()
        got = wf.tridiag_eigenvalues_selected(t, lo, hi)
        want = eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi))
        assert got.dtype == want.dtype and np.array_equal(got, want), (t.n, lo, hi)
        assert np.array_equal(t.diag, d) and np.array_equal(t.offdiag, e)

    @pytest.mark.parametrize("n", SIZES)
    def test_full_spectrum_matches_wrapper(self, n):
        t = random_tridiagonal(n, n)
        d, e = t.diag.copy(), t.offdiag.copy()
        got = wf.tridiag_eigenvalues(t)
        want = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(t.diag, d) and np.array_equal(t.offdiag, e)

    @pytest.mark.parametrize("n", SIZES)
    def test_selected_positions_match_wrapper(self, n):
        t = random_tridiagonal(n, n + 1)
        for p in sorted({0, n // 2, n - 1}):
            self.assert_selected_match(t, p, p)

    @pytest.mark.parametrize("mult", [2, 4])
    @pytest.mark.parametrize("n", [n for n in SIZES if n >= 4])
    def test_grouped_ranges_match_wrapper(self, n, mult):
        t = grouped_tridiagonal(n, mult, n + mult)
        groups = t.n // mult
        for p in sorted({0, groups // 2, groups - 1}):
            self.assert_selected_match(t, mult * p, mult * p + mult - 1)

    def test_sterf_failure_carries_info_and_n(self, monkeypatch):
        monkeypatch.setattr(spectra, "_STERF", failing_handle(3))
        with pytest.raises(wf.NumericalFailureError) as exc:
            wf.tridiag_eigenvalues(random_tridiagonal(5, 0))
        assert exc.value.context == {"info": 3, "n": 5}

    def test_stebz_failure_carries_info_and_n(self, monkeypatch):
        monkeypatch.setattr(spectra, "_STEBZ", failing_handle(-4))
        with pytest.raises(wf.NumericalFailureError) as exc:
            wf.tridiag_eigenvalues_selected(random_tridiagonal(6, 0), 2, 3)
        assert exc.value.context == {"info": -4, "n": 6}

    def test_stebz_failure_names_the_trial(self, monkeypatch):
        # one stebz call per trial: the third call is trial 2's
        calls = []
        stebz = spectra._STEBZ

        def third_call_fails(*args):
            calls.append(args)
            return failing_handle(1)(*args) if len(calls) == 3 else stebz(*args)

        monkeypatch.setattr(spectra, "_STEBZ", third_call_fails)
        plan = ExperimentPlan(
            ensemble=wf.EnsembleSpec(wf.EnsembleKind.TRIDIAG_BETA, 30, beta=2),
            index_spec=wf.IndexSpec(regime="bulk", indices=(15,)),
            trials=4,
            seed=8,
        )
        with pytest.raises(wf.NumericalFailureError) as exc:
            wf.run_mc(plan)
        context = exc.value.context
        assert (context["info"], context["n"], context["trial"]) == (1, 30, 2)
        assert context["trial_seed"] == wf.mix_trial_seed(8, 2)
        assert context["seed"] == wf.mix_trial_seed(8, 2)


class TestSturm:
    def test_two_site_examples(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))
        assert sturm_count_below(t, 0.0) == 1
        assert sturm_count_below(t, 2.0) == 2
        assert sturm_count_below(t, -2.0) == 0

    def test_matches_full_solver(self):
        rng = np.random.default_rng(9)
        s = wf.sample_tridiag_beta(50, 1, 31)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        eigs = wf.tridiag_eigenvalues(t)
        for x in rng.uniform(eigs[0] - 1, eigs[-1] + 1, size=100):
            assert sturm_count_below(t, x) == int(np.sum(eigs < x))

    def test_monotone_and_saturates(self):
        s = wf.sample_tridiag_beta(30, 2, 55)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        lo, hi = gershgorin_bounds(t)
        xs = np.linspace(lo - 1, hi + 1, 60)
        counts = [sturm_count_below(t, x) for x in xs]
        assert np.all(np.diff(counts) >= 0)
        assert counts[-1] == t.n
        assert sturm_count_below(t, hi + 0.1) == t.n

    def test_batch_matches_scalar(self):
        diag = np.stack([wf.sample_tridiag_beta(20, 1, s).diag for s in range(8)])
        off = np.stack([wf.sample_tridiag_beta(20, 1, s).offdiag for s in range(8)])
        batch = wf.sturm_count_below_batch(diag, off, 0.3)
        for row in range(8):
            t = wf.Tridiagonal(diag=diag[row], offdiag=off[row])
            assert batch[row] == sturm_count_below(t, 0.3)

    def test_batch_one_level(self):
        # no off-diagonal: the count is diag < x, and a hit counts by the
        # pivot convention (a zero pivot becomes -pivmin)
        diag = np.array([[-1.0], [0.3], [2.0]])
        off = np.zeros((3, 0))
        assert wf.sturm_count_below_batch(diag, off, 0.3).tolist() == [1, 1, 0]
        shifts = np.array([-2.0, 1.0, 3.0])
        assert wf.sturm_count_below_batch(diag, off, shifts).tolist() == [0, 1, 1]
        for row, x in zip(diag, (-1.0, 0.0, 2.5)):
            t = wf.Tridiagonal(diag=row, offdiag=np.zeros(0))
            assert wf.sturm_count_below_batch(row[None], off[:1], x)[0] == sturm_count_below(t, x)

    def test_empty_batch(self):
        # the pivot floor's maximum over no off-diagonal entries is 0
        assert wf.sturm_count_below_batch(np.zeros((0, 3)), np.zeros((0, 2)), 0.0).tolist() == []

    def test_infinite_shifts(self):
        t = wf.Tridiagonal(diag=np.zeros(4), offdiag=np.ones(3))
        assert sturm_count_below(t, np.inf) == 4
        assert sturm_count_below(t, -np.inf) == 0

    def test_batch_nan_shift_rejected_and_infinite_shifts_saturate(self):
        # no pivot is ever below NaN, which would count every eigenvalue
        diag, off = np.zeros((3, 4)), np.ones((3, 3))
        with pytest.raises(wf.InvalidDataError, match="NaN"):
            wf.sturm_count_below_batch(diag, off, np.nan)
        with pytest.raises(wf.InvalidDataError, match="NaN"):
            wf.sturm_count_below_batch(diag, off, np.array([0.0, np.nan, 1.0]))
        assert wf.sturm_count_below_batch(diag, off, np.inf).tolist() == [4, 4, 4]
        assert wf.sturm_count_below_batch(diag, off, -np.inf).tolist() == [0, 0, 0]


class TestCountInInterval:
    def test_examples(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))  # spectrum {-1, 1}
        assert count_in_interval(t, (0.0, np.inf)) == 1
        assert count_in_interval(t, (-2.0, 2.0)) == 2

    def test_inverted_interval(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))
        with pytest.raises(wf.ShapeError):
            count_in_interval(t, (1.0, -1.0))

    def test_additivity(self):
        rng = np.random.default_rng(12)
        s = wf.sample_tridiag_beta(40, 1, 71)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-10, 10, size=3))
            total = count_in_interval(t, (a, c), flag_endpoint_hits=False)
            parts = count_in_interval(t, (a, b), flag_endpoint_hits=False)
            parts += count_in_interval(t, (b, c), flag_endpoint_hits=False)
            assert total == parts

    def test_matches_bruteforce_counting(self):
        rng = np.random.default_rng(15)
        for trial in range(100):
            s = wf.sample_tridiag_beta(25, 2, wf.mix_trial_seed(80, trial))
            t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
            eigs = wf.tridiag_eigenvalues(t)
            a, b = np.sort(rng.uniform(-12, 12, size=2))
            expect = int(np.sum((eigs > a) & (eigs < b)))
            assert count_in_interval(t, (a, b), flag_endpoint_hits=False) == expect

    def test_endpoint_hit_warns(self):
        t = wf.Tridiagonal(diag=np.array([0.0, 0.0]), offdiag=np.array([1.0]))
        with pytest.warns(UserWarning, match="endpoint"):
            count_in_interval(t, (1.0, 2.0))


class TestInterlacing:
    def test_simple_true(self):
        assert wf.check_interlacing([-1.0, 1.0], [0.0])

    def test_simple_false(self):
        assert not wf.check_interlacing([0.0, 1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(wf.ShapeError):
            wf.check_interlacing([0.0, 1.0], [0.5, 0.7])

    def test_goe_principal_submatrices(self):
        for trial in range(1000):
            s = wf.sample_goe(20, wf.mix_trial_seed(90, trial))
            parent = wf.eigenvalues(s).values
            child = wf.eigenvalues(principal_submatrix(s)).values
            assert wf.check_interlacing(parent, child)


class TestReferenceBisection:
    def test_matches_fast_path(self):
        for seed in range(5):
            s = wf.sample_tridiag_beta(60, 1, wf.mix_trial_seed(100, seed))
            t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
            fast = wf.tridiag_eigenvalues(t)
            ref = tridiag_eigenvalues_bisect(t)
            assert np.max(np.abs(fast - ref)) <= 1e-10 * np.sqrt(2 * t.n)

    def test_selected_indices(self):
        s = wf.sample_tridiag_beta(40, 2, 3)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        full = wf.tridiag_eigenvalues(t)
        sel = wf.tridiag_eigenvalues_selected(t, 10, 12)
        assert np.allclose(sel, full[10:13], atol=1e-12)
        ref = tridiag_eigenvalues_bisect(t, indices=[10, 11, 12])
        assert np.allclose(ref, full[10:13], atol=1e-10 * np.sqrt(2 * t.n))

    def test_bad_index(self):
        t = wf.Tridiagonal(diag=np.zeros(3), offdiag=np.ones(2))
        with pytest.raises(wf.ShapeError):
            tridiag_eigenvalues_bisect(t, indices=[3])


class TestValidation:
    def test_tridiagonal_shape_errors(self):
        with pytest.raises(wf.ShapeError):
            wf.Tridiagonal(diag=np.zeros(3), offdiag=np.zeros(3))
        with pytest.raises(wf.InvalidDataError):
            wf.Tridiagonal(diag=np.array([np.inf, 0.0]), offdiag=np.zeros(1))

    def test_tridiagonal_rejects_complex_entries(self):
        with pytest.raises(wf.InvalidDataError, match="real"):
            wf.Tridiagonal(diag=np.zeros(2), offdiag=np.array([1j]))
        with pytest.raises(wf.InvalidDataError, match="real"):
            wf.Tridiagonal(diag=np.zeros(2, dtype=complex), offdiag=np.ones(1))

    def test_spectrum_sample_requires_sorted(self):
        with pytest.raises(wf.ShapeError):
            wf.SpectrumSample(values=np.array([1.0, 0.0]))
