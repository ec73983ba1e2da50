import numpy as np
import pytest

import wigner_fluct as wf
from wigner_fluct.spectra import _real_embedding, principal_submatrix


def eig_2x2_oracle(a, b, d):
    """Closed-form eigenvalues of [[a, b], [b, d]]."""
    t = 0.5 * (a + d)
    s = np.hypot(0.5 * (a - d), b)
    return t - s, t + s


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
        "gue-150-embedded": lambda: _real_embedding(wf.sample_gue(150, 32).array),
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
            if s.storage == "real-symmetric":
                tr = np.trace(s.array)
            elif s.storage == "complex-hermitian":
                tr = np.trace(s.array).real
            else:  # embedded: trace counts every eigenvalue twice
                tr = np.trace(s.array).real / 2.0
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

    def test_gse_dedup_matches_embedding_pairs(self):
        s = wf.sample_gse(6, 13)
        got = wf.eigenvalues(s).values
        oracle = np.sort(np.linalg.eigvalsh(s.array))[::2]
        assert np.allclose(got, oracle, atol=1e-8)
        assert got.size == 6

    def test_tridiag_beta_rescale(self):
        s = wf.sample_tridiag_beta(5, 4, 21)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        raw = wf.tridiag_eigenvalues(t)
        assert np.allclose(wf.eigenvalues(s).values, np.sort(raw) / 2.0)


class TestSturm:
    def test_two_site_examples(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))
        assert wf.sturm_count_below(t, 0.0) == 1
        assert wf.sturm_count_below(t, 2.0) == 2
        assert wf.sturm_count_below(t, -2.0) == 0

    def test_matches_full_solver(self):
        rng = np.random.default_rng(9)
        s = wf.sample_tridiag_beta(50, 1, 31)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        eigs = wf.tridiag_eigenvalues(t)
        for x in rng.uniform(eigs[0] - 1, eigs[-1] + 1, size=100):
            assert wf.sturm_count_below(t, x) == int(np.sum(eigs < x))

    def test_monotone_and_saturates(self):
        s = wf.sample_tridiag_beta(30, 2, 55)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        lo, hi = t.gershgorin_bounds()
        xs = np.linspace(lo - 1, hi + 1, 60)
        counts = [wf.sturm_count_below(t, x) for x in xs]
        assert np.all(np.diff(counts) >= 0)
        assert counts[-1] == t.n
        assert wf.sturm_count_below(t, hi + 0.1) == t.n

    def test_batch_matches_scalar(self):
        diag = np.stack([wf.sample_tridiag_beta(20, 1, s).diag for s in range(8)])
        off = np.stack([wf.sample_tridiag_beta(20, 1, s).offdiag for s in range(8)])
        batch = wf.sturm_count_below_batch(diag, off, 0.3)
        for row in range(8):
            t = wf.Tridiagonal(diag=diag[row], offdiag=off[row])
            assert batch[row] == wf.sturm_count_below(t, 0.3)

    def test_infinite_shifts(self):
        t = wf.Tridiagonal(diag=np.zeros(4), offdiag=np.ones(3))
        assert wf.sturm_count_below(t, np.inf) == 4
        assert wf.sturm_count_below(t, -np.inf) == 0


class TestCountInInterval:
    def test_examples(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))  # spectrum {-1, 1}
        assert wf.count_in_interval(t, (0.0, np.inf)) == 1
        assert wf.count_in_interval(t, (-2.0, 2.0)) == 2

    def test_inverted_interval(self):
        t = wf.Tridiagonal(diag=np.zeros(2), offdiag=np.ones(1))
        with pytest.raises(wf.ShapeError):
            wf.count_in_interval(t, (1.0, -1.0))

    def test_additivity(self):
        rng = np.random.default_rng(12)
        s = wf.sample_tridiag_beta(40, 1, 71)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-10, 10, size=3))
            total = wf.count_in_interval(t, (a, c), flag_endpoint_hits=False)
            parts = wf.count_in_interval(t, (a, b), flag_endpoint_hits=False)
            parts += wf.count_in_interval(t, (b, c), flag_endpoint_hits=False)
            assert total == parts

    def test_matches_bruteforce_counting(self):
        rng = np.random.default_rng(15)
        for trial in range(100):
            s = wf.sample_tridiag_beta(25, 2, wf.mix_trial_seed(80, trial))
            t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
            eigs = wf.tridiag_eigenvalues(t)
            a, b = np.sort(rng.uniform(-12, 12, size=2))
            expect = int(np.sum((eigs > a) & (eigs < b)))
            assert wf.count_in_interval(t, (a, b), flag_endpoint_hits=False) == expect

    def test_endpoint_hit_warns(self):
        t = wf.Tridiagonal(diag=np.array([0.0, 0.0]), offdiag=np.array([1.0]))
        with pytest.warns(UserWarning, match="endpoint"):
            wf.count_in_interval(t, (1.0, 2.0))


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
            child = wf.eigenvalues(
                wf.MatrixSample(storage="real-symmetric", spec=s.spec, array=principal_submatrix(s))
            ).values
            assert wf.check_interlacing(parent, child)


class TestReferenceBisection:
    def test_matches_fast_path(self):
        for seed in range(5):
            s = wf.sample_tridiag_beta(60, 1, wf.mix_trial_seed(100, seed))
            t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
            fast = wf.tridiag_eigenvalues(t)
            ref = wf.tridiag_eigenvalues_bisect(t)
            assert np.max(np.abs(fast - ref)) <= 1e-10 * np.sqrt(2 * t.n)

    def test_selected_indices(self):
        s = wf.sample_tridiag_beta(40, 2, 3)
        t = wf.Tridiagonal(diag=s.diag, offdiag=s.offdiag)
        full = wf.tridiag_eigenvalues(t)
        sel = wf.tridiag_eigenvalues_selected(t, 10, 12)
        assert np.allclose(sel, full[10:13], atol=1e-12)
        ref = wf.tridiag_eigenvalues_bisect(t, indices=[10, 11, 12])
        assert np.allclose(ref, full[10:13], atol=1e-10 * np.sqrt(2 * t.n))

    def test_bad_index(self):
        t = wf.Tridiagonal(diag=np.zeros(3), offdiag=np.ones(2))
        with pytest.raises(wf.ShapeError):
            wf.tridiag_eigenvalues_bisect(t, indices=[3])


class TestValidation:
    def test_tridiagonal_shape_errors(self):
        with pytest.raises(wf.ShapeError):
            wf.Tridiagonal(diag=np.zeros(3), offdiag=np.zeros(3))
        with pytest.raises(wf.InvalidDataError):
            wf.Tridiagonal(diag=np.array([np.inf, 0.0]), offdiag=np.zeros(1))

    def test_spectrum_sample_requires_sorted(self):
        with pytest.raises(wf.ShapeError):
            wf.SpectrumSample(values=np.array([1.0, 0.0]))
