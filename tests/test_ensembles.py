import dataclasses
from math import sqrt

import numpy as np
import pytest
from scipy.special import ndtri

import wigner_fluct as wf
from wigner_fluct import ensembles
from wigner_fluct.ensembles import _HERMITIAN_MATCHED_C, _REAL_MATCHED_C, _three_point

STREAM_SIZES = (1, 2, 5, 17)
STREAM_SEEDS = (0, 1, 12345, 2**63 + 5)


def three_point_moment_oracle(c, p, k):
    """Brute-force moment of the law P(+-c)=p, P(0)=1-2p by direct
    enumeration over the support."""
    support = [(-c, p), (0.0, 1.0 - 2.0 * p), (c, p)]
    return sum(prob * x**k for x, prob in support)


def gaussian_from_uniform(variance):
    """Scalar inverse-CDF map of N(0, variance)."""
    return lambda u: ndtri(u) * sqrt(variance)


def three_point_from_uniform(c):
    """Scalar inverse-CDF map of the law P(+c) = P(-c) = 1/6, P(0) = 2/3."""
    return lambda u: c if u < 1.0 / 6.0 else -c if u < 1.0 / 3.0 else 0.0


def _generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def stream_reference(n, seed, uniform, c, diag_entry, off_entry, dtype):
    """Scalar oracle for the documented stream layout: one scalar draw at a
    time, walking the upper triangle row-major with the diagonal included;
    a diagonal entry takes one draw and an off-diagonal entry c consecutive
    draws, mirrored below the diagonal as its conjugate."""
    rng = _generator(seed)
    draw = rng.random if uniform else rng.standard_normal
    h = np.zeros((n, n), dtype=dtype)
    for j in range(n):
        h[j, j] = diag_entry(draw())
        for k in range(j + 1, n):
            h[j, k] = off_entry(*[draw() for _ in range(c)])
            h[k, j] = np.conj(h[j, k])
    return h


def _quaternion_block(a, b, c, d):
    """2x2 complex image of the quaternion a + b e1 + c e2 + d e3."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def gse_stream_reference(n, seed):
    """The GSE case of the stream oracle, block by block: a real N(0, 1/4)
    diagonal (one draw) and N(0, 1/8) quaternion parts off it (four draws)."""
    rng = _generator(seed)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    s8 = sqrt(1.0 / 8.0)
    s4 = sqrt(1.0 / 4.0)
    for j in range(n):
        for k in range(j, n):
            if j == k:
                a = rng.standard_normal() * s4
                blk = _quaternion_block(a, 0.0, 0.0, 0.0)
            else:
                a, b, c, d = rng.standard_normal(4) * s8
                blk = _quaternion_block(a, b, c, d)
            h[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = blk
            if j != k:
                h[2 * k : 2 * k + 2, 2 * j : 2 * j + 2] = blk.conj().T
    return h


def gue_stream_reference(n, seed):
    """The GUE matrix as the complex arithmetic x * 0.5 + 1j * (y * 0.5)
    assembles it from each off-diagonal entry's (Re, Im) draws, scattered
    through explicit positions, with the conjugates below a real N(0, 1/2)
    diagonal."""
    upper, diag, off = ensembles._upper_triangle_draws(n, _generator(seed).standard_normal, 2)
    vals = off[:, 0] * 0.5 + 1j * (off[:, 1] * 0.5)
    rows, cols = np.nonzero(upper)
    h = np.zeros((n, n), dtype=complex)
    h.reshape(-1)[:: n + 1] = diag * sqrt(0.5)
    h[rows, cols] = vals
    h[cols, rows] = vals.conj()
    return h


def gse_block_index_reference(n, seed):
    """The GSE embedding scattered through explicit block positions: row i of
    (rows, cols) holds the four positions of the 2x2 block of the i-th
    upper-triangle entry, in the order (0,0), (0,1), (1,0), (1,1); the blocks
    go in at (rows, cols) and their conjugates at (cols, rows), over a
    doubled real diagonal."""
    upper, diag, off = ensembles._upper_triangle_draws(n, _generator(seed).standard_normal, 4)
    q = off * sqrt(1.0 / 8.0)
    # block entries (0,0), (0,1), (1,0), (1,1) from the parts (a, b, c, d)
    blocks = np.empty(q.shape, dtype=complex)
    blocks.real = q[:, [0, 2, 2, 0]] * [1.0, 1.0, -1.0, 1.0]
    blocks.imag = q[:, [1, 3, 3, 1]] * [1.0, 1.0, 1.0, -1.0]
    iu = np.nonzero(upper)
    rows = 2 * iu[0][:, None] + [0, 0, 1, 1]
    cols = 2 * iu[1][:, None] + [0, 1, 0, 1]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h.reshape(-1)[:: 2 * n + 1] = np.repeat(diag * sqrt(1.0 / 4.0), 2)
    h[rows, cols] = blocks
    h[cols, rows] = blocks.conj()
    return h


def tridiag_stream_reference(n, beta, seed):
    """Scalar oracle for the tridiagonal stream: n diagonal normals, then
    one gamma draw per off-diagonal entry in k order, each entry divided by
    sqrt(beta)."""
    rng = _generator(seed)
    diag = np.array([rng.standard_normal() / sqrt(beta) for _ in range(n)])
    gammas = [rng.standard_gamma(beta * (n - k) / 2.0) for k in range(1, n)]
    return diag, np.array([sqrt(2.0 * g) / sqrt(2.0 * beta) for g in gammas])


DENSE_STREAM_CASES = {
    "goe": (
        wf.sample_goe,
        lambda n, seed: stream_reference(
            n, seed, False, 1, lambda z: z, lambda z: z / sqrt(2.0), float
        ),
    ),
    "gue": (
        wf.sample_gue,
        lambda n, seed: stream_reference(
            n,
            seed,
            False,
            2,
            lambda z: z * sqrt(0.5),
            lambda x, y: complex(x * 0.5, y * 0.5),
            complex,
        ),
    ),
    "gse": (wf.sample_gse, gse_stream_reference),
    "wigner-real": (
        lambda n, seed: wf.sample_matched_wigner(n, seed, symmetry="real"),
        lambda n, seed: stream_reference(
            n,
            seed,
            True,
            1,
            gaussian_from_uniform(1.0),
            three_point_from_uniform(sqrt(1.5)),
            float,
        ),
    ),
    "wigner-hermitian": (
        lambda n, seed: wf.sample_matched_wigner(n, seed, symmetry="hermitian"),
        lambda n, seed: stream_reference(
            n,
            seed,
            True,
            2,
            gaussian_from_uniform(0.5),
            lambda u, v: complex(
                three_point_from_uniform(sqrt(3.0) / 2.0)(u),
                three_point_from_uniform(sqrt(3.0) / 2.0)(v),
            ),
            complex,
        ),
    ),
}


DIRECT_SAMPLERS = {
    wf.EnsembleKind.GOE: wf.sample_goe,
    wf.EnsembleKind.GUE: wf.sample_gue,
    wf.EnsembleKind.GSE: wf.sample_gse,
    wf.EnsembleKind.WIGNER_REAL_MATCHED: DENSE_STREAM_CASES["wigner-real"][0],
    wf.EnsembleKind.WIGNER_HERMITIAN_MATCHED: DENSE_STREAM_CASES["wigner-hermitian"][0],
    wf.EnsembleKind.TRIDIAG_BETA: lambda n, seed: wf.sample_tridiag_beta(n, 2, seed),
}


def every_draw():
    """Each kind's sampler and sample() of the kind's spec, as (n, seed) -> sample."""
    for kind, sampler in DIRECT_SAMPLERS.items():
        beta = 2 if kind is wf.EnsembleKind.TRIDIAG_BETA else 0
        yield sampler
        yield lambda n, seed, kind=kind, beta=beta: wf.sample(wf.EnsembleSpec(kind, n, beta), seed)


def sample_bytes(sample):
    """The bytes of each of a sample's arrays, None where it has none."""
    return [None if a is None else a.tobytes() for a in (sample.array, sample.diag, sample.offdiag)]


class TestStreamLayout:
    """Every sampler reproduces the scalar stream oracle exactly."""

    @pytest.mark.parametrize("ensemble", sorted(DENSE_STREAM_CASES))
    def test_dense_sampler_matches_scalar_oracle(self, ensemble):
        sampler, reference = DENSE_STREAM_CASES[ensemble]
        for n in STREAM_SIZES:
            for seed in STREAM_SEEDS:
                got = sampler(n, seed).array
                want = reference(n, seed)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (ensemble, n, seed)
        # the sampler's EnsembleSpec is its one size check
        with pytest.raises(wf.InvalidSizeError):
            sampler(0, 0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_tridiagonal_sampler_matches_scalar_oracle(self, beta):
        for n in STREAM_SIZES:
            for seed in STREAM_SEEDS:
                s = wf.sample_tridiag_beta(n, beta, seed)
                diag, offdiag = tridiag_stream_reference(n, beta, seed)
                assert np.array_equal(s.diag, diag), (beta, n, seed)
                assert np.array_equal(s.offdiag, offdiag), (beta, n, seed)
        with pytest.raises(wf.InvalidSizeError):
            wf.sample_tridiag_beta(0, beta, 0)


class TestLayoutMemo:
    """Stream layouts of small orders are kept read-only; large ones are not kept."""

    def test_cached_layout_is_read_only(self):
        wf.sample_gse(3, 0)
        layout = ensembles._layout_memo[(3, 4)]
        for a in layout:
            with pytest.raises(ValueError):
                a[0] = a[-1]
        # the samples drawn through the kept layout are the stream oracle's
        assert np.array_equal(wf.sample_gse(3, 1).array, gse_stream_reference(3, 1))
        assert ensembles._layout_memo[(3, 4)] is layout

    def test_large_layouts_are_not_kept(self):
        wf.sample_goe(2000, 0)
        bound = ensembles._LAYOUT_MEMO_MAX_N
        # the longest kept array: the stream mask at the bound, four draws per entry
        longest = bound + 4 * (bound * (bound - 1) // 2)
        for (n, c), layout in ensembles._layout_memo.items():
            assert n <= bound
            assert all(a.nbytes <= longest for a in layout), (n, c)


class TestSeedMixing:
    def test_deterministic(self):
        assert wf.mix_trial_seed(123, 5) == wf.mix_trial_seed(123, 5)

    def test_no_collisions_across_trials(self):
        seeds = {wf.mix_trial_seed(99, t) for t in range(100_000)}
        assert len(seeds) == 100_000

    def test_distinct_masters_decorrelate(self):
        a = [wf.mix_trial_seed(1, t) for t in range(100)]
        b = [wf.mix_trial_seed(2, t) for t in range(100)]
        assert not set(a) & set(b)

    def test_negative_trial_rejected(self):
        with pytest.raises(wf.InvalidSizeError):
            wf.mix_trial_seed(1, -1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a wider seed would alias the 64-bit seed it agrees with mod 2**64
        with pytest.raises(wf.InvalidSizeError):
            wf.mix_trial_seed(seed, 0)
        for draw in every_draw():
            with pytest.raises(wf.InvalidSizeError):
                draw(3, seed)

    def test_largest_seed_accepted(self):
        seed = 2**64 - 1
        assert 0 <= wf.mix_trial_seed(seed, 0) < 2**64
        a, b = wf.sample_goe(3, seed).array, wf.sample_goe(3, seed).array
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.5, 1.9, 2.7, np.float64(2.0), "3", None])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        # truncating it would draw the stream of another seed
        with pytest.raises(wf.InvalidSizeError, match="integer"):
            wf.mix_trial_seed(seed, 0)
        for draw in every_draw():
            with pytest.raises(wf.InvalidSizeError) as exc:
                draw(3, seed)
            assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)], ids=repr)
    def test_numpy_integer_seeds_accepted(self, seed):
        assert wf.mix_trial_seed(seed, 3) == wf.mix_trial_seed(int(seed), 3)
        for draw in every_draw():
            sample = draw(3, seed)
            # a sample keeps its seed as a Python int
            assert type(sample.seed) is int and sample.seed == int(seed)
            assert sample_bytes(sample) == sample_bytes(draw(3, int(seed)))


class TestGOE:
    def test_symmetry_exact(self):
        h = wf.sample_goe(3, 42).array
        assert np.array_equal(h, h.T)

    def test_invalid_size(self):
        with pytest.raises(wf.InvalidSizeError):
            wf.sample_goe(0, 1)

    def test_diagonal_variance_n1(self):
        draws = np.array(
            [wf.sample_goe(1, wf.mix_trial_seed(7, t)).array[0, 0] for t in range(100_000)]
        )
        assert 0.97 <= draws.var(ddof=1) <= 1.03

    def test_offdiagonal_variance(self):
        draws = np.array(
            [wf.sample_goe(50, wf.mix_trial_seed(11, t)).array[1, 2] for t in range(10_000)]
        )
        assert 0.47 <= draws.var(ddof=1) <= 0.53

    def test_bit_identical_for_fixed_seed(self):
        a = wf.sample_goe(20, 31415).array
        b = wf.sample_goe(20, 31415).array
        assert np.array_equal(a, b)


class TestGUE:
    def test_hermitian_exact(self):
        h = wf.sample_gue(2, 5).array
        assert h[1, 0] == np.conj(h[0, 1])

    def test_diagonal_real_and_variance_n1(self):
        draws = np.array(
            [wf.sample_gue(1, wf.mix_trial_seed(3, t)).array[0, 0] for t in range(100_000)]
        )
        assert np.all(draws.imag == 0)
        assert 0.485 <= draws.real.var(ddof=1) <= 0.515

    def test_offdiagonal_imag_mean(self):
        draws = np.array(
            [wf.sample_gue(20, wf.mix_trial_seed(17, t)).array[0, 1].imag for t in range(10_000)]
        )
        assert -0.01 <= draws.mean() <= 0.01

    def test_offdiagonal_component_variances(self):
        h = [wf.sample_gue(10, wf.mix_trial_seed(23, t)).array[2, 7] for t in range(20_000)]
        h = np.array(h)
        n = h.size
        assert abs(h.real.var(ddof=1) - 0.25) <= 10 / np.sqrt(n)
        assert abs(h.imag.var(ddof=1) - 0.25) <= 10 / np.sqrt(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 100])
    def test_matches_complex_assembly_oracle_byte_for_byte(self, n):
        # tobytes also tells +0 from -0, which array_equal does not
        for seed in (0, 1):
            got = wf.sample_gue(n, seed).array
            assert got.tobytes() == gue_stream_reference(n, seed).tobytes(), seed


class TestGSE:
    def test_n1_is_doubled_scalar(self):
        s = wf.sample_gse(1, 9)
        h = s.array
        assert h.shape == (2, 2)
        assert h[0, 0] == h[1, 1]
        assert h[0, 1] == 0 and h[1, 0] == 0
        draws = np.array(
            [wf.sample_gse(1, wf.mix_trial_seed(29, t)).array[0, 0].real for t in range(100_000)]
        )
        assert 0.24 <= draws.var(ddof=1) <= 0.26

    def test_embedding_hermitian_exact(self):
        h = wf.sample_gse(2, 12).array
        assert np.array_equal(h, h.conj().T)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 100])
    def test_matches_block_index_oracle_byte_for_byte(self, n):
        # tobytes also tells +0 from -0, which array_equal does not
        for seed in (0, 1):
            got = wf.sample_gse(n, seed).array
            assert got.tobytes() == gse_block_index_reference(n, seed).tobytes(), seed
            assert np.array_equal(got, gse_stream_reference(n, seed)), seed

    def test_kramers_doubling_fixed_seed(self):
        # oracle: independent dense Hermitian solver on the embedding
        h = wf.sample_gse(3, 777).array
        eigs = np.sort(np.linalg.eigvalsh(h))
        gaps = eigs[1::2] - eigs[0::2]
        assert np.all(np.abs(gaps) < 1e-10)


class TestMatchedWigner:
    def test_three_point_closed_form_matches_bruteforce(self):
        # the moment-matching condition: at the package's atoms, moments 1-4 of
        # the three-point law are the Gaussian's closed forms (0, var, 0, 3 var^2)
        for c, var in ((_REAL_MATCHED_C, 0.5), (_HERMITIAN_MATCHED_C, 0.25)):
            moments = [three_point_moment_oracle(c, 1.0 / 6.0, k) for k in (1, 2, 3, 4)]
            assert moments == pytest.approx([0.0, var, 0.0, 3.0 * var**2], abs=1e-15)

    def test_three_point_large_sample_moments(self):
        rng = np.random.default_rng(4)
        u = rng.random(200_000)
        x = _three_point(u, _REAL_MATCHED_C)
        n = x.size
        assert abs(x.mean()) <= 5 / np.sqrt(n)
        assert abs(x.var(ddof=1) - 0.5) <= 10 / np.sqrt(n)
        assert abs((x**4).mean() - 0.75) <= 20 / np.sqrt(n)

    def test_real_symmetric_exact(self):
        h = wf.sample_matched_wigner(5, 8, symmetry="real").array
        assert np.array_equal(h, h.T)

    def test_real_diagonal_variance(self):
        draws = np.array(
            [
                wf.sample_matched_wigner(1, wf.mix_trial_seed(41, t), symmetry="real").array[0, 0]
                for t in range(100_000)
            ]
        )
        assert 0.97 <= draws.var(ddof=1) <= 1.03

    def test_hermitian_components(self):
        vals = np.array(
            [
                wf.sample_matched_wigner(4, wf.mix_trial_seed(43, t), symmetry="hermitian").array[0, 2]
                for t in range(30_000)
            ]
        )
        n = vals.size
        assert abs(vals.real.var(ddof=1) - 0.25) <= 10 / np.sqrt(n)
        assert abs((vals.real**4).mean() - 3.0 / 16.0) <= 10 / np.sqrt(n)
        h = wf.sample_matched_wigner(3, 2, symmetry="hermitian").array
        assert np.array_equal(h, h.conj().T)

    def test_unknown_symmetry(self):
        with pytest.raises(wf.UnsupportedError):
            wf.sample_matched_wigner(3, 1, symmetry="quaternion")


class TestTridiagBeta:
    def test_unsupported_beta(self):
        with pytest.raises(wf.UnsupportedError):
            wf.sample_tridiag_beta(5, 3, 1)

    def test_n1_beta2_matches_gue_scalar(self):
        # the eigenvalue should be N(0, 1/2), same as the 1x1 GUE entry
        tri = np.array(
            [
                wf.sample_tridiag_beta(1, 2, wf.mix_trial_seed(5, t)).diag[0]
                for t in range(100_000)
            ]
        )
        assert 0.485 <= tri.var(ddof=1) <= 0.515
        gue = np.array(
            [wf.sample_gue(1, wf.mix_trial_seed(6, t)).array[0, 0].real for t in range(100_000)]
        )
        _, p = wf.ks_two_sample(tri, gue)
        assert p > 0.01

    def test_n2_beta1_trace_matches_dense(self):
        # trace of the 2x2 model is the sum of two N(0,1) entries, like GOE_2
        traces = np.array(
            [
                wf.sample_tridiag_beta(2, 1, wf.mix_trial_seed(51, t)).diag.sum()
                for t in range(100_000)
            ]
        )
        assert 1.94 <= traces.var(ddof=1) <= 2.06

    def test_n1_beta4_variance(self):
        draws = np.array(
            [
                wf.sample_tridiag_beta(1, 4, wf.mix_trial_seed(52, t)).diag[0]
                for t in range(100_000)
            ]
        )
        assert 0.24 <= draws.var(ddof=1) <= 0.26

    @pytest.mark.parametrize("n", [2, 8])
    def test_largest_eigenvalue_matches_dense_goe(self, n):
        trials = 5000
        tri_max = np.empty(trials)
        dense_max = np.empty(trials)
        for t in range(trials):
            s = wf.sample_tridiag_beta(n, 1, wf.mix_trial_seed(60, t))
            tri_max[t] = wf.eigenvalues(s).values[-1]
            g = wf.sample_goe(n, wf.mix_trial_seed(61, t))
            dense_max[t] = wf.eigenvalues(g).values[-1]
        _, p = wf.ks_two_sample(tri_max, dense_max)
        assert p > 0.01


class TestSuperposeDecimate:
    def test_example_positions(self):
        out = wf.superpose_decimate_even([1.0, 3.0], [0.0, 2.0, 4.0])
        assert np.array_equal(out, [1.0, 3.0])

    def test_singleton_union_empty(self):
        assert wf.superpose_decimate_even([5.0], []).size == 0

    def test_exact_tie_rejected(self):
        with pytest.raises(wf.DegenerateInputError):
            wf.superpose_decimate_even([1.0, 2.0], [2.0, 3.0])
        # inf == inf is a tie too (inf - inf is nan, so a difference test missed it)
        with pytest.raises(wf.DegenerateInputError):
            wf.superpose_decimate_even([0.0, np.inf], [np.inf])

    def test_not_increasing_rejected(self):
        with pytest.raises(wf.ShapeError):
            wf.superpose_decimate_even([2.0, 1.0], [0.0])

    def test_output_strictly_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = np.sort(rng.standard_normal(7))
            b = np.sort(rng.standard_normal(8))
            out = wf.superpose_decimate_even(a, b)
            assert np.all(np.diff(out) > 0)

    def test_matches_sort_and_difference_form(self):
        def reference(a, b):
            merged = np.sort(np.concatenate([a, b]))
            if merged.size > 1 and np.any(np.diff(merged) == 0.0):
                return None
            return merged[1::2]

        rng = np.random.default_rng(11)
        ties = 0
        for i in range(500):
            # every other pair on a coarse grid, where ties are common
            draw = rng.standard_normal if i % 2 else lambda size: rng.integers(-20, 20, size) / 4.0
            a, b = (np.unique(draw(rng.integers(0, 10))) for _ in range(2))
            want = reference(a, b)
            if want is None:
                ties += 1
                with pytest.raises(wf.DegenerateInputError):
                    wf.superpose_decimate_even(a, b)
            else:
                assert wf.superpose_decimate_even(a, b).tobytes() == want.tobytes(), i
        assert 0 < ties < 250


class TestGSEFromGOE:
    def test_three_points(self):
        out = wf.gse_from_goe([-2.0, 0.0, 2.0])
        assert np.allclose(out, [0.0])

    def test_five_points(self):
        out = wf.gse_from_goe([-3.0, -1.0, 0.0, 1.0, 3.0])
        assert np.allclose(out, [-1.0 / np.sqrt(2), 1.0 / np.sqrt(2)])

    def test_even_length_rejected(self):
        with pytest.raises(wf.ShapeError):
            wf.gse_from_goe([0.0, 1.0])

    def test_output_strictly_increasing(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = np.sort(rng.standard_normal(9))
            assert np.all(np.diff(wf.gse_from_goe(y)) > 0)


@pytest.mark.parametrize(
    "check, name",
    [
        (wf.SpectrumSample, "spectrum"),
        (lambda values: wf.superpose_decimate_even(values, [0.5]), "spectrum_a"),
        (wf.gse_from_goe, "spectrum"),
    ],
    ids=["SpectrumSample", "superpose_decimate_even", "gse_from_goe"],
)
def test_every_spectrum_check_has_the_same_wording(check, name):
    for values, wording in (
        (np.zeros((2, 3)), "must be one-dimensional, got shape (2, 3)"),
        ([3.0, 2.0, 1.0], "must be strictly increasing"),
    ):
        with pytest.raises(wf.ShapeError) as exc:
            check(values)
        assert str(exc.value) == f"{name} {wording}"


class TestEnsembleSpec:
    def test_beta_implied(self):
        assert wf.EnsembleSpec(wf.EnsembleKind.GSE, 3).beta == 4

    def test_beta_conflict_rejected(self):
        with pytest.raises(wf.UnsupportedError):
            wf.EnsembleSpec(wf.EnsembleKind.GOE, 3, beta=2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: wf.sample_goe(2.5, 0),
            lambda: wf.sample_goe(2.0, 0),
            lambda: wf.EnsembleSpec(wf.EnsembleKind.GUE, "3"),
            lambda: wf.mix_trial_seed(1, 0.5),
        ],
        ids=["size-2.5", "size-2.0", "size-str", "trial-0.5"],
    )
    def test_size_or_trial_that_is_not_an_integer_rejected(self, call):
        with pytest.raises(wf.InvalidSizeError, match="integer"):
            call()

    def test_numpy_integer_size_and_trial_accepted(self):
        spec = wf.EnsembleSpec(wf.EnsembleKind.GOE, np.int64(3))
        assert type(spec.n) is int and spec.n == 3
        assert wf.sample_goe(np.int64(3), 4).array.tobytes() == wf.sample_goe(3, 4).array.tobytes()
        assert wf.mix_trial_seed(1, np.int64(7)) == wf.mix_trial_seed(1, 7)

    def test_tridiag_requires_beta(self):
        with pytest.raises(wf.UnsupportedError) as exc:
            wf.EnsembleSpec(wf.EnsembleKind.TRIDIAG_BETA, 3)
        assert str(exc.value) == "beta is required for the tridiag ensemble"

    def test_unknown_kind_is_an_unsupported_option(self):
        kinds = ",".join(k.value for k in wf.EnsembleKind)
        with pytest.raises(wf.UnsupportedError) as exc:
            wf.EnsembleSpec("foo", 3)
        assert str(exc.value) == f"ensemble kind must be one of {{{kinds}}}, got foo"
        assert wf.EnsembleSpec("gse", 3).kind is wf.EnsembleKind.GSE

    def test_beta_passes_the_integer_rule_first(self):
        kind = wf.EnsembleKind.TRIDIAG_BETA
        with pytest.raises(wf.InvalidSizeError, match="beta must be an integer, got 2.0"):
            wf.EnsembleSpec(kind, 3, beta=2.0)
        with pytest.raises(wf.UnsupportedError, match=r"beta must be one of \{1,2,4\}, got 3"):
            wf.EnsembleSpec(kind, 3, beta=3)
        spec = wf.EnsembleSpec(kind, 3, beta=True)
        assert type(spec.beta) is int and spec.beta == 1
        assert type(wf.EnsembleSpec(kind, 3, beta=np.int64(4)).beta) is int

    def test_a_spec_carries_no_seed(self):
        # the seed of a draw is an argument of the draw: sample(spec, seed)
        assert [f.name for f in dataclasses.fields(wf.EnsembleSpec)] == ["kind", "n", "beta"]
        with pytest.raises(TypeError):
            wf.EnsembleSpec(wf.EnsembleKind.GOE, 3, seed=1)
        # so a third positional argument is beta
        assert wf.EnsembleSpec(wf.EnsembleKind.TRIDIAG_BETA, 3, 4).beta == 4
        with pytest.raises(TypeError):
            wf.sample(wf.EnsembleSpec(wf.EnsembleKind.GOE, 3))

    @pytest.mark.parametrize(
        "seed, message", [(-1, "must be >= 0, got -1"), (2**64, f"must be < 2**64, got {2**64}")]
    )
    def test_seed_outside_the_uint64_range_rejected(self, seed, message):
        for draw in every_draw():
            with pytest.raises(wf.InvalidSizeError) as exc:
                draw(3, seed)
            assert str(exc.value) == f"seed {message}"
        with pytest.raises(wf.InvalidSizeError) as exc:
            wf.mix_trial_seed(seed, 0)
        assert str(exc.value) == f"master seed {message}"

    def test_tridiagonal_beta_is_checked_before_the_seed(self):
        # the spec (n, beta) is checked first, then the seed
        with pytest.raises(wf.UnsupportedError):
            wf.sample_tridiag_beta(3, 3, -1)
        with pytest.raises(wf.InvalidSizeError, match="matrix size"):
            wf.sample_goe(0, -1)

    @pytest.mark.parametrize("kind", list(wf.EnsembleKind), ids=lambda k: k.value)
    def test_dispatch_matches_direct_samplers(self, kind):
        beta = 2 if kind is wf.EnsembleKind.TRIDIAG_BETA else 0
        for n in (1, 4, 17):
            spec = wf.EnsembleSpec(kind, n, beta=beta)
            for seed in (0, 99, 2**64 - 1):
                got, want = wf.sample(spec, seed), DIRECT_SAMPLERS[kind](n, seed)
                assert (got.spec, got.seed) == (want.spec, want.seed) == (spec, seed)
                assert sample_bytes(got) == sample_bytes(want), (n, seed)

