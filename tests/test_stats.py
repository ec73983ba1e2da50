import json
from math import exp, pi, sqrt

import numpy as np
import pytest

import wigner_fluct as wf
from wigner_fluct import cli, ensembles, spectra, stats
from wigner_fluct.stats import ExperimentPlan, Thresholds


def normal_cdf_series_oracle(x, terms=200):
    """Phi(x) = 1/2 + pdf(x) * (x + x^3/3 + x^5/(3*5) + ...), summed until the
    terms fall below 1e-18; independent of the library path."""
    term = x
    total = 0.0
    for k in range(terms):
        total += term
        term *= x * x / (2 * k + 3)
        if abs(term) < 1e-18:
            break
    return 0.5 + exp(-0.5 * x * x) / sqrt(2 * pi) * total


def synthetic_normal_vectors(lam, trials, seed):
    """Exactly multivariate-normal N(0, Lambda) trial vectors, for calibrating
    the verdict machinery against a generator with no finite-n bias."""
    lam = np.asarray(lam, dtype=float)
    m = lam.shape[0]
    chol = np.linalg.cholesky(lam + 1e-15 * np.eye(m))
    out = np.empty((trials, m))
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(wf.mix_trial_seed(seed, t)))
        out[t] = chol @ rng.standard_normal(m)
    return out


def bulk_plan(n=60, k=30, beta=1, trials=25, seed=5, **th):
    return ExperimentPlan(
        ensemble=wf.EnsembleSpec(wf.EnsembleKind.TRIDIAG_BETA, n, beta=beta),
        index_spec=wf.IndexSpec(regime="bulk", indices=(k,)),
        trials=trials,
        seed=seed,
        thresholds=Thresholds(**th),
    )


class TestNormalCdf:
    def test_midpoint(self):
        assert wf.standard_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert abs(
                wf.standard_normal_cdf(-x) - (1.0 - wf.standard_normal_cdf(x))
            ) < 1e-14

    def test_quantile_point(self):
        got = wf.standard_normal_cdf(1.96)
        assert got == pytest.approx(normal_cdf_series_oracle(1.96), abs=1e-12)
        assert got == pytest.approx(0.9750, abs=5e-5)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 1.0])
        vals = wf.standard_normal_cdf(xs)
        assert vals.shape == (3,)
        assert vals[1] == 0.5


class TestKSOneSample:
    def test_single_sample_at_median(self):
        assert wf.ks_one_sample([0.0]) == pytest.approx(0.5)

    def test_calibrated_on_true_normal(self):
        x = synthetic_normal_vectors(np.eye(1), 10_000, seed=71)[:, 0]
        d = wf.ks_one_sample(x)
        assert d < 1.63 / sqrt(10_000)  # 1% critical value

    def test_degenerate_far_sample(self):
        d = wf.ks_one_sample(np.full(50, 10.0))
        assert abs(d - 1.0) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(wf.InvalidSizeError):
            wf.ks_one_sample([])

    def test_nan_sample_rejected(self):
        # a NaN would sort last and make the statistic NaN
        with pytest.raises(wf.InvalidDataError, match="samples must be finite"):
            wf.ks_one_sample([0.1, np.nan, -0.3])


class TestKSTwoSample:
    def test_identical_multisets(self):
        a = np.array([0.3, -1.2, 0.3, 2.0])
        d, p = wf.ks_two_sample(a, a.copy())
        assert d == 0.0
        assert p == 1.0

    def test_separated_distributions(self):
        a = synthetic_normal_vectors(np.eye(1), 1000, seed=3)[:, 0]
        b = a + 3.0
        d, p = wf.ks_two_sample(a, b)
        assert p < 1e-6

    def test_calibration_under_null(self):
        flags = []
        for rep in range(200):
            a = synthetic_normal_vectors(np.eye(1), 1000, seed=wf.mix_trial_seed(1000, rep))[:, 0]
            b = synthetic_normal_vectors(np.eye(1), 1000, seed=wf.mix_trial_seed(2000, rep))[:, 0]
            _, p = wf.ks_two_sample(a, b)
            flags.append(p < 0.05)
        rate = np.mean(flags)
        assert 0.01 <= rate <= 0.12

    def test_empty_rejected(self):
        with pytest.raises(wf.InvalidSizeError):
            wf.ks_two_sample([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN in either sample gave a finite, wrong (d, p): (0.667, 0.660)
        with pytest.raises(wf.InvalidDataError, match="samples must be finite"):
            wf.ks_two_sample([bad, 0.1, 0.2], [0.3, 0.4])
        with pytest.raises(wf.InvalidDataError, match="samples must be finite"):
            wf.ks_two_sample([0.3, 0.4], [0.1, bad, 0.2])


class TestEmpiricalCorr:
    def test_duplicated_coordinate(self):
        x = np.random.default_rng(0).standard_normal((500, 1))
        m = wf.empirical_corr(np.hstack([x, x]))
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_coordinate(self):
        x = np.random.default_rng(1).standard_normal((500, 1))
        m = wf.empirical_corr(np.hstack([x, -x]))
        assert m[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_independent_pairs(self):
        x = synthetic_normal_vectors(np.eye(2), 10_000, seed=9)
        m = wf.empirical_corr(x)
        assert abs(m[0, 1]) < 0.05

    def test_zero_variance_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(wf.DegenerateInputError):
            wf.empirical_corr(x)

    def test_nan_entry_rejected(self):
        x = np.random.default_rng(2).standard_normal((20, 2))
        x[3, 1] = np.nan
        with pytest.raises(wf.InvalidDataError, match="vectors must be finite"):
            wf.empirical_corr(x)

    def test_vectors_without_coordinates_rejected(self):
        # (3, 0) vectors gave an empty (0, 0) correlation matrix
        spec = wf.IndexSpec("bulk", (1,))
        for call in (lambda: wf.empirical_corr(np.ones((3, 0))),
                     lambda: wf.summarize_vectors(np.ones((3, 0)), spec)):
            with pytest.raises(wf.InvalidSizeError, match="^coordinates must be >= 1, got 0$"):
                call()


class TestThresholds:
    @pytest.mark.parametrize("field", ["ks_max", "var_lo", "var_hi", "corr_tol"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, field, bad):
        # a nan bound fails every verdict without saying why
        with pytest.raises(wf.InvalidDataError, match=f"{field} must be finite"):
            Thresholds(**{field: bad})

    def test_inverted_variance_bounds_rejected(self):
        # with var_lo > var_hi every sample_variance verdict fails without saying why
        with pytest.raises(wf.DomainError, match="^var_lo 1.3 exceeds var_hi 0.8$"):
            Thresholds(var_lo=1.3, var_hi=0.8)
        assert Thresholds(var_lo=1.0, var_hi=1.0).var_lo == 1.0
        assert Thresholds(var_lo=1.3).var_hi is None

    def test_bounds_are_stored_as_python_floats(self):
        # a 0-d array or an int bound would otherwise reach the summary's JSON as it was given
        th = Thresholds(ks_max=np.array(0.5), var_lo=np.float32(0.75), var_hi=2, corr_tol=None)
        assert [type(v) for v in (th.ks_max, th.var_lo, th.var_hi)] == [float] * 3
        assert (th.ks_max, th.var_lo, th.var_hi, th.corr_tol) == (0.5, 0.75, 2.0, None)
        x = np.random.default_rng(0).standard_normal((20, 1))
        summary = wf.summarize_vectors(x, wf.IndexSpec("bulk", (1,)), th)
        assert json.loads(json.dumps(summary))["pass"][0]["bound"] == {"max": 0.5}


class TestRunMC:
    def test_single_trial_shape(self):
        result = wf.run_mc(bulk_plan(trials=1))
        assert result.vectors.shape == (1, 1)

    def test_rerun_is_bit_identical(self):
        a = wf.run_mc(bulk_plan())
        b = wf.run_mc(bulk_plan())
        assert np.array_equal(a.vectors, b.vectors)
        assert json.dumps(a.summary, sort_keys=True) == json.dumps(b.summary, sort_keys=True)

    def test_thread_count_invariance(self):
        serial = wf.run_mc(bulk_plan(trials=40), threads=1)
        threaded = wf.run_mc(bulk_plan(trials=40), threads=4)
        assert np.array_equal(serial.vectors, threaded.vectors)
        assert json.dumps(serial.summary, sort_keys=True) == json.dumps(
            threaded.summary, sort_keys=True
        )

    def test_summary_recomputable_from_vectors(self):
        plan = bulk_plan(trials=30, ks_max=0.5, var_lo=0.1, var_hi=3.0)
        result = wf.run_mc(plan)
        again = wf.summarize_vectors(result.vectors, plan.index_spec, plan.thresholds)
        assert json.dumps(result.summary, sort_keys=True) == json.dumps(again, sort_keys=True)

    # n = 30; (regime, indices) per case, edge offsets arriving as descending positions
    NORMALIZATION_INDICES = {
        "bulk-m1": ("bulk", (15,)),
        "bulk-m2": ("bulk", (12, 17)),
        "edge-m2": ("edge", (12, 14)),
    }

    @pytest.mark.parametrize("indices", sorted(NORMALIZATION_INDICES))
    @pytest.mark.parametrize(
        "ensemble", ["goe", "gue", "gse", "wigner-real", "wigner-hermitian", "tridiag"]
    )
    def test_dense_and_tridiag_paths_share_normalization(self, ensemble, indices):
        # every trial vector is the full spectrum's normalization
        n, seed = 30, 11
        spec = wf.EnsembleSpec(ensemble, n, beta=4 if ensemble == "tridiag" else 0)
        regime, idx = self.NORMALIZATION_INDICES[indices]
        index_spec = (wf.bulk_index_spec if regime == "bulk" else wf.edge_index_spec)(idx, n)
        plan = ExperimentPlan(ensemble=spec, index_spec=index_spec, trials=3, seed=seed)
        result = wf.run_mc(plan)
        for trial in range(plan.trials):
            sample = wf.sample(spec, wf.mix_trial_seed(seed, trial))
            manual = wf.normalize(wf.eigenvalues(sample), index_spec, spec.beta)
            assert np.allclose(result.vectors[trial], manual, rtol=0, atol=1e-12)

    def test_multiplicity_failure_names_the_trial(self, monkeypatch, capsys):
        # a negative tolerance makes every Kramers/embedding pair fail the spread check
        monkeypatch.setattr(spectra, "_DEDUP_RTOL", -1.0)
        plan = ExperimentPlan(
            ensemble=wf.EnsembleSpec(wf.EnsembleKind.GUE, 12),
            index_spec=wf.IndexSpec(regime="bulk", indices=(6,)),
            trials=2,
            seed=3,
        )
        with pytest.raises(wf.NumericalFailureError) as exc:
            wf.run_mc(plan)
        assert exc.value.context["trial"] == 0
        assert exc.value.context["trial_seed"] == wf.mix_trial_seed(3, 0)
        argv = "bulk-fluct --ensemble gue --n 12 --k 6 --trials 2 --seed 3 --no-timestamp"
        assert cli.main(argv.split()) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_trial_count_validated(self):
        with pytest.raises(wf.InvalidSizeError):
            bulk_plan(trials=0)
        with pytest.raises(wf.InvalidSizeError, match="integer"):
            bulk_plan(trials=3.5)
        assert wf.run_mc(bulk_plan(trials=np.int64(2))).vectors.shape == (2, 1)

    @pytest.mark.parametrize("threads", [0, -3, "2", 2.0])
    def test_thread_count_validated(self, threads):
        # the rule of --threads: 0 and -3 ran serially, "2" raised a bare TypeError
        with pytest.raises(wf.InvalidSizeError, match="threads must be"):
            wf.run_mc(bulk_plan(trials=2), threads=threads)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got -1"), (2**64, "seed must be < 2[*][*]64"),
         (1.5, "seed must be an integer")],
    )
    def test_plan_seed_validated_before_sampling(self, seed, message):
        with pytest.raises(wf.InvalidSizeError, match=message):
            bulk_plan(seed=seed)
        assert bulk_plan(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_plan_without_gap_exponents_rejected_before_sampling(self, monkeypatch):
        # two indices and no gap exponents: the summary's predicted covariance
        # cannot be formed, so no trial may be drawn
        calls = []
        sampler = ensembles.sample_tridiag_beta
        monkeypatch.setattr(
            ensembles, "sample_tridiag_beta", lambda *a: calls.append(a) or sampler(*a)
        )
        with pytest.raises(wf.ShapeError, match="gap exponents"):
            wf.run_mc(
                ExperimentPlan(
                    ensemble=wf.EnsembleSpec(wf.EnsembleKind.TRIDIAG_BETA, 30, beta=1),
                    index_spec=wf.IndexSpec(regime="bulk", indices=(10, 20)),
                    trials=50,
                    seed=5,
                )
            )
        assert calls == []


class TestVerdictCalibration:
    def test_ks_criterion_passes_for_exact_normals(self):
        # the verdict machinery must accept a perfectly normal generator with
        # very high repetition probability
        failures = 0
        for rep in range(100):
            x = synthetic_normal_vectors(np.eye(1), 2000, seed=wf.mix_trial_seed(7, rep))
            summary = wf.summarize_vectors(
                x, wf.IndexSpec(regime="bulk", indices=(1,)), Thresholds(ks_max=0.08)
            )
            failures += 0 if summary["pass"][0]["passed"] else 1
        assert failures == 0

    def test_variance_and_corr_criteria(self):
        lam = np.array([[1.0, 0.5], [0.5, 1.0]])
        x = synthetic_normal_vectors(lam, 3000, seed=123)
        spec = wf.IndexSpec(regime="bulk", indices=(1, 2), thetas=(0.5,))
        summary = wf.summarize_vectors(
            x, spec, Thresholds(var_lo=0.8, var_hi=1.25, corr_tol=0.12)
        )
        assert all(rec["passed"] for rec in summary["pass"])

    @pytest.mark.parametrize("side, bound", [("var_lo", "min"), ("var_hi", "max")])
    def test_one_sided_variance_bound_records_only_its_side(self, side, bound):
        # the unset side was written as +-inf, which is not JSON
        x = synthetic_normal_vectors(np.eye(1), 200, seed=4)
        spec = wf.IndexSpec(regime="bulk", indices=(1,))
        summary = wf.summarize_vectors(x, spec, Thresholds(**{side: 1.0}))
        (record,) = summary["pass"]
        assert record["bound"] == {bound: 1.0}
        value = record["value"]
        assert record["passed"] == (value >= 1.0 if bound == "min" else value <= 1.0)
        json.dumps(summary, allow_nan=False)

    @pytest.mark.parametrize(
        "columns, indices, thetas", [(2, (1,), ()), (1, (1, 2), (0.5,))], ids=["wide", "narrow"]
    )
    def test_vectors_that_do_not_fit_the_index_spec_rejected(self, columns, indices, thetas):
        # stored vectors are outside input: a column count other than the
        # spec's would index past the spec or leave no pair to check
        x = synthetic_normal_vectors(np.eye(columns), 10, seed=1)
        spec = wf.IndexSpec(regime="bulk", indices=indices, thetas=thetas)
        with pytest.raises(wf.ShapeError, match="columns"):
            wf.summarize_vectors(x, spec, Thresholds(corr_tol=0.12))


class TestCountingExperiment:
    def test_symmetric_cut_mean(self):
        counts = wf.counting_experiment(30, 1, 0.0, 4000, seed=17)
        assert counts.mean() == pytest.approx(15.0, abs=0.15)

    def test_deterministic(self, monkeypatch):
        a = wf.counting_experiment(10, 2, 0.3, 100, seed=5)
        monkeypatch.setattr(stats, "_COUNTING_BATCH", 7)
        b = wf.counting_experiment(10, 2, 0.3, 100, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, beta", [(1, 1), (12, 2), (9, 4)])
    def test_equals_per_trial_sampler_and_batched_sturm(self, n, beta):
        trials, seed, cut = 40, 2**63 + 7, 0.3
        counts = wf.counting_experiment(n, beta, cut, trials, seed)
        samples = [
            wf.sample_tridiag_beta(n, beta, wf.mix_trial_seed(seed, t)) for t in range(trials)
        ]
        below = wf.sturm_count_below_batch(
            np.array([s.diag for s in samples]),
            np.array([s.offdiag for s in samples]).reshape(trials, n - 1),
            cut,
        )
        assert np.array_equal(counts, n - below)

    def test_size_and_beta_checked_before_the_batch_is_sized(self):
        # n = 0 would otherwise size an off-diagonal batch of width -1
        with pytest.raises(wf.InvalidSizeError):
            wf.counting_experiment(0, 1, 0.0, 10, 0)
        with pytest.raises(wf.UnsupportedError):
            wf.counting_experiment(5, 3, 0.0, 10, 0)

    def test_size_that_is_not_an_integer_rejected(self):
        with pytest.raises(wf.InvalidSizeError, match="integer"):
            wf.counting_experiment(3.5, 1, 0.0, 5, 0)

    def test_trial_count_that_is_not_an_integer_rejected(self):
        with pytest.raises(wf.InvalidSizeError, match="integer"):
            wf.counting_experiment(10, 1, 0.0, 2.5, 0)
        assert wf.counting_experiment(10, 1, 0.0, np.int64(3), 0).shape == (3,)

    def test_nan_cut_rejected_and_infinite_cuts_count_none_or_all(self):
        with pytest.raises(wf.InvalidDataError, match="NaN"):
            wf.counting_experiment(10, 1, float("nan"), 5, 0)
        assert wf.counting_experiment(10, 1, np.inf, 5, 0).tolist() == [0] * 5
        assert wf.counting_experiment(10, 1, -np.inf, 5, 0).tolist() == [10] * 5

    def test_matches_direct_spectrum_counting(self):
        n, trials = 15, 50
        counts = wf.counting_experiment(n, 4, 0.4, trials, seed=29)
        for t in range(trials):
            s = wf.sample_tridiag_beta(n, 4, wf.mix_trial_seed(29, t))
            values = wf.eigenvalues(s).values
            assert counts[t] == int(np.sum(values > 0.4))
