"""The package's public surface: exactly the names below, and every name the
acceptance suite calls among them."""

import re
import types
from pathlib import Path

import wigner_fluct as wf

PUBLIC = {
    # ensembles
    "EnsembleKind", "EnsembleSpec", "MatrixSample", "gse_from_goe", "mix_trial_seed",
    "sample", "sample_goe", "sample_gse", "sample_gue", "sample_matched_wigner",
    "sample_tridiag_beta", "superpose_decimate_even",
    # errors
    "DegenerateInputError", "DiscretizationFailureError", "DomainError", "InvalidDataError",
    "InvalidSizeError", "NumericalFailureError", "NumericalRangeError", "ShapeError",
    "UnsupportedError",
    # fluctuations
    "IndexSpec", "bulk_index_spec", "edge_index_spec", "normalize", "predicted_cov",
    "thetas_from_indices",
    # kernel
    "CumulantReport", "KernelOperator", "counting_cumulants", "discretize_operator",
    "expected_count", "hermite_psi", "kernel_diag", "variance_count",
    # semicircle
    "CenterScale", "bulk_center_scale", "edge_center_scale", "semicircle_cdf",
    "semicircle_density", "semicircle_quantile",
    # spectra
    "SpectrumSample", "Tridiagonal", "check_interlacing", "eigenvalues", "eigenvalues_at",
    "sturm_count_below_batch", "tridiag_eigenvalues", "tridiag_eigenvalues_selected",
    "tridiagonalize",
    # stats
    "ExperimentPlan", "ExperimentResult", "Thresholds", "counting_experiment",
    "empirical_corr", "kolmogorov_sf", "ks_one_sample", "ks_two_sample", "run_mc",
    "standard_normal_cdf", "summarize_vectors",
}


def exported():
    """Public names of the package namespace, submodules excluded."""
    return {
        name
        for name, obj in vars(wf).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }


def test_exports_exactly_the_public_names():
    assert len(PUBLIC) == 61
    assert exported() == PUBLIC


def test_acceptance_suite_calls_only_public_names():
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    called = set(re.findall(r"\bwf\.([A-Za-z_]\w*)", text))
    assert called
    assert called <= PUBLIC
