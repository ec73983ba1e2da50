"""The package's public surface: exactly the names below, and every name the
acceptance suite calls among them."""

import ast
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
    "empirical_corr", "ks_one_sample", "ks_two_sample", "run_mc",
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
    assert len(PUBLIC) == 60
    assert exported() == PUBLIC


def parsed_modules():
    """(file name, syntax tree) of each module of the package."""
    for path in sorted(Path(wf.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_a_private_name_of_another():
    """A helper two modules share is public in the module both import (the
    argument rules live in errors); attribute uses such as stats._map_trials
    are not imports and are not checked."""
    offenders = []
    for module, tree in parsed_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "wigner_fluct":
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    offenders.append(f"{module}:{node.lineno} imports {name}")
    assert offenders == []


def test_acceptance_suite_calls_only_public_names():
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    called = set(re.findall(r"\bwf\.([A-Za-z_]\w*)", text))
    assert called
    assert called <= PUBLIC


def test_bound_messages_are_written_only_by_the_integer_rule():
    """Every integer and lower-bound message comes from errors.integer; cli's
    argparse messages are excluded, since its parsers run at parse time."""
    offenders = []
    for module, tree in parsed_modules():
        if module in ("errors.py", "cli.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "must be >=" in node.value or "must be an integer" in node.value:
                    offenders.append(f"{module}:{node.lineno}")
    assert offenders == []
